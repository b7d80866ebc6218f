//! Host-side telemetry of the fast engine.
//!
//! [`HostCacheStats`] counts what the engine's host caches did; it never
//! influences simulated behaviour. Simulated quantities (retired
//! instructions, domain crossings, cycles) live on [`crate::Cpu`] itself.

/// Host-side cache counters of the fast engine: the superblock cache with
/// its crossing descriptors ([`crate::blocks`]) and the data-operand cache
/// ([`crate::dcache`]). Pure host telemetry — none of these influence
/// simulated cycles, and all stay zero on the reference engine. Read on
/// demand with `Cpu::host_cache_stats`, and exported to the simtrace
/// metrics summary as `host.*` counters at the end of every `Cpu::run`
/// while tracing is enabled.
///
/// The four `icache_*` fields are always 0 since the icache tier was
/// removed; delete together with `cdvm.icache_hit_rate` in a `benchmark`
/// PR (`benchmark/` builds this struct with a full literal).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostCacheStats {
    /// Always 0 (see above).
    pub icache_hits: u64,
    /// Always 0 (see above).
    pub icache_misses: u64,
    /// Always 0 (see above).
    pub icache_fills: u64,
    /// Always 0 (see above).
    pub icache_evicts: u64,
    /// Block-cache lookups served by a valid block.
    pub block_hits: u64,
    /// Block-cache lookups that found no valid block.
    pub block_misses: u64,
    /// Blocks formed and installed.
    pub block_fills: u64,
    /// Block fills that displaced a live block.
    pub block_evicts: u64,
    /// Evictions that displaced a *different* `(pt, entry)` — set-conflict
    /// pressure in the 2-way block cache (re-forms of the same block after
    /// invalidation don't count).
    pub block_evict_conflicts: u64,
    /// Block-to-block transfers taken through a chain hint.
    pub block_chains: u64,
    /// Mid-block aborts after a code-epoch bump.
    pub block_bails: u64,
    /// Domain crossings served by a valid block-edge crossing descriptor
    /// (full CODOMs jump check skipped, APL probe replayed).
    pub cross_hits: u64,
    /// Domain crossings at a block edge that took the full check (and, on
    /// success, installed a descriptor).
    pub cross_misses: u64,
    /// Data accesses served by the memory-operand translation cache.
    pub dcache_hits: u64,
    /// Data accesses that took the full walk + check path.
    pub dcache_misses: u64,
}

impl HostCacheStats {
    /// Component-wise difference (`self - earlier`), for delta reporting.
    pub fn delta(&self, earlier: &HostCacheStats) -> HostCacheStats {
        HostCacheStats {
            icache_hits: self.icache_hits - earlier.icache_hits,
            icache_misses: self.icache_misses - earlier.icache_misses,
            icache_fills: self.icache_fills - earlier.icache_fills,
            icache_evicts: self.icache_evicts - earlier.icache_evicts,
            block_hits: self.block_hits - earlier.block_hits,
            block_misses: self.block_misses - earlier.block_misses,
            block_fills: self.block_fills - earlier.block_fills,
            block_evicts: self.block_evicts - earlier.block_evicts,
            block_evict_conflicts: self.block_evict_conflicts - earlier.block_evict_conflicts,
            block_chains: self.block_chains - earlier.block_chains,
            block_bails: self.block_bails - earlier.block_bails,
            cross_hits: self.cross_hits - earlier.cross_hits,
            cross_misses: self.cross_misses - earlier.cross_misses,
            dcache_hits: self.dcache_hits - earlier.dcache_hits,
            dcache_misses: self.dcache_misses - earlier.dcache_misses,
        }
    }

    /// Block-cache hit rate in `[0, 1]` (0 when there were no lookups).
    pub fn block_hit_rate(&self) -> f64 {
        let total = self.block_hits + self.block_misses;
        if total == 0 {
            0.0
        } else {
            self.block_hits as f64 / total as f64
        }
    }

    /// Always 0.0 (the icache tier was removed; see the struct docs).
    pub fn icache_hit_rate(&self) -> f64 {
        let total = self.icache_hits + self.icache_misses;
        if total == 0 {
            0.0
        } else {
            self.icache_hits as f64 / total as f64
        }
    }

    /// Crossing-descriptor hit rate in `[0, 1]` (0 when no block-edge
    /// crossings happened).
    pub fn cross_hit_rate(&self) -> f64 {
        let total = self.cross_hits + self.cross_misses;
        if total == 0 {
            0.0
        } else {
            self.cross_hits as f64 / total as f64
        }
    }

    /// Memory-operand translation-cache hit rate in `[0, 1]`.
    pub fn dcache_hit_rate(&self) -> f64 {
        let total = self.dcache_hits + self.dcache_misses;
        if total == 0 {
            0.0
        } else {
            self.dcache_hits as f64 / total as f64
        }
    }
}
