//! Execution statistics and a ring-buffer instruction trace.
//!
//! [`ExecStats`] classifies retired instructions (useful for the §7.5-style
//! analyses: how many memory accesses, capability operations and
//! domain-crossing events a workload performs), and [`TraceRing`] keeps the
//! last N executed instructions for post-mortem debugging of generated
//! code (proxies, stubs) without the cost of full logging.

use std::collections::VecDeque;

use crate::disasm::disasm_one;
use crate::isa::Instr;

/// Coarse instruction classes for statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InstrClass {
    /// ALU / moves / branches.
    Alu,
    /// Loads and stores (including byte variants).
    Mem,
    /// Bulk copy/fill.
    Bulk,
    /// Calls, returns, jumps.
    Control,
    /// Capability and DCS operations.
    Cap,
    /// System interaction (ecall, privileged ops, work, halt).
    System,
}

impl InstrClass {
    /// Classifies an instruction.
    pub fn of(i: &Instr) -> InstrClass {
        use Instr::*;
        match i {
            Ld { .. } | St { .. } | Ldb { .. } | Stb { .. } => InstrClass::Mem,
            MemCpy { .. } | MemSet { .. } => InstrClass::Bulk,
            Jal { .. } | Jalr { .. } | Beq { .. } | Bne { .. } | Bltu { .. } | Bgeu { .. } => {
                InstrClass::Control
            }
            CapAplTake { .. }
            | CapSetBounds { .. }
            | CapSetPerm { .. }
            | CapPush { .. }
            | CapPop { .. }
            | CapLd { .. }
            | CapSt { .. }
            | CapClear { .. }
            | CapMov { .. }
            | CapRevoke
            | DcsGetBase { .. }
            | DcsSetBase { .. }
            | DcsGetTop { .. }
            | DcsSetTop { .. }
            | DcsSetWindow { .. }
            | DcsGetStart { .. }
            | DcsGetLimit { .. } => InstrClass::Cap,
            Ecall
            | Halt
            | Work { .. }
            | Crash
            | Swapgs
            | Rdgs { .. }
            | Wrgs { .. }
            | Wrfsbase { .. }
            | PtSwitch { .. }
            | Sysret { .. }
            | TagLookup { .. }
            | Rdcycle { .. }
            | CpuId { .. } => InstrClass::System,
            _ => InstrClass::Alu,
        }
    }

    /// All classes, for iteration.
    pub const ALL: [InstrClass; 6] = [
        InstrClass::Alu,
        InstrClass::Mem,
        InstrClass::Bulk,
        InstrClass::Control,
        InstrClass::Cap,
        InstrClass::System,
    ];

    fn idx(self) -> usize {
        match self {
            InstrClass::Alu => 0,
            InstrClass::Mem => 1,
            InstrClass::Bulk => 2,
            InstrClass::Control => 3,
            InstrClass::Cap => 4,
            InstrClass::System => 5,
        }
    }
}

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

/// Per-class retirement counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    counts: [u64; 6],
}

impl ExecStats {
    /// Empty stats.
    pub fn new() -> ExecStats {
        ExecStats::default()
    }

    /// Records one retired instruction.
    #[inline]
    pub fn record(&mut self, i: &Instr) {
        self.counts[InstrClass::of(i).idx()] += 1;
    }

    /// Count for a class.
    pub fn get(&self, c: InstrClass) -> u64 {
        self.counts[c.idx()]
    }

    /// Total retired.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of retired instructions in `c`.
    pub fn fraction(&self, c: InstrClass) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.get(c) as f64 / t as f64
        }
    }
}

/// A fixed-capacity ring of the most recent `(pc, instr)` pairs.
pub struct TraceRing {
    cap: usize,
    ring: VecDeque<(u64, Instr)>,
}

impl TraceRing {
    /// Creates a ring keeping the last `cap` instructions.
    pub fn new(cap: usize) -> TraceRing {
        TraceRing { cap: cap.max(1), ring: VecDeque::with_capacity(cap.max(1)) }
    }

    /// Records an executed instruction.
    #[inline]
    pub fn record(&mut self, pc: u64, i: Instr) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back((pc, i));
    }

    /// Formats the trace, oldest first.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (pc, i) in &self.ring {
            out.push_str(&format!("{pc:#012x}: {}\n", disasm_one(i)));
        }
        out
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_key_cases() {
        assert_eq!(InstrClass::of(&Instr::Add { rd: 1, rs1: 2, rs2: 3 }), InstrClass::Alu);
        assert_eq!(InstrClass::of(&Instr::Ld { rd: 1, rs1: 2, imm: 0 }), InstrClass::Mem);
        assert_eq!(InstrClass::of(&Instr::MemCpy { rd: 1, rs1: 2, rs2: 3 }), InstrClass::Bulk);
        assert_eq!(InstrClass::of(&Instr::Jal { rd: 1, imm: 8 }), InstrClass::Control);
        assert_eq!(InstrClass::of(&Instr::CapPush { crs: 0 }), InstrClass::Cap);
        assert_eq!(InstrClass::of(&Instr::Ecall), InstrClass::System);
        assert_eq!(InstrClass::of(&Instr::TagLookup { rd: 1, rs1: 2 }), InstrClass::System);
    }

    #[test]
    fn stats_accumulate_and_fraction() {
        let mut s = ExecStats::new();
        s.record(&Instr::Nop);
        s.record(&Instr::Nop);
        s.record(&Instr::Ld { rd: 1, rs1: 2, imm: 0 });
        assert_eq!(s.total(), 3);
        assert_eq!(s.get(InstrClass::Alu), 2);
        assert!((s.fraction(InstrClass::Mem) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn trace_ring_keeps_last_n() {
        let mut t = TraceRing::new(3);
        for i in 0..10u64 {
            t.record(i * 8, Instr::Movi { rd: 1, imm: i as i32 });
        }
        assert_eq!(t.len(), 3);
        let dump = t.dump();
        assert!(dump.contains("movi x1, 9"));
        assert!(!dump.contains("movi x1, 5"));
    }
}
