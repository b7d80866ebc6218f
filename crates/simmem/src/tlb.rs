//! A small set-associative TLB model.
//!
//! The TLB is used purely for *cost accounting*: translations always go
//! through the page table for correctness, but the TLB decides whether a
//! page-walk penalty is charged. Page-table switches flush the TLB, which is
//! how the simulation reproduces "block 6" (page-table switch) costs and the
//! second-order overheads of process switching described in §2.2.
//!
//! # Layout
//!
//! Both engines probe the dTLB on every simulated load and store and the
//! iTLB on every block entry, so the lookup is laid out for the host: the
//! ways of all sets sit flat in one boxed slice (set `s` owns
//! `ways[s * W .. (s + 1) * W]`), an empty way is a sentinel entry that no
//! page number matches and whose LRU stamp (0) is older than any real one,
//! and one *MRU way* index remembers the way that last hit or was filled.
//! [`Tlb::access`] and [`Tlb::note_hits`] compare that way in line and scan
//! the set out of line only on a mismatch.
//!
//! None of this is visible to the simulation: which pages are resident,
//! the LRU victim, the hit/miss/flush counters and [`Tlb::occupancy`] are
//! exactly those of a per-set list with push-on-fill and remove-on-
//! invalidate (`crates/simmem/tests/props.rs` checks the two against each
//! other after every operation).

use crate::page::vpn;
use crate::pagetable::PageTableId;

/// TLB geometry configuration.
#[derive(Clone, Copy, Debug)]
pub struct TlbConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl Default for TlbConfig {
    fn default() -> Self {
        // Loosely modeled after an Ivy Bridge L1 DTLB (64 entries, 4-way).
        TlbConfig { sets: 16, ways: 4 }
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Number of lookups that hit.
    pub hits: u64,
    /// Number of lookups that missed (page walk charged).
    pub misses: u64,
    /// Number of whole-TLB flushes (page-table switches).
    pub flushes: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct Entry {
    vpn: u64,
    pt: PageTableId,
    lru: u64,
}

/// An empty way: no virtual page number reaches `u64::MAX` (addresses are
/// 64-bit, page numbers at most 52), and every real LRU stamp is a tick
/// ≥ 1, so empty ways are the first LRU victims.
const EMPTY: Entry = Entry { vpn: u64::MAX, pt: PageTableId(usize::MAX), lru: 0 };

/// Set-associative TLB with LRU replacement.
pub struct Tlb {
    config: TlbConfig,
    /// `sets * ways` entries, set by set.
    ways: Box<[Entry]>,
    /// `sets - 1` when the set count is a power of two (the common
    /// geometries), letting the hot index computation mask instead of
    /// dividing; `None` falls back to the modulo.
    mask: Option<usize>,
    /// Index into `ways` of the way that last hit or was filled.
    mru: usize,
    tick: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with the given geometry.
    pub fn new(config: TlbConfig) -> Tlb {
        let mask = config.sets.is_power_of_two().then(|| config.sets - 1);
        Tlb {
            config,
            ways: vec![EMPTY; config.sets * config.ways].into_boxed_slice(),
            mask,
            mru: 0,
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    /// The range of `ways` holding `vpn`'s set.
    #[inline]
    fn set_of(&self, vpn: u64) -> core::ops::Range<usize> {
        let set = match self.mask {
            Some(m) => (vpn as usize) & m,
            None => (vpn as usize) % self.config.sets,
        };
        set * self.config.ways..(set + 1) * self.config.ways
    }

    /// True when the MRU way holds `(pt, vpn)`. A way only ever holds a
    /// page of its own set, so this is a hit without computing the set.
    #[inline]
    fn mru_holds(&self, pt: PageTableId, vpn: u64) -> bool {
        let e = &self.ways[self.mru];
        e.vpn == vpn && e.pt == pt
    }

    /// Index of the way holding `(pt, vpn)`, if resident.
    fn find(&self, pt: PageTableId, vpn: u64) -> Option<usize> {
        let set = self.set_of(vpn);
        let base = set.start;
        self.ways[set].iter().position(|e| e.vpn == vpn && e.pt == pt).map(|i| base + i)
    }

    /// Looks up a translation; fills the entry on miss.
    ///
    /// Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, pt: PageTableId, addr: u64) -> bool {
        self.tick += 1;
        let vpn = vpn(addr);
        if self.mru_holds(pt, vpn) {
            self.ways[self.mru].lru = self.tick;
            self.stats.hits += 1;
            return true;
        }
        self.access_set(pt, vpn)
    }

    /// [`Tlb::access`] past an MRU mismatch: scan the set, fill the LRU
    /// way on a miss.
    #[inline(never)]
    fn access_set(&mut self, pt: PageTableId, vpn: u64) -> bool {
        if let Some(i) = self.find(pt, vpn) {
            self.ways[i].lru = self.tick;
            self.mru = i;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // Evict the LRU way (an empty way, if the set has one). Real
        // stamps are distinct, so the victim is unique.
        let set = self.set_of(vpn);
        let base = set.start;
        let victim = self.ways[set]
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.lru)
            .map(|(i, _)| base + i)
            .expect("a set has at least one way");
        self.ways[victim] = Entry { vpn, pt, lru: self.tick };
        self.mru = victim;
        false
    }

    /// Records `n` further hits on the already-resident translation for
    /// `addr` without scanning the set per access. Leaves the TLB in
    /// exactly the state `n` consecutive [`Tlb::access`] calls for the same
    /// page would: the tick advances by `n`, the entry's LRU stamp moves to
    /// the final tick, and `n` hits are counted. Used by the cdvm block
    /// engine to batch the guaranteed same-page fetches inside a block.
    #[inline]
    pub fn note_hits(&mut self, pt: PageTableId, addr: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.tick += n;
        self.stats.hits += n;
        let vpn = vpn(addr);
        if self.mru_holds(pt, vpn) {
            self.ways[self.mru].lru = self.tick;
        } else {
            self.note_hits_set(pt, vpn);
        }
    }

    /// [`Tlb::note_hits`] past an MRU mismatch.
    #[inline(never)]
    fn note_hits_set(&mut self, pt: PageTableId, vpn: u64) {
        if let Some(i) = self.find(pt, vpn) {
            self.ways[i].lru = self.tick;
            self.mru = i;
        }
    }

    /// Invalidates a single page's translation (TLB shootdown).
    pub fn invalidate(&mut self, pt: PageTableId, addr: u64) {
        if let Some(i) = self.find(pt, vpn(addr)) {
            self.ways[i] = EMPTY;
        }
    }

    /// Flushes the entire TLB (page-table switch without ASIDs).
    pub fn flush(&mut self) {
        self.ways.fill(EMPTY);
        self.stats.flushes += 1;
    }

    /// Returns the counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Number of valid entries currently cached.
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|e| e.vpn != EMPTY.vpn).count()
    }
}

impl Default for Tlb {
    fn default() -> Self {
        Tlb::new(TlbConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;

    const PT: PageTableId = PageTableId(0);

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::default();
        assert!(!tlb.access(PT, 0x1000));
        assert!(tlb.access(PT, 0x1008)); // same page
        assert_eq!(tlb.stats(), TlbStats { hits: 1, misses: 1, flushes: 0 });
    }

    #[test]
    fn flush_clears() {
        let mut tlb = Tlb::default();
        tlb.access(PT, 0x1000);
        tlb.flush();
        assert_eq!(tlb.occupancy(), 0);
        assert!(!tlb.access(PT, 0x1000));
        assert_eq!(tlb.stats().flushes, 1);
    }

    #[test]
    fn distinct_page_tables_do_not_alias() {
        let mut tlb = Tlb::default();
        tlb.access(PageTableId(0), 0x1000);
        assert!(!tlb.access(PageTableId(1), 0x1000));
    }

    #[test]
    fn lru_eviction_within_set() {
        let cfg = TlbConfig { sets: 1, ways: 2 };
        let mut tlb = Tlb::new(cfg);
        tlb.access(PT, 0); // page 0
        tlb.access(PT, PAGE_SIZE); // page 1
        tlb.access(PT, 0); // touch page 0, page 1 is now LRU
        tlb.access(PT, 2 * PAGE_SIZE); // evicts page 1
        assert!(tlb.access(PT, 0), "page 0 must survive");
        assert!(!tlb.access(PT, PAGE_SIZE), "page 1 must have been evicted");
    }

    #[test]
    fn note_hits_matches_repeated_accesses() {
        // Two TLBs, one taking n real same-page accesses, one taking the
        // batched shortcut: stats and future eviction behavior must match.
        let cfg = TlbConfig { sets: 1, ways: 2 };
        let mut real = Tlb::new(cfg);
        let mut batched = Tlb::new(cfg);
        for t in [&mut real, &mut batched] {
            t.access(PT, 0); // page 0
            t.access(PT, PAGE_SIZE); // page 1 (most recent)
        }
        for _ in 0..5 {
            real.access(PT, 0);
        }
        batched.note_hits(PT, 0, 5);
        assert_eq!(real.stats(), batched.stats());
        // Page 0 was refreshed in both; the next fill must evict page 1.
        real.access(PT, 2 * PAGE_SIZE);
        batched.access(PT, 2 * PAGE_SIZE);
        assert!(real.access(PT, 0) && batched.access(PT, 0), "page 0 survives");
        assert!(!real.access(PT, PAGE_SIZE) && !batched.access(PT, PAGE_SIZE), "page 1 evicted");
        assert_eq!(real.stats(), batched.stats());
    }

    #[test]
    fn invalidate_single_page() {
        let mut tlb = Tlb::default();
        tlb.access(PT, 0x1000);
        tlb.access(PT, 0x2000);
        tlb.invalidate(PT, 0x1000);
        assert!(!tlb.access(PT, 0x1000));
        assert!(tlb.access(PT, 0x2000));
    }
}
