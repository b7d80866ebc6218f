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
//! iTLB on every block entry, and every cross-process context switch
//! flushes both, so the lookup and the flush are laid out for the host.
//! The ways of all sets sit flat in one boxed slice (set `s` owns
//! `ways[s * W .. (s + 1) * W]`), each set kept in recency order:
//! position 0 is the most recently used way, the last position the LRU
//! victim. [`Tlb::access`] and [`Tlb::note_hits`] compare a set's front
//! way in line — a hit there changes nothing but the counter — and scan
//! the rest of the set out of line, rotating a hit to the front. A miss
//! rotates the whole set by one, which drops the last way, and fills the
//! front. There are no LRU stamps and no tick.
//!
//! [`Tlb::flush`] is O(1): it bumps a 32-bit epoch that every entry
//! carries in its key next to the page-table id, so every entry of an
//! older epoch stops matching and counts as empty. Such entries never hit,
//! so they never move forward and always sit behind the live ones, where
//! the next fills evict them first. [`Tlb::invalidate`] keeps the same
//! order by closing the gap it leaves and parking an empty way at the
//! back. When the epoch wraps, the slots are cleared for real, so an entry
//! 2^32 flushes old cannot come back to life.
//!
//! None of this is visible to the simulation: which pages are resident,
//! the LRU victim, the hit/miss/flush counters and [`Tlb::occupancy`] are
//! exactly those of a per-set list with push-on-fill and remove-on-
//! invalidate (`crates/simmem/tests/props.rs` checks the two against each
//! other after every operation, with flush-light and flush-heavy mixes).
//! Mutation checks: packing the key without the epoch fails the
//! `flush_clears` unit test and the oracle property, and skipping the
//! move-to-front of a hit found by the set scan fails
//! `lru_eviction_within_set` and the oracle property.

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
    /// The page-table id in the low 32 bits, the flush epoch of the fill
    /// in the high 32 bits.
    key: u64,
}

/// An empty way: no virtual page number reaches `u64::MAX` (addresses are
/// 64-bit, page numbers at most 52), so it matches no lookup.
const EMPTY: Entry = Entry { vpn: u64::MAX, key: 0 };

/// Set-associative TLB with LRU replacement.
pub struct Tlb {
    config: TlbConfig,
    /// `sets * ways` entries, set by set, each set in recency order.
    ways: Box<[Entry]>,
    /// `sets - 1` when the set count is a power of two (the common
    /// geometries), letting the hot index computation mask instead of
    /// dividing; `None` falls back to the modulo.
    mask: Option<usize>,
    /// Flush count modulo 2^32: the epoch live entries carry.
    epoch: u32,
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
            epoch: 0,
            stats: TlbStats::default(),
        }
    }

    /// The live entry for `(pt, addr)`.
    #[inline]
    fn entry(&self, pt: PageTableId, addr: u64) -> Entry {
        debug_assert!(pt.0 <= u32::MAX as usize, "page-table id overflows the TLB key");
        Entry { vpn: vpn(addr), key: u64::from(self.epoch) << 32 | pt.0 as u64 }
    }

    /// Index into `ways` of the front (MRU) way of `vpn`'s set.
    #[inline]
    fn set_start(&self, vpn: u64) -> usize {
        let set = match self.mask {
            Some(m) => (vpn as usize) & m,
            None => (vpn as usize) % self.config.sets,
        };
        set * self.config.ways
    }

    /// Moves `e` to the front of the set starting at `start` if the set
    /// holds it; returns whether it did.
    fn promote(&mut self, start: usize, e: Entry) -> bool {
        let set = &mut self.ways[start..start + self.config.ways];
        match set.iter().position(|w| *w == e) {
            Some(i) => {
                set[..=i].rotate_right(1);
                true
            }
            None => false,
        }
    }

    /// Looks up a translation; fills the entry on miss.
    ///
    /// Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, pt: PageTableId, addr: u64) -> bool {
        let e = self.entry(pt, addr);
        let start = self.set_start(e.vpn);
        if self.ways[start] == e {
            self.stats.hits += 1;
            return true;
        }
        self.access_set(start, e)
    }

    /// [`Tlb::access`] past a front-way mismatch: scan the set, fill the
    /// front on a miss.
    #[inline(never)]
    fn access_set(&mut self, start: usize, e: Entry) -> bool {
        if self.promote(start, e) {
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // The last way is the LRU one (or an empty one, if the set has
        // any): rotate it to the front and overwrite it.
        let set = &mut self.ways[start..start + self.config.ways];
        set.rotate_right(1);
        set[0] = e;
        false
    }

    /// Records `n` further hits on the already-resident translation for
    /// `addr` without scanning the set per access. Leaves the TLB in
    /// exactly the state `n` consecutive [`Tlb::access`] calls for the same
    /// page would: the entry moves to the front of its set and `n` hits are
    /// counted. Used by the cdvm block engine to batch the guaranteed
    /// same-page fetches inside a block.
    #[inline]
    pub fn note_hits(&mut self, pt: PageTableId, addr: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.stats.hits += n;
        let e = self.entry(pt, addr);
        let start = self.set_start(e.vpn);
        if self.ways[start] != e {
            self.note_hits_set(start, e);
        }
    }

    /// [`Tlb::note_hits`] past a front-way mismatch.
    #[inline(never)]
    fn note_hits_set(&mut self, start: usize, e: Entry) {
        self.promote(start, e);
    }

    /// Invalidates a single page's translation (TLB shootdown).
    pub fn invalidate(&mut self, pt: PageTableId, addr: u64) {
        let e = self.entry(pt, addr);
        let start = self.set_start(e.vpn);
        let set = &mut self.ways[start..start + self.config.ways];
        if let Some(i) = set.iter().position(|w| *w == e) {
            // Close the gap and park the empty way behind every live one.
            set[i..].rotate_left(1);
            set[set.len() - 1] = EMPTY;
        }
    }

    /// Flushes the entire TLB (page-table switch without ASIDs).
    pub fn flush(&mut self) {
        self.stats.flushes += 1;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.ways.fill(EMPTY);
        }
    }

    /// Returns the counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Number of valid entries currently cached.
    pub fn occupancy(&self) -> usize {
        let live = u64::from(self.epoch);
        self.ways.iter().filter(|e| e.vpn != EMPTY.vpn && e.key >> 32 == live).count()
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
    fn epoch_wrap_clears_the_slots() {
        let mut tlb = Tlb::default();
        tlb.access(PT, 0x1000); // filled under epoch 0
        tlb.epoch = u32::MAX - 1; // as if 2^32 - 2 flushes had passed
        tlb.access(PT, 0x2000);
        assert_eq!(tlb.occupancy(), 1, "only the entry of the current epoch is live");
        tlb.flush(); // epoch u32::MAX: 0x2000 goes stale
        assert_eq!(tlb.occupancy(), 0);
        tlb.flush(); // wraps to epoch 0, the epoch 0x1000 was filled under
        assert_eq!(tlb.occupancy(), 0, "an entry from before the wrap came back to life");
        assert!(!tlb.access(PT, 0x1000));
        assert!(tlb.access(PT, 0x1000), "the post-wrap fill is live");
        assert_eq!(tlb.stats(), TlbStats { hits: 1, misses: 3, flushes: 2 });
    }

    #[test]
    fn stale_entries_are_evicted_before_live_ones() {
        let cfg = TlbConfig { sets: 1, ways: 2 };
        let mut tlb = Tlb::new(cfg);
        tlb.access(PT, 0);
        tlb.access(PT, PAGE_SIZE);
        tlb.flush();
        tlb.access(PT, 2 * PAGE_SIZE); // takes one stale way
        tlb.access(PT, 3 * PAGE_SIZE); // takes the other, not page 2's
        assert!(tlb.access(PT, 2 * PAGE_SIZE) && tlb.access(PT, 3 * PAGE_SIZE));
        assert_eq!(tlb.occupancy(), 2);
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
