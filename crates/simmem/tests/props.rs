//! Property-based tests for the memory substrate.

use proptest::prelude::*;
use simmem::page::{page_align_down, page_align_up, page_offset, vpn};
use simmem::pagetable::PageTableId;
use simmem::{DomainTag, FrameId, GlobalVas, Memory, PageFlags, PhysMem, PAGE_SIZE};
use simmem::{Tlb, TlbConfig, TlbStats};
use std::collections::{HashMap, HashSet};

/// The eager frame store `PhysMem` must be indistinguishable from: every
/// live frame owns its 4 KiB from `alloc_frame` on.
#[derive(Default)]
struct EagerModel {
    frames: HashMap<FrameId, [u8; PAGE_SIZE as usize]>,
    code: HashSet<FrameId>,
    epoch: u64,
    /// Frames whose bytes were ever stored to (what `resident_frames` counts).
    written: HashSet<FrameId>,
}

impl EagerModel {
    fn store(&mut self, f: FrameId) -> &mut [u8; PAGE_SIZE as usize] {
        if self.code.contains(&f) {
            self.epoch += 1;
        }
        self.written.insert(f);
        self.frames.get_mut(&f).expect("live")
    }
}

/// The set-associative TLB as it was written before the flat MRU-way
/// layout: one `Vec` per set, push on fill, `retain` on invalidate. Kept
/// verbatim as the oracle [`Tlb`] must be indistinguishable from.
struct OracleTlb {
    config: TlbConfig,
    sets: Vec<Vec<OracleEntry>>,
    mask: Option<usize>,
    tick: u64,
    stats: TlbStats,
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct OracleEntry {
    vpn: u64,
    pt: PageTableId,
    lru: u64,
}

impl OracleTlb {
    fn new(config: TlbConfig) -> OracleTlb {
        let mask = config.sets.is_power_of_two().then(|| config.sets - 1);
        OracleTlb {
            config,
            sets: vec![Vec::new(); config.sets],
            mask,
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    fn set_idx(&self, vpn: u64) -> usize {
        match self.mask {
            Some(m) => (vpn as usize) & m,
            None => (vpn as usize) % self.config.sets,
        }
    }

    fn access(&mut self, pt: PageTableId, addr: u64) -> bool {
        self.tick += 1;
        let vpn = vpn(addr);
        let set_idx = self.set_idx(vpn);
        let set = &mut self.sets[set_idx];
        if let Some(e) = set.iter_mut().find(|e| e.vpn == vpn && e.pt == pt) {
            e.lru = self.tick;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let entry = OracleEntry { vpn, pt, lru: self.tick };
        if set.len() < self.config.ways {
            set.push(entry);
        } else {
            // Evict the LRU way.
            let victim = set
                .iter_mut()
                .min_by_key(|e| e.lru)
                .expect("non-empty set must have an LRU victim");
            *victim = entry;
        }
        false
    }

    fn note_hits(&mut self, pt: PageTableId, addr: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.tick += n;
        self.stats.hits += n;
        let vpn = vpn(addr);
        let set_idx = self.set_idx(vpn);
        if let Some(e) = self.sets[set_idx].iter_mut().find(|e| e.vpn == vpn && e.pt == pt) {
            e.lru = self.tick;
        }
    }

    fn invalidate(&mut self, pt: PageTableId, addr: u64) {
        let vpn = vpn(addr);
        let set_idx = self.set_idx(vpn);
        self.sets[set_idx].retain(|e| !(e.vpn == vpn && e.pt == pt));
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.stats.flushes += 1;
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// Runs `ops` on a [`Tlb`] and an [`OracleTlb`] of geometry `config`:
/// every return value, `stats()` and `occupancy()` must agree after every
/// operation. An op is `(kind, page table, page, offset, n)`: kinds 0–13
/// access, 14–16 access and then batch `n` hits on the same page (the
/// block engine's fetch pattern), 17–18 invalidate, 19 and up flush.
fn tlb_agrees_with_oracle(config: TlbConfig, ops: &[(u8, usize, u64, u64, u64)]) {
    let (mut tlb, mut oracle) = (Tlb::new(config), OracleTlb::new(config));
    for (i, &(kind, pt, page, off, n)) in ops.iter().enumerate() {
        let (pt, addr) = (PageTableId(pt), page * PAGE_SIZE + off);
        match kind {
            0..=16 => {
                let hit = tlb.access(pt, addr);
                prop_assert_eq!(hit, oracle.access(pt, addr), "op {}: access {:?}", i, config);
                if kind >= 14 {
                    tlb.note_hits(pt, addr, n);
                    oracle.note_hits(pt, addr, n);
                }
            }
            17 | 18 => {
                tlb.invalidate(pt, addr);
                oracle.invalidate(pt, addr);
            }
            _ => {
                tlb.flush();
                oracle.flush();
            }
        }
        prop_assert_eq!(tlb.stats(), oracle.stats, "op {}: stats {:?}", i, config);
        let occupancy = (tlb.occupancy(), oracle.occupancy());
        prop_assert_eq!(occupancy.0, occupancy.1, "op {}: occupancy {:?}", i, config);
    }
}

proptest! {
    /// [`Tlb`] against [`OracleTlb`] on random geometries (non-powers of
    /// two included) and random operation sequences over four page tables
    /// and a few dozen pages, one op in twenty a flush. Fails if a
    /// set-scan hit is not moved to the front of its set or the key drops
    /// the flush epoch (checked by mutation).
    #[test]
    fn tlb_matches_per_set_list_oracle(
        sets in 1usize..=20,
        ways in 1usize..=8,
        ops in prop::collection::vec(
            (0u8..20, 0usize..4, 0u64..40, 0u64..PAGE_SIZE, 1u64..10),
            1..400,
        ),
    ) {
        tlb_agrees_with_oracle(TlbConfig { sets, ways }, &ops);
    }

    /// The same comparison with more than a third of the ops flushes, runs
    /// of back-to-back flushes included: stale entries from many epochs
    /// share sets with live ones, so the victim order between them is
    /// exercised, not just the flush itself.
    #[test]
    fn tlb_matches_per_set_list_oracle_under_flush_heavy_mixes(
        sets in 1usize..=6,
        ways in 1usize..=8,
        ops in prop::collection::vec(
            (0u8..30, 0usize..3, 0u64..24, 0u64..PAGE_SIZE, 1u64..10),
            1..400,
        ),
    ) {
        tlb_agrees_with_oracle(TlbConfig { sets, ways }, &ops);
    }

    #[test]
    fn alignment_laws(addr in 0u64..u64::MAX / 2) {
        let down = page_align_down(addr);
        let up = page_align_up(addr);
        prop_assert!(down <= addr);
        prop_assert!(up >= addr);
        prop_assert_eq!(down % PAGE_SIZE, 0);
        prop_assert_eq!(up % PAGE_SIZE, 0);
        prop_assert!(up - down < 2 * PAGE_SIZE);
        prop_assert_eq!(vpn(addr) * PAGE_SIZE + page_offset(addr), addr);
    }

    #[test]
    fn vas_allocations_never_overlap(
        sizes in prop::collection::vec(1u64..1_000_000, 1..40),
        owners in prop::collection::vec(1u64..4, 1..40),
    ) {
        let mut vas = GlobalVas::new();
        let mut blocks = std::collections::HashMap::new();
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let owner = owners[i % owners.len()];
            let block = *blocks
                .entry(owner)
                .or_insert_with(|| vas.reserve_block(owner).unwrap());
            let addr = vas.suballoc(owner, block, *size).unwrap();
            let end = addr + page_align_up(*size);
            for (a, e) in &regions {
                prop_assert!(end <= *a || addr >= *e, "overlap: [{addr:#x},{end:#x}) vs [{a:#x},{e:#x})");
            }
            regions.push((addr, end));
        }
    }

    #[test]
    fn memory_write_read_roundtrip(
        offset in 0u64..(3 * PAGE_SIZE),
        data in prop::collection::vec(any::<u8>(), 1..512),
    ) {
        let mut m = Memory::new();
        m.map_anon(Memory::GLOBAL_PT, 0x10000, 4, PageFlags::RW, DomainTag(1));
        let addr = 0x10000 + offset;
        m.write(Memory::GLOBAL_PT, addr, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        m.read(Memory::GLOBAL_PT, addr, &mut out).unwrap();
        prop_assert_eq!(out, data);
    }

    #[test]
    fn page_table_map_unmap_inverse(
        pages in prop::collection::btree_set(0u64..64, 1..20),
    ) {
        let mut m = Memory::new();
        let pt = Memory::GLOBAL_PT;
        for &p in &pages {
            m.map_anon(pt, p * PAGE_SIZE, 1, PageFlags::RW, DomainTag(2));
        }
        prop_assert_eq!(m.table(pt).mapped_pages(), pages.len());
        for &p in &pages {
            m.unmap(pt, p * PAGE_SIZE, 1);
        }
        prop_assert_eq!(m.table(pt).mapped_pages(), 0);
        prop_assert_eq!(m.phys_mut().live_frames(), 0);
    }

    #[test]
    fn phys_mem_matches_eager_model(
        ops in prop::collection::vec(
            (0u8..10, any::<u16>(), any::<u16>(), 0u64..PAGE_SIZE, 0usize..96, any::<u64>()),
            1..160,
        ),
    ) {
        let mut pm = PhysMem::new();
        let mut model = EagerModel::default();
        let mut live: Vec<FrameId> = Vec::new();
        for (op, a, b, off, len, val) in ops {
            if live.is_empty() || op == 0 {
                let f = pm.alloc_frame();
                let fresh = model.frames.insert(f, [0; PAGE_SIZE as usize]).is_none();
                prop_assert!(fresh, "live id reissued");
                live.push(f);
            } else {
                let (f, g) = (live[a as usize % live.len()], live[b as usize % live.len()]);
                let at = off as usize..off as usize + len.min((PAGE_SIZE - off) as usize);
                let off8 = off.min(PAGE_SIZE - 8);
                let at8 = off8 as usize..off8 as usize + 8;
                match op {
                    1 => {
                        pm.free_frame(f);
                        live.swap_remove(a as usize % live.len());
                        model.frames.remove(&f);
                        model.written.remove(&f);
                        if model.code.remove(&f) {
                            model.epoch += 1;
                        }
                    }
                    2 | 3 => {
                        let bytes: Vec<u8> =
                            at.clone().map(|k| (val >> (k % 8 * 8)) as u8 ^ k as u8).collect();
                        pm.write(f, off, &bytes);
                        model.store(f)[at].copy_from_slice(&bytes);
                    }
                    4 => {
                        pm.write_u64(f, off8, val);
                        model.store(f)[at8].copy_from_slice(&val.to_le_bytes());
                    }
                    5 => {
                        let mut out = vec![0xa5u8; at.len()];
                        pm.read(f, off, &mut out);
                        prop_assert_eq!(&out[..], &model.frames[&f][at]);
                    }
                    6 => {
                        prop_assert_eq!(pm.read_u64(f, off8).to_le_bytes(), &model.frames[&f][at8]);
                    }
                    7 => {
                        pm.copy_frame(f, g);
                        let (data, src_written) = (model.frames[&f], model.written.contains(&f));
                        let dst_written = model.written.contains(&g);
                        *model.store(g) = data;
                        if !src_written && !dst_written {
                            model.written.remove(&g);
                        }
                    }
                    8 => {
                        pm.mark_code(f);
                        model.code.insert(f);
                    }
                    _ => prop_assert_eq!(pm.frame_bytes(f), &model.frames[&f][..]),
                }
            }
            prop_assert_eq!(pm.code_epoch(), model.epoch);
            prop_assert_eq!(pm.live_frames(), model.frames.len());
            prop_assert_eq!(pm.resident_frames(), model.written.len());
        }
        for f in live {
            prop_assert_eq!(pm.frame_bytes(f), &model.frames[&f][..]);
        }
    }
}
