//! Property-based tests for the memory substrate.

use proptest::prelude::*;
use simmem::page::{page_align_down, page_align_up, page_offset, vpn};
use simmem::{DomainTag, FrameId, GlobalVas, Memory, PageFlags, PhysMem, PAGE_SIZE};
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

proptest! {
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
