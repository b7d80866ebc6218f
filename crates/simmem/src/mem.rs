//! The memory façade combining physical memory and page tables.
//!
//! [`Memory`] is what the VM and simulated kernel use for every access. It
//! enforces the conventional per-page protection bits; CODOMs domain/APL and
//! capability checks are layered on top by the `cdvm` crate (which first asks
//! [`Memory::translate`] for the target page's [`Pte`], consults the CODOMs
//! checker, and then performs the access).
//!
//! # Host translation cache
//!
//! Every simulated access walks a `HashMap`-backed page table. That walk is
//! the single hottest operation in the whole simulator, so [`Memory`] keeps a
//! small direct-mapped *host* translation cache of `(page table, vpn) → Pte`
//! in front of it. Entries carry the owning table's mutation generation and
//! are only served while the generation still matches, so any `map`, `unmap`,
//! `protect` or `set_tag` implicitly invalidates them — there is no explicit
//! shootdown to forget. The cdvm superblock cache and data-operand cache
//! consume [`Memory::table_generation`] the same way: every cached block,
//! chain hint and operand translation revalidates against it (blocks also
//! against the code epoch) on use.
//!
//! The cache is invisible to the simulation: it is *not* the simulated
//! [`crate::Tlb`] (whose hit/miss cycle accounting is charged by the VM and
//! must not change), it only removes host-side hash lookups. It belongs to
//! the fast engine: under `CDVM_NO_FASTPATH=1` (see [`crate::fastpath`]) the
//! reference interpreter walks the table on every access, which the
//! differential tests use to prove cycle/fault equivalence.

use core::cell::Cell;

use crate::page::{page_offset, Access, DomainTag, PageFlags, PAGE_SIZE};
use crate::pagetable::{PageTable, PageTableId, Pte};
use crate::phys::{FrameId, PhysMem};

/// A memory access fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemFault {
    /// The page is not mapped in the page table.
    Unmapped {
        /// Faulting virtual address.
        addr: u64,
    },
    /// The page is mapped but the protection bits forbid this access.
    Protection {
        /// Faulting virtual address.
        addr: u64,
        /// The attempted access kind.
        access: Access,
    },
}

impl MemFault {
    /// The faulting address.
    pub fn addr(&self) -> u64 {
        match self {
            MemFault::Unmapped { addr } | MemFault::Protection { addr, .. } => *addr,
        }
    }
}

impl core::fmt::Display for MemFault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MemFault::Unmapped { addr } => write!(f, "unmapped address {addr:#x}"),
            MemFault::Protection { addr, access } => {
                write!(f, "protection fault at {addr:#x} ({access:?})")
            }
        }
    }
}

impl std::error::Error for MemFault {}

/// Number of slots in the direct-mapped host translation cache.
const TCACHE_SLOTS: usize = 1024;

/// One host-translation-cache entry. `pt == usize::MAX` marks an empty slot.
#[derive(Clone, Copy)]
struct TransEntry {
    pt: usize,
    vpn: u64,
    gen: u64,
    pte: Pte,
}

impl TransEntry {
    const EMPTY: TransEntry = TransEntry {
        pt: usize::MAX,
        vpn: 0,
        gen: 0,
        pte: Pte { frame: FrameId(0), flags: PageFlags::NONE, tag: DomainTag(0) },
    };
}

/// Physical memory plus the set of page tables in the machine.
pub struct Memory {
    phys: PhysMem,
    tables: Vec<PageTable>,
    /// Host translation cache; `Cell` because lookups happen on `&self`
    /// read paths. Never consulted when `fastpath` is off.
    tcache: Box<[Cell<TransEntry>]>,
    fastpath: bool,
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

impl Memory {
    /// Creates a memory with a single (global, id 0) page table.
    ///
    /// Page table 0 is, by convention, the shared global page table of all
    /// dIPC-enabled processes and the kernel (§6.1.3).
    pub fn new() -> Memory {
        Memory {
            phys: PhysMem::new(),
            tables: vec![PageTable::new()],
            tcache: vec![Cell::new(TransEntry::EMPTY); TCACHE_SLOTS].into_boxed_slice(),
            fastpath: crate::fastpath::fastpath_enabled(),
        }
    }

    /// The shared global page table id.
    pub const GLOBAL_PT: PageTableId = PageTableId(0);

    /// Creates an additional (private) page table and returns its id.
    pub fn new_page_table(&mut self) -> PageTableId {
        self.tables.push(PageTable::new());
        PageTableId(self.tables.len() - 1)
    }

    /// Accesses the physical memory pool directly.
    pub fn phys_mut(&mut self) -> &mut PhysMem {
        &mut self.phys
    }

    /// Read-only view of the physical memory pool.
    pub fn phys(&self) -> &PhysMem {
        &self.phys
    }

    /// Monotonic counter bumped whenever a code-marked frame's bytes may
    /// have changed (see [`PhysMem::code_epoch`]). The cdvm block cache
    /// validates against it.
    #[inline]
    pub fn code_epoch(&self) -> u64 {
        self.phys.code_epoch()
    }

    /// The mutation generation of page table `pt` (see
    /// [`PageTable::generation`]). Together with [`Memory::code_epoch`] this
    /// is the whole invalidation protocol of the host-side caches.
    #[inline]
    pub fn table_generation(&self, pt: PageTableId) -> u64 {
        self.tables[pt.0].generation()
    }

    /// True if this memory consults its host translation cache.
    #[inline]
    pub fn fastpath(&self) -> bool {
        self.fastpath
    }

    /// Returns a page table by id.
    pub fn table(&self, id: PageTableId) -> &PageTable {
        &self.tables[id.0]
    }

    /// Returns a mutable page table by id.
    ///
    /// Direct edits are safe with respect to the host caches: every
    /// [`PageTable`] mutation bumps its generation, which the caches
    /// validate on each lookup.
    pub fn table_mut(&mut self, id: PageTableId) -> &mut PageTable {
        &mut self.tables[id.0]
    }

    /// Maps `pages` fresh zeroed frames starting at `base` (page-aligned)
    /// with the given flags and tag. Panics if `base` is not page-aligned.
    pub fn map_anon(
        &mut self,
        pt: PageTableId,
        base: u64,
        pages: u64,
        flags: PageFlags,
        tag: DomainTag,
    ) {
        assert_eq!(page_offset(base), 0, "map_anon base must be page aligned");
        for i in 0..pages {
            let frame = self.phys.alloc_frame();
            self.tables[pt.0].map(base + i * PAGE_SIZE, Pte { frame, flags, tag });
        }
    }

    /// Unmaps `pages` pages starting at `base`, freeing their frames.
    pub fn unmap(&mut self, pt: PageTableId, base: u64, pages: u64) {
        for i in 0..pages {
            if let Some(pte) = self.tables[pt.0].unmap(base + i * PAGE_SIZE) {
                self.phys.free_frame(pte.frame);
            }
        }
    }

    /// Maps an existing frame (shared memory) at `base`.
    pub fn map_shared(
        &mut self,
        pt: PageTableId,
        base: u64,
        frame: FrameId,
        flags: PageFlags,
        tag: DomainTag,
    ) {
        assert_eq!(page_offset(base), 0);
        self.tables[pt.0].map(base, Pte { frame, flags, tag });
    }

    /// Looks up the PTE for `addr` without any protection check, going
    /// through the host translation cache when enabled.
    #[inline]
    fn lookup_cached(&self, pt: PageTableId, addr: u64) -> Option<Pte> {
        let table = &self.tables[pt.0];
        if !self.fastpath {
            return table.lookup(addr);
        }
        let vpn = crate::page::vpn(addr);
        let gen = table.generation();
        let idx = (vpn as usize ^ pt.0.wrapping_mul(0x9e37_79b9)) & (TCACHE_SLOTS - 1);
        let e = self.tcache[idx].get();
        if e.pt == pt.0 && e.vpn == vpn && e.gen == gen {
            return Some(e.pte);
        }
        let pte = table.lookup(addr)?;
        self.tcache[idx].set(TransEntry { pt: pt.0, vpn, gen, pte });
        Some(pte)
    }

    /// Looks up the PTE for `addr` without any protection check, going
    /// through the host translation cache. Kernel-mode accesses use this to
    /// bypass protection bits while still requiring a mapping.
    #[inline]
    pub fn lookup_pte(&self, pt: PageTableId, addr: u64) -> Option<Pte> {
        self.lookup_cached(pt, addr)
    }

    /// Translates `addr`, checking the conventional protection bit for
    /// `access`. Returns the PTE (including the CODOMs tag) on success.
    #[inline]
    pub fn translate(&self, pt: PageTableId, addr: u64, access: Access) -> Result<Pte, MemFault> {
        let pte = self.lookup_cached(pt, addr).ok_or(MemFault::Unmapped { addr })?;
        if !pte.flags.contains(access.required_flag()) {
            return Err(MemFault::Protection { addr, access });
        }
        Ok(pte)
    }

    /// Reads `buf.len()` bytes at `addr`, honoring protection bits. Reads may
    /// cross page boundaries.
    pub fn read(&self, pt: PageTableId, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        // Within-page fast path: one translation, one slice copy.
        if !buf.is_empty() && page_offset(addr) as usize + buf.len() <= PAGE_SIZE as usize {
            let pte = self.translate(pt, addr, Access::Read)?;
            self.phys.read(pte.frame, page_offset(addr), buf);
            return Ok(());
        }
        self.walk(pt, addr, buf.len(), Access::Read, |phys, frame, off, range| {
            phys.read(frame, off, &mut buf[range]);
        })
    }

    /// Writes `buf` at `addr`, honoring protection bits.
    pub fn write(&mut self, pt: PageTableId, addr: u64, buf: &[u8]) -> Result<(), MemFault> {
        if !buf.is_empty() && page_offset(addr) as usize + buf.len() <= PAGE_SIZE as usize {
            let pte = self.translate(pt, addr, Access::Write)?;
            self.phys.write(pte.frame, page_offset(addr), buf);
            return Ok(());
        }
        // Validate all pages first so a faulting write is all-or-nothing.
        let mut checked = 0usize;
        while checked < buf.len() {
            let a = addr + checked as u64;
            self.translate(pt, a, Access::Write)?;
            checked += (PAGE_SIZE - page_offset(a)) as usize;
        }
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u64;
            let pte = self.lookup_cached(pt, a).expect("validated above");
            let off = page_offset(a);
            let n = ((PAGE_SIZE - off) as usize).min(buf.len() - done);
            self.phys.write(pte.frame, off, &buf[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, pt: PageTableId, addr: u64) -> Result<u64, MemFault> {
        if page_offset(addr) + 8 <= PAGE_SIZE {
            let pte = self.translate(pt, addr, Access::Read)?;
            return Ok(self.phys.read_u64(pte.frame, page_offset(addr)));
        }
        let mut b = [0u8; 8];
        self.read(pt, addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, pt: PageTableId, addr: u64, v: u64) -> Result<(), MemFault> {
        if page_offset(addr) + 8 <= PAGE_SIZE {
            let pte = self.translate(pt, addr, Access::Write)?;
            self.phys.write_u64(pte.frame, page_offset(addr), v);
            return Ok(());
        }
        self.write(pt, addr, &v.to_le_bytes())
    }

    /// Kernel ("supervisor") read that ignores protection bits — the
    /// simulated kernel accesses user memory through this, as a real kernel
    /// would with its supervisor mappings. Only mapping is required.
    pub fn kread(&self, pt: PageTableId, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        if !buf.is_empty() && page_offset(addr) as usize + buf.len() <= PAGE_SIZE as usize {
            let pte = self.lookup_cached(pt, addr).ok_or(MemFault::Unmapped { addr })?;
            self.phys.read(pte.frame, page_offset(addr), buf);
            return Ok(());
        }
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u64;
            let pte = self.lookup_cached(pt, a).ok_or(MemFault::Unmapped { addr: a })?;
            let off = page_offset(a);
            let n = ((PAGE_SIZE - off) as usize).min(buf.len() - done);
            self.phys.read(pte.frame, off, &mut buf[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Kernel write that ignores protection bits (but still requires the
    /// pages to be mapped).
    pub fn kwrite(&mut self, pt: PageTableId, addr: u64, buf: &[u8]) -> Result<(), MemFault> {
        if !buf.is_empty() && page_offset(addr) as usize + buf.len() <= PAGE_SIZE as usize {
            let pte = self.lookup_cached(pt, addr).ok_or(MemFault::Unmapped { addr })?;
            self.phys.write(pte.frame, page_offset(addr), buf);
            return Ok(());
        }
        let mut checked = 0usize;
        while checked < buf.len() {
            let a = addr + checked as u64;
            self.lookup_cached(pt, a).ok_or(MemFault::Unmapped { addr: a })?;
            checked += (PAGE_SIZE - page_offset(a)) as usize;
        }
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u64;
            let pte = self.lookup_cached(pt, a).expect("validated above");
            let off = page_offset(a);
            let n = ((PAGE_SIZE - off) as usize).min(buf.len() - done);
            self.phys.write(pte.frame, off, &buf[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Kernel u64 read.
    pub fn kread_u64(&self, pt: PageTableId, addr: u64) -> Result<u64, MemFault> {
        if page_offset(addr) + 8 <= PAGE_SIZE {
            let pte = self.lookup_cached(pt, addr).ok_or(MemFault::Unmapped { addr })?;
            return Ok(self.phys.read_u64(pte.frame, page_offset(addr)));
        }
        let mut b = [0u8; 8];
        self.kread(pt, addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Kernel u64 write.
    pub fn kwrite_u64(&mut self, pt: PageTableId, addr: u64, v: u64) -> Result<(), MemFault> {
        if page_offset(addr) + 8 <= PAGE_SIZE {
            let pte = self.lookup_cached(pt, addr).ok_or(MemFault::Unmapped { addr })?;
            self.phys.write_u64(pte.frame, page_offset(addr), v);
            return Ok(());
        }
        self.kwrite(pt, addr, &v.to_le_bytes())
    }

    fn walk(
        &self,
        pt: PageTableId,
        addr: u64,
        len: usize,
        access: Access,
        mut f: impl FnMut(&PhysMem, FrameId, u64, core::ops::Range<usize>),
    ) -> Result<(), MemFault> {
        let mut done = 0usize;
        while done < len {
            let a = addr + done as u64;
            let pte = self.translate(pt, a, access)?;
            let off = page_offset(a);
            let n = ((PAGE_SIZE - off) as usize).min(len - done);
            f(&self.phys, pte.frame, off, done..done + n);
            done += n;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Memory, PageTableId) {
        let mut m = Memory::new();
        let pt = Memory::GLOBAL_PT;
        m.map_anon(pt, 0x1000, 2, PageFlags::RW, DomainTag(1));
        (m, pt)
    }

    #[test]
    fn rw_roundtrip() {
        let (mut m, pt) = setup();
        m.write_u64(pt, 0x1010, 0x1122_3344).unwrap();
        assert_eq!(m.read_u64(pt, 0x1010).unwrap(), 0x1122_3344);
    }

    #[test]
    fn cross_page_access() {
        let (mut m, pt) = setup();
        let data: Vec<u8> = (0..=255).collect();
        m.write(pt, 0x1f80, &data).unwrap(); // spans 0x1f80..0x2080
        let mut out = vec![0u8; 256];
        m.read(pt, 0x1f80, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn unmapped_fault() {
        let (m, pt) = setup();
        let mut b = [0u8; 1];
        assert_eq!(m.read(pt, 0x9000, &mut b), Err(MemFault::Unmapped { addr: 0x9000 }));
    }

    #[test]
    fn protection_fault_on_readonly_write() {
        let (mut m, pt) = setup();
        m.table_mut(pt).protect(0x1000, PageFlags::READ);
        let err = m.write(pt, 0x1000, &[1]).unwrap_err();
        assert!(matches!(err, MemFault::Protection { access: Access::Write, .. }));
        // Reads still fine.
        let mut b = [0u8; 1];
        m.read(pt, 0x1000, &mut b).unwrap();
    }

    #[test]
    fn failed_cross_page_write_is_atomic() {
        let (mut m, pt) = setup();
        // Second page becomes read-only; a write spanning both must not
        // modify the first page.
        m.table_mut(pt).protect(0x2000, PageFlags::READ);
        m.write_u64(pt, 0x1ff0, 0).unwrap();
        let err = m.write(pt, 0x1ffc, &[0xff; 8]).unwrap_err();
        assert!(matches!(err, MemFault::Protection { .. }));
        assert_eq!(m.read_u64(pt, 0x1ff0).unwrap(), 0, "no partial write");
    }

    #[test]
    fn kernel_access_bypasses_protection() {
        let (mut m, pt) = setup();
        m.table_mut(pt).protect(0x1000, PageFlags::READ);
        m.kwrite_u64(pt, 0x1000, 7).unwrap();
        assert_eq!(m.kread_u64(pt, 0x1000).unwrap(), 7);
        // But not mapping.
        assert!(m.kwrite_u64(pt, 0x9000, 7).is_err());
    }

    #[test]
    fn shared_mapping_aliases() {
        let mut m = Memory::new();
        let pt1 = Memory::GLOBAL_PT;
        let pt2 = m.new_page_table();
        let frame = m.phys_mut().alloc_frame();
        m.map_shared(pt1, 0x1000, frame, PageFlags::RW, DomainTag(1));
        m.map_shared(pt2, 0x5000, frame, PageFlags::RW, DomainTag(2));
        m.write_u64(pt1, 0x1008, 99).unwrap();
        assert_eq!(m.read_u64(pt2, 0x5008).unwrap(), 99);
    }

    #[test]
    fn unmap_frees_frames() {
        let (mut m, pt) = setup();
        let live = m.phys_mut().live_frames();
        m.unmap(pt, 0x1000, 2);
        assert_eq!(m.phys_mut().live_frames(), live - 2);
        assert!(m.read_u64(pt, 0x1000).is_err());
    }

    #[test]
    fn translation_cache_sees_remap() {
        let (mut m, pt) = setup();
        m.write_u64(pt, 0x1000, 0xAAAA).unwrap();
        // Warm the cache.
        assert_eq!(m.read_u64(pt, 0x1000).unwrap(), 0xAAAA);
        // Remap the page to a fresh (zeroed) frame.
        m.unmap(pt, 0x1000, 1);
        m.map_anon(pt, 0x1000, 1, PageFlags::RW, DomainTag(1));
        assert_eq!(m.read_u64(pt, 0x1000).unwrap(), 0, "stale frame served after remap");
    }

    #[test]
    fn translation_cache_sees_protect() {
        let (mut m, pt) = setup();
        m.write_u64(pt, 0x1000, 1).unwrap(); // warm
        m.table_mut(pt).protect(0x1000, PageFlags::READ);
        assert!(m.write_u64(pt, 0x1000, 2).is_err(), "stale flags served after protect");
    }

    #[test]
    fn translation_cache_sees_set_tag() {
        let (mut m, pt) = setup();
        let _ = m.translate(pt, 0x1000, Access::Read).unwrap(); // warm
        m.table_mut(pt).set_tag(0x1000, DomainTag(9));
        assert_eq!(m.translate(pt, 0x1000, Access::Read).unwrap().tag, DomainTag(9));
    }

    #[test]
    fn page_tables_do_not_alias_in_cache() {
        let mut m = Memory::new();
        let pt1 = Memory::GLOBAL_PT;
        let pt2 = m.new_page_table();
        m.map_anon(pt1, 0x1000, 1, PageFlags::RW, DomainTag(1));
        m.map_anon(pt2, 0x1000, 1, PageFlags::RW, DomainTag(2));
        m.write_u64(pt1, 0x1000, 11).unwrap();
        m.write_u64(pt2, 0x1000, 22).unwrap();
        assert_eq!(m.read_u64(pt1, 0x1000).unwrap(), 11);
        assert_eq!(m.read_u64(pt2, 0x1000).unwrap(), 22);
    }
}
