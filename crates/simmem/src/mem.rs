//! The memory façade combining physical memory and page tables.
//!
//! [`Memory`] is what the VM and simulated kernel use for every access. It
//! enforces the conventional per-page protection bits; CODOMs domain/APL and
//! capability checks are layered on top by the `cdvm` crate (which first asks
//! [`Memory::translate`] for the target page's [`Pte`], consults the CODOMs
//! checker, and then performs the access).
//!
//! Every access walks the live page table, an [`crate::IdMap`] from virtual
//! page number to [`Pte`], on both execution engines: `Memory` keeps no host
//! cache of its own and knows nothing of engines. Translation *cost* is the
//! simulated [`crate::Tlb`]'s business, charged by the VM. The host-side
//! caches in `cdvm` (superblocks, the data-operand cache) revalidate against
//! [`Memory::table_generation`] and [`Memory::code_epoch`] on use.
//!
//! Byte copies ([`Memory::read`], [`Memory::write`] and their supervisor
//! twins [`Memory::kread`], [`Memory::kwrite`]) share one page walker that
//! validates every page before it copies, so a faulting copy is
//! all-or-nothing and reports the first bad page.

use core::ops::Range;

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

/// Physical memory plus the set of page tables in the machine.
pub struct Memory {
    phys: PhysMem,
    tables: Vec<PageTable>,
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
        Memory { phys: PhysMem::new(), tables: vec![PageTable::new()] }
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

    /// Returns a page table by id.
    pub fn table(&self, id: PageTableId) -> &PageTable {
        &self.tables[id.0]
    }

    /// Returns a mutable page table by id.
    ///
    /// Direct edits are safe with respect to the `cdvm` host caches: every
    /// [`PageTable`] mutation bumps its generation, which they validate on
    /// each use.
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

    /// Looks up the PTE for `addr` without any protection check. Kernel-mode
    /// accesses use this to bypass protection bits while still requiring a
    /// mapping.
    #[inline]
    pub fn lookup_pte(&self, pt: PageTableId, addr: u64) -> Option<Pte> {
        self.tables[pt.0].lookup(addr)
    }

    /// Translates `addr`, checking the conventional protection bit for
    /// `access`. Returns the PTE (including the CODOMs tag) on success.
    #[inline]
    pub fn translate(&self, pt: PageTableId, addr: u64, access: Access) -> Result<Pte, MemFault> {
        resolve(&self.tables[pt.0], addr, Some(access))
    }

    /// Reads `buf.len()` bytes at `addr`, honoring protection bits. Reads may
    /// cross page boundaries.
    pub fn read(&self, pt: PageTableId, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        self.load(pt, addr, buf, Some(Access::Read))
    }

    /// Writes `buf` at `addr`, honoring protection bits. A write that faults
    /// on any page modifies none.
    pub fn write(&mut self, pt: PageTableId, addr: u64, buf: &[u8]) -> Result<(), MemFault> {
        self.store(pt, addr, buf, Some(Access::Write))
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, pt: PageTableId, addr: u64) -> Result<u64, MemFault> {
        self.load_u64(pt, addr, Some(Access::Read))
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, pt: PageTableId, addr: u64, v: u64) -> Result<(), MemFault> {
        self.store_u64(pt, addr, v, Some(Access::Write))
    }

    /// Kernel ("supervisor") read that ignores protection bits — the
    /// simulated kernel accesses user memory through this, as a real kernel
    /// would with its supervisor mappings. Only mapping is required.
    pub fn kread(&self, pt: PageTableId, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        self.load(pt, addr, buf, None)
    }

    /// Kernel write that ignores protection bits (but still requires the
    /// pages to be mapped). A write that faults on any page modifies none.
    pub fn kwrite(&mut self, pt: PageTableId, addr: u64, buf: &[u8]) -> Result<(), MemFault> {
        self.store(pt, addr, buf, None)
    }

    /// Kernel u64 read.
    pub fn kread_u64(&self, pt: PageTableId, addr: u64) -> Result<u64, MemFault> {
        self.load_u64(pt, addr, None)
    }

    /// Kernel u64 write.
    pub fn kwrite_u64(&mut self, pt: PageTableId, addr: u64, v: u64) -> Result<(), MemFault> {
        self.store_u64(pt, addr, v, None)
    }

    fn load(
        &self,
        pt: PageTableId,
        addr: u64,
        buf: &mut [u8],
        access: Option<Access>,
    ) -> Result<(), MemFault> {
        walk(&self.tables[pt.0], addr, buf.len(), access, |frame, off, range| {
            self.phys.read(frame, off, &mut buf[range]);
        })
    }

    fn store(
        &mut self,
        pt: PageTableId,
        addr: u64,
        buf: &[u8],
        access: Option<Access>,
    ) -> Result<(), MemFault> {
        let phys = &mut self.phys;
        walk(&self.tables[pt.0], addr, buf.len(), access, |frame, off, range| {
            phys.write(frame, off, &buf[range]);
        })
    }

    fn load_u64(
        &self,
        pt: PageTableId,
        addr: u64,
        access: Option<Access>,
    ) -> Result<u64, MemFault> {
        if page_offset(addr) + 8 <= PAGE_SIZE {
            let pte = resolve(&self.tables[pt.0], addr, access)?;
            return Ok(self.phys.read_u64(pte.frame, page_offset(addr)));
        }
        let mut b = [0u8; 8];
        self.load(pt, addr, &mut b, access)?;
        Ok(u64::from_le_bytes(b))
    }

    fn store_u64(
        &mut self,
        pt: PageTableId,
        addr: u64,
        v: u64,
        access: Option<Access>,
    ) -> Result<(), MemFault> {
        if page_offset(addr) + 8 <= PAGE_SIZE {
            let pte = resolve(&self.tables[pt.0], addr, access)?;
            self.phys.write_u64(pte.frame, page_offset(addr), v);
            return Ok(());
        }
        self.store(pt, addr, &v.to_le_bytes(), access)
    }
}

/// Resolves the page holding `addr`, checking the protection bit `access`
/// requires (`None`: a supervisor access, which needs only the mapping).
#[inline]
fn resolve(table: &PageTable, addr: u64, access: Option<Access>) -> Result<Pte, MemFault> {
    let pte = table.lookup(addr).ok_or(MemFault::Unmapped { addr })?;
    match access {
        Some(access) if !pte.flags.contains(access.required_flag()) => {
            Err(MemFault::Protection { addr, access })
        }
        _ => Ok(pte),
    }
}

/// The page walker under every byte copy: resolves each page of
/// `addr..addr + len` with [`resolve`] and hands `f` the page's frame, the
/// offset in it and the matching range of the caller's buffer. Every page
/// is validated before `f` first runs, so a copy that faults copies
/// nothing; the fault is the lowest failing page's.
fn walk(
    table: &PageTable,
    addr: u64,
    len: usize,
    access: Option<Access>,
    mut f: impl FnMut(FrameId, u64, Range<usize>),
) -> Result<(), MemFault> {
    let off = page_offset(addr);
    if off as usize + len <= PAGE_SIZE as usize {
        // Within one page: one translation, one copy.
        if len > 0 {
            f(resolve(table, addr, access)?.frame, off, 0..len);
        }
        return Ok(());
    }
    let mut checked = 0usize;
    while checked < len {
        let a = addr + checked as u64;
        resolve(table, a, access)?;
        checked += (PAGE_SIZE - page_offset(a)) as usize;
    }
    let mut done = 0usize;
    while done < len {
        let a = addr + done as u64;
        let frame = table.lookup(a).expect("validated above").frame;
        let off = page_offset(a);
        let n = ((PAGE_SIZE - off) as usize).min(len - done);
        f(frame, off, done..done + n);
        done += n;
    }
    Ok(())
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
        m.write_u64(pt, 0x1ff8, 0).unwrap();
        let err = m.write(pt, 0x1ffc, &[0xff; 8]).unwrap_err();
        assert!(matches!(err, MemFault::Protection { .. }));
        assert_eq!(m.read_u64(pt, 0x1ff8).unwrap(), 0, "no partial write");
    }

    #[test]
    fn failed_cross_page_kernel_copy_is_atomic() {
        let (mut m, pt) = setup();
        // 0x1000..0x3000 is mapped; a kernel copy from 0x2ffc runs into the
        // unmapped 0x3000 and must fault there without touching 0x2ffc.
        m.kwrite_u64(pt, 0x2ff8, 0).unwrap();
        let fault = MemFault::Unmapped { addr: 0x3000 };
        assert_eq!(m.kwrite(pt, 0x2ffc, &[0xff; 8]), Err(fault));
        assert_eq!(m.kread_u64(pt, 0x2ff8).unwrap(), 0, "no partial kernel write");
        let mut b = [0u8; 8];
        assert_eq!(m.kread(pt, 0x2ffc, &mut b), Err(fault));
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
        assert_eq!(m.read_u64(pt, 0x1000).unwrap(), 0xAAAA);
        // Remap the page to a fresh (zeroed) frame.
        m.unmap(pt, 0x1000, 1);
        m.map_anon(pt, 0x1000, 1, PageFlags::RW, DomainTag(1));
        assert_eq!(m.read_u64(pt, 0x1000).unwrap(), 0, "stale frame served after remap");
    }

    #[test]
    fn translation_cache_sees_protect() {
        let (mut m, pt) = setup();
        m.write_u64(pt, 0x1000, 1).unwrap();
        m.table_mut(pt).protect(0x1000, PageFlags::READ);
        assert!(m.write_u64(pt, 0x1000, 2).is_err(), "stale flags served after protect");
    }

    #[test]
    fn translation_cache_sees_set_tag() {
        let (mut m, pt) = setup();
        let _ = m.translate(pt, 0x1000, Access::Read).unwrap();
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
