//! Page tables with CODOMs per-page metadata.
//!
//! CODOMs "extends page tables to contain multiple domains \[...\] the page
//! table has a per-page tag to associate each page with a domain" (§4.1).
//! A [`Pte`] therefore carries, beyond the frame mapping and protection
//! flags, the page's [`DomainTag`].

use crate::idmap::IdMap;
use crate::page::{vpn, DomainTag, PageFlags};
use crate::phys::FrameId;

/// Identifier of a page table within a [`crate::Memory`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PageTableId(pub usize);

/// A page-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pte {
    /// Backing physical frame.
    pub frame: FrameId,
    /// Conventional protection + CODOMs attribute bits.
    pub flags: PageFlags,
    /// CODOMs domain tag of this page.
    pub tag: DomainTag,
}

/// A sparse page table: virtual page number → [`Pte`].
#[derive(Default)]
pub struct PageTable {
    entries: IdMap<u64, Pte>,
    /// Monotonic generation, bumped on *any* mutation (map, unmap, protect,
    /// set_tag). The `cdvm` block and operand caches validate against it,
    /// so every mapping edit implicitly invalidates them; tests also use it
    /// for TLB-coherence assertions.
    generation: u64,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Maps the page containing `addr`.
    ///
    /// Returns the previous entry if the page was already mapped (remap).
    pub fn map(&mut self, addr: u64, pte: Pte) -> Option<Pte> {
        self.generation += 1;
        self.entries.insert(vpn(addr), pte)
    }

    /// Unmaps the page containing `addr`, returning its entry if present.
    pub fn unmap(&mut self, addr: u64) -> Option<Pte> {
        self.generation += 1;
        self.entries.remove(&vpn(addr))
    }

    /// Looks up the entry for the page containing `addr`.
    pub fn lookup(&self, addr: u64) -> Option<Pte> {
        self.entries.get(&vpn(addr)).copied()
    }

    /// Changes the protection flags of the page containing `addr`.
    ///
    /// Returns `false` if the page is unmapped.
    pub fn protect(&mut self, addr: u64, flags: PageFlags) -> bool {
        self.generation += 1;
        match self.entries.get_mut(&vpn(addr)) {
            Some(pte) => {
                pte.flags = flags;
                true
            }
            None => false,
        }
    }

    /// Re-tags the page containing `addr` with a new domain tag.
    ///
    /// This is the mechanism behind `dom_remap` (Table 2): "reassign selected
    /// pages from domsrc to domdst".
    ///
    /// Returns the old tag, or `None` if unmapped.
    pub fn set_tag(&mut self, addr: u64, tag: DomainTag) -> Option<DomainTag> {
        self.generation += 1;
        self.entries.get_mut(&vpn(addr)).map(|pte| core::mem::replace(&mut pte.tag, tag))
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over `(vpn, pte)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Pte)> + '_ {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Current mutation generation (bumped on map/unmap/protect/set_tag).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;

    fn pte(frame: u64, tag: u32) -> Pte {
        Pte { frame: FrameId(frame), flags: PageFlags::RW, tag: DomainTag(tag) }
    }

    #[test]
    fn map_lookup_unmap() {
        let mut pt = PageTable::new();
        assert!(pt.lookup(0x1000).is_none());
        assert!(pt.map(0x1000, pte(1, 5)).is_none());
        // Any address inside the page resolves.
        assert_eq!(pt.lookup(0x1fff).unwrap().frame, FrameId(1));
        assert_eq!(pt.lookup(0x1000).unwrap().tag, DomainTag(5));
        assert!(pt.lookup(0x1000 + PAGE_SIZE).is_none());
        assert_eq!(pt.unmap(0x1234).unwrap().frame, FrameId(1));
        assert!(pt.lookup(0x1000).is_none());
    }

    #[test]
    fn remap_returns_old() {
        let mut pt = PageTable::new();
        pt.map(0x2000, pte(1, 1));
        let old = pt.map(0x2000, pte(2, 2)).unwrap();
        assert_eq!(old.frame, FrameId(1));
        assert_eq!(pt.lookup(0x2000).unwrap().tag, DomainTag(2));
    }

    #[test]
    fn protect_and_tag() {
        let mut pt = PageTable::new();
        pt.map(0x3000, pte(1, 1));
        assert!(pt.protect(0x3000, PageFlags::READ));
        assert_eq!(pt.lookup(0x3000).unwrap().flags, PageFlags::READ);
        assert_eq!(pt.set_tag(0x3000, DomainTag(9)), Some(DomainTag(1)));
        assert_eq!(pt.lookup(0x3000).unwrap().tag, DomainTag(9));
        assert!(!pt.protect(0x9000, PageFlags::READ));
        assert_eq!(pt.set_tag(0x9000, DomainTag(1)), None);
    }

    #[test]
    fn generation_bumps() {
        let mut pt = PageTable::new();
        let g0 = pt.generation();
        pt.map(0x1000, pte(1, 1));
        assert!(pt.generation() > g0, "map must bump (remap invalidates caches)");
        let g1 = pt.generation();
        pt.protect(0x1000, PageFlags::READ);
        assert!(pt.generation() > g1);
        let g2 = pt.generation();
        pt.set_tag(0x1000, DomainTag(3));
        assert!(pt.generation() > g2);
        let g3 = pt.generation();
        pt.unmap(0x1000);
        assert!(pt.generation() > g3);
    }
}
