//! Per-CPU memory-operand translation cache (the data-side companion of
//! the fetch-side block cache in [`crate::blocks`]).
//!
//! Every simulated load/store pays a full [`simmem`] page walk plus the
//! CODOMs data check in `Cpu::data_access`, and then a *second* walk
//! inside `kread`/`kwrite` to actually move the bytes. For the common
//! case — a single-page access to a page the current domain may touch —
//! both are redundant once the first access resolved them. This cache
//! memoises the resolved decision per `(page table, virtual page,
//! domain)`: the [`simmem::Pte`] for frame-direct access and precomputed
//! read/write admissibility bits for the *current-domain* context the
//! entry was filled under.
//!
//! # Indexing
//!
//! The cache is direct-mapped, and the slot hashes the accessing domain
//! together with the page: user accesses index under `cur_dom`, kernel
//! accesses (whose decision holds under any domain) under the fixed
//! [`simmem::DomainTag::KERNEL`]. dIPC keeps every process in one page
//! table, so one page is routinely touched from several domains in turn
//! (a caller, its proxy, the callee); with the page alone as the index
//! each crossing evicted the decision the other side had just filled.
//! The index only places entries — every guard below is still compared
//! on every hit.
//!
//! # Exactness
//!
//! A hit replays, not skips, everything the simulation observes: the
//! `cost.mem` charge, the real dTLB access (with its miss penalty), and —
//! for APL-granted entries — the one [`codoms::AplCache`] lookup hit the
//! skipped `check_data` would have performed (via
//! [`codoms::AplCache::touch`]). Only host-side hash walks are elided.
//!
//! An entry is served only while nothing its decision depended on can
//! have changed:
//!
//! | invalidation source            | guard                               |
//! |--------------------------------|-------------------------------------|
//! | remap / reprotect / re-tag     | page-table generation compare       |
//! | domain change (crossing)       | `dom` compare                       |
//! | kernel/user mode change        | `kernel` compare                    |
//! | APL fill/update/invalidate     | [`codoms::AplCache::version`] compare (APL grants) |
//! | capability change / revocation | capability grants are never cached  |
//! | insufficient direction bit     | `read_ok`/`write_ok` → full check   |
//!
//! Capability-granted accesses are byte-ranged and revocation-sensitive,
//! so they always take the full check; `CAP_STORE` pages are never
//! cached (the tamper fault must fire). Accesses that straddle a page
//! boundary bypass the cache entirely.
//!
//! In front of the cache sits the block loop's one-entry operand memo
//! (`DMemo` in `cpu.rs`): a copy of the last 8-byte load/store's
//! decision, kept for one `Cpu::run` and dropped wherever that decision's
//! context can change (a crossing, `Sysret`, `PtSwitch`).
//!
//! Part of the fast engine: a CPU built under `CDVM_NO_FASTPATH=1`
//! ([`simmem::fastpath_enabled`]) never probes or fills it.

use codoms::HwTag;
use simmem::{DomainTag, PageTableId, Pte};

/// Number of direct-mapped entries.
const ENTRIES: usize = 256;

/// What authorised the cached page access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DGrant {
    /// Kernel mode: CODOMs and protection checks are bypassed (mapping
    /// validity is guaranteed by the generation compare).
    Kernel,
    /// The page belongs to the accessing domain (pure early-out in
    /// `check_data`; no APL-cache interaction to replay).
    SelfDom,
    /// A page-wide APL grant; the slot of the source domain's cached APL,
    /// whose lookup hit is replayed on every served access.
    Apl(HwTag),
}

#[derive(Clone, Copy)]
struct Entry {
    pt: PageTableId,
    vpn: u64,
    table_gen: u64,
    dom: DomainTag,
    kernel: bool,
    apl_version: u64,
    grant: DGrant,
    read_ok: bool,
    write_ok: bool,
    pte: Pte,
}

/// The per-CPU data-operand translation cache. See the module docs.
pub struct DCache {
    entries: Vec<Option<Entry>>,
    hits: u64,
    misses: u64,
}

impl Default for DCache {
    fn default() -> Self {
        Self::new()
    }
}

impl DCache {
    /// Creates an empty cache.
    pub fn new() -> DCache {
        DCache { entries: vec![None; ENTRIES], hits: 0, misses: 0 }
    }

    /// The slot of `(pt, vpn)` as seen from `dom` (user mode) or from the
    /// kernel, whose entries serve under any domain and so index under the
    /// one fixed [`DomainTag::KERNEL`].
    #[inline]
    fn index(pt: PageTableId, vpn: u64, dom: DomainTag, kernel: bool) -> usize {
        // Fibonacci multiply hash indexed from the top product bits, so
        // pages in distant VA windows (stack, heap, shared dIPC regions)
        // don't alias when they agree in the low page-number bits. The
        // domain enters the key above the page number (page numbers stay
        // below bit 40), so one page touched from several domains — dIPC's
        // shared page table at work — spreads over distinct slots instead
        // of evicting itself on every crossing.
        let dom = if kernel { DomainTag::KERNEL } else { dom };
        let k = (vpn ^ ((dom.0 as u64) << 40)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((k >> 56) as usize ^ pt.0.wrapping_mul(0x9e37_79b9)) & (ENTRIES - 1)
    }

    /// Looks up a served decision for a `write`/read access on `(pt, vpn)`
    /// in the given execution context. Returns the page's translation,
    /// grant and both direction bits when every guard passes; counts a hit
    /// or miss either way.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn lookup(
        &mut self,
        pt: PageTableId,
        vpn: u64,
        table_gen: u64,
        dom: DomainTag,
        kernel: bool,
        apl_version: u64,
        write: bool,
    ) -> Option<(Pte, DGrant, bool, bool)> {
        if let Some(e) = &self.entries[Self::index(pt, vpn, dom, kernel)] {
            if e.pt == pt
                && e.vpn == vpn
                && e.table_gen == table_gen
                && e.kernel == kernel
                && (kernel || e.dom == dom)
                && (if write { e.write_ok } else { e.read_ok })
                && match e.grant {
                    DGrant::Apl(_) => e.apl_version == apl_version,
                    DGrant::Kernel | DGrant::SelfDom => true,
                }
            {
                self.hits += 1;
                return Some((e.pte, e.grant, e.read_ok, e.write_ok));
            }
        }
        self.misses += 1;
        None
    }

    /// Installs (or replaces) the decision for `(pt, vpn)`.
    #[allow(clippy::too_many_arguments)]
    pub fn fill(
        &mut self,
        pt: PageTableId,
        vpn: u64,
        table_gen: u64,
        dom: DomainTag,
        kernel: bool,
        apl_version: u64,
        grant: DGrant,
        read_ok: bool,
        write_ok: bool,
        pte: Pte,
    ) {
        self.entries[Self::index(pt, vpn, dom, kernel)] = Some(Entry {
            pt,
            vpn,
            table_gen,
            dom,
            kernel,
            apl_version,
            grant,
            read_ok,
            write_ok,
            pte,
        });
    }

    /// Counts a hit served from the run-scoped one-entry operand memo (a
    /// copy of a decision this cache vouched for; see `DMemo` in
    /// `cpu.rs`), so the reported hit rate covers both levels.
    #[inline]
    pub fn note_hit(&mut self) {
        self.hits += 1;
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmem::{FrameId, PageFlags};

    const PT: PageTableId = PageTableId(0);

    fn pte() -> Pte {
        Pte { frame: FrameId(9), flags: PageFlags::RW, tag: DomainTag(2) }
    }

    #[test]
    fn guards_invalidate_exactly() {
        let mut c = DCache::new();
        let dom = DomainTag(1);
        c.fill(PT, 0x20, 5, dom, false, 3, DGrant::Apl(HwTag(0)), true, false, pte());
        assert!(c.lookup(PT, 0x20, 5, dom, false, 3, false).is_some(), "read hit");
        assert!(c.lookup(PT, 0x20, 5, dom, false, 3, true).is_none(), "write bit not granted");
        assert!(c.lookup(PT, 0x20, 6, dom, false, 3, false).is_none(), "stale generation");
        assert!(c.lookup(PT, 0x20, 5, DomainTag(7), false, 3, false).is_none(), "other domain");
        assert!(c.lookup(PT, 0x20, 5, dom, true, 3, false).is_none(), "mode changed");
        assert!(c.lookup(PT, 0x20, 5, dom, false, 4, false).is_none(), "APL content moved");
        let (hits, misses) = c.stats();
        assert_eq!((hits, misses), (1, 5));
    }

    #[test]
    fn self_and_kernel_grants_ignore_apl_version() {
        let mut c = DCache::new();
        let dom = DomainTag(2);
        c.fill(PT, 0x21, 5, dom, false, 3, DGrant::SelfDom, true, true, pte());
        assert!(c.lookup(PT, 0x21, 5, dom, false, 99, true).is_some());
        c.fill(PT, 0x22, 5, dom, true, 3, DGrant::Kernel, true, true, pte());
        // Kernel entries serve regardless of the current domain tag.
        assert!(c.lookup(PT, 0x22, 5, DomainTag(42), true, 99, true).is_some());
        assert!(c.lookup(PT, 0x22, 5, DomainTag(42), false, 99, true).is_none(), "left kernel");
    }

    #[test]
    fn one_page_from_two_domains_hits_in_both_once_warm() {
        // A page shared by a caller and its callee (dIPC's one page table)
        // read alternately from both sides: once each side has filled its
        // decision, neither evicts the other.
        let mut c = DCache::new();
        let (caller, callee) = (DomainTag(1), DomainTag(2));
        for dom in [caller, callee] {
            assert!(c.lookup(PT, 0x30, 5, dom, false, 3, false).is_none(), "cold");
            c.fill(PT, 0x30, 5, dom, false, 3, DGrant::Apl(HwTag(0)), true, false, pte());
        }
        for _ in 0..8 {
            for dom in [caller, callee] {
                assert!(c.lookup(PT, 0x30, 5, dom, false, 3, false).is_some(), "{dom:?} evicted");
            }
        }
        assert_eq!(c.stats(), (16, 2));
    }

    #[test]
    fn kernel_entry_serves_under_any_domain() {
        let mut c = DCache::new();
        c.fill(PT, 0x40, 5, DomainTag(3), true, 3, DGrant::Kernel, true, true, pte());
        for dom in (0..64).map(DomainTag) {
            assert!(c.lookup(PT, 0x40, 5, dom, true, 7, true).is_some(), "kernel under {dom:?}");
        }
    }
}
