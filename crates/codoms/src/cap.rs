//! Transient data-sharing capabilities (§4.2).
//!
//! Capabilities grant access to arbitrary address ranges, are created and
//! destroyed by user code through special instructions, "cannot be forged or
//! tampered with", and are always *derived* from the current domain's APL or
//! from an existing capability (monotonically narrowing — never widening —
//! rights). They live in one of 8 per-thread capability registers, can be
//! spilled to the per-thread DCS, and can be stored only to pages with the
//! capability-storage bit.
//!
//! *Synchronous* capabilities are thread-private and support immediate
//! revocation through revocation counters; *asynchronous* capabilities can be
//! passed across threads when explicitly requested by the programmer.

use simmem::DomainTag;

use crate::apl::Perm;

/// Number of per-thread capability registers.
pub const CAP_REGS: usize = 8;

/// Size of a capability stored in memory (§4.2: "they occupy 32 B").
pub const CAPABILITY_BYTES: usize = 32;

/// Permissions carried by a capability. Same lattice as APL permissions:
/// `Call` allows jumping to aligned entry points in the range, `Read` allows
/// loads and arbitrary jumps, `Write` adds stores.
pub type CapPerm = Perm;

/// Synchronous vs asynchronous capability (§4.1.5 of the CODOMs paper, as
/// described in §4.2 here).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CapKind {
    /// Thread-private; validated against the owner's revocation counter on
    /// every use, enabling immediate revocation.
    Sync {
        /// Owning thread (kernel thread id).
        owner: u64,
        /// Value of the owner's revocation counter when the capability was
        /// created.
        epoch: u64,
    },
    /// Transferable across threads; no revocation-counter check.
    Async,
}

/// A CODOMs capability: an unforgeable grant of `perm` over
/// `[base, base + len)`.
///
/// ```
/// use codoms::{CapKind, Capability, Perm};
/// use simmem::DomainTag;
///
/// let cap = Capability {
///     base: 0x1000,
///     len: 0x100,
///     perm: Perm::Write,
///     kind: CapKind::Async,
///     origin: DomainTag(3),
/// };
/// assert!(cap.covers(0x1080, 8));
/// // Restriction can only narrow rights (monotonicity is property-tested).
/// let ro = cap.restrict(0x1000, 0x10, Perm::Read).unwrap();
/// assert!(ro.restrict(0x1000, 0x20, Perm::Read).is_none());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Capability {
    /// First byte covered.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
    /// Granted permission.
    pub perm: CapPerm,
    /// Synchronous or asynchronous.
    pub kind: CapKind,
    /// Domain tag the capability was originally derived from (informational;
    /// used by dIPC proxies when deriving return capabilities).
    pub origin: DomainTag,
}

impl Capability {
    /// True if the capability covers the `size`-byte access at `addr`.
    #[inline]
    pub fn covers(&self, addr: u64, size: u64) -> bool {
        addr >= self.base
            && size <= self.len
            && addr.checked_add(size).is_some_and(|end| end <= self.base + self.len)
    }

    /// Derives a narrowed capability (CapRestrict): the result must be fully
    /// contained in `self` and must not gain permissions. Returns `None` if
    /// the request would widen rights or range.
    pub fn restrict(&self, base: u64, len: u64, perm: CapPerm) -> Option<Capability> {
        let end = base.checked_add(len)?;
        if base < self.base || end > self.base + self.len || perm > self.perm {
            return None;
        }
        Some(Capability { base, len, perm, ..*self })
    }

    /// Serializes to the 32-byte in-memory format.
    ///
    /// Layout: `[base: u64][len: u64][perm:u8 kind:u8 _pad:u16 origin:u32]`
    /// `[owner/epoch word]`. The format is only interpreted by trusted
    /// hardware paths (CapLd/CapSt), never by user arithmetic, so it needs no
    /// integrity tag beyond the capability-storage page bit.
    pub fn to_bytes(&self) -> [u8; CAPABILITY_BYTES] {
        let mut b = [0u8; CAPABILITY_BYTES];
        b[0..8].copy_from_slice(&self.base.to_le_bytes());
        b[8..16].copy_from_slice(&self.len.to_le_bytes());
        b[16] = match self.perm {
            Perm::Nil => 0,
            Perm::Call => 1,
            Perm::Read => 2,
            Perm::Write => 3,
        };
        b[17] = matches!(self.kind, CapKind::Sync { .. }) as u8;
        b[20..24].copy_from_slice(&self.origin.0.to_le_bytes());
        if let CapKind::Sync { owner, epoch } = self.kind {
            b[24..28].copy_from_slice(&(owner as u32).to_le_bytes());
            b[28..32].copy_from_slice(&(epoch as u32).to_le_bytes());
        }
        b
    }

    /// Deserializes from the 32-byte format. Returns `None` for malformed
    /// encodings (which can only arise from kernel bugs, since user code
    /// cannot write capability-storage pages with plain stores).
    pub fn from_bytes(b: &[u8; CAPABILITY_BYTES]) -> Option<Capability> {
        let base = u64::from_le_bytes(b[0..8].try_into().expect("slice len 8"));
        let len = u64::from_le_bytes(b[8..16].try_into().expect("slice len 8"));
        let perm = match b[16] {
            0 => Perm::Nil,
            1 => Perm::Call,
            2 => Perm::Read,
            3 => Perm::Write,
            _ => return None,
        };
        let origin = DomainTag(u32::from_le_bytes(b[20..24].try_into().expect("slice len 4")));
        let kind = if b[17] == 1 {
            let owner = u32::from_le_bytes(b[24..28].try_into().expect("slice len 4")) as u64;
            let epoch = u32::from_le_bytes(b[28..32].try_into().expect("slice len 4")) as u64;
            CapKind::Sync { owner, epoch }
        } else {
            CapKind::Async
        };
        Some(Capability { base, len, perm, kind, origin })
    }
}

/// Per-thread revocation counters for synchronous capabilities.
///
/// `revoke_all(thread)` bumps the thread's counter, immediately invalidating
/// every synchronous capability created by that thread before the bump.
#[derive(Default)]
pub struct RevocationTable {
    epochs: std::collections::HashMap<u64, u64>,
}

impl RevocationTable {
    /// Creates an empty table (all threads at epoch 0).
    pub fn new() -> RevocationTable {
        RevocationTable::default()
    }

    /// Current epoch of `thread`.
    pub fn epoch(&self, thread: u64) -> u64 {
        self.epochs.get(&thread).copied().unwrap_or(0)
    }

    /// Bumps `thread`'s epoch, revoking its outstanding sync capabilities.
    pub fn revoke_all(&mut self, thread: u64) {
        *self.epochs.entry(thread).or_insert(0) += 1;
    }

    /// True if `cap` is currently valid for use by `thread`.
    ///
    /// Sync capabilities are valid only on their owning thread and only while
    /// the owner's epoch matches; async capabilities are always valid.
    pub fn is_valid(&self, cap: &Capability, thread: u64) -> bool {
        match cap.kind {
            CapKind::Async => true,
            CapKind::Sync { owner, epoch } => owner == thread && epoch == self.epoch(owner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap(base: u64, len: u64, perm: Perm) -> Capability {
        Capability { base, len, perm, kind: CapKind::Async, origin: DomainTag(3) }
    }

    #[test]
    fn covers_bounds() {
        let c = cap(0x1000, 0x100, Perm::Read);
        assert!(c.covers(0x1000, 1));
        assert!(c.covers(0x10f8, 8));
        assert!(!c.covers(0x10f9, 8));
        assert!(!c.covers(0xfff, 1));
        assert!(!c.covers(u64::MAX, 2), "overflow must not wrap");
    }

    #[test]
    fn restrict_narrows_only() {
        let c = cap(0x1000, 0x100, Perm::Read);
        let r = c.restrict(0x1010, 0x10, Perm::Call).expect("valid narrowing");
        assert_eq!(r.base, 0x1010);
        assert_eq!(r.perm, Perm::Call);
        assert!(c.restrict(0x0fff, 2, Perm::Read).is_none(), "range widening");
        assert!(c.restrict(0x1000, 0x101, Perm::Read).is_none(), "length widening");
        assert!(c.restrict(0x1000, 0x10, Perm::Write).is_none(), "perm widening");
    }

    #[test]
    fn bytes_roundtrip() {
        for c in [
            cap(0x1234, 0x88, Perm::Write),
            Capability {
                base: 7,
                len: 9,
                perm: Perm::Call,
                kind: CapKind::Sync { owner: 42, epoch: 3 },
                origin: DomainTag(11),
            },
        ] {
            let b = c.to_bytes();
            assert_eq!(Capability::from_bytes(&b), Some(c));
        }
    }

    #[test]
    fn malformed_bytes_rejected() {
        let mut b = cap(0, 1, Perm::Read).to_bytes();
        b[16] = 99;
        assert!(Capability::from_bytes(&b).is_none());
    }

    #[test]
    fn sync_revocation() {
        let mut rt = RevocationTable::new();
        let c = Capability {
            base: 0,
            len: 8,
            perm: Perm::Read,
            kind: CapKind::Sync { owner: 1, epoch: 0 },
            origin: DomainTag(1),
        };
        assert!(rt.is_valid(&c, 1));
        assert!(!rt.is_valid(&c, 2), "sync caps are thread-private");
        rt.revoke_all(1);
        assert!(!rt.is_valid(&c, 1), "revocation is immediate");
    }

    #[test]
    fn async_caps_cross_threads() {
        let rt = RevocationTable::new();
        let c = cap(0, 8, Perm::Read);
        assert!(rt.is_valid(&c, 1));
        assert!(rt.is_valid(&c, 2));
    }
}
