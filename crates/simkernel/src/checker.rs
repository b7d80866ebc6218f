//! Deterministic load-time verification of untrusted plugin images,
//! modeled on Tock's `process_checker` / `restrict_resource` pipeline.
//!
//! A host service that loads third-party code into CODOMs domains needs a
//! provenance story *before* any byte of the image is mapped: Tock solves
//! this with a checker that validates a signed TBF header and a resource
//! layer that caps what the loaded process may ask for. Our equivalent is
//! [`Checker::check`]: it parses a signed plugin blob (magic, version,
//! declared lengths, per-resource grants, body, trailing SplitMix64-keyed
//! checksum "signature"), rejects any malformation with a *specific,
//! deterministic* [`CheckError`], and returns the verified grants so the
//! loader can enforce them at map time ([`GrantCaps`]).
//!
//! The checker is pure: same bytes in, same verdict out, on any host
//! thread count — the property the `checker_props` proptest battery pins.
//!
//! Blob layout (little-endian):
//!
//! ```text
//! [0..4)    magic  "DPLG"
//! [4..6)    version (currently 1)
//! [6..8)    grant count (at most MAX_GRANTS)
//! [8..16)   total length (must equal the blob length)
//! [16..24)  body length
//! [24..)    grants: (kind u64, amount u64) per grant, kinds ascending
//! ...       body (an embedded dIPC image, opaque to the checker)
//! [-8..)    signature: keyed chained checksum over everything before it
//! ```

use simmem::IdMap;

use crate::process::Pid;
use crate::syscall::nr;
use crate::Kernel;

/// Plugin blob magic.
pub const PLUGIN_MAGIC: &[u8; 4] = b"DPLG";
/// Plugin blob format version.
pub const PLUGIN_VERSION: u16 = 1;
/// Maximum number of declared grants.
pub const MAX_GRANTS: u16 = 16;
/// Fixed header bytes before the grant table.
const HEADER_BYTES: usize = 24;
/// Trailing signature bytes.
const SIG_BYTES: usize = 8;

/// Resource grant kinds a plugin may declare.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum GrantKind {
    /// Bytes of memory the image may map (code + GOT + data + domains).
    MemBytes,
    /// Bitmap of kernel syscall numbers (0..64) reachable via the filter
    /// proxy. The plugin itself keeps *no* ambient syscalls.
    Syscalls,
    /// Threads the plugin may own.
    Threads,
}

impl GrantKind {
    fn from_u64(v: u64) -> Option<GrantKind> {
        match v {
            0 => Some(GrantKind::MemBytes),
            1 => Some(GrantKind::Syscalls),
            2 => Some(GrantKind::Threads),
            _ => None,
        }
    }

    fn to_u64(self) -> u64 {
        match self {
            GrantKind::MemBytes => 0,
            GrantKind::Syscalls => 1,
            GrantKind::Threads => 2,
        }
    }
}

/// The resource grants a verified image declared.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GrantSet {
    /// Bytes of memory the image may map.
    pub mem_bytes: u64,
    /// Allowlisted syscall bitmap (routed through the filter proxy).
    pub syscall_mask: u64,
    /// Threads the plugin may own.
    pub threads: u64,
}

/// Host policy: per-resource ceilings a declared grant may not exceed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrantCaps {
    /// Maximum mappable bytes.
    pub mem_bytes: u64,
    /// Maximum allowlistable syscall bitmap (declared mask must be a
    /// subset).
    pub syscall_mask: u64,
    /// Maximum threads.
    pub threads: u64,
}

impl Default for GrantCaps {
    fn default() -> GrantCaps {
        GrantCaps {
            mem_bytes: 1 << 20,
            syscall_mask: (1 << nr::GETPID) | (1 << nr::GETTID) | (1 << nr::CLOCK_NS),
            threads: 1,
        }
    }
}

/// Why a blob was rejected. Every variant is deterministic: the same blob
/// yields the same error on every load attempt and host configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// Blob shorter than the fixed header + signature.
    TooShort,
    /// Magic bytes are not `DPLG`.
    BadMagic,
    /// Unsupported format version.
    BadVersion,
    /// Declared total/body lengths disagree with the blob.
    BadLength,
    /// More grants declared than [`MAX_GRANTS`].
    TooManyGrants,
    /// Unknown grant kind.
    BadGrantKind,
    /// A grant kind declared twice (or out of ascending order).
    DuplicateGrant,
    /// A declared grant exceeds the host's [`GrantCaps`].
    OverCap(u64),
    /// Keyed checksum mismatch (any bit flip lands here).
    BadSignature,
}

impl core::fmt::Display for CheckError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckError::TooShort => f.write_str("blob too short"),
            CheckError::BadMagic => f.write_str("bad plugin magic"),
            CheckError::BadVersion => f.write_str("unsupported plugin version"),
            CheckError::BadLength => f.write_str("declared length mismatch"),
            CheckError::TooManyGrants => f.write_str("too many grants"),
            CheckError::BadGrantKind => f.write_str("unknown grant kind"),
            CheckError::DuplicateGrant => f.write_str("duplicate grant kind"),
            CheckError::OverCap(k) => write!(f, "grant kind {k} exceeds cap"),
            CheckError::BadSignature => f.write_str("signature mismatch"),
        }
    }
}

impl std::error::Error for CheckError {}

/// A verified image: the declared grants plus the opaque body bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckedImage {
    /// Grants the loader must enforce at map time.
    pub grants: GrantSet,
    /// The embedded (still untrusted, but provenance-checked) image body.
    pub body: Vec<u8>,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Keyed chained checksum over `bytes`: the "signature". A real system
/// would use Ed25519 like Tock's credential checkers; the simulator only
/// needs the *detection* property (any mutation flips the digest with
/// overwhelming probability) plus determinism, which the chained SplitMix64
/// construction provides without a crypto dependency.
pub fn digest(key: u64, bytes: &[u8]) -> u64 {
    let mut h = splitmix64(key ^ bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = splitmix64(h ^ u64::from_le_bytes(w));
    }
    h
}

/// Produces a signed plugin blob (the trusted "vendor" side).
pub fn sign(key: u64, grants: &GrantSet, body: &[u8]) -> Vec<u8> {
    let table: Vec<(GrantKind, u64)> = vec![
        (GrantKind::MemBytes, grants.mem_bytes),
        (GrantKind::Syscalls, grants.syscall_mask),
        (GrantKind::Threads, grants.threads),
    ];
    let total = HEADER_BYTES + table.len() * 16 + body.len() + SIG_BYTES;
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(PLUGIN_MAGIC);
    out.extend_from_slice(&PLUGIN_VERSION.to_le_bytes());
    out.extend_from_slice(&(table.len() as u16).to_le_bytes());
    out.extend_from_slice(&(total as u64).to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    for (kind, amount) in &table {
        out.extend_from_slice(&kind.to_u64().to_le_bytes());
        out.extend_from_slice(&amount.to_le_bytes());
    }
    out.extend_from_slice(body);
    let sig = digest(key, &out);
    out.extend_from_slice(&sig.to_le_bytes());
    out
}

/// The load-time verifier. One per host service; holds the verification
/// key and the host's resource policy.
#[derive(Clone, Copy, Debug)]
pub struct Checker {
    /// Signature verification key.
    pub key: u64,
    /// Per-resource ceilings.
    pub caps: GrantCaps,
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("len 8"))
}

impl Checker {
    /// A checker with the given key and default caps.
    pub fn new(key: u64) -> Checker {
        Checker { key, caps: GrantCaps::default() }
    }

    /// Verifies a signed plugin blob. Rejects deterministically on any
    /// malformation; never panics on arbitrary input.
    pub fn check(&self, blob: &[u8]) -> Result<CheckedImage, CheckError> {
        if blob.len() < HEADER_BYTES + SIG_BYTES {
            return Err(CheckError::TooShort);
        }
        if &blob[0..4] != PLUGIN_MAGIC {
            return Err(CheckError::BadMagic);
        }
        let version = u16::from_le_bytes(blob[4..6].try_into().expect("len 2"));
        if version != PLUGIN_VERSION {
            return Err(CheckError::BadVersion);
        }
        let grant_count = u16::from_le_bytes(blob[6..8].try_into().expect("len 2"));
        if grant_count > MAX_GRANTS {
            return Err(CheckError::TooManyGrants);
        }
        let total_len = read_u64(blob, 8);
        let body_len = read_u64(blob, 16);
        let grants_bytes = grant_count as u64 * 16;
        let expect = HEADER_BYTES as u64 + grants_bytes + body_len + SIG_BYTES as u64;
        if total_len != blob.len() as u64 || total_len != expect {
            return Err(CheckError::BadLength);
        }
        // Signature first among the content checks: a flipped bit anywhere
        // (header already parsed, grants, body) must yield BadSignature
        // before any semantic judgement about the mutated content.
        let sig = read_u64(blob, blob.len() - SIG_BYTES);
        if digest(self.key, &blob[..blob.len() - SIG_BYTES]) != sig {
            return Err(CheckError::BadSignature);
        }
        let mut grants = GrantSet::default();
        let mut last_kind: Option<GrantKind> = None;
        for g in 0..grant_count as usize {
            let at = HEADER_BYTES + g * 16;
            let kind = GrantKind::from_u64(read_u64(blob, at)).ok_or(CheckError::BadGrantKind)?;
            if last_kind.is_some_and(|k| k >= kind) {
                return Err(CheckError::DuplicateGrant);
            }
            last_kind = Some(kind);
            let amount = read_u64(blob, at + 8);
            let cap = match kind {
                GrantKind::MemBytes => amount <= self.caps.mem_bytes,
                GrantKind::Syscalls => amount & !self.caps.syscall_mask == 0,
                GrantKind::Threads => amount <= self.caps.threads,
            };
            if !cap {
                return Err(CheckError::OverCap(kind.to_u64()));
            }
            match kind {
                GrantKind::MemBytes => grants.mem_bytes = amount,
                GrantKind::Syscalls => grants.syscall_mask = amount,
                GrantKind::Threads => grants.threads = amount,
            }
        }
        let body_at = HEADER_BYTES + grants_bytes as usize;
        let body = blob[body_at..body_at + body_len as usize].to_vec();
        Ok(CheckedImage { grants, body })
    }
}

// ---------------------------------------------------------------------
// Ambient-syscall restriction (the kernel half of `restrict_resource`).
// ---------------------------------------------------------------------

/// Per-process ambient-syscall filters.
///
/// A restricted process may only issue the kernel syscalls whose numbers
/// are set in its bitmap; everything else bounces to the embedder as an
/// unknown syscall, where the dIPC policy layer treats it as a sandbox
/// violation (kill-and-reclaim). An *empty* bitmap models Tock's "no
/// ambient authority" default: every kernel request must flow through the
/// filter-proxy domain instead.
#[derive(Debug, Default)]
pub struct SyscallFilters {
    masks: IdMap<Pid, u64>,
}

impl SyscallFilters {
    /// True if no process is restricted (fast path for the dispatcher).
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Restricts `pid` to the syscall numbers set in `mask`.
    pub fn restrict(&mut self, pid: Pid, mask: u64) {
        self.masks.insert(pid, mask);
    }

    /// Lifts the restriction (process death).
    pub fn unrestrict(&mut self, pid: Pid) -> bool {
        self.masks.remove(&pid).is_some()
    }

    /// May `pid` issue kernel syscall `nr` directly?
    pub fn allowed(&self, pid: Pid, snr: u64) -> bool {
        match self.masks.get(&pid) {
            None => true,
            Some(m) => snr < 64 && (m >> snr) & 1 == 1,
        }
    }
}

impl Kernel {
    /// Restricts `pid`'s ambient syscalls to the numbers set in `mask`
    /// (pass 0 for none — the sandboxed-plugin default).
    pub fn restrict_syscalls(&mut self, pid: Pid, mask: u64) {
        self.syscall_filters.restrict(pid, mask);
    }

    /// May `pid` issue kernel syscall `nr` directly?
    pub fn syscall_allowed(&self, pid: Pid, snr: u64) -> bool {
        self.syscall_filters.allowed(pid, snr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body() -> Vec<u8> {
        (0u8..200).collect()
    }

    fn grants() -> GrantSet {
        GrantSet { mem_bytes: 4096, syscall_mask: 1 << nr::GETPID, threads: 1 }
    }

    #[test]
    fn valid_blob_roundtrips() {
        let c = Checker::new(0xFEED);
        let blob = sign(0xFEED, &grants(), &body());
        let chk = c.check(&blob).expect("valid blob loads");
        assert_eq!(chk.grants, grants());
        assert_eq!(chk.body, body());
    }

    #[test]
    fn wrong_key_is_bad_signature() {
        let blob = sign(0xFEED, &grants(), &body());
        assert_eq!(Checker::new(0xBEEF).check(&blob), Err(CheckError::BadSignature));
    }

    #[test]
    fn every_bit_flip_in_body_is_rejected() {
        let c = Checker::new(1);
        let blob = sign(1, &grants(), &body());
        for at in [HEADER_BYTES + 48, blob.len() / 2, blob.len() - 9] {
            let mut m = blob.clone();
            m[at] ^= 0x10;
            assert_eq!(c.check(&m), Err(CheckError::BadSignature), "flip at {at}");
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let c = Checker::new(1);
        let blob = sign(1, &grants(), &body());
        assert_eq!(c.check(&[]), Err(CheckError::TooShort));
        assert_eq!(c.check(&blob[..HEADER_BYTES]), Err(CheckError::TooShort));
        assert_eq!(c.check(&blob[..blob.len() - 1]), Err(CheckError::BadLength));
    }

    #[test]
    fn over_declared_grants_are_rejected() {
        let c = Checker::new(1);
        let mut g = grants();
        g.mem_bytes = c.caps.mem_bytes + 1;
        let blob = sign(1, &g, &body());
        assert_eq!(c.check(&blob), Err(CheckError::OverCap(0)));
        let mut g = grants();
        g.syscall_mask = !0; // every syscall — not a subset of the caps
        let blob = sign(1, &g, &body());
        assert_eq!(c.check(&blob), Err(CheckError::OverCap(1)));
    }

    #[test]
    fn filter_defaults_to_unrestricted() {
        let mut f = SyscallFilters::default();
        assert!(f.allowed(Pid(7), nr::WRITE));
        f.restrict(Pid(7), 1 << nr::GETPID);
        assert!(f.allowed(Pid(7), nr::GETPID));
        assert!(!f.allowed(Pid(7), nr::WRITE));
        assert!(!f.allowed(Pid(7), 99));
        assert!(f.allowed(Pid(8), nr::WRITE), "other pids unaffected");
        assert!(f.unrestrict(Pid(7)));
        assert!(f.allowed(Pid(7), nr::WRITE));
    }
}
