//! Property battery for the plugin load-time checker: random mutations
//! (truncation, bit flips in header/grants/body/signature, over-declared
//! grants) are rejected deterministically — the same blob yields the same
//! verdict on every attempt and on every host thread, valid images always
//! load, and the checker never panics on arbitrary bytes.
//!
//! The in-process cross-thread check below pins that the verdict carries
//! no hidden host-thread dependence.

use proptest::prelude::*;
use simkernel::checker::{sign, CheckError, Checker, GrantCaps, GrantSet};

const KEY: u64 = 0xD1FC_5EED;

fn checker() -> Checker {
    Checker {
        key: KEY,
        caps: GrantCaps { mem_bytes: 1 << 20, syscall_mask: 0b1011_1000, threads: 4 },
    }
}

/// A grant set guaranteed to be within [`checker`]'s caps.
fn grants(mem: u64, mask: u64, threads: u64) -> GrantSet {
    GrantSet {
        mem_bytes: mem % ((1 << 20) + 1),
        syscall_mask: mask & 0b1011_1000,
        threads: threads % 5,
    }
}

/// The verdict must be identical when recomputed on this thread and on a
/// fresh spawned host thread (the checker is pure).
fn verdict_everywhere(blob: &[u8]) -> Result<(), String> {
    let c = checker();
    let here = c.check(blob);
    let again = c.check(blob);
    if here != again {
        return Err(format!("verdict not stable on one thread: {here:?} vs {again:?}"));
    }
    let owned = blob.to_vec();
    let there = std::thread::spawn(move || checker().check(&owned))
        .join()
        .map_err(|_| "checker panicked on a spawned thread".to_string())?;
    if here != there {
        return Err(format!("verdict differs across host threads: {here:?} vs {there:?}"));
    }
    Ok(())
}

proptest! {
    #[test]
    fn valid_images_always_load(
        mem in 1u64..=1 << 20,
        mask in any::<u64>(),
        threads in 0u64..=4,
        body in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let g = grants(mem, mask, threads);
        let blob = sign(KEY, &g, &body);
        let chk = checker().check(&blob);
        prop_assert_eq!(chk.clone().map(|c| c.grants), Ok(g));
        prop_assert_eq!(chk.map(|c| c.body), Ok(body));
        prop_assert!(verdict_everywhere(&blob).is_ok());
    }

    #[test]
    fn truncations_rejected_deterministically(
        body in prop::collection::vec(any::<u8>(), 0..300),
        cut in any::<u64>(),
    ) {
        let blob = sign(KEY, &grants(4096, !0, 1), &body);
        let keep = (cut % blob.len() as u64) as usize; // strict prefix
        let verdict = checker().check(&blob[..keep]);
        prop_assert!(verdict.is_err(), "truncation to {keep} bytes accepted");
        prop_assert!(verdict_everywhere(&blob[..keep]).is_ok());
    }

    #[test]
    fn bit_flips_rejected_deterministically(
        body in prop::collection::vec(any::<u8>(), 1..300),
        at in any::<u64>(),
        bit in 0u32..8,
    ) {
        let blob = sign(KEY, &grants(8192, 0b1000, 2), &body);
        let mut m = blob.clone();
        let at = (at % m.len() as u64) as usize;
        m[at] ^= 1 << bit;
        let verdict = checker().check(&m);
        prop_assert!(verdict.is_err(), "flip of bit {bit} at byte {at} accepted");
        prop_assert!(verdict_everywhere(&m).is_ok());
        // The unmutated blob still loads: rejection is about the bytes,
        // not checker state.
        prop_assert!(checker().check(&blob).is_ok());
    }

    #[test]
    fn over_declared_grants_rejected(
        extra in 1u64..1 << 40,
        body in prop::collection::vec(any::<u8>(), 0..200),
        which in 0u64..3,
    ) {
        let mut g = grants(1 << 20, !0, 4);
        match which {
            0 => g.mem_bytes = (1u64 << 20).saturating_add(extra),
            1 => g.syscall_mask = 0b0100_0000 | (extra << 8), // outside the cap subset
            _ => g.threads = 4 + extra,
        }
        let blob = sign(KEY, &g, &body);
        prop_assert_eq!(checker().check(&blob), Err(CheckError::OverCap(which)));
        prop_assert!(verdict_everywhere(&blob).is_ok());
    }

    #[test]
    fn arbitrary_bytes_never_panic(garbage in prop::collection::vec(any::<u8>(), 0..400)) {
        // Any verdict is fine; panicking or diverging across threads is not.
        prop_assert!(verdict_everywhere(&garbage).is_ok());
    }

    #[test]
    fn garbage_with_plausible_header_never_panics(
        tail in prop::collection::vec(any::<u8>(), 0..300),
        count in any::<u16>(),
        total in any::<u64>(),
        body_len in any::<u64>(),
    ) {
        // Adversarial header: real magic/version, attacker-chosen counts
        // and lengths, arbitrary tail. Exercises the length arithmetic.
        let mut blob = Vec::new();
        blob.extend_from_slice(b"DPLG");
        blob.extend_from_slice(&1u16.to_le_bytes());
        blob.extend_from_slice(&count.to_le_bytes());
        blob.extend_from_slice(&total.to_le_bytes());
        blob.extend_from_slice(&body_len.to_le_bytes());
        blob.extend_from_slice(&tail);
        prop_assert!(verdict_everywhere(&blob).is_ok());
    }
}
