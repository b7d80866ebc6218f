//! Property-based tests for the CODOMs protection model.

use codoms::apl::{DomainTable, Perm};
use codoms::cap::{CapKind, Capability, RevocationTable, CAPABILITY_BYTES};
use codoms::{AccessDecision, AplCache, CheckError, Checker, Dcs, CAP_REGS};
use proptest::prelude::*;
use simmem::{DomainTag, FrameId, PageFlags, Pte};

fn arb_perm() -> impl Strategy<Value = Perm> {
    prop_oneof![Just(Perm::Nil), Just(Perm::Call), Just(Perm::Read), Just(Perm::Write)]
}

fn arb_cap() -> impl Strategy<Value = Capability> {
    (0u64..1 << 40, 1u64..1 << 20, arb_perm(), any::<bool>(), 0u32..64, 0u64..8, 0u64..4).prop_map(
        |(base, len, perm, is_async, origin, owner, epoch)| Capability {
            base,
            len,
            perm,
            kind: if is_async { CapKind::Async } else { CapKind::Sync { owner, epoch } },
            origin: DomainTag(origin),
        },
    )
}

/// Capabilities confined to a small address window so random accesses have a
/// realistic chance of hitting (and narrowly missing) them.
fn arb_near_cap() -> impl Strategy<Value = Capability> {
    (0u64..4096, 1u64..4096, arb_perm(), any::<bool>(), 0u64..4, 0u64..3).prop_map(
        |(base, len, perm, is_async, owner, epoch)| Capability {
            base,
            len,
            perm,
            kind: if is_async { CapKind::Async } else { CapKind::Sync { owner, epoch } },
            origin: DomainTag(1),
        },
    )
}

/// One random data access: (from-domain, page-tag, addr, size, write, thread).
type Query = (u32, u32, u64, u64, bool, u64);

fn arb_query() -> impl Strategy<Value = Query> {
    (1u32..9, 1u32..9, 0u64..8192, 1u64..128, any::<bool>(), 0u64..4)
}

/// Runs one data check the way a CPU does: an APL-cache miss raises a
/// software-refill exception and the check is retried. The refill is
/// architecturally invisible, so callers only ever see the retried result.
fn check_refill(
    chk: &Checker,
    dt: &DomainTable,
    cache: &mut AplCache,
    caps: &[Option<Capability>; CAP_REGS],
    rev: &RevocationTable,
    q: Query,
) -> Result<AccessDecision, CheckError> {
    let (from, to, addr, size, write, thread) = q;
    let cur = DomainTag(from);
    let pte = Pte { frame: FrameId(0), flags: PageFlags::RW, tag: DomainTag(to) };
    match chk.check_data(cur, &pte, addr, size, write, cache, caps, rev, thread) {
        Err(CheckError::AplMiss { tag }) => {
            cache.fill(tag, dt.apl(tag).expect("queried domain exists").clone());
            chk.check_data(cur, &pte, addr, size, write, cache, caps, rev, thread)
        }
        r => r,
    }
}

proptest! {
    #[test]
    fn capability_bytes_roundtrip(cap in arb_cap()) {
        let b = cap.to_bytes();
        prop_assert_eq!(b.len(), CAPABILITY_BYTES);
        prop_assert_eq!(Capability::from_bytes(&b), Some(cap));
    }

    #[test]
    fn restrict_never_widens(
        cap in arb_cap(),
        base in 0u64..1 << 41,
        len in 0u64..1 << 21,
        perm in arb_perm(),
    ) {
        if let Some(r) = cap.restrict(base, len, perm) {
            prop_assert!(r.base >= cap.base);
            prop_assert!(r.base + r.len <= cap.base + cap.len);
            prop_assert!(r.perm <= cap.perm);
            // Everything the restricted capability covers, the original
            // covered too.
            for probe in [r.base, r.base + r.len.saturating_sub(1)] {
                if r.covers(probe, 1) {
                    prop_assert!(cap.covers(probe, 1));
                }
            }
        }
    }

    #[test]
    fn covers_is_range_containment(cap in arb_cap(), addr in 0u64..1 << 41, size in 1u64..4096) {
        let c = cap.covers(addr, size);
        let manual = addr >= cap.base
            && addr.checked_add(size).is_some_and(|e| e <= cap.base + cap.len);
        prop_assert_eq!(c, manual);
    }

    #[test]
    fn revocation_is_monotonic(threads in prop::collection::vec(0u64..4, 1..20)) {
        let mut rt = RevocationTable::new();
        let caps: Vec<Capability> = (0..4u64)
            .map(|t| Capability {
                base: 0,
                len: 8,
                perm: Perm::Read,
                kind: CapKind::Sync { owner: t, epoch: 0 },
                origin: DomainTag(1),
            })
            .collect();
        for t in threads {
            rt.revoke_all(t);
            // Once revoked, a sync cap never becomes valid again.
            prop_assert!(!rt.is_valid(&caps[t as usize], t));
        }
    }

    #[test]
    fn apl_cache_agrees_with_domain_table(
        grants in prop::collection::vec((1u32..12, 1u32..12, arb_perm()), 0..30),
        queries in prop::collection::vec((1u32..12, 1u32..12), 1..30),
    ) {
        let mut dt = DomainTable::new();
        let tags: Vec<DomainTag> = (0..12).map(|_| dt.create()).collect();
        let _ = tags;
        let mut cache = AplCache::new();
        for (s, d, p) in grants {
            dt.set_grant(DomainTag(s), DomainTag(d), p);
        }
        for (s, d) in queries {
            let (src, dst) = (DomainTag(s), DomainTag(d));
            // Software refill on miss, exactly like the kernel.
            if cache.lookup(src).is_none() {
                cache.fill(src, dt.apl(src).unwrap().clone());
            }
            prop_assert_eq!(cache.perm(src, dst), Some(dt.perm(src, dst)));
        }
    }

    /// The checker agrees exactly with the protection model: an access is
    /// allowed iff the page is the subject's own, the domain table grants
    /// enough permission, or a live capability covers it — so no random
    /// APL/tag/grant/revocation sequence can ever smuggle a denied access
    /// through, and every `Ok` names a real authority.
    #[test]
    fn checker_never_allows_a_model_denied_access(
        grants in prop::collection::vec((1u32..9, 1u32..9, arb_perm()), 0..40),
        caps_v in prop::collection::vec(arb_near_cap(), 0..8),
        revokes in prop::collection::vec(0u64..4, 0..6),
        queries in prop::collection::vec(arb_query(), 1..40),
    ) {
        let mut dt = DomainTable::new();
        for _ in 0..8 {
            dt.create();
        }
        for (s, d, p) in grants {
            dt.set_grant(DomainTag(s), DomainTag(d), p);
        }
        let mut caps: [Option<Capability>; CAP_REGS] = [None; CAP_REGS];
        for (i, c) in caps_v.into_iter().enumerate() {
            caps[i] = Some(c);
        }
        let mut rev = RevocationTable::new();
        for t in revokes {
            rev.revoke_all(t);
        }
        let chk = Checker::default();
        let mut cache = AplCache::new();
        for q in queries {
            let (from, to, addr, size, write, thread) = q;
            let (cur, tag) = (DomainTag(from), DomainTag(to));
            let needed = if write { Perm::Write } else { Perm::Read };
            let cap_ok = |c: &Capability| {
                c.perm >= needed && c.covers(addr, size) && rev.is_valid(c, thread)
            };
            let allowed =
                cur == tag || dt.perm(cur, tag) >= needed || caps.iter().flatten().any(cap_ok);
            let got = check_refill(&chk, &dt, &mut cache, &caps, &rev, q);
            prop_assert_eq!(got.is_ok(), allowed, "model disagrees on {:?}: {:?}", q, got);
            match got {
                Ok(AccessDecision::SelfDomain) => prop_assert_eq!(cur, tag),
                Ok(AccessDecision::Apl(p)) => {
                    prop_assert_eq!(p, dt.perm(cur, tag));
                    prop_assert!(p >= needed);
                }
                Ok(AccessDecision::Cap(i)) => {
                    let c = caps[i];
                    prop_assert!(c.is_some_and(|c| cap_ok(&c)), "cap {} can't justify {:?}", i, q);
                }
                Err(CheckError::AplMiss { .. }) => {
                    prop_assert!(false, "miss must not survive the refill retry");
                }
                Err(_) => {}
            }
        }
    }

    /// Check results are order-independent across CPUs: two hardware threads
    /// with independent APL caches — one cold, one pre-filled in a different
    /// order, evaluating the queries in a rotated order against the shared
    /// revocation table — reach the same allow/deny outcome (including the
    /// denial reason) for every access.
    /// The APL cache is a pure cache: fill order and residency never flip an
    /// outcome. Only the *credited authority* may differ (a capability hit
    /// can win the parallel race while the APL entry is still cold), which
    /// affects statistics, never protection.
    #[test]
    fn check_results_are_order_independent_across_cpus(
        grants in prop::collection::vec((1u32..9, 1u32..9, arb_perm()), 0..40),
        caps_v in prop::collection::vec(arb_near_cap(), 0..8),
        revokes in prop::collection::vec(0u64..4, 0..6),
        queries in prop::collection::vec(arb_query(), 1..30),
        rot in 0usize..30,
        prefill in prop::collection::vec(1u32..9, 0..8),
    ) {
        let mut dt = DomainTable::new();
        for _ in 0..8 {
            dt.create();
        }
        for (s, d, p) in grants {
            dt.set_grant(DomainTag(s), DomainTag(d), p);
        }
        let mut caps: [Option<Capability>; CAP_REGS] = [None; CAP_REGS];
        for (i, c) in caps_v.into_iter().enumerate() {
            caps[i] = Some(c);
        }
        let mut rev = RevocationTable::new();
        for t in revokes {
            rev.revoke_all(t);
        }
        let chk = Checker::default();
        let n = queries.len();
        let outcome = |r: Result<AccessDecision, CheckError>| r.map(|_| ());

        // CPU A: cold cache, program order.
        let mut cache_a = AplCache::new();
        let mut res_a = vec![None; n];
        for (i, &q) in queries.iter().enumerate() {
            res_a[i] = Some(outcome(check_refill(&chk, &dt, &mut cache_a, &caps, &rev, q)));
        }

        // CPU B: cache warmed in an arbitrary order, queries rotated.
        let mut cache_b = AplCache::new();
        for t in prefill {
            cache_b.fill(DomainTag(t), dt.apl(DomainTag(t)).expect("exists").clone());
        }
        let mut res_b = vec![None; n];
        for k in 0..n {
            let i = (k + rot) % n;
            res_b[i] =
                Some(outcome(check_refill(&chk, &dt, &mut cache_b, &caps, &rev, queries[i])));
        }

        prop_assert_eq!(res_a, res_b);
    }

    #[test]
    fn dcs_depth_is_push_minus_pop(ops in prop::collection::vec(any::<bool>(), 0..64)) {
        let mut d = Dcs::new(0x1000, 0x1000 + 32 * 32);
        let mut depth: i64 = 0;
        for push in ops {
            if push {
                if d.push_slot().is_ok() {
                    depth += 1;
                }
            } else if d.pop_slot().is_ok() {
                depth -= 1;
            }
            prop_assert!(depth >= 0);
            prop_assert_eq!(d.depth() as i64, depth);
        }
    }
}
