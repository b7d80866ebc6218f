//! Property tests for the open-loop workload generator and the admission
//! token bucket — the two host-side pieces whose guarantees the
//! `prodbench` numbers lean on:
//!
//! 1. **Determinism**: the arrival stream is a pure function of
//!    [`WorkloadCfg`]: a fresh generator on the same config reproduces it
//!    byte for byte.
//! 2. **Admission bound**: a token bucket configured for rate *r* and
//!    burst *b* never admits more than `b + elapsed·r + 1` arrivals no
//!    matter how adversarial the arrival schedule is.

use oltp::workload::{Arrival, OpenLoop, Pareto, Phase, TokenBucket, WorkloadCfg};
use proptest::prelude::*;

fn arb_cfg() -> impl Strategy<Value = WorkloadCfg> {
    (
        any::<u64>(),
        1u64..200,             // sessions
        1u64..8,               // tenants
        1u64..6,               // lanes
        100_000u64..5_000_000, // window_ns
        1u32..4,               // rate selector
        any::<bool>(),         // phased or flat
    )
        .prop_map(|(seed, sessions, tenants, lanes, window_ns, rate_sel, phased)| {
            WorkloadCfg {
                seed,
                sessions,
                tenants,
                lanes,
                keys: 1024,
                zipf_s: 0.99,
                rate_per_s: rate_sel as f64 * 400_000.0,
                pareto: Pareto { alpha: 1.5, bound: 1_000.0 },
                phases: if phased {
                    vec![Phase { frac: 0.5, mult: 0.5 }, Phase { frac: 0.5, mult: 1.5 }]
                } else {
                    Vec::new()
                },
                window_ns,
            }
        })
}

fn stream(cfg: &WorkloadCfg, limit: usize) -> Vec<Arrival> {
    OpenLoop::new(cfg.clone()).take(limit).collect()
}

proptest! {
    /// Same seed ⇒ identical arrival/tenant/key/lane stream from a fresh
    /// generator.
    #[test]
    fn generator_is_deterministic(cfg in arb_cfg()) {
        prop_assert_eq!(stream(&cfg, 2_000), stream(&cfg, 2_000));
    }

    /// Arrivals are nondecreasing in time and every derived field is in
    /// range (the invariants injection relies on).
    #[test]
    fn generator_streams_are_well_formed(cfg in arb_cfg()) {
        let mut last = 0u64;
        for a in stream(&cfg, 2_000) {
            prop_assert!(a.t_ns >= last, "time went backwards");
            prop_assert!(a.t_ns < cfg.window_ns);
            last = a.t_ns;
            prop_assert!(a.session < cfg.sessions);
            prop_assert_eq!(a.tenant, a.session % cfg.tenants);
            prop_assert!(a.lane < cfg.lanes);
            prop_assert!(a.key < cfg.keys);
        }
    }

    /// The bucket never admits above `burst + elapsed·rate + 1` on any
    /// schedule — including bursts far above the rate and long idle gaps.
    #[test]
    fn token_bucket_never_admits_above_rate(
        rate in 1_000u64..2_000_000,
        burst in 1u64..64,
        gaps in prop::collection::vec(0u64..200_000, 1..400),
    ) {
        let mut tb = TokenBucket::new(rate, burst);
        let (mut t_ns, mut admitted) = (0u64, 0u64);
        for g in gaps {
            t_ns += g;
            if tb.admit(t_ns) {
                admitted += 1;
            }
            let bound = burst as u128 + t_ns as u128 * rate as u128 / 1_000_000_000 + 1;
            prop_assert!(
                (admitted as u128) <= bound,
                "admitted {} > bound {} at t={}ns", admitted, bound, t_ns
            );
        }
    }

    /// The generator's own timestamps through the bucket: admissions over a
    /// whole stream respect the configured rate.
    #[test]
    fn bucket_bounds_generated_streams(cfg in arb_cfg(), rate in 10_000u64..500_000) {
        let burst = 8u64;
        let mut tb = TokenBucket::new(rate, burst);
        let mut admitted = 0u64;
        let mut end = 0u64;
        for a in stream(&cfg, 4_000) {
            if tb.admit(a.t_ns) {
                admitted += 1;
            }
            end = a.t_ns;
        }
        let bound = burst as u128 + end as u128 * rate as u128 / 1_000_000_000 + 1;
        prop_assert!((admitted as u128) <= bound, "admitted {} > bound {}", admitted, bound);
    }
}
