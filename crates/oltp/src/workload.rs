//! Open-loop production workload generation and admission control.
//!
//! The closed-loop harnesses in this crate ([`crate::dipc_stack`] and
//! friends) measure *capacity*: a fixed pool of service threads loops as
//! fast as the stack allows. Production traffic is the opposite shape —
//! an **open loop** where requests arrive on their own schedule whether or
//! not the system keeps up, which is what makes tail latency and overload
//! behaviour measurable at all. This module generates that schedule on the
//! host, deterministically:
//!
//! * **Heavy-tailed inter-arrivals** — a bounded Pareto sampler
//!   (`x = (1 − U·(1 − H^−α))^(−1/α)`, support `[1, H]`) normalized by its
//!   analytic mean, so the configured offered rate is hit exactly in
//!   expectation while bursts cluster the way production arrivals do.
//! * **Diurnal phases** — the measurement window is divided into
//!   configurable phases, each scaling the instantaneous rate (quiet hour,
//!   burst hour); the default schedule averages to 1.0 so the nominal rate
//!   is preserved.
//! * **Hot-key skew** — per-arrival keys are drawn from a Zipf(s)
//!   distribution over the DB table's key space via a precomputed CDF, then
//!   bit-mixed so the hot ranks spread across the table pages.
//! * **Session multiplexing** — arrival *k* belongs to session
//!   `(k · STRIDE) mod sessions` with a prime stride, so any run with at
//!   least as many arrivals as sessions exercises **every** session; the
//!   session determines the tenant (`session mod tenants`) and the
//!   connection-pool lane (hash of the session), modelling hundreds of
//!   thousands of clients multiplexed over a small set of pooled
//!   connections.
//!
//! Everything is pure host-side computation from a [`WorkloadCfg`] seed:
//! no simulator state, no host clocks, no environment variables — the
//! stream is bit-identical across repeated runs (property-tested in
//! `crates/oltp/tests/workload_props.rs`).
//!
//! [`TokenBucket`] implements the edge's admission control in exact
//! integer arithmetic (micro-tokens), so "never admits above the
//! configured rate" is a provable invariant, not a float approximation.

/// SplitMix64 — the same tiny deterministic PRNG the fault injector and
/// the in-tree proptest shim use.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 significant bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Stateless 64-bit mix (Stafford variant 13) — used to hash sessions onto
/// connection-pool lanes.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Prime stride for session assignment (Knuth's multiplicative-hash
/// constant): coprime to every practical session count, so arrival `k`
/// walking `(k · STRIDE) mod sessions` visits every session once per
/// `sessions` arrivals.
pub const SESSION_STRIDE: u64 = 2_654_435_761;

/// Bounded Pareto inter-arrival shape: support `[1, bound]`, tail index
/// `alpha`.
#[derive(Clone, Copy, Debug)]
pub struct Pareto {
    /// Tail index (smaller = heavier tail). Must be > 0 and ≠ 1.
    pub alpha: f64,
    /// Upper truncation point `H` (in units of the minimum gap).
    pub bound: f64,
}

impl Pareto {
    /// Analytic mean of the bounded Pareto on `[1, H]`.
    pub fn mean(&self) -> f64 {
        let (a, h) = (self.alpha, self.bound);
        (a / (a - 1.0)) * (1.0 - h.powf(1.0 - a)) / (1.0 - h.powf(-a))
    }

    /// Inverse-CDF sample from a uniform draw in `[0, 1)`.
    pub fn sample(&self, u: f64) -> f64 {
        let (a, h) = (self.alpha, self.bound);
        (1.0 - u * (1.0 - h.powf(-a))).powf(-1.0 / a)
    }
}

/// One diurnal phase: a fraction of the window at a rate multiplier.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Fraction of the measurement window this phase occupies.
    pub frac: f64,
    /// Instantaneous-rate multiplier during the phase.
    pub mult: f64,
}

/// Full description of one open-loop traffic mix.
#[derive(Clone, Debug)]
pub struct WorkloadCfg {
    /// PRNG seed — everything else being equal, the same seed reproduces
    /// the identical arrival stream.
    pub seed: u64,
    /// Simulated client sessions multiplexed over the lanes.
    pub sessions: u64,
    /// Tenants (a session's tenant is `session % tenants`).
    pub tenants: u64,
    /// Connection-pool lanes (ingress rings; one edge thread each).
    pub lanes: u64,
    /// Key space size (power of two, matching the DB table).
    pub keys: u64,
    /// Zipf skew parameter for key popularity.
    pub zipf_s: f64,
    /// Nominal offered load, arrivals per simulated second.
    pub rate_per_s: f64,
    /// Inter-arrival shape.
    pub pareto: Pareto,
    /// Diurnal schedule (fractions are normalized; an empty slice means a
    /// single flat phase).
    pub phases: Vec<Phase>,
    /// Measurement window the schedule spans, in simulated nanoseconds.
    pub window_ns: u64,
}

impl WorkloadCfg {
    /// The `prodbench` default shape: a four-phase diurnal cycle averaging
    /// 1.0× (quiet → burst → trough → steady), α = 1.5 bounded Pareto
    /// gaps, Zipf 0.99 hot keys.
    pub fn production(seed: u64, rate_per_s: f64, window_ns: u64) -> WorkloadCfg {
        WorkloadCfg {
            seed,
            sessions: 100_000,
            tenants: 16,
            lanes: 12,
            keys: crate::tiers::TABLE_ROWS,
            zipf_s: 0.99,
            rate_per_s,
            pareto: Pareto { alpha: 1.5, bound: 1_000.0 },
            phases: vec![
                Phase { frac: 0.25, mult: 0.6 },
                Phase { frac: 0.25, mult: 1.6 },
                Phase { frac: 0.25, mult: 0.8 },
                Phase { frac: 0.25, mult: 1.0 },
            ],
            window_ns,
        }
    }
}

/// One generated request arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Scheduled arrival time, ns since the window start.
    pub t_ns: u64,
    /// Client session the request belongs to.
    pub session: u64,
    /// Tenant (`session % tenants`).
    pub tenant: u64,
    /// Requested key (Zipf-skewed).
    pub key: u64,
    /// Connection-pool lane the session is pinned to.
    pub lane: u64,
}

/// The open-loop arrival iterator. Yields [`Arrival`]s in nondecreasing
/// time order until the window is exhausted.
pub struct OpenLoop {
    cfg: WorkloadCfg,
    rng: Rng,
    /// Precomputed Zipf CDF over ranks, scaled to 2^32.
    zipf_cdf: Vec<u64>,
    /// Phase boundaries in ns, paired with the phase multiplier.
    phase_ends: Vec<(u64, f64)>,
    mean_gap: f64,
    t_ns: f64,
    k: u64,
}

impl OpenLoop {
    /// Builds the iterator (precomputes the Zipf CDF and phase table).
    pub fn new(cfg: WorkloadCfg) -> OpenLoop {
        assert!(cfg.keys.is_power_of_two(), "key space must be a power of two");
        assert!(cfg.sessions > 0 && cfg.lanes > 0 && cfg.tenants > 0);
        let mut weights = Vec::with_capacity(cfg.keys as usize);
        let mut acc = 0.0f64;
        for r in 1..=cfg.keys {
            acc += 1.0 / (r as f64).powf(cfg.zipf_s);
            weights.push(acc);
        }
        let total = acc;
        let zipf_cdf: Vec<u64> =
            weights.iter().map(|w| (w / total * (1u64 << 32) as f64) as u64).collect();
        let fsum: f64 = cfg.phases.iter().map(|p| p.frac).sum();
        let mut phase_ends = Vec::new();
        if cfg.phases.is_empty() || fsum <= 0.0 {
            phase_ends.push((cfg.window_ns, 1.0));
        } else {
            let mut t = 0.0;
            for p in &cfg.phases {
                t += p.frac / fsum * cfg.window_ns as f64;
                phase_ends.push((t as u64, p.mult));
            }
            // Guard against fraction rounding: the last phase always
            // reaches the window end.
            phase_ends.last_mut().expect("nonempty").0 = cfg.window_ns;
        }
        let mean_gap = cfg.pareto.mean();
        let rng = Rng::new(cfg.seed);
        OpenLoop { cfg, rng, zipf_cdf, phase_ends, mean_gap, t_ns: 0.0, k: 0 }
    }

    /// The configuration this stream was built from.
    pub fn cfg(&self) -> &WorkloadCfg {
        &self.cfg
    }

    fn phase_mult(&self, t_ns: u64) -> f64 {
        for &(end, mult) in &self.phase_ends {
            if t_ns < end {
                return mult;
            }
        }
        self.phase_ends.last().expect("nonempty").1
    }

    fn zipf_key(&mut self) -> u64 {
        let u = (self.rng.next_u64() >> 32) & 0xFFFF_FFFF;
        let rank = match self.zipf_cdf.binary_search(&u) {
            Ok(i) | Err(i) => i as u64,
        }
        .min(self.cfg.keys - 1);
        // Spread hot ranks across the table (odd multiplier = bijection on
        // a power-of-two key space).
        rank.wrapping_mul(0x9E37_9B97) & (self.cfg.keys - 1)
    }
}

impl Iterator for OpenLoop {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        let mult = self.phase_mult(self.t_ns as u64);
        let gap = self.cfg.pareto.sample(self.rng.next_f64()) / self.mean_gap * 1e9
            / (self.cfg.rate_per_s * mult);
        self.t_ns += gap;
        if self.t_ns >= self.cfg.window_ns as f64 {
            return None;
        }
        let session = (self.k as u128 * SESSION_STRIDE as u128 % self.cfg.sessions as u128) as u64;
        self.k += 1;
        Some(Arrival {
            t_ns: self.t_ns as u64,
            session,
            tenant: session % self.cfg.tenants,
            key: self.zipf_key(),
            lane: mix64(session) % self.cfg.lanes,
        })
    }
}

/// Edge admission control: a token bucket in exact integer arithmetic.
///
/// Tokens are accounted in **micro-tokens** (1 admission = 1 000 000):
/// `rate_per_s` micro-tokens accrue per microsecond, capped at
/// `burst` whole tokens. Because refill uses only integer multiply/divide
/// on the arrival's virtual timestamp, admission decisions are independent
/// of host scheduling and injection slicing — and the over-admission bound
/// `admitted ≤ burst + elapsed_ns · rate / 1e9 + 1` holds exactly
/// (property-tested).
#[derive(Clone, Debug)]
pub struct TokenBucket {
    /// Sustained admission rate, tokens per simulated second.
    pub rate_per_s: u64,
    /// Bucket depth, whole tokens.
    pub burst: u64,
    micro: u64,
    last_ns: u64,
}

impl TokenBucket {
    /// A bucket starting full.
    pub fn new(rate_per_s: u64, burst: u64) -> TokenBucket {
        TokenBucket { rate_per_s, burst, micro: burst * 1_000_000, last_ns: 0 }
    }

    /// Admit-or-shed decision for an arrival at virtual time `t_ns`.
    /// Timestamps must be nondecreasing (the generator guarantees it).
    pub fn admit(&mut self, t_ns: u64) -> bool {
        let dt = t_ns.saturating_sub(self.last_ns);
        if dt > 0 {
            self.last_ns = t_ns;
            // dt ns · rate/s = dt·rate/1e9 tokens = dt·rate/1000 µtokens.
            let add = (dt as u128 * self.rate_per_s as u128 / 1_000) as u64;
            self.micro = (self.micro + add).min(self.burst * 1_000_000);
        }
        if self.micro >= 1_000_000 {
            self.micro -= 1_000_000;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> WorkloadCfg {
        let mut c = WorkloadCfg::production(7, 1_000_000.0, 50_000_000);
        c.sessions = 4_000;
        c.lanes = 4;
        c
    }

    #[test]
    fn pareto_sampler_is_bounded_and_calibrated() {
        let p = Pareto { alpha: 1.5, bound: 1_000.0 };
        let mut rng = Rng::new(42);
        let mut sum = 0.0;
        let n = 200_000;
        for _ in 0..n {
            let x = p.sample(rng.next_f64());
            assert!((1.0..=p.bound).contains(&x), "{x}");
            sum += x;
        }
        let mean = sum / n as f64;
        let expect = p.mean();
        assert!((mean / expect - 1.0).abs() < 0.05, "mean {mean} vs analytic {expect}");
    }

    #[test]
    fn offered_rate_is_hit_in_expectation() {
        let cfg = small_cfg();
        let n = OpenLoop::new(cfg.clone()).count() as f64;
        let expect = cfg.rate_per_s * cfg.window_ns as f64 / 1e9;
        assert!((n / expect - 1.0).abs() < 0.1, "generated {n} vs expected {expect}");
    }

    #[test]
    fn every_session_appears_once_arrivals_cover_the_pool() {
        let mut cfg = small_cfg();
        cfg.sessions = 2_000;
        let mut seen = vec![false; cfg.sessions as usize];
        let mut n = 0u64;
        for a in OpenLoop::new(cfg.clone()) {
            if n >= cfg.sessions {
                break;
            }
            seen[a.session as usize] = true;
            assert_eq!(a.tenant, a.session % cfg.tenants);
            assert!(a.lane < cfg.lanes);
            n += 1;
        }
        assert!(n >= cfg.sessions, "window too small to cover the pool");
        assert!(seen.iter().all(|&s| s), "prime stride must visit every session");
    }

    #[test]
    fn zipf_keys_are_skewed() {
        let cfg = small_cfg();
        let mut counts = vec![0u64; cfg.keys as usize];
        let mut total = 0u64;
        for a in OpenLoop::new(cfg) {
            counts[a.key as usize] += 1;
            total += 1;
        }
        let max = *counts.iter().max().expect("nonempty");
        // Uniform share would be total/keys; Zipf(0.99) over 1024 keys puts
        // ~13% of mass on the top key.
        assert!(max as f64 > 20.0 * total as f64 / counts.len() as f64, "not skewed: {max}");
    }

    #[test]
    fn diurnal_phases_shift_rate() {
        let cfg = small_cfg(); // phases 0.6/1.6/0.8/1.0 over quarters
        let q = cfg.window_ns / 4;
        let mut per_quarter = [0u64; 4];
        for a in OpenLoop::new(cfg) {
            per_quarter[((a.t_ns / q) as usize).min(3)] += 1;
        }
        assert!(
            per_quarter[1] > 2 * per_quarter[0],
            "burst phase must out-arrive the quiet phase: {per_quarter:?}"
        );
    }

    #[test]
    fn token_bucket_admits_exactly_rate_plus_burst() {
        let mut tb = TokenBucket::new(1_000, 5); // 1k/s, burst 5
        let mut admitted = 0;
        // 10k arrivals in one second: at most 1000 + 5 (+1 rounding) pass.
        for i in 0..10_000u64 {
            if tb.admit(i * 100_000) {
                admitted += 1;
            }
        }
        assert!(admitted <= 1_006, "{admitted}");
        assert!(admitted >= 1_000, "{admitted}");
    }

    #[test]
    fn token_bucket_recovers_after_idle() {
        let mut tb = TokenBucket::new(1_000, 3);
        for i in 0..10 {
            tb.admit(i);
        }
        assert!(!tb.admit(10), "bucket must be empty after a burst");
        // A long quiet period refills to (capped) burst depth.
        for k in 0..3 {
            assert!(tb.admit(1_000_000_000 + k), "refilled token {k}");
        }
        assert!(!tb.admit(1_000_000_003), "burst cap must bound the refill");
    }
}
