//! `prod`: the open-loop production service graph (edge → cache → 3 app
//! replicas → DB primary + 2 read replicas, 16 tenant domains, 8 simulated
//! cores, work stealing on) at 650 000 req/s offered — `prodbench`'s middle
//! load point. The token bucket is set at 1 200 000/s, above the diurnal
//! peak (1.6 × 650 000), so that it admits everything: `prodbench`'s own
//! 750 000/s bucket sheds a tenth of this load by design, and a benchmark
//! run must not fail operations. The bucket still runs on every arrival.
//!
//! The seed feeds the arrival generator (bounded-Pareto gaps, four-phase
//! diurnal cycle, Zipf 0.99 keys over 100 000 sessions); the program only
//! ever sees the generated arrivals. Latency is timed in the guest from each
//! request's *scheduled* arrival, so a stall is charged to the requests that
//! queued behind it; the host injects at slice boundaries, at most one
//! `RunOpts::slice_ns` late.
//!
//! The drive loop sits behind the single public call `run_open_loop` (its
//! doorbell wake and latency drain are private), so a traced run wraps that
//! call in one span and takes the layer split from counters.

use std::time::Instant;

use oltp::service_graph::{build, ProdParams, RunOpts};
use oltp::workload::{OpenLoop, TokenBucket, WorkloadCfg};

use super::{begin, count_region, end, snap, Cfg, Round, Sim};
use crate::spans::Tracer;
use crate::stats;

pub const RATE_PER_S: f64 = 650_000.0;
const BUCKET_RATE: u64 = 1_200_000;
const BUCKET_BURST: u64 = 2_000;
/// Simulated window of one round: just over 100 000 requests, so the p999
/// has more than 100 samples beyond it.
const WINDOW_NS: u64 = 160_000_000;
/// Unmeasured first window that fills the graph's caches and queues.
const WARM_NS: u64 = 10_000_000;

fn generator(seed: u64, window_ns: u64, sessions: u64) -> OpenLoop {
    let mut cfg = WorkloadCfg::production(seed, RATE_PER_S, window_ns);
    cfg.sessions = sessions;
    OpenLoop::new(cfg)
}

pub fn round(cfg: &Cfg, mut tr: Option<&mut Tracer>) -> Round {
    let (window_ns, warm_ns, sessions) =
        if cfg.smoke { (12_000_000, 2_000_000, 20_000) } else { (WINDOW_NS, WARM_NS, 100_000) };
    let pp = ProdParams::production();
    let opts = RunOpts::default();
    let mut host = Vec::new();

    let t0 = Instant::now();
    begin(&mut tr, "prod.build", "dipc");
    let mut s = build(&pp);
    end(&mut tr);
    host.push(("dipc.build_link_s".to_string(), t0.elapsed().as_secs_f64()));
    begin(&mut tr, "prod.generator", "oltp");
    let mut warm_gen = generator(cfg.seed ^ 0x5EED, warm_ns, sessions);
    let mut gen = generator(cfg.seed, window_ns, sessions);
    end(&mut tr);
    begin(&mut tr, "prod.warmup", "harness");
    s.run_open_loop(&mut warm_gen, &mut TokenBucket::new(BUCKET_RATE, BUCKET_BURST), &opts);
    end(&mut tr);
    let setup_s = t0.elapsed().as_secs_f64();

    let s0 = snap(&s.sys);
    let c0 = s.sys.k.now_max();
    let mut bucket = TokenBucket::new(BUCKET_RATE, BUCKET_BURST);
    let t1 = Instant::now();
    begin(&mut tr, "prod.run_open_loop", "oltp");
    let r = s.run_open_loop(&mut gen, &mut bucket, &opts);
    end(&mut tr);
    let wall_s = t1.elapsed().as_secs_f64();

    let sim_s = s.sys.k.cost.ns(s.sys.k.now_max() - c0) / 1e9;
    let mut sim = Sim { attempted: r.offered, sim_s, ..Sim::default() };
    sim.ops_per_s = r.throughput_per_s;
    // `ProdRun` reports percentiles of the in-guest samples, not their mean.
    sim.lat_us = r.p50_us;
    let shed = r.shed_bucket + r.shed_ring + r.guest.shed_queue + r.guest.shed_app;
    sim.failed = shed + r.guest.failed;
    sim.expect(sim.failed == 0, || {
        format!(
            "{} shed (bucket {}, ring {}, queue {}, app {}) and {} failed of {} offered",
            shed,
            r.shed_bucket,
            r.shed_ring,
            r.guest.shed_queue,
            r.guest.shed_app,
            r.guest.failed,
            r.offered
        )
    });
    sim.expect(r.samples == r.completed, || {
        format!("{} latency samples for {} completed requests", r.samples, r.completed)
    });
    sim.expect(r.completed + sim.failed == r.offered, || {
        format!("{} offered but {} completed after the drain", r.offered, r.completed)
    });
    // A missed latency objective fails the whole run, not one request.
    if !pp.slo.met(r.p50_us, r.p99_us, r.p999_us) {
        sim.problems.push(format!(
            "SLO missed: p50 {} p99 {} p999 {} us against {:?}",
            r.p50_us, r.p99_us, r.p999_us, pp.slo
        ));
        sim.failed = r.offered;
    }
    sim.expect(cfg.smoke || stats::supports(r.samples as usize, 0.999), || {
        format!("{} samples do not support a p999", r.samples)
    });
    sim.count("oltp.sim_lat_p99_us", r.p99_us);
    sim.count("oltp.sim_lat_p999_us", r.p999_us);
    sim.count("oltp.latency_samples", r.samples as f64);
    sim.count("oltp.bucket_shed_frac", r.shed_bucket as f64 / r.offered.max(1) as f64);
    let lookups = (r.guest.cache_hits + r.guest.cache_misses).max(1);
    sim.count("oltp.cache_hit_frac", r.guest.cache_hits as f64 / lookups as f64);
    sim.count("oltp.tenant_touches", r.tenant_touches as f64);
    sim.count("oltp.inject_lateness_bound_us", opts.slice_ns as f64 / 1e3);
    sim.count("aring.ring_sheds", r.shed_ring as f64);
    count_region(&mut sim, &mut host, &s.sys, &s0, &snap(&s.sys), r.completed);
    // One public call, one part.
    Round { setup_s, wall_s, parts_s: vec![wall_s], sim, host }
}
