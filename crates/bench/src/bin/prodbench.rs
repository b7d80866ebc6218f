//! Production traffic benchmark: the open-loop service graph under a
//! million-user-shaped workload, reported against declared SLOs.
//!
//! Sweeps offered load over the [`oltp::service_graph`] graph (edge →
//! cache → replicated app tier → DB primary + read replicas, per-tenant
//! CODOMs domains, work stealing on) driven by the
//! [`oltp::workload`] open-loop generator: bounded-Pareto inter-arrivals,
//! a four-phase diurnal cycle, Zipf hot keys, and (by default) 100 000
//! client sessions multiplexed over the edge's connection-pool lanes.
//! Admission is a host-side token bucket plus the graph's own queue-depth
//! and app-depth sheds; requests over capacity are *shed*, not queued
//! forever — so tail latency stays measurable at every point.
//!
//! A final **chaos** row re-runs the middle load point with transient
//! fault injection armed and an app replica killed mid-window, measuring
//! graceful degradation (bucket + replica fail-over keep goodput up).
//!
//! Fully deterministic: the same binary regenerates
//! `results/BENCH_prod.json` byte for byte. The `PROD_SESSIONS` and
//! `PROD_WINDOW_MS` knobs shrink the run for CI smoke; the committed JSON
//! uses the defaults.

use oltp::service_graph::{build, ProdParams, ProdRun, ProdStack, RunOpts};
use oltp::workload::{OpenLoop, TokenBucket, WorkloadCfg};
use simfault::{FaultPlan, Site, Trigger};

const SEED: u64 = 0xD1FC_0800;
const BUCKET_RATE: u64 = 750_000;
const BUCKET_BURST: u64 = 2_000;
/// Offered-load sweep points, arrivals per simulated second; the chaos row
/// re-runs the middle one.
const RATES: [u64; 3] = [350_000, 650_000, 950_000];

fn workload(sessions: u64, rate: u64, window_ns: u64) -> OpenLoop {
    let mut cfg = WorkloadCfg::production(SEED, rate as f64, window_ns);
    cfg.sessions = sessions;
    OpenLoop::new(cfg)
}

fn run_point(pp: &ProdParams, sessions: u64, rate: u64, window_ns: u64) -> ProdRun {
    let mut s = build(pp);
    let mut gen = workload(sessions, rate, window_ns);
    let mut tb = TokenBucket::new(BUCKET_RATE, BUCKET_BURST);
    s.run_open_loop(&mut gen, &mut tb, &RunOpts::default())
}

fn row(tag: &str, pp: &ProdParams, r: &ProdRun) {
    let slo = if pp.slo.met(r.p50_us, r.p99_us, r.p999_us) { "met" } else { "MISSED" };
    println!(
        "{tag:>9}: offered {:>7}  completed {:>7}  {:>9.0}/s  p50 {:>7.1} us  \
         p99 {:>8.1} us  p999 {:>8.1} us  slo {slo}",
        r.offered, r.completed, r.throughput_per_s, r.p50_us, r.p99_us, r.p999_us
    );
}

/// The fields shared by sweep points and the chaos row, without braces so
/// the chaos object can prepend its own fields.
fn point_body(rate: u64, pp: &ProdParams, r: &ProdRun) -> String {
    let total_cache = (r.guest.cache_hits + r.guest.cache_misses).max(1);
    format!(
        "      \"rate_per_s\": {rate},\n      \"offered\": {},\n      \
         \"admitted\": {},\n      \"completed\": {},\n      \
         \"shed\": {{ \"bucket\": {}, \"ring\": {}, \"queue\": {}, \"app\": {} }},\n      \
         \"failed\": {},\n      \"throughput_per_s\": {:.1},\n      \
         \"goodput_frac\": {:.4},\n      \"p50_us\": {:.3},\n      \"p99_us\": {:.3},\n      \
         \"p999_us\": {:.3},\n      \"slo_met\": {},\n      \"samples\": {},\n      \
         \"cache_hit_frac\": {:.4},\n      \"tenant_touches\": {}\n",
        r.offered,
        r.admitted,
        r.completed,
        r.shed_bucket,
        r.shed_ring,
        r.guest.shed_queue,
        r.guest.shed_app,
        r.guest.failed,
        r.throughput_per_s,
        r.goodput_frac(),
        r.p50_us,
        r.p99_us,
        r.p999_us,
        pp.slo.met(r.p50_us, r.p99_us, r.p999_us),
        r.samples,
        r.guest.cache_hits as f64 / total_cache as f64,
        r.tenant_touches,
    )
}

/// The chaos variant: transient faults at every site plus an app-replica
/// kill mid-window. The plan is armed after the graph is built (pids are
/// assigned at build time), exactly like the `chaos` bench.
fn run_chaos(pp: &ProdParams, sessions: u64, rate: u64, window_ns: u64) -> (ProdRun, u64) {
    let mut s: ProdStack = build(pp);
    let victim = s.pid("app1");
    // Mid-window in virtual time, whatever the window (CI smoke shrinks it).
    let kill_at =
        s.sys.k.now_max() + s.sys.k.cost.cycles_from_ns(100_000.0 + window_ns as f64 / 2.0);
    let plan = FaultPlan::new(0xD1FC_0801)
        .rate(Site::Revoke, 0.0002)
        .rate(Site::SysErr, 0.02)
        .rate(Site::IpiDelay, 0.01)
        .rate(Site::SpuriousWake, 0.005)
        .at(kill_at, Trigger::KillProcess { pid: victim.0 });
    simfault::arm(plan);
    let mut gen = workload(sessions, rate, window_ns);
    let mut tb = TokenBucket::new(BUCKET_RATE, BUCKET_BURST);
    let r = s.run_open_loop(&mut gen, &mut tb, &RunOpts::default());
    simfault::disarm();
    assert!(!s.sys.k.procs[&victim].alive, "the kill trigger must have fired");
    (r, kill_at)
}

fn main() {
    bench::banner("prod - open-loop service graph vs tail-latency SLOs");
    let sessions = bench::knob("PROD_SESSIONS", 100_000);
    let window_ns = bench::knob("PROD_WINDOW_MS", 300) * 1_000_000;

    let pp = ProdParams::production();
    println!(
        "graph: {} edge lanes -> cache -> {} app replicas -> 1+{} db, {} tenants, \
         {} cores (steal on)",
        pp.edge_threads, pp.app_replicas, pp.db_replicas, pp.tenants, pp.cores
    );
    println!(
        "workload: {sessions} sessions, Pareto(1.5) gaps, Zipf(0.99) keys, diurnal x4, \
         window {} ms; bucket {BUCKET_RATE}/s burst {BUCKET_BURST}",
        window_ns / 1_000_000
    );
    println!(
        "slo: p50 <= {:.0} us, p99 <= {:.0} us, p999 <= {:.0} us",
        pp.slo.p50_us, pp.slo.p99_us, pp.slo.p999_us
    );

    let mut points = Vec::new();
    for rate in RATES {
        let r = run_point(&pp, sessions, rate, window_ns);
        row(&format!("{}k/s", rate / 1000), &pp, &r);
        points.push((rate, r));
    }

    let chaos_rate = RATES[1];
    let (chaos, kill_at) = run_chaos(&pp, sessions, chaos_rate, window_ns);
    row("chaos", &pp, &chaos);
    let baseline = &points[1].1;
    println!(
        "chaos degradation: goodput {:.1}% -> {:.1}%, failed {}, p99 {:.1} -> {:.1} us",
        baseline.goodput_frac() * 100.0,
        chaos.goodput_frac() * 100.0,
        chaos.guest.failed,
        baseline.p99_us,
        chaos.p99_us
    );

    let mut points_json = String::new();
    for (i, (rate, r)) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        points_json.push_str(&format!("    {{\n{}    }}{sep}\n", point_body(*rate, &pp, r)));
    }
    let json = format!(
        "{{\n  \"bench\": \"prod\",\n  \"sessions\": {sessions},\n  \"window_ms\": {},\n  \
         \"graph\": {{\n    \"edge_threads\": {},\n    \"app_replicas\": {},\n    \
         \"db_replicas\": {},\n    \"tenants\": {},\n    \"cores\": {},\n    \
         \"steal\": true,\n    \"ring_cap\": {}\n  }},\n  \"workload\": {{\n    \
         \"pareto_alpha\": 1.5,\n    \"pareto_bound\": 1000,\n    \"zipf_s\": 0.99,\n    \
         \"diurnal_mults\": [0.6, 1.6, 0.8, 1.0]\n  }},\n  \"admission\": {{\n    \
         \"bucket_rate_per_s\": {BUCKET_RATE},\n    \"bucket_burst\": {BUCKET_BURST}\n  }},\n  \
         \"slo\": {{ \"p50_us\": {:.0}, \"p99_us\": {:.0}, \"p999_us\": {:.0} }},\n  \
         \"points\": [\n{points_json}  ],\n  \"chaos\": {{\n      \
         \"kill_at_cycles\": {kill_at},\n      \"killed\": \"app1\",\n{}  }}\n}}\n",
        window_ns / 1_000_000,
        pp.edge_threads,
        pp.app_replicas,
        pp.db_replicas,
        pp.tenants,
        pp.cores,
        pp.ring_cap,
        pp.slo.p50_us,
        pp.slo.p99_us,
        pp.slo.p999_us,
        point_body(chaos_rate, &pp, &chaos),
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_prod.json", &json).expect("write results/BENCH_prod.json");
    println!("wrote results/BENCH_prod.json");
    bench::finish();
}
