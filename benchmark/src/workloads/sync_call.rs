//! `sync-call`: the Figure 5 primitive set — function call, null syscall,
//! dIPC Low/High within and across processes, semaphores, pipes, L4-style
//! IPC and local RPC on the same and on another CPU, and dIPC user-level RPC
//! — closed loop, one caller per row, at a multiple of `fig5`'s iteration
//! counts.
//!
//! Each row is one public `baselines::bench_*` call, which builds its own
//! simulated system, warms it up, measures, and drops it. The harness
//! therefore sees each row's simulated latency and host time but not its
//! simulated CPUs: guest-instruction counts and cache counters do not exist
//! for this workload.
//!
//! The rows are deterministic. The seed stretches every row's iteration
//! count by the same 0–0.7 %, so no two seeds time exactly the same region
//! while the mix of rows stays fixed.

use std::time::Instant;

use baselines::{dipcbench, l4, micro, pipe, rpc, sem, BenchResult, Placement};
use dipc::IsoProps;

use super::{begin, end, Cfg, Round, Sim};
use crate::schema::PRIMITIVES;
use crate::spans::Tracer;

struct Row {
    key: &'static str,
    /// `fig5`'s iteration count at `BENCH_SCALE=1`.
    iters: u64,
    run: fn(u64) -> BenchResult,
}

const ROWS: [Row; 15] = [
    Row { key: "func", iters: 20_000, run: |n| micro::bench_function_call(n, 0) },
    Row { key: "syscall", iters: 5_000, run: micro::bench_syscall },
    Row {
        key: "dipc_low",
        iters: 2_000,
        run: |n| dipcbench::bench_dipc(n, IsoProps::LOW, false, 0),
    },
    Row {
        key: "dipc_high",
        iters: 2_000,
        run: |n| dipcbench::bench_dipc(n, IsoProps::HIGH, false, 0),
    },
    Row { key: "sem_same", iters: 300, run: |n| sem::bench_sem(n, Placement::SameCpu, 1) },
    Row { key: "sem_cross", iters: 300, run: |n| sem::bench_sem(n, Placement::CrossCpu, 1) },
    Row { key: "pipe_same", iters: 300, run: |n| pipe::bench_pipe(n, Placement::SameCpu, 1) },
    Row { key: "pipe_cross", iters: 300, run: |n| pipe::bench_pipe(n, Placement::CrossCpu, 1) },
    Row { key: "l4_same", iters: 300, run: |n| l4::bench_l4(n, Placement::SameCpu) },
    Row { key: "l4_cross", iters: 300, run: |n| l4::bench_l4(n, Placement::CrossCpu) },
    Row {
        key: "dipc_proc_low",
        iters: 2_000,
        run: |n| dipcbench::bench_dipc(n, IsoProps::LOW, true, 1),
    },
    Row {
        key: "dipc_proc_high",
        iters: 2_000,
        run: |n| dipcbench::bench_dipc(n, IsoProps::HIGH, true, 1),
    },
    Row { key: "rpc_same", iters: 300, run: |n| rpc::bench_rpc(n, Placement::SameCpu, 1) },
    Row { key: "rpc_cross", iters: 300, run: |n| rpc::bench_rpc(n, Placement::CrossCpu, 1) },
    Row { key: "user_rpc", iters: 300, run: |n| dipcbench::bench_dipc_user_rpc(n, 64) },
];

/// Multiple of `fig5`'s iteration counts in one measured pass.
const SCALE: u64 = 20;
/// Iterations per row of the set-up pass: the smallest the rows accept, so
/// its cost is building, linking and spawning the fifteen systems.
const SETUP_ITERS: u64 = 8;

/// The paper's four Figure 5 headline ratios: (numerator row, denominator
/// row, published ratio).
const HEADLINES: [(&str, &str, f64); 4] = [
    ("rpc_same", "dipc_proc_high", 64.12),
    ("l4_same", "dipc_proc_high", 8.87),
    ("sem_same", "dipc_proc_high", 14.16),
    ("rpc_same", "dipc_proc_low", 120.67),
];

/// Latency must rise along this chain, as it does in the paper.
const ORDER: [&str; 5] = ["func", "dipc_low", "dipc_high", "sem_same", "rpc_same"];

pub fn round(cfg: &Cfg, mut tr: Option<&mut Tracer>) -> Round {
    let scale = if cfg.smoke { 1 } else { SCALE };
    let stretch = 1024 + cfg.pick(4, 8);

    let t0 = Instant::now();
    begin(&mut tr, "sync.setup_pass", "harness");
    for row in &ROWS {
        (row.run)(SETUP_ITERS);
    }
    end(&mut tr);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut sim = Sim::default();
    let mut host = Vec::new();
    let mut ns = Vec::with_capacity(ROWS.len());
    let mut parts_s = Vec::with_capacity(ROWS.len());
    let (mut iters_sum, mut sim_ns_sum) = (0u64, 0.0f64);
    let t1 = Instant::now();
    begin(&mut tr, "sync.measure", "harness");
    for row in &ROWS {
        let iters = row.iters * scale * stretch / 1024;
        let t = Instant::now();
        begin(&mut tr, row.key, "baselines");
        let r = (row.run)(iters);
        end(&mut tr);
        let host_s = t.elapsed().as_secs_f64();
        parts_s.push(host_s);
        sim.expect(r.per_op_ns.is_finite() && r.per_op_ns > 0.0 && r.iters >= iters, || {
            format!("{}: {} ns/op over {} of {iters} iterations", row.key, r.per_op_ns, r.iters)
        });
        iters_sum += r.iters;
        sim_ns_sum += r.per_op_ns * r.iters as f64;
        ns.push((row.key, r.per_op_ns));
        if PRIMITIVES.contains(&row.key) {
            sim.count(format!("baselines.sim_ns.{}", row.key), r.per_op_ns);
            host.push((format!("baselines.host_s.{}", row.key), host_s));
        }
    }
    end(&mut tr);
    let wall_s = t1.elapsed().as_secs_f64();

    let of = |key: &str| ns.iter().find(|(k, _)| *k == key).expect("row exists").1;
    for pair in ORDER.windows(2) {
        sim.expect(of(pair[0]) < of(pair[1]), || {
            format!(
                "{} ({} ns) is not faster than {} ({} ns)",
                pair[0],
                of(pair[0]),
                pair[1],
                of(pair[1])
            )
        });
    }
    let err =
        HEADLINES.iter().map(|&(n, d, paper)| (of(n) / of(d) / paper).ln().abs()).sum::<f64>()
            / HEADLINES.len() as f64;
    sim.count("baselines.paper_err_frac", err);

    sim.attempted = iters_sum;
    sim.failed = sim.problems.len() as u64;
    sim.sim_s = sim_ns_sum / 1e9;
    sim.ops_per_s = iters_sum as f64 / sim.sim_s;
    // Each primitive counts once, as in the figure.
    sim.lat_us = ns.iter().map(|(_, v)| v).sum::<f64>() / ns.len() as f64 / 1e3;
    Round { setup_s, wall_s, parts_s, sim, host }
}
