//! `oltp-linux` and `oltp-dipc`: the Figure 8 in-memory point at 256 clients
//! per tier on 4 simulated cores, closed loop, through sockets or through
//! dIPC proxies. Both run the same requests over the same simulated window,
//! so together they regenerate the paper's speedup.
//!
//! The workload is deterministic. The seed moves the moment the measured
//! window opens (0–7 ms more warm-up), the one input that can change without
//! changing what is being measured.

use std::time::Instant;

use oltp::{dipc_stack, linux_stack, OltpParams, Stack, StorageKind};

use super::{begin, count_region, count_steps, drive, end, snap, step_mark, Cfg, Round, Sim};
use crate::spans::Tracer;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    Linux,
    Dipc,
}

pub const CLIENTS: u64 = 256;
const WARM_MS: u64 = 600;
/// Simulated window of one round, identical on both stacks. About a second
/// of host time on the slower (Linux) stack.
const MEASURE_MS: u64 = 1_000;

fn ops_done(st: &Stack) -> u64 {
    let (pt, base) = st.counters;
    (0..st.slots).map(|i| st.sys.k.mem.kread_u64(pt, base + i * 8).unwrap_or(0)).sum()
}

/// The measured window is timed in this many consecutive slices, a few host
/// milliseconds each: short enough that over the rounds of a run every slice
/// runs undisturbed at least once, even while the machine is mostly slow.
const SLICES: u64 = 100;

/// Runs `ms` simulated milliseconds from now, the way `Stack::run` does, in
/// `slices` consecutive slices (stopping at a slice boundary does not change
/// which steps run). Returns the host seconds of each slice.
fn advance(st: &mut Stack, ms: u64, slices: u64, tr: &mut Option<&mut Tracer>) -> Vec<f64> {
    let start = st.sys.k.now_max();
    let total = st.sys.k.cost.cycles_from_ns(ms as f64 * 1e6);
    (1..=slices)
        .map(|k| {
            let target = start + total * k / slices;
            let t = Instant::now();
            drive(&mut st.sys, tr, |s| s.k.now_max() >= target, |_, _| None);
            t.elapsed().as_secs_f64()
        })
        .collect()
}

pub fn round(flavor: Flavor, cfg: &Cfg, mut tr: Option<&mut Tracer>) -> Round {
    let (clients, warm_ms, measure_ms) =
        if cfg.smoke { (16, 40, 60) } else { (CLIENTS, WARM_MS, MEASURE_MS) };
    let warm_ms = warm_ms + cfg.pick(1, 8);
    let p = OltpParams::with(clients, StorageKind::InMemory);
    let mut host = Vec::new();

    let t0 = Instant::now();
    begin(&mut tr, "oltp.build", "dipc");
    let mut st = match flavor {
        Flavor::Linux => linux_stack::build(&p),
        Flavor::Dipc => dipc_stack::build(&p),
    };
    end(&mut tr);
    host.push(("dipc.build_link_s".to_string(), t0.elapsed().as_secs_f64()));
    begin(&mut tr, "oltp.warmup", "harness");
    advance(&mut st, warm_ms, 1, &mut tr);
    end(&mut tr);
    let setup_s = t0.elapsed().as_secs_f64();

    let s0 = snap(&st.sys);
    let mark = tr.as_deref().map(step_mark);
    let (ops0, c0) = (ops_done(&st), st.sys.k.now_max());
    let t1 = Instant::now();
    begin(&mut tr, "oltp.measure", "harness");
    let parts_s = advance(&mut st, measure_ms, SLICES, &mut tr);
    end(&mut tr);
    let wall_s = t1.elapsed().as_secs_f64();

    let ops = ops_done(&st) - ops0;
    let sim_s = st.sys.k.cost.ns(st.sys.k.now_max() - c0) / 1e9;
    let mut sim = Sim { attempted: ops, sim_s, ..Sim::default() };
    sim.ops_per_s = ops as f64 / sim_s;
    // Little's law for a closed system: latency = clients / throughput.
    sim.lat_us = clients as f64 / sim.ops_per_s * 1e6;
    sim.expect(ops > 0, || "no operation completed in the window".into());
    sim.expect(st.sum_sheds() == 0, || format!("{} requests shed", st.sum_sheds()));
    let dead = st.sys.k.procs.values().filter(|p| !p.alive).count();
    sim.expect(dead == 0, || format!("{dead} processes died"));
    sim.failed = st.sum_sheds() + dead as u64;
    count_region(&mut sim, &mut host, &st.sys, &s0, &snap(&st.sys), ops);
    if let (Some(t), Some(m)) = (tr.as_deref(), mark) {
        count_steps(&mut sim, &mut host, t, &m);
    }
    Round { setup_s, wall_s, parts_s, sim, host }
}
