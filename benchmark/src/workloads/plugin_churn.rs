//! `plugin-churn`: cycles of load → violate → kill → reclaim → reload →
//! drop over a world of eight sandboxed plugins, one of them hostile.
//!
//! Where the other workloads sit in steady state, this one lives on the
//! write/invalidate side of the same layers: signed-blob checking, map and
//! unmap with generation bumps, proxy generation, `kill_process` reclaim,
//! code-epoch bumps and cold block/icache/dcache fills. A cache that speeds
//! the steady-state workloads but costs more to build or to invalidate shows
//! here.
//!
//! The seed picks the signing key, which slot holds the hostile plugin, and
//! how many of the cycles (0–7) run one host-loop iteration more than the
//! rest, which stretches the region by well under 1 %.

use std::time::Instant;

use plugins::images::PluginKind;
use plugins::world::PluginWorld;
use plugins::{PluginParams, CMD_BENIGN};

use super::{begin, count_region, count_steps, drive, end, snap, step_mark, Cfg, Round, Sim, Snap};
use crate::spans::Tracer;

const PLUGINS: usize = 8;
/// Host-loop iterations per cycle; each calls every plugin once.
const ITERS: u64 = 8;
/// Cycles in the measured region of one round.
const CYCLES: u64 = 300;

/// Totals over the cycles of a region.
#[derive(Default)]
struct Tally {
    calls: u64,
    ok: u64,
    sim_ns: f64,
    load_attempts: u64,
    counters: Snap,
    build_s: f64,
    run_s: f64,
    kill_us: Vec<f64>,
    reload_us: Vec<f64>,
}

/// Runs the world to quiescence. Traced, the step in which the hostile plugin
/// dies — the violation → kill → reclaim path — gets its own span, and its
/// host microseconds are returned.
fn run_to_quiescence(
    pw: &mut PluginWorld,
    wild: usize,
    tr: &mut Option<&mut Tracer>,
) -> Option<f64> {
    let pid = pw.plug_pid(wild);
    let mut kill_us = None;
    drive(
        &mut pw.world.sys,
        tr,
        |s| s.k.live_threads == 0,
        |s, ns| {
            (kill_us.is_none() && !s.k.procs[&pid].alive).then(|| {
                kill_us = Some(ns as f64 / 1e3);
                ("step.kill_reclaim", "dipc")
            })
        },
    );
    kill_us
}

/// One cycle, up to and including the reload; the caller drops the world.
fn cycle(
    p: &PluginParams,
    wild: usize,
    iters: u64,
    tally: &mut Tally,
    sim: &mut Sim,
    tr: &mut Option<&mut Tracer>,
) -> PluginWorld {
    let mut kinds = vec![PluginKind::Benign; PLUGINS];
    kinds[wild] = PluginKind::WildStore;

    let t0 = Instant::now();
    begin(tr, "plugins.build", "plugins");
    let mut pw = PluginWorld::build(p, &kinds).expect("signed plugins load");
    end(tr);
    tally.build_s += t0.elapsed().as_secs_f64();

    // The hostile plugin stores through a pointer to the host's secret.
    let secret = pw.secret_addr();
    pw.set_cmd(wild, secret, 0xBAD);
    let c0 = pw.world.sys.k.now_max();
    pw.start(iters);
    let t1 = Instant::now();
    begin(tr, "plugins.run", "harness");
    if let Some(us) = run_to_quiescence(&mut pw, wild, tr) {
        tally.kill_us.push(us);
    }
    end(tr);
    tally.run_s += t1.elapsed().as_secs_f64();
    tally.sim_ns += pw.world.sys.k.cost.ns(pw.world.sys.k.now_max() - c0);

    for i in 0..PLUGINS {
        tally.calls += pw.ok(i) + pw.err(i);
        tally.ok += pw.ok(i);
        if i != wild {
            sim.expect(pw.err(i) == 0, || format!("benign plugin {i} saw {} faults", pw.err(i)));
            sim.expect(pw.plug_alive(i), || format!("benign plugin {i} died"));
        }
    }
    let killed = (0..PLUGINS).filter(|&i| !pw.plug_alive(i)).count();
    sim.expect(killed == 1 && !pw.plug_alive(wild), || {
        format!("{killed} plugins killed, expected exactly the hostile one")
    });
    sim.expect(pw.err(wild) >= 1, || "the violation did not surface at the host".into());
    sim.expect(pw.host_alive() || pw.ok((wild + 1) % PLUGINS) == iters, || {
        "the host did not survive the violation".into()
    });

    pw.set_cmd(wild, CMD_BENIGN, 0);
    let t2 = Instant::now();
    begin(tr, "plugins.reload", "dipc");
    let reloaded = pw.reload_plugin(wild);
    end(tr);
    tally.reload_us.push(t2.elapsed().as_secs_f64() * 1e6);
    sim.expect(reloaded.is_ok() && pw.plug_alive(wild), || format!("reload failed: {reloaded:?}"));
    tally.load_attempts += pw.load_attempts;
    // Every world starts its counters at zero, so its final snapshot is its
    // whole life.
    tally.counters = tally.counters.plus(&snap(&pw.world.sys));
    pw
}

pub fn round(cfg: &Cfg, mut tr: Option<&mut Tracer>) -> Round {
    let cycles = if cfg.smoke { 4 } else { CYCLES };
    let p = PluginParams {
        n: PLUGINS,
        ops: ITERS,
        key: 0xD1FC_5EED ^ cfg.pick(2, 1 << 32),
        ..PluginParams::default()
    };
    let wild = 1 + cfg.pick(3, PLUGINS as u64 - 1) as usize;
    let long_cycles = cfg.pick(5, 8);

    // Set-up is one unmeasured cycle: it pays the allocator's growth and the
    // first-touch costs every later cycle reuses.
    let t0 = Instant::now();
    begin(&mut tr, "plugins.warmup_cycle", "harness");
    drop(cycle(&p, wild, ITERS, &mut Tally::default(), &mut Sim::default(), &mut tr));
    end(&mut tr);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut sim = Sim::default();
    let mut tally = Tally::default();
    let mut host = Vec::new();
    let mark = tr.as_deref().map(step_mark);
    let mut parts_s = Vec::with_capacity(cycles as usize);
    let t1 = Instant::now();
    begin(&mut tr, "plugins.measure", "harness");
    for c in 0..cycles {
        let t = Instant::now();
        let iters = ITERS + u64::from(c < long_cycles);
        let pw = cycle(&p, wild, iters, &mut tally, &mut sim, &mut tr);
        if c + 1 == cycles {
            let (zero, all) = (Snap::default(), tally.counters);
            count_region(&mut sim, &mut host, &pw.world.sys, &zero, &all, tally.ok);
        }
        begin(&mut tr, "plugins.drop", "simmem");
        drop(pw);
        end(&mut tr);
        parts_s.push(t.elapsed().as_secs_f64());
    }
    end(&mut tr);
    let wall_s = t1.elapsed().as_secs_f64();

    sim.attempted = tally.calls;
    sim.failed = sim.problems.len() as u64;
    sim.sim_s = tally.sim_ns / 1e9;
    sim.ops_per_s = tally.ok as f64 / sim.sim_s;
    sim.lat_us = sim.sim_s * 1e6 / tally.ok.max(1) as f64;
    sim.count("plugins.load_attempts", tally.load_attempts as f64);
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    host.extend([
        ("dipc.build_link_s".to_string(), tally.build_s),
        ("plugins.build_us_per_world".to_string(), tally.build_s * 1e6 / cycles as f64),
        ("plugins.run_share".to_string(), tally.run_s / wall_s),
        ("dipc.reload_us".to_string(), mean(&tally.reload_us)),
    ]);
    // Only a traced round can see the step in which the plugin dies.
    if !tally.kill_us.is_empty() {
        host.push(("dipc.kill_reclaim_us".to_string(), mean(&tally.kill_us)));
    }
    if let (Some(t), Some(m)) = (tr.as_deref(), mark) {
        count_steps(&mut sim, &mut host, t, &m);
    }
    Round { setup_s, wall_s, parts_s, sim, host }
}
