//! Plugin sandbox benchmark: N untrusted plugins behind dIPC domains with
//! a syscall filter-proxy, vs the conventional process-per-plugin pipe
//! sandbox.
//!
//! Both configurations run the same crossing-heavy traffic: the host
//! round-trips every plugin once per iteration, and each plugin tick
//! issues one (allowlisted) `GETPID` syscall — through the filter-proxy
//! domain on the dIPC side, through the kernel's pipe + syscall path on
//! the baseline side. The dIPC side additionally pays the full
//! untrusted-load pipeline up front (signed-blob verification, map-time
//! grant enforcement, sandboxing).
//!
//! A second, small dIPC run plants one hostile (wild-store) plugin to
//! demonstrate the violation path end to end: kill, `DIPC_ERR_FAULT` at
//! the host, re-verified reload — numbers the JSON records so CI notices
//! if the recovery contract drifts.
//!
//! Knobs: `PLUGIN_OPS`, `BENCH_SCALE`.
//! Emits `results/BENCH_plugins.json`; deterministic bit for bit.

use plugins::images::PluginKind;
use plugins::world::PluginWorld;
use plugins::{baseline, PluginParams, CMD_BENIGN};

fn main() {
    bench::banner("plugins - sandboxed plugin domains: dIPC vs process-per-plugin");
    let scale = bench::scale();
    let d = PluginParams::default();
    let p = PluginParams { ops: bench::knob("PLUGIN_OPS", d.ops) * scale, ..d };
    println!("workload: {} plugins, {} host iterations, {} cpus", p.n, p.ops, p.cpus);

    // dIPC: checked loading + filter-proxied syscalls, proxy crossings.
    let kinds = vec![PluginKind::Benign; p.n];
    let mut pw = PluginWorld::build(&p, &kinds).expect("benign plugins load");
    let t0 = pw.world.sys.k.now_max();
    pw.start(p.ops);
    pw.world.sys.run_until(|s| s.k.live_threads == 0);
    let t1 = pw.world.sys.k.now_max();
    let (ok, err): (u64, u64) = (0..p.n).fold((0, 0), |(o, e), i| (o + pw.ok(i), e + pw.err(i)));
    assert_eq!(ok, p.ops * p.n as u64, "every benign tick succeeds");
    assert_eq!(err, 0, "no faults in the benign run");
    let dipc_ops = ok;
    let dipc_ns = (t1 - t0) as f64 / dipc_ops as f64;
    println!(
        "{:>10}: {:>7} ops  {:>8.1} ns/op  ({} load attempts)",
        "dipc", dipc_ops, dipc_ns, pw.load_attempts
    );

    // Baseline: one pipe-sandboxed process per plugin.
    let bl = baseline::bench_proc_per_plugin(p.n, p.ops);
    println!("{:>10}: {:>7} ops  {:>8.1} ns/op", "proc", bl.ops, bl.per_op_ns);
    let speedup = bl.per_op_ns / dipc_ns;
    println!("dIPC plugin call is {speedup:.2}x faster than the pipe sandbox");

    // Violation demo: one wild-store plugin among benign peers.
    let mut kinds = vec![PluginKind::Benign; p.n.max(2)];
    kinds[1] = PluginKind::WildStore;
    let mut hw = PluginWorld::build(&p, &kinds).expect("hostile world loads");
    let secret = hw.secret_addr();
    hw.set_cmd(1, secret, 0xBAD); // tick 1 wild-stores at the host's secret
    hw.start(8);
    hw.world.sys.run_until(|s| s.k.live_threads == 0);
    let killed = !hw.plug_alive(1);
    let host_ok = hw.host_alive() || hw.ok(0) == 8;
    let faults = hw.err(1);
    hw.set_cmd(1, CMD_BENIGN, 0);
    let reloaded = hw.reload_plugin(1).is_ok();
    println!(
        "violation: plugin killed={killed} host_survived={host_ok} \
         faults_at_host={faults} reloaded={reloaded}"
    );
    assert!(killed && host_ok && faults >= 1 && reloaded, "recovery contract");

    let json = format!(
        "{{\n  \"bench\": \"plugins\",\n  \"scale\": {scale},\n  \"config\": {{\n    \
         \"plugins\": {},\n    \"host_iters\": {},\n    \"cpus\": {},\n    \
         \"key\": \"{:#x}\"\n  }},\n  \"dipc\": {{\n    \"ops\": {},\n    \
         \"per_op_ns\": {:.1},\n    \"load_attempts\": {},\n    \"faults\": 0\n  }},\n  \
         \"proc_baseline\": {{\n    \"ops\": {},\n    \"per_op_ns\": {:.1}\n  }},\n  \
         \"speedup\": {:.4},\n  \"violation\": {{\n    \"plugin_killed\": {},\n    \
         \"host_survived\": {},\n    \"faults_at_host\": {},\n    \
         \"reloaded\": {}\n  }}\n}}\n",
        p.n,
        p.ops,
        p.cpus,
        p.key,
        dipc_ops,
        dipc_ns,
        pw.load_attempts,
        bl.ops,
        bl.per_op_ns,
        speedup,
        killed,
        host_ok,
        faults,
        reloaded
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_plugins.json", &json).expect("write results/BENCH_plugins.json");
    println!("wrote results/BENCH_plugins.json");
    bench::finish();
}
