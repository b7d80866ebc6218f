//! Fault-injection (chaos) benchmark: how the dIPC stack behaves when the
//! simulator injects the §5.2.1 fault classes — capability revocation
//! between check and use, transient resolve failures, page-permission
//! flips, IPI loss/delay, spurious wakeups and mid-call process kills.
//!
//! Two scenarios, both fully deterministic (fixed seeds, no host
//! randomness; the same binary reproduces the same JSON bit for bit):
//!
//! * **micro** — a single caller looping over a two-process dIPC call.
//!   Transient faults unwind to the caller as [`dipc::DIPC_ERR_FAULT`];
//!   mid-run the callee process is killed outright, after which every call
//!   must keep failing *fast* (no hangs, caller survives). Reports ok/err
//!   counts, p50/p99 per-op latency under faults and the mean recovery
//!   latency of an unwound call.
//! * **oltp** — the Figure 8 dIPC stack built with injection armed, which
//!   turns on the web tier's bounded retry-with-backoff + shedding.
//!   Reports throughput under faults, requests shed and the survival rate
//!   `ops / (ops + sheds)`.
//!
//! Emits `results/BENCH_chaos.json`.

use cdvm::isa::reg::*;
use cdvm::Instr;
use dipc::{AppSpec, IsoProps, Signature, World, DIPC_ERR_FAULT};
use oltp::async_stack::percentile;
use oltp::{OltpParams, StorageKind};
use simfault::{FaultPlan, Site, Trigger};
use simkernel::KernelConfig;

/// One completed micro operation, as sampled from the guest counters.
struct MicroStats {
    ok: u64,
    err: u64,
    latencies: Vec<u64>,
    err_latencies: Vec<u64>,
    caller_alive: bool,
    injections: u64,
}

/// Builds and runs the micro scenario: `cli` loops calling `srv`'s `echo`
/// entry; faults are injected per `plan` (armed by the caller), and `srv`
/// is killed by a plan trigger mid-run.
fn run_micro(target_ops: u64) -> MicroStats {
    let mut w = World::new(KernelConfig { cpus: 1, ..KernelConfig::default() });
    let sig = Signature::regs(1, 1);

    let srv = AppSpec::new("srv", |a| {
        a.align(64);
        a.label("echo");
        a.push(Instr::Work { rs1: 0, imm: 200 });
        a.push(Instr::Add { rd: A0, rs1: A0, rs2: A0 });
        a.push(Instr::Jalr { rd: ZERO, rs1: RA, imm: 0 });
    })
    .export("echo", sig, IsoProps::STACK_CONF | IsoProps::REG_INTEGRITY);
    w.build(srv);

    let cli = AppSpec::new("cli", |a| {
        a.label("cli_main");
        a.li_sym(S1, "$data_counters");
        a.li(S3, 0);
        a.label("cli_loop");
        a.push(Instr::Add { rd: A0, rs1: S3, rs2: ZERO });
        a.jal(RA, "call_srv_echo");
        a.li(T0, DIPC_ERR_FAULT);
        a.beq(A0, T0, "cli_err");
        a.push(Instr::Ld { rd: T1, rs1: S1, imm: 0 });
        a.push(Instr::Addi { rd: T1, rs1: T1, imm: 1 });
        a.push(Instr::St { rs1: S1, rs2: T1, imm: 0 });
        a.j("cli_next");
        a.label("cli_err");
        a.push(Instr::Ld { rd: T1, rs1: S1, imm: 8 });
        a.push(Instr::Addi { rd: T1, rs1: T1, imm: 1 });
        a.push(Instr::St { rs1: S1, rs2: T1, imm: 8 });
        a.label("cli_next");
        a.push(Instr::Addi { rd: S3, rs1: S3, imm: 1 });
        a.j("cli_loop");
    })
    .import_live("srv", "echo", sig, IsoProps::LOW, &[S1, S3])
    .data("counters", 64);
    w.build(cli);
    w.link();

    let srv_pid = w.app("srv").pid;
    let counters = w.app("cli").data["counters"];

    // Transient revoke + resolve faults from the start; kill the server
    // outright once the run is warmed up. Fixed seed = reproducible JSON.
    let plan = FaultPlan::new(0xD1FC_0001)
        .rate(Site::Revoke, 0.002)
        .rate(Site::SysErr, 0.25)
        .at(1_000_000, Trigger::KillProcess { pid: srv_pid.0 });
    simfault::arm(plan);

    w.spawn("cli", "cli_main", &[]);
    let mut s = w.sys;
    let pt = simmem::Memory::GLOBAL_PT;

    let mut latencies = Vec::new();
    let mut err_latencies = Vec::new();
    let (mut last_ok, mut last_err) = (0u64, 0u64);
    let mut last_ts = 0u64;
    let budget = 20_000_000u64;
    s.run_until(|s| {
        let now = s.k.now_max();
        let ok = s.k.mem.kread_u64(pt, counters).unwrap_or(0);
        let err = s.k.mem.kread_u64(pt, counters + 8).unwrap_or(0);
        if ok != last_ok || err != last_err {
            let done = (ok - last_ok) + (err - last_err);
            let per = (now - last_ts) / done.max(1);
            for _ in 0..(ok - last_ok) {
                latencies.push(per);
            }
            for _ in 0..(err - last_err) {
                err_latencies.push(per);
            }
            last_ok = ok;
            last_err = err;
            last_ts = now;
        }
        ok + err >= target_ops || now >= budget
    });

    let ok = s.k.mem.kread_u64(pt, counters).unwrap_or(0);
    let err = s.k.mem.kread_u64(pt, counters + 8).unwrap_or(0);
    let cli_pid = s.k.procs.keys().copied().max_by_key(|p| p.0).expect("cli exists");
    let caller_alive = s.k.procs[&cli_pid].alive;
    let injections = simfault::injections();
    simfault::disarm();
    latencies.sort_unstable();
    MicroStats { ok, err, latencies, err_latencies, caller_alive, injections }
}

/// Runs the Figure 8 dIPC stack with transient faults armed (which also
/// switches the web tier to retry + shed). Late in the run the PHP process
/// is killed outright, so the tail of the measurement exercises the web
/// tier's retry-then-shed path against a permanently dead callee. Returns
/// (ops, sheds, survival, avg latency ms, injections).
fn run_oltp(measure_ms: u64) -> (u64, u64, f64, f64, u64) {
    let plan = FaultPlan::new(0xD1FC_0002)
        .rate(Site::Revoke, 0.0005)
        .rate(Site::SysErr, 0.05)
        .rate(Site::IpiDelay, 0.02)
        .rate(Site::SpuriousWake, 0.01);
    simfault::arm(plan);
    let p = OltpParams::with(8, StorageKind::InMemory);
    let mut s = oltp::dipc_stack::build(&p);
    // Kill PHP three quarters of the way through the measurement window
    // (the plan is re-armed because the pid is only known after build).
    let cost = s.sys.k.cost.clone();
    let warm = cost.cycles_from_ns(10.0 * 1e6);
    let kill_at = warm + cost.cycles_from_ns(measure_ms as f64 * 1e6 * 3.0 / 4.0);
    let php_pid = s
        .sys
        .k
        .procs
        .iter()
        .find(|(_, p)| p.name == "php")
        .map(|(pid, _)| pid.0)
        .expect("php process exists");
    let plan = FaultPlan::new(0xD1FC_0002)
        .rate(Site::Revoke, 0.0005)
        .rate(Site::SysErr, 0.05)
        .rate(Site::IpiDelay, 0.02)
        .rate(Site::SpuriousWake, 0.01)
        .at(kill_at, Trigger::KillProcess { pid: php_pid });
    simfault::arm(plan);
    let r = s.run(10, measure_ms, p.concurrency);
    let sheds = s.sum_sheds();
    let injections = simfault::injections();
    simfault::disarm();
    let survival = r.ops as f64 / (r.ops + sheds).max(1) as f64;
    (r.ops, sheds, survival, r.avg_latency_ms, injections)
}

fn main() {
    bench::banner("chaos - dIPC behaviour under deterministic fault injection");
    let scale = bench::scale();

    let micro = run_micro(3_000 * scale);
    let survived = if micro.caller_alive { "yes" } else { "NO" };
    let p50 = percentile(&micro.latencies, 0.50);
    let p99 = percentile(&micro.latencies, 0.99);
    let recovery = if micro.err_latencies.is_empty() {
        0
    } else {
        micro.err_latencies.iter().sum::<u64>() / micro.err_latencies.len() as u64
    };
    println!("micro: ok={} err={} injections={}", micro.ok, micro.err, micro.injections);
    println!("micro: p50={p50} p99={p99} cycles/op, recovery={recovery} cycles, caller alive: {survived}");

    let (ops, sheds, survival, lat_ms, oltp_inj) = run_oltp(40 * scale);
    println!(
        "oltp:  ops={ops} sheds={sheds} survival={:.4} avg_latency={lat_ms:.3} ms injections={oltp_inj}",
        survival
    );

    let json = format!(
        "{{\n  \"bench\": \"chaos\",\n  \"scale\": {scale},\n  \"micro\": {{\n    \
         \"ok_ops\": {},\n    \"err_ops\": {},\n    \"injections\": {},\n    \
         \"caller_survived\": {},\n    \"latency_p50_cycles\": {p50},\n    \
         \"latency_p99_cycles\": {p99},\n    \"recovery_latency_cycles\": {recovery}\n  }},\n  \
         \"oltp\": {{\n    \"ops\": {ops},\n    \"sheds\": {sheds},\n    \
         \"survival_rate\": {survival:.6},\n    \"avg_latency_ms\": {lat_ms:.4},\n    \
         \"injections\": {oltp_inj}\n  }}\n}}\n",
        micro.ok, micro.err, micro.injections, micro.caller_alive
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_chaos.json", &json).expect("write results/BENCH_chaos.json");
    println!("wrote results/BENCH_chaos.json");
    bench::finish();
}
