//! Deterministic fault-injection sweeps (the simfault acceptance tests).
//!
//! Each test builds the same two-process dIPC world — a caller looping
//! over a cross-process `echo` call, counting successes and unwound calls
//! separately — and runs it under a seed-driven [`simfault::FaultPlan`].
//! The sweeps assert the three recovery invariants of §5.2.1:
//!
//! 1. **No hangs** — every run finishes its operation target well inside a
//!    fixed cycle budget, whatever the seed injects.
//! 2. **Every fault is recovered or surfaced** — the caller stays alive
//!    and every loop iteration ends in either a correct result or the
//!    documented `DIPC_ERR_FAULT` error; killed processes have their
//!    frames reclaimed (no leaks, no double frees).
//! 3. **Bit-identical replay** — the same seed reproduces the same
//!    injection log, the same counters and the same final cycle count;
//!    and an armed plan with all rates at zero is cycle-identical to a
//!    disarmed run.

mod common;

use baselines::asmlib::{sem_post, sem_wait};
use cdvm::isa::reg::*;
use cdvm::{Asm, Instr};
use dipc::{AppSpec, IsoProps, Signature, System, World, DIPC_ERR_FAULT};
use plugins::images::PluginKind;
use plugins::world::PluginWorld;
use plugins::PluginParams;
use simfault::{FaultPlan, Site, Trigger};
use simkernel::kernel::WakePolicy;
use simkernel::KernelConfig;
use simmem::Memory;

/// Cycle budget per run: generous (a clean run needs ~1.5M cycles) but
/// finite, so a hang shows up as a budget overrun, not a wedged test.
const BUDGET: u64 = 40_000_000;
const TARGET_OPS: u64 = 1_500;

struct MicroWorld {
    sys: System,
    counters: u64,
    srv_pid: u64,
    cli_pid: u64,
    secret: u64,
}

/// The caller's dIPC loop: call `echo`, count successes at `counters+0`
/// and `DIPC_ERR_FAULT` returns at `counters+8`.
fn emit_cli_main(a: &mut Asm) {
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
}

/// Builds the caller/callee world. The callee holds a recognisable secret
/// word in its private data region; the caller never legitimately reads it.
fn build_micro() -> MicroWorld {
    let mut w = World::new(KernelConfig { cpus: 1, ..KernelConfig::default() });
    let sig = Signature::regs(1, 1);

    let srv = AppSpec::new("srv", |a| {
        a.align(64);
        a.label("echo");
        a.push(Instr::Work { rs1: 0, imm: 200 });
        a.push(Instr::Add { rd: A0, rs1: A0, rs2: A0 });
        a.push(Instr::Jalr { rd: ZERO, rs1: RA, imm: 0 });
    })
    .export("echo", sig, IsoProps::STACK_CONF | IsoProps::REG_INTEGRITY)
    .data("secret", 64);
    w.build(srv);

    let cli = AppSpec::new("cli", emit_cli_main)
        .import_live("srv", "echo", sig, IsoProps::LOW, &[S1, S3])
        .data("counters", 64);
    w.build(cli);
    w.link();

    let srv_pid = w.app("srv").pid.0;
    let cli_pid = w.app("cli").pid.0;
    let counters = w.app("cli").data["counters"];
    let secret = w.app("srv").data["secret"];
    w.spawn("cli", "cli_main", &[]);
    let mut sys = w.sys;
    sys.k.mem.kwrite_u64(Memory::GLOBAL_PT, secret, 0xDEAD_BEEF_CAFE_F00D).unwrap();
    MicroWorld { sys, counters, srv_pid, cli_pid, secret }
}

struct RunOutcome {
    ok: u64,
    err: u64,
    final_cycles: u64,
    caller_alive: bool,
    injections: u64,
    log: String,
}

/// Runs the world until `TARGET_OPS` operations completed (or the budget
/// ran out, which the sweeps treat as a hang).
fn run_micro(plan: Option<FaultPlan>) -> RunOutcome {
    let mut mw = build_micro();
    if let Some(p) = plan {
        simfault::arm(p);
    }
    let counters = mw.counters;
    mw.sys.run_until(|s| {
        let ok = s.k.mem.kread_u64(Memory::GLOBAL_PT, counters).unwrap_or(0);
        let err = s.k.mem.kread_u64(Memory::GLOBAL_PT, counters + 8).unwrap_or(0);
        ok + err >= TARGET_OPS || s.k.now_max() >= BUDGET
    });
    let ok = mw.sys.k.mem.kread_u64(Memory::GLOBAL_PT, counters).unwrap_or(0);
    let err = mw.sys.k.mem.kread_u64(Memory::GLOBAL_PT, counters + 8).unwrap_or(0);
    let caller_alive = mw.sys.k.procs[&simkernel::Pid(mw.cli_pid)].alive;
    let out = RunOutcome {
        ok,
        err,
        final_cycles: mw.sys.k.now_max(),
        caller_alive,
        injections: simfault::injections(),
        log: simfault::log_render(),
    };
    simfault::disarm();
    out
}

/// A moderately hostile plan for `seed`: transient revokes and resolve
/// failures throughout, plus a mid-run kill of the callee process.
fn hostile_plan(seed: u64, srv_pid: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .rate(Site::Revoke, 0.002)
        .rate(Site::SysErr, 0.25)
        .at(400_000 + seed * 10_000, Trigger::KillProcess { pid: srv_pid })
}

#[test]
fn sixteen_seed_sweep_recovers_every_fault() {
    // The pid layout is identical across builds, so probe it once.
    let srv_pid = build_micro().srv_pid;
    for seed in 0..16 {
        let r = run_micro(Some(hostile_plan(seed, srv_pid)));
        assert!(
            r.ok + r.err >= TARGET_OPS,
            "seed {seed}: hang — only {}+{} ops inside {BUDGET} cycles",
            r.ok,
            r.err
        );
        assert!(r.final_cycles < BUDGET, "seed {seed}: budget exhausted");
        assert!(r.caller_alive, "seed {seed}: caller did not survive injected faults");
        assert!(r.err > 0, "seed {seed}: the callee kill must surface as caller errors");
        assert!(r.injections > 0, "seed {seed}: plan injected nothing");
    }
}

#[test]
fn same_seed_replays_bit_identically() {
    let srv_pid = build_micro().srv_pid;
    for seed in [3u64, 11] {
        let a = run_micro(Some(hostile_plan(seed, srv_pid)));
        let b = run_micro(Some(hostile_plan(seed, srv_pid)));
        assert_eq!(a.log, b.log, "seed {seed}: injection logs diverged");
        assert_eq!(a.final_cycles, b.final_cycles, "seed {seed}: cycle counts diverged");
        assert_eq!((a.ok, a.err), (b.ok, b.err), "seed {seed}: counters diverged");
    }
}

#[test]
fn distinct_seeds_explore_distinct_schedules() {
    let srv_pid = build_micro().srv_pid;
    let a = run_micro(Some(hostile_plan(1, srv_pid)));
    let b = run_micro(Some(hostile_plan(2, srv_pid)));
    assert_ne!(a.log, b.log, "different seeds must inject differently");
}

#[test]
fn armed_zero_rate_plan_is_cycle_identical_to_disarmed() {
    let clean = run_micro(None);
    let zero = run_micro(Some(FaultPlan::new(42)));
    assert_eq!(zero.injections, 0, "a zero-rate plan must not inject");
    assert_eq!(
        clean.final_cycles, zero.final_cycles,
        "fault-injection probes must cost zero simulated cycles"
    );
    assert_eq!((clean.ok, clean.err), (zero.ok, zero.err));
}

#[test]
fn killed_callee_frames_are_reclaimed_and_secret_unreachable() {
    let mut mw = build_micro();
    let counters = mw.counters;
    // Let the call loop warm up, then kill the callee directly.
    mw.sys.run_until(|s| s.k.mem.kread_u64(Memory::GLOBAL_PT, counters).unwrap_or(0) >= 50);
    let live_before = mw.sys.k.mem.phys().live_frames();
    mw.sys.kill_process(simkernel::Pid(mw.srv_pid));
    let live_after = mw.sys.k.mem.phys().live_frames();
    assert!(
        live_after < live_before,
        "reclaim must free the dead callee's frames ({live_before} -> {live_after})"
    );
    // The callee's data pages are unmapped: its secret is gone from the
    // global address space, not just unreferenced.
    assert!(
        mw.sys.k.mem.kread_u64(Memory::GLOBAL_PT, mw.secret).is_err(),
        "dead callee's secret must be unmapped"
    );
    // The caller keeps running and now sees errors, not junk results.
    let err0 = mw.sys.k.mem.kread_u64(Memory::GLOBAL_PT, counters + 8).unwrap_or(0);
    mw.sys.run_until(|s| {
        s.k.mem.kread_u64(Memory::GLOBAL_PT, counters + 8).unwrap_or(0) >= err0 + 20
            || s.k.now_max() >= BUDGET
    });
    let err1 = mw.sys.k.mem.kread_u64(Memory::GLOBAL_PT, counters + 8).unwrap_or(0);
    assert!(err1 >= err0 + 20, "caller must keep failing fast after the callee died");
    assert!(mw.sys.k.procs[&simkernel::Pid(mw.cli_pid)].alive);
}

// ---------------------------------------------------------------------
// SMP chaos: the same recovery invariants on a 4-CPU kernel, with real
// cross-CPU IPI traffic (a futex ping-pong pair spread across CPUs by
// `WakePolicy::Spread`), lost and delayed IPIs, and a process kill whose
// victim's work is in flight on a different CPU than the driver-level
// killer.
// ---------------------------------------------------------------------

struct SmpOutcome {
    ok: u64,
    err: u64,
    rounds: u64,
    final_cycles: u64,
    caller_alive: bool,
    injections: u64,
    log: String,
}

/// Builds the SMP micro world and runs it under `plan`: the dIPC echo
/// caller from [`build_micro`] on one CPU, plus two futex ping-pong
/// threads whose every wake crosses CPUs (Spread policy on a mostly-idle
/// 4-CPU machine sends the wake to a remote idle CPU ⇒ an IPI — the
/// delivery the `IpiLoss`/`IpiDelay` sites sabotage). The pong counter at
/// `counters+16` proves the pair keeps making progress through lost IPIs.
fn run_smp_micro(plan: Option<FaultPlan>) -> SmpOutcome {
    let mut w =
        World::new(KernelConfig { cpus: 4, wake: WakePolicy::Spread, ..KernelConfig::default() });
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
        emit_cli_main(a);
        // Ping-pong pair: role in a0 (0 = ping, 1 = pong), futex words at
        // `$data_futex` + 0 and + 64.
        a.label("pp_main");
        a.li_sym(S0, "$data_futex");
        a.push(Instr::Addi { rd: S2, rs1: S0, imm: 64 });
        a.li_sym(S1, "$data_counters");
        a.bne(A0, ZERO, "pp_pong");
        a.label("pp_ping");
        sem_post(a, S0);
        sem_wait(a, S2, "pp_w1");
        a.push(Instr::Ld { rd: T1, rs1: S1, imm: 16 });
        a.push(Instr::Addi { rd: T1, rs1: T1, imm: 1 });
        a.push(Instr::St { rs1: S1, rs2: T1, imm: 16 });
        a.j("pp_ping");
        a.label("pp_pong");
        sem_wait(a, S0, "pp_w0");
        sem_post(a, S2);
        a.j("pp_pong");
    })
    .import_live("srv", "echo", sig, IsoProps::LOW, &[S1, S3])
    .data("counters", 64)
    .data("futex", 128);
    w.build(cli);
    w.link();

    let cli_pid = w.app("cli").pid.0;
    let counters = w.app("cli").data["counters"];
    w.spawn("cli", "cli_main", &[]);
    w.spawn("cli", "pp_main", &[0]);
    w.spawn("cli", "pp_main", &[1]);
    let mut sys = w.sys;

    if let Some(p) = plan {
        simfault::arm(p);
    }
    sys.run_until(|s| {
        let ok = s.k.mem.kread_u64(Memory::GLOBAL_PT, counters).unwrap_or(0);
        let err = s.k.mem.kread_u64(Memory::GLOBAL_PT, counters + 8).unwrap_or(0);
        ok + err >= TARGET_OPS || s.k.now_max() >= BUDGET
    });
    let out = SmpOutcome {
        ok: sys.k.mem.kread_u64(Memory::GLOBAL_PT, counters).unwrap_or(0),
        err: sys.k.mem.kread_u64(Memory::GLOBAL_PT, counters + 8).unwrap_or(0),
        rounds: sys.k.mem.kread_u64(Memory::GLOBAL_PT, counters + 16).unwrap_or(0),
        final_cycles: sys.k.now_max(),
        caller_alive: sys.k.procs[&simkernel::Pid(cli_pid)].alive,
        injections: simfault::injections(),
        log: simfault::log_render(),
    };
    simfault::disarm();
    out
}

/// IPI-hostile plan: frequent lost and late wake IPIs, spurious futex
/// wakeups, transient proxy failures, and a mid-run kill of the callee
/// process while its calls are in flight on another CPU.
fn smp_hostile_plan(seed: u64, srv_pid: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .rate(Site::IpiLoss, 0.05)
        .rate(Site::IpiDelay, 0.10)
        .rate(Site::SpuriousWake, 0.02)
        .rate(Site::SysErr, 0.10)
        .at(400_000 + seed * 10_000, Trigger::KillProcess { pid: srv_pid })
}

#[test]
fn smp_chaos_sweep_recovers_ipi_loss_and_cross_cpu_kill() {
    let srv_pid = build_micro().srv_pid;
    let mut ipi_faults = 0u64;
    for seed in 0..8 {
        let r = run_smp_micro(Some(smp_hostile_plan(seed, srv_pid)));
        assert!(
            r.ok + r.err >= TARGET_OPS,
            "seed {seed}: hang — only {}+{} ops inside {BUDGET} cycles",
            r.ok,
            r.err
        );
        assert!(r.final_cycles < BUDGET, "seed {seed}: budget exhausted");
        assert!(r.caller_alive, "seed {seed}: caller did not survive the cross-CPU kill");
        assert!(r.err > 0, "seed {seed}: the callee kill must surface as caller errors");
        assert!(r.rounds > 0, "seed {seed}: ping-pong wedged — a lost IPI became a hang");
        assert!(r.injections > 0, "seed {seed}: plan injected nothing");
        ipi_faults +=
            r.log.lines().filter(|l| l.contains("ipi_loss") || l.contains("ipi_delay")).count()
                as u64;
    }
    assert!(ipi_faults > 0, "the sweep never exercised the IPI fault sites");
}

#[test]
fn smp_chaos_replays_bit_identically() {
    let srv_pid = build_micro().srv_pid;
    for seed in [5u64, 9] {
        let a = run_smp_micro(Some(smp_hostile_plan(seed, srv_pid)));
        let b = run_smp_micro(Some(smp_hostile_plan(seed, srv_pid)));
        assert_eq!(a.log, b.log, "seed {seed}: injection logs diverged");
        assert_eq!(a.final_cycles, b.final_cycles, "seed {seed}: cycle counts diverged");
        assert_eq!(
            (a.ok, a.err, a.rounds),
            (b.ok, b.err, b.rounds),
            "seed {seed}: counters diverged"
        );
    }
}

#[test]
fn double_kill_is_idempotent() {
    let mut mw = build_micro();
    let counters = mw.counters;
    mw.sys.run_until(|s| s.k.mem.kread_u64(Memory::GLOBAL_PT, counters).unwrap_or(0) >= 50);
    mw.sys.kill_process(simkernel::Pid(mw.srv_pid));
    let live = mw.sys.k.mem.phys().live_frames();
    // A second kill (e.g. a racing trigger plus a fault escalation) must
    // not double-free frames or panic.
    mw.sys.kill_process(simkernel::Pid(mw.srv_pid));
    assert_eq!(mw.sys.k.mem.phys().live_frames(), live, "second kill must be a no-op");
}

#[test]
fn double_kill_with_channels_reclaims_ring_slots_once() {
    // Same idempotence invariant, but with async channels in flight: the
    // first kill must poison every channel the victim touches (pending
    // enqueues then fail with DIPC_ERR_FAULT instead of leaking slots);
    // the second kill must find them already closed and change nothing.
    let mut s = oltp::async_stack::build_async(&common::small_async());
    s.stack.sys.run_until(|sys| sys.k.now_max() >= 2_000_000);
    let php = common::pid_of(&s, "php");

    s.stack.sys.kill_process(php);
    assert!(s.stack.sys.channel_recs().iter().all(|r| r.closed));
    let live = s.stack.sys.k.mem.phys().live_frames();
    s.stack.sys.kill_process(php);
    assert_eq!(
        s.stack.sys.k.mem.phys().live_frames(),
        live,
        "second kill must not re-reclaim channel rings"
    );
    // The poison is permanent: no channel reopens, and the survivors still
    // drain to a halt (covered in depth by tests/async_ring.rs).
    assert!(s.stack.sys.channel_recs().iter().all(|r| r.closed));
}

// ---------------------------------------------------------------------
// Plugin chaos: the same recovery invariants on the untrusted-plugin
// world (crates/plugins) — transient faults during load-time signature
// verification, transient and fatal faults mid-proxy-call, and a
// driver-level kill of a plugin while the host's calls are in flight.
// ---------------------------------------------------------------------

const PLUGIN_ITERS: u64 = 300;

struct PluginOutcome {
    ok: u64,
    err: u64,
    load_attempts: u64,
    final_cycles: u64,
    host_ran_to_completion: bool,
    injections: u64,
    log: String,
}

/// Transient faults throughout — drawn both by load-time verification
/// retries and by the kernel's proxy-crossing sites — plus a mid-run kill
/// of plugin slot 1.
fn plugin_chaos_plan(seed: u64, victim: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .rate(Site::SysErr, 0.20)
        .at(500_000 + seed * 20_000, Trigger::KillProcess { pid: victim })
}

/// Builds the benign three-plugin world *under* the armed plan (so the
/// load pipeline sees verification faults), runs the host to completion,
/// and snapshots everything observable.
fn run_plugin_chaos(plan: Option<FaultPlan>) -> PluginOutcome {
    if let Some(p) = plan {
        simfault::arm(p);
    }
    let p = PluginParams::default();
    let mut pw = PluginWorld::build(&p, &[PluginKind::Benign; 3]).expect("loads despite chaos");
    pw.start(PLUGIN_ITERS);
    pw.world.sys.run_until(|s| s.k.live_threads == 0 || s.k.now_max() >= BUDGET);
    let (ok, err) = (0..3).fold((0, 0), |(o, e), i| (o + pw.ok(i), e + pw.err(i)));
    let out = PluginOutcome {
        ok,
        err,
        load_attempts: pw.load_attempts,
        final_cycles: pw.world.sys.k.now_max(),
        host_ran_to_completion: pw.world.sys.k.live_threads == 0,
        injections: simfault::injections(),
        log: simfault::log_render(),
    };
    simfault::disarm();
    out
}

/// The victim pid layout is deterministic; probe it once, fault-free.
fn plugin_victim_pid() -> u64 {
    let p = PluginParams::default();
    let pw = PluginWorld::build(&p, &[PluginKind::Benign; 3]).expect("clean build");
    pw.plug_pid(1).0
}

#[test]
fn plugin_chaos_sweep_survives_load_and_proxy_faults() {
    let victim = plugin_victim_pid();
    let mut retried_loads = 0u64;
    for seed in 0..8 {
        let r = run_plugin_chaos(Some(plugin_chaos_plan(seed, victim)));
        assert!(
            r.host_ran_to_completion,
            "seed {seed}: host hung — {}+{} of {} ops inside {BUDGET} cycles",
            r.ok,
            r.err,
            PLUGIN_ITERS * 3
        );
        assert_eq!(
            r.ok + r.err,
            PLUGIN_ITERS * 3,
            "seed {seed}: every host iteration must end in a result or DIPC_ERR_FAULT"
        );
        assert!(r.err > 0, "seed {seed}: the plugin kill must surface as host-visible faults");
        assert!(r.injections > 0, "seed {seed}: plan injected nothing");
        assert!(r.load_attempts >= 3, "seed {seed}: every slot is verified at least once");
        retried_loads += r.load_attempts - 3;
    }
    assert!(
        retried_loads > 0,
        "the sweep never exercised a transient fault during load verification"
    );
}

#[test]
fn plugin_chaos_replays_bit_identically() {
    let victim = plugin_victim_pid();
    for seed in [2u64, 6] {
        let a = run_plugin_chaos(Some(plugin_chaos_plan(seed, victim)));
        let b = run_plugin_chaos(Some(plugin_chaos_plan(seed, victim)));
        assert_eq!(a.log, b.log, "seed {seed}: injection logs diverged");
        assert_eq!(a.final_cycles, b.final_cycles, "seed {seed}: cycle counts diverged");
        assert_eq!((a.ok, a.err), (b.ok, b.err), "seed {seed}: counters diverged");
        assert_eq!(
            a.load_attempts, b.load_attempts,
            "seed {seed}: load-verification retries diverged"
        );
    }
}

#[test]
fn plugin_zero_rate_plan_is_cycle_identical() {
    let clean = run_plugin_chaos(None);
    let zero = run_plugin_chaos(Some(FaultPlan::new(123)));
    assert_eq!(zero.injections, 0, "a zero-rate plan must not inject");
    assert_eq!(clean.final_cycles, zero.final_cycles, "probes must cost zero cycles");
    assert_eq!((clean.ok, clean.err), (zero.ok, zero.err));
    assert_eq!(clean.load_attempts, zero.load_attempts);
    assert_eq!(clean.err, 0, "a fault-free benign run sees no faults");
}

#[test]
fn near_certain_load_faults_still_terminate_deterministically() {
    // A 25% per-burst transient rate (~87% of whole-blob attempts torn
    // across the 7 fetch bursts): the bounded retry loop must still
    // converge (or fail crisply) and replay attempt-for-attempt.
    let mut counts = Vec::new();
    for _ in 0..2 {
        simfault::arm(FaultPlan::new(77).rate(Site::SysErr, 0.25));
        let p = PluginParams::default();
        let r = PluginWorld::build(&p, &[PluginKind::Benign; 3]);
        let attempts = match &r {
            Ok(pw) => pw.load_attempts,
            Err(_) => u64::MAX,
        };
        simfault::disarm();
        assert!(r.is_ok(), "seed 77 converges within the retry budget");
        counts.push(attempts);
    }
    assert_eq!(counts[0], counts[1], "retry streams must replay");
    assert!(counts[0] > 3, "a near-certain torn-read rate must actually force retries");
}

#[test]
fn revocation_injection_is_identical_on_both_engines() {
    // Injected capability revocations land *inside* hot blocks whose
    // entry edges carry warm crossing descriptors (the dIPC call loop
    // crosses domains every iteration). The descriptor guard re-checks
    // revocation state on every served crossing, so the injection must
    // surface at exactly the same instruction — same fault log, same
    // cycle count, same counters — on the fast engine as on the reference
    // interpreter, which has no descriptor to serve.
    let plan = |seed| FaultPlan::new(seed).rate(Site::Revoke, 0.005);
    for seed in [4u64, 13] {
        simmem::set_fastpath(Some(false));
        let reference = run_micro(Some(plan(seed)));
        simmem::set_fastpath(Some(true));
        let fast = run_micro(Some(plan(seed)));
        simmem::set_fastpath(None);
        assert!(fast.injections > 0, "seed {seed}: plan injected nothing");
        assert_eq!(reference.log, fast.log, "seed {seed}: injection logs diverged");
        assert_eq!(reference.final_cycles, fast.final_cycles, "seed {seed}: cycles diverged");
        assert_eq!((reference.ok, reference.err), (fast.ok, fast.err), "seed {seed}: counters");
        assert!(reference.caller_alive && fast.caller_alive, "seed {seed}: caller died");
    }
}
