//! Workspace tests for the asynchronous dIPC subsystem: capability-gated
//! channel access, determinism of the full async OLTP pipeline (the
//! fingerprint covers operation counts, cycle counts and the ring cursors
//! of every minted channel), zero-rate fault-injection cycle-identity, and
//! mid-flight process kills failing pending enqueues with `DIPC_ERR_FAULT`
//! instead of hanging or leaking ring slots.

mod common;

use aring::{emit, Backpressure, GuestRing, Ring, RingCfg};
use cdvm::isa::reg::*;
use cdvm::Instr;
use common::{ops_done, pid_of, small_async as small};
use dipc::{AppSpec, World};
use oltp::async_stack::{build_async, AsyncParams};
use simfault::FaultPlan;
use simkernel::{KernelConfig, ThreadState};

// ---------------------------------------------------------------------
// Capability gating: channel rings are only writable through the grant
// walk `channel_create` performs.
// ---------------------------------------------------------------------

#[test]
fn channel_grants_gate_ring_access() {
    let mut w = World::new(KernelConfig { cpus: 1, ..KernelConfig::default() });
    let cfg = RingCfg::new(8, false, Backpressure::Yield);

    // Passive consumer: it only owns the ring domain.
    w.build(AppSpec::new("cons", |a| {
        a.label("cons_main");
        a.push(Instr::Halt);
    }));
    // Granted producer: enqueues one record and exits with the status.
    let pcfg = cfg;
    w.build(AppSpec::new("prod", move |a| {
        a.label("prod_main");
        a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
        emit::emit_enqueue(a, "pe", S0, &pcfg, &|a, slot| {
            a.li(T0, 0x5eed);
            a.push(Instr::St { rs1: slot, rs2: T0, imm: 0 });
            a.push(Instr::St { rs1: slot, rs2: ZERO, imm: 8 });
            a.push(Instr::St { rs1: slot, rs2: ZERO, imm: 16 });
            a.push(Instr::St { rs1: slot, rs2: ZERO, imm: 24 });
        });
        a.push(Instr::Add { rd: S1, rs1: A0, rs2: ZERO });
        emit::emit_flush(a, "pf", S0);
        a.push(Instr::Add { rd: A0, rs1: S1, rs2: ZERO });
        a.push(Instr::Halt);
    }));
    // Intruder: a dIPC process with NO grant toward the ring domain; its
    // very first access to the control page must be a fatal violation.
    w.build(AppSpec::new("intr", |a| {
        a.label("intr_main");
        a.li(T1, 0xbad);
        a.push(Instr::St { rs1: A0, rs2: T1, imm: 0 });
        a.li(A0, 1); // unreachable if the APL check holds
        a.push(Instr::Halt);
    }));
    w.link();

    let (cons, prod, intr) = (w.app("cons").pid, w.app("prod").pid, w.app("intr").pid);
    let ch =
        w.sys.channel_create::<[u64; 4], [u64; 4]>("gate", cons, &[prod], cfg, cfg).expect("mint");

    let ptid = w.spawn("prod", "prod_main", &[ch.req.base]);
    let itid = w.spawn("intr", "intr_main", &[ch.req.base]);
    let mut sys = w.sys;
    sys.run_to_completion();

    assert_eq!(sys.k.threads[&ptid].exit_code, 0, "granted producer must enqueue");
    let tail = ch.req.ring().tail(&sys.channel_mem(ch.id));
    assert_eq!(tail, 1, "the granted record must be published");
    assert!(!sys.k.procs[&intr].alive, "ungranted ring store must kill the violator");
    assert!(sys.k.procs[&cons].alive);
    assert_ne!(sys.k.threads[&itid].exit_code, 1, "intruder must not reach its halt");
}

// ---------------------------------------------------------------------
// Determinism: the full async pipeline replays bit-identically, down to
// the ring cursors of every channel.
// ---------------------------------------------------------------------

/// Runs a fixed simulated interval and fingerprints everything observable:
/// cycle count, per-thread op counters, and the head/tail cursors of every
/// minted ring.
fn run_fingerprint(ap: &AsyncParams, ms: u64) -> String {
    let mut s = build_async(ap);
    let cost = s.stack.sys.k.cost.clone();
    let end = cost.cycles_from_ns(ms as f64 * 1e6);
    s.stack.sys.run_until(|sys| sys.k.now_max() >= end);

    let mut f = format!("cycles={}", s.stack.sys.k.now_max());
    let (pt, base) = s.stack.counters;
    for i in 0..s.stack.slots {
        f += &format!(" ops{i}={}", s.stack.sys.k.mem.kread_u64(pt, base + i * 8).unwrap_or(0));
    }
    for id in s.chans.clone() {
        let rec = s.stack.sys.channel_recs()[id].clone();
        for (what, base, cfg) in
            [("req", rec.req_base, rec.req_cfg), ("resp", rec.resp_base, rec.resp_cfg)]
        {
            let g = GuestRing { mem: &mut s.stack.sys.k.mem, pt: rec.pt, base };
            let r = Ring::new(cfg);
            f += &format!(" {}.{what}={},{}", rec.name, r.head(&g), r.tail(&g));
        }
    }
    f
}

#[test]
fn async_pipeline_fingerprint_replays_identically() {
    let ap = small();
    let a = run_fingerprint(&ap, 6);
    let b = run_fingerprint(&ap, 6);
    assert_eq!(a, b, "async pipeline replay diverged");
    // The fingerprint must show real traffic, not an idle machine.
    assert!(!a.contains("ops0=0"), "no operations completed: {a}");
}

// ---------------------------------------------------------------------
// Fault injection: an armed all-zero-rate plan costs zero cycles.
// ---------------------------------------------------------------------

#[test]
fn zero_rate_plan_is_cycle_identical_on_async_stack() {
    let ap = small();
    let clean = run_fingerprint(&ap, 5);
    simfault::arm(FaultPlan::new(99));
    let zero = run_fingerprint(&ap, 5);
    let injections = simfault::injections();
    simfault::disarm();
    assert_eq!(injections, 0, "a zero-rate plan must not inject");
    assert_eq!(clean, zero, "armed zero-rate probes must cost zero simulated cycles");
}

// ---------------------------------------------------------------------
// Teardown: killing the PHP consumer mid-flight poisons every channel it
// touches; producers and the DB tier fail fast (DIPC_ERR_FAULT or clean
// CLOSED exit) instead of hanging on dead doorbells.
// ---------------------------------------------------------------------

#[test]
fn killing_consumer_fails_inflight_enqueues_fast() {
    let mut s = build_async(&small());
    s.stack.sys.run_until(|sys| sys.k.now_max() >= 2_000_000);
    assert!(ops_done(&s) > 0, "pipeline must be mid-flight before the kill");

    let php = pid_of(&s, "php");
    let web = pid_of(&s, "web");
    let db = pid_of(&s, "db");
    let live_before = s.stack.sys.k.mem.phys().live_frames();
    s.stack.sys.kill_process(php);
    assert!(
        s.stack.sys.k.mem.phys().live_frames() < live_before,
        "the dead consumer's frames must be reclaimed"
    );
    assert!(
        s.stack.sys.channel_recs().iter().all(|r| r.closed),
        "every channel PHP touched must be poisoned"
    );

    // Every web producer and the DB consumer must come to a halt within a
    // bounded horizon — no thread may sleep forever on a poisoned ring.
    let deadline = s.stack.sys.k.now_max() + 30_000_000;
    s.stack.sys.run_until(|sys| {
        let done = sys
            .k
            .threads
            .values()
            .filter(|t| t.home == web || t.home == db)
            .all(|t| t.state == ThreadState::Dead);
        done || sys.k.now_max() >= deadline
    });
    for t in s.stack.sys.k.threads.values().filter(|t| t.home == web || t.home == db) {
        assert_eq!(t.state, ThreadState::Dead, "thread {:?} hung on a poisoned ring", t.tid);
        assert!(
            t.exit_code == 0 || t.exit_code == aring::ERR_FAULT,
            "thread {:?} must exit via CLOSED (0) or DIPC_ERR_FAULT, got {:#x}",
            t.tid,
            t.exit_code
        );
    }
}
