//! §5.4 cross-process call time-outs: thread splitting.

use cdvm::isa::reg::*;
use cdvm::Instr;
use dipc::{AppSpec, IsoProps, Signature, World, DIPC_ERR_TIMEDOUT};
use simkernel::{KernelConfig, ThreadState};

/// A one-CPU world where `web.main` calls `srv.slow`, which "hangs" for a
/// long (but finite) time and then returns 99.
fn slow_call_world() -> World {
    let mut w = World::new(KernelConfig { cpus: 1, ..KernelConfig::default() });
    let srv = AppSpec::new("srv", |a| {
        a.label("slow");
        // ~3 ms of "hung" work, then return 99.
        a.li(S0, 3000);
        a.label("spin");
        a.push(Instr::Work { rs1: 0, imm: 3100 });
        a.push(Instr::Addi { rd: S0, rs1: S0, imm: -1 });
        a.bne(S0, ZERO, "spin");
        a.li(A0, 99);
        a.ret();
    })
    // Stack confidentiality: the §5.4 precondition for splitting.
    .export("slow", Signature::regs(1, 1), IsoProps::STACK_CONF);
    w.build(srv);
    let web = AppSpec::new("web", |a| {
        a.label("main");
        a.li(A0, 1);
        a.jal(RA, "call_srv_slow");
        a.push(Instr::Halt);
    })
    .import("srv", "slow", Signature::regs(1, 1), IsoProps::LOW);
    w.build(web);
    w.link();
    w
}

/// web calls srv.slow, which "hangs" for a long (but finite) time. The
/// host times the call out; the caller resumes with ETIMEDOUT on a fresh
/// thread; the callee continuation eventually returns into the split proxy
/// and self-destructs.
#[test]
fn timeout_splits_caller_and_callee() {
    let mut w = slow_call_world();
    let tid = w.spawn("web", "main", &[]);
    let srv_pid = w.app("srv").pid;

    // Let the call get inside the server, then declare a time-out.
    w.sys.run_until(|s| s.k.current_pid(0) == srv_pid);
    let new_tid = w.sys.split_timeout(tid).expect("call is splittable");
    assert_eq!(w.sys.splits, 1);

    // Run everything to completion: the new caller thread halts with
    // ETIMEDOUT; the original thread finishes the callee work and
    // self-destructs via the exit gadget.
    w.sys.run_to_completion();
    assert_eq!(w.sys.k.threads[&new_tid].exit_code, DIPC_ERR_TIMEDOUT, "caller sees ETIMEDOUT");
    assert!(matches!(w.sys.k.threads[&new_tid].state, ThreadState::Dead));
    assert!(matches!(w.sys.k.threads[&tid].state, ThreadState::Dead));
    assert_eq!(
        w.sys.k.threads[&tid].exit_code, 99,
        "callee continuation finished its work before exiting via the gadget"
    );
    // The server survives the whole affair.
    assert!(w.sys.k.procs[&srv_pid].alive);
}

/// The split-off caller thread takes its id from the kernel's counter, so
/// a thread spawned after the split gets another one instead of silently
/// replacing the split thread in the thread table.
#[test]
fn thread_spawned_after_a_split_gets_its_own_id() {
    let mut w = slow_call_world();
    let tid = w.spawn("web", "main", &[]);
    let srv_pid = w.app("srv").pid;
    w.sys.run_until(|s| s.k.current_pid(0) == srv_pid);
    let split = w.sys.split_timeout(tid).expect("call is splittable");
    let spawned = w.spawn("web", "main", &[]);
    assert_ne!(split, spawned, "the spawn reused the split thread's id");
    assert_eq!(w.sys.k.threads.len(), 3);
    assert_eq!(w.sys.k.threads[&split].tid, split);
    assert_eq!(w.sys.k.threads[&spawned].tid, spawned);

    // Both run to their own ends: the split caller with ETIMEDOUT, the new
    // thread with the result of its own (untimed) call.
    w.sys.run_to_completion();
    assert_eq!(w.sys.k.threads[&split].exit_code, DIPC_ERR_TIMEDOUT);
    assert_eq!(w.sys.k.threads[&spawned].exit_code, 99);
    assert!(w.sys.k.threads.values().all(|t| t.state == ThreadState::Dead));
}

/// Splitting requires an in-progress call with stack confidentiality.
#[test]
fn split_preconditions_enforced() {
    let mut w = World::new(KernelConfig { cpus: 1, ..KernelConfig::default() });
    let srv = AppSpec::new("srv", |a| {
        a.label("f");
        a.li(S0, 2000);
        a.label("spin");
        a.push(Instr::Work { rs1: 0, imm: 3100 });
        a.push(Instr::Addi { rd: S0, rs1: S0, imm: -1 });
        a.bne(S0, ZERO, "spin");
        a.ret();
    })
    .export("f", Signature::regs(1, 1), IsoProps::LOW); // no stack conf
    w.build(srv);
    let web = AppSpec::new("web", |a| {
        a.label("main");
        a.jal(RA, "call_srv_f");
        a.push(Instr::Halt);
    })
    .import("srv", "f", Signature::regs(1, 1), IsoProps::LOW);
    w.build(web);
    w.link();
    let tid = w.spawn("web", "main", &[]);
    // Before the thread even runs: no call in progress.
    assert!(w.sys.split_timeout(tid).is_none());
    let srv_pid = w.app("srv").pid;
    w.sys.run_until(|s| s.k.current_pid(0) == srv_pid);
    // In progress, but without stack confidentiality: refused (§5.4).
    assert!(w.sys.split_timeout(tid).is_none());
    w.sys.run_to_completion();
}
