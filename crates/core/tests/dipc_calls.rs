//! End-to-end dIPC call tests: real proxies generated at run time, executed
//! by the VM under full CODOMs enforcement.

use cdvm::isa::reg::*;
use cdvm::{Asm, Instr};
use dipc::{AppSpec, IsoProps, Signature, World, DIPC_ERR_FAULT};
use simkernel::{sysno, KernelConfig, ThreadState};

fn world() -> World {
    World::new(KernelConfig { cpus: 1, ..KernelConfig::default() })
}

/// The canonical two-process setup of Figure 3: `web` calls `query` in
/// `db`. `query(x)` returns `x * 2 + secret`, where `secret` lives in db's
/// private memory — proving the callee really executes inside its own
/// domain.
fn web_db_world(policy: IsoProps) -> World {
    let mut w = world();

    let db = AppSpec::new("db", |a| {
        a.label("query");
        a.li_sym(T0, "$data_secret");
        a.push(Instr::Ld { rd: T0, rs1: T0, imm: 0 });
        a.push(Instr::Add { rd: A0, rs1: A0, rs2: A0 }); // x*2
        a.push(Instr::Add { rd: A0, rs1: A0, rs2: T0 });
        a.ret();
    })
    .export("query", Signature::regs(1, 1), policy)
    .data("secret", 4096);
    w.build(db);

    let web = AppSpec::new("web", move |a| {
        a.label("main");
        a.li(A0, 100);
        a.jal(RA, "call_db_query");
        a.push(Instr::Halt);
    })
    .import("db", "query", Signature::regs(1, 1), policy);
    w.build(web);

    w.link();
    // Plant the secret.
    let addr = w.app("db").data["secret"];
    w.sys.k.mem.kwrite_u64(simmem::Memory::GLOBAL_PT, addr, 7).unwrap();
    w
}

#[test]
fn cross_process_call_low_policy() {
    let mut w = web_db_world(IsoProps::LOW);
    let tid = w.spawn("web", "main", &[]);
    w.sys.run_to_completion();
    assert_eq!(w.sys.k.threads[&tid].exit_code, 207, "query(100) = 100*2 + 7");
    assert_eq!(w.sys.cold_resolves, 1, "exactly one cold track-resolve");
}

#[test]
fn cross_process_call_high_policy() {
    let mut w = web_db_world(IsoProps::HIGH);
    let tid = w.spawn("web", "main", &[]);
    w.sys.run_to_completion();
    assert_eq!(w.sys.k.threads[&tid].exit_code, 207);
}

#[test]
fn repeated_calls_hit_the_warm_path() {
    let mut w = world();
    let db = AppSpec::new("db", |a| {
        a.label("bump");
        a.push(Instr::Addi { rd: A0, rs1: A0, imm: 1 });
        a.ret();
    })
    .export("bump", Signature::regs(1, 1), IsoProps::LOW);
    w.build(db);
    let web = AppSpec::new("web", |a| {
        a.label("main");
        a.li(A0, 0);
        a.li(S0, 1000);
        a.label("loop");
        a.jal(RA, "call_db_bump");
        a.push(Instr::Addi { rd: S0, rs1: S0, imm: -1 });
        a.bne(S0, ZERO, "loop");
        a.push(Instr::Halt);
    })
    .import("db", "bump", Signature::regs(1, 1), IsoProps::LOW);
    w.build(web);
    w.link();
    let tid = w.spawn("web", "main", &[]);
    w.sys.run_to_completion();
    assert_eq!(w.sys.k.threads[&tid].exit_code, 1000);
    assert_eq!(w.sys.cold_resolves, 1, "999 of 1000 calls must take the hot path");
}

#[test]
fn cross_process_call_is_fast() {
    // The headline property: a warm dIPC+proc call round trip costs tens of
    // nanoseconds, not microseconds.
    let mut w = world();
    let db = AppSpec::new("db", |a| {
        a.label("noop");
        a.ret();
    })
    .export("noop", Signature::regs(1, 1), IsoProps::LOW);
    w.build(db);
    let web = AppSpec::new("web", |a| {
        a.label("main");
        // Warm up once, read cycles, run 1000 calls, read cycles.
        a.jal(RA, "call_db_noop");
        a.push(Instr::Rdcycle { rd: S1 });
        a.li(S0, 1000);
        a.label("loop");
        a.jal(RA, "call_db_noop");
        a.push(Instr::Addi { rd: S0, rs1: S0, imm: -1 });
        a.bne(S0, ZERO, "loop");
        a.push(Instr::Rdcycle { rd: A0 });
        a.push(Instr::Sub { rd: A0, rs1: A0, rs2: S1 });
        a.push(Instr::Halt);
    })
    .import_live("db", "noop", Signature::regs(1, 1), IsoProps::LOW, &[]);
    w.build(web);
    w.link();
    let tid = w.spawn("web", "main", &[]);
    w.sys.run_to_completion();
    let cycles = w.sys.k.threads[&tid].exit_code;
    let ns_per_call = w.sys.k.cost.ns(cycles) / 1000.0;
    // Figure 5: dIPC +proc Low ≈ 56 ns. Accept a generous band.
    assert!(
        (20.0..200.0).contains(&ns_per_call),
        "dIPC+proc Low round trip {ns_per_call} ns out of band"
    );
}

#[test]
fn nested_cross_process_calls() {
    // web -> php -> db, three processes deep.
    let mut w = world();
    let db = AppSpec::new("db", |a| {
        a.label("leaf");
        a.push(Instr::Addi { rd: A0, rs1: A0, imm: 5 });
        a.ret();
    })
    .export("leaf", Signature::regs(1, 1), IsoProps::LOW);
    w.build(db);
    // `mid` itself needs stack space for the nested call shim, but with a
    // Low policy it would run on *web's* stack, which php's domain cannot
    // touch. Callee-requested stack confidentiality gives php its own
    // per-thread stack (§5.2.3: conf properties activate "when any side
    // requests it") — exactly the asymmetric-policy flexibility of §2.4.
    let php = AppSpec::new("php", |a| {
        a.label("mid");
        // A regular function frame: save ra (we make a nested call).
        a.push(Instr::Addi { rd: SP, rs1: SP, imm: -8 });
        a.push(Instr::St { rs1: SP, rs2: RA, imm: 0 });
        a.push(Instr::Addi { rd: A0, rs1: A0, imm: 100 });
        a.jal(RA, "call_db_leaf");
        a.push(Instr::Ld { rd: RA, rs1: SP, imm: 0 });
        a.push(Instr::Addi { rd: SP, rs1: SP, imm: 8 });
        a.ret();
    })
    .export("mid", Signature::regs(1, 1), IsoProps::STACK_CONF)
    .import("db", "leaf", Signature::regs(1, 1), IsoProps::LOW);
    w.build(php);
    let web = AppSpec::new("web", |a| {
        a.label("main");
        a.li(A0, 1);
        a.jal(RA, "call_php_mid");
        a.push(Instr::Halt);
    })
    .import("php", "mid", Signature::regs(1, 1), IsoProps::LOW);
    w.build(web);
    w.link();
    let tid = w.spawn("web", "main", &[]);
    w.sys.run_to_completion();
    assert_eq!(w.sys.k.threads[&tid].exit_code, 106, "1 + 100 + 5 through 3 processes");
}

#[test]
fn callee_crash_unwinds_to_caller_with_error() {
    let mut w = world();
    let db = AppSpec::new("db", |a| {
        a.label("boom");
        a.push(Instr::Crash);
    })
    .export("boom", Signature::regs(1, 1), IsoProps::LOW);
    w.build(db);
    let web = AppSpec::new("web", |a| {
        a.label("main");
        a.li(A0, 1);
        a.jal(RA, "call_db_boom");
        a.push(Instr::Halt);
    })
    .import("db", "boom", Signature::regs(1, 1), IsoProps::LOW);
    w.build(web);
    w.link();
    let tid = w.spawn("web", "main", &[]);
    w.sys.run_to_completion();
    assert_eq!(w.sys.unwinds, 1, "the fault must be recovered by KCS unwinding");
    assert_eq!(
        w.sys.k.threads[&tid].exit_code, DIPC_ERR_FAULT,
        "caller sees the errno-style error"
    );
    assert!(matches!(w.sys.k.threads[&tid].state, ThreadState::Dead), "caller ran to completion");
    // The caller's process survives; the web thread wasn't killed.
    let web_pid = w.app("web").pid;
    let db_pid = w.app("db").pid;
    assert!(w.sys.k.procs[&web_pid].threads.contains(&tid));
    // The callee process also survives a visiting thread's crash (§5.2.1).
    assert!(w.sys.k.procs[&db_pid].alive);
}

#[test]
fn caller_cannot_touch_callee_memory_directly() {
    // P1: without a grant, a direct load from db's secret faults (and with
    // no KCS frames, the faulting process is killed).
    let mut w = web_db_world(IsoProps::LOW);
    let secret = w.app("db").data["secret"];
    let web_pid = w.app("web").pid;
    let mut a = Asm::new();
    a.li(T0, secret);
    a.push(Instr::Ld { rd: A0, rs1: T0, imm: 0 });
    a.push(Instr::Halt);
    let img = w.sys.k.load_program(web_pid, &a.finish(), &std::collections::HashMap::new());
    let tid = w.sys.k.spawn_thread(web_pid, img.base, &[]);
    w.sys.run_to_completion();
    assert!(matches!(w.sys.k.threads[&tid].state, ThreadState::Dead));
    assert!(!w.sys.k.procs[&web_pid].alive, "P1 violation kills the violator");
}

#[test]
fn caller_cannot_jump_past_the_proxy() {
    // P2: calling the callee's function directly (bypassing the proxy) is
    // denied by CODOMs — the caller has no grant toward the callee domain.
    let mut w = web_db_world(IsoProps::LOW);
    let query = w.app("db").addr("query");
    let web_pid = w.app("web").pid;
    let mut a = Asm::new();
    a.li(T0, query);
    a.push(Instr::Jalr { rd: RA, rs1: T0, imm: 0 });
    a.push(Instr::Halt);
    let img = w.sys.k.load_program(web_pid, &a.finish(), &std::collections::HashMap::new());
    let tid = w.sys.k.spawn_thread(web_pid, img.base, &[]);
    w.sys.run_to_completion();
    assert!(matches!(w.sys.k.threads[&tid].state, ThreadState::Dead));
    assert!(!w.sys.k.procs[&web_pid].alive);
}

#[test]
fn capability_passes_buffer_by_reference() {
    // §4.2 + §7.2: the caller hands the callee a capability to its own
    // buffer; the callee fills it without any copy.
    let mut w = world();
    let db = AppSpec::new("db", |a| {
        // fill(buf_in_c0): write 0x55 over the first 8 bytes via the
        // capability; a0 carries the buffer address for addressing.
        a.label("fill");
        a.li(T0, 0x5555_5555);
        a.push(Instr::St { rs1: A0, rs2: T0, imm: 0 });
        a.ret();
    })
    .export(
        "fill",
        Signature { args: 1, rets: 0, stack_bytes: 0, cap_args: 1 },
        IsoProps::LOW,
    );
    w.build(db);
    let web = AppSpec::new("web", |a| {
        a.label("main");
        // Create a write capability over our buffer and pass it in c0.
        a.li_sym(A0, "$data_buf");
        a.li(T0, 64);
        a.push(Instr::CapAplTake { crd: 0, rs1: A0, rs2: T0, imm: 3 });
        a.jal(RA, "call_db_fill");
        // Read back what the callee wrote.
        a.li_sym(T1, "$data_buf");
        a.push(Instr::Ld { rd: A0, rs1: T1, imm: 0 });
        a.push(Instr::Halt);
    })
    .import(
        "db",
        "fill",
        Signature { args: 1, rets: 0, stack_bytes: 0, cap_args: 1 },
        IsoProps::LOW,
    )
    .data("buf", 4096);
    w.build(web);
    w.link();
    let tid = w.spawn("web", "main", &[]);
    w.sys.run_to_completion();
    assert_eq!(w.sys.k.threads[&tid].exit_code, 0x5555_5555);
}

#[test]
fn signature_mismatch_rejected_p4() {
    let mut w = world();
    let db = AppSpec::new("db", |a| {
        a.label("f");
        a.ret();
    })
    .export("f", Signature::regs(2, 1), IsoProps::LOW);
    w.build(db);
    let (db_pid, eh) = {
        let app = w.app("db");
        (app.pid, app.export_handles["f"])
    };
    let web_pid = w.sys.k.create_process("web2", true);
    let eh2 = w.sys.pass_handle(db_pid, simkernel::Pid(web_pid.0), eh).unwrap();
    let bad = dipc::EntryDesc {
        address: 0,
        signature: Signature::regs(3, 1), // wrong arg count
        policy: IsoProps::LOW,
    };
    let err = w.sys.entry_request(web_pid, eh2, vec![bad]).unwrap_err();
    assert_eq!(err, dipc::DipcError::Signature);
}

#[test]
fn same_process_domain_isolation() {
    // dIPC also isolates components *inside* a process (§3.4): two domains
    // in one process, a call through a same-process proxy.
    let mut w = world();
    let app = AppSpec::new("app", |a| {
        a.label("main");
        a.li(A0, 3);
        a.jal(RA, "call_app_twice");
        a.push(Instr::Halt);
        a.align(64);
        a.label("twice");
        a.push(Instr::Add { rd: A0, rs1: A0, rs2: A0 });
        a.ret();
    })
    .export("twice", Signature::regs(1, 1), IsoProps::LOW)
    .import("app", "twice", Signature::regs(1, 1), IsoProps::LOW);
    w.build(app);
    w.link();
    let tid = w.spawn("app", "main", &[]);
    w.sys.run_to_completion();
    assert_eq!(w.sys.k.threads[&tid].exit_code, 6);
}

/// §5.2.1: killing a process must not strand threads of other processes
/// executing inside it — they unwind with an error. With `asleep` the
/// visitor is blocked inside db when it dies, so it is rescued through its
/// saved context and put straight back on a run queue.
fn kill_db_under_visitor(asleep: bool) {
    let mut w = world();
    let db = AppSpec::new("db", move |a| {
        a.label("spin");
        if asleep {
            a.li(A0, 1_000_000_000);
            a.li(A7, sysno::SLEEP_NS);
            a.push(Instr::Ecall);
        }
        // Service that never returns (models a hung callee).
        a.label("fs");
        a.j("fs");
    })
    .export("spin", Signature::regs(1, 1), IsoProps::LOW);
    w.build(db);
    let web = AppSpec::new("web", |a| {
        a.label("main");
        a.jal(RA, "call_db_spin");
        a.push(Instr::Halt);
    })
    .import("db", "spin", Signature::regs(1, 1), IsoProps::LOW);
    w.build(web);
    w.link();
    let tid = w.spawn("web", "main", &[]);
    let db_pid = w.app("db").pid;
    // Let the call get inside db (and to sleep there), then kill db.
    let inside = |w: &World| match w.sys.k.threads[&tid].state {
        ThreadState::Blocked(_) => asleep && w.sys.k.threads[&tid].cur_pid == db_pid,
        _ => !asleep && w.sys.k.current_pid(0) == db_pid,
    };
    for _ in 0..100_000 {
        if matches!(w.sys.step(), dipc::SysStep::Progress) && inside(&w) {
            break;
        }
    }
    assert!(inside(&w), "call must be inside db");
    w.sys.kill_process(db_pid);
    w.sys.run_to_completion();
    assert_eq!(w.sys.k.threads[&tid].exit_code, DIPC_ERR_FAULT);
    assert!(!w.sys.k.procs[&db_pid].alive);
}

#[test]
fn killing_callee_process_unwinds_visitors() {
    kill_db_under_visitor(false);
}

#[test]
fn killing_callee_process_unwinds_sleeping_visitor() {
    kill_db_under_visitor(true);
}

#[test]
fn vm_level_dipc_syscalls() {
    // Table 2 exercised from inside the VM: create a domain, mmap into it,
    // and use the memory.
    let mut w = world();
    let app = AppSpec::new("app", |a| {
        a.label("main");
        a.li(A7, dipc::dsys::DOM_CREATE);
        a.push(Instr::Ecall);
        a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO }); // dom fd
        a.push(Instr::Add { rd: A0, rs1: S0, rs2: ZERO });
        a.li(A1, 8192);
        a.li(A7, dipc::dsys::DOM_MMAP);
        a.push(Instr::Ecall);
        a.push(Instr::Add { rd: S1, rs1: A0, rs2: ZERO }); // addr
                                                           // The new domain is not in our APL: grant ourselves access first.
        a.li(A7, dipc::dsys::DOM_DEFAULT);
        a.push(Instr::Ecall);
        a.push(Instr::Add { rd: S2, rs1: A0, rs2: ZERO }); // own dom fd
        a.push(Instr::Add { rd: A0, rs1: S2, rs2: ZERO });
        a.push(Instr::Add { rd: A1, rs1: S0, rs2: ZERO });
        a.li(A7, dipc::dsys::GRANT_CREATE);
        a.push(Instr::Ecall);
        // Now the memory is usable.
        a.li(T0, 0xabcd);
        a.push(Instr::St { rs1: S1, rs2: T0, imm: 0 });
        a.push(Instr::Ld { rd: A0, rs1: S1, imm: 0 });
        a.push(Instr::Halt);
    });
    w.build(app);
    w.link();
    let tid = w.spawn("app", "main", &[]);
    w.sys.run_to_completion();
    assert_eq!(w.sys.k.threads[&tid].exit_code, 0xabcd);
}
