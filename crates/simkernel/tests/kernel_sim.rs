//! End-to-end kernel simulation tests: real user programs on simulated CPUs.

use std::collections::HashMap;

use cdvm::isa::reg::*;
use cdvm::{Asm, Instr};
use simkernel::{percpu, sysno, KStep, Kernel, KernelConfig, ThreadState, TimeCat, WakePolicy};
use simmem::Memory;

fn kernel(cpus: usize) -> Kernel {
    Kernel::new(KernelConfig { cpus, ..KernelConfig::default() })
}

#[test]
fn single_thread_runs_and_exits() {
    let mut k = kernel(1);
    let pid = k.create_process("solo", false);
    let mut a = Asm::new();
    a.li(A0, 41);
    a.push(Instr::Addi { rd: A0, rs1: A0, imm: 1 });
    a.push(Instr::Halt);
    let img = k.load_program(pid, &a.finish(), &HashMap::new());
    let tid = k.spawn_thread(pid, img.base, &[]);
    k.run_to_completion();
    assert_eq!(k.threads[&tid].exit_code, 42);
    assert!(!k.procs[&pid].alive);
}

#[test]
fn getpid_and_gettid() {
    let mut k = kernel(1);
    let pid = k.create_process("p", false);
    let mut a = Asm::new();
    a.syscall(sysno::GETPID);
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
    a.syscall(sysno::GETTID);
    // exit code = pid * 1000 + tid
    a.li(T0, 1000);
    a.push(Instr::Mul { rd: S0, rs1: S0, rs2: T0 });
    a.push(Instr::Add { rd: A0, rs1: S0, rs2: A0 });
    a.push(Instr::Halt);
    let img = k.load_program(pid, &a.finish(), &HashMap::new());
    let tid = k.spawn_thread(pid, img.base, &[]);
    k.run_to_completion();
    assert_eq!(k.threads[&tid].exit_code, pid.0 * 1000 + tid.0);
}

#[test]
fn mmap_gives_writable_memory() {
    let mut k = kernel(1);
    let pid = k.create_process("p", false);
    let mut a = Asm::new();
    a.li(A0, 8192);
    a.syscall(sysno::MMAP);
    a.li(T0, 0x5a5a);
    a.push(Instr::St { rs1: A0, rs2: T0, imm: 4096 });
    a.push(Instr::Ld { rd: A0, rs1: A0, imm: 4096 });
    a.push(Instr::Halt);
    let img = k.load_program(pid, &a.finish(), &HashMap::new());
    let tid = k.spawn_thread(pid, img.base, &[]);
    k.run_to_completion();
    assert_eq!(k.threads[&tid].exit_code, 0x5a5a);
}

/// Two threads in one process ping-pong a byte through two pipes.
fn build_pipe_pingpong(iters: u64) -> cdvm::asm::Program {
    let mut a = Asm::new();
    a.syscall(sysno::PIPE2);
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
    a.syscall(sysno::PIPE2);
    a.push(Instr::Add { rd: S1, rs1: A0, rs2: ZERO });
    a.push(Instr::Srli { rd: T0, rs1: S0, imm: 32 });
    a.push(Instr::Slli { rd: T0, rs1: T0, imm: 32 });
    a.li(T1, 0xffff_ffff);
    a.push(Instr::And { rd: T2, rs1: S1, rs2: T1 });
    a.push(Instr::Or { rd: A1, rs1: T0, rs2: T2 });
    a.li_sym(A0, "thread_b");
    a.syscall(sysno::SPAWN_THREAD);
    a.push(Instr::Addi { rd: SP, rs1: SP, imm: -8 });
    a.li(S2, iters);
    a.label("loop_a");
    a.li(T1, 0xffff_ffff);
    a.push(Instr::And { rd: A0, rs1: S0, rs2: T1 });
    a.push(Instr::Add { rd: A1, rs1: SP, rs2: ZERO });
    a.li(A2, 1);
    a.syscall(sysno::WRITE);
    a.push(Instr::Srli { rd: A0, rs1: S1, imm: 32 });
    a.push(Instr::Add { rd: A1, rs1: SP, rs2: ZERO });
    a.li(A2, 1);
    a.syscall(sysno::READ);
    a.push(Instr::Addi { rd: S2, rs1: S2, imm: -1 });
    a.bne(S2, ZERO, "loop_a");
    a.li(A0, 7);
    a.push(Instr::Halt);

    // Thread B: a0 = (r1<<32)|w2; echo `iters` bytes.
    a.align(64);
    a.label("thread_b");
    a.push(Instr::Srli { rd: S0, rs1: A0, imm: 32 }); // r1
    a.li(T1, 0xffff_ffff);
    a.push(Instr::And { rd: S1, rs1: A0, rs2: T1 }); // w2
    a.push(Instr::Addi { rd: SP, rs1: SP, imm: -8 });
    a.li(S2, iters);
    a.label("loop_b");
    a.push(Instr::Add { rd: A0, rs1: S0, rs2: ZERO });
    a.push(Instr::Add { rd: A1, rs1: SP, rs2: ZERO });
    a.li(A2, 1);
    a.syscall(sysno::READ);
    a.push(Instr::Add { rd: A0, rs1: S1, rs2: ZERO });
    a.push(Instr::Add { rd: A1, rs1: SP, rs2: ZERO });
    a.li(A2, 1);
    a.syscall(sysno::WRITE);
    a.push(Instr::Addi { rd: S2, rs1: S2, imm: -1 });
    a.bne(S2, ZERO, "loop_b");
    a.li(A0, 8);
    a.push(Instr::Halt);
    a.finish()
}

#[test]
fn pipe_ping_pong_clean() {
    let mut k = kernel(1);
    let pid = k.create_process("p", false);
    let img = k.load_program(pid, &build_pipe_pingpong(10), &HashMap::new());
    let t_a = k.spawn_thread(pid, img.base, &[]);
    k.run_to_completion();
    assert_eq!(k.threads[&t_a].exit_code, 7);
    // Both threads ran; the kernel saw real costs in every category.
    let b = k.breakdown();
    assert!(b.get(TimeCat::User) > 0);
    assert!(b.get(TimeCat::Kernel) > 0);
    assert!(b.get(TimeCat::Sched) > 0);
    assert!(b.get(TimeCat::SyscallEntry) > 0);
    assert!(b.get(TimeCat::Dispatch) > 0);
}

/// `wait(addr)`: until `*addr != 0` futex_wait on it, then reset it to 0.
fn emit_wait(a: &mut Asm, addr: u8, tag: &str) {
    let (top, got) = (format!("wait_{tag}"), format!("got_{tag}"));
    a.label(&top);
    a.push(Instr::Ld { rd: T0, rs1: addr, imm: 0 });
    a.bne(T0, ZERO, &got);
    a.push(Instr::Add { rd: A0, rs1: addr, rs2: ZERO });
    a.li(A1, 0);
    a.syscall(sysno::FUTEX_WAIT);
    a.j(&top);
    a.label(&got);
    a.push(Instr::St { rs1: addr, rs2: ZERO, imm: 0 });
}

/// `post(addr)`: `*addr = 1`, wake one waiter.
fn emit_post(a: &mut Asm, addr: u8) {
    a.li(T0, 1);
    a.push(Instr::St { rs1: addr, rs2: T0, imm: 0 });
    a.push(Instr::Add { rd: A0, rs1: addr, rs2: ZERO });
    a.li(A1, 1);
    a.syscall(sysno::FUTEX_WAKE);
}

/// Futex-based semaphore ping-pong between two threads (the paper's "Sem."
/// primitive), same CPU.
fn build_futex_pingpong(iters: u64, flag_a: &str, flag_b: &str) -> cdvm::asm::Program {
    let mut a = Asm::new();

    // Main thread (A): post flag_a, wait flag_b, repeat.
    a.li_sym(S0, flag_a);
    a.li_sym(S1, flag_b);
    a.li(S2, iters);
    a.label("loop_a");
    emit_post(&mut a, S0);
    emit_wait(&mut a, S1, "a");
    a.push(Instr::Addi { rd: S2, rs1: S2, imm: -1 });
    a.bne(S2, ZERO, "loop_a");
    a.li(A0, 1);
    a.push(Instr::Halt);

    // Thread B: wait flag_a, post flag_b.
    a.align(64);
    a.label("thread_b");
    a.li_sym(S0, flag_a);
    a.li_sym(S1, flag_b);
    a.li(S2, iters);
    a.label("loop_b");
    emit_wait(&mut a, S0, "b");
    emit_post(&mut a, S1);
    a.push(Instr::Addi { rd: S2, rs1: S2, imm: -1 });
    a.bne(S2, ZERO, "loop_b");
    a.li(A0, 2);
    a.push(Instr::Halt);
    a.finish()
}

#[test]
fn futex_ping_pong_same_cpu() {
    let mut k = kernel(1);
    let pid = k.create_process("p", false);
    let flags = k.alloc_mem(pid, 4096, simmem::PageFlags::RW);
    let mut externs = HashMap::new();
    externs.insert("flag_a".to_string(), flags);
    externs.insert("flag_b".to_string(), flags + 64);
    let iters = 50;
    let img = k.load_program(pid, &build_futex_pingpong(iters, "flag_a", "flag_b"), &externs);
    let t_a = k.spawn_thread(pid, img.base, &[]);
    let t_b = k.spawn_thread(pid, img.addr("thread_b"), &[]);
    k.run_to_completion();
    assert_eq!(k.threads[&t_a].exit_code, 1);
    assert_eq!(k.threads[&t_b].exit_code, 2);
    // Round-trip cost should land in the §2.2 ballpark for same-CPU
    // semaphore IPC (~1–3 µs per round trip).
    let total_ns = k.cost.ns(k.now_max());
    let per_rt = total_ns / iters as f64;
    assert!(
        (400.0..6000.0).contains(&per_rt),
        "same-CPU futex round trip {per_rt} ns out of plausible band"
    );
}

#[test]
fn futex_ping_pong_cross_cpu_uses_ipi() {
    let mut k = kernel(2);
    let pid = k.create_process("p", false);
    let flags = k.alloc_mem(pid, 4096, simmem::PageFlags::RW);
    let mut externs = HashMap::new();
    externs.insert("fa".to_string(), flags);
    externs.insert("fb".to_string(), flags + 64);
    let iters = 30;
    let img = k.load_program(pid, &build_futex_pingpong(iters, "fa", "fb"), &externs);
    let t_a = k.spawn_thread(pid, img.base, &[]);
    let t_b = k.spawn_thread(pid, img.addr("thread_b"), &[]);
    // Pin to different CPUs (re-homes the run-queue entries).
    k.pin_thread(t_a, 0);
    k.pin_thread(t_b, 1);
    k.run_to_completion();
    assert_eq!(k.threads[&t_a].exit_code, 1);
    assert_eq!(k.threads[&t_b].exit_code, 2);
    // Cross-CPU must show idle time (IPI latency) and be slower than a
    // plausible same-CPU run.
    let b = k.breakdown();
    assert!(b.get(TimeCat::Idle) > 0, "cross-CPU wakeups idle-wait on IPIs");
}

#[test]
fn cross_cpu_slower_than_same_cpu() {
    // The §2.2 observation: "Going across CPUs is even more expensive".
    let run = |cpus: usize, pin: bool| -> f64 {
        let mut k = kernel(cpus);
        let pid = k.create_process("p", false);
        let flags = k.alloc_mem(pid, 4096, simmem::PageFlags::RW);
        let mut externs = HashMap::new();
        externs.insert("fa".to_string(), flags);
        externs.insert("fb".to_string(), flags + 64);
        let iters = 40;
        let img = k.load_program(pid, &build_futex_pingpong(iters, "fa", "fb"), &externs);
        let t_a = k.spawn_thread(pid, img.base, &[]);
        let t_b = k.spawn_thread(pid, img.addr("thread_b"), &[]);
        k.pin_thread(t_a, 0);
        k.pin_thread(t_b, if pin { 1 } else { 0 });
        k.run_to_completion();
        k.cost.ns(k.now_max()) / iters as f64
    };
    let same = run(1, false);
    let cross = run(2, true);
    assert!(cross > same * 1.5, "cross-CPU ({cross} ns) must be well above same-CPU ({same} ns)");
}

/// Two separate processes talk over a named socket; checks page-table
/// switch accounting.
#[test]
fn socket_between_processes() {
    let mut k = kernel(1);
    let server = k.create_process("server", false);
    let client = k.create_process("client", false);

    // Server: listen("sv"), accept, read 4 bytes, write them back, exit.
    let mut s = Asm::new();
    s.li_sym(A0, "name");
    a_name(&mut s);
    s.syscall(sysno::SOCK_LISTEN);
    s.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
    s.push(Instr::Add { rd: A0, rs1: S0, rs2: ZERO });
    s.syscall(sysno::SOCK_ACCEPT);
    s.push(Instr::Add { rd: S1, rs1: A0, rs2: ZERO });
    s.push(Instr::Addi { rd: SP, rs1: SP, imm: -8 });
    s.push(Instr::Add { rd: A0, rs1: S1, rs2: ZERO });
    s.push(Instr::Add { rd: A1, rs1: SP, rs2: ZERO });
    s.li(A2, 4);
    s.syscall(sysno::READ);
    s.push(Instr::Add { rd: A0, rs1: S1, rs2: ZERO });
    s.push(Instr::Add { rd: A1, rs1: SP, rs2: ZERO });
    s.li(A2, 4);
    s.syscall(sysno::WRITE);
    s.li(A0, 0);
    s.push(Instr::Halt);
    s.label("name_data");
    // (name bytes live in data memory; see externs below)
    let sprog = s.finish();

    // Client: connect("sv"), write "ping", read back, exit with first byte.
    let mut c = Asm::new();
    c.li_sym(A0, "name");
    a_name(&mut c);
    c.syscall(sysno::SOCK_CONNECT);
    c.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
    c.push(Instr::Addi { rd: SP, rs1: SP, imm: -8 });
    c.li(T0, 0x676e_6970); // "ping"
    c.push(Instr::St { rs1: SP, rs2: T0, imm: 0 });
    c.push(Instr::Add { rd: A0, rs1: S0, rs2: ZERO });
    c.push(Instr::Add { rd: A1, rs1: SP, rs2: ZERO });
    c.li(A2, 4);
    c.syscall(sysno::WRITE);
    c.push(Instr::St { rs1: SP, rs2: ZERO, imm: 0 });
    c.push(Instr::Add { rd: A0, rs1: S0, rs2: ZERO });
    c.push(Instr::Add { rd: A1, rs1: SP, rs2: ZERO });
    c.li(A2, 4);
    c.syscall(sysno::READ);
    c.push(Instr::Ldb { rd: A0, rs1: SP, imm: 0 });
    c.push(Instr::Halt);
    let cprog = c.finish();

    // The name string is placed in each process's data memory.
    for (pid, prog, is_server) in [(server, &sprog, true), (client, &cprog, false)] {
        let name_addr = k.alloc_mem(pid, 4096, simmem::PageFlags::RW);
        let pt = k.procs[&pid].pt;
        k.mem.kwrite(pt, name_addr, b"sv").unwrap();
        let mut externs = HashMap::new();
        externs.insert("name".to_string(), name_addr);
        let img = k.load_program(pid, prog, &externs);
        let tid = k.spawn_thread(pid, img.base, &[]);
        let _ = (tid, is_server);
    }
    k.run_to_completion();
    let client_tid = k.procs[&client].threads[0];
    assert_eq!(k.threads[&client_tid].exit_code, b'p' as u64);
    // Two private page tables on one CPU: switching processes must charge
    // page-table switches.
    assert!(k.breakdown().get(TimeCat::PtSwitch) > 0);
}

/// Helper: emits `a1 = 2` (length of "sv") after `a0 = name`.
fn a_name(a: &mut Asm) {
    a.li(A1, 2);
}

#[test]
fn file_storage_latency_disk_vs_tmpfs() {
    let run = |storage: simkernel::object::Storage| -> f64 {
        let mut k = kernel(1);
        let pid = k.create_process("p", false);
        k.add_file("data", vec![9u8; 4096], storage);
        let name_addr = k.alloc_mem(pid, 4096, simmem::PageFlags::RW);
        let pt = k.procs[&pid].pt;
        k.mem.kwrite(pt, name_addr, b"data").unwrap();
        let mut a = Asm::new();
        a.li_sym(A0, "fname");
        a.li(A1, 4);
        a.syscall(sysno::FILE_OPEN);
        a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
        a.push(Instr::Addi { rd: SP, rs1: SP, imm: -64 });
        a.push(Instr::Add { rd: A0, rs1: S0, rs2: ZERO });
        a.push(Instr::Add { rd: A1, rs1: SP, rs2: ZERO });
        a.li(A2, 64);
        a.syscall(sysno::FILE_READ);
        a.push(Instr::Halt);
        let mut externs = HashMap::new();
        externs.insert("fname".to_string(), name_addr);
        let img = k.load_program(pid, &a.finish(), &externs);
        let tid = k.spawn_thread(pid, img.base, &[]);
        k.run_to_completion();
        assert_eq!(k.threads[&tid].exit_code, 64, "read must return 64 bytes");
        k.cost.ns(k.now_max())
    };
    let tmpfs = run(simkernel::object::Storage::Tmpfs);
    let disk = run(simkernel::object::Storage::Disk);
    assert!(disk > tmpfs + 50_000.0, "disk {disk} ns vs tmpfs {tmpfs} ns");
}

/// L4-style synchronous IPC round trip on one CPU.
#[test]
fn l4_call_reply_same_cpu() {
    let mut k = kernel(1);
    let pid = k.create_process("p", false);
    let iters = 20u64;

    // Server thread: reply_wait loop, adds 1 to the message.
    let mut a = Asm::new();
    // Client: spawn server, l4_call in a loop.
    a.li_sym(A0, "server");
    a.li(A1, 0);
    a.syscall(sysno::SPAWN_THREAD);
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO }); // server tid
    a.li(S1, iters);
    a.li(S2, 0); // accumulator
    a.label("loop_c");
    a.push(Instr::Add { rd: A0, rs1: S0, rs2: ZERO });
    a.push(Instr::Add { rd: A1, rs1: S2, rs2: ZERO }); // msg = acc
    a.syscall(sysno::L4_CALL);
    a.push(Instr::Add { rd: S2, rs1: A0, rs2: ZERO }); // acc = reply
    a.push(Instr::Addi { rd: S1, rs1: S1, imm: -1 });
    a.bne(S1, ZERO, "loop_c");
    a.push(Instr::Add { rd: A0, rs1: S2, rs2: ZERO });
    a.push(Instr::Halt);

    a.align(64);
    a.label("server");
    a.li(A0, 0);
    a.label("loop_s");
    a.syscall(sysno::L4_REPLY_WAIT);
    // a0 = caller tid, a1 = msg. Reply with msg+1.
    a.push(Instr::Add { rd: T0, rs1: A0, rs2: ZERO });
    a.push(Instr::Addi { rd: A1, rs1: A1, imm: 1 });
    a.push(Instr::Add { rd: A0, rs1: T0, rs2: ZERO });
    a.j("loop_s");
    let img = k.load_program(pid, &a.finish(), &HashMap::new());
    let t_c = k.spawn_thread(pid, img.base, &[]);
    // Run until the client halts (the server loops forever).
    loop {
        match k.step_sim() {
            simkernel::KStep::Progress => {
                if matches!(k.threads[&t_c].state, simkernel::ThreadState::Dead) {
                    break;
                }
            }
            other => panic!("unexpected step {other:?}"),
        }
    }
    assert_eq!(k.threads[&t_c].exit_code, iters);
    // L4 round trip should land near the paper's ≈0.9 µs (wide band here;
    // the bench harness asserts tighter).
    let per_rt = k.cost.ns(k.now_max()) / iters as f64;
    assert!((300.0..3000.0).contains(&per_rt), "L4 RT {per_rt} ns out of band");
}

#[test]
fn shm_shared_between_processes() {
    let mut k = kernel(1);
    let p1 = k.create_process("p1", false);
    let p2 = k.create_process("p2", false);

    // p1: create shm, map, write 0xbeef at offset 0, send fd via socket.
    let mut a = Asm::new();
    a.li(A0, 4096);
    a.syscall(sysno::SHM_CREATE);
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
    a.push(Instr::Add { rd: A0, rs1: S0, rs2: ZERO });
    a.syscall(sysno::SHM_MAP);
    a.push(Instr::Add { rd: S1, rs1: A0, rs2: ZERO });
    a.li(T0, 0xbeef);
    a.push(Instr::St { rs1: S1, rs2: T0, imm: 0 });
    // listen + accept + send_fd
    a.li_sym(A0, "nm");
    a.li(A1, 2);
    a.syscall(sysno::SOCK_LISTEN);
    a.push(Instr::Add { rd: A0, rs1: A0, rs2: ZERO });
    a.syscall(sysno::SOCK_ACCEPT);
    a.push(Instr::Add { rd: S2, rs1: A0, rs2: ZERO });
    a.push(Instr::Add { rd: A0, rs1: S2, rs2: ZERO });
    a.push(Instr::Add { rd: A1, rs1: S0, rs2: ZERO });
    a.syscall(sysno::SEND_FD);
    a.li(A0, 0);
    a.push(Instr::Halt);
    let prog1 = a.finish();

    // p2: connect, recv_fd, map, read value.
    let mut a = Asm::new();
    a.li_sym(A0, "nm");
    a.li(A1, 2);
    a.syscall(sysno::SOCK_CONNECT);
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
    a.push(Instr::Add { rd: A0, rs1: S0, rs2: ZERO });
    a.syscall(sysno::RECV_FD);
    a.push(Instr::Add { rd: A0, rs1: A0, rs2: ZERO });
    a.syscall(sysno::SHM_MAP);
    a.push(Instr::Ld { rd: A0, rs1: A0, imm: 0 });
    a.push(Instr::Halt);
    let prog2 = a.finish();

    for (pid, prog) in [(p1, &prog1), (p2, &prog2)] {
        let name_addr = k.alloc_mem(pid, 4096, simmem::PageFlags::RW);
        let pt = k.procs[&pid].pt;
        k.mem.kwrite(pt, name_addr, b"nm").unwrap();
        let mut externs = HashMap::new();
        externs.insert("nm".to_string(), name_addr);
        let img = k.load_program(pid, prog, &externs);
        k.spawn_thread(pid, img.base, &[]);
    }
    k.run_to_completion();
    let t2 = k.procs[&p2].threads[0];
    assert_eq!(k.threads[&t2].exit_code, 0xbeef, "shm must alias across processes");
}

#[test]
fn unknown_syscall_surfaces_to_embedder() {
    let mut k = kernel(1);
    let pid = k.create_process("p", false);
    let mut a = Asm::new();
    a.li(A0, 77);
    a.syscall(123); // unknown
    a.push(Instr::Halt);
    let img = k.load_program(pid, &a.finish(), &HashMap::new());
    k.spawn_thread(pid, img.base, &[]);
    match k.run_until_stop() {
        simkernel::KStep::UnknownSyscall { cpu, nr, args, .. } => {
            assert_eq!(nr, 123);
            assert_eq!(args[0], 77);
            k.syscall_return(cpu, 999);
        }
        other => panic!("expected unknown syscall, got {other:?}"),
    }
    k.run_to_completion();
    let tid = k.procs[&pid].threads[0];
    assert_eq!(k.threads[&tid].exit_code, 999);
}

#[test]
fn user_fault_default_kill() {
    let mut k = kernel(1);
    let pid = k.create_process("p", false);
    let mut a = Asm::new();
    a.push(Instr::Crash);
    let img = k.load_program(pid, &a.finish(), &HashMap::new());
    let tid = k.spawn_thread(pid, img.base, &[]);
    match k.run_until_stop() {
        simkernel::KStep::UserFault { tid: ftid, fault, .. } => {
            assert_eq!(ftid, tid);
            assert_eq!(fault.kind, cdvm::FaultKind::Crash);
            k.default_fault_kill(ftid);
        }
        other => panic!("expected fault, got {other:?}"),
    }
    k.run_to_completion();
    assert!(!k.procs[&pid].alive);
}

#[test]
fn sleep_advances_clock() {
    let mut k = kernel(1);
    let pid = k.create_process("p", false);
    let mut a = Asm::new();
    a.li(A0, 1_000_000); // 1 ms
    a.syscall(sysno::SLEEP_NS);
    a.push(Instr::Halt);
    let img = k.load_program(pid, &a.finish(), &HashMap::new());
    k.spawn_thread(pid, img.base, &[]);
    k.run_to_completion();
    assert!(k.cost.ns(k.now_max()) >= 1_000_000.0);
    assert!(k.breakdown().get(TimeCat::Idle) > 0);
}

#[test]
fn many_threads_preempt_and_finish() {
    let mut k = kernel(2);
    let pid = k.create_process("p", false);
    let mut a = Asm::new();
    // Spin some work, then exit with the arg.
    a.push(Instr::Work { rs1: 0, imm: 2_000_000 });
    a.push(Instr::Add { rd: A0, rs1: A0, rs2: ZERO });
    a.push(Instr::Halt);
    let img = k.load_program(pid, &a.finish(), &HashMap::new());
    let tids: Vec<_> = (0..16).map(|n| k.spawn_thread(pid, img.base, &[n])).collect();
    k.run_to_completion();
    for (n, tid) in tids.iter().enumerate() {
        assert_eq!(k.threads[tid].exit_code, n as u64);
    }
}

/// The kernel reaches the per-CPU words through the frame it cached for
/// the page, guarded by the global page table's generation. Remapping the
/// page to another frame between slices must move both `current_pid` and
/// the next context switch's writes to the new frame.
#[test]
fn percpu_words_follow_a_remapped_page() {
    let mut k = kernel(1);
    let pid = k.create_process("p", false);
    let mut a = Asm::new();
    // Three rounds of ~620k cycles of work (two max-length slices) and a
    // yield, then exit with getpid().
    a.li(S0, 3);
    a.label("round");
    a.li(S1, 200);
    a.label("work");
    a.push(Instr::Work { rs1: 0, imm: 3100 });
    a.push(Instr::Addi { rd: S1, rs1: S1, imm: -1 });
    a.bne(S1, ZERO, "work");
    a.syscall(sysno::YIELD);
    a.push(Instr::Addi { rd: S0, rs1: S0, imm: -1 });
    a.bne(S0, ZERO, "round");
    a.syscall(sysno::GETPID);
    a.push(Instr::Halt);
    let img = k.load_program(pid, &a.finish(), &HashMap::new());
    let tids = [k.spawn_thread(pid, img.base, &[]), k.spawn_thread(pid, img.base, &[])];

    // One slice: a thread is switched in and runs into the slice deadline.
    assert_eq!(k.step_sim(), KStep::Progress);
    let first = k.cpus[0].current.expect("the first slice ends mid-work");
    assert_eq!(k.current_pid(0), pid);

    // Remap the page to a fresh frame holding the same words and poison
    // the old frame, which stays allocated.
    let base = k.cpus[0].percpu_base;
    let old = k.mem.lookup_pte(Memory::GLOBAL_PT, base).expect("percpu page mapped");
    let new = k.mem.phys_mut().alloc_frame();
    k.mem.phys_mut().copy_frame(old.frame, new);
    for off in (0..percpu::SCRATCH).step_by(8) {
        k.mem.phys_mut().write_u64(old.frame, off, 0xdead);
    }
    k.mem.map_shared(Memory::GLOBAL_PT, base, new, old.flags, old.tag);
    assert_eq!(k.current_pid(0), pid, "current_pid read the old frame");

    // Run to the next switch-in of the other thread.
    let other = if first == tids[0] { tids[1] } else { tids[0] };
    while k.cpus[0].current != Some(other) {
        assert_eq!(k.step_sim(), KStep::Progress);
    }
    assert_eq!(k.mem.phys().read_u64(new, percpu::CUR_TID), other.0);
    assert_eq!(
        k.mem.phys().read_u64(old.frame, percpu::CUR_TID),
        0xdead,
        "load_thread wrote the old frame"
    );
    k.run_to_completion();
    for tid in tids {
        assert_eq!(k.threads[&tid].exit_code, pid.0);
    }
}

// ---------------------------------------------------------------------
// Scheduler regression: a 4-CPU, 256-thread mix pinned to constants.
// ---------------------------------------------------------------------

/// `s2` rounds of a 16-byte socket exchange on fd `s0`, client or server
/// order.
fn emit_sock_rounds(a: &mut Asm, client: bool, tag: &str) {
    a.push(Instr::Addi { rd: SP, rs1: SP, imm: -16 });
    a.li(S2, 8);
    a.label(tag);
    let order = if client { [sysno::WRITE, sysno::READ] } else { [sysno::READ, sysno::WRITE] };
    for n in order {
        a.push(Instr::Add { rd: A0, rs1: S0, rs2: ZERO });
        a.push(Instr::Add { rd: A1, rs1: SP, rs2: ZERO });
        a.li(A2, 16);
        a.syscall(n);
    }
    a.push(Instr::Addi { rd: S2, rs1: S2, imm: -1 });
    a.bne(S2, ZERO, tag);
}

/// The guest side of `scheduler_mix`: one entry label per thread kind,
/// each taking its parameters in a0/a1 and exiting with its kind number.
fn build_sched_mix() -> cdvm::asm::Program {
    let mut a = Asm::new();
    // Futex pair, a0 = the pair's two words: side A posts first.
    a.label("futex_a");
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
    a.push(Instr::Addi { rd: S1, rs1: A0, imm: 8 });
    a.li(S2, 12);
    a.label("loop_fa");
    emit_post(&mut a, S0);
    emit_wait(&mut a, S1, "fa");
    a.push(Instr::Addi { rd: S2, rs1: S2, imm: -1 });
    a.bne(S2, ZERO, "loop_fa");
    a.li(A0, 1);
    a.push(Instr::Halt);
    a.label("futex_b");
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
    a.push(Instr::Addi { rd: S1, rs1: A0, imm: 8 });
    a.li(S2, 12);
    a.label("loop_fb");
    emit_wait(&mut a, S0, "fb");
    emit_post(&mut a, S1);
    a.push(Instr::Addi { rd: S2, rs1: S2, imm: -1 });
    a.bne(S2, ZERO, "loop_fb");
    a.li(A0, 2);
    a.push(Instr::Halt);
    // Yielder, a0 = index: uneven bursts of work between yields.
    a.label("yielder");
    a.li(T1, 370);
    a.push(Instr::Mul { rd: S0, rs1: A0, rs2: T1 });
    a.push(Instr::Addi { rd: S0, rs1: S0, imm: 3000 });
    a.li(S2, 20);
    a.label("loop_y");
    a.push(Instr::Work { rs1: S0, imm: 0 });
    a.syscall(sysno::YIELD);
    a.push(Instr::Addi { rd: S2, rs1: S2, imm: -1 });
    a.bne(S2, ZERO, "loop_y");
    a.li(A0, 3);
    a.push(Instr::Halt);
    // Sleeper, a0 = nanoseconds per nap, a1 = CPU to pin to + 1 (0: none).
    a.label("sleeper");
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
    a.beq(A1, ZERO, "unpinned");
    a.push(Instr::Addi { rd: A0, rs1: A1, imm: -1 });
    a.syscall(sysno::PIN_CPU);
    a.label("unpinned");
    a.li(S2, 40);
    a.label("loop_s");
    a.push(Instr::Add { rd: A0, rs1: S0, rs2: ZERO });
    a.syscall(sysno::SLEEP_NS);
    a.push(Instr::Work { rs1: 0, imm: 900 });
    a.push(Instr::Addi { rd: S2, rs1: S2, imm: -1 });
    a.bne(S2, ZERO, "loop_s");
    a.li(A0, 4);
    a.push(Instr::Halt);
    // Socket client / server, a0 = address of the 2-byte name.
    a.label("client");
    a.li(A1, 2);
    a.syscall(sysno::SOCK_CONNECT);
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
    emit_sock_rounds(&mut a, true, "loop_c");
    a.li(A0, 5);
    a.push(Instr::Halt);
    a.label("server");
    a.li(A1, 2);
    a.syscall(sysno::SOCK_LISTEN);
    a.syscall(sysno::SOCK_ACCEPT);
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
    emit_sock_rounds(&mut a, false, "loop_v");
    a.li(A0, 6);
    a.push(Instr::Halt);
    // Parked on a word only the host posts.
    a.label("parked");
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
    emit_wait(&mut a, S0, "pk");
    a.li(A0, 7);
    a.push(Instr::Halt);
    a.finish()
}

/// What a `scheduler_mix` run is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct MixPrint {
    now_max: u64,
    /// Per CPU, cycles per `TimeCat::ALL` category.
    breakdown: [[u64; 7]; 4],
    /// FNV-1a over every thread's `cpu_time` in tid order, and their sum.
    cpu_time_fnv: u64,
    cpu_time_sum: u64,
}

/// 48 futex pairs, 79 yielders, 48 sleepers (a fifth of them `PIN_CPU`
/// themselves), 16 socket clients against 16 servers in a second process,
/// one thread parked on a futex; a sixth of the yielders pinned from the
/// host. Threads start on CPU `tid % 4`, so the spawn order below loads the
/// CPUs unevenly on purpose (CPU 3 gets yielders only, CPU 1 sleepers and
/// clients): with stealing on, the CPUs that nap raid the ones that queue.
/// Part-way through, the host kills the first queued yielder and wakes the
/// parked thread with a `ready_at` floor.
fn scheduler_mix(wake: WakePolicy, steal: bool) -> MixPrint {
    let mut k = Kernel::new(KernelConfig { cpus: 4, wake, steal, ..KernelConfig::default() });
    let mix = k.create_process("mix", false);
    let srv = k.create_process("srv", false);
    let prog = build_sched_mix();
    let img = k.load_program(mix, &prog, &HashMap::new());
    let simg = k.load_program(srv, &prog, &HashMap::new());
    let data = k.alloc_mem(mix, 4096, simmem::PageFlags::RW);
    let sdata = k.alloc_mem(srv, 4096, simmem::PageFlags::RW);
    let (pt, spt) = (k.procs[&mix].pt, k.procs[&srv].pt);
    let (names, park) = (2048, 1024);
    for j in 0..16u64 {
        for (pt, base) in [(pt, data), (spt, sdata)] {
            k.mem.kwrite(pt, base + names + 8 * j, &[b's', b'a' + j as u8]).unwrap();
        }
    }
    let mut yielders = Vec::new();
    let mut parked = None;
    let mut yielder = |k: &mut Kernel, n: u64| {
        let t = k.spawn_thread(mix, img.addr("yielder"), &[n]);
        if n.is_multiple_of(6) {
            k.pin_thread(t, (n as usize / 6) % 4);
        }
        yielders.push(t);
    };
    for g in 0..64u64 {
        if g < 48 {
            let pin = if g.is_multiple_of(5) { 1 + (g / 5) % 4 } else { 0 };
            k.spawn_thread(mix, img.addr("sleeper"), &[2000 + 700 * g, pin]);
            k.spawn_thread(mix, img.addr("futex_a"), &[data + 16 * g]);
        } else {
            k.spawn_thread(mix, img.addr("client"), &[data + names + 8 * (g - 48)]);
            k.spawn_thread(srv, simg.addr("server"), &[sdata + names + 8 * (g - 48)]);
        }
        if g == 0 {
            parked = Some(k.spawn_thread(mix, img.addr("parked"), &[data + park]));
        } else {
            yielder(&mut k, g - 1);
        }
        if g < 48 {
            k.spawn_thread(mix, img.addr("futex_b"), &[data + 16 * g]);
        } else {
            yielder(&mut k, 15 + g);
        }
    }
    let (park, parked) = (data + park, parked.expect("spawned in the first group"));
    assert_eq!(k.threads.len(), 256);

    let mut poked = false;
    loop {
        match k.step_sim() {
            simkernel::KStep::Progress => {}
            simkernel::KStep::Finished => break,
            other => panic!("unexpected {other:?}"),
        }
        if !poked && k.now_max() >= 400_000 {
            poked = true;
            let victim = *yielders
                .iter()
                .find(|t| k.threads[t].state == simkernel::ThreadState::Runnable)
                .expect("a yielder is queued");
            k.kill_thread(victim);
            k.mem.kwrite_u64(pt, park, 1).unwrap();
            let at = k.now_max() + 50_000;
            assert_eq!(k.host_futex_wake_at(pt, park, 1, at), 1);
        }
    }
    assert!(poked);
    assert_eq!(k.threads[&parked].exit_code, 7);

    let mut tids: Vec<_> = k.threads.keys().copied().collect();
    tids.sort();
    let mut print = MixPrint {
        now_max: k.now_max(),
        breakdown: [[0; 7]; 4],
        cpu_time_fnv: 0xcbf2_9ce4_8422_2325,
        cpu_time_sum: 0,
    };
    for (row, slot) in print.breakdown.iter_mut().zip(&k.cpus) {
        *row = TimeCat::ALL.map(|cat| slot.breakdown.get(cat));
    }
    for t in &tids {
        let ct = k.threads[t].cpu_time;
        print.cpu_time_fnv = (print.cpu_time_fnv ^ ct).wrapping_mul(0x0000_0100_0000_01b3);
        print.cpu_time_sum += ct;
    }
    print
}

/// The schedule is a contract: these constants were captured on the commit
/// before the run queues carried `ready_at` and the kernel tables moved to
/// `IdMap`. Debug builds also check the queued entries against the thread
/// table on every step.
#[test]
fn scheduler_mix_matches_pinned_schedule() {
    let (off, on) =
        (scheduler_mix(WakePolicy::Local, false), scheduler_mix(WakePolicy::Local, true));
    assert_ne!(off, on, "the mix must make the napping CPUs steal");
    assert_eq!(
        off,
        MixPrint {
            now_max: 19447833,
            breakdown: [
                [8900620, 109690, 40742, 727720, 1081700, 240, 2038002],
                [2971410, 140140, 52052, 626652, 1982640, 240, 1226457],
                [1071893, 110600, 41080, 1412112, 932110, 38160, 3674634],
                [16321092, 82670, 30706, 2860, 1269210, 240, 1741055],
            ],
            cpu_time_fnv: 5476189045856254906,
            cpu_time_sum: 29454915,
        }
    );
    assert_eq!(
        on,
        MixPrint {
            now_max: 14651430,
            breakdown: [
                [10616856, 105210, 39078, 541500, 1153890, 240, 0],
                [4582353, 146370, 54366, 623752, 2082850, 240, 0],
                [2272719, 128660, 47788, 1378632, 1110440, 40080, 1847398],
                [11793437, 62860, 23348, 2860, 936770, 240, 1831915],
            ],
            cpu_time_fnv: 13044312134356463546,
            cpu_time_sum: 29455265,
        }
    );
}

/// `WakePolicy::Spread` (the Linux OLTP stack's policy) with stealing on,
/// pinned like the two runs above. Captured on the commit before the run
/// queues moved behind `simkernel::sched::RunQueues`.
#[test]
fn scheduler_mix_spread_matches_pinned_schedule() {
    assert_eq!(
        scheduler_mix(WakePolicy::Spread, true),
        MixPrint {
            now_max: 14325387,
            breakdown: [
                [10559272, 102830, 38194, 482320, 1142530, 240, 63247],
                [4457727, 152530, 56654, 684675, 2101460, 240, 648993],
                [2763596, 125790, 46722, 1286099, 1134180, 40560, 2700296],
                [11484670, 61950, 23010, 15250, 906710, 240, 1833557],
            ],
            cpu_time_fnv: 2031951200479307818,
            cpu_time_sum: 29455165,
        }
    );
}

/// Under `WakePolicy::Spread` a wake offers an unpinned thread the
/// least-loaded CPU, but takes it only when that CPU is idle and not the
/// waker's own. Otherwise the thread goes back on its last CPU and no IPI
/// is sent. `fig1` and `fig8` depend on this fallback.
#[test]
fn spread_wake_to_a_busy_target_queues_on_the_last_cpu() {
    let mut k =
        Kernel::new(KernelConfig { cpus: 3, wake: WakePolicy::Spread, ..KernelConfig::default() });
    let pid = k.create_process("p", false);
    let mut a = Asm::new();
    // Burns about a million cycles (well inside one quantum) and exits 1.
    a.label("spin");
    a.li(S2, 500);
    a.label("loop");
    a.push(Instr::Work { rs1: 0, imm: 2000 });
    a.push(Instr::Addi { rd: S2, rs1: S2, imm: -1 });
    a.bne(S2, ZERO, "loop");
    a.li(A0, 1);
    a.push(Instr::Halt);
    a.label("parked");
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
    emit_wait(&mut a, S0, "pk");
    a.li(A0, 2);
    a.push(Instr::Halt);
    let img = k.load_program(pid, &a.finish(), &HashMap::new());
    let word = k.alloc_mem(pid, 4096, simmem::PageFlags::RW);
    let pt = k.procs[&pid].pt;
    let spin = |k: &mut Kernel, cpu| {
        let t = k.spawn_thread(pid, img.addr("spin"), &[]);
        k.pin_thread(t, cpu);
    };
    // Threads start on CPU `tid % 3`: the parked thread (tid 2) on CPU 2.
    spin(&mut k, 0);
    let parked = k.spawn_thread(pid, img.addr("parked"), &[word]);
    spin(&mut k, 0);
    spin(&mut k, 1);
    spin(&mut k, 2);
    let blocked = |k: &Kernel| matches!(k.threads[&parked].state, ThreadState::Blocked(_));
    while !(blocked(&k) && k.cpus.iter().all(|c| c.current.is_some())) {
        assert_eq!(k.step_sim(), KStep::Progress);
    }
    assert_eq!(k.threads[&parked].last_cpu, 2);
    assert!(k.events.is_empty());
    // A host wake comes from CPU 0. Loads are 2, 1, 1: the target is CPU 1,
    // which is busy.
    k.mem.kwrite_u64(pt, word, 1).unwrap();
    assert_eq!(k.host_futex_wake_at(pt, word, 1, 0), 1);
    assert!(k.events.is_empty(), "an IPI was sent to a busy CPU");
    while k.threads[&parked].state == ThreadState::Runnable {
        assert_eq!(k.step_sim(), KStep::Progress);
    }
    assert_eq!(k.threads[&parked].state, ThreadState::Running(2), "not queued on its last CPU");
    k.run_to_completion();
    assert_eq!(k.threads[&parked].exit_code, 2);
}
