//! Kernel edge cases: EOF/EPIPE semantics, bad descriptors, futex races,
//! affinity, and error paths.

use std::collections::HashMap;

use cdvm::isa::reg::*;
use cdvm::{Asm, Instr};
use simkernel::syscall::{decode, errno};
use simkernel::{sysno, Kernel, KernelConfig};

fn run_one(prog: cdvm::asm::Program, data: &[(&str, u64)]) -> (Kernel, simkernel::Tid) {
    let mut k = Kernel::new(KernelConfig { cpus: 1, ..KernelConfig::default() });
    let pid = k.create_process("p", false);
    let mut ex = HashMap::new();
    for (name, size) in data {
        ex.insert(name.to_string(), k.alloc_mem(pid, *size, simmem::PageFlags::RW));
    }
    let img = k.load_program(pid, &prog, &ex);
    let tid = k.spawn_thread(pid, img.base, &[]);
    k.run_to_completion();
    (k, tid)
}

#[test]
fn read_from_bad_fd_is_ebadf() {
    let mut a = Asm::new();
    a.li(A0, 99);
    a.li_sym(A1, "$buf");
    a.li(A2, 8);
    a.syscall(sysno::READ);
    a.push(Instr::Halt);
    let (k, tid) = run_one(a.finish(), &[("$buf", 4096)]);
    assert_eq!(decode(k.threads[&tid].exit_code), Err(errno::EBADF));
}

#[test]
fn write_to_pipe_without_readers_is_epipe() {
    let mut a = Asm::new();
    a.syscall(sysno::PIPE2);
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
    // Close the read end (high half of the return).
    a.push(Instr::Srli { rd: A0, rs1: S0, imm: 32 });
    a.syscall(sysno::CLOSE);
    // Write to the write end.
    a.li(T1, 0xffff_ffff);
    a.push(Instr::And { rd: A0, rs1: S0, rs2: T1 });
    a.li_sym(A1, "$buf");
    a.li(A2, 4);
    a.syscall(sysno::WRITE);
    a.push(Instr::Halt);
    let (k, tid) = run_one(a.finish(), &[("$buf", 4096)]);
    assert_eq!(decode(k.threads[&tid].exit_code), Err(errno::EPIPE));
}

#[test]
fn read_from_closed_pipe_is_eof() {
    let mut a = Asm::new();
    a.syscall(sysno::PIPE2);
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
    // Close the write end.
    a.li(T1, 0xffff_ffff);
    a.push(Instr::And { rd: A0, rs1: S0, rs2: T1 });
    a.syscall(sysno::CLOSE);
    // Read returns 0 (EOF), not a block.
    a.push(Instr::Srli { rd: A0, rs1: S0, imm: 32 });
    a.li_sym(A1, "$buf");
    a.li(A2, 8);
    a.syscall(sysno::READ);
    a.push(Instr::Addi { rd: A0, rs1: A0, imm: 100 });
    a.push(Instr::Halt);
    let (k, tid) = run_one(a.finish(), &[("$buf", 4096)]);
    assert_eq!(k.threads[&tid].exit_code, 100, "read returned 0 at EOF");
}

#[test]
fn futex_wait_value_mismatch_is_eagain() {
    let mut a = Asm::new();
    a.li_sym(S0, "$word");
    a.li(T0, 5);
    a.push(Instr::St { rs1: S0, rs2: T0, imm: 0 });
    a.push(Instr::Add { rd: A0, rs1: S0, rs2: ZERO });
    a.li(A1, 0); // expect 0, actual 5
    a.syscall(sysno::FUTEX_WAIT);
    a.push(Instr::Halt);
    let (k, tid) = run_one(a.finish(), &[("$word", 4096)]);
    assert_eq!(decode(k.threads[&tid].exit_code), Err(errno::EAGAIN));
}

#[test]
fn futex_wake_with_no_waiters_returns_zero() {
    let mut a = Asm::new();
    a.li_sym(A0, "$word");
    a.li(A1, 10);
    a.syscall(sysno::FUTEX_WAKE);
    a.push(Instr::Addi { rd: A0, rs1: A0, imm: 50 });
    a.push(Instr::Halt);
    let (k, tid) = run_one(a.finish(), &[("$word", 4096)]);
    assert_eq!(k.threads[&tid].exit_code, 50);
}

#[test]
fn pin_to_invalid_cpu_is_einval() {
    let mut a = Asm::new();
    a.li(A0, 12);
    a.syscall(sysno::PIN_CPU);
    a.push(Instr::Halt);
    let (k, tid) = run_one(a.finish(), &[]);
    assert_eq!(decode(k.threads[&tid].exit_code), Err(errno::EINVAL));
}

#[test]
fn mmap_zero_is_einval() {
    let mut a = Asm::new();
    a.li(A0, 0);
    a.syscall(sysno::MMAP);
    a.push(Instr::Halt);
    let (k, tid) = run_one(a.finish(), &[]);
    assert_eq!(decode(k.threads[&tid].exit_code), Err(errno::EINVAL));
}

#[test]
fn listen_duplicate_name_is_einval() {
    let mut a = Asm::new();
    a.li_sym(A0, "$nm");
    a.li(A1, 2);
    a.syscall(sysno::SOCK_LISTEN);
    a.li_sym(A0, "$nm");
    a.li(A1, 2);
    a.syscall(sysno::SOCK_LISTEN);
    a.push(Instr::Halt);
    let mut k = Kernel::new(KernelConfig { cpus: 1, ..KernelConfig::default() });
    let pid = k.create_process("p", false);
    let nm = k.alloc_mem(pid, 4096, simmem::PageFlags::RW);
    let pt = k.procs[&pid].pt;
    k.mem.kwrite(pt, nm, b"nm").unwrap();
    let mut ex = HashMap::new();
    ex.insert("$nm".to_string(), nm);
    let img = k.load_program(pid, &a.finish(), &ex);
    let tid = k.spawn_thread(pid, img.base, &[]);
    k.run_to_completion();
    assert_eq!(decode(k.threads[&tid].exit_code), Err(errno::EINVAL));
}

#[test]
fn exit_group_kills_sibling_threads() {
    let mut k = Kernel::new(KernelConfig { cpus: 1, ..KernelConfig::default() });
    let pid = k.create_process("p", false);
    let mut a = Asm::new();
    // Main: spawn a spinner, then exit_group.
    a.li_sym(A0, "spinner");
    a.li(A1, 0);
    a.syscall(sysno::SPAWN_THREAD);
    a.li(A0, 3);
    a.syscall(sysno::EXIT_GROUP);
    a.align(64);
    a.label("spinner");
    a.label("fv");
    a.j("fv");
    let img = k.load_program(pid, &a.finish(), &HashMap::new());
    let t0 = k.spawn_thread(pid, img.base, &[]);
    k.run_to_completion();
    assert!(!k.procs[&pid].alive);
    for t in k.procs[&pid].threads.clone() {
        assert!(matches!(k.threads[&t].state, simkernel::ThreadState::Dead));
    }
    let _ = t0;
}

#[test]
fn l4_call_to_missing_thread_is_esrch() {
    let mut a = Asm::new();
    a.li(A0, 777); // no such tid
    a.syscall(sysno::L4_CALL);
    a.push(Instr::Halt);
    let (k, tid) = run_one(a.finish(), &[]);
    assert_eq!(decode(k.threads[&tid].exit_code), Err(errno::ESRCH));
}

#[test]
fn sleep_orders_multiple_timers() {
    // Three threads sleep 3ms/1ms/2ms and append their id to a log cell on
    // wake; the wake order must follow the deadlines.
    let mut k = Kernel::new(KernelConfig { cpus: 1, ..KernelConfig::default() });
    let pid = k.create_process("p", false);
    let log = k.alloc_mem(pid, 4096, simmem::PageFlags::RW);
    let mut a = Asm::new();
    // a0 = id, a1 = ns.
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
    a.push(Instr::Add { rd: A0, rs1: A1, rs2: ZERO });
    a.syscall(sysno::SLEEP_NS);
    // log = log * 10 + id.
    a.li_sym(T0, "$log");
    a.push(Instr::Ld { rd: T1, rs1: T0, imm: 0 });
    a.li(T2, 10);
    a.push(Instr::Mul { rd: T1, rs1: T1, rs2: T2 });
    a.push(Instr::Add { rd: T1, rs1: T1, rs2: S0 });
    a.push(Instr::St { rs1: T0, rs2: T1, imm: 0 });
    a.push(Instr::Halt);
    let mut ex = HashMap::new();
    ex.insert("$log".to_string(), log);
    let img = k.load_program(pid, &a.finish(), &ex);
    k.spawn_thread(pid, img.base, &[1, 3_000_000]);
    k.spawn_thread(pid, img.base, &[2, 1_000_000]);
    k.spawn_thread(pid, img.base, &[3, 2_000_000]);
    k.run_to_completion();
    let pt = k.procs[&pid].pt;
    assert_eq!(k.mem.kread_u64(pt, log).unwrap(), 231, "wake order 2,3,1");
}

#[test]
fn read_into_half_mapped_buffer_is_efault_and_consumes_the_bytes() {
    // The ring gives up its bytes before the copy-out, and the copy-out
    // validates the whole user range before it writes any of it: a read
    // whose buffer runs off the end of a mapping fails with EFAULT, the
    // bytes are gone, and the mapped part of the buffer is untouched.
    use simkernel::object::{KObject, Pipe, Sock};
    for sock in [false, true] {
        let mut k = Kernel::new(KernelConfig { cpus: 1, ..KernelConfig::default() });
        let pid = k.create_process("p", false);
        let (wobj, robj) = if sock {
            k.socks.push(Sock { peer: 1, ..Sock::new() });
            k.socks.push(Sock { peer: 0, ..Sock::new() });
            (KObject::Sock(0), KObject::Sock(1))
        } else {
            k.pipes.push(Pipe::new());
            (KObject::PipeWrite(0), KObject::PipeRead(0))
        };
        let proc = k.procs.get_mut(&pid).unwrap();
        let (wfd, rfd) = (proc.add_fd(wobj).0, proc.add_fd(robj).0);
        let pt = proc.pt;
        let src = k.alloc_mem(pid, 4096, simmem::PageFlags::RW);
        let dst = k.alloc_mem(pid, 2 * 4096, simmem::PageFlags::RW);
        k.mem.unmap(pt, dst + 4096, 1);
        k.mem.kwrite(pt, src, &[0x5a; 200]).unwrap();
        k.mem.kwrite(pt, dst + 4096 - 100, &[0xee; 100]).unwrap();

        let mut a = Asm::new();
        a.li(A0, wfd as u64);
        a.li(A1, src);
        a.li(A2, 200);
        a.syscall(sysno::WRITE);
        a.li(A0, rfd as u64);
        a.li(A1, dst + 4096 - 100);
        a.li(A2, 200);
        a.syscall(sysno::READ);
        a.push(Instr::Halt);
        let img = k.load_program(pid, &a.finish(), &HashMap::new());
        let tid = k.spawn_thread(pid, img.base, &[]);
        k.run_to_completion();

        assert_eq!(decode(k.threads[&tid].exit_code), Err(errno::EFAULT), "sock={sock}");
        let left = if sock { k.socks[1].rx.len() } else { k.pipes[0].buf.len() };
        assert_eq!(left, 0, "sock={sock}: the failed read still consumed the bytes");
        let mut tail = [0u8; 100];
        k.mem.kread(pt, dst + 4096 - 100, &mut tail).unwrap();
        assert_eq!(tail, [0xee; 100], "sock={sock}: no partial copy-out");
    }
}
