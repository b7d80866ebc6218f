//! Socket and pipe copy paths: transfers larger than the receive buffer
//! must not deadlock (senders park on the destination end's waiter list),
//! bytes arrive in order however the ring has wrapped, and the simulated
//! clocks do not depend on how the host moves the bytes.

use std::collections::HashMap;

use cdvm::isa::reg::*;
use cdvm::{Asm, Instr};
use simkernel::object::{KObject, Pipe, Sock, SOCK_CAPACITY};
use simkernel::{sysno, KStep, Kernel, KernelConfig};

/// What the transfer tests move bytes through.
#[derive(Clone, Copy, Debug)]
enum Chan {
    Sock,
    Pipe,
}

/// The byte the first writer's buffer holds at offset `k`.
fn pattern(k: u64) -> u8 {
    (k * 7 + k / 251 + 3) as u8
}

/// One `read_all`/`write_all` leg of a guest program: syscall `nr` on `fd`
/// over the `total`-byte buffer at symbol `buf`, at most `chunk` bytes a
/// call, optionally yielding the CPU after every call.
struct Leg {
    nr: u64,
    fd: u32,
    buf: &'static str,
    chunk: u64,
    yield_each: bool,
}

/// `rounds` times over: each leg in turn, looped until it has moved `total`
/// bytes. Exits with the last leg's byte count.
fn program(rounds: u64, total: u64, legs: &[Leg]) -> cdvm::asm::Program {
    let mut a = Asm::new();
    a.li(S4, rounds);
    a.li(S2, total);
    a.label("round");
    for (n, leg) in legs.iter().enumerate() {
        let (again, len_ok, done) = (format!("again{n}"), format!("len_ok{n}"), format!("done{n}"));
        a.li(S0, leg.fd as u64);
        a.li_sym(S1, leg.buf);
        a.li(S3, leg.chunk);
        a.li(T1, 0);
        a.label(&again);
        a.bgeu(T1, S2, &done);
        a.push(Instr::Sub { rd: A2, rs1: S2, rs2: T1 });
        a.bltu(A2, S3, &len_ok);
        a.push(Instr::Add { rd: A2, rs1: S3, rs2: ZERO });
        a.label(&len_ok);
        a.push(Instr::Add { rd: A0, rs1: S0, rs2: ZERO });
        a.push(Instr::Add { rd: A1, rs1: S1, rs2: T1 });
        a.syscall(leg.nr);
        a.push(Instr::Add { rd: T1, rs1: T1, rs2: A0 });
        if leg.yield_each {
            a.syscall(sysno::YIELD);
        }
        a.j(&again);
        a.label(&done);
    }
    a.push(Instr::Addi { rd: S4, rs1: S4, imm: -1 });
    a.bne(S4, ZERO, "round");
    a.push(Instr::Add { rd: A0, rs1: T1, rs2: ZERO });
    a.push(Instr::Halt);
    a.finish()
}

/// Two processes joined by a `capacity`-byte channel each way. Returns the
/// kernel, the processes and each side's `(write fd, read fd)`.
fn joined(
    chan: Chan,
    cpus: usize,
    capacity: usize,
) -> (Kernel, [simkernel::Pid; 2], [(u32, u32); 2]) {
    let mut k = Kernel::new(KernelConfig { cpus, ..KernelConfig::default() });
    let pids = [k.create_process("a", false), k.create_process("b", false)];
    let fd = |k: &mut Kernel, side: usize, obj| k.procs.get_mut(&pids[side]).unwrap().add_fd(obj).0;
    let fds = match chan {
        Chan::Sock => {
            let s = k.socks.len();
            for peer in [s + 1, s] {
                k.socks.push(Sock { peer, capacity, ..Sock::new() });
            }
            let (a, b) = (fd(&mut k, 0, KObject::Sock(s)), fd(&mut k, 1, KObject::Sock(s + 1)));
            [(a, a), (b, b)]
        }
        Chan::Pipe => {
            let p = k.pipes.len();
            for _ in 0..2 {
                k.pipes.push(Pipe { capacity, ..Pipe::new() });
            }
            [
                (fd(&mut k, 0, KObject::PipeWrite(p)), fd(&mut k, 0, KObject::PipeRead(p + 1))),
                (fd(&mut k, 1, KObject::PipeWrite(p + 1)), fd(&mut k, 1, KObject::PipeRead(p))),
            ]
        }
    };
    (k, pids, fds)
}

/// Loads one program per process (each with `total`-byte `$buf` and `$back`
/// buffers, side 0's `$buf` holding [`pattern`]), pins side 0 to CPU 0 and
/// side 1 to the last CPU, and runs to completion. Returns the threads,
/// the `$buf`/`$back` addresses per side, and whether a ring was ever seen
/// split across the end of its storage (both `as_slices` halves non-empty).
fn run(
    k: &mut Kernel,
    pids: [simkernel::Pid; 2],
    progs: [cdvm::asm::Program; 2],
    total: u64,
) -> ([simkernel::Tid; 2], [[u64; 2]; 2], bool) {
    let last_cpu = k.cpus.len() - 1;
    let mut tids = Vec::new();
    let mut bufs = Vec::new();
    for (side, prog) in progs.iter().enumerate() {
        let pid = pids[side];
        let addrs = [(); 2].map(|_| k.alloc_mem(pid, total, simmem::PageFlags::RW));
        let ex = HashMap::from([("$buf".to_string(), addrs[0]), ("$back".to_string(), addrs[1])]);
        let img = k.load_program(pid, prog, &ex);
        let tid = k.spawn_thread(pid, img.base, &[]);
        k.pin_thread(tid, side * last_cpu);
        tids.push(tid);
        bufs.push(addrs);
    }
    let src: Vec<u8> = (0..total).map(pattern).collect();
    k.mem.kwrite(k.procs[&pids[0]].pt, bufs[0][0], &src).unwrap();
    let mut split = false;
    loop {
        match k.step_sim() {
            KStep::Progress => {}
            KStep::Finished => break,
            other => panic!("unexpected {other:?}"),
        }
        split |= k.socks.iter().any(|s| !s.rx.as_slices().1.is_empty())
            || k.pipes.iter().any(|p| !p.buf.as_slices().1.is_empty());
    }
    ([tids[0], tids[1]], [bufs[0], bufs[1]], split)
}

fn read_back(k: &Kernel, pid: simkernel::Pid, addr: u64, total: u64) -> Vec<u8> {
    let mut got = vec![0u8; total as usize];
    k.mem.kread(k.procs[&pid].pt, addr, &mut got).unwrap();
    got
}

#[test]
fn oversized_socket_transfer_completes() {
    let total: u64 = 512 * 1024; // 512 KiB >> the 208 KiB socket buffer
    let (mut k, pids, fds) = joined(Chan::Sock, 1, SOCK_CAPACITY);
    let leg = |nr, fd| Leg { nr, fd, buf: "$buf", chunk: total, yield_each: false };
    let progs = [
        program(1, total, &[leg(sysno::WRITE, fds[0].0)]),
        program(1, total, &[leg(sysno::READ, fds[1].1)]),
    ];
    let (tids, ..) = run(&mut k, pids, progs, total);
    assert_eq!(k.threads[&tids[1]].exit_code, total, "all bytes arrived");
}

#[test]
fn wrapped_ring_transfers_arrive_in_order() {
    // One CPU, a 257-byte channel fed 100 bytes at a time and drained 64 at
    // a time with a yield after every read: the ring stays nearly full, so
    // the writer keeps hitting the capacity (partial writes, then parks and
    // must be woken by the reader), the reader's `len` stays below what is
    // buffered (partial reads), and the ring's head laps its storage many
    // times over 6000 bytes without the ring ever draining (which would
    // reset it).
    let total = 6000;
    for chan in [Chan::Sock, Chan::Pipe] {
        let (mut k, pids, fds) = joined(chan, 1, 257);
        let leg = |nr, fd, chunk, yield_each| Leg { nr, fd, buf: "$buf", chunk, yield_each };
        let progs = [
            program(1, total, &[leg(sysno::WRITE, fds[0].0, 100, false)]),
            program(1, total, &[leg(sysno::READ, fds[1].1, 64, true)]),
        ];
        let (tids, bufs, split) = run(&mut k, pids, progs, total);
        assert!(split, "{chan:?}: the ring never wrapped; both halves are not covered");
        assert_eq!(k.threads[&tids[0]].exit_code, total, "{chan:?}: writer finished");
        assert_eq!(k.threads[&tids[1]].exit_code, total, "{chan:?}: reader finished");
        let want: Vec<u8> = (0..total).map(pattern).collect();
        assert!(read_back(&k, pids[1], bufs[1][0], total) == want, "{chan:?}: reordered or lost");
    }
}

/// `(now_max, side 0 cpu_time, side 1 cpu_time)` of the 2-CPU ping-pongs
/// below, captured on the commit before the kernel bounce buffer went in.
const SOCK_PING_PONG: (u64, u64, u64) = (799_539, 14_561, 14_561);
const PIPE_PING_PONG: (u64, u64, u64) = (1_378_707, 14_573, 14_573);

#[test]
fn two_cpu_ping_pong_matches_pinned_clocks() {
    // 12 rounds of a 5000-byte message echoed through 1000-byte channels in
    // 700-byte writes and 300-byte reads, one side per CPU. The copy paths
    // charge through `charge`/`charge_kcopy` only, so however the host
    // moves the bytes, every simulated clock must stay where it was.
    let total = 5000;
    for (chan, pinned) in [(Chan::Sock, SOCK_PING_PONG), (Chan::Pipe, PIPE_PING_PONG)] {
        let (mut k, pids, fds) = joined(chan, 2, 1000);
        let leg = |nr, fd, buf, chunk| Leg { nr, fd, buf, chunk, yield_each: false };
        let progs = [
            program(
                12,
                total,
                &[
                    leg(sysno::WRITE, fds[0].0, "$buf", 700),
                    leg(sysno::READ, fds[0].1, "$back", 300),
                ],
            ),
            program(
                12,
                total,
                &[
                    leg(sysno::READ, fds[1].1, "$buf", 300),
                    leg(sysno::WRITE, fds[1].0, "$buf", 700),
                ],
            ),
        ];
        let (tids, bufs, _) = run(&mut k, pids, progs, total);
        let want: Vec<u8> = (0..total).map(pattern).collect();
        assert!(read_back(&k, pids[0], bufs[0][1], total) == want, "{chan:?}: echo differs");
        let clocks = (k.now_max(), k.threads[&tids[0]].cpu_time, k.threads[&tids[1]].cpu_time);
        assert_eq!(clocks, pinned, "{chan:?}");
    }
}
