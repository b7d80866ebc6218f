//! Deadline exactness of the block engine's budgeted tails and mid-block
//! resumes: a kernel-style driver cuts execution into fixed-width cycle
//! slices, and after *every* slice the block engine must sit exactly where
//! the interpreter sits — same cycle, PC, registers, retired count, exit,
//! TLB and APL-cache counters, same fault at the same PC. Every width from
//! 1 to 700 cycles is swept, so every instruction of every block is, for
//! some width, the one a deadline lands on (mid pure prefix, between a
//! load and a store, on a crossing edge, on a one-instruction
//! unbounded-cost block, right before a fault).
//!
//! The 620-cycle `sync_window` slices of the multi-core workloads are what
//! this models; the pollution test at the bottom pins the reason the
//! budgeted/resume path exists (no block is formed at a mid-block PC just
//! because a slice ended there).

mod common;

use cdvm::isa::reg::*;
use cdvm::{Asm, Instr, StepEvent};
use common::{drive, world, CODE, DATA, FAR};
use simmem::{PageFlags, PAGE_SIZE};

/// Sweeps every slice width 1..=700 and demands slice-for-slice equality
/// of the fast engine with the reference interpreter — and that the sweep
/// did run blocks budgeted and resume them.
fn assert_exact(name: &str, caller: &[u8], callee: &[u8]) {
    let (mut budgeted, mut resumes) = (0, 0);
    for width in 1..=700u64 {
        let base = drive(&mut world(caller, callee, PageFlags::RX, false), |_| width);
        assert_eq!(base.last().expect("ran").exit.event, StepEvent::Halt);
        let mut w = world(caller, callee, PageFlags::RX, true);
        let got = drive(&mut w, |_| width);
        for (i, (g, b)) in got.iter().zip(&base).enumerate() {
            assert_eq!(g, b, "{name}: width {width}, slice {i}");
        }
        assert_eq!(got.len(), base.len(), "{name}: width {width}");
        budgeted += w.cpu.block_stats().budgeted;
        resumes += w.cpu.block_stats().resumes;
    }
    assert!(budgeted > 0 && resumes > 0, "{name}: budgeted {budgeted}, resumed {resumes}");
}

fn halt_only() -> Vec<u8> {
    Instr::Halt.encode().to_vec()
}

/// A same-page loop closed by an unconditional jump (formation unrolls it
/// into one long trace, so deadlines land deep inside a block whose PCs
/// repeat) around a pure ALU body with a `Mul` and an immediate `Work`.
fn loop_heavy() -> Vec<u8> {
    let mut a = Asm::new();
    a.li(T3, 120);
    a.label("loop");
    a.push(Instr::Addi { rd: T0, rs1: T0, imm: 3 });
    a.push(Instr::Xor { rd: T1, rs1: T1, rs2: T0 });
    a.push(Instr::Mul { rd: T2, rs1: T0, rs2: T1 });
    a.push(Instr::Work { rs1: ZERO, imm: 9 });
    a.push(Instr::Rdcycle { rd: A1 });
    a.push(Instr::Add { rd: A0, rs1: A0, rs2: A1 });
    a.push(Instr::Addi { rd: T3, rs1: T3, imm: -1 });
    a.beq(T3, ZERO, "done");
    a.j("loop");
    a.label("done");
    a.push(Instr::Halt);
    a.finish().bytes
}

/// Loads, stores, byte accesses and an atomic over two data pages, with a
/// page-straddling 8-byte pair and pure instructions between the memory
/// ones (so the mid-block handler dispatch and the operand memo are both
/// cut by deadlines).
fn load_store_heavy() -> Vec<u8> {
    let mut a = Asm::new();
    a.li(T0, DATA);
    a.li(T1, DATA + PAGE_SIZE - 4);
    a.li(T3, 90);
    a.label("loop");
    a.push(Instr::St { rs1: T0, rs2: T3, imm: 0 });
    a.push(Instr::Ld { rd: A0, rs1: T0, imm: 0 });
    a.push(Instr::Addi { rd: A0, rs1: A0, imm: 1 });
    a.push(Instr::St { rs1: T0, rs2: A0, imm: 64 });
    a.push(Instr::St { rs1: T1, rs2: A0, imm: 0 });
    a.push(Instr::Ld { rd: A1, rs1: T1, imm: 0 });
    a.push(Instr::Stb { rs1: T0, rs2: T3, imm: 17 });
    a.push(Instr::Ldb { rd: A2, rs1: T0, imm: 17 });
    a.push(Instr::Amoadd { rd: A3, rs1: T0, rs2: T3 });
    a.push(Instr::Ld { rd: A4, rs1: T0, imm: PAGE_SIZE as i32 + 8 });
    a.push(Instr::Addi { rd: T3, rs1: T3, imm: -1 });
    a.bne(T3, ZERO, "loop");
    a.push(Instr::Halt);
    a.finish().bytes
}

/// Domain 1 does data traffic and jumps into domain 2, which stores into
/// domain 1's data page (APL-granted), counts, and jumps back: both edges
/// carry crossing descriptors.
fn ping_pong() -> (Vec<u8>, Vec<u8>) {
    let mut a = Asm::new();
    a.li(T0, DATA);
    a.push(Instr::St { rs1: T0, rs2: T3, imm: 0 });
    a.push(Instr::Ld { rd: A0, rs1: T0, imm: 0 });
    a.push(Instr::Addi { rd: T3, rs1: T3, imm: 1 });
    let here = a.here();
    a.push(Instr::Jal { rd: ZERO, imm: (FAR - (CODE + here)) as i32 });
    let caller = a.finish().bytes;
    let mut a = Asm::new();
    a.push(Instr::Addi { rd: T4, rs1: T4, imm: 1 });
    a.li(T2, DATA);
    a.push(Instr::St { rs1: T2, rs2: T4, imm: 128 });
    a.li(T5, 150);
    a.beq(T4, T5, "done");
    let here = a.here();
    a.push(Instr::Jal { rd: ZERO, imm: (CODE as i64 - (FAR + here) as i64) as i32 });
    a.label("done");
    a.push(Instr::Halt);
    (caller, a.finish().bytes)
}

/// A loop whose body raises (and the driver skips) a division by zero, a
/// store to a read-execute page, a privileged instruction and an
/// undecodable slot, and runs through two unbounded-cost instructions
/// (register-driven `Work`, `MemCpy`) — each mid-block, each preceded and
/// followed by ordinary instructions.
fn fault_raising() -> Vec<u8> {
    let mut a = Asm::new();
    a.li(T0, DATA);
    a.li(T1, CODE);
    a.li(T2, DATA + 256);
    a.li(T3, 25);
    a.li(T4, 40);
    a.label("loop");
    a.push(Instr::Addi { rd: A0, rs1: A0, imm: 1 });
    a.push(Instr::Divu { rd: A1, rs1: A0, rs2: ZERO });
    a.push(Instr::St { rs1: T0, rs2: A0, imm: 0 });
    a.push(Instr::St { rs1: T1, rs2: A0, imm: 0 });
    a.push(Instr::Addi { rd: A0, rs1: A0, imm: 1 });
    a.push(Instr::Swapgs);
    a.push(Instr::Work { rs1: T4, imm: 0 });
    a.push(Instr::Ld { rd: A2, rs1: T0, imm: 0 });
    a.push(Instr::MemCpy { rd: T2, rs1: T0, rs2: T4 });
    let garbage = a.here() as usize;
    a.push(Instr::Nop); // overwritten with undecodable bytes below
    a.push(Instr::Addi { rd: T3, rs1: T3, imm: -1 });
    a.bne(T3, ZERO, "loop");
    a.push(Instr::Halt);
    let mut bytes = a.finish().bytes;
    bytes[garbage..garbage + 8].copy_from_slice(&[0xEE; 8]);
    bytes
}

#[test]
fn loop_heavy_is_exact_at_every_slice_width() {
    assert_exact("loop-heavy", &loop_heavy(), &halt_only());
}

#[test]
fn load_store_heavy_is_exact_at_every_slice_width() {
    assert_exact("load/store-heavy", &load_store_heavy(), &halt_only());
}

#[test]
fn cross_domain_ping_pong_is_exact_at_every_slice_width() {
    let (caller, callee) = ping_pong();
    assert_exact("ping-pong", &caller, &callee);
}

#[test]
fn fault_raising_is_exact_at_every_slice_width() {
    assert_exact("fault-raising", &fault_raising(), &halt_only());
}

/// The pollution regression: slicing a program must not make the engine
/// form blocks it would not form in one long run. Neither program has a
/// computed mid-block entry, so every PC a slice can end on lies inside a
/// block that is already cached; the slice tail runs budgeted from that
/// block and the next slice resumes it. (The engine this replaced formed
/// a fresh suffix block at every such PC.)
#[test]
fn slicing_forms_no_extra_blocks() {
    let (caller, callee) = ping_pong();
    for (name, caller, callee) in [
        ("loop-heavy", loop_heavy(), halt_only()),
        ("load/store-heavy", load_store_heavy(), halt_only()),
        ("ping-pong", caller, callee),
    ] {
        let mut long = world(&caller, &callee, PageFlags::RX, true);
        assert_eq!(drive(&mut long, |_| 50_000_000).len(), 1, "{name}: one slice");
        let mut sliced = world(&caller, &callee, PageFlags::RX, true);
        assert!(drive(&mut sliced, |_| 620).len() > 3, "{name}: must actually be sliced");
        let (l, s) = (long.cpu.block_stats(), sliced.cpu.block_stats());
        assert_eq!(s.fills, l.fills, "{name}: 620-cycle slices formed extra blocks");
        assert_eq!(s.evict_conflicts, 0, "{name}");
        assert!(s.budgeted > 0 && s.resumes > 0, "{name}: {s:?}");
    }
}
