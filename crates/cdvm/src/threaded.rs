//! Direct-threaded dispatch for *pure* block instructions.
//!
//! The superblock engine already removed the per-instruction fetch
//! machinery, but every body instruction still pays the full `execute()`
//! match plus the surrounding privilege/event/self-modification plumbing.
//! For a *pure* instruction all of that is provably dead:
//!
//! * it always retires (no fault, event or APL-miss path);
//! * it is unprivileged (the block-loop privilege check is a no-op);
//! * it never writes simulated memory (the post-instruction code-epoch
//!   re-check is a no-op, and no memory access happens at all);
//! * its cycle charge is a static function of the instruction.
//!
//! [`classify`] maps such instructions to an index into [`HANDLERS`], a
//! table of monomorphic `fn` pointers that charge the exact cycles,
//! perform the operation on pre-extracted operand fields (stored in
//! [`BlockInstr`] at formation) and advance the PC — nothing else.
//! `Cpu::exec_block` dispatches the maximal pure *prefix* of a block
//! (`Block::pure_len`) through this table in a tight loop, then falls
//! back to the general body loop; the handlers write the destination
//! register unconditionally and re-zero `regs[0]`, replicating the
//! general loop's x0 hard-wiring without a branch.
//!
//! Pure instructions emit no trace event, so the dispatch is taken with
//! tracing on or off. The reference engine goes through `execute()`,
//! which keeps its own arm for every op precisely so that it stays the
//! specification these handlers are tested against. Simulated cycles,
//! registers and PC are bit-identical either way — asserted
//! instruction-by-instruction against `execute()` by the unit test below.

use crate::blocks::BlockInstr;
use crate::cost::CostModel;
use crate::cpu::Cpu;
use crate::isa::{Instr, INSTR_BYTES};

/// A direct-threaded instruction handler.
pub type Handler = fn(&mut Cpu, &BlockInstr, &CostModel);

/// Handler table; index 0 is the never-dispatched "not pure" marker
/// (`Block::pure_len` guarantees the tight loop only sees indices ≥ 1).
pub static HANDLERS: [Handler; 28] = [
    h_not_pure, h_nop, h_movi, h_movhi, h_add, h_sub, h_mul, h_and, h_or, h_xor, h_sll, h_srl,
    h_sltu, h_addi, h_andi, h_ori, h_slli, h_srli, h_jal, h_jalr, h_beq, h_bne, h_bltu, h_bgeu,
    h_rdcycle, h_cpuid, h_rdgs, h_work,
];

/// Classifies `i` for direct-threaded dispatch: returns the handler index
/// (0 when the instruction is not pure) and the pre-extracted operand
/// fields the handler reads.
pub fn classify(i: &Instr) -> (u8, u8, u8, u8, i32) {
    use Instr::*;
    match *i {
        Nop => (1, 0, 0, 0, 0),
        Movi { rd, imm } => (2, rd, 0, 0, imm),
        Movhi { rd, imm } => (3, rd, 0, 0, imm),
        Add { rd, rs1, rs2 } => (4, rd, rs1, rs2, 0),
        Sub { rd, rs1, rs2 } => (5, rd, rs1, rs2, 0),
        Mul { rd, rs1, rs2 } => (6, rd, rs1, rs2, 0),
        And { rd, rs1, rs2 } => (7, rd, rs1, rs2, 0),
        Or { rd, rs1, rs2 } => (8, rd, rs1, rs2, 0),
        Xor { rd, rs1, rs2 } => (9, rd, rs1, rs2, 0),
        Sll { rd, rs1, rs2 } => (10, rd, rs1, rs2, 0),
        Srl { rd, rs1, rs2 } => (11, rd, rs1, rs2, 0),
        Sltu { rd, rs1, rs2 } => (12, rd, rs1, rs2, 0),
        Addi { rd, rs1, imm } => (13, rd, rs1, 0, imm),
        Andi { rd, rs1, imm } => (14, rd, rs1, 0, imm),
        Ori { rd, rs1, imm } => (15, rd, rs1, 0, imm),
        Slli { rd, rs1, imm } => (16, rd, rs1, 0, imm),
        Srli { rd, rs1, imm } => (17, rd, rs1, 0, imm),
        Jal { rd, imm } => (18, rd, 0, 0, imm),
        Jalr { rd, rs1, imm } => (19, rd, rs1, 0, imm),
        Beq { rs1, rs2, imm } => (20, 0, rs1, rs2, imm),
        Bne { rs1, rs2, imm } => (21, 0, rs1, rs2, imm),
        Bltu { rs1, rs2, imm } => (22, 0, rs1, rs2, imm),
        Bgeu { rs1, rs2, imm } => (23, 0, rs1, rs2, imm),
        Rdcycle { rd } => (24, rd, 0, 0, 0),
        CpuId { rd } => (25, rd, 0, 0, 0),
        Rdgs { rd } => (26, rd, 0, 0, 0),
        // Immediate-form Work has a statically bounded charge; the
        // register form does not and, like Divu/Remu (fault path) and
        // everything privileged, memory-touching or event-raising, stays
        // on the general loop.
        Work { rs1: 0, imm } => (27, 0, 0, 0, imm),
        _ => (0, 0, 0, 0, 0),
    }
}

/// Writes `v` to `rd` and re-zeroes x0, mirroring `set_reg` + the block
/// loop's `regs[0] = 0` reset without a data-dependent branch.
#[inline(always)]
fn wr(cpu: &mut Cpu, rd: u8, v: u64) {
    cpu.regs[rd as usize] = v;
    cpu.regs[0] = 0;
}

#[inline(always)]
fn step_pc(cpu: &mut Cpu) {
    cpu.pc = cpu.pc.wrapping_add(INSTR_BYTES);
}

fn h_not_pure(_cpu: &mut Cpu, _bi: &BlockInstr, _cost: &CostModel) {
    unreachable!("handler 0 must never be dispatched (pure_len guards the prefix)");
}

fn h_nop(cpu: &mut Cpu, _bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    step_pc(cpu);
}

fn h_movi(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    wr(cpu, bi.rd, bi.imm as i64 as u64);
    step_pc(cpu);
}

fn h_movhi(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    let low = cpu.regs[bi.rd as usize] & 0xffff_ffff;
    wr(cpu, bi.rd, low | ((bi.imm as u32 as u64) << 32));
    step_pc(cpu);
}

fn h_add(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    let v = cpu.regs[bi.rs1 as usize].wrapping_add(cpu.regs[bi.rs2 as usize]);
    wr(cpu, bi.rd, v);
    step_pc(cpu);
}

fn h_sub(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    let v = cpu.regs[bi.rs1 as usize].wrapping_sub(cpu.regs[bi.rs2 as usize]);
    wr(cpu, bi.rd, v);
    step_pc(cpu);
}

fn h_mul(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.mul;
    let v = cpu.regs[bi.rs1 as usize].wrapping_mul(cpu.regs[bi.rs2 as usize]);
    wr(cpu, bi.rd, v);
    step_pc(cpu);
}

fn h_and(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    let v = cpu.regs[bi.rs1 as usize] & cpu.regs[bi.rs2 as usize];
    wr(cpu, bi.rd, v);
    step_pc(cpu);
}

fn h_or(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    let v = cpu.regs[bi.rs1 as usize] | cpu.regs[bi.rs2 as usize];
    wr(cpu, bi.rd, v);
    step_pc(cpu);
}

fn h_xor(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    let v = cpu.regs[bi.rs1 as usize] ^ cpu.regs[bi.rs2 as usize];
    wr(cpu, bi.rd, v);
    step_pc(cpu);
}

fn h_sll(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    let v = cpu.regs[bi.rs1 as usize] << (cpu.regs[bi.rs2 as usize] & 63);
    wr(cpu, bi.rd, v);
    step_pc(cpu);
}

fn h_srl(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    let v = cpu.regs[bi.rs1 as usize] >> (cpu.regs[bi.rs2 as usize] & 63);
    wr(cpu, bi.rd, v);
    step_pc(cpu);
}

fn h_sltu(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    let v = (cpu.regs[bi.rs1 as usize] < cpu.regs[bi.rs2 as usize]) as u64;
    wr(cpu, bi.rd, v);
    step_pc(cpu);
}

fn h_addi(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    let v = cpu.regs[bi.rs1 as usize].wrapping_add(bi.imm as i64 as u64);
    wr(cpu, bi.rd, v);
    step_pc(cpu);
}

fn h_andi(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    let v = cpu.regs[bi.rs1 as usize] & (bi.imm as i64 as u64);
    wr(cpu, bi.rd, v);
    step_pc(cpu);
}

fn h_ori(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    let v = cpu.regs[bi.rs1 as usize] | (bi.imm as i64 as u64);
    wr(cpu, bi.rd, v);
    step_pc(cpu);
}

fn h_slli(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    let v = cpu.regs[bi.rs1 as usize] << (bi.imm as u32 & 63);
    wr(cpu, bi.rd, v);
    step_pc(cpu);
}

fn h_srli(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    let v = cpu.regs[bi.rs1 as usize] >> (bi.imm as u32 & 63);
    wr(cpu, bi.rd, v);
    step_pc(cpu);
}

fn h_jal(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    let link = cpu.pc.wrapping_add(INSTR_BYTES);
    wr(cpu, bi.rd, link);
    cpu.pc = cpu.pc.wrapping_add(bi.imm as i64 as u64);
}

fn h_jalr(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    // Read the target before linking: rd may alias rs1.
    let target = cpu.regs[bi.rs1 as usize].wrapping_add(bi.imm as i64 as u64);
    let link = cpu.pc.wrapping_add(INSTR_BYTES);
    wr(cpu, bi.rd, link);
    cpu.pc = target;
}

fn h_beq(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    cpu.pc = if cpu.regs[bi.rs1 as usize] == cpu.regs[bi.rs2 as usize] {
        cpu.pc.wrapping_add(bi.imm as i64 as u64)
    } else {
        cpu.pc.wrapping_add(INSTR_BYTES)
    };
}

fn h_bne(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    cpu.pc = if cpu.regs[bi.rs1 as usize] != cpu.regs[bi.rs2 as usize] {
        cpu.pc.wrapping_add(bi.imm as i64 as u64)
    } else {
        cpu.pc.wrapping_add(INSTR_BYTES)
    };
}

fn h_bltu(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    cpu.pc = if cpu.regs[bi.rs1 as usize] < cpu.regs[bi.rs2 as usize] {
        cpu.pc.wrapping_add(bi.imm as i64 as u64)
    } else {
        cpu.pc.wrapping_add(INSTR_BYTES)
    };
}

fn h_bgeu(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    cpu.pc = if cpu.regs[bi.rs1 as usize] >= cpu.regs[bi.rs2 as usize] {
        cpu.pc.wrapping_add(bi.imm as i64 as u64)
    } else {
        cpu.pc.wrapping_add(INSTR_BYTES)
    };
}

fn h_rdcycle(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    // The charge lands before the read, exactly like `execute()`.
    cpu.cycles += cost.base;
    let v = cpu.cycles;
    wr(cpu, bi.rd, v);
    step_pc(cpu);
}

fn h_cpuid(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    let v = cpu.index as u64;
    wr(cpu, bi.rd, v);
    step_pc(cpu);
}

fn h_rdgs(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base;
    let v = cpu.gs;
    wr(cpu, bi.rd, v);
    step_pc(cpu);
}

fn h_work(cpu: &mut Cpu, bi: &BlockInstr, cost: &CostModel) {
    cpu.cycles += cost.base + bi.imm.max(0) as u64;
    step_pc(cpu);
}

#[cfg(test)]
mod tests {
    use super::*;
    use codoms::cap::RevocationTable;
    use simmem::Memory;

    fn pure_samples() -> Vec<Instr> {
        use Instr::*;
        vec![
            Nop,
            Movi { rd: 5, imm: -42 },
            Movi { rd: 0, imm: 99 },
            Movhi { rd: 6, imm: 0x1234 },
            Add { rd: 7, rs1: 5, rs2: 6 },
            Sub { rd: 8, rs1: 6, rs2: 5 },
            Mul { rd: 9, rs1: 5, rs2: 6 },
            And { rd: 10, rs1: 5, rs2: 6 },
            Or { rd: 11, rs1: 5, rs2: 6 },
            Xor { rd: 12, rs1: 5, rs2: 6 },
            Sll { rd: 13, rs1: 5, rs2: 6 },
            Srl { rd: 14, rs1: 6, rs2: 5 },
            Sltu { rd: 15, rs1: 5, rs2: 6 },
            Addi { rd: 16, rs1: 5, imm: -7 },
            Andi { rd: 17, rs1: 6, imm: 0xff },
            Ori { rd: 18, rs1: 6, imm: 0x10 },
            Slli { rd: 19, rs1: 5, imm: 3 },
            Srli { rd: 20, rs1: 6, imm: 3 },
            Jal { rd: 1, imm: 0x40 },
            Jal { rd: 0, imm: -16 },
            Jalr { rd: 1, rs1: 1, imm: 8 },
            Beq { rs1: 5, rs2: 5, imm: 0x40 },
            Beq { rs1: 5, rs2: 6, imm: 0x40 },
            Bne { rs1: 5, rs2: 6, imm: -0x40 },
            Bltu { rs1: 5, rs2: 6, imm: 0x20 },
            Bgeu { rs1: 6, rs2: 5, imm: 0x20 },
            Rdcycle { rd: 21 },
            CpuId { rd: 22 },
            Rdgs { rd: 23 },
            Work { rs1: 0, imm: 500 },
        ]
    }

    #[test]
    fn impure_instructions_classify_to_zero() {
        use Instr::*;
        for i in [
            Divu { rd: 1, rs1: 2, rs2: 3 }, // DivZero fault path
            Remu { rd: 1, rs1: 2, rs2: 3 },
            Ld { rd: 1, rs1: 2, imm: 0 },
            St { rs1: 2, rs2: 3, imm: 0 },
            Amoadd { rd: 1, rs1: 2, rs2: 3 },
            MemCpy { rd: 1, rs1: 2, rs2: 3 },
            Ecall,
            Halt,
            Crash,
            Work { rs1: 5, imm: 0 }, // register-driven charge
            Swapgs,
            Wrgs { rs1: 1 },
            Wrfsbase { rs1: 1 },
            PtSwitch { rs1: 1 },
            Sysret { rs1: 1 },
            TagLookup { rd: 1, rs1: 2 },
            CapPush { crs: 0 },
            CapRevoke,
            DcsGetBase { rd: 1 },
        ] {
            assert_eq!(classify(&i).0, 0, "{i:?} must not be pure");
        }
    }

    #[test]
    fn handlers_replicate_execute_bit_for_bit() {
        let cost = CostModel::default();
        let mut mem = Memory::new();
        let mut rev = RevocationTable::new();
        for instr in pure_samples() {
            let (h, rd, rs1, rs2, imm) = classify(&instr);
            assert_ne!(h, 0, "{instr:?} must be pure");
            let bi = crate::blocks::BlockInstr {
                instr,
                privileged: false,
                may_write: false,
                handler: h,
                rd,
                rs1,
                rs2,
                imm,
            };
            let seed = |cpu: &mut Cpu| {
                for r in 1..32 {
                    cpu.regs[r] = (r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x55;
                }
                cpu.pc = 0x5000;
                cpu.cycles = 123;
                cpu.gs = 0x7700;
            };
            let mut a = Cpu::new(2);
            let mut b = Cpu::new(2);
            seed(&mut a);
            seed(&mut b);
            let ev = a.execute(instr, &mut mem, &mut rev, &cost);
            assert_eq!(ev, crate::cpu::StepEvent::Retired, "{instr:?}");
            a.regs[0] = 0; // the block loop's x0 reset after each retire
            HANDLERS[h as usize](&mut b, &bi, &cost);
            assert_eq!(a.regs, b.regs, "{instr:?} registers diverge");
            assert_eq!(a.pc, b.pc, "{instr:?} PC diverges");
            assert_eq!(a.cycles, b.cycles, "{instr:?} cycles diverge");
        }
    }
}
