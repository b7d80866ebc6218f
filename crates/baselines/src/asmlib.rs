//! Small reusable assembly fragments for the benchmark programs.

use cdvm::isa::reg::*;
use cdvm::isa::Reg;
use cdvm::{Asm, Instr};
use simkernel::sysno;

/// Increments the u64 at `0(addr_reg)` (clobbers t0).
pub fn bump(a: &mut Asm, addr_reg: Reg) {
    a.push(Instr::Ld { rd: T0, rs1: addr_reg, imm: 0 });
    a.push(Instr::Addi { rd: T0, rs1: T0, imm: 1 });
    a.push(Instr::St { rs1: addr_reg, rs2: T0, imm: 0 });
}

/// POSIX-style semaphore post over a futex word at `0(addr_reg)`:
/// set the flag and wake one waiter. Clobbers t0, a0, a1, a7.
pub fn sem_post(a: &mut Asm, addr_reg: Reg) {
    a.li(T0, 1);
    a.push(Instr::St { rs1: addr_reg, rs2: T0, imm: 0 });
    a.push(Instr::Add { rd: A0, rs1: addr_reg, rs2: ZERO });
    a.li(A1, 1);
    a.syscall(sysno::FUTEX_WAKE);
}

/// POSIX-style semaphore wait on the futex word at `0(addr_reg)`: spin
/// once, sleep on the futex otherwise, consume the flag when set. `prefix`
/// must be unique within the program (labels). Clobbers t0, a0, a1, a7.
pub fn sem_wait(a: &mut Asm, addr_reg: Reg, prefix: &str) {
    let lw = format!("{prefix}_wait");
    let lg = format!("{prefix}_got");
    a.label(&lw);
    a.push(Instr::Ld { rd: T0, rs1: addr_reg, imm: 0 });
    a.bne(T0, ZERO, &lg);
    a.push(Instr::Add { rd: A0, rs1: addr_reg, rs2: ZERO });
    a.li(A1, 0);
    a.syscall(sysno::FUTEX_WAIT);
    a.j(&lw);
    a.label(&lg);
    a.push(Instr::St { rs1: addr_reg, rs2: ZERO, imm: 0 });
}

/// Emits a loop that reads exactly `len_reg` bytes from `fd_reg` into
/// `buf_reg` (handles short reads on pipes/sockets). Clobbers t1, t2,
/// a0–a2, a7. `prefix` must be unique.
pub fn read_exact(a: &mut Asm, fd_reg: Reg, buf_reg: Reg, len_reg: Reg, prefix: &str) {
    let lp = format!("{prefix}_rdl");
    let done = format!("{prefix}_rdd");
    a.li(T1, 0); // received so far
    a.label(&lp);
    a.bgeu(T1, len_reg, &done);
    a.push(Instr::Add { rd: A0, rs1: fd_reg, rs2: ZERO });
    a.push(Instr::Add { rd: A1, rs1: buf_reg, rs2: T1 });
    a.push(Instr::Sub { rd: A2, rs1: len_reg, rs2: T1 });
    a.syscall(sysno::READ);
    a.push(Instr::Add { rd: T1, rs1: T1, rs2: A0 });
    a.j(&lp);
    a.label(&done);
}

/// Emits a loop that writes exactly `len_reg` bytes from `buf_reg` to
/// `fd_reg` (handles short writes). Clobbers t1, a0–a2, a7. `prefix` must
/// be unique.
pub fn write_all(a: &mut Asm, fd_reg: Reg, buf_reg: Reg, len_reg: Reg, prefix: &str) {
    let lp = format!("{prefix}_wrl");
    let done = format!("{prefix}_wrd");
    a.li(T1, 0);
    a.label(&lp);
    a.bgeu(T1, len_reg, &done);
    a.push(Instr::Add { rd: A0, rs1: fd_reg, rs2: ZERO });
    a.push(Instr::Add { rd: A1, rs1: buf_reg, rs2: T1 });
    a.push(Instr::Sub { rd: A2, rs1: len_reg, rs2: T1 });
    a.syscall(sysno::WRITE);
    a.push(Instr::Add { rd: T1, rs1: T1, rs2: A0 });
    a.j(&lp);
    a.label(&done);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragments_assemble() {
        let mut a = Asm::new();
        a.li_sym(S0, "flag");
        sem_post(&mut a, S0);
        sem_wait(&mut a, S0, "x");
        bump(&mut a, S0);
        a.push(Instr::Halt);
        let p = a.finish();
        assert!(p.bytes.len() > 8 * 10);
    }

    #[test]
    fn io_loops_assemble() {
        let mut a = Asm::new();
        read_exact(&mut a, S0, S1, S2, "r");
        write_all(&mut a, S0, S1, S2, "w");
        a.push(Instr::Halt);
        let p = a.finish();
        assert!(!p.bytes.is_empty());
    }
}
