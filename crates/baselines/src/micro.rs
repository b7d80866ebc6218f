//! Reference points: plain function call and null system call (§2.2).
//!
//! Both are measured inside the VM via `rdcycle` so they carry zero
//! measurement overhead; the thread exits with the cycle delta.

use std::collections::HashMap;

use cdvm::isa::reg::*;
use cdvm::{Asm, Instr};
use dipc::System;
use simkernel::{sysno, KernelConfig, TimeBreakdown};
use simmem::PageFlags;

use crate::util::BenchResult;

fn run_cycle_bench(build: impl Fn(&mut Asm), iters: u64, data_bytes: u64) -> BenchResult {
    let mut s = System::new(KernelConfig { cpus: 1, ..KernelConfig::default() });
    let pid = s.k.create_process("micro", true);
    let mut externs = HashMap::new();
    // Three disjoint regions: caller source, shared argument buffer,
    // callee-local sink.
    for name in ["$src", "$buf", "$local"] {
        let base = s.k.alloc_mem(pid, data_bytes.max(simmem::PAGE_SIZE), PageFlags::RW);
        externs.insert(name.to_string(), base);
    }
    let mut a = Asm::new();
    build(&mut a);
    let img = s.k.load_program(pid, &a.finish(), &externs);
    let tid = s.k.spawn_thread(pid, img.base, &[iters]);
    s.run_to_completion();
    let cycles = s.k.threads[&tid].exit_code;
    BenchResult {
        per_op_ns: s.k.cost.ns(cycles) / iters as f64,
        breakdown: TimeBreakdown::new(),
        iters,
    }
}

/// A plain function call with an `arg_size`-byte argument passed by
/// reference: the caller fills the buffer, the callee reads it. This is the
/// baseline every primitive in Figure 6 is compared against.
pub fn bench_function_call(iters: u64, arg_size: u64) -> BenchResult {
    run_cycle_bench(
        move |a| {
            // a0 = iters on entry.
            a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
            a.li_sym(S1, "$buf");
            a.li_sym(S2, "$src");
            a.li_sym(S3, "$local");
            a.push(Instr::Add { rd: A0, rs1: S1, rs2: ZERO });
            a.jal(RA, "f"); // warm up
            a.push(Instr::Rdcycle { rd: S4 });
            a.label("loop");
            if arg_size > 0 {
                // Caller writes the argument buffer.
                a.li(T2, arg_size);
                a.push(Instr::MemCpy { rd: S1, rs1: S2, rs2: T2 });
            }
            a.push(Instr::Add { rd: A0, rs1: S1, rs2: ZERO }); // by reference
            a.jal(RA, "f");
            a.push(Instr::Addi { rd: S0, rs1: S0, imm: -1 });
            a.bne(S0, ZERO, "loop");
            a.push(Instr::Rdcycle { rd: A0 });
            a.push(Instr::Sub { rd: A0, rs1: A0, rs2: S4 });
            a.push(Instr::Halt);
            // Callee: reads the argument.
            a.label("f");
            if arg_size > 0 {
                a.li(T5, arg_size);
                a.push(Instr::MemCpy { rd: S3, rs1: A0, rs2: T5 });
            }
            a.ret();
        },
        iters,
        arg_size,
    )
}

/// A null system call (`getpid`) — the ≈34 ns anchor.
pub fn bench_syscall(iters: u64) -> BenchResult {
    run_cycle_bench(
        move |a| {
            a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
            a.syscall(sysno::GETPID);
            a.push(Instr::Rdcycle { rd: S4 });
            a.label("loop");
            a.syscall(sysno::GETPID);
            a.push(Instr::Addi { rd: S0, rs1: S0, imm: -1 });
            a.bne(S0, ZERO, "loop");
            a.push(Instr::Rdcycle { rd: A0 });
            a.push(Instr::Sub { rd: A0, rs1: A0, rs2: S4 });
            a.push(Instr::Halt);
        },
        iters,
        0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_call_is_under_2ns() {
        let r = bench_function_call(10_000, 0);
        assert!(r.per_op_ns < 2.0, "function call {} ns (paper: < 2 ns)", r.per_op_ns);
    }

    #[test]
    fn syscall_is_about_34ns() {
        let r = bench_syscall(5_000);
        assert!((25.0..90.0).contains(&r.per_op_ns), "syscall {} ns (paper: ~34 ns)", r.per_op_ns);
    }

    #[test]
    fn arg_copy_scales_baseline() {
        let small = bench_function_call(2_000, 64);
        let big = bench_function_call(2_000, 4096);
        assert!(big.per_op_ns > small.per_op_ns * 4.0);
    }
}
