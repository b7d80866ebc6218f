//! L4 Fiasco.OC-style synchronous IPC: direct switch, message "inlined in
//! registers" (§2.2). The paper measures it at ≈474× a function call on
//! the same CPU.

use std::collections::HashMap;

use cdvm::isa::reg::*;
use cdvm::{Asm, Instr};
use dipc::System;
use simkernel::{sysno, KernelConfig};

use crate::asmlib::bump;
use crate::util::{run_marked, BenchResult, Placement};

/// Runs the L4-style call/reply ping-pong (register payload only).
pub fn bench_l4(iters: u64, placement: Placement) -> BenchResult {
    let warmup = (iters / 10).max(8);
    let cpus = if placement == Placement::CrossCpu { 2 } else { 1 };
    let mut sys_ = System::new(KernelConfig { cpus, ..KernelConfig::default() });
    let client = sys_.k.create_process("l4-client", false);
    let server = sys_.k.create_process("l4-server", false);

    // Server: reply-wait loop echoing msg+1.
    let mut a = Asm::new();
    a.li(A0, 0);
    a.label("loop");
    a.syscall(sysno::L4_REPLY_WAIT);
    a.push(Instr::Add { rd: T2, rs1: A0, rs2: ZERO }); // caller tid
    a.push(Instr::Addi { rd: A1, rs1: A1, imm: 1 });
    a.push(Instr::Add { rd: A0, rs1: T2, rs2: ZERO });
    a.j("loop");
    let server_prog = a.finish();
    let img = sys_.k.load_program(server, &server_prog, &HashMap::new());
    let server_tid = sys_.k.spawn_thread(server, img.base, &[]);

    // Client: call loop (needs the server tid — passed as the thread arg).
    let mut a = Asm::new();
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO }); // server tid
    a.li_sym(S4, "$counter");
    a.label("loop");
    a.push(Instr::Add { rd: A0, rs1: S0, rs2: ZERO });
    a.li(A1, 7); // one-register payload ("one-byte argument")
    a.syscall(sysno::L4_CALL);
    bump(&mut a, S4);
    a.j("loop");
    let client_prog = a.finish();
    let counter = sys_.k.alloc_mem(client, simmem::PAGE_SIZE, simmem::PageFlags::RW);
    let mut ex = HashMap::new();
    ex.insert("$counter".to_string(), counter);
    let img = sys_.k.load_program(client, &client_prog, &ex);
    let client_tid = sys_.k.spawn_thread(client, img.base, &[server_tid.0]);

    let (ccpu, scpu) = placement.cpus();
    sys_.k.pin_thread(client_tid, ccpu);
    sys_.k.pin_thread(server_tid, scpu);

    let pt = sys_.k.procs[&client].pt;
    run_marked(&mut sys_, pt, counter, warmup, iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l4_same_cpu_near_474x_function_call() {
        let r = bench_l4(150, Placement::SameCpu);
        // 474 × 2 ns ≈ 950 ns; accept 500–2000 ns.
        assert!(
            (500.0..2000.0).contains(&r.per_op_ns),
            "L4 (=CPU) {} ns, expected ~0.95 µs",
            r.per_op_ns
        );
    }

    #[test]
    fn l4_beats_sem_and_pipes() {
        let l4 = bench_l4(100, Placement::SameCpu);
        let sem = crate::sem::bench_sem(100, Placement::SameCpu, 1);
        assert!(
            l4.per_op_ns < sem.per_op_ns,
            "L4 {} must beat Sem {}",
            l4.per_op_ns,
            sem.per_op_ns
        );
    }

    #[test]
    fn l4_cross_cpu_pays_ipis() {
        let same = bench_l4(80, Placement::SameCpu);
        let cross = bench_l4(80, Placement::CrossCpu);
        assert!(cross.per_op_ns > same.per_op_ns);
    }
}
