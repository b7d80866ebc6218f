//! Differential proof that the fast engine is invisible: the same programs,
//! run on the reference interpreter (no host cache of any kind) and on the
//! fast engine (superblocks, crossing descriptors, operand cache, threaded
//! handlers), must produce identical simulated
//! cycles, retired counts, faults, and byte-identical trace output.
//!
//! Two layers:
//!  * a full-system check driving the `fig5` binary as a subprocess with
//!    and without `CDVM_NO_FASTPATH=1` (the variable is sampled at process
//!    start), comparing stdout plus exported traces byte-for-byte (the
//!    metrics summary is compared after dropping the `host.*`
//!    cache-telemetry counters, which legitimately differ — everything
//!    simulated must match exactly);
//!  * in-process CPU-level checks (via `cdvm::set_fastpath`) covering
//!    fault paths a figure binary never takes, driven through `Cpu::run`
//!    so the block engine engages.

use std::process::Command;

use cdvm::isa::reg::*;
use cdvm::{Asm, CostModel, Cpu, Instr, StepEvent};
use codoms::cap::RevocationTable;
use simmem::{DomainTag, Memory, PageFlags};

fn scratch(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("dipc-fastpath-diff-{}-{name}", std::process::id()));
    p.to_str().expect("utf-8 path").to_string()
}

fn run_fig5(fast: bool, trace: &str) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig5"));
    cmd.env_remove("BENCH_SCALE").env("DIPC_TRACE", trace);
    if fast {
        cmd.env_remove("CDVM_NO_FASTPATH");
    } else {
        cmd.env("CDVM_NO_FASTPATH", "1");
    }
    let out = cmd.output().expect("fig5 runs");
    assert!(out.status.success(), "fig5 failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Drops the `host.*` cache-telemetry counter lines from a metrics summary.
/// These report host-side cache behavior (hits, fills, chains), which by
/// design differs between cache modes; every simulated line must remain.
fn strip_host_counters(summary: &[u8]) -> String {
    let text = std::str::from_utf8(summary).expect("utf-8 summary");
    text.lines()
        .filter(|l| !l.trim_start().starts_with("host."))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Full-system cycle and trace identity of the two engines: every
/// simulated number fig5 prints (latencies, breakdowns) and every trace
/// byte must be unaffected by the host-side caches.
#[test]
fn fig5_identical_on_both_engines() {
    let outputs = [false, true].map(|fast| {
        let trace = scratch(if fast { "fast.json" } else { "reference.json" });
        let stdout = run_fig5(fast, &trace);
        let read = |suffix: &str| std::fs::read(format!("{trace}{suffix}")).expect("trace written");
        let files = (read(""), read(".folded"), strip_host_counters(&read(".summary.txt")));
        for suffix in ["", ".folded", ".summary.txt"] {
            let _ = std::fs::remove_file(format!("{trace}{suffix}"));
        }
        (stdout, files)
    });
    let [(ref_stdout, (ref_chrome, ref_folded, ref_summary)), (stdout, (chrome, folded, summary))] =
        outputs;
    assert_eq!(stdout, ref_stdout, "simulated results diverged");
    assert_eq!(chrome, ref_chrome, "chrome trace diverged");
    assert_eq!(folded, ref_folded, "folded trace diverged");
    assert_eq!(summary, ref_summary, "summary (sans host.*) diverged");
}

const CODE: u64 = 0x10_000;
const DATA: u64 = 0x20_000;

/// Builds a memory and a CPU (thread 1, in domain 1, at `CODE`) on the
/// chosen engine. `set_fastpath` is process-global and the harness runs
/// tests on parallel threads; the lock keeps one test's choice out of
/// another's construction.
fn machine(fast: bool) -> (Memory, Cpu) {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cdvm::set_fastpath(Some(fast));
    let (mem, mut cpu) = (Memory::new(), Cpu::new(0));
    cdvm::set_fastpath(None);
    cpu.pc = CODE;
    cpu.cur_dom = DomainTag(1);
    cpu.thread = 1;
    (mem, cpu)
}

/// Observable end state of a CPU-level run.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    event: StepEvent,
    cycles: u64,
    retired: u64,
    run_retired: u64,
    deadline: bool,
    pc: u64,
    a0: u64,
    crossings: u64,
    itlb_hits: u64,
    itlb_misses: u64,
    dtlb_hits: u64,
    dtlb_misses: u64,
}

/// Runs a fresh machine of the chosen engine, furnished by `build`,
/// through `Cpu::run` until a non-retired event or the cycle budget.
fn run_world(fast: bool, budget: u64, build: impl FnOnce(&mut Memory, &mut Cpu)) -> Outcome {
    let (mut mem, mut cpu) = machine(fast);
    build(&mut mem, &mut cpu);
    let mut rev = RevocationTable::new();
    let cost = CostModel::default();
    let exit = cpu.run(&mut mem, &mut rev, &cost, budget);
    Outcome {
        event: exit.event,
        cycles: cpu.cycles,
        retired: cpu.retired,
        run_retired: exit.retired,
        deadline: exit.deadline,
        pc: cpu.pc,
        a0: cpu.reg(A0),
        crossings: cpu.domain_crossings,
        itlb_hits: cpu.itlb.stats().hits,
        itlb_misses: cpu.itlb.stats().misses,
        dtlb_hits: cpu.dtlb.stats().hits,
        dtlb_misses: cpu.dtlb.stats().misses,
    }
}

/// [`run_world`] with `code` at `CODE` (two RX pages) and two RW data pages.
fn run_program(code: &[u8], fast: bool, budget: u64) -> Outcome {
    run_world(fast, budget, |mem, _| {
        let pt = Memory::GLOBAL_PT;
        mem.map_anon(pt, CODE, 2, PageFlags::RX, DomainTag(1));
        mem.map_anon(pt, DATA, 2, PageFlags::RW, DomainTag(1));
        mem.kwrite(pt, CODE, code).unwrap();
    })
}

fn assert_identical(name: &str, code: &[u8]) {
    let base = run_program(code, false, 10_000_000);
    assert_eq!(run_program(code, true, 10_000_000), base, "{name}: fast engine diverged");
}

#[test]
fn loops_and_data_traffic_are_cycle_identical() {
    let mut a = Asm::new();
    a.li(T0, DATA);
    a.li(T3, 2000);
    a.label("loop");
    a.push(Instr::St { rs1: T0, rs2: T3, imm: 0 });
    a.push(Instr::Ld { rd: A0, rs1: T0, imm: 0 });
    a.push(Instr::Addi { rd: T3, rs1: T3, imm: -1 });
    a.bne(T3, ZERO, "loop");
    a.push(Instr::Halt);
    assert_identical("st/ld loop", &a.finish().bytes);
}

/// A cross-domain ping-pong loop (APL-granted in both directions) plus
/// data traffic: the crossing-descriptor cache and the memory-operand
/// translation cache both engage on the fast engine, and every simulated
/// observable — cycles, crossings, APL-cache traffic folded into cycles,
/// TLB counters — must match the no-cache reference bit for bit.
#[test]
fn cross_domain_ping_pong_is_identical() {
    use codoms::apl::{Apl, Perm};
    const FAR: u64 = 0x40_000;
    // Domain 1 at CODE: store/load on DATA, then jump into domain 2.
    let mut a = Asm::new();
    a.li(T0, DATA);
    a.push(Instr::St { rs1: T0, rs2: T3, imm: 0 });
    a.push(Instr::Ld { rd: A0, rs1: T0, imm: 0 });
    a.push(Instr::Addi { rd: T3, rs1: T3, imm: 1 });
    let here = a.here();
    a.push(Instr::Jal { rd: ZERO, imm: (FAR - (CODE + here)) as i32 });
    let caller = a.finish().bytes;
    // Domain 2 at FAR: bounded counter, then either jump back or halt.
    let mut a = Asm::new();
    a.push(Instr::Addi { rd: T4, rs1: T4, imm: 1 });
    a.li(T5, 500);
    a.beq(T4, T5, "done");
    let here = a.here();
    a.push(Instr::Jal { rd: ZERO, imm: (CODE as i64 - (FAR + here) as i64) as i32 });
    a.label("done");
    a.push(Instr::Halt);
    let callee = a.finish().bytes;

    let run = |fast: bool| {
        run_world(fast, 50_000_000, |mem, cpu| {
            let pt = Memory::GLOBAL_PT;
            mem.map_anon(pt, CODE, 1, PageFlags::RX, DomainTag(1));
            mem.kwrite(pt, CODE, &caller).unwrap();
            mem.map_anon(pt, FAR, 1, PageFlags::RX, DomainTag(2));
            mem.kwrite(pt, FAR, &callee).unwrap();
            mem.map_anon(pt, DATA, 1, PageFlags::RW, DomainTag(1));
            let mut to2 = Apl::new();
            to2.set(DomainTag(2), Perm::Read);
            cpu.apl_cache.fill(DomainTag(1), to2);
            let mut back = Apl::new();
            back.set(DomainTag(1), Perm::Read);
            cpu.apl_cache.fill(DomainTag(2), back);
        })
    };
    let base = run(false);
    assert_eq!(base.event, StepEvent::Halt, "workload must finish");
    assert!(base.crossings >= 999, "must actually cross domains: {base:?}");
    assert_eq!(run(true), base, "cross-domain loop diverged on the fast engine");
}

#[test]
fn deadline_boundaries_are_identical() {
    // RunExit boundaries must land on the same instruction on both engines
    // (this is what keeps the kernel's slice schedule, and with it every
    // multi-CPU interleaving, identical): sweep a range of deadlines
    // across a loop that a single block would overrun.
    let mut a = Asm::new();
    a.li(T0, DATA);
    a.li(T3, 5000);
    a.label("loop");
    a.push(Instr::St { rs1: T0, rs2: T3, imm: 0 });
    a.push(Instr::Addi { rd: T3, rs1: T3, imm: -1 });
    a.bne(T3, ZERO, "loop");
    a.push(Instr::Halt);
    let code = a.finish().bytes;
    for budget in [1u64, 7, 64, 65, 66, 100, 1000, 4999, 5001] {
        let base = run_program(&code, false, budget);
        assert_eq!(run_program(&code, true, budget), base, "deadline {budget}: diverged");
    }
}

#[test]
fn faults_are_identical() {
    // Division by zero mid-loop.
    let mut a = Asm::new();
    a.li(T0, 100);
    a.label("loop");
    a.push(Instr::Addi { rd: T0, rs1: T0, imm: -1 });
    a.bne(T0, ZERO, "loop");
    a.push(Instr::Divu { rd: A0, rs1: T0, rs2: ZERO });
    assert_identical("div-zero", &a.finish().bytes);

    // Run off into garbage bytes on a hot page (BadInstr).
    let mut a = Asm::new();
    a.li(T0, 50);
    a.label("loop");
    a.push(Instr::Addi { rd: T0, rs1: T0, imm: -1 });
    a.bne(T0, ZERO, "loop");
    let mut bytes = a.finish().bytes;
    bytes.extend_from_slice(&[0xEE; 8]);
    assert_identical("bad-instr", &bytes);

    // Jump to an unmapped address.
    let mut a = Asm::new();
    a.li(T0, 0x9000_0000u64);
    a.push(Instr::Jalr { rd: ZERO, rs1: T0, imm: 0 });
    assert_identical("jump-unmapped", &a.finish().bytes);

    // Store to a read-execute page (protection fault).
    let mut a = Asm::new();
    a.li(T0, CODE);
    a.push(Instr::St { rs1: T0, rs2: T1, imm: 0 });
    assert_identical("store-to-rx", &a.finish().bytes);

    // Privileged instruction from unprivileged code, mid straight-line run.
    let mut a = Asm::new();
    a.push(Instr::Addi { rd: T0, rs1: ZERO, imm: 7 });
    a.push(Instr::Addi { rd: T1, rs1: ZERO, imm: 9 });
    a.push(Instr::Swapgs);
    a.push(Instr::Halt);
    assert_identical("privilege-mid-block", &a.finish().bytes);
}

/// A cold fetch charges one iTLB page-walk penalty for the page plus the
/// base cost of each instruction, on both engines (regression guard for
/// the fetch path translating once, not twice).
#[test]
fn miss_path_cycle_charges_are_unchanged() {
    let mut a = Asm::new();
    a.push(Instr::Nop);
    a.push(Instr::Halt);
    let code = a.finish().bytes;
    let cost = CostModel::default();
    let expect = cost.tlb_miss + 2 * cost.base;
    for fast in [false, true] {
        let got = run_program(&code, fast, 10_000_000);
        assert_eq!(got.event, StepEvent::Halt);
        assert_eq!(got.cycles, expect, "cold-page miss charge changed (fast={fast})");
    }
}

#[test]
fn self_modifying_code_is_identical() {
    // The program overwrites its own upcoming instruction (a Movi imm
    // patch), exactly the shape of dIPC's runtime proxy patching; both
    // engines must execute the patched instruction.
    let patched = u64::from_le_bytes(Instr::Movi { rd: A0, imm: 222 }.encode());
    let mut a = Asm::new();
    // Warm the code page so the decoded block is hot before the patch.
    a.li(T3, 100);
    a.label("warm");
    a.push(Instr::Addi { rd: T3, rs1: T3, imm: -1 });
    a.bne(T3, ZERO, "warm");
    // Build the 8 patched bytes in T1 (movhi keeps only the low half of
    // rd, so a sign-extending movi for the low word is fine).
    a.push(Instr::Movi { rd: T1, imm: patched as u32 as i32 });
    a.push(Instr::Movhi { rd: T1, imm: (patched >> 32) as u32 as i32 });
    // The patch target sits 3 instructions past here(): movi, movhi, st.
    let patch_addr = CODE + a.here() + 3 * 8;
    a.push(Instr::Movi { rd: T0, imm: (patch_addr & 0xffff_ffff) as u32 as i32 });
    a.push(Instr::Movhi { rd: T0, imm: (patch_addr >> 32) as u32 as i32 });
    a.push(Instr::St { rs1: T0, rs2: T1, imm: 0 });
    a.push(Instr::Movi { rd: A0, imm: 111 }); // overwritten by the store
    a.push(Instr::Halt);
    let bytes = a.finish().bytes;
    // The page must be writable as well as executable for the self-patch.
    let run = |fast: bool| {
        run_world(fast, 10_000_000, |mem, _| {
            mem.map_anon(Memory::GLOBAL_PT, CODE, 2, PageFlags::RWX, DomainTag(1));
            mem.kwrite(Memory::GLOBAL_PT, CODE, &bytes).unwrap();
        })
    };
    let base = run(false);
    assert_eq!(run(true), base, "self-modifying program diverged on the fast engine");
    assert_eq!(base.event, StepEvent::Halt);
    assert_eq!(base.a0, 222, "patched instruction must execute");
}
