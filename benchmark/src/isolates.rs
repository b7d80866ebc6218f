//! Layer isolates: fixed microloops that call one layer's public functions
//! and nothing else. They bound what an optimisation of that layer can buy
//! (the engine's ceiling, the cost of one check, one translation, one ring
//! slot) and do not depend on the workload; a traced run of any workload
//! reports all of them.

use std::hint::black_box;
use std::time::Instant;

use aring::{Backpressure, FlatRing, Ring, RingCfg};
use baselines::{micro, sem, Placement};
use cdvm::isa::reg::*;
use cdvm::{Asm, CostModel, Cpu, Instr, StepEvent};
use codoms::apl::{Apl, Perm};
use codoms::cache::AplCache;
use codoms::cap::RevocationTable;
use codoms::check::Checker;
use oltp::workload::{OpenLoop, WorkloadCfg};
use oltp::{dipc_stack, OltpParams, StorageKind};
use plugins::images::{signed_blob, PluginKind};
use simmem::page::Access;
use simmem::{DomainTag, Memory, PageFlags, PAGE_SIZE};

use crate::schema::Metrics;
use crate::spans::Tracer;
use crate::workloads::prod::RATE_PER_S;

const CODE: u64 = 0x10_000;
const DATA: u64 = 0x20_000;
const CALLEE: u64 = 0x40_000;

/// Host nanoseconds per call of `f` over `n` calls.
fn ns_per(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_secs_f64() * 1e9 / n as f64
}

/// `Cpu::run` on a bare `Memory`, no kernel: the engine's ceiling in million
/// guest instructions per host second. The loops are `simspeed`'s.
fn engine_mips(code: &[u8], callee: Option<&[u8]>) -> f64 {
    const TARGET: u64 = 4_000_000;
    let mut mem = Memory::new();
    let pt = Memory::GLOBAL_PT;
    mem.map_anon(pt, CODE, 4, PageFlags::RX, DomainTag(1));
    mem.map_anon(pt, DATA, 4, PageFlags::RW, DomainTag(1));
    mem.kwrite(pt, CODE, code).expect("code page is mapped");
    let mut cpu = Cpu::new(0);
    cpu.pc = CODE;
    cpu.cur_dom = DomainTag(1);
    cpu.thread = 1;
    if let Some(callee) = callee {
        mem.map_anon(pt, CALLEE, 1, PageFlags::RX, DomainTag(2));
        mem.kwrite(pt, CALLEE, callee).expect("callee page is mapped");
        let mut apl1 = Apl::new();
        apl1.set(DomainTag(2), Perm::Call);
        cpu.apl_cache.fill(DomainTag(1), apl1);
        let mut apl2 = Apl::new();
        apl2.set(DomainTag(1), Perm::Read);
        cpu.apl_cache.fill(DomainTag(2), apl2);
    }
    let mut rev = RevocationTable::new();
    let cost = CostModel::default();
    cpu.run(&mut mem, &mut rev, &cost, cpu.cycles + 100_000);
    let mut retired = 0u64;
    let t = Instant::now();
    while retired < TARGET {
        let exit = cpu.run(&mut mem, &mut rev, &cost, cpu.cycles + 1_000_000);
        assert!(matches!(exit.event, StepEvent::Retired), "isolate loop stopped: {:?}", exit.event);
        retired += exit.retired;
    }
    retired as f64 / 1e6 / t.elapsed().as_secs_f64()
}

fn cdvm(m: &mut Metrics) {
    let mut a = Asm::new();
    a.li(T0, 0);
    a.label("loop");
    a.push(Instr::Addi { rd: T0, rs1: T0, imm: 1 });
    a.push(Instr::Xor { rd: T1, rs1: T0, rs2: T0 });
    a.push(Instr::Add { rd: T1, rs1: T1, rs2: T0 });
    a.push(Instr::Sltu { rd: T2, rs1: T1, rs2: T0 });
    a.j("loop");
    m.set("cdvm.iso_alu_mips", engine_mips(&a.finish().bytes, None));

    let mut a = Asm::new();
    a.li(T0, DATA);
    a.label("loop");
    a.push(Instr::St { rs1: T0, rs2: T1, imm: 0 });
    a.push(Instr::Ld { rd: T1, rs1: T0, imm: 0 });
    a.push(Instr::St { rs1: T0, rs2: T1, imm: 512 });
    a.push(Instr::Ld { rd: T2, rs1: T0, imm: 512 });
    a.j("loop");
    m.set("cdvm.iso_mem_mips", engine_mips(&a.finish().bytes, None));

    let mut a = Asm::new();
    a.li(T0, CALLEE);
    a.label("loop");
    a.call_reg(T0);
    a.j("loop");
    let caller = a.finish().bytes;
    let mut a = Asm::new();
    a.li(A0, 7);
    a.ret();
    m.set("cdvm.iso_xcall_mips", engine_mips(&caller, Some(&a.finish().bytes)));
}

fn codoms(m: &mut Metrics) {
    const N: u64 = 2_000_000;
    // Sixteen domains, each allowed to call and write the next.
    let mut cache = AplCache::new();
    for d in 1..=16u32 {
        let mut apl = Apl::new();
        apl.set(DomainTag(d % 16 + 1), Perm::Write);
        apl.set(DomainTag((d + 1) % 16 + 1), Perm::Call);
        cache.fill(DomainTag(d), apl);
    }
    m.set(
        "codoms.iso_apl_lookup_ns",
        ns_per(N, |i| {
            black_box(cache.lookup(DomainTag(i as u32 % 16 + 1)).map(|(hw, _)| hw));
        }),
    );

    let mut mem = Memory::new();
    let pt = Memory::GLOBAL_PT;
    for d in 1..=16u64 {
        mem.map_anon(pt, d * 0x10_000, 1, PageFlags::RWX, DomainTag(d as u32));
    }
    let ptes: Vec<_> =
        (1..=16u64).map(|d| mem.lookup_pte(pt, d * 0x10_000).expect("mapped")).collect();
    let checker = Checker::default();
    let caps = [None; codoms::cap::CAP_REGS];
    let rev = RevocationTable::new();
    m.set(
        "codoms.iso_check_jump_ns",
        ns_per(N, |i| {
            let d = i as usize % 16;
            // d+1 holds Call on d+3: an aligned entry in another domain.
            let to = (d + 2) % 16;
            let r = checker.check_jump(
                DomainTag(d as u32 + 1),
                &ptes[to],
                (to as u64 + 1) * 0x10_000,
                &mut cache,
                &caps,
                &rev,
                1,
            );
            assert!(black_box(r).is_ok());
        }),
    );
    m.set(
        "codoms.iso_check_data_ns",
        ns_per(N, |i| {
            let d = i as usize % 16;
            let to = (d + 1) % 16;
            let r = checker.check_data(
                DomainTag(d as u32 + 1),
                &ptes[to],
                (to as u64 + 1) * 0x10_000 + 64,
                8,
                true,
                &mut cache,
                &caps,
                &rev,
                1,
            );
            assert!(black_box(r).is_ok());
        }),
    );
}

fn simmem(m: &mut Metrics) {
    const N: u64 = 2_000_000;
    let pt = Memory::GLOBAL_PT;
    let base = 0x100_0000u64;

    // Hot: 64 pages, far inside the host translation cache.
    let mut mem = Memory::new();
    mem.map_anon(pt, base, 64, PageFlags::RW, DomainTag(1));
    m.set(
        "simmem.iso_translate_hot_ns",
        ns_per(N, |i| {
            let addr = base + (i % 64) * PAGE_SIZE;
            black_box(mem.translate(pt, addr, Access::Read).is_ok());
        }),
    );
    m.set(
        "simmem.iso_rw_u64_ns",
        ns_per(N, |i| {
            let addr = base + (i % 64) * PAGE_SIZE + (i % 500) * 8;
            mem.write_u64(pt, addr, i).expect("mapped RW");
            black_box(mem.read_u64(pt, addr).expect("mapped RW"));
        }),
    );
    m.set(
        "simmem.iso_map_unmap_ns",
        ns_per(20_000, |i| {
            let at = base + (0x1000 + (i % 8) * 16) * PAGE_SIZE;
            mem.map_anon(pt, at, 16, PageFlags::RW, DomainTag(2));
            mem.unmap(pt, at, 16);
        }),
    );

    // Cold: 65 536 pages aliasing one frame, walked with a stride that
    // defeats the 1024-entry direct-mapped translation cache, so every
    // lookup reaches the page table.
    let mut mem = Memory::new();
    let frame = mem.phys_mut().alloc_frame();
    for p in 0..65_536u64 {
        mem.map_shared(pt, base + p * PAGE_SIZE, frame, PageFlags::RW, DomainTag(1));
    }
    m.set(
        "simmem.iso_translate_cold_ns",
        ns_per(N, |i| {
            let addr = base + (i.wrapping_mul(40_503) % 65_536) * PAGE_SIZE;
            black_box(mem.translate(pt, addr, Access::Read).is_ok());
        }),
    );
}

/// Host seconds of `f(n)`.
fn timed(n: u64, f: impl Fn(u64)) -> f64 {
    let t = Instant::now();
    f(n);
    t.elapsed().as_secs_f64()
}

fn simkernel(m: &mut Metrics) {
    // Host cost per simulated operation, from two sizes of the same run so
    // that building the system cancels out.
    let per_op = |small: u64, large: u64, f: &dyn Fn(u64)| {
        let (a, b) = (timed(small, f), timed(large, f));
        ((b - a) * 1e9 / (large - small) as f64).max(0.0)
    };
    m.set(
        "simkernel.iso_syscall_host_ns",
        per_op(1_000, 201_000, &|n| {
            black_box(micro::bench_syscall(n));
        }),
    );
    m.set(
        "simkernel.iso_ctxsw_host_ns",
        per_op(100, 10_100, &|n| {
            black_box(sem::bench_sem(n, Placement::SameCpu, 1));
        }),
    );

    let key = 0xD1FC_5EED;
    let blob = signed_blob(key, 0, PluginKind::Benign);
    let checker = simkernel::checker::Checker { key, caps: plugins::PluginParams::default().caps };
    let n = 20_000;
    let ns = ns_per(n, |_| {
        assert!(black_box(checker.check(black_box(&blob))).is_ok());
    });
    m.set("simkernel.iso_checker_mib_per_s", blob.len() as f64 / (1 << 20) as f64 / (ns / 1e9));
}

fn aring(m: &mut Metrics) {
    let ring = Ring::new(RingCfg::new(256, false, Backpressure::Fail));
    let mut mem = FlatRing::new(256);
    ring.init(&mut mem, 0);
    m.set(
        "aring.iso_enq_deq_ns",
        ns_per(2_000_000, |i| {
            ring.try_enqueue(&mut mem, &[i, 1, 2, 3]).expect("ring has room");
            black_box(ring.try_dequeue(&mut mem).expect("record was enqueued"));
        }),
    );
}

fn oltp(m: &mut Metrics) {
    let mut gen = OpenLoop::new(WorkloadCfg::production(0xD1FC_0800, RATE_PER_S, 200_000_000));
    let t = Instant::now();
    let mut n = 0u64;
    for a in &mut gen {
        black_box(a);
        n += 1;
    }
    m.set("oltp.gen_ns_per_arrival", t.elapsed().as_secs_f64() * 1e9 / n as f64);
}

/// A 50 ms-simulated `oltp-dipc` window with `simtrace` armed against the
/// same window disarmed. The trace is never flushed, so nothing is written.
fn simtrace(m: &mut Metrics) {
    let window = |armed: bool| {
        if armed {
            simtrace::enable(concat!(env!("CARGO_MANIFEST_DIR"), "/out/simtrace-isolate.json"));
        }
        // The CPUs sample the tracer's state when they are created.
        let mut st = dipc_stack::build(&OltpParams::with(16, StorageKind::InMemory));
        st.run(10, 0, 16);
        let t = Instant::now();
        let r = st.run(0, 50, 16);
        let secs = t.elapsed().as_secs_f64();
        let events = simtrace::event_count();
        simtrace::disable();
        (secs, events, r.ops)
    };
    let (plain_s, _, plain_ops) = window(false);
    let (armed_s, events, armed_ops) = window(true);
    assert_eq!(plain_ops, armed_ops, "simtrace changed the simulated result");
    m.set("simtrace.overhead_ratio", armed_s / plain_s);
    m.set("simtrace.events_per_s", events as f64 / armed_s);
}

/// Runs every isolate, one span per layer.
pub fn run(m: &mut Metrics, tr: &mut Tracer) {
    type Isolate = (&'static str, &'static str, fn(&mut Metrics));
    let layers: [Isolate; 7] = [
        ("isolate.cdvm", "cdvm", cdvm),
        ("isolate.codoms", "codoms", codoms),
        ("isolate.simmem", "simmem", simmem),
        ("isolate.simkernel", "simkernel", simkernel),
        ("isolate.aring", "aring", aring),
        ("isolate.oltp", "oltp", oltp),
        ("isolate.simtrace", "simtrace", simtrace),
    ];
    for (span, layer, f) in layers {
        tr.begin(span, layer);
        f(m);
        tr.end();
    }
}
