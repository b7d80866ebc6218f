//! Host simulation speed: how many simulated instructions per host second
//! each of the two engines retires — the reference interpreter
//! (`CDVM_NO_FASTPATH=1`: every fetch translated and decoded from scratch,
//! no host cache) and the fast engine (superblocks, crossing descriptors,
//! operand cache, threaded handlers, host translation cache).
//!
//! Unlike every other binary here, this one measures *wall-clock* host
//! performance, not simulated cycles — the simulated results are identical
//! on both engines by construction (see `tests/fastpath_diff.rs`). Emits
//! `results/BENCH_simspeed.json`, including the fast engine's block,
//! crossing-descriptor and data-translation-cache hit rates and the host
//! CPU count (wall-clock numbers are hardware-dependent).
//!
//! `SIMSPEED_ASSERT=1` additionally asserts (a) that the host cache
//! counters are identical across repeated trials — the deterministic part
//! of the emitted JSON regenerates bit-identically — and (b) that the fast
//! engine beats the reference on every workload and by at least 2× in the
//! geomean. Both asserts are skipped under `CDVM_NO_FASTPATH=1` (both
//! columns then measure the reference).

use std::time::Instant;

use cdvm::isa::reg::*;
use cdvm::{Asm, CostModel, Cpu, HostCacheStats, Instr, StepEvent};
use codoms::apl::{Apl, Perm};
use codoms::cap::RevocationTable;
use dipc::{AppSpec, IsoProps, Signature, System, World};
use simkernel::KernelConfig;
use simmem::{DomainTag, Memory, PageFlags};

const CODE: u64 = 0x10_000;
const DATA: u64 = 0x20_000;
const CALLEE: u64 = 0x40_000;

enum Kind {
    /// Bare CPU + memory, no kernel: `code` at `CODE` in domain 1, with an
    /// optional `callee` page at `CALLEE` in domain 2.
    Raw { code: Vec<u8>, callee: Option<Vec<u8>> },
    /// A full dIPC world: a caller process invoking a server export
    /// through the run-time generated proxy (enter/return pair).
    Proxy,
}

struct Workload {
    name: &'static str,
    desc: &'static str,
    kind: Kind,
}

fn workloads() -> Vec<Workload> {
    // ALU-heavy spin loop: fetch/decode dominates; the whole block body is
    // pure, so direct-threaded dispatch covers it end to end.
    let mut a = Asm::new();
    a.li(T0, 0);
    a.label("loop");
    a.push(Instr::Addi { rd: T0, rs1: T0, imm: 1 });
    a.push(Instr::Xor { rd: T1, rs1: T0, rs2: T0 });
    a.push(Instr::Add { rd: T1, rs1: T1, rs2: T0 });
    a.push(Instr::Sltu { rd: T2, rs1: T1, rs2: T0 });
    a.j("loop");
    let alu = a.finish().bytes;

    // Load/store loop: exercises the data-side translation cache too.
    let mut a = Asm::new();
    a.li(T0, DATA);
    a.label("loop");
    a.push(Instr::St { rs1: T0, rs2: T1, imm: 0 });
    a.push(Instr::Ld { rd: T1, rs1: T0, imm: 0 });
    a.push(Instr::St { rs1: T0, rs2: T1, imm: 512 });
    a.push(Instr::Ld { rd: T2, rs1: T0, imm: 512 });
    a.j("loop");
    let mem = a.finish().bytes;

    // Cross-domain call ping-pong: every iteration crosses domains twice,
    // stressing the block-edge crossing descriptors.
    let mut a = Asm::new();
    a.li(T0, CALLEE);
    a.label("loop");
    a.call_reg(T0);
    a.j("loop");
    let xcall_caller = a.finish().bytes;
    let mut a = Asm::new();
    a.li(A0, 7);
    a.ret();
    let xcall_callee = a.finish().bytes;

    vec![
        Workload {
            name: "alu",
            desc: "register arithmetic spin loop",
            kind: Kind::Raw { code: alu, callee: None },
        },
        Workload {
            name: "mem",
            desc: "load/store loop (checked data path)",
            kind: Kind::Raw { code: mem, callee: None },
        },
        Workload {
            name: "xcall",
            desc: "cross-domain call ping-pong",
            kind: Kind::Raw { code: xcall_caller, callee: Some(xcall_callee) },
        },
        Workload { name: "proxy", desc: "dIPC proxy enter/return pair", kind: Kind::Proxy },
    ]
}

/// Builds a fresh bare machine for a raw workload (the engine is sampled
/// at construction, so callers call `simmem::set_fastpath` first).
fn build(code: &[u8], callee: Option<&Vec<u8>>) -> (Memory, Cpu) {
    let mut mem = Memory::new();
    let pt = Memory::GLOBAL_PT;
    mem.map_anon(pt, CODE, 4, PageFlags::RX, DomainTag(1));
    mem.map_anon(pt, DATA, 4, PageFlags::RW, DomainTag(1));
    mem.kwrite(pt, CODE, code).unwrap();
    let mut cpu = Cpu::new(0);
    cpu.pc = CODE;
    cpu.cur_dom = DomainTag(1);
    cpu.thread = 1;
    if let Some(callee) = callee {
        mem.map_anon(pt, CALLEE, 1, PageFlags::RX, DomainTag(2));
        mem.kwrite(pt, CALLEE, callee).unwrap();
        let mut apl1 = Apl::new();
        apl1.set(DomainTag(2), Perm::Call);
        cpu.apl_cache.fill(DomainTag(1), apl1);
        let mut apl2 = Apl::new();
        apl2.set(DomainTag(1), Perm::Read);
        cpu.apl_cache.fill(DomainTag(2), apl2);
    }
    (mem, cpu)
}

/// One timed trial of a raw workload: runs it for at least `target`
/// retired instructions and returns host MIPS (million simulated
/// instructions per host second) plus the host cache counters accumulated
/// over the timed region.
fn trial_raw(code: &[u8], callee: Option<&Vec<u8>>, target: u64) -> (f64, HostCacheStats) {
    let (mut mem, mut cpu) = build(code, callee);
    let mut rev = RevocationTable::new();
    let cost = CostModel::default();
    // Warm up (fills caches, faults in frames) before the timed region.
    cpu.run(&mut mem, &mut rev, &cost, cpu.cycles + 100_000);
    let warm = cpu.host_cache_stats();
    let mut retired = 0u64;
    let start = Instant::now();
    while retired < target {
        let exit = cpu.run(&mut mem, &mut rev, &cost, cpu.cycles + 1_000_000);
        retired += exit.retired;
        assert!(matches!(exit.event, StepEvent::Retired), "unexpected exit {:?}", exit.event);
    }
    let secs = start.elapsed().as_secs_f64();
    (retired as f64 / 1e6 / secs.max(1e-9), cpu.host_cache_stats().delta(&warm))
}

/// One timed trial of the dIPC proxy workload: a caller process invokes a
/// server export through the run-time generated proxy, so every iteration
/// executes a real enter/return pair — capability spill/fill on the DCS,
/// the grant/revoke protocol, and a chain of cross-domain block edges for
/// the crossing descriptors to serve.
fn trial_proxy(target: u64) -> (f64, HostCacheStats) {
    let mut w = World::new(KernelConfig { cpus: 1, ..KernelConfig::default() });
    let sig = Signature { args: 2, rets: 1, stack_bytes: 0, cap_args: 1 };
    w.build(
        AppSpec::new("srv", |a| {
            a.label("f");
            a.li(A0, 1);
            a.ret();
        })
        .export("f", sig, IsoProps::LOW),
    );
    w.build(
        AppSpec::new("cli", |a| {
            a.label("main");
            a.label("loop");
            a.li(A0, 0);
            a.li(A1, 0);
            a.jal(RA, "call_srv_f");
            a.j("loop");
        })
        .import("srv", "f", sig, IsoProps::LOW),
    );
    w.link();
    w.spawn("cli", "main", &[]);
    let retired = |s: &System| s.k.cpus.iter().map(|c| c.cpu.retired).sum::<u64>();
    // Warm up: generate and fault in the proxy, fill the caches.
    let warm_goal = retired(&w.sys) + 200_000;
    w.sys.run_until(|s| retired(s) >= warm_goal);
    let warm = w.sys.k.cpus[0].cpu.host_cache_stats();
    let n0 = retired(&w.sys);
    let goal = n0 + target;
    let start = Instant::now();
    w.sys.run_until(|s| retired(s) >= goal);
    let secs = start.elapsed().as_secs_f64();
    let n1 = retired(&w.sys);
    ((n1 - n0) as f64 / 1e6 / secs.max(1e-9), w.sys.k.cpus[0].cpu.host_cache_stats().delta(&warm))
}

fn trial(w: &Workload, target: u64) -> (f64, HostCacheStats) {
    match &w.kind {
        Kind::Raw { code, callee } => trial_raw(code, callee.as_ref(), target),
        Kind::Proxy => trial_proxy(target),
    }
}

/// Best of three trials. Wall-clock MIPS on a short region is dominated by
/// host frequency ramping and scheduler noise; the fastest trial is the
/// stable estimator of what the executor can sustain. With
/// `assert_identity`, the host cache counters of all trials must agree
/// exactly (the simulation is deterministic; the counters are the
/// reproducible part of the emitted JSON).
fn measure(w: &Workload, target: u64, assert_identity: bool) -> (f64, HostCacheStats) {
    let trials: Vec<(f64, HostCacheStats)> = (0..3).map(|_| trial(w, target)).collect();
    if assert_identity {
        for t in &trials[1..] {
            assert_eq!(
                t.1, trials[0].1,
                "{}: host cache counters must be identical across trials",
                w.name
            );
        }
    }
    trials.into_iter().max_by(|a, b| a.0.total_cmp(&b.0)).unwrap()
}

fn geomean(ratios: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = ratios.fold((0.0, 0usize), |(s, n), r| (s + r.ln(), n + 1));
    (sum / n.max(1) as f64).exp()
}

fn main() {
    bench::banner("simspeed - host simulation throughput (wall clock)");
    let scale = bench::scale();
    let target = 2_000_000 * scale;
    // Respect an operator's `CDVM_NO_FASTPATH=1`: the fast column then
    // measures the reference too (and says so).
    let degraded = !simmem::fastpath_enabled();
    if degraded {
        println!("note: CDVM_NO_FASTPATH is set; both columns run the reference interpreter");
    }
    let do_assert = bench::flag("SIMSPEED_ASSERT") && !degraded;
    println!(
        "{:<8} {:<34} {:>9} {:>8} {:>8} {:>7}",
        "workload", "description", "reference", "fast", "speedup", "xhit"
    );

    struct Row {
        name: &'static str,
        desc: &'static str,
        mips_reference: f64,
        mips_fast: f64,
        caches: HostCacheStats,
    }
    let mut rows = Vec::new();
    for w in workloads() {
        simmem::set_fastpath(Some(false));
        let (mips_reference, _) = measure(&w, target, do_assert);
        simmem::set_fastpath(Some(!degraded));
        let (mips_fast, caches) = measure(&w, target, do_assert);
        simmem::set_fastpath(None);
        println!(
            "{:<8} {:<34} {:>9.2} {:>8.2} {:>7.2}x {:>6.1}%",
            w.name,
            w.desc,
            mips_reference,
            mips_fast,
            mips_fast / mips_reference,
            100.0 * caches.cross_hit_rate()
        );
        if do_assert {
            assert!(
                mips_fast >= mips_reference,
                "{}: the fast engine ({mips_fast:.2} MIPS) must not lose to the reference \
                 ({mips_reference:.2} MIPS)",
                w.name
            );
        }
        rows.push(Row { name: w.name, desc: w.desc, mips_reference, mips_fast, caches });
    }

    let geo = geomean(rows.iter().map(|r| r.mips_fast / r.mips_reference));
    println!("geomean speedup: {geo:.2}x over the reference interpreter");
    if do_assert {
        assert!(geo >= 2.0, "geomean speedup {geo:.2}x is under the 2.00x floor");
    }

    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"description\": \"{}\", \
                 \"mips_reference\": {:.3}, \"mips_fast\": {:.3}, \"speedup\": {:.3}, \
                 \"block_hit_rate\": {:.4}, \"cross_hit_rate\": {:.4}, \
                 \"dcache_hit_rate\": {:.4}, \"block_evict_conflicts\": {}}}",
                r.name,
                r.desc,
                r.mips_reference,
                r.mips_fast,
                r.mips_fast / r.mips_reference,
                r.caches.block_hit_rate(),
                r.caches.cross_hit_rate(),
                r.caches.dcache_hit_rate(),
                r.caches.block_evict_conflicts,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"simspeed\",\n  \"scale\": {scale},\n  \
         \"target_instructions\": {target},\n  \"host_cpus\": {host_cpus},\n  \
         \"geomean_speedup\": {geo:.3},\n  \
         \"workloads\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_simspeed.json", &json)
        .expect("write results/BENCH_simspeed.json");
    println!("wrote results/BENCH_simspeed.json");
    bench::finish();
}
