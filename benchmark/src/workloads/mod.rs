//! The five workloads. Each exposes one function that runs a *round*: set
//! the system up from nothing, then run a fixed amount of simulated work
//! under the clock. A run is several rounds; because every round of a seed
//! starts from the same state, its simulated results must repeat exactly.

pub mod oltp;
pub mod plugin_churn;
pub mod prod;
pub mod sync_call;

use cdvm::HostCacheStats;
use dipc::{SysStep, System};
use simkernel::{Kernel, TimeBreakdown, TimeCat};
use simmem::Memory;

use crate::spans::Tracer;

/// Inputs of a round. `seed` picks the workload's inputs (see each module);
/// `smoke` shrinks the round to well under two seconds.
#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    pub seed: u64,
    pub smoke: bool,
}

impl Cfg {
    /// A small seed-derived integer in `0..n`, independent per `salt`.
    pub fn pick(&self, salt: u64, n: u64) -> u64 {
        ::oltp::workload::mix64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % n
    }
}

/// The simulated outcome of a round: identical for identical inputs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sim {
    /// Operations attempted in the measured region.
    pub attempted: u64,
    /// Operations that were shed, refused or failed, plus broken
    /// expectations about the outcome.
    pub failed: u64,
    /// Simulated seconds the measured region covers.
    pub sim_s: f64,
    pub ops_per_s: f64,
    /// Simulated latency per operation: the mean, or the median of the
    /// in-guest samples where the workload has a distribution (`prod`).
    pub lat_us: f64,
    /// Guest instructions retired in the measured region, where the harness
    /// can see the simulated CPUs.
    pub retired: Option<u64>,
    /// Per-layer counters and simulated figures read after the region.
    pub counters: Vec<(String, f64)>,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
}

impl Sim {
    pub fn count(&mut self, name: impl Into<String>, v: f64) {
        self.counters.push((name.into(), v));
    }

    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

pub struct Round {
    /// Host seconds from nothing to the start of the measured region.
    pub setup_s: f64,
    /// Host seconds of the measured region.
    pub wall_s: f64,
    /// Host seconds of each consecutive part of the region (a row, a slice
    /// of the window, a cycle). Part `k` does the same simulated work in
    /// every round of a seed, so the parts' fastest times can be added up.
    pub parts_s: Vec<f64>,
    pub sim: Sim,
    /// Host-time per-layer figures of this round (not deterministic).
    pub host: Vec<(String, f64)>,
}

pub fn run_round(workload: &str, cfg: &Cfg, tr: Option<&mut Tracer>) -> Round {
    match workload {
        "sync-call" => sync_call::round(cfg, tr),
        "oltp-linux" => oltp::round(oltp::Flavor::Linux, cfg, tr),
        "oltp-dipc" => oltp::round(oltp::Flavor::Dipc, cfg, tr),
        "prod" => prod::round(cfg, tr),
        "plugin-churn" => plugin_churn::round(cfg, tr),
        other => unreachable!("workload {other} was validated by the caller"),
    }
}

/// Opens a coarse span when tracing.
pub fn begin(tr: &mut Option<&mut Tracer>, name: &'static str, layer: &'static str) {
    if let Some(t) = tr {
        t.begin(name, layer);
    }
}

pub fn end(tr: &mut Option<&mut Tracer>) {
    if let Some(t) = tr {
        t.end();
    }
}

fn retired(sys: &System) -> u64 {
    sys.k.cpus.iter().map(|c| c.cpu.retired).sum()
}

/// Runs `sys` until `done` holds or nothing is left to run — exactly
/// `System::run_until`, which it calls when not tracing. When tracing, the
/// harness owns the loop over the public `System::step`, reads the clock once
/// per step and files the step under `cdvm` if it retired guest instructions
/// and under `simkernel` (event processing, scheduling) if it did not —
/// unless `claim`, which sees the system after the step and the step's host
/// nanoseconds, names another span for it.
pub fn drive(
    sys: &mut System,
    tr: &mut Option<&mut Tracer>,
    mut done: impl FnMut(&System) -> bool,
    mut claim: impl FnMut(&System, u64) -> Option<(&'static str, &'static str)>,
) {
    let Some(t) = tr else {
        sys.run_until(done);
        return;
    };
    let mut r_prev = retired(sys);
    let mut t_prev = t.now_ns();
    loop {
        if done(sys) {
            return;
        }
        match sys.step() {
            SysStep::Progress => {}
            SysStep::Finished => return,
            SysStep::Deadlock => panic!("simulation deadlock"),
            SysStep::External { class, .. } => panic!("unhandled external event class {class}"),
        }
        let now = t.now_ns();
        let r = retired(sys);
        let (name, layer) = claim(sys, now - t_prev).unwrap_or(if r != r_prev {
            ("step.cpu", "cdvm")
        } else {
            ("step.event", "simkernel")
        });
        t.step(name, layer, t_prev, now);
        r_prev = r;
        t_prev = now;
    }
}

/// Public counters of every simulated CPU, summed.
#[derive(Clone, Copy, Default)]
pub struct Snap {
    retired: u64,
    caches: HostCacheStats,
    apl: (u64, u64),
    itlb: (u64, u64, u64),
    dtlb: (u64, u64, u64),
    crossings: u64,
    breakdown: TimeBreakdown,
    cold_resolves: u64,
}

pub fn snap(sys: &System) -> Snap {
    let mut s =
        Snap { breakdown: sys.k.breakdown(), cold_resolves: sys.cold_resolves, ..Snap::default() };
    for slot in &sys.k.cpus {
        let c = &slot.cpu;
        s.retired += c.retired;
        s.crossings += c.domain_crossings;
        s.caches = add_caches(&s.caches, &c.host_cache_stats());
        let (ah, am) = c.apl_cache.stats();
        s.apl = (s.apl.0 + ah, s.apl.1 + am);
        let (i, d) = (c.itlb.stats(), c.dtlb.stats());
        s.itlb = (s.itlb.0 + i.hits, s.itlb.1 + i.misses, s.itlb.2 + i.flushes);
        s.dtlb = (s.dtlb.0 + d.hits, s.dtlb.1 + d.misses, s.dtlb.2 + d.flushes);
    }
    s
}

impl Snap {
    /// Field-wise sum, for regions that span several simulated systems.
    pub fn plus(mut self, o: &Snap) -> Snap {
        self.retired += o.retired;
        self.caches = add_caches(&self.caches, &o.caches);
        self.apl = (self.apl.0 + o.apl.0, self.apl.1 + o.apl.1);
        self.itlb = (self.itlb.0 + o.itlb.0, self.itlb.1 + o.itlb.1, self.itlb.2 + o.itlb.2);
        self.dtlb = (self.dtlb.0 + o.dtlb.0, self.dtlb.1 + o.dtlb.1, self.dtlb.2 + o.dtlb.2);
        self.crossings += o.crossings;
        self.breakdown.merge(&o.breakdown);
        self.cold_resolves += o.cold_resolves;
        self
    }
}

fn add_caches(a: &HostCacheStats, b: &HostCacheStats) -> HostCacheStats {
    HostCacheStats {
        icache_hits: a.icache_hits + b.icache_hits,
        icache_misses: a.icache_misses + b.icache_misses,
        icache_fills: a.icache_fills + b.icache_fills,
        icache_evicts: a.icache_evicts + b.icache_evicts,
        block_hits: a.block_hits + b.block_hits,
        block_misses: a.block_misses + b.block_misses,
        block_fills: a.block_fills + b.block_fills,
        block_evicts: a.block_evicts + b.block_evicts,
        block_evict_conflicts: a.block_evict_conflicts + b.block_evict_conflicts,
        block_chains: a.block_chains + b.block_chains,
        block_bails: a.block_bails + b.block_bails,
        cross_hits: a.cross_hits + b.cross_hits,
        cross_misses: a.cross_misses + b.cross_misses,
        dcache_hits: a.dcache_hits + b.dcache_hits,
        dcache_misses: a.dcache_misses + b.dcache_misses,
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Files the counter deltas of a measured region (`s0` → `s1`) and the
/// state of `sys` after it under their per-layer names.
///
/// The host-side cache counters go to `host`: block, icache and dcache
/// placement follows guest addresses, which follow `HashMap` iteration order
/// at link time, so they vary a little from process to process while every
/// simulated figure stays put.
pub fn count_region(
    sim: &mut Sim,
    host: &mut Vec<(String, f64)>,
    sys: &System,
    s0: &Snap,
    s1: &Snap,
    ops: u64,
) {
    let retired = s1.retired - s0.retired;
    let h = s1.caches.delta(&s0.caches);
    let per_op = |v: u64| if ops == 0 { 0.0 } else { v as f64 / ops as f64 };
    sim.retired = Some(retired);
    sim.count("cdvm.retired", retired as f64);
    sim.count("cdvm.retired_per_op", per_op(retired));
    let mut host_count = |name: &str, v: f64| host.push((name.to_string(), v));
    host_count("cdvm.block_hit_rate", h.block_hit_rate());
    host_count("cdvm.block_chain_rate", rate(h.block_chains, h.block_hits + h.block_misses));
    host_count(
        "cdvm.block_fills_per_minstr",
        if retired == 0 { 0.0 } else { h.block_fills as f64 * 1e6 / retired as f64 },
    );
    host_count("cdvm.block_bails", h.block_bails as f64);
    host_count("cdvm.block_evict_conflicts", h.block_evict_conflicts as f64);
    host_count("cdvm.icache_hit_rate", h.icache_hit_rate());
    host_count("cdvm.dcache_hit_rate", h.dcache_hit_rate());
    host_count("cdvm.cross_hit_rate", h.cross_hit_rate());
    let crossings = s1.crossings - s0.crossings;
    sim.count("cdvm.domain_crossings", crossings as f64);
    sim.count("codoms.apl_hit_rate", rate(s1.apl.0 - s0.apl.0, s1.apl.1 - s0.apl.1));
    sim.count("codoms.apl_misses", (s1.apl.1 - s0.apl.1) as f64);
    sim.count("codoms.crossings_per_op", per_op(crossings));
    sim.count("simmem.itlb_hit_rate", rate(s1.itlb.0 - s0.itlb.0, s1.itlb.1 - s0.itlb.1));
    sim.count("simmem.dtlb_hit_rate", rate(s1.dtlb.0 - s0.dtlb.0, s1.dtlb.1 - s0.dtlb.1));
    sim.count("simmem.tlb_flushes", ((s1.itlb.2 - s0.itlb.2) + (s1.dtlb.2 - s0.dtlb.2)) as f64);
    sim.count("simmem.mapped_pages", mapped_pages(&sys.k) as f64);
    sim.count("simkernel.threads", sys.k.threads.len() as f64);
    sim.count("simkernel.procs", sys.k.procs.len() as f64);
    let b = s1.breakdown.since(&s0.breakdown);
    let kernel = b.fraction(TimeCat::SyscallEntry)
        + b.fraction(TimeCat::Dispatch)
        + b.fraction(TimeCat::Kernel);
    sim.count("simkernel.sim_user_frac", b.fraction(TimeCat::User));
    sim.count("simkernel.sim_kernel_frac", kernel);
    sim.count("simkernel.sim_sched_frac", b.fraction(TimeCat::Sched));
    sim.count("simkernel.sim_pt_frac", b.fraction(TimeCat::PtSwitch));
    sim.count("simkernel.sim_idle_frac", b.fraction(TimeCat::Idle));
    sim.count("dipc.cold_resolves", (s1.cold_resolves - s0.cold_resolves) as f64);
}

/// Pages mapped in the global table and every private one.
fn mapped_pages(k: &Kernel) -> usize {
    let mut pts: Vec<usize> = k.procs.values().map(|p| p.pt.0).collect();
    pts.push(Memory::GLOBAL_PT.0);
    pts.sort_unstable();
    pts.dedup();
    pts.iter().map(|&pt| k.mem.table(simmem::PageTableId(pt)).mapped_pages()).sum()
}

/// Step counts and times of the traced region, filed under their per-layer
/// names. Step *counts* are simulated facts and repeat exactly; the times do
/// not.
pub fn count_steps(sim: &mut Sim, host: &mut Vec<(String, f64)>, t: &Tracer, s0: &StepMark) {
    let cpu_n = t.count("step.cpu") - s0.cpu_n;
    let ev_n = t.count("step.event") - s0.ev_n;
    let cpu_s = t.total_s("step.cpu") - s0.cpu_s;
    let ev_s = t.total_s("step.event") - s0.ev_s;
    sim.count("cdvm.slices", cpu_n as f64);
    sim.count("simkernel.event_steps", ev_n as f64);
    sim.count("simkernel.event_step_share", rate(ev_n, cpu_n));
    if let Some(r) = sim.retired {
        sim.count("cdvm.retired_per_slice", if cpu_n == 0 { 0.0 } else { r as f64 / cpu_n as f64 });
        host.push(("cdvm.ns_per_instr".into(), if r == 0 { 0.0 } else { cpu_s * 1e9 / r as f64 }));
    }
    host.push(("cdvm.step_cpu_s".into(), cpu_s));
    host.push(("simkernel.step_event_s".into(), ev_s));
    let steps = cpu_n + ev_n;
    host.push((
        "simkernel.ns_per_step".into(),
        if steps == 0 { 0.0 } else { (cpu_s + ev_s) * 1e9 / steps as f64 },
    ));
}

/// Step totals at the start of a traced region.
#[derive(Clone, Copy, Default)]
pub struct StepMark {
    cpu_n: u64,
    ev_n: u64,
    cpu_s: f64,
    ev_s: f64,
}

pub fn step_mark(t: &Tracer) -> StepMark {
    StepMark {
        cpu_n: t.count("step.cpu"),
        ev_n: t.count("step.event"),
        cpu_s: t.total_s("step.cpu"),
        ev_s: t.total_s("step.event"),
    }
}
