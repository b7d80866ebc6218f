//! The production service graph: edge → cache → replicated app tier → DB
//! primary + read replicas, every tier a dIPC domain, driven open-loop.
//!
//! This is the successor layer to the fixed three-tier stacks: a reusable
//! builder ([`build`]) that wires an arbitrary-size graph of dIPC
//! processes and runs it against the open-loop generator from
//! [`crate::workload`] ([`ProdStack::run_open_loop`]).
//!
//! # Topology
//!
//! ```text
//!   host generator (open loop, Pareto gaps, Zipf keys, 100k+ sessions)
//!     │  token-bucket admission + per-lane ingress rings (aring SPSC)
//!     ▼
//!   edge process: E threads, one per connection-pool lane
//!     │  queue-depth shed · per-tenant domain touch · cache lookup
//!     ├──────────────► cache process (cache_get / cache_put proxies)
//!     │   miss                │ hit: respond immediately
//!     ▼
//!   app tier: R replica processes (app_render proxy, session affinity,
//!     │        fail-over to the next replica on DIPC_ERR_FAULT)
//!     ▼
//!   DB tier: 1 primary + D read replicas (db_query proxies; every
//!            `write_every`-th query goes to the primary)
//! ```
//!
//! Only the **edge** tier has threads. Cache, app and DB tiers are passive
//! dIPC processes entered by proxy from the edge threads — the paper's
//! no-false-concurrency model (§2.3) extended to a whole service graph.
//! Requests enter through per-lane SPSC rings minted by
//! [`dipc::system::System::channel_create`]; the host generator is the
//! producer ([`aring::Ring::try_enqueue`] + doorbell futex wake between
//! run slices), so arrival timing is workload-defined, not stack-defined.
//!
//! # Admission control and degradation
//!
//! Three shedding layers, all deterministic:
//!
//! 1. **Token bucket** at injection ([`crate::workload::TokenBucket`]) —
//!    the edge's configured sustained rate + burst; arrivals over it are
//!    shed before touching the simulation (`shed_bucket`), plus a hard
//!    shed when a lane's ingress ring is full (`shed_ring`).
//! 2. **Queue-depth shed** in the edge guest — a request dequeued while
//!    its lane ring still holds ≥ `queue_shed` records is answered with a
//!    cheap degraded response (`shed_queue`).
//! 3. **App-tier depth shed** — edge threads publish their in-flight
//!    replica in a shared `inflight` table; a request that would push the
//!    app tier past `app_inflight_max` concurrent renders is shed
//!    (`shed_app`). On `DIPC_ERR_FAULT` from a replica (chaos kills), the
//!    edge fails over to the next replica up to `app_replicas` attempts
//!    before counting the request `failed`.
//!
//! # Per-tenant domains
//!
//! Each tenant owns a private CODOMs domain in the edge process
//! (`AppSpec::domain`), granted to the edge code by an explicit per-tenant
//! `grant_create` — one APL entry per tenant. Every admitted request bumps
//! a session slot in its tenant's domain, so tenant state isolation is
//! enforced by the capability hardware on every request (build with
//! `tenant_grants: false` and the first request kills the edge process —
//! regression-tested).
//!
//! Latency is sampled in-guest (`clock_ns` at completion minus the
//! arrival's *scheduled* time), so reported percentiles include queueing
//! delay — the open-loop tail the closed-loop harnesses cannot see.

use std::collections::HashMap;

use aring::{emit, layout, Backpressure, Ring, RingCfg};
use cdvm::isa::reg::*;
use cdvm::{Asm, Instr};
use simkernel::{sysno, KernelConfig, Pid};
use simmem::PageTableId;

use dipc::{AppSpec, IsoProps, Signature, World, DIPC_ERR_FAULT};

use crate::async_stack::{lat_store, percentile, LatView, LAT_SLOTS, LAT_STRIDE};
use crate::params::{OltpParams, StorageKind};
use crate::tiers::{self, TABLE_ROWS};
use crate::workload::{Arrival, OpenLoop, TokenBucket};

/// Tail-latency service-level objectives, µs.
#[derive(Clone, Copy, Debug)]
pub struct Slo {
    /// Median objective.
    pub p50_us: f64,
    /// 99th-percentile objective.
    pub p99_us: f64,
    /// 99.9th-percentile objective.
    pub p999_us: f64,
}

impl Slo {
    /// Whether a measured (p50, p99, p999) triple meets the objectives.
    pub fn met(&self, p50_us: f64, p99_us: f64, p999_us: f64) -> bool {
        p50_us <= self.p50_us && p99_us <= self.p99_us && p999_us <= self.p999_us
    }
}

/// Service-graph shape and per-tier work parameters.
#[derive(Clone, Debug)]
pub struct ProdParams {
    /// Edge threads = connection-pool lanes = ingress rings.
    pub edge_threads: u64,
    /// App-tier replica processes.
    pub app_replicas: u64,
    /// DB read replicas (plus one primary).
    pub db_replicas: u64,
    /// Tenants (one CODOMs domain + APL grant each).
    pub tenants: u64,
    /// Cache tag-table entries (power of two).
    pub cache_slots: u64,
    /// Every Nth query per render goes to the DB primary (writes).
    pub write_every: u64,
    /// Simulated CPUs.
    pub cores: usize,
    /// Cross-CPU work stealing (the production graph turns it on).
    pub steal: bool,
    /// Ingress ring capacity per lane (power of two).
    pub ring_cap: u64,
    /// Guest queue-depth shed threshold (ring occupancy after dequeue).
    pub queue_shed: u64,
    /// Max concurrent app-tier renders before the edge sheds.
    pub app_inflight_max: u64,
    /// Edge request-parse work (ns).
    pub edge_parse_ns: u64,
    /// Edge respond work (ns).
    pub edge_respond_ns: u64,
    /// Cost of emitting a degraded (shed) response (ns).
    pub edge_reject_ns: u64,
    /// Cache lookup/fill work (ns).
    pub cache_ns: u64,
    /// App/DB tier work knobs (`php_*` = app render, `db_*`/storage = DB).
    pub work: OltpParams,
    /// Declared latency objectives.
    pub slo: Slo,
    /// Install the per-tenant APL grants (disable only to demonstrate that
    /// ungranted tenant-domain stores are fatal).
    pub tenant_grants: bool,
}

impl Default for ProdParams {
    fn default() -> ProdParams {
        ProdParams::production()
    }
}

impl ProdParams {
    /// The `prodbench` shape: light per-request work (the interesting cost
    /// is queueing and crossings), 12 lanes over 8 cores, stealing on.
    pub fn production() -> ProdParams {
        let work = OltpParams {
            queries_per_op: 8,
            php_fixed_ns: 2_500,
            php_per_query_ns: 250,
            db_per_query_ns: 350,
            row_bytes: 128,
            storage_every: 64,
            storage: StorageKind::InMemory,
            ..OltpParams::default()
        };
        ProdParams {
            edge_threads: 12,
            app_replicas: 3,
            db_replicas: 2,
            tenants: 16,
            cache_slots: 512,
            write_every: 4,
            cores: 8,
            steal: true,
            ring_cap: 256,
            queue_shed: 192,
            app_inflight_max: 10,
            edge_parse_ns: 1_500,
            edge_respond_ns: 1_000,
            edge_reject_ns: 200,
            cache_ns: 400,
            work,
            slo: Slo { p50_us: 150.0, p99_us: 600.0, p999_us: 2_000.0 },
            tenant_grants: true,
        }
    }

    /// A small graph for tests: 2 lanes, 2 replicas, 1 read replica,
    /// 4 tenants, 2 queries per render.
    pub fn small() -> ProdParams {
        let mut pp = ProdParams::production();
        pp.edge_threads = 2;
        pp.app_replicas = 2;
        pp.db_replicas = 1;
        pp.tenants = 4;
        pp.cores = 2;
        pp.ring_cap = 64;
        pp.queue_shed = 48;
        pp.work.queries_per_op = 2;
        pp
    }
}

/// Per-tenant domain slots (domain size / 8).
const TENANT_SLOTS: u64 = 512;

/// One ingress lane: a minted channel whose producer is the host.
pub struct Lane {
    /// Channel registry id.
    pub id: usize,
    /// Request-ring base address.
    pub base: u64,
    /// Protocol driver.
    pub ring: Ring,
}

/// A built production service graph.
pub struct ProdStack {
    /// The simulated system.
    pub sys: dipc::System,
    /// Global page table (all regions live in the global VAS).
    pub pt: PageTableId,
    /// Ingress lanes, one per edge thread.
    pub lanes: Vec<Lane>,
    /// Edge thread count.
    pub threads: u64,
    /// Per-thread latency sample buffers.
    pub lat: LatView,
    /// Data-region bases in the edge process, by name.
    pub regions: HashMap<&'static str, u64>,
    /// Tenant domain bases (index = tenant id).
    pub tenant_doms: Vec<u64>,
    /// Base of the cache process's hit/miss counters.
    pub cache_stats: u64,
    /// The edge process (the lane consumer).
    pub edge_pid: Pid,
    /// The graph shape this stack was built with.
    pub pp: ProdParams,
}

/// Guest-side counters summed over edge threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GuestCounts {
    /// Completed requests.
    pub ops: u64,
    /// Requests shed by the guest queue-depth check.
    pub shed_queue: u64,
    /// Requests shed by the app-tier depth check.
    pub shed_app: u64,
    /// Requests failed after exhausting replica fail-over.
    pub failed: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
}

/// Injection pacing for [`ProdStack::run_open_loop`].
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Settling time before the window opens (threads spawn + park), ns.
    pub settle_ns: u64,
    /// Injection slice, ns (effective floor: one SMP quantum).
    pub slice_ns: u64,
    /// Post-window drain time for in-flight requests, ns.
    pub drain_ns: u64,
}

impl Default for RunOpts {
    fn default() -> RunOpts {
        RunOpts { settle_ns: 100_000, slice_ns: 25_000, drain_ns: 2_000_000 }
    }
}

/// One measured open-loop window.
#[derive(Clone, Debug)]
pub struct ProdRun {
    /// Arrivals the generator produced.
    pub offered: u64,
    /// Arrivals enqueued into an ingress ring.
    pub admitted: u64,
    /// Shed by the token bucket.
    pub shed_bucket: u64,
    /// Shed because the lane ring was full.
    pub shed_ring: u64,
    /// Guest-side counters (sheds, failures, cache traffic).
    pub guest: GuestCounts,
    /// Completed requests in the window (+ drain).
    pub completed: u64,
    /// Goodput, requests per simulated second.
    pub throughput_per_s: f64,
    /// Median latency, µs (arrival-to-response, in-guest sampled).
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
    /// Latency samples collected.
    pub samples: u64,
    /// Total per-tenant domain touches (capability-checked stores).
    pub tenant_touches: u64,
    /// Simulated window length, ns.
    pub window_ns: u64,
}

impl ProdRun {
    /// Fraction of offered load that completed.
    pub fn goodput_frac(&self) -> f64 {
        self.completed as f64 / self.offered.max(1) as f64
    }
}

/// Bumps `region[S10]` (the per-thread slot of an edge counter region).
/// Clobbers `t0`–`t2`.
fn bump_thread_slot(a: &mut Asm, region: &str) {
    a.li_sym(T0, region);
    a.push(Instr::Slli { rd: T1, rs1: S10, imm: 3 });
    a.push(Instr::Add { rd: T0, rs1: T0, rs2: T1 });
    a.push(Instr::Ld { rd: T2, rs1: T0, imm: 0 });
    a.push(Instr::Addi { rd: T2, rs1: T2, imm: 1 });
    a.push(Instr::St { rs1: T0, rs2: T2, imm: 0 });
}

/// The edge worker, label `edge_main`. Args: `a0` = thread index, `a1` =
/// this lane's ingress ring base.
///
/// Register map (all listed live on every import, so proxies preserve
/// them): `s0` ring base, `s1` ops-counter slot, `s2` latency buffer,
/// `s3` key, `s4` tenant, `s5` arrival ns, `s6` fail-over attempts left,
/// `s7` replica, `s8` session, `s9` render result, `s10` thread index.
fn emit_edge_main(a: &mut Asm, pp: &ProdParams, cfg: &RingCfg) {
    let parse = (pp.edge_parse_ns as f64 * 3.1) as i32;
    let respond = (pp.edge_respond_ns as f64 * 3.1) as i32;
    let reject = (pp.edge_reject_ns as f64 * 3.1) as i32;
    let replicas = pp.app_replicas;
    a.label("edge_main");
    a.push(Instr::Add { rd: S0, rs1: A1, rs2: ZERO });
    a.push(Instr::Add { rd: S10, rs1: A0, rs2: ZERO });
    a.push(Instr::Slli { rd: T0, rs1: A0, imm: 3 });
    a.li_sym(S1, "$data_counters");
    a.push(Instr::Add { rd: S1, rs1: S1, rs2: T0 });
    a.li(T1, LAT_STRIDE);
    a.push(Instr::Mul { rd: T0, rs1: A0, rs2: T1 });
    a.li_sym(S2, "$data_lat");
    a.push(Instr::Add { rd: S2, rs1: S2, rs2: T0 });

    a.label("edge_wait");
    emit::emit_consumer_wait(a, "edg_cw", S0, cfg);
    a.beq(A0, ZERO, "edge_dead");
    a.label("edge_deq");
    emit::emit_dequeue(a, "edg_dq", S0, cfg, &|a, slot| {
        a.push(Instr::Ld { rd: S3, rs1: slot, imm: 0 }); // key
        a.push(Instr::Ld { rd: S4, rs1: slot, imm: 8 }); // tenant
        a.push(Instr::Ld { rd: S5, rs1: slot, imm: 16 }); // arrival ns
        a.push(Instr::Ld { rd: S8, rs1: slot, imm: 24 }); // session
    });
    a.beq(A0, ZERO, "edge_wait");

    // Tier-1 shed: lane still ≥ queue_shed deep after this dequeue →
    // degraded response, no downstream work.
    a.push(Instr::Ld { rd: T1, rs1: S0, imm: layout::CTRL_TAIL as i32 });
    a.push(Instr::Ld { rd: T2, rs1: S0, imm: layout::CTRL_HEAD as i32 });
    a.push(Instr::Sub { rd: T1, rs1: T1, rs2: T2 });
    a.li(T0, pp.queue_shed);
    a.bltu(T1, T0, "edge_adm");
    bump_thread_slot(a, "$data_shedq");
    a.push(Instr::Work { rs1: 0, imm: reject });
    a.j("edge_deq");
    a.label("edge_adm");

    // Per-tenant domain touch: bump this session's slot in the tenant's
    // private CODOMs domain (store is APL-checked on every request).
    a.li_sym(T0, "$data_tenantmap");
    a.push(Instr::Slli { rd: T1, rs1: S4, imm: 3 });
    a.push(Instr::Add { rd: T0, rs1: T0, rs2: T1 });
    a.push(Instr::Ld { rd: T0, rs1: T0, imm: 0 });
    a.push(Instr::Andi { rd: T1, rs1: S8, imm: (TENANT_SLOTS - 1) as i32 });
    a.push(Instr::Slli { rd: T1, rs1: T1, imm: 3 });
    a.push(Instr::Add { rd: T0, rs1: T0, rs2: T1 });
    a.push(Instr::Ld { rd: T2, rs1: T0, imm: 0 });
    a.push(Instr::Addi { rd: T2, rs1: T2, imm: 1 });
    a.push(Instr::St { rs1: T0, rs2: T2, imm: 0 });

    a.push(Instr::Work { rs1: 0, imm: parse });

    // Cache tier.
    a.push(Instr::Add { rd: A0, rs1: S3, rs2: ZERO });
    a.push(Instr::Add { rd: A1, rs1: S4, rs2: ZERO });
    a.jal(RA, "call_cache_cache_get");
    a.push(Instr::Add { rd: S9, rs1: A0, rs2: ZERO });
    a.bne(S9, ZERO, "edge_respond"); // hit: skip the app tier

    // Tier-2 shed: app tier at depth?
    a.li_sym(T4, "$data_inflight");
    a.li(T5, 0);
    a.li(T2, 0);
    a.label("edge_scan");
    a.push(Instr::Slli { rd: T0, rs1: T2, imm: 3 });
    a.push(Instr::Add { rd: T0, rs1: T0, rs2: T4 });
    a.push(Instr::Ld { rd: T0, rs1: T0, imm: 0 });
    a.beq(T0, ZERO, "edge_scan_z");
    a.push(Instr::Addi { rd: T5, rs1: T5, imm: 1 });
    a.label("edge_scan_z");
    a.push(Instr::Addi { rd: T2, rs1: T2, imm: 1 });
    a.li(T6, pp.edge_threads);
    a.bne(T2, T6, "edge_scan");
    a.li(T0, pp.app_inflight_max);
    a.bltu(T5, T0, "edge_app");
    bump_thread_slot(a, "$data_sheda");
    a.push(Instr::Work { rs1: 0, imm: reject });
    a.j("edge_deq");

    // App tier with session affinity + fail-over.
    a.label("edge_app");
    a.li(T0, replicas);
    a.push(Instr::Remu { rd: S7, rs1: S8, rs2: T0 });
    a.li(S6, replicas);
    a.label("edge_call");
    a.li_sym(T0, "$data_inflight");
    a.push(Instr::Slli { rd: T1, rs1: S10, imm: 3 });
    a.push(Instr::Add { rd: T0, rs1: T0, rs2: T1 });
    a.push(Instr::Addi { rd: T2, rs1: S7, imm: 1 });
    a.push(Instr::St { rs1: T0, rs2: T2, imm: 0 });
    for r in 0..replicas - 1 {
        a.li(T3, r);
        a.beq(S7, T3, &format!("edge_r{r}"));
    }
    for r in (0..replicas).rev() {
        if r != replicas - 1 {
            a.label(&format!("edge_r{r}"));
        }
        a.push(Instr::Add { rd: A0, rs1: S3, rs2: ZERO });
        a.li(A1, 0);
        a.jal(RA, &format!("call_app{r}_app_render"));
        a.j("edge_ret");
    }
    a.label("edge_ret");
    a.li_sym(T0, "$data_inflight");
    a.push(Instr::Slli { rd: T1, rs1: S10, imm: 3 });
    a.push(Instr::Add { rd: T0, rs1: T0, rs2: T1 });
    a.push(Instr::St { rs1: T0, rs2: ZERO, imm: 0 });
    a.li(T0, DIPC_ERR_FAULT);
    a.bne(A0, T0, "edge_ok");
    a.push(Instr::Addi { rd: S6, rs1: S6, imm: -1 });
    a.beq(S6, ZERO, "edge_fail");
    a.push(Instr::Addi { rd: S7, rs1: S7, imm: 1 });
    a.li(T0, replicas);
    a.push(Instr::Remu { rd: S7, rs1: S7, rs2: T0 });
    a.j("edge_call");
    a.label("edge_fail");
    bump_thread_slot(a, "$data_fail");
    a.push(Instr::Work { rs1: 0, imm: reject });
    a.j("edge_deq");

    a.label("edge_ok");
    a.push(Instr::Add { rd: S9, rs1: A0, rs2: ZERO });
    a.push(Instr::Add { rd: A0, rs1: S3, rs2: ZERO });
    a.push(Instr::Add { rd: A1, rs1: S9, rs2: ZERO });
    a.jal(RA, "call_cache_cache_put");

    a.label("edge_respond");
    a.push(Instr::Work { rs1: 0, imm: respond });
    a.syscall(sysno::CLOCK_NS);
    a.push(Instr::Sub { rd: A0, rs1: A0, rs2: S5 });
    // A busy (never-parked) consumer can reach a record injected at the
    // slice frontier while its own CPU clock still trails it by a fraction
    // of a slice; clamp that residual skew to zero instead of wrapping.
    a.push(Instr::Srli { rd: T0, rs1: A0, imm: 63 });
    a.beq(T0, ZERO, "edge_lat_ok");
    a.li(A0, 0);
    a.label("edge_lat_ok");
    lat_store(a, S2);
    a.push(Instr::Ld { rd: T0, rs1: S1, imm: 0 });
    a.push(Instr::Addi { rd: T0, rs1: T0, imm: 1 });
    a.push(Instr::St { rs1: S1, rs2: T0, imm: 0 });
    a.j("edge_deq");

    a.label("edge_dead");
    a.push(Instr::Halt);
}

/// Pacemaker interval, ns. One edge thread slot is spent keeping a timer
/// event pending so the kernel never sees a global deadlock while every
/// worker is parked waiting for host-injected arrivals.
const PACE_NS: u64 = 25_000;

fn emit_pacemaker(a: &mut Asm) {
    a.label("pace_main");
    a.li(A0, PACE_NS);
    a.syscall(sysno::SLEEP_NS);
    a.j("pace_main");
}

/// The cache tier: a direct-mapped tag table (`cache_slots` entries of
/// `[tag = key+1, value]`), leaf entries `cache_get` / `cache_put`.
fn emit_cache(a: &mut Asm, pp: &ProdParams) {
    let work = (pp.cache_ns as f64 * 3.1) as i32;
    let mask = (pp.cache_slots - 1) as i32;
    let ent = |a: &mut Asm| {
        a.push(Instr::Andi { rd: T1, rs1: A0, imm: mask });
        a.push(Instr::Slli { rd: T1, rs1: T1, imm: 4 });
        a.li_sym(T2, "$data_ctab");
        a.push(Instr::Add { rd: T1, rs1: T1, rs2: T2 });
    };
    a.align(64);
    a.label("cache_get");
    a.push(Instr::Work { rs1: 0, imm: work });
    ent(a);
    a.push(Instr::Addi { rd: T3, rs1: A0, imm: 1 });
    a.push(Instr::Ld { rd: T4, rs1: T1, imm: 0 });
    a.bne(T4, T3, "cget_miss");
    a.li_sym(T2, "$data_cstats");
    a.push(Instr::Ld { rd: T5, rs1: T2, imm: 0 });
    a.push(Instr::Addi { rd: T5, rs1: T5, imm: 1 });
    a.push(Instr::St { rs1: T2, rs2: T5, imm: 0 });
    a.push(Instr::Ld { rd: A0, rs1: T1, imm: 8 });
    a.push(Instr::Jalr { rd: ZERO, rs1: RA, imm: 0 });
    a.label("cget_miss");
    a.li_sym(T2, "$data_cstats");
    a.push(Instr::Ld { rd: T5, rs1: T2, imm: 8 });
    a.push(Instr::Addi { rd: T5, rs1: T5, imm: 1 });
    a.push(Instr::St { rs1: T2, rs2: T5, imm: 8 });
    a.li(A0, 0);
    a.push(Instr::Jalr { rd: ZERO, rs1: RA, imm: 0 });
    a.align(64);
    a.label("cache_put");
    a.push(Instr::Work { rs1: 0, imm: work });
    ent(a);
    a.push(Instr::Addi { rd: T3, rs1: A0, imm: 1 });
    a.push(Instr::St { rs1: T1, rs2: T3, imm: 0 });
    a.push(Instr::St { rs1: T1, rs2: A1, imm: 8 });
    a.li(A0, 0);
    a.push(Instr::Jalr { rd: ZERO, rs1: RA, imm: 0 });
}

/// The app-tier render: the shared PHP body, with queries fanned across
/// the DB primary (`write_every`-th query) and the read replicas.
fn emit_app(a: &mut Asm, pp: &ProdParams) {
    a.align(64);
    a.label("app_render");
    a.j("php_render");
    let we = pp.write_every.max(1);
    let dr = pp.db_replicas;
    tiers::emit_php_render(a, &pp.work, &|a| {
        // s0 = remaining-query counter (php_render's loop variable).
        a.li(T0, we);
        a.push(Instr::Remu { rd: T0, rs1: S0, rs2: T0 });
        a.bne(T0, ZERO, "app_rd");
        a.jal(RA, "call_dbp_db_query");
        a.j("app_dbdone");
        a.label("app_rd");
        if dr <= 1 {
            a.jal(RA, "call_dbr0_db_query");
        } else {
            a.li(T0, dr);
            a.push(Instr::Remu { rd: T0, rs1: S0, rs2: T0 });
            for i in 0..dr - 1 {
                a.li(T1, i);
                a.beq(T0, T1, &format!("app_rd{i}"));
            }
            a.jal(RA, &format!("call_dbr{}_db_query", dr - 1));
            a.j("app_dbdone");
            for i in 0..dr - 1 {
                a.label(&format!("app_rd{i}"));
                a.jal(RA, &format!("call_dbr{i}_db_query"));
                a.j("app_dbdone");
            }
        }
        a.label("app_dbdone");
    });
}

/// Installs each DB process's storage file as fd 0 and fills its table
/// with nonzero deterministic rows (so render checksums are nonzero and
/// cache hits are distinguishable from misses).
fn install_db(w: &mut World, name: &str, p: &OltpParams) {
    let pid = w.app(name).pid;
    tiers::install_db_file(&mut w.sys.k, pid, &format!("{name}.db"), p);
    let table = w.app(name).data["db_table"];
    let pt = simmem::Memory::GLOBAL_PT;
    for row in 0..TABLE_ROWS {
        let v = (row.wrapping_mul(0x9E37_79B9) | 1) ^ 0xD1FC;
        w.sys.k.mem.kwrite_u64(pt, table + row * p.row_bytes, v).expect("table region is mapped");
    }
}

/// Builds the full service graph and spawns the edge threads + pacemaker.
pub fn build(pp: &ProdParams) -> ProdStack {
    assert!(pp.ring_cap.is_power_of_two() && pp.cache_slots.is_power_of_two());
    assert!(pp.app_replicas >= 1 && pp.db_replicas >= 1 && pp.edge_threads >= 1);
    let mut w =
        World::new(KernelConfig { cpus: pp.cores, steal: pp.steal, ..KernelConfig::default() });
    let sig = Signature::regs(2, 1);
    let leaf = IsoProps::STACK_CONF | IsoProps::REG_INTEGRITY;
    let cfg = RingCfg::new(pp.ring_cap, false, Backpressure::Fail);

    // DB tier: primary + read replicas, identical bodies.
    let db_names: Vec<String> = std::iter::once("dbp".to_string())
        .chain((0..pp.db_replicas).map(|i| format!("dbr{i}")))
        .collect();
    for name in &db_names {
        let work = pp.work.clone();
        let spec = AppSpec::new(name, move |a| tiers::emit_db_query(a, &work))
            .export("db_query", sig, leaf)
            .data("db_table", TABLE_ROWS * pp.work.row_bytes)
            .data("db_qcount", 64)
            .data("db_iobuf", pp.work.row_bytes.max(64));
        w.build(spec);
    }

    // Cache tier.
    let ppc = pp.clone();
    let cache = AppSpec::new("cache", move |a| emit_cache(a, &ppc))
        .export("cache_get", sig, leaf)
        .export("cache_put", sig, leaf)
        .data("ctab", pp.cache_slots * 16)
        .data("cstats", 64);
    w.build(cache);

    // App tier: replicas, each importing the whole DB tier.
    let db_live = &[S0, S6, S7];
    for r in 0..pp.app_replicas {
        let ppa = pp.clone();
        let mut spec = AppSpec::new(&format!("app{r}"), move |a| emit_app(a, &ppa)).export(
            "app_render",
            sig,
            IsoProps::STACK_CONF,
        );
        for name in &db_names {
            spec = spec.import_live(name, "db_query", sig, IsoProps::LOW, db_live);
        }
        w.build(spec);
    }

    // Edge tier.
    let live: &[u8] = &[S0, S1, S2, S3, S4, S5, S6, S7, S8, S9, S10];
    let ppe = pp.clone();
    let ecfg = cfg;
    let mut edge = AppSpec::new("edge", move |a| {
        emit_edge_main(a, &ppe, &ecfg);
        emit_pacemaker(a);
    })
    .import_live("cache", "cache_get", sig, IsoProps::LOW, live)
    .import_live("cache", "cache_put", sig, IsoProps::LOW, live)
    .data("counters", (pp.edge_threads * 8).max(64))
    .data("shedq", (pp.edge_threads * 8).max(64))
    .data("sheda", (pp.edge_threads * 8).max(64))
    .data("fail", (pp.edge_threads * 8).max(64))
    .data("inflight", (pp.edge_threads * 8).max(64))
    .data("tenantmap", (pp.tenants * 8).max(64))
    .data("lat", pp.edge_threads * LAT_STRIDE);
    for r in 0..pp.app_replicas {
        edge = edge.import_live(&format!("app{r}"), "app_render", sig, IsoProps::LOW, live);
    }
    for t in 0..pp.tenants {
        edge = edge.domain(&format!("tenant{t}"), TENANT_SLOTS * 8);
    }
    w.build(edge);
    w.link();

    for name in &db_names {
        install_db(&mut w, name, &pp.work);
    }

    let pt = simmem::Memory::GLOBAL_PT;
    let edge_pid = w.app("edge").pid;
    let edge_dom = w.app("edge").dom;
    let tenantmap = w.app("edge").data["tenantmap"];
    let mut tenant_doms = Vec::new();
    for t in 0..pp.tenants {
        let (h, base, _size) = w.app("edge").data_domains[&format!("tenant{t}")];
        if pp.tenant_grants {
            // One APL entry per tenant: edge code may write this tenant's
            // domain and no other ungranted one.
            w.sys.grant_create(edge_pid, edge_dom, h).expect("edge owns both domains");
        }
        w.sys.k.mem.kwrite_u64(pt, tenantmap + t * 8, base).expect("tenantmap is mapped");
        tenant_doms.push(base);
    }

    // Ingress: one host-fed SPSC ring per lane.
    let mut lanes = Vec::new();
    for i in 0..pp.edge_threads {
        let ch = w
            .sys
            .channel_create(
                &format!("lane{i}"),
                edge_pid,
                &[],
                cfg,
                RingCfg::new(2, false, Backpressure::Fail),
            )
            .expect("edge is dIPC-enabled");
        lanes.push(Lane { id: ch.id, base: ch.req.base, ring: ch.req.ring() });
    }

    for i in 0..pp.edge_threads {
        w.spawn("edge", "edge_main", &[i, lanes[i as usize].base]);
    }
    w.spawn("edge", "pace_main", &[]);

    let mut regions = HashMap::new();
    for name in ["counters", "shedq", "sheda", "fail", "inflight", "tenantmap"] {
        regions.insert(name, w.app("edge").data[name]);
    }
    let lat = LatView { pt, base: w.app("edge").data["lat"], threads: pp.edge_threads };
    let cache_stats = w.app("cache").data["cstats"];
    ProdStack {
        sys: w.sys,
        pt,
        lanes,
        threads: pp.edge_threads,
        lat,
        regions,
        tenant_doms,
        cache_stats,
        edge_pid,
        pp: pp.clone(),
    }
}

impl ProdStack {
    fn sum_region(&self, name: &str) -> u64 {
        let base = self.regions[name];
        (0..self.threads)
            .map(|i| self.sys.k.mem.kread_u64(self.pt, base + i * 8).unwrap_or(0))
            .sum()
    }

    /// Current guest-side counters.
    pub fn guest_counts(&self) -> GuestCounts {
        GuestCounts {
            ops: self.sum_region("counters"),
            shed_queue: self.sum_region("shedq"),
            shed_app: self.sum_region("sheda"),
            failed: self.sum_region("fail"),
            cache_hits: self.sys.k.mem.kread_u64(self.pt, self.cache_stats).unwrap_or(0),
            cache_misses: self.sys.k.mem.kread_u64(self.pt, self.cache_stats + 8).unwrap_or(0),
        }
    }

    /// Total stores landed in per-tenant domains.
    pub fn tenant_touches(&self) -> u64 {
        let m = &self.sys.k.mem;
        self.tenant_doms
            .iter()
            .map(|&base| {
                (0..TENANT_SLOTS)
                    .map(|s| m.kread_u64(self.pt, base + s * 8).unwrap_or(0))
                    .sum::<u64>()
            })
            .sum()
    }

    /// Kernel pid of a graph process by name (chaos plans need it).
    pub fn pid(&self, name: &str) -> Pid {
        *self
            .sys
            .k
            .procs
            .iter()
            .find(|(_, p)| p.name == name)
            .map(|(pid, _)| pid)
            .unwrap_or_else(|| panic!("no process named {name}"))
    }

    fn lat_counts(&self) -> Vec<u64> {
        let m = &self.sys.k.mem;
        (0..self.lat.threads)
            .map(|i| m.kread_u64(self.lat.pt, self.lat.base + i * LAT_STRIDE).unwrap_or(0))
            .collect()
    }

    /// Drains new latency samples into `out` (cursor per thread in `last`).
    /// Called every injection slice, so buffers never wrap between reads.
    fn drain_lat(&self, last: &mut [u64], out: &mut Vec<u64>) {
        let m = &self.sys.k.mem;
        for (i, cursor) in last.iter_mut().enumerate().take(self.lat.threads as usize) {
            let base = self.lat.base + i as u64 * LAT_STRIDE;
            let c1 = m.kread_u64(self.lat.pt, base).unwrap_or(0);
            let lo = (*cursor).max(c1.saturating_sub(LAT_SLOTS));
            for c in lo..c1 {
                let off = 8 + (c & (LAT_SLOTS - 1)) * 8;
                out.push(m.kread_u64(self.lat.pt, base + off).unwrap_or(0));
            }
            *cursor = c1;
        }
    }

    /// If a lane's consumer armed its doorbell, clear it and wake — the
    /// host-side mirror of [`aring::emit::emit_flush`]. The wake carries
    /// the injection slice's virtual-time frontier: a parked edge thread
    /// must not resume before the arrivals it is about to consume were
    /// stamped, or completion-minus-arrival goes negative.
    fn wake_lane(&mut self, i: usize, at: u64) {
        let base = self.lanes[i].base;
        let db_off = base + layout::CTRL_DOORBELL;
        if self.sys.k.mem.kread_u64(self.pt, db_off).unwrap_or(0) != 0 {
            self.sys.k.mem.kwrite_u64(self.pt, db_off, 0).expect("ring is mapped");
            self.sys.k.host_futex_wake_at(self.pt, db_off, 1, at);
        }
    }

    /// Runs one open-loop window: arrivals from `gen` are admitted through
    /// `bucket` and injected into their lane's ingress ring between
    /// simulation slices, each slice followed by doorbell wakes and a
    /// latency-buffer drain. Deterministic for a fixed build + generator:
    /// injection happens at slice boundaries in virtual time, never host
    /// time.
    pub fn run_open_loop(
        &mut self,
        gen: &mut OpenLoop,
        bucket: &mut TokenBucket,
        opts: &RunOpts,
    ) -> ProdRun {
        assert_eq!(
            gen.cfg().lanes,
            self.threads,
            "workload lanes must match the graph's edge threads"
        );
        let cost = self.sys.k.cost.clone();
        let settle_end = self.sys.k.now_max() + cost.cycles_from_ns(opts.settle_ns as f64);
        self.sys.run_until(|s| s.k.now_max() >= settle_end);

        let t0 = self.sys.k.now_max();
        let t0_ns = cost.ns(t0) as u64;
        let window_ns = gen.cfg().window_ns;
        let end = t0 + cost.cycles_from_ns(window_ns as f64);
        let slice = cost.cycles_from_ns(opts.slice_ns as f64).max(1);
        let g0 = self.guest_counts();
        let mut lat_last = self.lat_counts();
        let mut samples: Vec<u64> = Vec::new();
        let (mut offered, mut admitted, mut shed_bucket, mut shed_ring) = (0u64, 0u64, 0u64, 0u64);
        let mut touched = vec![false; self.lanes.len()];
        let mut next: Option<Arrival> = gen.next();
        let mut now = t0;
        while now < end && self.sys.k.procs[&self.edge_pid].alive {
            let target = (now + slice).min(end);
            self.sys.run_until(|s| s.k.now_max() >= target);
            now = self.sys.k.now_max();
            self.drain_lat(&mut lat_last, &mut samples);
            let due_ns = (cost.ns(now) as u64).saturating_sub(t0_ns);
            while let Some(a) = next {
                if a.t_ns > due_ns {
                    break;
                }
                offered += 1;
                if !bucket.admit(a.t_ns) {
                    shed_bucket += 1;
                } else if !self.sys.k.procs[&self.edge_pid].alive {
                    // Dead consumer: its rings were reclaimed at kill time
                    // — the connection is refused at the edge.
                    shed_ring += 1;
                } else {
                    let lane = a.lane as usize;
                    let rec = [a.key, a.tenant, t0_ns + a.t_ns, a.session];
                    let ring = self.lanes[lane].ring;
                    let mut g = self.sys.channel_mem(self.lanes[lane].id);
                    match ring.try_enqueue(&mut g, &rec) {
                        Ok(_) => {
                            admitted += 1;
                            touched[lane] = true;
                        }
                        Err(_) => shed_ring += 1,
                    }
                }
                next = gen.next();
            }
            for (i, hit) in touched.iter_mut().enumerate() {
                if std::mem::take(hit) {
                    self.wake_lane(i, now);
                }
            }
        }
        // Drain: let in-flight requests finish (no further injection). If
        // the edge died (chaos kill of the consumer, or the negative
        // tenant-grant test) virtual time can no longer advance — the run
        // ends with whatever completed before the fatality.
        let drain_end = now + cost.cycles_from_ns(opts.drain_ns as f64);
        while now < drain_end && self.sys.k.procs[&self.edge_pid].alive {
            let target = (now + slice).min(drain_end);
            self.sys.run_until(|s| s.k.now_max() >= target);
            now = self.sys.k.now_max();
            self.drain_lat(&mut lat_last, &mut samples);
        }

        let g1 = self.guest_counts();
        let completed = g1.ops - g0.ops;
        samples.sort_unstable();
        let guest = GuestCounts {
            ops: completed,
            shed_queue: g1.shed_queue - g0.shed_queue,
            shed_app: g1.shed_app - g0.shed_app,
            failed: g1.failed - g0.failed,
            cache_hits: g1.cache_hits - g0.cache_hits,
            cache_misses: g1.cache_misses - g0.cache_misses,
        };
        ProdRun {
            offered,
            admitted,
            shed_bucket,
            shed_ring,
            guest,
            completed,
            throughput_per_s: completed as f64 / (window_ns as f64 / 1e9),
            p50_us: percentile(&samples, 0.50) as f64 / 1000.0,
            p99_us: percentile(&samples, 0.99) as f64 / 1000.0,
            p999_us: percentile(&samples, 0.999) as f64 / 1000.0,
            samples: samples.len() as u64,
            tenant_touches: self.tenant_touches(),
            window_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadCfg;

    fn small_workload(rate: f64, window_ns: u64, lanes: u64) -> OpenLoop {
        let mut cfg = WorkloadCfg::production(11, rate, window_ns);
        cfg.sessions = 2_000;
        cfg.tenants = 4;
        cfg.lanes = lanes;
        OpenLoop::new(cfg)
    }

    #[test]
    fn graph_completes_requests_and_touches_tenants() {
        let pp = ProdParams::small();
        let mut s = build(&pp);
        let mut gen = small_workload(150_000.0, 8_000_000, pp.edge_threads);
        let mut tb = TokenBucket::new(1_000_000, 64);
        let r = s.run_open_loop(&mut gen, &mut tb, &RunOpts::default());
        assert!(r.completed > 50, "graph must make progress: {r:?}");
        assert!(r.samples > 0 && r.p50_us > 0.0, "latency must be sampled: {r:?}");
        assert!(r.tenant_touches > 0, "per-tenant domains must be written");
        assert!(r.guest.cache_hits + r.guest.cache_misses > 0, "cache tier must be exercised");
        assert_eq!(r.guest.failed, 0, "no failures without fault injection");
    }

    #[test]
    fn graph_replays_bit_identically() {
        let runs: Vec<(u64, u64, u64, u64)> = (0..2)
            .map(|_| {
                let pp = ProdParams::small();
                let mut s = build(&pp);
                let mut gen = small_workload(150_000.0, 6_000_000, pp.edge_threads);
                let mut tb = TokenBucket::new(1_000_000, 64);
                let r = s.run_open_loop(&mut gen, &mut tb, &RunOpts::default());
                (r.completed, r.admitted, r.guest.shed_queue, s.sys.k.now_max())
            })
            .collect();
        assert_eq!(runs[0], runs[1], "same build + workload must replay identically");
    }

    #[test]
    fn overload_sheds_instead_of_collapsing() {
        let pp = ProdParams::small();
        let mut s = build(&pp);
        // Far beyond the 2-core graph's capacity.
        let mut gen = small_workload(3_000_000.0, 6_000_000, pp.edge_threads);
        // Bucket admits ~1/4 of offered load.
        let mut tb = TokenBucket::new(750_000, 32);
        let r = s.run_open_loop(&mut gen, &mut tb, &RunOpts::default());
        assert!(r.shed_bucket > 0, "token bucket must shed at overload: {r:?}");
        assert!(
            r.admitted as f64 <= 750_000.0 * (r.window_ns as f64 / 1e9) + 33.0,
            "admission above the token rate: {r:?}"
        );
        assert!(r.completed > 0, "system must keep completing under overload");
    }

    /// The three sheds behind the token bucket, which `BENCH_prod.json`
    /// never fires: with the bucket wide open and the ring, queue-depth
    /// and app-depth limits cut low, each fires, requests still complete,
    /// and the run replays bit-identically.
    #[test]
    fn saturation_fires_ring_queue_and_app_sheds() {
        let run = || {
            let mut pp = ProdParams::small();
            pp.ring_cap = 8;
            pp.queue_shed = 4;
            pp.app_inflight_max = 1;
            let mut s = build(&pp);
            let mut gen = small_workload(3_000_000.0, 4_000_000, pp.edge_threads);
            let mut tb = TokenBucket::new(1_000_000_000, 1_000_000);
            let r = s.run_open_loop(&mut gen, &mut tb, &RunOpts::default());
            let end = s.sys.k.now_max();
            (r, end)
        };
        let (r, end) = run();
        assert_eq!(r.shed_bucket, 0, "the bucket must be wide open: {r:?}");
        assert!(r.shed_ring > 0, "full ingress rings must shed: {r:?}");
        assert!(r.guest.shed_queue > 0, "deep lanes must shed in the edge: {r:?}");
        assert!(r.guest.shed_app > 0, "a busy app tier must shed: {r:?}");
        assert!(r.completed > 0 && r.guest.failed == 0, "requests must keep completing: {r:?}");
        let (again, end_again) = run();
        assert_eq!(
            format!("{r:?} end={end}"),
            format!("{again:?} end={end_again}"),
            "a saturated run must replay bit-identically"
        );
    }

    #[test]
    fn ungranted_tenant_domain_store_is_fatal() {
        let mut pp = ProdParams::small();
        pp.tenant_grants = false;
        pp.edge_threads = 1;
        let mut s = build(&pp);
        let mut gen = small_workload(150_000.0, 2_000_000, 1);
        let mut tb = TokenBucket::new(1_000_000, 64);
        let r = s.run_open_loop(&mut gen, &mut tb, &RunOpts::default());
        assert_eq!(r.completed, 0, "no request may complete without the tenant grant");
        let edge = s.pid("edge");
        assert!(!s.sys.k.procs[&edge].alive, "ungranted tenant store must kill the edge");
    }
}
