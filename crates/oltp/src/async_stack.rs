//! The asynchronous dIPC configuration: the web tier *streams* requests
//! into the PHP tier through a capability-protected call ring instead of
//! calling through a proxy and waiting, and PHP streams its database
//! queries the same way (§3.1's asynchronous variant of dIPC).
//!
//! One pipeline, four thread roles:
//!
//! * **web producers** (1–2 threads) — parse a request, enqueue a call
//!   record into the shared request ring (MPSC when both producers are
//!   on), and keep filling a bounded window of in-flight requests while
//!   completions stream back on a per-thread reply ring.
//! * **PHP consumer** — drains the request ring in batches; for each
//!   request it enqueues all `queries_per_op` query records into the DB
//!   request ring (doorbell batched), drains the paired result ring, then
//!   posts one completion record to the originating thread's reply ring.
//! * **DB consumer** — drains query records, runs the *same*
//!   [`tiers::emit_db_query`] body as the synchronous stacks, and streams
//!   results back.
//!
//! All rings are minted with [`dipc::system::System::channel_create`], so
//! ring stores are authorized by exactly the CODOMs grants that authorize
//! proxy calls — the isolation configuration matches the synchronous twin
//! built by [`build_sync`] (same processes, same isolation properties on
//! the PHP/DB entries).
//!
//! The twin builders share every work parameter ([`OltpParams`]), so a
//! measured difference is purely the call mechanism: per-op both run the
//! same `Work` instructions; sync crosses tiers `1 + queries_per_op`
//! times by proxy, async crosses by ring record. Latency is sampled
//! in-guest with `clock_ns` into per-thread sample buffers, giving real
//! p50/p99 (not Little's-law averages).
//!
//! The latency plumbing is deliberately reusable: [`LatView`] maps the
//! per-thread wrap buffers for host-side draining, [`percentile`] reads
//! them, and the `lat_store` emitter writes a sample from guest code.
//! [`super::service_graph`] builds its production edge tier on the same
//! three pieces, so the SLO percentiles reported by `prodbench` and the
//! p50/p99 columns reported by `asyncbench` are measured by identical
//! machinery.

use aring::{emit, Backpressure, RingCfg};
use cdvm::isa::reg::*;
use cdvm::{Asm, Instr};
use simkernel::{sysno, KernelConfig};
use simmem::PageTableId;

use dipc::{AppSpec, IsoProps, Signature, World};

use crate::params::{OltpParams, StorageKind};
use crate::tiers::{self, TABLE_ROWS};
use crate::Stack;

/// Latency samples kept per thread (power of two; the buffer wraps).
pub const LAT_SLOTS: u64 = 4096;
const LAT_MASK: i32 = (LAT_SLOTS - 1) as i32;
/// Per-thread stride in the `lat` region: a count word + the sample ring.
pub const LAT_STRIDE: u64 = 8 + LAT_SLOTS * 8;

/// Parameters for the async pipeline and its synchronous twin.
#[derive(Clone, Debug)]
pub struct AsyncParams {
    /// Shared workload shape (work per tier, queries per op, cores).
    pub p: OltpParams,
    /// Web producer threads sharing the request ring (1 = SPSC, 2 = MPSC;
    /// capped at 2 by the PHP consumer's argument-register budget). The
    /// synchronous twin runs the same number of web threads.
    pub web_threads: u64,
    /// In-flight requests each web thread keeps queued (pipeline depth).
    pub window: u64,
    /// Doorbell flush batch: enqueue bursts ring the doorbell once per
    /// `batch` records (the sweep knob of `asyncbench`).
    pub batch: u64,
    /// Ring capacity (power of two).
    pub cap: u64,
    /// Producer backpressure policy for every ring.
    pub policy: Backpressure,
}

impl AsyncParams {
    /// The `asyncbench` workload: light per-query work so the inter-tier
    /// call mechanism is a visible fraction of each operation.
    pub fn for_bench() -> AsyncParams {
        let p = OltpParams {
            concurrency: 2,
            queries_per_op: 64,
            web_work_ns: 8_000,
            web_respond_ns: 4_000,
            php_fixed_ns: 6_000,
            php_per_query_ns: 150,
            db_per_query_ns: 250,
            row_bytes: 256,
            storage_every: 1 << 30, // buffer pool always hits
            storage: StorageKind::InMemory,
            ..OltpParams::default()
        };
        AsyncParams {
            p,
            web_threads: 2,
            window: 4,
            batch: 16,
            cap: 64,
            policy: Backpressure::Block,
        }
    }
}

/// Where the per-thread latency sample buffers live.
#[derive(Clone, Copy, Debug)]
pub struct LatView {
    /// Page table of the web process (the global table).
    pub pt: PageTableId,
    /// Base of the `lat` data region.
    pub base: u64,
    /// Number of per-thread buffers.
    pub threads: u64,
}

/// A built stack (async pipeline or its synchronous twin) with in-guest
/// latency sampling.
pub struct AsyncOltp {
    /// Counters + system (reuses the [`Stack`] plumbing).
    pub stack: Stack,
    /// The latency sample buffers.
    pub lat: LatView,
    /// Channel registry ids minted for this stack (async build only).
    pub chans: Vec<usize>,
}

/// One measured window.
#[derive(Clone, Copy, Debug)]
pub struct AsyncRun {
    /// Operations completed in the window.
    pub ops: u64,
    /// Throughput.
    pub ops_per_min: f64,
    /// Median request latency (µs), sampled in-guest.
    pub p50_us: f64,
    /// 99th-percentile request latency (µs).
    pub p99_us: f64,
}

/// `sorted` must be ascending.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

impl AsyncOltp {
    fn lat_counts(&self) -> Vec<u64> {
        let m = &self.stack.sys.k.mem;
        (0..self.lat.threads)
            .map(|i| m.kread_u64(self.lat.pt, self.lat.base + i * LAT_STRIDE).unwrap_or(0))
            .collect()
    }

    /// Latency samples (ns) recorded since the `c0` snapshot, all threads
    /// pooled. Older samples that wrapped out of a thread's buffer are
    /// dropped (the buffers are sized so a measurement window fits).
    fn lat_samples(&self, c0: &[u64]) -> Vec<u64> {
        let m = &self.stack.sys.k.mem;
        let mut out = Vec::new();
        for i in 0..self.lat.threads {
            let base = self.lat.base + i * LAT_STRIDE;
            let c1 = m.kread_u64(self.lat.pt, base).unwrap_or(0);
            let lo = c0[i as usize].max(c1.saturating_sub(LAT_SLOTS));
            for c in lo..c1 {
                let off = 8 + (c & (LAT_SLOTS - 1)) * 8;
                out.push(m.kread_u64(self.lat.pt, base + off).unwrap_or(0));
            }
        }
        out
    }

    /// Runs `warm_ms` of warm-up then a `measure_ms` window; returns
    /// throughput and in-guest latency percentiles for the window.
    pub fn run_window(&mut self, warm_ms: u64, measure_ms: u64) -> AsyncRun {
        let cost = self.stack.sys.k.cost.clone();
        let warm_end = cost.cycles_from_ns(warm_ms as f64 * 1e6);
        self.stack.sys.run_until(|s| s.k.now_max() >= warm_end);
        let ops0 = self.stack.sum_counters();
        let c0 = self.lat_counts();
        let t0 = self.stack.sys.k.now_max();
        let end = t0 + cost.cycles_from_ns(measure_ms as f64 * 1e6);
        self.stack.sys.run_until(|s| s.k.now_max() >= end);
        let ops = self.stack.sum_counters() - ops0;
        let dt_ns = cost.ns(self.stack.sys.k.now_max() - t0);
        let mut lat = self.lat_samples(&c0);
        lat.sort_unstable();
        AsyncRun {
            ops,
            ops_per_min: ops as f64 / (dt_ns / 1e9) * 60.0,
            p50_us: percentile(&lat, 0.50) as f64 / 1000.0,
            p99_us: percentile(&lat, 0.99) as f64 / 1000.0,
        }
    }
}

/// `lat_store(a, buf)`: store the latency in `a0` into the sample buffer
/// whose base pointer is in `buf` (count word + wrapping slots). Clobbers
/// `t0`, `t1`.
pub(crate) fn lat_store(a: &mut Asm, buf: u8) {
    a.push(Instr::Ld { rd: T0, rs1: buf, imm: 0 });
    a.push(Instr::Andi { rd: T1, rs1: T0, imm: LAT_MASK });
    a.push(Instr::Slli { rd: T1, rs1: T1, imm: 3 });
    a.push(Instr::Add { rd: T1, rs1: T1, rs2: buf });
    a.push(Instr::St { rs1: T1, rs2: A0, imm: 8 });
    a.push(Instr::Addi { rd: T0, rs1: T0, imm: 1 });
    a.push(Instr::St { rs1: buf, rs2: T0, imm: 0 });
}

/// The async web producer, label `aweb_main`.
///
/// Args: `a0` = thread index, `a1` = request-ring base, `a2` = this
/// thread's reply-ring base. Fills a window of in-flight requests
/// (records `[thread, req_id, enqueue_ns, 0]`), ringing the request
/// doorbell once per `batch`, then drains completions — sampling
/// end-to-end latency with `clock_ns` — and tops the window back up.
fn emit_aweb_main(
    a: &mut Asm,
    p: &OltpParams,
    req_cfg: RingCfg,
    compl_cfg: RingCfg,
    window: u64,
    batch: u64,
) {
    let parse = (p.web_work_ns as f64 * 3.1) as i32;
    let respond = (p.web_respond_ns as f64 * 3.1) as i32;
    a.label("aweb_main");
    a.push(Instr::Add { rd: S0, rs1: A1, rs2: ZERO }); // request ring
    a.push(Instr::Add { rd: S3, rs1: A2, rs2: ZERO }); // reply ring
    a.push(Instr::Add { rd: S7, rs1: A0, rs2: ZERO }); // my index
    a.push(Instr::Slli { rd: T0, rs1: A0, imm: 3 });
    a.li_sym(S1, "$data_counters");
    a.push(Instr::Add { rd: S1, rs1: S1, rs2: T0 });
    a.li(T1, LAT_STRIDE);
    a.push(Instr::Mul { rd: T0, rs1: A0, rs2: T1 });
    a.li_sym(S6, "$data_lat");
    a.push(Instr::Add { rd: S6, rs1: S6, rs2: T0 });
    a.push(Instr::Addi { rd: S2, rs1: A0, imm: 17 }); // request-id PRNG
    a.li(S4, 0); // in-flight
    a.li(S5, 0); // enqueues since last doorbell
    a.label("aweb_fill");
    a.li(T0, window);
    a.bgeu(S4, T0, "aweb_drain");
    a.push(Instr::Work { rs1: 0, imm: parse });
    a.syscall(sysno::CLOCK_NS);
    a.push(Instr::Add { rd: A3, rs1: A0, rs2: ZERO }); // enqueue timestamp
    tiers::emit_lcg(a, S2, A2); // request id
    emit::emit_enqueue(a, "aweb_enq", S0, &req_cfg, &|a, slot| {
        a.push(Instr::St { rs1: slot, rs2: S7, imm: 0 });
        a.push(Instr::St { rs1: slot, rs2: A2, imm: 8 });
        a.push(Instr::St { rs1: slot, rs2: A3, imm: 16 });
        a.push(Instr::St { rs1: slot, rs2: ZERO, imm: 24 });
    });
    a.bne(A0, ZERO, "aweb_dead");
    a.push(Instr::Addi { rd: S4, rs1: S4, imm: 1 });
    a.push(Instr::Addi { rd: S5, rs1: S5, imm: 1 });
    a.li(T0, batch);
    a.bltu(S5, T0, "aweb_fill");
    emit::emit_flush(a, "aweb_f1", S0);
    a.li(S5, 0);
    a.j("aweb_fill");
    a.label("aweb_drain");
    // Never block with an unflushed doorbell: the consumer could sleep
    // through the records we just queued.
    emit::emit_flush(a, "aweb_f2", S0);
    a.li(S5, 0);
    emit::emit_consumer_wait(a, "aweb_cw", S3, &compl_cfg);
    a.beq(A0, ZERO, "aweb_dead");
    a.label("aweb_dloop");
    emit::emit_dequeue(a, "aweb_dq", S3, &compl_cfg, &|a, slot| {
        a.push(Instr::Ld { rd: A2, rs1: slot, imm: 16 }); // echoed timestamp
    });
    a.beq(A0, ZERO, "aweb_fill"); // drained: top the window back up
    a.push(Instr::Work { rs1: 0, imm: respond });
    a.syscall(sysno::CLOCK_NS);
    a.push(Instr::Sub { rd: A0, rs1: A0, rs2: A2 });
    lat_store(a, S6);
    a.push(Instr::Ld { rd: T0, rs1: S1, imm: 0 });
    a.push(Instr::Addi { rd: T0, rs1: T0, imm: 1 });
    a.push(Instr::St { rs1: S1, rs2: T0, imm: 0 });
    a.push(Instr::Addi { rd: S4, rs1: S4, imm: -1 });
    a.j("aweb_dloop");
    a.label("aweb_dead");
    a.push(Instr::Halt); // exit code: 0 = closed, else the enqueue error
}

/// Drain one request's `queries_per_op` results (running the per-query
/// PHP work against each), run the fixed render work, post the completion
/// record held in `a2`–`a5`, and clear the pending flag. `tag` must be
/// unique per expansion.
fn emit_aphp_drain_post(
    a: &mut Asm,
    p: &OltpParams,
    db_cfg: &RingCfg,
    compl_cfg: &RingCfg,
    tag: &str,
) {
    let per_q = (p.php_per_query_ns as f64 * 3.1) as i32;
    let fixed = (p.php_fixed_ns as f64 * 3.1) as i32;
    let l = |s: &str| format!("aphp_{tag}_{s}");
    a.li(S5, p.queries_per_op);
    a.li(A5, 0); // page checksum
    a.label(&l("rwait"));
    emit::emit_consumer_wait(a, &l("rcw"), S2, db_cfg);
    a.beq(A0, ZERO, "aphp_dead");
    a.label(&l("rloop"));
    emit::emit_dequeue(a, &l("rdq"), S2, db_cfg, &|a, slot| {
        a.push(Instr::Ld { rd: A6, rs1: slot, imm: 0 });
    });
    a.beq(A0, ZERO, &l("rwait"));
    a.push(Instr::Work { rs1: 0, imm: per_q });
    a.push(Instr::Add { rd: A5, rs1: A5, rs2: A6 });
    a.push(Instr::Addi { rd: S5, rs1: S5, imm: -1 });
    a.bne(S5, ZERO, &l("rloop"));
    a.push(Instr::Work { rs1: 0, imm: fixed });
    // Post the completion to the originating thread's reply ring.
    a.push(Instr::Add { rd: S6, rs1: S3, rs2: ZERO });
    a.beq(A2, ZERO, &l("post"));
    a.push(Instr::Add { rd: S6, rs1: S4, rs2: ZERO });
    a.label(&l("post"));
    emit::emit_enqueue(a, &l("ce"), S6, compl_cfg, &|a, slot| {
        a.push(Instr::St { rs1: slot, rs2: A2, imm: 0 });
        a.push(Instr::St { rs1: slot, rs2: A3, imm: 8 });
        a.push(Instr::St { rs1: slot, rs2: A4, imm: 16 });
        a.push(Instr::St { rs1: slot, rs2: A5, imm: 24 });
    });
    a.bne(A0, ZERO, "aphp_dead");
    emit::emit_flush(a, &l("cf"), S6);
    a.li_sym(T0, "$data_pend");
    a.push(Instr::St { rs1: T0, rs2: ZERO, imm: 24 });
}

/// The PHP pipeline consumer, label `aphp_main`.
///
/// Args: `a0` = request ring, `a1` = DB query ring, `a2` = DB result
/// ring, `a3`/`a4` = reply rings of web threads 0/1.
///
/// A two-deep software pipeline: request *N*'s queries are issued into
/// the DB ring **before** request *N−1*'s results are drained, so the DB
/// consumer always has queries queued while PHP folds checksums and runs
/// the fixed render work — neither tier idles waiting for the other. The
/// freshly dequeued request is staged in the `pend` data region (the
/// previous one lives in `a2`–`a4` across the drain).
fn emit_aphp_main(
    a: &mut Asm,
    p: &OltpParams,
    req_cfg: RingCfg,
    db_cfg: RingCfg,
    compl_cfg: RingCfg,
    batch: u64,
) {
    a.label("aphp_main");
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
    a.push(Instr::Add { rd: S1, rs1: A1, rs2: ZERO });
    a.push(Instr::Add { rd: S2, rs1: A2, rs2: ZERO });
    a.push(Instr::Add { rd: S3, rs1: A3, rs2: ZERO });
    a.push(Instr::Add { rd: S4, rs1: A4, rs2: ZERO });
    a.li_sym(T0, "$data_pend");
    a.push(Instr::St { rs1: T0, rs2: ZERO, imm: 24 }); // no request in flight
    a.label("aphp_outer");
    emit::emit_consumer_wait(a, "aphp_cw", S0, &req_cfg);
    a.beq(A0, ZERO, "aphp_dead");
    a.label("aphp_req");
    emit::emit_dequeue(a, "aphp_dq", S0, &req_cfg, &|a, slot| {
        // Stage the new request in `pend` (thread, id, timestamp) — the
        // previous request still occupies a2–a4.
        a.li_sym(T2, "$data_pend");
        a.push(Instr::Ld { rd: T6, rs1: slot, imm: 0 });
        a.push(Instr::St { rs1: T2, rs2: T6, imm: 0 });
        a.push(Instr::Ld { rd: T6, rs1: slot, imm: 8 });
        a.push(Instr::St { rs1: T2, rs2: T6, imm: 8 });
        a.push(Instr::Ld { rd: T6, rs1: slot, imm: 16 });
        a.push(Instr::St { rs1: T2, rs2: T6, imm: 16 });
    });
    a.bne(A0, ZERO, "aphp_issue");
    // Request ring empty: finish the in-flight request (if any), sleep.
    a.li_sym(T0, "$data_pend");
    a.push(Instr::Ld { rd: T0, rs1: T0, imm: 24 });
    a.beq(T0, ZERO, "aphp_outer");
    emit_aphp_drain_post(a, p, &db_cfg, &compl_cfg, "tail");
    a.j("aphp_outer");
    a.label("aphp_issue");
    // Issue the new request's queries (cheap — the per-query PHP work
    // happens at drain time) so the DB tier starts immediately...
    a.li_sym(T0, "$data_pend");
    a.push(Instr::Ld { rd: S6, rs1: T0, imm: 8 }); // product-id PRNG ← id
    a.li(S5, p.queries_per_op);
    a.li(S7, 0);
    a.label("aphp_qenq");
    tiers::emit_lcg(a, S6, A6);
    emit::emit_enqueue(a, "aphp_qe", S1, &db_cfg, &|a, slot| {
        a.push(Instr::St { rs1: slot, rs2: A6, imm: 0 });
        a.push(Instr::St { rs1: slot, rs2: ZERO, imm: 8 });
        a.push(Instr::St { rs1: slot, rs2: ZERO, imm: 16 });
        a.push(Instr::St { rs1: slot, rs2: ZERO, imm: 24 });
    });
    a.bne(A0, ZERO, "aphp_dead");
    a.push(Instr::Addi { rd: S7, rs1: S7, imm: 1 });
    a.li(T0, batch);
    a.bltu(S7, T0, "aphp_qn");
    emit::emit_flush(a, "aphp_f1", S1);
    a.li(S7, 0);
    a.label("aphp_qn");
    a.push(Instr::Addi { rd: S5, rs1: S5, imm: -1 });
    a.bne(S5, ZERO, "aphp_qenq");
    emit::emit_flush(a, "aphp_f2", S1);
    // ...then drain the PREVIOUS request's results while the DB chews on
    // the new one.
    a.li_sym(T0, "$data_pend");
    a.push(Instr::Ld { rd: T0, rs1: T0, imm: 24 });
    a.beq(T0, ZERO, "aphp_promote");
    emit_aphp_drain_post(a, p, &db_cfg, &compl_cfg, "mid");
    a.label("aphp_promote");
    // The staged request becomes the in-flight one.
    a.li_sym(T0, "$data_pend");
    a.push(Instr::Ld { rd: A2, rs1: T0, imm: 0 });
    a.push(Instr::Ld { rd: A3, rs1: T0, imm: 8 });
    a.push(Instr::Ld { rd: A4, rs1: T0, imm: 16 });
    a.li(T1, 1);
    a.push(Instr::St { rs1: T0, rs2: T1, imm: 24 });
    a.j("aphp_req");
    a.label("aphp_dead");
    a.push(Instr::Halt);
}

/// The DB pipeline consumer, label `adb_main`. Args: `a0` = query ring,
/// `a1` = result ring. Every query runs the same `db_query` body as the
/// synchronous stacks (emitted next to this in the DB app).
fn emit_adb_main(a: &mut Asm, db_cfg: RingCfg, batch: u64) {
    a.label("adb_main");
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO });
    a.push(Instr::Add { rd: S1, rs1: A1, rs2: ZERO });
    a.li(S2, 0);
    a.label("adb_outer");
    emit::emit_consumer_wait(a, "adb_cw", S0, &db_cfg);
    a.beq(A0, ZERO, "adb_dead");
    a.label("adb_loop");
    emit::emit_dequeue(a, "adb_dq", S0, &db_cfg, &|a, slot| {
        a.push(Instr::Ld { rd: A2, rs1: slot, imm: 0 });
    });
    a.bne(A0, ZERO, "adb_have");
    emit::emit_flush(a, "adb_f0", S1); // drained: release stragglers
    a.li(S2, 0);
    a.j("adb_outer");
    a.label("adb_have");
    a.push(Instr::Add { rd: A0, rs1: A2, rs2: ZERO });
    a.jal(RA, "db_query");
    a.push(Instr::Add { rd: A2, rs1: A0, rs2: ZERO });
    emit::emit_enqueue(a, "adb_qe", S1, &db_cfg, &|a, slot| {
        a.push(Instr::St { rs1: slot, rs2: A2, imm: 0 });
        a.push(Instr::St { rs1: slot, rs2: ZERO, imm: 8 });
        a.push(Instr::St { rs1: slot, rs2: ZERO, imm: 16 });
        a.push(Instr::St { rs1: slot, rs2: ZERO, imm: 24 });
    });
    a.bne(A0, ZERO, "adb_dead");
    a.push(Instr::Addi { rd: S2, rs1: S2, imm: 1 });
    a.li(T0, batch);
    a.bltu(S2, T0, "adb_loop");
    emit::emit_flush(a, "adb_f1", S1);
    a.li(S2, 0);
    a.j("adb_loop");
    a.label("adb_dead");
    a.push(Instr::Halt);
}

/// Builds the asynchronous pipeline.
pub fn build_async(ap: &AsyncParams) -> AsyncOltp {
    let p = &ap.p;
    assert!((1..=2).contains(&ap.web_threads), "1 or 2 web producers (PHP arg budget)");
    assert!(
        ap.cap >= p.queries_per_op && ap.cap >= ap.web_threads * ap.window,
        "ring capacity must cover a request's query burst and the request window \
         (Block-policy producers park while their consumer is parked otherwise)"
    );
    let mut w =
        World::new(KernelConfig { cpus: p.cores, steal: p.steal, ..KernelConfig::default() });

    let req_cfg = RingCfg::new(ap.cap, ap.web_threads > 1, ap.policy);
    let compl_cfg = RingCfg::new(ap.cap, false, ap.policy);
    let db_cfg = RingCfg::new(ap.cap, false, ap.policy);

    let pdb = p.clone();
    let (dbc, b) = (db_cfg, ap.batch);
    let db = AppSpec::new("db", move |a| {
        emit_adb_main(a, dbc, b);
        tiers::emit_db_query(a, &pdb);
    })
    .data("db_table", TABLE_ROWS * p.row_bytes)
    .data("db_qcount", 64)
    .data("db_iobuf", p.row_bytes.max(64));
    w.build(db);

    let pphp = p.clone();
    let (rc, cc) = (req_cfg, compl_cfg);
    let php = AppSpec::new("php", move |a| {
        emit_aphp_main(a, &pphp, rc, dbc, cc, b);
    })
    .data("pend", 64);
    w.build(php);

    let pweb = p.clone();
    let (win, threads) = (ap.window, ap.web_threads);
    let web = AppSpec::new("web", move |a| {
        emit_aweb_main(a, &pweb, rc, cc, win, b);
    })
    .data("counters", (threads * 8).max(64))
    .data("lat", threads * LAT_STRIDE);
    w.build(web);
    w.link();
    let (web_pid, php_pid, db_pid) = (w.app("web").pid, w.app("php").pid, w.app("db").pid);
    tiers::install_db_file(&mut w.sys.k, db_pid, "dvdstore.db", p);

    // Request channel: web → PHP, reply ring back to web thread 0.
    let req = w
        .sys
        .channel_create("async-req", php_pid, &[web_pid], req_cfg, compl_cfg)
        .expect("all endpoints are dIPC-enabled");
    // DB channel: PHP → DB queries, results back.
    let dbch = w
        .sys
        .channel_create("async-db", db_pid, &[php_pid], db_cfg, db_cfg)
        .expect("all endpoints are dIPC-enabled");
    // Web thread 1 gets its own reply ring (a channel whose request ring
    // flows PHP → web).
    let mut chans = vec![req.id, dbch.id];
    let mut compl_bases = vec![req.resp.base];
    if ap.web_threads == 2 {
        let c1 = w
            .sys
            .channel_create(
                "async-compl1",
                web_pid,
                &[php_pid],
                compl_cfg,
                RingCfg::new(2, false, ap.policy),
            )
            .expect("all endpoints are dIPC-enabled");
        chans.push(c1.id);
        compl_bases.push(c1.req.base);
    }

    w.spawn(
        "php",
        "aphp_main",
        &[
            req.req.base,
            dbch.req.base,
            dbch.resp.base,
            compl_bases[0],
            *compl_bases.last().expect("at least one reply ring"),
        ],
    );
    w.spawn("db", "adb_main", &[dbch.req.base, dbch.resp.base]);
    for k in 0..ap.web_threads {
        w.spawn("web", "aweb_main", &[k, req.req.base, compl_bases[k as usize]]);
    }

    let counters = w.app("web").data["counters"];
    let lat = w.app("web").data["lat"];
    let pt = simmem::Memory::GLOBAL_PT;
    AsyncOltp {
        stack: Stack { sys: w.sys, counters: (pt, counters), slots: ap.web_threads, sheds: None },
        lat: LatView { pt, base: lat, threads: ap.web_threads },
        chans,
    }
}

/// The synchronous web loop with in-guest latency sampling: identical to
/// [`tiers::emit_web_main`] modulo the two `clock_ns` samples bracketing
/// each operation (mirrored on the async side, so the twins measure the
/// same interval).
fn emit_web_main_timed(a: &mut Asm, p: &OltpParams) {
    let parse = (p.web_work_ns as f64 * 3.1) as i32;
    let respond = (p.web_respond_ns as f64 * 3.1) as i32;
    a.label("web_main");
    a.push(Instr::Slli { rd: T0, rs1: A0, imm: 3 });
    a.li_sym(S1, "$data_counters");
    a.push(Instr::Add { rd: S1, rs1: S1, rs2: T0 });
    a.li(T1, LAT_STRIDE);
    a.push(Instr::Mul { rd: T0, rs1: A0, rs2: T1 });
    a.li_sym(S3, "$data_lat");
    a.push(Instr::Add { rd: S3, rs1: S3, rs2: T0 });
    a.push(Instr::Addi { rd: S2, rs1: A0, imm: 17 });
    a.label("web_loop");
    a.push(Instr::Work { rs1: 0, imm: parse });
    a.syscall(sysno::CLOCK_NS);
    a.push(Instr::Add { rd: S4, rs1: A0, rs2: ZERO });
    tiers::emit_lcg(a, S2, A0);
    a.li(A1, 0);
    a.jal(RA, "call_php_php_render");
    a.push(Instr::Work { rs1: 0, imm: respond });
    a.syscall(sysno::CLOCK_NS);
    a.push(Instr::Sub { rd: A0, rs1: A0, rs2: S4 });
    lat_store(a, S3);
    a.push(Instr::Ld { rd: T0, rs1: S1, imm: 0 });
    a.push(Instr::Addi { rd: T0, rs1: T0, imm: 1 });
    a.push(Instr::St { rs1: S1, rs2: T0, imm: 0 });
    a.j("web_loop");
}

/// Builds the synchronous twin: the [`crate::dipc_stack`] proxy
/// configuration (same isolation properties) at `web_threads` concurrency,
/// with the same in-guest latency sampling as the async pipeline.
pub fn build_sync(ap: &AsyncParams) -> AsyncOltp {
    let p = &ap.p;
    let mut w =
        World::new(KernelConfig { cpus: p.cores, steal: p.steal, ..KernelConfig::default() });
    let sig = Signature::regs(2, 1);

    let pdb = p.clone();
    let db = AppSpec::new("db", move |a| {
        tiers::emit_db_query(a, &pdb);
    })
    .export("db_query", sig, IsoProps::STACK_CONF | IsoProps::REG_INTEGRITY)
    .data("db_table", TABLE_ROWS * p.row_bytes)
    .data("db_qcount", 64)
    .data("db_iobuf", p.row_bytes.max(64));
    w.build(db);

    let pphp = p.clone();
    let php = AppSpec::new("php", move |a| {
        tiers::emit_php_render(a, &pphp, &|a| {
            a.jal(RA, "call_db_db_query");
        });
    })
    .export("php_render", sig, IsoProps::STACK_CONF)
    .import_live("db", "db_query", sig, IsoProps::LOW, &[S0, S6, S7]);
    w.build(php);

    let pweb = p.clone();
    let web = AppSpec::new("web", move |a| {
        emit_web_main_timed(a, &pweb);
    })
    .import_live("php", "php_render", sig, IsoProps::LOW, &[S1, S2, S3, S4])
    .data("counters", (ap.web_threads * 8).max(64))
    .data("lat", ap.web_threads * LAT_STRIDE);
    w.build(web);
    w.link();
    let db_pid = w.app("db").pid;
    tiers::install_db_file(&mut w.sys.k, db_pid, "dvdstore.db", p);

    for i in 0..ap.web_threads {
        w.spawn("web", "web_main", &[i]);
    }
    let counters = w.app("web").data["counters"];
    let lat = w.app("web").data["lat"];
    let pt = simmem::Memory::GLOBAL_PT;
    AsyncOltp {
        stack: Stack { sys: w.sys, counters: (pt, counters), slots: ap.web_threads, sheds: None },
        lat: LatView { pt, base: lat, threads: ap.web_threads },
        chans: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AsyncParams {
        let mut ap = AsyncParams::for_bench();
        ap.p.queries_per_op = 8;
        ap.batch = 4;
        ap
    }

    #[test]
    fn async_pipeline_completes_operations() {
        let mut s = build_async(&small());
        let r = s.run_window(2, 10);
        assert!(r.ops > 5, "async pipeline must make progress: {} ops", r.ops);
        assert!(r.p50_us > 0.0, "in-guest latency samples must be recorded");
    }

    #[test]
    fn sync_twin_completes_operations() {
        let mut s = build_sync(&small());
        let r = s.run_window(2, 10);
        assert!(r.ops > 5, "sync twin must make progress: {} ops", r.ops);
        assert!(r.p50_us > 0.0);
    }

    #[test]
    fn async_pipeline_replays_identically() {
        let runs: Vec<(u64, u64)> = (0..2)
            .map(|_| {
                let mut s = build_async(&small());
                let r = s.run_window(2, 10);
                (r.ops, s.stack.sys.k.now_max())
            })
            .collect();
        assert_eq!(runs[0], runs[1], "same build must replay cycle-identically");
    }
}
