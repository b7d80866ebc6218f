//! The multi-tier OLTP web-server macro-benchmark (§2, §7.4).
//!
//! A DVDStore-like workload drives a three-tier stack — Web frontend, PHP
//! interpreter, Database — in the paper's three configurations:
//!
//! * [`linux_stack`] — the baseline: three isolated processes with private
//!   page tables, communicating over UNIX sockets; each tier runs its own
//!   pool of service threads (web ↔ FastCGI-style PHP workers ↔ DB worker
//!   threads).
//! * [`ideal_stack`] — "Ideal (unsafe)": everything in a single process;
//!   tiers are plain function calls (PHP as an Apache plugin, MariaDB
//!   embedded via libmariadbd).
//! * [`dipc_stack`] — the dIPC configuration: three dIPC-enabled processes
//!   in the global address space; web threads call straight through PHP
//!   into the DB over generated proxies — no service threads (no false
//!   concurrency, §2.3).
//!
//! Each *operation* (one dynamic page) costs the same application work in
//! every configuration: web parsing + response work, PHP compute, and
//! `queries_per_op` database queries, of which every `storage_every`-th
//! reads the storage backend (a serialized-disk or tmpfs file, the two
//! storage variants of Figure 8). Only the inter-tier call mechanism
//! differs — which is precisely what Figures 1 and 8 measure.
//!
//! Beyond the paper's fixed three-tier shape, [`service_graph`] builds a
//! production-shaped graph (edge → cache → replicated app tier → DB
//! primary + replicas, per-tenant CODOMs domains, admission control)
//! driven by the open-loop generator in [`workload`] — the `prodbench`
//! scenario.

pub mod async_stack;
pub mod dipc_stack;
pub mod ideal_stack;
pub mod linux_stack;
pub mod params;
pub mod service_graph;
pub mod tiers;
pub mod workload;

pub use params::{OltpParams, OltpResult, StorageKind};

use dipc::System;
use simmem::PageTableId;

/// A built stack ready to run.
pub struct Stack {
    /// The simulated system.
    pub sys: System,
    /// Page table + base address of the per-thread operation counters.
    pub counters: (PageTableId, u64),
    /// Number of counter slots (primary threads).
    pub slots: u64,
    /// Base of the per-thread shed counters, when the stack was built with
    /// fault injection armed (the dIPC web tier then wraps calls in
    /// retry-with-backoff and sheds requests that keep failing).
    pub sheds: Option<u64>,
}

impl Stack {
    fn sum_counters(&self) -> u64 {
        let (pt, base) = self.counters;
        (0..self.slots).map(|i| self.sys.k.mem.kread_u64(pt, base + i * 8).unwrap_or(0)).sum()
    }

    /// Total requests shed across all web threads (0 when the stack was
    /// built without fault injection).
    pub fn sum_sheds(&self) -> u64 {
        let (pt, _) = self.counters;
        match self.sheds {
            Some(base) => (0..self.slots)
                .map(|i| self.sys.k.mem.kread_u64(pt, base + i * 8).unwrap_or(0))
                .sum(),
            None => 0,
        }
    }

    /// Runs the stack: `warm_ms` of simulated warm-up, then `measure_ms` of
    /// measurement. Returns throughput, latency and the time breakdown.
    pub fn run(&mut self, warm_ms: u64, measure_ms: u64, concurrency: u64) -> OltpResult {
        let cost = self.sys.k.cost.clone();
        let warm_end = cost.cycles_from_ns(warm_ms as f64 * 1e6);
        self.sys.run_until(|s| s.k.now_max() >= warm_end);
        let ops0 = self.sum_counters();
        let b0 = self.sys.k.breakdown();
        let c0 = self.sys.k.now_max();
        let end = c0 + cost.cycles_from_ns(measure_ms as f64 * 1e6);
        // Request-lifecycle tracing: sample the per-slot operation counters
        // from inside the run predicate (a passive memory read — no cycles
        // are charged, so cycle counts are identical with tracing off). Each
        // completed operation batch becomes a span on that slot's request
        // track plus a latency-histogram sample.
        let traced = simtrace::enabled();
        let (pt, base) = self.counters;
        let slots = self.slots as usize;
        let mut last: Vec<u64> = (0..slots)
            .map(|i| self.sys.k.mem.kread_u64(pt, base + i as u64 * 8).unwrap_or(0))
            .collect();
        let mut last_ts = vec![c0; slots];
        self.sys.run_until(|s| {
            if traced {
                for i in 0..slots {
                    let v = s.k.mem.kread_u64(pt, base + i as u64 * 8).unwrap_or(0);
                    if v != last[i] {
                        let now = s.k.now_max();
                        let done = v - last[i];
                        let per = (now - last_ts[i]) / done.max(1);
                        for _ in 0..done {
                            simtrace::hist("request_latency_cycles", per);
                        }
                        simtrace::counter("oltp_ops", done);
                        simtrace::begin_span(
                            simtrace::Track::Request(i),
                            last_ts[i],
                            format!("op#{v}"),
                            "request",
                        );
                        simtrace::end_span(simtrace::Track::Request(i), now);
                        last[i] = v;
                        last_ts[i] = now;
                    }
                }
            }
            s.k.now_max() >= end
        });
        let ops = self.sum_counters() - ops0;
        let breakdown = self.sys.k.breakdown().since(&b0);
        let dt_ns = cost.ns(self.sys.k.now_max() - c0);
        let ops_per_min = ops as f64 / (dt_ns / 1e9) * 60.0;
        // Little's law for a closed system: latency = in-flight / throughput.
        let avg_latency_ms = if ops == 0 {
            f64::INFINITY
        } else {
            concurrency as f64 / (ops as f64 / (dt_ns / 1e6))
        };
        let (u, k, i) = breakdown.coarse();
        let tot = (u + k + i).max(1) as f64;
        OltpResult {
            ops,
            ops_per_min,
            avg_latency_ms,
            user_frac: u as f64 / tot,
            kernel_frac: k as f64 / tot,
            idle_frac: i as f64 / tot,
            breakdown,
        }
    }
}
