//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is this table rendered by `--schema`; a test keeps the
//! two equal, and [`Metrics::render`] refuses to print a name that is not
//! declared here or to omit one that is.

use std::collections::BTreeMap;

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sync-call",
        why: "Figure 5 primitive set, closed loop, 1-2 sim CPUs: block engine and CODOMs crossings in steady state (dIPC rows), syscall/futex/pipe paths alone (baseline rows); carries the paper-error figure",
    },
    Workload {
        name: "oltp-linux",
        why: "OLTP over sockets, 4 sim cores, 256 clients per tier, closed loop: simkernel (scheduler, sockets, page-table switches, event queue) does the work and cdvm little",
    },
    Workload {
        name: "oltp-dipc",
        why: "the same requests through dIPC proxies: cdvm, codoms and proxies do the work and kernel events are near zero, so it mirrors oltp-linux",
    },
    Workload {
        name: "prod",
        why: "open loop at 650k req/s into the 8-core service graph: work stealing, host-side ring injection, 16 tenant domains on a 32-entry APL cache, working set past the host translation cache",
    },
    Workload {
        name: "plugin-churn",
        why: "build, violate, kill, reclaim and reload sandboxed plugins: the write/invalidate side (blob checks, map/unmap, proxy generation, cold cache fills) the steady-state workloads skip",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Simulated metrics must repeat exactly for a fixed seed.
    pub simulated: bool,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25, simulated: false },
    EndToEnd {
        name: "host_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "host_s_per_sim_s",
        unit: "s/s",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        simulated: false,
    },
    EndToEnd {
        name: "sim_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.05,
        simulated: true,
    },
    EndToEnd {
        name: "sim_lat_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.05,
        simulated: true,
    },
];

pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// The Figure 5 rows that get their own simulated-latency and host-time
/// per-layer metric (the same-CPU variants; the cross-CPU rows and user-RPC
/// run too and count toward the end-to-end numbers).
pub const PRIMITIVES: [&str; 10] = [
    "func",
    "syscall",
    "dipc_low",
    "dipc_high",
    "dipc_proc_low",
    "dipc_proc_high",
    "sem_same",
    "pipe_same",
    "l4_same",
    "rpc_same",
];

pub fn per_layer() -> Vec<Layer> {
    use Better::{Higher, Lower};
    let fixed: &[(&str, &str, Better)] = &[
        // cdvm: the execution engine.
        ("cdvm.step_cpu_s", "s", Lower),
        ("cdvm.slices", "count", Lower),
        ("cdvm.retired", "count", Lower),
        ("cdvm.retired_per_slice", "count", Higher),
        ("cdvm.ns_per_instr", "ns", Lower),
        ("cdvm.retired_per_op", "count", Lower),
        ("cdvm.host_mips", "MIPS", Higher),
        ("cdvm.block_hit_rate", "ratio", Higher),
        ("cdvm.block_chain_rate", "ratio", Higher),
        ("cdvm.block_fills_per_minstr", "count", Lower),
        ("cdvm.block_bails", "count", Lower),
        ("cdvm.block_evict_conflicts", "count", Lower),
        ("cdvm.icache_hit_rate", "ratio", Higher),
        ("cdvm.dcache_hit_rate", "ratio", Higher),
        ("cdvm.cross_hit_rate", "ratio", Higher),
        ("cdvm.domain_crossings", "count", Lower),
        ("cdvm.iso_alu_mips", "MIPS", Higher),
        ("cdvm.iso_mem_mips", "MIPS", Higher),
        ("cdvm.iso_xcall_mips", "MIPS", Higher),
        // codoms: the protection checks.
        ("codoms.apl_hit_rate", "ratio", Higher),
        ("codoms.apl_misses", "count", Lower),
        ("codoms.crossings_per_op", "count", Lower),
        ("codoms.iso_apl_lookup_ns", "ns", Lower),
        ("codoms.iso_check_jump_ns", "ns", Lower),
        ("codoms.iso_check_data_ns", "ns", Lower),
        // simmem: translation and physical memory.
        ("simmem.itlb_hit_rate", "ratio", Higher),
        ("simmem.dtlb_hit_rate", "ratio", Higher),
        ("simmem.tlb_flushes", "count", Lower),
        ("simmem.mapped_pages", "count", Lower),
        ("simmem.iso_translate_hot_ns", "ns", Lower),
        ("simmem.iso_translate_cold_ns", "ns", Lower),
        ("simmem.iso_rw_u64_ns", "ns", Lower),
        ("simmem.iso_map_unmap_ns", "ns", Lower),
        // simkernel: event loop, scheduler, syscalls.
        ("simkernel.step_event_s", "s", Lower),
        ("simkernel.event_steps", "count", Lower),
        ("simkernel.event_step_share", "ratio", Lower),
        ("simkernel.ns_per_step", "ns", Lower),
        ("simkernel.threads", "count", Lower),
        ("simkernel.procs", "count", Lower),
        ("simkernel.sim_user_frac", "ratio", Higher),
        ("simkernel.sim_kernel_frac", "ratio", Lower),
        ("simkernel.sim_sched_frac", "ratio", Lower),
        ("simkernel.sim_pt_frac", "ratio", Lower),
        ("simkernel.sim_idle_frac", "ratio", Lower),
        ("simkernel.iso_syscall_host_ns", "ns", Lower),
        ("simkernel.iso_ctxsw_host_ns", "ns", Lower),
        ("simkernel.iso_checker_mib_per_s", "MiB/s", Higher),
        // dipc: the OS extension's host-side calls.
        ("dipc.build_link_s", "s", Lower),
        ("dipc.cold_resolves", "count", Lower),
        ("dipc.kill_reclaim_us", "us", Lower),
        ("dipc.reload_us", "us", Lower),
        // aring: call-record rings.
        ("aring.iso_enq_deq_ns", "ns", Lower),
        ("aring.ring_sheds", "count", Lower),
        // oltp: the service graph and its generator.
        ("oltp.sim_lat_p99_us", "us", Lower),
        ("oltp.sim_lat_p999_us", "us", Lower),
        ("oltp.latency_samples", "count", Higher),
        ("oltp.gen_ns_per_arrival", "ns", Lower),
        ("oltp.bucket_shed_frac", "ratio", Lower),
        ("oltp.cache_hit_frac", "ratio", Higher),
        ("oltp.tenant_touches", "count", Higher),
        ("oltp.inject_lateness_bound_us", "us", Lower),
        // plugins: checked loading and the sandbox.
        ("plugins.build_us_per_world", "us", Lower),
        ("plugins.run_share", "ratio", Higher),
        ("plugins.load_attempts", "count", Lower),
        // baselines: the Figure 5 table against the paper.
        ("baselines.paper_err_frac", "ratio", Lower),
        // simtrace: the simulated-time tracer's host cost.
        ("simtrace.overhead_ratio", "ratio", Lower),
        ("simtrace.events_per_s", "1/s", Higher),
        // harness: the benchmark's own noise and overhead.
        ("harness.trace_overhead_ratio", "ratio", Lower),
        ("harness.wall_median_s", "s", Lower),
        ("harness.wall_iqr_frac", "ratio", Lower),
        ("harness.fail_frac", "ratio", Lower),
        ("harness.rounds", "count", Higher),
    ];
    let mut out: Vec<Layer> = fixed
        .iter()
        .map(|&(name, unit, better)| Layer { name: name.to_string(), unit, better })
        .collect();
    for p in PRIMITIVES {
        out.push(Layer { name: format!("baselines.sim_ns.{p}"), unit: "ns", better: Lower });
    }
    for p in PRIMITIVES {
        out.push(Layer { name: format!("baselines.host_s.{p}"), unit: "s", better: Lower });
    }
    out
}

/// The `BENCHMARK.json` document for `run_seconds`.
pub fn benchmark_json(run_seconds: u64) -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        ("command", Json::Arr(command.iter().map(|s| Json::Str(s.to_string())).collect())),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::Num(run_seconds as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.as_str().into())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.clone())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.as_str().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Values collected during a run, keyed by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of a result line: every end-to-end metric, or
    /// (traced) every per-layer metric. A per-layer metric the workload does
    /// not produce reads 0 (the README lists which apply where); an
    /// end-to-end one must be present, finite and non-zero. A collected name
    /// that is declared nowhere is a bug in the harness.
    pub fn render(&self, traced: bool) -> Result<Json, String> {
        let layers = per_layer();
        for name in self.0.keys() {
            let declared =
                END_TO_END.iter().any(|m| m.name == name) || layers.iter().any(|m| &m.name == name);
            if !declared {
                return Err(format!("metric {name} is collected but not declared"));
            }
        }
        let entry = |v: f64, unit: &str| {
            Json::obj([("value", Json::Num(v)), ("unit", Json::Str(unit.into()))])
        };
        let mut kv = Vec::new();
        if traced {
            for m in &layers {
                let v = self.get(&m.name).unwrap_or(0.0);
                if !v.is_finite() {
                    return Err(format!("per-layer metric {} is not finite", m.name));
                }
                kv.push((m.name.clone(), entry(v, m.unit)));
            }
        } else {
            for m in &END_TO_END {
                match self.get(m.name) {
                    Some(v) if v.is_finite() && v != 0.0 => {
                        kv.push((m.name.to_string(), entry(v, m.unit)));
                    }
                    other => {
                        return Err(format!(
                            "end-to-end metric {} has no value ({other:?})",
                            m.name
                        ))
                    }
                }
            }
        }
        Ok(Json::Obj(kv))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn declared_names_units_and_counts_fit_the_contract() {
        let layers = per_layer();
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&layers.len()));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name.to_string()), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name.to_string()), "duplicate {}", m.name);
        }
        for m in &layers {
            assert!(name_ok(&m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let secs = doc.get("run_seconds").and_then(Json::as_f64).expect("run_seconds");
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
        assert_eq!(
            doc,
            benchmark_json(secs as u64),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- --schema"
        );
        // Every run (its last round may overshoot by a few seconds) and the
        // two builds must fit the contract's cap.
        let runs = 4 + 22 * WORKLOADS.len();
        assert!(runs as f64 * (secs + 3.0) + 2.0 * 60.0 < 3420.0, "run_seconds too long");
    }

    #[test]
    fn render_prints_exactly_the_declared_names() {
        let mut m = Metrics::default();
        for e in &END_TO_END {
            m.set(e.name, 1.5);
        }
        m.set("cdvm.retired", 7.0);
        let e2e = m.render(false).unwrap();
        let names: Vec<&str> = e2e.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|e| e.name));
        let layer = m.render(true).unwrap();
        assert_eq!(layer.as_obj().len(), per_layer().len());
        assert_eq!(layer.get("cdvm.retired").unwrap().get("value").unwrap().as_f64(), Some(7.0));
        assert_eq!(layer.get("cdvm.slices").unwrap().get("value").unwrap().as_f64(), Some(0.0));

        m.set("cdvm.no_such_counter", 1.0);
        assert!(m.render(true).unwrap_err().contains("not declared"));
    }

    #[test]
    fn render_refuses_a_missing_or_zero_end_to_end_value() {
        let mut m = Metrics::default();
        for e in &END_TO_END[1..] {
            m.set(e.name, 2.0);
        }
        assert!(m.render(false).unwrap_err().contains("setup_s"));
        m.set("setup_s", 0.0);
        assert!(m.render(false).is_err());
    }
}
