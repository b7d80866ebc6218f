//! One run of one workload in this process: the unit the benchmark contract
//! drives (`--workload W --seed N --seconds S --trace 0|1`) and the unit the
//! runner spawns once per repetition.
//!
//! A run repeats *rounds* — set up from nothing, then the measured region —
//! for `--seconds` of host time and reports the **fastest** set-up and, for
//! the region, the sum over its parts of each part's fastest time. Every
//! round of a seed must produce the same simulated outcome, or the run is
//! incorrect.
//!
//! Why the fastest and not the median: on the shared 2-CPU box this was
//! written on, a round runs either at full speed or, for seconds to minutes
//! at a time, 1.5–1.8× slower (a neighbour of the guest), and nothing ever
//! makes it faster. Over ten 24 s runs the median round time spread by up to
//! 51 % of its median, the fastest round by up to 38 % and the part-wise
//! fastest by up to 21 % (README, "Noise").

use std::time::Instant;

use crate::isolates;
use crate::json::Json;
use crate::schema::{per_layer, Metrics, WORKLOADS};
use crate::spans::Tracer;
use crate::stats::{iqr_frac, median};
use crate::workloads::{begin, end, run_round, Cfg, Round, Sim};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// A run never lasts longer than this, whatever `--seconds` says, so that it
/// ends well inside the contract's 180 s.
const MAX_RUN_S: f64 = 120.0;

pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Rounds for `budget_s` of host time, at least `min` of them.
fn rounds(
    workload: &str,
    cfg: &Cfg,
    budget_s: f64,
    min: usize,
    mut tr: Option<&mut Tracer>,
) -> Vec<Round> {
    let started = Instant::now();
    let mut out: Vec<Round> = Vec::new();
    while out.len() < min || started.elapsed().as_secs_f64() < budget_s {
        begin(&mut tr, "round", "harness");
        out.push(run_round(workload, cfg, tr.as_deref_mut()));
        end(&mut tr);
    }
    out
}

/// Whether two rounds agree on everything simulated they both report. A
/// traced round reports step counts an untraced one cannot see; those are
/// compared among the traced rounds only.
fn same_outcome(a: &Sim, b: &Sim) -> bool {
    let core = |s: &Sim| {
        (
            s.attempted,
            s.failed,
            s.sim_s.to_bits(),
            s.ops_per_s.to_bits(),
            s.lat_us.to_bits(),
            s.retired,
        )
    };
    core(a) == core(b)
        && a.counters.iter().all(|(name, v)| {
            b.counters
                .iter()
                .find(|(n, _)| n == name)
                .is_none_or(|(_, w)| v.to_bits() == w.to_bits())
        })
}

fn fastest(v: impl Iterator<Item = f64>) -> f64 {
    v.fold(f64::INFINITY, f64::min)
}

/// The region's host time with the machine's slow moments taken out: part
/// `k` of the region does identical work in every round, so its fastest
/// time over the rounds is what it costs undisturbed, and the region costs
/// the sum of those. Needs only each *part* to have run undisturbed once,
/// not a whole round.
fn undisturbed_wall_s(rounds: &[Round]) -> f64 {
    let parts = rounds[0].parts_s.len();
    assert!(rounds.iter().all(|r| r.parts_s.len() == parts), "rounds are split alike");
    (0..parts).map(|k| fastest(rounds.iter().map(|r| r.parts_s[k]))).sum()
}

/// Each host-side figure over the rounds that report it: the fastest for a
/// time, the median for a hit rate or a count.
fn host_figures(rounds: &[Round], m: &mut Metrics) {
    let layers = per_layer();
    let mut names: Vec<&String> =
        rounds.iter().flat_map(|r| r.host.iter().map(|(n, _)| n)).collect();
    names.sort();
    names.dedup();
    for name in names {
        let vals: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.host.iter().filter(|(n, _)| n == name).map(|(_, v)| *v))
            .collect();
        let timed = layers.iter().any(|l| l.name == *name && matches!(l.unit, "s" | "us" | "ns"));
        let v = if timed { fastest(vals.iter().copied()) } else { median(&vals).expect("values") };
        m.set(name.clone(), v);
    }
}

fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs the workload and prints the result line. Returns the exit code.
pub fn run(args: &Args) -> i32 {
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {:?}; known: {}", args.workload, known.join(", "));
        return 2;
    };
    let cfg = Cfg { seed: args.seed, smoke: args.smoke };
    let budget = args.seconds.clamp(0.0, MAX_RUN_S);
    let min_rounds = if args.smoke { 1 } else { 3 };
    let mut problems: Vec<String> = Vec::new();
    let mut m = Metrics::default();

    // End-to-end numbers always come from untraced rounds; a traced run
    // spends half its time on them to have a base for the overhead ratio.
    // Peak memory is read after a fixed number of rounds: what the harness
    // keeps of every round would otherwise grow it with the round count.
    let started = Instant::now();
    let mut plain = rounds(w.name, &cfg, 0.0, min_rounds, None);
    let peak_rss = peak_rss_mib();
    let plain_budget = if args.trace { budget / 2.0 } else { budget };
    plain.extend(rounds(w.name, &cfg, plain_budget - started.elapsed().as_secs_f64(), 0, None));
    let first = &plain[0].sim;
    for (i, r) in plain.iter().enumerate().skip(1) {
        if !same_outcome(first, &r.sim) {
            problems.push(format!("round {i} simulated a different outcome than round 0"));
        }
    }
    problems.extend(first.problems.iter().cloned());
    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let wall_s = undisturbed_wall_s(&plain);
    m.set("setup_s", fastest(plain.iter().map(|r| r.setup_s)));
    m.set("host_wall_s", wall_s);
    m.set("host_s_per_sim_s", wall_s / first.sim_s);
    m.set("sim_ops_per_s", first.ops_per_s);
    m.set("sim_lat_us", first.lat_us);
    let host_mips = first.retired.map(|r| r as f64 / wall_s / 1e6);

    if args.trace {
        let mut tr = Tracer::new(w.name);
        let traced = rounds(w.name, &cfg, budget / 2.0, min_rounds.min(2), Some(&mut tr));
        for (i, r) in traced.iter().enumerate() {
            if !same_outcome(first, &r.sim) || !same_outcome(&traced[0].sim, &r.sim) {
                problems.push(format!("traced round {i} simulated a different outcome"));
            }
        }
        for (name, v) in first.counters.iter().chain(&traced[0].sim.counters) {
            m.set(name.clone(), *v);
        }
        host_figures(&traced, &mut m);
        host_figures(&plain, &mut m);
        if let Some(v) = host_mips {
            m.set("cdvm.host_mips", v);
        }
        m.set("harness.trace_overhead_ratio", undisturbed_wall_s(&traced) / wall_s);
        m.set("harness.wall_median_s", median(&walls).expect("at least one round"));
        m.set("harness.wall_iqr_frac", iqr_frac(&walls).unwrap_or(0.0));
        m.set("harness.fail_frac", first.failed as f64 / first.attempted.max(1) as f64);
        m.set("harness.rounds", plain.len() as f64);
        isolates::run(&mut m, &mut tr);

        let dir = out_dir();
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| {
                std::fs::write(dir.join(format!("trace-{}.json", w.name)), tr.chrome_trace().line())
            })
            .and_then(|()| {
                std::fs::write(dir.join(format!("spans-{}.json", w.name)), tr.table().pretty())
            });
        if let Err(e) = written {
            problems.push(format!("cannot write the trace under {}: {e}", dir.display()));
        }
    } else {
        match peak_rss {
            Some(v) => m.set("peak_rss_mib", v),
            None => problems.push("cannot read VmHWM from /proc/self/status".into()),
        }
    }

    // What the runner reads beyond the contract's result line: the figures
    // that exist on some workloads only, and the raw round times.
    let mut extra = vec![
        ("rounds", Json::Num(plain.len() as f64)),
        ("sim_s", Json::Num(first.sim_s)),
        ("walls_s", Json::Arr(walls.iter().map(|v| Json::num(*v)).collect())),
        ("host_mips", host_mips.map_or(Json::Null, Json::num)),
    ];
    for name in ["oltp.sim_lat_p99_us", "oltp.sim_lat_p999_us", "baselines.paper_err_frac"] {
        if let Some((_, v)) = first.counters.iter().find(|(n, _)| n == name) {
            extra.push((name, Json::Num(*v)));
        }
    }
    println!("extra {}", Json::obj(extra).line());

    for p in &problems {
        eprintln!("{}: {p}", w.name);
    }
    let metrics = match m.render(args.trace) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            return 1;
        }
    };
    let attempted: u64 = plain.iter().map(|r| r.sim.attempted).sum();
    let failed: u64 = plain.iter().map(|r| r.sim.failed).sum();
    let result = Json::obj([
        ("correct", Json::Bool(problems.is_empty())),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.line());
    i32::from(!problems.is_empty())
}
