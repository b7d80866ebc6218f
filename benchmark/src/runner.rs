//! The runner: every workload, each repetition in a fresh child process,
//! one child at a time, repetitions interleaved round-robin across the
//! workloads after one discarded warm-up round. Reports the median over
//! repetitions of every end-to-end metric, checks the outputs, and writes
//! `benchmark/out/results.json`.
//!
//! A fresh process per repetition keeps `peak_rss_mib` and the host's caches
//! clean; interleaving spreads slow phases of the machine over all workloads
//! instead of letting them land on one.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::child::out_dir;
use crate::json::{self, Json};
use crate::schema::{per_layer, END_TO_END, WORKLOADS};
use crate::stats::{summarize, Summary};
use crate::HOLD_OUT_SEED;

/// `run_seconds` of `BENCHMARK.json`: how long one child runs its rounds.
pub const RUN_SECONDS: u64 = 24;
const DEFAULT_REPS: usize = 7;

pub struct Args {
    pub seed: u64,
    pub reps: Option<usize>,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub check: bool,
    pub smoke: bool,
}

/// Figures a child reports beside the contract's metrics: they exist on some
/// workloads only, so the contract (every end-to-end metric on every
/// workload) has no place for them. `simulated` ones must repeat exactly.
struct Extra {
    name: &'static str,
    key: &'static str,
    unit: &'static str,
    bound: f64,
    simulated: bool,
}

const EXTRAS: [Extra; 4] = [
    Extra { name: "host_mips", key: "host_mips", unit: "MIPS", bound: 0.25, simulated: false },
    Extra {
        name: "sim_lat_p99_us",
        key: "oltp.sim_lat_p99_us",
        unit: "us",
        bound: 0.01,
        simulated: true,
    },
    Extra {
        name: "sim_lat_p999_us",
        key: "oltp.sim_lat_p999_us",
        unit: "us",
        bound: 0.02,
        simulated: true,
    },
    Extra {
        name: "paper_err_frac",
        key: "baselines.paper_err_frac",
        unit: "ratio",
        bound: 0.01,
        simulated: true,
    },
];

/// One child's parsed output.
struct ChildOut {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
    extra: Json,
}

struct Runner {
    exe: std::path::PathBuf,
    seconds: f64,
    smoke: bool,
    /// Things that make the run fail, in the order they were found.
    failures: Vec<String>,
}

impl Runner {
    fn child(&mut self, workload: &str, seed: u64, trace: bool) -> Option<ChildOut> {
        let mut cmd = Command::new(&self.exe);
        cmd.args(["--workload", workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &self.seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if self.smoke {
            cmd.arg("--smoke");
        }
        let out = match cmd.output() {
            Ok(out) => out,
            Err(e) => {
                self.failures.push(format!("{workload}: cannot start a child: {e}"));
                return None;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let parsed = parse_child(&text);
        if !out.status.success() {
            self.failures.push(format!("{workload}: child exited with {}", out.status));
        }
        match parsed {
            Ok(c) => {
                if !c.correct {
                    self.failures.push(format!("{workload}: the child reports incorrect output"));
                }
                Some(c)
            }
            Err(e) => {
                self.failures.push(format!("{workload}: unreadable child output: {e}"));
                None
            }
        }
    }
}

fn parse_child(stdout: &str) -> Result<ChildOut, String> {
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).ok_or("no output")?;
    let doc = json::parse(last)?;
    let mut metrics = BTreeMap::new();
    for (name, m) in doc.get("metrics").ok_or("no metrics")?.as_obj() {
        let v = m.get("value").and_then(Json::as_f64).ok_or(format!("{name} has no value"))?;
        metrics.insert(name.clone(), v);
    }
    let extra = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("extra "))
        .map(json::parse)
        .transpose()?
        .unwrap_or(Json::Null);
    Ok(ChildOut {
        correct: doc.get("correct").and_then(Json::as_bool).ok_or("no correct")?,
        attempted: doc.get("attempted").and_then(Json::as_f64).ok_or("no attempted")?,
        failed: doc.get("failed").and_then(Json::as_f64).ok_or("no failed")?,
        metrics,
        extra,
    })
}

/// The repetitions of one workload in one set.
#[derive(Default)]
struct Reps {
    /// Metric or extra name → one value per repetition.
    values: BTreeMap<String, Vec<f64>>,
    attempted: f64,
    failed: f64,
    sim_s: f64,
}

impl Reps {
    fn summary(&self, name: &str) -> Option<Summary> {
        self.values.get(name).and_then(|v| summarize(v))
    }
}

/// One full set: workload → repetitions.
type Set = BTreeMap<&'static str, Reps>;

fn run_set(r: &mut Runner, seed: u64, reps: usize, label: &str) -> Set {
    if !r.smoke {
        eprintln!("[{label}] warm-up round (discarded)");
        for w in &WORKLOADS {
            r.child(w.name, seed, false);
        }
    }
    let mut set = Set::new();
    for rep in 1..=reps {
        for w in &WORKLOADS {
            eprintln!("[{label}] rep {rep}/{reps} {}", w.name);
            let Some(c) = r.child(w.name, seed, false) else { continue };
            let e = set.entry(w.name).or_default();
            for (name, v) in &c.metrics {
                e.values.entry(name.clone()).or_default().push(*v);
            }
            for x in &EXTRAS {
                if let Some(v) = c.extra.get(x.key).and_then(Json::as_f64) {
                    e.values.entry(x.name.to_string()).or_default().push(v);
                }
            }
            e.attempted += c.attempted;
            e.failed += c.failed;
            e.sim_s = c.extra.get("sim_s").and_then(Json::as_f64).unwrap_or(0.0);
        }
    }
    // Simulated figures must be bit-identical across repetitions.
    for (w, reps) in &set {
        let simulated = END_TO_END
            .iter()
            .filter(|m| m.simulated)
            .map(|m| m.name)
            .chain(EXTRAS.iter().filter(|x| x.simulated).map(|x| x.name));
        for name in simulated {
            if let Some(v) = reps.values.get(name) {
                if v.iter().any(|x| x.to_bits() != v[0].to_bits()) {
                    r.failures
                        .push(format!("{w}: simulated {name} differs between repetitions: {v:?}"));
                }
            }
        }
    }
    // Both OLTP stacks must have covered the same simulated window (up to
    // the last CPU slice, which may overshoot the deadline).
    if let (Some(a), Some(b)) = (set.get("oltp-linux"), set.get("oltp-dipc")) {
        if (a.sim_s - b.sim_s).abs() > 1e-3 * a.sim_s {
            r.failures
                .push(format!("oltp-linux simulated {} s but oltp-dipc {} s", a.sim_s, b.sim_s));
        }
    }
    set
}

fn fmt(v: f64) -> String {
    if v == 0.0 || (0.001..1e6).contains(&v.abs()) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

fn print_set(set: &Set) {
    for w in &WORKLOADS {
        let Some(reps) = set.get(w.name) else { continue };
        println!("\n{}", w.name);
        println!(
            "  {:<18} {:>12} {:>12} {:>12} {:>12} {:>3}  unit",
            "metric", "median", "q1", "q3", "min", "n"
        );
        let row = |name: &str, unit: &str| match reps.summary(name) {
            Some(s) => println!(
                "  {:<18} {:>12} {:>12} {:>12} {:>12} {:>3}  {unit}",
                name,
                fmt(s.median),
                fmt(s.q1),
                fmt(s.q3),
                fmt(s.min),
                s.n
            ),
            None => println!("  {name:<18} {:>12}  (not applicable)", "null"),
        };
        for m in &END_TO_END {
            row(m.name, m.unit);
        }
        for x in &EXTRAS {
            row(x.name, x.unit);
        }
        println!(
            "  {:<18} {:>12}  ({} failed of {} attempted)",
            "fail_frac",
            fmt(reps.failed / reps.attempted.max(1.0)),
            reps.failed,
            reps.attempted
        );
    }
    let ops = |w: &str| set.get(w).and_then(|r| r.summary("sim_ops_per_s")).map(|s| s.median);
    if let (Some(d), Some(l)) = (ops("oltp-dipc"), ops("oltp-linux")) {
        println!(
            "\nderived: oltp-dipc / oltp-linux simulated throughput = {:.2}x at 256 clients \
             (paper: 2.13x average, up to 5.12x in memory)",
            d / l
        );
    }
}

fn set_json(set: &Set) -> Json {
    Json::Obj(
        set.iter()
            .map(|(w, reps)| {
                let metrics = reps.values.iter().map(|(name, vals)| {
                    let s = summarize(vals).expect("a recorded metric has values");
                    (
                        name.clone(),
                        Json::obj([
                            ("median", Json::num(s.median)),
                            ("q1", Json::num(s.q1)),
                            ("q3", Json::num(s.q3)),
                            ("min", Json::num(s.min)),
                            ("n", Json::Num(s.n as f64)),
                            ("values", Json::Arr(vals.iter().map(|v| Json::num(*v)).collect())),
                        ]),
                    )
                });
                let mut kv: Vec<(String, Json)> = metrics.collect();
                kv.push(("attempted".into(), Json::Num(reps.attempted)));
                kv.push(("failed".into(), Json::Num(reps.failed)));
                (w.to_string(), Json::Obj(kv))
            })
            .collect(),
    )
}

/// Two sets of the same build must agree: host metrics within their own
/// bound, simulated ones exactly. Prints the per-metric spread.
fn compare_sets(r: &mut Runner, a: &Set, b: &Set, label: &str) {
    println!("\n{label}: set B against set A (relative difference of medians; IQR/median of A, B)");
    let bounded = END_TO_END
        .iter()
        .map(|m| (m.name, m.bound, m.simulated))
        .chain(EXTRAS.iter().map(|x| (x.name, x.bound, x.simulated)));
    for (name, bound, simulated) in bounded {
        for w in &WORKLOADS {
            let (Some(sa), Some(sb)) = (
                a.get(w.name).and_then(|x| x.summary(name)),
                b.get(w.name).and_then(|x| x.summary(name)),
            ) else {
                continue;
            };
            let diff = (sb.median - sa.median).abs() / sa.median.abs();
            let spread = |s: &Summary| (s.q3 - s.q1) / s.median.abs();
            // A smoke region lasts milliseconds: its host times are printed
            // but only its simulated figures are held to anything.
            let ok = if simulated {
                sa.median.to_bits() == sb.median.to_bits()
            } else {
                diff <= bound || r.smoke
            };
            println!(
                "  {:<14} {:<18} diff {:>8.4}  bound {:>5.2}  spread {:>7.4} {:>7.4}  {}",
                w.name,
                name,
                diff,
                bound,
                spread(&sa),
                spread(&sb),
                if ok { "ok" } else { "MISSED" }
            );
            if !ok {
                r.failures.push(format!(
                    "{label}: {} {name} differs between two sets of the same build: {} vs {}",
                    w.name, sa.median, sb.median
                ));
            }
        }
    }
}

fn traced(r: &mut Runner, seed: u64) -> Json {
    let layers = per_layer();
    let mut table: BTreeMap<String, Vec<Option<f64>>> = BTreeMap::new();
    for (i, w) in WORKLOADS.iter().enumerate() {
        eprintln!("[trace] {}", w.name);
        let Some(c) = r.child(w.name, seed, true) else { continue };
        for l in &layers {
            let col = table.entry(l.name.clone()).or_insert_with(|| vec![None; WORKLOADS.len()]);
            col[i] = c.metrics.get(&l.name).copied();
        }
    }
    println!("\nper-layer metrics (traced repetition; 0 = the workload does not produce it)");
    print!("  {:<34}", "metric");
    for w in &WORKLOADS {
        print!(" {:>12}", w.name);
    }
    println!("  unit");
    for l in &layers {
        let Some(col) = table.get(&l.name) else { continue };
        print!("  {:<34}", l.name);
        for v in col {
            print!(" {:>12}", v.map_or("-".to_string(), fmt));
        }
        println!("  {}", l.unit);
    }
    println!(
        "traces: {}/trace-<workload>.json (Chrome trace), spans-<workload>.json",
        out_dir().display()
    );
    Json::Obj(
        layers
            .iter()
            .filter_map(|l| {
                let col = table.get(&l.name)?;
                let per = WORKLOADS
                    .iter()
                    .zip(col)
                    .map(|(w, v)| (w.name, v.map_or(Json::Null, Json::num)));
                Some((l.name.clone(), Json::obj(per)))
            })
            .collect(),
    )
}

pub fn run(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this program's own path: {e}");
            return 1;
        }
    };
    let reps = args.reps.unwrap_or(if args.smoke { 1 } else { DEFAULT_REPS });
    if reps == 0 || (args.check && !args.smoke && reps < 3) {
        eprintln!("--reps must be at least 1 (at least 3 with --check)");
        return 2;
    }
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.0 } else { RUN_SECONDS as f64 });
    let mut r = Runner { exe, seconds, smoke: args.smoke, failures: Vec::new() };
    println!(
        "dIPC simulator benchmark: seed {:#x}, {reps} repetitions, {seconds} s measured per child, \
         {} host CPUs{}",
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if args.smoke { ", smoke sizes" } else { "" }
    );
    println!(
        "workload seeds: prod draws its arrivals from the seed; the other four are deterministic"
    );
    println!("programs whose measured region the seed only shifts or stretches by under 1 %.");

    let mut doc = vec![
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("reps".to_string(), Json::Num(reps as f64)),
        ("seconds".to_string(), Json::Num(seconds)),
        ("smoke".to_string(), Json::Bool(args.smoke)),
    ];
    let a = run_set(&mut r, args.seed, reps, "set A");
    print_set(&a);
    doc.push(("end_to_end".to_string(), set_json(&a)));
    if args.check {
        let b = run_set(&mut r, args.seed, reps, "set B");
        compare_sets(&mut r, &a, &b, "default seed");
        doc.push(("end_to_end_set_b".to_string(), set_json(&b)));
        let ha = run_set(&mut r, HOLD_OUT_SEED, reps, "hold-out A");
        let hb = run_set(&mut r, HOLD_OUT_SEED, reps, "hold-out B");
        compare_sets(&mut r, &ha, &hb, "hold-out seed");
        doc.push(("hold_out".to_string(), set_json(&ha)));
        doc.push(("hold_out_set_b".to_string(), set_json(&hb)));
    }
    if args.trace {
        doc.push(("per_layer".to_string(), traced(&mut r, args.seed)));
    }

    let dir = out_dir();
    let path = dir.join("results.json");
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, Json::Obj(doc).pretty()))
    {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => r.failures.push(format!("cannot write {}: {e}", path.display())),
    }
    if r.failures.is_empty() {
        println!("all output checks passed");
        0
    } else {
        for f in &r.failures {
            println!("FAILED: {f}");
        }
        1
    }
}
