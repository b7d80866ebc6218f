//! End-to-end and per-layer benchmark of the dIPC simulator stack.
//!
//! Two ways in, one binary:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload once
//!   in this process and prints one JSON result line (the benchmark
//!   contract; see `BENCHMARK.json` at the repository root).
//! * without `--workload`, the runner: every workload, each repetition in a
//!   fresh child process of the form above, medians over repetitions,
//!   output checks, `benchmark/out/results.json`. `--trace` adds a traced
//!   repetition per workload, `--check` runs two sets and compares them,
//!   `--smoke` shrinks everything to a few seconds.
//!
//! Everything is measured from outside the simulator: by timing calls into
//! the crates' public functions and reading their public counters.

mod child;
mod isolates;
mod json;
mod runner;
mod schema;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "\
usage: dipc-benchmark [--seed N] [--reps N] [--seconds S] [--trace] [--check] [--smoke]
       dipc-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
       dipc-benchmark --schema";

/// Default workload seed; `--check` also runs the hold-out seed after it.
pub const DEFAULT_SEED: u64 = 0xD1FC_0800;
pub const HOLD_OUT_SEED: u64 = 0xD1FC_0801;

#[derive(Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    reps: Option<usize>,
    trace: bool,
    check: bool,
    smoke: bool,
    schema: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                let v = value("a number")?;
                cli.seed = Some(parse_u64(v).ok_or(format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds {v:?}"));
                }
                cli.seconds = Some(s);
            }
            "--reps" => {
                let v = value("a number")?;
                cli.reps = Some(v.parse().map_err(|_| format!("bad --reps {v:?}"))?);
            }
            // `--trace 0|1` for the contract, bare `--trace` for people.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    cli.trace = false;
                }
                Some("1") => {
                    it.next();
                    cli.trace = true;
                }
                _ => cli.trace = true,
            },
            "--check" => cli.check = true,
            "--smoke" => cli.smoke = true,
            "--schema" => cli.schema = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("{e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.schema {
        print!("{}", schema::benchmark_json(runner::RUN_SECONDS).pretty());
        return ExitCode::SUCCESS;
    }
    let code = match cli.workload {
        Some(workload) => child::run(&child::Args {
            workload,
            seed: cli.seed.unwrap_or(DEFAULT_SEED),
            seconds: cli.seconds.unwrap_or(runner::RUN_SECONDS as f64),
            trace: cli.trace,
            smoke: cli.smoke,
        }),
        None => runner::run(&runner::Args {
            seed: cli.seed.unwrap_or(DEFAULT_SEED),
            reps: cli.reps,
            seconds: cli.seconds,
            trace: cli.trace,
            check: cli.check,
            smoke: cli.smoke,
        }),
    };
    ExitCode::from(code as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn contract_and_human_forms_of_trace_both_parse() {
        let c =
            cli(&["--workload", "prod", "--seed", "7", "--seconds", "10", "--trace", "0"]).unwrap();
        assert_eq!(
            (c.workload.as_deref(), c.seed, c.seconds, c.trace),
            (Some("prod"), Some(7), Some(10.0), false)
        );
        assert!(cli(&["--trace", "1", "--smoke"]).unwrap().trace);
        let c = cli(&["--trace", "--check"]).unwrap();
        assert!(c.trace && c.check);
        assert_eq!(cli(&["--seed", "0xD1FC0801"]).unwrap().seed, Some(HOLD_OUT_SEED));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seed", "banana"]).is_err());
        assert!(cli(&["--seconds", "-1"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }
}
