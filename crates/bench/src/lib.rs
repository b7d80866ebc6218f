//! Benchmark harness support: shared formatting and scaling knobs for the
//! 17 binaries in `src/bin`:
//! - one per paper figure or table: `fig1`, `fig2`, `tab1`, `fig5`, `fig6`,
//!   `fig7`, `fig8`, `ablation_policies` (§7.2), `sensitivity` (§7.5) and
//!   `headlines` (the abstract's ratios);
//! - `ablation_sim`: do those conclusions survive slower dIPC hardware;
//! - JSON benchmarks writing `results/BENCH_*.json`: `asyncbench`,
//!   `chaos`, `pluginbench`, `prodbench`, `smpscale` and `simspeed` (host
//!   simulation speed).
//!
//! Every binary prints the Table 3 machine banner, the paper's expected
//! values where applicable, and the regenerated rows/series. Absolute
//! numbers come from the calibrated simulator; EXPERIMENTS.md records the
//! paper-vs-measured comparison.
//!
//! This module is the only reader of the environment besides the engine
//! switch in `cdvm::fastpath`: [`banner`] reads `DIPC_TRACE` and
//! `DIPC_FAULTS`, and every other knob goes through [`knob`] or [`flag`].
//! The libraries underneath take explicit parameters only.

use cdvm::MachineConfig;
use simkernel::{TimeBreakdown, TimeCat};

/// Prints the standard harness header, arms the tracer when the
/// `DIPC_TRACE=<path>` env var is set, and arms fault injection when
/// `DIPC_FAULTS=<spec>` is set (every figure/table binary calls this, so
/// all of them gain tracing and chaos for free). An unparsable spec warns
/// and arms nothing. Pair with [`finish`].
pub fn banner(title: &str) {
    if let Ok(path) = std::env::var("DIPC_TRACE") {
        if !path.is_empty() {
            simtrace::enable(&path);
        }
    }
    match std::env::var("DIPC_FAULTS") {
        Ok(spec) if !spec.is_empty() => match simfault::FaultPlan::parse(&spec) {
            Ok(plan) => {
                simfault::arm(plan);
                eprintln!("fault injection armed from DIPC_FAULTS");
            }
            Err(e) => eprintln!("warning: ignoring DIPC_FAULTS: {e}"),
        },
        _ => {}
    }
    let m = MachineConfig::default();
    println!("================================================================");
    println!("{title}");
    println!("{}", m.banner());
    println!("================================================================");
}

/// Flushes the trace armed by [`banner`] (no-op when `DIPC_TRACE` is
/// unset). Prints the files written so the run is self-describing.
pub fn finish() {
    match simtrace::flush() {
        Ok(paths) => {
            for p in paths {
                eprintln!("trace written: {p}");
            }
        }
        Err(e) => eprintln!("warning: failed to write trace: {e}"),
    }
}

/// A positive-integer knob from the environment: `default` when `name` is
/// unset. Anything else that is not a positive integer — garbage, `5k`,
/// `2e2`, `0` (which would zero out every iteration count downstream) —
/// warns and falls back to `default`, so a mistyped CI shrink is visible
/// instead of silently running the full-size default.
pub fn knob(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(s) => match s.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("warning: ignoring unparsable {name}={s:?}; using {default}");
                default
            }
        },
        Err(_) => default,
    }
}

/// An on/off knob from the environment, with `CDVM_NO_FASTPATH`'s rule:
/// on only for `1` or `true` (any case); unset, `0` or anything else is
/// off.
pub fn flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// Measurement scale factor from the `BENCH_SCALE` [`knob`] (1 = quick
/// default; larger = longer, steadier runs).
pub fn scale() -> u64 {
    knob("BENCH_SCALE", 1)
}

/// Formats a Figure 2-style breakdown as percentages.
pub fn breakdown_row(b: &TimeBreakdown) -> String {
    TimeCat::ALL
        .iter()
        .map(|c| format!("{:>5.1}%", b.fraction(*c) * 100.0))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The breakdown header matching [`breakdown_row`].
pub fn breakdown_header() -> String {
    "  user  sysc  disp  kern sched    pt  idle".to_string()
}

/// Pretty ns with the ×-function-call ratio the paper uses.
pub fn ns_row(name: &str, ns: f64, func_ns: f64) -> String {
    format!("{name:<26} {ns:>10.2} ns   {:>8.1}x", ns / func_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_row_has_seven_columns() {
        let b = TimeBreakdown::new();
        assert_eq!(breakdown_row(&b).split_whitespace().count(), 7);
    }

    /// All `BENCH_SCALE` parses in one test (the env var is process-global,
    /// so splitting these across test threads would race).
    #[test]
    fn scale_parses_warns_and_never_returns_zero() {
        let saved = std::env::var("BENCH_SCALE").ok();
        std::env::remove_var("BENCH_SCALE");
        assert_eq!(scale(), 1, "default");
        std::env::set_var("BENCH_SCALE", "7");
        assert_eq!(scale(), 7, "valid value");
        // The warning path: garbage, negative and zero all degrade to 1
        // instead of propagating a run-poisoning factor.
        for bad in ["banana", "-3", "1.5", "0", ""] {
            std::env::set_var("BENCH_SCALE", bad);
            assert_eq!(scale(), 1, "BENCH_SCALE={bad:?} must fall back to 1");
        }
        match saved {
            Some(v) => std::env::set_var("BENCH_SCALE", v),
            None => std::env::remove_var("BENCH_SCALE"),
        }
    }

    /// The parsing bugs the one reader fixed, one case each (no other test
    /// touches these variables): a mistyped CI shrink used to run the
    /// full-size default silently, and `SIMSPEED_ASSERT=0` used to turn the
    /// assertions on.
    #[test]
    fn knobs_warn_on_typos_and_flags_need_one_or_true() {
        for (name, typo, default) in [
            ("PROD_SESSIONS", "5k", 100_000),
            ("PROD_WINDOW_MS", "2O", 300),
            ("PLUGIN_OPS", "2e2", 2_000),
        ] {
            std::env::set_var(name, typo);
            assert_eq!(knob(name, default), default, "{name}={typo:?} must warn and fall back");
            std::env::set_var(name, "20");
            assert_eq!(knob(name, default), 20, "{name}=20 is a valid shrink");
            std::env::remove_var(name);
            assert_eq!(knob(name, default), default, "{name} unset");
        }
        for (v, on) in [("0", false), ("", false), ("yes", false), ("1", true), ("TRUE", true)] {
            std::env::set_var("SIMSPEED_ASSERT", v);
            assert_eq!(flag("SIMSPEED_ASSERT"), on, "SIMSPEED_ASSERT={v:?}");
        }
        std::env::remove_var("SIMSPEED_ASSERT");
        assert!(!flag("SIMSPEED_ASSERT"), "SIMSPEED_ASSERT unset");
    }
}
