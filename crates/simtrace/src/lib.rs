//! `simtrace`: deterministic cross-layer tracing & metrics for the dIPC
//! simulator.
//!
//! Every layer of the stack (CPU model, kernel, dIPC runtime, network,
//! OLTP workload) reports structured events here, keyed on *virtual*
//! time. Tracing charges zero simulated cycles: runs are bit-identical
//! with tracing on or off, and two traced runs produce byte-identical
//! trace files. Enable by pointing `DIPC_TRACE=<path>` at any `bench`
//! binary, or programmatically via [`enable`]/[`flush`].
//!
//! The crate also owns the Figure 2 time-category enum ([`TimeCat`],
//! [`TimeBreakdown`]) so the kernel's accounting and the tracer share
//! one vocabulary; `simkernel::accounting` re-exports it.

#![warn(missing_docs)]

mod accounting;
pub mod check;
mod collector;
mod export;

pub use accounting::{TimeBreakdown, TimeCat};
pub use collector::{
    begin_span, counter, counter_value, disable, domain_crossing, enable, enabled, end_span,
    event_count, flush, hist, instant, new_epoch, register_proxy, render, slice, Track,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_are_noops() {
        disable();
        begin_span(Track::Cpu(0), 10, "x", "syscall");
        slice(0, 100, 50, TimeCat::User);
        counter("domain_crossings", 3);
        assert_eq!(event_count(), 0);
        assert_eq!(counter_value("domain_crossings"), 0);
    }

    #[test]
    fn spans_balance_and_render() {
        enable("/dev/null");
        begin_span(Track::Cpu(0), 10, "sys_read", "syscall");
        slice(0, 40, 30, TimeCat::Kernel);
        end_span(Track::Cpu(0), 40);
        instant(Track::Cpu(1), 12, "ipi", "ipi");
        let (json, folded, summary) = render();
        disable();
        let stats = check::validate_chrome_json(&json).expect("well-formed");
        assert_eq!(stats.unbalanced_begins, 0);
        assert!(stats.tids.len() >= 2);
        assert!(stats.cats.contains("syscall") && stats.cats.contains("ipi"));
        // The slice lands under the open syscall span in the flamegraph.
        assert!(folded.contains("cpu0;sys_read;(4)_Kernel_/_privileged_code 30"), "{folded}");
        assert!(summary.contains("(4) Kernel / privileged code"));
    }

    #[test]
    fn dangling_spans_auto_close() {
        enable("/dev/null");
        begin_span(Track::Cpu(0), 5, "outer", "syscall");
        begin_span(Track::Cpu(0), 7, "inner", "syscall");
        slice(0, 20, 5, TimeCat::User);
        let (json, _, _) = render();
        disable();
        let stats = check::validate_chrome_json(&json).expect("well-formed");
        assert_eq!(stats.unbalanced_begins, 0);
    }

    #[test]
    fn epochs_keep_tracks_monotonic() {
        enable("/dev/null");
        slice(0, 1000, 100, TimeCat::User);
        new_epoch(); // a second simulated system restarts its clocks at 0
        slice(0, 50, 50, TimeCat::Kernel);
        let (json, _, _) = render();
        disable();
        check::validate_chrome_json(&json).expect("monotonic after epoch rebase");
    }

    #[test]
    fn proxy_state_machine_builds_spans() {
        enable("/dev/null");
        register_proxy("srv.f", (0x1000, 0x10c0), (0x10c0, 0x1100));
        domain_crossing(0, 0x1000, 10); // caller -> proxy entry
        domain_crossing(0, 0x5000, 20); // proxy -> callee
        domain_crossing(0, 0x10c0, 90); // callee -> proxy return block
        domain_crossing(0, 0x200, 100); // return block -> caller
        assert_eq!(counter_value("domain_crossings"), 4);
        let (json, _, summary) = render();
        disable();
        let stats = check::validate_chrome_json(&json).expect("well-formed");
        assert_eq!(stats.unbalanced_begins, 0);
        assert!(stats.cats.contains("proxy"));
        assert!(summary.contains("proxy_latency_cycles: n=1"), "{summary}");
        assert!(summary.contains("p50=90"), "{summary}");
    }

    #[test]
    fn identical_input_renders_identical_bytes() {
        let run = || {
            enable("/dev/null");
            for i in 0..50u64 {
                begin_span(Track::Cpu((i % 2) as usize), i * 10, format!("s{i}"), "syscall");
                slice((i % 2) as usize, i * 10 + 8, 8, TimeCat::ALL[(i % 7) as usize]);
                end_span(Track::Cpu((i % 2) as usize), i * 10 + 9);
                hist("request_latency_cycles", 100 + i);
            }
            let r = render();
            disable();
            r
        };
        assert_eq!(run(), run());
    }
}
