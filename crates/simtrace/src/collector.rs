//! The thread-local event collector.
//!
//! The simulator is single-threaded, so the collector lives in a
//! thread-local and every hook is a free function. Hooks are
//! *zero-virtual-cost*: they never charge simulated cycles — they only
//! record host-side metadata keyed on the virtual timestamps the caller
//! already holds — so cycle counts are bit-identical with tracing on or
//! off. All hooks are no-ops until [`enable`] is called.
//!
//! Timestamps are per-CPU cycle counters. One process may run many
//! sequential simulated systems (each `figN` binary does); each
//! `simkernel::Kernel` construction calls [`new_epoch`], which rebases
//! subsequent timestamps past the maximum seen so far, so every track in
//! the merged trace stays monotonic.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use crate::TimeCat;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static COLLECTOR: RefCell<Collector> = RefCell::new(Collector::default());
}

/// Where an event lives in the trace: one Chrome "thread" per track.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Track {
    /// Host-side harness phases (benchmark sections, net runs).
    Harness,
    /// A simulated CPU.
    Cpu(usize),
    /// A request-lifecycle lane (one per OLTP slot / benchmark stream).
    Request(usize),
}

impl Track {
    pub(crate) fn tid(self) -> u64 {
        match self {
            Track::Harness => 0,
            Track::Cpu(i) => 1 + i as u64,
            Track::Request(s) => 1000 + s as u64,
        }
    }

    pub(crate) fn label(self) -> String {
        match self {
            Track::Harness => "harness".to_string(),
            Track::Cpu(i) => format!("cpu{i}"),
            Track::Request(s) => format!("requests{s}"),
        }
    }
}

/// One recorded trace event (timestamps already epoch-rebased).
#[derive(Clone, Debug)]
pub(crate) enum Ev {
    Begin {
        track: Track,
        ts: u64,
        name: String,
        cat: &'static str,
    },
    End {
        track: Track,
        ts: u64,
    },
    /// A Chrome `X` (complete) event: one attributed time slice.
    Slice {
        track: Track,
        ts: u64,
        dur: u64,
        name: &'static str,
        cat: &'static str,
    },
    Instant {
        track: Track,
        ts: u64,
        name: String,
        cat: &'static str,
    },
}

impl Ev {
    pub(crate) fn track(&self) -> Track {
        match self {
            Ev::Begin { track, .. }
            | Ev::End { track, .. }
            | Ev::Slice { track, .. }
            | Ev::Instant { track, .. } => *track,
        }
    }

    pub(crate) fn ts(&self) -> u64 {
        match self {
            Ev::Begin { ts, .. }
            | Ev::End { ts, .. }
            | Ev::Slice { ts, .. }
            | Ev::Instant { ts, .. } => *ts,
        }
    }
}

/// Code ranges of one instantiated dIPC proxy, for enter/return detection.
#[derive(Clone, Debug)]
struct ProxyRange {
    entry_lo: u64,
    entry_hi: u64,
    ret_lo: u64,
    ret_hi: u64,
    name: String,
}

/// An in-flight proxy invocation on one CPU.
#[derive(Clone, Copy, Debug)]
struct ProxyFrame {
    range: usize,
    begin_ts: u64,
    in_ret: bool,
}

#[derive(Default)]
pub(crate) struct Collector {
    path: Option<String>,
    pub(crate) events: Vec<Ev>,
    pub(crate) counters: BTreeMap<&'static str, u64>,
    pub(crate) hists: BTreeMap<&'static str, Vec<u64>>,
    /// Epoch base added to every raw timestamp.
    offset: u64,
    /// Maximum rebased timestamp seen so far (next epoch's base).
    max_ts: u64,
    /// Open `Begin` spans per track, for auto-close at epoch/flush.
    open: BTreeMap<u64, Vec<(Track, u64)>>,
    proxy_ranges: Vec<ProxyRange>,
    proxy_stacks: BTreeMap<usize, Vec<ProxyFrame>>,
}

impl Collector {
    fn record(&mut self, ev: Ev) {
        self.max_ts = self.max_ts.max(ev.ts());
        match &ev {
            Ev::Begin { track, ts, .. } => {
                self.open.entry(track.tid()).or_default().push((*track, *ts));
            }
            Ev::End { track, .. }
                // Drop unmatched ends so B/E stay balanced.
                if self.open.entry(track.tid()).or_default().pop().is_none() => {
                    return;
                }
            _ => {}
        }
        self.events.push(ev);
    }

    /// Closes every open span at the last timestamp seen, keeping the
    /// exported B/E events balanced even when a simulated thread was
    /// killed or unwound mid-span.
    fn close_open_spans(&mut self) {
        let open = std::mem::take(&mut self.open);
        let ts = self.max_ts;
        for (_, frames) in open {
            for (track, _) in frames.iter().rev() {
                self.events.push(Ev::End { track: *track, ts });
            }
        }
        self.proxy_stacks.clear();
    }
}

/// Fast path checked by every hook; `false` until [`enable`] is called.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Turns tracing on; exporters will write to `path` (and siblings) on
/// [`flush`].
pub fn enable(path: &str) {
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        *c = Collector::default();
        c.path = Some(path.to_string());
    });
    ENABLED.with(|e| e.set(true));
}

/// Turns tracing off and drops any collected state (used by tests).
pub fn disable() {
    ENABLED.with(|e| e.set(false));
    COLLECTOR.with(|c| *c.borrow_mut() = Collector::default());
}

/// Starts a new timestamp epoch: all spans still open are closed and the
/// timestamp base moves past everything seen so far. Called by
/// `simkernel::Kernel::new` so that sequential simulated systems in one
/// process form one monotonic timeline.
pub fn new_epoch() {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        c.close_open_spans();
        c.offset = c.max_ts;
        c.proxy_ranges.clear();
    });
}

/// Opens a nested span on `track` at virtual time `ts`.
pub fn begin_span(track: Track, ts: u64, name: impl Into<String>, cat: &'static str) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let ts = ts + c.offset;
        c.record(Ev::Begin { track, ts, name: name.into(), cat });
    });
}

/// Closes the innermost open span on `track`.
pub fn end_span(track: Track, ts: u64) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let ts = ts + c.offset;
        c.record(Ev::End { track, ts });
    });
}

/// Records a zero-duration marker.
pub fn instant(track: Track, ts: u64, name: impl Into<String>, cat: &'static str) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let ts = ts + c.offset;
        c.record(Ev::Instant { track, ts, name: name.into(), cat });
    });
}

/// Records one attributed time slice (`Kernel::charge` and friends):
/// `dur` cycles ending at `ts_end`, labeled with the Figure 2 category.
pub fn slice(cpu: usize, ts_end: u64, dur: u64, cat: TimeCat) {
    if !enabled() || dur == 0 {
        return;
    }
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let ts = ts_end.saturating_sub(dur) + c.offset;
        c.record(Ev::Slice {
            track: Track::Cpu(cpu),
            ts,
            dur,
            name: cat.label(),
            cat: cat.trace_cat(),
        });
    });
}

/// Adds `delta` to a named monotonic counter.
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        *c.borrow_mut().counters.entry(name).or_insert(0) += delta;
    });
}

/// Records one sample into a named histogram.
pub fn hist(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        c.borrow_mut().hists.entry(name).or_default().push(value);
    });
}

/// Registers an instantiated dIPC proxy's code ranges so CPU-side domain
/// crossings can be folded into proxy enter→return spans. `entry`/`ret`
/// are half-open `[lo, hi)` address ranges.
pub fn register_proxy(name: impl Into<String>, entry: (u64, u64), ret: (u64, u64)) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        c.borrow_mut().proxy_ranges.push(ProxyRange {
            entry_lo: entry.0,
            entry_hi: entry.1,
            ret_lo: ret.0,
            ret_hi: ret.1,
            name: name.into(),
        });
    });
}

/// Hook for every CODOMs domain crossing: bumps the crossing counter and
/// drives the per-CPU proxy state machine (crossing into a proxy's entry
/// range opens a span; crossing out of its return block closes it and
/// records the proxy latency).
pub fn domain_crossing(cpu: usize, pc: u64, ts: u64) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        *c.counters.entry("domain_crossings").or_insert(0) += 1;
        let ts = ts + c.offset;
        // The return block lives inside the proxy allocation, so check
        // "crossing back into the innermost proxy's return block" before
        // treating the pc as a fresh proxy entry.
        let top = c.proxy_stacks.entry(cpu).or_default().last().copied();
        if let Some(top) = top {
            let r = &c.proxy_ranges[top.range];
            if pc >= r.ret_lo && pc < r.ret_hi {
                c.proxy_stacks.get_mut(&cpu).unwrap().last_mut().unwrap().in_ret = true;
                return;
            }
        }
        let entry = c.proxy_ranges.iter().position(|r| pc >= r.entry_lo && pc < r.entry_hi);
        if let Some(i) = entry {
            let name = format!("proxy:{}", c.proxy_ranges[i].name);
            c.record(Ev::Begin { track: Track::Cpu(cpu), ts, name, cat: "proxy" });
            c.proxy_stacks.entry(cpu).or_default().push(ProxyFrame {
                range: i,
                begin_ts: ts,
                in_ret: false,
            });
            return;
        }
        if let Some(top) = top {
            if top.in_ret {
                c.proxy_stacks.get_mut(&cpu).unwrap().pop();
                c.record(Ev::End { track: Track::Cpu(cpu), ts });
                let latency = ts.saturating_sub(top.begin_ts);
                c.hists.entry("proxy_latency_cycles").or_default().push(latency);
            }
        }
    });
}

/// Snapshot of a counter (for tests and in-process inspection).
pub fn counter_value(name: &str) -> u64 {
    COLLECTOR.with(|c| c.borrow().counters.get(name).copied().unwrap_or(0))
}

/// Number of events collected so far (for tests).
pub fn event_count() -> usize {
    COLLECTOR.with(|c| c.borrow().events.len())
}

/// Writes the three export files next to the path given to [`enable`]
/// (`<path>` Chrome JSON, `<path>.folded`, `<path>.summary.txt`), then
/// clears the collector and disables tracing. Returns the paths written;
/// no-op returning an empty list when tracing was never enabled.
pub fn flush() -> std::io::Result<Vec<String>> {
    if !enabled() {
        return Ok(Vec::new());
    }
    let (json, folded, summary, path) = COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        c.close_open_spans();
        // Slices are backdated (ts = end - dur), so events can land out of
        // order relative to markers emitted mid-slice; a stable sort keeps
        // every track monotonic while preserving B/E nesting at equal ts.
        c.events.sort_by_key(|e| e.ts());
        let path = c.path.clone().unwrap_or_else(|| "trace.json".to_string());
        (
            crate::export::chrome_json(&c),
            crate::export::folded_stacks(&c),
            crate::export::text_summary(&c),
            path,
        )
    });
    let folded_path = format!("{path}.folded");
    let summary_path = format!("{path}.summary.txt");
    std::fs::write(&path, json)?;
    std::fs::write(&folded_path, folded)?;
    std::fs::write(&summary_path, summary)?;
    disable();
    Ok(vec![path, folded_path, summary_path])
}

/// Renders the collected trace in-memory without touching the filesystem
/// (for exporter tests): returns `(chrome_json, folded, summary)`.
pub fn render() -> (String, String, String) {
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        c.close_open_spans();
        c.events.sort_by_key(|e| e.ts());
        (
            crate::export::chrome_json(&c),
            crate::export::folded_stacks(&c),
            crate::export::text_summary(&c),
        )
    })
}
