//! Host-time spans recorded by the harness around its calls into the
//! simulator's layers.
//!
//! Spans live in memory and are written at exit. A *coarse* span (a build, a
//! warm-up, a measured region, one `bench_*` call) is always kept. A *step*
//! span (one `System::step`) happens millions of times per run, so only every
//! [`STEP_SAMPLE`]-th one is kept as a span; all of them feed the per-name
//! aggregates. Nothing here is active in an end-to-end run: the drive loops
//! only call into a tracer when one was asked for.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::stats;

/// One step span in this many is kept in the Chrome trace.
pub const STEP_SAMPLE: u64 = 1024;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Layer (crate) the time is attributed to.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Per-name totals over every span of that name, kept or not.
#[derive(Clone, Debug, Default)]
pub struct Agg {
    pub layer: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// Time covered by direct children (subtracted to get self time).
    pub child_ns: u64,
    /// Every duration, for the percentiles (ns, saturating at `u32::MAX`).
    durs: Vec<u32>,
}

impl Agg {
    pub fn self_ns(&self) -> u64 {
        self_time(self.total_ns, self.child_ns)
    }

    /// (p50, p99) of the durations, each only where ten samples lie beyond.
    pub fn percentiles(&self) -> (Option<u64>, Option<u64>) {
        let mut d: Vec<u64> = self.durs.iter().map(|&x| u64::from(x)).collect();
        d.sort_unstable();
        (stats::percentile(&d, 0.5), stats::percentile(&d, 0.99))
    }
}

/// A layer's self time: its spans' duration minus the part their children
/// cover. Children never outlast a parent, but clock reads are not atomic
/// with the work, so saturate instead of trusting that.
pub fn self_time(total_ns: u64, child_ns: u64) -> u64 {
    total_ns.saturating_sub(child_ns)
}

pub struct Tracer {
    t0: Instant,
    workload: &'static str,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    pub aggs: BTreeMap<&'static str, Agg>,
    steps_seen: u64,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            t0: Instant::now(),
            workload,
            spans: Vec::new(),
            open: Vec::new(),
            aggs: BTreeMap::new(),
            steps_seen: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a coarse span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, layer, start_ns, end_ns: start_ns, parent });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("end() without a matching begin()");
        self.spans[id].end_ns = end_ns;
        let Span { name, layer, start_ns, parent, .. } = self.spans[id];
        self.account(name, layer, end_ns - start_ns, parent);
    }

    /// Records one step span `[start_ns, end_ns)` under the innermost open
    /// span. The caller reads the clock once per step and passes the previous
    /// reading as the start.
    pub fn step(&mut self, name: &'static str, layer: &'static str, start_ns: u64, end_ns: u64) {
        let parent = self.open.last().copied();
        self.account(name, layer, end_ns - start_ns, parent);
        self.steps_seen += 1;
        if self.steps_seen.is_multiple_of(STEP_SAMPLE) {
            self.spans.push(Span { name, layer, start_ns, end_ns, parent });
        }
    }

    fn account(
        &mut self,
        name: &'static str,
        layer: &'static str,
        dur: u64,
        parent: Option<usize>,
    ) {
        let a = self.aggs.entry(name).or_default();
        a.layer = layer;
        a.count += 1;
        a.total_ns += dur;
        a.durs.push(u32::try_from(dur).unwrap_or(u32::MAX));
        if let Some(p) = parent {
            let pname = self.spans[p].name;
            self.aggs.entry(pname).or_default().child_ns += dur;
        }
    }

    /// Total seconds over all spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.aggs.get(name).map_or(0.0, |a| a.total_ns as f64 / 1e9)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.aggs.get(name).map_or(0, |a| a.count)
    }

    /// The per-name aggregate table for the results file.
    pub fn table(&self) -> Json {
        Json::Arr(
            self.aggs
                .iter()
                .map(|(name, a)| {
                    let (p50, p99) = a.percentiles();
                    let opt = |v: Option<u64>| v.map_or(Json::Null, |x| Json::Num(x as f64));
                    Json::obj([
                        ("span", Json::Str(name.to_string())),
                        ("layer", Json::Str(a.layer.to_string())),
                        ("count", Json::Num(a.count as f64)),
                        ("total_s", Json::Num(a.total_ns as f64 / 1e9)),
                        ("self_s", Json::Num(a.self_ns() as f64 / 1e9)),
                        ("p50_ns", opt(p50)),
                        ("p99_ns", opt(p99)),
                    ])
                })
                .collect(),
        )
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) document of the kept
    /// spans: complete events, µs timestamps, one track per layer.
    pub fn chrome_trace(&self) -> Json {
        let mut layers: Vec<&'static str> = self.spans.iter().map(|s| s.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        let tid = |layer: &str| layers.iter().position(|l| *l == layer).unwrap_or(0) + 1;
        let mut events: Vec<Json> = layers
            .iter()
            .map(|l| {
                Json::obj([
                    ("name", Json::Str("thread_name".into())),
                    ("ph", Json::Str("M".into())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(tid(l) as f64)),
                    ("args", Json::obj([("name", Json::Str(l.to_string()))])),
                ])
            })
            .collect();
        events.extend(self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("name", Json::Str(s.name.to_string())),
                ("cat", Json::Str(s.layer.to_string())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(tid(s.layer) as f64)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("workload", Json::Str(self.workload.to_string())),
                    ]),
                ),
            ])
        }));
        Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::Str("ms".into()))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        assert_eq!(self_time(1000, 300), 700);
        assert_eq!(self_time(1000, 1000), 0);
        assert_eq!(self_time(1000, 1001), 0, "clock skew must not underflow");
    }

    #[test]
    fn children_are_charged_to_their_direct_parent_only() {
        let mut t = Tracer::new("test");
        t.begin("round", "harness");
        t.begin("measure", "harness");
        t.step("step.cpu", "cdvm", 100, 400);
        t.step("step.cpu", "cdvm", 400, 500);
        t.step("step.event", "simkernel", 500, 700);
        t.end();
        t.end();
        let measure = &t.aggs["measure"];
        assert_eq!(measure.child_ns, 600);
        assert_eq!(measure.self_ns(), measure.total_ns.saturating_sub(600));
        assert_eq!(t.aggs["round"].child_ns, measure.total_ns, "grandchildren are not re-counted");
        assert_eq!(t.aggs["step.cpu"].count, 2);
        assert_eq!(t.aggs["step.cpu"].total_ns, 400);
        assert_eq!(t.aggs["step.cpu"].self_ns(), 400);
        assert_eq!(t.count("step.event"), 1);
    }

    #[test]
    fn only_sampled_steps_become_spans_but_all_are_aggregated() {
        let mut t = Tracer::new("test");
        t.begin("measure", "harness");
        for i in 0..(3 * STEP_SAMPLE) {
            t.step("step.cpu", "cdvm", i * 10, i * 10 + 7);
        }
        t.end();
        assert_eq!(t.spans.len(), 1 + 3);
        assert_eq!(t.aggs["step.cpu"].count, 3 * STEP_SAMPLE);
        let (p50, p99) = t.aggs["step.cpu"].percentiles();
        assert_eq!((p50, p99), (Some(7), Some(7)));
        let doc = t.chrome_trace();
        let events = doc.get("traceEvents").unwrap().as_arr();
        let complete = events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("X"));
        assert_eq!(complete.count(), 4);
        assert!(crate::json::parse(&doc.line()).is_ok());
    }
}
