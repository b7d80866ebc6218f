//! `simfault`: deterministic, seed-driven fault injection for the dIPC
//! simulator.
//!
//! The paper's safety argument (§3–§5) is that a callee which faults, is
//! killed mid-call, or loses a capability is *unwound* off the kernel call
//! stack and surfaced to its caller as an error — never as corruption or a
//! hang. This crate turns those recovery paths from "believed correct" into
//! driven, measured behaviour: every layer of the stack carries injection
//! sites that consult an armed [`FaultPlan`] and, when a deterministic draw
//! hits, perturb the simulation (revoke a capability between check and use,
//! flip a page permission, drop or delay an IPI, wake a futex waiter
//! spuriously, fail a resolve syscall, kill a process mid-call).
//!
//! Determinism rules (the same contract as `simtrace`):
//!
//! * **No host randomness.** Every draw is `splitmix64(seed ^ site_salt ^
//!   counter)`; two runs with the same plan and workload take bit-identical
//!   decisions, so failures replay exactly.
//! * **Zero virtual cost of the *decision*.** Consulting the plan charges no
//!   simulated cycles; only the injected fault itself perturbs virtual time
//!   (that is the point). With no plan armed every hook is a branch on a
//!   thread-local flag and the simulation is bit-identical to a build
//!   without this crate.
//! * **Armed state is thread-local**, like the tracer: tests running on
//!   separate host threads cannot interfere with each other.
//!
//! Plans are parsed from a spec string (the bench binaries' `DIPC_FAULTS`
//! variable; see [`FaultPlan::parse`] for the grammar) or built
//! programmatically, and armed with [`arm`]. Every hit is appended to an injection log
//! ([`log_render`]) that replay tests compare byte-for-byte, and mirrored
//! into the tracer as an instant event when tracing is enabled.

#![warn(missing_docs)]

use std::cell::{Cell, RefCell};

/// An injection site: one class of fault, drawn independently per event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Site {
    /// CODOMs capability revocation between a passed check and the use of
    /// the checked capability (drawn per domain crossing, in `cdvm`).
    Revoke,
    /// Page-permission flip: a writable callee-side page transiently loses
    /// its write permission (drawn per driver step, in `dipc::System`).
    /// Param = cycles until the flip heals (default 200 000).
    PageFlip,
    /// IPI loss: the wakeup interrupt is sent but never delivered; the
    /// woken thread is only noticed at the next scheduler poll.
    /// Param = recovery delay in cycles (default 100 000).
    IpiLoss,
    /// IPI delay: delivery is late. Param = extra cycles (default 10 000).
    IpiDelay,
    /// Spurious futex wakeup: `futex_wait` returns `-EINTR` without
    /// blocking (POSIX allows this; well-formed waiters re-check and
    /// re-wait).
    SpuriousWake,
    /// Transient syscall error: a proxy cold-path `track_resolve` fails and
    /// the call unwinds with `DIPC_ERR_FAULT` even though the callee is
    /// alive (caller may retry).
    SysErr,
    /// Async-ring stall: an open ring's STALL word is raised so enqueue and
    /// dequeue paths spin on `yield` until it heals (drawn per driver step,
    /// in `dipc::System`). Param = cycles until the stall heals
    /// (default 50 000).
    RingStall,
}

impl Site {
    const COUNT: usize = 7;

    fn idx(self) -> usize {
        match self {
            Site::Revoke => 0,
            Site::PageFlip => 1,
            Site::IpiLoss => 2,
            Site::IpiDelay => 3,
            Site::SpuriousWake => 4,
            Site::SysErr => 5,
            Site::RingStall => 6,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Site::Revoke => "revoke",
            Site::PageFlip => "pageflip",
            Site::IpiLoss => "ipi_loss",
            Site::IpiDelay => "ipi_delay",
            Site::SpuriousWake => "wake",
            Site::SysErr => "syserr",
            Site::RingStall => "ring_stall",
        }
    }

    fn from_name(s: &str) -> Option<Site> {
        Some(match s {
            "revoke" => Site::Revoke,
            "pageflip" => Site::PageFlip,
            "ipi_loss" => Site::IpiLoss,
            "ipi_delay" => Site::IpiDelay,
            "wake" => Site::SpuriousWake,
            "syserr" => Site::SysErr,
            "ring_stall" => Site::RingStall,
            _ => return None,
        })
    }

    fn default_param(self) -> u64 {
        match self {
            Site::PageFlip => 200_000,
            Site::IpiLoss => 100_000,
            Site::IpiDelay => 10_000,
            Site::RingStall => 50_000,
            _ => 0,
        }
    }
}

/// A virtual-time trigger: fires once when the driver's clock passes `at`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trigger {
    /// Kill a whole process mid-run (`kill@<cycles>:<pid>`). The dIPC
    /// driver rescues visiting threads by unwinding them to their callers.
    KillProcess {
        /// Victim process id.
        pid: u64,
    },
    /// Kill a single thread mid-run (`tkill@<cycles>:<tid>`).
    KillThread {
        /// Victim thread id.
        tid: u64,
    },
}

/// A deterministic fault schedule: per-site probabilities and parameters,
/// one-shot virtual-time triggers, and the seed all draws derive from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every deterministic draw.
    pub seed: u64,
    /// No site fires before this virtual time (cycles).
    pub after: u64,
    /// Per-site hit thresholds (`draw < threshold` fires).
    thresholds: [u64; Site::COUNT],
    /// Per-site parameters (delays, heal times).
    params: [u64; Site::COUNT],
    /// Time triggers, sorted by fire time.
    triggers: Vec<(u64, Trigger)>,
}

impl FaultPlan {
    /// An empty plan (nothing fires) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            after: 0,
            thresholds: [0; Site::COUNT],
            params: [
                Site::Revoke.default_param(),
                Site::PageFlip.default_param(),
                Site::IpiLoss.default_param(),
                Site::IpiDelay.default_param(),
                Site::SpuriousWake.default_param(),
                Site::SysErr.default_param(),
                Site::RingStall.default_param(),
            ],
            triggers: Vec::new(),
        }
    }

    /// Sets a site's per-event hit probability (clamped to `[0, 1]`).
    pub fn rate(mut self, site: Site, p: f64) -> FaultPlan {
        let p = p.clamp(0.0, 1.0);
        self.thresholds[site.idx()] =
            if p >= 1.0 { u64::MAX } else { (p * (u64::MAX as f64)) as u64 };
        self
    }

    /// Sets a site's parameter (delay / heal cycles).
    pub fn param(mut self, site: Site, v: u64) -> FaultPlan {
        self.params[site.idx()] = v;
        self
    }

    /// Adds a one-shot trigger at virtual time `at`.
    pub fn at(mut self, at: u64, t: Trigger) -> FaultPlan {
        self.triggers.push((at, t));
        self.triggers.sort_by_key(|(t, _)| *t);
        self
    }

    /// Suppresses all sites before virtual time `at` (the `after=` key).
    pub fn starting_after(mut self, at: u64) -> FaultPlan {
        self.after = at;
        self
    }

    /// Parses the `DIPC_FAULTS` spec grammar:
    ///
    /// ```text
    /// spec    := item (';' item)*
    /// item    := 'seed=' u64            -- draw seed (default 0)
    ///          | 'after=' u64           -- no site fires before this cycle
    ///          | site '=' rate [':' u64]-- probability per event, opt. param
    ///          | 'kill@' u64 ':' u64    -- kill process <pid> at <cycles>
    ///          | 'tkill@' u64 ':' u64   -- kill thread <tid> at <cycles>
    /// site    := 'revoke' | 'pageflip' | 'ipi_loss' | 'ipi_delay'
    ///          | 'wake' | 'syserr'
    /// ```
    ///
    /// Example: `seed=7;revoke=0.001;ipi_delay=0.05:3000;kill@2000000:3`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(0);
        for raw in spec.split(';') {
            let tok = raw.trim();
            if tok.is_empty() {
                continue;
            }
            if let Some((name, rest)) = tok.split_once('@') {
                let (at, arg) = match rest.split_once(':') {
                    Some((t, a)) => (t, a),
                    None => return Err(format!("trigger `{tok}` needs `:<id>`")),
                };
                let at: u64 = at.parse().map_err(|_| format!("bad cycles in `{tok}`"))?;
                let id: u64 = arg.parse().map_err(|_| format!("bad id in `{tok}`"))?;
                let trig = match name {
                    "kill" => Trigger::KillProcess { pid: id },
                    "tkill" => Trigger::KillThread { tid: id },
                    _ => return Err(format!("unknown trigger `{name}`")),
                };
                plan = plan.at(at, trig);
                continue;
            }
            let (key, val) = tok.split_once('=').ok_or(format!("expected `key=value`: `{tok}`"))?;
            match key {
                "seed" => plan.seed = val.parse().map_err(|_| format!("bad seed `{val}`"))?,
                "after" => plan.after = val.parse().map_err(|_| format!("bad after `{val}`"))?,
                _ => {
                    let site = Site::from_name(key).ok_or(format!("unknown fault site `{key}`"))?;
                    let (rate, param) = match val.split_once(':') {
                        Some((r, p)) => (r, Some(p)),
                        None => (val, None),
                    };
                    let r: f64 = rate.parse().map_err(|_| format!("bad rate `{rate}`"))?;
                    plan = plan.rate(site, r);
                    if let Some(p) = param {
                        let v: u64 = p.parse().map_err(|_| format!("bad param `{p}`"))?;
                        plan = plan.param(site, v);
                    }
                }
            }
        }
        Ok(plan)
    }
}

/// SplitMix64: the sole source of randomness (fully determined by input).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Per-site salts keep independent sites decorrelated under one seed.
const SALTS: [u64; Site::COUNT] = [
    0x7265766f6b650001, // "revoke"
    0x70616765666c0002, // "pagefl"
    0x6970696c6f730003, // "ipilos"
    0x69706964656c0004, // "ipidel"
    0x77616b6575700005, // "wakeup"
    0x7379736572720006, // "syserr"
    0x72696e6773740007, // "ringst"
];

/// Injection-log capacity; beyond this only the count grows (bounds host
/// memory on very long chaos runs while keeping replay comparisons exact
/// for any two runs of the same workload).
const LOG_CAP: usize = 100_000;

struct State {
    plan: FaultPlan,
    counters: [u64; Site::COUNT],
    next_trigger: usize,
    injections: u64,
    log: Vec<String>,
}

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Arms `plan` for the current thread. Replaces any previous plan and
/// clears the injection log.
pub fn arm(plan: FaultPlan) {
    STATE.with(|s| {
        *s.borrow_mut() = Some(State {
            plan,
            counters: [0; Site::COUNT],
            next_trigger: 0,
            injections: 0,
            log: Vec::new(),
        })
    });
    ARMED.with(|a| a.set(true));
}

/// Disarms injection for the current thread (the log is discarded).
pub fn disarm() {
    ARMED.with(|a| a.set(false));
    STATE.with(|s| *s.borrow_mut() = None);
}

/// Whether a plan is armed on this thread. The gate every site checks
/// first; a plain thread-local read, cheap enough for per-instruction use.
#[inline]
pub fn armed() -> bool {
    ARMED.with(|a| a.get())
}

/// Draws the given site at virtual time `now`. Returns `true` when the
/// fault fires; the hit is appended to the injection log and mirrored to
/// the tracer. Charges no simulated cycles.
pub fn should(site: Site, now: u64) -> bool {
    if !armed() {
        return false;
    }
    STATE.with(|s| {
        let mut b = s.borrow_mut();
        let st = match b.as_mut() {
            Some(st) => st,
            None => return false,
        };
        let i = site.idx();
        let n = st.counters[i];
        st.counters[i] += 1;
        if now < st.plan.after || st.plan.thresholds[i] == 0 {
            return false;
        }
        let hit = splitmix64(st.plan.seed ^ SALTS[i] ^ n) < st.plan.thresholds[i];
        if hit {
            st.injections += 1;
            if st.log.len() < LOG_CAP {
                st.log.push(format!("{now} {} #{n}", site.name()));
            }
            if simtrace::enabled() {
                simtrace::instant(
                    simtrace::Track::Harness,
                    now,
                    format!("inject_{}", site.name()),
                    "fault",
                );
            }
        }
        hit
    })
}

/// An auxiliary deterministic draw in `[0, bound)` for victim selection
/// (e.g. which page to flip). Advances the site's draw counter, so it is
/// part of the replayed sequence. Returns 0 for `bound == 0`.
pub fn draw(site: Site, bound: u64) -> u64 {
    if bound == 0 {
        return 0;
    }
    STATE.with(|s| {
        let mut b = s.borrow_mut();
        let st = match b.as_mut() {
            Some(st) => st,
            None => return 0,
        };
        let i = site.idx();
        let n = st.counters[i];
        st.counters[i] += 1;
        splitmix64(st.plan.seed ^ SALTS[i] ^ n) % bound
    })
}

/// The armed parameter of a site (its default when nothing is armed).
pub fn param(site: Site) -> u64 {
    STATE.with(|s| {
        s.borrow().as_ref().map(|st| st.plan.params[site.idx()]).unwrap_or(site.default_param())
    })
}

/// Pops every trigger due at or before `now` (each fires exactly once) and
/// records it in the injection log.
pub fn take_due(now: u64) -> Vec<Trigger> {
    if !armed() {
        return Vec::new();
    }
    STATE.with(|s| {
        let mut b = s.borrow_mut();
        let st = match b.as_mut() {
            Some(st) => st,
            None => return Vec::new(),
        };
        let mut due = Vec::new();
        while st.next_trigger < st.plan.triggers.len() && st.plan.triggers[st.next_trigger].0 <= now
        {
            let (at, t) = st.plan.triggers[st.next_trigger];
            st.next_trigger += 1;
            st.injections += 1;
            if st.log.len() < LOG_CAP {
                st.log.push(format!("{now} trigger@{at} {t:?}"));
            }
            if simtrace::enabled() {
                simtrace::instant(simtrace::Track::Harness, now, format!("trigger {t:?}"), "fault");
            }
            due.push(t);
        }
        due
    })
}

/// Total faults injected (hits + fired triggers) since [`arm`].
pub fn injections() -> u64 {
    STATE.with(|s| s.borrow().as_ref().map(|st| st.injections).unwrap_or(0))
}

/// Renders the injection log — one line per injected fault, in order —
/// for byte-exact replay comparison. Includes the total count, so two runs
/// compare equal only if they injected identical fault sequences.
pub fn log_render() -> String {
    STATE.with(|s| {
        let b = s.borrow();
        match b.as_ref() {
            Some(st) => {
                let mut out = String::new();
                for line in &st.log {
                    out.push_str(line);
                    out.push('\n');
                }
                out.push_str(&format!("total {}\n", st.injections));
                out
            }
            None => String::new(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_is_inert() {
        disarm();
        assert!(!armed());
        assert!(!should(Site::Revoke, 100));
        assert_eq!(injections(), 0);
        assert!(take_due(u64::MAX).is_empty());
    }

    #[test]
    fn parse_round_trips_the_grammar() {
        let p =
            FaultPlan::parse("seed=7;revoke=0.5;ipi_delay=0.25:3000;kill@200:3;after=50").unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.after, 50);
        assert!(p.thresholds[Site::Revoke.idx()] > 0);
        assert_eq!(p.params[Site::IpiDelay.idx()], 3000);
        assert_eq!(p.triggers, vec![(200, Trigger::KillProcess { pid: 3 })]);
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("kill@12").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = || {
            arm(FaultPlan::new(42).rate(Site::Revoke, 0.3).rate(Site::SysErr, 0.1));
            let seq: Vec<bool> =
                (0..200).map(|i| should(Site::Revoke, i) || should(Site::SysErr, i)).collect();
            let log = log_render();
            disarm();
            (seq, log)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rates_are_roughly_honoured() {
        arm(FaultPlan::new(1).rate(Site::SpuriousWake, 0.2));
        let hits = (0..10_000).filter(|&i| should(Site::SpuriousWake, i)).count();
        disarm();
        assert!((1500..2500).contains(&hits), "20% of 10k draws, got {hits}");
    }

    #[test]
    fn after_suppresses_early_fires() {
        arm(FaultPlan::new(1).rate(Site::Revoke, 1.0).starting_after(1000));
        assert!(!should(Site::Revoke, 999));
        assert!(should(Site::Revoke, 1000));
        disarm();
    }

    #[test]
    fn triggers_fire_once_in_order() {
        arm(FaultPlan::new(0)
            .at(300, Trigger::KillThread { tid: 9 })
            .at(100, Trigger::KillProcess { pid: 2 }));
        assert!(take_due(50).is_empty());
        assert_eq!(take_due(100), vec![Trigger::KillProcess { pid: 2 }]);
        assert_eq!(take_due(1000), vec![Trigger::KillThread { tid: 9 }]);
        assert!(take_due(u64::MAX).is_empty());
        assert_eq!(injections(), 2);
        disarm();
    }
}
