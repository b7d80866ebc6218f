//! Per-CPU time attribution matching Figure 2's seven blocks.
//!
//! This is the one category enum shared by every layer: `simkernel`
//! charges cycles into a [`TimeBreakdown`] per CPU, and the tracer maps
//! each charge onto a Chrome-trace slice via [`TimeCat::trace_cat`].

/// The seven time categories of Figure 2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum TimeCat {
    /// (1) User code.
    User,
    /// (2) `syscall` + 2×`swapgs` + `sysret` microcode.
    SyscallEntry,
    /// (3) Syscall dispatch trampoline.
    Dispatch,
    /// (4) Kernel / privileged code.
    Kernel,
    /// (5) Schedule / context switch.
    Sched,
    /// (6) Page-table switch.
    PtSwitch,
    /// (7) Idle / IO wait.
    Idle,
}

impl TimeCat {
    /// All categories in Figure 2 order.
    pub const ALL: [TimeCat; 7] = [
        TimeCat::User,
        TimeCat::SyscallEntry,
        TimeCat::Dispatch,
        TimeCat::Kernel,
        TimeCat::Sched,
        TimeCat::PtSwitch,
        TimeCat::Idle,
    ];

    /// The paper's legend text for this block.
    pub fn label(&self) -> &'static str {
        match self {
            TimeCat::User => "(1) User code",
            TimeCat::SyscallEntry => "(2) syscall+2x swapgs+sysret",
            TimeCat::Dispatch => "(3) Syscall dispatch trampoline",
            TimeCat::Kernel => "(4) Kernel / privileged code",
            TimeCat::Sched => "(5) Schedule / ctxt. switch",
            TimeCat::PtSwitch => "(6) Page table switch",
            TimeCat::Idle => "(7) Idle / IO wait",
        }
    }

    /// Chrome-trace category for slices charged under this block.
    pub fn trace_cat(&self) -> &'static str {
        match self {
            TimeCat::User => "user",
            TimeCat::SyscallEntry | TimeCat::Dispatch | TimeCat::Kernel => "kernel",
            TimeCat::Sched | TimeCat::PtSwitch => "sched",
            TimeCat::Idle => "idle",
        }
    }

    fn idx(&self) -> usize {
        // `#[repr(usize)]` ties the discriminant to declaration order,
        // which is `ALL` order.
        *self as usize
    }
}

/// Accumulated cycles per category (per CPU, or summed over CPUs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    cycles: [u64; 7],
}

impl TimeBreakdown {
    /// Zeroed breakdown.
    pub fn new() -> TimeBreakdown {
        TimeBreakdown::default()
    }

    /// Adds cycles to a category.
    #[inline]
    pub fn add(&mut self, cat: TimeCat, cycles: u64) {
        self.cycles[cat.idx()] += cycles;
    }

    /// Moves up to `cycles` from `from` to `to` (all of `from` if it holds
    /// fewer); the total is unchanged.
    #[inline]
    pub fn move_cycles(&mut self, from: TimeCat, to: TimeCat, cycles: u64) {
        let moved = self.cycles[from.idx()].min(cycles);
        self.cycles[from.idx()] -= moved;
        self.cycles[to.idx()] += moved;
    }

    /// Cycles in a category.
    pub fn get(&self, cat: TimeCat) -> u64 {
        self.cycles[cat.idx()]
    }

    /// Total cycles across categories.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Fraction (0..1) of total in `cat`; 0 if empty.
    pub fn fraction(&self, cat: TimeCat) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.get(cat) as f64 / t as f64
        }
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &TimeBreakdown) {
        for i in 0..7 {
            self.cycles[i] += other.cycles[i];
        }
    }

    /// Difference (`self - earlier`); saturates at zero.
    pub fn since(&self, earlier: &TimeBreakdown) -> TimeBreakdown {
        let mut out = TimeBreakdown::new();
        for (i, cat) in TimeCat::ALL.iter().enumerate() {
            out.cycles[i] = self.get(*cat).saturating_sub(earlier.get(*cat));
        }
        out
    }

    /// "user / kernel / idle" coarse split used by Figure 1: user = (1),
    /// kernel = (2)+(3)+(4)+(5)+(6), idle = (7).
    pub fn coarse(&self) -> (u64, u64, u64) {
        let user = self.get(TimeCat::User);
        let kernel = self.get(TimeCat::SyscallEntry)
            + self.get(TimeCat::Dispatch)
            + self.get(TimeCat::Kernel)
            + self.get(TimeCat::Sched)
            + self.get(TimeCat::PtSwitch);
        let idle = self.get(TimeCat::Idle);
        (user, kernel, idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_fractions() {
        let mut b = TimeBreakdown::new();
        b.add(TimeCat::User, 75);
        b.add(TimeCat::Kernel, 25);
        assert_eq!(b.total(), 100);
        assert!((b.fraction(TimeCat::User) - 0.75).abs() < 1e-12);
        assert_eq!(b.fraction(TimeCat::Idle), 0.0);
    }

    #[test]
    fn merge_and_since() {
        let mut a = TimeBreakdown::new();
        a.add(TimeCat::Sched, 10);
        let snapshot = a;
        a.add(TimeCat::Sched, 5);
        a.add(TimeCat::Idle, 7);
        let d = a.since(&snapshot);
        assert_eq!(d.get(TimeCat::Sched), 5);
        assert_eq!(d.get(TimeCat::Idle), 7);
        let mut m = TimeBreakdown::new();
        m.merge(&a);
        m.merge(&d);
        assert_eq!(m.get(TimeCat::Sched), 20);
    }

    /// `move_cycles` against the formulation it replaced in the kernel: a
    /// scratch breakdown holding the clamped amount, `since()` as the
    /// subtraction, then `add`.
    #[test]
    fn move_cycles_matches_since_and_add() {
        let mut start = TimeBreakdown::new();
        for (i, cat) in TimeCat::ALL.iter().enumerate() {
            start.add(*cat, 100 * (i as u64 + 1));
        }
        for from in TimeCat::ALL {
            for to in TimeCat::ALL {
                for n in [0, 1, 99, 100 * (from.idx() as u64 + 1), 5000, u64::MAX] {
                    let have = start.get(from).min(n);
                    let mut neg = TimeBreakdown::new();
                    neg.add(from, have);
                    let mut old = start.since(&neg);
                    old.add(to, have);
                    let mut new = start;
                    new.move_cycles(from, to, n);
                    assert_eq!(new, old, "{from:?} -> {to:?}, n = {n}");
                    assert_eq!(new.total(), start.total());
                }
            }
        }
    }

    #[test]
    fn coarse_split() {
        let mut b = TimeBreakdown::new();
        b.add(TimeCat::User, 1);
        b.add(TimeCat::SyscallEntry, 2);
        b.add(TimeCat::Dispatch, 3);
        b.add(TimeCat::Kernel, 4);
        b.add(TimeCat::Sched, 5);
        b.add(TimeCat::PtSwitch, 6);
        b.add(TimeCat::Idle, 7);
        assert_eq!(b.coarse(), (1, 20, 7));
    }

    #[test]
    fn labels_match_paper() {
        assert!(TimeCat::Sched.label().contains("ctxt. switch"));
        assert_eq!(TimeCat::ALL.len(), 7);
    }

    #[test]
    fn repr_discriminants_follow_all_order() {
        for (i, cat) in TimeCat::ALL.iter().enumerate() {
            assert_eq!(*cat as usize, i);
            assert_eq!(cat.idx(), i);
        }
    }
}
