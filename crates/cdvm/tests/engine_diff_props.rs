//! Seeded differential property test of the two engines: random guest
//! programs — ALU, loads/stores/byte accesses/atomics over two data pages
//! (page-straddling offsets included), forward branches, same-page jumps,
//! cross-domain calls, `MemCpy`, register-driven `Work`, and stores that
//! patch an instruction of the loop they sit in — are cut into slices of
//! random widths (1–700 cycles) while a random mutator schedule strikes
//! between slices (flips of domain 1's entry grant into domain 2 and of
//! domain 2's write grant on domain 1's data, APL-cache evictions, a remap
//! of the callee page). After *every* slice the fast engine must sit
//! exactly where the reference interpreter sits: same exit, cycles, PC,
//! registers, retired count, domain, crossings, iTLB/dTLB/APL-cache
//! counters.
//!
//! Each case also runs on both engines with `simtrace` enabled on the test
//! thread (the collector is thread-local): tracing only observes, so the
//! traced slices must equal the untraced reference slice for slice, and
//! the traced fast run must leave exactly the events, Chrome trace and
//! simulated counters of the traced reference run.
//!
//! This is the coverage that replaced the intermediate cells of the old
//! engine matrix. It fails when the code-epoch compare of
//! `BlockCache::valid`, the `apl_version` compare on `CrossDesc`, or the
//! drop of the run-scoped operand memo (`DMemo`) at a crossing is removed
//! (checked by mutation).
//!
//! Cases come from the in-tree proptest shim's deterministic generator; a
//! failing case is shrunk greedily (drop body items, loop iterations,
//! mutations and slice widths while the engines still disagree) before it
//! is reported.

mod common;

use cdvm::isa::reg::*;
use cdvm::{Asm, Fault, FaultKind, Instr, StepEvent};
use codoms::apl::{Apl, Perm};
use common::{drive, world, Snap, CODE, DATA, FAR};
use proptest::prelude::*;
use proptest::test_runner::{TestRng, CASES};
use simmem::{DomainTag, Memory, PageFlags, PAGE_SIZE};

/// Callee entry points in the `FAR` page, 64 bytes apart.
const ENTRIES: u64 = 3;

/// Registers the random ALU and memory items may clobber.
const SCRATCH: [u8; 8] = [T0, T1, T2, T3, A0, A1, A2, A3];

/// One element of the loop body. Register and offset fields are indices
/// or raw draws, mapped into range at assembly time, so every value the
/// generator (or the shrinker) produces is a valid program.
#[derive(Clone, Debug)]
enum Item {
    /// Three-register ALU op: selector, rd, rs1, rs2.
    Alu(u8, u8, u8, u8),
    /// `Addi rd, rs1, imm`.
    Addi(u8, u8, i8),
    /// 8-byte load from `DATA + off` (may straddle the page boundary).
    Ld(u8, u16),
    /// 8-byte store to `DATA + off`.
    St(u8, u16),
    /// Byte load.
    Ldb(u8, u16),
    /// Byte store.
    Stb(u8, u16),
    /// `Amoadd` on `DATA + 64`.
    Amoadd(u8, u8),
    /// Forward conditional branch over the next `skip` items.
    Branch(u8, u8, u8, u8),
    /// Forward unconditional same-page jump over the next `skip` items.
    Jump(u8),
    /// Call into domain 2 at entry `k`; the callee stores into domain 1's
    /// data page and returns.
    Call(u8),
    /// `MemCpy` of `len` bytes inside the data pages.
    MemCpy(u16, u16, u8),
    /// `Work` with a register operand (unbounded static cost).
    Work(u8),
    /// The instruction `Patch` rewrites: `Addi A5, A5, 1` until patched.
    Site,
    /// Stores `Addi A5, A5, imm` over the first `Site` of the body.
    Patch(i8),
}

/// What strikes between two slices.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mutation {
    None,
    /// Flip whether domain 1's APL grants entry into domain 2.
    ToggleGrant,
    /// Flip domain 2's grant on domain 1 between `Write` and `Read`: the
    /// callee's stores into domain 1's data page are allowed or denied,
    /// while its loads and its return jump stay allowed.
    ToggleDataGrant,
    /// Drop domain `1 + n`'s APL from the CPU's APL cache.
    Evict(u8),
    /// Unmap the callee page and map a fresh frame with the same code.
    RemapCallee,
}

#[derive(Clone, Debug)]
struct Case {
    items: Vec<Item>,
    iters: u8,
    widths: Vec<u64>,
    mutations: Vec<Mutation>,
}

fn arb_item() -> impl Strategy<Value = Item> {
    let r = || 0u8..8;
    let off = || 0u16..(2 * PAGE_SIZE as u16);
    prop_oneof![
        (0u8..8, r(), r(), r()).prop_map(|(op, d, a, b)| Item::Alu(op, d, a, b)),
        (r(), r(), any::<i8>()).prop_map(|(d, a, i)| Item::Addi(d, a, i)),
        (r(), off()).prop_map(|(d, o)| Item::Ld(d, o)),
        (r(), off()).prop_map(|(s, o)| Item::St(s, o)),
        (r(), off()).prop_map(|(d, o)| Item::Ldb(d, o)),
        (r(), off()).prop_map(|(s, o)| Item::Stb(s, o)),
        (r(), r()).prop_map(|(d, s)| Item::Amoadd(d, s)),
        (0u8..4, r(), r(), 0u8..4).prop_map(|(k, a, b, n)| Item::Branch(k, a, b, n)),
        (0u8..4).prop_map(Item::Jump),
        (0u8..ENTRIES as u8).prop_map(Item::Call),
        (0u8..ENTRIES as u8).prop_map(Item::Call),
        (off(), off(), any::<u8>()).prop_map(|(d, s, l)| Item::MemCpy(d, s, l)),
        r().prop_map(Item::Work),
        Just(Item::Site),
        any::<i8>().prop_map(Item::Patch),
    ]
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        Just(Mutation::None),
        Just(Mutation::None),
        Just(Mutation::None),
        Just(Mutation::None),
        Just(Mutation::ToggleGrant),
        Just(Mutation::ToggleDataGrant),
        (0u8..2).prop_map(Mutation::Evict),
        Just(Mutation::RemapCallee),
    ]
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(arb_item(), 1..40),
        1u8..6,
        prop::collection::vec(1u64..=700, 1..8),
        prop::collection::vec(arb_mutation(), 1..12),
    )
        .prop_map(|(items, iters, widths, mutations)| Case { items, iters, widths, mutations })
}

/// The caller: a counted loop around `items`. `site` is the address of the
/// patch site (0 on the sizing pass; every `li` of a code or data address
/// is one instruction, so the layout does not depend on it).
fn assemble(items: &[Item], iters: u8, site: u64) -> cdvm::asm::Program {
    let reg = |i: u8| SCRATCH[i as usize % SCRATCH.len()];
    let off8 = |o: u16| (o as u64).min(2 * PAGE_SIZE - 8) as i32;
    let off1 = |o: u16| (o as u64).min(2 * PAGE_SIZE - 1) as i32;
    let mut a = Asm::new();
    let mut site_placed = false;
    a.li(S0, DATA);
    a.li(S1, iters as u64);
    a.li(S2, DATA + 64);
    a.label("loop");
    for (n, item) in items.iter().enumerate() {
        a.label(&format!("i{n}"));
        let skip_to = |skip: u8| format!("i{}", (n + 1 + skip as usize).min(items.len()));
        match *item {
            Item::Alu(op, d, s1, s2) => {
                let (rd, rs1, rs2) = (reg(d), reg(s1), reg(s2));
                a.push(match op % 8 {
                    0 => Instr::Add { rd, rs1, rs2 },
                    1 => Instr::Sub { rd, rs1, rs2 },
                    2 => Instr::Mul { rd, rs1, rs2 },
                    3 => Instr::Xor { rd, rs1, rs2 },
                    4 => Instr::Sltu { rd, rs1, rs2 },
                    5 => Instr::Sll { rd, rs1, rs2 },
                    6 => Instr::Rdcycle { rd },
                    _ => Instr::Work { rs1: ZERO, imm: 3 + rs2 as i32 },
                });
            }
            Item::Addi(d, s, imm) => {
                a.push(Instr::Addi { rd: reg(d), rs1: reg(s), imm: imm as i32 });
            }
            Item::Ld(d, o) => {
                a.push(Instr::Ld { rd: reg(d), rs1: S0, imm: off8(o) });
            }
            Item::St(s, o) => {
                a.push(Instr::St { rs1: S0, rs2: reg(s), imm: off8(o) });
            }
            Item::Ldb(d, o) => {
                a.push(Instr::Ldb { rd: reg(d), rs1: S0, imm: off1(o) });
            }
            Item::Stb(s, o) => {
                a.push(Instr::Stb { rs1: S0, rs2: reg(s), imm: off1(o) });
            }
            Item::Amoadd(d, s) => {
                a.push(Instr::Amoadd { rd: reg(d), rs1: S2, rs2: reg(s) });
            }
            Item::Branch(kind, s1, s2, skip) => {
                let (rs1, rs2, to) = (reg(s1), reg(s2), skip_to(skip));
                match kind % 4 {
                    0 => a.beq(rs1, rs2, &to),
                    1 => a.bne(rs1, rs2, &to),
                    2 => a.bltu(rs1, rs2, &to),
                    _ => a.bgeu(rs1, rs2, &to),
                };
            }
            Item::Jump(skip) => {
                a.j(&skip_to(skip));
            }
            Item::Call(k) => {
                let target = FAR + (k as u64 % ENTRIES) * 64;
                let here = CODE + a.here();
                a.push(Instr::Jal { rd: RA, imm: (target as i64 - here as i64) as i32 });
            }
            Item::MemCpy(d, s, len) => {
                a.li(T4, DATA + (d as u64).min(2 * PAGE_SIZE - 256));
                a.li(T5, DATA + (s as u64).min(2 * PAGE_SIZE - 256));
                a.li(T6, len as u64);
                a.push(Instr::MemCpy { rd: T4, rs1: T5, rs2: T6 });
            }
            Item::Work(s) => {
                // Bound the charge: the low byte of a scratch register.
                a.push(Instr::Andi { rd: T6, rs1: reg(s), imm: 0xff });
                a.push(Instr::Work { rs1: T6, imm: 0 });
            }
            Item::Site => {
                if !std::mem::replace(&mut site_placed, true) {
                    a.label("site");
                }
                a.push(Instr::Addi { rd: A5, rs1: A5, imm: 1 });
            }
            Item::Patch(imm) => {
                let patched = Instr::Addi { rd: A5, rs1: A5, imm: imm as i32 }.encode();
                a.li(T4, site);
                a.li(T5, u64::from_le_bytes(patched));
                a.push(Instr::St { rs1: T4, rs2: T5, imm: 0 });
            }
        }
    }
    a.label(&format!("i{}", items.len()));
    a.push(Instr::Addi { rd: S1, rs1: S1, imm: -1 });
    a.bne(S1, ZERO, "loop");
    a.push(Instr::Halt);
    a.finish()
}

/// Assembles the caller (twice: once to learn where the patch site landed)
/// and the callee page: `ENTRIES` entry points that bump a counter, store
/// it into domain 1's data page, load from it and return, followed by
/// returns to the end of the page so a run that falls out of an entry
/// (skipped faults) still gets back to the caller.
fn programs(case: &Case) -> (Vec<u8>, Vec<u8>) {
    let sized = assemble(&case.items, case.iters, 0);
    // Without a `Site` in the body, a `Patch` rewrites the dead slot right
    // after `Halt`.
    let site = CODE + sized.labels.get("site").copied().unwrap_or(sized.bytes.len() as u64);
    let caller = assemble(&case.items, case.iters, site).bytes;
    assert!(caller.len() as u64 + 8 <= PAGE_SIZE, "the loop must stay on one page");

    let mut callee = Vec::new();
    for k in 0..ENTRIES {
        let mut a = Asm::new();
        a.push(Instr::Addi { rd: S3, rs1: S3, imm: 1 });
        a.push(Instr::St { rs1: S0, rs2: S3, imm: 128 + 8 * k as i32 });
        a.push(Instr::Ld { rd: A4, rs1: S0, imm: 8 * k as i32 });
        a.push(Instr::Jalr { rd: ZERO, rs1: RA, imm: 0 });
        let mut bytes = a.finish().bytes;
        bytes.resize(64, 0);
        callee.extend_from_slice(&bytes);
    }
    let ret = Instr::Jalr { rd: ZERO, rs1: RA, imm: 0 }.encode();
    while (callee.len() as u64) < PAGE_SIZE {
        callee.extend_from_slice(&ret);
    }
    (caller, callee)
}

/// Runs `case` on one engine, returning every per-slice snapshot.
fn run(case: &Case, caller: &[u8], callee: &[u8], fast: bool) -> Vec<Snap> {
    let mut w = world(caller, callee, PageFlags::RWX, fast);
    let granted = w.apls[0].clone();
    let mut slice = 0usize;
    drive(&mut w, |w| {
        let pt = Memory::GLOBAL_PT;
        match case.mutations[slice % case.mutations.len()] {
            Mutation::None => {}
            Mutation::ToggleGrant => {
                let now = if w.apls[0].get(DomainTag(2)) == Perm::Nil {
                    granted.clone()
                } else {
                    Apl::new()
                };
                w.apls[0] = now.clone();
                w.cpu.apl_cache.update(DomainTag(1), now);
            }
            Mutation::ToggleDataGrant => {
                let mut now = Apl::new();
                let flipped = match w.apls[1].get(DomainTag(1)) {
                    Perm::Write => Perm::Read,
                    _ => Perm::Write,
                };
                now.set(DomainTag(1), flipped);
                w.apls[1] = now.clone();
                w.cpu.apl_cache.update(DomainTag(2), now);
            }
            Mutation::Evict(n) => w.cpu.apl_cache.invalidate(DomainTag(1 + n as u32)),
            Mutation::RemapCallee => {
                w.mem.unmap(pt, FAR, 1);
                w.mem.map_anon(pt, FAR, 1, PageFlags::RX, DomainTag(2));
                w.mem.kwrite(pt, FAR, callee).unwrap();
            }
        }
        slice += 1;
        case.widths[slice % case.widths.len()]
    })
}

/// The counters `cdvm` feeds while tracing, other than the `host.*` cache
/// telemetry only the fast engine has.
const SIM_COUNTERS: [&str; 5] =
    ["apl_hit", "domain_crossings", "bytes_copied_user", "kcs_pushes", "kcs_pops"];

/// What a traced run leaves in the collector.
#[derive(Debug, PartialEq)]
struct TraceOut {
    events: usize,
    counters: [u64; SIM_COUNTERS.len()],
    chrome: String,
}

/// [`run`] with tracing enabled. The callee page is registered as a proxy
/// entry range, so every crossing into it opens a span stamped with the
/// crossing's cycle.
fn run_traced(case: &Case, caller: &[u8], callee: &[u8], fast: bool) -> (Vec<Snap>, TraceOut) {
    simtrace::enable("engine_diff_props.json");
    simtrace::register_proxy("callee", (FAR, FAR + PAGE_SIZE), (0, 0));
    let snaps = run(case, caller, callee, fast);
    let out = TraceOut {
        events: simtrace::event_count(),
        counters: SIM_COUNTERS.map(simtrace::counter_value),
        chrome: simtrace::render().0,
    };
    simtrace::disable();
    (snaps, out)
}

/// `Ok` carries the domain crossings the case took, how many callee
/// stores were denied (domain 2's write grant flipped off) and how many
/// trace events the traced runs recorded; `Err` names
/// the first slice on which the engines disagree (or the panic either died
/// with).
fn check(case: &Case) -> Result<(u64, usize, usize), String> {
    let (caller, callee) = programs(case);
    let all = std::panic::catch_unwind(|| {
        (
            run(case, &caller, &callee, false),
            run(case, &caller, &callee, true),
            run_traced(case, &caller, &callee, false),
            run_traced(case, &caller, &callee, true),
        )
    });
    // A panic inside a traced run leaves the thread's tracer armed.
    simtrace::disable();
    let (reference, fast, (traced_ref, ref_trace), (traced_fast, fast_trace)) =
        all.map_err(|p| {
            let msg = p.downcast_ref::<String>().map(String::as_str);
            format!("panicked: {}", msg.or(p.downcast_ref::<&str>().copied()).unwrap_or("?"))
        })?;
    for (name, snaps) in
        [("fast", &fast), ("traced reference", &traced_ref), ("traced fast", &traced_fast)]
    {
        for (i, (f, r)) in snaps.iter().zip(&reference).enumerate() {
            if f != r {
                return Err(format!("slice {i}:\n {name} {f:?}\n reference {r:?}"));
            }
        }
        if snaps.len() != reference.len() {
            return Err(format!(
                "{} slices on {name}, {} on reference",
                snaps.len(),
                reference.len()
            ));
        }
    }
    if fast_trace != ref_trace {
        return Err(format!("traces differ:\n fast      {fast_trace:?}\n reference {ref_trace:?}"));
    }
    // A denied callee store: the second instruction of an entry.
    let denied_store =
        |f: &Fault| matches!(f.kind, FaultKind::Codoms(_)) && f.pc >= FAR && (f.pc - FAR) % 64 == 8;
    let denied = fast
        .iter()
        .filter(|s| matches!(s.exit.event, StepEvent::Fault(f) if denied_store(&f)))
        .count();
    Ok((fast.last().expect("ran").crossings, denied, ref_trace.events))
}

/// Greedy shrink: keeps any single simplification under which the engines
/// still disagree, until none applies.
fn shrink(mut case: Case) -> Case {
    loop {
        let mut candidates = Vec::new();
        for i in 0..case.items.len() {
            let mut c = case.clone();
            c.items.remove(i);
            candidates.push(c);
        }
        if case.iters > 1 {
            candidates.push(Case { iters: case.iters - 1, ..case.clone() });
        }
        for i in 0..case.mutations.len() {
            if case.mutations[i] != Mutation::None {
                let mut c = case.clone();
                c.mutations[i] = Mutation::None;
                candidates.push(c);
            }
        }
        if case.widths.len() > 1 {
            for i in 0..case.widths.len() {
                let mut c = case.clone();
                c.widths.remove(i);
                candidates.push(c);
            }
        }
        match candidates.into_iter().find(|c| !c.items.is_empty() && check(c).is_err()) {
            Some(smaller) => case = smaller,
            None => return case,
        }
    }
}

#[test]
fn random_programs_agree_slice_for_slice_on_both_engines() {
    let strategy = arb_case();
    let mut rng = TestRng::deterministic();
    let (mut crossings, mut denials, mut events, mut patches) = (0u64, 0usize, 0usize, 0usize);
    for n in 0..CASES {
        let case = strategy.generate(&mut rng);
        match check(&case) {
            Ok((c, d, e)) => {
                crossings += c;
                denials += d;
                events += e;
            }
            Err(_) => {
                // Quiet the panics the shrinker's probes may raise.
                std::panic::set_hook(Box::new(|_| {}));
                let small = shrink(case);
                let why = check(&small).expect_err("shrinking keeps the failure");
                let _ = std::panic::take_hook();
                panic!("case {n}: engines diverged at {why}\nshrunk case: {small:#?}");
            }
        }
        patches += case.items.iter().filter(|i| matches!(i, Item::Patch(_))).count();
    }
    // The generator must actually reach what the test is for.
    assert!(crossings > 1_000, "only {crossings} domain crossings over all cases");
    assert!(denials > 20, "only {denials} denied callee stores over all cases");
    assert!(events > 500, "only {events} trace events over all cases");
    assert!(patches > 50, "only {patches} self-patching stores over all cases");
}
