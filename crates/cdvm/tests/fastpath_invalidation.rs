//! Invalidation correctness of the fast engine: once its caches are warm
//! (superblocks and chain hints, crossing descriptors, the operand cache),
//! every kind of mapping, content or
//! authority mutation must be visible to the very next fetch. Each test
//! warms the caches by running a program, mutates state mid-run, and
//! asserts the CPU behaves as if no cache existed — by running the same
//! scenario on the reference interpreter, which has none, and demanding
//! the identical outcome.
//!
//! Checked by mutation: removing any of the places that drop the
//! run-scoped operand memo — at a crossing, before stepping an unblockable
//! PC, before `Sysret`/`PtSwitch` — fails the matching `memo_*` test
//! below, and removing the domain from the `dcache` slot index fails
//! `dcache::tests::one_page_from_two_domains_hits_in_both_once_warm`.

mod common;

use cdvm::isa::reg::*;
use cdvm::{Asm, CostModel, Cpu, FaultKind, HostCacheStats, Instr, StepEvent};
use codoms::apl::{Apl, Perm};
use codoms::cap::{CapKind, Capability, RevocationTable};
use common::{engine_name, on_engine, ENGINES};
use simmem::{DomainTag, MemFault, Memory, PageFlags, PAGE_SIZE};

const CODE: u64 = 0x10_000;

/// A machine on the chosen engine: every `(base, flags, domain, code)`
/// page mapped and filled, the CPU (thread 1, in domain 1) at the first.
fn machine(fast: bool, pages: &[(u64, PageFlags, u32, &[u8])]) -> (Memory, Cpu) {
    let (mut mem, mut cpu) = on_engine(fast, || (Memory::new(), Cpu::new(0)));
    for &(base, flags, dom, code) in pages {
        mem.map_anon(Memory::GLOBAL_PT, base, 1, flags, DomainTag(dom));
        mem.kwrite(Memory::GLOBAL_PT, base, code).unwrap();
    }
    cpu.pc = pages[0].0;
    cpu.cur_dom = DomainTag(1);
    cpu.thread = 1;
    (mem, cpu)
}

/// Makes domain `from`'s APL resident with exactly the grant `to: perm`
/// (`Perm::Nil`: resident and empty).
fn grant(cpu: &mut Cpu, from: u32, to: u32, perm: Perm) {
    let mut apl = Apl::new();
    apl.set(DomainTag(to), perm);
    cpu.apl_cache.fill(DomainTag(from), apl);
}

struct Env {
    fast: bool,
    mem: Memory,
    cpu: Cpu,
    rev: RevocationTable,
}

impl Env {
    fn new(code: &[u8], fast: bool) -> Env {
        let (mem, cpu) = machine(fast, &[(CODE, PageFlags::RX, 1, code)]);
        Env { fast, mem, cpu, rev: RevocationTable::new() }
    }

    /// Runs from the current PC to the next event.
    fn run(&mut self) -> StepEvent {
        run_to_event(&mut self.cpu, &mut self.mem, &mut self.rev)
    }

    /// Runs the program at `CODE` to `Halt` twice, so that on the fast
    /// engine the second pass is served from the block cache.
    fn warm(&mut self) {
        for _ in 0..2 {
            self.cpu.pc = CODE;
            assert_eq!(self.run(), StepEvent::Halt);
        }
        if self.fast {
            let b = self.cpu.block_stats();
            assert!(b.fills > 0 && b.hits > 0, "the warm-up must be served from blocks: {b:?}");
        }
    }
}

fn program(value: i32) -> Vec<u8> {
    let mut a = Asm::new();
    a.push(Instr::Movi { rd: A0, imm: value });
    // A few extra retired instructions so the warmed page gets real hits.
    for _ in 0..8 {
        a.push(Instr::Nop);
    }
    a.push(Instr::Halt);
    a.finish().bytes
}

#[test]
fn write_to_exec_page_is_seen_by_next_fetch() {
    // Self-modifying code: dIPC patches proxy templates at runtime (§6.1.1),
    // so a store to an already-executed page must invalidate its decoded
    // block via the code epoch.
    for fast in ENGINES {
        let mut env = Env::new(&program(1), fast);
        env.warm();
        assert_eq!(env.cpu.reg(A0), 1);

        env.mem.kwrite(Memory::GLOBAL_PT, CODE, &program(2)).unwrap();
        env.cpu.pc = CODE;
        assert_eq!(env.run(), StepEvent::Halt);
        assert_eq!(env.cpu.reg(A0), 2, "stale decoded block served after code write");
    }
}

#[test]
fn remap_mid_run_swaps_the_code_page() {
    // Unmap + remap puts a different frame under the same vpn; the table
    // generation bump must invalidate both the translation and the decoded
    // block.
    for fast in ENGINES {
        let mut env = Env::new(&program(1), fast);
        env.warm();

        env.mem.unmap(Memory::GLOBAL_PT, CODE, 1);
        env.mem.map_anon(Memory::GLOBAL_PT, CODE, 1, PageFlags::RX, DomainTag(1));
        env.mem.kwrite(Memory::GLOBAL_PT, CODE, &program(3)).unwrap();
        env.cpu.pc = CODE;
        assert_eq!(env.run(), StepEvent::Halt);
        assert_eq!(env.cpu.reg(A0), 3, "stale decoded block served after remap");
    }
}

#[test]
fn recycled_frame_does_not_serve_stale_code() {
    // Freeing the code frame and reallocating (the slab recycles frame
    // numbers) must not resurrect the old decoded block.
    for fast in ENGINES {
        let mut env = Env::new(&program(1), fast);
        env.warm();

        env.mem.unmap(Memory::GLOBAL_PT, CODE, 1);
        // The very next alloc reuses the freed frame number.
        env.mem.map_anon(Memory::GLOBAL_PT, CODE, 1, PageFlags::RX, DomainTag(1));
        env.mem.kwrite(Memory::GLOBAL_PT, CODE, &program(4)).unwrap();
        env.cpu.pc = CODE;
        assert_eq!(env.run(), StepEvent::Halt);
        assert_eq!(env.cpu.reg(A0), 4);
    }
}

#[test]
fn protect_removes_exec_from_cached_page() {
    for fast in ENGINES {
        let mut env = Env::new(&program(1), fast);
        env.warm();

        env.mem.table_mut(Memory::GLOBAL_PT).protect(CODE, PageFlags::READ);
        env.cpu.pc = CODE;
        match env.run() {
            StepEvent::Fault(f) => {
                assert_eq!(f.pc, CODE);
                assert!(
                    matches!(f.kind, FaultKind::Mem(MemFault::Protection { .. })),
                    "expected protection fault, got {:?}",
                    f.kind
                );
            }
            ev => panic!("cached translation bypassed protect: {ev:?}"),
        }
    }
}

#[test]
fn set_tag_on_cached_page_triggers_domain_check() {
    // Re-tagging the code page mid-run (dom_remap, Table 2) turns the next
    // fetch into a domain crossing, which an empty APL must deny. A stale
    // cached Pte would skip the check entirely.
    for fast in ENGINES {
        let mut env = Env::new(&program(1), fast);
        env.cpu.apl_cache.fill(DomainTag(1), Apl::new());
        env.warm();

        env.mem.table_mut(Memory::GLOBAL_PT).set_tag(CODE, DomainTag(2));
        env.cpu.pc = CODE;
        match env.run() {
            StepEvent::Fault(f) => {
                assert!(
                    matches!(f.kind, FaultKind::Codoms(_)),
                    "expected CODOMs denial after re-tag, got {:?}",
                    f.kind
                );
            }
            ev => panic!("cached tag bypassed the crossing check: {ev:?}"),
        }
    }
}

#[test]
fn undecodable_slot_faults_with_exact_byte_on_hot_page() {
    // A page with cached blocks that holds garbage at one slot must raise
    // the same BadInstr fault (carrying the first raw byte) as the
    // reference — on the first visit and again from the cached step-only
    // entry.
    let mut a = Asm::new();
    a.push(Instr::Movi { rd: A0, imm: 7 });
    a.push(Instr::Halt);
    let mut bytes = a.finish().bytes;
    bytes.extend_from_slice(&[0xee; 8]); // undecodable slot 2
    for fast in ENGINES {
        let mut env = Env::new(&bytes, fast);
        env.warm();

        // Jump straight at the garbage slot on the now-cached page.
        for _ in 0..2 {
            env.cpu.pc = CODE + 16;
            match env.run() {
                StepEvent::Fault(f) => {
                    assert_eq!(f.pc, CODE + 16);
                    assert_eq!(f.kind, FaultKind::BadInstr(0xee));
                }
                ev => panic!("expected BadInstr, got {ev:?}"),
            }
        }
    }
}

#[test]
fn misaligned_fetch_cannot_spill_into_unmapped_page() {
    // An 8-byte fetch starting 4 bytes before the end of the last mapped
    // page would read into the unmapped neighbour; it must fault cleanly.
    for fast in ENGINES {
        let mut env = Env::new(&program(1), fast);
        env.cpu.pc = CODE + PAGE_SIZE - 4;
        match env.run() {
            StepEvent::Fault(f) => {
                assert!(matches!(f.kind, FaultKind::Mem(MemFault::Unmapped { .. })));
            }
            ev => panic!("expected unmapped fault, got {ev:?}"),
        }
    }
}

#[test]
fn misaligned_fetch_cannot_spill_into_foreign_domain() {
    // Same, but the neighbour page is mapped executable under another
    // domain: the straddling fetch is a hidden crossing and must be denied.
    for fast in ENGINES {
        let mut env = Env::new(&program(1), fast);
        env.mem.map_anon(Memory::GLOBAL_PT, CODE + PAGE_SIZE, 1, PageFlags::RX, DomainTag(2));
        env.cpu.apl_cache.fill(DomainTag(1), Apl::new());
        env.cpu.pc = CODE + PAGE_SIZE - 4;
        match env.run() {
            StepEvent::Fault(f) => {
                assert!(
                    matches!(f.kind, FaultKind::Codoms(_)),
                    "straddling fetch must be checked, got {:?}",
                    f.kind
                );
            }
            ev => panic!("expected CODOMs fault, got {ev:?}"),
        }
    }
}

#[test]
fn reference_engine_touches_no_host_cache() {
    // The reference interpreter is the specification: it translates and
    // decodes every fetch from scratch. A run with loads, stores, a byte
    // access, an atomic, a `MemCpy` and a domain crossing must leave every
    // host-cache counter at zero, and a remap or re-tag between two slices
    // is seen by the next fetch with nothing to invalidate.
    const DATA: u64 = 0x20_000;
    const FAR: u64 = 0x70_000;
    let mut a = Asm::new();
    a.li(T0, DATA);
    a.li(T1, DATA + 512);
    a.li(T2, 64);
    a.push(Instr::St { rs1: T0, rs2: T2, imm: 0 });
    a.push(Instr::Ld { rd: A0, rs1: T0, imm: 0 });
    a.push(Instr::Stb { rs1: T0, rs2: T2, imm: 9 });
    a.push(Instr::Amoadd { rd: A1, rs1: T0, rs2: T2 });
    a.push(Instr::MemCpy { rd: T1, rs1: T0, rs2: T2 });
    let here = a.here();
    a.push(Instr::Jal { rd: 0, imm: (FAR - (CODE + here)) as i32 });
    let caller = a.finish().bytes;
    let callee = |v: i32| {
        let mut a = Asm::new();
        a.push(Instr::Movi { rd: A2, imm: v });
        a.push(Instr::Halt);
        a.finish().bytes
    };

    let mut env = Env::new(&caller, false);
    let pt = Memory::GLOBAL_PT;
    env.mem.map_anon(pt, DATA, 1, PageFlags::RW, DomainTag(1));
    env.mem.map_anon(pt, FAR, 1, PageFlags::RX, DomainTag(2));
    env.mem.kwrite(pt, FAR, &callee(5)).unwrap();
    grant(&mut env.cpu, 1, 2, Perm::Read);
    assert_eq!(env.run(), StepEvent::Halt);
    assert_eq!((env.cpu.reg(A0), env.cpu.reg(A2), env.cpu.domain_crossings), (64, 5, 1));
    assert_eq!(env.cpu.host_cache_stats(), HostCacheStats::default());
    assert_eq!(env.mem.code_epoch(), 0, "no frame was ever marked as code");

    // Remap the callee between two slices: the new bytes run.
    env.mem.unmap(pt, FAR, 1);
    env.mem.map_anon(pt, FAR, 1, PageFlags::RX, DomainTag(2));
    env.mem.kwrite(pt, FAR, &callee(6)).unwrap();
    (env.cpu.pc, env.cpu.cur_dom) = (CODE, DomainTag(1));
    assert_eq!(env.run(), StepEvent::Halt);
    assert_eq!(env.cpu.reg(A2), 6);

    // Re-tag it to a domain the caller holds no grant for: denied.
    env.mem.table_mut(pt).set_tag(FAR, DomainTag(3));
    (env.cpu.pc, env.cpu.cur_dom) = (CODE, DomainTag(1));
    let ev = env.run();
    assert!(
        matches!(ev, StepEvent::Fault(f) if f.pc == FAR && matches!(f.kind, FaultKind::Codoms(_))),
        "{ev:?}"
    );
    assert_eq!(env.cpu.host_cache_stats(), HostCacheStats::default());
}

// ---------------------------------------------------------------------
// Cross-CPU invalidation on the SMP model that ships: two CPUs share one
// `Memory` and one `RevocationTable` and are time-sliced alternately, as
// `simkernel::Kernel::run_cpu` does. One CPU's code mutation must be
// visible to the other CPU's very next slice.
// ---------------------------------------------------------------------

const CODE2: u64 = 0x50_000;

/// Two CPUs (threads 1 and 2, domain 1) over shared memory.
struct Smp {
    cpus: [Cpu; 2],
    mem: Memory,
    rev: RevocationTable,
    cost: CostModel,
    halted: [bool; 2],
}

impl Smp {
    /// Builds `world` and both CPUs on the chosen engine.
    fn new(fast: bool, world: impl FnOnce() -> Memory, pcs: [u64; 2]) -> Smp {
        let (mem, cpus) = on_engine(fast, || (world(), [0, 1].map(Cpu::new)));
        let cpus = cpus.map(|mut cpu| {
            cpu.pc = pcs[cpu.index];
            cpu.cur_dom = DomainTag(1);
            cpu.thread = 1 + cpu.index as u64;
            cpu
        });
        Smp {
            cpus,
            mem,
            rev: RevocationTable::new(),
            cost: CostModel::default(),
            halted: [false; 2],
        }
    }

    /// Gives each live CPU one 2 000-cycle slice, CPU 0 first.
    fn round(&mut self) {
        for (cpu, halted) in self.cpus.iter_mut().zip(&mut self.halted) {
            if !*halted {
                let exit = cpu.run(&mut self.mem, &mut self.rev, &self.cost, cpu.cycles + 2_000);
                *halted = exit.event == StepEvent::Halt;
            }
        }
    }

    fn all_halted(&self) -> bool {
        self.halted == [true; 2]
    }

    /// Rounds until both CPUs halt (at most `max`); returns the count.
    fn run_to_halt(&mut self, max: u64) -> u64 {
        let mut rounds = 0;
        while !self.all_halted() && rounds < max {
            self.round();
            rounds += 1;
        }
        rounds
    }
}

/// Encodes a single instruction to its 8 bytes.
fn encode(i: Instr) -> [u8; 8] {
    let mut a = Asm::new();
    a.push(i);
    a.finish().bytes[..8].try_into().unwrap()
}

/// CPU 1's program at `CODE2`: overwrite the instruction at `CODE` with
/// `Movi a0, 2`, then halt.
fn patcher() -> Vec<u8> {
    let patched = u64::from_le_bytes(encode(Instr::Movi { rd: A0, imm: 2 }));
    let mut a = Asm::new();
    a.li(T1, patched);
    a.li(T2, CODE);
    a.push(Instr::St { rs1: T2, rs2: T1, imm: 0 });
    a.push(Instr::Halt);
    a.finish().bytes
}

/// The cross-CPU patch world: at `CODE` a loop that spins until its first
/// instruction (the patch site) yields `a0 == 2`; at `CODE2` the
/// [`patcher`].
fn patch_world() -> Memory {
    let mut a = Asm::new();
    a.label("loop");
    a.push(Instr::Movi { rd: A0, imm: 1 }); // patch site (CODE + 0)
    a.li(T0, 2);
    a.beq(A0, T0, "done");
    a.j("loop");
    a.label("done");
    a.push(Instr::Halt);
    let spin = a.finish().bytes;

    let mut mem = Memory::new();
    let pt = Memory::GLOBAL_PT;
    mem.map_anon(pt, CODE, 1, PageFlags::RWX, DomainTag(1));
    mem.kwrite(pt, CODE, &spin).unwrap();
    mem.map_anon(pt, CODE2, 1, PageFlags::RX, DomainTag(1));
    mem.kwrite(pt, CODE2, &patcher()).unwrap();
    mem
}

#[test]
fn cross_cpu_code_patch_is_seen_in_the_peers_next_slice() {
    // CPU 1 patches an instruction CPU 0 is executing in a hot loop
    // (dIPC-style run-time proxy patching, but from another CPU). CPU 0's
    // block formation marked the frame as code, so the store bumps the
    // code epoch, forcing CPU 0's blocks to revalidate in its next slice —
    // which makes it leave the loop in the same round, at the same cycle,
    // as the reference.
    let mut outcomes = Vec::new();
    for fast in ENGINES {
        let mut m = Smp::new(fast, patch_world, [CODE, CODE2]);
        let rounds = m.run_to_halt(1_000);
        assert!(m.all_halted(), "spin never saw the patch ({})", engine_name(fast));
        assert_eq!(m.cpus[0].reg(A0), 2, "stale decoded block after cross-CPU patch");
        if fast {
            let b = m.cpus[0].block_stats();
            assert!(b.hits > 0, "spin loop should have hit the block cache");
        }
        outcomes.push((rounds, m.cpus[0].cycles, m.cpus[0].retired, m.cpus[1].cycles));
    }
    assert_eq!(outcomes[0], outcomes[1], "fast engine diverged from the reference");
}

#[test]
fn remap_between_slices_halts_all_cpus_via_generation_bump() {
    // A kernel-level page flip between slices (unmap + remap of the page
    // both CPUs execute from) must invalidate every CPU's cached
    // translation and decoded block: the fresh frame is filled with
    // `Halt`, so any stale fetch would keep spinning forever.
    let mut a = Asm::new();
    a.label("loop");
    a.push(Instr::Addi { rd: T0, rs1: T0, imm: 1 });
    a.j("loop");
    let spin = a.finish().bytes;
    let pt = Memory::GLOBAL_PT;

    for fast in ENGINES {
        let world = || {
            let mut mem = Memory::new();
            mem.map_anon(pt, CODE, 1, PageFlags::RX, DomainTag(1));
            mem.kwrite(pt, CODE, &spin).unwrap();
            mem
        };
        let mut m = Smp::new(fast, world, [CODE, CODE]);
        // Warm both CPUs' caches for two rounds.
        m.round();
        m.round();
        assert!(!m.all_halted());
        if fast {
            for c in &m.cpus {
                assert!(c.block_stats().hits > 0, "cpu{} never hit its block cache", c.index);
            }
        }

        m.mem.unmap(pt, CODE, 1);
        m.mem.map_anon(pt, CODE, 1, PageFlags::RX, DomainTag(1));
        let halts: Vec<u8> = encode(Instr::Halt).repeat((PAGE_SIZE / 8) as usize);
        m.mem.kwrite(pt, CODE, &halts).unwrap();

        m.round();
        assert!(m.all_halted(), "stale translation survived the remap ({})", engine_name(fast));
    }
}

// ---------------------------------------------------------------------
// Superblock-engine invalidation: the block cache must revalidate at
// every entry (including chained entries), bail mid-block on
// self-modification, and re-run the CODOMs crossing check — which sees
// revocation-epoch bumps — on every chained transfer. Each scenario runs
// on the reference and on the fast engine and must end identically.
// ---------------------------------------------------------------------

const CODE3: u64 = 0x30_000;

/// Runs `cpu` through `Cpu::run` (so a fast-engine CPU dispatches blocks)
/// until an event, with a generous cycle budget.
fn run_to_event(cpu: &mut Cpu, mem: &mut Memory, rev: &mut RevocationTable) -> StepEvent {
    let cost = CostModel::default();
    let exit = cpu.run(mem, rev, &cost, cpu.cycles + 50_000_000);
    assert!(!exit.deadline, "program did not reach an event");
    exit.event
}

#[test]
fn store_into_own_block_bails_and_executes_patched_tail() {
    // A single straight-line block stores over one of its *own* later
    // instructions (run-time proxy patching compressed into one block).
    // The engine must abort at the store and re-form from fresh bytes so
    // the patched instruction — not the decoded-at-entry one — executes.
    let patched = u64::from_le_bytes(Instr::Movi { rd: A0, imm: 222 }.encode());
    let patch_addr = CODE + 5 * 8; // the `Movi a0, 111` below
    let mut a = Asm::new();
    a.push(Instr::Movi { rd: T1, imm: patched as u32 as i32 });
    a.push(Instr::Movhi { rd: T1, imm: (patched >> 32) as u32 as i32 });
    a.push(Instr::Movi { rd: T0, imm: patch_addr as u32 as i32 });
    a.push(Instr::Movhi { rd: T0, imm: (patch_addr >> 32) as u32 as i32 });
    a.push(Instr::St { rs1: T0, rs2: T1, imm: 0 });
    a.push(Instr::Movi { rd: A0, imm: 111 }); // overwritten by the store
    a.push(Instr::Halt);
    let code = a.finish().bytes;

    let mut outcomes = Vec::new();
    for fast in ENGINES {
        let (mut mem, mut cpu) = machine(fast, &[(CODE, PageFlags::RWX, 1, &code)]);
        let mut rev = RevocationTable::new();
        let ev = run_to_event(&mut cpu, &mut mem, &mut rev);
        assert_eq!(ev, StepEvent::Halt);
        assert_eq!(cpu.reg(A0), 222, "stale block tail executed ({})", engine_name(fast));
        if fast {
            assert!(cpu.block_stats().bails >= 1, "expected a mid-block bail");
        }
        outcomes.push((ev, cpu.cycles, cpu.retired, cpu.reg(A0)));
    }
    assert_eq!(outcomes[0], outcomes[1], "block engine diverged from interpreter");
}

#[test]
fn remapped_chain_target_is_reformed_not_followed() {
    // Block A ends in a direct jump to page B and the A→B chain hint is
    // warm; remapping B (new frame, new code) bumps the table generation,
    // so the chained entry must re-form B instead of running stale code.
    let mut a = Asm::new();
    a.push(Instr::Jal { rd: 0, imm: (CODE3 - CODE) as i32 });
    let jump = a.finish().bytes;
    let body = |v: i32| {
        let mut a = Asm::new();
        a.push(Instr::Movi { rd: A0, imm: v });
        a.push(Instr::Halt);
        a.finish().bytes
    };

    for fast in ENGINES {
        let pages = [(CODE, PageFlags::RX, 1, &jump[..]), (CODE3, PageFlags::RX, 1, &body(5))];
        let (mut mem, mut cpu) = machine(fast, &pages);
        let pt = Memory::GLOBAL_PT;
        let mut rev = RevocationTable::new();
        // Two warm runs: the second takes the A→B edge through the hint.
        for _ in 0..2 {
            cpu.pc = CODE;
            assert_eq!(run_to_event(&mut cpu, &mut mem, &mut rev), StepEvent::Halt);
            assert_eq!(cpu.reg(A0), 5);
        }
        if fast {
            assert!(cpu.block_stats().chains >= 1, "warm jump should chain");
        }
        mem.unmap(pt, CODE3, 1);
        mem.map_anon(pt, CODE3, 1, PageFlags::RX, DomainTag(1));
        mem.kwrite(pt, CODE3, &body(7)).unwrap();
        cpu.pc = CODE;
        assert_eq!(run_to_event(&mut cpu, &mut mem, &mut rev), StepEvent::Halt);
        assert_eq!(cpu.reg(A0), 7, "stale chained block survived remap ({})", engine_name(fast));
    }
}

#[test]
fn revocation_between_chained_blocks_faults_at_the_crossing() {
    // Domain 1's only authority to enter domain 2 is a synchronous
    // capability. The dom-2 block revokes it (CapRevoke) and control
    // bounces back through dom 1 to the same entry — which is exactly the
    // chained A→B transfer the engine has a warm hint for. The chained
    // entry must still run the full crossing check and deny the jump,
    // cycle-identically with the interpreter.
    let mut a = Asm::new();
    a.push(Instr::Jal { rd: 0, imm: (CODE3 - CODE) as i32 });
    let enter = a.finish().bytes;
    let mut a = Asm::new();
    a.push(Instr::CapRevoke);
    a.push(Instr::Jal { rd: 0, imm: (CODE as i64 - (CODE3 + 8) as i64) as i32 });
    let revoke_and_return = a.finish().bytes;

    let mut outcomes = Vec::new();
    for fast in ENGINES {
        let pages =
            [(CODE, PageFlags::RX, 1, &enter[..]), (CODE3, PageFlags::RX, 2, &revoke_and_return)];
        let (mut mem, mut cpu) = machine(fast, &pages);
        // Dom 1 has no APL grant into dom 2; only the sync capability
        // authorises the crossing. Dom 2 returns via a plain APL grant.
        grant(&mut cpu, 1, 2, Perm::Nil);
        grant(&mut cpu, 2, 1, Perm::Read);
        cpu.caps[0] = Some(Capability {
            base: CODE3,
            len: PAGE_SIZE,
            perm: Perm::Read,
            kind: CapKind::Sync { owner: 1, epoch: 0 },
            origin: DomainTag(2),
        });
        let mut rev = RevocationTable::new();
        let ev = run_to_event(&mut cpu, &mut mem, &mut rev);
        match ev {
            StepEvent::Fault(f) => {
                assert_eq!(f.pc, CODE3, "denial must land on the re-entry");
                assert!(
                    matches!(f.kind, FaultKind::Codoms(_)),
                    "expected CODOMs denial after revocation, got {:?}",
                    f.kind
                );
            }
            ev => panic!("revoked crossing was allowed ({}): {ev:?}", engine_name(fast)),
        }
        assert_eq!(cpu.domain_crossings, 2, "one entry, one return before the denial");
        outcomes.push((ev, cpu.cycles, cpu.retired, cpu.domain_crossings));
    }
    assert_eq!(outcomes[0], outcomes[1], "fast engine diverged from the reference");
}

#[test]
fn smp_cross_cpu_patch_invalidates_chained_blocks() {
    // The cross-CPU patch scenario seen from the block cache: CPU 0's spin
    // loop runs as chained superblocks, CPU 1's store bumps the code epoch
    // (CPU 0's block formation marked the frame as code), and CPU 0 must
    // re-form — not chain into — its stale loop blocks in its next slice.
    let mut m = Smp::new(true, patch_world, [CODE, CODE2]);
    m.run_to_halt(1_000);
    assert!(m.all_halted(), "spin never saw the patch");
    assert_eq!(m.cpus[0].reg(A0), 2, "stale chained block after cross-CPU patch");
    let b = m.cpus[0].block_stats();
    assert!(b.chains > 0, "spin loop should have chained");
    // At least the loop blocks' initial formation plus the post-patch
    // re-formation.
    assert!(b.fills >= 3, "expected re-formation after the patch, stats: {b:?}");
}

// ---------------------------------------------------------------------
// Crossing-descriptor invalidation: a block whose entry edge crosses
// domains carries a pre-validated crossing descriptor, and
// chained re-entries replay it instead of re-running the full CODOMs
// check. Every source of authority change — APL content, page tags,
// mappings, capability revocation — must still be observed on the very
// next crossing, identically to the interpreter.
// ---------------------------------------------------------------------

const FAR: u64 = 0x70_000;

/// A two-domain ping-pong: domain 1 at `CODE` jumps into domain 2 at
/// `FAR`; domain 2 counts iterations in T4 and either jumps back or
/// halts after `iters`.
fn ping_pong(iters: u64) -> (Vec<u8>, Vec<u8>) {
    let mut a = Asm::new();
    a.push(Instr::Addi { rd: T3, rs1: T3, imm: 1 });
    let here = a.here();
    a.push(Instr::Jal { rd: 0, imm: (FAR - (CODE + here)) as i32 });
    let caller = a.finish().bytes;
    let mut a = Asm::new();
    a.push(Instr::Addi { rd: T4, rs1: T4, imm: 1 });
    a.li(T5, iters);
    a.beq(T4, T5, "done");
    let here = a.here();
    a.push(Instr::Jal { rd: 0, imm: (CODE as i64 - (FAR + here) as i64) as i32 });
    a.label("done");
    a.push(Instr::Halt);
    (caller, a.finish().bytes)
}

/// Builds the two-domain world with APL grants both ways, runs the warm
/// ping-pong to `Halt`, applies `mutate`, resets the CPU to `CODE`, and
/// runs again. Returns the post-mutation outcome. On the fast engine the
/// warm phase must actually have served crossing descriptors.
fn crossing_scenario(
    fast: bool,
    mutate: impl FnOnce(&mut Cpu, &mut Memory),
) -> (StepEvent, u64, u64, u64) {
    let (caller, callee) = ping_pong(200);
    let pages = [(CODE, PageFlags::RX, 1, &caller[..]), (FAR, PageFlags::RX, 2, &callee)];
    let (mut mem, mut cpu) = machine(fast, &pages);
    grant(&mut cpu, 1, 2, Perm::Read);
    grant(&mut cpu, 2, 1, Perm::Read);
    let mut rev = RevocationTable::new();
    assert_eq!(run_to_event(&mut cpu, &mut mem, &mut rev), StepEvent::Halt, "warm run");
    if fast {
        assert!(cpu.block_stats().cross_hits > 0, "warm crossings must be served by descriptors");
    }
    mutate(&mut cpu, &mut mem);
    cpu.pc = CODE;
    cpu.cur_dom = DomainTag(1); // the warm run halted inside domain 2
    cpu.set_reg(T4, 0); // reset the callee's iteration counter
    let ev = run_to_event(&mut cpu, &mut mem, &mut rev);
    (ev, cpu.cycles, cpu.retired, cpu.domain_crossings)
}

/// Runs `mutate` on both engines and asserts the post-mutation outcome
/// (event, cycles, retired, crossings) is identical; returns the common
/// outcome for scenario-specific checks.
fn assert_crossing_identical(
    name: &str,
    mutate: impl Fn(&mut Cpu, &mut Memory) + Copy,
) -> (StepEvent, u64, u64, u64) {
    let base = crossing_scenario(false, mutate);
    assert_eq!(crossing_scenario(true, mutate), base, "{name}: fast engine diverged");
    base
}

#[test]
fn apl_change_between_crossings_is_honored() {
    // Replacing domain 1's APL with one that no longer grants domain 2
    // bumps the APL-cache version; a warm descriptor for the 1→2 edge
    // must not be served and the re-checked crossing must be denied.
    let (ev, ..) = assert_crossing_identical("apl-change", |cpu, _mem| {
        cpu.apl_cache.update(DomainTag(1), Apl::new());
    });
    match ev {
        StepEvent::Fault(f) => {
            assert_eq!(f.pc, FAR, "denial must land on the crossing entry");
            assert!(matches!(f.kind, FaultKind::Codoms(_)), "expected denial, got {:?}", f.kind);
        }
        ev => panic!("revoked APL grant still crossed: {ev:?}"),
    }
}

#[test]
fn retag_of_crossing_target_is_honored() {
    // Re-tagging the callee page to a third domain makes the warm 1→2
    // descriptor refer to an edge that no longer exists; domain 1 has no
    // grant into domain 3, so the crossing must be denied.
    let (ev, ..) = assert_crossing_identical("retag", |_cpu, mem| {
        mem.table_mut(Memory::GLOBAL_PT).set_tag(FAR, DomainTag(3));
    });
    match ev {
        StepEvent::Fault(f) => {
            assert_eq!(f.pc, FAR);
            assert!(matches!(f.kind, FaultKind::Codoms(_)), "expected denial, got {:?}", f.kind);
        }
        StepEvent::AplMiss(tag) => assert_eq!(tag, DomainTag(1)),
        ev => panic!("re-tagged page still entered as domain 2: {ev:?}"),
    }
}

#[test]
fn remap_of_crossing_target_is_rechecked_and_allowed() {
    // Remapping the callee page (same tag, fresh frame, fresh code that
    // halts immediately) re-forms the block; the re-run crossing check
    // passes and execution runs the *new* bytes.
    let (ev, _, _, crossings) = assert_crossing_identical("remap", |_cpu, mem| {
        let pt = Memory::GLOBAL_PT;
        mem.unmap(pt, FAR, 1);
        mem.map_anon(pt, FAR, 1, PageFlags::RX, DomainTag(2));
        let mut a = Asm::new();
        a.push(Instr::Halt);
        mem.kwrite(pt, FAR, &a.finish().bytes).unwrap();
    });
    assert_eq!(ev, StepEvent::Halt, "remapped same-tag target must still be enterable");
    // Warm phase: 200 entries + 199 returns; post-mutation: one entry.
    assert_eq!(crossings, 400, "exactly one crossing after the remap");
}

#[test]
fn smp_cross_cpu_epoch_bump_invalidates_crossing_blocks() {
    // CPU 0 spins through a two-domain loop (CODE in domain 1 jumps into
    // FAR in domain 2, which jumps back), so its hot blocks carry warm
    // crossing descriptors on both edges. CPU 1 patches the spin's exit
    // condition; the store bumps the code epoch, which must re-form the
    // crossing blocks — re-running the CODOMs checks — rather than serve
    // stale descriptors. The simulated outcome must be identical on the
    // reference.
    let world = || {
        let mut a = Asm::new();
        a.push(Instr::Movi { rd: A0, imm: 1 }); // patch site (CODE + 0)
        a.li(T0, 2);
        a.beq(A0, T0, "done");
        let here = a.here();
        a.push(Instr::Jal { rd: 0, imm: (FAR - (CODE + here)) as i32 });
        a.label("done");
        a.push(Instr::Halt);
        let spin = a.finish().bytes;
        let bounce = Instr::Jal { rd: 0, imm: (CODE as i64 - FAR as i64) as i32 }.encode().to_vec();

        let mut mem = Memory::new();
        let pt = Memory::GLOBAL_PT;
        mem.map_anon(pt, CODE, 1, PageFlags::RWX, DomainTag(1));
        mem.kwrite(pt, CODE, &spin).unwrap();
        mem.map_anon(pt, FAR, 1, PageFlags::RX, DomainTag(2));
        mem.kwrite(pt, FAR, &bounce).unwrap();
        mem.map_anon(pt, CODE2, 1, PageFlags::RX, DomainTag(1));
        mem.kwrite(pt, CODE2, &patcher()).unwrap();
        mem
    };
    let mut outcomes = Vec::new();
    for fast in ENGINES {
        let mut m = Smp::new(fast, world, [CODE, CODE2]);
        for cpu in &mut m.cpus {
            grant(cpu, 1, 2, Perm::Read);
            grant(cpu, 2, 1, Perm::Read);
        }
        let rounds = m.run_to_halt(1_000);
        assert!(m.all_halted(), "spin never saw the patch ({})", engine_name(fast));
        assert_eq!(m.cpus[0].reg(A0), 2, "stale crossing block after cross-CPU patch");
        if fast {
            let b = m.cpus[0].block_stats();
            assert!(b.cross_hits > 0, "spin loop should have served crossing descriptors");
        }
        outcomes.push((
            rounds,
            m.cpus[0].cycles,
            m.cpus[0].retired,
            m.cpus[0].domain_crossings,
            m.cpus[0].reg(A0),
        ));
    }
    assert_eq!(outcomes[0], outcomes[1], "fast engine diverged from the reference");
}

// ---------------------------------------------------------------------
// Mid-block resume invalidation: a run that hits its deadline inside a
// block leaves a resume point, and the next run re-enters the block at
// that instruction — but only if nothing it depends on moved between the
// two runs. Each attack below strikes exactly in that gap and must leave
// the CPU where the interpreter ends up.
// ---------------------------------------------------------------------

/// What authorises domain 1's jump into domain 2 in a resume scenario.
#[derive(Clone, Copy)]
enum Entry {
    /// APL `Read`: any address of domain 2 may be entered.
    AplRead,
    /// APL `Call`: only gate-aligned addresses may be entered.
    AplCall,
    /// No APL grant; a synchronous capability over the callee page.
    SyncCap,
}

/// Pages of one-instruction blocks (always-taken branches to the next
/// slot), enough distinct entries to refill every block-cache way.
const SWEEP: u64 = 0x80_000;
const SWEEP_PAGES: u64 = 4;

/// Domain 1 at `CODE`: twelve `A0 += 1`, then a jump to `FAR`; domain 2 at
/// `FAR`: twelve `A1 += 1`, then `Halt`. After a warm run to `Halt` (so
/// every block is cached and both crossing edges carry descriptors) the
/// CPU restarts at `CODE` with a deadline `first_slice` cycles away — one
/// cycle per instruction, so it stops before instruction `first_slice` of
/// the 26 — then `attack` strikes and the run continues to an event.
/// Returns the final event, cycles, retired, crossings since the warm run,
/// A0..A2, and how many resumes the engine took.
fn resume_scenario(
    fast: bool,
    entry: Entry,
    first_slice: u64,
    attack: impl FnOnce(&mut Cpu, &mut Memory, &mut RevocationTable),
) -> ((StepEvent, u64, u64, u64, [u64; 3]), u64) {
    let mut a = Asm::new();
    for _ in 0..12 {
        a.push(Instr::Addi { rd: A0, rs1: A0, imm: 1 });
    }
    let here = a.here();
    a.push(Instr::Jal { rd: 0, imm: (FAR - (CODE + here)) as i32 });
    let caller = a.finish().bytes;
    let mut a = Asm::new();
    for _ in 0..12 {
        a.push(Instr::Addi { rd: A1, rs1: A1, imm: 1 });
    }
    a.push(Instr::Halt);
    let callee = a.finish().bytes;

    let pages = [(CODE, PageFlags::RX, 1, &caller[..]), (FAR, PageFlags::RX, 2, &callee)];
    let (mut mem, mut cpu) = machine(fast, &pages);
    let pt = Memory::GLOBAL_PT;
    mem.map_anon(pt, SWEEP, SWEEP_PAGES, PageFlags::RX, DomainTag(1));
    let slots = SWEEP_PAGES * PAGE_SIZE / 8;
    for s in 0..slots {
        let i = if s + 1 == slots { Instr::Halt } else { Instr::Beq { rs1: 0, rs2: 0, imm: 8 } };
        mem.kwrite(pt, SWEEP + s * 8, &i.encode()).unwrap();
    }
    match entry {
        Entry::AplRead => grant(&mut cpu, 1, 2, Perm::Read),
        Entry::AplCall => grant(&mut cpu, 1, 2, Perm::Call),
        Entry::SyncCap => {
            grant(&mut cpu, 1, 2, Perm::Nil);
            cpu.caps[0] = Some(Capability {
                base: FAR,
                len: PAGE_SIZE,
                perm: Perm::Read,
                kind: CapKind::Sync { owner: 1, epoch: 0 },
                origin: DomainTag(2),
            })
        }
    }
    grant(&mut cpu, 2, 1, Perm::Nil);
    let mut rev = RevocationTable::new();
    let cost = CostModel::default();

    assert_eq!(run_to_event(&mut cpu, &mut mem, &mut rev), StepEvent::Halt, "warm run");
    let warm_crossings = cpu.domain_crossings;
    cpu.pc = CODE;
    cpu.cur_dom = DomainTag(1);
    cpu.regs = [0; 32];
    let exit = cpu.run(&mut mem, &mut rev, &cost, cpu.cycles + first_slice);
    assert!(exit.deadline && exit.retired == first_slice, "first slice: {exit:?}");
    let before = cpu.block_stats();
    assert_eq!(before.resumes, 0);
    if fast {
        assert!(before.budgeted >= 1, "the first slice must end inside a budgeted block");
    }
    attack(&mut cpu, &mut mem, &mut rev);
    let ev = run_to_event(&mut cpu, &mut mem, &mut rev);
    let regs = [cpu.reg(A0), cpu.reg(A1), cpu.reg(A2)];
    let crossings = cpu.domain_crossings - warm_crossings;
    ((ev, cpu.cycles, cpu.retired, crossings, regs), cpu.block_stats().resumes)
}

/// Runs one attack on both engines, demands the reference's outcome of the
/// fast engine, and checks whether the block engine took the resume
/// (`resumed`) or rejected it. Returns the common outcome.
fn assert_resume_identical(
    name: &str,
    entry: Entry,
    first_slice: u64,
    resumed: bool,
    attack: impl Fn(&mut Cpu, &mut Memory, &mut RevocationTable) + Copy,
) -> (StepEvent, u64, u64, u64, [u64; 3]) {
    let (base, _) = resume_scenario(false, entry, first_slice, attack);
    let (got, resumes) = resume_scenario(true, entry, first_slice, attack);
    assert_eq!(got, base, "{name}: diverged from the reference");
    assert_eq!(resumes, resumed as u64, "{name}: resume taken/rejected wrongly");
    base
}

/// A page of `Halt`s: whatever PC lands on it stops at once.
fn halt_page() -> Vec<u8> {
    Instr::Halt.encode().repeat((PAGE_SIZE / 8) as usize)
}

#[test]
fn undisturbed_resume_is_taken_and_identical() {
    // The control: nothing happens between the slices, in the caller's
    // block and in the callee's.
    for first_slice in [5, 18] {
        let (ev, _, _, crossings, regs) =
            assert_resume_identical("control", Entry::AplRead, first_slice, true, |_, _, _| {});
        assert_eq!((ev, crossings, regs), (StepEvent::Halt, 1, [12, 12, 0]));
    }
}

#[test]
fn resume_sees_a_patch_of_the_unexecuted_tail() {
    // (a) code epoch: instruction 10 of the block left at instruction 5 is
    // rewritten between the slices; the patched instruction must execute.
    let (ev, .., regs) =
        assert_resume_identical("tail-patch", Entry::AplRead, 5, false, |_, m, _| {
            let patched = Instr::Addi { rd: A2, rs1: A2, imm: 7 }.encode();
            m.kwrite(Memory::GLOBAL_PT, CODE + 10 * 8, &patched).unwrap();
        });
    assert_eq!((ev, regs), (StepEvent::Halt, [11, 12, 7]));
}

#[test]
fn resume_sees_unmap_remap_retag_and_reprotect_of_its_page() {
    // (b) table generation. Remap: fresh frame, fresh code.
    let (ev, _, _, crossings, regs) =
        assert_resume_identical("remap", Entry::AplRead, 5, false, |_, m, _| {
            let pt = Memory::GLOBAL_PT;
            m.unmap(pt, CODE, 1);
            m.map_anon(pt, CODE, 1, PageFlags::RX, DomainTag(1));
            m.kwrite(pt, CODE, &halt_page()).unwrap();
        });
    assert_eq!((ev, crossings, regs), (StepEvent::Halt, 0, [5, 0, 0]));
    // Unmap: the next fetch faults.
    let (ev, ..) = assert_resume_identical("unmap", Entry::AplRead, 5, false, |_, m, _| {
        m.unmap(Memory::GLOBAL_PT, CODE, 1);
    });
    assert!(
        matches!(ev, StepEvent::Fault(f) if f.pc == CODE + 40 && matches!(f.kind, FaultKind::Mem(MemFault::Unmapped { .. }))),
        "{ev:?}"
    );
    // Re-tag: the page now belongs to a domain the thread has no grant to.
    let (ev, ..) = assert_resume_identical("retag", Entry::AplRead, 5, false, |_, m, _| {
        m.table_mut(Memory::GLOBAL_PT).set_tag(CODE, DomainTag(3));
    });
    assert!(
        matches!(ev, StepEvent::Fault(f) if f.pc == CODE + 40 && matches!(f.kind, FaultKind::Codoms(_))),
        "{ev:?}"
    );
    // Re-protect: execute permission is gone.
    let (ev, ..) = assert_resume_identical("reprotect", Entry::AplRead, 5, false, |_, m, _| {
        m.table_mut(Memory::GLOBAL_PT).protect(CODE, PageFlags::READ);
    });
    assert!(
        matches!(ev, StepEvent::Fault(f) if f.pc == CODE + 40 && matches!(f.kind, FaultKind::Mem(MemFault::Protection { .. }))),
        "{ev:?}"
    );
}

#[test]
fn resume_is_dropped_when_its_slot_was_refilled() {
    // (c) fill sequence: between the slices the CPU runs thousands of
    // other one-instruction blocks, which refill every cache way; back at
    // the saved PC the resume point names a slot that now holds another
    // block and must be ignored.
    let (ev, _, _, crossings, regs) =
        assert_resume_identical("refill", Entry::AplRead, 5, false, |cpu, m, rev| {
            let saved = (cpu.pc, cpu.regs);
            cpu.pc = SWEEP;
            assert_eq!(run_to_event(cpu, m, rev), StepEvent::Halt, "sweep");
            (cpu.pc, cpu.regs) = saved;
        });
    assert_eq!((ev, crossings, regs), (StepEvent::Halt, 1, [12, 12, 0]));
}

#[test]
fn resume_is_dropped_on_a_context_switch() {
    // (d) another thread at a different PC: the block's own entry.
    let (ev, .., regs) =
        assert_resume_identical("other-pc", Entry::AplRead, 5, false, |cpu, _, _| cpu.pc = CODE);
    assert_eq!((ev, regs), (StepEvent::Halt, [17, 12, 0]));
    // Another thread at the same PC under another page table, where that
    // address holds other code.
    let (ev, _, _, crossings, regs) =
        assert_resume_identical("other-pt", Entry::AplRead, 5, false, |cpu, m, _| {
            let pt2 = m.new_page_table();
            m.map_anon(pt2, CODE, 1, PageFlags::RX, DomainTag(1));
            m.kwrite(pt2, CODE, &halt_page()).unwrap();
            cpu.active_pt = pt2;
            cpu.itlb.flush();
            cpu.dtlb.flush();
        });
    assert_eq!((ev, crossings, regs), (StepEvent::Halt, 0, [5, 0, 0]));
}

#[test]
fn resumed_entry_from_another_domain_runs_the_full_check_at_the_real_pc() {
    // (d) another thread at the same PC but in another domain. The first
    // slice ends inside the callee's block (domain 2), whose cache way
    // carries a crossing descriptor proven for the 1→2 edge at the
    // gate-aligned entry `FAR`. A domain-1 thread scheduled at the
    // mid-block PC resumes the (perfectly valid) block, but must not be
    // waved through on that descriptor: domain 1 only holds `Call`, and
    // the real PC is not a gate.
    assert!(!(FAR + 40).is_multiple_of(codoms::ENTRY_ALIGN));
    let (ev, ..) = assert_resume_identical("other-dom", Entry::AplCall, 18, true, |cpu, _, _| {
        cpu.cur_dom = DomainTag(1)
    });
    match ev {
        StepEvent::Fault(f) => {
            assert_eq!(f.pc, FAR + 40);
            assert!(
                matches!(f.kind, FaultKind::Codoms(codoms::CheckError::BadEntryAlign { .. })),
                "expected a gate-alignment fault, got {:?}",
                f.kind
            );
        }
        ev => panic!("mid-block entry from another domain was allowed: {ev:?}"),
    }
}

#[test]
fn resume_then_crossing_sees_the_revoked_capability() {
    // (e) the capability that granted the (descriptor-cached) crossing is
    // revoked between the slices: the resumed caller block finishes, and
    // the chained crossing it ends in must be denied.
    let (ev, _, _, crossings, regs) =
        assert_resume_identical("revoke", Entry::SyncCap, 5, true, |_, _, rev| rev.revoke_all(1));
    assert!(
        matches!(ev, StepEvent::Fault(f) if f.pc == FAR && matches!(f.kind, FaultKind::Codoms(_))),
        "{ev:?}"
    );
    assert_eq!((crossings, regs), (0, [12, 0, 0]));
}

// ---------------------------------------------------------------------
// Run-scoped operand memo: the fast engine keeps the last load/store's
// dcache decision for a whole `Cpu::run` and drops it where the context
// of that decision changes (a crossing, `Sysret`, `PtSwitch`, a stepped
// instruction). Each scenario reaches the second access inside one run,
// after a context change the memo must not survive; all but the stepped
// one over a *chained* edge.
// ---------------------------------------------------------------------

const MEMO_DATA: u64 = 0x90_000;

/// What a memo scenario ends in: event, cycles, retired, `A0`, `A1`.
type MemoOutcome = (StepEvent, u64, u64, u64, u64);

/// Runs the program twice from `reset`: the first run forms both blocks
/// and records the chain hint of the edge between them, the second must
/// take that edge chained on the fast engine. Returns the second run's
/// outcome.
fn twice_chained(
    fast: bool,
    mem: &mut Memory,
    cpu: &mut Cpu,
    reset: impl Fn(&mut Cpu),
) -> MemoOutcome {
    let mut rev = RevocationTable::new();
    reset(cpu);
    run_to_event(cpu, mem, &mut rev);
    reset(cpu);
    let chains = cpu.block_stats().chains;
    let ev = run_to_event(cpu, mem, &mut rev);
    if fast {
        assert!(cpu.block_stats().chains > chains, "the second access must be reached chained");
    }
    (ev, cpu.cycles, cpu.retired, cpu.reg(A0), cpu.reg(A1))
}

/// Runs `scenario` on both engines and demands the identical outcome.
fn assert_memo_identical(name: &str, scenario: impl Fn(bool) -> MemoOutcome) -> MemoOutcome {
    let reference = scenario(false);
    assert_eq!(scenario(true), reference, "{name}: fast engine diverged from the reference");
    reference
}

/// Domain 1 loads its own data page and jumps to `entry` in domain 2,
/// which may be entered but holds no grant on domain 1's data; domain 2's
/// load of that page at `load` must fault there. With `chained` the fast
/// engine must reach `load` over a chained edge (see [`twice_chained`]);
/// otherwise the program runs once.
fn assert_denied_after_crossing(name: &str, entry: u64, callee: &[u8], load: u64, chained: bool) {
    let mut a = Asm::new();
    a.li(S0, MEMO_DATA);
    a.push(Instr::Ld { rd: A0, rs1: S0, imm: 0 });
    let here = a.here();
    a.push(Instr::Jal { rd: 0, imm: (entry - (CODE + here)) as i32 });
    let caller = a.finish().bytes;

    let (ev, ..) = assert_memo_identical(name, |fast| {
        let pages = [
            (CODE, PageFlags::RX, 1, &caller[..]),
            (FAR, PageFlags::RX, 2, callee),
            (MEMO_DATA, PageFlags::RW, 1, &[7u8; 16]),
        ];
        let (mut mem, mut cpu) = machine(fast, &pages);
        grant(&mut cpu, 1, 2, Perm::Read);
        grant(&mut cpu, 2, 1, Perm::Nil);
        if chained {
            twice_chained(fast, &mut mem, &mut cpu, |cpu| {
                cpu.pc = CODE;
                cpu.cur_dom = DomainTag(1);
            })
        } else {
            let ev = run_to_event(&mut cpu, &mut mem, &mut RevocationTable::new());
            (ev, cpu.cycles, cpu.retired, cpu.reg(A0), cpu.reg(A1))
        }
    });
    match ev {
        StepEvent::Fault(f) => {
            assert_eq!(f.pc, load, "{name}: the denial must land on the callee's load");
            assert!(matches!(f.kind, FaultKind::Codoms(_)), "expected a denial, got {:?}", f.kind);
        }
        ev => panic!("{name}: domain 2 read domain 1's data without a grant: {ev:?}"),
    }
}

#[test]
fn memo_does_not_cross_into_a_domain_without_the_data_grant() {
    let mut a = Asm::new();
    a.push(Instr::Ld { rd: A1, rs1: S0, imm: 8 });
    a.push(Instr::Halt);
    assert_denied_after_crossing("chained", FAR, &a.finish().bytes, FAR, true);
}

#[test]
fn memo_does_not_survive_a_stepped_crossing() {
    // The entry is a misaligned PC, which no block covers: `Cpu::step`
    // crosses and executes a jump there to the aligned block that loads.
    let mut callee = vec![0u8; 4];
    callee.extend_from_slice(&Instr::Jal { rd: 0, imm: 60 }.encode()); // to FAR + 64
    callee.resize(64, 0);
    callee.extend_from_slice(&Instr::Ld { rd: A1, rs1: S0, imm: 8 }.encode());
    callee.extend_from_slice(&Instr::Halt.encode());
    assert_denied_after_crossing("stepped", FAR + 4, &callee, FAR + 64, false);
}

#[test]
fn memo_does_not_survive_sysret() {
    // Kernel code stores to a read-only user page (kernel mode ignores
    // the protection bits) and `Sysret`s into user code of the same
    // domain, whose store to that page must fault on the protection bit.
    let mut a = Asm::new();
    a.li(S0, MEMO_DATA);
    a.push(Instr::St { rs1: S0, rs2: ZERO, imm: 0 });
    a.li(T0, CODE3);
    a.push(Instr::Sysret { rs1: T0 });
    let kernel = a.finish().bytes;
    let mut a = Asm::new();
    a.push(Instr::St { rs1: S0, rs2: S0, imm: 8 });
    a.push(Instr::Halt);
    let user = a.finish().bytes;

    let (ev, ..) = assert_memo_identical("sysret", |fast| {
        let pages = [
            (CODE, PageFlags::RX, 1, &kernel[..]),
            (CODE3, PageFlags::RX, 1, &user),
            (MEMO_DATA, PageFlags::READ, 1, &[]),
        ];
        let (mut mem, mut cpu) = machine(fast, &pages);
        twice_chained(fast, &mut mem, &mut cpu, |cpu| {
            cpu.pc = CODE;
            cpu.kernel_mode = true;
        })
    });
    match ev {
        StepEvent::Fault(f) => {
            assert_eq!(f.pc, CODE3, "the fault must land on the user store");
            assert!(
                matches!(f.kind, FaultKind::Mem(MemFault::Protection { .. })),
                "expected a protection fault, got {:?}",
                f.kind
            );
        }
        ev => panic!("user code wrote a read-only page through a kernel decision: {ev:?}"),
    }
}

#[test]
fn memo_does_not_survive_pt_switch() {
    // The same code and data addresses under two page tables whose data
    // frames differ: a load before `PtSwitch` and one after it must read
    // their own table's frame.
    let mut a = Asm::new();
    a.li(S0, MEMO_DATA);
    a.push(Instr::Ld { rd: A0, rs1: S0, imm: 0 });
    a.li(T0, 1); // the second page table's id
    a.push(Instr::PtSwitch { rs1: T0 });
    a.push(Instr::Ld { rd: A1, rs1: S0, imm: 0 });
    a.push(Instr::Halt);
    let code = a.finish().bytes;

    let (ev, _, _, a0, a1) = assert_memo_identical("pt-switch", |fast| {
        let pages = [(CODE, PageFlags::RX, 1, &code[..]), (MEMO_DATA, PageFlags::RW, 1, &[0x11])];
        let (mut mem, mut cpu) = machine(fast, &pages);
        let pt2 = mem.new_page_table();
        assert_eq!(pt2.0, 1);
        for (base, flags, bytes) in
            [(CODE, PageFlags::RX, &code[..]), (MEMO_DATA, PageFlags::RW, &[0x22])]
        {
            mem.map_anon(pt2, base, 1, flags, DomainTag(1));
            mem.kwrite(pt2, base, bytes).unwrap();
        }
        twice_chained(fast, &mut mem, &mut cpu, |cpu| {
            cpu.pc = CODE;
            cpu.kernel_mode = true;
            cpu.active_pt = Memory::GLOBAL_PT;
        })
    });
    assert_eq!((ev, a0, a1), (StepEvent::Halt, 0x11, 0x22), "each load reads its own table");
}
