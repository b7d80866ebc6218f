//! Shared harness of the engine-differential tests: a two-domain world
//! built on a chosen engine, a kernel-style slice driver, and the snapshot
//! of everything the simulation can observe after a slice.

#![allow(dead_code)] // each test binary uses its own subset

use cdvm::{CostModel, Cpu, RunExit, StepEvent};
use codoms::apl::{Apl, Perm};
use codoms::cap::RevocationTable;
use simmem::{DomainTag, Memory, PageFlags, TlbStats};

pub const CODE: u64 = 0x10_000;
pub const DATA: u64 = 0x20_000;
pub const FAR: u64 = 0x40_000;

/// The two engines every differential test compares, reference first.
pub const ENGINES: [bool; 2] = [false, true];

/// Names an engine in assertion messages.
pub fn engine_name(fast: bool) -> &'static str {
    if fast {
        "fast"
    } else {
        "reference"
    }
}

/// Runs `build` with the engine switch forced to `fast`. The switch is
/// process-global and sampled by `Cpu::new`, so whatever is
/// constructed inside keeps that engine; the lock keeps concurrently
/// running tests from constructing under each other's choice.
pub fn on_engine<T>(fast: bool, build: impl FnOnce() -> T) -> T {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cdvm::set_fastpath(Some(fast));
    let built = build();
    cdvm::set_fastpath(None);
    built
}

pub struct World {
    pub mem: Memory,
    pub cpu: Cpu,
    pub rev: RevocationTable,
    pub cost: CostModel,
    /// The OS's copy of domain 1's and domain 2's APLs, from which
    /// [`drive`] refills the CPU's APL cache on a miss.
    pub apls: [Apl; 2],
}

/// Everything the simulation can observe about the CPU after one slice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snap {
    pub exit: RunExit,
    pub cycles: u64,
    pub pc: u64,
    pub regs: [u64; 32],
    pub retired: u64,
    pub cur_dom: DomainTag,
    pub crossings: u64,
    pub itlb: TlbStats,
    pub dtlb: TlbStats,
    pub apl: (u64, u64),
}

/// A fresh two-domain world on the chosen engine: `CODE` (domain 1, two
/// pages with `code_flags`) holds `caller`, `FAR` (domain 2, one RX page)
/// holds `callee`, `DATA` is two RW pages of domain 1; domain 1 may read
/// (and so enter anywhere in) domain 2, domain 2 may write domain 1.
pub fn world(caller: &[u8], callee: &[u8], code_flags: PageFlags, fast: bool) -> World {
    let (mut mem, mut cpu) = on_engine(fast, || (Memory::new(), Cpu::new(0)));
    let pt = Memory::GLOBAL_PT;
    mem.map_anon(pt, CODE, 2, code_flags, DomainTag(1));
    mem.kwrite(pt, CODE, caller).unwrap();
    mem.map_anon(pt, FAR, 1, PageFlags::RX, DomainTag(2));
    mem.kwrite(pt, FAR, callee).unwrap();
    mem.map_anon(pt, DATA, 2, PageFlags::RW, DomainTag(1));
    cpu.pc = CODE;
    cpu.cur_dom = DomainTag(1);
    cpu.thread = 1;
    let mut to2 = Apl::new();
    to2.set(DomainTag(2), Perm::Read);
    let mut back = Apl::new();
    back.set(DomainTag(1), Perm::Write);
    let apls = [to2, back];
    cpu.apl_cache.fill(DomainTag(1), apls[0].clone());
    cpu.apl_cache.fill(DomainTag(2), apls[1].clone());
    World { mem, cpu, rev: RevocationTable::new(), cost: CostModel::default(), apls }
}

/// Runs the world to `Halt` in slices, the way the kernel does: before
/// each slice `next_width` may disturb the world (a mutator schedule) and
/// says how many cycles the slice gets; a fault is "handled" by skipping
/// the faulting instruction, an `Ecall` by returning, an APL miss by
/// refilling from [`World::apls`]. Returns one snapshot per slice.
pub fn drive(w: &mut World, mut next_width: impl FnMut(&mut World) -> u64) -> Vec<Snap> {
    let mut snaps = Vec::new();
    loop {
        let deadline = w.cpu.cycles + next_width(w);
        let exit = w.cpu.run(&mut w.mem, &mut w.rev, &w.cost, deadline);
        snaps.push(Snap {
            exit,
            cycles: w.cpu.cycles,
            pc: w.cpu.pc,
            regs: w.cpu.regs,
            retired: w.cpu.retired,
            cur_dom: w.cpu.cur_dom,
            crossings: w.cpu.domain_crossings,
            itlb: w.cpu.itlb.stats(),
            dtlb: w.cpu.dtlb.stats(),
            apl: w.cpu.apl_cache.stats(),
        });
        match exit.event {
            StepEvent::Halt => return snaps,
            StepEvent::Fault(f) => w.cpu.pc = f.pc + 8,
            StepEvent::Retired | StepEvent::Ecall => {}
            StepEvent::AplMiss(tag) => {
                let apl = w.apls[tag.0 as usize - 1].clone();
                w.cpu.apl_cache.fill(tag, apl);
            }
        }
        assert!(snaps.len() < 200_000, "program does not terminate");
    }
}
