//! The cdvm executor: per-CPU architectural state and the
//! fetch / check / execute loop.
//!
//! Every instruction fetch enforces CODOMs *code-centric* isolation: the
//! current domain is the domain of the page the PC is on; crossing into a
//! page of a different domain is a domain switch, checked against the APL
//! cache and the capability registers (with the Call-permission alignment
//! rule). Every data access is checked against the conventional page bits,
//! the APL, and the 8 capability registers.
//!
//! The executor reports, rather than handles, all software-visible events:
//! system calls, faults, and APL-cache misses (which the OS handles by
//! refilling the software-managed cache and resuming, §4.1).

use codoms::cap::{CapKind, Capability, RevocationTable, CAPABILITY_BYTES, CAP_REGS};
use codoms::check::{AccessDecision, CheckError, Checker};
use codoms::dcs::{Dcs, DcsError};
use codoms::{AplCache, Perm};
use simmem::page::{page_align_down, page_offset, vpn, Access};
use simmem::{DomainTag, MemFault, Memory, PageFlags, PageTableId, Pte, Tlb, PAGE_SIZE};

use crate::blocks::{BlockCache, BlockEnd, BlockStats, CrossDesc, CrossGrant, CrossProbe};
use crate::cost::CostModel;
use crate::dcache::{DCache, DGrant};
use crate::isa::{reg, Instr, INSTR_BYTES};
use crate::stats::{ExecStats, HostCacheStats};

/// A synchronous fault raised by the VM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// PC of the faulting instruction.
    pub pc: u64,
    /// What went wrong.
    pub kind: FaultKind,
}

/// Fault classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Page-level fault (unmapped / protection bits).
    Mem(MemFault),
    /// CODOMs check failure (APL/capability denial, bad entry alignment).
    Codoms(CheckError),
    /// Unknown opcode.
    BadInstr(u8),
    /// Privileged instruction without privilege.
    Privilege,
    /// DCS overflow/underflow.
    Dcs(DcsError),
    /// Invalid capability operation (widening restrict, empty register,
    /// malformed in-memory capability, zero-length take).
    CapInvalid,
    /// Plain data access touched a capability-storage page.
    CapTamper {
        /// The address of the attempted access.
        addr: u64,
    },
    /// Integer division by zero.
    DivZero,
    /// Explicit `Crash` instruction (models an application bug).
    Crash,
}

/// Outcome of a single step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepEvent {
    /// The instruction retired; execution can continue.
    Retired,
    /// `Ecall` executed; the PC already points at the next instruction.
    Ecall,
    /// `Halt` executed.
    Halt,
    /// APL-cache miss for the given domain; the OS must refill and resume
    /// (the faulting instruction has not executed and will be retried).
    AplMiss(DomainTag),
    /// A synchronous fault; the faulting instruction did not retire.
    Fault(Fault),
}

/// Outcome of [`Cpu::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunExit {
    /// Why the run stopped.
    pub event: StepEvent,
    /// Instructions retired during this run.
    pub retired: u64,
    /// True if the run stopped because the cycle deadline passed (event is
    /// `Retired` in that case).
    pub deadline: bool,
}

/// One simulated hardware thread (CPU core).
pub struct Cpu {
    /// CPU index (0-based).
    pub index: usize,
    /// General-purpose registers; `regs[0]` is hardwired to zero.
    pub regs: [u64; 32],
    /// Program counter.
    pub pc: u64,
    /// CODOMs capability registers.
    pub caps: [Option<Capability>; CAP_REGS],
    /// DCS register state.
    pub dcs: Dcs,
    /// Current protection domain (tag of the PC's page).
    pub cur_dom: DomainTag,
    /// Conventional kernel mode (used by non-CODOMs baselines and tests;
    /// grants privilege and bypasses CODOMs checks).
    pub kernel_mode: bool,
    /// Per-CPU base register (`gs`).
    pub gs: u64,
    /// Shadow `gs` swapped by `Swapgs`.
    pub shadow_gs: u64,
    /// Active page table.
    pub active_pt: PageTableId,
    /// This hardware thread's APL cache.
    pub apl_cache: AplCache,
    /// Instruction TLB (cost model only).
    pub itlb: Tlb,
    /// Data TLB (cost model only).
    pub dtlb: Tlb,
    /// Local cycle counter.
    pub cycles: u64,
    /// Kernel thread id currently executing (for sync-capability ownership).
    pub thread: u64,
    /// CODOMs checker configuration.
    pub checker: Checker,
    /// Total retired instructions (statistics).
    pub retired: u64,
    /// Per-class retirement statistics.
    pub exec_stats: ExecStats,
    /// Number of CODOMs domain crossings taken (fetches that switched the
    /// current domain) — the quantity behind the paper's "calls per
    /// operation" accounting in §7.5.
    pub domain_crossings: u64,
    /// Flags of the page the PC is currently on (updated at fetch).
    cur_page_flags: PageFlags,
    /// Cached `simtrace::enabled()`, sampled at construction and refreshed
    /// at every [`Cpu::run`], so the untraced hot loop performs no atomic
    /// check per instruction. Gates per-step trace events *and*
    /// [`ExecStats`] recording.
    instrument: bool,
    /// Cached `simfault::armed()`, refreshed alongside `instrument`. Gates
    /// the capability-revocation injection site so the untraced, unfaulted
    /// hot loop stays free of thread-local lookups.
    chaos: bool,
    /// Which engine [`Cpu::run`] uses (sampled from
    /// [`simmem::fastpath_enabled`] at construction): the fast engine —
    /// superblocks, crossing descriptors, the operand cache, threaded
    /// handlers — or the reference interpreter, which touches no host
    /// cache at all. Blocks only engage through [`Cpu::run`]; direct
    /// [`Cpu::step`] callers always fetch and decode from scratch.
    fast: bool,
    /// Superblock cache (see [`crate::blocks`]). Boxed so that
    /// [`Cpu::run`] detaches it for a dispatch run by moving one pointer;
    /// `None` only inside that run.
    bcache: Option<Box<BlockCache>>,
    /// Per-CPU memory-operand translation cache (see [`crate::dcache`]).
    dcache: DCache,
    /// Bounce buffer of `MemCpy`/`MemSet`, kept for its capacity.
    bulk: Vec<u8>,
    /// Cache-counter snapshot at the last simtrace export, so each
    /// [`Cpu::run`] emits deltas.
    reported: HostCacheStats,
}

/// One dcache decision held by the block dispatch loop for the whole of
/// one [`Cpu::run`]: a straight copy of the [`crate::dcache`] entry that
/// served (or was filled by) the most recent 8-byte load/store. A served
/// access replays exactly what a dcache hit replays (see
/// [`Cpu::dmemo_replay`]), and a `vpn` + direction-bit compare is the
/// whole per-access check, because the memo is dropped wherever the
/// context the decision was made in — domain, mode, page table, APL
/// content, table generation — can change inside a run:
///
/// * a crossing at a block entry (the domain), and one that [`Cpu::step`]
///   makes at a misaligned PC, which no block covers — the dispatch loop
///   drops the memo before it steps such a PC (a step-only entry never
///   retires: its bytes do not decode);
/// * `Sysret` (the mode) and `PtSwitch` (the page table), dropped before
///   they execute.
///
/// Nothing else moves that context during a run: the rest of the ISA
/// cannot, user → kernel entry is an `Ecall` event that ends the run, and
/// mapping changes, APL fills and updates and fault-injection flips all
/// happen in the kernel or the host between two `Cpu::run` calls (the run
/// holds `&mut Memory` and `&mut self`); each run starts without a memo.
/// A kernel-mode entry that retags `cur_dom` keeps the memo: kernel
/// decisions hold under any domain, as in the dcache. So a chained
/// same-domain edge keeps the memo, and a crossing, `Sysret` or
/// `PtSwitch` does not.
///
/// Recording the context in the memo and comparing it at every block
/// entry instead measured slower than not keeping the memo across blocks
/// at all (numbers under ROADMAP item 2).
#[derive(Clone, Copy)]
struct DMemo {
    vpn: u64,
    pte: Pte,
    grant: DGrant,
    read_ok: bool,
    write_ok: bool,
}

/// How one block execution ended (see `Cpu::exec_block`).
enum BlockOutcome {
    /// Ran to its terminator; the PC points at the successor.
    Done,
    /// Aborted mid-block after a code-epoch bump; the PC points at the
    /// next (unexecuted) instruction.
    Bailed,
    /// A step event stopped execution at the precise instruction.
    Event(StepEvent),
    /// A budgeted run reached the deadline before `instrs[index]`; the PC
    /// points at that (unexecuted) instruction.
    Deadline(usize),
}

impl Cpu {
    /// Creates a CPU with empty state.
    pub fn new(index: usize) -> Cpu {
        Cpu {
            index,
            regs: [0; 32],
            pc: 0,
            caps: [None; CAP_REGS],
            dcs: Dcs::new(0, 0),
            cur_dom: DomainTag::KERNEL,
            kernel_mode: false,
            gs: 0,
            shadow_gs: 0,
            active_pt: Memory::GLOBAL_PT,
            apl_cache: AplCache::new(),
            itlb: Tlb::default(),
            dtlb: Tlb::default(),
            cycles: 0,
            thread: 0,
            checker: Checker::default(),
            retired: 0,
            exec_stats: ExecStats::new(),
            domain_crossings: 0,
            cur_page_flags: PageFlags::empty(),
            instrument: simtrace::enabled(),
            chaos: simfault::armed(),
            fast: simmem::fastpath_enabled(),
            bcache: Some(Box::new(BlockCache::new())),
            dcache: DCache::new(),
            bulk: Vec::new(),
            reported: HostCacheStats::default(),
        }
    }

    /// Re-samples the cached instrumentation flag from `simtrace::enabled()`.
    /// [`Cpu::run`] does this automatically; call it manually when stepping a
    /// CPU directly after arming/disarming the tracer.
    #[inline]
    pub fn refresh_instrumentation(&mut self) {
        self.instrument = simtrace::enabled();
        self.chaos = simfault::armed();
    }

    /// Host-side superblock-cache counters.
    pub fn block_stats(&self) -> BlockStats {
        self.bcache.as_ref().expect("attached outside Cpu::run").stats()
    }

    /// The full host-side cache counter set (block cache + crossing
    /// descriptors + data-operand translation cache); all zero on the
    /// reference engine.
    pub fn host_cache_stats(&self) -> HostCacheStats {
        let b = self.block_stats();
        let (dcache_hits, dcache_misses) = self.dcache.stats();
        HostCacheStats {
            block_hits: b.hits,
            block_misses: b.misses,
            block_fills: b.fills,
            block_evicts: b.evicts,
            block_evict_conflicts: b.evict_conflicts,
            block_chains: b.chains,
            block_bails: b.bails,
            cross_hits: b.cross_hits,
            cross_misses: b.cross_misses,
            dcache_hits,
            dcache_misses,
            ..HostCacheStats::default()
        }
    }

    /// Exports the cache-counter deltas since the previous export as
    /// `host.*` simtrace counters (these appear only in the metrics
    /// summary, never in the Chrome/folded trace streams). Called at the
    /// end of every traced [`Cpu::run`].
    fn export_cache_stats(&mut self) {
        let now = self.host_cache_stats();
        let d = now.delta(&self.reported);
        for (name, v) in [
            ("host.block_hits", d.block_hits),
            ("host.block_misses", d.block_misses),
            ("host.block_fills", d.block_fills),
            ("host.block_evicts", d.block_evicts),
            ("host.block_evict_conflict", d.block_evict_conflicts),
            ("host.block_chains", d.block_chains),
            ("host.block_bails", d.block_bails),
            ("host.cross_hits", d.cross_hits),
            ("host.cross_misses", d.cross_misses),
            ("host.dcache_hits", d.dcache_hits),
            ("host.dcache_misses", d.dcache_misses),
        ] {
            if v > 0 {
                simtrace::counter(name, v);
            }
        }
        self.reported = now;
    }

    /// Reads a register (x0 reads as zero).
    #[inline]
    pub fn reg(&self, r: u8) -> u64 {
        if r == 0 {
            0
        } else {
            self.regs[r as usize]
        }
    }

    /// Writes a register (writes to x0 are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: u8, v: u64) {
        if r != 0 {
            self.regs[r as usize] = v;
        }
    }

    /// Runs until an event or until `self.cycles >= deadline`.
    ///
    /// Entered once per kernel slice (≈55 instructions on `prod`), so this
    /// wrapper and its two helpers inline into the caller's crate.
    #[inline]
    pub fn run(
        &mut self,
        mem: &mut Memory,
        rev: &mut RevocationTable,
        cost: &CostModel,
        deadline: u64,
    ) -> RunExit {
        self.refresh_instrumentation();
        let exit = if self.fast {
            self.run_blocks(mem, rev, cost, deadline)
        } else {
            self.run_interp(mem, rev, cost, deadline)
        };
        if self.instrument {
            self.export_cache_stats();
        }
        exit
    }

    /// The reference engine: one [`Cpu::step`] per instruction, the
    /// deadline compared before each.
    fn run_interp(
        &mut self,
        mem: &mut Memory,
        rev: &mut RevocationTable,
        cost: &CostModel,
        deadline: u64,
    ) -> RunExit {
        let mut retired = 0;
        while self.cycles < deadline {
            match self.step(mem, rev, cost) {
                StepEvent::Retired => retired += 1,
                ev => return RunExit { event: ev, retired, deadline: false },
            }
        }
        RunExit { event: StepEvent::Retired, retired, deadline: true }
    }

    /// The block-dispatch run loop: resolve a superblock at the PC (first
    /// the one the previous run left mid-way, if it is still valid),
    /// execute it — whole when its worst-case cost fits the deadline,
    /// otherwise budgeted, checking the deadline per instruction — and
    /// chain to the statically known successor while the budget holds. A
    /// PC no block can cover (misaligned, unmapped, undecodable) goes to
    /// [`Cpu::step`], which raises the exact fault.
    #[inline]
    fn run_blocks(
        &mut self,
        mem: &mut Memory,
        rev: &mut RevocationTable,
        cost: &CostModel,
        deadline: u64,
    ) -> RunExit {
        // Detach the block cache from the CPU for the whole dispatch run:
        // blocks are then borrowed *in place* from the detached cache while
        // `self` stays mutably borrowable.
        let mut bcache = self.bcache.take().expect("Cpu::run is not re-entered");
        let exit = self.run_blocks_detached(&mut bcache, mem, rev, cost, deadline);
        self.bcache = Some(bcache);
        exit
    }

    fn run_blocks_detached(
        &mut self,
        bcache: &mut BlockCache,
        mem: &mut Memory,
        rev: &mut RevocationTable,
        cost: &CostModel,
        deadline: u64,
    ) -> RunExit {
        let mut retired = 0u64;
        let mut dmemo = None;
        'dispatch: while self.cycles < deadline {
            // First the block the previous run left mid-way, if this run
            // starts at that PC and the block is still current.
            let pt = self.active_pt;
            let entry = bcache
                .resume(self.pc, pt, mem.table_generation(pt), mem.code_epoch())
                .or_else(|| self.lookup_or_form(bcache, mem, cost).map(|slot| (slot, 0)));
            let Some((mut slot, mut from)) = entry else {
                // Unblockable PC (misaligned, or unmapped — `step` raises
                // the exact fault). A misaligned PC may also execute, and
                // cross domains on its way: the memo does not survive it.
                dmemo = None;
                match self.step(mem, rev, cost) {
                    StepEvent::Retired => retired += 1,
                    ev => return RunExit { event: ev, retired, deadline: false },
                }
                continue;
            };
            loop {
                // A completed block (or chain) may have consumed the rest
                // of the budget; mirror the interpreter's per-step check.
                if self.cycles >= deadline {
                    return RunExit { event: StepEvent::Retired, retired, deadline: true };
                }
                let (step_only, max_cost) = {
                    let b = bcache.block_at(slot);
                    (b.instrs.is_empty(), b.max_cost)
                };
                if step_only {
                    match self.step(mem, rev, cost) {
                        StepEvent::Retired => retired += 1,
                        ev => return RunExit { event: ev, retired, deadline: false },
                    }
                    continue 'dispatch;
                }
                // When the block's worst case might cross the deadline it
                // runs budgeted (the deadline re-checked per instruction).
                let fits = self.cycles.saturating_add(max_cost) < deadline;
                let outcome = if fits && from == 0 {
                    self.exec_block(bcache, slot, 0, None, mem, rev, cost, &mut retired, &mut dmemo)
                } else {
                    let budget = (!fits).then_some(deadline);
                    self.exec_block_tail(
                        bcache,
                        slot,
                        from,
                        budget,
                        mem,
                        rev,
                        cost,
                        &mut retired,
                        &mut dmemo,
                    )
                };
                match outcome {
                    BlockOutcome::Event(ev) => {
                        return RunExit { event: ev, retired, deadline: false }
                    }
                    BlockOutcome::Bailed => {
                        bcache.note_bail();
                        continue 'dispatch;
                    }
                    BlockOutcome::Deadline(index) => {
                        bcache.park(slot, self.pc, index);
                        return RunExit { event: StepEvent::Retired, retired, deadline: true };
                    }
                    BlockOutcome::Done => from = 0,
                }
                // Chain across the static edge when the successor is known.
                match self.next_chained(bcache, slot, mem, cost) {
                    Some(s) => slot = s,
                    None => continue 'dispatch,
                }
            }
        }
        RunExit { event: StepEvent::Retired, retired, deadline: true }
    }

    /// Resolves the superblock entered at the current PC: cache lookup
    /// validated against the live table generation and code epoch, with
    /// formation (and `mark_code` of the backing frame, so later writes
    /// bump the epoch) on miss. `None` when no block can exist at this PC.
    fn lookup_or_form(
        &mut self,
        bcache: &mut BlockCache,
        mem: &mut Memory,
        cost: &CostModel,
    ) -> Option<usize> {
        let pc = self.pc;
        if !page_offset(pc).is_multiple_of(INSTR_BYTES) {
            return None;
        }
        let pt = self.active_pt;
        let table_gen = mem.table_generation(pt);
        let code_epoch = mem.code_epoch();
        if let Some(found) = bcache.lookup(pt, pc, table_gen, code_epoch) {
            return Some(found);
        }
        let pte = mem.translate(pt, pc, Access::Exec).ok()?;
        let page = mem.phys().frame_bytes(pte.frame);
        let slot = bcache.fill(pt, pc, table_gen, code_epoch, pte, page, cost);
        mem.phys_mut().mark_code(pte.frame);
        Some(slot)
    }

    /// Follows `block`'s successor edge to the block at the new PC,
    /// preferring the recorded chain hint and falling back to a cache
    /// probe (recording a fresh hint). Static edges (jump target, branch
    /// taken/fall-through) chain unconditionally; indirect ends chain
    /// through a last-target inline cache. Every chained entry revalidates
    /// the target against the current generation and epoch.
    fn next_chained(
        &mut self,
        bcache: &mut BlockCache,
        slot: usize,
        mem: &mut Memory,
        cost: &CostModel,
    ) -> Option<usize> {
        let pc = self.pc;
        let edge = match bcache.block_at(slot).end {
            BlockEnd::Jump { target } if target == pc => 0,
            BlockEnd::Branch { taken, .. } if taken == pc => 0,
            BlockEnd::Branch { fall, .. } if fall == pc => 1,
            // Indirect ends chain through a monomorphic inline cache: the
            // hint records the last observed target PC and only matches
            // when the dynamic target repeats (call/return pairs usually
            // do). A different target is a plain hint miss.
            BlockEnd::Dynamic => 0,
            _ => return None,
        };
        let pt = self.active_pt;
        let table_gen = mem.table_generation(pt);
        let code_epoch = mem.code_epoch();
        if let Some(found) = bcache.follow_hint(slot, edge, pc, pt, table_gen, code_epoch) {
            return Some(found);
        }
        let to_slot = self.lookup_or_form(bcache, mem, cost)?;
        bcache.set_hint(slot, edge, pc, to_slot);
        Some(to_slot)
    }

    /// Performs the per-entry validation the interpreter does per fetch —
    /// one real iTLB access (with its miss charge) and the CODOMs
    /// crossing check against the entry page — then executes the block
    /// body. All bookkeeping (crossing counters, trace events, fault
    /// injection, `ExecStats`, x0 hard-wiring) matches [`Cpu::step`]
    /// exactly; the batched iTLB hits for the non-entry fetches are
    /// settled through [`simmem::Tlb::note_hits`] on every exit path.
    ///
    /// A crossing into another domain first consults the crossing
    /// descriptor riding `slot`'s cache way: a previous execution of this
    /// edge recorded its validated decision, pinned to everything it
    /// depended on (source and target domains, the APL content version,
    /// and — for capability grants — the exact granting capability still
    /// being present and unrevoked). While those hold, the decision is
    /// replayed (including the one APL-cache probe the full check would
    /// have made) instead of re-derived; any mismatch falls back to the
    /// full [`codoms::check::Checker::check_jump`], which re-installs the
    /// descriptor on success.
    ///
    /// `from` is the first instruction to execute: 0, or a resume index —
    /// the PC is then a mid-block PC on the same page, so the entry phase
    /// applies unchanged except that the crossing descriptor (its
    /// call-gate alignment was proven for the entry PC only) is neither
    /// consulted nor installed. With a `budget`, the deadline is checked
    /// before every instruction after the first, as the interpreter does.
    ///
    /// `dmemo` is the run's operand memo (see [`DMemo`]); a crossing at
    /// the entry drops it.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn exec_block(
        &mut self,
        bcache: &mut BlockCache,
        slot: usize,
        from: usize,
        budget: Option<u64>,
        mem: &mut Memory,
        rev: &mut RevocationTable,
        cost: &CostModel,
        retired: &mut u64,
        dmemo: &mut Option<DMemo>,
    ) -> BlockOutcome {
        let pc = self.pc;
        let pte = bcache.block_at(slot).pte;
        debug_assert!(from > 0 || pc == bcache.block_at(slot).entry);
        if !self.itlb.access(self.active_pt, pc) {
            self.cycles += cost.tlb_miss;
        }
        if !self.kernel_mode && pte.tag != self.cur_dom {
            let xdesc = from == 0;
            let cached = xdesc
                && match bcache.cross_desc(slot) {
                    Some(d)
                        if d.from == self.cur_dom
                            && d.to == pte.tag
                            && d.apl_version == self.apl_cache.version()
                            && match d.grant {
                                CrossGrant::Apl => true,
                                CrossGrant::Cap { idx, cap } => {
                                    self.caps[idx as usize] == Some(cap)
                                        && rev.is_valid(&cap, self.thread)
                                }
                            } =>
                    {
                        match d.probe {
                            CrossProbe::Hit(hw) => self.apl_cache.touch(hw),
                            CrossProbe::Miss => self.apl_cache.note_miss(),
                        }
                        bcache.note_cross_hit();
                        true
                    }
                    _ => false,
                };
            if !cached {
                if xdesc {
                    bcache.note_cross_miss();
                }
                match self.checker.check_jump(
                    self.cur_dom,
                    &pte,
                    pc,
                    &mut self.apl_cache,
                    &self.caps,
                    rev,
                    self.thread,
                ) {
                    Ok(decision) => {
                        if xdesc {
                            self.install_cross_desc(bcache, slot, pte.tag, decision);
                        }
                    }
                    Err(CheckError::AplMiss { tag }) => {
                        return BlockOutcome::Event(StepEvent::AplMiss(tag))
                    }
                    Err(e) => return BlockOutcome::Event(self.fault(FaultKind::Codoms(e))),
                }
            }
            self.cur_dom = pte.tag;
            *dmemo = None;
            self.domain_crossings += 1;
            if self.instrument {
                simtrace::counter("apl_hit", 1);
                simtrace::domain_crossing(self.index, pc, self.cycles);
            }
            if self.chaos && simfault::should(simfault::Site::Revoke, self.cycles) {
                rev.revoke_all(self.thread);
            }
        } else if self.kernel_mode {
            self.cur_dom = pte.tag;
        }
        self.cur_page_flags = pte.flags;

        // The crossing phase above is done mutating the cache; borrow the
        // block body in place for the execution loops (disjoint from
        // `self`, so no handle clone is needed).
        let block = bcache.block_at(slot);

        let mut start = from;
        if !self.instrument {
            // The handlers keep x0 zeroed; zero it once up front so they
            // start from the same state the general loop maintains.
            self.regs[0] = 0;
            if budget.is_none() && block.pure_len > from {
                // Direct-threaded dispatch of the pure prefix: every
                // instruction in it provably retires with no event, no
                // memory access and no privilege check (see
                // [`crate::threaded`]), so the general loop's plumbing is
                // dead weight. (A budgeted run needs that loop's deadline
                // check; it dispatches the same handlers one by one.)
                for bi in &block.instrs[from..block.pure_len] {
                    crate::threaded::HANDLERS[bi.handler as usize](self, bi, cost);
                }
                let n = (block.pure_len - from) as u64;
                self.retired += n;
                *retired += n;
                start = block.pure_len;
            }
        }

        // Every exit settles the guaranteed iTLB hits of the fetches after
        // the entry's real access: `done - from`, less the entry itself.
        for (k, bi) in block.instrs.iter().enumerate().skip(start) {
            if k > from && budget.is_some_and(|deadline| self.cycles >= deadline) {
                self.itlb.note_hits(block.pt, block.entry, (k - 1 - from) as u64);
                return BlockOutcome::Deadline(k);
            }
            if bi.privileged
                && !self.kernel_mode
                && !self.cur_page_flags.contains(PageFlags::PRIV_CAP)
            {
                self.itlb.note_hits(block.pt, block.entry, (k - from) as u64);
                return BlockOutcome::Event(self.fault(FaultKind::Privilege));
            }
            // Pure instructions that sit *after* the first impure one (so
            // the prefix loop above could not reach them) still carry
            // their handler index: dispatch them through the same table
            // and skip the full `execute()` match. They provably retire
            // with no event, no memory write and no instrumentation to
            // record, so the rest of this iteration's plumbing is dead.
            if !self.instrument && bi.handler != 0 {
                crate::threaded::HANDLERS[bi.handler as usize](self, bi, cost);
                self.retired += 1;
                *retired += 1;
                continue;
            }
            // Loads and stores dominate real block bodies; dispatch them
            // straight to the shared op bodies (identical to the
            // `execute()` arms — they *are* the arms) without paying the
            // full-ISA match and its stack frame. They consult the run's
            // one-entry operand memo (see [`DMemo`]).
            let ev = match bi.instr {
                Instr::Ld { rd, rs1, imm } => {
                    self.cycles += cost.base;
                    match self.op_ld::<true>(mem, rev, cost, rd, rs1, imm, dmemo) {
                        Ok(()) => {
                            self.pc = self.pc.wrapping_add(INSTR_BYTES);
                            StepEvent::Retired
                        }
                        Err(ev) => ev,
                    }
                }
                Instr::St { rs1, rs2, imm } => {
                    self.cycles += cost.base;
                    match self.op_st::<true>(mem, rev, cost, rs1, rs2, imm, dmemo) {
                        Ok(()) => {
                            self.pc = self.pc.wrapping_add(INSTR_BYTES);
                            StepEvent::Retired
                        }
                        Err(ev) => ev,
                    }
                }
                Instr::Sysret { .. } | Instr::PtSwitch { .. } => {
                    // Leaves kernel mode / switches the page table.
                    *dmemo = None;
                    self.execute(bi.instr, mem, rev, cost)
                }
                _ => self.execute(bi.instr, mem, rev, cost),
            };
            match ev {
                StepEvent::Retired => {
                    self.retired += 1;
                    *retired += 1;
                    if self.instrument {
                        self.exec_stats.record(&bi.instr);
                    }
                    self.regs[0] = 0;
                    if bi.may_write && mem.code_epoch() != block.code_epoch {
                        // Self-modifying write: the rest of the block may
                        // be stale. The PC already points at the next
                        // instruction; re-dispatch from fresh bytes.
                        self.itlb.note_hits(block.pt, block.entry, (k - from) as u64);
                        return BlockOutcome::Bailed;
                    }
                }
                StepEvent::Ecall | StepEvent::Halt => {
                    // Counts toward `self.retired` but, like the interpreter
                    // loop, not toward the run's retired total.
                    self.retired += 1;
                    if self.instrument {
                        self.exec_stats.record(&bi.instr);
                    }
                    self.regs[0] = 0;
                    self.itlb.note_hits(block.pt, block.entry, (k - from) as u64);
                    return BlockOutcome::Event(ev);
                }
                ev => {
                    self.itlb.note_hits(block.pt, block.entry, (k - from) as u64);
                    return BlockOutcome::Event(ev);
                }
            }
        }
        self.itlb.note_hits(block.pt, block.entry, (block.instrs.len() - 1 - from) as u64);
        BlockOutcome::Done
    }

    /// [`Cpu::exec_block`] for a resumed and/or budgeted run, out of line:
    /// the whole-block call in the run loop then inlines with `from = 0`
    /// and no budget folded in, so the hot loop carries none of this
    /// plumbing (in line it cost 4–10 % on long-slice dIPC call loops).
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn exec_block_tail(
        &mut self,
        bcache: &mut BlockCache,
        slot: usize,
        from: usize,
        budget: Option<u64>,
        mem: &mut Memory,
        rev: &mut RevocationTable,
        cost: &CostModel,
        retired: &mut u64,
        dmemo: &mut Option<DMemo>,
    ) -> BlockOutcome {
        if budget.is_some() {
            bcache.note_budgeted();
        }
        self.exec_block(bcache, slot, from, budget, mem, rev, cost, retired, dmemo)
    }

    /// Builds the crossing descriptor for a just-passed full check on
    /// `slot`'s block edge and installs it on the cache way. `SelfDomain`
    /// cannot reach here (the caller only checks when the tags differ)
    /// and a capability decision whose register was cleared in the same
    /// instant is unreachable too; both degrade to "don't cache".
    fn install_cross_desc(
        &mut self,
        bcache: &mut BlockCache,
        slot: usize,
        to: DomainTag,
        decision: AccessDecision,
    ) {
        let grant = match decision {
            AccessDecision::Apl(_) => Some(CrossGrant::Apl),
            AccessDecision::Cap(i) => self.caps[i].map(|cap| CrossGrant::Cap { idx: i as u8, cap }),
            AccessDecision::SelfDomain => None,
        };
        let Some(grant) = grant else { return };
        // The full check just ran, so whether the source domain's APL sits
        // in the cache right now is exactly whether its lookup hit.
        let probe = match self.apl_cache.hw_tag(self.cur_dom) {
            Some(hw) => CrossProbe::Hit(hw),
            None => CrossProbe::Miss,
        };
        bcache.set_cross_desc(
            slot,
            CrossDesc {
                from: self.cur_dom,
                to,
                apl_version: self.apl_cache.version(),
                probe,
                grant,
            },
        );
    }

    /// Executes a single instruction.
    pub fn step(
        &mut self,
        mem: &mut Memory,
        rev: &mut RevocationTable,
        cost: &CostModel,
    ) -> StepEvent {
        // --- Fetch ---
        // Translated and decoded from scratch every time: this is the
        // specification the block engine is tested against.
        let pc = self.pc;
        let pte = match mem.translate(self.active_pt, pc, Access::Exec) {
            Ok(p) => p,
            Err(f) => return self.fault(FaultKind::Mem(f)),
        };
        if !self.itlb.access(self.active_pt, pc) {
            self.cycles += cost.tlb_miss;
        }
        if !self.kernel_mode && pte.tag != self.cur_dom {
            // Domain crossing: code-centric check.
            match self.checker.check_jump(
                self.cur_dom,
                &pte,
                pc,
                &mut self.apl_cache,
                &self.caps,
                rev,
                self.thread,
            ) {
                Ok(_) => {
                    self.cur_dom = pte.tag;
                    self.domain_crossings += 1;
                    if self.instrument {
                        simtrace::counter("apl_hit", 1);
                        simtrace::domain_crossing(self.index, pc, self.cycles);
                    }
                    // Fault injection: revoke this thread's synchronous
                    // capabilities *between* the passed crossing check and
                    // any later use (e.g. the proxy return capability) —
                    // the revocation race the paper's unwind path must
                    // absorb. The crossing itself stays valid.
                    if self.chaos && simfault::should(simfault::Site::Revoke, self.cycles) {
                        rev.revoke_all(self.thread);
                    }
                }
                Err(CheckError::AplMiss { tag }) => return StepEvent::AplMiss(tag),
                Err(e) => return self.fault(FaultKind::Codoms(e)),
            }
        } else if self.kernel_mode {
            self.cur_dom = pte.tag;
        }
        self.cur_page_flags = pte.flags;

        // A misaligned PC can make the 8-byte fetch spill into the next
        // page; that page must be executable and belong to the same domain
        // (the crossing check above only covered the first page).
        if page_offset(pc) > PAGE_SIZE - INSTR_BYTES {
            let next_page = page_align_down(pc) + PAGE_SIZE;
            let pte2 = match mem.translate(self.active_pt, next_page, Access::Exec) {
                Ok(p) => p,
                Err(f) => return self.fault(FaultKind::Mem(f)),
            };
            if !self.kernel_mode && pte2.tag != pte.tag {
                return self.fault(FaultKind::Codoms(CheckError::Denied {
                    from: self.cur_dom,
                    to: pte2.tag,
                    addr: next_page,
                }));
            }
        }
        let mut bytes = [0u8; 8];
        if page_offset(pc) <= PAGE_SIZE - INSTR_BYTES {
            // Within-page fetch: read straight from the frame just
            // translated instead of walking the page table a second time
            // through `kread`.
            let off = page_offset(pc) as usize;
            bytes.copy_from_slice(&mem.phys().frame_bytes(pte.frame)[off..off + 8]);
        } else if mem.kread(self.active_pt, pc, &mut bytes).is_err() {
            return self.fault(FaultKind::Mem(MemFault::Unmapped { addr: pc }));
        }
        let Some(instr) = Instr::decode(&bytes) else {
            return self.fault(FaultKind::BadInstr(bytes[0]));
        };

        // --- Privilege check ---
        if instr.is_privileged()
            && !self.kernel_mode
            && !self.cur_page_flags.contains(PageFlags::PRIV_CAP)
        {
            return self.fault(FaultKind::Privilege);
        }

        // --- Execute ---
        let ev = self.execute(instr, mem, rev, cost);
        if matches!(ev, StepEvent::Retired | StepEvent::Ecall | StepEvent::Halt) {
            self.retired += 1;
            if self.instrument {
                self.exec_stats.record(&instr);
            }
            self.regs[0] = 0;
        }
        ev
    }

    #[inline]
    fn fault(&self, kind: FaultKind) -> StepEvent {
        StepEvent::Fault(Fault { pc: self.pc, kind })
    }

    pub(crate) fn execute(
        &mut self,
        instr: Instr,
        mem: &mut Memory,
        rev: &mut RevocationTable,
        cost: &CostModel,
    ) -> StepEvent {
        use Instr::*;
        let mut next_pc = self.pc.wrapping_add(INSTR_BYTES);
        self.cycles += cost.base;
        match instr {
            Nop => {}
            Movi { rd, imm } => self.set_reg(rd, imm as i64 as u64),
            Movhi { rd, imm } => {
                let low = self.reg(rd) & 0xffff_ffff;
                self.set_reg(rd, low | ((imm as u32 as u64) << 32));
            }
            Add { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1).wrapping_add(self.reg(rs2))),
            Sub { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1).wrapping_sub(self.reg(rs2))),
            Mul { rd, rs1, rs2 } => {
                self.cycles += cost.mul - cost.base;
                self.set_reg(rd, self.reg(rs1).wrapping_mul(self.reg(rs2)));
            }
            Divu { rd, rs1, rs2 } => {
                self.cycles += cost.div - cost.base;
                let d = self.reg(rs2);
                if d == 0 {
                    return self.fault(FaultKind::DivZero);
                }
                self.set_reg(rd, self.reg(rs1) / d);
            }
            Remu { rd, rs1, rs2 } => {
                self.cycles += cost.div - cost.base;
                let d = self.reg(rs2);
                if d == 0 {
                    return self.fault(FaultKind::DivZero);
                }
                self.set_reg(rd, self.reg(rs1) % d);
            }
            And { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) & self.reg(rs2)),
            Or { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) | self.reg(rs2)),
            Xor { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) ^ self.reg(rs2)),
            Sll { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) << (self.reg(rs2) & 63)),
            Srl { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) >> (self.reg(rs2) & 63)),
            Sltu { rd, rs1, rs2 } => self.set_reg(rd, (self.reg(rs1) < self.reg(rs2)) as u64),
            Addi { rd, rs1, imm } => {
                self.set_reg(rd, self.reg(rs1).wrapping_add(imm as i64 as u64))
            }
            Andi { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) & (imm as i64 as u64)),
            Ori { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) | (imm as i64 as u64)),
            Slli { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) << (imm as u32 & 63)),
            Srli { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) >> (imm as u32 & 63)),

            Ld { rd, rs1, imm } => {
                if let Err(ev) = self.op_ld::<false>(mem, rev, cost, rd, rs1, imm, &mut None) {
                    return ev;
                }
            }
            Amoadd { rd, rs1, rs2 } => {
                // One indivisible read-modify-write: the write check also
                // authorises the read (Write ≥ Read in the APL lattice).
                self.cycles += cost.amo - cost.base;
                let addr = self.reg(rs1);
                match self.dcache_hit(mem, cost, addr, 8, true) {
                    Some((pte, ..)) => {
                        let off = page_offset(addr);
                        let old = mem.phys().read_u64(pte.frame, off);
                        mem.phys_mut().write_u64(pte.frame, off, old.wrapping_add(self.reg(rs2)));
                        self.set_reg(rd, old);
                    }
                    None => match self.data_access(mem, rev, cost, addr, 8, true) {
                        Ok(()) => {
                            self.dcache_fill(mem, addr, 8);
                            let old = mem.kread_u64(self.active_pt, addr).expect("checked");
                            mem.kwrite_u64(self.active_pt, addr, old.wrapping_add(self.reg(rs2)))
                                .expect("checked");
                            self.set_reg(rd, old);
                        }
                        Err(ev) => return ev,
                    },
                }
            }
            St { rs1, rs2, imm } => {
                if let Err(ev) = self.op_st::<false>(mem, rev, cost, rs1, rs2, imm, &mut None) {
                    return ev;
                }
            }
            Ldb { rd, rs1, imm } => {
                let addr = self.reg(rs1).wrapping_add(imm as i64 as u64);
                match self.dcache_hit(mem, cost, addr, 1, false) {
                    Some((pte, ..)) => {
                        let b = mem.phys().frame_bytes(pte.frame)[page_offset(addr) as usize];
                        self.set_reg(rd, b as u64);
                    }
                    None => match self.data_access(mem, rev, cost, addr, 1, false) {
                        Ok(()) => {
                            self.dcache_fill(mem, addr, 1);
                            let mut b = [0u8; 1];
                            mem.kread(self.active_pt, addr, &mut b).expect("checked");
                            self.set_reg(rd, b[0] as u64);
                        }
                        Err(ev) => return ev,
                    },
                }
            }
            Stb { rs1, rs2, imm } => {
                let addr = self.reg(rs1).wrapping_add(imm as i64 as u64);
                match self.dcache_hit(mem, cost, addr, 1, true) {
                    Some((pte, ..)) => mem.phys_mut().write(
                        pte.frame,
                        page_offset(addr),
                        &[(self.reg(rs2) & 0xff) as u8],
                    ),
                    None => match self.data_access(mem, rev, cost, addr, 1, true) {
                        Ok(()) => {
                            self.dcache_fill(mem, addr, 1);
                            mem.kwrite(self.active_pt, addr, &[(self.reg(rs2) & 0xff) as u8])
                                .expect("checked")
                        }
                        Err(ev) => return ev,
                    },
                }
            }
            MemCpy { rd, rs1, rs2 } => {
                let dst = self.reg(rd);
                let src = self.reg(rs1);
                let len = self.reg(rs2);
                if len > 0 {
                    if let Err(ev) = self.data_access(mem, rev, cost, src, len, false) {
                        return ev;
                    }
                    if let Err(ev) = self.data_access(mem, rev, cost, dst, len, true) {
                        return ev;
                    }
                    // All of the source is read before any of the
                    // destination is written, so overlapping ranges copy
                    // the original bytes.
                    self.bulk.clear();
                    self.bulk.resize(len as usize, 0);
                    mem.kread(self.active_pt, src, &mut self.bulk).expect("checked");
                    mem.kwrite(self.active_pt, dst, &self.bulk).expect("checked");
                    self.cycles += cost.copy_cycles(len);
                    if self.instrument {
                        simtrace::counter("bytes_copied_user", len);
                    }
                }
            }
            MemSet { rd, rs1, rs2 } => {
                let dst = self.reg(rd);
                let len = self.reg(rs2);
                if len > 0 {
                    if let Err(ev) = self.data_access(mem, rev, cost, dst, len, true) {
                        return ev;
                    }
                    self.bulk.clear();
                    self.bulk.resize(len as usize, (self.reg(rs1) & 0xff) as u8);
                    mem.kwrite(self.active_pt, dst, &self.bulk).expect("checked");
                    self.cycles += cost.copy_cycles(len);
                }
            }

            Jal { rd, imm } => {
                self.set_reg(rd, next_pc);
                next_pc = self.pc.wrapping_add(imm as i64 as u64);
            }
            Jalr { rd, rs1, imm } => {
                let target = self.reg(rs1).wrapping_add(imm as i64 as u64);
                self.set_reg(rd, next_pc);
                next_pc = target;
            }
            Beq { rs1, rs2, imm } => {
                if self.reg(rs1) == self.reg(rs2) {
                    next_pc = self.pc.wrapping_add(imm as i64 as u64);
                }
            }
            Bne { rs1, rs2, imm } => {
                if self.reg(rs1) != self.reg(rs2) {
                    next_pc = self.pc.wrapping_add(imm as i64 as u64);
                }
            }
            Bltu { rs1, rs2, imm } => {
                if self.reg(rs1) < self.reg(rs2) {
                    next_pc = self.pc.wrapping_add(imm as i64 as u64);
                }
            }
            Bgeu { rs1, rs2, imm } => {
                if self.reg(rs1) >= self.reg(rs2) {
                    next_pc = self.pc.wrapping_add(imm as i64 as u64);
                }
            }

            Ecall => {
                self.cycles += cost.ecall;
                self.pc = next_pc;
                return StepEvent::Ecall;
            }
            Halt => {
                self.pc = next_pc;
                return StepEvent::Halt;
            }
            Work { rs1, imm } => {
                let amount = if rs1 != 0 { self.reg(rs1) } else { (imm.max(0)) as u64 };
                self.cycles += amount;
            }
            Crash => return self.fault(FaultKind::Crash),
            Rdcycle { rd } => self.set_reg(rd, self.cycles),
            CpuId { rd } => self.set_reg(rd, self.index as u64),

            Swapgs => {
                self.cycles += cost.swapgs - cost.base;
                core::mem::swap(&mut self.gs, &mut self.shadow_gs);
            }
            Rdgs { rd } => self.set_reg(rd, self.gs),
            Wrgs { rs1 } => self.gs = self.reg(rs1),
            Wrfsbase { rs1 } => {
                self.cycles += cost.wrfsbase - cost.base;
                let v = self.reg(rs1);
                self.set_reg(reg::TP, v);
            }
            PtSwitch { rs1 } => {
                self.cycles += cost.pt_switch - cost.base;
                self.active_pt = PageTableId(self.reg(rs1) as usize);
                self.itlb.flush();
                self.dtlb.flush();
            }
            Sysret { rs1 } => {
                self.cycles += cost.sysret - cost.base;
                self.kernel_mode = false;
                next_pc = self.reg(rs1);
            }
            TagLookup { rd, rs1 } => {
                // §4.3: "this lookup operation takes less than a L1 cache
                // hit" — charge one extra base cycle.
                self.cycles += 1;
                let tag = DomainTag(self.reg(rs1) as u32);
                let v = match self.apl_cache.hw_tag(tag) {
                    Some(hw) => hw.0 as u64,
                    None => u64::MAX,
                };
                self.set_reg(rd, v);
            }

            CapAplTake { crd, rs1, rs2, imm } => {
                self.cycles += cost.cap_op;
                let base = self.reg(rs1);
                let len = self.reg(rs2);
                match self.cap_apl_take(mem, rev, base, len, imm) {
                    Ok(cap) => self.caps[(crd & 7) as usize] = Some(cap),
                    Err(ev) => return ev,
                }
            }
            CapSetBounds { crd, rs1, rs2 } => {
                self.cycles += cost.cap_op;
                let base = self.reg(rs1);
                let len = self.reg(rs2);
                let slot = (crd & 7) as usize;
                let narrowed = self.caps[slot].as_ref().and_then(|c| c.restrict(base, len, c.perm));
                match narrowed {
                    Some(c) => self.caps[slot] = Some(c),
                    None => return self.fault(FaultKind::CapInvalid),
                }
            }
            CapSetPerm { crd, imm } => {
                self.cycles += cost.cap_op;
                let slot = (crd & 7) as usize;
                let perm = match imm & 3 {
                    0 => Perm::Nil,
                    1 => Perm::Call,
                    2 => Perm::Read,
                    _ => Perm::Write,
                };
                let narrowed =
                    self.caps[slot].as_ref().and_then(|c| c.restrict(c.base, c.len, perm));
                match narrowed {
                    Some(c) => self.caps[slot] = Some(c),
                    None => return self.fault(FaultKind::CapInvalid),
                }
            }
            CapPush { crs } => {
                self.cycles += cost.cap_op + cost.mem;
                if self.instrument {
                    simtrace::counter("kcs_pushes", 1);
                    simtrace::instant(
                        simtrace::Track::Cpu(self.index),
                        self.cycles,
                        "kcs_push",
                        "kcs",
                    );
                }
                // An empty register pushes the null capability (all-zero
                // encoding); this lets trusted code spill/refill a register
                // unconditionally (dIPC proxies preserve the return
                // capability across nested calls this way).
                let cap = self.caps[(crs & 7) as usize].unwrap_or(Capability {
                    base: 0,
                    len: 0,
                    perm: Perm::Nil,
                    kind: CapKind::Async,
                    origin: DomainTag(0),
                });
                let slot_addr = match self.dcs.push_slot() {
                    Ok(a) => a,
                    Err(e) => return self.fault(FaultKind::Dcs(e)),
                };
                if let Err(ev) = self.capstore_page(mem, slot_addr, true) {
                    // Roll the register back so the retried/aborted push is
                    // side-effect free.
                    self.dcs.pop_slot().expect("just pushed");
                    return ev;
                }
                mem.kwrite(self.active_pt, slot_addr, &cap.to_bytes()).expect("checked");
            }
            CapPop { crd } => {
                self.cycles += cost.cap_op + cost.mem;
                if self.instrument {
                    simtrace::counter("kcs_pops", 1);
                    simtrace::instant(
                        simtrace::Track::Cpu(self.index),
                        self.cycles,
                        "kcs_pop",
                        "kcs",
                    );
                }
                let slot_addr = match self.dcs.pop_slot() {
                    Ok(a) => a,
                    Err(e) => return self.fault(FaultKind::Dcs(e)),
                };
                let mut b = [0u8; CAPABILITY_BYTES];
                if mem.kread(self.active_pt, slot_addr, &mut b).is_err() {
                    self.dcs.push_slot().expect("just popped");
                    return self.fault(FaultKind::Mem(MemFault::Unmapped { addr: slot_addr }));
                }
                match Capability::from_bytes(&b) {
                    Some(c) if c.perm == Perm::Nil => self.caps[(crd & 7) as usize] = None,
                    Some(c) => self.caps[(crd & 7) as usize] = Some(c),
                    None => return self.fault(FaultKind::CapInvalid),
                }
            }
            CapLd { crd, rs1, imm } => {
                self.cycles += cost.cap_op + cost.mem;
                let addr = self.reg(rs1).wrapping_add(imm as i64 as u64);
                if let Err(ev) = self.capstore_page(mem, addr, false) {
                    return ev;
                }
                if let Err(ev) =
                    self.codoms_check(mem, rev, cost, addr, CAPABILITY_BYTES as u64, false)
                {
                    return ev;
                }
                let mut b = [0u8; CAPABILITY_BYTES];
                mem.kread(self.active_pt, addr, &mut b).expect("checked");
                match Capability::from_bytes(&b) {
                    Some(c) => self.caps[(crd & 7) as usize] = Some(c),
                    None => return self.fault(FaultKind::CapInvalid),
                }
            }
            CapSt { crs, rs1, imm } => {
                self.cycles += cost.cap_op + cost.mem;
                let addr = self.reg(rs1).wrapping_add(imm as i64 as u64);
                let cap = match self.caps[(crs & 7) as usize] {
                    Some(c) => c,
                    None => return self.fault(FaultKind::CapInvalid),
                };
                if let Err(ev) = self.capstore_page(mem, addr, true) {
                    return ev;
                }
                if let Err(ev) =
                    self.codoms_check(mem, rev, cost, addr, CAPABILITY_BYTES as u64, true)
                {
                    return ev;
                }
                mem.kwrite(self.active_pt, addr, &cap.to_bytes()).expect("checked");
            }
            CapClear { crd } => {
                self.cycles += cost.cap_op;
                self.caps[(crd & 7) as usize] = None;
            }
            CapMov { crd, crs } => {
                self.cycles += cost.cap_op;
                self.caps[(crd & 7) as usize] = self.caps[(crs & 7) as usize];
            }
            CapRevoke => {
                self.cycles += cost.cap_op;
                rev.revoke_all(self.thread);
            }
            DcsGetBase { rd } => self.set_reg(rd, self.dcs.base),
            DcsSetBase { rs1 } => {
                let v = self.reg(rs1);
                self.dcs.base = v.clamp(self.dcs.start, self.dcs.limit);
            }
            DcsGetTop { rd } => self.set_reg(rd, self.dcs.top),
            DcsSetTop { rs1 } => {
                let v = self.reg(rs1);
                self.dcs.top = v.clamp(self.dcs.start, self.dcs.limit);
            }
            DcsSetWindow { rs1, rs2 } => {
                let start = self.reg(rs1);
                let limit = self.reg(rs2);
                self.dcs = Dcs::new(start, limit.max(start));
            }
            DcsGetStart { rd } => self.set_reg(rd, self.dcs.start),
            DcsGetLimit { rd } => self.set_reg(rd, self.dcs.limit),
        }
        self.pc = next_pc;
        StepEvent::Retired
    }

    /// The `Ld` operation body, shared between [`Cpu::execute`]'s arm and
    /// the block loop's direct dispatch. The caller has already charged
    /// `cost.base`; the PC is untouched (advanced by the caller only on
    /// `Ok`), so an error return leaves the CPU exactly at the faulting
    /// instruction.
    ///
    /// With `MEMO`, consults and maintains the run's one-entry operand
    /// memo (see [`DMemo`]); `execute()` passes `MEMO = false` and the
    /// memo plumbing compiles out.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn op_ld<const MEMO: bool>(
        &mut self,
        mem: &mut Memory,
        rev: &mut RevocationTable,
        cost: &CostModel,
        rd: u8,
        rs1: u8,
        imm: i32,
        memo: &mut Option<DMemo>,
    ) -> Result<(), StepEvent> {
        let addr = self.reg(rs1).wrapping_add(imm as i64 as u64);
        if MEMO {
            if let Some(m) = memo {
                if m.vpn == vpn(addr) && m.read_ok && page_offset(addr) <= PAGE_SIZE - 8 {
                    self.dmemo_replay(cost, addr, m.grant);
                    let v = mem.phys().read_u64(m.pte.frame, page_offset(addr));
                    self.set_reg(rd, v);
                    return Ok(());
                }
            }
        }
        match self.dcache_hit(mem, cost, addr, 8, false) {
            Some((pte, grant, read_ok, write_ok)) => {
                if MEMO {
                    *memo = Some(DMemo { vpn: vpn(addr), pte, grant, read_ok, write_ok });
                }
                let v = mem.phys().read_u64(pte.frame, page_offset(addr));
                self.set_reg(rd, v);
            }
            None => match self.data_access(mem, rev, cost, addr, 8, false) {
                Ok(()) => {
                    let filled = self.dcache_fill(mem, addr, 8);
                    if MEMO {
                        if let Some((pte, grant, read_ok, write_ok)) = filled {
                            *memo = Some(DMemo { vpn: vpn(addr), pte, grant, read_ok, write_ok });
                        }
                    }
                    let v = mem.kread_u64(self.active_pt, addr).expect("checked");
                    self.set_reg(rd, v);
                }
                Err(ev) => return Err(ev),
            },
        }
        Ok(())
    }

    /// The `St` operation body; see [`Cpu::op_ld`] for the contract.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn op_st<const MEMO: bool>(
        &mut self,
        mem: &mut Memory,
        rev: &mut RevocationTable,
        cost: &CostModel,
        rs1: u8,
        rs2: u8,
        imm: i32,
        memo: &mut Option<DMemo>,
    ) -> Result<(), StepEvent> {
        let addr = self.reg(rs1).wrapping_add(imm as i64 as u64);
        if MEMO {
            if let Some(m) = memo {
                if m.vpn == vpn(addr) && m.write_ok && page_offset(addr) <= PAGE_SIZE - 8 {
                    self.dmemo_replay(cost, addr, m.grant);
                    mem.phys_mut().write_u64(m.pte.frame, page_offset(addr), self.reg(rs2));
                    return Ok(());
                }
            }
        }
        match self.dcache_hit(mem, cost, addr, 8, true) {
            Some((pte, grant, read_ok, write_ok)) => {
                if MEMO {
                    *memo = Some(DMemo { vpn: vpn(addr), pte, grant, read_ok, write_ok });
                }
                mem.phys_mut().write_u64(pte.frame, page_offset(addr), self.reg(rs2))
            }
            None => match self.data_access(mem, rev, cost, addr, 8, true) {
                Ok(()) => {
                    let filled = self.dcache_fill(mem, addr, 8);
                    if MEMO {
                        if let Some((pte, grant, read_ok, write_ok)) = filled {
                            *memo = Some(DMemo { vpn: vpn(addr), pte, grant, read_ok, write_ok });
                        }
                    }
                    mem.kwrite_u64(self.active_pt, addr, self.reg(rs2)).expect("checked")
                }
                Err(ev) => return Err(ev),
            },
        }
        Ok(())
    }

    /// Replays the simulated side of a memo-served access — exactly what
    /// [`Cpu::dcache_hit`] charges and probes on a hit: the `cost.mem`
    /// charge, the real dTLB access, and the APL-cache touch for
    /// APL-granted entries. Counted as a dcache hit (the memo is a
    /// register-resident copy of a dcache decision).
    #[inline]
    fn dmemo_replay(&mut self, cost: &CostModel, addr: u64, grant: DGrant) {
        self.cycles += cost.mem;
        if !self.dtlb.access(self.active_pt, addr) {
            self.cycles += cost.tlb_miss;
        }
        if let DGrant::Apl(hw) = grant {
            self.apl_cache.touch(hw);
        }
        self.dcache.note_hit();
    }

    /// Attempts to serve a single-page data access from the memory-operand
    /// translation cache (see [`crate::dcache`]). On a hit, charges the
    /// same cycles the full path would (`cost.mem` plus the real dTLB
    /// access), replays the one APL-cache probe for APL-granted entries,
    /// and returns the cached translation so the caller can move the
    /// bytes frame-direct. `None` when the access must take the full
    /// [`Cpu::data_access`] walk (straddle, cold, or any guard mismatch).
    #[inline]
    fn dcache_hit(
        &mut self,
        mem: &Memory,
        cost: &CostModel,
        addr: u64,
        size: u64,
        write: bool,
    ) -> Option<(Pte, DGrant, bool, bool)> {
        if !self.fast || page_offset(addr) > PAGE_SIZE - size {
            return None;
        }
        let pt = self.active_pt;
        let (pte, grant, read_ok, write_ok) = self.dcache.lookup(
            pt,
            vpn(addr),
            mem.table_generation(pt),
            self.cur_dom,
            self.kernel_mode,
            self.apl_cache.version(),
            write,
        )?;
        self.cycles += cost.mem;
        if !self.dtlb.access(pt, addr) {
            self.cycles += cost.tlb_miss;
        }
        if let DGrant::Apl(hw) = grant {
            self.apl_cache.touch(hw);
        }
        Some((pte, grant, read_ok, write_ok))
    }

    /// Installs the translation for a single-page access that just passed
    /// [`Cpu::data_access`], returning what was installed so the block
    /// loop can mirror it into its operand memo. Capability-granted
    /// accesses are never cached (byte-ranged and revocation-sensitive);
    /// capability-storage pages cannot reach here (the tamper fault
    /// already fired).
    fn dcache_fill(
        &mut self,
        mem: &Memory,
        addr: u64,
        size: u64,
    ) -> Option<(Pte, DGrant, bool, bool)> {
        if !self.fast || page_offset(addr) > PAGE_SIZE - size {
            return None;
        }
        let pt = self.active_pt;
        let pte = mem.lookup_pte(pt, addr).expect("validated access is mapped");
        let (grant, read_ok, write_ok) = if self.kernel_mode {
            (DGrant::Kernel, true, true)
        } else if pte.tag == self.cur_dom {
            (
                DGrant::SelfDom,
                pte.flags.contains(PageFlags::READ),
                pte.flags.contains(PageFlags::WRITE),
            )
        } else {
            let (hw, apl) = self.apl_cache.peek(self.cur_dom)?;
            let p = apl.get(pte.tag);
            let read_ok = p >= Perm::Read && pte.flags.contains(PageFlags::READ);
            let write_ok = p >= Perm::Write && pte.flags.contains(PageFlags::WRITE);
            if !read_ok && !write_ok {
                // The access was capability-granted; leave it uncached.
                return None;
            }
            (DGrant::Apl(hw), read_ok, write_ok)
        };
        self.dcache.fill(
            pt,
            vpn(addr),
            mem.table_generation(pt),
            self.cur_dom,
            self.kernel_mode,
            self.apl_cache.version(),
            grant,
            read_ok,
            write_ok,
            pte,
        );
        Some((pte, grant, read_ok, write_ok))
    }

    /// Full check for a plain data access: conventional page bits, the
    /// capability-storage tamper rule, and the CODOMs domain check.
    fn data_access(
        &mut self,
        mem: &Memory,
        rev: &RevocationTable,
        cost: &CostModel,
        addr: u64,
        size: u64,
        write: bool,
    ) -> Result<(), StepEvent> {
        self.cycles += cost.mem;
        // Check every page the access touches.
        let mut off = 0u64;
        while off < size {
            let a = addr + off;
            let access = if write { Access::Write } else { Access::Read };
            let pte = match mem.translate(self.active_pt, a, access) {
                Ok(p) => p,
                Err(f) if self.kernel_mode => {
                    // Kernel mode ignores protection bits but not mapping.
                    match f {
                        MemFault::Unmapped { .. } => return Err(self.fault(FaultKind::Mem(f))),
                        MemFault::Protection { .. } => {
                            mem.lookup_pte(self.active_pt, a).expect("protection implies mapped")
                        }
                    }
                }
                Err(f) => return Err(self.fault(FaultKind::Mem(f))),
            };
            if !self.dtlb.access(self.active_pt, a) {
                self.cycles += cost.tlb_miss;
            }
            if pte.flags.contains(PageFlags::CAP_STORE) {
                return Err(self.fault(FaultKind::CapTamper { addr: a }));
            }
            if !self.kernel_mode {
                let chunk = (simmem::PAGE_SIZE - simmem::page::page_offset(a)).min(size - off);
                match self.checker.check_data(
                    self.cur_dom,
                    &pte,
                    a,
                    chunk,
                    write,
                    &mut self.apl_cache,
                    &self.caps,
                    rev,
                    self.thread,
                ) {
                    Ok(_) => {}
                    Err(CheckError::AplMiss { tag }) => return Err(StepEvent::AplMiss(tag)),
                    Err(e) => return Err(self.fault(FaultKind::Codoms(e))),
                }
            }
            off += simmem::PAGE_SIZE - simmem::page::page_offset(a);
        }
        Ok(())
    }

    /// CODOMs-only check (used by CapLd/CapSt, which are allowed to touch
    /// capability-storage pages).
    fn codoms_check(
        &mut self,
        mem: &Memory,
        rev: &RevocationTable,
        _cost: &CostModel,
        addr: u64,
        size: u64,
        write: bool,
    ) -> Result<(), StepEvent> {
        if self.kernel_mode {
            return Ok(());
        }
        let access = if write { Access::Write } else { Access::Read };
        let pte = match mem.translate(self.active_pt, addr, access) {
            Ok(p) => p,
            Err(f) => return Err(self.fault(FaultKind::Mem(f))),
        };
        match self.checker.check_data(
            self.cur_dom,
            &pte,
            addr,
            size,
            write,
            &mut self.apl_cache,
            &self.caps,
            rev,
            self.thread,
        ) {
            Ok(_) => Ok(()),
            Err(CheckError::AplMiss { tag }) => Err(StepEvent::AplMiss(tag)),
            Err(e) => Err(self.fault(FaultKind::Codoms(e))),
        }
    }

    /// Verifies that `addr` is on a mapped capability-storage page (with
    /// write permission if `write`). DCS traffic uses this (the DCS bounds
    /// registers are the authority, so no CODOMs check).
    fn capstore_page(&self, mem: &Memory, addr: u64, write: bool) -> Result<(), StepEvent> {
        let access = if write { Access::Write } else { Access::Read };
        let pte = match mem.translate(self.active_pt, addr, access) {
            Ok(p) => p,
            Err(f) => return Err(self.fault(FaultKind::Mem(f))),
        };
        if !pte.flags.contains(PageFlags::CAP_STORE) {
            return Err(self.fault(FaultKind::CapTamper { addr }));
        }
        Ok(())
    }

    fn cap_apl_take(
        &mut self,
        mem: &Memory,
        rev: &RevocationTable,
        base: u64,
        len: u64,
        imm: i32,
    ) -> Result<Capability, StepEvent> {
        if len == 0 {
            return Err(self.fault(FaultKind::CapInvalid));
        }
        let perm = match imm & 3 {
            1 => Perm::Call,
            2 => Perm::Read,
            3 => Perm::Write,
            _ => return Err(self.fault(FaultKind::CapInvalid)),
        };
        let is_async = imm & 4 != 0;
        // The creating domain must hold `perm` over every page in the range
        // (via its APL or the implicit self grant).
        let mut origin = None;
        let mut a = base;
        let end = match base.checked_add(len) {
            Some(e) => e,
            None => return Err(self.fault(FaultKind::CapInvalid)),
        };
        while a < end {
            let pte = match mem.translate(self.active_pt, a, Access::Read) {
                Ok(p) => p,
                Err(f) => return Err(self.fault(FaultKind::Mem(f))),
            };
            if origin.is_none() {
                origin = Some(pte.tag);
            }
            if !self.kernel_mode && pte.tag != self.cur_dom {
                match self.apl_cache.perm(self.cur_dom, pte.tag) {
                    Some(p) if p >= perm => {}
                    Some(_) => {
                        return Err(self.fault(FaultKind::Codoms(CheckError::Denied {
                            from: self.cur_dom,
                            to: pte.tag,
                            addr: a,
                        })))
                    }
                    None => return Err(StepEvent::AplMiss(self.cur_dom)),
                }
            }
            a = simmem::page::page_align_down(a) + simmem::PAGE_SIZE;
        }
        let kind = if is_async {
            CapKind::Async
        } else {
            CapKind::Sync { owner: self.thread, epoch: rev.epoch(self.thread) }
        };
        Ok(Capability {
            base,
            len,
            perm,
            kind,
            origin: origin.expect("len > 0 implies at least one page"),
        })
    }
}
