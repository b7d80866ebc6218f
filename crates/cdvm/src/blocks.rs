//! Superblock cache — the fast engine's unit of execution.
//!
//! The reference interpreter ([`crate::Cpu::step`]) pays a translation, an
//! iTLB access, a crossing test, a decode and the dispatch overhead *per
//! instruction*. This module lifts those to *block* granularity: a
//! [`Block`] is a trace of decoded instructions within one code page —
//! straight-line runs stitched across unconditional same-page direct jumps
//! (which unrolls tight loops) — ending at the first branch, indirect or
//! cross-page transfer, system entry, privileged mode/table switch,
//! undecodable slot, cost-unbounded instruction, or the page boundary. The
//! executor validates a block once at entry (translation generation + code
//! epoch + the CODOMs crossing check, which consults the revocation state)
//! and then executes its body in a tight loop with no per-instruction
//! fetch machinery; see `Cpu::run_blocks` in [`crate::cpu`]. Decoding
//! happens here and nowhere else on the fast engine: there is no separate
//! decoded-instruction cache.
//!
//! # Exactness
//!
//! The block engine is a pure host optimisation — simulated cycles, faults,
//! TLB statistics and trace output are identical to the interpreter:
//!
//! * **Costs** are still charged by the one true `execute()` per
//!   instruction; only the *deadline check* moves. When `cycles +
//!   max_cost` fits the deadline it is hoisted to the block entry
//!   ([`Block::max_cost`] is a static upper bound, so every instruction
//!   the block runs would also have been run by the interpreter).
//!   Otherwise the block runs *budgeted*: the deadline is compared before
//!   every instruction after the first — the interpreter's own "check,
//!   then step" order — and the next `Cpu::run` *resumes* the block at
//!   that index rather than forming a suffix block at the mid-block PC
//!   (which would evict a real block every slice). A resume needs the
//!   same PC, the same fill of the slot, and a block still current for
//!   the page table, generation and epoch; it re-runs the entry phase at
//!   the real PC but never uses the slot's crossing descriptor, whose
//!   call-gate alignment was proven for [`Block::entry`] only.
//!   An instruction with unbounded cost (`MemCpy`, `MemSet`,
//!   register-driven `Work`) never shares a block: formation stops before
//!   it, and at its own PC it forms a one-instruction block whose
//!   `max_cost` is `u64::MAX` — so it always runs budgeted, where the
//!   first instruction executes before any deadline compare, exactly as
//!   the interpreter's loop runs it.
//! * **iTLB accounting** batches the guaranteed same-page hits of the
//!   non-entry instructions through [`simmem::Tlb::note_hits`], which
//!   leaves the TLB in exactly the state the per-instruction accesses
//!   would.
//! * **Events** (faults, APL misses, `Ecall`, `Halt`) abort the block at
//!   the precise instruction; the PC is maintained per instruction by
//!   `execute()`, so fault PCs are exact.
//! * **Self-modifying writes** are caught by re-checking the code epoch
//!   after every store-capable instruction; a bump aborts the block so the
//!   next instruction is re-fetched from fresh bytes, exactly like the
//!   interpreter's per-step epoch check.
//!
//! # Invalidation
//!
//! There is no shootdown: every entry snapshots the page table's
//! generation and the global code epoch at formation and is revalidated on
//! every use (including every *chained* entry), so remaps, re-protects,
//! re-tags, frame recycling and another CPU's stores to code all force
//! re-formation. Chain links carry a fill sequence number and are ignored
//! when the target slot was refilled.
//!
//! # Cross-domain superblocks
//!
//! A block whose entry page belongs to a different domain than the caller
//! pays the full CODOMs crossing check on every dispatch — the dominant
//! host cost of proxy ping-pong chains. Each cache way can therefore carry
//! a [`CrossDesc`]: a pre-validated crossing descriptor recording who
//! crossed into the block, what granted the crossing, and the APL-cache
//! content version it was proven against. While the descriptor validates
//! (same source/target domain, unchanged APL version, and — for
//! capability grants — the identical capability still present and
//! unrevoked), the executor replays only the crossing's architectural
//! side effects and skips the full [`codoms::Checker::check_jump`] scan.
//!
//! # Direct-threaded dispatch
//!
//! Each [`BlockInstr`] carries a pre-resolved handler index for *pure*
//! instructions (infallible, unprivileged, non-memory; see
//! [`crate::threaded`]), and [`Block::pure_len`] is the length of the
//! maximal pure prefix. ALU-dense bodies dispatch through the handler
//! table instead of the full `execute()` match.
//!
//! `CDVM_NO_FASTPATH=1` (see [`crate::fastpath_enabled`]) runs the
//! reference interpreter instead of all of the above.

use codoms::cap::Capability;
use codoms::HwTag;
use simmem::page::{page_offset, vpn};
use simmem::{DomainTag, PageTableId, Pte, PAGE_SIZE};

use crate::cost::CostModel;
use crate::isa::{Instr, INSTR_BYTES};

/// Number of cache sets.
const SETS: usize = 256;

/// Associativity: ways per set.
const WAYS: usize = 2;

/// Total block slots.
const ENTRIES: usize = SETS * WAYS;

/// Maximum instructions per block. Bounds [`Block::max_cost`] (and with it
/// the deadline slack a block needs to be dispatched) and formation work.
const MAX_BLOCK_LEN: usize = 64;

/// One instruction of a block, with its decode-time classification.
#[derive(Clone, Copy, Debug)]
pub struct BlockInstr {
    /// The decoded instruction.
    pub instr: Instr,
    /// Requires privilege (checked against the entry page's flags).
    pub privileged: bool,
    /// May write simulated memory (forces a code-epoch re-check after it).
    pub may_write: bool,
    /// Direct-threaded handler index (0 = not pure; dispatch through the
    /// full `execute()` match). See [`crate::threaded`].
    pub handler: u8,
    /// Pre-extracted destination register for the threaded handlers
    /// (0 for non-pure instructions).
    pub rd: u8,
    /// Pre-extracted first source register.
    pub rs1: u8,
    /// Pre-extracted second source register.
    pub rs2: u8,
    /// Pre-extracted immediate.
    pub imm: i32,
}

/// How a block ends — used for chaining to the successor block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockEnd {
    /// Statically known successor: a direct jump, or fall-through into the
    /// next page.
    Jump {
        /// Successor PC.
        target: u64,
    },
    /// Conditional branch with two static successors.
    Branch {
        /// PC if the branch is taken.
        taken: u64,
        /// PC of the fall-through path.
        fall: u64,
    },
    /// Successor unknown at decode time (indirect jump, `Ecall`, `Sysret`,
    /// `PtSwitch`, `Halt`, fault-only instructions, or a formation stop at
    /// an undecodable/unblockable slot).
    Dynamic,
}

/// A pre-validated trace of instructions within one code page (straight-
/// line runs stitched across unconditional same-page direct jumps).
///
/// An empty `instrs` marks a *step-only* entry: the bytes at `entry` do
/// not decode, and [`crate::Cpu::step`] raises the exact fault. Caching the
/// decision avoids re-deriving it on every dispatch.
#[derive(Debug)]
pub struct Block {
    /// Owning page table.
    pub pt: PageTableId,
    /// Entry PC (8-byte aligned).
    pub entry: u64,
    /// `pt`'s mutation generation at formation.
    pub table_gen: u64,
    /// Global code epoch at formation.
    pub code_epoch: u64,
    /// The entry page's translation at formation (the generation match
    /// proves it is still current).
    pub pte: Pte,
    /// The block body (empty for step-only entries).
    pub instrs: Box<[BlockInstr]>,
    /// Static upper bound on the cycles one execution of the block can
    /// consume, including a potential iTLB miss at entry; `u64::MAX` for
    /// the one-instruction block of a cost-unbounded instruction.
    pub max_cost: u64,
    /// Successor shape.
    pub end: BlockEnd,
    /// Length of the maximal leading run of *pure* instructions (every
    /// `instrs[..pure_len]` has a non-zero [`BlockInstr::handler`]); the
    /// direct-threaded dispatch loop covers exactly this prefix.
    pub pure_len: usize,
}

/// Static per-instruction worst-case cycle cost, or `None` if the cost is
/// not statically bounded (such an instruction only ever sits alone in a
/// block).
///
/// Bounds mirror `Cpu::execute` exactly: `base` is always charged first and
/// the per-op extras are added on top; loads/stores add the data-access
/// charge plus one dTLB-miss penalty per page touched (an 8-byte access can
/// straddle two pages).
fn instr_max_cost(i: &Instr, c: &CostModel) -> Option<u64> {
    use Instr::*;
    Some(match i {
        Mul { .. } => c.mul,
        Divu { .. } | Remu { .. } => c.div,
        Ld { .. } | St { .. } => c.base + c.mem + 2 * c.tlb_miss,
        Amoadd { .. } => c.amo + c.mem + 2 * c.tlb_miss,
        Ldb { .. } | Stb { .. } => c.base + c.mem + c.tlb_miss,
        MemCpy { .. } | MemSet { .. } => return None,
        Work { rs1, imm } => {
            if *rs1 != 0 {
                return None;
            }
            c.base + (*imm).max(0) as u64
        }
        Ecall => c.base + c.ecall,
        Swapgs => c.swapgs,
        Wrfsbase { .. } => c.wrfsbase,
        PtSwitch { .. } => c.pt_switch,
        Sysret { .. } => c.sysret,
        TagLookup { .. } => c.base + 1,
        CapPush { .. } | CapPop { .. } | CapLd { .. } | CapSt { .. } => c.base + c.cap_op + c.mem,
        CapAplTake { .. }
        | CapSetBounds { .. }
        | CapSetPerm { .. }
        | CapClear { .. }
        | CapMov { .. }
        | CapRevoke => c.base + c.cap_op,
        _ => c.base,
    })
}

/// True for instructions that end a block (control transfers, mode/table
/// switches, and instructions that never retire).
fn is_terminator(i: &Instr) -> bool {
    use Instr::*;
    matches!(
        i,
        Jal { .. }
            | Jalr { .. }
            | Beq { .. }
            | Bne { .. }
            | Bltu { .. }
            | Bgeu { .. }
            | Ecall
            | Halt
            | Crash
            | Sysret { .. }
            | PtSwitch { .. }
    )
}

/// True for instructions that can write simulated memory (and therefore
/// bump the code epoch mid-block).
fn may_write(i: &Instr) -> bool {
    use Instr::*;
    matches!(
        i,
        St { .. }
            | Stb { .. }
            | Amoadd { .. }
            | MemCpy { .. }
            | MemSet { .. }
            | CapPush { .. }
            | CapSt { .. }
    )
}

/// Decodes a block starting at `entry` (8-byte aligned) from `page` (the
/// whole backing frame). Always returns a block; if the first slot does
/// not decode the result is a step-only entry. `instrs` is a scratch decode
/// buffer (its contents are overwritten): the block body is copied out of
/// it at its exact length, so a fill allocates once.
#[allow(clippy::too_many_arguments)]
pub fn form_block(
    instrs: &mut Vec<BlockInstr>,
    pt: PageTableId,
    entry: u64,
    table_gen: u64,
    code_epoch: u64,
    pte: Pte,
    page: &[u8],
    cost: &CostModel,
) -> Block {
    debug_assert!(page_offset(entry).is_multiple_of(INSTR_BYTES));
    debug_assert_eq!(page.len(), PAGE_SIZE as usize);
    let page_base = entry - page_offset(entry);
    let first_slot = (page_offset(entry) / INSTR_BYTES) as usize;
    let slots = (PAGE_SIZE / INSTR_BYTES) as usize;
    instrs.clear();
    // Entry may miss the iTLB; every later fetch is a same-page hit.
    let mut max_cost = cost.tlb_miss;
    let mut end = BlockEnd::Dynamic;
    let mut slot = first_slot;
    loop {
        let raw: &[u8; 8] = page[slot * 8..slot * 8 + 8].try_into().expect("page-sized slice");
        let pc = page_base + slot as u64 * INSTR_BYTES;
        let Some(instr) = Instr::decode(raw) else {
            // Undecodable slot: end the block before it; the interpreter
            // raises the exact BadInstr fault when the PC gets there.
            if !instrs.is_empty() {
                end = BlockEnd::Jump { target: pc };
            }
            break;
        };
        let bound = instr_max_cost(&instr, cost);
        if bound.is_none() && !instrs.is_empty() {
            // Cost-unbounded instruction: it gets a block of its own.
            end = BlockEnd::Jump { target: pc };
            break;
        }
        max_cost = max_cost.saturating_add(bound.unwrap_or(u64::MAX));
        let (handler, rd, rs1, rs2, imm) = crate::threaded::classify(&instr);
        instrs.push(BlockInstr {
            instr,
            privileged: instr.is_privileged(),
            may_write: may_write(&instr),
            handler,
            rd,
            rs1,
            rs2,
            imm,
        });
        if bound.is_none() {
            end = BlockEnd::Jump { target: pc.wrapping_add(INSTR_BYTES) };
            break;
        }
        if is_terminator(&instr) {
            end = match instr {
                Instr::Jal { imm, .. } => {
                    let target = pc.wrapping_add(imm as i64 as u64);
                    // Trace formation: follow an unconditional direct jump
                    // whose target sits on this same page (same PTE, so no
                    // crossing check or iTLB state change is skipped —
                    // exactly like the straight-line case) and keep
                    // decoding from the target. This unrolls tight loops
                    // and stitches jump-linked fragments into one
                    // superblock, amortising dispatch over many more
                    // instructions.
                    if vpn(target) == vpn(entry)
                        && page_offset(target).is_multiple_of(INSTR_BYTES)
                        && instrs.len() < MAX_BLOCK_LEN
                    {
                        slot = (page_offset(target) / INSTR_BYTES) as usize;
                        continue;
                    }
                    BlockEnd::Jump { target }
                }
                Instr::Beq { imm, .. }
                | Instr::Bne { imm, .. }
                | Instr::Bltu { imm, .. }
                | Instr::Bgeu { imm, .. } => BlockEnd::Branch {
                    taken: pc.wrapping_add(imm as i64 as u64),
                    fall: pc.wrapping_add(INSTR_BYTES),
                },
                _ => BlockEnd::Dynamic,
            };
            break;
        }
        if instrs.len() == MAX_BLOCK_LEN {
            end = BlockEnd::Jump { target: pc.wrapping_add(INSTR_BYTES) };
            break;
        }
        if slot + 1 == slots {
            // Fall-through into the next page: a static successor (the
            // chained entry performs the cross-page crossing check).
            end = BlockEnd::Jump { target: pc.wrapping_add(INSTR_BYTES) };
            break;
        }
        slot += 1;
    }
    if instrs.is_empty() {
        max_cost = 0;
    }
    let pure_len = instrs.iter().take_while(|bi| bi.handler != 0).count();
    Block {
        pt,
        entry,
        table_gen,
        code_epoch,
        pte,
        instrs: instrs.as_slice().into(),
        max_cost,
        end,
        pure_len,
    }
}

/// How the crossing's APL-cache probe resolved at validation time. The
/// replayed [`codoms::AplCache::touch`] / [`codoms::AplCache::note_miss`]
/// leave the simulated cache in exactly the state the skipped
/// `check_jump`'s lookup would (same tick, recency and counters), which
/// the unchanged content version guarantees is still the outcome a fresh
/// lookup would produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrossProbe {
    /// The source domain's APL was cached in slot `HwTag`.
    Hit(HwTag),
    /// The source domain's APL was not cached (the crossing was granted by
    /// a capability in parallel with the miss).
    Miss,
}

/// What authorised the cached crossing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrossGrant {
    /// An APL grant. Valid while the APL-cache content version is
    /// unchanged (the entry PC, and with it the call-gate alignment, is
    /// fixed per block).
    Apl,
    /// Capability register `idx` held exactly `cap`. Revalidated against
    /// the live register file and revocation table on every use, so a
    /// revocation or register change between crossings forces the full
    /// check.
    Cap {
        /// The granting capability register.
        idx: u8,
        /// The capability it held at validation time.
        cap: Capability,
    },
}

/// A pre-validated CODOMs crossing descriptor stored on a block-cache way
/// (see the module docs). Only *successful* crossings are cached; the
/// descriptor is cleared whenever the way is refilled.
#[derive(Clone, Copy, Debug)]
pub struct CrossDesc {
    /// Source domain (the caller's `cur_dom`).
    pub from: DomainTag,
    /// Target domain (the block's entry-page tag).
    pub to: DomainTag,
    /// [`codoms::AplCache::version`] the decision was proven against.
    pub apl_version: u64,
    /// How the APL-cache probe resolved.
    pub probe: CrossProbe,
    /// What granted the crossing.
    pub grant: CrossGrant,
}

/// A chain link: the successor block expected at `pc`, by cache slot and
/// fill sequence number (stale after the slot is refilled).
#[derive(Clone, Copy, Debug)]
struct Hint {
    pc: u64,
    slot: usize,
    seq: u64,
}

struct Slot {
    block: Option<Block>,
    /// Monotonic fill sequence number; chain hints referencing an older
    /// sequence are dead.
    seq: u64,
    /// Successor hints: `[0]` for the jump/taken edge (doubling as the
    /// monomorphic target hint for indirect ends), `[1]` for the branch
    /// fall-through edge.
    hints: [Option<Hint>; 2],
    /// Recency stamp for LRU victim selection within the set.
    last: u64,
    /// Cached crossing descriptor for this way's block (see [`CrossDesc`]).
    cross: Option<CrossDesc>,
}

/// Host-side block-cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Lookups served by a valid cached block.
    pub hits: u64,
    /// Lookups that found no valid block (absent or stale).
    pub misses: u64,
    /// Blocks formed and installed.
    pub fills: u64,
    /// Fills that displaced a live block.
    pub evicts: u64,
    /// Evictions that displaced a block of a *different* `(pt, entry)` —
    /// genuine set-capacity conflicts, as opposed to in-place refills of a
    /// stale block.
    pub evict_conflicts: u64,
    /// Block-to-block transfers taken through a chain hint.
    pub chains: u64,
    /// Mid-block aborts after a code-epoch bump (self-modifying write).
    pub bails: u64,
    /// Crossing checks served by a valid crossing descriptor.
    pub cross_hits: u64,
    /// Crossing checks that ran the full `check_jump` (no descriptor, or a
    /// stale one).
    pub cross_misses: u64,
    /// Block executions that ran *budgeted* (worst-case cost did not fit
    /// the deadline, so the deadline was checked per instruction).
    pub budgeted: u64,
    /// Runs that re-entered the block a deadline exit had left mid-way.
    pub resumes: u64,
}

/// 2-way set-associative cache of [`Block`]s keyed by `(page table,
/// entry pc)`, with per-way LRU replacement inside each set. Ways are
/// addressed by a flat *slot index* (`set * WAYS + way`) so chain hints
/// and crossing descriptors can reference a way directly.
pub struct BlockCache {
    slots: Vec<Slot>,
    seq: u64,
    tick: u64,
    stats: BlockStats,
    /// Decode buffer reused across fills (see [`form_block`]).
    scratch: Vec<BlockInstr>,
    /// Where the last run left a block at its deadline.
    parked: Option<Parked>,
}

/// A mid-block resume point: `slot`'s block (pinned to one fill by `seq`,
/// like a chain hint) was left with `pc` about to execute `instrs[index]`.
#[derive(Clone, Copy)]
struct Parked {
    pc: u64,
    slot: usize,
    seq: u64,
    index: usize,
}

impl Default for BlockCache {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockCache {
    /// Creates an empty cache.
    pub fn new() -> BlockCache {
        let empty = || Slot { block: None, seq: 0, hints: [None; 2], last: 0, cross: None };
        BlockCache {
            slots: (0..ENTRIES).map(|_| empty()).collect(),
            seq: 0,
            tick: 0,
            stats: BlockStats::default(),
            scratch: Vec::new(),
            parked: None,
        }
    }

    #[inline]
    fn set_of(pt: PageTableId, entry: u64) -> usize {
        // Fibonacci multiply hash, indexed from the *top* bits of the
        // product so every entry bit influences the set: code regions that
        // differ only far above the page offset (dIPC proxy pages and
        // service segments at identical page offsets in distant VA windows)
        // alias under any shift-xor fold of the low bits.
        let k = (entry / INSTR_BYTES).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((k >> 56) as usize ^ pt.0.wrapping_mul(0x9e37_79b9)) & (SETS - 1)
    }

    #[inline]
    fn valid(b: &Block, pt: PageTableId, entry: u64, table_gen: u64, code_epoch: u64) -> bool {
        b.pt == pt && b.entry == entry && b.table_gen == table_gen && b.code_epoch == code_epoch
    }

    /// Looks up the block entered at `(pt, entry)`, validating it against
    /// the current table generation and code epoch. Returns the slot index
    /// (resolve the block itself with [`BlockCache::block_at`] — the hot
    /// dispatch loop borrows it in place rather than cloning a handle).
    #[inline]
    pub fn lookup(
        &mut self,
        pt: PageTableId,
        entry: u64,
        table_gen: u64,
        code_epoch: u64,
    ) -> Option<usize> {
        let base = Self::set_of(pt, entry) * WAYS;
        for idx in base..base + WAYS {
            if let Some(b) = &self.slots[idx].block {
                if Self::valid(b, pt, entry, table_gen, code_epoch) {
                    self.stats.hits += 1;
                    self.tick += 1;
                    self.slots[idx].last = self.tick;
                    return Some(idx);
                }
            }
        }
        self.stats.misses += 1;
        None
    }

    /// The live block in `slot`. Panics on an empty way: callers only pass
    /// indices just returned by [`BlockCache::lookup`] /
    /// [`BlockCache::insert`] / [`BlockCache::follow_hint`].
    #[inline]
    pub fn block_at(&self, slot: usize) -> &Block {
        self.slots[slot].block.as_ref().expect("slot holds a block")
    }

    /// Forms the block entered at `(pt, entry)` from `page` (see
    /// [`form_block`]) and installs it, returning its slot index.
    #[allow(clippy::too_many_arguments)]
    pub fn fill(
        &mut self,
        pt: PageTableId,
        entry: u64,
        table_gen: u64,
        code_epoch: u64,
        pte: Pte,
        page: &[u8],
        cost: &CostModel,
    ) -> usize {
        let block =
            form_block(&mut self.scratch, pt, entry, table_gen, code_epoch, pte, page, cost);
        self.insert(block)
    }

    /// Installs a freshly formed block, returning its slot index. The
    /// victim way is, in priority order: the way already
    /// holding this `(pt, entry)` (in-place refresh of a stale block), an
    /// empty way, or the least-recently-used way of the set.
    pub fn insert(&mut self, block: Block) -> usize {
        let base = Self::set_of(block.pt, block.entry) * WAYS;
        let ways = base..base + WAYS;
        let idx = ways
            .clone()
            .find(|&i| {
                self.slots[i]
                    .block
                    .as_ref()
                    .is_some_and(|b| b.pt == block.pt && b.entry == block.entry)
            })
            .or_else(|| ways.clone().find(|&i| self.slots[i].block.is_none()))
            .unwrap_or_else(|| {
                ways.min_by_key(|&i| self.slots[i].last).expect("set has at least one way")
            });
        if let Some(old) = &self.slots[idx].block {
            self.stats.evicts += 1;
            if old.pt != block.pt || old.entry != block.entry {
                self.stats.evict_conflicts += 1;
            }
        }
        self.seq += 1;
        self.tick += 1;
        self.stats.fills += 1;
        self.slots[idx] = Slot {
            block: Some(block),
            seq: self.seq,
            hints: [None; 2],
            last: self.tick,
            cross: None,
        };
        idx
    }

    /// Follows the chain hint `edge` (0 = jump/taken, 1 = fall-through) of
    /// `from_slot`, revalidating the target block against the current
    /// invalidation counters. Returns the target slot on success.
    #[inline]
    pub fn follow_hint(
        &mut self,
        from_slot: usize,
        edge: usize,
        pc: u64,
        pt: PageTableId,
        table_gen: u64,
        code_epoch: u64,
    ) -> Option<usize> {
        let h = self.slots[from_slot].hints[edge]?;
        if h.pc != pc || self.slots[h.slot].seq != h.seq {
            return None;
        }
        let b = self.slots[h.slot].block.as_ref()?;
        if Self::valid(b, pt, pc, table_gen, code_epoch) {
            self.stats.chains += 1;
            self.stats.hits += 1;
            self.tick += 1;
            self.slots[h.slot].last = self.tick;
            Some(h.slot)
        } else {
            None
        }
    }

    /// Records that a run hit its deadline in `slot`'s block with `pc`
    /// about to execute `instrs[index]`.
    #[inline]
    pub fn park(&mut self, slot: usize, pc: u64, index: usize) {
        self.parked = Some(Parked { pc, slot, seq: self.slots[slot].seq, index });
    }

    /// Consumes the parked resume point. `Some((slot, index))` if the run
    /// starts at the parked PC, the slot still holds that fill, and the
    /// block is current for `pt` under the live invalidation counters:
    /// `instrs[index..]` is then what the interpreter would fetch from
    /// `pc` on. Counts as a hit, like a followed chain hint.
    #[inline]
    pub fn resume(
        &mut self,
        pc: u64,
        pt: PageTableId,
        table_gen: u64,
        code_epoch: u64,
    ) -> Option<(usize, usize)> {
        let p = self.parked.take()?;
        let s = &mut self.slots[p.slot];
        let b = s.block.as_ref()?;
        if p.pc != pc || s.seq != p.seq || !Self::valid(b, pt, b.entry, table_gen, code_epoch) {
            return None;
        }
        self.stats.resumes += 1;
        self.stats.hits += 1;
        self.tick += 1;
        s.last = self.tick;
        Some((p.slot, p.index))
    }

    /// Records that the block in `to_slot` follows edge `edge` of
    /// `from_slot` at `pc`.
    #[inline]
    pub fn set_hint(&mut self, from_slot: usize, edge: usize, pc: u64, to_slot: usize) {
        let seq = self.slots[to_slot].seq;
        self.slots[from_slot].hints[edge] = Some(Hint { pc, slot: to_slot, seq });
    }

    /// Records a budgeted block execution (for telemetry).
    #[inline]
    pub fn note_budgeted(&mut self) {
        self.stats.budgeted += 1;
    }

    /// Records a mid-block abort (for telemetry).
    #[inline]
    pub fn note_bail(&mut self) {
        self.stats.bails += 1;
    }

    /// The crossing descriptor cached on `slot`, if any.
    #[inline]
    pub fn cross_desc(&self, slot: usize) -> Option<CrossDesc> {
        self.slots[slot].cross
    }

    /// Installs (or replaces) the crossing descriptor on `slot`.
    #[inline]
    pub fn set_cross_desc(&mut self, slot: usize, desc: CrossDesc) {
        self.slots[slot].cross = Some(desc);
    }

    /// Records a crossing served by a valid descriptor.
    #[inline]
    pub fn note_cross_hit(&mut self) {
        self.stats.cross_hits += 1;
    }

    /// Records a crossing that ran the full check.
    #[inline]
    pub fn note_cross_miss(&mut self) {
        self.stats.cross_misses += 1;
    }

    /// Host-side counters.
    pub fn stats(&self) -> BlockStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmem::{DomainTag, FrameId, PageFlags};

    fn pte() -> Pte {
        Pte { frame: FrameId(1), flags: PageFlags::RX, tag: DomainTag(1) }
    }

    fn page_of(instrs: &[Instr]) -> Vec<u8> {
        let mut bytes = vec![0u8; PAGE_SIZE as usize];
        for (k, i) in instrs.iter().enumerate() {
            bytes[k * 8..k * 8 + 8].copy_from_slice(&i.encode());
        }
        bytes
    }

    const PT: PageTableId = PageTableId(0);

    fn form(entry: u64, table_gen: u64, code_epoch: u64, page: &[u8], cost: &CostModel) -> Block {
        form_block(&mut Vec::new(), PT, entry, table_gen, code_epoch, pte(), page, cost)
    }

    #[test]
    fn same_page_loop_unrolls_to_max_len() {
        let cost = CostModel::default();
        let page = page_of(&[
            Instr::Addi { rd: 5, rs1: 5, imm: 1 },
            Instr::Xor { rd: 6, rs1: 5, rs2: 5 },
            Instr::Jal { rd: 0, imm: -16 },
        ]);
        let b = form(0x1000, 1, 2, &page, &cost);
        // The same-page backward jump is followed during formation, so the
        // three-instruction loop body repeats until the length cap; the
        // block then ends mid-body with a static fall-through edge.
        assert_eq!(b.instrs.len(), MAX_BLOCK_LEN);
        assert_eq!(b.end, BlockEnd::Jump { target: 0x1008 });
        // Entry miss + MAX_BLOCK_LEN base-cost instructions.
        assert_eq!(b.max_cost, cost.tlb_miss + MAX_BLOCK_LEN as u64 * cost.base);
    }

    #[test]
    fn cross_page_direct_jump_ends_block_with_target() {
        let cost = CostModel::default();
        let page = page_of(&[
            Instr::Addi { rd: 5, rs1: 5, imm: 1 },
            Instr::Jal { rd: 0, imm: PAGE_SIZE as i32 },
        ]);
        let b = form(0x1000, 1, 2, &page, &cost);
        // A jump off this page cannot be inlined (a different PTE means a
        // fresh crossing check); it stays a chainable static edge.
        assert_eq!(b.instrs.len(), 2);
        assert_eq!(b.end, BlockEnd::Jump { target: 0x1008 + PAGE_SIZE });
        assert_eq!(b.max_cost, cost.tlb_miss + 2 * cost.base);
    }

    #[test]
    fn branch_records_both_edges() {
        let cost = CostModel::default();
        let page = page_of(&[
            Instr::Addi { rd: 5, rs1: 5, imm: -1 },
            Instr::Bne { rs1: 5, rs2: 0, imm: -8 },
            Instr::Halt,
        ]);
        let b = form(0x2000, 0, 0, &page, &cost);
        assert_eq!(b.instrs.len(), 2);
        assert_eq!(b.end, BlockEnd::Branch { taken: 0x2000, fall: 0x2010 });
    }

    #[test]
    fn unbounded_cost_instruction_is_alone_in_its_block() {
        let cost = CostModel::default();
        let unbounded = [
            Instr::Work { rs1: 5, imm: 0 },
            Instr::MemCpy { rd: 5, rs1: 6, rs2: 7 },
            Instr::MemSet { rd: 5, rs1: 6, rs2: 7 },
        ];
        for u in unbounded {
            let page = page_of(&[Instr::Nop, u, Instr::Halt]);
            let b = form(0x1000, 0, 0, &page, &cost);
            assert_eq!(b.instrs.len(), 1, "{u:?}: block must stop before it");
            assert_eq!(b.end, BlockEnd::Jump { target: 0x1008 });
            // At the instruction itself: a block of one, always budgeted.
            let b = form(0x1008, 0, 0, &page, &cost);
            assert_eq!(b.instrs.len(), 1, "{u:?}");
            assert_eq!(b.instrs[0].instr, u);
            assert_eq!(b.max_cost, u64::MAX, "{u:?}");
            assert_eq!(b.end, BlockEnd::Jump { target: 0x1010 });
            assert_eq!(b.pure_len, 0);
            assert_eq!(b.instrs[0].may_write, !matches!(u, Instr::Work { .. }), "{u:?}");
        }
        // Immediate-form Work is statically bounded and blockable.
        let page = page_of(&[Instr::Work { rs1: 0, imm: 500 }, Instr::Halt]);
        let b = form(0x1000, 0, 0, &page, &cost);
        assert_eq!(b.instrs.len(), 2);
        assert_eq!(b.max_cost, cost.tlb_miss + (cost.base + 500) + cost.base);

        // A MemCpy that overwrites the slot after itself: the one-instruction
        // block re-checks the code epoch, so the successor is formed from
        // the copied bytes, not chained into from a stale block.
        use crate::isa::reg::{A0, T0, T1, T2};
        use crate::{Asm, Cpu, StepEvent};
        use codoms::cap::RevocationTable;
        use simmem::Memory;
        const CODE: u64 = 0x10_000;
        let mut a = Asm::new();
        a.li(T0, CODE + 0x100); // destination: the Movi after the MemCpy
        a.li(T1, CODE + 0x200); // source: a `Movi a0, 2`
        a.li(T2, 8);
        while a.here() < 0xf8 {
            a.push(Instr::Nop);
        }
        a.push(Instr::MemCpy { rd: T0, rs1: T1, rs2: T2 });
        a.push(Instr::Movi { rd: A0, imm: 1 });
        a.push(Instr::Halt);
        let mut code = a.finish().bytes;
        code.resize(0x200, 0);
        code.extend_from_slice(&Instr::Movi { rd: A0, imm: 2 }.encode());
        let mut outcomes = Vec::new();
        for fast in [false, true] {
            crate::set_fastpath(Some(fast));
            let mut mem = Memory::new();
            let mut cpu = Cpu::new(0);
            crate::set_fastpath(None);
            mem.map_anon(Memory::GLOBAL_PT, CODE, 1, PageFlags::RWX, DomainTag(1));
            mem.kwrite(Memory::GLOBAL_PT, CODE, &code).unwrap();
            cpu.cur_dom = DomainTag(1);
            let mut rev = RevocationTable::new();
            // First from the successor, so its stale block is cached.
            cpu.pc = CODE + 0x100;
            let exit = cpu.run(&mut mem, &mut rev, &cost, u64::MAX);
            assert_eq!((exit.event, cpu.reg(A0)), (StepEvent::Halt, 1));
            let fills = cpu.block_stats().fills;
            cpu.pc = CODE;
            let exit = cpu.run(&mut mem, &mut rev, &cost, u64::MAX);
            assert_eq!(exit.event, StepEvent::Halt);
            assert_eq!(cpu.reg(A0), 2, "fast={fast}: stale successor ran after the MemCpy");
            if fast {
                let b = cpu.block_stats();
                assert_eq!(b.bails, 1, "the MemCpy block saw the epoch bump: {b:?}");
                assert!(b.fills >= fills + 3, "prefix, MemCpy and re-formed successor: {b:?}");
            }
            outcomes.push((cpu.cycles, cpu.retired, cpu.itlb.stats(), cpu.dtlb.stats()));
        }
        assert_eq!(outcomes[0], outcomes[1], "engines diverged");
    }

    #[test]
    fn undecodable_slot_ends_block_and_is_step_only() {
        let cost = CostModel::default();
        let mut page = page_of(&[Instr::Nop, Instr::Nop]);
        page[16..24].copy_from_slice(&[0xEE; 8]);
        let b = form(0x1000, 0, 0, &page, &cost);
        assert_eq!(b.instrs.len(), 2);
        assert_eq!(b.end, BlockEnd::Jump { target: 0x1010 });
        let b = form(0x1010, 0, 0, &page, &cost);
        assert!(b.instrs.is_empty(), "undecodable entry is step-only");
        assert_eq!((b.max_cost, b.end), (0, BlockEnd::Dynamic));
    }

    #[test]
    fn page_boundary_falls_through_to_next_page() {
        let cost = CostModel::default();
        let page = page_of(&[]); // all Nops
        let last = 0x1000 + PAGE_SIZE - 2 * INSTR_BYTES;
        let b = form(last, 0, 0, &page, &cost);
        assert_eq!(b.instrs.len(), 2);
        assert_eq!(b.end, BlockEnd::Jump { target: 0x1000 + PAGE_SIZE });
    }

    #[test]
    fn cache_validates_generation_epoch_and_chains() {
        let cost = CostModel::default();
        let page = page_of(&[Instr::Nop, Instr::Jal { rd: 0, imm: -8 }]);
        let mut cache = BlockCache::new();
        assert!(cache.lookup(PT, 0x1000, 5, 7).is_none());
        let b = form(0x1000, 5, 7, &page, &cost);
        let slot = cache.insert(b);
        assert!(cache.lookup(PT, 0x1000, 5, 7).is_some());
        assert!(cache.lookup(PT, 0x1000, 6, 7).is_none(), "stale generation");
        assert!(cache.lookup(PT, 0x1000, 5, 8).is_none(), "stale epoch");
        // Chain hint round-trip (self-loop).
        cache.set_hint(slot, 0, 0x1000, slot);
        assert!(cache.follow_hint(slot, 0, 0x1000, PT, 5, 7).is_some());
        assert!(cache.follow_hint(slot, 0, 0x1000, PT, 5, 8).is_none(), "stale chained epoch");
        // Refilling the slot kills outstanding hints via the sequence number.
        let b2 = form(0x1000, 5, 8, &page, &cost);
        cache.set_hint(slot, 0, 0x1000, slot);
        let seq_hint = cache.slots[slot].hints[0].unwrap().seq;
        let slot2 = cache.insert(b2);
        assert_eq!(slot, slot2);
        assert!(cache.slots[slot].seq > seq_hint);
        let s = cache.stats();
        assert!(s.fills == 2 && s.evicts == 1 && s.chains == 1);
        assert_eq!(s.evict_conflicts, 0, "same-entry refresh is not a conflict");
    }

    /// Mirrors the private `BlockCache::set_of` so tests can construct
    /// same-set conflict groups.
    fn set_of(entry: u64) -> usize {
        let k = (entry / INSTR_BYTES).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((k >> 56) as usize) & (SETS - 1)
    }

    #[test]
    fn two_ways_hold_a_conflicting_pair_and_lru_picks_the_victim() {
        let cost = CostModel::default();
        let page = page_of(&[Instr::Nop, Instr::Halt]);
        // Three distinct page-start entries that land in the same set.
        let e0 = 0x1000u64;
        let mut same_set =
            (1u64..).map(|n| e0 + n * PAGE_SIZE).filter(|&e| set_of(e) == set_of(e0));
        let e1 = same_set.next().unwrap();
        let e2 = same_set.next().unwrap();
        let mut cache = BlockCache::new();
        cache.insert(form(e0, 0, 0, &page, &cost));
        cache.insert(form(e1, 0, 0, &page, &cost));
        // Both ways live: the direct-mapped design would have evicted e0.
        assert!(cache.lookup(PT, e0, 0, 0).is_some());
        assert!(cache.lookup(PT, e1, 0, 0).is_some());
        assert_eq!(cache.stats().evicts, 0);
        // Make e0 the MRU way, then overflow the set: the LRU way (e1)
        // must be the victim, and the displacement is a genuine conflict.
        assert!(cache.lookup(PT, e0, 0, 0).is_some());
        cache.insert(form(e2, 0, 0, &page, &cost));
        assert!(cache.lookup(PT, e0, 0, 0).is_some(), "MRU way survives");
        assert!(cache.lookup(PT, e2, 0, 0).is_some());
        assert!(cache.lookup(PT, e1, 0, 0).is_none(), "LRU way was evicted");
        let s = cache.stats();
        assert_eq!(s.evicts, 1);
        assert_eq!(s.evict_conflicts, 1);
    }

    #[test]
    fn crossing_descriptor_rides_the_way_and_dies_with_it() {
        let cost = CostModel::default();
        let page = page_of(&[Instr::Nop, Instr::Halt]);
        let mut cache = BlockCache::new();
        let slot = cache.insert(form(0x1000, 0, 0, &page, &cost));
        assert!(cache.cross_desc(slot).is_none());
        cache.set_cross_desc(
            slot,
            CrossDesc {
                from: DomainTag(1),
                to: DomainTag(2),
                apl_version: 7,
                probe: CrossProbe::Hit(HwTag(3)),
                grant: CrossGrant::Apl,
            },
        );
        let d = cache.cross_desc(slot).expect("descriptor stored");
        assert_eq!(d.from, DomainTag(1));
        assert_eq!(d.apl_version, 7);
        assert_eq!(d.probe, CrossProbe::Hit(HwTag(3)));
        // Refilling the way clears the descriptor.
        let slot2 = cache.insert(form(0x1000, 1, 0, &page, &cost));
        assert_eq!(slot, slot2);
        assert!(cache.cross_desc(slot).is_none());
    }

    #[test]
    fn pure_prefix_covers_alu_and_stops_at_impure() {
        let cost = CostModel::default();
        let page = page_of(&[
            Instr::Addi { rd: 5, rs1: 5, imm: 1 },
            Instr::Xor { rd: 6, rs1: 5, rs2: 5 },
            Instr::Ld { rd: 7, rs1: 2, imm: 0 },
            Instr::Halt,
        ]);
        let b = form(0x1000, 0, 0, &page, &cost);
        assert_eq!(b.instrs.len(), 4);
        assert_eq!(b.pure_len, 2, "Addi and Xor are pure; Ld is not");
        assert!(b.instrs[0].handler != 0 && b.instrs[1].handler != 0);
        assert_eq!(b.instrs[2].handler, 0);
        assert_eq!(b.instrs[3].handler, 0, "Halt never retires through a handler");
    }
}
