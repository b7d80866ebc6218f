//! Asynchronous dIPC call rings.
//!
//! Synchronous dIPC eliminates the kernel from the call path, but the caller
//! still waits out every callee's latency in line. CODOMs was designed with
//! *asynchronous* capabilities precisely so a domain could hand work to
//! another protection domain and keep executing. This crate is that missing
//! piece for the simulated stack: a capability-protected shared-memory ring
//! into which a caller enqueues fixed-size call records and continues, while
//! the consumer domain drains records in batches and posts completions to a
//! paired reply ring.
//!
//! # Ring layout
//!
//! One contiguous region (mapped into a dedicated CODOMs domain so grants
//! gate access exactly like proxy entry points):
//!
//! ```text
//! +0x000  TAIL      producer cursor   (free-running u64)
//! +0x040  HEAD      consumer cursor   (free-running u64)
//! +0x080  DOORBELL  consumer-armed eventcount word (futex)
//! +0x0c0  WAITP     producer parking word, Block policy (futex)
//! +0x100  CLOSED    poisoned: a ring endpoint's process died
//! +0x140  STALL     fault-injection stall word (simfault RingStall)
//! +0x180  SEQ[cap]  per-slot sequence numbers (Vyukov MPSC protocol)
//! +align  SLOTS     cap × 32-byte call records
//! ```
//!
//! Every control word sits on its own 64-byte line (no false sharing on a
//! real machine; documentation flavor here). Cursors free-run and wrap
//! mod 2⁶⁴; `tail - head` (wrapping) is the occupancy, so a power-of-two
//! capacity disambiguates full (`tail - head == cap`) from empty
//! (`tail == head`) without losing a slot.
//!
//! # Variants
//!
//! * **SPSC** — one producer, one consumer. The producer owns TAIL outright:
//!   write record, then publish by bumping TAIL.
//! * **MPSC** — producers claim a slot ticket with a single `Amoadd` on TAIL
//!   (x86 `lock xadd`), then wait until `SEQ[t & mask] == t` (the slot has
//!   been recycled by the consumer), write the record, and publish with
//!   `SEQ[t & mask] = t + 1`. The consumer dequeues when
//!   `SEQ[h & mask] == h + 1` and recycles with `SEQ[h & mask] = h + cap`.
//!
//! # Notification and backpressure
//!
//! The DOORBELL word is an eventcount: the consumer arms it (writes 1),
//! re-checks the ring, and futex-waits on it; a producer's *flush* clears it
//! and futex-wakes only when it was armed, so a producer batching B records
//! pays one wake per batch, not per record. Every enqueue burst must be
//! followed by a flush or the consumer can sleep through published records.
//!
//! When the ring is full the producer picks an explicit policy
//! ([`Backpressure`]): park on WAITP until the consumer frees a slot
//! (`Block`), spin with `yield` (`Yield`), or return `-EAGAIN` (`Fail`).
//!
//! # Determinism and faults
//!
//! All guest paths unconditionally test the STALL word — the check is
//! emitted whether or not fault injection is armed, so a zero-rate plan is
//! cycle-identical to a fault-free build. When the `ring_stall` simfault
//! site fires, the injector writes STALL ≠ 0 and heals it at a later cycle;
//! stalled guests yield and retry. Ring teardown (process death) writes
//! CLOSED = 1; producers and parked waiters observe it and fail with
//! [`ERR_FAULT`] instead of leaking in-flight slots.
#![warn(missing_docs)]

use cdvm::isa::reg::*;
use cdvm::isa::Reg;
use cdvm::{Asm, Instr};
use simmem::{Memory, PageTableId};

/// `-EAGAIN`: the ring is full and the policy is [`Backpressure::Fail`].
pub const ERR_AGAIN: u64 = (-11i64) as u64;

/// Matches `DIPC_ERR_FAULT` in the dIPC runtime: the ring was closed
/// (endpoint process killed or unwound) while the operation was in flight.
pub const ERR_FAULT: u64 = (-125i64) as u64;

/// Ring geometry and byte offsets. See the crate docs for the layout map.
pub mod layout {
    /// Producer cursor (free-running u64).
    pub const CTRL_TAIL: u64 = 0x000;
    /// Consumer cursor (free-running u64).
    pub const CTRL_HEAD: u64 = 0x040;
    /// Consumer-armed eventcount word (futex target).
    pub const CTRL_DOORBELL: u64 = 0x080;
    /// Producer parking word for the Block policy (futex target).
    pub const CTRL_WAITP: u64 = 0x0c0;
    /// Non-zero once an endpoint process died; all ops fail `ERR_FAULT`.
    pub const CTRL_CLOSED: u64 = 0x100;
    /// Fault-injection stall word (simfault `ring_stall` site).
    pub const CTRL_STALL: u64 = 0x140;
    /// Per-slot sequence numbers, `cap` u64 words.
    pub const CTRL_SEQ: u64 = 0x180;

    /// Words per call record.
    pub const REC_WORDS: usize = 4;
    /// Bytes per call record.
    pub const REC_BYTES: u64 = 32;
    /// `log2(REC_BYTES)` for index→offset shifts.
    pub const REC_SHIFT: u32 = 5;

    /// Byte offset of the slot array (64-byte aligned past the SEQ array).
    pub fn slots_off(cap: u64) -> u64 {
        (CTRL_SEQ + cap * 8 + 63) & !63
    }

    /// Total bytes a ring of `cap` records occupies.
    pub fn ring_bytes(cap: u64) -> u64 {
        slots_off(cap) + cap * REC_BYTES
    }
}

/// Pure cursor arithmetic — shared by the host model, the emitted guest
/// code (by construction) and the property tests' oracle.
pub mod cursor {
    /// Records currently in the ring (cursors free-run and wrap mod 2⁶⁴).
    #[inline]
    pub fn occupancy(head: u64, tail: u64) -> u64 {
        tail.wrapping_sub(head)
    }

    /// Ring holds `cap` records: producers must back off.
    #[inline]
    pub fn is_full(head: u64, tail: u64, cap: u64) -> bool {
        occupancy(head, tail) >= cap
    }

    /// No records pending.
    #[inline]
    pub fn is_empty(head: u64, tail: u64) -> bool {
        head == tail
    }

    /// Slot index a cursor value maps to.
    #[inline]
    pub fn slot_index(cursor: u64, cap: u64) -> u64 {
        cursor & (cap - 1)
    }
}

/// What a producer does when the ring is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backpressure {
    /// Park on the WAITP futex until the consumer frees a slot.
    Block,
    /// `yield` and retry (burns cycles, never sleeps).
    Yield,
    /// Return [`ERR_AGAIN`] immediately.
    Fail,
}

/// Static ring configuration, fixed at mint time.
#[derive(Clone, Copy, Debug)]
pub struct RingCfg {
    /// Capacity in records; must be a power of two.
    pub cap: u64,
    /// Multi-producer (Vyukov ticket protocol) vs single-producer.
    pub mpsc: bool,
    /// Producer policy when full.
    pub policy: Backpressure,
}

impl RingCfg {
    /// A ring configuration, checked.
    pub fn new(cap: u64, mpsc: bool, policy: Backpressure) -> RingCfg {
        assert!(cap.is_power_of_two(), "ring capacity must be a power of two");
        assert!((2..=1 << 20).contains(&cap), "unreasonable ring capacity {cap}");
        RingCfg { cap, mpsc, policy }
    }

    /// Slot-index mask.
    pub fn mask(&self) -> u64 {
        self.cap - 1
    }
}

/// Word-granular access to ring storage, keyed by byte offset from the ring
/// base. One protocol implementation ([`Ring`]) runs against both a plain
/// in-process buffer ([`FlatRing`], the property-test harness) and real
/// simulated guest memory ([`GuestRing`]).
pub trait RingMem {
    /// Loads the u64 at byte offset `off`.
    fn ld(&self, off: u64) -> u64;
    /// Stores the u64 at byte offset `off`.
    fn st(&mut self, off: u64, v: u64);
}

/// Ring storage backed by a host `Vec<u64>` — the model harness.
#[derive(Clone, Debug)]
pub struct FlatRing {
    /// Backing words, `ring_bytes(cap) / 8` long.
    pub words: Vec<u64>,
}

impl FlatRing {
    /// Zeroed storage sized for `cap` records.
    pub fn new(cap: u64) -> FlatRing {
        FlatRing { words: vec![0; (layout::ring_bytes(cap) / 8) as usize] }
    }
}

impl RingMem for FlatRing {
    fn ld(&self, off: u64) -> u64 {
        self.words[(off / 8) as usize]
    }
    fn st(&mut self, off: u64, v: u64) {
        self.words[(off / 8) as usize] = v;
    }
}

/// Ring storage living in simulated memory at `base` under page table `pt`
/// — the view the host side (channel minting, kill-time reclaim, tests)
/// uses to touch the same words the guest code does.
pub struct GuestRing<'a> {
    /// The machine's memory.
    pub mem: &'a mut Memory,
    /// Page table the ring is mapped under.
    pub pt: PageTableId,
    /// Virtual address of the ring base.
    pub base: u64,
}

impl RingMem for GuestRing<'_> {
    fn ld(&self, off: u64) -> u64 {
        self.mem.kread_u64(self.pt, self.base + off).expect("ring unmapped")
    }
    fn st(&mut self, off: u64, v: u64) {
        self.mem.kwrite_u64(self.pt, self.base + off, v).expect("ring unmapped")
    }
}

/// Why a host-side enqueue did not happen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqErr {
    /// Occupancy reached capacity.
    Full,
    /// The ring is closed.
    Closed,
}

/// The ring protocol, host side. Mirrors the emitted guest code
/// operation-for-operation; differential tests check the two agree on the
/// final memory image.
#[derive(Clone, Copy, Debug)]
pub struct Ring {
    /// Geometry and policy.
    pub cfg: RingCfg,
}

impl Ring {
    /// Wraps a configuration.
    pub fn new(cfg: RingCfg) -> Ring {
        Ring { cfg }
    }

    /// Initializes ring storage: cursors start at `init_cursor` (non-zero
    /// values exercise wrap-around) and every slot is recycled for its
    /// first claimant (`SEQ[i] = init_cursor + i`).
    pub fn init(&self, m: &mut impl RingMem, init_cursor: u64) {
        m.st(layout::CTRL_TAIL, init_cursor);
        m.st(layout::CTRL_HEAD, init_cursor);
        m.st(layout::CTRL_DOORBELL, 0);
        m.st(layout::CTRL_WAITP, 0);
        m.st(layout::CTRL_CLOSED, 0);
        m.st(layout::CTRL_STALL, 0);
        for i in 0..self.cfg.cap {
            m.st(self.seq_off(init_cursor.wrapping_add(i)), init_cursor.wrapping_add(i));
        }
    }

    /// Byte offset of the SEQ word a cursor maps to.
    pub fn seq_off(&self, cursor: u64) -> u64 {
        layout::CTRL_SEQ + cursor::slot_index(cursor, self.cfg.cap) * 8
    }

    /// Byte offset of the record slot a cursor maps to.
    pub fn slot_off(&self, cursor: u64) -> u64 {
        layout::slots_off(self.cfg.cap)
            + (cursor::slot_index(cursor, self.cfg.cap) << layout::REC_SHIFT)
    }

    /// Producer cursor.
    pub fn tail(&self, m: &impl RingMem) -> u64 {
        m.ld(layout::CTRL_TAIL)
    }

    /// Consumer cursor.
    pub fn head(&self, m: &impl RingMem) -> u64 {
        m.ld(layout::CTRL_HEAD)
    }

    /// Records currently pending.
    pub fn occupancy(&self, m: &impl RingMem) -> u64 {
        cursor::occupancy(self.head(m), self.tail(m))
    }

    /// True once the ring was poisoned.
    pub fn is_closed(&self, m: &impl RingMem) -> bool {
        m.ld(layout::CTRL_CLOSED) != 0
    }

    /// Poisons the ring: all subsequent producer and parked-waiter
    /// operations fail with [`ERR_FAULT`]. Idempotent.
    ///
    /// Also zeroes the DOORBELL and WAITP eventcount words. Blocking
    /// syscalls restart on wake-up, so a parked waiter re-executes
    /// `FUTEX_WAIT` against the word it armed; a waker that leaves the
    /// word unchanged loses the wake (the re-executed wait re-blocks
    /// before the guest's CLOSED re-check can run). Guest wakers
    /// ([`emit::emit_flush`], [`emit::emit_dequeue`]) clear the word
    /// for the same reason.
    pub fn close(&self, m: &mut impl RingMem) {
        m.st(layout::CTRL_CLOSED, 1);
        m.st(layout::CTRL_DOORBELL, 0);
        m.st(layout::CTRL_WAITP, 0);
    }

    /// Sets the fault-injection stall word.
    pub fn set_stall(&self, m: &mut impl RingMem, v: u64) {
        m.st(layout::CTRL_STALL, v);
    }

    /// One-shot enqueue (pre-check, claim, write, publish as a single host
    /// step — the host runs serially, so this is the guest protocol with no
    /// interleaving inside it).
    pub fn try_enqueue(
        &self,
        m: &mut impl RingMem,
        rec: &[u64; layout::REC_WORDS],
    ) -> Result<u64, EnqErr> {
        if self.is_closed(m) {
            return Err(EnqErr::Closed);
        }
        let (h, t) = (self.head(m), self.tail(m));
        if cursor::is_full(h, t, self.cfg.cap) {
            return Err(EnqErr::Full);
        }
        if self.cfg.mpsc {
            // Claim + seq-gate + publish.
            m.st(layout::CTRL_TAIL, t.wrapping_add(1));
            debug_assert_eq!(m.ld(self.seq_off(t)), t, "slot not recycled");
            self.write_rec(m, t, rec);
            m.st(self.seq_off(t), t.wrapping_add(1));
        } else {
            self.write_rec(m, t, rec);
            m.st(layout::CTRL_TAIL, t.wrapping_add(1));
        }
        Ok(t)
    }

    /// One-shot dequeue. `None` when nothing is ready (empty, or the head
    /// record is claimed but not yet published). Recycles the slot and
    /// advances HEAD. Consumers may drain a closed ring.
    pub fn try_dequeue(&self, m: &mut impl RingMem) -> Option<[u64; layout::REC_WORDS]> {
        let (h, t) = (self.head(m), self.tail(m));
        if cursor::is_empty(h, t) {
            return None;
        }
        if self.cfg.mpsc && m.ld(self.seq_off(h)) != h.wrapping_add(1) {
            return None;
        }
        let rec = self.read_rec(m, h);
        if self.cfg.mpsc {
            m.st(self.seq_off(h), h.wrapping_add(self.cfg.cap));
        }
        m.st(layout::CTRL_HEAD, h.wrapping_add(1));
        Some(rec)
    }

    /// Writes a record into the slot `cursor` maps to.
    pub fn write_rec(&self, m: &mut impl RingMem, cursor: u64, rec: &[u64; layout::REC_WORDS]) {
        let off = self.slot_off(cursor);
        for (i, w) in rec.iter().enumerate() {
            m.st(off + i as u64 * 8, *w);
        }
    }

    /// Reads the record from the slot `cursor` maps to.
    pub fn read_rec(&self, m: &impl RingMem, cursor: u64) -> [u64; layout::REC_WORDS] {
        let off = self.slot_off(cursor);
        let mut rec = [0u64; layout::REC_WORDS];
        for (i, w) in rec.iter_mut().enumerate() {
            *w = m.ld(off + i as u64 * 8);
        }
        rec
    }

    // ---- split-step MPSC producer API -----------------------------------
    //
    // The guest MPSC enqueue is four observable steps with interleaving
    // points between them; the property tests drive these against arbitrary
    // schedules to model claim races that the serial one-shot path cannot
    // exhibit.

    /// Step 1: advisory full pre-check (racy by design for MPSC).
    pub fn step_precheck(&self, m: &impl RingMem) -> Result<(), EnqErr> {
        if self.is_closed(m) {
            return Err(EnqErr::Closed);
        }
        if cursor::is_full(self.head(m), self.tail(m), self.cfg.cap) {
            return Err(EnqErr::Full);
        }
        Ok(())
    }

    /// Step 2: claim a ticket (`Amoadd` on TAIL). May overclaim past a
    /// concurrent producer; the seq gate below serializes.
    pub fn step_claim(&self, m: &mut impl RingMem) -> u64 {
        let t = m.ld(layout::CTRL_TAIL);
        m.st(layout::CTRL_TAIL, t.wrapping_add(1));
        t
    }

    /// Step 3: the slot for `ticket` has been recycled and may be written.
    pub fn step_seq_ready(&self, m: &impl RingMem, ticket: u64) -> bool {
        m.ld(self.seq_off(ticket)) == ticket
    }

    /// Step 4: write the record and publish (`SEQ = ticket + 1`).
    pub fn step_publish(&self, m: &mut impl RingMem, ticket: u64, rec: &[u64; layout::REC_WORDS]) {
        debug_assert!(self.step_seq_ready(m, ticket));
        self.write_rec(m, ticket, rec);
        m.st(self.seq_off(ticket), ticket.wrapping_add(1));
    }
}

/// Guest-code emitters. Each expands the ring protocol inline at the call
/// site (no function-call overhead, mirroring how dIPC inlines proxies).
///
/// Conventions shared by all emitters:
///
/// * `base` holds the ring's virtual base address and is never clobbered —
///   it must not be one of `t0–t6`, `a0`, `a1`, `a7`.
/// * `tag` must be unique per expansion (labels are derived from it).
/// * Emitted code clobbers `t0–t6`, `a0`, `a1`, `a7` and returns its status
///   in `a0`.
/// * Record closures (`write_rec`/`read_rec`) receive the slot pointer in
///   `t3` and must preserve `t1`, `t3`, `t4`, `t5` and `base`; `t0`, `t2`
///   and `t6` are scratch.
pub mod emit {
    use super::*;
    use simkernel::sysno;

    fn check_base(base: Reg) {
        assert!(
            ![T0, T1, T2, T3, T4, T5, T6, A0, A1, A7].contains(&base),
            "ring base register x{base} would be clobbered"
        );
    }

    /// Emits the always-on stall gate: loop `yield` while STALL ≠ 0. The
    /// check is unconditional so a zero-rate fault plan stays
    /// cycle-identical to a fault-free build.
    fn stall_gate(a: &mut Asm, tag: &str, base: Reg, go: &str) {
        a.label(&format!("{tag}_stall"));
        a.push(Instr::Ld { rd: T0, rs1: base, imm: layout::CTRL_STALL as i32 });
        a.beq(T0, ZERO, go);
        a.syscall(sysno::YIELD);
        a.j(&format!("{tag}_stall"));
        a.label(go);
    }

    /// Emits `t3 = base + slots_off + (cursor & mask) * REC_BYTES` from the
    /// cursor in `cur` (clobbers `t0`).
    fn slot_ptr(a: &mut Asm, base: Reg, cfg: &RingCfg, cur: Reg) {
        a.push(Instr::Andi { rd: T3, rs1: cur, imm: cfg.mask() as i32 });
        a.push(Instr::Slli { rd: T3, rs1: T3, imm: layout::REC_SHIFT as i32 });
        a.li(T0, layout::slots_off(cfg.cap));
        a.push(Instr::Add { rd: T3, rs1: T3, rs2: T0 });
        a.push(Instr::Add { rd: T3, rs1: T3, rs2: base });
    }

    /// Emits `t5 = base + CTRL_SEQ + (cursor & mask) * 8` (clobbers `t0`).
    fn seq_ptr(a: &mut Asm, base: Reg, cfg: &RingCfg, cur: Reg) {
        a.push(Instr::Andi { rd: T5, rs1: cur, imm: cfg.mask() as i32 });
        a.push(Instr::Slli { rd: T5, rs1: T5, imm: 3 });
        a.li(T0, layout::CTRL_SEQ);
        a.push(Instr::Add { rd: T5, rs1: T5, rs2: T0 });
        a.push(Instr::Add { rd: T5, rs1: T5, rs2: base });
    }

    /// Emits an inline enqueue. On exit `a0` = 0 on success, [`ERR_AGAIN`]
    /// (Fail policy, ring full) or [`ERR_FAULT`] (ring closed).
    /// `write_rec` emits the four record-word stores through the slot
    /// pointer in `t3` (offsets 0, 8, 16, 24).
    pub fn emit_enqueue(
        a: &mut Asm,
        tag: &str,
        base: Reg,
        cfg: &RingCfg,
        write_rec: &dyn Fn(&mut Asm, Reg),
    ) {
        check_base(base);
        let l = |s: &str| format!("{tag}_enq_{s}");
        a.label(&l("retry"));
        stall_gate(a, &l("sg"), base, &l("go"));
        a.push(Instr::Ld { rd: T0, rs1: base, imm: layout::CTRL_CLOSED as i32 });
        a.bne(T0, ZERO, &l("closed"));
        // Occupancy pre-check (authoritative for SPSC, advisory for MPSC).
        a.push(Instr::Ld { rd: T1, rs1: base, imm: layout::CTRL_TAIL as i32 });
        a.push(Instr::Ld { rd: T2, rs1: base, imm: layout::CTRL_HEAD as i32 });
        a.push(Instr::Sub { rd: T3, rs1: T1, rs2: T2 });
        a.li(T4, cfg.cap);
        a.bltu(T3, T4, &l("room"));
        match cfg.policy {
            Backpressure::Fail => {
                a.li(A0, ERR_AGAIN);
                a.j(&l("done"));
            }
            Backpressure::Yield => {
                a.syscall(sysno::YIELD);
                a.j(&l("retry"));
            }
            Backpressure::Block => {
                // Eventcount park: arm WAITP, re-check, sleep.
                a.li(T0, 1);
                a.push(Instr::St { rs1: base, rs2: T0, imm: layout::CTRL_WAITP as i32 });
                a.push(Instr::Ld { rd: T1, rs1: base, imm: layout::CTRL_TAIL as i32 });
                a.push(Instr::Ld { rd: T2, rs1: base, imm: layout::CTRL_HEAD as i32 });
                a.push(Instr::Sub { rd: T3, rs1: T1, rs2: T2 });
                a.bltu(T3, T4, &l("retry"));
                a.push(Instr::Ld { rd: T0, rs1: base, imm: layout::CTRL_CLOSED as i32 });
                a.bne(T0, ZERO, &l("closed"));
                a.push(Instr::Addi { rd: A0, rs1: base, imm: layout::CTRL_WAITP as i32 });
                a.li(A1, 1);
                a.syscall(sysno::FUTEX_WAIT);
                a.j(&l("retry"));
            }
        }
        a.label(&l("room"));
        if cfg.mpsc {
            // Claim a ticket with one atomic fetch-add on TAIL.
            a.li(T0, 1);
            a.push(Instr::Addi { rd: T4, rs1: base, imm: layout::CTRL_TAIL as i32 });
            a.push(Instr::Amoadd { rd: T4, rs1: T4, rs2: T0 }); // t4 = ticket
            seq_ptr(a, base, cfg, T4);
            // Gate: wait until the consumer recycled our slot.
            a.label(&l("seqwait"));
            a.push(Instr::Ld { rd: T6, rs1: T5, imm: 0 });
            a.beq(T6, T4, &l("claimed"));
            a.push(Instr::Ld { rd: T0, rs1: base, imm: layout::CTRL_CLOSED as i32 });
            a.bne(T0, ZERO, &l("closed"));
            a.syscall(sysno::YIELD);
            a.j(&l("seqwait"));
            a.label(&l("claimed"));
            slot_ptr(a, base, cfg, T4);
            write_rec(a, T3);
            // Publish: SEQ = ticket + 1.
            a.push(Instr::Addi { rd: T0, rs1: T4, imm: 1 });
            a.push(Instr::St { rs1: T5, rs2: T0, imm: 0 });
        } else {
            // Sole producer: write, then publish by bumping TAIL.
            slot_ptr(a, base, cfg, T1);
            write_rec(a, T3);
            a.push(Instr::Addi { rd: T1, rs1: T1, imm: 1 });
            a.push(Instr::St { rs1: base, rs2: T1, imm: layout::CTRL_TAIL as i32 });
        }
        a.li(A0, 0);
        a.j(&l("done"));
        a.label(&l("closed"));
        a.li(A0, ERR_FAULT);
        a.label(&l("done"));
    }

    /// Emits the producer-side flush: if the consumer armed the doorbell,
    /// clear it and futex-wake — one wake per batch. Call after every
    /// enqueue burst.
    pub fn emit_flush(a: &mut Asm, tag: &str, base: Reg) {
        check_base(base);
        let done = format!("{tag}_flush_done");
        a.push(Instr::Ld { rd: T0, rs1: base, imm: layout::CTRL_DOORBELL as i32 });
        a.beq(T0, ZERO, &done);
        a.push(Instr::St { rs1: base, rs2: ZERO, imm: layout::CTRL_DOORBELL as i32 });
        a.push(Instr::Addi { rd: A0, rs1: base, imm: layout::CTRL_DOORBELL as i32 });
        a.li(A1, 1);
        a.syscall(sysno::FUTEX_WAKE);
        a.label(&done);
    }

    /// Emits the consumer's blocking wait. Returns `a0` = 1 when a record
    /// is ready (for MPSC: *published*, not merely claimed), `a0` = 0 when
    /// the ring is closed and nothing publishable is ready — drain with
    /// [`emit_dequeue`] until it reports empty before trusting 0.
    pub fn emit_consumer_wait(a: &mut Asm, tag: &str, base: Reg, cfg: &RingCfg) {
        check_base(base);
        let l = |s: &str| format!("{tag}_cw_{s}");
        // `ready(label)` emits: branch to `label` if a record is ready.
        let ready = |a: &mut Asm, cfg: &RingCfg, target: &str| {
            a.push(Instr::Ld { rd: T1, rs1: base, imm: layout::CTRL_HEAD as i32 });
            if cfg.mpsc {
                seq_ptr(a, base, cfg, T1);
                a.push(Instr::Ld { rd: T6, rs1: T5, imm: 0 });
                a.push(Instr::Addi { rd: T2, rs1: T1, imm: 1 });
                a.beq(T6, T2, target);
            } else {
                a.push(Instr::Ld { rd: T2, rs1: base, imm: layout::CTRL_TAIL as i32 });
                a.bne(T1, T2, target);
            }
        };
        a.label(&l("loop"));
        ready(a, cfg, &l("ready"));
        a.push(Instr::Ld { rd: T0, rs1: base, imm: layout::CTRL_CLOSED as i32 });
        a.bne(T0, ZERO, &l("closed"));
        // Arm the doorbell, then re-check before sleeping (eventcount).
        a.li(T0, 1);
        a.push(Instr::St { rs1: base, rs2: T0, imm: layout::CTRL_DOORBELL as i32 });
        ready(a, cfg, &l("ready"));
        a.push(Instr::Ld { rd: T0, rs1: base, imm: layout::CTRL_CLOSED as i32 });
        a.bne(T0, ZERO, &l("closed"));
        a.push(Instr::Addi { rd: A0, rs1: base, imm: layout::CTRL_DOORBELL as i32 });
        a.li(A1, 1);
        a.syscall(sysno::FUTEX_WAIT); // EAGAIN/EINTR both mean "re-check"
        a.j(&l("loop"));
        a.label(&l("closed"));
        a.li(A0, 0);
        a.j(&l("done"));
        a.label(&l("ready"));
        a.li(A0, 1);
        a.label(&l("done"));
    }

    /// Emits an inline dequeue. `a0` = 1 with the record delivered through
    /// `read_rec` (slot pointer in `t3`), `a0` = 0 when nothing is
    /// publishable. Recycles the slot, advances HEAD and wakes parked
    /// producers under the Block policy.
    pub fn emit_dequeue(
        a: &mut Asm,
        tag: &str,
        base: Reg,
        cfg: &RingCfg,
        read_rec: &dyn Fn(&mut Asm, Reg),
    ) {
        check_base(base);
        let l = |s: &str| format!("{tag}_dq_{s}");
        stall_gate(a, &l("sg"), base, &l("go"));
        a.push(Instr::Ld { rd: T1, rs1: base, imm: layout::CTRL_HEAD as i32 });
        a.push(Instr::Ld { rd: T2, rs1: base, imm: layout::CTRL_TAIL as i32 });
        a.beq(T1, T2, &l("empty"));
        if cfg.mpsc {
            // Head record must be published, not merely claimed.
            seq_ptr(a, base, cfg, T1);
            a.push(Instr::Ld { rd: T6, rs1: T5, imm: 0 });
            a.push(Instr::Addi { rd: T2, rs1: T1, imm: 1 });
            a.bne(T6, T2, &l("empty"));
        }
        slot_ptr(a, base, cfg, T1);
        read_rec(a, T3);
        if cfg.mpsc {
            // Recycle: SEQ = head + cap frees the slot for lap N+1.
            a.li(T0, cfg.cap);
            a.push(Instr::Add { rd: T0, rs1: T1, rs2: T0 });
            a.push(Instr::St { rs1: T5, rs2: T0, imm: 0 });
        }
        a.push(Instr::Addi { rd: T1, rs1: T1, imm: 1 });
        a.push(Instr::St { rs1: base, rs2: T1, imm: layout::CTRL_HEAD as i32 });
        if cfg.policy == Backpressure::Block {
            // A slot just freed: release any parked producers.
            a.push(Instr::Ld { rd: T0, rs1: base, imm: layout::CTRL_WAITP as i32 });
            a.beq(T0, ZERO, &l("nowake"));
            a.push(Instr::St { rs1: base, rs2: ZERO, imm: layout::CTRL_WAITP as i32 });
            a.push(Instr::Addi { rd: A0, rs1: base, imm: layout::CTRL_WAITP as i32 });
            a.li(A1, 64);
            a.syscall(sysno::FUTEX_WAKE);
            a.label(&l("nowake"));
        }
        a.li(A0, 1);
        a.j(&l("done"));
        a.label(&l("empty"));
        a.li(A0, 0);
        a.label(&l("done"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cap: u64, mpsc: bool) -> RingCfg {
        RingCfg::new(cap, mpsc, Backpressure::Fail)
    }

    #[test]
    fn layout_is_aligned_and_sized() {
        assert_eq!(layout::slots_off(8) % 64, 0);
        assert_eq!(layout::slots_off(64), (layout::CTRL_SEQ + 64 * 8 + 63) & !63);
        assert!(layout::ring_bytes(64) <= 4096, "a 64-deep ring fits one page");
        assert_eq!(layout::REC_BYTES, 1 << layout::REC_SHIFT);
    }

    #[test]
    fn spsc_roundtrip() {
        let r = Ring::new(cfg(8, false));
        let mut m = FlatRing::new(8);
        r.init(&mut m, 0);
        for i in 0..100u64 {
            r.try_enqueue(&mut m, &[i, i * 3, 7, 9]).unwrap();
            let rec = r.try_dequeue(&mut m).unwrap();
            assert_eq!(rec, [i, i * 3, 7, 9]);
        }
        assert_eq!(r.occupancy(&m), 0);
        assert!(r.try_dequeue(&mut m).is_none());
    }

    #[test]
    fn full_and_empty_disambiguated() {
        let r = Ring::new(cfg(4, false));
        let mut m = FlatRing::new(4);
        r.init(&mut m, 0);
        for i in 0..4 {
            r.try_enqueue(&mut m, &[i, 0, 0, 0]).unwrap();
        }
        assert_eq!(r.try_enqueue(&mut m, &[9, 0, 0, 0]), Err(EnqErr::Full));
        assert_eq!(r.occupancy(&m), 4);
        for i in 0..4 {
            assert_eq!(r.try_dequeue(&mut m).unwrap()[0], i);
        }
        assert!(r.try_dequeue(&mut m).is_none());
    }

    #[test]
    fn cursors_wrap_mod_2_64() {
        let r = Ring::new(cfg(8, true));
        let mut m = FlatRing::new(8);
        let init = u64::MAX - 3; // wraps after four records
        r.init(&mut m, init);
        for i in 0..16u64 {
            r.try_enqueue(&mut m, &[i, 0, 0, 0]).unwrap();
            assert_eq!(r.try_dequeue(&mut m).unwrap()[0], i);
        }
        assert!(r.head(&m) < init, "head wrapped past zero");
        assert_eq!(r.occupancy(&m), 0);
    }

    #[test]
    fn closed_ring_fails_producers_but_drains() {
        let r = Ring::new(cfg(4, false));
        let mut m = FlatRing::new(4);
        r.init(&mut m, 0);
        r.try_enqueue(&mut m, &[1, 2, 3, 4]).unwrap();
        r.close(&mut m);
        r.close(&mut m); // idempotent
        assert_eq!(r.try_enqueue(&mut m, &[5, 0, 0, 0]), Err(EnqErr::Closed));
        assert_eq!(r.try_dequeue(&mut m).unwrap(), [1, 2, 3, 4]);
        assert!(r.try_dequeue(&mut m).is_none());
    }

    #[test]
    fn mpsc_split_steps_serialize_overclaim() {
        let r = Ring::new(cfg(2, true));
        let mut m = FlatRing::new(2);
        r.init(&mut m, 0);
        // Both producers pre-check an empty ring, then both claim.
        r.step_precheck(&m).unwrap();
        r.step_precheck(&m).unwrap();
        let t0 = r.step_claim(&mut m);
        let t1 = r.step_claim(&mut m);
        let t2 = r.step_claim(&mut m); // a third claim overclaims a full ring
        assert_eq!((t0, t1, t2), (0, 1, 2));
        assert!(r.step_seq_ready(&m, t0));
        assert!(r.step_seq_ready(&m, t1));
        assert!(!r.step_seq_ready(&m, t2), "slot 0 not recycled yet");
        // Publish out of order: the consumer must still drain in cursor
        // order, waiting for ticket 0.
        r.step_publish(&mut m, t1, &[11, 0, 0, 0]);
        assert!(r.try_dequeue(&mut m).is_none(), "head unpublished gates the ring");
        r.step_publish(&mut m, t0, &[10, 0, 0, 0]);
        assert_eq!(r.try_dequeue(&mut m).unwrap()[0], 10);
        // Slot 0 recycled: ticket 2 may proceed now.
        assert!(r.step_seq_ready(&m, t2));
        r.step_publish(&mut m, t2, &[12, 0, 0, 0]);
        assert_eq!(r.try_dequeue(&mut m).unwrap()[0], 11);
        assert_eq!(r.try_dequeue(&mut m).unwrap()[0], 12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_cap_rejected() {
        RingCfg::new(12, false, Backpressure::Block);
    }
}
