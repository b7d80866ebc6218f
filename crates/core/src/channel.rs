//! Asynchronous channels: capability-protected call rings minted
//! through the same grant machinery that gates proxy entry points.
//!
//! A channel is a pair of [`aring`] rings living in a dedicated CODOMs
//! domain owned by the *consumer* process:
//!
//! * the **request ring** (callers → consumer; SPSC or MPSC), and
//! * the **reply ring** (consumer → callers; SPSC — the consumer thread is
//!   its sole producer).
//!
//! Minting walks the Table 2 operations end to end — `dom_create`,
//! `dom_mmap`, `dom_copy(Write)`, handle passing, `grant_create` — so a
//! producer's ring stores are authorized by exactly the CODOMs APL checks
//! that authorize its proxy calls: no grant, no access, and revoking the
//! grant cuts the channel off.
//!
//! Records are raw `[u64; 4]` words: guest producers and consumers use the
//! [`aring::emit`] emitters, and nothing encodes or validates in between.
//!
//! Teardown: [`System::kill_process`] poisons every channel the dead
//! process touches *before* its pages are unmapped — CLOSED is raised,
//! doorbell and WAITP sleepers are woken host-side, and pending enqueues
//! fail with `DIPC_ERR_FAULT` instead of leaking ring slots.

use aring::{layout, GuestRing, Ring, RingCfg};
use simkernel::Pid;
use simmem::{PageFlags, PageTableId};

use crate::api::{DipcError, Handle, HandlePerm};
use crate::system::System;

/// One ring endpoint of a minted channel (addresses are global-VAS, so
/// producer and consumer guests see the same base).
#[derive(Clone, Copy, Debug)]
pub struct RingRef {
    /// Ring base virtual address.
    pub base: u64,
    /// Geometry and backpressure policy.
    pub cfg: RingCfg,
}

impl RingRef {
    /// The protocol driver for this ring.
    pub fn ring(&self) -> Ring {
        Ring::new(self.cfg)
    }
}

/// A channel endpoint pair. Requests flow caller → consumer through
/// [`Channel::req`]; replies flow back through [`Channel::resp`].
pub struct Channel {
    /// Registry index inside [`System`].
    pub id: usize,
    /// Channel name (traces and errors).
    pub name: String,
    /// Caller → consumer request ring.
    pub req: RingRef,
    /// Consumer → caller reply ring (SPSC).
    pub resp: RingRef,
}

/// Registry record for a minted channel.
#[derive(Clone, Debug)]
pub struct ChanRec {
    /// Channel name.
    pub name: String,
    /// Request-ring base address.
    pub req_base: u64,
    /// Reply-ring base address.
    pub resp_base: u64,
    /// Request-ring configuration.
    pub req_cfg: RingCfg,
    /// Reply-ring configuration.
    pub resp_cfg: RingCfg,
    /// Page table the rings are mapped under (the global table).
    pub pt: PageTableId,
    /// Consumer process (owns the ring domain).
    pub consumer: Pid,
    /// Producer processes.
    pub producers: Vec<Pid>,
    /// Owner handle to the ring domain.
    pub dom: Handle,
    /// Set once an endpoint process died and the rings were poisoned.
    pub closed: bool,
}

impl System {
    /// Mints a channel: allocates both rings in a fresh CODOMs domain
    /// owned by `consumer`, initializes them, and grants Write access to
    /// the consumer's and every producer's default domain — the same
    /// `dom_copy` → `pass_handle` → `grant_create` walk that authorizes
    /// proxy entry points. All endpoint processes must be dIPC-enabled
    /// (the rings live in the global VAS).
    pub fn channel_create(
        &mut self,
        name: &str,
        consumer: Pid,
        producers: &[Pid],
        req_cfg: RingCfg,
        resp_cfg: RingCfg,
    ) -> Result<Channel, DipcError> {
        assert!(!resp_cfg.mpsc, "the reply ring has a single producer (the consumer thread)");
        for pid in producers.iter().chain([&consumer]) {
            if !self.k.procs.get(pid).map(|p| p.dipc_enabled).unwrap_or(false) {
                return Err(DipcError::NotDipc);
            }
        }
        let dom = self.dom_create(consumer);
        let req_base =
            self.dom_mmap(consumer, dom, layout::ring_bytes(req_cfg.cap), PageFlags::RW)?;
        let resp_base =
            self.dom_mmap(consumer, dom, layout::ring_bytes(resp_cfg.cap), PageFlags::RW)?;
        let pt = self.k.procs[&consumer].pt;
        Ring::new(req_cfg).init(&mut GuestRing { mem: &mut self.k.mem, pt, base: req_base }, 0);
        Ring::new(resp_cfg).init(&mut GuestRing { mem: &mut self.k.mem, pt, base: resp_base }, 0);
        // Consumer's own APL grant (ownership alone confers no access).
        let cdef = self.dom_default(consumer);
        let ccopy = self.dom_copy(consumer, dom, HandlePerm::Write)?;
        self.grant_create(consumer, cdef, ccopy)?;
        // Each producer receives a Write-downgraded handle over the
        // fd-passing path and grants itself access from its own default
        // domain.
        for &pid in producers {
            let copy = self.dom_copy(consumer, dom, HandlePerm::Write)?;
            let theirs = self.pass_handle(consumer, pid, copy)?;
            let pdef = self.dom_default(pid);
            self.grant_create(pid, pdef, theirs)?;
        }
        let id = self.channels.len();
        self.channels.push(ChanRec {
            name: name.to_string(),
            req_base,
            resp_base,
            req_cfg,
            resp_cfg,
            pt,
            consumer,
            producers: producers.to_vec(),
            dom,
            closed: false,
        });
        Ok(Channel {
            id,
            name: name.to_string(),
            req: RingRef { base: req_base, cfg: req_cfg },
            resp: RingRef { base: resp_base, cfg: resp_cfg },
        })
    }

    /// The channel registry (read-only view for harnesses and tests).
    pub fn channel_recs(&self) -> &[ChanRec] {
        &self.channels
    }

    /// Memory view rooted at channel `id`'s request ring.
    pub fn channel_mem(&mut self, id: usize) -> GuestRing<'_> {
        let rec = &self.channels[id];
        let (pt, base) = (rec.pt, rec.req_base);
        GuestRing { mem: &mut self.k.mem, pt, base }
    }

    /// Poisons and closes channel `id`: CLOSED is raised on both rings and
    /// every futex sleeper (doorbell, WAITP) is woken so it observes the
    /// poison. Idempotent. Used by process teardown and available to
    /// harnesses for orderly shutdown.
    pub fn channel_close(&mut self, id: usize) {
        if self.channels[id].closed {
            return;
        }
        self.channels[id].closed = true;
        let rec = self.channels[id].clone();
        // Only poison what is still mapped: on consumer death the rings
        // are torn down with the corpse right after this runs.
        for (base, cfg) in [(rec.req_base, rec.req_cfg), (rec.resp_base, rec.resp_cfg)] {
            if self.k.mem.table(rec.pt).lookup(base).is_none() {
                continue;
            }
            Ring::new(cfg).close(&mut GuestRing { mem: &mut self.k.mem, pt: rec.pt, base });
            self.k.host_futex_wake_at(rec.pt, base + layout::CTRL_DOORBELL, usize::MAX, 0);
            self.k.host_futex_wake_at(rec.pt, base + layout::CTRL_WAITP, usize::MAX, 0);
        }
    }

    /// Closes every channel `pid` participates in. Runs inside
    /// [`System::kill_process`] *before* the corpse is unmapped, so the
    /// poison stores and futex wakes still reach the shared pages —
    /// pending async enqueues then fail with `DIPC_ERR_FAULT` instead of
    /// leaking ring slots.
    pub(crate) fn reap_channels(&mut self, pid: Pid) {
        for id in 0..self.channels.len() {
            let rec = &self.channels[id];
            if !rec.closed && (rec.consumer == pid || rec.producers.contains(&pid)) {
                self.channel_close(id);
            }
        }
    }
}
