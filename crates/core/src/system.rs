//! The dIPC OS extension: Table 2 operations, proxy management, the
//! track-resolve cold path, and KCS fault unwinding.
//!
//! [`System`] wraps a [`simkernel::Kernel`] the way the paper's 9 K-line
//! patch wraps Linux 3.9: the base kernel forwards unknown syscalls and
//! unhandled user faults here.
//!
//! # The caller-side error contract (§5.2.1)
//!
//! A dIPC call site must treat `a0` as fallible. After `jal` into a proxy,
//! exactly one of three things reaches the caller:
//!
//! 1. **The callee's return value** — the call ran to completion.
//! 2. **[`DIPC_ERR_FAULT`]** (`-ECANCELED`) — the call was *unwound*: the
//!    callee faulted (protection violation, revoked capability, unmapped
//!    page), the callee process died mid-call, or the kernel's cold-path
//!    resolve failed (callee dead, or a transiently injected resolve
//!    error). The caller's registers, stack and domain are exactly as the
//!    proxy's return path leaves them on a successful call; only `a0`
//!    differs. The error is *not* sticky: retrying is always safe, and a
//!    retry against a transient failure may succeed.
//! 3. **[`DIPC_ERR_TIMEDOUT`]** (`-ETIMEDOUT`) — the host split the thread
//!    off a stuck callee (§5.4).
//!
//! A caller that faults with *no* live KCS entry to unwind to (a crash
//! outside any dIPC call, or every caller on the stack already dead) is
//! killed conventionally — the error values are only ever delivered to a
//! *live* caller frame. Dead callees are reclaimed eagerly by
//! [`System::kill_process`]: their pages are unmapped (so stale warm paths
//! fault and unwind instead of executing dead code), their tracking
//! contexts are dropped, and their VAS blocks are released.

use std::collections::{HashMap, HashSet};

use cdvm::asm::Program;
use cdvm::isa::reg;
use simkernel::accounting::TimeCat;
use simkernel::percpu::{self, kcs, track};
use simkernel::{KObject, KStep, Kernel, KernelConfig, Pid, ThreadState, Tid};
use simmem::{DomainTag, Memory, PageFlags, PAGE_SIZE};

use crate::api::{
    DipcError, DomRec, EntryDesc, EntryRec, GrantRec, Handle, HandlePerm, IsoProps, Signature,
};
use crate::proxy::{self, ProxySpec, TemplateKey};

/// The `KObject::Opaque` class used for dIPC handles in fd tables.
pub const DIPC_CLASS: u32 = 0xD1;

/// Error value delivered in `a0` when a cross-process call is unwound after
/// a fault ("flags an error to it (similar to setting an errno value)",
/// §5.2.1). Two's complement of 125 (ECANCELED).
pub const DIPC_ERR_FAULT: u64 = (-125i64) as u64;

/// Error value delivered in `a0` when a cross-process call is split off
/// after a time-out (§5.4). Two's complement of 110 (ETIMEDOUT).
pub const DIPC_ERR_TIMEDOUT: u64 = (-110i64) as u64;

/// dIPC syscall numbers (≥ [`simkernel::syscall::nr::EXTERNAL_BASE`]).
pub mod dsys {
    /// track_resolve(callee_pid, callee_tag) — proxy cold path (§6.1.2).
    pub const TRACK_RESOLVE: u64 = 100;
    /// dom_default() → handle fd.
    pub const DOM_DEFAULT: u64 = 101;
    /// dom_create() → handle fd.
    pub const DOM_CREATE: u64 = 102;
    /// dom_copy(fd, perm) → handle fd.
    pub const DOM_COPY: u64 = 103;
    /// dom_mmap(fd, size) → addr.
    pub const DOM_MMAP: u64 = 104;
    /// grant_create(src_fd, dst_fd) → grant fd.
    pub const GRANT_CREATE: u64 = 105;
    /// grant_revoke(grant_fd).
    pub const GRANT_REVOKE: u64 = 106;
    /// entry_register(dom_fd, count, descs_ptr) → entry fd.
    pub const ENTRY_REGISTER: u64 = 107;
    /// entry_request(entry_fd, count, descs_ptr) → dom fd; proxy addresses
    /// are written back into the descriptors.
    pub const ENTRY_REQUEST: u64 = 108;
    /// dom_remap(dst_fd, src_fd, addr, size).
    pub const DOM_REMAP: u64 = 109;
    /// plugin_deny(plugin_pid, denied_nr) — a syscall filter-proxy's
    /// verdict on a disallowed request: kill-and-reclaim the plugin. Only
    /// the registered filter process may issue it.
    pub const PLUGIN_DENY: u64 = 110;
}

/// In-memory entry descriptor for the VM-level `entry_register` /
/// `entry_request` syscalls: `[address][signature.pack()][policy][out]`.
pub const DESC_BYTES: u64 = 32;

/// Pages per lazily-allocated per-(thread, target-domain) stack.
const TRACK_STACK_PAGES: u64 = 16;

/// Cold-path cost (cycles): the upcall + syscall of §6.1.2.
const TRACK_RESOLVE_COST: u64 = 4000;

struct ProxyRec {
    dom: DomainTag,
    ret_addr: u64,
    /// The callee's domain (for teardown bookkeeping).
    callee_dom: DomainTag,
    /// Stack confidentiality active (required for §5.4 thread splitting:
    /// "will only work if the timed-out caller uses a stack separate from
    /// the callee's").
    stack_conf: bool,
}

struct TrackCtx {
    tls: u64,
    stack_top: u64,
    dcs: u64,
    tidp: u64,
}

/// Observation from [`System::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SysStep {
    /// Progressed.
    Progress,
    /// No live threads.
    Finished,
    /// Nothing can run.
    Deadlock,
    /// Never produced: the kernel has no embedder events. Kept only
    /// because `benchmark/` matches on it; delete together with that arm
    /// in a `benchmark` PR.
    External {
        /// Event class.
        class: u32,
        /// Payload.
        data: [u64; 2],
        /// Fire time (cycles).
        time: u64,
    },
}

/// The dIPC system: kernel + dIPC object tables.
pub struct System {
    /// The underlying kernel (public: harnesses drive processes, memory and
    /// scheduling through it).
    pub k: Kernel,
    next_handle: u64,
    next_proxy: u64,
    doms: HashMap<u64, DomRec>,
    grants: HashMap<u64, GrantRec>,
    entries: HashMap<u64, EntryRec>,
    proxies: HashMap<u64, ProxyRec>,
    templates: HashMap<TemplateKey, Program>,
    track: HashMap<(u64, u32), TrackCtx>,
    tidp_next: HashMap<u64, u64>,
    /// Count of faults recovered by KCS unwinding (observability).
    pub unwinds: u64,
    /// Count of track-resolve cold paths taken.
    pub cold_resolves: u64,
    /// Address of the lazily-created thread-exit gadget (split callees halt
    /// through it when they return into a split proxy, §5.4).
    exit_gadget: Option<u64>,
    /// Count of §5.4 time-out splits performed.
    pub splits: u64,
    /// Processes whose resources have already been reclaimed by
    /// [`System::kill_process`] — the idempotency guard that makes a second
    /// kill (e.g. a chaos trigger racing a natural exit while a peer's
    /// proxy call is in flight on another CPU) a no-op instead of a
    /// double unmap / double unwind.
    reaped: HashSet<u64>,
    /// Outstanding injected page-permission flips: `(va, original flags,
    /// heal time)`. Healed by [`System::step`]'s chaos tick.
    flips: Vec<(u64, PageFlags, u64)>,
    /// Minted async channels (see `crate::channel`).
    pub(crate) channels: Vec<crate::channel::ChanRec>,
    /// Outstanding injected ring stalls: `(channel id, heal time)`.
    pub(crate) stalls: Vec<(usize, u64)>,
    /// Sandboxed plugin registry: pid → violation count. Membership makes
    /// every ambient syscall, dIPC management request, and user fault of
    /// that process a kill-and-reclaim violation (untrusted plugin
    /// domains; see [`System::sandbox_process`]).
    plugins: HashMap<u64, u64>,
    /// The registered syscall filter-proxy process (sole issuer of
    /// [`dsys::PLUGIN_DENY`]).
    filter_pid: Option<u64>,
}

impl System {
    /// Boots a dIPC-enabled kernel.
    pub fn new(cfg: KernelConfig) -> System {
        System {
            k: Kernel::new(cfg),
            next_handle: 1,
            next_proxy: 1,
            doms: HashMap::new(),
            grants: HashMap::new(),
            entries: HashMap::new(),
            proxies: HashMap::new(),
            templates: HashMap::new(),
            track: HashMap::new(),
            tidp_next: HashMap::new(),
            unwinds: 0,
            cold_resolves: 0,
            exit_gadget: None,
            splits: 0,
            reaped: HashSet::new(),
            flips: Vec::new(),
            channels: Vec::new(),
            stalls: Vec::new(),
            plugins: HashMap::new(),
            filter_pid: None,
        }
    }

    /// Marks `pid` as a sandboxed, untrusted plugin: its ambient kernel
    /// syscalls are restricted to `kernel_mask` (0 = none — everything
    /// must flow through the filter proxy), and any violation — a denied
    /// direct syscall, a dIPC management request, or a protection fault —
    /// kills and reclaims it while unwinding visiting callers with
    /// [`DIPC_ERR_FAULT`].
    pub fn sandbox_process(&mut self, pid: Pid, kernel_mask: u64) {
        self.k.restrict_syscalls(pid, kernel_mask);
        self.plugins.entry(pid.0).or_insert(0);
    }

    /// Registers `pid` as the syscall filter-proxy process: the only
    /// process whose [`dsys::PLUGIN_DENY`] verdicts are honoured.
    pub fn register_filter(&mut self, pid: Pid) {
        self.filter_pid = Some(pid.0);
    }

    /// Violations recorded against a sandboxed plugin.
    pub fn plugin_violations(&self, pid: Pid) -> u64 {
        self.plugins.get(&pid.0).copied().unwrap_or(0)
    }

    /// Records a sandbox violation against `victim` and enforces the
    /// kill-and-reclaim contract. Idempotent on the reclaim side: a
    /// second violation against an already-reaped plugin (e.g. a call
    /// that faulted into the dead image) only unwinds the trapped thread.
    fn plugin_violation(&mut self, cpu: usize, tid: Tid, victim: Pid) -> u64 {
        *self.plugins.entry(victim.0).or_insert(0) += 1;
        if self.reaped.contains(&victim.0) {
            if !self.unwind_running(cpu) {
                if let Some(home) = self.k.threads.get(&tid).map(|t| t.home) {
                    self.kill_process(home);
                }
            }
        } else {
            // The kill's visitor rescue unwinds any thread currently
            // executing in the victim (including the one that trapped
            // here) back to its nearest live caller.
            self.kill_process(victim);
        }
        DIPC_ERR_FAULT
    }

    fn fresh_handle(&mut self) -> Handle {
        let h = Handle(self.next_handle);
        self.next_handle += 1;
        h
    }

    // ------------------------------------------------------------------
    // Table 2 operations (host-level API; the VM-level syscalls below
    // delegate here).
    // ------------------------------------------------------------------

    /// `dom_default() → domd`: owner handle to the process's default domain.
    pub fn dom_default(&mut self, pid: Pid) -> Handle {
        let tag = self.k.procs[&pid].default_domain;
        let h = self.fresh_handle();
        self.doms.insert(h.0, DomRec { tag, perm: HandlePerm::Owner, owner_pid: pid.0 });
        h
    }

    /// `dom_create() → domd`: owner handle to a new, fully isolated domain
    /// (P1: "new domains are not added to any CODOMs APL").
    pub fn dom_create(&mut self, pid: Pid) -> Handle {
        let tag = self.k.domains.create();
        let h = self.fresh_handle();
        self.doms.insert(h.0, DomRec { tag, perm: HandlePerm::Owner, owner_pid: pid.0 });
        h
    }

    /// `dom_copy(domsrc, permp) → domdst` iff `permp ≤ domsrc.perm`
    /// (permission downgrade before passing a handle on).
    pub fn dom_copy(
        &mut self,
        pid: Pid,
        src: Handle,
        perm: HandlePerm,
    ) -> Result<Handle, DipcError> {
        let rec = *self.dom_rec(pid, src)?;
        if perm > rec.perm {
            return Err(DipcError::Perm);
        }
        let h = self.fresh_handle();
        self.doms.insert(h.0, DomRec { tag: rec.tag, perm, owner_pid: pid.0 });
        Ok(h)
    }

    /// `dom_mmap(domd, size)`: allocate memory tagged with the handle's
    /// domain (owner only).
    pub fn dom_mmap(
        &mut self,
        pid: Pid,
        dom: Handle,
        size: u64,
        flags: PageFlags,
    ) -> Result<u64, DipcError> {
        let rec = *self.dom_rec(pid, dom)?;
        if rec.perm < HandlePerm::Owner {
            return Err(DipcError::Perm);
        }
        Ok(self.k.alloc_mem_tagged(pid, size, flags, rec.tag))
    }

    /// `dom_remap(domdst, domsrc, addr, size)`: re-tag pages from src to dst
    /// (both owner).
    pub fn dom_remap(
        &mut self,
        pid: Pid,
        dst: Handle,
        src: Handle,
        addr: u64,
        size: u64,
    ) -> Result<(), DipcError> {
        let d = *self.dom_rec(pid, dst)?;
        let s = *self.dom_rec(pid, src)?;
        if d.perm < HandlePerm::Owner || s.perm < HandlePerm::Owner {
            return Err(DipcError::Perm);
        }
        let pt = self.k.procs[&pid].pt;
        let pages = size.div_ceil(PAGE_SIZE);
        // Verify all pages belong to src first (all-or-nothing).
        for i in 0..pages {
            match self.k.mem.table(pt).lookup(addr + i * PAGE_SIZE) {
                Some(pte) if pte.tag == s.tag => {}
                _ => return Err(DipcError::BadEntryAddress),
            }
        }
        for i in 0..pages {
            self.k.mem.table_mut(pt).set_tag(addr + i * PAGE_SIZE, d.tag);
        }
        Ok(())
    }

    /// `grant_create(domsrc, domdst) → grantg`: add `domdst.perm` toward
    /// `domdst.tag` to `domsrc.tag`'s APL (src must be owner).
    pub fn grant_create(
        &mut self,
        pid: Pid,
        src: Handle,
        dst: Handle,
    ) -> Result<Handle, DipcError> {
        let s = *self.dom_rec(pid, src)?;
        let d = *self.dom_rec(pid, dst)?;
        if s.perm < HandlePerm::Owner {
            return Err(DipcError::Perm);
        }
        let perm = d.perm.to_apl();
        if !self.k.domains.set_grant(s.tag, d.tag, perm) {
            return Err(DipcError::BadHandle);
        }
        self.sync_apl_caches(s.tag);
        let h = self.fresh_handle();
        self.grants.insert(h.0, GrantRec { src: s.tag, dst: d.tag, owner_pid: pid.0 });
        Ok(h)
    }

    /// `grant_revoke(grantg)`: set the grant's permission to nil.
    pub fn grant_revoke(&mut self, pid: Pid, grant: Handle) -> Result<(), DipcError> {
        let g = match self.grants.get(&grant.0) {
            Some(g) if g.owner_pid == pid.0 => *g,
            _ => return Err(DipcError::BadHandle),
        };
        self.k.domains.set_grant(g.src, g.dst, codoms::Perm::Nil);
        self.sync_apl_caches(g.src);
        self.grants.remove(&grant.0);
        Ok(())
    }

    /// `entry_register(domd, entries) → entrye` (owner only; all entry
    /// addresses must point into the domain).
    pub fn entry_register(
        &mut self,
        pid: Pid,
        dom: Handle,
        entries: Vec<EntryDesc>,
    ) -> Result<Handle, DipcError> {
        let rec = *self.dom_rec(pid, dom)?;
        if rec.perm < HandlePerm::Owner {
            return Err(DipcError::Perm);
        }
        let pt = self.k.procs[&pid].pt;
        for e in &entries {
            match self.k.mem.table(pt).lookup(e.address) {
                Some(pte) if pte.tag == rec.tag => {}
                _ => return Err(DipcError::BadEntryAddress),
            }
        }
        let h = self.fresh_handle();
        self.entries.insert(h.0, EntryRec { dom: rec.tag, pid: pid.0, entries });
        Ok(h)
    }

    /// `entry_request(entrye, entries) → domp`: create the trusted proxies.
    ///
    /// Checks P4 (signatures must match), merges policies (confidentiality
    /// union; integrity caller-side), generates one proxy per entry into a
    /// fresh proxy domain with the privileged-capability bit, and returns a
    /// Call-permission handle to that domain plus the proxy entry addresses.
    pub fn entry_request(
        &mut self,
        caller_pid: Pid,
        entry: Handle,
        requests: Vec<EntryDesc>,
    ) -> Result<(Handle, Vec<u64>), DipcError> {
        let rec = match self.entries.get(&entry.0) {
            Some(r) => r.clone(),
            None => return Err(DipcError::BadHandle),
        };
        if requests.len() != rec.entries.len() {
            return Err(DipcError::Signature);
        }
        for (req, reg) in requests.iter().zip(rec.entries.iter()) {
            if req.signature != reg.signature {
                return Err(DipcError::Signature);
            }
        }
        let callee_pid = Pid(rec.pid);
        let cross = caller_pid != callee_pid;
        if !self.k.procs[&caller_pid].dipc_enabled || !self.k.procs[&callee_pid].dipc_enabled {
            return Err(DipcError::NotDipc);
        }

        // The proxy domain and its APL (access to both sides + the
        // kernel-shared domain for the per-CPU area / KCS).
        let p = self.k.domains.create();
        let caller_dom = self.k.procs[&caller_pid].default_domain;
        let kshared = self.k.kshared_dom;
        self.k.domains.set_grant(p, caller_dom, codoms::Perm::Read);
        self.k.domains.set_grant(p, rec.dom, codoms::Perm::Write);
        self.k.domains.set_grant(p, kshared, codoms::Perm::Write);

        // Generate each proxy.
        let mut offsets = Vec::new();
        let mut total = 0u64;
        let mut specs = Vec::new();
        for (req, reg) in requests.iter().zip(rec.entries.iter()) {
            // Policy merge (§5.2.3): confidentiality when any side requests
            // it; integrity when the caller requests it. The proxy
            // implements the proxy-side subset, plus register-scrubbing of
            // its own scratch under register confidentiality.
            let conf_union = IsoProps(
                (req.policy.0 | reg.policy.0)
                    & (IsoProps::STACK_CONF.0 | IsoProps::DCS_CONF.0 | IsoProps::REG_CONF.0),
            );
            let caller_integrity = IsoProps(req.policy.0 & IsoProps::DCS_INTEGRITY.0);
            let proxy_props = conf_union | caller_integrity;
            let key = TemplateKey { sig: reg.signature, props: proxy_props, cross_process: cross };
            let template =
                self.templates.entry(key).or_insert_with(|| proxy::build_template(&key)).clone();
            let proxy_id = self.next_proxy;
            self.next_proxy += 1;
            let spec = ProxySpec {
                proxy_id,
                key,
                callee_pid: callee_pid.0,
                callee_tag: rec.dom.raw(),
                target: reg.address,
            };
            offsets.push(total);
            total += (template.bytes.len() as u64).div_ceil(64) * 64;
            specs.push((spec, template));
        }

        // Place the proxy code: fresh kernel-shared-style pages, re-tagged
        // to the proxy domain, executable + privileged-capability.
        let base = self.k.kshared_alloc(total.div_ceil(PAGE_SIZE).max(1), PageFlags::RW);
        let mut addrs = Vec::new();
        for ((spec, template), off) in specs.iter().zip(offsets.iter()) {
            let at = base + off;
            let (bytes, ret_off) = proxy::instantiate(template, spec, at);
            if simtrace::enabled() {
                // Tell the tracer where this proxy's entry code and return
                // block live, so CPU-side domain crossings fold into
                // proxy-call spans.
                let padded = (bytes.len() as u64).div_ceil(64) * 64;
                simtrace::register_proxy(
                    format!("p{}->pid{}", spec.proxy_id, spec.callee_pid),
                    (at, at + ret_off),
                    (at + ret_off, at + padded),
                );
            }
            self.k.mem.kwrite(Memory::GLOBAL_PT, at, &bytes).expect("proxy pages mapped");
            self.proxies.insert(
                spec.proxy_id,
                ProxyRec {
                    dom: p,
                    ret_addr: at + ret_off,
                    callee_dom: rec.dom,
                    stack_conf: spec.key.props.contains(IsoProps::STACK_CONF),
                },
            );
            addrs.push(at);
        }
        for i in 0..total.div_ceil(PAGE_SIZE).max(1) {
            let page = base + i * PAGE_SIZE;
            self.k
                .mem
                .table_mut(Memory::GLOBAL_PT)
                .protect(page, PageFlags::RX | PageFlags::PRIV_CAP);
            self.k.mem.table_mut(Memory::GLOBAL_PT).set_tag(page, p);
        }

        let h = self.fresh_handle();
        self.doms.insert(h.0, DomRec { tag: p, perm: HandlePerm::Call, owner_pid: caller_pid.0 });
        Ok((h, addrs))
    }

    /// `dom_destroy(domd)`: tears down a domain (owner only) — R2's
    /// "dynamically created and destroyed". Every APL grant toward the
    /// domain is scrubbed (including hardware APL-cache copies), its pages
    /// are unmapped, and any proxies *targeting* it are invalidated by
    /// revoking callers' Call grants toward the proxy domains (subsequent
    /// calls fault at the call gate and unwind, instead of running into a
    /// dead callee).
    pub fn dom_destroy(&mut self, pid: Pid, dom: Handle) -> Result<(), DipcError> {
        let rec = *self.dom_rec(pid, dom)?;
        if rec.perm < HandlePerm::Owner {
            return Err(DipcError::Perm);
        }
        let tag = rec.tag;
        // Invalidate proxies whose callee domain is the one being torn
        // down: drop every grant toward their proxy domains.
        let proxy_doms: Vec<DomainTag> =
            self.proxies.values().filter(|p| p.callee_dom == tag).map(|p| p.dom).collect();
        for pdom in proxy_doms {
            // Remove every APL grant toward the proxy domain.
            let granters: Vec<DomainTag> =
                self.grants.values().filter(|g| g.dst == pdom).map(|g| g.src).collect();
            for src in granters {
                self.k.domains.set_grant(src, pdom, codoms::Perm::Nil);
                self.sync_apl_caches(src);
            }
            self.k.domains.destroy(pdom);
            for slot in &mut self.k.cpus {
                slot.cpu.apl_cache.invalidate(pdom);
            }
        }
        self.proxies.retain(|_, p| p.callee_dom != tag);
        // Drop entry handles rooted in this domain.
        self.entries.retain(|_, e| e.dom != tag);
        // Unmap the domain's pages and destroy the tag (which scrubs every
        // APL pointing at it).
        let pt = self.k.procs[&pid].pt;
        let pages: Vec<u64> = self
            .k
            .mem
            .table(pt)
            .iter()
            .filter(|(_, pte)| pte.tag == tag)
            .map(|(vpn, _)| vpn * PAGE_SIZE)
            .collect();
        for page in pages {
            self.k.mem.unmap(pt, page, 1);
        }
        self.k.domains.destroy(tag);
        for slot in &mut self.k.cpus {
            slot.cpu.apl_cache.invalidate(tag);
        }
        // Invalidate handles referring to the tag.
        self.doms.retain(|_, d| d.tag != tag);
        self.grants.retain(|_, g| g.src != tag && g.dst != tag);
        Ok(())
    }

    /// Models passing a handle to another process over a socket (the fd-
    /// passing path of §5.2.2). Returns the receiving process's handle.
    pub fn pass_handle(&mut self, from: Pid, to: Pid, h: Handle) -> Result<Handle, DipcError> {
        if let Some(rec) = self.doms.get(&h.0).copied() {
            if rec.owner_pid != from.0 {
                return Err(DipcError::BadHandle);
            }
            let nh = self.fresh_handle();
            self.doms.insert(nh.0, DomRec { owner_pid: to.0, ..rec });
            return Ok(nh);
        }
        if let Some(rec) = self.entries.get(&h.0).cloned() {
            let nh = self.fresh_handle();
            self.entries.insert(nh.0, rec);
            return Ok(nh);
        }
        Err(DipcError::BadHandle)
    }

    /// The CODOMs tag behind a domain handle (harness convenience).
    pub fn dom_tag(&self, h: Handle) -> Option<DomainTag> {
        self.doms.get(&h.0).map(|r| r.tag)
    }

    fn dom_rec(&self, pid: Pid, h: Handle) -> Result<&DomRec, DipcError> {
        match self.doms.get(&h.0) {
            Some(r) if r.owner_pid == pid.0 => Ok(r),
            Some(_) => Err(DipcError::BadHandle),
            None => Err(DipcError::BadHandle),
        }
    }

    /// Pushes an APL change to every CPU's (hardware) APL cache.
    fn sync_apl_caches(&mut self, tag: DomainTag) {
        let apl = match self.k.domains.apl(tag) {
            Some(a) => a.clone(),
            None => return,
        };
        for slot in &mut self.k.cpus {
            slot.cpu.apl_cache.update(tag, apl.clone());
        }
    }

    // ------------------------------------------------------------------
    // Track-resolve (the proxy cold path, §6.1.2).
    // ------------------------------------------------------------------

    fn track_resolve(&mut self, cpu: usize, callee_pid: u64, callee_tag: u32) -> u64 {
        self.cold_resolves += 1;
        if simtrace::enabled() {
            simtrace::counter("cold_resolves", 1);
            simtrace::instant(
                simtrace::Track::Cpu(cpu),
                self.k.cpus[cpu].cpu.cycles,
                format!("track_resolve pid{callee_pid}"),
                "proxy",
            );
        }
        self.k.charge(cpu, TimeCat::Kernel, TRACK_RESOLVE_COST);
        let Some(tid) = self.k.cpus[cpu].current else { return u64::MAX };
        let pid = Pid(callee_pid);
        // A reclaimed callee must not resolve: otherwise a peer with a cold
        // tracking slot would lazily allocate context in the corpse and
        // call into freed code. The caller of this syscall unwinds. A
        // process that merely *halted* (all threads exited cleanly) still
        // resolves — its memory and entry points are intact, like a shared
        // library whose main thread returned.
        if self.reaped.contains(&pid.0) || !self.k.procs.contains_key(&pid) {
            return u64::MAX;
        }
        let tag = DomainTag(callee_tag);

        // Lazily allocate this thread's context in the target domain: TLS
        // block, stack, DCS.
        let key = (tid.0, callee_tag);
        if !self.track.contains_key(&key) {
            let tls = self.k.alloc_mem_tagged(pid, PAGE_SIZE, PageFlags::RW, tag);
            let stack =
                self.k.alloc_mem_tagged(pid, TRACK_STACK_PAGES * PAGE_SIZE, PageFlags::RW, tag);
            let dcs =
                self.k.alloc_mem_tagged(pid, PAGE_SIZE, PageFlags::RW | PageFlags::CAP_STORE, tag);
            let tidp = {
                let c = self.tidp_next.entry(callee_pid).or_insert(1);
                let v = *c;
                *c += 1;
                v
            };
            self.track.insert(
                key,
                TrackCtx { tls, stack_top: stack + TRACK_STACK_PAGES * PAGE_SIZE, dcs, tidp },
            );
        }

        // Make sure the domain's APL is cached so `taglookup` hits, and
        // scrub the tracking slot of anything we evict.
        let hw = match self.k.cpus[cpu].cpu.apl_cache.hw_tag(tag) {
            Some(hw) => hw,
            None => {
                let apl = match self.k.domains.apl(tag) {
                    Some(a) => a.clone(),
                    None => return u64::MAX,
                };
                let (hw, evicted) = self.k.cpus[cpu].cpu.apl_cache.fill(tag, apl);
                if evicted.is_some() {
                    self.zero_track_slot(cpu, hw.0 as u64);
                }
                hw
            }
        };

        // Fill the per-thread tracking array entry.
        let ctx = &self.track[&key];
        let array = self.k.percpu_read(cpu, percpu::PROC_CACHE);
        let slot = array + hw.0 as u64 * percpu::PROC_CACHE_ENTRY;
        let (tls, stack_top, dcs, tidp) = (ctx.tls, ctx.stack_top, ctx.dcs, ctx.tidp);
        for (off, v) in [
            (track::PID, callee_pid),
            (track::TIDP, tidp),
            (track::TLS, tls),
            (track::STACK, stack_top),
            (track::DCS, dcs),
        ] {
            self.k.mem.kwrite_u64(Memory::GLOBAL_PT, slot + off, v).expect("kcs page mapped");
        }
        0
    }

    fn zero_track_slot(&mut self, cpu: usize, hw: u64) {
        let array = self.k.percpu_read(cpu, percpu::PROC_CACHE);
        if array != 0 {
            let slot = array + hw * percpu::PROC_CACHE_ENTRY;
            let zero = [0u8; percpu::PROC_CACHE_ENTRY as usize];
            let _ = self.k.mem.kwrite(Memory::GLOBAL_PT, slot, &zero);
        }
    }

    // ------------------------------------------------------------------
    // Fault handling: KCS unwinding (§5.2.1).
    // ------------------------------------------------------------------

    /// Attempts to recover a faulting thread by unwinding its KCS to the
    /// nearest live caller. Returns `true` if recovered.
    fn unwind_running(&mut self, cpu: usize) -> bool {
        let top = self.k.percpu_read(cpu, percpu::KCS_TOP);
        let kbase = self.k.percpu_read(cpu, percpu::KCS_BASE);
        let Some((e, _, ret_addr, dom)) = self.kcs_live_caller(top, kbase) else { return false };
        // Resume on the recorded proxy's return path with the KCS
        // positioned so it pops exactly this entry.
        self.k.percpu_write(cpu, percpu::KCS_TOP, e + percpu::KCS_ENTRY);
        let c = self.k.cost.exception + 600;
        self.k.charge(cpu, TimeCat::Kernel, c);
        let cpu_ref = &mut self.k.cpus[cpu].cpu;
        cpu_ref.pc = ret_addr;
        cpu_ref.cur_dom = dom;
        cpu_ref.set_reg(reg::A0, DIPC_ERR_FAULT);
        self.unwinds += 1;
        if simtrace::enabled() {
            simtrace::counter("unwinds", 1);
            let now = self.k.cpus[cpu].cpu.cycles;
            simtrace::instant(simtrace::Track::Cpu(cpu), now, "kcs_unwind", "fault");
        }
        true
    }

    /// Unwinds a *descheduled* thread whose current process died (process
    /// kills are "treated using the same technique", §5.2.1). Returns true
    /// if the thread was rescued.
    fn unwind_saved(&mut self, tid: Tid) -> bool {
        let (kcs_top, kcs_base) = {
            let t = &self.k.threads[&tid];
            (t.kcs_top, t.kcs_base)
        };
        let Some((e, caller_pid, ret_addr, dom)) = self.kcs_live_caller(kcs_top, kcs_base) else {
            return false;
        };
        let t = self.k.threads.get_mut(&tid).expect("exists");
        t.kcs_top = e + percpu::KCS_ENTRY;
        t.ctx.pc = ret_addr;
        t.ctx.cur_dom = dom;
        t.ctx.regs[reg::A0 as usize] = DIPC_ERR_FAULT;
        t.pending_syscall = None;
        t.cur_pid = caller_pid;
        if matches!(t.state, ThreadState::Blocked(_)) {
            self.k.make_runnable(tid, 0);
        }
        self.unwinds += 1;
        simtrace::counter("unwinds", 1);
        true
    }

    /// Searches the KCS between `base` and `top` downward for the nearest
    /// entry whose caller is alive and whose proxy is still registered.
    /// Returns the entry's address, the caller and the proxy's return
    /// address and domain.
    fn kcs_live_caller(&self, top: u64, base: u64) -> Option<(u64, Pid, u64, DomainTag)> {
        let mut e = top;
        while e >= base + percpu::KCS_ENTRY {
            e -= percpu::KCS_ENTRY;
            let caller_pid =
                self.k.mem.kread_u64(Memory::GLOBAL_PT, e + kcs::CALLER_PID).expect("kcs mapped");
            let alive = self.k.procs.get(&Pid(caller_pid)).map(|p| p.alive).unwrap_or(false);
            if !alive {
                continue;
            }
            let proxy_id =
                self.k.mem.kread_u64(Memory::GLOBAL_PT, e + kcs::PROXY_ID).expect("kcs mapped");
            if let Some(pr) = self.proxies.get(&proxy_id) {
                return Some((e, Pid(caller_pid), pr.ret_addr, pr.dom));
            }
        }
        None
    }

    /// Kills a process with dIPC semantics: visiting threads (threads of
    /// *other* processes currently executing inside it) are unwound back to
    /// their callers with an error instead of dying with the process, and
    /// the corpse is reclaimed eagerly — per-CPU tracking slots scrubbed,
    /// thread-tracking contexts dropped, pages unmapped and VAS blocks
    /// released — so every stale path into it (warm tracking entries on
    /// other CPUs, in-flight proxies past the resolve) faults and unwinds
    /// instead of executing dead code.
    ///
    /// Idempotent: a second kill of the same process (a fault-injection
    /// trigger racing a natural exit, or an unwind-failure escalation while
    /// a peer's call is in flight on another CPU) is a no-op — without the
    /// guard it would double-free the reclaimed frames and re-unwind
    /// already-rescued visitors off now-stale KCS entries.
    pub fn kill_process(&mut self, pid: Pid) {
        if !self.reaped.insert(pid.0) {
            return;
        }
        if let Some(p) = self.k.procs.get_mut(&pid) {
            p.alive = false;
        }
        // Dead processes need no ambient-syscall filter; the sandbox
        // registry entry (and its violation count) survives for post-mortem
        // queries and stale-fault handling.
        self.k.syscall_filters.unrestrict(pid);
        // Rescue visitors. For running threads the authoritative "current
        // process" lives in the per-CPU area (proxies switch it without the
        // kernel seeing); the Thread struct's copy is only fresh for
        // descheduled threads.
        let visitors: Vec<Tid> = self
            .k
            .threads
            .values()
            .filter(|t| {
                if t.home == pid || matches!(t.state, ThreadState::Dead) {
                    return false;
                }
                match t.state {
                    ThreadState::Running(cpu) => self.k.current_pid(cpu) == pid,
                    _ => t.cur_pid == pid,
                }
            })
            .map(|t| t.tid)
            .collect();
        for tid in visitors {
            let rescued = match self.k.threads[&tid].state {
                ThreadState::Running(cpu) => self.unwind_running(cpu),
                _ => self.unwind_saved(tid),
            };
            if !rescued {
                self.k.kill_process(self.k.threads[&tid].home);
            }
        }
        self.k.kill_process(pid);
        // Poison async channels while the corpse's ring pages are still
        // mapped: pending enqueues fail with DIPC_ERR_FAULT and parked
        // futex waiters in *other* processes are woken to observe it.
        self.reap_channels(pid);
        self.reclaim(pid);
    }

    /// Reclaims a dead dIPC process's resources. Runs *after* visitor
    /// rescue: the rescued threads are already back on their callers'
    /// return paths and no longer touch the corpse.
    fn reclaim(&mut self, pid: Pid) {
        // Every CODOMs domain rooted in the dead process.
        let mut dead_tags: HashSet<DomainTag> =
            self.doms.values().filter(|d| d.owner_pid == pid.0).map(|d| d.tag).collect();
        let Some(proc_info) = self.k.procs.get(&pid) else { return };
        dead_tags.insert(proc_info.default_domain);
        let (dipc, blocks) = (proc_info.dipc_enabled, proc_info.blocks.clone());
        // Scrub warm per-CPU state: hardware APL entries and their tracking
        // slots, so a peer's next call misses, takes the cold path, and
        // fails resolve (which now checks liveness) into an unwind.
        for cpu in 0..self.k.cpus.len() {
            for tag in &dead_tags {
                if let Some(hw) = self.k.cpus[cpu].cpu.apl_cache.hw_tag(*tag) {
                    self.zero_track_slot(cpu, hw.0 as u64);
                    self.k.cpus[cpu].cpu.apl_cache.invalidate(*tag);
                }
            }
        }
        // Per-thread contexts (TLS/stack/DCS) lazily allocated inside the
        // dead process by visiting threads.
        self.track.retain(|k, _| !dead_tags.contains(&DomainTag(k.1)));
        // Unmap the corpse and free its frames. dIPC processes allocate
        // exclusively inside their global-VAS blocks (proxy code lives in
        // the kernel-shared area and survives for KCS unwinding), so
        // releasing the blocks reclaims everything. Frames are never
        // aliased across blocks (`dom_remap` retags in place), so the
        // frees cannot double up with a peer's teardown.
        if dipc {
            for b in blocks {
                if let Some((base, next)) = self.k.vas.block_span(pid.0, b) {
                    self.k.mem.unmap(Memory::GLOBAL_PT, base, (next - base) / PAGE_SIZE);
                    let _ = self.k.vas.release_block(pid.0, b);
                }
            }
            if let Some(p) = self.k.procs.get_mut(&pid) {
                p.blocks.clear();
            }
        }
    }

    // ------------------------------------------------------------------
    // Cross-process call time-outs (§5.4): thread splitting.
    // ------------------------------------------------------------------

    /// Splits a thread that is stuck inside a cross-process dIPC call
    /// (§5.4): the caller side becomes a *new* thread that resumes at the
    /// timing-out proxy's return path with [`DIPC_ERR_TIMEDOUT`]; the
    /// original thread keeps executing the callee and self-destructs when
    /// it eventually returns into the split proxy.
    ///
    /// Requires the timed-out call to use stack confidentiality (the paper's
    /// precondition: caller and callee stacks must be separate). Returns the
    /// new caller-side thread, or `None` if the thread has no splittable
    /// call in progress.
    pub fn split_timeout(&mut self, tid: Tid) -> Option<Tid> {
        // Locate the thread's KCS view (live per-CPU copy if running).
        let (kcs_base, kcs_top, running_cpu) = match self.k.threads.get(&tid)?.state {
            ThreadState::Running(cpu) => (
                self.k.percpu_read(cpu, percpu::KCS_BASE),
                self.k.percpu_read(cpu, percpu::KCS_TOP),
                Some(cpu),
            ),
            ThreadState::Dead => return None,
            _ => {
                let t = &self.k.threads[&tid];
                (t.kcs_base, t.kcs_top, None)
            }
        };
        if kcs_top < kcs_base + percpu::KCS_ENTRY {
            return None; // no call in progress
        }
        let entry = kcs_top - percpu::KCS_ENTRY;
        let rd = |off| self.k.mem.kread_u64(Memory::GLOBAL_PT, entry + off).expect("kcs mapped");
        let proxy_id = rd(kcs::PROXY_ID);
        let pr = self.proxies.get(&proxy_id)?;
        if !pr.stack_conf {
            return None; // §5.4 precondition
        }
        let (ret_addr, proxy_dom) = (pr.ret_addr, pr.dom);
        let caller_pid = Pid(rd(kcs::CALLER_PID));

        // --- The caller side: a fresh thread resuming at proxy_ret ---
        // It gets its own KCS (all entries up to and *including* the split
        // one, which proxy_ret will pop) and a fresh tracking cache.
        let kpage = self.k.kshared_alloc(1, PageFlags::RW);
        let new_cache = kpage;
        let new_base = kpage + percpu::PROC_CACHE_BYTES;
        let new_limit = kpage + PAGE_SIZE;
        let copy_len = (kcs_top - kcs_base) as usize;
        let mut buf = vec![0u8; copy_len];
        self.k.mem.kread(Memory::GLOBAL_PT, kcs_base, &mut buf).expect("kcs mapped");
        self.k.mem.kwrite(Memory::GLOBAL_PT, new_base, &buf).expect("fresh page mapped");
        let new_top = new_base + copy_len as u64;

        let orig_dcs = match running_cpu {
            Some(cpu) => self.k.cpus[cpu].cpu.dcs,
            None => self.k.threads[&tid].ctx.dcs,
        };
        let mut ctx = simkernel::ThreadCtx::at(ret_addr, Memory::GLOBAL_PT, proxy_dom);
        ctx.regs[reg::A0 as usize] = DIPC_ERR_TIMEDOUT;
        ctx.dcs = orig_dcs;
        let new_tid = {
            // Manual thread construction: the kernel's spawn path would
            // allocate a stack/entry we do not want. The id still comes
            // from the kernel's counter, like a spawned thread's.
            let new_tid = self.k.alloc_tid();
            let last_cpu = self.k.threads[&tid].last_cpu;
            self.k.threads.insert(
                new_tid,
                simkernel::Thread {
                    tid: new_tid,
                    home: caller_pid,
                    state: ThreadState::Blocked(simkernel::BlockReason::External(0)),
                    ctx,
                    affinity: None,
                    last_cpu,
                    ready_at: 0,
                    pending_syscall: None,
                    wake_value: 0,
                    cur_pid: caller_pid,
                    l4_queue: Default::default(),
                    kcs_base: new_base,
                    kcs_limit: new_limit,
                    kcs_top: new_top,
                    proc_cache: new_cache,
                    exit_code: 0,
                    cpu_time: 0,
                },
            );
            self.k.live_threads += 1;
            if let Some(p) = self.k.procs.get_mut(&caller_pid) {
                p.threads.push(new_tid);
            }
            self.k.wake_external(new_tid, DIPC_ERR_TIMEDOUT, 0);
            new_tid
        };

        // --- The callee side: rewrite its (now truncated) KCS so that
        // returning into the split proxy self-destructs the thread ---
        let gadget = self.exit_gadget();
        let wr = |mem: &mut simmem::Memory, off, v| {
            mem.kwrite_u64(Memory::GLOBAL_PT, kcs_base + off, v).expect("kcs mapped")
        };
        // Move the split entry down to the KCS base and mark it.
        let mut e = vec![0u8; percpu::KCS_ENTRY as usize];
        self.k.mem.kread(Memory::GLOBAL_PT, entry, &mut e).expect("kcs mapped");
        self.k.mem.kwrite(Memory::GLOBAL_PT, kcs_base, &e).expect("kcs mapped");
        let callee_cur = match running_cpu {
            Some(cpu) => self.k.current_pid(cpu).0,
            None => self.k.threads[&tid].cur_pid.0,
        };
        wr(&mut self.k.mem, kcs::CALLER_PID, callee_cur);
        wr(&mut self.k.mem, kcs::RET_ADDR, gadget);
        let new_callee_top = kcs_base + percpu::KCS_ENTRY;
        match running_cpu {
            Some(cpu) => self.k.percpu_write(cpu, percpu::KCS_TOP, new_callee_top),
            None => {
                self.k.threads.get_mut(&tid).expect("exists").kcs_top = new_callee_top;
            }
        }
        self.splits += 1;
        Some(new_tid)
    }

    /// Lazily creates the shared thread-exit gadget: one `Halt` instruction
    /// on an executable kernel-shared page (proxies can jump into the
    /// kernel-shared domain, which their APL grants).
    fn exit_gadget(&mut self) -> u64 {
        if let Some(g) = self.exit_gadget {
            return g;
        }
        let page = self.k.kshared_alloc(1, PageFlags::RW);
        let halt = cdvm::Instr::Halt.encode();
        self.k.mem.kwrite(Memory::GLOBAL_PT, page, &halt).expect("just mapped");
        self.k.mem.table_mut(Memory::GLOBAL_PT).protect(page, PageFlags::RX);
        self.exit_gadget = Some(page);
        page
    }

    // ------------------------------------------------------------------
    // The drive loop.
    // ------------------------------------------------------------------

    /// Advances the simulation one step, transparently handling dIPC
    /// syscalls and recoverable faults. With a fault plan armed
    /// ([`simfault::arm`]) each step also runs the chaos tick: due
    /// kill/exit triggers fire, healed page flips are restored, and new
    /// flips are drawn.
    pub fn step(&mut self) -> SysStep {
        if simfault::armed() {
            self.chaos_tick();
        }
        match self.k.step_sim() {
            KStep::Progress => SysStep::Progress,
            KStep::Finished => SysStep::Finished,
            KStep::Deadlock => SysStep::Deadlock,
            KStep::UnknownSyscall { cpu, tid, nr, args } => {
                let ret = self.dipc_syscall(cpu, tid, nr, args);
                self.k.syscall_return(cpu, ret);
                SysStep::Progress
            }
            KStep::UserFault { cpu, tid, .. } => {
                let victim = self.k.current_pid(cpu);
                if self.plugins.contains_key(&victim.0) {
                    // APL violation (or crash) inside a sandboxed plugin:
                    // fatal-on-violation escalates to kill-and-reclaim; the
                    // visiting caller is rescued/unwound by the kill itself.
                    self.plugin_violation(cpu, tid, victim);
                } else if !self.unwind_running(cpu) {
                    // No live caller on the KCS: conventional crash — kill
                    // the process the thread is executing in.
                    self.kill_process(victim);
                }
                SysStep::Progress
            }
        }
    }

    /// Kills a single thread with dIPC semantics (the `tkill` chaos
    /// trigger): if it was the process's last live thread, the whole
    /// process is killed and reclaimed via [`System::kill_process`].
    pub fn kill_thread(&mut self, tid: Tid) {
        let Some(home) = self.k.threads.get(&tid).map(|t| t.home) else { return };
        self.k.kill_thread(tid);
        if !self.k.procs.get(&home).map(|p| p.alive).unwrap_or(false) {
            self.kill_process(home);
        }
    }

    /// One fault-injection tick: fire due triggers, heal expired page
    /// flips, and draw a new flip. Victim pages for flips are writable
    /// pages of *callee* domains (some proxy targets them), so the induced
    /// write fault always lands under a live KCS entry and unwinds to a
    /// caller instead of killing an innocent top-level thread.
    fn chaos_tick(&mut self) {
        let now = self.k.now_max();
        if !self.flips.is_empty() {
            let mut healed = Vec::new();
            self.flips.retain(|&(va, flags, heal_at)| {
                if now >= heal_at {
                    healed.push((va, flags));
                    false
                } else {
                    true
                }
            });
            for (va, flags) in healed {
                // The page may have been reclaimed with its process in the
                // meantime; only heal what is still mapped.
                if self.k.mem.table(Memory::GLOBAL_PT).lookup(va).is_some() {
                    self.k.mem.table_mut(Memory::GLOBAL_PT).protect(va, flags);
                }
            }
        }
        if !self.stalls.is_empty() {
            let mut healed = Vec::new();
            self.stalls.retain(|&(id, heal_at)| {
                if now >= heal_at {
                    healed.push(id);
                    false
                } else {
                    true
                }
            });
            for id in healed {
                // The channel may have been closed and its pages reclaimed
                // in the meantime; only heal what is still mapped.
                let rec = &self.channels[id];
                let (pt, base) = (rec.pt, rec.req_base);
                if self.k.mem.table(pt).lookup(base).is_some() {
                    use aring::{GuestRing, Ring};
                    Ring::new(rec.req_cfg)
                        .set_stall(&mut GuestRing { mem: &mut self.k.mem, pt, base }, 0);
                }
            }
        }
        for t in simfault::take_due(now) {
            match t {
                simfault::Trigger::KillProcess { pid } => self.kill_process(Pid(pid)),
                simfault::Trigger::KillThread { tid } => self.kill_thread(Tid(tid)),
            }
        }
        if simfault::should(simfault::Site::RingStall, now) {
            // Victims are open channels; the registry is insertion-ordered,
            // so the deterministic draw picks the same one every run.
            let open: Vec<usize> = self
                .channels
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.closed)
                .map(|(i, _)| i)
                .collect();
            if !open.is_empty() {
                let pick = simfault::draw(simfault::Site::RingStall, open.len() as u64);
                let id = open[pick as usize];
                let rec = &self.channels[id];
                let (pt, base, cfg) = (rec.pt, rec.req_base, rec.req_cfg);
                if self.k.mem.table(pt).lookup(base).is_some() {
                    use aring::{GuestRing, Ring};
                    Ring::new(cfg).set_stall(&mut GuestRing { mem: &mut self.k.mem, pt, base }, 1);
                    let heal = now + simfault::param(simfault::Site::RingStall).max(1);
                    self.stalls.push((id, heal));
                }
            }
        }
        if simfault::should(simfault::Site::PageFlip, now) {
            let callee_tags: HashSet<DomainTag> =
                self.proxies.values().map(|p| p.callee_dom).collect();
            let mut cands: Vec<u64> = self
                .k
                .mem
                .table(Memory::GLOBAL_PT)
                .iter()
                .filter(|(_, pte)| {
                    pte.flags.contains(PageFlags::WRITE)
                        && !pte.flags.contains(PageFlags::CAP_STORE)
                        && callee_tags.contains(&pte.tag)
                })
                .map(|(vpn, _)| vpn)
                .collect();
            // Table iteration order follows insertion history, not a
            // contract; sort before indexing with the deterministic draw.
            cands.sort_unstable();
            if !cands.is_empty() {
                let pick = simfault::draw(simfault::Site::PageFlip, cands.len() as u64);
                let va = cands[pick as usize] * PAGE_SIZE;
                if let Some(pte) = self.k.mem.table(Memory::GLOBAL_PT).lookup(va) {
                    let old = pte.flags;
                    let heal = now + simfault::param(simfault::Site::PageFlip).max(1);
                    self.k
                        .mem
                        .table_mut(Memory::GLOBAL_PT)
                        .protect(va, old.without(PageFlags::WRITE));
                    self.flips.push((va, old, heal));
                }
            }
        }
    }

    /// Runs to completion (panics on deadlock or unexpected externals).
    pub fn run_to_completion(&mut self) {
        self.run_until(|_| false);
    }

    /// Runs until `pred` holds (checked after every step) or completion.
    pub fn run_until(&mut self, mut pred: impl FnMut(&System) -> bool) {
        loop {
            if pred(self) {
                return;
            }
            match self.step() {
                SysStep::Progress => {}
                SysStep::Finished => return,
                SysStep::Deadlock => panic!("simulation deadlock"),
                SysStep::External { class, .. } => {
                    panic!("unhandled external event class {class}")
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // VM-level dIPC syscalls.
    // ------------------------------------------------------------------

    fn dipc_syscall(&mut self, cpu: usize, tid: Tid, nr: u64, args: [u64; 6]) -> u64 {
        // All dIPC management requests go through the regular syscall path
        // (§7.1: "all system requests are performed through Linux's regular
        // syscall path").
        const EINVAL: u64 = (-22i64) as u64;
        let pid = self.k.current_pid(cpu);
        // Sandboxed plugins have no ambient authority: a kernel syscall the
        // filter bounced here, and every dIPC *management* request, is a
        // violation — kill-and-reclaim, surfacing DIPC_ERR_FAULT to the
        // unwound caller. Only track_resolve stays reachable (the proxy
        // cold path executes it while the plugin is still the tracked
        // process, and it is capability-checked on its own).
        if self.plugins.contains_key(&pid.0) && nr != dsys::TRACK_RESOLVE {
            return self.plugin_violation(cpu, tid, pid);
        }
        match nr {
            dsys::TRACK_RESOLVE => {
                // Fault injection: a transient kernel-side resolve error,
                // indistinguishable to the caller from a dead callee.
                let injected = simfault::armed()
                    && simfault::should(simfault::Site::SysErr, self.k.cpus[cpu].cpu.cycles);
                let r = if injected {
                    u64::MAX
                } else {
                    self.track_resolve(cpu, args[0], args[1] as u32)
                };
                if r != u64::MAX {
                    return r;
                }
                // Resolve failed (dead callee, missing APL, or injection).
                // The proxy's cold path would loop `retry → taglookup miss →
                // resolve` forever; its KCS entry is already pushed (the
                // push precedes the tracking lookup precisely so this works),
                // so unwind to the nearest live caller and surface the error.
                if !self.unwind_running(cpu) {
                    let victim = self.k.current_pid(cpu);
                    self.kill_process(victim);
                }
                DIPC_ERR_FAULT
            }
            dsys::DOM_DEFAULT => {
                let h = self.dom_default(pid);
                self.install(pid, h)
            }
            dsys::DOM_CREATE => {
                let h = self.dom_create(pid);
                self.install(pid, h)
            }
            dsys::DOM_COPY => {
                let Some(h) = self.handle_from_fd(pid, args[0] as u32) else { return EINVAL };
                let perm = match args[1] {
                    0 => HandlePerm::Nil,
                    1 => HandlePerm::Call,
                    2 => HandlePerm::Read,
                    3 => HandlePerm::Write,
                    _ => HandlePerm::Owner,
                };
                match self.dom_copy(pid, h, perm) {
                    Ok(nh) => self.install(pid, nh),
                    Err(_) => EINVAL,
                }
            }
            dsys::DOM_MMAP => {
                let Some(h) = self.handle_from_fd(pid, args[0] as u32) else { return EINVAL };
                match self.dom_mmap(pid, h, args[1], PageFlags::RW) {
                    Ok(addr) => addr,
                    Err(_) => EINVAL,
                }
            }
            dsys::PLUGIN_DENY => {
                // Filter-proxy verdict: the (trusted) filter domain decided
                // the plugin's routed syscall request was disallowed or
                // malformed. Only the registered filter may deliver it, and
                // only against a sandboxed plugin.
                if Some(pid.0) != self.filter_pid {
                    return EINVAL;
                }
                let victim = Pid(args[0]);
                if !self.plugins.contains_key(&victim.0) {
                    return EINVAL;
                }
                self.plugin_violation(cpu, tid, victim)
            }
            dsys::DOM_REMAP => {
                let (Some(d), Some(s)) = (
                    self.handle_from_fd(pid, args[0] as u32),
                    self.handle_from_fd(pid, args[1] as u32),
                ) else {
                    return EINVAL;
                };
                match self.dom_remap(pid, d, s, args[2], args[3]) {
                    Ok(()) => 0,
                    Err(_) => EINVAL,
                }
            }
            dsys::GRANT_CREATE => {
                let (Some(s), Some(d)) = (
                    self.handle_from_fd(pid, args[0] as u32),
                    self.handle_from_fd(pid, args[1] as u32),
                ) else {
                    return EINVAL;
                };
                match self.grant_create(pid, s, d) {
                    Ok(g) => self.install(pid, g),
                    Err(_) => EINVAL,
                }
            }
            dsys::GRANT_REVOKE => {
                let Some(g) = self.handle_from_fd(pid, args[0] as u32) else { return EINVAL };
                match self.grant_revoke(pid, g) {
                    Ok(()) => 0,
                    Err(_) => EINVAL,
                }
            }
            dsys::ENTRY_REGISTER => {
                let Some(h) = self.handle_from_fd(pid, args[0] as u32) else { return EINVAL };
                let Some(descs) = self.read_descs(cpu, args[2], args[1]) else { return EINVAL };
                match self.entry_register(pid, h, descs) {
                    Ok(e) => self.install(pid, e),
                    Err(_) => EINVAL,
                }
            }
            dsys::ENTRY_REQUEST => {
                let Some(h) = self.handle_from_fd(pid, args[0] as u32) else { return EINVAL };
                let Some(descs) = self.read_descs(cpu, args[2], args[1]) else { return EINVAL };
                match self.entry_request(pid, h, descs) {
                    Ok((dom_h, addrs)) => {
                        // Write the proxy addresses back into the
                        // descriptors' address fields.
                        for (i, addr) in addrs.iter().enumerate() {
                            let at = args[2] + i as u64 * DESC_BYTES;
                            let pt = self.k.cpus[cpu].cpu.active_pt;
                            let _ = self.k.mem.kwrite_u64(pt, at, *addr);
                        }
                        self.install(pid, dom_h)
                    }
                    Err(_) => EINVAL,
                }
            }
            _ => (-(38i64)) as u64, // ENOSYS
        }
    }

    fn install(&mut self, pid: Pid, h: Handle) -> u64 {
        self.k.install_opaque(pid, DIPC_CLASS, h.0) as u64
    }

    fn handle_from_fd(&self, pid: Pid, fd: u32) -> Option<Handle> {
        match self.k.procs.get(&pid)?.fd(fd)? {
            KObject::Opaque { class, id } if *class == DIPC_CLASS => Some(Handle(*id)),
            _ => None,
        }
    }

    fn read_descs(&self, cpu: usize, ptr: u64, count: u64) -> Option<Vec<EntryDesc>> {
        if count > 64 {
            return None;
        }
        let pt = self.k.cpus[cpu].cpu.active_pt;
        let mut out = Vec::with_capacity(count as usize);
        for i in 0..count {
            let at = ptr + i * DESC_BYTES;
            let address = self.k.mem.kread_u64(pt, at).ok()?;
            let sig = Signature::unpack(self.k.mem.kread_u64(pt, at + 8).ok()?);
            let policy = IsoProps(self.k.mem.kread_u64(pt, at + 16).ok()? as u8);
            out.push(EntryDesc { address, signature: sig, policy });
        }
        Some(out)
    }
}
