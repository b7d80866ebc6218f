//! Untrusted plugin domains over dIPC: checked loading, syscall-filter
//! proxying, and kill-and-reclaim sandboxing.
//!
//! The scenario (ROADMAP item 5, modeled on the Endokernel / Tock-checker
//! line of related work): a **host** service loads N untrusted plugin
//! images into per-plugin CODOMs domains and calls them through ordinary
//! dIPC proxies. Three defenses stack up:
//!
//! 1. **Checked loading** — every plugin arrives as a signed blob
//!    ([`simkernel::checker`]): magic, version, lengths, declared resource
//!    grants and a keyed checksum are verified deterministically before a
//!    single byte is mapped, and the declared grants are re-enforced at
//!    map time (image footprint vs `MemBytes`, filter allowlist vs
//!    `Syscalls`).
//! 2. **No ambient syscalls** — a loaded plugin is sandboxed
//!    ([`dipc::System::sandbox_process`]): its only path to the kernel is
//!    a dIPC call into the **filter** domain, which checks the request
//!    against the plugin's verified allowlist bitmap and either executes
//!    the syscall on the plugin's behalf or delivers a
//!    `dsys::PLUGIN_DENY` verdict that kills the plugin.
//! 3. **Kill-and-reclaim on violation** — a wild store (APL violation), a
//!    direct `ecall`, or any dIPC management request from plugin code
//!    kills and eagerly reclaims the plugin (the PR 3 unwind machinery);
//!    the host's in-flight call unwinds with `DIPC_ERR_FAULT`, the host
//!    survives, and [`world::PluginWorld::reload_plugin`] re-verifies the
//!    blob and relinks a fresh instance.
//!
//! The `pluginbench` binary (crates/bench) drives crossing-heavy traffic
//! (host↔plugin ping-pong where each benign tick also routes a syscall
//! through the filter) against [`baseline`]'s process-per-plugin pipe
//! configuration, a figure the paper does not have.

pub mod baseline;
pub mod images;
pub mod world;

use simkernel::checker::GrantCaps;
use simkernel::sysno;

/// Host-side command word: benign tick (plugin routes `GETPID` through
/// the filter).
pub const CMD_BENIGN: u64 = 0;
/// Host-side command word: call plugin 0 through the *stale* `tick2`
/// proxy (the forged-capability replay path; never forwarded to the
/// plugin).
pub const CMD_REPLAY: u64 = 2;

/// Scenario parameters.
#[derive(Clone, Copy, Debug)]
pub struct PluginParams {
    /// Number of plugin slots.
    pub n: usize,
    /// Host loop iterations — each iteration calls every plugin once.
    pub ops: u64,
    /// Signature verification key.
    pub key: u64,
    /// Simulated CPUs.
    pub cpus: usize,
    /// Host resource policy for declared grants.
    pub caps: GrantCaps,
}

impl Default for PluginParams {
    fn default() -> PluginParams {
        PluginParams {
            n: 4,
            ops: 2_000,
            key: 0xD1FC_5EED,
            cpus: 2,
            caps: GrantCaps {
                mem_bytes: 1 << 20,
                syscall_mask: (1 << sysno::GETPID) | (1 << sysno::GETTID) | (1 << sysno::CLOCK_NS),
                threads: 1,
            },
        }
    }
}
