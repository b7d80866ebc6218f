//! The process-wide engine switch.
//!
//! The simulator has exactly two execution engines with identical
//! simulated cycles, fault sequences and trace output:
//!
//! * the **reference** — [`crate::Cpu::step`] in a loop, translating and
//!   decoding every fetch from scratch, with no host cache of any kind
//!   (no block cache, no data-operand cache);
//! * the **fast** engine, the default — the superblock engine
//!   ([`crate::blocks`]) with everything it caches.
//!
//! `CDVM_NO_FASTPATH=1` selects the reference; [`set_fastpath`] overrides
//! the environment programmatically. The differential tests run both and
//! demand byte-identical results.
//!
//! The flag is sampled once, by [`crate::Cpu::new`], never per access;
//! `simmem::Memory` is the same under both engines.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// 0 = follow the environment, 1 = force on, 2 = force off.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn env_default() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("CDVM_NO_FASTPATH") {
        Ok(v) => !(v == "1" || v.eq_ignore_ascii_case("true")),
        Err(_) => true,
    })
}

/// Whether newly constructed CPUs should use the fast engine
/// (`false`: the reference interpreter).
pub fn fastpath_enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => env_default(),
    }
}

/// Overrides the `CDVM_NO_FASTPATH` environment variable for this process:
/// `Some(true)` forces the fast engine, `Some(false)` forces the reference
/// interpreter, and `None` reverts to the environment. Only affects
/// CPUs constructed *after* the call.
pub fn set_fastpath(enabled: Option<bool>) {
    let v = match enabled {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_wins_and_reverts() {
        set_fastpath(Some(false));
        assert!(!fastpath_enabled());
        set_fastpath(Some(true));
        assert!(fastpath_enabled());
        set_fastpath(None);
        // Whatever the environment says, the call must not panic.
        let _ = fastpath_enabled();
    }
}
