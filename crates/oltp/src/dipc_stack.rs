//! The dIPC configuration: three dIPC-enabled processes in the global
//! address space; web threads call straight through PHP into the DB over
//! generated proxies (§7.4).
//!
//! No service threads exist in PHP or the DB — the web tier's primary
//! threads execute the other tiers' code in place (eliminating the false
//! concurrency of §2.3). The policies are asymmetric: PHP trusts the other
//! components (as in the paper), so the PHP entry only requests stack
//! confidentiality (it needs a private stack to make nested calls); the DB
//! entry adds register integrity toward its callers.

use cdvm::isa::reg::*;
use simkernel::KernelConfig;

use dipc::{AppSpec, IsoProps, Signature, World};

use crate::params::OltpParams;
use crate::tiers::{self, TABLE_ROWS};
use crate::Stack;

/// The signature of every cross-tier call: two argument registers, one
/// result.
pub(crate) const SIG: Signature = Signature::regs(2, 1);

/// The DB process: exports `db_query`.
pub(crate) fn db_spec(p: &OltpParams) -> AppSpec {
    let pdb = p.clone();
    AppSpec::new("db", move |a| {
        tiers::emit_db_query(a, &pdb);
    })
    .export("db_query", SIG, IsoProps::STACK_CONF | IsoProps::REG_INTEGRITY)
    .data("db_table", TABLE_ROWS * p.row_bytes)
    .data("db_qcount", 64)
    .data("db_iobuf", p.row_bytes.max(64))
}

/// The PHP process: exports `php_render`, imports `db_query`.
pub(crate) fn php_spec(p: &OltpParams) -> AppSpec {
    let pphp = p.clone();
    AppSpec::new("php", move |a| {
        tiers::emit_php_render(a, &pphp, &|a| {
            a.jal(RA, "call_db_db_query");
        });
    })
    .export("php_render", SIG, IsoProps::STACK_CONF)
    .import_live("db", "db_query", SIG, IsoProps::LOW, &[S0, S6, S7])
}

/// Builds the three-process dIPC stack.
pub fn build(p: &OltpParams) -> Stack {
    let mut w =
        World::new(KernelConfig { cpus: p.cores, steal: p.steal, ..KernelConfig::default() });
    w.build(db_spec(p));
    w.build(php_spec(p));

    // --- Web process: primary threads, imports `php_render` ---
    // Under fault injection the call is wrapped in bounded
    // retry-with-backoff + shedding (and s3-s5 become live across the
    // proxy); with injection disarmed the emitted world is byte-identical
    // to the plain build, so fig8 numbers are unaffected.
    let chaos = simfault::armed();
    let pweb = p.clone();
    let web = AppSpec::new("web", move |a| {
        tiers::emit_web_main(a, &pweb, &|a| {
            if chaos {
                tiers::emit_retry_call(a, dipc::DIPC_ERR_FAULT, "web_loop", &|a| {
                    a.jal(RA, "call_php_php_render");
                });
            } else {
                a.jal(RA, "call_php_php_render");
            }
        });
    });
    let live: &[u8] = if chaos { &[S1, S2, S3, S4, S5] } else { &[S1, S2] };
    let mut web = web
        .import_live("php", "php_render", SIG, IsoProps::LOW, live)
        .data("counters", (p.concurrency * 8).max(64));
    if chaos {
        web = web.data("shed", (p.concurrency * 8).max(64));
    }
    w.build(web);

    w.link();

    let db_pid = w.app("db").pid;
    tiers::install_db_file(&mut w.sys.k, db_pid, "dvdstore.db", p);

    let counters = w.app("web").data["counters"];
    let sheds = w.app("web").data.get("shed").copied();
    for i in 0..p.concurrency {
        w.spawn("web", "web_main", &[i]);
    }
    // dIPC processes share the global page table.
    let pt = simmem::Memory::GLOBAL_PT;
    Stack { sys: w.sys, counters: (pt, counters), slots: p.concurrency, sheds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::StorageKind;

    #[test]
    fn dipc_stack_completes_operations() {
        let p = OltpParams::with(4, StorageKind::InMemory);
        let mut s = build(&p);
        let r = s.run(20, 100, p.concurrency);
        assert!(r.ops > 5, "dIPC stack must make progress: {} ops", r.ops);
    }

    #[test]
    fn dipc_reaches_94_percent_of_ideal() {
        let p = OltpParams::with(16, StorageKind::InMemory);
        let mut sd = build(&p);
        let rd = sd.run(20, 150, p.concurrency);
        let mut si = crate::ideal_stack::build(&p);
        let ri = si.run(20, 150, p.concurrency);
        let eff = rd.ops_per_min / ri.ops_per_min;
        assert!(
            eff > 0.90,
            "dIPC must be within a few % of Ideal (paper: >94%), got {:.1}%",
            eff * 100.0
        );
    }
}
