//! Shared tier logic: the database query body, the PHP render loop, the web
//! operation loop, and a small deterministic PRNG — identical application
//! work in every configuration, so only the call mechanism differs.

use cdvm::isa::reg::*;
use cdvm::{Asm, Instr};
use simkernel::object::{KObject, Storage};
use simkernel::{sysno, Kernel, Pid};

use crate::params::{OltpParams, StorageKind};

/// The database file is always installed as fd 0 of the process hosting the
/// DB tier (asserted by the stack builders).
pub const DB_FD: u64 = 0;

/// Rows in the in-memory table region (power of two).
pub const TABLE_ROWS: u64 = 1024;

/// Installs the DVDStore database file `name` as fd [`DB_FD`] of `pid`,
/// backed by `p.storage`.
pub fn install_db_file(k: &mut Kernel, pid: Pid, name: &str, p: &OltpParams) {
    let storage = match p.storage {
        StorageKind::Disk => Storage::Disk,
        StorageKind::InMemory => Storage::Tmpfs,
    };
    let file = k.add_file(name, vec![7u8; (p.row_bytes * 4) as usize], storage);
    let fd = k.procs.get_mut(&pid).expect("exists").add_fd(KObject::File { id: file, pos: 0 });
    assert_eq!(fd.0 as u64, DB_FD, "db file must be fd 0");
}

/// Emits `dst = lcg_next(state_reg)` — a deterministic product-id generator
/// (stands in for DVDStore's randomized browse/purchase mix).
pub fn emit_lcg(a: &mut Asm, state: u8, dst: u8) {
    a.li(T0, 1103515245);
    a.push(Instr::Mul { rd: state, rs1: state, rs2: T0 });
    a.push(Instr::Addi { rd: state, rs1: state, imm: 12345 });
    a.push(Instr::Srli { rd: dst, rs1: state, imm: 16 });
    a.push(Instr::Andi { rd: dst, rs1: dst, imm: (TABLE_ROWS - 1) as i32 });
}

/// Emits the database query body under label `db_query`.
///
/// `a0` = product id; returns `a0` = first row word. Needs externs
/// `$data_db_table` (TABLE_ROWS × row_bytes), `$data_db_qcount` (8 B) and
/// `$data_db_iobuf` (row_bytes) — named to line up with the dIPC DSL's
/// `data()` regions. A leaf function: no stack use on the fast path.
pub fn emit_db_query(a: &mut Asm, p: &OltpParams) {
    let work = p.db_per_query_ns as f64 * 3.1; // ns → cycles at 3.1 GHz
    a.align(64);
    a.label("db_query");
    a.push(Instr::Add { rd: T6, rs1: A0, rs2: ZERO }); // keep the product id
    a.push(Instr::Work { rs1: 0, imm: work as i32 });
    // Buffer-pool accounting: every Nth query reads storage.
    a.li_sym(T2, "$data_db_qcount");
    a.push(Instr::Ld { rd: T3, rs1: T2, imm: 0 });
    a.push(Instr::Addi { rd: T3, rs1: T3, imm: 1 });
    a.push(Instr::St { rs1: T2, rs2: T3, imm: 0 });
    a.li(T4, p.storage_every);
    a.push(Instr::Remu { rd: T4, rs1: T3, rs2: T4 });
    a.bne(T4, ZERO, "dbq_cached");
    // Storage read (blocking syscall; serialized when on disk).
    a.li(A0, DB_FD);
    a.li_sym(A1, "$data_db_iobuf");
    a.li(A2, p.row_bytes);
    a.syscall(sysno::FILE_READ);
    a.label("dbq_cached");
    // Row lookup: copy the row into the IO buffer (the query "result").
    a.li(T4, p.row_bytes);
    a.push(Instr::Mul { rd: T5, rs1: T6, rs2: T4 });
    a.li_sym(T2, "$data_db_table");
    a.push(Instr::Add { rd: T5, rs1: T2, rs2: T5 });
    a.li_sym(T2, "$data_db_iobuf");
    a.push(Instr::MemCpy { rd: T2, rs1: T5, rs2: T4 });
    a.push(Instr::Ld { rd: A0, rs1: T2, imm: 0 });
    a.push(Instr::Jalr { rd: ZERO, rs1: RA, imm: 0 });
}

/// Emits the PHP render body under label `php_render`.
///
/// `a0` = request id, `a1` = query count (0 = use the fixed
/// `queries_per_op`); returns `a0` = page checksum. `call_db` emits the
/// configuration-specific "query the database" call (argument in `a0`,
/// result in `a0`; may clobber t-registers and `ra`-saved state is ours).
pub fn emit_php_render(a: &mut Asm, p: &OltpParams, call_db: &dyn Fn(&mut Asm)) {
    let per_q = (p.php_per_query_ns as f64 * 3.1) as i32;
    let fixed = (p.php_fixed_ns as f64 * 3.1) as i32;
    a.align(64);
    a.label("php_render");
    // Frame: save ra + the callee-saved registers we use.
    a.push(Instr::Addi { rd: SP, rs1: SP, imm: -32 });
    a.push(Instr::St { rs1: SP, rs2: RA, imm: 0 });
    a.push(Instr::St { rs1: SP, rs2: S0, imm: 8 });
    a.push(Instr::St { rs1: SP, rs2: S6, imm: 16 });
    a.push(Instr::St { rs1: SP, rs2: S7, imm: 24 });
    a.push(Instr::Add { rd: S6, rs1: A0, rs2: ZERO }); // PRNG state ← req id
    a.li(S0, p.queries_per_op);
    // A non-zero a1 overrides the fixed query count (transaction mix).
    a.beq(A1, ZERO, "php_fixed_q");
    a.push(Instr::Add { rd: S0, rs1: A1, rs2: ZERO });
    a.label("php_fixed_q");
    a.li(S7, 0); // checksum
    a.label("php_q");
    a.push(Instr::Work { rs1: 0, imm: per_q });
    emit_lcg(a, S6, A0);
    call_db(a);
    a.push(Instr::Add { rd: S7, rs1: S7, rs2: A0 });
    a.push(Instr::Addi { rd: S0, rs1: S0, imm: -1 });
    a.bne(S0, ZERO, "php_q");
    a.push(Instr::Work { rs1: 0, imm: fixed });
    a.push(Instr::Add { rd: A0, rs1: S7, rs2: ZERO });
    a.push(Instr::Ld { rd: RA, rs1: SP, imm: 0 });
    a.push(Instr::Ld { rd: S0, rs1: SP, imm: 8 });
    a.push(Instr::Ld { rd: S6, rs1: SP, imm: 16 });
    a.push(Instr::Ld { rd: S7, rs1: SP, imm: 24 });
    a.push(Instr::Addi { rd: SP, rs1: SP, imm: 32 });
    a.push(Instr::Jalr { rd: ZERO, rs1: RA, imm: 0 });
}

/// Attempts per request before the web tier sheds it (first try + retries).
pub const RETRY_MAX: u64 = 5;

/// Backoff unit in cycles; attempt `n` waits `RETRY_BACKOFF_CYCLES << (n-1)`
/// before retrying, capped at [`RETRY_BACKOFF_MAX`] (deterministic
/// exponential backoff — no host randomness).
pub const RETRY_BACKOFF_CYCLES: u64 = 2_000;

/// Ceiling on a single backoff stall.
pub const RETRY_BACKOFF_MAX: u64 = 32_000;

/// Circuit-breaker hold-off after a shed, in cycles (~2 ms simulated): a
/// thread that just shed a request stops hammering the failing backend
/// before accepting new work, so a dead callee degrades throughput instead
/// of turning the web tier into a shed firehose.
pub const SHED_HOLDOFF_CYCLES: i32 = 6_200_000;

/// Wraps a dIPC call in bounded retry-with-backoff and load shedding.
///
/// `call` emits the actual proxy call (arguments in `a0`/`a1`, result in
/// `a0`); `err` is the sentinel return value that marks an unwound call
/// (normally [`dipc::DIPC_ERR_FAULT`]). On failure the original arguments
/// are restored from `s3`/`s4` and the call is retried up to [`RETRY_MAX`]
/// attempts with capped exponential backoff; after that the request is
/// *shed*: the thread's slot in the `$data_shed` region (parallel to
/// `$data_counters`, indexed off the counter pointer in `s1`) is bumped,
/// the thread holds off [`SHED_HOLDOFF_CYCLES`] (a circuit breaker against
/// a dead backend), and control jumps to `shed_to` — in [`emit_web_main`]
/// that is `web_loop`, so a shed request skips the response work and the
/// completed-operations counter.
///
/// Clobbers `s3` (saved `a0`), `s4` (saved `a1`) and `s5` (attempt count);
/// callers routing this through a dIPC proxy must list those registers as
/// live so the generated proxy preserves them across the call.
pub fn emit_retry_call(a: &mut Asm, err: u64, shed_to: &str, call: &dyn Fn(&mut Asm)) {
    a.push(Instr::Add { rd: S3, rs1: A0, rs2: ZERO }); // save args for replays
    a.push(Instr::Add { rd: S4, rs1: A1, rs2: ZERO });
    a.li(S5, 0); // attempt counter
    a.label("retry_call");
    call(a);
    a.li(T0, err);
    a.bne(A0, T0, "retry_done");
    a.push(Instr::Addi { rd: S5, rs1: S5, imm: 1 });
    a.li(T0, RETRY_MAX);
    a.bgeu(S5, T0, "retry_shed");
    // Exponential backoff: attempt n stalls RETRY_BACKOFF_CYCLES << (n-1)
    // cycles, capped at RETRY_BACKOFF_MAX.
    a.li(T0, RETRY_BACKOFF_CYCLES);
    a.push(Instr::Addi { rd: T1, rs1: S5, imm: -1 });
    a.push(Instr::Sll { rd: T1, rs1: T0, rs2: T1 });
    a.li(T0, RETRY_BACKOFF_MAX);
    a.bltu(T1, T0, "retry_wait");
    a.push(Instr::Add { rd: T1, rs1: T0, rs2: ZERO });
    a.label("retry_wait");
    a.push(Instr::Work { rs1: T1, imm: 0 });
    a.push(Instr::Add { rd: A0, rs1: S3, rs2: ZERO }); // restore args
    a.push(Instr::Add { rd: A1, rs1: S4, rs2: ZERO });
    a.j("retry_call");
    a.label("retry_shed");
    // Bump this thread's shed slot: $data_shed + (s1 - $data_counters).
    a.li_sym(T0, "$data_counters");
    a.push(Instr::Sub { rd: T0, rs1: S1, rs2: T0 });
    a.li_sym(T1, "$data_shed");
    a.push(Instr::Add { rd: T0, rs1: T0, rs2: T1 });
    a.push(Instr::Ld { rd: T1, rs1: T0, imm: 0 });
    a.push(Instr::Addi { rd: T1, rs1: T1, imm: 1 });
    a.push(Instr::St { rs1: T0, rs2: T1, imm: 0 });
    // Circuit-breaker hold-off before taking the next request.
    a.push(Instr::Work { rs1: 0, imm: SHED_HOLDOFF_CYCLES });
    a.j(shed_to);
    a.label("retry_done");
}

/// Emits the web-tier main loop under label `web_main`.
///
/// `a0` = thread index on entry. Loops forever: parse work → render (via
/// `call_php`, request id in `a0` and the transaction's query count in
/// `a1`, page checksum back in `a0`) → respond work → bump this thread's
/// counter slot (extern `$data_counters`).
pub fn emit_web_main(a: &mut Asm, p: &OltpParams, call_php: &dyn Fn(&mut Asm)) {
    let parse = (p.web_work_ns as f64 * 3.1) as i32;
    let respond = (p.web_respond_ns as f64 * 3.1) as i32;
    a.label("web_main");
    a.push(Instr::Slli { rd: T0, rs1: A0, imm: 3 });
    a.li_sym(S1, "$data_counters");
    a.push(Instr::Add { rd: S1, rs1: S1, rs2: T0 }); // my counter slot
    a.push(Instr::Addi { rd: S2, rs1: A0, imm: 17 }); // request-id PRNG seed
    a.label("web_loop");
    a.push(Instr::Work { rs1: 0, imm: parse });
    emit_lcg(a, S2, A0);
    if let Some(mix) = p.mix {
        // Draw the transaction type with weights 10/4/2 of 16 and set the
        // query count accordingly (DVDStore's browse/login/purchase mix).
        a.push(Instr::Srli { rd: T3, rs1: S2, imm: 24 });
        a.push(Instr::Andi { rd: T3, rs1: T3, imm: 15 });
        a.li(A1, mix.browse_q);
        a.li(T4, 10);
        a.bltu(T3, T4, "web_mix_done");
        a.li(A1, mix.login_q);
        a.li(T4, 14);
        a.bltu(T3, T4, "web_mix_done");
        a.li(A1, mix.purchase_q);
        a.label("web_mix_done");
    } else {
        a.li(A1, 0);
    }
    call_php(a);
    a.push(Instr::Work { rs1: 0, imm: respond });
    a.push(Instr::Ld { rd: T0, rs1: S1, imm: 0 });
    a.push(Instr::Addi { rd: T0, rs1: T0, imm: 1 });
    a.push(Instr::St { rs1: S1, rs2: T0, imm: 0 });
    a.j("web_loop");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_bodies_assemble() {
        let p = OltpParams::default();
        let mut a = Asm::new();
        emit_web_main(&mut a, &p, &|a| {
            a.jal(RA, "php_render");
        });
        emit_php_render(&mut a, &p, &|a| {
            a.jal(RA, "db_query");
        });
        emit_db_query(&mut a, &p);
        let prog = a.finish();
        assert!(prog.labels.contains_key("db_query"));
        assert_eq!(prog.label("php_render") % 64, 0);
    }
}
