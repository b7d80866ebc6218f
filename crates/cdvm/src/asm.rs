//! A small assembler with labels and load-time relocations.
//!
//! The assembler produces position-independent code: branches and `jal` are
//! PC-relative, and 64-bit addresses are materialized through
//! `Movi`+`Movhi` pairs that can be patched after placement. This mirrors
//! how dIPC generates proxies: "It then copies the template into the proxy
//! location, and adjusts the template's values via symbol relocation"
//! (§6.1.1) — [`patch_abs64`] is that relocation.

use std::collections::HashMap;

use crate::isa::{CapReg, Instr, Reg, INSTR_BYTES};

/// Kind of a load-time relocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelocKind {
    /// A `Movi`+`Movhi` pair materializing a 64-bit absolute address.
    Abs64,
}

/// A relocation record emitted by [`Asm::finish`].
#[derive(Clone, Debug, PartialEq)]
pub struct Reloc {
    /// Byte offset of the `Movi` instruction within the program.
    pub offset: u64,
    /// Symbol the address refers to.
    pub symbol: String,
    /// Relocation kind.
    pub kind: RelocKind,
    /// Constant added to the symbol's address.
    pub addend: i64,
}

/// Assembled output.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// Raw encoded instructions.
    pub bytes: Vec<u8>,
    /// Unresolved external relocations.
    pub relocs: Vec<Reloc>,
    /// Label name → byte offset.
    pub labels: HashMap<String, u64>,
}

impl Program {
    /// Resolves a label to a byte offset.
    pub fn label(&self, name: &str) -> u64 {
        *self.labels.get(name).unwrap_or_else(|| panic!("unknown label {name}"))
    }
}

#[derive(Clone, Debug)]
enum Fixup {
    /// Patch the imm of the instruction at `at` with the PC-relative byte
    /// distance to `label`.
    PcRel { at: usize, label: String },
}

/// The assembler.
///
/// ```
/// use cdvm::isa::reg::*;
/// use cdvm::{Asm, Instr};
///
/// let mut a = Asm::new();
/// a.label("main");
/// a.li(A0, 10);
/// a.label("loop");
/// a.push(Instr::Addi { rd: A0, rs1: A0, imm: -1 });
/// a.bne(A0, ZERO, "loop");
/// a.push(Instr::Halt);
/// let prog = a.finish();
/// assert_eq!(prog.label("main"), 0);
/// assert!(prog.bytes.len() % 8 == 0);
/// ```
#[derive(Default)]
pub struct Asm {
    instrs: Vec<Instr>,
    labels: HashMap<String, u64>,
    fixups: Vec<Fixup>,
    relocs: Vec<Reloc>,
}

impl Asm {
    /// Creates an empty assembler.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, i: Instr) -> &mut Self {
        self.instrs.push(i);
        self
    }

    /// Current byte offset.
    pub fn here(&self) -> u64 {
        self.instrs.len() as u64 * INSTR_BYTES
    }

    /// Defines a label at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        let prev = self.labels.insert(name.to_string(), self.here());
        assert!(prev.is_none(), "duplicate label {name}");
        self
    }

    /// Pads with `Nop` until the offset is `align`-byte aligned (e.g. 64 for
    /// CODOMs entry points).
    pub fn align(&mut self, align: u64) -> &mut Self {
        assert!(align.is_multiple_of(INSTR_BYTES));
        while !self.here().is_multiple_of(align) {
            self.push(Instr::Nop);
        }
        self
    }

    /// Loads an arbitrary 64-bit constant into `rd` (1 or 2 instructions).
    pub fn li(&mut self, rd: Reg, v: u64) -> &mut Self {
        let as_i32 = v as i64;
        if (i32::MIN as i64..=i32::MAX as i64).contains(&as_i32) && (as_i32 as u64) == v {
            self.push(Instr::Movi { rd, imm: as_i32 as i32 });
        } else {
            self.push(Instr::Movi { rd, imm: (v & 0xffff_ffff) as u32 as i32 });
            // Movi sign-extends; clear the high half deterministically.
            self.push(Instr::Movhi { rd, imm: (v >> 32) as u32 as i32 });
        }
        self
    }

    /// Emits `li a7, nr; ecall`: system call `nr`, arguments already in
    /// `a0`–`a5` (clobbers `a7`).
    pub fn syscall(&mut self, nr: u64) -> &mut Self {
        self.li(crate::isa::reg::A7, nr);
        self.push(Instr::Ecall)
    }

    /// Loads the (unknown) address of `symbol` into `rd`, emitting a
    /// patchable `Movi`+`Movhi` pair and recording a relocation.
    pub fn li_sym(&mut self, rd: Reg, symbol: &str) -> &mut Self {
        self.li_sym_add(rd, symbol, 0)
    }

    /// Like [`Asm::li_sym`] with an addend.
    pub fn li_sym_add(&mut self, rd: Reg, symbol: &str, addend: i64) -> &mut Self {
        self.relocs.push(Reloc {
            offset: self.here(),
            symbol: symbol.to_string(),
            kind: RelocKind::Abs64,
            addend,
        });
        self.push(Instr::Movi { rd, imm: 0 });
        self.push(Instr::Movhi { rd, imm: 0 });
        self
    }

    /// PC-relative jump-and-link to a label.
    pub fn jal(&mut self, rd: Reg, label: &str) -> &mut Self {
        self.fixups.push(Fixup::PcRel { at: self.instrs.len(), label: label.to_string() });
        self.push(Instr::Jal { rd, imm: 0 });
        self
    }

    /// Unconditional PC-relative jump to a label.
    pub fn j(&mut self, label: &str) -> &mut Self {
        self.jal(0, label)
    }

    /// Conditional branch to a label.
    pub fn branch(&mut self, kind: BranchKind, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.fixups.push(Fixup::PcRel { at: self.instrs.len(), label: label.to_string() });
        let imm = 0;
        self.push(match kind {
            BranchKind::Eq => Instr::Beq { rs1, rs2, imm },
            BranchKind::Ne => Instr::Bne { rs1, rs2, imm },
            BranchKind::Ltu => Instr::Bltu { rs1, rs2, imm },
            BranchKind::Geu => Instr::Bgeu { rs1, rs2, imm },
        });
        self
    }

    /// `beq rs1, rs2, label`.
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(BranchKind::Eq, rs1, rs2, label)
    }

    /// `bne rs1, rs2, label`.
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(BranchKind::Ne, rs1, rs2, label)
    }

    /// `bltu rs1, rs2, label`.
    pub fn bltu(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(BranchKind::Ltu, rs1, rs2, label)
    }

    /// `bgeu rs1, rs2, label`.
    pub fn bgeu(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(BranchKind::Geu, rs1, rs2, label)
    }

    /// `ret` — `jalr x0, ra, 0`.
    pub fn ret(&mut self) -> &mut Self {
        self.push(Instr::Jalr { rd: 0, rs1: crate::isa::reg::RA, imm: 0 })
    }

    /// Call through a register: `jalr ra, rs1, 0`.
    pub fn call_reg(&mut self, rs1: Reg) -> &mut Self {
        self.push(Instr::Jalr { rd: crate::isa::reg::RA, rs1, imm: 0 })
    }

    /// Resolves fixups and produces the program.
    pub fn finish(mut self) -> Program {
        for fixup in &self.fixups {
            match fixup {
                Fixup::PcRel { at, label } => {
                    let target = *self
                        .labels
                        .get(label)
                        .unwrap_or_else(|| panic!("undefined label {label}"));
                    let from = *at as u64 * INSTR_BYTES;
                    let delta = target as i64 - from as i64;
                    let imm = i32::try_from(delta).expect("branch target out of range");
                    use Instr::*;
                    match &mut self.instrs[*at] {
                        Jal { imm: i, .. }
                        | Beq { imm: i, .. }
                        | Bne { imm: i, .. }
                        | Bltu { imm: i, .. }
                        | Bgeu { imm: i, .. } => *i = imm,
                        other => panic!("fixup on non-branch {other:?}"),
                    }
                }
            }
        }
        let mut bytes = Vec::with_capacity(self.instrs.len() * 8);
        for i in &self.instrs {
            bytes.extend_from_slice(&i.encode());
        }
        Program { bytes, relocs: self.relocs, labels: self.labels }
    }
}

/// Branch condition selector for [`Asm::branch`].
#[derive(Clone, Copy, Debug)]
pub enum BranchKind {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

/// Patches a `Movi`+`Movhi` pair at byte `offset` in `code` so the target
/// register receives `value` (the Abs64 relocation).
pub fn patch_abs64(code: &mut [u8], offset: usize, value: u64) {
    let lo = (value & 0xffff_ffff) as u32;
    let hi = (value >> 32) as u32;
    assert_eq!(code[offset], 1, "expected Movi at relocation site");
    assert_eq!(code[offset + 8], 2, "expected Movhi at relocation site");
    code[offset + 4..offset + 8].copy_from_slice(&lo.to_le_bytes());
    code[offset + 12..offset + 16].copy_from_slice(&hi.to_le_bytes());
}

/// Convenience: capability-register typed wrappers.
impl Asm {
    /// `cap_apl_take crd, [rs1, rs1+rs2), imm=perm|async`.
    pub fn cap_apl_take(&mut self, crd: CapReg, rs1: Reg, rs2: Reg, imm: i32) -> &mut Self {
        self.push(Instr::CapAplTake { crd, rs1, rs2, imm })
    }

    /// `cap_push crs`.
    pub fn cap_push(&mut self, crs: CapReg) -> &mut Self {
        self.push(Instr::CapPush { crs })
    }

    /// `cap_pop crd`.
    pub fn cap_pop(&mut self, crd: CapReg) -> &mut Self {
        self.push(Instr::CapPop { crd })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::reg::*;

    #[test]
    fn labels_and_branches() {
        let mut a = Asm::new();
        a.label("start");
        a.li(A0, 10);
        a.label("loop");
        a.push(Instr::Addi { rd: A0, rs1: A0, imm: -1 });
        a.bne(A0, ZERO, "loop");
        a.push(Instr::Halt);
        let p = a.finish();
        assert_eq!(p.label("start"), 0);
        // li(10) is a single Movi.
        assert_eq!(p.label("loop"), 8);
        // The bne at offset 16 must branch back -8.
        let instr = Instr::decode(&p.bytes[16..24].try_into().unwrap()).unwrap();
        assert_eq!(instr, Instr::Bne { rs1: A0, rs2: ZERO, imm: -8 });
    }

    #[test]
    fn forward_branch() {
        let mut a = Asm::new();
        a.beq(A0, A1, "out");
        a.push(Instr::Nop);
        a.label("out");
        a.push(Instr::Halt);
        let p = a.finish();
        let instr = Instr::decode(&p.bytes[0..8].try_into().unwrap()).unwrap();
        assert_eq!(instr, Instr::Beq { rs1: A0, rs2: A1, imm: 16 });
    }

    #[test]
    fn li_small_is_one_instr() {
        let mut a = Asm::new();
        a.li(A0, 42);
        a.li(A1, -1i64 as u64);
        assert_eq!(a.here(), 16, "both fit in a single Movi");
    }

    #[test]
    fn li_large_is_pair() {
        let mut a = Asm::new();
        a.li(A0, 0x1234_5678_9abc_def0);
        let p = a.finish();
        assert_eq!(p.bytes.len(), 16);
    }

    #[test]
    fn reloc_and_patch() {
        let mut a = Asm::new();
        a.li_sym(A0, "query");
        a.push(Instr::Halt);
        let mut p = a.finish();
        assert_eq!(p.relocs.len(), 1);
        let r = p.relocs[0].clone();
        assert_eq!(r.symbol, "query");
        patch_abs64(&mut p.bytes, r.offset as usize, 0xdead_beef_1234_5678);
        // Decode the pair and verify the immediate halves.
        let movi = Instr::decode(&p.bytes[0..8].try_into().unwrap()).unwrap();
        let movhi = Instr::decode(&p.bytes[8..16].try_into().unwrap()).unwrap();
        assert_eq!(movi, Instr::Movi { rd: A0, imm: 0x1234_5678 });
        assert_eq!(movhi, Instr::Movhi { rd: A0, imm: 0xdead_beefu32 as i32 });
    }

    #[test]
    fn align_pads_with_nops() {
        let mut a = Asm::new();
        a.push(Instr::Nop);
        a.align(64);
        assert_eq!(a.here(), 64);
        a.align(64);
        assert_eq!(a.here(), 64, "already aligned is a no-op");
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_label_panics() {
        let mut a = Asm::new();
        a.label("x").label("x");
    }

    #[test]
    #[should_panic(expected = "undefined label")]
    fn undefined_label_panics() {
        let mut a = Asm::new();
        a.j("nowhere");
        a.finish();
    }
}
