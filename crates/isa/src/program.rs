//! Programs and the assembler used to construct them.

use crate::inst::{AluKind, Cond, Extension, Inst, MemWidth, Reg, Src};
use crate::mem::Memory;
use crate::INST_BYTES;

/// A forward-referenceable code label handed out by [`Assembler::label`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Label(usize);

/// An executable program: an instruction image plus initial data segments.
#[derive(Clone, Debug)]
pub struct Program {
    insts: Vec<Inst>,
    data: Vec<(u64, Vec<u8>)>,
}

impl Program {
    /// The instruction at byte address `pc`, if mapped.
    pub fn inst_at(&self, pc: u64) -> Option<&Inst> {
        if !pc.is_multiple_of(INST_BYTES) {
            return None;
        }
        self.insts.get((pc / INST_BYTES) as usize)
    }

    /// The instruction image, indexed by `pc / INST_BYTES`: the static
    /// instruction at an aligned `pc` is `code()[(pc / INST_BYTES) as
    /// usize]`. Hot paths that already hold a valid PC index this slice
    /// instead of paying [`inst_at`](Program::inst_at)'s alignment check
    /// and `Option`.
    pub fn code(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Entry PC (always 0).
    pub fn entry(&self) -> u64 {
        0
    }

    /// Builds the initial memory image from the program's data segments.
    pub fn initial_memory(&self) -> Memory {
        let mut mem = Memory::new();
        for (addr, bytes) in &self.data {
            mem.write_bytes(*addr, bytes);
        }
        mem
    }

    /// Iterates over static instructions with their PCs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Inst)> {
        self.insts
            .iter()
            .enumerate()
            .map(|(i, inst)| (i as u64 * INST_BYTES, inst))
    }
}

/// Incremental program builder with label fixups.
///
/// Emit methods append one instruction each. Branch targets may reference
/// labels bound later; [`Assembler::finish`] patches them.
///
/// ```
/// use nosq_isa::{Assembler, Reg, Cond};
/// let mut asm = Assembler::new();
/// let r1 = Reg::int(1);
/// asm.li(r1, 3);
/// let top = asm.label();
/// asm.bind(top);
/// asm.addi(r1, r1, -1);
/// asm.branch(Cond::Ne, r1, Reg::ZERO, top);
/// asm.halt();
/// let prog = asm.finish();
/// assert_eq!(prog.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct Assembler {
    insts: Vec<Inst>,
    labels: Vec<Option<u64>>,
    fixups: Vec<(usize, Label)>,
    data: Vec<(u64, Vec<u8>)>,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Current PC (address of the next emitted instruction).
    pub fn here(&self) -> u64 {
        self.insts.len() as u64 * INST_BYTES
    }

    /// Allocates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current PC.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(
            self.labels[label.0].is_none(),
            "label bound twice at pc {:#x}",
            self.here()
        );
        self.labels[label.0] = Some(self.here());
    }

    /// Adds an initial data segment.
    pub fn data_bytes(&mut self, addr: u64, bytes: Vec<u8>) {
        self.data.push((addr, bytes));
    }

    /// Adds an initial data segment of little-endian u64 words.
    pub fn data_u64s(&mut self, addr: u64, words: &[u64]) {
        let mut bytes = Vec::with_capacity(words.len() * 8);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        self.data.push((addr, bytes));
    }

    fn emit(&mut self, inst: Inst) {
        self.insts.push(inst);
    }

    /// Emits a raw instruction.
    pub fn inst(&mut self, inst: Inst) {
        self.emit(inst);
    }

    /// `rd = ra <kind> rb`.
    pub fn alu(&mut self, kind: AluKind, rd: Reg, ra: Reg, rb: Reg) {
        self.emit(Inst::Alu {
            kind,
            rd,
            ra,
            src: Src::Reg(rb),
        });
    }

    /// `rd = ra <kind> imm`.
    pub fn alui(&mut self, kind: AluKind, rd: Reg, ra: Reg, imm: i64) {
        self.emit(Inst::Alu {
            kind,
            rd,
            ra,
            src: Src::Imm(imm),
        });
    }

    /// `rd = ra + rb`.
    pub fn add(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.alu(AluKind::Add, rd, ra, rb);
    }

    /// `rd = ra + imm`.
    pub fn addi(&mut self, rd: Reg, ra: Reg, imm: i64) {
        self.alui(AluKind::Add, rd, ra, imm);
    }

    /// `rd = ra - rb`.
    pub fn sub(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.alu(AluKind::Sub, rd, ra, rb);
    }

    /// `rd = ra * rb` (complex pipe).
    pub fn mul(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.alu(AluKind::Mul, rd, ra, rb);
    }

    /// `rd = ra & imm`.
    pub fn andi(&mut self, rd: Reg, ra: Reg, imm: i64) {
        self.alui(AluKind::And, rd, ra, imm);
    }

    /// `rd = ra ^ rb`.
    pub fn xor(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.alu(AluKind::Xor, rd, ra, rb);
    }

    /// `rd = ra << imm`.
    pub fn shli(&mut self, rd: Reg, ra: Reg, imm: i64) {
        self.alui(AluKind::Shl, rd, ra, imm);
    }

    /// `rd = ra >> imm` (logical).
    pub fn shri(&mut self, rd: Reg, ra: Reg, imm: i64) {
        self.alui(AluKind::Shr, rd, ra, imm);
    }

    /// Loads a 64-bit immediate: `rd = imm`.
    pub fn li(&mut self, rd: Reg, imm: i64) {
        self.alui(AluKind::Add, rd, Reg::ZERO, imm);
    }

    /// Register move: `rd = ra`.
    pub fn mov(&mut self, rd: Reg, ra: Reg) {
        self.alui(AluKind::Add, rd, ra, 0);
    }

    /// binary64 add.
    pub fn fadd(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.alu(AluKind::FAdd, rd, ra, rb);
    }

    /// binary64 multiply.
    pub fn fmul(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.alu(AluKind::FMul, rd, ra, rb);
    }

    /// `rd = extend(mem[base + ofs])`.
    pub fn load(&mut self, rd: Reg, base: Reg, ofs: i32, width: MemWidth, ext: Extension) {
        self.emit(Inst::Load {
            rd,
            base,
            ofs,
            width,
            ext,
        });
    }

    /// `mem[base + ofs] = truncate(data)`.
    pub fn store(&mut self, data: Reg, base: Reg, ofs: i32, width: MemWidth) {
        self.emit(Inst::Store {
            data,
            base,
            ofs,
            width,
            float32: false,
        });
    }

    /// Alpha `lds`: loads binary32 memory into a binary64 register.
    pub fn lds(&mut self, rd: Reg, base: Reg, ofs: i32) {
        self.emit(Inst::Load {
            rd,
            base,
            ofs,
            width: MemWidth::B4,
            ext: Extension::Float32,
        });
    }

    /// Alpha `sts`: stores a binary64 register as binary32 memory.
    pub fn sts(&mut self, data: Reg, base: Reg, ofs: i32) {
        self.emit(Inst::Store {
            data,
            base,
            ofs,
            width: MemWidth::B4,
            float32: true,
        });
    }

    /// Conditional branch to a label.
    pub fn branch(&mut self, cond: Cond, ra: Reg, rb: Reg, target: Label) {
        self.fixups.push((self.insts.len(), target));
        self.emit(Inst::Branch {
            cond,
            ra,
            rb,
            target: 0,
        });
    }

    /// Unconditional jump to a label.
    pub fn jump(&mut self, target: Label) {
        self.fixups.push((self.insts.len(), target));
        self.emit(Inst::Jump { target: 0 });
    }

    /// Direct call to a label, linking through [`Reg::LINK`].
    pub fn call(&mut self, target: Label) {
        self.fixups.push((self.insts.len(), target));
        self.emit(Inst::Call {
            target: 0,
            link: Reg::LINK,
        });
    }

    /// Direct call to a label linking through an explicit register (for
    /// nested calls that must not clobber [`Reg::LINK`]).
    pub fn call_linked(&mut self, target: Label, link: Reg) {
        self.fixups.push((self.insts.len(), target));
        self.emit(Inst::Call { target: 0, link });
    }

    /// Indirect return through [`Reg::LINK`].
    pub fn ret(&mut self) {
        self.emit(Inst::Ret { reg: Reg::LINK });
    }

    /// Indirect return through an explicit register.
    pub fn ret_reg(&mut self, reg: Reg) {
        self.emit(Inst::Ret { reg });
    }

    /// Terminates the program.
    pub fn halt(&mut self) {
        self.emit(Inst::Halt);
    }

    /// Resolves labels and produces the final [`Program`].
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    pub fn finish(mut self) -> Program {
        for (idx, label) in &self.fixups {
            let pc = self.labels[label.0]
                .unwrap_or_else(|| panic!("unbound label {:?} referenced at inst {idx}", label));
            match &mut self.insts[*idx] {
                Inst::Branch { target, .. } | Inst::Jump { target } | Inst::Call { target, .. } => {
                    *target = pc
                }
                other => panic!("fixup on non-control instruction {other:?}"),
            }
        }
        Program {
            insts: self.insts,
            data: self.data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_label_is_patched() {
        let mut asm = Assembler::new();
        let skip = asm.label();
        asm.jump(skip);
        asm.li(Reg::int(0), 1);
        asm.bind(skip);
        asm.halt();
        let prog = asm.finish();
        match prog.inst_at(0) {
            Some(Inst::Jump { target }) => assert_eq!(*target, 2 * INST_BYTES),
            other => panic!("expected jump, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut asm = Assembler::new();
        let l = asm.label();
        asm.jump(l);
        let _ = asm.finish();
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut asm = Assembler::new();
        let l = asm.label();
        asm.bind(l);
        asm.bind(l);
    }

    #[test]
    fn data_segments_populate_memory() {
        let mut asm = Assembler::new();
        asm.data_u64s(0x1000, &[1, 2, 3]);
        asm.halt();
        let prog = asm.finish();
        let mem = prog.initial_memory();
        assert_eq!(mem.read(0x1000, 8), 1);
        assert_eq!(mem.read(0x1008, 8), 2);
        assert_eq!(mem.read(0x1010, 8), 3);
    }

    #[test]
    fn inst_at_rejects_unaligned_pc() {
        let mut asm = Assembler::new();
        asm.halt();
        let prog = asm.finish();
        assert!(prog.inst_at(1).is_none());
        assert!(prog.inst_at(0).is_some());
        assert!(prog.inst_at(4).is_none());
    }

    #[test]
    fn iter_yields_pcs() {
        let mut asm = Assembler::new();
        asm.li(Reg::int(0), 1);
        asm.halt();
        let prog = asm.finish();
        let pcs: Vec<u64> = prog.iter().map(|(pc, _)| pc).collect();
        assert_eq!(pcs, vec![0, 4]);
    }
}
