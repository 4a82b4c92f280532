//! Dynamic instruction records with ground-truth memory dependences.

use nosq_isa::exec::store_memory_bits;
use nosq_isa::{ExecRecord, Inst, InstClass, INST_BYTES};

/// How completely the youngest producing store covers a load's bytes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Coverage {
    /// The single youngest store wrote every byte the load reads;
    /// bypassable by SMB (possibly with a shift, paper §3.5).
    Full,
    /// The load's bytes come from more than one store (or partly from
    /// memory): the narrow-store/wide-load case SMB cannot bypass
    /// because it cannot combine values from multiple sources
    /// (paper §3.3, "Delay").
    Partial,
}

/// Ground truth about the store that produced a load's value.
///
/// Both distances are `u32` to keep [`DynInst`] small. A distance that
/// does not fit saturates at `u32::MAX`; it is never truncated. Readers
/// compare distances only against window bounds (the ROB, at most 256
/// entries; the predictor's 63-store distance field) or turn them into
/// SSNs that they compare against in-flight SSNs. A producer `u32::MAX`
/// or more stores or instructions back is outside every window and long
/// committed either way, so a saturated value gives the same answers as
/// the exact one.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemDep {
    /// Distance in dynamic stores: 0 means the most recent store renamed
    /// before the load (paper §3.1, `ld.distbyp = SSNrename - ld.SSNbyp`
    /// with 1-based SSNs). Saturating.
    pub store_distance: u32,
    /// Distance in dynamic instructions (`load.seq - store.seq`).
    /// Saturating.
    pub inst_distance: u32,
    /// Whether that store supplies all of the load's bytes.
    pub coverage: Coverage,
    /// `load.addr - store.addr` in bytes; meaningful for
    /// [`Coverage::Full`] (the shift amount SMB's shift&mask op needs).
    pub shift: u8,
    /// The producing store's access width in bytes.
    pub store_width: u8,
    /// Whether the producing store was an `sts` (float32 conversion).
    pub store_float32: bool,
}

impl MemDep {
    /// Converts an exact 64-bit distance to its stored form, saturating
    /// at `u32::MAX`.
    pub(crate) fn saturate(distance: u64) -> u32 {
        u32::try_from(distance).unwrap_or(u32::MAX)
    }
}

/// One dynamic instruction as seen by the timing models.
///
/// This is the record a [`TraceBuffer`](crate::TraceBuffer) stores, so
/// `size_of::<DynInst>()` (48 bytes) is a recorded trace's cost per
/// instruction. It keeps only what the timing models cannot derive from
/// the rest; the tracer packs each [`ExecRecord`] into one. Two facts
/// live elsewhere:
///
/// * the static instruction is the program's at [`pc`](DynInst::pc);
///   [`inst`](DynInst::inst) reads it from
///   [`Program::code`](nosq_isa::Program::code);
/// * the dynamic sequence number is the record's position in its
///   stream (0-based, correct path only).
///
/// The derived parts of an `ExecRecord` are methods:
///
/// * [`load_value`](DynInst::load_value) and
///   [`store_data`](DynInst::store_data) read [`value`](DynInst::value);
/// * [`store_mem_bits`](DynInst::store_mem_bits) applies the store's
///   width truncation or `sts` conversion to `value`;
/// * [`next_pc`](DynInst::next_pc) follows from the instruction, the
///   branch outcome and, for a return, `value`.
///
/// The producing store of a load is not stored either: its sequence
/// number is the load's minus `inst_distance` and its SSN is
/// [`dep_ssn`](DynInst::dep_ssn), exact unless the distances saturated
/// (see [`MemDep`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DynInst {
    /// PC of the instruction.
    pub pc: u64,
    /// Effective address (memory operations only, else 0).
    pub addr: u64,
    /// The one value no instruction needs two of: a load's
    /// architecturally-correct result (post-extension), a store's raw
    /// data-register value, or a return's target. 0 for everything
    /// else.
    pub value: u64,
    /// Number of stores that precede this instruction in the dynamic
    /// stream. For a store this is also its 0-based store index; its SSN
    /// is `stores_before + 1`.
    pub stores_before: u64,
    /// For loads: the youngest older store writing any byte read, if any.
    pub mem_dep: Option<MemDep>,
    /// Branch outcome (control instructions only; unconditional
    /// transfers report `true`).
    pub taken: bool,
    /// Cached instruction class.
    pub class: InstClass,
}

impl DynInst {
    /// Packs the architectural record of the dynamic instruction that
    /// follows `stores_before` stores. `mem_dep` starts `None`; the
    /// tracer fills it in for loads.
    pub(crate) fn pack(stores_before: u64, rec: &ExecRecord) -> DynInst {
        let value = match rec.inst {
            Inst::Load { .. } => rec.load_value,
            Inst::Store { .. } => rec.store_data,
            Inst::Ret { .. } => rec.next_pc,
            _ => 0,
        };
        let d = DynInst {
            pc: rec.pc,
            addr: rec.addr,
            value,
            stores_before,
            mem_dep: None,
            taken: rec.taken,
            class: rec.inst.class(),
        };
        debug_assert_eq!(
            d.load_value(),
            rec.load_value,
            "load value at {:#x}",
            rec.pc
        );
        debug_assert_eq!(
            d.store_data(),
            rec.store_data,
            "store data at {:#x}",
            rec.pc
        );
        debug_assert_eq!(
            d.store_mem_bits(&rec.inst),
            rec.store_mem_bits,
            "store bits at {:#x}",
            rec.pc
        );
        debug_assert_eq!(
            d.next_pc(&rec.inst),
            rec.next_pc,
            "next pc at {:#x}",
            rec.pc
        );
        d
    }

    /// The static instruction, read from `code`, the recorded program's
    /// [`Program::code`](nosq_isa::Program::code).
    #[inline]
    pub fn inst<'c>(&self, code: &'c [Inst]) -> &'c Inst {
        &code[(self.pc / INST_BYTES) as usize]
    }

    /// Architecturally-correct load result, post-extension (loads only,
    /// else 0).
    #[inline]
    pub fn load_value(&self) -> u64 {
        if self.class == InstClass::Load {
            self.value
        } else {
            0
        }
    }

    /// Raw data-register value (stores only, else 0): the value SMB's
    /// short-circuited register would carry.
    #[inline]
    pub fn store_data(&self) -> u64 {
        if self.class == InstClass::Store {
            self.value
        } else {
            0
        }
    }

    /// The low `width` bytes a store writes to memory (stores only, else
    /// 0); differs from [`store_data`](DynInst::store_data) for
    /// partial-word and `sts` stores. `inst` is this record's static
    /// instruction.
    #[inline]
    pub fn store_mem_bits(&self, inst: &Inst) -> u64 {
        match *inst {
            Inst::Store { width, float32, .. } => store_memory_bits(self.value, width, float32),
            _ => 0,
        }
    }

    /// PC of the next dynamic instruction: a taken branch's, a jump's
    /// or a call's target, a return's [`value`](DynInst::value), a
    /// halt's own PC, and otherwise the fall-through. `inst` is this
    /// record's static instruction.
    #[inline]
    pub fn next_pc(&self, inst: &Inst) -> u64 {
        match *inst {
            Inst::Branch { target, .. } if self.taken => target,
            Inst::Jump { target } | Inst::Call { target, .. } => target,
            Inst::Ret { .. } => self.value,
            Inst::Halt => self.pc,
            _ => self.pc + INST_BYTES,
        }
    }

    /// This instruction's SSN if it is a store (1-based, as in the paper's
    /// SVW scheme).
    pub fn store_ssn(&self) -> Option<u64> {
        (self.class == InstClass::Store).then_some(self.stores_before + 1)
    }

    /// For a load with a dependence, the SSN of the producing store.
    pub fn dep_ssn(&self) -> Option<u64> {
        self.mem_dep
            .map(|d| self.stores_before - u64::from(d.store_distance))
    }

    /// Whether this load's communication involves a partial word on
    /// either side (paper Table 5's "partial-word" column: either the
    /// load or the store is less than eight bytes wide). `inst` is this
    /// record's static instruction.
    pub fn is_partial_word_comm(&self, inst: &Inst) -> bool {
        match (&self.mem_dep, inst.mem_width()) {
            (Some(dep), Some(w)) => dep.store_width < 8 || w.bytes() < 8,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nosq_isa::{Extension, MemWidth, Reg};

    fn load_inst(width: MemWidth) -> Inst {
        Inst::Load {
            rd: Reg::int(1),
            base: Reg::int(2),
            ofs: 0,
            width,
            ext: Extension::Zero,
        }
    }

    fn load(stores_before: u64, mem_dep: Option<MemDep>) -> DynInst {
        DynInst {
            pc: 0,
            addr: 0x100,
            value: 0,
            stores_before,
            mem_dep,
            taken: false,
            class: InstClass::Load,
        }
    }

    fn dep(store_distance: u32, inst_distance: u32, store_width: u8) -> MemDep {
        MemDep {
            store_distance,
            inst_distance,
            coverage: Coverage::Full,
            shift: 0,
            store_width,
            store_float32: false,
        }
    }

    #[test]
    fn record_stays_compact() {
        // Every byte here is paid once per recorded instruction: a field
        // that re-inflates the record must justify itself against this.
        assert!(
            std::mem::size_of::<DynInst>() <= 48,
            "DynInst grew to {} bytes",
            std::mem::size_of::<DynInst>()
        );
        assert!(std::mem::size_of::<Option<MemDep>>() <= 12);
    }

    #[test]
    fn ssn_is_one_based() {
        let inst = Inst::Store {
            data: Reg::int(1),
            base: Reg::int(2),
            ofs: 0,
            width: MemWidth::B8,
            float32: false,
        };
        let store = DynInst {
            pc: 0,
            addr: 0x100,
            value: 7,
            stores_before: 0,
            mem_dep: None,
            taken: false,
            class: InstClass::Store,
        };
        assert_eq!(store.store_ssn(), Some(1));
        assert_eq!(store.store_data(), 7);
        assert_eq!(store.store_mem_bits(&inst), 7);
        assert_eq!(store.load_value(), 0);
    }

    #[test]
    fn dep_ssn_from_distance() {
        let load = load(7, Some(dep(2, 7, 8)));
        // 7 stores renamed; distance 2 => SSN 5.
        assert_eq!(load.dep_ssn(), Some(5));
    }

    #[test]
    fn partial_word_flag_checks_both_sides() {
        let (wide, narrow) = (load_inst(MemWidth::B8), load_inst(MemWidth::B2));
        let mut load = load(1, Some(dep(0, 1, 8)));
        assert!(!load.is_partial_word_comm(&wide));
        load.mem_dep.as_mut().unwrap().store_width = 4;
        assert!(load.is_partial_word_comm(&wide));
        load.mem_dep.as_mut().unwrap().store_width = 8;
        assert!(load.is_partial_word_comm(&narrow));
        load.mem_dep = None;
        assert!(!load.is_partial_word_comm(&narrow));
    }

    /// Steps an [`ArchState`](nosq_isa::ArchState) beside the tracer and
    /// checks that every packed record reproduces its `ExecRecord`,
    /// derived fields included. Returns how many instructions were
    /// returns, halts, not-taken branches and `sts` stores.
    fn check_derivations(prog: &nosq_isa::Program, budget: u64) -> [u64; 4] {
        let mut arch = nosq_isa::ArchState::new(prog);
        let mut seen = [0u64; 4];
        let mut n = 0u64;
        for d in crate::Tracer::new(prog, budget) {
            let rec = arch.step(prog).expect("tracer and executor agree");
            let inst = d.inst(prog.code());
            assert_eq!(
                (d.pc, *inst, d.addr, d.taken),
                (rec.pc, rec.inst, rec.addr, rec.taken)
            );
            assert_eq!(d.class, rec.inst.class());
            assert_eq!(d.load_value(), rec.load_value, "load value of {d:?}");
            assert_eq!(d.store_data(), rec.store_data, "store data of {d:?}");
            assert_eq!(
                d.store_mem_bits(inst),
                rec.store_mem_bits,
                "memory bits of {d:?}"
            );
            assert_eq!(d.next_pc(inst), rec.next_pc, "next pc of {d:?}");
            match inst {
                Inst::Ret { .. } => seen[0] += 1,
                Inst::Halt => seen[1] += 1,
                Inst::Branch { .. } if !d.taken => seen[2] += 1,
                Inst::Store { float32: true, .. } => seen[3] += 1,
                _ => {}
            }
            n += 1;
        }
        assert!(n > 0);
        seen
    }

    #[test]
    fn derived_fields_match_the_architectural_stream() {
        use crate::profiles::Profile;
        use crate::synth::{synthesize, synthesize_iters};
        let mut seen = [0u64; 4];
        // The four bench profiles, plus mesa.o: none of the four traces
        // an `sts` store, whose packed form needs the float conversion.
        for name in ["gzip", "gcc", "applu", "gsm.e", "mesa.o"] {
            let profile = Profile::by_name(name).unwrap();
            let counts = check_derivations(&synthesize(profile, 42), 50_000);
            seen.iter_mut().zip(counts).for_each(|(s, c)| *s += c);
        }
        // A counted variant runs into its `Halt`.
        let profile = Profile::by_name("gsm.e").unwrap();
        let counts = check_derivations(&synthesize_iters(profile, 42, Some(1)), 2_000_000);
        seen.iter_mut().zip(counts).for_each(|(s, c)| *s += c);
        let [rets, halts, not_taken, sts] = seen;
        assert!(rets > 0, "no returns traced");
        assert_eq!(halts, 1, "the counted variant must halt");
        assert!(not_taken > 0, "no not-taken branches traced");
        assert!(sts > 0, "no sts stores traced");
    }

    #[test]
    fn distances_saturate_instead_of_truncating() {
        let max = u64::from(u32::MAX);
        assert_eq!(MemDep::saturate(0), 0);
        assert_eq!(MemDep::saturate(max - 1), u32::MAX - 1);
        assert_eq!(MemDep::saturate(max), u32::MAX);
        // Truncation would wrap this to 0 — "the most recent store".
        assert_eq!(MemDep::saturate(max + 1), u32::MAX);
        assert_eq!(MemDep::saturate(u64::MAX), u32::MAX);
        // A saturated distance still names a store far behind every
        // in-flight window: SSN 5 instead of the exact 3, with
        // `u32::MAX + 5` stores renamed.
        let saturated = dep(MemDep::saturate(max + 2), u32::MAX, 8);
        let far = load(max + 5, Some(saturated));
        assert_eq!(far.dep_ssn(), Some(5));
    }
}
