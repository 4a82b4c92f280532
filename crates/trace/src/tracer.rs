//! Streaming functional tracer with online dependence analysis.

use nosq_isa::{ArchState, InstClass, Program};

use crate::lastwriter::{ByteWriter, LastWriterMap};
use crate::record::{Coverage, DynInst, MemDep};

/// The tracer's last-writer map slot: owned by default, borrowed from a
/// reusable arena via [`Tracer::with_arena`].
enum MapSlot<'m> {
    Owned(LastWriterMap),
    Borrowed(&'m mut LastWriterMap),
}

impl MapSlot<'_> {
    fn get(&self) -> &LastWriterMap {
        match self {
            MapSlot::Owned(m) => m,
            MapSlot::Borrowed(m) => m,
        }
    }

    fn get_mut(&mut self) -> &mut LastWriterMap {
        match self {
            MapSlot::Owned(m) => m,
            MapSlot::Borrowed(m) => m,
        }
    }
}

/// Streams the correct-path dynamic instruction sequence of a program,
/// annotating each load with its ground-truth producing store.
///
/// The tracer maintains a per-byte last-writer map (the paged,
/// epoch-stamped [`LastWriterMap`]), so it reports the youngest older
/// store writing any byte a load reads, the distance to it in dynamic
/// stores and instructions, whether it covers the whole load
/// ([`Coverage`]), and the byte shift — everything the bypassing
/// predictor's oracle variant and the verification logic need.
///
/// A tracer allocates its map internally by default; callers that trace
/// many programs back to back (the lab's campaign workers, the bench
/// harnesses) pass a persistent map through [`Tracer::with_arena`] so
/// each new trace starts with an O(1) epoch reset instead of fresh
/// allocations.
///
/// ```
/// use nosq_isa::{Assembler, Reg, MemWidth, Extension};
/// use nosq_trace::Tracer;
///
/// let mut asm = Assembler::new();
/// let (b, v) = (Reg::int(1), Reg::int(2));
/// asm.li(b, 0x1000);
/// asm.li(v, 7);
/// asm.store(v, b, 0, MemWidth::B8);
/// asm.load(v, b, 0, MemWidth::B8, Extension::Zero);
/// asm.halt();
/// let prog = asm.finish();
///
/// let insts: Vec<_> = Tracer::new(&prog, 100).collect();
/// let load = insts
///     .iter()
///     .find(|d| d.class == nosq_isa::InstClass::Load)
///     .unwrap();
/// let dep = load.mem_dep.unwrap();
/// assert_eq!(dep.store_distance, 0); // most recent store
/// assert_eq!(dep.inst_distance, 1);
/// ```
pub struct Tracer<'p> {
    program: &'p Program,
    state: ArchState,
    seq: u64,
    stores: u64,
    last_writer: MapSlot<'p>,
    max_insts: u64,
    error: Option<nosq_isa::ExecError>,
}

impl<'p> Tracer<'p> {
    /// Creates a tracer that yields at most `max_insts` dynamic
    /// instructions (the halt instruction, if reached, is yielded and
    /// ends the stream).
    pub fn new(program: &'p Program, max_insts: u64) -> Tracer<'p> {
        Tracer::build(program, max_insts, MapSlot::Owned(LastWriterMap::new()))
    }

    /// Creates a tracer that borrows a reusable [`LastWriterMap`]
    /// instead of allocating one. The map is [reset](LastWriterMap::reset)
    /// (O(1)) before tracing starts, so any previous program's writers
    /// are invisible; its page buffers are recycled.
    pub fn with_arena(
        program: &'p Program,
        max_insts: u64,
        map: &'p mut LastWriterMap,
    ) -> Tracer<'p> {
        map.reset();
        Tracer::build(program, max_insts, MapSlot::Borrowed(map))
    }

    fn build(program: &'p Program, max_insts: u64, last_writer: MapSlot<'p>) -> Tracer<'p> {
        Tracer {
            program,
            state: ArchState::new(program),
            seq: 0,
            stores: 0,
            last_writer,
            max_insts,
            error: None,
        }
    }

    /// The architectural state reached so far (for end-state checks).
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// An execution error, if one stopped the stream.
    pub fn error(&self) -> Option<&nosq_isa::ExecError> {
        self.error.as_ref()
    }
}

/// A recorded correct-path trace, replayable by any number of timing
/// simulations.
///
/// The dynamic stream a [`Tracer`] produces depends only on the program
/// and the instruction budget — never on the timing configuration — so
/// an evaluation sweeping several pipeline configurations over one
/// workload can pay for functional execution and dependence analysis
/// *once* and replay the buffer for every configuration
/// (`Simulator::replay*` in `nosq-core`). Replay is bit-identical to
/// live tracing by construction.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    insts: Vec<DynInst>,
    max_insts: u64,
}

impl TraceBuffer {
    /// Records the trace of `program`, up to `max_insts` dynamic
    /// instructions.
    pub fn record(program: &Program, max_insts: u64) -> TraceBuffer {
        let mut map = LastWriterMap::new();
        TraceBuffer::record_with_arena(program, max_insts, &mut map)
    }

    /// [`TraceBuffer::record`] reusing a persistent [`LastWriterMap`].
    pub fn record_with_arena(
        program: &Program,
        max_insts: u64,
        map: &mut LastWriterMap,
    ) -> TraceBuffer {
        // One up-front allocation (capped for huge budgets) instead of
        // doubling growth through tens of megabytes.
        let mut insts = Vec::with_capacity(max_insts.min(4_000_000) as usize);
        insts.extend(Tracer::with_arena(program, max_insts, map));
        TraceBuffer { insts, max_insts }
    }

    /// The recorded dynamic instructions; record `i` is dynamic
    /// instruction `i`, so a record's index is its sequence number.
    pub fn insts(&self) -> &[DynInst] {
        &self.insts
    }

    /// Number of recorded instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The budget the trace was recorded with.
    pub fn max_insts(&self) -> u64 {
        self.max_insts
    }

    /// Whether a replay bounded by `budget` instructions reproduces a
    /// live trace with that budget: true when the recording budget was
    /// at least `budget`, or the program halted before exhausting the
    /// recording budget (so the stream is complete).
    pub fn covers(&self, budget: u64) -> bool {
        self.max_insts >= budget || (self.insts.len() as u64) < self.max_insts
    }
}

impl Iterator for Tracer<'_> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        if self.state.halted() || self.seq >= self.max_insts || self.error.is_some() {
            return None;
        }
        let rec = match self.state.step(self.program) {
            Ok(rec) => rec,
            Err(e) => {
                self.error = Some(e);
                return None;
            }
        };
        let mut dyn_inst = DynInst::pack(self.stores, &rec);

        match dyn_inst.class {
            InstClass::Load => {
                let width = rec.inst.mem_width().expect("load has width").bytes();
                let scan = self.last_writer.get().scan(rec.addr, width);
                if let Some(dep) = scan.youngest {
                    let coverage = if scan.all_same && !scan.any_missing {
                        Coverage::Full
                    } else {
                        Coverage::Partial
                    };
                    dyn_inst.mem_dep = Some(MemDep {
                        // stores (count renamed) minus 1-based dep SSN:
                        store_distance: MemDep::saturate(self.stores - (dep.store_index + 1)),
                        inst_distance: MemDep::saturate(self.seq - dep.store_seq),
                        coverage,
                        shift: rec.addr.wrapping_sub(dep.store_addr) as u8,
                        store_width: dep.store_width,
                        store_float32: dep.store_float32,
                    });
                }
            }
            InstClass::Store => {
                let width = rec.inst.mem_width().expect("store has width").bytes();
                let float32 = matches!(rec.inst, nosq_isa::Inst::Store { float32: true, .. });
                let writer = ByteWriter {
                    store_seq: self.seq,
                    store_index: self.stores,
                    store_addr: rec.addr,
                    store_width: width as u8,
                    store_float32: float32,
                };
                self.last_writer
                    .get_mut()
                    .record_store(rec.addr, width, writer);
                self.stores += 1;
            }
            _ => {}
        }

        self.seq += 1;
        Some(dyn_inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Coverage;
    use nosq_isa::{Assembler, Extension, MemWidth, Reg};

    fn trace(asm: Assembler, max: u64) -> Vec<DynInst> {
        let prog = asm.finish();
        Tracer::new(&prog, max).collect()
    }

    #[test]
    fn store_distance_counts_intervening_stores() {
        let mut asm = Assembler::new();
        let (b, v) = (Reg::int(1), Reg::int(2));
        asm.li(b, 0x1000);
        asm.li(v, 7);
        asm.store(v, b, 0, MemWidth::B8); // SSN 1 — the dependence
        asm.store(v, b, 64, MemWidth::B8); // SSN 2
        asm.store(v, b, 128, MemWidth::B8); // SSN 3
        asm.load(v, b, 0, MemWidth::B8, Extension::Zero);
        asm.halt();
        let t = trace(asm, 100);
        let load = t.iter().find(|d| d.class == InstClass::Load).unwrap();
        let dep = load.mem_dep.unwrap();
        assert_eq!(dep.store_distance, 2); // two stores renamed since
        assert_eq!(load.dep_ssn(), Some(1));
    }

    #[test]
    fn multi_source_load_is_partial_coverage() {
        let mut asm = Assembler::new();
        let (b, v) = (Reg::int(1), Reg::int(2));
        asm.li(b, 0x1000);
        asm.li(v, 0x7f);
        asm.store(v, b, 0, MemWidth::B1);
        asm.store(v, b, 1, MemWidth::B1);
        asm.load(v, b, 0, MemWidth::B2, Extension::Zero);
        asm.halt();
        let t = trace(asm, 100);
        let load = t.iter().find(|d| d.class == InstClass::Load).unwrap();
        let dep = load.mem_dep.unwrap();
        assert_eq!(dep.coverage, Coverage::Partial);
        assert_eq!(dep.store_distance, 0); // youngest of the two
    }

    #[test]
    fn narrow_load_from_wide_store_has_shift() {
        let mut asm = Assembler::new();
        let (b, v) = (Reg::int(1), Reg::int(2));
        asm.li(b, 0x1000);
        asm.li(v, 0x1122_3344_5566_7788);
        asm.store(v, b, 0, MemWidth::B8);
        asm.load(v, b, 6, MemWidth::B2, Extension::Zero);
        asm.halt();
        let t = trace(asm, 100);
        let load = t.iter().find(|d| d.class == InstClass::Load).unwrap();
        let dep = load.mem_dep.unwrap();
        assert_eq!(dep.coverage, Coverage::Full);
        assert_eq!(dep.shift, 6);
        assert_eq!(load.load_value(), 0x1122);
    }

    #[test]
    fn load_from_initial_data_has_no_dep() {
        let mut asm = Assembler::new();
        let (b, v) = (Reg::int(1), Reg::int(2));
        asm.data_u64s(0x1000, &[42]);
        asm.li(b, 0x1000);
        asm.load(v, b, 0, MemWidth::B8, Extension::Zero);
        asm.halt();
        let t = trace(asm, 100);
        let load = t.iter().find(|d| d.class == InstClass::Load).unwrap();
        assert!(load.mem_dep.is_none());
        assert_eq!(load.load_value(), 42);
    }

    #[test]
    fn partially_initialized_load_is_partial() {
        // Store writes only the low byte; the rest comes from initial data.
        let mut asm = Assembler::new();
        let (b, v) = (Reg::int(1), Reg::int(2));
        asm.li(b, 0x1000);
        asm.li(v, 0xAA);
        asm.store(v, b, 0, MemWidth::B1);
        asm.load(v, b, 0, MemWidth::B8, Extension::Zero);
        asm.halt();
        let t = trace(asm, 100);
        let load = t.iter().find(|d| d.class == InstClass::Load).unwrap();
        assert_eq!(load.mem_dep.unwrap().coverage, Coverage::Partial);
    }

    #[test]
    fn max_insts_truncates_stream() {
        let mut asm = Assembler::new();
        let top = asm.label();
        asm.bind(top);
        asm.addi(Reg::int(1), Reg::int(1), 1);
        asm.jump(top);
        let prog = asm.finish();
        let n = Tracer::new(&prog, 10).count();
        assert_eq!(n, 10);
    }

    #[test]
    fn stores_before_counts_monotonically() {
        let mut asm = Assembler::new();
        let (b, v) = (Reg::int(1), Reg::int(2));
        asm.li(b, 0x1000);
        asm.store(v, b, 0, MemWidth::B8);
        asm.store(v, b, 8, MemWidth::B8);
        asm.halt();
        let t = trace(asm, 100);
        let stores: Vec<_> = t.iter().filter(|d| d.class == InstClass::Store).collect();
        assert_eq!(stores[0].store_ssn(), Some(1));
        assert_eq!(stores[1].store_ssn(), Some(2));
    }

    #[test]
    fn arena_tracer_matches_owned_tracer_across_programs() {
        let programs: Vec<_> = (0..3)
            .map(|i| {
                let mut asm = Assembler::new();
                let (b, v) = (Reg::int(1), Reg::int(2));
                asm.li(b, 0x1000 + i * 0x40);
                asm.li(v, 0x11 * (i + 1));
                asm.store(v, b, 0, MemWidth::B4);
                asm.store(v, b, 2, MemWidth::B2);
                asm.load(v, b, 0, MemWidth::B8, Extension::Zero);
                asm.halt();
                asm.finish()
            })
            .collect();
        let mut map = LastWriterMap::new();
        for prog in &programs {
            let owned: Vec<_> = Tracer::new(prog, 100).collect();
            let reused: Vec<_> = Tracer::with_arena(prog, 100, &mut map).collect();
            assert_eq!(owned.len(), reused.len());
            for (a, b) in owned.iter().zip(&reused) {
                assert_eq!((a.pc, a.stores_before), (b.pc, b.stores_before));
                assert_eq!(a.mem_dep, b.mem_dep);
            }
        }
    }
}
