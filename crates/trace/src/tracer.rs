//! Streaming functional tracer with online dependence analysis.

use std::sync::Arc;

use nosq_isa::{ArchState, InstClass, Program};

use crate::lastwriter::{ByteWriter, LastWriterMap};
use crate::record::{Coverage, DynInst, MemDep};

/// The tracer's last-writer map slot: owned by default, borrowed from a
/// reusable [`TraceArena`] via [`Tracer::with_arena`].
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
/// harnesses) pass a persistent [`TraceArena`] through
/// [`Tracer::with_arena`] so each new trace starts with an O(1) epoch
/// reset instead of fresh allocations.
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

    /// Creates a tracer that borrows the last-writer map of a reusable
    /// [`TraceArena`] instead of allocating one; the arena's trace
    /// storage is left alone. The map is [reset](LastWriterMap::reset)
    /// (O(1)) before tracing starts, so any previous program's writers
    /// are invisible; its page buffers are recycled.
    pub fn with_arena(
        program: &'p Program,
        max_insts: u64,
        arena: &'p mut TraceArena,
    ) -> Tracer<'p> {
        arena.map.reset();
        Tracer::build(program, max_insts, MapSlot::Borrowed(&mut arena.map))
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

/// Reusable recording memory: the tracer's paged last-writer map, plus
/// a handle to the records of the last trace recorded through the
/// arena.
///
/// Between recordings the arena holds the map's pages and that one
/// trace's storage. [`TraceBuffer::record_with_arena`] refills the
/// storage once its trace, and every clone of it, has dropped, so a
/// caller that records one trace at a time (drop the old trace, record
/// the next) writes each trace into memory that is already mapped
/// instead of faulting in a fresh multi-megabyte buffer. A trace that
/// is still alive is never written: recording beside it allocates, as
/// [`TraceBuffer::record`] always does. The arena's own drop frees the
/// storage.
///
/// ```
/// use nosq_trace::{synthesize, Profile, TraceArena, TraceBuffer};
///
/// let program = synthesize(Profile::by_name("gzip").unwrap(), 42);
/// let mut arena = TraceArena::new();
/// let first = TraceBuffer::record_with_arena(&program, 2_000, &mut arena);
/// let at = first.insts().as_ptr();
/// drop(first);
/// let second = TraceBuffer::record_with_arena(&program, 2_000, &mut arena);
/// assert_eq!(second.insts().as_ptr(), at); // the dropped trace's storage
/// assert_eq!(second.insts(), TraceBuffer::record(&program, 2_000).insts());
///
/// let third = TraceBuffer::record_with_arena(&program, 2_000, &mut arena);
/// assert_ne!(third.insts().as_ptr(), at); // `second` is alive: fresh storage
/// ```
#[derive(Default)]
pub struct TraceArena {
    map: LastWriterMap,
    /// The records of the last trace recorded through the arena.
    last: Option<Arc<Vec<DynInst>>>,
}

impl TraceArena {
    /// Creates an empty arena; the map's pages and the trace storage
    /// are allocated by the first recording and recycled afterwards.
    pub fn new() -> TraceArena {
        TraceArena::default()
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
///
/// The records are shared and immutable: `Clone` shares them instead
/// of copying, and the [`TraceArena`] a trace was recorded through
/// keeps a handle to them so its next recording can reuse the storage
/// once every trace holding it has dropped.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    insts: Arc<Vec<DynInst>>,
    max_insts: u64,
}

impl TraceBuffer {
    /// Records the trace of `program`, up to `max_insts` dynamic
    /// instructions, through a fresh [`TraceArena`].
    pub fn record(program: &Program, max_insts: u64) -> TraceBuffer {
        TraceBuffer::record_with_arena(program, max_insts, &mut TraceArena::new())
    }

    /// [`TraceBuffer::record`] through a persistent [`TraceArena`],
    /// reusing its last-writer map and, when it can, its trace storage.
    ///
    /// The records go into the storage of the last trace recorded
    /// through `arena` when the arena holds the only handle to it, that
    /// is when that trace and every clone of it have dropped. The
    /// storage is cleared and refilled, growing once if this budget
    /// needs more than it holds. Otherwise (the arena's first
    /// recording, or the previous trace is still alive) the records get
    /// a fresh allocation and the live trace is left untouched. Either
    /// way the arena then keeps a handle to the new trace's records.
    pub fn record_with_arena(
        program: &Program,
        max_insts: u64,
        arena: &mut TraceArena,
    ) -> TraceBuffer {
        let mut insts = arena
            .last
            .take()
            .and_then(|last| Arc::try_unwrap(last).ok())
            .unwrap_or_default();
        insts.clear();
        // One up-front reservation (capped for huge budgets) instead of
        // doubling growth through tens of megabytes.
        insts.reserve_exact(max_insts.min(4_000_000) as usize);
        insts.extend(Tracer::with_arena(program, max_insts, arena));
        let insts = Arc::new(insts);
        arena.last = Some(Arc::clone(&insts));
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
        let mut arena = TraceArena::new();
        for prog in &programs {
            let owned: Vec<_> = Tracer::new(prog, 100).collect();
            let reused: Vec<_> = Tracer::with_arena(prog, 100, &mut arena).collect();
            assert_eq!(owned, reused);
        }
    }

    fn gzip() -> Program {
        crate::synthesize(crate::Profile::by_name("gzip").unwrap(), 42)
    }

    #[test]
    fn recording_after_the_last_trace_dropped_reuses_its_storage() {
        let program = gzip();
        let mut arena = TraceArena::new();
        let first = TraceBuffer::record_with_arena(&program, 20_000, &mut arena);
        let (at, capacity) = (first.insts().as_ptr(), first.insts.capacity());
        drop(first);
        let second = TraceBuffer::record_with_arena(&program, 5_000, &mut arena);
        assert_eq!(second.insts.capacity(), capacity);
        assert_eq!(second.insts().as_ptr(), at);
        assert_eq!(second.len(), 5_000);
        assert_eq!(second.insts(), TraceBuffer::record(&program, 5_000).insts());
    }

    #[test]
    fn recording_beside_a_live_trace_leaves_it_untouched() {
        let program = gzip();
        let other = crate::synthesize(crate::Profile::by_name("applu").unwrap(), 42);
        let mut arena = TraceArena::new();
        let live = TraceBuffer::record_with_arena(&program, 20_000, &mut arena);
        let before = live.insts().to_vec();
        let next = TraceBuffer::record_with_arena(&other, 5_000, &mut arena);
        assert_ne!(next.insts().as_ptr(), live.insts().as_ptr());
        assert_eq!(live.insts(), &before[..]);
        assert_eq!(next.insts(), TraceBuffer::record(&other, 5_000).insts());

        // A clone keeps the records alive just as the original does.
        let clone = next.clone();
        assert_eq!(clone.insts().as_ptr(), next.insts().as_ptr());
        drop(next);
        let last = TraceBuffer::record_with_arena(&program, 5_000, &mut arena);
        assert_ne!(last.insts().as_ptr(), clone.insts().as_ptr());
        assert_eq!(clone.insts(), TraceBuffer::record(&other, 5_000).insts());
        assert_eq!(live.insts(), &before[..]);
        assert_eq!(last.insts(), &before[..5_000]);
    }
}
