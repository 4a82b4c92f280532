//! Reusable simulation memory: [`SimArena`] and the flat ring buffer
//! behind the pipeline's queues.
//!
//! A [`Simulator`](crate::Simulator) session owns several flat buffers
//! whose capacity depends only on the machine configuration and the
//! program's footprint: the ROB ring, the fetch buffer, the backend-exit
//! queue, the squash-replay queue and scratch, the issue-candidate
//! lists, the store-register-queue ring, and the tracer's paged
//! last-writer map. A session reads a recorded trace in place, and a
//! traced session holds only a small buffer of its own stream.
//! Constructing a session from scratch allocates all of them; a
//! campaign running thousands of jobs pays that cost — and the
//! attendant page faults — per job.
//!
//! [`SimArena`] breaks that cycle: it owns every one of those buffers
//! between sessions. [`Simulator::with_arena`](crate::Simulator::with_arena)
//! borrows the arena for the session's lifetime, *takes* the buffers at
//! construction (an O(1) pointer move plus an O(1) epoch reset for the
//! last-writer map), and returns them at
//! [`finish`](crate::Simulator::finish). Results are bit-identical with
//! and without an arena — reuse changes where the memory comes from,
//! never what the pipeline computes (`tests/it_determinism.rs` and the
//! lab suite enforce this).
//!
//! The instruction records of recorded traces are recycled too, through
//! the arena's [`TraceArena`]: the arena keeps the storage of the last
//! trace recorded with
//! [`TraceBuffer::record_with_arena`](nosq_trace::TraceBuffer::record_with_arena)`(.., &mut arena.trace)`,
//! and the next such recording refills it once that trace has dropped.
//! Between recordings an arena therefore holds one trace's records
//! (48 MB for a 1M-instruction trace) besides the buffers above.
//!
//! ```
//! use nosq_core::{SimArena, SimConfig, Simulator};
//! use nosq_trace::{synthesize, Profile};
//!
//! let program = synthesize(Profile::by_name("gzip").unwrap(), 42);
//! let mut arena = SimArena::new();
//! let fresh = Simulator::new(&program, SimConfig::nosq(2_000)).run();
//! for _ in 0..2 {
//!     let recycled = Simulator::with_arena(&program, SimConfig::nosq(2_000), &mut arena).run();
//!     assert_eq!(fresh, recycled); // reuse is invisible in the report
//! }
//! ```

use nosq_trace::TraceArena;

use crate::pipeline::{Entry, Fetched, ReadyCand, Waiter, WheelEntry};
use crate::srq::StoreInfo;

/// Persistent, reusable buffers for [`Simulator`](crate::Simulator)
/// sessions; see the [module docs](self).
#[derive(Default)]
pub struct SimArena {
    /// The tracer's paged last-writer map and the storage of the last
    /// trace recorded through it. Public so embedders record traces
    /// with [`TraceBuffer::record_with_arena`](nosq_trace::TraceBuffer::record_with_arena)
    /// or drive a bare [`Tracer`](nosq_trace::Tracer) via
    /// [`Tracer::with_arena`](nosq_trace::Tracer::with_arena) off the
    /// same arena.
    pub trace: TraceArena,
    pub(crate) core: CoreBuffers,
}

impl SimArena {
    /// Creates an empty arena; buffers grow to steady-state capacity
    /// during the first session and are recycled afterwards.
    pub fn new() -> SimArena {
        SimArena::default()
    }
}

/// The pipeline-side buffer set (everything except the tracer map),
/// taken wholesale by a session and returned at `finish`.
#[derive(Default)]
pub(crate) struct CoreBuffers {
    /// The reorder buffer ring.
    pub(crate) rob: Ring<Entry>,
    /// Fetched-but-not-dispatched instructions.
    pub(crate) fetch: Ring<Fetched>,
    /// Backend-exit (commit-pipeline drain) deadlines.
    pub(crate) exits: Ring<u64>,
    /// Squash-replay queue of in-flight sequence numbers (low 32 bits).
    pub(crate) pending: Ring<u32>,
    /// Squash / observer scratch entries.
    pub(crate) scratch: Vec<Entry>,
    /// Issue-eligible candidate list (the scheduler's scanned tier).
    pub(crate) iq_ready: Vec<ReadyCand>,
    /// Future-ready candidate wheel (the scheduler's timed tier).
    pub(crate) wheel: std::collections::BinaryHeap<WheelEntry>,
    /// Waiter arena (the scheduler's parked tier) + its free list and
    /// per-node list heads.
    pub(crate) waiters: Vec<Waiter>,
    pub(crate) waiter_free: Vec<u32>,
    pub(crate) node_waiters: Vec<u32>,
    /// Store-register-queue ring storage.
    pub(crate) srq: Vec<Option<StoreInfo>>,
}

impl CoreBuffers {
    /// Clears every buffer's *contents* while keeping its capacity —
    /// the per-session reset.
    pub(crate) fn clear(&mut self) {
        self.rob.clear();
        self.fetch.clear();
        self.exits.clear();
        self.pending.clear();
        self.scratch.clear();
        self.iq_ready.clear();
        self.wheel.clear();
        self.waiters.clear();
        self.waiter_free.clear();
        self.node_waiters.clear();
        // `srq` is re-initialized by `StoreRegisterQueue::with_storage`.
    }
}

/// A power-of-two ring buffer with *absolute* positions.
///
/// `head` counts every element ever popped from the front, so an
/// element keeps one stable `u64` position for its whole residency no
/// matter how the ring moves — that is what lets the issue stage keep a
/// compact candidate list of ROB positions instead of rescanning every
/// (large) ROB entry each cycle. The ring grows by doubling when full
/// (positions are preserved), and [`clear`](Ring::clear) keeps the
/// allocation for the next session.
#[derive(Clone)]
pub(crate) struct Ring<T> {
    buf: Vec<Option<T>>,
    head: u64,
    len: usize,
}

impl<T> Default for Ring<T> {
    fn default() -> Ring<T> {
        Ring {
            buf: Vec::new(),
            head: 0,
            len: 0,
        }
    }
}

impl<T> Ring<T> {
    #[inline]
    fn mask(&self) -> usize {
        debug_assert!(
            self.buf.len().is_power_of_two(),
            "ring capacity {} is not a power of two",
            self.buf.len()
        );
        self.buf.len() - 1
    }

    #[inline]
    fn slot_of(&self, pos: u64) -> usize {
        // Power-of-two masking is stable under u64 wrap-around.
        debug_assert!(
            pos.wrapping_sub(self.head) <= self.len as u64,
            "position {pos} outside ring residency [head {}, +{}]",
            self.head,
            self.len
        );
        (pos as usize) & self.mask()
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The absolute position the next `push_back` will occupy.
    #[inline]
    pub(crate) fn next_pos(&self) -> u64 {
        self.head.wrapping_add(self.len as u64)
    }

    /// Drops contents, keeps capacity, rewinds positions.
    pub(crate) fn clear(&mut self) {
        for i in 0..self.len {
            let slot = self.slot_of(self.head.wrapping_add(i as u64));
            self.buf[slot] = None;
        }
        self.head = 0;
        self.len = 0;
    }

    /// Grows the buffer so at least `cap` elements fit without a
    /// mid-run reallocation.
    pub(crate) fn reserve(&mut self, cap: usize) {
        let target = cap.next_power_of_two().max(8);
        while self.buf.len() < target {
            self.grow();
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.buf.len() * 2).max(8);
        let mut new_buf: Vec<Option<T>> = Vec::with_capacity(new_cap);
        new_buf.resize_with(new_cap, || None);
        for i in 0..self.len {
            let pos = self.head.wrapping_add(i as u64);
            let old_slot = (pos as usize) & (self.buf.len() - 1);
            new_buf[(pos as usize) & (new_cap - 1)] = self.buf[old_slot].take();
        }
        self.buf = new_buf;
    }

    pub(crate) fn push_back(&mut self, value: T) {
        if self.buf.is_empty() || self.len == self.buf.len() {
            self.grow();
        }
        let slot = self.slot_of(self.next_pos());
        debug_assert!(self.buf[slot].is_none());
        self.buf[slot] = Some(value);
        self.len += 1;
    }

    pub(crate) fn push_front(&mut self, value: T) {
        if self.buf.is_empty() || self.len == self.buf.len() {
            self.grow();
        }
        self.head = self.head.wrapping_sub(1);
        let slot = self.slot_of(self.head);
        debug_assert!(self.buf[slot].is_none());
        self.buf[slot] = Some(value);
        self.len += 1;
    }

    pub(crate) fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let slot = self.slot_of(self.head);
        let value = self.buf[slot].take();
        debug_assert!(value.is_some());
        self.head = self.head.wrapping_add(1);
        self.len -= 1;
        value
    }

    pub(crate) fn pop_back(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let slot = self.slot_of(self.head.wrapping_add(self.len as u64));
        let value = self.buf[slot].take();
        debug_assert!(value.is_some());
        value
    }

    pub(crate) fn front(&self) -> Option<&T> {
        if self.len == 0 {
            return None;
        }
        self.buf[self.slot_of(self.head)].as_ref()
    }

    /// The element at absolute position `pos`, if resident.
    #[inline]
    pub(crate) fn get_abs(&self, pos: u64) -> Option<&T> {
        if pos.wrapping_sub(self.head) >= self.len as u64 {
            return None;
        }
        self.buf[self.slot_of(pos)].as_ref()
    }

    /// Mutable access by absolute position.
    #[inline]
    pub(crate) fn get_abs_mut(&mut self, pos: u64) -> Option<&mut T> {
        if pos.wrapping_sub(self.head) >= self.len as u64 {
            return None;
        }
        let slot = self.slot_of(pos);
        self.buf[slot].as_mut()
    }
}

// Encoded as `head` + the resident elements front-to-back; decode
// rebuilds the smallest power-of-two buffer and re-places each element
// at its absolute position, so positions — which the issue stage's
// candidate lists reference — survive the roundtrip exactly.
impl<T: nosq_wire::Wire> nosq_wire::Wire for Ring<T> {
    fn enc(&self, e: &mut nosq_wire::Enc) {
        e.put_u64(self.head);
        e.put_u64(self.len as u64);
        for i in 0..self.len {
            self.buf[self.slot_of(self.head.wrapping_add(i as u64))]
                .as_ref()
                .expect("resident ring slot")
                .enc(e);
        }
    }

    fn dec(d: &mut nosq_wire::Dec) -> Result<Self, nosq_wire::WireError> {
        let head = d.take_u64()?;
        let len = usize::try_from(d.take_u64()?)
            .map_err(|_| nosq_wire::WireError::Invalid("ring len"))?;
        if len > d.remaining() {
            // Every element consumes at least one byte.
            return Err(nosq_wire::WireError::Invalid("ring len"));
        }
        let cap = len.next_power_of_two().max(8);
        let mut buf: Vec<Option<T>> = Vec::with_capacity(cap);
        buf.resize_with(cap, || None);
        for i in 0..len {
            let slot = (head.wrapping_add(i as u64) as usize) & (cap - 1);
            buf[slot] = Some(T::dec(d)?);
        }
        Ok(Ring { buf, head, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_fifo_roundtrip() {
        let mut r: Ring<u32> = Ring::default();
        assert!(r.is_empty());
        for i in 0..20 {
            r.push_back(i);
        }
        assert_eq!(r.len(), 20);
        for i in 0..20 {
            assert_eq!(r.front(), Some(&i));
            assert_eq!(r.pop_front(), Some(i));
        }
        assert_eq!(r.pop_front(), None);
    }

    #[test]
    fn ring_grows_preserving_order_and_positions() {
        let mut r: Ring<u64> = Ring::default();
        let mut positions = Vec::new();
        for i in 0..100u64 {
            positions.push(r.next_pos());
            r.push_back(i);
            if i % 3 == 0 {
                r.pop_front();
            }
        }
        // Every still-resident element is reachable at its recorded
        // absolute position.
        for (i, &pos) in positions.iter().enumerate() {
            let got = r.get_abs(pos);
            if got.is_some() {
                assert_eq!(got, Some(&(i as u64)));
            }
        }
    }

    #[test]
    fn ring_push_front_reverses() {
        let mut r: Ring<u32> = Ring::default();
        r.push_back(10);
        r.push_front(9);
        r.push_front(8);
        assert_eq!(r.pop_front(), Some(8));
        assert_eq!(r.pop_front(), Some(9));
        assert_eq!(r.pop_front(), Some(10));
    }

    #[test]
    fn ring_pop_back_is_lifo() {
        let mut r: Ring<u32> = Ring::default();
        for i in 0..5 {
            r.push_back(i);
        }
        assert_eq!(r.pop_back(), Some(4));
        assert_eq!(r.pop_back(), Some(3));
        assert_eq!(r.pop_front(), Some(0));
    }

    #[test]
    fn ring_clear_keeps_capacity() {
        let mut r: Ring<u32> = Ring::default();
        for i in 0..50 {
            r.push_back(i);
        }
        let cap = r.buf.len();
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.buf.len(), cap);
        assert_eq!(r.next_pos(), 0);
        r.push_back(7);
        assert_eq!(r.pop_front(), Some(7));
    }

    #[test]
    fn ring_reserve_prevents_growth() {
        let mut r: Ring<u32> = Ring::default();
        r.reserve(100);
        let cap = r.buf.len();
        assert!(cap >= 100);
        for i in 0..100 {
            r.push_back(i);
        }
        assert_eq!(r.buf.len(), cap);
    }
}
