//! The engine's pending-event queue: a monotone bucketed
//! radix/calendar queue over the packed `(t, seq)` key. A push costs
//! one bit-scan; a pop re-buckets at most one bucket, and every
//! re-bucketed event moves to a strictly lower bucket, so each event is
//! touched `O(1)` amortized times over its life instead of paying
//! `O(log n)` sift-downs in a binary heap. The binary heap it replaced
//! survives only as the test oracle of this module's unit tests, and
//! `crates/sim/tests/differential_queue.rs` pins whole-run outcome
//! digests recorded while the two were still interchangeable.
//!
//! # Quantized key, exact order
//!
//! The engine orders pending events by `(OrderedTime(t), seq)`: earlier
//! time first, then FIFO by push sequence. The calendar queue packs the
//! pair into one 128-bit integer `key = (t.to_bits() << 64) | seq` and
//! compares keys as integers. For the engine's event times — finite and
//! `≥ 0`, being maxes/sums of nonnegative quantities — `f64::to_bits`
//! is strictly monotone in the float order, so the packed integer order
//! *is* the `(t, seq)` order; nothing is approximated. The one
//! non-monotone bit pattern in that range, `-0.0` (sign bit set), is
//! normalized to `+0.0` on push by adding `0.0` (the identity on every
//! other value), keeping the mapping monotone even for defensive
//! inputs the engine never produces.
//!
//! # Monotonicity contract
//!
//! A radix queue requires every push to be at or above the last
//! **popped** key — and only the popped one. (The floor must not chase
//! the queue *minimum*: between a peek and the next pop the engine may
//! process an arrival at an earlier time and push a finish below the
//! peeked minimum, which is fine as long as it is above the last pop.)
//! The engine guarantees the contract structurally: a finish event is
//! pushed at `max(t_fin, now)` where `now` is the time of the event
//! being processed (so never below the last pop's time), and `seq`
//! strictly increases across pushes (so a push at the *same* time still
//! packs strictly above the last popped key). `push` debug-asserts the
//! contract.

use bct_core::time::OrderedTime;
use bct_core::{NodeId, Time};
use std::cmp::Ordering;

/// A scheduled hop-finish event. Only the `(t, seq)` pair participates
/// in the queue order — earlier time first, then FIFO by push sequence
/// for determinism; `node`/`version` ride along as payload. (The
/// sequence is `u64`, not `u32`: `max_events` defaults to `2^34`, so a
/// 32-bit counter could wrap within one run.)
#[derive(Clone, Copy, Debug)]
pub struct FinishEv {
    /// Scheduled finish time.
    pub t: OrderedTime,
    /// Push sequence number (FIFO tie-break at equal times).
    pub seq: u64,
    /// The node whose current job finishes.
    pub node: NodeId,
    /// The node's scheduling version at push time; a mismatch at pop
    /// time marks the event stale.
    pub version: u64,
}

/// An event inside the calendar queue: the packed 128-bit key plus the
/// payload.
#[derive(Clone, Copy, Debug)]
struct CalEv {
    key: u128,
    node: NodeId,
    version: u64,
}

/// Pack `(t, seq)` into the calendar key. `t + 0.0` normalizes `-0.0`
/// to `+0.0` (identity on every other value), so `to_bits` is monotone
/// over the engine's nonnegative finite times.
#[inline]
fn pack(t: Time, seq: u64) -> u128 {
    (u128::from((t + 0.0).to_bits()) << 64) | u128::from(seq)
}

/// Bucket index of `key` relative to the queue floor `last`: the
/// position of the highest bit where they differ, or `None` when equal
/// (the entry is *at* the floor and belongs in `front`).
#[inline]
fn bucket_of(last: u128, key: u128) -> Option<usize> {
    let x = last ^ key;
    if x == 0 {
        None
    } else {
        Some(127 - x.leading_zeros() as usize)
    }
}

/// One bucket per possible position of the highest bit differing from
/// the floor.
const BUCKETS: usize = 128;

/// The pending-event queue handed to the engine: a monotone bucketed
/// radix queue over the packed `(t, seq)` key, pooled in
/// [`crate::SimScratch`] so warm runs reuse every bucket's capacity.
/// Arrivals never enter the queue: instances validate release-sorted
/// jobs, so the engine walks them with a cursor and merges the two
/// streams at pop time.
///
/// Invariants between operations:
///
/// * every queued key is `≥ last`, the floor — the last key *popped*
///   (0 initially). The floor moves only at pop time; peeking never
///   moves it, because the engine is still free to push keys below the
///   current minimum (arrivals processed before a peeked finish) as
///   long as they stay above the last pop;
/// * `front` holds the entries whose key `== last` — at most one (keys
///   are unique thanks to `seq`), and only ever the very first push at
///   `(t = 0, seq = 0)`, which packs to the initial floor;
/// * `buckets[b]` holds the entries whose key first differs from
///   `last` at bit `b` (necessarily a 1-bit, so they are `> last`),
///   and bit `b` of `mask` says whether `buckets[b]` is non-empty;
/// * `min_key` is the minimum queued key (`u128::MAX` when empty), so
///   peeks are O(1) and touch nothing; `min_at` is its exact location,
///   so pops need no find scan. The location stays valid because an
///   entry's index within its bucket only changes when that whole
///   bucket is cleared by re-bucketing — and every place that clears
///   or appends re-derives the minimum's location.
///
/// Bucket index orders disjoint key ranges: two entries in different
/// buckets compare as their bucket indices do, so the minimum always
/// lives in the lowest occupied bucket (or `front`). Popping removes
/// the minimum, advances the floor to it, and re-buckets only the
/// bucket it came from; each displaced entry lands in a *strictly
/// lower* bucket (it agrees with the new floor on every bit above the
/// old bucket's position, and buckets above keep their placement
/// because their first-differing bit is untouched by the floor move),
/// bounding total re-bucketing work by 128 moves per event.
#[derive(Debug, Default)]
pub struct EventQueue {
    buckets: Vec<Vec<CalEv>>,
    /// Entries whose key equals `last` (the `(0, 0)` first push only).
    front: Vec<CalEv>,
    /// Occupancy bitmap over `buckets`.
    mask: u128,
    /// The queue floor: the last key popped (or 0 initially). Every
    /// queued key is `≥ last`.
    last: u128,
    /// The minimum queued key; `u128::MAX` when the queue is empty.
    min_key: u128,
    /// Location of `min_key`: `(bucket, index)`, with bucket
    /// [`IN_FRONT`] when it sits in `front`. Meaningless when empty.
    min_at: (u32, u32),
    len: usize,
    /// Next push sequence number (FIFO tie-break at equal times).
    seq: u64,
}

/// Sentinel bucket index marking `front` in [`EventQueue::min_at`].
const IN_FRONT: u32 = BUCKETS as u32;

impl EventQueue {
    /// Empty the queue, reset the floor and restart the sequence
    /// counter, keeping every capacity; then [`EventQueue::reserve`]
    /// `pending` slots (`0`: no pre-reservation).
    pub fn reset(&mut self, pending: usize) {
        if self.buckets.len() != BUCKETS {
            self.buckets.resize_with(BUCKETS, Vec::new);
        }
        for b in &mut self.buckets {
            b.clear();
        }
        self.front.clear();
        self.mask = 0;
        self.last = 0;
        self.min_key = u128::MAX;
        self.min_at = (IN_FRONT, 0);
        self.len = 0;
        self.seq = 0;
        if pending > 0 {
            self.reserve(pending);
        }
    }

    /// Pre-reserve `pending` slots in every bucket, so a warm steady
    /// state that keeps at most `pending` events in flight never grows
    /// a bucket mid-push. Bounded by the count of *concurrently
    /// pending* events (≈ busy nodes), not total pushes.
    pub fn reserve(&mut self, pending: usize) {
        self.front.reserve(pending);
        for b in &mut self.buckets {
            b.reserve(pending);
        }
    }

    /// Push a finish event at time `t` for `node` at scheduling
    /// `version`. `t` must be at or after the last popped event's time
    /// (the engine's push sites guarantee it).
    // bct-lint: no_alloc
    pub fn push(&mut self, t: Time, node: NodeId, version: u64) {
        let ev = CalEv { key: pack(t, self.seq), node, version };
        self.seq += 1;
        debug_assert!(ev.key >= self.last, "calendar push below the popped floor");
        let at = match bucket_of(self.last, ev.key) {
            Some(b) => {
                self.buckets[b].push(ev);
                self.mask |= 1u128 << b;
                (b as u32, (self.buckets[b].len() - 1) as u32)
            }
            None => {
                self.front.push(ev);
                (IN_FRONT, (self.front.len() - 1) as u32)
            }
        };
        if ev.key < self.min_key {
            self.min_key = ev.key;
            self.min_at = at;
        }
        self.len += 1;
    }

    /// Time of the earliest pending event.
    // bct-lint: no_alloc
    pub fn peek_time(&self) -> Option<Time> {
        (self.len > 0).then(|| f64::from_bits((self.min_key >> 64) as u64))
    }

    /// Pop the earliest pending event, `(t, seq)`-lexicographic.
    /// Advances the floor to the popped key and re-buckets the (single)
    /// bucket it came from; entries above keep their placement, so this
    /// is the only movement.
    // bct-lint: no_alloc
    pub fn pop(&mut self) -> Option<FinishEv> {
        if self.len == 0 {
            return None;
        }
        let min = self.min_key;
        // Minimum of the entries the floor move displaces into lower
        // buckets, its location, and the lowest bucket it lands in:
        // when anything is re-bucketed, the new queue minimum is among
        // exactly those entries (they all sit below every untouched
        // bucket).
        let mut moved_min = u128::MAX;
        let mut moved_lowest = BUCKETS;
        let mut moved_idx = 0u32;
        let (mb, mi) = self.min_at;
        let ev = if mb == IN_FRONT {
            // Only the initial `(0, 0)` key can sit at the floor.
            debug_assert_eq!(min, self.last, "front minimum must equal the floor");
            debug_assert_eq!(self.front.len(), 1, "floor key must be the lone front entry");
            self.front.pop()
        } else {
            // `front` keys equal the floor, which is `< min`; a
            // non-empty front would contradict `min` being minimal.
            debug_assert!(self.front.is_empty(), "front below the minimum");
            let b = mb as usize;
            debug_assert_eq!(bucket_of(self.last, min), Some(b), "stale min bucket");
            debug_assert_eq!(self.buckets[b][mi as usize].key, min, "stale min index");
            let ev = self.buckets[b].swap_remove(mi as usize);
            // Advance the floor and re-bucket the popped entry's
            // bucket in place: every remainder first differs from
            // `min` below bit `b`, so it moves strictly down (never
            // back into `b`), and each bucket keeps its own capacity —
            // identical reruns then see identical capacities
            // everywhere and never reallocate.
            self.last = min;
            self.mask &= !(1u128 << b);
            for i in 0..self.buckets[b].len() {
                let e = self.buckets[b][i];
                match bucket_of(min, e.key) {
                    None => debug_assert!(false, "duplicate key during re-bucketing"),
                    Some(nb) => {
                        debug_assert!(nb < b, "re-bucketed entry must move down");
                        self.buckets[nb].push(e);
                        self.mask |= 1u128 << nb;
                        let better = match nb.cmp(&moved_lowest) {
                            Ordering::Less => true,
                            Ordering::Equal => e.key < moved_min,
                            Ordering::Greater => false,
                        };
                        if better {
                            moved_lowest = nb;
                            moved_min = e.key;
                            moved_idx = (self.buckets[nb].len() - 1) as u32;
                        }
                    }
                }
            }
            self.buckets[b].clear();
            Some(ev)
        }?;
        self.len -= 1;
        // The new minimum lives in the lowest occupied bucket (every
        // bucket's placement is valid against the new floor, and bucket
        // index orders disjoint key ranges). Re-bucketed entries land
        // strictly below every untouched bucket, so when the floor move
        // displaced anything the minimum was already found above;
        // otherwise one scan of the lowest surviving bucket finds it.
        self.min_key = moved_min;
        self.min_at = (moved_lowest as u32, moved_idx);
        if moved_lowest == BUCKETS && self.len > 0 {
            debug_assert!(self.mask != 0, "non-empty queue needs an occupied bucket");
            let lb = self.mask.trailing_zeros() as usize;
            for (i, e) in self.buckets[lb].iter().enumerate() {
                if e.key < self.min_key {
                    self.min_key = e.key;
                    self.min_at = (lb as u32, i as u32);
                }
            }
        }
        Some(FinishEv {
            t: OrderedTime(f64::from_bits((ev.key >> 64) as u64)),
            seq: ev.key as u64,
            node: ev.node,
            version: ev.version,
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn drain(q: &mut EventQueue) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        while let Some(ev) = q.pop() {
            out.push((ev.t.0, ev.seq));
        }
        out
    }

    #[test]
    fn calendar_pops_in_time_then_seq_order() {
        let mut q = EventQueue::default();
        q.reset(0);
        for (i, t) in [3.0, 1.0, 2.0, 1.0, 0.0].iter().enumerate() {
            q.push(*t, NodeId(i as u32), 0);
        }
        let order = drain(&mut q);
        assert_eq!(
            order,
            vec![(0.0, 4), (1.0, 1), (1.0, 3), (2.0, 2), (3.0, 0)]
        );
    }

    /// The binary heap the calendar queue replaced, kept as the test
    /// oracle: `(t, seq)`-ordered, with the same sequence numbering.
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<Reverse<(OrderedTime, u64, NodeId, u64)>>,
        seq: u64,
    }

    impl HeapOracle {
        fn push(&mut self, t: Time, node: NodeId, version: u64) {
            self.heap.push(Reverse((OrderedTime(t), self.seq, node, version)));
            self.seq += 1;
        }
        fn peek_time(&self) -> Option<Time> {
            self.heap.peek().map(|Reverse((t, ..))| t.0)
        }
        fn pop(&mut self) -> Option<(OrderedTime, u64, NodeId, u64)> {
            self.heap.pop().map(|Reverse(ev)| ev)
        }
    }

    /// Hold model: `n` live events, each pop followed by a push a
    /// random increment later — the exact access pattern the engine
    /// produces (one pending finish per busy node). Initial times are
    /// `(draw % t0.0) / t0.1`, increments `(draw % dt.0) / dt.1`. The
    /// calendar queue and the heap oracle must agree on every peek and
    /// every popped `(t, seq, node, version)`, then drain identically.
    fn assert_hold_model_matches_heap(
        n: usize,
        ops: usize,
        mut draw: impl FnMut() -> u64,
        t0: (u64, f64),
        dt: (u64, f64),
    ) {
        let mut cal = EventQueue::default();
        cal.reset(0);
        let mut heap = HeapOracle::default();
        for i in 0..n {
            let t = (draw() % t0.0) as f64 / t0.1;
            cal.push(t, NodeId(i as u32), 0);
            heap.push(t, NodeId(i as u32), 0);
        }
        for op in 0..ops {
            assert_eq!(cal.peek_time(), heap.peek_time(), "n={n} op {op}");
            let (Some(a), Some(b)) = (cal.pop(), heap.pop()) else {
                panic!("queues drained early");
            };
            assert_eq!((a.t, a.seq, a.node, a.version), b, "n={n} op {op}");
            let t = a.t.0 + (draw() % dt.0) as f64 / dt.1;
            cal.push(t, a.node, a.version + 1);
            heap.push(t, a.node, a.version + 1);
        }
        assert_eq!(cal.len(), heap.heap.len());
        while let Some(b) = heap.pop() {
            let a = cal.pop().expect("calendar drained before the heap");
            assert_eq!((a.t, a.seq, a.node, a.version), b, "n={n} drain");
        }
        assert!(cal.is_empty());
    }

    #[test]
    fn calendar_matches_heap_under_monotone_hold_pattern() {
        let mut xs = 0x1234_5678_9abc_def0u64;
        let draw = move || {
            xs ^= xs << 13;
            xs ^= xs >> 7;
            xs ^= xs << 17;
            xs
        };
        assert_hold_model_matches_heap(64, 4000, draw, (1000, 8.0), (64, 16.0));
    }

    /// The sizes and operation count of the retired event-queue
    /// microbenchmark, whose only check was this pop-order agreement:
    /// 200k hold rounds at 64, 1024 and 16384 live events.
    #[test]
    fn calendar_matches_heap_on_hold_model_at_scale() {
        for n in [64usize, 1024, 16 * 1024] {
            // xorshift64*: the state advances by xorshift, the draw is
            // the state times an odd constant.
            let mut x = 0x9E37_79B9_97F4_A7C1u64 ^ n as u64;
            let draw = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.wrapping_mul(0x2545_F491_4F6C_DD1D)
            };
            assert_hold_model_matches_heap(n, 200_000, draw, (4096, 16.0), (256, 32.0));
        }
    }

    #[test]
    fn equal_time_pushes_after_pop_stay_fifo() {
        let mut q = EventQueue::default();
        q.reset(0);
        q.push(5.0, NodeId(0), 0);
        q.push(5.0, NodeId(1), 0);
        let first = q.pop().unwrap();
        assert_eq!(first.node, NodeId(0));
        // Push *at the popped time* — the engine does this whenever a
        // finish triggers an immediate zero-work reschedule.
        q.push(5.0, NodeId(2), 0);
        assert_eq!(q.pop().unwrap().node, NodeId(1));
        assert_eq!(q.pop().unwrap().node, NodeId(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn reset_reuses_capacity_and_restarts_seq() {
        let mut q = EventQueue::default();
        q.reset(0);
        for i in 0..100 {
            q.push(i as f64 * 0.25, NodeId(i), 0);
        }
        while q.pop().is_some() {}
        q.reset(0);
        q.push(1.0, NodeId(7), 3);
        let ev = q.pop().unwrap();
        assert_eq!((ev.seq, ev.node, ev.version), (0, NodeId(7), 3));
    }

    #[test]
    fn push_below_peeked_minimum_between_pops_keeps_order() {
        // The arrival pattern: the engine peeks the pending finish (7.0),
        // decides an arrival at 5.0 comes first, and pushes that new
        // job's finish at 6.0 — *below* the peeked minimum but above the
        // last pop. The peek must not have moved the floor.
        let mut q = EventQueue::default();
        q.reset(0);
        q.push(2.0, NodeId(0), 0);
        let first = q.pop().unwrap();
        assert_eq!(first.t.0, 2.0);
        q.push(7.0, NodeId(1), 0);
        assert_eq!(q.peek_time(), Some(7.0));
        q.push(6.0, NodeId(2), 0); // finish of the job arriving at 5.0
        assert_eq!(q.peek_time(), Some(6.0));
        assert_eq!(q.pop().unwrap().node, NodeId(2));
        assert_eq!(q.pop().unwrap().node, NodeId(1));
        assert!(q.pop().is_none());
    }

    #[test]
    fn zero_time_first_push_is_poppable() {
        // key (t=0.0, seq=0) packs to exactly the initial floor.
        let mut q = EventQueue::default();
        q.reset(0);
        q.push(0.0, NodeId(0), 0);
        assert_eq!(q.peek_time(), Some(0.0));
        assert_eq!(q.pop().unwrap().node, NodeId(0));
    }
}
