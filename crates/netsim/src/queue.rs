//! The storage and ordering behind the event queue: one slab record per
//! pending event, ordered by a calendar queue (Brown 1988).
//!
//! Every pending event is one [`Slot`] `{ at, seq, next, body }` in a slab
//! whose vacant slots form a freelist threaded through `next`, so the
//! steady-state schedule→fire cycle allocates nothing. Ordering is by
//! `(time, seq)`, exactly the order the original `BinaryHeap<Event>`
//! produced:
//!
//! * a ring of fixed-width time buckets covers a sliding ~270 ms window.
//!   A bucket is a list head threaded through the slots' `next` links, so
//!   the ring owns no storage of its own;
//! * a small *front* heap holds `(time, seq, slot)` keys for the bucket
//!   currently being drained;
//! * an *overflow* heap holds keys of far-future work (MRAI, hold and
//!   keepalive timers) until the window slides over them.
//!
//! For the delivery-dense BGP workload — most events land within a few link
//! latencies of *now* — push and pop touch one slot and a front heap of a
//! handful of keys, which is O(1) amortized instead of O(log n) over the
//! whole event population.
//!
//! Determinism: a bucket is merged into the front heap *in full* before
//! anything in its time range can be popped, and the front heap compares
//! `(time, seq)`, so equal-timestamp events still fire in scheduling order
//! no matter which structure they travelled through, and slot numbering
//! never influences order. Pushes that land at or behind the current bucket
//! (the simulator only schedules at `>= now`, but the cursor may already sit
//! past `now` within the bucket) go straight to the front heap, which keeps
//! them orderable before the bucket boundary.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::event::PoolStats;

/// `(time_ns, seq, slot)` — ordered by time then sequence; the slot index
/// resolves the record in the slab and never influences ordering
/// (sequences are unique).
type Key = (u64, u64, u32);

/// Log2 of the bucket width: 2^17 ns ≈ 131 µs per bucket, finer than the
/// millisecond link latencies that space the bulk of deliveries.
const BUCKET_BITS: u32 = 17;
const BUCKET_WIDTH: u64 = 1 << BUCKET_BITS;
/// Ring size (power of two). 2048 buckets × 131 µs ≈ 268 ms of horizon;
/// anything further out (second-scale protocol timers) waits in the
/// overflow heap until the window slides over it.
const NBUCKETS: usize = 2048;
const HORIZON: u64 = BUCKET_WIDTH * NBUCKETS as u64;
/// Words of the ring's occupancy bitmap.
const OCC_WORDS: usize = NBUCKETS / 64;
/// The null `next` link. Slot indices stay below it.
const NIL: u32 = u32::MAX;

/// One pending event, or a vacant slot on the freelist (`body: None`).
#[derive(Debug)]
struct Slot<T> {
    at: u64,
    seq: u64,
    /// The next slot of the same ring bucket, or of the freelist.
    next: u32,
    body: Option<T>,
}

/// Calendar queue over slab records. See the module docs for the design;
/// the invariants:
///
/// * `front` holds every key with `time < cur_end()` (the current bucket,
///   already merged, plus late pushes) and possibly keys beyond it that
///   were pushed while the cursor sat earlier — those are simply not
///   poppable until the cursor catches up.
/// * ring lists hold slots with `cur_end() <= time < cur_start + HORIZON`.
/// * `overflow` holds keys at `>= cur_start + HORIZON` when pushed; it is
///   flushed into the window every time the cursor moves, so every ring slot
///   is earlier than every overflow key.
/// * `occupied` has bit `i` set exactly when `heads[i]` is not [`NIL`]. The
///   cursor's own bucket never is: it was merged on arrival and later pushes
///   in its range go to `front`.
#[derive(Debug)]
pub(crate) struct CalendarQueue<T> {
    slots: Vec<Slot<T>>,
    /// Head of the freelist of vacant slots.
    free: u32,
    /// Head of each ring bucket's list.
    heads: Box<[u32; NBUCKETS]>,
    front: BinaryHeap<Reverse<Key>>,
    overflow: BinaryHeap<Reverse<Key>>,
    /// Start time of the bucket the cursor is on.
    cur_start: u64,
    /// One bit per ring bucket.
    occupied: [u64; OCC_WORDS],
    len: usize,
    /// Slots handed out from the freelist — the pooled hot path.
    pooled: u64,
    /// Slots created past the reservation watermark — each one is a fresh
    /// allocation (or amortized growth) taken on the hot path.
    allocs_hot: u64,
    /// Reservation watermark: slot creation below it is pre-paid.
    reserved: usize,
}

impl<T> CalendarQueue<T> {
    /// An empty queue with `capacity` slots reserved.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        CalendarQueue {
            slots: Vec::with_capacity(capacity),
            free: NIL,
            heads: Box::new([NIL; NBUCKETS]),
            front: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            cur_start: 0,
            occupied: [0; OCC_WORDS],
            len: 0,
            pooled: 0,
            allocs_hot: 0,
            reserved: capacity,
        }
    }

    fn cur_end(&self) -> u64 {
        self.cur_start + BUCKET_WIDTH
    }

    fn bucket_index(t: u64) -> usize {
        ((t >> BUCKET_BITS) as usize) & (NBUCKETS - 1)
    }

    /// Slab recycling counters.
    pub(crate) fn pool_stats(&self) -> PoolStats {
        PoolStats {
            events_pooled: self.pooled,
            allocs_hot: self.allocs_hot,
        }
    }

    /// Schedule `body` at `at` with tie-break `seq`.
    pub(crate) fn push(&mut self, at: u64, seq: u64, body: T) {
        let record = Slot {
            at,
            seq,
            next: NIL,
            body: Some(body),
        };
        let slot = if self.free != NIL {
            self.pooled += 1;
            let slot = self.free;
            let vacant = &mut self.slots[slot as usize];
            debug_assert!(vacant.body.is_none(), "the freelist holds vacant slots");
            self.free = vacant.next;
            *vacant = record;
            slot
        } else {
            if self.slots.len() >= self.reserved {
                self.allocs_hot += 1;
            }
            assert!(
                self.slots.len() < NIL as usize,
                "event population must stay below u32::MAX, the null slot link"
            );
            self.slots.push(record);
            (self.slots.len() - 1) as u32
        };
        self.len += 1;
        self.route((at, seq, slot));
    }

    fn route(&mut self, key: Key) {
        let (t, _, slot) = key;
        if t < self.cur_end() {
            self.front.push(Reverse(key));
        } else if t - self.cur_start < HORIZON {
            let idx = Self::bucket_index(t);
            self.slots[slot as usize].next = self.heads[idx];
            self.heads[idx] = slot;
            self.occupied[idx / 64] |= 1 << (idx % 64);
        } else {
            self.overflow.push(Reverse(key));
        }
    }

    /// Time of the earliest event, advancing the cursor as needed so that
    /// its key ends up in the front heap.
    pub(crate) fn peek(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(&Reverse((t, _, _))) = self.front.peek() {
                if t < self.cur_end() {
                    return Some(t);
                }
            }
            self.advance();
        }
    }

    /// Remove the earliest event: its time, sequence and payload.
    pub(crate) fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.peek()?;
        let Reverse((t, seq, slot)) = self.front.pop()?;
        self.len -= 1;
        let record = &mut self.slots[slot as usize];
        let body = record.body.take().expect("queue keys reference live slots");
        record.next = self.free;
        self.free = slot;
        Some((t, seq, body))
    }

    /// Move the cursor to the next bucket that can contain the minimum:
    /// straight to the next occupied ring bucket when there is one — no
    /// overflow key can lie in the buckets jumped over, because every ring
    /// slot precedes every overflow key — or a direct teleport to the
    /// earliest front/overflow key when the ring is empty (skipping the
    /// dead time before a far-out timer in one jump).
    fn advance(&mut self) {
        if let Some(steps) = self.next_occupied() {
            self.cur_start += steps as u64 * BUCKET_WIDTH;
        } else {
            let front_min = self.front.peek().map(|&Reverse(k)| k.0);
            let over_min = self.overflow.peek().map(|&Reverse(k)| k.0);
            let next = match (front_min, over_min) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => unreachable!("advance() called on an empty queue"),
            };
            self.cur_start = next & !(BUCKET_WIDTH - 1);
        }
        self.flush_overflow();
        self.merge_current();
    }

    /// Ring distance (`1..NBUCKETS`) from the cursor's bucket to the next
    /// occupied one, or `None` when the ring is empty.
    fn next_occupied(&self) -> Option<usize> {
        let cur = Self::bucket_index(self.cur_start);
        let start = (cur + 1) % NBUCKETS;
        // One lap over the bitmap from `start`; the last round revisits the
        // first word for its bits below `start`.
        for round in 0..=OCC_WORDS {
            let word = (start / 64 + round) % OCC_WORDS;
            let mut bits = self.occupied[word];
            if round == 0 {
                bits &= !0 << (start % 64);
            }
            if bits != 0 {
                let idx = word * 64 + bits.trailing_zeros() as usize;
                debug_assert_ne!(idx, cur, "the cursor's bucket is never occupied");
                return Some((idx + NBUCKETS - cur) % NBUCKETS);
            }
        }
        None
    }

    /// Pull every overflow key that now falls inside the window into the
    /// ring (or straight into the front heap when it lands on the cursor's
    /// bucket).
    fn flush_overflow(&mut self) {
        while let Some(&Reverse(k)) = self.overflow.peek() {
            if k.0 - self.cur_start >= HORIZON {
                break;
            }
            self.overflow.pop();
            self.route(k);
        }
    }

    /// Merge the cursor's bucket into the front heap. Must run whole-bucket
    /// before any pop in its range: that is what preserves `(time, seq)`
    /// order across the ring.
    fn merge_current(&mut self) {
        let idx = Self::bucket_index(self.cur_start);
        let mut slot = std::mem::replace(&mut self.heads[idx], NIL);
        self.occupied[idx / 64] &= !(1 << (idx % 64));
        while slot != NIL {
            let record = &self.slots[slot as usize];
            debug_assert!(
                (self.cur_start..self.cur_end()).contains(&record.at),
                "a ring list holds only its bucket's time range"
            );
            self.front.push(Reverse((record.at, record.seq, slot)));
            slot = record.next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl crate::node::Message for [u64; 6] {}

    fn queue() -> CalendarQueue<u32> {
        CalendarQueue::with_capacity(0)
    }

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64, u32)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    /// A slot costs its key and link on top of its payload, and nothing
    /// more: `at`, `seq` and `next` pack into 24 bytes beside any 8-aligned
    /// body, and a vacant slot is the body's niche, not an extra tag.
    #[test]
    fn a_slot_is_its_body_plus_24_bytes() {
        use crate::event::EventBody;
        use std::mem::size_of;
        type Body = EventBody<[u64; 6]>;
        assert!(size_of::<Slot<Body>>() - size_of::<Body>() <= 24);
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = queue();
        q.push(30, 0, 0);
        q.push(10, 1, 1);
        q.push(10, 2, 2);
        q.push(20, 3, 3);
        assert_eq!(q.len, 4);
        let order: Vec<u64> = drain(&mut q).iter().map(|k| k.1).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
        assert_eq!(q.len, 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_time_burst_respects_sequence_across_structures() {
        // A burst at one instant, pushed while the cursor is far behind.
        let mut q = queue();
        let t = 5 * HORIZON + 3; // deep in overflow territory
        for seq in 0..100 {
            q.push(t, seq, seq as u32);
        }
        let seqs: Vec<u64> = drain(&mut q).iter().map(|k| k.1).collect();
        assert_eq!(seqs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_timers_survive_the_window_slide() {
        let mut q = queue();
        q.push(1, 0, 0);
        q.push(30_000_000_000, 1, 1); // an MRAI-scale 30 s timer
        q.push(2, 2, 2);
        assert_eq!(q.pop(), Some((1, 0, 0)));
        assert_eq!(q.pop(), Some((2, 2, 2)));
        // Cursor must teleport across ~110 windows without losing the key.
        assert_eq!(q.pop(), Some((30_000_000_000, 1, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_behind_cursor_is_still_poppable_in_order() {
        let mut q = queue();
        q.push(10_000_000, 0, 0);
        assert_eq!(q.pop(), Some((10_000_000, 0, 0)));
        // The cursor now sits on the 10 ms bucket; a push earlier in that
        // same bucket (legal: the simulator's `now` is 10 ms, the bucket
        // spans ~131 µs) must not be lost or misordered.
        q.push(10_000_001, 1, 1);
        q.push(10_000_000, 2, 2);
        assert_eq!(q.pop(), Some((10_000_000, 2, 2)));
        assert_eq!(q.pop(), Some((10_000_001, 1, 1)));
    }

    #[test]
    fn matches_heap_on_a_randomized_schedule() {
        // Deterministic xorshift schedule: interleaved pushes and pops with
        // heavy timestamp collisions, diffed against a plain binary heap.
        let mut cal = queue();
        let mut heap = BinaryHeap::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rnd = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        let mut seq = 0u64;
        for step in 0..50_000 {
            if rnd() % 3 != 0 || cal.len == 0 {
                // Push: mostly near-future (collision-prone, quantized to
                // 1 µs), sometimes seconds out like protocol timers.
                let dt = if rnd() % 20 == 0 {
                    1_000_000_000 + rnd() % 30_000_000_000
                } else {
                    (rnd() % 5_000) * 1_000
                };
                cal.push(now + dt, seq, seq as u32);
                heap.push(Reverse((now + dt, seq, seq as u32)));
                seq += 1;
            } else {
                let a = cal.pop();
                let b = heap.pop().map(|Reverse(k)| k);
                assert_eq!(a, b, "divergence at step {step}");
                now = a.unwrap().0;
            }
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop().map(|Reverse(k)| k));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Start time of the bucket `n` buckets after time zero.
    fn bucket(n: u64) -> u64 {
        n * BUCKET_WIDTH
    }

    #[test]
    fn jump_wraps_around_the_ring_index() {
        let mut q = queue();
        // Park the cursor three buckets before the ring index wraps.
        let base = bucket(NBUCKETS as u64 - 3);
        q.push(base, 0, 0);
        assert_eq!(q.pop(), Some((base, 0, 0)));
        assert_eq!(
            CalendarQueue::<u32>::bucket_index(q.cur_start),
            NBUCKETS - 3
        );
        // The next occupied buckets sit past the wrap, at ring indices 5
        // and 70 (another bitmap word).
        let (near, far) = (base + bucket(8) + 1, base + bucket(73));
        q.push(far, 1, 1);
        q.push(near, 2, 2);
        assert_eq!(q.next_occupied(), Some(8));
        assert_eq!(q.pop(), Some((near, 2, 2)));
        assert_eq!(CalendarQueue::<u32>::bucket_index(q.cur_start), 5);
        assert_eq!(q.next_occupied(), Some(65));
        assert_eq!(q.pop(), Some((far, 1, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn jump_reaches_the_farthest_ring_bucket() {
        // The last bucket of the window is NBUCKETS - 1 away: the ring slot
        // just behind the cursor, found by the scan's final round.
        for cursor in [0u64, 1, 63, 64, 1000, NBUCKETS as u64 - 1] {
            let mut q = queue();
            let base = bucket(cursor);
            q.push(base, 0, 0);
            assert_eq!(q.pop(), Some((base, 0, 0)));
            let last = base + HORIZON - 1;
            q.push(last, 1, 1);
            q.push(last + 1, 2, 2); // first key of the overflow range
            assert_eq!(q.next_occupied(), Some(NBUCKETS - 1), "cursor {cursor}");
            assert_eq!(q.pop(), Some((last, 1, 1)));
            assert_eq!(q.pop(), Some((last + 1, 2, 2)));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn push_behind_the_cursor_after_a_jump_pops_in_order() {
        let mut q = queue();
        q.push(1, 0, 0);
        let landed = bucket(700) + 50;
        q.push(landed, 1, 1);
        assert_eq!(q.pop(), Some((1, 0, 0)));
        // Peeking jumps the cursor 700 buckets ahead of the clock ...
        assert_eq!(q.peek(), Some(landed));
        assert_eq!(q.cur_start, bucket(700));
        // ... so pushes the simulator still may make (at `now` = 1 and
        // anywhere up to the landing bucket) fall behind it, into `front`.
        q.push(bucket(300), 2, 2);
        q.push(2, 3, 3);
        q.push(landed, 4, 4);
        q.push(landed - 1, 5, 5);
        let order: Vec<u64> = drain(&mut q).iter().map(|k| k.1).collect();
        assert_eq!(order, vec![3, 2, 5, 1, 4]);
    }

    #[test]
    fn jump_pulls_overflow_keys_into_the_window() {
        let mut q = queue();
        q.push(0, 0, 0);
        let ring = bucket(1500) + 7;
        q.push(ring, 1, 1);
        // Beyond the horizon now, inside it once the cursor lands on bucket
        // 1500: both must move to the ring on that one flush.
        let (over_a, over_b) = (bucket(2100), bucket(3000) + 9);
        q.push(over_b, 2, 2);
        q.push(over_a, 3, 3);
        assert_eq!(q.overflow.len(), 2);
        assert_eq!(q.pop(), Some((0, 0, 0)));
        assert_eq!(q.pop(), Some((ring, 1, 1)));
        assert!(q.overflow.is_empty(), "one flush at the landing bucket");
        assert_eq!(q.pop(), Some((over_a, 3, 3)));
        assert_eq!(q.pop(), Some((over_b, 2, 2)));
        // With the ring empty the cursor teleports, and overflow keys that
        // share the landing bucket go straight to `front`.
        let t = bucket(9000);
        q.push(t + 5, 4, 4);
        q.push(t + 3, 5, 5);
        q.push(t + bucket(1), 6, 6);
        assert_eq!(q.pop(), Some((t + 3, 5, 5)));
        assert_eq!(q.cur_start, t);
        assert_eq!(q.pop(), Some((t + 5, 4, 4)));
        assert_eq!(q.pop(), Some((t + bucket(1), 6, 6)));
        assert_eq!(q.pop(), None);
    }

    /// Popping a ring empty unlinks every bucket: a stale head or bit would
    /// send the cursor to an empty bucket short of a far key instead of
    /// teleporting to it.
    #[test]
    fn a_drained_ring_leaves_no_stale_occupancy() {
        let mut q = queue();
        for seq in 0..200u64 {
            q.push(bucket(seq * 10 + 1), seq, seq as u32);
        }
        assert!(q.occupied.iter().any(|&w| w != 0));
        assert_eq!(drain(&mut q).len(), 200);
        assert_eq!(q.occupied, [0; OCC_WORDS]);
        assert!(q.heads.iter().all(|&h| h == NIL));
        let far = 40 * HORIZON + 3;
        q.push(far, 200, 200);
        assert_eq!(q.pop(), Some((far, 200, 200)));
        assert_eq!(q.cur_start, far & !(BUCKET_WIDTH - 1));
    }

    /// Slots freed out of order come back in the freelist's order, so ring
    /// lists end up threaded through non-monotone slots; every pushed event
    /// still pops exactly once, in order, and the slab never grows past the
    /// peak population.
    #[test]
    fn recycled_slots_thread_lists_out_of_order() {
        let mut q = queue();
        for seq in 0..500u64 {
            q.push((500 - seq) * 1_000_003, seq, seq as u32);
        }
        let mut popped = drain(&mut q);
        let now = popped[499].0;
        for seq in 500..1000u64 {
            q.push(now + seq * 997 % 211 * 1_000_003, seq, seq as u32);
        }
        popped.extend(drain(&mut q));
        assert_eq!(popped.len(), 1000);
        assert!(popped
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        let mut ids: Vec<u32> = popped.iter().map(|k| k.2).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..1000).collect::<Vec<_>>());
        assert_eq!(q.slots.len(), 500);
        assert_eq!(q.pool_stats().events_pooled, 500);
    }
}
