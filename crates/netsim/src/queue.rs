//! Priority structures behind the event queue.
//!
//! Both structures order *keys* — `(time_ns, seq, slot)` triples whose
//! payloads live in the [`event`](crate::event) slab — by `(time, seq)`,
//! exactly the order the original `BinaryHeap<Event>` produced. Keeping the
//! ordering logic payload-free makes the two backends trivially swappable
//! and lets the ordering oracle exercise them without a simulator.
//!
//! * [`HeapQueue`] is the original binary min-heap: O(log n) per
//!   operation, kept as the reference implementation (the proptest oracle
//!   diffs the calendar queue against it) and as the benchmark baseline.
//! * [`CalendarQueue`] is a calendar queue (Brown 1988): a ring of
//!   fixed-width time buckets covering a sliding ~270 ms window, a small
//!   *front* heap holding only the events of the bucket currently being
//!   drained, and an overflow heap for far-future work (MRAI, hold and
//!   keepalive timers). For the delivery-dense BGP workload — most events
//!   land within a few link latencies of *now* — push and pop touch a
//!   bucket vector and a front heap of a handful of entries, which is O(1)
//!   amortized instead of O(log n) over the whole event population.
//!
//! Determinism: a bucket is merged into the front heap *in full* before
//! anything in its time range can be popped, and the front heap compares
//! `(time, seq)`, so equal-timestamp events still fire in scheduling order
//! no matter which structure they travelled through. Pushes that land at or
//! behind the current bucket (the simulator only schedules at `>= now`, but
//! the cursor may already sit past `now` within the bucket) go straight to
//! the front heap, which keeps them orderable before the bucket boundary.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `(time_ns, seq, slot)` — ordered by time then sequence; the slot index
/// resolves the payload in the event slab and never influences ordering
/// (sequences are unique).
pub(crate) type Key = (u64, u64, u32);

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

/// The original binary min-heap over `(time, seq)` keys.
#[derive(Debug, Default)]
pub(crate) struct HeapQueue {
    heap: BinaryHeap<Reverse<Key>>,
}

impl HeapQueue {
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }

    pub fn push(&mut self, key: Key) {
        self.heap.push(Reverse(key));
    }

    pub fn pop(&mut self) -> Option<Key> {
        self.heap.pop().map(|Reverse(k)| k)
    }

    pub fn peek(&self) -> Option<Key> {
        self.heap.peek().map(|&Reverse(k)| k)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Remove every key, in no particular order (backend migration).
    pub fn drain_unordered(&mut self) -> Vec<Key> {
        std::mem::take(&mut self.heap)
            .into_iter()
            .map(|Reverse(k)| k)
            .collect()
    }
}

/// Calendar queue over `(time, seq)` keys. See the module docs for the
/// invariants; the short version:
///
/// * `front` holds every key with `time < cur_end()` (the current bucket,
///   already merged, plus late pushes) and possibly keys beyond it that
///   were pushed while the cursor sat earlier — those are simply not
///   poppable until the cursor catches up.
/// * ring buckets hold keys with `cur_end() <= time < cur_start + HORIZON`.
/// * `overflow` holds keys at `>= cur_start + HORIZON` when pushed; it is
///   flushed into the window every time the cursor moves, so every ring key
///   is earlier than every overflow key.
/// * `occupied` has bit `i` set exactly when ring bucket `i` holds keys. The
///   cursor's own bucket never does: it was merged on arrival and later
///   pushes in its range go to `front`.
#[derive(Debug)]
pub(crate) struct CalendarQueue {
    buckets: Vec<Vec<Key>>,
    front: BinaryHeap<Reverse<Key>>,
    overflow: BinaryHeap<Reverse<Key>>,
    /// Start time of the bucket the cursor is on.
    cur_start: u64,
    /// One bit per ring bucket (boxed: the queue sits in an enum beside
    /// the three-word heap).
    occupied: Box<[u64; OCC_WORDS]>,
    len: usize,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            front: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            cur_start: 0,
            occupied: Box::new([0; OCC_WORDS]),
            len: 0,
        }
    }

    fn cur_end(&self) -> u64 {
        self.cur_start + BUCKET_WIDTH
    }

    fn bucket_index(t: u64) -> usize {
        ((t >> BUCKET_BITS) as usize) & (NBUCKETS - 1)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn push(&mut self, key: Key) {
        self.len += 1;
        self.route(key);
    }

    fn route(&mut self, key: Key) {
        let t = key.0;
        if t < self.cur_end() {
            self.front.push(Reverse(key));
        } else if t - self.cur_start < HORIZON {
            let idx = Self::bucket_index(t);
            self.buckets[idx].push(key);
            self.occupied[idx / 64] |= 1 << (idx % 64);
        } else {
            self.overflow.push(Reverse(key));
        }
    }

    /// The earliest key, advancing the cursor as needed so that it ends up
    /// in the front heap.
    pub fn peek(&mut self) -> Option<Key> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(&Reverse(k)) = self.front.peek() {
                if k.0 < self.cur_end() {
                    return Some(k);
                }
            }
            self.advance();
        }
    }

    pub fn pop(&mut self) -> Option<Key> {
        self.peek()?;
        self.len -= 1;
        self.front.pop().map(|Reverse(k)| k)
    }

    /// Move the cursor to the next bucket that can contain the minimum:
    /// straight to the next occupied ring bucket when there is one — no
    /// overflow key can lie in the buckets jumped over, because every ring
    /// key precedes every overflow key — or a direct teleport to the
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
        if self.buckets[idx].is_empty() {
            return;
        }
        let mut bucket = std::mem::take(&mut self.buckets[idx]);
        self.occupied[idx / 64] &= !(1 << (idx % 64));
        for k in bucket.drain(..) {
            self.front.push(Reverse(k));
        }
        // Hand the (empty, still-allocated) vector back to the ring so the
        // bucket never reallocates in steady state.
        self.buckets[idx] = bucket;
    }

    /// Remove every key, in no particular order (backend migration).
    pub fn drain_unordered(&mut self) -> Vec<Key> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(std::mem::take(&mut self.front).into_iter().map(|r| r.0));
        out.extend(std::mem::take(&mut self.overflow).into_iter().map(|r| r.0));
        for b in &mut self.buckets {
            out.append(b);
        }
        self.occupied.fill(0);
        self.len = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue) -> Vec<Key> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push((30, 0, 0));
        q.push((10, 1, 1));
        q.push((10, 2, 2));
        q.push((20, 3, 3));
        assert_eq!(q.len(), 4);
        let order: Vec<u64> = drain(&mut q).iter().map(|k| k.1).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_time_burst_respects_sequence_across_structures() {
        // A burst at one instant, pushed while the cursor is far behind.
        let mut q = CalendarQueue::new();
        let t = 5 * HORIZON + 3; // deep in overflow territory
        for seq in 0..100 {
            q.push((t, seq, seq as u32));
        }
        let seqs: Vec<u64> = drain(&mut q).iter().map(|k| k.1).collect();
        assert_eq!(seqs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_timers_survive_the_window_slide() {
        let mut q = CalendarQueue::new();
        q.push((1, 0, 0));
        q.push((30_000_000_000, 1, 1)); // an MRAI-scale 30 s timer
        q.push((2, 2, 2));
        assert_eq!(q.pop(), Some((1, 0, 0)));
        assert_eq!(q.pop(), Some((2, 2, 2)));
        // Cursor must teleport across ~110 windows without losing the key.
        assert_eq!(q.pop(), Some((30_000_000_000, 1, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_behind_cursor_is_still_poppable_in_order() {
        let mut q = CalendarQueue::new();
        q.push((10_000_000, 0, 0));
        assert_eq!(q.pop(), Some((10_000_000, 0, 0)));
        // The cursor now sits on the 10 ms bucket; a push earlier in that
        // same bucket (legal: the simulator's `now` is 10 ms, the bucket
        // spans ~131 µs) must not be lost or misordered.
        q.push((10_000_001, 1, 1));
        q.push((10_000_000, 2, 2));
        assert_eq!(q.pop(), Some((10_000_000, 2, 2)));
        assert_eq!(q.pop(), Some((10_000_001, 1, 1)));
    }

    #[test]
    fn matches_heap_on_a_randomized_schedule() {
        // Deterministic xorshift schedule: interleaved pushes and pops with
        // heavy timestamp collisions, diffed against the reference heap.
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
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
            if rnd() % 3 != 0 || cal.len() == 0 {
                // Push: mostly near-future (collision-prone, quantized to
                // 1 µs), sometimes seconds out like protocol timers.
                let dt = if rnd() % 20 == 0 {
                    1_000_000_000 + rnd() % 30_000_000_000
                } else {
                    (rnd() % 5_000) * 1_000
                };
                let key = (now + dt, seq, seq as u32);
                seq += 1;
                cal.push(key);
                heap.push(key);
            } else {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(a, b, "divergence at step {step}");
                now = a.unwrap().0;
            }
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
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
        let mut q = CalendarQueue::new();
        // Park the cursor three buckets before the ring index wraps.
        let base = bucket(NBUCKETS as u64 - 3);
        q.push((base, 0, 0));
        assert_eq!(q.pop(), Some((base, 0, 0)));
        assert_eq!(CalendarQueue::bucket_index(q.cur_start), NBUCKETS - 3);
        // The next occupied buckets sit past the wrap, at ring indices 5
        // and 70 (another bitmap word).
        let (near, far) = (base + bucket(8) + 1, base + bucket(73));
        q.push((far, 1, 1));
        q.push((near, 2, 2));
        assert_eq!(q.next_occupied(), Some(8));
        assert_eq!(q.pop(), Some((near, 2, 2)));
        assert_eq!(CalendarQueue::bucket_index(q.cur_start), 5);
        assert_eq!(q.next_occupied(), Some(65));
        assert_eq!(q.pop(), Some((far, 1, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn jump_reaches_the_farthest_ring_bucket() {
        // The last bucket of the window is NBUCKETS - 1 away: the ring slot
        // just behind the cursor, found by the scan's final round.
        for cursor in [0u64, 1, 63, 64, 1000, NBUCKETS as u64 - 1] {
            let mut q = CalendarQueue::new();
            let base = bucket(cursor);
            q.push((base, 0, 0));
            assert_eq!(q.pop(), Some((base, 0, 0)));
            let last = base + HORIZON - 1;
            q.push((last, 1, 1));
            q.push((last + 1, 2, 2)); // first key of the overflow range
            assert_eq!(q.next_occupied(), Some(NBUCKETS - 1), "cursor {cursor}");
            assert_eq!(q.pop(), Some((last, 1, 1)));
            assert_eq!(q.pop(), Some((last + 1, 2, 2)));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn push_behind_the_cursor_after_a_jump_pops_in_order() {
        let mut q = CalendarQueue::new();
        q.push((1, 0, 0));
        let landed = bucket(700) + 50;
        q.push((landed, 1, 1));
        assert_eq!(q.pop(), Some((1, 0, 0)));
        // Peeking jumps the cursor 700 buckets ahead of the clock ...
        assert_eq!(q.peek(), Some((landed, 1, 1)));
        assert_eq!(q.cur_start, bucket(700));
        // ... so pushes the simulator still may make (at `now` = 1 and
        // anywhere up to the landing bucket) fall behind it, into `front`.
        q.push((bucket(300), 2, 2));
        q.push((2, 3, 3));
        q.push((landed, 4, 4));
        q.push((landed - 1, 5, 5));
        let order: Vec<u64> = drain(&mut q).iter().map(|k| k.1).collect();
        assert_eq!(order, vec![3, 2, 5, 1, 4]);
    }

    #[test]
    fn jump_pulls_overflow_keys_into_the_window() {
        let mut q = CalendarQueue::new();
        q.push((0, 0, 0));
        let ring = bucket(1500) + 7;
        q.push((ring, 1, 1));
        // Beyond the horizon now, inside it once the cursor lands on bucket
        // 1500: both must move to the ring on that one flush.
        let (over_a, over_b) = (bucket(2100), bucket(3000) + 9);
        q.push((over_b, 2, 2));
        q.push((over_a, 3, 3));
        assert_eq!(q.overflow.len(), 2);
        assert_eq!(q.pop(), Some((0, 0, 0)));
        assert_eq!(q.pop(), Some((ring, 1, 1)));
        assert!(q.overflow.is_empty(), "one flush at the landing bucket");
        assert_eq!(q.pop(), Some((over_a, 3, 3)));
        assert_eq!(q.pop(), Some((over_b, 2, 2)));
        // With the ring empty the cursor teleports, and overflow keys that
        // share the landing bucket go straight to `front`.
        let t = bucket(9000);
        q.push((t + 5, 4, 4));
        q.push((t + 3, 5, 5));
        q.push((t + bucket(1), 6, 6));
        assert_eq!(q.pop(), Some((t + 3, 5, 5)));
        assert_eq!(q.cur_start, t);
        assert_eq!(q.pop(), Some((t + 5, 4, 4)));
        assert_eq!(q.pop(), Some((t + bucket(1), 6, 6)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drain_unordered_leaves_no_stale_occupancy() {
        let mut q = CalendarQueue::new();
        for seq in 0..200u64 {
            q.push((bucket(seq * 10 + 1), seq, seq as u32));
        }
        assert!(q.occupied.iter().any(|&w| w != 0));
        assert_eq!(q.drain_unordered().len(), 200);
        assert_eq!(*q.occupied, [0; OCC_WORDS]);
        // A stale bit would send the cursor to an empty bucket short of
        // this far key instead of teleporting to it.
        let far = 40 * HORIZON + 3;
        q.push((far, 0, 0));
        assert_eq!(q.pop(), Some((far, 0, 0)));
        assert_eq!(q.cur_start, far & !(BUCKET_WIDTH - 1));
    }

    #[test]
    fn drain_unordered_returns_everything() {
        let mut q = CalendarQueue::new();
        for seq in 0..500u64 {
            q.push((seq * 1_000_003, seq, seq as u32));
        }
        q.pop();
        let mut keys = q.drain_unordered();
        assert_eq!(keys.len(), 499);
        assert_eq!(q.len(), 0);
        keys.sort_unstable();
        assert_eq!(keys[0].1, 1);
    }
}
