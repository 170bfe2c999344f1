//! Ordering oracle for the event queue: for any interleaving of pushes and
//! pops — equal-timestamp bursts, far-future (overflow-range) timers, long
//! runs of empty calendar buckets, slots recycled out of order — the
//! calendar queue must produce the exact pop sequence of the binary heap it
//! replaced, kept here as [`reference::HeapQueue`].

use proptest::prelude::*;

use bgpsdn_netsim::{EventBody, EventQueue, NodeId, PoolStats, SimTime};

#[derive(Debug, Clone)]
struct NoMsg;
impl bgpsdn_netsim::Message for NoMsg {}

/// `(time_ns, seq, id)` of one popped event; `id` numbers the pushes.
type Fingerprint = (u64, u64, u32);

mod reference {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::Fingerprint;

    /// The original event queue: one binary min-heap over `(time, seq)`,
    /// O(log n) per operation. Sequences are unique, so the id riding in
    /// the key never decides an order.
    #[derive(Default)]
    pub struct HeapQueue {
        heap: BinaryHeap<Reverse<Fingerprint>>,
        next_seq: u64,
    }

    impl HeapQueue {
        pub fn push(&mut self, at: u64, id: u32) {
            self.heap.push(Reverse((at, self.next_seq, id)));
            self.next_seq += 1;
        }

        pub fn pop(&mut self) -> Option<Fingerprint> {
            self.heap.pop().map(|Reverse(k)| k)
        }
    }
}

/// The two queues under one interface, so one replay drives both.
trait Queue {
    fn push(&mut self, at: u64, id: u32);
    fn pop(&mut self) -> Option<Fingerprint>;
}

impl Queue for EventQueue<NoMsg> {
    fn push(&mut self, at: u64, id: u32) {
        EventQueue::push(
            self,
            SimTime::from_nanos(at),
            EventBody::Start { node: NodeId(id) },
        );
    }

    fn pop(&mut self) -> Option<Fingerprint> {
        let e = EventQueue::pop(self)?;
        let EventBody::Start { node } = e.body else {
            unreachable!("the oracle only schedules Start events")
        };
        Some((e.at.as_nanos(), e.seq, node.0))
    }
}

impl Queue for reference::HeapQueue {
    fn push(&mut self, at: u64, id: u32) {
        reference::HeapQueue::push(self, at, id);
    }

    fn pop(&mut self) -> Option<Fingerprint> {
        reference::HeapQueue::pop(self)
    }
}

/// One scripted operation against both queues.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push an event at the given nanosecond timestamp.
    Push(u64),
    /// Push an event this many nanoseconds after the last popped one, the
    /// way a node arms a timer or sends over a link.
    PushAfter(u64),
    /// Pop the earliest event (no-op when empty).
    Pop,
}

/// Timestamps mix three regimes: a dense near band (same-bucket collisions
/// and equal-timestamp bursts), a mid band spanning many buckets, and a
/// far band beyond the calendar's horizon (the overflow heap).
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..50).prop_map(|t| Op::Push(t * 1_000)),
        (0u64..1_000).prop_map(|t| Op::Push(t * 131_072)),
        (0u64..100).prop_map(|t| Op::Push(300_000_000_000 + t * 7)),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

/// A sparse schedule, the shape of a small BGP run: bursts at one instant
/// (gap 0), link- and recompute-scale gaps from 1 µs to 250 ms, and
/// MRAI-scale gaps of whole seconds up to a minute. Quantised gaps collide
/// on timestamps; between events the ring is mostly empty buckets, which
/// the calendar cursor must jump without skipping or reordering anything.
fn sparse_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::PushAfter(0)),
        Just(Op::PushAfter(0)),
        (1u64..=250_000).prop_map(|us| Op::PushAfter(us * 1_000)),
        (1u64..=250).prop_map(|ms| Op::PushAfter(ms * 1_000_000)),
        (1u64..=60).prop_map(|s| Op::PushAfter(s * 1_000_000_000)),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

/// A hold-model step at link scale: mostly a pop paired with a push a few
/// milliseconds on, which keeps the population steady while the clock
/// runs through ring buckets and slots are freed and reused in pop order.
fn hold_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..20_000).prop_map(|us| Op::PushAfter(us * 1_000 + 7)),
        (0u64..20_000).prop_map(|us| Op::PushAfter(us * 1_000 + 7)),
        (1u64..=3).prop_map(|s| Op::PushAfter(s * 1_000_000_000)),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

/// What one replay saw: the pop sequence and the peak in-flight count.
struct Replay {
    popped: Vec<Fingerprint>,
    peak: usize,
    pushes: usize,
}

/// Replay `ops` on `q`, then drain it so every scheduled event is
/// order-checked. Pushes respect the simulator's clock invariant — an event
/// is always scheduled at `now + delay`, never in the past — so timestamps
/// are clamped to the last popped time.
fn replay(q: &mut impl Queue, ops: &[Op]) -> Replay {
    let mut popped = Vec::new();
    let (mut id, mut now, mut live, mut peak) = (0u32, 0u64, 0usize, 0usize);
    for op in ops {
        let at = match *op {
            Op::Push(t) => t.max(now),
            Op::PushAfter(gap) => now + gap,
            Op::Pop => {
                if let Some(e) = q.pop() {
                    now = e.0;
                    live -= 1;
                    popped.push(e);
                }
                continue;
            }
        };
        q.push(at, id);
        id += 1;
        live += 1;
        peak = peak.max(live);
    }
    popped.extend(std::iter::from_fn(|| q.pop()));
    Replay {
        popped,
        peak,
        pushes: id as usize,
    }
}

/// The calendar queue's pops equal the reference heap's and are strictly
/// `(time, seq)`-ordered: FIFO within every burst. Returns the calendar
/// queue's replay and its slab counters.
fn check_against_reference(ops: &[Op]) -> Result<(Replay, PoolStats), TestCaseError> {
    let mut q = EventQueue::<NoMsg>::new();
    let cal = replay(&mut q, ops);
    let heap = replay(&mut reference::HeapQueue::default(), ops);
    prop_assert_eq!(&cal.popped, &heap.popped, "pop sequences diverged");
    prop_assert_eq!(cal.popped.len(), cal.pushes, "every push pops once");
    for w in cal.popped.windows(2) {
        prop_assert!(
            (w[0].0, w[0].1) < (w[1].0, w[1].1),
            "pops out of (time, seq) order: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    Ok((cal, q.pool_stats()))
}

proptest! {
    /// Dense schedules: same-bucket collisions, many buckets, overflow.
    #[test]
    fn calendar_matches_heap_oracle(
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        check_against_reference(&ops)?;
    }

    /// Equal-timestamp bursts pop in exact insertion order.
    #[test]
    fn equal_timestamp_bursts_stay_fifo(
        t in 0u64..400_000_000_000,
        burst in 1usize..200,
    ) {
        let ops: Vec<Op> = std::iter::repeat_n(Op::Push(t), burst).collect();
        let (cal, _) = check_against_reference(&ops)?;
        let ids: Vec<u32> = cal.popped.iter().map(|f| f.2).collect();
        prop_assert_eq!(ids, (0..burst as u32).collect::<Vec<_>>());
    }

    /// Sparse schedules — long runs of empty buckets between events.
    #[test]
    fn sparse_schedule_matches_heap_oracle(
        ops in prop::collection::vec(sparse_op_strategy(), 1..400),
    ) {
        check_against_reference(&ops)?;
    }

    /// Scrambled slot numbering: a scattered fill popped in time order frees
    /// slots in an order unrelated to their numbers, and a long hold-model
    /// interleaving then threads ring lists through whatever the freelist
    /// hands back. Order must not care, and the slab must grow only to the
    /// peak population and recycle every other push.
    #[test]
    fn scrambled_slots_still_pop_in_reference_order(
        fill in prop::collection::vec(0u64..600_000_000, 1..300),
        drain in 0usize..300,
        hold in prop::collection::vec(hold_op_strategy(), 500..3_000),
    ) {
        let ops: Vec<Op> = fill
            .iter()
            .map(|&t| Op::Push(t))
            .chain(std::iter::repeat_n(Op::Pop, drain))
            .chain(hold)
            .collect();
        let (cal, stats) = check_against_reference(&ops)?;
        prop_assert_eq!(stats.allocs_hot as usize, cal.peak);
        prop_assert_eq!(stats.events_pooled as usize, cal.pushes - cal.peak);
    }
}
