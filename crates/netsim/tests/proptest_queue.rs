//! Ordering oracle for the calendar event queue: for any interleaving of
//! pushes and pops — equal-timestamp bursts, far-future (overflow-range)
//! timers, mid-stream backend switches — the calendar backend must produce
//! the exact pop sequence of the binary-heap reference, and the slab's
//! pooling counters must be identical because storage is shared by both
//! backends.

use proptest::prelude::*;

use bgpsdn_netsim::{Event, EventBody, EventQueue, NodeId, QueueBackend, SimTime};

#[derive(Debug, Clone)]
struct NoMsg;
impl bgpsdn_netsim::Message for NoMsg {}

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
/// far band beyond the calendar's day horizon (the overflow heap).
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

fn fingerprint(e: &Event<NoMsg>) -> (u64, u64, u32) {
    let node = match e.body {
        EventBody::Start { node } => node.0,
        _ => unreachable!("oracle only schedules Start events"),
    };
    (e.at.as_nanos(), e.seq, node)
}

/// Replay `ops` on a queue with the given backend; return the pop sequence
/// and final pool counters. Pushes respect the simulator's clock invariant
/// — an event is always scheduled at `now + delay`, never in the past — so
/// timestamps are clamped to the last popped time.
fn replay(
    ops: &[Op],
    backend: QueueBackend,
    flip_at: Option<usize>,
) -> (Vec<(u64, u64, u32)>, u64, u64) {
    let mut q: EventQueue<NoMsg> = EventQueue::new();
    q.set_backend(backend);
    let mut popped = Vec::new();
    let mut id = 0u32;
    let mut now = 0u64;
    for (i, op) in ops.iter().enumerate() {
        if flip_at == Some(i) {
            let other = match q.backend() {
                QueueBackend::Calendar => QueueBackend::Heap,
                QueueBackend::Heap => QueueBackend::Calendar,
            };
            q.set_backend(other);
        }
        let at = match *op {
            Op::Push(t) => t.max(now),
            Op::PushAfter(gap) => now + gap,
            Op::Pop => {
                if let Some(e) = q.pop() {
                    now = e.at.as_nanos();
                    popped.push(fingerprint(&e));
                }
                continue;
            }
        };
        q.push(
            SimTime::from_nanos(at),
            EventBody::Start { node: NodeId(id) },
        );
        id += 1;
    }
    // Drain the remainder so every scheduled event is order-checked.
    while let Some(e) = q.pop() {
        popped.push(fingerprint(&e));
    }
    let stats = q.pool_stats();
    (popped, stats.events_pooled, stats.allocs_hot)
}

proptest! {
    /// Calendar and heap backends pop identical sequences for any schedule.
    #[test]
    fn calendar_matches_heap_oracle(
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let (cal, cal_pooled, cal_hot) = replay(&ops, QueueBackend::Calendar, None);
        let (heap, heap_pooled, heap_hot) = replay(&ops, QueueBackend::Heap, None);
        prop_assert_eq!(&cal, &heap, "pop sequences diverged");
        // Slab traffic is backend-independent: same pushes, same recycling.
        prop_assert_eq!(cal_pooled, heap_pooled);
        prop_assert_eq!(cal_hot, heap_hot);

        // The sequence itself is sorted by (time, seq) — FIFO within bursts.
        for w in cal.windows(2) {
            prop_assert!(
                (w[0].0, w[0].1) < (w[1].0, w[1].1),
                "pops out of (time, seq) order: {:?} then {:?}", w[0], w[1]
            );
        }
    }

    /// Equal-timestamp bursts pop in exact insertion order on both backends.
    #[test]
    fn equal_timestamp_bursts_stay_fifo(
        t in 0u64..400_000_000_000,
        burst in 1usize..200,
    ) {
        let ops: Vec<Op> = std::iter::repeat_n(Op::Push(t), burst).collect();
        let (cal, _, _) = replay(&ops, QueueBackend::Calendar, None);
        let (heap, _, _) = replay(&ops, QueueBackend::Heap, None);
        prop_assert_eq!(&cal, &heap);
        let nodes: Vec<u32> = cal.iter().map(|f| f.2).collect();
        prop_assert_eq!(nodes, (0..burst as u32).collect::<Vec<_>>());
    }

    /// Switching backends mid-stream never reorders the pending events.
    #[test]
    fn backend_switch_preserves_pending_order(
        ops in prop::collection::vec(op_strategy(), 1..300),
        flip_frac in 0u64..100,
    ) {
        let flip = Some((ops.len() as u64 * flip_frac / 100) as usize);
        let (flipped, _, _) = replay(&ops, QueueBackend::Calendar, flip);
        let (straight, _, _) = replay(&ops, QueueBackend::Calendar, None);
        prop_assert_eq!(flipped, straight);
    }

    /// Sparse schedules — long runs of empty buckets between events — pop
    /// identically on both backends, with and without a mid-stream switch.
    #[test]
    fn sparse_schedule_matches_heap_oracle(
        ops in prop::collection::vec(sparse_op_strategy(), 1..400),
        flip_frac in 0u64..100,
    ) {
        let flip = Some((ops.len() as u64 * flip_frac / 100) as usize);
        let (heap, _, _) = replay(&ops, QueueBackend::Heap, None);
        let (cal, _, _) = replay(&ops, QueueBackend::Calendar, None);
        let (flipped, _, _) = replay(&ops, QueueBackend::Calendar, flip);
        prop_assert_eq!(&cal, &heap, "pop sequences diverged");
        prop_assert_eq!(&flipped, &heap, "backend switch reordered events");
    }
}
