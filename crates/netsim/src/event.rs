//! The event queue.
//!
//! Ordering is by `(time, sequence)`: the monotone sequence number breaks
//! ties deterministically, so two events scheduled for the same instant
//! fire in the order they were scheduled, on every platform, every run.
//! The queue also tracks how many *progress* events it holds so that
//! quiescence detection ("only keepalives left") is O(1).
//!
//! Each pending event is one slab record — time, sequence, payload
//! ([`EventBody`]) and a list link — ordered by an O(1)-amortized calendar
//! queue whose ring buckets are lists threaded through those links. Freed
//! records are recycled through a freelist, so the steady-state
//! schedule→fire cycle performs no allocation at all: a record only comes
//! into existence when the in-flight population exceeds everything seen
//! before (and the [`with_capacity`](EventQueue::with_capacity)
//! reservation).

use crate::link::LinkId;
use crate::node::{Message, NodeId, TimerClass, TimerToken};
use crate::queue::CalendarQueue;
use crate::time::SimTime;

/// What happens when an event fires.
///
/// Public (together with [`EventQueue`]) so out-of-crate harnesses — the
/// ordering-oracle property test and the throughput bench's hot-loop
/// replica — can drive the queue with realistic payloads; the simulator
/// itself constructs these internally.
#[derive(Debug, Clone)]
pub enum EventBody<M> {
    /// Deliver `msg` to `to`; `from` is the physical sender.
    Deliver {
        /// Link the message travelled over.
        link: LinkId,
        /// Physical sender.
        from: NodeId,
        /// Destination node.
        to: NodeId,
        /// The payload.
        msg: M,
    },
    /// Fire a named node timer. `gen` must match the currently armed
    /// generation, otherwise the timer was cancelled or re-armed and this
    /// firing is stale.
    Timer {
        /// Owning node.
        node: NodeId,
        /// Which of the node's timers fired.
        token: TimerToken,
        /// Progress or maintenance (quiescence accounting).
        class: TimerClass,
        /// Arming generation; stale firings are suppressed.
        gen: u64,
    },
    /// Fire a one-shot node timer: nothing can supersede it, only a crash
    /// of its node makes it stale.
    OneShot {
        /// Owning node.
        node: NodeId,
        /// The token handed back to the node.
        token: TimerToken,
        /// Progress or maintenance (quiescence accounting).
        class: TimerClass,
        /// The node's crash count when the firing was scheduled.
        epoch: u64,
    },
    /// Administratively set a link up or down.
    LinkAdmin {
        /// The link.
        link: LinkId,
        /// New admin state.
        up: bool,
    },
    /// Administratively crash (`up = false`) or restore (`up = true`) a node.
    NodeAdmin {
        /// The node.
        node: NodeId,
        /// New admin state.
        up: bool,
    },
    /// Set a link's random per-message loss probability at a scheduled
    /// time. Carried as parts-per-million so fault schedules stay integer
    /// (and therefore `Eq`/hashable and byte-deterministic).
    LinkLoss {
        /// The link.
        link: LinkId,
        /// New loss probability in parts-per-million (0..=1_000_000).
        loss_ppm: u32,
    },
    /// Invoke a node's `on_start`.
    Start {
        /// The node to start.
        node: NodeId,
    },
}

impl<M> EventBody<M> {
    /// Maintenance events don't block quiescence.
    fn is_maintenance(&self) -> bool {
        matches!(
            self,
            EventBody::Timer {
                class: TimerClass::Maintenance,
                ..
            } | EventBody::OneShot {
                class: TimerClass::Maintenance,
                ..
            }
        )
    }
}

/// A popped event: when it fires and what it does.
#[derive(Debug)]
pub struct Event<M> {
    /// Firing time.
    pub at: SimTime,
    /// Scheduling sequence number — the deterministic tie-break.
    pub seq: u64,
    /// What the event does.
    pub body: EventBody<M>,
}

/// Allocation accounting for the event hot path, reported as the
/// `core.sim.events_pooled` / `core.sim.allocs_hot` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Events whose slot was recycled from the freelist (no allocation).
    pub events_pooled: u64,
    /// Events whose slot had to be created past the pre-sized reservation.
    pub allocs_hot: u64,
}

/// Deterministic event queue with O(1) progress accounting.
pub struct EventQueue<M> {
    events: CalendarQueue<EventBody<M>>,
    next_seq: u64,
    progress: usize,
}

impl<M: Message> EventQueue<M> {
    /// A queue with `capacity` event slots pre-reserved, so a simulation
    /// whose in-flight event count is predictable (roughly proportional to
    /// nodes + links) never reallocates the slab mid-dispatch.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            events: CalendarQueue::with_capacity(capacity),
            next_seq: 0,
            progress: 0,
        }
    }

    /// Schedule `body` at `at`.
    pub fn push(&mut self, at: SimTime, body: EventBody<M>) {
        if !body.is_maintenance() {
            self.progress += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(at.as_nanos(), seq, body);
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event<M>> {
        let (t, seq, body) = self.events.pop()?;
        if !body.is_maintenance() {
            self.progress -= 1;
        }
        Some(Event {
            at: SimTime::from_nanos(t),
            seq,
            body,
        })
    }

    /// Time of the earliest pending event.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        self.events.peek().map(SimTime::from_nanos)
    }

    /// True when every pending event is maintenance-class — i.e. the
    /// network has no protocol work left.
    pub(crate) fn only_maintenance(&self) -> bool {
        self.progress == 0
    }

    /// Slab recycling counters for the `core.sim.*` metrics.
    // detlint: allow test-oracle read-only view proptest_queue checks against its reference
    pub fn pool_stats(&self) -> PoolStats {
        self.events.pool_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug, Clone)]
    struct NoMsg;
    impl Message for NoMsg {}

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn start(n: u32) -> EventBody<NoMsg> {
        EventBody::Start { node: NodeId(n) }
    }

    #[test]
    fn with_capacity_preallocates() {
        let mut q: EventQueue<NoMsg> = EventQueue::with_capacity(64);
        for n in 0..64u32 {
            q.push(t(n as u64), start(n));
        }
        assert_eq!(q.pool_stats().allocs_hot, 0, "reserved slots are pre-paid");
        q.push(t(64), start(64));
        assert_eq!(q.pool_stats().allocs_hot, 1, "the reservation is exact");
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::with_capacity(0);
        q.push(t(30), start(0));
        q.push(t(10), start(1));
        q.push(t(20), start(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::with_capacity(0);
        for n in 0..10u32 {
            q.push(t(5), start(n));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.body {
                EventBody::Start { node } => node.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn progress_accounting() {
        let mut q: EventQueue<NoMsg> = EventQueue::with_capacity(0);
        assert!(q.only_maintenance());
        q.push(
            t(1),
            EventBody::Timer {
                node: NodeId(0),
                token: TimerToken(1),
                class: TimerClass::Maintenance,
                gen: 0,
            },
        );
        assert!(q.only_maintenance(), "keepalive alone is quiescent");
        q.push(
            t(2),
            EventBody::Timer {
                node: NodeId(0),
                token: TimerToken(2),
                class: TimerClass::Progress,
                gen: 0,
            },
        );
        assert!(!q.only_maintenance());
        q.pop(); // maintenance popped first (earlier)
        assert!(!q.only_maintenance());
        q.pop();
        assert!(q.only_maintenance());
        assert!(q.pop().is_none());
    }

    #[test]
    fn slots_recycle_through_the_freelist() {
        let mut q: EventQueue<NoMsg> = EventQueue::with_capacity(2);
        q.push(t(1), start(0));
        q.push(t(2), start(1));
        assert_eq!(q.pool_stats(), PoolStats::default());
        for round in 0..100u64 {
            let e = q.pop().unwrap();
            assert_eq!(e.at.as_nanos() / 1_000_000, round + 1);
            q.push(t(round + 3), start(0));
        }
        let stats = q.pool_stats();
        assert_eq!(stats.events_pooled, 100, "steady state recycles slots");
        assert_eq!(stats.allocs_hot, 0, "steady state never allocates");
    }

    #[test]
    fn allocs_past_reservation_are_counted() {
        let mut q: EventQueue<NoMsg> = EventQueue::with_capacity(4);
        for n in 0..10u32 {
            q.push(t(n as u64), start(n));
        }
        assert_eq!(q.pool_stats().allocs_hot, 6);
    }
}
