//! Run statistics and activity accounting.
//!
//! A [`Counters`] row holds a node's (or the simulator's) cumulative
//! counts, one slot per [`Counter`]; [`SimStats`] is the simulator's row
//! read as one value. The [`ActivityBoard`] is the routing-plane
//! measurement surface: nodes report semantic events ("RIB changed", "flow
//! installed") via their context, and convergence detectors read the board
//! instead of grovelling through traces.

use std::cell::Cell;
use std::rc::Rc;

use bgpsdn_obs::Counter;

use crate::time::SimTime;

/// One cumulative counter row, indexed by [`Counter`]. It is a shared
/// handle: a node keeps its row, and the [`Ctx`](crate::Ctx) of each of its
/// callbacks counts into a clone of it.
#[derive(Debug, Clone)]
pub struct Counters(Rc<[Cell<u64>]>);

impl Default for Counters {
    fn default() -> Counters {
        Counters((0..Counter::COUNT).map(|_| Cell::new(0)).collect())
    }
}

impl Counters {
    pub(crate) fn add(&self, id: Counter, delta: u64) {
        let slot = &self.0[id as usize];
        slot.set(slot.get() + delta);
    }

    /// Counter `id`'s value.
    pub fn get(&self, id: Counter) -> u64 {
        self.0[id as usize].get()
    }
}

/// The engine counters of one run, read from the simulator's row.
#[derive(Debug, Clone, Copy)]
pub struct SimStats {
    /// Events processed by the main loop.
    pub events_processed: u64,
    /// Messages delivered to a node.
    pub msgs_delivered: u64,
    /// Messages dropped because the link was down at send or delivery time.
    pub msgs_dropped_link_down: u64,
    /// Messages dropped by the link's random-loss model.
    pub msgs_dropped_loss: u64,
    /// Messages dropped because the destination node was crashed.
    pub msgs_dropped_node_down: u64,
    /// Timer firings dispatched to nodes.
    pub timers_fired: u64,
    /// Timer firings suppressed because the timer was cancelled or re-armed.
    pub timers_stale: u64,
    /// Total encoded bytes moved over links.
    pub bytes_delivered: u64,
}

/// Semantic routing-plane activity kinds reported by nodes. Every kind
/// means "the routing plane is still moving" for convergence measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// A node's routing table (Loc-RIB or controller route store) changed.
    RibChange,
    /// A BGP UPDATE was sent.
    UpdateSent,
    /// A BGP UPDATE reached the router or controller that processes it.
    UpdateReceived,
    /// A flow rule was installed, modified or removed on a switch.
    FlowInstalled,
}

impl Activity {
    const COUNT: usize = 4;
}

/// Per-kind counters and last-seen timestamps for semantic activity.
#[derive(Debug, Clone, Default)]
pub struct ActivityBoard {
    counts: [u64; Activity::COUNT],
    last: [Option<SimTime>; Activity::COUNT],
}

impl ActivityBoard {
    /// Record one occurrence of `kind` at `at`.
    // detlint: allow test-oracle step the collector's convergence tests drive
    pub fn report(&mut self, at: SimTime, kind: Activity) {
        let i = kind as usize;
        self.counts[i] += 1;
        self.last[i] = Some(at);
    }

    /// Total occurrences of `kind` so far.
    pub fn count(&self, kind: Activity) -> u64 {
        self.counts[kind as usize]
    }

    /// Timestamp of the latest occurrence of `kind`.
    // detlint: allow test-oracle read-only view causal_forensics checks
    pub fn last(&self, kind: Activity) -> Option<SimTime> {
        self.last[kind as usize]
    }

    /// Timestamp of the latest routing-plane change of any kind.
    pub fn last_routing_change(&self) -> Option<SimTime> {
        self.last.iter().flatten().copied().max()
    }

    /// Reset all counters and timestamps (used between experiment phases so
    /// each phase measures only its own activity). A convergence
    /// measurement of "last change after the event" must reset at the phase
    /// start, not after it, or the previous phase's activity leaks into it.
    pub(crate) fn reset(&mut self) {
        *self = ActivityBoard::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_counts_and_timestamps() {
        let mut b = ActivityBoard::default();
        assert_eq!(b.count(Activity::RibChange), 0);
        assert_eq!(b.last_routing_change(), None);

        b.report(SimTime::from_millis(5), Activity::RibChange);
        b.report(SimTime::from_millis(7), Activity::FlowInstalled);
        b.report(SimTime::from_millis(9), Activity::UpdateSent);

        assert_eq!(b.count(Activity::RibChange), 1);
        assert_eq!(b.last(Activity::RibChange), Some(SimTime::from_millis(5)));
        assert_eq!(
            b.last(Activity::FlowInstalled),
            Some(SimTime::from_millis(7))
        );
        // The latest report of any kind.
        assert_eq!(b.last_routing_change(), Some(SimTime::from_millis(9)));

        b.reset();
        assert_eq!(b.count(Activity::UpdateSent), 0);
        assert_eq!(b.last_routing_change(), None);
    }

    #[test]
    fn routing_change_classification() {
        // Every kind moves the routing-change instant.
        for kind in [
            Activity::RibChange,
            Activity::UpdateSent,
            Activity::UpdateReceived,
            Activity::FlowInstalled,
        ] {
            let mut b = ActivityBoard::default();
            b.report(SimTime::from_millis(3), kind);
            assert_eq!(b.last_routing_change(), Some(SimTime::from_millis(3)));
            assert_eq!(b.count(kind), 1);
        }
    }
}
