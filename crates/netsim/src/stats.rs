//! Run statistics and activity accounting.
//!
//! [`SimStats`] counts raw engine events. The [`ActivityBoard`] is the
//! routing-plane measurement surface: nodes report semantic events
//! ("RIB changed", "flow installed") via their context, and convergence
//! detectors read the board instead of grovelling through traces.

use crate::time::SimTime;

/// Raw engine counters for one run.
#[derive(Debug, Clone, Default)]
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

/// Semantic routing-plane activity kinds reported by nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// A node's routing table (Loc-RIB or controller route store) changed.
    RibChange,
    /// A node's forwarding state (FIB or flow table) changed.
    FibChange,
    /// A BGP UPDATE was sent.
    UpdateSent,
    /// A BGP UPDATE was received.
    UpdateReceived,
    /// A flow rule was installed, modified or removed on a switch.
    FlowInstalled,
    /// A BGP (or controller) session reached Established.
    SessionUp,
    /// A session was torn down.
    SessionDown,
    /// A prefix was originated by its owner.
    PrefixOriginated,
    /// A prefix was withdrawn by its owner.
    PrefixWithdrawn,
    /// Controller ran a route recomputation.
    ControllerRecompute,
}

impl Activity {
    pub(crate) const COUNT: usize = 10;

    pub(crate) fn index(self) -> usize {
        match self {
            Activity::RibChange => 0,
            Activity::FibChange => 1,
            Activity::UpdateSent => 2,
            Activity::UpdateReceived => 3,
            Activity::FlowInstalled => 4,
            Activity::SessionUp => 5,
            Activity::SessionDown => 6,
            Activity::PrefixOriginated => 7,
            Activity::PrefixWithdrawn => 8,
            Activity::ControllerRecompute => 9,
        }
    }

    /// Kinds that count as "the routing plane is still moving" for
    /// convergence measurement.
    pub fn is_routing_change(self) -> bool {
        matches!(
            self,
            Activity::RibChange
                | Activity::FibChange
                | Activity::UpdateSent
                | Activity::UpdateReceived
                | Activity::FlowInstalled
        )
    }
}

/// Per-kind counters and last-seen timestamps for semantic activity.
#[derive(Debug, Clone)]
pub struct ActivityBoard {
    counts: [u64; Activity::COUNT],
    last: [Option<SimTime>; Activity::COUNT],
    last_routing_change: Option<SimTime>,
}

impl Default for ActivityBoard {
    fn default() -> Self {
        ActivityBoard {
            counts: [0; Activity::COUNT],
            last: [None; Activity::COUNT],
            last_routing_change: None,
        }
    }
}

impl ActivityBoard {
    /// Record one occurrence of `kind` at `at`.
    pub fn report(&mut self, at: SimTime, kind: Activity) {
        let i = kind.index();
        self.counts[i] += 1;
        self.last[i] = Some(at);
        if kind.is_routing_change() {
            self.last_routing_change = Some(at);
        }
    }

    /// Total occurrences of `kind` so far.
    pub fn count(&self, kind: Activity) -> u64 {
        self.counts[kind.index()]
    }

    /// Timestamp of the latest occurrence of `kind`.
    pub fn last(&self, kind: Activity) -> Option<SimTime> {
        self.last[kind.index()]
    }

    /// Timestamp of the latest routing-plane change of any kind.
    pub fn last_routing_change(&self) -> Option<SimTime> {
        self.last_routing_change
    }

    /// Reset all counters and timestamps (used between experiment phases so
    /// each phase measures only its own activity). A convergence
    /// measurement of "last change after the event" must reset at the phase
    /// start, not after it, or the previous phase's activity leaks into it.
    pub fn reset(&mut self) {
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
        b.report(SimTime::from_millis(9), Activity::UpdateSent);
        b.report(SimTime::from_millis(7), Activity::SessionUp);

        assert_eq!(b.count(Activity::RibChange), 1);
        assert_eq!(b.last(Activity::RibChange), Some(SimTime::from_millis(5)));
        // SessionUp is not a routing change
        assert_eq!(b.last_routing_change(), Some(SimTime::from_millis(9)));
        assert_eq!(b.last(Activity::SessionUp), Some(SimTime::from_millis(7)));

        b.reset();
        assert_eq!(b.count(Activity::UpdateSent), 0);
        assert_eq!(b.last_routing_change(), None);
    }

    #[test]
    fn routing_change_classification() {
        assert!(Activity::RibChange.is_routing_change());
        assert!(Activity::FlowInstalled.is_routing_change());
        assert!(!Activity::SessionUp.is_routing_change());
        assert!(!Activity::PrefixOriginated.is_routing_change());
        assert!(!Activity::ControllerRecompute.is_routing_change());
    }
}
