//! Run statistics, activity accounting and summary statistics.
//!
//! [`SimStats`] counts raw engine events. The [`ActivityBoard`] is the
//! routing-plane measurement surface: nodes report semantic events
//! ("RIB changed", "flow installed") via their context, and convergence
//! detectors read the board instead of grovelling through traces.
//! [`Summary`] computes the five-number boxplot summaries the paper's
//! Figure 2 reports.

use bgpsdn_obs::quantile;

use crate::time::{SimDuration, SimTime};

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

    /// Latest timestamp across the given kinds — the maximum of the
    /// per-kind `last` timestamps, regardless of the order reports arrived
    /// in (reporting kind A after kind B with an earlier timestamp cannot
    /// mask B's later one).
    ///
    /// Interaction with [`ActivityBoard::reset`]: a reset clears every
    /// per-kind timestamp, so after a phase boundary `last_of` returns
    /// `None` until the *new* phase reports one of `kinds`. Convergence
    /// measurements relying on "last change after the event" must therefore
    /// reset at the phase start, not after it, or pre-event activity from
    /// the previous phase would leak into the result.
    pub fn last_of(&self, kinds: &[Activity]) -> Option<SimTime> {
        kinds.iter().filter_map(|&k| self.last(k)).max()
    }

    /// Reset all counters and timestamps (used between experiment phases so
    /// each phase measures only its own activity). See [`ActivityBoard::last_of`]
    /// for the phase-boundary contract.
    pub fn reset(&mut self) {
        *self = ActivityBoard::default();
    }
}

/// Five-number summary (plus mean) over a set of durations — exactly what a
/// boxplot row in the paper's Figure 2 needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// First quartile (linear interpolation).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarize raw values. Returns `None` for an empty input.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in summary input"));
        Some(Summary {
            n: v.len(),
            min: v[0],
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
            max: v[v.len() - 1],
            mean: v.iter().sum::<f64>() / v.len() as f64,
        })
    }

    /// Summarize durations, in seconds.
    pub fn of_durations(values: &[SimDuration]) -> Option<Summary> {
        let secs: Vec<f64> = values.iter().map(|d| d.as_secs_f64()).collect();
        Summary::of(&secs)
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} min={:.3} q1={:.3} med={:.3} q3={:.3} max={:.3} mean={:.3}",
            self.n, self.min, self.q1, self.median, self.q3, self.max, self.mean
        )
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
        assert_eq!(
            b.last_of(&[Activity::RibChange, Activity::SessionUp]),
            Some(SimTime::from_millis(7))
        );

        b.reset();
        assert_eq!(b.count(Activity::UpdateSent), 0);
        assert_eq!(b.last_routing_change(), None);
    }

    #[test]
    fn last_of_is_max_across_kinds_reported_out_of_order() {
        let mut b = ActivityBoard::default();
        // Reports arrive out of chronological order across kinds: the
        // latest *timestamp* (t=20, FibChange) is reported first, then an
        // earlier one for a different kind. last_of must still pick the
        // true max, not the most recently reported value.
        b.report(SimTime::from_millis(20), Activity::FibChange);
        b.report(SimTime::from_millis(3), Activity::RibChange);
        b.report(SimTime::from_millis(11), Activity::UpdateSent);
        assert_eq!(
            b.last_of(&[
                Activity::RibChange,
                Activity::FibChange,
                Activity::UpdateSent
            ]),
            Some(SimTime::from_millis(20))
        );
        // Kinds never reported contribute nothing.
        assert_eq!(
            b.last_of(&[Activity::RibChange, Activity::SessionDown]),
            Some(SimTime::from_millis(3))
        );
        assert_eq!(b.last_of(&[Activity::SessionDown]), None);
        assert_eq!(b.last_of(&[]), None);

        // reset() clears every timestamp: a new phase starts from None and
        // only sees its own activity.
        b.reset();
        assert_eq!(b.last_of(&[Activity::FibChange]), None);
        b.report(SimTime::from_millis(25), Activity::FibChange);
        assert_eq!(
            b.last_of(&[Activity::FibChange, Activity::UpdateSent]),
            Some(SimTime::from_millis(25))
        );
    }

    #[test]
    fn routing_change_classification() {
        assert!(Activity::RibChange.is_routing_change());
        assert!(Activity::FlowInstalled.is_routing_change());
        assert!(!Activity::SessionUp.is_routing_change());
        assert!(!Activity::PrefixOriginated.is_routing_change());
        assert!(!Activity::ControllerRecompute.is_routing_change());
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::of(&[2.0]).unwrap();
        assert_eq!(s.min, 2.0);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.n, 1);
    }

    #[test]
    fn summary_known_quartiles() {
        // 0..=8: median 4, q1 2, q3 6 under type-7 quantiles.
        let v: Vec<f64> = (0..9).map(|x| x as f64).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.min, 0.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.median, 4.0);
        assert_eq!(s.q3, 6.0);
        assert_eq!(s.max, 8.0);
        assert_eq!(s.mean, 4.0);
    }

    #[test]
    fn summary_interpolates() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.25), 1.75);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of_durations(&[]).is_none());
    }

    #[test]
    fn summary_of_durations_converts_to_seconds() {
        let s = Summary::of_durations(&[
            SimDuration::from_millis(500),
            SimDuration::from_millis(1500),
        ])
        .unwrap();
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 1.5);
        assert_eq!(s.median, 1.0);
    }
}
