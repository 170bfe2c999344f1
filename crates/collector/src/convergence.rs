//! Convergence measurement.
//!
//! A run has three convergence instants, each printed under one name:
//!
//! * **Measured** — [`measure`]: the last routing-plane change at or after
//!   the event on the simulator's [`ActivityBoard`], read once the run has
//!   gone quiescent (only maintenance events left). A change is a Loc-RIB
//!   or controller route-store change, a flow-table change, an UPDATE
//!   sent, or an UPDATE processed by its receiver. Figure 2 gates it.
//!   `bgpsdn run` prints it as `convergence time`, `bgpsdn report` as
//!   `converged in`.
//! * **Collector view** — [`UpdateLog::convergence_duration`]: when the
//!   route collector last logged an UPDATE, the paper's instrument.
//!   `run` and `report` print it as `collector view`.
//! * **Causal settle** — the last RIB or flow-table change a trigger's
//!   lineage reaches in the trace (`bgpsdn_obs::CausalAnalysis`).
//!   `bgpsdn explain` prints it as `settled in`.
//!
//! The experiment records the first two in each phase's `metrics` line
//! when it closes the phase, so `report` reads them instead of deriving
//! them.
//!
//! [`UpdateLog::convergence_duration`]: crate::UpdateLog::convergence_duration

use bgpsdn_netsim::{ActivityBoard, SimDuration, SimTime};

/// Outcome of a convergence measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// True when the network settled before the deadline.
    pub converged: bool,
    /// From the event to the last routing-plane change at or after it, or
    /// zero when the event changed nothing.
    pub duration: SimDuration,
}

/// Measure convergence of an event that happened at `event`, given the
/// activity board after the simulator went quiescent (or hit its deadline).
pub fn measure(board: &ActivityBoard, event: SimTime, quiescent: bool) -> ConvergenceReport {
    let last = board.last_routing_change().filter(|&t| t >= event);
    ConvergenceReport {
        converged: quiescent,
        duration: last.map_or(SimDuration::ZERO, |t| t.saturating_since(event)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsdn_netsim::Activity;

    #[test]
    fn measure_computes_duration_from_event() {
        let mut board = ActivityBoard::default();
        board.report(SimTime::from_secs(1), Activity::RibChange);
        board.report(SimTime::from_secs(9), Activity::UpdateSent);
        let r = measure(&board, SimTime::from_secs(2), true);
        assert!(r.converged);
        assert_eq!(r.duration, SimDuration::from_secs(7));
    }

    #[test]
    fn measure_ignores_changes_before_event() {
        let mut board = ActivityBoard::default();
        board.report(SimTime::from_secs(1), Activity::RibChange);
        let r = measure(&board, SimTime::from_secs(2), true);
        assert_eq!(r.duration, SimDuration::ZERO);
    }

    #[test]
    fn measure_not_converged_on_deadline() {
        let board = ActivityBoard::default();
        let r = measure(&board, SimTime::ZERO, false);
        assert!(!r.converged);
    }
}
