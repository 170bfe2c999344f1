//! Convergence measurement.
//!
//! One detector: [`measure`] reads the last routing-plane change at or
//! after an event off the simulator's [`ActivityBoard`]. Every way the
//! framework waits for "BGP has converged" ends in it: running until only
//! maintenance events remain (exact, the default) and the stability window
//! of `Experiment::wait_converged_windowed` (poll in fixed steps until a
//! window passes with no routing activity, the way a real testbed must).
//! `bgpsdn report` computes the same instant offline from an artifact's
//! typed events with `bgpsdn_obs::last_routing_change`.

use bgpsdn_netsim::{ActivityBoard, SimDuration, SimTime};

/// Outcome of a convergence measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// True when the network settled before the deadline.
    pub converged: bool,
    /// Time of the last routing-plane change at or after the event
    /// (`None`: the event caused no visible change at all).
    pub last_change: Option<SimTime>,
    /// `last_change - event`, or zero when nothing changed.
    pub duration: SimDuration,
}

/// Measure convergence of an event that happened at `event`, given the
/// activity board after the simulator went quiescent (or hit its deadline).
pub fn measure(board: &ActivityBoard, event: SimTime, quiescent: bool) -> ConvergenceReport {
    let last = board.last_routing_change().filter(|&t| t >= event);
    ConvergenceReport {
        converged: quiescent,
        last_change: last,
        duration: last
            .map(|t| t.saturating_since(event))
            .unwrap_or(SimDuration::ZERO),
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
        assert_eq!(r.last_change, Some(SimTime::from_secs(9)));
        assert_eq!(r.duration, SimDuration::from_secs(7));
    }

    #[test]
    fn measure_ignores_changes_before_event() {
        let mut board = ActivityBoard::default();
        board.report(SimTime::from_secs(1), Activity::RibChange);
        let r = measure(&board, SimTime::from_secs(2), true);
        assert_eq!(r.last_change, None);
        assert_eq!(r.duration, SimDuration::ZERO);
    }

    #[test]
    fn measure_not_converged_on_deadline() {
        let board = ActivityBoard::default();
        let r = measure(&board, SimTime::ZERO, false);
        assert!(!r.converged);
    }
}
