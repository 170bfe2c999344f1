//! Convergence measurement.
//!
//! One detector: [`measure`] reads the last routing-plane change at or
//! after an event off the simulator's [`ActivityBoard`], once the run has
//! gone quiescent (only maintenance events left). On the board, a change
//! is a Loc-RIB or controller route-store change, a flow-table change, an
//! UPDATE sent, or an UPDATE processed by its receiver.
//!
//! `bgpsdn report` reads a second instant offline:
//! `bgpsdn_obs::last_routing_change` over an artifact's typed events,
//! where only RIB and flow-table changes count. Every traced change has
//! its board report in the same callback, so the report's instant is at
//! or before this one; it is earlier when the last board activity is an
//! UPDATE that changed no table (`bgpsdn run --event withdrawal --sdn 0`
//! measures 296.262 s, and `bgpsdn report` reads 296.244 s).

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
