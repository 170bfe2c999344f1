//! The update log: what the route collector records, the framework's
//! replacement for Quagga log files. Its readers need only how many prefix
//! events arrived and when the last one did — the collector view of
//! convergence and `collector.updates_logged`. What each router tried
//! during a convergence (path exploration, Tbl. S5) is read from the
//! routers' own `RibChange` trace records.

use bgpsdn_netsim::{SimDuration, SimTime};

/// The collector's log of prefix events: a count and the last instant.
#[derive(Debug, Clone, Default)]
pub struct UpdateLog {
    len: usize,
    last: Option<SimTime>,
}

impl UpdateLog {
    /// Record `prefixes` prefix events received at `time` (times must be
    /// non-decreasing; the collector receives them in order). An UPDATE
    /// that names no prefix leaves the log as it was.
    // detlint: allow test-oracle step proptest_log drives against its reference
    pub fn push(&mut self, time: SimTime, prefixes: usize) {
        if prefixes == 0 {
            return;
        }
        debug_assert!(
            self.last.is_none_or(|t| t <= time),
            "log must be time-ordered"
        );
        self.len += prefixes;
        self.last = Some(time);
    }

    /// Number of prefix events recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing was recorded.
    // detlint: allow len_without_is_empty companion of the public len
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Convergence duration measured from `event` to the last recorded
    /// update (the collector's "convergence instant"), or zero when none
    /// was recorded at or after `event`.
    pub fn convergence_duration(&self, event: SimTime) -> SimDuration {
        self.last
            .filter(|&t| t >= event)
            .map_or(SimDuration::ZERO, |t| t.saturating_since(event))
    }

    /// Forget everything recorded (between experiment phases).
    pub fn clear(&mut self) {
        self.len = 0;
        self.last = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> UpdateLog {
        let mut log = UpdateLog::default();
        for (ms, prefixes) in [(10, 1), (20, 2), (500, 1), (960, 2)] {
            log.push(SimTime::from_millis(ms), prefixes);
        }
        log
    }

    #[test]
    fn counts_and_windows() {
        let log = sample();
        assert_eq!(log.len(), 6);
        // Every window that opens at or before the last event ends there.
        for ms in [0, 10, 20, 500, 960] {
            assert_eq!(
                log.convergence_duration(SimTime::from_millis(ms)),
                SimDuration::from_millis(960 - ms)
            );
        }
    }

    #[test]
    fn convergence_duration_from_event() {
        let log = sample();
        // Event at 400ms; last observed activity at 960ms.
        assert_eq!(
            log.convergence_duration(SimTime::from_millis(400)),
            SimDuration::from_millis(560)
        );
        // Event after the last entry: zero.
        assert_eq!(
            log.convergence_duration(SimTime::from_secs(10)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn an_update_naming_no_prefix_is_not_activity() {
        let mut log = sample();
        log.push(SimTime::from_secs(5), 0);
        assert_eq!(log.len(), 6);
        assert_eq!(
            log.convergence_duration(SimTime::from_millis(400)),
            SimDuration::from_millis(560)
        );
    }

    #[test]
    fn clear_resets() {
        let mut log = sample();
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.convergence_duration(SimTime::ZERO), SimDuration::ZERO);
    }
}
