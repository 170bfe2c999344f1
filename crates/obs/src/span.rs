//! Lightweight timing spans.
//!
//! A [`WallSpan`] wraps `Instant::now()` behind an enabled flag so disabled
//! profiling costs one branch and no clock read. Sim-time spans need no
//! helper: subtract two `SimTime`s.

use std::time::Instant;

/// A wall-clock span; zero-cost when started disabled.
#[derive(Debug, Clone, Copy)]
pub struct WallSpan {
    start: Option<Instant>,
}

impl WallSpan {
    /// Start a span (reads the clock only when `enabled`).
    #[inline]
    pub fn start(enabled: bool) -> WallSpan {
        WallSpan {
            start: if enabled { Some(Instant::now()) } else { None },
        }
    }

    /// Nanoseconds since start, or None when started disabled.
    #[inline]
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.start
            .map(|s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_reports_nothing() {
        assert_eq!(WallSpan::start(false).elapsed_ns(), None);
    }

    #[test]
    fn enabled_span_measures() {
        let s = WallSpan::start(true);
        let ns = s.elapsed_ns().unwrap();
        assert!(ns < 10_000_000_000, "clock went backwards? {ns}");
    }
}
