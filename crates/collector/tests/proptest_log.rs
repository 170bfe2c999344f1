//! Property-based tests for the collector's update log: the counting log
//! against the `Vec`-backed log it replaced, kept here as `mod reference`
//! and reduced to what its readers read, one instant per prefix event.
//! Over random time-ordered programs of updates and clears, the count and
//! the collector view of convergence must match.

use proptest::prelude::*;

use bgpsdn_collector::UpdateLog;
use bgpsdn_netsim::{SimDuration, SimTime};

/// The update log as it was before it counted: every prefix event in a
/// `Vec`, and every reader a scan of it.
mod reference {
    use bgpsdn_netsim::{SimDuration, SimTime};

    #[derive(Debug, Default)]
    pub struct UpdateLog {
        times: Vec<SimTime>,
    }

    impl UpdateLog {
        pub fn push(&mut self, time: SimTime) {
            assert!(
                self.times.last().is_none_or(|&t| t <= time),
                "log must be time-ordered"
            );
            self.times.push(time);
        }

        pub fn len(&self) -> usize {
            self.times.len()
        }

        pub fn convergence_duration(&self, event: SimTime) -> SimDuration {
            self.times
                .iter()
                .rev()
                .find(|&&t| t >= event)
                .map(|t| t.saturating_since(event))
                .unwrap_or(SimDuration::ZERO)
        }

        pub fn clear(&mut self) {
            self.times.clear();
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Advance the clock by `dt_ms` (possibly 0: equal instants) and log
    /// one UPDATE naming `prefixes` prefixes (possibly none).
    Update { dt_ms: u64, prefixes: usize },
    /// A phase boundary.
    Clear,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // One op in twelve is a clear.
    (0u8..12, 0u64..40, 0usize..4).prop_map(|(kind, dt_ms, prefixes)| match kind {
        0 => Op::Clear,
        _ => Op::Update { dt_ms, prefixes },
    })
}

/// Instants worth asking about: before, inside and after the program.
fn probes(end: SimTime) -> Vec<SimTime> {
    let end_ms = end.as_nanos() / 1_000_000;
    [0, end_ms / 3, end_ms / 2, end_ms, end_ms + 1]
        .into_iter()
        .map(SimTime::from_millis)
        .collect()
}

proptest! {
    #[test]
    fn the_counting_log_reads_like_the_entry_log(
        ops in prop::collection::vec(arb_op(), 0..80),
    ) {
        let mut counted = UpdateLog::default();
        let mut model = reference::UpdateLog::default();
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                Op::Update { dt_ms, prefixes } => {
                    now += SimDuration::from_millis(dt_ms);
                    counted.push(now, prefixes);
                    for _ in 0..prefixes {
                        model.push(now);
                    }
                }
                Op::Clear => {
                    counted.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(counted.len(), model.len());
            prop_assert_eq!(counted.is_empty(), model.len() == 0);
            for event in probes(now) {
                prop_assert_eq!(counted.convergence_duration(event), model.convergence_duration(event));
            }
        }
    }
}
