//! Property-based tests for the collector's update log: the counting log
//! against the `Vec`-backed log it replaced, kept here as `mod reference`.
//! Over random time-ordered programs of pushes and clears, the count and
//! the collector view of convergence must match whether or not the log
//! keeps its entries; a log that keeps them must also give the same
//! entries, path-exploration counts and timelines.

use proptest::prelude::*;

use bgpsdn_bgp::{AsPath, Asn, Prefix};
use bgpsdn_collector::{LogAction, LogEntry, UpdateLog};
use bgpsdn_netsim::SimTime;

/// The update log as it was before it counted: every entry in a `Vec`, and
/// every reader a scan of it.
mod reference {
    use std::collections::BTreeMap;

    use bgpsdn_bgp::{AsPath, Asn, Prefix};
    use bgpsdn_collector::{LogAction, LogEntry};
    use bgpsdn_netsim::{SimDuration, SimTime};

    #[derive(Debug, Default)]
    pub struct UpdateLog {
        entries: Vec<LogEntry>,
    }

    impl UpdateLog {
        pub fn push(&mut self, entry: LogEntry) {
            assert!(
                self.entries.last().is_none_or(|e| e.time <= entry.time),
                "log must be time-ordered"
            );
            self.entries.push(entry);
        }

        pub fn entries(&self) -> &[LogEntry] {
            &self.entries
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }

        fn between(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &LogEntry> {
            self.entries
                .iter()
                .filter(move |e| e.time >= from && e.time < to)
        }

        fn last_activity_since(&self, from: SimTime) -> Option<SimTime> {
            self.entries
                .iter()
                .rev()
                .find(|e| e.time >= from)
                .map(|e| e.time)
        }

        pub fn convergence_duration(&self, event: SimTime) -> SimDuration {
            self.last_activity_since(event)
                .map(|t| t.saturating_since(event))
                .unwrap_or(SimDuration::ZERO)
        }

        pub fn paths_explored(
            &self,
            prefix: Prefix,
            from: SimTime,
            to: SimTime,
        ) -> BTreeMap<Asn, usize> {
            let mut seen: BTreeMap<Asn, Vec<AsPath>> = BTreeMap::new();
            for e in self.between(from, to) {
                if e.prefix != prefix {
                    continue;
                }
                if let LogAction::Announce(path) = &e.action {
                    let paths = seen.entry(e.peer_asn).or_default();
                    if !paths.contains(path) {
                        paths.push(path.clone());
                    }
                }
            }
            seen.into_iter().map(|(a, v)| (a, v.len())).collect()
        }

        pub fn render_timeline(&self, prefix: Prefix) -> String {
            let mut out = format!("timeline for {prefix}\n");
            for e in self.entries.iter().filter(|e| e.prefix == prefix) {
                match &e.action {
                    LogAction::Announce(p) => out.push_str(&format!(
                        "{:>12}  {}  + [{}]\n",
                        e.time.to_string(),
                        e.peer_asn,
                        p
                    )),
                    LogAction::Withdraw => out.push_str(&format!(
                        "{:>12}  {}  - withdrawn\n",
                        e.time.to_string(),
                        e.peer_asn
                    )),
                }
            }
            out
        }

        pub fn clear(&mut self) {
            self.entries.clear();
        }
    }
}

/// The prefixes a program touches.
fn prefixes() -> [Prefix; 3] {
    ["10.0.0.0/16", "10.1.0.0/16", "10.1.0.0/24"].map(|p| p.parse().unwrap())
}

#[derive(Debug, Clone)]
enum Op {
    /// Advance the clock by `dt_ms` (possibly 0: equal instants) and log
    /// one event.
    Push {
        dt_ms: u64,
        peer: u32,
        prefix: usize,
        /// An AS path drawn from a small set, or a withdrawal.
        path: Option<u8>,
    },
    /// A phase boundary.
    Clear,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // One op in twelve is a clear; path 4 is a withdrawal.
    (0u8..12, 0u64..40, 0u32..3, 0usize..3, 0u8..5).prop_map(|(kind, dt_ms, peer, prefix, p)| {
        match kind {
            0 => Op::Clear,
            _ => Op::Push {
                dt_ms,
                peer,
                prefix,
                path: (p < 4).then_some(p),
            },
        }
    })
}

/// Path `i` of the small set; path 3 is long enough to leave the inline
/// part of an `AsPath`.
fn path(i: u8) -> AsPath {
    match i {
        3 => AsPath::from_seq(65001..65010),
        _ => AsPath::from_seq([9, 9 + u32::from(i)]),
    }
}

/// Instants worth asking about: before, inside and after the program.
fn probes(end: SimTime) -> Vec<SimTime> {
    let end_ms = end.as_millis();
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
        let mut kept = UpdateLog::default();
        kept.keep_entries();
        let mut model = reference::UpdateLog::default();
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                Op::Push { dt_ms, peer, prefix, path: p } => {
                    now = SimTime::from_millis(now.as_millis() + dt_ms);
                    let entry = LogEntry {
                        time: now,
                        peer_asn: Asn(65000 + peer),
                        prefix: prefixes()[prefix],
                        action: p.map_or(LogAction::Withdraw, |i| LogAction::Announce(path(i))),
                    };
                    counted.push(entry.clone());
                    kept.push(entry.clone());
                    model.push(entry);
                }
                Op::Clear => {
                    counted.clear();
                    kept.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(counted.len(), model.len());
            prop_assert_eq!(kept.len(), model.len());
            prop_assert_eq!(counted.is_empty(), model.len() == 0);
            prop_assert!(counted.entries().is_empty());
            prop_assert_eq!(kept.entries(), model.entries());
            for event in probes(now) {
                prop_assert_eq!(counted.convergence_duration(event), model.convergence_duration(event));
                prop_assert_eq!(kept.convergence_duration(event), model.convergence_duration(event));
            }
        }
        for prefix in prefixes() {
            let probes = probes(now);
            for (i, &from) in probes.iter().enumerate() {
                for &to in &probes[i..] {
                    prop_assert_eq!(
                        kept.paths_explored(prefix, from, to),
                        model.paths_explored(prefix, from, to)
                    );
                }
            }
            prop_assert_eq!(kept.render_timeline(prefix), model.render_timeline(prefix));
        }
    }
}
