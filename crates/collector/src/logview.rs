//! The update log: what the route collector records and what the analysis
//! tools consume — the framework's replacement for Quagga log files plus the
//! paper's "automatic log file analysis".

use std::collections::BTreeMap;

use bgpsdn_bgp::{AsPath, Asn, Prefix};
use bgpsdn_netsim::{NodeId, SimDuration, SimTime};

/// What an update said about one prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogAction {
    /// Announced with this AS path.
    Announce(AsPath),
    /// Withdrawn.
    Withdraw,
}

/// One prefix-level event recorded by the collector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// When it was received at the collector.
    pub time: SimTime,
    /// The monitored router (logical session endpoint).
    pub peer: NodeId,
    /// The monitored router's ASN.
    pub peer_asn: Asn,
    /// Affected prefix.
    pub prefix: Prefix,
    /// Announce or withdraw.
    pub action: LogAction,
}

/// An append-only log of prefix events with analysis helpers.
#[derive(Debug, Clone, Default)]
pub struct UpdateLog {
    entries: Vec<LogEntry>,
}

impl UpdateLog {
    /// Append one entry (times must be non-decreasing; the collector
    /// receives them in order).
    pub fn push(&mut self, entry: LogEntry) {
        debug_assert!(
            self.entries
                .last()
                .map(|e| e.time <= entry.time)
                .unwrap_or(true),
            "log must be time-ordered"
        );
        self.entries.push(entry);
    }

    /// All entries in arrival order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries within `[from, to)`.
    pub fn between(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &LogEntry> {
        self.entries
            .iter()
            .filter(move |e| e.time >= from && e.time < to)
    }

    /// Entries touching one prefix.
    fn for_prefix(&self, prefix: Prefix) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter().filter(move |e| e.prefix == prefix)
    }

    /// Timestamp of the last entry at or after `from` (the classic
    /// "convergence instant" in collector-based measurement).
    fn last_activity_since(&self, from: SimTime) -> Option<SimTime> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.time >= from)
            .map(|e| e.time)
    }

    /// Convergence duration measured from `event` to the last observed
    /// update (or zero when nothing was seen).
    pub fn convergence_duration(&self, event: SimTime) -> SimDuration {
        self.last_activity_since(event)
            .map(|t| t.saturating_since(event))
            .unwrap_or(SimDuration::ZERO)
    }

    /// Distinct AS paths each monitored router announced for `prefix`
    /// within `[from, to)` — the path-exploration count of Oliveira et al.
    /// (the paper's convergence reference \[13\]).
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

    /// Render a human-readable timeline for one prefix (the route-change
    /// view of the paper's visualization tooling).
    pub fn render_timeline(&self, prefix: Prefix) -> String {
        let mut out = format!("timeline for {prefix}\n");
        for e in self.for_prefix(prefix) {
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

    /// Forget everything (between experiment phases).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsdn_bgp::pfx;

    fn entry(ms: u64, asn: u32, prefix: &str, path: Option<&[u32]>) -> LogEntry {
        LogEntry {
            time: SimTime::from_millis(ms),
            peer: NodeId(asn),
            peer_asn: Asn(asn),
            prefix: pfx(prefix),
            action: match path {
                Some(p) => LogAction::Announce(AsPath::from_seq(p.iter().copied())),
                None => LogAction::Withdraw,
            },
        }
    }

    fn sample() -> UpdateLog {
        let mut log = UpdateLog::default();
        log.push(entry(10, 1, "10.0.0.0/16", Some(&[9])));
        log.push(entry(20, 2, "10.0.0.0/16", Some(&[1, 9])));
        log.push(entry(500, 1, "10.0.0.0/16", Some(&[2, 9])));
        log.push(entry(900, 1, "10.0.0.0/16", None));
        log.push(entry(950, 2, "10.0.0.0/16", None));
        log.push(entry(960, 2, "10.1.0.0/16", Some(&[7])));
        log
    }

    /// The collector keeps one entry per prefix event for the whole run, so
    /// its size is the log's memory: a path with no tail stays inline.
    #[test]
    fn a_log_entry_fits_64_bytes() {
        assert!(std::mem::size_of::<LogEntry>() <= 64);
    }

    #[test]
    fn counts_and_windows() {
        let log = sample();
        assert_eq!(log.len(), 6);
        assert_eq!(
            log.between(SimTime::from_millis(20), SimTime::from_millis(900))
                .count(),
            2
        );
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
    fn paths_explored_counts_distinct() {
        let log = sample();
        let explored = log.paths_explored(pfx("10.0.0.0/16"), SimTime::ZERO, SimTime::MAX);
        assert_eq!(explored[&Asn(1)], 2, "AS1 tried [9] then [2 9]");
        assert_eq!(explored[&Asn(2)], 1);
    }

    #[test]
    fn timeline_renders() {
        let log = sample();
        let t = log.render_timeline(pfx("10.0.0.0/16"));
        assert!(t.contains("+ [9]"));
        assert!(t.contains("- withdrawn"));
        assert!(!t.contains("10.1.0.0/16 entry"), "other prefixes excluded");
    }

    #[test]
    fn clear_resets() {
        let mut log = sample();
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.convergence_duration(SimTime::ZERO), SimDuration::ZERO);
    }
}
