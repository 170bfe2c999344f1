//! Event tracing.
//!
//! The trace is the framework's equivalent of the paper's Quagga/collector
//! log files: a time-ordered record of interesting events, filterable by
//! category, from which the analysis tools (convergence measurement, route
//! change visualization, `bgpsdn report`) work. Records carry a typed
//! [`TraceEvent`] payload — machine-readable facts, not strings — and the
//! buffer exports/imports the JSONL artifact schema from `bgpsdn_obs`.
//!
//! Tracing is off by default; experiments enable the categories they need.
//! The buffer is a ring: when full, the *oldest* records are dropped so the
//! tail of a long run (usually the interesting part) is always retained,
//! and [`Trace::dropped`] counts what was evicted.

use std::collections::VecDeque;

use bgpsdn_obs::{write_event_line, TraceEvent, EVENT_LINE_BYTES};

pub use bgpsdn_obs::TraceCategory;

use crate::node::NodeId;
use crate::time::SimTime;

/// One trace entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// When the event happened.
    pub time: SimTime,
    /// Node the event is attributed to, if any.
    pub node: Option<NodeId>,
    /// Typed payload.
    pub event: TraceEvent,
}

/// A bounded, category-filtered trace ring buffer.
#[derive(Debug)]
pub struct Trace {
    mask: u16,
    records: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new(1_000_000)
    }
}

impl Trace {
    /// Create a trace buffer that keeps at most `capacity` records; once
    /// full, each new record evicts the oldest (drop-oldest ring).
    pub(crate) fn new(capacity: usize) -> Self {
        Trace {
            mask: 0,
            records: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Enable recording of a category.
    pub fn enable(&mut self, cat: TraceCategory) {
        self.mask |= cat.bit();
    }

    /// Enable every category.
    pub fn enable_all(&mut self) {
        for c in TraceCategory::all() {
            self.enable(c);
        }
    }

    /// True when `cat` is currently recorded.
    pub(crate) fn is_enabled(&self, cat: TraceCategory) -> bool {
        self.mask & cat.bit() != 0
    }

    /// Append a record. The event closure runs only when `category` is
    /// enabled, so disabled tracing costs one mask test. When the buffer is
    /// full the oldest record is evicted and counted in [`Trace::dropped`].
    #[inline]
    pub fn record(
        &mut self,
        time: SimTime,
        node: Option<NodeId>,
        category: TraceCategory,
        event: impl FnOnce() -> TraceEvent,
    ) {
        if !self.is_enabled(category) {
            return;
        }
        let event = event();
        debug_assert_eq!(
            event.category(),
            category,
            "trace category mismatch for {event:?}"
        );
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.records.len() >= self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord { time, node, event });
    }

    /// All retained records in time order.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing is retained.
    // detlint: allow len_without_is_empty companion of the public len
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// How many records were evicted (ring overwrite) or discarded
    /// (zero-capacity buffer).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Append every retained record to `out` as JSONL artifact lines,
    /// growing it once for all of them.
    pub fn export_jsonl_into(&self, out: &mut String) {
        out.reserve(self.records.len() * EVENT_LINE_BYTES);
        for r in &self.records {
            write_event_line(out, r.time.as_nanos(), r.node.map(|n| n.0), &r.event);
            out.push('\n');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsdn_obs::{Artifact, ObsPrefix};

    fn note(cat: TraceCategory, text: &str) -> TraceEvent {
        TraceEvent::Note {
            category: cat,
            text: text.into(),
        }
    }

    #[test]
    fn disabled_categories_are_not_recorded() {
        let mut t = Trace::new(10);
        t.record(SimTime::ZERO, None, TraceCategory::Msg, || {
            note(TraceCategory::Msg, "x")
        });
        assert!(t.is_empty());
        t.enable(TraceCategory::Msg);
        t.record(SimTime::ZERO, None, TraceCategory::Msg, || {
            note(TraceCategory::Msg, "y")
        });
        t.record(SimTime::ZERO, None, TraceCategory::Route, || {
            note(TraceCategory::Route, "z")
        });
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.records().next().unwrap().event,
            note(TraceCategory::Msg, "y")
        );
    }

    #[test]
    fn disabled_category_never_runs_the_closure() {
        let mut t = Trace::new(10);
        let mut ran = false;
        t.record(SimTime::ZERO, None, TraceCategory::Flow, || {
            ran = true;
            note(TraceCategory::Flow, "should not happen")
        });
        assert!(!ran);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut t = Trace::new(2);
        t.enable_all();
        for i in 0..5u32 {
            t.record(
                SimTime::from_secs(i as u64),
                None,
                TraceCategory::Link,
                || TraceEvent::LinkAdmin { link: i, up: true },
            );
        }
        // Drop-oldest: the two *newest* records survive.
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let kept: Vec<u32> = t
            .records()
            .map(|r| match r.event {
                TraceEvent::LinkAdmin { link, .. } => link,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn zero_capacity_counts_everything_dropped() {
        let mut t = Trace::new(0);
        t.enable_all();
        t.record(SimTime::ZERO, None, TraceCategory::Link, || {
            TraceEvent::LinkAdmin { link: 0, up: false }
        });
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn jsonl_export_import_roundtrip() {
        let mut t = Trace::new(10);
        t.enable_all();
        t.record(
            SimTime::from_millis(5),
            Some(NodeId(3)),
            TraceCategory::Msg,
            || TraceEvent::UpdateSent {
                peer: 1,
                announced: vec![ObsPrefix::new(0x0a000000, 8)],
                withdrawn: vec![],
            },
        );
        t.record(
            SimTime::from_millis(9),
            None,
            TraceCategory::Experiment,
            || TraceEvent::Phase {
                name: "bring-up".into(),
                started: true,
            },
        );
        let mut text = String::new();
        t.export_jsonl_into(&mut text);
        assert_eq!(text.lines().count(), 2);
        let back: Vec<TraceRecord> = Artifact::parse(&text)
            .unwrap()
            .events
            .into_iter()
            .map(|r| TraceRecord {
                time: SimTime::from_nanos(r.t),
                node: r.node.map(NodeId),
                event: r.event,
            })
            .collect();
        let original: Vec<TraceRecord> = t.records().cloned().collect();
        assert_eq!(back, original);
        // Appending leaves what the buffer held alone.
        let mut appended = String::from("{\"type\":\"run\"}\n");
        t.export_jsonl_into(&mut appended);
        assert_eq!(appended, format!("{{\"type\":\"run\"}}\n{text}"));
    }
}
