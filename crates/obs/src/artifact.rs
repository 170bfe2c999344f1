//! JSONL run artifacts: writing, parsing, and analysis.
//!
//! A run artifact is a line-oriented file; each line is one JSON object
//! distinguished by its `"type"` member:
//!
//! * `{"type":"run", ...}` — free-form run header (scenario parameters);
//! * `{"type":"event","t":<sim ns>,"node":<id|null>,"kind":...,<fields>}` —
//!   one typed [`TraceEvent`], flattened;
//! * `{"type":"metrics","phase":<name>,"metrics":[...]}` — a phase-scoped
//!   [`MetricsSnapshot`].
//!
//! The analysis half ([`RunAnalysis`]) derives per-node update counts,
//! recompute latency histograms and a convergence timeline purely from the
//! typed events — no string parsing anywhere.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{PartialEvent, TraceEvent, KIND_KEY};
use crate::json::{self, Json, JsonReader, JsonWriter};
use crate::metrics::{Histogram, MetricsSnapshot};

/// One event line, parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Simulation time in nanoseconds.
    pub t: u64,
    /// Node the event is attributed to, if any.
    pub node: Option<u32>,
    /// The typed payload.
    pub event: TraceEvent,
}

/// Append one event line (no newline) to `out`, straight from the event:
/// no [`Json`] is built.
pub fn write_event_line(out: &mut String, t: u64, node: Option<u32>, event: &TraceEvent) {
    let mut w = JsonWriter::new(out);
    w.begin_object();
    w.key(TYPE_KEY);
    w.str(EVENT_TYPE);
    w.key(T_KEY);
    w.u64(t);
    w.key(NODE_KEY);
    match node {
        Some(n) => w.u64(n as u64),
        None => w.null(),
    }
    event.write_members(&mut w);
    w.end_object();
}

/// Serialize one event line.
pub fn event_line(t: u64, node: Option<u32>, event: &TraceEvent) -> String {
    let mut out = String::with_capacity(EVENT_LINE_BYTES);
    write_event_line(&mut out, t, node, event);
    out
}

/// Room to reserve per event line: a little over the ~130 bytes the lines
/// of a traced run average.
pub const EVENT_LINE_BYTES: usize = 144;

const TYPE_KEY: &str = "type";
const EVENT_TYPE: &str = "event";
const T_KEY: &str = "t";
const NODE_KEY: &str = "node";

/// Read the members of an event line whose `{` has been consumed (`more`
/// is what [`JsonReader::open`] said) through the end of the line. Members
/// come in any order; the first of duplicates wins; ones the variant does
/// not have are checked and skipped.
fn read_event_line(r: &mut JsonReader<'_>, mut more: bool) -> Result<EventRecord, String> {
    let mut t = None;
    let mut node = None;
    let mut event: Option<PartialEvent> = None;
    while more {
        let key = r.key()?;
        match &*key {
            T_KEY if t.is_none() => t = Some(r.u64()?.ok_or("bad \"t\"")?),
            NODE_KEY if node.is_none() => {
                node = Some(if r.peek() == Some(b'n') {
                    r.literal("null")?;
                    None
                } else {
                    let n = r.u64()?.and_then(|n| u32::try_from(n).ok());
                    Some(n.ok_or("bad \"node\"")?)
                });
            }
            KIND_KEY if event.is_none() => event = Some(read_kind(r)?),
            TYPE_KEY | T_KEY | NODE_KEY | KIND_KEY => r.skip_value()?,
            _ => {
                let event = match &mut event {
                    Some(event) => event,
                    None => event.insert(kind_ahead(*r)?),
                };
                event.member(&key, r)?;
            }
        }
        more = r.next(b'}')?;
    }
    r.finish()?;
    Ok(EventRecord {
        t: t.ok_or("bad \"t\"")?,
        node: node.flatten(),
        event: event.ok_or("missing \"kind\"")?.finish()?,
    })
}

/// A field came ahead of its kind: from a copy of the reader at that
/// field's value, find the kind among the members still to come.
fn kind_ahead(mut r: JsonReader<'_>) -> Result<PartialEvent, String> {
    r.skip_value()?;
    let more = r.next(b'}')?;
    if !r.seek_member(more, KIND_KEY)? {
        return Err("missing \"kind\"".into());
    }
    read_kind(&mut r)
}

/// The value of a `"kind"` member, as the variant it names.
fn read_kind(r: &mut JsonReader<'_>) -> Result<PartialEvent, String> {
    let kind = r.str()?.ok_or("missing \"kind\"")?;
    PartialEvent::of_kind(&kind).ok_or_else(|| format!("unknown event kind {kind:?}"))
}

/// Serialize one metrics-snapshot line.
pub fn metrics_line(phase: &str, snapshot: &MetricsSnapshot) -> String {
    Json::Obj(vec![
        ("type".into(), Json::Str("metrics".into())),
        ("phase".into(), Json::Str(phase.to_string())),
        ("metrics".into(), snapshot.to_json()),
    ])
    .to_compact()
}

/// Serialize the run-header line. `info` should be an object; its members
/// are merged after the `"type"` tag.
pub fn run_line(info: &Json) -> String {
    let mut members: Vec<(String, Json)> = vec![("type".into(), Json::Str("run".into()))];
    if let Json::Obj(m) = info {
        members.extend(m.iter().cloned());
    }
    Json::Obj(members).to_compact()
}

/// A parsed run artifact.
#[derive(Debug, Clone, Default)]
pub struct RunArtifact {
    /// The run header, minus the `"type"` tag, if present.
    pub run: Option<Json>,
    /// All event lines in file order.
    pub events: Vec<EventRecord>,
    /// Phase-tagged metric snapshots (kept as raw JSON).
    pub snapshots: Vec<(String, Json)>,
}

impl RunArtifact {
    /// Parse a whole JSONL document. Unknown line types are ignored (forward
    /// compatibility); malformed lines are errors.
    pub fn parse(text: &str) -> Result<RunArtifact, String> {
        let mut out = RunArtifact::default();
        crate::jsonl::scan(text, |_, raw| out.ingest(raw))?;
        Ok(out)
    }

    /// Parse for reporting: a malformed *final* line (a run killed mid-write)
    /// degrades to a warning instead of an error, and an artifact with no
    /// trace events at all reports a warning rather than a garbled table.
    /// Still fails when nothing recognizable survives — a file that is not
    /// a run artifact at all should not render as an empty one.
    pub fn parse_lenient(text: &str) -> Result<(RunArtifact, Vec<String>), String> {
        let mut out = RunArtifact::default();
        let mut warnings = Vec::new();
        crate::jsonl::scan_lenient(text, &mut warnings, |_, raw| out.ingest(raw))?;
        if out.run.is_none() && out.events.is_empty() && out.snapshots.is_empty() {
            return Err("artifact has no recognizable lines (not a run artifact?)".into());
        }
        if out.events.is_empty() {
            warnings.push("artifact contains no trace events (tracing disabled?)".into());
        }
        Ok((out, warnings))
    }

    /// Dispatch one artifact line into the accumulating document. Event
    /// lines — nearly all of them — are decoded straight off the bytes; a
    /// line of unknown type is checked and skipped the same way; only the
    /// few `run` and `metrics` lines become a [`Json`].
    fn ingest(&mut self, raw: &str) -> Result<(), String> {
        let mut r = JsonReader::new(raw);
        r.skip_ws();
        // Only an object has members, let alone a type.
        let more = r.peek() == Some(b'{') && r.open(b'}')?;
        let members = r;
        let line_type = if r.seek_member(more, TYPE_KEY)? {
            r.str()?
        } else {
            None
        };
        match line_type.as_deref() {
            Some(EVENT_TYPE) => {
                let mut r = members;
                self.events.push(read_event_line(&mut r, more)?);
            }
            Some("metrics") => {
                let v = Json::parse(raw)?;
                let phase = v
                    .get("phase")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let metrics = v
                    .get("metrics")
                    .cloned()
                    .ok_or_else(|| "missing \"metrics\"".to_string())?;
                self.snapshots.push((phase, metrics));
            }
            Some("run") => {
                let members = match Json::parse(raw)? {
                    Json::Obj(m) => m.into_iter().filter(|(k, _)| k != TYPE_KEY).collect(),
                    _ => Vec::new(),
                };
                self.run = Some(Json::Obj(members));
            }
            // Unknown line type: skipped, once it is known to be JSON.
            Some(_) => json::check(raw)?,
            None => {
                json::check(raw)?;
                return Err("missing \"type\"".into());
            }
        }
        Ok(())
    }
}

/// The latest sim-time of a routing-state change at or after `after`.
pub fn last_routing_change<'a>(
    events: impl IntoIterator<Item = (u64, &'a TraceEvent)>,
    after: u64,
) -> Option<u64> {
    events
        .into_iter()
        .filter(|(t, e)| *t >= after && e.is_routing_change())
        .map(|(t, _)| t)
        .max()
}

/// Per-phase convergence summary.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSummary {
    /// Phase name ("run" when the artifact has no phase markers).
    pub name: String,
    /// Phase start, sim ns.
    pub start: u64,
    /// Phase end marker, if recorded.
    pub end: Option<u64>,
    /// Last routing change within the phase, sim ns.
    pub last_change: Option<u64>,
    /// UPDATE messages sent during the phase.
    pub updates_sent: u64,
}

impl PhaseSummary {
    /// Time from phase start to last routing change (the convergence time).
    pub fn convergence_ns(&self) -> Option<u64> {
        self.last_change.map(|t| t.saturating_sub(self.start))
    }
}

/// Everything `bgpsdn report` prints, computed from typed events.
#[derive(Debug, Clone, Default)]
pub struct RunAnalysis {
    /// node → (updates sent, updates delivered).
    pub updates_by_node: BTreeMap<u32, (u64, u64)>,
    /// Controller recompute wall-clock latencies.
    pub recompute_wall_ns: Histogram,
    /// Number of recompute events.
    pub recomputes: u64,
    /// Flow mods reported by recompute events.
    pub flow_mods: u64,
    /// Per-prefix computations executed across all recomputes.
    pub prefixes_recomputed: u64,
    /// Tracked prefixes served from the controller's compiled cache.
    pub prefixes_cached: u64,
    /// Session up / down event counts.
    pub sessions: (u64, u64),
    /// Session-down events whose reason was a hold-timer expiry.
    pub hold_expiries: u64,
    /// Sessions that re-reached Established after a previous teardown
    /// (counter `bgp.router.sessions_reestablished`, summed over nodes).
    pub sessions_reestablished: u64,
    /// Routes retained as stale under graceful restart
    /// (counter `bgp.router.stale_retained`, summed over nodes).
    pub stale_retained: u64,
    /// Malformed UPDATEs downgraded to withdraws per RFC 7606
    /// (counter `bgp.router.treat_as_withdraw`, summed over nodes).
    pub treat_as_withdraw: u64,
    /// Decision candidates excluded by route-flap damping
    /// (counter `bgp.router.damped_suppressed`, summed over nodes).
    pub damped_suppressed: u64,
    /// Speaker events dropped with no controller link (lost state).
    pub events_dropped: u64,
    /// Control-channel retransmit bursts (both directions).
    pub retransmits: u64,
    /// Full-state resyncs after channel re-establishment.
    pub resyncs: u64,
    /// Times a speaker entered headless (fail-static) mode.
    pub headless_entries: u64,
    /// Static-verification violations, in event order: `(t, check, prefix,
    /// offender, witness)`.
    pub verify_violations: Vec<(u64, String, Option<String>, String, String)>,
    /// The convergence timeline, one entry per phase.
    pub phases: Vec<PhaseSummary>,
}

impl RunAnalysis {
    /// Analyze a parsed artifact.
    pub fn from_artifact(artifact: &RunArtifact) -> RunAnalysis {
        let mut a = RunAnalysis::default();
        let mut open_phase: Option<PhaseSummary> = None;
        let mut saw_phase_marker = false;
        for rec in &artifact.events {
            match &rec.event {
                TraceEvent::UpdateSent { .. } => {
                    if let Some(node) = rec.node {
                        a.updates_by_node.entry(node).or_default().0 += 1;
                    }
                    if let Some(p) = open_phase.as_mut() {
                        p.updates_sent += 1;
                    }
                }
                TraceEvent::UpdateDelivered { .. } => {
                    if let Some(node) = rec.node {
                        a.updates_by_node.entry(node).or_default().1 += 1;
                    }
                }
                TraceEvent::ControllerRecompute {
                    wall_ns,
                    flow_mods,
                    prefixes_recomputed,
                    prefixes_cached,
                    ..
                } => {
                    a.recomputes += 1;
                    a.flow_mods += *flow_mods as u64;
                    a.prefixes_recomputed += *prefixes_recomputed as u64;
                    a.prefixes_cached += *prefixes_cached as u64;
                    a.recompute_wall_ns.record(*wall_ns);
                }
                TraceEvent::SessionUp { .. } => a.sessions.0 += 1,
                TraceEvent::SessionDown { reason, .. } => {
                    a.sessions.1 += 1;
                    if reason.to_ascii_lowercase().contains("hold") {
                        a.hold_expiries += 1;
                    }
                }
                TraceEvent::SpeakerEventDropped { .. } => a.events_dropped += 1,
                TraceEvent::ControlRetransmit { .. } => a.retransmits += 1,
                TraceEvent::ControlResync { .. } => a.resyncs += 1,
                TraceEvent::SpeakerHeadless { entered } => {
                    if *entered {
                        a.headless_entries += 1;
                    }
                }
                TraceEvent::VerifyViolation {
                    check,
                    prefix,
                    offender,
                    witness,
                } => {
                    a.verify_violations.push((
                        rec.t,
                        check.clone(),
                        prefix.map(|p| p.to_string()),
                        offender.clone(),
                        witness.clone(),
                    ));
                }
                TraceEvent::Phase { name, started } => {
                    saw_phase_marker = true;
                    if *started {
                        if let Some(p) = open_phase.take() {
                            a.phases.push(p);
                        }
                        open_phase = Some(PhaseSummary {
                            name: name.clone(),
                            start: rec.t,
                            end: None,
                            last_change: None,
                            updates_sent: 0,
                        });
                    } else if let Some(mut p) = open_phase.take() {
                        p.end = Some(rec.t);
                        a.phases.push(p);
                    }
                }
                other => {
                    if other.is_routing_change() {
                        if let Some(p) = open_phase.as_mut() {
                            p.last_change = Some(rec.t);
                        }
                    }
                }
            }
        }
        if let Some(p) = open_phase.take() {
            a.phases.push(p);
        }
        // Counters are monotonic, so the final phase snapshot carries the
        // run's cumulative totals.
        if let Some((_, metrics)) = artifact.snapshots.last() {
            a.sessions_reestablished =
                snapshot_counter_sum(metrics, "bgp.router.sessions_reestablished");
            a.stale_retained = snapshot_counter_sum(metrics, "bgp.router.stale_retained");
            a.treat_as_withdraw = snapshot_counter_sum(metrics, "bgp.router.treat_as_withdraw");
            a.damped_suppressed = snapshot_counter_sum(metrics, "bgp.router.damped_suppressed");
        }
        if !saw_phase_marker && !artifact.events.is_empty() {
            // No markers: treat the whole run as one phase.
            let start = artifact.events.first().map(|r| r.t).unwrap_or(0);
            let end = artifact.events.last().map(|r| r.t);
            let last_change =
                last_routing_change(artifact.events.iter().map(|r| (r.t, &r.event)), 0);
            let updates_sent = artifact
                .events
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::UpdateSent { .. }))
                .count() as u64;
            a.phases.push(PhaseSummary {
                name: "run".into(),
                start,
                end,
                last_change,
                updates_sent,
            });
        }
        a
    }

    /// Human-readable report (what `bgpsdn report` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== per-node BGP update counts");
        if self.updates_by_node.is_empty() {
            let _ = writeln!(out, "  (none)");
        }
        for (node, (sent, delivered)) in &self.updates_by_node {
            let _ = writeln!(out, "  n{node:<4} sent {sent:>6}  delivered {delivered:>6}");
        }
        let _ = writeln!(out, "== controller recompute latency (wall-clock)");
        if self.recomputes == 0 {
            let _ = writeln!(out, "  (no recompute events)");
        } else {
            let h = &self.recompute_wall_ns;
            let _ = writeln!(
                out,
                "  {} recomputes, {} flowmods, mean {:.0} ns, p50 >= {} ns, max {} ns",
                self.recomputes,
                self.flow_mods,
                h.mean().unwrap_or(0.0),
                h.quantile(0.5).unwrap_or(0),
                h.max().unwrap_or(0),
            );
            let _ = writeln!(
                out,
                "  incremental: {} prefixes recomputed, {} served from cache",
                self.prefixes_recomputed, self.prefixes_cached,
            );
            let _ = write!(out, "{h}");
        }
        if self.events_dropped + self.retransmits + self.resyncs + self.headless_entries > 0 {
            let _ = writeln!(out, "== control channel");
            let _ = writeln!(
                out,
                "  {} events dropped, {} retransmit bursts, {} resyncs, {} headless entries",
                self.events_dropped, self.retransmits, self.resyncs, self.headless_entries,
            );
        }
        if !self.verify_violations.is_empty() {
            let _ = writeln!(
                out,
                "== verification: {} violations",
                self.verify_violations.len()
            );
            for (t, check, prefix, offender, witness) in &self.verify_violations {
                match prefix {
                    Some(p) => {
                        let _ = writeln!(
                            out,
                            "  t={:.3}s [{check}] {p} at {offender}: {witness}",
                            *t as f64 / 1e9
                        );
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "  t={:.3}s [{check}] at {offender}: {witness}",
                            *t as f64 / 1e9
                        );
                    }
                }
            }
        }
        let _ = writeln!(out, "== convergence timeline");
        for p in &self.phases {
            match p.convergence_ns() {
                Some(ns) => {
                    let _ = writeln!(
                        out,
                        "  phase {:<12} start {:>10.3}s  last change {:>10.3}s  converged in {:.3}s  ({} updates)",
                        p.name,
                        p.start as f64 / 1e9,
                        p.last_change.unwrap_or(p.start) as f64 / 1e9,
                        ns as f64 / 1e9,
                        p.updates_sent,
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  phase {:<12} start {:>10.3}s  no routing change  ({} updates)",
                        p.name,
                        p.start as f64 / 1e9,
                        p.updates_sent,
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "== sessions: {} up events, {} down events",
            self.sessions.0, self.sessions.1
        );
        if self.sessions.1
            + self.sessions_reestablished
            + self.stale_retained
            + self.treat_as_withdraw
            + self.damped_suppressed
            > 0
        {
            let _ = writeln!(
                out,
                "  session health: {} down ({} hold expiries), {} re-established, \
                 {} stale routes retained (graceful restart), {} treat-as-withdraw, \
                 {} damped-suppressed",
                self.sessions.1,
                self.hold_expiries,
                self.sessions_reestablished,
                self.stale_retained,
                self.treat_as_withdraw,
                self.damped_suppressed,
            );
        }
        out
    }
}

/// Sum a named counter over every node in a raw phase metrics snapshot
/// (the `[{"node":..,"name":..,"counter":..},..]` array form).
fn snapshot_counter_sum(snapshot: &Json, name: &str) -> u64 {
    let Json::Arr(entries) = snapshot else {
        return 0;
    };
    entries
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
        .filter_map(|e| e.get("counter").and_then(Json::as_u64))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ObsPrefix, RecomputeTrigger};

    fn pfx() -> ObsPrefix {
        ObsPrefix::new(0x0a000000, 8)
    }

    #[test]
    fn lines_roundtrip_through_parse() {
        let mut text = String::new();
        text.push_str(&run_line(&Json::Obj(vec![(
            "scenario".into(),
            Json::Str("clique".into()),
        )])));
        text.push('\n');
        text.push_str(&event_line(
            5,
            Some(3),
            &TraceEvent::UpdateSent {
                peer: 1,
                announced: vec![pfx()],
                withdrawn: vec![],
            },
        ));
        text.push('\n');
        text.push_str(&metrics_line("bring-up", &MetricsSnapshot::default()));
        text.push('\n');
        let artifact = RunArtifact::parse(&text).unwrap();
        assert_eq!(
            artifact
                .run
                .as_ref()
                .unwrap()
                .get("scenario")
                .unwrap()
                .as_str(),
            Some("clique")
        );
        assert_eq!(artifact.events.len(), 1);
        assert_eq!(artifact.events[0].t, 5);
        assert_eq!(artifact.events[0].node, Some(3));
        assert_eq!(artifact.snapshots.len(), 1);
        assert_eq!(artifact.snapshots[0].0, "bring-up");
    }

    #[test]
    fn parse_rejects_bad_lines_and_skips_unknown_types() {
        assert!(RunArtifact::parse("{\"type\":\"event\"}").is_err()); // no t
        assert!(RunArtifact::parse("not json").is_err());
        let ok = RunArtifact::parse("{\"type\":\"future-thing\",\"x\":1}\n\n").unwrap();
        assert!(ok.events.is_empty());
    }

    fn one_event(line: &str) -> Result<EventRecord, String> {
        RunArtifact::parse(line).map(|a| a.events.into_iter().next().expect("one event line"))
    }

    #[test]
    fn narrowed_integers_are_range_checked() {
        let flow = |priority: &str| {
            format!(
                "{{\"type\":\"event\",\"t\":1,\"node\":2,\"kind\":\"flow_installed\",\
                 \"prefix\":\"10.0.0.0/8\",\"priority\":{priority},\"action\":\"drop\"}}"
            )
        };
        assert!(matches!(
            one_event(&flow("65535")).unwrap().event,
            TraceEvent::FlowInstalled {
                priority: u16::MAX,
                ..
            }
        ));
        // Used to come back as 4464.
        assert_eq!(
            one_event(&flow("70000")).unwrap_err(),
            "line 1: bad \"priority\""
        );
        assert_eq!(
            one_event(&flow("-1")).unwrap_err(),
            "line 1: bad \"priority\""
        );
        let session = |node: &str, peer: &str| {
            format!(
                "{{\"type\":\"event\",\"t\":1,\"node\":{node},\"kind\":\"session_up\",\"peer\":{peer}}}"
            )
        };
        assert_eq!(
            one_event(&session("4294967295", "4294967295"))
                .unwrap()
                .node,
            Some(u32::MAX)
        );
        assert_eq!(
            one_event(&session("4294967296", "1")).unwrap_err(),
            "line 1: bad \"node\""
        );
        assert_eq!(
            one_event(&session("1", "4294967296")).unwrap_err(),
            "line 1: bad \"peer\""
        );
        let rib = "{\"type\":\"event\",\"t\":1,\"node\":2,\"kind\":\"rib_change\",\
                   \"prefix\":\"10.0.0.0/33\",\"old\":null,\"new\":[4294967296]}";
        assert_eq!(one_event(rib).unwrap_err(), "line 1: bad \"prefix\"");
        assert_eq!(
            one_event(&rib.replace("/33", "/32")).unwrap_err(),
            "line 1: bad \"new\""
        );
    }

    #[test]
    fn reader_accepts_what_the_tree_accepted() {
        let want = EventRecord {
            t: 3,
            node: None,
            event: TraceEvent::ControllerRecompute {
                trigger: RecomputeTrigger::Resync,
                prefixes: 4,
                prefixes_dirty: 0,
                prefixes_recomputed: 2,
                prefixes_cached: 0,
                members: 8,
                links_up: 28,
                flow_mods: 12,
                announcements: 3,
                withdrawals: 1,
                wall_ns: 9,
            },
        };
        // Fields ahead of "kind" and "type", a duplicate (the first wins),
        // unknown members with nested values, an escaped key and an escaped
        // value, integral floats, whitespace, "dirty" absent and "cached"
        // unusable (both read as 0), "node" absent.
        let line = " { \"members\" : 8.0 , \"future\" : { \"a\" : [ 1 , { \"b\" : null } ] } ,
            \"\\u0074\" : 3e0 , \"t\" : 99 , \"kind\" : \"recompute\" , \"kind\" : \"phase\" ,
            \"trigger\" : \"re\\u0073ync\" , \"prefixes\" : 4 , \"recomputed\" : 2 ,
            \"cached\" : \"many\" , \"links_up\" : 28 , \"flow_mods\" : 12 , \"type\" : \"event\" ,
            \"announcements\" : 3 , \"withdrawals\" : 1 , \"wall_ns\" : 9 , \"peer\" : [ ] } "
            .replace('\n', " ");
        assert_eq!(one_event(&line).unwrap(), want);
        // Absent optional prefix; `null` is not "absent".
        let causal = "{\"type\":\"event\",\"t\":1,\"kind\":\"causal\",\"id\":1,\"parents\":[],\
                      \"trigger\":1,\"hop\":0,\"phase\":\"trigger\"}";
        assert!(matches!(
            one_event(causal).unwrap().event,
            TraceEvent::Causal { prefix: None, .. }
        ));
        let null_prefix = causal.replace("}", ",\"prefix\":null}");
        assert_eq!(
            one_event(&null_prefix).unwrap_err(),
            "line 1: bad \"prefix\""
        );
        // What stays refused.
        for (bad, why) in [
            ("{\"type\":\"event\",\"t\":1}", "missing \"kind\""),
            (
                "{\"type\":\"event\",\"t\":1,\"peer\":1}",
                "missing \"kind\"",
            ),
            (
                "{\"type\":\"event\",\"t\":1,\"kind\":7}",
                "missing \"kind\"",
            ),
            (
                "{\"type\":\"event\",\"t\":1,\"kind\":\"nope\"}",
                "unknown event kind \"nope\"",
            ),
            (
                "{\"type\":\"event\",\"kind\":\"session_up\",\"peer\":1}",
                "bad \"t\"",
            ),
            (
                "{\"type\":\"event\",\"t\":1,\"kind\":\"session_up\"}",
                "bad \"peer\"",
            ),
            (
                "{\"type\":\"event\",\"t\":1,\"kind\":\"session_up\",\"peer\":\"x\",\"peer\":1}",
                "bad \"peer\"",
            ),
            ("{\"type\":7,\"t\":1}", "missing \"type\""),
            ("{\"t\":1}", "missing \"type\""),
            ("[1]", "missing \"type\""),
        ] {
            assert_eq!(
                RunArtifact::parse(bad).unwrap_err(),
                format!("line 1: {why}"),
                "{bad}"
            );
        }
        for malformed in [
            "{\"type\":\"event\",\"t\":1,\"kind\":\"session_up\",\"peer\":1} x",
            "{\"type\":\"event\",\"t\":1,\"kind\":\"session_up\",\"peer\":1,}",
            "{\"type\":\"event\",\"t\":1,\"kind\":\"session_up\",\"peer\":1,\"x\":[1,}",
            "{\"type\":\"later\",\"x\":[1,}",
            "{\"x\":tru,\"type\":\"event\"}",
        ] {
            let err = RunArtifact::parse(malformed).unwrap_err();
            assert!(
                err.starts_with("line 1: json error at byte "),
                "{malformed}: {err}"
            );
        }
    }

    #[test]
    fn skipped_values_share_the_depth_cap() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        // The line's own object is one level.
        for (inner, ok) in [(126, true), (127, true), (128, false), (200_000, false)] {
            for line in [
                format!(
                    "{{\"type\":\"event\",\"t\":1,\"kind\":\"session_up\",\"peer\":1,\"x\":{}}}",
                    arrays(inner)
                ),
                format!("{{\"type\":\"snapshot\",\"nodes\":{}}}", arrays(inner)),
                format!("{{\"nodes\":{},\"type\":\"later\"}}", arrays(inner)),
            ] {
                let got = RunArtifact::parse(&line);
                assert_eq!(got.is_ok(), ok, "{inner} arrays inside: {got:?}");
                assert_eq!(
                    Json::parse(&line).is_ok(),
                    ok,
                    "{inner} arrays inside (tree)"
                );
            }
        }
    }

    #[test]
    fn parse_lenient_degrades_gracefully() {
        // Truncated final line: everything before it survives, one warning.
        let text = "{\"type\":\"run\",\"scenario\":\"clique\"}\n{\"type\":\"event\",\"t\":1,\"no";
        assert!(RunArtifact::parse(text).is_err());
        let (artifact, warnings) = RunArtifact::parse_lenient(text).unwrap();
        assert!(artifact.run.is_some());
        assert!(
            warnings.iter().any(|w| w.contains("final line")),
            "{warnings:?}"
        );
        // Valid header, zero events: a warning, not a garbled table.
        let (empty, warnings) = RunArtifact::parse_lenient("{\"type\":\"run\",\"n\":4}\n").unwrap();
        assert!(empty.events.is_empty());
        assert!(
            warnings.iter().any(|w| w.contains("no trace events")),
            "{warnings:?}"
        );
        // A file with nothing recognizable is still a hard error.
        assert!(RunArtifact::parse_lenient("this is not json\n").is_err());
        assert!(RunArtifact::parse_lenient("").is_err());
    }

    fn ev(t: u64, node: Option<u32>, event: TraceEvent) -> EventRecord {
        EventRecord { t, node, event }
    }

    #[test]
    fn last_routing_change_counts_typed_routing_changes_only() {
        let events = [
            (
                1,
                TraceEvent::RibChange {
                    prefix: pfx(),
                    old_path: None,
                    new_path: Some(vec![65001]),
                },
            ),
            (
                5,
                TraceEvent::RibChange {
                    prefix: pfx(),
                    old_path: Some(vec![65001]),
                    new_path: None,
                },
            ),
            // A later session event is not a routing change and must not
            // extend the measured transient.
            (9, TraceEvent::SessionUp { peer: 3 }),
        ];
        let at = |after| last_routing_change(events.iter().map(|(t, e)| (*t, e)), after);
        assert_eq!(at(2), Some(5));
        // Changes before the event are excluded.
        assert_eq!(at(6), None);
    }

    #[test]
    fn analysis_counts_and_timeline() {
        let artifact = RunArtifact {
            run: None,
            events: vec![
                ev(
                    0,
                    None,
                    TraceEvent::Phase {
                        name: "bring-up".into(),
                        started: true,
                    },
                ),
                ev(
                    10,
                    Some(1),
                    TraceEvent::UpdateSent {
                        peer: 2,
                        announced: vec![pfx()],
                        withdrawn: vec![],
                    },
                ),
                ev(
                    12,
                    Some(2),
                    TraceEvent::UpdateDelivered {
                        peer: 1,
                        announced: vec![pfx()],
                        withdrawn: vec![],
                    },
                ),
                ev(
                    20,
                    Some(2),
                    TraceEvent::RibChange {
                        prefix: pfx(),
                        old_path: None,
                        new_path: Some(vec![65001]),
                    },
                ),
                ev(
                    25,
                    Some(9),
                    TraceEvent::ControllerRecompute {
                        trigger: RecomputeTrigger::UpdateBatch,
                        prefixes: 1,
                        prefixes_dirty: 1,
                        prefixes_recomputed: 1,
                        prefixes_cached: 0,
                        members: 4,
                        links_up: 6,
                        flow_mods: 3,
                        announcements: 1,
                        withdrawals: 0,
                        wall_ns: 900,
                    },
                ),
                ev(
                    30,
                    None,
                    TraceEvent::Phase {
                        name: "bring-up".into(),
                        started: false,
                    },
                ),
                ev(
                    40,
                    None,
                    TraceEvent::Phase {
                        name: "withdrawal".into(),
                        started: true,
                    },
                ),
                ev(
                    55,
                    Some(1),
                    TraceEvent::UpdateSent {
                        peer: 2,
                        announced: vec![],
                        withdrawn: vec![pfx()],
                    },
                ),
                ev(
                    70,
                    Some(2),
                    TraceEvent::RibChange {
                        prefix: pfx(),
                        old_path: Some(vec![65001]),
                        new_path: None,
                    },
                ),
            ],
            snapshots: vec![],
        };
        let a = RunAnalysis::from_artifact(&artifact);
        assert_eq!(a.updates_by_node.get(&1), Some(&(2, 0)));
        assert_eq!(a.updates_by_node.get(&2), Some(&(0, 1)));
        assert_eq!(a.recomputes, 1);
        assert_eq!(a.flow_mods, 3);
        assert_eq!(a.prefixes_recomputed, 1);
        assert_eq!(a.prefixes_cached, 0);
        assert_eq!(a.recompute_wall_ns.max(), Some(900));
        assert_eq!(a.phases.len(), 2);
        assert_eq!(a.phases[0].name, "bring-up");
        assert_eq!(a.phases[0].convergence_ns(), Some(20));
        assert_eq!(a.phases[0].updates_sent, 1);
        assert_eq!(a.phases[1].name, "withdrawal");
        assert_eq!(a.phases[1].start, 40);
        assert_eq!(a.phases[1].convergence_ns(), Some(30));
        let report = a.render();
        assert!(report.contains("n1"), "{report}");
        assert!(report.contains("recompute"), "{report}");
        assert!(report.contains("withdrawal"), "{report}");
    }

    #[test]
    fn analysis_counts_control_channel_events() {
        let artifact = RunArtifact {
            run: None,
            events: vec![
                ev(1, Some(4), TraceEvent::SpeakerEventDropped { session: 0 }),
                ev(2, Some(4), TraceEvent::SpeakerHeadless { entered: true }),
                ev(
                    3,
                    Some(4),
                    TraceEvent::ControlRetransmit {
                        from_controller: false,
                        oldest_seq: 1,
                        outstanding: 2,
                    },
                ),
                ev(4, Some(4), TraceEvent::SpeakerHeadless { entered: false }),
                ev(
                    5,
                    Some(9),
                    TraceEvent::ControlResync {
                        epoch: 2,
                        sessions: 3,
                        routes: 7,
                    },
                ),
            ],
            snapshots: vec![],
        };
        let a = RunAnalysis::from_artifact(&artifact);
        assert_eq!(a.events_dropped, 1);
        assert_eq!(a.retransmits, 1);
        assert_eq!(a.resyncs, 1);
        assert_eq!(a.headless_entries, 1);
        let report = a.render();
        assert!(report.contains("control channel"), "{report}");
        assert!(report.contains("1 resyncs"), "{report}");
    }

    #[test]
    fn analysis_derives_session_health() {
        use crate::metrics::MetricValue;
        let counters = MetricsSnapshot {
            entries: vec![
                (
                    Some(1),
                    "bgp.router.sessions_reestablished".into(),
                    MetricValue::Counter(2),
                ),
                (
                    Some(2),
                    "bgp.router.sessions_reestablished".into(),
                    MetricValue::Counter(1),
                ),
                (
                    Some(1),
                    "bgp.router.stale_retained".into(),
                    MetricValue::Counter(4),
                ),
                (
                    Some(2),
                    "bgp.router.treat_as_withdraw".into(),
                    MetricValue::Counter(1),
                ),
                (
                    Some(2),
                    "bgp.router.damped_suppressed".into(),
                    MetricValue::Counter(5),
                ),
            ],
        };
        let artifact = RunArtifact {
            run: None,
            events: vec![
                ev(
                    5,
                    Some(1),
                    TraceEvent::SessionDown {
                        peer: 2,
                        reason: "HoldExpired".into(),
                    },
                ),
                ev(
                    9,
                    Some(2),
                    TraceEvent::SessionDown {
                        peer: 1,
                        reason: "LinkDown".into(),
                    },
                ),
                ev(20, Some(1), TraceEvent::SessionUp { peer: 2 }),
            ],
            snapshots: vec![("run".into(), counters.to_json())],
        };
        let a = RunAnalysis::from_artifact(&artifact);
        assert_eq!(a.sessions, (1, 2));
        assert_eq!(a.hold_expiries, 1);
        assert_eq!(a.sessions_reestablished, 3);
        assert_eq!(a.stale_retained, 4);
        assert_eq!(a.treat_as_withdraw, 1);
        assert_eq!(a.damped_suppressed, 5);
        let report = a.render();
        assert!(
            report.contains(
                "session health: 2 down (1 hold expiries), 3 re-established, \
                 4 stale routes retained (graceful restart), 1 treat-as-withdraw, \
                 5 damped-suppressed"
            ),
            "{report}"
        );
    }

    #[test]
    fn analysis_collects_verify_violations() {
        let artifact = RunArtifact {
            run: None,
            events: vec![ev(
                9_000_000_000,
                None,
                TraceEvent::VerifyViolation {
                    check: "loop".into(),
                    prefix: Some(pfx()),
                    offender: "sw20".into(),
                    witness: "sw20 --[10.0.0.0/8 p100 output:2]--> sw30".into(),
                },
            )],
            snapshots: vec![],
        };
        let a = RunAnalysis::from_artifact(&artifact);
        assert_eq!(a.verify_violations.len(), 1);
        assert_eq!(a.verify_violations[0].1, "loop");
        let report = a.render();
        assert!(report.contains("verification: 1 violations"), "{report}");
        assert!(report.contains("sw20"), "{report}");
    }

    #[test]
    fn analysis_without_phase_markers_uses_whole_run() {
        let artifact = RunArtifact {
            run: None,
            events: vec![ev(
                7,
                Some(1),
                TraceEvent::RibChange {
                    prefix: pfx(),
                    old_path: None,
                    new_path: Some(vec![1]),
                },
            )],
            snapshots: vec![],
        };
        let a = RunAnalysis::from_artifact(&artifact);
        assert_eq!(a.phases.len(), 1);
        assert_eq!(a.phases[0].name, "run");
        assert_eq!(a.phases[0].convergence_ns(), Some(0));
    }
}
