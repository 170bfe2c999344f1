//! JSONL artifacts: writing, the one reader, and run analysis.
//!
//! An artifact is a line-oriented file; each line is one JSON object
//! distinguished by its `"type"` member. A run artifact holds
//!
//! * `{"type":"run", ...}` — free-form run header (scenario parameters);
//! * `{"type":"event","t":<sim ns>,"node":<id|null>,"kind":...,<fields>}` —
//!   one typed [`TraceEvent`], flattened;
//! * `{"type":"snapshot", ...}` — the frozen data-plane snapshot that
//!   `bgpsdn verify --snapshot` checks;
//! * `{"type":"metrics","phase":<name>,"converged_ns":..,"collector_ns":..,
//!   "metrics":[...]}` — a phase-scoped [`MetricsSnapshot`], and the
//!   phase's [`PhaseConvergence`] on the line that closed it;
//!
//! and a campaign artifact (see [`crate::campaign`]) holds one
//! `{"type":"campaign", ...}` header, one `job` line per run and one `cell`
//! line per grid cell. [`Artifact`] reads both, and rejects a file that
//! mixes them.
//!
//! The analysis half ([`RunAnalysis`]) derives per-node update counts and
//! recompute latency histograms from the typed events, and a convergence
//! timeline from the phase markers and the convergence each phase recorded
//! — no string parsing anywhere.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::campaign::{aggregate_cells, CellStats, JobRecord};
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

/// Append one typed line (no newline) to `out`: `{"type":<kind>` followed
/// by the members of `members`, an object (anything else adds none). Every
/// line but the event line is written through here.
pub fn write_typed_line(out: &mut String, kind: &str, members: &Json) {
    let mut w = JsonWriter::new(out);
    w.begin_object();
    w.key(TYPE_KEY);
    w.str(kind);
    if let Json::Obj(members) = members {
        for (key, value) in members {
            w.key(key);
            value.write_compact(w.raw());
        }
    }
    w.end_object();
}

/// [`write_typed_line`] into a new string.
pub(crate) fn typed_line(kind: &str, members: &Json) -> String {
    let mut out = String::new();
    write_typed_line(&mut out, kind, members);
    out
}

/// A phase's convergence, taken when the run closed the phase: what the
/// phase's `metrics` line records and `bgpsdn report` prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseConvergence {
    /// Phase start to the last routing-plane change on the activity board:
    /// the measured convergence time, which Figure 2 gates.
    pub converged_ns: u64,
    /// Phase start to the last UPDATE the route collector logged (the
    /// collector view; `None` without a collector).
    pub collector_ns: Option<u64>,
}

/// Serialize one metrics-snapshot line, with the convergence of the phase
/// when this line closed it.
pub fn metrics_line(
    phase: &str,
    convergence: Option<PhaseConvergence>,
    snapshot: &MetricsSnapshot,
) -> String {
    let mut members = vec![("phase".into(), Json::Str(phase.to_string()))];
    if let Some(c) = convergence {
        members.push(("converged_ns".into(), Json::U64(c.converged_ns)));
        if let Some(ns) = c.collector_ns {
            members.push(("collector_ns".into(), Json::U64(ns)));
        }
    }
    members.push(("metrics".into(), snapshot.to_json()));
    typed_line("metrics", &Json::Obj(members))
}

/// One parsed `metrics` line.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMetrics {
    /// The phase's name.
    pub phase: String,
    /// The phase's convergence; `None` on a line that did not close its
    /// phase, and in artifacts written before lines recorded it.
    pub convergence: Option<PhaseConvergence>,
    /// The phase's metrics snapshot, as raw JSON.
    pub metrics: Json,
}

/// What an artifact records: one run, or a campaign of runs. Each line type
/// belongs to one kind, and an artifact holds lines of one kind only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// `run`, `event`, `snapshot` and `metrics` lines: one run's telemetry.
    Run,
    /// `campaign`, `job` and `cell` lines: a merged parameter sweep.
    Campaign,
}

impl ArtifactKind {
    fn name(self) -> &'static str {
        match self {
            ArtifactKind::Run => "run",
            ArtifactKind::Campaign => "campaign",
        }
    }
}

/// A parsed JSONL artifact, run or campaign: the one reader behind
/// `bgpsdn report`, `explain` and `verify`.
#[derive(Debug, Clone, Default)]
pub struct Artifact {
    /// What the lines read so far record; `None` until a known line type.
    pub kind: Option<ArtifactKind>,
    /// The `run` or `campaign` header line, minus the `"type"` tag.
    pub header: Option<Json>,
    /// All event lines in file order.
    pub events: Vec<EventRecord>,
    /// The frozen verifier snapshot line: its line number and its text,
    /// checked to be JSON but not decoded.
    pub snapshot: Option<(usize, String)>,
    /// The `metrics` lines, in file order.
    pub metrics: Vec<PhaseMetrics>,
    /// All job records, in job order.
    pub jobs: Vec<JobRecord>,
    /// Per-cell statistics, always [`aggregate_cells`] of `jobs` — what the
    /// writer wrote as `cell` lines, which are checked but not decoded.
    pub cells: Vec<CellStats>,
    /// The first line of the other kind, as the error it is.
    mixed: Option<String>,
}

/// The run-artifact view of [`Artifact`]. ROADMAP item 2 deletes it.
pub type RunArtifact = Artifact;

/// The campaign-artifact view of [`Artifact`]. ROADMAP item 2 deletes it.
pub type CampaignArtifact = Artifact;

impl Artifact {
    /// Parse a whole JSONL document. Unknown line types are checked and
    /// skipped (forward compatibility); malformed lines are errors, and so
    /// is a line of the other kind than the first known one.
    pub fn parse(text: &str) -> Result<Artifact, String> {
        Artifact::read(text, None)
    }

    /// Parse for reporting: a malformed *final* line (a writer killed
    /// mid-line) degrades to a warning instead of an error, and so does an
    /// artifact without events or job records. Still fails when nothing
    /// recognizable survives — a file that is no artifact at all should not
    /// render as an empty one.
    pub fn parse_lenient(text: &str) -> Result<(Artifact, Vec<String>), String> {
        let mut warnings = Vec::new();
        let out = Artifact::read(text, Some(&mut warnings))?;
        match out.kind {
            None => return Err("artifact has no recognizable lines (not an artifact?)".into()),
            Some(ArtifactKind::Run) if out.events.is_empty() => {
                warnings.push("artifact contains no trace events (tracing disabled?)".into())
            }
            Some(ArtifactKind::Campaign) if out.jobs.is_empty() => {
                warnings.push("campaign artifact contains no job records".into())
            }
            _ => {}
        }
        Ok((out, warnings))
    }

    /// Scan `text` through [`Artifact::ingest`] (leniently with
    /// `warnings`), fail on a mixed artifact, and aggregate the cells.
    fn read(text: &str, warnings: Option<&mut Vec<String>>) -> Result<Artifact, String> {
        let mut out = Artifact::default();
        crate::jsonl::scan(text, warnings, |n, raw| out.ingest(n, raw))?;
        if let Some(e) = out.mixed.take() {
            return Err(e);
        }
        out.cells = aggregate_cells(&out.jobs);
        Ok(out)
    }

    /// Dispatch one artifact line on its `"type"`. Event lines — nearly all
    /// of a run's — are decoded straight off the bytes; a `snapshot` line is
    /// checked and kept as text, `cell` and unknown lines only checked; the
    /// few header, `metrics` and `job` lines become a [`Json`].
    fn ingest(&mut self, lineno: usize, raw: &str) -> Result<(), String> {
        let mut r = JsonReader::new(raw);
        r.skip_ws();
        // Only an object has members, let alone a type.
        let more = r.peek() == Some(b'{') && r.open(b'}')?;
        let members = r;
        let typed = r.seek_member(more, TYPE_KEY)?;
        let Some(line_type) = typed.then(|| r.str()).transpose()?.flatten() else {
            json::check(raw)?;
            return Err("missing \"type\"".into());
        };
        let kind = match &*line_type {
            "run" | EVENT_TYPE | "snapshot" | "metrics" => ArtifactKind::Run,
            "campaign" | "job" | "cell" => ArtifactKind::Campaign,
            // Unknown line type: skipped, once it is known to be JSON.
            _ => return Ok(json::check(raw)?),
        };
        match self.kind {
            Some(first) if first != kind => {
                // Not forgiven as a cut final line: `read` reports it.
                self.mixed.get_or_insert(format!(
                    "line {lineno}: a {line_type:?} line in a {} artifact",
                    first.name()
                ));
                return Ok(());
            }
            _ => self.kind = Some(kind),
        }
        match &*line_type {
            EVENT_TYPE => {
                let mut r = members;
                self.events.push(read_event_line(&mut r, more)?);
            }
            "snapshot" => {
                json::check(raw)?;
                self.snapshot = Some((lineno, raw.to_string()));
            }
            "cell" => json::check(raw)?,
            "metrics" => {
                let v = Json::parse(raw)?;
                let metrics = v.get("metrics").ok_or("missing \"metrics\"")?;
                if metrics.as_arr().is_none() {
                    return Err("bad \"metrics\"".into());
                }
                let ns = |key| v.get(key).and_then(Json::as_u64);
                self.metrics.push(PhaseMetrics {
                    phase: v.get("phase").and_then(Json::as_str).unwrap_or("").into(),
                    convergence: ns("converged_ns").map(|converged_ns| PhaseConvergence {
                        converged_ns,
                        collector_ns: ns("collector_ns"),
                    }),
                    metrics: metrics.clone(),
                });
            }
            "job" => self.jobs.push(JobRecord::from_json(&Json::parse(raw)?)?),
            // A `run` or `campaign` header.
            _ => {
                if let Json::Obj(mut members) = Json::parse(raw)? {
                    members.retain(|(k, _)| k != TYPE_KEY);
                    self.header = Some(Json::Obj(members));
                }
            }
        }
        Ok(())
    }

    /// Human-readable report (what `bgpsdn report` prints): the grid-cell
    /// table of a campaign; the header, [`RunAnalysis`] and per-phase
    /// metrics of a run.
    pub fn render_report(&self) -> String {
        if self.kind == Some(ArtifactKind::Campaign) {
            return self.render_cells();
        }
        let mut out = String::new();
        if let Some(run) = &self.header {
            let _ = writeln!(out, "run: {}", run.to_compact());
        }
        out.push_str(&RunAnalysis::from_artifact(self).render());
        for PhaseMetrics { phase, metrics, .. } in &self.metrics {
            let _ = writeln!(out, "== metrics [{phase}]");
            let pooled = counter_sum(metrics, "core.sim.events_pooled");
            let hot = counter_sum(metrics, "core.sim.allocs_hot");
            if pooled + hot > 0 {
                let _ = writeln!(
                    out,
                    "  sim hot path: {pooled} event slots recycled, {hot} slab growth allocations"
                );
            }
            let _ = writeln!(out, "{}", metrics.to_compact());
        }
        out
    }
}

/// Per-phase convergence summary.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSummary {
    /// Phase name ("run" when the artifact has no phase markers).
    pub name: String,
    /// Phase start, sim ns.
    pub start: u64,
    /// The convergence the phase's `metrics` line recorded, if any.
    pub convergence: Option<PhaseConvergence>,
    /// UPDATE messages sent during the phase.
    pub updates_sent: u64,
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
    pub fn from_artifact(artifact: &Artifact) -> RunAnalysis {
        let mut a = RunAnalysis::default();
        // The index of the phase between its start and end markers.
        let mut open: Option<usize> = None;
        for rec in &artifact.events {
            match &rec.event {
                TraceEvent::UpdateSent { .. } => {
                    if let Some(node) = rec.node {
                        a.updates_by_node.entry(node).or_default().0 += 1;
                    }
                    if let Some(i) = open {
                        a.phases[i].updates_sent += 1;
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
                TraceEvent::SpeakerHeadless { entered: true } => a.headless_entries += 1,
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
                    open = started.then_some(a.phases.len());
                    if *started {
                        a.phases.push(PhaseSummary {
                            name: name.clone(),
                            start: rec.t,
                            convergence: None,
                            updates_sent: 0,
                        });
                    }
                }
                _ => {}
            }
        }
        if a.phases.is_empty() && !artifact.events.is_empty() {
            // No markers: treat the whole run as one phase.
            a.phases.push(PhaseSummary {
                name: "run".into(),
                start: artifact.events[0].t,
                convergence: None,
                updates_sent: a.updates_by_node.values().map(|c| c.0).sum(),
            });
        }
        // Each metrics line holds its own phase's counts: sum over them all.
        let total = |name| {
            let lines = artifact.metrics.iter();
            lines.map(|m| counter_sum(&m.metrics, name)).sum()
        };
        a.sessions_reestablished = total("bgp.router.sessions_reestablished");
        a.stale_retained = total("bgp.router.stale_retained");
        a.treat_as_withdraw = total("bgp.router.treat_as_withdraw");
        a.damped_suppressed = total("bgp.router.damped_suppressed");
        for p in &mut a.phases {
            let line = artifact.metrics.iter().find(|m| m.phase == p.name);
            p.convergence = line.and_then(|m| m.convergence);
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
            let n = self.verify_violations.len();
            let _ = writeln!(out, "== verification: {n} violations");
            for (t, check, prefix, offender, witness) in &self.verify_violations {
                let prefix = prefix.as_ref().map_or(String::new(), |p| format!(" {p}"));
                let _ = writeln!(
                    out,
                    "  t={:.3}s [{check}]{prefix} at {offender}: {witness}",
                    *t as f64 / 1e9
                );
            }
        }
        let _ = writeln!(out, "== convergence timeline");
        let s = |ns: u64| ns as f64 / 1e9;
        for p in &self.phases {
            let _ = write!(out, "  phase {:<12} start {:>10.3}s  ", p.name, s(p.start));
            if let Some(c) = p.convergence {
                let _ = write!(out, "converged in {:.3}s", s(c.converged_ns));
                if let Some(seen) = c.collector_ns {
                    let lag = (seen as f64 - c.converged_ns as f64) / 1e9;
                    let _ = write!(out, " (collector view {:.3}s, lag {lag:+.3}s)", s(seen));
                }
                out.push_str("  ");
            }
            let _ = writeln!(out, "({} updates)", p.updates_sent);
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
fn counter_sum(snapshot: &Json, name: &str) -> u64 {
    let entries = snapshot.as_arr().unwrap_or_default();
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
        text.push_str(&typed_line(
            "run",
            &Json::Obj(vec![("scenario".into(), Json::Str("clique".into()))]),
        ));
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
        let snapshot = "{\"type\":\"snapshot\",\"nodes\":[{\"a\":[]}]}";
        text.push_str(snapshot);
        text.push('\n');
        let convergence = PhaseConvergence {
            converged_ns: 7,
            collector_ns: None,
        };
        let metrics = MetricsSnapshot::default();
        text.push_str(&metrics_line("bring-up", Some(convergence), &metrics));
        text.push('\n');
        let artifact = Artifact::parse(&text).unwrap();
        // The snapshot line is kept as its text, with its line number.
        assert_eq!(artifact.snapshot, Some((3, snapshot.to_string())));
        assert_eq!(artifact.kind, Some(ArtifactKind::Run));
        assert_eq!(
            artifact
                .header
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
        assert_eq!(
            artifact.metrics,
            [PhaseMetrics {
                phase: "bring-up".into(),
                convergence: Some(convergence),
                metrics: metrics.to_json(),
            }]
        );
    }

    #[test]
    fn parse_rejects_bad_lines_and_skips_unknown_types() {
        assert!(Artifact::parse("{\"type\":\"event\"}").is_err()); // no t
        assert!(Artifact::parse("not json").is_err());
        let ok = Artifact::parse("{\"type\":\"future-thing\",\"x\":1}\n\n").unwrap();
        assert!(ok.events.is_empty());
    }

    fn one_event(line: &str) -> Result<EventRecord, String> {
        Artifact::parse(line).map(|a| a.events.into_iter().next().expect("one event line"))
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
        // value, integral floats, whitespace, "cached" unusable (read as
        // 0), "node" absent.
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
                Artifact::parse(bad).unwrap_err(),
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
            let err = Artifact::parse(malformed).unwrap_err();
            assert!(
                err.starts_with("line 1: json error at byte "),
                "{malformed}: {err}"
            );
        }
    }

    #[test]
    fn a_metrics_line_holds_an_array() {
        let line = |metrics: &str| format!("{{\"type\":\"metrics\",\"phase\":\"x\"{metrics}}}");
        for bad in ["5", "{}", "\"x\"", "null"] {
            assert_eq!(
                Artifact::parse(&line(&format!(",\"metrics\":{bad}"))).unwrap_err(),
                "line 1: bad \"metrics\"",
                "{bad}"
            );
        }
        assert_eq!(
            Artifact::parse(&line("")).unwrap_err(),
            "line 1: missing \"metrics\""
        );
        let ok = Artifact::parse(&line(",\"metrics\":[]")).unwrap();
        assert_eq!(ok.metrics[0].metrics, Json::Arr(Vec::new()));
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
                let got = Artifact::parse(&line);
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
        assert!(Artifact::parse(text).is_err());
        let (artifact, warnings) = Artifact::parse_lenient(text).unwrap();
        assert!(artifact.header.is_some());
        assert!(
            warnings.iter().any(|w| w.contains("final line")),
            "{warnings:?}"
        );
        // Valid header, zero events: a warning, not a garbled table.
        let (empty, warnings) = Artifact::parse_lenient("{\"type\":\"run\",\"n\":4}\n").unwrap();
        assert!(empty.events.is_empty());
        assert!(
            warnings.iter().any(|w| w.contains("no trace events")),
            "{warnings:?}"
        );
        // A file with nothing recognizable is still a hard error.
        assert!(Artifact::parse_lenient("this is not json\n").is_err());
        assert!(Artifact::parse_lenient("").is_err());
    }

    #[test]
    fn typed_lines_put_the_type_first() {
        let members = Json::Obj(vec![
            ("a".into(), Json::U64(1)),
            (
                "b".into(),
                Json::Arr(vec![Json::Null, Json::Str("x".into())]),
            ),
        ]);
        let mut want = Json::Obj(vec![("type".into(), Json::Str("run".into()))]);
        if let (Json::Obj(w), Json::Obj(m)) = (&mut want, &members) {
            w.extend(m.iter().cloned());
        }
        assert_eq!(typed_line("run", &members), want.to_compact());
        assert_eq!(typed_line("x", &Json::Obj(vec![])), "{\"type\":\"x\"}");
        let mut out = "earlier\n".to_string();
        write_typed_line(&mut out, "cell", &Json::Null);
        assert_eq!(out, "earlier\n{\"type\":\"cell\"}");
    }

    #[test]
    fn kind_tells_runs_from_campaigns() {
        let kind = |text: &str| Artifact::parse(text).map(|a| a.kind);
        assert_eq!(
            kind("{\"type\":\"run\",\"x\":1}\n"),
            Ok(Some(ArtifactKind::Run))
        );
        assert_eq!(kind(""), Ok(None));
        // A campaign without its header line is still a campaign.
        let job = crate::campaign::tests::job(0, 0, 4, 10.0).to_line();
        let headless = Artifact::parse(&job).unwrap();
        assert_eq!(headless.kind, Some(ArtifactKind::Campaign));
        assert_eq!(headless.cells.len(), 1);
        // Mixing the kinds is an error naming the first line of the other
        // kind, even as the final line of a lenient parse.
        let mixed = format!("{{\"type\":\"run\"}}\n{job}\n");
        let want = "line 2: a \"job\" line in a run artifact";
        assert_eq!(Artifact::parse(&mixed).unwrap_err(), want);
        assert_eq!(Artifact::parse_lenient(&mixed).unwrap_err(), want);
        let mixed = format!("{job}\n{{\"type\":\"snapshot\"}}\n{job}\n");
        assert_eq!(
            Artifact::parse(&mixed).unwrap_err(),
            "line 2: a \"snapshot\" line in a campaign artifact"
        );
    }

    fn ev(t: u64, node: Option<u32>, event: TraceEvent) -> EventRecord {
        EventRecord { t, node, event }
    }

    #[test]
    fn analysis_counts_and_timeline() {
        let artifact = Artifact {
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
            metrics: vec![
                PhaseMetrics {
                    phase: "bring-up".into(),
                    convergence: Some(PhaseConvergence {
                        converged_ns: 20,
                        collector_ns: None,
                    }),
                    metrics: Json::Arr(vec![]),
                },
                PhaseMetrics {
                    phase: "withdrawal".into(),
                    convergence: Some(PhaseConvergence {
                        converged_ns: 2_000_000_030,
                        collector_ns: Some(1_985_000_000),
                    }),
                    metrics: Json::Arr(vec![]),
                },
            ],
            ..Artifact::default()
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
        assert_eq!(a.phases[0].convergence, artifact.metrics[0].convergence);
        assert_eq!(a.phases[0].updates_sent, 1);
        assert_eq!(a.phases[1].name, "withdrawal");
        assert_eq!(a.phases[1].start, 40);
        assert_eq!(a.phases[1].convergence, artifact.metrics[1].convergence);
        let report = a.render();
        assert!(report.contains("n1"), "{report}");
        assert!(report.contains("recompute"), "{report}");
        assert!(
            report.contains("converged in 0.000s  (1 updates)"),
            "{report}"
        );
        assert!(
            report.contains("converged in 2.000s (collector view 1.985s, lag -0.015s)"),
            "{report}"
        );
    }

    #[test]
    fn analysis_counts_control_channel_events() {
        let artifact = Artifact {
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
            ..Artifact::default()
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
        let artifact = Artifact {
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
            metrics: vec![PhaseMetrics {
                phase: "run".into(),
                convergence: None,
                metrics: counters.to_json(),
            }],
            ..Artifact::default()
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
        let artifact = Artifact {
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
            ..Artifact::default()
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
        let artifact = Artifact {
            events: vec![ev(
                7,
                Some(1),
                TraceEvent::RibChange {
                    prefix: pfx(),
                    old_path: None,
                    new_path: Some(vec![1]),
                },
            )],
            ..Artifact::default()
        };
        let a = RunAnalysis::from_artifact(&artifact);
        assert_eq!(a.phases.len(), 1);
        assert_eq!(a.phases[0].name, "run");
        assert_eq!(a.phases[0].convergence, None);
    }

    #[test]
    fn session_health_sums_every_phase() {
        // Each metrics line holds only its own phase's counts.
        let line = |phase: &str, n| {
            metrics_line(
                phase,
                None,
                &MetricsSnapshot {
                    entries: vec![(
                        Some(1),
                        "bgp.router.sessions_reestablished".into(),
                        crate::metrics::MetricValue::Counter(n),
                    )],
                },
            )
        };
        let text = format!("{}\n{}\n", line("bring-up", 2), line("withdrawal", 3));
        let a = RunAnalysis::from_artifact(&Artifact::parse(&text).unwrap());
        assert_eq!(a.sessions_reestablished, 5);
    }

    #[test]
    fn an_artifact_without_recorded_convergence_still_reports() {
        // The metrics line and recompute event as artifacts wrote them
        // before phases recorded their convergence: a `dirty` member, no
        // `converged_ns`.
        let text = "{\"type\":\"run\",\"scenario\":\"clique\"}
{\"type\":\"event\",\"t\":0,\"node\":null,\"kind\":\"phase\",\"name\":\"withdrawal\",\"started\":true}
{\"type\":\"event\",\"t\":5,\"node\":9,\"kind\":\"recompute\",\"trigger\":\"update_batch\",\"prefixes\":4,\"dirty\":2,\"recomputed\":2,\"cached\":2,\"members\":4,\"links_up\":6,\"flow_mods\":3,\"announcements\":1,\"withdrawals\":0,\"wall_ns\":900}
{\"type\":\"event\",\"t\":9,\"node\":null,\"kind\":\"phase\",\"name\":\"withdrawal\",\"started\":false}
{\"type\":\"metrics\",\"phase\":\"withdrawal\",\"metrics\":[{\"node\":9,\"name\":\"core.controller.prefixes_dirty\",\"counter\":2}]}
";
        let artifact = Artifact::parse(text).unwrap();
        assert_eq!(artifact.metrics[0].convergence, None);
        let a = RunAnalysis::from_artifact(&artifact);
        assert_eq!(a.prefixes_recomputed, 2);
        assert_eq!(a.phases[0].convergence, None);
        let report = artifact.render_report();
        assert!(
            report.contains("  phase withdrawal   start      0.000s  (0 updates)\n"),
            "{report}"
        );
        assert!(!report.contains("converged in"), "{report}");
    }
}
