//! Causal convergence forensics: reconstructing per-trigger causal DAGs
//! from [`TraceEvent::Causal`] records, extracting critical paths, and
//! decomposing convergence time into the phase taxonomy.
//!
//! Every convergence trigger (announce/withdraw command, link failure,
//! chaos action) mints a trigger-root causal event; as its consequences
//! propagate — through MRAI queues, links, processing queues, the
//! speaker→controller channel, recomputation batches, FlowMod installs —
//! each station mints a child event pointing at its parent(s). This module
//! is the read side: it rebuilds the DAG, walks backwards from the last
//! routing settlement of each prefix to the trigger, and buckets every
//! edge into a [`CausalPhase`]. Because each edge's duration is
//! `t_child - t_parent` and the walk is a connected chain, the per-phase
//! durations of one path telescope to exactly
//! `t_settle - t_trigger` — the convergence time — by construction.
//!
//! Everything here is sim-time based and therefore deterministic across
//! reruns and campaign worker counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{CausalPhase, ObsPrefix, TraceEvent};
use crate::json::Json;

/// Compact causal lineage carried inside in-flight messages: which trigger
/// the message descends from, the causal event that put it on the wire,
/// and how many stations the lineage has crossed. Zero-valued ids mean "no
/// lineage" (causal tracing disabled, or a message outside any transient).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cause {
    /// Id of the trigger-root causal event, 0 when untracked.
    pub trigger: u64,
    /// Id of the causal event this message descends from, 0 when untracked.
    pub parent: u64,
    /// Stations crossed since the trigger.
    pub hop: u32,
}

impl Cause {
    /// The "no lineage" sentinel.
    pub const NONE: Cause = Cause {
        trigger: 0,
        parent: 0,
        hop: 0,
    };

    /// True when this cause carries no lineage.
    pub fn is_none(&self) -> bool {
        self.parent == 0
    }

    /// A child cause one hop further from the trigger, descending from the
    /// causal event `parent`.
    pub fn step(&self, parent: u64) -> Cause {
        Cause {
            trigger: self.trigger,
            parent,
            hop: self.hop.saturating_add(1),
        }
    }
}

impl Default for Cause {
    fn default() -> Cause {
        Cause::NONE
    }
}

/// One reconstructed node of a trigger's causal DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalNode {
    /// The event id.
    pub id: u64,
    /// Sim time, nanoseconds.
    pub t: u64,
    /// Node the event is attributed to, if any.
    pub node: Option<u32>,
    /// Phase of the edge into this event.
    pub phase: CausalPhase,
    /// Parent event ids (empty for trigger roots).
    pub parents: Vec<u64>,
    /// Trigger-root id.
    pub trigger: u64,
    /// Hops from the trigger.
    pub hop: u32,
    /// Prefix scope, if any.
    pub prefix: Option<ObsPrefix>,
}

/// Per-phase durations in nanoseconds, indexed by `CausalPhase::index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseBreakdown {
    ns: [u64; CausalPhase::ALL.len()],
}

impl PhaseBreakdown {
    /// Add `ns` nanoseconds to `phase`.
    pub(crate) fn add(&mut self, phase: CausalPhase, ns: u64) {
        self.ns[phase.index()] += ns;
    }

    /// Nanoseconds charged to `phase`.
    // detlint: allow test-oracle read-only view causal_forensics checks
    pub fn get(&self, phase: CausalPhase) -> u64 {
        self.ns[phase.index()]
    }

    /// Sum over all phases.
    // detlint: allow test-oracle read-only view causal_forensics checks
    pub fn total(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Merge another breakdown into this one.
    pub(crate) fn merge(&mut self, other: &PhaseBreakdown) {
        for (a, b) in self.ns.iter_mut().zip(other.ns.iter()) {
            *a += b;
        }
    }

    /// `(phase, ns)` pairs in canonical order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (CausalPhase, u64)> + '_ {
        CausalPhase::ALL.into_iter().map(|p| (p, self.get(p)))
    }

    /// JSON object `{phase_name: ns, ...}` with zero phases omitted.
    pub(crate) fn to_json(self) -> Json {
        Json::Obj(
            self.iter()
                .filter(|(_, ns)| *ns > 0)
                .map(|(p, ns)| (p.name().to_string(), Json::U64(ns)))
                .collect(),
        )
    }

    /// Parse the object form; unknown phase names are errors.
    pub(crate) fn from_json(v: &Json) -> Result<PhaseBreakdown, String> {
        let Json::Obj(members) = v else {
            return Err("phase breakdown must be an object".into());
        };
        let mut out = PhaseBreakdown::default();
        for (k, val) in members {
            let phase = CausalPhase::from_name(k).ok_or_else(|| format!("unknown phase {k:?}"))?;
            let ns = val
                .as_u64()
                .ok_or_else(|| format!("bad phase ns for {k:?}"))?;
            out.add(phase, ns);
        }
        Ok(out)
    }
}

/// One edge of a critical path, trigger→settlement order.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Causal event id at the head of the edge.
    pub id: u64,
    /// Sim time of the head event.
    pub t: u64,
    /// Node attribution of the head event.
    pub node: Option<u32>,
    /// Phase the edge is charged to.
    pub phase: CausalPhase,
    /// Edge duration, `t - parent.t`, nanoseconds.
    pub dur_ns: u64,
}

/// The critical path from a trigger to the last settlement of one prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// The prefix this path settles (None for prefixless settlements).
    pub prefix: Option<ObsPrefix>,
    /// Sim time of the final settlement.
    pub settle_t: u64,
    /// `settle_t - trigger_t`.
    pub total_ns: u64,
    /// Steps in trigger→settlement order; the first step is the trigger
    /// root (zero duration).
    pub steps: Vec<PathStep>,
    /// Per-phase decomposition of the steps; sums to `total_ns` when the
    /// walk reached the trigger (`complete`).
    pub phases: PhaseBreakdown,
    /// True when the backwards walk reached the trigger root.
    pub complete: bool,
}

/// A path-hunting chain: one `(node, prefix)` flapping through two or
/// more best-path changes under one trigger. The interval between the
/// first and last change is the ghost-route window — the span the node
/// kept forwarding along stale transient paths.
#[derive(Debug, Clone, PartialEq)]
pub struct HuntChain {
    /// The hunting node.
    pub node: u32,
    /// The hunted prefix.
    pub prefix: ObsPrefix,
    /// Best-path changes observed (≥ 2).
    pub steps: u32,
    /// Sim time of the first change.
    pub first_t: u64,
    /// Sim time of the last change (settlement).
    pub last_t: u64,
}

impl HuntChain {
    /// The ghost-route interval length, nanoseconds.
    fn ghost_ns(&self) -> u64 {
        self.last_t - self.first_t
    }
}

/// Everything reconstructed about one trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerForensics {
    /// The trigger-root event id.
    pub trigger: u64,
    /// Sim time the trigger fired.
    pub start_t: u64,
    /// Node the trigger is attributed to.
    pub node: Option<u32>,
    /// Prefix scope of the trigger, if any.
    pub prefix: Option<ObsPrefix>,
    /// Causal events in this trigger's DAG (including the root).
    pub events: u64,
    /// Sim time of the last settlement, when anything settled.
    pub settle_t: Option<u64>,
    /// Phase decomposition of the longest critical path (the one ending at
    /// the overall last settlement). Empty when nothing settled.
    pub phases: PhaseBreakdown,
    /// Per-prefix critical paths, longest first.
    pub paths: Vec<CriticalPath>,
    /// Path-hunting chains, longest ghost interval first.
    pub hunts: Vec<HuntChain>,
    /// Session-lifecycle attribution: when a `SessionDown` record on the
    /// trigger's node immediately precedes the trigger (hold-timer expiry
    /// tearing a session down and withdrawing its routes), this names it.
    pub cause: Option<String>,
}

impl TriggerForensics {
    /// `settle_t - start_t`: the trigger's convergence time.
    pub(crate) fn convergence_ns(&self) -> Option<u64> {
        self.settle_t.map(|t| t - self.start_t)
    }
}

/// The reconstructed forensics of a whole run: one entry per trigger, in
/// trigger-id (= time) order.
#[derive(Debug, Clone, Default)]
pub struct CausalAnalysis {
    /// Per-trigger forensics.
    pub triggers: Vec<TriggerForensics>,
    /// Causal events referencing a parent id absent from the trace (ring
    /// buffer overflow or truncated artifact).
    pub dangling: u64,
}

impl CausalAnalysis {
    /// Reconstruct from `(sim_ns, node, event)` tuples — the shape both
    /// in-memory [`TraceRecord`]s and artifact `EventRecord`s flatten to.
    /// Non-causal events are ignored.
    ///
    /// [`TraceRecord`]: crate::event::TraceEvent
    pub fn from_events<'a>(
        events: impl IntoIterator<Item = (u64, Option<u32>, &'a TraceEvent)>,
    ) -> CausalAnalysis {
        let mut nodes: BTreeMap<u64, CausalNode> = BTreeMap::new();
        let mut session_downs: Vec<(u64, u32, String)> = Vec::new();
        for (t, node, event) in events {
            match event {
                TraceEvent::Causal {
                    id,
                    parents,
                    trigger,
                    hop,
                    phase,
                    prefix,
                } => {
                    nodes.insert(
                        *id,
                        CausalNode {
                            id: *id,
                            t,
                            node,
                            phase: *phase,
                            parents: parents.clone(),
                            trigger: *trigger,
                            hop: *hop,
                            prefix: *prefix,
                        },
                    );
                }
                TraceEvent::SessionDown { peer, reason } => {
                    if let Some(n) = node {
                        session_downs.push((t, n, format!("session to n{peer} down: {reason}")));
                    }
                }
                _ => {}
            }
        }
        Self::from_nodes(nodes, &session_downs)
    }

    fn from_nodes(
        nodes: BTreeMap<u64, CausalNode>,
        session_downs: &[(u64, u32, String)],
    ) -> CausalAnalysis {
        let mut dangling = 0u64;
        // Group events by trigger; count dangling parents.
        let mut by_trigger: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for n in nodes.values() {
            by_trigger.entry(n.trigger).or_default().push(n.id);
            if n.parents.iter().any(|p| !nodes.contains_key(p)) {
                dangling += 1;
            }
        }
        let mut triggers = Vec::new();
        for (trigger_id, ids) in by_trigger {
            let Some(root) = nodes.get(&trigger_id) else {
                // The root itself fell out of the ring buffer; the group is
                // unanchored, report it via `dangling` only.
                dangling += 1;
                continue;
            };
            // Last settlement per prefix: max (t, id) over settlement
            // events, keyed by prefix.
            let mut settles: BTreeMap<Option<ObsPrefix>, u64> = BTreeMap::new();
            for id in &ids {
                let n = &nodes[id];
                if n.phase.is_settlement() {
                    let best = settles.entry(n.prefix).or_insert(*id);
                    let b = &nodes[best];
                    if (n.t, n.id) > (b.t, b.id) {
                        *best = *id;
                    }
                }
            }
            let mut paths: Vec<CriticalPath> = settles
                .values()
                .map(|&settle| walk_back(&nodes, settle, root.t))
                .collect();
            // Longest first; break ties on prefix for deterministic order.
            paths.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.prefix.cmp(&b.prefix)));
            // Hunt chains: settlement rib-changes grouped by (node, prefix).
            let mut hunt_groups: BTreeMap<(u32, ObsPrefix), Vec<u64>> = BTreeMap::new();
            for id in &ids {
                let n = &nodes[id];
                if n.phase == CausalPhase::HuntStep {
                    if let (Some(node), Some(prefix)) = (n.node, n.prefix) {
                        hunt_groups.entry((node, prefix)).or_default().push(n.t);
                    }
                }
            }
            let mut hunts: Vec<HuntChain> = hunt_groups
                .into_iter()
                .filter(|(_, ts)| ts.len() >= 2)
                .map(|((node, prefix), ts)| HuntChain {
                    node,
                    prefix,
                    steps: ts.len() as u32,
                    first_t: *ts.iter().min().expect("non-empty"),
                    last_t: *ts.iter().max().expect("non-empty"),
                })
                .collect();
            hunts.sort_by(|a, b| {
                b.ghost_ns()
                    .cmp(&a.ghost_ns())
                    .then((a.node, a.prefix).cmp(&(b.node, b.prefix)))
            });
            let longest = paths.first();
            // Attribute the trigger to a session teardown on the same node
            // within the preceding second (hold-expiry cleanup mints the
            // withdrawal trigger at the teardown instant, so in practice the
            // times coincide; the window tolerates queued processing).
            const CAUSE_WINDOW_NS: u64 = 1_000_000_000;
            let cause = root.node.and_then(|n| {
                session_downs
                    .iter()
                    .filter(|(t, dn, _)| *dn == n && *t <= root.t && root.t - *t <= CAUSE_WINDOW_NS)
                    .max_by_key(|(t, _, _)| *t)
                    .map(|(_, _, reason)| reason.clone())
            });
            triggers.push(TriggerForensics {
                trigger: trigger_id,
                start_t: root.t,
                node: root.node,
                prefix: root.prefix,
                events: ids.len() as u64,
                settle_t: longest.map(|p| p.settle_t),
                phases: longest.map(|p| p.phases).unwrap_or_default(),
                paths,
                hunts,
                cause,
            });
        }
        CausalAnalysis { triggers, dangling }
    }

    /// Phase durations summed over all triggers (each trigger contributes
    /// its longest critical path).
    pub fn phase_totals(&self) -> PhaseBreakdown {
        let mut out = PhaseBreakdown::default();
        for t in &self.triggers {
            out.merge(&t.phases);
        }
        out
    }

    /// The machine-readable form `bgpsdn explain --json` prints.
    pub fn to_json(&self, top_k: usize) -> Json {
        let triggers = self
            .triggers
            .iter()
            .map(|t| {
                let mut m: Vec<(String, Json)> = vec![
                    ("trigger".into(), Json::U64(t.trigger)),
                    ("t".into(), Json::U64(t.start_t)),
                    (
                        "node".into(),
                        t.node.map(|n| Json::U64(n as u64)).unwrap_or(Json::Null),
                    ),
                ];
                if let Some(p) = t.prefix {
                    m.push(("prefix".into(), Json::Str(p.to_string())));
                }
                if let Some(c) = &t.cause {
                    m.push(("cause".into(), Json::Str(c.clone())));
                }
                m.push(("events".into(), Json::U64(t.events)));
                if let Some(ns) = t.convergence_ns() {
                    m.push(("convergence_ns".into(), Json::U64(ns)));
                }
                m.push(("phases".into(), t.phases.to_json()));
                m.push((
                    "critical_paths".into(),
                    Json::Arr(
                        t.paths
                            .iter()
                            .take(top_k)
                            .map(|p| {
                                Json::Obj(vec![
                                    (
                                        "prefix".into(),
                                        p.prefix
                                            .map(|x| Json::Str(x.to_string()))
                                            .unwrap_or(Json::Null),
                                    ),
                                    ("total_ns".into(), Json::U64(p.total_ns)),
                                    ("complete".into(), Json::Bool(p.complete)),
                                    ("phases".into(), p.phases.to_json()),
                                    (
                                        "steps".into(),
                                        Json::Arr(
                                            p.steps
                                                .iter()
                                                .map(|s| {
                                                    Json::Obj(vec![
                                                        ("id".into(), Json::U64(s.id)),
                                                        ("t".into(), Json::U64(s.t)),
                                                        (
                                                            "node".into(),
                                                            s.node
                                                                .map(|n| Json::U64(n as u64))
                                                                .unwrap_or(Json::Null),
                                                        ),
                                                        (
                                                            "phase".into(),
                                                            Json::Str(s.phase.name().into()),
                                                        ),
                                                        ("dur_ns".into(), Json::U64(s.dur_ns)),
                                                    ])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ));
                m.push((
                    "hunts".into(),
                    Json::Arr(
                        t.hunts
                            .iter()
                            .map(|h| {
                                Json::Obj(vec![
                                    ("node".into(), Json::U64(h.node as u64)),
                                    ("prefix".into(), Json::Str(h.prefix.to_string())),
                                    ("steps".into(), Json::U64(h.steps as u64)),
                                    ("ghost_ns".into(), Json::U64(h.ghost_ns())),
                                ])
                            })
                            .collect(),
                    ),
                ));
                Json::Obj(m)
            })
            .collect();
        Json::Obj(vec![
            ("triggers".into(), Json::Arr(triggers)),
            ("dangling".into(), Json::U64(self.dangling)),
        ])
    }

    /// The human-readable rendering `bgpsdn explain` prints: per-trigger
    /// timeline, phase breakdown table, and the top-k critical paths.
    pub fn render(&self, top_k: usize) -> String {
        let s = |ns: u64| ns as f64 / 1e9;
        let mut out = String::new();
        if self.triggers.is_empty() {
            let _ = writeln!(out, "no causal events (was causal tracing enabled?)");
            return out;
        }
        for t in &self.triggers {
            let _ = write!(out, "== trigger #{} at {:>9.3}s", t.trigger, s(t.start_t));
            if let Some(n) = t.node {
                let _ = write!(out, " node n{n}");
            }
            if let Some(p) = t.prefix {
                let _ = write!(out, " prefix {p}");
            }
            match t.convergence_ns() {
                Some(ns) => {
                    let _ = writeln!(out, " — settled in {:.3}s ({} events)", s(ns), t.events);
                }
                None => {
                    let _ = writeln!(out, " — no settlement ({} events)", t.events);
                }
            }
            if let Some(cause) = &t.cause {
                let _ = writeln!(out, "  cause: {cause}");
            }
            let total = t.phases.total();
            if total > 0 {
                let _ = writeln!(out, "  phase breakdown (critical path):");
                for (phase, ns) in t.phases.iter().filter(|(_, ns)| *ns > 0) {
                    let _ = writeln!(
                        out,
                        "    {:<14} {:>10.3}s  {:>5.1}%",
                        phase.name(),
                        s(ns),
                        100.0 * ns as f64 / total as f64
                    );
                }
            }
            if !t.paths.is_empty() {
                let _ = writeln!(
                    out,
                    "  critical paths (top {} of {}):",
                    top_k.min(t.paths.len()),
                    t.paths.len()
                );
                for p in t.paths.iter().take(top_k) {
                    let label = p
                        .prefix
                        .map(|x| x.to_string())
                        .unwrap_or_else(|| "-".into());
                    let _ = write!(out, "    {label} {:.3}s:", s(p.total_ns));
                    if !p.complete {
                        let _ = write!(out, " (incomplete)");
                    }
                    for step in &p.steps {
                        let node = step
                            .node
                            .map(|n| format!("n{n}"))
                            .unwrap_or_else(|| "-".into());
                        if step.phase == CausalPhase::Trigger {
                            let _ = write!(out, " {node}·trigger");
                        } else {
                            let _ = write!(
                                out,
                                " -> {node}·{} +{:.3}s",
                                step.phase.name(),
                                s(step.dur_ns)
                            );
                        }
                    }
                    let _ = writeln!(out);
                }
            }
            if !t.hunts.is_empty() {
                let _ = writeln!(
                    out,
                    "  path hunting: {} chains, longest {} steps, ghost-route interval up to {:.3}s",
                    t.hunts.len(),
                    t.hunts.iter().map(|h| h.steps).max().unwrap_or(0),
                    s(t.hunts.iter().map(HuntChain::ghost_ns).max().unwrap_or(0)),
                );
            }
        }
        if self.dangling > 0 {
            let _ = writeln!(
                out,
                "warning: {} causal events with missing parents (trace truncated?)",
                self.dangling
            );
        }
        out
    }
}

/// Walk from `settle` back to the trigger root, choosing the
/// earliest-minted (smallest-id) parent at merge nodes — the honest
/// attribution for batch queues, where the batch waited since its oldest
/// member arrived. Returns steps in trigger→settlement order.
fn walk_back(nodes: &BTreeMap<u64, CausalNode>, settle: u64, trigger_t: u64) -> CriticalPath {
    let settle_node = &nodes[&settle];
    let mut steps: Vec<PathStep> = Vec::new();
    let mut phases = PhaseBreakdown::default();
    let mut cur = settle_node;
    let mut complete = false;
    // Ids are minted monotonically, so parent < child and the walk strictly
    // descends — no cycle guard needed beyond the map size.
    for _ in 0..=nodes.len() {
        if cur.parents.is_empty() {
            steps.push(PathStep {
                id: cur.id,
                t: cur.t,
                node: cur.node,
                phase: cur.phase,
                dur_ns: 0,
            });
            complete = cur.phase == CausalPhase::Trigger;
            break;
        }
        let parent = cur
            .parents
            .iter()
            .filter_map(|p| nodes.get(p))
            .min_by_key(|p| p.id);
        let Some(parent) = parent else {
            // All parents truncated away: emit the step with the full
            // remaining duration so the path still telescopes.
            steps.push(PathStep {
                id: cur.id,
                t: cur.t,
                node: cur.node,
                phase: cur.phase,
                dur_ns: cur.t.saturating_sub(trigger_t),
            });
            phases.add(cur.phase, cur.t.saturating_sub(trigger_t));
            break;
        };
        let dur = cur.t.saturating_sub(parent.t);
        steps.push(PathStep {
            id: cur.id,
            t: cur.t,
            node: cur.node,
            phase: cur.phase,
            dur_ns: dur,
        });
        phases.add(cur.phase, dur);
        cur = parent;
    }
    steps.reverse();
    CriticalPath {
        prefix: settle_node.prefix,
        settle_t: settle_node.t,
        total_ns: settle_node.t.saturating_sub(trigger_t),
        steps,
        phases,
        complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn causal(
        id: u64,
        parents: Vec<u64>,
        trigger: u64,
        hop: u32,
        phase: CausalPhase,
        prefix: Option<ObsPrefix>,
    ) -> TraceEvent {
        TraceEvent::Causal {
            id,
            parents,
            trigger,
            hop,
            phase,
            prefix,
        }
    }

    fn pfx() -> ObsPrefix {
        ObsPrefix::new(0x0a000000, 8)
    }

    /// trigger(1)@0 → ribchange(2)@0 → send(3)@30 [mrai] → deliver(4)@40
    /// [link] → proc(5)@45 → ribchange(6)@45 → ribchange(7)@90 [hunt round]
    #[test]
    fn critical_path_telescopes_to_convergence_time() {
        let p = Some(pfx());
        let evs = [
            (0, Some(1), causal(1, vec![], 1, 0, CausalPhase::Trigger, p)),
            (
                0,
                Some(1),
                causal(2, vec![1], 1, 1, CausalPhase::HuntStep, p),
            ),
            (
                30,
                Some(1),
                causal(3, vec![2], 1, 2, CausalPhase::MraiWait, p),
            ),
            (
                40,
                Some(2),
                causal(4, vec![3], 1, 3, CausalPhase::LinkProp, p),
            ),
            (
                45,
                Some(2),
                causal(5, vec![4], 1, 4, CausalPhase::ProcDelay, p),
            ),
            (
                45,
                Some(2),
                causal(6, vec![5], 1, 5, CausalPhase::HuntStep, p),
            ),
            (
                90,
                Some(2),
                causal(7, vec![6, 5], 1, 6, CausalPhase::HuntStep, p),
            ),
        ];
        let a = CausalAnalysis::from_events(evs.iter().map(|(t, n, e)| (*t, *n, e)));
        assert_eq!(a.triggers.len(), 1);
        assert_eq!(a.dangling, 0);
        let t = &a.triggers[0];
        assert_eq!(t.convergence_ns(), Some(90));
        assert_eq!(t.phases.total(), 90, "telescoping: path sums to settle-t");
        assert_eq!(t.phases.get(CausalPhase::MraiWait), 30);
        assert_eq!(t.phases.get(CausalPhase::LinkProp), 10);
        assert_eq!(t.phases.get(CausalPhase::ProcDelay), 5);
        assert_eq!(t.phases.get(CausalPhase::HuntStep), 45);
        assert_eq!(t.paths.len(), 1);
        assert!(t.paths[0].complete);
        assert_eq!(
            t.paths[0].steps.first().unwrap().phase,
            CausalPhase::Trigger
        );
        // Hunting: node 2 changed best twice → one chain, ghost 45ns.
        assert_eq!(t.hunts.len(), 1);
        assert_eq!(t.hunts[0].steps, 2);
        assert_eq!(t.hunts[0].ghost_ns(), 45);
        let r = a.render(3);
        assert!(r.contains("trigger #1"), "{r}");
        assert!(r.contains("hunt_step"), "{r}");
    }

    #[test]
    fn merge_node_picks_earliest_parent() {
        let p = Some(pfx());
        // Two updates (from one trigger) buffered into one controller
        // batch; the ctrl_queue edge must attribute back to the older one.
        let evs = [
            (0, Some(1), causal(1, vec![], 1, 0, CausalPhase::Trigger, p)),
            (
                10,
                Some(9),
                causal(2, vec![1], 1, 1, CausalPhase::LinkProp, p),
            ),
            (
                70,
                Some(9),
                causal(3, vec![1], 1, 1, CausalPhase::LinkProp, p),
            ),
            (
                100,
                Some(9),
                causal(4, vec![2, 3], 1, 2, CausalPhase::CtrlQueue, None),
            ),
            (
                100,
                Some(9),
                causal(5, vec![4], 1, 3, CausalPhase::CtrlRecompute, None),
            ),
            (
                105,
                Some(7),
                causal(6, vec![5], 1, 4, CausalPhase::FlowInstall, p),
            ),
        ];
        let a = CausalAnalysis::from_events(evs.iter().map(|(t, n, e)| (*t, *n, e)));
        let t = &a.triggers[0];
        assert_eq!(t.convergence_ns(), Some(105));
        assert_eq!(t.phases.total(), 105);
        // ctrl_queue spans 10→100 (earliest parent), not 70→100.
        assert_eq!(t.phases.get(CausalPhase::CtrlQueue), 90);
        assert_eq!(t.phases.get(CausalPhase::CtrlRecompute), 0);
        assert_eq!(t.phases.get(CausalPhase::FlowInstall), 5);
        assert_eq!(t.phases.get(CausalPhase::LinkProp), 10);
    }

    #[test]
    fn triggers_separate_and_dangling_counted() {
        let p = Some(pfx());
        let evs = [
            (0, Some(1), causal(1, vec![], 1, 0, CausalPhase::Trigger, p)),
            (
                5,
                Some(1),
                causal(2, vec![1], 1, 1, CausalPhase::HuntStep, p),
            ),
            (
                50,
                Some(2),
                causal(3, vec![], 3, 0, CausalPhase::Trigger, None),
            ),
            // References an event that never made it into the trace.
            (
                60,
                Some(2),
                causal(4, vec![99], 3, 1, CausalPhase::HuntStep, p),
            ),
        ];
        let a = CausalAnalysis::from_events(evs.iter().map(|(t, n, e)| (*t, *n, e)));
        assert_eq!(a.triggers.len(), 2);
        assert_eq!(a.dangling, 1);
        assert_eq!(a.triggers[0].trigger, 1);
        assert_eq!(a.triggers[1].trigger, 3);
        // The dangling path still telescopes via the trigger-start fallback.
        let t = &a.triggers[1];
        assert_eq!(t.convergence_ns(), Some(10));
        assert!(!t.paths[0].complete);
        assert_eq!(t.paths[0].phases.total(), 10);
    }

    #[test]
    fn hold_expiry_teardown_is_attributed_to_the_trigger() {
        let p = Some(pfx());
        let evs = [
            // Session teardown on n3 at t=10, then the withdrawal trigger it
            // mints on the same node at the same instant.
            (
                10,
                Some(3),
                TraceEvent::SessionDown {
                    peer: 7,
                    reason: "HoldExpired".into(),
                },
            ),
            (
                10,
                Some(3),
                causal(1, vec![], 1, 0, CausalPhase::Trigger, p),
            ),
            (
                40,
                Some(4),
                causal(2, vec![1], 1, 1, CausalPhase::HuntStep, p),
            ),
            // An unrelated trigger on a different node stays unattributed.
            (
                50,
                Some(1),
                causal(5, vec![], 5, 0, CausalPhase::Trigger, None),
            ),
        ];
        let a = CausalAnalysis::from_events(evs.iter().map(|(t, n, e)| (*t, *n, e)));
        assert_eq!(a.triggers.len(), 2);
        let attributed = &a.triggers[0];
        assert_eq!(
            attributed.cause.as_deref(),
            Some("session to n7 down: HoldExpired")
        );
        assert_eq!(a.triggers[1].cause, None);
        let r = a.render(3);
        assert!(r.contains("cause: session to n7 down: HoldExpired"), "{r}");
        let j = a.to_json(3).to_compact();
        assert!(j.contains("HoldExpired"), "{j}");
    }

    #[test]
    fn cause_carries_lineage() {
        assert!(Cause::NONE.is_none());
        assert_eq!(Cause::default(), Cause::NONE);
        let c = Cause {
            trigger: 7,
            parent: 7,
            hop: 0,
        };
        let child = c.step(12);
        assert_eq!(child.trigger, 7);
        assert_eq!(child.parent, 12);
        assert_eq!(child.hop, 1);
        assert!(!child.is_none());
    }

    #[test]
    fn breakdown_json_roundtrips() {
        let mut b = PhaseBreakdown::default();
        b.add(CausalPhase::MraiWait, 30);
        b.add(CausalPhase::HuntStep, 12);
        let j = b.to_json();
        let back = PhaseBreakdown::from_json(&j).unwrap();
        assert_eq!(back, b);
        assert!(PhaseBreakdown::from_json(&Json::parse("{\"nope\":1}").unwrap()).is_err());
        let mut sum = PhaseBreakdown::default();
        sum.merge(&b);
        sum.merge(&b);
        assert_eq!(sum.get(CausalPhase::MraiWait), 60);
        assert_eq!(sum.total(), 84);
    }
}
