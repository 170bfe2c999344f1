//! The experiment lifecycle API — the framework's "Mininet-BGP commands".
//!
//! "We implemented several additional Mininet-BGP commands to announce
//! prefixes, wait until BGP has converged, etc." plus "the user should be
//! able to actively control the experiments, e.g., dynamically changing the
//! topology and verifying the effects of changes". [`Experiment`] is that
//! surface, each command a [`ScriptAction`] that [`Experiment::apply`]
//! runs: announce/withdraw, link and device faults, convergence waits,
//! RIB and connectivity audits.

use std::net::Ipv4Addr;

use bgpsdn_analyze::{AnalysisReport, ConnectivityReport, Finding, Severity, Snapshot, Verifier};
use bgpsdn_bgp::{Prefix, RouterCommand};
use bgpsdn_collector::{measure, ConvergenceReport};
use bgpsdn_netsim::ObsPrefix;
use bgpsdn_netsim::{
    Activity, Counter, LinkId, MetricsSnapshot, NodeId, SimDuration, SimTime, TraceCategory,
    TraceEvent,
};
use bgpsdn_obs::{metrics_line, write_typed_line, Json, PhaseConvergence};
use bgpsdn_sdn::ClusterMsg;

use super::network::{
    AsHandle, AsKind, ClusterHandle, Collector, Controller, HybridNetwork, Router, Switch,
};
use super::script::ScriptAction;
use super::verify::capture_snapshot;

/// What one verifier checkpoint ([`Experiment::verify_now`]) found. The
/// frozen `benchmark/` harness reads `violations`; everything else reads
/// the report.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The verifier's report: every finding, stale-but-consistent warnings
    /// included.
    pub report: AnalysisReport,
    /// The report's error findings, each recorded as a `VerifyViolation`
    /// trace event.
    pub violations: Vec<Finding>,
}

/// A running hybrid experiment.
pub struct Experiment {
    /// The underlying network (public: tests and tools reach in freely).
    pub net: HybridNetwork,
    /// Start of the current measurement phase.
    phase_start: SimTime,
    /// Name of the current measurement phase (appears in `Phase` trace
    /// markers and as the key of the matching metrics snapshot).
    phase_name: String,
    /// Auto-numbering for anonymous [`Experiment::mark`] phases.
    phase_seq: u32,
    /// Completed phases: `(name, metrics accumulated during that phase)`.
    snapshots: Vec<(String, MetricsSnapshot)>,
    /// Per snapshot, the convergence of the phase it closed: `None` on a
    /// snapshot taken after its phase had already closed.
    convergence: Vec<Option<PhaseConvergence>>,
    /// Whether the current phase's start marker has been emitted.
    phase_open: bool,
    /// The static verifier, kept across checks so its scratch is reused.
    verifier: Verifier,
}

impl Experiment {
    /// Wrap a built network.
    pub fn new(net: HybridNetwork) -> Experiment {
        Experiment {
            net,
            phase_start: SimTime::ZERO,
            phase_name: "bring-up".to_string(),
            phase_seq: 0,
            snapshots: Vec::new(),
            convergence: Vec::new(),
            phase_open: false,
            verifier: Verifier::default(),
        }
    }

    /// Emit a `Phase` trace marker (global: no node attribution).
    fn emit_phase_marker(&mut self, name: &str, started: bool) {
        let now = self.net.sim.now();
        let name = name.to_string();
        self.net
            .sim
            .trace_mut()
            .record(now, None, TraceCategory::Experiment, || TraceEvent::Phase {
                name,
                started,
            });
    }

    /// Record a free-form experiment-level note in the trace (global: no
    /// node attribution). Campaigns use this to document per-cell decisions
    /// such as fault classes dropped as inapplicable.
    pub(crate) fn note(&mut self, text: impl Into<String>) {
        let now = self.net.sim.now();
        let text = text.into();
        self.net
            .sim
            .trace_mut()
            .record(now, None, TraceCategory::Experiment, || TraceEvent::Note {
                category: TraceCategory::Experiment,
                text,
            });
    }

    /// Close the current phase: emit its end marker, record its
    /// convergence — the activity board's last routing-plane change, as
    /// [`measure`] reads it, and the collector's view — and capture the
    /// metrics accumulated since its start as a phase-scoped snapshot, then
    /// reset the registry so the next phase starts from zero. Called again
    /// after the phase closed, it folds what was counted since (a final
    /// verification) into that phase's snapshot: one snapshot per phase.
    fn close_phase(&mut self) {
        let closing = self.phase_open;
        if closing {
            let name = self.phase_name.clone();
            self.emit_phase_marker(&name, false);
            self.phase_open = false;
        }
        let metrics = self.net.sim.take_metrics();
        if let (false, Some((_, snapshot))) = (closing, self.snapshots.last_mut()) {
            snapshot.absorb(metrics.snapshot());
        } else if closing || !metrics.is_empty() {
            let convergence = closing.then(|| PhaseConvergence {
                converged_ns: measure(self.net.sim.board(), self.phase_start, true)
                    .duration
                    .as_nanos(),
                collector_ns: self.collector_convergence().map(SimDuration::as_nanos),
            });
            self.snapshots
                .push((self.phase_name.clone(), metrics.snapshot()));
            self.convergence.push(convergence);
        }
    }

    /// Bring the network up: run until sessions establish and initial
    /// routing converges. Returns the convergence report of the bring-up
    /// phase.
    pub fn start(&mut self, max: SimDuration) -> ConvergenceReport {
        self.emit_phase_marker("bring-up", true);
        self.phase_open = true;
        let deadline = self.net.sim.now() + max;
        let q = self.net.sim.run_until_quiescent(deadline);
        measure(self.net.sim.board(), SimTime::ZERO, q.quiescent)
    }

    /// Begin a measurement phase: reset activity accounting and the
    /// collector log, and remember the phase start. Anonymous phases are
    /// auto-numbered `phase-1`, `phase-2`, …; use
    /// [`Experiment::mark_named`] for self-describing trace artifacts.
    pub fn mark(&mut self) -> SimTime {
        self.phase_seq += 1;
        let name = format!("phase-{}", self.phase_seq);
        self.mark_named(&name)
    }

    /// Begin a named measurement phase. Closes the previous phase (emitting
    /// its `Phase` end marker and snapshotting its metrics), emits the new
    /// phase's start marker, resets activity accounting and the collector
    /// log, and remembers the phase start.
    pub fn mark_named(&mut self, name: &str) -> SimTime {
        self.close_phase();
        self.phase_name = name.to_string();
        self.emit_phase_marker(name, true);
        self.phase_open = true;
        self.net.sim.reset_board();
        if let Some(c) = self.net.collector {
            let clear = |c: &mut Collector| c.log_mut().clear();
            self.net.sim.with_node(c, clear);
        }
        self.phase_start = self.net.sim.now();
        self.phase_start
    }

    /// Finish the experiment's telemetry: close the still-open phase and
    /// return all phase-scoped metric snapshots in phase order. Idempotent —
    /// calling it twice adds nothing new.
    pub fn finish(&mut self) -> &[(String, MetricsSnapshot)] {
        self.close_phase();
        &self.snapshots
    }

    /// Phase-scoped metric snapshots captured so far (the current phase is
    /// included only after [`Experiment::finish`] or the next mark).
    pub fn phase_snapshots(&self) -> &[(String, MetricsSnapshot)] {
        &self.snapshots
    }

    /// Append this experiment's telemetry to `text` as a JSONL run
    /// artifact: a `run` header carrying `info`'s members, every retained
    /// typed trace event, the frozen verifier snapshot (`bgpsdn verify
    /// --snapshot` input), and one metrics line per snapshot, carrying the
    /// convergence of the phase it closed. Call after
    /// [`Experiment::finish`] so the last phase is included.
    pub(crate) fn render_artifact_into(&self, info: &Json, text: &mut String) {
        write_typed_line(text, "run", info);
        text.push('\n');
        self.net.sim.trace().export_jsonl_into(text);
        write_typed_line(text, "snapshot", &self.capture_snapshot().to_json());
        text.push('\n');
        for ((phase, snap), convergence) in self.snapshots.iter().zip(&self.convergence) {
            text.push_str(&metrics_line(phase, *convergence, snap));
            text.push('\n');
        }
    }

    /// Run until the network re-converges (or `max` elapses) and measure
    /// the convergence time of everything since [`Experiment::mark`].
    pub fn wait_converged(&mut self, max: SimDuration) -> ConvergenceReport {
        let deadline = self.net.sim.now() + max;
        let q = self.net.sim.run_until_quiescent(deadline);
        let report = measure(self.net.sim.board(), self.phase_start, q.quiescent);
        self.auto_verify_checkpoint();
        report
    }

    // ------------------------------------------------------------------
    // The command vocabulary
    // ------------------------------------------------------------------

    /// Execute one action — the one place a command, fault or expectation
    /// runs, for scripts, chaos schedules, a job's event and hand-driven
    /// runs alike. Returns whether the step held and, for a
    /// [`WaitConverged`](ScriptAction::WaitConverged), its report. Takes
    /// no verifier checkpoint ([`Experiment::run_script`] adds one after a
    /// fault). Routing commands go to the AS's router, or its controller
    /// for a member; controller and channel faults hit the first cluster;
    /// a traffic drop is 100 % loss on a live link, traced through the
    /// event queue, that only hold timers detect. Restored devices
    /// cold-start with their configuration and originated prefixes.
    ///
    /// # Panics
    ///
    /// On an AS or edge the network lacks, or a cluster action without a
    /// cluster; `Experiment::script_preflight` reports these up front.
    pub fn apply(&mut self, action: &ScriptAction) -> (bool, Option<ConvergenceReport>) {
        match *action {
            ScriptAction::Announce { as_index, prefix }
            | ScriptAction::Withdraw { as_index, prefix } => {
                let p = prefix.unwrap_or(self.net.ases[as_index].prefix);
                let command = if matches!(action, ScriptAction::Announce { .. }) {
                    RouterCommand::Announce(p)
                } else {
                    RouterCommand::Withdraw(p)
                };
                let target = self.command_target(as_index);
                self.net.sim.inject(target, ClusterMsg::Command(command));
            }
            ScriptAction::FailEdge(a, b) | ScriptAction::RestoreEdge(a, b) => {
                let up = matches!(action, ScriptAction::RestoreEdge(..));
                let link = self.edge(a, b);
                self.net.sim.set_link_admin(link, up);
            }
            ScriptAction::SetEdgeLoss(a, b, loss) => {
                let link = self.edge(a, b);
                self.net.sim.set_link_loss(link, loss);
            }
            ScriptAction::DropEdgeTraffic(a, b) | ScriptAction::RestoreEdgeTraffic(a, b) => {
                let ppm = if matches!(action, ScriptAction::DropEdgeTraffic(..)) {
                    1_000_000
                } else {
                    0
                };
                let (link, now) = (self.edge(a, b), self.net.sim.now());
                self.net.sim.schedule_link_loss(now, link, ppm);
                self.net.sim.run_until(now);
            }
            ScriptAction::CrashRouter(i) | ScriptAction::RestoreRouter(i) => {
                let up = matches!(action, ScriptAction::RestoreRouter(_));
                self.net.sim.set_node_admin(self.net.ases[i].node, up);
            }
            ScriptAction::CrashController | ScriptAction::RestoreController => {
                let up = matches!(action, ScriptAction::RestoreController);
                let c = self.first_cluster().controller;
                self.net.sim.set_node_admin(c, up);
            }
            ScriptAction::PartitionControlChannel | ScriptAction::HealControlChannel => {
                let up = matches!(action, ScriptAction::HealControlChannel);
                let l = self.first_cluster().speaker_link;
                self.net.sim.set_link_admin(l, up);
            }
            ScriptAction::SetControlLoss(loss) => {
                let l = self.first_cluster().speaker_link;
                self.net.sim.set_link_loss(l, loss);
            }
            ScriptAction::Mark => {
                self.mark();
            }
            ScriptAction::WaitConverged { max } => {
                let report = self.wait_converged(max);
                return (report.converged, Some(report));
            }
            ScriptAction::RunFor(d) => {
                self.net.sim.run_for(d);
            }
            ScriptAction::ExpectReachable { prefix, origin } => {
                return (self.prefix_reachable_from_all(prefix, origin), None);
            }
            ScriptAction::ExpectGone { prefix } => return (self.prefix_fully_gone(prefix), None),
            ScriptAction::ExpectFullConnectivity => {
                return (self.connectivity_audit().fully_connected(), None);
            }
        }
        (true, None)
    }

    /// The driver target for routing commands concerning AS `i`: the router
    /// itself, or the controller when the AS is a cluster member.
    fn command_target(&self, i: usize) -> NodeId {
        match self.net.ases[i].kind {
            AsKind::Legacy => self.net.ases[i].node,
            AsKind::SdnMember => {
                self.net
                    .cluster_for(i)
                    .expect("members imply an owning cluster")
                    .controller
            }
        }
    }

    /// The link between adjacent ASes `a` and `b`.
    fn edge(&self, a: usize, b: usize) -> LinkId {
        self.net
            .link_between(a, b)
            .unwrap_or_else(|| panic!("no link between AS {a} and {b}"))
    }

    /// The cluster controller and channel actions target.
    fn first_cluster(&self) -> &ClusterHandle {
        self.net
            .clusters
            .first()
            .expect("fault injection targets missing cluster 0")
    }

    /// AS `as_index` announces a prefix (its own /16 when `prefix` is `None`).
    /// Kept only because the benchmark harness calls it; its next revision
    /// (ROADMAP item 2) moves onto [`Experiment::apply`] and deletes this.
    pub fn announce(&mut self, as_index: usize, prefix: Option<Prefix>) {
        self.apply(&ScriptAction::Announce { as_index, prefix });
    }

    /// AS `as_index` withdraws a prefix (its own /16 when `prefix` is `None`).
    /// Kept only for the benchmark harness, like [`Experiment::announce`].
    pub fn withdraw(&mut self, as_index: usize, prefix: Option<Prefix>) {
        self.apply(&ScriptAction::Withdraw { as_index, prefix });
    }

    /// Fail the link between adjacent ASes `a` and `b`. Kept only for the
    /// benchmark harness, like [`Experiment::announce`].
    pub fn fail_edge(&mut self, a: usize, b: usize) {
        self.apply(&ScriptAction::FailEdge(a, b));
    }

    /// Restore the link between adjacent ASes `a` and `b`. Kept only for
    /// the benchmark harness, like [`Experiment::announce`].
    pub fn restore_edge(&mut self, a: usize, b: usize) {
        self.apply(&ScriptAction::RestoreEdge(a, b));
    }

    // ------------------------------------------------------------------
    // Static verification
    // ------------------------------------------------------------------

    /// Freeze the current network state into a verifier snapshot.
    pub fn capture_snapshot(&self) -> Snapshot {
        capture_snapshot(&self.net)
    }

    /// Run the static data-plane verifier against the live network:
    /// loop-freedom, blackhole detection, intent consistency and
    /// valley-free conformance over a frozen snapshot.
    ///
    /// Error findings are recorded as `VerifyViolation` trace events and
    /// `verify.*` counters; the returned checkpoint carries the witnesses.
    pub fn verify_now(&mut self) -> Checkpoint {
        let snap = capture_snapshot(&self.net);
        let report = self.verifier.verify(&snap);
        let violations: Vec<Finding> = report
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .cloned()
            .collect();
        let now = self.net.sim.now();
        for f in &violations {
            let trace = self.net.sim.trace_mut();
            trace.record(now, None, TraceCategory::Experiment, || {
                TraceEvent::VerifyViolation {
                    check: f.code.to_string(),
                    prefix: f.prefix.map(ObsPrefix::from),
                    offender: f.subject.clone(),
                    witness: f.witness.clone().unwrap_or_else(|| f.message.clone()),
                }
            });
        }
        let sim = &mut self.net.sim;
        sim.count(Counter::VerifyChecks, report.checks);
        sim.count(Counter::VerifyViolations, violations.len() as u64);
        sim.count(
            Counter::VerifyPrefixesChecked,
            self.verifier.prefixes_checked() as u64,
        );
        Checkpoint { report, violations }
    }

    /// Run the verifier if the network was built `with_verification()`.
    /// Called automatically after convergence waits and fault actions.
    pub(crate) fn auto_verify_checkpoint(&mut self) {
        if self.net.auto_verify {
            let _ = self.verify_now();
        }
    }

    // ------------------------------------------------------------------
    // Audits
    // ------------------------------------------------------------------

    /// True when AS `a`'s device holds a route for exactly `prefix`: a
    /// Loc-RIB best route on a legacy router, a flow rule on a member.
    fn holds_route(&self, a: &AsHandle, prefix: Prefix) -> bool {
        match a.kind {
            AsKind::Legacy => self
                .net
                .sim
                .node_ref::<Router>(a.node)
                .best(prefix)
                .is_some(),
            AsKind::SdnMember => self
                .net
                .sim
                .node_ref::<Switch>(a.node)
                .table()
                .iter()
                .any(|rule| rule.prefix == prefix),
        }
    }

    /// True when no AS (legacy Loc-RIB, controller RIB or switch flow
    /// table) still carries a route for `prefix` — the paper's "verify the
    /// effects of changes" for a withdrawal.
    ///
    /// A control-plane *presence* check, not a forwarding query: it also
    /// sees controller state no data plane shows, and it needs no
    /// snapshot, so it stays cheap enough to run after every trigger.
    pub fn prefix_fully_gone(&self, prefix: Prefix) -> bool {
        if self.net.ases.iter().any(|a| self.holds_route(a, prefix)) {
            return false;
        }
        self.net.clusters.iter().all(|handle| {
            let ctl = self.net.sim.node_ref::<Controller>(handle.controller);
            ctl.ext_route_count(prefix) == 0 && !ctl.owned_prefixes().any(|(p, _)| p == prefix)
        })
    }

    /// True when every *other* AS holds a route for `prefix`.
    ///
    /// A control-plane *presence* check: a held route may still loop or
    /// die on a down link. Whether traffic arrives is
    /// [`Experiment::connectivity_audit`]'s question; this one needs no
    /// snapshot, so it stays cheap enough to run after every trigger.
    pub fn prefix_reachable_from_all(&self, prefix: Prefix, origin: usize) -> bool {
        self.net
            .ases
            .iter()
            .all(|a| a.index == origin || self.holds_route(a, prefix))
    }

    /// Does traffic from every other AS reach each `(AS index, address)`
    /// target? A query on the verifier's forwarding model over a fresh
    /// snapshot.
    pub(crate) fn connectivity(&self, targets: &[(usize, Ipv4Addr)]) -> ConnectivityReport {
        Verifier::default().connectivity(&capture_snapshot(&self.net), targets)
    }

    /// Audit data-plane connectivity from every AS to every AS's identity
    /// address — the paper's "stable connectivity between all hosts" check.
    pub fn connectivity_audit(&self) -> ConnectivityReport {
        let targets: Vec<(usize, Ipv4Addr)> = self
            .net
            .ases
            .iter()
            .map(|a| (a.index, a.router_ip))
            .collect();
        self.connectivity(&targets)
    }

    // ------------------------------------------------------------------
    // Measurement helpers
    // ------------------------------------------------------------------

    /// Convergence measured from the collector's update log instead of the
    /// global activity board (what a real testbed can observe).
    pub fn collector_convergence(&self) -> Option<SimDuration> {
        let c = self.net.collector?;
        let log = self.net.sim.node_ref::<Collector>(c);
        Some(log.log().convergence_duration(self.phase_start))
    }

    /// Total BGP updates sent since the last [`Experiment::mark`].
    pub fn updates_sent(&self) -> u64 {
        self.net.sim.board().count(Activity::UpdateSent)
    }

    /// Total flow-table changes since the last [`Experiment::mark`].
    pub fn flows_installed(&self) -> u64 {
        self.net.sim.board().count(Activity::FlowInstalled)
    }

    /// The start of the current measurement phase.
    pub fn phase_start(&self) -> SimTime {
        self.phase_start
    }
}
