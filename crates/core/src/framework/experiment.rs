//! The experiment lifecycle API — the framework's "Mininet-BGP commands".
//!
//! "We implemented several additional Mininet-BGP commands to announce
//! prefixes, wait until BGP has converged, etc." plus "the user should be
//! able to actively control the experiments, e.g., dynamically changing the
//! topology and verifying the effects of changes". [`Experiment`] is that
//! surface: announce/withdraw, link failure/restoration, convergence
//! waiting/measurement, RIB and connectivity audits.

use std::net::Ipv4Addr;

use bgpsdn_bgp::{Prefix, RouterCommand};
use bgpsdn_collector::{measure, ConvergenceReport};
use bgpsdn_netsim::ObsPrefix;
use bgpsdn_netsim::{
    Activity, MetricsSnapshot, NodeId, SimDuration, SimTime, TraceCategory, TraceEvent,
};
use bgpsdn_obs::{metrics_line, run_line, Json};
use bgpsdn_sdn::ClusterMsg;
use bgpsdn_verify::{ConnectivityReport, Report, Snapshot, Verifier};

use super::network::{
    AsHandle, AsKind, ClusterHandle, Collector, Controller, HybridNetwork, Router, Switch,
};
use super::verify::capture_snapshot;

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
            phase_open: false,
            verifier: Verifier::new(),
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
    pub fn note(&mut self, text: impl Into<String>) {
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

    /// Close the current phase: emit its end marker and capture the metrics
    /// accumulated since its start as a phase-scoped snapshot, then reset
    /// the registry so the next phase starts from zero.
    fn close_phase(&mut self) {
        if self.phase_open {
            let name = self.phase_name.clone();
            self.emit_phase_marker(&name, false);
            self.phase_open = false;
        }
        // Fold the event-slab recycling counters accumulated during the
        // phase into the registry, so the `core.sim.*` allocation accounting
        // lands in every phase snapshot (and in `bgpsdn report`).
        self.net.sim.flush_pool_metrics();
        let metrics = self.net.sim.metrics_mut();
        if !metrics.is_empty() {
            let snap = metrics.snapshot();
            metrics.reset();
            self.snapshots.push((self.phase_name.clone(), snap));
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
            self.net.sim.with_node::<Collector, _>(c, |c| c.clear_log());
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
    /// --snapshot` input), and one metrics line per closed phase. Call
    /// after [`Experiment::finish`] so the last phase is included.
    pub fn render_artifact_into(&self, info: &Json, text: &mut String) {
        text.push_str(&run_line(info));
        text.push('\n');
        self.net.sim.trace().export_jsonl_into(text);
        if let Json::Obj(mut kv) = self.capture_snapshot().to_json() {
            kv.insert(0, ("type".into(), Json::Str("snapshot".into())));
            text.push_str(&Json::Obj(kv).to_compact());
            text.push('\n');
        }
        for (phase, snap) in &self.snapshots {
            text.push_str(&metrics_line(phase, snap));
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

    /// Testbed-style convergence waiting: step the clock and declare
    /// convergence after `window` of routing-plane silence — what the
    /// paper's Mininet framework has to do, since a real network never goes
    /// event-quiescent. Pick `window` larger than the longest protocol
    /// timer (MRAI) or the wait will end inside an exploration round.
    pub fn wait_converged_windowed(
        &mut self,
        window: SimDuration,
        max: SimDuration,
    ) -> ConvergenceReport {
        let deadline = self.net.sim.now() + max;
        let step = (window / 4).max(SimDuration::from_millis(1));
        loop {
            let now = self.net.sim.now();
            let last = self
                .net
                .sim
                .board()
                .last_routing_change()
                .unwrap_or(self.phase_start)
                .max(self.phase_start);
            if now.saturating_since(last) >= window {
                let report = measure(self.net.sim.board(), self.phase_start, true);
                self.auto_verify_checkpoint();
                return report;
            }
            if now >= deadline {
                let report = measure(self.net.sim.board(), self.phase_start, false);
                self.auto_verify_checkpoint();
                return report;
            }
            self.net.sim.run_for(step);
        }
    }

    // ------------------------------------------------------------------
    // Scenario commands
    // ------------------------------------------------------------------

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

    /// AS `i` announces a prefix (its own /16 when `prefix` is `None`).
    pub fn announce(&mut self, i: usize, prefix: Option<Prefix>) {
        let p = prefix.unwrap_or(self.net.ases[i].prefix);
        let target = self.command_target(i);
        self.net
            .sim
            .inject(target, ClusterMsg::Command(RouterCommand::Announce(p)));
    }

    /// AS `i` withdraws a prefix (its own /16 when `prefix` is `None`).
    pub fn withdraw(&mut self, i: usize, prefix: Option<Prefix>) {
        let p = prefix.unwrap_or(self.net.ases[i].prefix);
        let target = self.command_target(i);
        self.net
            .sim
            .inject(target, ClusterMsg::Command(RouterCommand::Withdraw(p)));
    }

    /// Fail the link between adjacent ASes `a` and `b`.
    pub fn fail_edge(&mut self, a: usize, b: usize) {
        let link = self
            .net
            .link_between(a, b)
            .unwrap_or_else(|| panic!("no link between AS {a} and {b}"));
        self.net.sim.set_link_admin(link, false);
    }

    /// Restore the link between adjacent ASes `a` and `b`.
    pub fn restore_edge(&mut self, a: usize, b: usize) {
        let link = self
            .net
            .link_between(a, b)
            .unwrap_or_else(|| panic!("no link between AS {a} and {b}"));
        self.net.sim.set_link_admin(link, true);
    }

    /// Set the random per-message loss probability of the link between
    /// adjacent ASes `a` and `b`.
    pub fn set_edge_loss(&mut self, a: usize, b: usize, loss: f64) {
        let link = self
            .net
            .link_between(a, b)
            .unwrap_or_else(|| panic!("no link between AS {a} and {b}"));
        self.net.sim.set_link_loss(link, loss);
    }

    /// Silently drop all traffic on the edge between ASes `a` and `b`:
    /// 100% loss with the link administratively up, so neither end sees a
    /// link event and only hold-timer expiry can detect the outage. Goes
    /// through the event queue so the change is traced.
    pub fn drop_edge_traffic(&mut self, a: usize, b: usize) {
        let link = self
            .net
            .link_between(a, b)
            .unwrap_or_else(|| panic!("no link between AS {a} and {b}"));
        let now = self.net.sim.now();
        self.net.sim.schedule_link_loss(now, link, 1_000_000);
        self.net.sim.run_until(now);
    }

    /// End a traffic-drop window on the edge between ASes `a` and `b`.
    pub fn restore_edge_traffic(&mut self, a: usize, b: usize) {
        let link = self
            .net
            .link_between(a, b)
            .unwrap_or_else(|| panic!("no link between AS {a} and {b}"));
        let now = self.net.sim.now();
        self.net.sim.schedule_link_loss(now, link, 0);
        self.net.sim.run_until(now);
    }

    /// Crash the router device of AS `i`: in-flight deliveries to it drop,
    /// its timers die, and peers only find out when their hold timers
    /// expire (or, with hold timers off, when the restarted router's OPEN
    /// collides with the stale session).
    pub fn crash_router(&mut self, i: usize) {
        let node = self.net.ases[i].node;
        self.net.sim.set_node_admin(node, false);
    }

    /// Restore a crashed router. It cold-starts: volatile state (RIBs,
    /// sessions, damping history) is gone, operator intent (configuration
    /// and originated prefixes) survives, and it re-advertises everything
    /// once sessions come back.
    pub fn restore_router(&mut self, i: usize) {
        let node = self.net.ases[i].node;
        self.net.sim.set_node_admin(node, true);
    }

    /// Whether the router device of AS `i` is currently up.
    pub fn router_is_up(&self, i: usize) -> bool {
        self.net.sim.node_is_up(self.net.ases[i].node)
    }

    // ------------------------------------------------------------------
    // Fault injection (the chaos layer)
    // ------------------------------------------------------------------

    fn first_cluster(&self) -> &ClusterHandle {
        self.net
            .clusters
            .first()
            .expect("fault injection targets missing cluster 0")
    }

    /// Crash the IDR controller: it stops processing entirely, its timers
    /// die, and in-flight messages toward it are lost. Speakers fall back
    /// to headless fail-static forwarding. Targets the first cluster.
    pub fn crash_controller(&mut self) {
        let c = self.first_cluster().controller;
        self.net.sim.set_node_admin(c, false);
    }

    /// Restart a crashed controller (first cluster). It comes back with
    /// operator intent only (configuration + announced prefixes) and
    /// re-learns everything else through the speaker resync and switch
    /// table replies.
    pub fn restore_controller(&mut self) {
        let c = self.first_cluster().controller;
        self.net.sim.set_node_admin(c, true);
    }

    /// Whether the first cluster's controller node is currently up.
    pub fn controller_is_up(&self) -> bool {
        self.net
            .clusters
            .first()
            .is_some_and(|h| self.net.sim.node_is_up(h.controller))
    }

    /// Partition the first cluster's speaker↔controller channel (both stay
    /// alive but cannot talk; each side's hold timer eventually fires).
    pub fn partition_control_channel(&mut self) {
        let l = self.first_cluster().speaker_link;
        self.net.sim.set_link_admin(l, false);
    }

    /// Heal a control-channel partition (first cluster).
    pub fn heal_control_channel(&mut self) {
        let l = self.first_cluster().speaker_link;
        self.net.sim.set_link_admin(l, true);
    }

    /// Set the random per-message loss probability of the first cluster's
    /// speaker↔controller channel.
    pub fn set_control_loss(&mut self, loss: f64) {
        let l = self.first_cluster().speaker_link;
        self.net.sim.set_link_loss(l, loss);
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
    /// Violations are recorded as `VerifyViolation` trace events and
    /// `verify.*` counters; the returned [`Report`] carries the witnesses.
    pub fn verify_now(&mut self) -> Report {
        let snap = capture_snapshot(&self.net);
        let report = self.verifier.verify(&snap);
        let now = self.net.sim.now();
        for v in &report.violations {
            let (check, prefix, offender, witness) = (
                v.kind.name().to_string(),
                v.prefix.map(|p| ObsPrefix::new(p.network_u32(), p.len())),
                v.node.clone(),
                v.witness.clone(),
            );
            self.net
                .sim
                .trace_mut()
                .record(now, None, TraceCategory::Experiment, || {
                    TraceEvent::VerifyViolation {
                        check,
                        prefix,
                        offender,
                        witness,
                    }
                });
        }
        let m = self.net.sim.metrics_mut();
        m.count(None, "verify.checks", report.checks as u64);
        m.count(None, "verify.violations", report.violations.len() as u64);
        m.count(
            None,
            "verify.prefixes_checked",
            report.prefixes_checked as u64,
        );
        report
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
        Verifier::new().connectivity(&capture_snapshot(&self.net), targets)
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
