//! Pre-flight gates: run the static analyzer over framework inputs.
//!
//! This module is the bridge between the framework's concrete types
//! (`TopologyPlan`, [`Script`], [`FaultPlan`], [`CampaignGrid`]) and the
//! analyzer's neutral IR in `bgpsdn-analyze`. Every conversion is lossless
//! for the properties the analyzer checks; the analyzer stays below this
//! crate in the dependency order so the `bgpsdn check` CLI, proptests, and
//! other front-ends can use it without pulling in the whole framework.
//!
//! Three gates sit on top of the conversions, all on by default:
//!
//! * [`NetworkBuilder::build`](super::network::NetworkBuilder::build) runs
//!   [`check_plan`] over the resolved cluster membership lists — none, the
//!   paper's one, or `k` — and panics on error findings (opt out with
//!   `without_preflight`);
//! * [`Experiment::run_script`](super::experiment::Experiment) runs
//!   [`Experiment::script_preflight`] and returns a failed pre-flight step
//!   instead of executing a structurally broken script;
//! * [`run_campaign`](super::campaign::run_campaign) rejects a bad grid
//!   before any worker spins.

use bgpsdn_analyze::{
    check_actions, check_grid, check_safety_clusters, check_timed, check_timing, Action,
    ActionContext, AnalysisReport, GridSpec, SafetyClustersInput,
};
use bgpsdn_bgp::{PolicyMode, Prefix};
use bgpsdn_netsim::SimDuration;
use bgpsdn_topology::TopologyPlan;

use super::campaign::CampaignGrid;
use super::experiment::Experiment;
use super::faults::{FaultAction, FaultPlan};
use super::scenarios::event_phase_name;
use super::script::{Script, ScriptAction};

/// Owned storage behind an [`ActionContext`] (which borrows its slices).
pub struct PreflightContext {
    n: usize,
    edges: Vec<(usize, usize)>,
    has_cluster: bool,
    hold_secs: u64,
    graceful_restart_secs: u64,
    origin_prefixes: Vec<Prefix>,
    origins_announced: bool,
}

impl PreflightContext {
    /// Derive the static facts from a plan and the cluster member list.
    pub fn from_plan(plan: &TopologyPlan, members: &[usize]) -> PreflightContext {
        let timing = plan
            .routers
            .first()
            .map(|r| &r.timing)
            .cloned()
            .unwrap_or_default();
        PreflightContext {
            n: plan.as_graph.len(),
            edges: plan.as_graph.edges.iter().map(|e| (e.a, e.b)).collect(),
            has_cluster: !members.is_empty(),
            hold_secs: u64::from(timing.hold_time_secs),
            graceful_restart_secs: u64::from(timing.graceful_restart_secs),
            origin_prefixes: plan.addresses.as_prefixes.clone(),
            origins_announced: true,
        }
    }

    /// Borrow as the analyzer's context type.
    pub fn as_action_context(&self) -> ActionContext<'_> {
        ActionContext {
            n: self.n,
            edges: &self.edges,
            has_cluster: self.has_cluster,
            hold_secs: self.hold_secs,
            graceful_restart_secs: self.graceful_restart_secs,
            origin_prefixes: &self.origin_prefixes,
            origins_announced: self.origins_announced,
        }
    }
}

/// Convert one script action to the analyzer IR.
fn convert_script_action(a: &ScriptAction) -> Action {
    match *a {
        ScriptAction::Announce { as_index, prefix } => Action::Announce { as_index, prefix },
        ScriptAction::Withdraw { as_index, prefix } => Action::Withdraw { as_index, prefix },
        ScriptAction::FailEdge(a, b) => Action::FailEdge(a, b),
        ScriptAction::RestoreEdge(a, b) => Action::RestoreEdge(a, b),
        ScriptAction::CrashController => Action::CrashController,
        ScriptAction::RestoreController => Action::RestoreController,
        ScriptAction::PartitionControlChannel => Action::PartitionControlChannel,
        ScriptAction::HealControlChannel => Action::HealControlChannel,
        ScriptAction::SetControlLoss(l) => Action::SetControlLoss(l),
        ScriptAction::SetEdgeLoss(a, b, l) => Action::SetEdgeLoss(a, b, l),
        ScriptAction::CrashRouter(i) => Action::CrashRouter(i),
        ScriptAction::RestoreRouter(i) => Action::RestoreRouter(i),
        ScriptAction::DropEdgeTraffic(a, b) => Action::DropEdgeTraffic(a, b),
        ScriptAction::RestoreEdgeTraffic(a, b) => Action::RestoreEdgeTraffic(a, b),
        ScriptAction::Mark => Action::Mark,
        ScriptAction::WaitConverged { max } => Action::WaitConverged { max },
        ScriptAction::RunFor(d) => Action::RunFor(d),
        ScriptAction::ExpectReachable { prefix, origin } => {
            Action::ExpectReachable { prefix, origin }
        }
        ScriptAction::ExpectGone { prefix } => Action::ExpectGone { prefix },
        ScriptAction::ExpectFullConnectivity => Action::ExpectFullConnectivity,
    }
}

/// Convert one fault action to the analyzer IR.
fn convert_fault_action(a: &FaultAction) -> Action {
    match *a {
        FaultAction::CrashController => Action::CrashController,
        FaultAction::RestoreController => Action::RestoreController,
        FaultAction::PartitionControlChannel => Action::PartitionControlChannel,
        FaultAction::HealControlChannel => Action::HealControlChannel,
        FaultAction::CrashRouter(i) => Action::CrashRouter(i),
        FaultAction::RestoreRouter(i) => Action::RestoreRouter(i),
        FaultAction::FailEdge(a, b) => Action::FailEdge(a, b),
        FaultAction::RestoreEdge(a, b) => Action::RestoreEdge(a, b),
        FaultAction::DropEdgeTraffic(a, b) => Action::DropEdgeTraffic(a, b),
        FaultAction::RestoreEdgeTraffic(a, b) => Action::RestoreEdgeTraffic(a, b),
    }
}

impl Script {
    /// The script as analyzer IR.
    pub fn to_actions(&self) -> Vec<Action> {
        self.steps.iter().map(convert_script_action).collect()
    }
}

impl FaultPlan {
    /// The plan's timed events as analyzer IR.
    pub fn to_actions(&self) -> Vec<(SimDuration, Action)> {
        self.events
            .iter()
            .map(|(t, a)| (*t, convert_fault_action(a)))
            .collect()
    }

    /// Statically validate this plan against a network: per-action index
    /// and topology checks, horizon consistency, and hold-timer
    /// detectability. `horizon` is the window faults are expected to fire
    /// within.
    pub fn preflight(
        &self,
        plan: &TopologyPlan,
        members: &[usize],
        horizon: SimDuration,
        hold_secs: u64,
    ) -> AnalysisReport {
        let mut ctx = PreflightContext::from_plan(plan, members);
        ctx.hold_secs = hold_secs;
        check_timed(&self.to_actions(), horizon, &ctx.as_action_context())
    }
}

/// Static safety check of a topology plan + cluster membership lists:
/// policy safety (Gao–Rexford provider hierarchy, boundary proof with each
/// cluster contracted to its own logical vertex) and timer consistency.
/// This is what the builder gate runs.
pub fn check_plan(plan: &TopologyPlan, clusters: &[Vec<usize>]) -> AnalysisReport {
    let mode = plan
        .routers
        .first()
        .map_or(PolicyMode::AllPermit, |r| r.mode);
    let mut report = check_safety_clusters(&SafetyClustersInput {
        graph: &plan.as_graph,
        mode,
        clusters,
        rules: &[],
    });
    if let Some(r) = plan.routers.first() {
        report.merge(check_timing(
            u64::from(r.timing.hold_time_secs),
            u64::from(r.timing.graceful_restart_secs),
        ));
    }
    report
}

/// A report carrying one error finding for a deployment strategy that
/// could not produce a valid cluster assignment (infeasible budget,
/// out-of-range explicit list, ...). Lets `NetworkBuilder::preflight`
/// surface resolution failures through the same channel as safety findings.
pub fn deployment_error_report(msg: &str) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    report.checked();
    report.error("cluster.deployment", msg.to_string());
    report
}

impl Experiment {
    /// Statically validate a script against this experiment's topology,
    /// cluster configuration, and timers — without executing anything.
    pub fn script_preflight(&self, script: &Script) -> AnalysisReport {
        let members: Vec<usize> = self.net.member_index.keys().copied().collect();
        let ctx = PreflightContext::from_plan(&self.net.plan, &members);
        check_actions(&script.to_actions(), &ctx.as_action_context())
    }
}

impl CampaignGrid {
    /// Statically validate the grid: axis emptiness, cluster sizes vs the
    /// topology, loss ranges, per-event topology minimums, chaos spec
    /// consistency. Run before any worker spins.
    pub fn preflight(&self) -> AnalysisReport {
        check_grid(&GridSpec {
            n: self.n,
            event: event_phase_name(self.event),
            cluster_sizes: self.cluster_sizes.clone(),
            losses: self.loss.clone(),
            ctl_latency_count: self.ctl_latency.len(),
            seeds: self.seeds,
            faults: self.faults.as_ref().map(|f| (f.outages, f.horizon)),
            cluster_counts: self.clusters.clone(),
            strategy: Some(self.strategy),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::campaign::FaultSpec;
    use crate::framework::network::NetworkBuilder;
    use bgpsdn_analyze::Severity;
    use bgpsdn_bgp::TimingConfig;
    use bgpsdn_topology::{gen, plan, AsGraph};

    fn clique_plan(n: usize) -> TopologyPlan {
        plan(
            AsGraph::all_peer(&gen::clique(n), 65000),
            PolicyMode::AllPermit,
            TimingConfig::with_mrai(SimDuration::ZERO),
        )
        .unwrap()
    }

    #[test]
    fn clean_plan_passes_preflight() {
        let tp = clique_plan(4);
        assert!(check_plan(&tp, &[vec![2, 3]]).clean());
    }

    #[test]
    fn script_preflight_catches_bad_index() {
        let net = NetworkBuilder::new(clique_plan(3), 1).build();
        let exp = Experiment::new(net);
        let script = Script::new().announce(9);
        let report = exp.script_preflight(&script);
        assert_eq!(report.first_error().unwrap().code, "script.index_range");
    }

    #[test]
    fn script_preflight_accepts_the_demo_flow() {
        let net = NetworkBuilder::new(clique_plan(3), 1)
            .with_sdn_members([2])
            .build();
        let prefix = net.ases[0].prefix;
        let exp = Experiment::new(net);
        let script = Script::new()
            .announce(0)
            .announce(1)
            .announce(2)
            .wait_converged(SimDuration::from_secs(600))
            .expect_reachable(prefix, 0)
            .withdraw(0)
            .wait_converged(SimDuration::from_secs(600))
            .expect_gone(prefix);
        let report = exp.script_preflight(&script);
        assert!(report.clean(), "{}", report.render());
    }

    #[test]
    fn fault_plan_preflight_flags_missing_hold_timers() {
        let tp = clique_plan(4);
        let plan = FaultPlan::new().at(SimDuration::from_secs(5), FaultAction::FailEdge(0, 1));
        let report = plan.preflight(&tp, &[], SimDuration::from_secs(60), 0);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "plan.hold_timers" && f.severity == Severity::Error));
        let report = plan.preflight(&tp, &[], SimDuration::from_secs(60), 9);
        assert!(report.ok(), "{}", report.render());
    }

    #[test]
    fn grid_preflight_matches_fig2() {
        assert!(CampaignGrid::fig2(3).preflight().clean());
        let mut grid = CampaignGrid::fig2(3);
        grid.cluster_sizes.push(99);
        assert_eq!(
            grid.preflight().first_error().unwrap().code,
            "grid.cluster_size"
        );
        let mut grid = CampaignGrid::fig2(3);
        grid.faults = Some(FaultSpec {
            outages: 2,
            horizon: SimDuration::ZERO,
            classes: crate::framework::faults::FaultClasses::ALL,
        });
        assert_eq!(
            grid.preflight().first_error().unwrap().code,
            "grid.chaos_horizon"
        );
    }
}
