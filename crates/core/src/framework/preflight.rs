//! Pre-flight gates: run the static analyzer over framework inputs.
//!
//! The analyzer (`bgpsdn-analyze`) sits below this crate in the dependency
//! order so the `bgpsdn check` CLI, proptests, and other front-ends can use
//! it without pulling in the whole framework; scripts need no conversion,
//! since [`ScriptAction`](super::script::ScriptAction) is the analyzer's
//! own type. Three gates sit on top:
//!
//! * [`NetworkBuilder::build`](super::network::NetworkBuilder::build) runs
//!   [`check_plan`] over the resolved cluster membership lists — none, the
//!   paper's one, or `k` — and panics on error findings;
//! * [`Experiment::run_script`](super::experiment::Experiment) runs
//!   [`Experiment::script_preflight`] and returns a failed pre-flight step
//!   instead of executing a structurally broken script — chaos schedules
//!   included;
//! * [`run_campaign`](super::campaign::run_campaign) rejects a bad grid
//!   before any worker spins.

use bgpsdn_analyze::{
    check_actions, check_grid, check_safety_clusters, check_timing, ActionContext, AnalysisReport,
    GridSpec, SafetyClustersInput,
};
use bgpsdn_bgp::PolicyMode;
use bgpsdn_topology::TopologyPlan;

use super::campaign::CampaignGrid;
use super::experiment::Experiment;
use super::scenarios::event_phase_name;
use super::script::Script;

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
        check_actions(
            &script.steps,
            &ActionContext::from_plan(&self.net.plan, &members),
        )
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
    use crate::framework::faults::{FaultClasses, FaultSpec};
    use crate::framework::network::NetworkBuilder;
    use crate::framework::scenarios::{
        run_clique_with, CliqueRunOptions, CliqueScenario, EventKind,
    };
    use crate::framework::script::ScriptAction;
    use bgpsdn_bgp::TimingConfig;
    use bgpsdn_netsim::SimDuration;
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
        let scenario = CliqueScenario {
            n: 4,
            sdn_count: 0,
            mrai: SimDuration::ZERO,
            recompute_delay: SimDuration::from_millis(100),
            seed: 3,
            control_loss: 0.0,
        };
        let flap = Script::from_offsets(vec![
            (SimDuration::from_secs(5), ScriptAction::FailEdge(1, 2)),
            (SimDuration::from_secs(15), ScriptAction::RestoreEdge(1, 2)),
        ]);
        let run = |fault_plan: Script, hold_secs| {
            let opts = CliqueRunOptions {
                fault_plan: Some(fault_plan),
                hold_secs,
                ..CliqueRunOptions::default()
            };
            std::panic::catch_unwind(|| {
                run_clique_with(&scenario, EventKind::Withdrawal, &opts, |_| {}).0
            })
        };
        let err = run(flap.clone(), 0).expect_err("a link fault with hold 0 is rejected");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("needs hold timers"), "{msg}");
        assert!(run(flap, 9).is_ok_and(|o| o.converged && o.audit_ok));
        // A structurally broken schedule never runs: run_script's
        // pre-flight rejects the unknown AS before any fault fires.
        let err = run(Script::new().crash_router(7), 9).expect_err("unknown AS is rejected");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("script.index_range"), "{msg}");
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
            classes: FaultClasses::ALL,
        });
        assert_eq!(
            grid.preflight().first_error().unwrap().code,
            "grid.chaos_horizon"
        );
    }
}
