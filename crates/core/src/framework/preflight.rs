//! Pre-flight gates: run the static analyzer over framework inputs.
//!
//! The analyzer (`bgpsdn-analyze`) sits below this crate in the dependency
//! order so the `bgpsdn check` CLI, proptests, and other front-ends can use
//! it without pulling in the whole framework; scripts need no conversion,
//! since [`ScriptAction`](super::script::ScriptAction) is the analyzer's
//! own type. Three gates sit on top:
//!
//! * [`NetworkBuilder::build`](super::network::NetworkBuilder::build) runs
//!   `check_plan` over the resolved cluster membership lists — none, the
//!   paper's one, or `k` — and panics on error findings;
//! * [`Experiment::run_script`](super::experiment::Experiment) runs
//!   `Experiment::script_preflight` and returns a failed pre-flight step
//!   instead of executing a structurally broken script — chaos schedules
//!   included;
//! * [`run_campaign`](super::campaign::run_campaign) and `bgpsdn sweep`
//!   reject a bad grid before any worker spins, and `bgpsdn run` rejects a
//!   bad [`JobSpec`] by the same per-cell rules before building anything;
//!   the grid and the job each check their own fields.

use bgpsdn_analyze::{
    check_actions, check_safety_clusters, check_timing, ActionContext, AnalysisReport,
    SafetyClustersInput,
};
use bgpsdn_bgp::PolicyMode;
use bgpsdn_netsim::SimDuration;
use bgpsdn_topology::TopologyPlan;

use super::campaign::CampaignGrid;
use super::experiment::Experiment;
use super::job::{EventKind, JobSpec, Topology};
use super::script::Script;

/// Static safety check of a topology plan + cluster membership lists:
/// policy safety (Gao–Rexford provider hierarchy, boundary proof with each
/// cluster contracted to its own logical vertex) and timer consistency.
/// This is what the builder gate runs.
pub(crate) fn check_plan(plan: &TopologyPlan, clusters: &[Vec<usize>]) -> AnalysisReport {
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

impl Experiment {
    /// Statically validate a script against this experiment's topology,
    /// cluster configuration, and timers — without executing anything.
    pub(crate) fn script_preflight(&self, script: &Script) -> AnalysisReport {
        let members: Vec<usize> = self.net.member_index.keys().copied().collect();
        check_actions(
            &script.steps,
            &ActionContext::from_plan(&self.net.plan, &members),
        )
    }
}

/// The rules every grid cell obeys, which a job applies to itself: each
/// member budget fits the `n`-AS topology, each control-channel loss is a
/// probability, the topology is big enough for the event (a fail-over
/// needs the dual-homed origin construction), and each cluster count is
/// positive and can split every non-empty member budget.
fn check_cells(
    report: &mut AnalysisReport,
    n: usize,
    event: EventKind,
    sizes: &[usize],
    losses: &[f64],
    counts: &[usize],
) {
    for &size in sizes {
        report.checked();
        if size > n {
            report.error(
                "grid.cluster_size",
                format!(
                    "cluster size {size} exceeds the topology size {n}; members would be out \
                     of range"
                ),
            );
        }
    }
    for &loss in losses {
        report.checked();
        if !(0.0..=1.0).contains(&loss) || loss.is_nan() {
            report.error(
                "grid.loss_range",
                format!("control-channel loss {loss} outside [0, 1]"),
            );
        }
    }
    report.checked();
    let min_n = if event == EventKind::Failover { 5 } else { 2 };
    if n < min_n {
        report.error(
            "grid.event_requires",
            format!(
                "event kind `{}` needs at least {min_n} ASes, grid has n={n}",
                event.name()
            ),
        );
    }
    for &k in counts {
        report.checked();
        if k == 0 {
            report.error(
                "grid.cluster_count",
                "cluster count 0 in the clusters axis; use cluster size 0 for a \
                 pure-legacy cell",
            );
            continue;
        }
        for &size in sizes {
            if k > 1 && size > 0 && size < k {
                report.checked();
                report.error(
                    "grid.cluster_count",
                    format!("cannot split {size} SDN members into {k} non-empty clusters"),
                );
            }
        }
    }
}

impl CampaignGrid {
    /// Statically validate the grid: axis emptiness, every cell's rules,
    /// chaos spec consistency. Run before any worker spins.
    pub fn preflight(&self) -> AnalysisReport {
        let mut report = AnalysisReport::new();
        report.checked();
        if self.seeds == 0 {
            report.error(
                "grid.no_seeds",
                "grid has zero seeds per cell: no jobs would run",
            );
        }
        report.checked();
        if self.cluster_sizes.is_empty() || self.loss.is_empty() || self.ctl_latency.is_empty() {
            report.error(
                "grid.empty_axis",
                "a grid axis is empty: the cell product is zero and no jobs would run",
            );
        }
        check_cells(
            &mut report,
            self.n,
            self.event,
            &self.cluster_sizes,
            &self.loss,
            &self.clusters,
        );
        if let Some(f) = &self.faults {
            report.checked();
            if f.outages > 0 && f.horizon == SimDuration::ZERO {
                report.error(
                    "grid.chaos_horizon",
                    "chaos fault spec has outages but a zero horizon: no fault could ever fire",
                );
            }
        }
        report
    }
}

impl JobSpec {
    /// Statically validate the job by the rules a grid applies to each of
    /// its cells: the event against the topology size, the member budget
    /// and cluster count against the topology. A fail-over on a hierarchy
    /// is rejected too: only the clique has the dual-homed origin a
    /// fail-over runs on.
    pub fn preflight(&self) -> AnalysisReport {
        let (clusters, members) = self.deployment.shape();
        let mut report = AnalysisReport::new();
        // A deployment of no members has no cluster count to check.
        let counts = if members == 0 { vec![] } else { vec![clusters] };
        check_cells(
            &mut report,
            self.topology.as_count(),
            self.event,
            &[members],
            &[self.control_loss],
            &counts,
        );
        if matches!(self.topology, Topology::Hierarchy { .. }) {
            report.checked();
            if self.event == EventKind::Failover {
                report.error(
                    "grid.event_requires",
                    "event kind `failover` needs the clique's dual-homed origin; a hierarchy \
                     has none",
                );
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::faults::{FaultClasses, FaultSpec};
    use crate::framework::network::NetworkBuilder;
    use crate::framework::script::ScriptAction;
    use bgpsdn_analyze::{Finding, Severity};
    use bgpsdn_bgp::TimingConfig;
    use bgpsdn_netsim::SimDuration;
    use bgpsdn_topology::{gen, plan, AsGraph};

    /// The first error-severity finding, if any.
    fn first_error(r: &AnalysisReport) -> Option<&Finding> {
        r.findings.iter().find(|f| f.severity == Severity::Error)
    }

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
        let script = Script {
            steps: vec![ScriptAction::Announce {
                as_index: 9,
                prefix: None,
            }],
        };
        let report = exp.script_preflight(&script);
        assert_eq!(first_error(&report).unwrap().code, "script.index_range");
    }

    #[test]
    fn script_preflight_accepts_the_demo_flow() {
        let net = NetworkBuilder::new(clique_plan(3), 1)
            .with_sdn_members([2])
            .build();
        let prefix = net.ases[0].prefix;
        let exp = Experiment::new(net);
        let script = Script {
            steps: vec![
                ScriptAction::Announce {
                    as_index: 0,
                    prefix: None,
                },
                ScriptAction::Announce {
                    as_index: 1,
                    prefix: None,
                },
                ScriptAction::Announce {
                    as_index: 2,
                    prefix: None,
                },
                ScriptAction::WaitConverged {
                    max: SimDuration::from_secs(600),
                },
                ScriptAction::ExpectReachable { prefix, origin: 0 },
                ScriptAction::Withdraw {
                    as_index: 0,
                    prefix: None,
                },
                ScriptAction::WaitConverged {
                    max: SimDuration::from_secs(600),
                },
                ScriptAction::ExpectGone { prefix },
            ],
        };
        let report = exp.script_preflight(&script);
        assert!(report.clean(), "{}", report.render());
    }

    #[test]
    fn fault_plan_preflight_flags_missing_hold_timers() {
        let spec = JobSpec {
            timing: TimingConfig::with_mrai(SimDuration::ZERO),
            seed: 3,
            ..JobSpec::clique(4, 0)
        };
        let flap = Script::from_offsets(vec![
            (SimDuration::from_secs(5), ScriptAction::FailEdge(1, 2)),
            (SimDuration::from_secs(15), ScriptAction::RestoreEdge(1, 2)),
        ]);
        let run = |script: Script, hold_secs| {
            let mut spec = JobSpec {
                script: Some(script),
                ..spec.clone()
            };
            spec.timing.hold_time_secs = hold_secs;
            std::panic::catch_unwind(|| spec.run(|_| {}).0)
        };
        let err = run(flap.clone(), 0).expect_err("a link fault with hold 0 is rejected");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("needs hold timers"), "{msg}");
        assert!(run(flap, 9).is_ok_and(|o| o.converged && o.audit_ok));
        // A structurally broken schedule never runs: run_script's
        // pre-flight rejects the unknown AS before any fault fires.
        let unknown = Script {
            steps: vec![ScriptAction::CrashRouter(7)],
        };
        let err = run(unknown, 9).expect_err("unknown AS is rejected");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("script.index_range"), "{msg}");
    }

    #[test]
    fn grid_preflight_matches_fig2() {
        assert!(CampaignGrid::fig2(3).preflight().clean());
        let mut grid = CampaignGrid::fig2(3);
        grid.cluster_sizes.push(99);
        assert_eq!(
            first_error(&grid.preflight()).unwrap().code,
            "grid.cluster_size"
        );
        let mut grid = CampaignGrid::fig2(3);
        grid.faults = Some(FaultSpec {
            outages: 2,
            horizon: SimDuration::ZERO,
            classes: FaultClasses::ALL,
        });
        assert_eq!(
            first_error(&grid.preflight()).unwrap().code,
            "grid.chaos_horizon"
        );
    }

    #[test]
    fn job_preflight_applies_the_grid_rules_to_one_job() {
        assert!(JobSpec::clique(16, 8).preflight().clean());
        let code = |spec: JobSpec| first_error(&spec.preflight()).map(|f| f.code);
        let failover = |topology| JobSpec {
            event: EventKind::Failover,
            ..JobSpec::new(topology)
        };
        assert_eq!(
            code(failover(Topology::Clique { n: 4 })),
            Some("grid.event_requires")
        );
        assert_eq!(code(failover(Topology::Clique { n: 5 })), None);
        let hierarchy = Topology::Hierarchy {
            params: bgpsdn_topology::caida::SynthesisParams::default(),
            seed: 1,
        };
        assert_eq!(code(JobSpec::new(hierarchy.clone())), None);
        assert_eq!(code(failover(hierarchy)), Some("grid.event_requires"));
        assert_eq!(code(JobSpec::clique(6, 9)), Some("grid.cluster_size"));
        let split = JobSpec {
            deployment: crate::framework::DeploymentStrategy::Placed {
                placement: crate::framework::Placement::Degree,
                clusters: 3,
                total: 2,
            },
            ..JobSpec::clique(6, 0)
        };
        assert_eq!(code(split), Some("grid.cluster_count"));
    }

    #[test]
    fn fig2_like_grid_is_clean() {
        let grid = CampaignGrid::fig2(10);
        assert!(grid.preflight().clean(), "{}", grid.preflight().render());
    }

    #[test]
    fn grid_mutations_are_each_caught() {
        let code = |grid: CampaignGrid| first_error(&grid.preflight()).map(|f| f.code);
        let base = || CampaignGrid::fig2(10);
        let mut g = base();
        g.cluster_sizes = vec![20];
        assert_eq!(code(g), Some("grid.cluster_size"));
        let mut g = base();
        g.loss = vec![-0.1];
        assert_eq!(code(g), Some("grid.loss_range"));
        let mut g = base();
        g.seeds = 0;
        assert_eq!(code(g), Some("grid.no_seeds"));
        let mut g = base();
        g.loss = vec![];
        assert_eq!(code(g), Some("grid.empty_axis"));
        let mut g = base();
        g.event = EventKind::Failover;
        g.n = 4;
        g.cluster_sizes = vec![0, 4];
        assert_eq!(code(g), Some("grid.event_requires"));
        let mut g = base();
        g.faults = Some(FaultSpec {
            outages: 3,
            horizon: SimDuration::ZERO,
            classes: FaultClasses::ALL,
        });
        assert_eq!(code(g), Some("grid.chaos_horizon"));
    }

    #[test]
    fn cluster_count_axis_is_validated() {
        let mut g = CampaignGrid::fig2(10);
        g.cluster_sizes = vec![0, 8, 16];
        g.clusters = vec![1, 2, 4];
        assert!(g.preflight().clean(), "{}", g.preflight().render());
        // Size-0 cells (pure legacy) coexist with any cluster count, but a
        // non-zero size smaller than the count is unsplittable.
        g.cluster_sizes = vec![0, 2];
        g.clusters = vec![4];
        assert_eq!(
            first_error(&g.preflight()).unwrap().code,
            "grid.cluster_count"
        );
        g.clusters = vec![0];
        assert_eq!(
            first_error(&g.preflight()).unwrap().code,
            "grid.cluster_count"
        );
    }
}
