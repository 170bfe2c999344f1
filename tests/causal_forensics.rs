//! Causal forensics end-to-end: the trigger lineage recorded during a
//! clique experiment must *account for* the run's own convergence
//! measurements — the longest critical path telescopes exactly to the
//! last routing-table change — and the phase decomposition must explain
//! Figure 2's shape: the BGP-side phases (MRAI batching and path
//! hunting) shrink as the SDN fraction grows. The convergence `bgpsdn
//! report` reads back from the artifact is the run's own measurement.

use bgp_sdn_emu::prelude::*;
use proptest::prelude::*;

fn analyze(exp: &Experiment) -> CausalAnalysis {
    let phase_start = exp.phase_start().as_nanos();
    CausalAnalysis::from_events(
        exp.net
            .sim
            .trace()
            .records()
            .filter(|r| r.time.as_nanos() >= phase_start)
            .map(|r| (r.time.as_nanos(), r.node.map(|n| n.0), &r.event)),
    )
}

/// The longest critical path over all triggers of the event phase.
fn critical_path_ns(analysis: &CausalAnalysis) -> u64 {
    analysis
        .triggers
        .iter()
        .filter_map(|t| t.settle_t.map(|s| s - t.start_t))
        .max()
        .expect("withdrawal trigger settles")
}

#[test]
fn critical_path_matches_last_table_change() {
    let scenario = JobSpec {
        timing: TimingConfig::with_mrai(SimDuration::from_secs(5)),
        seed: 1,
        ..JobSpec::clique(8, 4)
    };
    let (out, exp) = scenario.run(|sim| {
        sim.trace_mut().enable_all();
        sim.set_profiling(true);
    });
    assert!(out.converged);
    let analysis = analyze(&exp);
    assert_eq!(analysis.dangling, 0, "lineage must be complete");
    let critical_ns = critical_path_ns(&analysis);
    let phase_start = exp.phase_start();
    let settled_ns = [Activity::RibChange, Activity::FlowInstalled]
        .into_iter()
        .filter_map(|a| exp.net.sim.board().last(a))
        .max()
        .expect("tables changed")
        .saturating_since(phase_start)
        .as_nanos();
    assert_eq!(
        critical_ns, settled_ns,
        "the critical path must telescope exactly to the last table change"
    );
    // And the path's own phase edges sum to its total (telescoping).
    let t = &analysis.triggers[0];
    let longest = &t.paths[0];
    assert!(longest.complete, "walk must reach the trigger root");
    assert_eq!(longest.phases.total(), longest.total_ns);
}

#[test]
fn collector_trails_the_critical_path_by_one_hop() {
    // The collector sits one control link (1 ms propagation) away from the
    // routers, so on the Fig. 2 clique its convergence reading trails the
    // critical path — the last table change — by one hop; allow two in
    // case the final update rides a retransmit.
    const COLLECTOR_HOP_NS: u64 = 2_000_000;
    let spec = JobSpec {
        seed: 4242,
        ..JobSpec::clique(16, 8)
    };
    let (out, exp) = spec.run(|sim| {
        sim.trace_mut().enable(TraceCategory::Causal);
    });
    assert!(out.converged && out.audit_ok);
    let critical_ns = critical_path_ns(&analyze(&exp));
    let collector_ns = out
        .collector_convergence
        .expect("clique runs have a collector")
        .as_nanos();
    assert!(
        collector_ns.abs_diff(critical_ns) <= COLLECTOR_HOP_NS,
        "collector convergence ({collector_ns} ns) must trail the critical \
         path ({critical_ns} ns) by at most one collector hop"
    );
}

#[test]
fn bgp_phases_shrink_as_centralization_grows() {
    // Three points of the Figure 2 axis: pure BGP, half SDN, full SDN.
    // The curve bends because MRAI batching and path hunting disappear
    // from the critical path as more of the clique is centralized.
    let mut bgp_side = Vec::new();
    for sdn in [0usize, 8, 16] {
        let scenario = JobSpec {
            seed: 4242,
            ..JobSpec::clique(16, sdn)
        };
        let (out, exp) = scenario.run(|sim| {
            sim.trace_mut().enable_all();
            sim.set_profiling(true);
        });
        assert!(out.converged, "sdn={sdn} must converge");
        let phases = analyze(&exp).phase_totals();
        bgp_side.push(phases.get(CausalPhase::MraiWait) + phases.get(CausalPhase::HuntStep));
    }
    assert!(
        bgp_side[0] >= bgp_side[1] && bgp_side[1] >= bgp_side[2],
        "mrai_wait + hunt_step must shrink with the SDN fraction: {bgp_side:?}"
    );
    assert!(
        bgp_side[0] > bgp_side[2],
        "full centralization must actually remove BGP-side wait time: {bgp_side:?}"
    );
}

proptest! {
    /// The convergence `bgpsdn report` prints is the run's own: over random
    /// clique jobs — every event, placement and cluster count, with and
    /// without a chaos schedule — the measured instant and the collector
    /// view that the event phase's `metrics` line records equal the job
    /// outcome's to the nanosecond.
    #[test]
    fn the_report_reads_the_measured_convergence(
        n in 5usize..=7,
        event in 0usize..3,
        pick in any::<u64>(),
        mrai in 1u64..=5,
        outages in 0usize..3,
        seed in any::<u64>(),
    ) {
        let events = [EventKind::Withdrawal, EventKind::Announcement, EventKind::Failover];
        let placements = [Placement::Tail, Placement::Random, Placement::Degree, Placement::KCore];
        let grid = CampaignGrid {
            n,
            event: events[event],
            cluster_sizes: vec![pick as usize % (n + 1)],
            clusters: vec![1 + (pick >> 8) as usize % 2],
            strategy: placements[(pick >> 16) as usize % placements.len()],
            mrai: SimDuration::from_secs(mrai),
            base_seed: seed,
            faults: (outages > 0).then_some(FaultSpec {
                outages,
                horizon: SimDuration::from_secs(30),
                classes: FaultClasses::ALL,
            }),
            ..CampaignGrid::fig2(1)
        };
        prop_assume!(grid.preflight().ok());
        let spec = grid.expand()[0].spec();
        let (out, exp) = spec.run(|sim| sim.trace_mut().enable(TraceCategory::Experiment));
        let mut text = String::new();
        spec.render_artifact_into(None, &exp, &mut text);
        let analysis = RunAnalysis::from_artifact(&Artifact::parse(&text).expect("parses"));
        let phase = analysis
            .phases
            .iter()
            .find(|p| p.name == spec.event.name())
            .expect("an event phase");
        let recorded = phase.convergence.expect("the phase recorded its convergence");
        prop_assert_eq!(recorded.converged_ns, out.convergence.as_nanos());
        prop_assert_eq!(
            recorded.collector_ns,
            out.collector_convergence.map(SimDuration::as_nanos)
        );
    }
}
