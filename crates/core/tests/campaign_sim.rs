//! Campaign integration: a parallel sweep over a real 4-cell grid must
//! reproduce serial execution exactly, and the aggregated per-cell
//! statistics must match hand-computed order statistics over the job
//! records.

use bgpsdn_core::{
    run_campaign_scratch, run_job_scratch, CampaignGrid, DeploymentStrategy, EventKind,
    FaultClasses, FaultSpec, JobScratch, Placement,
};
use bgpsdn_netsim::SimDuration;
use bgpsdn_obs::Artifact;
use bgpsdn_topology::{gen, AsGraph};

fn grid() -> CampaignGrid {
    CampaignGrid {
        name: "it".to_string(),
        n: 6,
        event: EventKind::Withdrawal,
        cluster_sizes: vec![0, 2],
        clusters: vec![1],
        strategy: Placement::Tail,
        loss: vec![0.0],
        ctl_latency: vec![SimDuration::from_millis(1), SimDuration::from_millis(5)],
        mrai: SimDuration::from_secs(2),
        recompute_delay: SimDuration::from_millis(100),
        seeds: 2,
        base_seed: 31,
        faults: None,
        verify: false,
    }
}

#[test]
fn parallel_sweep_matches_serial_execution() {
    let grid = grid();
    assert_eq!(grid.cell_count(), 4, "2 sizes x 2 latencies");
    assert_eq!(grid.expand().len(), 8);

    // Serial reference: run each job directly, in expansion order.
    let serial: Vec<_> = grid
        .expand()
        .iter()
        .map(|job| {
            (
                job.clone(),
                run_job_scratch(job, false, &mut JobScratch::default()),
            )
        })
        .collect();

    let report = run_campaign_scratch(
        grid.expand(),
        4,
        |job, scratch| run_job_scratch(job, false, scratch),
        |_| {},
    );
    assert_eq!(report.results.len(), serial.len());

    for (result, (job, reference)) in report.results.iter().zip(&serial) {
        assert_eq!(result.job.id, job.id, "results stay in expansion order");
        let out = result.outcome.as_ref().expect("no panics in this grid");
        assert_eq!(out.outcome.converged, reference.outcome.converged);
        assert_eq!(out.outcome.convergence, reference.outcome.convergence);
        assert_eq!(out.outcome.updates, reference.outcome.updates);
        assert_eq!(out.outcome.flow_mods, reference.outcome.flow_mods);
        assert_eq!(out.outcome.audit_ok, reference.outcome.audit_ok);
    }
}

#[test]
fn a_verified_job_artifact_has_one_metrics_line_per_phase() {
    // The final verification runs after the job closed its event phase;
    // what it counts belongs to that phase's line, not to a second one.
    let mut grid = grid();
    grid.cluster_sizes = vec![2];
    grid.ctl_latency.truncate(1);
    grid.seeds = 1;
    grid.verify = true;
    let job = &grid.expand()[0];
    let artifact = run_job_scratch(job, true, &mut JobScratch::default())
        .artifact
        .expect("traced");
    let metrics: Vec<&str> = artifact
        .lines()
        .filter(|l| l.contains("\"type\":\"metrics\""))
        .collect();
    let phases: Vec<bool> = ["\"phase\":\"bring-up\"", "\"phase\":\"withdrawal\""]
        .iter()
        .map(|p| metrics.iter().filter(|l| l.contains(p)).count() == 1)
        .collect();
    assert_eq!(metrics.len(), 2, "{metrics:#?}");
    assert_eq!(phases, [true, true], "{metrics:#?}");
    assert!(metrics[1].contains("verify.checks"), "{}", metrics[1]);
}

#[test]
fn aggregated_medians_match_manual_computation() {
    let grid = grid();
    let report = run_campaign_scratch(
        grid.expand(),
        2,
        |job, scratch| run_job_scratch(job, false, scratch),
        |_| {},
    );
    let records = report.records();
    let artifact = Artifact::parse(&report.render_artifact(&grid)).expect("campaign artifact");
    let cells = artifact.cells;
    assert_eq!(cells.len(), 4);

    for cell in &cells {
        let members: Vec<_> = records.iter().filter(|r| r.cell == cell.cell).collect();
        assert_eq!(members.len(), 2, "2 seeds per cell");
        assert_eq!(cell.runs, 2);
        assert_eq!(cell.failed + cell.unconverged + cell.audit_failures, 0);

        // Median of two samples is their midpoint (type-7 interpolation).
        let conv: Vec<f64> = members
            .iter()
            .map(|r| r.convergence_ns as f64 / 1e9)
            .collect();
        let expected = (conv[0] + conv[1]) / 2.0;
        let got = cell.convergence_s.as_ref().expect("stats present");
        assert!(
            (got.median - expected).abs() < 1e-12,
            "cell {}: median {} != {expected}",
            cell.cell,
            got.median
        );
        assert_eq!(got.min, conv[0].min(conv[1]));
        assert_eq!(got.max, conv[0].max(conv[1]));
    }
}

/// `CampaignJob::{scenario, run_options}` stay only for the frozen
/// benchmark harness, which rebuilds Fig. 2 jobs from them: they must keep
/// describing the network `spec()` builds — every Fig. 2 job, a data-plane
/// chaos cell and a two-cluster degree-placed cell.
#[test]
fn harness_views_describe_the_spec_network() {
    let mut jobs = CampaignGrid::fig2(1).expand();
    let mut chaos = CampaignGrid::fig2(1);
    chaos.cluster_sizes = vec![8];
    chaos.faults = Some(FaultSpec {
        outages: 2,
        horizon: SimDuration::from_secs(30),
        classes: FaultClasses::DATA_PLANE,
    });
    let mut split = CampaignGrid::fig2(1);
    split.cluster_sizes = vec![8];
    split.clusters = vec![2];
    split.strategy = Placement::Degree;
    jobs.extend(chaos.expand());
    jobs.extend(split.expand());
    for job in &jobs {
        let (scenario, opts, spec) = (job.scenario(), job.run_options(), job.spec());
        let net = spec.builder().build();
        let graph = AsGraph::all_peer(&gen::clique(scenario.n), 65000);
        let expected = if scenario.sdn_count == 0 {
            Vec::new()
        } else {
            let deployment = DeploymentStrategy::Placed {
                placement: opts.strategy,
                clusters: opts.clusters,
                total: scenario.sdn_count,
            };
            deployment.assign(&graph, scenario.seed).unwrap()
        };
        let members: Vec<Vec<usize>> = net.clusters.iter().map(|c| c.members.clone()).collect();
        assert_eq!(members, expected, "job {}: members", job.id);
        if opts.default_deployment() {
            assert_eq!(members.concat(), scenario.members(), "job {}", job.id);
        }
        let timing = &net.plan.routers[0].timing;
        assert_eq!(timing.mrai, scenario.mrai, "job {}: MRAI", job.id);
        assert_eq!(
            timing.hold_time_secs, opts.hold_secs,
            "job {}: hold",
            job.id
        );
        assert_eq!(
            timing.graceful_restart_secs, opts.graceful_restart_secs,
            "job {}: GR window",
            job.id
        );
        let latency = format!("{:?}", opts.ctl_latency.expect("jobs set the latency"));
        for cluster in &net.clusters {
            let channel = net.sim.link(cluster.speaker_link);
            assert_eq!(format!("{:?}", channel.latency), latency, "job {}", job.id);
            assert_eq!(channel.loss, scenario.control_loss, "job {}: loss", job.id);
        }
        assert_eq!(
            format!("{:?}", spec.script),
            format!("{:?}", opts.fault_plan),
            "job {}: fault script",
            job.id
        );
        assert_eq!(spec.note, opts.fault_note, "job {}: note", job.id);
    }
    assert!(
        jobs.iter().any(|j| j.run_options().hold_secs == 9),
        "the chaos cell schedules data-plane faults"
    );
}
