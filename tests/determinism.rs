//! Experiment determinism: the same seed must yield byte-identical
//! artifacts.
//!
//! Campaign jobs run with wall-clock profiling off, so their JSONL
//! artifacts are *raw-byte* reproducible — this is what lets the parallel
//! sweep runner prove itself against serial execution. Profiled runs
//! (`bgpsdn run --trace-out`) carry host wall times in span events and metric
//! histograms; those canonicalize away with [`canonicalize_jsonl`], and
//! everything the simulation controls must survive identically.

use bgp_sdn_emu::prelude::*;

fn small_grid() -> CampaignGrid {
    CampaignGrid {
        name: "det".to_string(),
        n: 6,
        event: EventKind::Withdrawal,
        cluster_sizes: vec![0, 3],
        clusters: vec![1],
        strategy: Placement::Tail,
        loss: vec![0.0],
        ctl_latency: vec![SimDuration::from_millis(1)],
        mrai: SimDuration::from_secs(2),
        recompute_delay: SimDuration::from_millis(100),
        seeds: 1,
        base_seed: 77,
        faults: None,
        verify: false,
    }
}

#[test]
fn same_seed_jobs_produce_byte_identical_artifacts() {
    for job in small_grid().expand() {
        let a = run_job_scratch(&job, true, &mut JobScratch::default());
        let b = run_job_scratch(&job, true, &mut JobScratch::default());
        let (a, b) = (a.artifact.expect("traced"), b.artifact.expect("traced"));
        assert!(!a.is_empty());
        assert_eq!(a, b, "job {} artifact must be byte-stable", job.id);
    }
}

#[test]
fn chaos_fault_jobs_are_equally_deterministic() {
    let mut grid = small_grid();
    grid.faults = Some(FaultSpec {
        outages: 2,
        horizon: SimDuration::from_secs(30),
        classes: FaultClasses::CONTROL_ONLY,
    });
    // Outage schedules derive from the job seed, so reruns replay the
    // exact same fault timeline.
    for job in grid.expand() {
        let a = run_job_scratch(&job, true, &mut JobScratch::default())
            .artifact
            .expect("traced");
        let b = run_job_scratch(&job, true, &mut JobScratch::default())
            .artifact
            .expect("traced");
        assert_eq!(a, b, "chaos job {} artifact must be byte-stable", job.id);
    }
}

#[test]
fn mixed_chaos_jobs_are_equally_deterministic() {
    // Router crashes, link flaps and keepalive-loss windows on every cell
    // (the pure-BGP cell included) must replay byte-for-byte: crash wipes,
    // hold expiries, graceful-restart retention and treat-as-withdraw all
    // derive from the job seed alone.
    let mut grid = small_grid();
    grid.faults = Some(FaultSpec {
        outages: 2,
        horizon: SimDuration::from_secs(30),
        classes: FaultClasses::ALL,
    });
    for job in grid.expand() {
        let opts = job.run_options();
        assert!(
            opts.fault_plan.is_some(),
            "job {} (cluster {}) must carry a chaos plan",
            job.id,
            job.cluster
        );
        let a = run_job_scratch(&job, true, &mut JobScratch::default())
            .artifact
            .expect("traced");
        let b = run_job_scratch(&job, true, &mut JobScratch::default())
            .artifact
            .expect("traced");
        assert_eq!(
            a, b,
            "mixed-chaos job {} artifact must be byte-stable",
            job.id
        );
    }
}

#[test]
fn profiled_runs_canonicalize_identically() {
    let scenario = JobSpec {
        timing: TimingConfig::with_mrai(SimDuration::from_secs(2)),
        seed: 9,
        ..JobSpec::clique(6, 3)
    };
    let (out1, exp1) = scenario.run(|sim| {
        sim.trace_mut().enable_all();
        sim.set_profiling(true);
    });
    let (out2, exp2) = scenario.run(|sim| {
        sim.trace_mut().enable_all();
        sim.set_profiling(true);
    });
    assert!(out1.converged && out2.converged);
    assert_eq!(out1.convergence, out2.convergence, "sim time is exact");

    let (mut a, mut b) = (String::new(), String::new());
    exp1.net.sim.trace().export_jsonl_into(&mut a);
    exp2.net.sim.trace().export_jsonl_into(&mut b);
    let (ca, cb) = (canonicalize_jsonl(&a), canonicalize_jsonl(&b));
    assert!(!ca.is_empty());
    assert_eq!(
        ca, cb,
        "profiled traces must agree once wall-clock noise is canonicalized"
    );
}

#[test]
fn campaign_records_are_identical_across_reruns() {
    let grid = small_grid();
    let r1 = run_campaign(&grid, 2, false);
    let r2 = run_campaign(&grid, 1, false);
    assert_eq!(
        r1.records(),
        r2.records(),
        "records must not depend on worker count or rerun"
    );
}

/// The `clusters × strategy` deployment axis obeys the same contract as
/// every other axis: traced job artifacts are raw-byte reproducible and
/// campaign records are independent of the worker count.
#[test]
fn multicluster_campaign_is_equally_deterministic() {
    let mut grid = small_grid();
    grid.name = "det-mc".to_string();
    grid.cluster_sizes = vec![0, 3, 4];
    grid.clusters = vec![1, 2];
    grid.strategy = Placement::Degree;

    let jobs = grid.expand();
    assert_eq!(jobs.len(), 6, "3 sizes x 2 cluster counts");
    for job in &jobs {
        let a = run_job_scratch(job, true, &mut JobScratch::default())
            .artifact
            .expect("traced");
        let b = run_job_scratch(job, true, &mut JobScratch::default())
            .artifact
            .expect("traced");
        assert!(!a.is_empty());
        assert_eq!(
            a,
            b,
            "multi-cluster job {} ({}x{}) artifact must be byte-stable",
            job.id,
            job.clusters,
            job.strategy.name()
        );
    }

    let r1 = run_campaign(&grid, 2, false);
    let r2 = run_campaign(&grid, 1, false);
    assert_eq!(
        r1.records(),
        r2.records(),
        "multi-cluster records must not depend on worker count or rerun"
    );
}
