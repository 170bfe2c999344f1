//! Campaign integration: a parallel sweep over a real 4-cell grid must
//! reproduce serial execution exactly, and the aggregated per-cell
//! statistics must match hand-computed order statistics over the job
//! records.

use bgpsdn_core::{run_campaign_scratch, run_job, CampaignGrid, EventKind};
use bgpsdn_netsim::SimDuration;
use bgpsdn_obs::aggregate_cells;

fn grid() -> CampaignGrid {
    CampaignGrid {
        name: "it".to_string(),
        n: 6,
        event: EventKind::Withdrawal,
        cluster_sizes: vec![0, 2],
        clusters: vec![1],
        strategy: "tail",
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
    assert_eq!(grid.job_count(), 8);

    // Serial reference: run each job directly, in expansion order.
    let serial: Vec<_> = grid
        .expand()
        .iter()
        .map(|job| (job.clone(), run_job(job, false)))
        .collect();

    let report = run_campaign_scratch(
        grid.expand(),
        4,
        || (),
        |job, ()| run_job(job, false),
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
fn aggregated_medians_match_manual_computation() {
    let grid = grid();
    let report = run_campaign_scratch(
        grid.expand(),
        2,
        || (),
        |job, ()| run_job(job, false),
        |_| {},
    );
    let records = report.records();
    let cells = aggregate_cells(&records);
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
