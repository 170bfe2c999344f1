//! `fig2_sweep` — the paper's headline figure as a campaign.
//!
//! `CampaignGrid::fig2(10)` (16-AS clique, MRAI 30 s, withdrawal, 17 cells
//! × 10 seeds = 170 jobs) through `run_campaign` on one worker with
//! tracing off, then `render_artifact` → `CampaignArtifact::parse` →
//! `render_report`. One op is one job. 170 tiny networks make the
//! framework's build, bring-up and teardown, the MRAI timers and the
//! campaign plumbing dominate; per-event BGP work and queue depth are
//! small.
//!
//! Set-up runs every job once through the staged pipeline: that warms the
//! process up, counts the events each job processes (the library call does
//! not expose them) and yields the records every timed sweep must
//! reproduce byte for byte.

use std::time::Instant;

use bgpsdn_core::{run_campaign, CampaignGrid, CampaignJob, CampaignRunReport};
use bgpsdn_obs::CampaignArtifact;

use super::clique::{finish_traced, record_line, run_staged, Budget, Telemetry};
use super::{add_exact_counts, finish_ratios, timed_rep, Config, Outcome};
use crate::host;
use crate::spans::SpanLog;
use crate::stats::{median, ratio, Digest};
use crate::stepper::StepProfile;

/// The Fig. 2 grid with every job seed derived from `seed`.
fn grid(cfg: &Config) -> CampaignGrid {
    let mut grid = CampaignGrid::fig2(cfg.sizes.sweep_seeds);
    grid.base_seed = cfg.seed;
    grid
}

/// What the staged calibration pass learnt about each job.
struct Calibration {
    budgets: Vec<Budget>,
    records: Vec<String>,
    /// Host ms of build + bring-up + withdrawal per job (spans on only).
    core_ms: Vec<f64>,
}

impl Calibration {
    fn events(&self) -> u64 {
        self.budgets.iter().map(|b| b.bringup + b.trigger).sum()
    }
}

/// Run every job once, staged and untraced.
fn calibrate(
    jobs: &[CampaignJob],
    out: &mut Outcome,
    counts: bool,
    spans: &mut SpanLog,
) -> Calibration {
    let mut cal = Calibration {
        budgets: Vec::with_capacity(jobs.len()),
        records: Vec::with_capacity(jobs.len()),
        core_ms: Vec::with_capacity(jobs.len()),
    };
    for job in jobs {
        let first = spans.spans().len();
        let staged = run_staged(job, Telemetry::Causal, false, None, spans);
        cal.core_ms.push(
            spans.spans()[first..]
                .iter()
                .filter(|s| {
                    matches!(
                        s.name,
                        "core.framework.build"
                            | "core.framework.bringup"
                            | "core.framework.trigger"
                    )
                })
                .map(|s| s.dur_ns() as f64 / 1e6)
                .sum(),
        );
        if counts {
            add_exact_counts(&staged.exp, &mut out.layers);
        }
        cal.budgets.push(staged.budget);
        cal.records.push(staged.record_line(job));
    }
    cal
}

/// The library sweep plus the artifact round trip a user waits for.
fn library_sweep(
    grid: &CampaignGrid,
    workers: usize,
) -> (CampaignRunReport, CampaignArtifact, String) {
    let report = run_campaign(grid, workers, false);
    let text = report.render_artifact(grid);
    let parsed = CampaignArtifact::parse(&text).expect("a campaign artifact re-parses");
    let table = parsed.render_report();
    (report, parsed, table)
}

/// Check one sweep: every job healthy, records equal to the calibration's,
/// medians non-increasing in cluster size with the full cluster at 0.00 s.
fn check_sweep(
    report: &CampaignRunReport,
    parsed: &CampaignArtifact,
    cal: &Calibration,
    out: &mut Outcome,
) -> Digest {
    let mut digest = Digest::default();
    for (r, expected) in report.results.iter().zip(&cal.records) {
        let healthy = r
            .outcome
            .as_ref()
            .is_ok_and(|o| o.outcome.converged && o.outcome.audit_ok && o.verify_violations == 0);
        out.op(healthy, || {
            format!("job {} did not converge or failed its audit", r.job.id)
        });
        let line = r.record().to_line();
        if &line != expected {
            out.problem(format!(
                "job {}: the library record differs from the staged pipeline's",
                r.job.id
            ));
        }
        digest.text(&line);
    }
    let medians: Vec<f64> = parsed
        .cells
        .iter()
        .map(|c| c.convergence_s.as_ref().map_or(f64::INFINITY, |s| s.median))
        .collect();
    // A median of fewer than ten seeds is too noisy to order (`--quick`).
    let ordered = parsed.cells.iter().all(|c| c.runs >= 10);
    if ordered && medians.windows(2).any(|w| w[1] > w[0]) {
        out.problem(format!(
            "median convergence is not non-increasing in cluster size: {medians:?}"
        ));
    }
    // Full centralisation leaves no BGP to converge: one control-channel
    // round trip, which the paper's figure shows as 0 s.
    if medians.last().is_some_and(|&m| m >= 0.01) {
        out.problem(format!(
            "the fully centralised cell converges in {:?} s, not 0.00",
            medians.last()
        ));
    }
    for c in &parsed.cells {
        digest.text(&c.to_line());
    }
    digest
}

/// Run the workload.
pub fn run(cfg: &Config, spans: &mut SpanLog) -> Outcome {
    let mut out = Outcome::default();
    let grid = grid(cfg);
    let jobs = grid.expand();

    let t0 = Instant::now();
    let mut calib_spans = SpanLog::new(cfg.trace);
    let cal = calibrate(&jobs, &mut out, cfg.trace, &mut calib_spans);
    out.setup_s.push(t0.elapsed().as_secs_f64());

    if !cfg.trace {
        for _ in 0..cfg.sizes.sweeps {
            let (rep, (report, parsed)) = timed_rep(|| {
                let (report, parsed, table) = library_sweep(&grid, 1);
                std::hint::black_box(table.len());
                let op_ms = report
                    .results
                    .iter()
                    .map(|r| r.wall_ns as f64 / 1e6)
                    .collect();
                (cal.events(), op_ms, (report, parsed))
            });
            let digest = check_sweep(&report, &parsed, &cal, &mut out);
            out.repeat_digest(digest, "sweeps");
            out.reps.push(rep);
        }
        return out;
    }

    // Untraced library sweeps: the serial one is the base of the tracing
    // overhead and of the job overhead; the parallel one must reproduce
    // its records byte for byte.
    let t0 = Instant::now();
    let (serial, parsed, _) = library_sweep(&grid, 1);
    let serial_s = t0.elapsed().as_secs_f64();
    out.digest = check_sweep(&serial, &parsed, &cal, &mut out);
    let mut overhead: Vec<f64> = serial
        .results
        .iter()
        .zip(&cal.core_ms)
        .map(|(r, core)| r.wall_ns as f64 / 1e6 - core)
        .collect();
    out.layers
        .set("core.campaign.job_overhead_ms", median(&mut overhead));
    let mut convergence: Vec<f64> = serial
        .results
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .map(|o| o.outcome.convergence.as_nanos() as f64 / 1e9)
        .collect();
    out.layers
        .set("collector.convergence_sim_s_p50", median(&mut convergence));

    let workers = host::nproc().min(4);
    let t0 = Instant::now();
    let (parallel, _, _) = library_sweep(&grid, workers);
    let parallel_s = t0.elapsed().as_secs_f64();
    if serial.records() != parallel.records() {
        out.problem(format!(
            "job records of the {workers}-worker sweep differ from the serial sweep's"
        ));
    }
    out.layers.set(
        "core.campaign.parallel_speedup",
        ratio(serial_s, parallel_s),
    );

    // Traced pass: every job staged, profiled, fully traced and stepped.
    let mut steps = StepProfile::default();
    let mut traced_s = 0.0;
    let harvest_at = jobs.len() / 2;
    for (i, job) in jobs.iter().enumerate() {
        let op = spans.enter_op();
        let t0 = Instant::now();
        let staged = run_staged(
            job,
            Telemetry::Profiled,
            false,
            Some((cal.budgets[i], &mut steps)),
            spans,
        );
        traced_s += t0.elapsed().as_secs_f64();
        let healthy = staged.outcome.outcome.converged && staged.outcome.outcome.audit_ok;
        out.op(healthy, || {
            format!("traced job {} did not converge or failed its audit", job.id)
        });
        if record_line(job, &staged.outcome) != cal.records[i] {
            out.problem(format!(
                "traced job {}: record differs from the untraced one",
                job.id
            ));
        }
        // A half-centralised cell holds routers, switches and a controller:
        // every kernel has state to replay.
        finish_traced(
            staged.exp,
            i == harvest_at,
            &cfg.sizes,
            &mut out.layers,
            spans,
        );
        spans.exit(op);
    }
    steps.report(&mut out.layers);

    // The campaign artifact round trip, span by span.
    let records: Vec<_> = serial.records();
    let header = grid.header(1, serial.wall);
    let text = spans.time("obs.campaign.aggregate", || {
        CampaignArtifact::render(&header, &records)
    });
    let reparsed = spans.time("obs.artifact.parse", || {
        CampaignArtifact::parse(&text).expect("a campaign artifact re-parses")
    });
    let table = spans.time("obs.report.render", || reparsed.render_report());
    std::hint::black_box(table.len());
    out.layers.set("obs.artifact_bytes", text.len() as f64);
    let kb_per_ms = |span: &str| ratio(text.len() as f64 / 1e3, spans.total_ms(span));
    out.layers.set(
        "obs.artifact.render_mb_per_s",
        kb_per_ms("obs.campaign.aggregate"),
    );
    out.layers.set(
        "obs.artifact.parse_mb_per_s",
        kb_per_ms("obs.artifact.parse"),
    );

    out.layers
        .set("obs.trace_overhead_ratio", ratio(traced_s, serial_s));
    out.layers.set("aux.measured_wall_s", serial_s);
    // Untraced campaign jobs are never verified.
    out.layers.not_applicable(&["verify.ns_per_prefix"]);
    finish_ratios(&mut out.layers);
    out
}
