//! `trace_forensics` — fully traced, verified Fig. 2 jobs, read back.
//!
//! Fig. 2 cells {0, 4, 8, 12, 16} × 10 seeds with every trace category on
//! and verification checkpoints. One op is one job: `run_job_scratch(trace
//! = true)` (which renders the job's JSONL artifact) → `RunArtifact::parse`
//! → `RunAnalysis::from_artifact().render()` →
//! `CausalAnalysis::from_events().render()/to_json()` →
//! `Snapshot::from_json` + `Verifier::verify`. One seed across the five
//! cells is one repetition. `obs` (event encode, hand-rolled JSON, causal
//! DAG) and `verify` do most of the work here and none in the other three
//! workloads; paired with the identical untraced jobs it prices tracing.
//!
//! `sim_digest` covers the jobs of the first [`DIGEST_SEEDS`] seeds — the
//! part both modes run.

use std::time::Instant;

use bgpsdn_analyze::hunt_depth_bound;
use bgpsdn_core::{run_job_scratch, CampaignGrid, CampaignJob, JobScratch};
use bgpsdn_obs::{canonicalize_jsonl, CausalAnalysis, Json, RunAnalysis, RunArtifact, TraceEvent};
use bgpsdn_topology::{gen, AsGraph};
use bgpsdn_verify::{Snapshot, Verifier};

use super::clique::{finish_traced, record_line, run_staged, Budget, Telemetry};
use super::{add_exact_counts, finish_ratios, timed_rep, Config, Outcome};
use crate::spans::SpanLog;
use crate::stats::{median, ratio, Digest};
use crate::stepper::StepProfile;

/// The Fig. 2 cells (cluster sizes) this workload runs.
const CELLS: [usize; 5] = [0, 4, 8, 12, 16];

/// Seeds whose jobs feed `sim_digest` and which the traced mode repeats.
const DIGEST_SEEDS: u64 = 3;

/// Critical paths and hunt chains rendered per trigger, as `bgpsdn explain`.
const TOP_K: usize = 3;

/// The jobs, ordered seed-major so that one seed across the cells is one
/// contiguous repetition. Traced mode keeps the first [`DIGEST_SEEDS`]
/// seeds of the very same grid, so job ids and seeds agree across modes.
fn jobs(cfg: &Config) -> Vec<CampaignJob> {
    let mut grid = CampaignGrid::fig2(cfg.sizes.forensic_seeds);
    grid.cluster_sizes = CELLS.to_vec();
    grid.base_seed = cfg.seed;
    grid.verify = true;
    let mut jobs = grid.expand();
    jobs.sort_by_key(|j| (j.seed_index, j.cell));
    if cfg.trace {
        jobs.retain(|j| j.seed_index < DIGEST_SEEDS);
    }
    jobs
}

/// What reading one artifact back found.
struct ReadBack {
    ok: bool,
    why: String,
    prefixes_checked: usize,
}

/// Everything a user does with a job artifact after the run: parse it,
/// render the report, reconstruct and render the causal forensics, verify
/// the frozen snapshot — and the workload's checks on what came back.
fn read_back(job: &CampaignJob, text: &str, digest: &mut Digest, spans: &mut SpanLog) -> ReadBack {
    let artifact = match spans.time("obs.artifact.parse", || RunArtifact::parse(text)) {
        Ok(a) => a,
        Err(e) => {
            return ReadBack {
                ok: false,
                why: format!("artifact does not re-parse: {e}"),
                prefixes_checked: 0,
            }
        }
    };
    let report = spans.time("obs.report.render", || {
        RunAnalysis::from_artifact(&artifact).render()
    });
    let (explained, explained_json) = spans.time("obs.causal.analysis", || {
        let causal =
            CausalAnalysis::from_events(artifact.events.iter().map(|r| (r.t, r.node, &r.event)));
        (causal.render(TOP_K), causal.to_json(TOP_K).to_compact())
    });
    let snapshot_line = text
        .lines()
        .find(|l| l.starts_with("{\"type\":\"snapshot\""))
        .unwrap_or("");
    let verdict = spans.time("verify.verify", || {
        let v = Json::parse(snapshot_line).map_err(|e| e.to_string())?;
        let snap = Snapshot::from_json(&v)?;
        Ok::<_, String>(Verifier::new().verify(&snap))
    });

    // The workload's checks.
    let written = text
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"event\""))
        .count();
    let event_phase = artifact
        .events
        .iter()
        .find(|r| {
            matches!(&r.event, TraceEvent::Phase { name, started: true } if name == "withdrawal")
        })
        .map_or(u64::MAX, |r| r.t);
    let hunt_depth = artifact
        .events
        .iter()
        .filter(|r| r.t >= event_phase)
        .filter_map(|r| match &r.event {
            TraceEvent::RibChange {
                new_path: Some(p), ..
            } => Some(p.len()),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let graph = AsGraph::all_peer(&gen::clique(job.n), 65000);
    let members: Vec<usize> = (job.n - job.cluster..job.n).collect();
    // The static bound counts logical nodes with the cluster contracted to
    // one; a transient path that transits a partial cluster can carry one
    // more ASN than that (ingress and egress member both appear).
    let partial = job.cluster > 0 && job.cluster < job.n;
    let bound = hunt_depth_bound(&graph, &members, 0) + usize::from(partial);

    digest.text(text);
    digest.text(&report);
    digest.text(&explained);
    digest.text(&explained_json);

    let (ok, why, prefixes_checked) = match verdict {
        Err(e) => (false, format!("snapshot does not re-parse: {e}"), 0),
        Ok(v) if !v.ok() => (
            false,
            format!("verifier found {} violations", v.violations.len()),
            v.prefixes_checked,
        ),
        Ok(v) if artifact.events.len() != written => (
            false,
            format!(
                "{written} events written, {} re-parsed",
                artifact.events.len()
            ),
            v.prefixes_checked,
        ),
        Ok(v) if hunt_depth > bound => (
            false,
            format!("transient path of {hunt_depth} ASNs exceeds the static hunt bound {bound}"),
            v.prefixes_checked,
        ),
        Ok(v) => (true, String::new(), v.prefixes_checked),
    };
    ReadBack {
        ok,
        why,
        prefixes_checked,
    }
}

/// What one library op produced.
struct LibraryOp {
    verdict: Result<(), String>,
    record: String,
    convergence_s: f64,
    artifact: String,
}

/// One job as a user runs it, traced, and everything read back from it.
fn library_op(job: &CampaignJob, scratch: &mut JobScratch, digest: &mut Digest) -> LibraryOp {
    let mut outcome = run_job_scratch(job, true, scratch);
    let artifact = outcome.artifact.take().unwrap_or_default();
    let back = read_back(job, &artifact, digest, &mut SpanLog::new(false));
    let healthy =
        outcome.outcome.converged && outcome.outcome.audit_ok && outcome.verify_violations == 0;
    let verdict = if !healthy {
        Err("did not converge, failed its audit or violated an invariant".to_string())
    } else if !back.ok {
        Err(back.why)
    } else {
        Ok(())
    };
    LibraryOp {
        verdict,
        record: record_line(job, &outcome),
        convergence_s: outcome.outcome.convergence.as_nanos() as f64 / 1e9,
        artifact,
    }
}

/// Run the workload.
pub fn run(cfg: &Config, spans: &mut SpanLog) -> Outcome {
    let mut out = Outcome::default();
    let jobs = jobs(cfg);

    // Set-up: every job once, staged and untraced — warm-up, per-job event
    // counts, and the records the traced jobs must reproduce.
    let t0 = Instant::now();
    let mut quiet = SpanLog::new(false);
    let mut budgets: Vec<Budget> = Vec::with_capacity(jobs.len());
    let mut records = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let staged = run_staged(job, Telemetry::Causal, false, None, &mut quiet);
        budgets.push(staged.budget);
        records.push(staged.record_line(job));
    }
    let untraced_s = t0.elapsed().as_secs_f64();
    out.setup_s.push(untraced_s);

    // The measured pass: in end-to-end mode one repetition per seed; in
    // traced mode the same ops once, as the base the traced pass is
    // compared against.
    let mut scratch = JobScratch::default();
    let mut later = Digest::default();
    let mut artifacts: Vec<String> = Vec::new();
    let mut convergence_s = Vec::with_capacity(jobs.len());
    let mut base_s = 0.0;
    for (rep_index, rep_jobs) in jobs.chunks(CELLS.len()).enumerate() {
        let first = rep_index * CELLS.len();
        let into = if (rep_index as u64) < DIGEST_SEEDS {
            &mut out.digest
        } else {
            &mut later
        };
        let (rep, ops) = timed_rep(|| {
            let mut op_ms = Vec::with_capacity(rep_jobs.len());
            let mut ops = Vec::with_capacity(rep_jobs.len());
            for job in rep_jobs {
                let t = Instant::now();
                ops.push(library_op(job, &mut scratch, into));
                op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            let events = budgets[first..first + rep_jobs.len()]
                .iter()
                .map(|b| b.bringup + b.trigger)
                .sum();
            (events, op_ms, ops)
        });
        base_s += rep.wall_s;
        for (k, (job, op)) in rep_jobs.iter().zip(ops).enumerate() {
            out.op(op.verdict.is_ok(), || {
                let why = op.verdict.unwrap_err();
                format!("job {} (cluster {}): {why}", job.id, job.cluster)
            });
            if op.record != records[first + k] {
                out.problem(format!(
                    "job {}: the traced record differs from the untraced one",
                    job.id
                ));
            }
            convergence_s.push(op.convergence_s);
            artifacts.push(if cfg.trace {
                op.artifact
            } else {
                String::new()
            });
        }
        if !cfg.trace {
            out.reps.push(rep);
        }
    }
    if !cfg.trace {
        return out;
    }

    // Traced pass: every job staged, profiled and stepped, its artifact
    // read back span by span.
    let bytes: usize = artifacts.iter().map(String::len).sum();
    out.layers.set("obs.artifact_bytes", bytes as f64);
    out.layers.set(
        "collector.convergence_sim_s_p50",
        median(&mut convergence_s),
    );
    let mut steps = StepProfile::default();
    let mut scrap = Digest::default();
    let mut prefixes_checked = 0usize;
    let harvest_at = jobs.iter().position(|j| j.cluster == 8).unwrap_or(0);
    for (i, job) in jobs.iter().enumerate() {
        let op = spans.enter_op();
        let staged = run_staged(
            job,
            Telemetry::Profiled,
            true,
            Some((budgets[i], &mut steps)),
            spans,
        );
        let text = staged.outcome.artifact.as_deref().unwrap_or_default();
        let snapshot = spans.time("verify.snapshot_capture", || staged.exp.capture_snapshot());
        std::hint::black_box(&snapshot);
        let back = read_back(job, text, &mut scrap, spans);
        prefixes_checked += back.prefixes_checked;
        out.op(back.ok, || format!("traced job {}: {}", job.id, back.why));
        let h = spans.enter("harness.checks");
        if staged.record_line(job) != records[i] {
            out.problem(format!(
                "stepped job {}: record differs from the untraced one",
                job.id
            ));
        }
        if canonicalize_jsonl(&artifacts[i]) != canonicalize_jsonl(text) {
            out.problem(format!(
                "stepped job {}: artifact differs from the library's beyond wall-clock fields",
                job.id
            ));
        }
        add_exact_counts(&staged.exp, &mut out.layers);
        spans.exit(h);
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

    let kb = bytes as f64 / 1e3;
    out.layers.set(
        "obs.artifact.render_mb_per_s",
        ratio(kb, spans.total_ms("obs.artifact.render")),
    );
    out.layers.set(
        "obs.artifact.parse_mb_per_s",
        ratio(kb, spans.total_ms("obs.artifact.parse")),
    );
    out.layers.set(
        "verify.ns_per_prefix",
        ratio(
            spans.total_ms("verify.verify") * 1e6,
            prefixes_checked as f64,
        ),
    );
    // The price of tracing: these jobs traced and read back, over the same
    // jobs untraced.
    out.layers
        .set("obs.trace_overhead_ratio", ratio(base_s, untraced_s));
    out.layers.set("aux.measured_wall_s", base_s);
    // One job at a time: no campaign pool.
    out.layers.not_applicable(&[
        "core.campaign.job_overhead_ms",
        "core.campaign.parallel_speedup",
    ]);
    finish_ratios(&mut out.layers);
    out
}
