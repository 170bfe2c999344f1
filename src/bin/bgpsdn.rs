//! `bgpsdn` — command-line front end for the hybrid BGP-SDN framework.
//!
//! [`Command::parse`] checks the command line (`bgpsdn` alone prints the
//! usage text); this file runs the command it returns and prints the
//! outcome.

use std::fs::File;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

use bgp_sdn_emu::cli::{check_targets, CheckTarget, CliError, Command, PING_PROBES};
use bgp_sdn_emu::core::pool_workers;
use bgp_sdn_emu::prelude::*;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Command::parse(&argv).and_then(|command| {
        match command {
            Command::Run {
                spec,
                n,
                sdn,
                trace_out,
            } => cmd_run(&spec, n, sdn, trace_out.as_deref()),
            Command::Sweep {
                grid,
                workers,
                out,
                artifacts,
            } => cmd_sweep(&grid, workers, &out, artifacts.as_deref()),
            Command::Check { grid, json } => cmd_check(grid.as_ref(), json),
            Command::Report { path } => cmd_report(&path),
            Command::Explain { path, json, top } => cmd_explain(&path, json, top),
            Command::Verify { snapshot } => cmd_verify(&snapshot),
            Command::Ping {
                spec,
                n,
                fail_at,
                heal_at,
            } => cmd_ping(&spec, n, fail_at, heal_at),
        }
        .map_err(CliError::Failed)
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn cmd_run(spec: &JobSpec, n: usize, sdn: usize, trace_out: Option<&str>) -> Result<(), String> {
    let mut trace_out = match trace_out {
        Some(path) => Some((path, create(path)?)),
        None => None,
    };
    println!(
        "running {:?} on a {n}-AS clique, {sdn} SDN members, MRAI {}, seed {}",
        spec.event, spec.timing.mrai, spec.seed
    );
    let (out, exp) = spec.run(|sim| {
        if trace_out.is_some() {
            sim.trace_mut().enable_all();
            sim.set_profiling(true);
        }
    });
    if let Some((path, file)) = &mut trace_out {
        let mut text = String::new();
        spec.render_artifact_into(None, &exp, &mut text);
        file.write_all(text.as_bytes())
            .map_err(|e| format!("writing {path}: {e}"))?;
        let trace = exp.net.sim.trace();
        println!(
            "trace artifact:   {path} ({} events, {} dropped, {} phases)",
            trace.len(),
            trace.dropped(),
            exp.phase_snapshots().len()
        );
    }
    println!("converged:        {}", out.converged);
    // In seconds to the millisecond, as `report` prints them.
    println!("convergence time: {:.3}s", out.convergence.as_secs_f64());
    if let Some(c) = out.collector_convergence {
        println!("collector view:   {:.3}s", c.as_secs_f64());
    }
    println!("updates sent:     {}", out.updates);
    println!("flow mods:        {}", out.flow_mods);
    println!(
        "post-event audit: {}",
        if out.audit_ok { "PASS" } else { "FAIL" }
    );
    if !out.audit_ok {
        return Err("audit failed".into());
    }
    Ok(())
}

/// Create an output file up front, so that a path that cannot be written
/// fails before anything is simulated.
fn create(path: &str) -> Result<File, String> {
    File::create(path).map_err(|e| format!("writing {path}: {e}"))
}

fn cmd_sweep(
    grid: &CampaignGrid,
    workers: Option<usize>,
    out_path: &str,
    artifacts_dir: Option<&str>,
) -> Result<(), String> {
    let workers =
        workers.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    let artifacts_dir = artifacts_dir.map(std::path::PathBuf::from);
    if let Some(dir) = &artifacts_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let mut out_file = create(out_path)?;

    let jobs = grid.expand();
    let workers = pool_workers(workers, jobs.len());
    println!(
        "campaign {}: {} cells x {} seeds = {} jobs on {workers} workers",
        grid.name,
        grid.cell_count(),
        grid.seeds,
        jobs.len(),
    );
    let total = jobs.len();
    let done = AtomicUsize::new(0);
    let trace = artifacts_dir.is_some();
    let report = run_campaign_scratch(
        jobs,
        workers,
        |job, scratch| {
            let mut outcome = run_job_scratch(job, trace, scratch);
            if let (Some(dir), Some(text)) = (&artifacts_dir, outcome.artifact.take()) {
                let name = format!(
                    "job-{:04}_k{}_s{}.jsonl",
                    job.id, job.cluster, job.seed_index
                );
                if let Err(e) = std::fs::write(dir.join(&name), text) {
                    eprintln!("warning: writing {name}: {e}");
                }
            }
            outcome
        },
        |r| {
            let i = done.fetch_add(1, Ordering::Relaxed) + 1;
            match &r.outcome {
                Ok(o) => println!(
                    "[{i:>4}/{total}] job {:>4} cell {:>3} (k={:<2} loss={:.2}% seed#{}) {} in {}",
                    r.job.id,
                    r.job.cell,
                    r.job.cluster,
                    r.job.loss * 100.0,
                    r.job.seed_index,
                    if o.outcome.converged && o.outcome.audit_ok {
                        "ok"
                    } else {
                        "FAIL"
                    },
                    o.outcome.convergence,
                ),
                Err(e) => println!(
                    "[{i:>4}/{total}] job {:>4} cell {:>3} PANIC: {e}",
                    r.job.id, r.job.cell
                ),
            }
        },
    );

    let merged = report.render_artifact(grid);
    out_file
        .write_all(merged.as_bytes())
        .map_err(|e| format!("writing {out_path}: {e}"))?;
    println!(
        "\ncampaign artifact: {out_path} ({} jobs, {} workers, {:.2}s wall)",
        report.results.len(),
        report.workers,
        report.wall.as_secs_f64()
    );
    let parsed = Artifact::parse(&merged)?;
    print!("{}", parsed.render_report());

    let unhealthy: u64 = parsed
        .cells
        .iter()
        .map(|c| c.failed + c.unconverged + c.audit_failures + c.verify_violations)
        .sum();
    if unhealthy > 0 {
        return Err(format!("{unhealthy} unhealthy runs (see table above)"));
    }
    Ok(())
}

/// Read and parse the artifact at `path` for `report`, `explain` and
/// `verify`, printing the reader's warnings.
fn read_artifact(path: &str) -> Result<Artifact, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let (artifact, warnings) =
        Artifact::parse_lenient(&text).map_err(|e| format!("{path}: {e}"))?;
    for w in &warnings {
        eprintln!("warning: {w}");
    }
    Ok(artifact)
}

/// [`read_artifact`] for `explain` and `verify`, which need one run's
/// `what`: a campaign artifact is an error that points at the job artifacts.
fn read_run_artifact(path: &str, what: &str) -> Result<Artifact, String> {
    let artifact = read_artifact(path)?;
    if artifact.kind == Some(ArtifactKind::Campaign) {
        return Err(format!(
            "{path} is a campaign artifact, which carries per-cell sums, not {what}; \
             use `bgpsdn report` for its tables, or one job's isolated artifact \
             (sweep --artifacts DIR)"
        ));
    }
    Ok(artifact)
}

fn cmd_report(path: &str) -> Result<(), String> {
    print!("{}", read_artifact(path)?.render_report());
    Ok(())
}

/// Static pre-flight analysis: validate grids, topologies, policies and
/// scripts without running a single simulated event. Exits nonzero when
/// any finding (error or warning) is reported.
fn cmd_check(grid: Option<&CampaignGrid>, json: bool) -> Result<(), String> {
    let targets = check_targets(grid)?;
    let errors: usize = targets.iter().map(|t| t.report.errors()).sum();
    let warnings: usize = targets.iter().map(|t| t.report.warnings()).sum();
    if json {
        let doc = Json::Obj(vec![
            ("type".to_string(), Json::Str("check".to_string())),
            (
                "targets".to_string(),
                Json::Arr(targets.iter().map(CheckTarget::to_json).collect()),
            ),
            ("errors".to_string(), Json::U64(errors as u64)),
            ("warnings".to_string(), Json::U64(warnings as u64)),
        ]);
        println!("{}", doc.to_compact());
    } else {
        for t in &targets {
            let status = if t.report.clean() {
                format!("ok ({} checks)", t.report.checks)
            } else {
                format!(
                    "{} error(s), {} warning(s)",
                    t.report.errors(),
                    t.report.warnings()
                )
            };
            let bound = t
                .hunt_bound
                .map_or(String::new(), |b| format!("  hunt bound {b}"));
            println!("check {:<24} {status}{bound}", t.name);
            if !t.report.clean() {
                for line in t.report.render().lines() {
                    println!("    {line}");
                }
            }
        }
        println!(
            "\nsummary: {} target(s), {errors} error(s), {warnings} warning(s)",
            targets.len()
        );
    }
    if errors + warnings > 0 {
        return Err(format!("{} finding(s)", errors + warnings));
    }
    Ok(())
}

/// Causal convergence forensics: reconstruct the trigger-lineage DAGs a
/// run artifact recorded and explain *where the time went* — per-trigger
/// phase breakdowns, critical paths to last-route-settled, path-hunting
/// chains, and ghost-route intervals.
fn cmd_explain(path: &str, json: bool, top: usize) -> Result<(), String> {
    let artifact = read_run_artifact(path, "full lineage")?;
    let analysis =
        CausalAnalysis::from_events(artifact.events.iter().map(|r| (r.t, r.node, &r.event)));
    if json {
        println!("{}", analysis.to_json(top).to_compact());
    } else {
        if let Some(run) = &artifact.header {
            println!("run: {}", run.to_compact());
        }
        print!("{}", analysis.render(top));
    }
    Ok(())
}

/// Offline verification of a run artifact: take the frozen
/// `{"type":"snapshot",...}` line that every run artifact writer emits and
/// run the full invariant suite over it.
fn cmd_verify(path: &str) -> Result<(), String> {
    let artifact = read_run_artifact(path, "a snapshot")?;
    let Some((line, raw)) = &artifact.snapshot else {
        return Err(format!(
            "{path} has no snapshot line ({{\"type\":\"snapshot\",...}}); `bgpsdn report {path}` \
             lists the verify_violation events the run recorded"
        ));
    };
    let snap = Json::parse(raw)
        .map_err(String::from)
        .and_then(|v| Snapshot::from_json(&v))
        .map_err(|e| format!("{path}: line {line}: {e}"))?;
    let mut verifier = Verifier::default();
    let report = verifier.verify(&snap);
    println!(
        "verify: {} prefixes, {} checks, {} violations, {} stale notes (control: {})",
        verifier.prefixes_checked(),
        report.checks,
        report.errors(),
        report.warnings(),
        snap.control.name(),
    );
    for f in &report.findings {
        println!("{f}");
    }
    if report.ok() {
        Ok(())
    } else {
        Err(format!("{} invariant violation(s)", report.errors()))
    }
}

fn cmd_ping(spec: &JobSpec, n: usize, fail_at: u64, heal_at: u64) -> Result<(), String> {
    let mut exp = Experiment::new(spec.builder().build());
    if !exp.start(SimDuration::from_secs(3600)).converged {
        return Err("bring-up did not converge".into());
    }
    let dst = exp.net.ases[n - 1].prefix.nth(9);
    let (src, member) = (1usize, n - 1);
    println!(
        "probing from AS{} to {dst} (inside member AS{})",
        65001,
        65000 + member
    );
    println!("link fails at tick {fail_at}, heals at tick {heal_at} (100 ms ticks)\n");
    let tick_len = SimDuration::from_millis(100);
    let report = exp.ping_stream(src, dst, tick_len, PING_PROBES, |exp, tick| {
        if tick == fail_at {
            exp.apply(&ScriptAction::FailEdge(1, member));
        }
        if tick == heal_at {
            exp.apply(&ScriptAction::RestoreEdge(1, member));
        }
    });
    let line: String = report
        .timeline
        .iter()
        .map(|&ok| if ok { '#' } else { '.' })
        .collect();
    println!("timeline: {line}");
    println!(
        "sent {} received {} loss {:.1}% longest outage {}",
        report.sent,
        report.received,
        report.loss_ratio * 100.0,
        report.longest_outage
    );
    Ok(())
}
