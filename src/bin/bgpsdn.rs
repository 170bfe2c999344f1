//! `bgpsdn` — command-line front end for the hybrid BGP-SDN framework.
//!
//! ```text
//! bgpsdn run    --event withdrawal|announcement|failover --sdn K
//!               [--n SIZE] [--mrai SECS] [--seed S] [--recompute-ms MS]
//!               [--trace-out FILE]
//! bgpsdn sweep  --fig2 | --sizes K1,K2,... [--seeds N] [--workers W]
//!               [--out FILE] [--artifacts DIR] [--loss L1,L2,...]
//!               [--chaos OUTAGES] [--verify] ...
//! bgpsdn check  [--fig2 | --sizes K1,K2,...] [--json]
//! bgpsdn report FILE
//! bgpsdn explain FILE [--json] [--top N]
//! bgpsdn verify --snapshot FILE
//! bgpsdn ping   --sdn K [--n SIZE] [--fail-at TICK] [--heal-at TICK] [--seed S]
//! ```
//!
//! Each subcommand reads a fixed set of flags ([`known_flags`]); anything
//! else on its command line is a usage error (exit 2) that names the flag.

use std::fs::File;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

use bgp_sdn_emu::analyze::ActionContext;
use bgp_sdn_emu::core::pool_workers;
use bgp_sdn_emu::obs::ToJson;
use bgp_sdn_emu::prelude::*;

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  bgpsdn run --event withdrawal|announcement|failover --sdn K
             [--n SIZE] [--mrai SECS] [--seed S] [--recompute-ms MS]
             [--trace-out FILE]
      one clique experiment, printing the outcome; with --trace-out,
      write the full typed-event JSONL artifact

  bgpsdn sweep --fig2 | --sizes K1,K2,... [options]
      run a parameter-sweep campaign on a worker pool and merge the runs
      into one campaign artifact with per-grid-cell statistics.
      --fig2              the paper's Figure 2 grid (16-AS clique
                          withdrawal, MRAI 30 s, cluster sizes 0..=16);
                          refined only by --seeds, --base-seed, --clusters,
                          --strategy, --chaos and --verify — spell any
                          other grid with --sizes
      --sizes K1,K2,...   explicit cluster-size axis
      --clusters C1,C2,...
                          cluster-count axis: split each cell's members
                          into that many independent SDN clusters, each
                          with its own controller and speaker (default 1)
      --strategy tail|random|degree|kcore|tier
                          deployment strategy placing the clusters
                          (default tail, the paper's high-index layout)
      --loss L1,L2,...    control-channel loss axis (default 0)
      --ctl-latency-ms L1,L2,...
                          control-channel latency axis (default 1)
      --seeds N           repetitions per grid cell (default 10)
      --workers W         worker threads (default: all cores)
      --n SIZE --mrai SECS --recompute-ms MS --base-seed S
                          shared scenario parameters
      --event withdrawal|announcement|failover (default withdrawal)
      --chaos OUTAGES [--chaos-horizon SECS] [--chaos-classes all|control|data]
                          seeded per-job outage schedules
      --verify            static-verifier checkpoints in every job
      --out FILE          merged campaign artifact (default
                          <name>_campaign.jsonl)
      --artifacts DIR     also write each job's isolated JSONL artifact

  bgpsdn check [--fig2 | --sizes K1,K2,...] [--json]
      static pre-flight analysis, no simulation: campaign-grid
      validation, per-cluster-size policy safety (provider cycles,
      cluster boundary conflicts), valley-free reachability, predicted
      path-hunting depth bounds, and experiment-script checking. With
      no grid flags, runs the built-in suite (Fig. 2 grid, fail-over
      grid, CAIDA-like hierarchy, demo script). --json emits one
      deterministic JSON document. Exits nonzero on any finding.
      Accepts the sweep grid flags (--n, --event, --seeds, --loss,
      --ctl-latency-ms, --clusters, --strategy, --chaos, ...); with a
      multi-cluster deployment, safety is checked with every cluster
      contracted to its own logical node

  bgpsdn report FILE
      analyze a JSONL trace artifact: per-node update counts, recompute
      latency histogram, convergence timeline; campaign artifacts render
      as per-grid-cell tables

  bgpsdn explain FILE [--json] [--top N]
      causal convergence forensics over a run artifact's trigger
      lineage: per-trigger timeline, phase breakdown (mrai_wait,
      hunt_step, ctrl_recompute, ...), top-N critical paths, path
      hunting and ghost-route intervals; --json emits the analysis
      as one JSON document

  bgpsdn verify --snapshot FILE
      run the static data-plane verifier (loop-freedom, blackholes,
      intent consistency, valley-free) over a JSONL artifact's frozen
      snapshot line; exits nonzero if any invariant is violated

  bgpsdn ping --sdn K [--n SIZE] [--fail-at TICK] [--heal-at TICK] [--seed S]
      data-plane probe stream across a link failure, 80 ticks of 100 ms;
      needs --fail-at (default 20) < --heal-at (default 50) < 80"
    );
    ExitCode::from(2)
}

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Option<Args> {
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(flag) = it.next() {
            let name = flag.strip_prefix("--")?;
            // A flag followed by another flag (or by nothing) is a bare
            // boolean switch: `--fig2`, `--verify`.
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().cloned()?,
                _ => "true".to_string(),
            };
            flags.push((name.to_string(), value));
        }
        Some(Args { flags })
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// Comma-separated list flag.
    fn get_list<T: std::str::FromStr>(
        &self,
        name: &str,
        default: Vec<T>,
    ) -> Result<Vec<T>, String> {
        match self.get_str(name) {
            None => Ok(default),
            Some(raw) => raw
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| format!("bad element in --{name}: {s:?}"))
                })
                .collect(),
        }
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.iter().find(|(n, _)| n == name) {
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("bad value for --{name}: {v:?}")),
            None => Ok(default),
        }
    }

    /// A flag whose type names its own values: its parse error follows
    /// the flag's name.
    fn get_named<T: std::str::FromStr<Err = String>>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        match self.get_str(name) {
            Some(v) => v.parse().map_err(|e| format!("--{name} {e}")),
            None => Ok(default),
        }
    }

    fn get_str(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// The flags `cmd` reads, or `None` for an unknown subcommand.
fn known_flags(cmd: &str) -> Option<Vec<&'static str>> {
    // What spells a campaign grid; `sweep` runs it, `check` analyzes it.
    const GRID: &[&str] = &[
        "fig2",
        "sizes",
        "clusters",
        "strategy",
        "loss",
        "ctl-latency-ms",
        "seeds",
        "n",
        "mrai",
        "recompute-ms",
        "base-seed",
        "event",
        "chaos",
        "chaos-horizon",
        "chaos-classes",
        "verify",
    ];
    let own: &[&str] = match cmd {
        "run" => &[
            "event",
            "sdn",
            "n",
            "mrai",
            "seed",
            "recompute-ms",
            "trace-out",
        ],
        "sweep" => &["workers", "out", "artifacts"],
        "check" => &["json"],
        "report" => &[],
        "explain" => &["json", "top"],
        "verify" => &["snapshot"],
        "ping" => &["sdn", "n", "fail-at", "heal-at", "seed"],
        _ => return None,
    };
    let grid = match cmd {
        "sweep" | "check" => GRID,
        _ => &[],
    };
    Some([own, grid].concat())
}

/// Reject what `cmd` would otherwise silently drop: a flag it does not read
/// (`run --sed 9` must not run seed 1), or a flag the `--fig2` preset fixes
/// (`sweep --fig2 --n 6` must not run the 16-AS grid).
fn check_flags(cmd: &str, known: &[&str], args: &Args) -> Result<(), String> {
    if let Some((flag, _)) = args
        .flags
        .iter()
        .find(|(f, _)| !known.contains(&f.as_str()))
    {
        return Err(format!("`bgpsdn {cmd}` does not read --{flag}"));
    }
    const FIG2_FIXES: &[&str] = &[
        "n",
        "mrai",
        "event",
        "sizes",
        "loss",
        "ctl-latency-ms",
        "recompute-ms",
    ];
    if args.has("fig2") {
        if let Some(flag) = FIG2_FIXES.iter().find(|f| args.has(f)) {
            return Err(format!(
                "--fig2 fixes --{flag}; spell the grid with --sizes K1,K2,... instead"
            ));
        }
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    if !args.has("event") {
        return Err("--event is required: withdrawal|announcement|failover".into());
    }
    let event = args.get_named("event", EventKind::Withdrawal)?;
    let (n, sdn): (usize, usize) = (args.get("n", 16)?, args.get("sdn", 0)?);
    if sdn > n {
        return Err("--sdn must be <= --n".into());
    }
    let spec = JobSpec {
        timing: TimingConfig::with_mrai(SimDuration::from_secs(args.get("mrai", 30u64)?)),
        recompute_delay: SimDuration::from_millis(args.get("recompute-ms", 100u64)?),
        event,
        seed: args.get("seed", 1u64)?,
        ..JobSpec::clique(n, sdn)
    };
    let preflight = spec.preflight();
    if !preflight.ok() {
        return Err(format!(
            "job rejected by pre-flight — nothing was run:\n{}",
            preflight.render()
        ));
    }
    let mut trace_out = match args.get_str("trace-out") {
        Some(path) => Some((path, create(path)?)),
        None => None,
    };
    println!(
        "running {event:?} on a {n}-AS clique, {sdn} SDN members, MRAI {}, seed {}",
        spec.timing.mrai, spec.seed
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

/// The `--chaos OUTAGES [--chaos-horizon SECS] [--chaos-classes C]` spec.
fn fault_spec(args: &Args) -> Result<Option<FaultSpec>, String> {
    let outages: usize = args.get("chaos", 0)?;
    if outages == 0 {
        return Ok(None);
    }
    Ok(Some(FaultSpec {
        outages,
        horizon: SimDuration::from_secs(args.get("chaos-horizon", 60u64)?),
        classes: args.get_named("chaos-classes", FaultClasses::ALL)?,
    }))
}

/// The campaign grid the grid flags describe, nothing validated: the
/// `--fig2` preset, or the explicit `--sizes K1,K2,...` grid spelled by
/// exactly the flags the preset fixes (`check_flags` rejects those next to
/// `--fig2`), refined by the flags both accept.
fn grid_from_args(args: &Args) -> Result<CampaignGrid, String> {
    let fig2 = CampaignGrid::fig2(args.get("seeds", 10)?);
    let mut grid = if args.has("fig2") {
        fig2
    } else {
        CampaignGrid {
            name: "sweep".to_string(),
            n: args.get("n", 16)?,
            event: args.get_named("event", EventKind::Withdrawal)?,
            cluster_sizes: args.get_list("sizes", vec![])?,
            loss: args.get_list("loss", vec![0.0])?,
            ctl_latency: args
                .get_list("ctl-latency-ms", vec![1u64])?
                .into_iter()
                .map(SimDuration::from_millis)
                .collect(),
            mrai: SimDuration::from_secs(args.get("mrai", 30u64)?),
            recompute_delay: SimDuration::from_millis(args.get("recompute-ms", 100u64)?),
            ..fig2
        }
    };
    grid.clusters = args.get_list("clusters", grid.clusters)?;
    grid.strategy = args.get_named("strategy", grid.strategy)?;
    grid.base_seed = args.get("base-seed", grid.base_seed)?;
    grid.faults = fault_spec(args)?;
    grid.verify = args.has("verify");
    Ok(grid)
}

/// Build the campaign grid a `sweep` invocation describes, rejecting what
/// `run_campaign`'s pre-flight would.
fn sweep_grid(args: &Args) -> Result<CampaignGrid, String> {
    let grid = grid_from_args(args)?;
    if grid.cluster_sizes.is_empty() {
        return Err("sweep needs --fig2 or --sizes K1,K2,...".into());
    }
    let preflight = grid.preflight();
    if !preflight.ok() {
        return Err(format!(
            "campaign grid `{}` rejected by pre-flight — no job was run:\n{}",
            grid.name,
            preflight.render()
        ));
    }
    Ok(grid)
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let grid = sweep_grid(args)?;
    let workers: usize = args.get(
        "workers",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    )?;
    let artifacts_dir = args.get_str("artifacts").map(std::path::PathBuf::from);
    if let Some(dir) = &artifacts_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let default_out = format!("{}_campaign.jsonl", grid.name);
    let out_path = args.get_str("out").unwrap_or(&default_out).to_string();
    let mut out_file = create(&out_path)?;

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

    let merged = report.render_artifact(&grid);
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

/// One named unit of `bgpsdn check` output: an analyzer report plus
/// optional extra facts (the cluster placement it analyzed, the predicted
/// hunt-depth bound).
struct CheckTarget {
    name: String,
    report: AnalysisReport,
    clusters: Option<Vec<Vec<usize>>>,
    hunt_bound: Option<u64>,
}

impl CheckTarget {
    fn new(name: impl Into<String>, report: AnalysisReport) -> CheckTarget {
        CheckTarget {
            name: name.into(),
            report,
            clusters: None,
            hunt_bound: None,
        }
    }

    fn to_json(&self) -> Json {
        let mut kv = vec![("name".to_string(), Json::Str(self.name.clone()))];
        if let Some(clusters) = &self.clusters {
            kv.push(("clusters".to_string(), clusters.to_json()));
        }
        if let Some(b) = self.hunt_bound {
            kv.push(("hunt_bound".to_string(), Json::U64(b)));
        }
        kv.push(("report".to_string(), self.report.to_json()));
        Json::Obj(kv)
    }
}

/// Static checks of the clique deployments a grid describes, without
/// simulating: policy safety with every cluster contracted to its own
/// logical node, plus the predicted path-hunting depth bound the measured
/// `hunt_step` phases must respect. Every placement is the one its jobs
/// deploy, resolved through each job's own spec. Returns two groups: every
/// cluster size as one cluster of the grid's strategy (`sdn{k}`) followed
/// by the origin's reachability, and every size split into each
/// `count > 1` of the grid's cluster-count axis
/// (`sdn{k}x{count}-{strategy}`); a cell checked in several placements
/// gets one target per placement (`#0`, `#1`, ...).
fn clique_targets(grid: &CampaignGrid) -> (Vec<CheckTarget>, Vec<CheckTarget>) {
    let n = grid.n;
    let g = AsGraph::all_peer(&gen::clique(n), 65000);
    // Every distinct (size, count, placement) of `jobs`, sizes ascending
    // and counts in axis order as the jobs expand.
    let cells = |jobs: Vec<CampaignJob>| {
        let mut cells = Vec::new();
        for job in jobs.into_iter().filter(|job| job.cluster <= n) {
            let cell = (job.cluster, job.clusters, job.spec().clusters(&g));
            if !cells.contains(&cell) {
                cells.push(cell);
            }
        }
        cells.sort_by_key(|&(k, _, _)| k);
        cells
    };
    let targets = |cells: Vec<(usize, usize, Vec<Vec<usize>>)>| -> Vec<CheckTarget> {
        cells
            .iter()
            .enumerate()
            .map(|(i, (k, count, clusters))| {
                let same = |c: &&(usize, usize, _)| (c.0, c.1) == (*k, *count);
                let mut name = format!("clique{n}:sdn{k}");
                if *count > 1 {
                    name.push_str(&format!("x{count}-{}", grid.strategy.name()));
                }
                if cells.iter().filter(same).count() > 1 {
                    name.push_str(&format!("#{}", cells[..i].iter().filter(same).count()));
                }
                let report = check_safety_clusters(&SafetyClustersInput {
                    graph: &g,
                    mode: PolicyMode::AllPermit,
                    clusters,
                    rules: &[],
                });
                let mut t = CheckTarget::new(name, report);
                t.hunt_bound = Some(hunt_depth_bound_clusters(&g, clusters, 0) as u64);
                t.clusters = Some(clusters.clone());
                t
            })
            .collect()
    };
    // Faults never move a placement, and leaving them out keeps `spec`
    // from building a fault schedule the grid may not support.
    let base = CampaignGrid {
        faults: None,
        ..grid.clone()
    };
    let one_cluster = CampaignGrid {
        clusters: vec![1],
        ..base.clone()
    };
    let mut single = targets(cells(one_cluster.expand()));
    single.push(CheckTarget::new(
        format!("clique{n}:reachability"),
        check_reachability(&g, PolicyMode::AllPermit, &[0]),
    ));
    let mut jobs = base.expand();
    jobs.retain(|job| job.clusters > 1 && job.clusters <= job.cluster);
    let split = targets(cells(jobs));
    (single, split)
}

/// The built-in pre-flight suite: the Fig. 2 grid, the clique scenarios it
/// expands to (with hunt-depth bounds), a fail-over grid, a CAIDA-like
/// Gao-Rexford hierarchy, and the demo experiment script.
fn builtin_targets() -> Result<Vec<CheckTarget>, String> {
    let mut targets = Vec::new();
    let fig2 = CampaignGrid::fig2(10);
    targets.push(CheckTarget::new("grid:fig2", fig2.preflight()));
    let fig2_ends = CampaignGrid {
        cluster_sizes: vec![0, fig2.n / 2, fig2.n],
        ..fig2
    };
    targets.extend(clique_targets(&fig2_ends).0);

    let mut failover = CampaignGrid::fig2(10);
    failover.name = "failover".to_string();
    failover.event = EventKind::Failover;
    targets.push(CheckTarget::new("grid:failover", failover.preflight()));

    // The Fig. 2 clique with its members split into 2 and 4 degree-placed
    // clusters.
    let mut multi = CampaignGrid::fig2(10);
    multi.name = "multicluster".to_string();
    multi.cluster_sizes = vec![8, 16];
    multi.clusters = vec![1, 2, 4];
    multi.strategy = Placement::Degree;
    targets.push(CheckTarget::new("grid:multicluster", multi.preflight()));
    targets.extend(clique_targets(&multi).1);

    // A CAIDA-like tiered hierarchy under Gao-Rexford: the provider DAG is
    // acyclic by construction and a tier-1 origin must be valley-free
    // reachable everywhere.
    let params = caida::SynthesisParams::default();
    let caida_graph = caida::synthesize(&params, &mut SimRng::seed_from_u64(1));
    let mut report = check_safety(&SafetyInput {
        graph: &caida_graph,
        mode: PolicyMode::GaoRexford,
        members: &[],
        rules: &[],
    });
    report.merge(check_reachability(
        &caida_graph,
        PolicyMode::GaoRexford,
        &[0],
    ));
    targets.push(CheckTarget::new("caida:synthetic", report));

    // The demo experiment script from the quickstart, against a 6-clique
    // with a 3-member cluster.
    let tp = plan(
        AsGraph::all_peer(&gen::clique(6), 65000),
        PolicyMode::AllPermit,
        TimingConfig::with_mrai(SimDuration::from_secs(5)),
    )
    .map_err(|e| e.to_string())?;
    let members = [3usize, 4, 5];
    let prefix = tp.addresses.as_prefixes[0];
    let ctx = ActionContext::from_plan(&tp, &members);
    let converge = ScriptAction::WaitConverged {
        max: SimDuration::from_secs(3600),
    };
    let script = Script {
        steps: vec![
            ScriptAction::ExpectFullConnectivity,
            ScriptAction::Mark,
            ScriptAction::Withdraw {
                as_index: 0,
                prefix: None,
            },
            converge,
            ScriptAction::ExpectGone { prefix },
            ScriptAction::Announce {
                as_index: 0,
                prefix: None,
            },
            converge,
            ScriptAction::ExpectReachable { prefix, origin: 0 },
        ],
    };
    targets.push(CheckTarget::new(
        "script:demo",
        check_actions(&script.steps, &ctx),
    ));
    Ok(targets)
}

/// Static pre-flight analysis: validate grids, topologies, policies and
/// scripts without running a single simulated event. Exits nonzero when
/// any finding (error or warning) is reported.
fn cmd_check(args: &Args) -> Result<(), String> {
    // Any grid flag asks for a grid: `check --n 6` alone must not run the
    // built-in suite and drop the flag.
    let grid_requested = args.flags.iter().any(|(f, _)| f != "json");
    let targets = if grid_requested {
        // Unlike `sweep`, sizes and seeds are not pre-validated here —
        // surfacing those as analyzer findings is the point.
        let grid = grid_from_args(args)?;
        let mut targets = vec![CheckTarget::new(
            format!("grid:{}", grid.name),
            grid.preflight(),
        )];
        let (single, split) = clique_targets(&grid);
        targets.extend(single);
        targets.extend(split);
        targets
    } else {
        builtin_targets()?
    };

    let errors: usize = targets.iter().map(|t| t.report.errors()).sum();
    let warnings: usize = targets.iter().map(|t| t.report.warnings()).sum();
    if args.has("json") {
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
fn cmd_explain(path: &str, args: &Args) -> Result<(), String> {
    let top: usize = args.get("top", 3)?;
    let artifact = read_run_artifact(path, "full lineage")?;
    let analysis =
        CausalAnalysis::from_events(artifact.events.iter().map(|r| (r.t, r.node, &r.event)));
    if args.has("json") {
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
fn cmd_verify(args: &Args) -> Result<(), String> {
    let Some(path) = args.get_str("snapshot") else {
        return Err("--snapshot FILE is required".into());
    };
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

/// Probes `bgpsdn ping` sends, one per 100 ms tick.
const PING_PROBES: u64 = 80;

fn cmd_ping(args: &Args) -> Result<(), String> {
    let sdn: usize = args.get("sdn", 3)?;
    let n: usize = args.get("n", 6)?;
    let fail_at: u64 = args.get("fail-at", 20)?;
    let heal_at: u64 = args.get("heal-at", 50)?;
    // The probe runs from AS 1 to the member AS n-1: they must differ.
    if n < 3 {
        return Err(format!(
            "--n {n} is too small for the ping demo: it needs at least 3"
        ));
    }
    if sdn == 0 || sdn >= n {
        return Err("--sdn must be in 1..n-1 for the ping demo".into());
    }
    // A tick outside the stream never fires: the timeline would hide it.
    let ticks = [("fail-at", fail_at), ("heal-at", heal_at)];
    if let Some((flag, tick)) = ticks.into_iter().find(|&(_, t)| t >= PING_PROBES) {
        return Err(format!(
            "--{flag} {tick} is past the {PING_PROBES}-tick stream"
        ));
    }
    if fail_at >= heal_at {
        return Err("--fail-at must come before --heal-at".into());
    }
    let spec = JobSpec {
        timing: TimingConfig::with_mrai(SimDuration::from_secs(5)),
        seed: args.get("seed", 7u64)?,
        ..JobSpec::clique(n, sdn)
    };
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

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    let Some(known) = known_flags(cmd) else {
        return usage();
    };
    // `report FILE` and `explain FILE [flags]` take the path positionally.
    let (path, flags) = match cmd.as_str() {
        "report" | "explain" => match rest.split_first() {
            Some((path, flags)) if !path.starts_with("--") => (path.as_str(), flags),
            _ => return usage(),
        },
        _ => ("", rest),
    };
    let Some(args) = Args::parse(flags) else {
        return usage();
    };
    if let Err(e) = check_flags(cmd, &known, &args) {
        eprintln!("error: {e} (run `bgpsdn` alone for usage)");
        return ExitCode::from(2);
    }
    let result = match cmd.as_str() {
        "run" => cmd_run(&args),
        "sweep" => cmd_sweep(&args),
        "check" => cmd_check(&args),
        "report" => cmd_report(path),
        "explain" => cmd_explain(path, &args),
        "verify" => cmd_verify(&args),
        "ping" => cmd_ping(&args),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
