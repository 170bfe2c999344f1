//! The `bgpsdn` command line: its usage text, the one flag reader, and
//! [`Command::parse`], which turns a command line into one typed
//! [`Command`] after every check that comes before work. Parsing reads no
//! file and simulates nothing; `src/bin/bgpsdn.rs` runs what it returns.
//!
//! A subcommand takes each flag off the command line as it reads it. A
//! flag left over once it is done is a usage error that names it, and so
//! are a flag given twice, a switch given a value, and an argument that is
//! no flag; only then does the first bad value count.

use std::fmt;
use std::str::FromStr;

use bgpsdn_analyze::ActionContext;
use bgpsdn_obs::ToJson;

use crate::prelude::*;

/// What `bgpsdn` alone prints.
pub const USAGE: &str = "usage:
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
      needs --fail-at (default 20) < --heal-at (default 50) < 80";

/// Probes `bgpsdn ping` sends, one per 100 ms tick.
pub const PING_PROBES: u64 = 80;

/// One `bgpsdn` command line, checked and ready to run.
#[derive(Debug)]
pub enum Command {
    /// One clique experiment on `n` ASes, `sdn` of them centralized.
    Run {
        spec: JobSpec,
        n: usize,
        sdn: usize,
        trace_out: Option<String>,
    },
    /// A campaign; no `workers` means one per core.
    Sweep {
        grid: CampaignGrid,
        workers: Option<usize>,
        out: String,
        artifacts: Option<String>,
    },
    /// Static analysis of `grid`, or without one of the built-in suite.
    Check {
        grid: Option<CampaignGrid>,
        json: bool,
    },
    Report {
        path: String,
    },
    Explain {
        path: String,
        json: bool,
        top: usize,
    },
    Verify {
        snapshot: String,
    },
    /// A probe stream across the `n`-AS clique `spec` builds.
    Ping {
        spec: JobSpec,
        n: usize,
        fail_at: u64,
        heal_at: u64,
    },
}

/// Why a command line did not run: its `Display` is what `bgpsdn` prints
/// on stderr.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand, an unknown one, or a missing path: the usage text.
    Usage,
    /// A flag or argument the subcommand does not take, named.
    Misuse(String),
    /// A value the command cannot run with, or a run that failed.
    Failed(String),
}

impl CliError {
    /// 2 for a usage error, 1 for the rest.
    pub fn exit_code(&self) -> u8 {
        if let CliError::Failed(_) = self {
            1
        } else {
            2
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage => f.write_str(USAGE),
            CliError::Misuse(e) => write!(f, "error: {e} (run `bgpsdn` alone for usage)"),
            CliError::Failed(e) => write!(f, "error: {e}"),
        }
    }
}

impl Command {
    /// Parse `argv`, the arguments after the program name.
    ///
    /// # Errors
    ///
    /// A usage error, or a value the command cannot run with.
    pub fn parse(argv: &[String]) -> Result<Command, CliError> {
        let Some((cmd, rest)) = argv.split_first() else {
            return Err(CliError::Usage);
        };
        // `report FILE` and `explain FILE [flags]` take their path first.
        let path_first = || match rest.split_first() {
            Some((path, flags)) if !path.starts_with("--") => {
                Ok((path.clone(), Flags::new(cmd, flags)))
            }
            _ => Err(CliError::Usage),
        };
        match cmd.as_str() {
            "run" => run(Flags::new(cmd, rest)),
            "sweep" => sweep(Flags::new(cmd, rest)),
            "check" => check(Flags::new(cmd, rest)),
            "report" => {
                let (path, f) = path_first()?;
                f.finish(Command::Report { path })
            }
            "explain" => {
                let (path, mut f) = path_first()?;
                let top = f.get("top").unwrap_or(3);
                let json = f.switch("json");
                f.finish(Command::Explain { path, json, top })
            }
            "verify" => {
                let mut f = Flags::new(cmd, rest);
                if !f.has("snapshot") {
                    f.fail("--snapshot FILE is required");
                }
                let snapshot = f.take("snapshot").unwrap_or_default().to_string();
                f.finish(Command::Verify { snapshot })
            }
            "ping" => ping(Flags::new(cmd, rest)),
            _ => Err(CliError::Usage),
        }
    }
}

fn run(mut f: Flags) -> Result<Command, CliError> {
    if !f.has("event") {
        f.fail("--event is required: withdrawal|announcement|failover");
    }
    let event = f.named("event");
    // The paper's clique size.
    let n = f.get("n").unwrap_or(CampaignGrid::fig2(0).n);
    let sdn = f.get("sdn").unwrap_or(0);
    if sdn > n {
        f.fail("--sdn must be <= --n");
    }
    let base = JobSpec::clique(n, sdn);
    let mrai = f
        .get("mrai")
        .map_or(base.timing.mrai, SimDuration::from_secs);
    let spec = JobSpec {
        timing: TimingConfig::with_mrai(mrai),
        recompute_delay: f
            .get("recompute-ms")
            .map_or(base.recompute_delay, SimDuration::from_millis),
        event: event.unwrap_or(base.event),
        seed: f.get("seed").unwrap_or(base.seed),
        ..base
    };
    f.preflight("job rejected by pre-flight — nothing was run", || {
        spec.preflight()
    });
    let trace_out = f.take("trace-out").map(str::to_string);
    f.finish(Command::Run {
        spec,
        n,
        sdn,
        trace_out,
    })
}

fn sweep(mut f: Flags) -> Result<Command, CliError> {
    let grid = grid(&mut f);
    if grid.cluster_sizes.is_empty() {
        f.fail("sweep needs --fig2 or --sizes K1,K2,...");
    }
    let what = format!(
        "campaign grid `{}` rejected by pre-flight — no job was run",
        grid.name
    );
    f.preflight(&what, || grid.preflight());
    let workers = f.get("workers");
    let out = f
        .take("out")
        .map_or_else(|| format!("{}_campaign.jsonl", grid.name), str::to_string);
    let artifacts = f.take("artifacts").map(str::to_string);
    f.finish(Command::Sweep {
        grid,
        workers,
        out,
        artifacts,
    })
}

fn check(mut f: Flags) -> Result<Command, CliError> {
    let json = f.switch("json");
    // Any other flag asks for a grid: `check --n 6` alone must not run the
    // built-in suite and drop the flag. Unlike `sweep`, sizes and seeds are
    // not pre-validated — surfacing those as analyzer findings is the point.
    let grid = (!f.unread.is_empty()).then(|| grid(&mut f));
    f.finish(Command::Check { grid, json })
}

fn ping(mut f: Flags) -> Result<Command, CliError> {
    let (sdn, n): (usize, usize) = (f.get("sdn").unwrap_or(3), f.get("n").unwrap_or(6));
    let (fail_at, heal_at) = (
        f.get("fail-at").unwrap_or(20),
        f.get("heal-at").unwrap_or(50),
    );
    // The probe runs from AS 1 to the member AS n-1: they must differ.
    if n < 3 {
        f.fail(format!(
            "--n {n} is too small for the ping demo: it needs at least 3"
        ));
    }
    if sdn == 0 || sdn >= n {
        f.fail("--sdn must be in 1..n-1 for the ping demo");
    }
    // A tick outside the stream never fires: the timeline would hide it.
    let ticks = [("fail-at", fail_at), ("heal-at", heal_at)];
    if let Some((flag, tick)) = ticks.into_iter().find(|&(_, t)| t >= PING_PROBES) {
        f.fail(format!(
            "--{flag} {tick} is past the {PING_PROBES}-tick stream"
        ));
    }
    if fail_at >= heal_at {
        f.fail("--fail-at must come before --heal-at");
    }
    let spec = JobSpec {
        timing: TimingConfig::with_mrai(SimDuration::from_secs(5)),
        seed: f.get("seed").unwrap_or(7),
        ..JobSpec::clique(n, sdn)
    };
    f.finish(Command::Ping {
        spec,
        n,
        fail_at,
        heal_at,
    })
}

/// What `--fig2` fixes: next to it, each is a usage error, not a flag the
/// preset would silently drop (`sweep --fig2 --n 6` must not run the
/// 16-AS grid).
const FIG2_FIXES: &[&str] = &[
    "n",
    "mrai",
    "event",
    "sizes",
    "loss",
    "ctl-latency-ms",
    "recompute-ms",
];

/// The campaign grid the grid flags describe, nothing validated: the
/// `--fig2` preset, or the explicit `--sizes K1,K2,...` grid spelled by
/// exactly the flags the preset fixes, refined by the flags both accept.
fn grid(f: &mut Flags) -> CampaignGrid {
    let fig2 = CampaignGrid::fig2(f.get("seeds").unwrap_or(10));
    let mut grid = if f.switch("fig2") {
        for flag in FIG2_FIXES {
            if f.take(flag).is_some() {
                f.misuse(format!(
                    "--fig2 fixes --{flag}; spell the grid with --sizes K1,K2,... instead"
                ));
            }
        }
        fig2
    } else {
        CampaignGrid {
            name: "sweep".to_string(),
            n: f.get("n").unwrap_or(fig2.n),
            event: f.named("event").unwrap_or(fig2.event),
            cluster_sizes: f.list("sizes").unwrap_or_default(),
            loss: f.list("loss").unwrap_or_else(|| fig2.loss.clone()),
            ctl_latency: f.list("ctl-latency-ms").map_or_else(
                || fig2.ctl_latency.clone(),
                |ms| ms.into_iter().map(SimDuration::from_millis).collect(),
            ),
            mrai: f.get("mrai").map_or(fig2.mrai, SimDuration::from_secs),
            recompute_delay: f
                .get("recompute-ms")
                .map_or(fig2.recompute_delay, SimDuration::from_millis),
            ..fig2
        }
    };
    grid.clusters = f.list("clusters").unwrap_or(grid.clusters);
    grid.strategy = f.named("strategy").unwrap_or(grid.strategy);
    grid.base_seed = f.get("base-seed").unwrap_or(grid.base_seed);
    // `--chaos OUTAGES [--chaos-horizon SECS] [--chaos-classes C]`.
    let (horizon, classes) = ("chaos-horizon", "chaos-classes");
    grid.faults = match f.get("chaos").unwrap_or(0) {
        // Read all the same: with no outages, there is nothing to shape.
        0 => {
            f.take(horizon);
            f.take(classes);
            None
        }
        outages => Some(FaultSpec {
            outages,
            horizon: SimDuration::from_secs(f.get(horizon).unwrap_or(60)),
            classes: f.named(classes).unwrap_or(FaultClasses::ALL),
        }),
    };
    grid.verify = f.switch("verify");
    grid
}

/// The flags of one command line, each taken off as a subcommand reads it.
/// A read that finds a bad value notes the first and goes on, so that
/// [`Flags::finish`] can name a flag no read took ahead of it.
struct Flags<'a> {
    cmd: &'a str,
    /// Not yet read: the name after `--`, and the value after it, if any.
    unread: Vec<(&'a str, Option<&'a str>)>,
    misuse: Option<String>,
    failed: Option<String>,
}

impl<'a> Flags<'a> {
    fn new(cmd: &'a str, args: &'a [String]) -> Flags<'a> {
        let mut f = Flags {
            cmd,
            unread: Vec::new(),
            misuse: None,
            failed: None,
        };
        let mut args = args.iter().map(String::as_str).peekable();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                f.misuse(format!("`bgpsdn {cmd}` takes no argument {arg:?}"));
                continue;
            };
            let value = args.next_if(|v| !v.starts_with("--"));
            if f.has(name) {
                f.misuse(format!("--{name} is given twice"));
            } else {
                f.unread.push((name, value));
            }
        }
        f
    }

    fn has(&self, name: &str) -> bool {
        self.unread.iter().any(|&(n, _)| n == name)
    }

    fn misuse(&mut self, e: String) {
        self.misuse.get_or_insert(e);
    }

    fn fail(&mut self, e: impl Into<String>) {
        self.failed.get_or_insert_with(|| e.into());
    }

    fn raw(&mut self, name: &str) -> Option<Option<&'a str>> {
        let at = self.unread.iter().position(|&(n, _)| n == name)?;
        Some(self.unread.remove(at).1)
    }

    /// Take `--name` off the command line; a bare one reads `true`.
    fn take(&mut self, name: &str) -> Option<&'a str> {
        self.raw(name).map(|v| v.unwrap_or("true"))
    }

    /// Take the switch `--name`: whether it is given.
    fn switch(&mut self, name: &str) -> bool {
        let raw = self.raw(name);
        if let Some(Some(v)) = raw {
            self.misuse(format!(
                "--{name} is a switch and takes no value, got {v:?}"
            ));
        }
        raw.is_some()
    }

    /// `--name` parsed by `parse`; a bad value reads as absent, and is noted.
    fn read<T>(&mut self, name: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
        let parsed = parse(self.take(name)?);
        parsed.map_err(|e| self.fail(e)).ok()
    }

    fn get<T: FromStr>(&mut self, name: &str) -> Option<T> {
        self.read(name, |v| {
            v.parse()
                .map_err(|_| format!("bad value for --{name}: {v:?}"))
        })
    }

    /// A value whose type names its own values: its error follows the flag.
    fn named<T: FromStr<Err = String>>(&mut self, name: &str) -> Option<T> {
        self.read(name, |v| v.parse().map_err(|e| format!("--{name} {e}")))
    }

    /// A comma-separated list.
    fn list<T: FromStr>(&mut self, name: &str) -> Option<Vec<T>> {
        self.read(name, |raw| {
            let item = |s: &str| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("bad element in --{name}: {s:?}"))
            };
            raw.split(',').filter(|s| !s.is_empty()).map(item).collect()
        })
    }

    /// Note the pre-flight's findings under `what` if it rejects; it runs
    /// only while every value read so far is good.
    fn preflight(&mut self, what: &str, preflight: impl FnOnce() -> AnalysisReport) {
        if self.failed.is_none() {
            let report = preflight();
            if !report.ok() {
                self.fail(format!("{what}:\n{}", report.render()));
            }
        }
    }

    /// End the parse: a flag no read took (`run --sed 9` must not run seed
    /// 1), then the first misuse, then the first bad value.
    fn finish(self, command: Command) -> Result<Command, CliError> {
        let unread = self.unread.first();
        let unread =
            unread.map(|(name, _)| format!("`bgpsdn {}` does not read --{name}", self.cmd));
        if let Some(e) = unread.or(self.misuse) {
            return Err(CliError::Misuse(e));
        }
        self.failed
            .map_or(Ok(command), |e| Err(CliError::Failed(e)))
    }
}

/// One named unit of `bgpsdn check` output: an analyzer report plus
/// optional extra facts (the cluster placement it analyzed, the predicted
/// hunt-depth bound).
pub struct CheckTarget {
    pub name: String,
    pub report: AnalysisReport,
    pub clusters: Option<Vec<Vec<usize>>>,
    pub hunt_bound: Option<u64>,
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

    pub fn to_json(&self) -> Json {
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

/// What `bgpsdn check` analyzes: `grid` and the clique deployments it
/// describes, or without one the built-in suite.
///
/// # Errors
///
/// The built-in demo script's topology failing to plan.
pub fn check_targets(grid: Option<&CampaignGrid>) -> Result<Vec<CheckTarget>, String> {
    let Some(grid) = grid else {
        return builtin_targets();
    };
    let mut targets = vec![CheckTarget::new(
        format!("grid:{}", grid.name),
        grid.preflight(),
    )];
    let (single, split) = clique_targets(grid);
    targets.extend(single);
    targets.extend(split);
    Ok(targets)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, CliError> {
        let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Command::parse(&argv)
    }

    /// Each subcommand's section of the usage text, with every `--flag`
    /// the section names.
    fn usage_flags() -> Vec<(&'static str, Vec<&'static str>)> {
        let mut sections: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in USAGE.lines() {
            if let Some(rest) = line.strip_prefix("  bgpsdn ") {
                let cmd = rest.split_whitespace().next().unwrap();
                sections.push((cmd, Vec::new()));
            }
            let Some((_, flags)) = sections.last_mut() else {
                continue;
            };
            for (at, _) in line.match_indices("--") {
                let name = &line[at + 2..];
                let end = name
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .unwrap_or(name.len());
                flags.push(&name[..end]);
            }
        }
        sections
    }

    #[test]
    fn every_flag_the_usage_text_names_is_read() {
        let sections = usage_flags();
        let cmds: Vec<&str> = sections.iter().map(|(cmd, _)| *cmd).collect();
        assert_eq!(
            cmds,
            ["run", "sweep", "check", "report", "explain", "verify", "ping"]
        );
        for (cmd, flags) in sections {
            assert_eq!(flags.is_empty(), cmd == "report", "{cmd}: {flags:?}");
            for flag in flags {
                let mut args = vec![cmd];
                if matches!(cmd, "report" | "explain") {
                    args.push("FILE");
                }
                let flag = format!("--{flag}");
                args.extend([flag.as_str(), "1"]);
                if let Err(CliError::Misuse(e)) = parse(&args) {
                    assert!(!e.contains("does not read"), "{args:?}: {e}");
                }
            }
        }
    }

    #[test]
    fn reads_are_typed_and_defaults_come_from_the_library() {
        let Ok(Command::Run { spec, n, sdn, .. }) = parse(&["run", "--event", "failover"]) else {
            panic!("a fail-over on the paper's clique runs");
        };
        let paper = CampaignGrid::fig2(10);
        assert_eq!((n, sdn), (paper.n, 0));
        assert_eq!(spec.timing.mrai, paper.mrai);
        assert_eq!(spec.recompute_delay, paper.recompute_delay);
        assert_eq!((spec.event, spec.seed), (EventKind::Failover, 1));

        let Ok(Command::Check { grid: None, json }) = parse(&["check", "--json"]) else {
            panic!("`check --json` is the built-in suite");
        };
        assert!(json);
        let Ok(Command::Sweep {
            grid,
            workers,
            out,
            artifacts,
        }) = parse(&["sweep", "--sizes", "0,2", "--n", "6", "--chaos", "2"])
        else {
            panic!("a small sweep parses");
        };
        assert_eq!((grid.n, grid.cluster_sizes), (6, vec![0, 2]));
        assert_eq!(grid.faults.map(|f| f.outages), Some(2));
        assert_eq!((workers, artifacts), (None, None));
        assert_eq!(out, "sweep_campaign.jsonl");
    }

    #[test]
    fn the_first_bad_value_in_read_order_is_reported() {
        for (args, needle) in [
            (&["run", "--n", "x"][..], "--event is required"),
            (
                &[
                    "run",
                    "--sdn",
                    "9",
                    "--n",
                    "8",
                    "--mrai",
                    "x",
                    "--event",
                    "withdrawal",
                ][..],
                "--sdn must be <= --n",
            ),
            (
                &["sweep", "--sizes", "9", "--n", "6", "--workers", "x"][..],
                "grid.cluster_size",
            ),
            (&["sweep", "--workers", "x"][..], "sweep needs --fig2"),
            (
                &["ping", "--seed", "x", "--fail-at", "90"][..],
                "--fail-at 90 is past",
            ),
            (
                &["check", "--sizes", "2", "--chaos-horizon", "x"][..],
                "no outages",
            ),
        ] {
            match parse(args) {
                Err(CliError::Failed(e)) => assert!(e.contains(needle), "{args:?}: {e}"),
                Ok(_) => assert_eq!(needle, "no outages", "{args:?}"),
                Err(e) => panic!("{args:?}: {e}"),
            }
        }
    }

    #[test]
    fn an_unread_flag_comes_first_then_the_first_misuse() {
        for (args, needle) in [
            (
                &["report", "a.jsonl", "b.jsonl"][..],
                "no argument \"b.jsonl\"",
            ),
            (
                &["run", "--event", "withdrawal", "stray", "--sed", "9"][..],
                "does not read --sed",
            ),
            (
                &["sweep", "--fig2", "--n", "6", "--bogus", "7"][..],
                "does not read --bogus",
            ),
            (
                &["sweep", "--fig2", "--recompute-ms", "5", "--mrai", "3"][..],
                "--fig2 fixes --mrai",
            ),
            (&["check", "--json", "--json"][..], "--json is given twice"),
        ] {
            let err = parse(args).expect_err("a usage error");
            assert_eq!(err.exit_code(), 2, "{args:?}");
            assert!(err.to_string().contains(needle), "{args:?}: {err}");
        }
        for args in [
            &[][..],
            &["bogus"][..],
            &["report"][..],
            &["explain", "--json", "f"][..],
        ] {
            assert_eq!(parse(args).expect_err("usage"), CliError::Usage, "{args:?}");
        }
    }
}
