//! The campaign engine: declarative parameter grids executed as a pool of
//! independent emulation jobs.
//!
//! The paper's headline result (Figure 2) is a *parameter sweep* — many
//! independent runs over SDN cluster sizes and seeds. A [`CampaignGrid`]
//! declares such a sweep (cluster size × control-channel loss × latency ×
//! fault plan × N seeds); [`CampaignGrid::expand`] turns it into a
//! deterministic job list with stable per-job RNG seeds, and
//! [`run_campaign`] executes the jobs on a `std::thread::scope` worker
//! pool. Each job owns its entire simulation (build → bring-up → event →
//! convergence → audit), so jobs share no mutable state; a panicking job
//! is isolated by `catch_unwind` and reported as a failed [`JobResult`]
//! while every other job completes.
//!
//! Job seeds depend only on the job's own parameters — never on its
//! position in the grid — so growing a sweep (more cluster sizes, more
//! seeds) reproduces the old runs bit-for-bit and merely adds new ones.
//! For the same reason a campaign executed with one worker produces
//! byte-identical per-job artifacts to the same campaign on eight
//! workers: parallelism only reorders wall-clock completion.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use bgpsdn_bgp::TimingConfig;
use bgpsdn_netsim::{LatencyModel, SimDuration, TraceCategory};
use bgpsdn_obs::{Artifact, CausalAnalysis, JobRecord, Json, PhaseBreakdown};

use super::deploy::{DeploymentStrategy, Placement};
use super::experiment::Experiment;
use super::faults::FaultSpec;
use super::job::{paper_deployment, EventKind, JobSpec, ScenarioOutcome, Topology};
use super::script::{Script, ScriptAction};

/// A declarative parameter grid: the cartesian product of the swept axes,
/// times `seeds` repetitions per cell.
#[derive(Debug, Clone)]
pub struct CampaignGrid {
    /// Campaign name (lands in the merged artifact header).
    pub name: String,
    /// Clique size.
    pub n: usize,
    /// The routing event every job injects.
    pub event: EventKind,
    /// Swept axis: SDN cluster sizes.
    pub cluster_sizes: Vec<usize>,
    /// Swept axis: how many independent clusters each cell's members are
    /// split into (`[1]` = the paper's single-cluster deployment).
    pub clusters: Vec<usize>,
    /// Which ASes the clusters cover ([`Placement::Tail`] is the paper's
    /// high-index layout).
    pub strategy: Placement,
    /// Swept axis: control-channel loss probabilities.
    pub loss: Vec<f64>,
    /// Swept axis: control-channel latency.
    pub ctl_latency: Vec<SimDuration>,
    /// eBGP MRAI.
    pub mrai: SimDuration,
    /// Controller delayed-recomputation window.
    pub recompute_delay: SimDuration,
    /// Seeded repetitions per grid cell.
    pub seeds: u64,
    /// Base seed every job seed is derived from.
    pub base_seed: u64,
    /// Optional per-job chaos schedule.
    pub faults: Option<FaultSpec>,
    /// Run the static verifier at every job's checkpoints, making the
    /// campaign a parallel invariant-hunting harness.
    pub verify: bool,
}

impl CampaignGrid {
    /// The paper's Figure 2 campaign: a 16-AS clique withdrawal swept over
    /// every cluster size 0..=16 with `seeds` repetitions per point.
    pub fn fig2(seeds: u64) -> CampaignGrid {
        CampaignGrid {
            name: "fig2".to_string(),
            n: 16,
            event: EventKind::Withdrawal,
            cluster_sizes: (0..=16).collect(),
            clusters: vec![1],
            strategy: Placement::Tail,
            loss: vec![0.0],
            ctl_latency: vec![SimDuration::from_millis(1)],
            mrai: SimDuration::from_secs(30),
            recompute_delay: SimDuration::from_millis(100),
            seeds,
            base_seed: 1000,
            faults: None,
            verify: false,
        }
    }

    /// Number of grid cells (parameter combinations).
    pub fn cell_count(&self) -> usize {
        self.cluster_sizes.len()
            * self.clusters.len().max(1)
            * self.loss.len().max(1)
            * self.ctl_latency.len().max(1)
    }

    /// Number of jobs the grid expands into.
    pub fn job_count(&self) -> usize {
        self.cell_count() * self.seeds as usize
    }

    /// Expand into the deterministic job list: cells ordered by (cluster
    /// size, loss, latency), seeds `0..seeds` within each cell, ids
    /// sequential in that order.
    pub fn expand(&self) -> Vec<CampaignJob> {
        let losses = if self.loss.is_empty() {
            vec![0.0]
        } else {
            self.loss.clone()
        };
        let latencies = if self.ctl_latency.is_empty() {
            vec![SimDuration::from_millis(1)]
        } else {
            self.ctl_latency.clone()
        };
        let cluster_counts = if self.clusters.is_empty() {
            vec![1]
        } else {
            self.clusters.clone()
        };
        let mut jobs = Vec::with_capacity(self.job_count());
        let mut cell = 0usize;
        for &cluster in &self.cluster_sizes {
            for &clusters in &cluster_counts {
                for &loss in &losses {
                    for &lat in &latencies {
                        for seed_index in 0..self.seeds {
                            let seed = fold_deployment_seed(
                                job_seed(
                                    self.base_seed,
                                    cluster as u64,
                                    loss_ppm(loss),
                                    lat.as_nanos(),
                                    seed_index,
                                ),
                                clusters as u64,
                                self.strategy,
                            );
                            jobs.push(CampaignJob {
                                id: jobs.len(),
                                cell,
                                cluster,
                                clusters,
                                strategy: self.strategy,
                                loss,
                                ctl_latency: lat,
                                seed_index,
                                seed,
                                n: self.n,
                                event: self.event,
                                mrai: self.mrai,
                                recompute_delay: self.recompute_delay,
                                faults: self.faults,
                                verify: self.verify,
                            });
                        }
                        cell += 1;
                    }
                }
            }
        }
        jobs
    }

    /// True when every job of the grid runs the paper's deployment — one
    /// cluster on the highest AS indices. This decides formats only: such
    /// jobs' seeds are not folded with the deployment axes and their
    /// artifact headers omit the `clusters` and `strategy` keys, so Fig. 2
    /// sweeps stay comparable with artifacts that predate the deployment
    /// axes. Which code runs never depends on it.
    pub fn default_deployment(&self) -> bool {
        self.clusters
            .iter()
            .all(|&k| paper_deployment(k, self.strategy))
    }

    /// The merged-artifact header for this grid.
    pub fn header(&self, workers: usize, wall: std::time::Duration) -> Json {
        let mut kv = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("scenario".into(), Json::Str("clique".into())),
            ("event".into(), Json::Str(self.event.name().into())),
            ("n".into(), Json::U64(self.n as u64)),
            ("cells".into(), Json::U64(self.cell_count() as u64)),
            ("seeds".into(), Json::U64(self.seeds)),
            ("jobs".into(), Json::U64(self.job_count() as u64)),
            ("base_seed".into(), Json::U64(self.base_seed)),
            ("mrai_ns".into(), Json::U64(self.mrai.as_nanos())),
            (
                "recompute_delay_ns".into(),
                Json::U64(self.recompute_delay.as_nanos()),
            ),
            ("verify".into(), Json::Bool(self.verify)),
            ("workers".into(), Json::U64(workers as u64)),
            ("wall_ms".into(), Json::U64(wall.as_millis() as u64)),
        ];
        if !self.default_deployment() {
            let counts = self.clusters.iter().map(|&k| Json::U64(k as u64)).collect();
            kv.insert(5, ("clusters".into(), Json::Arr(counts)));
            kv.insert(
                6,
                ("strategy".into(), Json::Str(self.strategy.name().into())),
            );
        }
        Json::Obj(kv)
    }
}

/// Control-channel loss as exact parts-per-million (the artifact's cell
/// key must be hashable and byte-stable; floats are neither).
pub fn loss_ppm(loss: f64) -> u64 {
    (loss * 1e6).round() as u64
}

/// Derive a job's RNG seed from its own parameters only (SplitMix64 over
/// the parameter tuple). Stable under grid growth: the seed never depends
/// on the job's index in the expansion.
pub fn job_seed(base: u64, cluster: u64, loss_ppm: u64, latency_ns: u64, seed_index: u64) -> u64 {
    let mut h = base ^ 0x9e37_79b9_7f4a_7c15;
    for v in [cluster, loss_ppm, latency_ns, seed_index] {
        h = splitmix64(h ^ v.wrapping_mul(0xff51_afd7_ed55_8ccd));
    }
    // Seed 0 is reserved-looking in several RNGs; nudge away from it.
    h | 1
}

/// Fold the deployment axes into a job seed. Identity for the paper's
/// deployment, so Fig. 2 sweeps reproduce bit-for-bit; any other
/// `(cluster count, strategy)` pair derives a distinct seed that — like
/// [`job_seed`] — depends only on the job's own parameters, never on its
/// grid position.
fn fold_deployment_seed(seed: u64, clusters: u64, placement: Placement) -> u64 {
    if paper_deployment(clusters as usize, placement) {
        return seed;
    }
    let mut h = seed;
    for v in [clusters, placement.seed_id()] {
        h = splitmix64(h ^ v.wrapping_mul(0xff51_afd7_ed55_8ccd));
    }
    h | 1
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One expanded grid cell × seed repetition: everything a worker needs to
/// run the job without touching the grid again.
#[derive(Debug, Clone)]
pub struct CampaignJob {
    /// Job index in expansion order.
    pub id: usize,
    /// Grid-cell index the job belongs to.
    pub cell: usize,
    /// SDN cluster size.
    pub cluster: usize,
    /// How many independent clusters the members are split into (1 = the
    /// paper's single-cluster deployment).
    pub clusters: usize,
    /// Which ASes the clusters cover.
    pub strategy: Placement,
    /// Control-channel loss probability.
    pub loss: f64,
    /// Control-channel latency.
    pub ctl_latency: SimDuration,
    /// Repetition index within the cell.
    pub seed_index: u64,
    /// The derived RNG seed driving the whole run.
    pub seed: u64,
    /// Clique size.
    pub n: usize,
    /// The routing event to inject.
    pub event: EventKind,
    /// eBGP MRAI.
    pub mrai: SimDuration,
    /// Controller delayed-recomputation window.
    pub recompute_delay: SimDuration,
    /// Chaos spec, if the campaign injects faults.
    pub faults: Option<FaultSpec>,
    /// Whether to run verifier checkpoints.
    pub verify: bool,
}

impl CampaignJob {
    /// The job this grid point runs.
    ///
    /// Every cell gets a chaos schedule: fault classes the cell cannot run
    /// are dropped for that job and named in the spec's note. Schedules
    /// holding router or link faults switch the cell's hold timers on
    /// (9 s), since silent data-plane outages are only detectable through
    /// hold expiry.
    ///
    /// # Panics
    ///
    /// When the grid injects faults and the clique cannot hold the job's
    /// deployment or event.
    pub fn spec(&self) -> JobSpec {
        let mut spec = JobSpec {
            deployment: DeploymentStrategy::Placed {
                placement: self.strategy,
                clusters: self.clusters.max(1),
                total: self.cluster,
            },
            timing: TimingConfig::with_mrai(self.mrai),
            recompute_delay: self.recompute_delay,
            control_loss: self.loss,
            ctl_latency: LatencyModel::Fixed(self.ctl_latency),
            event: self.event,
            verify: self.verify,
            seed: self.seed,
            ..JobSpec::new(Topology::Clique { n: self.n })
        };
        if let Some(f) = self.faults {
            // Target what the job will build: its event graph under its
            // resolved deployment.
            let graph = spec.graph();
            let members = spec.clusters(&graph).concat();
            let legacy: Vec<usize> = (0..graph.len()).filter(|i| !members.contains(i)).collect();
            let links: Vec<(usize, usize)> = graph
                .edges
                .iter()
                .map(|e| (e.a, e.b))
                .filter(|(a, b)| legacy.contains(a) && legacy.contains(b))
                .collect();
            let (schedule, note) = f.schedule(self.seed, !members.is_empty(), &legacy, &links);
            spec.note = note;
            if schedule.steps.iter().any(ScriptAction::needs_hold_timers) {
                spec.timing.hold_time_secs = 9;
            }
            spec.script = (!schedule.steps.is_empty()).then_some(schedule);
        }
        spec
    }

    /// The clique parameters of [`CampaignJob::spec`], as the frozen
    /// benchmark harness rebuilds a Fig. 2 job from them.
    pub fn scenario(&self) -> CliqueScenario {
        CliqueScenario {
            n: self.n,
            sdn_count: self.cluster,
            mrai: self.mrai,
            recompute_delay: self.recompute_delay,
            seed: self.seed,
            control_loss: self.loss,
        }
    }

    /// The remaining knobs of [`CampaignJob::spec`], as the frozen
    /// benchmark harness rebuilds a Fig. 2 job from them.
    pub fn run_options(&self) -> CliqueRunOptions {
        let spec = self.spec();
        CliqueRunOptions {
            fault_plan: spec.script,
            verification: spec.verify,
            ctl_latency: Some(spec.ctl_latency),
            hold_secs: spec.timing.hold_time_secs,
            graceful_restart_secs: spec.timing.graceful_restart_secs,
            fault_note: spec.note,
            clusters: self.clusters,
            strategy: self.strategy,
        }
    }
}

/// A clique job's parameters: a view of [`CampaignJob::spec`] that no
/// runner consumes. It stays only because the frozen benchmark harness
/// rebuilds a Fig. 2 job from it; ROADMAP item 2 deletes it.
#[derive(Debug, Clone)]
pub struct CliqueScenario {
    /// Clique size.
    pub n: usize,
    /// How many ASes are cluster members.
    pub sdn_count: usize,
    /// eBGP MRAI.
    pub mrai: SimDuration,
    /// Controller delayed-recomputation window.
    pub recompute_delay: SimDuration,
    /// Experiment seed.
    pub seed: u64,
    /// Speaker↔controller channel loss probability.
    pub control_loss: f64,
}

impl CliqueScenario {
    /// The member AS indices of the one tail cluster `sdn_count` implies.
    ///
    /// # Panics
    ///
    /// When `sdn_count` exceeds the clique size.
    pub fn members(&self) -> Vec<usize> {
        assert!(
            self.sdn_count <= self.n,
            "sdn_count {} exceeds the clique size {}",
            self.sdn_count,
            self.n
        );
        (self.n - self.sdn_count..self.n).collect()
    }
}

/// A clique job's remaining knobs: a view of [`CampaignJob::spec`] that no
/// runner consumes. It stays only because the frozen benchmark harness
/// rebuilds a Fig. 2 job from it; ROADMAP item 2 deletes it.
#[derive(Debug, Clone)]
pub struct CliqueRunOptions {
    /// The spec's script.
    pub fault_plan: Option<Script>,
    /// The spec's `verify`.
    pub verification: bool,
    /// The spec's control-channel latency.
    pub ctl_latency: Option<LatencyModel>,
    /// The spec's BGP hold time in seconds.
    pub hold_secs: u16,
    /// The spec's graceful-restart window in seconds.
    pub graceful_restart_secs: u16,
    /// The spec's note.
    pub fault_note: Option<String>,
    /// The job's cluster count.
    pub clusters: usize,
    /// The job's placement.
    pub strategy: Placement,
}

impl CliqueRunOptions {
    /// True when the options describe the paper's deployment (see
    /// [`CampaignGrid::default_deployment`]).
    pub fn default_deployment(&self) -> bool {
        paper_deployment(self.clusters, self.strategy)
    }
}

/// What one completed job produced.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The scenario-level outcome (convergence, audit, message counts).
    pub outcome: ScenarioOutcome,
    /// Static-verifier violations recorded across all phases.
    pub verify_violations: u64,
    /// Causal phase decomposition of the re-convergence (each event-phase
    /// trigger's longest critical path, summed). Derived from sim time
    /// only, so identical across reruns and worker counts.
    pub phases: PhaseBreakdown,
    /// The job's isolated JSONL artifact, when tracing was requested.
    pub artifact: Option<String>,
}

/// One job's slot in the campaign result: the job, what happened, and how
/// long it took on the wall clock.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job as expanded from the grid.
    pub job: CampaignJob,
    /// `Ok` when the run completed, `Err(panic message)` when it died.
    pub outcome: Result<JobOutcome, String>,
    /// Wall-clock time the job took (diagnostic; not part of artifacts).
    pub wall_ns: u64,
}

impl JobResult {
    /// Flatten into the plain-data record the merged artifact stores.
    pub fn record(&self) -> JobRecord {
        let base = JobRecord {
            id: self.job.id as u64,
            cell: self.job.cell as u64,
            cluster: self.job.cluster as u64,
            clusters: self.job.clusters as u64,
            strategy: self.job.strategy.name().to_string(),
            loss_ppm: loss_ppm(self.job.loss),
            ctl_latency_ns: self.job.ctl_latency.as_nanos(),
            seed: self.job.seed,
            converged: false,
            convergence_ns: 0,
            updates: 0,
            flow_mods: 0,
            audit_ok: false,
            verify_violations: 0,
            phases: PhaseBreakdown::default(),
            error: None,
        };
        match &self.outcome {
            Ok(o) => JobRecord {
                converged: o.outcome.converged,
                convergence_ns: o.outcome.convergence.as_nanos(),
                updates: o.outcome.updates,
                flow_mods: o.outcome.flow_mods,
                audit_ok: o.outcome.audit_ok,
                verify_violations: o.verify_violations,
                phases: o.phases,
                ..base
            },
            Err(msg) => JobRecord {
                error: Some(msg.clone()),
                ..base
            },
        }
    }
}

/// A finished campaign: every job's result in job order, plus pool-level
/// accounting.
#[derive(Debug)]
pub struct CampaignRunReport {
    /// Results indexed by job id.
    pub results: Vec<JobResult>,
    /// Wall-clock time of the whole pool.
    pub wall: std::time::Duration,
    /// Worker threads used.
    pub workers: usize,
}

impl CampaignRunReport {
    /// Flatten into the records the merged artifact stores.
    pub fn records(&self) -> Vec<JobRecord> {
        self.results.iter().map(JobResult::record).collect()
    }

    /// Render the merged campaign artifact for a grid.
    pub fn render_artifact(&self, grid: &CampaignGrid) -> String {
        Artifact::render(&grid.header(self.workers, self.wall), &self.records())
    }

    /// Jobs that panicked or errored.
    pub fn failed(&self) -> usize {
        self.results.iter().filter(|r| r.outcome.is_err()).count()
    }
}

/// Per-worker state reused across the jobs a worker claims: the size of
/// the last artifact it rendered, which the next job's buffer is created
/// with — every job after a worker's first renders its JSONL without
/// re-growing a multi-megabyte string through the doubling schedule, and
/// the buffer itself goes to the caller instead of being copied.
#[derive(Default)]
pub struct JobScratch {
    artifact_len: usize,
}

/// Run one campaign job to completion: build the network, bring it up,
/// inject the event (and the job's fault schedule, if any), wait for
/// re-convergence, audit. With `trace` the full typed-event stream is
/// recorded (wall-clock profiling stays off so artifacts are
/// byte-deterministic) and rendered as the job's isolated JSONL artifact.
/// `scratch` is the worker's [`JobScratch`] (see [`run_campaign_scratch`]);
/// a one-off job passes `&mut JobScratch::default()`.
pub fn run_job_scratch(job: &CampaignJob, trace: bool, scratch: &mut JobScratch) -> JobOutcome {
    let spec = job.spec();
    let (outcome, mut exp) = spec.run(|sim| {
        if trace {
            sim.trace_mut().enable_all();
        } else {
            // Causal lineage is always recorded: the per-job phase
            // breakdown feeds the campaign cell tables even when full
            // artifact tracing is off.
            sim.trace_mut().enable(TraceCategory::Causal);
        }
    });
    // Health gates on the *final steady state*: checkpoints taken right
    // after a fault injection legitimately see transient loops/blackholes
    // while BGP is still path-hunting (they stay visible in the trace and
    // phase counters), so a verifying job re-verifies once after the run.
    let verify_violations = if job.verify {
        exp.verify_now().violations.len() as u64
    } else {
        0
    };
    exp.finish();
    // Phase decomposition only covers the event phase: the bring-up
    // floods every prefix and would swamp the re-convergence signal.
    let phase_start = exp.phase_start().as_nanos();
    let phases = CausalAnalysis::from_events(
        exp.net
            .sim
            .trace()
            .records()
            .filter(|r| r.time.as_nanos() >= phase_start)
            .map(|r| (r.time.as_nanos(), r.node.map(|n| n.0), &r.event)),
    )
    .phase_totals();
    let artifact = trace.then(|| {
        let mut text = String::with_capacity(scratch.artifact_len);
        spec.render_artifact_into(Some((job.id, job.cell)), &exp, &mut text);
        scratch.artifact_len = text.len();
        text
    });
    JobOutcome {
        outcome,
        verify_violations,
        phases,
        artifact,
    }
}

/// Render one job's isolated JSONL artifact into `text`:
/// [`JobSpec::render_artifact_into`] of the job's spec, with the job's id
/// and grid cell in the header. Only the benchmark harness calls it
/// ([`run_job_scratch`] renders through the spec); ROADMAP item 2 settles it.
pub fn render_job_artifact_into(job: &CampaignJob, exp: &Experiment, text: &mut String) {
    job.spec()
        .render_artifact_into(Some((job.id, job.cell)), exp, text);
}

/// Execute a grid on `workers` threads. See [`run_campaign_scratch`] for
/// the pool semantics.
pub fn run_campaign(grid: &CampaignGrid, workers: usize, trace: bool) -> CampaignRunReport {
    let preflight = grid.preflight();
    assert!(
        preflight.ok(),
        "campaign grid `{}` rejected by pre-flight — no cell was run:\n{}",
        grid.name,
        preflight.render()
    );
    run_campaign_scratch(
        grid.expand(),
        workers,
        |job, scratch| run_job_scratch(job, trace, scratch),
        |_| {},
    )
}

/// Execute an explicit job list on a `std::thread::scope` worker pool,
/// with per-worker reusable state.
///
/// Jobs are claimed from a shared atomic cursor in expansion order, so a
/// single worker degrades to exact serial execution. Each `runner` call is
/// wrapped in `catch_unwind`: a panicking job yields an `Err` result with
/// the panic message and the pool keeps draining the remaining jobs.
/// `on_done` fires on the worker thread as each job finishes (progress
/// reporting, streaming artifacts to disk); it must therefore be `Sync`.
///
/// Every worker owns one [`JobScratch`] and threads it through its jobs —
/// its buffers warm up on the first job and are reused for the rest (a
/// panicking job may leave the scratch dirty; `runner` must not assume a
/// clean one). Results accumulate in worker-private vectors and are
/// scattered back into job order after the pool drains, so workers share
/// nothing but the claim cursor — no per-job lock, and no false sharing
/// on a hot array of result slots.
pub fn run_campaign_scratch(
    jobs: Vec<CampaignJob>,
    workers: usize,
    runner: impl Fn(&CampaignJob, &mut JobScratch) -> JobOutcome + Sync,
    on_done: impl Fn(&JobResult) + Sync,
) -> CampaignRunReport {
    let workers = workers.clamp(1, jobs.len().max(1));
    let started = std::time::Instant::now();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<JobResult>> = Vec::new();
    slots.resize_with(jobs.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = JobScratch::default();
                    let mut local: Vec<(usize, JobResult)> =
                        Vec::with_capacity(jobs.len() / workers + 1);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        let job = &jobs[i];
                        let job_started = std::time::Instant::now();
                        let outcome = catch_unwind(AssertUnwindSafe(|| runner(job, &mut scratch)))
                            .map_err(|payload| panic_message(payload.as_ref()));
                        let result = JobResult {
                            job: job.clone(),
                            outcome,
                            wall_ns: u64::try_from(job_started.elapsed().as_nanos())
                                .unwrap_or(u64::MAX),
                        };
                        on_done(&result);
                        local.push((i, result));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            let local = h
                .join()
                .expect("worker thread panicked outside catch_unwind");
            for (i, result) in local {
                slots[i] = Some(result);
            }
        }
    });
    let results = slots
        .into_iter()
        .map(|s| s.expect("pool drained every job"))
        .collect();
    CampaignRunReport {
        results,
        wall: started.elapsed(),
        workers,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::faults::FaultClasses;
    use bgpsdn_topology::plan;

    fn tiny_grid() -> CampaignGrid {
        CampaignGrid {
            name: "test".into(),
            n: 6,
            event: EventKind::Withdrawal,
            cluster_sizes: vec![0, 3, 6],
            clusters: vec![1],
            strategy: Placement::Tail,
            loss: vec![0.0, 0.05],
            ctl_latency: vec![SimDuration::from_millis(1)],
            mrai: SimDuration::from_secs(2),
            recompute_delay: SimDuration::from_millis(100),
            seeds: 2,
            base_seed: 77,
            faults: None,
            verify: false,
        }
    }

    #[test]
    fn expansion_counts_and_ordering() {
        let grid = tiny_grid();
        assert_eq!(grid.cell_count(), 6);
        assert_eq!(grid.job_count(), 12);
        let jobs = grid.expand();
        assert_eq!(jobs.len(), 12);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i, "ids are sequential in expansion order");
        }
        // Cells ordered by (cluster, loss); seeds contiguous within a cell.
        assert_eq!(jobs[0].cluster, 0);
        assert_eq!(jobs[0].loss, 0.0);
        assert_eq!(jobs[1].seed_index, 1);
        assert_eq!(jobs[1].cell, jobs[0].cell);
        assert_eq!(jobs[2].loss, 0.05);
        assert_eq!(jobs[2].cell, jobs[0].cell + 1);
        assert_eq!(jobs[11].cluster, 6);
        // All job seeds distinct.
        let mut seeds: Vec<u64> = jobs.iter().map(|j| j.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 12, "derived seeds collide");
    }

    #[test]
    fn job_seeds_are_stable_under_grid_growth() {
        let small = tiny_grid();
        let mut grown = tiny_grid();
        grown.cluster_sizes = vec![0, 1, 2, 3, 6];
        grown.seeds = 4;
        let by_key = |jobs: Vec<CampaignJob>| {
            jobs.into_iter()
                .map(|j| ((j.cluster, loss_ppm(j.loss), j.seed_index), j.seed))
                .collect::<std::collections::BTreeMap<_, _>>()
        };
        let small_seeds = by_key(small.expand());
        let grown_seeds = by_key(grown.expand());
        for (key, seed) in &small_seeds {
            assert_eq!(
                grown_seeds.get(key),
                Some(seed),
                "seed for {key:?} changed when the grid grew"
            );
        }
    }

    #[test]
    fn default_deployment_leaves_seeds_untouched() {
        // The single-cluster tail deployment is the identity fold: seeds
        // (and thus artifacts) of pre-multi-cluster sweeps are unchanged.
        for seed in [1u64, 77, 0xdead_beef] {
            assert_eq!(fold_deployment_seed(seed, 1, Placement::Tail), seed);
            assert_eq!(fold_deployment_seed(seed, 0, Placement::Tail), seed);
            assert_ne!(fold_deployment_seed(seed, 2, Placement::Tail), seed);
            assert_ne!(fold_deployment_seed(seed, 1, Placement::Degree), seed);
        }
        // Distinct deployments derive distinct seeds.
        let a = fold_deployment_seed(77, 2, Placement::Degree);
        let b = fold_deployment_seed(77, 4, Placement::Degree);
        let c = fold_deployment_seed(77, 2, Placement::Random);
        assert!(a != b && a != c && b != c);
        // The fold ids are part of every non-paper seed.
        let ids = [
            Placement::Tail,
            Placement::Random,
            Placement::Degree,
            Placement::KCore,
            Placement::Tier,
        ]
        .map(Placement::seed_id);
        assert_eq!(ids, [2, 3, 4, 5, 6]);
    }

    #[test]
    fn cluster_count_axis_multiplies_cells_in_order() {
        let mut grid = tiny_grid();
        grid.clusters = vec![1, 2];
        grid.strategy = Placement::Degree;
        assert_eq!(grid.cell_count(), 12);
        assert_eq!(grid.job_count(), 24);
        let jobs = grid.expand();
        // Axis order: cluster size, then cluster count, then loss.
        assert_eq!(
            (jobs[0].cluster, jobs[0].clusters, jobs[0].loss),
            (0, 1, 0.0)
        );
        assert_eq!(
            (jobs[4].cluster, jobs[4].clusters, jobs[4].loss),
            (0, 2, 0.0)
        );
        assert_eq!((jobs[8].cluster, jobs[8].clusters), (3, 1));
        assert!(jobs.iter().all(|j| j.strategy == Placement::Degree));
        // Same (size, loss, lat, seed_index) but different cluster count
        // or strategy → different derived seed.
        assert_ne!(jobs[0].seed, jobs[4].seed);
        let tail = tiny_grid().expand();
        assert_ne!(
            tail[0].seed, jobs[0].seed,
            "strategy must fold into the seed"
        );
        // Header carries the deployment axes only when non-default.
        assert!(!grid.default_deployment());
        let header = grid.header(1, std::time::Duration::ZERO).to_compact();
        assert!(header.contains("\"clusters\"") && header.contains("\"strategy\""));
        let default_header = tiny_grid()
            .header(1, std::time::Duration::ZERO)
            .to_compact();
        assert!(!default_header.contains("\"strategy\""));
    }

    #[test]
    fn fig2_grid_covers_every_cluster_size() {
        let grid = CampaignGrid::fig2(10);
        assert_eq!(grid.cluster_sizes, (0..=16).collect::<Vec<_>>());
        assert_eq!(grid.job_count(), 170);
        assert_eq!(grid.n, 16);
    }

    #[test]
    fn every_cell_gets_a_chaos_plan_and_notes_inapplicable_classes() {
        let mut grid = tiny_grid();
        grid.faults = Some(FaultSpec {
            outages: 2,
            horizon: SimDuration::from_secs(30),
            classes: FaultClasses::ALL,
        });
        for job in grid.expand() {
            let spec = job.spec();
            let plan = spec
                .script
                .expect("every cell, including cluster 0, runs under chaos");
            assert!(!plan.steps.is_empty(), "job {} plan is empty", job.id);
            let needs_hold = plan.steps.iter().any(ScriptAction::needs_hold_timers);
            if job.cluster == 0 {
                // Pure-BGP cell: control faults stripped (and recorded),
                // data-plane chaos remains, hold timers switched on.
                let note = spec.note.as_deref().expect("dropped class must be noted");
                assert!(note.contains("control"), "note was: {note}");
                assert!(needs_hold);
                assert_eq!(spec.timing.hold_time_secs, 9);
            }
            if job.cluster == grid.n {
                // Full-SDN cell: no legacy ASes, so data-plane classes are
                // stripped and the plan is control-only.
                let note = spec.note.as_deref().expect("dropped classes must be noted");
                assert!(note.contains("router") && note.contains("link"));
                assert!(!needs_hold);
                assert_eq!(spec.timing.hold_time_secs, 0);
            }
        }
    }

    #[test]
    fn chaos_targets_only_links_and_legacy_ases_that_exist() {
        use bgpsdn_analyze::{check_actions, ActionContext};
        use bgpsdn_bgp::{PolicyMode, TimingConfig};
        let grids = [
            (EventKind::Withdrawal, Placement::Tail, vec![0, 4, 8]),
            (EventKind::Withdrawal, Placement::Random, vec![4, 8]),
            (EventKind::Withdrawal, Placement::Degree, vec![4, 8]),
            (EventKind::Failover, Placement::Tail, vec![0, 3]),
        ];
        for (event, strategy, cluster_sizes) in grids {
            let mut grid = tiny_grid();
            (grid.n, grid.event, grid.strategy) = (10, event, strategy);
            grid.cluster_sizes = cluster_sizes;
            grid.loss = vec![0.0];
            grid.seeds = 6;
            grid.faults = Some(FaultSpec {
                outages: 4,
                horizon: SimDuration::from_secs(60),
                classes: FaultClasses::ALL,
            });
            for job in grid.expand() {
                let spec = job.spec();
                let graph = spec.graph();
                let members = spec.clusters(&graph).concat();
                let schedule = spec.script.expect("a schedule");
                let tp = plan(graph, PolicyMode::AllPermit, TimingConfig::default()).unwrap();
                let report =
                    check_actions(&schedule.steps, &ActionContext::from_plan(&tp, &members));
                assert!(
                    report.ok(),
                    "{strategy:?} job {}:\n{}",
                    job.id,
                    report.render()
                );
                for step in &schedule.steps {
                    let ases = match *step {
                        ScriptAction::CrashRouter(r) | ScriptAction::RestoreRouter(r) => vec![r],
                        ScriptAction::FailEdge(a, b)
                        | ScriptAction::RestoreEdge(a, b)
                        | ScriptAction::DropEdgeTraffic(a, b)
                        | ScriptAction::RestoreEdgeTraffic(a, b) => vec![a, b],
                        _ => vec![],
                    };
                    assert!(
                        ases.iter().all(|a| *a != 0 && !members.contains(a)),
                        "{strategy:?} job {}: `{step}` touches the origin or a member",
                        job.id
                    );
                }
            }
        }
    }

    #[test]
    fn pool_isolates_panicking_jobs() {
        let jobs = tiny_grid().expand();
        let total = jobs.len();
        let report = run_campaign_scratch(
            jobs,
            3,
            |job, _| {
                if job.id == 4 {
                    panic!("injected failure in job 4");
                }
                // A stub outcome: the pool is what is under test here.
                JobOutcome {
                    outcome: ScenarioOutcome {
                        converged: true,
                        convergence: SimDuration::from_secs(1),
                        collector_convergence: None,
                        updates: 1,
                        flow_mods: 0,
                        audit_ok: true,
                    },
                    verify_violations: 0,
                    phases: PhaseBreakdown::default(),
                    artifact: None,
                }
            },
            |_| {},
        );
        assert_eq!(report.results.len(), total);
        assert_eq!(report.failed(), 1);
        let failed = &report.results[4];
        assert!(failed
            .outcome
            .as_ref()
            .is_err_and(|m| m.contains("injected failure")));
        for r in report.results.iter().filter(|r| r.job.id != 4) {
            assert!(r.outcome.is_ok(), "job {} should have survived", r.job.id);
        }
        let record = failed.record();
        assert_eq!(record.error.as_deref(), Some("injected failure in job 4"));
    }

    #[test]
    fn single_worker_pool_preserves_job_order() {
        let jobs = tiny_grid().expand();
        let order = std::sync::Mutex::new(Vec::new());
        run_campaign_scratch(
            jobs,
            1,
            |job, _| {
                order.lock().unwrap().push(job.id);
                JobOutcome {
                    outcome: ScenarioOutcome {
                        converged: true,
                        convergence: SimDuration::ZERO,
                        collector_convergence: None,
                        updates: 0,
                        flow_mods: 0,
                        audit_ok: true,
                    },
                    verify_violations: 0,
                    phases: PhaseBreakdown::default(),
                    artifact: None,
                }
            },
            |_| {},
        );
        let order = order.into_inner().unwrap();
        assert_eq!(order, (0..12).collect::<Vec<_>>());
    }
}
