//! The four workloads and what they share: sizes, the result shape, the
//! synthetic hierarchy, and exact counts read from a finished experiment.
//!
//! Every workload has the same two modes. With tracing **off** it runs its
//! measured phase several times and returns host-time repetitions — the
//! end-to-end numbers. With tracing **on** it runs the phase once untraced
//! (exact counts, the base of the tracing-overhead ratio, the per-phase
//! event counts the stepper needs), once traced with the harness driving
//! `Simulator::step()`, and replays each layer's kernel on state harvested
//! from the run — the per-layer numbers. End-to-end numbers never come
//! from a traced run.

pub mod clique;
pub mod fig2_sweep;
pub mod hybrid_churn;
pub mod internet_bringup;
pub mod trace_forensics;

use std::collections::BTreeMap;
use std::time::Instant;

use bgpsdn_bgp::{PolicyMode, TimingConfig};
use bgpsdn_collector::ConvergenceReport;
use bgpsdn_core::{Collector, Controller, Experiment, NetworkBuilder, Router, Switch};
use bgpsdn_netsim::{MetricsSnapshot, SimDuration, SimRng};
use bgpsdn_obs::MetricValue;
use bgpsdn_topology::{caida, plan, TopologyPlan};

use crate::host;
use crate::spans::SpanLog;
use crate::stats::Digest;
use crate::stepper::{node_kinds, stepped_start, NodeKind, StepProfile};

/// The workloads, by the names `BENCHMARK.json` gives them.
pub const NAMES: [&str; 4] = [
    "fig2_sweep",
    "internet_bringup",
    "hybrid_churn",
    "trace_forensics",
];

/// Run one workload by name.
pub fn run(name: &str, cfg: &Config, spans: &mut SpanLog) -> Result<Outcome, String> {
    match name {
        "fig2_sweep" => Ok(fig2_sweep::run(cfg, spans)),
        "internet_bringup" => Ok(internet_bringup::run(cfg, spans)),
        "hybrid_churn" => Ok(hybrid_churn::run(cfg, spans)),
        "trace_forensics" => Ok(trace_forensics::run(cfg, spans)),
        other => Err(format!("workload `{other}` is defined but not implemented")),
    }
}

/// Simulated-time deadline of any single convergence phase.
pub const PHASE_DEADLINE: SimDuration = SimDuration::from_secs(3600);

/// `--seconds` at which the repetition counts equal the workload
/// definitions (3 sweeps, 3 bring-ups, 160 churn rounds, 30 forensic seeds):
/// each measured phase then lasts 10 to 16 s on the 2-core reference host.
pub const NOMINAL_SECONDS: u64 = 15;

/// Work sizes. Network sizes are fixed by the workload definitions; only
/// repetition counts scale with `--seconds`, so a longer run measures more
/// of the same work rather than different work.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Tier-1 / mid-tier / stub AS counts of the synthetic hierarchy.
    pub tier1: usize,
    /// See `tier1`.
    pub mid: usize,
    /// See `tier1`.
    pub stubs: usize,
    /// Tier-1 ASes `0..central` are centralised in `hybrid_churn`.
    pub central: usize,
    /// Seeds per Fig. 2 cell in `fig2_sweep`.
    pub sweep_seeds: u64,
    /// Timed sweeps in `fig2_sweep`.
    pub sweeps: usize,
    /// Timed bring-ups in `internet_bringup`.
    pub bringups: usize,
    /// Timed blocks of `CHURN_BLOCK` rounds in `hybrid_churn` (round 0,
    /// the warm-up, comes on top).
    pub churn_blocks: usize,
    /// Rounds per timed block in `hybrid_churn`.
    pub churn_block: usize,
    /// Seeds per cell in `trace_forensics`; one seed across the five cells
    /// is one repetition.
    pub forensic_seeds: u64,
    /// Upper bound on the items one kernel replay touches.
    pub kernel_items: usize,
}

impl Sizes {
    /// The sizes of the workload definitions, with repetitions scaled to a
    /// run of `seconds`.
    pub fn full(seconds: u64) -> Sizes {
        let reps = |at_nominal: u64| {
            let scaled = (at_nominal * seconds + NOMINAL_SECONDS / 2) / NOMINAL_SECONDS;
            usize::try_from(scaled.max(1)).unwrap_or(1)
        };
        Sizes {
            tier1: 8,
            mid: 92,
            stubs: 300,
            central: 4,
            sweep_seeds: 10,
            sweeps: reps(3),
            bringups: reps(3),
            churn_blocks: reps(8),
            churn_block: 20,
            forensic_seeds: reps(30) as u64,
            kernel_items: 20_000,
        }
    }

    /// `--quick`: a 64-AS hierarchy, a 17 × 1 sweep, 4 churn rounds — every
    /// code path in a few seconds, no number worth keeping.
    pub fn quick() -> Sizes {
        Sizes {
            tier1: 4,
            mid: 12,
            stubs: 48,
            central: 2,
            sweep_seeds: 1,
            sweeps: 1,
            bringups: 1,
            churn_blocks: 1,
            churn_block: 3,
            forensic_seeds: 1,
            kernel_items: 2_000,
        }
    }

    /// Total AS count of the hierarchy.
    pub fn ases(&self) -> usize {
        self.tier1 + self.mid + self.stubs
    }
}

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    /// Every generated input derives from this and nothing else.
    pub seed: u64,
    /// Work sizes.
    pub sizes: Sizes,
    /// Per-layer (traced) mode instead of end-to-end mode.
    pub trace: bool,
}

/// One timed repetition of a workload's measured phase. All host time.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds.
    pub wall_s: f64,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// `SimStats::events_processed` delta.
    pub events: u64,
    /// Host milliseconds of each op.
    pub op_ms: Vec<f64>,
}

/// Times one repetition: wall clock and process CPU around a closure that
/// returns the events it processed, its per-op times, and whatever the
/// caller wants to check once the clock has stopped.
pub fn timed_rep<T>(body: impl FnOnce() -> (u64, Vec<f64>, T)) -> (Rep, T) {
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let (events, op_ms, rest) = body();
    let rep = Rep {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds() - cpu0,
        events,
        op_ms,
    };
    (rep, rest)
}

/// Per-layer metrics by name.
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Add to a metric (absent counts as 0).
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    /// State that this workload does no work behind these metrics: each
    /// reads 0 unless something was measured after all.
    pub fn not_applicable(&mut self, names: &[&'static str]) {
        for name in names {
            self.0.entry(name).or_insert(0.0);
        }
    }

    /// Read a metric (absent reads as 0).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `self − before`, metric by metric: what a phase added to running
    /// totals.
    pub fn since(&self, before: &Layers) -> Layers {
        Layers(
            self.0
                .iter()
                .map(|(name, value)| (*name, value - before.get(name)))
                .collect(),
        )
    }

    /// Set every metric `other` holds.
    pub fn merge(&mut self, other: &Layers) {
        self.0.extend(other.0.iter().map(|(k, v)| (*k, *v)));
    }

    /// All metrics set so far.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host seconds of each set-up (synthesis, plan, build, warm-up; on
    /// `hybrid_churn` the bring-up too).
    pub setup_s: Vec<f64>,
    /// Timed repetitions (end-to-end mode).
    pub reps: Vec<Rep>,
    /// Ops attempted, over every pass.
    pub attempted: u64,
    /// Ops that did not converge, failed their audit, raised a verifier
    /// violation or broke a workload check.
    pub failed: u64,
    /// Workload-level check failures (any makes the run incorrect).
    pub problems: Vec<String>,
    /// Hash of everything simulated in the base pass.
    pub digest: Digest,
    /// Per-layer metrics (traced mode).
    pub layers: Layers,
}

impl Outcome {
    /// Record a failed workload check.
    pub fn problem(&mut self, text: impl Into<String>) {
        self.problems.push(text.into());
    }

    /// Fold in the digest of one repetition: the first sets `digest`, every
    /// later one of the same seed must reproduce it.
    pub fn repeat_digest(&mut self, digest: Digest, what: &str) {
        if self.reps.is_empty() {
            self.digest = digest;
        } else if self.digest != digest {
            self.problem(format!(
                "two {what} of one seed produced different sim_digests"
            ));
        }
    }

    /// Count one op; `ok == false` counts it as failed with the reason.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

/// The CAIDA-style hierarchy of `internet_bringup` and `hybrid_churn`:
/// Gao-Rexford policy, MRAI 0, one /16 per AS, all derived from `seed`.
pub fn hierarchy(sizes: &Sizes, seed: u64, spans: &mut SpanLog) -> TopologyPlan {
    let params = caida::SynthesisParams {
        tier1: sizes.tier1,
        mid: sizes.mid,
        stubs: sizes.stubs,
        ..caida::SynthesisParams::default()
    };
    let mut rng = SimRng::seed_from_u64(seed);
    let graph = spans.time("topology.synthesize", || {
        caida::synthesize(&params, &mut rng)
    });
    spans.time("topology.plan", || {
        plan(
            graph,
            PolicyMode::GaoRexford,
            TimingConfig::with_mrai(SimDuration::ZERO),
        )
        .expect("address plan of the synthetic hierarchy")
    })
}

/// Per-layer metrics the two hierarchy workloads have no work behind: no
/// campaign, no artifact, no verifier.
pub const HIERARCHY_NOT_APPLICABLE: [&str; 6] = [
    "core.campaign.job_overhead_ms",
    "core.campaign.parallel_speedup",
    "obs.artifact_bytes",
    "obs.artifact.render_mb_per_s",
    "obs.artifact.parse_mb_per_s",
    "verify.ns_per_prefix",
];

/// The hierarchy network with tier-1 ASes `0..central` under one
/// controller (`central == 0`: pure BGP), not yet started.
pub fn hierarchy_builder(cfg: &Config, central: usize, spans: &mut SpanLog) -> NetworkBuilder {
    let tp = hierarchy(&cfg.sizes, cfg.seed, spans);
    NetworkBuilder::new(tp, cfg.seed)
        .with_sdn_members(0..central)
        .with_recompute_delay(SimDuration::from_millis(100))
}

/// The traced pass's bring-up of the hierarchy, span by span: synthesize →
/// plan → analyze → pre-flight → build → bring-up with profiling and every
/// trace category on and the harness driving `events` steps.
pub fn traced_bring_up(
    cfg: &Config,
    central: usize,
    events: u64,
    steps: &mut StepProfile,
    spans: &mut SpanLog,
) -> (Experiment, Vec<NodeKind>, ConvergenceReport) {
    let builder = hierarchy_builder(cfg, central, spans);
    let members: Vec<usize> = (0..central).collect();
    let report = spans.time("analyze.preflight", || builder.preflight());
    assert!(
        report.ok(),
        "pre-flight rejected the hierarchy:\n{}",
        report.render()
    );
    let net = spans.time("core.framework.build", || builder.build());
    crate::kernels::analyze_spans(&net.plan, &members, spans);
    let mut exp = Experiment::new(net);
    exp.net.sim.trace_mut().enable_all();
    exp.net.sim.set_profiling(true);
    let kinds = node_kinds(&exp.net);
    let s = spans.enter("core.framework.bringup");
    let up = stepped_start(&mut exp, events, steps, &kinds, spans);
    spans.exit(s);
    (exp, kinds, up)
}

/// Sum a counter over every node and every phase of an experiment: the
/// registry is reset at each `mark`, so closed phases live in snapshots.
fn counter_total(exp: &Experiment, name: &str) -> u64 {
    let in_snapshots: u64 = exp
        .phase_snapshots()
        .iter()
        .map(|(_, snap)| snapshot_counter(snap, name))
        .sum();
    in_snapshots + exp.net.sim.metrics().counter_total(name)
}

fn snapshot_counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.entries
        .iter()
        .filter(|(_, key, _)| key == name)
        .map(|(_, _, value)| match value {
            MetricValue::Counter(n) => *n,
            _ => 0,
        })
        .sum()
}

/// Sum and count of a wall-clock histogram over every node and phase
/// (only populated while profiling is on).
fn histogram_total(exp: &Experiment, name: &str) -> (u64, u64) {
    let mut sum = 0u64;
    let mut count = 0u64;
    for (_, snap) in exp.phase_snapshots() {
        for (_, key, value) in &snap.entries {
            if let (true, MetricValue::Histogram(h)) = (key == name, value) {
                sum += h.sum();
                count += h.count();
            }
        }
    }
    let live = exp.net.sim.metrics().histogram_merged(name);
    (sum + live.sum(), count + live.count())
}

/// Add the exact counts (source A) of a finished experiment to `layers`.
/// Called once per experiment, so clique workloads sum over their jobs.
pub fn add_exact_counts(exp: &Experiment, layers: &mut Layers) {
    let sim = &exp.net.sim;
    let stats = sim.stats();
    layers.add("netsim.events", stats.events_processed as f64);
    layers.add("netsim.msgs_delivered", stats.msgs_delivered as f64);
    layers.add("netsim.bytes_delivered", stats.bytes_delivered as f64);
    layers.add("netsim.timers_fired", stats.timers_fired as f64);
    layers.add("netsim.timers_stale", stats.timers_stale as f64);
    let pool = sim.pool_stats();
    layers.add("netsim.slab_allocs_hot", pool.allocs_hot as f64);
    layers.add("netsim.slab_events_pooled", pool.events_pooled as f64);

    let mut updates_sent = 0u64;
    let mut updates_received = 0u64;
    let mut best_path_changes = 0u64;
    for a in exp.net.legacy() {
        let s = sim.node_ref::<Router>(a.node).stats();
        updates_sent += s.updates_sent;
        updates_received += s.updates_received;
        best_path_changes += s.best_path_changes;
    }
    layers.add("bgp.updates_sent", updates_sent as f64);
    layers.add("aux.updates_received", updates_received as f64);
    layers.add("bgp.best_path_changes", best_path_changes as f64);

    // A network without a cluster does exactly zero sdn and controller work.
    for name in [
        "sdn.flow_mods",
        "core.controller.recomputes",
        "core.controller.prefixes_recomputed",
        "core.controller.prefixes_cached",
    ] {
        layers.add(name, 0.0);
    }
    for a in exp.net.members() {
        let s = sim.node_ref::<Switch>(a.node).stats();
        layers.add("sdn.flow_mods", s.flow_mods as f64);
    }
    layers.add(
        "sdn.speaker_updates_in",
        counter_total(exp, "sdn.speaker.updates_in") as f64,
    );
    layers.add(
        "sdn.speaker_updates_out",
        counter_total(exp, "sdn.speaker.updates_out") as f64,
    );
    layers.add(
        "sdn.ctrl_retransmits",
        counter_total(exp, "core.ctrl.retransmits") as f64,
    );
    for handle in &exp.net.clusters {
        let s = sim.node_ref::<Controller>(handle.controller).stats();
        layers.add("core.controller.recomputes", s.recomputes as f64);
        layers.add(
            "core.controller.prefixes_recomputed",
            s.prefixes_recomputed as f64,
        );
        layers.add("core.controller.prefixes_cached", s.prefixes_cached as f64);
    }
    if let Some(c) = exp.net.collector {
        let log = sim.node_ref::<Collector>(c).log();
        layers.add("collector.updates_logged", log.len() as f64);
    }
    layers.add("obs.trace_records", sim.trace().len() as f64);
    layers.add("obs.trace_dropped", sim.trace().dropped() as f64);
}

/// Add the in-program wall spans (source B, profiling on) of a finished
/// traced experiment: the three spans the program already records, plus
/// the decision count their histogram carries.
pub fn add_program_spans(exp: &Experiment, layers: &mut Layers) {
    let (select_ns, decisions) = histogram_total(exp, "bgp.decision.select_wall_ns");
    layers.add("bgp.decision.self_ms", select_ns as f64 / 1e6);
    layers.add("bgp.decisions", decisions as f64);
    let (recompute_ns, _) = histogram_total(exp, "core.controller.recompute_wall_ns");
    layers.add("core.controller.recompute_ms", recompute_ns as f64 / 1e6);
    let (mutate_ns, _) = histogram_total(exp, "sdn.flowtable.mutate_wall_ns");
    layers.add("sdn.flowtable.mutate_ms", mutate_ns as f64 / 1e6);
    let (dispatch_ns, _) = histogram_total(exp, "netsim.loop.dispatch_wall_ns");
    layers.add("aux.dispatch_ms", dispatch_ns as f64 / 1e6);
}

/// Derive the ratio metrics once every count is in.
pub fn finish_ratios(layers: &mut Layers) {
    use crate::stats::ratio;
    let stale = layers.get("netsim.timers_stale");
    let timers = stale + layers.get("netsim.timers_fired");
    layers.set("netsim.stale_timer_ratio", ratio(stale, timers));
    layers.set(
        "bgp.useful_update_ratio",
        ratio(
            layers.get("bgp.best_path_changes"),
            layers.get("aux.updates_received"),
        ),
    );
    let cached = layers.get("core.controller.prefixes_cached");
    let recomputed = layers.get("core.controller.prefixes_recomputed");
    layers.set(
        "core.controller.cache_hit_ratio",
        ratio(cached, cached + recomputed),
    );
    let spans_ms = layers.get("bgp.decision.self_ms")
        + layers.get("core.controller.recompute_ms")
        + layers.get("sdn.flowtable.mutate_ms");
    layers.set(
        "attribution.span_share",
        ratio(spans_ms, layers.get("aux.dispatch_ms")),
    );
}

/// Fold the final routing state of an experiment into a digest: engine
/// counters, every legacy Loc-RIB and every switch flow table.
pub fn digest_state(exp: &Experiment, digest: &mut Digest) {
    let sim = &exp.net.sim;
    let s = sim.stats();
    for v in [
        s.events_processed,
        s.msgs_delivered,
        s.msgs_dropped_link_down,
        s.msgs_dropped_loss,
        s.msgs_dropped_node_down,
        s.timers_fired,
        s.timers_stale,
        s.bytes_delivered,
        sim.now().as_nanos(),
    ] {
        digest.u64(v);
    }
    for a in &exp.net.ases {
        match a.kind {
            bgpsdn_core::AsKind::Legacy => {
                let r = sim.node_ref::<Router>(a.node);
                digest.u64(r.loc_rib().len() as u64);
                for (prefix, entry) in r.loc_rib().iter() {
                    digest.u64(u64::from(prefix.network_u32()) << 8 | u64::from(prefix.len()));
                    for asn in entry.attrs.as_path.flatten() {
                        digest.u64(u64::from(asn.0));
                    }
                }
            }
            bgpsdn_core::AsKind::SdnMember => {
                let sw = sim.node_ref::<Switch>(a.node);
                let mut rules: Vec<String> = sw.table().iter().map(|r| format!("{r:?}")).collect();
                rules.sort_unstable();
                for r in &rules {
                    digest.text(r);
                }
            }
        }
    }
}
