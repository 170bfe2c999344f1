//! Canned experiment scenarios — the runs behind the paper's evaluation.
//!
//! [`run_clique_with`] reproduces the §4 experiments: an `n`-AS clique
//! with a configurable number of ASes under centralized control, subjected
//! to a route withdrawal (Figure 2), a route announcement, or a link
//! fail-over, measuring IDR convergence time. It is the one clique job
//! path: a [`CliqueScenario`] plus [`CliqueRunOptions`] resolve to cluster
//! membership lists once (one tail cluster by default; `k` clusters under
//! any [`DeploymentStrategy`] otherwise) and feed one builder call.
//! [`run_clique`] and [`run_clique_traced`] are that call under the default
//! options. Used by the campaign engine, the benches, the examples and the
//! integration tests.

use std::net::Ipv4Addr;

use bgpsdn_bgp::{PolicyMode, Prefix, TimingConfig};
use bgpsdn_netsim::{LatencyModel, SimDuration, SimRng};
use bgpsdn_topology::{caida, gen, plan, AsGraph};

use super::deploy::DeploymentStrategy;
use super::experiment::Experiment;
use super::network::NetworkBuilder;
use super::script::Script;

/// Parameters of a clique experiment.
#[derive(Debug, Clone)]
pub struct CliqueScenario {
    /// Clique size (the paper uses 16).
    pub n: usize,
    /// How many ASes are cluster members (taken from the high indices, so
    /// the event origin AS 0 stays legacy until `sdn_count == n`).
    pub sdn_count: usize,
    /// eBGP MRAI (the paper's Quagga default: 30 s).
    pub mrai: SimDuration,
    /// Controller delayed-recomputation window.
    pub recompute_delay: SimDuration,
    /// Experiment seed (vary for boxplot runs).
    pub seed: u64,
    /// Random per-message loss probability on the speaker↔controller
    /// channel (0.0 = lossless). The reliable control protocol must mask
    /// any non-zero setting.
    pub control_loss: f64,
}

impl CliqueScenario {
    /// The paper's Figure 2 configuration at a given SDN fraction and seed.
    pub fn fig2(sdn_count: usize, seed: u64) -> CliqueScenario {
        CliqueScenario {
            n: 16,
            sdn_count,
            mrai: SimDuration::from_secs(30),
            recompute_delay: SimDuration::from_millis(100),
            seed,
            control_loss: 0.0,
        }
    }

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

/// Which routing event the scenario applies after initial convergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The origin AS withdraws its prefix (Figure 2).
    Withdrawal,
    /// The origin AS announces a fresh, previously unknown prefix.
    Announcement,
    /// The link between the origin and one neighbor fails; traffic must
    /// fail over to two-hop paths.
    Failover,
}

/// What a scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Whether the network converged within the deadline.
    pub converged: bool,
    /// Convergence time of the event (activity-board based).
    pub convergence: SimDuration,
    /// Convergence time as seen by the route collector.
    pub collector_convergence: Option<SimDuration>,
    /// BGP updates sent during re-convergence.
    pub updates: u64,
    /// Flow-table changes during re-convergence.
    pub flow_mods: u64,
    /// Whether the event's post-state audit passed (withdrawn prefix fully
    /// gone / new prefix reachable everywhere / fail-over path restored).
    pub audit_ok: bool,
}

/// Hard deadline for a single convergence phase.
const PHASE_DEADLINE: SimDuration = SimDuration::from_secs(3600);

/// Extra knobs a clique run can carry beyond the [`CliqueScenario`]
/// parameters — what the campaign engine sweeps and injects per job.
#[derive(Debug, Clone, Default)]
pub struct CliqueRunOptions {
    /// A fault schedule (control- and/or data-plane) replayed through
    /// [`Experiment::run_script`] right after the routing event is injected
    /// (the convergence wait resumes once the schedule finishes).
    pub fault_plan: Option<Script>,
    /// Run the static data-plane verifier at experiment checkpoints.
    pub verification: bool,
    /// Override the speaker↔controller channel latency model.
    pub ctl_latency: Option<LatencyModel>,
    /// BGP hold time in seconds (0 keeps keepalive/hold off, the default).
    /// Must be non-zero whenever the fault plan contains router- or
    /// link-class faults — silent outages are only detectable by hold
    /// expiry.
    pub hold_secs: u16,
    /// RFC 4724 graceful-restart window in seconds (0 = GR off).
    pub graceful_restart_secs: u16,
    /// A note recorded in the trace at bring-up — campaigns use it to
    /// record why a fault class was dropped as inapplicable for this cell.
    pub fault_note: Option<String>,
    /// How many independent SDN clusters the `sdn_count` members are split
    /// into (`0` counts as `1`, the paper's deployment).
    pub clusters: usize,
    /// Deployment strategy placing the clusters (see
    /// [`super::deploy::DeploymentStrategy::by_name`]); empty means
    /// `"tail"`, the paper's high-index layout.
    pub strategy: &'static str,
}

/// Build, bring up and drive one clique experiment, returning the outcome
/// together with the still-inspectable experiment (collector log, RIBs,
/// flow tables) — what the campaign engine and log-analysis benches use.
///
/// `opts` carries an optional fault schedule, automatic verification
/// checkpoints, a control-channel latency override and the cluster
/// deployment; `instrument` is applied to the simulator between build and
/// bring-up — enable trace categories, turn on profiling, resize the trace
/// ring. Phases are closed on return, so the experiment's
/// `phase_snapshots()` is complete.
///
/// Withdrawal and announcement events run on the full `n`-clique. The
/// fail-over event runs on the thesis' variant: ASes `2..n` form the
/// clique and the origin is dual-homed to AS 2 (primary) and, over the
/// stub relay AS 1, to AS 3 (backup); failing the primary link forces the
/// whole network onto the one-hop-longer backup.
///
/// # Panics
///
/// When `scenario.sdn_count` members cannot be deployed (more members than
/// ASes, fewer than clusters, an unknown strategy name), when the fault
/// plan fails its pre-flight, or when bring-up does not converge.
pub fn run_clique_with(
    scenario: &CliqueScenario,
    event: EventKind,
    opts: &CliqueRunOptions,
    instrument: impl FnOnce(&mut super::network::Sim),
) -> (ScenarioOutcome, Experiment) {
    let (ag, clusters) = clique_deployment(scenario, event, opts.clusters, opts.strategy);
    let mut timing = TimingConfig::with_mrai(scenario.mrai);
    timing.hold_time_secs = opts.hold_secs;
    timing.graceful_restart_secs = opts.graceful_restart_secs;
    let tp = plan(ag, PolicyMode::AllPermit, timing).expect("address plan");
    // Router and link faults are invisible with hold timers off.
    let mut steps = opts.fault_plan.iter().flat_map(|s| &s.steps);
    if let Some(fault) = steps.find(|a| a.needs_hold_timers()) {
        assert!(
            opts.hold_secs > 0,
            "fault plan failed pre-flight: `{fault}` needs hold timers to be detectable, \
             but hold time is 0"
        );
    }
    let mut builder = NetworkBuilder::new(tp, scenario.seed)
        .with_recompute_delay(scenario.recompute_delay)
        .with_control_loss(scenario.control_loss)
        .with_clusters(clusters);
    if let Some(model) = &opts.ctl_latency {
        builder = builder.with_ctl_latency(model.clone());
    }
    if opts.verification {
        builder = builder.with_verification();
    }
    let net = builder.build();
    let mut exp = Experiment::new(net);
    instrument(&mut exp.net.sim);

    let up = exp.start(PHASE_DEADLINE);
    assert!(up.converged, "bring-up did not converge");
    if let Some(note) = &opts.fault_note {
        exp.note(note.clone());
    }

    let origin = 0usize;
    let origin_prefix = exp.net.ases[origin].prefix;

    exp.mark_named(event_phase_name(event));
    let audit_prefix = match event {
        EventKind::Withdrawal => {
            exp.withdraw(origin, None);
            origin_prefix
        }
        EventKind::Announcement => {
            // A fresh /17 inside the origin's block: unknown to everyone.
            let (lo, _) = origin_prefix.split();
            exp.announce(origin, Some(lo));
            lo
        }
        EventKind::Failover => {
            // Fail the dual-homed origin's primary link (into clique AS 2);
            // the network must converge onto the longer backup via the
            // relay, exploring equal-length ghost paths on the way.
            exp.fail_edge(origin, 2);
            origin_prefix
        }
    };
    if let Some(schedule) = &opts.fault_plan {
        let report = exp.run_script(schedule);
        assert!(
            report.ok(),
            "fault plan failed pre-flight:\n{}",
            report.render()
        );
    }
    let report = exp.wait_converged(PHASE_DEADLINE);

    // Withdrawal: nothing is left anywhere, control plane included.
    // Announcement and fail-over: every other AS's traffic to the prefix
    // is delivered at the origin. The announced /17 sits inside the
    // origin's /16, whose route alone would deliver that traffic, so an
    // announcement also needs every other AS to hold the /17 itself.
    let delivered = |exp: &Experiment| {
        exp.connectivity(&[(origin, audit_prefix.network())])
            .fully_connected()
    };
    let audit_ok = match event {
        EventKind::Withdrawal => exp.prefix_fully_gone(audit_prefix),
        EventKind::Announcement => {
            exp.prefix_reachable_from_all(audit_prefix, origin) && delivered(&exp)
        }
        EventKind::Failover => delivered(&exp),
    };

    let outcome = ScenarioOutcome {
        converged: report.converged,
        convergence: report.duration,
        collector_convergence: exp.collector_convergence(),
        updates: exp.updates_sent(),
        flow_mods: exp.flows_installed(),
        audit_ok,
    };
    exp.finish();
    (outcome, exp)
}

/// The AS graph `event` runs on and the cluster lists the scenario's
/// `sdn_count` members resolve to under `clusters`/`strategy` — what
/// [`run_clique_with`] builds, and what a campaign job's chaos schedule
/// may target.
pub(crate) fn clique_deployment(
    scenario: &CliqueScenario,
    event: EventKind,
    clusters: usize,
    strategy: &str,
) -> (AsGraph, Vec<Vec<usize>>) {
    let ag = match event {
        EventKind::Withdrawal | EventKind::Announcement => {
            AsGraph::all_peer(&gen::clique(scenario.n), 65000)
        }
        EventKind::Failover => {
            // Origin 0 is dual-homed: primary link straight into the clique
            // (AS 2), backup over a stub relay (AS 1), making the backup one
            // hop longer. Failing the primary leaves equal-length ghost
            // paths competing with the real backup — genuine fail-over
            // exploration.
            assert!(scenario.n >= 5, "fail-over needs n >= 5");
            let mut g = bgpsdn_topology::Graph::new(scenario.n);
            for i in 2..scenario.n {
                for j in (i + 1)..scenario.n {
                    g.add_edge(i, j);
                }
            }
            g.add_edge(0, 2); // primary
            g.add_edge(0, 1); // origin — relay
            g.add_edge(1, 3); // relay — backup entry
            AsGraph::all_peer(&g, 65000)
        }
    };
    let lists = if scenario.sdn_count == 0 {
        Vec::new()
    } else {
        let name = if strategy.is_empty() {
            "tail"
        } else {
            strategy
        };
        DeploymentStrategy::by_name(name, clusters.max(1), scenario.sdn_count)
            .unwrap_or_else(|| panic!("unknown deployment strategy `{name}`"))
            .assign(&ag, scenario.seed)
            .unwrap_or_else(|e| panic!("invalid cluster deployment: {e}"))
    };
    (ag, lists)
}

/// The phase name a routing event runs under in trace artifacts.
pub fn event_phase_name(event: EventKind) -> &'static str {
    match event {
        EventKind::Withdrawal => "withdrawal",
        EventKind::Announcement => "announcement",
        EventKind::Failover => "failover",
    }
}

/// [`run_clique_with`] under the default options, outcome only.
pub fn run_clique(scenario: &CliqueScenario, event: EventKind) -> ScenarioOutcome {
    run_clique_with(scenario, event, &CliqueRunOptions::default(), |_| {}).0
}

/// [`run_clique_with`] under the default options with the telemetry layer
/// switched on: every trace category enabled and wall-clock profiling
/// spans collected, so `phase_snapshots()` holds one metrics snapshot per
/// phase (`bring-up`, then the event phase) and the simulator's trace
/// buffer holds the typed event stream — ready for JSONL export
/// (`bgpsdn run --trace-out`).
pub fn run_clique_traced(
    scenario: &CliqueScenario,
    event: EventKind,
) -> (ScenarioOutcome, Experiment) {
    run_clique_with(scenario, event, &CliqueRunOptions::default(), |sim| {
        sim.trace_mut().enable_all();
        sim.set_profiling(true);
    })
}

// ----------------------------------------------------------------------
// Table S7: scale run on a CAIDA-like tiered topology
// ----------------------------------------------------------------------

/// Parameters of a scale experiment (Table S7): a CAIDA-derived tiered AS
/// topology with the SDN cluster at tier-1, seeded with hundreds of
/// prefixes, then hit with a single-prefix update — the workload that
/// separates the controller's incremental dirty-set recompute from the
/// full-table baseline.
#[derive(Debug, Clone)]
pub struct ScaleScenario {
    /// Tier-1 AS count (full peer mesh; the cluster is taken from these).
    pub tier1: usize,
    /// Mid-tier provider count.
    pub mid: usize,
    /// Stub AS count — each stub seeds extra sub-prefixes.
    pub stubs: usize,
    /// How many tier-1 ASes are cluster members (`<= tier1`).
    pub cluster_size: usize,
    /// Extra /24 sub-prefixes each stub announces during the seeding phase.
    pub prefixes_per_stub: usize,
    /// eBGP MRAI.
    pub mrai: SimDuration,
    /// Controller delayed-recomputation window.
    pub recompute_delay: SimDuration,
    /// `true` runs the dirty-set incremental recompute; `false` forces the
    /// full-table baseline on every trigger.
    pub incremental: bool,
    /// Experiment seed (drives both topology synthesis and the simulator).
    pub seed: u64,
}

impl ScaleScenario {
    /// The Table S7 configuration: ~64 ASes, the whole tier-1 mesh
    /// centralized, a few hundred prefixes, MRAI 0 to keep runs tight.
    pub fn tbl_s7(seed: u64) -> ScaleScenario {
        ScaleScenario {
            tier1: 4,
            mid: 12,
            stubs: 48,
            cluster_size: 4,
            prefixes_per_stub: 4,
            mrai: SimDuration::ZERO,
            recompute_delay: SimDuration::from_millis(100),
            incremental: true,
            seed,
        }
    }

    /// Total AS count.
    pub fn n(&self) -> usize {
        self.tier1 + self.mid + self.stubs
    }

    /// AS indices of the stub tier (the prefix seeders).
    pub fn stub_indices(&self) -> std::ops::Range<usize> {
        self.tier1 + self.mid..self.n()
    }

    /// Prefixes the run tracks once seeded: every AS's own /16 plus the
    /// stub sub-prefixes.
    pub fn expected_prefixes(&self) -> usize {
        self.n() + self.stubs * self.prefixes_per_stub
    }

    fn synthesis_params(&self) -> caida::SynthesisParams {
        caida::SynthesisParams {
            tier1: self.tier1,
            mid: self.mid,
            stubs: self.stubs,
            ..caida::SynthesisParams::default()
        }
    }

    /// The `j`-th /24 inside stub `i`'s /16 block — the sub-prefixes the
    /// seeding phase announces (`j < prefixes_per_stub`) and the one extra
    /// the single-update phase adds (`j == prefixes_per_stub`).
    fn sub_prefix(base: Prefix, j: usize) -> Prefix {
        assert!(j < 256, "sub-prefix index {j} does not fit a /16 block");
        Prefix::new(Ipv4Addr::from(base.network_u32() + ((j as u32) << 8)), 24)
            .expect("aligned /24 inside the /16")
    }
}

/// What a scale run produced.
#[derive(Debug, Clone)]
pub struct ScaleOutcome {
    /// Whether every phase converged within the deadline.
    pub converged: bool,
    /// Prefixes seeded beyond the per-AS /16s.
    pub seeded_prefixes: usize,
    /// Convergence time of the seeding burst.
    pub seed_convergence: SimDuration,
    /// Convergence time of the single-prefix update after steady state.
    pub update_convergence: SimDuration,
    /// The prefix the single-update phase announced.
    pub update_prefix: Prefix,
    /// Whether that prefix became reachable from every AS.
    pub audit_ok: bool,
}

/// The phase name the single-prefix update runs under in trace artifacts
/// (what `tblS7_scale` filters `ControllerRecompute` events by).
pub const SCALE_UPDATE_PHASE: &str = "single-update";

/// Build, bring up and drive one scale experiment: synthesize the tiered
/// topology, centralize `cluster_size` tier-1 ASes, seed the stub
/// sub-prefixes, reach steady state, then announce one more prefix from
/// the first stub. Returns the outcome plus the still-inspectable
/// experiment (trace buffer, metrics snapshots per phase).
pub fn run_scale_instrumented(
    scenario: &ScaleScenario,
    instrument: impl FnOnce(&mut super::network::Sim),
) -> (ScaleOutcome, Experiment) {
    assert!(
        scenario.cluster_size <= scenario.tier1,
        "cluster must fit inside tier-1"
    );
    let mut topo_rng = SimRng::seed_from_u64(scenario.seed);
    let ag = caida::synthesize(&scenario.synthesis_params(), &mut topo_rng);
    let tp = plan(
        ag,
        PolicyMode::GaoRexford,
        TimingConfig::with_mrai(scenario.mrai),
    )
    .expect("address plan");
    let mut builder = NetworkBuilder::new(tp, scenario.seed)
        .with_sdn_members((0..scenario.cluster_size).collect::<Vec<_>>())
        .with_recompute_delay(scenario.recompute_delay);
    if !scenario.incremental {
        builder = builder.with_full_recompute();
    }
    let net = builder.build();
    let mut exp = Experiment::new(net);
    instrument(&mut exp.net.sim);

    let up = exp.start(PHASE_DEADLINE);
    assert!(up.converged, "scale bring-up did not converge");

    // Seeding: every stub announces its sub-prefixes in one burst.
    exp.mark_named("seeding");
    let mut seeded = 0usize;
    for i in scenario.stub_indices() {
        let base = exp.net.ases[i].prefix;
        for j in 0..scenario.prefixes_per_stub {
            exp.announce(i, Some(ScaleScenario::sub_prefix(base, j)));
            seeded += 1;
        }
    }
    let seed_report = exp.wait_converged(PHASE_DEADLINE);

    // Steady state reached; now the probe: one new prefix from one stub.
    let origin = scenario.stub_indices().start;
    let update_prefix =
        ScaleScenario::sub_prefix(exp.net.ases[origin].prefix, scenario.prefixes_per_stub);
    exp.mark_named(SCALE_UPDATE_PHASE);
    exp.announce(origin, Some(update_prefix));
    let update_report = exp.wait_converged(PHASE_DEADLINE);

    let audit_ok = exp.prefix_reachable_from_all(update_prefix, origin);
    let outcome = ScaleOutcome {
        converged: up.converged && seed_report.converged && update_report.converged,
        seeded_prefixes: seeded,
        seed_convergence: seed_report.duration,
        update_convergence: update_report.duration,
        update_prefix,
        audit_ok,
    };
    exp.finish();
    (outcome, exp)
}
