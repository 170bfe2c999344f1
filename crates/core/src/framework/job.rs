//! One job description and its runner — the runs behind the paper's
//! evaluation.
//!
//! A [`JobSpec`] names everything one experiment needs: the topology (an
//! `n`-AS clique or a synthesized AS hierarchy), the policy regime, the
//! cluster deployment, BGP timers, the control channel, the routing event
//! and its origin, and an optional post-event [`Script`]. [`JobSpec::run`]
//! drives it through the framework's one lifecycle — build, bring up,
//! inject the event, wait until converged, audit — and
//! [`JobSpec::builder`] hands out the same network for runs that need a
//! different sequence. The campaign worker, `bgpsdn run`, the benches, the
//! examples and the integration tests describe their runs this way.

use bgpsdn_bgp::{PolicyMode, TimingConfig};
use bgpsdn_netsim::{LatencyModel, SimDuration, SimRng};
use bgpsdn_obs::Json;
use bgpsdn_topology::{caida, gen, plan, AsGraph};

use super::campaign::loss_ppm;
use super::deploy::{DeploymentStrategy, Placement};
use super::experiment::Experiment;
use super::network::{NetworkBuilder, Sim};
use super::script::{Script, ScriptAction};

/// The AS topology a job runs on.
#[derive(Debug, Clone)]
pub enum Topology {
    /// An `n`-AS all-peer clique (the paper's §4 topology). A fail-over
    /// job runs its dual-homed variant: ASes `2..n` form the clique and the
    /// origin, AS 0, reaches it over AS 2 (primary) and, through the stub
    /// relay AS 1, over AS 3 (backup).
    Clique {
        /// Clique size (the paper uses 16).
        n: usize,
    },
    /// A CAIDA-like tiered hierarchy: tier-1 ASes first, then the mid tier,
    /// then the stubs.
    Hierarchy {
        /// Tier sizes and multihoming degrees.
        params: caida::SynthesisParams,
        /// Seed of the synthesis RNG (independent of the job seed).
        seed: u64,
    },
}

impl Topology {
    /// Number of ASes.
    pub fn as_count(&self) -> usize {
        match self {
            Topology::Clique { n } => *n,
            Topology::Hierarchy { params, .. } => params.tier1 + params.mid + params.stubs,
        }
    }
}

/// Which routing event a job applies after initial convergence.
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

impl EventKind {
    /// Every event's stable name, as `bgpsdn --event` spells it and trace
    /// phases and artifact headers record it, in declaration order.
    const NAMES: [(EventKind, &'static str); 3] = [
        (EventKind::Withdrawal, "withdrawal"),
        (EventKind::Announcement, "announcement"),
        (EventKind::Failover, "failover"),
    ];

    /// The event's stable name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize].1
    }
}

impl std::str::FromStr for EventKind {
    type Err = String;

    fn from_str(name: &str) -> Result<EventKind, String> {
        Self::NAMES
            .iter()
            .find(|(_, n)| *n == name)
            .map(|&(e, _)| e)
            .ok_or_else(|| {
                let names = Self::NAMES.map(|(_, n)| n).join("|");
                format!("must be {names}, got {name:?}")
            })
    }
}

/// What a job run produced.
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

/// Everything one experiment run needs.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The AS topology.
    pub topology: Topology,
    /// The policy regime every router runs.
    pub policy: PolicyMode,
    /// Which ASes are centralized, resolved against the topology (and,
    /// for the random strategy, the job seed) when the network is built. A
    /// member budget of 0 deploys no cluster.
    pub deployment: DeploymentStrategy,
    /// BGP timers: MRAI, hold time (0 keeps keepalive/hold off) and the
    /// RFC 4724 graceful-restart window (0 = GR off). The hold time must be
    /// non-zero whenever the script holds router or link faults — silent
    /// outages are only detectable by hold expiry.
    pub timing: TimingConfig,
    /// Controller delayed-recomputation window.
    pub recompute_delay: SimDuration,
    /// Random per-message loss probability on the speaker↔controller
    /// channel (0.0 = lossless). The reliable control protocol must mask
    /// any non-zero setting.
    pub control_loss: f64,
    /// Latency of every control-plane link.
    pub ctl_latency: LatencyModel,
    /// The routing event injected after bring-up.
    pub event: EventKind,
    /// The AS the event starts at (a fail-over's origin is AS 0, the AS
    /// its topology dual-homes).
    pub origin: usize,
    /// A schedule replayed through [`Experiment::run_script`] right after
    /// the event is injected; the convergence wait resumes once it ends.
    pub script: Option<Script>,
    /// A note recorded in the trace at bring-up — campaigns use it to
    /// record why a fault class was dropped as inapplicable for the job.
    pub note: Option<String>,
    /// Run the static data-plane verifier at experiment checkpoints.
    pub verify: bool,
    /// Experiment seed (vary for boxplot runs).
    pub seed: u64,
}

impl JobSpec {
    /// A withdrawal at AS 0 of `topology` under pure BGP: all-permit
    /// policy, default timers (MRAI 30 s, hold and GR off), a 100 ms
    /// recompute delay, a lossless 1 ms control channel, seed 1.
    pub fn new(topology: Topology) -> JobSpec {
        JobSpec {
            topology,
            policy: PolicyMode::AllPermit,
            deployment: DeploymentStrategy::Placed {
                placement: Placement::Tail,
                clusters: 1,
                total: 0,
            },
            timing: TimingConfig::default(),
            recompute_delay: SimDuration::from_millis(100),
            control_loss: 0.0,
            ctl_latency: LatencyModel::Fixed(SimDuration::from_millis(1)),
            event: EventKind::Withdrawal,
            origin: 0,
            script: None,
            note: None,
            verify: false,
            seed: 1,
        }
    }

    /// [`JobSpec::new`] on an `n`-AS clique whose `members` highest ASes
    /// form one cluster — the paper's deployment, which keeps the origin
    /// AS 0 legacy until the whole clique is centralized.
    pub fn clique(n: usize, members: usize) -> JobSpec {
        JobSpec {
            deployment: DeploymentStrategy::Placed {
                placement: Placement::Tail,
                clusters: 1,
                total: members,
            },
            ..JobSpec::new(Topology::Clique { n })
        }
    }

    /// The AS graph the job runs on: the topology, or for a fail-over on
    /// the clique its dual-homed variant.
    ///
    /// # Panics
    ///
    /// On a fail-over the topology cannot carry: a clique below 5 ASes, an
    /// origin other than AS 0, or a hierarchy.
    pub(crate) fn graph(&self) -> AsGraph {
        match (&self.topology, self.event) {
            (&Topology::Clique { n }, EventKind::Failover) => {
                // Origin 0 is dual-homed: primary link straight into the
                // clique (AS 2), backup over a stub relay (AS 1), making the
                // backup one hop longer. Failing the primary leaves
                // equal-length ghost paths competing with the real backup —
                // genuine fail-over exploration.
                assert!(n >= 5, "fail-over needs n >= 5");
                assert_eq!(self.origin, 0, "fail-over dual-homes AS 0, its origin");
                let mut g = bgpsdn_topology::Graph::new(n);
                for i in 2..n {
                    for j in (i + 1)..n {
                        g.add_edge(i, j);
                    }
                }
                g.add_edge(0, 2); // primary
                g.add_edge(0, 1); // origin — relay
                g.add_edge(1, 3); // relay — backup entry
                AsGraph::all_peer(&g, 65000)
            }
            (&Topology::Clique { n }, _) => AsGraph::all_peer(&gen::clique(n), 65000),
            (Topology::Hierarchy { .. }, EventKind::Failover) => {
                panic!("fail-over needs the clique's dual-homed origin; a hierarchy has none")
            }
            (Topology::Hierarchy { params, seed }, _) => {
                caida::synthesize(params, &mut SimRng::seed_from_u64(*seed))
            }
        }
    }

    /// The cluster lists the deployment resolves to on `graph` — what the
    /// built network deploys, what a campaign's chaos schedule avoids, and
    /// what `bgpsdn check` analyzes.
    ///
    /// # Panics
    ///
    /// When the deployment is infeasible on `graph`.
    pub fn clusters(&self, graph: &AsGraph) -> Vec<Vec<usize>> {
        if self.deployment.shape().1 == 0 {
            return Vec::new();
        }
        self.deployment
            .assign(graph, self.seed)
            .unwrap_or_else(|e| panic!("invalid cluster deployment: {e}"))
    }

    /// The network builder the job's network comes from, configured with
    /// every field but the event, the origin, the script and the note.
    ///
    /// # Panics
    ///
    /// On a fail-over the topology cannot carry (a clique below 5 ASes, an
    /// origin other than AS 0, a hierarchy), or when the topology has no
    /// address plan.
    pub fn builder(&self) -> NetworkBuilder {
        let tp = plan(self.graph(), self.policy, self.timing.clone()).expect("address plan");
        let mut builder = NetworkBuilder::new(tp, self.seed)
            .with_recompute_delay(self.recompute_delay)
            .with_control_loss(self.control_loss)
            .with_ctl_latency(self.ctl_latency.clone());
        if self.deployment.shape().1 > 0 {
            builder = builder.with_deployment(self.deployment.clone());
        }
        if self.verify {
            builder = builder.with_verification();
        }
        builder
    }

    /// Build, bring up and drive the job, returning the outcome together
    /// with the still-inspectable experiment (collector log, RIBs, flow
    /// tables). `instrument` is applied to the simulator between build and
    /// bring-up — enable trace categories, turn on profiling, resize the
    /// trace ring. Phases are closed on return, so the experiment's
    /// `phase_snapshots()` is complete (`bring-up`, then the event phase).
    ///
    /// A fail-over fails the origin's primary link (into clique AS 2): the
    /// network must converge onto the one-hop-longer backup via the relay,
    /// exploring equal-length ghost paths on the way.
    ///
    /// # Panics
    ///
    /// When the deployment cannot be built (more members than ASes, fewer
    /// than clusters), when the script fails its pre-flight, or when
    /// bring-up does not converge. [`JobSpec::preflight`] reports the
    /// static part of these up front.
    pub fn run(&self, instrument: impl FnOnce(&mut Sim)) -> (ScenarioOutcome, Experiment) {
        // Router and link faults are invisible with hold timers off.
        let mut steps = self.script.iter().flat_map(|s| &s.steps);
        if let Some(fault) = steps.find(|a| a.needs_hold_timers()) {
            assert!(
                self.timing.hold_time_secs > 0,
                "fault plan failed pre-flight: `{fault}` needs hold timers to be detectable, \
                 but hold time is 0"
            );
        }
        let mut exp = Experiment::new(self.builder().build());
        instrument(&mut exp.net.sim);

        let up = exp.start(PHASE_DEADLINE);
        assert!(up.converged, "bring-up did not converge");
        if let Some(note) = &self.note {
            exp.note(note.clone());
        }

        let origin = self.origin;
        let origin_prefix = exp.net.ases[origin].prefix;

        exp.mark_named(self.event.name());
        let audit_prefix = match self.event {
            // A fresh /17 inside the origin's block: unknown to everyone.
            EventKind::Announcement => origin_prefix.split().0,
            EventKind::Withdrawal | EventKind::Failover => origin_prefix,
        };
        let (as_index, prefix) = (origin, Some(audit_prefix));
        let event = match self.event {
            EventKind::Withdrawal => ScriptAction::Withdraw { as_index, prefix },
            EventKind::Announcement => ScriptAction::Announce { as_index, prefix },
            EventKind::Failover => ScriptAction::FailEdge(origin, 2),
        };
        exp.apply(&event);
        if let Some(script) = &self.script {
            let report = exp.run_script(script);
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
        let audit_ok = match self.event {
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

    /// Render the run's JSONL artifact into `text`: a `run` header naming
    /// the job — its campaign coordinates `(job id, grid cell)` when it
    /// has them — then the experiment's telemetry as
    /// [`Experiment::render_artifact_into`] lays it out. `bgpsdn run
    /// --trace-out` and every traced campaign job write this one format,
    /// so `bgpsdn report` and `bgpsdn verify` read both.
    pub fn render_artifact_into(
        &self,
        coordinates: Option<(usize, usize)>,
        exp: &Experiment,
        text: &mut String,
    ) {
        let scenario = match self.topology {
            Topology::Clique { .. } => "clique",
            Topology::Hierarchy { .. } => "hierarchy",
        };
        let mut info = vec![
            ("scenario".into(), Json::Str(scenario.into())),
            ("event".into(), Json::Str(self.event.name().into())),
        ];
        if let Some((job, cell)) = coordinates {
            info.push(("job".into(), Json::U64(job as u64)));
            info.push(("cell".into(), Json::U64(cell as u64)));
        }
        let (clusters, members) = self.deployment.shape();
        info.push(("n".into(), Json::U64(self.topology.as_count() as u64)));
        info.push(("sdn".into(), Json::U64(members as u64)));
        let paper = match self.deployment {
            DeploymentStrategy::Placed { placement, .. } => paper_deployment(clusters, placement),
            DeploymentStrategy::Explicit(_) => false,
        };
        if !paper {
            info.push(("clusters".into(), Json::U64(clusters as u64)));
            info.push(("strategy".into(), Json::Str(self.deployment.name().into())));
        }
        info.push(("loss_ppm".into(), Json::U64(loss_ppm(self.control_loss))));
        if let LatencyModel::Fixed(latency) = self.ctl_latency {
            info.push(("ctl_latency_ns".into(), Json::U64(latency.as_nanos())));
        }
        info.extend([
            ("mrai_ns".into(), Json::U64(self.timing.mrai.as_nanos())),
            ("seed".into(), Json::U64(self.seed)),
            (
                "dropped_events".into(),
                Json::U64(exp.net.sim.trace().dropped()),
            ),
        ]);
        exp.render_artifact_into(&Json::Obj(info), text);
    }
}

/// True for the paper's deployment — at most one cluster, on the highest
/// AS indices. Artifact headers and campaign seeds leave such jobs in the
/// format that predates the deployment axes.
pub(crate) fn paper_deployment(clusters: usize, placement: Placement) -> bool {
    clusters <= 1 && placement == Placement::Tail
}
