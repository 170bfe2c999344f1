//! Declarative experiment scripts.
//!
//! The paper's framework lets experimenters write setups in Python and
//! "actively control the experiments, e.g., dynamically changing the
//! topology and verifying the effects of changes". [`Script`] is that
//! orchestration layer in data form: a sequence of actions (announce,
//! withdraw, fail/restore links, wait for convergence) interleaved with
//! executable expectations (prefix reachable/gone, full connectivity),
//! replayed against an [`Experiment`] into a step-by-step report. A seeded
//! chaos schedule ([`super::faults`]) is a script too, and
//! [`Experiment::run_script`] is the one executor of both.

use bgpsdn_bgp::Prefix;
use bgpsdn_collector::ConvergenceReport;
use bgpsdn_netsim::SimDuration;

pub use bgpsdn_analyze::ScriptAction;

use super::experiment::Experiment;

/// An ordered experiment script with a builder API.
#[derive(Debug, Clone, Default)]
pub struct Script {
    /// The steps, executed in order.
    pub steps: Vec<ScriptAction>,
}

impl Script {
    /// Empty script.
    pub fn new() -> Script {
        Script::default()
    }

    /// Append any action.
    pub fn step(mut self, action: ScriptAction) -> Self {
        self.steps.push(action);
        self
    }

    /// A timed schedule as a script: actions sorted by offset (stable, so
    /// equal offsets keep their order), each preceded by a
    /// [`RunFor`](ScriptAction::RunFor) of the gap since the previous one —
    /// none for a zero gap. Replayed from time `t`, every action fires at
    /// `t + offset`.
    pub fn from_offsets(mut events: Vec<(SimDuration, ScriptAction)>) -> Script {
        events.sort_by_key(|&(at, _)| at);
        let mut steps = Vec::with_capacity(events.len() * 2);
        let mut now = SimDuration::ZERO;
        for (at, action) in events {
            if at > now {
                steps.push(ScriptAction::RunFor(at - now));
                now = at;
            }
            steps.push(action);
        }
        Script { steps }
    }

    /// Announce the AS's own prefix.
    pub fn announce(self, as_index: usize) -> Self {
        self.step(ScriptAction::Announce {
            as_index,
            prefix: None,
        })
    }

    /// Withdraw the AS's own prefix.
    pub fn withdraw(self, as_index: usize) -> Self {
        self.step(ScriptAction::Withdraw {
            as_index,
            prefix: None,
        })
    }

    /// Fail a link.
    pub fn fail_edge(self, a: usize, b: usize) -> Self {
        self.step(ScriptAction::FailEdge(a, b))
    }

    /// Restore a link.
    pub fn restore_edge(self, a: usize, b: usize) -> Self {
        self.step(ScriptAction::RestoreEdge(a, b))
    }

    /// Crash the controller.
    pub fn crash_controller(self) -> Self {
        self.step(ScriptAction::CrashController)
    }

    /// Restart the controller.
    pub fn restore_controller(self) -> Self {
        self.step(ScriptAction::RestoreController)
    }

    /// Partition the speaker↔controller channel.
    pub fn partition_control_channel(self) -> Self {
        self.step(ScriptAction::PartitionControlChannel)
    }

    /// Heal the speaker↔controller channel.
    pub fn heal_control_channel(self) -> Self {
        self.step(ScriptAction::HealControlChannel)
    }

    /// Set control-channel loss.
    pub fn set_control_loss(self, loss: f64) -> Self {
        self.step(ScriptAction::SetControlLoss(loss))
    }

    /// Crash a router device.
    pub fn crash_router(self, i: usize) -> Self {
        self.step(ScriptAction::CrashRouter(i))
    }

    /// Restore a crashed router device.
    pub fn restore_router(self, i: usize) -> Self {
        self.step(ScriptAction::RestoreRouter(i))
    }

    /// Start a silent traffic-drop window on an inter-AS link.
    pub fn drop_edge_traffic(self, a: usize, b: usize) -> Self {
        self.step(ScriptAction::DropEdgeTraffic(a, b))
    }

    /// End a silent traffic-drop window.
    pub fn restore_edge_traffic(self, a: usize, b: usize) -> Self {
        self.step(ScriptAction::RestoreEdgeTraffic(a, b))
    }

    /// Begin a measurement phase.
    pub fn mark(self) -> Self {
        self.step(ScriptAction::Mark)
    }

    /// Wait for convergence.
    pub fn wait_converged(self, max: SimDuration) -> Self {
        self.step(ScriptAction::WaitConverged { max })
    }

    /// Advance time.
    pub fn run_for(self, d: SimDuration) -> Self {
        self.step(ScriptAction::RunFor(d))
    }

    /// Assert reachability.
    pub fn expect_reachable(self, prefix: Prefix, origin: usize) -> Self {
        self.step(ScriptAction::ExpectReachable { prefix, origin })
    }

    /// Assert a prefix is fully gone.
    pub fn expect_gone(self, prefix: Prefix) -> Self {
        self.step(ScriptAction::ExpectGone { prefix })
    }

    /// Assert the forwarding audit passes.
    pub fn expect_full_connectivity(self) -> Self {
        self.step(ScriptAction::ExpectFullConnectivity)
    }
}

/// What one step did.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Step index.
    pub index: usize,
    /// Human-readable description of the action.
    pub action: String,
    /// Convergence report when the step waited for convergence.
    pub convergence: Option<ConvergenceReport>,
    /// Whether the step succeeded (expectations can fail).
    pub ok: bool,
}

/// Result of replaying a script.
#[derive(Debug, Clone)]
pub struct ScriptReport {
    /// Per-step outcomes.
    pub steps: Vec<StepOutcome>,
}

impl ScriptReport {
    /// True when every step succeeded.
    pub fn ok(&self) -> bool {
        self.steps.iter().all(|s| s.ok)
    }

    /// The first failing step, if any.
    pub fn first_failure(&self) -> Option<&StepOutcome> {
        self.steps.iter().find(|s| !s.ok)
    }

    /// Render a human-readable transcript.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.steps {
            let mark = if s.ok { "ok " } else { "FAIL" };
            out.push_str(&format!("[{mark}] step {:>2}: {}", s.index, s.action));
            if let Some(c) = &s.convergence {
                out.push_str(&format!(" (converged={} in {})", c.converged, c.duration));
            }
            out.push('\n');
        }
        out
    }
}

impl Experiment {
    /// Replay a script. Expectation failures are recorded (not panics) so a
    /// report always comes back; driving continues after failures. With
    /// verification on, every fault action (see
    /// [`ScriptAction::is_fault`]) is followed by a verifier checkpoint,
    /// as every convergence wait is.
    ///
    /// Before touching the simulator the script is statically validated
    /// ([`script_preflight`](Experiment::script_preflight)); a script with
    /// error findings (out-of-range index, unknown edge, loss outside
    /// `[0, 1]`, impossible expectation, …) is rejected with a single
    /// failed `pre-flight` step and nothing is executed.
    pub fn run_script(&mut self, script: &Script) -> ScriptReport {
        let preflight = self.script_preflight(script);
        if !preflight.ok() {
            return ScriptReport {
                steps: vec![StepOutcome {
                    index: 0,
                    action: format!("pre-flight rejected script:\n{}", preflight.render()),
                    convergence: None,
                    ok: false,
                }],
            };
        }
        let mut steps = Vec::with_capacity(script.steps.len());
        for (index, action) in script.steps.iter().enumerate() {
            let mut convergence = None;
            let ok = match action {
                ScriptAction::Announce { as_index, prefix } => {
                    self.announce(*as_index, *prefix);
                    true
                }
                ScriptAction::Withdraw { as_index, prefix } => {
                    self.withdraw(*as_index, *prefix);
                    true
                }
                ScriptAction::FailEdge(a, b) => {
                    self.fail_edge(*a, *b);
                    true
                }
                ScriptAction::RestoreEdge(a, b) => {
                    self.restore_edge(*a, *b);
                    true
                }
                ScriptAction::CrashController => {
                    self.crash_controller();
                    true
                }
                ScriptAction::RestoreController => {
                    self.restore_controller();
                    true
                }
                ScriptAction::PartitionControlChannel => {
                    self.partition_control_channel();
                    true
                }
                ScriptAction::HealControlChannel => {
                    self.heal_control_channel();
                    true
                }
                ScriptAction::SetControlLoss(p) => {
                    self.set_control_loss(*p);
                    true
                }
                ScriptAction::SetEdgeLoss(a, b, p) => {
                    self.set_edge_loss(*a, *b, *p);
                    true
                }
                ScriptAction::CrashRouter(i) => {
                    self.crash_router(*i);
                    true
                }
                ScriptAction::RestoreRouter(i) => {
                    self.restore_router(*i);
                    true
                }
                ScriptAction::DropEdgeTraffic(a, b) => {
                    self.drop_edge_traffic(*a, *b);
                    true
                }
                ScriptAction::RestoreEdgeTraffic(a, b) => {
                    self.restore_edge_traffic(*a, *b);
                    true
                }
                ScriptAction::Mark => {
                    self.mark();
                    true
                }
                ScriptAction::WaitConverged { max } => {
                    let report = self.wait_converged(*max);
                    let ok = report.converged;
                    convergence = Some(report);
                    ok
                }
                ScriptAction::RunFor(d) => {
                    self.net.sim.run_for(*d);
                    true
                }
                ScriptAction::ExpectReachable { prefix, origin } => {
                    self.prefix_reachable_from_all(*prefix, *origin)
                }
                ScriptAction::ExpectGone { prefix } => self.prefix_fully_gone(*prefix),
                ScriptAction::ExpectFullConnectivity => self.connectivity_audit().fully_connected(),
            };
            if action.is_fault() {
                self.auto_verify_checkpoint();
            }
            steps.push(StepOutcome {
                index,
                action: action.to_string(),
                convergence,
                ok,
            });
        }
        ScriptReport { steps }
    }
}
