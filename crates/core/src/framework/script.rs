//! Declarative experiment scripts.
//!
//! The paper's framework lets experimenters write setups in Python and
//! "actively control the experiments, e.g., dynamically changing the
//! topology and verifying the effects of changes". [`Script`] is that
//! orchestration layer in data form: a sequence of actions (announce,
//! withdraw, fail/restore links, wait for convergence) interleaved with
//! executable expectations (prefix reachable/gone, full connectivity),
//! replayed against an [`Experiment`] into a step-by-step report. A seeded
//! chaos schedule ([`super::faults`]) is a script too.
//! [`Experiment::run_script`] replays both, running each step through
//! [`Experiment::apply`], the one executor of an action.

use bgpsdn_collector::ConvergenceReport;
use bgpsdn_netsim::SimDuration;

pub use bgpsdn_analyze::ScriptAction;

use super::experiment::Experiment;

/// An ordered experiment script: plain data, `Script { steps: vec![..] }`.
#[derive(Debug, Clone, Default)]
pub struct Script {
    /// The steps, executed in order.
    pub steps: Vec<ScriptAction>,
}

impl Script {
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
    /// Replay a script, each step through [`Experiment::apply`]. Failed
    /// expectations are recorded, not panicked, and driving continues.
    /// With verification on, every fault step
    /// ([`ScriptAction::is_fault`]) is followed by a verifier checkpoint,
    /// as every convergence wait is. A script with pre-flight errors
    /// ([`script_preflight`](Experiment::script_preflight): out-of-range
    /// index, unknown edge, loss outside `[0, 1]`, impossible expectation,
    /// …) comes back as one failed `pre-flight` step, nothing executed.
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
            let (ok, convergence) = self.apply(action);
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
