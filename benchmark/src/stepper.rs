//! The traced run's event loop: the harness, not `run_until_quiescent`,
//! drives [`Simulator::step`], timing every step and charging it to a step
//! kind and — best effort, from outside — to a node kind.
//!
//! The simulator is deterministic and tracing never changes behaviour, so
//! the number of events a phase needs is known from the untraced pass; the
//! stepper runs exactly that many and the caller then confirms quiescence
//! through the framework's own wait (which must process zero further
//! events — itself a check that tracing did not change the model).

use std::time::Instant;

use bgpsdn_collector::{measure, ConvergenceReport};
use bgpsdn_core::{AsKind, Experiment, HybridNetwork, Sim};
use bgpsdn_netsim::{SimDuration, SimTime};

use crate::spans::SpanLog;
use crate::stats::{quantile_sorted, ratio};
use crate::workloads::PHASE_DEADLINE;

/// What a step did, read off the [`bgpsdn_netsim::SimStats`] delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepKind {
    Deliver = 0,
    Timer = 1,
    Stale = 2,
    Other = 3,
}

/// Which kind of node a step's trace records name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A legacy BGP router.
    Router = 0,
    /// A cluster BGP speaker.
    Speaker = 1,
    /// An IDR controller.
    Controller = 2,
    /// An SDN switch.
    Switch = 3,
    /// The route collector.
    Collector = 4,
    /// The step emitted no node-attributed record.
    Unattributed = 5,
}

/// Node id → node kind for one built network.
pub fn node_kinds(net: &HybridNetwork) -> Vec<NodeKind> {
    let mut kinds = vec![NodeKind::Unattributed; net.sim.node_count()];
    for a in &net.ases {
        kinds[a.node.index()] = match a.kind {
            AsKind::Legacy => NodeKind::Router,
            AsKind::SdnMember => NodeKind::Switch,
        };
    }
    for c in &net.clusters {
        kinds[c.speaker.index()] = NodeKind::Speaker;
        kinds[c.controller.index()] = NodeKind::Controller;
    }
    if let Some(c) = net.collector {
        kinds[c.index()] = NodeKind::Collector;
    }
    kinds
}

/// `Experiment::start` with the harness driving the event loop: a zero
/// horizon emits the phase marker and handles the time-zero events, the
/// stepper drives the rest of the `events` the untraced bring-up needed,
/// and the simulator must then be quiescent with nothing left to do.
///
/// # Panics
///
/// When events are left over: tracing changed the model.
pub fn stepped_start(
    exp: &mut Experiment,
    events: u64,
    steps: &mut StepProfile,
    kinds: &[NodeKind],
    spans: &mut SpanLog,
) -> ConvergenceReport {
    let _ = exp.start(SimDuration::ZERO);
    let done = exp.net.sim.stats().events_processed;
    steps.drive(&mut exp.net.sim, events - done, kinds, spans);
    let deadline = exp.net.sim.now() + PHASE_DEADLINE;
    let q = exp.net.sim.run_until_quiescent(deadline);
    assert!(
        q.quiescent && q.events == 0,
        "stepped bring-up left {} events: tracing changed the model",
        q.events
    );
    measure(exp.net.sim.board(), SimTime::ZERO, q.quiescent)
}

/// Accumulated step timings of one traced pass.
#[derive(Debug, Default)]
pub struct StepProfile {
    /// Host nanoseconds of every step, in execution order.
    step_ns: Vec<u32>,
    kind_ns: [u64; 4],
    node_ns: [u64; 6],
}

impl StepProfile {
    /// Drive exactly `steps` events of `sim` under one `netsim.step` span,
    /// timing each.
    ///
    /// # Panics
    ///
    /// When the queue runs dry early: the traced pass diverged from the
    /// untraced one.
    pub fn drive(&mut self, sim: &mut Sim, steps: u64, kinds: &[NodeKind], spans: &mut SpanLog) {
        let span = spans.enter("netsim.step");
        self.step_ns.reserve(usize::try_from(steps).unwrap_or(0));
        for _ in 0..steps {
            let (delivered, fired, stale) = {
                let s = sim.stats();
                (s.msgs_delivered, s.timers_fired, s.timers_stale)
            };
            let seen = sim.trace().len() as u64 + sim.trace().dropped();
            let t0 = Instant::now();
            let alive = sim.step();
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            assert!(alive, "event queue ran dry: traced pass diverged");
            self.step_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));

            let s = sim.stats();
            let kind = if s.msgs_delivered > delivered {
                StepKind::Deliver
            } else if s.timers_fired > fired {
                StepKind::Timer
            } else if s.timers_stale > stale {
                StepKind::Stale
            } else {
                StepKind::Other
            };
            self.kind_ns[kind as usize] += ns;

            let trace = sim.trace();
            let fresh = (trace.len() as u64 + trace.dropped() - seen).min(trace.len() as u64);
            // The ring's iterator skips in O(1), so this touches only the
            // records this step appended.
            let node = trace
                .records()
                .skip(trace.len() - usize::try_from(fresh).unwrap_or(0))
                .find_map(|r| r.node)
                .and_then(|n| kinds.get(n.index()).copied())
                .unwrap_or(NodeKind::Unattributed);
            self.node_ns[node as usize] += ns;
        }
        spans.exit(span);
    }

    /// Emit the `netsim.step.*` metrics.
    pub fn report(&self, out: &mut crate::workloads::Layers) {
        let mut sorted: Vec<f64> = self.step_ns.iter().map(|&n| f64::from(n)).collect();
        sorted.sort_by(f64::total_cmp);
        out.set("netsim.step.ns_p50", quantile_sorted(&sorted, 0.50));
        out.set("netsim.step.ns_p99", quantile_sorted(&sorted, 0.99));
        let total = self.kind_ns.iter().sum::<u64>() as f64;
        let share = |ns: u64| ratio(ns as f64, total);
        out.set(
            "netsim.step.deliver_share",
            share(self.kind_ns[StepKind::Deliver as usize]),
        );
        out.set(
            "netsim.step.timer_share",
            share(self.kind_ns[StepKind::Timer as usize]),
        );
        out.set(
            "netsim.step.stale_share",
            share(self.kind_ns[StepKind::Stale as usize]),
        );
        for (name, kind) in [
            ("netsim.step.router_share", NodeKind::Router),
            ("netsim.step.speaker_share", NodeKind::Speaker),
            ("netsim.step.controller_share", NodeKind::Controller),
            ("netsim.step.switch_share", NodeKind::Switch),
            ("netsim.step.collector_share", NodeKind::Collector),
            ("netsim.step.unattributed_share", NodeKind::Unattributed),
        ] {
            out.set(name, share(self.node_ns[kind as usize]));
        }
    }
}
