//! Oracle property test for the one executor: a timed fault schedule
//! lowered to a [`Script`] and replayed by `Experiment::run_script` must
//! do exactly what the replay loop it replaced did — advance to each
//! fault's offset, inject it, take a verifier checkpoint. Over random
//! paired schedules of the ten fault actions, on a 6-clique with a
//! 3-member cluster, hold timers on and verification on, both runs must
//! leave byte-identical traces (after `canonicalize_jsonl`), identical
//! `verify.*` counters and the same final time.
//!
//! Over the same schedules, the two views of each counted fact must agree:
//! every exported counter's per-phase registry entries sum to the
//! cumulative rows `Simulator::counter` reads, and a job's outcome counts
//! what its event phase's counters count.

use proptest::prelude::*;

use bgpsdn_bgp::{PolicyMode, TimingConfig};
use bgpsdn_core::{Experiment, JobSpec, NetworkBuilder, Script, ScriptAction};
use bgpsdn_netsim::{Counter, NodeId, SimDuration};
use bgpsdn_obs::{canonicalize_jsonl, MetricValue, MetricsSnapshot};
use bgpsdn_topology::{gen, plan, AsGraph};

/// ASes 0..2 legacy, 3..5 cluster members.
const N: usize = 6;
const MEMBERS: [usize; 3] = [3, 4, 5];
const DEADLINE: SimDuration = SimDuration::from_secs(3600);
const HOLD_SECS: u16 = 3;

/// The replay loop the old fault-plan type ran before schedules became
/// scripts, kept as the test-only reference. Each fault is written out
/// with public simulator calls, as the per-fault `Experiment` methods did
/// before `Experiment::apply` absorbed them, so the reference shares no
/// executor with `run_script`.
mod reference {
    use bgpsdn_core::{Experiment, ScriptAction};
    use bgpsdn_netsim::{LinkId, SimDuration, SimTime};

    fn edge(exp: &Experiment, a: usize, b: usize) -> LinkId {
        exp.net.link_between(a, b).expect("an edge of the clique")
    }

    /// A silent drop window on an edge starts (`ppm` 1 000 000) or ends
    /// (0) through the event queue, so the change is traced.
    fn schedule_edge_loss(exp: &mut Experiment, a: usize, b: usize, ppm: u32) {
        let link = edge(exp, a, b);
        let now = exp.net.sim.now();
        exp.net.sim.schedule_link_loss(now, link, ppm);
        exp.net.sim.run_until(now);
    }

    pub fn apply(exp: &mut Experiment, events: &[(SimDuration, ScriptAction)]) -> SimTime {
        let mut events = events.to_vec();
        events.sort_by_key(|(at, _)| *at);
        let base = exp.net.sim.now();
        for &(offset, action) in &events {
            let target = base + offset;
            if target > exp.net.sim.now() {
                exp.net.sim.run_until(target);
            }
            let controller = exp.net.clusters[0].controller;
            let channel = exp.net.clusters[0].speaker_link;
            match action {
                ScriptAction::CrashController => exp.net.sim.set_node_admin(controller, false),
                ScriptAction::RestoreController => exp.net.sim.set_node_admin(controller, true),
                ScriptAction::PartitionControlChannel => exp.net.sim.set_link_admin(channel, false),
                ScriptAction::HealControlChannel => exp.net.sim.set_link_admin(channel, true),
                ScriptAction::CrashRouter(i) => {
                    let node = exp.net.ases[i].node;
                    exp.net.sim.set_node_admin(node, false);
                }
                ScriptAction::RestoreRouter(i) => {
                    let node = exp.net.ases[i].node;
                    exp.net.sim.set_node_admin(node, true);
                }
                ScriptAction::FailEdge(a, b) => {
                    let link = edge(exp, a, b);
                    exp.net.sim.set_link_admin(link, false);
                }
                ScriptAction::RestoreEdge(a, b) => {
                    let link = edge(exp, a, b);
                    exp.net.sim.set_link_admin(link, true);
                }
                ScriptAction::DropEdgeTraffic(a, b) => schedule_edge_loss(exp, a, b, 1_000_000),
                ScriptAction::RestoreEdgeTraffic(a, b) => schedule_edge_loss(exp, a, b, 0),
                other => panic!("`{other}` is not a fault"),
            }
            // `auto_verify_checkpoint`, spelled with public items.
            if exp.net.auto_verify {
                let _ = exp.verify_now();
            }
        }
        base + events.last().map_or(SimDuration::ZERO, |&(at, _)| at)
    }
}

/// One outage: `(start s, duration s, kind, a, b)`; whole seconds so equal
/// offsets (zero gaps) come up often.
fn arb_outage() -> impl Strategy<Value = (u64, u64, usize, usize, usize)> {
    (0u64..20, 0u64..15, 0usize..5, 0..N, 1..N)
}

fn paired(outages: &[(u64, u64, usize, usize, usize)]) -> Vec<(SimDuration, ScriptAction)> {
    let mut events = Vec::new();
    for &(start, dur, kind, a, d) in outages {
        let b = (a + d) % N;
        let (down, up) = match kind {
            0 => (
                ScriptAction::CrashController,
                ScriptAction::RestoreController,
            ),
            1 => (
                ScriptAction::PartitionControlChannel,
                ScriptAction::HealControlChannel,
            ),
            2 => (
                ScriptAction::CrashRouter(a % MEMBERS[0]),
                ScriptAction::RestoreRouter(a % MEMBERS[0]),
            ),
            3 => (
                ScriptAction::FailEdge(a, b),
                ScriptAction::RestoreEdge(a, b),
            ),
            _ => (
                ScriptAction::DropEdgeTraffic(a, b),
                ScriptAction::RestoreEdgeTraffic(a, b),
            ),
        };
        events.push((SimDuration::from_secs(start), down));
        events.push((SimDuration::from_secs(start + dur), up));
    }
    events
}

fn build(seed: u64) -> Experiment {
    let ag = AsGraph::all_peer(&gen::clique(N), 65000);
    let mut timing = TimingConfig::with_mrai(SimDuration::ZERO);
    timing.hold_time_secs = HOLD_SECS;
    let tp = plan(ag, PolicyMode::AllPermit, timing).expect("address plan");
    let net = NetworkBuilder::new(tp, seed)
        .with_sdn_members(MEMBERS.to_vec())
        .with_recompute_delay(SimDuration::from_millis(50))
        .with_verification()
        .build();
    let mut exp = Experiment::new(net);
    exp.net.sim.trace_mut().enable_all();
    assert!(exp.start(DEADLINE).converged, "bring-up did not converge");
    exp
}

/// What the two runs are compared on: canonical trace, verifier counters,
/// final time.
fn observe(exp: &Experiment) -> (String, [u64; 3], u64) {
    let m = exp.net.sim.metrics();
    let verify = [
        "verify.checks",
        "verify.violations",
        "verify.prefixes_checked",
    ]
    .map(|name| m.counter_total(name));
    let mut jsonl = String::new();
    exp.net.sim.trace().export_jsonl_into(&mut jsonl);
    (
        canonicalize_jsonl(&jsonl),
        verify,
        exp.net.sim.now().as_nanos(),
    )
}

/// Counter `name` summed over the nodes of one phase snapshot.
fn snapshot_total(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.entries
        .iter()
        .filter_map(|(_, key, value)| match value {
            MetricValue::Counter(n) if key == name => Some(*n),
            _ => None,
        })
        .sum()
}

/// For every exported counter: its closed phases plus the open one, as the
/// registry saw them, against the cumulative rows of every node and of the
/// simulator itself. The first disagreement, as `(name, phases, rows)`.
fn views_disagree(exp: &Experiment) -> Option<(&'static str, u64, u64)> {
    let sim = &exp.net.sim;
    Counter::EXPORTED.iter().find_map(|&(id, name)| {
        let phases: u64 = exp
            .phase_snapshots()
            .iter()
            .map(|(_, snap)| snapshot_total(snap, name))
            .sum::<u64>()
            + sim.metrics().counter_total(name);
        let rows: u64 = (0..sim.node_count() as u32)
            .map(|n| sim.counter(NodeId(n), id))
            .sum::<u64>()
            + sim.counter(None, id);
        (phases != rows).then_some((name, phases, rows))
    })
}

proptest! {
    #[test]
    fn lowered_schedule_replays_like_the_reference_loop(
        seed in 0u64..1000,
        outages in prop::collection::vec(arb_outage(), 1..4),
    ) {
        let events = paired(&outages);
        let mut lowered = build(seed);
        let mut oracle = build(seed);

        let report = lowered.run_script(&Script::from_offsets(events.clone()));
        prop_assert!(report.ok(), "{}", report.render());
        let end = reference::apply(&mut oracle, &events);
        prop_assert_eq!(oracle.net.sim.now(), end);
        prop_assert!(observe(&lowered) == observe(&oracle), "diverged after {:?}", events);

        // And they stay together through re-convergence.
        lowered.wait_converged(DEADLINE);
        oracle.wait_converged(DEADLINE);
        prop_assert!(observe(&lowered) == observe(&oracle), "diverged converging after {:?}", events);
        for exp in [&mut lowered, &mut oracle] {
            prop_assert_eq!(views_disagree(exp), None, "open phase after {:?}", events);
            exp.mark();
            prop_assert_eq!(views_disagree(exp), None, "closed phase after {:?}", events);
        }
    }

    #[test]
    fn a_job_outcome_counts_what_its_counters_count(
        seed in 0u64..1000,
        outages in prop::collection::vec(arb_outage(), 1..4),
    ) {
        let mut spec = JobSpec::clique(N, MEMBERS.len());
        spec.timing.hold_time_secs = HOLD_SECS;
        spec.recompute_delay = SimDuration::from_millis(50);
        spec.script = Some(Script::from_offsets(paired(&outages)));
        spec.verify = true;
        spec.seed = seed;
        let (outcome, exp) = spec.run(|_| {});
        prop_assert_eq!(views_disagree(&exp), None);
        let (phase, snap) = exp.phase_snapshots().last().expect("a closed event phase");
        prop_assert_eq!(phase.as_str(), spec.event.name());
        let total = |id: Counter| {
            let name = Counter::EXPORTED.iter().find(|(c, _)| *c == id).expect("exported").1;
            snapshot_total(snap, name)
        };
        prop_assert_eq!(
            outcome.updates,
            total(Counter::UpdatesSent) + total(Counter::SpeakerUpdatesOut)
        );
        // The outcome counts flow-table changes; the counter, FlowMods
        // applied. They differ only when a restarted controller re-sends
        // rules the switches still hold.
        let applied = total(Counter::FlowModsApplied);
        if outages.iter().all(|&(_, _, kind, _, _)| kind != 0) {
            prop_assert_eq!(outcome.flow_mods, applied, "seed {} {:?}", seed, outages);
        }
        prop_assert!(outcome.flow_mods <= applied, "seed {} {:?}", seed, outages);
    }
}
