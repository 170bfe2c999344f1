//! Oracle property test for the one executor: a timed fault schedule
//! lowered to a [`Script`] and replayed by `Experiment::run_script` must
//! do exactly what the replay loop it replaced did — advance to each
//! fault's offset, inject it, take a verifier checkpoint. Over random
//! paired schedules of the ten fault actions, on a 6-clique with a
//! 3-member cluster, hold timers on and verification on, both runs must
//! leave byte-identical traces (after `canonicalize_jsonl`), identical
//! `verify.*` counters and the same final time.

use proptest::prelude::*;

use bgpsdn_bgp::{PolicyMode, TimingConfig};
use bgpsdn_core::{Experiment, NetworkBuilder, Script, ScriptAction};
use bgpsdn_netsim::SimDuration;
use bgpsdn_obs::canonicalize_jsonl;
use bgpsdn_topology::{gen, plan, AsGraph};

/// ASes 0..2 legacy, 3..5 cluster members.
const N: usize = 6;
const MEMBERS: [usize; 3] = [3, 4, 5];
const DEADLINE: SimDuration = SimDuration::from_secs(3600);
const HOLD_SECS: u16 = 3;

/// The replay loop the old fault-plan type ran before schedules became
/// scripts, kept as the test-only reference.
mod reference {
    use bgpsdn_core::{Experiment, ScriptAction};
    use bgpsdn_netsim::{SimDuration, SimTime};

    pub fn apply(exp: &mut Experiment, events: &[(SimDuration, ScriptAction)]) -> SimTime {
        let mut events = events.to_vec();
        events.sort_by_key(|(at, _)| *at);
        let base = exp.net.sim.now();
        for &(offset, action) in &events {
            let target = base + offset;
            if target > exp.net.sim.now() {
                exp.net.sim.run_until(target);
            }
            match action {
                ScriptAction::CrashController => exp.crash_controller(),
                ScriptAction::RestoreController => exp.restore_controller(),
                ScriptAction::PartitionControlChannel => exp.partition_control_channel(),
                ScriptAction::HealControlChannel => exp.heal_control_channel(),
                ScriptAction::CrashRouter(i) => exp.crash_router(i),
                ScriptAction::RestoreRouter(i) => exp.restore_router(i),
                ScriptAction::FailEdge(a, b) => exp.fail_edge(a, b),
                ScriptAction::RestoreEdge(a, b) => exp.restore_edge(a, b),
                ScriptAction::DropEdgeTraffic(a, b) => exp.drop_edge_traffic(a, b),
                ScriptAction::RestoreEdgeTraffic(a, b) => exp.restore_edge_traffic(a, b),
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
    }
}
