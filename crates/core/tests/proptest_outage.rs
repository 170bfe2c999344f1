//! Oracle property test for the reliable speaker↔controller protocol:
//! over random routing schedules punctuated by a controller outage
//! (crash+restart or control-channel partition+heal) and run under random
//! control-channel loss, the final compiled state must be byte-identical
//! to a fault-free, lossless oracle driven through the same schedule —
//! installed flow tables on every member, adj-out on every session, and
//! session liveness. Any divergence means the resync protocol lost or
//! duplicated state.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use bgpsdn_bgp::{PolicyMode, Prefix, TimingConfig};
use bgpsdn_core::{Controller, Experiment, NetworkBuilder, ScriptAction, Speaker};
use bgpsdn_netsim::SimDuration;
use bgpsdn_topology::{gen, plan, AsGraph};

/// Clique size: ASes 0..2 stay legacy, 3..5 form the cluster.
const N: usize = 6;
const MEMBERS: [usize; 3] = [3, 4, 5];
const DEADLINE: SimDuration = SimDuration::from_secs(3600);

/// One step of the random schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// AS `origin` announces its `sub`-th /24.
    Announce { origin: usize, sub: usize },
    /// AS `origin` withdraws its `sub`-th /24 (no-op when never announced).
    Withdraw { origin: usize, sub: usize },
    /// Clique edge `a`–`b` flaps (down, converge, up).
    Flap { a: usize, b: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..N, 0..4usize).prop_map(|(origin, sub)| Op::Announce { origin, sub }),
        (0..N, 0..4usize).prop_map(|(origin, sub)| Op::Withdraw { origin, sub }),
        (0..N, 1..N).prop_map(|(a, d)| Op::Flap { a, b: (a + d) % N }),
    ]
}

/// The op applied *inside* the outage window. Announce/withdraw commands
/// injected into a crashed controller vanish (they model operator intent,
/// which needs a live controller), so the mid-outage op only originates
/// from legacy ASes; flaps are fair game anywhere — member link changes
/// must be recovered from the post-restart table sync.
fn arb_outage_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..MEMBERS[0], 0..4usize).prop_map(|(origin, sub)| Op::Announce { origin, sub }),
        (0..MEMBERS[0], 0..4usize).prop_map(|(origin, sub)| Op::Withdraw { origin, sub }),
        (0..N, 1..N).prop_map(|(a, d)| Op::Flap { a, b: (a + d) % N }),
    ]
}

fn build(seed: u64, control_loss: f64) -> Experiment {
    let ag = AsGraph::all_peer(&gen::clique(N), 65000);
    let tp = plan(
        ag,
        PolicyMode::AllPermit,
        TimingConfig::with_mrai(SimDuration::ZERO),
    )
    .expect("address plan");
    let net = NetworkBuilder::new(tp, seed)
        .with_sdn_members(MEMBERS.to_vec())
        .with_recompute_delay(SimDuration::from_millis(50))
        .with_control_loss(control_loss)
        .build();
    let mut exp = Experiment::new(net);
    let up = exp.start(DEADLINE);
    assert!(up.converged, "bring-up did not converge");
    exp
}

fn quiesce(exp: &mut Experiment) {
    let deadline = exp.net.sim.now() + DEADLINE;
    let q = exp.net.sim.run_until_quiescent(deadline);
    assert!(q.quiescent, "schedule step did not quiesce");
}

fn apply(exp: &mut Experiment, op: Op) {
    match op {
        Op::Announce { origin, sub } => {
            let p = sub_prefix(exp.net.ases[origin].prefix, sub);
            exp.apply(&ScriptAction::Announce {
                as_index: origin,
                prefix: Some(p),
            });
            quiesce(exp);
        }
        Op::Withdraw { origin, sub } => {
            let p = sub_prefix(exp.net.ases[origin].prefix, sub);
            exp.apply(&ScriptAction::Withdraw {
                as_index: origin,
                prefix: Some(p),
            });
            quiesce(exp);
        }
        Op::Flap { a, b } => {
            exp.apply(&ScriptAction::FailEdge(a, b));
            quiesce(exp);
            exp.apply(&ScriptAction::RestoreEdge(a, b));
            quiesce(exp);
        }
    }
}

/// The `sub`-th aligned /24 inside an AS's /16 block.
fn sub_prefix(base: Prefix, sub: usize) -> Prefix {
    Prefix::new(Ipv4Addr::from(base.network_u32() + ((sub as u32) << 8)), 24)
        .expect("aligned /24 inside the /16")
}

proptest! {
    #[test]
    fn outage_run_matches_fault_free_oracle(
        seed in 0u64..1000,
        loss_step in 0usize..3,
        ops in prop::collection::vec(arb_op(), 1..6),
        outage_op in arb_outage_op(),
        outage_at in 0usize..8,
        partition in prop::arbitrary::any::<bool>(),
    ) {
        let control_loss = [0.0, 0.1, 0.25][loss_step];
        let mut faulty = build(seed, control_loss);
        let mut oracle = build(seed, 0.0);

        let outage_at = outage_at % (ops.len() + 1);
        for (i, &op) in ops.iter().enumerate() {
            if i == outage_at {
                outage(&mut faulty, partition, outage_op);
                apply(&mut oracle, outage_op);
            }
            apply(&mut faulty, op);
            apply(&mut oracle, op);
        }
        if outage_at == ops.len() {
            outage(&mut faulty, partition, outage_op);
            apply(&mut oracle, outage_op);
        }
        settle(&mut faulty);

        let a = faulty
            .net
            .sim
            .node_ref::<Controller>(faulty.net.clusters[0].controller);
        let b = oracle
            .net
            .sim
            .node_ref::<Controller>(oracle.net.clusters[0].controller);
        prop_assert!(!a.resync_pending(), "resync must have completed");
        for m in 0..a.member_count() {
            prop_assert_eq!(
                a.installed_table(m),
                b.installed_table(m),
                "installed flow table diverged at member {} after {:?} + outage {:?}@{} (partition={}, loss={})",
                m, ops, outage_op, outage_at, partition, control_loss
            );
        }
        for s in 0..a.session_count() {
            prop_assert_eq!(
                a.adj_out_table(s),
                b.adj_out_table(s),
                "adj-out diverged at session {} after {:?} + outage {:?}@{} (partition={}, loss={})",
                s, ops, outage_op, outage_at, partition, control_loss
            );
            prop_assert_eq!(a.session_is_up(s), b.session_is_up(s));
        }
        let spk = faulty
            .net
            .sim
            .node_ref::<Speaker>(faulty.net.clusters[0].speaker);
        prop_assert!(!spk.is_headless(), "speaker must have rejoined");
        prop_assert!(spk.stats().resyncs >= 1, "the outage must force a resync");

        // Final sweep: the settled faulty run must pass the full static
        // verifier — loop-free, blackhole-free, intent-consistent.
        let v = faulty.verify_now().report;
        prop_assert!(v.ok(), "post-outage invariant violations:\n{}", v.render());
    }
}

/// Take the controller away (by crash or by partition), let the hold
/// timers declare it dead, change the world underneath it, bring it back,
/// and give the Maintenance-class heartbeats a beat of wall time to drive
/// the rejoin before quiescing.
fn outage(exp: &mut Experiment, partition: bool, op: Op) {
    if partition {
        exp.apply(&ScriptAction::PartitionControlChannel);
    } else {
        exp.apply(&ScriptAction::CrashController);
    }
    // Both hold timers (3 s) expire; the speaker goes headless.
    exp.net.sim.run_for(SimDuration::from_secs(5));
    apply(exp, op);
    if partition {
        exp.apply(&ScriptAction::HealControlChannel);
    } else {
        exp.apply(&ScriptAction::RestoreController);
    }
    settle(exp);
}

/// Let the control plane settle. A lossy channel can spuriously declare a
/// live controller dead (heartbeats are best-effort); recovery is
/// heartbeat-driven and heartbeats are Maintenance-class, so
/// `run_until_quiescent` alone never waits for the rejoin. Grant bounded
/// wall-clock time until speaker and controller agree on a live epoch.
fn settle(exp: &mut Experiment) {
    for _ in 0..16 {
        quiesce(exp);
        let spk = exp.net.sim.node_ref::<Speaker>(exp.net.clusters[0].speaker);
        let ctl = exp
            .net
            .sim
            .node_ref::<Controller>(exp.net.clusters[0].controller);
        if !spk.is_headless() && !ctl.resync_pending() && spk.epoch() == ctl.epoch() {
            return;
        }
        exp.net.sim.run_for(SimDuration::from_secs(2));
    }
    panic!("control plane did not settle");
}
