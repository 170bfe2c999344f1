//! Controller-outage robustness: the reliable speaker↔controller protocol
//! must make control-channel loss, partitions, and controller
//! crash-restarts invisible in the *final* routing state. Every test here
//! drives a faulty run and a fault-free oracle through the same schedule
//! and demands byte-identical compiled state at the end — controller
//! installed tables and adj-out, speaker adj-out, and the switches' actual
//! flow tables.

use bgpsdn_bgp::{PolicyMode, TimingConfig};
use bgpsdn_core::{
    Controller, Experiment, FaultClasses, FaultSpec, NetworkBuilder, Script, ScriptAction, Speaker,
    Switch,
};
use bgpsdn_netsim::{Counter, SimDuration};
use bgpsdn_sdn::FlowRule;
use bgpsdn_topology::{gen, plan, AsGraph};

/// ASes 0..2 legacy, 3..5 cluster members.
const N: usize = 6;
const MEMBERS: [usize; 3] = [3, 4, 5];
const DEADLINE: SimDuration = SimDuration::from_secs(3600);

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
    assert!(q.quiescent, "run did not quiesce");
}

/// Assert the two experiments compiled byte-identical state everywhere the
/// controller's decisions are visible.
fn assert_state_identical(a: &Experiment, b: &Experiment, what: &str) {
    let actl = a
        .net
        .sim
        .node_ref::<Controller>(a.net.clusters[0].controller);
    let bctl = b
        .net
        .sim
        .node_ref::<Controller>(b.net.clusters[0].controller);
    for m in 0..actl.member_count() {
        assert_eq!(
            actl.installed_table(m),
            bctl.installed_table(m),
            "{what}: controller installed table diverged at member {m}"
        );
    }
    for s in 0..actl.session_count() {
        assert_eq!(
            actl.adj_out_table(s),
            bctl.adj_out_table(s),
            "{what}: controller adj-out diverged at session {s}"
        );
        assert_eq!(
            actl.session_is_up(s),
            bctl.session_is_up(s),
            "{what}: session-up diverged at session {s}"
        );
    }
    let aspk = a.net.sim.node_ref::<Speaker>(a.net.clusters[0].speaker);
    let bspk = b.net.sim.node_ref::<Speaker>(b.net.clusters[0].speaker);
    for s in 0..aspk.session_count() {
        assert_eq!(
            aspk.adj_out_table(s),
            bspk.adj_out_table(s),
            "{what}: speaker adj-out diverged at session {s}"
        );
    }
    // The switch table is insertion-ordered (match order is resolved by
    // priority/length, not position), so compare as sorted rule sets.
    let sorted_rules = |e: &Experiment, node| -> Vec<FlowRule> {
        let mut rules: Vec<FlowRule> = e
            .net
            .sim
            .node_ref::<Switch>(node)
            .table()
            .iter()
            .cloned()
            .collect();
        rules.sort_by_key(|r| {
            (
                r.priority,
                r.prefix.network_u32(),
                r.prefix.len(),
                format!("{:?}", r.action),
            )
        });
        rules
    };
    for (ah, bh) in a.net.members().zip(b.net.members()) {
        assert_eq!(
            sorted_rules(a, ah.node),
            sorted_rules(b, bh.node),
            "{what}: switch flow table diverged at AS {}",
            ah.index
        );
    }
}

/// Drive the same routing schedule through both experiments.
fn routing_schedule(exp: &mut Experiment) {
    // A fresh /17 from a legacy AS, a withdrawal, and a member-member flap.
    let (lo, _) = exp.net.ases[0].prefix.split();
    exp.apply(&ScriptAction::Announce {
        as_index: 0,
        prefix: Some(lo),
    });
    quiesce(exp);
    exp.apply(&ScriptAction::Withdraw {
        as_index: 1,
        prefix: None,
    });
    quiesce(exp);
    exp.apply(&ScriptAction::FailEdge(3, 4));
    quiesce(exp);
    exp.apply(&ScriptAction::RestoreEdge(3, 4));
    quiesce(exp);
    exp.apply(&ScriptAction::Announce {
        as_index: 1,
        prefix: None,
    });
    quiesce(exp);
}

#[test]
fn lossy_control_channel_matches_lossless_oracle() {
    // Acceptance criterion: Link.loss = 0.2 on the speaker↔controller
    // channel must not desynchronize anything.
    let mut lossy = build(7, 0.2);
    let mut oracle = build(7, 0.0);
    routing_schedule(&mut lossy);
    routing_schedule(&mut oracle);
    assert_state_identical(&lossy, &oracle, "loss=0.2");

    // The reliability machinery actually worked for a living.
    let speaker = lossy.net.clusters[0].speaker;
    let spk = lossy.net.sim.node_ref::<Speaker>(speaker);
    assert!(
        lossy.net.sim.counter(speaker, Counter::CtrlRetransmits) > 0,
        "20% loss must force speaker retransmissions"
    );
    assert!(!spk.is_headless(), "heartbeats survive 20% loss");
}

#[test]
fn controller_crash_restart_matches_fault_free_oracle() {
    let mut faulty = build(11, 0.0);
    let mut oracle = build(11, 0.0);

    // Crash the controller, change the world underneath it, restart it.
    // Admin changes are scheduled events, so run the sim before observing.
    faulty.apply(&ScriptAction::CrashController);
    faulty.net.sim.run_for(SimDuration::from_secs(5));
    assert!(!faulty.net.sim.node_is_up(faulty.net.clusters[0].controller));
    let spk = faulty
        .net
        .sim
        .node_ref::<Speaker>(faulty.net.clusters[0].speaker);
    assert!(
        spk.is_headless(),
        "speaker must detect controller loss via its hold timer"
    );
    // Legacy BGP keeps working while the cluster is headless.
    faulty.apply(&ScriptAction::Withdraw {
        as_index: 0,
        prefix: None,
    });
    quiesce(&mut faulty);
    faulty.apply(&ScriptAction::FailEdge(0, 1));
    quiesce(&mut faulty);
    faulty.apply(&ScriptAction::RestoreController);
    quiesce(&mut faulty);

    // The oracle sees the same world without ever losing its controller.
    oracle.apply(&ScriptAction::Withdraw {
        as_index: 0,
        prefix: None,
    });
    quiesce(&mut oracle);
    oracle.apply(&ScriptAction::FailEdge(0, 1));
    quiesce(&mut oracle);

    let (speaker, controller) = (
        faulty.net.clusters[0].speaker,
        faulty.net.clusters[0].controller,
    );
    let counter = |node, id| faulty.net.sim.counter(node, id);
    assert!(
        !faulty.net.sim.node_ref::<Speaker>(speaker).is_headless(),
        "restart must end headless mode"
    );
    assert!(counter(speaker, Counter::HeadlessEntered) >= 1);
    assert!(
        counter(speaker, Counter::SpeakerResyncs) >= 1,
        "restart must trigger a resync"
    );
    let ctl = faulty.net.sim.node_ref::<Controller>(controller);
    assert!(
        counter(controller, Counter::CtrlResyncs) >= 1,
        "controller must adopt the resync"
    );
    assert!(!ctl.resync_pending());

    assert_state_identical(&faulty, &oracle, "crash+restart");
}

#[test]
fn control_channel_partition_heals_via_resync() {
    let mut faulty = build(13, 0.0);
    let mut oracle = build(13, 0.0);

    faulty.apply(&ScriptAction::PartitionControlChannel);
    // Long enough for both hold timers (3 s) to fire.
    faulty.net.sim.run_for(SimDuration::from_secs(5));
    let spk = faulty
        .net
        .sim
        .node_ref::<Speaker>(faulty.net.clusters[0].speaker);
    assert!(spk.is_headless(), "partition looks like controller loss");
    // A routing change during the partition: the event is dropped headless
    // and must be recovered purely from the resync snapshot.
    faulty.apply(&ScriptAction::Withdraw {
        as_index: 2,
        prefix: None,
    });
    quiesce(&mut faulty);
    faulty.apply(&ScriptAction::HealControlChannel);
    quiesce(&mut faulty);

    oracle.apply(&ScriptAction::Withdraw {
        as_index: 2,
        prefix: None,
    });
    quiesce(&mut oracle);

    let speaker = faulty.net.clusters[0].speaker;
    assert!(!faulty.net.sim.node_ref::<Speaker>(speaker).is_headless());
    assert!(
        faulty
            .net
            .sim
            .counter(speaker, Counter::SpeakerEventsDropped)
            > 0,
        "headless mode drops events (observable, not silent)"
    );
    assert_state_identical(&faulty, &oracle, "partition+heal");
}

#[test]
fn headless_cluster_keeps_forwarding() {
    // Fail-static: with the controller gone, already-installed flow state
    // keeps the data plane fully connected.
    let mut exp = build(17, 0.0);
    let before = exp.connectivity_audit();
    assert!(
        before.fully_connected(),
        "bring-up must leave full connectivity"
    );
    exp.apply(&ScriptAction::CrashController);
    exp.net.sim.run_for(SimDuration::from_secs(10));
    let after = exp.connectivity_audit();
    assert!(
        after.fully_connected(),
        "headless cluster must keep forwarding (fail-static)"
    );
}

#[test]
fn script_fault_actions_drive_an_outage() {
    let mut exp = build(19, 0.0);
    let script = Script {
        steps: vec![
            ScriptAction::Mark,
            ScriptAction::CrashController,
            ScriptAction::RunFor(SimDuration::from_secs(5)),
            ScriptAction::ExpectFullConnectivity,
            ScriptAction::RestoreController,
            ScriptAction::WaitConverged { max: DEADLINE },
            ScriptAction::ExpectFullConnectivity,
            ScriptAction::SetControlLoss(0.1),
            ScriptAction::PartitionControlChannel,
            ScriptAction::RunFor(SimDuration::from_secs(5)),
            ScriptAction::HealControlChannel,
            ScriptAction::WaitConverged { max: DEADLINE },
            ScriptAction::ExpectFullConnectivity,
        ],
    };
    let report = exp.run_script(&script);
    assert!(report.ok(), "script failed:\n{}", report.render());
}

#[test]
fn chaos_fault_plan_converges_to_oracle_state() {
    let mut faulty = build(23, 0.0);
    let mut oracle = build(23, 0.0);

    let spec = FaultSpec {
        outages: 3,
        horizon: SimDuration::from_secs(30),
        classes: FaultClasses::CONTROL_ONLY,
    };
    let (schedule, note) = spec.schedule(23, true, &[0, 1, 2], &[]);
    assert!(note.is_none());
    assert_eq!(schedule.steps.iter().filter(|s| s.is_fault()).count(), 6);
    let report = faulty.run_script(&schedule);
    assert!(report.ok(), "{}", report.render());
    quiesce(&mut faulty);
    // Chaos must leave the system restored: every down fault has its up
    // twin, so the faulty run ends with controller up and channel healed.
    assert!(faulty.net.sim.node_is_up(faulty.net.clusters[0].controller));
    quiesce(&mut oracle);

    assert_state_identical(&faulty, &oracle, "chaos schedule");

    // And the restored data plane must pass the full static verifier.
    let v = faulty.verify_now().report;
    assert!(v.ok(), "post-chaos invariant violations:\n{}", v.render());
}

#[test]
fn explicit_fault_plan_replays_in_offset_order() {
    let mut exp = build(29, 0.0);
    let schedule = Script::from_offsets(vec![
        (SimDuration::from_secs(8), ScriptAction::RestoreController),
        (SimDuration::from_secs(2), ScriptAction::CrashController),
    ]);
    assert_eq!(
        schedule.steps,
        vec![
            ScriptAction::RunFor(SimDuration::from_secs(2)),
            ScriptAction::CrashController,
            ScriptAction::RunFor(SimDuration::from_secs(6)),
            ScriptAction::RestoreController,
        ]
    );
    let t0 = exp.net.sim.now();
    assert!(exp.run_script(&schedule).ok());
    assert_eq!(exp.net.sim.now(), t0 + SimDuration::from_secs(8));
    quiesce(&mut exp);
    assert!(exp.net.sim.node_is_up(exp.net.clusters[0].controller));
    assert!(exp.connectivity_audit().fully_connected());
    let v = exp.verify_now().report;
    assert!(v.ok(), "post-replay invariant violations:\n{}", v.render());
}
