//! Router crash/restart robustness: data-plane fault injection must heal.
//!
//! A crashed legacy router stops processing entirely; its peers only learn
//! of the outage when their hold timers expire, tear the sessions down,
//! and withdraw everything learned from it. A restart re-establishes the
//! sessions and re-advertises the full table. With RFC 4724 graceful
//! restart negotiated, peers instead retain the dead router's routes as
//! stale for the restart window and flush only what is not re-announced.
//! Every test drives a faulty run and a fault-free oracle and demands the
//! frozen verifier snapshots end up byte-identical.

use bgpsdn_analyze::Severity;
use bgpsdn_bgp::{PolicyMode, TimingConfig};
use bgpsdn_core::{EventKind, Experiment, JobSpec, NetworkBuilder, Router, Script, ScriptAction};
use bgpsdn_netsim::{Counter, SimDuration};
use bgpsdn_topology::{gen, plan, AsGraph};

/// ASes 0..2 legacy, 3..5 cluster members.
const N: usize = 6;
const MEMBERS: [usize; 3] = [3, 4, 5];
const DEADLINE: SimDuration = SimDuration::from_secs(3600);
/// Short hold time so crash detection fits in seconds-scale tests.
const HOLD_SECS: u16 = 3;

fn build(seed: u64, gr_secs: u16) -> Experiment {
    let ag = AsGraph::all_peer(&gen::clique(N), 65000);
    let mut timing = TimingConfig::with_mrai(SimDuration::ZERO);
    timing.hold_time_secs = HOLD_SECS;
    timing.graceful_restart_secs = gr_secs;
    let tp = plan(ag, PolicyMode::AllPermit, timing).expect("address plan");
    let net = NetworkBuilder::new(tp, seed)
        .with_sdn_members(MEMBERS.to_vec())
        .with_recompute_delay(SimDuration::from_millis(50))
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

/// The frozen verifier snapshot is the canonical "what does the network
/// believe" form: routes, flow tables, port/session liveness — and no
/// timestamps or counters, so byte-equality is the right oracle check.
fn snapshot_bytes(exp: &Experiment) -> String {
    exp.capture_snapshot().to_json().to_compact()
}

fn router(exp: &Experiment, i: usize) -> &Router {
    exp.net.sim.node_ref::<Router>(exp.net.ases[i].node)
}

fn counter(exp: &Experiment, i: usize, id: Counter) -> u64 {
    exp.net.sim.counter(exp.net.ases[i].node, id)
}

#[test]
fn crash_expires_holds_and_restart_readvertises() {
    let mut faulty = build(31, 0);
    let mut oracle = build(31, 0);
    let p1 = faulty.net.ases[1].prefix;

    faulty.apply(&ScriptAction::CrashRouter(1));
    faulty.net.sim.run_for(SimDuration::from_secs(6));
    assert!(!faulty.router_is_up(1));
    // Hold timers expired at the peers: the direct route via the crashed
    // router is withdrawn, not silently retained. (The SDN cluster may
    // still offer transit — its speaker sessions negotiate hold 0 — so
    // the prefix itself can survive via a member switch.)
    for i in [0usize, 2] {
        assert_ne!(
            router(&faulty, i).next_hop_node(p1),
            Some(faulty.net.ases[1].node),
            "AS {i} must stop forwarding directly to the crashed router"
        );
        assert!(
            counter(&faulty, i, Counter::SessionsDropped) >= 1,
            "AS {i} must record the torn session"
        );
    }

    faulty.apply(&ScriptAction::RestoreRouter(1));
    quiesce(&mut faulty);
    assert!(faulty.router_is_up(1));
    for i in [0usize, 2] {
        assert!(
            router(&faulty, i).loc_rib().get(p1).is_some(),
            "restart must re-advertise the full table to AS {i}"
        );
        assert!(
            counter(&faulty, i, Counter::SessionsReestablished) >= 1,
            "AS {i} must record the re-established session"
        );
    }
    assert!(faulty.connectivity_audit().fully_connected());

    quiesce(&mut oracle);
    assert_eq!(
        snapshot_bytes(&faulty),
        snapshot_bytes(&oracle),
        "crash+restart must converge to the fault-free snapshot"
    );
    let v = faulty.verify_now().report;
    assert!(v.ok(), "post-restart invariant violations:\n{}", v.render());
}

#[test]
fn graceful_restart_retains_stale_until_peer_resumes() {
    let mut faulty = build(37, 60);
    let mut oracle = build(37, 60);
    let p1 = faulty.net.ases[1].prefix;

    faulty.apply(&ScriptAction::CrashRouter(1));
    faulty.net.sim.run_for(SimDuration::from_secs(6));
    // Hold expired, but GR was negotiated: the route survives, marked
    // stale, instead of being withdrawn.
    for i in [0usize, 2] {
        assert!(
            router(&faulty, i).loc_rib().get(p1).is_some(),
            "AS {i} must retain the crashed router's prefix under GR"
        );
        assert!(
            router(&faulty, i).route_is_gr_stale(p1),
            "AS {i}'s retained route must be marked stale"
        );
        assert!(counter(&faulty, i, Counter::StaleRetained) > 0);
    }
    // The static verifier sees the stale route over a down next hop as
    // consistent-but-stale, not as a blackhole at the legacy router.
    let mid = faulty.verify_now().report;
    assert!(
        mid.findings
            .iter()
            .any(|f| f.severity == Severity::Warning && f.message.contains("consistent-but-stale")),
        "mid-crash verify must note the stale retained paths:\n{}",
        mid.render()
    );

    faulty.apply(&ScriptAction::RestoreRouter(1));
    quiesce(&mut faulty);
    // Quiescence waits for the Progress-class stale-flush timer, so by now
    // the re-announced routes are fresh and nothing is stale any more.
    for i in [0usize, 2] {
        assert!(!router(&faulty, i).route_is_gr_stale(p1));
        assert!(counter(&faulty, i, Counter::SessionsReestablished) >= 1);
    }
    assert!(faulty.connectivity_audit().fully_connected());

    quiesce(&mut oracle);
    assert_eq!(
        snapshot_bytes(&faulty),
        snapshot_bytes(&oracle),
        "GR crash+restart must converge to the fault-free snapshot"
    );
    let v = faulty.verify_now().report;
    assert!(v.ok(), "post-GR invariant violations:\n{}", v.render());
}

#[test]
fn graceful_restart_window_expiry_flushes_stale() {
    let mut faulty = build(41, 10);
    let mut oracle = build(41, 10);
    let p1 = faulty.net.ases[1].prefix;

    faulty.apply(&ScriptAction::CrashRouter(1));
    faulty.net.sim.run_for(SimDuration::from_secs(6));
    assert!(router(&faulty, 0).route_is_gr_stale(p1));

    // The peer never resumes within the 10 s window: the stale routes are
    // flushed exactly as if GR had not been negotiated, and forwarding
    // falls back to cluster transit instead of the dead direct route.
    faulty.net.sim.run_for(SimDuration::from_secs(10));
    assert!(!router(&faulty, 0).route_is_gr_stale(p1));
    assert_ne!(
        router(&faulty, 0).next_hop_node(p1),
        Some(faulty.net.ases[1].node),
        "window expiry must flush the stale direct route"
    );

    faulty.apply(&ScriptAction::RestoreRouter(1));
    quiesce(&mut faulty);
    quiesce(&mut oracle);
    assert_eq!(
        snapshot_bytes(&faulty),
        snapshot_bytes(&oracle),
        "late restart must still converge to the fault-free snapshot"
    );
}

#[test]
fn graceful_restart_cuts_reconvergence_churn() {
    let churn = |gr_secs: u16| -> u64 {
        let mut exp = build(43, gr_secs);
        let before: u64 = (0..MEMBERS[0])
            .map(|i| counter(&exp, i, Counter::UpdatesSent))
            .sum();
        exp.apply(&ScriptAction::CrashRouter(1));
        exp.net.sim.run_for(SimDuration::from_secs(6));
        exp.apply(&ScriptAction::RestoreRouter(1));
        quiesce(&mut exp);
        let after: u64 = (0..MEMBERS[0])
            .map(|i| counter(&exp, i, Counter::UpdatesSent))
            .sum();
        after - before
    };
    let with_gr = churn(60);
    let without_gr = churn(0);
    assert!(
        with_gr < without_gr,
        "graceful restart must reduce reconvergence churn: \
         {with_gr} updates with GR vs {without_gr} without"
    );
}

#[test]
fn silent_data_loss_is_detected_by_hold_timers() {
    let mut faulty = build(47, 0);
    let mut oracle = build(47, 0);

    // 100% data loss on the 0–1 edge: no LinkDown event is ever seen, so
    // only the keepalive/hold machinery can notice.
    faulty.apply(&ScriptAction::DropEdgeTraffic(0, 1));
    faulty.net.sim.run_for(SimDuration::from_secs(6));
    assert!(
        counter(&faulty, 0, Counter::SessionsDropped) >= 1,
        "hold timer must detect the silently dead session"
    );

    faulty.apply(&ScriptAction::RestoreEdgeTraffic(0, 1));
    quiesce(&mut faulty);
    quiesce(&mut oracle);
    assert_eq!(
        snapshot_bytes(&faulty),
        snapshot_bytes(&oracle),
        "healed silent fault must converge to the fault-free snapshot"
    );
    let v = faulty.verify_now().report;
    assert!(v.ok(), "post-heal invariant violations:\n{}", v.render());
}

#[test]
fn script_actions_drive_a_router_outage() {
    let mut exp = build(53, 0);
    let script = Script {
        steps: vec![
            ScriptAction::Mark,
            ScriptAction::CrashRouter(1),
            ScriptAction::RunFor(SimDuration::from_secs(6)),
            ScriptAction::RestoreRouter(1),
            ScriptAction::WaitConverged { max: DEADLINE },
            ScriptAction::ExpectFullConnectivity,
            ScriptAction::DropEdgeTraffic(0, 2),
            ScriptAction::RunFor(SimDuration::from_secs(6)),
            ScriptAction::RestoreEdgeTraffic(0, 2),
            ScriptAction::WaitConverged { max: DEADLINE },
            ScriptAction::ExpectFullConnectivity,
        ],
    };
    let report = exp.run_script(&script);
    assert!(report.ok(), "script failed:\n{}", report.render());
}

/// A fail-over chaos job that used to end with the network split in two,
/// {AS0, AS1} and {AS2..AS5}. Fail-over topology, n 6, MRAI 1 s, hold 9 s,
/// GR off. The event fails 0–2 at 2.78 s (end of bring-up); then, in
/// absolute time, AS2 crashes at 47.12 s, 1–3 fails at 51.35 s, AS3
/// crashes at 54.35 s, 1–3 comes back at 57.08 s, AS2 at 60.46 s and AS3
/// at 66.42 s. The OPENs AS2 (restart) and AS1 (link up) send toward the
/// crashed AS3 are lost; AS3's own OPEN later moves both to OpenConfirm,
/// and their KEEPALIVE replies reach AS3 in OpenSent. Ignoring them wedged
/// both sessions; RFC 4271 makes them an FSM error that a retry heals.
#[test]
fn overlapping_crashes_around_a_relay_flap_heal() {
    let at = SimDuration::from_nanos;
    let faults = Script::from_offsets(vec![
        (at(44_337_945_504), ScriptAction::CrashRouter(2)),
        (at(48_567_199_132), ScriptAction::FailEdge(1, 3)),
        (at(51_576_296_516), ScriptAction::CrashRouter(3)),
        (at(54_304_425_243), ScriptAction::RestoreEdge(1, 3)),
        (at(57_684_886_417), ScriptAction::RestoreRouter(2)),
        (at(63_642_159_857), ScriptAction::RestoreRouter(3)),
    ]);
    let mut spec = JobSpec {
        timing: TimingConfig::with_mrai(SimDuration::from_secs(1)),
        event: EventKind::Failover,
        script: Some(faults),
        seed: 12_518_816_874_335_010_179,
        ..JobSpec::clique(6, 0)
    };
    spec.timing.hold_time_secs = 9;
    let (outcome, mut exp) = spec.run(|_| {});
    assert!(outcome.converged && outcome.audit_ok, "{outcome:?}");
    let report = exp.run_script(&Script {
        steps: vec![ScriptAction::ExpectFullConnectivity],
    });
    assert!(report.ok(), "{}", report.render());
}
