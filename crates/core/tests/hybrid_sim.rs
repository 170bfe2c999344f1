//! End-to-end tests of the hybrid framework: legacy BGP + SDN cluster +
//! speaker + controller + collector, assembled by the network builder and
//! driven through the experiment API.

use bgpsdn_bgp::{PolicyMode, TimingConfig};
use bgpsdn_core::{
    AsKind, Controller, EventKind, Experiment, JobSpec, NetworkBuilder, Router, Script,
    ScriptAction, Speaker, Switch,
};
use bgpsdn_netsim::{Counter, LatencyModel, SimDuration, TraceCategory, TraceEvent};
use bgpsdn_sdn::FlowAction;
use bgpsdn_topology::ipalloc::as_prefix;
use bgpsdn_topology::{gen, plan, AsEdge, AsGraph, EdgeKind, TopologyPlan};

fn clique_plan(n: usize, mrai_secs: u64) -> TopologyPlan {
    plan(
        AsGraph::all_peer(&gen::clique(n), 65000),
        PolicyMode::AllPermit,
        TimingConfig::with_mrai(SimDuration::from_secs(mrai_secs)),
    )
    .unwrap()
}

const HOUR: SimDuration = SimDuration::from_secs(3600);

#[test]
fn hybrid_bring_up_full_connectivity() {
    let net = NetworkBuilder::new(clique_plan(8, 0), 11)
        .with_sdn_members([4, 5, 6, 7])
        .build();
    let mut exp = Experiment::new(net);
    let up = exp.start(HOUR);
    assert!(up.converged);

    // Every alias session established.
    let speaker = exp.net.clusters[0].speaker;
    let sp = exp.net.sim.node_ref::<Speaker>(speaker);
    for s in 0..sp.session_count() {
        assert!(sp.session_established(s), "alias session {s} down");
    }

    // Legacy routers have full tables: 7 foreign prefixes + own.
    for a in exp.net.legacy() {
        let r = exp.net.sim.node_ref::<Router>(a.node);
        assert_eq!(r.loc_rib().len(), 8, "AS {} table", a.asn);
    }
    // Member switches have a flow for every prefix.
    for a in exp.net.members() {
        let sw = exp.net.sim.node_ref::<Switch>(a.node);
        assert_eq!(sw.table().len(), 8, "switch {} flows", a.asn);
    }

    // The headline audit: every AS can reach every AS's address through the
    // real forwarding state, legacy FIBs and flow tables combined.
    let audit = exp.connectivity_audit();
    assert!(
        audit.fully_connected(),
        "blackholes/loops: {:?}",
        audit.failures
    );
    assert_eq!(audit.total(), 8 * 8 - 8);
}

#[test]
fn member_prefixes_route_internally() {
    let net = NetworkBuilder::new(clique_plan(6, 0), 12)
        .with_sdn_members([3, 4, 5])
        .build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(HOUR).converged);
    // Traffic from member 3 to member 4's prefix must use the intra-cluster
    // link, not an external detour.
    let m3 = exp.net.ases[3].node;
    let m4 = exp.net.ases[4].node;
    let p4 = exp.net.ases[4].prefix;
    let sw = exp.net.sim.node_ref::<Switch>(m3);
    match sw.table().lookup(p4.nth(1)).map(|r| r.action) {
        Some(FlowAction::Output(port)) => {
            let link = exp.net.sim.link(bgpsdn_netsim::LinkId(port));
            assert_eq!(link.other(m3), m4, "one intra-cluster hop");
        }
        other => panic!("expected intra-cluster output, got {other:?}"),
    }
    // And at the owner the flow delivers locally.
    let sw4 = exp.net.sim.node_ref::<Switch>(m4);
    assert_eq!(
        sw4.table().lookup(p4.nth(1)).map(|r| r.action),
        Some(FlowAction::Local)
    );
}

#[test]
fn withdrawal_converges_and_cleans_up_at_all_fractions() {
    for &k in &[0usize, 2, 5] {
        let s = JobSpec {
            timing: TimingConfig::with_mrai(SimDuration::from_secs(5)),
            seed: 77,
            ..JobSpec::clique(5, k)
        };
        let out = s.run(|_| {}).0;
        assert!(out.converged, "k={k}");
        assert!(out.audit_ok, "k={k}: stale state after withdrawal");
    }
}

#[test]
fn announcement_event_reaches_everyone() {
    for &k in &[0usize, 3] {
        let s = JobSpec {
            timing: TimingConfig::with_mrai(SimDuration::from_secs(5)),
            seed: 5,
            event: EventKind::Announcement,
            ..JobSpec::clique(6, k)
        };
        let out = s.run(|_| {}).0;
        assert!(out.converged && out.audit_ok, "k={k}");
        assert!(out.updates > 0);
    }
}

/// The announced /17 lies inside the origin's /16, which alone delivers
/// traffic to it: an announcement that never spreads must still fail the
/// audit.
#[test]
fn an_announcement_withdrawn_again_fails_its_audit() {
    let (lo, _) = as_prefix(0).unwrap().split();
    for &k in &[0usize, 3] {
        let s = JobSpec {
            timing: TimingConfig::with_mrai(SimDuration::from_secs(5)),
            seed: 5,
            event: EventKind::Announcement,
            script: Some(Script {
                steps: vec![ScriptAction::Withdraw {
                    as_index: 0,
                    prefix: Some(lo),
                }],
            }),
            ..JobSpec::clique(6, k)
        };
        let (out, exp) = s.run(|_| {});
        assert!(out.converged && !out.audit_ok, "k={k}: {out:?}");
        assert!(exp.connectivity_audit().fully_connected(), "k={k}");
    }
}

#[test]
fn failover_event_restores_reachability() {
    for &k in &[0usize, 3] {
        let s = JobSpec {
            timing: TimingConfig::with_mrai(SimDuration::from_secs(5)),
            seed: 6,
            event: EventKind::Failover,
            ..JobSpec::clique(6, k)
        };
        let out = s.run(|_| {}).0;
        assert!(out.converged && out.audit_ok, "k={k}");
    }
}

#[test]
fn centralization_reduces_withdrawal_convergence_monotonically() {
    // The paper's headline claim at reduced scale: an 8-clique with MRAI
    // 10 s; convergence time must decrease as the SDN fraction grows.
    let conv = |k: usize| -> f64 {
        let s = JobSpec {
            timing: TimingConfig::with_mrai(SimDuration::from_secs(10)),
            seed: 31,
            ..JobSpec::clique(8, k)
        };
        let out = s.run(|_| {}).0;
        assert!(out.converged && out.audit_ok, "k={k}");
        out.convergence.as_secs_f64()
    };
    let c0 = conv(0);
    let c2 = conv(2);
    let c4 = conv(4);
    let c6 = conv(6);
    let c8 = conv(8);
    assert!(
        c0 > c2 && c2 > c4 && c4 > c6 && c6 >= c8,
        "expected monotone decrease, got {c0:.1} {c2:.1} {c4:.1} {c6:.1} {c8:.1}"
    );
    assert!(c0 > 20.0, "pure BGP must show MRAI-paced exploration: {c0}");
    assert!(
        c8 < 1.0,
        "full centralization must converge immediately: {c8}"
    );
}

#[test]
fn controller_loop_avoidance_counts_cluster_crossing_paths() {
    let net = NetworkBuilder::new(clique_plan(6, 0), 13)
        .with_sdn_members([3, 4, 5])
        .build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(HOUR).converged);
    let c = exp.net.clusters[0].controller;
    // In an all-permit clique, legacy routers re-advertise cluster routes
    // back at the cluster, so crossing paths must have been observed.
    assert!(exp.net.sim.counter(c, Counter::RoutesRejectedLoop) > 0);
    // And yet the data plane is loop-free.
    let audit = exp.connectivity_audit();
    assert!(audit.fully_connected(), "{:?}", audit.failures);
}

/// Topology for partition tests: two members A–B bridged by one intra link,
/// each with a legacy neighbor, and the legacy world connected.
///
/// ```text
///   l0 ---- l1
///    |       |
///    A ====== B      (==== intra-cluster)
/// ```
fn partition_plan() -> TopologyPlan {
    let ag = AsGraph {
        asns: vec![
            bgpsdn_bgp::Asn(65000), // l0
            bgpsdn_bgp::Asn(65001), // l1
            bgpsdn_bgp::Asn(65002), // A
            bgpsdn_bgp::Asn(65003), // B
        ],
        edges: vec![
            AsEdge {
                a: 0,
                b: 1,
                kind: EdgeKind::PeerPeer,
            }, // l0-l1
            AsEdge {
                a: 0,
                b: 2,
                kind: EdgeKind::PeerPeer,
            }, // l0-A
            AsEdge {
                a: 1,
                b: 3,
                kind: EdgeKind::PeerPeer,
            }, // l1-B
            AsEdge {
                a: 2,
                b: 3,
                kind: EdgeKind::PeerPeer,
            }, // A-B (intra)
        ],
    };
    plan(
        ag,
        PolicyMode::AllPermit,
        TimingConfig::with_mrai(SimDuration::ZERO),
    )
    .unwrap()
}

#[test]
fn subcluster_partition_recovers_over_legacy_world() {
    let net = NetworkBuilder::new(partition_plan(), 21)
        .with_sdn_members([2, 3])
        .build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(HOUR).converged);
    let audit = exp.connectivity_audit();
    assert!(
        audit.fully_connected(),
        "pre-partition: {:?}",
        audit.failures
    );

    // Pre-partition: A reaches B's prefix over the intra-cluster link.
    let a_node = exp.net.ases[2].node;
    let b_node = exp.net.ases[3].node;
    let b_prefix = exp.net.ases[3].prefix;
    let sw_a = exp.net.sim.node_ref::<Switch>(a_node);
    match sw_a.table().lookup(b_prefix.nth(1)).map(|r| r.action) {
        Some(FlowAction::Output(port)) => {
            assert_eq!(
                exp.net.sim.link(bgpsdn_netsim::LinkId(port)).other(a_node),
                b_node
            );
        }
        other => panic!("{other:?}"),
    }

    // Split the cluster.
    exp.mark();
    exp.apply(&ScriptAction::FailEdge(2, 3));
    let rep = exp.wait_converged(HOUR);
    assert!(rep.converged);

    // The controller now runs two sub-clusters.
    let c = exp.net.clusters[0].controller;
    let ctl = exp.net.sim.node_ref::<Controller>(c);
    assert_eq!(ctl.switch_graph().components().1, 2);

    // A reaches B's prefix via its legacy egress now (l0), over the legacy
    // world — §2's "paths over the legacy Internet could still connect the
    // sub-clusters".
    let sw_a = exp.net.sim.node_ref::<Switch>(a_node);
    let l0_node = exp.net.ases[0].node;
    match sw_a.table().lookup(b_prefix.nth(1)).map(|r| r.action) {
        Some(FlowAction::Output(port)) => {
            assert_eq!(
                exp.net.sim.link(bgpsdn_netsim::LinkId(port)).other(a_node),
                l0_node,
                "must egress to the legacy neighbor"
            );
        }
        other => panic!("post-partition flow: {other:?}"),
    }
    let audit = exp.connectivity_audit();
    assert!(
        audit.fully_connected(),
        "post-partition: {:?}",
        audit.failures
    );

    // Healing the link restores internal routing.
    exp.mark();
    exp.apply(&ScriptAction::RestoreEdge(2, 3));
    assert!(exp.wait_converged(HOUR).converged);
    let sw_a = exp.net.sim.node_ref::<Switch>(a_node);
    match sw_a.table().lookup(b_prefix.nth(1)).map(|r| r.action) {
        Some(FlowAction::Output(port)) => {
            assert_eq!(
                exp.net.sim.link(bgpsdn_netsim::LinkId(port)).other(a_node),
                b_node,
                "healed cluster must route internally again"
            );
        }
        other => panic!("post-heal flow: {other:?}"),
    }
}

#[test]
fn scenario_runs_are_deterministic() {
    let s = JobSpec {
        timing: TimingConfig::with_mrai(SimDuration::from_secs(5)),
        seed: 99,
        ..JobSpec::clique(6, 3)
    };
    let a = s.run(|_| {}).0;
    let b = s.run(|_| {}).0;
    assert_eq!(a.convergence, b.convergence);
    assert_eq!(a.updates, b.updates);
    assert_eq!(a.flow_mods, b.flow_mods);

    let s2 = JobSpec { seed: 100, ..s };
    let c = s2.run(|_| {}).0;
    assert_ne!(
        (a.convergence, a.updates),
        (c.convergence, c.updates),
        "different seeds must differ somewhere"
    );
}

#[test]
fn gao_rexford_internet_like_topology_converges() {
    // A small CAIDA-style synthetic topology under Gao-Rexford with the SDN
    // cluster at the top-degree ASes (tier-1s).
    use bgpsdn_topology::caida::{synthesize, SynthesisParams};
    let mut rng = bgpsdn_netsim::SimRng::seed_from_u64(500);
    let params = SynthesisParams {
        tier1: 3,
        mid: 6,
        stubs: 12,
        ..Default::default()
    };
    let ag = synthesize(&params, &mut rng);
    let tp = plan(
        ag,
        PolicyMode::GaoRexford,
        TimingConfig::with_mrai(SimDuration::from_secs(5)),
    )
    .unwrap();
    let net = NetworkBuilder::new(tp, 501)
        .with_sdn_members([0, 1, 2])
        .with_data_latency(LatencyModel::Fixed(SimDuration::from_millis(3)))
        .build();
    let mut exp = Experiment::new(net);
    let up = exp.start(HOUR);
    assert!(up.converged);

    // A stub withdraws; the network must clean up.
    let stub = 20; // last stub index (3 + 6 + 12 = 21 ASes)
    assert_eq!(exp.net.ases[stub].kind, AsKind::Legacy);
    exp.mark();
    exp.apply(&ScriptAction::Withdraw {
        as_index: stub,
        prefix: None,
    });
    let rep = exp.wait_converged(HOUR);
    assert!(rep.converged);
    assert!(exp.prefix_fully_gone(exp.net.ases[stub].prefix));
}

#[test]
fn recompute_delay_batches_bursty_input() {
    // With a large recompute delay, a burst of external updates triggers
    // exactly one controller recomputation.
    let run = |delay_ms: u64| -> (u64, u64) {
        let s = JobSpec {
            timing: TimingConfig::with_mrai(SimDuration::ZERO),
            recompute_delay: SimDuration::from_millis(delay_ms),
            seed: 303,
            ..JobSpec::clique(6, 3)
        };
        let mut exp = Experiment::new(s.builder().build());
        assert!(exp.start(HOUR).converged);
        let c = exp.net.clusters[0].controller;
        let before = exp.net.sim.counter(c, Counter::Recomputes);
        exp.mark();
        exp.apply(&ScriptAction::Withdraw {
            as_index: 0,
            prefix: None,
        });
        assert!(exp.wait_converged(HOUR).converged);
        let counter = |id| exp.net.sim.counter(c, id);
        (
            counter(Counter::Recomputes) - before,
            counter(Counter::FlowModsSent),
        )
    };
    let (recomputes_slow, _) = run(2_000);
    let (recomputes_fast, _) = run(0);
    assert!(
        recomputes_slow < recomputes_fast,
        "batching must reduce recomputations: {recomputes_slow} vs {recomputes_fast}"
    );
}

#[test]
fn collector_sees_the_withdrawal_storm() {
    let s = JobSpec {
        timing: TimingConfig::with_mrai(SimDuration::from_secs(5)),
        seed: 404,
        ..JobSpec::clique(6, 0)
    };
    let out = s.run(|_| {}).0;
    let collector_time = out.collector_convergence.expect("collector present");
    assert!(
        collector_time > SimDuration::ZERO,
        "collector must observe updates"
    );
    // Collector-observed convergence is close to board-observed (within the
    // monitor-session propagation slack).
    let diff = collector_time
        .as_secs_f64()
        .sub_abs(out.convergence.as_secs_f64());
    assert!(
        diff < 1.0,
        "collector {collector_time} vs board {}",
        out.convergence
    );
}

/// Every UPDATE a fault-free run sends is delivered: per (sender, receiver)
/// pair, the `update_sent` and `update_delivered` records balance. A
/// cluster's speaker sends and receives for its members' alias sessions,
/// so a member stands for its speaker.
#[test]
fn every_update_sent_is_delivered_on_a_fault_free_run() {
    for sdn in [0, 4, 8, 15] {
        let spec = JobSpec {
            seed: 20140817,
            ..JobSpec::clique(16, sdn)
        };
        let (out, exp) = spec.run(|sim| sim.trace_mut().enable(TraceCategory::Msg));
        assert!(out.converged && out.audit_ok);
        let net = &exp.net;
        let trace = net.sim.trace();
        assert_eq!(trace.dropped(), 0);
        let mut speaker_of = std::collections::BTreeMap::new();
        for c in &net.clusters {
            for &m in &c.members {
                speaker_of.insert(net.ases[m].node.0, c.speaker.0);
            }
        }
        let end = |n: u32| *speaker_of.get(&n).unwrap_or(&n);
        let mut balance = std::collections::BTreeMap::<(u32, u32), i64>::new();
        for rec in trace.records() {
            let me = rec.node.expect("messages are a node's").0;
            match rec.event {
                TraceEvent::UpdateSent { peer, .. } => {
                    *balance.entry((me, end(peer))).or_default() += 1;
                }
                TraceEvent::UpdateDelivered { peer, .. } => {
                    *balance.entry((end(peer), me)).or_default() -= 1;
                }
                _ => {}
            }
        }
        balance.retain(|_, n| *n != 0);
        assert!(
            balance.is_empty(),
            "sdn {sdn}: unbalanced pairs {balance:?}"
        );
    }
}

trait SubAbs {
    fn sub_abs(self, other: f64) -> f64;
}
impl SubAbs for f64 {
    fn sub_abs(self, other: f64) -> f64 {
        (self - other).abs()
    }
}

#[test]
fn ping_stream_measures_failover_outage() {
    // 6-clique, members {3,4,5}; stream from legacy AS1 into member AS5's
    // prefix; the direct link fails mid-stream and later heals.
    let net = NetworkBuilder::new(clique_plan(6, 5), 77)
        .with_sdn_members([3, 4, 5])
        .build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(HOUR).converged);
    let dst = exp.net.ases[5].prefix.nth(9);
    let report = exp.ping_stream(1, dst, SimDuration::from_millis(100), 80, |exp, tick| {
        if tick == 20 {
            exp.apply(&ScriptAction::FailEdge(1, 5));
        }
        if tick == 50 {
            exp.apply(&ScriptAction::RestoreEdge(1, 5));
        }
    });
    assert_eq!(report.sent, 80);
    assert!(report.received >= 70, "stream mostly alive: {report:?}");
    assert!(report.loss_ratio < 0.15, "{report:?}");
    assert!(
        report.longest_outage <= SimDuration::from_millis(500),
        "failover gap must be short: {report:?}"
    );
    // The timeline shows life before, during and after the failure window.
    assert!(report.timeline[5] && report.timeline[40] && report.timeline[75]);
}

#[test]
fn a_failure_meets_the_probe_already_on_its_way() {
    // Pure BGP 5-clique: AS 1 probes AS 0 over their direct link. The link
    // fails at tick 10, after probe 10 left, so that probe dies on the
    // link; the session teardown reroutes every later probe at once.
    let net = NetworkBuilder::new(clique_plan(5, 5), 79).build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(HOUR).converged);
    let dst = exp.net.ases[0].prefix.nth(9);
    let report = exp.ping_stream(1, dst, SimDuration::from_millis(100), 20, |exp, tick| {
        if tick == 10 {
            exp.apply(&ScriptAction::FailEdge(1, 0));
        }
    });
    let lost: Vec<usize> = (0..20).filter(|&t| !report.timeline[t]).collect();
    assert_eq!(lost, [10], "{report:?}");
    assert_eq!(report.received, 19);
}

#[test]
fn ping_stream_reports_total_loss_for_unreachable_target() {
    let net = NetworkBuilder::new(clique_plan(4, 0), 78).build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(HOUR).converged);
    let report = exp.ping_stream(
        0,
        std::net::Ipv4Addr::new(198, 51, 100, 1), // TEST-NET-2: no route
        SimDuration::from_millis(50),
        10,
        |_, _| {},
    );
    assert_eq!(report.received, 0);
    assert!((report.loss_ratio - 1.0).abs() < 1e-9);
    assert_eq!(report.outage_intervals, 9, "all but the first interval");
}

#[test]
fn scripted_experiment_lifecycle() {
    use bgpsdn_core::Script;
    let net = NetworkBuilder::new(clique_plan(6, 2), 88)
        .with_sdn_members([3, 4, 5])
        .build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(HOUR).converged);
    let p0 = exp.net.ases[0].prefix;

    let script = Script {
        steps: vec![
            ScriptAction::ExpectFullConnectivity,
            ScriptAction::Mark,
            ScriptAction::Withdraw {
                as_index: 0,
                prefix: None,
            },
            ScriptAction::WaitConverged { max: HOUR },
            ScriptAction::ExpectGone { prefix: p0 },
            ScriptAction::Mark,
            ScriptAction::Announce {
                as_index: 0,
                prefix: None,
            },
            ScriptAction::WaitConverged { max: HOUR },
            ScriptAction::ExpectReachable {
                prefix: p0,
                origin: 0,
            },
            ScriptAction::Mark,
            ScriptAction::FailEdge(0, 1),
            ScriptAction::WaitConverged { max: HOUR },
            ScriptAction::ExpectReachable {
                prefix: p0,
                origin: 0,
            },
            ScriptAction::RestoreEdge(0, 1),
            ScriptAction::WaitConverged { max: HOUR },
            ScriptAction::ExpectFullConnectivity,
        ],
    };

    let report = exp.run_script(&script);
    assert!(report.ok(), "script transcript:\n{}", report.render());
    assert_eq!(report.steps.len(), 16);
    let transcript = report.render();
    assert!(transcript.contains("withdraw own prefix of AS#0"));
    assert!(transcript.contains("converged=true"));
}

#[test]
fn script_reports_expectation_failures_without_panicking() {
    use bgpsdn_core::Script;
    let net = NetworkBuilder::new(clique_plan(4, 0), 89).build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(HOUR).converged);
    let p0 = exp.net.ases[0].prefix;
    // After a data-plane fault the analyzer cannot predict expectation
    // outcomes, so the script executes — and the runtime expectation
    // failure is recorded, not panicked.
    let script = Script {
        steps: vec![
            ScriptAction::DropEdgeTraffic(0, 1),
            // p0 is still reachable: fails cleanly at runtime
            ScriptAction::ExpectGone { prefix: p0 },
            ScriptAction::RestoreEdgeTraffic(0, 1),
            ScriptAction::ExpectReachable {
                prefix: p0,
                origin: 0,
            },
        ],
    };
    let report = exp.run_script(&script);
    assert!(!report.ok());
    assert_eq!(report.first_failure().unwrap().index, 1);
    assert!(report.steps[3].ok);

    // A statically impossible expectation (p0 is announced and nothing in
    // the script disturbs it) is rejected by pre-flight before execution.
    let bad = Script {
        steps: vec![ScriptAction::ExpectGone { prefix: p0 }],
    };
    let report = exp.run_script(&bad);
    assert!(!report.ok());
    assert_eq!(report.steps.len(), 1);
    assert!(
        report.steps[0]
            .action
            .contains("script.expect_gone_announced"),
        "transcript:\n{}",
        report.render()
    );
}

#[test]
fn hybrid_runs_with_keepalives_enabled() {
    // Hold/keepalive timers on: the network never goes event-silent, but
    // maintenance-class timers don't block quiescence detection, so the
    // event wait converges just as the bring-up does.
    let mut tp = clique_plan(5, 2);
    for r in &mut tp.routers {
        r.timing.hold_time_secs = 9;
    }
    let net = NetworkBuilder::new(tp, 92).with_sdn_members([3, 4]).build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(HOUR).converged);
    exp.mark();
    exp.apply(&ScriptAction::Withdraw {
        as_index: 0,
        prefix: None,
    });
    let rep = exp.wait_converged(HOUR);
    assert!(rep.converged);
    assert!(exp.prefix_fully_gone(exp.net.ases[0].prefix));
    // Keepalives actually flowed.
    let r0 = exp.net.ases[0].node;
    assert!(exp.net.sim.counter(r0, Counter::SessionsEstablished) > 0);
}

#[test]
fn more_specific_prefix_wins_in_both_planes() {
    // AS 0 originates its /16; AS 1 (legacy) announces a /17 inside it.
    // Both legacy FIBs and cluster flow tables must prefer the /17 for
    // addresses it covers, per longest-prefix match.
    let net = NetworkBuilder::new(clique_plan(6, 0), 93)
        .with_sdn_members([4, 5])
        .build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(HOUR).converged);
    let p16 = exp.net.ases[0].prefix;
    let (p17, _) = p16.split();
    exp.mark();
    exp.apply(&ScriptAction::Announce {
        as_index: 1,
        prefix: Some(p17),
    });
    assert!(exp.wait_converged(HOUR).converged);

    let in_17 = p17.nth(5);
    let in_16_only = p16.nth(p16.size() - 5); // upper half: /16 only

    // Legacy AS 2 routes by LPM.
    let r2 = exp.net.sim.node_ref::<Router>(exp.net.ases[2].node);
    let next = |ip| r2.loc_rib().lpm(ip).and_then(|(p, _)| r2.next_hop_node(p));
    assert_eq!(next(in_17), Some(exp.net.ases[1].node));
    assert_eq!(next(in_16_only), Some(exp.net.ases[0].node));

    // Member switch routes by flow-table LPM toward the right egress.
    let sw = exp.net.sim.node_ref::<Switch>(exp.net.ases[4].node);
    let via = |ip| match sw.table().lookup(ip).map(|r| r.action) {
        Some(bgpsdn_sdn::FlowAction::Output(port)) => exp
            .net
            .sim
            .link(bgpsdn_netsim::LinkId(port))
            .other(exp.net.ases[4].node),
        other => panic!("unexpected action {other:?}"),
    };
    assert_eq!(via(in_17), exp.net.ases[1].node);
    assert_eq!(via(in_16_only), exp.net.ases[0].node);
}

#[test]
fn controller_model_matches_installed_flows() {
    // Strong consistency invariant: after convergence, the controller's
    // on-demand computation agrees with what it believes is installed, for
    // every prefix and member.
    use bgpsdn_core::MemberDecision;
    let net = NetworkBuilder::new(clique_plan(8, 0), 95)
        .with_sdn_members([4, 5, 6, 7])
        .build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(HOUR).converged);

    let c = exp.net.clusters[0].controller;
    let ctl = exp.net.sim.node_ref::<Controller>(c);
    for a in exp.net.ases.iter() {
        let prefix = a.prefix;
        let comp = ctl.computation_for(prefix);
        for (m, decision) in comp.decisions.iter().enumerate() {
            let installed = ctl.installed_action(m, prefix);
            match decision {
                MemberDecision::Unreachable => assert!(installed.is_none()),
                MemberDecision::Local => {
                    assert_eq!(installed, Some(FlowAction::Local), "{prefix} at m{m}");
                }
                MemberDecision::ViaMember(_) | MemberDecision::Egress(_) => {
                    assert!(
                        matches!(installed, Some(FlowAction::Output(_))),
                        "{prefix} at m{m}: {installed:?}"
                    );
                }
            }
        }
    }

    // And the switches' real tables agree with the controller's model.
    for (asi, mi) in exp.net.member_index.clone() {
        let sw = exp.net.sim.node_ref::<Switch>(exp.net.ases[asi].node);
        for rule in sw.table().iter() {
            assert_eq!(
                exp.net
                    .sim
                    .node_ref::<Controller>(c)
                    .installed_action(mi, rule.prefix),
                Some(rule.action),
                "switch {asi} rule for {} diverges from the controller model",
                rule.prefix
            );
        }
    }
}

#[test]
fn alias_announcements_preserve_as_identity() {
    // Every route a legacy router learns from a cluster member's alias
    // session must have that member's ASN as its first AS hop — "ASes
    // within the cluster maintain their AS identity".
    let net = NetworkBuilder::new(clique_plan(6, 0), 96)
        .with_sdn_members([3, 4, 5])
        .build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(HOUR).converged);

    for legacy in exp.net.legacy() {
        let r = exp.net.sim.node_ref::<Router>(legacy.node);
        for (i, n) in r.config().neighbors.iter().enumerate() {
            let Some(member) = exp.net.ases.iter().find(|a| a.node == n.peer) else {
                continue;
            };
            if member.kind != AsKind::SdnMember {
                continue;
            }
            for prefix in exp.net.ases.iter().map(|a| a.prefix) {
                if let Some(entry) = r.adj_in().get(prefix, i) {
                    assert_eq!(
                        entry.attrs.as_path.first_asn(),
                        Some(member.asn),
                        "AS{} heard {prefix} from alias {} with wrong identity [{}]",
                        legacy.asn.0,
                        member.asn,
                        entry.attrs.as_path
                    );
                }
            }
        }
    }
}
