//! Mutation tests: a known-clean snapshot verifies with zero violations,
//! and each deliberate corruption produces exactly the expected violation
//! with a witness naming the offending node/rule.

use std::net::Ipv4Addr;

use bgpsdn_bgp::{Asn, Prefix};
use bgpsdn_verify::{
    ControlHealth, Device, EdgeRel, LegacyRoute, NextHop, NodeState, PolicyKind, PortState,
    RelKind, RuleAction, SessionSnap, Snapshot, SwitchRule, Verifier, ViolationKind,
};

const PRIO: u16 = 100;

fn pfx(s: &str) -> Prefix {
    s.parse().expect("valid prefix literal")
}

/// A 4-node hybrid chain: as10 (legacy origin) — sw20 — sw30 — as40.
///
/// Traffic for 10.0.0.0/24 flows as40 -> sw30 -> sw20 -> as10; the two
/// switches are cluster members 0 and 1 with matching controller intent.
fn clean_snapshot() -> Snapshot {
    let p = pfx("10.0.0.0/24");
    Snapshot {
        nodes: vec![
            NodeState {
                name: "as10".into(),
                asn: Asn(10),
                originated: vec![p],
                device: Device::Legacy {
                    routes: vec![LegacyRoute {
                        prefix: p,
                        next: NextHop::Deliver,
                        as_path: vec![],
                        stale: false,
                    }],
                },
            },
            NodeState {
                name: "sw20".into(),
                asn: Asn(20),
                originated: vec![],
                device: Device::Member {
                    member: 0,
                    rules: vec![SwitchRule {
                        priority: PRIO,
                        prefix: p,
                        action: RuleAction::Output(1),
                    }],
                    ports: vec![
                        PortState {
                            port: 1,
                            peer: 0,
                            up: true,
                        },
                        PortState {
                            port: 2,
                            peer: 2,
                            up: true,
                        },
                    ],
                },
            },
            NodeState {
                name: "sw30".into(),
                asn: Asn(30),
                originated: vec![],
                device: Device::Member {
                    member: 1,
                    rules: vec![SwitchRule {
                        priority: PRIO,
                        prefix: p,
                        action: RuleAction::Output(1),
                    }],
                    ports: vec![
                        PortState {
                            port: 1,
                            peer: 1,
                            up: true,
                        },
                        PortState {
                            port: 2,
                            peer: 3,
                            up: true,
                        },
                    ],
                },
            },
            NodeState {
                name: "as40".into(),
                asn: Asn(40),
                originated: vec![],
                device: Device::Legacy {
                    routes: vec![LegacyRoute {
                        prefix: p,
                        next: NextHop::Via { peer: 2, up: true },
                        as_path: vec![Asn(30), Asn(20), Asn(10)],
                        stale: false,
                    }],
                },
            },
        ],
        edges: vec![
            EdgeRel {
                a: 0,
                b: 1,
                kind: RelKind::PeerPeer,
            },
            EdgeRel {
                a: 1,
                b: 2,
                kind: RelKind::PeerPeer,
            },
            EdgeRel {
                a: 2,
                b: 3,
                kind: RelKind::PeerPeer,
            },
        ],
        policy: PolicyKind::AllPermit,
        control: ControlHealth::Synced,
        flow_priority: PRIO,
        intent_flows: vec![
            vec![(p, RuleAction::Output(1))],
            vec![(p, RuleAction::Output(1))],
        ],
        sessions: vec![SessionSnap {
            member: 2,
            ext_peer: 3,
            established: true,
            ctrl_up: true,
            intent: vec![(p, vec![Asn(30), Asn(20), Asn(10)])],
            actual: vec![(p, vec![Asn(30), Asn(20), Asn(10)])],
        }],
    }
}

#[test]
fn clean_snapshot_has_zero_violations() {
    let snap = clean_snapshot();
    let report = Verifier::new().verify(&snap);
    assert!(report.ok(), "unexpected violations:\n{}", report.render());
    assert_eq!(report.prefixes_checked, 1);
    assert!(report.checks > 0);
    assert!(report.stale.is_empty());
}

#[test]
fn injected_loop_is_caught_with_witness() {
    let mut snap = clean_snapshot();
    // Corrupt sw20 to forward back toward sw30 (port 2) instead of the
    // origin; update intent to match so only the loop fires.
    let Device::Member { rules, .. } = &mut snap.nodes[1].device else {
        panic!("sw20 is a member");
    };
    rules[0].action = RuleAction::Output(2);
    snap.intent_flows[0][0].1 = RuleAction::Output(2);

    let report = Verifier::new().verify(&snap);
    assert_eq!(
        report.count_of(ViolationKind::Loop),
        1,
        "expected exactly one loop:\n{}",
        report.render()
    );
    let v = &report.violations[0];
    assert_eq!(v.kind, ViolationKind::Loop);
    assert!(v.witness.contains("sw20") && v.witness.contains("sw30"));
    assert!(v.detail.contains("10.0.0.0/24"));
}

#[test]
fn removed_rule_creates_blackhole_with_witness() {
    let mut snap = clean_snapshot();
    // Drop sw30's only rule (and its intent, so the drift check stays
    // quiet); as40 still forwards toward sw30, which now has no route.
    let Device::Member { rules, .. } = &mut snap.nodes[2].device else {
        panic!("sw30 is a member");
    };
    rules.clear();
    snap.intent_flows[1].clear();

    let report = Verifier::new().verify(&snap);
    assert_eq!(
        report.count_of(ViolationKind::Blackhole),
        1,
        "expected exactly one blackhole:\n{}",
        report.render()
    );
    let v = &report.violations[0];
    assert_eq!(v.node, "as40", "offender is the last node with a route");
    assert!(v.witness.contains("as40") && v.witness.contains("sw30"));
    assert!(v.witness.contains("no route"));
}

#[test]
fn down_link_creates_blackhole() {
    let mut snap = clean_snapshot();
    let Device::Member { ports, .. } = &mut snap.nodes[1].device else {
        panic!("sw20 is a member");
    };
    ports[0].up = false; // sw20's uplink to the origin goes down

    let report = Verifier::new().verify(&snap);
    assert_eq!(report.count_of(ViolationKind::Blackhole), 1);
    let v = &report.violations[0];
    assert_eq!(v.node, "sw20");
    assert!(v.witness.contains("link is down"), "witness: {}", v.witness);
}

#[test]
fn gr_stale_route_over_down_link_is_stale_not_blackhole() {
    // as40 retains its route under a graceful-restart window while the
    // link toward sw30 is down: the frozen forwarding state is the
    // deliberate RFC 4724 trade-off, reported as a stale note.
    let mut snap = clean_snapshot();
    let Device::Legacy { routes } = &mut snap.nodes[3].device else {
        panic!("as40 is legacy");
    };
    routes[0].next = NextHop::Via { peer: 2, up: false };
    routes[0].stale = true;

    let report = Verifier::new().verify(&snap);
    assert_eq!(
        report.count_of(ViolationKind::Blackhole),
        0,
        "GR-stale retention must not count as a blackhole:\n{}",
        report.render()
    );
    assert_eq!(report.stale.len(), 1, "one stale note expected");
    assert!(
        report.stale[0].contains("as40") && report.stale[0].contains("graceful-restart"),
        "note: {}",
        report.stale[0]
    );

    // The same dead link without the stale marker stays a blackhole.
    let Device::Legacy { routes } = &mut snap.nodes[3].device else {
        panic!("as40 is legacy");
    };
    routes[0].stale = false;
    let report = Verifier::new().verify(&snap);
    assert_eq!(report.count_of(ViolationKind::Blackhole), 1);
}

#[test]
fn stale_marker_survives_the_json_roundtrip() {
    let mut snap = clean_snapshot();
    let Device::Legacy { routes } = &mut snap.nodes[3].device else {
        panic!("as40 is legacy");
    };
    routes[0].stale = true;
    let json = snap.to_json();
    let back = Snapshot::from_json(&json).expect("roundtrip");
    assert_eq!(snap, back, "stale flag must survive serialization");
}

#[test]
fn intent_drift_is_caught_when_synced() {
    let mut snap = clean_snapshot();
    // Install sw20's rule at the wrong priority: forwarding still works
    // (single rule), but the table no longer matches controller intent.
    let Device::Member { rules, .. } = &mut snap.nodes[1].device else {
        panic!("sw20 is a member");
    };
    rules[0].priority = PRIO - 1;

    let report = Verifier::new().verify(&snap);
    assert_eq!(
        report.count_of(ViolationKind::IntentDrift),
        1,
        "report:\n{}",
        report.render()
    );
    let v = &report.violations[0];
    assert_eq!(v.node, "sw20");
    assert!(v.detail.contains("p99"), "detail: {}", v.detail);
    assert_eq!(report.count_of(ViolationKind::Loop), 0);
    assert_eq!(report.count_of(ViolationKind::Blackhole), 0);
}

#[test]
fn dropped_adj_out_route_is_intent_drift() {
    let mut snap = clean_snapshot();
    snap.sessions[0].actual.clear(); // speaker lost its announcement

    let report = Verifier::new().verify(&snap);
    assert_eq!(report.count_of(ViolationKind::IntentDrift), 1);
    let v = &report.violations[0];
    assert!(v.node.contains("sw30") && v.node.contains("as40"));
    assert!(v.detail.contains("missing announcement 10.0.0.0/24"));
}

#[test]
fn headless_drift_is_stale_not_violation() {
    let mut snap = clean_snapshot();
    let Device::Member { rules, .. } = &mut snap.nodes[1].device else {
        panic!("sw20 is a member");
    };
    rules[0].priority = PRIO - 1;
    snap.control = ControlHealth::Headless;

    let report = Verifier::new().verify(&snap);
    assert!(report.ok(), "headless drift must not be a violation");
    assert_eq!(report.stale.len(), 1);
    assert!(report.stale[0].contains("headless"));

    snap.control = ControlHealth::Resyncing;
    let report = Verifier::new().verify(&snap);
    assert!(report.ok());
    assert!(report.stale[0].contains("resyncing"));
}

#[test]
fn punt_to_controller_is_blackhole() {
    let mut snap = clean_snapshot();
    let Device::Member { rules, .. } = &mut snap.nodes[2].device else {
        panic!("sw30 is a member");
    };
    rules[0].action = RuleAction::ToController;
    snap.intent_flows[1][0].1 = RuleAction::ToController;

    let report = Verifier::new().verify(&snap);
    assert_eq!(report.count_of(ViolationKind::Blackhole), 1);
    assert!(report.violations[0].witness.contains("controller"));
}

#[test]
fn explicit_drop_is_a_legal_terminal() {
    let mut snap = clean_snapshot();
    let Device::Member { rules, .. } = &mut snap.nodes[2].device else {
        panic!("sw30 is a member");
    };
    rules[0].action = RuleAction::Drop;
    snap.intent_flows[1][0].1 = RuleAction::Drop;

    let report = Verifier::new().verify(&snap);
    assert!(
        report.ok(),
        "drop is explicit, not a blackhole:\n{}",
        report.render()
    );
}

/// Three legacy ASes with Gao-Rexford relationships for valley tests:
/// as10 (origin), as20, as30 — with the relationships set per test.
fn valley_snapshot(edges: Vec<EdgeRel>, as30_path: Vec<Asn>) -> Snapshot {
    let p = pfx("10.0.0.0/24");
    Snapshot {
        nodes: vec![
            NodeState {
                name: "as10".into(),
                asn: Asn(10),
                originated: vec![p],
                device: Device::Legacy {
                    routes: vec![LegacyRoute {
                        prefix: p,
                        next: NextHop::Deliver,
                        as_path: vec![],
                        stale: false,
                    }],
                },
            },
            NodeState {
                name: "as20".into(),
                asn: Asn(20),
                originated: vec![],
                device: Device::Legacy {
                    routes: vec![LegacyRoute {
                        prefix: p,
                        next: NextHop::Via { peer: 0, up: true },
                        as_path: vec![Asn(10)],
                        stale: false,
                    }],
                },
            },
            NodeState {
                name: "as30".into(),
                asn: Asn(30),
                originated: vec![],
                device: Device::Legacy {
                    routes: vec![LegacyRoute {
                        prefix: p,
                        next: NextHop::Via { peer: 1, up: true },
                        as_path: as30_path,
                        stale: false,
                    }],
                },
            },
        ],
        edges,
        policy: PolicyKind::GaoRexford,
        control: ControlHealth::NoCluster,
        flow_priority: PRIO,
        intent_flows: vec![],
        sessions: vec![],
    }
}

#[test]
fn valley_path_is_caught() {
    // as20 is as30's customer AND as10's customer: the path
    // as30 -> as20 -> as10 descends (provider->customer) then climbs
    // (customer->provider) — a textbook valley.
    let snap = valley_snapshot(
        vec![
            EdgeRel {
                a: 0,
                b: 1,
                kind: RelKind::ProviderCustomer, // as10 provider of as20
            },
            EdgeRel {
                a: 2,
                b: 1,
                kind: RelKind::ProviderCustomer, // as30 provider of as20
            },
        ],
        vec![Asn(20), Asn(10)],
    );
    let report = Verifier::new().verify(&snap);
    assert_eq!(
        report.count_of(ViolationKind::Valley),
        1,
        "report:\n{}",
        report.render()
    );
    let v = &report.violations[0];
    assert_eq!(v.node, "as20", "the climbing hop starts at as20");
    assert!(v.witness.contains("as30") && v.witness.contains("as10"));
    assert!(v.witness.contains("valley"), "witness: {}", v.witness);
}

#[test]
fn up_then_down_path_is_valley_free() {
    // as20 is as30's provider and as10's provider: as30 -> as20 climbs,
    // as20 -> as10 descends. Perfectly valley-free.
    let snap = valley_snapshot(
        vec![
            EdgeRel {
                a: 1,
                b: 0,
                kind: RelKind::ProviderCustomer, // as20 provider of as10
            },
            EdgeRel {
                a: 1,
                b: 2,
                kind: RelKind::ProviderCustomer, // as20 provider of as30
            },
        ],
        vec![Asn(20), Asn(10)],
    );
    let report = Verifier::new().verify(&snap);
    assert!(report.ok(), "report:\n{}", report.render());
}

#[test]
fn two_peer_hops_violate_valley_freeness() {
    let snap = valley_snapshot(
        vec![
            EdgeRel {
                a: 0,
                b: 1,
                kind: RelKind::PeerPeer,
            },
            EdgeRel {
                a: 1,
                b: 2,
                kind: RelKind::PeerPeer,
            },
        ],
        vec![Asn(20), Asn(10)],
    );
    let report = Verifier::new().verify(&snap);
    assert_eq!(report.count_of(ViolationKind::Valley), 1);
}

/// Valley-free classification on Gao-Rexford snapshots: as30's route
/// crosses as30 -> as20 -> as10, and a violation names the AS where the
/// bad hop starts.
#[test]
fn valley_rule_classifies_chains_peers_and_gaps() {
    let pc = |a, b| EdgeRel {
        a,
        b,
        kind: RelKind::ProviderCustomer, // a is b's provider
    };
    let peer = |a, b| EdgeRel {
        a,
        b,
        kind: RelKind::PeerPeer,
    };
    let cases = [
        ("customer-to-provider chain", vec![pc(1, 2), pc(0, 1)], None),
        ("provider-to-customer chain", vec![pc(2, 1), pc(1, 0)], None),
        ("climb then one peer hop", vec![pc(1, 2), peer(0, 1)], None),
        (
            "peer hop after a descent",
            vec![pc(2, 1), peer(0, 1)],
            Some(("as20", "climbs after descending")),
        ),
        (
            "climb after a peer hop",
            vec![peer(1, 2), pc(0, 1)],
            Some(("as20", "climbs after descending")),
        ),
        (
            "non-adjacent hop",
            vec![pc(0, 1)],
            Some(("as30", "non-adjacent hop")),
        ),
    ];
    for (name, edges, want) in cases {
        let snap = valley_snapshot(edges, vec![Asn(20), Asn(10)]);
        let report = Verifier::new().verify(&snap);
        let valleys: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.kind == ViolationKind::Valley)
            .collect();
        match want {
            None => assert!(report.ok(), "{name}:\n{}", report.render()),
            Some((node, reason)) => {
                assert_eq!(valleys.len(), 1, "{name}:\n{}", report.render());
                assert_eq!(valleys[0].node, node, "{name}: the bad hop starts there");
                assert!(
                    valleys[0].detail.contains(reason),
                    "{name}: {}",
                    valleys[0].detail
                );
            }
        }
    }
}

#[test]
fn all_permit_policy_skips_valley_check() {
    let mut snap = valley_snapshot(
        vec![
            EdgeRel {
                a: 0,
                b: 1,
                kind: RelKind::PeerPeer,
            },
            EdgeRel {
                a: 1,
                b: 2,
                kind: RelKind::PeerPeer,
            },
        ],
        vec![Asn(20), Asn(10)],
    );
    snap.policy = PolicyKind::AllPermit;
    let report = Verifier::new().verify(&snap);
    assert!(report.ok(), "all-permit must not run the valley check");
}

#[test]
fn snapshot_json_round_trips() {
    let snap = clean_snapshot();
    let json = snap.to_json();
    let back = Snapshot::from_json(&json).expect("parses back");
    assert_eq!(snap, back);

    // Through text, too (the artifact path).
    let text = json.to_compact();
    let reparsed = bgpsdn_obs::Json::parse(&text).expect("valid JSON text");
    let back2 = Snapshot::from_json(&reparsed).expect("parses from text");
    assert_eq!(snap, back2);
}

#[test]
fn verifier_scratch_is_reusable_across_snapshots() {
    let mut verifier = Verifier::new();
    let clean = clean_snapshot();
    let mut looped = clean_snapshot();
    let Device::Member { rules, .. } = &mut looped.nodes[1].device else {
        panic!("sw20 is a member");
    };
    rules[0].action = RuleAction::Output(2);
    looped.intent_flows[0][0].1 = RuleAction::Output(2);

    assert!(verifier.verify(&clean).ok());
    assert_eq!(verifier.verify(&looped).count_of(ViolationKind::Loop), 1);
    assert!(verifier.verify(&clean).ok(), "scratch must fully reset");
}

// ----------------------------------------------------------------------
// Connectivity queries: the same walk, read per source
// ----------------------------------------------------------------------

/// An address inside the clean snapshot's only prefix, originated by as10.
fn as10_host() -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 1)
}

#[test]
fn connectivity_delivers_along_a_chain() {
    let report = Verifier::new().connectivity(&clean_snapshot(), &[(0, as10_host())]);
    assert_eq!(report.delivered, 3, "{:?}", report.failures);
    assert_eq!(report.total(), 3, "the destination itself is no source");
    assert!(report.fully_connected());
    assert_eq!(report.delivery_ratio(), 1.0);
}

#[test]
fn connectivity_counts_a_loop_with_its_witness() {
    let mut snap = clean_snapshot();
    let Device::Member { rules, .. } = &mut snap.nodes[1].device else {
        panic!("sw20 is a member");
    };
    rules[0].action = RuleAction::Output(2);

    let report = Verifier::new().connectivity(&snap, &[(0, as10_host())]);
    assert_eq!((report.delivered, report.looped), (0, 3));
    assert!(!report.fully_connected());
    let (src, addr, witness) = &report.failures[2];
    assert_eq!((*src, *addr), (3, as10_host()));
    assert!(
        witness.contains("sw20 --[") && witness.contains("sw30 --["),
        "{witness}"
    );
}

#[test]
fn connectivity_counts_blackholes_with_their_witness() {
    // sw30 loses its rule: as40 forwards into a routeless node, sw30 has
    // no route of its own, sw20 still delivers.
    let mut snap = clean_snapshot();
    let Device::Member { rules, .. } = &mut snap.nodes[2].device else {
        panic!("sw30 is a member");
    };
    rules.clear();
    let report = Verifier::new().connectivity(&snap, &[(0, as10_host())]);
    assert_eq!((report.delivered, report.blackholed), (1, 2));
    assert!((report.delivery_ratio() - 1.0 / 3.0).abs() < 1e-9);
    let witness = &report.failures.iter().find(|f| f.0 == 3).expect("as40").2;
    assert!(witness.contains("no route"), "{witness}");

    // A down link is a blackhole, too.
    let mut snap = clean_snapshot();
    let Device::Member { ports, .. } = &mut snap.nodes[1].device else {
        panic!("sw20 is a member");
    };
    ports[0].up = false;
    let report = Verifier::new().connectivity(&snap, &[(0, as10_host())]);
    assert_eq!((report.delivered, report.blackholed), (0, 3));
    assert!(report.failures[0].2.contains("link is down"));
}

#[test]
fn gr_stale_route_is_legal_but_delivers_nothing() {
    // The invariants accept the RFC 4724 trade-off; traffic still dies.
    let mut snap = clean_snapshot();
    let Device::Legacy { routes } = &mut snap.nodes[3].device else {
        panic!("as40 is legacy");
    };
    routes[0].next = NextHop::Via { peer: 2, up: false };
    routes[0].stale = true;
    let mut verifier = Verifier::new();
    assert!(verifier.verify(&snap).ok());
    let report = verifier.connectivity(&snap, &[(0, as10_host())]);
    assert_eq!((report.delivered, report.blackholed), (2, 1));
    assert!(report.failures[0].2.contains("graceful-restart"));
}

#[test]
fn empty_connectivity_query_is_not_evidence() {
    let report = Verifier::new().connectivity(&clean_snapshot(), &[]);
    assert_eq!(report.total(), 0);
    assert!(!report.fully_connected(), "no pairs means no evidence");
    assert_eq!(report.delivery_ratio(), 1.0);
}
