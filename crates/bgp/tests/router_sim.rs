//! End-to-end BGP scenarios: full routers over the discrete-event simulator,
//! exchanging real wire messages.

use bgpsdn_bgp::{
    pfx, Asn, BgpOnlyMsg, BgpRouter, NeighborConfig, PolicyMode, Prefix, Relationship, RouteSource,
    RouterCommand, RouterConfig, SessionState, TimingConfig,
};
use bgpsdn_netsim::{Activity, Counter, LatencyModel, NodeId, SimDuration, SimTime, Simulator};

type Router = BgpRouter<BgpOnlyMsg>;
type Sim = Simulator<BgpOnlyMsg>;

const MS5: LatencyModel = LatencyModel::Fixed(SimDuration::from_millis(5));

fn asn_of(i: usize) -> Asn {
    Asn(65000 + i as u32)
}

fn prefix_of(i: usize) -> Prefix {
    pfx(&format!("10.{}.0.0/16", i + 1))
}

/// Build `n` routers and connect them according to `edges`, full-transit
/// policies, with the given timing. Router `i` originates `10.(i+1).0.0/16`
/// when `originate[i]`.
fn build(
    seed: u64,
    n: usize,
    edges: &[(usize, usize)],
    timing: TimingConfig,
    mode: PolicyMode,
    originate: &[usize],
    relationships: Option<&dyn Fn(usize, usize) -> Relationship>,
) -> (Sim, Vec<NodeId>) {
    let mut sim = Sim::with_event_capacity(seed, 0);
    let mut nodes = Vec::new();
    for i in 0..n {
        let mut cfg = RouterConfig {
            mode,
            timing: timing.clone(),
            ..RouterConfig::new(asn_of(i))
        };
        if originate.contains(&i) {
            cfg.originate.push(prefix_of(i));
        }
        let id = sim.add_node(format!("r{i}"), |id| Router::new(id, cfg));
        nodes.push(id);
    }
    for &(a, b) in edges {
        let link = sim.add_link(nodes[a], nodes[b], MS5.clone());
        let rel_ab = relationships.map(|f| f(a, b)).unwrap_or(Relationship::Peer);
        let (na, nb) = (nodes[a], nodes[b]);
        sim.with_node::<Router, _>(na, |r| {
            r.add_neighbor(NeighborConfig::new(nb, link, asn_of(b), rel_ab));
        });
        sim.with_node::<Router, _>(nb, |r| {
            r.add_neighbor(NeighborConfig::new(na, link, asn_of(a), rel_ab.inverse()));
        });
    }
    (sim, nodes)
}

fn fast_timing() -> TimingConfig {
    TimingConfig {
        mrai: SimDuration::ZERO,
        ..Default::default()
    }
}

fn clique_edges(n: usize) -> Vec<(usize, usize)> {
    let mut e = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            e.push((i, j));
        }
    }
    e
}

#[test]
fn pair_exchanges_prefixes() {
    let (mut sim, nodes) = build(
        1,
        2,
        &[(0, 1)],
        fast_timing(),
        PolicyMode::AllPermit,
        &[0, 1],
        None,
    );
    let q = sim.run_until_quiescent(SimTime::from_secs(60));
    assert!(q.quiescent);
    // Each router has its own prefix (local) and the peer's.
    let r0 = sim.node_ref::<Router>(nodes[0]);
    assert_eq!(r0.session_state(nodes[1]), Some(SessionState::Established));
    assert_eq!(r0.loc_rib().len(), 2);
    assert_eq!(r0.best(prefix_of(0)).unwrap().source, RouteSource::Local);
    let via = r0.best(prefix_of(1)).unwrap();
    assert_eq!(via.source, RouteSource::Peer(0));
    assert_eq!(via.attrs.as_path.flatten(), vec![asn_of(1)]);
    assert_eq!(r0.next_hop_node(prefix_of(1)), Some(nodes[1]));
    assert_eq!(r0.next_hop_node(prefix_of(0)), None);
}

#[test]
fn line_of_three_propagates_with_as_path() {
    let (mut sim, nodes) = build(
        2,
        3,
        &[(0, 1), (1, 2)],
        fast_timing(),
        PolicyMode::AllPermit,
        &[0],
        None,
    );
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    let r2 = sim.node_ref::<Router>(nodes[2]);
    let best = r2.best(prefix_of(0)).expect("propagated through r1");
    assert_eq!(best.attrs.as_path.flatten(), vec![asn_of(1), asn_of(0)]);
    assert_eq!(r2.next_hop_node(prefix_of(0)), Some(nodes[1]));
    // NEXT_HOP rewritten at each eBGP hop: r2 sees r1's next-hop IP.
    let r1 = sim.node_ref::<Router>(nodes[1]);
    assert_eq!(
        best.attrs.next_hop,
        r1.config().next_hop,
        "next-hop-self at each hop"
    );
}

#[test]
fn withdraw_command_removes_prefix_everywhere() {
    let (mut sim, nodes) = build(
        3,
        4,
        &clique_edges(4),
        fast_timing(),
        PolicyMode::AllPermit,
        &[0],
        None,
    );
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    for &nd in &nodes {
        assert!(sim.node_ref::<Router>(nd).best(prefix_of(0)).is_some());
    }
    sim.inject(
        nodes[0],
        BgpOnlyMsg::Command(RouterCommand::Withdraw(prefix_of(0))),
    );
    assert!(sim.run_until_quiescent(SimTime::from_secs(120)).quiescent);
    for &nd in &nodes {
        assert!(
            sim.node_ref::<Router>(nd).best(prefix_of(0)).is_none(),
            "stale route survived at {nd}"
        );
    }
    assert!(!sim
        .node_ref::<Router>(nodes[0])
        .originated()
        .any(|p| p == prefix_of(0)));
}

#[test]
fn announce_command_installs_everywhere() {
    let (mut sim, nodes) = build(
        4,
        3,
        &[(0, 1), (1, 2)],
        fast_timing(),
        PolicyMode::AllPermit,
        &[],
        None,
    );
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    let p = pfx("192.0.2.0/24");
    sim.inject(nodes[2], BgpOnlyMsg::Command(RouterCommand::Announce(p)));
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    for &nd in &nodes {
        assert!(sim.node_ref::<Router>(nd).best(p).is_some());
    }
    let r0 = sim.node_ref::<Router>(nodes[0]);
    assert_eq!(
        r0.best(p).unwrap().attrs.as_path.flatten(),
        vec![asn_of(1), asn_of(2)]
    );
}

#[test]
fn gao_rexford_blocks_peer_to_peer_transit() {
    // Triangle of peers 0-1-2; 3 is a customer of 0 and originates.
    // 1 and 2 learn the route from 0 (customer route, exported to peers),
    // but 1 must NOT re-export to 2 and vice versa: each ends with exactly
    // one candidate.
    let rels = |a: usize, b: usize| -> Relationship {
        match (a, b) {
            (0, 3) => Relationship::Customer, // 3 is 0's customer
            _ => Relationship::Peer,
        }
    };
    let (mut sim, nodes) = build(
        5,
        4,
        &[(0, 1), (0, 2), (1, 2), (0, 3)],
        fast_timing(),
        PolicyMode::GaoRexford,
        &[3],
        Some(&rels),
    );
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    let p = prefix_of(3);
    for i in [1, 2] {
        let r = sim.node_ref::<Router>(nodes[i]);
        assert!(r.best(p).is_some(), "peer {i} must reach the customer");
        assert_eq!(
            r.adj_in().candidates(p).count(),
            1,
            "peer {i} must have exactly one (valley-free) candidate"
        );
        assert_eq!(
            r.best(p).unwrap().attrs.as_path.flatten(),
            vec![asn_of(0), asn_of(3)]
        );
    }
}

#[test]
fn gao_rexford_customer_prefers_customer_route() {
    // 0 has customer 1 and peer 2; both can reach p (1 originates, 2 transits
    // a longer path from 1 via 3... simpler: both 1 and 2 originate p is not
    // possible). Construct: 1 originates p. 2 is also a provider path to p:
    // 2 is a provider of 1 too, so 2 hears p from its customer 1 and exports
    // to peer 0. 0 now has p via customer 1 (path len 1) and via peer 2
    // (path len 2). Make the customer path LONGER by prepending? Instead rely
    // on local-pref: give 0 only the peer link to 2 cheaper... The point:
    // customer local-pref 130 beats peer 110 regardless of path length.
    // Topology: 0-1 (1 customer of 0), 0-2 (peer), 2-1 (1 customer of 2).
    let rels = |a: usize, b: usize| -> Relationship {
        match (a, b) {
            (0, 1) => Relationship::Customer,
            (0, 2) => Relationship::Peer,
            (2, 1) => Relationship::Customer,
            _ => unreachable!(),
        }
    };
    let (mut sim, nodes) = build(
        6,
        3,
        &[(0, 1), (0, 2), (2, 1)],
        fast_timing(),
        PolicyMode::GaoRexford,
        &[1],
        Some(&rels),
    );
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    let r0 = sim.node_ref::<Router>(nodes[0]);
    let best = r0.best(prefix_of(1)).unwrap();
    assert_eq!(best.source, RouteSource::Peer(0), "direct customer route");
    assert_eq!(best.attrs.local_pref, Some(130));
}

#[test]
fn link_failure_triggers_failover() {
    // Square: 0-1, 0-2, 1-3, 2-3. 3 originates. 0 has two 2-hop paths.
    let (mut sim, nodes) = build(
        7,
        4,
        &[(0, 1), (0, 2), (1, 3), (2, 3)],
        fast_timing(),
        PolicyMode::AllPermit,
        &[3],
        None,
    );
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    let p = prefix_of(3);
    let first_hop = sim.node_ref::<Router>(nodes[0]).next_hop_node(p).unwrap();
    assert!(first_hop == nodes[1] || first_hop == nodes[2]);

    // Fail the link 0 uses.
    let fail_link = sim
        .links()
        .iter()
        .find(|l| [l.a, l.b] == [nodes[0], first_hop] || [l.b, l.a] == [nodes[0], first_hop])
        .unwrap()
        .id;
    sim.set_link_admin(fail_link, false);
    assert!(sim.run_until_quiescent(SimTime::from_secs(120)).quiescent);
    let r0 = sim.node_ref::<Router>(nodes[0]);
    let second_hop = r0.next_hop_node(p).expect("failover path found");
    assert_ne!(second_hop, first_hop);
    assert!(r0.best(p).unwrap().attrs.as_path.path_len() == 2);
}

#[test]
fn as_path_loop_rejected() {
    // 0(as A) - 1(as B) - 2(as A again): 2 must reject 0's routes because
    // its own ASN already appears in the path.
    let mut sim = Sim::with_event_capacity(8, 0);
    let shared = Asn(64999);
    let mk = |asn: Asn, origin: Option<Prefix>| {
        let mut cfg = RouterConfig {
            timing: fast_timing(),
            ..RouterConfig::new(asn)
        };
        if let Some(p) = origin {
            cfg.originate.push(p);
        }
        cfg
    };
    let c0 = mk(shared, Some(pfx("10.1.0.0/16")));
    let c1 = mk(Asn(65001), None);
    let c2 = mk(shared, None);
    let n0 = sim.add_node("r0", |id| Router::new(id, c0));
    let n1 = sim.add_node("r1", |id| Router::new(id, c1));
    let n2 = sim.add_node("r2", |id| Router::new(id, c2));
    let l01 = sim.add_link(n0, n1, MS5.clone());
    let l12 = sim.add_link(n1, n2, MS5.clone());
    sim.with_node::<Router, _>(n0, |r| {
        r.add_neighbor(NeighborConfig::new(n1, l01, Asn(65001), Relationship::Peer))
    });
    sim.with_node::<Router, _>(n1, |r| {
        r.add_neighbor(NeighborConfig::new(n0, l01, shared, Relationship::Peer));
        r.add_neighbor(NeighborConfig::new(n2, l12, shared, Relationship::Peer));
    });
    sim.with_node::<Router, _>(n2, |r| {
        r.add_neighbor(NeighborConfig::new(n1, l12, Asn(65001), Relationship::Peer))
    });
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    let r2 = sim.node_ref::<Router>(n2);
    assert!(
        r2.best(pfx("10.1.0.0/16")).is_none(),
        "looped route accepted"
    );
    assert!(sim.counter(n2, Counter::LoopRejected) >= 1);
}

#[test]
fn session_reset_recovers() {
    let (mut sim, nodes) = build(
        9,
        2,
        &[(0, 1)],
        fast_timing(),
        PolicyMode::AllPermit,
        &[1],
        None,
    );
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    assert!(sim
        .node_ref::<Router>(nodes[0])
        .best(prefix_of(1))
        .is_some());

    sim.inject(
        nodes[0],
        BgpOnlyMsg::Command(RouterCommand::ResetSession(nodes[1])),
    );
    let q = sim.run_until_quiescent(SimTime::from_secs(120));
    assert!(q.quiescent);
    let r0 = sim.node_ref::<Router>(nodes[0]);
    assert_eq!(
        r0.session_state(nodes[1]),
        Some(SessionState::Established),
        "session re-established after admin reset"
    );
    assert!(r0.best(prefix_of(1)).is_some(), "routes relearned");
    assert!(sim.counter(nodes[0], Counter::SessionsDropped) >= 1);
}

#[test]
fn mrai_slows_convergence() {
    // Same withdrawal scenario on a 6-clique with MRAI 0 vs 30s: path
    // exploration rounds must make the 30s case dramatically slower.
    let run = |mrai_secs: u64| -> SimDuration {
        let timing = TimingConfig {
            mrai: SimDuration::from_secs(mrai_secs),
            ..Default::default()
        };
        let (mut sim, nodes) = build(
            10,
            6,
            &clique_edges(6),
            timing,
            PolicyMode::AllPermit,
            &[0],
            None,
        );
        assert!(sim.run_until_quiescent(SimTime::from_secs(600)).quiescent);
        sim.reset_board();
        let start = sim.now();
        sim.inject(
            nodes[0],
            BgpOnlyMsg::Command(RouterCommand::Withdraw(prefix_of(0))),
        );
        let q = sim.run_until_quiescent(start + SimDuration::from_secs(3600));
        assert!(q.quiescent);
        sim.board()
            .last_routing_change()
            .map(|t| t.saturating_since(start))
            .unwrap_or(SimDuration::ZERO)
    };
    let fast = run(0);
    let slow = run(30);
    assert!(
        slow.as_millis() > fast.as_millis() * 5,
        "MRAI must dominate: fast={fast} slow={slow}"
    );
    assert!(slow >= SimDuration::from_secs(10), "slow={slow}");
}

#[test]
fn clique_withdrawal_shows_path_exploration() {
    // On withdrawal in a clique, routers explore ghost routes: the total
    // number of updates after the withdrawal far exceeds the clique degree.
    let (mut sim, nodes) = build(
        11,
        8,
        &clique_edges(8),
        TimingConfig {
            mrai: SimDuration::from_secs(5),
            ..Default::default()
        },
        PolicyMode::AllPermit,
        &[0],
        None,
    );
    assert!(sim.run_until_quiescent(SimTime::from_secs(600)).quiescent);
    sim.reset_board();
    sim.inject(
        nodes[0],
        BgpOnlyMsg::Command(RouterCommand::Withdraw(prefix_of(0))),
    );
    assert!(
        sim.run_until_quiescent(sim.now() + SimDuration::from_secs(3600))
            .quiescent
    );
    let updates = sim.board().count(Activity::UpdateSent);
    assert!(
        updates > 30,
        "expected ghost-route churn, saw only {updates} updates"
    );
    // And the prefix must be gone everywhere.
    for &nd in &nodes {
        assert!(sim.node_ref::<Router>(nd).best(prefix_of(0)).is_none());
    }
}

#[test]
fn hold_timer_tears_down_dead_session() {
    // Enable keepalives; then make the link lossy enough to eat everything:
    // the hold timer must fire and drop the session.
    let timing = TimingConfig {
        mrai: SimDuration::ZERO,
        hold_time_secs: 9,
        ..Default::default()
    };
    let (mut sim, nodes) = build(12, 2, &[(0, 1)], timing, PolicyMode::AllPermit, &[1], None);
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(
        sim.node_ref::<Router>(nodes[0]).session_state(nodes[1]),
        Some(SessionState::Established)
    );
    // Kill all traffic silently (loss, not link-down, so no notification).
    let link = sim.links()[0].id;
    sim.set_link_loss(link, 1.0);
    sim.run_until(SimTime::from_secs(40));
    let r0 = sim.node_ref::<Router>(nodes[0]);
    assert_ne!(
        r0.session_state(nodes[1]),
        Some(SessionState::Established),
        "hold timer should have expired"
    );
    assert!(
        r0.best(prefix_of(1)).is_none(),
        "routes flushed on hold expiry"
    );
}

#[test]
fn deterministic_across_identical_runs() {
    let run = |seed: u64| {
        let (mut sim, nodes) = build(
            seed,
            5,
            &clique_edges(5),
            TimingConfig {
                mrai: SimDuration::from_secs(5),
                ..Default::default()
            },
            PolicyMode::AllPermit,
            &[0, 1],
            None,
        );
        assert!(sim.run_until_quiescent(SimTime::from_secs(600)).quiescent);
        sim.inject(
            nodes[0],
            BgpOnlyMsg::Command(RouterCommand::Withdraw(prefix_of(0))),
        );
        let q = sim.run_until_quiescent(sim.now() + SimDuration::from_secs(3600));
        (
            q.time,
            sim.stats().events_processed,
            sim.board().count(Activity::UpdateSent),
        )
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42).1, run(43).1, "different seeds take different paths");
}

#[test]
fn updates_carry_decodable_wire_bytes() {
    // Sanity-check the envelope layer: grab stats to ensure real traffic
    // flowed, and no decode errors were counted anywhere.
    let (mut sim, nodes) = build(
        13,
        4,
        &clique_edges(4),
        fast_timing(),
        PolicyMode::AllPermit,
        &[0, 1, 2, 3],
        None,
    );
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    let mut total_updates = 0;
    for &nd in &nodes {
        let r = sim.node_ref::<Router>(nd);
        assert_eq!(sim.counter(nd, Counter::DecodeErrors), 0);
        total_updates += r.stats().updates_received;
        assert_eq!(r.loc_rib().len(), 4, "full reachability");
    }
    assert!(total_updates > 0);
    assert!(sim.stats().bytes_delivered > 0);
}

#[test]
fn data_plane_ping_end_to_end() {
    use bgpsdn_netsim::DataPacket;
    use std::net::Ipv4Addr;
    // Line 0-1-2; 0 and 2 originate; ping from 0's address to 2's.
    let (mut sim, nodes) = build(
        20,
        3,
        &[(0, 1), (1, 2)],
        fast_timing(),
        PolicyMode::AllPermit,
        &[0, 2],
        None,
    );
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    // Destination host 10.3.0.77 lives inside r2's 10.3.0.0/16.
    let src = Ipv4Addr::new(10, 1, 0, 1);
    let dst = Ipv4Addr::new(10, 3, 0, 77);
    sim.inject(
        nodes[0],
        BgpOnlyMsg::Data(DataPacket::echo_request(src, dst, 7)),
    );
    assert!(sim.run_until_quiescent(SimTime::from_secs(10)).quiescent);
    assert_eq!(sim.counter(nodes[2], Counter::DataDelivered), 1);
    assert_eq!(sim.counter(nodes[2], Counter::EchoReplies), 1);
    // The reply came back to 0's prefix and was delivered locally.
    assert_eq!(sim.counter(nodes[0], Counter::DataDelivered), 1);
    assert_eq!(
        sim.counter(nodes[1], Counter::DataForwarded),
        2,
        "transit in both directions"
    );
}

#[test]
fn data_plane_unroutable_is_counted() {
    use bgpsdn_netsim::DataPacket;
    use std::net::Ipv4Addr;
    let (mut sim, nodes) = build(
        21,
        2,
        &[(0, 1)],
        fast_timing(),
        PolicyMode::AllPermit,
        &[0],
        None,
    );
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    sim.inject(
        nodes[0],
        BgpOnlyMsg::Data(DataPacket::echo_request(
            Ipv4Addr::new(10, 1, 0, 1),
            Ipv4Addr::new(203, 0, 113, 1),
            1,
        )),
    );
    assert!(sim.run_until_quiescent(SimTime::from_secs(10)).quiescent);
    assert_eq!(sim.counter(nodes[0], Counter::NoRoute), 1);
}

#[test]
fn route_flap_damping_suppresses_and_reuses() {
    use bgpsdn_bgp::DampingConfig;
    // A (origin, flapping) --- B (damping enabled).
    let mut sim = Sim::with_event_capacity(55, 0);
    let a_cfg = RouterConfig {
        originate: vec![prefix_of(0)],
        timing: fast_timing(),
        ..RouterConfig::new(asn_of(0))
    };
    let mut b_cfg = RouterConfig {
        timing: fast_timing(),
        ..RouterConfig::new(asn_of(1))
    };
    b_cfg.damping = Some(DampingConfig {
        half_life: SimDuration::from_secs(20),
        ..Default::default()
    });
    let a = sim.add_node("a", |id| Router::new(id, a_cfg));
    let b = sim.add_node("b", |id| Router::new(id, b_cfg));
    let l = sim.add_link(a, b, MS5.clone());
    sim.with_node::<Router, _>(a, |r| {
        r.add_neighbor(NeighborConfig::new(b, l, asn_of(1), Relationship::Peer))
    });
    sim.with_node::<Router, _>(b, |r| {
        r.add_neighbor(NeighborConfig::new(a, l, asn_of(0), Relationship::Peer))
    });
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    assert!(sim.node_ref::<Router>(b).best(prefix_of(0)).is_some());

    // Flap three times: each withdrawal adds 1000 penalty at B.
    for _ in 0..3 {
        sim.inject(
            a,
            BgpOnlyMsg::Command(RouterCommand::Withdraw(prefix_of(0))),
        );
        sim.run_for(SimDuration::from_secs(1));
        sim.inject(
            a,
            BgpOnlyMsg::Command(RouterCommand::Announce(prefix_of(0))),
        );
        sim.run_for(SimDuration::from_secs(1));
    }
    sim.run_for(SimDuration::from_secs(1));
    let rb = sim.node_ref::<Router>(b);
    assert!(
        rb.best(prefix_of(0)).is_none(),
        "flapped route must be suppressed despite being announced"
    );
    assert!(sim.counter(b, Counter::DampedSuppressed) > 0);
    assert!(
        rb.adj_in().get(prefix_of(0), 0).is_some(),
        "the route stays in Adj-RIB-In while suppressed"
    );

    // Penalty ~3000 decays to the reuse threshold (750) in two half-lives
    // (40 s); the reuse timer must bring the route back without any new
    // update from A.
    let q = sim.run_until_quiescent(SimTime::from_secs(600));
    assert!(q.quiescent);
    assert!(
        sim.node_ref::<Router>(b).best(prefix_of(0)).is_some(),
        "suppression must lift after decay"
    );
}

#[test]
fn route_refresh_resends_full_table() {
    // Pair with several prefixes; ask the peer for a refresh and verify the
    // full table is re-sent (update counters move, RIB state unchanged).
    let (mut sim, nodes) = build(
        60,
        2,
        &[(0, 1)],
        fast_timing(),
        PolicyMode::AllPermit,
        &[0, 1],
        None,
    );
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    for p in ["192.0.2.0/24", "198.51.100.0/24"] {
        sim.inject(
            nodes[1],
            BgpOnlyMsg::Command(RouterCommand::Announce(pfx(p))),
        );
    }
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    let before_rib = sim.node_ref::<Router>(nodes[0]).loc_rib().len();
    let before_updates = sim.node_ref::<Router>(nodes[1]).stats().updates_sent;

    sim.inject(
        nodes[0],
        BgpOnlyMsg::Command(RouterCommand::RequestRefresh(nodes[1])),
    );
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);

    let r0 = sim.node_ref::<Router>(nodes[0]);
    assert_eq!(r0.loc_rib().len(), before_rib, "RIB content unchanged");
    let r1 = sim.node_ref::<Router>(nodes[1]);
    assert!(
        r1.stats().updates_sent > before_updates,
        "peer must re-advertise on refresh"
    );
    // 3 prefixes re-announced toward node 0 (its own prefix is never
    // exported back to it as the source is local to node 0).
    assert!(r1.stats().updates_sent - before_updates >= 1);
}

#[test]
fn max_prefix_limit_tears_down_noisy_peer() {
    let mut sim = Sim::with_event_capacity(61, 0);
    let noisy_cfg = RouterConfig {
        timing: fast_timing(),
        ..RouterConfig::new(asn_of(0))
    };
    let guarded_cfg = RouterConfig {
        timing: fast_timing(),
        ..RouterConfig::new(asn_of(1))
    };
    let noisy = sim.add_node("noisy", |id| Router::new(id, noisy_cfg));
    let guarded = sim.add_node("guarded", |id| Router::new(id, guarded_cfg));
    let l = sim.add_link(noisy, guarded, MS5.clone());
    sim.with_node::<Router, _>(noisy, |r| {
        r.add_neighbor(NeighborConfig::new(
            guarded,
            l,
            asn_of(1),
            Relationship::Peer,
        ));
    });
    sim.with_node::<Router, _>(guarded, |r| {
        let mut n = NeighborConfig::new(noisy, l, asn_of(0), Relationship::Peer);
        n.max_prefixes = Some(3);
        r.add_neighbor(n);
    });
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);

    // Announce 5 prefixes: over the limit of 3.
    for i in 0..5u32 {
        sim.inject(
            noisy,
            BgpOnlyMsg::Command(RouterCommand::Announce(pfx(&format!("203.0.{i}.0/24")))),
        );
    }
    sim.run_for(SimDuration::from_secs(5));
    assert!(
        sim.counter(guarded, Counter::MaxPrefixTeardowns) >= 1,
        "guardrail must fire"
    );
    let g = sim.node_ref::<Router>(guarded);
    // All routes from the noisy peer were flushed on teardown.
    // (The session may retry and trip again; routes never accumulate past
    // the teardown.)
    assert!(g.adj_in().count_for_peer(0) <= 3);
}

#[test]
fn as_path_prepending_steers_traffic_away() {
    use bgpsdn_bgp::{RouteMap, Rule, SetAction};
    // Square: 0-1, 0-2, 1-3, 2-3; 3 originates. Without policy the tie
    // breaks to the lower router id (via 1). Prepending on 3's export
    // toward 1 makes the path via 2 strictly shorter.
    let (mut sim, nodes) = build(
        70,
        4,
        &[(0, 1), (0, 2), (1, 3), (2, 3)],
        fast_timing(),
        PolicyMode::AllPermit,
        &[3],
        None,
    );
    // Install the export map on router 3 toward neighbor 1 before start.
    sim.with_node::<Router, _>(nodes[3], |r| {
        let map = RouteMap {
            rules: vec![Rule {
                conds: vec![],
                actions: vec![SetAction::Prepend(asn_of(3), 2)],
                permit: true,
            }],
            default_permit: true,
        };
        // Neighbor index 0 on router 3 is node 1 (edge order above).
        r.config_mut().neighbors[0].export_map = Some(map);
    });
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    let r0 = sim.node_ref::<Router>(nodes[0]);
    assert_eq!(
        r0.next_hop_node(prefix_of(3)),
        Some(nodes[2]),
        "traffic must avoid the prepended path"
    );
    let best = r0.best(prefix_of(3)).unwrap();
    assert_eq!(best.attrs.as_path.path_len(), 2);
}

#[test]
fn communities_cross_the_wire_and_drive_import_policy() {
    use bgpsdn_bgp::{Community, MatchCond, RouteMap, Rule, SetAction};
    // 0 originates; exports toward 1 tagged 65000:80. Router 1's import map
    // matches the community and *lowers* local-pref below the default, so 1
    // prefers the untagged two-hop path via 2.
    let (mut sim, nodes) = build(
        71,
        3,
        &[(0, 1), (0, 2), (1, 2)],
        fast_timing(),
        PolicyMode::AllPermit,
        &[0],
        None,
    );
    let tag = Community::new(65000, 80);
    sim.with_node::<Router, _>(nodes[0], |r| {
        // Neighbor 0 of router 0 is node 1.
        r.config_mut().neighbors[0].export_map = Some(RouteMap {
            rules: vec![Rule {
                conds: vec![],
                actions: vec![SetAction::AddCommunity(tag)],
                permit: true,
            }],
            default_permit: true,
        });
    });
    sim.with_node::<Router, _>(nodes[1], |r| {
        r.config_mut().neighbors[0].import_map = Some(RouteMap {
            rules: vec![Rule {
                conds: vec![MatchCond::CommunityHas(tag)],
                actions: vec![SetAction::LocalPref(50)],
                permit: true,
            }],
            default_permit: true,
        });
    });
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    let r1 = sim.node_ref::<Router>(nodes[1]);
    let best = r1.best(prefix_of(0)).expect("reachable");
    assert_eq!(
        best.attrs.as_path.flatten(),
        vec![asn_of(2), asn_of(0)],
        "depreferenced direct path loses to the clean detour"
    );
    // The community genuinely crossed the wire: the direct candidate holds it.
    let direct = r1.adj_in().get(prefix_of(0), 0).expect("direct candidate");
    assert!(direct.attrs.rare().communities.contains(&tag));
}

#[test]
fn fan_out_hands_one_export_view_to_every_peer() {
    use bgpsdn_bgp::{RouteMap, SharedAttrs};
    // Star: hub 0, leaves 1..=4. The hub's session toward leaf 4 carries an
    // export map (permit-all: the attributes come out equal, but through a
    // route map they are a private copy).
    let (mut sim, nodes) = build(
        80,
        5,
        &[(0, 1), (0, 2), (0, 3), (0, 4)],
        fast_timing(),
        PolicyMode::AllPermit,
        &[],
        None,
    );
    sim.with_node::<Router, _>(nodes[0], |r| {
        r.config_mut().neighbors[3].export_map = Some(RouteMap::default());
    });
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);

    // Every session is up: leaf 1's announcement reaches the hub as one
    // best-path change that fans out to all four sessions.
    let p = pfx("203.0.113.0/24");
    sim.inject(nodes[1], BgpOnlyMsg::Command(RouterCommand::Announce(p)));
    assert!(sim.run_until_quiescent(SimTime::from_secs(120)).quiescent);

    let hub = sim.node_ref::<Router>(nodes[0]);
    let learned = &hub.adj_in().get(p, 0).expect("learned from leaf 1").attrs;
    let best = &hub.best(p).expect("selected").attrs;
    assert!(
        SharedAttrs::ptr_eq(best, learned),
        "the Loc-RIB holds the winning Adj-RIB-In handle, not a copy"
    );
    let sent = |leaf: usize| hub.advertised_to(nodes[leaf], p).expect("advertised");
    assert!(SharedAttrs::ptr_eq(sent(1), sent(2)));
    assert!(SharedAttrs::ptr_eq(sent(2), sent(3)));
    assert!(!SharedAttrs::ptr_eq(sent(3), sent(4)), "route-mapped copy");
    assert_eq!(sent(3), sent(4));
    assert_eq!(sent(1).as_path.flatten(), vec![asn_of(0), asn_of(1)]);
    assert_eq!(
        best.as_path.flatten(),
        vec![asn_of(1)],
        "export never edits the Loc-RIB"
    );
}

/// A pair where router 1 takes `cpu` per UPDATE, with four UPDATEs from
/// router 0 sitting in its processing queue 50 ms after they were sent.
fn pair_with_queued_updates(seed: u64, cpu: SimDuration) -> (Sim, Vec<NodeId>, Vec<Prefix>) {
    let slow = TimingConfig {
        mrai: SimDuration::ZERO,
        processing_delay: (cpu, cpu),
        ..Default::default()
    };
    let (mut sim, nodes) = build(seed, 2, &[(0, 1)], slow, PolicyMode::AllPermit, &[], None);
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    let prefixes: Vec<Prefix> = (0..4).map(|i| pfx(&format!("203.0.{i}.0/24"))).collect();
    for p in &prefixes {
        sim.inject(nodes[0], BgpOnlyMsg::Command(RouterCommand::Announce(*p)));
    }
    sim.run_for(SimDuration::from_millis(50));
    let r1 = sim.node_ref::<Router>(nodes[1]);
    assert_eq!(r1.stats().updates_received, 4, "all four queued");
    assert_eq!(r1.loc_rib().len(), 0, "none processed yet");
    (sim, nodes, prefixes)
}

#[test]
fn processing_queue_survives_a_session_drop() {
    let (mut sim, nodes, prefixes) = pair_with_queued_updates(81, SimDuration::from_millis(200));
    // The session goes while the UPDATEs wait: their processing timers still
    // fire and must each retire their queue entry (the UPDATE itself is
    // discarded), or the resync after the reconnect would queue behind them
    // forever.
    sim.inject(
        nodes[1],
        BgpOnlyMsg::Command(RouterCommand::ResetSession(nodes[0])),
    );
    sim.run_for(SimDuration::from_millis(300));
    assert_eq!(sim.node_ref::<Router>(nodes[1]).loc_rib().len(), 0);
    assert!(sim.run_until_quiescent(SimTime::from_secs(120)).quiescent);
    let r1 = sim.node_ref::<Router>(nodes[1]);
    assert!(r1.stats().updates_received > 4, "resynced after the reset");
    for p in &prefixes {
        assert_eq!(r1.next_hop_node(*p), Some(nodes[0]), "{p}");
    }
}

#[test]
fn processing_queue_restarts_clean_after_a_crash() {
    let (mut sim, nodes, prefixes) = pair_with_queued_updates(82, SimDuration::from_millis(200));
    // Crash with the queue full: the restart wipes it and the simulator
    // drops the four pending processing firings, so every firing after the
    // restart belongs to an UPDATE queued after it.
    sim.set_node_admin(nodes[1], false);
    sim.run_for(SimDuration::from_secs(1));
    let stale_before = sim.stats().timers_stale;
    assert!(
        stale_before >= 4,
        "the crashed router's timers died with it"
    );
    sim.set_node_admin(nodes[1], true);
    assert!(sim.run_until_quiescent(SimTime::from_secs(300)).quiescent);
    let r1 = sim.node_ref::<Router>(nodes[1]);
    assert_eq!(r1.session_state(nodes[0]), Some(SessionState::Established));
    for p in &prefixes {
        assert_eq!(r1.next_hop_node(*p), Some(nodes[0]), "{p}");
    }
}

#[test]
fn firings_of_a_crashed_queue_never_process_the_restarted_one() {
    // Five seconds of CPU per UPDATE: the four processing firings armed
    // before the crash are due 4.955 s from here, long after the router is
    // back and holds the resynced table in its new queue.
    let (mut sim, nodes, prefixes) = pair_with_queued_updates(83, SimDuration::from_secs(5));
    let t0 = sim.now();
    let (fired, stale) = (sim.stats().timers_fired, sim.stats().timers_stale);
    sim.set_node_admin(nodes[1], false);
    sim.run_for(SimDuration::from_millis(10));
    sim.set_node_admin(nodes[1], true);
    // Just before the dead firings are due the session is back and the
    // resync waits out its own processing delay.
    sim.run_until(t0 + SimDuration::from_millis(4_900));
    let r1 = sim.node_ref::<Router>(nodes[1]);
    assert_eq!(r1.session_state(nodes[0]), Some(SessionState::Established));
    assert!(r1.stats().updates_received > 4, "the resync is queued");
    assert_eq!(r1.loc_rib().len(), 0, "and not yet processed");
    let stale_at_restore = sim.stats().timers_stale;
    // The four dead firings pop: each is stale, none takes a queue entry.
    sim.run_until(t0 + SimDuration::from_millis(5_400));
    assert_eq!(sim.stats().timers_stale, stale_at_restore + 4);
    assert_eq!(
        sim.node_ref::<Router>(nodes[1]).loc_rib().len(),
        0,
        "a dead firing processed a live UPDATE early"
    );
    assert!(sim.run_until_quiescent(SimTime::from_secs(300)).quiescent);
    let r1 = sim.node_ref::<Router>(nodes[1]);
    for p in &prefixes {
        assert_eq!(r1.next_hop_node(*p), Some(nodes[0]), "{p}");
    }
    // The same numbers before and after one-shot timers replaced the table.
    assert_eq!(
        (
            sim.stats().timers_fired - fired,
            sim.stats().timers_stale - stale
        ),
        (6, 4)
    );
}

/// RFC 4271 §9.2.1.1: MRAI paces advertisements only. With a 30 s timer
/// running toward a peer, an explicit withdrawal still leaves at once,
/// while a re-announcement waits for the timer (jittered to 22.5–30 s).
#[test]
fn withdrawal_bypasses_a_running_mrai_timer() {
    let (mut sim, nodes) = build(
        31,
        2,
        &[(0, 1)],
        TimingConfig::with_mrai(SimDuration::from_secs(30)),
        PolicyMode::AllPermit,
        &[],
        None,
    );
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    let p = pfx("192.0.2.0/24");
    let seen = |sim: &Sim| sim.node_ref::<Router>(nodes[1]).best(p).is_some();
    let command = |sim: &mut Sim, cmd| sim.inject(nodes[0], BgpOnlyMsg::Command(cmd));

    // The first announcement finds no timer running, and arms it.
    let first = sim.now();
    command(&mut sim, RouterCommand::Announce(p));
    sim.run_for(SimDuration::from_secs(1));
    assert!(seen(&sim), "the first announcement is not throttled");

    command(&mut sim, RouterCommand::Withdraw(p));
    sim.run_for(SimDuration::from_secs(1));
    assert!(!seen(&sim), "the withdrawal waited for the MRAI timer");

    command(&mut sim, RouterCommand::Announce(p));
    sim.run_until(first + SimDuration::from_millis(22_400));
    assert!(
        !seen(&sim),
        "the re-announcement left before the MRAI timer"
    );
    sim.run_until(first + SimDuration::from_secs(31));
    assert!(seen(&sim), "the re-announcement never left");
}

/// A monitoring session toward a route collector is not MRAI-throttled:
/// under a 30 s MRAI, back-to-back announcements reach the collector at
/// once, while the second waits for the timer toward an ordinary peer.
#[test]
fn monitor_session_is_not_mrai_throttled() {
    let (mut sim, nodes) = build(
        32,
        2,
        &[(0, 1)],
        TimingConfig::with_mrai(SimDuration::from_secs(30)),
        PolicyMode::AllPermit,
        &[],
        None,
    );
    let collector_asn = Asn(65535);
    let cfg = RouterConfig {
        timing: TimingConfig::with_mrai(SimDuration::from_secs(30)),
        ..RouterConfig::new(collector_asn)
    };
    let collector = sim.add_node("collector", |id| Router::new(id, cfg));
    let link = sim.add_link(nodes[0], collector, MS5.clone());
    sim.with_node::<Router, _>(nodes[0], |r| {
        r.add_neighbor(NeighborConfig::monitor(collector, link, collector_asn));
    });
    sim.with_node::<Router, _>(collector, |r| {
        r.add_neighbor(NeighborConfig::new(
            nodes[0],
            link,
            asn_of(0),
            Relationship::Monitor,
        ));
    });
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    let received = |sim: &Sim| sim.node_ref::<Router>(collector).stats().updates_received;

    let (p, q) = (pfx("192.0.2.0/24"), pfx("198.51.100.0/24"));
    sim.inject(nodes[0], BgpOnlyMsg::Command(RouterCommand::Announce(p)));
    sim.run_for(SimDuration::from_secs(1));
    let after_first = received(&sim);
    assert!(after_first > 0, "the collector saw no update");
    assert!(sim.node_ref::<Router>(nodes[1]).best(p).is_some());

    sim.inject(nodes[0], BgpOnlyMsg::Command(RouterCommand::Announce(q)));
    sim.run_for(SimDuration::from_secs(1));
    assert!(
        received(&sim) > after_first,
        "the collector's session waited for the MRAI timer"
    );
    assert!(
        sim.node_ref::<Router>(nodes[1]).best(q).is_none(),
        "the peer session was not throttled"
    );
}
