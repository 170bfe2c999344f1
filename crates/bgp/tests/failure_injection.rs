//! Failure-injection tests: corrupted wire bytes, mid-storm session loss,
//! and churn under repeated flaps — the router must degrade loudly and
//! recover cleanly, never wedge.

use bgpsdn_bgp::{
    pfx, Asn, BgpEnvelope, BgpOnlyMsg, BgpRouter, NeighborConfig, Prefix, Relationship,
    RouterCommand, RouterConfig, SessionState, TimingConfig,
};
use bgpsdn_netsim::{Counter, LatencyModel, NodeId, SimDuration, SimTime, Simulator};

type Router = BgpRouter<BgpOnlyMsg>;
type Sim = Simulator<BgpOnlyMsg>;

const MS5: LatencyModel = LatencyModel::Fixed(SimDuration::from_millis(5));

fn asn_of(i: usize) -> Asn {
    Asn(65000 + i as u32)
}

fn prefix_of(i: usize) -> Prefix {
    pfx(&format!("10.{}.0.0/16", i + 1))
}

fn fast() -> TimingConfig {
    TimingConfig {
        mrai: SimDuration::ZERO,
        ..Default::default()
    }
}

fn pair(seed: u64) -> (Sim, NodeId, NodeId) {
    let mut sim = Sim::new(seed);
    let a_cfg = RouterConfig {
        originate: vec![prefix_of(0)],
        timing: fast(),
        ..RouterConfig::new(asn_of(0))
    };
    let b_cfg = RouterConfig {
        originate: vec![prefix_of(1)],
        timing: fast(),
        ..RouterConfig::new(asn_of(1))
    };
    let a = sim.add_node("a", |id| Router::new(id, a_cfg));
    let b = sim.add_node("b", |id| Router::new(id, b_cfg));
    let l = sim.add_link(a, b, MS5.clone());
    sim.with_node::<Router, _>(a, |r| {
        r.add_neighbor(NeighborConfig::new(b, l, asn_of(1), Relationship::Peer))
    });
    sim.with_node::<Router, _>(b, |r| {
        r.add_neighbor(NeighborConfig::new(a, l, asn_of(0), Relationship::Peer))
    });
    (sim, a, b)
}

/// A wire-tap middlebox: relays BGP envelopes between its two sides by
/// logical destination (like the cluster switches do) and corrupts the
/// payload of the `corrupt_nth` UPDATE it forwards.
struct Corruptor {
    relay: std::collections::HashMap<NodeId, bgpsdn_netsim::LinkId>,
    corrupt_nth: u64,
    updates_seen: u64,
}

impl bgpsdn_netsim::Node<BgpOnlyMsg> for Corruptor {
    fn on_message(
        &mut self,
        ctx: &mut bgpsdn_netsim::Ctx<'_, BgpOnlyMsg>,
        _from: NodeId,
        _link: bgpsdn_netsim::LinkId,
        msg: BgpOnlyMsg,
    ) {
        let BgpOnlyMsg::Bgp(mut env) = msg else {
            return;
        };
        let Some(&out) = self.relay.get(&env.dst) else {
            return;
        };
        // Count only UPDATEs (type byte 2 at offset 18).
        if env.bytes.len() > 18 && env.bytes[18] == 2 {
            self.updates_seen += 1;
            if self.updates_seen == self.corrupt_nth {
                // Flip bits deep in the body: still a BGP frame, bad content.
                let n = env.bytes.len();
                env.bytes[n - 1] ^= 0xFF;
                env.bytes[19] ^= 0x55;
            }
        }
        ctx.send(out, BgpOnlyMsg::Bgp(env));
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn corrupt_wire_bytes_drop_and_recover_the_session() {
    // a — corruptor — b; the corruptor mangles the 3rd UPDATE in flight.
    let mut sim = Sim::new(1);
    let a_cfg = RouterConfig {
        originate: vec![prefix_of(0)],
        timing: fast(),
        ..RouterConfig::new(asn_of(0))
    };
    let b_cfg = RouterConfig {
        originate: vec![prefix_of(1)],
        timing: fast(),
        ..RouterConfig::new(asn_of(1))
    };
    let a = sim.add_node("a", |id| Router::new(id, a_cfg));
    let b = sim.add_node("b", |id| Router::new(id, b_cfg));
    let m = sim.add_node("corruptor", |_| Corruptor {
        relay: Default::default(),
        corrupt_nth: 3,
        updates_seen: 0,
    });
    let la = sim.add_link(a, m, MS5.clone());
    let lb = sim.add_link(m, b, MS5.clone());
    sim.with_node::<Corruptor, _>(m, |c| {
        c.relay.insert(a, la);
        c.relay.insert(b, lb);
    });
    sim.with_node::<Router, _>(a, |r| {
        r.add_neighbor(NeighborConfig::new(b, la, asn_of(1), Relationship::Peer))
    });
    sim.with_node::<Router, _>(b, |r| {
        r.add_neighbor(NeighborConfig::new(a, lb, asn_of(0), Relationship::Peer))
    });
    let q = sim.run_until_quiescent(SimTime::from_secs(300));
    assert!(q.quiescent);

    let (ra, rb) = (sim.node_ref::<Router>(a), sim.node_ref::<Router>(b));
    let total_decode_errors =
        sim.counter(a, Counter::DecodeErrors) + sim.counter(b, Counter::DecodeErrors);
    assert_eq!(total_decode_errors, 1, "exactly one corrupt frame seen");
    assert!(
        sim.counter(a, Counter::NotificationsSent) + sim.counter(b, Counter::NotificationsSent)
            >= 1
    );
    // The session recovered via retry and the full table was re-learned.
    assert_eq!(ra.session_state(b), Some(SessionState::Established));
    assert_eq!(rb.session_state(a), Some(SessionState::Established));
    assert!(ra.best(prefix_of(1)).is_some(), "routes relearned at a");
    assert!(rb.best(prefix_of(0)).is_some(), "routes relearned at b");
}

#[test]
fn wrong_destination_envelopes_are_ignored() {
    let (mut sim, a, b) = pair(2);
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    let before = sim.node_ref::<Router>(a).stats().updates_received;

    // An envelope addressed to some other node: routers do not relay.
    let stray = BgpEnvelope::new(b, NodeId(999), &bgpsdn_bgp::BgpMessage::Keepalive);
    sim.inject(a, BgpOnlyMsg::Bgp(stray));
    // And one from an unknown speaker.
    let unknown = BgpEnvelope::new(NodeId(998), a, &bgpsdn_bgp::BgpMessage::Keepalive);
    sim.inject(a, BgpOnlyMsg::Bgp(unknown));
    assert!(sim.run_until_quiescent(SimTime::from_secs(30)).quiescent);

    let ra = sim.node_ref::<Router>(a);
    assert_eq!(ra.stats().updates_received, before);
    assert_eq!(sim.counter(a, Counter::DecodeErrors), 0);
    assert_eq!(ra.session_state(b), Some(SessionState::Established));
}

#[test]
fn rapid_flapping_never_wedges_the_router() {
    let (mut sim, a, b) = pair(3);
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    // 50 announce/withdraw cycles at sub-RTT spacing.
    for i in 0..50u64 {
        let cmd = if i % 2 == 0 {
            RouterCommand::Withdraw(prefix_of(0))
        } else {
            RouterCommand::Announce(prefix_of(0))
        };
        sim.inject_at(
            sim.now() + SimDuration::from_millis(i * 2),
            a,
            BgpOnlyMsg::Command(cmd),
        );
    }
    let q = sim.run_until_quiescent(SimTime::from_secs(300));
    assert!(q.quiescent, "storm must settle");
    // Final state: announced (50 commands end on Announce at i=49).
    let rb = sim.node_ref::<Router>(b);
    assert!(rb.best(prefix_of(0)).is_some());
    // RIBs consistent with Adj state.
    assert_eq!(rb.adj_in().count_for_peer(0), 1);
}

#[test]
fn repeated_link_flaps_reconverge_every_time() {
    let (mut sim, a, b) = pair(4);
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    let link = sim.links()[0].id;
    for round in 0..5 {
        sim.set_link_admin(link, false);
        sim.run_for(SimDuration::from_secs(2));
        assert!(
            sim.node_ref::<Router>(a).best(prefix_of(1)).is_none(),
            "round {round}: route must be flushed while down"
        );
        sim.set_link_admin(link, true);
        let q = sim.run_until_quiescent(sim.now() + SimDuration::from_secs(120));
        assert!(q.quiescent, "round {round}");
        let ra = sim.node_ref::<Router>(a);
        assert_eq!(
            ra.session_state(b),
            Some(SessionState::Established),
            "round {round}"
        );
        assert!(ra.best(prefix_of(1)).is_some(), "round {round}");
    }
    assert!(sim.counter(a, Counter::SessionsEstablished) >= 6);
    assert!(sim.counter(a, Counter::SessionsDropped) >= 5);
}

#[test]
fn lossy_link_converges_eventually_with_retries() {
    // 30% loss on the only link: session setup and updates retry via the
    // connect/backoff machinery until everything lands.
    let mut sim = Sim::new(5);
    let a_cfg = RouterConfig {
        originate: vec![prefix_of(0)],
        timing: fast(),
        ..RouterConfig::new(asn_of(0))
    };
    let b_cfg = RouterConfig {
        timing: fast(),
        ..RouterConfig::new(asn_of(1))
    };
    let a = sim.add_node("a", |id| Router::new(id, a_cfg));
    let b = sim.add_node("b", |id| Router::new(id, b_cfg));
    let l = sim.add_link(a, b, MS5.clone());
    sim.set_link_loss(l, 0.3);
    sim.with_node::<Router, _>(a, |r| {
        r.add_neighbor(NeighborConfig::new(b, l, asn_of(1), Relationship::Peer))
    });
    sim.with_node::<Router, _>(b, |r| {
        r.add_neighbor(NeighborConfig::new(a, l, asn_of(0), Relationship::Peer))
    });
    // BGP-over-lossy-transport isn't a protocol feature (TCP hides loss);
    // here loss can eat OPEN/KEEPALIVE and the retry machinery must cope.
    // Not every seed fully converges — but the engine must stay sane and
    // never wedge. Drive enough traffic that drops certainly occur.
    for i in 0..50u64 {
        let cmd = if i % 2 == 0 {
            RouterCommand::Announce(pfx(&format!("192.0.{}.0/24", i % 200)))
        } else {
            RouterCommand::Withdraw(pfx(&format!("192.0.{}.0/24", (i - 1) % 200)))
        };
        sim.inject_at(
            SimTime::from_secs(1) + SimDuration::from_millis(i * 100),
            a,
            BgpOnlyMsg::Command(cmd),
        );
    }
    sim.run_until(SimTime::from_secs(120));
    assert!(sim.stats().msgs_dropped_loss > 0, "loss model engaged");
    // No decode errors: loss drops whole messages, never corrupts them.
    assert_eq!(sim.counter(a, Counter::DecodeErrors), 0);
}
