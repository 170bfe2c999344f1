//! The route collector's sessions in a running simulation: one router
//! peering with the collector over one link. The collector runs its
//! sessions on the router's driver, so it follows the router's rules for a
//! failed link and for a malformed UPDATE.

use bgpsdn_bgp::{
    pfx, Asn, BgpEnvelope, BgpMessage, BgpOnlyMsg, BgpRouter, NeighborConfig, PathAttributes,
    RouterConfig, RouterId, SessionState, TimingConfig, UpdateMsg,
};
use bgpsdn_collector::RouteCollector;
use bgpsdn_netsim::{
    LatencyModel, LinkId, NodeId, SimDuration, SimTime, Simulator, TraceCategory, TraceEvent,
    TraceRecord,
};

type Router = BgpRouter<BgpOnlyMsg>;
type Collector = RouteCollector<BgpOnlyMsg>;
type Sim = Simulator<BgpOnlyMsg>;

const ROUTER_ASN: Asn = Asn(65001);
const COLLECTOR_ASN: Asn = Asn(65535);
const SETTLE: SimDuration = SimDuration::from_secs(10);

/// A router originating 10.1.0.0/16, monitored by a collector over one
/// 5 ms link, with session and message tracing on.
fn monitored() -> (Sim, NodeId, NodeId, LinkId) {
    let mut sim = Sim::with_event_capacity(7, 0);
    let timing = TimingConfig {
        mrai: SimDuration::ZERO,
        ..Default::default()
    };
    let cfg = RouterConfig {
        originate: vec![pfx("10.1.0.0/16")],
        timing,
        ..RouterConfig::new(ROUTER_ASN)
    };
    let r = sim.add_node("r", |id| Router::new(id, cfg));
    let c = sim.add_node("collector", |id| {
        Collector::new(id, COLLECTOR_ASN, RouterId(99))
    });
    let link = sim.add_link(r, c, LatencyModel::Fixed(SimDuration::from_millis(5)));
    sim.with_node::<Router, _>(r, |x| {
        x.add_neighbor(NeighborConfig::monitor(c, link, COLLECTOR_ASN))
    });
    sim.with_node::<Collector, _>(c, |x| x.add_monitored(r, ROUTER_ASN, link));
    sim.trace_mut().enable(TraceCategory::Session);
    sim.trace_mut().enable(TraceCategory::Msg);
    (sim, r, c, link)
}

/// The records of `node` in `[from, to)`.
fn records(sim: &Sim, node: NodeId, from: SimTime, to: SimTime) -> Vec<&TraceRecord> {
    sim.trace()
        .records()
        .filter(|r| r.node == Some(node) && r.time >= from && r.time < to)
        .collect()
}

fn is_note(r: &TraceRecord, needle: &str) -> bool {
    matches!(&r.event, TraceEvent::Note { text, .. } if text.contains(needle))
}

#[test]
fn a_failed_link_closes_the_collector_end_and_the_first_open_restores_it() {
    let (mut sim, r, c, link) = monitored();
    sim.run_for(SETTLE);
    let established = |sim: &Sim| sim.node_ref::<Router>(r).session_state(c);
    assert_eq!(established(&sim), Some(SessionState::Established));

    let fail = sim.now();
    sim.set_link_admin(link, false);
    sim.run_for(SETTLE);
    let restore = sim.now();
    sim.set_link_admin(link, true);
    sim.run_for(SETTLE);

    let outage = records(&sim, c, fail, restore);
    assert!(
        outage
            .iter()
            .any(|r| matches!(r.event, TraceEvent::SessionDown { .. })),
        "the collector's session outlived its link"
    );
    let after = |node| records(&sim, node, restore, SimTime::MAX);
    let open = format!("-> {c} OPEN(");
    let opens = after(r).into_iter().filter(|r| is_note(r, &open)).count();
    assert_eq!(opens, 1, "the router's first OPEN re-establishes");
    assert!(after(c)
        .iter()
        .any(|r| matches!(r.event, TraceEvent::SessionUp { .. })));
    assert_eq!(established(&sim), Some(SessionState::Established));
    assert!(
        !sim.trace().records().any(|r| is_note(r, "NOTIFICATION")),
        "no NOTIFICATION crosses the link"
    );
}

#[test]
fn a_malformed_update_to_the_collector_is_treated_as_withdraw() {
    let (mut sim, r, c, _) = monitored();
    sim.run_for(SETTLE);
    sim.with_node::<Collector, _>(c, |x| x.log_mut().clear());

    // A well-framed UPDATE from the router whose ORIGIN value is 7.
    let attrs = PathAttributes::originate([10, 1, 0, 1].into());
    let upd = UpdateMsg::announce([pfx("10.1.0.0/16"), pfx("10.2.0.0/16")], attrs);
    let mut env = BgpEnvelope::new(r, c, &BgpMessage::Update(upd));
    let origin = env
        .bytes
        .windows(3)
        .position(|w| w == [0x40, 1, 1])
        .expect("the UPDATE carries ORIGIN");
    env.bytes[origin + 3] = 7;
    let at = sim.now();
    sim.inject(c, BgpOnlyMsg::Bgp(env));
    sim.run_for(SETTLE);

    let log = sim.node_ref::<Collector>(c).log();
    assert_eq!(log.len(), 2, "both prefixes logged as withdrawn");
    let after = records(&sim, c, at, SimTime::MAX);
    assert!(after.iter().any(|r| is_note(r, "treat-as-withdraw")));
    assert!(!after
        .iter()
        .any(|r| matches!(r.event, TraceEvent::SessionDown { .. })));
    let state = sim.node_ref::<Router>(r).session_state(c);
    assert_eq!(state, Some(SessionState::Established));
}
