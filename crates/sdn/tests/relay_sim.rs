//! End-to-end test of the cluster control-plane relay: a legacy BGP router
//! peers with a cluster member AS whose session is actually terminated by
//! the cluster BGP speaker, relayed over the member's switch.

use std::any::Any;
use std::net::Ipv4Addr;

use bgpsdn_bgp::{
    pfx, AsPath, Asn, BgpApp, BgpEnvelope, BgpMessage, BgpRouter, NeighborConfig, PathAttributes,
    Relationship, RouterConfig, RouterId, SessionState, TimingConfig, UpdateMsg,
};
use bgpsdn_netsim::{
    Cause, Counter, Ctx, DataPacket, LatencyModel, LinkId, Node, NodeId, SimDuration, SimTime,
    Simulator,
};
use bgpsdn_sdn::{
    AliasSessionConfig, ClusterMsg, ClusterSpeaker, CtrlMsg, FlowAction, FlowModOp, FlowRule,
    OfEnvelope, OfMessage, SdnSwitch, SpeakerCmd, SpeakerEvent,
};

type Sim = Simulator<ClusterMsg>;
type Router = BgpRouter<ClusterMsg>;
type Switch = SdnSwitch<ClusterMsg>;
type Speaker = ClusterSpeaker<ClusterMsg>;

const MS2: LatencyModel = LatencyModel::Fixed(SimDuration::from_millis(2));

/// Minimal controller stand-in: records speaker events and OF messages.
/// It acks reliable-channel payloads and echoes heartbeats so the speaker
/// considers it alive (and never enters headless mode mid-test).
struct EventSink {
    events: Vec<SpeakerEvent>,
    of_msgs: Vec<OfMessage>,
}

impl Node<ClusterMsg> for EventSink {
    fn on_message(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, _f: NodeId, l: LinkId, m: ClusterMsg) {
        match m {
            ClusterMsg::Ctrl(CtrlMsg::Event { epoch, seq, event }) => {
                self.events.push(event);
                ctx.send(l, ClusterMsg::Ctrl(CtrlMsg::EventAck { epoch, seq }));
            }
            ClusterMsg::Ctrl(CtrlMsg::Sync { epoch, seq, .. }) => {
                ctx.send(l, ClusterMsg::Ctrl(CtrlMsg::EventAck { epoch, seq }));
            }
            ClusterMsg::Ctrl(CtrlMsg::Heartbeat {
                from_controller: false,
                epoch,
            }) => {
                ctx.send(
                    l,
                    ClusterMsg::Ctrl(CtrlMsg::Heartbeat {
                        from_controller: true,
                        epoch,
                    }),
                );
            }
            ClusterMsg::Of(env) => {
                if let Ok(msg) = env.decode() {
                    self.of_msgs.push(msg);
                }
            }
            _ => {}
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct Setup {
    sim: Sim,
    ext: NodeId,
    sw: NodeId,
    speaker: NodeId,
    sink: NodeId,
    sink_to_speaker: LinkId,
    ext_link: LinkId,
}

/// Send `cmd` to the speaker as the controller does: the `seq`-th command
/// of epoch 1, the epoch the speaker's first snapshot opened.
fn command(s: &mut Setup, seq: u64, cmd: SpeakerCmd) {
    s.sim.inject(
        s.speaker,
        ClusterMsg::Ctrl(CtrlMsg::Cmd { epoch: 1, seq, cmd }),
    );
}

fn build(seed: u64) -> Setup {
    let mut sim = Sim::new(seed);
    let ext_asn = Asn(100);
    let member_asn = Asn(200);

    let ext_cfg = RouterConfig {
        originate: vec![pfx("10.100.0.0/16")],
        timing: TimingConfig {
            mrai: SimDuration::ZERO,
            ..Default::default()
        },
        ..RouterConfig::new(ext_asn)
    };
    let ext = sim.add_node("ext", |id| Router::new(id, ext_cfg));
    let sw = sim.add_node("member-switch", |_| Switch::new(0xA));
    let speaker = sim.add_node("speaker", |_| Speaker::default());
    let sink = sim.add_node("controller-sink", |_| EventSink {
        events: vec![],
        of_msgs: vec![],
    });

    let ext_link = sim.add_link(ext, sw, MS2.clone());
    let relay_link = sim.add_link(speaker, sw, MS2.clone());
    let ctl_link = sim.add_link(speaker, sink, MS2.clone());
    let sw_ctl_link = sim.add_link(sw, sink, MS2.clone());

    sim.with_node::<Router, _>(ext, |r| {
        r.add_neighbor(NeighborConfig::new(
            sw,
            ext_link,
            member_asn,
            Relationship::Peer,
        ));
    });
    sim.with_node::<Switch, _>(sw, |s| {
        s.set_controller_link(sw_ctl_link);
        s.add_relay(sw, relay_link); // envelopes to the member alias → speaker
        s.add_relay(ext, ext_link); // envelopes to the external router → out
    });
    sim.with_node::<Speaker, _>(speaker, |s| {
        s.set_controller_link(ctl_link);
        let idx = s.add_session(AliasSessionConfig {
            alias: sw,
            alias_asn: member_asn,
            alias_router_id: RouterId::from_ip(Ipv4Addr::new(10, 200, 0, 1)),
            alias_next_hop: Ipv4Addr::new(10, 200, 0, 1),
            ext_peer: ext,
            remote_asn: ext_asn,
            via_link: relay_link,
        });
        assert_eq!(idx, 0);
    });
    Setup {
        sim,
        ext,
        sw,
        speaker,
        sink,
        sink_to_speaker: ctl_link,
        ext_link,
    }
}

#[test]
fn alias_session_establishes_over_relay() {
    let mut s = build(1);
    assert!(s.sim.run_until_quiescent(SimTime::from_secs(30)).quiescent);
    // External router believes it has a session with the member AS.
    let ext = s.sim.node_ref::<Router>(s.ext);
    assert_eq!(ext.session_state(s.sw), Some(SessionState::Established));
    // Speaker agrees.
    assert!(s.sim.node_ref::<Speaker>(s.speaker).session_established(0));
    // Controller saw SessionUp with the external ASN.
    let sink = s.sim.node_ref::<EventSink>(s.sink);
    assert!(sink.events.iter().any(
        |e| matches!(e, SpeakerEvent::SessionUp { session: 0, peer_asn } if *peer_asn == Asn(100))
    ));
    // Relay actually happened over the switch.
    assert!(s.sim.counter(s.sw, Counter::Relayed) >= 4);
}

#[test]
fn external_update_reaches_controller_decoded() {
    let mut s = build(2);
    assert!(s.sim.run_until_quiescent(SimTime::from_secs(30)).quiescent);
    let sink = s.sim.node_ref::<EventSink>(s.sink);
    // ext originates 10.100/16 at startup; the update must arrive decoded.
    let got: Vec<_> = sink
        .events
        .iter()
        .filter_map(|e| match e {
            SpeakerEvent::Update {
                session: 0, update, ..
            } => Some(update.clone()),
            _ => None,
        })
        .collect();
    assert!(!got.is_empty(), "no decoded update at controller");
    assert!(got.iter().any(|u| u.nlri.contains(&pfx("10.100.0.0/16"))));
    let attrs = got
        .iter()
        .find(|u| !u.nlri.is_empty())
        .and_then(|u| u.attrs.clone())
        .expect("attrs");
    assert_eq!(attrs.as_path.flatten(), vec![Asn(100)]);
}

#[test]
fn controller_announce_reaches_external_router() {
    let mut s = build(3);
    assert!(s.sim.run_until_quiescent(SimTime::from_secs(30)).quiescent);
    // Controller announces a cluster prefix via the speaker, with the
    // member's ASN prepended (AS identity preserved).
    let p = pfx("10.200.0.0/16");
    command(
        &mut s,
        1,
        SpeakerCmd::Announce {
            session: 0,
            prefix: p,
            as_path: vec![Asn(200)].into(),
            med: None,
            cause: bgpsdn_netsim::Cause::NONE,
        },
    );
    assert!(s.sim.run_until_quiescent(SimTime::from_secs(30)).quiescent);
    let ext = s.sim.node_ref::<Router>(s.ext);
    let best = ext.best(p).expect("external router learned cluster prefix");
    assert_eq!(best.attrs.as_path.flatten(), vec![Asn(200)]);
    assert_eq!(best.attrs.next_hop, Ipv4Addr::new(10, 200, 0, 1));
    // Duplicate announcements are suppressed at the speaker.
    command(
        &mut s,
        2,
        SpeakerCmd::Announce {
            session: 0,
            prefix: p,
            as_path: vec![Asn(200)].into(),
            med: None,
            cause: bgpsdn_netsim::Cause::NONE,
        },
    );
    assert!(s.sim.run_until_quiescent(SimTime::from_secs(30)).quiescent);
    assert_eq!(s.sim.counter(s.speaker, Counter::DupSuppressed), 1);

    // Withdraw removes it again.
    command(
        &mut s,
        3,
        SpeakerCmd::Withdraw {
            session: 0,
            prefix: p,
            cause: bgpsdn_netsim::Cause::NONE,
        },
    );
    assert!(s.sim.run_until_quiescent(SimTime::from_secs(30)).quiescent);
    assert!(s.sim.node_ref::<Router>(s.ext).best(p).is_none());
}

#[test]
fn flow_mods_program_the_switch_and_forward_data() {
    let mut s = build(4);
    assert!(s.sim.run_until_quiescent(SimTime::from_secs(30)).quiescent);
    // Program: traffic to 10.100/16 leaves via the external link.
    let ext_port = s.ext_link.0;
    let fm = OfMessage::FlowMod {
        op: FlowModOp::Add,
        rule: FlowRule {
            priority: 100,
            prefix: pfx("10.100.0.0/16"),
            action: FlowAction::Output(ext_port),
            cookie: 1,
        },
    };
    s.sim.inject(s.sw, ClusterMsg::Of(OfEnvelope::new(&fm)));
    assert!(s.sim.run_until_quiescent(SimTime::from_secs(5)).quiescent);
    assert_eq!(s.sim.node_ref::<Switch>(s.sw).table().len(), 1);

    // Data packet entering the switch flows out to the external router and
    // gets answered (the router owns 10.100/16).
    let ping = DataPacket::echo_request(
        Ipv4Addr::new(10, 200, 9, 9),
        Ipv4Addr::new(10, 100, 0, 42),
        1,
    );
    s.sim.inject(s.sw, ClusterMsg::Data(ping));
    assert!(s.sim.run_until_quiescent(SimTime::from_secs(5)).quiescent);
    assert_eq!(s.sim.counter(s.sw, Counter::DataForwarded), 1);
    assert_eq!(s.sim.counter(s.ext, Counter::DataDelivered), 1);
    assert_eq!(s.sim.counter(s.ext, Counter::EchoReplies), 1);
    // The router has no route back to 10.200/16 (nothing announced for the
    // cluster in this test), so the reply dies there — visibly.
    assert_eq!(s.sim.counter(s.ext, Counter::NoRoute), 1);

    // Delete the rule; traffic now misses.
    let del = OfMessage::FlowMod {
        op: FlowModOp::Delete,
        rule: FlowRule {
            priority: 100,
            prefix: pfx("10.100.0.0/16"),
            action: FlowAction::Drop,
            cookie: 0,
        },
    };
    s.sim.inject(s.sw, ClusterMsg::Of(OfEnvelope::new(&del)));
    assert!(s.sim.run_until_quiescent(SimTime::from_secs(5)).quiescent);
    assert!(s.sim.node_ref::<Switch>(s.sw).table().is_empty());
}

#[test]
fn port_status_reported_to_controller() {
    let mut s = build(5);
    assert!(s.sim.run_until_quiescent(SimTime::from_secs(30)).quiescent);
    s.sim.set_link_admin(s.ext_link, false);
    let _ = s.sim.run_until_quiescent(SimTime::from_secs(30));
    s.sim.run_until(s.sim.now() + SimDuration::from_secs(2));
    let sink = s.sim.node_ref::<EventSink>(s.sink);
    assert!(
        sink.of_msgs
            .iter()
            .any(|m| matches!(m, OfMessage::PortStatus { up: false, .. })),
        "controller must see the port go down; saw {:?}",
        sink.of_msgs
    );
    // The external router dropped its session on link death.
    let ext = s.sim.node_ref::<Router>(s.ext);
    assert_ne!(ext.session_state(s.sw), Some(SessionState::Established));
}

#[test]
fn speaker_session_survives_and_recovers_relay_flap() {
    let mut s = build(6);
    assert!(s.sim.run_until_quiescent(SimTime::from_secs(30)).quiescent);
    // Find the relay link (speaker <-> switch).
    let relay = s
        .sim
        .links()
        .iter()
        .find(|l| l.touches(s.speaker) && l.touches(s.sw))
        .unwrap()
        .id;
    s.sim.set_link_admin(relay, false);
    s.sim.run_until(s.sim.now() + SimDuration::from_secs(2));
    assert!(!s.sim.node_ref::<Speaker>(s.speaker).session_established(0));
    let sink = s.sim.node_ref::<EventSink>(s.sink);
    assert!(sink
        .events
        .iter()
        .any(|e| matches!(e, SpeakerEvent::SessionDown { session: 0 })));

    s.sim.set_link_admin(relay, true);
    s.sim.run_until(s.sim.now() + SimDuration::from_secs(30));
    assert!(
        s.sim.node_ref::<Speaker>(s.speaker).session_established(0),
        "alias session must recover after the relay link returns"
    );
    let _ = s.sink_to_speaker;
}

#[test]
fn alias_session_treats_a_malformed_update_as_withdraw() {
    let mut s = build(7);
    assert!(s.sim.run_until_quiescent(SimTime::from_secs(30)).quiescent);
    // The external router re-announces its prefix, but the ORIGIN value is
    // out of range: the framing is intact, only attribute content is bad.
    let prefix = pfx("10.100.0.0/16");
    let mut attrs = PathAttributes::originate(Ipv4Addr::new(10, 255, 0, 100));
    attrs.as_path = AsPath::from_seq([100]);
    let mut bytes = BgpMessage::Update(UpdateMsg::announce([prefix], attrs)).encode();
    // 19-byte header, 2-byte withdrawn length, 2-byte attribute length,
    // then ORIGIN's flags, type and length: its value is byte 26.
    assert_eq!(bytes[26], 0, "ORIGIN IGP");
    bytes[26] = 7;
    let env = BgpEnvelope {
        src: s.ext,
        dst: s.sw,
        bytes: bytes.into(),
        cause: Cause::NONE,
    };
    s.sim.inject(s.speaker, ClusterMsg::from_bgp(env));
    s.sim.run_until(s.sim.now() + SimDuration::from_secs(2));

    // RFC 7606, as a router applies it: the session survives and the
    // controller sees the UPDATE's prefixes withdrawn.
    assert!(s.sim.node_ref::<Speaker>(s.speaker).session_established(0));
    assert_eq!(s.sim.counter(s.speaker, Counter::TreatAsWithdraw), 1);
    let sink = s.sim.node_ref::<EventSink>(s.sink);
    let last = sink
        .events
        .iter()
        .rev()
        .find_map(|e| match e {
            SpeakerEvent::Update {
                session: 0, update, ..
            } => Some(update),
            _ => None,
        })
        .expect("updates reached the controller");
    assert_eq!(last.withdrawn.as_slice(), [prefix]);
    assert!(last.nlri.is_empty() && last.attrs.is_none());
}
