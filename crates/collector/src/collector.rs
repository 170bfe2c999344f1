//! The route collector node.
//!
//! "All BGP routers peer with a BGP route collector, which collects routing
//! updates for monitoring purposes." The collector is a passive BGP speaker:
//! it accepts sessions from any router (monitored routers configure it as a
//! [`Relationship::Monitor`](bgpsdn_bgp::Relationship) neighbor, export-only
//! and unthrottled), decodes every UPDATE and appends prefix events to an
//! [`UpdateLog`].

use bgpsdn_bgp::{Asn, BgpApp, BgpEnvelope, BgpMessage, RouterId, SessionEvent, SessionHandshake};
use bgpsdn_netsim::{Ctx, LinkId, Node, NodeId, TraceCategory, TraceEvent};

use crate::logview::{LogAction, LogEntry, UpdateLog};

/// Collector counters.
#[derive(Debug, Clone, Default)]
pub struct CollectorStats {
    /// Sessions currently established.
    pub sessions_up: usize,
    /// UPDATE messages received.
    pub updates: u64,
    /// Decode failures.
    pub decode_errors: u64,
}

struct MonitoredPeer {
    handshake: SessionHandshake,
    link: LinkId,
    asn: Asn,
}

/// The passive monitoring speaker.
pub struct RouteCollector<M> {
    id: NodeId,
    my_asn: Asn,
    my_id: RouterId,
    /// Monitored routers, sorted by node: the lookup every received
    /// message starts with.
    peers: Vec<(NodeId, MonitoredPeer)>,
    log: UpdateLog,
    stats: CollectorStats,
    _m: std::marker::PhantomData<fn() -> M>,
}

impl<M: BgpApp> RouteCollector<M> {
    /// Build a collector. It conventionally uses a private ASN.
    pub fn new(id: NodeId, my_asn: Asn, my_id: RouterId) -> Self {
        RouteCollector {
            id,
            my_asn,
            my_id,
            peers: Vec::new(),
            log: UpdateLog::default(),
            stats: CollectorStats::default(),
            _m: std::marker::PhantomData,
        }
    }

    /// Pre-size the peer table — the network builder knows the monitored
    /// router count up front, so registration never reallocates.
    pub fn reserve_peers(&mut self, additional: usize) {
        self.peers.reserve(additional);
    }

    /// Register a router to monitor (it must configure a monitor session
    /// toward the collector over `link`). The collector stays passive: the
    /// router initiates.
    pub fn add_monitored(&mut self, router: NodeId, router_asn: Asn, link: LinkId) {
        let peer = MonitoredPeer {
            // Accept any ASN: collectors don't validate peers.
            handshake: SessionHandshake::new(self.my_asn, self.my_id, 0, None),
            link,
            asn: router_asn,
        };
        match self.peers.binary_search_by_key(&router, |(node, _)| *node) {
            Ok(at) => self.peers[at].1 = peer,
            Err(at) => self.peers.insert(at, (router, peer)),
        }
    }

    /// The recorded update log.
    pub fn log(&self) -> &UpdateLog {
        &self.log
    }

    /// Reset the log between experiment phases.
    pub fn clear_log(&mut self) {
        self.log.clear();
    }

    /// Counters.
    pub fn stats(&self) -> &CollectorStats {
        &self.stats
    }
}

impl<M: BgpApp> Node<M> for RouteCollector<M> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, _from: NodeId, _link: LinkId, msg: M) {
        let env = match msg.into_bgp() {
            Ok(env) if env.dst == self.id => env,
            _ => return,
        };
        let peer_node = env.src;
        let Ok(at) = self
            .peers
            .binary_search_by_key(&peer_node, |(node, _)| *node)
        else {
            return;
        };
        let peer = &mut self.peers[at].1;
        let bgp = match env.decode() {
            Ok(m) => m,
            Err(e) => {
                self.stats.decode_errors += 1;
                ctx.trace(TraceCategory::Session, || TraceEvent::Note {
                    category: TraceCategory::Session,
                    text: format!("decode error: {e}"),
                });
                return;
            }
        };
        if let BgpMessage::Update(upd) = &bgp {
            if peer.handshake.is_established() {
                self.stats.updates += 1;
                let now = ctx.now();
                for p in &upd.withdrawn {
                    self.log.push(LogEntry {
                        time: now,
                        peer: peer_node,
                        peer_asn: peer.asn,
                        prefix: *p,
                        action: LogAction::Withdraw,
                    });
                }
                if let Some(attrs) = &upd.attrs {
                    for p in &upd.nlri {
                        self.log.push(LogEntry {
                            time: now,
                            peer: peer_node,
                            peer_asn: peer.asn,
                            prefix: *p,
                            action: LogAction::Announce(attrs.as_path.clone()),
                        });
                    }
                }
                return;
            }
        }
        let was_up = peer.handshake.is_established();
        let (to_send, event) = peer.handshake.on_message(&bgp);
        let link = peer.link;
        for m in to_send {
            let reply = BgpEnvelope::new(self.id, peer_node, &m);
            ctx.send(link, M::from_bgp(reply));
        }
        match event {
            Some(SessionEvent::Established(_)) => {
                self.stats.sessions_up += 1;
                ctx.trace(TraceCategory::Session, || TraceEvent::SessionUp {
                    peer: peer_node.0,
                });
            }
            Some(SessionEvent::Closed(_)) if was_up => {
                self.stats.sessions_up = self.stats.sessions_up.saturating_sub(1);
            }
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}
