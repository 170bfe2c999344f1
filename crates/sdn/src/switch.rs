//! The SDN switch node.
//!
//! A cluster member AS is emulated by one switch (the paper's
//! one-device-per-AS abstraction applies inside the cluster too). The switch
//! does three jobs:
//!
//! 1. **Data plane**: forward [`DataPacket`](bgpsdn_netsim::DataPacket)s by flow-table lookup;
//! 2. **Control channel**: obey FlowMod and TableRequest from the
//!    controller and report Hello/PortStatus/PacketIn upward — as encoded
//!    OpenFlow bytes;
//! 3. **Control-plane relay**: pass BGP envelopes between external routers
//!    and the cluster BGP speaker using a static relay table ("for every BGP
//!    peering there is a link from the cluster BGP speaker to the border SDN
//!    switch, so as to relay control plane information over the switches").

use std::collections::HashMap;

use bgpsdn_bgp::BgpApp;
use bgpsdn_netsim::{
    Activity, CausalPhase, Counter, Counters, Ctx, LinkId, Node, NodeId, ObsPrefix, TraceCategory,
    TraceEvent,
};

use crate::app::SdnApp;
use crate::flowtable::{FlowAction, FlowTable};
use crate::openflow::{FlowModOp, OfEnvelope, OfMessage};

/// The switch counters the benchmark harness reads, as one value; every
/// counter is [`Simulator::counter`](bgpsdn_netsim::Simulator::counter).
#[derive(Debug, Clone, Copy)]
pub struct SwitchStats {
    /// FlowMods applied.
    pub flow_mods: u64,
}

/// An OpenFlow switch standing in for a cluster member AS.
pub struct SdnSwitch<M> {
    datapath_id: u64,
    controller_link: Option<LinkId>,
    table: FlowTable,
    relay: HashMap<NodeId, LinkId>,
    counters: Counters,
    _m: std::marker::PhantomData<fn() -> M>,
}

impl<M: SdnApp + BgpApp> SdnSwitch<M> {
    /// Build a switch. `datapath_id` identifies it on the control channel.
    pub fn new(datapath_id: u64) -> Self {
        SdnSwitch {
            datapath_id,
            controller_link: None,
            table: FlowTable::new(),
            relay: HashMap::new(),
            counters: Counters::default(),
            _m: std::marker::PhantomData,
        }
    }

    /// Attach the controller channel (must be set before start).
    pub fn set_controller_link(&mut self, link: LinkId) {
        self.controller_link = Some(link);
    }

    /// Install a control-plane relay entry: envelopes addressed to `dst`
    /// leave through `out`.
    pub fn add_relay(&mut self, dst: NodeId, out: LinkId) {
        self.relay.insert(dst, out);
    }

    /// The flow table (for assertions and FIB audits).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Mutable flow table access, for fault injection: corrupting an entry
    /// out from under the controller's intent is how verifier tests prove
    /// the static checks catch real data-plane drift.
    pub fn table_mut(&mut self) -> &mut FlowTable {
        &mut self.table
    }

    /// The counters the benchmark harness reads.
    pub fn stats(&self) -> SwitchStats {
        SwitchStats {
            flow_mods: self.counters.get(Counter::FlowModsApplied),
        }
    }

    /// This switch's datapath id.
    pub fn datapath_id(&self) -> u64 {
        self.datapath_id
    }

    fn send_to_controller(&mut self, ctx: &mut Ctx<'_, M>, msg: &OfMessage) {
        if let Some(link) = self.controller_link {
            ctx.send(link, M::from_of(OfEnvelope::new(msg)));
        }
    }

    fn handle_of(&mut self, ctx: &mut Ctx<'_, M>, env: &OfEnvelope) {
        let msg = match env.decode() {
            Ok(m) => m,
            Err(e) => {
                ctx.trace(TraceCategory::Flow, || TraceEvent::Note {
                    category: TraceCategory::Flow,
                    text: format!("of decode error: {e}"),
                });
                return;
            }
        };
        match msg {
            OfMessage::FlowMod { op, rule } => {
                ctx.count(Counter::FlowModsApplied, 1);
                let span = ctx.span();
                let changed = match op {
                    FlowModOp::Add => self.table.install(rule.clone()),
                    FlowModOp::Delete => self.table.remove(rule.priority, rule.prefix),
                };
                ctx.end_span("sdn.flowtable.mutate_wall_ns", span);
                if changed {
                    ctx.report(Activity::FlowInstalled);
                    let prefix = ObsPrefix::from(rule.prefix);
                    let (priority, action) = (rule.priority, rule.action.repr());
                    ctx.trace(TraceCategory::Flow, || match op {
                        FlowModOp::Add => TraceEvent::FlowInstalled {
                            prefix,
                            priority,
                            action,
                        },
                        FlowModOp::Delete => TraceEvent::FlowRemoved {
                            prefix,
                            priority,
                            action,
                        },
                    });
                    // Causal: a flow-table change is a settlement — the
                    // flow_install edge spans controller send → install.
                    ctx.causal_edge(env.cause, CausalPhase::FlowInstall, Some(prefix));
                }
            }
            OfMessage::TableRequest { xid } => {
                let reply = OfMessage::TableReply {
                    xid,
                    rules: self.table.iter().cloned().collect(),
                    ports: ctx
                        .neighbors()
                        .iter()
                        .map(|&(l, _)| (l.0, ctx.link_up(l)))
                        .collect(),
                };
                self.send_to_controller(ctx, &reply);
            }
            // Controller-bound messages arriving here are ignored.
            OfMessage::Hello { .. }
            | OfMessage::PacketIn { .. }
            | OfMessage::PortStatus { .. }
            | OfMessage::TableReply { .. } => {}
        }
    }

    fn handle_data(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        pkt: bgpsdn_netsim::DataPacket,
        ingress: LinkId,
    ) {
        match self.table.lookup(pkt.dst).map(|r| r.action) {
            Some(FlowAction::Output(port)) => {
                // A packet whose TTL runs out here is dropped.
                if let Some(fwd) = pkt.decrement_ttl() {
                    ctx.count(Counter::DataForwarded, 1);
                    ctx.send(LinkId(port), M::from_data(fwd));
                }
            }
            Some(FlowAction::ToController) => {
                let msg = OfMessage::PacketIn {
                    ingress: ingress.0,
                    packet: pkt,
                };
                self.send_to_controller(ctx, &msg);
            }
            Some(FlowAction::Local) => {
                ctx.count(Counter::DataDelivered, 1);
                if pkt.kind == bgpsdn_netsim::PacketKind::EchoRequest {
                    ctx.count(Counter::EchoReplies, 1);
                    let reply = pkt.reply_to();
                    // Route the reply through our own flow table.
                    self.handle_data(ctx, reply, ingress);
                }
            }
            Some(FlowAction::Drop) | None => {}
        }
    }
}

impl<M: SdnApp + BgpApp> Node<M> for SdnSwitch<M> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let hello = OfMessage::Hello {
            datapath_id: self.datapath_id,
        };
        self.send_to_controller(ctx, &hello);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, _from: NodeId, link: LinkId, msg: M) {
        // Control-plane relay: BGP envelopes pass through by destination.
        if let Some(env) = msg.as_bgp() {
            match self.relay.get(&env.dst) {
                Some(&out) => {
                    ctx.count(Counter::Relayed, 1);
                    ctx.send(out, msg.clone());
                }
                None => {
                    ctx.trace(TraceCategory::Msg, || TraceEvent::Note {
                        category: TraceCategory::Msg,
                        text: format!("relay miss for envelope to {}", env.dst),
                    });
                }
            }
            return;
        }
        // OF control traffic is accepted from the controller channel and
        // from the driver-injection sentinel (tests and manual programming).
        if Some(link) == self.controller_link || link.is_control() {
            if let Some(env) = msg.as_of() {
                let env = env.clone();
                self.handle_of(ctx, &env);
                return;
            }
        }
        if let Some(pkt) = msg.as_data() {
            let pkt = *pkt;
            self.handle_data(ctx, pkt, link);
        }
    }

    fn on_link_change(&mut self, ctx: &mut Ctx<'_, M>, link: LinkId, up: bool) {
        let msg = OfMessage::PortStatus { port: link.0, up };
        self.send_to_controller(ctx, &msg);
    }

    fn counters(&self) -> Option<&Counters> {
        Some(&self.counters)
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}
