//! The route collector node.
//!
//! "All BGP routers peer with a BGP route collector, which collects routing
//! updates for monitoring purposes." The collector is the third owner of
//! the one session driver ([`bgpsdn_bgp::session`]): each monitored router
//! configures it as a [`Relationship::Monitor`](bgpsdn_bgp::Relationship)
//! neighbor (export-only, unthrottled) and opens the session. The collector
//! never starts its sessions, so the driver keeps them passive, and they
//! follow the router's rules: link-down closes, a malformed UPDATE is
//! treated as withdraw. Every UPDATE they deliver is counted in an
//! [`UpdateLog`].

use bgpsdn_bgp::{
    Asn, BgpApp, CloseReason, OpenMsg, RouterId, SessionConfig, SessionOwner, Sessions, UpdateMsg,
};
use bgpsdn_netsim::{Cause, Counter, Ctx, LinkId, Node, NodeId, TimerToken};

use crate::logview::UpdateLog;

/// The passive monitoring speaker.
pub struct RouteCollector<M> {
    id: NodeId,
    my_asn: Asn,
    my_id: RouterId,
    /// One session per monitored router.
    sessions: Sessions,
    log: UpdateLog,
    _m: std::marker::PhantomData<fn() -> M>,
}

impl<M: BgpApp> RouteCollector<M> {
    /// Build a collector. It conventionally uses a private ASN.
    pub fn new(id: NodeId, my_asn: Asn, my_id: RouterId) -> Self {
        RouteCollector {
            id,
            my_asn,
            my_id,
            sessions: Sessions::default(),
            log: UpdateLog::default(),
            _m: std::marker::PhantomData,
        }
    }

    /// Register a router to monitor (it must configure a monitor session
    /// toward the collector over `link`). The session proposes hold 0, so
    /// it arms no timer at either end.
    pub fn add_monitored(&mut self, router: NodeId, router_asn: Asn, link: LinkId) {
        self.sessions.add(SessionConfig {
            local: self.id,
            asn: self.my_asn,
            router_id: self.my_id,
            peer: router,
            remote_asn: router_asn,
            link,
            hold_secs: 0,
            graceful_restart_secs: 0,
            // The collector never sends an UPDATE.
            updates_sent: Counter::UpdatesSent,
        });
    }

    /// The recorded update log.
    pub fn log(&self) -> &UpdateLog {
        &self.log
    }

    /// The log, to clear it between experiment phases.
    pub fn log_mut(&mut self) -> &mut UpdateLog {
        &mut self.log
    }
}

impl<M: BgpApp> SessionOwner<M> for RouteCollector<M> {
    fn sessions(&mut self) -> &mut Sessions {
        &mut self.sessions
    }

    fn on_update(&mut self, ctx: &mut Ctx<'_, M>, _i: usize, upd: UpdateMsg, _cause: Cause) {
        let announced = upd.attrs.as_ref().map_or(0, |_| upd.nlri.len());
        self.log.push(ctx.now(), upd.withdrawn.len() + announced);
    }

    fn on_up(&mut self, _ctx: &mut Ctx<'_, M>, _i: usize, _open: &OpenMsg) {}

    fn on_down(
        &mut self,
        _ctx: &mut Ctx<'_, M>,
        _i: usize,
        _reason: &CloseReason,
        _was_established: bool,
    ) {
    }
}

impl<M: BgpApp> Node<M> for RouteCollector<M> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, _from: NodeId, _link: LinkId, msg: M) {
        if let Ok(env) = msg.into_bgp() {
            self.receive_bgp(ctx, &env);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, token: TimerToken) {
        self.session_timer(ctx, token);
    }

    fn on_link_change(&mut self, ctx: &mut Ctx<'_, M>, link: LinkId, up: bool) {
        self.session_link_change(ctx, link, up);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}
