//! The BGP session driver: one lifecycle for every session a node runs.
//!
//! The router, the cluster speaker and the route collector run their
//! sessions through [`Sessions`]: the staggered first OPEN, retry with
//! backoff and the supervised half-open reconnect, keepalive/hold, the
//! receive path (endpoint lookup, decode, RFC 7606 treat-as-withdraw, the
//! FSM step), the send path (envelope and trace) and link up/down;
//! [`crate::fsm`] lists the rules. What differs between owners is data in
//! each [`SessionConfig`], never a branch on the owner; the owner keeps its
//! own per-session state and hears of the lifecycle through
//! [`SessionOwner`]. Passivity follows from behaviour: only a node that
//! called [`Sessions::start`] opens, retries or reconnects a session, so
//! the collector, which never does, only answers OPENs.

use bgpsdn_netsim::{
    Activity, Cause, Counter, Ctx, LinkId, NodeId, SimDuration, TimerClass, TimerToken,
    TraceCategory, TraceEvent,
};

use crate::envelope::{BgpApp, BgpEnvelope};
use crate::fsm::{CloseReason, SessionEvent, SessionHandshake, SessionState};
use crate::msg::{BgpMessage, NotifCode, NotificationMsg, OpenMsg, UpdateMsg};
use crate::types::{Asn, RouterId};
use crate::wire::Writer;

/// Timer tokens are `payload << KIND_BITS | kind`; the driver's kinds,
/// below [`FIRST_OWNER_KIND`], carry the session index.
pub(crate) const KIND_BITS: u32 = 3;
const K_CONNECT: u64 = 0;
const K_KEEPALIVE: u64 = 1;
const K_HOLD: u64 = 2;
/// The first timer kind an owner may use for timers of its own.
pub const FIRST_OWNER_KIND: u64 = 3;

/// Maximum random stagger before a session's first OPEN, at start-up and
/// after its link comes back, so OPENs do not all collide at one instant.
pub(crate) const CONNECT_STAGGER: SimDuration = SimDuration::from_millis(100);
/// Base delay before a failed session is retried; it doubles per
/// consecutive failure.
pub(crate) const CONNECT_RETRY: SimDuration = SimDuration::from_secs(1);
/// Consecutive retries before a session is given up until its link comes
/// back (the last backoff is 16 s, about 31 s in all).
pub(crate) const MAX_CONNECT_RETRIES: u32 = 5;
/// Keepalive interval as a fraction of the hold time (RFC 4271 suggests
/// one third).
pub(crate) const KEEPALIVE_DIVISOR: u64 = 3;

/// The token of timer `kind` carrying `payload`.
pub(crate) fn tok(kind: u64, payload: usize) -> TimerToken {
    TimerToken((payload as u64) << KIND_BITS | kind)
}

fn notification(code: NotifCode) -> BgpMessage {
    BgpMessage::Notification(NotificationMsg {
        code,
        subcode: 0,
        data: vec![],
    })
}

/// One session as its owner configures it.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The node this end answers as: the envelope source.
    pub local: NodeId,
    /// The ASN this end speaks for.
    pub asn: Asn,
    /// The BGP identifier this end speaks with.
    pub router_id: RouterId,
    /// The logical peer: the envelope destination.
    pub peer: NodeId,
    /// The peer's expected ASN.
    pub remote_asn: Asn,
    /// The link the session rides; its state is the session's transport.
    pub link: LinkId,
    /// Proposed hold time in seconds; 0 arms no keepalive or hold timer.
    pub hold_secs: u16,
    /// RFC 4724 restart time advertised in the OPEN; 0 advertises none.
    pub graceful_restart_secs: u16,
    /// The counter an UPDATE sent on this session is counted under.
    pub updates_sent: Counter,
}

struct Session {
    cfg: SessionConfig,
    handshake: SessionHandshake,
    /// Consecutive retries since the last Established or link-up.
    retries: u32,
}

/// Every session of one node, plus the node's one encode scratch.
#[derive(Default)]
pub struct Sessions {
    list: Vec<Session>,
    /// `((local, peer), index)`, sorted: the lookup every received
    /// envelope starts with.
    by_endpoint: Vec<((NodeId, NodeId), usize)>,
    /// Reused for every outgoing message, so the send path allocates only
    /// for a message too long to ride inline in its envelope.
    scratch: Writer,
    /// Set by [`Sessions::start`]: this node opens its sessions. A node
    /// that never starts them is passive and only answers.
    active: bool,
}

impl Sessions {
    /// Register a session in Idle (before the simulation starts); returns
    /// its index, the payload of its timers.
    pub fn add(&mut self, cfg: SessionConfig) -> usize {
        let key = (cfg.local, cfg.peer);
        match self.by_endpoint.binary_search_by_key(&key, |e| e.0) {
            Ok(_) => panic!("duplicate session {} -> {}", cfg.local, cfg.peer),
            Err(at) => self.by_endpoint.insert(at, (key, self.list.len())),
        }
        let mut handshake =
            SessionHandshake::new(cfg.asn, cfg.router_id, cfg.hold_secs, cfg.remote_asn);
        handshake.set_graceful_restart(cfg.graceful_restart_secs);
        self.list.push(Session {
            cfg,
            handshake,
            retries: 0,
        });
        self.list.len() - 1
    }

    /// The session `local` runs toward `peer`.
    pub(crate) fn find(&self, local: NodeId, peer: NodeId) -> Option<usize> {
        let at = self
            .by_endpoint
            .binary_search_by_key(&(local, peer), |e| e.0)
            .ok()?;
        Some(self.by_endpoint[at].1)
    }

    /// State of session `i`.
    pub(crate) fn state(&self, i: usize) -> SessionState {
        self.list[i].handshake.state()
    }

    /// True when UPDATEs may flow on session `i`.
    pub fn is_established(&self, i: usize) -> bool {
        self.list[i].handshake.is_established()
    }

    /// Every session back to Idle, then a staggered first OPEN each: at
    /// start-up, and at restart after a crash lost the handshakes.
    pub fn start<M: BgpApp>(&mut self, ctx: &mut Ctx<'_, M>) {
        self.active = true;
        for i in 0..self.list.len() {
            self.list[i].handshake.reset();
            self.connect_after_stagger(ctx, i);
        }
    }

    /// Encode `msg` and send it on session `i`.
    pub fn send<M: BgpApp>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        i: usize,
        msg: &BgpMessage,
        cause: Cause,
    ) {
        let Sessions { list, scratch, .. } = self;
        let cfg = &list[i].cfg;
        let (local, peer) = (cfg.local, cfg.peer);
        if let BgpMessage::Update(u) = msg {
            ctx.trace(TraceCategory::Msg, || TraceEvent::UpdateSent {
                peer: peer.0,
                announced: u.nlri.iter().map(|&p| p.into()).collect(),
                withdrawn: u.withdrawn.iter().map(|&p| p.into()).collect(),
            });
            ctx.count(cfg.updates_sent, 1);
            ctx.report(Activity::UpdateSent);
        } else {
            // A session answering as another node names that node.
            let alias = local != ctx.me();
            ctx.trace(TraceCategory::Msg, || TraceEvent::Note {
                category: TraceCategory::Msg,
                text: if alias {
                    format!("alias {local} -> {peer} {msg}")
                } else {
                    format!("-> {peer} {msg}")
                },
            });
        }
        if matches!(msg, BgpMessage::Notification(_)) {
            ctx.count(Counter::NotificationsSent, 1);
        }
        let env = BgpEnvelope::with_cause_scratch(local, peer, msg, cause, scratch);
        ctx.send(cfg.link, M::from_bgp(env));
    }

    /// Open session `i` after a random stagger, retries cleared; a passive
    /// node waits for the peer's OPEN instead.
    fn connect_after_stagger<M: BgpApp>(&mut self, ctx: &mut Ctx<'_, M>, i: usize) {
        self.list[i].retries = 0;
        if !self.active {
            return;
        }
        let delay = ctx
            .rng()
            .duration_between(SimDuration::ZERO, CONNECT_STAGGER);
        ctx.set_timer(delay, tok(K_CONNECT, i), TimerClass::Progress);
    }

    /// The connect timer fired: open the session unless it is up, its link
    /// is down, or a bring-up race already moved it along.
    fn connect<M: BgpApp>(&mut self, ctx: &mut Ctx<'_, M>, i: usize) {
        let s = &self.list[i];
        if s.handshake.is_established() || !ctx.link_up(s.cfg.link) {
            return;
        }
        if s.handshake.state() != SessionState::Idle {
            if s.retries == 0 {
                // Bring-up race: the peer's OPEN already moved this
                // handshake along before our own staggered start fired.
                // Leave it to complete.
                return;
            }
            // A supervised reconnect found the previous attempt hanging
            // half-open: its OPEN (or the peer's reply) was lost —
            // typically sent while the peer was crashed. Without
            // intervention both ends can deadlock, one in OpenSent and
            // one in OpenConfirm, each waiting for a message the other
            // already sent. Tell the peer to discard any stale
            // half-state, then start over.
            self.send(ctx, i, &notification(NotifCode::Cease), Cause::NONE);
            self.list[i].handshake.reset();
        }
        for m in self.list[i].handshake.start() {
            self.send(ctx, i, &m, Cause::NONE);
        }
        // A reconnect attempt supervises itself: if the handshake is still
        // not Established when the doubled backoff elapses, the timer
        // fires again and re-issues the OPEN. Initial bring-up (retries
        // == 0) stays unsupervised so a fault-free run arms no extra
        // timers. The delay is deterministic (no jitter draw) so a
        // supervision chain never perturbs the node's RNG stream.
        let s = &mut self.list[i];
        if s.retries > 0 && s.retries < MAX_CONNECT_RETRIES {
            let delay = CONNECT_RETRY.saturating_mul(1 << s.retries);
            s.retries += 1;
            ctx.set_timer(delay, tok(K_CONNECT, i), TimerClass::Progress);
        }
    }

    /// Exponential-backoff reconnect after a close (an active node only).
    fn retry<M: BgpApp>(&mut self, ctx: &mut Ctx<'_, M>, i: usize) {
        let s = &mut self.list[i];
        if !self.active || s.retries >= MAX_CONNECT_RETRIES {
            return;
        }
        s.retries += 1;
        let base = CONNECT_RETRY.saturating_mul(1 << (s.retries - 1));
        let delay = ctx.rng().jittered(base, 0.75, 1.0);
        ctx.set_timer(delay, tok(K_CONNECT, i), TimerClass::Progress);
    }

    /// The negotiated hold time of session `i` while it is Established
    /// and the time is not 0.
    fn hold(&self, i: usize) -> Option<SimDuration> {
        let h = &self.list[i].handshake;
        let secs = h.negotiated_hold_secs();
        (h.is_established() && secs > 0).then(|| SimDuration::from_secs(u64::from(secs)))
    }

    /// Re-arm the hold timer of an Established session (any received
    /// message proves the peer alive).
    fn refresh_hold<M: BgpApp>(&self, ctx: &mut Ctx<'_, M>, i: usize) {
        if let Some(hold) = self.hold(i) {
            ctx.set_timer(hold, tok(K_HOLD, i), TimerClass::Maintenance);
        }
    }

    /// Session `i` reached Established: clear its retries, report it and
    /// arm keepalive/hold when negotiated.
    fn up<M: BgpApp>(&mut self, ctx: &mut Ctx<'_, M>, i: usize) {
        self.list[i].retries = 0;
        let peer = self.list[i].cfg.peer;
        ctx.trace(TraceCategory::Session, || TraceEvent::SessionUp {
            peer: peer.0,
        });
        if let Some(hold) = self.hold(i) {
            let ka = hold / KEEPALIVE_DIVISOR;
            ctx.set_timer(ka, tok(K_KEEPALIVE, i), TimerClass::Maintenance);
            ctx.set_timer(hold, tok(K_HOLD, i), TimerClass::Maintenance);
        }
    }

    fn keepalive<M: BgpApp>(&mut self, ctx: &mut Ctx<'_, M>, i: usize) {
        if let Some(hold) = self.hold(i) {
            self.send(ctx, i, &BgpMessage::Keepalive, Cause::NONE);
            let token = tok(K_KEEPALIVE, i);
            ctx.set_timer(hold / KEEPALIVE_DIVISOR, token, TimerClass::Maintenance);
        }
    }
}

/// A node that runs [`Sessions`]. The required methods are the owner's
/// side of the lifecycle; the provided ones are the driver's entry points,
/// which the owner calls from its `Node` callbacks.
pub trait SessionOwner<M: BgpApp> {
    /// The node's sessions.
    fn sessions(&mut self) -> &mut Sessions;

    /// An UPDATE arrived on Established session `i` (a malformed one
    /// already downgraded to its withdrawals); `cause` is the envelope's.
    fn on_update(&mut self, ctx: &mut Ctx<'_, M>, i: usize, upd: UpdateMsg, cause: Cause);

    /// A ROUTE-REFRESH arrived on Established session `i`. An owner that
    /// keeps no table of its own to re-send ignores it.
    fn on_refresh(&mut self, _ctx: &mut Ctx<'_, M>, _i: usize) {}

    /// Session `i` reached Established with the peer's `open`.
    fn on_up(&mut self, ctx: &mut Ctx<'_, M>, i: usize, open: &OpenMsg);

    /// Session `i` closed and is Idle; the driver retries it afterwards
    /// unless the link went down.
    fn on_down(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        i: usize,
        reason: &CloseReason,
        was_established: bool,
    );

    /// Feed a received envelope to the session between its endpoints; an
    /// envelope that matches no session is ignored.
    fn receive_bgp(&mut self, ctx: &mut Ctx<'_, M>, env: &BgpEnvelope) {
        let Some(i) = self.sessions().find(env.dst, env.src) else {
            return;
        };
        let msg = match env.decode() {
            Ok(m) => m,
            Err(e) => {
                ctx.count(Counter::DecodeErrors, 1);
                ctx.trace(TraceCategory::Session, || TraceEvent::Note {
                    category: TraceCategory::Session,
                    text: format!("decode error: {e}"),
                });
                // RFC 7606: a malformed UPDATE whose framing is intact
                // (only attribute content is bad) is downgraded to a
                // withdrawal of every prefix it mentioned — the session
                // survives. Broken framing still resets the session.
                if self.sessions().is_established(i) {
                    if let Some(upd) = UpdateMsg::salvage_withdraw(&env.bytes) {
                        ctx.count(Counter::TreatAsWithdraw, 1);
                        let src = env.src;
                        let n = upd.withdrawn.len();
                        ctx.trace(TraceCategory::Session, || TraceEvent::Note {
                            category: TraceCategory::Session,
                            text: format!(
                                "treat-as-withdraw: malformed UPDATE from {src} downgraded to {n} withdrawals"
                            ),
                        });
                        self.sessions().refresh_hold(ctx, i);
                        self.on_update(ctx, i, upd, env.cause);
                        return;
                    }
                }
                let code = NotifCode::MessageHeader;
                self.close_session(ctx, i, CloseReason::LocalError(code), Some(code));
                return;
            }
        };
        let sessions = self.sessions();
        if let BgpMessage::Update(u) = &msg {
            ctx.trace(TraceCategory::Msg, || TraceEvent::UpdateDelivered {
                peer: env.src.0,
                announced: u.nlri.iter().map(|&p| p.into()).collect(),
                withdrawn: u.withdrawn.iter().map(|&p| p.into()).collect(),
            });
        } else if sessions.list[i].cfg.local == ctx.me() {
            // Other receipts are noted only on a node's own sessions: a
            // cluster speaker runs one per member and peer, and each peer's
            // send note already records the message.
            ctx.trace(TraceCategory::Msg, || TraceEvent::Note {
                category: TraceCategory::Msg,
                text: format!("<- {} {}", env.src, msg),
            });
        }
        sessions.refresh_hold(ctx, i);
        let established = sessions.is_established(i);
        match msg {
            BgpMessage::Update(upd) if established => self.on_update(ctx, i, upd, env.cause),
            BgpMessage::RouteRefresh { .. } if established => self.on_refresh(ctx, i),
            // Everything else is the FSM's, which treats an UPDATE before
            // Established as an error.
            msg => {
                let s = &mut sessions.list[i];
                let (to_send, event) = s.handshake.on_message(&msg);
                for m in to_send {
                    sessions.send(ctx, i, &m, Cause::NONE);
                }
                match event {
                    Some(SessionEvent::Established(open)) => {
                        sessions.up(ctx, i);
                        self.on_up(ctx, i, &open);
                    }
                    Some(SessionEvent::Closed(reason)) => closed(self, ctx, i, reason, established),
                    None => {}
                }
            }
        }
    }

    /// Run a timer of the driver's kinds; false for any other token.
    fn session_timer(&mut self, ctx: &mut Ctx<'_, M>, token: TimerToken) -> bool {
        let i = (token.0 >> KIND_BITS) as usize;
        match token.0 & ((1 << KIND_BITS) - 1) {
            K_CONNECT => self.sessions().connect(ctx, i),
            K_KEEPALIVE => self.sessions().keepalive(ctx, i),
            K_HOLD => {
                if self.sessions().is_established(i) {
                    let code = NotifCode::HoldTimerExpired;
                    self.close_session(ctx, i, CloseReason::HoldExpired, Some(code));
                }
            }
            _ => return false,
        }
        true
    }

    /// A link changed state: reconnect (staggered) every session it
    /// carries when it came up, close them when it went down.
    fn session_link_change(&mut self, ctx: &mut Ctx<'_, M>, link: LinkId, up: bool) {
        for i in 0..self.sessions().list.len() {
            if self.sessions().list[i].cfg.link != link {
                continue;
            }
            if up {
                self.sessions().connect_after_stagger(ctx, i);
            } else {
                self.close_session(ctx, i, CloseReason::LinkDown, None);
            }
        }
    }

    /// Close session `i`, telling the peer with a NOTIFICATION `notify`
    /// when given.
    fn close_session(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        i: usize,
        reason: CloseReason,
        notify: Option<NotifCode>,
    ) {
        let sessions = self.sessions();
        if let Some(code) = notify {
            sessions.send(ctx, i, &notification(code), Cause::NONE);
        }
        let handshake = &mut sessions.list[i].handshake;
        let was_established = handshake.is_established();
        handshake.reset();
        closed(self, ctx, i, reason, was_established);
    }
}

/// Session `i`'s handshake is back in Idle: stop its keepalive/hold,
/// report a lost Established session, let the owner clean up, then retry
/// unless the link is gone (link-up restarts the session).
fn closed<M: BgpApp, O: SessionOwner<M> + ?Sized>(
    owner: &mut O,
    ctx: &mut Ctx<'_, M>,
    i: usize,
    reason: CloseReason,
    was_established: bool,
) {
    ctx.cancel_timer(tok(K_KEEPALIVE, i));
    ctx.cancel_timer(tok(K_HOLD, i));
    if was_established {
        let peer = owner.sessions().list[i].cfg.peer;
        ctx.trace(TraceCategory::Session, || TraceEvent::SessionDown {
            peer: peer.0,
            reason: format!("{reason:?}"),
        });
    }
    owner.on_down(ctx, i, &reason, was_established);
    if reason != CloseReason::LinkDown {
        owner.sessions().retry(ctx, i);
    }
}
