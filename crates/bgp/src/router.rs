//! The BGP router node — the framework's Quagga `bgpd` equivalent.
//!
//! One router emulates one AS (the paper's one-device-per-AS abstraction).
//! It runs the session FSM with every configured neighbor, maintains
//! Adj-RIB-In / Loc-RIB / Adj-RIB-Out, applies relationship policies and
//! route maps, paces advertisements with a jittered per-peer MRAI timer and
//! models per-UPDATE processing delay. All messages cross the simulated
//! links as real RFC 4271 wire bytes.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::marker::PhantomData;

use bgpsdn_netsim::{
    Activity, CausalPhase, Cause, Ctx, DataPacket, LinkId, Node, NodeId, ObsPrefix, PacketKind,
    SimDuration, SimTime, TimerClass, TimerToken, TraceCategory, TraceEvent,
};

use crate::attrs::{PathAttributes, SharedAttrs};
use crate::config::{NeighborConfig, RouterConfig};
use crate::decision::{self, Candidate};
use crate::envelope::{BgpApp, BgpEnvelope, RouterCommand};
use crate::fsm::{CloseReason, SessionEvent, SessionHandshake, SessionState};
use crate::inline::InlineVec;
use crate::msg::{BgpMessage, NotifCode, NotificationMsg, PrefixList, UpdateMsg};
use crate::policy;
use crate::rib::{
    self, AdjRibIn, AdjRibOut, LocRib, LocRibEntry, PeerIdx, RibInEntry, RouteSource,
};
use crate::types::{Asn, Prefix, RouterId};
use crate::wire::Writer;

// Timer token layout: `payload << 3 | kind`. The five per-peer timers are
// named timers (re-armed and cancelled; payload = peer index), so their
// tokens are small and dense as the simulator requires of named tokens.
// K_PROCESS and K_DAMP are one-shot firings: K_PROCESS carries no payload
// (the firing takes the front of `in_queue`), K_DAMP the prefix to
// reselect (`network << 8 | length`).
const K_CONNECT: u64 = 0;
const K_MRAI: u64 = 1;
const K_KEEPALIVE: u64 = 2;
const K_HOLD: u64 = 3;
const K_GRSTALE: u64 = 4;
const K_PROCESS: u64 = 5;
const K_DAMP: u64 = 6;
const KIND_BITS: u32 = 3;

/// MRAI jitter window as fractions of the interval (RFC 4271 §9.2.1.1:
/// 0.75–1.0).
pub(crate) const MRAI_JITTER: (f64, f64) = (0.75, 1.0);
/// Keepalive interval as a fraction of the hold time (RFC 4271 suggests
/// one third).
pub(crate) const KEEPALIVE_DIVISOR: u64 = 3;
/// Maximum random stagger before a session's first OPEN, at start-up and
/// after its link comes back, so OPENs do not all collide at one instant.
pub const CONNECT_STAGGER: SimDuration = SimDuration::from_millis(100);
/// Base delay before a failed session is retried; it doubles per
/// consecutive failure.
pub const CONNECT_RETRY: SimDuration = SimDuration::from_secs(1);

/// The advertisement interval toward one neighbor: a monitoring session
/// toward a route collector is not throttled, so measurements see updates
/// promptly; every other session runs the configured MRAI.
pub(crate) fn effective_mrai(neighbor: &NeighborConfig, mrai: SimDuration) -> SimDuration {
    if neighbor.relationship == policy::Relationship::Monitor {
        SimDuration::ZERO
    } else {
        mrai
    }
}

fn tok(kind: u64, payload: u64) -> TimerToken {
    TimerToken(payload << KIND_BITS | kind)
}

/// The prefix an UPDATE's causal events are attributed to (first announced,
/// else first withdrawn).
fn first_prefix(u: &UpdateMsg) -> Option<ObsPrefix> {
    u.nlri
        .first()
        .or_else(|| u.withdrawn.first())
        .map(|&p| p.into())
}

/// Flattened AS path of a Loc-RIB entry, for [`TraceEvent::RibChange`].
fn obs_path(e: &LocRibEntry) -> Vec<u32> {
    e.attrs.as_path.flatten().into_iter().map(|a| a.0).collect()
}

/// Counters exposed for measurement and tests.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// UPDATE messages sent.
    pub updates_sent: u64,
    /// UPDATE messages received (before processing delay).
    pub updates_received: u64,
    /// Prefix announcements carried in sent UPDATEs.
    pub prefixes_announced: u64,
    /// Prefix withdrawals carried in sent UPDATEs.
    pub prefixes_withdrawn: u64,
    /// Routes rejected by AS_PATH loop detection.
    pub loop_rejected: u64,
    /// Routes rejected by import policy.
    pub policy_rejected: u64,
    /// NOTIFICATION messages sent.
    pub notifications_sent: u64,
    /// Sessions that reached Established (cumulative).
    pub sessions_established: u64,
    /// Sessions dropped for any reason (cumulative).
    pub sessions_dropped: u64,
    /// Best-path changes in the Loc-RIB.
    pub best_path_changes: u64,
    /// Envelopes that failed to decode.
    pub decode_errors: u64,
    /// Data packets forwarded toward a next hop.
    pub data_forwarded: u64,
    /// Data packets delivered locally (destination inside an owned prefix).
    pub data_delivered: u64,
    /// Echo replies generated.
    pub echo_replies: u64,
    /// Data packets dropped: no matching route.
    pub data_no_route: u64,
    /// Data packets dropped: TTL exhausted (forwarding loop guard).
    pub data_ttl_exceeded: u64,
    /// Candidates excluded from the decision by route-flap damping.
    pub damped_suppressed: u64,
    /// Sessions torn down by the maximum-prefix guardrail.
    pub max_prefix_teardowns: u64,
    /// Sessions re-established after having been down at least once.
    pub sessions_reestablished: u64,
    /// Routes retained as stale under RFC 4724 graceful restart.
    pub stale_retained: u64,
    /// Malformed UPDATEs downgraded to withdrawals per RFC 7606 instead of
    /// resetting the session.
    pub treat_as_withdraw: u64,
}

/// A queued outbound change for one peer and prefix.
#[derive(Debug, Clone)]
enum OutChange {
    Announce(SharedAttrs),
    Withdraw,
}

/// Queue `change` for `prefix`, superseding an earlier one. The queue stays
/// prefix-sorted, which fixes the order UPDATEs leave in.
fn set_pending(pending: &mut Vec<(Prefix, OutChange)>, prefix: Prefix, change: OutChange) {
    match pending.binary_search_by_key(&prefix, |(p, _)| *p) {
        Ok(i) => pending[i].1 = change,
        Err(i) => pending.insert(i, (prefix, change)),
    }
}

/// Per-prefix causal lineage (only populated while causal tracing is on).
/// `current` is the cause any further propagation of this prefix descends
/// from; `last_rib` remembers the previous best-path-change event under the
/// same trigger so consecutive changes chain into a path-hunting round.
#[derive(Debug, Clone, Copy)]
struct PrefixCause {
    current: Cause,
    last_rib: Option<u64>,
}

#[derive(Debug)]
struct PeerRuntime {
    handshake: SessionHandshake,
    remote_router_id: RouterId,
    adj_out: AdjRibOut,
    /// Changes not yet sent, prefix-sorted; drained in place on every flush
    /// so the buffer is reused for the life of the session.
    pending: Vec<(Prefix, OutChange)>,
    mrai_armed: bool,
    retries: u32,
    /// Ever reached Established (distinguishes first bring-up from a
    /// re-establishment for the `sessions_reestablished` counter).
    ever_established: bool,
    /// The peer's advertised RFC 4724 restart time, captured at session
    /// establishment (the handshake forgets its OPEN on reset).
    peer_gr_secs: u16,
    /// Graceful restart in progress: this peer's Adj-RIB-In routes are
    /// being retained as stale until the K_GRSTALE timer flushes whatever
    /// the restarted peer didn't re-announce.
    gr_stale: bool,
    /// When the peer's session came back during the GR window; routes
    /// (re)learned at or after this instant are fresh, earlier ones stale.
    gr_resumed_at: Option<SimTime>,
}

impl PeerRuntime {
    fn new(handshake: SessionHandshake) -> Self {
        PeerRuntime {
            handshake,
            remote_router_id: RouterId(0),
            adj_out: AdjRibOut::default(),
            pending: Vec::new(),
            mrai_armed: false,
            retries: 0,
            ever_established: false,
            peer_gr_secs: 0,
            gr_stale: false,
            gr_resumed_at: None,
        }
    }
}

/// A BGP router attached to the simulator.
pub struct BgpRouter<M: BgpApp> {
    id: NodeId,
    cfg: RouterConfig,
    /// `(neighbor node, its index)`, sorted by node: the lookup every
    /// received message starts with.
    by_peer_node: Vec<(NodeId, PeerIdx)>,
    peers: Vec<PeerRuntime>,
    adj_in: AdjRibIn,
    loc_rib: LocRib,
    originated: BTreeSet<Prefix>,
    /// UPDATEs waiting out their processing delay, one K_PROCESS firing
    /// each. `last_proc_due` makes the due times strictly increasing, so the
    /// firings arrive in queue order and each takes the front.
    in_queue: VecDeque<(PeerIdx, UpdateMsg, Cause)>,
    last_proc_due: SimTime,
    causes: HashMap<Prefix, PrefixCause>,
    damping: HashMap<(PeerIdx, Prefix), crate::damping::DampingState>,
    /// Encode scratch reused for every outgoing message, so the send path
    /// allocates only for a message too long to ride inline in its envelope.
    wire_scratch: Writer,
    /// Grouping buffer of `send_pending`, drained by every flush.
    groups: Vec<(SharedAttrs, PrefixList)>,
    stats: RouterStats,
    _m: PhantomData<fn() -> M>,
}

impl<M: BgpApp> BgpRouter<M> {
    /// Build a router for the given node id and configuration.
    pub fn new(id: NodeId, mut cfg: RouterConfig) -> Self {
        let neighbors = std::mem::take(&mut cfg.neighbors);
        let originated: BTreeSet<Prefix> = cfg.originate.iter().copied().collect();
        let mut router = BgpRouter {
            id,
            cfg,
            by_peer_node: Vec::with_capacity(neighbors.len()),
            peers: Vec::with_capacity(neighbors.len()),
            adj_in: AdjRibIn::default(),
            loc_rib: LocRib::default(),
            originated,
            in_queue: VecDeque::new(),
            last_proc_due: SimTime::ZERO,
            causes: HashMap::new(),
            damping: HashMap::new(),
            wire_scratch: Writer::with_capacity(64),
            groups: Vec::new(),
            stats: RouterStats::default(),
            _m: PhantomData,
        };
        for n in neighbors {
            router.add_neighbor(n);
        }
        router
    }

    /// Add a neighbor after construction. Node and link ids only exist once
    /// the simulator topology is built, so framework builders construct
    /// routers bare and attach neighbors before the simulation starts.
    /// Must not be called on a running router.
    pub fn add_neighbor(&mut self, n: NeighborConfig) {
        match self
            .by_peer_node
            .binary_search_by_key(&n.peer, |(node, _)| *node)
        {
            Ok(_) => panic!("duplicate neighbor {}", n.peer),
            Err(at) => self.by_peer_node.insert(at, (n.peer, self.peers.len())),
        }
        let mut handshake = SessionHandshake::new(
            self.cfg.asn,
            self.cfg.router_id,
            self.cfg.timing.hold_time_secs,
            Some(n.remote_asn),
        );
        handshake.set_graceful_restart(self.cfg.timing.graceful_restart_secs);
        self.peers.push(PeerRuntime::new(handshake));
        self.cfg.neighbors.push(n);
    }

    // ------------------------------------------------------------------
    // Inspection API (used by experiments, the collector and tests)
    // ------------------------------------------------------------------

    /// This router's ASN.
    pub fn asn(&self) -> Asn {
        self.cfg.asn
    }

    /// The configuration the router runs.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Mutable configuration access for pre-start tuning (route maps,
    /// per-neighbor knobs). Changing wiring-level fields (peers, links) on
    /// a running router is not supported.
    pub fn config_mut(&mut self) -> &mut RouterConfig {
        &mut self.cfg
    }

    /// The Loc-RIB (best routes).
    pub fn loc_rib(&self) -> &LocRib {
        &self.loc_rib
    }

    /// The Adj-RIB-In (accepted candidates).
    pub fn adj_in(&self) -> &AdjRibIn {
        &self.adj_in
    }

    /// Counters.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Prefixes this router currently originates.
    pub fn originated(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.originated.iter().copied()
    }

    /// Index of the neighbor behind a node.
    fn peer_idx(&self, peer: NodeId) -> Option<PeerIdx> {
        let at = self
            .by_peer_node
            .binary_search_by_key(&peer, |(node, _)| *node)
            .ok()?;
        Some(self.by_peer_node[at].1)
    }

    /// Session state toward a logical peer.
    pub fn session_state(&self, peer: NodeId) -> Option<SessionState> {
        self.peer_idx(peer).map(|i| self.peers[i].handshake.state())
    }

    /// The best route for a prefix, if any.
    pub fn best(&self, prefix: Prefix) -> Option<&LocRibEntry> {
        self.loc_rib.get(prefix)
    }

    /// The node data traffic to `prefix` is forwarded to (`None` when the
    /// prefix is local or unreachable).
    pub fn next_hop_node(&self, prefix: Prefix) -> Option<NodeId> {
        match self.loc_rib.get(prefix)?.source {
            RouteSource::Local => None,
            RouteSource::Peer(i) => Some(self.cfg.neighbors[i].peer),
        }
    }

    /// What was last advertised to a logical peer for a prefix.
    pub fn advertised_to(&self, peer: NodeId, prefix: Prefix) -> Option<&SharedAttrs> {
        self.peers[self.peer_idx(peer)?].adj_out.get(prefix)
    }

    // ------------------------------------------------------------------
    // Sending helpers
    // ------------------------------------------------------------------

    fn send_msg(&mut self, ctx: &mut Ctx<'_, M>, peer: PeerIdx, msg: &BgpMessage) {
        self.send_msg_caused(ctx, peer, msg, Cause::NONE);
    }

    fn send_msg_caused(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        peer: PeerIdx,
        msg: &BgpMessage,
        cause: Cause,
    ) {
        let (peer_node, link) = {
            let n = &self.cfg.neighbors[peer];
            (n.peer, n.link)
        };
        if let BgpMessage::Update(u) = msg {
            ctx.trace(TraceCategory::Msg, || TraceEvent::UpdateSent {
                peer: peer_node.0,
                announced: u.nlri.iter().map(|&p| p.into()).collect(),
                withdrawn: u.withdrawn.iter().map(|&p| p.into()).collect(),
            });
            self.stats.updates_sent += 1;
            self.stats.prefixes_announced += u.nlri.len() as u64;
            self.stats.prefixes_withdrawn += u.withdrawn.len() as u64;
            ctx.count("bgp.router.updates_sent", 1);
            ctx.report(Activity::UpdateSent);
        } else {
            ctx.trace(TraceCategory::Msg, || TraceEvent::Note {
                category: TraceCategory::Msg,
                text: format!("-> {peer_node} {msg}"),
            });
        }
        if matches!(msg, BgpMessage::Notification(_)) {
            self.stats.notifications_sent += 1;
        }
        let env =
            BgpEnvelope::with_cause_scratch(self.id, peer_node, msg, cause, &mut self.wire_scratch);
        ctx.send(link, M::from_bgp(env));
    }

    // ------------------------------------------------------------------
    // Causal lineage
    // ------------------------------------------------------------------

    /// Record a trigger root (attributed to `prefix`, if any) and seed the
    /// lineage of every prefix in `seeds` with it. No-op while causal
    /// tracing is off.
    fn mint_trigger(&mut self, ctx: &mut Ctx<'_, M>, prefix: Option<Prefix>, seeds: &[Prefix]) {
        let root = ctx.causal_root(prefix.map(Into::into));
        if root.is_none() {
            return;
        }
        for &p in seeds {
            self.causes.insert(
                p,
                PrefixCause {
                    current: root,
                    last_rib: None,
                },
            );
        }
    }

    /// Point the lineage of `prefix` at `cause` (the event that just made
    /// the prefix dirty), resetting the hunt chain when the trigger changed.
    fn set_prefix_cause(&mut self, prefix: Prefix, cause: Cause) {
        let e = self.causes.entry(prefix).or_insert(PrefixCause {
            current: cause,
            last_rib: None,
        });
        if e.current.trigger != cause.trigger {
            e.last_rib = None;
        }
        e.current = cause;
    }

    /// Mint the `mrai_wait` causal event for an outgoing UPDATE carrying
    /// `prefixes` and return the cause the envelope should ride with. The
    /// edge spans from the best-path change that queued the advertisement
    /// to the moment MRAI (plus grouping) lets it leave. Multi-prefix
    /// UPDATEs are attributed to their first prefix — a deterministic
    /// approximation, exact for the single-prefix paper scenarios.
    fn update_cause(&mut self, ctx: &mut Ctx<'_, M>, prefixes: &[Prefix]) -> Cause {
        let Some(&first) = prefixes.first() else {
            return Cause::NONE;
        };
        let Some(pc) = self.causes.get(&first) else {
            return Cause::NONE;
        };
        ctx.causal_edge(pc.current, CausalPhase::MraiWait, Some(first.into()))
    }

    // ------------------------------------------------------------------
    // Session lifecycle
    // ------------------------------------------------------------------

    fn schedule_connect(&mut self, ctx: &mut Ctx<'_, M>, peer: PeerIdx, delay: SimDuration) {
        ctx.set_timer(delay, tok(K_CONNECT, peer as u64), TimerClass::Progress);
    }

    fn connect_now(&mut self, ctx: &mut Ctx<'_, M>, peer: PeerIdx) {
        if self.peers[peer].handshake.is_established() {
            return;
        }
        if !ctx.link_up(self.cfg.neighbors[peer].link) {
            return;
        }
        if self.peers[peer].handshake.state() != SessionState::Idle {
            if self.peers[peer].retries == 0 {
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
            let cease = BgpMessage::Notification(NotificationMsg {
                code: NotifCode::Cease,
                subcode: 0,
                data: vec![],
            });
            self.send_msg(ctx, peer, &cease);
            self.peers[peer].handshake.reset();
        }
        let msgs = self.peers[peer].handshake.start();
        for m in msgs {
            self.send_msg(ctx, peer, &m);
        }
        // A reconnect attempt supervises itself: if the handshake is still
        // not Established when the doubled backoff elapses, the timer
        // fires again and re-issues the OPEN. Initial bring-up (retries
        // == 0) stays unsupervised so a fault-free run arms no extra
        // timers. The delay is deterministic (no jitter draw) so a
        // supervision chain never perturbs the node's RNG stream.
        let retries = self.peers[peer].retries;
        if retries > 0 && retries < self.cfg.timing.max_connect_retries {
            self.peers[peer].retries += 1;
            let delay = CONNECT_RETRY.saturating_mul(1 << retries.min(6));
            self.schedule_connect(ctx, peer, delay);
        }
    }

    fn on_established(&mut self, ctx: &mut Ctx<'_, M>, peer: PeerIdx) {
        self.stats.sessions_established += 1;
        self.peers[peer].retries = 0;
        self.peers[peer].remote_router_id = self.peers[peer]
            .handshake
            .remote_open()
            .expect("established implies OPEN")
            .router_id;
        // Capture the peer's GR capability now: the handshake forgets its
        // OPEN on reset, but the retention decision happens after the reset.
        self.peers[peer].peer_gr_secs = self.peers[peer]
            .handshake
            .peer_graceful_restart_secs()
            .unwrap_or(0);
        let peer_node = self.cfg.neighbors[peer].peer;
        ctx.trace(TraceCategory::Session, || TraceEvent::SessionUp {
            peer: peer_node.0,
        });
        ctx.count("bgp.router.sessions_established", 1);
        if self.peers[peer].ever_established {
            self.stats.sessions_reestablished += 1;
            ctx.count("bgp.router.sessions_reestablished", 1);
        } else {
            self.peers[peer].ever_established = true;
        }
        // RFC 4724: the restarting peer is back inside the GR window. Mark
        // the resume instant — routes it re-announces from here on are
        // fresh; the K_GRSTALE timer flushes whatever stays older.
        if self.peers[peer].gr_stale {
            self.peers[peer].gr_resumed_at = Some(ctx.now());
            ctx.trace(TraceCategory::Session, || TraceEvent::Note {
                category: TraceCategory::Session,
                text: format!("graceful restart: {peer_node} resumed inside GR window"),
            });
        }
        // Arm keepalive/hold when negotiated.
        let hold = self.peers[peer].handshake.negotiated_hold_secs();
        if hold > 0 {
            let hold_d = SimDuration::from_secs(hold as u64);
            let ka = hold_d / KEEPALIVE_DIVISOR;
            ctx.set_timer(ka, tok(K_KEEPALIVE, peer as u64), TimerClass::Maintenance);
            ctx.set_timer(hold_d, tok(K_HOLD, peer as u64), TimerClass::Maintenance);
        }
        self.export_table(ctx, peer);
    }

    /// Queue the whole Loc-RIB toward one peer (initial table sync, ROUTE
    /// REFRESH) and flush.
    fn export_table(&mut self, ctx: &mut Ctx<'_, M>, peer: PeerIdx) {
        for (p, best) in self.loc_rib.iter() {
            Self::enqueue_export(
                &self.cfg,
                &mut self.peers[peer],
                peer,
                p,
                Some(best),
                &mut None,
            );
        }
        self.maybe_flush(ctx, peer);
    }

    fn drop_session(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        peer: PeerIdx,
        reason: CloseReason,
        notify: Option<NotifCode>,
    ) {
        if let Some(code) = notify {
            let msg = BgpMessage::Notification(NotificationMsg {
                code,
                subcode: 0,
                data: vec![],
            });
            self.send_msg(ctx, peer, &msg);
        }
        let was_established = self.peers[peer].handshake.is_established();
        self.peers[peer].handshake.reset();
        self.cleanup_after_close(ctx, peer, was_established, &reason);
        // Schedule a retry with exponential backoff unless the link is gone
        // (link-up will restart the session).
        if !matches!(reason, CloseReason::LinkDown) {
            self.schedule_retry(ctx, peer);
        }
    }

    /// Exponential-backoff reconnect, bounded by `max_connect_retries`.
    fn schedule_retry(&mut self, ctx: &mut Ctx<'_, M>, peer: PeerIdx) {
        if self.peers[peer].retries >= self.cfg.timing.max_connect_retries {
            return;
        }
        self.peers[peer].retries += 1;
        let base = CONNECT_RETRY.saturating_mul(1 << (self.peers[peer].retries - 1).min(6));
        let delay = ctx.rng().jittered(base, 0.75, 1.0);
        self.schedule_connect(ctx, peer, delay);
    }

    // ------------------------------------------------------------------
    // Decision process and export
    // ------------------------------------------------------------------

    /// Re-run the decision process for `prefix`; on change, update the
    /// Loc-RIB and enqueue exports to every peer. Returns true on change.
    fn reselect(&mut self, ctx: &mut Ctx<'_, M>, prefix: Prefix) -> bool {
        // Only the RibChange trace record reads the old path.
        let old_path: Option<Vec<u32>> = ctx
            .tracing(TraceCategory::Route)
            .then(|| self.loc_rib.get(prefix).map(obs_path))
            .flatten();
        let new_entry: Option<LocRibEntry> = if self.originated.contains(&prefix) {
            // A locally originated route always wins the decision process.
            Some(LocRibEntry {
                source: RouteSource::Local,
                attrs: PathAttributes::originate(self.cfg.next_hop).into(),
                since: ctx.now(),
            })
        } else {
            // Route-flap damping: suppressed candidates sit out the
            // decision; a reuse timer re-runs the selection once the
            // earliest suppressed candidate decays past the reuse threshold.
            let now = ctx.now();
            let mut suppressed_count = 0u64;
            let mut earliest_reuse: Option<bgpsdn_netsim::SimDuration> = None;
            let damping_map = &mut self.damping;
            let dcfg = self.cfg.damping.as_ref();
            let row = self.adj_in.row(prefix);
            let cands = row.iter().filter(|(i, _)| {
                let Some(dcfg) = dcfg else { return true };
                let suppressed = damping_map.get_mut(&(*i, prefix)).is_some_and(|st| {
                    if !st.is_suppressed(dcfg, now) {
                        return false;
                    }
                    suppressed_count += 1;
                    if let Some(eta) = st.reuse_eta(dcfg, now) {
                        earliest_reuse = Some(match earliest_reuse {
                            Some(cur) if cur <= eta => cur,
                            _ => eta,
                        });
                    }
                    true
                });
                !suppressed
            });
            let cands = cands.map(|(i, e)| Candidate {
                attrs: &e.attrs,
                source: RouteSource::Peer(*i),
                peer_router_id: e.peer_router_id,
            });
            let span = ctx.span();
            let winner = decision::select(cands, &self.cfg.decision).map(|best| best.source);
            // The Loc-RIB takes the winning Adj-RIB-In entry's own handle.
            let selected = winner.map(|source| {
                let RouteSource::Peer(i) = source else {
                    unreachable!("every candidate came from a peer")
                };
                let at = rib::row_slot(row, i).expect("the winner is in the row");
                let won = &row[at].1;
                LocRibEntry {
                    source,
                    attrs: won.attrs.clone(),
                    since: now,
                }
            });
            ctx.end_span("bgp.decision.select_wall_ns", span);
            self.stats.damped_suppressed += suppressed_count;
            if suppressed_count > 0 {
                ctx.count("bgp.router.damped_suppressed", suppressed_count);
            }
            if let Some(eta) = earliest_reuse {
                let payload = u64::from(prefix.network_u32()) << 8 | u64::from(prefix.len());
                ctx.schedule_timer(
                    now + eta + SimDuration::from_millis(1),
                    tok(K_DAMP, payload),
                    TimerClass::Progress,
                );
            }
            selected
        };

        let changed = match new_entry {
            Some(entry) => self.loc_rib.set(prefix, entry),
            None => self.loc_rib.clear(prefix).is_some(),
        };
        if changed {
            self.stats.best_path_changes += 1;
            ctx.report(Activity::RibChange);
            ctx.count("bgp.router.best_path_changes", 1);
            // Read once; every peer of the fan-out below gets this entry.
            let best = self.loc_rib.get(prefix);
            ctx.trace(TraceCategory::Route, || TraceEvent::RibChange {
                prefix: prefix.into(),
                old_path,
                new_path: best.map(obs_path),
            });
            // Causal: every best-path change is a hunt step. The previous
            // change under the same trigger is an extra (and earlier, hence
            // critical-path-preferred) parent, so the edge spans one full
            // hunting round including any damping hold-down.
            if let Some(pc) = self.causes.get_mut(&prefix) {
                let cur = pc.current;
                if !cur.is_none() {
                    let id = ctx.causal_id();
                    if id != 0 {
                        let mut parents = vec![cur.parent];
                        if let Some(prev) = pc.last_rib {
                            if prev != cur.parent {
                                parents.insert(0, prev);
                            }
                        }
                        let hop = cur.hop + 1;
                        ctx.trace(TraceCategory::Causal, || TraceEvent::Causal {
                            id,
                            parents,
                            trigger: cur.trigger,
                            hop,
                            phase: CausalPhase::HuntStep,
                            prefix: Some(prefix.into()),
                        });
                        pc.current = Cause {
                            trigger: cur.trigger,
                            parent: id,
                            hop,
                        };
                        pc.last_rib = Some(id);
                    }
                }
            }
            // One export view per best-path change, shared by every peer.
            let mut view = None;
            for (peer, rt) in self.peers.iter_mut().enumerate() {
                Self::enqueue_export(&self.cfg, rt, peer, prefix, best, &mut view);
            }
        }
        changed
    }

    /// Compute the desired advertisement of `prefix` toward `peer` (whose
    /// runtime is `rt`), given the prefix's Loc-RIB entry `best`, and queue
    /// the delta. `view` caches the prefix's export view across the peers of
    /// one fan-out: it is built for the first peer the route may go to and
    /// every later peer gets the same handle.
    fn enqueue_export(
        cfg: &RouterConfig,
        rt: &mut PeerRuntime,
        peer: PeerIdx,
        prefix: Prefix,
        best: Option<&LocRibEntry>,
        view: &mut Option<SharedAttrs>,
    ) {
        if !rt.handshake.is_established() {
            return;
        }
        let change = match best {
            Some(entry) if Self::export_permitted(cfg, peer, entry.source) => {
                let view = view.get_or_insert_with(|| Self::export_view(cfg, entry));
                match &cfg.neighbors[peer].export_map {
                    None => OutChange::Announce(view.clone()),
                    // A route map edits the attributes: a private copy.
                    Some(map) => match map.apply(prefix, view, cfg.asn) {
                        Some(attrs) => OutChange::Announce(attrs.into()),
                        None => OutChange::Withdraw,
                    },
                }
            }
            _ => OutChange::Withdraw,
        };
        set_pending(&mut rt.pending, prefix, change);
    }

    /// Whether a best route learned from `source` may be exported to `peer`
    /// at all (before any per-neighbor route map).
    ///
    /// A route goes back to the peer it was learned from, as in Quagga: the
    /// peer's AS_PATH check discards it, and the path exploration the paper
    /// measures depends on those MRAI-paced re-advertisements.
    fn export_permitted(cfg: &RouterConfig, peer: PeerIdx, source: RouteSource) -> bool {
        let learned_from = policy::source_relationship(source, |i| cfg.neighbors[i].relationship);
        policy::export_allowed(cfg.mode, learned_from, cfg.neighbors[peer].relationship)
    }

    /// The attributes a best route is exported with, the same toward every
    /// peer: the eBGP transformation of the Loc-RIB attributes.
    fn export_view(cfg: &RouterConfig, entry: &LocRibEntry) -> SharedAttrs {
        let mut attrs = PathAttributes::clone(&entry.attrs);
        // eBGP: LOCAL_PREF is local, MED is not propagated beyond the
        // originating hop.
        attrs.local_pref = None;
        if entry.source != RouteSource::Local {
            attrs.med = None;
        }
        attrs.as_path.prepend(cfg.asn);
        attrs.next_hop = cfg.next_hop;
        attrs.into()
    }

    /// Flush pending changes to one peer, respecting MRAI.
    fn maybe_flush(&mut self, ctx: &mut Ctx<'_, M>, peer: PeerIdx) {
        if !self.peers[peer].handshake.is_established() || self.peers[peer].pending.is_empty() {
            return;
        }
        if self.peers[peer].mrai_armed {
            // Explicit withdrawals bypass the advertisement interval.
            let PeerRuntime {
                pending, adj_out, ..
            } = &mut self.peers[peer];
            let mut really = PrefixList::new();
            pending.retain(|(p, change)| {
                let withdraw = matches!(change, OutChange::Withdraw);
                if withdraw && adj_out.withdraw(*p) {
                    really.push(*p);
                }
                !withdraw
            });
            if !really.is_empty() {
                let cause = self.update_cause(ctx, &really);
                let msg = BgpMessage::Update(UpdateMsg::withdraw(really));
                self.send_msg_caused(ctx, peer, &msg, cause);
            }
            return;
        }
        let sent = self.send_pending(ctx, peer);
        let mrai = effective_mrai(&self.cfg.neighbors[peer], self.cfg.timing.mrai);
        if sent && !mrai.is_zero() {
            self.peers[peer].mrai_armed = true;
            let (lo, hi) = MRAI_JITTER;
            let delay = ctx.rng().jittered(mrai, lo, hi);
            ctx.set_timer(delay, tok(K_MRAI, peer as u64), TimerClass::Progress);
        }
    }

    /// Send everything pending toward a peer. Returns true when at least one
    /// UPDATE went out.
    fn send_pending(&mut self, ctx: &mut Ctx<'_, M>, peer: PeerIdx) -> bool {
        let PeerRuntime {
            pending, adj_out, ..
        } = &mut self.peers[peer];
        let mut withdraws = PrefixList::new();
        // Group announcements sharing identical attributes (in a fan-out:
        // the same handle) into one UPDATE.
        let mut groups = std::mem::take(&mut self.groups);
        for (prefix, change) in pending.drain(..) {
            match change {
                OutChange::Withdraw => {
                    if adj_out.withdraw(prefix) {
                        withdraws.push(prefix);
                    }
                }
                OutChange::Announce(attrs) => {
                    if adj_out.advertise(prefix, attrs.clone()) {
                        match groups.iter_mut().find(|(a, _)| *a == attrs) {
                            Some((_, ps)) => ps.push(prefix),
                            None => groups.push((attrs, [prefix].into())),
                        }
                    }
                }
            }
        }
        let mut sent = false;
        if !withdraws.is_empty() {
            let cause = self.update_cause(ctx, &withdraws);
            let msg = BgpMessage::Update(UpdateMsg::withdraw(withdraws));
            self.send_msg_caused(ctx, peer, &msg, cause);
            sent = true;
        }
        for (attrs, prefixes) in groups.drain(..) {
            let cause = self.update_cause(ctx, &prefixes);
            let msg = BgpMessage::Update(UpdateMsg::announce(prefixes, attrs));
            self.send_msg_caused(ctx, peer, &msg, cause);
            sent = true;
        }
        self.groups = groups;
        sent
    }

    fn flush_all(&mut self, ctx: &mut Ctx<'_, M>) {
        for peer in 0..self.peers.len() {
            self.maybe_flush(ctx, peer);
        }
    }

    // ------------------------------------------------------------------
    // Inbound processing
    // ------------------------------------------------------------------

    fn process_update(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        peer: PeerIdx,
        upd: UpdateMsg,
        cause: Cause,
    ) {
        if !self.peers[peer].handshake.is_established() {
            return; // session dropped while the update sat in the CPU queue
        }
        ctx.report(Activity::UpdateReceived);
        // Causal: the dequeue closes the CPU processing-delay edge.
        let cur = ctx.causal_edge(cause, CausalPhase::ProcDelay, first_prefix(&upd));
        // Prefix-sorted and free of duplicates: the order the decisions run in.
        let mut affected: InlineVec<Prefix, 8> = InlineVec::new();
        let mut touch = |p: Prefix| {
            if let Err(at) = affected.as_slice().binary_search(&p) {
                affected.insert(at, p);
            }
        };

        let UpdateMsg {
            withdrawn,
            attrs,
            nlri,
        } = upd;
        for p in &withdrawn {
            if self.adj_in.remove(*p, peer) {
                touch(*p);
                if let Some(dcfg) = &self.cfg.damping {
                    let now = ctx.now();
                    self.damping
                        .entry((peer, *p))
                        .or_insert_with(|| crate::damping::DampingState::new(now))
                        .on_withdrawal(dcfg, now);
                }
            }
        }

        if let Some(mut attrs) = attrs {
            let rel = self.cfg.neighbors[peer].relationship;
            let looped = attrs.as_path.contains(self.cfg.asn);
            let import_ok = policy::import_allowed(rel) && !looped;
            if import_ok {
                // The decoded handle is still the only one: this edits it in
                // place, once for every NLRI of the UPDATE.
                if let Some(lp) = policy::import_local_pref(self.cfg.mode, rel) {
                    attrs.local_pref = Some(lp);
                }
            }
            for p in &nlri {
                if !import_ok {
                    if looped {
                        self.stats.loop_rejected += 1;
                    } else {
                        self.stats.policy_rejected += 1;
                    }
                    // A rejected route still implicitly replaces (removes)
                    // any earlier accepted one from this peer.
                    if self.adj_in.remove(*p, peer) {
                        touch(*p);
                    }
                    continue;
                }
                let accepted = match &self.cfg.neighbors[peer].import_map {
                    Some(map) => map.apply(*p, &attrs, self.cfg.asn).map(SharedAttrs::from),
                    None => Some(attrs.clone()),
                };
                match accepted {
                    Some(final_attrs) => {
                        // Only damping asks whether this replaces a route.
                        let existed =
                            self.cfg.damping.is_some() && self.adj_in.get(*p, peer).is_some();
                        let entry = RibInEntry {
                            attrs: final_attrs,
                            peer_router_id: self.peers[peer].remote_router_id,
                            learned_at: ctx.now(),
                        };
                        if self.adj_in.insert(*p, peer, entry) {
                            touch(*p);
                            // A replacement announcement is a flap too.
                            if existed {
                                if let Some(dcfg) = &self.cfg.damping {
                                    let now = ctx.now();
                                    self.damping
                                        .entry((peer, *p))
                                        .or_insert_with(|| crate::damping::DampingState::new(now))
                                        .on_attribute_change(dcfg, now);
                                }
                            }
                        }
                    }
                    None => {
                        self.stats.policy_rejected += 1;
                        if self.adj_in.remove(*p, peer) {
                            touch(*p);
                        }
                    }
                }
            }
        }

        // Maximum-prefix guardrail (like Quagga's `maximum-prefix`): a peer
        // exceeding its allowance is cut off with a Cease notification.
        if let Some(limit) = self.cfg.neighbors[peer].max_prefixes {
            if self.adj_in.count_for_peer(peer) > limit {
                self.stats.max_prefix_teardowns += 1;
                ctx.trace(TraceCategory::Session, || TraceEvent::Note {
                    category: TraceCategory::Session,
                    text: format!("max-prefix limit {limit} exceeded; tearing session down"),
                });
                self.drop_session(ctx, peer, CloseReason::AdminReset, Some(NotifCode::Cease));
                return;
            }
        }

        if !cur.is_none() {
            for &p in &affected {
                self.set_prefix_cause(p, cur);
            }
        }
        for p in affected {
            self.reselect(ctx, p);
        }
        self.flush_all(ctx);
    }

    fn handle_command(&mut self, ctx: &mut Ctx<'_, M>, cmd: &RouterCommand) {
        match cmd {
            RouterCommand::Announce(p) => {
                self.originated.insert(*p);
                ctx.trace(TraceCategory::Experiment, || TraceEvent::Note {
                    category: TraceCategory::Experiment,
                    text: format!("announce {p}"),
                });
                self.mint_trigger(ctx, Some(*p), &[*p]);
                self.reselect(ctx, *p);
                self.flush_all(ctx);
            }
            RouterCommand::Withdraw(p) => {
                self.originated.remove(p);
                ctx.trace(TraceCategory::Experiment, || TraceEvent::Note {
                    category: TraceCategory::Experiment,
                    text: format!("withdraw {p}"),
                });
                self.mint_trigger(ctx, Some(*p), &[*p]);
                self.reselect(ctx, *p);
                self.flush_all(ctx);
            }
            RouterCommand::ResetSession(peer_node) => {
                if let Some(i) = self.peer_idx(*peer_node) {
                    self.drop_session(ctx, i, CloseReason::AdminReset, Some(NotifCode::Cease));
                }
            }
            RouterCommand::RequestRefresh(peer_node) => {
                if let Some(i) = self.peer_idx(*peer_node) {
                    if self.peers[i].handshake.is_established() {
                        self.send_msg(ctx, i, &BgpMessage::RouteRefresh { afi: 1, safi: 1 });
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Forward (or locally deliver) a data packet by FIB longest-prefix
    /// match. The AS device answers echo requests for any address inside a
    /// prefix it originates (hosts live "inside" the single-device AS).
    pub(crate) fn handle_data(&mut self, ctx: &mut Ctx<'_, M>, pkt: DataPacket) {
        // Local delivery?
        if self.originated.iter().any(|p| p.contains(pkt.dst)) {
            self.stats.data_delivered += 1;
            if pkt.kind == PacketKind::EchoRequest {
                self.stats.echo_replies += 1;
                let reply = pkt.reply_to();
                self.route_packet_out(ctx, reply);
            }
            return;
        }
        match pkt.decrement_ttl() {
            Some(fwd) => self.route_packet_out(ctx, fwd),
            None => {
                self.stats.data_ttl_exceeded += 1;
                ctx.trace(TraceCategory::Msg, || TraceEvent::Note {
                    category: TraceCategory::Msg,
                    text: format!("TTL exceeded for {} -> {}", pkt.src, pkt.dst),
                });
            }
        }
    }

    fn route_packet_out(&mut self, ctx: &mut Ctx<'_, M>, pkt: DataPacket) {
        match self.loc_rib.lpm(pkt.dst) {
            Some((_, entry)) => match entry.source {
                RouteSource::Local => {
                    // Destination inside one of our prefixes but not
                    // originated anymore: treat as delivered.
                    self.stats.data_delivered += 1;
                }
                RouteSource::Peer(i) => {
                    let link = self.cfg.neighbors[i].link;
                    self.stats.data_forwarded += 1;
                    ctx.send(link, M::from_data(pkt));
                }
            },
            None => {
                self.stats.data_no_route += 1;
                ctx.trace(TraceCategory::Msg, || TraceEvent::Note {
                    category: TraceCategory::Msg,
                    text: format!("no route for {} -> {}", pkt.src, pkt.dst),
                });
            }
        }
    }

    /// Originate a data packet from this AS (used by ping drivers).
    fn send_packet(&mut self, ctx: &mut Ctx<'_, M>, pkt: DataPacket) {
        self.route_packet_out(ctx, pkt);
    }

    fn handle_bgp(&mut self, ctx: &mut Ctx<'_, M>, env: &BgpEnvelope) {
        if env.dst != self.id {
            // Not for us: routers do not relay control traffic.
            return;
        }
        let Some(peer) = self.peer_idx(env.src) else {
            return; // unknown speaker; ignore
        };
        let msg = match env.decode() {
            Ok(m) => m,
            Err(e) => {
                self.stats.decode_errors += 1;
                ctx.trace(TraceCategory::Session, || TraceEvent::Note {
                    category: TraceCategory::Session,
                    text: format!("decode error: {e}"),
                });
                // RFC 7606: a malformed UPDATE whose framing is intact
                // (only attribute content is bad) is downgraded to a
                // withdrawal of every prefix it mentioned — the session
                // survives. Broken framing still resets the session.
                if self.peers[peer].handshake.is_established() {
                    if let Some(upd) = UpdateMsg::salvage_withdraw(&env.bytes) {
                        self.stats.treat_as_withdraw += 1;
                        ctx.count("bgp.router.treat_as_withdraw", 1);
                        let src = env.src;
                        let n = upd.withdrawn.len();
                        ctx.trace(TraceCategory::Session, || TraceEvent::Note {
                            category: TraceCategory::Session,
                            text: format!(
                                "treat-as-withdraw: malformed UPDATE from {src} downgraded to {n} withdrawals"
                            ),
                        });
                        self.refresh_hold(ctx, peer);
                        self.queue_update(ctx, peer, upd, env.cause);
                        return;
                    }
                }
                self.drop_session(
                    ctx,
                    peer,
                    CloseReason::LocalError(NotifCode::MessageHeader),
                    Some(NotifCode::MessageHeader),
                );
                return;
            }
        };
        if let BgpMessage::Update(u) = &msg {
            ctx.trace(TraceCategory::Msg, || TraceEvent::UpdateDelivered {
                peer: env.src.0,
                announced: u.nlri.iter().map(|&p| p.into()).collect(),
                withdrawn: u.withdrawn.iter().map(|&p| p.into()).collect(),
            });
        } else {
            ctx.trace(TraceCategory::Msg, || TraceEvent::Note {
                category: TraceCategory::Msg,
                text: format!("<- {} {}", env.src, msg),
            });
        }

        // Any traffic refreshes the hold timer on an established session.
        self.refresh_hold(ctx, peer);

        if let BgpMessage::Update(upd) = msg {
            if self.peers[peer].handshake.is_established() {
                self.queue_update(ctx, peer, upd, env.cause);
                return;
            }
            // Fall through to the FSM, which treats early UPDATE as an error.
            let was = self.peers[peer].handshake.is_established();
            let (to_send, event) = self.peers[peer]
                .handshake
                .on_message(&BgpMessage::Update(upd));
            self.finish_fsm_step(ctx, peer, was, to_send, event);
            return;
        }

        if matches!(msg, BgpMessage::RouteRefresh { .. })
            && self.peers[peer].handshake.is_established()
        {
            // RFC 2918: re-send our full Adj-RIB-Out on this session.
            self.peers[peer].adj_out.clear();
            self.export_table(ctx, peer);
            return;
        }

        let was = self.peers[peer].handshake.is_established();
        let (to_send, event) = self.peers[peer].handshake.on_message(&msg);
        self.finish_fsm_step(ctx, peer, was, to_send, event);
    }

    /// Re-arm the hold timer on an established session (any received
    /// traffic proves the peer alive).
    fn refresh_hold(&mut self, ctx: &mut Ctx<'_, M>, peer: PeerIdx) {
        if self.peers[peer].handshake.is_established() {
            let hold = self.peers[peer].handshake.negotiated_hold_secs();
            if hold > 0 {
                ctx.set_timer(
                    SimDuration::from_secs(hold as u64),
                    tok(K_HOLD, peer as u64),
                    TimerClass::Maintenance,
                );
            }
        }
    }

    /// Queue an accepted UPDATE behind the modelled CPU processing delay
    /// (FIFO per router), minting the link-propagation causal edge.
    fn queue_update(&mut self, ctx: &mut Ctx<'_, M>, peer: PeerIdx, upd: UpdateMsg, cause: Cause) {
        self.stats.updates_received += 1;
        let (lo, hi) = self.cfg.timing.processing_delay;
        let delay = ctx.rng().duration_between(lo, hi);
        let mut due = ctx.now() + delay;
        let floor = self.last_proc_due + SimDuration::from_nanos(1);
        if due < floor {
            due = floor;
        }
        self.last_proc_due = due;
        // Causal: the delivery closes the link-propagation edge; the
        // queue entry inherits the lineage for the processing edge.
        let qcause = ctx.causal_edge(cause, CausalPhase::LinkProp, first_prefix(&upd));
        self.in_queue.push_back((peer, upd, qcause));
        ctx.schedule_timer(due, tok(K_PROCESS, 0), TimerClass::Progress);
    }

    /// End of the RFC 4724 restart window: flush every route from `peer`
    /// that wasn't re-announced since the session resumed (all of them if
    /// the peer never came back), then reconverge.
    fn gr_stale_flush(&mut self, ctx: &mut Ctx<'_, M>, peer: PeerIdx) {
        if !self.peers[peer].gr_stale {
            return;
        }
        let cutoff = self.peers[peer].gr_resumed_at.unwrap_or(SimTime::MAX);
        self.peers[peer].gr_stale = false;
        self.peers[peer].gr_resumed_at = None;
        let affected = self.adj_in.flush_stale(peer, cutoff);
        let peer_node = self.cfg.neighbors[peer].peer;
        let flushed = affected.len();
        ctx.trace(TraceCategory::Session, || TraceEvent::Note {
            category: TraceCategory::Session,
            text: format!(
                "graceful restart: window over; flushed {flushed} stale routes from {peer_node}"
            ),
        });
        if affected.is_empty() {
            return;
        }
        // Causal: the end of the GR window is a trigger of its own — the
        // convergence it forces was deferred, not caused, by the crash.
        self.mint_trigger(ctx, None, &affected);
        for p in affected {
            self.reselect(ctx, p);
        }
        self.flush_all(ctx);
    }

    /// True when the best route for `prefix` is a stale GR-retained path:
    /// learned from a peer whose session is in the graceful-restart window
    /// and not (yet) re-announced since the peer resumed. The verifier
    /// downgrades such routes from "blackhole" to "consistent but stale".
    pub fn route_is_gr_stale(&self, prefix: Prefix) -> bool {
        let Some(entry) = self.loc_rib.get(prefix) else {
            return false;
        };
        let RouteSource::Peer(i) = entry.source else {
            return false;
        };
        let pr = &self.peers[i];
        if !pr.gr_stale {
            return false;
        }
        match pr.gr_resumed_at {
            None => true,
            Some(t) => self.adj_in.get(prefix, i).is_none_or(|e| e.learned_at < t),
        }
    }

    fn finish_fsm_step(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        peer: PeerIdx,
        was_established: bool,
        to_send: Vec<BgpMessage>,
        event: Option<SessionEvent>,
    ) {
        for m in to_send {
            self.send_msg(ctx, peer, &m);
        }
        match event {
            Some(SessionEvent::Established(_)) => self.on_established(ctx, peer),
            Some(SessionEvent::Closed(reason)) => {
                // The handshake already reset itself; run the cleanup that
                // drop_session does for state above the FSM, then retry.
                self.cleanup_after_close(ctx, peer, was_established, &reason);
                self.schedule_retry(ctx, peer);
            }
            None => {}
        }
    }

    /// Tear down per-peer routing state after the FSM returned to Idle.
    fn cleanup_after_close(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        peer: PeerIdx,
        was_established: bool,
        reason: &CloseReason,
    ) {
        self.peers[peer].pending.clear();
        self.peers[peer].adj_out.clear();
        self.peers[peer].mrai_armed = false;
        ctx.cancel_timer(tok(K_MRAI, peer as u64));
        ctx.cancel_timer(tok(K_KEEPALIVE, peer as u64));
        ctx.cancel_timer(tok(K_HOLD, peer as u64));
        if !was_established {
            return;
        }
        self.stats.sessions_dropped += 1;
        ctx.count("bgp.router.sessions_dropped", 1);
        let peer_node = self.cfg.neighbors[peer].peer;
        ctx.trace(TraceCategory::Session, || TraceEvent::SessionDown {
            peer: peer_node.0,
            reason: format!("{reason:?}"),
        });
        // RFC 4724 graceful restart: a hold-timer expiry on a GR-negotiated
        // session means the peer is presumed restarting — retain its routes
        // as stale instead of flushing, and arm the restart-window timer to
        // flush whatever the peer doesn't re-announce in time. Any other
        // close reason (NOTIFICATION, link down, admin) is a deliberate
        // teardown and flushes immediately.
        let own_gr = self.peers[peer].handshake.graceful_restart_secs();
        let peer_gr = self.peers[peer].peer_gr_secs;
        if matches!(reason, CloseReason::HoldExpired) && own_gr > 0 && peer_gr > 0 {
            let retained = self.adj_in.count_for_peer(peer) as u64;
            self.peers[peer].gr_stale = true;
            self.peers[peer].gr_resumed_at = None;
            self.stats.stale_retained += retained;
            ctx.count("bgp.router.stale_retained", retained);
            let window = SimDuration::from_secs(own_gr.min(peer_gr) as u64);
            // Progress class: a pending stale flush is protocol work — the
            // run must not count as converged while stale routes linger.
            ctx.set_timer(window, tok(K_GRSTALE, peer as u64), TimerClass::Progress);
            ctx.trace(TraceCategory::Session, || TraceEvent::Note {
                category: TraceCategory::Session,
                text: format!(
                    "graceful restart: retaining {retained} stale routes from {peer_node} for {window}"
                ),
            });
            return;
        }
        if self.peers[peer].gr_stale {
            self.peers[peer].gr_stale = false;
            self.peers[peer].gr_resumed_at = None;
            ctx.cancel_timer(tok(K_GRSTALE, peer as u64));
        }
        let affected = self.adj_in.remove_peer(peer);
        let had_routes = !affected.is_empty();
        // RFC 2439: routes lost to a session reset are unreachability flaps
        // like explicit withdrawals, so a flapping session accumulates
        // penalty against the peer's routes.
        if let Some(dcfg) = &self.cfg.damping {
            let now = ctx.now();
            for &p in &affected {
                self.damping
                    .entry((peer, p))
                    .or_insert_with(|| crate::damping::DampingState::new(now))
                    .on_withdrawal(dcfg, now);
            }
        }
        // Causal: a session loss that invalidated routes is a convergence
        // trigger of its own (one root per endpoint that notices the loss).
        if had_routes {
            self.mint_trigger(ctx, None, &affected);
        }
        for p in affected {
            self.reselect(ctx, p);
        }
        if had_routes {
            self.flush_all(ctx);
        }
    }
}

impl<M: BgpApp> Node<M> for BgpRouter<M> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        // Install configured originations.
        let origins: InlineVec<Prefix, 8> = self.originated.iter().copied().collect();
        for p in origins {
            self.reselect(ctx, p);
        }
        // Stagger session bring-up so OPENs don't all collide at t=0.
        for peer in 0..self.peers.len() {
            let delay = ctx
                .rng()
                .duration_between(SimDuration::ZERO, CONNECT_STAGGER);
            self.schedule_connect(ctx, peer, delay);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, _from: NodeId, link: LinkId, msg: M) {
        if link.is_control() {
            match msg.into_command() {
                Ok(cmd) => self.handle_command(ctx, &cmd),
                Err(msg) => {
                    if let Some(pkt) = msg.as_data() {
                        // Driver-originated traffic (ping drivers inject here).
                        let pkt = *pkt;
                        self.send_packet(ctx, pkt);
                    }
                }
            }
            return;
        }
        let msg = match msg.into_bgp() {
            Ok(env) => {
                self.handle_bgp(ctx, &env);
                return;
            }
            Err(msg) => msg,
        };
        if let Some(pkt) = msg.as_data() {
            let pkt = *pkt;
            self.handle_data(ctx, pkt);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, token: TimerToken) {
        let kind = token.0 & ((1 << KIND_BITS) - 1);
        let payload = token.0 >> KIND_BITS;
        let peer = payload as usize;
        match kind {
            K_CONNECT => self.connect_now(ctx, peer),
            K_MRAI => {
                self.peers[peer].mrai_armed = false;
                self.maybe_flush(ctx, peer);
            }
            K_KEEPALIVE => {
                if self.peers[peer].handshake.is_established() {
                    self.send_msg(ctx, peer, &BgpMessage::Keepalive);
                    let hold = self.peers[peer].handshake.negotiated_hold_secs();
                    let ka = SimDuration::from_secs(hold as u64) / KEEPALIVE_DIVISOR;
                    ctx.set_timer(ka, token, TimerClass::Maintenance);
                }
            }
            K_HOLD => {
                if self.peers[peer].handshake.is_established() {
                    self.drop_session(
                        ctx,
                        peer,
                        CloseReason::HoldExpired,
                        Some(NotifCode::HoldTimerExpired),
                    );
                }
            }
            K_PROCESS => {
                let (from, upd, cause) = self
                    .in_queue
                    .pop_front()
                    .expect("one processing firing per queued UPDATE");
                self.process_update(ctx, from, upd, cause);
            }
            K_DAMP => {
                let network = std::net::Ipv4Addr::from((payload >> 8) as u32);
                let prefix = Prefix::new(network, payload as u8)
                    .expect("a K_DAMP token carries a canonical prefix");
                // A suppressed candidate may be reusable now.
                self.reselect(ctx, prefix);
                self.flush_all(ctx);
            }
            K_GRSTALE => self.gr_stale_flush(ctx, peer),
            _ => unreachable!("unknown timer kind"),
        }
    }

    /// A crash loses everything volatile: sessions, RIBs, queued work and
    /// timers (the simulator already invalidated the timers). Configured
    /// state survives — `originated` is operator intent, and cumulative
    /// stats keep counting across the outage. Restart then behaves exactly
    /// like a cold start: reselect origins, stagger session bring-up, and
    /// re-advertise everything as sessions come back.
    fn on_restart(&mut self, ctx: &mut Ctx<'_, M>) {
        for peer in self.peers.iter_mut() {
            peer.handshake.reset();
            peer.remote_router_id = RouterId(0);
            peer.adj_out.clear();
            peer.pending.clear();
            peer.mrai_armed = false;
            peer.retries = 0;
            peer.peer_gr_secs = 0;
            peer.gr_stale = false;
            peer.gr_resumed_at = None;
        }
        self.adj_in = AdjRibIn::default();
        self.loc_rib = LocRib::default();
        self.in_queue.clear();
        self.last_proc_due = SimTime::ZERO;
        self.causes.clear();
        self.damping.clear();
        ctx.trace(TraceCategory::Session, || TraceEvent::Note {
            category: TraceCategory::Session,
            text: "router restarted: volatile state wiped".to_string(),
        });
        self.on_start(ctx);
    }

    fn on_link_change(&mut self, ctx: &mut Ctx<'_, M>, link: LinkId, up: bool) {
        let peers: InlineVec<PeerIdx, 4> = self
            .cfg
            .neighbors
            .iter()
            .enumerate()
            .filter(|(_, n)| n.link == link)
            .map(|(i, _)| i)
            .collect();
        for peer in peers {
            if up {
                self.peers[peer].retries = 0;
                let delay = ctx
                    .rng()
                    .duration_between(SimDuration::ZERO, CONNECT_STAGGER);
                self.schedule_connect(ctx, peer, delay);
            } else {
                self.drop_session(ctx, peer, CloseReason::LinkDown, None);
            }
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}
