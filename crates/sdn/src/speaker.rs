//! The cluster BGP speaker (the framework's ExaBGP replacement).
//!
//! One speaker terminates every eBGP session between the cluster and the
//! legacy world. Each session is an *alias session*: the speaker answers as
//! the cluster member AS (same ASN, same router identity), so "the cluster
//! network is transparent to the legacy BGP world" and "ASes within the
//! cluster maintain their AS identity". Messages reach external routers by
//! relay over the member's border switch.
//!
//! Toward the controller the speaker exposes the structured API
//! ([`SpeakerEvent`]/[`SpeakerCmd`]) that ExaBGP's JSON pipe provides in the
//! paper's stack: decoded updates and session lifecycle up, announce /
//! withdraw instructions down, each inside a sequenced [`CtrlMsg`]. The speaker itself makes no routing
//! decisions and applies no MRAI — rate limiting is the controller's job
//! (its delayed recomputation).
//!
//! ## Surviving the controller
//!
//! The speaker's end of the controller channel is a [`ChannelEnd`]
//! (go-back-N, heartbeats, hold timer). The policy is the speaker's: when
//! the hold timer fires it enters **headless** mode: forwarding stays as
//! last programmed (fail-static), legacy BGP sessions stay up, and events
//! are dropped (counted) instead of queued. The first controller message
//! after an outage triggers a full-state **resync**: the speaker opens a
//! new epoch whose first payload is a [`SpeakerSyncState`] snapshot
//! (session states, Adj-RIB-In, Adj-RIB-Out), from which the controller
//! rebuilds everything it missed.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use bgpsdn_bgp::{
    wire::Writer, Asn, BgpApp, BgpEnvelope, BgpMessage, PathAttributes, Prefix, RouterId,
    SessionEvent, SessionHandshake, SharedPath, UpdateMsg, CONNECT_RETRY, CONNECT_STAGGER,
};
use bgpsdn_netsim::{
    Activity, CausalPhase, Cause, Ctx, LinkId, Node, NodeId, SimDuration, TimerClass, TimerToken,
    TraceCategory, TraceEvent,
};

use crate::app::{CtrlMsg, SdnApp, SessionSync, SpeakerCmd, SpeakerEvent, SpeakerSyncState};
use crate::channel::ChannelEnd;

// Timer tokens, all named timers and so small and dense: `session << 3 |
// kind`. K_CONNECT carries a session index; the others name singleton
// timers (session 0).
const K_CONNECT: u64 = 0;
const K_RETX: u64 = 1;
const K_HEARTBEAT: u64 = 2;
const K_HOLD: u64 = 3;
const KIND_BITS: u32 = 3;
const CHANNEL_TIMERS: [TimerToken; 3] = [
    TimerToken(K_RETX),
    TimerToken(K_HEARTBEAT),
    TimerToken(K_HOLD),
];

fn connect_token(session: usize) -> TimerToken {
    TimerToken((session as u64) << KIND_BITS | K_CONNECT)
}

/// Configuration of one alias session.
#[derive(Debug, Clone)]
pub struct AliasSessionConfig {
    /// The cluster member the speaker impersonates (its switch's node id).
    pub alias: NodeId,
    /// The member's ASN (kept toward the legacy world).
    pub alias_asn: Asn,
    /// The member's BGP identifier.
    pub alias_router_id: RouterId,
    /// NEXT_HOP announced for cluster routes: the member's address, so the
    /// legacy data plane forwards into the cluster at that border.
    pub alias_next_hop: Ipv4Addr,
    /// The external BGP router at the far end.
    pub ext_peer: NodeId,
    /// Its expected ASN.
    pub remote_asn: Asn,
    /// The speaker→border-switch relay link this session rides.
    pub via_link: LinkId,
}

/// Speaker counters.
#[derive(Debug, Clone, Default)]
pub struct SpeakerStats {
    /// Decoded UPDATEs relayed up to the controller.
    pub updates_in: u64,
    /// UPDATEs sent on behalf of cluster members.
    pub updates_out: u64,
    /// Alias sessions currently established.
    pub sessions_up: usize,
    /// Envelope decode failures.
    pub decode_errors: u64,
    /// Duplicate announcements suppressed.
    pub dup_suppressed: u64,
    /// Controller-bound events dropped (no controller link, or headless).
    pub events_dropped: u64,
    /// Full-state resyncs initiated toward the controller.
    pub resyncs: u64,
    /// Retransmit-timer firings (each resends every unacked payload).
    pub retransmits: u64,
    /// Times the speaker entered headless mode (controller declared dead).
    pub headless_entries: u64,
}

struct SessionRuntime {
    cfg: AliasSessionConfig,
    handshake: SessionHandshake,
    /// What the controller last announced here, for dedup. The path is
    /// interned, shared with the controller's adjacency cache.
    advertised: BTreeMap<Prefix, (SharedPath, Option<u32>)>,
    /// Routes learned from the peer and still valid (Adj-RIB-In), retained
    /// so a resync can replay the controller's entire input. Paths are
    /// interned exactly as the controller interns them, so a replayed
    /// snapshot reproduces the controller's state byte-for-byte.
    adj_in: BTreeMap<Prefix, (SharedPath, Option<u32>)>,
    /// The peer's ASN from its OPEN (known while Established).
    peer_asn: Option<Asn>,
    retries: u32,
}

/// The cluster BGP speaker node.
pub struct ClusterSpeaker<M> {
    sessions: Vec<SessionRuntime>,
    by_endpoint: HashMap<(NodeId, NodeId), usize>,
    stats: SpeakerStats,
    /// The speaker's end of the controller channel: events and syncs up,
    /// commands down.
    chan: ChannelEnd,
    /// Encode scratch reused for every outgoing BGP message.
    wire_scratch: Writer,
    /// Next epoch to open on resync (epochs are speaker-owned, monotonic).
    next_epoch: u64,
    /// Controller declared dead; forwarding is frozen fail-static.
    headless: bool,
    /// A Sync is in flight and unacked: ignore heartbeat epoch mismatches
    /// (the controller hasn't adopted the new epoch yet).
    resync_in_flight: bool,
    _m: std::marker::PhantomData<fn() -> M>,
}

impl<M> Default for ClusterSpeaker<M> {
    /// New speaker with no sessions. Speaker and controller both start in
    /// epoch 1 with empty state, so bring-up needs no initial resync.
    fn default() -> Self {
        ClusterSpeaker {
            sessions: Vec::new(),
            by_endpoint: HashMap::new(),
            stats: SpeakerStats::default(),
            chan: ChannelEnd::new(None, false, CHANNEL_TIMERS),
            wire_scratch: Writer::with_capacity(64),
            next_epoch: 2,
            headless: false,
            resync_in_flight: false,
            _m: std::marker::PhantomData,
        }
    }
}

impl<M: SdnApp + BgpApp> ClusterSpeaker<M> {
    /// Attach the controller channel.
    pub fn set_controller_link(&mut self, link: LinkId) {
        self.chan.link = Some(link);
    }

    /// Register an alias session (before the simulation starts). Returns its
    /// speaker-local index, which the controller uses in commands.
    pub fn add_session(&mut self, cfg: AliasSessionConfig) -> usize {
        let idx = self.sessions.len();
        let dup = self.by_endpoint.insert((cfg.alias, cfg.ext_peer), idx);
        assert!(dup.is_none(), "duplicate alias session");
        let handshake = SessionHandshake::new(
            cfg.alias_asn,
            cfg.alias_router_id,
            0, // hold disabled: liveness comes from link state via the switch
            Some(cfg.remote_asn),
        );
        self.sessions.push(SessionRuntime {
            cfg,
            handshake,
            advertised: BTreeMap::new(),
            adj_in: BTreeMap::new(),
            peer_asn: None,
            retries: 0,
        });
        idx
    }

    /// Number of registered sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Counters.
    pub fn stats(&self) -> &SpeakerStats {
        &self.stats
    }

    /// Is session `idx` established?
    pub fn session_established(&self, idx: usize) -> bool {
        self.sessions[idx].handshake.is_established()
    }

    /// The configuration of session `idx`.
    pub fn session_config(&self, idx: usize) -> &AliasSessionConfig {
        &self.sessions[idx].cfg
    }

    /// Current resync epoch.
    pub fn epoch(&self) -> u64 {
        self.chan.epoch()
    }

    /// Is the speaker running without a live controller?
    pub fn is_headless(&self) -> bool {
        self.headless
    }

    /// What session `idx` has actually advertised to its peer (Adj-RIB-Out),
    /// sorted by prefix — the ground truth oracle tests compare.
    pub fn adj_out_table(&self, idx: usize) -> Vec<(Prefix, SharedPath, Option<u32>)> {
        self.sessions[idx]
            .advertised
            .iter()
            .map(|(p, (path, med))| (*p, path.clone(), *med))
            .collect()
    }

    /// Open a new epoch and send the controller a full-state snapshot. The
    /// Sync is sequence 1 of the epoch, so go-back-N covers its loss too.
    fn start_resync(&mut self, ctx: &mut Ctx<'_, M>) {
        if self.chan.link.is_none() {
            return;
        }
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        self.chan.reset(ctx, epoch);
        self.resync_in_flight = true;
        self.stats.resyncs += 1;
        let state = SpeakerSyncState {
            sessions: self
                .sessions
                .iter()
                .map(|s| SessionSync {
                    established: s.handshake.is_established(),
                    peer_asn: s.peer_asn,
                    adj_in: s
                        .adj_in
                        .iter()
                        .map(|(p, (path, med))| (*p, path.clone(), *med))
                        .collect(),
                    adj_out: s
                        .advertised
                        .iter()
                        .map(|(p, (path, med))| (*p, path.clone(), *med))
                        .collect(),
                })
                .collect(),
        };
        self.chan
            .send_reliable(ctx, [state], |epoch, seq, state| CtrlMsg::Sync {
                epoch,
                seq,
                state,
            });
    }

    fn enter_headless(&mut self, ctx: &mut Ctx<'_, M>) {
        if self.headless {
            return;
        }
        self.headless = true;
        self.resync_in_flight = false;
        self.stats.headless_entries += 1;
        ctx.count("core.speaker.headless_entered", 1);
        ctx.trace(TraceCategory::Ctrl, || TraceEvent::SpeakerHeadless {
            entered: true,
        });
        // Freeze the channel: no retransmissions while the controller is
        // gone, so an outage quiesces instead of spinning the retx timer.
        ctx.cancel_timer(TimerToken(K_RETX));
    }

    fn handle_ctrl(&mut self, ctx: &mut Ctx<'_, M>, m: CtrlMsg) {
        // Any controller traffic refreshes liveness.
        self.chan.arm_hold(ctx);
        if self.headless {
            // The controller is back. Whatever it sent reflects a stale
            // view; rejoin via a fresh epoch and snapshot instead.
            self.headless = false;
            ctx.trace(TraceCategory::Ctrl, || TraceEvent::SpeakerHeadless {
                entered: false,
            });
            self.start_resync(ctx);
            return;
        }
        match m {
            CtrlMsg::Heartbeat {
                from_controller: true,
                epoch,
            } => {
                // Epoch mismatch across an idle channel means the
                // controller lost state (restart or hold expiry) without
                // the speaker noticing: resync. Suppressed while a Sync is
                // unacked — the controller adopts the new epoch only when
                // the Sync arrives.
                if !self.resync_in_flight && epoch != self.chan.epoch() {
                    self.start_resync(ctx);
                }
            }
            CtrlMsg::Heartbeat { .. } => {}
            CtrlMsg::Cmd { epoch, seq, cmd } => {
                // Deliver, then ack.
                if self.chan.accept(ctx, epoch, seq) {
                    self.handle_cmd(ctx, cmd);
                    self.chan.ack(ctx);
                }
            }
            CtrlMsg::EventAck { epoch, seq } => {
                if epoch == self.chan.epoch() && seq >= 1 {
                    // The Sync (seq 1 of its epoch) has been received.
                    self.resync_in_flight = false;
                }
                self.chan.on_ack(ctx, epoch, seq);
            }
            // Speaker-originated kinds echoed back: ignore.
            CtrlMsg::Event { .. } | CtrlMsg::Sync { .. } | CtrlMsg::CmdAck { .. } => {}
        }
    }

    fn send_bgp(&mut self, ctx: &mut Ctx<'_, M>, idx: usize, msg: &BgpMessage) {
        self.send_bgp_caused(ctx, idx, msg, Cause::NONE);
    }

    fn send_bgp_caused(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        idx: usize,
        msg: &BgpMessage,
        cause: Cause,
    ) {
        let s = &self.sessions[idx];
        if let BgpMessage::Update(u) = msg {
            self.stats.updates_out += 1;
            ctx.report(Activity::UpdateSent);
            ctx.count("sdn.speaker.updates_out", 1);
            ctx.trace(TraceCategory::Msg, || TraceEvent::UpdateSent {
                peer: s.cfg.ext_peer.0,
                announced: u.nlri.iter().map(|&p| p.into()).collect(),
                withdrawn: u.withdrawn.iter().map(|&p| p.into()).collect(),
            });
        } else {
            ctx.trace(TraceCategory::Msg, || TraceEvent::Note {
                category: TraceCategory::Msg,
                text: format!("alias {} -> {} {}", s.cfg.alias, s.cfg.ext_peer, msg),
            });
        }
        let (alias, ext_peer, via_link) = (s.cfg.alias, s.cfg.ext_peer, s.cfg.via_link);
        let env =
            BgpEnvelope::with_cause_scratch(alias, ext_peer, msg, cause, &mut self.wire_scratch);
        ctx.send(via_link, M::from_bgp(env));
    }

    fn notify_controller(&mut self, ctx: &mut Ctx<'_, M>, ev: SpeakerEvent) {
        if self.chan.link.is_none() || self.headless {
            // No live controller. Drop visibly — the retained session state
            // and Adj-RIB-In mean the next resync replays what was missed.
            let session = match &ev {
                SpeakerEvent::SessionUp { session, .. }
                | SpeakerEvent::SessionDown { session }
                | SpeakerEvent::Update { session, .. } => *session as u32,
            };
            self.stats.events_dropped += 1;
            ctx.count("sdn.speaker.events_dropped", 1);
            ctx.trace(TraceCategory::Ctrl, || TraceEvent::SpeakerEventDropped {
                session,
            });
            return;
        }
        self.chan
            .send_reliable(ctx, [ev], |epoch, seq, event| CtrlMsg::Event {
                epoch,
                seq,
                event,
            });
    }

    fn handle_bgp(&mut self, ctx: &mut Ctx<'_, M>, env: &BgpEnvelope) {
        let idx = match self.by_endpoint.get(&(env.dst, env.src)) {
            Some(&i) => i,
            None => return, // not one of our sessions
        };
        let msg = match env.decode() {
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
        let msg = match msg {
            BgpMessage::Update(upd) if self.sessions[idx].handshake.is_established() => {
                self.stats.updates_in += 1;
                ctx.report(Activity::UpdateReceived);
                ctx.count("sdn.speaker.updates_in", 1);
                ctx.trace(TraceCategory::Msg, || TraceEvent::UpdateDelivered {
                    peer: env.src.0,
                    announced: upd.nlri.iter().map(|&p| p.into()).collect(),
                    withdrawn: upd.withdrawn.iter().map(|&p| p.into()).collect(),
                });
                // Maintain the Adj-RIB-In replayed on resync, interning
                // paths exactly as the controller does on this UPDATE.
                let s = &mut self.sessions[idx];
                for p in &upd.withdrawn {
                    s.adj_in.remove(p);
                }
                if let Some(attrs) = &upd.attrs {
                    let path: SharedPath = attrs.as_path.flatten().into();
                    for p in &upd.nlri {
                        s.adj_in.insert(*p, (path.clone(), attrs.med));
                    }
                }
                // Causal: close the link-propagation edge at the speaker;
                // the controller closes the ctrl_queue edge when its batch
                // recomputes.
                let first = upd.nlri.first().or_else(|| upd.withdrawn.first());
                let cause =
                    ctx.causal_edge(env.cause, CausalPhase::LinkProp, first.map(|&p| p.into()));
                self.notify_controller(
                    ctx,
                    SpeakerEvent::Update {
                        session: idx,
                        update: Box::new(upd),
                        cause,
                    },
                );
                return;
            }
            other => other,
        };
        let (to_send, event) = self.sessions[idx].handshake.on_message(&msg);
        for m in to_send {
            self.send_bgp(ctx, idx, &m);
        }
        match event {
            Some(SessionEvent::Established(open)) => {
                self.stats.sessions_up += 1;
                self.sessions[idx].retries = 0;
                self.sessions[idx].peer_asn = Some(open.asn);
                let ext_peer = self.sessions[idx].cfg.ext_peer;
                ctx.trace(TraceCategory::Session, || TraceEvent::SessionUp {
                    peer: ext_peer.0,
                });
                self.notify_controller(
                    ctx,
                    SpeakerEvent::SessionUp {
                        session: idx,
                        peer_asn: open.asn,
                    },
                );
            }
            Some(SessionEvent::Closed(_)) => {
                self.session_down(ctx, idx, true);
            }
            None => {}
        }
    }

    fn session_down(&mut self, ctx: &mut Ctx<'_, M>, idx: usize, retry: bool) {
        self.stats.sessions_up = self.stats.sessions_up.saturating_sub(1);
        self.sessions[idx].handshake.reset();
        self.sessions[idx].advertised.clear();
        self.sessions[idx].adj_in.clear();
        self.sessions[idx].peer_asn = None;
        let ext_peer = self.sessions[idx].cfg.ext_peer;
        ctx.trace(TraceCategory::Session, || TraceEvent::SessionDown {
            peer: ext_peer.0,
            reason: if retry { "closed" } else { "link down" }.into(),
        });
        self.notify_controller(ctx, SpeakerEvent::SessionDown { session: idx });
        if retry && self.sessions[idx].retries < 5 {
            self.sessions[idx].retries += 1;
            let delay = ctx
                .rng()
                .jittered(CONNECT_RETRY, 0.75, 1.0)
                .saturating_mul(1 << (self.sessions[idx].retries - 1).min(4));
            ctx.set_timer(delay, connect_token(idx), TimerClass::Progress);
        }
    }

    fn handle_cmd(&mut self, ctx: &mut Ctx<'_, M>, cmd: SpeakerCmd) {
        match cmd {
            SpeakerCmd::Announce {
                session,
                prefix,
                as_path,
                med,
                cause,
            } => {
                let s = &mut self.sessions[session];
                if !s.handshake.is_established() {
                    return;
                }
                let key = (as_path, med);
                if s.advertised.get(&prefix) == Some(&key) {
                    self.stats.dup_suppressed += 1;
                    return;
                }
                let mut attrs = PathAttributes::originate(s.cfg.alias_next_hop);
                attrs.as_path = bgpsdn_bgp::AsPath::from_seq(key.0.iter().map(|a| a.0));
                attrs.med = med;
                s.advertised.insert(prefix, key);
                let cause = ctx.causal_edge(cause, CausalPhase::LinkProp, Some(prefix.into()));
                let msg = BgpMessage::Update(UpdateMsg::announce([prefix], attrs));
                self.send_bgp_caused(ctx, session, &msg, cause);
            }
            SpeakerCmd::Withdraw {
                session,
                prefix,
                cause,
            } => {
                let s = &mut self.sessions[session];
                if !s.handshake.is_established() {
                    return;
                }
                if s.advertised.remove(&prefix).is_none() {
                    return; // never announced here
                }
                let cause = ctx.causal_edge(cause, CausalPhase::LinkProp, Some(prefix.into()));
                let msg = BgpMessage::Update(UpdateMsg::withdraw([prefix]));
                self.send_bgp_caused(ctx, session, &msg, cause);
            }
        }
    }
}

impl<M: SdnApp + BgpApp> Node<M> for ClusterSpeaker<M> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        for idx in 0..self.sessions.len() {
            let delay = ctx
                .rng()
                .duration_between(SimDuration::ZERO, CONNECT_STAGGER);
            ctx.set_timer(delay, connect_token(idx), TimerClass::Progress);
        }
        self.chan.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, _from: NodeId, _link: LinkId, msg: M) {
        let msg = match msg.into_bgp() {
            Ok(env) => {
                self.handle_bgp(ctx, &env);
                return;
            }
            Err(msg) => msg,
        };
        if let Ok(m) = msg.into_ctrl() {
            self.handle_ctrl(ctx, m);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, token: TimerToken) {
        match token.0 & ((1 << KIND_BITS) - 1) {
            K_CONNECT => {
                let idx = (token.0 >> KIND_BITS) as usize;
                if self.sessions[idx].handshake.state() == bgpsdn_bgp::SessionState::Idle {
                    let msgs = self.sessions[idx].handshake.start();
                    for m in msgs {
                        self.send_bgp(ctx, idx, &m);
                    }
                }
            }
            // No retransmission while headless: an outage quiesces.
            K_RETX if !self.headless && self.chan.retransmit(ctx) => self.stats.retransmits += 1,
            K_HEARTBEAT => self.chan.heartbeat(ctx),
            K_HOLD => {
                // Hold expired: nothing heard from the controller.
                self.enter_headless(ctx);
            }
            _ => {}
        }
    }

    fn on_link_change(&mut self, ctx: &mut Ctx<'_, M>, link: LinkId, up: bool) {
        self.chan.on_link_change(ctx, link, up);
        // A relay link failing kills every session riding it.
        let affected: Vec<usize> = self
            .sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| s.cfg.via_link == link)
            .map(|(i, _)| i)
            .collect();
        for idx in affected {
            if up {
                self.sessions[idx].retries = 0;
                let delay = ctx
                    .rng()
                    .duration_between(SimDuration::ZERO, CONNECT_STAGGER);
                ctx.set_timer(delay, connect_token(idx), TimerClass::Progress);
            } else if self.sessions[idx].handshake.state() != bgpsdn_bgp::SessionState::Idle {
                self.session_down(ctx, idx, false);
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
