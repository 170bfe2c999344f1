//! The cluster BGP speaker (the framework's ExaBGP replacement).
//!
//! One speaker terminates every eBGP session between the cluster and the
//! legacy world. Each session is an *alias session*: the speaker answers as
//! the cluster member AS (same ASN, same router identity), so "the cluster
//! network is transparent to the legacy BGP world" and "ASes within the
//! cluster maintain their AS identity". Messages reach external routers by
//! relay over the member's border switch.
//!
//! The sessions run on the router's session driver ([`Sessions`]), so a
//! legacy neighbour meets the same connect, retry, supervision, decode and
//! session-down rules at either end. Only data differs: an alias session
//! proposes hold 0 (liveness is the relay link's state) and counts its
//! UPDATEs as `sdn.speaker.updates_out`. Beside each session the speaker
//! keeps the relay state: the Adj-RIB-In replayed on resync and the
//! Adj-RIB-Out the controller commanded.
//!
//! Toward the controller the speaker exposes the structured API
//! ([`SpeakerEvent`]/[`SpeakerCmd`]) that ExaBGP's JSON pipe provides in the
//! paper's stack: decoded updates and session lifecycle up, announce /
//! withdraw instructions down, each inside a sequenced [`CtrlMsg`]. It
//! makes no routing decisions and applies no MRAI: rate limiting is the
//! controller's delayed recomputation.
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

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use bgpsdn_bgp::session::FIRST_OWNER_KIND;
use bgpsdn_bgp::{
    Asn, BgpApp, BgpMessage, CloseReason, OpenMsg, PathAttributes, Prefix, RouterId, SessionConfig,
    SessionOwner, Sessions, SharedPath, UpdateMsg,
};
use bgpsdn_netsim::{
    Activity, CausalPhase, Cause, Counter, Counters, Ctx, LinkId, Node, NodeId, TimerToken,
    TraceCategory, TraceEvent,
};

use crate::app::{CtrlMsg, SdnApp, SessionSync, SpeakerCmd, SpeakerEvent, SpeakerSyncState};
use crate::channel::ChannelEnd;

// The controller channel's timers: singletons (payload 0) of the kinds
// beside the session driver's, so they never share a token with a
// session's connect, keepalive or hold timer.
const K_RETX: u64 = FIRST_OWNER_KIND;
const K_HEARTBEAT: u64 = FIRST_OWNER_KIND + 1;
const K_HOLD: u64 = FIRST_OWNER_KIND + 2;
const CHANNEL_TIMERS: [TimerToken; 3] = [
    TimerToken(K_RETX),
    TimerToken(K_HEARTBEAT),
    TimerToken(K_HOLD),
];

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

/// An alias session's relay state beside the session itself.
struct AliasState {
    cfg: AliasSessionConfig,
    /// What the controller last announced here, for dedup. The path is
    /// interned, shared with the controller's adjacency cache.
    advertised: BTreeMap<Prefix, (SharedPath, Option<u32>)>,
    /// Routes learned from the peer and still valid (Adj-RIB-In), retained
    /// so a resync can replay the controller's entire input. Paths are
    /// interned exactly as the controller interns them, so a replayed
    /// snapshot reproduces the controller's state byte-for-byte.
    adj_in: BTreeMap<Prefix, (SharedPath, Option<u32>)>,
}

/// The cluster BGP speaker node.
pub struct ClusterSpeaker<M> {
    /// One per alias session, indexed like `sessions`.
    aliases: Vec<AliasState>,
    sessions: Sessions,
    counters: Counters,
    /// The speaker's end of the controller channel: events and syncs up,
    /// commands down.
    chan: ChannelEnd,
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
            aliases: Vec::new(),
            sessions: Sessions::default(),
            counters: Counters::default(),
            chan: ChannelEnd::new(None, false, CHANNEL_TIMERS),
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
        let idx = self.sessions.add(SessionConfig {
            local: cfg.alias,
            asn: cfg.alias_asn,
            router_id: cfg.alias_router_id,
            peer: cfg.ext_peer,
            remote_asn: cfg.remote_asn,
            link: cfg.via_link,
            // Hold disabled: liveness comes from link state via the switch.
            hold_secs: 0,
            graceful_restart_secs: 0,
            updates_sent: Counter::SpeakerUpdatesOut,
        });
        self.aliases.push(AliasState {
            cfg,
            advertised: BTreeMap::new(),
            adj_in: BTreeMap::new(),
        });
        idx
    }

    /// Number of registered sessions.
    pub fn session_count(&self) -> usize {
        self.aliases.len()
    }

    /// Is session `idx` established?
    pub fn session_established(&self, idx: usize) -> bool {
        self.sessions.is_established(idx)
    }

    /// The configuration of session `idx`.
    pub fn session_config(&self, idx: usize) -> &AliasSessionConfig {
        &self.aliases[idx].cfg
    }

    /// Current resync epoch.
    // detlint: allow test-oracle read-only view proptest_outage checks
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
        self.aliases[idx]
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
        ctx.count(Counter::SpeakerResyncs, 1);
        let state = SpeakerSyncState {
            sessions: self
                .aliases
                .iter()
                .enumerate()
                .map(|(i, s)| SessionSync {
                    established: self.sessions.is_established(i),
                    // The handshake refuses an OPEN from any other ASN.
                    peer_asn: self.sessions.is_established(i).then_some(s.cfg.remote_asn),
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
        ctx.count(Counter::HeadlessEntered, 1);
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

    fn notify_controller(&mut self, ctx: &mut Ctx<'_, M>, ev: SpeakerEvent) {
        if self.chan.link.is_none() || self.headless {
            // No live controller. Drop visibly — the retained session state
            // and Adj-RIB-In mean the next resync replays what was missed.
            let session = match &ev {
                SpeakerEvent::SessionUp { session, .. }
                | SpeakerEvent::SessionDown { session }
                | SpeakerEvent::Update { session, .. } => *session as u32,
            };
            ctx.count(Counter::SpeakerEventsDropped, 1);
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

    fn handle_cmd(&mut self, ctx: &mut Ctx<'_, M>, cmd: SpeakerCmd) {
        match cmd {
            SpeakerCmd::Announce {
                session,
                prefix,
                as_path,
                med,
                cause,
            } => {
                if !self.sessions.is_established(session) {
                    return;
                }
                let s = &mut self.aliases[session];
                let key = (as_path, med);
                if s.advertised.get(&prefix) == Some(&key) {
                    ctx.count(Counter::DupSuppressed, 1);
                    return;
                }
                let mut attrs = PathAttributes::originate(s.cfg.alias_next_hop);
                attrs.as_path = bgpsdn_bgp::AsPath::from_seq(key.0.iter().map(|a| a.0));
                attrs.med = med;
                s.advertised.insert(prefix, key);
                let cause = ctx.causal_edge(cause, CausalPhase::LinkProp, Some(prefix.into()));
                let msg = BgpMessage::Update(UpdateMsg::announce([prefix], attrs));
                self.sessions.send(ctx, session, &msg, cause);
            }
            SpeakerCmd::Withdraw {
                session,
                prefix,
                cause,
            } => {
                if !self.sessions.is_established(session) {
                    return;
                }
                if self.aliases[session].advertised.remove(&prefix).is_none() {
                    return; // never announced here
                }
                let cause = ctx.causal_edge(cause, CausalPhase::LinkProp, Some(prefix.into()));
                let msg = BgpMessage::Update(UpdateMsg::withdraw([prefix]));
                self.sessions.send(ctx, session, &msg, cause);
            }
        }
    }
}

impl<M: SdnApp + BgpApp> SessionOwner<M> for ClusterSpeaker<M> {
    fn sessions(&mut self) -> &mut Sessions {
        &mut self.sessions
    }

    fn on_update(&mut self, ctx: &mut Ctx<'_, M>, idx: usize, upd: UpdateMsg, cause: Cause) {
        ctx.report(Activity::UpdateReceived);
        ctx.count(Counter::SpeakerUpdatesIn, 1);
        // Maintain the Adj-RIB-In replayed on resync, interning paths
        // exactly as the controller does on this UPDATE.
        let s = &mut self.aliases[idx];
        for p in &upd.withdrawn {
            s.adj_in.remove(p);
        }
        if let Some(attrs) = &upd.attrs {
            let path: SharedPath = attrs.as_path.flatten().into();
            for p in &upd.nlri {
                s.adj_in.insert(*p, (path.clone(), attrs.med));
            }
        }
        // Causal: close the link-propagation edge at the speaker; the
        // controller closes the ctrl_queue edge when its batch recomputes.
        let first = upd.nlri.first().or_else(|| upd.withdrawn.first());
        let cause = ctx.causal_edge(cause, CausalPhase::LinkProp, first.map(|&p| p.into()));
        self.notify_controller(
            ctx,
            SpeakerEvent::Update {
                session: idx,
                update: Box::new(upd),
                cause,
            },
        );
    }

    fn on_up(&mut self, ctx: &mut Ctx<'_, M>, idx: usize, open: &OpenMsg) {
        self.notify_controller(
            ctx,
            SpeakerEvent::SessionUp {
                session: idx,
                peer_asn: open.asn,
            },
        );
    }

    fn on_down(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        idx: usize,
        _reason: &CloseReason,
        was_established: bool,
    ) {
        let s = &mut self.aliases[idx];
        s.advertised.clear();
        s.adj_in.clear();
        if was_established {
            self.notify_controller(ctx, SpeakerEvent::SessionDown { session: idx });
        }
    }
}

impl<M: SdnApp + BgpApp> Node<M> for ClusterSpeaker<M> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        self.sessions.start(ctx);
        self.chan.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, _from: NodeId, _link: LinkId, msg: M) {
        let msg = match msg.into_bgp() {
            Ok(env) => {
                self.receive_bgp(ctx, &env);
                return;
            }
            Err(msg) => msg,
        };
        if let Ok(m) = msg.into_ctrl() {
            self.handle_ctrl(ctx, m);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, token: TimerToken) {
        if self.session_timer(ctx, token) {
            return;
        }
        match token.0 {
            K_HEARTBEAT => self.chan.heartbeat(ctx),
            // Hold expired: nothing heard from the controller.
            K_HOLD => self.enter_headless(ctx),
            // K_RETX. No retransmission while headless: an outage quiesces.
            _ if self.headless => {}
            _ => self.chan.retransmit(ctx),
        }
    }

    fn on_link_change(&mut self, ctx: &mut Ctx<'_, M>, link: LinkId, up: bool) {
        self.chan.on_link_change(ctx, link, up);
        // A relay link failing kills every session riding it.
        self.session_link_change(ctx, link, up);
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
