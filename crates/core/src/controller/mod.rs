//! The IDR SDN controller — the paper's proof-of-concept controller that
//! "exploits centralization to improve IDR convergence time".
//!
//! Responsibilities (paper §3):
//! * maintain the **switch graph** ([`switch_graph`]) from PortStatus input;
//! * maintain external routes learned through the cluster BGP speaker and
//!   transform them, per destination prefix, into the **AS topology graph**
//!   ([`as_graph`]) with legacy-crossing **loop avoidance**;
//! * run **Dijkstra** per prefix and compile the results into **flow rules**
//!   on the member switches;
//! * **delay recomputation** to rate-limit route flaps under bursty
//!   external input;
//! * announce the cluster's routes to external peers through the speaker,
//!   preserving each member's **AS identity**;
//! * keep working across **sub-clusters** when intra-cluster links fail.

pub mod as_graph;
pub mod switch_graph;

use std::collections::{BTreeMap, BTreeSet};

use bgpsdn_bgp::{Asn, BgpApp, Prefix, RouterCommand, SharedPath, UpdateMsg};
use bgpsdn_netsim::{
    Activity, CausalPhase, Cause, Counter, Counters, Ctx, LinkId, Node, NodeId, RecomputeTrigger,
    SimDuration, TimerClass, TimerToken, TraceCategory, TraceEvent,
};
use bgpsdn_sdn::{
    ChannelEnd, CtrlMsg, FlowAction, FlowModOp, FlowRule, OfEnvelope, OfMessage, SdnApp,
    SpeakerCmd, SpeakerEvent, SpeakerSyncState,
};

use as_graph::{
    accept_route, compute, compute_into, AnnounceMemo, ComputeScratch, ExternalRoute,
    MemberDecision, PrefixComputation,
};
use switch_graph::SwitchGraph;

// All four are named timers (re-armed and cancelled): small, dense tokens.
const RECOMPUTE: TimerToken = TimerToken(1);
const RETX: TimerToken = TimerToken(2);
const HEARTBEAT: TimerToken = TimerToken(3);
const HOLD: TimerToken = TimerToken(4);

/// One cluster member as the controller sees it.
#[derive(Debug, Clone)]
pub struct MemberConfig {
    /// The member's switch node.
    pub switch: NodeId,
    /// The member's ASN (kept toward the legacy world).
    pub asn: Asn,
    /// The prefix this member AS originates.
    pub prefix: Prefix,
    /// The controller↔switch control link.
    pub ctl_link: LinkId,
}

/// One external peering as the controller sees it.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Which member's border the session sits at.
    pub member: usize,
    /// The external router.
    pub ext_peer: NodeId,
    /// Its ASN.
    pub ext_asn: Asn,
    /// The physical member↔external link (egress port; PortStatus source).
    pub ext_link: LinkId,
}

/// The priority every controller-compiled flow rule is installed at.
pub(crate) const FLOW_PRIORITY: u16 = 100;

/// Full controller configuration. Speaker session indices must equal the
/// positions in `sessions` (the framework builder guarantees this).
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Cluster members.
    pub members: Vec<MemberConfig>,
    /// Intra-cluster links as member-index pairs.
    pub intra_links: Vec<(usize, usize, LinkId)>,
    /// External sessions, aligned with the speaker's session indices.
    pub sessions: Vec<SessionConfig>,
    /// The controller↔speaker channel.
    pub speaker_link: LinkId,
    /// The paper's delayed recomputation: external updates are buffered for
    /// this long before one batched recomputation runs. Zero recomputes on
    /// the next event tick.
    pub recompute_delay: SimDuration,
}

impl ControllerConfig {
    /// Config with the default 100 ms recompute delay.
    pub(crate) fn new(
        members: Vec<MemberConfig>,
        intra_links: Vec<(usize, usize, LinkId)>,
        sessions: Vec<SessionConfig>,
        speaker_link: LinkId,
    ) -> Self {
        ControllerConfig {
            members,
            intra_links,
            sessions,
            speaker_link,
            recompute_delay: SimDuration::from_millis(100),
        }
    }
}

/// The controller counters the benchmark harness reads, as one value;
/// every counter is [`Simulator::counter`](bgpsdn_netsim::Simulator::counter).
#[derive(Debug, Clone, Copy)]
pub struct ControllerStats {
    /// Batched recomputations executed.
    pub recomputes: u64,
    /// Per-prefix Dijkstra runs actually executed.
    pub prefixes_recomputed: u64,
    /// Tracked prefixes whose cached compiled state was reused untouched.
    pub prefixes_cached: u64,
}

/// The IDR controller node.
pub struct IdrController<M> {
    id: NodeId,
    cfg: ControllerConfig,
    sg: SwitchGraph,
    member_asns: Vec<Asn>,
    member_asn_set: BTreeSet<Asn>,
    /// Active cluster-originated prefixes → owning member.
    owned: BTreeMap<Prefix, usize>,
    /// prefix → session → accepted external route.
    ext_routes: BTreeMap<Prefix, BTreeMap<usize, ExternalRoute>>,
    session_up: Vec<bool>,
    /// Model of what is installed on each switch: prefix → action. This is
    /// the compiled per-prefix flow cache the incremental recompute diffs
    /// against.
    installed: Vec<BTreeMap<Prefix, FlowAction>>,
    /// What was announced per session: prefix → AS path (the compiled
    /// announcement cache).
    adj_out: Vec<BTreeMap<Prefix, SharedPath>>,
    pending: Vec<(usize, Box<UpdateMsg>, Cause)>,
    /// Cause lineage of everything feeding the next recompute batch: one
    /// entry per buffered update or local trigger, deduplicated by parent
    /// event id at merge time. Dirty-prefix batching merges *sets* of
    /// causes — the ctrl_queue node records every parent so forensics can
    /// attribute the batch wait honestly.
    batch_causes: Vec<Cause>,
    /// Prefixes whose inputs changed since the last recompute.
    dirty: BTreeSet<Prefix>,
    /// Events that invalidate every prefix (switch-graph or session-set
    /// changes alter the shared inputs of all per-prefix computations).
    all_dirty: bool,
    recompute_armed: bool,
    counters: Counters,
    /// Reusable Dijkstra/BFS scratch across prefixes and recomputes.
    scratch: ComputeScratch,
    /// Reusable per-prefix computation output buffer.
    comp_buf: PrefixComputation,
    /// Reusable per-prefix announcement memo.
    memo: AnnounceMemo,
    /// The controller's end of the speaker channel: commands down, events
    /// and syncs up. Its epoch is the controller's channel epoch; 0 means
    /// unsynced (speaker lost), in which state no commands are issued
    /// until a Sync is adopted.
    chan: ChannelEnd,
    /// Switches whose [`OfMessage::TableReply`] is still outstanding during
    /// a resync. Recomputation is deferred until this reaches zero.
    table_syncs_pending: usize,
    /// Every prefix the controller has ever been told about, for the
    /// debug-build invariant that the dirty set never invents prefixes.
    #[cfg(debug_assertions)]
    ever_known: BTreeSet<Prefix>,
    _m: std::marker::PhantomData<fn() -> M>,
}

impl<M: SdnApp + BgpApp> IdrController<M> {
    /// Build the controller. Member prefixes start out announced.
    pub(crate) fn new(id: NodeId, cfg: ControllerConfig) -> Self {
        let n = cfg.members.len();
        let member_asns: Vec<Asn> = cfg.members.iter().map(|m| m.asn).collect();
        let owned = cfg
            .members
            .iter()
            .enumerate()
            .map(|(i, m)| (m.prefix, i))
            .collect();
        IdrController {
            sg: SwitchGraph::new(n, cfg.intra_links.clone()),
            member_asn_set: member_asns.iter().copied().collect(),
            member_asns,
            owned,
            ext_routes: BTreeMap::new(),
            session_up: vec![false; cfg.sessions.len()],
            installed: vec![BTreeMap::new(); n],
            adj_out: vec![BTreeMap::new(); cfg.sessions.len()],
            pending: Vec::new(),
            batch_causes: Vec::new(),
            dirty: BTreeSet::new(),
            all_dirty: true, // nothing is compiled yet
            recompute_armed: false,
            counters: Counters::default(),
            scratch: ComputeScratch::default(),
            comp_buf: PrefixComputation::default(),
            memo: AnnounceMemo::default(),
            chan: ChannelEnd::new(Some(cfg.speaker_link), true, [RETX, HEARTBEAT, HOLD]),
            table_syncs_pending: 0,
            #[cfg(debug_assertions)]
            ever_known: cfg.members.iter().map(|m| m.prefix).collect(),
            id,
            cfg,
            _m: std::marker::PhantomData,
        }
    }

    /// Replace the configuration before the simulation starts. The network
    /// builder constructs the controller node first (its node id is needed
    /// for control links) and injects the final wiring afterwards.
    pub(crate) fn set_config(&mut self, cfg: ControllerConfig) {
        assert_eq!(
            self.counters.get(Counter::Recomputes),
            0,
            "reconfigure only before start"
        );
        *self = IdrController::new(self.id, cfg);
    }

    // ------------------------------------------------------------------
    // Inspection API
    // ------------------------------------------------------------------

    /// The counters the benchmark harness reads.
    pub fn stats(&self) -> ControllerStats {
        ControllerStats {
            recomputes: self.counters.get(Counter::Recomputes),
            prefixes_recomputed: self.counters.get(Counter::PrefixesRecomputed),
            prefixes_cached: self.counters.get(Counter::PrefixesCached),
        }
    }

    /// The live switch graph.
    pub fn switch_graph(&self) -> &SwitchGraph {
        &self.sg
    }

    /// Active cluster-originated prefixes.
    pub fn owned_prefixes(&self) -> impl Iterator<Item = (Prefix, usize)> + '_ {
        self.owned.iter().map(|(p, m)| (*p, *m))
    }

    /// Number of accepted external routes for a prefix.
    pub(crate) fn ext_route_count(&self, prefix: Prefix) -> usize {
        self.ext_routes.get(&prefix).map(|m| m.len()).unwrap_or(0)
    }

    /// The controller's current decision for a prefix (computed on demand
    /// from live state; what the last recompute compiled).
    // detlint: allow test-oracle read-only view hybrid_sim and proptest_controller check
    pub fn computation_for(&self, prefix: Prefix) -> PrefixComputation {
        let owner = self.owned.get(&prefix).copied();
        let (comp, comp_asns) = self.component_asns();
        let ext: Vec<ExternalRoute> = live_ext_routes(
            &self.ext_routes,
            &self.session_up,
            prefix,
            &comp,
            &comp_asns,
        )
        .cloned()
        .collect();
        compute(&self.sg, owner, &ext)
    }

    /// The flow action the controller believes is installed at a member.
    // detlint: allow test-oracle read-only view hybrid_sim and proptest_controller check
    pub fn installed_action(&self, member: usize, prefix: Prefix) -> Option<FlowAction> {
        self.installed[member].get(&prefix).copied()
    }

    /// The full compiled flow table the controller believes is installed at
    /// a member (the incremental recompute's per-prefix cache).
    // detlint: allow test-oracle read-only view the controller oracles check
    pub fn installed_table(&self, member: usize) -> &BTreeMap<Prefix, FlowAction> {
        &self.installed[member]
    }

    /// The full announcement state for a speaker session (prefix → AS path
    /// last instructed to the speaker).
    // detlint: allow test-oracle read-only view the controller oracles check
    pub fn adj_out_table(&self, session: usize) -> &BTreeMap<Prefix, SharedPath> {
        &self.adj_out[session]
    }

    /// Whether a speaker session is currently up from the controller's view.
    // detlint: allow test-oracle read-only view the controller oracles check
    pub fn session_is_up(&self, session: usize) -> bool {
        self.session_up[session]
    }

    /// Number of cluster members (bound for [`Self::installed_table`]).
    // detlint: allow test-oracle read-only view the controller oracles check
    pub fn member_count(&self) -> usize {
        self.cfg.members.len()
    }

    /// Number of speaker sessions (bound for [`Self::adj_out_table`]).
    // detlint: allow test-oracle read-only view the controller oracles check
    pub fn session_count(&self) -> usize {
        self.cfg.sessions.len()
    }

    /// Current control-channel epoch. 0 means unsynced: the speaker is
    /// considered lost and no commands are issued until it resyncs.
    // detlint: allow test-oracle read-only view the controller oracles check
    pub fn epoch(&self) -> u64 {
        self.chan.epoch()
    }

    /// Whether a resync is still waiting on switch table replies.
    // detlint: allow test-oracle read-only view the controller oracles check
    pub fn resync_pending(&self) -> bool {
        self.table_syncs_pending > 0
    }

    /// Record that a prefix is now known (debug-build bookkeeping for the
    /// dirty-set invariant checked at recompute time).
    #[inline]
    fn note_known(&mut self, _p: Prefix) {
        #[cfg(debug_assertions)]
        self.ever_known.insert(_p);
    }

    /// The current sub-cluster structure: component id per member plus the
    /// member-ASN set of each component. Shared by every per-prefix
    /// computation in a batch, so it is derived once per recompute.
    fn component_asns(&self) -> (Vec<usize>, Vec<BTreeSet<Asn>>) {
        let (comp, _) = self.sg.components();
        let mut comp_asns: Vec<BTreeSet<Asn>> = Vec::new();
        for (m, &c) in comp.iter().enumerate() {
            if comp_asns.len() <= c {
                comp_asns.resize_with(c + 1, BTreeSet::new);
            }
            comp_asns[c].insert(self.member_asns[m]);
        }
        (comp, comp_asns)
    }

    // ------------------------------------------------------------------
    // Event intake
    // ------------------------------------------------------------------

    fn buffer_update(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        session: usize,
        update: Box<UpdateMsg>,
        cause: Cause,
    ) {
        self.pending.push((session, update, cause));
        if !self.recompute_armed {
            self.recompute_armed = true;
            ctx.set_timer(self.cfg.recompute_delay, RECOMPUTE, TimerClass::Progress);
        }
    }

    fn apply_pending(&mut self, ctx: &mut Ctx<'_, M>) {
        let pending = std::mem::take(&mut self.pending);
        for (session, upd, cause) in pending {
            if !self.session_up[session] {
                continue; // session died while the update was buffered
            }
            if !cause.is_none() {
                self.batch_causes.push(cause);
            }
            for p in &upd.withdrawn {
                if let Some(slot) = self.ext_routes.get_mut(p) {
                    slot.remove(&session);
                    if slot.is_empty() {
                        self.ext_routes.remove(p);
                    }
                }
                self.note_known(*p);
                self.dirty.insert(*p);
            }
            if let Some(attrs) = &upd.attrs {
                // Intern the path once per UPDATE: every NLRI prefix (and
                // the downstream speaker command) shares the allocation.
                let path: SharedPath = attrs.as_path.flatten().into();
                // Count cluster-crossing paths for observability, but store
                // them regardless: whether such a path is usable depends on
                // the sub-cluster structure at computation time.
                if !accept_route(&path, &self.member_asn_set) {
                    ctx.count(Counter::RoutesRejectedLoop, upd.nlri.len() as u64);
                }
                for p in &upd.nlri {
                    self.note_known(*p);
                    self.ext_routes.entry(*p).or_default().insert(
                        session,
                        ExternalRoute {
                            session,
                            member: self.cfg.sessions[session].member,
                            as_path: path.clone(),
                            med: attrs.med,
                        },
                    );
                    self.dirty.insert(*p);
                }
            }
        }
    }

    fn session_down(&mut self, ctx: &mut Ctx<'_, M>, session: usize) {
        if !self.session_up[session] {
            return;
        }
        self.session_up[session] = false;
        // No withdrawals toward a dead peer: just forget what it was told.
        self.adj_out[session].clear();
        // Only the prefixes that actually lost a route need recomputing —
        // the sub-cluster structure is untouched by a session loss.
        let dirty = &mut self.dirty;
        self.ext_routes.retain(|p, slot| {
            if slot.remove(&session).is_some() {
                dirty.insert(*p);
            }
            !slot.is_empty()
        });
        self.recompute_now(ctx, RecomputeTrigger::SessionDown);
    }

    fn recompute_now(&mut self, ctx: &mut Ctx<'_, M>, trigger: RecomputeTrigger) {
        self.apply_pending(ctx);
        self.recompute_all(ctx, trigger);
    }

    /// Mint a causal root for a convergence trigger that originates *at*
    /// the controller (operator command, link-status change) and enroll it
    /// in the next batch's cause set. No-op when causal tracing is off.
    fn mint_trigger(&mut self, ctx: &mut Ctx<'_, M>, prefix: Option<Prefix>) {
        let root = ctx.causal_root(prefix.map(Into::into));
        if !root.is_none() {
            self.batch_causes.push(root);
        }
    }

    // ------------------------------------------------------------------
    // The reliable speaker channel
    // ------------------------------------------------------------------

    fn handle_speaker_event(&mut self, ctx: &mut Ctx<'_, M>, ev: SpeakerEvent) {
        match ev {
            SpeakerEvent::Update {
                session,
                update,
                cause,
            } => {
                ctx.report(Activity::UpdateReceived);
                self.buffer_update(ctx, session, update, cause);
            }
            SpeakerEvent::SessionUp { session, .. } => {
                self.session_up[session] = true;
                // A new egress changes the announcement surface of every
                // prefix (it must receive the full table).
                self.all_dirty = true;
                self.recompute_now(ctx, RecomputeTrigger::SessionUp);
            }
            SpeakerEvent::SessionDown { session } => {
                self.session_down(ctx, session);
            }
        }
    }

    fn handle_ctrl(&mut self, ctx: &mut Ctx<'_, M>, msg: CtrlMsg) {
        // Anything from the speaker proves liveness.
        self.chan.arm_hold(ctx);
        match msg {
            CtrlMsg::Event { epoch, seq, event } => {
                // Ack, then deliver.
                if self.chan.accept(ctx, epoch, seq) {
                    self.chan.ack(ctx);
                    self.handle_speaker_event(ctx, event);
                }
            }
            CtrlMsg::Sync { epoch, state, .. } => {
                if self.chan.adopt_sync(ctx, epoch) {
                    self.apply_sync(ctx, epoch, &state);
                }
            }
            CtrlMsg::CmdAck { epoch, seq } => {
                // Invariant: epochs originate at the speaker and only move
                // forward; an ack can lag the current epoch (stale channel
                // incarnation) but never lead it.
                debug_assert!(
                    epoch <= self.chan.epoch(),
                    "CmdAck from future epoch {epoch} (current {})",
                    self.chan.epoch()
                );
                self.chan.on_ack(ctx, epoch, seq);
            }
            // Liveness only (handled by the arm_hold above). The speaker
            // resyncs on epoch mismatch from *our* heartbeats; the reverse
            // direction needs no action here.
            CtrlMsg::Heartbeat { .. } => {}
            // Controller-bound messages echoed back are ignored.
            CtrlMsg::Cmd { .. } | CtrlMsg::EventAck { .. } => {}
        }
    }

    /// Adopt a full-state snapshot from the speaker (the channel has just
    /// moved to its epoch): wipe everything learned through the old channel
    /// incarnation, rebuild sessions and external routes from the snapshot,
    /// and re-learn the switches' installed tables before recompiling (so
    /// the post-outage recompute diffs against what is *actually*
    /// installed, not against a stale model).
    fn apply_sync(&mut self, ctx: &mut Ctx<'_, M>, epoch: u64, state: &SpeakerSyncState) {
        self.pending.clear();
        self.batch_causes.clear();
        self.dirty.clear();
        self.ext_routes.clear();
        self.session_up = vec![false; self.cfg.sessions.len()];
        self.adj_out = vec![BTreeMap::new(); self.cfg.sessions.len()];
        let mut sessions = 0u32;
        let mut routes = 0u32;
        for (s, ss) in state.sessions.iter().enumerate() {
            if s >= self.cfg.sessions.len() {
                break;
            }
            self.session_up[s] = ss.established;
            if ss.established {
                sessions += 1;
            }
            let member = self.cfg.sessions[s].member;
            for (prefix, path, med) in &ss.adj_in {
                routes += 1;
                self.note_known(*prefix);
                self.ext_routes.entry(*prefix).or_default().insert(
                    s,
                    ExternalRoute {
                        session: s,
                        member,
                        as_path: path.clone(),
                        med: *med,
                    },
                );
            }
            // The speaker's adj-out is what external peers actually heard:
            // seed the announcement cache from it so the recompute only
            // sends real differences.
            for (prefix, path, _med) in &ss.adj_out {
                self.adj_out[s].insert(*prefix, path.clone());
            }
        }
        ctx.count(Counter::CtrlResyncs, 1);
        ctx.trace(TraceCategory::Ctrl, || TraceEvent::ControlResync {
            epoch,
            sessions,
            routes,
        });
        self.chan.ack(ctx);
        // Ask every switch for its live table; recomputation waits for the
        // replies (see the guard in `recompute_all`).
        self.installed = vec![BTreeMap::new(); self.cfg.members.len()];
        self.table_syncs_pending = self.cfg.members.len();
        for (m, mc) in self.cfg.members.iter().enumerate() {
            let msg = OfMessage::TableRequest { xid: m as u32 };
            ctx.send(mc.ctl_link, M::from_of(OfEnvelope::new(&msg)));
        }
        self.all_dirty = true;
        if self.table_syncs_pending == 0 {
            // Degenerate memberless config: nothing to wait for.
            self.recompute_now(ctx, RecomputeTrigger::Resync);
        }
    }

    // ------------------------------------------------------------------
    // The centralized route computation
    // ------------------------------------------------------------------

    /// One batched recomputation. Only the prefixes in the dirty set are
    /// re-derived; everything else keeps its cached compiled state
    /// (`installed` / `adj_out`). This is sound because one prefix's
    /// computation depends only on the switch graph, the session-up vector,
    /// its owner, and its own external routes — any event touching the
    /// shared inputs sets `all_dirty`, and per-prefix input changes mark
    /// that prefix. A clean prefix would therefore diff to zero messages;
    /// skipping it is observationally identical to the full sweep.
    fn recompute_all(&mut self, ctx: &mut Ctx<'_, M>, trigger: RecomputeTrigger) {
        if self.table_syncs_pending > 0 {
            // Mid-resync: the installed-state model is being re-learned from
            // the switches; recompiling against it now would emit bogus
            // diffs. Everything recompiles once the last TableReply lands.
            self.all_dirty = true;
            return;
        }
        ctx.count(Counter::Recomputes, 1);

        // Causal: merge the batch's cause *set* into one ctrl_queue node —
        // each parent edge spans that input's time parked in the delayed
        // batch — then a same-timestamp recompute node that every compiled
        // output (FlowMod, speaker command) descends from. The earliest
        // minted parent carries the trigger attribution.
        let mut batch = std::mem::take(&mut self.batch_causes);
        let mut out_cause = Cause::NONE;
        if !batch.is_empty() {
            batch.sort_by_key(|c| c.parent);
            batch.dedup_by_key(|c| c.parent);
            let first = batch[0];
            let qid = ctx.causal_id();
            if qid != 0 {
                let parents: Vec<u64> = batch.iter().map(|c| c.parent).collect();
                ctx.trace(TraceCategory::Causal, || TraceEvent::Causal {
                    id: qid,
                    parents,
                    trigger: first.trigger,
                    hop: first.hop + 1,
                    phase: CausalPhase::CtrlQueue,
                    prefix: None,
                });
                let queued = Cause {
                    trigger: first.trigger,
                    parent: qid,
                    hop: first.hop + 1,
                };
                let rphase = if matches!(trigger, RecomputeTrigger::Resync) {
                    CausalPhase::Resync
                } else {
                    CausalPhase::CtrlRecompute
                };
                out_cause = ctx.causal_edge(queued, rphase, None);
            }
        }
        let span = ctx.span();
        let (mut flow_mods, mut announcements, mut withdrawals) = (0u32, 0u32, 0u32);

        // Prefixes with live inputs (owned or externally routed).
        let tracked = self.owned.len()
            + self
                .ext_routes
                .keys()
                .filter(|p| !self.owned.contains_key(p))
                .count();

        let full = std::mem::take(&mut self.all_dirty);
        let mut dirty = std::mem::take(&mut self.dirty);
        // Invariant: the dirty set never invents prefixes — everything in
        // it was learned through an update, a sync, or an origination.
        #[cfg(debug_assertions)]
        debug_assert!(
            dirty.iter().all(|p| self.ever_known.contains(p)),
            "dirty set contains a never-known prefix"
        );
        if full {
            // Everything with live inputs, plus anything still compiled
            // from earlier state (so stale entries get torn down).
            dirty.extend(self.owned.keys().copied());
            dirty.extend(self.ext_routes.keys().copied());
            for table in &self.installed {
                dirty.extend(table.keys().copied());
            }
            for table in &self.adj_out {
                dirty.extend(table.keys().copied());
            }
        }

        let n = self.cfg.members.len();
        // Sub-cluster structure is shared by every prefix: derive it once
        // per batch, not once per prefix.
        let (comp_of, comp_asns) = self.component_asns();
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut comp = std::mem::take(&mut self.comp_buf);
        let mut memo = std::mem::take(&mut self.memo);
        // Borrowed from `ext_routes`, which the loop below never touches.
        let mut ext: Vec<&ExternalRoute> = Vec::new();

        // While unsynced (epoch 0) the speaker is unreachable: keep driving
        // the switches (fail-static repair still works through the OF
        // channel) but leave the announcement cache untouched — the next
        // Sync reseeds it from the speaker's real adj-out and the resync
        // recompute emits the catch-up diffs.
        let speaker_reachable = self.chan.epoch() != 0;
        let mut out_cmds: Vec<SpeakerCmd> = Vec::new();
        let mut changed_any = false;
        for &prefix in &dirty {
            let owner = self.owned.get(&prefix).copied();
            ext.clear();
            ext.extend(live_ext_routes(
                &self.ext_routes,
                &self.session_up,
                prefix,
                &comp_of,
                &comp_asns,
            ));
            compute_into(&self.sg, owner, &ext, &mut scratch, &mut comp);

            // Diff desired flow state against the compiled cache, member by
            // member. At most one FlowMod per (member, prefix): control
            // links are FIFO, so per-prefix emission order is immaterial.
            for (m, decision) in comp.decisions.iter().enumerate() {
                let desired = match *decision {
                    MemberDecision::Unreachable => None,
                    MemberDecision::Local => Some(FlowAction::Local),
                    MemberDecision::ViaMember(next) => self
                        .sg
                        .link_between(m, next)
                        .map(|link| FlowAction::Output(link.0)),
                    MemberDecision::Egress(s) => {
                        debug_assert_eq!(self.cfg.sessions[s].member, m);
                        Some(FlowAction::Output(self.cfg.sessions[s].ext_link.0))
                    }
                };
                let (op, rule_action) = match desired {
                    Some(action) => {
                        if self.installed[m].insert(prefix, action) == Some(action) {
                            continue; // cache hit: already compiled
                        }
                        (FlowModOp::Add, action)
                    }
                    None => {
                        if self.installed[m].remove(&prefix).is_none() {
                            continue; // nothing installed to tear down
                        }
                        (FlowModOp::Delete, FlowAction::Drop)
                    }
                };
                flow_mods += 1;
                changed_any = true;
                let msg = OfMessage::FlowMod {
                    op,
                    rule: FlowRule {
                        priority: FLOW_PRIORITY,
                        prefix,
                        action: rule_action,
                        cookie: 0,
                    },
                };
                ctx.send(
                    self.cfg.members[m].ctl_link,
                    M::from_of(OfEnvelope::with_cause(&msg, out_cause)),
                );
            }

            // Diff desired announcements against the per-session cache.
            if !speaker_reachable {
                continue;
            }
            memo.reset(n);
            for (s, scfg) in self.cfg.sessions.iter().enumerate() {
                let x = scfg.member;
                let desired = if self.session_up[s] {
                    memo.path_toward(x, s, scfg.ext_asn, &comp, &ext, &self.member_asns)
                } else {
                    None
                };
                match desired {
                    Some(path) => {
                        if self.adj_out[s]
                            .get(&prefix)
                            .is_some_and(|old| **old == *path)
                        {
                            continue;
                        }
                        // Allocated once per member: every session of `x`
                        // announcing in this batch shares the handle.
                        let path = memo.shared(x);
                        self.adj_out[s].insert(prefix, path.clone());
                        announcements += 1;
                        changed_any = true;
                        out_cmds.push(SpeakerCmd::Announce {
                            session: s,
                            prefix,
                            as_path: path,
                            med: None,
                            cause: out_cause,
                        });
                    }
                    None => {
                        if self.adj_out[s].remove(&prefix).is_none() {
                            continue;
                        }
                        withdrawals += 1;
                        changed_any = true;
                        out_cmds.push(SpeakerCmd::Withdraw {
                            session: s,
                            prefix,
                            cause: out_cause,
                        });
                    }
                }
            }
        }
        debug_assert!(
            out_cmds.is_empty() || speaker_reachable,
            "no commands while unsynced"
        );
        self.chan
            .send_reliable(ctx, out_cmds, |epoch, seq, cmd| CtrlMsg::Cmd {
                epoch,
                seq,
                cmd,
            });
        self.scratch = scratch;
        self.comp_buf = comp;
        self.memo = memo;

        let recomputed = dirty.len() as u32;
        let cached = (tracked as u32).saturating_sub(recomputed);
        ctx.count(Counter::FlowModsSent, u64::from(flow_mods));
        ctx.count(Counter::Announcements, u64::from(announcements));
        ctx.count(Counter::Withdrawals, u64::from(withdrawals));
        ctx.count(Counter::PrefixesRecomputed, u64::from(recomputed));
        ctx.count(Counter::PrefixesCached, u64::from(cached));

        if changed_any {
            ctx.report(Activity::RibChange);
        }
        let wall_ns = ctx
            .end_span("core.controller.recompute_wall_ns", span)
            .unwrap_or(0);
        ctx.gauge("core.controller.ext_routes", self.ext_routes.len() as i64);
        let links_up = self.sg.links().iter().filter(|l| l.up).count() as u32;
        ctx.trace(TraceCategory::Route, || TraceEvent::ControllerRecompute {
            trigger,
            prefixes: tracked as u32,
            prefixes_recomputed: recomputed,
            prefixes_cached: cached,
            members: n as u32,
            links_up,
            flow_mods,
            announcements,
            withdrawals,
            wall_ns,
        });
    }

    fn handle_of(&mut self, ctx: &mut Ctx<'_, M>, env: &OfEnvelope) {
        let msg = match env.decode() {
            Ok(m) => m,
            Err(_) => return,
        };
        match msg {
            OfMessage::PortStatus { port, up } => {
                let link = LinkId(port);
                if self.sg.set_link_state(link, up) {
                    ctx.trace(TraceCategory::Link, || TraceEvent::LinkAdmin {
                        link: link.0,
                        up,
                    });
                    // The switch graph feeds every per-prefix computation:
                    // invalidate the lot.
                    self.all_dirty = true;
                    // An intra-cluster link change is its own convergence
                    // trigger: root a lineage before repairing.
                    self.mint_trigger(ctx, None);
                    // Failures must be repaired immediately; no delay.
                    self.recompute_now(ctx, RecomputeTrigger::LinkChange);
                    return;
                }
                // An external egress link: losing it kills that session's
                // routes right away (the BGP teardown would come much later).
                if !up {
                    let victims: Vec<usize> = self
                        .cfg
                        .sessions
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.ext_link == link)
                        .map(|(i, _)| i)
                        .collect();
                    if !victims.is_empty() {
                        self.mint_trigger(ctx, None);
                    }
                    for s in victims {
                        self.session_down(ctx, s);
                    }
                }
            }
            OfMessage::TableReply { xid, rules, ports } => {
                let m = xid as usize;
                if m >= self.cfg.members.len() {
                    return;
                }
                // Adopt the switch's live table as the compiled model for
                // this member (only our own rules; the priority filter
                // guards against foreign state).
                self.installed[m] = rules
                    .iter()
                    .filter(|r| r.priority == FLOW_PRIORITY)
                    .map(|r| (r.prefix, r.action))
                    .collect();
                // Reconcile link state that changed while we were away.
                for (port, up) in ports {
                    let link = LinkId(port);
                    if self.sg.set_link_state(link, up) {
                        self.all_dirty = true;
                    } else if !up {
                        let victims: Vec<usize> = self
                            .cfg
                            .sessions
                            .iter()
                            .enumerate()
                            .filter(|(_, s)| s.ext_link == link)
                            .map(|(i, _)| i)
                            .collect();
                        for s in victims {
                            self.session_down(ctx, s);
                        }
                    }
                }
                if self.table_syncs_pending > 0 {
                    self.table_syncs_pending -= 1;
                    if self.table_syncs_pending == 0 {
                        self.all_dirty = true;
                        self.recompute_now(ctx, RecomputeTrigger::Resync);
                    }
                }
            }
            // Hello and PacketIn are accepted silently: the IDR controller
            // programs proactively.
            _ => {}
        }
    }

    fn handle_command(&mut self, ctx: &mut Ctx<'_, M>, cmd: &RouterCommand) {
        match cmd {
            RouterCommand::Announce(p) => {
                // The owner is the member whose configured prefix covers it.
                let owner = self
                    .cfg
                    .members
                    .iter()
                    .position(|m| m.prefix.covers(*p) || m.prefix == *p);
                if let Some(m) = owner {
                    self.note_known(*p);
                    self.owned.insert(*p, m);
                    self.dirty.insert(*p);
                    self.mint_trigger(ctx, Some(*p));
                    self.recompute_now(ctx, RecomputeTrigger::Command);
                }
            }
            RouterCommand::Withdraw(p) => {
                if self.owned.remove(p).is_some() {
                    self.dirty.insert(*p);
                    self.mint_trigger(ctx, Some(*p));
                    self.recompute_now(ctx, RecomputeTrigger::Command);
                }
            }
            RouterCommand::ResetSession(_) | RouterCommand::RequestRefresh(_) => {}
        }
    }
}

/// Usable external routes for a prefix under the current sub-cluster
/// structure. Every stored route is kept; usability is decided here,
/// at computation time, because it depends on the *live* components:
/// a route whose AS_PATH contains a member of the session's own
/// sub-cluster would loop and is filtered (the paper's transformation
/// "taking carefully into account paths that cross the legacy world and
/// the SDN cluster so as to avoid loops"), while a path through a member
/// of a *different* sub-cluster is exactly how partitioned sub-clusters
/// reconnect over the legacy Internet (§2).
///
/// A free function over the fields it reads, so the recompute loop can hold
/// the borrowed routes while it updates the compiled caches.
fn live_ext_routes<'a>(
    ext_routes: &'a BTreeMap<Prefix, BTreeMap<usize, ExternalRoute>>,
    session_up: &'a [bool],
    prefix: Prefix,
    comp: &'a [usize],
    comp_asns: &'a [BTreeSet<Asn>],
) -> impl Iterator<Item = &'a ExternalRoute> {
    ext_routes
        .get(&prefix)
        .into_iter()
        .flat_map(BTreeMap::values)
        .filter(move |r| session_up[r.session])
        .filter(move |r| accept_route(&r.as_path, &comp_asns[comp[r.member]]))
}

impl<M: SdnApp + BgpApp> Node<M> for IdrController<M> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        // Compile the initial state (member prefixes) onto the switches.
        self.recompute_all(ctx, RecomputeTrigger::Startup);
        // Liveness toward the speaker: beat at once and forever, expect
        // beats back.
        self.chan.heartbeat(ctx);
        self.chan.arm_hold(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, M>) {
        // Crash-restart: the operator's intent (configured plus
        // runtime-announced prefixes) is the controller's only stable
        // storage. Everything learned — external routes, session states,
        // the installed-table model — is wiped and re-acquired from the
        // speaker's resync and the switches' table replies. The counters
        // are measurement, not state: they keep counting across the outage.
        let (owned, counters) = (std::mem::take(&mut self.owned), self.counters.clone());
        let cfg = self.cfg.clone();
        *self = IdrController::new(self.id, cfg);
        self.owned = owned;
        self.counters = counters;
        // Unsynced until the speaker pushes a fresh snapshot (it will: our
        // heartbeats carry epoch 0, which mismatches whatever it has).
        self.chan.reset(ctx, 0);
        self.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, _from: NodeId, link: LinkId, msg: M) {
        let msg = match msg.into_ctrl() {
            Ok(m) => {
                self.handle_ctrl(ctx, m);
                return;
            }
            Err(msg) => msg,
        };
        let msg = match msg.into_of() {
            Ok(env) => {
                self.handle_of(ctx, &env);
                return;
            }
            Err(msg) => msg,
        };
        if link.is_control() {
            if let Ok(cmd) = msg.into_command() {
                self.handle_command(ctx, &cmd);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, token: TimerToken) {
        if token == RECOMPUTE {
            self.recompute_armed = false;
            self.recompute_now(ctx, RecomputeTrigger::UpdateBatch);
        } else if token == RETX {
            self.chan.retransmit(ctx);
        } else if token == HEARTBEAT {
            self.chan.heartbeat(ctx);
        } else if token == HOLD && self.chan.epoch() != 0 {
            // Speaker lost: go unsynced. Outstanding commands are dropped
            // (the next Sync supersedes them); switch programming continues
            // headless through the OF channel. The speaker resyncs as soon
            // as it hears our epoch-0 heartbeats again.
            self.chan.reset(ctx, 0);
        }
    }

    fn on_link_change(&mut self, ctx: &mut Ctx<'_, M>, link: LinkId, up: bool) {
        // The speaker hears the probe, leaves headless mode, and resyncs in
        // the same event cascade.
        self.chan.on_link_change(ctx, link, up);
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
