//! The BGP router node — the framework's Quagga `bgpd` equivalent.
//!
//! One router emulates one AS (the paper's one-device-per-AS abstraction).
//! It runs a session with every configured neighbor through the session
//! driver ([`crate::session`]), maintains
//! Adj-RIB-In / Loc-RIB / Adj-RIB-Out, applies relationship policies and
//! route maps, paces advertisements with a jittered per-peer MRAI timer and
//! models per-UPDATE processing delay. All messages cross the simulated
//! links as real RFC 4271 wire bytes.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::marker::PhantomData;

use bgpsdn_netsim::{
    Activity, CausalPhase, Cause, Counter, Counters, Ctx, DataPacket, LinkId, Node, NodeId,
    ObsPrefix, PacketKind, SimDuration, SimTime, TimerClass, TimerToken, TraceCategory, TraceEvent,
};

use crate::attrs::{AttrTable, PathAttributes, SharedAttrs};
use crate::config::{NeighborConfig, RouterConfig};
use crate::decision::{self, Candidate};
use crate::envelope::{BgpApp, RouterCommand};
use crate::fsm::{CloseReason, SessionState};
use crate::inline::InlineVec;
use crate::msg::{BgpMessage, NotifCode, OpenMsg, PrefixList, UpdateMsg};
use crate::policy;
use crate::rib::{
    self, AdjRibIn, AdjRibOut, LocRib, LocRibEntry, PeerIdx, RibInEntry, RouteSource,
};
use crate::session::{tok, SessionConfig, SessionOwner, Sessions, FIRST_OWNER_KIND, KIND_BITS};
use crate::types::{Prefix, RouterId};

// Timer kinds beside the session driver's: K_MRAI and K_GRSTALE are named
// per-peer timers; the one-shot K_PROCESS takes the front of `in_queue`,
// the one-shot K_DAMP carries the prefix to reselect (`network << 8 | len`).
const K_MRAI: u64 = FIRST_OWNER_KIND;
const K_GRSTALE: u64 = FIRST_OWNER_KIND + 1;
const K_PROCESS: u64 = FIRST_OWNER_KIND + 2;
const K_DAMP: u64 = FIRST_OWNER_KIND + 3;

/// MRAI jitter window as fractions of the interval (RFC 4271 §9.2.1.1:
/// 0.75–1.0).
pub(crate) const MRAI_JITTER: (f64, f64) = (0.75, 1.0);

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

/// The router counters the benchmark harness reads, as one value; every
/// counter is [`Simulator::counter`](bgpsdn_netsim::Simulator::counter).
#[derive(Debug, Clone, Copy)]
pub struct RouterStats {
    /// UPDATE messages sent.
    pub updates_sent: u64,
    /// UPDATE messages received (before processing delay).
    pub updates_received: u64,
    /// Best-path changes in the Loc-RIB.
    pub best_path_changes: u64,
}

/// A queued outbound change for one peer and prefix.
#[derive(Debug, Clone)]
enum OutChange {
    Announce(SharedAttrs),
    Withdraw,
}

/// A queued change: the prefix, its Loc-RIB slot (the Adj-RIB-Out key) and
/// what to send.
type Pending = (Prefix, usize, OutChange);

/// Queue `change` for `prefix`, superseding an earlier one. The queue stays
/// prefix-sorted, which fixes the order UPDATEs leave in.
fn set_pending(pending: &mut Vec<Pending>, prefix: Prefix, slot: usize, change: OutChange) {
    match pending.binary_search_by_key(&prefix, |(p, _, _)| *p) {
        Ok(i) => pending[i].2 = change,
        Err(i) => pending.insert(i, (prefix, slot, change)),
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

/// A neighbor's routing state beside its session.
#[derive(Debug, Default)]
struct PeerRuntime {
    remote_router_id: RouterId,
    adj_out: AdjRibOut,
    /// Changes not yet sent, prefix-sorted; drained in place on every flush
    /// so the buffer is reused for the life of the session.
    pending: Vec<Pending>,
    mrai_armed: bool,
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

/// A BGP router attached to the simulator.
pub struct BgpRouter<M: BgpApp> {
    id: NodeId,
    cfg: RouterConfig,
    /// One session per neighbor, indexed like `peers` and `cfg.neighbors`.
    sessions: Sessions,
    peers: Vec<PeerRuntime>,
    adj_in: AdjRibIn,
    attr_table: AttrTable,
    loc_rib: LocRib,
    originated: BTreeSet<Prefix>,
    /// UPDATEs waiting out their processing delay, one K_PROCESS firing
    /// each. `last_proc_due` makes the due times strictly increasing, so the
    /// firings arrive in queue order and each takes the front.
    in_queue: VecDeque<(PeerIdx, UpdateMsg, Cause)>,
    last_proc_due: SimTime,
    causes: HashMap<Prefix, PrefixCause>,
    damping: HashMap<(PeerIdx, Prefix), crate::damping::DampingState>,
    /// Grouping buffer of `send_pending`, drained by every flush.
    groups: Vec<(SharedAttrs, PrefixList)>,
    counters: Counters,
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
            sessions: Sessions::default(),
            peers: Vec::with_capacity(neighbors.len()),
            adj_in: AdjRibIn::default(),
            attr_table: AttrTable::default(),
            loc_rib: LocRib::default(),
            originated,
            in_queue: VecDeque::new(),
            last_proc_due: SimTime::ZERO,
            causes: HashMap::new(),
            damping: HashMap::new(),
            groups: Vec::new(),
            counters: Counters::default(),
            _m: PhantomData,
        };
        for n in neighbors {
            router.add_neighbor(n);
        }
        router
    }

    /// Take the Adj-RIB-In's blocks from `table`, not a table of its own.
    pub fn with_attr_table(mut self, table: AttrTable) -> Self {
        self.attr_table = table;
        self
    }

    /// The table the Adj-RIB-In's attribute blocks come from.
    // detlint: allow test-oracle read-only view attr_table_sim checks every router shares
    pub fn attr_table(&self) -> &AttrTable {
        &self.attr_table
    }

    /// Add a neighbor after construction. Node and link ids only exist once
    /// the simulator topology is built, so framework builders construct
    /// routers bare and attach neighbors before the simulation starts.
    /// Must not be called on a running router.
    pub fn add_neighbor(&mut self, n: NeighborConfig) {
        self.sessions.add(SessionConfig {
            local: self.id,
            asn: self.cfg.asn,
            router_id: self.cfg.router_id,
            peer: n.peer,
            remote_asn: n.remote_asn,
            link: n.link,
            hold_secs: self.cfg.timing.hold_time_secs,
            graceful_restart_secs: self.cfg.timing.graceful_restart_secs,
            updates_sent: Counter::UpdatesSent,
        });
        self.peers.push(PeerRuntime::default());
        self.cfg.neighbors.push(n);
    }

    // ------------------------------------------------------------------
    // Inspection API (used by experiments, the collector and tests)
    // ------------------------------------------------------------------

    /// The configuration the router runs.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Mutable configuration access for pre-start tuning (route maps,
    /// per-neighbor knobs). Changing wiring-level fields (peers, links) on
    /// a running router is not supported.
    // detlint: allow test-oracle pre-start policy router_sim and static_analysis install
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

    /// The counters the benchmark harness reads.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            updates_sent: self.counters.get(Counter::UpdatesSent),
            updates_received: self.counters.get(Counter::UpdatesReceived),
            best_path_changes: self.counters.get(Counter::BestPathChanges),
        }
    }

    /// Prefixes this router currently originates.
    pub fn originated(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.originated.iter().copied()
    }

    /// Session state toward a logical peer.
    // detlint: allow test-oracle read-only view the session tests check
    pub fn session_state(&self, peer: NodeId) -> Option<SessionState> {
        self.sessions
            .find(self.id, peer)
            .map(|i| self.sessions.state(i))
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
        let slot = self.loc_rib.slot(prefix)?;
        self.peers[self.sessions.find(self.id, peer)?]
            .adj_out
            .get(slot)
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

    /// Queue the whole Loc-RIB toward one peer (initial table sync, ROUTE
    /// REFRESH) and flush.
    fn export_table(&mut self, ctx: &mut Ctx<'_, M>, peer: PeerIdx) {
        for (p, slot, best) in self.loc_rib.entries() {
            Self::enqueue_export(
                &self.cfg,
                &mut self.peers[peer],
                peer,
                (p, slot),
                Some(best),
                &mut None,
            );
        }
        self.maybe_flush(ctx, peer);
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
            if suppressed_count > 0 {
                ctx.count(Counter::DampedSuppressed, suppressed_count);
            }
            if let Some(eta) = earliest_reuse {
                let payload = u64::from(prefix.network_u32()) << 8 | u64::from(prefix.len());
                ctx.schedule_timer(
                    now + eta + SimDuration::from_millis(1),
                    tok(K_DAMP, payload as usize),
                    TimerClass::Progress,
                );
            }
            selected
        };

        let changed = self.loc_rib.select(prefix, new_entry);
        if let Some(slot) = changed {
            ctx.report(Activity::RibChange);
            ctx.count(Counter::BestPathChanges, 1);
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
                if self.sessions.is_established(peer) {
                    Self::enqueue_export(&self.cfg, rt, peer, (prefix, slot), best, &mut view);
                }
            }
        }
        changed.is_some()
    }

    /// Compute the desired advertisement of `prefix` (at Loc-RIB `slot`)
    /// toward Established `peer` (whose runtime is `rt`), given the prefix's
    /// Loc-RIB entry `best`, and queue the delta. `view` caches the prefix's
    /// export view across the peers of one fan-out: it is built for the
    /// first peer the route may go to and every later peer gets the same
    /// handle.
    fn enqueue_export(
        cfg: &RouterConfig,
        rt: &mut PeerRuntime,
        peer: PeerIdx,
        (prefix, slot): (Prefix, usize),
        best: Option<&LocRibEntry>,
        view: &mut Option<SharedAttrs>,
    ) {
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
        set_pending(&mut rt.pending, prefix, slot, change);
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
        if !self.sessions.is_established(peer) || self.peers[peer].pending.is_empty() {
            return;
        }
        if self.peers[peer].mrai_armed {
            // Explicit withdrawals bypass the advertisement interval.
            let PeerRuntime {
                pending, adj_out, ..
            } = &mut self.peers[peer];
            let mut really = PrefixList::new();
            pending.retain(|(p, slot, change)| {
                let withdraw = matches!(change, OutChange::Withdraw);
                if withdraw && adj_out.withdraw(*slot) {
                    really.push(*p);
                }
                !withdraw
            });
            if !really.is_empty() {
                let cause = self.update_cause(ctx, &really);
                let msg = BgpMessage::Update(UpdateMsg::withdraw(really));
                self.sessions.send(ctx, peer, &msg, cause);
            }
            return;
        }
        let sent = self.send_pending(ctx, peer);
        let mrai = effective_mrai(&self.cfg.neighbors[peer], self.cfg.timing.mrai);
        if sent && !mrai.is_zero() {
            self.peers[peer].mrai_armed = true;
            let (lo, hi) = MRAI_JITTER;
            let delay = ctx.rng().jittered(mrai, lo, hi);
            ctx.set_timer(delay, tok(K_MRAI, peer), TimerClass::Progress);
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
        for (prefix, slot, change) in pending.drain(..) {
            match change {
                OutChange::Withdraw => {
                    if adj_out.withdraw(slot) {
                        withdraws.push(prefix);
                    }
                }
                OutChange::Announce(attrs) => {
                    if adj_out.advertise(slot, attrs.clone()) {
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
            self.sessions.send(ctx, peer, &msg, cause);
            sent = true;
        }
        for (attrs, prefixes) in groups.drain(..) {
            let cause = self.update_cause(ctx, &prefixes);
            let msg = BgpMessage::Update(UpdateMsg::announce(prefixes, attrs));
            self.sessions.send(ctx, peer, &msg, cause);
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
        if !self.sessions.is_established(peer) {
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
                        ctx.count(Counter::LoopRejected, 1);
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
                            attrs: self.attr_table.intern(final_attrs),
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
                ctx.count(Counter::MaxPrefixTeardowns, 1);
                ctx.trace(TraceCategory::Session, || TraceEvent::Note {
                    category: TraceCategory::Session,
                    text: format!("max-prefix limit {limit} exceeded; tearing session down"),
                });
                self.close_session(ctx, peer, CloseReason::AdminReset, Some(NotifCode::Cease));
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
                if let Some(i) = self.sessions.find(self.id, *peer_node) {
                    self.close_session(ctx, i, CloseReason::AdminReset, Some(NotifCode::Cease));
                }
            }
            RouterCommand::RequestRefresh(peer_node) => {
                if let Some(i) = self.sessions.find(self.id, *peer_node) {
                    if self.sessions.is_established(i) {
                        let refresh = BgpMessage::RouteRefresh { afi: 1, safi: 1 };
                        self.sessions.send(ctx, i, &refresh, Cause::NONE);
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
            ctx.count(Counter::DataDelivered, 1);
            if pkt.kind == PacketKind::EchoRequest {
                ctx.count(Counter::EchoReplies, 1);
                let reply = pkt.reply_to();
                self.route_packet_out(ctx, reply);
            }
            return;
        }
        match pkt.decrement_ttl() {
            Some(fwd) => self.route_packet_out(ctx, fwd),
            None => {
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
                    ctx.count(Counter::DataDelivered, 1);
                }
                RouteSource::Peer(i) => {
                    let link = self.cfg.neighbors[i].link;
                    ctx.count(Counter::DataForwarded, 1);
                    ctx.send(link, M::from_data(pkt));
                }
            },
            None => {
                ctx.count(Counter::NoRoute, 1);
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
}

impl<M: BgpApp> SessionOwner<M> for BgpRouter<M> {
    fn sessions(&mut self) -> &mut Sessions {
        &mut self.sessions
    }

    /// Queue an accepted UPDATE behind the modelled CPU processing delay
    /// (FIFO per router), minting the link-propagation causal edge.
    fn on_update(&mut self, ctx: &mut Ctx<'_, M>, peer: PeerIdx, upd: UpdateMsg, cause: Cause) {
        ctx.count(Counter::UpdatesReceived, 1);
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

    /// RFC 2918: re-send the full Adj-RIB-Out on this session.
    fn on_refresh(&mut self, ctx: &mut Ctx<'_, M>, peer: PeerIdx) {
        self.peers[peer].adj_out.clear();
        self.export_table(ctx, peer);
    }

    fn on_up(&mut self, ctx: &mut Ctx<'_, M>, peer: PeerIdx, open: &OpenMsg) {
        let rt = &mut self.peers[peer];
        rt.remote_router_id = open.router_id;
        // Capture the peer's GR capability now: the handshake forgets its
        // OPEN on reset, but the retention decision happens after the reset.
        rt.peer_gr_secs = open.graceful_restart_secs().unwrap_or(0);
        ctx.count(Counter::SessionsEstablished, 1);
        if rt.ever_established {
            ctx.count(Counter::SessionsReestablished, 1);
        } else {
            rt.ever_established = true;
        }
        // RFC 4724: the restarting peer is back inside the GR window. Mark
        // the resume instant — routes it re-announces from here on are
        // fresh; the K_GRSTALE timer flushes whatever stays older.
        if rt.gr_stale {
            rt.gr_resumed_at = Some(ctx.now());
            let peer_node = self.cfg.neighbors[peer].peer;
            ctx.trace(TraceCategory::Session, || TraceEvent::Note {
                category: TraceCategory::Session,
                text: format!("graceful restart: {peer_node} resumed inside GR window"),
            });
        }
        self.export_table(ctx, peer);
    }

    /// Tear down per-peer routing state after the session returned to Idle.
    fn on_down(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        peer: PeerIdx,
        reason: &CloseReason,
        was_established: bool,
    ) {
        self.peers[peer].pending.clear();
        self.peers[peer].adj_out.clear();
        self.peers[peer].mrai_armed = false;
        ctx.cancel_timer(tok(K_MRAI, peer));
        if !was_established {
            return;
        }
        ctx.count(Counter::SessionsDropped, 1);
        let peer_node = self.cfg.neighbors[peer].peer;
        // RFC 4724 graceful restart: a hold-timer expiry on a GR-negotiated
        // session means the peer is presumed restarting — retain its routes
        // as stale instead of flushing, and arm the restart-window timer to
        // flush whatever the peer doesn't re-announce in time. Any other
        // close reason (NOTIFICATION, link down, admin) is a deliberate
        // teardown and flushes immediately.
        let own_gr = self.cfg.timing.graceful_restart_secs;
        let peer_gr = self.peers[peer].peer_gr_secs;
        if matches!(reason, CloseReason::HoldExpired) && own_gr > 0 && peer_gr > 0 {
            let retained = self.adj_in.count_for_peer(peer) as u64;
            self.peers[peer].gr_stale = true;
            self.peers[peer].gr_resumed_at = None;
            ctx.count(Counter::StaleRetained, retained);
            let window = SimDuration::from_secs(own_gr.min(peer_gr) as u64);
            // Progress class: a pending stale flush is protocol work — the
            // run must not count as converged while stale routes linger.
            ctx.set_timer(window, tok(K_GRSTALE, peer), TimerClass::Progress);
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
            ctx.cancel_timer(tok(K_GRSTALE, peer));
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
        self.sessions.start(ctx);
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
        // Routers do not relay control traffic: an envelope for another
        // node matches no session.
        let msg = match msg.into_bgp() {
            Ok(env) => {
                self.receive_bgp(ctx, &env);
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
        if self.session_timer(ctx, token) {
            return;
        }
        let kind = token.0 & ((1 << KIND_BITS) - 1);
        let payload = token.0 >> KIND_BITS;
        let peer = payload as usize;
        match kind {
            K_MRAI => {
                self.peers[peer].mrai_armed = false;
                self.maybe_flush(ctx, peer);
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
    /// counters keep counting across the outage. Restart then behaves exactly
    /// like a cold start: reselect origins, stagger session bring-up, and
    /// re-advertise everything as sessions come back.
    fn on_restart(&mut self, ctx: &mut Ctx<'_, M>) {
        for peer in self.peers.iter_mut() {
            *peer = PeerRuntime {
                ever_established: peer.ever_established,
                ..PeerRuntime::default()
            };
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
