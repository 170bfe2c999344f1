//! The discrete-event simulator.
//!
//! [`Simulator`] owns the nodes, links, event queue, clock, RNG, trace and
//! statistics for one run. Nodes interact with the world only through the
//! [`Ctx`] passed to their callbacks; every effect they request on the world
//! (sends, timers) is buffered and applied by the engine after the callback
//! returns, in order, while measurements (counts, activity reports, trace
//! records) are recorded as they happen. Together with the seeded RNG and
//! the tie-breaking event queue this makes runs bit-for-bit reproducible.

use bgpsdn_obs::{CausalPhase, Cause, Counter, MetricsRegistry, ObsPrefix, TraceEvent, WallSpan};

use crate::event::{EventBody, EventQueue, PoolStats};
use crate::link::{LatencyModel, Link, LinkId};
use crate::node::{Message, Node, NodeId, TimerClass, TimerToken};
use crate::rng::SimRng;
use crate::stats::{Activity, ActivityBoard, Counters, SimStats};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceCategory};

/// Effects a node requests during a callback, applied afterwards by the
/// engine.
enum Action<M> {
    Send {
        link: LinkId,
        msg: M,
    },
    SetTimerAt {
        at: SimTime,
        token: TimerToken,
        class: TimerClass,
    },
    CancelTimer {
        token: TimerToken,
    },
    ScheduleTimer {
        at: SimTime,
        token: TimerToken,
        class: TimerClass,
    },
}

/// The world as one node sees it during a callback.
pub struct Ctx<'a, M: Message> {
    now: SimTime,
    me: NodeId,
    rng: &'a mut SimRng,
    links: &'a [Link],
    adjacency: &'a [Vec<(LinkId, NodeId)>],
    trace: &'a mut Trace,
    board: &'a mut ActivityBoard,
    profiling: bool,
    causal_enabled: bool,
    causal_seq: &'a mut u64,
    metrics: &'a mut MetricsRegistry,
    /// The node's counter row, if it keeps one.
    counters: Option<Counters>,
    actions: Vec<Action<M>>,
}

impl<'a, M: Message> Ctx<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's identifier.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The run's random stream. All randomness must come from here.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Queue `msg` for transmission on `link`. The message is silently
    /// dropped if the link is down when the send is applied or when the
    /// delivery would occur.
    pub fn send(&mut self, link: LinkId, msg: M) {
        self.actions.push(Action::Send { link, msg });
    }

    /// Arm (or re-arm) the *named* timer `token` to fire after `delay`: at
    /// most one firing per token is live, a later arm or
    /// [`cancel_timer`](Self::cancel_timer) supersedes it. The simulator
    /// indexes a per-node table by the token's value, so named tokens are
    /// small dense integers, below [`NAMED_TIMER_TOKENS`].
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken, class: TimerClass) {
        self.set_timer_at(self.now + delay, token, class);
    }

    /// [`set_timer`](Self::set_timer) with an absolute firing time.
    pub(crate) fn set_timer_at(&mut self, at: SimTime, token: TimerToken, class: TimerClass) {
        self.actions.push(Action::SetTimerAt { at, token, class });
    }

    /// Cancel the named timer `token` (no-op if not armed).
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.actions.push(Action::CancelTimer { token });
    }

    /// Schedule a *one-shot* firing: `on_timer(token)` runs exactly once at
    /// `max(at, now)` unless this node crashes first. Any number may be
    /// outstanding for one token and `token` may be any value; a one-shot
    /// cannot be re-armed or cancelled, and in exchange it is never looked
    /// up anywhere — the queued event carries all there is to know.
    pub fn schedule_timer(&mut self, at: SimTime, token: TimerToken, class: TimerClass) {
        self.actions
            .push(Action::ScheduleTimer { at, token, class });
    }

    /// Report semantic routing-plane activity to the measurement board.
    pub fn report(&mut self, kind: Activity) {
        self.board.report(self.now, kind);
    }

    /// Record a typed trace event. The closure runs only when `category` is
    /// enabled, so hot paths pay one mask test when tracing is off. The
    /// event's own category must match `category` (debug-asserted).
    pub fn trace(&mut self, category: TraceCategory, event: impl FnOnce() -> TraceEvent) {
        self.trace.record(self.now, Some(self.me), category, event);
    }

    /// True when `category` is being traced: the gate for work whose only
    /// consumer is a trace record (inputs a [`Ctx::trace`] closure cannot
    /// compute by itself because they predate a state change).
    pub fn tracing(&self, category: TraceCategory) -> bool {
        self.trace.is_enabled(category)
    }

    /// Add `delta` to this node's counter `id`, and to the registry's
    /// open phase when `id` is exported.
    pub fn count(&mut self, id: Counter, delta: u64) {
        if let Some(row) = &self.counters {
            row.add(id, delta);
        }
        self.metrics.count(Some(self.me.0), id, delta);
    }

    /// Set this node's gauge `name`.
    pub fn gauge(&mut self, name: &'static str, value: i64) {
        self.metrics.gauge(Some(self.me.0), name, value);
    }

    /// Start a wall-clock span; no-op (and no clock read) unless the
    /// simulator has profiling enabled. Close with [`Ctx::end_span`].
    #[inline]
    pub fn span(&self) -> WallSpan {
        WallSpan::start(self.profiling)
    }

    /// Record the elapsed wall time of `span` into histogram `name`, if the
    /// span was started with profiling enabled. Returns the sample.
    #[inline]
    pub fn end_span(&mut self, name: &'static str, span: WallSpan) -> Option<u64> {
        let ns = span.elapsed_ns()?;
        self.metrics.observe(Some(self.me.0), name, ns);
        Some(ns)
    }

    /// Mint a fresh causal event id, unique and monotone across the run,
    /// or 0 when causal tracing is disabled (apps must treat 0 as "no
    /// lineage"). Ids never influence simulation behavior, so runs with
    /// tracing on and off stay identical in sim time.
    pub fn causal_id(&mut self) -> u64 {
        if !self.causal_enabled {
            return 0;
        }
        *self.causal_seq += 1;
        *self.causal_seq
    }

    /// Record a trigger root (a convergence trigger with no parent) and
    /// return the lineage its consequences carry; [`Cause::NONE`], with no
    /// id drawn, while causal tracing is off.
    #[inline]
    pub fn causal_root(&mut self, prefix: Option<ObsPrefix>) -> Cause {
        let id = self.causal_id();
        if id == 0 {
            return Cause::NONE;
        }
        self.trace(TraceCategory::Causal, || TraceEvent::Causal {
            id,
            parents: vec![],
            trigger: id,
            hop: 0,
            phase: CausalPhase::Trigger,
            prefix,
        });
        Cause {
            trigger: id,
            parent: id,
            hop: 0,
        }
    }

    /// Record the `phase` edge that closes here on the lineage `from` and
    /// return the lineage stepped past it; [`Cause::NONE`], with no id
    /// drawn, when `from` carries none or causal tracing is off. Merge
    /// points with more than one parent call [`Ctx::causal_id`] themselves.
    #[inline]
    pub fn causal_edge(
        &mut self,
        from: Cause,
        phase: CausalPhase,
        prefix: Option<ObsPrefix>,
    ) -> Cause {
        if from.is_none() {
            return Cause::NONE;
        }
        let id = self.causal_id();
        if id == 0 {
            return Cause::NONE;
        }
        self.trace(TraceCategory::Causal, || TraceEvent::Causal {
            id,
            parents: vec![from.parent],
            trigger: from.trigger,
            hop: from.hop + 1,
            phase,
            prefix,
        });
        from.step(id)
    }

    /// The links adjacent to this node, with the neighbor at the far end.
    pub fn neighbors(&self) -> &[(LinkId, NodeId)] {
        &self.adjacency[self.me.index()]
    }

    /// Whether `id` is operationally up.
    pub fn link_up(&self, id: LinkId) -> bool {
        self.links[id.index()].up
    }
}

/// Exclusive bound on the token value of a *named* timer
/// ([`Ctx::set_timer`], [`Ctx::cancel_timer`]). A node's named timers index
/// a dense per-node row, so their tokens pack small: `peer << 3 | kind`
/// leaves room for 131 072 peers with eight kinds of timer each. One-shot
/// tokens ([`Ctx::schedule_timer`]) are not bounded.
pub const NAMED_TIMER_TOKENS: u64 = 1 << 20;

/// Hard cap on events per `run_*` call, against livelock.
const MAX_EVENTS_PER_RUN: u64 = 200_000_000;

/// Generation bookkeeping of one named timer.
#[derive(Clone, Default)]
struct TimerGen {
    /// Generation of the latest arm/cancel/crash; a firing with another is
    /// stale.
    gen: u64,
    /// Whether the firing carrying `gen` should still be delivered.
    armed: bool,
}

/// Row index of a named timer.
fn named_slot(token: TimerToken) -> usize {
    assert!(
        token.0 < NAMED_TIMER_TOKENS,
        "named timer token {} is not below NAMED_TIMER_TOKENS ({NAMED_TIMER_TOKENS}): \
         pack named tokens densely or use a one-shot",
        token.0
    );
    token.0 as usize
}

/// Result of [`Simulator::run_until_quiescent`].
#[derive(Debug, Clone, Copy)]
pub struct Quiescence {
    /// True when the run stopped because only maintenance events remained.
    pub quiescent: bool,
    /// Simulated time when the run stopped.
    pub time: SimTime,
    /// Events processed during this call.
    pub events: u64,
}

/// A deterministic discrete-event network simulator.
pub struct Simulator<M: Message> {
    now: SimTime,
    queue: EventQueue<M>,
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    node_names: Vec<String>,
    node_up: Vec<bool>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(LinkId, NodeId)>>,
    /// Named timers, by node then by token value: a row grows to the
    /// largest token its node ever armed and its entries persist, so
    /// generations only move forward.
    timers: Vec<Vec<TimerGen>>,
    /// How often each node has crashed. A one-shot firing carries the count
    /// it was scheduled under and is stale once the node has crashed since.
    crash_epochs: Vec<u64>,
    rng: SimRng,
    board: ActivityBoard,
    trace: Trace,
    metrics: MetricsRegistry,
    profiling: bool,
    causal_seq: u64,
    /// The simulator's own counter row: engine counts and run-wide facts.
    counters: Counters,
    started: bool,
    /// Reusable action buffer handed to each dispatched node: the per-event
    /// `Vec<Action>` allocation of the old hot loop becomes a single buffer
    /// recycled for the lifetime of the simulator.
    action_scratch: Vec<Action<M>>,
    /// `(time, seq)` of the last popped event; pops must strictly increase.
    last_event_key: (u64, u64),
}

impl<M: Message> Simulator<M> {
    /// An empty simulator with the given experiment seed and `events` slots
    /// of event-queue capacity pre-reserved (0 reserves none). Builders that
    /// know the node/link counts up front reserve, so the dispatch loop
    /// never reallocates the event slab.
    pub fn with_event_capacity(seed: u64, events: usize) -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(events),
            nodes: Vec::new(),
            node_names: Vec::new(),
            node_up: Vec::new(),
            links: Vec::new(),
            adjacency: Vec::new(),
            timers: Vec::new(),
            crash_epochs: Vec::new(),
            rng: SimRng::seed_from_u64(seed),
            board: ActivityBoard::default(),
            trace: Trace::default(),
            metrics: MetricsRegistry::default(),
            profiling: false,
            causal_seq: 0,
            counters: Counters::default(),
            started: false,
            action_scratch: Vec::with_capacity(16),
            last_event_key: (0, 0),
        }
    }

    /// Event-slab recycling counters since the start of the run.
    pub fn pool_stats(&self) -> PoolStats {
        self.queue.pool_stats()
    }

    /// Close the registry's phase: fold the pool counters accumulated since
    /// the last close in as `core.sim.events_pooled` / `core.sim.allocs_hot`
    /// deltas, so they land in phase snapshots (and from there in `bgpsdn
    /// report`), and hand the registry over, leaving an empty one.
    pub fn take_metrics(&mut self) -> MetricsRegistry {
        let cur = self.queue.pool_stats();
        // The simulator's row holds what was flushed so far. Zero deltas
        // are skipped so an idle flush leaves the registry untouched
        // (phase-close must stay idempotent).
        for (id, total) in [
            (Counter::EventsPooled, cur.events_pooled),
            (Counter::AllocsHot, cur.allocs_hot),
        ] {
            let delta = total - self.counters.get(id);
            if delta > 0 {
                self.count(id, delta);
            }
        }
        std::mem::take(&mut self.metrics)
    }

    /// Add a node. The builder receives the id the node will have, so nodes
    /// can store their own identity.
    pub fn add_node<N, F>(&mut self, name: impl Into<String>, build: F) -> NodeId
    where
        N: Node<M>,
        F: FnOnce(NodeId) -> N,
    {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(Box::new(build(id))));
        self.node_names.push(name.into());
        self.node_up.push(true);
        self.timers.push(Vec::new());
        self.crash_epochs.push(0);
        self.adjacency.push(Vec::new());
        if self.started {
            self.queue.push(self.now, EventBody::Start { node: id });
        }
        id
    }

    /// Connect two nodes with a link.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, latency: LatencyModel) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link::new(id, a, b, latency));
        self.adjacency[a.index()].push((id, b));
        self.adjacency[b.index()].push((id, a));
        id
    }

    /// Set the random per-message loss probability of a link.
    pub fn set_link_loss(&mut self, link: LinkId, loss: f64) {
        assert!((0.0..=1.0).contains(&loss));
        self.links[link.index()].loss = loss;
    }

    /// Schedule a change of a link's random loss probability at an absolute
    /// time, expressed in parts-per-million. Unlike [`Self::set_link_loss`]
    /// this goes through the event queue, so fault plans can pre-program
    /// keepalive-loss windows deterministically.
    pub fn schedule_link_loss(&mut self, at: SimTime, link: LinkId, loss_ppm: u32) {
        assert!(at >= self.now, "cannot schedule in the past");
        assert!(loss_ppm <= 1_000_000, "loss is a probability");
        self.queue.push(at, EventBody::LinkLoss { link, loss_ppm });
    }

    /// Administratively bring a link up or down right now.
    pub fn set_link_admin(&mut self, link: LinkId, up: bool) {
        self.schedule_link_admin(self.now, link, up);
    }

    /// Schedule a link state change at an absolute time.
    fn schedule_link_admin(&mut self, at: SimTime, link: LinkId, up: bool) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.queue.push(at, EventBody::LinkAdmin { link, up });
    }

    /// Administratively crash (`up = false`) or restore (`up = true`) a node
    /// right now. Crashing drops the node's pending timers and any message
    /// delivered to it while down; restoring invokes
    /// [`Node::on_restart`].
    pub fn set_node_admin(&mut self, node: NodeId, up: bool) {
        self.schedule_node_admin(self.now, node, up);
    }

    /// Schedule a node crash/restore at an absolute time.
    // detlint: allow test-oracle step proptest_timers drives against its reference
    pub fn schedule_node_admin(&mut self, at: SimTime, node: NodeId, up: bool) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.queue.push(at, EventBody::NodeAdmin { node, up });
    }

    /// Whether a node is administratively up (not crashed).
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.node_up[node.index()]
    }

    /// Deliver `msg` to `to` immediately, as driver input (the `link` seen by
    /// the node is [`LinkId::CONTROL`]).
    pub fn inject(&mut self, to: NodeId, msg: M) {
        self.inject_at(self.now, to, msg);
    }

    /// Deliver `msg` to `to` at an absolute time, as driver input.
    // detlint: allow test-oracle step proptest_timers drives against its reference
    pub fn inject_at(&mut self, at: SimTime, to: NodeId, msg: M) {
        assert!(at >= self.now, "cannot inject in the past");
        self.queue.push(
            at,
            EventBody::Deliver {
                link: LinkId::CONTROL,
                from: to,
                to,
                msg,
            },
        );
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The display name given to a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.index()]
    }

    /// Immutable view of a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// All links.
    // detlint: allow test-oracle read-only view the session and network tests find links by
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The semantic activity board (measurement surface).
    pub fn board(&self) -> &ActivityBoard {
        &self.board
    }

    /// Reset activity accounting, typically between experiment phases.
    pub fn reset_board(&mut self) {
        self.board.reset();
    }

    /// Engine statistics, read from the simulator's counter row.
    pub fn stats(&self) -> SimStats {
        let c = &self.counters;
        SimStats {
            events_processed: c.get(Counter::EventsProcessed),
            msgs_delivered: c.get(Counter::MsgsDelivered),
            msgs_dropped_link_down: c.get(Counter::MsgsDroppedLinkDown),
            msgs_dropped_loss: c.get(Counter::MsgsDroppedLoss),
            msgs_dropped_node_down: c.get(Counter::MsgsDroppedNodeDown),
            timers_fired: c.get(Counter::TimersFired),
            timers_stale: c.get(Counter::TimersStale),
            bytes_delivered: c.get(Counter::BytesDelivered),
        }
    }

    /// Add `delta` to the simulator's own counter `id`, and to the
    /// registry's open phase, attributed to no node, when `id` is exported.
    pub fn count(&mut self, id: Counter, delta: u64) {
        self.counters.add(id, delta);
        self.metrics.count(None, id, delta);
    }

    /// Counter `id` of `node` since the run began, or of the simulator
    /// itself for `None`; 0 for a node that keeps no counter row.
    pub fn counter(&self, node: impl Into<Option<NodeId>>, id: Counter) -> u64 {
        match node.into() {
            None => self.counters.get(id),
            Some(node) => self.nodes[node.index()]
                .as_ref()
                .and_then(|n| n.counters())
                .map_or(0, |c| c.get(id)),
        }
    }

    /// Trace buffer (enable categories before running).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Trace buffer, read-only.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The metrics registry, read-only.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Enable or disable wall-clock profiling spans. Off by default: spans
    /// then cost one branch and no clock read. Wall times never influence
    /// simulation behavior, so determinism is unaffected either way.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// Typed mutable access to a node between events, e.g. to reconfigure it
    /// or inspect its RIB. Panics if `T` is not the node's concrete type.
    pub fn with_node<T: 'static, R>(&mut self, id: NodeId, f: impl FnOnce(&mut T) -> R) -> R {
        let node = self.nodes[id.index()]
            .as_mut()
            .expect("node is being dispatched");
        let t = node
            .as_any_mut()
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()));
        f(t)
    }

    /// Typed shared access to a node.
    pub fn node_ref<T: 'static>(&self, id: NodeId) -> &T {
        self.nodes[id.index()]
            .as_ref()
            .expect("node is being dispatched")
            .as_any()
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()))
    }

    /// Schedule `on_start` for every node if not done yet. Called implicitly
    /// by the `run_*` methods.
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.queue.push(
                self.now,
                EventBody::Start {
                    node: NodeId(i as u32),
                },
            );
        }
    }

    /// Process a single event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let ev = match self.queue.pop() {
            Some(ev) => ev,
            None => return false,
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        // The queue contract: pops are strictly increasing in (time, seq).
        debug_assert!(
            self.counters.get(Counter::EventsProcessed) == 0
                || (ev.at.as_nanos(), ev.seq) > self.last_event_key,
            "event queue violated (time, seq) order"
        );
        self.last_event_key = (ev.at.as_nanos(), ev.seq);
        self.now = ev.at;
        self.count(Counter::EventsProcessed, 1);
        let span = WallSpan::start(self.profiling);
        let alive = self.step_body(ev.body);
        if let Some(ns) = span.elapsed_ns() {
            self.metrics
                .observe(None, "netsim.loop.dispatch_wall_ns", ns);
        }
        alive
    }

    fn step_body(&mut self, body: EventBody<M>) -> bool {
        match body {
            EventBody::Start { node } => {
                if self.node_up[node.index()] {
                    self.dispatch(node, |n, ctx| n.on_start(ctx));
                }
            }
            EventBody::Deliver {
                link,
                from,
                to,
                msg,
            } => {
                if !link.is_control() && !self.links[link.index()].up {
                    self.count(Counter::MsgsDroppedLinkDown, 1);
                    return true;
                }
                if !self.node_up[to.index()] {
                    self.count(Counter::MsgsDroppedNodeDown, 1);
                    return true;
                }
                self.count(Counter::MsgsDelivered, 1);
                self.count(Counter::BytesDelivered, msg.wire_len() as u64);
                self.dispatch(to, move |n, ctx| n.on_message(ctx, from, link, msg));
            }
            EventBody::Timer {
                node,
                token,
                gen,
                class: _,
            } => {
                let timer = &mut self.timers[node.index()][token.0 as usize];
                let current = timer.gen == gen && timer.armed;
                if current {
                    timer.armed = false;
                }
                self.fire_timer(node, token, current);
            }
            EventBody::OneShot {
                node,
                token,
                epoch,
                class: _,
            } => {
                let live = self.crash_epochs[node.index()] == epoch;
                self.fire_timer(node, token, live);
            }
            EventBody::LinkAdmin { link, up } => {
                let l = &mut self.links[link.index()];
                if l.up == up {
                    return true;
                }
                l.up = up;
                let (a, b) = (l.a, l.b);
                self.trace.record(self.now, None, TraceCategory::Link, || {
                    TraceEvent::LinkAdmin { link: link.0, up }
                });
                if self.node_up[a.index()] {
                    self.dispatch(a, |n, ctx| n.on_link_change(ctx, link, up));
                }
                if self.node_up[b.index()] {
                    self.dispatch(b, |n, ctx| n.on_link_change(ctx, link, up));
                }
            }
            EventBody::LinkLoss { link, loss_ppm } => {
                self.links[link.index()].loss = loss_ppm as f64 / 1e6;
                self.trace
                    .record(self.now, None, TraceCategory::Link, || TraceEvent::Note {
                        category: TraceCategory::Link,
                        text: format!("link {} loss set to {loss_ppm}ppm", link.0),
                    });
            }
            EventBody::NodeAdmin { node, up } => {
                if self.node_up[node.index()] == up {
                    return true;
                }
                self.node_up[node.index()] = up;
                self.trace
                    .record(self.now, Some(node), TraceCategory::Link, || {
                        TraceEvent::NodeAdmin { node: node.0, up }
                    });
                if up {
                    self.dispatch(node, |n, ctx| n.on_restart(ctx));
                } else {
                    // A crash loses every timer: bump the generations and the
                    // epoch so the queued firings arrive stale even if the
                    // node is restored and arms the same tokens again.
                    for timer in &mut self.timers[node.index()] {
                        timer.gen += 1;
                        timer.armed = false;
                    }
                    self.crash_epochs[node.index()] += 1;
                }
            }
        }
        true
    }

    /// Deliver a popped timer firing, or count it stale. A crash stales
    /// every firing of its node, so a live one finds the node up.
    fn fire_timer(&mut self, node: NodeId, token: TimerToken, live: bool) {
        if live {
            debug_assert!(self.node_up[node.index()], "live firing for crashed {node}");
            self.count(Counter::TimersFired, 1);
            self.dispatch(node, |n, ctx| n.on_timer(ctx, token));
        } else {
            self.count(Counter::TimersStale, 1);
        }
    }

    /// Run until the queue empties or simulated time would pass `deadline`.
    /// The clock is left at `deadline` (or later if an event landed exactly
    /// on it) so successive calls compose.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.ensure_started();
        let mut events = 0u64;
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
            events += 1;
            if events >= MAX_EVENTS_PER_RUN {
                panic!(
                    "run_until processed {events} events without reaching {deadline}: livelock?"
                );
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
        events
    }

    /// Run for a relative duration.
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let deadline = self.now + d;
        self.run_until(deadline)
    }

    /// Run until only maintenance events (keepalives, periodic probes)
    /// remain, or until `max` is reached.
    pub fn run_until_quiescent(&mut self, max: SimTime) -> Quiescence {
        self.ensure_started();
        let mut events = 0u64;
        loop {
            if self.queue.only_maintenance() {
                return Quiescence {
                    quiescent: true,
                    time: self.now,
                    events,
                };
            }
            let t = self.queue.peek_time().expect("progress events pending");
            if t > max {
                self.now = max;
                return Quiescence {
                    quiescent: false,
                    time: self.now,
                    events,
                };
            }
            self.step();
            events += 1;
            if events >= MAX_EVENTS_PER_RUN {
                return Quiescence {
                    quiescent: false,
                    time: self.now,
                    events,
                };
            }
        }
    }

    fn dispatch<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Node<M>, &mut Ctx<'_, M>),
    {
        let mut node = self.nodes[id.index()]
            .take()
            .unwrap_or_else(|| panic!("re-entrant dispatch on node {id}"));
        let causal_enabled = self.trace.is_enabled(TraceCategory::Causal);
        let mut ctx = Ctx {
            now: self.now,
            me: id,
            rng: &mut self.rng,
            links: &self.links,
            adjacency: &self.adjacency,
            trace: &mut self.trace,
            board: &mut self.board,
            profiling: self.profiling,
            causal_enabled,
            causal_seq: &mut self.causal_seq,
            metrics: &mut self.metrics,
            counters: node.counters().cloned(),
            actions: std::mem::take(&mut self.action_scratch),
        };
        f(node.as_mut(), &mut ctx);
        let mut actions = ctx.actions;
        self.nodes[id.index()] = Some(node);
        self.apply_actions(id, &mut actions);
        // Hand the (drained, still-allocated) buffer back for the next
        // dispatch; its capacity converges on the busiest callback's need.
        debug_assert!(actions.is_empty());
        self.action_scratch = actions;
    }

    fn apply_actions(&mut self, id: NodeId, actions: &mut Vec<Action<M>>) {
        for act in actions.drain(..) {
            match act {
                Action::Send { link, msg } => {
                    assert!(!link.is_control(), "cannot send on the control sentinel");
                    let l = &mut self.links[link.index()];
                    debug_assert!(id == l.a || id == l.b, "{id} sent on non-adjacent {link}");
                    if !l.up {
                        self.count(Counter::MsgsDroppedLinkDown, 1);
                        continue;
                    }
                    if l.loss > 0.0 && self.rng.chance(l.loss) {
                        self.count(Counter::MsgsDroppedLoss, 1);
                        continue;
                    }
                    let to = l.other(id);
                    let delay = l.latency.sample(&mut self.rng);
                    let dir = l.dir(id);
                    // FIFO per direction: never deliver before an earlier send.
                    let mut at = self.now + delay;
                    let floor = l.last_arrival[dir] + SimDuration::from_nanos(1);
                    if at < floor {
                        at = floor;
                    }
                    l.last_arrival[dir] = at;
                    self.queue.push(
                        at,
                        EventBody::Deliver {
                            link,
                            from: id,
                            to,
                            msg,
                        },
                    );
                }
                Action::SetTimerAt { at, token, class } => {
                    let slot = named_slot(token);
                    let row = &mut self.timers[id.index()];
                    if row.len() <= slot {
                        row.resize(slot + 1, TimerGen::default());
                    }
                    let timer = &mut row[slot];
                    timer.gen += 1;
                    timer.armed = true;
                    self.queue.push(
                        at.max(self.now),
                        EventBody::Timer {
                            node: id,
                            token,
                            class,
                            gen: timer.gen,
                        },
                    );
                }
                Action::CancelTimer { token } => {
                    if let Some(timer) = self.timers[id.index()].get_mut(named_slot(token)) {
                        timer.gen += 1;
                        timer.armed = false;
                    }
                }
                Action::ScheduleTimer { at, token, class } => {
                    self.queue.push(
                        at.max(self.now),
                        EventBody::OneShot {
                            node: id,
                            token,
                            class,
                            epoch: self.crash_epochs[id.index()],
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    #[derive(Debug, Clone)]
    enum TestMsg {
        Ping(u32),
        Pong(u32),
    }
    impl Message for TestMsg {
        fn wire_len(&self) -> usize {
            16
        }
    }

    /// Sends `Ping(i)` for i in 0..count on start; counts pongs.
    struct Pinger {
        count: u32,
        pongs: Vec<u32>,
        link: Option<LinkId>,
    }
    impl Node<TestMsg> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            let link = ctx.neighbors()[0].0;
            self.link = Some(link);
            for i in 0..self.count {
                ctx.send(link, TestMsg::Ping(i));
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, TestMsg>, _f: NodeId, _l: LinkId, m: TestMsg) {
            if let TestMsg::Pong(i) = m {
                self.pongs.push(i);
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Replies Pong(i) to every Ping(i).
    struct Ponger;
    impl Node<TestMsg> for Ponger {
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, _f: NodeId, l: LinkId, m: TestMsg) {
            if let TestMsg::Ping(i) = m {
                ctx.send(l, TestMsg::Pong(i));
                ctx.report(Activity::RibChange);
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn build(seed: u64, jitter_ms: u64, count: u32) -> (Simulator<TestMsg>, NodeId, LinkId) {
        let mut sim = Simulator::with_event_capacity(seed, 0);
        let a = sim.add_node("pinger", |_| Pinger {
            count,
            pongs: vec![],
            link: None,
        });
        let b = sim.add_node("ponger", |_| Ponger);
        let lat = if jitter_ms == 0 {
            LatencyModel::Fixed(SimDuration::from_millis(5))
        } else {
            LatencyModel::Jittered {
                base: SimDuration::from_millis(5),
                jitter: SimDuration::from_millis(jitter_ms),
            }
        };
        let l = sim.add_link(a, b, lat);
        (sim, a, l)
    }

    #[test]
    fn ping_pong_round_trip() {
        let (mut sim, a, _) = build(1, 0, 3);
        let q = sim.run_until_quiescent(SimTime::from_secs(10));
        assert!(q.quiescent);
        sim.with_node::<Pinger, _>(a, |p| {
            assert_eq!(p.pongs, vec![0, 1, 2]);
        });
        assert_eq!(sim.stats().msgs_delivered, 6);
        assert_eq!(sim.board().count(Activity::RibChange), 3);
        // 5ms out + 5ms back (plus FIFO nudges measured in ns)
        assert!(q.time >= SimTime::from_millis(10));
        assert!(q.time < SimTime::from_millis(11));
    }

    #[test]
    fn fifo_holds_under_jitter() {
        // Large jitter would reorder messages; FIFO clamping must prevent it.
        let (mut sim, a, _) = build(7, 50, 20);
        sim.run_until_quiescent(SimTime::from_secs(10));
        sim.with_node::<Pinger, _>(a, |p| {
            assert_eq!(p.pongs, (0..20).collect::<Vec<_>>());
        });
    }

    #[test]
    fn determinism_same_seed_same_run() {
        let (mut s1, _, _) = build(42, 10, 10);
        let (mut s2, _, _) = build(42, 10, 10);
        let q1 = s1.run_until_quiescent(SimTime::from_secs(10));
        let q2 = s2.run_until_quiescent(SimTime::from_secs(10));
        assert_eq!(q1.time, q2.time);
        assert_eq!(s1.stats().events_processed, s2.stats().events_processed);
    }

    #[test]
    fn different_seed_different_timing() {
        let (mut s1, _, _) = build(1, 40, 10);
        let (mut s2, _, _) = build(2, 40, 10);
        let q1 = s1.run_until_quiescent(SimTime::from_secs(10));
        let q2 = s2.run_until_quiescent(SimTime::from_secs(10));
        assert_ne!(q1.time, q2.time);
    }

    #[test]
    fn link_down_drops_messages() {
        let (mut sim, a, l) = build(3, 0, 5);
        sim.set_link_admin(l, false);
        let q = sim.run_until_quiescent(SimTime::from_secs(5));
        assert!(q.quiescent);
        sim.with_node::<Pinger, _>(a, |p| assert!(p.pongs.is_empty()));
        assert_eq!(sim.stats().msgs_dropped_link_down, 5);
    }

    #[test]
    fn in_flight_messages_lost_on_failure() {
        let (mut sim, a, l) = build(3, 0, 5);
        // Fail the link 1ms in: pings (sent at t=0, arriving t=5ms) die mid-flight.
        sim.schedule_link_admin(SimTime::from_millis(1), l, false);
        sim.run_until_quiescent(SimTime::from_secs(5));
        sim.with_node::<Pinger, _>(a, |p| assert!(p.pongs.is_empty()));
        assert_eq!(sim.stats().msgs_dropped_link_down, 5);
    }

    #[test]
    fn lossy_link_drops_some() {
        let (mut sim, a, l) = build(5, 0, 200);
        sim.set_link_loss(l, 0.5);
        sim.run_until_quiescent(SimTime::from_secs(30));
        sim.with_node::<Pinger, _>(a, |p| {
            assert!(p.pongs.len() < 150, "got {}", p.pongs.len());
            assert!(!p.pongs.is_empty());
        });
        assert!(sim.stats().msgs_dropped_loss > 50);
    }

    /// Node with one self-rearming maintenance timer and one progress timer.
    struct TimerNode {
        fired: Vec<&'static str>,
    }
    const KEEPALIVE: TimerToken = TimerToken(1);
    const WORK: TimerToken = TimerToken(2);
    impl Node<TestMsg> for TimerNode {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.set_timer(
                SimDuration::from_secs(1),
                KEEPALIVE,
                TimerClass::Maintenance,
            );
            ctx.set_timer(SimDuration::from_secs(3), WORK, TimerClass::Progress);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: NodeId, _: LinkId, _: TestMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, token: TimerToken) {
            if token == KEEPALIVE {
                self.fired.push("ka");
                ctx.set_timer(
                    SimDuration::from_secs(1),
                    KEEPALIVE,
                    TimerClass::Maintenance,
                );
            } else {
                self.fired.push("work");
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn quiescence_ignores_maintenance_timers() {
        let mut sim: Simulator<TestMsg> = Simulator::with_event_capacity(1, 0);
        let n = sim.add_node("t", |_| TimerNode { fired: vec![] });
        let q = sim.run_until_quiescent(SimTime::from_secs(100));
        assert!(q.quiescent);
        // Stops right after the WORK timer at t=3s even though keepalives
        // would fire forever.
        assert_eq!(q.time, SimTime::from_secs(3));
        sim.with_node::<TimerNode, _>(n, |t| {
            assert!(t.fired.contains(&"work"));
        });
    }

    /// Node that re-arms and cancels timers to exercise generation tracking.
    struct RearmNode {
        fired: u32,
    }
    impl Node<TestMsg> for RearmNode {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            // Arm, then immediately re-arm later: only the second may fire.
            ctx.set_timer(SimDuration::from_secs(1), WORK, TimerClass::Progress);
            ctx.set_timer(SimDuration::from_secs(2), WORK, TimerClass::Progress);
            // Arm and cancel: must never fire.
            ctx.set_timer(SimDuration::from_secs(1), KEEPALIVE, TimerClass::Progress);
            ctx.cancel_timer(KEEPALIVE);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: NodeId, _: LinkId, _: TestMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _token: TimerToken) {
            self.fired += 1;
            assert_eq!(ctx.now(), SimTime::from_secs(2));
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn timer_rearm_and_cancel() {
        let mut sim: Simulator<TestMsg> = Simulator::with_event_capacity(1, 0);
        let n = sim.add_node("r", |_| RearmNode { fired: 0 });
        let q = sim.run_until_quiescent(SimTime::from_secs(10));
        assert!(q.quiescent);
        sim.with_node::<RearmNode, _>(n, |r| assert_eq!(r.fired, 1));
        assert_eq!(sim.stats().timers_fired, 1);
        assert_eq!(sim.stats().timers_stale, 2);
    }

    /// Schedules a one-shot with a fresh token from every firing.
    struct OneShotNode {
        left: u64,
    }
    impl Node<TestMsg> for OneShotNode {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            self.on_timer(ctx, TimerToken(0));
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: NodeId, _: LinkId, _: TestMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, token: TimerToken) {
            if self.left > 0 {
                self.left -= 1;
                ctx.schedule_timer(
                    ctx.now() + SimDuration::from_millis(1),
                    TimerToken(token.0 + 1),
                    TimerClass::Progress,
                );
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn timer_table_is_bounded_by_armed_timers_not_tokens_ever_used() {
        let mut sim: Simulator<TestMsg> = Simulator::with_event_capacity(1, 0);
        let n = sim.add_node("o", |_| OneShotNode { left: 100_000 });
        while sim.step() {}
        assert_eq!(sim.stats().timers_fired, 100_000);
        assert_eq!(sim.stats().timers_stale, 0);
        assert!(
            sim.timers[n.index()].is_empty(),
            "a one-shot leaves no table entry, whatever its token"
        );
    }

    #[test]
    #[should_panic(expected = "NAMED_TIMER_TOKENS (1048576)")]
    fn a_named_token_past_the_bound_panics() {
        struct Sparse;
        impl Node<TestMsg> for Sparse {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.set_timer(
                    SimDuration::from_secs(1),
                    TimerToken(5 << 56),
                    TimerClass::Progress,
                );
            }
            fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: NodeId, _: LinkId, _: TestMsg) {}
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut sim: Simulator<TestMsg> = Simulator::with_event_capacity(1, 0);
        sim.add_node("s", |_| Sparse);
        sim.step();
    }

    /// Arms WORK for 3 s, re-arms it for 1 s, and from that firing re-arms
    /// it for 4 s later: the superseded 3 s firing is still queued while the
    /// timer fires and restarts.
    struct EarlierRearmNode {
        fired_at: Vec<SimTime>,
    }
    impl Node<TestMsg> for EarlierRearmNode {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.set_timer(SimDuration::from_secs(3), WORK, TimerClass::Progress);
            ctx.set_timer(SimDuration::from_secs(1), WORK, TimerClass::Progress);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: NodeId, _: LinkId, _: TestMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _: TimerToken) {
            self.fired_at.push(ctx.now());
            if self.fired_at.len() == 1 {
                ctx.set_timer(SimDuration::from_secs(4), WORK, TimerClass::Progress);
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn superseded_firing_stays_stale_after_the_timer_fired_and_restarted() {
        let mut sim: Simulator<TestMsg> = Simulator::with_event_capacity(1, 0);
        let n = sim.add_node("e", |_| EarlierRearmNode { fired_at: vec![] });
        let q = sim.run_until_quiescent(SimTime::from_secs(10));
        assert!(q.quiescent);
        sim.with_node::<EarlierRearmNode, _>(n, |e| {
            assert_eq!(
                e.fired_at,
                vec![SimTime::from_secs(1), SimTime::from_secs(5)],
                "the 3 s firing belongs to a superseded generation"
            );
        });
        assert_eq!(sim.stats().timers_stale, 1);
    }

    #[test]
    fn restore_before_a_dead_firing_pops_keeps_it_suppressed() {
        let mut sim: Simulator<TestMsg> = Simulator::with_event_capacity(1, 0);
        let n = sim.add_node("t", |_| TimerNode { fired: vec![] });
        // Crash at 1.5 s, restore at 2.5 s: the WORK firing armed at start is
        // still queued for 3 s when on_restart re-arms WORK for 5.5 s.
        sim.schedule_node_admin(SimTime::from_millis(1500), n, false);
        sim.schedule_node_admin(SimTime::from_millis(2500), n, true);
        let q = sim.run_until_quiescent(SimTime::from_secs(100));
        assert!(q.quiescent);
        assert_eq!(q.time, SimTime::from_millis(5500));
        sim.with_node::<TimerNode, _>(n, |t| {
            assert_eq!(t.fired.iter().filter(|f| **f == "work").count(), 1);
        });
        assert_eq!(
            sim.stats().timers_stale,
            2,
            "the keepalive and WORK of the crash"
        );
        // Only the keepalive stays armed: due at 5.5 s and every second on.
        let fired = sim.stats().timers_fired;
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(sim.stats().timers_fired - fired, 4);
        assert_eq!(sim.stats().timers_stale, 2);
    }

    #[test]
    fn inject_delivers_on_control_link() {
        struct Sink {
            got: Vec<(LinkId, u32)>,
        }
        impl Node<TestMsg> for Sink {
            fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: NodeId, l: LinkId, m: TestMsg) {
                if let TestMsg::Ping(i) = m {
                    self.got.push((l, i));
                }
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut sim: Simulator<TestMsg> = Simulator::with_event_capacity(1, 0);
        let n = sim.add_node("sink", |_| Sink { got: vec![] });
        sim.inject(n, TestMsg::Ping(9));
        sim.inject_at(SimTime::from_secs(1), n, TestMsg::Ping(10));
        sim.run_until_quiescent(SimTime::from_secs(5));
        sim.with_node::<Sink, _>(n, |s| {
            assert_eq!(s.got, vec![(LinkId::CONTROL, 9), (LinkId::CONTROL, 10)]);
        });
    }

    #[test]
    fn crashed_node_drops_deliveries() {
        let (mut sim, a, _) = build(3, 0, 5);
        let ponger = NodeId(1);
        sim.set_node_admin(ponger, false);
        let q = sim.run_until_quiescent(SimTime::from_secs(5));
        assert!(q.quiescent);
        assert!(!sim.node_is_up(ponger));
        sim.with_node::<Pinger, _>(a, |p| assert!(p.pongs.is_empty()));
        assert_eq!(sim.stats().msgs_dropped_node_down, 5);
    }

    #[test]
    fn crash_invalidates_timers_and_restore_restarts() {
        let mut sim: Simulator<TestMsg> = Simulator::with_event_capacity(1, 0);
        let n = sim.add_node("t", |_| TimerNode { fired: vec![] });
        // Crash at 1.5s: the keepalive armed at 1s and the WORK timer armed
        // at start (due 3s) must both die with the node.
        sim.schedule_node_admin(SimTime::from_millis(1500), n, false);
        sim.run_until(SimTime::from_secs(5));
        sim.with_node::<TimerNode, _>(n, |t| {
            assert_eq!(t.fired, vec!["ka"], "only the pre-crash keepalive fires");
        });
        // Restore at 5s: the default on_restart re-runs on_start, so WORK
        // fires again 3s later.
        sim.set_node_admin(n, true);
        let q = sim.run_until_quiescent(SimTime::from_secs(100));
        assert!(q.quiescent);
        assert!(sim.node_is_up(n));
        assert_eq!(q.time, SimTime::from_secs(5 + 3));
        sim.with_node::<TimerNode, _>(n, |t| {
            assert_eq!(t.fired.iter().filter(|f| **f == "work").count(), 1);
        });
    }

    #[test]
    fn redundant_node_admin_is_a_no_op() {
        let mut sim: Simulator<TestMsg> = Simulator::with_event_capacity(1, 0);
        let n = sim.add_node("t", |_| TimerNode { fired: vec![] });
        sim.run_until(SimTime::from_secs(5));
        let fired_before = sim.stats().timers_fired;
        sim.set_node_admin(n, true); // already up
        sim.run_until(SimTime::from_secs(6));
        // No on_restart happened, so no new WORK timer was armed.
        sim.with_node::<TimerNode, _>(n, |t| {
            assert_eq!(t.fired.iter().filter(|f| **f == "work").count(), 1);
        });
        assert!(
            sim.stats().timers_fired > fired_before,
            "keepalives continue"
        );
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut sim: Simulator<TestMsg> = Simulator::with_event_capacity(1, 0);
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(sim.now(), SimTime::from_secs(4));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn node_added_after_start_gets_on_start() {
        let mut sim: Simulator<TestMsg> = Simulator::with_event_capacity(1, 0);
        sim.run_until(SimTime::from_secs(1));
        let n = sim.add_node("late", |_| TimerNode { fired: vec![] });
        sim.run_until_quiescent(SimTime::from_secs(100));
        sim.with_node::<TimerNode, _>(n, |t| assert!(t.fired.contains(&"work")));
    }

    #[test]
    fn names_and_counts() {
        let (sim, _, _) = build(1, 0, 1);
        assert_eq!(sim.node_count(), 2);
        assert_eq!(sim.links().len(), 1);
        assert_eq!(sim.node_name(NodeId(0)), "pinger");
    }

    /// Mints a root, an edge off an empty lineage and an edge off the
    /// root on start, keeping what each returned.
    struct Minter(Vec<Cause>);
    impl Node<TestMsg> for Minter {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            let root = ctx.causal_root(None);
            let stray = ctx.causal_edge(Cause::NONE, CausalPhase::LinkProp, None);
            let prefix = Some(ObsPrefix::new(0x0a00_0000, 8));
            let step = ctx.causal_edge(root, CausalPhase::MraiWait, prefix);
            self.0 = vec![root, stray, step];
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: NodeId, _: LinkId, _: TestMsg) {}
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn lineage_primitives_draw_ids_only_for_recorded_events() {
        for traced in [true, false] {
            let mut sim = Simulator::with_event_capacity(1, 0);
            if traced {
                sim.trace_mut().enable(TraceCategory::Causal);
            }
            let n = sim.add_node("minter", |_| Minter(Vec::new()));
            sim.run_until_quiescent(SimTime::from_secs(1));
            let causes = sim.with_node::<Minter, _>(n, |m| m.0.clone());
            let ids: Vec<u64> = sim
                .trace()
                .records()
                .map(|r| match &r.event {
                    TraceEvent::Causal { id, .. } => *id,
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            if !traced {
                assert_eq!(causes, vec![Cause::NONE; 3]);
                assert!(ids.is_empty());
                continue;
            }
            let root = Cause {
                trigger: 1,
                parent: 1,
                hop: 0,
            };
            // The empty lineage drew no id: the step off the root is id 2.
            assert_eq!(causes, vec![root, Cause::NONE, root.step(2)]);
            assert_eq!(ids, vec![1, 2]);
        }
    }
}
