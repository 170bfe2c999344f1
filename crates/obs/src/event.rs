//! Typed trace events.
//!
//! Every record the simulator traces is one of these variants — a
//! machine-readable fact, not a formatted string — so downstream consumers
//! (the collector's convergence detector, `bgpsdn report`, the bench
//! harness) analyze runs without parsing free text.
//!
//! The crate sits below `netsim`, so events use plain representations: node
//! ids are `u32`, prefixes are [`ObsPrefix`], AS paths are `Vec<u32>`.

use std::fmt;

use crate::json::{member_head, push_u64, JsonError, JsonReader, JsonWriter};

/// Category of a trace record, used for enable/disable filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCategory {
    /// Message sends and deliveries.
    Msg,
    /// Link state changes.
    Link,
    /// Routing decisions (best path changes, RIB operations).
    Route,
    /// Flow table operations.
    Flow,
    /// BGP session lifecycle.
    Session,
    /// Experiment lifecycle markers (scenario steps, phase boundaries).
    Experiment,
    /// Speaker↔controller control-channel protocol (acks, retransmits,
    /// headless transitions, resyncs).
    Ctrl,
    /// Causal lineage events: trigger roots and per-hop DAG nodes the
    /// forensics layer reconstructs convergence critical paths from.
    Causal,
}

impl TraceCategory {
    const COUNT: usize = 8;

    /// Bit for mask-based filtering (bit 1 is unused).
    pub fn bit(self) -> u16 {
        match self {
            TraceCategory::Msg => 1 << 0,
            TraceCategory::Link => 1 << 2,
            TraceCategory::Route => 1 << 3,
            TraceCategory::Flow => 1 << 4,
            TraceCategory::Session => 1 << 5,
            TraceCategory::Experiment => 1 << 6,
            TraceCategory::Ctrl => 1 << 7,
            TraceCategory::Causal => 1 << 8,
        }
    }

    /// All categories, for "enable everything".
    pub fn all() -> [TraceCategory; Self::COUNT] {
        [
            TraceCategory::Msg,
            TraceCategory::Link,
            TraceCategory::Route,
            TraceCategory::Flow,
            TraceCategory::Session,
            TraceCategory::Experiment,
            TraceCategory::Ctrl,
            TraceCategory::Causal,
        ]
    }

    /// Short lowercase name (stable; used in JSONL).
    pub fn name(self) -> &'static str {
        match self {
            TraceCategory::Msg => "msg",
            TraceCategory::Link => "link",
            TraceCategory::Route => "route",
            TraceCategory::Flow => "flow",
            TraceCategory::Session => "session",
            TraceCategory::Experiment => "exp",
            TraceCategory::Ctrl => "ctrl",
            TraceCategory::Causal => "causal",
        }
    }

    /// Inverse of [`TraceCategory::name`].
    pub fn from_name(name: &str) -> Option<TraceCategory> {
        TraceCategory::all().into_iter().find(|c| c.name() == name)
    }
}

/// An IPv4 prefix in the telemetry plane (`addr`/`len`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObsPrefix {
    /// Network address as a big-endian u32.
    pub addr: u32,
    /// Mask length, 0..=32.
    pub len: u8,
}

impl ObsPrefix {
    /// Construct, masking off host bits.
    pub fn new(addr: u32, len: u8) -> ObsPrefix {
        let len = len.min(32);
        let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
        ObsPrefix {
            addr: addr & mask,
            len,
        }
    }
}

impl fmt::Display for ObsPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.addr.to_be_bytes();
        write!(f, "{a}.{b}.{c}.{d}/{}", self.len)
    }
}

impl std::str::FromStr for ObsPrefix {
    type Err = String;

    fn from_str(s: &str) -> Result<ObsPrefix, String> {
        let (ip, len) = s
            .split_once('/')
            .ok_or_else(|| format!("no '/' in {s:?}"))?;
        let len: u8 = len
            .parse()
            .map_err(|_| format!("bad mask length in {s:?}"))?;
        if len > 32 {
            return Err(format!("mask length {len} > 32"));
        }
        let mut octets = [0u8; 4];
        let mut n = 0;
        for part in ip.split('.') {
            if n == 4 {
                return Err(format!("too many octets in {s:?}"));
            }
            octets[n] = part.parse().map_err(|_| format!("bad octet in {s:?}"))?;
            n += 1;
        }
        if n != 4 {
            return Err(format!("too few octets in {s:?}"));
        }
        Ok(ObsPrefix::new(u32::from_be_bytes(octets), len))
    }
}

/// Flow-rule action, mirrored from `bgpsdn_sdn::FlowAction` so this crate
/// stays dependency-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowActionRepr {
    /// Forward out a port (the peer node id in the emulation).
    Output(u32),
    /// Punt to the controller.
    ToController,
    /// Discard.
    Drop,
    /// Deliver locally.
    Local,
}

impl fmt::Display for FlowActionRepr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowActionRepr::Output(p) => write!(f, "output:{p}"),
            FlowActionRepr::ToController => f.write_str("controller"),
            FlowActionRepr::Drop => f.write_str("drop"),
            FlowActionRepr::Local => f.write_str("local"),
        }
    }
}

/// Inverse of the `Display` form (`output:N`, `controller`, `drop`,
/// `local`).
impl std::str::FromStr for FlowActionRepr {
    type Err = String;

    fn from_str(s: &str) -> Result<FlowActionRepr, String> {
        <FlowActionRepr as WireText>::parse(s).ok_or_else(|| format!("bad flow action {s:?}"))
    }
}

/// Why the controller recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecomputeTrigger {
    /// The delayed-update batch timer fired.
    UpdateBatch,
    /// An intra-cluster link changed state.
    LinkChange,
    /// An alias session came up.
    SessionUp,
    /// An alias session went down.
    SessionDown,
    /// An operator command (announce/withdraw).
    Command,
    /// Initial compilation at simulation start.
    Startup,
    /// A full-state resync after the control channel was re-established.
    Resync,
}

impl RecomputeTrigger {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            RecomputeTrigger::UpdateBatch => "update_batch",
            RecomputeTrigger::LinkChange => "link_change",
            RecomputeTrigger::SessionUp => "session_up",
            RecomputeTrigger::SessionDown => "session_down",
            RecomputeTrigger::Command => "command",
            RecomputeTrigger::Startup => "startup",
            RecomputeTrigger::Resync => "resync",
        }
    }

    fn from_name(name: &str) -> Option<RecomputeTrigger> {
        [
            RecomputeTrigger::UpdateBatch,
            RecomputeTrigger::LinkChange,
            RecomputeTrigger::SessionUp,
            RecomputeTrigger::SessionDown,
            RecomputeTrigger::Command,
            RecomputeTrigger::Startup,
            RecomputeTrigger::Resync,
        ]
        .into_iter()
        .find(|t| t.name() == name)
    }
}

/// Phase taxonomy for causal-DAG edges: the bucket the time between a
/// causal event and its parent is charged to. Each
/// [`TraceEvent::Causal`] node labels the edge *into* it, so walking a
/// critical path and summing `t_child - t_parent` per phase decomposes a
/// convergence transient into where the time actually went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CausalPhase {
    /// A trigger root (operator command, link failure, chaos action).
    /// Always zero-duration: it starts the clock.
    Trigger,
    /// Transit on a link (BGP update propagation, control-channel hop,
    /// controller→speaker command execution).
    LinkProp,
    /// Time parked in a router's inbound processing-delay queue.
    ProcDelay,
    /// A best-path change. For the second and later changes of the same
    /// `(node, prefix)` under one trigger the parent is the *previous*
    /// best-path change, so the edge spans one full path-hunting round
    /// (including any damping hold-down).
    HuntStep,
    /// Time an export sat in the MRAI hold-down before flushing.
    MraiWait,
    /// Controller-side wait: speaker→controller channel transit plus the
    /// dirty-prefix batch delay until recomputation ran.
    CtrlQueue,
    /// The recomputation itself (zero sim-time; kept for taxonomy
    /// completeness and event counting).
    CtrlRecompute,
    /// FlowMod transit and installation into a switch table.
    FlowInstall,
    /// Recomputation driven by a post-outage full-state resync.
    Resync,
}

impl CausalPhase {
    /// Every phase, in canonical rendering order.
    pub const ALL: [CausalPhase; 9] = [
        CausalPhase::Trigger,
        CausalPhase::LinkProp,
        CausalPhase::ProcDelay,
        CausalPhase::HuntStep,
        CausalPhase::MraiWait,
        CausalPhase::CtrlQueue,
        CausalPhase::CtrlRecompute,
        CausalPhase::FlowInstall,
        CausalPhase::Resync,
    ];

    /// Stable lowercase name (used in JSONL).
    pub fn name(self) -> &'static str {
        match self {
            CausalPhase::Trigger => "trigger",
            CausalPhase::LinkProp => "link_prop",
            CausalPhase::ProcDelay => "proc_delay",
            CausalPhase::HuntStep => "hunt_step",
            CausalPhase::MraiWait => "mrai_wait",
            CausalPhase::CtrlQueue => "ctrl_queue",
            CausalPhase::CtrlRecompute => "ctrl_recompute",
            CausalPhase::FlowInstall => "flow_install",
            CausalPhase::Resync => "resync",
        }
    }

    /// Inverse of [`CausalPhase::name`].
    pub fn from_name(name: &str) -> Option<CausalPhase> {
        CausalPhase::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Position in [`CausalPhase::ALL`].
    pub fn index(self) -> usize {
        CausalPhase::ALL
            .iter()
            .position(|p| *p == self)
            .expect("phase is in ALL")
    }

    /// True for phases that mark a routing-state settlement (the events a
    /// critical path can end at).
    pub(crate) fn is_settlement(self) -> bool {
        matches!(self, CausalPhase::HuntStep | CausalPhase::FlowInstall)
    }
}

/// A typed trace event — the payload of every trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A BGP UPDATE left a node toward `peer`.
    UpdateSent {
        /// Receiving node id.
        peer: u32,
        /// Prefixes announced.
        announced: Vec<ObsPrefix>,
        /// Prefixes withdrawn.
        withdrawn: Vec<ObsPrefix>,
    },
    /// A BGP UPDATE was delivered from `peer`.
    UpdateDelivered {
        /// Sending node id.
        peer: u32,
        /// Prefixes announced.
        announced: Vec<ObsPrefix>,
        /// Prefixes withdrawn.
        withdrawn: Vec<ObsPrefix>,
    },
    /// A node's best path for `prefix` changed.
    RibChange {
        /// The affected prefix.
        prefix: ObsPrefix,
        /// Previous best AS path (None = no route).
        old_path: Option<Vec<u32>>,
        /// New best AS path (None = route lost).
        new_path: Option<Vec<u32>>,
    },
    /// A flow rule was installed in a switch.
    FlowInstalled {
        /// Matched prefix.
        prefix: ObsPrefix,
        /// Rule priority.
        priority: u16,
        /// Rule action.
        action: FlowActionRepr,
    },
    /// A flow rule was removed from a switch.
    FlowRemoved {
        /// Matched prefix.
        prefix: ObsPrefix,
        /// Rule priority.
        priority: u16,
        /// Rule action.
        action: FlowActionRepr,
    },
    /// A BGP session reached Established.
    SessionUp {
        /// The remote node id.
        peer: u32,
    },
    /// A BGP session left Established.
    SessionDown {
        /// The remote node id.
        peer: u32,
        /// Short reason ("closed", "hold expired", "link down", ...).
        reason: String,
    },
    /// The IDR controller recomputed routing.
    ControllerRecompute {
        /// What triggered the recomputation.
        trigger: RecomputeTrigger,
        /// Prefixes considered.
        prefixes: u32,
        /// Per-prefix computations actually executed.
        prefixes_recomputed: u32,
        /// Tracked prefixes served from the compiled cache.
        prefixes_cached: u32,
        /// Cluster members in the switch graph.
        members: u32,
        /// Intra-cluster links currently up.
        links_up: u32,
        /// FlowMods emitted by the diff.
        flow_mods: u32,
        /// Announcements pushed to the speaker.
        announcements: u32,
        /// Withdrawals pushed to the speaker.
        withdrawals: u32,
        /// Wall-clock duration of the recomputation (0 when profiling off).
        wall_ns: u64,
    },
    /// An experiment phase boundary.
    Phase {
        /// Phase name ("bring-up", "withdrawal", ...).
        name: String,
        /// True at phase start, false at phase end.
        started: bool,
    },
    /// A link was administratively toggled.
    LinkAdmin {
        /// The link id.
        link: u32,
        /// New state.
        up: bool,
    },
    /// A node was administratively crashed or restarted.
    NodeAdmin {
        /// The node id.
        node: u32,
        /// New state (false = crashed, true = restored).
        up: bool,
    },
    /// A speaker entered or left headless mode (controller hold timer
    /// expired / control channel re-established).
    SpeakerHeadless {
        /// True on entry into headless mode, false on recovery.
        entered: bool,
    },
    /// A full-state resync ran over the control channel.
    ControlResync {
        /// The new channel epoch after the resync.
        epoch: u64,
        /// Alias sessions replayed in the sync snapshot.
        sessions: u32,
        /// Adj-in routes replayed in the sync snapshot.
        routes: u32,
    },
    /// The reliable control channel retransmitted unacked messages.
    ControlRetransmit {
        /// True when the controller side retransmitted (commands), false
        /// for the speaker side (events).
        from_controller: bool,
        /// Sequence number of the oldest unacked message.
        oldest_seq: u64,
        /// Messages outstanding (unacked) at retransmit time.
        outstanding: u32,
    },
    /// A speaker event was dropped because no controller link was
    /// configured or the channel was frozen — state the controller will
    /// only recover via resync.
    SpeakerEventDropped {
        /// The alias session index the event belonged to.
        session: u32,
    },
    /// The static verifier found an invariant violation in a frozen
    /// network snapshot (loop, blackhole, intent drift, or valley).
    VerifyViolation {
        /// The invariant broken ("loop", "blackhole", "intent_drift",
        /// "valley").
        check: String,
        /// The destination prefix, when the check is prefix-scoped.
        prefix: Option<ObsPrefix>,
        /// The primary offending node (device name).
        offender: String,
        /// Human-readable witness path demonstrating the violation.
        witness: String,
    },
    /// One node of a convergence trigger's causal DAG. Minted whenever a
    /// trigger fires or its lineage crosses a station (update delivered,
    /// processed, best path changed, export flushed, controller batch
    /// recomputed, flow installed); `bgpsdn explain` reconstructs critical
    /// paths and phase breakdowns from these. All fields are sim-time
    /// deterministic — nothing wall-clock — so artifacts canonicalize
    /// byte-identically across reruns.
    Causal {
        /// This event's id, unique and monotone within a run (1-based).
        id: u64,
        /// Parent causal event ids; empty for trigger roots, more than one
        /// where lineages merge (controller dirty-prefix batches, hunt
        /// steps that also descend from the processed update).
        parents: Vec<u64>,
        /// Id of the trigger root this lineage descends from. For merge
        /// nodes whose parents span triggers: the earliest parent's.
        trigger: u64,
        /// Hops from the trigger along the minting chain.
        hop: u32,
        /// Which taxonomy bucket the edge from parent to this node fills.
        phase: CausalPhase,
        /// The prefix involved, when the event is prefix-scoped.
        prefix: Option<ObsPrefix>,
    },
    /// Free-form diagnostic text (decode errors, relay misses). Never
    /// parsed by analysis code — everything analyzable has a typed variant.
    Note {
        /// The category the note belongs to.
        category: TraceCategory,
        /// The text.
        text: String,
    },
}

impl TraceEvent {
    /// The filter category this event belongs to.
    pub fn category(&self) -> TraceCategory {
        match self {
            TraceEvent::UpdateSent { .. } | TraceEvent::UpdateDelivered { .. } => {
                TraceCategory::Msg
            }
            TraceEvent::RibChange { .. } | TraceEvent::ControllerRecompute { .. } => {
                TraceCategory::Route
            }
            TraceEvent::FlowInstalled { .. } | TraceEvent::FlowRemoved { .. } => {
                TraceCategory::Flow
            }
            TraceEvent::SessionUp { .. } | TraceEvent::SessionDown { .. } => TraceCategory::Session,
            // VerifyViolation shares Experiment: verification runs are
            // experiment-level events.
            TraceEvent::Phase { .. } | TraceEvent::VerifyViolation { .. } => {
                TraceCategory::Experiment
            }
            TraceEvent::Causal { .. } => TraceCategory::Causal,
            TraceEvent::LinkAdmin { .. } | TraceEvent::NodeAdmin { .. } => TraceCategory::Link,
            TraceEvent::SpeakerHeadless { .. }
            | TraceEvent::ControlResync { .. }
            | TraceEvent::ControlRetransmit { .. }
            | TraceEvent::SpeakerEventDropped { .. } => TraceCategory::Ctrl,
            TraceEvent::Note { category, .. } => *category,
        }
    }
}

/// Why a member's value was refused.
enum Bad {
    /// The line is not JSON at this point.
    Syntax(JsonError),
    /// Well-formed, but not a value the field can hold.
    Type,
}

impl From<JsonError> for Bad {
    fn from(e: JsonError) -> Bad {
        Bad::Syntax(e)
    }
}

/// How one kind of field travels as a member of an event line. The
/// `wire_table!` entries name a codec per field; the line writer and the
/// line reader are both generated from them.
trait Codec {
    /// The Rust type of the field.
    type Value;

    /// Write the member's value.
    fn write(w: &mut JsonWriter<'_>, value: &Self::Value);

    /// True for a value that is written as no member at all.
    fn omitted(_value: &Self::Value) -> bool {
        false
    }

    /// Read the member's value, consuming exactly that value.
    fn read(r: &mut JsonReader<'_>) -> Result<Self::Value, Bad>;

    /// The field's value when the line has no such member; `None` makes
    /// the member required.
    fn absent() -> Option<Self::Value> {
        None
    }
}

/// An unsigned integer, range-checked into `T` (integral floats such as
/// `3.0` are accepted, as everywhere a `Json` integer is).
struct Uint<T>(std::marker::PhantomData<T>);

fn read_uint<T: TryFrom<u64>>(r: &mut JsonReader<'_>) -> Result<T, Bad> {
    r.u64()?.and_then(|n| T::try_from(n).ok()).ok_or(Bad::Type)
}

impl<T: Copy + Into<u64> + TryFrom<u64>> Codec for Uint<T> {
    type Value = T;

    fn write(w: &mut JsonWriter<'_>, value: &T) {
        w.u64((*value).into());
    }

    fn read(r: &mut JsonReader<'_>) -> Result<T, Bad> {
        read_uint(r)
    }
}

/// A `u32` that reads as 0 when the member is absent or is not a `u32`:
/// counters that artifacts written before they existed do not carry.
struct U32OrZero;

impl Codec for U32OrZero {
    type Value = u32;

    fn write(w: &mut JsonWriter<'_>, value: &u32) {
        w.u64(*value as u64);
    }

    fn read(r: &mut JsonReader<'_>) -> Result<u32, Bad> {
        match read_uint(r) {
            Err(Bad::Type) => Ok(0),
            other => other,
        }
    }

    fn absent() -> Option<u32> {
        Some(0)
    }
}

struct Bool;

impl Codec for Bool {
    type Value = bool;

    fn write(w: &mut JsonWriter<'_>, value: &bool) {
        w.bool(*value);
    }

    fn read(r: &mut JsonReader<'_>) -> Result<bool, Bad> {
        r.bool()?.ok_or(Bad::Type)
    }
}

struct Str;

impl Codec for Str {
    type Value = String;

    fn write(w: &mut JsonWriter<'_>, value: &String) {
        w.str(value);
    }

    fn read(r: &mut JsonReader<'_>) -> Result<String, Bad> {
        Ok(r.str()?.ok_or(Bad::Type)?.into_owned())
    }
}

/// A value with a string form: written as that string, read back through
/// `parse` (prefixes, flow actions and the `name()`/`from_name()` enums).
struct Text<T>(std::marker::PhantomData<T>);

/// The string form [`Text`] writes and parses.
trait WireText: Sized {
    /// Append the string form; it must need no JSON escaping.
    fn push(&self, out: &mut String);
    /// Inverse of [`WireText::push`].
    fn parse(s: &str) -> Option<Self>;
}

fn write_text<T: WireText>(w: &mut JsonWriter<'_>, value: &T) {
    let out = w.raw();
    out.push('"');
    value.push(out);
    out.push('"');
}

fn read_text<T: WireText>(r: &mut JsonReader<'_>) -> Result<T, Bad> {
    r.str()?.and_then(|s| T::parse(&s)).ok_or(Bad::Type)
}

impl<T: WireText> Codec for Text<T> {
    type Value = T;

    fn write(w: &mut JsonWriter<'_>, value: &T) {
        write_text(w, value);
    }

    fn read(r: &mut JsonReader<'_>) -> Result<T, Bad> {
        read_text(r)
    }
}

/// A [`Text`] member that is left out when the field is `None`.
struct OptText<T>(std::marker::PhantomData<T>);

impl<T: WireText> Codec for OptText<T> {
    type Value = Option<T>;

    fn write(w: &mut JsonWriter<'_>, value: &Option<T>) {
        if let Some(v) = value {
            write_text(w, v);
        }
    }

    fn omitted(value: &Option<T>) -> bool {
        value.is_none()
    }

    fn read(r: &mut JsonReader<'_>) -> Result<Option<T>, Bad> {
        read_text(r).map(Some)
    }

    fn absent() -> Option<Option<T>> {
        Some(None)
    }
}

impl WireText for ObsPrefix {
    fn push(&self, out: &mut String) {
        let [a, b, c, d] = self.addr.to_be_bytes();
        for (octet, sep) in [(a, '.'), (b, '.'), (c, '.'), (d, '/')] {
            push_u64(out, octet as u64);
            out.push(sep);
        }
        push_u64(out, self.len as u64);
    }

    fn parse(s: &str) -> Option<ObsPrefix> {
        s.parse().ok()
    }
}

impl WireText for FlowActionRepr {
    fn push(&self, out: &mut String) {
        match self {
            FlowActionRepr::Output(port) => {
                out.push_str("output:");
                push_u64(out, *port as u64);
            }
            FlowActionRepr::ToController => out.push_str("controller"),
            FlowActionRepr::Drop => out.push_str("drop"),
            FlowActionRepr::Local => out.push_str("local"),
        }
    }

    fn parse(s: &str) -> Option<FlowActionRepr> {
        match s {
            "controller" => Some(FlowActionRepr::ToController),
            "drop" => Some(FlowActionRepr::Drop),
            "local" => Some(FlowActionRepr::Local),
            _ => {
                let port = s.strip_prefix("output:")?.parse().ok()?;
                Some(FlowActionRepr::Output(port))
            }
        }
    }
}

macro_rules! wire_text_by_name {
    ($($ty:ty),*) => {$(
        impl WireText for $ty {
            fn push(&self, out: &mut String) {
                out.push_str(self.name());
            }

            fn parse(s: &str) -> Option<$ty> {
                <$ty>::from_name(s)
            }
        }
    )*};
}

wire_text_by_name!(TraceCategory, RecomputeTrigger, CausalPhase);

fn write_list<T>(w: &mut JsonWriter<'_>, items: &[T], item: impl Fn(&mut JsonWriter<'_>, &T)) {
    w.begin_array();
    for i in items {
        item(w, i);
    }
    w.end_array();
}

fn read_list<T>(
    r: &mut JsonReader<'_>,
    item: impl Fn(&mut JsonReader<'_>) -> Result<T, Bad>,
) -> Result<Vec<T>, Bad> {
    if r.peek() != Some(b'[') {
        r.skip_value()?;
        return Err(Bad::Type);
    }
    let mut items = Vec::new();
    let mut more = r.open(b']')?;
    while more {
        items.push(item(r)?);
        more = r.next(b']')?;
    }
    Ok(items)
}

struct PrefixList;

impl Codec for PrefixList {
    type Value = Vec<ObsPrefix>;

    fn write(w: &mut JsonWriter<'_>, value: &Vec<ObsPrefix>) {
        write_list(w, value, write_text);
    }

    fn read(r: &mut JsonReader<'_>) -> Result<Vec<ObsPrefix>, Bad> {
        read_list(r, read_text)
    }
}

/// Causal event ids.
struct IdList;

impl Codec for IdList {
    type Value = Vec<u64>;

    fn write(w: &mut JsonWriter<'_>, value: &Vec<u64>) {
        write_list(w, value, |w, id| w.u64(*id));
    }

    fn read(r: &mut JsonReader<'_>) -> Result<Vec<u64>, Bad> {
        read_list(r, read_uint)
    }
}

/// An AS path, or `null` for "no route".
struct Path;

impl Codec for Path {
    type Value = Option<Vec<u32>>;

    fn write(w: &mut JsonWriter<'_>, value: &Option<Vec<u32>>) {
        match value {
            Some(hops) => write_list(w, hops, |w, asn| w.u64(*asn as u64)),
            None => w.null(),
        }
    }

    fn read(r: &mut JsonReader<'_>) -> Result<Option<Vec<u32>>, Bad> {
        if r.peek() == Some(b'n') {
            r.literal("null")?;
            return Ok(None);
        }
        read_list(r, read_uint).map(Some)
    }
}

/// The first of duplicate members wins, as [`crate::json::Json::get`] has it.
fn read_member<C: Codec>(
    slot: &mut Option<C::Value>,
    key: &str,
    r: &mut JsonReader<'_>,
) -> Result<(), String> {
    if slot.is_some() {
        return Ok(r.skip_value()?);
    }
    match C::read(r) {
        Ok(v) => {
            *slot = Some(v);
            Ok(())
        }
        Err(Bad::Syntax(e)) => Err(e.into()),
        Err(Bad::Type) => Err(bad(key)),
    }
}

fn bad(key: &str) -> String {
    format!("bad {key:?}")
}

/// The wire form of every [`TraceEvent`] variant, stated once: its kind
/// tag and, per field, the JSON key and the [`Codec`]. Generates
/// [`TraceEvent::kind`], the line writer ([`TraceEvent::write_members`])
/// and the line reader ([`PartialEvent`]).
macro_rules! wire_table {
    ($(
        $variant:ident = $kind:literal {
            $( $field:ident : $key:literal => $codec:ty ),* $(,)?
        }
    )*) => {
        impl TraceEvent {
            /// Stable kind tag used in the JSONL schema.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $kind, )*
                }
            }

            /// Write the event's members into an open object: `"kind"`,
            /// then the variant's fields in declaration order.
            pub(crate) fn write_members(&self, w: &mut JsonWriter<'_>) {
                w.key(KIND_KEY);
                w.str(self.kind());
                match self {
                    $( TraceEvent::$variant { $( $field ),* } => {
                        $( if !<$codec as Codec>::omitted($field) {
                            w.member(member_head!($key));
                            <$codec as Codec>::write(w, $field);
                        } )*
                    } )*
                }
            }
        }

        /// An event being read off a line: the variant is known, the
        /// fields arrive member by member in whatever order the line has.
        pub(crate) struct PartialEvent(Fields);

        enum Fields {
            $( $variant { $( $field: Option<<$codec as Codec>::Value> ),* }, )*
        }

        impl PartialEvent {
            /// An event of this kind with no field read yet.
            pub(crate) fn of_kind(kind: &str) -> Option<PartialEvent> {
                Some(PartialEvent(match kind {
                    $( $kind => Fields::$variant { $( $field: None ),* }, )*
                    _ => return None,
                }))
            }

            /// Take the member `key`, whose value is under the reader's
            /// cursor: into its field, or skipped when the variant has no
            /// such field or already has it.
            pub(crate) fn member(
                &mut self,
                key: &str,
                r: &mut JsonReader<'_>,
            ) -> Result<(), String> {
                match &mut self.0 {
                    $( Fields::$variant { $( $field ),* } => match key {
                        $( $key => read_member::<$codec>($field, key, r), )*
                        _ => Ok(r.skip_value()?),
                    }, )*
                }
            }

            /// The event, once the line has ended.
            pub(crate) fn finish(self) -> Result<TraceEvent, String> {
                match self.0 {
                    $( Fields::$variant { $( $field ),* } => Ok(TraceEvent::$variant {
                        $( $field: $field
                            .or_else(<$codec as Codec>::absent)
                            .ok_or_else(|| bad($key))?, )*
                    }), )*
                }
            }
        }
    };
}

/// Key of the member that names an event line's variant.
pub(crate) const KIND_KEY: &str = "kind";

wire_table! {
    UpdateSent = "update_sent" {
        peer: "peer" => Uint<u32>,
        announced: "announced" => PrefixList,
        withdrawn: "withdrawn" => PrefixList,
    }
    UpdateDelivered = "update_delivered" {
        peer: "peer" => Uint<u32>,
        announced: "announced" => PrefixList,
        withdrawn: "withdrawn" => PrefixList,
    }
    RibChange = "rib_change" {
        prefix: "prefix" => Text<ObsPrefix>,
        old_path: "old" => Path,
        new_path: "new" => Path,
    }
    FlowInstalled = "flow_installed" {
        prefix: "prefix" => Text<ObsPrefix>,
        priority: "priority" => Uint<u16>,
        action: "action" => Text<FlowActionRepr>,
    }
    FlowRemoved = "flow_removed" {
        prefix: "prefix" => Text<ObsPrefix>,
        priority: "priority" => Uint<u16>,
        action: "action" => Text<FlowActionRepr>,
    }
    SessionUp = "session_up" {
        peer: "peer" => Uint<u32>,
    }
    SessionDown = "session_down" {
        peer: "peer" => Uint<u32>,
        reason: "reason" => Str,
    }
    ControllerRecompute = "recompute" {
        trigger: "trigger" => Text<RecomputeTrigger>,
        prefixes: "prefixes" => Uint<u32>,
        prefixes_recomputed: "recomputed" => U32OrZero,
        prefixes_cached: "cached" => U32OrZero,
        members: "members" => Uint<u32>,
        links_up: "links_up" => Uint<u32>,
        flow_mods: "flow_mods" => Uint<u32>,
        announcements: "announcements" => Uint<u32>,
        withdrawals: "withdrawals" => Uint<u32>,
        wall_ns: "wall_ns" => Uint<u64>,
    }
    Phase = "phase" {
        name: "name" => Str,
        started: "started" => Bool,
    }
    LinkAdmin = "link_admin" {
        link: "link" => Uint<u32>,
        up: "up" => Bool,
    }
    // "target" and "offender", not "node": an event line already has a
    // top-level "node" member for attribution.
    NodeAdmin = "node_admin" {
        node: "target" => Uint<u32>,
        up: "up" => Bool,
    }
    SpeakerHeadless = "speaker_headless" {
        entered: "entered" => Bool,
    }
    ControlResync = "control_resync" {
        epoch: "epoch" => Uint<u64>,
        sessions: "sessions" => Uint<u32>,
        routes: "routes" => Uint<u32>,
    }
    ControlRetransmit = "control_retransmit" {
        from_controller: "from_controller" => Bool,
        oldest_seq: "oldest_seq" => Uint<u64>,
        outstanding: "outstanding" => Uint<u32>,
    }
    SpeakerEventDropped = "speaker_event_dropped" {
        session: "session" => Uint<u32>,
    }
    VerifyViolation = "verify_violation" {
        check: "check" => Str,
        prefix: "prefix" => OptText<ObsPrefix>,
        offender: "offender" => Str,
        witness: "witness" => Str,
    }
    Causal = "causal" {
        id: "id" => Uint<u64>,
        parents: "parents" => IdList,
        trigger: "trigger" => Uint<u64>,
        hop: "hop" => Uint<u32>,
        phase: "phase" => Text<CausalPhase>,
        prefix: "prefix" => OptText<ObsPrefix>,
    }
    Note = "note" {
        category: "cat" => Text<TraceCategory>,
        text: "text" => Str,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{event_line, Artifact};

    fn roundtrip(e: TraceEvent) {
        let line = event_line(7, None, &e);
        let back = Artifact::parse(&line).unwrap();
        assert_eq!(back.events.len(), 1, "{line}");
        assert_eq!(back.events[0].event, e);
    }

    #[test]
    fn every_variant_roundtrips() {
        let p = ObsPrefix::new(0x0a010000, 16);
        roundtrip(TraceEvent::UpdateSent {
            peer: 3,
            announced: vec![p],
            withdrawn: vec![],
        });
        roundtrip(TraceEvent::UpdateDelivered {
            peer: 9,
            announced: vec![],
            withdrawn: vec![p, ObsPrefix::new(0, 0)],
        });
        roundtrip(TraceEvent::RibChange {
            prefix: p,
            old_path: None,
            new_path: Some(vec![65001, 65000]),
        });
        roundtrip(TraceEvent::RibChange {
            prefix: p,
            old_path: Some(vec![]),
            new_path: None,
        });
        roundtrip(TraceEvent::FlowInstalled {
            prefix: p,
            priority: 100,
            action: FlowActionRepr::Output(7),
        });
        roundtrip(TraceEvent::FlowRemoved {
            prefix: p,
            priority: 0,
            action: FlowActionRepr::Drop,
        });
        roundtrip(TraceEvent::SessionUp { peer: 1 });
        roundtrip(TraceEvent::SessionDown {
            peer: 2,
            reason: "link down".into(),
        });
        roundtrip(TraceEvent::ControllerRecompute {
            trigger: RecomputeTrigger::UpdateBatch,
            prefixes: 4,
            prefixes_recomputed: 2,
            prefixes_cached: 2,
            members: 8,
            links_up: 28,
            flow_mods: 12,
            announcements: 3,
            withdrawals: 1,
            wall_ns: (1 << 53) + 1,
        });
        roundtrip(TraceEvent::Phase {
            name: "withdrawal".into(),
            started: true,
        });
        roundtrip(TraceEvent::LinkAdmin { link: 5, up: false });
        roundtrip(TraceEvent::NodeAdmin { node: 7, up: false });
        roundtrip(TraceEvent::SpeakerHeadless { entered: true });
        roundtrip(TraceEvent::ControlResync {
            epoch: 3,
            sessions: 4,
            routes: 17,
        });
        roundtrip(TraceEvent::ControlRetransmit {
            from_controller: false,
            oldest_seq: 42,
            outstanding: 6,
        });
        roundtrip(TraceEvent::SpeakerEventDropped { session: 2 });
        roundtrip(TraceEvent::VerifyViolation {
            check: "loop".into(),
            prefix: Some(ObsPrefix::new(0x0a00_0000, 24)),
            offender: "sw20".into(),
            witness: "sw20 --[10.0.0.0/24 p100 output:2]--> sw30".into(),
        });
        roundtrip(TraceEvent::VerifyViolation {
            check: "intent_drift".into(),
            prefix: None,
            offender: "session#0 sw30->as40".into(),
            witness: "speaker says established=true, controller says up=false".into(),
        });
        roundtrip(TraceEvent::Causal {
            id: 17,
            parents: vec![3, 9],
            trigger: 1,
            hop: 4,
            phase: CausalPhase::CtrlQueue,
            prefix: Some(p),
        });
        roundtrip(TraceEvent::Causal {
            id: 1,
            parents: vec![],
            trigger: 1,
            hop: 0,
            phase: CausalPhase::Trigger,
            prefix: None,
        });
        roundtrip(TraceEvent::Note {
            category: TraceCategory::Session,
            text: "decode error: bad \"marker\"\n".into(),
        });
    }

    #[test]
    fn causal_phase_names_roundtrip() {
        for p in CausalPhase::ALL {
            assert_eq!(CausalPhase::from_name(p.name()), Some(p));
            assert_eq!(CausalPhase::ALL[p.index()], p);
        }
        assert_eq!(CausalPhase::from_name("bogus"), None);
        assert!(CausalPhase::HuntStep.is_settlement());
        assert!(CausalPhase::FlowInstall.is_settlement());
        assert!(!CausalPhase::MraiWait.is_settlement());
    }

    #[test]
    fn category_mapping() {
        assert_eq!(
            TraceEvent::SessionUp { peer: 0 }.category(),
            TraceCategory::Session
        );
        assert_eq!(
            TraceEvent::Note {
                category: TraceCategory::Flow,
                text: String::new()
            }
            .category(),
            TraceCategory::Flow
        );
        for c in TraceCategory::all() {
            assert_eq!(TraceCategory::from_name(c.name()), Some(c));
        }
    }

    #[test]
    fn prefix_parse_display() {
        let p: ObsPrefix = "10.42.0.0/16".parse().unwrap();
        assert_eq!(p, ObsPrefix::new(0x0a2a0000, 16));
        assert_eq!(p.to_string(), "10.42.0.0/16");
        assert_eq!(
            "0.0.0.0/0".parse::<ObsPrefix>().unwrap().to_string(),
            "0.0.0.0/0"
        );
        assert!("10.0.0.0/33".parse::<ObsPrefix>().is_err());
        assert!("10.0.0/8".parse::<ObsPrefix>().is_err());
        // Host bits are masked off.
        assert_eq!(ObsPrefix::new(0x0a0a0a0a, 8).to_string(), "10.0.0.0/8");
    }
}
