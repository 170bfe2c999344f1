//! The static data-plane checks: per-prefix forwarding-graph construction
//! plus the four invariants (loop-freedom, blackhole-freedom, intent
//! consistency, valley-free conformance), reported as [`Finding`]s with
//! the codes `loop`, `blackhole`, `intent_drift` and `valley`.
//!
//! The verifier is Veriflow-shaped: it never simulates packets. For each
//! tracked destination prefix it resolves every node's own longest-prefix
//! lookup into a successor function (at most one out-edge per node), then
//! classifies the resulting functional graph with one O(nodes + edges)
//! walk using preallocated scratch buffers, so a full run over hundreds of
//! prefixes stays in the low milliseconds.
//!
//! That successor function is the framework's only forwarding model: the
//! invariant checks and every "does traffic from X reach Y" question
//! ([`Verifier::connectivity`]) read the same per-node terminal of the
//! same walk, so they cannot disagree.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::net::Ipv4Addr;

use bgpsdn_bgp::{Asn, PolicyMode, Prefix, Relationship};
use bgpsdn_obs::FlowActionRepr;

use crate::finding::{AnalysisReport, Finding, Severity};
use crate::snapshot::{ControlHealth, Device, NextHop, SessionSnap, Snapshot, SwitchRule};

/// Result of a connectivity query: does traffic from every other node
/// reach each queried destination?
#[derive(Debug, Clone, Default)]
pub struct ConnectivityReport {
    /// Pairs whose traffic is delivered at an origin of the address.
    pub delivered: usize,
    /// Pairs whose traffic dies first: no route, a drop rule, a down link
    /// (graceful-restart stale or not), a punt or an unknown port.
    pub blackholed: usize,
    /// Pairs whose traffic enters a forwarding loop.
    pub looped: usize,
    /// The failing pairs `(source vertex, destination address, witness)`.
    pub failures: Vec<(usize, Ipv4Addr, String)>,
}

impl ConnectivityReport {
    /// Total pairs checked.
    #[must_use]
    pub fn total(&self) -> usize {
        self.delivered + self.blackholed + self.looped
    }

    /// True when every pair was delivered (and there was at least one).
    #[must_use]
    pub fn fully_connected(&self) -> bool {
        self.blackholed == 0 && self.looped == 0 && self.delivered > 0
    }

    /// Fraction of pairs delivered (1.0 when nothing was checked).
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        let count = |n: usize| f64::from(u32::try_from(n).unwrap_or(u32::MAX));
        if self.total() == 0 {
            1.0
        } else {
            count(self.delivered) / count(self.total())
        }
    }
}

/// Resolved forwarding decision of one node for the current prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hop {
    /// No matching route/rule — fine for the node itself.
    NoRoute,
    /// Local delivery.
    Deliver,
    /// Explicit drop rule.
    Drop,
    /// Punt to controller (never legitimate in a converged snapshot).
    Punt,
    /// Forward to vertex; `up` is the link state, `stale` marks an RFC 4724
    /// graceful-restart retention, `entry` indexes the node's table for
    /// witness rendering.
    Via {
        peer: usize,
        up: bool,
        stale: bool,
        entry: u32,
    },
    /// The rule outputs to a port with no data-plane peer.
    DeadPort { port: u32, entry: u32 },
}

/// Terminal classification of a node's forwarding chain. `Delivered`,
/// `Dropped`, `NoRoute` and `Stale` break no invariant; only `Delivered`
/// is traffic arriving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Unknown,
    /// Chain ends in local delivery at an origin of the destination.
    Delivered,
    /// Chain ends in an explicit drop rule.
    Dropped,
    /// The chain's first node holds no route.
    NoRoute,
    /// Chain ends in an RFC 4724 stale route over a down link.
    Stale,
    /// Chain ends in a dead end (violation already reported downstream).
    Bad,
    /// Chain enters a cycle (violation already reported).
    Cycle,
}

/// `blame` value of a chain that ended without a violation.
const NO_BLAME: usize = usize::MAX;

/// Walk colors for the functional-graph traversal.
const UNVISITED: u8 = 0;
const ON_STACK: u8 = 1;
const DONE: u8 = 2;

/// One (priority, length) lookup group of a node table.
#[derive(Debug, Clone, Copy)]
struct LookupGroup {
    priority: u16,
    len: u8,
}

/// Preprocessed per-node lookup structure: exact-match maps per populated
/// (priority, prefix-length) pair, probed in match order.
#[derive(Debug, Default)]
struct NodeTable {
    /// Distinct (priority desc, length desc) groups.
    groups: Vec<LookupGroup>,
    /// `(priority, len, masked network) → entry index`.
    exact: BTreeMap<(u16, u8, u32), u32>,
}

impl NodeTable {
    fn clear(&mut self) {
        self.groups.clear();
        self.exact.clear();
    }

    fn insert(&mut self, priority: u16, prefix: Prefix, entry: u32) {
        let key = (priority, prefix.len(), prefix.network_u32());
        self.exact.entry(key).or_insert(entry);
        if !self
            .groups
            .iter()
            .any(|g| g.priority == priority && g.len == prefix.len())
        {
            self.groups.push(LookupGroup {
                priority,
                len: prefix.len(),
            });
        }
    }

    fn seal(&mut self) {
        // Match order: priority desc, then prefix length desc.
        self.groups
            .sort_by(|x, y| y.priority.cmp(&x.priority).then(y.len.cmp(&x.len)));
    }

    /// Longest-prefix/priority lookup of an address, as the device does it.
    fn lookup(&self, addr: u32) -> Option<u32> {
        for g in &self.groups {
            let mask = if g.len == 0 {
                0
            } else {
                u32::MAX << (32 - g.len)
            };
            if let Some(&entry) = self.exact.get(&(g.priority, g.len, addr & mask)) {
                return Some(entry);
            }
        }
        None
    }
}

/// The verifier, holding reusable scratch so repeated passes (one per
/// convergence point, one per fault action) allocate nothing per prefix.
#[derive(Debug, Default)]
pub struct Verifier {
    tables: Vec<NodeTable>,
    /// The edge joining each adjacent vertex pair, both ways: `(a, b) →
    /// index into the snapshot's edges`.
    rel: BTreeMap<(usize, usize), usize>,
    asn_index: BTreeMap<u32, usize>,
    is_member: Vec<bool>,
    prefixes: Vec<Prefix>,
    hops: Vec<Hop>,
    state: Vec<u8>,
    outcome: Vec<Outcome>,
    /// Index of the violation each settled chain ended in (`NO_BLAME`).
    blame: Vec<usize>,
    path: Vec<usize>,
    verts: Vec<usize>,
}

impl Verifier {
    /// Run all checks over a snapshot. Violations are error findings;
    /// state that is stale because the control plane is degraded
    /// (headless or resyncing) is a warning under the check's code.
    pub fn verify(&mut self, snap: &Snapshot) -> AnalysisReport {
        let mut report = AnalysisReport::new();
        self.prepare(snap);
        self.check_forwarding(snap, &mut report);
        check_intent(snap, &mut report);
        self.check_valley(snap, &mut report);
        report
    }

    /// Destination prefixes the last pass analyzed.
    pub fn prefixes_checked(&self) -> usize {
        self.prefixes.len()
    }

    /// Does traffic from every other node reach each `(destination vertex,
    /// address)` target? One classification walk per target — the walk
    /// behind the loop and blackhole checks — settles every node's chain;
    /// a pair counts as delivered when its source's chain ends in local
    /// delivery at an origin of the address. A failing pair carries the
    /// witness of the violation its chain ended in.
    ///
    /// # Panics
    ///
    /// Never: each address is probed as a /32, which has no host bits.
    pub fn connectivity(
        &mut self,
        snap: &Snapshot,
        targets: &[(usize, Ipv4Addr)],
    ) -> ConnectivityReport {
        self.prepare(snap);
        let mut out = ConnectivityReport::default();
        let mut found = AnalysisReport::new();
        for &(dst, addr) in targets {
            let probe = Prefix::new(addr, 32).expect("a /32 has no host bits");
            found.findings.clear();
            self.resolve_hops(snap, probe.network_u32());
            self.walk_prefix(snap, probe, &mut found);
            for src in (0..snap.nodes.len()).filter(|&v| v != dst) {
                let terminal = self.outcome[src];
                match terminal {
                    Outcome::Delivered => {
                        out.delivered += 1;
                        continue;
                    }
                    Outcome::Cycle => out.looped += 1,
                    _ => out.blackholed += 1,
                }
                let witness = match (self.blame[src], terminal) {
                    (NO_BLAME, Outcome::NoRoute) => format!("{} (no route)", snap.nodes[src].name),
                    (NO_BLAME, Outcome::Dropped) => {
                        format!("{} (ends in an explicit drop)", snap.nodes[src].name)
                    }
                    (NO_BLAME, _) => format!(
                        "{} (ends in a graceful-restart stale route over a down link)",
                        snap.nodes[src].name
                    ),
                    (v, _) => found.findings[v].witness.clone().unwrap_or_default(),
                };
                out.failures.push((src, addr, witness));
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Preparation
    // ------------------------------------------------------------------

    fn prepare(&mut self, snap: &Snapshot) {
        let n = snap.nodes.len();
        self.tables.resize_with(n, NodeTable::default);
        self.is_member.clear();
        self.asn_index.clear();
        self.prefixes.clear();
        let mut universe: BTreeSet<Prefix> = BTreeSet::new();
        for (v, node) in snap.nodes.iter().enumerate() {
            self.is_member
                .push(matches!(node.device, Device::Member { .. }));
            self.asn_index.insert(node.asn.0, v);
            universe.extend(node.originated.iter().copied());
            let table = &mut self.tables[v];
            table.clear();
            match &node.device {
                Device::Legacy { routes } => {
                    for (i, r) in routes.iter().enumerate() {
                        universe.insert(r.prefix);
                        table.insert(0, r.prefix, to_entry(i));
                    }
                }
                Device::Member { rules, .. } => {
                    for (i, r) in rules.iter().enumerate() {
                        universe.insert(r.prefix);
                        table.insert(r.priority, r.prefix, to_entry(i));
                    }
                }
            }
            table.seal();
        }
        for flows in &snap.intent_flows {
            universe.extend(flows.iter().map(|(p, _)| *p));
        }
        self.prefixes.extend(universe);
        self.rel.clear();
        for (k, e) in snap.edges.iter().enumerate() {
            self.rel.insert((e.a, e.b), k);
            self.rel.insert((e.b, e.a), k);
        }
        self.hops.resize(n, Hop::NoRoute);
        self.state.resize(n, UNVISITED);
        self.outcome.resize(n, Outcome::Unknown);
        self.blame.resize(n, NO_BLAME);
    }

    // ------------------------------------------------------------------
    // Per-prefix forwarding-graph checks (loop-freedom + blackholes)
    // ------------------------------------------------------------------

    fn check_forwarding(&mut self, snap: &Snapshot, report: &mut AnalysisReport) {
        // The prefix list lives in scratch; take it out so `self` stays
        // borrowable, and put it back for the next pass.
        let prefixes = std::mem::take(&mut self.prefixes);
        for &prefix in &prefixes {
            self.resolve_hops(snap, prefix.network_u32());
            self.walk_prefix(snap, prefix, report);
            report.checked_n(2); // loop-freedom + blackhole for this prefix
        }
        self.prefixes = prefixes;
    }

    /// Resolve every node's own lookup of a probe address (a prefix's
    /// network address, or a queried host) into the successor function.
    fn resolve_hops(&mut self, snap: &Snapshot, addr: u32) {
        for (v, node) in snap.nodes.iter().enumerate() {
            self.state[v] = UNVISITED;
            self.outcome[v] = Outcome::Unknown;
            // Originated prefixes deliver locally before any table lookup,
            // as the legacy router's data path does.
            if node.originated.iter().any(|p| p.contains(addr.into())) {
                self.hops[v] = Hop::Deliver;
                continue;
            }
            self.hops[v] = match (&node.device, self.tables[v].lookup(addr)) {
                (_, None) => Hop::NoRoute,
                (Device::Legacy { routes }, Some(entry)) => {
                    let route = &routes[from_entry(entry)];
                    match route.next {
                        NextHop::Deliver => Hop::Deliver,
                        NextHop::Via { peer, up } => Hop::Via {
                            peer,
                            up,
                            stale: route.stale,
                            entry,
                        },
                    }
                }
                (Device::Member { rules, ports, .. }, Some(entry)) => {
                    match rules[from_entry(entry)].action {
                        FlowActionRepr::Local => Hop::Deliver,
                        FlowActionRepr::Drop => Hop::Drop,
                        FlowActionRepr::ToController => Hop::Punt,
                        FlowActionRepr::Output(port) => match ports.iter().find(|p| p.port == port)
                        {
                            Some(p) => Hop::Via {
                                peer: p.peer,
                                up: p.up,
                                stale: false,
                                entry,
                            },
                            None => Hop::DeadPort { port, entry },
                        },
                    }
                }
            };
        }
    }

    /// Classify the functional graph: settle every node's chain on its
    /// terminal, with one error per distinct cycle or dead end and the
    /// discovering walk as the witness path.
    fn walk_prefix(&mut self, snap: &Snapshot, prefix: Prefix, report: &mut AnalysisReport) {
        for start in 0..snap.nodes.len() {
            if self.state[start] != UNVISITED {
                continue;
            }
            self.path.clear();
            let reported = report.findings.len();
            let mut cur = start;
            let outcome = loop {
                match self.state[cur] {
                    DONE => {
                        // A routeless node is fine standalone but a dead
                        // end for any chain that forwards into it; report
                        // that once, on first arrival.
                        if self.outcome[cur] == Outcome::NoRoute {
                            self.path.push(cur);
                            self.report_dead_end(snap, prefix, "next hop has no route", report);
                            break Outcome::Bad;
                        }
                        break self.outcome[cur];
                    }
                    ON_STACK => {
                        self.report_loop(snap, prefix, cur, report);
                        break Outcome::Cycle;
                    }
                    _ => {}
                }
                self.state[cur] = ON_STACK;
                self.path.push(cur);
                match self.hops[cur] {
                    Hop::NoRoute => {
                        // The chain *arrived* here over a route; a routeless
                        // node mid-chain is a dead end for its predecessors
                        // (but fine when it is the start of the walk).
                        if self.path.len() > 1 {
                            self.report_dead_end(snap, prefix, "next hop has no route", report);
                            break Outcome::Bad;
                        }
                        break Outcome::NoRoute;
                    }
                    Hop::Deliver => {
                        if origin_covers(snap, cur, prefix) {
                            break Outcome::Delivered;
                        }
                        self.report_dead_end(snap, prefix, "delivered off-origin", report);
                        break Outcome::Bad;
                    }
                    Hop::Drop => break Outcome::Dropped, // a legal terminal
                    Hop::Punt => {
                        self.report_dead_end(snap, prefix, "punts to controller", report);
                        break Outcome::Bad;
                    }
                    Hop::DeadPort { port, .. } => {
                        let detail = format!("rule outputs to unknown port {port}");
                        self.report_dead_end(snap, prefix, &detail, report);
                        break Outcome::Bad;
                    }
                    Hop::Via {
                        peer, up, stale, ..
                    } => {
                        if !up {
                            if stale {
                                // An RFC 4724 retention pointing over a dead
                                // link is the deliberate GR trade-off, not a
                                // blackhole: forwarding stays frozen until
                                // the restart window closes.
                                report.findings.push(Finding {
                                    severity: Severity::Warning,
                                    code: "blackhole",
                                    message: format!(
                                        "graceful-restart stale route over a down link \
                                         toward {} (consistent-but-stale)",
                                        snap.nodes[peer].name
                                    ),
                                    witness: None,
                                    subject: snap.nodes[cur].name.clone(),
                                    prefix: Some(prefix),
                                });
                                break Outcome::Stale;
                            }
                            self.report_dead_end(snap, prefix, "next-hop link is down", report);
                            break Outcome::Bad;
                        }
                        cur = peer;
                    }
                }
            };
            // A chain that ends in a new violation is blamed on it (a
            // stale chain's note is no violation); one that ran into a
            // settled chain inherits that chain's blame.
            let blame = if report.findings.len() > reported && outcome != Outcome::Stale {
                report.findings.len() - 1
            } else if self.state[cur] == DONE {
                self.blame[cur]
            } else {
                NO_BLAME
            };
            for &v in &self.path {
                self.state[v] = DONE;
                self.outcome[v] = outcome;
                self.blame[v] = blame;
            }
        }
    }

    /// Emit a loop error; `reentry` is the node closing the cycle.
    fn report_loop(
        &mut self,
        snap: &Snapshot,
        prefix: Prefix,
        reentry: usize,
        report: &mut AnalysisReport,
    ) {
        let cycle_start = self.path.iter().position(|&v| v == reentry).unwrap_or(0);
        let cycle = &self.path[cycle_start..];
        let mut witness = String::new();
        for &v in cycle {
            let _ = write!(
                witness,
                "{} --[{}]--> ",
                snap.nodes[v].name,
                self.hop_detail(snap, v)
            );
        }
        let _ = write!(witness, "{}", snap.nodes[reentry].name);
        report.findings.push(Finding {
            severity: Severity::Error,
            code: "loop",
            message: self.hop_detail(snap, reentry),
            witness: Some(witness),
            subject: snap.nodes[reentry].name.clone(),
            prefix: Some(prefix),
        });
    }

    /// Emit a blackhole error for the tail of the current walk path.
    fn report_dead_end(
        &mut self,
        snap: &Snapshot,
        prefix: Prefix,
        reason: &str,
        report: &mut AnalysisReport,
    ) {
        // The offender is the last node on the path that still has a route.
        let offender_pos = if matches!(
            self.hops[*self.path.last().expect("walk path is non-empty")],
            Hop::NoRoute
        ) && self.path.len() > 1
        {
            self.path.len() - 2
        } else {
            self.path.len() - 1
        };
        let offender = self.path[offender_pos];
        let mut witness = String::new();
        for (i, &v) in self.path.iter().enumerate() {
            if i > 0 {
                let _ = write!(witness, " -> ");
            }
            let _ = write!(witness, "{}", snap.nodes[v].name);
            if !matches!(self.hops[v], Hop::NoRoute) {
                let _ = write!(witness, "[{}]", self.hop_detail(snap, v));
            }
        }
        let _ = write!(witness, " ({reason})");
        report.findings.push(Finding {
            severity: Severity::Error,
            code: "blackhole",
            message: format!("{} ({reason})", self.hop_detail(snap, offender)),
            witness: Some(witness),
            subject: snap.nodes[offender].name.clone(),
            prefix: Some(prefix),
        });
    }

    /// Render the rule/route a node's current hop came from.
    fn hop_detail(&self, snap: &Snapshot, v: usize) -> String {
        let entry = match self.hops[v] {
            Hop::Via { entry, .. } | Hop::DeadPort { entry, .. } => Some(entry),
            _ => None,
        };
        match (&snap.nodes[v].device, entry) {
            (Device::Legacy { routes }, Some(e)) => {
                let r = &routes[from_entry(e)];
                match r.next {
                    NextHop::Via { peer, .. } => {
                        format!("{} via {}", r.prefix, snap.nodes[peer].name)
                    }
                    NextHop::Deliver => format!("{} local", r.prefix),
                }
            }
            (Device::Member { rules, .. }, Some(e)) => {
                let r = &rules[from_entry(e)];
                format!("{} p{} {}", r.prefix, r.priority, r.action)
            }
            _ => match self.hops[v] {
                Hop::Deliver => "local delivery".to_string(),
                Hop::Drop => "drop".to_string(),
                Hop::Punt => "punt to controller".to_string(),
                _ => "no route".to_string(),
            },
        }
    }

    // ------------------------------------------------------------------
    // Valley-free conformance
    // ------------------------------------------------------------------

    fn check_valley(&mut self, snap: &Snapshot, report: &mut AnalysisReport) {
        if snap.policy != PolicyMode::GaoRexford {
            return;
        }
        // Advertised paths: the speaker's actual adj-out toward each
        // external peer.
        for s in &snap.sessions {
            for (prefix, path) in &s.actual {
                report.checked();
                self.check_one_path(snap, s.ext_peer, *prefix, path, report);
            }
        }
        // Selected paths: every legacy router's Loc-RIB best routes.
        for (v, node) in snap.nodes.iter().enumerate() {
            let Device::Legacy { routes } = &node.device else {
                continue;
            };
            for r in routes {
                if r.as_path.is_empty() {
                    continue; // locally originated
                }
                report.checked();
                self.check_one_path(snap, v, r.prefix, &r.as_path, report);
            }
        }
    }

    /// Check the traffic path `receiver → as_path…` for valley-freeness.
    /// Hops between two cluster members are administrative (the cluster is
    /// one routing domain) and do not change the up/down state.
    fn check_one_path(
        &mut self,
        snap: &Snapshot,
        receiver: usize,
        prefix: Prefix,
        as_path: &[Asn],
        report: &mut AnalysisReport,
    ) {
        self.verts.clear();
        self.verts.push(receiver);
        for asn in as_path {
            if let Some(&v) = self.asn_index.get(&asn.0) {
                // Path prepending repeats an ASN; collapse it.
                if self.verts.last() != Some(&v) {
                    self.verts.push(v);
                }
            } else {
                record_drift(
                    snap,
                    report,
                    "valley",
                    Some(prefix),
                    &snap.nodes[receiver].name,
                    format!("path references unknown {asn}"),
                );
                return;
            }
        }
        let mut descending = false;
        for i in 1..self.verts.len() {
            let (x, y) = (self.verts[i - 1], self.verts[i]);
            if self.is_member[x] && self.is_member[y] {
                continue; // intra-cluster hop
            }
            // What the next hop `y` is to `x`: climbing to a provider is
            // fine until the path has descended or crossed a peering.
            let step = self
                .rel
                .get(&(x, y))
                .map(|&k| snap.edges[k].relationship_from(x));
            let bad = match step {
                None => Some("non-adjacent hop"),
                Some(Relationship::Provider | Relationship::Peer) if descending => {
                    Some("path climbs after descending (valley)")
                }
                Some(Relationship::Peer | Relationship::Customer) => {
                    descending = true;
                    None
                }
                Some(Relationship::Provider | Relationship::Monitor) => None,
            };
            if let Some(reason) = bad {
                let mut witness = String::new();
                for (k, &v) in self.verts.iter().enumerate() {
                    if k > 0 {
                        let _ = write!(witness, " -> ");
                    }
                    let _ = write!(witness, "{}", snap.nodes[v].name);
                }
                let _ = write!(
                    witness,
                    " ({reason} at {} -> {})",
                    snap.nodes[x].name, snap.nodes[y].name
                );
                report.findings.push(Finding {
                    severity: Severity::Error,
                    code: "valley",
                    message: format!("{reason}: {} -> {}", snap.nodes[x].name, snap.nodes[y].name),
                    witness: Some(witness),
                    subject: snap.nodes[x].name.clone(),
                    prefix: Some(prefix),
                });
                return;
            }
        }
    }
}

/// Intent consistency: every member's flow table and every session's
/// adj-out against the controller's last computed state.
fn check_intent(snap: &Snapshot, report: &mut AnalysisReport) {
    if snap.control == ControlHealth::NoCluster {
        return;
    }
    for (v, node) in snap.nodes.iter().enumerate() {
        let Device::Member { member, rules, .. } = &node.device else {
            continue;
        };
        report.checked();
        let Some(intent) = snap.intent_flows.get(*member) else {
            continue;
        };
        diff_member(snap, v, *member, rules, intent, report);
    }
    for (s, sess) in snap.sessions.iter().enumerate() {
        report.checked();
        diff_session(snap, s, sess, report);
    }
}

/// Compare a member switch's installed rules against controller intent.
fn diff_member(
    snap: &Snapshot,
    v: usize,
    member: usize,
    rules: &[SwitchRule],
    intent: &[(Prefix, FlowActionRepr)],
    report: &mut AnalysisReport,
) {
    let name = &snap.nodes[v].name;
    let mut drift = |prefix: Prefix, detail: String| {
        record_drift(snap, report, "intent_drift", Some(prefix), name, detail);
    };
    // Every installed rule must be intended (at the controller priority,
    // with the intended action)…
    for r in rules {
        match intent.iter().find(|(p, _)| *p == r.prefix) {
            None => drift(
                r.prefix,
                format!("unexpected rule {} p{} {}", r.prefix, r.priority, r.action),
            ),
            Some((_, want)) if r.priority != snap.flow_priority => drift(
                r.prefix,
                format!(
                    "rule {} installed at p{} (controller installs p{}, {want})",
                    r.prefix, r.priority, snap.flow_priority
                ),
            ),
            Some((_, want)) if *want != r.action => drift(
                r.prefix,
                format!("rule {} has action {} (intent {want})", r.prefix, r.action),
            ),
            Some(_) => {}
        }
    }
    // …and every intended rule must be installed.
    for (p, want) in intent {
        if !rules.iter().any(|r| r.prefix == *p) {
            drift(
                *p,
                format!("missing rule {p} {want} (member {member} intent)"),
            );
        }
    }
}

/// Compare a session's actual adj-out against controller intent.
fn diff_session(snap: &Snapshot, s: usize, sess: &SessionSnap, report: &mut AnalysisReport) {
    let name = format!(
        "session#{s} {}->{}",
        snap.nodes[sess.member].name, snap.nodes[sess.ext_peer].name
    );
    let mut drift = |prefix: Option<Prefix>, detail: String| {
        record_drift(snap, report, "intent_drift", prefix, &name, detail);
    };
    if sess.established != sess.ctrl_up {
        drift(
            None,
            format!(
                "speaker says established={}, controller says up={}",
                sess.established, sess.ctrl_up
            ),
        );
    }
    for (p, path) in &sess.actual {
        match sess.intent.iter().find(|(ip, _)| ip == p) {
            None => drift(
                Some(*p),
                format!("unexpected announcement {p} {}", fmt_path(path)),
            ),
            Some((_, want)) if want != path => drift(
                Some(*p),
                format!(
                    "announced path {} (intent {})",
                    fmt_path(path),
                    fmt_path(want)
                ),
            ),
            Some(_) => {}
        }
    }
    for (p, want) in &sess.intent {
        if !sess.actual.iter().any(|(ap, _)| ap == p) {
            drift(
                Some(*p),
                format!("missing announcement {p} {}", fmt_path(want)),
            );
        }
    }
}

/// Record an intent-class mismatch: an error when the control plane is
/// synced, a stale-but-consistent warning when it is headless or
/// resyncing.
fn record_drift(
    snap: &Snapshot,
    report: &mut AnalysisReport,
    code: &'static str,
    prefix: Option<Prefix>,
    node: &str,
    detail: String,
) {
    let (severity, message) = match snap.control {
        ControlHealth::Headless | ControlHealth::Resyncing => (
            Severity::Warning,
            format!("{detail} ({})", snap.control.name()),
        ),
        _ => (Severity::Error, detail),
    };
    report.findings.push(Finding {
        severity,
        code,
        message,
        witness: None,
        subject: node.to_string(),
        prefix,
    });
}

/// True when node `v` legitimately terminates traffic for `prefix`.
fn origin_covers(snap: &Snapshot, v: usize, prefix: Prefix) -> bool {
    snap.nodes[v]
        .originated
        .iter()
        .any(|p| p.covers(prefix) || *p == prefix)
}

fn fmt_path(path: &[Asn]) -> String {
    let mut out = String::from("[");
    for (i, a) in path.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{}", a.0);
    }
    out.push(']');
    out
}

fn to_entry(i: usize) -> u32 {
    u32::try_from(i).expect("table entry index fits u32")
}

fn from_entry(e: u32) -> usize {
    e as usize
}
