//! Oracle property tests for data-plane fault injection, over random
//! routing schedules punctuated by router crashes, silent traffic drops,
//! and link flaps — with and without RFC 4724 graceful restart.
//!
//! - The network must heal completely: the final frozen snapshot (legacy
//!   RIBs, flow tables, session liveness, speaker adj-out) must be
//!   byte-identical to a fault-free oracle driven through the same routing
//!   schedule, and the static verifier must pass. Any divergence means a
//!   session deadlocked half-open, a stale route outlived its window, or a
//!   withdrawal was lost in the chaos.
//! - At every checkpoint, mid-fault as well as after healing,
//!   `Experiment::connectivity_audit` (a query on the static verifier's
//!   per-prefix successor function) must agree pair for pair with the
//!   host-to-host walker it replaced, kept here as `mod reference`. The
//!   reference differs from the deleted walker in one rule, stated by its
//!   `decide`: a hop over a down link or into a crashed node is a
//!   blackhole, for legacy routers as for switches. The old walker checked
//!   only a switch's link and never liveness, so it forwarded through
//!   crashed routers and over failed legacy links.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use bgpsdn_bgp::{PolicyMode, Prefix, TimingConfig};
use bgpsdn_core::{AsKind, Experiment, NetworkBuilder, Router, ScriptAction, Switch};
use bgpsdn_netsim::{LinkId, NodeId, SimDuration};
use bgpsdn_sdn::FlowAction;
use bgpsdn_topology::{gen, plan, AsGraph};

/// The host-to-host forwarding walker the verifier query replaced.
mod reference {
    use std::collections::HashSet;
    use std::net::Ipv4Addr;

    use bgpsdn_netsim::NodeId;

    /// One node's forwarding decision for a destination address.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Hop {
        /// Forward to this adjacent node.
        Forward(NodeId),
        /// The destination is local: delivered.
        Deliver,
        /// No usable forwarding state for this destination.
        Blackhole,
    }

    /// Outcome of one forwarding walk.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum PathResult {
        Delivered,
        Loop,
        Blackhole,
        HopBudgetExceeded,
    }

    /// Walk the forwarding state from `start` toward `dst`.
    pub fn walk(
        start: NodeId,
        dst: Ipv4Addr,
        max_hops: usize,
        mut decide: impl FnMut(NodeId, Ipv4Addr) -> Hop,
    ) -> PathResult {
        let mut seen: HashSet<NodeId> = HashSet::from([start]);
        let mut cur = start;
        for _ in 0..max_hops {
            match decide(cur, dst) {
                Hop::Deliver => return PathResult::Delivered,
                Hop::Blackhole => return PathResult::Blackhole,
                Hop::Forward(next) => {
                    if !seen.insert(next) {
                        return PathResult::Loop;
                    }
                    cur = next;
                }
            }
        }
        PathResult::HopBudgetExceeded
    }

    /// All-pairs audit counts plus the failing `(source, address)` pairs.
    #[derive(Debug, Default)]
    pub struct Audit {
        pub delivered: usize,
        pub blackholed: usize,
        pub looped: usize,
        pub failures: Vec<(NodeId, Ipv4Addr)>,
    }

    /// Audit every source against every `(dst_node, dst_addr)`, skipping
    /// a source's own destination.
    pub fn audit(
        sources: &[NodeId],
        destinations: &[(NodeId, Ipv4Addr)],
        max_hops: usize,
        mut decide: impl FnMut(NodeId, Ipv4Addr) -> Hop,
    ) -> Audit {
        let mut report = Audit::default();
        for &src in sources {
            for &(dst_node, dst_addr) in destinations {
                if src == dst_node {
                    continue;
                }
                match walk(src, dst_addr, max_hops, &mut decide) {
                    PathResult::Delivered => {
                        report.delivered += 1;
                        continue;
                    }
                    PathResult::Blackhole => report.blackholed += 1,
                    PathResult::Loop | PathResult::HopBudgetExceeded => report.looped += 1,
                }
                report.failures.push((src, dst_addr));
            }
        }
        report
    }
}

use reference::Hop;

/// Clique size: ASes 0..2 stay legacy, 3..5 form the cluster.
const N: usize = 6;
const MEMBERS: [usize; 3] = [3, 4, 5];
const DEADLINE: SimDuration = SimDuration::from_secs(3600);
/// Short hold time so fault detection fits the schedule's dwell windows.
const HOLD_SECS: u16 = 3;
/// Fault dwell: longer than hold expiry (~4.5 s worst case), shorter than
/// the bounded reconnect-retry budget (~31 s).
const DWELL: SimDuration = SimDuration::from_secs(6);

/// One step of the random schedule. Routing ops go to both runs; fault
/// ops (self-contained crash→restore / drop→restore windows) go only to
/// the faulty run — a healed network must look exactly like one that
/// never saw the fault.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// AS `origin` announces its `sub`-th /24.
    Announce { origin: usize, sub: usize },
    /// AS `origin` withdraws its `sub`-th /24 (no-op when never announced).
    Withdraw { origin: usize, sub: usize },
    /// Legacy router `i` crashes, dwells dead past hold expiry, restarts.
    CrashRouter { i: usize },
    /// Overlapping outages: crash `i`, crash `j`, restore `i`, restore
    /// `j`. The OPEN `i` sends on restart dies at the crashed `j`, so `j`'s
    /// own OPEN later finds `i` in OpenSent, and `i`'s KEEPALIVE reply
    /// reaches `j` in OpenSent.
    OverlappingCrash { i: usize, j: usize },
    /// The `a`–`b` edge silently eats all traffic for a dwell window:
    /// no link event fires, only hold timers can notice.
    SilentDrop { a: usize, b: usize },
    /// Clique edge `a`–`b` flaps (down, converge, up).
    Flap { a: usize, b: usize },
}

fn is_fault(op: Op) -> bool {
    !matches!(op, Op::Announce { .. } | Op::Withdraw { .. })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..N, 0..4usize).prop_map(|(origin, sub)| Op::Announce { origin, sub }),
        (0..N, 0..4usize).prop_map(|(origin, sub)| Op::Withdraw { origin, sub }),
        // Only legacy devices run the full BGP lifecycle; member switches
        // are driven by the controller and have no sessions to expire.
        (0..MEMBERS[0]).prop_map(|i| Op::CrashRouter { i }),
        (0..MEMBERS[0], 1..MEMBERS[0]).prop_map(|(i, d)| Op::OverlappingCrash {
            i,
            j: (i + d) % MEMBERS[0],
        }),
        (0..N, 1..N).prop_map(|(a, d)| Op::SilentDrop { a, b: (a + d) % N }),
        (0..N, 1..N).prop_map(|(a, d)| Op::Flap { a, b: (a + d) % N }),
    ]
}

fn build(seed: u64, gr_secs: u16) -> Experiment {
    let ag = AsGraph::all_peer(&gen::clique(N), 65000);
    let mut timing = TimingConfig::with_mrai(SimDuration::ZERO);
    timing.hold_time_secs = HOLD_SECS;
    timing.graceful_restart_secs = gr_secs;
    let tp = plan(ag, PolicyMode::AllPermit, timing).expect("address plan");
    let net = NetworkBuilder::new(tp, seed)
        .with_sdn_members(MEMBERS.to_vec())
        .with_recompute_delay(SimDuration::from_millis(50))
        .build();
    let mut exp = Experiment::new(net);
    let up = exp.start(DEADLINE);
    assert!(up.converged, "bring-up did not converge");
    exp
}

fn quiesce(exp: &mut Experiment) {
    let deadline = exp.net.sim.now() + DEADLINE;
    let q = exp.net.sim.run_until_quiescent(deadline);
    assert!(q.quiescent, "schedule step did not quiesce");
}

/// Drive one op to quiescence, calling `check` mid-fault and at the end.
/// `check` only reads the network, so it cannot change what the op does.
fn apply(exp: &mut Experiment, op: Op, check: &mut dyn FnMut(&Experiment)) {
    match op {
        Op::Announce { origin, sub } => {
            let p = sub_prefix(exp.net.ases[origin].prefix, sub);
            exp.apply(&ScriptAction::Announce {
                as_index: origin,
                prefix: Some(p),
            });
        }
        Op::Withdraw { origin, sub } => {
            let p = sub_prefix(exp.net.ases[origin].prefix, sub);
            exp.apply(&ScriptAction::Withdraw {
                as_index: origin,
                prefix: Some(p),
            });
        }
        Op::CrashRouter { i } => {
            exp.apply(&ScriptAction::CrashRouter(i));
            exp.net.sim.run_for(DWELL);
            check(exp);
            exp.apply(&ScriptAction::RestoreRouter(i));
        }
        Op::OverlappingCrash { i, j } => {
            exp.apply(&ScriptAction::CrashRouter(i));
            exp.net.sim.run_for(DWELL);
            exp.apply(&ScriptAction::CrashRouter(j));
            exp.net.sim.run_for(DWELL);
            check(exp);
            exp.apply(&ScriptAction::RestoreRouter(i));
            exp.net.sim.run_for(DWELL);
            check(exp);
            exp.apply(&ScriptAction::RestoreRouter(j));
        }
        Op::SilentDrop { a, b } => {
            exp.apply(&ScriptAction::DropEdgeTraffic(a, b));
            exp.net.sim.run_for(DWELL);
            check(exp);
            exp.apply(&ScriptAction::RestoreEdgeTraffic(a, b));
        }
        Op::Flap { a, b } => {
            exp.apply(&ScriptAction::FailEdge(a, b));
            check(exp);
            quiesce(exp);
            check(exp);
            exp.apply(&ScriptAction::RestoreEdge(a, b));
        }
    }
    quiesce(exp);
    check(exp);
}

/// The `sub`-th aligned /24 inside an AS's /16 block.
fn sub_prefix(base: Prefix, sub: usize) -> Prefix {
    Prefix::new(Ipv4Addr::from(base.network_u32() + ((sub as u32) << 8)), 24)
        .expect("aligned /24 inside the /16")
}

fn snapshot_bytes(exp: &Experiment) -> String {
    exp.capture_snapshot().to_json().to_compact()
}

/// The reference's forwarding decision of any AS device for an address.
fn decide(exp: &Experiment, node: NodeId, dst: Ipv4Addr) -> Hop {
    let net = &exp.net;
    let Some(me) = net.ases.iter().find(|a| a.node == node) else {
        return Hop::Blackhole;
    };
    // The one rule the old walker lacked: a hop needs a live link into a
    // live node.
    let hop = |link: Option<LinkId>, next: NodeId| match link {
        Some(l) if net.sim.link(l).up && net.sim.node_is_up(next) => Hop::Forward(next),
        _ => Hop::Blackhole,
    };
    match me.kind {
        AsKind::Legacy => {
            let r = net.sim.node_ref::<Router>(node);
            if r.originated().any(|p| p.contains(dst)) {
                return Hop::Deliver;
            }
            let Some((prefix, _)) = r.loc_rib().lpm(dst) else {
                return Hop::Blackhole;
            };
            match r.next_hop_node(prefix) {
                None => Hop::Deliver,
                Some(next) => {
                    let peer = net.ases.iter().find(|a| a.node == next);
                    hop(peer.and_then(|p| net.link_between(me.index, p.index)), next)
                }
            }
        }
        AsKind::SdnMember => {
            let sw = net.sim.node_ref::<Switch>(node);
            match sw.table().lookup(dst).map(|r| r.action) {
                Some(FlowAction::Local) => Hop::Deliver,
                Some(FlowAction::Output(port)) => {
                    let link = LinkId(port);
                    hop(Some(link), net.sim.link(link).other(node))
                }
                _ => Hop::Blackhole,
            }
        }
    }
}

/// Both models over the live network: counts and failing pairs agree.
fn assert_models_agree(exp: &Experiment, trail: &str) {
    let net = &exp.net;
    let sources: Vec<NodeId> = net.ases.iter().map(|a| a.node).collect();
    let destinations: Vec<(NodeId, Ipv4Addr)> =
        net.ases.iter().map(|a| (a.node, a.router_ip)).collect();
    let want = reference::audit(&sources, &destinations, N * 2 + 4, |n, d| decide(exp, n, d));
    let got = exp.connectivity_audit();
    assert_eq!(
        (got.delivered, got.blackholed, got.looped),
        (want.delivered, want.blackholed, want.looped),
        "counts diverge after {trail}: {:?}",
        got.failures
    );
    let vertex = |n: NodeId| net.ases.iter().position(|a| a.node == n).expect("AS node");
    let mut want_pairs: Vec<(usize, Ipv4Addr)> = want
        .failures
        .iter()
        .map(|&(src, addr)| (vertex(src), addr))
        .collect();
    let mut got_pairs: Vec<(usize, Ipv4Addr)> = got
        .failures
        .iter()
        .map(|(src, addr, _)| (*src, *addr))
        .collect();
    want_pairs.sort_unstable();
    got_pairs.sort_unstable();
    assert_eq!(got_pairs, want_pairs, "failing pairs diverge after {trail}");
}

proptest! {
    #[test]
    fn chaos_run_matches_fault_free_oracle(
        seed in 0u64..1000,
        gr in prop::arbitrary::any::<bool>(),
        ops in prop::collection::vec(arb_op(), 1..6),
    ) {
        let gr_secs = if gr { 60 } else { 0 };
        let mut faulty = build(seed, gr_secs);
        let mut oracle = build(seed, gr_secs);

        for &op in &ops {
            apply(&mut faulty, op, &mut |_| {});
            if !is_fault(op) {
                apply(&mut oracle, op, &mut |_| {});
            }
        }
        quiesce(&mut faulty);
        quiesce(&mut oracle);

        prop_assert_eq!(
            snapshot_bytes(&faulty),
            snapshot_bytes(&oracle),
            "healed chaos run diverged from the fault-free oracle after {:?} (gr={})",
            ops, gr_secs
        );
        let v = faulty.verify_now().report;
        prop_assert!(v.ok(), "post-chaos invariant violations:\n{}", v.render());
    }

    /// Same-seed determinism under chaos: two runs of an identical fault
    /// schedule must agree byte-for-byte, so campaign cells with fault
    /// plans stay reproducible.
    #[test]
    fn chaos_runs_are_deterministic(
        seed in 0u64..1000,
        ops in prop::collection::vec(arb_op(), 1..4),
    ) {
        let mut a = build(seed, 60);
        let mut b = build(seed, 60);
        for &op in &ops {
            apply(&mut a, op, &mut |_| {});
            apply(&mut b, op, &mut |_| {});
        }
        prop_assert_eq!(
            snapshot_bytes(&a),
            snapshot_bytes(&b),
            "same seed, same schedule must reproduce byte-identical state"
        );
    }

    /// The one forwarding model against the walker it replaced, at every
    /// mid-fault and healed checkpoint.
    #[test]
    fn verifier_query_matches_the_reference_walker(
        seed in 0u64..1000,
        gr in prop::arbitrary::any::<bool>(),
        ops in prop::collection::vec(arb_op(), 1..6),
    ) {
        let mut exp = build(seed, if gr { 60 } else { 0 });
        assert_models_agree(&exp, "bring-up");
        let mut trail = String::new();
        for &op in &ops {
            trail.push_str(&format!("{op:?} "));
            apply(&mut exp, op, &mut |e| assert_models_agree(e, &trail));
        }
    }
}
