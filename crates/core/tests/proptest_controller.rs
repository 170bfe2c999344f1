//! Oracle property test for the controller's incremental recompute: over
//! random announce / withdraw / link-flap sequences, the dirty-set
//! incremental path and the full-table baseline must compile **identical**
//! state — byte-identical installed flow tables on every member and
//! byte-identical adj-out on every speaker session. Both runs share one
//! seed, so any divergence is the incremental invalidation logic missing a
//! dependency.
//!
//! A second property pins the per-member announcement memo the recompute
//! loop diffs against to the per-session formula it replaced.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use bgpsdn_bgp::{Asn, PolicyMode, Prefix, SharedPath, TimingConfig};
use bgpsdn_core::controller::as_graph::egress_session_of;
use bgpsdn_core::{
    announced_path, compute, AnnounceMemo, Controller, Experiment, ExternalRoute, NetworkBuilder,
    ScriptAction, SwitchGraph,
};
use bgpsdn_netsim::{LinkId, SimDuration};
use bgpsdn_topology::{gen, plan, AsGraph};

/// Clique size: ASes 0..2 stay legacy, 3..5 form the cluster, so every op
/// class exists — external sessions (legacy↔member), intra-cluster links
/// (member↔member), and both legacy and cluster prefix origination.
const N: usize = 6;
const MEMBERS: [usize; 3] = [3, 4, 5];

/// One step of the random schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// AS `origin` announces its `sub`-th /24.
    Announce { origin: usize, sub: usize },
    /// AS `origin` withdraws its `sub`-th /24 (a no-op when never
    /// announced — the schedule need not be well-formed).
    Withdraw { origin: usize, sub: usize },
    /// The clique edge `a`–`b` goes down, the network converges, then the
    /// edge comes back. Member–member pairs exercise the switch-graph
    /// (all-dirty) path; legacy–member pairs the session up/down path.
    Flap { a: usize, b: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..N, 0..4usize).prop_map(|(origin, sub)| Op::Announce { origin, sub }),
        (0..N, 0..4usize).prop_map(|(origin, sub)| Op::Withdraw { origin, sub }),
        (0..N, 1..N).prop_map(|(a, d)| Op::Flap { a, b: (a + d) % N }),
    ]
}

const DEADLINE: SimDuration = SimDuration::from_secs(3600);

fn build(seed: u64, incremental: bool) -> Experiment {
    let ag = AsGraph::all_peer(&gen::clique(N), 65000);
    let tp = plan(
        ag,
        PolicyMode::AllPermit,
        TimingConfig::with_mrai(SimDuration::ZERO),
    )
    .expect("address plan");
    let mut b = NetworkBuilder::new(tp, seed)
        .with_sdn_members(MEMBERS.to_vec())
        .with_recompute_delay(SimDuration::from_millis(50));
    if !incremental {
        b = b.with_full_recompute();
    }
    let mut exp = Experiment::new(b.build());
    let up = exp.start(DEADLINE);
    assert!(up.converged, "bring-up did not converge");
    exp
}

fn quiesce(exp: &mut Experiment) {
    let deadline = exp.net.sim.now() + DEADLINE;
    let q = exp.net.sim.run_until_quiescent(deadline);
    assert!(q.quiescent, "schedule step did not quiesce");
}

fn apply(exp: &mut Experiment, op: Op) {
    match op {
        Op::Announce { origin, sub } => {
            let p = sub_prefix(exp.net.ases[origin].prefix, sub);
            exp.apply(&ScriptAction::Announce {
                as_index: origin,
                prefix: Some(p),
            });
            quiesce(exp);
        }
        Op::Withdraw { origin, sub } => {
            let p = sub_prefix(exp.net.ases[origin].prefix, sub);
            exp.apply(&ScriptAction::Withdraw {
                as_index: origin,
                prefix: Some(p),
            });
            quiesce(exp);
        }
        Op::Flap { a, b } => {
            exp.apply(&ScriptAction::FailEdge(a, b));
            quiesce(exp);
            exp.apply(&ScriptAction::RestoreEdge(a, b));
            quiesce(exp);
        }
    }
}

/// The `sub`-th aligned /24 inside an AS's /16 block.
fn sub_prefix(base: Prefix, sub: usize) -> Prefix {
    Prefix::new(Ipv4Addr::from(base.network_u32() + ((sub as u32) << 8)), 24)
        .expect("aligned /24 inside the /16")
}

proptest! {
    #[test]
    fn incremental_recompute_matches_full_oracle(
        seed in 0u64..1000,
        ops in prop::collection::vec(arb_op(), 1..10),
    ) {
        let mut inc = build(seed, true);
        let mut full = build(seed, false);
        for &op in &ops {
            apply(&mut inc, op);
            apply(&mut full, op);
        }

        let inc_ctl = inc.net.clusters[0].controller;
        let full_ctl = full.net.clusters[0].controller;
        let a = inc.net.sim.node_ref::<Controller>(inc_ctl);
        let b = full.net.sim.node_ref::<Controller>(full_ctl);

        prop_assert_eq!(a.member_count(), b.member_count());
        for m in 0..a.member_count() {
            prop_assert_eq!(
                a.installed_table(m),
                b.installed_table(m),
                "installed flow table diverged at member {} after {:?}",
                m,
                ops
            );
        }
        prop_assert_eq!(a.session_count(), b.session_count());
        for s in 0..a.session_count() {
            prop_assert_eq!(
                a.adj_out_table(s),
                b.adj_out_table(s),
                "adj-out diverged at session {} after {:?}",
                s,
                ops
            );
            prop_assert_eq!(a.session_is_up(s), b.session_is_up(s));
        }
    }
}

/// End to end: when one batch announces a new prefix on several sessions of
/// a member, those sessions' adj-out entries share one allocation. (A path
/// starts with the announcing member's ASN, so equal paths mean one member.)
#[test]
fn sessions_of_one_member_share_the_announced_path() {
    let mut exp = build(7, true);
    let p = sub_prefix(exp.net.ases[0].prefix, 1);
    apply(&mut exp, Op::Announce { origin: 0, sub: 1 });
    let ctl_id = exp.net.clusters[0].controller;
    let ctl = exp.net.sim.node_ref::<Controller>(ctl_id);
    let paths: Vec<&SharedPath> = (0..ctl.session_count())
        .filter_map(|s| ctl.adj_out_table(s).get(&p))
        .collect();
    let mut shared_pairs = 0;
    for (i, a) in paths.iter().enumerate() {
        for b in &paths[i + 1..] {
            if a == b {
                assert!(a.same_interned(b), "equal paths {a} allocated twice");
                shared_pairs += 1;
            }
        }
    }
    assert!(shared_pairs >= MEMBERS.len(), "each member announces twice");
}

/// Member `i` is AS `100 + i`; external ASNs are drawn from `1..=8`.
fn member_asn(i: usize) -> Asn {
    Asn(100 + i as u32)
}

proptest! {
    /// For random clusters, owners, external routes and session-up vectors,
    /// the memo answers every session, in index order, exactly as the old
    /// per-session formula did — split horizon, `announced_path`, peer not
    /// already on the path — and every session of one member that gets a
    /// path gets the same interned handle.
    #[test]
    fn announce_memo_matches_per_session_formula(
        n in 1usize..7,
        raw_links in prop::collection::vec((0usize..64, 1usize..64, any::<bool>()), 0..12),
        owner in prop::option::of(0usize..64),
        raw_sessions in prop::collection::vec(
            (
                0usize..64,
                1u32..9,
                any::<bool>(),
                prop::option::of(prop::collection::vec(1u32..9, 0..4)),
            ),
            0..20,
        ),
    ) {
        let mut sg = SwitchGraph::new(
            n,
            raw_links
                .iter()
                .enumerate()
                .filter(|_| n > 1)
                .map(|(i, &(a, d, _))| (a % n, (a % n + 1 + d % (n - 1)) % n, LinkId(i as u32)))
                .collect(),
        );
        for (i, &(_, _, up)) in raw_links.iter().enumerate() {
            sg.set_link_state(LinkId(i as u32), up);
        }
        let member_asns: Vec<Asn> = (0..n).map(member_asn).collect();
        // Session `s` sits at member `x` toward `ext_asn`; a live route
        // exists only on an up session, as `live_ext_routes` guarantees.
        let sessions: Vec<(usize, Asn, bool)> = raw_sessions
            .iter()
            .map(|&(x, ext_asn, up, _)| (x % n, Asn(ext_asn), up))
            .collect();
        let ext: Vec<ExternalRoute> = raw_sessions
            .iter()
            .enumerate()
            .filter(|(_, r)| r.2)
            .filter_map(|(s, r)| {
                // Not forced to start with the session's peer ASN, so split
                // horizon is checked apart from the peer-on-path filter.
                let as_path: SharedPath = r.3.as_ref()?.iter().copied().map(Asn).collect();
                Some(ExternalRoute { session: s, member: r.0 % n, as_path, med: None })
            })
            .collect();
        let comp = compute(&sg, owner.map(|o| o % n), &ext);

        // The memo is fed borrowed routes, as the controller feeds it.
        let borrowed: Vec<&ExternalRoute> = ext.iter().collect();
        let mut memo = AnnounceMemo::default();
        // A stale prefix in the memo must not leak into this one.
        memo.reset(n);
        memo.path_toward(0, usize::MAX, Asn(0), &comp, &borrowed, &member_asns);
        memo.reset(n);

        let mut handles: Vec<Vec<SharedPath>> = vec![Vec::new(); n];
        for (s, &(x, ext_asn, up)) in sessions.iter().enumerate() {
            if !up {
                continue;
            }
            let old = if egress_session_of(x, &comp) == Some(s) {
                None
            } else {
                announced_path(x, &comp, &ext, &member_asns)
                    .filter(|path| !path.contains(&ext_asn))
            };
            let new = memo
                .path_toward(x, s, ext_asn, &comp, &borrowed, &member_asns)
                .map(<[Asn]>::to_vec);
            prop_assert_eq!(&new, &old, "session {} at member {}", s, x);
            if let Some(path) = old {
                let shared = memo.shared(x);
                prop_assert_eq!(&*shared, path.as_slice());
                handles[x].push(shared);
            }
        }
        for (x, hs) in handles.iter().enumerate() {
            for h in hs {
                prop_assert!(h.same_interned(&hs[0]), "member {} allocated twice", x);
            }
        }
    }
}
