//! Oracle property test for the controller's dirty-set recompute: over
//! random announce / withdraw / link-flap sequences, after bring-up and
//! after every step of the schedule, the compiled state — the installed
//! flow table of every member and the adj-out of every speaker session —
//! must equal what `mod reference` works out from scratch for every prefix
//! the schedule can make exist. Any divergence is the recompute's
//! invalidation logic missing a dependency.
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
/// /24s per AS a schedule announces and withdraws. Few, so that a random
/// withdrawal often hits a prefix an earlier step announced.
const SUBS: usize = 2;

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
        (0..N, 0..SUBS).prop_map(|(origin, sub)| Op::Announce { origin, sub }),
        (0..N, 0..SUBS).prop_map(|(origin, sub)| Op::Withdraw { origin, sub }),
        (0..N, 1..N).prop_map(|(a, d)| Op::Flap { a, b: (a + d) % N }),
    ]
}

const DEADLINE: SimDuration = SimDuration::from_secs(3600);

/// The network after bring-up, checked against the reference.
fn build(seed: u64) -> Result<Experiment, String> {
    let ag = AsGraph::all_peer(&gen::clique(N), 65000);
    let tp = plan(
        ag,
        PolicyMode::AllPermit,
        TimingConfig::with_mrai(SimDuration::ZERO),
    )
    .expect("address plan");
    let b = NetworkBuilder::new(tp, seed)
        .with_sdn_members(MEMBERS.to_vec())
        .with_recompute_delay(SimDuration::from_millis(50));
    let mut exp = Experiment::new(b.build());
    let up = exp.start(DEADLINE);
    assert!(up.converged, "bring-up did not converge");
    reference::check(&exp).map_err(|e| format!("after bring-up: {e}"))?;
    Ok(exp)
}

/// Run to quiescence, then check the controller against the reference.
fn quiesce(exp: &mut Experiment) -> Result<(), String> {
    let deadline = exp.net.sim.now() + DEADLINE;
    let q = exp.net.sim.run_until_quiescent(deadline);
    assert!(q.quiescent, "schedule step did not quiesce");
    reference::check(exp)
}

fn apply(exp: &mut Experiment, op: Op) -> Result<(), String> {
    match op {
        Op::Announce { origin, sub } => {
            let p = sub_prefix(exp.net.ases[origin].prefix, sub);
            exp.apply(&ScriptAction::Announce {
                as_index: origin,
                prefix: Some(p),
            });
            quiesce(exp)
        }
        Op::Withdraw { origin, sub } => {
            let p = sub_prefix(exp.net.ases[origin].prefix, sub);
            exp.apply(&ScriptAction::Withdraw {
                as_index: origin,
                prefix: Some(p),
            });
            quiesce(exp)
        }
        Op::Flap { a, b } => {
            exp.apply(&ScriptAction::FailEdge(a, b));
            quiesce(exp).map_err(|e| format!("with the edge down: {e}"))?;
            exp.apply(&ScriptAction::RestoreEdge(a, b));
            quiesce(exp)
        }
    }
}

/// The `sub`-th aligned /24 inside an AS's /16 block.
fn sub_prefix(base: Prefix, sub: usize) -> Prefix {
    Prefix::new(Ipv4Addr::from(base.network_u32() + ((sub as u32) << 8)), 24)
        .expect("aligned /24 inside the /16")
}

/// What the controller must hold once the network is quiescent, worked out
/// from scratch: [`Controller::computation_for`] of every prefix the
/// schedule can make exist, compiled to each member's flow action, and to
/// each session's announced path over the routes the legacy peers actually
/// sent the cluster (their Adj-RIB-Out toward the member).
mod reference {
    use bgpsdn_bgp::{Asn, Prefix};
    use bgpsdn_core::controller::as_graph::egress_session_of;
    use bgpsdn_core::{
        announced_path, Controller, Experiment, ExternalRoute, MemberDecision, Router, Speaker,
    };
    use bgpsdn_netsim::{LinkId, NodeId};
    use bgpsdn_sdn::FlowAction;

    use super::{sub_prefix, SUBS};

    /// One speaker session, resolved against the built network.
    struct Session {
        member: usize,
        alias: NodeId,
        peer: NodeId,
        peer_asn: Asn,
        ext_link: LinkId,
    }

    /// Every AS's own /16 and the /24s a schedule may announce in it.
    fn universe(exp: &Experiment) -> Vec<Prefix> {
        exp.net
            .ases
            .iter()
            .flat_map(|a| {
                std::iter::once(a.prefix).chain((0..SUBS).map(|j| sub_prefix(a.prefix, j)))
            })
            .collect()
    }

    /// `Err` names the member or session and the prefix where the compiled
    /// state first differs from the reference.
    pub fn check(exp: &Experiment) -> Result<(), String> {
        let cluster = &exp.net.clusters[0];
        let ctl = exp.net.sim.node_ref::<Controller>(cluster.controller);
        let speaker = exp.net.sim.node_ref::<Speaker>(cluster.speaker);
        if ctl.epoch() == 0 || ctl.resync_pending() {
            return Err("controller unsynced".into());
        }
        let members: Vec<_> = cluster.members.iter().map(|&i| &exp.net.ases[i]).collect();
        let member_asns: Vec<Asn> = members.iter().map(|a| a.asn).collect();
        let sessions: Vec<Session> = (0..speaker.session_count())
            .map(|s| {
                let cfg = speaker.session_config(s);
                let member = members.iter().position(|a| a.node == cfg.alias).unwrap();
                let peer = exp
                    .net
                    .ases
                    .iter()
                    .find(|a| a.node == cfg.ext_peer)
                    .unwrap();
                let ext_link = exp.net.link_between(members[member].index, peer.index);
                Session {
                    member,
                    alias: cfg.alias,
                    peer: peer.node,
                    peer_asn: peer.asn,
                    ext_link: ext_link.unwrap(),
                }
            })
            .collect();
        assert_eq!(ctl.member_count(), members.len());
        assert_eq!(ctl.session_count(), sessions.len());

        let sg = ctl.switch_graph();
        let universe = universe(exp);
        for &p in &universe {
            let comp = ctl.computation_for(p);
            for (m, decision) in comp.decisions.iter().enumerate() {
                let want = match *decision {
                    MemberDecision::Unreachable => None,
                    MemberDecision::Local => Some(FlowAction::Local),
                    MemberDecision::ViaMember(next) => {
                        sg.link_between(m, next).map(|l| FlowAction::Output(l.0))
                    }
                    MemberDecision::Egress(s) => Some(FlowAction::Output(sessions[s].ext_link.0)),
                };
                let have = ctl.installed_action(m, p);
                if have != want {
                    return Err(format!(
                        "member {m}, prefix {p}: installed {have:?}, reference {want:?}"
                    ));
                }
            }
            let ext: Vec<ExternalRoute> = sessions
                .iter()
                .enumerate()
                .filter(|&(s, _)| ctl.session_is_up(s))
                .filter_map(|(s, sess)| {
                    let router = exp.net.sim.node_ref::<Router>(sess.peer);
                    let sent = router.advertised_to(sess.alias, p)?;
                    Some(ExternalRoute {
                        session: s,
                        member: sess.member,
                        as_path: sent.as_path.flatten().into(),
                        med: sent.med,
                    })
                })
                .collect();
            for (s, sess) in sessions.iter().enumerate() {
                let x = sess.member;
                let want = if !ctl.session_is_up(s) || egress_session_of(x, &comp) == Some(s) {
                    None
                } else {
                    announced_path(x, &comp, &ext, &member_asns)
                        .filter(|path| !path.contains(&sess.peer_asn))
                };
                let have = ctl.adj_out_table(s).get(&p).map(|path| path.to_vec());
                if have != want {
                    return Err(format!(
                        "session {s} at member {x}, prefix {p}: announced {have:?}, \
                         reference {want:?}"
                    ));
                }
            }
        }
        // Nothing stays compiled for a prefix outside the schedule's reach.
        for m in 0..members.len() {
            if let Some(p) = ctl
                .installed_table(m)
                .keys()
                .find(|p| !universe.contains(p))
            {
                return Err(format!("member {m} holds a flow for {p}"));
            }
        }
        for s in 0..sessions.len() {
            if let Some(p) = ctl.adj_out_table(s).keys().find(|p| !universe.contains(p)) {
                return Err(format!("session {s} announces {p}"));
            }
        }
        Ok(())
    }
}

proptest! {
    #[test]
    fn compiled_state_matches_reference_after_every_op(
        seed in 0u64..1000,
        ops in prop::collection::vec(arb_op(), 1..10),
    ) {
        let built = build(seed);
        prop_assert!(built.is_ok(), "seed {}: {}", seed, built.as_ref().err().unwrap());
        let mut exp = built.unwrap();
        for (i, &op) in ops.iter().enumerate() {
            let step = apply(&mut exp, op);
            prop_assert!(
                step.is_ok(),
                "seed {}, after {:?}: {}",
                seed,
                &ops[..=i],
                step.unwrap_err()
            );
        }
    }
}

/// End to end: when one batch announces a new prefix on several sessions of
/// a member, those sessions' adj-out entries share one allocation. (A path
/// starts with the announcing member's ASN, so equal paths mean one member.)
#[test]
fn sessions_of_one_member_share_the_announced_path() {
    let mut exp = build(7).unwrap();
    let p = sub_prefix(exp.net.ases[0].prefix, 1);
    apply(&mut exp, Op::Announce { origin: 0, sub: 1 }).unwrap();
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
