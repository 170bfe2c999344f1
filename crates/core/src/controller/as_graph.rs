//! The per-prefix AS topology graph and route computation.
//!
//! The paper's second controller graph: "the *AS topology graph*, which is a
//! transformation of the switch graph per destination prefix. The
//! transformation is restructuring the graph taking carefully into account
//! paths that cross the legacy world and the SDN cluster so as to avoid
//! loops. Best path calculations are based on the Dijkstra algorithm,
//! running on the AS topology graph."
//!
//! Concretely, for one destination prefix the graph consists of the cluster
//! members (weight-1 intra-cluster edges from the switch graph, up links
//! only) plus a virtual destination vertex attached
//!
//! * to the owning member with weight 0, when the prefix is
//!   cluster-originated, and
//! * to each member holding an accepted external route, with weight equal
//!   to that route's AS-path length.
//!
//! Dijkstra from the virtual destination yields, for every member, its
//! distance and next hop — either another member (transit inside the
//! cluster) or an egress session into the legacy world.
//!
//! **Loop avoidance** (the paper's "important insight"): an external route
//! whose AS_PATH already contains any cluster member's ASN is rejected
//! before it enters the graph — it describes a path that would re-enter the
//! cluster through the legacy world, and using it could form a forwarding
//! loop that distributed BGP's per-hop AS_PATH check would have caught.

use std::borrow::Borrow;
use std::collections::{BTreeSet, VecDeque};

use bgpsdn_bgp::{Asn, SharedPath};

use super::switch_graph::SwitchGraph;

/// An external route held by the controller for some prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternalRoute {
    /// Speaker session it was learned on.
    pub session: usize,
    /// Member whose border that session sits at.
    pub member: usize,
    /// The advertised AS path (first element = the external neighbor).
    /// Interned: one UPDATE announcing many prefixes shares one allocation.
    pub as_path: SharedPath,
    /// MED, if sent.
    pub med: Option<u32>,
}

/// Accept or reject an external route per the cluster loop-avoidance rule.
pub fn accept_route(as_path: &[Asn], member_asns: &BTreeSet<Asn>) -> bool {
    !as_path.iter().any(|a| member_asns.contains(a))
}

/// What one member should do with traffic for the prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberDecision {
    /// No path at all.
    Unreachable,
    /// The prefix is this member's own.
    Local,
    /// Forward to an adjacent member (intra-cluster transit).
    ViaMember(usize),
    /// Leave the cluster through this session.
    Egress(usize),
}

/// The full routing decision for one prefix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrefixComputation {
    /// Per-member decision, indexed by member.
    pub decisions: Vec<MemberDecision>,
    /// Per-member total cost (internal hops + external AS hops);
    /// `None` = unreachable.
    pub dist: Vec<Option<u32>>,
}

/// Reusable Dijkstra/BFS scratch buffers for [`compute_into`].
///
/// One prefix computation needs five working vectors plus a BFS queue; a
/// controller recomputing hundreds of prefixes per batch reuses one scratch
/// across all of them instead of allocating per prefix.
#[derive(Debug, Default)]
pub struct ComputeScratch {
    seeds: Vec<(u32, usize, MemberDecision)>,
    decided: Vec<bool>,
    done: Vec<bool>,
    bfs_dist: Vec<Option<usize>>,
    bfs_prev: Vec<Option<usize>>,
    bfs_queue: VecDeque<usize>,
}

/// Run the per-prefix computation.
///
/// `owner` is the member originating the prefix (if cluster-owned); `ext`
/// are the accepted external routes. Deterministic: ties break toward the
/// lower session index, then the lower member index.
pub(crate) fn compute(
    sg: &SwitchGraph,
    owner: Option<usize>,
    ext: &[ExternalRoute],
) -> PrefixComputation {
    let mut out = PrefixComputation::default();
    compute_into(sg, owner, ext, &mut ComputeScratch::default(), &mut out);
    out
}

/// [`compute`] into caller-provided scratch and output buffers. Identical
/// results; no per-call allocation once the buffers have warmed up. Routes
/// are taken owned or by reference, so a caller holding them in a table
/// need not clone them out first.
pub fn compute_into<R: Borrow<ExternalRoute>>(
    sg: &SwitchGraph,
    owner: Option<usize>,
    ext: &[R],
    scratch: &mut ComputeScratch,
    out: &mut PrefixComputation,
) {
    let n = sg.len();
    let dist = &mut out.dist;
    dist.clear();
    dist.resize(n, None);
    // How the best path leaves each member.
    let via = &mut out.decisions;
    via.clear();
    via.resize(n, MemberDecision::Unreachable);

    // Cluster-owned prefixes route internally wherever the owner is
    // reachable (a local route beats any external candidate, like the
    // Loc-RIB preference of a single AS). Members cut off from the owner by
    // a partition fall through to the egress computation below — reaching
    // the other sub-cluster over the legacy world (§2's sub-cluster goal).
    if let Some(o) = owner {
        sg.bfs_into(
            o,
            &mut scratch.bfs_dist,
            &mut scratch.bfs_prev,
            &mut scratch.bfs_queue,
        );
        for m in 0..n {
            if let Some(d) = scratch.bfs_dist[m] {
                dist[m] = Some(d as u32);
                via[m] = if m == o {
                    MemberDecision::Local
                } else {
                    MemberDecision::ViaMember(scratch.bfs_prev[m].expect("non-root has parent"))
                };
            }
        }
    }

    // Seed egress distances for the undecided members. A member may hold
    // several candidate seeds; the best (lowest cost, then lowest session)
    // wins.
    let seeds = &mut scratch.seeds;
    seeds.clear();
    for r in ext.iter().map(R::borrow) {
        // An egress costs the external AS-path length (at least 1).
        let cost = (r.as_path.len() as u32).max(1);
        seeds.push((cost, r.member, MemberDecision::Egress(r.session)));
    }
    // Members already decided by the owner pass are fixed; the egress
    // Dijkstra runs only over the rest (they live in other sub-clusters).
    let decided = &mut scratch.decided;
    decided.clear();
    decided.extend(
        via.iter()
            .map(|d| !matches!(d, MemberDecision::Unreachable)),
    );

    // Deterministic seed application: sort by (cost, member, session).
    seeds.sort_by_key(|(c, m, d)| {
        let rank = match d {
            MemberDecision::Egress(s) => *s,
            _ => usize::MAX,
        };
        (*c, *m, rank)
    });
    for &(cost, m, d) in seeds.iter() {
        if decided[m] {
            continue;
        }
        if dist[m].map(|cur| cost < cur).unwrap_or(true) {
            dist[m] = Some(cost);
            via[m] = d;
        }
    }

    // Dijkstra relaxation over up intra-cluster edges (weight 1).
    // n is small (cluster size); a simple O(n²) scan keeps this obvious.
    let done = &mut scratch.done;
    done.clear();
    done.extend_from_slice(decided);
    loop {
        let mut best: Option<(u32, usize)> = None;
        for m in 0..n {
            if done[m] {
                continue;
            }
            if let Some(d) = dist[m] {
                if best.map(|(bd, bm)| (d, m) < (bd, bm)).unwrap_or(true) {
                    best = Some((d, m));
                }
            }
        }
        let Some((d, m)) = best else { break };
        done[m] = true;
        for (nbr, _) in sg.neighbors_up_iter(m) {
            if decided[nbr] {
                continue;
            }
            let nd = d + 1;
            let better = match dist[nbr] {
                None => true,
                Some(cur) => {
                    nd < cur
                        || (nd == cur && matches!(via[nbr], MemberDecision::ViaMember(p) if m < p))
                }
            };
            if better && !done[nbr] {
                dist[nbr] = Some(nd);
                via[nbr] = MemberDecision::ViaMember(m);
            }
        }
    }
}

/// The AS sequence member `x` would advertise for this prefix: its own ASN,
/// the member ASNs along the internal path, then (for an egress) the
/// external AS path. `None` when `x` cannot reach the prefix.
// detlint: allow test-oracle the from-scratch reference of proptest_controller
pub fn announced_path(
    x: usize,
    comp: &PrefixComputation,
    ext: &[ExternalRoute],
    member_asns: &[Asn],
) -> Option<Vec<Asn>> {
    let mut path = Vec::new();
    announced_path_into(x, comp, ext, member_asns, &mut path).then_some(path)
}

/// [`announced_path`] appended to a caller-provided buffer. Returns false,
/// leaving `out` as it was, when `x` cannot reach the prefix.
fn announced_path_into<R: Borrow<ExternalRoute>>(
    x: usize,
    comp: &PrefixComputation,
    ext: &[R],
    member_asns: &[Asn],
    out: &mut Vec<Asn>,
) -> bool {
    let start = out.len();
    let mut cur = x;
    for _ in 0..=comp.decisions.len() {
        out.push(member_asns[cur]);
        match comp.decisions[cur] {
            MemberDecision::Unreachable => break,
            MemberDecision::Local => return true,
            MemberDecision::ViaMember(next) => cur = next,
            MemberDecision::Egress(s) => {
                let Some(r) = ext.iter().map(R::borrow).find(|r| r.session == s) else {
                    break;
                };
                out.extend_from_slice(&r.as_path);
                return true;
            }
        }
    }
    // Unreachable, or defensively a decision cycle (cannot happen with
    // Dijkstra output).
    out.truncate(start);
    false
}

/// The session the best route of member `x` ultimately egresses through,
/// if its path leaves the cluster.
// detlint: allow test-oracle the from-scratch reference of proptest_controller
pub fn egress_session_of(x: usize, comp: &PrefixComputation) -> Option<usize> {
    let mut cur = x;
    for _ in 0..=comp.decisions.len() {
        match comp.decisions[cur] {
            MemberDecision::Egress(s) => return Some(s),
            MemberDecision::ViaMember(next) => cur = next,
            _ => return None,
        }
    }
    None
}

/// What each member would announce for the prefix just computed, walked at
/// most once per member however many sessions sit at its border.
///
/// All sessions of one member are offered the same AS sequence; they differ
/// only in split horizon and in whether the peer is already on the path. The
/// paths live in one flat buffer reused across prefixes, and a member's
/// [`SharedPath`] is created only when a session needs a new announcement —
/// every such session then holds the same allocation.
#[derive(Debug, Default)]
pub struct AnnounceMemo {
    /// Member paths, back to back.
    buf: Vec<Asn>,
    /// Indexed by member; `None` until the member's path has been walked.
    members: Vec<Option<MemberPath>>,
}

#[derive(Debug)]
struct MemberPath {
    /// The session the member's best route leaves the cluster through.
    egress: Option<usize>,
    /// The member's path in `buf`; `None` when it cannot reach the prefix.
    range: Option<(usize, usize)>,
    shared: Option<SharedPath>,
}

impl AnnounceMemo {
    /// Forget the previous prefix; `n` is the member count.
    pub fn reset(&mut self, n: usize) {
        self.buf.clear();
        self.members.clear();
        self.members.resize_with(n, || None);
    }

    /// The path member `x` should have announced on its session `s` toward
    /// `ext_asn`, or `None` when it should announce nothing there: `x` has
    /// no route, its best route egresses through `s` itself (split horizon),
    /// or the peer is already on the path (it would loop-reject the route
    /// anyway; skipping saves churn).
    // detlint: allow test-oracle the from-scratch reference of proptest_controller
    pub fn path_toward<R: Borrow<ExternalRoute>>(
        &mut self,
        x: usize,
        s: usize,
        ext_asn: Asn,
        comp: &PrefixComputation,
        ext: &[R],
        member_asns: &[Asn],
    ) -> Option<&[Asn]> {
        let buf = &mut self.buf;
        let mp = self.members[x].get_or_insert_with(|| {
            let start = buf.len();
            let reachable = announced_path_into(x, comp, ext, member_asns, buf);
            MemberPath {
                egress: egress_session_of(x, comp),
                range: reachable.then_some((start, buf.len())),
                shared: None,
            }
        });
        if mp.egress == Some(s) {
            return None;
        }
        let (start, end) = mp.range?;
        let path = &self.buf[start..end];
        (!path.contains(&ext_asn)).then_some(path)
    }

    /// The interned form of the path [`path_toward`](Self::path_toward) just
    /// returned for member `x`, allocated on first use.
    pub fn shared(&mut self, x: usize) -> SharedPath {
        let mp = self.members[x].as_mut().expect("member path was walked");
        let (start, end) = mp.range.expect("member has a path");
        mp.shared
            .get_or_insert_with(|| SharedPath::from(&self.buf[start..end]))
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsdn_netsim::LinkId;

    fn sg_line(n: usize) -> SwitchGraph {
        SwitchGraph::new(
            n,
            (0..n - 1).map(|i| (i, i + 1, LinkId(i as u32))).collect(),
        )
    }

    fn asns(n: usize) -> Vec<Asn> {
        (0..n).map(|i| Asn(100 + i as u32)).collect()
    }

    #[test]
    fn loop_avoidance_rejects_member_asns() {
        let members: BTreeSet<Asn> = [Asn(100), Asn(101)].into();
        assert!(accept_route(&[Asn(7), Asn(8)], &members));
        assert!(!accept_route(&[Asn(7), Asn(100)], &members));
        assert!(accept_route(&[], &members));
    }

    #[test]
    fn owner_prefix_routes_internally() {
        let sg = sg_line(4);
        let comp = compute(&sg, Some(3), &[]);
        assert_eq!(comp.decisions[3], MemberDecision::Local);
        assert_eq!(comp.decisions[2], MemberDecision::ViaMember(3));
        assert_eq!(comp.decisions[0], MemberDecision::ViaMember(1));
        assert_eq!(comp.dist, vec![Some(3), Some(2), Some(1), Some(0)]);
        let p = announced_path(0, &comp, &[], &asns(4)).unwrap();
        assert_eq!(p, vec![Asn(100), Asn(101), Asn(102), Asn(103)]);
    }

    #[test]
    fn external_route_attracts_traffic() {
        let sg = sg_line(3);
        let ext = vec![ExternalRoute {
            session: 5,
            member: 0,
            as_path: vec![Asn(7), Asn(8)].into(),
            med: None,
        }];
        let comp = compute(&sg, None, &ext);
        assert_eq!(comp.decisions[0], MemberDecision::Egress(5));
        assert_eq!(comp.decisions[1], MemberDecision::ViaMember(0));
        assert_eq!(comp.decisions[2], MemberDecision::ViaMember(1));
        assert_eq!(comp.dist, vec![Some(2), Some(3), Some(4)]);
        assert_eq!(egress_session_of(2, &comp), Some(5));
        let p = announced_path(2, &comp, &ext, &asns(3)).unwrap();
        assert_eq!(
            p,
            vec![Asn(102), Asn(101), Asn(100), Asn(7), Asn(8)],
            "member chain then external path"
        );
    }

    #[test]
    fn shorter_external_path_wins() {
        let sg = sg_line(3);
        let ext = vec![
            ExternalRoute {
                session: 0,
                member: 0,
                as_path: vec![Asn(7), Asn(8), Asn(9)].into(),
                med: None,
            },
            ExternalRoute {
                session: 1,
                member: 2,
                as_path: vec![Asn(5)].into(),
                med: None,
            },
        ];
        let comp = compute(&sg, None, &ext);
        assert_eq!(comp.decisions[2], MemberDecision::Egress(1));
        assert_eq!(comp.decisions[1], MemberDecision::ViaMember(2));
        // Member 0: egress via own session costs 3; via cluster to session 1
        // costs 2 + 1 = 3 — tie; the seed (own egress) was applied first and
        // relaxation only overrides on strict improvement.
        assert_eq!(comp.decisions[0], MemberDecision::Egress(0));
    }

    #[test]
    fn owner_beats_external() {
        let sg = sg_line(2);
        let ext = vec![ExternalRoute {
            session: 0,
            member: 1,
            as_path: vec![Asn(7)].into(),
            med: None,
        }];
        let comp = compute(&sg, Some(0), &ext);
        assert_eq!(comp.decisions[0], MemberDecision::Local);
        assert_eq!(comp.decisions[1], MemberDecision::ViaMember(0));
    }

    #[test]
    fn partition_respects_subclusters() {
        let mut sg = sg_line(4);
        sg.set_link_state(LinkId(1), false); // split {0,1} | {2,3}
        let ext = vec![ExternalRoute {
            session: 9,
            member: 0,
            as_path: vec![Asn(7)].into(),
            med: None,
        }];
        let comp = compute(&sg, None, &ext);
        assert_eq!(comp.decisions[0], MemberDecision::Egress(9));
        assert_eq!(comp.decisions[1], MemberDecision::ViaMember(0));
        assert_eq!(comp.decisions[2], MemberDecision::Unreachable);
        assert_eq!(comp.decisions[3], MemberDecision::Unreachable);
        assert!(announced_path(2, &comp, &ext, &asns(4)).is_none());
    }

    #[test]
    fn no_routes_means_all_unreachable() {
        let sg = sg_line(3);
        let comp = compute(&sg, None, &[]);
        assert_eq!(comp.decisions, vec![MemberDecision::Unreachable; 3]);
        assert_eq!(comp.dist, vec![None, None, None]);
    }

    #[test]
    fn deterministic_tie_breaking_by_session() {
        // Two sessions at the same member with equal-length paths: lower
        // session index wins.
        let sg = sg_line(1);
        let ext = vec![
            ExternalRoute {
                session: 3,
                member: 0,
                as_path: vec![Asn(7)].into(),
                med: None,
            },
            ExternalRoute {
                session: 1,
                member: 0,
                as_path: vec![Asn(8)].into(),
                med: None,
            },
        ];
        let comp = compute(&sg, None, &ext);
        assert_eq!(comp.decisions[0], MemberDecision::Egress(1));
    }

    #[test]
    fn empty_external_path_costs_at_least_one() {
        let sg = sg_line(2);
        let ext = vec![ExternalRoute {
            session: 0,
            member: 1,
            as_path: vec![].into(),
            med: None,
        }];
        let comp = compute(&sg, None, &ext);
        assert_eq!(comp.dist[1], Some(1));
    }
}
