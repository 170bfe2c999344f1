//! Prediction pass — static reachability and path-hunting depth bounds.
//!
//! Two questions answerable from the policy graph alone, before any packet
//! is simulated:
//!
//! 1. **Who can reach a prefix?** Physical connectivity is necessary but
//!    not sufficient — under Gao–Rexford export rules a route learned from
//!    a peer or provider is re-exported to customers only, so a
//!    physically-connected node can still be policy-partitioned from an
//!    origin (the classic valley-free reachability question). The pass
//!    distinguishes hard partitions (`predict.partition`, an error: an
//!    `ExpectReachable` against such a node can never pass) from
//!    policy-blocked nodes (`predict.unreachable`, a warning: the
//!    annotations say no valley-free path exists).
//!
//! 2. **How long can path hunting last?** After a withdrawal, BGP explores
//!    ever-longer alternate paths before giving up — the path-hunting
//!    process the paper measures. Each hunting step extends the best known
//!    (simple) path by at least one AS hop, so the number of `hunt_step`
//!    phases for one prefix is bounded by the longest simple path that can
//!    be explored: at most `component_size - 1` hops inside the origin's
//!    connected component. Centralization shrinks the bound: the SDN
//!    cluster acts as one logical node (the controller hunts internally in
//!    zero exchanged UPDATEs), so the component is measured on the
//!    **cluster-contracted** graph. For the paper's 16-clique this gives
//!    bounds of 15 (sdn 0), 8 (sdn 8), and 0 (sdn 16) — the static shadow
//!    of Fig. 2's convergence-time curve.

use bgpsdn_bgp::{export_allowed, import_allowed, PolicyMode, Relationship};
use bgpsdn_topology::AsGraph;

use crate::finding::AnalysisReport;
use crate::safety::{contract_clusters, sanitize_clusters};

/// How a route is held at a node, for export gating: `None` = locally
/// originated, `Some(rel)` = learned from a neighbor of that relationship.
type HeldAs = Option<Relationship>;

const CLASSES: [HeldAs; 4] = [
    None,
    Some(Relationship::Customer),
    Some(Relationship::Peer),
    Some(Relationship::Provider),
];

fn class_idx(c: HeldAs) -> usize {
    match c {
        None => 0,
        Some(Relationship::Customer) => 1,
        Some(Relationship::Peer) => 2,
        // Monitor never appears on an AsEdge; class with Provider.
        Some(Relationship::Provider | Relationship::Monitor) => 3,
    }
}

/// Which nodes can hold a route originated at `origin`, under `mode`'s
/// import/export policy — BFS over `(node, learned-from-class)` states.
fn policy_reachable(g: &AsGraph, mode: PolicyMode, origin: usize) -> Vec<bool> {
    let n = g.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n]; // edge indices
    for (i, e) in g.edges.iter().enumerate() {
        adj[e.a].push(i);
        adj[e.b].push(i);
    }
    let mut seen = vec![[false; CLASSES.len()]; n];
    seen[origin][0] = true;
    let mut queue = std::collections::VecDeque::from([(origin, None as HeldAs)]);
    while let Some((x, held)) = queue.pop_front() {
        for &ei in &adj[x] {
            let e = &g.edges[ei];
            let y = e.other(x);
            let rel_y_from_x = e.relationship_from(x);
            if !export_allowed(mode, held, rel_y_from_x) {
                continue;
            }
            let rel_x_from_y = e.relationship_from(y);
            if !import_allowed(rel_x_from_y) {
                continue;
            }
            let next = Some(rel_x_from_y);
            if !seen[y][class_idx(next)] {
                seen[y][class_idx(next)] = true;
                queue.push_back((y, next));
            }
        }
    }
    seen.iter().map(|s| s.iter().any(|&b| b)).collect()
}

/// Connected component membership ignoring policy: `component[v] == component[w]`
/// iff `v` and `w` are connected in the undirected graph.
pub(crate) fn components(g: &AsGraph) -> Vec<usize> {
    let n = g.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in &g.edges {
        adj[e.a].push(e.b);
        adj[e.b].push(e.a);
    }
    let mut comp = vec![usize::MAX; n];
    let mut next = 0;
    for root in 0..n {
        if comp[root] != usize::MAX {
            continue;
        }
        comp[root] = next;
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                if comp[w] == usize::MAX {
                    comp[w] = next;
                    stack.push(w);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Check that every node can hold a route from each origin in `origins`.
/// Physical partitions are errors; policy-only blocks are warnings.
pub fn check_reachability(g: &AsGraph, mode: PolicyMode, origins: &[usize]) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    let n = g.len();
    let comp = components(g);
    for &origin in origins {
        if origin >= n {
            report.checked();
            report.error(
                "predict.origin_range",
                format!("origin index {origin} out of range for {n} ASes"),
            );
            continue;
        }
        let reach = policy_reachable(g, mode, origin);
        let mut partitioned = Vec::new();
        let mut blocked = Vec::new();
        for v in 0..n {
            report.checked();
            if v == origin || reach[v] {
                continue;
            }
            if comp[v] == comp[origin] {
                blocked.push(v);
            } else {
                partitioned.push(v);
            }
        }
        if !partitioned.is_empty() {
            report.error_with(
                "predict.partition",
                format!(
                    "{} of {} ASes are physically partitioned from origin AS{}; \
                     reachability expectations against them can never hold",
                    partitioned.len(),
                    n,
                    g.asns[origin].0
                ),
                list_asns(g, &partitioned),
            );
        }
        if !blocked.is_empty() {
            report.warning_with(
                "predict.unreachable",
                format!(
                    "{} AS(es) are connected to origin AS{} but have no valley-free path \
                     to it under the {mode:?} policy",
                    blocked.len(),
                    g.asns[origin].0
                ),
                list_asns(g, &blocked),
            );
        }
    }
    report
}

/// [`hunt_depth_bound_clusters`] for one cluster.
pub fn hunt_depth_bound(g: &AsGraph, members: &[usize], origin: usize) -> usize {
    hunt_depth_bound_clusters(g, &[members.to_vec()], origin)
}

/// Upper bound on the number of path-hunting steps (`hunt_step` phases in
/// `bgpsdn explain`) any node performs for a prefix originated at `origin`,
/// with **every** SDN cluster contracted to its own logical node. Each hunt
/// step commits to a strictly longer simple AS path, so the count is
/// bounded by the longest simple path available: `component_size - 1`. Two
/// 4-member clusters on a 16-clique leave `16 - 8 + 2 = 10` logical nodes
/// and a bound of 9.
pub fn hunt_depth_bound_clusters(g: &AsGraph, clusters: &[Vec<usize>], origin: usize) -> usize {
    let c = contract_clusters(g, &sanitize_clusters(clusters, g.len()));
    let comp = components(&c.graph);
    let size = comp.iter().filter(|&&k| k == comp[c.map[origin]]).count();
    size.saturating_sub(1)
}

fn list_asns(g: &AsGraph, nodes: &[usize]) -> String {
    nodes
        .iter()
        .map(|&v| format!("AS{}", g.asns[v].0))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finding::tests::first_error;
    use bgpsdn_bgp::Asn;
    use bgpsdn_topology::{gen, AsEdge, EdgeKind};

    fn pc(a: usize, b: usize) -> AsEdge {
        AsEdge {
            a,
            b,
            kind: EdgeKind::ProviderCustomer,
        }
    }

    fn pp(a: usize, b: usize) -> AsEdge {
        AsEdge {
            a,
            b,
            kind: EdgeKind::PeerPeer,
        }
    }

    fn graph(n: usize, edges: Vec<AsEdge>) -> AsGraph {
        AsGraph {
            asns: (0..n)
                .map(|i| Asn(65000 + u32::try_from(i).unwrap()))
                .collect(),
            edges,
        }
    }

    #[test]
    fn clique_is_fully_reachable() {
        let g = AsGraph::all_peer(&gen::clique(6), 65000);
        let r = check_reachability(&g, PolicyMode::AllPermit, &[0, 3]);
        assert!(r.clean(), "{}", r.render());
    }

    #[test]
    fn physical_partition_is_an_error() {
        // 0-1 connected, 2 isolated.
        let g = graph(3, vec![pp(0, 1)]);
        let r = check_reachability(&g, PolicyMode::AllPermit, &[0]);
        assert!(!r.ok());
        let f = first_error(&r).unwrap();
        assert_eq!(f.code, "predict.partition");
        assert_eq!(f.witness.as_deref(), Some("AS65002"));
    }

    #[test]
    fn valley_blocked_node_is_a_warning() {
        // 1 and 2 are both providers of 0 (a stub); 1 and 2 are NOT
        // connected to each other. A route originated at 1 reaches 0
        // (provider -> customer) but 0 may not re-export a provider route
        // to another provider: 2 is policy-unreachable though connected.
        let g = graph(3, vec![pc(1, 0), pc(2, 0)]);
        let r = check_reachability(&g, PolicyMode::GaoRexford, &[1]);
        assert!(r.ok(), "{}", r.render());
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].code, "predict.unreachable");
        assert_eq!(r.findings[0].witness.as_deref(), Some("AS65002"));
        // The same graph under AllPermit has no valley rule: clean.
        let r2 = check_reachability(&g, PolicyMode::AllPermit, &[1]);
        assert!(r2.clean(), "{}", r2.render());
    }

    #[test]
    fn hunt_bound_matches_fig2_cluster_sizes() {
        // The paper's 16-clique: bound 15 legacy-only, 8 at half
        // centralization, 0 fully centralized.
        let g = AsGraph::all_peer(&gen::clique(16), 65000);
        assert_eq!(hunt_depth_bound(&g, &[], 0), 15);
        let members8: Vec<usize> = (8..16).collect();
        assert_eq!(hunt_depth_bound(&g, &members8, 0), 8);
        let members16: Vec<usize> = (0..16).collect();
        assert_eq!(hunt_depth_bound(&g, &members16, 0), 0);
    }

    #[test]
    fn cluster_hunt_bound_counts_each_cluster_as_one_node() {
        let g = AsGraph::all_peer(&gen::clique(16), 65000);
        // One 8-member cluster: same as the single-cluster bound.
        let one: Vec<Vec<usize>> = vec![(8..16).collect()];
        assert_eq!(hunt_depth_bound_clusters(&g, &one, 0), 8);
        // The same 8 members in two clusters hunt against each other: one
        // extra logical node, bound 9.
        let two: Vec<Vec<usize>> = vec![(8..12).collect(), (12..16).collect()];
        assert_eq!(hunt_depth_bound_clusters(&g, &two, 0), 9);
        // No clusters at all: the raw bound.
        assert_eq!(hunt_depth_bound_clusters(&g, &[], 0), 15);
    }

    #[test]
    fn hunt_bound_is_per_component() {
        // Two disjoint triangles: hunting never crosses the partition.
        let g = graph(
            6,
            vec![pp(0, 1), pp(1, 2), pp(2, 0), pp(3, 4), pp(4, 5), pp(5, 3)],
        );
        assert_eq!(hunt_depth_bound(&g, &[], 0), 2);
        assert_eq!(hunt_depth_bound(&g, &[], 3), 2);
    }
}
