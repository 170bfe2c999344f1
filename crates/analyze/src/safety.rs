//! Safety pass — Gao–Rexford conformance and the cluster boundary.
//!
//! The Gao–Rexford theorem: if (a) the customer→provider digraph is acyclic
//! and (b) every AS prefers customer routes and exports peer/provider routes
//! to customers only, then BGP is safe — it converges to a unique stable
//! state from any starting point and message ordering. The framework's
//! `PolicyMode::GaoRexford` template enforces (b) by construction, so the
//! static proof obligation reduces to (a): acyclicity of the annotated
//! provider hierarchy. This pass checks it with an explicit witness cycle
//! rather than the boolean answer [`AsGraph::provider_hierarchy_acyclic`]
//! gives.
//!
//! The hybrid deployment adds a twist the plain theorem does not cover: the
//! paper's SDN cluster behaves as **one logical routing node** (members
//! share the controller's RIB and decisions), so the relevant policy graph
//! is the original graph with each cluster's members *contracted* to a
//! single vertex — one vertex for the paper's deployment, `k` for `k`
//! independent clusters. Contraction can manufacture a provider cycle that the
//! uncontracted graph does not have — e.g. outside AS X is a provider of
//! member A while member B is a provider of X: after contraction the
//! cluster is simultaneously above and below X in the hierarchy. The pass
//! re-runs the acyclicity proof on the contracted graph and reports
//! boundary-induced relationship conflicts and cycles separately, since the
//! fix (cluster membership) differs from the fix for a plain bad hierarchy
//! (relationship annotations).
//!
//! When explicit per-session override rules are present the template
//! argument no longer applies and the pass falls back to the explicit SPP
//! solver ([`crate::spp`]) per origin, flagging any dispute wheel found.

use bgpsdn_bgp::PolicyMode;
use bgpsdn_topology::{AsEdge, AsGraph, EdgeKind};

use crate::finding::AnalysisReport;
use crate::spp::{render_cycle, PathRule, SppCaps, SppInstance, SppOutcome};

/// One-cluster form of [`SafetyClustersInput`]: `members` is the single
/// cluster (empty = pure legacy BGP).
#[derive(Debug, Clone, Copy)]
pub struct SafetyInput<'a> {
    /// The relationship-annotated AS graph.
    pub graph: &'a AsGraph,
    /// The policy template routers run.
    pub mode: PolicyMode,
    /// SDN cluster member indices (empty = pure legacy BGP).
    pub members: &'a [usize],
    /// Explicit per-session LOCAL_PREF override rules, if any.
    pub rules: &'a [PathRule],
}

/// Everything the safety pass looks at. Each cluster contracts to its own
/// logical vertex in the boundary proof.
#[derive(Debug, Clone, Copy)]
pub struct SafetyClustersInput<'a> {
    /// The relationship-annotated AS graph.
    pub graph: &'a AsGraph,
    /// The policy template routers run.
    pub mode: PolicyMode,
    /// Disjoint SDN cluster membership lists (empty = pure legacy BGP).
    pub clusters: &'a [Vec<usize>],
    /// Explicit per-session LOCAL_PREF override rules, if any.
    pub rules: &'a [PathRule],
}

/// [`check_safety_clusters`] for one cluster.
pub fn check_safety(input: &SafetyInput) -> AnalysisReport {
    check_safety_clusters(&SafetyClustersInput {
        graph: input.graph,
        mode: input.mode,
        clusters: &[input.members.to_vec()],
        rules: input.rules,
    })
}

/// Run the full safety pass: membership validation across all clusters,
/// the raw-hierarchy proof, the boundary proof with **every** cluster
/// contracted to its own logical vertex, and the rule-driven SPP fallback.
/// A lone cluster is reported as "the cluster"; several are numbered.
pub fn check_safety_clusters(input: &SafetyClustersInput) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    let g = input.graph;
    let n = g.len();
    let numbered = input.clusters.len() > 1;
    let label = |c: usize, sep: &str| {
        if numbered {
            format!("cluster{sep}{c}")
        } else {
            "cluster".to_string()
        }
    };

    let disjoint = check_membership(input.clusters, n, &mut report);

    // (a) Provider hierarchy acyclicity on the raw graph.
    check_raw_hierarchy(g, input.mode, &mut report);

    // (b) The legacy<->cluster boundary: contract every cluster to its own
    // vertex simultaneously and re-prove. Only meaningful with a cluster of
    // >= 2 members and relationship-sensitive policy; overlapping clusters
    // have no well-defined contraction.
    let sanitized = sanitize_clusters(input.clusters, n);
    if disjoint && input.mode == PolicyMode::GaoRexford && sanitized.iter().any(|s| s.len() >= 2) {
        let contracted = contract_clusters(g, &sanitized);
        for &(c, x, up, down) in &contracted.conflicts {
            report.checked();
            report.error_with(
                "cluster.boundary_conflict",
                format!(
                    "AS{} is provider of {} member AS{} but customer of member AS{}; \
                     after cluster contraction its relationship to the logical node is \
                     ambiguous",
                    g.asns[x].0,
                    label(c, " "),
                    g.asns[down].0,
                    g.asns[up].0
                ),
                format!(
                    "AS{} -> {}(AS{}), {}(AS{}) -> AS{}",
                    g.asns[x].0,
                    label(c, ""),
                    g.asns[down].0,
                    label(c, ""),
                    g.asns[up].0,
                    g.asns[x].0
                ),
            );
        }
        report.checked();
        if let Some(cycle) = provider_cycle(&contracted.graph) {
            // Only report as boundary-induced when the raw graph was clean;
            // otherwise the raw finding above already covers it.
            if provider_cycle(g).is_none() {
                report.error_with(
                    "cluster.boundary_cycle",
                    format!(
                        "contracting the SDN {} creates a provider cycle; the hybrid \
                         deployment breaks Gao-Rexford safety",
                        if numbered {
                            "clusters to logical nodes"
                        } else {
                            "cluster to one logical node"
                        }
                    ),
                    render_clusters_cycle(&contracted, &cycle, |c| label(c, "")),
                );
            }
        }
    }

    // (c) Explicit overrides void the template proof: run the SPP solver
    // per origin on the (small) instance.
    check_rules(g, input.mode, input.rules, &mut report);

    report
}

/// Membership must name real ASes, and no AS may serve two controllers
/// (returns whether that holds). An index repeated inside one list is only
/// untidy: [`sanitize_clusters`] drops it.
fn check_membership(clusters: &[Vec<usize>], n: usize, report: &mut AnalysisReport) -> bool {
    let scope = |c: usize| {
        if clusters.len() > 1 {
            format!("cluster {c}: ")
        } else {
            String::new()
        }
    };
    let mut owner = vec![usize::MAX; n];
    let mut disjoint = true;
    for (c, members) in clusters.iter().enumerate() {
        let mut repeated = false;
        for &m in members {
            report.checked();
            if m >= n {
                report.error(
                    "cluster.member_range",
                    format!("{}SDN member index {m} out of range for {n} ASes", scope(c)),
                );
            } else if owner[m] == usize::MAX {
                owner[m] = c;
            } else if owner[m] == c {
                repeated = true;
            } else {
                disjoint = false;
                report.error(
                    "cluster.member_overlap",
                    format!(
                        "AS index {m} is claimed by clusters {} and {c}; cluster \
                         membership must be disjoint",
                        owner[m]
                    ),
                );
            }
        }
        if repeated {
            report.warning(
                "cluster.member_duplicate",
                format!("{}SDN member list contains duplicate indices", scope(c)),
            );
        }
    }
    disjoint
}

/// The form [`contract_clusters`] takes: out-of-range members dropped,
/// each list sorted and deduplicated, empty lists removed.
pub(crate) fn sanitize_clusters(clusters: &[Vec<usize>], n: usize) -> Vec<Vec<usize>> {
    clusters
        .iter()
        .map(|members| {
            let mut s: Vec<usize> = members.iter().copied().filter(|&m| m < n).collect();
            s.sort_unstable();
            s.dedup();
            s
        })
        .filter(|s| !s.is_empty())
        .collect()
}

/// Provider hierarchy acyclicity on the raw graph. Under AllPermit the
/// annotations are ignored by policy, so a cycle is only suspicious
/// (likely a bad `infer_by_degree` run), not an error.
fn check_raw_hierarchy(g: &AsGraph, mode: PolicyMode, report: &mut AnalysisReport) {
    report.checked();
    if let Some(cycle) = provider_cycle(g) {
        let witness = render_cycle(g, &cycle);
        match mode {
            PolicyMode::GaoRexford => report.error_with(
                "safety.provider_cycle",
                "customer->provider hierarchy has a cycle; Gao-Rexford safety does not hold",
                witness,
            ),
            PolicyMode::AllPermit => report.warning_with(
                "safety.provider_cycle",
                "customer->provider annotations form a cycle (ignored by the active \
                 policy template, but relationship data looks wrong)",
                witness,
            ),
        }
    }
}

/// Explicit overrides void the template proof: run the SPP solver per
/// origin on the (small) instance.
fn check_rules(g: &AsGraph, mode: PolicyMode, rules: &[PathRule], report: &mut AnalysisReport) {
    if rules.is_empty() {
        return;
    }
    for origin in 0..g.len() {
        report.checked();
        match SppInstance::build(g, mode, origin, rules, SppCaps::default()) {
            None => {
                report.warning(
                    "spp.truncated",
                    format!(
                        "policy overrides present but the instance for origin AS{} \
                         exceeds enumeration caps; no safety verdict",
                        g.asns[origin].0
                    ),
                );
                break; // every origin would truncate the same way
            }
            Some(inst) => match inst.solve() {
                SppOutcome::Safe { .. } => {}
                SppOutcome::Truncated => unreachable!("caps checked at build"),
                SppOutcome::Wheel { rim } => report.error_with(
                    "safety.dispute_wheel",
                    format!(
                        "policy overrides create a dispute wheel for routes to AS{}; \
                         BGP may oscillate forever",
                        g.asns[origin].0
                    ),
                    render_cycle(g, &rim),
                ),
            },
        }
    }
}

/// Find a cycle in the customer→provider digraph, as vertex indices in
/// order, or `None` when the hierarchy is a DAG. Edges point customer →
/// provider (i.e. `b → a` for every `ProviderCustomer` edge).
fn provider_cycle(g: &AsGraph) -> Option<Vec<usize>> {
    // Iterative DFS with colors; `parent` recovers the cycle.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let n = g.len();
    let mut up: Vec<Vec<usize>> = vec![Vec::new(); n]; // customer -> providers
    for e in &g.edges {
        if e.kind == EdgeKind::ProviderCustomer {
            up[e.b].push(e.a);
        }
    }
    let mut color = vec![WHITE; n];
    let mut parent = vec![usize::MAX; n];
    for root in 0..n {
        if color[root] != WHITE {
            continue;
        }
        // (node, next child index to explore)
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        color[root] = GRAY;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if *i < up[v].len() {
                let w = up[v][*i];
                *i += 1;
                match color[w] {
                    WHITE => {
                        color[w] = GRAY;
                        parent[w] = v;
                        stack.push((w, 0));
                    }
                    GRAY => {
                        // Back edge v -> w: the cycle is w ..parents.. v.
                        let mut cycle = vec![v];
                        let mut x = v;
                        while x != w {
                            x = parent[x];
                            cycle.push(x);
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    _ => {}
                }
            } else {
                color[v] = BLACK;
                stack.pop();
            }
        }
    }
    None
}

/// Result of contracting **each** cluster to its own logical vertex.
pub struct ContractedClusters {
    /// The contracted graph. Non-members keep their relative order at the
    /// front; cluster vertices follow, one per cluster, in cluster order.
    pub graph: AsGraph,
    /// `map[v]` = contracted index of original vertex `v`.
    pub map: Vec<usize>,
    /// Original indices of the vertices behind each contracted index.
    pub preimage: Vec<Vec<usize>>,
    /// Index in `graph` of each cluster's logical vertex, in cluster order.
    pub cluster_vertices: Vec<usize>,
    /// Boundary conflicts `(cluster, outside, member_above, member_below)`:
    /// the outside AS is customer of `member_above` but provider of
    /// `member_below`, both in `cluster`.
    pub conflicts: Vec<(usize, usize, usize, usize)>,
}

/// Contract each cluster in `clusters` (disjoint, non-empty, sorted,
/// deduped, in-range member lists) to its own logical vertex. Intra-cluster
/// edges disappear; all other edges keep their kind and orientation.
pub(crate) fn contract_clusters(g: &AsGraph, clusters: &[Vec<usize>]) -> ContractedClusters {
    let n = g.len();
    let mut owner = vec![usize::MAX; n];
    for (c, members) in clusters.iter().enumerate() {
        for &v in members {
            owner[v] = c;
        }
    }
    let mut map = vec![usize::MAX; n];
    let mut preimage: Vec<Vec<usize>> = Vec::new();
    for v in 0..n {
        if owner[v] == usize::MAX {
            map[v] = preimage.len();
            preimage.push(vec![v]);
        }
    }
    let mut cluster_vertices = Vec::with_capacity(clusters.len());
    for members in clusters {
        let cv = preimage.len();
        cluster_vertices.push(cv);
        preimage.push(members.clone());
        for &v in members {
            map[v] = cv;
        }
    }

    // Parallel contracted edges of one orientation and kind collapse to
    // the first; the set keeps contracting a cluster-free graph near-linear.
    let mut seen = std::collections::BTreeSet::new();
    let mut edges: Vec<AsEdge> = Vec::new();
    for e in &g.edges {
        let (ca, cb) = (map[e.a], map[e.b]);
        if ca == cb {
            continue; // intra-cluster (or self) edge vanishes
        }
        if seen.insert((ca, cb, e.kind == EdgeKind::PeerPeer)) {
            edges.push(AsEdge {
                a: ca,
                b: cb,
                kind: e.kind,
            });
        }
    }

    // Boundary conflicts, per cluster: a vertex outside cluster `c` (legacy
    // or member of another cluster) that is provider of one `c` member and
    // customer of another.
    let mut conflicts = Vec::new();
    for (c, _) in clusters.iter().enumerate() {
        let mut above = vec![usize::MAX; n]; // c-member that is x's provider
        let mut below = vec![usize::MAX; n]; // c-member that is x's customer
        for e in &g.edges {
            if e.kind != EdgeKind::ProviderCustomer {
                continue;
            }
            let (p, cust) = (e.a, e.b);
            match (owner[p] == c, owner[cust] == c) {
                (true, false) => above[cust] = p,
                (false, true) => below[p] = cust,
                _ => {}
            }
        }
        for x in 0..n {
            if above[x] != usize::MAX && below[x] != usize::MAX {
                conflicts.push((c, x, above[x], below[x]));
            }
        }
    }

    let asns = preimage.iter().map(|pre| g.asns[pre[0]]).collect();
    ContractedClusters {
        graph: AsGraph { asns, edges },
        map,
        preimage,
        cluster_vertices,
        conflicts,
    }
}

/// Render a cycle in the contracted graph, naming each cluster vertex
/// with `label(cluster index)`.
fn render_clusters_cycle(
    c: &ContractedClusters,
    cycle: &[usize],
    label: impl Fn(usize) -> String,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for &v in cycle.iter().chain(cycle.first()) {
        if !out.is_empty() {
            out.push_str(" -> ");
        }
        if let Some(ci) = c.cluster_vertices.iter().position(|&cv| cv == v) {
            out.push_str(&label(ci));
        } else {
            let _ = write!(out, "AS{}", c.graph.asns[v].0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsdn_bgp::Asn;
    use bgpsdn_topology::gen;

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
    fn dag_hierarchy_has_no_cycle() {
        // 0 above 1 and 2, 1 above 3.
        let g = graph(4, vec![pc(0, 1), pc(0, 2), pc(1, 3), pp(1, 2)]);
        assert_eq!(provider_cycle(&g), None);
        let r = check_safety(&SafetyInput {
            graph: &g,
            mode: PolicyMode::GaoRexford,
            members: &[],
            rules: &[],
        });
        assert!(r.clean(), "unexpected findings: {}", r.render());
    }

    #[test]
    fn provider_cycle_is_found_with_witness() {
        // 0 provider of 1, 1 provider of 2, 2 provider of 0.
        let g = graph(3, vec![pc(0, 1), pc(1, 2), pc(2, 0)]);
        let cycle = provider_cycle(&g).expect("cycle exists");
        assert_eq!(cycle.len(), 3);
        let r = check_safety(&SafetyInput {
            graph: &g,
            mode: PolicyMode::GaoRexford,
            members: &[],
            rules: &[],
        });
        assert!(!r.ok());
        let f = r.first_error().unwrap();
        assert_eq!(f.code, "safety.provider_cycle");
        assert!(f.witness.as_deref().unwrap().contains("AS65000"));
    }

    #[test]
    fn provider_cycle_is_only_a_warning_under_all_permit() {
        let g = graph(3, vec![pc(0, 1), pc(1, 2), pc(2, 0)]);
        let r = check_safety(&SafetyInput {
            graph: &g,
            mode: PolicyMode::AllPermit,
            members: &[],
            rules: &[],
        });
        assert!(r.ok() && !r.clean());
        assert_eq!(r.findings[0].code, "safety.provider_cycle");
    }

    #[test]
    fn boundary_contraction_detects_induced_cycle() {
        // Raw graph is a clean hierarchy: 1 provider of 0, 0 provider of 2.
        // Cluster {1, 2} contracted: cluster -> 0 (via 1) and 0 -> cluster
        // (via 2) — a two-node provider cycle that only exists in the hybrid
        // deployment.
        let g = graph(3, vec![pc(1, 0), pc(0, 2)]);
        assert_eq!(provider_cycle(&g), None, "raw graph is clean");
        let r = check_safety(&SafetyInput {
            graph: &g,
            mode: PolicyMode::GaoRexford,
            members: &[1, 2],
            rules: &[],
        });
        assert!(!r.ok());
        let codes: Vec<&str> = r.findings.iter().map(|f| f.code).collect();
        assert!(codes.contains(&"cluster.boundary_conflict"), "{codes:?}");
        assert!(codes.contains(&"cluster.boundary_cycle"), "{codes:?}");
        let cyc = r
            .findings
            .iter()
            .find(|f| f.code == "cluster.boundary_cycle")
            .unwrap();
        assert!(cyc.witness.as_deref().unwrap().contains("cluster"));
    }

    #[test]
    fn member_range_and_duplicates_are_flagged() {
        let g = AsGraph::all_peer(&gen::clique(4), 65000);
        let r = check_safety(&SafetyInput {
            graph: &g,
            mode: PolicyMode::AllPermit,
            members: &[1, 1, 9],
            rules: &[],
        });
        assert!(!r.ok());
        assert_eq!(r.first_error().unwrap().code, "cluster.member_range");
        assert!(r
            .findings
            .iter()
            .any(|f| f.code == "cluster.member_duplicate"));
    }

    #[test]
    fn contraction_preserves_outside_structure() {
        let g = graph(5, vec![pc(0, 1), pc(0, 2), pp(3, 4), pc(3, 2)]);
        let c = contract_clusters(&g, &[vec![1, 2]]);
        assert_eq!(c.graph.len(), 4);
        let cluster = 3;
        assert_eq!(c.map[1], cluster);
        assert_eq!(c.map[2], cluster);
        // 0 -> cluster appears once despite two parallel member edges.
        let down: Vec<&AsEdge> = c
            .graph
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::ProviderCustomer && e.b == cluster)
            .collect();
        assert_eq!(down.len(), 2, "one from AS0, one from AS3");
    }

    #[test]
    fn single_cluster_input_matches_check_safety_exactly() {
        let g = graph(3, vec![pc(1, 0), pc(0, 2)]);
        let single = check_safety(&SafetyInput {
            graph: &g,
            mode: PolicyMode::GaoRexford,
            members: &[1, 2],
            rules: &[],
        });
        let multi = check_safety_clusters(&SafetyClustersInput {
            graph: &g,
            mode: PolicyMode::GaoRexford,
            clusters: &[vec![1, 2]],
            rules: &[],
        });
        assert_eq!(single.findings, multi.findings);
        assert_eq!(single.checks, multi.checks);
    }

    #[test]
    fn overlapping_clusters_are_an_error() {
        let g = AsGraph::all_peer(&gen::clique(5), 65000);
        let r = check_safety_clusters(&SafetyClustersInput {
            graph: &g,
            mode: PolicyMode::AllPermit,
            clusters: &[vec![0, 1], vec![1, 2]],
            rules: &[],
        });
        assert_eq!(r.first_error().unwrap().code, "cluster.member_overlap");
    }

    #[test]
    fn duplicate_inside_one_of_two_clusters_is_a_warning_not_an_overlap() {
        let g = AsGraph::all_peer(&gen::clique(5), 65000);
        let r = check_safety_clusters(&SafetyClustersInput {
            graph: &g,
            mode: PolicyMode::AllPermit,
            clusters: &[vec![0, 1, 1], vec![2, 3]],
            rules: &[],
        });
        assert!(r.ok(), "{}", r.render());
        let codes: Vec<&str> = r.findings.iter().map(|f| f.code).collect();
        assert_eq!(codes, ["cluster.member_duplicate"]);
        assert!(r.findings[0].message.starts_with("cluster 0: "));
    }

    #[test]
    fn contract_clusters_keeps_clusters_apart() {
        // 6-clique with two 2-member clusters: 15 edges contract to a
        // 4-vertex clique (6 edges), each cluster its own vertex.
        let g = AsGraph::all_peer(&gen::clique(6), 65000);
        let c = contract_clusters(&g, &[vec![0, 1], vec![4, 5]]);
        assert_eq!(c.graph.len(), 4);
        assert_eq!(c.cluster_vertices, vec![2, 3]);
        assert_eq!(c.map[0], 2);
        assert_eq!(c.map[5], 3);
        assert_eq!(c.graph.edges.len(), 6);
        assert_eq!(c.preimage[3], vec![4, 5]);
    }

    #[test]
    fn boundary_cycle_through_a_second_cluster_is_found() {
        // 1 provider of 0, 0 provider of 2: cluster0 {1, 2} contracted is
        // above and below AS0 — the induced cycle survives even with an
        // unrelated second cluster {3, 4} present.
        let g = graph(5, vec![pc(1, 0), pc(0, 2), pp(3, 4)]);
        let r = check_safety_clusters(&SafetyClustersInput {
            graph: &g,
            mode: PolicyMode::GaoRexford,
            clusters: &[vec![1, 2], vec![3, 4]],
            rules: &[],
        });
        assert!(!r.ok());
        let codes: Vec<&str> = r.findings.iter().map(|f| f.code).collect();
        assert!(codes.contains(&"cluster.boundary_conflict"), "{codes:?}");
        assert!(codes.contains(&"cluster.boundary_cycle"), "{codes:?}");
        let cyc = r
            .findings
            .iter()
            .find(|f| f.code == "cluster.boundary_cycle")
            .unwrap();
        assert!(cyc.witness.as_deref().unwrap().contains("cluster0"));
    }

    #[test]
    fn disjoint_clusters_on_a_clean_hierarchy_pass() {
        // Two providers (0, 1) each above two stubs; clusters pair one
        // provider with one of its stubs — no contraction conflict.
        let g = graph(6, vec![pc(0, 2), pc(0, 3), pc(1, 4), pc(1, 5), pp(0, 1)]);
        let r = check_safety_clusters(&SafetyClustersInput {
            graph: &g,
            mode: PolicyMode::GaoRexford,
            clusters: &[vec![0, 2], vec![1, 4]],
            rules: &[],
        });
        assert!(r.clean(), "{}", r.render());
    }

    #[test]
    fn seeded_wheel_is_flagged_via_rules() {
        let g = AsGraph::all_peer(&gen::clique(4), 65000);
        let rules = crate::spp::bad_gadget_rules();
        let r = check_safety(&SafetyInput {
            graph: &g,
            mode: PolicyMode::AllPermit,
            members: &[],
            rules: &rules,
        });
        assert!(!r.ok());
        let f = r.first_error().unwrap();
        assert_eq!(f.code, "safety.dispute_wheel");
        assert!(f.witness.is_some());
    }
}
