//! Stable Paths Problem solver — dispute-wheel detection (Griffin,
//! Shepherd, Wilfong).
//!
//! BGP policy divergence is captured by the Stable Paths Problem: each node
//! ranks its permitted paths to an origin, and an instance is *safe* when
//! path-vector dynamics reach a unique stable assignment regardless of
//! message timing. Griffin's theorem says an instance with no **dispute
//! wheel** is safe; this module builds an explicit SPP instance from an
//! annotated [`AsGraph`] (plus optional per-neighbor LOCAL_PREF override
//! rules mirroring the simulator's route maps) and runs the greedy
//! stable-assignment construction:
//!
//! * fix the origin; repeatedly fix any node whose best still-possible path
//!   goes through an already-fixed next hop consistently;
//! * if every node gets fixed, the instance is certified safe and the fixed
//!   assignment is the predicted unique stable state;
//! * if the greedy gets stuck, every stuck node's most-preferred possible
//!   path waits on another stuck node — following those preferences yields
//!   a cycle, which is reported as the dispute wheel's rim.
//!
//! The construction is a certification procedure: completion proves safety;
//! a reported wheel is a *potential* oscillation (for the classic gadgets —
//! BAD GADGET, DISAGREE — it is exact, and the integration tests
//! cross-validate that a seeded BAD GADGET really diverges in simulation).
//!
//! Path enumeration is exponential in general, so instances are capped
//! ([`SppCaps`]); graphs above the cap return [`SppOutcome::Truncated`]
//! rather than a bogus verdict. Template-only policies never need the
//! enumeration: `AllPermit` without overrides is shortest-path (safe), and
//! Gao–Rexford with an acyclic provider hierarchy is safe by the
//! Gao–Rexford theorem — the safety pass only reaches for the explicit
//! solver when override rules are present.

use bgpsdn_bgp::{export_allowed, import_allowed, import_local_pref, PolicyMode, Relationship};
use bgpsdn_topology::AsGraph;

/// Decision-process default LOCAL_PREF (what the simulator's decision uses
/// when no policy sets one).
const DEFAULT_LOCAL_PREF: u32 = 100;

/// One import-side policy override, the static mirror of a route-map rule
/// `match as-path contains X → set local-preference L` (or `deny`) attached
/// to one neighbor session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathRule {
    /// AS index applying the rule (the importing node).
    pub at: usize,
    /// The rule applies to routes learned from this neighbor AS index.
    pub from: usize,
    /// Only paths whose AS path mentions this AS index (`None` = any path
    /// from that neighbor).
    pub contains: Option<usize>,
    /// `Some(lp)` permits with that LOCAL_PREF; `None` denies the path.
    pub action: Option<u32>,
}

/// Enumeration limits for explicit SPP instances.
#[derive(Debug, Clone, Copy)]
pub struct SppCaps {
    /// Maximum node count; larger graphs are truncated.
    pub max_nodes: usize,
    /// Maximum total enumerated paths across all nodes.
    pub max_paths: usize,
}

impl Default for SppCaps {
    fn default() -> Self {
        SppCaps {
            max_nodes: 12,
            max_paths: 50_000,
        }
    }
}

/// One permitted path with its rank inputs. `path[0]` is the owning node,
/// `path[last]` the origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedPath {
    /// Effective LOCAL_PREF after relationship defaults and overrides.
    pub local_pref: u32,
    /// Node-index path from owner to origin, inclusive.
    pub path: Vec<usize>,
}

impl RankedPath {
    /// Next hop toward the origin.
    fn next_hop(&self) -> usize {
        self.path[1]
    }

    /// Decision order: LOCAL_PREF descending, then path length ascending,
    /// then lowest next hop (the static stand-in for the router-id
    /// tie-break, which ascends with node index in the framework's plans).
    fn rank_key(&self) -> (std::cmp::Reverse<u32>, usize, usize) {
        (
            std::cmp::Reverse(self.local_pref),
            self.path.len(),
            self.next_hop(),
        )
    }
}

/// An explicit SPP instance for one origin.
#[derive(Debug, Clone)]
pub struct SppInstance {
    /// Node count.
    pub n: usize,
    /// The origin node.
    pub origin: usize,
    /// Ranked permitted paths per node (best first); empty for the origin
    /// and for nodes no permitted path reaches.
    pub paths: Vec<Vec<RankedPath>>,
}

/// Verdict of the greedy stable-assignment construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SppOutcome {
    /// Certified safe; the predicted unique stable assignment, per node
    /// (`None` = no route; the origin holds the empty path).
    Safe {
        /// Chosen path per node (owner-first, origin-last), `None` when the
        /// node ends up without a route.
        stable: Vec<Option<Vec<usize>>>,
    },
    /// A potential dispute wheel: the rim nodes, each preferring a path
    /// through the next.
    Wheel {
        /// The witness cycle (node indices; the last prefers a path through
        /// the first).
        rim: Vec<usize>,
    },
    /// The instance exceeded [`SppCaps`]; no verdict.
    Truncated,
}

impl SppInstance {
    /// Enumerate the permitted-path instance for `origin` under the graph's
    /// relationship annotations, `mode`'s import/export policy, and the
    /// override `rules`. Returns `None` when the caps are exceeded.
    pub fn build(
        g: &AsGraph,
        mode: PolicyMode,
        origin: usize,
        rules: &[PathRule],
        caps: SppCaps,
    ) -> Option<SppInstance> {
        let n = g.len();
        if n > caps.max_nodes || origin >= n {
            return None;
        }
        let mut paths: Vec<Vec<RankedPath>> = vec![Vec::new(); n];
        let mut total = 0usize;
        let mut visited = vec![false; n];
        let mut stack = vec![origin];
        visited[origin] = true;
        if !Self::dfs(
            g,
            mode,
            rules,
            caps.max_paths,
            origin,
            None,
            &mut visited,
            &mut stack,
            &mut paths,
            &mut total,
        ) {
            return None;
        }
        for list in &mut paths {
            list.sort_by_key(RankedPath::rank_key);
        }
        Some(SppInstance { n, origin, paths })
    }

    /// Propagate the origin's route outward along every permitted simple
    /// path. `learned` is how the route entered `x` (`None` at the origin).
    /// Returns `false` when the path cap is exceeded.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        g: &AsGraph,
        mode: PolicyMode,
        rules: &[PathRule],
        max_paths: usize,
        x: usize,
        learned: Option<Relationship>,
        visited: &mut Vec<bool>,
        stack: &mut Vec<usize>,
        paths: &mut Vec<Vec<RankedPath>>,
        total: &mut usize,
    ) -> bool {
        // Deterministic neighbor order: the graph's edge list order.
        for e in g.edges.iter().filter(|e| e.a == x || e.b == x) {
            let y = e.other(x);
            if visited[y] {
                continue;
            }
            let rel_y_from_x = e.relationship_from(x);
            if !export_allowed(mode, learned, rel_y_from_x) {
                continue;
            }
            let rel_x_from_y = e.relationship_from(y);
            if !import_allowed(rel_x_from_y) {
                continue;
            }
            let base = import_local_pref(mode, rel_x_from_y).unwrap_or(DEFAULT_LOCAL_PREF);
            // First matching override rule at the importer decides.
            let lp = match rules
                .iter()
                .find(|r| r.at == y && r.from == x && r.contains.is_none_or(|c| stack.contains(&c)))
                .map(|r| r.action)
            {
                Some(None) => continue, // denied on import: y never holds it
                Some(Some(lp)) => lp,
                None => base,
            };
            *total += 1;
            if *total > max_paths {
                return false;
            }
            let mut path = vec![y];
            path.extend(stack.iter().rev());
            paths[y].push(RankedPath {
                local_pref: lp,
                path,
            });
            visited[y] = true;
            stack.push(y);
            let ok = Self::dfs(
                g,
                mode,
                rules,
                max_paths,
                y,
                Some(rel_x_from_y),
                visited,
                stack,
                paths,
                total,
            );
            stack.pop();
            visited[y] = false;
            if !ok {
                return false;
            }
        }
        true
    }

    /// Run the greedy stable-assignment construction.
    ///
    /// # Panics
    ///
    /// Only on an internal invariant violation (a stuck node with no
    /// possible path would have been fixed to no-route instead).
    pub fn solve(&self) -> SppOutcome {
        #[derive(Clone, PartialEq)]
        enum Fix {
            Unfixed,
            NoRoute,
            Chosen(usize), // index into paths[v]
        }
        let mut fix = vec![Fix::Unfixed; self.n];
        fix[self.origin] = Fix::Chosen(usize::MAX); // the empty path
                                                    // A path is still possible iff its next hop is unfixed, or fixed to
                                                    // exactly the path's own suffix.
        let possible = |p: &RankedPath, fix: &[Fix], paths: &[Vec<RankedPath>]| -> bool {
            let w = p.next_hop();
            match &fix[w] {
                Fix::Unfixed => true,
                Fix::NoRoute => false,
                Fix::Chosen(k) => {
                    if w == self.origin {
                        p.path.len() == 2
                    } else {
                        paths[w][*k].path[..] == p.path[1..]
                    }
                }
            }
        };
        loop {
            let mut changed = false;
            for v in 0..self.n {
                if fix[v] != Fix::Unfixed {
                    continue;
                }
                let best = self.paths[v]
                    .iter()
                    .enumerate()
                    .find(|(_, p)| possible(p, &fix, &self.paths));
                match best {
                    None => {
                        fix[v] = Fix::NoRoute;
                        changed = true;
                    }
                    Some((k, p)) => {
                        let w = p.next_hop();
                        if matches!(fix[w], Fix::Chosen(_)) {
                            fix[v] = Fix::Chosen(k);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let stuck: Vec<usize> = (0..self.n).filter(|&v| fix[v] == Fix::Unfixed).collect();
        if stuck.is_empty() {
            let stable = (0..self.n)
                .map(|v| match &fix[v] {
                    Fix::Chosen(_) if v == self.origin => Some(vec![v]),
                    Fix::Chosen(k) => Some(self.paths[v][*k].path.clone()),
                    _ => None,
                })
                .collect();
            return SppOutcome::Safe { stable };
        }
        // Every stuck node's best possible path waits on a stuck next hop;
        // following that preference relation must cycle.
        let succ = |v: usize| -> usize {
            self.paths[v]
                .iter()
                .find(|p| possible(p, &fix, &self.paths))
                .map(RankedPath::next_hop)
                .expect("stuck nodes have a possible path")
        };
        let mut seen = vec![false; self.n];
        let mut v = stuck[0];
        while !seen[v] {
            seen[v] = true;
            v = succ(v);
        }
        // `v` starts the cycle; walk it once more to extract the rim.
        let mut rim = vec![v];
        let mut w = succ(v);
        while w != v {
            rim.push(w);
            w = succ(w);
        }
        SppOutcome::Wheel { rim }
    }
}

/// Render a witness cycle with ASNs: `AS65001 -> AS65002 -> AS65001`.
pub(crate) fn render_cycle(g: &AsGraph, cycle: &[usize]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for &v in cycle.iter().chain(cycle.first()) {
        if !out.is_empty() {
            out.push_str(" -> ");
        }
        let _ = write!(out, "AS{}", g.asns[v].0);
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bgpsdn_bgp::Asn;
    use bgpsdn_topology::{gen, AsEdge, EdgeKind};

    /// The canonical BAD GADGET override rules on a 4-node graph: origin 0,
    /// rim 1, 2, 3, every pair adjacent. Each rim node prefers the two-hop
    /// path through its clockwise neighbor over its direct path and permits
    /// nothing else — the smallest instance with a dispute wheel and no stable
    /// assignment. Used by the mutation tests and the simulator
    /// cross-validation (it must be flagged statically *and* observably
    /// oscillate when run).
    pub(crate) fn bad_gadget_rules() -> Vec<PathRule> {
        let mut rules = Vec::new();
        for (at, via, third) in [(1usize, 2usize, 3usize), (2, 3, 1), (3, 1, 2)] {
            // Deny the three-hop path through both other rim nodes.
            rules.push(PathRule {
                at,
                from: via,
                contains: Some(third),
                action: None,
            });
            // Prefer the two-hop path through the clockwise neighbor.
            rules.push(PathRule {
                at,
                from: via,
                contains: None,
                action: Some(200),
            });
            // Never route through the counter-clockwise neighbor.
            rules.push(PathRule {
                at,
                from: third,
                contains: None,
                action: None,
            });
        }
        rules
    }

    fn peer_clique(n: usize) -> AsGraph {
        AsGraph::all_peer(&gen::clique(n), 65000)
    }

    #[test]
    fn clique_without_overrides_is_safe_shortest_path() {
        let g = peer_clique(5);
        let inst = SppInstance::build(&g, PolicyMode::AllPermit, 0, &[], SppCaps::default())
            .expect("within caps");
        match inst.solve() {
            SppOutcome::Safe { stable } => {
                for (v, s) in stable.iter().enumerate().skip(1) {
                    let p = s.as_ref().expect("route exists");
                    assert_eq!(p, &vec![v, 0], "clique stable state is direct paths");
                }
            }
            other => panic!("expected safe, got {other:?}"),
        }
    }

    #[test]
    fn bad_gadget_yields_wheel_with_full_rim() {
        let g = peer_clique(4);
        let inst = SppInstance::build(
            &g,
            PolicyMode::AllPermit,
            0,
            &bad_gadget_rules(),
            SppCaps::default(),
        )
        .expect("within caps");
        match inst.solve() {
            SppOutcome::Wheel { mut rim } => {
                rim.sort_unstable();
                assert_eq!(rim, vec![1, 2, 3], "all three rim nodes are stuck");
            }
            other => panic!("expected a dispute wheel, got {other:?}"),
        }
    }

    #[test]
    fn good_gadget_with_consistent_overrides_stays_safe() {
        // Same shape as BAD GADGET but only node 1 prefers the long way:
        // no cyclic preference, so the greedy must complete.
        let g = peer_clique(4);
        let rules = vec![PathRule {
            at: 1,
            from: 2,
            contains: None,
            action: Some(200),
        }];
        let inst = SppInstance::build(&g, PolicyMode::AllPermit, 0, &rules, SppCaps::default())
            .expect("within caps");
        match inst.solve() {
            SppOutcome::Safe { stable } => {
                // Node 1's stable path routes through 2 (preferred and
                // consistent with 2's direct path).
                assert_eq!(stable[1].as_ref().unwrap(), &vec![1, 2, 0]);
                assert_eq!(stable[2].as_ref().unwrap(), &vec![2, 0]);
            }
            other => panic!("expected safe, got {other:?}"),
        }
    }

    #[test]
    fn gao_rexford_hierarchy_is_safe() {
        // 0 is 1's and 2's provider; 1 and 2 peer; 3 is 1's customer.
        let g = AsGraph {
            asns: (0..4).map(|i| Asn(65000 + i)).collect(),
            edges: vec![
                AsEdge {
                    a: 0,
                    b: 1,
                    kind: EdgeKind::ProviderCustomer,
                },
                AsEdge {
                    a: 0,
                    b: 2,
                    kind: EdgeKind::ProviderCustomer,
                },
                AsEdge {
                    a: 1,
                    b: 2,
                    kind: EdgeKind::PeerPeer,
                },
                AsEdge {
                    a: 1,
                    b: 3,
                    kind: EdgeKind::ProviderCustomer,
                },
            ],
        };
        for origin in 0..4 {
            let inst =
                SppInstance::build(&g, PolicyMode::GaoRexford, origin, &[], SppCaps::default())
                    .expect("within caps");
            match inst.solve() {
                SppOutcome::Safe { stable } => {
                    // Valley-free reachability: every node reaches every
                    // origin in this little hierarchy.
                    for (v, p) in stable.iter().enumerate() {
                        assert!(p.is_some(), "node {v} lost origin {origin}");
                    }
                }
                other => panic!("origin {origin}: expected safe, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_instance_truncates() {
        let g = peer_clique(13);
        assert!(
            SppInstance::build(&g, PolicyMode::AllPermit, 0, &[], SppCaps::default()).is_none()
        );
    }
}
