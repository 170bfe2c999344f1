//! Cluster deployment strategies: *where* to place SDN clusters.
//!
//! The paper evaluates one contiguous cluster in a 16-AS clique; the
//! follow-up studies (Sermpezis & Dimitropoulos 2016/2017) show that the
//! interesting regime is **multiple independent clusters** and the choice
//! of which ASes to centralize — random picks, the highest-degree cores,
//! the densest k-core, or one cluster per hierarchy tier. A [`Placement`]
//! names that choice; a [`DeploymentStrategy`] turns an [`AsGraph`] plus
//! a placement and a deployment budget (or explicit lists) into `k`
//! disjoint membership sets, one per cluster, with fail-fast validation;
//! [`super::NetworkBuilder::with_deployment`] consumes the result.

use std::cmp::Reverse;

use bgpsdn_bgp::Relationship;
use bgpsdn_netsim::SimRng;
use bgpsdn_topology::AsGraph;

/// Which ASes a budget of members goes to: the one list of placement
/// names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The paper's layout: the highest AS indices, split into contiguous
    /// groups. With one cluster this is the `(n - total..n)` placement of
    /// the Fig. 2 clique experiments.
    Tail,
    /// ASes drawn uniformly at random (seeded), split evenly.
    Random,
    /// The highest-degree ASes, split evenly in degree order.
    Degree,
    /// The ASes of highest coreness (innermost k-core first), split evenly
    /// in peeling order.
    KCore,
    /// One cluster per hierarchy tier (provider depth 0 = tier-1 clique),
    /// highest-degree ASes first within each tier; deeper tiers absorb any
    /// overflow when a tier is smaller than its share.
    Tier,
}

impl Placement {
    /// Every placement's stable name, as `bgpsdn sweep --strategy` spells
    /// it and campaign artifacts record it, in declaration order.
    const NAMES: [(Placement, &'static str); 5] = [
        (Placement::Tail, "tail"),
        (Placement::Random, "random"),
        (Placement::Degree, "degree"),
        (Placement::KCore, "kcore"),
        (Placement::Tier, "tier"),
    ];

    /// The placement's stable name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize].1
    }

    /// The placement's id in a campaign's deployment seed fold; changing
    /// one changes every seed of that placement (id 1 named explicit lists).
    pub(crate) fn seed_id(self) -> u64 {
        self as u64 + 2
    }

    /// The first `total` ASes of `graph` in this placement's order.
    fn select(self, graph: &AsGraph, total: usize, seed: u64) -> Vec<usize> {
        let n = graph.len();
        let mut order = match self {
            Placement::Tail => return (n - total..n).collect(),
            Placement::Random => {
                let mut picked = SimRng::seed_from_u64(seed).sample_indices(n, total);
                picked.sort_unstable();
                return picked;
            }
            Placement::Degree => {
                let deg = degrees(graph);
                ranked(n, |&v| (Reverse(deg[v]), v))
            }
            Placement::KCore => {
                let (core, deg) = (coreness(graph), degrees(graph));
                ranked(n, |&v| (Reverse(core[v]), Reverse(deg[v]), v))
            }
            Placement::Tier => {
                let (tier, deg) = (tiers(graph), degrees(graph));
                ranked(n, |&v| (tier[v], Reverse(deg[v]), v))
            }
        };
        order.truncate(total);
        order
    }
}

/// All `n` ASes in ascending order of `key`.
fn ranked<K: Ord>(n: usize, key: impl FnMut(&usize) -> K) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(key);
    order
}

impl std::str::FromStr for Placement {
    type Err = String;

    fn from_str(name: &str) -> Result<Placement, String> {
        Self::NAMES
            .iter()
            .find(|(_, n)| *n == name)
            .map(|&(p, _)| p)
            .ok_or_else(|| {
                let names = Self::NAMES.map(|(_, n)| n).join("|");
                format!("must be one of {names}, got {name:?}")
            })
    }
}

/// How SDN cluster membership is chosen over a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeploymentStrategy {
    /// Explicit membership lists, one per cluster.
    Explicit(Vec<Vec<usize>>),
    /// `total` ASes chosen by a placement, split into `clusters` groups
    /// whose sizes differ by at most one.
    Placed {
        /// Which ASes the budget goes to.
        placement: Placement,
        /// Number of independent clusters.
        clusters: usize,
        /// Total ASes under centralized control, across all clusters.
        total: usize,
    },
}

impl DeploymentStrategy {
    /// The strategy's stable name, as recorded in artifacts.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            DeploymentStrategy::Explicit(_) => "explicit",
            DeploymentStrategy::Placed { placement, .. } => placement.name(),
        }
    }

    /// `(cluster count, member budget)`: for explicit lists, how many lists
    /// and how many members they hold together.
    pub(crate) fn shape(&self) -> (usize, usize) {
        match self {
            DeploymentStrategy::Explicit(lists) => (lists.len(), lists.iter().map(Vec::len).sum()),
            DeploymentStrategy::Placed {
                clusters, total, ..
            } => (*clusters, *total),
        }
    }

    /// Resolve the strategy against a topology: returns `clusters` disjoint,
    /// individually sorted, non-empty membership sets. `seed` feeds the
    /// random placement only, so every other strategy is
    /// placement-deterministic.
    ///
    /// # Errors
    ///
    /// Fails fast on an infeasible deployment: zero clusters with a
    /// non-zero budget, a budget smaller than the cluster count or larger
    /// than the topology, out-of-range or duplicated explicit members.
    // detlint: allow test-oracle the placement cli_check and campaign_sim check a run against
    pub fn assign(&self, graph: &AsGraph, seed: u64) -> Result<Vec<Vec<usize>>, String> {
        let n = graph.len();
        let resolved = match self {
            DeploymentStrategy::Explicit(lists) => {
                let mut lists = lists.clone();
                for members in &mut lists {
                    members.sort_unstable();
                }
                lists
            }
            &DeploymentStrategy::Placed {
                placement,
                clusters,
                total,
            } => {
                check_budget(n, clusters, total)?;
                chunk_even(placement.select(graph, total, seed), clusters)
            }
        };
        validate_clusters(&resolved, n)?;
        Ok(resolved)
    }
}

/// Fail-fast check that `clusters` lists are a legal deployment over `n`
/// ASes: every cluster non-empty, every index in range, no AS in two
/// clusters. An empty outer list (no SDN at all) is legal.
fn validate_clusters(clusters: &[Vec<usize>], n: usize) -> Result<(), String> {
    let mut seen = vec![false; n];
    for (c, members) in clusters.iter().enumerate() {
        if members.is_empty() {
            return Err(format!("cluster {c} is empty"));
        }
        for &m in members {
            if m >= n {
                return Err(format!(
                    "cluster {c} member index {m} out of range (n = {n})"
                ));
            }
            if seen[m] {
                return Err(format!("AS {m} assigned to more than one cluster"));
            }
            seen[m] = true;
        }
    }
    Ok(())
}

fn check_budget(n: usize, clusters: usize, total: usize) -> Result<(), String> {
    if clusters == 0 {
        return Err("deployment needs at least one cluster".into());
    }
    if total < clusters {
        return Err(format!(
            "budget of {total} ASes cannot populate {clusters} clusters"
        ));
    }
    if total > n {
        return Err(format!("budget {total} exceeds topology size {n}"));
    }
    Ok(())
}

/// Split an ordered selection into `k` groups whose sizes differ by at
/// most one (earlier groups take the remainder), each sorted ascending.
fn chunk_even(selection: Vec<usize>, k: usize) -> Vec<Vec<usize>> {
    let total = selection.len();
    let (base, extra) = (total / k, total % k);
    let mut out = Vec::with_capacity(k);
    let mut it = selection.into_iter();
    for c in 0..k {
        let take = base + usize::from(c < extra);
        let mut members: Vec<usize> = it.by_ref().take(take).collect();
        members.sort_unstable();
        out.push(members);
    }
    out
}

fn degrees(graph: &AsGraph) -> Vec<usize> {
    let mut deg = vec![0usize; graph.len()];
    for e in &graph.edges {
        deg[e.a] += 1;
        deg[e.b] += 1;
    }
    deg
}

/// Classic k-core decomposition by iterative min-degree peeling; returns
/// each vertex's coreness.
fn coreness(graph: &AsGraph) -> Vec<usize> {
    let n = graph.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in &graph.edges {
        adj[e.a].push(e.b);
        adj[e.b].push(e.a);
    }
    let mut deg: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut core = vec![0usize; n];
    let mut removed = vec![false; n];
    // The core number is the running maximum of the minimum residual
    // degree along the peeling order.
    let mut shell = 0usize;
    for _ in 0..n {
        let v = (0..n)
            .filter(|&v| !removed[v])
            .min_by_key(|&v| (deg[v], v))
            .expect("vertex remains");
        shell = shell.max(deg[v]);
        core[v] = shell;
        removed[v] = true;
        for &w in &adj[v] {
            if !removed[w] {
                deg[w] -= 1;
            }
        }
    }
    core
}

/// Provider depth per AS: 0 for provider-free ASes (the tier-1 mesh),
/// otherwise one more than the deepest provider above. The CAIDA-style
/// hierarchy is acyclic by construction; cyclic inputs saturate instead of
/// looping.
fn tiers(graph: &AsGraph) -> Vec<usize> {
    let n = graph.len();
    let mut providers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in &graph.edges {
        // `relationship_from(x)` names what the *other* end is to `x`.
        if e.relationship_from(e.b) == Relationship::Provider {
            providers[e.b].push(e.a);
        } else if e.relationship_from(e.a) == Relationship::Provider {
            providers[e.a].push(e.b);
        }
    }
    let mut tier = vec![0usize; n];
    // Relax at most n rounds: enough for any acyclic hierarchy.
    for _ in 0..n {
        let mut changed = false;
        for v in 0..n {
            for &p in &providers[v] {
                if tier[v] < tier[p] + 1 {
                    tier[v] = tier[p] + 1;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    tier
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsdn_topology::gen;

    fn clique(n: usize) -> AsGraph {
        AsGraph::all_peer(&gen::clique(n), 65000)
    }

    #[test]
    fn tail_single_cluster_matches_legacy_layout() {
        let g = clique(16);
        let strat = DeploymentStrategy::Placed {
            placement: Placement::Tail,
            clusters: 1,
            total: 8,
        };
        assert_eq!(
            strat.assign(&g, 1).unwrap(),
            vec![(8..16).collect::<Vec<_>>()]
        );
    }

    #[test]
    fn tail_splits_contiguously() {
        let g = clique(16);
        let strat = DeploymentStrategy::Placed {
            placement: Placement::Tail,
            clusters: 2,
            total: 8,
        };
        assert_eq!(
            strat.assign(&g, 1).unwrap(),
            vec![vec![8, 9, 10, 11], vec![12, 13, 14, 15]]
        );
    }

    #[test]
    fn uneven_budget_spreads_remainder_forward() {
        let g = clique(16);
        let strat = DeploymentStrategy::Placed {
            placement: Placement::Tail,
            clusters: 3,
            total: 8,
        };
        let got = strat.assign(&g, 1).unwrap();
        assert_eq!(got.iter().map(Vec::len).collect::<Vec<_>>(), vec![3, 3, 2]);
    }

    #[test]
    fn random_is_seed_deterministic_and_disjoint() {
        let g = clique(16);
        let strat = DeploymentStrategy::Placed {
            placement: Placement::Random,
            clusters: 4,
            total: 8,
        };
        let a = strat.assign(&g, 42).unwrap();
        let b = strat.assign(&g, 42).unwrap();
        assert_eq!(a, b, "same seed, same placement");
        assert!(validate_clusters(&a, 16).is_ok());
        let c = strat.assign(&g, 43).unwrap();
        assert_ne!(a, c, "different seed should move the placement");
    }

    #[test]
    fn degree_prefers_the_core_of_a_star() {
        // Star: vertex 0 is the hub.
        let g = AsGraph::all_peer(&gen::star(9), 65000);
        let strat = DeploymentStrategy::Placed {
            placement: Placement::Degree,
            clusters: 1,
            total: 1,
        };
        assert_eq!(strat.assign(&g, 1).unwrap(), vec![vec![0]]);
    }

    #[test]
    fn kcore_ranks_clique_over_pendant() {
        // A 4-clique with a pendant vertex 4 attached to vertex 0.
        let mut raw = gen::clique(4);
        raw.add_node();
        raw.add_edge(0, 4);
        let g = AsGraph::all_peer(&raw, 65000);
        let strat = DeploymentStrategy::Placed {
            placement: Placement::KCore,
            clusters: 1,
            total: 4,
        };
        assert_eq!(strat.assign(&g, 1).unwrap(), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn per_tier_selects_tier1_first() {
        use bgpsdn_netsim::SimRng;
        use bgpsdn_topology::caida;
        let mut rng = SimRng::seed_from_u64(7);
        let g = caida::synthesize(&caida::SynthesisParams::default(), &mut rng);
        let strat = DeploymentStrategy::Placed {
            placement: Placement::Tier,
            clusters: 2,
            total: 6,
        };
        let got = strat.assign(&g, 7).unwrap();
        // Tier-1 ASes are the first `tier1` indices in the synthesized
        // graph; the first cluster must come from them.
        assert!(
            got[0].iter().all(|&v| v < 4),
            "cluster 0 sits in tier-1: {got:?}"
        );
    }

    #[test]
    fn infeasible_budgets_fail_fast() {
        let g = clique(8);
        for strat in [
            DeploymentStrategy::Placed {
                placement: Placement::Tail,
                clusters: 0,
                total: 4,
            },
            DeploymentStrategy::Placed {
                placement: Placement::Tail,
                clusters: 5,
                total: 4,
            },
            DeploymentStrategy::Placed {
                placement: Placement::Tail,
                clusters: 1,
                total: 9,
            },
            DeploymentStrategy::Explicit(vec![vec![1], vec![]]),
            DeploymentStrategy::Explicit(vec![vec![1], vec![1]]),
            DeploymentStrategy::Explicit(vec![vec![99]]),
        ] {
            assert!(strat.assign(&g, 1).is_err(), "{strat:?} must be rejected");
        }
    }

    #[test]
    fn names_round_trip() {
        for name in ["tail", "random", "degree", "kcore", "tier"] {
            let placement: Placement = name.parse().expect("known name");
            assert_eq!(placement.name(), name);
            let s = DeploymentStrategy::Placed {
                placement,
                clusters: 2,
                total: 4,
            };
            assert_eq!(s.name(), name);
        }
        for bogus in ["bogus", "explicit", ""] {
            let err = bogus.parse::<Placement>().expect_err("not a placement");
            assert!(err.contains("tail|random|degree|kcore|tier"), "{err}");
        }
        assert_eq!(
            DeploymentStrategy::Explicit(vec![vec![1]]).name(),
            "explicit"
        );
    }
}
