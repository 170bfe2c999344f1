//! The cluster lists are a *set of sets*: neither the order the clusters
//! are listed in nor the order of members inside a list may change what
//! the analyzer concludes.

use bgpsdn_analyze::{
    check_safety_clusters, hunt_depth_bound_clusters, AnalysisReport, SafetyClustersInput,
};
use bgpsdn_bgp::{Asn, PolicyMode};
use bgpsdn_netsim::SimRng;
use bgpsdn_topology::{AsEdge, AsGraph, EdgeKind};
use proptest::prelude::*;

/// A random Gao–Rexford graph: every node but 0 picks a provider of lower
/// index (an acyclic hierarchy rooted at 0), plus peering links between
/// pairs not already adjacent.
fn gr_graph(n: usize, provider_picks: &[usize], peer_picks: &[(usize, usize)]) -> AsGraph {
    let asns = (0..n).map(|i| Asn(65001 + i as u32)).collect();
    let mut edges = Vec::new();
    for i in 1..n {
        edges.push(AsEdge {
            a: provider_picks[i - 1] % i,
            b: i,
            kind: EdgeKind::ProviderCustomer,
        });
    }
    for &(x, y) in peer_picks {
        let (a, b) = ((x % n).min(y % n), (x % n).max(y % n));
        if a != b && !edges.iter().any(|e| (e.a, e.b) == (a, b)) {
            edges.push(AsEdge {
                a,
                b,
                kind: EdgeKind::PeerPeer,
            });
        }
    }
    AsGraph { asns, edges }
}

fn sorted_codes(report: &AnalysisReport) -> Vec<&'static str> {
    let mut codes: Vec<&'static str> = report.findings.iter().map(|f| f.code).collect();
    codes.sort_unstable();
    codes
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut SimRng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below_usize(i + 1));
    }
}

proptest! {
    #[test]
    fn cluster_and_member_order_do_not_matter(
        n in 6usize..=12,
        provider_picks in prop::collection::vec(0usize..100, 11..=11),
        peer_picks in prop::collection::vec((0usize..100, 0usize..100), 0..6),
        // Per vertex: 0 = legacy, c = member of cluster c - 1.
        owner in prop::collection::vec(0usize..4, 12..=12),
        blemish in 0usize..3,
        shuffle_seed in any::<u64>(),
    ) {
        let g = gr_graph(n, &provider_picks, &peer_picks);
        let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); 3];
        for v in 0..n {
            if owner[v] > 0 {
                clusters[owner[v] - 1].push(v);
            }
        }
        clusters.retain(|members| !members.is_empty());
        // Disjoint by construction; sometimes untidy (a repeated member, an
        // out-of-range index) so the membership findings are exercised too.
        if let Some(first) = clusters.first_mut() {
            match blemish {
                1 => first.push(first[0]),
                2 => first.push(n + 3),
                _ => {}
            }
        }

        let mut permuted = clusters.clone();
        let mut rng = SimRng::seed_from_u64(shuffle_seed);
        shuffle(&mut rng, &mut permuted);
        for members in &mut permuted {
            shuffle(&mut rng, members);
        }

        let check = |clusters: &[Vec<usize>]| {
            check_safety_clusters(&SafetyClustersInput {
                graph: &g,
                mode: PolicyMode::GaoRexford,
                clusters,
                rules: &[],
            })
        };
        let (a, b) = (check(&clusters), check(&permuted));
        prop_assert_eq!(sorted_codes(&a), sorted_codes(&b), "clusters {:?} vs {:?}", clusters, permuted);
        prop_assert_eq!(a.checks, b.checks);
        for origin in 0..n {
            prop_assert_eq!(
                hunt_depth_bound_clusters(&g, &clusters, origin),
                hunt_depth_bound_clusters(&g, &permuted, origin),
                "origin {} under {:?} vs {:?}", origin, clusters, permuted
            );
        }
    }
}
