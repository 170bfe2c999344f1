//! **Table S15** (multi-cluster deployment strategies): where should k
//! independent SDN clusters land on an internet-like hierarchy?
//!
//! The clustering proposal the paper builds toward (refs [8,9]) assumes
//! the centralized core sits at the *top* of the hierarchy. This bench
//! quantifies that assumption: on a CAIDA-style topology under
//! policy-free transit (the regime where path exploration actually
//! hurts), the same member budget is deployed either by the `Degree`
//! placement (the transit core first) or by the `Random` one (uniform
//! over all ASes), split into 1 or 2 independent clusters, and a stub
//! withdrawal is timed. Degree-ordered placement must beat random
//! placement at the equal fraction — the headline `degree_advantage`
//! ratio (random median / degree median) is written beside the rows.

use bgpsdn_bench::{write_json, RUNS};
use bgpsdn_core::{DeploymentStrategy, JobSpec, Placement, Topology};
use bgpsdn_obs::{impl_to_json, Summary};
use bgpsdn_topology::caida::SynthesisParams;

/// Member budget: the tier-1 clique plus half the mid tier.
const TOTAL_MEMBERS: usize = 8;

struct Row {
    strategy: &'static str,
    clusters: usize,
    conv_median_s: f64,
    conv_mean_s: f64,
    updates_mean: f64,
}

impl_to_json!(Row {
    strategy,
    clusters,
    conv_median_s,
    conv_mean_s,
    updates_mean
});

fn sweep_point(placement: Placement, clusters: usize) -> Row {
    let mut times = Vec::new();
    let mut updates = Vec::new();
    for r in 0..RUNS {
        // Same topology + seed per run index across strategies: the only
        // thing that differs between the compared cells is the placement.
        let topology = Topology::Hierarchy {
            params: SynthesisParams {
                tier1: 3,
                mid: 10,
                stubs: 24,
                ..SynthesisParams::default()
            },
            seed: 15000 + r,
        };
        let spec = JobSpec {
            deployment: DeploymentStrategy::Placed {
                placement,
                clusters,
                total: TOTAL_MEMBERS,
            },
            origin: topology.as_count() - 1,
            seed: 15100 + r,
            ..JobSpec::new(topology)
        };
        let (out, _) = spec.run(|_| {});
        assert!(out.converged, "withdrawal convergence");
        assert!(out.audit_ok, "the withdrawn stub prefix must be gone");
        times.push(out.convergence.as_secs_f64());
        // Updates count from the withdrawal on — exactly the re-convergence.
        updates.push(out.updates as f64);
    }
    let s = Summary::of(times).unwrap();
    Row {
        strategy: placement.name(),
        clusters,
        conv_median_s: s.median,
        conv_mean_s: s.mean,
        updates_mean: updates.iter().sum::<f64>() / updates.len() as f64,
    }
}

fn main() {
    println!("== Table S15: multi-cluster deployment strategies ==");
    println!("37-AS CAIDA-style hierarchy (3 tier-1 + 10 mid + 24 stubs), policy-free");
    println!("transit, MRAI 30 s, {TOTAL_MEMBERS} members, stub withdrawal, {RUNS} runs/point\n");

    let mut rows = Vec::new();
    println!(
        "{:>10} {:>9} {:>13} {:>11} {:>13}",
        "strategy", "clusters", "conv median", "conv mean", "updates mean"
    );
    for &clusters in &[1usize, 2] {
        for placement in [Placement::Degree, Placement::Random] {
            let row = sweep_point(placement, clusters);
            println!(
                "{:>10} {:>9} {:>12.2}s {:>10.2}s {:>13.1}",
                row.strategy, row.clusters, row.conv_median_s, row.conv_mean_s, row.updates_mean
            );
            rows.push(row);
        }
    }

    let median = |placement: Placement, clusters: usize| {
        rows.iter()
            .find(|r| r.strategy == placement.name() && r.clusters == clusters)
            .map(|r| r.conv_median_s)
            .unwrap()
    };
    let advantage = |clusters| {
        median(Placement::Random, clusters) / median(Placement::Degree, clusters).max(1e-9)
    };
    let (advantage_1, advantage_2) = (advantage(1), advantage(2));
    println!("\ndegree advantage (random median / degree median):");
    println!("  1 cluster : {advantage_1:.2}x");
    println!("  2 clusters: {advantage_2:.2}x");

    // Honest shape: at an equal member fraction, placing the clusters on
    // the transit core must beat uniform-random placement — random mass
    // lands on stubs that never transit the hunted paths.
    assert!(
        advantage_1 > 1.0 && advantage_2 > 1.0,
        "degree-ordered deployment must beat random at equal fraction \
         (measured {advantage_1:.2}x / {advantage_2:.2}x)"
    );
    println!("\nshape check: PASS (degree placement beats random at both cluster counts)");

    write_json(
        "tblS15_multicluster",
        &[
            ("degree_advantage", advantage_2),
            ("degree_advantage_single", advantage_1),
        ],
        &rows,
    );
}
