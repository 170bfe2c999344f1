//! **Table S4** (realistic topologies, §3): withdrawal convergence on a
//! CAIDA-style synthetic Internet hierarchy under Gao–Rexford policies,
//! with the SDN cluster grown from the top of the hierarchy downward
//! (tier-1s first, then regionals) — the deployment the clustering proposal
//! (paper refs [8,9]) envisions.

use bgpsdn_bench::{print_sweep, write_json, SweepRow, RUNS};
use bgpsdn_bgp::PolicyMode;
use bgpsdn_core::{DeploymentStrategy, JobSpec, Topology};
use bgpsdn_topology::caida::SynthesisParams;

fn main() {
    println!("== Table S4: internet-like topology, cluster size sweep ==");
    println!("~100-AS CAIDA-style hierarchy (4 tier-1 + 16 mid + 80 stubs),");
    println!("Gao-Rexford, MRAI 30 s, withdrawal at a multihomed stub, {RUNS} runs/point\n");

    let mut rows = Vec::new();
    // Cluster sizes: none, tier-1s only, +half the mid tier, +all mids —
    // the lowest AS indices, which the hierarchy numbers tier by tier.
    for &cluster_size in &[0usize, 4, 12, 20] {
        let mut times = Vec::new();
        for r in 0..RUNS {
            let topology = Topology::Hierarchy {
                params: SynthesisParams::default(),
                seed: 8000 + r,
            };
            let spec = JobSpec {
                policy: PolicyMode::GaoRexford,
                deployment: DeploymentStrategy::Explicit(vec![(0..cluster_size).collect()]),
                origin: topology.as_count() - 1,
                seed: 8100 + r,
                ..JobSpec::new(topology)
            };
            let (out, _) = spec.run(|_| {});
            assert!(out.converged, "withdrawal convergence");
            assert!(out.audit_ok, "the withdrawn stub prefix must be gone");
            times.push(out.convergence);
        }
        rows.push(SweepRow::from_durations(cluster_size as f64, &times));
    }
    print_sweep("cluster", " ASes", &rows);

    // Honest shape: under Gao-Rexford, valley-free policy already suppresses
    // most path exploration, so stub withdrawals converge fast with or
    // without the cluster; the controller must not add more than its own
    // recompute-delay worth of latency.
    let first = rows.first().unwrap().median;
    let last = rows.last().unwrap().median;
    assert!(
        first < 5.0,
        "Gao-Rexford keeps stub withdrawal fast: {first}"
    );
    assert!(
        last <= first + 0.5,
        "the cluster must not materially slow convergence: {first} -> {last}"
    );
    println!("\nshape check: PASS (policy-constrained topologies converge quickly");
    println!("either way — the clique's linear gain needs policy-free transit; the");
    println!("cluster adds only its recompute-delay overhead here)");

    write_json("tblS4_internet", &[], &rows);
}
