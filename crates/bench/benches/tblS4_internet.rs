//! **Table S4** (realistic topologies, §3): withdrawal convergence on a
//! CAIDA-style synthetic Internet hierarchy under Gao–Rexford policies,
//! with the SDN cluster grown from the top of the hierarchy downward
//! (tier-1s first, then regionals) — the deployment the clustering proposal
//! (paper refs [8,9]) envisions.

use bgpsdn_bench::{print_sweep, write_json, SweepRow, RUNS};
use bgpsdn_bgp::{PolicyMode, TimingConfig};
use bgpsdn_core::{Experiment, NetworkBuilder};
use bgpsdn_netsim::{SimDuration, SimRng};
use bgpsdn_topology::caida::{synthesize, SynthesisParams};
use bgpsdn_topology::plan;

fn main() {
    println!("== Table S4: internet-like topology, cluster size sweep ==");
    println!("~100-AS CAIDA-style hierarchy (4 tier-1 + 16 mid + 80 stubs),");
    println!("Gao-Rexford, MRAI 30 s, withdrawal at a multihomed stub, {RUNS} runs/point\n");

    let hour = SimDuration::from_secs(3600);
    let mut rows = Vec::new();
    // Cluster sizes: none, tier-1s only, +half the mid tier, +all mids.
    for &cluster_size in &[0usize, 4, 12, 20] {
        let mut times = Vec::new();
        for r in 0..RUNS {
            let mut rng = SimRng::seed_from_u64(8000 + r);
            let params = SynthesisParams::default();
            let ag = synthesize(&params, &mut rng);
            let n = ag.len();
            let tp = plan(
                ag,
                PolicyMode::GaoRexford,
                TimingConfig::with_mrai(SimDuration::from_secs(30)),
            )
            .unwrap();
            let net = NetworkBuilder::new(tp, 8100 + r)
                .with_sdn_members(0..cluster_size)
                .build();
            let mut exp = Experiment::new(net);
            assert!(exp.start(hour).converged, "bring-up");
            let stub = n - 1;
            exp.mark();
            exp.withdraw(stub, None);
            let rep = exp.wait_converged(hour);
            assert!(rep.converged, "withdrawal convergence");
            assert!(exp.prefix_fully_gone(exp.net.ases[stub].prefix));
            times.push(rep.duration);
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
