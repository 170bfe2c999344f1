//! Property-based tests of cluster deployment strategies.
//!
//! The builder holds one list of cluster membership lists, however it is
//! named: `with_sdn_members(n - k..n)` and `with_deployment` of a single
//! tail cluster must build the *byte-identical* network — same node ids,
//! same event order, same convergence time. And multi-cluster runs must
//! stay as deterministic as everything else in the framework.

use bgp_sdn_emu::prelude::*;
use proptest::prelude::*;

/// Drive one clique withdrawal experiment with a caller-configured
/// builder, returning the full trace artifact and the convergence time.
fn run_withdrawal(
    n: usize,
    seed: u64,
    configure: impl FnOnce(NetworkBuilder) -> NetworkBuilder,
) -> (String, SimDuration) {
    let deadline = SimDuration::from_secs(3600);
    let ag = AsGraph::all_peer(&gen::clique(n), 65000);
    let timing = TimingConfig::with_mrai(SimDuration::from_secs(2));
    let tp = plan(ag, PolicyMode::AllPermit, timing).expect("address plan");
    let builder = NetworkBuilder::new(tp, seed).with_recompute_delay(SimDuration::from_millis(100));
    let net = configure(builder).build();
    let mut exp = Experiment::new(net);
    exp.net.sim.trace_mut().enable_all();
    let up = exp.start(deadline);
    assert!(up.converged, "bring-up did not converge");
    exp.mark_named("withdrawal");
    exp.withdraw(0, None);
    let report = exp.wait_converged(deadline);
    assert!(report.converged, "withdrawal did not converge");
    exp.finish();
    let mut jsonl = String::new();
    exp.net.sim.trace().export_jsonl_into(&mut jsonl);
    (jsonl, report.duration)
}

proptest! {
    /// A 1-cluster tail deployment resolved through the strategy layer is
    /// byte-for-byte the `with_sdn_members((n - k..n))` network: identical
    /// trace artifact, identical convergence time.
    #[test]
    fn single_tail_cluster_matches_legacy_path_exactly(
        n in 5usize..=7,
        pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let k = 1 + (pick as usize) % n;
        let members: Vec<usize> = (n - k..n).collect();
        let (legacy_trace, legacy_conv) =
            run_withdrawal(n, seed, |b| b.with_sdn_members(members.clone()));
        let (deployed_trace, deployed_conv) = run_withdrawal(n, seed, |b| {
            b.with_deployment(DeploymentStrategy::Tail { clusters: 1, total: k })
        });
        prop_assert_eq!(legacy_conv, deployed_conv);
        prop_assert!(!legacy_trace.is_empty());
        prop_assert_eq!(
            legacy_trace, deployed_trace,
            "1-cluster tail deployment must be byte-identical to with_sdn_members \
             (n={n}, k={k}, seed={seed})"
        );
    }

    /// Multi-cluster deployments replay byte-for-byte: the same strategy,
    /// topology and seed always build and drive the identical experiment.
    #[test]
    fn multicluster_runs_are_byte_deterministic(
        n in 6usize..=8,
        pick in any::<u64>(),
        which in 0usize..3,
        seed in any::<u64>(),
    ) {
        let clusters = 2usize;
        let total = clusters + (pick as usize) % (n - clusters);
        let strategy = || match which {
            0 => DeploymentStrategy::Tail { clusters, total },
            1 => DeploymentStrategy::HighestDegree { clusters, total },
            _ => DeploymentStrategy::RandomK { clusters, total },
        };
        let (trace_a, conv_a) = run_withdrawal(n, seed, |b| b.with_deployment(strategy()));
        let (trace_b, conv_b) = run_withdrawal(n, seed, |b| b.with_deployment(strategy()));
        prop_assert_eq!(conv_a, conv_b);
        prop_assert!(!trace_a.is_empty());
        prop_assert_eq!(
            trace_a, trace_b,
            "multi-cluster run must be byte-stable (n={n}, total={total}, seed={seed})"
        );
    }
}
