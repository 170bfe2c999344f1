//! Cross-validation of the static analyzer against the simulator: the
//! analyzer's verdicts must be *predictions*, not just lint output.
//!
//! Three directions:
//!
//! * soundness of `Safe` — random Gao–Rexford policy graphs the analyzer
//!   certifies safe must converge in simulation, and the routes the
//!   simulated routers settle on must be exactly the stable assignment the
//!   SPP solver predicted;
//! * soundness of `Wheel` — the canonical BAD GADGET override rules must
//!   be flagged statically with the right rim, and the very same rules
//!   (compiled to route maps and installed on the simulated routers) must
//!   observably oscillate: the simulation never quiesces;
//! * tightness of the path-hunting bound — the measured hunt-chain depth
//!   of traced Figure 2 runs must stay within `hunt_depth_bound` at every
//!   centralization level.

use bgp_sdn_emu::analyze::spp::{bad_gadget_rules, PathRule, SppCaps, SppInstance, SppOutcome};
use bgp_sdn_emu::prelude::*;
use bgp_sdn_emu::topology::{AsEdge, EdgeKind};
use proptest::prelude::*;

const HOUR: SimDuration = SimDuration::from_secs(3600);

/// A random Gao–Rexford AS graph that is safe by construction: node 0 is
/// the unique top provider (every other node picks a provider of lower
/// index, so the provider hierarchy is an acyclic tree rooted at 0) plus a
/// sprinkling of peering links between unrelated pairs.
fn gr_graph(n: usize, provider_picks: &[usize], peer_picks: &[(usize, usize)]) -> AsGraph {
    let asns: Vec<Asn> = (0..n).map(|i| Asn(65001 + i as u32)).collect();
    let mut edges = Vec::new();
    for i in 1..n {
        let p = provider_picks[(i - 1) % provider_picks.len()] % i;
        edges.push(AsEdge {
            a: p,
            b: i,
            kind: EdgeKind::ProviderCustomer,
        });
    }
    for &(x, y) in peer_picks {
        let (a, b) = (x % n, y % n);
        if a == b {
            continue;
        }
        let (a, b) = (a.min(b), a.max(b));
        if edges.iter().any(|e| (e.a, e.b) == (a, b)) {
            continue;
        }
        edges.push(AsEdge {
            a,
            b,
            kind: EdgeKind::PeerPeer,
        });
    }
    AsGraph { asns, edges }
}

proptest! {
    /// Graphs the analyzer certifies safe converge in simulation, and the
    /// converged RIBs match the SPP solver's predicted stable assignment
    /// route-for-route.
    #[test]
    fn analyzer_safe_graphs_converge_to_the_predicted_state(
        n in 4usize..=6,
        provider_picks in prop::collection::vec(0usize..100, 5..=5),
        peer_picks in prop::collection::vec((0usize..100, 0usize..100), 0..4),
        seed in 1u64..10_000,
    ) {
        let g = gr_graph(n, &provider_picks, &peer_picks);

        // The safety pass must certify the graph (GR + acyclic hierarchy).
        let report = check_safety(&SafetyInput {
            graph: &g,
            mode: PolicyMode::GaoRexford,
            members: &[],
            rules: &[],
        });
        prop_assert!(report.ok(), "analyzer rejected a GR DAG:\n{}", report.render());

        // The explicit solver must agree and produce a stable assignment
        // for routes to node 0.
        let inst = SppInstance::build(&g, PolicyMode::GaoRexford, 0, &[], SppCaps::default())
            .expect("instance within caps");
        let stable = match inst.solve() {
            SppOutcome::Safe { stable } => stable,
            other => return Err(TestCaseError::Fail(format!("expected Safe, got {other:?}"))),
        };

        // Run the graph for real and compare every router's best path for
        // the origin's prefix against the prediction.
        let tp = plan(
            g.clone(),
            PolicyMode::GaoRexford,
            TimingConfig::with_mrai(SimDuration::from_secs(1)),
        )
        .expect("plan");
        let net = NetworkBuilder::new(tp, seed).build();
        let mut exp = Experiment::new(net);
        let up = exp.start(HOUR);
        prop_assert!(up.converged, "analyzer-safe graph failed to converge");

        let p0 = exp.net.ases[0].prefix;
        for (v, predicted) in stable.iter().enumerate().skip(1) {
            let node = exp.net.ases[v].node;
            let got: Option<Vec<Asn>> = exp
                .net
                .sim
                .node_ref::<Router>(node)
                .best(p0)
                .map(|e| e.attrs.as_path.flatten());
            // The predicted path is owner-first and includes the owner; the
            // wire AS path starts at the first hop.
            let want: Option<Vec<Asn>> = predicted
                .as_ref()
                .map(|path| path[1..].iter().map(|&w| g.asns[w]).collect());
            prop_assert_eq!(
                got.clone(),
                want.clone(),
                "node {} settled on {:?}, solver predicted {:?}",
                v,
                got,
                want
            );
        }
    }
}

#[test]
fn bad_gadget_is_flagged_statically_with_the_rim() {
    let g = AsGraph::all_peer(&gen::clique(4), 65000);
    let rules = bad_gadget_rules();
    let inst = SppInstance::build(&g, PolicyMode::AllPermit, 0, &rules, SppCaps::default())
        .expect("instance within caps");
    match inst.solve() {
        SppOutcome::Wheel { mut rim } => {
            rim.sort_unstable();
            assert_eq!(rim, vec![1, 2, 3], "the rim is the three overriding nodes");
        }
        other => panic!("expected a dispute wheel, got {other:?}"),
    }
    // And the full safety pass surfaces it as an error finding.
    let report = check_safety(&SafetyInput {
        graph: &g,
        mode: PolicyMode::AllPermit,
        members: &[],
        rules: &rules,
    });
    assert!(!report.ok());
    let first = report.first_error().expect("an error finding");
    assert_eq!(first.code, "safety.dispute_wheel");
}

/// The other half of the `Wheel` cross-validation: compile the same rules
/// to route maps, install them on the simulated routers, and watch the
/// network fail to quiesce. BAD GADGET has *no* stable assignment, so any
/// quiescent state would contradict the static verdict.
#[test]
fn bad_gadget_observably_oscillates_in_simulation() {
    let tp = plan(
        AsGraph::all_peer(&gen::clique(4), 65000),
        PolicyMode::AllPermit,
        TimingConfig::with_mrai(SimDuration::ZERO),
    )
    .expect("plan");
    let asns = tp.as_graph.asns.clone();
    let maps = PathRule::route_maps(&bad_gadget_rules(), &asns);

    let net = NetworkBuilder::new(tp, 7).build();
    let mut exp = Experiment::new(net);
    for (at, from, map) in maps {
        let node = exp.net.ases[at].node;
        let peer_asn = asns[from];
        exp.net.sim.with_node::<Router, _>(node, |r| {
            let cfg = r.config_mut();
            let idx = cfg
                .neighbors
                .iter()
                .position(|nb| nb.remote_asn == peer_asn)
                .expect("session to the rim neighbor");
            cfg.neighbors[idx].import_map = Some(map.clone());
        });
    }

    // With MRAI at zero nothing paces the dispute; 30 simulated seconds is
    // thousands of times around the wheel.
    let up = exp.start(SimDuration::from_secs(30));
    assert!(
        !up.converged,
        "BAD GADGET quiesced — the static Wheel verdict would be wrong"
    );
}

/// Table S14: the ghost paths explored during traced Figure 2 withdrawals
/// must stay within the analyzer's static hunt-depth bound
/// (contracted-component size − 1) at every centralization level. The
/// bound caps the *length* of any transient best path a BGP router can
/// hold while hunting; at full centralization it reaches zero and BGP
/// path exploration must vanish entirely.
#[test]
fn measured_ghost_paths_stay_within_the_static_hunt_bound() {
    let g = AsGraph::all_peer(&gen::clique(16), 65000);
    for sdn in [0usize, 8, 16] {
        let members: Vec<usize> = (16 - sdn..16).collect();
        let bound = hunt_depth_bound(&g, &members, 0);
        assert_eq!(bound, 16 - sdn.max(1), "clique bound is component size - 1");

        let scenario = JobSpec {
            seed: 4242,
            ..JobSpec::clique(16, sdn)
        };
        let (out, exp) = scenario.run(|sim| {
            sim.trace_mut().enable_all();
            sim.set_profiling(true);
        });
        assert!(out.converged);
        let phase_start = exp.phase_start();
        let measured = exp
            .net
            .sim
            .trace()
            .records()
            .filter(|r| r.time >= phase_start)
            .filter_map(|r| match &r.event {
                TraceEvent::RibChange {
                    new_path: Some(p), ..
                } => Some(p.len()),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        println!("sdn={sdn}: static bound {bound}, deepest transient path {measured}");
        assert!(
            measured <= bound,
            "sdn={sdn}: a transient best path of {measured} hops exceeds the static bound {bound}"
        );
    }
}
