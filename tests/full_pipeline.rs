//! Workspace-level integration: drive the complete pipeline across all
//! crates — topology generation → address plan → hybrid network → live
//! experiment → collector view of the event → visualization export.

use bgp_sdn_emu::collector::{render_dot, VizNode, VizRole};
use bgp_sdn_emu::netsim::{ObsPrefix, TraceCategory, TraceEvent};
use bgp_sdn_emu::prelude::*;
use bgp_sdn_emu::topology::caida::{self, SynthesisParams};
use bgp_sdn_emu::topology::iplane;

const HOUR: SimDuration = SimDuration::from_secs(3600);

#[test]
fn topology_to_analysis_pipeline() {
    // 1. Topology from the CAIDA-style generator.
    let params = SynthesisParams {
        tier1: 3,
        mid: 3,
        stubs: 6,
        base_asn: 65000,
        ..Default::default()
    };
    let ag = caida::synthesize(&params, &mut SimRng::seed_from_u64(1));

    // 2. Address plan + router templates.
    let tp = plan(
        ag,
        PolicyMode::GaoRexford,
        TimingConfig::with_mrai(SimDuration::from_secs(2)),
    )
    .expect("plan");
    assert_eq!(tp.routers.len(), 12);
    let conf = tp.render_quagga(0);
    assert!(conf.contains("router bgp 65000"));

    // 3. Hybrid network with a 3-member cluster at the densest ASes.
    let mut by_degree: Vec<usize> = (0..12).collect();
    let edges = &tp.as_graph.edges;
    by_degree
        .sort_by_key(|&v| std::cmp::Reverse(edges.iter().filter(|e| e.a == v || e.b == v).count()));
    let members: Vec<usize> = by_degree[..3].to_vec();
    let mut net = NetworkBuilder::new(tp, 2).with_sdn_members(members).build();
    let collector = net.collector.expect("collector on");
    net.sim.trace_mut().enable(TraceCategory::Msg);

    // 4. Bring-up, event, convergence.
    let mut exp = Experiment::new(net);
    assert!(exp.start(HOUR).converged);
    let audit = exp.connectivity_audit();
    assert!(audit.fully_connected(), "{:?}", audit.failures);

    let victim = *by_degree.last().unwrap();
    let victim_prefix = exp.net.ases[victim].prefix;
    exp.mark();
    exp.apply(&ScriptAction::Withdraw {
        as_index: victim,
        prefix: None,
    });
    let rep = exp.wait_converged(HOUR);
    assert!(rep.converged);
    assert!(exp.prefix_fully_gone(victim_prefix));

    // 5. The collector's sessions delivered the withdrawal.
    let victim_prefix = ObsPrefix::from(victim_prefix);
    assert!(
        exp.net
            .sim
            .trace()
            .records()
            .any(|r| r.node == Some(collector)
                && matches!(&r.event, TraceEvent::UpdateDelivered { withdrawn, .. }
                if withdrawn.contains(&victim_prefix))),
        "collector never saw the withdrawal"
    );

    // 6. Visualization export.
    let nodes: Vec<VizNode> = exp
        .net
        .ases
        .iter()
        .map(|a| VizNode {
            id: a.node,
            label: a.asn.to_string(),
            role: match a.kind {
                AsKind::Legacy => VizRole::LegacyRouter,
                AsKind::SdnMember => VizRole::SdnSwitch,
            },
        })
        .collect();
    let edges: Vec<_> = exp
        .net
        .plan
        .as_graph
        .edges
        .iter()
        .map(|e| (exp.net.ases[e.a].node, exp.net.ases[e.b].node))
        .collect();
    let dot = render_dot("pipeline", &nodes, &edges, &[]);
    assert!(dot.contains("AS65000"));
}

#[test]
fn iplane_latencies_feed_the_simulation() {
    // Parse an iPlane inter-PoP sample, collapse it to AS level and run a
    // network whose link latencies come from the dataset. AS 100 has two
    // PoPs joined by an intra-AS link, which the collapse drops.
    let pg = iplane::parse(
        "100,0 100,1 400\n100,0 101,0 12000\n100,1 101,0 9000\n101,0 102,0 30000\n\
         102,0 103,0 2500\n103,0 104,0 7000\n104,0 100,1 15000\n",
    )
    .expect("sample parses");
    let (g, asns, latencies) = pg.collapse_to_as_graph();
    assert_eq!(latencies.len(), 5, "one link per AS pair");
    assert_eq!(
        latencies[0],
        SimDuration::from_millis(9),
        "100-101 at its minimum"
    );
    let ag = AsGraph {
        asns,
        ..AsGraph::all_peer(&g, 0)
    };
    assert_eq!(ag.len(), 5);

    let tp = plan(
        ag,
        PolicyMode::AllPermit,
        TimingConfig::with_mrai(SimDuration::ZERO),
    )
    .expect("plan");
    let net = NetworkBuilder::new(tp, 8)
        .with_edge_latencies(latencies)
        .with_sdn_members([3, 4])
        .build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(HOUR).converged);
    let audit = exp.connectivity_audit();
    assert!(audit.fully_connected(), "{:?}", audit.failures);
}

#[test]
fn facade_prelude_runs_a_scenario() {
    let spec = JobSpec {
        timing: TimingConfig::with_mrai(SimDuration::from_secs(2)),
        recompute_delay: SimDuration::from_millis(50),
        seed: 3,
        ..JobSpec::clique(5, 2)
    };
    let (out, _) = spec.run(|_| {});
    assert!(out.converged && out.audit_ok);
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let spec = JobSpec {
            timing: TimingConfig::with_mrai(SimDuration::from_secs(5)),
            event: EventKind::Failover,
            seed: 9,
            ..JobSpec::clique(6, 3)
        };
        let (out, _) = spec.run(|_| {});
        (out.convergence, out.updates, out.flow_mods)
    };
    assert_eq!(run(), run());
}

#[test]
fn random_waxman_topology_builds_and_converges() {
    // Arbitrary random geometric topology through the whole stack: Waxman
    // graph, connectivity repair, degree-inferred identities, hybrid build,
    // convergence, full-mesh forwarding audit.
    let mut rng = SimRng::seed_from_u64(33);
    let (mut g, coords) = gen::waxman(25, 0.9, 0.4, &mut rng);
    assert_eq!(coords.len(), 25);
    gen::ensure_connected(&mut g, &mut rng);
    let ag = AsGraph::all_peer(&g, 65000);
    let tp = plan(
        ag,
        PolicyMode::AllPermit,
        TimingConfig::with_mrai(SimDuration::from_secs(1)),
    )
    .expect("plan");

    // Cluster = the three highest-degree vertices.
    let mut order: Vec<usize> = (0..25).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let net = NetworkBuilder::new(tp, 34)
        .with_sdn_members(order[..3].iter().copied())
        .build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(SimDuration::from_secs(3600)).converged);
    let audit = exp.connectivity_audit();
    assert!(
        audit.fully_connected(),
        "waxman hybrid failures: {:?}",
        audit.failures.len()
    );
    // A random victim withdrawal cleans up globally.
    let victim = order[24];
    exp.mark();
    exp.apply(&ScriptAction::Withdraw {
        as_index: victim,
        prefix: None,
    });
    assert!(exp.wait_converged(SimDuration::from_secs(3600)).converged);
    assert!(exp.prefix_fully_gone(exp.net.ases[victim].prefix));
}
