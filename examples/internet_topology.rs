//! Internet-like experiment: a CAIDA-style synthetic AS topology under
//! Gao–Rexford policies, with the SDN cluster at the top of the hierarchy.
//! Exports the network graph as Graphviz DOT and a sample Quagga-style
//! router configuration, then measures a stub withdrawal.
//!
//! ```sh
//! cargo run --release --example internet_topology
//! dot -Tsvg target/internet_topology.dot -o topology.svg   # optional
//! ```

use bgp_sdn_emu::collector::{render_dot, VizNode, VizRole};
use bgp_sdn_emu::prelude::*;
use bgp_sdn_emu::topology::caida::{self, SynthesisParams};

fn main() {
    // Synthesize a CAIDA-like hierarchy: 3 tier-1s, 8 regionals, 30 stubs.
    let mut rng = SimRng::seed_from_u64(2024);
    let params = SynthesisParams {
        tier1: 3,
        mid: 8,
        stubs: 30,
        ..Default::default()
    };
    let ag = caida::synthesize(&params, &mut rng);
    let n = ag.len();
    let (pc, pp) = ag.relationship_counts();
    println!(
        "synthetic CAIDA-style topology: {n} ASes, {pc} provider-customer + {pp} peering links"
    );
    println!("(the parser in bgpsdn_topology::caida reads the real as-rel.txt format too)\n");

    // The same content as a CAIDA as-rel file, roundtripped for show.
    let rel_file = caida::write(&ag);
    println!(
        "as-rel excerpt:\n{}",
        rel_file.lines().take(5).collect::<Vec<_>>().join("\n")
    );

    let topo = plan(
        ag,
        PolicyMode::GaoRexford,
        TimingConfig::with_mrai(SimDuration::from_secs(5)),
    )
    .expect("plan");

    // A sample of the generated Quagga-style configuration.
    println!("\ngenerated bgpd.conf for the first tier-1:\n");
    for line in topo.render_quagga(0).lines().take(12) {
        println!("  {line}");
    }

    // Cluster = the tier-1 full mesh.
    let net = NetworkBuilder::new(topo, 9)
        .with_sdn_members([0, 1, 2])
        .with_data_latency(LatencyModel::Jittered {
            base: SimDuration::from_millis(2),
            jitter: SimDuration::from_millis(8),
        })
        .build();
    let mut exp = Experiment::new(net);
    let up = exp.start(SimDuration::from_secs(3600));
    assert!(up.converged);
    let audit = exp.connectivity_audit();
    println!(
        "\nbring-up: converged in {}, connectivity {}/{} pairs",
        up.duration,
        audit.delivered,
        audit.total()
    );

    // Export the graph for Graphviz.
    let nodes: Vec<VizNode> = exp
        .net
        .ases
        .iter()
        .map(|a| VizNode {
            id: a.node,
            label: format!("{}", a.asn),
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
    let dot = render_dot("internet-like hybrid topology", &nodes, &edges, &[]);
    let path = "target/internet_topology.dot";
    std::fs::create_dir_all("target").ok();
    std::fs::write(path, dot).expect("write dot");
    println!("graphviz export written to {path}");

    // Withdraw a stub's prefix and measure.
    let stub = n - 1;
    println!(
        "\nwithdrawing {} (stub AS{}) ...",
        exp.net.ases[stub].prefix, exp.net.ases[stub].asn.0
    );
    exp.mark();
    exp.apply(&ScriptAction::Withdraw {
        as_index: stub,
        prefix: None,
    });
    let rep = exp.wait_converged(SimDuration::from_secs(3600));
    println!(
        "re-converged: {} (updates: {}, flow mods: {})",
        rep.duration,
        exp.updates_sent(),
        exp.flows_installed()
    );
    assert!(exp.prefix_fully_gone(exp.net.ases[stub].prefix));
    println!("post-withdrawal audit: no stale state anywhere");
}
