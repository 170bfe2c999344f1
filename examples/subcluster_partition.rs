//! Sub-cluster partition demo (the paper's §2 goal): an intra-cluster link
//! fails, the cluster splits into two sub-clusters under the same
//! controller, and connectivity survives over the legacy Internet; healing
//! the link restores internal routing.
//!
//! ```sh
//! cargo run --release --example subcluster_partition
//! ```

use bgp_sdn_emu::prelude::*;
use bgp_sdn_emu::topology::{AsEdge, EdgeKind};

fn main() {
    // l0 ── l1     (legacy peers)
    //  │     │
    //  A ═══ B     (SDN members; ═══ is the intra-cluster bridge)
    let ag = AsGraph {
        asns: vec![Asn(65000), Asn(65001), Asn(65002), Asn(65003)],
        edges: vec![
            AsEdge {
                a: 0,
                b: 1,
                kind: EdgeKind::PeerPeer,
            },
            AsEdge {
                a: 0,
                b: 2,
                kind: EdgeKind::PeerPeer,
            },
            AsEdge {
                a: 1,
                b: 3,
                kind: EdgeKind::PeerPeer,
            },
            AsEdge {
                a: 2,
                b: 3,
                kind: EdgeKind::PeerPeer,
            },
        ],
    };
    let topo = plan(
        ag,
        PolicyMode::AllPermit,
        TimingConfig::with_mrai(SimDuration::ZERO),
    )
    .expect("plan");
    let net = NetworkBuilder::new(topo, 5)
        .with_sdn_members([2, 3])
        .build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(SimDuration::from_secs(3600)).converged);

    let describe = |exp: &Experiment| {
        let c = exp.net.controller.unwrap();
        let subclusters = exp
            .net
            .sim
            .node_ref::<Controller>(c)
            .switch_graph()
            .components()
            .1;
        let audit = exp.connectivity_audit();
        println!(
            "  sub-clusters: {subclusters}; connectivity: {}/{} pairs; loops: {}",
            audit.delivered,
            audit.total(),
            audit.looped
        );
    };

    println!("initial state (cluster whole):");
    describe(&exp);

    println!("\nfailing the intra-cluster bridge A═══B ...");
    exp.mark();
    exp.apply(&ScriptAction::FailEdge(2, 3));
    let rep = exp.wait_converged(SimDuration::from_secs(3600));
    println!("  re-converged in {}", rep.duration);
    describe(&exp);
    println!("  (each sub-cluster now reaches the other over the legacy ASes,");
    println!("   using external routes whose paths contain the other sub-cluster's");
    println!("   member ASNs — usable precisely because they are in a different");
    println!("   component, the paper's loop-avoidance insight)");

    println!("\nhealing the bridge ...");
    exp.mark();
    exp.apply(&ScriptAction::RestoreEdge(2, 3));
    let rep = exp.wait_converged(SimDuration::from_secs(3600));
    println!("  re-converged in {}", rep.duration);
    describe(&exp);
    println!("  (internal routing restored)");
}
