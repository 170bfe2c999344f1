//! **Table S3** (§2's sub-cluster goal): intra-cluster partition tolerance.
//! A bridge link inside the cluster fails, splitting it into two
//! sub-clusters under the same controller; connectivity must survive over
//! the legacy Internet, and healing must restore internal routing.
//!
//! Topology (== intra-cluster):
//!
//! ```text
//!   l0 ──── l1
//!    │       │
//!    A ===== B
//! ```

use bgpsdn_bench::{write_json, RUNS};
use bgpsdn_bgp::{Asn, PolicyMode, TimingConfig};
use bgpsdn_core::{Controller, Experiment, NetworkBuilder, ScriptAction};
use bgpsdn_netsim::SimDuration;
use bgpsdn_obs::{impl_to_json, Summary};
use bgpsdn_topology::{plan, AsEdge, AsGraph, EdgeKind};

struct Row {
    phase: &'static str,
    conv_median_s: f64,
    connectivity: f64,
    subclusters: usize,
}

impl_to_json!(Row {
    phase,
    conv_median_s,
    connectivity,
    subclusters
});

fn bridge_plan(extra_legacy: usize) -> bgpsdn_topology::TopologyPlan {
    // l0..l_{k-1} in a legacy chain; l0-A, l_{last}-B, A==B.
    let n_legacy = 2 + extra_legacy;
    let a = n_legacy;
    let b = n_legacy + 1;
    let mut edges = Vec::new();
    for i in 1..n_legacy {
        edges.push(AsEdge {
            a: i - 1,
            b: i,
            kind: EdgeKind::PeerPeer,
        });
    }
    edges.push(AsEdge {
        a: 0,
        b: a,
        kind: EdgeKind::PeerPeer,
    });
    edges.push(AsEdge {
        a: n_legacy - 1,
        b,
        kind: EdgeKind::PeerPeer,
    });
    edges.push(AsEdge {
        a,
        b,
        kind: EdgeKind::PeerPeer,
    });
    let ag = AsGraph {
        asns: (0..n_legacy + 2).map(|i| Asn(65000 + i as u32)).collect(),
        edges,
    };
    plan(
        ag,
        PolicyMode::AllPermit,
        TimingConfig::with_mrai(SimDuration::from_secs(5)),
    )
    .unwrap()
}

fn main() {
    println!("== Table S3: sub-cluster partition tolerance ==");
    println!("2 members bridged by one intra link, legacy chain below, {RUNS} runs\n");

    let hour = SimDuration::from_secs(3600);
    let mut split_times = Vec::new();
    let mut heal_times = Vec::new();
    let mut split_conn = Vec::new();
    let mut heal_conn = Vec::new();
    let mut subclusters_after_split = 0usize;

    for r in 0..RUNS {
        let tp = bridge_plan(2);
        let n = tp.as_graph.len();
        let (a_idx, b_idx) = (n - 2, n - 1);
        let net = NetworkBuilder::new(tp, 7000 + r)
            .with_sdn_members([a_idx, b_idx])
            .build();
        let mut exp = Experiment::new(net);
        assert!(exp.start(hour).converged);
        assert!(exp.connectivity_audit().fully_connected());

        // Split.
        exp.mark();
        exp.apply(&ScriptAction::FailEdge(a_idx, b_idx));
        let rep = exp.wait_converged(hour);
        assert!(rep.converged);
        split_times.push(rep.duration.as_secs_f64());
        let audit = exp.connectivity_audit();
        split_conn.push(audit.delivery_ratio());
        let c = exp.net.controller.unwrap();
        subclusters_after_split = exp
            .net
            .sim
            .node_ref::<Controller>(c)
            .switch_graph()
            .components()
            .1;

        // Heal.
        exp.mark();
        exp.apply(&ScriptAction::RestoreEdge(a_idx, b_idx));
        let rep = exp.wait_converged(hour);
        assert!(rep.converged);
        heal_times.push(rep.duration.as_secs_f64());
        heal_conn.push(exp.connectivity_audit().delivery_ratio());
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let rows = vec![
        Row {
            phase: "partition",
            conv_median_s: Summary::of(split_times).unwrap().median,
            connectivity: mean(&split_conn),
            subclusters: subclusters_after_split,
        },
        Row {
            phase: "heal",
            conv_median_s: Summary::of(heal_times).unwrap().median,
            connectivity: mean(&heal_conn),
            subclusters: 1,
        },
    ];

    println!(
        "{:>10} {:>12} {:>14} {:>12}",
        "phase", "conv median", "connectivity", "subclusters"
    );
    for row in &rows {
        println!(
            "{:>10} {:>11.2}s {:>13.1}% {:>12}",
            row.phase,
            row.conv_median_s,
            row.connectivity * 100.0,
            row.subclusters
        );
    }

    assert_eq!(rows[0].subclusters, 2, "partition must split the cluster");
    assert!(
        (rows[0].connectivity - 1.0).abs() < 1e-9,
        "connectivity must survive the partition over the legacy world"
    );
    assert!((rows[1].connectivity - 1.0).abs() < 1e-9);
    println!("\nshape check: PASS (full connectivity through both phases)");

    write_json("tblS3_subcluster", &[], &rows);
}
