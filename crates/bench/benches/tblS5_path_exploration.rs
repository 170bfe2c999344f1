//! **Table S5** (path exploration, paper ref [13] — Oliveira et al.,
//! "Quantifying Path Exploration in the Internet"): how many distinct AS
//! paths the route collector observes each router trying during a clique
//! withdrawal, versus the SDN fraction. Centralization suppresses ghost
//! routes, which is *why* convergence improves in Figure 2.

use bgpsdn_bench::{write_json, RUNS};
use bgpsdn_core::{Collector, JobSpec};
use bgpsdn_netsim::{NodeId, SimTime};
use bgpsdn_obs::impl_to_json;

struct Row {
    sdn_pct: f64,
    mean_paths_per_router: f64,
    max_paths: usize,
    updates_total: f64,
}

impl_to_json!(Row {
    sdn_pct,
    mean_paths_per_router,
    max_paths,
    updates_total
});

fn main() {
    println!("== Table S5: path exploration during withdrawal ==");
    println!("16-AS clique, MRAI 30 s; distinct AS paths per legacy router as");
    println!("seen by the route collector, {RUNS} runs/point\n");
    println!(
        "{:>8} {:>18} {:>10} {:>10}",
        "SDN %", "paths/router mean", "max", "updates"
    );

    let mut rows = Vec::new();
    for sdn_count in [0usize, 4, 8, 12, 14] {
        let mut mean_paths = Vec::new();
        let mut max_paths = 0usize;
        let mut updates = Vec::new();
        for r in 0..RUNS {
            let spec = JobSpec {
                seed: 9000 + r * 7919,
                ..JobSpec::clique(16, sdn_count)
            };
            // Path exploration reads the collector's entries, which it
            // keeps only when asked. The collector is the last node built.
            let (out, exp) = spec.run(|sim| {
                let collector = NodeId(sim.node_count() as u32 - 1);
                sim.with_node::<Collector, _>(collector, |c| c.log_mut().keep_entries());
            });
            assert!(out.converged && out.audit_ok);
            updates.push(out.updates as f64);
            let collector = exp.net.collector.expect("collector enabled");
            let log = exp.net.sim.node_ref::<Collector>(collector).log();
            let origin_prefix = exp.net.ases[0].prefix;
            let explored = log.paths_explored(origin_prefix, exp.phase_start(), SimTime::MAX);
            if !explored.is_empty() {
                let total: usize = explored.values().sum();
                mean_paths.push(total as f64 / explored.len() as f64);
                max_paths = max_paths.max(*explored.values().max().unwrap());
            } else {
                mean_paths.push(0.0);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let row = Row {
            sdn_pct: sdn_count as f64 * 100.0 / 16.0,
            mean_paths_per_router: mean(&mean_paths),
            max_paths,
            updates_total: mean(&updates),
        };
        println!(
            "{:>7.0}% {:>18.2} {:>10} {:>10.0}",
            row.sdn_pct, row.mean_paths_per_router, row.max_paths, row.updates_total
        );
        rows.push(row);
    }

    assert!(
        rows.first().unwrap().mean_paths_per_router > rows.last().unwrap().mean_paths_per_router,
        "centralization must suppress ghost-route exploration"
    );
    assert!(
        rows.first().unwrap().mean_paths_per_router > 2.0,
        "pure BGP must explore several ghost paths per router"
    );
    println!("\nshape check: PASS (ghost-route exploration shrinks with the cluster)");

    write_json("tblS5_path_exploration", &[], &rows);
}
