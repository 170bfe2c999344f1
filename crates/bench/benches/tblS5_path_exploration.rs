//! **Table S5** (path exploration, paper ref [13] — Oliveira et al.,
//! "Quantifying Path Exploration in the Internet"): how many distinct AS
//! paths each legacy router tries during a clique withdrawal, versus the
//! SDN fraction. Centralization suppresses ghost routes, which is *why*
//! convergence improves in Figure 2.

use std::collections::BTreeMap;

use bgpsdn_bench::{write_json, RUNS};
use bgpsdn_core::JobSpec;
use bgpsdn_netsim::{NodeId, ObsPrefix, TraceCategory, TraceEvent};
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
    println!("16-AS clique, MRAI 30 s; distinct AS paths per legacy router");
    println!("(its best-path changes), {RUNS} runs/point\n");
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
            // A router's tries are its best-path changes: only routers
            // write `RibChange`, and a route lost is not a path.
            let (out, exp) = spec.run(|sim| sim.trace_mut().enable(TraceCategory::Route));
            assert!(out.converged && out.audit_ok);
            updates.push(out.updates as f64);
            let trace = exp.net.sim.trace();
            assert_eq!(trace.dropped(), 0, "the trace must hold the whole run");
            let origin_prefix = ObsPrefix::from(exp.net.ases[0].prefix);
            let mut tried: BTreeMap<NodeId, Vec<&Vec<u32>>> = BTreeMap::new();
            for rec in trace.records().filter(|rec| rec.time >= exp.phase_start()) {
                let TraceEvent::RibChange {
                    prefix,
                    new_path: Some(path),
                    ..
                } = &rec.event
                else {
                    continue;
                };
                if *prefix == origin_prefix {
                    let router = rec.node.expect("a route change is a router's");
                    let paths = tried.entry(router).or_default();
                    if !paths.contains(&path) {
                        paths.push(path);
                    }
                }
            }
            if !tried.is_empty() {
                let total: usize = tried.values().map(Vec::len).sum();
                mean_paths.push(total as f64 / tried.len() as f64);
                max_paths = max_paths.max(tried.values().map(Vec::len).max().unwrap());
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
