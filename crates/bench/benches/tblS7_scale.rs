//! **Table S7** (scale): cost of a single-prefix update at steady state on
//! a CAIDA-derived tiered topology tracking hundreds of prefixes through
//! the tier-1 SDN cluster. Run twice — with the controller's incremental
//! dirty-set recompute and with the full-table baseline — the table shows
//! the incremental path re-deriving exactly one prefix per trigger while
//! the baseline re-derives all of them, and the wall-clock gap that buys.
//!
//! Besides the usual summary JSON + JSONL artifact, this bench emits
//! `BENCH_recompute.json`: per-variant recompute wall-time p50/p99 and
//! prefixes-recomputed-per-trigger, plus the measured speedup.

use bgpsdn_bench::{output_dir, runs_per_point, write_json};
use bgpsdn_core::{run_scale_instrumented, Experiment, ScaleScenario, SCALE_UPDATE_PHASE};
use bgpsdn_obs::{impl_to_json, Json, RecomputeTrigger, ToJson, TraceCategory, TraceEvent};

/// One `(prefixes_recomputed, wall_ns)` sample per update-batch recompute
/// that ran during the single-update phase.
fn update_phase_recomputes(exp: &Experiment) -> Vec<(u32, u64)> {
    let mut in_update = false;
    let mut out = Vec::new();
    for r in exp.net.sim.trace().records() {
        match &r.event {
            TraceEvent::Phase { name, started } if name == SCALE_UPDATE_PHASE => {
                in_update = *started;
            }
            TraceEvent::ControllerRecompute {
                trigger: RecomputeTrigger::UpdateBatch,
                prefixes_recomputed,
                wall_ns,
                ..
            } if in_update => out.push((*prefixes_recomputed, *wall_ns)),
            _ => {}
        }
    }
    out
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Per-variant measurements across all runs.
#[derive(Debug)]
struct VariantRow {
    variant: String,
    runs: u64,
    prefixes_tracked: u64,
    triggers: u64,
    recomputed_per_trigger_max: u64,
    recomputed_per_trigger_mean: f64,
    wall_ns_p50: u64,
    wall_ns_p99: u64,
    update_convergence_s: f64,
}

impl_to_json!(VariantRow {
    variant,
    runs,
    prefixes_tracked,
    triggers,
    recomputed_per_trigger_max,
    recomputed_per_trigger_mean,
    wall_ns_p50,
    wall_ns_p99,
    update_convergence_s,
});

fn run_variant(incremental: bool, runs: u64, keep_artifact: bool) -> (VariantRow, Option<String>) {
    let mut samples: Vec<(u32, u64)> = Vec::new();
    let mut tracked = 0u64;
    let mut conv = 0.0f64;
    let mut artifact = None;
    for r in 0..runs {
        let scenario = ScaleScenario {
            incremental,
            ..ScaleScenario::tbl_s7(9000 + r)
        };
        let (out, exp) = run_scale_instrumented(&scenario, |sim| {
            sim.trace_mut().enable(TraceCategory::Route);
            sim.trace_mut().enable(TraceCategory::Experiment);
            sim.set_profiling(true);
        });
        assert!(out.converged, "scale run did not converge");
        assert!(out.audit_ok, "new prefix must be reachable everywhere");
        tracked = tracked.max(scenario.expected_prefixes() as u64);
        conv += out.update_convergence.as_secs_f64();
        let recs = update_phase_recomputes(&exp);
        assert!(
            !recs.is_empty(),
            "the single-prefix update must trigger at least one recompute"
        );
        if incremental {
            // The acceptance bar: after steady state, a one-prefix update
            // dirties and recomputes exactly that one prefix per batch.
            for &(recomputed, _) in &recs {
                assert_eq!(
                    recomputed, 1,
                    "incremental recompute touched more than the updated prefix"
                );
            }
        } else {
            for &(recomputed, _) in &recs {
                assert!(
                    recomputed as u64 >= tracked / 2,
                    "full baseline must re-derive the whole table \
                     ({recomputed} of {tracked})"
                );
            }
        }
        samples.extend(recs);
        if keep_artifact && r == 0 {
            let info = Json::Obj(vec![
                ("bench".into(), Json::Str("tblS7_scale".into())),
                ("scenario".into(), Json::Str("scale".into())),
                (
                    "variant".into(),
                    Json::Str(if incremental { "incremental" } else { "full" }.into()),
                ),
                ("ases".into(), Json::U64(scenario.n() as u64)),
                (
                    "prefixes".into(),
                    Json::U64(scenario.expected_prefixes() as u64),
                ),
                ("seed".into(), Json::U64(scenario.seed)),
            ]);
            let mut text = String::new();
            exp.render_artifact_into(&info, &mut text);
            artifact = Some(text);
        }
    }
    let mut walls: Vec<u64> = samples.iter().map(|&(_, w)| w).collect();
    walls.sort_unstable();
    let recomputed_total: u64 = samples.iter().map(|&(n, _)| n as u64).sum();
    let row = VariantRow {
        variant: (if incremental { "incremental" } else { "full" }).to_string(),
        runs,
        prefixes_tracked: tracked,
        triggers: samples.len() as u64,
        recomputed_per_trigger_max: samples.iter().map(|&(n, _)| n as u64).max().unwrap_or(0),
        recomputed_per_trigger_mean: recomputed_total as f64 / samples.len() as f64,
        wall_ns_p50: percentile(&walls, 0.50),
        wall_ns_p99: percentile(&walls, 0.99),
        update_convergence_s: conv / runs as f64,
    };
    (row, artifact)
}

fn main() {
    let runs = runs_per_point();
    let scenario = ScaleScenario::tbl_s7(9000);
    println!("== Table S7: single-prefix update at scale, incremental vs full ==");
    println!(
        "CAIDA-style hierarchy ({} ASes, tier-1 cluster of {}), {} prefixes",
        scenario.n(),
        scenario.cluster_size,
        scenario.expected_prefixes()
    );
    println!("steady state, then one new /24 from a stub; {runs} runs/variant\n");

    let (inc, artifact) = run_variant(true, runs, true);
    let (full, _) = run_variant(false, runs, false);

    println!(
        "{:>12} {:>9} {:>11} {:>14} {:>14}",
        "variant", "triggers", "recomputed", "wall p50 (ns)", "wall p99 (ns)"
    );
    for row in [&inc, &full] {
        println!(
            "{:>12} {:>9} {:>11.1} {:>14} {:>14}",
            row.variant,
            row.triggers,
            row.recomputed_per_trigger_mean,
            row.wall_ns_p50,
            row.wall_ns_p99
        );
    }

    let speedup = full.wall_ns_p50 as f64 / inc.wall_ns_p50.max(1) as f64;
    println!("\nmedian recompute speedup: {speedup:.1}x");
    assert!(
        speedup >= 10.0,
        "incremental recompute must be >= 10x faster at the median \
         (measured {speedup:.1}x)"
    );
    println!("shape check: PASS (one dirty prefix per trigger; >= 10x median win)");

    write_json("tblS7_scale", &vec![inc.to_json(), full.to_json()]);
    let bench = Json::Obj(vec![
        ("incremental".into(), inc.to_json()),
        ("full".into(), full.to_json()),
        ("speedup_p50".into(), Json::F64(speedup)),
    ]);
    write_json("BENCH_recompute", &bench);

    let path = output_dir().join("tblS7_scale.jsonl");
    std::fs::write(&path, artifact.expect("representative artifact"))
        .expect("write jsonl artifact");
    println!("[written {}]", path.display());
}
