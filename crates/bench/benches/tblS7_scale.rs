//! **Table S7** (scale): cost of a single-prefix update at steady state on
//! a CAIDA-derived tiered topology tracking hundreds of prefixes through
//! the tier-1 SDN cluster. Run twice — with the controller's incremental
//! dirty-set recompute and with the full-table baseline — the table shows
//! the incremental path re-deriving exactly one prefix per trigger while
//! the baseline re-derives all of them, for the same update convergence.
//! What a recompute costs on the wall clock is `benchmark/`'s
//! `core.controller.recompute_ms` and `perf_micro`'s `controller/recompute`.

use bgpsdn_bench::{write_json, RUNS};
use bgpsdn_core::{run_scale_instrumented, Experiment, ScaleScenario, SCALE_UPDATE_PHASE};
use bgpsdn_obs::{impl_to_json, RecomputeTrigger, TraceCategory, TraceEvent};

/// Prefixes recomputed by each update-batch recompute that ran during the
/// single-update phase.
fn update_phase_recomputes(exp: &Experiment) -> Vec<u64> {
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
                ..
            } if in_update => out.push(u64::from(*prefixes_recomputed)),
            _ => {}
        }
    }
    out
}

/// Per-variant measurements across all runs.
#[derive(Debug)]
struct VariantRow {
    variant: &'static str,
    runs: u64,
    prefixes_tracked: u64,
    triggers: u64,
    recomputed_per_trigger_max: u64,
    recomputed_per_trigger_mean: f64,
    update_convergence_s: f64,
}

impl_to_json!(VariantRow {
    variant,
    runs,
    prefixes_tracked,
    triggers,
    recomputed_per_trigger_max,
    recomputed_per_trigger_mean,
    update_convergence_s,
});

fn run_variant(incremental: bool) -> VariantRow {
    let mut samples: Vec<u64> = Vec::new();
    let mut tracked = 0u64;
    let mut conv = 0.0f64;
    for r in 0..RUNS {
        let scenario = ScaleScenario {
            incremental,
            ..ScaleScenario::tbl_s7(9000 + r)
        };
        let (out, exp) = run_scale_instrumented(&scenario, |sim| {
            sim.trace_mut().enable(TraceCategory::Route);
            sim.trace_mut().enable(TraceCategory::Experiment);
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
            for &recomputed in &recs {
                assert_eq!(
                    recomputed, 1,
                    "incremental recompute touched more than the updated prefix"
                );
            }
        } else {
            for &recomputed in &recs {
                assert!(
                    recomputed >= tracked / 2,
                    "full baseline must re-derive the whole table \
                     ({recomputed} of {tracked})"
                );
            }
        }
        samples.extend(recs);
    }
    VariantRow {
        variant: if incremental { "incremental" } else { "full" },
        runs: RUNS,
        prefixes_tracked: tracked,
        triggers: samples.len() as u64,
        recomputed_per_trigger_max: samples.iter().copied().max().unwrap_or(0),
        recomputed_per_trigger_mean: samples.iter().sum::<u64>() as f64 / samples.len() as f64,
        update_convergence_s: conv / RUNS as f64,
    }
}

fn main() {
    let scenario = ScaleScenario::tbl_s7(9000);
    println!("== Table S7: single-prefix update at scale, incremental vs full ==");
    println!(
        "CAIDA-style hierarchy ({} ASes, tier-1 cluster of {}), {} prefixes",
        scenario.n(),
        scenario.cluster_size,
        scenario.expected_prefixes()
    );
    println!("steady state, then one new /24 from a stub; {RUNS} runs/variant\n");

    let rows = [run_variant(true), run_variant(false)];

    println!(
        "{:>12} {:>9} {:>11} {:>16}",
        "variant", "triggers", "recomputed", "update conv (s)"
    );
    for row in &rows {
        println!(
            "{:>12} {:>9} {:>11.1} {:>16.3}",
            row.variant, row.triggers, row.recomputed_per_trigger_mean, row.update_convergence_s
        );
    }
    println!("\nshape check: PASS (one dirty prefix per trigger; the baseline re-derives all)");

    write_json("tblS7_scale", &[], &rows);
}
