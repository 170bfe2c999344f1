//! **Table S7** (scale): cost of a single-prefix update at steady state on
//! a CAIDA-derived tiered topology tracking hundreds of prefixes through
//! the tier-1 SDN cluster. The controller's dirty-set recompute re-derives
//! exactly one prefix per trigger; the `full` row is what a full-table
//! sweep would re-derive on the same triggers, read from the same runs'
//! `recompute` records (their `prefixes` member: every prefix with live
//! inputs, which is the set a full sweep re-derives once nothing stale is
//! left compiled). Both rows share the runs, so their update convergence is
//! one number. What a recompute costs on the wall clock is `benchmark/`'s
//! `core.controller.recompute_ms` and `core.controller.compute_ns_per_prefix`.

use bgpsdn_bench::{write_json, RUNS};
use bgpsdn_bgp::{PolicyMode, Prefix, TimingConfig};
use bgpsdn_core::{DeploymentStrategy, Experiment, JobSpec, Placement, ScriptAction, Topology};
use bgpsdn_netsim::SimDuration;
use bgpsdn_obs::{impl_to_json, RecomputeTrigger, TraceCategory, TraceEvent};
use bgpsdn_topology::caida::SynthesisParams;

/// Tier sizes: ~64 ASes, the whole tier-1 mesh centralized.
const TIER1: usize = 4;
const MID: usize = 12;
const STUBS: usize = 48;
/// Extra /24 sub-prefixes each stub announces during the seeding phase.
const PER_STUB: usize = 4;
/// Prefixes tracked once seeded: every AS's own /16 plus the stub /24s.
const PREFIXES: usize = TIER1 + MID + STUBS + STUBS * PER_STUB;
/// The phase the single-prefix update runs under in the trace.
const UPDATE_PHASE: &str = "single-update";
const HOUR: SimDuration = SimDuration::from_secs(3600);

/// The job: a tiered hierarchy (topology and simulator seeded alike) with
/// its tier-1 mesh in one cluster, Gao–Rexford, MRAI 0 to keep runs tight.
fn spec(seed: u64) -> JobSpec {
    let params = SynthesisParams {
        tier1: TIER1,
        mid: MID,
        stubs: STUBS,
        ..SynthesisParams::default()
    };
    JobSpec {
        policy: PolicyMode::GaoRexford,
        deployment: DeploymentStrategy::Placed {
            placement: Placement::Tier,
            clusters: 1,
            total: TIER1,
        },
        timing: TimingConfig::with_mrai(SimDuration::ZERO),
        seed,
        ..JobSpec::new(Topology::Hierarchy { params, seed })
    }
}

/// The `j`-th /24 inside a stub's /16 block.
fn sub_prefix(base: Prefix, j: usize) -> Prefix {
    Prefix::new(base.nth((j as u64) << 8), 24).expect("aligned /24 inside the /16")
}

/// Bring the job's network up, let every stub announce its sub-prefixes in
/// one burst, reach steady state, then announce one more prefix from the
/// first stub. Returns that update's convergence time, whether every phase
/// converged and the new prefix reached every AS, and the experiment.
fn seed_then_probe(seed: u64) -> (SimDuration, bool, Experiment) {
    let mut exp = Experiment::new(spec(seed).builder().build());
    exp.net.sim.trace_mut().enable(TraceCategory::Route);
    exp.net.sim.trace_mut().enable(TraceCategory::Experiment);
    assert!(exp.start(HOUR).converged, "scale bring-up did not converge");

    exp.mark_named("seeding");
    let stubs = TIER1 + MID..TIER1 + MID + STUBS;
    for i in stubs.clone() {
        let base = exp.net.ases[i].prefix;
        for j in 0..PER_STUB {
            exp.apply(&ScriptAction::Announce {
                as_index: i,
                prefix: Some(sub_prefix(base, j)),
            });
        }
    }
    let seeding = exp.wait_converged(HOUR);

    let origin = stubs.start;
    let update_prefix = sub_prefix(exp.net.ases[origin].prefix, PER_STUB);
    exp.mark_named(UPDATE_PHASE);
    exp.apply(&ScriptAction::Announce {
        as_index: origin,
        prefix: Some(update_prefix),
    });
    let update = exp.wait_converged(HOUR);
    let ok = seeding.converged
        && update.converged
        && exp.prefix_reachable_from_all(update_prefix, origin);
    exp.finish();
    (update.duration, ok, exp)
}

/// `(prefixes, prefixes_recomputed)` of each update-batch recompute that
/// ran during the single-update phase: the tracked table and the dirty set.
fn update_phase_recomputes(exp: &Experiment) -> Vec<(u64, u64)> {
    let mut in_update = false;
    let mut out = Vec::new();
    for r in exp.net.sim.trace().records() {
        match &r.event {
            TraceEvent::Phase { name, started } if name == UPDATE_PHASE => {
                in_update = *started;
            }
            TraceEvent::ControllerRecompute {
                trigger: RecomputeTrigger::UpdateBatch,
                prefixes,
                prefixes_recomputed,
                ..
            } if in_update => out.push((u64::from(*prefixes), u64::from(*prefixes_recomputed))),
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

fn row(variant: &'static str, samples: &[u64], conv: f64) -> VariantRow {
    VariantRow {
        variant,
        runs: RUNS,
        prefixes_tracked: PREFIXES as u64,
        triggers: samples.len() as u64,
        recomputed_per_trigger_max: samples.iter().copied().max().unwrap_or(0),
        recomputed_per_trigger_mean: samples.iter().sum::<u64>() as f64 / samples.len() as f64,
        update_convergence_s: conv / RUNS as f64,
    }
}

/// The dirty-set row and the full-sweep row, from the same runs.
fn run_rows() -> [VariantRow; 2] {
    let (mut incremental, mut full) = (Vec::new(), Vec::new());
    let mut conv = 0.0f64;
    for r in 0..RUNS {
        let (update_convergence, ok, exp) = seed_then_probe(9000 + r);
        assert!(
            ok,
            "scale run must converge and reach every AS with the new prefix"
        );
        conv += update_convergence.as_secs_f64();
        let recs = update_phase_recomputes(&exp);
        assert!(
            !recs.is_empty(),
            "the single-prefix update must trigger at least one recompute"
        );
        for &(tracked, recomputed) in &recs {
            // The acceptance bar: after steady state, a one-prefix update
            // dirties and recomputes exactly that one prefix per batch,
            // where a full sweep would re-derive the whole table.
            assert_eq!(
                recomputed, 1,
                "recompute touched more than the updated prefix"
            );
            assert!(
                tracked > PREFIXES as u64,
                "the table holds every seeded prefix and the new one ({tracked})"
            );
            incremental.push(recomputed);
            full.push(tracked);
        }
    }
    [
        row("incremental", &incremental, conv),
        row("full", &full, conv),
    ]
}

fn main() {
    println!("== Table S7: single-prefix update at scale, incremental vs full ==");
    println!(
        "CAIDA-style hierarchy ({} ASes, tier-1 cluster of {TIER1}), {PREFIXES} prefixes",
        TIER1 + MID + STUBS
    );
    println!("steady state, then one new /24 from a stub; {RUNS} runs, both rows\n");

    let rows = run_rows();

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
    println!("\nshape check: PASS (one dirty prefix per trigger; a full sweep re-derives all)");

    write_json("tblS7_scale", &[], &rows);
}
