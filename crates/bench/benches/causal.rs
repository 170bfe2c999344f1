//! **Causal forensics gate**: trigger-lineage tracing must be close to
//! free and exact.
//!
//! Two properties are load-bearing for `bgpsdn explain` and the campaign
//! phase tables:
//!
//! * **Overhead** — causal tracing rides the trace side-channel and never
//!   touches wire encodings, so enabling it must cost **≤ 5 %** wall time
//!   on the paper's 16-AS clique withdrawal versus tracing fully off.
//!   The arms are interleaved run-for-run so frequency drift and cache
//!   warm-up hit both equally.
//! * **Exactness** — the longest critical path telescopes (child time −
//!   parent time summed along the path), so its total must equal the time
//!   of the last routing-table change (RIB, FIB or flow table) of the
//!   same run to within one event tick. The route collector's view of the
//!   same instant trails by exactly one collector-link propagation — it
//!   hears the final update one hop later — so that comparison gets a
//!   one-hop allowance instead.
//!
//! Emits `BENCH_causal.json` for the CI bench-regression gate.

use std::time::Instant;

use bgpsdn_bench::write_json;
use bgpsdn_core::{run_clique_with, CliqueRunOptions, CliqueScenario, EventKind, Experiment};
use bgpsdn_netsim::{Activity, SimDuration, TraceCategory};
use bgpsdn_obs::{CausalAnalysis, Json};

const ITERS: usize = 15;

/// One sim-time tick: the event queue is nanosecond-granular, so two
/// records of the same instant agree to the nanosecond.
const TICK_NS: u64 = 1;

/// The collector sits one control link (1 ms propagation) away from the
/// routers, so its convergence reading trails the last table change by
/// one hop; allow two in case the final update rides a retransmit.
const COLLECTOR_HOP_NS: u64 = 2_000_000;

fn scenario() -> CliqueScenario {
    CliqueScenario {
        n: 16,
        sdn_count: 8,
        mrai: SimDuration::from_secs(30),
        recompute_delay: SimDuration::from_millis(100),
        seed: 4242,
        control_loss: 0.0,
    }
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn run_off() -> (u64, Experiment) {
    let t = Instant::now();
    let opts = CliqueRunOptions::default();
    let (out, exp) = run_clique_with(&scenario(), EventKind::Withdrawal, &opts, |_| {});
    let wall = t.elapsed().as_nanos() as u64;
    assert!(
        out.converged && out.audit_ok,
        "tracing-off run must converge"
    );
    (wall, exp)
}

fn run_causal() -> (u64, ScOutcome, Experiment) {
    let t = Instant::now();
    let opts = CliqueRunOptions::default();
    let (out, exp) = run_clique_with(&scenario(), EventKind::Withdrawal, &opts, |sim| {
        sim.trace_mut().enable(TraceCategory::Causal);
    });
    let wall = t.elapsed().as_nanos() as u64;
    assert!(out.converged && out.audit_ok, "causal run must converge");
    (wall, out, exp)
}

type ScOutcome = bgpsdn_core::ScenarioOutcome;

fn main() {
    let s = scenario();
    println!("== causal tracing: overhead and critical-path exactness ==");
    println!(
        "{}-AS clique withdrawal, {} SDN members, MRAI {}, {ITERS} runs/arm\n",
        s.n, s.sdn_count, s.mrai
    );

    // One warm-up of each arm, then interleave the measured runs.
    let _ = run_off();
    let _ = run_causal();
    let mut off = Vec::with_capacity(ITERS);
    let mut causal = Vec::with_capacity(ITERS);
    let mut last = None;
    for _ in 0..ITERS {
        off.push(run_off().0);
        let (wall, out, exp) = run_causal();
        causal.push(wall);
        last = Some((out, exp));
    }
    let off_ns = median(off);
    let causal_ns = median(causal);
    let overhead = causal_ns as f64 / off_ns.max(1) as f64;
    println!(
        "{:>14} {:>14} {:>10}",
        "off p50 (ns)", "causal p50", "overhead"
    );
    println!("{off_ns:>14} {causal_ns:>14} {overhead:>9.3}x");

    // Exactness: reconstruct the event-phase lineage of the last causal
    // run and compare the longest critical path against the run's own
    // settlement measurements.
    let (out, exp) = last.expect("at least one causal run");
    let phase_start = exp.phase_start();
    let analysis = CausalAnalysis::from_events(
        exp.net
            .sim
            .trace()
            .records()
            .filter(|r| r.time.as_nanos() >= phase_start.as_nanos())
            .map(|r| (r.time.as_nanos(), r.node.map(|n| n.0), &r.event)),
    );
    assert_eq!(analysis.dangling, 0, "lineage must be complete");
    let critical_ns = analysis
        .triggers
        .iter()
        .filter_map(|t| t.convergence_ns())
        .max()
        .expect("the withdrawal trigger must settle");
    let board = exp.net.sim.board();
    let settled_ns = [
        Activity::RibChange,
        Activity::FibChange,
        Activity::FlowInstalled,
    ]
    .into_iter()
    .filter_map(|a| board.last(a))
    .max()
    .expect("tables changed during the event phase")
    .saturating_since(phase_start)
    .as_nanos();
    let delta = critical_ns.abs_diff(settled_ns);
    let collector_ns = out
        .collector_convergence
        .expect("clique runs have a collector")
        .as_nanos();
    let collector_delta = collector_ns.abs_diff(critical_ns);
    println!(
        "\ncritical path {:.6}s vs last table change {:.6}s (delta {delta} ns)",
        critical_ns as f64 / 1e9,
        settled_ns as f64 / 1e9,
    );
    println!(
        "collector view {:.6}s (trails by {collector_delta} ns)",
        collector_ns as f64 / 1e9,
    );

    assert!(
        overhead <= 1.05,
        "causal tracing overhead must stay within 5% (measured {overhead:.3}x)"
    );
    assert!(
        delta <= TICK_NS,
        "critical path ({critical_ns} ns) must match the last table change \
         ({settled_ns} ns) within one event tick"
    );
    assert!(
        collector_delta <= COLLECTOR_HOP_NS,
        "collector convergence ({collector_ns} ns) must trail the critical \
         path ({critical_ns} ns) by at most one collector hop"
    );
    println!("\nshape check: PASS (overhead <= 1.05x, critical path exact)");

    write_json(
        "BENCH_causal",
        &Json::Obj(vec![
            ("off_wall_ns_p50".into(), Json::U64(off_ns)),
            ("causal_wall_ns_p50".into(), Json::U64(causal_ns)),
            ("overhead_ratio".into(), Json::F64(overhead)),
            ("critical_path_ns".into(), Json::U64(critical_ns)),
            ("settled_ns".into(), Json::U64(settled_ns)),
            ("delta_ns".into(), Json::U64(delta)),
            ("collector_convergence_ns".into(), Json::U64(collector_ns)),
            ("collector_delta_ns".into(), Json::U64(collector_delta)),
        ]),
    );
}
