//! **Table S9** (static verification): cost of one full invariant sweep —
//! loop-freedom, blackhole detection, intent consistency and valley-free
//! conformance — over the frozen state of the Table S7 scale topology
//! (64 ASes, tier-1 SDN cluster, 256 tracked prefixes).
//!
//! The verifier is built around preallocated per-prefix scratch (coloring
//! walk state, hop arrays, lookup indices), so a sweep is O(prefixes ×
//! edges) with no per-check allocation churn after warm-up. The acceptance
//! bar baked in here: the 256-prefix snapshot verifies in **under 50 ms at
//! the median**, i.e. cheap enough to run after every convergence wait and
//! every fault injection. Emits `BENCH_verify.json`.

use std::time::Instant;

use bgpsdn_bench::{output_dir, write_json};
use bgpsdn_core::{run_scale_instrumented, ScaleScenario};
use bgpsdn_obs::{impl_to_json, Json, ToJson};
use bgpsdn_verify::Verifier;

const ITERS: usize = 30;

#[derive(Debug)]
struct Row {
    ases: u64,
    prefixes_checked: u64,
    checks: u64,
    violations: u64,
    iterations: u64,
    wall_ns_p50: u64,
    wall_ns_p99: u64,
    ns_per_prefix_p50: u64,
}

impl_to_json!(Row {
    ases,
    prefixes_checked,
    checks,
    violations,
    iterations,
    wall_ns_p50,
    wall_ns_p99,
    ns_per_prefix_p50,
});

fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let scenario = ScaleScenario::tbl_s7(9900);
    println!("== Table S9: static verification sweep at scale ==");
    println!(
        "{} ASes, tier-1 cluster of {}, {} tracked prefixes, {ITERS} sweeps\n",
        scenario.n(),
        scenario.cluster_size,
        scenario.expected_prefixes()
    );

    let (out, exp) = run_scale_instrumented(&scenario, |_| {});
    assert!(out.converged && out.audit_ok, "scale run must converge");
    let snap = exp.capture_snapshot();

    let mut verifier = Verifier::new();
    // Warm-up sweep sizes the scratch buffers and proves cleanliness.
    let first = verifier.verify(&snap);
    assert!(
        first.ok(),
        "steady-state snapshot must verify clean:\n{first}"
    );
    assert!(
        first.prefixes_checked >= scenario.expected_prefixes(),
        "sweep must cover every tracked prefix"
    );

    let mut walls = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        let t = Instant::now();
        let report = verifier.verify(&snap);
        walls.push(t.elapsed().as_nanos() as u64);
        assert!(report.ok());
    }
    walls.sort_unstable();
    let p50 = percentile(&walls, 0.50);
    let p99 = percentile(&walls, 0.99);

    println!(
        "{:>10} {:>8} {:>14} {:>14} {:>16}",
        "prefixes", "checks", "wall p50 (ns)", "wall p99 (ns)", "ns/prefix (p50)"
    );
    let per_prefix = p50 / (first.prefixes_checked.max(1) as u64);
    println!(
        "{:>10} {:>8} {:>14} {:>14} {:>16}",
        first.prefixes_checked, first.checks, p50, p99, per_prefix
    );

    assert!(
        p50 < 50_000_000,
        "256-prefix sweep must verify in < 50 ms at the median \
         (measured {:.2} ms)",
        p50 as f64 / 1e6
    );
    println!("\nshape check: PASS (median sweep under 50 ms)");

    let row = Row {
        ases: scenario.n() as u64,
        prefixes_checked: first.prefixes_checked as u64,
        checks: first.checks as u64,
        violations: first.violations.len() as u64,
        iterations: ITERS as u64,
        wall_ns_p50: p50,
        wall_ns_p99: p99,
        ns_per_prefix_p50: per_prefix,
    };
    write_json("tblS9_verify", &row.to_json());
    write_json(
        "BENCH_verify",
        &Json::Obj(vec![("sweep".into(), row.to_json())]),
    );
    println!(
        "[written {}]",
        output_dir().join("BENCH_verify.json").display()
    );
}
