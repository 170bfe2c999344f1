//! The forms of the command that start leaves of this same executable and
//! compare what they print: every workload in both modes (the one command
//! that prints every metric and runs the whole correctness gate), and
//! `agree` (two full sets of one build must agree within the bounds).

use std::collections::BTreeMap;
use std::process::Command;

use bgpsdn_obs::Json;

use crate::spec::Spec;
use crate::stats::{median, quantile_sorted, ratio};
use crate::{workloads, Args};

/// Per-layer metrics that are exact counts or pure functions of them (and
/// the simulated convergence time): identical for one seed on any host,
/// and across a perf-only change.
const EXACT: &[&str] = &[
    "netsim.events",
    "netsim.msgs_delivered",
    "netsim.bytes_delivered",
    "netsim.timers_fired",
    "netsim.timers_stale",
    "netsim.stale_timer_ratio",
    "netsim.slab_allocs_hot",
    "netsim.slab_events_pooled",
    "bgp.updates_sent",
    "bgp.decisions",
    "bgp.best_path_changes",
    "bgp.useful_update_ratio",
    "sdn.flow_mods",
    "sdn.speaker_updates_in",
    "sdn.speaker_updates_out",
    "sdn.ctrl_retransmits",
    "core.controller.recomputes",
    "core.controller.prefixes_recomputed",
    "core.controller.prefixes_cached",
    "core.controller.cache_hit_ratio",
    "collector.convergence_sim_s_p50",
    "collector.updates_logged",
    "obs.trace_records",
    "obs.trace_dropped",
    "obs.artifact_bytes",
];

/// What one leaf printed.
struct Leaf {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    digest: String,
}

/// Start one leaf, wait for it, echo its report and parse its result line.
fn leaf(args: &Args, workload: &str, trace: bool) -> Result<Leaf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out", &args.out]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("starting a leaf for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, result) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    if !output.status.success() {
        return Err(format!(
            "leaf for {workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let v = Json::parse(result).map_err(|e| format!("result line of {workload}: {e}"))?;
    let metrics = match v.get("metrics") {
        Some(Json::Obj(members)) => members
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err(format!("result line of {workload} has no metrics")),
    };
    let digest = report
        .lines()
        .find_map(|l| l.strip_prefix("sim_digest "))
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("")
        .to_string();
    Ok(Leaf {
        correct: v.get("correct").and_then(Json::as_bool).unwrap_or(false),
        failed: v.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics,
        digest,
    })
}

/// The workloads of the definition, checked against the ones implemented.
fn workload_names(spec: &Spec) -> Result<Vec<&str>, String> {
    let defined: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
    let mut sorted = defined.clone();
    sorted.sort_unstable();
    let mut implemented = workloads::NAMES.to_vec();
    implemented.sort_unstable();
    if sorted == implemented {
        Ok(defined)
    } else {
        Err(format!(
            "workload names differ from BENCHMARK.json: defined {sorted:?}, implemented {implemented:?}"
        ))
    }
}

/// Every workload, untraced then traced: every end-to-end and per-layer
/// metric by name, and the whole correctness gate — each leaf's own checks,
/// plus one `sim_digest` per workload across the two modes.
pub fn all(spec: &Spec, args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for workload in workload_names(spec)? {
        let untraced = leaf(args, workload, false)?;
        let traced = leaf(args, workload, true)?;
        for (mode, l) in [("untraced", &untraced), ("traced", &traced)] {
            if !l.correct {
                println!(
                    "FAIL {workload} ({mode}): incorrect, {} ops failed",
                    l.failed
                );
                ok = false;
            }
        }
        if untraced.digest != traced.digest || untraced.digest.is_empty() {
            println!(
                "FAIL {workload}: sim_digest {} untraced, {} traced",
                untraced.digest, traced.digest
            );
            ok = false;
        }
        println!();
    }
    println!(
        "{}: {} workloads, every metric of BENCHMARK.json reported",
        if ok { "PASS" } else { "FAIL" },
        spec.workloads.len()
    );
    Ok(ok)
}

/// Median and quartile spread (as a share of the median) of samples.
fn centre_and_spread(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    let mid = median(&mut sorted);
    let iqr = quantile_sorted(&sorted, 0.75) - quantile_sorted(&sorted, 0.25);
    (mid, ratio(iqr, mid.abs()))
}

/// One set: `runs` untraced leaves and one traced leaf per workload.
fn run_set(
    spec: &Spec,
    args: &Args,
    label: &str,
) -> Result<BTreeMap<String, (Vec<Leaf>, Leaf)>, String> {
    let mut set = BTreeMap::new();
    for workload in workload_names(spec)? {
        println!("== set {label}: {workload}");
        let untraced = (0..args.runs)
            .map(|_| leaf(args, workload, false))
            .collect::<Result<Vec<_>, _>>()?;
        let traced = leaf(args, workload, true)?;
        set.insert(workload.to_string(), (untraced, traced));
    }
    Ok(set)
}

/// Two full sets of the same build: every end-to-end median must agree
/// within its bound, `sim_digest` and every exact count must be identical.
/// A pairing whose run-to-run spread exceeds the bound is *unresolved*,
/// never *unchanged*.
pub fn agree(spec: &Spec, args: &Args) -> Result<bool, String> {
    let a = run_set(spec, args, "A")?;
    let b = run_set(spec, args, "B")?;
    let mut ok = true;
    println!(
        "\n== agreement of two sets of {} runs (host time)",
        args.runs
    );
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "delta", "spread", "bound"
    );
    for (workload, (runs_a, traced_a)) in &a {
        let (runs_b, traced_b) = &b[workload];
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or(0.0);
            let of = |runs: &[Leaf]| -> Vec<f64> {
                runs.iter()
                    .map(|l| l.metrics.get(&m.name).copied().unwrap_or(0.0))
                    .collect()
            };
            let (mid_a, spread_a) = centre_and_spread(&of(runs_a));
            let (mid_b, spread_b) = centre_and_spread(&of(runs_b));
            let delta = ratio((mid_b - mid_a).abs(), mid_a.abs());
            let spread = spread_a.max(spread_b);
            let verdict = if spread > bound {
                "unresolved"
            } else if delta > bound {
                ok = false;
                "DISAGREE"
            } else {
                "agree"
            };
            println!(
                "{:<18} {:<16} {:>14.4} {:>14.4} {:>7.1}% {:>7.1}% {:>5.0}%  {verdict}",
                workload,
                m.name,
                mid_a,
                mid_b,
                delta * 100.0,
                spread * 100.0,
                bound * 100.0
            );
        }
        let leaves = || {
            runs_a
                .iter()
                .chain(runs_b.iter())
                .chain([traced_a, traced_b])
        };
        if leaves().any(|l| !l.correct) {
            println!("{workload}: a run was incorrect");
            ok = false;
        }
        if leaves().any(|l| l.digest != traced_a.digest) || traced_a.digest.is_empty() {
            println!("{workload}: sim_digest differs between runs of one seed");
            ok = false;
        }
        for name in EXACT {
            let (x, y) = (traced_a.metrics.get(*name), traced_b.metrics.get(*name));
            if x != y {
                println!("{workload}: exact count {name} differs: {x:?} against {y:?}");
                ok = false;
            }
        }
    }
    println!(
        "{}",
        if ok {
            "PASS: the two sets agree"
        } else {
            "FAIL"
        }
    );
    Ok(ok)
}
