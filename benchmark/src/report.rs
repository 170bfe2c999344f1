//! One leaf run: a workload in one mode, its metrics by name with unit,
//! its correctness verdict, and the result line the driver reads.

use std::path::Path;

use bgpsdn_obs::Json;

use crate::spans::SpanLog;
use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, quantile_sorted, ratio};
use crate::workloads::{self, Config, Outcome};
use crate::{host, kernels, Args};

/// Span names whose per-call median (host ms) is a per-layer metric.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("topology.synthesize", "topology.synthesize_ms"),
    ("topology.plan", "topology.plan_ms"),
    ("analyze.preflight", "analyze.preflight_ms"),
    ("analyze.check_safety", "analyze.check_safety_ms"),
    ("analyze.spp_solve", "analyze.spp_solve_ms"),
    ("core.framework.build", "core.framework.build_ms"),
    ("core.framework.bringup", "core.framework.bringup_ms"),
    ("core.framework.trigger", "core.framework.trigger_ms_p50"),
    ("core.framework.finish", "core.framework.finish_ms"),
    ("core.framework.teardown", "core.framework.teardown_ms"),
    ("obs.causal.analysis", "obs.causal.analysis_ms"),
    ("obs.report.render", "obs.report.render_ms"),
    ("obs.campaign.aggregate", "obs.campaign.aggregate_ms"),
    ("verify.snapshot_capture", "verify.snapshot_capture_ms"),
    ("verify.verify", "verify.verify_ms"),
];

/// The end-to-end metrics of an untraced run, and the op tail
/// (`op_wall_ms_p95`) that is printed beside them. All host-side.
fn end_to_end(out: &Outcome) -> (Vec<(&'static str, f64)>, f64) {
    let per_rep = |f: &dyn Fn(&workloads::Rep) -> f64| {
        let mut v: Vec<f64> = out.reps.iter().map(f).collect();
        median(&mut v)
    };
    // Per-op quantiles are taken within each repetition and then medianed
    // like everything else, so a slow stretch of the host that hits one
    // repetition cannot set the tail of the whole run.
    let op_quantile = |q: f64| {
        per_rep(&|r| {
            let mut ops = r.op_ms.clone();
            ops.sort_by(f64::total_cmp);
            quantile_sorted(&ops, q)
        })
    };
    let metrics = vec![
        ("wall_s", per_rep(&|r| r.wall_s)),
        ("setup_s", median(&mut out.setup_s.clone())),
        ("cpu_s", per_rep(&|r| r.cpu_s)),
        (
            "events_per_s",
            per_rep(&|r| ratio(r.events as f64, r.wall_s)),
        ),
        (
            "ops_per_s",
            per_rep(&|r| ratio(r.op_ms.len() as f64, r.wall_s)),
        ),
        ("op_wall_ms_p50", op_quantile(0.50)),
        ("peak_rss_mb", host::peak_rss_mb()),
    ];
    (metrics, op_quantile(0.95))
}

/// The per-layer metrics of a traced run: what the workload measured, the
/// span medians, the first-trigger and job-overhead spans, the kernel
/// share.
fn per_layer(out: &mut Outcome, spans: &SpanLog, workload: &str) -> Vec<(&'static str, f64)> {
    for (span, metric) in SPAN_METRICS {
        let mut d = spans.durations_ms(span);
        out.layers.set(metric, median(&mut d));
    }
    let triggers = spans.durations_ms("core.framework.trigger");
    out.layers.set(
        "core.framework.first_trigger_ms",
        triggers.first().copied().unwrap_or(0.0),
    );
    kernels::kernel_share(&mut out.layers, workload == "trace_forensics");
    out.layers
        .iter()
        .filter(|(name, _)| !name.starts_with("aux."))
        .collect()
}

/// Check the emitted names against the definition: same set, no more, no
/// fewer. A benchmark that drifts from `BENCHMARK.json` must not report.
fn check_names(emitted: &[(&'static str, f64)], defined: &[MetricSpec]) -> Result<(), String> {
    let missing: Vec<&str> = defined
        .iter()
        .map(|m| m.name.as_str())
        .filter(|n| !emitted.iter().any(|(e, _)| e == n))
        .collect();
    let extra: Vec<&str> = emitted
        .iter()
        .map(|(e, _)| *e)
        .filter(|e| !defined.iter().any(|m| m.name == *e))
        .collect();
    if missing.is_empty() && extra.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "metric names differ from BENCHMARK.json: missing {missing:?}, not defined {extra:?}"
        ))
    }
}

/// Run one workload in one mode and print its report. `Ok(true)` whenever
/// a result line was printed (its `correct` field carries the verdict).
pub fn leaf(spec: &Spec, args: &Args, workload: &str, cfg: &Config) -> Result<bool, String> {
    let why = spec
        .why(workload)
        .ok_or_else(|| format!("unknown workload `{workload}` (see BENCHMARK.json)"))?;
    let stamp = host::stamp(cfg.seed);
    println!("host {}", stamp.to_compact());
    println!("workload {workload}: {why}");
    println!(
        "mode {} ({})",
        if cfg.trace {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        },
        if args.quick {
            "quick sizes"
        } else {
            "full sizes"
        },
    );

    let mut spans = SpanLog::new(cfg.trace);
    let mut out = workloads::run(workload, cfg, &mut spans)?;

    let (values, defined, op_p95) = if cfg.trace {
        (per_layer(&mut out, &spans, workload), &spec.per_layer, None)
    } else {
        let (values, op_p95) = end_to_end(&out);
        (values, &spec.end_to_end, Some(op_p95))
    };
    check_names(&values, defined)?;

    if cfg.trace {
        let (coverage, worst) = spans.op_coverage();
        println!(
            "span coverage: child spans cover {:.1}% of op time ({:.1}% of the worst op)",
            coverage * 100.0,
            worst * 100.0
        );
        if coverage < 0.95 {
            out.problem(format!(
                "child spans cover only {:.1}% of op time",
                coverage * 100.0
            ));
        }
    }
    let samples = out.reps.iter().map(|r| r.op_ms.len()).sum::<usize>();
    if !cfg.trace {
        println!(
            "  host time, median over {} repetitions, {} op samples",
            out.reps.len(),
            samples
        );
        let walls: Vec<String> = out
            .reps
            .iter()
            .map(|r| format!("{:.4}", r.wall_s))
            .collect();
        println!("  wall_s of each repetition: {}", walls.join(" "));
    }
    let mut metrics = Vec::with_capacity(values.len());
    for m in defined {
        let value = values
            .iter()
            .find(|(n, _)| *n == m.name)
            .map_or(0.0, |(_, v)| *v);
        println!(
            "  {:<42} {:>16.6} {:<6} ({} is better)",
            m.name, value, m.unit, m.better
        );
        metrics.push((
            m.name.clone(),
            Json::Obj(vec![
                ("value".into(), Json::F64(value)),
                ("unit".into(), Json::Str(m.unit.clone())),
            ]),
        ));
    }
    if let Some(p95) = op_p95 {
        // Printed, not gated: on a shared host the tail of the op times
        // measures the neighbours' bursts more than the program.
        println!(
            "  {:<42} {:>16.6} ms     (informational)",
            "op_wall_ms_p95", p95
        );
    }
    println!(
        "  {:<42} {:>16.6} ratio ({} of {} ops)",
        "failed_share",
        ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    for p in &out.problems {
        println!("problem: {p}");
    }
    println!("sim_digest {workload} {}", out.digest.hex());

    let metrics = Json::Obj(metrics);
    if cfg.trace {
        let dir = Path::new(&args.out).join(workload);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let write = |name: &str, text: String| {
            let path = dir.join(name);
            std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
        };
        write("spans.jsonl", spans.to_jsonl(workload, &stamp))?;
        write(
            "layers.json",
            spans.to_layers_json(workload, &stamp, &metrics),
        )?;
        println!("wrote {}/{{spans.jsonl,layers.json}}", dir.display());
    }

    let correct = out.failed == 0 && out.problems.is_empty();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::U64(out.attempted.max(1))),
        ("failed".into(), Json::U64(out.failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", result.to_compact());
    Ok(true)
}
