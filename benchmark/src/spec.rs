//! The benchmark's definition, read from `BENCHMARK.json` at the root of
//! the repository (compiled in, so a leaf run never depends on its working
//! directory to know its own metric names).

use bgpsdn_obs::Json;

/// Seed used when `--seed` is not given. Sizes and repetition counts were
/// tuned on this seed only.
pub const DEFAULT_SEED: u64 = 20_140_817;

/// Held-out seed: never used while sizes were tuned. A claim measured on
/// [`DEFAULT_SEED`] must also hold on this one.
pub const HELD_OUT_SEED: u64 = 170_200_188;

const SOURCE: &str = include_str!("../../BENCHMARK.json");

/// One metric of the definition.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the reference median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed definition.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    /// End-to-end metrics, with bounds.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: missing string `{key}`"))
}

fn metrics(v: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing array `{key}`"))?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                better: text(m, "better")?,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parse the compiled-in definition.
    pub fn load() -> Result<Spec, String> {
        let v = Json::parse(SOURCE).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = v
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: missing array `workloads`")?
            .iter()
            .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Spec {
            run_seconds: v
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: missing `run_seconds`")?,
            workloads,
            end_to_end: metrics(&v, "end_to_end")?,
            per_layer: metrics(&v, "per_layer")?,
        })
    }

    /// The `why` sentence of a workload.
    pub fn why(&self, workload: &str) -> Option<&str> {
        self.workloads
            .iter()
            .find(|(n, _)| n == workload)
            .map(|(_, w)| w.as_str())
    }
}
