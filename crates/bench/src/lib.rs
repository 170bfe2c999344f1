//! Shared harness for the experiment benches.
//!
//! Every table and figure of the paper's evaluation has a bench target in
//! `benches/` that regenerates it: a workload, a parameter sweep, and
//! printed rows matching what the paper reports. Results are also written
//! as JSON under `bench-results/` at the workspace root so figures can be
//! re-plotted, and [`write_run_artifact`] captures one representative run
//! per bench as a typed-event JSONL artifact (`bgpsdn report` input) next
//! to the summary JSON.

pub mod detlint;
pub mod regress;

use std::fs;
use std::path::PathBuf;

use bgpsdn_core::{event_phase_name, run_clique_traced, CliqueScenario, EventKind};
use bgpsdn_netsim::{SimDuration, Summary};
use bgpsdn_obs::{impl_to_json, Json, ToJson};

/// Number of seeded repetitions per sweep point: the paper uses 10;
/// override with `BGPSDN_RUNS` for quicker passes.
pub fn runs_per_point() -> u64 {
    std::env::var("BGPSDN_RUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10)
}

/// Where bench outputs land: `<workspace>/bench-results`, or
/// `BGPSDN_BENCH_DIR` when set (CI writes fresh results beside the
/// committed baselines so the regression gate can diff them).
pub fn output_dir() -> PathBuf {
    let dir = match std::env::var_os("BGPSDN_BENCH_DIR") {
        Some(d) => PathBuf::from(d),
        None => {
            let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            let root = here.parent().and_then(|p| p.parent()).unwrap_or(&here);
            root.join("bench-results")
        }
    };
    fs::create_dir_all(&dir).expect("create bench-results");
    dir
}

/// One boxplot row of a sweep.
#[derive(Debug)]
pub struct SweepRow {
    /// The swept parameter value (e.g. SDN fraction in percent).
    pub x: f64,
    /// Number of runs behind the row.
    pub n: usize,
    /// Minimum convergence time in seconds.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Mean.
    pub mean: f64,
}

impl_to_json!(SweepRow {
    x,
    n,
    min,
    q1,
    median,
    q3,
    max,
    mean
});

impl SweepRow {
    /// Build a row from raw durations.
    pub fn from_durations(x: f64, times: &[SimDuration]) -> SweepRow {
        let s = Summary::of_durations(times).expect("non-empty sweep point");
        SweepRow {
            x,
            n: s.n,
            min: s.min,
            q1: s.q1,
            median: s.median,
            q3: s.q3,
            max: s.max,
            mean: s.mean,
        }
    }
}

/// Print a standard boxplot table header.
pub fn print_header(xlabel: &str) {
    println!(
        "{:>12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        xlabel, "min", "q1", "median", "q3", "max", "mean"
    );
}

/// Print one boxplot row.
pub fn print_row(label: &str, row: &SweepRow) {
    println!(
        "{label:>12} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
        row.min, row.q1, row.median, row.q3, row.max, row.mean
    );
}

/// Persist a bench result as JSON.
pub fn write_json<T: ToJson>(name: &str, value: &T) {
    let path = output_dir().join(format!("{name}.json"));
    let json = value.to_json().to_pretty();
    fs::write(&path, json).expect("write json");
    println!("\n[written {}]", path.display());
}

/// Run one fully-traced representative of a sweep and persist its JSONL
/// artifact as `bench-results/<name>.jsonl` (the document
/// `Experiment::render_artifact_into` lays out). `bgpsdn report` and
/// `bgpsdn verify --snapshot` read it back; figures can mine it without
/// re-running the sweep.
pub fn write_run_artifact(name: &str, scenario: &CliqueScenario, event: EventKind) -> PathBuf {
    let (out, exp) = run_clique_traced(scenario, event);
    assert!(out.converged, "artifact run did not converge");
    let info = Json::Obj(vec![
        ("bench".into(), Json::Str(name.to_string())),
        ("scenario".into(), Json::Str("clique".into())),
        (
            "event".into(),
            Json::Str(event_phase_name(event).to_string()),
        ),
        ("n".into(), Json::U64(scenario.n as u64)),
        ("sdn".into(), Json::U64(scenario.sdn_count as u64)),
        ("seed".into(), Json::U64(scenario.seed)),
    ]);
    let path = output_dir().join(format!("{name}.jsonl"));
    let mut text = String::new();
    exp.render_artifact_into(&info, &mut text);
    fs::write(&path, text).expect("write jsonl artifact");
    println!("[written {}]", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsdn_obs::RunArtifact;

    #[test]
    fn sweep_row_from_durations() {
        let times = [
            SimDuration::from_secs(1),
            SimDuration::from_secs(3),
            SimDuration::from_secs(2),
        ];
        let row = SweepRow::from_durations(50.0, &times);
        assert_eq!(row.n, 3);
        assert_eq!(row.min, 1.0);
        assert_eq!(row.median, 2.0);
        assert_eq!(row.max, 3.0);
    }

    #[test]
    fn sweep_row_serializes_to_json_object() {
        let row = SweepRow::from_durations(25.0, &[SimDuration::from_secs(2)]);
        let j = row.to_json();
        assert_eq!(j.get("x").unwrap().as_f64(), Some(25.0));
        assert_eq!(j.get("n").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("median").unwrap().as_f64(), Some(2.0));
        // And the pretty form reparses.
        assert_eq!(Json::parse(&j.to_pretty()).unwrap(), j);
    }

    #[test]
    fn output_dir_exists() {
        let d = output_dir();
        assert!(d.ends_with("bench-results"));
        assert!(d.is_dir());
    }

    #[test]
    fn runs_default_is_ten() {
        if std::env::var("BGPSDN_RUNS").is_err() {
            assert_eq!(runs_per_point(), 10);
        }
    }

    #[test]
    fn rendered_artifact_parses_back() {
        let scenario = CliqueScenario {
            n: 5,
            sdn_count: 2,
            mrai: SimDuration::from_secs(1),
            recompute_delay: SimDuration::from_millis(100),
            seed: 11,
            control_loss: 0.0,
        };
        let (out, exp) = run_clique_traced(&scenario, EventKind::Withdrawal);
        assert!(out.converged);
        let info = Json::Obj(vec![("bench".into(), Json::Str("test".into()))]);
        let mut text = String::new();
        exp.render_artifact_into(&info, &mut text);
        assert!(text.contains("\n{\"type\":\"snapshot\","));
        let artifact = RunArtifact::parse(&text).unwrap();
        assert!(!artifact.events.is_empty());
        assert_eq!(artifact.snapshots.len(), 2, "bring-up + withdrawal phases");
        assert_eq!(artifact.snapshots[0].0, "bring-up");
        assert_eq!(artifact.snapshots[1].0, "withdrawal");
    }
}
