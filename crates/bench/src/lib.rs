//! Shared harness for the experiment benches.
//!
//! Every table and figure of the paper's evaluation has a bench target in
//! `benches/` that regenerates it: a workload, a parameter sweep, and
//! printed rows matching what the paper reports. Each target also writes
//! its rows to `bench-results/<target>.json` at the workspace root through
//! [`write_json`]. Everything written is simulated time or an exact count,
//! so the files are deterministic and the committed copies are the gate:
//! `cargo bench -p bgpsdn-bench && git diff --exit-code -- bench-results`.
//! No target reads a clock: wall-clock is measured by `benchmark/` alone
//! (see `BENCHMARK.json`).

pub mod detlint;

use std::fs;
use std::path::PathBuf;

use bgpsdn_core::{run_campaign, CampaignGrid, CampaignRunReport};
use bgpsdn_netsim::SimDuration;
use bgpsdn_obs::{impl_to_json, Json, Summary, ToJson};

/// Seeded repetitions per sweep point — the paper's "10 runs per point".
pub const RUNS: u64 = 10;

/// Where bench outputs land: `<workspace>/bench-results`.
fn output_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench-results"))
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
        let s = Summary::of(times.iter().map(|t| t.as_secs_f64())).expect("non-empty sweep point");
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

/// Run a clique grid through the campaign engine, one worker per core, and
/// summarise every cell as a boxplot row (see `cell_rows`). Job results
/// do not depend on the worker count, so neither do the rows.
pub fn sweep(grid: &CampaignGrid) -> Vec<SweepRow> {
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    cell_rows(&run_campaign(grid, workers, false))
}

/// One boxplot row per grid cell, in cell order, keyed by the cell's SDN
/// fraction in percent. The campaign artifact's cell lines carry
/// min/median/p90/max only; the quartiles come from the job records.
///
/// # Panics
///
/// When a job panicked, missed convergence or failed its post-event audit.
fn cell_rows(report: &CampaignRunReport) -> Vec<SweepRow> {
    report
        .results
        .chunk_by(|a, b| a.job.cell == b.job.cell)
        .map(|cell| {
            let times: Vec<SimDuration> = cell
                .iter()
                .map(|r| {
                    let id = r.job.id;
                    let out = match &r.outcome {
                        Ok(o) => &o.outcome,
                        Err(e) => panic!("job {id} died: {e}"),
                    };
                    assert!(out.converged, "job {id} did not converge");
                    assert!(out.audit_ok, "job {id} failed its post-event audit");
                    out.convergence
                })
                .collect();
            let job = &cell[0].job;
            SweepRow::from_durations(job.cluster as f64 * 100.0 / job.n as f64, &times)
        })
        .collect()
}

/// Print a sweep as a boxplot table: one line per row, labelled by the
/// row's `x` followed by `unit` (`"%"`, `" ASes"`) under the `xlabel` column.
pub fn print_sweep(xlabel: &str, unit: &str, rows: &[SweepRow]) {
    println!(
        "{:>12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        xlabel, "min", "q1", "median", "q3", "max", "mean"
    );
    for row in rows {
        println!(
            "{:>12} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            format!("{}{unit}", row.x),
            row.min,
            row.q1,
            row.median,
            row.q3,
            row.max,
            row.mean
        );
    }
}

/// Persist a bench result as `bench-results/<bench>.json` — the one shape
/// every target writes: an object with the bench name, any summary scalars
/// the bench derives from its rows, and the rows.
pub fn write_json<T: ToJson>(bench: &str, summary: &[(&str, f64)], rows: &[T]) {
    let mut kv = vec![("bench".to_string(), Json::Str(bench.to_string()))];
    kv.extend(summary.iter().map(|&(k, v)| (k.to_string(), Json::F64(v))));
    kv.push(("rows".to_string(), rows.to_json()));
    let file = format!("{bench}.json");
    fs::write(output_dir().join(&file), Json::Obj(kv).to_pretty()).expect("write json");
    println!("\n[written bench-results/{file}]");
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn cell_rows_do_not_depend_on_the_worker_count() {
        let grid = CampaignGrid {
            n: 6,
            cluster_sizes: vec![0, 3, 6],
            mrai: SimDuration::from_secs(1),
            ..CampaignGrid::fig2(3)
        };
        let serial = cell_rows(&run_campaign(&grid, 1, false));
        let pooled = cell_rows(&run_campaign(&grid, 3, false));
        assert_eq!(
            serial.iter().map(|r| r.x).collect::<Vec<_>>(),
            [0.0, 50.0, 100.0]
        );
        assert!(serial.iter().all(|r| r.n == 3));
        assert_eq!(
            serial.to_json().to_pretty(),
            pooled.to_json().to_pretty(),
            "rows must be byte-identical across worker counts"
        );
    }

    /// The committed results are the reproduction gate, so a forgotten or
    /// orphaned file must fail tier-1: `bench-results/` holds exactly one
    /// `<target>.json` per `[[bench]]` target.
    #[test]
    fn bench_results_match_the_bench_targets() {
        let manifest = include_str!("../Cargo.toml");
        let mut expected: Vec<String> = manifest
            .split("[[bench]]")
            .skip(1)
            .map(|entry| {
                let name = entry
                    .lines()
                    .find_map(|l| l.trim().strip_prefix("name = "))
                    .expect("every [[bench]] entry names its target");
                format!("{}.json", name.trim_matches('"'))
            })
            .collect();
        expected.sort();
        let mut found: Vec<String> = fs::read_dir(output_dir())
            .expect("bench-results exists")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        found.sort();
        assert_eq!(found, expected);
        for file in &found {
            let text = fs::read_to_string(output_dir().join(file)).unwrap();
            let doc = Json::parse(&text).unwrap();
            let bench = doc.get("bench").and_then(Json::as_str);
            assert_eq!(bench, file.strip_suffix(".json"), "{file}");
            assert!(doc.get("rows").and_then(Json::as_arr).is_some(), "{file}");
        }
    }
}
