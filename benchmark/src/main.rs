//! `benchmark` — the repo benchmark: four workloads, end-to-end host-time
//! metrics, a per-layer budget and a traced run. See `README.md` beside
//! this crate and `BENCHMARK.json` at the root of the repository.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! benchmark [--seed N] [--seconds S] [--quick]     every workload, untraced then traced
//! benchmark agree [--seed N] [--seconds S] [--runs R]
//! ```
//!
//! A run with `--workload` is a *leaf*: one process, one workload, one
//! mode, so `peak_rss_mb` belongs to that workload alone. Its last line of
//! standard output is one JSON object `{correct, attempted, failed,
//! metrics}`. The other forms start leaves of this same executable and
//! compare what they print.

mod fleet;
mod host;
mod kernels;
mod report;
mod spans;
mod spec;
mod stats;
mod stepper;
mod workloads;

use std::process::ExitCode;

use spec::Spec;
use workloads::{Config, Sizes};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// `agree` when given as the first argument.
    pub command: Option<String>,
    /// `--workload NAME`.
    pub workload: Option<String>,
    /// `--seed N`.
    pub seed: u64,
    /// `--seconds S` (default: `run_seconds` of the definition).
    pub seconds: u64,
    /// `--trace 1` or `--traced`.
    pub trace: bool,
    /// `--quick`.
    pub quick: bool,
    /// `--out DIR`: where a traced leaf writes `spans.jsonl`/`layers.json`.
    pub out: String,
    /// `--runs R`: leaves per workload and set in `agree`.
    pub runs: usize,
}

fn usage(spec: &Spec) -> String {
    let workloads: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
    format!(
        "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1 | --traced] [--quick] [--out DIR]\n\
         \x20      benchmark [--seed N] [--seconds S] [--quick]      every workload, untraced then traced\n\
         \x20      benchmark agree [--seed N] [--seconds S] [--runs R]\n\
         workloads: {}\n\
         default seed {}, held-out seed {} (never used while tuning sizes), default seconds {}",
        workloads.join(", "),
        spec::DEFAULT_SEED,
        spec::HELD_OUT_SEED,
        spec.run_seconds
    )
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec.run_seconds,
        trace: false,
        quick: false,
        out: ".bench_out".to_string(),
        runs: 3,
    };
    let mut raw = std::env::args().skip(1).peekable();
    if let Some(first) = raw.peek() {
        if !first.starts_with("--") {
            args.command = raw.next();
        }
    }
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage(spec));
        std::process::exit(0);
    }
    while let Some(flag) = raw.next() {
        let mut value = |name: &str| raw.next().ok_or_else(|| format!("{name} needs a value"));
        let number = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name} needs a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = number("--seconds", value("--seconds")?)?.max(1),
            "--trace" => args.trace = number("--trace", value("--trace")?)? != 0,
            "--traced" => args.trace = true,
            "--quick" => args.quick = true,
            "--out" => args.out = value("--out")?,
            "--runs" => {
                args.runs = usize::try_from(number("--runs", value("--runs")?)?.max(1))
                    .map_err(|_| "--runs is too large".to_string())?;
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage(spec))),
        }
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let spec = Spec::load()?;
    let args = parse_args(&spec)?;
    if host::profile() != "release" {
        return Err(
            "built without --release: refusing to report numbers from a debug build".to_string(),
        );
    }
    match (args.command.as_deref(), &args.workload) {
        (Some("agree"), _) => fleet::agree(&spec, &args),
        (Some(other), _) => Err(format!("unknown command `{other}`")),
        (None, None) => fleet::all(&spec, &args),
        (None, Some(name)) => {
            let cfg = Config {
                seed: args.seed,
                sizes: if args.quick {
                    Sizes::quick()
                } else {
                    Sizes::full(args.seconds)
                },
                trace: args.trace,
            };
            report::leaf(&spec, &args, name, &cfg)
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
