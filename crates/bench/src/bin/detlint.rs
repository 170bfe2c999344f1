//! `detlint` — determinism lint CI gate.
//!
//! ```text
//! detlint [--root DIR] [--baseline FILE] [--write]
//! ```
//!
//! Scans the simulation-critical crates for determinism hazards
//! (`HashMap`/`HashSet` iteration order, host clocks, OS-seeded RNGs) and
//! diffs the per-(file, hazard) occurrence counts against the committed
//! baseline; then lists every `pub fn` of those crates (and of this one)
//! that no other source file calls. Exits 0 when nothing increased and no
//! `pub fn` is uncalled, 1 on any new or increased hazard, a baseline row
//! naming a missing file, or an uncalled `pub fn`, 2 on usage or IO
//! errors. `--write` regenerates the baseline after an audited change.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bgpsdn_bench::detlint::{
    diff, parse_baseline, render_baseline, scan_tree, uncalled_pub_fns, Drift,
};

/// The source roots the lint guards, relative to the workspace root:
/// everything that executes inside (or serializes the output of) the
/// deterministic simulation. `crates/bench` itself is exempt:
/// `src/detlint.rs` spells the patterns it lints for and `perf_micro` times
/// kernels by design (the other targets are held to exact equality of
/// their committed `bench-results/`, a stricter gate than a hazard count).
const GUARDED: &[&str] = &[
    "src",
    "crates/netsim/src",
    "crates/bgp/src",
    "crates/sdn/src",
    "crates/topology/src",
    "crates/collector/src",
    "crates/core/src",
    "crates/obs/src",
    "crates/verify/src",
    "crates/analyze/src",
];

/// Where a `pub fn` of the guarded roots or of `crates/bench/src` may
/// find its callers, besides `crates/*/{src,tests,benches}`. The frozen
/// `benchmark/` harness counts: what it calls stays public.
const CALLER_ROOTS: &[&str] = &["src", "tests", "examples", "benchmark/src"];

/// Every `pub fn` that no other file calls, as one line each; empty when
/// the public surface is all in use.
fn uncalled_report(root: &Path, guarded: &[PathBuf]) -> Result<Vec<String>, String> {
    let mut defining = guarded.to_vec();
    defining.push(root.join("crates/bench/src"));
    let mut callers: Vec<PathBuf> = CALLER_ROOTS.iter().map(|r| root.join(r)).collect();
    let crates = root.join("crates");
    let entries =
        std::fs::read_dir(&crates).map_err(|e| format!("reading {}: {e}", crates.display()))?;
    for entry in entries {
        let dir = entry
            .map_err(|e| format!("reading {}: {e}", crates.display()))?
            .path();
        callers.extend(["src", "tests", "benches"].map(|sub| dir.join(sub)));
    }
    callers.retain(|p| p.is_dir());
    Ok(uncalled_pub_fns(root, &defining, &callers)?
        .into_iter()
        .map(|f| {
            format!(
                "detlint: {}:{}: `pub fn {}` has no caller in any other file; delete it, \
                 make it private, or mark the line `// detlint: allow <reason>`",
                f.path, f.line, f.name
            )
        })
        .collect())
}

fn usage() -> ExitCode {
    eprintln!("usage: detlint [--root DIR] [--baseline FILE] [--write]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = None;
    let mut baseline_path = None;
    let mut write = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--root" => root = it.next().map(PathBuf::from),
            "--baseline" => baseline_path = it.next().map(PathBuf::from),
            "--write" => write = true,
            _ => return usage(),
        }
    }
    let root = root.unwrap_or_else(|| {
        // Default to the workspace root, two levels above this crate.
        let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        here.parent()
            .and_then(|p| p.parent())
            .map_or(here.clone(), PathBuf::from)
    });
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("detlint.baseline"));

    let roots: Vec<PathBuf> = GUARDED
        .iter()
        .map(|r| root.join(r))
        .filter(|p| p.is_dir())
        .collect();
    if roots.is_empty() {
        eprintln!("detlint: no guarded source roots under {}", root.display());
        return ExitCode::from(2);
    }
    let current = match scan_tree(&root, &roots) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("detlint: {e}");
            return ExitCode::from(2);
        }
    };

    if write {
        let text = format!(
            "# detlint baseline: audited determinism-hazard counts per (file, hazard).\n\
             # Regenerate with: cargo run -p bgpsdn-bench --bin detlint -- --write\n{}",
            render_baseline(&current)
        );
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!("detlint: writing {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "detlint: wrote {} ({} entries)",
            baseline_path.display(),
            current.len()
        );
        return ExitCode::SUCCESS;
    }

    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "detlint: reading baseline {}: {e} (generate one with --write)",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
    };
    let baseline = match parse_baseline(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("detlint: {e}");
            return ExitCode::from(2);
        }
    };

    let drifts = diff(&current, &baseline, |path| root.join(path).is_file());
    let mut failed = false;
    for d in &drifts {
        match d {
            Drift::Increased {
                path,
                hazard,
                was,
                now,
            } => {
                failed = true;
                eprintln!(
                    "detlint: {path}: `{hazard}` count rose {was} -> {now}; use the \
                     deterministic alternative (BTreeMap/BTreeSet, SimTime, SimRng) or \
                     audit the line and mark it `// detlint: allow`"
                );
            }
            Drift::Missing { path, hazard } => {
                failed = true;
                eprintln!(
                    "detlint: the baseline counts `{hazard}` in {path}, which no longer \
                     exists; refresh the baseline with --write"
                );
            }
            Drift::Stale {
                path,
                hazard,
                was,
                now,
            } => {
                eprintln!(
                    "detlint: note: {path}: `{hazard}` improved {was} -> {now}; refresh \
                     the baseline with --write"
                );
            }
        }
    }
    let uncalled = match uncalled_report(&root, &roots) {
        Ok(u) => u,
        Err(e) => {
            eprintln!("detlint: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &uncalled {
        eprintln!("{line}");
    }
    if failed || !uncalled.is_empty() {
        eprintln!("detlint: FAILED (baseline: {})", baseline_path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "detlint: ok ({} files scanned against {} baseline entries; 0 uncalled pub fn)",
        current
            .keys()
            .map(|(p, _)| p.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        baseline.len()
    );
    ExitCode::SUCCESS
}
