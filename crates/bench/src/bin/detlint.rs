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
//! that no file outside its own crate's library and its tests calls (such
//! a function is `pub(crate)`, or belongs in the tests), and every row-only
//! counter no file reads.
//! Exits 0 if nothing increased or is unused; 1 on a new or increased hazard,
//! a baseline row naming a missing file, an uncalled `pub fn` or a write-only
//! counter; 2 on usage or IO errors. `--write` re-baselines an audited change.
//! On success it also prints the size of `src` and `crates/*/src`: lines
//! before each file's first `#[cfg(test)]`, the `pub fn` definitions and
//! the panic sites (`.unwrap()`, `.expect(`, `panic!(`, `unreachable!(`)
//! among them.

use std::path::PathBuf;
use std::process::ExitCode;

use bgpsdn_bench::detlint::{
    crate_dirs, diff, guarded_roots, parse_baseline, render_baseline, scan_tree, tree_size,
    unused_report, Drift,
};

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

    let roots = guarded_roots(&root);
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
    let unused = match unused_report(&root, &roots) {
        Ok(u) => u,
        Err(e) => {
            eprintln!("detlint: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &unused {
        eprintln!("{line}");
    }
    if failed || !unused.is_empty() {
        eprintln!("detlint: FAILED (baseline: {})", baseline_path.display());
        return ExitCode::FAILURE;
    }
    let size = match crate_dirs(&root, &["src"]).and_then(|mut dirs| {
        dirs.push(root.join("src"));
        tree_size(&root, &dirs)
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("detlint: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "detlint: ok ({} files scanned against {} baseline entries; 0 uncalled pub fn, \
         0 write-only counters)",
        current
            .keys()
            .map(|(p, _)| p.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        baseline.len()
    );
    println!(
        "detlint: size of src and crates/*/src: {} non-test lines, {} pub fn, {} panic sites",
        size.lines, size.pub_fns, size.panic_sites
    );
    ExitCode::SUCCESS
}
