//! The workspace passes its own determinism lint: what the `detlint` binary
//! checks, run by `cargo test` so a change that adds a hazard, an uncalled
//! `pub fn` or a write-only counter fails tier-1 and not only CI's lint job.

use std::path::{Path, PathBuf};

use bgpsdn_bench::detlint::{diff, guarded_roots, parse_baseline, scan_tree, unused_report, Drift};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn no_hazard_rises_above_the_baseline() {
    let root = workspace_root();
    let current = scan_tree(&root, &guarded_roots(&root)).expect("scan the guarded roots");
    let text = std::fs::read_to_string(root.join("detlint.baseline")).expect("read the baseline");
    let baseline = parse_baseline(&text).expect("parse the baseline");
    let failing: Vec<Drift> = diff(&current, &baseline, |path| root.join(path).is_file())
        .into_iter()
        .filter(|d| !matches!(d, Drift::Stale { .. }))
        .collect();
    assert!(failing.is_empty(), "{failing:#?}");
}

#[test]
fn every_pub_fn_has_a_caller_and_every_counter_a_reader() {
    let root = workspace_root();
    let unused = unused_report(&root, &guarded_roots(&root)).expect("read the workspace");
    assert!(unused.is_empty(), "{}", unused.join("\n"));
}
