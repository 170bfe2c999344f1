//! The prose stays within budget and points at real code: DESIGN.md stays
//! under 40 000 bytes and DESIGN.md and EXPERIMENTS.md together under
//! 100 000 bytes, every file path either names (from the repo root, or
//! crate-relative under `crates/`) exists, and every `--bench NAME` is a
//! bench target.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const DOCS: [&str; 2] = ["DESIGN.md", "EXPERIMENTS.md"];
const BUDGET: usize = 100_000;
/// DESIGN.md's own share: one current architecture document, not a history.
const DESIGN_BUDGET: usize = 40_000;
/// A token ending in one of these names a file. (`.jsonl` is left out: the
/// docs name run artifacts, which are written, not kept.)
const EXTENSIONS: [&str; 6] = [".rs", ".json", ".md", ".yml", ".toml", ".lock"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(name: &str) -> String {
    std::fs::read_to_string(root().join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Every file name in the tree, skipping build output and git state.
fn file_names(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let path = entry.path();
        if path.is_dir() {
            if !(name == "target" || name == ".git" || name.starts_with(".bench")) {
                file_names(&path, out);
            }
        } else {
            out.insert(name);
        }
    }
}

/// The tokens of `text` that name a file: runs of path characters that end
/// in a known extension (a sentence's closing period stripped).
fn file_tokens(text: &str) -> Vec<&str> {
    let path_char = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    text.split(|c| !path_char(c))
        .map(|t| t.trim_end_matches('.').trim_start_matches("./"))
        .filter(|t| {
            EXTENSIONS
                .iter()
                .any(|ext| t.len() > ext.len() && t.ends_with(ext))
        })
        .collect()
}

/// The NAME of every `--bench NAME`.
fn bench_names(text: &str) -> Vec<&str> {
    text.match_indices("--bench ")
        .map(|(i, flag)| {
            let rest = &text[i + flag.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            &rest[..end]
        })
        .collect()
}

#[test]
fn design_and_experiments_stay_within_budget() {
    let sizes: Vec<usize> = DOCS.iter().map(|d| read(d).len()).collect();
    let total: usize = sizes.iter().sum();
    assert!(
        total <= BUDGET,
        "DESIGN.md ({} B) + EXPERIMENTS.md ({} B) = {total} B, over the {BUDGET} B budget",
        sizes[0],
        sizes[1]
    );
    assert!(
        sizes[0] <= DESIGN_BUDGET,
        "DESIGN.md is {} B, over its {DESIGN_BUDGET} B budget",
        sizes[0]
    );
}

#[test]
fn docs_name_only_paths_and_benches_that_exist() {
    let root = root();
    let mut names = BTreeSet::new();
    file_names(&root, &mut names);
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for token in file_tokens(&text) {
            let found = if token.contains('/') {
                root.join(token).exists() || root.join("crates").join(token).exists()
            } else {
                names.contains(token)
            };
            if !found {
                missing.push(format!("{doc}: {token}"));
            }
        }
        for bench in bench_names(&text) {
            let target = root
                .join("crates/bench/benches")
                .join(format!("{bench}.rs"));
            if !target.exists() {
                missing.push(format!("{doc}: --bench {bench}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "named but absent:\n{}",
        missing.join("\n")
    );
}

#[test]
fn tokens_are_read_as_the_docs_write_them() {
    let text = "See `obs/src/metrics.rs`. Run `cargo bench --bench tblS7_scale`, \
                then (tests/docs.rs) and e.g. v1.2 or bench-results/<target>.json.";
    assert_eq!(file_tokens(text), ["obs/src/metrics.rs", "tests/docs.rs"]);
    assert_eq!(bench_names(text), ["tblS7_scale"]);
}
