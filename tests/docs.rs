//! The prose stays within budget and points at real code: DESIGN.md stays
//! under 40 000 bytes and DESIGN.md and EXPERIMENTS.md together under
//! 100 000 bytes, every file path either names (from the repo root, or
//! crate-relative under `crates/`) exists, every `--bench NAME` is a
//! bench target, and every `bgpsdn` command line the docs show parses.
//! The binary stays thin: `src/bin/bgpsdn.rs` holds at most 400 lines.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use bgp_sdn_emu::cli::Command;

const DOCS: [&str; 2] = ["DESIGN.md", "EXPERIMENTS.md"];
const BUDGET: usize = 100_000;
/// DESIGN.md's own share: one current architecture document, not a history.
const DESIGN_BUDGET: usize = 40_000;
/// `src/bin/bgpsdn.rs` runs what `cli` parses, and no more.
const BIN_LINES: usize = 400;
/// The docs that show `bgpsdn` command lines; the verify skill calls the
/// binary `$B`.
const COMMAND_DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];
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

/// The arguments of every `bgpsdn CMD ...` (or `$B CMD ...`) in `text`,
/// and whether it is a whole command: a code-block line (with its `\`
/// continuations joined and `#` comment cut) is, an inline code span is a
/// fragment. Optional brackets and `...` are dropped, and a shell operator
/// ends the command.
fn invocations(text: &str) -> Vec<(Vec<String>, bool)> {
    let (mut snippets, mut prose, mut pending) = (Vec::new(), String::new(), String::new());
    let mut in_block = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_block = !in_block;
        } else if in_block {
            let code = line.split(" #").next().unwrap_or_default().trim_end();
            pending.push_str(code.trim_end_matches('\\'));
            pending.push(' ');
            if !code.ends_with('\\') {
                snippets.push((std::mem::take(&mut pending), true));
            }
        } else {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    let spans = prose.split('`').skip(1).step_by(2);
    snippets.extend(spans.map(|span| (span.to_string(), false)));
    let mut found = Vec::new();
    for (snippet, whole) in &snippets {
        let tokens: Vec<&str> = snippet.split_whitespace().collect();
        for (i, _) in tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| ["bgpsdn", "$B"].contains(t))
        {
            let args: Vec<String> = tokens[i + 1..]
                .iter()
                .take_while(|t| !["|", ">", "&&", ";", "+"].contains(t))
                .map(|t| t.trim_matches(|c| c == '[' || c == ']'))
                .filter(|t| !t.is_empty() && *t != "...")
                .map(str::to_string)
                .collect();
            // A subcommand named alone is prose about it, not a command line.
            if args.len() > 1 && args[0].starts_with(|c: char| c.is_ascii_lowercase()) {
                found.push((args, *whole));
            }
        }
    }
    found
}

#[test]
fn every_command_line_the_docs_show_parses() {
    let mut checked = 0;
    let mut rejected = Vec::new();
    for doc in COMMAND_DOCS {
        for (args, whole) in invocations(&read(doc)) {
            checked += 1;
            // A fragment's placeholder (`FILE`, `N`) may be a bad value
            // (exit 1); a flag or subcommand `bgpsdn` does not read never is.
            match Command::parse(&args) {
                Err(e) if whole || e.exit_code() == 2 => {
                    rejected.push(format!("{doc}: bgpsdn {}\n  {e}", args.join(" ")));
                }
                _ => {}
            }
        }
    }
    assert!(checked >= 20, "only {checked} command lines found");
    assert!(rejected.is_empty(), "{}", rejected.join("\n"));
}

#[test]
fn command_lines_are_read_as_the_docs_write_them() {
    let text = "Run `bgpsdn explain FILE [--json] [--top N]`, not `bgpsdn run`:\n\
                ```sh\n$B sweep --sizes 0,4 \\\n   --verify   # a comment\n\
                $B report /tmp/c.jsonl | head\n```\n";
    let line = |args: &[&str], whole| (args.iter().map(|a| a.to_string()).collect(), whole);
    assert_eq!(
        invocations(text),
        [
            line(&["sweep", "--sizes", "0,4", "--verify"], true),
            line(&["report", "/tmp/c.jsonl"], true),
            line(&["explain", "FILE", "--json", "--top", "N"], false),
        ]
    );
}

#[test]
fn the_binary_stays_thin() {
    let lines = read("src/bin/bgpsdn.rs").lines().count();
    assert!(
        lines <= BIN_LINES,
        "src/bin/bgpsdn.rs is {lines} lines, over its {BIN_LINES}: flags and checks belong in src/cli.rs"
    );
}
