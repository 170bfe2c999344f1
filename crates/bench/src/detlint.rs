//! Determinism lint: scan simulation-critical source for constructs that
//! break run-to-run reproducibility.
//!
//! The whole framework's claim to byte-identical artifacts rests on never
//! consulting ambient nondeterminism inside the simulated world:
//!
//! * `HashMap`/`HashSet` iterate in `RandomState` order — any loop over
//!   one can reorder events, RIB dumps, or JSON output between runs
//!   (use `BTreeMap`/`BTreeSet`/`Vec`);
//! * `Instant::now`/`SystemTime` read the host clock (use `SimTime`);
//! * `thread_rng`/`rand::random` seed from the OS (use `SimRng`).
//!
//! Some uses are legitimate — campaign wall-clock accounting, host-side
//! file timestamps — so the lint is baseline-driven: a committed baseline
//! records the audited per-(file, hazard) occurrence counts, and CI fails
//! only when a count **increases** or a new (file, hazard) pair appears.
//! Decreases are reported as stale-baseline notices (refresh with
//! `--write`). Individual lines can be exempted with a trailing
//! `// detlint: allow` comment; test modules (everything after a
//! `#[cfg(test)]` line) are skipped entirely. The baseline also records
//! the panic-site count of `src` + `crates/*/src` ([`library_size`]),
//! which may only fall the same way.
//!
//! A second pass, [`uncalled_pub_fns`], keeps the public surface honest:
//! rustc's `dead_code` lint sees no further than its own crate, so a
//! `pub fn` that nothing in the workspace calls survives `-D warnings`,
//! and so does one that only its own crate calls. The pass flags every
//! non-test `pub fn` whose name appears in no file outside the defining
//! crate's library (another crate's `src`, a `benches/` or `examples/`
//! file, or a `src/bin/` binary), outside comments, `use` declarations (a
//! re-export is not a call), the name after `fn` (a definition is not a
//! call) and each file's test modules. Tests are not callers, neither a
//! `tests/` file nor another crate's `#[cfg(test)]` module: what only
//! tests call belongs in the tests. A function only its own crate calls is
//! `pub(crate)`, where `dead_code` sees it. The pass matches on identifier
//! tokens, so it never flags a function that is called by name; a name
//! some other function shares and is called by (such as `new` or `len`)
//! can only make it miss one. It has no baseline: the tree must pass with
//! zero findings, and a `// detlint: allow <reason>` on the `pub fn` line,
//! or on a comment line directly above it, exempts that one function
//! (`test-oracle <reason>` for an accessor or step that only a test's
//! oracle calls).
//!
//! A third pass, [`write_only_counters`], does the same for counters: a
//! row-only counter id (one artifacts never carry) that every file
//! mentions only as the id argument of a `.count(` call is counted and
//! never read. Here tests do count: a counter a test reads as an oracle is
//! read. [`unused_report`] runs both passes over a workspace.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// The hazard patterns the lint searches for, as plain substrings.
pub const HAZARDS: &[&str] = &[
    "HashMap",
    "HashSet",
    "Instant::now",
    "SystemTime",
    "thread_rng",
    "rand::random",
];

/// The explicit per-line exemption marker.
pub const ALLOW_MARKER: &str = "detlint: allow";

/// Occurrence counts keyed by `(relative path, hazard pattern)`.
pub type Counts = BTreeMap<(String, String), usize>;

/// Count hazard occurrences in one file's source text. Lines after a
/// `#[cfg(test)]` marker (see `non_test_lines`), comment-only lines, and
/// lines carrying the [`ALLOW_MARKER`] are skipped.
fn scan_source(text: &str) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for line in non_test_lines(text) {
        if line.trim_start().starts_with("//") || line.contains(ALLOW_MARKER) {
            continue;
        }
        for &hazard in HAZARDS {
            let hits = line.matches(hazard).count();
            if hits > 0 {
                *counts.entry(hazard.to_string()).or_insert(0) += hits;
            }
        }
    }
    counts
}

/// Read every `.rs` file under each root, as `(path relative to base,
/// text)` pairs sorted by path.
///
/// # Errors
///
/// Propagates IO errors reading directories or files.
fn read_tree(base: &Path, roots: &[PathBuf]) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    for root in roots {
        let mut stack = vec![root.clone()];
        while let Some(dir) = stack.pop() {
            let entries =
                std::fs::read_dir(&dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|x| x == "rs") {
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("reading {}: {e}", path.display()))?;
                    let rel = path
                        .strip_prefix(base)
                        .unwrap_or(&path)
                        .to_string_lossy()
                        .replace('\\', "/");
                    files.push((rel, text));
                }
            }
        }
    }
    files.sort();
    files.dedup_by(|a, b| a.0 == b.0);
    Ok(files)
}

/// Recursively scan `.rs` files under each root, keying results by the
/// path relative to `base`.
///
/// # Errors
///
/// Propagates IO errors reading directories or files.
pub fn scan_tree(base: &Path, roots: &[PathBuf]) -> Result<Counts, String> {
    let mut counts = Counts::new();
    for (rel, text) in read_tree(base, roots)? {
        for (hazard, n) in scan_source(&text) {
            counts.insert((rel.clone(), hazard), n);
        }
    }
    Ok(counts)
}

/// One `pub fn` that no file outside its crate's library mentions.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct UncalledFn {
    /// Relative path of the defining file.
    pub path: String,
    /// 1-based line of the definition.
    pub line: usize,
    /// The function's name.
    pub name: String,
}

/// The code part of a line: everything before a `//` that is not inside a
/// string literal.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let (mut in_str, mut i) = (false, 0);
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'/' if !in_str && bytes.get(i + 1) == Some(&b'/') => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// Split a line into its identifier tokens.
fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| t.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// The name a line defines as a `pub fn` (`const`, `async` and `unsafe`
/// ones included), if it does.
fn pub_fn_name(line: &str) -> Option<&str> {
    let trimmed = line.trim_start();
    if trimmed.starts_with("//") {
        return None;
    }
    let mut toks = idents(trimmed);
    if toks.next() != Some("pub") {
        return None;
    }
    let mut tok = toks.next();
    while matches!(tok, Some("const" | "async" | "unsafe")) {
        tok = toks.next();
    }
    if tok == Some("fn") {
        toks.next()
    } else {
        None
    }
}

/// A file's lines before its first `#[cfg(test)]`.
fn non_test_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"))
}

/// The `pub fn` names a file defines before its first `#[cfg(test)]`,
/// with their 1-based lines. A definition whose line carries
/// [`ALLOW_MARKER`], or whose previous line is a comment carrying it, is
/// left out.
fn pub_fns(text: &str) -> Vec<(usize, String)> {
    let mut above = "";
    let mut found = Vec::new();
    for (i, line) in non_test_lines(text).enumerate() {
        let exempt = line.contains(ALLOW_MARKER)
            || (above.trim_start().starts_with("//") && above.contains(ALLOW_MARKER));
        if let Some(name) = pub_fn_name(line).filter(|_| !exempt) {
            found.push((i + 1, name.to_string()));
        }
        above = line;
    }
    found
}

/// How big a source tree is, in the three numbers the ROADMAP tracks.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TreeSize {
    /// Lines before the first `#[cfg(test)]` of each `.rs` file.
    pub lines: usize,
    /// `pub fn` definitions among those lines, exempted ones included.
    pub pub_fns: usize,
    /// Those lines whose code (comments stripped) can panic:
    /// `.unwrap()`, `.expect(`, `panic!(` or `unreachable!(`.
    pub panic_sites: usize,
}

/// What makes a line a panic site.
const PANIC_PATTERNS: [&str; 4] = [".unwrap()", ".expect(", "panic!(", "unreachable!("];

/// Count the non-test lines, `pub fn` definitions and panic sites of
/// every `.rs` file under `roots`.
///
/// # Errors
///
/// Propagates IO errors reading directories or files.
pub(crate) fn tree_size(base: &Path, roots: &[PathBuf]) -> Result<TreeSize, String> {
    let mut size = TreeSize::default();
    for (_, text) in read_tree(base, roots)? {
        for line in non_test_lines(&text) {
            size.lines += 1;
            size.pub_fns += usize::from(pub_fn_name(line).is_some());
            let code = strip_comment(line);
            size.panic_sites += usize::from(PANIC_PATTERNS.iter().any(|p| code.contains(p)));
        }
    }
    Ok(size)
}

/// The identifier tokens a file mentions as code: its test modules (see
/// `non_test_lines`), comments, `use` declarations (including `pub use`
/// re-exports, over as many lines as they run) and the name a `fn`
/// defines do not count.
fn code_idents(text: &str) -> BTreeSet<&str> {
    let mut seen = BTreeSet::new();
    let mut in_use = false;
    for line in non_test_lines(text) {
        let code = strip_comment(line);
        let trimmed = code.trim_start();
        if !in_use {
            // Drop a visibility (`pub`, `pub(crate)`, ...) before `use`.
            let item = match trimmed.strip_prefix("pub") {
                Some(rest) if rest.starts_with('(') => rest.split_once(')').map_or("", |r| r.1),
                Some(rest) => rest,
                None => trimmed,
            };
            in_use = item.trim_start().starts_with("use ");
        }
        if in_use {
            in_use = !code.contains(';');
            continue;
        }
        let mut after_fn = false;
        for tok in idents(code) {
            if !after_fn {
                seen.insert(tok);
            }
            after_fn = tok == "fn";
        }
    }
    seen
}

/// The library a source path belongs to: the directory up to its first
/// `src` component (`crates/core/src`). A file under that directory's
/// `bin/` is a binary of its own, and so is one outside any `src`: both
/// give `None`.
fn library_of(path: &str) -> Option<&str> {
    let mut at = 0;
    for comp in path.split('/') {
        if comp == "src" {
            let end = at + comp.len();
            return (!path[end..].starts_with("/bin/")).then_some(&path[..end]);
        }
        at += comp.len() + 1;
    }
    None
}

/// Every `pub fn` defined under `defining` whose name no file under
/// `callers` outside the defining file's library (see `library_of`)
/// mentions as code outside its test modules (see `code_idents`). A
/// defining file outside any library counts every other file as outside.
/// The defining roots are searched for callers too.
///
/// # Errors
///
/// Propagates IO errors reading directories or files.
pub(crate) fn uncalled_pub_fns(
    base: &Path,
    defining: &[PathBuf],
    callers: &[PathBuf],
) -> Result<Vec<UncalledFn>, String> {
    let defined = read_tree(base, defining)?;
    let mut all = read_tree(base, callers)?;
    all.extend(defined.iter().cloned());
    all.sort();
    all.dedup_by(|a, b| a.0 == b.0);
    let tokens: Vec<(&str, BTreeSet<&str>)> = all
        .iter()
        .map(|(path, text)| (path.as_str(), code_idents(text)))
        .collect();
    let mut uncalled = Vec::new();
    for (path, text) in &defined {
        let library = library_of(path);
        let outside =
            |other: &str| other != path && (library.is_none() || library_of(other) != library);
        for (line, name) in pub_fns(text) {
            let called = tokens
                .iter()
                .any(|(other, idents)| outside(other) && idents.contains(name.as_str()));
            if !called {
                uncalled.push(UncalledFn {
                    path: path.clone(),
                    line,
                    name,
                });
            }
        }
    }
    Ok(uncalled)
}

/// Whether `code`, with comments and whitespace removed, mentions
/// `Counter::<id>` other than as the first argument of a `.count(` call.
fn reads_counter(code: &str, id: &str) -> bool {
    let needle = format!("Counter::{id}");
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(&needle).any(|(at, _)| {
        let (before, after) = (&code[..at], &code[at + needle.len()..]);
        !after.starts_with(ident) && !before.ends_with(ident) && !before.ends_with(".count(")
    })
}

/// Every id that the last `row_only { … }` block of the counter table
/// `table` lists (the first may be the table macro's own pattern) and that
/// no other file reads: each of its mentions under `callers`, which must
/// hold the table, is the id argument of a `.count(` call. Exported
/// counters are read by the artifacts they reach, so only row-only ones
/// can be write-only.
///
/// # Errors
///
/// Propagates IO errors reading directories or files, and fails when no
/// file under `callers` is `table`.
pub(crate) fn write_only_counters(
    base: &Path,
    table: &str,
    callers: &[PathBuf],
) -> Result<Vec<String>, String> {
    let files = read_tree(base, callers)?;
    let (_, text) = files
        .iter()
        .find(|(path, _)| path == table)
        .ok_or(format!("no {table}"))?;
    let block = text.rsplit_once("row_only {").map_or("", |(_, rest)| rest);
    let block = block.split_once('}').map_or(block, |(inside, _)| inside);
    let code: Vec<String> = files
        .iter()
        .filter(|(path, _)| path != table)
        .map(|(_, text)| {
            text.lines()
                .map(strip_comment)
                .flat_map(str::split_whitespace)
                .collect()
        })
        .collect();
    Ok(block
        .lines()
        .filter_map(|line| strip_comment(line).split_once('='))
        .map(|(id, _)| id.trim())
        .filter(|id| !code.iter().any(|c| reads_counter(c, id)))
        .map(String::from)
        .collect())
}

/// The source roots the hazard scan guards, relative to the workspace
/// root: everything that executes inside (or serializes the output of) the
/// deterministic simulation, and the reproduction targets, which must not
/// read a clock either: their committed `bench-results/` hold simulated
/// time and exact counts only. `crates/bench/src` is exempt because
/// `detlint.rs` spells the patterns it lints for.
const GUARDED: &[&str] = &[
    "src",
    "crates/bench/benches",
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
/// find its callers, besides `crates/*/{src,benches}`; files in the
/// defining crate's own library do not count, and neither do tests. The
/// frozen `benchmark/` harness counts: what it calls stays public.
const CALLER_ROOTS: &[&str] = &["src", "examples", "benchmark/src"];

/// The file whose `counter_table!` names every counter.
const COUNTER_TABLE: &str = "crates/obs/src/metrics.rs";

/// The size of `src` + `crates/*/src` under `root`: the numbers the
/// ROADMAP tracks, and the panic-site count the baseline records.
///
/// # Errors
///
/// Propagates IO errors reading directories or files.
pub fn library_size(root: &Path) -> Result<TreeSize, String> {
    let mut dirs = crate_dirs(root, &["src"])?;
    dirs.push(root.join("src"));
    tree_size(root, &dirs)
}

/// `crates/*/<sub>` for each of `subs`, the directories that exist.
///
/// # Errors
///
/// Propagates IO errors reading `root/crates`.
pub(crate) fn crate_dirs(root: &Path, subs: &[&str]) -> Result<Vec<PathBuf>, String> {
    let crates = root.join("crates");
    let entries =
        std::fs::read_dir(&crates).map_err(|e| format!("reading {}: {e}", crates.display()))?;
    let mut dirs = Vec::new();
    for entry in entries {
        let dir = entry
            .map_err(|e| format!("reading {}: {e}", crates.display()))?
            .path();
        dirs.extend(subs.iter().map(|sub| dir.join(sub)));
    }
    dirs.retain(|p| p.is_dir());
    Ok(dirs)
}

/// The guarded source roots (see `GUARDED`) that exist under `root`.
pub fn guarded_roots(root: &Path) -> Vec<PathBuf> {
    GUARDED
        .iter()
        .map(|r| root.join(r))
        .filter(|p| p.is_dir())
        .collect()
}

/// Every `pub fn` under `guarded` or `crates/bench/src` that nothing
/// outside its crate's library but tests calls, and every counter nothing
/// reads (tests included), as one line each; empty when the public surface
/// and the counter table are all in use.
///
/// # Errors
///
/// Propagates IO errors reading directories or files.
pub fn unused_report(root: &Path, guarded: &[PathBuf]) -> Result<Vec<String>, String> {
    let mut defining = guarded.to_vec();
    defining.push(root.join("crates/bench/src"));
    defining.retain(|p| p.is_dir());
    let mut callers: Vec<PathBuf> = CALLER_ROOTS.iter().map(|r| root.join(r)).collect();
    callers.retain(|p| p.is_dir());
    callers.extend(crate_dirs(root, &["src", "benches"])?);
    let mut lines: Vec<String> = uncalled_pub_fns(root, &defining, &callers)?
        .into_iter()
        .map(|f| {
            format!(
                "detlint: {}:{}: `pub fn {}` has no caller outside its crate's library and \
                 its tests; make it `pub(crate)`, delete it, move it into the tests that \
                 use it, or mark the line `// detlint: allow <reason>`",
                f.path, f.line, f.name
            )
        })
        .collect();
    let mut readers = callers;
    readers.push(root.join("tests"));
    readers.extend(crate_dirs(root, &["tests"])?);
    readers.retain(|p| p.is_dir());
    lines.extend(write_only_counters(root, COUNTER_TABLE, &readers)?.into_iter().map(|id| {
        format!("detlint: {COUNTER_TABLE}: `Counter::{id}` is counted but never read; read it or delete it")
    }));
    Ok(lines)
}

/// The baseline's name for the panic-site count.
const PANIC_ROW: &str = "panic sites";

/// What the committed baseline records, and what a scan of the tree
/// measures against it.
#[derive(Debug, PartialEq, Eq)]
pub struct Baseline {
    /// Audited hazard counts per `(file, hazard)`.
    pub hazards: Counts,
    /// Panic sites in `src` + `crates/*/src` (see [`TreeSize`]).
    pub panic_sites: usize,
}

/// Serialize a baseline in the committed format: a
/// `count<TAB>panic sites` line, then one `count<TAB>hazard<TAB>path` line
/// per hazard entry, sorted.
pub fn render_baseline(baseline: &Baseline) -> String {
    let mut out = format!("{}\t{PANIC_ROW}\n", baseline.panic_sites);
    for ((path, hazard), n) in &baseline.hazards {
        out.push_str(&format!("{n}\t{hazard}\t{path}\n"));
    }
    out
}

/// Parse a baseline file produced by [`render_baseline`].
///
/// # Errors
///
/// Returns a message naming the first malformed line, or saying that the
/// panic-site line is missing.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let mut hazards = Counts::new();
    let mut panic_sites = None;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, '\t');
        let count = |n: &str| {
            n.parse::<usize>()
                .map_err(|_| format!("baseline line {}: bad count {n:?}", i + 1))
        };
        match (parts.next(), parts.next(), parts.next()) {
            (Some(n), Some(PANIC_ROW), None) => panic_sites = Some(count(n)?),
            (Some(n), Some(h), Some(p)) => {
                hazards.insert((p.to_string(), h.to_string()), count(n)?);
            }
            _ => return Err(format!("baseline line {}: expected 3 fields", i + 1)),
        }
    }
    let panic_sites = panic_sites.ok_or(format!("baseline has no `{PANIC_ROW}` line"))?;
    Ok(Baseline {
        hazards,
        panic_sites,
    })
}

/// One difference between the scan and the baseline.
#[derive(Debug, PartialEq, Eq)]
pub enum Drift {
    /// Count grew (or the pair is new): fails the lint.
    Increased {
        /// Relative file path.
        path: String,
        /// Hazard pattern.
        hazard: String,
        /// Baseline count (0 = new pair).
        was: usize,
        /// Current count.
        now: usize,
    },
    /// The baseline names a file that no longer exists: fails the lint,
    /// so the baseline cannot outlive the tree.
    Missing {
        /// Relative file path.
        path: String,
        /// Hazard pattern.
        hazard: String,
    },
    /// Count shrank: stale baseline, non-fatal.
    Stale {
        /// Relative file path.
        path: String,
        /// Hazard pattern.
        hazard: String,
        /// Baseline count.
        was: usize,
        /// Current count.
        now: usize,
    },
    /// The panic-site count moved: a rise fails the lint, a fall is a
    /// stale baseline.
    PanicSites {
        /// Baseline count.
        was: usize,
        /// Current count.
        now: usize,
    },
}

impl Drift {
    /// Whether this difference fails the lint (the rest are notices that
    /// `--write` clears).
    pub fn fails(&self) -> bool {
        match self {
            Drift::Increased { .. } | Drift::Missing { .. } => true,
            Drift::Stale { .. } => false,
            Drift::PanicSites { was, now } => now > was,
        }
    }
}

/// Diff a fresh scan against the committed baseline. `file_exists` says
/// whether a baseline row's path is still in the tree.
pub fn diff(
    current: &Baseline,
    baseline: &Baseline,
    file_exists: impl Fn(&str) -> bool,
) -> Vec<Drift> {
    let mut drifts = Vec::new();
    if current.panic_sites != baseline.panic_sites {
        drifts.push(Drift::PanicSites {
            was: baseline.panic_sites,
            now: current.panic_sites,
        });
    }
    let (current, baseline) = (&current.hazards, &baseline.hazards);
    for ((path, hazard), &now) in current {
        let was = baseline.get(&(path.clone(), hazard.clone())).copied();
        match was {
            Some(was) if now > was => drifts.push(Drift::Increased {
                path: path.clone(),
                hazard: hazard.clone(),
                was,
                now,
            }),
            Some(was) if now < was => drifts.push(Drift::Stale {
                path: path.clone(),
                hazard: hazard.clone(),
                was,
                now,
            }),
            Some(_) => {}
            None => drifts.push(Drift::Increased {
                path: path.clone(),
                hazard: hazard.clone(),
                was: 0,
                now,
            }),
        }
    }
    for ((path, hazard), &was) in baseline {
        if !file_exists(path) {
            drifts.push(Drift::Missing {
                path: path.clone(),
                hazard: hazard.clone(),
            });
        } else if !current.contains_key(&(path.clone(), hazard.clone())) {
            drifts.push(Drift::Stale {
                path: path.clone(),
                hazard: hazard.clone(),
                was,
                now: 0,
            });
        }
    }
    drifts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_counts_hazards_and_skips_tests_comments_and_allows() {
        let src = "\
use std::collections::HashMap; // detlint: allow
let m: HashMap<u32, u32> = HashMap::new();
// a comment mentioning HashMap does not count
let t = Instant::now();
#[cfg(test)]
mod tests {
    use std::collections::HashSet;
}
";
        let counts = scan_source(src);
        assert_eq!(counts.get("HashMap").copied(), Some(2), "{counts:?}");
        assert_eq!(counts.get("Instant::now").copied(), Some(1));
        assert_eq!(counts.get("HashSet"), None, "test module must be skipped");
    }

    /// A baseline of the given hazard rows and panic-site count.
    fn baseline(rows: &[(&str, &str, usize)], panic_sites: usize) -> Baseline {
        let hazards = rows
            .iter()
            .map(|&(path, hazard, n)| ((path.to_string(), hazard.to_string()), n))
            .collect();
        Baseline {
            hazards,
            panic_sites,
        }
    }

    #[test]
    fn baseline_round_trips() {
        let counts = baseline(&[("a/b.rs", "HashMap", 3), ("c.rs", "SystemTime", 1)], 61);
        let text = render_baseline(&counts);
        assert_eq!(parse_baseline(&text).unwrap(), counts);
        let without_panic_row: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
        assert!(parse_baseline(&without_panic_row).is_err());
    }

    #[test]
    fn diff_flags_a_rise_in_panic_sites_and_notes_a_fall() {
        let base = baseline(&[("a.rs", "HashMap", 2)], 61);
        let rose = diff(&baseline(&[("a.rs", "HashMap", 2)], 62), &base, |_| true);
        assert_eq!(rose, [Drift::PanicSites { was: 61, now: 62 }]);
        assert!(rose[0].fails());
        let fell = diff(&baseline(&[("a.rs", "HashMap", 2)], 60), &base, |_| true);
        assert_eq!(fell, [Drift::PanicSites { was: 61, now: 60 }]);
        assert!(!fell[0].fails());
    }

    #[test]
    fn diff_flags_increases_and_reports_stale() {
        let base = baseline(
            &[
                ("a.rs", "HashMap", 2),
                ("gone.rs", "SystemTime", 1),
                ("shrunk.rs", "SystemTime", 1),
            ],
            0,
        );
        let cur = baseline(&[("a.rs", "HashMap", 3), ("new.rs", "thread_rng", 1)], 0);
        let drifts = diff(&cur, &base, |p| p != "gone.rs");
        assert!(drifts.contains(&Drift::Increased {
            path: "a.rs".into(),
            hazard: "HashMap".into(),
            was: 2,
            now: 3
        }));
        assert!(drifts.contains(&Drift::Increased {
            path: "new.rs".into(),
            hazard: "thread_rng".into(),
            was: 0,
            now: 1
        }));
        assert!(drifts.contains(&Drift::Missing {
            path: "gone.rs".into(),
            hazard: "SystemTime".into(),
        }));
        assert!(drifts.contains(&Drift::Stale {
            path: "shrunk.rs".into(),
            hazard: "SystemTime".into(),
            was: 1,
            now: 0
        }));
        assert!(diff(&base, &base, |_| true).is_empty());
    }

    #[test]
    fn pub_fn_pass_flags_only_functions_nothing_else_mentions() {
        let dir = std::env::temp_dir().join(format!("detlint-pubfn-{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = dir.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        };
        write(
            "crates/a/src/a.rs",
            "\
pub fn called() {}
pub fn reexported_only() {}
pub fn in_a_comment_only() {}
pub fn exempt() {} // detlint: allow kept for an out-of-tree caller
// detlint: allow test-oracle exempt from the line above
pub fn exempt_from_above() {}
pub const fn planted() {}
pub(crate) fn crate_visible() {}
pub fn crate_only() {}
pub fn tested_by_a_sibling() {}
pub fn run_by_a_binary() {}
#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}
",
        );
        write(
            "crates/a/src/lib.rs",
            "pub use a::crate_only;\nfn inner() { crate_only(); crate_visible(); }\n",
        );
        write(
            "crates/b/src/b.rs",
            "\
pub use crate::a::reexported_only;
use crate::a::{
    called,
    planted,
};
// in_a_comment_only() would be a call, were it code
fn main() {
    let url = \"http://example\"; called(); /* */ // planted()
}
",
        );
        write(
            "crates/b/tests/t.rs",
            "#[test]\nfn t() { a::tested_by_a_sibling(); }\n",
        );
        write(
            "crates/a/src/bin/tool.rs",
            "fn main() { a::run_by_a_binary(); }\n",
        );
        let roots = [dir.join("crates/a/src"), dir.join("crates/b")];
        let found = uncalled_pub_fns(&dir, &roots[..1], &roots[1..]).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let names: Vec<(usize, &str)> = found.iter().map(|f| (f.line, f.name.as_str())).collect();
        assert_eq!(
            names,
            [
                (2, "reexported_only"),
                (3, "in_a_comment_only"),
                (7, "planted"),
                (9, "crate_only")
            ]
        );
        assert!(found.iter().all(|f| f.path == "crates/a/src/a.rs"));
    }

    #[test]
    fn unused_report_counts_tests_as_readers_but_not_as_callers() {
        let dir = std::env::temp_dir().join(format!("detlint-report-{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = dir.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        };
        write(
            "crates/a/src/lib.rs",
            "pub fn only_tested() {}\npub fn used() {}\n",
        );
        write("examples/e.rs", "fn main() { a::used(); }\n");
        write(
            "crates/a/tests/t.rs",
            "#[test]\nfn t() { a::only_tested(); sim.counter(n, Counter::Read); }\n",
        );
        write(
            COUNTER_TABLE,
            "counter_table! {\n    row_only {\n        Read = \"a.read\",\n        \
             Unread = \"a.unread\",\n    }\n}\n",
        );
        let lines = unused_report(&dir, &[dir.join("crates/a/src")]).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("crates/a/src/lib.rs:1: `pub fn only_tested`"));
        assert!(lines[1].contains("`Counter::Unread`"));
    }

    #[test]
    fn pub_fn_pass_does_not_count_a_definition_as_a_call() {
        let dir = std::env::temp_dir().join(format!("detlint-defn-{}", std::process::id()));
        let (lib, user) = (dir.join("lib"), dir.join("user"));
        std::fs::create_dir_all(&lib).unwrap();
        std::fs::create_dir_all(&user).unwrap();
        std::fs::write(lib.join("a.rs"), "pub fn fast() {}\npub fn slow() {}\n").unwrap();
        std::fs::write(
            user.join("b.rs"),
            "fn fast() -> u32 { 1 }\nimpl T { pub fn slow(&self) {} }\nfn main() { x.slow(); }\n",
        )
        .unwrap();
        let found = uncalled_pub_fns(&dir, std::slice::from_ref(&lib), &[user]).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let names: Vec<&str> = found.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["fast"]);
    }

    #[test]
    fn pub_fn_pass_does_not_count_another_crates_test_module_as_a_caller() {
        let dir = std::env::temp_dir().join(format!("detlint-testmod-{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = dir.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        };
        write(
            "crates/a/src/lib.rs",
            "pub fn only_unit_tested() {}\npub fn used() {}\n",
        );
        write(
            "crates/b/src/lib.rs",
            "fn f() { a::used(); }\n#[cfg(test)]\nmod tests {\n    \
             fn t() { a::only_unit_tested(); }\n}\n",
        );
        let found = uncalled_pub_fns(&dir, &[dir.join("crates/a/src")], &[dir.join("crates/b")]);
        let _ = std::fs::remove_dir_all(&dir);
        let names: Vec<String> = found.unwrap().into_iter().map(|f| f.name).collect();
        assert_eq!(names, ["only_unit_tested"]);
    }

    #[test]
    fn counter_pass_flags_only_row_only_ids_nothing_reads() {
        let dir = std::env::temp_dir().join(format!("detlint-counters-{}", std::process::id()));
        let src = dir.join("src");
        std::fs::create_dir_all(&src).unwrap();
        let table = "counter_table! {\n    exported {\n        Sent = \"a.b.sent\",\n    }\n    \
                     row_only {\n        /// A doc line.\n        Read = \"a.b.read\",\n        \
                     Written = \"a.b.written\",\n        Commented = \"a.b.commented\",\n    }\n}\n";
        std::fs::write(src.join("table.rs"), table).unwrap();
        std::fs::write(
            src.join("node.rs"),
            "fn f(ctx: &mut Ctx) {\n    ctx.count(Counter::Sent, 1);\n    ctx.count(\n        \
             Counter::Written,\n        2,\n    );\n    ctx.count(Counter::Read, 1);\n    \
             ctx.count(Counter::Commented, 1); // Counter::Commented\n}\n",
        )
        .unwrap();
        std::fs::write(
            src.join("view.rs"),
            "fn g(sim: &Sim) -> u64 { sim.counter(n, Counter::Read) + x[Counter::WrittenTwice] }\n",
        )
        .unwrap();
        let found = write_only_counters(&dir, "src/table.rs", std::slice::from_ref(&src)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(found, ["Written", "Commented"]);
    }

    #[test]
    fn tree_size_counts_non_test_lines_and_pub_fns() {
        let dir = std::env::temp_dir().join(format!("detlint-size-{}", std::process::id()));
        let src = dir.join("src");
        std::fs::create_dir_all(src.join("nested")).unwrap();
        std::fs::write(
            src.join("a.rs"),
            "\
//! Module docs count as lines.
// pub fn in_a_comment() {}
pub fn one() {}
pub(crate) fn crate_visible() {}
pub const fn two() {}
fn site() { x.unwrap(); }
// y.expect(\"a site in a comment\");
#[cfg(test)]
mod tests {
    pub fn test_helper() {}
    fn test_site() { panic!(\"a site in a test\"); }
}
",
        )
        .unwrap();
        std::fs::write(
            src.join("nested/b.rs"),
            "pub fn three() {} // detlint: allow still counted\nfn private() {}\n",
        )
        .unwrap();
        let size = tree_size(&dir, &[src]).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            size,
            TreeSize {
                lines: 9,
                pub_fns: 3,
                panic_sites: 1
            }
        );
    }
}
