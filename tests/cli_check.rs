//! End-to-end CLI test of `bgpsdn check`: the built-in pre-flight suite
//! must self-check clean, its `--json` output must be byte-deterministic
//! across runs, a grid with an impossible cluster size must be rejected
//! with a nonzero exit naming the finding, and every cell — one cluster
//! or split — must be analyzed in exactly the placements its jobs run.

use std::collections::BTreeSet;
use std::process::Command;
use std::time::Instant;

use bgp_sdn_emu::prelude::*;

fn bgpsdn() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bgpsdn"))
}

#[test]
fn builtin_suite_is_clean_and_json_is_byte_deterministic() {
    let start = Instant::now();
    let a = bgpsdn().args(["check", "--json"]).output().expect("spawn");
    let elapsed = start.elapsed();
    assert!(
        a.status.success(),
        "self-check failed: {}\n{}",
        String::from_utf8_lossy(&a.stderr),
        String::from_utf8_lossy(&a.stdout)
    );
    // The release acceptance bar is <100 ms on the Fig. 2 grid; leave the
    // unoptimized test build generous headroom while still catching an
    // accidental switch to exhaustive simulation.
    assert!(
        elapsed.as_secs() < 20,
        "static check took {elapsed:?} — is it simulating?"
    );

    let b = bgpsdn().args(["check", "--json"]).output().expect("spawn");
    assert!(b.status.success());
    assert_eq!(
        a.stdout, b.stdout,
        "check --json must be byte-identical across runs"
    );

    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("\"type\":"), "typed JSON envelope");
    assert!(text.contains("grid:fig2"), "Fig. 2 grid target present");
    assert!(text.contains("hunt_bound"), "hunt bounds reported");
}

#[test]
fn human_output_summarizes_the_suite() {
    let out = bgpsdn().args(["check"]).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("grid:fig2"));
    assert!(text.contains("ok"));
}

#[test]
fn impossible_grid_is_rejected_with_the_finding_code() {
    let out = bgpsdn()
        .args(["check", "--sizes", "20", "--n", "16"])
        .output()
        .expect("spawn");
    assert!(
        !out.status.success(),
        "a 20-member cluster on 16 ASes must fail the check"
    );
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        text.contains("grid.cluster_size"),
        "finding code missing from output:\n{text}"
    );
}

#[test]
fn grid_flags_are_read_or_rejected_never_dropped() {
    // `check` builds its grid like `sweep` does: a bad --chaos-classes is
    // an error (it used to be dropped, and the classes forced to `all`).
    let out = bgpsdn()
        .args(["check", "--sizes", "4", "--n", "8", "--chaos", "2"])
        .args(["--chaos-classes", "bogus"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--chaos-classes must be"), "{err}");

    // `explicit` names lists no grid carries: it is not a placement, so
    // the grid is rejected before any analysis (and `sweep` before any
    // job runs).
    let out = bgpsdn()
        .args([
            "check",
            "--sizes",
            "4",
            "--n",
            "8",
            "--strategy",
            "explicit",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--strategy"), "{err}");
    for name in ["tail", "random", "degree", "kcore", "tier"] {
        assert!(err.contains(name), "{name} missing: {err}");
    }

    // Unknown flags and flags the preset fixes are usage errors.
    for (args, needle) in [
        (["check", "--fig2", "--bogus", "7"], "does not read --bogus"),
        (["check", "--fig2", "--n", "6"], "--fig2 fixes --n"),
    ] {
        let out = bgpsdn().args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{args:?}: {err}");
    }
}

/// The name and `clusters` lists of every `check --json` target whose
/// name holds `needle`.
fn placements(args: &[&str], needle: &str) -> Vec<(String, Vec<Vec<usize>>)> {
    let out = bgpsdn().args(args).output().expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("check --json");
    let list = |v: &Json| -> Vec<usize> {
        let items = v.as_arr().expect("a member list");
        items
            .iter()
            .map(|i| i.as_u64().expect("an AS") as usize)
            .collect()
    };
    doc.get("targets")
        .and_then(Json::as_arr)
        .expect("targets")
        .iter()
        .filter_map(|t| {
            let name = t.get("name").and_then(Json::as_str).unwrap();
            name.contains(needle).then(|| {
                let clusters = t.get("clusters").and_then(Json::as_arr);
                let clusters = clusters
                    .expect("a cell target names its placement")
                    .iter()
                    .map(list)
                    .collect();
                (name.to_string(), clusters)
            })
        })
        .collect()
}

#[test]
fn split_cells_are_checked_in_the_placements_their_jobs_run() {
    let graph = AsGraph::all_peer(&gen::clique(8), 65000);
    for (strategy, clusters, cells) in [
        (Placement::Random, 2, 3),
        (Placement::Degree, 2, 1),
        (Placement::Random, 1, 3),
        (Placement::Degree, 1, 1),
    ] {
        let count = clusters.to_string();
        let args = ["check", "--sizes", "4", "--n", "8", "--clusters", &count];
        let args = [
            &args[..],
            &["--strategy", strategy.name(), "--seeds", "3", "--json"],
        ]
        .concat();
        let cell = if clusters == 1 {
            "clique8:sdn4".to_string()
        } else {
            format!("clique8:sdn4x{clusters}-{}", strategy.name())
        };
        let checked = placements(&args, &cell);
        // The CLI's grid, as `sweep` would run it.
        let grid = CampaignGrid {
            name: "sweep".to_string(),
            n: 8,
            cluster_sizes: vec![4],
            clusters: vec![clusters],
            strategy,
            seeds: 3,
            ..CampaignGrid::fig2(3)
        };
        let deployment = DeploymentStrategy::Placed {
            placement: strategy,
            clusters,
            total: 4,
        };
        let run: BTreeSet<Vec<Vec<usize>>> = grid
            .expand()
            .iter()
            .map(|job| {
                deployment
                    .assign(&graph, job.seed)
                    .expect("a feasible placement")
            })
            .collect();
        let label = format!("{strategy:?} x{clusters}");
        assert_eq!(checked.len(), cells, "{label}: {checked:?}");
        // One target per placement, numbered when the cell has several.
        let names: Vec<String> = checked.iter().map(|(name, _)| name.clone()).collect();
        let want: Vec<String> = if cells == 1 {
            vec![cell]
        } else {
            (0..cells).map(|i| format!("{cell}#{i}")).collect()
        };
        assert_eq!(names, want, "{label}");
        let checked: BTreeSet<_> = checked.into_iter().map(|(_, c)| c).collect();
        assert_eq!(checked, run, "{label}");
    }
}
