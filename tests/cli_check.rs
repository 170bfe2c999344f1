//! End-to-end CLI test of `bgpsdn check`: the built-in pre-flight suite
//! must self-check clean, its `--json` output must be byte-deterministic
//! across runs, and a grid with an impossible cluster size must be
//! rejected with a nonzero exit naming the finding.

use std::process::Command;
use std::time::Instant;

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
