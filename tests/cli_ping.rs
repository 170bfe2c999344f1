//! End-to-end CLI test of `bgpsdn ping`: the default run prints a probe
//! timeline, and a failure or heal tick the 80-probe stream never reaches,
//! a heal before the failure, or a clique too small to hold both probe
//! ends, is rejected with exit 1 naming the flag.

use std::process::Command;

fn ping(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bgpsdn"))
        .arg("ping")
        .args(args)
        .output()
        .expect("spawn")
}

#[test]
fn default_run_prints_one_mark_per_probe() {
    let out = ping(&[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let timeline = text
        .lines()
        .find_map(|l| l.strip_prefix("timeline: "))
        .expect("a timeline line");
    assert_eq!(timeline.len(), 80, "one mark per probe");
    assert!(text.contains("sent 80"), "{text}");
}

#[test]
fn ticks_outside_the_stream_or_out_of_order_are_rejected() {
    for (args, flag) in [
        (&["--fail-at", "90"][..], "--fail-at"),
        (&["--heal-at", "80"][..], "--heal-at"),
        (&["--heal-at", "20", "--fail-at", "50"][..], "--fail-at"),
    ] {
        let out = ping(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing is run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{args:?}: {err}");
    }
}

#[test]
fn a_clique_too_small_for_both_probe_ends_is_rejected() {
    // The probe runs from AS 1 to the member AS n-1, which is AS 1 itself
    // when n is 2.
    let out = ping(&["--n", "2", "--sdn", "1"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "nothing is run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--n"), "{err}");
}
