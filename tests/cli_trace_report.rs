//! End-to-end CLI test: `bgpsdn run --trace-out` must produce a JSONL
//! artifact that `bgpsdn report` parses and analyzes — per-node update
//! counts, recompute latency, and a convergence timeline, all from typed
//! events — and that `bgpsdn explain` turns into causal forensics whose
//! critical path accounts for the run's own convergence time.

use std::path::PathBuf;
use std::process::Command;

use bgp_sdn_emu::prelude::*;

fn bgpsdn() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bgpsdn"))
}

fn artifact_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bgpsdn-test-{}-{name}.jsonl", std::process::id()));
    p
}

#[test]
fn run_trace_out_then_report() {
    let path = artifact_path("withdrawal");
    let run = bgpsdn()
        .args([
            "run",
            "--event",
            "withdrawal",
            "--sdn",
            "4",
            "--n",
            "8",
            "--mrai",
            "5",
            "--trace-out",
        ])
        .arg(&path)
        .output()
        .expect("spawn bgpsdn run");
    assert!(
        run.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let run_stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run_stdout.contains("trace artifact:"), "{run_stdout}");

    // The artifact parses with the library API and carries typed events.
    let text = std::fs::read_to_string(&path).expect("artifact written");
    let artifact = Artifact::parse(&text).expect("artifact parses");
    assert!(artifact.header.is_some(), "run header line present");
    assert!(!artifact.events.is_empty(), "typed events present");
    assert_eq!(
        artifact.metrics.len(),
        2,
        "bring-up + withdrawal metric snapshots"
    );
    // Phase markers bracket the event phase.
    assert!(artifact.events.iter().any(|r| matches!(
        &r.event,
        TraceEvent::Phase { name, started: true } if name == "withdrawal"
    )));

    // `bgpsdn report` renders the analysis without string-parsing anything.
    let report = bgpsdn()
        .arg("report")
        .arg(&path)
        .output()
        .expect("spawn report");
    assert!(
        report.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&report.stderr)
    );
    let out = String::from_utf8_lossy(&report.stdout);
    assert!(out.contains("per-node BGP update counts"), "{out}");
    assert!(out.contains("controller recompute latency"), "{out}");
    assert!(out.contains("convergence timeline"), "{out}");
    assert!(out.contains("phase withdrawal"), "{out}");
    assert!(out.contains("converged in"), "{out}");
    assert!(out.contains("metrics [withdrawal]"), "{out}");

    // `bgpsdn explain` reconstructs the trigger lineage from the same
    // artifact: one withdrawal trigger whose critical path telescopes to
    // the settlement time, decomposed into the phase taxonomy.
    let explain = bgpsdn()
        .arg("explain")
        .arg(&path)
        .output()
        .expect("spawn explain");
    assert!(
        explain.status.success(),
        "explain failed: {}",
        String::from_utf8_lossy(&explain.stderr)
    );
    let out = String::from_utf8_lossy(&explain.stdout);
    assert!(out.contains("== trigger #"), "{out}");
    assert!(out.contains("phase breakdown"), "{out}");
    assert!(out.contains("critical paths"), "{out}");
    assert!(out.contains("hunt_step"), "{out}");

    // --json emits one machine-readable document with the same content,
    // and it is byte-identical across invocations (deterministic).
    let json1 = bgpsdn()
        .arg("explain")
        .arg(&path)
        .arg("--json")
        .output()
        .expect("spawn explain --json");
    assert!(json1.status.success());
    let doc =
        Json::parse(String::from_utf8_lossy(&json1.stdout).trim()).expect("explain --json parses");
    let triggers = doc.get("triggers").and_then(Json::as_arr).unwrap();
    assert_eq!(triggers.len(), 1, "one withdrawal trigger");
    let settled = triggers[0]
        .get("convergence_ns")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(settled > 0);
    let json2 = bgpsdn()
        .arg("explain")
        .arg(&path)
        .arg("--json")
        .output()
        .expect("spawn explain --json again");
    assert_eq!(json1.stdout, json2.stdout, "explain must be deterministic");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn report_degrades_gracefully_on_truncated_tail() {
    // A run artifact whose final line was cut mid-write (crash, full
    // disk) must still report — with a warning — instead of failing.
    let path = artifact_path("truncated");
    let full = bgpsdn()
        .args([
            "run",
            "--event",
            "withdrawal",
            "--sdn",
            "2",
            "--n",
            "6",
            "--mrai",
            "2",
            "--trace-out",
        ])
        .arg(&path)
        .output()
        .expect("spawn bgpsdn run");
    assert!(full.status.success());
    let text = std::fs::read_to_string(&path).unwrap();
    let cut = &text[..text.trim_end().len() - 10];
    std::fs::write(&path, cut).unwrap();

    let report = bgpsdn()
        .arg("report")
        .arg(&path)
        .output()
        .expect("spawn report");
    assert!(
        report.status.success(),
        "truncated tail must degrade gracefully: {}",
        String::from_utf8_lossy(&report.stderr)
    );
    let err = String::from_utf8_lossy(&report.stderr);
    assert!(err.contains("warning:"), "{err}");
    assert!(err.contains("final line"), "{err}");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn report_warns_on_traceless_artifact() {
    // A bare run header with no trace events (tracing was off) renders a
    // warning, not a panic or a garbled table.
    let path = artifact_path("traceless");
    std::fs::write(&path, "{\"type\":\"run\",\"n\":4}\n").unwrap();
    let report = bgpsdn()
        .arg("report")
        .arg(&path)
        .output()
        .expect("spawn report");
    assert!(
        report.status.success(),
        "traceless artifact must still report: {}",
        String::from_utf8_lossy(&report.stderr)
    );
    let err = String::from_utf8_lossy(&report.stderr);
    assert!(err.contains("no trace events"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn explain_rejects_campaign_artifacts_with_pointer() {
    let path = artifact_path("campaign-explain");
    std::fs::write(&path, "{\"type\":\"campaign\",\"name\":\"x\"}\n").unwrap();
    let explain = bgpsdn()
        .arg("explain")
        .arg(&path)
        .output()
        .expect("spawn explain");
    assert!(!explain.status.success(), "campaign artifacts are not runs");
    let err = String::from_utf8_lossy(&explain.stderr);
    assert!(err.contains("bgpsdn report"), "points at report: {err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn report_rejects_malformed_artifacts() {
    let path = artifact_path("garbage");
    std::fs::write(&path, "this is not json\n").unwrap();
    let report = bgpsdn()
        .arg("report")
        .arg(&path)
        .output()
        .expect("spawn report");
    assert!(!report.status.success(), "malformed artifact must fail");
    let _ = std::fs::remove_file(&path);

    let missing = bgpsdn()
        .args(["report", "/nonexistent/nowhere.jsonl"])
        .output()
        .expect("spawn report");
    assert!(!missing.status.success(), "missing file must fail");
}

#[test]
fn run_fails_on_an_unwritable_trace_out_before_simulating() {
    let run = bgpsdn()
        .args([
            "run",
            "--event",
            "withdrawal",
            "--sdn",
            "2",
            "--n",
            "4",
            "--mrai",
            "1",
            "--trace-out",
            "/nonexistent/r.jsonl",
        ])
        .output()
        .expect("spawn bgpsdn run");
    let stdout = String::from_utf8_lossy(&run.stdout);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stdout}{stderr}");
    assert!(stderr.contains("/nonexistent/r.jsonl"), "{stderr}");
    assert!(!stdout.contains("converged:"), "{stdout}");
    assert!(stdout.is_empty(), "nothing may run: {stdout}");
}

#[test]
fn run_rejects_more_members_than_ases() {
    let run = bgpsdn()
        .args(["run", "--event", "withdrawal", "--sdn", "99", "--n", "8"])
        .output()
        .expect("spawn bgpsdn run");
    assert_eq!(
        run.status.code(),
        Some(1),
        "a runtime error, not a pure-BGP run"
    );
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("error: --sdn must be <= --n"), "{err}");
    assert!(run.stdout.is_empty(), "rejected before anything is printed");
}

#[test]
fn run_rejects_a_job_the_preflight_rejects() {
    // A fail-over needs five ASes to dual-home its origin.
    let run = bgpsdn()
        .args(["run", "--event", "failover", "--n", "4"])
        .output()
        .expect("spawn bgpsdn run");
    assert_eq!(run.status.code(), Some(1), "a runtime error, not a panic");
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("grid.event_requires"), "{err}");
    assert!(run.stdout.is_empty(), "rejected before anything is printed");
}

#[test]
fn run_requires_an_event() {
    let run = bgpsdn()
        .args(["run", "--sdn", "2"])
        .output()
        .expect("spawn bgpsdn run");
    assert_eq!(run.status.code(), Some(1));
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("--event is required"), "{err}");
}

#[test]
fn run_rejects_a_mistyped_flag() {
    // `--sed 9` (for `--seed 9`) used to be dropped and seed 1 run instead.
    let run = bgpsdn()
        .args(["run", "--event", "withdrawal", "--sdn", "2", "--sed", "9"])
        .output()
        .expect("spawn bgpsdn run");
    assert_eq!(run.status.code(), Some(2), "a usage error");
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("does not read --sed"), "{err}");
    assert!(run.stdout.is_empty(), "rejected before anything is printed");
}

#[test]
fn report_prints_the_convergence_run_printed() {
    // Pure BGP converges in seconds, a 5-of-6 cluster in milliseconds.
    for sdn in ["0", "5"] {
        let path = artifact_path(&format!("same-instant-{sdn}"));
        let run = bgpsdn()
            .args(["run", "--event", "withdrawal", "--sdn", sdn, "--n", "6"])
            .args(["--mrai", "5", "--trace-out"])
            .arg(&path)
            .output()
            .expect("spawn bgpsdn run");
        let run_out = String::from_utf8_lossy(&run.stdout);
        assert!(run.status.success(), "{run_out}");
        let field = |label: &str| {
            let line = run_out.lines().find(|l| l.starts_with(label));
            line.and_then(|l| l.split_whitespace().last())
                .unwrap_or_else(|| panic!("no {label:?} in {run_out}"))
                .to_string()
        };
        let (measured, collector) = (field("convergence time:"), field("collector view:"));

        let report = bgpsdn()
            .arg("report")
            .arg(&path)
            .output()
            .expect("spawn report");
        assert!(report.status.success());
        let out = String::from_utf8_lossy(&report.stdout);
        let phase = out
            .lines()
            .find(|l| l.trim_start().starts_with("phase withdrawal"))
            .unwrap_or_else(|| panic!("no withdrawal phase in {out}"));
        let want = format!("converged in {measured} (collector view {collector}, lag ");
        assert!(
            phase.contains(&want),
            "run printed {measured} / {collector}: {phase}"
        );
        let _ = std::fs::remove_file(&path);
    }
}
