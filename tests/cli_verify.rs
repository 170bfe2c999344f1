//! End-to-end CLI test of `bgpsdn verify`: the snapshot line that
//! `bgpsdn run --trace-out` writes verifies clean, the same artifact with
//! one member flow rule corrupted fails naming the violation, and a file
//! without a snapshot line is rejected.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bgpsdn() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bgpsdn"))
}

fn artifact_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bgpsdn-verify-{}-{name}.jsonl", std::process::id()));
    p
}

fn verify(path: &PathBuf) -> Output {
    bgpsdn()
        .args(["verify", "--snapshot"])
        .arg(path)
        .output()
        .expect("spawn bgpsdn verify")
}

/// `text` with the first member switch's first flow rule punting to the
/// controller instead of doing what the controller installed.
fn corrupt_first_member_rule(text: &str) -> String {
    let member = text.find("\"kind\":\"member\"").expect("a member switch");
    let key = "\"action\":\"";
    let start = member + text[member..].find(key).expect("a member rule") + key.len();
    let end = start + text[start..].find('"').expect("closing quote");
    assert_ne!(&text[start..end], "controller", "already a punt");
    format!("{}controller{}", &text[..start], &text[end..])
}

#[test]
fn verify_passes_a_run_artifact_and_fails_a_corrupted_rule() {
    let path = artifact_path("clean");
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

    let clean = verify(&path);
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(
        clean.status.success(),
        "clean artifact must verify: {stdout}{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    assert!(stdout.contains("0 violations"), "{stdout}");

    let text = std::fs::read_to_string(&path).expect("artifact written");
    let bad_path = artifact_path("corrupted");
    std::fs::write(&bad_path, corrupt_first_member_rule(&text)).expect("write corrupted copy");
    let bad = verify(&bad_path);
    let stdout = String::from_utf8_lossy(&bad.stdout);
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert_eq!(bad.status.code(), Some(1), "{stdout}{stderr}");
    assert!(stderr.contains("invariant violation"), "{stderr}");
    assert!(
        stdout.contains("intent_drift") && stdout.contains("controller"),
        "the report names the drifted rule: {stdout}"
    );

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&bad_path);
}

#[test]
fn verify_rejects_a_file_without_a_snapshot_line() {
    let path = artifact_path("no-snapshot");
    std::fs::write(
        &path,
        "{\"type\":\"run\"}\n{\"type\":\"event\",\"t\":0,\"kind\":\"phase\",\"name\":\"bring-up\",\"started\":true}\n",
    )
    .expect("write artifact");
    let out = verify(&path);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("no snapshot line"), "{stderr}");
}
