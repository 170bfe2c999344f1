//! End-to-end CLI test of `bgpsdn verify`: the snapshot line that
//! `bgpsdn run --trace-out` writes verifies clean, the same artifact with
//! one member flow rule corrupted fails naming the violation, and a file
//! without a snapshot line, with a truncated one, or with a vertex index
//! that names no node is rejected with an error, never a panic.

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

/// A traced 8-AS run's artifact text.
fn traced_run(name: &str) -> String {
    let path = artifact_path(name);
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
        ])
        .arg("--trace-out")
        .arg(&path)
        .output()
        .expect("spawn bgpsdn run");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("artifact written");
    let _ = std::fs::remove_file(&path);
    text
}

/// `bgpsdn verify` over `text` with its snapshot line replaced by
/// `edit(line)`: the exit code and stderr.
fn verify_edited(name: &str, text: &str, edit: impl Fn(&str) -> String) -> (Option<i32>, String) {
    let edited: Vec<String> = text
        .lines()
        .map(|l| {
            if l.starts_with("{\"type\":\"snapshot\"") {
                edit(l)
            } else {
                l.to_string()
            }
        })
        .collect();
    let path = artifact_path(name);
    std::fs::write(&path, edited.join("\n") + "\n").expect("write edited artifact");
    let out = verify(&path);
    let _ = std::fs::remove_file(&path);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `line` with the number after the first `key` at or after `from`
/// replaced by `value`.
fn set_number(line: &str, from: &str, key: &str, value: u64) -> String {
    let at = line.find(from).expect("anchor present");
    let start = at + line[at..].find(key).expect("key present") + key.len();
    let end = start
        + line[start..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("number ends");
    format!("{}{value}{}", &line[..start], &line[end..])
}

#[test]
fn verify_rejects_out_of_range_vertex_indices() {
    let text = traced_run("indices");
    let (code, stderr) = verify_edited("route-next", &text, |l| {
        set_number(l, "\"routes\":", "\"next\":", 999)
    });
    assert_eq!(code, Some(1), "an error, not a panic: {stderr}");
    assert!(stderr.contains("\"next\" 999"), "names the field: {stderr}");

    let (code, stderr) = verify_edited("session-peer", &text, |l| {
        set_number(l, "\"sessions\":", "\"peer\":", 77)
    });
    assert_eq!(code, Some(1), "an error, not a panic: {stderr}");
    assert!(
        stderr.contains("session \"peer\" 77"),
        "names the field: {stderr}"
    );
}

#[test]
fn verify_names_the_line_of_a_truncated_snapshot() {
    let text = traced_run("truncated");
    let line = 1 + text
        .lines()
        .position(|l| l.starts_with("{\"type\":\"snapshot\""))
        .expect("a snapshot line");
    let (code, stderr) = verify_edited("truncated", &text, |l| {
        assert!(l.len() > 3000, "the snapshot line is longer than the cut");
        l[..3000].to_string()
    });
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("line {line}:")),
        "names the line: {stderr}"
    );
    assert!(
        stderr.contains("json error at byte"),
        "gives the parse error: {stderr}"
    );
}

#[test]
fn verify_names_a_campaign_artifact_and_points_at_job_artifacts() {
    let path = artifact_path("campaign");
    std::fs::write(
        &path,
        "{\"type\":\"campaign\",\"name\":\"x\"}\n\
         {\"type\":\"job\",\"id\":0,\"cell\":0,\"cluster\":0,\"loss_ppm\":0,\
         \"ctl_latency_ns\":1000000,\"seed\":1,\"converged\":true,\"convergence_ns\":1,\
         \"updates\":1,\"flow_mods\":0,\"audit_ok\":true,\"verify_violations\":0}\n",
    )
    .expect("write artifact");
    let out = verify(&path);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("is a campaign artifact"), "{stderr}");
    assert!(stderr.contains("sweep --artifacts DIR"), "{stderr}");
}
