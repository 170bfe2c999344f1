//! End-to-end CLI test: `bgpsdn sweep` runs a small campaign on the worker
//! pool, writes a merged campaign artifact, and `bgpsdn report` renders the
//! per-grid-cell table from it.

use std::path::PathBuf;
use std::process::Command;

use bgp_sdn_emu::prelude::*;

fn bgpsdn() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bgpsdn"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bgpsdn-sweep-{}-{name}", std::process::id()));
    p
}

#[test]
fn sweep_then_report() {
    let out = tmp("campaign.jsonl");
    let art_dir = tmp("jobs");
    let sweep = bgpsdn()
        .args([
            "sweep",
            "--sizes",
            "0,3",
            "--n",
            "6",
            "--mrai",
            "2",
            "--seeds",
            "2",
            "--workers",
            "2",
        ])
        .arg("--out")
        .arg(&out)
        .arg("--artifacts")
        .arg(&art_dir)
        .output()
        .expect("spawn bgpsdn sweep");
    assert!(
        sweep.status.success(),
        "sweep failed: {}\n{}",
        String::from_utf8_lossy(&sweep.stderr),
        String::from_utf8_lossy(&sweep.stdout)
    );
    let stdout = String::from_utf8_lossy(&sweep.stdout);
    assert!(stdout.contains("2 cells x 2 seeds = 4 jobs"), "{stdout}");
    assert!(stdout.contains("grid cells"), "{stdout}");
    assert!(stdout.contains("0 failed"), "{stdout}");

    // The merged artifact parses as a campaign document: header, one job
    // line per run, one aggregated cell line per grid cell.
    let text = std::fs::read_to_string(&out).expect("artifact written");
    let campaign = Artifact::parse(&text).expect("campaign parses");
    assert_eq!(campaign.kind, Some(ArtifactKind::Campaign));
    assert_eq!(campaign.jobs.len(), 4);
    assert_eq!(campaign.cells.len(), 2);
    assert!(campaign.jobs.iter().all(|j| j.converged && j.audit_ok));

    // Per-job isolated artifacts landed in --artifacts, one per run, and
    // each parses as a plain run artifact.
    let mut per_job: Vec<_> = std::fs::read_dir(&art_dir)
        .expect("artifacts dir")
        .map(|e| e.unwrap().path())
        .collect();
    per_job.sort();
    assert_eq!(per_job.len(), 4);
    let job_text = std::fs::read_to_string(&per_job[0]).unwrap();
    let job = Artifact::parse(&job_text).expect("job artifact parses");
    assert_eq!(job.kind, Some(ArtifactKind::Run), "job artifact is a run");

    // `bgpsdn report` routes campaign artifacts to the grid-cell table.
    let report = bgpsdn().arg("report").arg(&out).output().expect("report");
    assert!(
        report.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&report.stderr)
    );
    let rep = String::from_utf8_lossy(&report.stdout);
    assert!(rep.contains("campaign:"), "{rep}");
    assert!(rep.contains("grid cells (4 jobs)"), "{rep}");
    assert!(rep.contains("== health:"), "{rep}");

    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_dir_all(&art_dir);
}

#[test]
fn sweep_fails_on_an_unwritable_out_before_any_job() {
    let sweep = bgpsdn()
        .args([
            "sweep",
            "--sizes",
            "0",
            "--n",
            "4",
            "--mrai",
            "1",
            "--seeds",
            "1",
            "--workers",
            "1",
            "--out",
            "/nonexistent/x.jsonl",
        ])
        .output()
        .expect("spawn bgpsdn sweep");
    let stdout = String::from_utf8_lossy(&sweep.stdout);
    let stderr = String::from_utf8_lossy(&sweep.stderr);
    assert_eq!(sweep.status.code(), Some(1), "{stdout}{stderr}");
    assert!(stderr.contains("/nonexistent/x.jsonl"), "{stderr}");
    assert!(!stdout.contains("] job"), "no job may run: {stdout}");
    assert!(!stdout.contains("converged:"), "{stdout}");
}

#[test]
fn sweep_prints_the_worker_count_its_artifact_records() {
    // One job on four requested workers: the pool runs one.
    let out = tmp("one-job.jsonl");
    let sweep = bgpsdn()
        .args([
            "sweep",
            "--sizes",
            "2",
            "--n",
            "6",
            "--mrai",
            "1",
            "--seeds",
            "1",
            "--workers",
            "4",
        ])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawn bgpsdn sweep");
    let stdout = String::from_utf8_lossy(&sweep.stdout);
    assert!(sweep.status.success(), "{stdout}");
    let text = std::fs::read_to_string(&out).expect("artifact written");
    let _ = std::fs::remove_file(&out);
    let header = Artifact::parse(&text).expect("campaign parses").header;
    let workers = header
        .as_ref()
        .and_then(|h| h.get("workers"))
        .and_then(Json::as_u64)
        .expect("header records workers");
    assert_eq!(workers, 1);
    assert!(
        stdout.contains(&format!("= 1 jobs on {workers} workers")),
        "{stdout}"
    );
}

/// One hand-written `job` line of a campaign artifact.
fn job_line(id: u64, cell: u64, conv_ns: u64) -> String {
    format!(
        "{{\"type\":\"job\",\"id\":{id},\"cell\":{cell},\"cluster\":{cell},\"loss_ppm\":0,\
         \"ctl_latency_ns\":1000000,\"seed\":{id},\"converged\":true,\"convergence_ns\":{conv_ns},\
         \"updates\":10,\"flow_mods\":0,\"audit_ok\":true,\"verify_violations\":0}}\n"
    )
}

fn report(name: &str, text: &str) -> std::process::Output {
    let path = tmp(name);
    std::fs::write(&path, text).expect("write artifact");
    let out = bgpsdn().arg("report").arg(&path).output().expect("report");
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn report_renders_job_lines_without_a_header_as_a_campaign() {
    let text = job_line(0, 0, 2_000_000_000) + &job_line(1, 0, 4_000_000_000);
    let out = report("headless.jsonl", &text);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("grid cells (2 jobs)"), "{stdout}");
    assert!(stdout.contains("3.00s"), "the cell's median: {stdout}");
}

#[test]
fn report_rejects_an_artifact_mixing_run_and_campaign_lines() {
    let text = "{\"type\":\"run\",\"n\":4}\n".to_string() + &job_line(0, 0, 1);
    let out = report("mixed.jsonl", &text);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("line 2: a \"job\" line in a run artifact"),
        "names the line: {stderr}"
    );
}

#[test]
fn sweep_rejects_bad_grids() {
    // No axis at all.
    let none = bgpsdn().arg("sweep").output().expect("spawn");
    assert!(!none.status.success());

    // Cluster size exceeding the clique, and zero seeds: the pre-flight
    // rejects both and names its finding.
    for (args, code) in [
        (&["--sizes", "9", "--n", "6"][..], "grid.cluster_size"),
        (
            &["--sizes", "2", "--n", "6", "--seeds", "0"][..],
            "grid.no_seeds",
        ),
    ] {
        let out = bgpsdn().arg("sweep").args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(code), "{args:?}: {stderr}");
    }

    // Grids only the pre-flight catches: a member budget that cannot fill
    // its clusters, and a fail-over on a clique too small to dual-home the
    // origin. Rejected up front, like `bgpsdn check` does — no job starts,
    // none panics, no artifact is written.
    for (name, grid) in [
        (
            "split",
            &["--sizes", "2", "--clusters", "3", "--n", "6"][..],
        ),
        (
            "failover",
            &["--sizes", "0,2", "--n", "4", "--event", "failover"][..],
        ),
    ] {
        let out = tmp(&format!("{name}.jsonl"));
        let _ = std::fs::remove_file(&out);
        let sweep = bgpsdn()
            .arg("sweep")
            .args(grid)
            .args(["--seeds", "1", "--out"])
            .arg(&out)
            .output()
            .expect("spawn");
        assert_eq!(sweep.status.code(), Some(1), "{name}");
        let stdout = String::from_utf8_lossy(&sweep.stdout);
        let stderr = String::from_utf8_lossy(&sweep.stderr);
        assert!(
            !stdout.contains("jobs on"),
            "{name}: a job started: {stdout}"
        );
        assert!(
            !stdout.contains("PANIC"),
            "{name}: a job panicked: {stdout}"
        );
        assert!(stderr.contains("pre-flight"), "{name}: {stderr}");
        assert!(!out.exists(), "{name}: an artifact was written");
    }

    // `explicit` is no placement: the flag is rejected before any job
    // starts, naming the five placements.
    let out = tmp("explicit.jsonl");
    let _ = std::fs::remove_file(&out);
    let sweep = bgpsdn()
        .arg("sweep")
        .args(["--sizes", "4", "--n", "8", "--strategy", "explicit"])
        .args(["--seeds", "1", "--mrai", "1", "--out"])
        .arg(&out)
        .output()
        .expect("spawn");
    assert_eq!(sweep.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&sweep.stdout);
    let stderr = String::from_utf8_lossy(&sweep.stderr);
    assert!(!stdout.contains("jobs on"), "a job started: {stdout}");
    assert!(stderr.contains("--strategy"), "{stderr}");
    for name in ["tail", "random", "degree", "kcore", "tier"] {
        assert!(stderr.contains(name), "{name} missing: {stderr}");
    }
    assert!(!out.exists(), "an artifact was written");
}

#[test]
fn an_unknown_event_is_named_as_typed() {
    // The message quotes the value itself, not an `Option`'s Debug text.
    for args in [
        &["run", "--event", "bogus"][..],
        &["sweep", "--sizes", "1", "--n", "4", "--event", "bogus"][..],
    ] {
        let out = bgpsdn().args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--event must be"), "{args:?}: {stderr}");
        assert!(stderr.contains("got \"bogus\""), "{args:?}: {stderr}");
        assert!(!stderr.contains("Some("), "{args:?}: {stderr}");
    }
}

#[test]
fn failover_data_chaos_grid_is_healthy() {
    // Its job 2 crashes AS2 and AS3 while the relay link 1–3 flaps; the
    // network used to end split in two over a wedged OpenSent session.
    let out = tmp("failover.jsonl");
    let sweep = bgpsdn()
        .args([
            "sweep",
            "--sizes",
            "0",
            "--event",
            "failover",
            "--n",
            "6",
            "--chaos",
            "3",
            "--chaos-classes",
            "data",
            "--seeds",
            "12",
            "--mrai",
            "1",
        ])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawn bgpsdn sweep");
    let _ = std::fs::remove_file(&out);
    let stdout = String::from_utf8_lossy(&sweep.stdout);
    assert!(sweep.status.success(), "{stdout}");
    assert!(stdout.contains(" 0 audit failures"), "{stdout}");
}

/// A usage error: exit 2, nothing on stdout, the reason on stderr.
fn usage_error(args: &[&str]) -> String {
    let out = bgpsdn().args(args).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
    assert!(out.stdout.is_empty(), "{args:?} ran before being rejected");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn sweep_rejects_flags_it_would_drop() {
    // The preset fixes the clique size and MRAI: this used to run the
    // 16-AS / 30 s grid and report 329 s convergences for a "6-AS" sweep.
    let err = usage_error(&["sweep", "--fig2", "--n", "6", "--mrai", "1", "--seeds", "1"]);
    assert!(err.contains("--fig2 fixes --n"), "{err}");
    assert!(err.contains("--sizes"), "must point at --sizes: {err}");

    // A flag no subcommand knows.
    let err = usage_error(&["sweep", "--fig2", "--bogus", "7"]);
    assert!(err.contains("does not read --bogus"), "{err}");
}

#[test]
fn fig2_subcommand_is_gone() {
    // `sweep --fig2` is Figure 2; the serial twin prints the usage text.
    let err = usage_error(&["fig2", "--runs", "3"]);
    assert!(err.starts_with("usage:"), "{err}");
    assert!(err.contains("bgpsdn sweep --fig2"), "{err}");
}
