//! Host-side measurement: the stamp every output carries, CPU time and
//! peak resident memory of this process.
//!
//! ROADMAP: "no metric is trusted without the host it ran on." Everything
//! here is **host** time or host state; nothing is simulated.

use std::process::Command;

use bgpsdn_obs::Json;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// architecture the kernel supports.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used so far, all threads
/// (exited campaign workers included). Resolution is one tick (10 ms).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    (utime + stime) / USER_HZ
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads a parallel campaign may use on this host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string())
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The checked-out commit, read from `.git` without spawning git. The
/// benchmark also runs from plain source trees, where this is `unknown`.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| head.clone(), |s| s.trim().to_string()),
        None => head,
    }
}

fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// `release` or `debug`, decided by whether debug assertions are compiled
/// in. The benchmark refuses to report from a debug build.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The stamp printed on every output:
/// `{nproc, cpu_model, rustc, commit, profile, loadavg_1m, seed}`.
pub fn stamp(seed: u64) -> Json {
    Json::Obj(vec![
        ("nproc".into(), Json::U64(nproc() as u64)),
        ("cpu_model".into(), Json::Str(cpu_model())),
        ("rustc".into(), Json::Str(rustc_version())),
        ("commit".into(), Json::Str(commit())),
        ("profile".into(), Json::Str(profile().into())),
        ("loadavg_1m".into(), Json::F64(loadavg_1m())),
        ("seed".into(), Json::U64(seed)),
    ])
}
