//! Campaign artifacts: merging per-run results into one JSONL document and
//! aggregating per-grid-cell statistics.
//!
//! A *campaign* is a parameter sweep of independent emulation runs — the
//! shape of the paper's Figure 2 (withdrawal convergence vs. SDN cluster
//! size, many seeds per point). The campaign engine lives in
//! `bgpsdn-core::framework::campaign`; this module owns the artifact format
//! and the statistics, so `bgpsdn report` can render a campaign without
//! depending on the framework.
//!
//! A merged campaign artifact is line-oriented JSONL:
//!
//! * `{"type":"campaign", ...}` — free-form campaign header (grid
//!   parameters, worker count, wall time);
//! * `{"type":"job", ...}` — one [`JobRecord`] per executed run, in job
//!   order;
//! * `{"type":"cell", ...}` — one [`CellStats`] per grid cell, aggregated
//!   over that cell's seeds (min/median/p90/max for convergence time,
//!   update count and flow-mod count).
//!
//! Cell lines are derivable from the job lines; they are materialized so
//! plotting scripts can consume the artifact without re-implementing the
//! quantile conventions. [`Artifact`] checks them and recomputes the cells
//! from the jobs, which is exactly what [`Artifact::render`] wrote.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::artifact::{typed_line, write_typed_line, Artifact};
use crate::causal::PhaseBreakdown;
use crate::event::CausalPhase;
use crate::json::Json;
use crate::stats::Summary;

/// Summary of one campaign job (a single emulation run).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job index in deterministic grid-expansion order.
    pub id: u64,
    /// Index of the grid cell this job belongs to.
    pub cell: u64,
    /// Swept parameter: SDN cluster size.
    pub cluster: u64,
    /// Swept parameter: how many independent clusters the members are
    /// split into (1 = the classic single-cluster deployment; such records
    /// omit the field on the wire for backward byte-compatibility).
    pub clusters: u64,
    /// Deployment strategy that placed the clusters (`"tail"` = the classic
    /// high-index layout; omitted on the wire when default).
    pub strategy: String,
    /// Swept parameter: control-channel loss, in parts per million.
    pub loss_ppm: u64,
    /// Swept parameter: control-channel latency, in nanoseconds.
    pub ctl_latency_ns: u64,
    /// The job's derived RNG seed.
    pub seed: u64,
    /// Whether the run converged within its deadline.
    pub converged: bool,
    /// Event convergence time, sim nanoseconds.
    pub convergence_ns: u64,
    /// BGP updates sent during re-convergence.
    pub updates: u64,
    /// Flow-table changes during re-convergence.
    pub flow_mods: u64,
    /// Whether the post-event audit passed.
    pub audit_ok: bool,
    /// Static-verifier violations recorded during the run.
    pub verify_violations: u64,
    /// Causal phase decomposition of the run's re-convergence (each
    /// trigger's longest critical path, summed). Empty when causal tracing
    /// was off or the artifact predates it.
    pub phases: PhaseBreakdown,
    /// Panic message when the job died instead of completing.
    pub error: Option<String>,
}

impl JobRecord {
    /// Serialize as one artifact line.
    pub fn to_line(&self) -> String {
        let mut m: Vec<(String, Json)> = vec![
            ("id".into(), Json::U64(self.id)),
            ("cell".into(), Json::U64(self.cell)),
            ("cluster".into(), Json::U64(self.cluster)),
            ("loss_ppm".into(), Json::U64(self.loss_ppm)),
            ("ctl_latency_ns".into(), Json::U64(self.ctl_latency_ns)),
            ("seed".into(), Json::U64(self.seed)),
            ("converged".into(), Json::Bool(self.converged)),
            ("convergence_ns".into(), Json::U64(self.convergence_ns)),
            ("updates".into(), Json::U64(self.updates)),
            ("flow_mods".into(), Json::U64(self.flow_mods)),
            ("audit_ok".into(), Json::Bool(self.audit_ok)),
            (
                "verify_violations".into(),
                Json::U64(self.verify_violations),
            ),
        ];
        if self.clusters != 1 || self.strategy != "tail" {
            m.insert(3, ("clusters".into(), Json::U64(self.clusters)));
            m.insert(4, ("strategy".into(), Json::Str(self.strategy.clone())));
        }
        if self.phases.total() > 0 {
            m.push(("phases".into(), self.phases.to_json()));
        }
        if let Some(e) = &self.error {
            m.push(("error".into(), Json::Str(e.clone())));
        }
        typed_line("job", &Json::Obj(m))
    }

    /// Parse from one artifact line (an object with `"type":"job"`).
    pub(crate) fn from_json(v: &Json) -> Result<JobRecord, String> {
        let u = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("bad {k:?}"));
        let b = |k: &str| v.get(k).and_then(Json::as_bool).ok_or(format!("bad {k:?}"));
        Ok(JobRecord {
            id: u("id")?,
            cell: u("cell")?,
            cluster: u("cluster")?,
            clusters: v.get("clusters").and_then(Json::as_u64).unwrap_or(1),
            strategy: v
                .get("strategy")
                .and_then(Json::as_str)
                .unwrap_or("tail")
                .to_string(),
            loss_ppm: u("loss_ppm")?,
            ctl_latency_ns: u("ctl_latency_ns")?,
            seed: u("seed")?,
            converged: b("converged")?,
            convergence_ns: u("convergence_ns")?,
            updates: u("updates")?,
            flow_mods: u("flow_mods")?,
            audit_ok: b("audit_ok")?,
            verify_violations: u("verify_violations")?,
            phases: match v.get("phases") {
                Some(p) => PhaseBreakdown::from_json(p)?,
                None => PhaseBreakdown::default(),
            },
            error: v.get("error").and_then(Json::as_str).map(|s| s.to_string()),
        })
    }
}

/// A cell statistic's wire form: the order statistics a cell line carries.
fn summary_json(s: &Summary) -> Json {
    Json::Obj(vec![
        ("n".into(), Json::U64(s.n as u64)),
        ("min".into(), Json::F64(s.min)),
        ("median".into(), Json::F64(s.median)),
        ("p90".into(), Json::F64(s.p90)),
        ("max".into(), Json::F64(s.max)),
        ("mean".into(), Json::F64(s.mean)),
    ])
}

/// Aggregated statistics of one grid cell (all seeds of one parameter
/// combination).
#[derive(Debug, Clone, PartialEq)]
pub struct CellStats {
    /// The cell index jobs referenced.
    pub cell: u64,
    /// SDN cluster size of the cell.
    pub cluster: u64,
    /// Independent cluster count of the cell (1 = single-cluster default,
    /// omitted on the wire).
    pub clusters: u64,
    /// Deployment strategy of the cell (`"tail"` default, omitted on the
    /// wire).
    pub strategy: String,
    /// Control-channel loss of the cell, parts per million.
    pub loss_ppm: u64,
    /// Control-channel latency of the cell, nanoseconds.
    pub ctl_latency_ns: u64,
    /// Jobs that completed (panicked jobs are excluded from the stats).
    pub runs: u64,
    /// Jobs that panicked or errored.
    pub failed: u64,
    /// Completed jobs that missed their convergence deadline.
    pub unconverged: u64,
    /// Completed jobs whose post-event audit failed.
    pub audit_failures: u64,
    /// Static-verifier violations summed over the cell's jobs.
    pub verify_violations: u64,
    /// Convergence time in seconds.
    pub convergence_s: Option<Summary>,
    /// BGP updates sent.
    pub updates: Option<Summary>,
    /// Flow-table changes.
    pub flow_mods: Option<Summary>,
    /// Causal phase durations summed over the cell's completed jobs
    /// (divide by `runs` for a per-job mean). Empty without causal tracing.
    pub phases: PhaseBreakdown,
}

impl CellStats {
    /// Serialize as one artifact line.
    pub fn to_line(&self) -> String {
        let mut m: Vec<(String, Json)> = vec![
            ("cell".into(), Json::U64(self.cell)),
            ("cluster".into(), Json::U64(self.cluster)),
            ("loss_ppm".into(), Json::U64(self.loss_ppm)),
            ("ctl_latency_ns".into(), Json::U64(self.ctl_latency_ns)),
            ("runs".into(), Json::U64(self.runs)),
            ("failed".into(), Json::U64(self.failed)),
            ("unconverged".into(), Json::U64(self.unconverged)),
            ("audit_failures".into(), Json::U64(self.audit_failures)),
            (
                "verify_violations".into(),
                Json::U64(self.verify_violations),
            ),
        ];
        if self.clusters != 1 || self.strategy != "tail" {
            m.insert(2, ("clusters".into(), Json::U64(self.clusters)));
            m.insert(3, ("strategy".into(), Json::Str(self.strategy.clone())));
        }
        for (key, stats) in [
            ("convergence_s", &self.convergence_s),
            ("updates", &self.updates),
            ("flow_mods", &self.flow_mods),
        ] {
            if let Some(s) = stats {
                m.push((key.into(), summary_json(s)));
            }
        }
        if self.phases.total() > 0 {
            m.push(("phases".into(), self.phases.to_json()));
        }
        typed_line("cell", &Json::Obj(m))
    }
}

/// Group job records by cell and compute each cell's statistics. Cells come
/// back sorted by cell index; jobs that carry an `error` count as `failed`
/// and contribute nothing to the order statistics.
pub(crate) fn aggregate_cells(jobs: &[JobRecord]) -> Vec<CellStats> {
    let mut by_cell: BTreeMap<u64, Vec<&JobRecord>> = BTreeMap::new();
    for j in jobs {
        by_cell.entry(j.cell).or_default().push(j);
    }
    by_cell
        .into_iter()
        .map(|(cell, members)| {
            let first = members[0];
            let ok: Vec<&&JobRecord> = members.iter().filter(|j| j.error.is_none()).collect();
            let mut phases = PhaseBreakdown::default();
            for j in &ok {
                phases.merge(&j.phases);
            }
            CellStats {
                cell,
                cluster: first.cluster,
                clusters: first.clusters,
                strategy: first.strategy.clone(),
                loss_ppm: first.loss_ppm,
                ctl_latency_ns: first.ctl_latency_ns,
                runs: ok.len() as u64,
                failed: (members.len() - ok.len()) as u64,
                unconverged: ok.iter().filter(|j| !j.converged).count() as u64,
                audit_failures: ok.iter().filter(|j| !j.audit_ok).count() as u64,
                verify_violations: ok.iter().map(|j| j.verify_violations).sum(),
                convergence_s: Summary::of(ok.iter().map(|j| j.convergence_ns as f64 / 1e9)),
                updates: Summary::of(ok.iter().map(|j| j.updates as f64)),
                flow_mods: Summary::of(ok.iter().map(|j| j.flow_mods as f64)),
                phases,
            }
        })
        .collect()
}

impl Artifact {
    /// Merge job records into one campaign artifact document: the
    /// `campaign` header line carrying `info`'s members, one `job` line per
    /// record, and one freshly aggregated `cell` line per grid cell.
    pub fn render(info: &Json, jobs: &[JobRecord]) -> String {
        let mut text = String::new();
        write_typed_line(&mut text, "campaign", info);
        text.push('\n');
        let cells = aggregate_cells(jobs);
        let jobs = jobs.iter().map(JobRecord::to_line);
        for line in jobs.chain(cells.iter().map(CellStats::to_line)) {
            text.push_str(&line);
            text.push('\n');
        }
        text
    }

    /// The grid-cell table [`Artifact::render_report`] prints for a
    /// campaign.
    pub(crate) fn render_cells(&self) -> String {
        let mut out = String::new();
        if let Some(h) = &self.header {
            let _ = writeln!(out, "campaign: {}", h.to_compact());
        }
        let sweep_loss = self.cells.iter().any(|c| c.loss_ppm != 0);
        let sweep_lat = {
            let first = self.cells.first().map(|c| c.ctl_latency_ns);
            self.cells.iter().any(|c| Some(c.ctl_latency_ns) != first)
        };
        let sweep_deploy = self
            .cells
            .iter()
            .any(|c| c.clusters != 1 || c.strategy != "tail");
        let _ = writeln!(out, "== grid cells ({} jobs)", self.jobs.len());
        let _ = write!(out, "{:>5} {:>8}", "cell", "cluster");
        if sweep_deploy {
            let _ = write!(out, " {:>12}", "deploy");
        }
        let _ = writeln!(
            out,
            " {:>8} {:>5} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9}",
            "loss", "runs", "conv min", "median", "p90", "max", "updates", "flowmods"
        );
        for c in &self.cells {
            let loss = if sweep_loss || sweep_lat {
                format!("{:.2}%", c.loss_ppm as f64 / 10_000.0)
            } else {
                "-".to_string()
            };
            let conv = |at: fn(&Summary) -> f64| {
                let s = c.convergence_s.as_ref();
                s.map_or("-".into(), |s| format!("{:.2}s", at(s)))
            };
            let med = |s: &Option<Summary>| {
                s.as_ref()
                    .map_or("-".into(), |s| format!("{:.0}", s.median))
            };
            let _ = write!(out, "{:>5} {:>8}", c.cell, c.cluster);
            if sweep_deploy {
                let _ = write!(out, " {:>12}", format!("{}x{}", c.clusters, c.strategy));
            }
            let _ = writeln!(
                out,
                " {:>8} {:>5} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9}",
                loss,
                c.runs,
                conv(|s| s.min),
                conv(|s| s.median),
                conv(|s| s.p90),
                conv(|s| s.max),
                med(&c.updates),
                med(&c.flow_mods),
            );
        }
        // Per-cell causal phase breakdown: *why* the convergence curve
        // bends — how much of each cell's mean convergence time is MRAI
        // queueing, path hunting, controller batching, and so on.
        let shown: Vec<CausalPhase> = CausalPhase::ALL
            .into_iter()
            .filter(|&p| self.cells.iter().any(|c| c.phases.get(p) > 0))
            .collect();
        if !shown.is_empty() {
            let _ = writeln!(out, "== causal phase breakdown (mean s/job)");
            let _ = write!(out, "{:>5} {:>8}", "cell", "cluster");
            for p in &shown {
                let _ = write!(out, " {:>13}", p.name());
            }
            let _ = writeln!(out);
            for c in &self.cells {
                let _ = write!(out, "{:>5} {:>8}", c.cell, c.cluster);
                for p in &shown {
                    let mean = c.phases.get(*p) as f64 / c.runs.max(1) as f64 / 1e9;
                    let _ = write!(out, " {mean:>12.3}s");
                }
                let _ = writeln!(out);
            }
        }
        let failed: u64 = self.cells.iter().map(|c| c.failed).sum();
        let unconverged: u64 = self.cells.iter().map(|c| c.unconverged).sum();
        let audit_failures: u64 = self.cells.iter().map(|c| c.audit_failures).sum();
        let violations: u64 = self.cells.iter().map(|c| c.verify_violations).sum();
        let _ = writeln!(
            out,
            "== health: {failed} failed, {unconverged} unconverged, {audit_failures} audit failures, {violations} verifier violations",
        );
        for j in &self.jobs {
            if let Some(e) = &j.error {
                let _ = writeln!(
                    out,
                    "  job {} (cell {}, seed {}): {e}",
                    j.id, j.cell, j.seed
                );
            }
        }
        out
    }
}

/// Canonicalize a per-run JSONL artifact for byte-comparison: zero the
/// wall-clock `wall_ns` member of event lines and drop wall-clock
/// histograms (`*wall_ns` metric names) from metrics lines. Everything a
/// deterministic simulation controls survives untouched, so two runs of
/// the same seed must canonicalize identically.
pub fn canonicalize_jsonl(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let Ok(mut v) = Json::parse(line) else {
            out.push_str(line);
            out.push('\n');
            continue;
        };
        let line_type = v.get("type").and_then(Json::as_str).map(str::to_owned);
        if let Json::Obj(members) = &mut v {
            for (key, value) in members {
                match (line_type.as_deref(), key.as_str(), value) {
                    (Some("event"), "wall_ns", value) => *value = Json::U64(0),
                    (Some("metrics"), "metrics", Json::Arr(entries)) => entries.retain(|e| {
                        !e.get("name")
                            .and_then(Json::as_str)
                            .is_some_and(|n| n.ends_with("wall_ns"))
                    }),
                    _ => {}
                }
            }
        }
        v.write_compact(&mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::artifact::ArtifactKind;

    pub(crate) fn job(id: u64, cell: u64, cluster: u64, conv_s: f64) -> JobRecord {
        JobRecord {
            id,
            cell,
            cluster,
            clusters: 1,
            strategy: "tail".into(),
            loss_ppm: 0,
            ctl_latency_ns: 1_000_000,
            seed: 100 + id,
            converged: true,
            convergence_ns: (conv_s * 1e9) as u64,
            updates: 10 * (id + 1),
            flow_mods: id,
            audit_ok: true,
            verify_violations: 0,
            phases: PhaseBreakdown::default(),
            error: None,
        }
    }

    #[test]
    fn aggregate_groups_by_cell_and_excludes_failures() {
        let mut jobs = vec![job(0, 0, 4, 10.0), job(1, 0, 4, 20.0), job(2, 1, 8, 5.0)];
        jobs.push(JobRecord {
            error: Some("boom".into()),
            ..job(3, 1, 8, 999.0)
        });
        let cells = aggregate_cells(&jobs);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].cell, 0);
        assert_eq!(cells[0].runs, 2);
        assert_eq!(cells[0].convergence_s.as_ref().unwrap().median, 15.0);
        assert_eq!(cells[1].runs, 1);
        assert_eq!(cells[1].failed, 1);
        assert_eq!(cells[1].convergence_s.as_ref().unwrap().max, 5.0);
    }

    #[test]
    fn campaign_roundtrips_through_render_and_parse() {
        let jobs = vec![job(0, 0, 4, 10.0), job(1, 0, 4, 20.0)];
        let info = Json::Obj(vec![("name".into(), Json::Str("fig2".into()))]);
        let text = Artifact::render(&info, &jobs);
        let parsed = Artifact::parse(&text).unwrap();
        assert_eq!(parsed.kind, Some(ArtifactKind::Campaign));
        assert_eq!(parsed.jobs, jobs);
        assert_eq!(parsed.cells, aggregate_cells(&jobs));
        assert_eq!(
            parsed.header.unwrap().get("name").unwrap().as_str(),
            Some("fig2")
        );
        let report = Artifact::parse(&text).unwrap().render_report();
        assert!(report.contains("grid cells"), "{report}");
        assert!(report.contains("15.00s"), "median in table: {report}");
    }

    #[test]
    fn parse_recomputes_cells_when_absent() {
        let jobs = vec![job(0, 0, 4, 10.0)];
        let info = Json::Obj(vec![]);
        let text: String = Artifact::render(&info, &jobs)
            .lines()
            .filter(|l| !l.contains("\"cell\",") && !l.contains("\"type\":\"cell\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let parsed = Artifact::parse(&text).unwrap();
        assert_eq!(parsed.cells, aggregate_cells(&jobs));
    }

    #[test]
    fn phases_roundtrip_and_render_in_cell_table() {
        let mut j0 = job(0, 0, 4, 10.0);
        j0.phases.add(CausalPhase::MraiWait, 9_000_000_000);
        j0.phases.add(CausalPhase::HuntStep, 1_000_000_000);
        let mut j1 = job(1, 0, 4, 20.0);
        j1.phases.add(CausalPhase::MraiWait, 19_000_000_000);
        let jobs = vec![j0, j1];
        let text = Artifact::render(&Json::Obj(vec![]), &jobs);
        let parsed = Artifact::parse(&text).unwrap();
        assert_eq!(parsed.jobs, jobs);
        assert_eq!(
            parsed.cells[0].phases.get(CausalPhase::MraiWait),
            28_000_000_000
        );
        let report = parsed.render_report();
        assert!(report.contains("causal phase breakdown"), "{report}");
        assert!(report.contains("mrai_wait"), "{report}");
        assert!(report.contains("14.000s"), "mean over two runs: {report}");
        // Phase-free campaigns keep the old report shape.
        let plain = Artifact::render(&Json::Obj(vec![]), &[job(0, 0, 4, 1.0)]);
        let plain_report = Artifact::parse(&plain).unwrap().render_report();
        assert!(
            !plain_report.contains("causal phase breakdown"),
            "{plain_report}"
        );
    }

    #[test]
    fn multicluster_fields_are_omitted_when_default() {
        // Default records keep the legacy wire shape, byte for byte.
        let j = job(0, 0, 4, 10.0);
        assert!(!j.to_line().contains("clusters"), "{}", j.to_line());
        assert!(!j.to_line().contains("strategy"), "{}", j.to_line());
        let parsed = JobRecord::from_json(&Json::parse(&j.to_line()).unwrap()).unwrap();
        assert_eq!(parsed, j);
        // Non-default records round-trip the deployment axes.
        let mut k = job(1, 1, 8, 5.0);
        k.clusters = 2;
        k.strategy = "degree".into();
        let line = k.to_line();
        assert!(line.contains("\"clusters\":2"), "{line}");
        assert!(line.contains("\"strategy\":\"degree\""), "{line}");
        let parsed = JobRecord::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, k);
        // Cells inherit the deployment axes and show them in the report.
        let cells = aggregate_cells(&[k.clone()]);
        assert_eq!(cells[0].clusters, 2);
        assert_eq!(cells[0].strategy, "degree");
        let cell_line = cells[0].to_line();
        assert!(
            cell_line.contains("\"clusters\":2,\"strategy\":\"degree\""),
            "{cell_line}"
        );
        let report = Artifact::render(&Json::Obj(vec![]), &[k]);
        let rendered = Artifact::parse(&report).unwrap().render_report();
        assert!(rendered.contains("2xdegree"), "{rendered}");
    }

    #[test]
    fn parse_lenient_tolerates_truncated_tail() {
        let jobs = vec![job(0, 0, 4, 10.0)];
        let mut text = Artifact::render(&Json::Obj(vec![]), &jobs);
        text.push_str("{\"type\":\"job\",\"id\":1,\"ce"); // killed mid-write
        assert!(Artifact::parse(&text).is_err());
        let (parsed, warnings) = Artifact::parse_lenient(&text).unwrap();
        assert_eq!(parsed.jobs, jobs);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("final line"), "{}", warnings[0]);
        assert!(Artifact::parse_lenient("garbage\n").is_err());
    }

    #[test]
    fn canonicalize_zeroes_wall_clock_fields() {
        let text = "{\"type\":\"event\",\"t\":5,\"kind\":\"x\",\"wall_ns\":12345}\n\
                    {\"type\":\"metrics\",\"phase\":\"p\",\"metrics\":[\
                    {\"node\":null,\"name\":\"core.controller.recompute_wall_ns\",\"count\":3},\
                    {\"node\":null,\"name\":\"verify.checks\",\"counter\":7}]}\n";
        let canon = canonicalize_jsonl(text);
        assert!(canon.contains("\"wall_ns\":0"), "{canon}");
        assert!(!canon.contains("recompute_wall_ns"), "{canon}");
        assert!(canon.contains("verify.checks"), "{canon}");
        // Idempotent.
        assert_eq!(canonicalize_jsonl(&canon), canon);
    }
}
