//! Findings and reports — the one output vocabulary of every check.
//!
//! Every pass, control plane and data plane alike, produces [`Finding`]s
//! collected into an [`AnalysisReport`]. A finding renders to one line
//! (plus its witness) through its `Display` impl, the one renderer behind
//! both `bgpsdn check` and `bgpsdn verify`, and to deterministic JSON:
//! finding order is the (deterministic) order the passes emit them in,
//! and every field is plain data, so the same inputs always produce
//! byte-identical output.

use std::fmt;

use bgpsdn_bgp::Prefix;
use bgpsdn_obs::Json;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but runnable: the experiment will execute, though it may
    /// not measure what the author intended.
    Warning,
    /// The configuration is wrong: running it would panic, oscillate, or
    /// assert an expectation that can never hold.
    Error,
}

impl Severity {
    /// Lower-case label used in renders and JSON.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One statically detected problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable code: `pass.kind` for the control-plane
    /// passes (e.g. `safety.provider_cycle`, `script.index_range`), the
    /// invariant for the data-plane checks (`loop`, `blackhole`,
    /// `intent_drift`, `valley`).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Concrete evidence when the pass can produce one — e.g. the witness
    /// cycle of a dispute wheel (`AS1 -> AS2 -> AS3 -> AS1`).
    pub witness: Option<String>,
    /// The offending device or session of a data-plane finding; empty for
    /// the control-plane passes.
    pub subject: String,
    /// The destination prefix a data-plane check ran for, when
    /// prefix-scoped.
    pub prefix: Option<Prefix>,
}

impl Finding {
    /// JSON object for one finding (stable key order; `subject` and
    /// `prefix` only when set).
    pub(crate) fn to_json(&self) -> Json {
        let mut kv = vec![
            (
                "severity".to_string(),
                Json::Str(self.severity.label().to_string()),
            ),
            ("code".to_string(), Json::Str(self.code.to_string())),
        ];
        if let Some(p) = self.prefix {
            kv.push(("prefix".to_string(), Json::Str(p.to_string())));
        }
        if !self.subject.is_empty() {
            kv.push(("subject".to_string(), Json::Str(self.subject.clone())));
        }
        kv.push(("message".to_string(), Json::Str(self.message.clone())));
        if let Some(w) = &self.witness {
            kv.push(("witness".to_string(), Json::Str(w.clone())));
        }
        Json::Obj(kv)
    }
}

/// The one rendering of a finding: `severity [code] prefix at subject:
/// message`, then the witness on its own indented line.
impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>7} [{}] ", self.severity.label(), self.code)?;
        if let Some(p) = self.prefix {
            write!(f, "{p} ")?;
        }
        if !self.subject.is_empty() {
            write!(f, "at {}: ", self.subject)?;
        }
        f.write_str(&self.message)?;
        if let Some(w) = &self.witness {
            write!(f, "\n        witness: {w}")?;
        }
        Ok(())
    }
}

/// Accumulated output of one or more analyzer passes.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Findings in emission order (deterministic per input).
    pub findings: Vec<Finding>,
    /// Number of individual checks evaluated (clean checks count too, so a
    /// "0 findings" report can show how much was actually examined).
    pub checks: u64,
}

impl AnalysisReport {
    /// Empty report.
    pub fn new() -> AnalysisReport {
        AnalysisReport::default()
    }

    /// Record one evaluated check.
    pub fn checked(&mut self) {
        self.checks += 1;
    }

    /// Record `n` evaluated checks.
    pub(crate) fn checked_n(&mut self, n: u64) {
        self.checks += n;
    }

    /// Push a control-plane finding (no subject, no prefix).
    fn push(
        &mut self,
        severity: Severity,
        code: &'static str,
        message: String,
        witness: Option<String>,
    ) {
        self.findings.push(Finding {
            severity,
            code,
            message,
            witness,
            subject: String::new(),
            prefix: None,
        });
    }

    /// Push an error finding.
    pub fn error(&mut self, code: &'static str, message: impl Into<String>) {
        self.push(Severity::Error, code, message.into(), None);
    }

    /// Push an error finding with a witness.
    pub(crate) fn error_with(
        &mut self,
        code: &'static str,
        message: impl Into<String>,
        witness: impl Into<String>,
    ) {
        self.push(Severity::Error, code, message.into(), Some(witness.into()));
    }

    /// Push a warning finding.
    pub(crate) fn warning(&mut self, code: &'static str, message: impl Into<String>) {
        self.push(Severity::Warning, code, message.into(), None);
    }

    /// Push a warning finding with a witness.
    pub(crate) fn warning_with(
        &mut self,
        code: &'static str,
        message: impl Into<String>,
        witness: impl Into<String>,
    ) {
        self.push(
            Severity::Warning,
            code,
            message.into(),
            Some(witness.into()),
        );
    }

    /// Fold another report into this one.
    pub fn merge(&mut self, other: AnalysisReport) {
        self.findings.extend(other.findings);
        self.checks += other.checks;
    }

    /// True when there are no error-severity findings (warnings allowed).
    pub fn ok(&self) -> bool {
        self.errors() == 0
    }

    /// True when there are no findings at all.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Error-severity finding count.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Warning-severity finding count.
    pub fn warnings(&self) -> usize {
        self.findings.len() - self.errors()
    }

    /// Human-readable rendering: one line per finding, or a clean summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        if self.findings.is_empty() {
            return format!("ok ({} checks)\n", self.checks);
        }
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{f}");
        }
        let _ = writeln!(
            out,
            "{} error(s), {} warning(s), {} checks",
            self.errors(),
            self.warnings(),
            self.checks
        );
        out
    }

    /// JSON object for the whole report (stable key order, deterministic).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "findings".to_string(),
                Json::Arr(self.findings.iter().map(Finding::to_json).collect()),
            ),
            ("errors".to_string(), Json::U64(self.errors() as u64)),
            ("warnings".to_string(), Json::U64(self.warnings() as u64)),
            ("checks".to_string(), Json::U64(self.checks)),
        ])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The first error-severity finding, if any.
    pub(crate) fn first_error(r: &AnalysisReport) -> Option<&Finding> {
        r.findings.iter().find(|f| f.severity == Severity::Error)
    }

    #[test]
    fn report_accounting() {
        let mut r = AnalysisReport::new();
        assert!(r.ok() && r.clean());
        r.checked_n(3);
        r.warning("test.warn", "just a warning");
        assert!(r.ok() && !r.clean());
        r.error_with("test.err", "broken", "AS1 -> AS2 -> AS1");
        assert!(!r.ok());
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
        assert_eq!(first_error(&r).unwrap().code, "test.err");
        let rendered = r.render();
        assert!(rendered.contains("witness: AS1 -> AS2 -> AS1"));
        assert!(rendered.contains("1 error(s), 1 warning(s), 3 checks"));
    }

    #[test]
    fn json_is_deterministic() {
        let mut r = AnalysisReport::new();
        r.checked();
        r.error("x.y", "boom");
        let a = r.to_json().to_compact();
        let b = r.to_json().to_compact();
        assert_eq!(a, b);
        assert!(a.contains("\"code\":\"x.y\""));
        let parsed = Json::parse(&a).unwrap();
        assert_eq!(parsed.get("errors").and_then(Json::as_u64), Some(1));
    }
}
