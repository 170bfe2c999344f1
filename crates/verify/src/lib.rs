//! Harness-only view of `bgpsdn_analyze`'s verifier; new code uses that crate.

pub use bgpsdn_analyze::Snapshot;

/// The analyzer's verifier, answering in the frozen benchmark harness's shape.
#[derive(Debug, Default)]
pub struct Verifier(bgpsdn_analyze::Verifier);

/// One verification pass as the harness reads it.
pub struct Verdict {
    /// The error findings.
    pub violations: Vec<bgpsdn_analyze::Finding>,
    /// Destination prefixes analyzed.
    pub prefixes_checked: usize,
}

impl Verdict {
    /// True when no check found an error.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl Verifier {
    /// Fresh verifier with empty scratch.
    pub fn new() -> Verifier {
        Verifier::default()
    }

    /// Run every data-plane check over a snapshot.
    pub fn verify(&mut self, snap: &Snapshot) -> Verdict {
        let mut violations = self.0.verify(snap).findings;
        violations.retain(|f| f.severity == bgpsdn_analyze::Severity::Error);
        let prefixes_checked = self.0.prefixes_checked();
        Verdict {
            violations,
            prefixes_checked,
        }
    }
}
