//! JSONL line scanning under the artifact reader.
//!
//! Run and campaign artifacts are both line-oriented JSON documents; this
//! module is the line scanner under their one reader,
//! [`Artifact`](crate::Artifact), and what a line holds is the caller's
//! business. Strict scans fail on the first bad line. Lenient
//! scans tolerate exactly one malformed *final* line — the signature of a
//! run that died mid-write — downgrading it to a warning so `bgpsdn report`
//! can still render everything recorded before the truncation.

/// Scan every non-empty line of a JSONL document, handing `(line_number,
/// trimmed line)` to `line` (line numbers are 1-based), which parses it.
/// An error from the callback aborts the scan, prefixed with the offending
/// line number — except that with `lenient` warnings, a **final** line the
/// callback rejects is recorded there instead: a truncated tail is the
/// normal shape of an artifact whose writer was killed mid-line. Malformed
/// lines anywhere else remain hard errors.
pub(crate) fn scan(
    text: &str,
    mut lenient: Option<&mut Vec<String>>,
    mut line: impl FnMut(usize, &str) -> Result<(), String>,
) -> Result<(), String> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty())
        .peekable();
    while let Some((lineno, raw)) = lines.next() {
        if let Err(e) = line(lineno, raw) {
            match &mut lenient {
                Some(warnings) if lines.peek().is_none() => warnings.push(format!(
                    "line {lineno}: ignoring truncated or malformed final line: {e}"
                )),
                _ => return Err(format!("line {lineno}: {e}")),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::check;

    #[test]
    fn strict_fails_on_any_bad_line() {
        let mut seen = 0;
        let err = scan("{\"a\":1}\nnot json\n{\"b\":2}\n", None, |_, raw| {
            check(raw)?;
            seen += 1;
            Ok(())
        })
        .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert_eq!(seen, 1);
    }

    #[test]
    fn lenient_tolerates_only_the_final_line() {
        let mut warnings = Vec::new();
        let mut seen = 0;
        scan("{\"a\":1}\n{\"trunc", Some(&mut warnings), |_, raw| {
            check(raw)?;
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, 1);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("line 2"), "{}", warnings[0]);

        let err = scan("bad\n{\"a\":1}\n", Some(&mut Vec::new()), |_, raw| {
            Ok(check(raw)?)
        })
        .expect_err("non-final bad line must stay fatal");
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn callback_errors_carry_line_numbers() {
        let err = scan("{\"a\":1}\n", None, |_, _| Err("bad \"t\"".into())).unwrap_err();
        assert_eq!(err, "line 1: bad \"t\"");
    }
}
