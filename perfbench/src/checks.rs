//! Output checks and the failures that end a run.
//!
//! Every check has a stable name. A failed check fails the run and is
//! reported by that name; nothing is counted past it.

use std::fmt;
use std::time::{Duration, Instant};

use wheels_core::column::wcd;
use wheels_core::records::Dataset;

/// Why a run cannot report a result.
#[derive(Debug)]
pub enum Failure {
    /// An output check did not hold.
    Check { name: &'static str, detail: String },
    /// A wait passed its deadline.
    Stalled { step: String, waited: Duration },
    /// A call into the program or the filesystem returned an error.
    Error { step: String, detail: String },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Check { name, detail } => write!(f, "check {name} failed: {detail}"),
            Failure::Stalled { step, waited } => {
                write!(f, "step {step} stalled: no progress after {waited:.1?}")
            }
            Failure::Error { step, detail } => write!(f, "step {step} failed: {detail}"),
        }
    }
}

/// Result of a benchmark step.
pub type Outcome<T> = Result<T, Failure>;

/// Fail the check `name` unless `ok`.
pub fn ensure(name: &'static str, ok: bool, detail: impl FnOnce() -> String) -> Outcome<()> {
    if ok {
        Ok(())
    } else {
        Err(Failure::Check {
            name,
            detail: detail(),
        })
    }
}

/// Attach the step name to an error from the program.
pub fn step<T, E: fmt::Display>(step: &str, r: Result<T, E>) -> Outcome<T> {
    r.map_err(|e| Failure::Error {
        step: step.to_string(),
        detail: e.to_string(),
    })
}

/// Poll `done` every `every` until it holds or `limit` passes; a
/// missed deadline names `step`.
pub fn wait_for(
    step: &str,
    limit: Duration,
    every: Duration,
    mut done: impl FnMut() -> bool,
) -> Outcome<Instant> {
    let t0 = Instant::now();
    loop {
        if done() {
            return Ok(Instant::now());
        }
        if t0.elapsed() > limit {
            return Err(Failure::Stalled {
                step: step.to_string(),
                waited: t0.elapsed(),
            });
        }
        std::thread::sleep(every);
    }
}

/// `batch.wcd_roundtrip`: a WCD1 image decodes and re-encodes to the
/// same bytes.
pub fn wcd_roundtrip(image: &[u8]) -> Outcome<()> {
    let decoded = wcd::decode(image).map_err(|e| Failure::Check {
        name: "batch.wcd_roundtrip",
        detail: format!("the image does not decode: {e}"),
    })?;
    let again = wcd::encode(&decoded);
    ensure("batch.wcd_roundtrip", again == image, || {
        format!(
            "re-encoding gives {} bytes that differ from the {}-byte image",
            again.len(),
            image.len()
        )
    })
}

/// `audit.conservation`: every audit row accounts for each planned
/// sample as recorded or lost.
pub fn audit_conservation(ds: &Dataset) -> Outcome<()> {
    let bad = ds
        .audits
        .iter()
        .find(|a| a.recorded_samples + a.lost_samples != a.planned_samples);
    ensure(
        "audit.conservation",
        bad.is_none() && !ds.audits.is_empty(),
        || match bad {
            Some(a) => format!(
                "test {} of {:?}: recorded {} + lost {} != planned {}",
                a.test_id, a.operator, a.recorded_samples, a.lost_samples, a.planned_samples
            ),
            None => "the dataset has no audit rows".to_string(),
        },
    )
}

/// `batch.report_sections`: the rendered report holds one non-empty
/// section per experiment id, in the `render_report` layout (a
/// 78-character rule line, then the text).
pub fn report_sections(report: &str, ids: usize) -> Outcome<()> {
    let rule = "=".repeat(78);
    let sections: Vec<&str> = report.split(&format!("{rule}\n")).skip(1).collect();
    let empty = sections.iter().position(|s| s.trim().is_empty());
    ensure(
        "batch.report_sections",
        report.starts_with(&rule) && sections.len() == ids && empty.is_none(),
        || {
            format!(
                "{} sections for {ids} ids (empty section: {empty:?})",
                sections.len()
            )
        },
    )
}

/// `name`: a served answer is byte-identical to the offline answer.
pub fn answer_matches(name: &'static str, served: &str, offline: &str) -> Outcome<()> {
    ensure(name, served == offline, || {
        let at = served
            .bytes()
            .zip(offline.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(served.len().min(offline.len()));
        format!("served and offline answers first differ at byte {at}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_section_count_is_checked() {
        let rule = "=".repeat(78);
        let ok = format!("{rule}\nA\n\n{rule}\nB\n\n");
        assert!(report_sections(&ok, 2).is_ok());
        assert!(report_sections(&ok, 3).is_err());
        let empty = format!("{rule}\nA\n{rule}\n\n");
        assert!(report_sections(&empty, 2).is_err());
    }

    #[test]
    fn wait_for_names_the_stalled_step() {
        let err = wait_for(
            "test.never",
            Duration::from_millis(5),
            Duration::from_millis(1),
            || false,
        )
        .unwrap_err();
        assert!(err.to_string().contains("test.never"), "{err}");
    }
}
