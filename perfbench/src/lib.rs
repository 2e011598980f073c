//! Benchmark of the `wheels` pipeline: simulate → journal → replay →
//! view → serve, end to end and layer by layer. See `README.md` in this
//! directory for the workloads, the metrics and what each one should move.

pub mod calib;
pub mod checks;
pub mod layers;
pub mod loadgen;
pub mod mix;
pub mod pipeline;
pub mod scratch;
pub mod stats;
pub mod trace;

use std::fmt::Write as _;

use pipeline::{Metrics, Report};

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// the run's kind, each with its unit. Values print with every digit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}"
    )
}

/// The metrics a run reports: end-to-end ones untraced, per-layer ones
/// traced. Every value must be a finite number.
pub fn reported(rep: &Report, traced: bool) -> checks::Outcome<&Metrics> {
    let m = if traced {
        &rep.per_layer
    } else {
        &rep.end_to_end
    };
    match m.0.iter().find(|(_, v, _)| !v.is_finite()) {
        Some((name, v, _)) => Err(checks::Failure::Check {
            name: "metrics.finite",
            detail: format!("{name} = {v}"),
        }),
        None => Ok(m),
    }
}
