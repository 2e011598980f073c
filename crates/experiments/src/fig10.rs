//! Fig. 10: per-test performance against the fraction of time connected
//! to high-speed 5G (mmWave/mid-band).

use std::collections::BTreeMap;

use wheels_core::records::TestKind;
use wheels_radio::tech::Direction;
use wheels_ran::operator::Operator;
use wheels_sim_core::stats::Cdf;

use crate::fmt;
use crate::world::World;

/// `(hs5g_fraction, mean throughput)` per driving test.
pub fn tput_vs_hs5g(world: &World, op: Operator, dir: Direction) -> Vec<(f64, f64)> {
    let kind = match dir {
        Direction::Downlink => TestKind::DownlinkTput,
        Direction::Uplink => TestKind::UplinkTput,
    };
    let by_test: BTreeMap<u32, Vec<f64>> = world
        .view()
        .tput_tests(Some(op), Some(dir), Some(true))
        .map(|(id, samples)| (id, samples.map(|s| s.mbps).collect()))
        .collect();
    world
        .view()
        .runs()
        .filter(|r| r.operator == op && r.kind == kind && r.driving)
        .filter_map(|r| {
            let v = by_test.get(&r.id)?;
            if v.len() < 20 {
                return None;
            }
            Some((r.hs5g_fraction, v.iter().sum::<f64>() / v.len() as f64))
        })
        .collect()
}

/// Quartile-bucket medians: bucket tests by hs5g fraction (0–25/…/75–100%)
/// and return the median metric per bucket.
pub fn bucket_medians(points: &[(f64, f64)]) -> [Option<f64>; 4] {
    let mut out = [None, None, None, None];
    for (i, item) in out.iter_mut().enumerate() {
        let lo = i as f64 * 0.25;
        let hi = lo + 0.25 + if i == 3 { 1e-9 } else { 0.0 };
        let vals: Vec<f64> = points
            .iter()
            .filter(|(f, _)| *f >= lo && *f < hi)
            .map(|(_, m)| *m)
            .collect();
        *item = Cdf::from_samples(vals).median();
    }
    out
}

/// Render the figure.
pub fn run(world: &World) -> String {
    let mut out =
        String::from("Fig. 10 — per-test performance vs fraction of time on high-speed 5G\n\n");
    for dir in Direction::ALL {
        out.push_str(&format!(
            "{} mean throughput (Mbps), tests bucketed by hs5G%:\n",
            dir.label()
        ));
        let mut rows = Vec::new();
        for op in Operator::ALL {
            let pts = tput_vs_hs5g(world, op, dir);
            let b = bucket_medians(&pts);
            rows.push(vec![
                op.label().to_string(),
                pts.len().to_string(),
                fmt::num(b[0]),
                fmt::num(b[1]),
                fmt::num(b[2]),
                fmt::num(b[3]),
            ]);
        }
        out.push_str(&fmt::table(
            &["operator", "tests", "0-25%", "25-50%", "50-75%", "75-100%"],
            &rows,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_span_the_fraction_range() {
        let w = World::quick();
        let mut fracs: Vec<f64> = Vec::new();
        for op in Operator::ALL {
            fracs.extend(
                tput_vs_hs5g(w, op, Direction::Downlink)
                    .iter()
                    .map(|(f, _)| *f),
            );
        }
        assert!(fracs.iter().any(|f| *f < 0.1), "no low-hs5g tests");
        assert!(fracs.iter().any(|f| *f > 0.7), "no high-hs5g tests");
    }

    #[test]
    fn tmobile_dl_benefits_from_midband_time() {
        // Fig. 10a: only T-Mobile's mid-band time brings a substantial DL
        // improvement.
        let w = World::quick();
        let pts = tput_vs_hs5g(w, Operator::TMobile, Direction::Downlink);
        let b = bucket_medians(&pts);
        if let (Some(lo), Some(hi)) = (b[0], b[3]) {
            assert!(hi > lo, "lo-bucket {lo} hi-bucket {hi}");
        }
    }

    #[test]
    fn bucket_medians_math() {
        let pts = vec![(0.1, 10.0), (0.12, 20.0), (0.6, 50.0), (1.0, 80.0)];
        let b = bucket_medians(&pts);
        assert_eq!(b[0], Some(15.0));
        assert_eq!(b[1], None);
        assert_eq!(b[2], Some(50.0));
        assert_eq!(b[3], Some(80.0));
    }

    #[test]
    fn renders() {
        let out = run(World::quick());
        assert!(out.contains("75-100%"));
    }
}
