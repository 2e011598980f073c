//! Coverage analysis (Figs. 1–2): miles-weighted technology shares.
//!
//! The `*_cols` kernels are the one implementation of each share: they
//! gather technology codes and miles weights from the contiguous
//! [`CoverageColumns`] slices through a position index (the view's
//! per-operator coverage index), touching exactly the two or three
//! columns each figure needs. [`overall`] is the row-slice entry point
//! for callers holding exported rows.

use std::collections::BTreeMap;

use wheels_radio::tech::{Direction, Technology};
use wheels_ran::operator::Operator;
use wheels_sim_core::stats::WeightedShare;
use wheels_sim_core::time::Timezone;
use wheels_sim_core::units::{Speed, SpeedBin};

use crate::analysis::view::{at, VALID};
use crate::column::{self, CoverageColumns};
use crate::records::CoverageSample;

/// A coverage breakdown: for each technology (plus out-of-service), the
/// percentage of miles driven while connected to it.
#[derive(Debug, Clone, Default)]
pub struct TechShare {
    share: WeightedShare<Option<Technology>>,
}

impl TechShare {
    /// Accumulate a sample.
    pub fn add(&mut self, tech: Option<Technology>, miles: f64) {
        self.share.add(tech, miles);
    }

    /// Percentage of miles on `tech`.
    pub fn pct(&self, tech: Technology) -> f64 {
        self.share.percent(&Some(tech))
    }

    /// Percentage of miles with no service.
    pub fn pct_no_service(&self) -> f64 {
        self.share.percent(&None)
    }

    /// Percentage of miles on any 5G technology (Fig. 2a's headline).
    pub fn pct_5g(&self) -> f64 {
        Technology::ALL
            .iter()
            .filter(|t| t.is_5g())
            .map(|t| self.pct(*t))
            .sum()
    }

    /// Percentage of miles on high-speed 5G (mid + mmWave).
    pub fn pct_high_speed(&self) -> f64 {
        Technology::ALL
            .iter()
            .filter(|t| t.is_high_speed())
            .map(|t| self.pct(*t))
            .sum()
    }

    /// Total miles accumulated.
    pub fn total_miles(&self) -> f64 {
        self.share.total()
    }
}

/// Fig. 2a over a row slice: one operator's technology share of miles
/// driven. Columnarizes the operator's samples once and runs
/// [`overall_cols`], the one implementation of the number.
pub fn overall(samples: &[CoverageSample], op: Operator) -> TechShare {
    let mut cov = CoverageColumns::default();
    for s in samples.iter().filter(|s| s.operator == op) {
        cov.push(s);
    }
    let idx: Vec<u32> = (0..u32::try_from(cov.len()).expect("table exceeds u32 rows")).collect();
    overall_cols(&cov, &idx)
}

/// Decode one sentinel-coded technology byte from a view-owned column;
/// those columns were produced by `from_rows` or validated by
/// `ColumnarDataset::check`, so a bad code is a programming error, not
/// an input error.
fn tech_at(cov: &CoverageColumns, i: u32) -> Option<Technology> {
    column::tech_opt_from(*at(&cov.tech, i)).expect(VALID)
}

/// Fig. 2a: technology share of miles over the positions in `idx` (the
/// view's per-operator coverage index): one pass gathering
/// `(tech, miles)`.
pub fn overall_cols(cov: &CoverageColumns, idx: &[u32]) -> TechShare {
    let mut out = TechShare::default();
    for &i in idx {
        out.add(tech_at(cov, i), *at(&cov.miles, i));
    }
    out
}

/// Fig. 2b: share split by backlogged traffic direction; rows without a
/// backlogged direction ([`column::NONE_CODE`]) are skipped.
pub fn by_direction_cols(cov: &CoverageColumns, idx: &[u32]) -> BTreeMap<Direction, TechShare> {
    let mut out: BTreeMap<Direction, TechShare> = BTreeMap::new();
    for &i in idx {
        let code = *at(&cov.direction, i);
        if code == column::NONE_CODE {
            continue;
        }
        let dir = column::dir_from(code).expect(VALID);
        out.entry(dir)
            .or_default()
            .add(tech_at(cov, i), *at(&cov.miles, i));
    }
    out
}

/// Fig. 2c: share per timezone.
pub fn by_timezone_cols(cov: &CoverageColumns, idx: &[u32]) -> BTreeMap<Timezone, TechShare> {
    let mut out: BTreeMap<Timezone, TechShare> = BTreeMap::new();
    for &i in idx {
        let tz = column::tz_from(*at(&cov.tz, i)).expect(VALID);
        out.entry(tz)
            .or_default()
            .add(tech_at(cov, i), *at(&cov.miles, i));
    }
    out
}

/// Fig. 2d: share per speed bin.
pub fn by_speed_bin_cols(cov: &CoverageColumns, idx: &[u32]) -> BTreeMap<SpeedBin, TechShare> {
    let mut out: BTreeMap<SpeedBin, TechShare> = BTreeMap::new();
    for &i in idx {
        out.entry(SpeedBin::of(Speed::from_mph(*at(&cov.speed_mph, i))))
            .or_default()
            .add(tech_at(cov, i), *at(&cov.miles, i));
    }
    out
}

/// Fig. 1: coverage along the route as per-segment dominant technology.
/// Returns `(segment start mile, dominant tech)` for fixed-width segments.
pub fn route_profile(
    samples: &[(f64, Option<Technology>)], // (mile, tech) points in route order
    segment_miles: f64,
) -> Vec<(f64, Option<Technology>)> {
    if samples.is_empty() || segment_miles <= 0.0 {
        return Vec::new();
    }
    let max_mile = samples.iter().map(|(m, _)| *m).fold(0.0, f64::max);
    let mut out = Vec::new();
    let mut seg_start = 0.0;
    while seg_start <= max_mile {
        let seg_end = seg_start + segment_miles;
        let mut share: WeightedShare<Option<Technology>> = WeightedShare::new();
        for (m, t) in samples
            .iter()
            .filter(|(m, _)| *m >= seg_start && *m < seg_end)
        {
            let _ = m;
            share.add(*t, 1.0);
        }
        if share.total() > 0.0 {
            // Dominant = the key with the largest weight.
            let dominant = core::iter::once(None)
                .chain(Technology::ALL.iter().map(|t| Some(*t)))
                .max_by(|a, b| share.weight(a).total_cmp(&share.weight(b)))
                .expect("iterator is non-empty by construction");
            out.push((seg_start, dominant));
        }
        seg_start = seg_end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wheels_geo::route::ZoneClass;
    use wheels_sim_core::time::SimTime;

    /// Columnarize `samples` and index the rows of `op`.
    fn cols_of(samples: &[CoverageSample], op: Operator) -> (CoverageColumns, Vec<u32>) {
        let mut cov = CoverageColumns::default();
        let mut idx = Vec::new();
        for (i, s) in samples.iter().enumerate() {
            cov.push(s);
            if s.operator == op {
                idx.push(u32::try_from(i).expect("small test table"));
            }
        }
        (cov, idx)
    }

    fn cov(
        op: Operator,
        tech: Option<Technology>,
        dir: Option<Direction>,
        tz: Timezone,
        mph: f64,
        miles: f64,
    ) -> CoverageSample {
        CoverageSample {
            t: SimTime::EPOCH,
            operator: op,
            tech,
            direction: dir,
            miles,
            speed_mph: mph,
            tz,
            zone: ZoneClass::Highway,
        }
    }

    #[test]
    fn overall_shares_sum_to_100() {
        let samples = vec![
            cov(
                Operator::Verizon,
                Some(Technology::Lte),
                None,
                Timezone::Pacific,
                60.0,
                3.0,
            ),
            cov(
                Operator::Verizon,
                Some(Technology::Nr5gMid),
                None,
                Timezone::Pacific,
                60.0,
                1.0,
            ),
            cov(Operator::Verizon, None, None, Timezone::Pacific, 60.0, 1.0),
            // Other operator ignored.
            cov(
                Operator::Att,
                Some(Technology::LteA),
                None,
                Timezone::Pacific,
                60.0,
                9.0,
            ),
        ];
        let s = overall(&samples, Operator::Verizon);
        assert!((s.pct(Technology::Lte) - 60.0).abs() < 1e-9);
        assert!((s.pct(Technology::Nr5gMid) - 20.0).abs() < 1e-9);
        assert!((s.pct_no_service() - 20.0).abs() < 1e-9);
        assert!((s.pct_5g() - 20.0).abs() < 1e-9);
        assert!((s.total_miles() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn direction_split() {
        let samples = vec![
            cov(
                Operator::TMobile,
                Some(Technology::Nr5gMid),
                Some(Direction::Downlink),
                Timezone::Central,
                60.0,
                2.0,
            ),
            cov(
                Operator::TMobile,
                Some(Technology::Lte),
                Some(Direction::Uplink),
                Timezone::Central,
                60.0,
                2.0,
            ),
            cov(
                Operator::TMobile,
                Some(Technology::Nr5gMid),
                None,
                Timezone::Central,
                60.0,
                5.0,
            ),
        ];
        let (cov, idx) = cols_of(&samples, Operator::TMobile);
        let by_dir = by_direction_cols(&cov, &idx);
        assert!((by_dir[&Direction::Downlink].pct_high_speed() - 100.0).abs() < 1e-9);
        assert!((by_dir[&Direction::Uplink].pct_high_speed() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn timezone_and_speed_breakdowns() {
        let samples = vec![
            cov(
                Operator::Att,
                Some(Technology::LteA),
                None,
                Timezone::Mountain,
                70.0,
                1.0,
            ),
            cov(
                Operator::Att,
                Some(Technology::Nr5gLow),
                None,
                Timezone::Eastern,
                10.0,
                1.0,
            ),
        ];
        let (cov, idx) = cols_of(&samples, Operator::Att);
        let tz = by_timezone_cols(&cov, &idx);
        assert_eq!(tz.len(), 2);
        assert!((tz[&Timezone::Eastern].pct_5g() - 100.0).abs() < 1e-9);
        let sb = by_speed_bin_cols(&cov, &idx);
        assert!((sb[&SpeedBin::High].pct(Technology::LteA) - 100.0).abs() < 1e-9);
        assert!((sb[&SpeedBin::Low].pct(Technology::Nr5gLow) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn route_profile_picks_dominant() {
        let pts = vec![
            (0.1, Some(Technology::Lte)),
            (0.2, Some(Technology::Lte)),
            (0.3, Some(Technology::Nr5gMid)),
            (10.5, Some(Technology::Nr5gMid)),
            (10.6, Some(Technology::Nr5gMid)),
        ];
        let prof = route_profile(&pts, 10.0);
        assert_eq!(prof.len(), 2);
        assert_eq!(prof[0], (0.0, Some(Technology::Lte)));
        assert_eq!(prof[1], (10.0, Some(Technology::Nr5gMid)));
    }

    #[test]
    fn route_profile_empty_inputs() {
        assert!(route_profile(&[], 10.0).is_empty());
        assert!(route_profile(&[(1.0, None)], 0.0).is_empty());
    }
}
