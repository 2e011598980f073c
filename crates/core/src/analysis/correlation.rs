//! Table 2: Pearson correlation between 500 ms throughput and the KPIs.
//!
//! Each `TputSample` already carries its bin's RSRP, MCS, CA count, BLER,
//! speed, and handover count, so the correlation is a direct column-wise
//! Pearson over the filtered sample set — exactly what the paper computes
//! after joining XCAL KPI logs with throughput logs.
//!
//! The batched kernel is [`correlate_cols`]: it gathers each KPI from
//! the contiguous [`TputColumns`] slices through a position index, one
//! column at a time, instead of striding over row structs six times. The
//! row-based entry points ([`correlate`], [`table2`]) columnarize first.

use serde::{Deserialize, Serialize};
use wheels_radio::tech::Direction;
use wheels_ran::operator::Operator;
use wheels_sim_core::stats::{pearson, spearman};

use crate::analysis::view::at;
use crate::column::TputColumns;
use crate::records::TputSample;

/// The KPI columns of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Kpi {
    /// Primary cell RSRP.
    Rsrp,
    /// Primary cell MCS.
    Mcs,
    /// Carrier aggregation (number of carriers).
    Ca,
    /// Primary cell BLER.
    Bler,
    /// Vehicle speed.
    Speed,
    /// Handovers in the bin.
    Handovers,
}

impl Kpi {
    /// Table 2 column order.
    pub const ALL: [Kpi; 6] = [
        Kpi::Rsrp,
        Kpi::Mcs,
        Kpi::Ca,
        Kpi::Bler,
        Kpi::Speed,
        Kpi::Handovers,
    ];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Kpi::Rsrp => "RSRP",
            Kpi::Mcs => "MCS",
            Kpi::Ca => "CA",
            Kpi::Bler => "BLER",
            Kpi::Speed => "Speed",
            Kpi::Handovers => "HO",
        }
    }

    /// Extract the KPI value from a sample.
    pub fn value(self, s: &TputSample) -> f64 {
        match self {
            Kpi::Rsrp => s.rsrp_dbm,
            Kpi::Mcs => s.mcs as f64,
            Kpi::Ca => s.carriers as f64,
            Kpi::Bler => s.bler,
            Kpi::Speed => s.speed_mph,
            Kpi::Handovers => s.handovers_in_bin as f64,
        }
    }

    /// Gather this KPI for the indexed positions from the column slices
    /// — one contiguous source column per call, matching
    /// [`Kpi::value`]'s per-row conversions exactly (`u8` widens
    /// losslessly to `f64`).
    pub fn gather(self, t: &TputColumns, idx: &[u32]) -> Vec<f64> {
        fn take(col: &[f64], idx: &[u32]) -> Vec<f64> {
            idx.iter().map(|&i| *at(col, i)).collect()
        }
        fn widen(col: &[u8], idx: &[u32]) -> Vec<f64> {
            idx.iter().map(|&i| f64::from(*at(col, i))).collect()
        }
        match self {
            Kpi::Rsrp => take(&t.rsrp_dbm, idx),
            Kpi::Mcs => widen(&t.mcs, idx),
            Kpi::Ca => widen(&t.carriers, idx),
            Kpi::Bler => take(&t.bler, idx),
            Kpi::Speed => take(&t.speed_mph, idx),
            Kpi::Handovers => widen(&t.handovers_in_bin, idx),
        }
    }
}

/// One row of Table 2: operator × direction → r per KPI.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorrelationRow {
    /// Operator.
    pub operator: Operator,
    /// Direction.
    pub direction: Direction,
    /// `(kpi, Pearson r)` pairs; `None` when undefined (constant column).
    pub r: Vec<(Kpi, Option<f64>)>,
    /// `(kpi, Spearman rho)` pairs — the rank-based robustness companion
    /// (throughput is heavy-tailed, so rank correlation is the sanity
    /// check on every Pearson cell).
    pub rho: Vec<(Kpi, Option<f64>)>,
    /// Number of samples used.
    pub n: usize,
}

/// Compute one row from driving throughput samples: columnarize the
/// matching rows once and run the batched kernel, so every entry point
/// shares [`correlate_cols`]'s column-slice math.
pub fn correlate(
    samples: &[TputSample],
    operator: Operator,
    direction: Direction,
) -> CorrelationRow {
    let mut cols = TputColumns::default();
    for s in samples
        .iter()
        .filter(|s| s.operator == operator && s.direction == direction && s.driving)
    {
        cols.push(s);
    }
    let idx: Vec<u32> = (0..u32::try_from(cols.len()).expect("table exceeds u32 rows")).collect();
    correlate_cols(&cols, &idx, operator, direction)
}

/// The batched Table-2 kernel: correlate `mbps` against every KPI over
/// the positions in `idx`, gathering each input from one contiguous
/// column slice (the `DatasetView` partitions feed their permutation
/// indices straight in here).
pub fn correlate_cols(
    t: &TputColumns,
    idx: &[u32],
    operator: Operator,
    direction: Direction,
) -> CorrelationRow {
    let tput: Vec<f64> = idx.iter().map(|&i| *at(&t.mbps, i)).collect();
    let mut r = Vec::with_capacity(Kpi::ALL.len());
    let mut rho = Vec::with_capacity(Kpi::ALL.len());
    for k in Kpi::ALL {
        let xs = k.gather(t, idx);
        r.push((k, pearson(&xs, &tput)));
        rho.push((k, spearman(&xs, &tput)));
    }
    CorrelationRow {
        operator,
        direction,
        r,
        rho,
        n: idx.len(),
    }
}

/// The full Table 2 (3 operators × 2 directions).
pub fn table2(samples: &[TputSample]) -> Vec<CorrelationRow> {
    let mut out = Vec::new();
    for op in Operator::ALL {
        for dir in Direction::ALL {
            out.push(correlate(samples, op, dir));
        }
    }
    out
}

impl CorrelationRow {
    /// Look up Pearson r for one KPI.
    pub fn get(&self, kpi: Kpi) -> Option<f64> {
        self.r.iter().find(|(k, _)| *k == kpi).and_then(|(_, v)| *v)
    }

    /// Look up Spearman rho for one KPI.
    pub fn get_rho(&self, kpi: Kpi) -> Option<f64> {
        self.rho
            .iter()
            .find(|(k, _)| *k == kpi)
            .and_then(|(_, v)| *v)
    }

    /// The paper's headline check: no KPI strongly correlates with
    /// throughput (|r| below `threshold` for every column).
    pub fn no_strong_correlation(&self, threshold: f64) -> bool {
        self.r
            .iter()
            .all(|(_, v)| v.is_none_or(|x| x.abs() < threshold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wheels_geo::route::ZoneClass;
    use wheels_radio::tech::Technology;
    use wheels_sim_core::time::{SimTime, Timezone};
    use wheels_transport::servers::ServerKind;

    fn sample(mbps: f64, rsrp: f64, mcs: u8, speed: f64) -> TputSample {
        TputSample {
            t: SimTime::EPOCH,
            test_id: 0,
            operator: Operator::Verizon,
            direction: Direction::Downlink,
            mbps,
            tech: Technology::LteA,
            cell: 1,
            speed_mph: speed,
            zone: ZoneClass::Highway,
            tz: Timezone::Central,
            server: ServerKind::Cloud,
            rsrp_dbm: rsrp,
            mcs,
            bler: 0.1,
            carriers: 2,
            handovers_in_bin: 0,
            driving: true,
        }
    }

    #[test]
    fn perfect_mcs_correlation_detected() {
        let samples: Vec<TputSample> = (0..50)
            .map(|i| sample(i as f64 * 2.0, -100.0 + i as f64 * 0.0, i as u8 % 29, 60.0))
            .collect();
        // mbps = 2 * i, mcs = i (mod 29 wraps at 29; keep i < 29)
        let samples: Vec<TputSample> = samples.into_iter().take(28).collect();
        let row = correlate(&samples, Operator::Verizon, Direction::Downlink);
        let r_mcs = row.get(Kpi::Mcs).unwrap();
        assert!(r_mcs > 0.99, "r {r_mcs}");
        // RSRP constant → undefined.
        assert_eq!(row.get(Kpi::Rsrp), None);
        assert_eq!(row.n, 28);
    }

    #[test]
    fn wrong_operator_direction_excluded() {
        let samples = vec![sample(10.0, -90.0, 10, 60.0)];
        let row = correlate(&samples, Operator::Att, Direction::Downlink);
        assert_eq!(row.n, 0);
        assert!(row.r.iter().all(|(_, v)| v.is_none()));
    }

    #[test]
    fn table2_has_six_rows() {
        let samples: Vec<TputSample> = (0..30)
            .map(|i| sample(i as f64, -110.0 + i as f64, (i % 28) as u8, 50.0 + i as f64))
            .collect();
        let t = table2(&samples);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn no_strong_correlation_helper() {
        let samples: Vec<TputSample> = (0..100)
            .map(|i| {
                // Throughput unrelated to the KPIs.
                sample(
                    ((i * 37) % 100) as f64,
                    -110.0 + (i % 40) as f64,
                    (i % 28) as u8,
                    (i % 80) as f64,
                )
            })
            .collect();
        let row = correlate(&samples, Operator::Verizon, Direction::Downlink);
        assert!(row.no_strong_correlation(0.7));
    }
}
