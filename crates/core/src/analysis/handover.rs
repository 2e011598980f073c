//! Handover analysis (§6, Figs. 11–12).
//!
//! - Handovers per mile per throughput test (Fig. 11a) and interruption
//!   durations (Fig. 11b).
//! - The throughput impact: with 500 ms samples `T1..T5` around a handover
//!   in `T3`'s bin, `ΔT₁ = T3 − (T2+T4)/2` is the drop during the handover
//!   and `ΔT₂ = (T4+T5)/2 − (T1+T2)/2` is the post-vs-pre change, broken
//!   down by handover type (4G→4G, 5G→5G, 4G→5G, 5G→4G).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use wheels_radio::tech::Direction;
use wheels_ran::operator::Operator;
use wheels_ran::session::HandoverKind;

use crate::analysis::view::{at, DatasetView, VALID};
use crate::column::{self, dir_code, kind_code, op_code, HandoverColumns, RunColumns, TputColumns};
use crate::records::{Dataset, TestKind};

/// Per-test handover rate (Fig. 11a) over the run columns.
pub fn handovers_per_mile(runs: &RunColumns, op: Operator, dir: Direction) -> Vec<f64> {
    let kind = kind_code(match dir {
        Direction::Downlink => TestKind::DownlinkTput,
        Direction::Uplink => TestKind::UplinkTput,
    });
    let op = op_code(op);
    (0..runs.len())
        .filter(|&i| {
            runs.operator[i] == op
                && runs.kind[i] == kind
                && runs.driving[i] == 1
                && runs.miles[i] > 0.05
        })
        .map(|i| runs.handovers[i] as f64 / runs.miles[i])
        .collect()
}

/// Interruption durations in ms (Fig. 11b) over the handover columns,
/// filtered to handovers that occurred during throughput tests in `dir`.
pub fn durations_ms(hos: &HandoverColumns, op: Operator, dir: Direction) -> Vec<f64> {
    let (op, dir) = (op_code(op), dir_code(dir));
    (0..hos.len())
        .filter(|&i| hos.operator[i] == op && hos.direction[i] == dir)
        .map(|i| hos.duration_ms[i] as f64)
        .collect()
}

/// One handover's throughput impact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HoImpact {
    /// ΔT₁ (Mbps): during-HO bin minus the mean of its neighbors.
    pub delta_t1: f64,
    /// ΔT₂ (Mbps): post-HO second minus pre-HO second.
    pub delta_t2: f64,
    /// Handover type.
    pub kind: HandoverKind,
    /// Operator.
    pub operator: Operator,
    /// Traffic direction of the test.
    pub direction: Direction,
}

/// Compute ΔT₁/ΔT₂ for every handover that happened inside a throughput
/// test with enough surrounding samples — the row entry point: it
/// indexes a normalized copy of `ds` and runs [`impacts_indexed`]
/// through the view.
pub fn impacts(ds: &Dataset) -> Vec<HoImpact> {
    DatasetView::new(ds.clone()).impacts().to_vec()
}

/// The impact kernel over the columns, reusing a by-test position index
/// into `tput` whose groups are time-ascending — the [`DatasetView`]
/// path, where the index is shared with the per-test figure queries.
/// The handover columns must carry valid codes.
pub fn impacts_indexed(
    tput: &TputColumns,
    hos: &HandoverColumns,
    by_test: &BTreeMap<u32, Vec<u32>>,
) -> Vec<HoImpact> {
    let mut out = Vec::new();
    for h in 0..hos.len() {
        if hos.test_valid[h] == 0 || hos.direction[h] == column::NONE_CODE {
            continue;
        }
        let Some(pos) = by_test.get(&hos.test_id[h]) else {
            continue;
        };
        // Bin containing the handover start.
        let start = hos.start_ms[h];
        let k = pos.partition_point(|&i| *at(&tput.t_ms, i) <= start);
        let Some(k) = k.checked_sub(1) else { continue };
        if k < 2 || k + 2 >= pos.len() {
            continue; // not enough context around the HO
        }
        let t = |i: usize| *at(&tput.mbps, pos[i]);
        out.push(HoImpact {
            delta_t1: t(k) - (t(k - 1) + t(k + 1)) / 2.0,
            delta_t2: (t(k + 1) + t(k + 2)) / 2.0 - (t(k - 2) + t(k - 1)) / 2.0,
            kind: column::ho_from(hos.kind[h]).expect(VALID),
            operator: column::op_from(hos.operator[h]).expect(VALID),
            direction: column::dir_from(hos.direction[h]).expect(VALID),
        });
    }
    out
}

/// Fraction of impacts with a throughput drop during the HO (ΔT₁ < 0) —
/// the paper reports ~80%.
pub fn drop_fraction(impacts: &[HoImpact]) -> f64 {
    if impacts.is_empty() {
        return 0.0;
    }
    impacts.iter().filter(|i| i.delta_t1 < 0.0).count() as f64 / impacts.len() as f64
}

/// Fraction of impacts where the post-HO throughput improved (ΔT₂ > 0) —
/// the paper reports ~55–60%.
pub fn improve_fraction(impacts: &[HoImpact]) -> f64 {
    if impacts.is_empty() {
        return 0.0;
    }
    impacts.iter().filter(|i| i.delta_t2 > 0.0).count() as f64 / impacts.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use wheels_geo::route::ZoneClass;
    use wheels_radio::tech::Technology;
    use wheels_ran::cells::CellId;
    use wheels_ran::session::HandoverEvent;
    use wheels_sim_core::time::{SimDuration, SimTime, Timezone};
    use wheels_transport::servers::ServerKind;

    use crate::column::ColumnarDataset;
    use crate::records::{TaggedHandover, TestRun, TputSample};

    fn sample(test_id: u32, t: SimTime, mbps: f64) -> TputSample {
        TputSample {
            t,
            test_id,
            operator: Operator::Verizon,
            direction: Direction::Downlink,
            mbps,
            tech: Technology::LteA,
            cell: 1,
            speed_mph: 60.0,
            zone: ZoneClass::Highway,
            tz: Timezone::Central,
            server: ServerKind::Cloud,
            rsrp_dbm: -100.0,
            mcs: 15,
            bler: 0.1,
            carriers: 2,
            handovers_in_bin: 0,
            driving: true,
        }
    }

    fn ho(test_id: u32, start: SimTime, from: Technology, to: Technology) -> TaggedHandover {
        TaggedHandover {
            event: HandoverEvent {
                start,
                duration: SimDuration::from_millis(60),
                from_cell: CellId(1),
                to_cell: CellId(2),
                from_tech: from,
                to_tech: to,
                kind: wheels_ran::session::HandoverKind::classify(from, to),
            },
            operator: Operator::Verizon,
            test_id: Some(test_id),
            direction: Some(Direction::Downlink),
        }
    }

    /// Build a dataset with a known T1..T5 pattern around one HO.
    fn dataset_with_pattern(vals: [f64; 5], ho_bin: usize) -> Dataset {
        let mut ds = Dataset::default();
        for (i, v) in vals.iter().enumerate() {
            ds.tput.push(sample(1, SimTime((i as u64) * 500), *v));
        }
        ds.handovers.push(ho(
            1,
            SimTime((ho_bin as u64) * 500 + 100),
            Technology::LteA,
            Technology::Nr5gMid,
        ));
        ds
    }

    #[test]
    fn delta_t_formulas() {
        // T = [50, 40, 10, 45, 55], HO in bin 2.
        let ds = dataset_with_pattern([50.0, 40.0, 10.0, 45.0, 55.0], 2);
        let imps = impacts(&ds);
        assert_eq!(imps.len(), 1);
        let i = imps[0];
        assert!((i.delta_t1 - (10.0 - (40.0 + 45.0) / 2.0)).abs() < 1e-9);
        assert!((i.delta_t2 - ((45.0 + 55.0) / 2.0 - (50.0 + 40.0) / 2.0)).abs() < 1e-9);
        assert_eq!(i.kind, HandoverKind::Up4gTo5g);
    }

    #[test]
    fn edge_handovers_skipped() {
        // HO in bin 0: not enough context.
        let ds = dataset_with_pattern([50.0, 40.0, 10.0, 45.0, 55.0], 0);
        assert!(impacts(&ds).is_empty());
        // HO in bin 4 (last): also skipped.
        let ds = dataset_with_pattern([50.0, 40.0, 10.0, 45.0, 55.0], 4);
        assert!(impacts(&ds).is_empty());
    }

    #[test]
    fn untagged_handovers_skipped() {
        let mut ds = dataset_with_pattern([50.0, 40.0, 10.0, 45.0, 55.0], 2);
        ds.handovers[0].test_id = None;
        assert!(impacts(&ds).is_empty());
    }

    #[test]
    fn fractions() {
        let imps = vec![
            HoImpact {
                delta_t1: -5.0,
                delta_t2: 2.0,
                kind: HandoverKind::Horizontal4g,
                operator: Operator::Verizon,
                direction: Direction::Downlink,
            },
            HoImpact {
                delta_t1: -1.0,
                delta_t2: -2.0,
                kind: HandoverKind::Down5gTo4g,
                operator: Operator::Verizon,
                direction: Direction::Downlink,
            },
            HoImpact {
                delta_t1: 1.0,
                delta_t2: 4.0,
                kind: HandoverKind::Up4gTo5g,
                operator: Operator::Verizon,
                direction: Direction::Downlink,
            },
        ];
        assert!((drop_fraction(&imps) - 2.0 / 3.0).abs() < 1e-9);
        assert!((improve_fraction(&imps) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(drop_fraction(&[]), 0.0);
    }

    #[test]
    fn per_mile_uses_matching_runs_only() {
        let mut ds = Dataset::default();
        ds.runs.push(TestRun {
            id: 1,
            kind: TestKind::DownlinkTput,
            operator: Operator::Verizon,
            start: SimTime::EPOCH,
            end: SimTime::from_secs(30),
            miles: 0.5,
            tz: Timezone::Central,
            server: ServerKind::Cloud,
            hs5g_fraction: 0.0,
            handovers: 2,
            driving: true,
            partial: false,
        });
        ds.runs.push(TestRun {
            id: 2,
            kind: TestKind::UplinkTput,
            operator: Operator::Verizon,
            start: SimTime::EPOCH,
            end: SimTime::from_secs(30),
            miles: 0.5,
            tz: Timezone::Central,
            server: ServerKind::Cloud,
            hs5g_fraction: 0.0,
            handovers: 6,
            driving: true,
            partial: false,
        });
        let runs = ColumnarDataset::from_rows(&ds).runs;
        let dl = handovers_per_mile(&runs, Operator::Verizon, Direction::Downlink);
        assert_eq!(dl, vec![4.0]);
        let ul = handovers_per_mile(&runs, Operator::Verizon, Direction::Uplink);
        assert_eq!(ul, vec![12.0]);
        assert!(handovers_per_mile(&runs, Operator::Att, Direction::Downlink).is_empty());
    }

    #[test]
    fn durations_filtered_by_direction() {
        let mut ds = Dataset::default();
        ds.handovers
            .push(ho(1, SimTime::EPOCH, Technology::Lte, Technology::Lte));
        let mut ul = ho(2, SimTime::EPOCH, Technology::Lte, Technology::Lte);
        ul.direction = Some(Direction::Uplink);
        ds.handovers.push(ul);
        let hos = ColumnarDataset::from_rows(&ds).handovers;
        assert_eq!(
            durations_ms(&hos, Operator::Verizon, Direction::Downlink).len(),
            1
        );
        assert_eq!(
            durations_ms(&hos, Operator::Verizon, Direction::Uplink).len(),
            1
        );
        assert!(durations_ms(&hos, Operator::TMobile, Direction::Downlink).is_empty());
    }
}
