//! Operator diversity (§5.4, Fig. 6).
//!
//! All three phones measured concurrently, so for any 500 ms bin where two
//! operators both have a driving throughput sample in the same direction
//! we can compute their difference. Each pair-sample is classified by the
//! technologies in use: HT (high-throughput: 5G mid/mmWave) vs LT
//! (everything else), giving the HT-HT / HT-LT / LT-HT / LT-LT bins of
//! Fig. 6b–d.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use wheels_radio::tech::Direction;
use wheels_ran::operator::Operator;

use crate::records::TputSample;

/// Technology-class bin of a concurrent pair (first operator's class
/// first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PairBin {
    /// Both on high-throughput technologies.
    HtHt,
    /// First HT, second LT.
    HtLt,
    /// First LT, second HT.
    LtHt,
    /// Both LT.
    LtLt,
}

impl PairBin {
    /// All bins in Fig. 6's order.
    pub const ALL: [PairBin; 4] = [PairBin::HtHt, PairBin::HtLt, PairBin::LtHt, PairBin::LtLt];

    /// Label as in the figure.
    pub fn label(self) -> &'static str {
        match self {
            PairBin::HtHt => "HT-HT",
            PairBin::HtLt => "HT-LT",
            PairBin::LtHt => "LT-HT",
            PairBin::LtLt => "LT-LT",
        }
    }

    fn of(a_ht: bool, b_ht: bool) -> PairBin {
        match (a_ht, b_ht) {
            (true, true) => PairBin::HtHt,
            (true, false) => PairBin::HtLt,
            (false, true) => PairBin::LtHt,
            (false, false) => PairBin::LtLt,
        }
    }
}

/// One concurrent pair-sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairSample {
    /// Throughput difference `a − b` (Mbps).
    pub diff_mbps: f64,
    /// Technology-class bin.
    pub bin: PairBin,
}

/// The operator pairs Fig. 6 plots, in its order.
pub const PAIRS: [(Operator, Operator); 3] = [
    (Operator::Verizon, Operator::TMobile),
    (Operator::TMobile, Operator::Att),
    (Operator::Att, Operator::Verizon),
];

/// Join two operators' driving samples on the 500 ms grid and compute
/// differences.
pub fn pair_samples(
    samples: &[TputSample],
    a: Operator,
    b: Operator,
    dir: Direction,
) -> Vec<PairSample> {
    pair_samples_joined(
        samples
            .iter()
            .filter(|s| s.operator == a && s.direction == dir && s.driving)
            .copied(),
        samples
            .iter()
            .filter(|s| s.operator == b && s.direction == dir && s.driving)
            .copied(),
    )
}

/// [`pair_samples`] over two pre-filtered sample streams (the
/// dataset-view path: each stream is one (operator, direction, driving)
/// partition).
pub fn pair_samples_joined(
    a: impl IntoIterator<Item = TputSample>,
    b: impl IntoIterator<Item = TputSample>,
) -> Vec<PairSample> {
    // BTreeMap so the join below walks bins in time order — with a hash
    // map, ties in `diff_mbps` would land in input-dependent order.
    fn index(it: impl IntoIterator<Item = TputSample>) -> BTreeMap<u64, TputSample> {
        it.into_iter().map(|s| (s.t.as_millis() / 500, s)).collect()
    }
    let ia = index(a);
    let ib = index(b);
    let mut out: Vec<PairSample> = ia
        .iter()
        .filter_map(|(bin, sa)| {
            let sb = ib.get(bin)?;
            Some(PairSample {
                diff_mbps: sa.mbps - sb.mbps,
                bin: PairBin::of(sa.tech.is_high_speed(), sb.tech.is_high_speed()),
            })
        })
        .collect();
    out.sort_by(|x, y| x.diff_mbps.total_cmp(&y.diff_mbps));
    out
}

/// Fig. 6b: fraction of pair-samples in each bin.
pub fn bin_distribution(samples: &[PairSample]) -> Vec<(PairBin, f64)> {
    let n = samples.len().max(1) as f64;
    PairBin::ALL
        .iter()
        .map(|b| {
            (
                *b,
                samples.iter().filter(|s| s.bin == *b).count() as f64 / n,
            )
        })
        .collect()
}

/// Differences belonging to one bin (Figs. 6c–d).
pub fn diffs_in_bin(samples: &[PairSample], bin: PairBin) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.bin == bin)
        .map(|s| s.diff_mbps)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wheels_geo::route::ZoneClass;
    use wheels_radio::tech::Technology;
    use wheels_sim_core::time::{SimTime, Timezone};
    use wheels_transport::servers::ServerKind;

    fn sample(op: Operator, t_ms: u64, mbps: f64, tech: Technology) -> TputSample {
        TputSample {
            t: SimTime(t_ms),
            test_id: 0,
            operator: op,
            direction: Direction::Downlink,
            mbps,
            tech,
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

    #[test]
    fn joins_only_matching_bins() {
        let samples = vec![
            sample(Operator::Verizon, 0, 100.0, Technology::Nr5gMmWave),
            sample(Operator::TMobile, 0, 40.0, Technology::Lte),
            sample(Operator::Verizon, 500, 90.0, Technology::Nr5gMmWave),
            // T-Mobile has no sample at 500 ms.
            sample(Operator::TMobile, 1000, 10.0, Technology::Nr5gMid),
        ];
        let pairs = pair_samples(
            &samples,
            Operator::Verizon,
            Operator::TMobile,
            Direction::Downlink,
        );
        assert_eq!(pairs.len(), 1);
        assert!((pairs[0].diff_mbps - 60.0).abs() < 1e-9);
        assert_eq!(pairs[0].bin, PairBin::HtLt);
    }

    #[test]
    fn bin_classification() {
        let samples = vec![
            sample(Operator::Verizon, 0, 10.0, Technology::Lte),
            sample(Operator::TMobile, 0, 20.0, Technology::Nr5gMid),
            sample(Operator::Verizon, 500, 10.0, Technology::Nr5gMid),
            sample(Operator::TMobile, 500, 20.0, Technology::Nr5gMmWave),
            sample(Operator::Verizon, 1000, 10.0, Technology::LteA),
            sample(Operator::TMobile, 1000, 20.0, Technology::Nr5gLow),
        ];
        let pairs = pair_samples(
            &samples,
            Operator::Verizon,
            Operator::TMobile,
            Direction::Downlink,
        );
        let dist = bin_distribution(&pairs);
        let get = |b: PairBin| dist.iter().find(|(x, _)| *x == b).unwrap().1;
        assert!((get(PairBin::LtHt) - 1.0 / 3.0).abs() < 1e-9);
        assert!((get(PairBin::HtHt) - 1.0 / 3.0).abs() < 1e-9);
        assert!((get(PairBin::LtLt) - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(get(PairBin::HtLt), 0.0);
    }

    #[test]
    fn diffs_sorted_and_filtered() {
        let samples = vec![
            sample(Operator::Verizon, 0, 50.0, Technology::Lte),
            sample(Operator::TMobile, 0, 20.0, Technology::Lte),
            sample(Operator::Verizon, 500, 5.0, Technology::Lte),
            sample(Operator::TMobile, 500, 25.0, Technology::Lte),
        ];
        let pairs = pair_samples(
            &samples,
            Operator::Verizon,
            Operator::TMobile,
            Direction::Downlink,
        );
        let diffs = diffs_in_bin(&pairs, PairBin::LtLt);
        assert_eq!(diffs, vec![-20.0, 30.0]);
        assert!(diffs_in_bin(&pairs, PairBin::HtHt).is_empty());
    }

    #[test]
    fn empty_distribution_is_zeroes() {
        let dist = bin_distribution(&[]);
        assert!(dist.iter().all(|(_, f)| *f == 0.0));
    }
}
