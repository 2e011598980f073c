//! Property tests for the indexed dataset view: every partition, memoized
//! CDF, and group index must equal the brute-force `*_where` filter over
//! the same normalized dataset, no matter what order samples were
//! inserted in. Each sample is expanded deterministically from one random
//! `u64` seed; the test's (operator, direction, driving) attributes are
//! derived from its test id so the per-test-constant invariant the view's
//! group index relies on holds by construction, like in a real campaign.

use std::collections::BTreeMap;

use proptest::prelude::*;
use wheels_core::analysis::view::DatasetView;
use wheels_core::records::{CoverageSample, Dataset, RttSample, TputSample};
use wheels_geo::route::ZoneClass;
use wheels_radio::tech::{Direction, Technology};
use wheels_ran::operator::Operator;
use wheels_sim_core::stats::Cdf;
use wheels_sim_core::time::{SimDuration, SimTime, Timezone};
use wheels_sim_core::units::{Speed, SpeedBin};
use wheels_transport::servers::ServerKind;

/// splitmix64 step: one seed fans out into as many independent field
/// draws as a sample needs.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (next(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn pick<T: Copy>(state: &mut u64, items: &[T]) -> T {
    items[(next(state) % items.len() as u64) as usize]
}

/// Throughput-test ids 0..12 span every (operator, direction, driving)
/// combination exactly once.
fn tput_attrs(test_id: u32) -> (Operator, Direction, bool) {
    (
        Operator::ALL[(test_id % 3) as usize],
        Direction::ALL[((test_id / 3) % 2) as usize],
        (test_id / 6) % 2 == 1,
    )
}

/// RTT-test ids 0..6 span every (operator, driving) combination.
fn rtt_attrs(test_id: u32) -> (Operator, bool) {
    (
        Operator::ALL[(test_id % 3) as usize],
        (test_id / 3) % 2 == 1,
    )
}

fn tput_from(seed: u64) -> TputSample {
    let mut s = seed;
    let test_id = (next(&mut s) % 12) as u32;
    let (operator, direction, driving) = tput_attrs(test_id);
    TputSample {
        t: SimTime::EPOCH + SimDuration::from_millis(next(&mut s) % 5_000_000),
        test_id,
        operator,
        direction,
        mbps: unit(&mut s) * 400.0,
        tech: pick(&mut s, &Technology::ALL),
        cell: (next(&mut s) % 50) as u32,
        speed_mph: unit(&mut s) * 80.0,
        zone: pick(&mut s, &ZoneClass::ALL),
        tz: pick(&mut s, &Timezone::ALL),
        server: pick(&mut s, &[ServerKind::Cloud, ServerKind::Edge]),
        rsrp_dbm: -120.0 + unit(&mut s) * 50.0,
        mcs: (next(&mut s) % 28) as u8,
        bler: unit(&mut s) * 0.5,
        carriers: 1 + (next(&mut s) % 3) as u8,
        handovers_in_bin: (next(&mut s) % 3) as u8,
        driving,
    }
}

fn rtt_from(seed: u64) -> RttSample {
    let mut s = seed;
    let test_id = (next(&mut s) % 6) as u32;
    let (operator, driving) = rtt_attrs(test_id);
    RttSample {
        t: SimTime::EPOCH + SimDuration::from_millis(next(&mut s) % 5_000_000),
        test_id,
        operator,
        // ~1 in 8 pings lost, like real driving logs.
        rtt_ms: (!next(&mut s).is_multiple_of(8)).then(|| 1.0 + unit(&mut s) * 300.0),
        tech: pick(&mut s, &Technology::ALL),
        speed_mph: unit(&mut s) * 80.0,
        tz: pick(&mut s, &Timezone::ALL),
        server: pick(&mut s, &[ServerKind::Cloud, ServerKind::Edge]),
        driving,
    }
}

fn cov_from(seed: u64) -> CoverageSample {
    let mut s = seed;
    CoverageSample {
        t: SimTime::EPOCH + SimDuration::from_millis(next(&mut s) % 5_000_000),
        operator: pick(&mut s, &Operator::ALL),
        tech: (!next(&mut s).is_multiple_of(5)).then(|| pick(&mut s, &Technology::ALL)),
        direction: (!next(&mut s).is_multiple_of(3)).then(|| pick(&mut s, &Direction::ALL)),
        miles: unit(&mut s) * 0.1,
        speed_mph: unit(&mut s) * 80.0,
        tz: pick(&mut s, &Timezone::ALL),
        zone: pick(&mut s, &ZoneClass::ALL),
    }
}

/// The view over the seeded dataset, and that dataset normalized — the
/// brute-force reference, built from the source rows rather than
/// decoded back out of the view's columns.
fn build_view(tput_seeds: &[u64], rtt_seeds: &[u64], cov_seeds: &[u64]) -> (DatasetView, Dataset) {
    let ds = Dataset {
        tput: tput_seeds.iter().map(|&s| tput_from(s)).collect(),
        rtt: rtt_seeds.iter().map(|&s| rtt_from(s)).collect(),
        coverage: cov_seeds.iter().map(|&s| cov_from(s)).collect(),
        ..Dataset::default()
    };
    let mut want = ds.clone();
    want.normalize();
    // Insert order is whatever the seeds produced (timestamps are random,
    // so the tables arrive thoroughly shuffled); the view normalizes
    // internally and must absorb that.
    (DatasetView::new(ds), want)
}

fn op_filters() -> Vec<Option<Operator>> {
    std::iter::once(None)
        .chain(Operator::ALL.into_iter().map(Some))
        .collect()
}

fn dir_filters() -> Vec<Option<Direction>> {
    std::iter::once(None)
        .chain(Direction::ALL.into_iter().map(Some))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wildcard_combos_match_brute_force(
        tput_seeds in prop::collection::vec(any::<u64>(), 0..200),
        rtt_seeds in prop::collection::vec(any::<u64>(), 0..150),
        cov_seeds in prop::collection::vec(any::<u64>(), 0..100),
    ) {
        let (view, ref ds) = build_view(&tput_seeds, &rtt_seeds, &cov_seeds);
        prop_assert_eq!(&view.to_dataset(), ds, "to_dataset");

        for &op in &op_filters() {
            for &dir in &dir_filters() {
                for drv in [None, Some(false), Some(true)] {
                    let got: Vec<TputSample> = view.tput_iter(op, dir, drv).collect();
                    let want: Vec<TputSample> = ds.tput_where(op, dir, drv).copied().collect();
                    prop_assert_eq!(got, want, "tput_iter({:?},{:?},{:?})", op, dir, drv);
                    let want_cdf =
                        Cdf::from_samples(ds.tput_where(op, dir, drv).map(|s| s.mbps));
                    prop_assert_eq!(
                        view.tput_cdf(op, dir, drv),
                        &want_cdf,
                        "tput_cdf({:?},{:?},{:?})", op, dir, drv
                    );
                }
            }
            for drv in [None, Some(false), Some(true)] {
                let got: Vec<RttSample> = view.rtt_iter(op, drv).collect();
                let want: Vec<RttSample> = ds
                    .rtt
                    .iter()
                    .filter(|s| {
                        op.is_none_or(|o| s.operator == o)
                            && drv.is_none_or(|d| s.driving == d)
                    })
                    .copied()
                    .collect();
                prop_assert_eq!(got, want, "rtt_iter({:?},{:?})", op, drv);
                let got_vals: Vec<f64> = view.rtt_values(op, drv).collect();
                let want_vals: Vec<f64> = ds.rtt_where(op, drv).collect();
                prop_assert_eq!(got_vals, want_vals, "rtt_values({:?},{:?})", op, drv);
                let want_cdf = Cdf::from_samples(ds.rtt_where(op, drv));
                prop_assert_eq!(
                    view.rtt_cdf(op, drv),
                    &want_cdf,
                    "rtt_cdf({:?},{:?})", op, drv
                );
            }
        }

        for op in Operator::ALL {
            let got: Vec<CoverageSample> = view.coverage_for(op).collect();
            let want: Vec<CoverageSample> =
                ds.coverage.iter().filter(|c| c.operator == op).copied().collect();
            prop_assert_eq!(got, want, "coverage_for({:?})", op);
        }
    }

    #[test]
    fn sub_indexes_and_groups_match_brute_force(
        tput_seeds in prop::collection::vec(any::<u64>(), 0..200),
        rtt_seeds in prop::collection::vec(any::<u64>(), 0..150),
    ) {
        let (view, ref ds) = build_view(&tput_seeds, &rtt_seeds, &[]);

        for op in Operator::ALL {
            for dir in Direction::ALL {
                for drv in [false, true] {
                    let base = || ds.tput_where(Some(op), Some(dir), Some(drv)).copied();
                    for tech in Technology::ALL {
                        let got: Vec<TputSample> =
                            view.tput_tech(op, dir, drv, tech).collect();
                        let want: Vec<TputSample> =
                            base().filter(|s| s.tech == tech).collect();
                        prop_assert_eq!(got, want, "tput_tech {:?}", tech);
                    }
                    for tz in Timezone::ALL {
                        let got: Vec<TputSample> = view.tput_tz(op, dir, drv, tz).collect();
                        let want: Vec<TputSample> = base().filter(|s| s.tz == tz).collect();
                        prop_assert_eq!(got, want, "tput_tz {:?}", tz);
                    }
                    for bin in SpeedBin::ALL {
                        for tech in Technology::ALL {
                            let got: Vec<TputSample> =
                                view.tput_bin_tech(op, dir, drv, bin, tech).collect();
                            let want: Vec<TputSample> = base()
                                .filter(|s| {
                                    s.tech == tech
                                        && SpeedBin::of(Speed::from_mph(s.speed_mph)) == bin
                                })
                                .collect();
                            prop_assert_eq!(got, want, "tput_bin_tech {:?} {:?}", bin, tech);
                        }
                    }
                    let got: Vec<(u32, Vec<TputSample>)> = view
                        .tput_tests(Some(op), Some(dir), Some(drv))
                        .map(|(id, it)| (id, it.collect()))
                        .collect();
                    let mut groups: BTreeMap<u32, Vec<TputSample>> = BTreeMap::new();
                    for s in base() {
                        groups.entry(s.test_id).or_default().push(s);
                    }
                    let want: Vec<(u32, Vec<TputSample>)> = groups.into_iter().collect();
                    prop_assert_eq!(got, want, "tput_tests {:?} {:?} {}", op, dir, drv);
                }
            }
            for drv in [false, true] {
                let base = || {
                    ds.rtt
                        .iter()
                        .filter(move |s| s.operator == op && s.driving == drv)
                        .copied()
                };
                for tech in Technology::ALL {
                    let got: Vec<RttSample> = view.rtt_tech(op, drv, tech).collect();
                    let want: Vec<RttSample> = base().filter(|s| s.tech == tech).collect();
                    prop_assert_eq!(got, want, "rtt_tech {:?}", tech);
                }
                for bin in SpeedBin::ALL {
                    for tech in Technology::ALL {
                        let got: Vec<RttSample> =
                            view.rtt_bin_tech(op, drv, bin, tech).collect();
                        let want: Vec<RttSample> = base()
                            .filter(|s| {
                                s.tech == tech
                                    && SpeedBin::of(Speed::from_mph(s.speed_mph)) == bin
                            })
                            .collect();
                        prop_assert_eq!(got, want, "rtt_bin_tech {:?} {:?}", bin, tech);
                    }
                }
                let got: Vec<(u32, Vec<RttSample>)> = view
                    .rtt_tests(Some(op), Some(drv))
                    .map(|(id, it)| (id, it.collect()))
                    .collect();
                let mut groups: BTreeMap<u32, Vec<RttSample>> = BTreeMap::new();
                for s in base() {
                    groups.entry(s.test_id).or_default().push(s);
                }
                let want: Vec<(u32, Vec<RttSample>)> = groups.into_iter().collect();
                prop_assert_eq!(got, want, "rtt_tests {:?} {}", op, drv);
            }
        }
    }
}
