//! Property tests for incremental shard ingest: replaying a campaign's
//! shards into an empty [`DatasetView`] in *any* arrival order must
//! reproduce exactly what a full `DatasetView::new` rebuild over the
//! merged campaign dataset yields — every partition iterator, every
//! sub-index, every memoized Cdf and quantile, the by-test groups, the
//! handover impacts, and the Table 1 accounting — with faults off and
//! on (faulted runs salvage partial shards, so their tables are
//! irregular). The arrival-order independence rests on a simulator
//! guarantee the fixtures also pin: canonical sort keys never collide
//! across shards.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use proptest::prelude::*;
use wheels_core::analysis::view::DatasetView;
use wheels_core::campaign::{Campaign, CampaignConfig};
use wheels_core::disrupt::FaultConfig;
use wheels_core::records::{Dataset, RttSample, ShardRecords, TputSample};
use wheels_radio::tech::{Direction, Technology};
use wheels_ran::operator::Operator;
use wheels_sim_core::time::Timezone;
use wheels_sim_core::units::SpeedBin;

fn cfg(faults: bool) -> CampaignConfig {
    CampaignConfig {
        seed: 7,
        max_cycles: Some(2),
        // Apps ride along in the faulted scenario so the app/audit
        // small-table merge sees non-trivial rows; the plain scenario
        // stays lean to keep the fixture cheap.
        include_apps: faults,
        include_static: false,
        cycle_stride_s: 40_000,
        shard_cycles: Some(1),
        faults: if faults {
            FaultConfig::demo()
        } else {
            FaultConfig::default()
        },
        ..CampaignConfig::default()
    }
}

struct Scenario {
    shards: Vec<ShardRecords>,
    full: DatasetView,
}

/// Shards (plan order) and the rebuilt reference view, computed once
/// per fault mode. Also pins the cross-shard key-uniqueness guarantee
/// arrival-order independence rests on.
fn scenario(faults: bool) -> &'static Scenario {
    static PLAIN: OnceLock<Scenario> = OnceLock::new();
    static FAULTED: OnceLock<Scenario> = OnceLock::new();
    let slot = if faults { &FAULTED } else { &PLAIN };
    slot.get_or_init(|| {
        let campaign = Campaign::standard(7);
        let c = cfg(faults);
        let shards = campaign.shard_records(&c);
        assert!(shards.len() >= 4, "scenario too small to shuffle");
        assert_keys_shard_unique(&shards);
        let full = DatasetView::new(campaign.run(&c));
        Scenario { shards, full }
    })
}

/// The simulator guarantee that makes ingest order irrelevant: no
/// canonical sort key appears in two different shards.
fn assert_keys_shard_unique(shards: &[ShardRecords]) {
    let mut tput = BTreeSet::new();
    let mut rtt = BTreeSet::new();
    let mut cov = BTreeSet::new();
    let mut ho = BTreeSet::new();
    let mut tests = BTreeSet::new();
    for s in shards {
        let ds = &s.dataset;
        for x in &ds.tput {
            assert!(
                tput.insert((x.t.as_millis(), x.test_id)),
                "duplicate tput key across shards"
            );
        }
        for x in &ds.rtt {
            assert!(
                rtt.insert((x.t.as_millis(), x.test_id)),
                "duplicate rtt key across shards"
            );
        }
        for x in &ds.coverage {
            assert!(
                cov.insert((x.t.as_millis(), x.operator.index())),
                "duplicate coverage key across shards"
            );
        }
        for x in &ds.handovers {
            assert!(
                ho.insert((
                    x.event.start.as_millis(),
                    x.operator.index(),
                    x.event.to_cell
                )),
                "duplicate handover key across shards"
            );
        }
        for r in &ds.runs {
            assert!(tests.insert(r.id), "test id split across shards");
        }
    }
}

/// splitmix64 step for the deterministic Fisher–Yates shuffle.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn shuffle(order: &mut [usize], seed: u64) {
    let mut s = seed;
    for i in (1..order.len()).rev() {
        let j = (next(&mut s) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
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

fn assert_close(got: f64, want: f64, what: &str) {
    let tol = 1e-9 * want.abs().max(1.0);
    assert!(
        (got - want).abs() <= tol,
        "{what}: {got} vs {want} (tolerance {tol})"
    );
}

/// Every public query surface of the two views must agree.
fn assert_views_match(got: &DatasetView, want: &DatasetView) {
    const DRV: [Option<bool>; 3] = [None, Some(false), Some(true)];
    for &op in &op_filters() {
        for &drv in &DRV {
            for &dir in &dir_filters() {
                let g: Vec<TputSample> = got.tput_iter(op, dir, drv).collect();
                let w: Vec<TputSample> = want.tput_iter(op, dir, drv).collect();
                assert_eq!(g, w, "tput_iter({op:?},{dir:?},{drv:?})");
                let (gc, wc) = (got.tput_cdf(op, dir, drv), want.tput_cdf(op, dir, drv));
                assert_eq!(gc, wc, "tput_cdf({op:?},{dir:?},{drv:?})");
                for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
                    assert_eq!(gc.quantile(q), wc.quantile(q), "tput quantile {q}");
                }
            }
            let g: Vec<RttSample> = got.rtt_iter(op, drv).collect();
            let w: Vec<RttSample> = want.rtt_iter(op, drv).collect();
            assert_eq!(g, w, "rtt_iter({op:?},{drv:?})");
            let (gc, wc) = (got.rtt_cdf(op, drv), want.rtt_cdf(op, drv));
            assert_eq!(gc, wc, "rtt_cdf({op:?},{drv:?})");
            for q in [0.1, 0.5, 0.9, 0.99] {
                assert_eq!(gc.quantile(q), wc.quantile(q), "rtt quantile {q}");
            }
        }
    }

    for op in Operator::ALL {
        for dir in Direction::ALL {
            for drv in [false, true] {
                for tech in Technology::ALL {
                    let g: Vec<TputSample> = got.tput_tech(op, dir, drv, tech).collect();
                    let w: Vec<TputSample> = want.tput_tech(op, dir, drv, tech).collect();
                    assert_eq!(g, w, "tput_tech({op:?},{dir:?},{drv},{tech:?})");
                    for bin in SpeedBin::ALL {
                        let g: Vec<TputSample> =
                            got.tput_bin_tech(op, dir, drv, bin, tech).collect();
                        let w: Vec<TputSample> =
                            want.tput_bin_tech(op, dir, drv, bin, tech).collect();
                        assert_eq!(g, w, "tput_bin_tech({op:?},{dir:?},{drv},{bin:?},{tech:?})");
                    }
                }
                for tz in Timezone::ALL {
                    let g: Vec<TputSample> = got.tput_tz(op, dir, drv, tz).collect();
                    let w: Vec<TputSample> = want.tput_tz(op, dir, drv, tz).collect();
                    assert_eq!(g, w, "tput_tz({op:?},{dir:?},{drv},{tz:?})");
                }
                let g =
                    serde_json::to_string(&got.tput_correlation(op, dir, drv)).expect("serializes");
                let w = serde_json::to_string(&want.tput_correlation(op, dir, drv))
                    .expect("serializes");
                assert_eq!(g, w, "tput_correlation({op:?},{dir:?},{drv})");
            }
        }
        for drv in [false, true] {
            for tech in Technology::ALL {
                let g: Vec<RttSample> = got.rtt_tech(op, drv, tech).collect();
                let w: Vec<RttSample> = want.rtt_tech(op, drv, tech).collect();
                assert_eq!(g, w, "rtt_tech({op:?},{drv},{tech:?})");
                for bin in SpeedBin::ALL {
                    let g: Vec<RttSample> = got.rtt_bin_tech(op, drv, bin, tech).collect();
                    let w: Vec<RttSample> = want.rtt_bin_tech(op, drv, bin, tech).collect();
                    assert_eq!(g, w, "rtt_bin_tech({op:?},{drv},{bin:?},{tech:?})");
                }
            }
        }
        let g: Vec<_> = got.coverage_for(op).collect();
        let w: Vec<_> = want.coverage_for(op).collect();
        assert_eq!(g, w, "coverage_for({op:?})");
    }

    let g: Vec<(u32, Vec<TputSample>)> = got
        .tput_tests(None, None, None)
        .map(|(id, it)| (id, it.collect()))
        .collect();
    let w: Vec<(u32, Vec<TputSample>)> = want
        .tput_tests(None, None, None)
        .map(|(id, it)| (id, it.collect()))
        .collect();
    assert_eq!(g, w, "tput_tests");
    let g: Vec<(u32, Vec<RttSample>)> = got
        .rtt_tests(None, None)
        .map(|(id, it)| (id, it.collect()))
        .collect();
    let w: Vec<(u32, Vec<RttSample>)> = want
        .rtt_tests(None, None)
        .map(|(id, it)| (id, it.collect()))
        .collect();
    assert_eq!(g, w, "rtt_tests");

    assert_eq!(got.impacts(), want.impacts(), "handover impacts");

    // Small tables are physically canonical on both sides.
    let (gc, wc) = (got.columns(), want.columns());
    assert_eq!(gc.runs, wc.runs, "runs table");
    assert_eq!(gc.handovers, wc.handovers, "handovers table");
    assert_eq!(gc.apps, wc.apps, "apps table");
    assert_eq!(gc.audits, wc.audits, "audits table");

    // Table 1 accounting: cell counts and runtimes are integer-derived
    // and must match exactly; byte totals are f64 sums whose order
    // follows arrival, so they match to accumulation round-off.
    assert_eq!(
        got.unique_cells().collect::<Vec<_>>(),
        want.unique_cells().collect::<Vec<_>>(),
        "unique cells"
    );
    assert_eq!(
        got.runtime_min().collect::<Vec<_>>(),
        want.runtime_min().collect::<Vec<_>>(),
        "runtime minutes"
    );
    assert_close(gc.rx_bytes, wc.rx_bytes, "rx_bytes");
    assert_close(gc.tx_bytes, wc.tx_bytes, "tx_bytes");
    assert_close(gc.log_bytes, wc.log_bytes, "log_bytes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any shard arrival order, faults off or on: the incrementally
    /// ingested view answers every query identically to the full
    /// rebuild, and surrendering the dataset restores the canonical
    /// tables bit-for-bit.
    #[test]
    fn shuffled_ingest_matches_full_rebuild(order_seed in any::<u64>(), faulted in any::<bool>()) {
        let sc = scenario(faulted);
        let mut order: Vec<usize> = (0..sc.shards.len()).collect();
        shuffle(&mut order, order_seed);

        let mut view = DatasetView::new(Dataset::default());
        for &i in &order {
            view.ingest_shard(sc.shards[i].clone());
        }
        assert_views_match(&view, &sc.full);

        let exported = view.to_dataset();
        let want = &sc.full.to_dataset();
        prop_assert_eq!(&exported.tput, &want.tput);
        prop_assert_eq!(&exported.rtt, &want.rtt);
        prop_assert_eq!(&exported.coverage, &want.coverage);
        prop_assert_eq!(&exported.runs, &want.runs);
        prop_assert_eq!(&exported.handovers, &want.handovers);
        prop_assert_eq!(&exported.apps, &want.apps);
        prop_assert_eq!(&exported.audits, &want.audits);
        prop_assert_eq!(&exported.unique_cells, &want.unique_cells);
        prop_assert_eq!(&exported.runtime_min, &want.runtime_min);
    }
}

/// The reorder window is a pure runtime knob even with faults and apps
/// in play: any (threads, merge_window) pair produces the reference
/// bytes, and residency never exceeds the window.
#[test]
fn merge_window_is_runtime_knob_under_faults() {
    let campaign = Campaign::standard(7);
    let base = cfg(true);
    let want = serde_json::to_string(&scenario(true).full.to_dataset()).expect("serializes");
    for (threads, window) in [(1, Some(1)), (4, Some(1)), (2, Some(3)), (4, None)] {
        let mut c = base.clone();
        c.threads = Some(threads);
        c.merge_window = window;
        let (ds, stats) = campaign.run_with_stats(&c);
        let got = serde_json::to_string(&ds).expect("serializes");
        assert_eq!(got, want, "threads={threads} window={window:?}");
        if let Some(w) = window {
            assert!(
                stats.peak_resident <= w,
                "window {w} held {} shards resident",
                stats.peak_resident
            );
        }
    }
}
