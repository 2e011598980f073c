//! Property tests for the columnar data layer: for every table,
//! row → column → row must be the identity on arbitrarily shuffled
//! inserts (no normalization required), the WCD1 binary encoding must
//! round-trip bit-exactly (including non-finite floats), and the
//! generated columns must satisfy the structural `check()` and carry no
//! NaN the rows didn't. Each record is expanded deterministically from
//! one random `u64` seed, like the view property tests.

use proptest::prelude::*;
use wheels_apps::arcav::OffloadStats;
use wheels_apps::gaming::GamingStats;
use wheels_apps::video::{ChunkRecord, VideoStats};
use wheels_core::analysis::view::DatasetView;
use wheels_core::column::{wcd, ColumnarDataset, NONE_CODE};
use wheels_core::disrupt::FaultKind;
use wheels_core::records::{
    AppRun, CoverageSample, Dataset, RttSample, TaggedHandover, TestAudit, TestKind, TestRun,
    TestStatus, TputSample,
};
use wheels_geo::route::ZoneClass;
use wheels_radio::tech::{Direction, Technology};
use wheels_ran::cells::CellId;
use wheels_ran::operator::Operator;
use wheels_ran::session::{HandoverEvent, HandoverKind};
use wheels_sim_core::time::{SimDuration, SimTime, Timezone};
use wheels_transport::servers::ServerKind;

/// splitmix64 step: one seed fans out into as many independent field
/// draws as a record needs.
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

const TEST_KINDS: [TestKind; 7] = [
    TestKind::DownlinkTput,
    TestKind::UplinkTput,
    TestKind::Rtt,
    TestKind::Ar,
    TestKind::Cav,
    TestKind::Video,
    TestKind::Gaming,
];

const HO_KINDS: [HandoverKind; 4] = [
    HandoverKind::Horizontal4g,
    HandoverKind::Horizontal5g,
    HandoverKind::Up4gTo5g,
    HandoverKind::Down5gTo4g,
];

const STATUSES: [TestStatus; 3] = [TestStatus::Completed, TestStatus::Partial, TestStatus::Lost];

const FAULTS: [FaultKind; 4] = [
    FaultKind::ServerOutage,
    FaultKind::AppCrash,
    FaultKind::LoggerGap,
    FaultKind::ClockDrift,
];

fn t_at(state: &mut u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_millis(next(state) % 5_000_000)
}

fn tput_from(seed: u64) -> TputSample {
    let mut s = seed;
    TputSample {
        t: t_at(&mut s),
        test_id: (next(&mut s) % 500) as u32,
        operator: pick(&mut s, &Operator::ALL),
        direction: pick(&mut s, &Direction::ALL),
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
        driving: next(&mut s) % 2 == 1,
    }
}

fn rtt_from(seed: u64) -> RttSample {
    let mut s = seed;
    RttSample {
        t: t_at(&mut s),
        test_id: (next(&mut s) % 500) as u32,
        operator: pick(&mut s, &Operator::ALL),
        rtt_ms: (!next(&mut s).is_multiple_of(8)).then(|| 1.0 + unit(&mut s) * 300.0),
        tech: pick(&mut s, &Technology::ALL),
        speed_mph: unit(&mut s) * 80.0,
        tz: pick(&mut s, &Timezone::ALL),
        server: pick(&mut s, &[ServerKind::Cloud, ServerKind::Edge]),
        driving: next(&mut s) % 2 == 1,
    }
}

fn cov_from(seed: u64) -> CoverageSample {
    let mut s = seed;
    CoverageSample {
        t: t_at(&mut s),
        operator: pick(&mut s, &Operator::ALL),
        tech: (!next(&mut s).is_multiple_of(5)).then(|| pick(&mut s, &Technology::ALL)),
        direction: (!next(&mut s).is_multiple_of(3)).then(|| pick(&mut s, &Direction::ALL)),
        miles: unit(&mut s) * 0.1,
        speed_mph: unit(&mut s) * 80.0,
        tz: pick(&mut s, &Timezone::ALL),
        zone: pick(&mut s, &ZoneClass::ALL),
    }
}

fn run_from(seed: u64) -> TestRun {
    let mut s = seed;
    let start = t_at(&mut s);
    TestRun {
        id: (next(&mut s) % 500) as u32,
        kind: pick(&mut s, &TEST_KINDS),
        operator: pick(&mut s, &Operator::ALL),
        start,
        end: start + SimDuration::from_millis(next(&mut s) % 300_000),
        miles: unit(&mut s) * 5.0,
        tz: pick(&mut s, &Timezone::ALL),
        server: pick(&mut s, &[ServerKind::Cloud, ServerKind::Edge]),
        hs5g_fraction: unit(&mut s),
        handovers: (next(&mut s) % 40) as u32,
        driving: next(&mut s) % 2 == 1,
        partial: next(&mut s).is_multiple_of(7),
    }
}

fn handover_from(seed: u64) -> TaggedHandover {
    let mut s = seed;
    TaggedHandover {
        event: HandoverEvent {
            start: t_at(&mut s),
            duration: SimDuration::from_millis(next(&mut s) % 10_000),
            from_cell: CellId((next(&mut s) % 50) as u32),
            to_cell: CellId((next(&mut s) % 50) as u32),
            from_tech: pick(&mut s, &Technology::ALL),
            to_tech: pick(&mut s, &Technology::ALL),
            kind: pick(&mut s, &HO_KINDS),
        },
        operator: pick(&mut s, &Operator::ALL),
        test_id: (!next(&mut s).is_multiple_of(4)).then(|| (next(&mut s) % 500) as u32),
        direction: (!next(&mut s).is_multiple_of(3)).then(|| pick(&mut s, &Direction::ALL)),
    }
}

fn app_from(seed: u64) -> AppRun {
    let mut s = seed;
    let kind = pick(
        &mut s,
        &[
            TestKind::Ar,
            TestKind::Cav,
            TestKind::Video,
            TestKind::Gaming,
        ],
    );
    let offload = matches!(kind, TestKind::Ar | TestKind::Cav).then(|| OffloadStats {
        e2e_ms: (0..next(&mut s) % 20)
            .map(|_| unit(&mut s) * 200.0)
            .collect(),
        frames_offloaded: (next(&mut s) % 3_000) as usize,
        frames_total: (next(&mut s) % 5_000) as usize,
        compressed: next(&mut s) % 2 == 1,
        high_speed_5g_fraction: unit(&mut s),
        handovers: (next(&mut s) % 30) as usize,
    });
    let video = matches!(kind, TestKind::Video).then(|| VideoStats {
        chunks: (0..next(&mut s) % 15)
            .map(|_| ChunkRecord {
                bitrate_mbps: unit(&mut s) * 50.0,
                rebuffer_s: unit(&mut s) * 3.0,
                qoe: unit(&mut s) * 5.0 - 1.0,
            })
            .collect(),
        high_speed_5g_fraction: unit(&mut s),
        handovers: (next(&mut s) % 30) as usize,
    });
    let gaming = matches!(kind, TestKind::Gaming).then(|| GamingStats {
        bitrate_mbps: (0..next(&mut s) % 20)
            .map(|_| unit(&mut s) * 40.0)
            .collect(),
        latency_ms: (0..next(&mut s) % 30)
            .map(|_| unit(&mut s) * 150.0)
            .collect(),
        frames_dropped: (next(&mut s) % 200) as usize,
        frames_sent: (next(&mut s) % 10_000) as usize,
        high_speed_5g_fraction: unit(&mut s),
        handovers: (next(&mut s) % 30) as usize,
    });
    AppRun {
        id: (next(&mut s) % 500) as u32,
        operator: pick(&mut s, &Operator::ALL),
        kind,
        server: pick(&mut s, &[ServerKind::Cloud, ServerKind::Edge]),
        driving: next(&mut s) % 2 == 1,
        offload,
        video,
        gaming,
    }
}

fn audit_from(seed: u64) -> TestAudit {
    let mut s = seed;
    let planned = (next(&mut s) % 400) as u32;
    let recorded = if planned == 0 {
        0
    } else {
        (next(&mut s) % u64::from(planned + 1)) as u32
    };
    TestAudit {
        test_id: (next(&mut s) % 500) as u32,
        operator: pick(&mut s, &Operator::ALL),
        kind: pick(&mut s, &TEST_KINDS),
        day: (next(&mut s) % 14) as u8,
        scheduled: t_at(&mut s),
        status: pick(&mut s, &STATUSES),
        attempts: 1 + (next(&mut s) % 3) as u32,
        fault: (!next(&mut s).is_multiple_of(3)).then(|| pick(&mut s, &FAULTS)),
        planned_samples: planned,
        recorded_samples: recorded,
        lost_samples: planned - recorded,
    }
}

/// A dataset with every table populated from the seed lists, in whatever
/// shuffled order the seeds produced — deliberately *not* normalized, so
/// the converters have to preserve arbitrary row order.
fn dataset_from(seeds: &[u64]) -> Dataset {
    let mut s = seeds.iter().fold(0x5EED_u64, |a, b| a ^ b.wrapping_mul(3));
    Dataset {
        tput: seeds.iter().map(|&x| tput_from(x)).collect(),
        rtt: seeds.iter().map(|&x| rtt_from(x.wrapping_add(1))).collect(),
        coverage: seeds.iter().map(|&x| cov_from(x.wrapping_add(2))).collect(),
        runs: seeds.iter().map(|&x| run_from(x.wrapping_add(3))).collect(),
        handovers: seeds
            .iter()
            .map(|&x| handover_from(x.wrapping_add(4)))
            .collect(),
        apps: seeds.iter().map(|&x| app_from(x.wrapping_add(5))).collect(),
        audits: seeds
            .iter()
            .map(|&x| audit_from(x.wrapping_add(6)))
            .collect(),
        rx_bytes: unit(&mut s) * 1e12,
        tx_bytes: unit(&mut s) * 1e11,
        log_bytes: unit(&mut s) * 1e10,
        unique_cells: Operator::ALL
            .into_iter()
            .map(|op| (op, (next(&mut s) % 900) as usize))
            .collect(),
        runtime_min: Operator::ALL
            .into_iter()
            .map(|op| (op, unit(&mut s) * 4_000.0))
            .collect(),
    }
}

/// Every f64 column the table layer emits, for the NaN sweep.
fn all_f64_columns(c: &ColumnarDataset) -> Vec<(&'static str, &[f64])> {
    vec![
        ("tput.mbps", &c.tput.mbps),
        ("tput.speed_mph", &c.tput.speed_mph),
        ("tput.rsrp_dbm", &c.tput.rsrp_dbm),
        ("tput.bler", &c.tput.bler),
        ("rtt.rtt_ms", &c.rtt.rtt_ms),
        ("rtt.speed_mph", &c.rtt.speed_mph),
        ("coverage.miles", &c.coverage.miles),
        ("coverage.speed_mph", &c.coverage.speed_mph),
        ("runs.miles", &c.runs.miles),
        ("runs.hs5g_fraction", &c.runs.hs5g_fraction),
        ("apps.off_e2e_ms", &c.apps.off_e2e_ms),
        ("apps.off_hs5g", &c.apps.off_hs5g),
        ("apps.vid_bitrate_mbps", &c.apps.vid_bitrate_mbps),
        ("apps.vid_rebuffer_s", &c.apps.vid_rebuffer_s),
        ("apps.vid_qoe", &c.apps.vid_qoe),
        ("apps.vid_hs5g", &c.apps.vid_hs5g),
        ("apps.gam_bitrate_mbps", &c.apps.gam_bitrate_mbps),
        ("apps.gam_latency_ms", &c.apps.gam_latency_ms),
        ("apps.gam_hs5g", &c.apps.gam_hs5g),
        ("runtime_min", &c.runtime_min),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Row → column → row is the identity for every table at once, on
    /// shuffled (un-normalized) inserts, and the intermediate columns
    /// pass the structural check.
    #[test]
    fn row_column_row_is_lossless(seeds in prop::collection::vec(any::<u64>(), 0..150)) {
        let ds = dataset_from(&seeds);
        let cols = ColumnarDataset::from_rows(&ds);
        prop_assert!(cols.check().is_ok(), "structural check: {:?}", cols.check());
        let back = cols.to_rows().expect("from_rows output decodes");
        prop_assert_eq!(back, ds);
    }

    /// The WCD1 binary encoding is bit-exact: encode → decode → rows
    /// equals the source rows, and a second encode is byte-identical
    /// (the format has a single canonical serialization).
    #[test]
    fn wcd_binary_roundtrip_is_bit_exact(seeds in prop::collection::vec(any::<u64>(), 0..80)) {
        let ds = dataset_from(&seeds);
        let cols = ColumnarDataset::from_rows(&ds);
        let bytes = wcd::encode(&cols);
        let decoded = wcd::decode(&bytes).expect("encoded dataset decodes");
        prop_assert_eq!(decoded.to_rows().expect("decoded columns to rows"), ds);
        prop_assert_eq!(wcd::encode(&decoded), bytes, "re-encode is byte-identical");
    }

    /// Rows with finite fields yield NaN-free columns: optional floats
    /// travel as validity + placeholder pairs, never as NaN sentinels.
    #[test]
    fn columns_are_nan_free(seeds in prop::collection::vec(any::<u64>(), 0..150)) {
        let cols = ColumnarDataset::from_rows(&dataset_from(&seeds));
        for (name, col) in all_f64_columns(&cols) {
            prop_assert!(col.iter().all(|v| !v.is_nan()), "NaN leaked into {}", name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A valid but unsorted columnar dataset (a foreign or hand-built
    /// file) builds the same view as its sorted twin: identical
    /// canonical rows and identical memoized CDFs and coverage shares.
    #[test]
    fn unsorted_columns_build_the_sorted_view(seeds in prop::collection::vec(any::<u64>(), 2..60)) {
        let ds = dataset_from(&seeds);
        let mut sorted_rows = ds.clone();
        sorted_rows.normalize();
        let shuffled = DatasetView::from_columns(ColumnarDataset::from_rows(&ds))
            .expect("valid unsorted columns build a view");
        let sorted = DatasetView::from_columns(ColumnarDataset::from_rows(&sorted_rows))
            .expect("valid sorted columns build a view");
        prop_assert_eq!(shuffled.to_dataset(), sorted_rows.clone());
        prop_assert_eq!(sorted.to_dataset(), sorted_rows);
        let ops = [None, Some(Operator::Verizon), Some(Operator::TMobile), Some(Operator::Att)];
        for op in ops {
            for drv in [None, Some(false), Some(true)] {
                for dir in [None, Some(Direction::Downlink), Some(Direction::Uplink)] {
                    prop_assert_eq!(shuffled.tput_cdf(op, dir, drv), sorted.tput_cdf(op, dir, drv));
                }
                prop_assert_eq!(shuffled.rtt_cdf(op, drv), sorted.rtt_cdf(op, drv));
            }
        }
        for op in Operator::ALL {
            prop_assert_eq!(
                shuffled.coverage_share(op).pct_5g(),
                sorted.coverage_share(op).pct_5g()
            );
        }
    }
}

/// WCD1 decoding is total over enum codes: an image whose code columns
/// hold a value outside the catalogue is refused by `wcd::decode` (and
/// by `DatasetView::from_columns`), instead of decoding to columns that
/// would index past the view's partition arrays.
#[test]
fn unknown_enum_codes_are_refused() {
    let good = ColumnarDataset::from_rows(&dataset_from(&[1, 2, 3, 4, 5, 6, 7, 8]));
    assert!(wcd::decode(&wcd::encode(&good)).is_ok());
    type Corrupt = fn(&mut ColumnarDataset);
    let corruptions: [(&str, Corrupt); 8] = [
        ("tput operator", |c| c.tput.operator[0] = 9),
        // One past the last technology (the `None` sentinel is 0xFF).
        ("coverage tech", |c| {
            c.coverage.tech[0] = Technology::ALL.len() as u8
        }),
        ("tput driving", |c| c.tput.driving[0] = 2),
        ("rtt tech", |c| c.rtt.tech[0] = NONE_CODE),
        ("runs kind", |c| c.runs.kind[0] = 7),
        ("handover direction", |c| c.handovers.direction[0] = 2),
        ("app kind", |c| c.apps.kind[0] = 200),
        ("unique-cell operator", |c| c.cells_operator[0] = 3),
    ];
    for (what, corrupt) in corruptions {
        let mut bad = good.clone();
        corrupt(&mut bad);
        let err = wcd::decode(&wcd::encode(&bad)).expect_err(what);
        assert!(err.to_string().contains(what), "{what}: {err}");
        let err = DatasetView::from_columns(bad)
            .err()
            .unwrap_or_else(|| panic!("{what}: the view accepted the code"));
        assert!(err.to_string().contains(what), "{what}: {err}");
    }
}

/// App sections that do not add up to their length columns are refused
/// by the structural check, so the view's row walk cannot overrun.
#[test]
fn app_sections_must_match_their_length_columns() {
    let good = ColumnarDataset::from_rows(&dataset_from(&[1, 2, 3, 4, 5, 6, 7, 8]));
    let mut bad = good.clone();
    bad.apps.off_e2e_ms.push(1.0);
    assert!(bad.check().is_err());
    let mut bad = good;
    bad.apps.gam_latency_ms.pop();
    assert!(bad.check().is_err());
}

/// Empty tables are not a degenerate case: the empty dataset round-trips
/// through columns and through the binary format, and the binary file is
/// still a valid, non-empty catalogue (magic + per-column headers).
#[test]
fn empty_dataset_roundtrips_everywhere() {
    let ds = Dataset::default();
    let cols = ColumnarDataset::from_rows(&ds);
    assert!(cols.check().is_ok());
    assert_eq!(cols.to_rows().expect("empty columns to rows"), ds);
    let bytes = wcd::encode(&cols);
    assert_eq!(&bytes[..4], wcd::MAGIC);
    let decoded = wcd::decode(&bytes).expect("empty encoding decodes");
    assert_eq!(decoded.to_rows().expect("decoded empty to rows"), ds);
}

/// Non-finite floats a future producer might emit survive the binary
/// format bit-for-bit — payloads are raw IEEE-754 patterns, not text.
#[test]
fn non_finite_floats_survive_the_binary_format() {
    let mut ds = Dataset::default();
    let mut t = tput_from(7);
    t.mbps = f64::NAN;
    t.rsrp_dbm = f64::NEG_INFINITY;
    ds.tput.push(t);
    ds.log_bytes = f64::INFINITY;
    let bytes = wcd::encode(&ColumnarDataset::from_rows(&ds));
    let back = wcd::decode(&bytes).expect("decodes");
    assert!(back.tput.mbps[0].is_nan());
    assert_eq!(back.tput.rsrp_dbm[0], f64::NEG_INFINITY);
    assert_eq!(back.log_bytes, f64::INFINITY);
}
