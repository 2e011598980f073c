//! Crash-consistency matrix for campaign checkpointing.
//!
//! The guarantee under test: a `--checkpoint` campaign killed at **any
//! byte** of its journal can be resumed and produces a dataset
//! byte-identical to an uninterrupted run — at any thread count, with
//! faults off or on. The harness simulates the kill by truncating a
//! completed run's journal at every frame boundary and at mid-frame
//! offsets (inside both the length/checksum prefix and the payload),
//! then resuming from the mutilated file.

use std::path::{Path, PathBuf};

use wheels_core::campaign::{Campaign, CampaignConfig};
use wheels_core::checkpoint::{frame_ends, CheckpointError, JOURNAL_FILE};
use wheels_core::disrupt::FaultConfig;
use wheels_core::records::Dataset;

/// A tiny campaign with a real shard plan: 3 cycles split one per shard
/// across 3 operators = 9 shard frames behind the header.
fn cfg(faults: FaultConfig, threads: Option<usize>) -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        max_cycles: Some(3),
        include_apps: false,
        include_static: false,
        cycle_stride_s: 40_000,
        shard_cycles: Some(1),
        threads,
        faults,
        ..CampaignConfig::default()
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("crash_resume")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn json(ds: &Dataset) -> String {
    serde_json::to_string(ds).unwrap()
}

/// Plant a journal truncated at `cut` bytes in a fresh checkpoint dir.
fn plant_truncated(journal: &[u8], cut: usize, dir: &Path) {
    std::fs::write(dir.join(JOURNAL_FILE), &journal[..cut]).unwrap();
}

#[test]
fn kill_point_matrix_resumes_byte_identical() {
    let campaign = Campaign::standard(42);
    for faults in [FaultConfig::default(), FaultConfig::demo()] {
        let baseline = json(&campaign.run(&cfg(faults, Some(2))));
        let full_dir = tmpdir(&format!("full_faults_{}", faults.enabled));
        let ds = campaign
            .run_checkpointed(&cfg(faults, Some(2)), &full_dir, false)
            .unwrap();
        assert_eq!(json(&ds), baseline, "checkpointing must not change output");
        let bytes = std::fs::read(full_dir.join(JOURNAL_FILE)).unwrap();
        let ends: Vec<usize> = frame_ends(&full_dir)
            .unwrap()
            .into_iter()
            .map(|e| usize::try_from(e).unwrap())
            .collect();
        assert_eq!(ends.len(), 10, "header + 9 shard frames, got {ends:?}");
        assert_eq!(*ends.last().unwrap(), bytes.len());
        // Kill points: every frame boundary, one offset inside each
        // frame's 12-byte length/checksum prefix, and one mid-payload.
        let mut cuts: Vec<usize> = ends.clone();
        for w in ends.windows(2) {
            cuts.push(w[0] + 5);
            cuts.push((w[0] + w[1]) / 2);
        }
        cuts.sort_unstable();
        cuts.dedup();
        for cut in cuts {
            for threads in [1usize, 4] {
                let dir = tmpdir(&format!("cut_{}_{cut}_t{threads}", faults.enabled));
                plant_truncated(&bytes, cut, &dir);
                let resumed = campaign
                    .run_checkpointed(&cfg(faults, Some(threads)), &dir, true)
                    .unwrap_or_else(|e| panic!("resume at cut {cut}, {threads} threads: {e}"));
                assert_eq!(
                    json(&resumed),
                    baseline,
                    "cut {cut}, {threads} threads, faults {}",
                    faults.enabled
                );
                // The resumed run healed the journal: torn tail gone,
                // every shard re-journalled.
                let healed = frame_ends(&dir).unwrap();
                assert_eq!(healed.len(), 10, "cut {cut}: journal not healed");
            }
        }
    }
}

#[test]
fn torn_header_is_refused_and_fresh_checkpoint_recovers() {
    let campaign = Campaign::standard(42);
    let c = cfg(FaultConfig::default(), Some(2));
    let full_dir = tmpdir("header_full");
    let baseline = json(&campaign.run_checkpointed(&c, &full_dir, false).unwrap());
    let bytes = std::fs::read(full_dir.join(JOURNAL_FILE)).unwrap();
    let header_end = usize::try_from(frame_ends(&full_dir).unwrap()[0]).unwrap();
    // A kill anywhere inside journal creation (before the header frame is
    // complete) cannot happen through `Journal::create`'s atomic rename —
    // but disk corruption can get there, and resume must refuse rather
    // than trust an unverifiable file.
    for cut in [0, 2, header_end / 2, header_end - 1] {
        let dir = tmpdir(&format!("header_cut_{cut}"));
        plant_truncated(&bytes, cut, &dir);
        let err = campaign.run_checkpointed(&c, &dir, true).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Invalid(_)),
            "cut {cut}: {err}"
        );
        // Nothing was salvageable; a fresh --checkpoint run in the same
        // directory replaces the wreck and completes normally.
        let ds = campaign.run_checkpointed(&c, &dir, false).unwrap();
        assert_eq!(json(&ds), baseline);
    }
    // --resume with no journal at all: a clear error, not a silent fresh
    // start that would mask a mistyped directory.
    let dir = tmpdir("no_journal");
    let err = campaign.run_checkpointed(&c, &dir, true).unwrap_err();
    match err {
        CheckpointError::Invalid(d) => assert!(d.contains("--checkpoint"), "{d}"),
        other => panic!("expected Invalid, got {other:?}"),
    }
}

#[test]
fn merge_window_resume_matrix_byte_identical() {
    // The merge window is NOT part of the run identity: a journal written
    // under a tight window resumes under any window (or none), at any
    // thread count, with faults off or on — and reproduces the baseline
    // bytes while honouring the new bound.
    let campaign = Campaign::standard(42);
    for faults in [FaultConfig::default(), FaultConfig::demo()] {
        let baseline = json(&campaign.run(&cfg(faults, Some(1))));
        let tight = {
            let mut c = cfg(faults, Some(2));
            c.merge_window = Some(1);
            c
        };
        let full_dir = tmpdir(&format!("window_full_{}", faults.enabled));
        let ds = campaign.run_checkpointed(&tight, &full_dir, false).unwrap();
        assert_eq!(
            json(&ds),
            baseline,
            "windowed checkpointing must not change output"
        );
        let bytes = std::fs::read(full_dir.join(JOURNAL_FILE)).unwrap();
        let ends = frame_ends(&full_dir).unwrap();
        // Kill mid-campaign: 5 of the 9 shard frames survive.
        let cut = usize::try_from(ends[5]).unwrap();
        for threads in [1usize, 4] {
            for window in [Some(1), Some(4), None] {
                let dir = tmpdir(&format!(
                    "window_cut_{}_t{threads}_w{}",
                    faults.enabled,
                    window.map_or(0, |w| w)
                ));
                plant_truncated(&bytes, cut, &dir);
                let mut conf = cfg(faults, Some(threads));
                conf.merge_window = window;
                let (resumed, stats) = campaign
                    .run_checkpointed_with_stats(&conf, &dir, true)
                    .unwrap_or_else(|e| {
                        panic!(
                            "resume t={threads} w={window:?} faults={}: {e}",
                            faults.enabled
                        )
                    });
                assert_eq!(
                    json(&resumed),
                    baseline,
                    "threads={threads}, window={window:?}, faults={}",
                    faults.enabled
                );
                if let Some(w) = window {
                    assert!(
                        stats.peak_resident <= w,
                        "resume threads={threads}, window={w}: {} shards resident",
                        stats.peak_resident
                    );
                }
            }
        }
    }
}

#[test]
fn view_from_journal_replays_to_identical_dataset() {
    use wheels_core::analysis::view::DatasetView;

    // A single-threaded checkpoint run appends frames in plan order, so
    // replaying the journal through the incremental `ingest_shard`
    // pipeline must reproduce the campaign bytes exactly (f64 byte
    // totals accumulate in the same order).
    let campaign = Campaign::standard(42);
    let c = cfg(FaultConfig::default(), Some(1));
    let baseline = json(&campaign.run(&c));
    let dir = tmpdir("from_journal");
    campaign.run_checkpointed(&c, &dir, false).unwrap();
    let fp = campaign.fingerprint(&c);
    let (view, st) = DatasetView::from_journal(&dir, &fp).unwrap();
    assert_eq!(st.delivered, 9, "expected all 9 shard frames to replay");
    assert_eq!(json(&view.to_dataset()), baseline);

    // The replay is strictly read-only: a torn tail yields the intact
    // prefix without healing the file.
    let bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
    let ends = frame_ends(&dir).unwrap();
    let cut = usize::try_from(ends[4]).unwrap() + 7;
    let torn_dir = tmpdir("from_journal_torn");
    plant_truncated(&bytes, cut, &torn_dir);
    let (_, st) = DatasetView::from_journal(&torn_dir, &fp).unwrap();
    assert_eq!(st.delivered, 4, "4 intact shard frames behind the header");
    assert_eq!(
        st.next_offset, ends[4],
        "resume cursor must point at the torn frame's start"
    );
    let len = std::fs::metadata(torn_dir.join(JOURNAL_FILE))
        .unwrap()
        .len();
    assert_eq!(len, u64::try_from(cut).unwrap(), "journal was mutated");
}

#[test]
fn mismatched_fingerprints_are_refused_with_diagnostics() {
    let campaign = Campaign::standard(42);
    let c = cfg(FaultConfig::default(), Some(2));
    let dir = tmpdir("mismatch");
    let baseline = json(&campaign.run_checkpointed(&c, &dir, false).unwrap());

    let refuse =
        |other: &CampaignConfig, field: &str| match campaign.run_checkpointed(other, &dir, true) {
            Err(CheckpointError::Mismatch(d)) => {
                assert!(d.contains(field), "diagnostic for {field}: {d}")
            }
            Err(other) => panic!("expected Mismatch for {field}, got {other}"),
            Ok(_) => panic!("a journal with a different {field} was silently merged"),
        };
    // Different seed.
    let mut other = c.clone();
    other.seed = 43;
    refuse(&other, "seed");
    // Different scale (cycle cap — also reshapes the shard plan).
    let mut other = c.clone();
    other.max_cycles = Some(2);
    refuse(&other, "max_cycles");
    // Different FaultConfig.
    let mut other = c.clone();
    other.faults = FaultConfig::demo();
    refuse(&other, "faults");
    // `threads` is NOT part of the run identity: the engine guarantees
    // thread-count invariance, so a journal written at 2 threads resumes
    // fine at 4 — and still reproduces the baseline bytes.
    let mut other = c.clone();
    other.threads = Some(4);
    let ds = campaign.run_checkpointed(&other, &dir, true).unwrap();
    assert_eq!(json(&ds), baseline);
}
