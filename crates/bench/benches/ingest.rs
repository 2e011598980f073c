//! Streaming-ingest timings — incremental `DatasetView::ingest_shard`
//! vs a full rebuild, and streaming-merge peak residency vs the
//! reorder-window size.
//!
//! Like the campaign and storage benches, deliberately not Criterion:
//! one full ingest pass or one windowed campaign run is the right
//! granularity, and the results land in `BENCH_ingest.json` at the
//! repo root as a tracked baseline.
//!
//! Usage:
//!
//! ```text
//! cargo bench -p wheels-bench --bench ingest              # Quick scale
//! cargo bench -p wheels-bench --bench ingest -- --standard
//! ```
//!
//! The ingest column answers "what does keeping the view live cost per
//! arriving shard?": all plan-order shards are spliced into one empty
//! view and the total is divided by the shard count. The rebuild
//! column is the alternative it replaces — `DatasetView::new` over the
//! fully merged dataset. The order sweep repeats the ingest pass in
//! the arrival orders a view actually sees: plan order, the file order
//! of journals written by 2- and 4-thread checkpointed runs (frames
//! land in completion order, which `from_journal` replays as is), the
//! reversed plan and a seeded shuffle; for each it also counts the
//! shards whose app runs arrive below an already-ingested test id (the
//! shards a plan-order-only append would not cover). The window sweep runs the streaming campaign
//! merge at several reorder-window sizes and records the engine's own
//! `MergeStats`, pinning the residency-vs-window contract (peak
//! resident shards never exceed the window).

use std::path::PathBuf;
use std::time::Instant;

use wheels_core::analysis::view::DatasetView;
use wheels_core::campaign::{Campaign, CampaignConfig};
use wheels_core::checkpoint;
use wheels_core::records::{Dataset, ShardRecords};
use wheels_experiments::world::Scale;
use wheels_sim_core::rng::SimRng;

fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let sink = f();
        best = best.min(t0.elapsed().as_secs_f64());
        // Keep the optimizer honest.
        assert!(sink.is_finite());
    }
    best
}

const WINDOWS: [Option<usize>; 4] = [Some(1), Some(4), Some(8), None];

struct WindowPoint {
    window: Option<usize>,
    secs: f64,
    peak_resident: usize,
    spilled: usize,
}

struct ScaleResult {
    name: &'static str,
    shards: usize,
    tput_samples: usize,
    rebuild_secs: f64,
    /// (arrival order, best ingest pass secs, shards with apps below a
    /// stored id), plan order first.
    orders: Vec<(&'static str, f64, usize)>,
    windows: Vec<WindowPoint>,
}

/// Shards whose first app run sorts below the highest test id already
/// ingested when they arrive.
fn apps_below_stored(shards: &[ShardRecords]) -> usize {
    let mut max_id = None;
    let mut below = 0;
    for s in shards {
        let apps = &s.dataset.apps;
        if let (Some(first), Some(&max)) = (apps.iter().map(|a| a.id).min(), max_id.as_ref()) {
            below += usize::from(first < max);
        }
        max_id = max_id.max(apps.iter().map(|a| a.id).max());
    }
    below
}

/// The shards in the file order of a fresh checkpoint journal written
/// by a `threads`-worker run.
fn journal_order(campaign: &Campaign, scale: Scale, threads: usize) -> Vec<ShardRecords> {
    let cfg = CampaignConfig {
        threads: Some(threads),
        ..scale.config()
    };
    let dir = std::env::temp_dir().join(format!("wheels-ingest-{}-{threads}", std::process::id()));
    campaign
        .run_checkpointed(&cfg, &dir, false)
        .expect("journalled run");
    let mut frames = Vec::new();
    checkpoint::tail(&dir, &campaign.fingerprint(&cfg), |_, rec| {
        frames.push(rec);
        Ok(())
    })
    .expect("journal replays");
    std::fs::remove_dir_all(&dir).expect("remove journal dir");
    frames
}

/// Best-of-`reps` time to ingest `shards` in the given order into one
/// empty view.
fn time_ingest(shards: &[ShardRecords], reps: usize) -> f64 {
    let mut sets: Vec<_> = (0..reps).map(|_| shards.to_vec()).collect();
    best_of(reps, || {
        let set = sets.pop().expect("one shard set per rep");
        let mut view = DatasetView::new(Dataset::default());
        for rec in set {
            view.ingest_shard(rec);
        }
        view.columns().tput.len() as f64
    })
}

fn bench_scale(campaign: &Campaign, name: &'static str, scale: Scale, reps: usize) -> ScaleResult {
    eprintln!("{name} scale: building shards...");
    let cfg = scale.config();
    let shards = campaign.shard_records(&cfg);
    let full = campaign.run(&cfg);
    let tput_samples = full.tput.len();

    // Full rebuild: normalize sort + columnarize + index build over the
    // already-merged dataset. Sources are pre-cloned outside the timer.
    let mut rebuild_sources: Vec<_> = (0..reps).map(|_| full.clone()).collect();
    let rebuild_secs = best_of(reps, || {
        let src = rebuild_sources.pop().expect("one source per rep");
        DatasetView::new(src).columns().tput.len() as f64
    });

    // Incremental ingest: splice every shard into one initially empty
    // view, in each arrival order a live view meets.
    let mut reversed = shards.clone();
    reversed.reverse();
    let mut shuffled = shards.clone();
    let mut rng = SimRng::seed(2022).split("bench/ingest/shuffle");
    for i in (1..shuffled.len()).rev() {
        // lint: allow(lossy-cast, shard indices are far below u64::MAX and back)
        shuffled.swap(i, rng.uniform_u64(0, i as u64 + 1) as usize);
    }
    let orders = [
        ("plan", shards.clone()),
        ("journal-2-threads", journal_order(campaign, scale, 2)),
        ("journal-4-threads", journal_order(campaign, scale, 4)),
        ("reversed", reversed),
        ("shuffled", shuffled),
    ];
    let orders: Vec<_> = orders
        .into_iter()
        .map(|(order, set)| {
            let secs = time_ingest(&set, reps);
            let below = apps_below_stored(&set);
            eprintln!(
                "  ingest in {order} order: {secs:.4}s, {below} shards with apps below a stored id"
            );
            (order, secs, below)
        })
        .collect();

    // Streaming-merge residency: the engine reports how many completed
    // shards were ever parked in the reorder window at once.
    let mut windows = Vec::new();
    for window in WINDOWS {
        let cfg = CampaignConfig {
            threads: Some(4),
            merge_window: window,
            ..scale.config()
        };
        let t0 = Instant::now();
        let (ds, stats) = campaign.run_with_stats(&cfg);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(ds.tput.len(), tput_samples, "windowed merge changed output");
        if let Some(w) = window {
            assert!(
                stats.peak_resident <= w,
                "peak residency {} exceeds merge window {w}",
                stats.peak_resident
            );
        }
        eprintln!(
            "  window {:?}: {:.3}s, peak resident {}, spilled {}",
            window, secs, stats.peak_resident, stats.spilled
        );
        windows.push(WindowPoint {
            window,
            secs,
            peak_resident: stats.peak_resident,
            spilled: stats.spilled,
        });
    }

    eprintln!(
        "  {} shards / {} tput samples: rebuild {:.4}s | ingest {:.4}s total, {:.1} us/shard",
        shards.len(),
        tput_samples,
        rebuild_secs,
        orders[0].1,
        orders[0].1 / shards.len() as f64 * 1e6
    );

    ScaleResult {
        name,
        shards: shards.len(),
        tput_samples,
        rebuild_secs,
        orders,
        windows,
    }
}

fn json_scale(r: &ScaleResult) -> String {
    let per_shard_us = |secs: f64| secs / r.shards as f64 * 1e6;
    let windows: Vec<String> = r
        .windows
        .iter()
        .map(|w| {
            format!(
                "        {{ \"merge_window\": {}, \"secs\": {:.4}, \
                 \"peak_resident\": {}, \"spilled\": {} }}",
                w.window
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| "null".to_string()),
                w.secs,
                w.peak_resident,
                w.spilled
            )
        })
        .collect();
    let orders: Vec<String> = r
        .orders
        .iter()
        .map(|&(order, secs, below)| {
            format!(
                "        {{ \"order\": \"{order}\", \"ingest_total_secs\": {secs:.6}, \
                 \"ingest_us_per_shard\": {:.1}, \"apps_below_stored\": {below} }}",
                per_shard_us(secs)
            )
        })
        .collect();
    format!(
        "    {{\n      \"scale\": \"{}\",\n      \"shards\": {},\n      \
         \"tput_samples\": {},\n      \"rebuild_secs\": {:.6},\n      \
         \"ingest_total_secs\": {:.6},\n      \"ingest_us_per_shard\": {:.1},\n      \
         \"orders\": [\n{}\n      ],\n      \
         \"windows\": [\n{}\n      ]\n    }}",
        r.name,
        r.shards,
        r.tput_samples,
        r.rebuild_secs,
        r.orders[0].1,
        per_shard_us(r.orders[0].1),
        orders.join(",\n"),
        windows.join(",\n")
    )
}

fn main() {
    let standard = std::env::args().any(|a| a == "--standard");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("ingest bench: {cores} cores, standard={standard}");

    let campaign = Campaign::standard(2022);

    let mut scales = vec![json_scale(&bench_scale(
        &campaign,
        "quick",
        Scale::Quick,
        5,
    ))];
    if standard {
        scales.push(json_scale(&bench_scale(
            &campaign,
            "standard",
            Scale::Standard,
            3,
        )));
    }

    let json = format!(
        "{{\n  \"bench\": \"ingest\",\n  \"host_cores\": {},\n  \"note\": \"{}\",\n  \
         \"scales\": [\n{}\n  ]\n}}\n",
        cores,
        "ingest_us_per_shard amortizes one empty-view ingest pass over all plan-order \
         shards; order points repeat it in journal (completion) order of 2- and 4-thread \
         checkpointed runs, reversed and shuffled, counting shards whose app runs arrive \
         below an already-ingested test id; window points run the 4-thread streaming merge and record the \
         engine's MergeStats (peak_resident is asserted <= merge_window)",
        scales.join(",\n")
    );
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let path = root.join("BENCH_ingest.json");
    std::fs::write(&path, &json).expect("write BENCH_ingest.json");
    eprintln!("wrote {}", path.display());
    print!("{json}");
}
