//! The shared experiment world: one campaign + indexed dataset per scale.
//!
//! Building the dataset is the expensive part (it simulates days of
//! driving), so experiments share a lazily-built world per scale:
//!
//! - [`Scale::Quick`] — ~35 widely-strided cycles per operator. Seconds to
//!   build; used by tests and `repro --quick`. All four timezones and all
//!   test kinds are represented, at reduced sample counts.
//! - [`Scale::Standard`] — ~200 cycles; the default for `repro`.
//! - [`Scale::Full`] — continuous testing for the whole trip, the paper's
//!   actual protocol. Minutes to build in release mode.
//!
//! The dataset lives inside a [`DatasetView`] built once per world, as
//! columns only, so every experiment shares the same partition indices
//! and memoized Cdfs (and, being `Sync`, the same view backs the
//! parallel runner). Row tables are built only when the JSON export (or
//! a test) asks for [`World::dataset`].

use std::path::Path;
use std::sync::OnceLock;

use wheels_core::analysis::view::DatasetView;
use wheels_core::campaign::{Campaign, CampaignConfig, MergeStats};
use wheels_core::checkpoint::{CheckpointError, Fingerprint};
use wheels_core::disrupt::FaultConfig;
use wheels_core::records::{Dataset, ShardRecords};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Fast, test-suite-friendly subsample.
    Quick,
    /// Default subsample.
    Standard,
    /// The paper's continuous protocol.
    Full,
}

impl Scale {
    /// Campaign configuration for this scale.
    pub fn config(self) -> CampaignConfig {
        match self {
            Scale::Quick => CampaignConfig {
                cycle_stride_s: 6000,
                ..CampaignConfig::default()
            },
            Scale::Standard => CampaignConfig {
                cycle_stride_s: 800,
                ..CampaignConfig::default()
            },
            Scale::Full => CampaignConfig::default(),
        }
    }
}

/// Runtime knobs that never change any output: the worker-pool cap and
/// the streaming-merge reorder window. Bundled so the builders don't grow
/// one positional `Option` per knob.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tuning {
    /// Worker-pool cap (`None` = host cores). Affects wall time only.
    pub threads: Option<usize>,
    /// Streaming-merge reorder window (`None` = unbounded): at most this
    /// many completed shards are held resident waiting for plan order.
    /// Affects peak memory only.
    pub merge_window: Option<usize>,
}

/// The shared world.
pub struct World {
    /// The campaign (route, trace, deployments, servers).
    pub campaign: Campaign,
    /// The indexed dataset view (owns the consolidated dataset).
    view: DatasetView,
    /// Row form of the view for the JSON export, built on the first
    /// [`World::dataset`] call and dropped by [`World::ingest_shard`].
    /// Experiments and serve queries never touch it.
    rows: OnceLock<Dataset>,
    /// The scale it was built at.
    pub scale: Scale,
    /// Streaming-merge telemetry from the build (`None` when the world
    /// was loaded or assembled rather than simulated).
    pub merge_stats: Option<MergeStats>,
}

impl World {
    /// Build a fresh world with the reference seed, 2022 (expensive).
    pub fn build(scale: Scale) -> World {
        Self::build_seeded(scale, 2022)
    }

    /// Build a fresh world from an arbitrary seed.
    pub fn build_seeded(scale: Scale, seed: u64) -> World {
        Self::build_with(scale, seed, None)
    }

    /// Build a fresh world, optionally capping the campaign worker pool
    /// (`None` = host cores). Thread count never changes the dataset.
    pub fn build_with(scale: Scale, seed: u64, threads: Option<usize>) -> World {
        Self::build_with_faults(scale, seed, threads, FaultConfig::default())
    }

    /// Build a fresh world with measurement disruptions injected. The
    /// fault schedule is keyed purely by `(seed, operator, segment)`, so
    /// the dataset is still bit-identical at any thread count.
    pub fn build_with_faults(
        scale: Scale,
        seed: u64,
        threads: Option<usize>,
        faults: FaultConfig,
    ) -> World {
        Self::build_tuned(
            scale,
            seed,
            Tuning {
                threads,
                ..Tuning::default()
            },
            faults,
        )
    }

    /// Build a fresh world with the full set of runtime knobs. Neither
    /// knob changes the dataset: threads move wall time, the merge window
    /// moves peak memory, and the bytes are identical either way.
    /// Without a checkpoint journal to spill to, the merge window bounds
    /// residency by backpressure: a worker waits before simulating a
    /// shard more than the window ahead of the drain front.
    pub fn build_tuned(scale: Scale, seed: u64, tuning: Tuning, faults: FaultConfig) -> World {
        let (campaign, cfg) = Self::campaign_for(scale, seed, tuning, faults);
        let (dataset, stats) = campaign.run_with_stats(&cfg);
        World {
            campaign,
            view: DatasetView::new(dataset),
            rows: OnceLock::new(),
            scale,
            merge_stats: Some(stats),
        }
    }

    /// Build a fresh world with crash-safe checkpointing: completed
    /// campaign shards are journalled to `dir` as they finish. With
    /// `resume = true` the journal in `dir` is verified against this
    /// run's fingerprint and its shards replay instead of re-simulating;
    /// the resulting dataset is bit-identical to an uninterrupted
    /// [`World::build_with_faults`] at the same config.
    pub fn build_checkpointed(
        scale: Scale,
        seed: u64,
        tuning: Tuning,
        faults: FaultConfig,
        dir: &Path,
        resume: bool,
    ) -> Result<World, CheckpointError> {
        let (campaign, cfg) = Self::campaign_for(scale, seed, tuning, faults);
        let (dataset, stats) = campaign.run_checkpointed_with_stats(&cfg, dir, resume)?;
        Ok(World {
            campaign,
            view: DatasetView::new(dataset),
            rows: OnceLock::new(),
            scale,
            merge_stats: Some(stats),
        })
    }

    /// Build a world around an existing [`DatasetView`] — the
    /// `wheels-serve` path (the server replays a checkpoint journal into
    /// a view, or starts from an empty one, and then splices live shards
    /// in via [`World::ingest_shard`] while experiments query it) and
    /// the `repro --load` path ([`DatasetView::load`]). No simulation
    /// runs: the campaign object is constructed for its route and
    /// deployment metadata only.
    pub fn from_view(scale: Scale, seed: u64, view: DatasetView) -> World {
        World {
            campaign: Campaign::standard(seed),
            view,
            rows: OnceLock::new(),
            scale,
            merge_stats: None,
        }
    }

    /// Splice one campaign shard into the world's view incrementally
    /// (arrival order, targeted memo invalidation) — the live-ingest
    /// half of the `wheels-serve` loop. Drops any exported row form.
    pub fn ingest_shard(&mut self, records: ShardRecords) {
        self.view.ingest_shard(records);
        self.rows = OnceLock::new();
    }

    /// The checkpoint-journal identity of a `(scale, seed, faults)` run —
    /// what `wheels-serve` verifies before tailing a journal. Runtime
    /// knobs (threads, merge window) are deliberately outside the
    /// identity, exactly as in the checkpoint layer.
    pub fn fingerprint_for(scale: Scale, seed: u64, faults: FaultConfig) -> Fingerprint {
        let (campaign, cfg) = Self::campaign_for(scale, seed, Tuning::default(), faults);
        campaign.fingerprint(&cfg)
    }

    /// The campaign + config every builder shares.
    fn campaign_for(
        scale: Scale,
        seed: u64,
        tuning: Tuning,
        faults: FaultConfig,
    ) -> (Campaign, CampaignConfig) {
        let campaign = Campaign::standard(seed);
        let mut cfg = scale.config();
        cfg.seed = seed;
        cfg.faults = faults;
        if tuning.threads.is_some() {
            cfg.threads = tuning.threads;
        }
        if tuning.merge_window.is_some() {
            cfg.merge_window = tuning.merge_window;
        }
        (campaign, cfg)
    }

    /// The consolidated dataset as normalized rows — the JSON export
    /// boundary. Built from the view's columns on the first call and
    /// kept until the next [`World::ingest_shard`]; analysis code reads
    /// [`World::view`] instead.
    pub fn dataset(&self) -> &Dataset {
        self.rows.get_or_init(|| self.view.to_dataset())
    }

    /// The indexed view over the dataset.
    pub fn view(&self) -> &DatasetView {
        &self.view
    }

    /// The shared Quick world (used by tests).
    pub fn quick() -> &'static World {
        static W: OnceLock<World> = OnceLock::new();
        W.get_or_init(|| World::build(Scale::Quick))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wheels_radio::tech::Direction;
    use wheels_sim_core::time::Timezone;

    #[test]
    fn quick_world_spans_all_timezones() {
        let w = World::quick();
        let zones: std::collections::BTreeSet<Timezone> =
            w.dataset().coverage.iter().map(|c| c.tz).collect();
        assert_eq!(zones.len(), 4, "zones {zones:?}");
    }

    #[test]
    fn quick_world_has_all_record_types() {
        let w = World::quick();
        let ds = w.dataset();
        assert!(ds.tput.len() > 1000, "tput {}", ds.tput.len());
        assert!(ds.rtt.len() > 500, "rtt {}", ds.rtt.len());
        assert!(!ds.apps.is_empty());
        assert!(!ds.handovers.is_empty());
        assert!(
            ds.tput_where(None, Some(Direction::Uplink), Some(true))
                .count()
                > 300
        );
        // Static baselines present.
        assert!(ds.tput.iter().any(|s| !s.driving));
    }

    #[test]
    fn merge_window_without_checkpoint_bounds_residency_by_backpressure() {
        // Pins the documented `--merge-window`-without-`--checkpoint`
        // semantics: the in-memory merge honors the residency bound by
        // backpressure (no journal is written), reports the merge
        // telemetry, and produces bytes identical to the unwindowed
        // build.
        let w = World::build_tuned(
            Scale::Quick,
            2022,
            Tuning {
                threads: Some(2),
                merge_window: Some(1),
            },
            FaultConfig::default(),
        );
        let stats = w.merge_stats.expect("simulated builds report merge stats");
        assert!(
            stats.peak_resident <= 1,
            "window=1 violated: {} shards resident",
            stats.peak_resident
        );
        assert_eq!(
            serde_json::to_string(w.dataset()).expect("dataset serializes"),
            serde_json::to_string(World::quick().dataset()).expect("dataset serializes"),
            "merge window must never change the dataset bytes"
        );
    }

    #[test]
    fn view_matches_brute_force_on_quick_world() {
        let w = World::quick();
        let ds = w.dataset();
        let view_dl: Vec<f64> = w
            .view()
            .tput_iter(None, Some(Direction::Downlink), Some(true))
            .map(|s| s.mbps)
            .collect();
        let brute_dl: Vec<f64> = ds
            .tput_where(None, Some(Direction::Downlink), Some(true))
            .map(|s| s.mbps)
            .collect();
        assert_eq!(view_dl, brute_dl);
    }
}
