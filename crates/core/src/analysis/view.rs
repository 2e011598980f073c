//! Indexed, memoized views over a normalized, columnar dataset.
//!
//! Every figure module filters the same flat tables by the same handful
//! of dimensions (operator × direction × driving, then technology /
//! timezone / speed bin below that) and then sorts the surviving samples
//! into a fresh [`Cdf`]. On a Standard/Full campaign that is dozens of
//! full-table scans and re-sorts per `repro` run. A [`DatasetView`] is
//! built once per world: it partitions each table by those dimensions
//! into permutation indices (positions into the owned tables, ascending,
//! so iteration order is exactly the order a linear `*_where` scan would
//! visit), and memoizes per-query sorted-sample [`Cdf`]s so quantile and
//! summary queries are O(1) after a single shared sort.
//!
//! Figure values are unchanged: the view yields the same samples in the
//! same order as [`Dataset::tput_where`]/[`Dataset::rtt_where`] on the
//! normalized row dataset, and the memoized Cdfs hold the identical sorted
//! multiset `Cdf::from_samples` would produce (a property test in
//! `crates/core/tests/view_properties.rs` pins both claims against the
//! brute-force filters on shuffled inserts).
//!
//! The view is `Sync` (plain columns plus `OnceLock` memo slots), so one
//! instance can back the parallel experiment runner without locking.
//!
//! The view owns exactly one layout: a [`ColumnarDataset`]. Index
//! building and every bulk numeric gather (sorted-sample Cdf runs,
//! correlation inputs, coverage shares, handover kernels) scan the
//! contiguous column slices; the enum-code columns are the `index()`
//! values the partition math wants, so the build loop never touches a
//! row struct. The row iterators (`tput_iter`, `rtt_tech`, `runs`, …)
//! yield `Copy` rows assembled on the fly by the `*Columns::row`
//! accessors, and a row [`Dataset`] exists only at the JSON export
//! boundary ([`DatasetView::to_dataset`]). Every code column was
//! validated by [`ColumnarDataset::check`] on the way in (or written
//! from typed rows), so decoding a view-owned code cannot fail.
//!
//! # Incremental ingest
//!
//! [`DatasetView::ingest_shard`] folds one completed campaign shard
//! into a live view without a rebuild: the big sample tables (tput,
//! rtt, coverage) are *appended* to the columns and every affected
//! permutation index is extended by a binary-splice merge of the
//! shard's pre-sorted position run — so the raw tables end up in
//! arrival order while every indexed accessor keeps yielding canonical
//! `normalize` order, and `OnceLock` memos are re-armed only for the
//! partitions and combos the shard actually touched. The small tables
//! (runs, handovers, apps, audits) stay *physically* canonical (the
//! handover kernels and the figure code iterate them raw): runs,
//! handovers and audits merge through transient rows, which is cheap
//! because they are thousands of times smaller than the sample tables;
//! app runs, whose per-frame series would make that round trip cost
//! O(all apps) per shard, merge as a column splice at their sorted
//! position, whatever the arrival order. [`DatasetView::from_journal`]
//! replays a checkpoint journal frame-by-frame through the same path,
//! so `run_checkpointed`, `--resume`, and `wheels-serve` share one
//! pipeline.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::OnceLock;

use wheels_radio::tech::{Direction, Technology};
use wheels_ran::cells::CellId;
use wheels_ran::operator::Operator;
use wheels_sim_core::stats::Cdf;
use wheels_sim_core::time::{SimTime, Timezone};
use wheels_sim_core::units::{Speed, SpeedBin};

use crate::analysis::correlation::{self, CorrelationRow};
use crate::analysis::coverage::{self, TechShare};
use crate::analysis::handover::{self, HoImpact};
use crate::campaign::table1_accounting;
use crate::checkpoint::{self, CheckpointError, Fingerprint, TailState};
use crate::column::{self, wcd, ColumnError, ColumnarDataset};
use crate::records::{
    AppRun, CoverageSample, Dataset, RttSample, ShardRecords, TestAudit, TestRun, TputSample,
};

const OPS: usize = Operator::ALL.len();
const DIRS: usize = Direction::ALL.len();
const TECHS: usize = Technology::ALL.len();
const TZS: usize = Timezone::ALL.len();
const BINS: usize = SpeedBin::ALL.len();

/// Fully-specified throughput partitions: operator × direction × driving.
const TPUT_PARTS: usize = OPS * DIRS * 2;
/// Throughput query combos including wildcard (`None`) dimensions.
const TPUT_COMBOS: usize = (OPS + 1) * (DIRS + 1) * 3;
/// Fully-specified RTT partitions: operator × driving.
const RTT_PARTS: usize = OPS * 2;
/// RTT query combos including wildcards.
const RTT_COMBOS: usize = (OPS + 1) * 3;

/// Index a table by a u32 position produced at view-build time.
#[inline]
pub(crate) fn at<T>(table: &[T], pos: u32) -> &T {
    // lint: allow(lossy-cast, u32 position to usize is widening on every supported target)
    &table[pos as usize]
}

/// Decoding a view-owned code cannot fail: every column was validated
/// by [`ColumnarDataset::check`] or written from typed rows.
pub(crate) const VALID: &str = "view columns carry validated codes";

/// Every row of a view-owned table, in stored order.
fn all_rows<T>(len: usize, row: impl Fn(u32) -> Result<T, ColumnError>) -> impl Iterator<Item = T> {
    (0..len).map(move |i| row(u32::try_from(i).expect("table exceeds u32 rows")).expect(VALID))
}

fn dir_index(d: Direction) -> usize {
    match d {
        Direction::Downlink => 0,
        Direction::Uplink => 1,
    }
}

fn tz_index(tz: Timezone) -> usize {
    Timezone::ALL
        .iter()
        .position(|&t| t == tz)
        .expect("Timezone::ALL covers every variant")
}

fn bin_index(b: SpeedBin) -> usize {
    match b {
        SpeedBin::Low => 0,
        SpeedBin::Mid => 1,
        SpeedBin::High => 2,
    }
}

fn tpart(op: usize, dir: usize, driving: usize) -> usize {
    (op * DIRS + dir) * 2 + driving
}

fn rpart(op: usize, driving: usize) -> usize {
    op * 2 + driving
}

/// Combo slot for a (possibly wildcard) throughput query; wildcards take
/// the one-past-the-end index of their dimension.
fn tcombo(op: Option<Operator>, dir: Option<Direction>, driving: Option<bool>) -> usize {
    let o = op.map_or(OPS, Operator::index);
    let d = dir.map_or(DIRS, dir_index);
    let dr = driving.map_or(2, usize::from);
    (o * (DIRS + 1) + d) * 3 + dr
}

fn rcombo(op: Option<Operator>, driving: Option<bool>) -> usize {
    let o = op.map_or(OPS, Operator::index);
    let dr = driving.map_or(2, usize::from);
    o * 3 + dr
}

/// Partition ids whose (operator, direction, driving) match the filter.
fn tput_part_ids(
    op: Option<Operator>,
    dir: Option<Direction>,
    driving: Option<bool>,
) -> Vec<usize> {
    let mut out = Vec::new();
    for o in 0..OPS {
        if op.is_some_and(|x| x.index() != o) {
            continue;
        }
        for d in 0..DIRS {
            if dir.is_some_and(|x| dir_index(x) != d) {
                continue;
            }
            for dr in 0..2 {
                if driving.is_some_and(|x| usize::from(x) != dr) {
                    continue;
                }
                out.push(tpart(o, d, dr));
            }
        }
    }
    out
}

fn rtt_part_ids(op: Option<Operator>, driving: Option<bool>) -> Vec<usize> {
    let mut out = Vec::new();
    for o in 0..OPS {
        if op.is_some_and(|x| x.index() != o) {
            continue;
        }
        for dr in 0..2 {
            if driving.is_some_and(|x| usize::from(x) != dr) {
                continue;
            }
            out.push(rpart(o, dr));
        }
    }
    out
}

/// K-way merge of ascending (`f64::total_cmp`) runs into one ascending
/// vector — the identical sorted multiset a fresh sort would produce.
fn merge_sorted(runs: &[&[f64]]) -> Vec<f64> {
    let mut out = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
    let mut cursors = vec![0usize; runs.len()];
    loop {
        let mut best: Option<usize> = None;
        for (i, run) in runs.iter().enumerate() {
            let Some(&x) = run.get(cursors[i]) else {
                continue;
            };
            best = match best {
                Some(b) if runs[b][cursors[b]].total_cmp(&x).is_le() => Some(b),
                _ => Some(i),
            };
        }
        let Some(b) = best else { break };
        out.push(runs[b][cursors[b]]);
        cursors[b] += 1;
    }
    out
}

fn push_pos(list: &mut Vec<u32>, i: usize) {
    list.push(u32::try_from(i).expect("table exceeds u32 rows"));
}

/// Merge a canonical-key-ascending run of `new` positions into the
/// canonical-key-ascending index `idx`, existing entries first on ties
/// — exactly the permutation a stable re-sort of the whole partition
/// would produce. Binary splice: everything before the first affected
/// slot is untouched, only the tail is merged, and a shard whose keys
/// sort entirely after the index (the common in-order arrival) is a
/// plain `extend`.
fn merge_positions<K: Ord>(idx: &mut Vec<u32>, new: &[u32], key: impl Fn(u32) -> K) {
    if new.is_empty() {
        return;
    }
    let first = key(new[0]);
    if idx.last().is_none_or(|&l| key(l) <= first) {
        idx.extend_from_slice(new);
        return;
    }
    let lo = idx.partition_point(|&i| key(i) <= first);
    let tail = idx.split_off(lo);
    idx.reserve(tail.len() + new.len());
    let mut a = tail.into_iter().peekable();
    let mut b = new.iter().copied().peekable();
    while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
        if key(x) <= key(y) {
            idx.push(x);
            a.next();
        } else {
            idx.push(y);
            b.next();
        }
    }
    idx.extend(a);
    idx.extend(b);
}

/// K-way merge of canonical-key-ascending position runs, ties broken by
/// position. On a canonically-ordered dataset (positions ascending with
/// the key) this reproduces the plain position sort the wildcard memos
/// used before incremental ingest existed; on an ingested view it keeps
/// the merged index in canonical key order even though raw positions
/// are arrival-ordered.
fn merge_indices<K: Ord>(runs: &[&[u32]], key: impl Fn(u32) -> K) -> Vec<u32> {
    let mut out = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
    let mut cursors = vec![0usize; runs.len()];
    loop {
        let mut best: Option<usize> = None;
        for (i, run) in runs.iter().enumerate() {
            let Some(&x) = run.get(cursors[i]) else {
                continue;
            };
            best = match best {
                Some(b) => {
                    let y = runs[b][cursors[b]];
                    if (key(y), y) <= (key(x), x) {
                        Some(b)
                    } else {
                        Some(i)
                    }
                }
                None => Some(i),
            };
        }
        let Some(b) = best else { break };
        out.push(runs[b][cursors[b]]);
        cursors[b] += 1;
    }
    out
}

#[derive(Default)]
struct TputPart {
    /// Positions into the tput columns, in canonical key order.
    idx: Vec<u32>,
    by_tech: [Vec<u32>; TECHS],
    by_tz: [Vec<u32>; TZS],
    by_bin_tech: [[Vec<u32>; TECHS]; BINS],
    /// Finite `mbps` values of this partition, sorted ascending.
    sorted_mbps: OnceLock<Vec<f64>>,
}

impl TputPart {
    /// Gather this partition's finite `mbps` values from the contiguous
    /// column and sort once, shared by every Cdf that merges it.
    fn sorted_mbps(&self, mbps: &[f64]) -> &[f64] {
        self.sorted_mbps.get_or_init(|| {
            let mut v: Vec<f64> = self
                .idx
                .iter()
                .map(|&i| *at(mbps, i))
                .filter(|x| x.is_finite())
                .collect();
            v.sort_by(f64::total_cmp);
            v
        })
    }
}

#[derive(Default)]
struct RttPart {
    /// Positions into the rtt columns (lost pings included), in
    /// canonical key order.
    idx: Vec<u32>,
    by_tech: [Vec<u32>; TECHS],
    by_bin_tech: [[Vec<u32>; TECHS]; BINS],
    /// Finite valid RTT values of this partition, sorted ascending.
    sorted_ms: OnceLock<Vec<f64>>,
}

impl RttPart {
    /// Gather this partition's finite valid RTT values from the validity
    /// and value columns and sort once.
    fn sorted_ms(&self, rtt_valid: &[u8], rtt_ms: &[f64]) -> &[f64] {
        self.sorted_ms.get_or_init(|| {
            let mut v: Vec<f64> = self
                .idx
                .iter()
                .filter(|&&i| *at(rtt_valid, i) == 1)
                .map(|&i| *at(rtt_ms, i))
                .filter(|x| x.is_finite())
                .collect();
            v.sort_by(f64::total_cmp);
            v
        })
    }
}

/// Indexed view over an owned, normalized [`ColumnarDataset`]. See the
/// module docs for the guarantees.
pub struct DatasetView {
    /// The dataset, the view's only copy of the data.
    cols: ColumnarDataset,
    tput_parts: Vec<TputPart>,
    rtt_parts: Vec<RttPart>,
    cov_idx: [Vec<u32>; OPS],
    /// Per-test positions into `tput`, time-ascending (normalize sorts by
    /// `(t, test_id)` and a test's samples share one `test_id`).
    tput_by_test: BTreeMap<u32, Vec<u32>>,
    rtt_by_test: BTreeMap<u32, Vec<u32>>,
    /// Memoized merged indices for wildcard combos.
    tput_merged: [OnceLock<Vec<u32>>; TPUT_COMBOS],
    rtt_merged: [OnceLock<Vec<u32>>; RTT_COMBOS],
    /// Memoized per-combo Cdfs (throughput Mbps / valid RTT ms).
    tput_cdfs: [OnceLock<Cdf>; TPUT_COMBOS],
    rtt_cdfs: [OnceLock<Cdf>; RTT_COMBOS],
    /// Memoized handover impact rows (Fig. 12, findings).
    impacts: OnceLock<Vec<HoImpact>>,
    /// Per-operator served-cell unions accumulated by `ingest_shard`
    /// (`Operator::ALL` order). Finalized datasets store only counts,
    /// so the streaming path has to carry the sets itself to keep
    /// Table 1's unique-cell column from double counting.
    cell_sets: Vec<BTreeSet<CellId>>,
    /// Sum of the ingested shards' own `log_bytes` — the base the
    /// runtime-derived XCAL volume accumulates on top of (zero in
    /// practice; shards derive no log volume of their own).
    log_base: f64,
}

impl DatasetView {
    /// Normalize `ds` (idempotent), columnarize it and build all eager
    /// indices; the rows are dropped. Lazy memos (sorted runs, merged
    /// combos, Cdfs, impacts) fill on first use.
    pub fn new(mut ds: Dataset) -> DatasetView {
        ds.normalize();
        Self::build(ColumnarDataset::from_rows(&ds))
    }

    /// Build a view directly from a decoded [`ColumnarDataset`] (the
    /// binary-load path): validate every column, then index straight off
    /// the columns, skipping the normalize sort a row-side build pays —
    /// WCD1 files store canonical order. A valid but unsorted file
    /// (foreign or hand-built) is re-sorted through rows first, so the
    /// order guarantee holds either way.
    pub fn from_columns(cols: ColumnarDataset) -> Result<DatasetView, ColumnError> {
        cols.check()?;
        if !cols.is_normalized() {
            return Ok(Self::new(cols.to_rows()?));
        }
        Ok(Self::build(cols))
    }

    /// Load an exported dataset, auto-detecting the format: WCD1 bytes
    /// decode without a parse step and are indexed through
    /// [`DatasetView::from_columns`]; anything else is read as the pinned
    /// JSON interchange format and indexed through [`DatasetView::new`].
    /// Returns the view plus the detected format (`"bin"` / `"json"`).
    pub fn load(bytes: &[u8]) -> Result<(DatasetView, &'static str), ColumnError> {
        if bytes.starts_with(wcd::MAGIC) {
            let cols = wcd::decode(bytes).map_err(|e| ColumnError(e.to_string()))?;
            Ok((Self::from_columns(cols)?, "bin"))
        } else {
            let text = std::str::from_utf8(bytes).map_err(|_| {
                ColumnError("dataset file is neither WCD1 nor UTF-8 JSON".to_string())
            })?;
            let ds = serde_json::from_str(text)
                .map_err(|e| ColumnError(format!("JSON dataset does not parse: {e}")))?;
            Ok((Self::new(ds), "json"))
        }
    }

    /// Index a normalized, validated dataset: the same per-table
    /// indexing pass ingest runs on an appended shard, over every row.
    fn build(cols: ColumnarDataset) -> DatasetView {
        let mut view = DatasetView {
            cols,
            tput_parts: (0..TPUT_PARTS).map(|_| TputPart::default()).collect(),
            rtt_parts: (0..RTT_PARTS).map(|_| RttPart::default()).collect(),
            cov_idx: Default::default(),
            tput_by_test: BTreeMap::new(),
            rtt_by_test: BTreeMap::new(),
            tput_merged: std::array::from_fn(|_| OnceLock::new()),
            rtt_merged: std::array::from_fn(|_| OnceLock::new()),
            tput_cdfs: std::array::from_fn(|_| OnceLock::new()),
            rtt_cdfs: std::array::from_fn(|_| OnceLock::new()),
            impacts: OnceLock::new(),
            cell_sets: vec![BTreeSet::new(); OPS],
            log_base: 0.0,
        };
        view.index_tput(0);
        view.index_rtt(0);
        view.index_coverage(0);
        view
    }

    /// The columns — what the batched kernels scan and what the WCD1
    /// writer persists. The big sample tables are in arrival order once
    /// shards have been ingested; the indexed accessors restore
    /// canonical order.
    pub fn columns(&self) -> &ColumnarDataset {
        &self.cols
    }

    /// The dataset as rows in canonical order — the JSON export
    /// boundary, and the only place the view materializes a row
    /// [`Dataset`]. The stable re-sort restores physical canonical order
    /// after ingest (which appends the sample tables in arrival order),
    /// so the export is byte-identical to a plan-order campaign merge
    /// whenever canonical keys are shard-unique — which the simulator
    /// guarantees.
    pub fn to_dataset(&self) -> Dataset {
        let mut ds = self.cols.to_rows().expect(VALID);
        ds.normalize();
        ds
    }

    fn tput_row(&self, i: u32) -> TputSample {
        self.cols.tput.row(i).expect(VALID)
    }

    fn rtt_row(&self, i: u32) -> RttSample {
        self.cols.rtt.row(i).expect(VALID)
    }

    /// Positions matching the filter, in canonical (time) order — the
    /// same visit order as a linear `tput_where` scan.
    fn tput_index(
        &self,
        op: Option<Operator>,
        dir: Option<Direction>,
        driving: Option<bool>,
    ) -> &[u32] {
        if let (Some(o), Some(d), Some(dr)) = (op, dir, driving) {
            return &self.tput_parts[tpart(o.index(), dir_index(d), usize::from(dr))].idx;
        }
        self.tput_merged[tcombo(op, dir, driving)].get_or_init(|| {
            let t = &self.cols.tput;
            let runs: Vec<&[u32]> = tput_part_ids(op, dir, driving)
                .into_iter()
                .map(|p| self.tput_parts[p].idx.as_slice())
                .collect();
            merge_indices(&runs, |i| (*at(&t.t_ms, i), *at(&t.test_id, i)))
        })
    }

    fn rtt_index(&self, op: Option<Operator>, driving: Option<bool>) -> &[u32] {
        if let (Some(o), Some(dr)) = (op, driving) {
            return &self.rtt_parts[rpart(o.index(), usize::from(dr))].idx;
        }
        self.rtt_merged[rcombo(op, driving)].get_or_init(|| {
            let r = &self.cols.rtt;
            let runs: Vec<&[u32]> = rtt_part_ids(op, driving)
                .into_iter()
                .map(|p| self.rtt_parts[p].idx.as_slice())
                .collect();
            merge_indices(&runs, |i| (*at(&r.t_ms, i), *at(&r.test_id, i)))
        })
    }

    /// Equivalent of [`Dataset::tput_where`]: same samples, same order,
    /// without the full-table scan.
    pub fn tput_iter(
        &self,
        op: Option<Operator>,
        dir: Option<Direction>,
        driving: Option<bool>,
    ) -> impl Iterator<Item = TputSample> + '_ {
        self.tput_index(op, dir, driving)
            .iter()
            .map(|&i| self.tput_row(i))
    }

    /// Memoized Cdf of `mbps` over the filter — the sorted multiset
    /// `Cdf::from_samples` would build, shared across callers.
    pub fn tput_cdf(
        &self,
        op: Option<Operator>,
        dir: Option<Direction>,
        driving: Option<bool>,
    ) -> &Cdf {
        self.tput_cdfs[tcombo(op, dir, driving)].get_or_init(|| {
            let runs: Vec<&[f64]> = tput_part_ids(op, dir, driving)
                .into_iter()
                .map(|p| self.tput_parts[p].sorted_mbps(&self.cols.tput.mbps))
                .collect();
            Cdf::from_sorted(merge_sorted(&runs))
        })
    }

    /// Throughput samples of one partition on one technology (Fig. 4).
    pub fn tput_tech(
        &self,
        op: Operator,
        dir: Direction,
        driving: bool,
        tech: Technology,
    ) -> impl Iterator<Item = TputSample> + '_ {
        self.tput_parts[tpart(op.index(), dir_index(dir), usize::from(driving))].by_tech
            [tech.index()]
        .iter()
        .map(|&i| self.tput_row(i))
    }

    /// Throughput samples of one partition in one timezone (Fig. 5).
    pub fn tput_tz(
        &self,
        op: Operator,
        dir: Direction,
        driving: bool,
        tz: Timezone,
    ) -> impl Iterator<Item = TputSample> + '_ {
        self.tput_parts[tpart(op.index(), dir_index(dir), usize::from(driving))].by_tz[tz_index(tz)]
            .iter()
            .map(|&i| self.tput_row(i))
    }

    /// Throughput samples of one partition in one speed bin on one
    /// technology (Figs. 7–8).
    pub fn tput_bin_tech(
        &self,
        op: Operator,
        dir: Direction,
        driving: bool,
        bin: SpeedBin,
        tech: Technology,
    ) -> impl Iterator<Item = TputSample> + '_ {
        self.tput_parts[tpart(op.index(), dir_index(dir), usize::from(driving))].by_bin_tech
            [bin_index(bin)][tech.index()]
        .iter()
        .map(|&i| self.tput_row(i))
    }

    /// Per-test throughput sample groups matching the filter, keyed by
    /// test id, each group in time order (Figs. 9–10). A test's operator,
    /// direction and driving flag are constant by construction, so the
    /// filter checks the group's first sample.
    pub fn tput_tests(
        &self,
        op: Option<Operator>,
        dir: Option<Direction>,
        driving: Option<bool>,
    ) -> impl Iterator<Item = (u32, impl Iterator<Item = TputSample> + '_)> + '_ {
        self.tput_by_test.iter().filter_map(move |(&id, pos)| {
            let first = self.tput_row(*pos.first()?);
            let keep = op.is_none_or(|o| first.operator == o)
                && dir.is_none_or(|d| first.direction == d)
                && driving.is_none_or(|dr| first.driving == dr);
            keep.then(|| (id, pos.iter().map(|&i| self.tput_row(i))))
        })
    }

    /// Equivalent of iterating `Dataset::rtt` with the `rtt_where`
    /// filters but keeping whole samples (lost pings included).
    pub fn rtt_iter(
        &self,
        op: Option<Operator>,
        driving: Option<bool>,
    ) -> impl Iterator<Item = RttSample> + '_ {
        self.rtt_index(op, driving).iter().map(|&i| self.rtt_row(i))
    }

    /// Equivalent of [`Dataset::rtt_where`]: valid RTT values in dataset
    /// order, gathered from the validity and value columns.
    pub fn rtt_values(
        &self,
        op: Option<Operator>,
        driving: Option<bool>,
    ) -> impl Iterator<Item = f64> + '_ {
        let r = &self.cols.rtt;
        self.rtt_index(op, driving)
            .iter()
            .filter(|&&i| *at(&r.rtt_valid, i) == 1)
            .map(|&i| *at(&r.rtt_ms, i))
    }

    /// Memoized Cdf of valid RTT ms over the filter.
    pub fn rtt_cdf(&self, op: Option<Operator>, driving: Option<bool>) -> &Cdf {
        self.rtt_cdfs[rcombo(op, driving)].get_or_init(|| {
            let runs: Vec<&[f64]> = rtt_part_ids(op, driving)
                .into_iter()
                .map(|p| {
                    self.rtt_parts[p].sorted_ms(&self.cols.rtt.rtt_valid, &self.cols.rtt.rtt_ms)
                })
                .collect();
            Cdf::from_sorted(merge_sorted(&runs))
        })
    }

    /// RTT samples of one partition on one technology (Fig. 4).
    pub fn rtt_tech(
        &self,
        op: Operator,
        driving: bool,
        tech: Technology,
    ) -> impl Iterator<Item = RttSample> + '_ {
        self.rtt_parts[rpart(op.index(), usize::from(driving))].by_tech[tech.index()]
            .iter()
            .map(|&i| self.rtt_row(i))
    }

    /// RTT samples of one partition in one speed bin on one technology
    /// (Fig. 8).
    pub fn rtt_bin_tech(
        &self,
        op: Operator,
        driving: bool,
        bin: SpeedBin,
        tech: Technology,
    ) -> impl Iterator<Item = RttSample> + '_ {
        self.rtt_parts[rpart(op.index(), usize::from(driving))].by_bin_tech[bin_index(bin)]
            [tech.index()]
        .iter()
        .map(|&i| self.rtt_row(i))
    }

    /// Per-test RTT sample groups matching the filter (Fig. 9).
    pub fn rtt_tests(
        &self,
        op: Option<Operator>,
        driving: Option<bool>,
    ) -> impl Iterator<Item = (u32, impl Iterator<Item = RttSample> + '_)> + '_ {
        self.rtt_by_test.iter().filter_map(move |(&id, pos)| {
            let first = self.rtt_row(*pos.first()?);
            let keep = op.is_none_or(|o| first.operator == o)
                && driving.is_none_or(|dr| first.driving == dr);
            keep.then(|| (id, pos.iter().map(|&i| self.rtt_row(i))))
        })
    }

    /// Coverage samples of one operator, in canonical order (Figs. 1–2).
    pub fn coverage_for(&self, op: Operator) -> impl Iterator<Item = CoverageSample> + '_ {
        self.cov_idx[op.index()]
            .iter()
            .map(|&i| self.cols.coverage.row(i).expect(VALID))
    }

    /// Per-test aggregates, in canonical order (Figs. 9–11).
    pub fn runs(&self) -> impl Iterator<Item = TestRun> + '_ {
        all_rows(self.cols.runs.len(), |i| self.cols.runs.row(i))
    }

    /// Application runs, in canonical order (§7 figures).
    pub fn apps(&self) -> impl Iterator<Item = AppRun> + '_ {
        self.cols.apps.rows().map(|a| a.expect(VALID))
    }

    /// The disruption ledger, in canonical order (the quality report).
    pub fn audits(&self) -> impl Iterator<Item = TestAudit> + '_ {
        all_rows(self.cols.audits.len(), |i| self.cols.audits.row(i))
    }

    /// Table 1's per-operator unique-cell counts, in operator order.
    pub fn unique_cells(&self) -> impl Iterator<Item = (Operator, u64)> + '_ {
        let c = &self.cols;
        c.cells_operator
            .iter()
            .zip(&c.cells_count)
            .map(|(&op, &n)| (column::op_from(op).expect(VALID), n))
    }

    /// Table 1's per-operator cumulative runtimes (minutes), in operator
    /// order.
    pub fn runtime_min(&self) -> impl Iterator<Item = (Operator, f64)> + '_ {
        let c = &self.cols;
        c.runtime_operator
            .iter()
            .zip(&c.runtime_min)
            .map(|(&op, &m)| (column::op_from(op).expect(VALID), m))
    }

    /// Memoized handover throughput impacts (Fig. 12, findings), computed
    /// once over the shared by-test index.
    pub fn impacts(&self) -> &[HoImpact] {
        self.impacts.get_or_init(|| {
            handover::impacts_indexed(&self.cols.tput, &self.cols.handovers, &self.tput_by_test)
        })
    }

    /// One Table-2 row via the batched columnar kernel: the partition's
    /// permutation index gathers `mbps` and each KPI from contiguous
    /// column slices (same samples, same order as the row path).
    pub fn tput_correlation(&self, op: Operator, dir: Direction, driving: bool) -> CorrelationRow {
        let idx = &self.tput_parts[tpart(op.index(), dir_index(dir), usize::from(driving))].idx;
        correlation::correlate_cols(&self.cols.tput, idx, op, dir)
    }

    /// Fig. 2a technology share via the columnar kernel.
    pub fn coverage_share(&self, op: Operator) -> TechShare {
        coverage::overall_cols(&self.cols.coverage, &self.cov_idx[op.index()])
    }

    /// Fig. 2b share split by backlogged direction via the columnar kernel.
    pub fn coverage_share_by_direction(&self, op: Operator) -> BTreeMap<Direction, TechShare> {
        coverage::by_direction_cols(&self.cols.coverage, &self.cov_idx[op.index()])
    }

    /// Fig. 2c share per timezone via the columnar kernel.
    pub fn coverage_share_by_timezone(&self, op: Operator) -> BTreeMap<Timezone, TechShare> {
        coverage::by_timezone_cols(&self.cols.coverage, &self.cov_idx[op.index()])
    }

    /// Fig. 2d share per speed bin via the columnar kernel.
    pub fn coverage_share_by_speed_bin(&self, op: Operator) -> BTreeMap<SpeedBin, TechShare> {
        coverage::by_speed_bin_cols(&self.cols.coverage, &self.cov_idx[op.index()])
    }

    /// Fold one completed campaign shard into the view incrementally —
    /// µs per shard instead of the full rebuild `DatasetView::new`
    /// pays. The sample tables are appended to the columns in arrival
    /// order and every affected permutation index is extended by a
    /// binary-splice run merge, so all indexed accessors keep yielding
    /// exactly what a rebuild over the union would yield; memoized
    /// sorted runs, merged combos and Cdfs are re-armed only where the
    /// shard actually landed. The small tables stay physically canonical
    /// (the raw-scan consumers need them so), and Table 1 accounting is
    /// recomputed from the run columns with the same f64 accumulation
    /// order as the campaign merger.
    ///
    /// Preconditions (both guaranteed by the simulator): each shard is
    /// ingested at most once, and shard canonical keys (test ids,
    /// coverage/handover instants) never collide across shards — the
    /// equality with a full rebuild is then independent of arrival
    /// order. A view seeded from an already-finalized dataset keeps
    /// exact runtimes but its unique-cell counts cover only ingested
    /// shards (finalized datasets store counts, not the sets).
    pub fn ingest_shard(&mut self, rec: ShardRecords) {
        let ShardRecords {
            operator,
            dataset: mut sd,
            cells,
        } = rec;
        if !sd.is_normalized() {
            // Shards normalize before handing off, and a replayed frame
            // is only checksummed, so restore canonical order
            // defensively, as the campaign merger does.
            sd.normalize();
        }

        let c = &mut self.cols;
        let bases = (c.tput.len(), c.rtt.len(), c.coverage.len());
        sd.tput.iter().for_each(|s| c.tput.push(s));
        sd.rtt.iter().for_each(|s| c.rtt.push(s));
        sd.coverage.iter().for_each(|s| c.coverage.push(s));
        let tput_touched = self.index_tput(bases.0);
        let rtt_touched = self.index_rtt(bases.1);
        self.index_coverage(bases.2);
        self.ingest_small_tables(&mut sd);

        // Re-arm every memo whose partition set intersects the shard:
        // wildcard slots merge multiple partitions, so one landed
        // partition can dirty several combos. Fully-specified slots
        // only carry a Cdf (their index is the partition itself).
        let mut op_opts: Vec<Option<Operator>> = Operator::ALL.iter().copied().map(Some).collect();
        op_opts.push(None);
        let mut dir_opts: Vec<Option<Direction>> =
            Direction::ALL.iter().copied().map(Some).collect();
        dir_opts.push(None);
        const DRV: [Option<bool>; 3] = [Some(false), Some(true), None];
        for &o in &op_opts {
            for &dr in &DRV {
                for &d in &dir_opts {
                    if tput_part_ids(o, d, dr).iter().any(|&p| tput_touched[p]) {
                        let c = tcombo(o, d, dr);
                        self.tput_merged[c] = OnceLock::new();
                        self.tput_cdfs[c] = OnceLock::new();
                    }
                }
                if rtt_part_ids(o, dr).iter().any(|&p| rtt_touched[p]) {
                    let c = rcombo(o, dr);
                    self.rtt_merged[c] = OnceLock::new();
                    self.rtt_cdfs[c] = OnceLock::new();
                }
            }
        }
        self.impacts = OnceLock::new();

        // Table 1 accounting through the campaign merger's own pass.
        self.cell_sets[operator.index()].extend(cells.iter().copied());
        self.log_base += sd.log_bytes;
        self.cols.rx_bytes += sd.rx_bytes;
        self.cols.tx_bytes += sd.tx_bytes;
        let r = &self.cols.runs;
        let runs = r
            .operator
            .iter()
            .zip(&r.start_ms)
            .zip(&r.end_ms)
            .map(|((&op, &s), &e)| {
                (
                    column::op_from(op).expect(VALID),
                    SimTime(e).since(SimTime(s)).as_millis(),
                )
            });
        let (unique_cells, runtime_min, log_bytes) =
            table1_accounting(&Operator::ALL, &self.cell_sets, self.log_base, runs);
        self.cols.log_bytes = log_bytes;
        self.cols.set_aggregates(&unique_cells, &runtime_min);
    }

    /// Index the tput rows from position `base` on — every row at build
    /// time, a shard's appended run at ingest: bucket them per partition
    /// off the code columns, then splice-merge each touched partition
    /// index; returns the touched-partition mask.
    fn index_tput(&mut self, base: usize) -> [bool; TPUT_PARTS] {
        let t = &self.cols.tput;
        let mut add: Vec<TputPart> = (0..TPUT_PARTS).map(|_| TputPart::default()).collect();
        for i in base..t.len() {
            let tech = usize::from(t.tech[i]);
            let p = &mut add[tpart(
                usize::from(t.operator[i]),
                usize::from(t.direction[i]),
                usize::from(t.driving[i]),
            )];
            push_pos(&mut p.idx, i);
            push_pos(&mut p.by_tech[tech], i);
            push_pos(&mut p.by_tz[usize::from(t.tz[i])], i);
            let b = bin_index(SpeedBin::of(Speed::from_mph(t.speed_mph[i])));
            push_pos(&mut p.by_bin_tech[b][tech], i);
            push_pos(self.tput_by_test.entry(t.test_id[i]).or_default(), i);
        }

        let key = |i: u32| (*at(&t.t_ms, i), *at(&t.test_id, i));
        let mut touched = [false; TPUT_PARTS];
        for (p, new) in add.iter().enumerate() {
            if new.idx.is_empty() {
                continue;
            }
            touched[p] = true;
            let part = &mut self.tput_parts[p];
            merge_positions(&mut part.idx, &new.idx, key);
            for (list, run) in part.by_tech.iter_mut().zip(&new.by_tech) {
                merge_positions(list, run, key);
            }
            for (list, run) in part.by_tz.iter_mut().zip(&new.by_tz) {
                merge_positions(list, run, key);
            }
            for (bin, new_bin) in part.by_bin_tech.iter_mut().zip(&new.by_bin_tech) {
                for (list, run) in bin.iter_mut().zip(new_bin) {
                    merge_positions(list, run, key);
                }
            }
            part.sorted_mbps = OnceLock::new();
        }
        touched
    }

    /// RTT twin of [`DatasetView::index_tput`].
    fn index_rtt(&mut self, base: usize) -> [bool; RTT_PARTS] {
        let r = &self.cols.rtt;
        let mut add: Vec<RttPart> = (0..RTT_PARTS).map(|_| RttPart::default()).collect();
        for i in base..r.len() {
            let tech = usize::from(r.tech[i]);
            let p = &mut add[rpart(usize::from(r.operator[i]), usize::from(r.driving[i]))];
            push_pos(&mut p.idx, i);
            push_pos(&mut p.by_tech[tech], i);
            let b = bin_index(SpeedBin::of(Speed::from_mph(r.speed_mph[i])));
            push_pos(&mut p.by_bin_tech[b][tech], i);
            push_pos(self.rtt_by_test.entry(r.test_id[i]).or_default(), i);
        }

        let key = |i: u32| (*at(&r.t_ms, i), *at(&r.test_id, i));
        let mut touched = [false; RTT_PARTS];
        for (p, new) in add.iter().enumerate() {
            if new.idx.is_empty() {
                continue;
            }
            touched[p] = true;
            let part = &mut self.rtt_parts[p];
            merge_positions(&mut part.idx, &new.idx, key);
            for (list, run) in part.by_tech.iter_mut().zip(&new.by_tech) {
                merge_positions(list, run, key);
            }
            for (bin, new_bin) in part.by_bin_tech.iter_mut().zip(&new.by_bin_tech) {
                for (list, run) in bin.iter_mut().zip(new_bin) {
                    merge_positions(list, run, key);
                }
            }
            part.sorted_ms = OnceLock::new();
        }
        touched
    }

    /// Coverage twin: per-operator index splice (coverage has no lazy
    /// memos — the share kernels scan the index on every call).
    fn index_coverage(&mut self, base: usize) {
        let c = &self.cols.coverage;
        let mut add: [Vec<u32>; OPS] = Default::default();
        for i in base..c.len() {
            push_pos(&mut add[usize::from(c.operator[i])], i);
        }
        let key = |i: u32| (*at(&c.t_ms, i), *at(&c.operator, i));
        for (list, run) in self.cov_idx.iter_mut().zip(&add) {
            merge_positions(list, run, key);
        }
    }

    /// Merge the shard's small tables (runs, handovers, apps, audits)
    /// into canonical physical order for the raw-order consumers (the
    /// handover kernels and the figure code): runs, handovers and
    /// audits go to transient rows, take [`Dataset::merge_normalized`]'s
    /// run merge and come back as columns — thousands of times smaller
    /// than the sample tables, so the round trip is noise. App runs
    /// carry per-frame series that make such a round trip cost O(all
    /// apps) per shard, so they merge in place as a column splice
    /// (`AppColumns::merge_sorted`), in any arrival order.
    fn ingest_small_tables(&mut self, sd: &mut Dataset) {
        let c = &mut self.cols;
        c.apps.merge_sorted(&std::mem::take(&mut sd.apps));
        let mut small = ColumnarDataset {
            runs: std::mem::take(&mut c.runs),
            handovers: std::mem::take(&mut c.handovers),
            audits: std::mem::take(&mut c.audits),
            ..ColumnarDataset::default()
        }
        .to_rows()
        .expect(VALID);
        small.merge_normalized(Dataset {
            runs: std::mem::take(&mut sd.runs),
            handovers: std::mem::take(&mut sd.handovers),
            audits: std::mem::take(&mut sd.audits),
            ..Dataset::default()
        });
        let merged = ColumnarDataset::from_rows(&small);
        (c.runs, c.handovers, c.audits) = (merged.runs, merged.handovers, merged.audits);
    }

    /// Rebuild a view by replaying a checkpoint journal frame-by-frame
    /// through [`DatasetView::ingest_shard`] — the one incremental
    /// pipeline `run_checkpointed`, `--resume` and `wheels-serve`
    /// share. Strictly read-only (`checkpoint::tail` stops at a torn
    /// tail without truncating it); returns the view and the
    /// [`TailState`] resume cursor, so a live follower can keep
    /// polling from `TailState::next_offset` via
    /// `checkpoint::tail_from` without re-reading the replayed prefix.
    pub fn from_journal(
        dir: &Path,
        fp: &Fingerprint,
    ) -> Result<(DatasetView, TailState), CheckpointError> {
        let mut view = DatasetView::new(Dataset::default());
        let state = checkpoint::tail(dir, fp, |_, rec| {
            view.ingest_shard(rec);
            Ok(())
        })?;
        Ok((view, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_detects_json() {
        let json = serde_json::to_string(&Dataset::default()).expect("serializes");
        let (view, fmt) = DatasetView::load(json.as_bytes()).expect("loads");
        assert_eq!(fmt, "json");
        assert_eq!(view.to_dataset(), Dataset::default());
        assert!(DatasetView::load(b"garbage \xff\xfe").is_err());
    }
}
