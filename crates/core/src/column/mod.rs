//! Columnar (struct-of-arrays) layout of the consolidated [`Dataset`] —
//! the one in-memory layout the analysis view keeps; row tables are
//! built from it only at the JSON export boundary.
//!
//! Every row table in [`Dataset`] fights the analysis access pattern:
//! the figure kernels consume *columns* (all `mbps`, all `rtt_ms`, all
//! `miles`) but the rows force every scan to stride over whole structs
//! and pull one field out of each. This module stores each table as
//! contiguous per-field vectors sharing one row count — quantile, CDF,
//! correlation and coverage kernels then batch over plain `&[f64]` /
//! `&[u8]` slices, and the on-disk format ([`wcd`]) is a direct dump of
//! those fixed-width sections, so loading is a checksummed bulk copy
//! with no parse step.
//!
//! Invariants:
//!
//! - **Row order is preserved bit-for-bit.** `from_rows` visits rows in
//!   table order and `to_rows` re-emits them in the same order, so a
//!   normalized dataset stays normalized across the conversion (the
//!   figure multisets and their order are provably unchanged —
//!   [`ColumnarDataset::is_normalized`] is how the view's loader tells a
//!   canonical file it can index directly from one it must re-sort).
//! - **Codes are validated up front.** [`ColumnarDataset::check`] (run
//!   by `wcd::decode` and `DatasetView::from_columns`) refuses any code
//!   outside the catalogue, so columns that passed it convert to rows
//!   and index the view's partition arrays without error.
//! - **Round-trips are lossless.** `f64` fields travel as raw bits,
//!   `Option` fields as a validity column or a sentinel code
//!   ([`NONE_CODE`]), enums as the stable codes below. Property tests in
//!   `crates/core/tests/column_properties.rs` pin
//!   `to_rows(from_rows(ds)) == ds` for every table on shuffled inserts.
//! - **JSON stays the interchange format.** Nothing here touches the
//!   serde schema `tests/dataset_roundtrip.rs` pins; the binary format
//!   is a cache/transport layer, not a replacement.
//!
//! # Enum codes
//!
//! Codes are part of the on-disk format and must never be renumbered:
//! operators/technologies/timezones use their `ALL`-array position,
//! the other enums their declaration order. `0xFF` ([`NONE_CODE`])
//! encodes `None` for optional enum columns.

pub mod wcd;

use std::fmt;

use wheels_apps::arcav::OffloadStats;
use wheels_apps::gaming::GamingStats;
use wheels_apps::video::{ChunkRecord, VideoStats};
use wheels_geo::route::ZoneClass;
use wheels_radio::tech::{Direction, Technology};
use wheels_ran::cells::CellId;
use wheels_ran::operator::Operator;
use wheels_ran::session::{HandoverEvent, HandoverKind};
use wheels_sim_core::time::{SimDuration, SimTime, Timezone};
use wheels_transport::servers::ServerKind;

use crate::disrupt::FaultKind;
use crate::records::{
    AppRun, CoverageSample, Dataset, RttSample, TaggedHandover, TestAudit, TestKind, TestRun,
    TestStatus, TputSample,
};

/// Sentinel code for `None` in optional enum columns.
pub const NONE_CODE: u8 = 0xFF;

/// A structurally invalid columnar dataset: mismatched column lengths,
/// an unknown enum code, or variable-length sections that do not add up.
/// Only decoded (on-disk) data can be invalid; [`ColumnarDataset::from_rows`]
/// output converts back infallibly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnError(pub String);

impl fmt::Display for ColumnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid columnar dataset: {}", self.0)
    }
}

impl std::error::Error for ColumnError {}

/// Define a stable `u8` code for an enum: an encoder, a fallible decoder,
/// and an `Option` pair using [`NONE_CODE`].
macro_rules! codec {
    ($(#[$m:meta])* $enc:ident / $dec:ident : $ty:ty { $($variant:path => $code:literal),+ $(,)? }) => {
        $(#[$m])*
        pub fn $enc(v: $ty) -> u8 {
            match v {
                $($variant => $code,)+
            }
        }

        /// Decode the code written by the paired encoder; `Err` on a
        /// byte outside the catalogue (corrupt or foreign data).
        pub fn $dec(code: u8) -> Result<$ty, ColumnError> {
            match code {
                $($code => Ok($variant),)+
                other => Err(ColumnError(format!(
                    "{} is not a valid {} code",
                    other,
                    stringify!($ty)
                ))),
            }
        }
    };
}

codec!(
    /// Operator code (the paper's column order).
    op_code / op_from: Operator {
        Operator::Verizon => 0,
        Operator::TMobile => 1,
        Operator::Att => 2,
    }
);

codec!(
    /// Traffic-direction code.
    dir_code / dir_from: Direction {
        Direction::Downlink => 0,
        Direction::Uplink => 1,
    }
);

codec!(
    /// Technology code (slowest to fastest, `Technology::ALL` order).
    tech_code / tech_from: Technology {
        Technology::Lte => 0,
        Technology::LteA => 1,
        Technology::Nr5gLow => 2,
        Technology::Nr5gMid => 3,
        Technology::Nr5gMmWave => 4,
    }
);

codec!(
    /// Road-zone code.
    zone_code / zone_from: ZoneClass {
        ZoneClass::City => 0,
        ZoneClass::Suburban => 1,
        ZoneClass::Highway => 2,
    }
);

codec!(
    /// Timezone code (west to east).
    tz_code / tz_from: Timezone {
        Timezone::Pacific => 0,
        Timezone::Mountain => 1,
        Timezone::Central => 2,
        Timezone::Eastern => 3,
    }
);

codec!(
    /// Server-kind code.
    server_code / server_from: ServerKind {
        ServerKind::Cloud => 0,
        ServerKind::Edge => 1,
    }
);

codec!(
    /// Test-kind code (declaration order).
    kind_code / kind_from: TestKind {
        TestKind::DownlinkTput => 0,
        TestKind::UplinkTput => 1,
        TestKind::Rtt => 2,
        TestKind::Ar => 3,
        TestKind::Cav => 4,
        TestKind::Video => 5,
        TestKind::Gaming => 6,
    }
);

codec!(
    /// Test-status code.
    status_code / status_from: TestStatus {
        TestStatus::Completed => 0,
        TestStatus::Partial => 1,
        TestStatus::Lost => 2,
    }
);

codec!(
    /// Fault-kind code.
    fault_code / fault_from: FaultKind {
        FaultKind::ServerOutage => 0,
        FaultKind::AppCrash => 1,
        FaultKind::LoggerGap => 2,
        FaultKind::ClockDrift => 3,
    }
);

codec!(
    /// Handover-kind code.
    ho_code / ho_from: HandoverKind {
        HandoverKind::Horizontal4g => 0,
        HandoverKind::Horizontal5g => 1,
        HandoverKind::Up4gTo5g => 2,
        HandoverKind::Down5gTo4g => 3,
    }
);

/// Encode an optional enum with [`NONE_CODE`] for `None`.
fn opt_code<T>(v: Option<T>, enc: impl Fn(T) -> u8) -> u8 {
    v.map_or(NONE_CODE, enc)
}

/// Decode an optional enum column byte.
fn opt_from<T>(
    code: u8,
    dec: impl Fn(u8) -> Result<T, ColumnError>,
) -> Result<Option<T>, ColumnError> {
    if code == NONE_CODE {
        Ok(None)
    } else {
        dec(code).map(Some)
    }
}

/// Decode a technology sentinel byte (`NONE_CODE` = out of service) —
/// public so the coverage kernels can consume the raw column.
pub fn tech_opt_from(code: u8) -> Result<Option<Technology>, ColumnError> {
    opt_from(code, tech_from)
}

fn bool_code(b: bool) -> u8 {
    u8::from(b)
}

fn bool_from(code: u8) -> Result<bool, ColumnError> {
    match code {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(ColumnError(format!("{other} is not a valid bool code"))),
    }
}

fn idx(i: u32) -> usize {
    // lint: allow(lossy-cast, u32 position to usize is widening on every supported target)
    i as usize
}

fn to_u64(n: usize) -> u64 {
    u64::try_from(n).expect("usize fits u64 on every supported target")
}

fn to_usize(n: u64, what: &str) -> Result<usize, ColumnError> {
    usize::try_from(n).map_err(|_| ColumnError(format!("{what} count {n} exceeds usize")))
}

/// Flat-section entries the valid rows of a variable-length column
/// list: the `lens` of rows whose `valid` flag is 1, summed.
fn listed(valid: &[u8], lens: &[u32]) -> usize {
    valid
        .iter()
        .zip(lens)
        .filter(|(v, _)| **v == 1)
        .map(|(_, &n)| idx(n))
        .sum()
}

/// Every column length in `lens` equals the table's row count `n`.
fn rows_agree(n: usize, lens: &[usize], table: &str) -> Result<(), ColumnError> {
    if lens.iter().any(|&l| l != n) {
        return Err(ColumnError(format!(
            "{table} columns disagree on row count"
        )));
    }
    Ok(())
}

/// The code column `col` holds `n` rows and every byte decodes through
/// `dec`; errors name the column.
fn codes<T>(
    col: &[u8],
    n: usize,
    what: &str,
    dec: impl Fn(u8) -> Result<T, ColumnError>,
) -> Result<(), ColumnError> {
    rows_agree(n, &[col.len()], what)?;
    col.iter().try_for_each(|&c| {
        dec(c)
            .map(drop)
            .map_err(|e| ColumnError(format!("{what}: {}", e.0)))
    })
}

/// Decode an optional direction byte.
fn dir_opt_from(code: u8) -> Result<Option<Direction>, ColumnError> {
    opt_from(code, dir_from)
}

/// Decode an optional fault-kind byte.
fn fault_opt_from(code: u8) -> Result<Option<FaultKind>, ColumnError> {
    opt_from(code, fault_from)
}

/// Columnar form of `Dataset::tput`: one contiguous vector per
/// [`TputSample`] field, all sharing the row count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TputColumns {
    /// Sample times (ms since epoch).
    pub t_ms: Vec<u64>,
    /// Test ids.
    pub test_id: Vec<u32>,
    /// Operator codes.
    pub operator: Vec<u8>,
    /// Direction codes.
    pub direction: Vec<u8>,
    /// Application-layer goodput (Mbps).
    pub mbps: Vec<f64>,
    /// Technology codes.
    pub tech: Vec<u8>,
    /// Serving cell ids.
    pub cell: Vec<u32>,
    /// Vehicle speeds (mph).
    pub speed_mph: Vec<f64>,
    /// Zone codes.
    pub zone: Vec<u8>,
    /// Timezone codes.
    pub tz: Vec<u8>,
    /// Server-kind codes.
    pub server: Vec<u8>,
    /// Primary-cell RSRP (dBm).
    pub rsrp_dbm: Vec<f64>,
    /// Primary-cell MCS.
    pub mcs: Vec<u8>,
    /// Primary-cell BLER.
    pub bler: Vec<f64>,
    /// Component-carrier counts.
    pub carriers: Vec<u8>,
    /// Handovers started in the bin.
    pub handovers_in_bin: Vec<u8>,
    /// Driving flags (0/1).
    pub driving: Vec<u8>,
}

impl TputColumns {
    /// Row count.
    pub fn len(&self) -> usize {
        self.t_ms.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.t_ms.is_empty()
    }

    /// Append one row.
    pub fn push(&mut self, s: &TputSample) {
        self.t_ms.push(s.t.as_millis());
        self.test_id.push(s.test_id);
        self.operator.push(op_code(s.operator));
        self.direction.push(dir_code(s.direction));
        self.mbps.push(s.mbps);
        self.tech.push(tech_code(s.tech));
        self.cell.push(s.cell);
        self.speed_mph.push(s.speed_mph);
        self.zone.push(zone_code(s.zone));
        self.tz.push(tz_code(s.tz));
        self.server.push(server_code(s.server));
        self.rsrp_dbm.push(s.rsrp_dbm);
        self.mcs.push(s.mcs);
        self.bler.push(s.bler);
        self.carriers.push(s.carriers);
        self.handovers_in_bin.push(s.handovers_in_bin);
        self.driving.push(bool_code(s.driving));
    }

    /// Reconstruct row `i`.
    pub fn row(&self, i: u32) -> Result<TputSample, ColumnError> {
        let i = idx(i);
        Ok(TputSample {
            t: SimTime(self.t_ms[i]),
            test_id: self.test_id[i],
            operator: op_from(self.operator[i])?,
            direction: dir_from(self.direction[i])?,
            mbps: self.mbps[i],
            tech: tech_from(self.tech[i])?,
            cell: self.cell[i],
            speed_mph: self.speed_mph[i],
            zone: zone_from(self.zone[i])?,
            tz: tz_from(self.tz[i])?,
            server: server_from(self.server[i])?,
            rsrp_dbm: self.rsrp_dbm[i],
            mcs: self.mcs[i],
            bler: self.bler[i],
            carriers: self.carriers[i],
            handovers_in_bin: self.handovers_in_bin[i],
            driving: bool_from(self.driving[i])?,
        })
    }

    fn check(&self) -> Result<(), ColumnError> {
        let n = self.len();
        rows_agree(
            n,
            &[
                self.test_id.len(),
                self.mbps.len(),
                self.cell.len(),
                self.speed_mph.len(),
                self.rsrp_dbm.len(),
                self.mcs.len(),
                self.bler.len(),
                self.carriers.len(),
                self.handovers_in_bin.len(),
            ],
            "tput",
        )?;
        codes(&self.operator, n, "tput operator", op_from)?;
        codes(&self.direction, n, "tput direction", dir_from)?;
        codes(&self.tech, n, "tput tech", tech_from)?;
        codes(&self.zone, n, "tput zone", zone_from)?;
        codes(&self.tz, n, "tput tz", tz_from)?;
        codes(&self.server, n, "tput server", server_from)?;
        codes(&self.driving, n, "tput driving", bool_from)
    }
}

/// Columnar form of `Dataset::rtt`. Lost pings keep a `0` in
/// `rtt_valid` and a placeholder `0.0` in `rtt_ms`; valid values travel
/// as raw `f64` bits, so the `Option<f64>` round-trips losslessly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RttColumns {
    /// Ping send times (ms since epoch).
    pub t_ms: Vec<u64>,
    /// Test ids.
    pub test_id: Vec<u32>,
    /// Operator codes.
    pub operator: Vec<u8>,
    /// Validity column: 1 when `rtt_ms` holds a measured value.
    pub rtt_valid: Vec<u8>,
    /// Measured RTT (ms); `0.0` placeholder for lost pings.
    pub rtt_ms: Vec<f64>,
    /// Technology codes.
    pub tech: Vec<u8>,
    /// Vehicle speeds (mph).
    pub speed_mph: Vec<f64>,
    /// Timezone codes.
    pub tz: Vec<u8>,
    /// Server-kind codes.
    pub server: Vec<u8>,
    /// Driving flags (0/1).
    pub driving: Vec<u8>,
}

impl RttColumns {
    /// Row count.
    pub fn len(&self) -> usize {
        self.t_ms.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.t_ms.is_empty()
    }

    /// Append one row.
    pub fn push(&mut self, s: &RttSample) {
        self.t_ms.push(s.t.as_millis());
        self.test_id.push(s.test_id);
        self.operator.push(op_code(s.operator));
        self.rtt_valid.push(bool_code(s.rtt_ms.is_some()));
        self.rtt_ms.push(s.rtt_ms.unwrap_or(0.0));
        self.tech.push(tech_code(s.tech));
        self.speed_mph.push(s.speed_mph);
        self.tz.push(tz_code(s.tz));
        self.server.push(server_code(s.server));
        self.driving.push(bool_code(s.driving));
    }

    /// Reconstruct row `i`.
    pub fn row(&self, i: u32) -> Result<RttSample, ColumnError> {
        let i = idx(i);
        Ok(RttSample {
            t: SimTime(self.t_ms[i]),
            test_id: self.test_id[i],
            operator: op_from(self.operator[i])?,
            rtt_ms: bool_from(self.rtt_valid[i])?.then(|| self.rtt_ms[i]),
            tech: tech_from(self.tech[i])?,
            speed_mph: self.speed_mph[i],
            tz: tz_from(self.tz[i])?,
            server: server_from(self.server[i])?,
            driving: bool_from(self.driving[i])?,
        })
    }

    fn check(&self) -> Result<(), ColumnError> {
        let n = self.len();
        rows_agree(
            n,
            &[self.test_id.len(), self.rtt_ms.len(), self.speed_mph.len()],
            "rtt",
        )?;
        codes(&self.operator, n, "rtt operator", op_from)?;
        codes(&self.rtt_valid, n, "rtt validity", bool_from)?;
        codes(&self.tech, n, "rtt tech", tech_from)?;
        codes(&self.tz, n, "rtt tz", tz_from)?;
        codes(&self.server, n, "rtt server", server_from)?;
        codes(&self.driving, n, "rtt driving", bool_from)
    }
}

/// Columnar form of `Dataset::coverage`. `tech` and `direction` use
/// [`NONE_CODE`] sentinels for out-of-service / ICMP-only samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoverageColumns {
    /// Sample times (ms since epoch).
    pub t_ms: Vec<u64>,
    /// Operator codes.
    pub operator: Vec<u8>,
    /// Technology codes ([`NONE_CODE`] = out of service).
    pub tech: Vec<u8>,
    /// Direction codes ([`NONE_CODE`] = no backlogged test).
    pub direction: Vec<u8>,
    /// Miles covered per sample.
    pub miles: Vec<f64>,
    /// Vehicle speeds (mph).
    pub speed_mph: Vec<f64>,
    /// Timezone codes.
    pub tz: Vec<u8>,
    /// Zone codes.
    pub zone: Vec<u8>,
}

impl CoverageColumns {
    /// Row count.
    pub fn len(&self) -> usize {
        self.t_ms.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.t_ms.is_empty()
    }

    /// Append one row.
    pub fn push(&mut self, s: &CoverageSample) {
        self.t_ms.push(s.t.as_millis());
        self.operator.push(op_code(s.operator));
        self.tech.push(opt_code(s.tech, tech_code));
        self.direction.push(opt_code(s.direction, dir_code));
        self.miles.push(s.miles);
        self.speed_mph.push(s.speed_mph);
        self.tz.push(tz_code(s.tz));
        self.zone.push(zone_code(s.zone));
    }

    /// Reconstruct row `i`.
    pub fn row(&self, i: u32) -> Result<CoverageSample, ColumnError> {
        let i = idx(i);
        Ok(CoverageSample {
            t: SimTime(self.t_ms[i]),
            operator: op_from(self.operator[i])?,
            tech: opt_from(self.tech[i], tech_from)?,
            direction: opt_from(self.direction[i], dir_from)?,
            miles: self.miles[i],
            speed_mph: self.speed_mph[i],
            tz: tz_from(self.tz[i])?,
            zone: zone_from(self.zone[i])?,
        })
    }

    fn check(&self) -> Result<(), ColumnError> {
        let n = self.len();
        rows_agree(n, &[self.miles.len(), self.speed_mph.len()], "coverage")?;
        codes(&self.operator, n, "coverage operator", op_from)?;
        codes(&self.tech, n, "coverage tech", tech_opt_from)?;
        codes(&self.direction, n, "coverage direction", dir_opt_from)?;
        codes(&self.tz, n, "coverage tz", tz_from)?;
        codes(&self.zone, n, "coverage zone", zone_from)
    }
}

/// Columnar form of `Dataset::runs`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunColumns {
    /// Test ids.
    pub id: Vec<u32>,
    /// Test-kind codes.
    pub kind: Vec<u8>,
    /// Operator codes.
    pub operator: Vec<u8>,
    /// Start times (ms since epoch).
    pub start_ms: Vec<u64>,
    /// End times (ms since epoch).
    pub end_ms: Vec<u64>,
    /// Miles driven per test.
    pub miles: Vec<f64>,
    /// Timezone codes at start.
    pub tz: Vec<u8>,
    /// Server-kind codes.
    pub server: Vec<u8>,
    /// Fraction of test time on high-speed 5G.
    pub hs5g_fraction: Vec<f64>,
    /// Handovers per test.
    pub handovers: Vec<u32>,
    /// Driving flags (0/1).
    pub driving: Vec<u8>,
    /// Partial (salvaged) flags (0/1).
    pub partial: Vec<u8>,
}

impl RunColumns {
    /// Row count.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// Append one row.
    pub fn push(&mut self, r: &TestRun) {
        self.id.push(r.id);
        self.kind.push(kind_code(r.kind));
        self.operator.push(op_code(r.operator));
        self.start_ms.push(r.start.as_millis());
        self.end_ms.push(r.end.as_millis());
        self.miles.push(r.miles);
        self.tz.push(tz_code(r.tz));
        self.server.push(server_code(r.server));
        self.hs5g_fraction.push(r.hs5g_fraction);
        self.handovers.push(r.handovers);
        self.driving.push(bool_code(r.driving));
        self.partial.push(bool_code(r.partial));
    }

    /// Reconstruct row `i`.
    pub fn row(&self, i: u32) -> Result<TestRun, ColumnError> {
        let i = idx(i);
        Ok(TestRun {
            id: self.id[i],
            kind: kind_from(self.kind[i])?,
            operator: op_from(self.operator[i])?,
            start: SimTime(self.start_ms[i]),
            end: SimTime(self.end_ms[i]),
            miles: self.miles[i],
            tz: tz_from(self.tz[i])?,
            server: server_from(self.server[i])?,
            hs5g_fraction: self.hs5g_fraction[i],
            handovers: self.handovers[i],
            driving: bool_from(self.driving[i])?,
            partial: bool_from(self.partial[i])?,
        })
    }

    fn check(&self) -> Result<(), ColumnError> {
        let n = self.len();
        rows_agree(
            n,
            &[
                self.start_ms.len(),
                self.end_ms.len(),
                self.miles.len(),
                self.hs5g_fraction.len(),
                self.handovers.len(),
            ],
            "runs",
        )?;
        codes(&self.kind, n, "runs kind", kind_from)?;
        codes(&self.operator, n, "runs operator", op_from)?;
        codes(&self.tz, n, "runs tz", tz_from)?;
        codes(&self.server, n, "runs server", server_from)?;
        codes(&self.driving, n, "runs driving", bool_from)?;
        codes(&self.partial, n, "runs partial", bool_from)
    }
}

/// Columnar form of `Dataset::handovers` (the [`TaggedHandover`] table,
/// event fields flattened).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HandoverColumns {
    /// Execution start times (ms since epoch).
    pub start_ms: Vec<u64>,
    /// Interruption lengths (ms).
    pub duration_ms: Vec<u64>,
    /// Source cell ids.
    pub from_cell: Vec<u32>,
    /// Target cell ids.
    pub to_cell: Vec<u32>,
    /// Source technology codes.
    pub from_tech: Vec<u8>,
    /// Target technology codes.
    pub to_tech: Vec<u8>,
    /// Handover-kind codes.
    pub kind: Vec<u8>,
    /// Operator codes.
    pub operator: Vec<u8>,
    /// Validity column: 1 when the handover happened during a test.
    pub test_valid: Vec<u8>,
    /// Test ids (`0` placeholder when `test_valid` is 0).
    pub test_id: Vec<u32>,
    /// Direction codes ([`NONE_CODE`] = no backlogged traffic).
    pub direction: Vec<u8>,
}

impl HandoverColumns {
    /// Row count.
    pub fn len(&self) -> usize {
        self.start_ms.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.start_ms.is_empty()
    }

    /// Append one row.
    pub fn push(&mut self, h: &TaggedHandover) {
        self.start_ms.push(h.event.start.as_millis());
        self.duration_ms.push(h.event.duration.as_millis());
        self.from_cell.push(h.event.from_cell.0);
        self.to_cell.push(h.event.to_cell.0);
        self.from_tech.push(tech_code(h.event.from_tech));
        self.to_tech.push(tech_code(h.event.to_tech));
        self.kind.push(ho_code(h.event.kind));
        self.operator.push(op_code(h.operator));
        self.test_valid.push(bool_code(h.test_id.is_some()));
        self.test_id.push(h.test_id.unwrap_or(0));
        self.direction.push(opt_code(h.direction, dir_code));
    }

    /// Reconstruct row `i`.
    pub fn row(&self, i: u32) -> Result<TaggedHandover, ColumnError> {
        let i = idx(i);
        Ok(TaggedHandover {
            event: HandoverEvent {
                start: SimTime(self.start_ms[i]),
                duration: SimDuration::from_millis(self.duration_ms[i]),
                from_cell: CellId(self.from_cell[i]),
                to_cell: CellId(self.to_cell[i]),
                from_tech: tech_from(self.from_tech[i])?,
                to_tech: tech_from(self.to_tech[i])?,
                kind: ho_from(self.kind[i])?,
            },
            operator: op_from(self.operator[i])?,
            test_id: bool_from(self.test_valid[i])?.then(|| self.test_id[i]),
            direction: opt_from(self.direction[i], dir_from)?,
        })
    }

    fn check(&self) -> Result<(), ColumnError> {
        let n = self.len();
        rows_agree(
            n,
            &[
                self.duration_ms.len(),
                self.from_cell.len(),
                self.to_cell.len(),
                self.test_id.len(),
            ],
            "handover",
        )?;
        codes(&self.from_tech, n, "handover from_tech", tech_from)?;
        codes(&self.to_tech, n, "handover to_tech", tech_from)?;
        codes(&self.kind, n, "handover kind", ho_from)?;
        codes(&self.operator, n, "handover operator", op_from)?;
        codes(&self.test_valid, n, "handover test validity", bool_from)?;
        codes(&self.direction, n, "handover direction", dir_opt_from)
    }
}

/// Columnar form of `Dataset::apps`. The nested per-run vectors
/// (`e2e_ms`, video chunks, gaming bitrate/latency series) are stored
/// Arrow-list style: a per-row length column plus one flat value vector
/// per field, concatenated in row order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppColumns {
    /// Test ids.
    pub id: Vec<u32>,
    /// Operator codes.
    pub operator: Vec<u8>,
    /// Test-kind codes.
    pub kind: Vec<u8>,
    /// Server-kind codes.
    pub server: Vec<u8>,
    /// Driving flags (0/1).
    pub driving: Vec<u8>,

    /// Validity column for the AR/CAV offload stats.
    pub off_valid: Vec<u8>,
    /// Per-row `e2e_ms` sample counts.
    pub off_e2e_len: Vec<u32>,
    /// Frames offloaded per run.
    pub off_frames_offloaded: Vec<u64>,
    /// Frames produced per run.
    pub off_frames_total: Vec<u64>,
    /// Compression flags (0/1).
    pub off_compressed: Vec<u8>,
    /// High-speed-5G fraction per run.
    pub off_hs5g: Vec<f64>,
    /// Handovers per run.
    pub off_handovers: Vec<u64>,
    /// Flat per-frame E2E latency values, concatenated in row order.
    pub off_e2e_ms: Vec<f64>,

    /// Validity column for the video stats.
    pub vid_valid: Vec<u8>,
    /// Per-row chunk counts.
    pub vid_chunks_len: Vec<u32>,
    /// High-speed-5G fraction per session.
    pub vid_hs5g: Vec<f64>,
    /// Handovers per session.
    pub vid_handovers: Vec<u64>,
    /// Flat chunk bitrates (Mbps), concatenated in row order.
    pub vid_bitrate_mbps: Vec<f64>,
    /// Flat chunk rebuffer times (s), concatenated in row order.
    pub vid_rebuffer_s: Vec<f64>,
    /// Flat chunk QoE contributions, concatenated in row order.
    pub vid_qoe: Vec<f64>,

    /// Validity column for the gaming stats.
    pub gam_valid: Vec<u8>,
    /// Per-row bitrate sample counts.
    pub gam_bitrate_len: Vec<u32>,
    /// Per-row latency sample counts.
    pub gam_latency_len: Vec<u32>,
    /// Frames dropped per session.
    pub gam_frames_dropped: Vec<u64>,
    /// Frames sent per session.
    pub gam_frames_sent: Vec<u64>,
    /// High-speed-5G fraction per session.
    pub gam_hs5g: Vec<f64>,
    /// Handovers per session.
    pub gam_handovers: Vec<u64>,
    /// Flat per-second send bitrates (Mbps), concatenated in row order.
    pub gam_bitrate_mbps: Vec<f64>,
    /// Flat per-frame latency samples (ms), concatenated in row order.
    pub gam_latency_ms: Vec<f64>,
}

impl AppColumns {
    /// Row count.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// Append one row.
    pub fn push(&mut self, a: &AppRun) {
        self.id.push(a.id);
        self.operator.push(op_code(a.operator));
        self.kind.push(kind_code(a.kind));
        self.server.push(server_code(a.server));
        self.driving.push(bool_code(a.driving));

        self.off_valid.push(bool_code(a.offload.is_some()));
        match &a.offload {
            Some(o) => {
                self.off_e2e_len
                    .push(u32::try_from(o.e2e_ms.len()).expect("e2e series exceeds u32 rows"));
                self.off_e2e_ms.extend_from_slice(&o.e2e_ms);
                self.off_frames_offloaded.push(to_u64(o.frames_offloaded));
                self.off_frames_total.push(to_u64(o.frames_total));
                self.off_compressed.push(bool_code(o.compressed));
                self.off_hs5g.push(o.high_speed_5g_fraction);
                self.off_handovers.push(to_u64(o.handovers));
            }
            None => {
                self.off_e2e_len.push(0);
                self.off_frames_offloaded.push(0);
                self.off_frames_total.push(0);
                self.off_compressed.push(0);
                self.off_hs5g.push(0.0);
                self.off_handovers.push(0);
            }
        }

        self.vid_valid.push(bool_code(a.video.is_some()));
        match &a.video {
            Some(v) => {
                self.vid_chunks_len
                    .push(u32::try_from(v.chunks.len()).expect("chunk series exceeds u32 rows"));
                for c in &v.chunks {
                    self.vid_bitrate_mbps.push(c.bitrate_mbps);
                    self.vid_rebuffer_s.push(c.rebuffer_s);
                    self.vid_qoe.push(c.qoe);
                }
                self.vid_hs5g.push(v.high_speed_5g_fraction);
                self.vid_handovers.push(to_u64(v.handovers));
            }
            None => {
                self.vid_chunks_len.push(0);
                self.vid_hs5g.push(0.0);
                self.vid_handovers.push(0);
            }
        }

        self.gam_valid.push(bool_code(a.gaming.is_some()));
        match &a.gaming {
            Some(g) => {
                self.gam_bitrate_len.push(
                    u32::try_from(g.bitrate_mbps.len()).expect("bitrate series exceeds u32 rows"),
                );
                self.gam_latency_len.push(
                    u32::try_from(g.latency_ms.len()).expect("latency series exceeds u32 rows"),
                );
                self.gam_bitrate_mbps.extend_from_slice(&g.bitrate_mbps);
                self.gam_latency_ms.extend_from_slice(&g.latency_ms);
                self.gam_frames_dropped.push(to_u64(g.frames_dropped));
                self.gam_frames_sent.push(to_u64(g.frames_sent));
                self.gam_hs5g.push(g.high_speed_5g_fraction);
                self.gam_handovers.push(to_u64(g.handovers));
            }
            None => {
                self.gam_bitrate_len.push(0);
                self.gam_latency_len.push(0);
                self.gam_frames_dropped.push(0);
                self.gam_frames_sent.push(0);
                self.gam_hs5g.push(0.0);
                self.gam_handovers.push(0);
            }
        }
    }

    /// Merge `new` (sorted by id) into the table (sorted by id), stored
    /// rows first on equal ids — the order `Dataset::merge_normalized`
    /// gives. Only stored rows after the first new id move, one block
    /// per run of new rows between them: a campaign shard draws its
    /// test ids from its own range, so it lands as one block (a memmove
    /// of the rows after it) whatever order shards arrive in, and a
    /// shard sorting after every stored row moves nothing.
    pub(crate) fn merge_sorted(&mut self, new: &[AppRun]) {
        let Some(first) = new.first() else {
            return;
        };
        let mut tail = self.split_off(self.id.partition_point(|&id| id <= first.id));
        for a in new {
            let k = tail.id.partition_point(|&id| id <= a.id);
            if k > 0 {
                let rest = tail.split_off(k);
                self.append(std::mem::replace(&mut tail, rest));
            }
            self.push(a);
        }
        self.append(tail);
    }

    /// Split at row `at`: `self` keeps rows `..at`, the result holds
    /// rows `at..` with their slices of the flat sections.
    fn split_off(&mut self, at: usize) -> AppColumns {
        let e2e = listed(&self.off_valid[..at], &self.off_e2e_len);
        let chunks = listed(&self.vid_valid[..at], &self.vid_chunks_len);
        let bitrate = listed(&self.gam_valid[..at], &self.gam_bitrate_len);
        let latency = listed(&self.gam_valid[..at], &self.gam_latency_len);
        AppColumns {
            id: self.id.split_off(at),
            operator: self.operator.split_off(at),
            kind: self.kind.split_off(at),
            server: self.server.split_off(at),
            driving: self.driving.split_off(at),
            off_valid: self.off_valid.split_off(at),
            off_e2e_len: self.off_e2e_len.split_off(at),
            off_frames_offloaded: self.off_frames_offloaded.split_off(at),
            off_frames_total: self.off_frames_total.split_off(at),
            off_compressed: self.off_compressed.split_off(at),
            off_hs5g: self.off_hs5g.split_off(at),
            off_handovers: self.off_handovers.split_off(at),
            off_e2e_ms: self.off_e2e_ms.split_off(e2e),
            vid_valid: self.vid_valid.split_off(at),
            vid_chunks_len: self.vid_chunks_len.split_off(at),
            vid_hs5g: self.vid_hs5g.split_off(at),
            vid_handovers: self.vid_handovers.split_off(at),
            vid_bitrate_mbps: self.vid_bitrate_mbps.split_off(chunks),
            vid_rebuffer_s: self.vid_rebuffer_s.split_off(chunks),
            vid_qoe: self.vid_qoe.split_off(chunks),
            gam_valid: self.gam_valid.split_off(at),
            gam_bitrate_len: self.gam_bitrate_len.split_off(at),
            gam_latency_len: self.gam_latency_len.split_off(at),
            gam_frames_dropped: self.gam_frames_dropped.split_off(at),
            gam_frames_sent: self.gam_frames_sent.split_off(at),
            gam_hs5g: self.gam_hs5g.split_off(at),
            gam_handovers: self.gam_handovers.split_off(at),
            gam_bitrate_mbps: self.gam_bitrate_mbps.split_off(bitrate),
            gam_latency_ms: self.gam_latency_ms.split_off(latency),
        }
    }

    /// Append `other`'s rows after this table's.
    fn append(&mut self, mut other: AppColumns) {
        self.id.append(&mut other.id);
        self.operator.append(&mut other.operator);
        self.kind.append(&mut other.kind);
        self.server.append(&mut other.server);
        self.driving.append(&mut other.driving);
        self.off_valid.append(&mut other.off_valid);
        self.off_e2e_len.append(&mut other.off_e2e_len);
        self.off_frames_offloaded
            .append(&mut other.off_frames_offloaded);
        self.off_frames_total.append(&mut other.off_frames_total);
        self.off_compressed.append(&mut other.off_compressed);
        self.off_hs5g.append(&mut other.off_hs5g);
        self.off_handovers.append(&mut other.off_handovers);
        self.off_e2e_ms.append(&mut other.off_e2e_ms);
        self.vid_valid.append(&mut other.vid_valid);
        self.vid_chunks_len.append(&mut other.vid_chunks_len);
        self.vid_hs5g.append(&mut other.vid_hs5g);
        self.vid_handovers.append(&mut other.vid_handovers);
        self.vid_bitrate_mbps.append(&mut other.vid_bitrate_mbps);
        self.vid_rebuffer_s.append(&mut other.vid_rebuffer_s);
        self.vid_qoe.append(&mut other.vid_qoe);
        self.gam_valid.append(&mut other.gam_valid);
        self.gam_bitrate_len.append(&mut other.gam_bitrate_len);
        self.gam_latency_len.append(&mut other.gam_latency_len);
        self.gam_frames_dropped
            .append(&mut other.gam_frames_dropped);
        self.gam_frames_sent.append(&mut other.gam_frames_sent);
        self.gam_hs5g.append(&mut other.gam_hs5g);
        self.gam_handovers.append(&mut other.gam_handovers);
        self.gam_bitrate_mbps.append(&mut other.gam_bitrate_mbps);
        self.gam_latency_ms.append(&mut other.gam_latency_ms);
    }

    /// The table's rows in stored order (a cursor walk, because of the
    /// flat variable-length sections). Yields `Err` on data that
    /// [`ColumnarDataset::check`] would refuse.
    pub(crate) fn rows(&self) -> impl Iterator<Item = Result<AppRun, ColumnError>> + '_ {
        let (mut e2e_at, mut chunk_at, mut br_at, mut lat_at) = (0usize, 0usize, 0usize, 0usize);
        (0..self.len()).map(move |i| {
            let offload = if bool_from(self.off_valid[i])? {
                let n = idx(self.off_e2e_len[i]);
                let e2e = self
                    .off_e2e_ms
                    .get(e2e_at..e2e_at + n)
                    .ok_or_else(|| ColumnError("offload e2e section overruns".to_string()))?
                    .to_vec();
                e2e_at += n;
                Some(OffloadStats {
                    e2e_ms: e2e,
                    frames_offloaded: to_usize(self.off_frames_offloaded[i], "frames_offloaded")?,
                    frames_total: to_usize(self.off_frames_total[i], "frames_total")?,
                    compressed: bool_from(self.off_compressed[i])?,
                    high_speed_5g_fraction: self.off_hs5g[i],
                    handovers: to_usize(self.off_handovers[i], "handovers")?,
                })
            } else {
                None
            };
            let video = if bool_from(self.vid_valid[i])? {
                let n = idx(self.vid_chunks_len[i]);
                if chunk_at + n > self.vid_bitrate_mbps.len()
                    || chunk_at + n > self.vid_rebuffer_s.len()
                    || chunk_at + n > self.vid_qoe.len()
                {
                    return Err(ColumnError("video chunk section overruns".to_string()));
                }
                let chunks = (chunk_at..chunk_at + n)
                    .map(|j| ChunkRecord {
                        bitrate_mbps: self.vid_bitrate_mbps[j],
                        rebuffer_s: self.vid_rebuffer_s[j],
                        qoe: self.vid_qoe[j],
                    })
                    .collect();
                chunk_at += n;
                Some(VideoStats {
                    chunks,
                    high_speed_5g_fraction: self.vid_hs5g[i],
                    handovers: to_usize(self.vid_handovers[i], "handovers")?,
                })
            } else {
                None
            };
            let gaming = if bool_from(self.gam_valid[i])? {
                let nb = idx(self.gam_bitrate_len[i]);
                let nl = idx(self.gam_latency_len[i]);
                let bitrate = self
                    .gam_bitrate_mbps
                    .get(br_at..br_at + nb)
                    .ok_or_else(|| ColumnError("gaming bitrate section overruns".to_string()))?
                    .to_vec();
                let latency = self
                    .gam_latency_ms
                    .get(lat_at..lat_at + nl)
                    .ok_or_else(|| ColumnError("gaming latency section overruns".to_string()))?
                    .to_vec();
                br_at += nb;
                lat_at += nl;
                Some(GamingStats {
                    bitrate_mbps: bitrate,
                    latency_ms: latency,
                    frames_dropped: to_usize(self.gam_frames_dropped[i], "frames_dropped")?,
                    frames_sent: to_usize(self.gam_frames_sent[i], "frames_sent")?,
                    high_speed_5g_fraction: self.gam_hs5g[i],
                    handovers: to_usize(self.gam_handovers[i], "handovers")?,
                })
            } else {
                None
            };
            Ok(AppRun {
                id: self.id[i],
                operator: op_from(self.operator[i])?,
                kind: kind_from(self.kind[i])?,
                server: server_from(self.server[i])?,
                driving: bool_from(self.driving[i])?,
                offload,
                video,
                gaming,
            })
        })
    }

    fn check(&self) -> Result<(), ColumnError> {
        let n = self.len();
        rows_agree(
            n,
            &[
                self.off_e2e_len.len(),
                self.off_frames_offloaded.len(),
                self.off_frames_total.len(),
                self.off_hs5g.len(),
                self.off_handovers.len(),
                self.vid_chunks_len.len(),
                self.vid_hs5g.len(),
                self.vid_handovers.len(),
                self.gam_bitrate_len.len(),
                self.gam_latency_len.len(),
                self.gam_frames_dropped.len(),
                self.gam_frames_sent.len(),
                self.gam_hs5g.len(),
                self.gam_handovers.len(),
            ],
            "app",
        )?;
        codes(&self.operator, n, "app operator", op_from)?;
        codes(&self.kind, n, "app kind", kind_from)?;
        codes(&self.server, n, "app server", server_from)?;
        codes(&self.driving, n, "app driving", bool_from)?;
        codes(&self.off_valid, n, "offload validity", bool_from)?;
        codes(&self.off_compressed, n, "offload compression", bool_from)?;
        codes(&self.vid_valid, n, "video validity", bool_from)?;
        codes(&self.gam_valid, n, "gaming validity", bool_from)?;
        // The flat sections hold exactly what the valid rows' length
        // columns list, so the `rows` cursor walk never overruns.
        let chunks = self.vid_bitrate_mbps.len();
        if listed(&self.off_valid, &self.off_e2e_len) != self.off_e2e_ms.len()
            || listed(&self.vid_valid, &self.vid_chunks_len) != chunks
            || self.vid_rebuffer_s.len() != chunks
            || self.vid_qoe.len() != chunks
            || listed(&self.gam_valid, &self.gam_bitrate_len) != self.gam_bitrate_mbps.len()
            || listed(&self.gam_valid, &self.gam_latency_len) != self.gam_latency_ms.len()
        {
            return Err(ColumnError(
                "flat app sections disagree with their length columns".to_string(),
            ));
        }
        Ok(())
    }
}

/// Columnar form of `Dataset::audits`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditColumns {
    /// Test ids.
    pub test_id: Vec<u32>,
    /// Operator codes.
    pub operator: Vec<u8>,
    /// Test-kind codes.
    pub kind: Vec<u8>,
    /// 0-based trip days.
    pub day: Vec<u8>,
    /// Scheduled start times (ms since epoch).
    pub scheduled_ms: Vec<u64>,
    /// Status codes.
    pub status: Vec<u8>,
    /// Attempt counts.
    pub attempts: Vec<u32>,
    /// Fault-kind codes ([`NONE_CODE`] = no disruption).
    pub fault: Vec<u8>,
    /// Planned sample counts.
    pub planned_samples: Vec<u32>,
    /// Recorded sample counts.
    pub recorded_samples: Vec<u32>,
    /// Lost sample counts.
    pub lost_samples: Vec<u32>,
}

impl AuditColumns {
    /// Row count.
    pub fn len(&self) -> usize {
        self.test_id.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.test_id.is_empty()
    }

    /// Append one row.
    pub fn push(&mut self, a: &TestAudit) {
        self.test_id.push(a.test_id);
        self.operator.push(op_code(a.operator));
        self.kind.push(kind_code(a.kind));
        self.day.push(a.day);
        self.scheduled_ms.push(a.scheduled.as_millis());
        self.status.push(status_code(a.status));
        self.attempts.push(a.attempts);
        self.fault.push(opt_code(a.fault, fault_code));
        self.planned_samples.push(a.planned_samples);
        self.recorded_samples.push(a.recorded_samples);
        self.lost_samples.push(a.lost_samples);
    }

    /// Reconstruct row `i`.
    pub fn row(&self, i: u32) -> Result<TestAudit, ColumnError> {
        let i = idx(i);
        Ok(TestAudit {
            test_id: self.test_id[i],
            operator: op_from(self.operator[i])?,
            kind: kind_from(self.kind[i])?,
            day: self.day[i],
            scheduled: SimTime(self.scheduled_ms[i]),
            status: status_from(self.status[i])?,
            attempts: self.attempts[i],
            fault: opt_from(self.fault[i], fault_from)?,
            planned_samples: self.planned_samples[i],
            recorded_samples: self.recorded_samples[i],
            lost_samples: self.lost_samples[i],
        })
    }

    fn check(&self) -> Result<(), ColumnError> {
        let n = self.len();
        rows_agree(
            n,
            &[
                self.day.len(),
                self.scheduled_ms.len(),
                self.attempts.len(),
                self.planned_samples.len(),
                self.recorded_samples.len(),
                self.lost_samples.len(),
            ],
            "audit",
        )?;
        codes(&self.operator, n, "audit operator", op_from)?;
        codes(&self.kind, n, "audit kind", kind_from)?;
        codes(&self.status, n, "audit status", status_from)?;
        codes(&self.fault, n, "audit fault", fault_opt_from)
    }
}

/// The whole consolidated dataset in struct-of-arrays layout: the seven
/// row tables as column bundles plus the Table-1 scalars and
/// per-operator aggregates. Row order matches the source [`Dataset`]
/// exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnarDataset {
    /// 500 ms throughput samples.
    pub tput: TputColumns,
    /// RTT samples.
    pub rtt: RttColumns,
    /// Coverage samples.
    pub coverage: CoverageColumns,
    /// Per-test aggregates.
    pub runs: RunColumns,
    /// Tagged handovers.
    pub handovers: HandoverColumns,
    /// Application runs.
    pub apps: AppColumns,
    /// Disruption ledger.
    pub audits: AuditColumns,
    /// Total bytes received over cellular.
    pub rx_bytes: f64,
    /// Total bytes transmitted over cellular.
    pub tx_bytes: f64,
    /// Synthetic XCAL log volume in bytes.
    pub log_bytes: f64,
    /// Per-operator unique-cell counts: operator codes.
    pub cells_operator: Vec<u8>,
    /// Per-operator unique-cell counts: counts.
    pub cells_count: Vec<u64>,
    /// Per-operator runtime: operator codes.
    pub runtime_operator: Vec<u8>,
    /// Per-operator runtime: minutes.
    pub runtime_min: Vec<f64>,
}

impl ColumnarDataset {
    /// Columnarize a row dataset. Row order is preserved exactly — the
    /// `i`-th row of every input table becomes position `i` of its
    /// column bundle — so a normalized dataset stays normalized.
    pub fn from_rows(ds: &Dataset) -> ColumnarDataset {
        let mut out = ColumnarDataset {
            rx_bytes: ds.rx_bytes,
            tx_bytes: ds.tx_bytes,
            log_bytes: ds.log_bytes,
            ..ColumnarDataset::default()
        };
        for s in &ds.tput {
            out.tput.push(s);
        }
        for s in &ds.rtt {
            out.rtt.push(s);
        }
        for s in &ds.coverage {
            out.coverage.push(s);
        }
        for r in &ds.runs {
            out.runs.push(r);
        }
        for h in &ds.handovers {
            out.handovers.push(h);
        }
        for a in &ds.apps {
            out.apps.push(a);
        }
        for a in &ds.audits {
            out.audits.push(a);
        }
        out.set_aggregates(&ds.unique_cells, &ds.runtime_min);
        debug_assert_eq!(out.tput.len(), ds.tput.len());
        debug_assert_eq!(out.rtt.len(), ds.rtt.len());
        debug_assert_eq!(out.coverage.len(), ds.coverage.len());
        debug_assert_eq!(out.runs.len(), ds.runs.len());
        debug_assert_eq!(out.handovers.len(), ds.handovers.len());
        debug_assert_eq!(out.apps.len(), ds.apps.len());
        debug_assert_eq!(out.audits.len(), ds.audits.len());
        out
    }

    /// Replace the per-operator Table-1 aggregates (unique-cell counts
    /// and runtimes).
    pub(crate) fn set_aggregates(
        &mut self,
        unique_cells: &[(Operator, usize)],
        runtime_min: &[(Operator, f64)],
    ) {
        self.cells_operator = unique_cells.iter().map(|&(op, _)| op_code(op)).collect();
        self.cells_count = unique_cells.iter().map(|&(_, n)| to_u64(n)).collect();
        self.runtime_operator = runtime_min.iter().map(|&(op, _)| op_code(op)).collect();
        self.runtime_min = runtime_min.iter().map(|&(_, m)| m).collect();
    }

    /// Reconstruct the row dataset, in the stored order. Fails only on
    /// structurally invalid data (possible after decoding a corrupt or
    /// foreign file; `from_rows` output always converts back).
    pub fn to_rows(&self) -> Result<Dataset, ColumnError> {
        self.check()?;
        let mut ds = Dataset {
            rx_bytes: self.rx_bytes,
            tx_bytes: self.tx_bytes,
            log_bytes: self.log_bytes,
            ..Dataset::default()
        };
        let pos = |i: usize| u32::try_from(i).expect("table exceeds u32 rows");
        for i in 0..self.tput.len() {
            ds.tput.push(self.tput.row(pos(i))?);
        }
        for i in 0..self.rtt.len() {
            ds.rtt.push(self.rtt.row(pos(i))?);
        }
        for i in 0..self.coverage.len() {
            ds.coverage.push(self.coverage.row(pos(i))?);
        }
        for i in 0..self.runs.len() {
            ds.runs.push(self.runs.row(pos(i))?);
        }
        for i in 0..self.handovers.len() {
            ds.handovers.push(self.handovers.row(pos(i))?);
        }
        ds.apps = self.apps.rows().collect::<Result<_, _>>()?;
        for i in 0..self.audits.len() {
            ds.audits.push(self.audits.row(pos(i))?);
        }
        for (i, &code) in self.cells_operator.iter().enumerate() {
            ds.unique_cells
                .push((op_from(code)?, to_usize(self.cells_count[i], "cell")?));
        }
        for (i, &code) in self.runtime_operator.iter().enumerate() {
            ds.runtime_min.push((op_from(code)?, self.runtime_min[i]));
        }
        Ok(ds)
    }

    /// Structural validity: every table's columns agree on the row
    /// count, every enum-code column holds only catalogued codes, the
    /// flat app sections add up, and the per-operator aggregate pairs
    /// line up. Data that passes converts to rows without error, and
    /// its codes index the view's partition arrays safely.
    pub fn check(&self) -> Result<(), ColumnError> {
        self.tput.check()?;
        self.rtt.check()?;
        self.coverage.check()?;
        self.runs.check()?;
        self.handovers.check()?;
        self.apps.check()?;
        self.audits.check()?;
        let (cells, runtimes) = (self.cells_count.len(), self.runtime_min.len());
        codes(&self.cells_operator, cells, "unique-cell operator", op_from)?;
        codes(
            &self.runtime_operator,
            runtimes,
            "runtime operator",
            op_from,
        )
    }

    /// True when every table is in the canonical [`Dataset::normalize`]
    /// order — what lets `DatasetView::from_columns` index a decoded
    /// file directly instead of re-sorting it.
    pub fn is_normalized(&self) -> bool {
        let tput_keys = (0..self.tput.len()).map(|i| (self.tput.t_ms[i], self.tput.test_id[i]));
        let rtt_keys = (0..self.rtt.len()).map(|i| (self.rtt.t_ms[i], self.rtt.test_id[i]));
        let cov_keys =
            (0..self.coverage.len()).map(|i| (self.coverage.t_ms[i], self.coverage.operator[i]));
        let run_keys = (0..self.runs.len()).map(|i| (self.runs.start_ms[i], self.runs.id[i]));
        let ho_keys = (0..self.handovers.len()).map(|i| {
            (
                self.handovers.start_ms[i],
                self.handovers.operator[i],
                self.handovers.to_cell[i],
            )
        });
        let audit_keys =
            (0..self.audits.len()).map(|i| (self.audits.scheduled_ms[i], self.audits.test_id[i]));
        fn sorted<K: Ord>(mut it: impl Iterator<Item = K>) -> bool {
            let Some(mut prev) = it.next() else {
                return true;
            };
            for k in it {
                if k < prev {
                    return false;
                }
                prev = k;
            }
            true
        }
        sorted(tput_keys)
            && sorted(rtt_keys)
            && sorted(cov_keys)
            && sorted(run_keys)
            && sorted(ho_keys)
            && sorted(self.apps.id.iter())
            && sorted(audit_keys)
            && sorted(self.cells_operator.iter())
            && sorted(self.runtime_operator.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_dataset_roundtrips() {
        let ds = Dataset::default();
        let cols = ColumnarDataset::from_rows(&ds);
        assert!(cols.is_normalized());
        assert_eq!(cols.to_rows().expect("valid by construction"), ds);
    }

    #[test]
    fn option_codes_roundtrip() {
        assert_eq!(opt_from(NONE_CODE, tech_from).unwrap(), None);
        for t in Technology::ALL {
            assert_eq!(
                opt_from(opt_code(Some(t), tech_code), tech_from).unwrap(),
                Some(t)
            );
        }
        assert!(tech_from(9).is_err());
        assert!(bool_from(2).is_err());
    }

    #[test]
    fn unnormalized_order_is_detected() {
        let mut ds = Dataset::default();
        let mk = |ms: u64| TestAudit {
            test_id: 0,
            operator: Operator::Verizon,
            kind: TestKind::Rtt,
            day: 0,
            scheduled: SimTime(ms),
            status: TestStatus::Completed,
            attempts: 1,
            fault: None,
            planned_samples: 0,
            recorded_samples: 0,
            lost_samples: 0,
        };
        ds.audits.push(mk(500));
        ds.audits.push(mk(100));
        assert!(!ColumnarDataset::from_rows(&ds).is_normalized());
        ds.normalize();
        assert!(ColumnarDataset::from_rows(&ds).is_normalized());
    }

    #[test]
    fn app_merge_matches_the_row_merge() {
        // Ids and flat-section sizes vary with the id so that blocks
        // of different widths move; kinds cycle through all three
        // stat shapes; stored and new rows differ in their server, so
        // the order of equal ids shows.
        let mk = |id: u32, server: ServerKind| {
            let n = usize::try_from(id % 4).expect("small");
            let series: Vec<f64> = (0..n).map(|k| f64::from(id) + 0.1 * k as f64).collect();
            AppRun {
                id,
                operator: Operator::ALL[n % 3],
                kind: TestKind::Ar,
                server,
                driving: id.is_multiple_of(2),
                offload: id.is_multiple_of(3).then(|| OffloadStats {
                    e2e_ms: series.clone(),
                    frames_offloaded: n,
                    frames_total: 2 * n,
                    compressed: true,
                    high_speed_5g_fraction: 0.5,
                    handovers: n,
                }),
                video: (id % 3 == 1).then(|| VideoStats {
                    chunks: series
                        .iter()
                        .map(|&b| ChunkRecord {
                            bitrate_mbps: b,
                            rebuffer_s: 0.0,
                            qoe: 1.0,
                        })
                        .collect(),
                    high_speed_5g_fraction: 0.25,
                    handovers: n,
                }),
                gaming: (id % 3 == 2).then(|| GamingStats {
                    bitrate_mbps: series.clone(),
                    latency_ms: series.iter().chain(&series).copied().collect(),
                    frames_dropped: n,
                    frames_sent: 3 * n,
                    high_speed_5g_fraction: 0.75,
                    handovers: n,
                }),
            }
        };
        let cases: [(&[u32], &[u32]); 6] = [
            (&[], &[1, 2, 3]),
            (&[1, 2, 3], &[]),
            (&[1, 2, 3], &[4, 5, 6]),
            (&[10, 11, 40, 41], &[20, 21, 22]),
            (&[10, 11, 40, 41], &[1, 2]),
            (&[1, 3, 3, 5, 9, 12, 15], &[0, 3, 4, 10, 11, 13, 20]),
        ];
        for (stored, new) in cases {
            let mut rows: Vec<AppRun> = stored.iter().map(|&id| mk(id, ServerKind::Edge)).collect();
            let mut cols = AppColumns::default();
            rows.iter().for_each(|a| cols.push(a));
            let new: Vec<AppRun> = new.iter().map(|&id| mk(id, ServerKind::Cloud)).collect();
            cols.merge_sorted(&new);
            crate::records::merge_sorted_by_key(&mut rows, new, |a| a.id);
            let mut want = AppColumns::default();
            rows.iter().for_each(|a| want.push(a));
            assert_eq!(cols, want, "stored {stored:?}");
            cols.check().expect("merged sections add up");
        }
    }
}
