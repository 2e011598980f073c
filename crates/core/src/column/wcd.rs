//! WCD1 — the columnar dataset's binary on-disk format.
//!
//! Same family as the WCJ2 checkpoint journal: magic, length prefixes,
//! and FNV-1a-64 checksums, but laid out as a *column catalogue* rather
//! than an append-only frame log. The journal embeds one WCD1 image per
//! shard frame, so a shard's dataset has one durable byte format. Each named column is one fixed-width
//! little-endian section whose payload starts on an 8-byte boundary, so
//! a loader may memory-map the file and view every section in place;
//! the portable decoder here copies instead (no `unsafe` in this
//! workspace) but still performs zero parsing — decode cost is a
//! checksum pass plus `memcpy`-shaped copies.
//!
//! ```text
//! file    := "WCD1" | count: u32 LE | section*
//! section := tag: u8 | name_len: u8 | name bytes (ASCII)
//!          | elems: u64 LE | fnv1a64(payload): u64 LE
//!          | pad to 8-byte file offset | payload (elems × width LE)
//! tag     := 1 = u8 | 2 = u32 | 3 = u64 | 4 = f64
//! ```
//!
//! `f64` payloads are raw IEEE-754 bit patterns (`to_le_bytes`), so the
//! format is lossless for every value JSON can carry and then some.
//! Decoding is strict: an unknown column name, a missing column, a
//! duplicate, a bad tag, or a checksum mismatch all fail loudly — a
//! WCD1 file either loads exactly or not at all, mirroring the
//! journal's "torn tail is truncated, corrupt body is an error" rule.

use std::fmt;
use std::io;
use std::path::Path;

use crate::checkpoint::{fnv1a64, write_atomic_with};

use super::ColumnarDataset;

/// File magic; also the auto-detection key used by
/// [`DatasetView::load`](crate::analysis::view::DatasetView::load).
pub const MAGIC: &[u8; 4] = b"WCD1";

const TAG_U8: u8 = 1;
const TAG_U32: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_F64: u8 = 4;

/// Decode failure: structurally broken, checksum-mismatched, or
/// foreign/unknown-schema bytes.
#[derive(Debug)]
pub enum WcdError {
    /// Not a WCD1 file or the catalogue is malformed.
    Invalid(String),
    /// A section checksum did not match its payload.
    Checksum(String),
    /// Underlying I/O failure (file-level helpers only).
    Io(io::Error),
}

impl fmt::Display for WcdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WcdError::Invalid(m) => write!(f, "invalid WCD1 data: {m}"),
            WcdError::Checksum(m) => write!(f, "WCD1 checksum mismatch: {m}"),
            WcdError::Io(e) => write!(f, "WCD1 io error: {e}"),
        }
    }
}

impl std::error::Error for WcdError {}

impl From<io::Error> for WcdError {
    fn from(e: io::Error) -> Self {
        WcdError::Io(e)
    }
}

/// The single source of truth for the column catalogue: hands every
/// `(name, field path, kind)` triple of a [`ColumnarDataset`] in file
/// order to the callback macro `$with`, so the encoder (shared
/// borrows, streamed) and the decoder (`&mut` slots, filled in place)
/// walk one list and can never disagree about names, tags, or
/// ordering. The three dataset scalars travel as one-element `f64`
/// sections at the end.
macro_rules! catalogue {
    ($with:ident) => {
        $with!("tput.t_ms", tput.t_ms, U64);
        $with!("tput.test_id", tput.test_id, U32);
        $with!("tput.operator", tput.operator, U8);
        $with!("tput.direction", tput.direction, U8);
        $with!("tput.mbps", tput.mbps, F64);
        $with!("tput.tech", tput.tech, U8);
        $with!("tput.cell", tput.cell, U32);
        $with!("tput.speed_mph", tput.speed_mph, F64);
        $with!("tput.zone", tput.zone, U8);
        $with!("tput.tz", tput.tz, U8);
        $with!("tput.server", tput.server, U8);
        $with!("tput.rsrp_dbm", tput.rsrp_dbm, F64);
        $with!("tput.mcs", tput.mcs, U8);
        $with!("tput.bler", tput.bler, F64);
        $with!("tput.carriers", tput.carriers, U8);
        $with!("tput.handovers_in_bin", tput.handovers_in_bin, U8);
        $with!("tput.driving", tput.driving, U8);

        $with!("rtt.t_ms", rtt.t_ms, U64);
        $with!("rtt.test_id", rtt.test_id, U32);
        $with!("rtt.operator", rtt.operator, U8);
        $with!("rtt.rtt_valid", rtt.rtt_valid, U8);
        $with!("rtt.rtt_ms", rtt.rtt_ms, F64);
        $with!("rtt.tech", rtt.tech, U8);
        $with!("rtt.speed_mph", rtt.speed_mph, F64);
        $with!("rtt.tz", rtt.tz, U8);
        $with!("rtt.server", rtt.server, U8);
        $with!("rtt.driving", rtt.driving, U8);

        $with!("coverage.t_ms", coverage.t_ms, U64);
        $with!("coverage.operator", coverage.operator, U8);
        $with!("coverage.tech", coverage.tech, U8);
        $with!("coverage.direction", coverage.direction, U8);
        $with!("coverage.miles", coverage.miles, F64);
        $with!("coverage.speed_mph", coverage.speed_mph, F64);
        $with!("coverage.tz", coverage.tz, U8);
        $with!("coverage.zone", coverage.zone, U8);

        $with!("runs.id", runs.id, U32);
        $with!("runs.kind", runs.kind, U8);
        $with!("runs.operator", runs.operator, U8);
        $with!("runs.start_ms", runs.start_ms, U64);
        $with!("runs.end_ms", runs.end_ms, U64);
        $with!("runs.miles", runs.miles, F64);
        $with!("runs.tz", runs.tz, U8);
        $with!("runs.server", runs.server, U8);
        $with!("runs.hs5g_fraction", runs.hs5g_fraction, F64);
        $with!("runs.handovers", runs.handovers, U32);
        $with!("runs.driving", runs.driving, U8);
        $with!("runs.partial", runs.partial, U8);

        $with!("handovers.start_ms", handovers.start_ms, U64);
        $with!("handovers.duration_ms", handovers.duration_ms, U64);
        $with!("handovers.from_cell", handovers.from_cell, U32);
        $with!("handovers.to_cell", handovers.to_cell, U32);
        $with!("handovers.from_tech", handovers.from_tech, U8);
        $with!("handovers.to_tech", handovers.to_tech, U8);
        $with!("handovers.kind", handovers.kind, U8);
        $with!("handovers.operator", handovers.operator, U8);
        $with!("handovers.test_valid", handovers.test_valid, U8);
        $with!("handovers.test_id", handovers.test_id, U32);
        $with!("handovers.direction", handovers.direction, U8);

        $with!("apps.id", apps.id, U32);
        $with!("apps.operator", apps.operator, U8);
        $with!("apps.kind", apps.kind, U8);
        $with!("apps.server", apps.server, U8);
        $with!("apps.driving", apps.driving, U8);
        $with!("apps.off_valid", apps.off_valid, U8);
        $with!("apps.off_e2e_len", apps.off_e2e_len, U32);
        $with!("apps.off_frames_offloaded", apps.off_frames_offloaded, U64);
        $with!("apps.off_frames_total", apps.off_frames_total, U64);
        $with!("apps.off_compressed", apps.off_compressed, U8);
        $with!("apps.off_hs5g", apps.off_hs5g, F64);
        $with!("apps.off_handovers", apps.off_handovers, U64);
        $with!("apps.off_e2e_ms", apps.off_e2e_ms, F64);
        $with!("apps.vid_valid", apps.vid_valid, U8);
        $with!("apps.vid_chunks_len", apps.vid_chunks_len, U32);
        $with!("apps.vid_hs5g", apps.vid_hs5g, F64);
        $with!("apps.vid_handovers", apps.vid_handovers, U64);
        $with!("apps.vid_bitrate_mbps", apps.vid_bitrate_mbps, F64);
        $with!("apps.vid_rebuffer_s", apps.vid_rebuffer_s, F64);
        $with!("apps.vid_qoe", apps.vid_qoe, F64);
        $with!("apps.gam_valid", apps.gam_valid, U8);
        $with!("apps.gam_bitrate_len", apps.gam_bitrate_len, U32);
        $with!("apps.gam_latency_len", apps.gam_latency_len, U32);
        $with!("apps.gam_frames_dropped", apps.gam_frames_dropped, U64);
        $with!("apps.gam_frames_sent", apps.gam_frames_sent, U64);
        $with!("apps.gam_hs5g", apps.gam_hs5g, F64);
        $with!("apps.gam_handovers", apps.gam_handovers, U64);
        $with!("apps.gam_bitrate_mbps", apps.gam_bitrate_mbps, F64);
        $with!("apps.gam_latency_ms", apps.gam_latency_ms, F64);

        $with!("audits.test_id", audits.test_id, U32);
        $with!("audits.operator", audits.operator, U8);
        $with!("audits.kind", audits.kind, U8);
        $with!("audits.day", audits.day, U8);
        $with!("audits.scheduled_ms", audits.scheduled_ms, U64);
        $with!("audits.status", audits.status, U8);
        $with!("audits.attempts", audits.attempts, U32);
        $with!("audits.fault", audits.fault, U8);
        $with!("audits.planned_samples", audits.planned_samples, U32);
        $with!("audits.recorded_samples", audits.recorded_samples, U32);
        $with!("audits.lost_samples", audits.lost_samples, U32);

        $with!("cells.operator", cells_operator, U8);
        $with!("cells.count", cells_count, U64);
        $with!("runtime.operator", runtime_operator, U8);
        $with!("runtime.min", runtime_min, F64);

        $with!("scalar.rx_bytes", rx_bytes, Scalar);
        $with!("scalar.tx_bytes", tx_bytes, Scalar);
        $with!("scalar.log_bytes", log_bytes, Scalar);
    };
}

/// A mutable borrow of one catalogue column slot, filled by the
/// decoder.
enum EntrySource<'a> {
    U8(&'a mut Vec<u8>),
    U32(&'a mut Vec<u32>),
    U64(&'a mut Vec<u64>),
    F64(&'a mut Vec<f64>),
    Scalar(&'a mut f64),
}

/// A shared borrow of one catalogue column, read by the encoder. The
/// split from [`EntrySource`] is what lets `encode_to` stream straight
/// off the caller's dataset without cloning it.
enum EntryRef<'a> {
    U8(&'a Vec<u8>),
    U32(&'a Vec<u32>),
    U64(&'a Vec<u64>),
    F64(&'a Vec<f64>),
    Scalar(&'a f64),
}

impl EntrySource<'_> {
    fn tag(&self) -> u8 {
        match self {
            EntrySource::U8(_) => TAG_U8,
            EntrySource::U32(_) => TAG_U32,
            EntrySource::U64(_) => TAG_U64,
            EntrySource::F64(_) | EntrySource::Scalar(_) => TAG_F64,
        }
    }
}

/// Streaming section emitter: tracks the absolute file offset so the
/// pad-to-8 math works against any `io::Write` sink (the in-memory
/// buffer's length is not available once the bytes go straight to a
/// file). One scratch buffer is reused across sections, so peak memory
/// is one column's payload, not the whole file image.
struct SectionWriter<W: io::Write> {
    w: W,
    pos: u64,
    scratch: Vec<u8>,
}

impl<W: io::Write> SectionWriter<W> {
    fn put(&mut self, bytes: &[u8]) -> Result<(), WcdError> {
        self.w.write_all(bytes)?;
        self.pos += len64(bytes.len())?;
        Ok(())
    }

    fn section(&mut self, name: &str, col: EntryRef<'_>) -> Result<(), WcdError> {
        self.scratch.clear();
        let (tag, elems) = match col {
            EntryRef::U8(v) => {
                self.scratch.extend_from_slice(v);
                (TAG_U8, len64(v.len())?)
            }
            EntryRef::U32(v) => {
                self.scratch.extend(v.iter().flat_map(|x| x.to_le_bytes()));
                (TAG_U32, len64(v.len())?)
            }
            EntryRef::U64(v) => {
                self.scratch.extend(v.iter().flat_map(|x| x.to_le_bytes()));
                (TAG_U64, len64(v.len())?)
            }
            EntryRef::F64(v) => {
                self.scratch.extend(v.iter().flat_map(|x| x.to_le_bytes()));
                (TAG_F64, len64(v.len())?)
            }
            EntryRef::Scalar(v) => {
                self.scratch.extend_from_slice(&v.to_le_bytes());
                (TAG_F64, 1)
            }
        };
        let name_len = u8::try_from(name.len())
            .map_err(|_| WcdError::Invalid(format!("column name {name:?} exceeds 255 bytes")))?;
        let sum = fnv1a64(&self.scratch);
        self.put(&[tag, name_len])?;
        self.put(name.as_bytes())?;
        self.put(&elems.to_le_bytes())?;
        self.put(&sum.to_le_bytes())?;
        while !self.pos.is_multiple_of(8) {
            self.put(&[0])?;
        }
        self.w.write_all(&self.scratch)?;
        self.pos += len64(self.scratch.len())?;
        Ok(())
    }
}

fn len64(n: usize) -> Result<u64, WcdError> {
    u64::try_from(n).map_err(|_| WcdError::Invalid("column length exceeds u64".to_string()))
}

/// Serialize a columnar dataset straight into `w`, section by section.
/// Peak memory is one column's payload (the checksum needs the
/// serialized bytes before the header is written), never the full
/// encoded image — the `dataset --format bin` export streams through
/// here. Bytes produced are identical to [`encode`].
pub fn encode_to<W: io::Write>(ds: &ColumnarDataset, w: W) -> Result<(), WcdError> {
    let mut count: u32 = 0;
    macro_rules! count_col {
        ($name:literal, $($field:ident).+, $kind:ident) => {
            count += 1;
        };
    }
    catalogue!(count_col);
    let mut sw = SectionWriter {
        w,
        pos: 0,
        scratch: Vec::new(),
    };
    sw.put(MAGIC)?;
    sw.put(&count.to_le_bytes())?;
    macro_rules! write_col {
        ($name:literal, $($field:ident).+, $kind:ident) => {
            sw.section($name, EntryRef::$kind(&ds.$($field).+))?;
        };
    }
    catalogue!(write_col);
    Ok(())
}

/// Serialize a columnar dataset to WCD1 bytes in memory.
pub fn encode(ds: &ColumnarDataset) -> Vec<u8> {
    let mut out = Vec::new();
    encode_to(ds, &mut out).expect("encoding to memory cannot fail");
    out
}

/// Streaming reader over the section catalogue.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WcdError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| WcdError::Invalid(format!("file truncated reading {what}")))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64le(&mut self, what: &str) -> Result<u64, WcdError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8, what)?);
        Ok(u64::from_le_bytes(b))
    }

    fn align8(&mut self) {
        self.pos = (self.pos + 7) & !7;
    }

    /// Read one section header + payload; returns `(name, tag, payload)`.
    fn section(&mut self) -> Result<(&'a str, u8, &'a [u8]), WcdError> {
        let tag = self.take(1, "section tag")?[0];
        let width: usize = match tag {
            TAG_U8 => 1,
            TAG_U32 => 4,
            TAG_U64 => 8,
            TAG_F64 => 8,
            other => return Err(WcdError::Invalid(format!("unknown column tag {other}"))),
        };
        let name_len = usize::from(self.take(1, "name length")?[0]);
        let name = std::str::from_utf8(self.take(name_len, "column name")?)
            .map_err(|_| WcdError::Invalid("column name is not UTF-8".to_string()))?;
        let elems = self.u64le("element count")?;
        let stored_sum = self.u64le("checksum")?;
        let n = usize::try_from(elems)
            .ok()
            .and_then(|n| n.checked_mul(width))
            .ok_or_else(|| WcdError::Invalid(format!("column {name} too large for memory")))?;
        self.align8();
        let payload = self.take(n, "column payload")?;
        if fnv1a64(payload) != stored_sum {
            return Err(WcdError::Checksum(format!("column {name}")));
        }
        Ok((name, tag, payload))
    }
}

fn fill(slot: EntrySource<'_>, tag: u8, payload: &[u8], name: &str) -> Result<(), WcdError> {
    if slot.tag() != tag {
        return Err(WcdError::Invalid(format!(
            "column {name}: expected tag {}, file has {tag}",
            slot.tag()
        )));
    }
    match slot {
        EntrySource::U8(v) => {
            v.clear();
            v.extend_from_slice(payload);
        }
        EntrySource::U32(v) => {
            v.clear();
            v.reserve(payload.len() / 4);
            for c in payload.chunks_exact(4) {
                let mut b = [0u8; 4];
                b.copy_from_slice(c);
                v.push(u32::from_le_bytes(b));
            }
        }
        EntrySource::U64(v) => {
            v.clear();
            v.reserve(payload.len() / 8);
            for c in payload.chunks_exact(8) {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                v.push(u64::from_le_bytes(b));
            }
        }
        EntrySource::F64(v) => {
            v.clear();
            v.reserve(payload.len() / 8);
            for c in payload.chunks_exact(8) {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                v.push(f64::from_le_bytes(b));
            }
        }
        EntrySource::Scalar(v) => {
            if payload.len() != 8 {
                return Err(WcdError::Invalid(format!(
                    "scalar column {name} must hold exactly one element"
                )));
            }
            let mut b = [0u8; 8];
            b.copy_from_slice(payload);
            *v = f64::from_le_bytes(b);
        }
    }
    Ok(())
}

/// Deserialize WCD1 bytes into a columnar dataset. Strict: the file
/// must contain exactly the catalogue's columns, in catalogue order,
/// with matching tags and checksums, and the result must pass
/// [`ColumnarDataset::check`] (row counts and every enum code).
pub fn decode(bytes: &[u8]) -> Result<ColumnarDataset, WcdError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4, "magic").ok() != Some(MAGIC.as_slice()) {
        return Err(WcdError::Invalid("missing WCD1 magic".to_string()));
    }
    let mut count_b = [0u8; 4];
    count_b.copy_from_slice(r.take(4, "column count")?);
    let declared = u32::from_le_bytes(count_b);

    let mut ds = ColumnarDataset::default();
    let mut seen: u32 = 0;
    macro_rules! read_col {
        ($name:literal, $($field:ident).+, $kind:ident) => {{
            let (got_name, tag, payload) = r.section()?;
            if got_name != $name {
                return Err(WcdError::Invalid(format!(
                    "expected column {}, file has {got_name}",
                    $name
                )));
            }
            seen += 1;
            fill(EntrySource::$kind(&mut ds.$($field).+), tag, payload, $name)?;
        }};
    }
    catalogue!(read_col);
    if seen != declared {
        return Err(WcdError::Invalid(format!(
            "catalogue declares {declared} columns, schema expects {seen}"
        )));
    }
    if r.pos != bytes.len() {
        return Err(WcdError::Invalid(format!(
            "{} trailing bytes after last column",
            bytes.len() - r.pos
        )));
    }
    ds.check().map_err(|e| WcdError::Invalid(e.0))?;
    Ok(ds)
}

/// Encode and persist via the checkpoint crash-safety discipline
/// (temp file + fsync + atomic rename), streaming sections to the
/// temp file instead of materializing the encoded image in memory.
pub fn write_file(path: &Path, ds: &ColumnarDataset) -> Result<(), WcdError> {
    write_atomic_with(path, |w| encode_to(ds, w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_dataset_encodes_and_decodes() {
        let ds = ColumnarDataset::default();
        let bytes = encode(&ds);
        assert_eq!(&bytes[..4], MAGIC);
        let back = decode(&bytes).expect("decodes");
        assert_eq!(back, ds);
    }

    #[test]
    fn payloads_are_8_byte_aligned() {
        // Corrupting any payload byte must be caught; alignment is part
        // of the frame math, so a decode success proves both.
        let ds = ColumnarDataset {
            rx_bytes: 1.5,
            ..ColumnarDataset::default()
        };
        let bytes = encode(&ds);
        let back = decode(&bytes).expect("decodes");
        assert_eq!(back.rx_bytes, 1.5);
    }

    /// An `io::Write` that forwards one byte per `write` call, forcing
    /// the section writer's running-offset pad math to survive
    /// arbitrarily fragmented sinks.
    struct DribbleWriter(Vec<u8>);

    impl io::Write for DribbleWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match buf.first() {
                Some(&b) => {
                    self.0.push(b);
                    Ok(1)
                }
                None => Ok(0),
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streamed_encode_is_byte_identical() {
        let ds = ColumnarDataset {
            rx_bytes: 3.25,
            tx_bytes: 0.5,
            log_bytes: 9.0,
            cells_operator: vec![0, 1, 2],
            cells_count: vec![10, 20, 30],
            ..ColumnarDataset::default()
        };
        let mut dribbled = DribbleWriter(Vec::new());
        encode_to(&ds, &mut dribbled).expect("streamed encode succeeds");
        assert_eq!(dribbled.0, encode(&ds));
    }

    #[test]
    fn write_file_streams_the_same_bytes() {
        let dir = std::env::temp_dir().join("wheels-wcd-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.wcd");
        let ds = ColumnarDataset {
            log_bytes: 42.0,
            runtime_operator: vec![0, 1, 2],
            runtime_min: vec![1.0, 2.0, 3.0],
            ..ColumnarDataset::default()
        };
        write_file(&path, &ds).expect("streamed file write succeeds");
        assert_eq!(std::fs::read(&path).unwrap(), encode(&ds));
        assert!(!dir.join("stream.wcd.tmp").exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_is_detected() {
        let ds = ColumnarDataset {
            log_bytes: 7.25,
            ..ColumnarDataset::default()
        };
        let mut bytes = encode(&ds);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(decode(&bytes).is_err(), "flipped payload bit must fail");
        assert!(
            decode(&bytes[..bytes.len() - 9]).is_err(),
            "truncation must fail"
        );
        assert!(
            decode(b"WCJ1----").is_err(),
            "journal magic is not a dataset"
        );
    }
}
