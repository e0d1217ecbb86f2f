//! STC1 — the columnar binary container for trips and trained models.
//!
//! Text ingest re-parses floats point-by-point and a JSON model load walks
//! a DOM that grows with the corpus; at million-trip scale both dominate
//! wall-clock (ROADMAP item 1). STC1 replaces them with a flat container:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "STC1"
//! 4       2     version (LE, = 1)
//! 6       2     kind    (LE, 1 = trips, 2 = model)
//! 8       4     section count n (LE)
//! 12      4     reserved (0)
//! 16      24*n  section table: tag u32, reserved u32, offset u64, len u64
//! ...           section payloads, each 8-byte aligned, zero-padded between
//! ```
//!
//! Every integer is little-endian; every `f64` is stored as its IEEE-754
//! bit pattern (`to_bits`), so values — including negative zero and subnormals
//! — round-trip exactly. Section offsets and lengths live up front and
//! payloads are 8-byte aligned, so a loader may `mmap` the file and slice
//! columns in place; the portable readers here copy instead (std-only, no
//! platform mmap), which is still one `read` plus `memcpy`-shaped column
//! scans rather than a per-character parse.
//!
//! **Trips** (`kind = 1`): latitudes and longitudes are contiguous `f64`
//! columns over all points of all trips; trip boundaries are a `u64`
//! prefix-sum offsets column (`n_trips + 1` entries, first 0, last
//! `n_points`); timestamps are a single varint stream — per trip, the
//! zigzag-encoded absolute first timestamp followed by zigzag-encoded
//! deltas. Deltas are *signed*, so defective (out-of-order) inputs survive
//! the round trip and reach the PR-4 sanitizer exactly as the lenient text
//! readers deliver them; the strict reader surfaces them as
//! [`TrajectoryError::OutOfOrderTimestamp`].
//!
//! **Models** (`kind = 2`): the [`HistoricalFeatureMap`] is flattened to
//! key-sorted rows ([`HistoricalFeatureMap::numeric_rows`]), with feature
//! names interned in a sorted string table and referenced by `u32` index.
//! [`PopularRoutes`] already *is* a set of key-sorted columns
//! ([`PopularRoutesParts`]): the encoder writes each column borrowed, and
//! the decoder reads each section straight into the column it came from,
//! then hands the set to [`PopularRoutes::from_parts`], which validates it
//! (a failure is [`StcError::InvalidRoutes`]) and adopts it without
//! copying. Both encodings are pure functions of those columns, so a
//! decoded model's `to_json` — and therefore every summary — is
//! byte-identical to the original's (DESIGN.md §16).
//!
//! Decoding never panics: structural corruption maps to a typed
//! [`StcError`], and allocation is bounded by actual section byte lengths,
//! never by counts read from the (possibly hostile) file.

use stmaker::TrainedModel;
use stmaker_geo::GeoPoint;
use stmaker_poi::LandmarkId;
use stmaker_routes::{
    HistoricalFeatureMap, PartsError, PopularRouteConfig, PopularRoutes, PopularRoutesParts,
};
use stmaker_trajectory::{RawPoint, RawTrajectory, Timestamp, TrajectoryError};

/// File magic: the first four bytes of every STC1 artifact.
pub const STC_MAGIC: [u8; 4] = *b"STC1";
/// Container version this module reads and writes.
pub const STC_VERSION: u16 = 1;
/// `kind` value for trip containers.
pub const KIND_TRIPS: u16 = 1;
/// `kind` value for trained-model containers.
pub const KIND_MODEL: u16 = 2;

// Trip sections.
const TAG_TRIP_OFFSETS: u32 = 0x10;
const TAG_LAT: u32 = 0x11;
const TAG_LON: u32 = 0x12;
const TAG_TS: u32 = 0x13;

// Model sections.
const TAG_META: u32 = 0x20;
const TAG_FEAT_NAMES: u32 = 0x21;
const TAG_FM_NUM_FROM: u32 = 0x22;
const TAG_FM_NUM_TO: u32 = 0x23;
const TAG_FM_NUM_FEAT: u32 = 0x24;
const TAG_FM_NUM_SUM: u32 = 0x25;
const TAG_FM_NUM_COUNT: u32 = 0x26;
const TAG_FM_CAT_FROM: u32 = 0x27;
const TAG_FM_CAT_TO: u32 = 0x28;
const TAG_FM_CAT_FEAT: u32 = 0x29;
const TAG_FM_CAT_CODE: u32 = 0x2A;
const TAG_FM_CAT_COUNT: u32 = 0x2B;
const TAG_CORPUS_OFFSETS: u32 = 0x30;
const TAG_CORPUS_IDS: u32 = 0x31;
const TAG_PAIR_FROM: u32 = 0x32;
const TAG_PAIR_TO: u32 = 0x33;
const TAG_PAIR_OFFSETS: u32 = 0x34;
const TAG_OCC_TRAJ: u32 = 0x35;
const TAG_OCC_START: u32 = 0x36;
const TAG_OCC_END: u32 = 0x37;
const TAG_TR_SRC: u32 = 0x38;
const TAG_TR_OFFSETS: u32 = 0x39;
const TAG_TR_DST: u32 = 0x3A;
const TAG_TR_W: u32 = 0x3B;
const TAG_SUP_FROM: u32 = 0x3C;
const TAG_SUP_TO: u32 = 0x3D;
const TAG_SUP_VAL: u32 = 0x3E;
const TAG_WIN_FROM: u32 = 0x3F;
const TAG_WIN_TO: u32 = 0x40;
const TAG_WIN_OFFSETS: u32 = 0x41;
const TAG_WIN_IDS: u32 = 0x42;

/// Structural corruption in an STC1 file. Every variant is reachable from
/// hostile bytes; none of them panic the decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StcError {
    /// The file (or a fixed-size field) ends before its declared extent.
    Truncated {
        /// Bytes needed to satisfy the declared layout.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The first four bytes are not `b"STC1"`.
    BadMagic {
        /// The bytes found where the magic should be.
        got: [u8; 4],
    },
    /// The header declares a container version this build cannot read.
    UnsupportedVersion {
        /// Version found in the header.
        got: u16,
    },
    /// The container holds the wrong artifact kind (trips vs model).
    WrongKind {
        /// Kind the caller asked for.
        expected: u16,
        /// Kind declared in the header.
        got: u16,
    },
    /// A section required by the artifact kind is absent.
    MissingSection {
        /// Tag of the missing section.
        tag: u32,
    },
    /// Parallel columns disagree in length, a section's byte length is not
    /// a multiple of its element size, or a stream has trailing bytes.
    ColumnLengthMismatch {
        /// Which column or stream.
        section: &'static str,
        /// Expected element count / byte position.
        expected: u64,
        /// Observed element count / byte position.
        got: u64,
    },
    /// An offsets column is not a monotone prefix sum from 0 to the total.
    BadOffsets {
        /// Which offsets column.
        section: &'static str,
        /// Index of the offending entry.
        index: usize,
    },
    /// A varint runs past its stream or overflows 64 bits.
    BadVarint {
        /// Which stream.
        section: &'static str,
        /// Byte offset where the bad varint starts.
        offset: usize,
    },
    /// Accumulating timestamp deltas overflowed `i64`.
    TimestampOverflow {
        /// Trip index within the container.
        trip: usize,
        /// Point index within the trip.
        index: usize,
    },
    /// A string-table entry overruns its section or is not UTF-8, or a
    /// row references a name index past the table.
    BadString {
        /// Which section.
        section: &'static str,
        /// Entry or row index.
        index: usize,
    },
    /// The popular-route sections decode but do not form a servable
    /// miner: unsorted keys, offsets out of range, an occurrence outside
    /// its corpus trajectory, or a bad transfer weight.
    InvalidRoutes(PartsError),
}

impl std::fmt::Display for StcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StcError::Truncated { expected, got } => {
                write!(f, "truncated STC1 data: need {expected} bytes, have {got}")
            }
            StcError::BadMagic { got } => {
                write!(f, "not an STC1 file: magic bytes {got:?}")
            }
            StcError::UnsupportedVersion { got } => {
                write!(f, "unsupported STC1 version {got} (this build reads {STC_VERSION})")
            }
            StcError::WrongKind { expected, got } => {
                write!(f, "wrong STC1 artifact kind {got} (expected {expected})")
            }
            StcError::MissingSection { tag } => {
                write!(f, "missing STC1 section 0x{tag:02x}")
            }
            StcError::ColumnLengthMismatch { section, expected, got } => {
                write!(f, "column length mismatch in {section}: expected {expected}, got {got}")
            }
            StcError::BadOffsets { section, index } => {
                write!(f, "non-monotone or out-of-range offset at {section}[{index}]")
            }
            StcError::BadVarint { section, offset } => {
                write!(f, "bad varint in {section} at byte {offset}")
            }
            StcError::TimestampOverflow { trip, index } => {
                write!(f, "timestamp delta overflow at trip {trip}, point {index}")
            }
            StcError::BadString { section, index } => {
                write!(f, "bad string entry at {section}[{index}]")
            }
            StcError::InvalidRoutes(e) => write!(f, "invalid model: {e}"),
        }
    }
}

impl std::error::Error for StcError {}

/// Why a *strict* trips read failed: either the container itself is
/// corrupt, or it decoded cleanly but a trip violates the
/// [`RawTrajectory`] invariants (too few points, out-of-order timestamps,
/// bad coordinates). Lenient callers use [`read_raw_trips_stc`] and route
/// the point runs through the sanitizer instead.
#[derive(Debug, Clone, PartialEq)]
pub enum StcReadError {
    /// Structural corruption in the container.
    Format(StcError),
    /// A decoded trip is not a valid trajectory.
    Trip {
        /// Trip index within the container.
        trip: usize,
        /// The invariant it violates.
        source: TrajectoryError,
    },
}

impl std::fmt::Display for StcReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StcReadError::Format(e) => write!(f, "{e}"),
            StcReadError::Trip { trip, source } => write!(f, "trip {trip}: {source}"),
        }
    }
}

impl std::error::Error for StcReadError {}

impl From<StcError> for StcReadError {
    fn from(e: StcError) -> Self {
        StcReadError::Format(e)
    }
}

/// Which on-disk encoding a model file uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFormat {
    /// The canonical JSON encoding (`TrainedModel::to_json`).
    Json,
    /// The STC1 columnar binary encoding.
    Stc,
}

impl std::str::FromStr for ModelFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "json" => Ok(ModelFormat::Json),
            "stc" => Ok(ModelFormat::Stc),
            other => Err(format!("unknown format {other:?} (expected json or stc)")),
        }
    }
}

impl std::fmt::Display for ModelFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelFormat::Json => write!(f, "json"),
            ModelFormat::Stc => write!(f, "stc"),
        }
    }
}

/// True when `bytes` starts with the STC1 magic — the sniff used to pick a
/// decoder for files and request bodies of unknown encoding.
pub fn is_stc(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == STC_MAGIC
}

/// The artifact kind ([`KIND_TRIPS`] or [`KIND_MODEL`]) of the file at
/// `path`, peeked from its header without reading the rest; `None` when
/// the file does not start with an STC1 header. Lets a caller pick the
/// trips or the model codec for an `.stc` file before decoding it.
pub fn file_kind(path: impl AsRef<std::path::Path>) -> std::io::Result<Option<u16>> {
    use std::io::Read;
    let mut head = Vec::with_capacity(8);
    std::fs::File::open(path)?.take(8).read_to_end(&mut head)?;
    Ok((head.len() == 8 && is_stc(&head)).then(|| u16::from_le_bytes([head[6], head[7]])))
}

// ---------------------------------------------------------------------------
// Container framing
// ---------------------------------------------------------------------------

const HEADER_BYTES: usize = 16;
const TABLE_ENTRY_BYTES: usize = 24;

fn align8(n: usize) -> usize {
    (n + 7) & !7
}

/// Assembles a container from `(tag, payload)` sections. Payload starts are
/// 8-byte aligned so a memory-mapped reader can reinterpret `f64`/`u64`
/// columns in place.
fn assemble(kind: u16, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let table_bytes = TABLE_ENTRY_BYTES * sections.len();
    let data_start = align8(HEADER_BYTES + table_bytes);
    let payload_bytes: usize = sections.iter().map(|(_, p)| align8(p.len())).sum();
    let mut out = Vec::with_capacity(data_start + payload_bytes);
    out.extend_from_slice(&STC_MAGIC);
    out.extend_from_slice(&STC_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    let mut off = data_start as u64;
    for (tag, payload) in sections {
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        off += align8(payload.len()) as u64;
    }
    out.resize(data_start, 0);
    for (_, payload) in sections {
        out.extend_from_slice(payload);
        out.resize(align8(out.len()), 0);
    }
    out
}

/// A parsed container: header fields plus borrowed section slices. Bounds
/// are fully validated at parse time, so section access cannot overrun.
struct StcView<'a> {
    kind: u16,
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> StcView<'a> {
    fn parse(bytes: &'a [u8]) -> Result<Self, StcError> {
        let have = bytes.len() as u64;
        if bytes.len() < HEADER_BYTES {
            return Err(StcError::Truncated { expected: HEADER_BYTES as u64, got: have });
        }
        let magic = [bytes[0], bytes[1], bytes[2], bytes[3]];
        if magic != STC_MAGIC {
            return Err(StcError::BadMagic { got: magic });
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != STC_VERSION {
            return Err(StcError::UnsupportedVersion { got: version });
        }
        let kind = u16::from_le_bytes([bytes[6], bytes[7]]);
        let n = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
        let table_end = (HEADER_BYTES as u64) + (TABLE_ENTRY_BYTES as u64) * (n as u64);
        if table_end > have {
            return Err(StcError::Truncated { expected: table_end, got: have });
        }
        let mut sections = Vec::with_capacity(n);
        for i in 0..n {
            let e = HEADER_BYTES + TABLE_ENTRY_BYTES * i;
            let tag = u32::from_le_bytes([bytes[e], bytes[e + 1], bytes[e + 2], bytes[e + 3]]);
            let off = u64::from_le_bytes([
                bytes[e + 8],
                bytes[e + 9],
                bytes[e + 10],
                bytes[e + 11],
                bytes[e + 12],
                bytes[e + 13],
                bytes[e + 14],
                bytes[e + 15],
            ]);
            let len = u64::from_le_bytes([
                bytes[e + 16],
                bytes[e + 17],
                bytes[e + 18],
                bytes[e + 19],
                bytes[e + 20],
                bytes[e + 21],
                bytes[e + 22],
                bytes[e + 23],
            ]);
            let end = off
                .checked_add(len)
                .ok_or(StcError::Truncated { expected: u64::MAX, got: have })?;
            if end > have {
                return Err(StcError::Truncated { expected: end, got: have });
            }
            sections.push((tag, &bytes[off as usize..end as usize]));
        }
        Ok(Self { kind, sections })
    }

    fn expect_kind(&self, expected: u16) -> Result<(), StcError> {
        if self.kind == expected {
            Ok(())
        } else {
            Err(StcError::WrongKind { expected, got: self.kind })
        }
    }

    fn section(&self, tag: u32) -> Result<&'a [u8], StcError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, s)| *s)
            .ok_or(StcError::MissingSection { tag })
    }
}

// ---------------------------------------------------------------------------
// Column encoding helpers
// ---------------------------------------------------------------------------

fn col_u32(vals: impl IntoIterator<Item = u32>) -> Vec<u8> {
    let vals = vals.into_iter();
    let mut out = Vec::with_capacity(4 * vals.size_hint().0);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn col_u64(vals: impl IntoIterator<Item = u64>) -> Vec<u8> {
    let vals = vals.into_iter();
    let mut out = Vec::with_capacity(8 * vals.size_hint().0);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn col_f64(vals: impl IntoIterator<Item = f64>) -> Vec<u8> {
    col_u64(vals.into_iter().map(f64::to_bits))
}

fn col_offsets(offsets: &[usize]) -> Vec<u8> {
    col_u64(offsets.iter().map(|&o| o as u64))
}

/// A section whose byte length is not a whole number of `width`-byte
/// elements.
fn ragged(s: &[u8], width: usize, name: &'static str) -> StcError {
    StcError::ColumnLengthMismatch {
        section: name,
        expected: (s.len() / width * width) as u64,
        got: s.len() as u64,
    }
}

/// Decodes a section of `N`-byte little-endian elements straight into its
/// column, one allocation sized by the section.
fn le_col<T, const N: usize>(
    view: &StcView,
    tag: u32,
    name: &'static str,
    decode: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, StcError> {
    let s = view.section(tag)?;
    if s.len() % N != 0 {
        return Err(ragged(s, N, name));
    }
    Ok(s.chunks_exact(N).map(|c| decode(c.try_into().expect("chunk is N bytes"))).collect())
}

fn u32_col(view: &StcView, tag: u32, name: &'static str) -> Result<Vec<u32>, StcError> {
    le_col(view, tag, name, u32::from_le_bytes)
}

fn u64_col(view: &StcView, tag: u32, name: &'static str) -> Result<Vec<u64>, StcError> {
    le_col(view, tag, name, u64::from_le_bytes)
}

fn f64_col(view: &StcView, tag: u32, name: &'static str) -> Result<Vec<f64>, StcError> {
    le_col(view, tag, name, |b| f64::from_bits(u64::from_le_bytes(b)))
}

fn id_col(view: &StcView, tag: u32, name: &'static str) -> Result<Vec<LandmarkId>, StcError> {
    le_col(view, tag, name, |b| LandmarkId(u32::from_le_bytes(b)))
}

/// An offsets column as `usize`. A value past `usize::MAX` saturates, so
/// the range check in [`PopularRoutes::from_parts`] rejects it.
fn offsets_col(view: &StcView, tag: u32, name: &'static str) -> Result<Vec<usize>, StcError> {
    le_col(view, tag, name, |b| usize::try_from(u64::from_le_bytes(b)).unwrap_or(usize::MAX))
}

/// A `(from, to)` key column zipped from its two `u32` sections.
fn key_col(
    view: &StcView,
    (from_tag, from_name): (u32, &'static str),
    (to_tag, to_name): (u32, &'static str),
) -> Result<Vec<(LandmarkId, LandmarkId)>, StcError> {
    let (from, to) = (view.section(from_tag)?, view.section(to_tag)?);
    if from.len() % 4 != 0 {
        return Err(ragged(from, 4, from_name));
    }
    if to.len() % 4 != 0 {
        return Err(ragged(to, 4, to_name));
    }
    same_len(to_name, from.len() / 4, to.len() / 4)?;
    let id = |c: &[u8]| LandmarkId(u32::from_le_bytes(c.try_into().expect("chunk is 4 bytes")));
    Ok(from.chunks_exact(4).zip(to.chunks_exact(4)).map(|(f, t)| (id(f), id(t))).collect())
}

fn same_len(name: &'static str, expected: usize, got: usize) -> Result<(), StcError> {
    if expected == got {
        Ok(())
    } else {
        Err(StcError::ColumnLengthMismatch {
            section: name,
            expected: expected as u64,
            got: got as u64,
        })
    }
}

/// Validates a prefix-sum offsets column: first entry 0, monotone
/// non-decreasing, last entry equal to `total` elements of the column it
/// indexes into. Returns the offsets as `usize` for slicing.
fn check_offsets(offs: &[u64], total: usize, name: &'static str) -> Result<Vec<usize>, StcError> {
    let Some((&first, _)) = offs.split_first() else {
        return Err(StcError::ColumnLengthMismatch { section: name, expected: 1, got: 0 });
    };
    if first != 0 {
        return Err(StcError::BadOffsets { section: name, index: 0 });
    }
    let mut out = Vec::with_capacity(offs.len());
    let mut prev = 0u64;
    for (i, &o) in offs.iter().enumerate() {
        if o < prev || o > total as u64 {
            return Err(StcError::BadOffsets { section: name, index: i });
        }
        prev = o;
        out.push(o as usize);
    }
    if prev != total as u64 {
        return Err(StcError::ColumnLengthMismatch {
            section: name,
            expected: total as u64,
            got: prev,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Varints (LEB128) with zigzag for signed values
// ---------------------------------------------------------------------------

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn push_zigzag(out: &mut Vec<u8>, n: i64) {
    push_varint(out, ((n << 1) ^ (n >> 63)) as u64);
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn read_varint(buf: &[u8], pos: &mut usize, section: &'static str) -> Result<u64, StcError> {
    let start = *pos;
    let mut shift = 0u32;
    let mut val = 0u64;
    loop {
        let &b = buf.get(*pos).ok_or(StcError::BadVarint { section, offset: start })?;
        *pos += 1;
        if shift > 63 || (shift == 63 && (b & 0x7f) > 1) {
            return Err(StcError::BadVarint { section, offset: start });
        }
        val |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(val);
        }
        shift += 7;
    }
}

fn read_zigzag(buf: &[u8], pos: &mut usize, section: &'static str) -> Result<i64, StcError> {
    Ok(unzigzag(read_varint(buf, pos, section)?))
}

// ---------------------------------------------------------------------------
// Trips
// ---------------------------------------------------------------------------

/// Encodes validated trajectories. See [`write_point_runs_stc`] for the
/// layout; this is the path `convert` and the benches use for clean data.
pub fn write_trips_stc(trips: &[RawTrajectory]) -> Vec<u8> {
    write_point_runs_stc(trips.iter().map(|t| t.points()))
}

/// Encodes arbitrary point runs — including defective ones (out-of-order
/// timestamps, bad coordinates) — so `convert` can carry raw uploads into
/// STC1 *before* sanitization without losing the defects the sanitizer
/// needs to see. Timestamps within ±2⁶² seconds round-trip exactly (every
/// realistic epoch by ~10¹¹ years).
pub fn write_point_runs_stc<'a>(runs: impl IntoIterator<Item = &'a [RawPoint]>) -> Vec<u8> {
    let mut offsets = vec![0u64];
    let mut lat: Vec<u8> = Vec::new();
    let mut lon: Vec<u8> = Vec::new();
    let mut ts: Vec<u8> = Vec::new();
    let mut n_points = 0u64;
    for run in runs {
        for p in run {
            lat.extend_from_slice(&p.point.lat.to_bits().to_le_bytes());
            lon.extend_from_slice(&p.point.lon.to_bits().to_le_bytes());
        }
        if let Some((first, rest)) = run.split_first() {
            push_zigzag(&mut ts, first.t.0);
            let mut prev = first.t.0;
            for p in rest {
                push_zigzag(&mut ts, p.t.0.wrapping_sub(prev));
                prev = p.t.0;
            }
        }
        n_points += run.len() as u64;
        offsets.push(n_points);
    }
    assemble(
        KIND_TRIPS,
        &[(TAG_TRIP_OFFSETS, col_u64(offsets)), (TAG_LAT, lat), (TAG_LON, lon), (TAG_TS, ts)],
    )
}

/// Lenient trips decode: structural corruption is a typed [`StcError`],
/// but the *content* of each trip is returned as-is — defective runs flow
/// to the `--sanitize` policies exactly like the lenient text readers.
pub fn read_raw_trips_stc(bytes: &[u8]) -> Result<Vec<Vec<RawPoint>>, StcError> {
    let view = StcView::parse(bytes)?;
    view.expect_kind(KIND_TRIPS)?;
    let offs_raw = u64_col(&view, TAG_TRIP_OFFSETS, "trip_offsets")?;
    let lat = f64_col(&view, TAG_LAT, "lat")?;
    let lon = f64_col(&view, TAG_LON, "lon")?;
    same_len("lon", lat.len(), lon.len())?;
    let offs = check_offsets(&offs_raw, lat.len(), "trip_offsets")?;
    let ts = view.section(TAG_TS)?;
    let mut pos = 0usize;
    let mut trips = Vec::with_capacity(offs.len() - 1);
    for (ti, w) in offs.windows(2).enumerate() {
        let (a, b) = (w[0], w[1]);
        let mut pts = Vec::with_capacity(b - a);
        let mut t_prev = 0i64;
        for i in a..b {
            let d = read_zigzag(ts, &mut pos, "timestamps")?;
            let t = if i == a {
                d
            } else {
                t_prev
                    .checked_add(d)
                    .ok_or(StcError::TimestampOverflow { trip: ti, index: i - a })?
            };
            t_prev = t;
            pts.push(RawPoint { point: GeoPoint { lat: lat[i], lon: lon[i] }, t: Timestamp(t) });
        }
        trips.push(pts);
    }
    if pos != ts.len() {
        return Err(StcError::ColumnLengthMismatch {
            section: "timestamps",
            expected: pos as u64,
            got: ts.len() as u64,
        });
    }
    Ok(trips)
}

/// Strict trips decode: every trip must satisfy the [`RawTrajectory`]
/// invariants, with per-trip typed errors otherwise.
pub fn read_trips_stc(bytes: &[u8]) -> Result<Vec<RawTrajectory>, StcReadError> {
    let runs = read_raw_trips_stc(bytes)?;
    runs.into_iter()
        .enumerate()
        .map(|(i, pts)| {
            RawTrajectory::try_new(pts).map_err(|source| StcReadError::Trip { trip: i, source })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Models
// ---------------------------------------------------------------------------

/// Encodes a trained model. Rows come out of the columnar boundaries
/// key-sorted, so the encoding is a pure function of the model's logical
/// content — two models with equal `to_json` encode to identical bytes.
pub fn write_model_stc(model: &TrainedModel) -> Vec<u8> {
    let numeric = model.featmap.numeric_rows();
    let categorical = model.featmap.categorical_rows();
    let p = model.popular.parts();

    let mut names: Vec<&str> = numeric
        .iter()
        .map(|r| r.2.as_str())
        .chain(categorical.iter().map(|r| r.2.as_str()))
        .collect();
    names.sort_unstable();
    names.dedup();
    let name_idx =
        |s: &str| -> u32 { names.binary_search(&s).expect("feature name interned above") as u32 };
    let mut feat_names = Vec::new();
    feat_names.extend_from_slice(&(names.len() as u64).to_le_bytes());
    for n in &names {
        feat_names.extend_from_slice(&(n.len() as u32).to_le_bytes());
        feat_names.extend_from_slice(n.as_bytes());
    }

    let meta = col_u64([
        model.n_trained as u64,
        model.registry_len as u64,
        p.cfg.min_support as u64,
        p.cfg.max_indexed_span as u64,
    ]);

    let sections = vec![
        (TAG_META, meta),
        (TAG_FEAT_NAMES, feat_names),
        (TAG_FM_NUM_FROM, col_u32(numeric.iter().map(|r| r.0 .0))),
        (TAG_FM_NUM_TO, col_u32(numeric.iter().map(|r| r.1 .0))),
        (TAG_FM_NUM_FEAT, col_u32(numeric.iter().map(|r| name_idx(&r.2)))),
        (TAG_FM_NUM_SUM, col_f64(numeric.iter().map(|r| r.3))),
        (TAG_FM_NUM_COUNT, col_u64(numeric.iter().map(|r| r.4))),
        (TAG_FM_CAT_FROM, col_u32(categorical.iter().map(|r| r.0 .0))),
        (TAG_FM_CAT_TO, col_u32(categorical.iter().map(|r| r.1 .0))),
        (TAG_FM_CAT_FEAT, col_u32(categorical.iter().map(|r| name_idx(&r.2)))),
        (TAG_FM_CAT_CODE, col_u32(categorical.iter().map(|r| r.3))),
        (TAG_FM_CAT_COUNT, col_u64(categorical.iter().map(|r| r.4))),
        (TAG_CORPUS_OFFSETS, col_offsets(&p.corpus_offsets)),
        (TAG_CORPUS_IDS, col_u32(p.corpus_ids.iter().map(|l| l.0))),
        (TAG_PAIR_FROM, col_u32(p.pair_keys.iter().map(|k| k.0 .0))),
        (TAG_PAIR_TO, col_u32(p.pair_keys.iter().map(|k| k.1 .0))),
        (TAG_PAIR_OFFSETS, col_offsets(&p.pair_offsets)),
        (TAG_OCC_TRAJ, col_u32(p.occ_traj.iter().copied())),
        (TAG_OCC_START, col_u32(p.occ_start.iter().copied())),
        (TAG_OCC_END, col_u32(p.occ_end.iter().copied())),
        (TAG_TR_SRC, col_u32(p.tr_src.iter().map(|l| l.0))),
        (TAG_TR_OFFSETS, col_offsets(&p.tr_offsets)),
        (TAG_TR_DST, col_u32(p.tr_dst.iter().map(|l| l.0))),
        (TAG_TR_W, col_f64(p.tr_w.iter().copied())),
        (TAG_SUP_FROM, col_u32(p.sup_keys.iter().map(|k| k.0 .0))),
        (TAG_SUP_TO, col_u32(p.sup_keys.iter().map(|k| k.1 .0))),
        (TAG_SUP_VAL, col_u32(p.sup_val.iter().copied())),
        (TAG_WIN_FROM, col_u32(p.win_keys.iter().map(|k| k.0 .0))),
        (TAG_WIN_TO, col_u32(p.win_keys.iter().map(|k| k.1 .0))),
        (TAG_WIN_OFFSETS, col_offsets(&p.win_offsets)),
        (TAG_WIN_IDS, col_u32(p.win_ids.iter().map(|l| l.0))),
    ];
    assemble(KIND_MODEL, &sections)
}

fn read_names(buf: &[u8]) -> Result<Vec<String>, StcError> {
    const S: &str = "feat_names";
    if buf.len() < 8 {
        return Err(StcError::Truncated { expected: 8, got: buf.len() as u64 });
    }
    let count = u64::from_le_bytes(buf[..8].try_into().expect("checked 8 bytes"));
    let mut pos = 8usize;
    // Each entry needs ≥ 4 bytes, so a hostile count cannot out-allocate
    // the actual section size.
    let mut names = Vec::with_capacity(((buf.len() - 8) / 4).min(count as usize));
    for i in 0..count {
        let i = i as usize;
        let hdr = buf.get(pos..pos + 4).ok_or(StcError::BadString { section: S, index: i })?;
        let len = u32::from_le_bytes(hdr.try_into().expect("checked 4 bytes")) as usize;
        pos += 4;
        let end = pos.checked_add(len).ok_or(StcError::BadString { section: S, index: i })?;
        let bytes = buf.get(pos..end).ok_or(StcError::BadString { section: S, index: i })?;
        pos = end;
        let s =
            std::str::from_utf8(bytes).map_err(|_| StcError::BadString { section: S, index: i })?;
        names.push(s.to_owned());
    }
    if pos != buf.len() {
        return Err(StcError::ColumnLengthMismatch {
            section: S,
            expected: pos as u64,
            got: buf.len() as u64,
        });
    }
    Ok(names)
}

/// Resolves a feature-name index column against the string table.
fn resolve_names<'n>(
    idxs: &[u32],
    names: &'n [String],
    section: &'static str,
) -> Result<Vec<&'n String>, StcError> {
    idxs.iter()
        .enumerate()
        .map(|(i, &ix)| names.get(ix as usize).ok_or(StcError::BadString { section, index: i }))
        .collect()
}

/// Decodes a trained model. The rebuilt model's `to_json` is byte-identical
/// to the source model's: the popular-route columns come back exactly as
/// stored, the feature map's encoder key-sorts (`serde_vecmap`), and every
/// `f64` travels as exact bits.
pub fn read_model_stc(bytes: &[u8]) -> Result<TrainedModel, StcError> {
    let view = StcView::parse(bytes)?;
    view.expect_kind(KIND_MODEL)?;

    let meta = u64_col(&view, TAG_META, "meta")?;
    if meta.len() != 4 {
        return Err(StcError::ColumnLengthMismatch {
            section: "meta",
            expected: 4,
            got: meta.len() as u64,
        });
    }
    let names = read_names(view.section(TAG_FEAT_NAMES)?)?;

    let num_from = u32_col(&view, TAG_FM_NUM_FROM, "fm_num_from")?;
    let num_to = u32_col(&view, TAG_FM_NUM_TO, "fm_num_to")?;
    let num_feat = u32_col(&view, TAG_FM_NUM_FEAT, "fm_num_feat")?;
    let num_sum = f64_col(&view, TAG_FM_NUM_SUM, "fm_num_sum")?;
    let num_count = u64_col(&view, TAG_FM_NUM_COUNT, "fm_num_count")?;
    same_len("fm_num_to", num_from.len(), num_to.len())?;
    same_len("fm_num_feat", num_from.len(), num_feat.len())?;
    same_len("fm_num_sum", num_from.len(), num_sum.len())?;
    same_len("fm_num_count", num_from.len(), num_count.len())?;
    let num_names = resolve_names(&num_feat, &names, "fm_num_feat")?;

    let cat_from = u32_col(&view, TAG_FM_CAT_FROM, "fm_cat_from")?;
    let cat_to = u32_col(&view, TAG_FM_CAT_TO, "fm_cat_to")?;
    let cat_feat = u32_col(&view, TAG_FM_CAT_FEAT, "fm_cat_feat")?;
    let cat_code = u32_col(&view, TAG_FM_CAT_CODE, "fm_cat_code")?;
    let cat_count = u64_col(&view, TAG_FM_CAT_COUNT, "fm_cat_count")?;
    same_len("fm_cat_to", cat_from.len(), cat_to.len())?;
    same_len("fm_cat_feat", cat_from.len(), cat_feat.len())?;
    same_len("fm_cat_code", cat_from.len(), cat_code.len())?;
    same_len("fm_cat_count", cat_from.len(), cat_count.len())?;
    let cat_names = resolve_names(&cat_feat, &names, "fm_cat_feat")?;

    let featmap = HistoricalFeatureMap::from_rows(
        (0..num_from.len()).map(|i| {
            (
                LandmarkId(num_from[i]),
                LandmarkId(num_to[i]),
                num_names[i].clone(),
                num_sum[i],
                num_count[i],
            )
        }),
        (0..cat_from.len()).map(|i| {
            (
                LandmarkId(cat_from[i]),
                LandmarkId(cat_to[i]),
                cat_names[i].clone(),
                cat_code[i],
                cat_count[i],
            )
        }),
    );

    let parts = PopularRoutesParts {
        cfg: PopularRouteConfig {
            min_support: meta[2] as usize,
            max_indexed_span: meta[3] as usize,
        },
        corpus_offsets: offsets_col(&view, TAG_CORPUS_OFFSETS, "corpus_offsets")?,
        corpus_ids: id_col(&view, TAG_CORPUS_IDS, "corpus_ids")?,
        pair_keys: key_col(&view, (TAG_PAIR_FROM, "pair_from"), (TAG_PAIR_TO, "pair_to"))?,
        pair_offsets: offsets_col(&view, TAG_PAIR_OFFSETS, "pair_offsets")?,
        occ_traj: u32_col(&view, TAG_OCC_TRAJ, "occ_traj")?,
        occ_start: u32_col(&view, TAG_OCC_START, "occ_start")?,
        occ_end: u32_col(&view, TAG_OCC_END, "occ_end")?,
        tr_src: id_col(&view, TAG_TR_SRC, "tr_src")?,
        tr_offsets: offsets_col(&view, TAG_TR_OFFSETS, "tr_offsets")?,
        tr_dst: id_col(&view, TAG_TR_DST, "tr_dst")?,
        tr_w: f64_col(&view, TAG_TR_W, "tr_w")?,
        sup_keys: key_col(&view, (TAG_SUP_FROM, "sup_from"), (TAG_SUP_TO, "sup_to"))?,
        sup_val: u32_col(&view, TAG_SUP_VAL, "sup_val")?,
        win_keys: key_col(&view, (TAG_WIN_FROM, "win_from"), (TAG_WIN_TO, "win_to"))?,
        win_offsets: offsets_col(&view, TAG_WIN_OFFSETS, "win_offsets")?,
        win_ids: id_col(&view, TAG_WIN_IDS, "win_ids")?,
    };
    Ok(TrainedModel {
        popular: PopularRoutes::from_parts(parts).map_err(StcError::InvalidRoutes)?,
        featmap,
        n_trained: meta[0] as usize,
        registry_len: meta[1] as usize,
    })
}

// ---------------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------------

fn invalid_data(e: impl std::error::Error + Send + Sync + 'static) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

/// Reads a model file of either encoding, sniffing the STC1 magic and
/// falling back to JSON. All decode failures surface as
/// `io::ErrorKind::InvalidData` with the typed error as source.
pub fn read_model_file(path: impl AsRef<std::path::Path>) -> std::io::Result<TrainedModel> {
    read_model_file_as(path, None)
}

/// Like [`read_model_file`], but `format` (when given) forces a decoder
/// instead of sniffing — the CLI's `--format` escape hatch for files whose
/// leading bytes are untrustworthy.
pub fn read_model_file_as(
    path: impl AsRef<std::path::Path>,
    format: Option<ModelFormat>,
) -> std::io::Result<TrainedModel> {
    let bytes = std::fs::read(path)?;
    let format =
        format.unwrap_or(if is_stc(&bytes) { ModelFormat::Stc } else { ModelFormat::Json });
    match format {
        ModelFormat::Stc => read_model_stc(&bytes).map_err(invalid_data),
        ModelFormat::Json => {
            let text = String::from_utf8(bytes).map_err(|e| invalid_data(e.utf8_error()))?;
            TrainedModel::from_json(&text).map_err(invalid_data)
        }
    }
}

/// Writes a model file in the requested encoding (buffered, single write).
pub fn write_model_file(
    path: impl AsRef<std::path::Path>,
    model: &TrainedModel,
    format: ModelFormat,
) -> std::io::Result<()> {
    let bytes = match format {
        ModelFormat::Stc => write_model_stc(model),
        ModelFormat::Json => model.to_json().into_bytes(),
    };
    std::fs::write(path, bytes)
}

/// The byte range of section `tag`'s payload within `bytes`. Exposed for
/// the fault-injection tests, which patch specific columns in place.
pub fn section_range(bytes: &[u8], tag: u32) -> Result<std::ops::Range<usize>, StcError> {
    let s = StcView::parse(bytes)?.section(tag)?;
    let start = s.as_ptr() as usize - bytes.as_ptr() as usize;
    Ok(start..start + s.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(lat: f64, lon: f64, t: i64) -> RawPoint {
        RawPoint { point: GeoPoint { lat, lon }, t: Timestamp(t) }
    }

    fn two_trips() -> Vec<RawTrajectory> {
        vec![
            RawTrajectory::new(vec![pt(39.1, 116.2, 100), pt(39.2, 116.3, 160)]),
            RawTrajectory::new(vec![pt(40.0, 117.0, 0), pt(40.1, 117.1, 30), pt(40.2, 117.2, 95)]),
        ]
    }

    #[test]
    fn trips_round_trip_exactly() {
        let trips = two_trips();
        let bytes = write_trips_stc(&trips);
        assert!(is_stc(&bytes));
        let back = read_trips_stc(&bytes).unwrap();
        assert_eq!(trips, back);
    }

    #[test]
    fn empty_trip_set_round_trips() {
        let bytes = write_trips_stc(&[]);
        assert!(read_trips_stc(&bytes).unwrap().is_empty());
    }

    #[test]
    fn defective_runs_survive_lenient_decode() {
        // Out-of-order timestamps and an out-of-range coordinate must reach
        // the sanitizer unaltered.
        let runs: Vec<Vec<RawPoint>> =
            vec![vec![pt(39.0, 116.0, 500), pt(95.0, 116.1, 400), pt(39.2, 116.2, 450)]];
        let bytes = write_point_runs_stc(runs.iter().map(Vec::as_slice));
        let back = read_raw_trips_stc(&bytes).unwrap();
        assert_eq!(runs, back);
        // The strict reader refuses the same bytes with a typed trip error.
        match read_trips_stc(&bytes) {
            Err(StcReadError::Trip { trip: 0, .. }) => {}
            other => panic!("expected trip error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_garbled_headers_are_typed() {
        let bytes = write_trips_stc(&two_trips());
        assert_eq!(
            read_raw_trips_stc(&bytes[..8]),
            Err(StcError::Truncated { expected: 16, got: 8 })
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(read_raw_trips_stc(&bad), Err(StcError::BadMagic { .. })));
        let mut v2 = bytes.clone();
        v2[4] = 2;
        assert_eq!(read_raw_trips_stc(&v2), Err(StcError::UnsupportedVersion { got: 2 }));
        let mut wrong = bytes;
        wrong[6] = KIND_MODEL as u8;
        assert_eq!(
            read_raw_trips_stc(&wrong),
            Err(StcError::WrongKind { expected: KIND_TRIPS, got: KIND_MODEL })
        );
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for n in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 1 << 40, -(1 << 40)] {
            let mut buf = Vec::new();
            push_zigzag(&mut buf, n);
            let mut pos = 0;
            assert_eq!(read_zigzag(&buf, &mut pos, "t").unwrap(), n);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_overflow_is_an_error() {
        // 11 continuation bytes can never be a valid u64 varint.
        let buf = [0xffu8; 11];
        let mut pos = 0;
        assert_eq!(
            read_varint(&buf, &mut pos, "t"),
            Err(StcError::BadVarint { section: "t", offset: 0 })
        );
    }

    #[test]
    fn sections_are_aligned() {
        let bytes = write_trips_stc(&two_trips());
        let view = StcView::parse(&bytes).unwrap();
        for (_, s) in &view.sections {
            let off = s.as_ptr() as usize - bytes.as_ptr() as usize;
            assert_eq!(off % 8, 0, "section payload not 8-byte aligned");
        }
    }

    #[test]
    fn model_format_parses() {
        assert_eq!("json".parse::<ModelFormat>(), Ok(ModelFormat::Json));
        assert_eq!("stc".parse::<ModelFormat>(), Ok(ModelFormat::Stc));
        assert!("parquet".parse::<ModelFormat>().is_err());
    }

    #[test]
    fn empty_model_round_trips_canonically() {
        let model = TrainedModel {
            popular: PopularRoutes::from_parts(PopularRoutesParts::default()).unwrap(),
            featmap: HistoricalFeatureMap::new(),
            n_trained: 0,
            registry_len: 7,
        };
        let bytes = write_model_stc(&model);
        let back = read_model_stc(&bytes).unwrap();
        assert_eq!(model.to_json(), back.to_json());
    }

    #[test]
    fn featmap_rows_round_trip_in_model() {
        let mut fm = HistoricalFeatureMap::new();
        fm.add_observation(LandmarkId(1), LandmarkId(2), "speed", 33.25);
        fm.add_observation(LandmarkId(1), LandmarkId(2), "speed", 0.1);
        fm.add_categorical_observation(LandmarkId(2), LandmarkId(3), "grade", 4);
        let model = TrainedModel {
            popular: PopularRoutes::from_parts(PopularRoutesParts::default()).unwrap(),
            featmap: fm,
            n_trained: 2,
            registry_len: 9,
        };
        let bytes = write_model_stc(&model);
        let back = read_model_stc(&bytes).unwrap();
        assert_eq!(model.to_json(), back.to_json());
        assert_eq!(
            back.featmap.regular_value(LandmarkId(1), LandmarkId(2), "speed"),
            model.featmap.regular_value(LandmarkId(1), LandmarkId(2), "speed"),
        );
    }

    #[test]
    fn model_decode_rejects_trips_container() {
        let bytes = write_trips_stc(&two_trips());
        assert!(matches!(
            read_model_stc(&bytes),
            Err(StcError::WrongKind { expected: KIND_MODEL, got: KIND_TRIPS })
        ));
    }
}
