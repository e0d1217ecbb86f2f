//! STC1 — the columnar binary container for trips and trained models.
//!
//! Text ingest re-parses floats point-by-point, and a text model format
//! would walk a DOM that grows with the corpus; at million-trip scale both
//! dominate wall-clock. STC1 is the flat container that replaces them, and
//! the only encoding a trained model has:
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
//! **Models** (`kind = 2`): both halves of a [`TrainedModel`] already *are*
//! key-sorted columns. [`HistoricalFeatureMap`] is [`FeatureMapParts`]: a
//! sorted, deduplicated feature-name table, numeric rows
//! `from`/`to`/`feat`/`sum`/`count` sorted strictly by `(from, to, feat)`,
//! and categorical rows `from`/`to`/`feat`/`code`/`count` sorted strictly
//! by `(from, to, feat, code)`, with `feat` a `u32` index into the name
//! table. [`PopularRoutes`] is [`PopularRoutesParts`], except that the
//! support and winner tables keep their own `(from, to)` key sections in
//! the file while the model indexes both by its one pair key column: the
//! encoder writes the pair keys as the support keys, and the keys of the
//! pairs with a winner, with the winner offsets of those pairs alone. The
//! encoder computes the section table from the column lengths, then writes
//! every column borrowed, straight into one buffer sized exactly up front.
//! The decoder reads each section straight into the column it came from
//! and hands each set to its `from_parts`, which validates it (a refusal
//! is [`StcError::InvalidFeatureMap`] or [`StcError::InvalidRoutes`]) and
//! adopts it without copying. The support and winner key sections are
//! compared with the pair keys as they stream in and never allocated; a
//! file the encoder could not have written is a typed
//! [`StcError::SupportKeyMismatch`], [`StcError::WinnerKeyMissing`] or
//! [`StcError::EmptyWinner`]. [`read_model_stc`] decodes a byte slice;
//! [`read_model_file`] streams a file through the same column readers,
//! checking every section's extent against the file's length before it
//! allocates anything and then reading each section in bounded chunks, so
//! it never holds the file's bytes whole. The encoding is a pure function
//! of the columns, so a decoded model re-encodes to the same bytes, and
//! every summary it gives is byte-identical to the original's
//! (DESIGN.md §16).
//!
//! Decoding never panics: structural corruption maps to a typed
//! [`StcError`], and allocation is bounded by actual section byte lengths,
//! never by counts read from the (possibly hostile) file.

use std::borrow::Cow;

use stmaker::TrainedModel;
use stmaker_geo::GeoPoint;
use stmaker_poi::LandmarkId;
use stmaker_routes::{
    FeatureMapError, FeatureMapParts, HistoricalFeatureMap, PartsError, PopularRouteConfig,
    PopularRoutes, PopularRoutesParts,
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

/// Every section tag with the column name its errors report.
const SECTION_NAMES: &[(u32, &str)] = &[
    (TAG_TRIP_OFFSETS, "trip_offsets"),
    (TAG_LAT, "lat"),
    (TAG_LON, "lon"),
    (TAG_TS, "timestamps"),
    (TAG_META, "meta"),
    (TAG_FEAT_NAMES, "feat_names"),
    (TAG_FM_NUM_FROM, "fm_num_from"),
    (TAG_FM_NUM_TO, "fm_num_to"),
    (TAG_FM_NUM_FEAT, "fm_num_feat"),
    (TAG_FM_NUM_SUM, "fm_num_sum"),
    (TAG_FM_NUM_COUNT, "fm_num_count"),
    (TAG_FM_CAT_FROM, "fm_cat_from"),
    (TAG_FM_CAT_TO, "fm_cat_to"),
    (TAG_FM_CAT_FEAT, "fm_cat_feat"),
    (TAG_FM_CAT_CODE, "fm_cat_code"),
    (TAG_FM_CAT_COUNT, "fm_cat_count"),
    (TAG_CORPUS_OFFSETS, "corpus_offsets"),
    (TAG_CORPUS_IDS, "corpus_ids"),
    (TAG_PAIR_FROM, "pair_from"),
    (TAG_PAIR_TO, "pair_to"),
    (TAG_PAIR_OFFSETS, "pair_offsets"),
    (TAG_OCC_TRAJ, "occ_traj"),
    (TAG_OCC_START, "occ_start"),
    (TAG_OCC_END, "occ_end"),
    (TAG_TR_SRC, "tr_src"),
    (TAG_TR_OFFSETS, "tr_offsets"),
    (TAG_TR_DST, "tr_dst"),
    (TAG_TR_W, "tr_w"),
    (TAG_SUP_FROM, "sup_from"),
    (TAG_SUP_TO, "sup_to"),
    (TAG_SUP_VAL, "sup_val"),
    (TAG_WIN_FROM, "win_from"),
    (TAG_WIN_TO, "win_to"),
    (TAG_WIN_OFFSETS, "win_offsets"),
    (TAG_WIN_IDS, "win_ids"),
];

/// The column name of section `tag`, or `"unknown"`.
fn section_name(tag: u32) -> &'static str {
    SECTION_NAMES.iter().find(|(t, _)| *t == tag).map_or("unknown", |(_, name)| name)
}

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
    /// The first four bytes are not `b"STC1"`, or a shorter file is not a
    /// prefix of it.
    BadMagic {
        /// The bytes found where the magic should be, zero-padded when the
        /// file holds fewer than four.
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
    /// A string-table entry overruns its section or is not UTF-8.
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
    /// The feature-map sections decode but do not form a servable map:
    /// unsorted names or rows, a name index past the table, a non-finite
    /// sum, or a zero count.
    InvalidFeatureMap(FeatureMapError),
    /// The support table's key sections (`sup_from`/`sup_to`) differ from
    /// the pair keys they repeat.
    SupportKeyMismatch {
        /// Index of the first support key that differs.
        index: usize,
    },
    /// A winner key (`win_from`/`win_to`) is not one of the pair keys
    /// after the previous winner's, so the winners do not name distinct
    /// pairs in pair order.
    WinnerKeyMissing {
        /// Index of the winner.
        index: usize,
    },
    /// A winner's span in `win_offsets` is empty: a pair without a winner
    /// has no winner key.
    EmptyWinner {
        /// Index of the winner.
        index: usize,
    },
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
                write!(f, "missing STC1 section 0x{tag:02x} ({})", section_name(*tag))
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
            StcError::InvalidFeatureMap(e) => write!(f, "invalid model: {e}"),
            StcError::SupportKeyMismatch { index } => {
                write!(f, "invalid model: support key {index} differs from the pair keys")
            }
            StcError::WinnerKeyMissing { index } => {
                write!(f, "invalid model: winner key {index} is not a pair key in pair order")
            }
            StcError::EmptyWinner { index } => write!(f, "invalid model: winner {index} is empty"),
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

// ---------------------------------------------------------------------------
// Container framing
// ---------------------------------------------------------------------------

const HEADER_BYTES: usize = 16;
const TABLE_ENTRY_BYTES: usize = 24;
/// A file is read through a buffer of this many bytes. It is a multiple of
/// every element width, so each chunk holds whole column elements; the
/// column decoders rely on that (see `le_col`).
const READ_CHUNK: usize = 64 * 1024;
const _: () = assert!(READ_CHUNK % 8 == 0);

fn align8(n: usize) -> usize {
    (n + 7) & !7
}

/// An ordered landmark pair `(from, to)`.
type PairKey = (LandmarkId, LandmarkId);

/// One section payload as the writer sees it, borrowed from the column it
/// encodes.
enum Col<'a> {
    Bytes(&'a [u8]),
    U32s(&'a [u32]),
    U64s(&'a [u64]),
    F64s(&'a [f64]),
    Ids(&'a [LandmarkId]),
    /// The `from` halves of a key column.
    KeyFrom(&'a [PairKey]),
    /// The `to` halves of a key column.
    KeyTo(&'a [PairKey]),
    /// A prefix-sum offsets column, stored as `u64`.
    Offsets(&'a [usize]),
    /// A string table: a `u64` count, then per entry a `u32` byte length
    /// and the UTF-8 bytes.
    Names(&'a [String]),
}

impl Col<'_> {
    fn byte_len(&self) -> usize {
        match self {
            Col::Bytes(b) => b.len(),
            Col::U32s(v) => 4 * v.len(),
            Col::Ids(v) => 4 * v.len(),
            Col::KeyFrom(v) | Col::KeyTo(v) => 4 * v.len(),
            Col::U64s(v) => 8 * v.len(),
            Col::F64s(v) => 8 * v.len(),
            Col::Offsets(v) => 8 * v.len(),
            Col::Names(v) => 8 + v.iter().map(|s| 4 + s.len()).sum::<usize>(),
        }
    }

    fn write(&self, out: &mut Vec<u8>) {
        /// Grows `out` once by the column's byte length, then writes each
        /// element's `N` bytes into its slot.
        fn put<T: Copy, const N: usize>(out: &mut Vec<u8>, vals: &[T], enc: impl Fn(T) -> [u8; N]) {
            let start = out.len();
            out.resize(start + N * vals.len(), 0);
            for (slot, &v) in out[start..].chunks_exact_mut(N).zip(vals) {
                slot.copy_from_slice(&enc(v));
            }
        }
        match *self {
            Col::Bytes(b) => out.extend_from_slice(b),
            Col::U32s(v) => put(out, v, u32::to_le_bytes),
            Col::Ids(v) => put(out, v, |l| l.0.to_le_bytes()),
            Col::KeyFrom(v) => put(out, v, |k| k.0 .0.to_le_bytes()),
            Col::KeyTo(v) => put(out, v, |k| k.1 .0.to_le_bytes()),
            Col::U64s(v) => put(out, v, u64::to_le_bytes),
            Col::F64s(v) => put(out, v, |x| x.to_bits().to_le_bytes()),
            Col::Offsets(v) => put(out, v, |o| (o as u64).to_le_bytes()),
            Col::Names(names) => {
                out.extend_from_slice(&(names.len() as u64).to_le_bytes());
                for n in names {
                    out.extend_from_slice(&(n.len() as u32).to_le_bytes());
                    out.extend_from_slice(n.as_bytes());
                }
            }
        }
    }
}

/// Writes a container from `(tag, column)` sections into one buffer, sized
/// exactly up front: the section table is computed from the column
/// lengths, then each payload is written straight from its column. Payload
/// starts are 8-byte aligned so a memory-mapped reader can reinterpret
/// `f64`/`u64` columns in place.
fn assemble(kind: u16, sections: &[(u32, Col)]) -> Vec<u8> {
    let data_start = align8(HEADER_BYTES + TABLE_ENTRY_BYTES * sections.len());
    let total = data_start + sections.iter().map(|(_, c)| align8(c.byte_len())).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&STC_MAGIC);
    out.extend_from_slice(&STC_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    let mut off = data_start as u64;
    for (tag, col) in sections {
        let len = col.byte_len();
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&(len as u64).to_le_bytes());
        off += align8(len) as u64;
    }
    out.resize(data_start, 0);
    for (_, col) in sections {
        col.write(&mut out);
        out.resize(align8(out.len()), 0);
    }
    debug_assert_eq!(out.len(), total, "section table promised {total} bytes");
    out
}

/// Where a container's bytes come from: a slice in memory, or a file read
/// in bounded chunks. Every model section is read through this, so
/// [`read_model_stc`] and [`read_model_file`] share one set of column
/// readers and validations.
trait Source {
    /// What a failed read reports; structural faults are [`StcError`]s.
    type Error: From<StcError>;

    /// Container length in bytes.
    fn len(&self) -> u64;

    /// Passes the `len` bytes at `off` to `sink` in order, in chunks whose
    /// lengths are multiples of 8 except the last.
    fn read(&mut self, off: u64, len: u64, sink: &mut dyn FnMut(&[u8])) -> Result<(), Self::Error>;
}

/// A container held in memory; read as one chunk.
struct SliceSource<'a>(&'a [u8]);

impl<'a> SliceSource<'a> {
    /// The `len` bytes at `off`.
    fn payload(&self, off: u64, len: u64) -> Result<&'a [u8], StcError> {
        let end = off.saturating_add(len);
        let range = usize::try_from(off).ok().zip(usize::try_from(end).ok());
        range
            .and_then(|(a, b)| self.0.get(a..b))
            .ok_or(StcError::Truncated { expected: end, got: self.len() })
    }
}

impl Source for SliceSource<'_> {
    type Error = StcError;

    fn len(&self) -> u64 {
        self.0.len() as u64
    }

    fn read(&mut self, off: u64, len: u64, sink: &mut dyn FnMut(&[u8])) -> Result<(), StcError> {
        sink(self.payload(off, len)?);
        Ok(())
    }
}

/// A container file, read section by section through one
/// [`READ_CHUNK`]-byte buffer — never the whole file at once.
struct FileSource {
    file: std::fs::File,
    len: u64,
    buf: Vec<u8>,
}

/// A failed file decode: a structural fault, or the read itself failed.
enum FileError {
    Stc(StcError),
    Io(std::io::Error),
}

impl From<StcError> for FileError {
    fn from(e: StcError) -> Self {
        FileError::Stc(e)
    }
}

impl From<FileError> for std::io::Error {
    fn from(e: FileError) -> Self {
        match e {
            FileError::Stc(e) => invalid_data(e),
            FileError::Io(e) => e,
        }
    }
}

impl FileSource {
    fn new(file: std::fs::File) -> std::io::Result<Self> {
        let len = file.metadata()?.len();
        Ok(Self { file, len, buf: vec![0; READ_CHUNK] })
    }
}

impl Source for FileSource {
    type Error = FileError;

    fn len(&self) -> u64 {
        self.len
    }

    fn read(&mut self, off: u64, len: u64, sink: &mut dyn FnMut(&[u8])) -> Result<(), FileError> {
        use std::io::{Read, Seek, SeekFrom};
        self.file.seek(SeekFrom::Start(off)).map_err(FileError::Io)?;
        let mut left = len;
        while left > 0 {
            let chunk = &mut self.buf[..left.min(READ_CHUNK as u64) as usize];
            self.file.read_exact(chunk).map_err(FileError::Io)?;
            sink(chunk);
            left -= chunk.len() as u64;
        }
        Ok(())
    }
}

/// A section's place in the container.
#[derive(Debug, Clone, Copy)]
struct Section {
    tag: u32,
    off: u64,
    len: u64,
}

/// A parsed header and section table. Every section's extent is checked
/// against the container's length before any payload is read, so no read
/// overruns and no column allocates more than the container holds.
struct Container {
    kind: u16,
    sections: Vec<Section>,
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes(b.try_into().expect("2-byte field"))
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4-byte field"))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte field"))
}

impl Container {
    fn parse<S: Source>(src: &mut S) -> Result<Self, S::Error> {
        // The magic is checked against whatever bytes are present first, so
        // a short file that is not STC1 reads as "not an STC1 file" and
        // only a true STC1 prefix as truncated.
        let have = src.len();
        let head_len = have.min(HEADER_BYTES as u64);
        let mut head = Vec::with_capacity(HEADER_BYTES);
        src.read(0, head_len, &mut |c| head.extend_from_slice(c))?;
        let present = head.len().min(STC_MAGIC.len());
        if head[..present] != STC_MAGIC[..present] {
            let mut got = [0u8; 4];
            got[..present].copy_from_slice(&head[..present]);
            return Err(StcError::BadMagic { got }.into());
        }
        if head.len() < HEADER_BYTES {
            return Err(StcError::Truncated { expected: HEADER_BYTES as u64, got: have }.into());
        }
        let version = le_u16(&head[4..6]);
        if version != STC_VERSION {
            return Err(StcError::UnsupportedVersion { got: version }.into());
        }
        let kind = le_u16(&head[6..8]);
        let n = u64::from(le_u32(&head[8..12]));
        let table_bytes = TABLE_ENTRY_BYTES as u64 * n;
        let table_end = HEADER_BYTES as u64 + table_bytes;
        if table_end > have {
            return Err(StcError::Truncated { expected: table_end, got: have }.into());
        }
        let mut table = Vec::with_capacity(table_bytes as usize);
        src.read(HEADER_BYTES as u64, table_bytes, &mut |c| table.extend_from_slice(c))?;
        let mut sections = Vec::with_capacity(n as usize);
        for e in table.chunks_exact(TABLE_ENTRY_BYTES) {
            let (off, len) = (le_u64(&e[8..16]), le_u64(&e[16..24]));
            let end = off
                .checked_add(len)
                .ok_or(StcError::Truncated { expected: u64::MAX, got: have })?;
            if end > have {
                return Err(StcError::Truncated { expected: end, got: have }.into());
            }
            sections.push(Section { tag: le_u32(&e[0..4]), off, len });
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

    fn section(&self, tag: u32) -> Result<Section, StcError> {
        self.sections.iter().find(|s| s.tag == tag).copied().ok_or(StcError::MissingSection { tag })
    }
}

// ---------------------------------------------------------------------------
// Column decoding helpers
// ---------------------------------------------------------------------------

/// How many `width`-byte elements section `s` holds; a length that is not
/// a whole number of them is a [`StcError::ColumnLengthMismatch`].
fn elements(s: Section, width: usize) -> Result<usize, StcError> {
    let width = width as u64;
    if s.len % width != 0 {
        let (section, expected) = (section_name(s.tag), s.len / width * width);
        return Err(StcError::ColumnLengthMismatch { section, expected, got: s.len });
    }
    Ok((s.len / width) as usize)
}

/// Decodes section `tag` of `N`-byte little-endian elements straight into
/// its column, one allocation sized by the section. The length is checked
/// once; then each chunk the source passes fills the column with one
/// `extend` over its `N`-byte elements, a loop with no per-element
/// capacity check that compiles to a copy on little-endian targets.
/// No element straddles two chunks: [`Source::read`] passes chunks whose
/// lengths are multiples of 8 except the last ([`SliceSource`] passes one
/// chunk, [`FileSource`] [`READ_CHUNK`]-byte ones, and `READ_CHUNK % 8 ==
/// 0` is asserted at compile time), and every element width divides 8.
fn le_col<S: Source, T, const N: usize>(
    src: &mut S,
    c: &Container,
    tag: u32,
    decode: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, S::Error> {
    let s = c.section(tag)?;
    let mut out = Vec::with_capacity(elements(s, N)?);
    src.read(s.off, s.len, &mut |chunk| {
        out.extend(chunk.chunks_exact(N).map(|b| decode(b.try_into().expect("chunk is N bytes"))));
    })?;
    Ok(out)
}

fn u32_col<S: Source>(src: &mut S, c: &Container, tag: u32) -> Result<Vec<u32>, S::Error> {
    le_col(src, c, tag, u32::from_le_bytes)
}

fn u64_col<S: Source>(src: &mut S, c: &Container, tag: u32) -> Result<Vec<u64>, S::Error> {
    le_col(src, c, tag, u64::from_le_bytes)
}

fn f64_col<S: Source>(src: &mut S, c: &Container, tag: u32) -> Result<Vec<f64>, S::Error> {
    le_col(src, c, tag, |b| f64::from_bits(u64::from_le_bytes(b)))
}

fn id_col<S: Source>(src: &mut S, c: &Container, tag: u32) -> Result<Vec<LandmarkId>, S::Error> {
    le_col(src, c, tag, |b| LandmarkId(u32::from_le_bytes(b)))
}

/// An offsets column as `usize`. A value past `usize::MAX` saturates, so
/// the range check in [`PopularRoutes::from_parts`] rejects it.
fn offsets_col<S: Source>(src: &mut S, c: &Container, tag: u32) -> Result<Vec<usize>, S::Error> {
    le_col(src, c, tag, |b| usize::try_from(u64::from_le_bytes(b)).unwrap_or(usize::MAX))
}

/// A `(from, to)` key column filled from its two `u32` sections in turn:
/// the `from` section as [`le_col`] decodes it, then each chunk of the
/// `to` section into the next keys' `to` halves.
fn key_col<S: Source>(
    src: &mut S,
    c: &Container,
    from_tag: u32,
    to_tag: u32,
) -> Result<Vec<PairKey>, S::Error> {
    let id = |b: &[u8]| LandmarkId(u32::from_le_bytes(b.try_into().expect("chunk is 4 bytes")));
    let mut keys =
        le_col(src, c, from_tag, |b| (LandmarkId(u32::from_le_bytes(b)), LandmarkId(0)))?;
    let to = c.section(to_tag)?;
    same_len(section_name(to_tag), keys.len(), elements(to, 4)?)?;
    let mut filled = 0;
    src.read(to.off, to.len, &mut |chunk| {
        let slots = keys.get_mut(filled..).unwrap_or_default();
        for (key, b) in slots.iter_mut().zip(chunk.chunks_exact(4)) {
            key.1 = id(b);
        }
        filled += chunk.len() / 4;
    })?;
    Ok(keys)
}

/// The index of the first key in sections `from_tag`/`to_tag` that
/// differs from `keys`, streaming each half against the keys without
/// allocating; the sections must hold as many keys as `keys`.
fn first_key_mismatch<S: Source>(
    src: &mut S,
    c: &Container,
    keys: &[PairKey],
    from_tag: u32,
    to_tag: u32,
) -> Result<Option<usize>, S::Error> {
    for (tag, to) in [(from_tag, false), (to_tag, true)] {
        let half = |k: &PairKey| if to { k.1 .0 } else { k.0 .0 };
        let s = c.section(tag)?;
        same_len(section_name(tag), keys.len(), elements(s, 4)?)?;
        let (mut at, mut differs) = (0, None);
        src.read(s.off, s.len, &mut |chunk| {
            let want = keys.get(at..).unwrap_or_default();
            if differs.is_none() {
                differs = (chunk.chunks_exact(4).zip(want))
                    .position(|(b, k)| le_u32(b) != half(k))
                    .map(|i| at + i);
            }
            at += chunk.len() / 4;
        })?;
        if differs.is_some() {
            return Ok(differs);
        }
    }
    Ok(None)
}

/// Reads the winner table's `win_from`/`win_to` keys and its offsets
/// (one entry per winner plus one) into offsets indexed like `keys`: a
/// pair without a winner gets an empty span. Winner keys must name
/// distinct pairs in pair order, and no winner may be empty, so the
/// table re-encodes to the same bytes.
///
/// When some pairs have no winner, nothing is allocated but the result,
/// which doubles as scratch: the `from` pass stores each winner's `from`
/// in slot `k`, the `to` pass replaces it with the winner's pair index
/// `p_k`, a backward pass spreads winner numbers over the pairs (pair `p`
/// gets the number of winners before it), and the offsets pass replaces
/// each winner number with that winner's start offset.
fn winner_offsets<S: Source>(
    src: &mut S,
    c: &Container,
    keys: &[PairKey],
) -> Result<Vec<usize>, S::Error> {
    let from = c.section(TAG_WIN_FROM)?;
    let n = elements(from, 4)?;
    let to = c.section(TAG_WIN_TO)?;
    same_len("win_to", n, elements(to, 4)?)?;
    let offs = c.section(TAG_WIN_OFFSETS)?;
    same_len("win_offsets", n + 1, elements(offs, 8)?)?;
    if n == keys.len() {
        // Every pair has a winner, as always under the default
        // `min_support` of 1: the winner keys must be the pair keys, and
        // the stored offsets are already indexed by pair.
        if let Some(index) = first_key_mismatch(src, c, keys, TAG_WIN_FROM, TAG_WIN_TO)? {
            return Err(StcError::WinnerKeyMissing { index }.into());
        }
        let out = offsets_col(src, c, TAG_WIN_OFFSETS)?;
        return match out.windows(2).position(|w| w[0] == w[1]) {
            Some(index) => Err(StcError::EmptyWinner { index }.into()),
            None => Ok(out),
        };
    }
    if n > keys.len() {
        return Err(StcError::WinnerKeyMissing { index: keys.len() }.into());
    }
    let mut out = vec![0usize; keys.len() + 1];

    let mut at = 0;
    src.read(from.off, from.len, &mut |chunk| {
        for (slot, b) in out.get_mut(at..).unwrap_or_default().iter_mut().zip(chunk.chunks_exact(4))
        {
            *slot = le_u32(b) as usize;
        }
        at += chunk.len() / 4;
    })?;

    let (mut k, mut p, mut missing) = (0, 0, None);
    src.read(to.off, to.len, &mut |chunk| {
        for b in chunk.chunks_exact(4) {
            if missing.is_some() {
                return;
            }
            let key = (LandmarkId(out[k] as u32), LandmarkId(le_u32(b)));
            while p < keys.len() && keys[p] < key {
                p += 1;
            }
            if keys.get(p) == Some(&key) {
                out[k] = p;
                p += 1;
            } else {
                missing = Some(k);
            }
            k += 1;
        }
    })?;
    if let Some(index) = missing {
        return Err(StcError::WinnerKeyMissing { index }.into());
    }

    for w in (0..=n).rev() {
        let last = if w == n { keys.len() } else { out[w] };
        let first = if w == 0 { 0 } else { out[w - 1] + 1 };
        out[first..=last].fill(w);
    }

    let (mut w, mut p, mut prev, mut empty) = (0, 0, None, None);
    src.read(offs.off, offs.len, &mut |chunk| {
        for b in chunk.chunks_exact(8) {
            let o = usize::try_from(le_u64(b)).unwrap_or(usize::MAX);
            if prev == Some(o) && empty.is_none() {
                empty = Some(w - 1);
            }
            while p < out.len() && out[p] == w {
                out[p] = o;
                p += 1;
            }
            (prev, w) = (Some(o), w + 1);
        }
    })?;
    match empty {
        Some(index) => Err(StcError::EmptyWinner { index }.into()),
        None => Ok(out),
    }
}

/// The feature-name table section.
fn names_col<S: Source>(src: &mut S, c: &Container) -> Result<Vec<String>, S::Error> {
    let s = c.section(TAG_FEAT_NAMES)?;
    let mut buf = Vec::with_capacity(s.len as usize);
    src.read(s.off, s.len, &mut |chunk| buf.extend_from_slice(chunk))?;
    Ok(read_names(&buf)?)
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
        &[
            (TAG_TRIP_OFFSETS, Col::U64s(&offsets)),
            (TAG_LAT, Col::Bytes(&lat)),
            (TAG_LON, Col::Bytes(&lon)),
            (TAG_TS, Col::Bytes(&ts)),
        ],
    )
}

/// Lenient trips decode: structural corruption is a typed [`StcError`],
/// but the *content* of each trip is returned as-is — defective runs flow
/// to the `--sanitize` policies exactly like the lenient text readers.
pub fn read_raw_trips_stc(bytes: &[u8]) -> Result<Vec<Vec<RawPoint>>, StcError> {
    let src = &mut SliceSource(bytes);
    let c = Container::parse(src)?;
    c.expect_kind(KIND_TRIPS)?;
    let offs_raw = u64_col(src, &c, TAG_TRIP_OFFSETS)?;
    let lat = f64_col(src, &c, TAG_LAT)?;
    let lon = f64_col(src, &c, TAG_LON)?;
    same_len("lon", lat.len(), lon.len())?;
    let offs = check_offsets(&offs_raw, lat.len(), "trip_offsets")?;
    let ts = c.section(TAG_TS)?;
    let ts = src.payload(ts.off, ts.len)?;
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

/// Encodes a trained model. Both the feature map and the popular-route
/// miner already *are* key-sorted columns, so each section is written
/// straight from the column it stores, into one buffer sized up front: the
/// encoding is a pure function of the model's logical content — two
/// models with equal columns (`f64` compared by bits) encode to identical
/// bytes.
pub fn write_model_stc(model: &TrainedModel) -> Vec<u8> {
    let f = model.featmap.parts();
    let p = model.popular.parts();
    let meta = [
        model.n_trained as u64,
        model.registry_len as u64,
        p.cfg.min_support as u64,
        p.cfg.max_indexed_span as u64,
    ];
    // The winner table stores the keys of the pairs with a winner and the
    // offsets of those pairs alone. With a winner for every pair, as under
    // the default `min_support` of 1, those are the pair keys and the
    // offsets as they are.
    let (win_keys, win_offsets): (Cow<[PairKey]>, Cow<[usize]>) =
        if p.win_offsets.windows(2).all(|w| w[0] < w[1]) {
            (Cow::Borrowed(&p.pair_keys), Cow::Borrowed(&p.win_offsets))
        } else {
            let won: Vec<usize> = (0..p.pair_keys.len())
                .filter(|&i| p.win_offsets[i] < p.win_offsets[i + 1])
                .collect();
            let offsets = std::iter::once(0).chain(won.iter().map(|&i| p.win_offsets[i + 1]));
            (won.iter().map(|&i| p.pair_keys[i]).collect(), offsets.collect())
        };
    assemble(
        KIND_MODEL,
        &[
            (TAG_META, Col::U64s(&meta)),
            (TAG_FEAT_NAMES, Col::Names(&f.names)),
            (TAG_FM_NUM_FROM, Col::Ids(&f.num_from)),
            (TAG_FM_NUM_TO, Col::Ids(&f.num_to)),
            (TAG_FM_NUM_FEAT, Col::U32s(&f.num_feat)),
            (TAG_FM_NUM_SUM, Col::F64s(&f.num_sum)),
            (TAG_FM_NUM_COUNT, Col::U64s(&f.num_count)),
            (TAG_FM_CAT_FROM, Col::Ids(&f.cat_from)),
            (TAG_FM_CAT_TO, Col::Ids(&f.cat_to)),
            (TAG_FM_CAT_FEAT, Col::U32s(&f.cat_feat)),
            (TAG_FM_CAT_CODE, Col::U32s(&f.cat_code)),
            (TAG_FM_CAT_COUNT, Col::U64s(&f.cat_count)),
            (TAG_CORPUS_OFFSETS, Col::Offsets(&p.corpus_offsets)),
            (TAG_CORPUS_IDS, Col::Ids(&p.corpus_ids)),
            (TAG_PAIR_FROM, Col::KeyFrom(&p.pair_keys)),
            (TAG_PAIR_TO, Col::KeyTo(&p.pair_keys)),
            (TAG_PAIR_OFFSETS, Col::Offsets(&p.pair_offsets)),
            (TAG_OCC_TRAJ, Col::U32s(&p.occ_traj)),
            (TAG_OCC_START, Col::U32s(&p.occ_start)),
            (TAG_OCC_END, Col::U32s(&p.occ_end)),
            (TAG_TR_SRC, Col::Ids(&p.tr_src)),
            (TAG_TR_OFFSETS, Col::Offsets(&p.tr_offsets)),
            (TAG_TR_DST, Col::Ids(&p.tr_dst)),
            (TAG_TR_W, Col::F64s(&p.tr_w)),
            (TAG_SUP_FROM, Col::KeyFrom(&p.pair_keys)),
            (TAG_SUP_TO, Col::KeyTo(&p.pair_keys)),
            (TAG_SUP_VAL, Col::U32s(&p.sup_val)),
            (TAG_WIN_FROM, Col::KeyFrom(&win_keys)),
            (TAG_WIN_TO, Col::KeyTo(&win_keys)),
            (TAG_WIN_OFFSETS, Col::Offsets(&win_offsets)),
            (TAG_WIN_IDS, Col::Ids(&p.win_ids)),
        ],
    )
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

/// Decodes a trained model from any [`Source`]: each section goes straight
/// into the column it came from, and each column set is validated by its
/// `from_parts`.
fn decode_model<S: Source>(src: &mut S) -> Result<TrainedModel, S::Error> {
    let c = Container::parse(src)?;
    c.expect_kind(KIND_MODEL)?;

    let meta = u64_col(src, &c, TAG_META)?;
    if meta.len() != 4 {
        return Err(StcError::ColumnLengthMismatch {
            section: "meta",
            expected: 4,
            got: meta.len() as u64,
        }
        .into());
    }
    let featmap = FeatureMapParts {
        names: names_col(src, &c)?,
        num_from: id_col(src, &c, TAG_FM_NUM_FROM)?,
        num_to: id_col(src, &c, TAG_FM_NUM_TO)?,
        num_feat: u32_col(src, &c, TAG_FM_NUM_FEAT)?,
        num_sum: f64_col(src, &c, TAG_FM_NUM_SUM)?,
        num_count: u64_col(src, &c, TAG_FM_NUM_COUNT)?,
        cat_from: id_col(src, &c, TAG_FM_CAT_FROM)?,
        cat_to: id_col(src, &c, TAG_FM_CAT_TO)?,
        cat_feat: u32_col(src, &c, TAG_FM_CAT_FEAT)?,
        cat_code: u32_col(src, &c, TAG_FM_CAT_CODE)?,
        cat_count: u64_col(src, &c, TAG_FM_CAT_COUNT)?,
    };
    let featmap = HistoricalFeatureMap::from_parts(featmap).map_err(StcError::InvalidFeatureMap)?;

    let mut parts = PopularRoutesParts {
        cfg: PopularRouteConfig {
            min_support: meta[2] as usize,
            max_indexed_span: meta[3] as usize,
        },
        corpus_offsets: offsets_col(src, &c, TAG_CORPUS_OFFSETS)?,
        corpus_ids: id_col(src, &c, TAG_CORPUS_IDS)?,
        pair_keys: key_col(src, &c, TAG_PAIR_FROM, TAG_PAIR_TO)?,
        pair_offsets: offsets_col(src, &c, TAG_PAIR_OFFSETS)?,
        occ_traj: u32_col(src, &c, TAG_OCC_TRAJ)?,
        occ_start: u32_col(src, &c, TAG_OCC_START)?,
        occ_end: u32_col(src, &c, TAG_OCC_END)?,
        tr_src: id_col(src, &c, TAG_TR_SRC)?,
        tr_offsets: offsets_col(src, &c, TAG_TR_OFFSETS)?,
        tr_dst: id_col(src, &c, TAG_TR_DST)?,
        tr_w: f64_col(src, &c, TAG_TR_W)?,
        ..PopularRoutesParts::default()
    };
    // The support and winner tables store their own key sections; in
    // memory both are indexed like the pair keys, so their keys are
    // checked against those and dropped.
    if let Some(index) = first_key_mismatch(src, &c, &parts.pair_keys, TAG_SUP_FROM, TAG_SUP_TO)? {
        return Err(StcError::SupportKeyMismatch { index }.into());
    }
    parts.sup_val = u32_col(src, &c, TAG_SUP_VAL)?;
    parts.win_offsets = winner_offsets(src, &c, &parts.pair_keys)?;
    parts.win_ids = id_col(src, &c, TAG_WIN_IDS)?;
    Ok(TrainedModel {
        popular: PopularRoutes::from_parts(parts).map_err(StcError::InvalidRoutes)?,
        featmap,
        n_trained: meta[0] as usize,
        registry_len: meta[1] as usize,
    })
}

/// Decodes a trained model held in memory. Every column comes back exactly
/// as stored (`f64` as exact bits), so the decoded model re-encodes to
/// the bytes it came from.
pub fn read_model_stc(bytes: &[u8]) -> Result<TrainedModel, StcError> {
    decode_model(&mut SliceSource(bytes))
}

// ---------------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------------

fn invalid_data(e: impl std::error::Error + Send + Sync + 'static) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

/// Reads an STC1 model file. All decode failures surface as
/// `io::ErrorKind::InvalidData` with the typed [`StcError`] as source.
///
/// The file is streamed: the header and section table are read and every
/// section's extent is checked against the file's length before any
/// column is allocated, then each section is read in bounded chunks
/// straight into its column, through the same readers and validations as
/// [`read_model_stc`]. The file's bytes are never held whole.
pub fn read_model_file(path: impl AsRef<std::path::Path>) -> std::io::Result<TrainedModel> {
    Ok(decode_model(&mut FileSource::new(std::fs::File::open(path)?)?)?)
}

/// Writes an STC1 model file (buffered, single write).
pub fn write_model_file(
    path: impl AsRef<std::path::Path>,
    model: &TrainedModel,
) -> std::io::Result<()> {
    std::fs::write(path, write_model_stc(model))
}

/// The byte range of section `tag`'s payload within `bytes`. Exposed for
/// the fault-injection tests, which patch specific columns in place.
pub fn section_range(bytes: &[u8], tag: u32) -> Result<std::ops::Range<usize>, StcError> {
    let s = Container::parse(&mut SliceSource(bytes))?.section(tag)?;
    let start = s.off as usize;
    Ok(start..start + s.len as usize)
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
        assert_eq!(bytes[..4], STC_MAGIC);
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
        let c = Container::parse(&mut SliceSource(&bytes)).unwrap();
        for s in &c.sections {
            assert_eq!(s.off % 8, 0, "section payload not 8-byte aligned");
        }
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
        assert_eq!(write_model_stc(&back), bytes);
    }

    #[test]
    fn featmap_rows_round_trip_in_model() {
        let mut fm = stmaker_routes::FeatureMapBuilder::new();
        fm.add_observation(LandmarkId(1), LandmarkId(2), "speed", 33.25);
        fm.add_observation(LandmarkId(1), LandmarkId(2), "speed", 0.1);
        fm.add_categorical_observation(LandmarkId(2), LandmarkId(3), "grade", 4);
        let model = TrainedModel {
            popular: PopularRoutes::from_parts(PopularRoutesParts::default()).unwrap(),
            featmap: fm.finish(),
            n_trained: 2,
            registry_len: 9,
        };
        let bytes = write_model_stc(&model);
        let back = read_model_stc(&bytes).unwrap();
        assert_eq!(write_model_stc(&back), bytes);
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
