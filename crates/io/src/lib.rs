//! Interchange formats for trajectories and summaries.
//!
//! The paper's third benefit of summarization (Sec. I): "trajectories
//! collected from different sources may have different formats and schema,
//! but they can all be translated to texts with similar style." This crate
//! supplies the format layer a deployment needs to get trajectories *in*
//! and summaries *out*:
//!
//! * [`csv`] — the paper's Table I representation: `latitude, longitude,
//!   timestamp` rows, accepting both Unix seconds and the paper's
//!   `YYYYMMDD HH:MM:SS` datetime stamps;
//! * [`jsonl`] — one JSON sample per line, the common streaming layout;
//! * [`stc`] — the columnar binary container for trip corpora and models;
//! * [`decode`] — the one ingest decision every front end shares: which
//!   reader runs for a [`TripFormat`], and whether a trip gets strict
//!   validation or a [`SanitizePolicy`](stmaker_trajectory::SanitizePolicy)
//!   plus its longest surviving segment;
//! * [`geojson`] — export trajectories as `LineString` features and
//!   summaries as per-partition features with their sentences as
//!   properties, ready for any web map.

pub mod csv;
pub mod decode;
pub mod geojson;
pub mod jsonl;
pub mod stc;

use stmaker_trajectory::{RawPoint, RawTrajectory};

pub use csv::{read_trajectory_csv, write_trajectory_csv, write_trajectory_csv_to};
pub use decode::{
    decode_batch, decode_runs, decode_trip, decode_trips, DecodeError, DecodedTrip, TripFormat,
};
pub use geojson::{summary_to_geojson, trajectory_to_geojson};
pub use jsonl::{read_trajectory_jsonl, write_trajectory_jsonl, write_trajectory_jsonl_to};
pub use stc::{
    is_stc, read_model_file, read_model_file_as, read_model_stc, read_raw_trips_stc,
    read_trips_stc, write_model_file, write_model_stc, write_point_runs_stc, write_trips_stc,
    ModelFormat, StcError, StcReadError,
};

/// A parse failure, with 1-based line number for operator-friendly messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for FormatError {}

impl FormatError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> Self {
        Self { line, message: message.into() }
    }
}

/// Parsed text rows: each sample with the 1-based line it came from.
pub(crate) type Rows = Vec<(usize, RawPoint)>;

/// Validates parsed text rows — the strict rules both text readers share:
/// finite + in-range coordinates, at least two samples, non-decreasing
/// timestamps, each failure naming the offending 1-based line
/// (`total_lines` for "too few samples", which has no row to blame).
pub(crate) fn validate_rows(
    rows: &[(usize, RawPoint)],
    total_lines: usize,
) -> Result<(), FormatError> {
    for (line_no, p) in rows {
        if !p.point.lat.is_finite() || !p.point.lon.is_finite() {
            return Err(FormatError::new(
                *line_no,
                format!("non-finite coordinates: {}, {}", p.point.lat, p.point.lon),
            ));
        }
        if !(-90.0..=90.0).contains(&p.point.lat) || !(-180.0..=180.0).contains(&p.point.lon) {
            return Err(FormatError::new(
                *line_no,
                format!("coordinates out of range: {}, {}", p.point.lat, p.point.lon),
            ));
        }
    }
    if rows.len() < 2 {
        return Err(FormatError::new(
            total_lines,
            format!("a trajectory needs at least 2 samples, got {}", rows.len()),
        ));
    }
    for w in rows.windows(2) {
        if w[1].1.t < w[0].1.t {
            return Err(FormatError::new(
                w[1].0,
                format!(
                    "timestamps must be non-decreasing: t={} after t={}",
                    w[1].1.t.0, w[0].1.t.0
                ),
            ));
        }
    }
    Ok(())
}

/// Strict read of parsed rows: validated, then stripped of line numbers.
pub(crate) fn validated(rows: Rows, total_lines: usize) -> Result<RawTrajectory, FormatError> {
    validate_rows(&rows, total_lines)?;
    Ok(RawTrajectory::new(points(rows)))
}

/// Drops the line numbers, keeping the samples in order.
pub(crate) fn points(rows: Rows) -> Vec<RawPoint> {
    rows.into_iter().map(|(_, p)| p).collect()
}
