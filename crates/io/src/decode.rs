//! The trip decoder: one place that turns a trip's bytes into validated
//! trajectories.
//!
//! Every front end — the CLI's trip files, the server's request bodies —
//! makes the same two decisions at the ingest boundary: which reader runs
//! for the encoding ([`TripFormat`]), and whether the samples get strict
//! validation or a [`SanitizePolicy`] followed by the longest surviving
//! segment. Making them here, once, is what keeps a summary byte-identical
//! across formats and front ends (DESIGN.md §11).
//!
//! Errors come in two tiers. A body that cannot be split into trips at
//! all — not UTF-8, an unparseable text row, a corrupt STC1 frame — is the
//! outer `Err`. Once trips are found, each carries its own result in a
//! [`DecodedTrip`], so one defective trip in a container or batch never
//! takes its neighbours down.

use stmaker_trajectory::{
    sanitize, RawPoint, RawTrajectory, SanitizeConfig, SanitizePolicy, SanitizeReport,
    TrajectoryError,
};

use crate::csv::parse_rows_csv_from;
use crate::jsonl::parse_rows_jsonl_from;
use crate::stc::{read_raw_trips_stc, StcError};
use crate::{points, validated, FormatError, Rows};

/// The encodings a trip can arrive in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripFormat {
    /// `latitude,longitude,timestamp` rows (the paper's Table I).
    Csv,
    /// One JSON sample per line.
    Jsonl,
    /// An STC1 trips container holding any number of trips.
    Stc,
}

impl TripFormat {
    /// The encoding a file extension names: `.jsonl` and `.stc`, with
    /// everything else read as CSV.
    pub fn of_path(path: &std::path::Path) -> TripFormat {
        match path.extension().and_then(|x| x.to_str()) {
            Some("jsonl") => TripFormat::Jsonl,
            Some("stc") => TripFormat::Stc,
            _ => TripFormat::Csv,
        }
    }
}

impl std::str::FromStr for TripFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "csv" => Ok(TripFormat::Csv),
            "jsonl" => Ok(TripFormat::Jsonl),
            "stc" => Ok(TripFormat::Stc),
            other => Err(format!("unknown trip format {other:?} (expected csv|jsonl|stc)")),
        }
    }
}

impl std::fmt::Display for TripFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TripFormat::Csv => "csv",
            TripFormat::Jsonl => "jsonl",
            TripFormat::Stc => "stc",
        })
    }
}

/// Why a trip body, or one trip in it, did not decode.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// A text body is not UTF-8.
    NotUtf8,
    /// A text row does not parse, or (strict) a sample breaks the
    /// trajectory rules; names the 1-based line.
    Format(FormatError),
    /// Structural corruption in an STC1 container.
    Stc(StcError),
    /// A trip breaks the trajectory invariants: a strict STC1 trip, or
    /// any trip under [`SanitizePolicy::Strict`].
    Invalid(TrajectoryError),
    /// The sanitizer dropped every segment of the trip.
    NoUsableSegment,
    /// A single-trip read found another number of trips.
    TripCount {
        /// Trips the body holds.
        got: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::NotUtf8 => f.write_str("body is not valid UTF-8"),
            DecodeError::Format(e) => write!(f, "{e}"),
            DecodeError::Stc(e) => write!(f, "{e}"),
            DecodeError::Invalid(e) => write!(f, "{e}"),
            DecodeError::NoUsableSegment => f.write_str("no usable segment after sanitization"),
            DecodeError::TripCount { got } => {
                write!(f, "container holds {got} trips; expected exactly one")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// One trip's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedTrip {
    /// The validated trajectory, or why this trip was refused.
    pub trip: Result<RawTrajectory, DecodeError>,
    /// The sanitizer's defect counts, when a lenient policy ran over the
    /// trip (also when it left no usable segment).
    pub report: Option<SanitizeReport>,
}

impl DecodedTrip {
    fn failed(e: DecodeError) -> Self {
        DecodedTrip { trip: Err(e), report: None }
    }
}

/// Decodes every trip in one document: a text body is one trip, an STC1
/// container is one trip per entry. Without a policy each trip is checked
/// strictly (text errors carry their line number); with one, it is
/// sanitized and its longest surviving segment kept.
pub fn decode_trips(
    bytes: &[u8],
    format: TripFormat,
    policy: Option<SanitizePolicy>,
) -> Result<Vec<DecodedTrip>, DecodeError> {
    Ok(Parsed::read(bytes, format)?.finish(policy))
}

/// [`decode_trips`] for a body that must hold exactly one trip; any other
/// count is [`DecodeError::TripCount`], checked before sanitizing.
pub fn decode_trip(
    bytes: &[u8],
    format: TripFormat,
    policy: Option<SanitizePolicy>,
) -> Result<DecodedTrip, DecodeError> {
    let parsed = Parsed::read(bytes, format)?;
    let got = parsed.len();
    if got != 1 {
        return Err(DecodeError::TripCount { got });
    }
    parsed.finish(policy).into_iter().next().ok_or(DecodeError::TripCount { got })
}

/// Decodes a batch body: an STC1 container as in [`decode_trips`], or text
/// holding one trip per blank-line-separated block. Each block decodes on
/// its own, so a row that does not parse fails only its own trip.
pub fn decode_batch(
    bytes: &[u8],
    format: TripFormat,
    policy: Option<SanitizePolicy>,
) -> Result<Vec<DecodedTrip>, DecodeError> {
    if format == TripFormat::Stc {
        return decode_trips(bytes, format, policy);
    }
    let text = std::str::from_utf8(bytes).map_err(|_| DecodeError::NotUtf8)?;
    Ok(text
        .split("\n\n")
        .map(|b| b.trim_matches('\n'))
        .filter(|b| !b.trim().is_empty())
        .flat_map(|block| match Parsed::text(block.as_bytes(), format) {
            Ok(parsed) => parsed.finish(policy),
            Err(e) => vec![DecodedTrip::failed(e)],
        })
        .collect())
}

/// The lenient read: each trip's samples exactly as encoded, defects
/// included, for callers that apply their own acceptance rules (a
/// streaming session, a sanitizer audit with custom limits).
pub fn decode_runs(bytes: &[u8], format: TripFormat) -> Result<Vec<Vec<RawPoint>>, DecodeError> {
    Ok(match Parsed::read(bytes, format)? {
        Parsed::Text(rows, _) => vec![points(rows)],
        Parsed::Stc(runs) => runs,
    })
}

/// A body split into trips but not yet validated. Text rows keep their
/// line numbers for the strict validator's messages.
enum Parsed {
    Text(Rows, usize),
    Stc(Vec<Vec<RawPoint>>),
}

impl Parsed {
    fn read(bytes: &[u8], format: TripFormat) -> Result<Parsed, DecodeError> {
        if format == TripFormat::Stc {
            return Ok(Parsed::Stc(read_raw_trips_stc(bytes).map_err(DecodeError::Stc)?));
        }
        std::str::from_utf8(bytes).map_err(|_| DecodeError::NotUtf8)?;
        Parsed::text(bytes, format)
    }

    fn text(bytes: &[u8], format: TripFormat) -> Result<Parsed, DecodeError> {
        let (rows, total_lines) = match format {
            TripFormat::Jsonl => parse_rows_jsonl_from(bytes),
            _ => parse_rows_csv_from(bytes),
        }
        .map_err(DecodeError::Format)?;
        Ok(Parsed::Text(rows, total_lines))
    }

    fn len(&self) -> usize {
        match self {
            Parsed::Text(..) => 1,
            Parsed::Stc(runs) => runs.len(),
        }
    }

    fn finish(self, policy: Option<SanitizePolicy>) -> Vec<DecodedTrip> {
        match (self, policy) {
            (Parsed::Text(rows, total_lines), None) => vec![DecodedTrip {
                trip: validated(rows, total_lines).map_err(DecodeError::Format),
                report: None,
            }],
            (Parsed::Text(rows, _), Some(policy)) => vec![sanitized(&points(rows), policy)],
            (Parsed::Stc(runs), None) => runs
                .into_iter()
                .map(|run| DecodedTrip {
                    trip: RawTrajectory::try_new(run).map_err(DecodeError::Invalid),
                    report: None,
                })
                .collect(),
            (Parsed::Stc(runs), Some(policy)) => {
                runs.iter().map(|run| sanitized(run, policy)).collect()
            }
        }
    }
}

/// Sanitizes one run under `policy` and keeps its longest segment.
fn sanitized(run: &[RawPoint], policy: SanitizePolicy) -> DecodedTrip {
    let cleaned = match sanitize(run, &SanitizeConfig::with_policy(policy)) {
        Ok(c) => c,
        Err(e) => return DecodedTrip::failed(DecodeError::Invalid(e)),
    };
    let trip = match cleaned.longest() {
        Some(seg) => RawTrajectory::try_new(seg.to_vec()).map_err(DecodeError::Invalid),
        None => Err(DecodeError::NoUsableSegment),
    };
    DecodedTrip { trip, report: Some(cleaned.report) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write_point_runs_stc;
    use stmaker_trajectory::Timestamp;

    const CSV: &str = "lat,lon,ts\n39.9,116.3,0\n39.901,116.301,10\n39.902,116.302,20\n";

    #[test]
    fn format_names_round_trip_and_unknown_is_typed() {
        for (name, f) in
            [("csv", TripFormat::Csv), ("jsonl", TripFormat::Jsonl), ("stc", TripFormat::Stc)]
        {
            assert_eq!(name.parse::<TripFormat>(), Ok(f));
        }
        let e = "gpx".parse::<TripFormat>().unwrap_err();
        assert!(e.contains("csv|jsonl|stc"), "{e}");
        let of = |p: &str| TripFormat::of_path(std::path::Path::new(p));
        assert_eq!(of("a/trip.jsonl"), TripFormat::Jsonl);
        assert_eq!(of("trips.stc"), TripFormat::Stc);
        assert_eq!(of("trip.txt"), TripFormat::Csv);
        assert_eq!(of("trip"), TripFormat::Csv);
    }

    #[test]
    fn strict_text_errors_keep_line_numbers() {
        let bad = "39.9,116.3,10\n39.9,116.4,5\n";
        let d = decode_trip(bad.as_bytes(), TripFormat::Csv, None).unwrap();
        match d.trip {
            Err(DecodeError::Format(e)) => assert_eq!(e.line, 2),
            other => panic!("expected a line-numbered error, got {other:?}"),
        }
        assert_eq!(d.report, None);
        // An unparseable row fails the body, not a trip.
        let e = decode_trips(b"39.9,116.3,0\nnot,numbers,here\n", TripFormat::Csv, None);
        assert!(matches!(e, Err(DecodeError::Format(FormatError { line: 2, .. }))), "{e:?}");
    }

    #[test]
    fn non_utf8_text_is_its_own_error() {
        let e = decode_trips(&[0xff, 0xfe, b'\n'], TripFormat::Csv, None).unwrap_err();
        assert_eq!(e, DecodeError::NotUtf8);
        let e = decode_batch(&[0xff], TripFormat::Jsonl, None).unwrap_err();
        assert_eq!(e, DecodeError::NotUtf8);
    }

    #[test]
    fn lenient_decode_reports_even_without_a_segment() {
        // One usable sample: Repair leaves no ≥ 2-sample segment.
        let d = decode_trip(
            b"39.9,116.3,0\nnan,116.3,5\n",
            TripFormat::Csv,
            Some(SanitizePolicy::Repair),
        )
        .unwrap();
        assert_eq!(d.trip, Err(DecodeError::NoUsableSegment));
        assert_eq!(d.report.map(|r| r.non_finite), Some(1));
    }

    #[test]
    fn trip_count_is_checked_for_single_reads() {
        let run = decode_runs(CSV.as_bytes(), TripFormat::Csv).unwrap().remove(0);
        let two = write_point_runs_stc([&run[..], &run[..]]);
        assert_eq!(
            decode_trip(&two, TripFormat::Stc, None).unwrap_err(),
            DecodeError::TripCount { got: 2 }
        );
        assert_eq!(decode_trips(&two, TripFormat::Stc, None).unwrap().len(), 2);
    }

    #[test]
    fn batch_blocks_fail_alone() {
        let body = format!("{CSV}\nnot,a,row\n\n{CSV}");
        let got = decode_batch(body.as_bytes(), TripFormat::Csv, None).unwrap();
        assert_eq!(got.len(), 3);
        assert!(got[0].trip.is_ok() && got[2].trip.is_ok());
        assert!(matches!(got[1].trip, Err(DecodeError::Format(_))), "{:?}", got[1].trip);
        assert!(decode_batch(b"\n\n\n", TripFormat::Csv, None).unwrap().is_empty());
    }

    #[test]
    fn runs_carry_defects_verbatim() {
        let text = "lat,lon,ts\nnan,116.3,0\n39.9,116.3,10\n39.91,116.31,5\n99.0,116.3,20\n";
        let runs = decode_runs(text.as_bytes(), TripFormat::Csv).unwrap();
        let pts = &runs[0];
        assert_eq!(pts.len(), 4);
        assert!(pts[0].point.lat.is_nan());
        assert_eq!(pts[2].t, Timestamp(5));
        assert_eq!(pts[3].point.lat, 99.0);
    }
}
