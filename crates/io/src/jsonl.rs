//! JSON-lines trajectories: one sample object per line.
//!
//! ```text
//! {"lat": 39.9383, "lon": 116.339, "t": 1383383876}
//! {"lat": 39.9382, "lon": 116.337, "t": 1383383882}
//! ```

use std::io::{BufRead, Write};

use crate::{validated, FormatError, Rows};
use serde::{Deserialize, Serialize};
use stmaker_geo::GeoPoint;
use stmaker_trajectory::{RawPoint, RawTrajectory, Timestamp};

#[derive(Serialize, Deserialize)]
struct Sample {
    lat: f64,
    lon: f64,
    t: i64,
}

/// Parses lines into `(line_no, point)` pairs without validating values —
/// serde happily deserializes huge literals like `1e999` to `inf`, and
/// the lenient decode wants to carry such defects to the sanitizer intact.
///
/// Streams from any `BufRead` with a single reused line buffer (no per-line
/// `String` allocation). Returns the rows plus the total line count.
pub(crate) fn parse_rows_jsonl_from<R: BufRead>(
    mut reader: R,
) -> Result<(Rows, usize), FormatError> {
    let mut rows = Vec::new();
    let mut buf = String::new();
    let mut line_no = 0usize;
    loop {
        buf.clear();
        let n = reader
            .read_line(&mut buf)
            .map_err(|e| FormatError::new(line_no + 1, format!("read failed: {e}")))?;
        if n == 0 {
            break;
        }
        line_no += 1;
        let line = buf.trim();
        if line.is_empty() {
            continue;
        }
        let s: Sample = serde_json::from_str(line)
            .map_err(|e| FormatError::new(line_no, format!("bad JSON sample: {e}")))?;
        // Struct literal, not `GeoPoint::new`: the constructor asserts on
        // defective values and this stage must not panic on them.
        rows.push((
            line_no,
            RawPoint { point: GeoPoint { lat: s.lat, lon: s.lon }, t: Timestamp(s.t) },
        ));
    }
    Ok((rows, line_no))
}

/// Parses a trajectory from JSON-lines text, rejecting any defective sample
/// with the offending line number (the CSV reader's validation rules).
pub fn read_trajectory_jsonl(text: &str) -> Result<RawTrajectory, FormatError> {
    let (rows, total_lines) = parse_rows_jsonl_from(text.as_bytes())?;
    validated(rows, total_lines)
}

/// Serializes a trajectory to JSON-lines.
pub fn write_trajectory_jsonl(traj: &RawTrajectory) -> String {
    let mut out = Vec::new();
    write_trajectory_jsonl_to(&mut out, traj).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("JSON output is UTF-8")
}

/// Streaming variant of [`write_trajectory_jsonl`]: emits the identical
/// bytes onto any writer (hand files in behind a `BufWriter`).
pub fn write_trajectory_jsonl_to<W: Write>(w: &mut W, traj: &RawTrajectory) -> std::io::Result<()> {
    for p in traj.points() {
        let s = Sample { lat: p.point.lat, lon: p.point.lon, t: p.t.0 };
        let line = serde_json::to_string(&s).expect("plain struct serializes");
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let text =
            "{\"lat\":39.9,\"lon\":116.3,\"t\":0}\n{\"lat\":39.91,\"lon\":116.31,\"t\":10}\n";
        let traj = read_trajectory_jsonl(text).unwrap();
        assert_eq!(traj.len(), 2);
        let back = write_trajectory_jsonl(&traj);
        assert_eq!(read_trajectory_jsonl(&back).unwrap(), traj);
    }

    #[test]
    fn blank_lines_skipped() {
        let text =
            "{\"lat\":39.9,\"lon\":116.3,\"t\":0}\n\n{\"lat\":39.91,\"lon\":116.31,\"t\":10}\n";
        assert_eq!(read_trajectory_jsonl(text).unwrap().len(), 2);
    }

    #[test]
    fn errors_with_line_numbers() {
        let text = "{\"lat\":39.9,\"lon\":116.3,\"t\":0}\nnot json\n";
        let e = read_trajectory_jsonl(text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bad JSON"));
    }

    #[test]
    fn rejects_decreasing_time_and_bad_coords() {
        let t = "{\"lat\":39.9,\"lon\":116.3,\"t\":10}\n{\"lat\":39.9,\"lon\":116.3,\"t\":0}\n";
        let e = read_trajectory_jsonl(t).unwrap_err();
        assert!(e.message.contains("non-decreasing"), "{e}");
        assert_eq!(e.line, 2, "ordering error names the offending row");
        let t = "{\"lat\":239.9,\"lon\":116.3,\"t\":0}\n{\"lat\":39.9,\"lon\":116.3,\"t\":1}\n";
        assert!(read_trajectory_jsonl(t).is_err());
    }

    #[test]
    fn rejects_non_finite_with_explicit_message() {
        // JSON has no NaN literal and this parser refuses overflowing ones,
        // so non-finite values can only reach the validator through direct
        // construction — which is exactly what defense-in-depth guards: the
        // check must name the defect precisely, not call it "out of range".
        let t = "{\"lat\":1e999,\"lon\":116.3,\"t\":0}\n{\"lat\":39.9,\"lon\":116.3,\"t\":1}\n";
        assert!(read_trajectory_jsonl(t).is_err(), "overflow literal must not pass");
        let rows = vec![
            (1, RawPoint { point: GeoPoint { lat: f64::NAN, lon: 116.3 }, t: Timestamp(0) }),
            (2, RawPoint { point: GeoPoint::new(39.9, 116.3), t: Timestamp(1) }),
        ];
        let e = crate::validate_rows(&rows, 2).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("non-finite"), "{e}");
    }

    #[test]
    fn lenient_reader_carries_defects_through() {
        // Out-of-order and out-of-range samples survive parsing verbatim so
        // the sanitizer can count and repair them.
        let t = "{\"lat\":99.9,\"lon\":116.3,\"t\":10}\n{\"lat\":39.9,\"lon\":116.3,\"t\":0}\n";
        let pts = crate::points(parse_rows_jsonl_from(t.as_bytes()).unwrap().0);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].point.lat, 99.9); // out-of-range kept verbatim
        assert_eq!(pts[1].t, Timestamp(0)); // out-of-order kept verbatim
        let bad = "{\"lat\":39.9,\"lon\":116.3,\"t\":0}\nnope\n";
        let e = parse_rows_jsonl_from(bad.as_bytes()).unwrap_err();
        assert_eq!(e.line, 2);
    }
}
