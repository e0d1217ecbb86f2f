//! CSV trajectories: the paper's Table I layout.
//!
//! Accepted row forms (comma- or whitespace-separated, optional header):
//!
//! ```text
//! latitude,longitude,timestamp
//! 39.9383,116.339,1383383876           # Unix seconds
//! 39.9383 116.339 20131102 09:17:56    # the paper's Table I datetime
//! ```

use std::io::{BufRead, Write};

use crate::{validated, FormatError, Rows};
use stmaker_geo::GeoPoint;
use stmaker_trajectory::{RawPoint, RawTrajectory, Timestamp};

/// Parses rows into `(line_no, point)` pairs without validating values —
/// the shared front half of the strict and lenient decodes. `"nan"` and
/// `"inf"` are valid `f64` spellings, so defective samples survive this
/// stage; only *structurally* unreadable rows (non-numeric fields, bad
/// datetimes) error.
///
/// Streams from any `BufRead`, reusing one line buffer across `read_line`
/// calls — ingest allocates per *point*, never per line. Returns the rows
/// plus the total line count (the strict validator reports "too few
/// samples" against the last line of the file).
pub(crate) fn parse_rows_csv_from<R: BufRead>(mut reader: R) -> Result<(Rows, usize), FormatError> {
    let mut rows = Vec::new();
    let mut seen_data = false;
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
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> =
            line.split(|c: char| c == ',' || c.is_whitespace()).filter(|f| !f.is_empty()).collect();
        // Header detection: the first non-comment line is a header iff its
        // first field is not a number. (Parsing, not "contains a letter",
        // so scientific-notation data rows are never mistaken for headers,
        // and a header after comments/blank lines is still recognized.)
        if !seen_data && fields.first().map(|f| f.parse::<f64>().is_err()).unwrap_or(false) {
            continue; // header row
        }
        seen_data = true;
        if fields.len() < 3 {
            return Err(FormatError::new(
                line_no,
                format!("expected ≥ 3 fields, got {}", fields.len()),
            ));
        }
        let lat: f64 = fields[0]
            .parse()
            .map_err(|_| FormatError::new(line_no, format!("bad latitude {:?}", fields[0])))?;
        let lon: f64 = fields[1]
            .parse()
            .map_err(|_| FormatError::new(line_no, format!("bad longitude {:?}", fields[1])))?;
        let t = parse_timestamp(&fields[2..], line_no)?;
        // Struct literal, not `GeoPoint::new`: the constructor asserts on
        // defective values, and the whole point of the lenient path is to
        // carry them to the sanitizer intact.
        rows.push((line_no, RawPoint { point: GeoPoint { lat, lon }, t }));
    }
    Ok((rows, line_no))
}

/// Parses a trajectory from CSV text, rejecting any defective sample
/// (non-finite or out-of-range coordinates, decreasing timestamps) with the
/// offending line number.
pub fn read_trajectory_csv(text: &str) -> Result<RawTrajectory, FormatError> {
    let (rows, total_lines) = parse_rows_csv_from(text.as_bytes())?;
    validated(rows, total_lines)
}

/// Serializes a trajectory to the canonical CSV layout (Unix seconds).
pub fn write_trajectory_csv(traj: &RawTrajectory) -> String {
    let mut out = Vec::new();
    write_trajectory_csv_to(&mut out, traj).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("CSV output is ASCII")
}

/// Streaming variant of [`write_trajectory_csv`]: emits the identical
/// bytes onto any writer. Callers writing to files should hand in a
/// `BufWriter` — the rows are written one `writeln!` at a time.
pub fn write_trajectory_csv_to<W: Write>(w: &mut W, traj: &RawTrajectory) -> std::io::Result<()> {
    w.write_all(b"latitude,longitude,timestamp\n")?;
    for p in traj.points() {
        writeln!(w, "{:.6},{:.6},{}", p.point.lat, p.point.lon, p.t.0)?;
    }
    Ok(())
}

/// Parses either Unix seconds (one field) or `YYYYMMDD HH:MM:SS` (two
/// fields, the paper's Table I format).
fn parse_timestamp(fields: &[&str], line: usize) -> Result<Timestamp, FormatError> {
    match fields {
        [secs] => secs
            .parse::<i64>()
            .map(Timestamp)
            .map_err(|_| FormatError::new(line, format!("bad timestamp {secs:?}"))),
        [date, time, ..] => parse_datetime(date, time)
            .ok_or_else(|| FormatError::new(line, format!("bad datetime {date:?} {time:?}"))),
        [] => Err(FormatError::new(line, "missing timestamp".to_owned())),
    }
}

/// `YYYYMMDD` + `HH:MM:SS` → seconds since the Unix epoch (UTC, proleptic
/// Gregorian; the civil-from-days algorithm of Howard Hinnant).
fn parse_datetime(date: &str, time: &str) -> Option<Timestamp> {
    if date.len() != 8 {
        return None;
    }
    let year: i64 = date[0..4].parse().ok()?;
    let month: u32 = date[4..6].parse().ok()?;
    let day: u32 = date[6..8].parse().ok()?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    let hms: Vec<&str> = time.split(':').collect();
    if hms.len() != 3 {
        return None;
    }
    let h: i64 = hms[0].parse().ok()?;
    let m: i64 = hms[1].parse().ok()?;
    let s: i64 = hms[2].parse().ok()?;
    if !(0..24).contains(&h) || !(0..60).contains(&m) || !(0..60).contains(&s) {
        return None;
    }
    Some(Timestamp(days_from_civil(year, month, day) * 86_400 + h * 3600 + m * 60 + s))
}

/// Days since 1970-01-01 for a proleptic-Gregorian civil date.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // Mar = 0 … Feb = 11
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_unix_seconds() {
        let csv = "latitude,longitude,timestamp\n39.9383,116.339,100\n39.9382,116.337,106\n";
        let traj = read_trajectory_csv(csv).unwrap();
        assert_eq!(traj.len(), 2);
        assert_eq!(traj.start().t, Timestamp(100));
        let back = write_trajectory_csv(&traj);
        let again = read_trajectory_csv(&back).unwrap();
        assert_eq!(traj, again);
    }

    #[test]
    fn parses_table_one_datetime_format() {
        // The paper's Table I rows, verbatim style.
        let csv = "39.9383 116.339 20131102 09:17:56\n39.9382 116.337 20131102 09:18:02\n";
        let traj = read_trajectory_csv(csv).unwrap();
        assert_eq!(traj.duration_secs(), 6);
        // 2013-11-02 is 16011 days after the epoch.
        assert_eq!(traj.start().t.0, 16_011 * 86_400 + 9 * 3600 + 17 * 60 + 56);
    }

    #[test]
    fn days_from_civil_known_dates() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
        assert_eq!(days_from_civil(2000, 3, 1), 11_017);
        assert_eq!(days_from_civil(2013, 11, 2), 16_011);
        assert_eq!(days_from_civil(1969, 12, 31), -1);
    }

    #[test]
    fn skips_header_comments_and_blanks() {
        let csv = "lat,lon,ts\n# a comment\n\n39.9,116.3,0\n39.91,116.31,10\n";
        let traj = read_trajectory_csv(csv).unwrap();
        assert_eq!(traj.len(), 2);
    }

    #[test]
    fn header_after_comment_and_scientific_notation_rows() {
        // Header preceded by a comment is still recognized as a header…
        let csv = "# export v2\nlat,lon,ts\n39.9,116.3,0\n39.91,116.31,10\n";
        assert_eq!(read_trajectory_csv(csv).unwrap().len(), 2);
        // …and a first data row in scientific notation is data, not a header.
        let csv = "3.99e1,116.3,0\n39.91,116.31,10\n";
        let traj = read_trajectory_csv(csv).unwrap();
        assert_eq!(traj.len(), 2);
        assert!((traj.start().point.lat - 39.9).abs() < 1e-9);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = read_trajectory_csv("39.9,116.3,0\nnot,numbers,here\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bad latitude"), "{e}");
        let e = read_trajectory_csv("39.9,116.3\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn rejects_out_of_range_and_decreasing() {
        assert!(read_trajectory_csv("99.0,116.3,0\n39.9,116.3,5\n").is_err());
        let e = read_trajectory_csv("39.9,116.3,10\n39.9,116.4,5\n").unwrap_err();
        assert!(e.message.contains("non-decreasing"));
        // The ordering error names the offending row, not line 0.
        assert_eq!(e.line, 2);
        let e = read_trajectory_csv("39.9,116.3,0\n39.9,116.4,9\n39.9,116.5,4\n").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn rejects_non_finite_with_explicit_message() {
        // "nan" and "inf" are valid f64 spellings, so they parse — the
        // reader must still refuse them, and say why (not "out of range").
        let e = read_trajectory_csv("nan,116.3,0\n39.9,116.3,5\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("non-finite"), "{e}");
        let e = read_trajectory_csv("39.9,116.3,0\n39.9,inf,5\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("non-finite"), "{e}");
        let e = read_trajectory_csv("39.9,116.3,0\n39.9,-inf,5\n").unwrap_err();
        assert!(e.message.contains("non-finite"), "{e}");
    }

    #[test]
    fn lenient_reader_carries_defects_through() {
        // The sanitizer's front door: defective values survive parsing so
        // they can be counted and repaired downstream.
        let text = "lat,lon,ts\nnan,116.3,0\n39.9,116.3,10\n39.91,116.31,5\n99.0,116.3,20\n";
        let pts = crate::points(parse_rows_csv_from(text.as_bytes()).unwrap().0);
        assert_eq!(pts.len(), 4);
        assert!(pts[0].point.lat.is_nan());
        assert_eq!(pts[2].t, Timestamp(5)); // out-of-order kept verbatim
        assert_eq!(pts[3].point.lat, 99.0); // out-of-range kept verbatim
                                            // Structurally unreadable rows still error, with their line number.
        let e = parse_rows_csv_from(&b"39.9,116.3,0\nnot,numbers,here\n"[..]).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_too_few_samples() {
        let e = read_trajectory_csv("39.9,116.3,0\n").unwrap_err();
        assert!(e.message.contains("at least 2"));
    }

    #[test]
    fn rejects_bad_datetimes() {
        assert!(read_trajectory_csv(
            "39.9 116.3 20131302 09:00:00\n39.9 116.3 20131102 09:00:01\n"
        )
        .is_err());
        assert!(read_trajectory_csv(
            "39.9 116.3 20131102 25:00:00\n39.9 116.3 20131102 09:00:01\n"
        )
        .is_err());
    }
}
