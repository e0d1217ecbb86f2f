//! Format parity of the trip decoder: one trip encoded as CSV, as JSON-lines
//! and as a one-trip STC1 container decodes to the same result under every
//! ingest policy — the same trajectory when the trip is clean, the same
//! refusal or the same repair (and sanitize report) when it is not.

use stmaker_geo::GeoPoint;
use stmaker_io::{
    decode_trip, write_point_runs_stc, write_trajectory_csv, write_trajectory_jsonl,
    write_trips_stc, DecodeError, DecodedTrip, TripFormat,
};
use stmaker_trajectory::{RawPoint, RawTrajectory, SanitizePolicy, Timestamp};

const POLICIES: [Option<SanitizePolicy>; 4] = [
    None,
    Some(SanitizePolicy::Strict),
    Some(SanitizePolicy::Repair),
    Some(SanitizePolicy::DropBad),
];

/// A 60-sample drive: one sample every 10 s, ~55 m apart, coordinates on
/// the 1e-6° grid so the CSV writer's six decimals are exact.
fn trip() -> Vec<RawPoint> {
    (0..60i64)
        .map(|i| RawPoint {
            point: GeoPoint {
                lat: (39_900_000 + 500 * i) as f64 / 1e6,
                lon: (116_300_000 + 300 * i) as f64 / 1e6,
            },
            t: Timestamp(1_383_383_876 + 10 * i),
        })
        .collect()
}

/// Every encoding of `points`, rendered without validation so defective
/// samples survive (`{}` prints an `f64` that parses back bit-exact).
fn encodings(points: &[RawPoint]) -> Vec<(TripFormat, Vec<u8>)> {
    let csv: String =
        points.iter().map(|p| format!("{},{},{}\n", p.point.lat, p.point.lon, p.t.0)).collect();
    let jsonl: String = points
        .iter()
        .map(|p| format!("{{\"lat\":{},\"lon\":{},\"t\":{}}}\n", p.point.lat, p.point.lon, p.t.0))
        .collect();
    vec![
        (TripFormat::Csv, format!("latitude,longitude,timestamp\n{csv}").into_bytes()),
        (TripFormat::Jsonl, jsonl.into_bytes()),
        (TripFormat::Stc, write_point_runs_stc([points])),
    ]
}

fn decode_all(
    bodies: &[(TripFormat, Vec<u8>)],
    policy: Option<SanitizePolicy>,
) -> Vec<(TripFormat, DecodedTrip)> {
    bodies
        .iter()
        .map(|(format, bytes)| {
            let d = decode_trip(bytes, *format, policy)
                .unwrap_or_else(|e| panic!("{format} under {policy:?}: {e}"));
            (*format, d)
        })
        .collect()
}

#[test]
fn clean_trip_decodes_identically_from_every_format_and_policy() {
    let expect = RawTrajectory::try_new(trip()).expect("fixture is valid");
    let bodies = vec![
        (TripFormat::Csv, write_trajectory_csv(&expect).into_bytes()),
        (TripFormat::Jsonl, write_trajectory_jsonl(&expect).into_bytes()),
        (TripFormat::Stc, write_trips_stc(std::slice::from_ref(&expect))),
    ];
    for policy in POLICIES {
        for (format, d) in decode_all(&bodies, policy) {
            assert_eq!(d.trip.as_ref(), Ok(&expect), "{format} under {policy:?}");
            match policy {
                None => assert_eq!(d.report, None),
                Some(_) => {
                    let report = d.report.expect("a policy reports");
                    assert!(report.is_clean(), "{format} under {policy:?}: {report}");
                }
            }
        }
    }
}

#[test]
fn corrupted_trip_is_refused_or_repaired_identically_from_every_format() {
    // One out-of-range sample and one late sample: both survive every
    // encoding, so every format must see the same defects.
    let mut points = trip();
    points[10].point.lat = 99.0;
    points.swap(30, 31);
    let bodies = encodings(&points);

    // Strict reads refuse every format. Text errors name the first bad
    // line (header + 11th sample for CSV, the 11th line for JSON-lines).
    for (format, d) in decode_all(&bodies, None) {
        match (format, d.trip) {
            (TripFormat::Csv, Err(DecodeError::Format(e))) => assert_eq!(e.line, 12, "{e}"),
            (TripFormat::Jsonl, Err(DecodeError::Format(e))) => assert_eq!(e.line, 11, "{e}"),
            (TripFormat::Stc, Err(DecodeError::Invalid(_))) => {}
            (format, other) => panic!("{format}: strict read must refuse, got {other:?}"),
        }
    }

    for policy in &POLICIES[1..] {
        let decoded = decode_all(&bodies, *policy);
        let (_, first) = &decoded[0];
        match policy {
            Some(SanitizePolicy::Strict) => {
                assert!(matches!(first.trip, Err(DecodeError::Invalid(_))), "{:?}", first.trip)
            }
            _ => {
                let trip = first.trip.as_ref().expect("lenient policies repair");
                assert!(trip.len() >= 57, "{policy:?} kept {} samples", trip.len());
                let report = first.report.as_ref().expect("lenient policies report");
                assert_eq!((report.out_of_range, report.out_of_order), (1, 1), "{report}");
            }
        }
        for (format, d) in &decoded[1..] {
            assert_eq!(d, first, "{format} differs from csv under {policy:?}");
        }
    }
}
