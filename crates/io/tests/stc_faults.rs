//! Fault-injection suite for the STC1 columnar container: every corruption
//! of a valid file — truncation at any byte, bit flips anywhere, patched
//! section tables, defective timestamp streams — must surface as a *typed*
//! [`StcError`]/[`StcReadError`] or decode to something valid. Never a
//! panic, never an out-of-bounds read, never unbounded allocation.

use stmaker::TrainedModel;
use stmaker_geo::GeoPoint;
use stmaker_io::{
    read_model_file, read_model_stc, read_raw_trips_stc, read_trips_stc, stc::section_range,
    write_model_stc, write_point_runs_stc, write_trips_stc, StcError, StcReadError,
};
use stmaker_poi::LandmarkId;
use stmaker_routes::{FeatureMapBuilder, PopularRoutes, PopularRoutesParts};
use stmaker_trajectory::{RawPoint, RawTrajectory, Timestamp};

/// Deterministic pseudo-random stream (LCG), the `tests/fault_injection.rs`
/// idiom: reproducible corruption without a test-framework seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn pt(lat: f64, lon: f64, t: i64) -> RawPoint {
    RawPoint { point: GeoPoint { lat, lon }, t: Timestamp(t) }
}

/// A deterministic multi-trip fixture with varied lengths and time gaps.
fn fixture_trips(seed: u64) -> Vec<RawTrajectory> {
    let mut rng = Lcg(seed);
    (0..5)
        .map(|i| {
            let n = 2 + rng.below(20);
            let mut t = rng.below(100_000) as i64;
            let pts = (0..n)
                .map(|_| {
                    t += 1 + rng.below(600) as i64;
                    let lat = 30.0 + rng.below(2000) as f64 / 100.0; // cast-ok: test fixture coords
                    let lon = 100.0 + rng.below(3000) as f64 / 100.0; // cast-ok: test fixture coords
                    pt(lat, lon, t)
                })
                .collect();
            let _ = i;
            RawTrajectory::new(pts)
        })
        .collect()
}

/// A model fixture exercising every section family: feature rows (numeric
/// and categorical), corpus, pair occurrences, transfers, supports, winners.
fn fixture_model() -> TrainedModel {
    let mut fm = FeatureMapBuilder::new();
    fm.add_observation(LandmarkId(1), LandmarkId(2), "speed", 31.5);
    fm.add_observation(LandmarkId(1), LandmarkId(2), "speed", 28.25);
    fm.add_observation(LandmarkId(2), LandmarkId(5), "duration", 120.0);
    fm.add_categorical_observation(LandmarkId(1), LandmarkId(2), "road_class", 3);
    fm.add_categorical_observation(LandmarkId(2), LandmarkId(5), "road_class", 1);
    let l = LandmarkId;
    // Corpus [1 2 5] [1 2] [2 5 7]; pair occurrences, hop counts,
    // supports and two trusted winners. (5, 7) has neither a winner nor a
    // transfer-graph path, so its queries reach the occurrence scan.
    let parts = PopularRoutesParts {
        corpus_offsets: vec![0, 3, 5, 8],
        corpus_ids: vec![l(1), l(2), l(5), l(1), l(2), l(2), l(5), l(7)],
        pair_keys: vec![(l(1), l(2)), (l(1), l(5)), (l(2), l(5)), (l(5), l(7))],
        pair_offsets: vec![0, 2, 3, 5, 6],
        occ_traj: vec![0, 1, 0, 0, 2, 2],
        occ_start: vec![0, 0, 0, 1, 0, 1],
        occ_end: vec![1, 1, 2, 2, 1, 2],
        tr_src: vec![l(1), l(2)],
        tr_offsets: vec![0, 1, 2],
        tr_dst: vec![l(2), l(5)],
        tr_w: vec![2.0, 2.0],
        sup_val: vec![2, 1, 2, 1],
        win_offsets: vec![0, 2, 2, 4, 4],
        win_ids: vec![l(1), l(2), l(2), l(5)],
        ..PopularRoutesParts::default()
    };
    TrainedModel {
        popular: PopularRoutes::from_parts(parts).expect("fixture columns are valid"),
        featmap: fm.finish(),
        n_trained: 3,
        registry_len: 11,
    }
}

/// Decoding any prefix of a valid trips container is a typed error or a
/// valid (possibly shorter-padded) success — never a panic. Prefixes that
/// cut into the header or section table must always be errors.
#[test]
fn trips_truncation_sweep_is_typed_at_every_byte() {
    let bytes = write_trips_stc(&fixture_trips(0xFA57));
    assert!(bytes.len() > 64, "fixture too small to exercise truncation");
    for cut in 0..bytes.len() {
        let prefix = &bytes[..cut];
        match read_raw_trips_stc(prefix) {
            Ok(trips) => {
                // Only trailing-padding cuts may still decode; those carry
                // the full payload.
                assert_eq!(trips.len(), 5, "cut {cut} decoded a partial container");
            }
            Err(e) => {
                let msg = e.to_string();
                assert!(!msg.is_empty());
            }
        }
        let _ = read_trips_stc(prefix);
        // Header/table cuts can never succeed.
        if cut < 16 + 4 * 24 {
            assert!(read_raw_trips_stc(prefix).is_err(), "cut {cut} inside the header decoded");
        }
    }
}

/// Same sweep over a model container, against `read_model_stc`.
#[test]
fn model_truncation_sweep_is_typed_at_every_byte() {
    let model = fixture_model();
    let bytes = write_model_stc(&model);
    for cut in 0..bytes.len() {
        match read_model_stc(&bytes[..cut]) {
            Ok(m) => assert_eq!(write_model_stc(&m), bytes, "cut {cut} decoded a different model"),
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
    // The untouched bytes still decode canonically after the sweep.
    assert_eq!(write_model_stc(&read_model_stc(&bytes).unwrap()), bytes);
}

/// Single-bit flips anywhere in the file: decode is typed-error-or-success,
/// and a success never smuggles structurally impossible data out.
#[test]
fn bit_flip_sweep_never_panics() {
    let trips = fixture_trips(0xBEEF);
    let trip_bytes = write_trips_stc(&trips);
    let model_bytes = write_model_stc(&fixture_model());
    let mut rng = Lcg(0xC0FFEE);
    for _ in 0..600 {
        let mut mutated = trip_bytes.clone();
        let i = rng.below(mutated.len());
        mutated[i] ^= 1 << rng.below(8);
        if let Ok(runs) = read_raw_trips_stc(&mutated) {
            for run in &runs {
                assert!(run.len() <= trip_bytes.len(), "decoded run longer than the file");
            }
        }
        let _ = read_trips_stc(&mutated);

        let mut mutated = model_bytes.clone();
        let i = rng.below(mutated.len());
        mutated[i] ^= 1 << rng.below(8);
        // A model that loads must also serve: every lookup of every pair
        // it indexes, both directions, answers without panicking, and so
        // does every feature-map lookup of every row it holds.
        if let Ok(m) = read_model_stc(&mutated) {
            for &(from, to) in &m.popular.parts().pair_keys {
                for (a, b) in [(from, to), (to, from)] {
                    let _ = m.popular.support(a, b);
                    let _ = m.popular.popular_route(a, b);
                }
            }
            let f = m.featmap.parts();
            let numeric =
                (0..f.num_from.len()).map(|i| (f.num_from[i], f.num_to[i], f.num_feat[i]));
            let categorical =
                (0..f.cat_from.len()).map(|i| (f.cat_from[i], f.cat_to[i], f.cat_feat[i]));
            for (from, to, feat) in numeric.chain(categorical) {
                let name = &f.names[feat as usize];
                if let Some(v) = m.featmap.regular_value(from, to, name) {
                    assert!(v.is_finite(), "a loaded model answers a non-finite average");
                }
                let _ = m.featmap.regular_category(from, to, name);
            }
        }
    }
}

/// An occurrence outside the corpus would panic the first query that falls
/// through to the occurrence scan, so loading refuses it with a typed
/// error.
#[test]
fn out_of_corpus_occurrence_is_a_typed_error() {
    use stmaker_routes::PartsError;
    const OCC_TRAJ: u32 = 0x35;
    let model = fixture_model();
    let mut bytes = write_model_stc(&model);
    let occ = section_range(&bytes, OCC_TRAJ).expect("section present");
    bytes[occ.start..occ.start + 4].copy_from_slice(&3u32.to_le_bytes()); // 3 trajectories
    assert_eq!(
        read_model_stc(&bytes).err(),
        Some(StcError::InvalidRoutes(PartsError::OccurrenceOutOfRange { index: 0 }))
    );
}

/// Patching a section-table length to overhang the file is the classic
/// crafted-file attack; it must be the typed `Truncated`, not a slice OOB.
#[test]
fn overhanging_section_length_is_truncated_error() {
    let bytes = write_trips_stc(&fixture_trips(0x5EED));
    // Section table entries: 24 bytes each at offset 16; len lives at +16.
    for entry in 0..4 {
        let len_at = 16 + entry * 24 + 16;
        let mut patched = bytes.clone();
        patched[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(
            matches!(read_raw_trips_stc(&patched), Err(StcError::Truncated { .. })),
            "entry {entry} with absurd len must be Truncated"
        );
    }
}

/// Shortening the latitude column (via its table entry) desynchronizes the
/// columns; the decoder must call that out as a length mismatch, not
/// silently truncate trips.
#[test]
fn shortened_column_is_length_mismatch() {
    let bytes = write_trips_stc(&fixture_trips(0x1234));
    // Entry order is write order: offsets, lat, lon, ts. Shrink lat by one
    // f64 so it no longer matches the offsets column's point count.
    let len_at = 16 + 24 + 16;
    let mut patched = bytes.clone();
    let lat_len = u64::from_le_bytes(patched[len_at..len_at + 8].try_into().unwrap());
    patched[len_at..len_at + 8].copy_from_slice(&(lat_len - 8).to_le_bytes());
    assert!(
        matches!(read_raw_trips_stc(&patched), Err(StcError::ColumnLengthMismatch { .. })),
        "got {:?}",
        read_raw_trips_stc(&patched)
    );
}

/// A timestamp delta that overflows i64 during reconstruction is the typed
/// `TimestampOverflow`. (The encoder wraps, so such a stream is writable —
/// the decoder must refuse to silently wrap it back.)
#[test]
fn timestamp_overflow_is_typed() {
    let run = vec![pt(39.0, 116.0, i64::MAX), pt(39.1, 116.1, i64::MIN)];
    let bytes = write_point_runs_stc([run.as_slice()]);
    assert_eq!(read_raw_trips_stc(&bytes), Err(StcError::TimestampOverflow { trip: 0, index: 1 }));
}

/// Defective-but-representable runs decode leniently and fail strictly with
/// the trip index attached — the sanitize-policy routing contract.
#[test]
fn strict_reader_names_the_defective_trip() {
    let good = vec![pt(39.0, 116.0, 0), pt(39.1, 116.1, 10)];
    let bad = vec![pt(39.0, 116.0, 50), pt(39.1, 116.1, 20)]; // out of order
    let bytes = write_point_runs_stc([good.as_slice(), bad.as_slice()]);
    assert_eq!(read_raw_trips_stc(&bytes).unwrap().len(), 2);
    match read_trips_stc(&bytes) {
        Err(StcReadError::Trip { trip: 1, .. }) => {}
        other => panic!("expected trip 1 error, got {other:?}"),
    }
}

/// The full fixture round-trips exactly — the baseline every corruption
/// test above perturbs from.
#[test]
fn fixtures_round_trip_cleanly() {
    let trips = fixture_trips(0x0DDB);
    assert_eq!(read_trips_stc(&write_trips_stc(&trips)).unwrap(), trips);
    let model = fixture_model();
    let bytes = write_model_stc(&model);
    assert_eq!(write_model_stc(&read_model_stc(&bytes).unwrap()), bytes);
}

/// Decodes `bytes` the way a model file is loaded: written to `path`, then
/// streamed back by `read_model_file`.
fn decode_via_file(path: &std::path::Path, bytes: &[u8]) -> Result<TrainedModel, StcError> {
    std::fs::write(path, bytes).expect("write temp model");
    read_model_file(path).map_err(|e| {
        match e.get_ref().and_then(|s| s.downcast_ref::<StcError>()) {
            Some(stc) => stc.clone(),
            None => panic!("file decode failed without an StcError: {e}"),
        }
    })
}

/// The streamed file decoder and the in-memory decoder agree on every
/// truncation and every single-bit flip of the fixture: the same model
/// bytes, or the same typed error.
#[test]
fn file_decoder_matches_slice_decoder_on_every_fault() {
    let bytes = write_model_stc(&fixture_model());
    let path = std::env::temp_dir()
        .join(format!("stmaker_stc_faults_{}_differential.stc", std::process::id()));
    let check = |mutated: &[u8], what: &str| match (
        read_model_stc(mutated),
        decode_via_file(&path, mutated),
    ) {
        (Ok(a), Ok(b)) => assert_eq!(write_model_stc(&a), write_model_stc(&b), "{what}"),
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}"),
        (a, b) => panic!("{what}: slice {:?} vs file {:?}", a.err(), b.err()),
    };
    for cut in 0..=bytes.len() {
        check(&bytes[..cut], &format!("cut {cut}"));
    }
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[i] ^= 1 << bit;
            check(&mutated, &format!("byte {i} bit {bit}"));
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// A body shorter than the 16-byte header is checked against the magic
/// first: a true `STC1` prefix is truncated, anything else is not an STC1
/// file at all, whichever reader and whichever source decodes it.
#[test]
fn short_bodies_are_bad_magic_unless_an_stc1_prefix() {
    let model = write_model_stc(&fixture_model());
    let trips = write_trips_stc(&fixture_trips(0x5407));
    let path =
        std::env::temp_dir().join(format!("stmaker_stc_faults_{}_short.stc", std::process::id()));
    let json = br#"{"a":1,"b":[2]}"#;
    let near_miss = b"STX1\x01\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00";
    for len in 0..16 {
        let truncated = StcError::Truncated { expected: 16, got: len as u64 };
        for prefix in [&model[..len], &trips[..len]] {
            assert_eq!(read_model_stc(prefix).err(), Some(truncated.clone()), "STC1 prefix {len}");
            assert_eq!(read_raw_trips_stc(prefix).err(), Some(truncated.clone()), "{len}");
            assert_eq!(decode_via_file(&path, prefix).err(), Some(truncated.clone()), "{len}");
        }
        for body in [&json[..], &near_miss[..]] {
            let body = &body[..len.min(body.len())];
            let present = body.len().min(4);
            let want = if body[..present] == b"STC1"[..present] {
                truncated.clone()
            } else {
                let mut got = [0u8; 4];
                got[..present].copy_from_slice(&body[..present]);
                StcError::BadMagic { got }
            };
            assert_eq!(read_model_stc(body).err(), Some(want.clone()), "{body:?}");
            assert_eq!(read_raw_trips_stc(body).err(), Some(want.clone()), "{body:?}");
            assert_eq!(decode_via_file(&path, body).err(), Some(want.clone()), "{body:?}");
            if len >= 3 {
                assert!(want.to_string().starts_with("not an STC1 file"), "{body:?}: {want}");
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// A feature-map row with a zero count or a non-finite sum would answer
/// `regular_value` with an infinite or NaN average, so loading refuses it
/// with a typed error.
#[test]
fn poisoned_feature_rows_are_typed_errors() {
    use stmaker_routes::FeatureMapError;
    const FM_NUM_SUM: u32 = 0x25;
    const FM_NUM_COUNT: u32 = 0x26;
    const FM_CAT_COUNT: u32 = 0x2B;
    let model = fixture_model();
    let bytes = write_model_stc(&model);
    let patched = |tag: u32, at: usize, value: [u8; 8]| {
        let mut b = bytes.clone();
        let s = section_range(&b, tag).expect("section present");
        b[s.start + 8 * at..s.start + 8 * at + 8].copy_from_slice(&value);
        read_model_stc(&b).err()
    };
    let invalid = |e| Some(StcError::InvalidFeatureMap(e));
    assert_eq!(
        patched(FM_NUM_COUNT, 1, 0u64.to_le_bytes()),
        invalid(FeatureMapError::ZeroCount { table: "numeric", index: 1 })
    );
    assert_eq!(
        patched(FM_CAT_COUNT, 0, 0u64.to_le_bytes()),
        invalid(FeatureMapError::ZeroCount { table: "categorical", index: 0 })
    );
    for bad in [f64::INFINITY, f64::NAN] {
        assert_eq!(
            patched(FM_NUM_SUM, 0, bad.to_bits().to_le_bytes()),
            invalid(FeatureMapError::NonFiniteSum { index: 0 })
        );
    }
}

/// The file reader's buffer size: `read_model_file` reads each section in
/// chunks of this many bytes.
const FILE_CHUNK: usize = 64 * 1024;

/// Rows per table in [`big_model`]: every 4-byte column then spans more
/// than three file chunks, and every 8-byte column more than six.
const BIG: u32 = 50_000;

/// A model whose every column but `meta` and `feat_names` spans several
/// file chunks: `BIG` trajectories `[i, i + 1]`, each pair with one
/// occurrence, one transfer and its winner, and one numeric and one
/// categorical feature row per hop.
fn big_model() -> TrainedModel {
    let l = LandmarkId;
    let n = BIG as usize;
    let mut fm = FeatureMapBuilder::new();
    for i in 0..BIG {
        fm.add_observation(l(i), l(i + 1), "speed", f64::from(i % 97) + 0.25);
        fm.add_categorical_observation(l(i), l(i + 1), "road_class", i % 5);
    }
    let keys: Vec<_> = (0..BIG).map(|i| (l(i), l(i + 1))).collect();
    let hops: Vec<_> = (0..BIG).flat_map(|i| [l(i), l(i + 1)]).collect();
    let parts = PopularRoutesParts {
        corpus_offsets: (0..=n).map(|i| 2 * i).collect(),
        corpus_ids: hops.clone(),
        pair_keys: keys,
        pair_offsets: (0..=n).collect(),
        occ_traj: (0..BIG).collect(),
        occ_start: vec![0; n],
        occ_end: vec![1; n],
        tr_src: (0..BIG).map(l).collect(),
        tr_offsets: (0..=n).collect(),
        tr_dst: (1..=BIG).map(l).collect(),
        tr_w: (0..BIG).map(|i| f64::from(i % 7 + 1)).collect(),
        sup_val: (0..BIG).map(|i| i % 3 + 1).collect(),
        win_offsets: (0..=n).map(|i| 2 * i).collect(),
        win_ids: hops,
        ..PopularRoutesParts::default()
    };
    TrainedModel {
        popular: PopularRoutes::from_parts(parts).expect("big columns are valid"),
        featmap: fm.finish(),
        n_trained: n,
        registry_len: n + 1,
    }
}

/// The tags of every fixed-width model column: the feature-map rows
/// (0x22–0x2B) and the popular-route tables (0x30–0x42).
fn column_tags() -> impl Iterator<Item = u32> {
    (0x22..=0x2B).chain(0x30..=0x42)
}

/// Sets the section-table length of section `tag` to `len`.
fn set_section_len(bytes: &mut [u8], tag: u32, len: u64) {
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let entry = (0..word(8) as usize)
        .map(|i| 16 + 24 * i)
        .find(|&e| word(e) == tag)
        .expect("tag in section table");
    bytes[entry + 16..entry + 24].copy_from_slice(&len.to_le_bytes());
}

/// Decodes `bytes` from a slice and from a file and requires the same
/// error from both.
fn same_error_from_both(path: &std::path::Path, bytes: &[u8], what: &str) -> StcError {
    let slice = read_model_stc(bytes).err().unwrap_or_else(|| panic!("{what}: slice decoded"));
    let file = decode_via_file(path, bytes).err().unwrap_or_else(|| panic!("{what}: file decoded"));
    assert_eq!(slice, file, "{what}");
    slice
}

/// Columns that span several file reads decode to the same model from a
/// file as from a slice, and that model re-encodes to the same bytes.
#[test]
fn multi_chunk_columns_decode_the_same_from_file_and_slice() {
    let bytes = write_model_stc(&big_model());
    for tag in column_tags() {
        let len = section_range(&bytes, tag).expect("section present").len();
        assert!(len >= 3 * FILE_CHUNK, "section 0x{tag:02x} spans only {len} bytes");
    }
    let path =
        std::env::temp_dir().join(format!("stmaker_stc_faults_{}_big.stc", std::process::id()));
    let from_slice = read_model_stc(&bytes).expect("slice decodes");
    let from_file = decode_via_file(&path, &bytes).expect("file decodes");
    assert_eq!(write_model_stc(&from_slice), bytes, "slice decode re-encodes");
    assert_eq!(write_model_stc(&from_file), bytes, "file decode re-encodes");
    let _ = std::fs::remove_file(&path);
}

/// A multi-chunk section whose length is not a whole number of elements
/// is the same `ColumnLengthMismatch` from both readers, for every column.
#[test]
fn ragged_multi_chunk_sections_are_the_same_error_from_both_readers() {
    let bytes = write_model_stc(&big_model());
    let path =
        std::env::temp_dir().join(format!("stmaker_stc_faults_{}_ragged.stc", std::process::id()));
    for tag in column_tags() {
        let len = section_range(&bytes, tag).expect("section present").len() as u64;
        let mut ragged = bytes.clone();
        set_section_len(&mut ragged, tag, len - 1);
        let e = same_error_from_both(&path, &ragged, &format!("section 0x{tag:02x}"));
        assert!(
            matches!(e, StcError::ColumnLengthMismatch { got, .. } if got == len - 1),
            "section 0x{tag:02x}: {e:?}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Cutting a multi-chunk section inside its third chunk, in the section
/// table or in the file itself, is the same typed error from both readers.
#[test]
fn truncation_inside_a_later_chunk_is_the_same_error_from_both_readers() {
    const PAIR_TO: u32 = 0x33;
    const WIN_IDS: u32 = 0x42;
    let bytes = write_model_stc(&big_model());
    let path =
        std::env::temp_dir().join(format!("stmaker_stc_faults_{}_cut.stc", std::process::id()));

    // The `to` half of the pair keys, shortened to end inside its third
    // chunk, no longer matches the `from` half.
    let cut = (2 * FILE_CHUNK + FILE_CHUNK / 2) as u64;
    let mut short = bytes.clone();
    set_section_len(&mut short, PAIR_TO, cut);
    assert_eq!(
        same_error_from_both(&path, &short, "pair_to cut"),
        StcError::ColumnLengthMismatch {
            section: "pair_to",
            expected: u64::from(BIG),
            got: cut / 4
        }
    );

    // The file ends inside the third chunk of its last section.
    let last = section_range(&bytes, WIN_IDS).expect("section present");
    let end = last.start + 2 * FILE_CHUNK + 12;
    assert_eq!(
        same_error_from_both(&path, &bytes[..end], "file cut"),
        StcError::Truncated { expected: last.end as u64, got: end as u64 }
    );
    let _ = std::fs::remove_file(&path);
}

/// STC1 stores a key section pair for the support and winner tables, but
/// a model keeps one pair key column and indexes both tables by it. Key
/// sections that disagree with the pair keys, and winners that are empty,
/// are typed errors, the same from both readers, including where the
/// fault lies in a later file chunk.
#[test]
fn key_consistency_faults_are_the_same_error_from_both_readers() {
    const SUP_FROM: u32 = 0x3C;
    const SUP_TO: u32 = 0x3D;
    const WIN_FROM: u32 = 0x3F;
    const WIN_TO: u32 = 0x40;
    const WIN_OFFSETS: u32 = 0x41;
    let bytes = write_model_stc(&big_model());
    let path =
        std::env::temp_dir().join(format!("stmaker_stc_faults_{}_keys.stc", std::process::id()));
    // Entry `i` of every 4-byte column lies in its third file chunk.
    let i = 40_000usize;
    assert!(4 * i > 2 * FILE_CHUNK);
    // Sets entry `at` of each `(tag, width, at, value)` section.
    let patched = |edits: &[(u32, usize, usize, u64)]| {
        let mut b = bytes.clone();
        for &(tag, width, at, value) in edits {
            let s = section_range(&b, tag).expect("section present");
            b[s.start + width * at..s.start + width * (at + 1)]
                .copy_from_slice(&value.to_le_bytes()[..width]);
        }
        b
    };
    let (prev, next) = (i as u64 - 1, i as u64 + 2);
    let cases = [
        // A support key that is not the pair key at its index.
        ("sup_from", patched(&[(SUP_FROM, 4, i, 7)]), StcError::SupportKeyMismatch { index: i }),
        ("sup_to", patched(&[(SUP_TO, 4, i, 7)]), StcError::SupportKeyMismatch { index: i }),
        // Winner `i` names (i, i + 2), which is not a pair.
        ("win_to", patched(&[(WIN_TO, 4, i, next)]), StcError::WinnerKeyMissing { index: i }),
        // Winner `i` repeats winner `i - 1`'s key: a pair out of order.
        (
            "win_from + win_to",
            patched(&[(WIN_FROM, 4, i, prev), (WIN_TO, 4, i, prev + 1)]),
            StcError::WinnerKeyMissing { index: i },
        ),
        // Winner `i` ends where it starts.
        (
            "win_offsets",
            patched(&[(WIN_OFFSETS, 8, i + 1, 2 * i as u64)]),
            StcError::EmptyWinner { index: i },
        ),
    ];
    for (what, mutated, want) in cases {
        assert_eq!(same_error_from_both(&path, &mutated, what), want, "{what}");
    }

    // When only every other pair has a winner, the winner keys are matched
    // to the pairs in order: the model still decodes the same from both
    // readers, and the same faults are still typed.
    let mut model = big_model();
    let mut parts = model.popular.parts().clone();
    parts.win_offsets = (0..=BIG as usize).map(|p| 2 * p.div_ceil(2)).collect();
    parts.win_ids = (0..BIG).step_by(2).flat_map(|p| [LandmarkId(p), LandmarkId(p + 1)]).collect();
    model.popular = PopularRoutes::from_parts(parts).expect("half the pairs keep a winner");
    let half = write_model_stc(&model);
    let from_file = decode_via_file(&path, &half).expect("file decodes");
    assert_eq!(write_model_stc(&from_file), half, "file decode re-encodes");
    assert_eq!(write_model_stc(&read_model_stc(&half).expect("slice decodes")), half);
    // Winner `k` is pair `2k`; `k` lies in the second chunk of `win_to`.
    let k = 20_000usize;
    assert!(4 * k > FILE_CHUNK);
    let patch = |tag: u32, width: usize, at: usize, value: u64| {
        let mut b = half.clone();
        let s = section_range(&b, tag).expect("section present");
        b[s.start + width * at..s.start + width * (at + 1)]
            .copy_from_slice(&value.to_le_bytes()[..width]);
        b
    };
    let cases = [
        (
            "half win_to",
            patch(WIN_TO, 4, k, 2 * k as u64 + 2),
            StcError::WinnerKeyMissing { index: k },
        ),
        (
            "half win_offsets",
            patch(WIN_OFFSETS, 8, k + 1, 2 * k as u64),
            StcError::EmptyWinner { index: k },
        ),
    ];
    for (what, mutated, want) in cases {
        assert_eq!(same_error_from_both(&path, &mutated, what), want, "{what}");
    }

    // The small fixture, read in one chunk: a winner key past every pair.
    let small = write_model_stc(&fixture_model());
    let mut b = small.clone();
    let s = section_range(&b, WIN_FROM).expect("section present");
    b[s.end - 4..s.end].copy_from_slice(&9u32.to_le_bytes());
    assert_eq!(
        same_error_from_both(&path, &b, "fixture win_from"),
        StcError::WinnerKeyMissing { index: 1 }
    );
    let _ = std::fs::remove_file(&path);
}
