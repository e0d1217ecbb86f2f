//! GeoJSON export: summaries as annotated per-partition features, ready for
//! any web map (the natural delivery format for the paper's STMaker demo UI,
//! Fig. 7).

use serde_json::{json, Value};
use stmaker::Summary;
use stmaker_poi::LandmarkRegistry;

/// A `FeatureCollection`: one `LineString` per partition (straight landmark
/// chords — the symbolic view), carrying the partition's sentence, endpoint
/// names and selected feature keys as properties, plus `Point` features for
/// the partition boundary landmarks.
pub fn summary_to_geojson(summary: &Summary, registry: &LandmarkRegistry) -> Value {
    let mut features = Vec::new();
    for (i, p) in summary.partitions.iter().enumerate() {
        let a = registry.get(p.from).point;
        let b = registry.get(p.to).point;
        features.push(json!({
            "type": "Feature",
            "geometry": {
                "type": "LineString",
                "coordinates": [[a.lon, a.lat], [b.lon, b.lat]],
            },
            "properties": {
                "partition": i,
                "sentence": p.sentence,
                "from": p.from_name,
                "to": p.to_name,
                "features": p.selected.iter().map(|s| s.key.clone()).collect::<Vec<_>>(),
            }
        }));
    }
    // Boundary landmarks as points (deduplicated chain: from of each
    // partition plus the final destination).
    let mut boundary = Vec::new();
    for p in &summary.partitions {
        boundary.push((p.from, p.from_name.clone()));
    }
    if let Some(last) = summary.partitions.last() {
        boundary.push((last.to, last.to_name.clone()));
    }
    for (lm, name) in boundary {
        let pt = registry.get(lm).point;
        features.push(json!({
            "type": "Feature",
            "geometry": { "type": "Point", "coordinates": [pt.lon, pt.lat] },
            "properties": { "name": name, "significance": registry.get(lm).significance },
        }));
    }
    json!({
        "type": "FeatureCollection",
        "properties": { "summary": summary.text },
        "features": features,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmaker::{PartitionSpan, PartitionSummary};
    use stmaker_geo::GeoPoint;
    use stmaker_poi::{Landmark, LandmarkId, LandmarkKind};

    fn registry() -> LandmarkRegistry {
        let lms = (0..3)
            .map(|i| Landmark {
                id: LandmarkId(i),
                point: GeoPoint::new(39.9 + 0.01 * i as f64, 116.4),
                name: format!("L{i}"),
                kind: LandmarkKind::TurningPoint,
                significance: 0.5,
            })
            .collect();
        LandmarkRegistry::from_landmarks(lms)
    }

    fn summary() -> Summary {
        let part = |i: u32, s: &str| PartitionSummary {
            span: PartitionSpan { seg_start: i as usize, seg_end: i as usize },
            from: LandmarkId(i),
            to: LandmarkId(i + 1),
            from_name: format!("L{i}"),
            to_name: format!("L{}", i + 1),
            selected: vec![],
            sentence: s.to_owned(),
        };
        Summary {
            text: "A. B.".into(),
            partitions: vec![part(0, "A."), part(1, "B.")],
            symbolic_len: 3,
            potential: 0.0,
        }
    }

    #[test]
    fn summary_collection_has_lines_and_boundary_points() {
        let v = summary_to_geojson(&summary(), &registry());
        assert_eq!(v["type"], "FeatureCollection");
        assert_eq!(v["properties"]["summary"], "A. B.");
        let feats = v["features"].as_array().unwrap();
        // 2 partition lines + 3 boundary points.
        assert_eq!(feats.len(), 5);
        let lines = feats.iter().filter(|f| f["geometry"]["type"] == "LineString").count();
        let points = feats.iter().filter(|f| f["geometry"]["type"] == "Point").count();
        assert_eq!(lines, 2);
        assert_eq!(points, 3);
        assert_eq!(feats[0]["properties"]["sentence"], "A.");
    }
}
