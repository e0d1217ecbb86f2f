//! SVG/HTML trip reports — the reproduction's stand-in for the STMaker demo
//! UI (paper Fig. 7): the city map, the trajectory drawn over it, the
//! partition landmarks, and the generated summary side by side.
//!
//! Pure string assembly — no drawing dependencies — producing a standalone
//! HTML file with one inline SVG.

use stmaker::Summary;
use stmaker_geo::{BoundingBox, GeoPoint, LocalFrame};
use stmaker_poi::LandmarkRegistry;
use stmaker_road::{RoadGrade, RoadNetwork};
use stmaker_trajectory::RawTrajectory;

/// Pixel size of the rendered map.
const WIDTH: f64 = 860.0;
const HEIGHT: f64 = 680.0;
const MARGIN: f64 = 24.0;

/// Projects geographic points into the SVG viewport.
struct Viewport {
    frame: LocalFrame,
    min_x: f64,
    min_y: f64,
    scale: f64,
}

impl Viewport {
    fn fit(bbox: BoundingBox) -> Self {
        let frame = LocalFrame::new(bbox.center());
        let (x0, y0) = frame.to_xy(&GeoPoint { lat: bbox.min_lat, lon: bbox.min_lon });
        let (x1, y1) = frame.to_xy(&GeoPoint { lat: bbox.max_lat, lon: bbox.max_lon });
        let (w, h) = (x1 - x0, y1 - y0);
        let scale = ((WIDTH - 2.0 * MARGIN) / w.max(1.0)).min((HEIGHT - 2.0 * MARGIN) / h.max(1.0));
        Self { frame, min_x: x0, min_y: y0, scale }
    }

    fn px(&self, p: &GeoPoint) -> (f64, f64) {
        let (x, y) = self.frame.to_xy(p);
        (
            MARGIN + (x - self.min_x) * self.scale,
            // SVG y grows downward; geography northward.
            HEIGHT - MARGIN - (y - self.min_y) * self.scale,
        )
    }
}

fn grade_style(grade: RoadGrade) -> (&'static str, f64) {
    match grade {
        RoadGrade::Highway => ("#c0392b", 3.2),
        RoadGrade::Express => ("#e67e22", 2.6),
        RoadGrade::National => ("#b0a14f", 2.0),
        RoadGrade::Provincial => ("#9aa3a8", 1.7),
        RoadGrade::County => ("#b8bfc4", 1.4),
        RoadGrade::Village => ("#cdd3d7", 1.1),
        RoadGrade::Feeder => ("#e0e4e7", 0.9),
    }
}

/// Renders the standalone HTML report for one summarized trip.
pub fn render_trip_report(
    net: &RoadNetwork,
    registry: &LandmarkRegistry,
    raw: &RawTrajectory,
    summary: &Summary,
    title: &str,
) -> String {
    let pts: Vec<GeoPoint> = net.nodes().iter().map(|n| n.point).collect();
    let bbox = BoundingBox::enclosing(&pts).expect("network has nodes").inflate(0.002);
    let vp = Viewport::fit(bbox);

    let mut svg = String::new();

    // Road layer, minor grades first so arterials draw on top.
    let mut edges: Vec<_> = net.edges().iter().collect();
    edges.sort_by_key(|e| std::cmp::Reverse(e.grade.code()));
    for e in edges {
        let (color, width) = grade_style(e.grade);
        let a = vp.px(&net.node(e.from).point);
        let b = vp.px(&net.node(e.to).point);
        svg.push_str(&format!(
            "<line x1='{:.1}' y1='{:.1}' x2='{:.1}' y2='{:.1}' stroke='{color}' stroke-width='{width}'/>\n",
            a.0, a.1, b.0, b.1
        ));
    }

    // Trajectory layer.
    let path: Vec<String> = raw
        .points()
        .iter()
        .map(|p| {
            let (x, y) = vp.px(&p.point);
            format!("{x:.1},{y:.1}")
        })
        .collect();
    svg.push_str(&format!(
        "<polyline points='{}' fill='none' stroke='#1f5fa8' stroke-width='2.6' stroke-opacity='0.9'/>\n",
        path.join(" ")
    ));

    // Partition boundary landmarks with labels.
    let mut boundary = Vec::new();
    for p in &summary.partitions {
        boundary.push((p.from, p.from_name.clone()));
    }
    if let Some(last) = summary.partitions.last() {
        boundary.push((last.to, last.to_name.clone()));
    }
    for (lm, name) in &boundary {
        let (x, y) = vp.px(&registry.get(*lm).point);
        svg.push_str(&format!(
            "<circle cx='{x:.1}' cy='{y:.1}' r='5.5' fill='#14532d' stroke='white' stroke-width='1.5'/>\n\
             <text x='{:.1}' y='{:.1}' font-size='12' fill='#14532d'>{}</text>\n",
            x + 8.0,
            y - 6.0,
            escape(name)
        ));
    }

    // Start/end markers.
    let (sx, sy) = vp.px(&raw.start().point);
    let (ex, ey) = vp.px(&raw.end().point);
    svg.push_str(&format!(
        "<circle cx='{sx:.1}' cy='{sy:.1}' r='4' fill='#1f5fa8'/>\n\
         <rect x='{:.1}' y='{:.1}' width='8' height='8' fill='#1f5fa8'/>\n",
        ex - 4.0,
        ey - 4.0
    ));

    let sentences: String =
        summary.partitions.iter().map(|p| format!("<li>{}</li>\n", escape(&p.sentence))).collect();
    let stats = format!(
        "{} raw samples · {:.1} km · {} landmarks · {} partition(s)",
        raw.len(),
        raw.length_m() / 1000.0,
        summary.symbolic_len,
        summary.partitions.len()
    );
    let title = escape(title);

    format!(
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'><title>{title}</title>\n\
         <style>body{{font-family:system-ui,sans-serif;max-width:{WIDTH}px;margin:2em auto;color:#222}}\
         ol{{line-height:1.6}}figure{{margin:0}}figcaption{{color:#666;font-size:13px;margin-top:4px}}</style>\n\
         </head><body>\n<h1>{title}</h1>\n\
         <figure>\n<svg width='{WIDTH}' height='{HEIGHT}' viewBox='0 0 {WIDTH} {HEIGHT}' \
         xmlns='http://www.w3.org/2000/svg' style='background:#fafafa;border:1px solid #ddd'>\n{svg}</svg>\n\
         <figcaption>roads coloured by grade (red = highway … grey = feeder); \
         blue = trajectory; green dots = partition landmarks</figcaption>\n</figure>\n\
         <h2>Summary</h2>\n<ol>\n{sentences}</ol>\n\
         <p><em>{stats}</em></p>\n\
         </body></html>\n"
    )
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{ExperimentScale, Harness};

    #[test]
    fn report_contains_map_and_sentences() {
        let mut scale = ExperimentScale::quick();
        scale.n_train = 30;
        scale.n_test = 5;
        let h = Harness::new(scale);
        let s = h.train_default();
        let trip = &h.test[0];
        let summary = s.summarize(trip.raw.points(), None).expect("summarizable");
        let html =
            render_trip_report(&h.world.net, &h.world.registry, &trip.raw, &summary, "Test trip");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("<polyline"), "trajectory layer missing");
        assert!(html.contains("stroke='#c0392b'"), "highway layer missing");
        assert!(html.contains("<circle"), "landmark markers missing");
        // Every partition sentence appears (escaped).
        for p in &summary.partitions {
            assert!(html.contains(&escape(&p.sentence)));
        }
        // The stats line interpolated.
        assert!(html.contains(&format!("{} raw samples", trip.raw.len())));
    }

    #[test]
    fn escape_handles_markup() {
        assert_eq!(escape("a<b & c>d"), "a&lt;b &amp; c&gt;d");
    }
}
