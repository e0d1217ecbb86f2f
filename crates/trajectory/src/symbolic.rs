//! Symbolic trajectories and trajectory segments (Definitions 3 and 4).

use crate::raw::Timestamp;
use serde::{Deserialize, Serialize};
use stmaker_poi::LandmarkId;

/// One landmark visit of a symbolic trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SymbolicPoint {
    pub landmark: LandmarkId,
    pub t: Timestamp,
}

/// Definition 3: "A symbolic trajectory T̄ is a sequence of landmarks and
/// their corresponding time-stamps."
///
/// Produced by calibration; consumed by partitioning, popular-route mining
/// and the historical feature map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SymbolicTrajectory {
    points: Vec<SymbolicPoint>,
}

impl SymbolicTrajectory {
    /// Creates a symbolic trajectory.
    ///
    /// # Panics
    /// Panics if fewer than two landmarks are supplied, timestamps decrease,
    /// or the same landmark appears twice consecutively.
    pub fn new(points: Vec<SymbolicPoint>) -> Self {
        assert!(points.len() >= 2, "a symbolic trajectory needs at least two landmarks");
        assert!(points.windows(2).all(|w| w[0].t <= w[1].t), "timestamps must be non-decreasing");
        assert!(
            points.windows(2).all(|w| w[0].landmark != w[1].landmark),
            "consecutive duplicate landmarks must be collapsed by calibration"
        );
        Self { points }
    }

    /// The landmark visits.
    pub fn points(&self) -> &[SymbolicPoint] {
        &self.points
    }

    /// `|T̄|`: the number of landmarks.
    pub fn size(&self) -> usize {
        self.points.len()
    }

    /// The landmark id sequence (used as the key for route mining).
    pub fn landmark_seq(&self) -> Vec<LandmarkId> {
        self.points.iter().map(|p| p.landmark).collect()
    }

    /// The `|T̄| − 1` segments connecting consecutive landmarks.
    pub fn segments(&self) -> Vec<TrajectorySegment> {
        self.points
            .windows(2)
            .enumerate()
            .map(|(i, w)| TrajectorySegment { index: i, from: w[0], to: w[1] })
            .collect()
    }

    /// Segment accessor: segment `i` connects landmarks `i` and `i + 1`.
    pub fn segment(&self, i: usize) -> TrajectorySegment {
        TrajectorySegment { index: i, from: self.points[i], to: self.points[i + 1] }
    }

    /// Number of segments (`size() − 1`).
    pub fn segment_count(&self) -> usize {
        self.points.len() - 1
    }

    /// Total elapsed time in seconds.
    pub fn duration_secs(&self) -> i64 {
        self.points[0].t.delta_secs(&self.points.last().expect("non-empty").t)
    }
}

/// Definition 4: a segment `TSᵢ` connects two consecutive landmarks of a
/// symbolic trajectory. Segments are "the basic atoms" partitioned in Sec. IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrajectorySegment {
    /// Position within the parent trajectory (0-based).
    pub index: usize,
    pub from: SymbolicPoint,
    pub to: SymbolicPoint,
}

impl TrajectorySegment {
    /// Elapsed seconds on this segment.
    pub fn duration_secs(&self) -> i64 {
        self.from.t.delta_secs(&self.to.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(l: u32, t: i64) -> SymbolicPoint {
        SymbolicPoint { landmark: LandmarkId(l), t: Timestamp(t) }
    }

    fn sample() -> SymbolicTrajectory {
        SymbolicTrajectory::new(vec![sp(0, 0), sp(3, 60), sp(1, 150), sp(7, 300)])
    }

    #[test]
    fn size_and_segments() {
        let t = sample();
        assert_eq!(t.size(), 4);
        assert_eq!(t.segment_count(), 3);
        let segs = t.segments();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].from.landmark, LandmarkId(0));
        assert_eq!(segs[0].to.landmark, LandmarkId(3));
        assert_eq!(segs[2].index, 2);
        assert_eq!(t.duration_secs(), 300);
    }

    #[test]
    fn segment_durations() {
        let t = sample();
        assert_eq!(t.segment(0).duration_secs(), 60);
        assert_eq!(t.segment(1).duration_secs(), 90);
        assert_eq!(t.segment(2).duration_secs(), 150);
    }

    #[test]
    fn landmark_seq_projects_ids() {
        assert_eq!(
            sample().landmark_seq(),
            vec![LandmarkId(0), LandmarkId(3), LandmarkId(1), LandmarkId(7)]
        );
    }

    #[test]
    #[should_panic(expected = "consecutive duplicate")]
    fn rejects_consecutive_duplicates() {
        SymbolicTrajectory::new(vec![sp(0, 0), sp(0, 10)]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_landmark() {
        SymbolicTrajectory::new(vec![sp(0, 0)]);
    }
}
