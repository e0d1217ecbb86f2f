//! Trajectory types and moving-feature extraction.
//!
//! Implements the paper's data model (Sec. II) and the moving-feature
//! extractors of Sec. III-B:
//!
//! * [`RawTrajectory`] — Definition 1: a timestamped location sequence as it
//!   arrives from a GPS device;
//! * [`SymbolicTrajectory`] / [`TrajectorySegment`] — Definitions 3 and 4: a
//!   landmark sequence produced by calibration, and the segments connecting
//!   consecutive landmarks, which are "the basic atoms" of partitioning;
//! * [`staypoint`] — stay-point detection ("places where the moving object
//!   stays for a long time", caused by lights, jams, temporary parking);
//! * [`uturn`] — U-turn detection ("a sharp directional change");
//! * [`speed`] — speed profiles, average speeds, and sharp-speed-change
//!   counting (the `SpeC` custom feature exercised in Fig. 10);
//! * [`sanitize`](mod@sanitize) — ingest hardening for real-world feeds:
//!   defect taxonomy, Strict/Repair/DropBad policies, and the
//!   [`SanitizeReport`] audit trail behind the fallible constructors
//!   ([`RawTrajectory::try_new`]).

pub mod raw;
pub mod sanitize;
pub mod speed;
pub mod staypoint;
pub mod symbolic;
pub mod uturn;

pub use raw::{RawPoint, RawTrajectory, RawView, Timestamp};
pub use sanitize::{
    sanitize, SanitizeConfig, SanitizePolicy, SanitizeReport, Sanitized, TrajectoryError,
};
pub use speed::{average_speed_kmh, sharp_speed_changes, speed_profile_kmh, SpeedChangeParams};
pub use staypoint::{detect_stay_points, detect_stay_points_in, StayPoint, StayPointParams};
pub use symbolic::{SymbolicPoint, SymbolicTrajectory, TrajectorySegment};
pub use uturn::{detect_u_turns, detect_u_turns_in, UTurn, UTurnParams};
