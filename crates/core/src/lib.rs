//! # stmaker — trajectory partition-and-summarization
//!
//! A from-scratch Rust reproduction of *Making Sense of Trajectory Data: A
//! Partition-and-Summarization Approach* (Su, Zheng, Zeng, Huang, Sadiq,
//! Yuan, Zhou — ICDE 2015): given a raw GPS trajectory, automatically
//! generate a short text that highlights its most unusual travel behaviour.
//!
//! ## Pipeline (paper Fig. 3)
//!
//! ```text
//! raw trajectory ──calibrate──▶ symbolic trajectory (landmark sequence)
//!        │                            │
//!        └──map-match / detect──▶ per-segment features (Sec. III)
//!                                     │
//!                              CRF/DP partition (Sec. IV)
//!                                     │
//!                     irregular-rate feature selection (Sec. V)
//!                                     │
//!                         template summary text (Sec. VI)
//! ```
//!
//! ## Quick start
//!
//! ```no_run
//! use stmaker::{standard_features, FeatureWeights, Summarizer, SummarizerConfig};
//! # fn doc(net: &stmaker_road::RoadNetwork, registry: &stmaker_poi::LandmarkRegistry,
//! #        training: &[stmaker_trajectory::RawTrajectory],
//! #        trip: &stmaker_trajectory::RawTrajectory) {
//! let features = standard_features();
//! let weights = FeatureWeights::uniform(&features);
//! let summarizer = Summarizer::train(
//!     net, registry, training, features, weights, SummarizerConfig::default(),
//! );
//! let summary = summarizer.summarize(trip).expect("calibratable trip");
//! println!("{}", summary.text);
//! // e.g. "The car started from the Daoxiang Community to the Haidian
//! //       Hospital with 2 staying points (in total for 167 seconds)."
//! # }
//! ```
//!
//! ## Module map
//!
//! | module | paper section |
//! |---|---|
//! | [`feature`] | Sec. III + VI-B — extensible routing/moving features |
//! | [`builtin`] | Tables III & IV — the six standard features (+ `SpeC`) |
//! | [`context`] | Sec. III-B — per-segment extraction pipeline |
//! | [`similarity`] | Eq. (3) — weighted cosine similarity |
//! | [`partition`] | Eq. (4) & Algorithm 1 — optimal (k-)partition |
//! | [`invariant`] | debug-build runtime gates over the stages above |
//! | [`irregular`] | Sec. V — irregular rates |
//! | [`select`] | Sec. V — threshold selection |
//! | [`template`] | Tables V & VI — phrase/sentence templates |
//! | [`summarize`] | Fig. 3 — the end-to-end [`Summarizer`] |
//!
//! ## Observability
//!
//! Every pipeline stage reports into a [`Recorder`] attached via
//! [`SummarizerConfig::with_recorder`]: per-stage spans (`calibrate`,
//! `partition`, `select`, `popular_route`, `render`, …) plus domain
//! counters such as `partition.dp_cells` and `select.features_kept`. The
//! default recorder is disabled and costs one branch per stage — see the
//! `stmaker-obs` crate.

pub mod builtin;
pub mod context;
pub mod feature;
pub mod group;
pub mod invariant;
pub mod irregular;
pub mod partition;
mod route_memo;
pub mod select;
pub mod similarity;
pub mod streaming;
pub mod summarize;
pub mod template;

pub use builtin::{extended_features, keys, standard_features};
pub use context::{ExtractionParams, SegmentContext};
pub use feature::{Feature, FeatureKind, FeatureScale, FeatureSet, FeatureWeights, PhraseInfo};
pub use group::{GroupError, GroupFeatureStat, GroupSummary};
pub use partition::{optimal_k_partition, optimal_partition, PartitionResult, PartitionSpan};
pub use select::SelectedFeature;
pub use streaming::{OutOfOrderPolicy, StreamConfig, StreamError, StreamingSummarizer};
pub use summarize::{
    mentioned_keys, summary_mentions, PartitionSummary, Prepared, SummarizeError, Summarizer,
    SummarizerConfig, Summary, TrainedModel,
};

// Telemetry types: the route memo's counters, and the recorder re-exported
// so downstream crates can attach one without depending on `stmaker-obs`.
pub use route_memo::CacheStats;
pub use stmaker_obs::{Recorder, Report};

// Spatial-index work counters, re-exported so the benchmark can read them
// without depending on `stmaker-geo`.
pub use stmaker_geo::SpatialStats;
