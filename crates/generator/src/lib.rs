//! Synthetic workload generator: the stand-in for the paper's Beijing data.
//!
//! The paper evaluates on a commercial map, a 510k-POI dataset, LBSN
//! check-ins and a 100k-trajectory taxi corpus (Sec. VII-A) — none of which
//! can ship with an open-source reproduction. This crate builds the closest
//! synthetic equivalents, exercising the *same code paths* end to end:
//!
//! * [`World`] — a city ([`stmaker_road::synth`]), POIs placed along its
//!   roads, the DBSCAN-clustered landmark registry, synthetic check-ins, and
//!   HITS significance — assembled exactly as Sec. VII-A describes;
//! * [`TrafficModel`] — time-of-day congestion: rush hours are slower with
//!   more stops, U-turns and detours; nights are free-flowing (this is what
//!   makes the Fig. 8 day/night contrast *emerge* rather than being faked);
//! * [`TripGenerator`] — simulates taxi trips over the city: fastest-path
//!   route choice with occasional detours, per-grade speeds modulated by
//!   congestion, injected stay/U-turn/slowdown events (recorded as
//!   [`GroundTruth`] for the simulated reader study of Fig. 11), GPS noise
//!   and heterogeneous sampling rates.
//!
//! Everything is seeded; equal seeds reproduce byte-identical corpora.

pub mod traffic;
pub mod trips;
pub mod world;

pub use traffic::TrafficModel;
pub use trips::{GeneratedTrip, GroundTruth, TripConfig, TripGenerator};
pub use world::{World, WorldConfig, WorldConfigError, MAX_GRID_NODES};
