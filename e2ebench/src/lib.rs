//! `stmaker-bench`: one end-to-end benchmark of the stmaker pipeline.
//!
//! Three workloads (`batch-dense`, `serve-hub`, `train`) run the program
//! under test in a process of its own — the benchmark's own binary in worker
//! mode for the library workloads, `stmaker-cli serve` for the server —
//! from inputs generated from one seed. Every output is checked. A separate
//! traced run adds coarse spans around the same calls and a single-threaded
//! breakdown pass that yields the per-layer metrics. See `README.md`.

pub mod batch;
pub mod breakdown;
pub mod compare;
pub mod digest;
pub mod http;
pub mod inputs;
pub mod openloop;
pub mod procfs;
pub mod report;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod train;
pub mod workload;
