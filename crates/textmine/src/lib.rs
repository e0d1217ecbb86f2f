//! Text processing over trajectory summaries — Sec. VI-C of the paper.
//!
//! "The research on text processing is very mature compared with trajectory
//! processing. After summarizing the trajectories using text, many text
//! processing techniques, e.g., text indexing, text clustering and text
//! categorization, can be directly applied on the summaries. For example,
//! applying the text clustering method on summaries of all the trajectories
//! in a certain region at a specific time period, we can have a quick
//! overview about the traffic condition."
//!
//! This crate supplies the text-indexing half, which is what the CLI's
//! `search` subcommand uses, self-contained:
//!
//! * [`index`] — an inverted index with tf-idf ranked keyword search over a
//!   summary corpus ("find all trips with U-turns near the station");
//! * [`vectorize`] — tokenizer + tf-idf document vectors.

pub mod index;
pub mod vectorize;

pub use index::InvertedIndex;
pub use vectorize::{tokenize, SparseVector, TfIdfModel};
