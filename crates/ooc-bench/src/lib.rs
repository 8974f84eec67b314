//! # ooc-bench
//!
//! The experiment harness behind `EXPERIMENTS.md`: workload generators,
//! parameter sweeps and the code that regenerates every table (T1–T8).
//! The `tables` binary prints them:
//!
//! ```sh
//! cargo run -p ooc-bench --bin tables --release -- all   # or t1..t8
//! ```
//!
//! Wall-clock timings of the engine and the campaign runtime live in the
//! standalone `perfbench/` package at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stats;
pub mod tables;

pub use stats::Summary;
