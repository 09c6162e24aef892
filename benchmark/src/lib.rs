//! The repo's benchmark. `BENCHMARK.json` at the repository root names the
//! command, the workloads and the metrics; `README.md` beside this crate
//! explains them.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions through [`sut`]; nothing under `crates/` knows this exists.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod header;
pub mod json;
pub mod ladder;
pub mod loadgen;
pub mod measure;
pub mod rig;
pub mod run;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workloads;
