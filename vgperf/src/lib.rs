//! End-to-end and per-layer benchmark of the Virtual Ghost reproduction.
//! See `README.md` beside this crate for the workloads, the metrics and
//! how to read them.

pub mod layers;
pub mod run;
pub mod spans;
pub mod workloads;
