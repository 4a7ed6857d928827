//! # intbench
//!
//! The repository's benchmark of record: one harness, five named
//! workloads, end-to-end and per-layer metrics for the discrete-event
//! simulator (`packet → dataplane → netsim → apps`) and the scheduler
//! control plane (`collector → map → snapshot → shard`).
//!
//! The harness only calls the crates' public functions and times them
//! from outside. See `README.md` for the workloads, the metric names and
//! how to run it.

pub mod compare;
pub mod ctl;
pub mod des;
pub mod gen;
pub mod harness;
pub mod json;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod unit;
pub mod workload;
