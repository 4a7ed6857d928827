//! # int-experiments
//!
//! The harness that regenerates every table and figure in the paper's
//! evaluation (§IV), plus the ablations DESIGN.md calls out.
//!
//! Every experiment is one row of [`EXPERIMENTS`]: its `repro` command,
//! its artifact file, its smoke scale, how it runs and which of the
//! paper's claims it must bear out. The modules below hold the grids and
//! renderers the rows call.
//!
//! Shared infrastructure: [`testbed`] (the Fig. 4 topology stand-in and
//! standard app deployment), [`runner`] (one full scheduling experiment),
//! [`stats`] (means, percentiles, ECDFs, gains), [`report`] (table
//! rendering + JSON output).

pub mod ablation;
pub mod audit;
pub mod compare;
mod experiment;
pub mod fabric;
pub mod failover;
pub mod par;
pub mod fig3;
pub mod fig8;
pub mod fig9;
pub mod giant;
pub mod overhead;
pub mod report;
pub mod runner;
pub mod stats;
pub mod sustained;
pub mod tab1;
pub mod testbed;
pub mod workflow;

pub use experiment::{find, Artifact, Claim, Experiment, Run, EXPERIMENTS};
pub use runner::{ExperimentConfig, ExperimentResult, TaskOutcome};
pub use testbed::Testbed;
