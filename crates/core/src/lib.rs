//! # int-core
//!
//! The paper's primary contribution: an **INT-driven network-aware task
//! scheduler for edge computing** (Shrestha, Cziva, Arslan — IPDPSW 2021).
//!
//! The crate consumes *only bytes* — parsed probe payloads from
//! `int-packet` — so it can sit behind a real INT deployment just as well
//! as behind the bundled simulator. The pipeline:
//!
//! 1. [`collector::IntCollector`] ingests probe packets arriving at the
//!    scheduler, validates them, tracks per-origin loss/reordering, and
//!    feeds the network map.
//! 2. [`map::NetworkMap`] reconstructs the topology from the *order* of INT
//!    records (paper §III-B) and maintains per-directed-link state: the
//!    measured link latency and the max queue occupancy harvested from each
//!    switch's registers.
//! 3. [`sched::SchedulerCore`] fronts it with the request/response
//!    interface of Fig. 1 (steps 3–4). Each query evicts stale telemetry,
//!    republishes an immutable epoch [`snapshot::SchedSnapshot`] if
//!    anything moved, and ranks the candidate edge servers against it
//!    under a [`rank::Policy`]: the two INT-based policies — delay via
//!    `Σ link_delay + Σ k·maxQ` (paper §III-C, Algorithm 1), available
//!    bandwidth via a queue-occupancy→utilization curve with bottleneck
//!    aggregation (§III-D) — plus the paper's baselines (*Nearest*,
//!    *Random*). [`snapshot`] is the one serving stack;
//!    [`shard::ShardedScheduler`] serves the same epochs from N threads.
//! 4. [`estimate`] and [`rank::Ranker`] are the **reference**: the same
//!    rule written the obvious way over the live map
//!    ([`map::NetworkMap::path`], one path per candidate). Tests hold
//!    the serving stack to it; nothing else calls it.
//!
//! Extensions the paper lists as future work are also implemented:
//! [`compute`] (compute-aware re-ranking) and [`coverage`] (probe route
//! coverage audit).

pub mod collector;
pub mod compute;
pub mod config;
pub mod coverage;
pub mod estimate;
pub mod map;
pub mod rank;
pub mod sched;
pub mod shard;
pub mod snapshot;

pub use collector::IntCollector;
pub use compute::{CompositePolicy, ComputeTracker};
pub use config::CoreConfig;
pub use estimate::{BandwidthEstimator, DelayEstimator};
pub use map::{EdgeId, EdgeState, NetNode, NetworkMap};
pub use rank::{ExcludeReason, Policy, RankOutcome, RankedServer};
pub use sched::{PathStats, SchedulerCore};
pub use shard::{EpochSlot, RankQuery, ShardedScheduler};
pub use snapshot::{
    PublishStats, SchedSnapshot, SnapshotPublisher, SnapshotScratch, SnapshotServeStats,
};
