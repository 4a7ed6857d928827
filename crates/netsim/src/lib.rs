//! # int-netsim
//!
//! A packet-level discrete-event network simulator — the substrate standing
//! in for the paper's Mininet + BMv2 emulation testbed.
//!
//! * [`topology`] — hosts, P4 switches, links (bandwidth / propagation
//!   delay / drop-tail queue capacity),
//! * [`engine`] — the event loop: serialization, propagation, queuing,
//!   data-plane program invocation at ingress / enqueue / egress,
//! * [`routing`] — shortest-path route computation and installation,
//!   plus structural O(1) routing for giant Clos fabrics,
//! * [`domain`] / [`par`] — latency-based domain partitioning and the
//!   conservative parallel driver over it (byte-identical artifacts to
//!   the single-thread oracle; see DESIGN.md §5.9),
//! * [`fault`] — scheduled link/switch failures and probabilistic frame
//!   loss, executed deterministically by the engine,
//! * [`tcp`] — a TCP-Reno-style reliable transport for task transfers,
//! * [`app`] — the application framework (UDP, timers, TCP) simulated
//!   programs run on,
//! * [`queue`] / [`stats`] — drop-tail queues and ground-truth counters,
//! * [`time`] / [`event`] — nanosecond simulated time and the
//!   deterministic event queue.
//!
//! Determinism: all randomness flows from [`SimConfig::seed`]; equal seeds
//! replay identical packet-level schedules, which is how the experiment
//! harness guarantees each scheduling policy faces the *same* background
//! traffic (paper §IV).

pub mod app;
pub mod domain;
pub mod engine;
pub mod event;
pub mod fault;
pub mod par;
pub mod pool;
pub mod queue;
pub mod routing;
pub mod stats;
pub mod tcp;
pub mod time;
pub mod topology;
pub mod trace;

pub use app::{App, AppCtx, AppOp};
pub use domain::DomainPartition;
pub use engine::{SimConfig, Simulator};
pub use int_dataplane::EcmpSelect;
pub use event::{ConnId, Event, EventQueue};
pub use fault::{FaultAction, FaultPlan, FaultState};
pub use par::ParSim;
pub use pool::{BufPool, PoolStats};
pub use queue::{DropTailQueue, QueueStats};
pub use routing::{ClosNodeKind, ClosRoutes, RouteTable, Routes};
pub use stats::NetStats;
pub use tcp::{TcpEvent, TcpHost};
pub use time::{SimDuration, SimTime};
pub use trace::{TrafficAccountant, TrafficClass};
pub use topology::{
    ClosParams, Fabric, LinkId, LinkParams, NodeId, NodeKind, PortId, Topology,
};
