//! # int-edge-sched
//!
//! A complete Rust implementation of **"INT Based Network-Aware Task
//! Scheduling for Edge Computing"** (Shrestha, Cziva, Arslan — IPDPSW
//! 2021): the scheduler itself, every substrate it needs (a P4-style
//! programmable data plane, a packet-level network simulator, byte-level
//! INT packet formats, workload generation), and the full experiment
//! harness that regenerates the paper's tables and figures.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Role |
//! |---|---|---|
//! | [`packet`] | `int-packet` | Ethernet/IPv4/UDP/TCP/Geneve/INT wire formats |
//! | [`dataplane`] | `int-dataplane` | the P4-like INT switch program, its LPM table and register |
//! | [`netsim`] | `int-netsim` | discrete-event simulator: queues, links, TCP-Reno, apps |
//! | [`core`] | `int-core` | **the paper's contribution**: collector, map, estimators, rankers |
//! | [`apps`] | `int-apps` | probes, scheduler service, task submit/execute, iperf, ping |
//! | [`workload`] | `int-workload` | Table I task classes, job streams, congestion scenarios |
//! | [`experiments`] | `int-experiments` | per-figure reproduction harness (`repro` binary) |
//!
//! ## Quickstart
//!
//! ```
//! use int_edge_sched::prelude::*;
//!
//! // A probe from server 1 traversed switch 10, whose egress was congested.
//! let mut collector = IntCollector::new(6);
//! let mut probe = ProbePayload::new(1, 0, 0);
//! probe.int.push(IntRecord {
//!     switch_id: 10, ingress_port: 0, egress_port: 1,
//!     max_qlen_pkts: 25, qlen_at_probe_pkts: 20,
//!     link_latency_ns: 10_000_000, egress_ts_ns: 11_000_000,
//! });
//! collector.ingest(&probe, 21_000_000);
//!
//! // Estimating host 1 → scheduler crosses switch 10's congested egress.
//! let est = DelayEstimator::new(CoreConfig::default());
//! let d = est
//!     .estimate(collector.map(), NetNode::Host(1), NetNode::Host(6), 21_000_000)
//!     .expect("path learned from the probe");
//! assert_eq!(d.hop_delay_ns, 25 * 20_000_000, "k · maxQ visible in the estimate");
//! ```
//!
//! Run the paper's experiments with the bundled binary:
//!
//! ```text
//! cargo run --release -p int-experiments --bin repro -- all --scale 0.25
//! ```

pub use int_apps as apps;
pub use int_core as core;
pub use int_dataplane as dataplane;
pub use int_experiments as experiments;
pub use int_netsim as netsim;
pub use int_packet as packet;
pub use int_workload as workload;

/// The most commonly used types, one `use` away.
pub mod prelude {
    pub use int_apps::{
        EchoResponderApp, IperfSenderApp, PingApp, ProbeSenderApp, SchedulerApp,
        TaskExecutorApp, TaskSubmitterApp, UdpSinkApp,
    };
    pub use int_core::{
        BandwidthEstimator, CoreConfig, DelayEstimator, IntCollector, NetNode, NetworkMap,
        Policy, RankedServer, SchedulerCore,
    };
    pub use int_dataplane::{DataPlaneProgram, Frame, IntProgramConfig, IntTelemetryProgram};
    pub use int_netsim::{
        App, AppCtx, LinkParams, NodeId, SimConfig, SimDuration, SimTime, Simulator, TcpEvent,
        Topology,
    };
    pub use int_packet::int::IntRecord;
    pub use int_packet::{ProbePayload, PROBE_UDP_PORT, SCHEDULER_UDP_PORT, TASK_UDP_PORT};
    pub use int_workload::{
        BackgroundScenario, JobKind, JobSpec, TaskClass, TaskSpec, WorkloadConfig,
        WorkloadGenerator,
    };
}
