//! The five named workloads and their shapes.

use crate::ctl::{self, CtlShape, LatencyOf, OpsOf};
use crate::des::{self, FabricShape, TestbedShape};
use crate::gen::{QueryMix, CLOS_512, SUSTAINED};
use crate::trace::Tracer;
use int_netsim::SimDuration;
use std::collections::BTreeMap;

/// Per-layer numbers of one traced repetition, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one repetition of a workload measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Time to build the fixtures, before the timed region.
    pub setup_s: f64,
    /// Time spent generating inputs (outside every timed span).
    pub gen_s: f64,
    /// Time inside the program's calls.
    pub program_s: f64,
    /// Operations the throughput is over (events, queries or probes).
    pub ops: u64,
    /// One sample per unit a caller waits for.
    pub latency_ms: Vec<f64>,
    /// FNV-1a digest of the program's outputs; repeats for a seed.
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// What was actually run, computed from the run itself.
    pub shape: Vec<(&'static str, u64)>,
    /// Empty unless traced.
    pub layers: Layers,
}

/// Full size, or a few rounds / virtual seconds for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    DesTestbed,
    DesFabric,
    CtlChurn,
    CtlWarm,
    CtlIngest,
}

/// Read shards: both cores of the reference box, never more.
pub fn shards() -> usize {
    int_experiments::report::host_cores().min(2)
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::DesTestbed,
        Workload::DesFabric,
        Workload::CtlChurn,
        Workload::CtlWarm,
        Workload::CtlIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DesTestbed => "des_testbed",
            Workload::DesFabric => "des_fabric",
            Workload::CtlChurn => "ctl_churn",
            Workload::CtlWarm => "ctl_warm",
            Workload::CtlIngest => "ctl_ingest",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; `BENCHMARK.json` carries the same).
    pub fn why(self) -> &'static str {
        match self {
            Workload::DesTestbed => "paper testbed via runner::run (8 hosts, 12-switch ring, probing, 18 Mbit/s background, TCP tasks, in-sim scheduler): shallow event queue, per-frame work dominates",
            Workload::DesFabric => "giant::run on a 2000-host Clos with rearming timers, metrics on and per-second export: deep timing wheel, no TCP or scheduler, so queue and export costs show",
            Workload::CtlChurn => "ShardedScheduler under churn: every round re-probes, publishes and serves, with a silence/eviction/recovery window; each epoch empties the path caches, so SSSP and path extraction dominate",
            Workload::CtlWarm => "same fabric and query mix served from one published epoch: the read path with the path cache hitting; a change aimed at per-epoch invalidation must leave it unchanged",
            Workload::CtlIngest => "write path on the 512-switch shape: 960 probes per round arrive as wire bytes, are decoded, ingested, published and answered; every edge is dirty every epoch, so ingest and publish dominate",
        }
    }

    /// What `ops_per_s` counts on this workload.
    pub fn op(self) -> &'static str {
        match self {
            Workload::DesTestbed | Workload::DesFabric => "simulated events",
            Workload::CtlChurn | Workload::CtlWarm => "rank queries",
            Workload::CtlIngest => "probes",
        }
    }

    /// What one `latency_ms` sample times on this workload.
    pub fn wait(self) -> &'static str {
        match self {
            Workload::DesTestbed => "one runner::run call, per million events simulated",
            Workload::DesFabric => "one giant::run call, per million events simulated",
            Workload::CtlChurn | Workload::CtlWarm => "one serve_batch call",
            Workload::CtlIngest => "one round, first probe byte to ranked answer",
        }
    }

    /// The control-plane shape, for the workloads that have one.
    pub fn ctl_shape(self, scale: Scale) -> Option<CtlShape> {
        let full = scale == Scale::Full;
        let churn = CtlShape {
            fabric: SUSTAINED,
            rounds: if full { 160 } else { 12 },
            queries_per_round: if full { 128 } else { 66 },
            mix: QueryMix::Cycle,
            ingest: true,
            wire: false,
            // Long enough at full size for origin silence (3 s), eviction
            // (5 s, a topology change and so a full rebuild) and recovery.
            silent: Some(if full { (40, 110) } else { (3, 6) }),
            shards: shards(),
            warm_batches: 0,
            latency: LatencyOf::Batch,
            ops: OpsOf::Queries,
        };
        match self {
            Workload::CtlChurn => Some(churn),
            Workload::CtlWarm => Some(CtlShape {
                rounds: if full { 120 } else { 4 },
                queries_per_round: if full { 320 } else { 64 },
                ingest: false,
                silent: None,
                warm_batches: 2,
                ..churn
            }),
            Workload::CtlIngest => Some(CtlShape {
                fabric: CLOS_512,
                rounds: if full { 500 } else { 4 },
                queries_per_round: 1,
                mix: QueryMix::DelayOnly,
                wire: true,
                silent: None,
                shards: 1,
                latency: LatencyOf::Round,
                ops: OpsOf::Probes,
                ..churn
            }),
            Workload::DesTestbed | Workload::DesFabric => None,
        }
    }

    /// Run one repetition; traced when a tracer is given.
    pub fn run(self, seed: u64, scale: Scale, tracer: Option<&mut Tracer>) -> std::io::Result<Rep> {
        let full = scale == Scale::Full;
        match self {
            Workload::DesTestbed => {
                let shape = TestbedShape {
                    total_tasks: if full { 30 } else { 2 },
                    drain: SimDuration::from_secs(if full { 30 } else { 15 }),
                };
                Ok(des::run_testbed(seed, &shape, tracer))
            }
            Workload::DesFabric => {
                let shape = if full {
                    FabricShape {
                        spines: 16,
                        leaves: 100,
                        hosts_per_leaf: 20,
                        duration: SimDuration::from_secs(15),
                    }
                } else {
                    FabricShape {
                        spines: 2,
                        leaves: 4,
                        hosts_per_leaf: 2,
                        duration: SimDuration::from_secs(2),
                    }
                };
                des::run_fabric(seed, &shape, tracer)
            }
            _ => Ok(ctl::run(
                seed,
                &self.ctl_shape(scale).expect("control-plane workload"),
                tracer,
            )),
        }
    }
}
