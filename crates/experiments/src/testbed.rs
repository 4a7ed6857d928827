//! The evaluation testbed: a stand-in for the paper's Fig. 4 topology.
//!
//! The figure itself is not machine-readable, but the text fixes every
//! structural property: 8 nodes connected via 12 switches, all links
//! 10 ms, nearest host pairs exactly 3 hops apart (e.g. nodes 7 and 8),
//! node 6 is the scheduler, and the effective bottleneck rate is
//! ~20 Mbit/s (BMv2 processing). We realize that as a ring of 12 switches
//! with the 8 hosts attached at ring positions `0,1,3,4,6,7,9,10`:
//! consecutive host pairs (1,2), (3,4), (5,6), (7,8) sit on adjacent ring
//! switches and are therefore each other's nearest nodes at 3 hops.

use int_apps::{
    EchoResponderApp, ExecutorConfig, ProbeRelayApp, ProbeSenderApp, RunQueueOrder, SchedulerApp,
    TaskExecutorApp, UdpSinkApp,
};
use int_core::rank::StaticDistances;
use int_core::{CompositePolicy, CoreConfig, Policy};
use int_netsim::{
    LinkParams, NodeId, SimConfig, SimDuration, Simulator, Topology,
};

/// Number of edge nodes (paper: 8).
pub const NUM_NODES: usize = 8;
/// Number of switches (paper: 12).
pub const NUM_SWITCHES: usize = 12;
/// Paper node number of the scheduler (1-based, paper: node 6).
pub const SCHEDULER_NODE: usize = 6;
/// Ring positions the hosts attach to.
const HOST_POSITIONS: [usize; NUM_NODES] = [0, 1, 3, 4, 6, 7, 9, 10];
/// Egress queue capacity of every link, packets.
const QUEUE_CAP_PKTS: usize = 128;

/// The constructed testbed: simulator + node handles.
pub struct Testbed {
    /// The simulator, with switches, probes, scheduler, executors, sinks,
    /// and echo responders installed.
    pub sim: Simulator,
    /// `hosts[i]` is paper node `i+1`.
    pub hosts: Vec<NodeId>,
    /// The ring switches in order.
    pub switches: Vec<NodeId>,
    /// The scheduler's node.
    pub scheduler: NodeId,
    /// App index of the scheduler app (for state inspection).
    pub scheduler_app: usize,
    /// App index of each host's task executor.
    pub executor_app: Vec<usize>,
}

/// Who probes whom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeMode {
    /// The paper's scheme: every node probes only the scheduler. Directed
    /// links on no node→scheduler shortest path are never measured — kept
    /// as the probe-coverage ablation.
    SchedulerOnly,
    /// Every node probes every other node each interval; terminals relay
    /// the harvested INT to the scheduler. This realizes the paper's
    /// "probe route optimization" future work and gives the map
    /// task-direction coverage. Default.
    AllPairs,
}

/// Testbed construction parameters.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Master seed (drives every random stream).
    pub seed: u64,
    /// Scheduling policy the scheduler applies.
    pub policy: Policy,
    /// Probing interval (paper default 100 ms; Fig. 9 sweeps it).
    pub probe_interval: SimDuration,
    /// Scheduler-core configuration.
    pub core: CoreConfig,
    /// Disable INT entirely (baselines don't need it, and this models
    /// their zero-telemetry overhead faithfully).
    pub int_enabled: bool,
    /// Probe coverage scheme.
    pub probe_mode: ProbeMode,
    /// Parallel execution slots per executor (default: effectively
    /// unlimited, the paper's network-isolated evaluation).
    pub executor_slots: u32,
    /// Run-queue discipline once executor slots are all busy.
    pub executor_order: RunQueueOrder,
    /// Executors push `LoadReport`s to the scheduler when their
    /// outstanding count changes.
    pub executor_report_load: bool,
    /// Compute-aware composite re-ranking at the scheduler (the workflow
    /// experiment's policy axis); `None` leaves the base policy's order.
    pub compute_policy: Option<CompositePolicy>,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            seed: 1,
            policy: Policy::IntDelay,
            probe_interval: ProbeSenderApp::DEFAULT_INTERVAL,
            core: CoreConfig::default(),
            int_enabled: true,
            probe_mode: ProbeMode::AllPairs,
            executor_slots: u32::MAX,
            executor_order: RunQueueOrder::Fifo,
            executor_report_load: false,
            compute_policy: None,
        }
    }
}

/// Build the Fig. 4 stand-in topology only (no apps).
pub fn build_topology() -> (Topology, Vec<NodeId>, Vec<NodeId>) {
    let mut t = Topology::new();
    let hosts: Vec<NodeId> = (1..=NUM_NODES).map(|i| t.add_host(format!("node{i}"))).collect();
    let switches: Vec<NodeId> = (0..NUM_SWITCHES).map(|i| t.add_switch(format!("sw{i}"))).collect();

    // Links are fast; the switch egress ceiling (`SimConfig`'s default
    // 20 Mbit/s) models the BMv2 bottleneck.
    let params = LinkParams {
        bandwidth_bps: 1_000_000_000,
        delay: SimDuration::from_millis(10),
        queue_cap_pkts: QUEUE_CAP_PKTS,
    };
    for i in 0..NUM_SWITCHES {
        t.add_link(switches[i], switches[(i + 1) % NUM_SWITCHES], params);
    }
    for (host, &pos) in hosts.iter().zip(&HOST_POSITIONS) {
        t.add_link(*host, switches[pos], params);
    }
    (t, hosts, switches)
}

impl Testbed {
    /// Build the testbed and install the standard applications:
    /// per-node probes (except the scheduler), the scheduler service,
    /// task executors, iperf sinks, and echo responders everywhere.
    pub fn new(cfg: &TestbedConfig) -> Testbed {
        let (topo, hosts, switches) = build_topology();

        // Precompute static hop counts for the Nearest baseline, exactly
        // "ahead of time" as the paper assumes.
        let routes = int_netsim::RouteTable::compute(&topo);
        let mut distances = StaticDistances::new();
        for (i, &a) in hosts.iter().enumerate() {
            for &b in &hosts[i + 1..] {
                if let Some(h) = routes.hop_count(a, b) {
                    distances.set(a.0, b.0, h as u32);
                }
            }
        }

        let sim_cfg = SimConfig {
            seed: cfg.seed,
            int_enabled: cfg.int_enabled,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(topo, sim_cfg);

        let scheduler = hosts[SCHEDULER_NODE - 1];
        let scheduler_ip = Topology::host_ip(scheduler);

        // Scale the failure-detection horizons with the probing interval
        // (same spirit as Fig. 9's staleness scaling): at long intervals the
        // defaults would read every healthy link as dead. The defaults win at
        // the paper's 100 ms interval.
        let mut core = cfg.core.clone();
        let iv_ns = cfg.probe_interval.as_nanos();
        core.origin_silence_ns = core.origin_silence_ns.max(5 * iv_ns);
        core.eviction_horizon_ns = core.eviction_horizon_ns.max(10 * iv_ns);

        let scheduler_app = sim.install_app(
            scheduler,
            Box::new(SchedulerApp::new(
                scheduler.0,
                cfg.policy,
                core,
                distances,
                cfg.seed ^ 0x5EED_0F00,
            )),
        );

        let mut executor_app = Vec::with_capacity(hosts.len());
        for &h in &hosts {
            if cfg.int_enabled {
                match cfg.probe_mode {
                    ProbeMode::SchedulerOnly => {
                        if h != scheduler {
                            sim.install_app(
                                h,
                                Box::new(ProbeSenderApp::new(scheduler_ip, cfg.probe_interval)),
                            );
                        }
                    }
                    ProbeMode::AllPairs => {
                        let targets: Vec<_> = hosts
                            .iter()
                            .filter(|&&other| other != h)
                            .map(|&other| Topology::host_ip(other))
                            .collect();
                        sim.install_app(
                            h,
                            Box::new(ProbeSenderApp::new_multi(targets, cfg.probe_interval)),
                        );
                        if h != scheduler {
                            sim.install_app(h, Box::new(ProbeRelayApp::new(scheduler_ip)));
                        }
                    }
                }
            }
            let exec_cfg = ExecutorConfig {
                slots: cfg.executor_slots,
                order: cfg.executor_order,
                report_load_to: cfg.executor_report_load.then_some(scheduler_ip),
            };
            let exec = sim.install_app(h, Box::new(TaskExecutorApp::with_config(exec_cfg)));
            executor_app.push(exec);
            sim.install_app(h, Box::new(UdpSinkApp::new(int_apps::iperf::IPERF_UDP_PORT)));
            sim.install_app(h, Box::new(EchoResponderApp::new()));
        }

        // Pre-register every host as a candidate: the baselines run with
        // INT disabled and would otherwise never learn the fleet.
        let host_ids: Vec<u32> = hosts.iter().map(|h| h.0).collect();
        let sched = sim
            .app_mut::<SchedulerApp>(scheduler, scheduler_app)
            .expect("scheduler app just installed");
        sched.register_hosts(&host_ids);
        if let Some(composite) = cfg.compute_policy {
            sched.set_compute(composite);
            for &h in &host_ids {
                sched.register_executor(h, cfg.executor_slots);
            }
        }

        Testbed { sim, hosts, switches, scheduler, scheduler_app, executor_app }
    }

    /// Node handle for a paper node number (1-based).
    pub fn node(&self, paper_number: usize) -> NodeId {
        assert!((1..=NUM_NODES).contains(&paper_number), "node {paper_number}");
        self.hosts[paper_number - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_matches_paper_text() {
        let (t, hosts, switches) = build_topology();
        assert_eq!(hosts.len(), 8);
        assert_eq!(switches.len(), 12);
        assert_eq!(t.links.len(), 20, "12 ring + 8 host links");

        let routes = int_netsim::RouteTable::compute(&t);
        // Nearest pairs are exactly 3 hops: (1,2),(3,4),(5,6),(7,8).
        for pair in [(0, 1), (2, 3), (4, 5), (6, 7)] {
            assert_eq!(routes.hop_count(hosts[pair.0], hosts[pair.1]), Some(3), "{pair:?}");
        }
        // And nothing is closer than 3 hops.
        for (i, &a) in hosts.iter().enumerate() {
            for &b in &hosts[i + 1..] {
                assert!(routes.hop_count(a, b).unwrap() >= 3);
            }
        }
        // Node 7 and 8's nearest node is each other (paper's example).
        let h7 = hosts[6];
        let nearest_to_h7 = hosts
            .iter()
            .filter(|&&b| b != h7)
            .min_by_key(|&&b| routes.hop_count(h7, b).unwrap())
            .copied()
            .unwrap();
        assert_eq!(nearest_to_h7, hosts[7]);
    }

    /// The simulator memoizes host egress ports at build time (PR 4); the
    /// memo must answer exactly as a fresh `RouteTable` for every host
    /// pair on the 12-switch ring — a divergence would silently reroute
    /// traffic at the first hop.
    #[test]
    fn host_uplink_memo_matches_route_table() {
        let (t, hosts, _switches) = build_topology();
        let routes = int_netsim::RouteTable::compute(&t);
        let sim = Simulator::new(t.clone(), SimConfig::default());
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                assert_eq!(
                    sim.host_uplink_port(a, Topology::host_ip(b)),
                    routes.egress_port(&t, a, b).expect("ring is connected"),
                    "memoized uplink for {a:?} -> {b:?}"
                );
            }
        }
    }

    #[test]
    fn testbed_builds_and_probes_reach_scheduler() {
        let mut tb = Testbed::new(&TestbedConfig::default());
        tb.sim.run_until(int_netsim::SimTime::ZERO + SimDuration::from_secs(2));
        let app = tb
            .sim
            .app::<SchedulerApp>(tb.scheduler, tb.scheduler_app)
            .expect("scheduler app");
        assert!(app.probes_received() > 50, "7 probers at 10 Hz for 2 s");
        // The learned map knows every host and a good chunk of the ring.
        let map = app.core().collector().map();
        assert_eq!(map.hosts().count(), 8);
        assert!(map.switches().count() >= 8, "most switches discovered");
    }

    #[test]
    fn scheduler_is_paper_node_6() {
        let tb = Testbed::new(&TestbedConfig::default());
        assert_eq!(tb.scheduler, tb.node(6));
    }
}
