//! The scheduler service (paper Fig. 1, node 6 in the evaluation).
//!
//! Binds the probe port (collecting INT) and the scheduler port (answering
//! `SchedRequest` queries with ranked candidate lists). The ranking policy
//! is fixed per experiment: the INT policies consult the learned map, the
//! baselines ignore it.

use int_core::rank::StaticDistances;
use int_core::{CompositePolicy, ComputeTracker, CoreConfig, ExcludeReason, Policy, SchedulerCore};
use int_netsim::{App, AppCtx};
use int_packet::msgs::ControlMsg;
use int_packet::wire::{WireDecode, WireEncode};
use int_packet::{RelayedProbe, PROBE_RELAY_UDP_PORT, PROBE_UDP_PORT, SCHEDULER_UDP_PORT};
use std::any::Any;
use std::net::Ipv4Addr;

/// Execution-time estimate the compute-aware re-ranking converts backlog
/// into queue wait with, ns: the mean Table I execution time of the
/// VerySmall class the workflow experiment draws.
const EXEC_EST_NS: u64 = 1_000_000_000;

/// Compute-aware re-ranking state: a composite policy plus the load
/// tracker it consults (fed by executor `LoadReport`s).
struct ComputeMode {
    policy: CompositePolicy,
    tracker: ComputeTracker,
}

/// The scheduler application.
pub struct SchedulerApp {
    core: SchedulerCore,
    policy: Policy,
    compute: Option<ComputeMode>,
    queries_served: u64,
    probes_received: u64,
    load_reports: u64,
    exclusions: u64,
    last_excluded: Vec<(u32, ExcludeReason)>,
}

impl SchedulerApp {
    /// Scheduler on `host_id` applying `policy` to every query.
    pub fn new(
        host_id: u32,
        policy: Policy,
        cfg: CoreConfig,
        distances: StaticDistances,
        seed: u64,
    ) -> Self {
        SchedulerApp {
            core: SchedulerCore::new(host_id, cfg, distances, seed),
            policy,
            compute: None,
            queries_served: 0,
            probes_received: 0,
            load_reports: 0,
            exclusions: 0,
            last_excluded: Vec::new(),
        }
    }

    /// Enable compute-aware re-ranking: candidate lists produced by the
    /// base [`Policy`] are post-processed by `policy` using tracked
    /// executor load (see [`ComputeTracker`]).
    pub fn set_compute(&mut self, policy: CompositePolicy) {
        self.compute = Some(ComputeMode { policy, tracker: ComputeTracker::new() });
    }

    /// Register an executor's slot count with the compute tracker (no-op
    /// unless [`SchedulerApp::set_compute`] was called).
    pub fn register_executor(&mut self, host: u32, slots: u32) {
        if let Some(c) = &mut self.compute {
            c.tracker.register(host, slots);
        }
    }

    /// `LoadReport`s ingested.
    pub fn load_reports(&self) -> u64 {
        self.load_reports
    }

    /// The scheduler core (learned map, collector stats).
    pub fn core(&self) -> &SchedulerCore {
        &self.core
    }

    /// Mutable access to the core (custom ranking calls, tuning).
    pub fn core_mut(&mut self) -> &mut SchedulerCore {
        &mut self.core
    }

    /// The scheduler's decision audit trail (disabled unless
    /// [`SchedulerApp::set_audit_enabled`] turned it on).
    pub fn audit(&self) -> &int_obs::DecisionAudit {
        self.core.audit()
    }

    /// Enable or disable per-query decision auditing.
    pub fn set_audit_enabled(&mut self, on: bool) {
        self.core.set_audit_enabled(on);
    }

    /// Pre-register candidate hosts (needed when INT probing is disabled,
    /// i.e. for the Nearest/Random baselines).
    pub fn register_hosts(&mut self, hosts: &[u32]) {
        for &h in hosts {
            self.core.register_host(h);
        }
    }

    /// Queries answered.
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// Probes ingested.
    pub fn probes_received(&self) -> u64 {
        self.probes_received
    }

    /// Total candidate exclusions across all queries served (a candidate
    /// excluded in each of N queries counts N times).
    pub fn exclusions(&self) -> u64 {
        self.exclusions
    }

    /// Candidates excluded from the most recent query, with reasons —
    /// hosts the scheduler currently presumes unreachable (origin silence)
    /// or whose telemetry was evicted (no fresh path).
    pub fn last_excluded(&self) -> &[(u32, ExcludeReason)] {
        &self.last_excluded
    }
}

impl App for SchedulerApp {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.bind_udp(PROBE_UDP_PORT);
        ctx.bind_udp(PROBE_RELAY_UDP_PORT);
        ctx.bind_udp(SCHEDULER_UDP_PORT);
    }

    fn on_udp(
        &mut self,
        ctx: &mut AppCtx<'_>,
        from: Ipv4Addr,
        from_port: u16,
        to_port: u16,
        payload: &[u8],
    ) {
        match to_port {
            PROBE_UDP_PORT => {
                self.probes_received += 1;
                self.core.on_probe(payload, ctx.now.as_nanos());
            }
            PROBE_RELAY_UDP_PORT => {
                if let Ok(r) = RelayedProbe::decode(&mut &payload[..]) {
                    self.probes_received += 1;
                    self.core
                        .collector_mut()
                        .ingest_relayed(&r.probe, r.terminal_node, r.rx_ts_ns);
                }
            }
            SCHEDULER_UDP_PORT => {
                let Ok(msg) = ControlMsg::decode(&mut &payload[..]) else { return };
                if let ControlMsg::LoadReport { host, outstanding } = msg {
                    self.load_reports += 1;
                    if let Some(c) = &mut self.compute {
                        c.tracker.set_load(host, outstanding);
                    }
                    return;
                }
                let ControlMsg::SchedRequest { requester, job_id, task_count, .. } = msg else {
                    return;
                };
                self.queries_served += 1;

                let mut outcome =
                    self.core.rank_detailed_with(requester, self.policy, ctx.now.as_nanos());
                self.exclusions += outcome.excluded.len() as u64;
                self.last_excluded = outcome.excluded;
                if let Some(c) = &mut self.compute {
                    c.policy.apply(&c.tracker, &mut outcome.ranked, EXEC_EST_NS);
                    // Optimistically count the placements this response will
                    // trigger (submitters assign task i to candidate
                    // i % len): the executor's next ground-truth LoadReport
                    // overwrites these, but without them every query issued
                    // during a multi-second transfer window would herd onto
                    // the same momentarily-idle server.
                    if !outcome.ranked.is_empty() {
                        for i in 0..task_count as usize {
                            let host = outcome.ranked[i % outcome.ranked.len()].host;
                            c.tracker.on_dispatch(host);
                        }
                    }
                }
                let candidates = outcome
                    .ranked
                    .into_iter()
                    .map(|r| int_packet::msgs::Candidate {
                        node: r.host,
                        est_delay_ns: r.est_delay_ns,
                        est_bandwidth_bps: r.est_bandwidth_bps,
                    })
                    .collect();
                let resp = ControlMsg::SchedResponse { job_id, candidates };
                ctx.send_udp(SCHEDULER_UDP_PORT, from, from_port, resp.to_bytes());
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
