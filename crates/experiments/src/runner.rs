//! One full scheduling experiment: workload + background traffic + policy
//! → per-task outcomes.
//!
//! Fairness (paper §IV): the workload stream and background-flow schedule
//! are generated from the experiment seed *before* the policy is applied,
//! so every policy faces byte-identical conditions.

use crate::testbed::{Testbed, TestbedConfig, SCHEDULER_NODE};
use int_apps::iperf::{IperfConfig, IperfSenderApp};
use int_apps::{TaskSubmitterApp};
use int_core::Policy;
use int_netsim::{NodeId, SimDuration, SimTime, Topology};
use int_packet::msgs::RankingKind;
use int_workload::{BackgroundScenario, BgFlow, JobSpec, TaskClass, WorkloadConfig, WorkloadGenerator};
use serde::Serialize;

/// Everything one experiment run needs.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Seed shared by workload, background, and engine streams.
    pub seed: u64,
    /// Scheduling policy under test.
    pub policy: Policy,
    /// Workload shape (task count, job kind, classes, pacing).
    pub workload: WorkloadConfig,
    /// Background congestion scenario.
    pub scenario: BackgroundScenario,
    /// Per-background-flow offered rate, bit/s.
    pub bg_rate_bps: u64,
    /// Probing interval.
    pub probe_interval: SimDuration,
    /// Extra time after the last submission before the run is cut off.
    pub drain: SimDuration,
    /// Testbed knobs (queue caps, switch rate, core config).
    pub testbed: TestbedConfig,
}

impl ExperimentConfig {
    /// The paper's standard setup for a given policy and job kind, with
    /// every stochastic stream derived from `seed`.
    pub fn paper_default(seed: u64, policy: Policy) -> ExperimentConfig {
        ExperimentConfig {
            seed,
            policy,
            workload: WorkloadConfig::default(),
            scenario: BackgroundScenario::Default,
            bg_rate_bps: 18_000_000,
            probe_interval: SimDuration::from_millis(100),
            drain: SimDuration::from_secs(60),
            testbed: TestbedConfig { seed, policy, ..TestbedConfig::default() },
        }
    }

    /// The ranking kind devices put in their queries (only meaningful for
    /// the INT policies; baselines ignore it).
    pub fn ranking_kind(&self) -> RankingKind {
        match self.policy {
            Policy::IntBandwidth => RankingKind::Bandwidth,
            _ => RankingKind::Delay,
        }
    }
}

/// One task's outcome, flattened for analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TaskOutcome {
    /// Job id.
    pub job_id: u64,
    /// Task id within the job.
    pub task_id: u64,
    /// Table I class.
    pub class: TaskClass,
    /// Submitting node (paper numbering is `submitter+1`).
    pub submitter: u32,
    /// Executing server node.
    pub server: u32,
    /// Data moved, bytes.
    pub data_bytes: u64,
    /// Transfer time (stream open → data complete at server), ms.
    pub transfer_ms: f64,
    /// Completion time (job submit → completion callback), ms.
    pub completion_ms: f64,
}

/// The result of one run.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentResult {
    /// Policy that produced it.
    pub policy: Policy,
    /// Seed it ran under.
    pub seed: u64,
    /// Completed tasks.
    pub outcomes: Vec<TaskOutcome>,
    /// Tasks that never completed within the horizon.
    pub incomplete: usize,
    /// Engine counters (drops etc.).
    pub net: int_netsim::NetStats,
}

impl ExperimentResult {
    /// Outcomes of one class.
    pub fn of_class(&self, class: TaskClass) -> Vec<&TaskOutcome> {
        self.outcomes.iter().filter(|o| o.class == class).collect()
    }

    /// Mean completion time of a class, ms.
    pub fn mean_completion_ms(&self, class: TaskClass) -> Option<f64> {
        mean(self.of_class(class).iter().map(|o| o.completion_ms))
    }

    /// Mean transfer time of a class, ms.
    pub fn mean_transfer_ms(&self, class: TaskClass) -> Option<f64> {
        mean(self.of_class(class).iter().map(|o| o.transfer_ms))
    }
}

fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        None
    } else {
        Some(v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// Run one experiment end to end.
pub fn run(cfg: &ExperimentConfig) -> ExperimentResult {
    let mut tb = Testbed::new(&TestbedConfig {
        seed: cfg.seed,
        policy: cfg.policy,
        probe_interval: cfg.probe_interval,
        int_enabled: matches!(cfg.policy, Policy::IntDelay | Policy::IntBandwidth),
        ..cfg.testbed.clone()
    });

    // --- workload (seeded identically for every policy) ---
    let mut wl_cfg = cfg.workload.clone();
    if wl_cfg.submitters.is_empty() {
        // All nodes submit; the scheduler node does too (paper §IV).
        wl_cfg.submitters = tb.hosts.iter().map(|h| h.0).collect();
    }
    let jobs = WorkloadGenerator::new(cfg.seed).generate(&wl_cfg);
    let last_submit = jobs.last().map(|j| j.submit_at_ns).unwrap_or(0);
    let horizon = SimTime(last_submit) + cfg.drain;

    // --- background traffic (seeded identically for every policy) ---
    let node_ids: Vec<u32> = tb.hosts.iter().map(|h| h.0).collect();
    let flows = cfg.scenario.generate(&node_ids, horizon.as_nanos(), cfg.bg_rate_bps, cfg.seed);
    install_background(&mut tb, &flows);

    // --- submitters: each node gets its own slice of the job stream ---
    let scheduler_ip = Topology::host_ip(tb.node(SCHEDULER_NODE));
    let ranking = cfg.ranking_kind();
    let mut submitter_apps: Vec<(NodeId, usize, usize)> = Vec::new(); // (node, app, planned)
    for &host in &tb.hosts {
        let mine: Vec<JobSpec> =
            jobs.iter().filter(|j| j.submitter == host.0).cloned().collect();
        if mine.is_empty() {
            continue;
        }
        let planned = mine.iter().map(|j| j.tasks.len()).sum();
        let app =
            tb.sim.install_app(host, Box::new(TaskSubmitterApp::new(scheduler_ip, ranking, mine)));
        submitter_apps.push((host, app, planned));
    }

    tb.sim.run_until(horizon);

    // --- harvest ---
    let mut outcomes = Vec::new();
    let mut incomplete = 0usize;
    for (node, app, planned) in submitter_apps {
        let sub = tb.sim.app::<TaskSubmitterApp>(node, app).expect("submitter app");
        let mut seen = 0usize;
        for r in &sub.records {
            seen += 1;
            match (r.transfer_time(), r.completion_time(), r.server) {
                (Some(t), Some(c), Some(server)) => outcomes.push(TaskOutcome {
                    job_id: r.job_id,
                    task_id: r.task_id,
                    class: r.class,
                    submitter: node.0,
                    server,
                    data_bytes: r.data_bytes,
                    transfer_ms: t.as_millis_f64(),
                    completion_ms: c.as_millis_f64(),
                }),
                _ => incomplete += 1,
            }
        }
        incomplete += planned.saturating_sub(seen);
    }
    outcomes.sort_by_key(|o| (o.job_id, o.task_id));

    ExperimentResult {
        policy: cfg.policy,
        seed: cfg.seed,
        outcomes,
        incomplete,
        net: tb.sim.stats(),
    }
}

/// Install one iperf sender per scheduled background flow.
pub fn install_background(tb: &mut Testbed, flows: &[BgFlow]) {
    for f in flows {
        let src = NodeId(f.src);
        let dst_ip = Topology::host_ip(NodeId(f.dst));
        tb.sim.install_app(
            src,
            Box::new(IperfSenderApp::new(IperfConfig::new(
                dst_ip,
                f.rate_bps,
                SimTime(f.start_ns),
                SimDuration::from_nanos(f.duration_ns),
            ))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use int_workload::JobKind;

    /// A small smoke run: 12 serverless tasks under each policy.
    fn small_cfg(policy: Policy, seed: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_default(seed, policy);
        cfg.workload.total_tasks = 12;
        cfg.workload.classes = vec![TaskClass::VerySmall];
        cfg.workload.interarrival_ns = (1_000_000_000, 2_000_000_000);
        // Generous drain: a 1 MB transfer whose path overlaps two offered
        // 18 Mbit/s background flows can take >30 s to squeeze through.
        cfg.drain = SimDuration::from_secs(120);
        cfg
    }

    #[test]
    fn all_policies_complete_a_small_run() {
        for policy in [Policy::IntDelay, Policy::Nearest, Policy::Random] {
            let res = run(&small_cfg(policy, 3));
            assert_eq!(res.outcomes.len(), 12, "{policy:?}: {} incomplete", res.incomplete);
            assert_eq!(res.incomplete, 0, "{policy:?}");
            assert!(res.outcomes.iter().all(|o| o.completion_ms > 0.0));
            assert!(res
                .outcomes
                .iter()
                .all(|o| o.transfer_ms > 0.0 && o.transfer_ms <= o.completion_ms));
            // Tasks never execute on their own submitter.
            assert!(res.outcomes.iter().all(|o| o.server != o.submitter), "{policy:?}");
        }
    }

    #[test]
    fn identical_seed_identical_workload_across_policies() {
        let a = run(&small_cfg(Policy::Nearest, 5));
        let b = run(&small_cfg(Policy::Random, 5));
        // Same tasks (ids, classes, sizes) even though servers differ.
        let key = |r: &ExperimentResult| {
            r.outcomes
                .iter()
                .map(|o| (o.job_id, o.task_id, o.class, o.data_bytes, o.submitter))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn nearest_always_uses_three_hop_servers() {
        let mut cfg = small_cfg(Policy::Nearest, 7);
        cfg.workload.kind = JobKind::Serverless;
        let res = run(&cfg);
        // On this topology every node's nearest neighbour is its pair
        // (1↔2, 3↔4, 5↔6, 7↔8); node ids are 0-based host indices.
        for o in &res.outcomes {
            let expected_pair = o.submitter ^ 1;
            assert_eq!(o.server, expected_pair, "submitter {} → {}", o.submitter, o.server);
        }
    }

    #[test]
    fn distributed_jobs_use_three_distinct_servers() {
        let mut cfg = small_cfg(Policy::IntDelay, 11);
        cfg.workload.kind = JobKind::Distributed;
        cfg.workload.total_tasks = 12;
        let res = run(&cfg);
        assert_eq!(res.outcomes.len(), 12);
        for chunk in res.outcomes.chunks(3) {
            let servers: std::collections::BTreeSet<u32> =
                chunk.iter().map(|o| o.server).collect();
            assert_eq!(servers.len(), 3, "{chunk:?}");
        }
    }
}
