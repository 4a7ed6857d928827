//! Seeded job-stream generation (paper §IV).
//!
//! "Although nodes to run background traffic and submit tasks are selected
//! randomly, we used the same order when comparing different scheduling
//! algorithms to ensure fairness" — hence everything here is a pure
//! function of the seed.

use crate::spec::{JobKind, JobSpec, TaskClass, TaskSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Parameters of a job stream.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadConfig {
    /// Total number of *tasks* (the paper runs 200 per experiment).
    pub total_tasks: usize,
    /// Serverless (1 task/job) or distributed (3 tasks/job).
    pub kind: JobKind,
    /// Nodes that may submit jobs.
    pub submitters: Vec<u32>,
    /// Classes to draw from (uniformly). Restrict to one class to run a
    /// fixed-size experiment (e.g. Fig. 9 uses medium or small only).
    pub classes: Vec<TaskClass>,
    /// Job inter-arrival time range, ns (uniform).
    pub interarrival_ns: (u64, u64),
    /// First submission time, ns (lets probes warm the network map first).
    pub start_ns: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            total_tasks: 200,
            kind: JobKind::Serverless,
            submitters: Vec::new(),
            classes: TaskClass::ALL.to_vec(),
            interarrival_ns: (2_000_000_000, 4_000_000_000),
            start_ns: 2_000_000_000,
        }
    }
}

/// Deterministic job-stream generator.
#[derive(Debug)]
pub struct WorkloadGenerator {
    rng: SmallRng,
}

impl WorkloadGenerator {
    /// Generator with its own seed (independent of other streams).
    pub fn new(seed: u64) -> Self {
        WorkloadGenerator { rng: SmallRng::seed_from_u64(seed ^ 0xC0FF_EE00_D15E_A5E5) }
    }

    /// Generate the full job stream for `cfg`.
    pub fn generate(&mut self, cfg: &WorkloadConfig) -> Vec<JobSpec> {
        assert!(!cfg.submitters.is_empty(), "no submitters configured");
        assert!(!cfg.classes.is_empty(), "no task classes configured");

        let per_job = cfg.kind.task_count();
        let n_jobs = cfg.total_tasks.div_ceil(per_job);
        let mut jobs = Vec::with_capacity(n_jobs);
        let mut t = cfg.start_ns;

        for job_id in 0..n_jobs as u64 {
            let submitter = cfg.submitters[self.rng.gen_range(0..cfg.submitters.len())];
            let class = cfg.classes[self.rng.gen_range(0..cfg.classes.len())];
            let tasks = (0..per_job as u64).map(|task_id| self.task(task_id, class)).collect();
            jobs.push(JobSpec { job_id, submitter, submit_at_ns: t, kind: cfg.kind, tasks });

            let (lo, hi) = cfg.interarrival_ns;
            t += if hi > lo { self.rng.gen_range(lo..=hi) } else { lo };
        }
        jobs
    }

    fn task(&mut self, task_id: u64, class: TaskClass) -> TaskSpec {
        let (kb_lo, kb_hi) = class.data_kb_range();
        let (ms_lo, ms_hi) = class.exec_ms_range();
        // Lower-bound VS data at 1 KB so a "transfer" always moves bytes.
        let data_kb = self.rng.gen_range(kb_lo.max(1)..=kb_hi);
        let exec_ms = self.rng.gen_range(ms_lo..=ms_hi);
        TaskSpec { task_id, data_bytes: data_kb * 1000, exec_ns: exec_ms * 1_000_000, class }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(kind: JobKind) -> WorkloadConfig {
        WorkloadConfig {
            kind,
            submitters: vec![0, 1, 2, 4, 5, 6, 7],
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn serverless_produces_200_single_task_jobs() {
        let jobs = WorkloadGenerator::new(1).generate(&cfg(JobKind::Serverless));
        assert_eq!(jobs.len(), 200);
        assert!(jobs.iter().all(|j| j.tasks.len() == 1));
        let total: usize = jobs.iter().map(|j| j.tasks.len()).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn distributed_produces_200_tasks_in_triples() {
        let jobs = WorkloadGenerator::new(1).generate(&cfg(JobKind::Distributed));
        assert_eq!(jobs.len(), 67, "ceil(200/3)");
        assert!(jobs.iter().all(|j| j.tasks.len() == 3));
    }

    #[test]
    fn all_tasks_respect_table1_ranges() {
        let jobs = WorkloadGenerator::new(3).generate(&cfg(JobKind::Serverless));
        for j in &jobs {
            for t in &j.tasks {
                let (kb_lo, kb_hi) = t.class.data_kb_range();
                let (ms_lo, ms_hi) = t.class.exec_ms_range();
                let kb = t.data_bytes / 1000;
                assert!(kb >= kb_lo.max(1) && kb <= kb_hi, "{t:?}");
                let ms = t.exec_ns / 1_000_000;
                assert!(ms >= ms_lo && ms <= ms_hi, "{t:?}");
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let a = WorkloadGenerator::new(9).generate(&cfg(JobKind::Serverless));
        let b = WorkloadGenerator::new(9).generate(&cfg(JobKind::Serverless));
        assert_eq!(a, b);
        let c = WorkloadGenerator::new(10).generate(&cfg(JobKind::Serverless));
        assert_ne!(a, c);
    }

    #[test]
    fn submit_times_are_monotone_and_spaced() {
        let jobs = WorkloadGenerator::new(5).generate(&cfg(JobKind::Serverless));
        for w in jobs.windows(2) {
            let gap = w[1].submit_at_ns - w[0].submit_at_ns;
            assert!((2_000_000_000..=4_000_000_000).contains(&gap), "gap {gap}");
        }
        assert_eq!(jobs[0].submit_at_ns, 2_000_000_000);
    }

    #[test]
    fn submitters_all_used_eventually() {
        let jobs = WorkloadGenerator::new(2).generate(&cfg(JobKind::Serverless));
        let used: std::collections::BTreeSet<u32> = jobs.iter().map(|j| j.submitter).collect();
        assert_eq!(used.len(), 7, "200 draws cover all 7 submitters");
    }

    #[test]
    fn single_class_restriction_respected() {
        let mut c = cfg(JobKind::Distributed);
        c.classes = vec![TaskClass::Medium];
        let jobs = WorkloadGenerator::new(1).generate(&c);
        assert!(jobs.iter().all(|j| j.class() == TaskClass::Medium));
    }

    #[test]
    #[should_panic(expected = "no submitters")]
    fn empty_submitters_panics() {
        let mut c = cfg(JobKind::Serverless);
        c.submitters.clear();
        WorkloadGenerator::new(1).generate(&c);
    }
}
