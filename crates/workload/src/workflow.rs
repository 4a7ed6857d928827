//! DAG workflow generation (ROADMAP item 4).
//!
//! The paper's evaluation submits independent 1-task and 3-task jobs; a
//! workflow generalizes that to a task DAG with data dependencies,
//! per-task deadlines, and a release time. A task becomes *ready* when
//! every parent has completed; the submitter re-queries the scheduler for
//! each ready stage, so placement reacts to the network and load as the
//! workflow unfolds.
//!
//! Like [`crate::gen::WorkloadGenerator`], everything is a pure function
//! of the seed so different scheduling policies face byte-identical
//! workflow streams.

use crate::spec::TaskClass;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One task inside a workflow DAG.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkflowTaskSpec {
    /// Task id, unique within the workflow.
    pub task_id: u64,
    /// Input data to transfer, bytes.
    pub data_bytes: u64,
    /// Execution time once the data has arrived, ns.
    pub exec_ns: u64,
    /// The Table I class this task was drawn from.
    pub class: TaskClass,
    /// Absolute completion deadline, ns since simulation epoch (0 = none).
    pub deadline_ns: u64,
    /// Task ids that must complete before this task is released.
    pub parents: Vec<u64>,
}

/// One workflow: a task DAG released by a submitter at a point in time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkflowSpec {
    /// Globally unique workflow id.
    pub workflow_id: u64,
    /// Node that submits the workflow.
    pub submitter: u32,
    /// Absolute release time of the root tasks, ns since epoch.
    pub release_at_ns: u64,
    /// The tasks; parents always precede children in this list.
    pub tasks: Vec<WorkflowTaskSpec>,
}

/// The DAG shapes the generator draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DagShape {
    /// `0 → 1 → 2`: strictly sequential.
    Chain,
    /// `0 → {1, 2, 3}`: one producer fanning out to three consumers.
    FanOut,
    /// `0 → {1, 2} → 3`: fork then join.
    Diamond,
}

impl DagShape {
    /// All shapes, generation order.
    pub const ALL: [DagShape; 3] = [DagShape::Chain, DagShape::FanOut, DagShape::Diamond];

    /// `(task, parents)` adjacency of the shape.
    fn edges(self) -> &'static [(u64, &'static [u64])] {
        match self {
            DagShape::Chain => &[(0, &[]), (1, &[0]), (2, &[1])],
            DagShape::FanOut => &[(0, &[]), (1, &[0]), (2, &[0]), (3, &[0])],
            DagShape::Diamond => &[(0, &[]), (1, &[0]), (2, &[0]), (3, &[1, 2])],
        }
    }
}

/// Parameters of a workflow stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkflowConfig {
    /// Number of workflows to generate.
    pub total_workflows: usize,
    /// Nodes that may submit workflows.
    pub submitters: Vec<u32>,
    /// Classes tasks are drawn from (uniformly).
    pub classes: Vec<TaskClass>,
    /// DAG shapes drawn from (uniformly).
    pub shapes: Vec<DagShape>,
    /// Workflow inter-release time range, ns (uniform).
    pub interarrival_ns: (u64, u64),
    /// First release time, ns (lets probes warm the network map first).
    pub start_ns: u64,
    /// Deadline slack: each task's deadline is its critical-path budget
    /// (transfer + execution along the longest path from a root) scaled by
    /// `slack_pct / 100`. 100 = exactly the uncontended estimate (very
    /// tight); 300 = 3× slack.
    pub slack_pct: u64,
    /// Transfer-time budget used in the deadline estimate, ns per byte
    /// (e.g. 400 ns/byte ≈ 20 Mbit/s, the testbed bottleneck).
    pub transfer_ns_per_byte: u64,
    /// Fixed per-task budget for scheduling overhead (query round trip,
    /// stream setup, completion callback), ns. Without it the deadline of
    /// a near-zero-size task would be unmeetable at any slack.
    pub stage_overhead_ns: u64,
}

impl Default for WorkflowConfig {
    fn default() -> Self {
        WorkflowConfig {
            total_workflows: 20,
            submitters: Vec::new(),
            classes: vec![TaskClass::VerySmall, TaskClass::Small],
            shapes: DagShape::ALL.to_vec(),
            interarrival_ns: (2_000_000_000, 6_000_000_000),
            start_ns: 2_000_000_000,
            slack_pct: 250,
            transfer_ns_per_byte: 400,
            stage_overhead_ns: 200_000_000,
        }
    }
}

/// Deterministic workflow-stream generator.
#[derive(Debug)]
pub struct WorkflowGenerator {
    rng: SmallRng,
}

impl WorkflowGenerator {
    /// Generator with its own seed (independent of the job stream).
    pub fn new(seed: u64) -> Self {
        WorkflowGenerator { rng: SmallRng::seed_from_u64(seed ^ 0xDA60_F10E_5EED_BEEF) }
    }

    /// Generate the full workflow stream for `cfg`.
    pub fn generate(&mut self, cfg: &WorkflowConfig) -> Vec<WorkflowSpec> {
        assert!(!cfg.submitters.is_empty(), "no submitters configured");
        assert!(!cfg.classes.is_empty(), "no task classes configured");
        assert!(!cfg.shapes.is_empty(), "no DAG shapes configured");

        let mut out = Vec::with_capacity(cfg.total_workflows);
        let mut release = cfg.start_ns;
        for workflow_id in 0..cfg.total_workflows as u64 {
            let submitter = cfg.submitters[self.rng.gen_range(0..cfg.submitters.len())];
            let shape = cfg.shapes[self.rng.gen_range(0..cfg.shapes.len())];

            let mut tasks: Vec<WorkflowTaskSpec> = Vec::new();
            for &(task_id, parents) in shape.edges() {
                let class = cfg.classes[self.rng.gen_range(0..cfg.classes.len())];
                let (kb_lo, kb_hi) = class.data_kb_range();
                let (ms_lo, ms_hi) = class.exec_ms_range();
                let data_bytes = self.rng.gen_range(kb_lo.max(1)..=kb_hi) * 1000;
                let exec_ns = self.rng.gen_range(ms_lo..=ms_hi) * 1_000_000;

                // Critical-path budget: this task's own transfer + exec on
                // top of the slowest parent's budget (tasks store it inside
                // deadline_ns until the slack scaling below).
                let own_ns =
                    cfg.stage_overhead_ns + data_bytes * cfg.transfer_ns_per_byte + exec_ns;
                let parent_budget = parents
                    .iter()
                    .map(|&p| tasks[p as usize].deadline_ns)
                    .max()
                    .unwrap_or(0);
                tasks.push(WorkflowTaskSpec {
                    task_id,
                    data_bytes,
                    exec_ns,
                    class,
                    deadline_ns: parent_budget + own_ns, // budget, scaled below
                    parents: parents.to_vec(),
                });
            }
            // Convert accumulated budgets into absolute deadlines.
            for t in &mut tasks {
                t.deadline_ns = release + t.deadline_ns * cfg.slack_pct / 100;
            }

            out.push(WorkflowSpec { workflow_id, submitter, release_at_ns: release, tasks });
            let (lo, hi) = cfg.interarrival_ns;
            release += if hi > lo { self.rng.gen_range(lo..=hi) } else { lo };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WorkflowConfig {
        WorkflowConfig { submitters: vec![0, 1, 2, 3], ..WorkflowConfig::default() }
    }

    #[test]
    fn parents_precede_children_and_exist() {
        let wfs = WorkflowGenerator::new(1).generate(&cfg());
        assert_eq!(wfs.len(), 20);
        for wf in &wfs {
            assert!(wf.tasks.iter().any(|t| t.parents.is_empty()), "a root task exists");
            for (i, t) in wf.tasks.iter().enumerate() {
                assert_eq!(t.task_id, i as u64, "ids are list positions");
                for &p in &t.parents {
                    assert!(p < t.task_id, "parent {p} precedes task {}", t.task_id);
                }
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let a = WorkflowGenerator::new(9).generate(&cfg());
        let b = WorkflowGenerator::new(9).generate(&cfg());
        assert_eq!(a, b);
        let c = WorkflowGenerator::new(10).generate(&cfg());
        assert_ne!(a, c);
    }

    #[test]
    fn deadlines_grow_along_dependency_paths() {
        let wfs = WorkflowGenerator::new(3).generate(&cfg());
        for wf in &wfs {
            for t in &wf.tasks {
                assert!(t.deadline_ns > wf.release_at_ns, "deadline after release");
                for &p in &t.parents {
                    assert!(
                        t.deadline_ns > wf.tasks[p as usize].deadline_ns,
                        "child deadline after parent's"
                    );
                }
            }
        }
    }

    #[test]
    fn tasks_respect_table1_ranges() {
        let wfs = WorkflowGenerator::new(5).generate(&cfg());
        for wf in &wfs {
            for t in &wf.tasks {
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
    fn slack_scales_deadlines() {
        let mut tight = cfg();
        tight.slack_pct = 100;
        let mut loose = cfg();
        loose.slack_pct = 400;
        let a = WorkflowGenerator::new(4).generate(&tight);
        let b = WorkflowGenerator::new(4).generate(&loose);
        for (wa, wb) in a.iter().zip(&b) {
            for (ta, tb) in wa.tasks.iter().zip(&wb.tasks) {
                let slack_a = ta.deadline_ns - wa.release_at_ns;
                let slack_b = tb.deadline_ns - wb.release_at_ns;
                assert_eq!(slack_b, slack_a * 4, "same draw, 4× slack");
            }
        }
    }

    #[test]
    fn release_times_are_monotone() {
        let wfs = WorkflowGenerator::new(7).generate(&cfg());
        for w in wfs.windows(2) {
            assert!(w[1].release_at_ns > w[0].release_at_ns);
        }
    }
}
