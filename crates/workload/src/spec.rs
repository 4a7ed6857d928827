//! Task and job specifications (paper Table I).

use serde::Serialize;
use std::fmt;

/// The four workload size classes of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum TaskClass {
    /// Very small: 0–1000 KB, 0–2000 ms.
    VerySmall,
    /// Small: 1500–2500 KB, 2500–4500 ms.
    Small,
    /// Medium: 3000–4000 KB, 5000–7000 ms.
    Medium,
    /// Large: 4500–5500 KB, 7500–9500 ms.
    Large,
}

impl TaskClass {
    /// All classes in Table I order.
    pub const ALL: [TaskClass; 4] =
        [TaskClass::VerySmall, TaskClass::Small, TaskClass::Medium, TaskClass::Large];

    /// Inclusive data-size range in KB (Table I, column 2).
    pub fn data_kb_range(self) -> (u64, u64) {
        match self {
            TaskClass::VerySmall => (0, 1000),
            TaskClass::Small => (1500, 2500),
            TaskClass::Medium => (3000, 4000),
            TaskClass::Large => (4500, 5500),
        }
    }

    /// Inclusive execution-time range in ms (Table I, column 3).
    pub fn exec_ms_range(self) -> (u64, u64) {
        match self {
            TaskClass::VerySmall => (0, 2000),
            TaskClass::Small => (2500, 4500),
            TaskClass::Medium => (5000, 7000),
            TaskClass::Large => (7500, 9500),
        }
    }

    /// Short label as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            TaskClass::VerySmall => "VS",
            TaskClass::Small => "S",
            TaskClass::Medium => "M",
            TaskClass::Large => "L",
        }
    }
}

impl fmt::Display for TaskClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How many tasks a job fans out to (paper §IV: serverless jobs submit one
/// task, distributed jobs submit three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum JobKind {
    /// Function-as-a-Service style: one task.
    Serverless,
    /// Distributed/federated style: three parallel tasks.
    Distributed,
}

impl JobKind {
    /// Tasks per job.
    pub fn task_count(self) -> usize {
        match self {
            JobKind::Serverless => 1,
            JobKind::Distributed => 3,
        }
    }
}

/// One task to be offloaded: how much data to move and how long it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TaskSpec {
    /// Task index within its job.
    pub task_id: u64,
    /// Input data to transfer, bytes.
    pub data_bytes: u64,
    /// Execution time once the data has arrived, ns.
    pub exec_ns: u64,
    /// The Table I class this task was drawn from.
    pub class: TaskClass,
}

/// One job: submitted by a node at a time, fanning out to `tasks`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct JobSpec {
    /// Globally unique job id.
    pub job_id: u64,
    /// Node that submits the job.
    pub submitter: u32,
    /// Absolute submission time, ns since simulation epoch.
    pub submit_at_ns: u64,
    /// Serverless or distributed.
    pub kind: JobKind,
    /// The tasks (length = `kind.task_count()`).
    pub tasks: Vec<TaskSpec>,
}

impl JobSpec {
    /// The class of this job (all tasks in a job share one class).
    pub fn class(&self) -> TaskClass {
        self.tasks.first().map(|t| t.class).unwrap_or(TaskClass::VerySmall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_ranges() {
        assert_eq!(TaskClass::VerySmall.data_kb_range(), (0, 1000));
        assert_eq!(TaskClass::Small.data_kb_range(), (1500, 2500));
        assert_eq!(TaskClass::Medium.data_kb_range(), (3000, 4000));
        assert_eq!(TaskClass::Large.data_kb_range(), (4500, 5500));
        assert_eq!(TaskClass::VerySmall.exec_ms_range(), (0, 2000));
        assert_eq!(TaskClass::Small.exec_ms_range(), (2500, 4500));
        assert_eq!(TaskClass::Medium.exec_ms_range(), (5000, 7000));
        assert_eq!(TaskClass::Large.exec_ms_range(), (7500, 9500));
    }

    #[test]
    fn task_counts() {
        assert_eq!(JobKind::Serverless.task_count(), 1);
        assert_eq!(JobKind::Distributed.task_count(), 3);
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = TaskClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["VS", "S", "M", "L"]);
    }
}
