//! Shared policy-comparison machinery for Figs. 5–8: run the INT policy
//! under test plus the Nearest and Random baselines on identical seeds,
//! then aggregate per Table I class.

use crate::par;
use crate::runner::{run, ExperimentConfig, ExperimentResult};
use crate::stats;
use int_core::Policy;
use int_netsim::SimDuration;
use int_workload::{BackgroundScenario, JobKind, TaskClass};
use serde::Serialize;
use std::collections::BTreeMap;

/// Which per-task duration a figure reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Metric {
    /// Task completion time (submit → completion callback).
    Completion,
    /// Data transfer time (stream open → data complete at server).
    Transfer,
}

/// Parameters of a comparison experiment.
#[derive(Debug, Clone, Serialize)]
pub struct CompareConfig {
    /// Seed shared across policies.
    pub seed: u64,
    /// Serverless or distributed jobs.
    pub kind: JobKind,
    /// The network-aware policy under test.
    pub int_policy: Policy,
    /// Total tasks (paper: 200).
    pub total_tasks: usize,
    /// Background congestion scenario.
    pub scenario: BackgroundScenario,
    /// Probing interval.
    pub probe_interval: SimDuration,
    /// Classes in the mix.
    pub classes: Vec<TaskClass>,
}

impl CompareConfig {
    /// The paper's standard comparison for a figure.
    pub fn paper_default(seed: u64, kind: JobKind, int_policy: Policy) -> CompareConfig {
        CompareConfig {
            seed,
            kind,
            int_policy,
            total_tasks: 200,
            scenario: BackgroundScenario::Default,
            probe_interval: SimDuration::from_millis(100),
            classes: TaskClass::ALL.to_vec(),
        }
    }

    /// Build the concrete run configuration for one policy.
    pub fn experiment_for(&self, policy: Policy) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_default(self.seed, policy);
        cfg.workload.kind = self.kind;
        cfg.workload.total_tasks = self.total_tasks;
        cfg.workload.classes = self.classes.clone();
        cfg.scenario = self.scenario;
        cfg.probe_interval = self.probe_interval;
        cfg
    }
}

/// Results for the INT policy plus both baselines.
#[derive(Debug, Clone, Serialize)]
pub struct CompareOutput {
    /// The configuration that produced this.
    pub config: CompareConfig,
    /// Per-policy results (keys: the INT policy, Nearest, Random).
    pub results: BTreeMap<String, ExperimentResult>,
}

/// Stable string key for a policy (BTreeMap keys must order consistently).
pub fn policy_key(p: Policy) -> String {
    format!("{p:?}")
}

/// A comparison aggregated over several seeds: the per-class means are
/// computed over the union of outcomes, and per-task gains are paired
/// within each seed before concatenation. Smooths the heavy-tailed
/// transfer-time variance a single 200-task run exhibits.
#[derive(Debug, Clone, Serialize)]
pub struct MultiCompareOutput {
    /// The per-seed comparisons.
    pub runs: Vec<CompareOutput>,
}

/// Run the comparison over several seeds. The whole seed × policy grid is
/// handed to the worker pool as one flat cell list (better utilization
/// than nesting seed-level over policy-level parallelism), then regrouped
/// per seed in input order — output is identical to the serial run.
pub fn run_comparison_seeds(
    workers: usize,
    base: &CompareConfig,
    seeds: &[u64],
) -> MultiCompareOutput {
    let policies = [base.int_policy, Policy::Nearest, Policy::Random];
    let cells: Vec<(u64, Policy)> = seeds
        .iter()
        .flat_map(|&seed| policies.iter().map(move |&p| (seed, p)))
        .collect();
    let results = par::parallel_map(workers, &cells, |&(seed, p)| {
        let mut cfg = base.clone();
        cfg.seed = seed;
        run(&cfg.experiment_for(p))
    });

    let mut it = results.into_iter();
    let runs = seeds
        .iter()
        .map(|&seed| {
            let mut cfg = base.clone();
            cfg.seed = seed;
            let mut map = BTreeMap::new();
            for _ in 0..policies.len() {
                let r = it.next().expect("one result per cell");
                map.insert(policy_key(r.policy), r);
            }
            CompareOutput { config: cfg, results: map }
        })
        .collect();
    MultiCompareOutput { runs }
}

impl MultiCompareOutput {
    /// Pooled class mean of a metric under a policy, ms.
    pub fn mean(&self, policy: Policy, class: TaskClass, metric: Metric) -> Option<f64> {
        let mut values = Vec::new();
        for run in &self.runs {
            let r = run.result(policy);
            for o in r.of_class(class) {
                values.push(match metric {
                    Metric::Completion => o.completion_ms,
                    Metric::Transfer => o.transfer_ms,
                });
            }
        }
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }

    /// Gain of the INT policy over Nearest on pooled class means.
    pub fn gain_vs_nearest(&self, class: TaskClass, metric: Metric) -> Option<f64> {
        let int_policy = self.runs.first()?.config.int_policy;
        let base = self.mean(Policy::Nearest, class, metric)?;
        let ours = self.mean(int_policy, class, metric)?;
        Some(crate::stats::gain(base, ours))
    }

    /// Per-task gains, paired within each seed then concatenated.
    pub fn per_task_gains(&self, metric: Metric) -> Vec<f64> {
        self.runs.iter().flat_map(|r| r.per_task_gains(metric)).collect()
    }

    /// Render the pooled per-class table.
    pub fn render(&self, metric: Metric) -> String {
        let Some(first) = self.runs.first() else { return String::new() };
        let policies = [first.config.int_policy, Policy::Nearest, Policy::Random];
        let mut rows = Vec::new();
        for class in &first.config.classes {
            let mut row = vec![class.label().to_string()];
            for &p in &policies {
                row.push(match self.mean(p, *class, metric) {
                    Some(v) => crate::report::ms(v),
                    None => "-".into(),
                });
            }
            row.push(match self.gain_vs_nearest(*class, metric) {
                Some(g) => crate::report::pct(g),
                None => "-".into(),
            });
            rows.push(row);
        }
        let metric_name = match metric {
            Metric::Completion => "completion (ms)",
            Metric::Transfer => "transfer (ms)",
        };
        let int_label = format!("INT {metric_name}");
        let near_label = format!("Nearest {metric_name}");
        let rand_label = format!("Random {metric_name}");
        crate::report::table(
            &["class", &int_label, &near_label, &rand_label, "gain vs Nearest"],
            &rows,
        )
    }
}

impl CompareOutput {
    /// Result of one policy.
    pub fn result(&self, policy: Policy) -> &ExperimentResult {
        &self.results[&policy_key(policy)]
    }

    /// Class mean of a metric under a policy, ms.
    pub fn mean(&self, policy: Policy, class: TaskClass, metric: Metric) -> Option<f64> {
        let r = self.result(policy);
        match metric {
            Metric::Completion => r.mean_completion_ms(class),
            Metric::Transfer => r.mean_transfer_ms(class),
        }
    }

    /// The paper's gain of the INT policy over Nearest for a class.
    pub fn gain_vs_nearest(&self, class: TaskClass, metric: Metric) -> Option<f64> {
        let base = self.mean(Policy::Nearest, class, metric)?;
        let ours = self.mean(self.config.int_policy, class, metric)?;
        Some(stats::gain(base, ours))
    }

    /// Per-task gains vs Nearest (paired by job and task id) — Fig. 8's
    /// underlying sample.
    pub fn per_task_gains(&self, metric: Metric) -> Vec<f64> {
        let ours = self.result(self.config.int_policy);
        let base = self.result(Policy::Nearest);
        let base_by_key: BTreeMap<(u64, u64), f64> = base
            .outcomes
            .iter()
            .map(|o| {
                let v = match metric {
                    Metric::Completion => o.completion_ms,
                    Metric::Transfer => o.transfer_ms,
                };
                ((o.job_id, o.task_id), v)
            })
            .collect();
        ours.outcomes
            .iter()
            .filter_map(|o| {
                let b = *base_by_key.get(&(o.job_id, o.task_id))?;
                let v = match metric {
                    Metric::Completion => o.completion_ms,
                    Metric::Transfer => o.transfer_ms,
                };
                Some(stats::gain(b, v))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use int_workload::TaskClass;

    /// The experiment artifacts must be bit-identical across runs even
    /// though cells execute on a thread pool: the grid is regrouped in
    /// input order, and each cell is seed-deterministic. Serializing the
    /// whole multi-seed output is the strictest equality we can ask for.
    #[test]
    fn multi_seed_comparison_serializes_identically_across_runs() {
        let mut cfg = CompareConfig::paper_default(1, JobKind::Serverless, Policy::IntDelay);
        cfg.total_tasks = 4;
        cfg.classes = vec![TaskClass::VerySmall];

        let run_json = || {
            let out = run_comparison_seeds(2, &cfg, &[11, 12]);
            serde_json::to_string(&out).expect("serializable")
        };
        let a = run_json();
        let b = run_json();
        assert!(a.contains("\"seed\":11") && a.contains("\"seed\":12"), "both seeds present");
        assert_eq!(a, b, "parallel execution must not perturb results");
    }
}
