//! Fig. 8: empirical CDF of the per-task performance gain in completion
//! time over the Nearest baseline, for three configurations:
//! serverless + delay ranking, distributed + delay ranking, and
//! distributed + bandwidth ranking.
//!
//! Paper observations to compare against: 38 % of delay-ranked distributed
//! tasks see zero-or-negative gain (measurement jitter de-prioritizing
//! nearest nodes under light congestion), 19 % for bandwidth ranking;
//! >60 % of bandwidth-ranked distributed tasks gain ≥20 %.

use crate::compare::{run_comparison_seeds, CompareConfig, Metric, MultiCompareOutput};
use crate::par;
use crate::report;
use crate::stats::Ecdf;
use int_core::Policy;
use int_workload::JobKind;
use serde::Serialize;

/// One curve of the figure.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Curve {
    /// Label as in the paper's legend.
    pub label: String,
    /// Per-task gains (fractions).
    pub gains: Vec<f64>,
}

/// The three curves.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Output {
    /// serverless+delay, distributed+delay, distributed+bandwidth.
    pub curves: Vec<Fig8Curve>,
}

/// Run all three configurations on `workers` threads and extract gain
/// samples, pooled over `seeds`.
pub fn run_seeds(workers: usize, seeds: &[u64], total_tasks: usize) -> Fig8Output {
    let configs = [
        ("serverless/delay", JobKind::Serverless, Policy::IntDelay),
        ("distributed/delay", JobKind::Distributed, Policy::IntDelay),
        ("distributed/bandwidth", JobKind::Distributed, Policy::IntBandwidth),
    ];
    let outputs: Vec<MultiCompareOutput> = par::parallel_map(workers, &configs, |&(_, kind, policy)| {
        let mut cfg = CompareConfig::paper_default(seeds[0], kind, policy);
        cfg.total_tasks = total_tasks;
        run_comparison_seeds(workers, &cfg, seeds)
    });

    let curves = configs
        .iter()
        .zip(outputs)
        .map(|(&(label, _, _), out)| Fig8Curve {
            label: label.to_string(),
            gains: out.per_task_gains(Metric::Completion),
        })
        .collect();
    Fig8Output { curves }
}

/// Render the key ECDF readouts the paper quotes.
pub fn render(out: &Fig8Output) -> String {
    let rows: Vec<Vec<String>> = out
        .curves
        .iter()
        .map(|c| {
            let e = Ecdf::new(c.gains.clone());
            vec![
                c.label.clone(),
                c.gains.len().to_string(),
                format!("{:.0}%", e.fraction_at_most(0.0) * 100.0),
                format!("{:.0}%", e.fraction_at_least(0.2) * 100.0),
                format!("{:.0}%", e.fraction_at_least(0.6) * 100.0),
            ]
        })
        .collect();
    report::table(
        &["configuration", "tasks", "gain ≤ 0", "gain ≥ 20%", "gain ≥ 60%"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_reads_ecdf_correctly() {
        let out = Fig8Output {
            curves: vec![Fig8Curve {
                label: "t".into(),
                gains: vec![-0.1, 0.0, 0.25, 0.7],
            }],
        };
        let text = render(&out);
        assert!(text.contains("50%"), "two of four ≤ 0: {text}");
        assert!(text.contains("25%"), "one of four ≥ 0.6: {text}");
    }
}
