//! Fig. 9: impact of the probing interval on average data transfer time
//! under two background-traffic dynamics.
//!
//! Intervals: 0.1 s (INT default), 5, 10, 20, 30 s (typical SNMP).
//! *Traffic 1*: medium tasks, slowly changing background (3×30 s flows,
//! 10 s stagger, 30 s gap). *Traffic 2*: small tasks, rapidly changing
//! background (3×5 s flows, 5 s gap). Paper result: short intervals win;
//! 0.1 s ≈ 12.5 s mean transfer vs >15 s at a 30 s interval (>20 %).

use crate::compare::CompareConfig;
use crate::par;
use crate::report;
use crate::runner::run;
use int_core::Policy;
use int_netsim::SimDuration;
use int_workload::{BackgroundScenario, JobKind, TaskClass};
use serde::Serialize;

/// The probing intervals the paper evaluates.
pub fn paper_intervals() -> Vec<SimDuration> {
    vec![
        SimDuration::from_millis(100),
        SimDuration::from_secs(5),
        SimDuration::from_secs(10),
        SimDuration::from_secs(20),
        SimDuration::from_secs(30),
    ]
}

/// One measured cell.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9Point {
    /// Probing interval, seconds.
    pub interval_s: f64,
    /// Scenario label ("Traffic 1" / "Traffic 2").
    pub scenario: String,
    /// Mean data transfer time across all tasks, ms.
    pub mean_transfer_ms: f64,
    /// Tasks measured.
    pub tasks: usize,
}

/// The sweep result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9Output {
    /// All (interval × scenario) cells.
    pub points: Vec<Fig9Point>,
}

/// Run the sweep on `workers` threads; each cell is an independent
/// simulation.
pub fn run_sweep(
    workers: usize,
    seed: u64,
    total_tasks: usize,
    intervals: &[SimDuration],
) -> Fig9Output {
    let scenarios = [
        ("Traffic 1", BackgroundScenario::Traffic1, TaskClass::Medium),
        ("Traffic 2", BackgroundScenario::Traffic2, TaskClass::Small),
    ];

    let cells: Vec<(SimDuration, &str, BackgroundScenario, TaskClass)> = intervals
        .iter()
        .flat_map(|&iv| scenarios.iter().map(move |&(l, s, c)| (iv, l, s, c)))
        .collect();

    let results = par::parallel_map(workers, &cells, |&(iv, label, scenario, class)| {
        let mut cmp = CompareConfig::paper_default(seed, JobKind::Distributed, Policy::IntDelay);
        cmp.total_tasks = total_tasks;
        cmp.scenario = scenario;
        cmp.probe_interval = iv;
        cmp.classes = vec![class];
        // `Testbed::new` scales the collector's window and staleness
        // horizon with the interval.
        (iv, label, run(&cmp.experiment_for(Policy::IntDelay)))
    });

    let points = results
        .into_iter()
        .map(|(iv, label, res)| {
            let transfers: Vec<f64> = res.outcomes.iter().map(|o| o.transfer_ms).collect();
            let mean = if transfers.is_empty() {
                f64::NAN
            } else {
                transfers.iter().sum::<f64>() / transfers.len() as f64
            };
            Fig9Point {
                interval_s: iv.as_secs_f64(),
                scenario: label.to_string(),
                mean_transfer_ms: mean,
                tasks: transfers.len(),
            }
        })
        .collect();
    Fig9Output { points }
}

/// Render the interval × scenario table.
pub fn render(out: &Fig9Output) -> String {
    let rows: Vec<Vec<String>> = out
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.scenario),
                format!("{:.1}s", p.interval_s),
                report::ms(p.mean_transfer_ms),
                p.tasks.to_string(),
            ]
        })
        .collect();
    report::table(&["scenario", "probe interval", "mean transfer (ms)", "tasks"], &rows)
}
