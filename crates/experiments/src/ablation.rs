//! Ablations of the design choices DESIGN.md calls out.
//!
//! * **k sweep** — the paper fixes k = 20 ms/packet and leaves tuning as
//!   future work; [`run_k_sweep`] measures how the gain over Nearest moves
//!   as k varies.
//! * **queue signal** — the paper argues per-interval *maximum* queue
//!   occupancy is the right congestion signal and that averages are
//!   inconclusive; [`run_signal_ablation`] compares MaxQueue against the
//!   instantaneous sample a probe happens to observe.
//! * **compute-aware extension** — [`demo_compute_aware`] exercises the
//!   future-work extension: a backlogged near server loses its top rank.

use crate::compare::{CompareConfig, CompareOutput, Metric};
use crate::par;
use crate::report;
use int_core::compute::ComputeTracker;
use int_core::config::HopSignal;
use int_core::rank::RankedServer;
use int_core::Policy;
use int_workload::{JobKind, TaskClass};
use serde::{Deserialize, Serialize};

/// One k-sweep cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KSweepPoint {
    /// k in ms per queued packet.
    pub k_ms: u64,
    /// Mean completion time over all classes, ms.
    pub mean_completion_ms: f64,
    /// Mean gain vs Nearest across classes.
    pub mean_gain: f64,
}

/// k-sweep output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KSweepOutput {
    /// One point per k value.
    pub points: Vec<KSweepPoint>,
}

fn overall_mean_completion(out: &CompareOutput, policy: Policy) -> f64 {
    let r = out.result(policy);
    let v: Vec<f64> = r.outcomes.iter().map(|o| o.completion_ms).collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn mean_gain(out: &CompareOutput) -> f64 {
    let gains: Vec<f64> = TaskClass::ALL
        .iter()
        .filter_map(|&c| out.gain_vs_nearest(c, Metric::Completion))
        .collect();
    gains.iter().sum::<f64>() / gains.len().max(1) as f64
}

/// Sweep the conversion factor k.
pub fn run_k_sweep(seed: u64, total_tasks: usize, k_ms_values: &[u64]) -> KSweepOutput {
    let points = par::parallel_map(k_ms_values, |&k_ms| {
        let mut cfg = CompareConfig::paper_default(seed, JobKind::Serverless, Policy::IntDelay);
        cfg.total_tasks = total_tasks;
        // Patch k into the testbed core config via the runner.
        let out = run_with_core_patch(&mut cfg, |core| {
            core.k_ns_per_pkt = k_ms * 1_000_000;
        });
        KSweepPoint {
            k_ms,
            mean_completion_ms: overall_mean_completion(&out, Policy::IntDelay),
            mean_gain: mean_gain(&out),
        }
    });
    KSweepOutput { points }
}

/// Signal-ablation output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SignalAblationOutput {
    /// Mean gain with the paper's max-queue signal.
    pub max_queue_gain: f64,
    /// Mean gain with the instantaneous-queue signal.
    pub instantaneous_gain: f64,
    /// Mean completion, max-queue, ms.
    pub max_queue_completion_ms: f64,
    /// Mean completion, instantaneous, ms.
    pub instantaneous_completion_ms: f64,
}

/// Compare MaxQueue vs InstantaneousQueue hop signals.
pub fn run_signal_ablation(seed: u64, total_tasks: usize) -> SignalAblationOutput {
    let signals = [HopSignal::MaxQueue, HopSignal::InstantaneousQueue];
    let mut outs = par::parallel_map(&signals, |&signal| {
        let mut cfg = CompareConfig::paper_default(seed, JobKind::Serverless, Policy::IntDelay);
        cfg.total_tasks = total_tasks;
        run_with_core_patch(&mut cfg, move |core| core.hop_signal = signal)
    })
    .into_iter();
    let (a, b) = (outs.next().expect("max"), outs.next().expect("inst"));
    SignalAblationOutput {
        max_queue_gain: mean_gain(&a),
        instantaneous_gain: mean_gain(&b),
        max_queue_completion_ms: overall_mean_completion(&a, Policy::IntDelay),
        instantaneous_completion_ms: overall_mean_completion(&b, Policy::IntDelay),
    }
}

/// Run a comparison with a patched core configuration.
fn run_with_core_patch(
    cfg: &mut CompareConfig,
    patch: impl Fn(&mut int_core::CoreConfig) + Copy + Send + Sync,
) -> CompareOutput {
    use crate::runner::run;
    let policies = [cfg.int_policy, Policy::Nearest, Policy::Random];
    let results = par::parallel_map(&policies, |&p| {
        let mut ecfg = cfg.experiment_for(p);
        patch(&mut ecfg.testbed.core);
        run(&ecfg)
    });
    let mut map = std::collections::BTreeMap::new();
    for r in results {
        map.insert(crate::compare::policy_key(r.policy), r);
    }
    CompareOutput { config: cfg.clone(), results: map }
}

/// Render the k sweep.
pub fn render_k_sweep(out: &KSweepOutput) -> String {
    let rows: Vec<Vec<String>> = out
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{} ms", p.k_ms),
                report::ms(p.mean_completion_ms),
                report::pct(p.mean_gain),
            ]
        })
        .collect();
    report::table(&["k", "mean completion (ms)", "gain vs Nearest"], &rows)
}

/// Render the signal ablation.
pub fn render_signal(out: &SignalAblationOutput) -> String {
    report::table(
        &["signal", "mean completion (ms)", "gain vs Nearest"],
        &[
            vec![
                "max queue (paper)".into(),
                report::ms(out.max_queue_completion_ms),
                report::pct(out.max_queue_gain),
            ],
            vec![
                "instantaneous queue".into(),
                report::ms(out.instantaneous_completion_ms),
                report::pct(out.instantaneous_gain),
            ],
        ],
    )
}

/// Compute-aware extension demo: a network-preferred server with a task
/// backlog drops behind an idle alternative (paper future work, implemented
/// in `int-core::compute`). Pure and deterministic.
pub fn demo_compute_aware() -> String {
    let mut tracker = ComputeTracker::new();
    tracker.register(1, 1);
    tracker.register(2, 1);

    let network_ranking = vec![
        RankedServer { host: 1, est_delay_ns: 30_000_000, est_bandwidth_bps: 15_000_000 },
        RankedServer { host: 2, est_delay_ns: 50_000_000, est_bandwidth_bps: 15_000_000 },
    ];

    let mut lines = Vec::new();
    lines.push("network-only order: hosts ".to_string()
        + &network_ranking.iter().map(|s| s.host.to_string()).collect::<Vec<_>>().join(", "));

    for backlog in [0, 1, 3] {
        let mut t = tracker.clone();
        for _ in 0..backlog {
            t.on_dispatch(1);
        }
        let reranked = t.rerank(&network_ranking, 100_000_000);
        lines.push(format!(
            "backlog {backlog} on host 1 → order: hosts {}",
            reranked.iter().map(|s| s.host.to_string()).collect::<Vec<_>>().join(", ")
        ));
    }
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_demo_flips_order_under_backlog() {
        let text = demo_compute_aware();
        assert!(text.contains("backlog 0 on host 1 → order: hosts 1, 2"), "{text}");
        assert!(text.contains("backlog 3 on host 1 → order: hosts 2, 1"), "{text}");
    }

    #[test]
    fn render_k_sweep_table() {
        let out = KSweepOutput {
            points: vec![KSweepPoint { k_ms: 20, mean_completion_ms: 5000.0, mean_gain: 0.2 }],
        };
        let text = render_k_sweep(&out);
        assert!(text.contains("20 ms"));
        assert!(text.contains("+20.0%"));
    }
}
