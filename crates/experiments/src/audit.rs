//! Observability export: instrumented failover cells with the full
//! decision audit trail.
//!
//! Re-runs a small failover grid (policy × probing interval, ring link
//! sw9–sw10 cut mid-run) with the observability layer lit — engine
//! metrics registry, trace ring, and the scheduler's decision audit —
//! and exports everything as one artifact. The audit trail answers,
//! per scheduling query, what the scheduler believed when it decided:
//! the ranked candidates with their delay/bandwidth estimates, the
//! excluded hosts with reasons, and the chosen host. After the link
//! cut the IntDelay cell must show `NoFreshPath`/`OriginSilent`
//! exclusions — the test below checks exactly that.
//!
//! Both embedded JSON documents (`audit_json`, `metrics_json`) come
//! from the zero-dependency renderers in `int-obs` and are byte-stable:
//! identical across reruns and across worker counts
//! (`tests/invariance.rs` pins this).

use crate::failover;
use crate::par;
use crate::report;
use crate::testbed::Testbed;
use int_apps::SchedulerApp;
use int_core::Policy;
use int_netsim::SimDuration;
use int_obs::MetricsRegistry;
use serde::Serialize;
use std::collections::BTreeMap;

/// Probing intervals the audit grid covers (kept small — the point is
/// the exported trail, not the sweep).
pub fn default_intervals() -> Vec<SimDuration> {
    vec![SimDuration::from_millis(100), SimDuration::from_millis(500)]
}

/// Count of one exclusion reason across a cell's recorded decisions.
#[derive(Debug, Clone, Serialize)]
pub struct ReasonCount {
    /// Stable `ExcludeReason` label.
    pub reason: String,
    /// Exclusions carrying it.
    pub count: u64,
}

/// One instrumented (policy × interval) cell.
#[derive(Debug, Clone, Serialize)]
pub struct AuditCell {
    /// Ranking policy.
    pub policy: String,
    /// Probing interval, seconds.
    pub interval_s: f64,
    /// Scheduling decisions recorded.
    pub decisions: u64,
    /// Candidate exclusions across all recorded decisions.
    pub exclusions: u64,
    /// Exclusions grouped by reason, alphabetical.
    pub exclude_reasons: Vec<ReasonCount>,
    /// Trace events the engine ring saw (pre-sampling/eviction).
    pub trace_seen: u64,
    /// Frames the engine delivered to hosts.
    pub frames_delivered: u64,
    /// Frames dropped, all causes (queue, data plane, faults, hosts).
    pub drops: u64,
    /// The scheduler's full decision audit trail
    /// (`int_obs::DecisionAudit::to_json`), byte-stable.
    pub audit_json: String,
    /// The engine metrics snapshot
    /// (`int_obs::MetricsRegistry::snapshot_json`), byte-stable.
    pub metrics_json: String,
}

/// The exported artifact: one cell per grid point.
#[derive(Debug, Clone, Serialize)]
pub struct AuditOutput {
    /// All (policy × interval) cells.
    pub cells: Vec<AuditCell>,
}

/// Run one instrumented cell: light every sink, warm up, cut the link,
/// poll the ranking past the detection horizon, export.
fn run_cell(seed: u64, policy: Policy, interval: SimDuration) -> AuditCell {
    // Light the observability layer: metrics, trace ring (engine +
    // data-plane programs), and the scheduler's decision audit.
    let light = |tb: &mut Testbed| {
        tb.sim.set_metrics_enabled(true);
        tb.sim.set_tracing(true);
        tb.sim
            .app_mut::<SchedulerApp>(tb.scheduler, tb.scheduler_app)
            .expect("scheduler app")
            .set_audit_enabled(true);
    };
    let (tb, cut) = failover::run_scenario(seed, policy, interval, light, |cut, t, app| {
        // With auditing on, every detailed ranking lands in the trail.
        let _ = app.core_mut().rank_detailed_with(cut.requester, policy, t.as_nanos());
    });

    // Fold the scheduler's path-engine counters in beside the engine's
    // series before snapshotting: CSR rebuilds / weight refreshes are
    // exactly the churn the snapshot publisher pays, and cache hit rates
    // show what indexed serving saves per decision.
    let path_stats = tb
        .sim
        .app::<SchedulerApp>(tb.scheduler, tb.scheduler_app)
        .expect("scheduler app")
        .core()
        .path_stats();
    let mut metrics = MetricsRegistry::new();
    metrics.set_enabled(true);
    metrics.merge(tb.sim.metrics());
    path_stats.export(&mut metrics, cut.t_end.as_nanos());

    let stats = tb.sim.stats();
    let trace_seen = tb.sim.trace_ring().seen();
    let metrics_json = metrics.snapshot_json();

    let app = tb
        .sim
        .app::<SchedulerApp>(tb.scheduler, tb.scheduler_app)
        .expect("scheduler app");
    let audit = app.audit();
    let mut by_reason: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut exclusions = 0u64;
    for rec in audit.records() {
        exclusions += rec.excluded.len() as u64;
        for &(_, reason) in &rec.excluded {
            *by_reason.entry(reason).or_insert(0) += 1;
        }
    }

    AuditCell {
        policy: policy.name().to_string(),
        interval_s: interval.as_secs_f64(),
        decisions: audit.total(),
        exclusions,
        exclude_reasons: by_reason
            .into_iter()
            .map(|(reason, count)| ReasonCount { reason: reason.to_string(), count })
            .collect(),
        trace_seen,
        frames_delivered: stats.frames_delivered,
        drops: stats.total_drops(),
        audit_json: audit.to_json(),
        metrics_json,
    }
}

/// Run the audit grid on `workers` threads.
pub fn run(workers: usize, seed: u64, intervals: &[SimDuration]) -> AuditOutput {
    let policies = [Policy::IntDelay, Policy::Nearest];
    let cells: Vec<(Policy, SimDuration)> = intervals
        .iter()
        .flat_map(|&iv| policies.iter().map(move |&p| (p, iv)))
        .collect();
    let cells = par::parallel_map(workers, &cells, |&(p, iv)| run_cell(seed, p, iv));
    AuditOutput { cells }
}

/// Render the per-cell summary table (the full trails live in the JSON).
pub fn render(out: &AuditOutput) -> String {
    let rows: Vec<Vec<String>> = out
        .cells
        .iter()
        .map(|c| {
            let reasons = if c.exclude_reasons.is_empty() {
                "-".to_string()
            } else {
                c.exclude_reasons
                    .iter()
                    .map(|r| format!("{}×{}", r.reason, r.count))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            vec![
                c.policy.clone(),
                format!("{:.1}s", c.interval_s),
                c.decisions.to_string(),
                c.exclusions.to_string(),
                reasons,
                c.trace_seen.to_string(),
                c.drops.to_string(),
            ]
        })
        .collect();
    report::table(
        &["policy", "probe interval", "decisions", "exclusions", "reasons", "trace events", "drops"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The IntDelay cell must show post-cut exclusions with reasons, and
    /// the telemetry-free baseline must still audit its decisions (all
    /// candidates ranked, nothing excluded).
    #[test]
    fn audit_captures_exclusions_after_link_cut() {
        let ivs = [SimDuration::from_millis(100)];
        let out = run(1, 7, &ivs);
        assert_eq!(out.cells.len(), 2);
        for c in &out.cells {
            let head = format!("{{\"total\":{},", c.decisions);
            assert!(c.audit_json.starts_with(&head), "{}: the trail opens with the decision total", c.policy);
            // Only the INT cell carries traffic (probes) for the engine to count.
            if c.policy == "IntDelay" {
                assert!(c.frames_delivered > 0);
                assert!(c.metrics_json.contains("\"sim.frames_delivered{"), "per-node delivery counters exported");
            }
        }

        let int = &out.cells[0];
        assert_eq!(int.policy, "IntDelay");
        assert!(int.decisions > 50, "polled every 100 ms: {}", int.decisions);
        assert!(int.exclusions > 0, "link cut must exclude candidates");
        assert!(!int.exclude_reasons.is_empty());
        assert!(
            int.audit_json.contains("\"reason\":\"NoFreshPath\"")
                || int.audit_json.contains("\"reason\":\"OriginSilent\""),
            "trail names the exclusion reason"
        );
        assert!(int.trace_seen > 0, "trace ring lit");
        assert!(
            int.metrics_json.contains("pathidx_cache_hits")
                && int.metrics_json.contains("pathidx_csr_rebuilds"),
            "path-engine counters exported: {}",
            &int.metrics_json[..int.metrics_json.len().min(400)]
        );

        let near = &out.cells[1];
        assert_eq!(near.policy, "Nearest");
        assert!(near.decisions > 50);
        assert_eq!(near.exclusions, 0, "no telemetry, no exclusions");
    }
}
