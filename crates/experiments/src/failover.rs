//! Failover: time-to-detect and time-to-reschedule around a failed link.
//!
//! Mid-run, one core ring link (sw9–sw10) is cut with the netsim fault
//! plan. Under the static routes that blackholes every host pair whose
//! shortest path crossed it — in particular requester node 7 and its
//! nearest (and lowest-delay) candidate node 8. The scheduler's ranking
//! is then polled on a fixed cadence and three quantities are measured
//! per (policy × probing interval) cell:
//!
//! * **detect** — first poll at which the scheduler's learned map has
//!   *evicted* the failed link (it shows up in
//!   [`NetworkMap::dead_edges`](int_core::NetworkMap::dead_edges)),
//!   i.e. the telemetry pipeline noticed the link went dark.
//! * **resched** — first poll at which the top-ranked candidate for the
//!   requester is no longer the now-unreachable node 8.
//! * **degraded** — fraction of post-failure polls still ranking node 8
//!   first, i.e. still scheduling onto the dead path.
//!
//! The INT policies bound both detect and resched by a fixed number of
//! probing intervals (the eviction horizon scales with the interval; see
//! `testbed`). The baselines never notice: Nearest keeps node 8 ranked
//! first forever (degraded 100 %), Random keeps hitting it at chance.

use crate::par;
use crate::report;
use crate::testbed::{Testbed, TestbedConfig};
use int_apps::SchedulerApp;
use int_core::map::NetNode;
use int_core::{CoreConfig, Policy};
use int_netsim::{FaultPlan, SimDuration, SimTime};
use serde::Serialize;

/// Paper node issuing the scheduling queries (attached to sw9).
const REQUESTER: usize = 7;
/// Paper node behind the failed link (attached to sw10) — the
/// requester's nearest and, unloaded, lowest-delay candidate.
const TARGET: usize = 8;
/// Ring positions of the link that fails.
const FAIL_LINK: (usize, usize) = (9, 10);

/// Probing intervals the sweep covers (the paper's 100 ms default up to
/// SNMP-ish multi-second polling).
pub fn default_intervals() -> Vec<SimDuration> {
    vec![
        SimDuration::from_millis(100),
        SimDuration::from_millis(500),
        SimDuration::from_secs(1),
        SimDuration::from_secs(2),
    ]
}

/// One measured (policy × interval) cell.
#[derive(Debug, Clone, Serialize)]
pub struct FailoverPoint {
    /// Ranking policy.
    pub policy: String,
    /// Probing interval, seconds.
    pub interval_s: f64,
    /// Time from link failure to the map evicting it, ms. `None` when the
    /// scheduler never notices (the telemetry-free baselines).
    pub detect_ms: Option<f64>,
    /// `detect_ms` expressed in probing intervals.
    pub detect_intervals: Option<f64>,
    /// Time from link failure to the first ranking that no longer puts
    /// the unreachable node first, ms.
    pub resched_ms: Option<f64>,
    /// Fraction of post-failure polls still ranking the unreachable node
    /// first.
    pub degraded_frac: f64,
    /// Post-failure polls taken.
    pub polls_after_failure: usize,
}

/// The sweep result.
#[derive(Debug, Clone, Serialize)]
pub struct FailoverOutput {
    /// All (policy × interval) cells.
    pub points: Vec<FailoverPoint>,
}


/// Where and when [`run_scenario`] cuts the ring, and whom it watches.
pub(crate) struct Cut {
    /// When the sw9–sw10 link goes down.
    pub t_fail: SimTime,
    /// The last poll time.
    pub t_end: SimTime,
    /// The cut link's ends, as the learned map names them.
    pub dead: [NetNode; 2],
    /// Map id of the node issuing the polled rankings (paper node 7).
    pub requester: u32,
    /// Map id of the node behind the cut (paper node 8).
    pub target: u32,
}

/// The failover scenario this sweep, `audit` and the eviction test share:
/// build the testbed with failure horizons the probing interval sets, let
/// `setup` adjust it, warm up, cut sw9–sw10, and poll every 100 ms until
/// well past the eviction horizon. `on_poll` runs at each poll time `t`
/// with the scheduler app, after the simulator has reached `t`.
pub(crate) fn run_scenario(
    seed: u64,
    policy: Policy,
    interval: SimDuration,
    setup: impl FnOnce(&mut Testbed),
    mut on_poll: impl FnMut(&Cut, SimTime, &mut SchedulerApp),
) -> (Testbed, Cut) {
    let iv_ns = interval.as_nanos();

    // Zero the failure horizons so the testbed's interval scaling sets
    // them exactly: eviction after 10 missed intervals, silence after 5.
    // Detection budgets are then measured in probing intervals, matching
    // how the sweep varies; the testbed scales staleness and window too.
    let core = CoreConfig { eviction_horizon_ns: 0, origin_silence_ns: 0, ..CoreConfig::default() };

    let cfg = TestbedConfig {
        seed,
        policy,
        probe_interval: interval,
        core,
        int_enabled: matches!(policy, Policy::IntDelay | Policy::IntBandwidth),
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::new(&cfg);
    setup(&mut tb);

    // Warm-up long enough for all-pairs coverage even at slow intervals;
    // then observe for the 10-interval eviction horizon plus slack.
    let warm_ns = (5 * iv_ns).max(5_000_000_000);
    let t_fail = SimTime::ZERO + SimDuration::from_nanos(warm_ns);
    let t_end = t_fail + SimDuration::from_nanos(10 * iv_ns + warm_ns);

    let (a, b) = (tb.switches[FAIL_LINK.0], tb.switches[FAIL_LINK.1]);
    tb.sim.install_fault_plan(&FaultPlan::new().link_down(a, b, t_fail));
    let cut = Cut {
        t_fail,
        t_end,
        dead: [NetNode::Switch(a.0), NetNode::Switch(b.0)],
        requester: tb.node(REQUESTER).0,
        target: tb.node(TARGET).0,
    };

    let poll = SimDuration::from_millis(100);
    let mut t = SimTime::ZERO + poll;
    while t.as_nanos() <= t_end.as_nanos() {
        tb.sim.run_until(t);
        let app = tb
            .sim
            .app_mut::<SchedulerApp>(tb.scheduler, tb.scheduler_app)
            .expect("scheduler app");
        on_poll(&cut, t, app);
        t += poll;
    }
    (tb, cut)
}

/// Run one cell: warm up, cut the link, poll the ranking until well past
/// the detection horizon.
fn run_cell(seed: u64, policy: Policy, interval: SimDuration) -> FailoverPoint {
    let mut detect_ns: Option<u64> = None;
    let mut resched_ns: Option<u64> = None;
    let mut degraded = 0usize;
    let mut polls_after = 0usize;

    run_scenario(seed, policy, interval, |_| {}, |cut, t, app| {
        let outcome = app.core_mut().rank_detailed_with(cut.requester, policy, t.as_nanos());
        if t.as_nanos() > cut.t_fail.as_nanos() {
            polls_after += 1;
            let since = t.as_nanos() - cut.t_fail.as_nanos();
            if detect_ns.is_none() {
                let map = app.core().collector().map();
                let noticed = map
                    .dead_edges()
                    .any(|(x, y, _)| [x, y] == cut.dead || [y, x] == cut.dead)
                    || outcome.excluded.iter().any(|(h, _)| *h == cut.target);
                if noticed {
                    detect_ns = Some(since);
                }
            }
            match outcome.ranked.first().map(|r| r.host) {
                Some(h) if h == cut.target => degraded += 1,
                Some(_) if resched_ns.is_none() => resched_ns = Some(since),
                _ => {}
            }
        }
    });

    let iv_ns = interval.as_nanos();
    FailoverPoint {
        policy: policy.name().to_string(),
        interval_s: interval.as_secs_f64(),
        detect_ms: detect_ns.map(|ns| ns as f64 / 1e6),
        detect_intervals: detect_ns.map(|ns| ns as f64 / iv_ns as f64),
        resched_ms: resched_ns.map(|ns| ns as f64 / 1e6),
        degraded_frac: if polls_after == 0 { 0.0 } else { degraded as f64 / polls_after as f64 },
        polls_after_failure: polls_after,
    }
}

/// Run the (policy × interval) grid on `workers` threads.
pub fn run_sweep(workers: usize, seed: u64, intervals: &[SimDuration]) -> FailoverOutput {
    let policies = [Policy::IntDelay, Policy::Nearest, Policy::Random];
    let cells: Vec<(Policy, SimDuration)> = intervals
        .iter()
        .flat_map(|&iv| policies.iter().map(move |&p| (p, iv)))
        .collect();
    let points = par::parallel_map(workers, &cells, |&(p, iv)| run_cell(seed, p, iv));
    FailoverOutput { points }
}

/// Render the policy × interval table.
pub fn render(out: &FailoverOutput) -> String {
    let opt_ms = |v: Option<f64>| v.map(report::ms).unwrap_or_else(|| "never".to_string());
    let rows: Vec<Vec<String>> = out
        .points
        .iter()
        .map(|p| {
            vec![
                p.policy.clone(),
                format!("{:.1}s", p.interval_s),
                opt_ms(p.detect_ms),
                p.detect_intervals.map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into()),
                opt_ms(p.resched_ms),
                format!("{:.1}%", p.degraded_frac * 100.0),
            ]
        })
        .collect();
    report::table(
        &["policy", "probe interval", "detect (ms)", "detect (intervals)", "resched (ms)", "degraded polls"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline result: INT evicts the dead link and reroutes within a
    /// bounded number of probing intervals; Nearest never notices and keeps
    /// scheduling onto the dead path; Random keeps hitting it at chance.
    #[test]
    fn int_detects_baselines_do_not() {
        let iv = SimDuration::from_millis(100);
        let int = run_cell(7, Policy::IntDelay, iv);
        let near = run_cell(7, Policy::Nearest, iv);
        let rand = run_cell(7, Policy::Random, iv);

        let detect = int.detect_intervals.expect("INT detects the failure");
        assert!(int.detect_ms.is_some_and(f64::is_finite), "{:?}", int.detect_ms);
        assert!(detect <= 15.0, "bounded by the eviction horizon, got {detect}");
        assert!(int.resched_ms.is_some(), "INT reroutes after detection");
        assert!(
            int.degraded_frac < near.degraded_frac,
            "INT stops scheduling onto the dead path sooner than Nearest"
        );

        assert_eq!(near.detect_ms, None, "no telemetry, no detection");
        assert!(near.degraded_frac > 0.99, "Nearest keeps picking the dead target");

        assert_eq!(rand.detect_ms, None);
        assert!(rand.degraded_frac > 0.01 && rand.degraded_frac < 0.5, "chance hits");
    }

    /// Regression guard on epoch invalidation under failover: at every
    /// poll the served route equals the reference `NetworkMap::path` over
    /// the *current* map — a stale snapshot or tree would diverge the
    /// moment `evict_stale` drops the cut sw9–sw10 link — and once both
    /// directions of the link are evicted no returned route crosses it.
    #[test]
    fn eviction_invalidates_cached_paths_immediately() {
        let mut polls_fully_evicted = 0usize;
        run_scenario(7, Policy::IntDelay, SimDuration::from_millis(100), |_| {}, |cut, t, app| {
            let (requester, target, dead) = (cut.requester, cut.target, cut.dead);
            // The poll itself runs evict_stale before ranking.
            app.core_mut().rank_detailed_with(requester, Policy::IntDelay, t.as_nanos());

            // Serving must track the live map exactly — a stale epoch
            // would diverge from the reference right after the eviction
            // restructures the graph.
            let oracle =
                app.core().collector().map().path(NetNode::Host(requester), NetNode::Host(target));
            let got = app.core_mut().learned_path(requester, target, t.as_nanos());
            assert_eq!(got, oracle, "served route diverged from the reference at t={}ns", t.as_nanos());

            let dead_dirs = app
                .core()
                .collector()
                .map()
                .dead_edges()
                .filter(|&(x, y, _)| [x, y] == dead || [y, x] == dead)
                .count();
            if dead_dirs == 2 {
                // Both directions evicted: no route may cross the link.
                polls_fully_evicted += 1;
                if let Some(p) = got {
                    assert!(
                        !p.windows(2).any(|w| [w[0], w[1]] == dead || [w[1], w[0]] == dead),
                        "route through the dead link at t={}ns: {p:?}",
                        t.as_nanos()
                    );
                }
            }
        });
        assert!(polls_fully_evicted > 0, "the scenario must fully evict the cut link");
    }
}
