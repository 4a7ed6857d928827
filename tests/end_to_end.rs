//! Cross-crate integration tests: the full pipeline from P4 switches
//! through probes, the collector, the scheduler service, and task
//! execution — on the paper's testbed topology.

use int_edge_sched::apps::iperf::{IperfConfig, IperfSenderApp, IPERF_UDP_PORT};
use int_edge_sched::core::coverage::CoverageReport;
use int_edge_sched::experiments::runner::{run, ExperimentConfig};
use int_edge_sched::experiments::testbed::{Testbed, TestbedConfig, ProbeMode};
use int_edge_sched::prelude::*;

fn run_secs(tb: &mut Testbed, s: u64) {
    tb.sim.run_until(SimTime::ZERO + SimDuration::from_secs(s));
}

#[test]
fn scheduler_learns_full_topology_with_all_pairs_probing() {
    let mut tb = Testbed::new(&TestbedConfig::default());
    run_secs(&mut tb, 3);
    let app = tb
        .sim
        .app::<SchedulerApp>(tb.scheduler, tb.scheduler_app)
        .expect("scheduler app");
    let map = app.core().collector().map();
    assert_eq!(map.hosts().count(), 8, "all edge nodes discovered");
    assert_eq!(map.switches().count(), 12, "all ring switches discovered");

    // Coverage: with all-pairs probing a large majority of directed links
    // carry fresh same-direction measurements.
    let report = CoverageReport::build(map, &CoreConfig::default(), tb.sim.now().as_nanos());
    assert!(
        report.fresh_fraction() > 0.8,
        "fresh coverage {:.2}",
        report.fresh_fraction()
    );
}

#[test]
fn scheduler_only_probing_has_worse_coverage() {
    let coverage = |mode: ProbeMode| {
        let mut tb = Testbed::new(&TestbedConfig { probe_mode: mode, ..TestbedConfig::default() });
        run_secs(&mut tb, 3);
        let app = tb
            .sim
            .app::<SchedulerApp>(tb.scheduler, tb.scheduler_app)
            .expect("scheduler app");
        let map = app.core().collector().map();
        CoverageReport::build(map, &CoreConfig::default(), tb.sim.now().as_nanos())
            .fresh_fraction()
    };
    let sched_only = coverage(ProbeMode::SchedulerOnly);
    let all_pairs = coverage(ProbeMode::AllPairs);
    assert!(
        all_pairs > sched_only + 0.2,
        "all-pairs {all_pairs:.2} must beat scheduler-only {sched_only:.2} clearly"
    );
}

#[test]
fn background_congestion_is_visible_in_the_learned_map() {
    let mut tb = Testbed::new(&TestbedConfig::default());
    // Saturating flow node1 → node3 from t=2s.
    let dst_ip = Topology::host_ip(tb.hosts[2]);
    tb.sim.install_app(
        tb.hosts[0],
        Box::new(IperfSenderApp::new(IperfConfig::new(
            dst_ip,
            19_000_000,
            SimTime::ZERO + SimDuration::from_secs(2),
            SimDuration::from_secs(30),
        ))),
    );
    tb.sim.install_app(tb.hosts[2], Box::new(UdpSinkApp::new(IPERF_UDP_PORT)));
    run_secs(&mut tb, 10);

    let now_ns = tb.sim.now().as_nanos();
    let app = tb
        .sim
        .app::<SchedulerApp>(tb.scheduler, tb.scheduler_app)
        .expect("scheduler app");
    let map = app.core().collector().map();
    let cfg = CoreConfig::default();
    let max_seen = map
        .edges()
        .map(|(_, _, e)| e.windowed_max_qlen(now_ns, cfg.qlen_window_ns))
        .max()
        .unwrap_or(0);
    assert!(max_seen >= 3, "saturating flow visible in INT data: max qlen {max_seen}");
}

#[test]
fn congestion_shifts_the_delay_ranking() {
    // Queueing in this network builds at the egress where offered load
    // first exceeds the 20 Mbit/s ceiling. Two flows converging on node7
    // (12 Mbit/s each) overload the final egress toward node7's access
    // link, which sits on node8's path to node7 — so node8's delay
    // estimate for its nearest pair must inflate, and the ranking demote
    // it.
    let estimate_and_top = |congest: bool| {
        let mut tb = Testbed::new(&TestbedConfig::default());
        if congest {
            for src_idx in [0usize, 4] {
                let dst = Topology::host_ip(tb.hosts[6]);
                tb.sim.install_app(
                    tb.hosts[src_idx],
                    Box::new(IperfSenderApp::new(IperfConfig::new(
                        dst,
                        12_000_000,
                        SimTime::ZERO + SimDuration::from_secs(1),
                        SimDuration::from_secs(30),
                    ))),
                );
            }
            tb.sim.install_app(tb.hosts[6], Box::new(UdpSinkApp::new(IPERF_UDP_PORT)));
        }
        run_secs(&mut tb, 8);
        let now_ns = tb.sim.now().as_nanos();
        let requester = tb.hosts[7].0;
        let sched = tb.scheduler;
        let idx = tb.scheduler_app;
        let app = tb.sim.app_mut::<SchedulerApp>(sched, idx).expect("scheduler app");
        let ranked = app.core_mut().rank_detailed_with(requester, Policy::IntDelay, now_ns).ranked;
        let node7 = ranked.iter().find(|r| r.host == 6).expect("node7 ranked");
        (node7.est_delay_ns, ranked[0].host)
    };

    let (idle_est, idle_top) = estimate_and_top(false);
    assert_eq!(idle_top, 6, "idle network: nearest pair node7 wins");
    let (congested_est, congested_top) = estimate_and_top(true);
    assert!(
        congested_est > idle_est + 100_000_000,
        "converging congestion inflates node7's estimate: {} → {} ns",
        idle_est,
        congested_est
    );
    assert_ne!(congested_top, 6, "and demotes it from the top rank");
}

#[test]
fn int_policy_beats_random_and_tracks_nearest_on_a_small_run() {
    // Small but full-stack statistical check (the real figures use the
    // release-mode harness): pooled over classes, INT must beat Random
    // clearly and not lose badly to Nearest.
    let mean_of = |policy: Policy| {
        let mut cfg = ExperimentConfig::paper_default(3, policy);
        cfg.workload.total_tasks = 16;
        cfg.workload.classes = vec![TaskClass::VerySmall, TaskClass::Small];
        cfg.workload.interarrival_ns = (1_500_000_000, 3_000_000_000);
        cfg.drain = SimDuration::from_secs(120);
        let res = run(&cfg);
        assert!(res.outcomes.len() >= 14, "{policy:?} completed {}", res.outcomes.len());
        res.outcomes.iter().map(|o| o.completion_ms).sum::<f64>() / res.outcomes.len() as f64
    };
    let int_mean = mean_of(Policy::IntDelay);
    let random_mean = mean_of(Policy::Random);
    assert!(
        int_mean < random_mean,
        "INT ({int_mean:.0} ms) beats Random ({random_mean:.0} ms)"
    );
}

#[test]
fn executors_report_what_submitters_record() {
    let mut cfg = ExperimentConfig::paper_default(9, Policy::IntDelay);
    cfg.workload.total_tasks = 6;
    cfg.workload.classes = vec![TaskClass::VerySmall];
    cfg.drain = SimDuration::from_secs(90);
    let res = run(&cfg);
    assert_eq!(res.incomplete, 0);
    for o in &res.outcomes {
        assert!(o.transfer_ms > 0.0);
        assert!(o.completion_ms >= o.transfer_ms);
        assert_ne!(o.server, o.submitter, "no self-execution");
        assert!(o.data_bytes >= 1000, "VS tasks still move ≥1 KB");
    }
}
