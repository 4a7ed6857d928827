//! Property-based tests on the scheduler core: ranking invariants,
//! estimator monotonicity, utilization-curve behaviour, and map learning.

use int_edge_sched::core::config::{HopSignal, UtilPoint};
use int_edge_sched::core::rank::{Ranker, StaticDistances};
use int_edge_sched::core::{
    BandwidthEstimator, CoreConfig, DelayEstimator, NetNode, NetworkMap, Policy, SchedulerCore,
};
use proptest::prelude::*;

#[path = "common/probe.rs"]
mod probes;
use probes::{hop, probe};

/// A map where host `o` reaches the scheduler (host 100) via its own
/// dedicated switch `10 + o` with queue `q`.
fn star_map(qlens: &[u32]) -> NetworkMap {
    let mut m = NetworkMap::new();
    for (o, &q) in qlens.iter().enumerate() {
        let p = probe(o as u32, 1, [hop(10 + o as u32, q, q / 2, 10_000_000, 11_000_000)]);
        m.apply_probe(&p, 100, 30_000_000);
    }
    m
}

proptest! {
    /// Delay ranking orders candidates by non-decreasing estimate, and the
    /// result is a permutation of the input.
    #[test]
    fn delay_ranking_is_sorted_permutation(qlens in proptest::collection::vec(0u32..64, 2..8)) {
        let m = star_map(&qlens);
        let mut r = Ranker::new(CoreConfig::default(), StaticDistances::new(), 1);
        let candidates: Vec<u32> = (0..qlens.len() as u32).collect();
        let ranked = r.rank(&m, 100, &candidates, Policy::IntDelay, 30_000_000);

        prop_assert_eq!(ranked.len(), candidates.len());
        let mut hosts: Vec<u32> = ranked.iter().map(|s| s.host).collect();
        hosts.sort();
        prop_assert_eq!(hosts, candidates);
        for w in ranked.windows(2) {
            prop_assert!(w[0].est_delay_ns <= w[1].est_delay_ns);
        }
    }

    /// Bandwidth ranking is non-increasing in estimated bandwidth.
    #[test]
    fn bandwidth_ranking_is_sorted(qlens in proptest::collection::vec(0u32..64, 2..8)) {
        let m = star_map(&qlens);
        let mut r = Ranker::new(CoreConfig::default(), StaticDistances::new(), 1);
        let candidates: Vec<u32> = (0..qlens.len() as u32).collect();
        let ranked = r.rank(&m, 100, &candidates, Policy::IntBandwidth, 30_000_000);
        for w in ranked.windows(2) {
            prop_assert!(w[0].est_bandwidth_bps >= w[1].est_bandwidth_bps);
        }
    }

    /// More queueing on a server's path can never make its delay estimate
    /// smaller, nor its bandwidth estimate larger.
    #[test]
    fn estimates_monotone_in_queue(q1 in 0u32..60, bump in 1u32..30) {
        let low = star_map(&[q1]);
        let high = star_map(&[q1 + bump]);
        let cfg = CoreConfig::default();
        let de = DelayEstimator::new(cfg.clone());
        let be = BandwidthEstimator::new(cfg);
        let now = 30_000_000;

        let d_low = de.estimate(&low, NetNode::Host(100), NetNode::Host(0), now).unwrap();
        let d_high = de.estimate(&high, NetNode::Host(100), NetNode::Host(0), now).unwrap();
        prop_assert!(d_high.total_ns() >= d_low.total_ns());

        let b_low = be.estimate(&low, NetNode::Host(100), NetNode::Host(0), now).unwrap();
        let b_high = be.estimate(&high, NetNode::Host(100), NetNode::Host(0), now).unwrap();
        prop_assert!(b_high <= b_low);
    }

    /// The utilization interpolation is monotone and bounded for any
    /// well-formed (sorted, clamped) curve.
    #[test]
    fn util_curve_monotone_bounded(
        raw in proptest::collection::vec((0u32..200, 0.0f64..=1.0), 2..8),
    ) {
        let mut pts: Vec<UtilPoint> =
            raw.into_iter().map(|(qlen, util)| UtilPoint { qlen, util }).collect();
        pts.sort_by_key(|p| p.qlen);
        pts.dedup_by_key(|p| p.qlen);
        // Make utils non-decreasing so the curve is well-formed.
        for i in 1..pts.len() {
            if pts[i].util < pts[i - 1].util {
                pts[i].util = pts[i - 1].util;
            }
        }
        let cfg = CoreConfig { util_curve: pts, ..CoreConfig::default() };
        let mut prev = -1.0;
        for q in 0..=220 {
            let u = cfg.utilization_for_qlen(q);
            prop_assert!((0.0..=1.0).contains(&u), "bounded at q={q}: {u}");
            prop_assert!(u >= prev - 1e-12, "monotone at q={q}");
            prev = u;
        }
    }

    /// Available bandwidth never exceeds capacity and hits the endpoints.
    #[test]
    fn available_bw_bounded(q in any::<u32>(), cap in 1_000u64..1_000_000_000) {
        let cfg = CoreConfig { link_capacity_bps: cap, ..CoreConfig::default() };
        let bw = cfg.available_bw_for_qlen(q);
        prop_assert!(bw <= cap);
    }

    /// Learning is idempotent with respect to topology: re-applying the
    /// same probe changes no adjacency, only freshness.
    #[test]
    fn reapplying_probe_is_topology_idempotent(qlens in proptest::collection::vec(0u32..64, 1..6)) {
        let mut m = star_map(&qlens);
        let edges_before: Vec<_> = m.edges().map(|(a, b, _)| (a, b)).collect();
        let p = probe(0, 2, [hop(10, qlens[0], qlens[0] / 2, 10_000_000, 11_000_000)]);
        m.apply_probe(&p, 100, 31_000_000);
        let edges_after: Vec<_> = m.edges().map(|(a, b, _)| (a, b)).collect();
        prop_assert_eq!(edges_before, edges_after);
    }

    /// The instantaneous-queue ablation signal is also monotone in the
    /// reported instantaneous value.
    #[test]
    fn instantaneous_signal_used_when_configured(q in 2u32..60) {
        let mut m = NetworkMap::new();
        // max = q, instantaneous = q/2.
        let p = probe(0, 1, [hop(10, q, q / 2, 10_000_000, 11_000_000)]);
        m.apply_probe(&p, 100, 30_000_000);

        let max_cfg = CoreConfig::default();
        let inst_cfg = CoreConfig { hop_signal: HopSignal::InstantaneousQueue, ..CoreConfig::default() };
        let edge_q_max =
            m.effective_qlen(&max_cfg, NetNode::Switch(10), NetNode::Host(100), 30_000_000);
        let edge_q_inst =
            m.effective_qlen(&inst_cfg, NetNode::Switch(10), NetNode::Host(100), 30_000_000);
        prop_assert_eq!(edge_q_max, q);
        prop_assert_eq!(edge_q_inst, q / 2);
    }

    /// Random ranking with the same seed is reproducible for any candidate
    /// set.
    #[test]
    fn random_ranking_reproducible(candidates in proptest::collection::btree_set(0u32..50, 1..10), seed in any::<u64>()) {
        let cands: Vec<u32> = candidates.into_iter().collect();
        let m = NetworkMap::new();
        let order = |s| {
            let mut r = Ranker::new(CoreConfig::default(), StaticDistances::new(), s);
            r.rank(&m, 99, &cands, Policy::Random, 0)
                .iter()
                .map(|x| x.host)
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(order(seed), order(seed));
    }

    /// The serving stack against the reference under churn: a random op
    /// sequence of probe updates (varying routes, latencies, and queues)
    /// interleaved with stale-link evictions (cuts) drives one long-lived
    /// [`SchedulerCore`] — so epochs must be republished, patched or
    /// rebuilt, and the scratch's trees dropped, across every mutation —
    /// and after each op its routes are byte-identical to the reference
    /// [`NetworkMap::path`] and its answers to the reference [`Ranker`]'s
    /// over the live map, for every requester and deterministic policy.
    #[test]
    fn indexed_engine_matches_oracle_under_churn(
        ops in proptest::collection::vec(
            // (origin, route shape, link latency ms, queue, clock step ms, op kind)
            (0u32..5, 0u32..3, 1u64..50, 0u32..40, 1u64..250, 0u8..8),
            1..32,
        ),
    ) {
        serving_matches_reference_under_churn(1, &ops);
    }

    /// The same churn recipe at `k_paths = 3`: every candidate is priced
    /// over the k-set the linear [`NetworkMap::k_paths`] reference finds,
    /// so serving's k-set cache must invalidate on both structural and
    /// metric-only mutations, including ones that re-price only one path
    /// of a cached set.
    #[test]
    fn k_path_engine_matches_oracle_under_churn(
        ops in proptest::collection::vec(
            (0u32..5, 0u32..3, 1u64..50, 0u32..40, 1u64..250, 0u8..8),
            1..24,
        ),
    ) {
        serving_matches_reference_under_churn(3, &ops);
    }
}

fn serving_matches_reference_under_churn(k_paths: u32, ops: &[(u32, u32, u64, u32, u64, u8)]) {
    const SCHED: u32 = 100;
    const EVICT_HORIZON_NS: u64 = 350_000_000;
    // Only the explicit cut op evicts, so maps grow between cuts.
    let cfg = CoreConfig { k_paths, eviction_horizon_ns: u64::MAX, ..CoreConfig::default() };
    let mut core = SchedulerCore::new(SCHED, cfg.clone(), StaticDistances::new(), 1);
    let mut reference = Ranker::new(cfg.clone(), StaticDistances::new(), 1);
    let mut now_ns: u64 = 1_000_000_000;
    let hosts: Vec<u32> = (0..5).chain([SCHED]).collect();

    for (seq, &(origin, route, lat_ms, qlen, dt_ms, kind)) in ops.iter().enumerate() {
        now_ns += dt_ms * 1_000_000;
        if kind == 7 {
            core.collector_mut().map_mut().evict_stale(now_ns, EVICT_HORIZON_NS);
        } else {
            // Three route shapes per origin: a dedicated star switch, a
            // detour over the shared spine 20, and a cross route through
            // the neighbour's star switch — so ops overlap on links and
            // metric updates genuinely reroute traffic.
            let chain: Vec<u32> = match route {
                0 => vec![10 + origin],
                1 => vec![10 + origin, 20],
                _ => vec![20, 10 + (origin + 1) % 5],
            };
            let last = chain.len() as u64 - 1;
            let hops = chain.iter().enumerate().map(|(i, &sw)| {
                let ts = now_ns - (last - i as u64) * lat_ms * 1_000_000;
                hop(sw, qlen, qlen / 2, lat_ms * 1_000_000, ts)
            });
            core.collector_mut().ingest(&probe(origin, seq as u64 + 1, hops), now_ns);
        }

        for &from in &hosts {
            for &to in &hosts {
                let (a, b) = (NetNode::Host(from), NetNode::Host(to));
                let got = core.learned_path(from, to, now_ns);
                let map = core.collector().map();
                assert_eq!(&got, &map.path(a, b), "path {}->{} after op {}", from, to, seq);
                assert_eq!(
                    got,
                    map.k_paths(a, b, k_paths).into_iter().next(),
                    "first k-path {}->{} after op {}", from, to, seq
                );
            }
            for policy in [Policy::IntDelay, Policy::IntBandwidth, Policy::Nearest] {
                let got = core.rank_detailed_with(from, policy, now_ns);
                let want = reference.answer(core.collector(), from, policy, now_ns);
                assert_eq!(got, want, "{} {:?} after op {}", from, policy, seq);
            }
        }
    }
}
