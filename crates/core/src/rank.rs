//! Edge-server ranking policies.
//!
//! The two INT-driven policies from the paper (§III-C delay, §III-D
//! bandwidth) plus the two baselines it compares against (§IV): *Nearest*
//! (static hop count, precomputed) and *Random* (seeded load spreading).

use crate::config::CoreConfig;
use crate::estimate::{BandwidthEstimator, DelayEstimator};
use crate::map::{NetNode, NetworkMap};
use crate::pathidx::{PathEngine, PathEngineStats};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A ranking policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Policy {
    /// Network-aware, delay-based (Algorithm 1).
    IntDelay,
    /// Network-aware, bandwidth-based (§III-D).
    IntBandwidth,
    /// Baseline: fewest static hops from the requester.
    Nearest,
    /// Baseline: uniformly random order (load balancing).
    Random,
}

impl Policy {
    /// Human-readable label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Policy::IntDelay => "Network-aware",
            Policy::IntBandwidth => "Network-aware",
            Policy::Nearest => "Nearest",
            Policy::Random => "Random",
        }
    }

    /// Stable variant name, one per policy (unlike [`Policy::label`],
    /// which merges both INT policies). Used in audit exports and tables.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::IntDelay => "IntDelay",
            Policy::IntBandwidth => "IntBandwidth",
            Policy::Nearest => "Nearest",
            Policy::Random => "Random",
        }
    }
}

/// One ranked candidate with its estimated network performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankedServer {
    /// The edge server's host id.
    pub host: u32,
    /// Estimated one-way delay from the requester, ns.
    pub est_delay_ns: u64,
    /// Estimated available path bandwidth, bit/s.
    pub est_bandwidth_bps: u64,
}

/// Why a candidate was left out of an INT-based ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExcludeReason {
    /// The learned map has no live path to the host (its telemetry was
    /// evicted, or it was never probed while others were).
    NoFreshPath,
    /// The host originated probes before but has been silent beyond the
    /// configured horizon — presumed unreachable.
    OriginSilent,
}

impl ExcludeReason {
    /// Stable label used in audit exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            ExcludeReason::NoFreshPath => "NoFreshPath",
            ExcludeReason::OriginSilent => "OriginSilent",
        }
    }
}

/// The result of a failure-aware ranking: the usable candidates, ranked
/// best first, plus everyone excluded and why.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankOutcome {
    /// Usable candidates, best first.
    pub ranked: Vec<RankedServer>,
    /// Excluded candidates with the reason, in host-id order.
    pub excluded: Vec<(u32, ExcludeReason)>,
}

/// Static information the baselines need: hop counts between hosts,
/// computed ahead of time exactly as the paper's Nearest policy assumes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StaticDistances {
    hops: BTreeMap<(u32, u32), u32>,
}

impl StaticDistances {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the hop count between a pair (stored symmetrically).
    pub fn set(&mut self, a: u32, b: u32, hops: u32) {
        self.hops.insert((a, b), hops);
        self.hops.insert((b, a), hops);
    }

    /// Hop count between two hosts, if known.
    pub fn get(&self, a: u32, b: u32) -> Option<u32> {
        self.hops.get(&(a, b)).copied()
    }

    /// Every known `(host, hops)` from `a`, ascending by host — one range
    /// scan instead of one [`StaticDistances::get`] per candidate.
    pub fn row(&self, a: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.hops.range((a, 0)..=(a, u32::MAX)).map(|(&(_, b), &hops)| (b, hops))
    }
}

/// The ranking engine: owns the estimators, the indexed path engine with
/// its reusable scratch buffers and path cache, and baseline state.
#[derive(Debug, Clone)]
pub struct Ranker {
    delay: DelayEstimator,
    bandwidth: BandwidthEstimator,
    distances: Arc<StaticDistances>,
    rng: SmallRng,
    /// One shared allocation: the estimators hold clones of this `Arc`,
    /// not clones of the config itself.
    cfg: Arc<CoreConfig>,
    engine: PathEngine,
    /// Scratch for [`Ranker::rank_detailed_into`]: estimates of pathless
    /// candidates, kept across calls so the warm-up fallback allocates
    /// nothing in steady state.
    pathless: Vec<RankedServer>,
}

impl Ranker {
    /// Build a ranker. `distances` feeds the Nearest baseline; `seed`
    /// drives the Random baseline. Both `cfg` and `distances` accept
    /// owned values or pre-shared `Arc`s. `INT_PATH_CACHE=0` (or `off`)
    /// in the environment force-disables the path cache — a determinism
    /// A/B switch; results are identical either way.
    pub fn new(
        cfg: impl Into<Arc<CoreConfig>>,
        distances: impl Into<Arc<StaticDistances>>,
        seed: u64,
    ) -> Self {
        let cfg = cfg.into();
        let mut engine = PathEngine::new();
        if matches!(
            std::env::var("INT_PATH_CACHE").as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        ) {
            engine.set_cache_enabled(false);
        }
        Ranker {
            delay: DelayEstimator::new(Arc::clone(&cfg)),
            bandwidth: BandwidthEstimator::new(Arc::clone(&cfg)),
            distances: distances.into(),
            rng: SmallRng::seed_from_u64(seed),
            cfg,
            engine,
            pathless: Vec::new(),
        }
    }

    /// The shared configuration handle (cloning it clones the `Arc`).
    pub fn config_arc(&self) -> Arc<CoreConfig> {
        Arc::clone(&self.cfg)
    }

    /// The shared static-distance table handle.
    pub fn distances_arc(&self) -> Arc<StaticDistances> {
        Arc::clone(&self.distances)
    }

    /// Enable or force-disable the path cache (see [`PathEngine`]).
    pub fn set_path_cache_enabled(&mut self, on: bool) {
        self.engine.set_cache_enabled(on);
    }

    /// Path-engine accounting counters (steady-state tests).
    pub fn path_stats(&self) -> PathEngineStats {
        self.engine.stats()
    }

    /// The path the ranking hot path would use between two nodes — the
    /// indexed engine's answer, owned (tests and diagnostics).
    pub fn learned_path(
        &mut self,
        map: &NetworkMap,
        from: NetNode,
        to: NetNode,
    ) -> Option<Vec<NetNode>> {
        self.engine.path(map, &self.cfg, from, to).map(<[NetNode]>::to_vec)
    }

    /// Rank `candidates` for `requester` under `policy`, best first.
    ///
    /// Candidates the learned map cannot reach are ranked last (worst
    /// estimates), never silently dropped — the requester may still need
    /// them if every server is unreachable during warm-up.
    pub fn rank(
        &mut self,
        map: &NetworkMap,
        requester: u32,
        candidates: &[u32],
        policy: Policy,
        now_ns: u64,
    ) -> Vec<RankedServer> {
        let mut out = Vec::new();
        self.rank_into(map, requester, candidates, policy, now_ns, &mut out);
        out
    }

    /// [`Ranker::rank`] into a caller-owned buffer: the steady-state query
    /// path (warm path cache, reused buffer) performs zero heap
    /// allocations.
    pub fn rank_into(
        &mut self,
        map: &NetworkMap,
        requester: u32,
        candidates: &[u32],
        policy: Policy,
        now_ns: u64,
        out: &mut Vec<RankedServer>,
    ) {
        out.clear();
        out.reserve(candidates.len());
        for &host in candidates {
            let est = self.estimate(map, requester, host, now_ns);
            out.push(est);
        }
        self.sort(out, requester, policy);
    }

    /// Failure-aware ranking: candidates the map has no live path to, or
    /// whose probes went silent (`silent`, from the collector), are set
    /// aside with an explicit reason instead of being ranked on ghost
    /// telemetry.
    ///
    /// The baselines ignore telemetry and therefore exclude nothing — the
    /// asymmetry the failover experiment measures. As a warm-up escape
    /// hatch, if *no* candidate has a path and none is silent (an empty
    /// map, not a failure), everyone is ranked as [`Ranker::rank`] would.
    ///
    /// `silent` must be sorted ascending (as
    /// [`crate::collector::IntCollector::silent_origins`] returns it) —
    /// membership is a binary search.
    pub fn rank_detailed(
        &mut self,
        map: &NetworkMap,
        requester: u32,
        candidates: &[u32],
        policy: Policy,
        now_ns: u64,
        silent: &[u32],
    ) -> RankOutcome {
        let mut out = RankOutcome::default();
        self.rank_detailed_into(map, requester, candidates, policy, now_ns, silent, &mut out);
        out
    }

    /// [`Ranker::rank_detailed`] into a caller-owned outcome: all scratch
    /// (including the warm-up `pathless` estimates) is engine-owned, so
    /// the steady-state query path performs zero heap allocations.
    #[allow(clippy::too_many_arguments)]
    pub fn rank_detailed_into(
        &mut self,
        map: &NetworkMap,
        requester: u32,
        candidates: &[u32],
        policy: Policy,
        now_ns: u64,
        silent: &[u32],
        out: &mut RankOutcome,
    ) {
        debug_assert!(silent.windows(2).all(|w| w[0] <= w[1]), "silent must be sorted");
        out.ranked.clear();
        out.excluded.clear();
        if matches!(policy, Policy::Nearest | Policy::Random) {
            self.rank_into(map, requester, candidates, policy, now_ns, &mut out.ranked);
            return;
        }

        // Estimates of the pathless candidates, kept so the warm-up
        // fallback can reuse them instead of re-estimating from scratch.
        let mut pathless = std::mem::take(&mut self.pathless);
        pathless.clear();
        out.ranked.reserve(candidates.len());
        for &host in candidates {
            if silent.binary_search(&host).is_ok() {
                out.excluded.push((host, ExcludeReason::OriginSilent));
                continue;
            }
            let est = self.estimate(map, requester, host, now_ns);
            if est.est_delay_ns == u64::MAX {
                out.excluded.push((host, ExcludeReason::NoFreshPath));
                pathless.push(est);
            } else {
                out.ranked.push(est);
            }
        }

        if out.ranked.is_empty()
            && out.excluded.iter().all(|(_, r)| *r == ExcludeReason::NoFreshPath)
        {
            // The map knows no paths at all: warm-up, not a failure. Every
            // candidate's estimate is already in `pathless` (nobody was
            // silent); rank those instead of recomputing each one.
            out.ranked.extend_from_slice(&pathless);
            out.excluded.clear();
            self.sort(&mut out.ranked, requester, policy);
            self.pathless = pathless;
            return;
        }

        self.sort(&mut out.ranked, requester, policy);
        out.excluded.sort_unstable_by_key(|(h, _)| *h);
        self.pathless = pathless;
    }

    /// Estimate one candidate. With `k_paths == 1` (the default) the path
    /// is computed **once** via the indexed engine and fed to both
    /// estimators — the delay and bandwidth figures always describe the
    /// same route (and the engine's shared SSSP means all candidates of
    /// one query reuse a single Dijkstra). With `k_paths > 1` every
    /// candidate path is priced and the cheapest wins: ties break to the
    /// lowest path index, and both reported figures come from the *same*
    /// winning path.
    ///
    /// Reachable totals are clamped to `u64::MAX - 1`: `u64::MAX` is the
    /// no-fresh-path sentinel, and a saturated-but-reachable estimate
    /// must rank worst, not read as unreachable.
    fn estimate(&mut self, map: &NetworkMap, requester: u32, host: u32, now_ns: u64) -> RankedServer {
        if self.cfg.k_paths <= 1 {
            return match self.engine.path(map, &self.cfg, NetNode::Host(requester), NetNode::Host(host))
            {
                None => RankedServer { host, est_delay_ns: u64::MAX, est_bandwidth_bps: 0 },
                Some(path) => RankedServer {
                    host,
                    est_delay_ns: self
                        .delay
                        .estimate_along(map, path, now_ns)
                        .total_ns()
                        .min(u64::MAX - 1),
                    est_bandwidth_bps: self.bandwidth.estimate_along(map, path, now_ns),
                },
            };
        }
        let paths =
            self.engine.paths(map, &self.cfg, NetNode::Host(requester), NetNode::Host(host));
        let mut best_delay = u64::MAX;
        let mut best_bw = 0;
        for path in paths {
            let d = self.delay.estimate_along(map, path, now_ns).total_ns().min(u64::MAX - 1);
            if d < best_delay {
                best_delay = d;
                best_bw = self.bandwidth.estimate_along(map, path, now_ns);
            }
        }
        RankedServer { host, est_delay_ns: best_delay, est_bandwidth_bps: best_bw }
    }

    fn sort(&mut self, out: &mut [RankedServer], requester: u32, policy: Policy) {
        // All sort keys include the host id, so every key is unique and
        // `sort_unstable` orders exactly as the stable sort did — without
        // the stable sort's scratch allocation on larger candidate sets.
        match policy {
            Policy::IntDelay => {
                out.sort_unstable_by_key(|s| (s.est_delay_ns, s.host));
            }
            Policy::IntBandwidth => {
                // Bandwidth estimates are coarse (a piecewise curve over
                // integer queue lengths), so ties are common; break them by
                // estimated delay, then host id, instead of herding every
                // equal-bandwidth query onto the lowest host id.
                out.sort_unstable_by_key(|s| {
                    (std::cmp::Reverse(s.est_bandwidth_bps), s.est_delay_ns, s.host)
                });
            }
            Policy::Nearest => {
                out.sort_unstable_by_key(|s| {
                    (self.distances.get(requester, s.host).unwrap_or(u32::MAX), s.host)
                });
            }
            Policy::Random => {
                out.shuffle(&mut self.rng);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use int_packet::int::IntRecord;
    use int_packet::ProbePayload;

    fn rec(switch_id: u32, maxq: u32, ts_ms: u64) -> IntRecord {
        IntRecord {
            switch_id,
            ingress_port: 0,
            egress_port: 1,
            max_qlen_pkts: maxq,
            qlen_at_probe_pkts: 0,
            link_latency_ns: 10_000_000,
            egress_ts_ns: ts_ms * 1_000_000,
        }
    }

    /// Scheduler host 6. Server 1 behind congested switch 10 (q=20);
    /// server 2 behind idle switch 12; both join switch 11 next to 6.
    fn map() -> NetworkMap {
        let mut m = NetworkMap::new();
        let mut p1 = ProbePayload::new(1, 1, 0);
        p1.int.push(rec(10, 20, 11));
        p1.int.push(rec(11, 0, 22));
        m.apply_probe(&p1, 6, 32_000_000);
        let mut p2 = ProbePayload::new(2, 1, 0);
        p2.int.push(rec(12, 0, 11));
        p2.int.push(rec(11, 0, 22));
        m.apply_probe(&p2, 6, 32_000_000);
        m
    }

    fn distances() -> StaticDistances {
        let mut d = StaticDistances::new();
        d.set(6, 1, 3);
        d.set(6, 2, 5); // nearest would pick 1 even though it is congested
        d
    }

    #[test]
    fn int_delay_prefers_uncongested_server() {
        let mut r = Ranker::new(CoreConfig::default(), distances(), 1);
        let ranked = r.rank(&map(), 6, &[1, 2], Policy::IntDelay, 32_000_000);
        assert_eq!(ranked[0].host, 2, "uncongested server wins: {ranked:?}");
        assert!(ranked[0].est_delay_ns < ranked[1].est_delay_ns);
    }

    #[test]
    fn int_bandwidth_prefers_higher_available_bw() {
        let mut r = Ranker::new(CoreConfig::default(), distances(), 1);
        let ranked = r.rank(&map(), 6, &[1, 2], Policy::IntBandwidth, 32_000_000);
        assert_eq!(ranked[0].host, 2);
        assert!(ranked[0].est_bandwidth_bps > ranked[1].est_bandwidth_bps);
    }

    #[test]
    fn nearest_ignores_congestion() {
        let mut r = Ranker::new(CoreConfig::default(), distances(), 1);
        let ranked = r.rank(&map(), 6, &[1, 2], Policy::Nearest, 32_000_000);
        assert_eq!(ranked[0].host, 1, "nearest picks the congested-but-close server");
    }

    #[test]
    fn random_is_seed_deterministic() {
        let rank_with = |seed| {
            let mut r = Ranker::new(CoreConfig::default(), distances(), seed);
            r.rank(&map(), 6, &[1, 2], Policy::Random, 0)
                .iter()
                .map(|s| s.host)
                .collect::<Vec<_>>()
        };
        assert_eq!(rank_with(7), rank_with(7));
        // Over several draws with different seeds both orders appear.
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..16 {
            seen.insert(rank_with(seed));
        }
        assert!(seen.len() > 1, "random actually varies across seeds");
    }

    #[test]
    fn unreachable_candidates_rank_last() {
        let mut r = Ranker::new(CoreConfig::default(), distances(), 1);
        let ranked = r.rank(&map(), 6, &[99, 2], Policy::IntDelay, 32_000_000);
        assert_eq!(ranked[0].host, 2);
        assert_eq!(ranked[1].host, 99);
        assert_eq!(ranked[1].est_delay_ns, u64::MAX);
        assert_eq!(ranked[1].est_bandwidth_bps, 0);
    }

    #[test]
    fn rank_detailed_excludes_silent_and_pathless_with_reasons() {
        let mut r = Ranker::new(CoreConfig::default(), distances(), 1);
        // 99 has no telemetry at all; 1 is marked silent by the collector.
        let out =
            r.rank_detailed(&map(), 6, &[1, 2, 99], Policy::IntDelay, 32_000_000, &[1]);
        assert_eq!(out.ranked.len(), 1);
        assert_eq!(out.ranked[0].host, 2);
        assert_eq!(
            out.excluded,
            vec![(1, ExcludeReason::OriginSilent), (99, ExcludeReason::NoFreshPath)]
        );
    }

    #[test]
    fn rank_detailed_warm_up_falls_back_to_plain_ranking() {
        // Empty map, nobody silent: every candidate is pathless, which is
        // ignorance, not failure — rank them all.
        let mut r = Ranker::new(CoreConfig::default(), StaticDistances::new(), 1);
        let out = r.rank_detailed(&NetworkMap::new(), 6, &[5, 3], Policy::IntDelay, 0, &[]);
        assert_eq!(out.ranked.len(), 2);
        assert!(out.excluded.is_empty());

        // But one silent origin among pathless candidates is a failure
        // signal, not warm-up.
        let mut r = Ranker::new(CoreConfig::default(), StaticDistances::new(), 1);
        let out = r.rank_detailed(&NetworkMap::new(), 6, &[5, 3], Policy::IntDelay, 0, &[3]);
        assert_eq!(
            out.excluded,
            vec![(3, ExcludeReason::OriginSilent), (5, ExcludeReason::NoFreshPath)]
        );
        assert!(out.ranked.is_empty(), "pathless peers stay out once failure is evident");
    }

    #[test]
    fn rank_detailed_baselines_never_exclude() {
        let mut r = Ranker::new(CoreConfig::default(), distances(), 1);
        for policy in [Policy::Nearest, Policy::Random] {
            let out = r.rank_detailed(&map(), 6, &[1, 2], policy, 32_000_000, &[1]);
            assert_eq!(out.ranked.len(), 2, "{policy:?} ignores telemetry silence");
            assert!(out.excluded.is_empty());
        }
    }

    #[test]
    fn rank_detailed_matches_rank_when_healthy() {
        let mut a = Ranker::new(CoreConfig::default(), distances(), 1);
        let mut b = Ranker::new(CoreConfig::default(), distances(), 1);
        let plain = a.rank(&map(), 6, &[1, 2], Policy::IntDelay, 32_000_000);
        let detailed = b.rank_detailed(&map(), 6, &[1, 2], Policy::IntDelay, 32_000_000, &[]);
        assert_eq!(plain, detailed.ranked);
        assert!(detailed.excluded.is_empty());
    }

    /// Regression (Ranker::estimate used to run two independent Dijkstras
    /// per candidate): the single shared path must yield exactly the
    /// estimates two independent point-to-point computations produce.
    #[test]
    fn delay_and_bandwidth_estimates_match_independent_computations() {
        use crate::estimate::{BandwidthEstimator, DelayEstimator};
        let m = map();
        let cfg = CoreConfig::default();
        let mut r = Ranker::new(cfg.clone(), distances(), 1);
        let ranked = r.rank(&m, 6, &[1, 2], Policy::IntDelay, 32_000_000);

        let de = DelayEstimator::new(cfg.clone());
        let be = BandwidthEstimator::new(cfg);
        for s in &ranked {
            let d = de.estimate(&m, NetNode::Host(6), NetNode::Host(s.host), 32_000_000);
            let b = be.estimate(&m, NetNode::Host(6), NetNode::Host(s.host), 32_000_000);
            assert_eq!(s.est_delay_ns, d.unwrap().total_ns(), "host {}", s.host);
            assert_eq!(s.est_bandwidth_bps, b.unwrap(), "host {}", s.host);
        }
    }

    /// One query = one SSSP shared by all candidates and both estimators;
    /// repeat queries against an unchanged map do no traversal work at
    /// all (pool-style steady-state accounting, as in PR 1).
    #[test]
    fn query_shares_one_sssp_and_steady_state_does_no_work() {
        let m = map();
        let mut r = Ranker::new(CoreConfig::default(), distances(), 1);
        r.rank(&m, 6, &[1, 2], Policy::IntDelay, 32_000_000);
        let s = r.path_stats();
        assert_eq!(s.sssp_runs, 1, "2 candidates × 2 estimators share one Dijkstra");
        assert_eq!(s.csr_rebuilds, 1);

        let mut out = Vec::new();
        for _ in 0..50 {
            r.rank_into(&m, 6, &[1, 2], Policy::IntDelay, 32_000_000, &mut out);
            r.rank_into(&m, 6, &[1, 2], Policy::IntBandwidth, 32_000_000, &mut out);
        }
        let s2 = r.path_stats();
        assert_eq!(s2.sssp_runs, 1, "steady state never re-runs Dijkstra");
        assert_eq!(s2.csr_rebuilds, 1, "…nor rebuilds the CSR");
        assert_eq!(s2.cache_misses, s.cache_misses, "…nor misses the path cache");
        assert_eq!(s2.cache_hits, s.cache_hits + 200, "every steady-state path is a hit");
    }

    /// The ranking hot path and the reference `NetworkMap::path` agree on
    /// routes even as telemetry updates and evictions churn the map.
    #[test]
    fn learned_path_tracks_oracle_through_churn() {
        let mut m = map();
        let cfg = CoreConfig::default();
        let mut r = Ranker::new(cfg.clone(), distances(), 1);
        let check = |r: &mut Ranker, m: &NetworkMap| {
            for (from, to) in [(6u32, 1u32), (6, 2), (1, 2), (1, 99)] {
                let oracle = m.path(&cfg, NetNode::Host(from), NetNode::Host(to));
                let got = r.learned_path(m, NetNode::Host(from), NetNode::Host(to));
                assert_eq!(got, oracle, "{from}->{to}");
            }
        };
        check(&mut r, &m);
        // Metric churn on an existing edge.
        let mut p = ProbePayload::new(1, 9, 0);
        p.int.push(rec(10, 50, 11));
        p.int.push(rec(11, 3, 22));
        m.apply_probe(&p, 6, 64_000_000);
        check(&mut r, &m);
        // Structural churn: evict everything, then relearn one branch.
        m.evict_stale(64_000_000 + 10_000_000_001, 10_000_000_000);
        check(&mut r, &m);
        let mut p = ProbePayload::new(2, 9, 0);
        p.int.push(rec(12, 0, 11));
        p.int.push(rec(11, 0, 22));
        m.apply_probe(&p, 6, 64_000_000 + 10_100_000_000);
        check(&mut r, &m);
    }

    #[test]
    fn ties_break_by_host_id() {
        // Empty map: every candidate unreachable ⇒ equal keys ⇒ id order.
        let mut r = Ranker::new(CoreConfig::default(), StaticDistances::new(), 1);
        let ranked = r.rank(&NetworkMap::new(), 6, &[5, 3, 9], Policy::IntDelay, 0);
        let hosts: Vec<u32> = ranked.iter().map(|s| s.host).collect();
        assert_eq!(hosts, vec![3, 5, 9]);
    }
}
