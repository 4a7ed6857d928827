//! Edge-server ranking policies.
//!
//! The two INT-driven policies from the paper (§III-C delay, §III-D
//! bandwidth) plus the two baselines it compares against (§IV): *Nearest*
//! (static hop count, precomputed) and *Random* (seeded load spreading).
//!
//! This module holds the vocabulary every ranking speaks ([`Policy`],
//! [`RankedServer`], [`RankOutcome`], [`StaticDistances`]) and [`Ranker`],
//! the **reference** implementation over the live map that tests
//! compare the serving stack ([`crate::snapshot`]) against.

use crate::collector::IntCollector;
use crate::config::CoreConfig;
use crate::estimate::{BandwidthEstimator, DelayEstimator};
use crate::map::{NetNode, NetworkMap};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A ranking policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RankedServer {
    /// The edge server's host id.
    pub host: u32,
    /// Estimated one-way delay from the requester, ns.
    pub est_delay_ns: u64,
    /// Estimated available path bandwidth, bit/s.
    pub est_bandwidth_bps: u64,
}

/// Why a candidate was left out of an INT-based ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
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
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct RankOutcome {
    /// Usable candidates, best first.
    pub ranked: Vec<RankedServer>,
    /// Excluded candidates with the reason, in host-id order.
    pub excluded: Vec<(u32, ExcludeReason)>,
}

/// Static information the baselines need: hop counts between hosts,
/// computed ahead of time exactly as the paper's Nearest policy assumes.
#[derive(Debug, Clone, Default, Serialize)]
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

/// The reference IntDelay order (Algorithm 1): lowest estimated delay
/// first, then host id.
pub(crate) fn delay_key(s: &RankedServer) -> (u64, u32) {
    (s.est_delay_ns, s.host)
}

/// The reference IntBandwidth order (§III-D): widest bottleneck first.
/// Bandwidth estimates are coarse (a piecewise curve over integer queue
/// lengths), so ties are common; they break by estimated delay, then host
/// id, instead of herding every equal-bandwidth query onto the lowest
/// host id.
pub(crate) fn bandwidth_key(s: &RankedServer) -> (Reverse<u64>, u64, u32) {
    (Reverse(s.est_bandwidth_bps), s.est_delay_ns, s.host)
}

/// The reference Nearest order: fewest static hops (`hops`, unknown last),
/// then host id.
pub(crate) fn nearest_key(hops: Option<u32>, s: &RankedServer) -> (u32, u32) {
    (hops.unwrap_or(u32::MAX), s.host)
}

/// **The reference ranker** — the paper's rule written the obvious way,
/// straight over the live [`NetworkMap`]: one [`NetworkMap::path`] (or
/// [`NetworkMap::k_paths`]) per candidate, priced by the two estimators,
/// then sorted. O(N·E) per query and allocation-happy by design.
///
/// Nothing in `sched`, `shard`, `snapshot`, `apps` or the experiments'
/// run paths calls this: queries are served from epoch snapshots
/// ([`crate::sched::SchedulerCore`]). `tests/proptest_core.rs`,
/// `tests/shard_determinism.rs` and the snapshot and sustained-load unit
/// tests hold the serving stack to this implementation, answer for
/// answer — except
/// [`Policy::Random`], where the reference draws from one sequential RNG
/// stream and serving derives a shuffle per `(seed, epoch, slot)`.
#[derive(Debug, Clone)]
pub struct Ranker {
    delay: DelayEstimator,
    bandwidth: BandwidthEstimator,
    distances: Arc<StaticDistances>,
    rng: SmallRng,
    cfg: Arc<CoreConfig>,
}

impl Ranker {
    /// Build a ranker. `distances` feeds the Nearest baseline; `seed`
    /// drives the Random baseline. Both `cfg` and `distances` accept
    /// owned values or pre-shared `Arc`s.
    pub fn new(
        cfg: impl Into<Arc<CoreConfig>>,
        distances: impl Into<Arc<StaticDistances>>,
        seed: u64,
    ) -> Self {
        let cfg = cfg.into();
        Ranker {
            delay: DelayEstimator::new(Arc::clone(&cfg)),
            bandwidth: BandwidthEstimator::new(Arc::clone(&cfg)),
            distances: distances.into(),
            rng: SmallRng::seed_from_u64(seed),
            cfg,
        }
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
        let mut out: Vec<RankedServer> =
            candidates.iter().map(|&host| self.estimate(map, requester, host, now_ns)).collect();
        self.sort(&mut out, requester, policy);
        out
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
    pub fn rank_detailed(
        &mut self,
        map: &NetworkMap,
        requester: u32,
        candidates: &[u32],
        policy: Policy,
        now_ns: u64,
        silent: &[u32],
    ) -> RankOutcome {
        if matches!(policy, Policy::Nearest | Policy::Random) {
            let ranked = self.rank(map, requester, candidates, policy, now_ns);
            return RankOutcome { ranked, excluded: Vec::new() };
        }

        let mut out = RankOutcome::default();
        for &host in candidates {
            if silent.contains(&host) {
                out.excluded.push((host, ExcludeReason::OriginSilent));
                continue;
            }
            let est = self.estimate(map, requester, host, now_ns);
            if est.est_delay_ns == u64::MAX {
                out.excluded.push((host, ExcludeReason::NoFreshPath));
            } else {
                out.ranked.push(est);
            }
        }
        if out.ranked.is_empty()
            && out.excluded.iter().all(|(_, r)| *r == ExcludeReason::NoFreshPath)
        {
            // The map knows no paths at all: warm-up, not a failure.
            out.ranked = self.rank(map, requester, candidates, policy, now_ns);
            out.excluded.clear();
            return out;
        }
        self.sort(&mut out.ranked, requester, policy);
        out.excluded.sort_unstable_by_key(|(h, _)| *h);
        out
    }

    /// What [`crate::sched::SchedulerCore`] must answer for this query
    /// given `collector`'s state (already evicted at `now_ns`, which the
    /// scheduler does on every query): every known host but the requester
    /// is a candidate, and origins silent beyond the configured horizon
    /// are excluded.
    pub fn answer(
        &mut self,
        collector: &IntCollector,
        requester: u32,
        policy: Policy,
        now_ns: u64,
    ) -> RankOutcome {
        let silent = collector.silent_origins(now_ns, self.cfg.origin_silence_ns);
        let candidates: Vec<u32> = collector.map().hosts().filter(|&h| h != requester).collect();
        self.rank_detailed(collector.map(), requester, &candidates, policy, now_ns, &silent)
    }

    /// Estimate one candidate: every path of its reference k-set (just
    /// [`NetworkMap::path`] at the default `k_paths == 1`) is priced and
    /// the cheapest wins. Ties break to the lowest path index, and both
    /// reported figures come from the *same* winning path.
    ///
    /// Reachable totals are clamped to `u64::MAX - 1`: `u64::MAX` is the
    /// no-fresh-path sentinel, and a saturated-but-reachable estimate
    /// must rank worst, not read as unreachable.
    fn estimate(&self, map: &NetworkMap, requester: u32, host: u32, now_ns: u64) -> RankedServer {
        let (from, to) = (NetNode::Host(requester), NetNode::Host(host));
        let mut best = RankedServer { host, est_delay_ns: u64::MAX, est_bandwidth_bps: 0 };
        for path in &map.k_paths(from, to, self.cfg.k_paths) {
            let d = self.delay.estimate_along(map, path, now_ns).total_ns().min(u64::MAX - 1);
            if d < best.est_delay_ns {
                best.est_delay_ns = d;
                best.est_bandwidth_bps = self.bandwidth.estimate_along(map, path, now_ns);
            }
        }
        best
    }

    fn sort(&mut self, out: &mut [RankedServer], requester: u32, policy: Policy) {
        // Every key but Random's ends in the host id, so keys are unique
        // and the order does not depend on the sort's stability.
        match policy {
            Policy::IntDelay => out.sort_unstable_by_key(delay_key),
            Policy::IntBandwidth => out.sort_unstable_by_key(bandwidth_key),
            Policy::Nearest => {
                out.sort_unstable_by_key(|s| nearest_key(self.distances.get(requester, s.host), s));
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

    /// One path per candidate feeds both estimators: the figures equal
    /// two independent point-to-point computations.
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

    #[test]
    fn ties_break_by_host_id() {
        // Empty map: every candidate unreachable ⇒ equal keys ⇒ id order.
        let mut r = Ranker::new(CoreConfig::default(), StaticDistances::new(), 1);
        let ranked = r.rank(&NetworkMap::new(), 6, &[5, 3, 9], Policy::IntDelay, 0);
        let hosts: Vec<u32> = ranked.iter().map(|s| s.host).collect();
        assert_eq!(hosts, vec![3, 5, 9]);
    }
}
