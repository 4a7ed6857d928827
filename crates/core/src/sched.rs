//! The scheduler frontend (paper Fig. 1): accepts edge-device queries and
//! answers with ranked candidate edge servers.
//!
//! [`SchedulerCore`] is a thin façade over the one serving stack: probes
//! go into the [`IntCollector`]; every query evicts stale telemetry at
//! its `now`, republishes an epoch snapshot iff anything moved since the
//! last one (O(dirty) through the [`SnapshotPublisher`]), and is answered
//! by [`SchedSnapshot::rank_detailed_into`] with the core's own scratch.
//! [`crate::shard::ShardedScheduler`] serves the very same epochs from N
//! shards.

use crate::collector::IntCollector;
use crate::config::CoreConfig;
use crate::map::NetNode;
use crate::rank::{Policy, RankOutcome, RankedServer, StaticDistances};
use crate::snapshot::{PublishStats, SchedSnapshot, SnapshotPublisher, SnapshotScratch};
use int_obs::{CandidateEstimate, DecisionAudit, DecisionRecord};
use std::sync::Arc;

/// Serving-work counters of one [`SchedulerCore`]: what its scratch and
/// publisher did so far (see [`crate::snapshot::SnapshotServeStats`] for
/// what a cache lookup is).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Times the structure (CSR adjacency + edge↔arc tables) was
    /// re-frozen: once per publish that found the topology moved.
    pub csr_rebuilds: u64,
    /// Epochs published — each reprices the arcs that changed.
    pub weight_refreshes: u64,
    /// Single-source Dijkstra executions.
    pub sssp_runs: u64,
    /// Shortest-path-tree (or k-set) lookups that hit.
    pub cache_hits: u64,
    /// Shortest-path-tree (or k-set) lookups that missed.
    pub cache_misses: u64,
}

impl PathStats {
    /// Export the counters as gauges into a metrics registry (last-write
    /// wins, so repeated exports never double-count). The series keep
    /// their historical `pathidx_*` names.
    pub fn export(&self, metrics: &mut int_obs::MetricsRegistry, at_ns: u64) {
        use int_obs::Labels;
        let series: [(&'static str, u64); 5] = [
            ("pathidx_csr_rebuilds", self.csr_rebuilds),
            ("pathidx_weight_refreshes", self.weight_refreshes),
            ("pathidx_sssp_runs", self.sssp_runs),
            ("pathidx_cache_hits", self.cache_hits),
            ("pathidx_cache_misses", self.cache_misses),
        ];
        for (name, v) in series {
            metrics.gauge_set(name, Labels::none(), v as i64, at_ns);
        }
    }
}

/// The complete scheduler state: collector, epoch publisher, and the
/// scratch queries are evaluated with.
pub struct SchedulerCore {
    collector: IntCollector,
    /// Shared with every published snapshot (and so with every shard of
    /// the sharded plane): one allocation for the whole control plane.
    cfg: Arc<CoreConfig>,
    distances: Arc<StaticDistances>,
    /// Base seed of the Random baseline's per-query shuffle.
    seed: u64,
    publisher: SnapshotPublisher,
    /// The epoch queries are answered from (none before the first query).
    current: Option<Arc<SchedSnapshot>>,
    /// `(topology_generation, metrics_generation, probes_accepted)` at
    /// the last publish — republishing is keyed on this triple.
    published_key: Option<(u64, u64, u64)>,
    scratch: SnapshotScratch,
    /// Queries answered so far: the next query's slot number.
    queries: u64,
    /// Decision audit trail (disabled by default: one branch per query).
    audit: DecisionAudit,
}

impl SchedulerCore {
    /// Scheduler on `scheduler_host` with the given configuration.
    /// `distances` feeds the Nearest baseline; `seed` the Random baseline.
    /// `cfg` and `distances` accept owned values or pre-shared `Arc`s.
    pub fn new(
        scheduler_host: u32,
        cfg: impl Into<Arc<CoreConfig>>,
        distances: impl Into<Arc<StaticDistances>>,
        seed: u64,
    ) -> Self {
        let cfg = cfg.into();
        let mut collector = IntCollector::new(scheduler_host);
        collector.map_mut().set_qlen_retention(cfg.qlen_window_ns);
        SchedulerCore {
            collector,
            cfg,
            distances: distances.into(),
            seed,
            publisher: SnapshotPublisher::new(),
            current: None,
            published_key: None,
            scratch: SnapshotScratch::new(),
            queries: 0,
            audit: DecisionAudit::default(),
        }
    }

    /// The decision audit trail (disabled unless
    /// [`SchedulerCore::set_audit_enabled`] turned it on).
    pub fn audit(&self) -> &DecisionAudit {
        &self.audit
    }

    /// Enable or disable per-query decision auditing.
    pub fn set_audit_enabled(&mut self, on: bool) {
        self.audit.set_enabled(on);
    }

    /// The configuration this scheduler runs with.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// The shared configuration handle.
    pub fn config_arc(&self) -> Arc<CoreConfig> {
        Arc::clone(&self.cfg)
    }

    /// The shared static-distance table handle (Nearest baseline).
    pub fn distances_arc(&self) -> Arc<StaticDistances> {
        Arc::clone(&self.distances)
    }

    /// Serving-work counters (steady-state and invalidation tests, the
    /// `audit` artifact).
    pub fn path_stats(&self) -> PathStats {
        let serve = self.scratch.stats();
        let publish = self.publisher.stats();
        PathStats {
            csr_rebuilds: publish.csr_builds,
            weight_refreshes: publish.full_builds + publish.incremental_builds,
            sssp_runs: serve.sssp_runs,
            cache_hits: serve.cache_hits,
            cache_misses: serve.cache_misses,
        }
    }

    /// Full vs incremental publish counters.
    pub(crate) fn publish_stats(&self) -> PublishStats {
        self.publisher.stats()
    }

    /// Turn incremental publication off (every epoch a full rebuild — the
    /// reference the determinism tests compare against) or back on.
    pub(crate) fn set_incremental_publish(&mut self, on: bool) {
        self.publisher.set_incremental(on);
    }

    /// Evict telemetry older than the eviction horizon at `now_ns`, then
    /// publish a new epoch iff the map or the collector moved since the
    /// last one. The key is the `(topology_generation,
    /// metrics_generation, probes_accepted)` triple: `probes_accepted`
    /// catches ingest that only touched per-origin accounting (a probe
    /// with no records still refreshes `last_rx_ns`, which feeds the
    /// silence exclusion).
    pub(crate) fn advance(&mut self, now_ns: u64) {
        self.collector.map_mut().evict_stale(now_ns, self.cfg.eviction_horizon_ns);
        let map = self.collector.map();
        let key =
            (map.topology_generation(), map.metrics_generation(), self.collector.probes_accepted());
        if self.published_key == Some(key) {
            return;
        }
        let epoch = self.current.as_ref().map_or(0, |s| s.epoch()) + 1;
        self.current = Some(self.publisher.publish(
            &mut self.collector,
            &self.cfg,
            &self.distances,
            self.seed,
            epoch,
            now_ns,
        ));
        self.published_key = Some(key);
    }

    /// The epoch queries are currently answered from.
    pub(crate) fn snapshot(&self) -> Option<&Arc<SchedSnapshot>> {
        self.current.as_ref()
    }

    /// The route rankings at `now_ns` price between two hosts (tests and
    /// diagnostics; agrees with `NetworkMap::path` by construction).
    pub fn learned_path(&mut self, from: u32, to: u32, now_ns: u64) -> Option<Vec<NetNode>> {
        self.advance(now_ns);
        let snap = self.current.as_ref().expect("advance publishes");
        snap.path(&mut self.scratch, NetNode::Host(from), NetNode::Host(to))
    }

    /// The telemetry collector (probe ingest + learned map).
    pub fn collector(&self) -> &IntCollector {
        &self.collector
    }

    /// Mutable access to the collector (probe ingest). Changes reach the
    /// rankings at the next query.
    pub fn collector_mut(&mut self) -> &mut IntCollector {
        &mut self.collector
    }

    /// Ingest a probe payload received over the network.
    pub fn on_probe(&mut self, payload: &[u8], now_ns: u64) {
        let _ = self.collector.ingest_bytes(payload, now_ns);
    }

    /// Register a host as a known candidate without waiting for probes —
    /// required for the baseline policies, which run with INT disabled and
    /// therefore never learn hosts from telemetry.
    pub fn register_host(&mut self, host: u32) {
        self.collector.map_mut().register_host(host);
    }

    /// Rank under an explicit policy (INT-based or baseline), best
    /// candidate first, reporting exclusions (Fig. 1 steps 3–4).
    ///
    /// Failure handling happens here: telemetry older than the eviction
    /// horizon is removed from the map before the epoch is frozen, and
    /// origins silent beyond the silence horizon at `now_ns` are excluded
    /// — a host behind a dead link is never ranked on ghost telemetry.
    pub fn rank_detailed_with(
        &mut self,
        requester: u32,
        policy: Policy,
        now_ns: u64,
    ) -> RankOutcome {
        let mut out = RankOutcome::default();
        self.rank_detailed_into_with(requester, policy, now_ns, &mut out);
        out
    }

    /// [`SchedulerCore::rank_detailed_with`] into a caller-owned outcome
    /// (the zero-alloc query path). The query's slot — which, with the
    /// seed and the epoch, derives the `Policy::Random` shuffle — is its
    /// position in this scheduler's query stream.
    pub fn rank_detailed_into_with(
        &mut self,
        requester: u32,
        policy: Policy,
        now_ns: u64,
        out: &mut RankOutcome,
    ) {
        self.advance(now_ns);
        let snap = self.current.as_ref().expect("advance publishes");
        snap.rank_detailed_into(&mut self.scratch, requester, policy, now_ns, self.queries, out);
        self.queries += 1;
        if self.audit.enabled() {
            self.audit.record(DecisionRecord {
                at_ns: now_ns,
                requester,
                policy: policy.name(),
                chosen: out.ranked.first().map(|r| r.host),
                ranked: out
                    .ranked
                    .iter()
                    .map(|r| CandidateEstimate {
                        host: r.host,
                        est_delay_ns: r.est_delay_ns,
                        est_bandwidth_bps: r.est_bandwidth_bps,
                    })
                    .collect(),
                excluded: out.excluded.iter().map(|(h, r)| (*h, r.as_str())).collect(),
            });
        }
    }

    /// The paper's second serving option (§III-B): an *unsorted* list of
    /// every candidate with its estimated delay and bandwidth, so the edge
    /// device can run its own selection algorithm. Candidates come back in
    /// ascending host-id order (ids are unique, so the unstable sort is
    /// exact), carrying the same estimates the `IntDelay` ranking sorts by.
    pub fn candidates_with_estimates(&mut self, requester: u32, now_ns: u64) -> Vec<RankedServer> {
        let mut all = self.rank_detailed_with(requester, Policy::IntDelay, now_ns).ranked;
        all.sort_unstable_by_key(|s| s.host);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use int_packet::int::IntRecord;
    use int_packet::wire::WireEncode;
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

    fn core_with_two_servers() -> SchedulerCore {
        let mut d = StaticDistances::new();
        d.set(6, 1, 3);
        d.set(6, 2, 5);
        let mut core = SchedulerCore::new(6, CoreConfig::default(), d, 42);
        // Server 1 congested (switch 10 q=20), server 2 clean.
        let mut p1 = ProbePayload::new(1, 1, 0);
        p1.int.push(rec(10, 20, 11));
        p1.int.push(rec(11, 0, 22));
        core.on_probe(&p1.to_bytes(), 32_000_000);
        let mut p2 = ProbePayload::new(2, 1, 0);
        p2.int.push(rec(12, 0, 11));
        p2.int.push(rec(11, 0, 22));
        core.on_probe(&p2.to_bytes(), 32_000_000);
        core
    }

    #[test]
    fn request_excludes_requester_and_ranks() {
        let mut core = core_with_two_servers();
        let resp = core.rank_detailed_with(6, Policy::IntDelay, 32_000_000).ranked;
        let hosts: Vec<u32> = resp.iter().map(|c| c.host).collect();
        assert_eq!(hosts, vec![2, 1], "clean server first, requester absent");

        let resp = core.rank_detailed_with(1, Policy::IntDelay, 32_000_000).ranked;
        assert!(resp.iter().all(|c| c.host != 1));
    }

    #[test]
    fn bandwidth_request_sorts_by_bandwidth() {
        let mut core = core_with_two_servers();
        let resp = core.rank_detailed_with(6, Policy::IntBandwidth, 32_000_000).ranked;
        assert_eq!(resp[0].host, 2);
        assert!(resp[0].est_bandwidth_bps > resp[1].est_bandwidth_bps);
    }

    #[test]
    fn baseline_policies_available() {
        let mut core = core_with_two_servers();
        let nearest = core.rank_detailed_with(6, Policy::Nearest, 32_000_000).ranked;
        assert_eq!(nearest[0].host, 1, "nearest ignores congestion");
        let random = core.rank_detailed_with(6, Policy::Random, 32_000_000).ranked;
        assert_eq!(random.len(), 2);
    }

    #[test]
    fn empty_map_yields_empty_candidates() {
        let mut core = SchedulerCore::new(6, CoreConfig::default(), StaticDistances::new(), 1);
        assert!(core.rank_detailed_with(6, Policy::IntDelay, 0).ranked.is_empty());
        // Only the scheduler itself is known; a different requester sees it.
        let resp = core.rank_detailed_with(1, Policy::IntDelay, 0).ranked;
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].host, 6);
    }

    #[test]
    fn unsorted_option_returns_all_candidates_with_estimates() {
        let mut core = core_with_two_servers();
        let all = core.candidates_with_estimates(6, 32_000_000);
        let hosts: Vec<u32> = all.iter().map(|s| s.host).collect();
        assert_eq!(hosts, vec![1, 2], "host-id order, not ranked order");
        // Same estimates the sorted path computes.
        let ranked = core.rank_detailed_with(6, Policy::IntDelay, 32_000_000).ranked;
        for s in &all {
            let r = ranked.iter().find(|r| r.host == s.host).unwrap();
            assert_eq!(r.est_delay_ns, s.est_delay_ns);
            assert_eq!(r.est_bandwidth_bps, s.est_bandwidth_bps);
        }
    }

    /// A host whose probes stop arriving is excluded from INT rankings
    /// (origin silence) and comes back as soon as it is heard from again.
    #[test]
    fn silent_host_excluded_until_it_returns() {
        use crate::rank::ExcludeReason;
        let ms = 1_000_000u64;
        let mut core = core_with_two_servers(); // both probed at t=32 ms
        // Only server 2 keeps probing; server 1 goes dark.
        for i in 1..=60u64 {
            let mut p2 = ProbePayload::new(2, 1 + i, 0);
            p2.int.push(rec(12, 0, 11));
            p2.int.push(rec(11, 0, 22));
            core.on_probe(&p2.to_bytes(), 32 * ms + i * 100 * ms);
        }
        let now = 32 * ms + 6_000 * ms; // 6 s ≫ the 3 s silence horizon
        let out = core.rank_detailed_with(6, Policy::IntDelay, now);
        assert_eq!(out.ranked.iter().map(|s| s.host).collect::<Vec<_>>(), vec![2]);
        assert_eq!(out.excluded, vec![(1, ExcludeReason::OriginSilent)]);

        // Server 1 resumes probing: it rejoins the ranking.
        let mut p1 = ProbePayload::new(1, 2, 0);
        p1.int.push(rec(10, 0, 11));
        p1.int.push(rec(11, 0, 22));
        core.on_probe(&p1.to_bytes(), now + 100 * ms);
        let out = core.rank_detailed_with(6, Policy::IntDelay, now + 200 * ms);
        assert_eq!(out.ranked.len(), 2, "recovered host is ranked again: {out:?}");
        assert!(out.excluded.is_empty());
    }

    /// With silence detection effectively off, eviction still removes the
    /// dead host's telemetry from the map, so it is excluded for having no
    /// fresh path — never ranked on ghost measurements.
    #[test]
    fn evicted_telemetry_excludes_host_from_ranking_inputs() {
        use crate::rank::ExcludeReason;
        let ms = 1_000_000u64;
        let cfg = CoreConfig {
            eviction_horizon_ns: 1_000 * ms,
            origin_silence_ns: u64::MAX,
            ..CoreConfig::default()
        };
        let mut d = StaticDistances::new();
        d.set(6, 1, 3);
        d.set(6, 2, 5);
        let mut core = SchedulerCore::new(6, cfg, d, 42);
        let mut p1 = ProbePayload::new(1, 1, 0);
        p1.int.push(rec(10, 0, 11));
        p1.int.push(rec(11, 0, 22));
        core.on_probe(&p1.to_bytes(), 32 * ms);
        // Server 2 keeps probing past the horizon; server 1 does not.
        for i in 1..=30u64 {
            let mut p2 = ProbePayload::new(2, i, 0);
            p2.int.push(rec(12, 0, 11));
            p2.int.push(rec(11, 0, 22));
            core.on_probe(&p2.to_bytes(), 32 * ms + i * 100 * ms);
        }
        let now = 32 * ms + 3_000 * ms;
        let out = core.rank_detailed_with(6, Policy::IntDelay, now);
        assert_eq!(out.ranked.iter().map(|s| s.host).collect::<Vec<_>>(), vec![2]);
        assert_eq!(out.excluded, vec![(1, ExcludeReason::NoFreshPath)]);
        assert!(
            core.collector().map().dead_edges().count() >= 2,
            "the dead path is reported, not silently dropped"
        );

        // Baselines are oblivious: they still schedule onto the dead host.
        let nearest = core.rank_detailed_with(6, Policy::Nearest, now).ranked;
        assert_eq!(nearest.first().map(|s| s.host), Some(1));

        // No stale route survives the eviction; re-learning restores it.
        assert_eq!(core.learned_path(6, 1, now), None, "a dead path must not be served");
        assert!(core.learned_path(6, 2, now).is_some());
        let mut p1 = ProbePayload::new(1, 2, 0);
        p1.int.push(rec(10, 0, 11));
        p1.int.push(rec(11, 0, 22));
        core.on_probe(&p1.to_bytes(), now + 100 * ms);
        let relearned = core.learned_path(6, 1, now + 100 * ms);
        assert_eq!(
            relearned,
            core.collector().map().path(NetNode::Host(6), NetNode::Host(1))
        );
        assert!(relearned.is_some());
    }

    /// The Random baseline through the façade: uniform over candidates,
    /// a pure function of `(seed, epoch, slot)`, different across slots.
    #[test]
    fn random_policy_is_uniform_and_slot_derived() {
        const HOSTS: u32 = 8;
        const QUERIES: u32 = 4_000;
        let fresh = || {
            let mut core = SchedulerCore::new(100, CoreConfig::default(), StaticDistances::new(), 7);
            (0..HOSTS).for_each(|h| core.register_host(h));
            core
        };
        let first_of = |core: &mut SchedulerCore| -> Vec<u32> {
            (0..QUERIES)
                .map(|_| core.rank_detailed_with(100, Policy::Random, 0).ranked[0].host)
                .collect()
        };
        let firsts = first_of(&mut fresh());
        assert_eq!(firsts, first_of(&mut fresh()), "equal (seed, epoch, slot) ⇒ equal order");

        // Each candidate leads with frequency 1/8 ± 3σ (σ² = n·p·(1−p)).
        let (n, p) = (QUERIES as f64, 1.0 / HOSTS as f64);
        let sigma = (n * p * (1.0 - p)).sqrt();
        for h in 0..HOSTS {
            let led = firsts.iter().filter(|&&f| f == h).count() as f64;
            assert!((led - n * p).abs() <= 3.0 * sigma, "host {h} led {led} of {n} queries");
        }

        // One epoch, consecutive slots: the full orders differ.
        let mut core = fresh();
        let orders: std::collections::BTreeSet<Vec<u32>> = (0..16)
            .map(|_| {
                let out = core.rank_detailed_with(100, Policy::Random, 0);
                out.ranked.iter().map(|s| s.host).collect()
            })
            .collect();
        assert!(orders.len() > 8, "the shuffle varies across slots: {}", orders.len());
    }

    /// The audit trail captures what the scheduler believed per query:
    /// candidate estimates, exclusions with reasons, and the chosen host.
    /// Off by default; deterministic JSON once on.
    #[test]
    fn audit_trail_records_decisions() {
        let mut core = core_with_two_servers();
        core.rank_detailed_with(6, Policy::IntDelay, 32_000_000);
        assert_eq!(core.audit().total(), 0, "audit off by default");

        core.set_audit_enabled(true);
        core.rank_detailed_with(6, Policy::IntDelay, 33_000_000);
        let ms = 1_000_000u64;
        // Server 2 keeps probing; server 1 goes silent past the horizon.
        for i in 1..=60u64 {
            let mut p2 = ProbePayload::new(2, 100 + i, 0);
            p2.int.push(rec(12, 0, 11));
            p2.int.push(rec(11, 0, 22));
            core.on_probe(&p2.to_bytes(), 32 * ms + i * 100 * ms);
        }
        core.rank_detailed_with(6, Policy::IntDelay, 32 * ms + 6_000 * ms);

        let records = core.audit().records();
        assert_eq!(records.len(), 2);
        let healthy = &records[0];
        assert_eq!(healthy.requester, 6);
        assert_eq!(healthy.policy, "IntDelay");
        assert_eq!(healthy.chosen, Some(2), "clean server chosen");
        assert_eq!(healthy.ranked.len(), 2);
        assert!(healthy.ranked[0].est_delay_ns < healthy.ranked[1].est_delay_ns);

        let failed = &records[1];
        assert_eq!(failed.chosen, Some(2));
        assert_eq!(failed.excluded, vec![(1, "OriginSilent")]);

        let json = core.audit().to_json();
        assert!(json.contains(r#""reason":"OriginSilent""#), "{json}");
        assert!(json.contains(r#""policy":"IntDelay""#));
    }
}
