//! Sharded, snapshot-based rank serving.
//!
//! [`ShardedScheduler`] splits the scheduler control plane in two:
//!
//! * an **ingest half** — the wrapped [`SchedulerCore`], which keeps
//!   mutating the live map (probe harvest, host registration, eviction)
//!   and freezes it into an immutable [`SchedSnapshot`] whenever a
//!   generation moved;
//! * a **read half** — N worker shards, each owning a private
//!   [`SnapshotScratch`], serving `rank_detailed` queries against the
//!   current snapshot through an [`EpochSlot`]. Readers never take a
//!   lock the publisher holds while it builds (the build happens
//!   entirely outside the slot; publication is a store), and the
//!   publisher never waits for readers (shards clone the `Arc` out of
//!   the slot and drop it when done).
//!
//! **Determinism.** Queries are admitted in batches. Every query in a
//! batch is evaluated against the *same* snapshot (the one current when
//! `serve_batch` is entered) and carries a pre-assigned global slot
//! number: its absolute position in the scheduler's query stream. The
//! batch is split into contiguous chunks of `ceil(len / workers)` — the
//! same discipline as `experiments::par` — so slot numbers, and
//! therefore results, are independent of the worker count: worker
//! boundaries move, slot assignments don't. Because snapshot evaluation
//! is a pure function of `(snapshot, query, slot)`, the outcome vector
//! is byte-identical for 1, 2, or 8 shards, and equal to what the
//! wrapped core — or the reference ranker over the live map — answers at
//! the same map state. Within its chunk a shard serves in `(query time,
//! tree root)` order, so queries that share a root and a time reuse one
//! price table (its shared IntDelay and IntBandwidth orders outlive the
//! chunk, see [`crate::snapshot`]); each outcome still lands at its
//! admission position with its pre-assigned slot, so the order changes
//! no answer.

use crate::config::CoreConfig;
use crate::rank::{Policy, RankOutcome, StaticDistances};
use crate::sched::SchedulerCore;
use crate::snapshot::{PublishStats, SchedSnapshot, SnapshotScratch};
use int_packet::ProbePayload;
use int_obs::{Labels, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One admitted rank query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankQuery {
    /// The requesting edge device's host id.
    pub requester: u32,
    /// Ranking policy to apply.
    pub policy: Policy,
    /// Query time on the collector clock, ns.
    pub now_ns: u64,
}

/// The publication point between the ingest half and the read shards.
///
/// The publisher stores a new snapshot `Arc` and then advances the
/// epoch counter with `Release`; readers check the counter with
/// `Acquire` and only touch the slot's mutex when the epoch moved, so
/// the steady-state read path is one atomic load plus an `Arc` the
/// shard already holds. The mutex is held only for the duration of an
/// `Arc` clone or store — never while building a snapshot or serving a
/// query — so neither side can block the other for meaningful time.
#[derive(Debug, Default)]
pub struct EpochSlot {
    /// Epoch of the snapshot currently in `slot` (0 = none published).
    epoch: AtomicU64,
    slot: Mutex<Option<Arc<SchedSnapshot>>>,
}

impl EpochSlot {
    /// An empty slot (no snapshot published yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish `snap` as the current snapshot.
    pub fn publish(&self, snap: Arc<SchedSnapshot>) {
        let epoch = snap.epoch();
        *self.slot.lock().expect("epoch slot poisoned") = Some(snap);
        self.epoch.store(epoch, Ordering::Release);
    }

    /// Epoch of the currently published snapshot (0 if none). This is a
    /// fast-path hint: a reader holding a snapshot of this epoch knows
    /// it is (momentarily) current without touching the slot.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current snapshot, refreshing `cached` only if the epoch moved
    /// past it. Returns `false` while nothing has been published.
    pub fn refresh(&self, cached: &mut Option<Arc<SchedSnapshot>>) -> bool {
        let current = self.epoch.load(Ordering::Acquire);
        if current == 0 {
            return false;
        }
        match cached {
            Some(s) if s.epoch() >= current => true,
            _ => {
                *cached = self.slot.lock().expect("epoch slot poisoned").clone();
                cached.is_some()
            }
        }
    }

    /// The current snapshot, if any (allocating convenience wrapper).
    pub fn current(&self) -> Option<Arc<SchedSnapshot>> {
        let mut c = None;
        self.refresh(&mut c);
        c
    }
}

/// One worker shard: a cached snapshot `Arc` plus private scratch.
#[derive(Debug, Default)]
struct RankShard {
    scratch: SnapshotScratch,
    cached: Option<Arc<SchedSnapshot>>,
    served: u64,
    /// The chunk's serve order: `(query time, tree root, position)`,
    /// sorted (capacity kept across batches).
    order: Vec<(u64, u32, u32)>,
}

/// The sharded scheduler control plane: ingest + publish (the wrapped
/// core) + N read shards.
pub struct ShardedScheduler {
    core: SchedulerCore,
    slot: Arc<EpochSlot>,
    shards: Vec<Mutex<RankShard>>,
    /// Global query counter: the next query's slot number.
    queries_total: u64,
    metrics: MetricsRegistry,
}

impl ShardedScheduler {
    /// A sharded scheduler on `scheduler_host` with `shards` read workers
    /// (clamped to ≥1).
    pub fn new(
        scheduler_host: u32,
        cfg: impl Into<Arc<CoreConfig>>,
        distances: impl Into<Arc<StaticDistances>>,
        seed: u64,
        shards: usize,
    ) -> Self {
        let core = SchedulerCore::new(scheduler_host, cfg, distances, seed);
        let n = shards.max(1);
        ShardedScheduler {
            core,
            slot: Arc::new(EpochSlot::new()),
            shards: (0..n).map(|_| Mutex::new(RankShard::default())).collect(),
            queries_total: 0,
            metrics: MetricsRegistry::new(),
        }
    }

    /// The wrapped ingest half (probe ingest, host registration, audit).
    pub fn core(&self) -> &SchedulerCore {
        &self.core
    }

    /// Mutable access to the ingest half. Mutations become visible to
    /// the read shards at the next [`ShardedScheduler::advance`].
    pub fn core_mut(&mut self) -> &mut SchedulerCore {
        &mut self.core
    }

    /// Number of read shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Epoch of the most recently published snapshot (0 = none yet).
    pub fn epoch(&self) -> u64 {
        self.slot.current_epoch()
    }

    /// Total queries admitted so far (the next query's slot number).
    pub fn queries_total(&self) -> u64 {
        self.queries_total
    }

    /// The publication point, for external readers (e.g. a churn test's
    /// concurrent query threads) that want to follow epochs themselves.
    pub fn epoch_slot(&self) -> Arc<EpochSlot> {
        Arc::clone(&self.slot)
    }

    /// Snapshot-publish counters and per-shard serving histograms.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable metrics access (enable/disable, export merging).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Run eviction at `now_ns`, let the core publish a fresh snapshot if
    /// anything about the map changed since its last one (see
    /// `SchedulerCore::advance` for the key), and hand the core's current
    /// epoch to the read shards. Returns `true` if they got a new epoch.
    pub fn advance(&mut self, now_ns: u64) -> bool {
        self.core.advance(now_ns);
        let snap = self.core.snapshot().expect("advance publishes");
        let epoch = snap.epoch();
        if self.slot.current_epoch() == epoch {
            return false;
        }
        self.slot.publish(Arc::clone(snap));
        self.metrics.counter_inc("sched_snapshot_publishes", Labels::none());
        self.metrics.gauge_set("sched_epoch", Labels::none(), epoch as i64, now_ns);
        true
    }

    /// Drain a probe backlog into the collector and publish (at most)
    /// one epoch covering all of it — the batched ingest entry point for
    /// epoch-paced scenarios, instead of interleaving one publish per
    /// probe. Returns `true` if a new epoch was published.
    pub fn ingest_batch<'a, I>(&mut self, probes: I, now_ns: u64) -> bool
    where
        I: IntoIterator<Item = &'a ProbePayload>,
    {
        self.core.collector_mut().ingest_batch(probes, now_ns);
        self.advance(now_ns)
    }

    /// Full vs incremental publish counters.
    pub fn publish_stats(&self) -> PublishStats {
        self.core.publish_stats()
    }

    /// Turn incremental publication off (every epoch a full rebuild — the
    /// reference benches and the determinism tests compare against) or
    /// back on.
    pub fn set_incremental_publish(&mut self, on: bool) {
        self.core.set_incremental_publish(on);
    }

    /// Serve a batch of queries against the current snapshot, one
    /// outcome per query (same order). With no snapshot published yet
    /// every outcome is empty — call [`ShardedScheduler::advance`]
    /// first.
    ///
    /// The batch is split into contiguous chunks of `ceil(len / n)` and
    /// each chunk is served by one shard — chunk 0 on the calling thread,
    /// the rest on one scoped thread each. Query *i* carries global slot
    /// `queries_total + i` regardless of which shard serves it, so the
    /// outcome vector is identical for any shard count.
    pub fn serve_batch(&mut self, queries: &[RankQuery], out: &mut Vec<RankOutcome>) {
        out.resize(queries.len(), RankOutcome::default());
        if queries.is_empty() {
            return;
        }
        let tag_base = self.queries_total;
        self.queries_total += queries.len() as u64;
        let n = self.shards.len().min(queries.len());
        let chunk = queries.len().div_ceil(n);

        if n <= 1 {
            serve_chunk(&self.slot, &self.shards[0], queries, out, tag_base);
        } else {
            std::thread::scope(|scope| {
                let slot = &self.slot;
                let shards = &self.shards;
                let mut chunks =
                    queries.chunks(chunk).zip(out.chunks_mut(chunk)).enumerate();
                // Chunk 0 is the caller's: n − 1 threads, nobody idles.
                let (_, (qs0, os0)) = chunks.next().expect("batch is non-empty");
                for (i, (qs, os)) in chunks {
                    let base = tag_base + (i * chunk) as u64;
                    scope.spawn(move || serve_chunk(slot, &shards[i], qs, os, base));
                }
                serve_chunk(slot, &shards[0], qs0, os0, tag_base);
            });
        }

        if self.metrics.enabled() {
            // Gauges are stamped on the collector clock: the batch's latest query time.
            let at_ns = queries.iter().map(|q| q.now_ns).max().expect("batch is non-empty");
            for (i, shard) in self.shards.iter().enumerate() {
                let served = shard.lock().expect("shard poisoned").served;
                self.metrics.gauge_set(
                    "shard_queries_served",
                    Labels::one("shard", i as u64),
                    served as i64,
                    at_ns,
                );
            }
            self.metrics.histogram_record(
                "sched_batch_size",
                Labels::none(),
                queries.len() as u64,
            );
        }
    }
}

/// Serve a contiguous chunk on one shard. `tag_base` is the global slot
/// number of `queries[0]`. Queries run in `(query time, tree root)` order
/// (see the module docs); query `j`'s outcome goes to `out[j]` with slot
/// `tag_base + j` whatever its turn.
fn serve_chunk(
    slot: &EpochSlot,
    shard: &Mutex<RankShard>,
    queries: &[RankQuery],
    out: &mut [RankOutcome],
    tag_base: u64,
) {
    let mut shard = shard.lock().expect("shard poisoned");
    let RankShard { scratch, cached, served, order } = &mut *shard;
    if !slot.refresh(cached) {
        // Nothing published yet: every outcome is empty, whatever a
        // reused `out` held before.
        for o in out.iter_mut() {
            o.ranked.clear();
            o.excluded.clear();
        }
        return;
    }
    let snap = cached.as_ref().expect("refresh returned true");
    order.clear();
    order.extend(
        queries.iter().zip(0u32..).map(|(q, j)| (q.now_ns, snap.serve_root(q.requester), j)),
    );
    order.sort_unstable();
    for &(_, _, j) in order.iter() {
        let (q, o) = (&queries[j as usize], &mut out[j as usize]);
        snap.rank_detailed_into(scratch, q.requester, q.policy, q.now_ns, tag_base + u64::from(j), o);
    }
    *served += queries.len() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::Ranker;
    use int_packet::int::IntRecord;
    use int_packet::ProbePayload;

    fn rec(switch_id: u32, maxq: u32, ts_ms: u64) -> IntRecord {
        IntRecord {
            switch_id,
            ingress_port: 0,
            egress_port: 1,
            max_qlen_pkts: maxq,
            qlen_at_probe_pkts: maxq / 2,
            link_latency_ns: 10_000_000,
            egress_ts_ns: ts_ms * 1_000_000,
        }
    }

    fn probe(origin: u32, seq: u64, chain: &[(u32, u32)]) -> ProbePayload {
        let mut p = ProbePayload::new(origin, seq, 0);
        for (i, &(sw, q)) in chain.iter().enumerate() {
            p.int.push(rec(sw, q, (i as u64 + 1) * 11));
        }
        p
    }

    fn sharded(n: usize) -> ShardedScheduler {
        let mut s = ShardedScheduler::new(
            6,
            CoreConfig::default(),
            StaticDistances::new(),
            42,
            n,
        );
        s.core_mut().collector_mut().ingest(&probe(1, 1, &[(10, 20), (11, 0)]), 32_000_000);
        s.core_mut().collector_mut().ingest(&probe(2, 1, &[(12, 0), (11, 0)]), 32_000_000);
        s
    }

    fn queries(count: usize, now: u64) -> Vec<RankQuery> {
        (0..count)
            .map(|i| RankQuery {
                requester: 6,
                policy: match i % 3 {
                    0 => Policy::IntDelay,
                    1 => Policy::IntBandwidth,
                    _ => Policy::Nearest,
                },
                now_ns: now + (i as u64) * 1_000,
            })
            .collect()
    }

    #[test]
    fn advance_publishes_only_on_change() {
        let mut s = sharded(2);
        assert!(s.advance(32_000_000), "first advance publishes");
        assert_eq!(s.epoch(), 1);
        assert!(!s.advance(33_000_000), "no ingest, no new epoch");
        s.core_mut().collector_mut().ingest(&probe(1, 2, &[(10, 5), (11, 0)]), 34_000_000);
        assert!(s.advance(34_000_000), "new probe forces a publish");
        assert_eq!(s.epoch(), 2);
    }

    #[test]
    fn empty_record_probe_still_publishes() {
        // A probe with no INT records moves neither generation, but it
        // refreshes the origin's last_rx_ns — silence exclusion depends
        // on it, so it must reach the snapshot.
        let mut s = sharded(1);
        s.advance(32_000_000);
        let before = s.epoch();
        s.core_mut().collector_mut().ingest(&ProbePayload::new(1, 9, 0), 35_000_000);
        assert!(s.advance(35_000_000));
        assert_eq!(s.epoch(), before + 1);
    }

    #[test]
    fn batch_results_match_reference_and_are_shard_count_invariant() {
        let now = 32_000_000;
        let qs = queries(64, now);

        // The reference ranker over the live map, evicted at `now` as
        // `advance` leaves it.
        let mut live = sharded(1);
        live.advance(now);
        let mut reference = Ranker::new(CoreConfig::default(), StaticDistances::new(), 42);
        let want: Vec<RankOutcome> = qs
            .iter()
            .map(|q| reference.answer(live.core().collector(), q.requester, q.policy, q.now_ns))
            .collect();

        let mut baseline: Option<Vec<RankOutcome>> = None;
        for n in [1usize, 2, 3, 8] {
            let mut s = sharded(n);
            s.advance(now);
            let mut got = Vec::new();
            s.serve_batch(&qs, &mut got);
            assert_eq!(got, want, "shards={n} vs reference");
            match &baseline {
                None => baseline = Some(got),
                Some(b) => assert_eq!(&got, b, "shards={n} vs shards=1"),
            }
        }
    }

    #[test]
    fn slot_numbers_survive_multiple_batches() {
        let mut s = sharded(2);
        s.advance(32_000_000);
        let qs = queries(10, 32_000_000);
        let mut out = Vec::new();
        s.serve_batch(&qs, &mut out);
        assert_eq!(s.queries_total(), 10);
        s.serve_batch(&qs[..3], &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(s.queries_total(), 13);
    }

    /// With nothing published every outcome is empty, in a fresh `out`
    /// and in a reused one. Regression: an unserved chunk used to return
    /// before touching its outcomes, so a reused `out` came back holding
    /// the previous batch's answers.
    #[test]
    fn serve_before_publish_yields_empty_outcomes() {
        let qs = queries(4, 32_000_000);
        let (mut fresh, mut reused) = (Vec::new(), Vec::new());
        let mut published = sharded(2);
        published.advance(32_000_000);
        published.serve_batch(&qs, &mut reused);
        assert!(reused.iter().all(|o| !o.ranked.is_empty()), "the pre-filled answers are real");
        for out in [&mut fresh, &mut reused] {
            sharded(2).serve_batch(&qs, out);
            assert_eq!(out.len(), 4);
            assert!(out.iter().all(|o| o.ranked.is_empty() && o.excluded.is_empty()), "{out:?}");
        }
    }

    /// The shards serve the core's own epochs: a query answered by the
    /// core directly republishes inside the core, and the next `advance`
    /// forwards that epoch instead of building a second one.
    #[test]
    fn advance_forwards_epochs_the_core_published_itself() {
        let mut s = sharded(2);
        s.advance(32_000_000);
        s.core_mut().collector_mut().ingest(&probe(1, 2, &[(10, 5), (11, 0)]), 34_000_000);
        let direct = s.core_mut().rank_detailed_with(6, Policy::IntDelay, 34_000_000);
        assert_eq!(s.epoch(), 1, "the shards still serve epoch 1");
        assert!(s.advance(34_000_000), "the core's epoch 2 reaches the shards");
        assert_eq!(s.epoch(), 2);
        assert_eq!(s.publish_stats().full_builds + s.publish_stats().incremental_builds, 2);
        let mut out = Vec::new();
        s.serve_batch(&[RankQuery { requester: 6, policy: Policy::IntDelay, now_ns: 34_000_000 }], &mut out);
        assert_eq!(out[0], direct);
    }

    #[test]
    fn publish_metrics_exported() {
        let mut s = sharded(2);
        s.metrics_mut().set_enabled(true);
        s.advance(32_000_000);
        s.core_mut().collector_mut().ingest(&probe(1, 2, &[(10, 1), (11, 0)]), 33_000_000);
        s.advance(33_000_000);
        assert_eq!(s.metrics().counter("sched_snapshot_publishes", Labels::none()), 2);
        assert_eq!(s.metrics().gauge("sched_epoch", Labels::none()), Some(2));
        let mut out = Vec::new();
        s.serve_batch(&queries(8, 33_000_000), &mut out);
        assert_eq!(
            s.metrics().gauge("shard_queries_served", Labels::one("shard", 0)),
            Some(4)
        );
        assert_eq!(
            s.metrics().gauge("shard_queries_served", Labels::one("shard", 1)),
            Some(4)
        );
        // Stamped with the batch's latest query time, not its first slot
        // number (0 here): queries(8, t) ask at t, t + 1 µs, …, t + 7 µs.
        let json = s.metrics().snapshot_json();
        for shard in 0..2 {
            let want = format!(r#""shard_queries_served{{shard={shard}}}":{{"value":4,"at_ns":33007000}}"#);
            assert!(json.contains(&want), "{want} not in {json}");
        }
    }

    #[test]
    fn epoch_slot_refresh_is_idempotent_and_epoch_keyed() {
        let s = {
            let mut s = sharded(1);
            s.advance(32_000_000);
            s
        };
        let slot = s.epoch_slot();
        assert_eq!(slot.current_epoch(), 1);
        let mut cached = None;
        assert!(slot.refresh(&mut cached));
        let first = Arc::clone(cached.as_ref().unwrap());
        assert!(slot.refresh(&mut cached), "second refresh is a no-op");
        assert!(Arc::ptr_eq(&first, cached.as_ref().unwrap()));
    }
}
