//! Sharded, snapshot-based rank serving.
//!
//! [`ShardedScheduler`] splits the scheduler control plane in two:
//!
//! * an **ingest half** — the wrapped [`SchedulerCore`], which keeps
//!   mutating the live map (probe harvest, host registration, eviction)
//!   and freezes it into an immutable [`SchedSnapshot`] whenever a
//!   generation moved;
//! * a **read half** — N shards, each owning a private
//!   [`SnapshotScratch`], serving `rank_detailed` queries against the
//!   current snapshot, which each batch reads once through an
//!   [`EpochSlot`]. Readers never take a lock the publisher holds while
//!   it builds (the build happens entirely outside the slot; publication
//!   is a store), and the publisher never waits for readers (they clone
//!   the `Arc` out of the slot and drop it when done).
//!
//! **Determinism.** Queries are admitted in batches. Every query in a
//! batch is evaluated against the *same* snapshot (the one current when
//! `serve_batch` is entered) and carries a pre-assigned global slot
//! number: its absolute position in the scheduler's query stream. The
//! calling thread sorts the whole batch once into `(query time, serving
//! root, position)` order and cuts that order into `n` equal pieces of
//! `ceil(len / n)` queries, one per shard. Which shard serves a query —
//! and in which turn — therefore depends on the shard count, but its
//! slot does not, and because snapshot evaluation is a pure function of
//! `(snapshot, query, slot)`, the outcome vector is byte-identical for 1,
//! 2, or 8 shards, and equal to what the wrapped core — or the reference
//! ranker over the live map — answers at the same map state.
//!
//! **Why the root order.** Queries that share a serving root (the
//! requester, or the switch a single-homed requester hangs off) share its
//! shortest-path tree, price table and ranked IntDelay and IntBandwidth
//! orders (see [`crate::snapshot`]), and a shard builds those in its own
//! scratch. Cutting the root order instead of the admission order keeps
//! each root's run on one shard: a root is built twice only when its run
//! crosses a cut, so at most `n − 1` roots per batch are built by two
//! shards, and every other root by exactly one.
//!
//! **Workers.** Pieces 1.. go to `n − 1` worker threads (`int-shard-<i>`)
//! that start on the first batch with more than one piece and live until
//! the scheduler drops; piece 0 is served on the calling thread. A worker
//! is handed its shard's state (scratch and outcome buffers),
//! the snapshot `Arc` and its piece by value over a bounded channel, and
//! hands them back the same way, so nothing borrowed crosses a thread and
//! the buffers' capacity circulates: a warm batch allocates nothing. One
//! shard never starts a thread.

use crate::config::CoreConfig;
use crate::rank::{Policy, RankOutcome, StaticDistances};
use crate::sched::SchedulerCore;
use crate::snapshot::{PublishStats, SchedSnapshot, SnapshotScratch};
use int_packet::ProbePayload;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

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

/// One shard's serving state. It is owned by whichever thread serves
/// with it: the scheduler between batches, a worker while that worker
/// serves its piece.
#[derive(Debug, Default)]
struct RankShard {
    scratch: SnapshotScratch,
    /// The shard's piece of the batch: each query with its slot number
    /// (capacity kept across batches; empty for shard 0, which reads the
    /// batch in place).
    piece: Vec<(RankQuery, u64)>,
    /// The piece's outcomes, in piece order. The caller swaps them into
    /// its own outcomes, so capacity circulates instead of being freed.
    out: Vec<RankOutcome>,
}

impl RankShard {
    /// Serve the whole piece against `snap` into `out`.
    fn serve_piece(&mut self, snap: &SchedSnapshot) {
        let RankShard { scratch, piece, out } = self;
        if out.len() < piece.len() {
            out.resize_with(piece.len(), RankOutcome::default);
        }
        for (&(q, slot), o) in piece.iter().zip(out.iter_mut()) {
            snap.rank_detailed_into(scratch, q.requester, q.policy, q.now_ns, slot, o);
        }
    }
}

/// A shard's state and the snapshot to serve its piece against: what
/// travels to a worker and back.
struct Job {
    shard: RankShard,
    snap: Arc<SchedSnapshot>,
}

/// One worker thread and its two bounded channels: jobs out, served jobs
/// back. At most one job is in flight per worker, so no send waits for
/// room, and a bounded channel allocates its one slot when it is made
/// (an unbounded one allocates a block every 31 messages).
struct Worker {
    jobs: SyncSender<Job>,
    done: Receiver<Job>,
    thread: JoinHandle<()>,
}

impl Worker {
    /// Start the worker for shard `i`. It serves every job it receives
    /// and sends it back, and exits when either channel closes.
    fn start(i: usize) -> Worker {
        let (jobs, inbox) = sync_channel::<Job>(1);
        let (outbox, done) = sync_channel::<Job>(1);
        let thread = std::thread::Builder::new()
            .name(format!("int-shard-{i}"))
            .spawn(move || {
                for mut job in inbox {
                    job.shard.serve_piece(&job.snap);
                    if outbox.send(job).is_err() {
                        return;
                    }
                }
            })
            .expect("failed to start a shard worker thread");
        Worker { jobs, done, thread }
    }
}

/// The sharded scheduler control plane: ingest + publish (the wrapped
/// core) + N read shards.
pub struct ShardedScheduler {
    core: SchedulerCore,
    slot: Arc<EpochSlot>,
    /// The snapshot the last batch was served against.
    cached: Option<Arc<SchedSnapshot>>,
    /// Each shard's state; `None` only for a shard whose worker died
    /// holding it.
    shards: Vec<Option<RankShard>>,
    /// Shards 1..'s workers, started on the first batch that needs them.
    workers: Vec<Worker>,
    /// The batch's serve order: `(query time, serving root, position)`,
    /// sorted (capacity kept across batches).
    order: Vec<(u64, u32, u32)>,
    /// Global query counter: the next query's slot number.
    queries_total: u64,
}

// The scheduler moves between threads with its workers; nothing in it
// may pin it to the thread that built it.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ShardedScheduler>()
};

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
            cached: None,
            shards: (0..n).map(|_| Some(RankShard::default())).collect(),
            workers: Vec::new(),
            order: Vec::new(),
            queries_total: 0,
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
    /// reference `tests/invariance.rs`'s sustained full-rebuild run
    /// compares against) or back on.
    pub fn set_incremental_publish(&mut self, on: bool) {
        self.core.set_incremental_publish(on);
    }

    /// Serve a batch of queries against the current snapshot, one
    /// outcome per query (same order). With no snapshot published yet
    /// every outcome is empty and no worker starts — call
    /// [`ShardedScheduler::advance`] first.
    ///
    /// The batch is sorted once into `(query time, serving root,
    /// position)` order and cut into `n` pieces of `ceil(len / n)`
    /// queries; piece 0 is served on the calling thread, pieces 1.. on
    /// the shards' worker threads, which start on the first batch that
    /// needs them. Query *i* carries global slot `queries_total + i`
    /// whichever shard serves it and in whichever turn, so the outcome
    /// vector is identical for any shard count.
    ///
    /// # Panics
    ///
    /// If a shard's worker thread panicked: this batch (and every later
    /// one) panics, naming the worker, instead of waiting for it.
    pub fn serve_batch(&mut self, queries: &[RankQuery], out: &mut Vec<RankOutcome>) {
        out.resize(queries.len(), RankOutcome::default());
        if queries.is_empty() {
            return;
        }
        let tag_base = self.queries_total;
        self.queries_total += queries.len() as u64;
        if self.slot.refresh(&mut self.cached) {
            self.serve_pieces(queries, out, tag_base);
        } else {
            // Nothing published yet: every outcome is empty, whatever a
            // reused `out` held before.
            for o in out.iter_mut() {
                o.ranked.clear();
                o.excluded.clear();
            }
        }
    }

    /// Serve a non-empty batch against the snapshot `serve_batch` just
    /// refreshed: sort it into root order, hand pieces 1.. to the
    /// workers, serve piece 0 here, then take each worker's outcomes
    /// back. Query `j`'s outcome lands in `out[j]` with slot
    /// `tag_base + j`.
    fn serve_pieces(&mut self, queries: &[RankQuery], out: &mut [RankOutcome], tag_base: u64) {
        let ShardedScheduler { cached, shards, workers, order, .. } = self;
        let snap = cached.as_ref().expect("serve_batch refreshed the snapshot");
        order.clear();
        order.extend(
            queries.iter().zip(0u32..).map(|(q, j)| (q.now_ns, snap.serve_root(q.requester), j)),
        );
        order.sort_unstable();
        let chunk = queries.len().div_ceil(shards.len().min(queries.len()));
        let slot_of = |j: u32| tag_base + u64::from(j);

        for (i, piece) in order.chunks(chunk).enumerate().skip(1) {
            if workers.len() < i {
                workers.push(Worker::start(i));
            }
            let mut shard = shards[i].take().unwrap_or_else(|| worker_died(i));
            shard.piece.clear();
            shard.piece.extend(piece.iter().map(|&(_, _, j)| (queries[j as usize], slot_of(j))));
            let job = Job { shard, snap: Arc::clone(snap) };
            if workers[i - 1].jobs.send(job).is_err() {
                worker_died(i);
            }
        }

        let first = &order[..chunk];
        let scratch = &mut shards[0].as_mut().expect("shard 0 never leaves the calling thread").scratch;
        for &(_, _, j) in first {
            let (q, o) = (&queries[j as usize], &mut out[j as usize]);
            snap.rank_detailed_into(scratch, q.requester, q.policy, q.now_ns, slot_of(j), o);
        }

        for (i, piece) in order.chunks(chunk).enumerate().skip(1) {
            let Ok(Job { mut shard, .. }) = workers[i - 1].done.recv() else {
                worker_died(i)
            };
            for (&(_, _, j), o) in piece.iter().zip(shard.out.iter_mut()) {
                std::mem::swap(&mut out[j as usize], o);
            }
            shards[i] = Some(shard);
        }
    }
}

impl Drop for ShardedScheduler {
    /// Close every worker's job channel and join its thread. A worker
    /// that panicked has already failed a batch, so its join error is
    /// not raised a second time.
    fn drop(&mut self) {
        for Worker { jobs, thread, .. } in self.workers.drain(..) {
            drop(jobs);
            let _ = thread.join();
        }
    }
}

/// Shard `i`'s worker closed its channel: it panicked serving a piece,
/// and the shard's state went down with it.
#[cold]
fn worker_died(i: usize) -> ! {
    panic!("shard worker int-shard-{i} panicked; its shard's state is lost")
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
        assert_eq!(published.workers.len(), 1, "the published batch started a worker");
        for out in [&mut fresh, &mut reused] {
            let mut unpublished = sharded(2);
            unpublished.serve_batch(&qs, out);
            assert_eq!(out.len(), 4);
            assert!(out.iter().all(|o| o.ranked.is_empty() && o.excluded.is_empty()), "{out:?}");
            assert!(unpublished.workers.is_empty(), "nothing to serve, no worker started");
        }
    }

    /// Hosts 0–15, four on each of leaves 30–33, all joined by spine 20
    /// next to scheduler host 100, published: every host's serving root
    /// is its leaf.
    fn leafy(n: usize) -> ShardedScheduler {
        let mut s = ShardedScheduler::new(100, CoreConfig::default(), StaticDistances::new(), 42, n);
        for h in 0..16 {
            let p = probe(h, 1, &[(30 + h / 4, h % 5), (20, 3)]);
            s.core_mut().collector_mut().ingest(&p, 32_000_000);
        }
        s.advance(32_000_000);
        s
    }

    /// The mechanism the root-ordered cut buys, counted. The batch asks
    /// every host in admission order, twice, so at 2 and 3 shards each
    /// admission-order chunk would ask every leaf and each shard would
    /// grow all four leaves' trees (`n × roots` Dijkstras). Cut in root
    /// order, a root is grown twice only where its run crosses a cut:
    /// at most `roots + n − 1` Dijkstras over all shards.
    #[test]
    fn root_cut_grows_each_tree_once_except_at_the_cuts() {
        const ROOTS: u64 = 4;
        let now = 32_000_000;
        let qs: Vec<RankQuery> = (0..64u32)
            .map(|i| RankQuery {
                requester: i % 16,
                policy: if i % 2 == 0 { Policy::IntDelay } else { Policy::IntBandwidth },
                now_ns: now,
            })
            .collect();
        for n in [1usize, 2, 3, 8] {
            let mut s = leafy(n);
            let mut out = Vec::new();
            s.serve_batch(&qs, &mut out);
            assert!(out.iter().all(|o| !o.ranked.is_empty()), "shards={n}");
            let stats: Vec<_> =
                s.shards.iter().map(|sh| sh.as_ref().expect("home").scratch.stats()).collect();
            let served: Vec<u64> = stats.iter().map(|st| st.queries).collect();
            let pieces: Vec<u64> = qs.chunks(qs.len().div_ceil(n)).map(|c| c.len() as u64).collect();
            assert_eq!(served, pieces, "shards={n}: each shard serves its piece");
            let grown: u64 = stats.iter().map(|st| st.sssp_runs).sum();
            let cuts = n as u64 - 1;
            assert!(grown <= ROOTS + cuts, "shards={n}: {grown} Dijkstras for {ROOTS} roots");
            assert_eq!(s.workers.len(), n - 1, "one worker per piece past the first");

            // The admission-order cut this replaces, on fresh scratch per chunk.
            if n == 2 || n == 3 {
                let snap = s.epoch_slot().current().expect("published");
                let chunked: u64 = qs
                    .chunks(qs.len().div_ceil(n))
                    .map(|chunk| {
                        let mut scratch = SnapshotScratch::new();
                        for q in chunk {
                            snap.rank_detailed(&mut scratch, q.requester, q.policy, now, 0);
                        }
                        scratch.stats().sssp_runs
                    })
                    .sum();
                assert_eq!(chunked, n as u64 * ROOTS, "shards={n}: every chunk grows every root");
            }
        }
    }

    /// A worker that dies closes its channels: the batch it was serving
    /// panics naming it instead of waiting, so does every later batch
    /// (its shard's state went down with it), and the scheduler still
    /// drops.
    #[test]
    fn a_dead_worker_fails_the_batch_instead_of_hanging() {
        let mut s = sharded(2);
        s.advance(32_000_000);
        let qs = queries(8, 32_000_000);
        let mut out = Vec::new();
        s.serve_batch(&qs, &mut out);
        // Swap in a worker that panics on its first job.
        let (jobs, inbox) = sync_channel::<Job>(1);
        let (outbox, done) = sync_channel::<Job>(1);
        let thread = std::thread::spawn(move || {
            let _outbox = outbox;
            let _job = inbox.recv();
            panic!("injected shard worker failure");
        });
        let started = std::mem::replace(&mut s.workers[0], Worker { jobs, done, thread });
        drop(started.jobs);
        started.thread.join().expect("the started worker exits when its jobs close");
        for batch in 0..2 {
            let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s.serve_batch(&qs, &mut out);
            }))
            .expect_err("a dead worker fails the batch");
            let msg = failed.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("int-shard-1"), "batch {batch}: {msg:?}");
        }
        drop(s);
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
