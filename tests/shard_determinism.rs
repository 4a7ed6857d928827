//! The sharded control plane's determinism contract (PR 6) under live
//! churn: a writer ingests probes and publishes epochs while reader
//! threads query concurrently, and every answer a reader gets matches the
//! reference `Ranker` over the live map as it stood at the epoch the query
//! was admitted against; `serve_batch` slot numbering does not depend on
//! batch boundaries. (That the `repro sustained` artifact is byte-identical
//! across shard counts, publish strategies and the single-threaded replay
//! is the `sustained` rows of `tests/invariance.rs`.)
//!
//! Build with `RUSTFLAGS="--cfg shard_stress"` (CI does) to multiply
//! the churn iterations and lean harder on the publish/read race paths.

use int_edge_sched::core::rank::{Ranker, StaticDistances};
use int_edge_sched::core::shard::{RankQuery, ShardedScheduler};
use int_edge_sched::core::snapshot::{SchedSnapshot, SnapshotScratch};
use int_edge_sched::core::{CoreConfig, Policy, RankOutcome, SchedulerCore};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[path = "common/probe.rs"]
mod probes;
use probes::{hop, probe};

/// Churn rounds: modest by default, heavy under `--cfg shard_stress`.
fn churn_rounds() -> usize {
    if cfg!(shard_stress) {
        400
    } else {
        60
    }
}

/// The ingest applied at `round`: three origins behind partially shared
/// switches, queue depths churned per round, origin 2 silent in a
/// mid-run window. Each probe crosses two switches, 40 µs apart.
fn ingest_round(core: &mut SchedulerCore, round: usize, rounds: usize) {
    let now = (round as u64 + 1) * 100_000_000;
    let q = |k: usize| ((round * 7 + k * 13) % 32) as u32;
    let send = |core: &mut SchedulerCore, origin: u32, [(s0, q0), (s1, q1)]: [(u32, u32); 2]| {
        let hops = [
            hop(s0, q0, q0 / 2, 8_000_000, now.saturating_sub(80_000)),
            hop(s1, q1, q1 / 2, 8_000_000, now.saturating_sub(40_000)),
        ];
        core.collector_mut().ingest(&probe(origin, round as u64, hops), now);
    };
    send(core, 1, [(10, q(0)), (11, q(1))]);
    if !(rounds / 4..rounds / 2).contains(&round) {
        send(core, 2, [(12, q(2)), (11, q(3))]);
    }
    send(core, 3, [(13, q(4)), (11, q(5))]);
}

fn query_set() -> Vec<RankQuery> {
    let mut qs = Vec::new();
    for requester in [6u32, 1, 3] {
        for policy in [Policy::IntDelay, Policy::IntBandwidth, Policy::Nearest] {
            // now_ns is filled per epoch from the snapshot's publish time.
            qs.push(RankQuery { requester, policy, now_ns: 0 });
        }
    }
    qs
}

fn scheduler_distances() -> StaticDistances {
    let mut d = StaticDistances::new();
    d.set(6, 1, 2);
    d.set(6, 2, 3);
    d.set(6, 3, 4);
    d.set(1, 2, 2);
    d.set(1, 3, 3);
    d.set(2, 3, 2);
    d
}

/// Readers race the publisher and check every answer against the oracle
/// for the epoch their snapshot belongs to.
#[test]
fn concurrent_queries_match_oracle_at_their_admitted_epoch() {
    let rounds = churn_rounds();
    let queries = query_set();

    // Phase 1 — sequential reference: one live map receives the exact
    // ingest stream (`live` is never queried: it only holds the
    // collector); after each round, evict as a query at that round's
    // publish time would and let the reference ranker answer the query
    // set. `oracle_by_round[r]` is the truth for epoch r + 1 (the
    // sharded plane publishes once per round: every round moves
    // `probes_accepted`).
    let mut live = SchedulerCore::new(6, CoreConfig::default(), scheduler_distances(), 9);
    let mut reference = Ranker::new(CoreConfig::default(), scheduler_distances(), 9);
    let mut oracle_by_round: Vec<Vec<RankOutcome>> = Vec::with_capacity(rounds);
    for round in 0..rounds {
        ingest_round(&mut live, round, rounds);
        let now = (round as u64 + 1) * 100_000_000;
        let horizon = live.config().eviction_horizon_ns;
        live.collector_mut().map_mut().evict_stale(now, horizon);
        oracle_by_round.push(
            queries
                .iter()
                .map(|q| reference.answer(live.collector(), q.requester, q.policy, now))
                .collect(),
        );
    }

    // Phase 2 — live: a writer thread replays the same ingest and
    // publishes epochs while readers continuously grab the current
    // snapshot and verify their answers against the oracle row for that
    // snapshot's epoch.
    let mut sched = ShardedScheduler::new(6, CoreConfig::default(), scheduler_distances(), 9, 2);
    let slot = sched.epoch_slot();
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        for _reader in 0..2 {
            let slot = Arc::clone(&slot);
            let done = Arc::clone(&done);
            let queries = &queries;
            let oracle_by_round = &oracle_by_round;
            scope.spawn(move || {
                let mut scratch = SnapshotScratch::new();
                let mut cached = None;
                let mut verified = 0u64;
                let mut last_epoch = 0u64;
                while !done.load(Ordering::Acquire) || last_epoch < rounds as u64 {
                    if !slot.refresh(&mut cached) {
                        std::hint::spin_loop();
                        continue;
                    }
                    let snap = cached.as_ref().expect("refresh returned true");
                    let epoch = snap.epoch();
                    let now = snap.published_at_ns();
                    let want = &oracle_by_round[(epoch - 1) as usize];
                    for (i, q) in queries.iter().enumerate() {
                        let got = snap.rank_detailed(&mut scratch, q.requester, q.policy, now, i as u64);
                        assert_eq!(
                            got, want[i],
                            "epoch {epoch} query {i} diverged from the oracle"
                        );
                        verified += 1;
                    }
                    last_epoch = epoch;
                }
                assert!(verified > 0, "reader never saw a snapshot");
            });
        }

        for round in 0..rounds {
            ingest_round(sched.core_mut(), round, rounds);
            let now = (round as u64 + 1) * 100_000_000;
            assert!(sched.advance(now), "every round must publish (probes moved)");
            assert_eq!(sched.epoch(), round as u64 + 1);
        }
        done.store(true, Ordering::Release);
    });
}

/// `serve_batch` slot numbering is stable across batch boundaries: two
/// half batches equal one full batch, outcome for outcome.
#[test]
fn split_batches_equal_one_batch() {
    let build = || {
        let mut s = ShardedScheduler::new(6, CoreConfig::default(), scheduler_distances(), 9, 2);
        for round in 0..8 {
            ingest_round(s.core_mut(), round, 8);
        }
        s.advance(800_000_000);
        s
    };
    let queries: Vec<RankQuery> = query_set()
        .into_iter()
        .map(|q| RankQuery { now_ns: 800_000_000, ..q })
        .collect();

    let mut whole = Vec::new();
    build().serve_batch(&queries, &mut whole);

    let mut s = build();
    let mut first = Vec::new();
    let mut second = Vec::new();
    let mid = queries.len() / 2;
    s.serve_batch(&queries[..mid], &mut first);
    s.serve_batch(&queries[mid..], &mut second);
    first.extend(second);
    assert_eq!(first, whole, "slot numbering must not depend on batch boundaries");
}

/// One batch whose query times jump back and forth — across the queue
/// window (500 ms) and the staleness and silence horizons (3 s) — while
/// each shard's scratch keeps its per-arc queue prices between queries:
/// at 1 and 2 shards the batch equals the single-threaded core answering
/// the same queries in order.
#[test]
fn mixed_query_times_in_one_batch_match_the_core() {
    const T: u64 = 800_000_000;
    let queries: Vec<RankQuery> = [T, T + 4_000_000_000, T, T + 600_000_000, T - 50_000_000, T]
        .into_iter()
        .flat_map(|now_ns| query_set().into_iter().map(move |q| RankQuery { now_ns, ..q }))
        .collect();

    // The core publishes its one epoch at the first query's time, T; no
    // later query time evicts anything (10 s horizon), so it never moves.
    let mut core = SchedulerCore::new(6, CoreConfig::default(), scheduler_distances(), 9);
    for round in 0..8 {
        ingest_round(&mut core, round, 8);
    }
    let want: Vec<RankOutcome> = queries
        .iter()
        .map(|q| core.rank_detailed_with(q.requester, q.policy, q.now_ns))
        .collect();
    assert_ne!(want[0], want[query_set().len()], "the +4 s answers differ");

    for shards in [1, 2] {
        let mut s = ShardedScheduler::new(6, CoreConfig::default(), scheduler_distances(), 9, shards);
        for round in 0..8 {
            ingest_round(s.core_mut(), round, 8);
        }
        s.advance(T);
        let mut got = Vec::new();
        s.serve_batch(&queries, &mut got);
        assert_eq!(got, want, "shards={shards}");
    }
}

/// Leaf switch ids start here, spine switch ids (two spines) there.
const LEAF: u32 = 100;
const SPINE: u32 = 200;

/// A leaf–spine fabric on which most hosts share their access switch:
/// each leaf carries 1–6 single-homed hosts, numbered leaf by leaf, and
/// the last host is multi-homed on leaves 0 and 1.
struct SharedFabric {
    /// Each host's leaf indices (two for the multi-homed host).
    homes: Vec<Vec<usize>>,
    /// Each host's access-link delay (host → leaf), ns.
    access: Vec<u64>,
    /// Each host's queue-depth seed.
    queue: Vec<u32>,
    /// Per leaf, the delay of its link to each spine (both directions), ns.
    uplink: Vec<[u64; 2]>,
    /// A host that originates no probes from this learning round on.
    quiet: Option<(usize, usize)>,
}

impl SharedFabric {
    /// `leaves`: (single-homed hosts, uplink delay class, raw bits) per
    /// leaf; `hosts`: (access delay class, queue seed, raw bits), indexed
    /// by host id. `saturate` gives host 0's access link, the last leaf's
    /// uplinks and the multi-homed host's access links (its detour
    /// between leaves 0 and 1) `u64::MAX / 2` each, so Σ weights passes
    /// `u64::MAX` and host 0's routes to the last leaf saturate while its
    /// leaf's do not.
    fn new(leaves: &[(usize, u8, u64)], hosts: &[(u8, u32, u64)], saturate: bool) -> Self {
        let mut homes: Vec<Vec<usize>> = leaves
            .iter()
            .enumerate()
            .flat_map(|(leaf, &(n, _, _))| std::iter::repeat_n(vec![leaf], n))
            .collect();
        homes.push(vec![0, 1]);
        let ms = 1_000_000;
        let mut access: Vec<u64> = hosts[..homes.len()]
            .iter()
            .map(|&(class, _, raw)| match class {
                0 => 0,
                1 => ms, // ties between siblings
                2 => raw % (5 * ms),
                _ => raw % 50_000,
            })
            .collect();
        let mut uplink: Vec<[u64; 2]> = leaves
            .iter()
            .map(|&(_, class, raw)| match class {
                0 | 1 => [2 * ms, 2 * ms], // equal-cost paths over both spines
                2 => [2 * ms, 3 * ms],
                _ => [ms + raw % (3 * ms), ms + (raw >> 32) % (3 * ms)],
            })
            .collect();
        if saturate {
            let multi_homed = access.len() - 1;
            access[0] = u64::MAX / 2;
            access[multi_homed] = u64::MAX / 2;
            *uplink.last_mut().expect("at least two leaves") = [u64::MAX / 2; 2];
        }
        let queue = hosts.iter().map(|&(_, q, _)| q).collect();
        SharedFabric { homes, access, queue, uplink, quiet: None }
    }

    fn hosts(&self) -> u32 {
        self.homes.len() as u32
    }

    /// Hop counts for the Nearest baseline: 2 on a shared leaf, 4 across.
    fn distances(&self) -> StaticDistances {
        let mut d = StaticDistances::new();
        for a in 0..self.hosts() {
            for b in a + 1..self.hosts() {
                let shared = self.homes[a as usize].iter().any(|l| self.homes[b as usize].contains(l));
                d.set(a, b, if shared { 2 } else { 4 });
            }
        }
        d
    }

    /// One probing round at `now`: every host probes two other hosts,
    /// through its leaf, a spine and the terminal's leaf (only the shared
    /// leaf when there is one). The multi-homed host alternates leaves.
    fn learn_round(&self, core: &mut SchedulerCore, round: usize, now: u64) {
        let n = self.hosts() as usize;
        for h in 0..n {
            if self.quiet.is_some_and(|(quiet, from)| h == quiet && round >= from) {
                continue;
            }
            for t in [(h + 1) % n, (h + n / 2) % n] {
                if t == h {
                    continue;
                }
                let from = self.homes[h][(round + t) % self.homes[h].len()];
                let to = self.homes[t][(round + h) % self.homes[t].len()];
                let spine = (h + t + round) % 2;
                let q = |i: u32| (self.queue[h] + 7 * i + 11 * round as u32) % 48;
                // The last record's egress time makes the final hop (the
                // terminal's leaf → the terminal) read the terminal's own
                // access delay, as far as the clock allows.
                let at = now.saturating_sub(self.access[t]);
                let mut hops = vec![hop(LEAF + from as u32, q(0), q(0) / 2, self.access[h], at)];
                if from != to {
                    let up = self.uplink[from][spine];
                    let down = self.uplink[to][spine];
                    hops.push(hop(SPINE + spine as u32, q(1), q(1) / 2, up, at));
                    hops.push(hop(LEAF + to as u32, q(2), q(2) / 2, down, at));
                }
                let p = probe(h as u32, round as u64 + 1, hops);
                core.collector_mut().ingest_relayed(&p, t as u32, now);
            }
        }
    }
}

proptest! {
    /// Single-homed requesters share their switch's shortest-path tree and
    /// price table; the answers must not show it. Over leaf–spine fabrics
    /// with 1–6 single-homed hosts per leaf plus one multi-homed host,
    /// equal-cost paths over two spines, per-host access delays (0 ns,
    /// tied, spread) and, in a quarter of the cases, links at
    /// `u64::MAX / 2` that make Σ weights pass `u64::MAX`: one batch of
    /// every host (and one unknown requester) under every policy, at query
    /// times scattered across the queue window, the staleness horizon and
    /// the silence horizon, served at 1, 2 and 3 shards and by the
    /// single-threaded core query by query, equals the reference `Ranker`
    /// over the live map (Random: the shards equal the core).
    #[test]
    fn shared_trees_match_the_reference_at_every_shard_count(
        leaves in proptest::collection::vec((1usize..=6, 0u8..4, any::<u64>()), 2..5),
        hosts in proptest::collection::vec((0u8..4, 0u32..48, any::<u64>()), 25),
        saturate in 0u8..4,
    ) {
        const MS: u64 = 1_000_000;
        const T: u64 = 2_000 * MS;
        let saturate = saturate == 0;
        let fabric = SharedFabric::new(&leaves, &hosts, saturate);
        let cfg = CoreConfig {
            qlen_window_ns: 120 * MS,
            staleness_ns: 300 * MS,
            origin_silence_ns: 600 * MS,
            eviction_horizon_ns: u64::MAX,
            ..CoreConfig::default()
        };
        let learn = |core: &mut SchedulerCore| {
            for (round, now) in [T - 100 * MS, T].into_iter().enumerate() {
                fabric.learn_round(core, round, now);
            }
        };
        let policies = [Policy::IntDelay, Policy::IntBandwidth, Policy::Nearest, Policy::Random];
        let mut queries = Vec::new();
        for later in [130, 0, 350, 50, 700, 0] {
            for requester in (0..fabric.hosts()).chain([999]) {
                for policy in policies {
                    queries.push(RankQuery { requester, policy, now_ns: T + later * MS });
                }
            }
        }

        let mut core = SchedulerCore::new(0, cfg.clone(), fabric.distances(), 5);
        learn(&mut core);
        let mut reference = Ranker::new(cfg.clone(), fabric.distances(), 5);
        let want: Vec<RankOutcome> = queries
            .iter()
            .map(|q| core.rank_detailed_with(q.requester, q.policy, q.now_ns))
            .collect();
        for (q, got) in queries.iter().zip(&want) {
            if q.policy != Policy::Random {
                let oracle = reference.answer(core.collector(), q.requester, q.policy, q.now_ns);
                prop_assert_eq!(got, &oracle, "core vs reference: {:?}", q);
            }
        }
        // Sharing is live unless the guard holds it off: one tree per leaf
        // plus the multi-homed host's own, or one per known host.
        let trees = if saturate { fabric.hosts() } else { leaves.len() as u32 + 1 };
        prop_assert_eq!(core.path_stats().sssp_runs, u64::from(trees));

        for shards in [1, 2, 3] {
            let mut s = ShardedScheduler::new(0, cfg.clone(), fabric.distances(), 5, shards);
            learn(s.core_mut());
            s.advance(T);
            let mut got = Vec::new();
            s.serve_batch(&queries, &mut got);
            prop_assert_eq!(&got, &want, "shards={}", shards);
        }
    }
}

proptest! {
    /// Requesters behind one switch share its ranked IntDelay and
    /// IntBandwidth lists, shifted by each one's access delay, and every
    /// requester keeps one Nearest permutation per topology; the answers
    /// must not show it. Four epochs of a leaf–spine fabric with 2–5
    /// single-homed hosts per leaf plus one multi-homed host, where:
    /// host 1's access link is ≥ 2^44 ns, so its shifted maximum passes
    /// the packed keys' clamp and, with `big_k`'s saturating queue
    /// prices, ties saturated estimates (the guard); the last leaf's
    /// first host stops probing after epoch 0 and goes silent; an island
    /// host whose probes its own leaf reflects is its root's only
    /// reachable host, so everyone else takes the warm-up fallback while
    /// no origin is silent; and a host joins at epoch 2 (registered) and
    /// links up at epoch 3, so the Nearest permutations rebuild. Each
    /// epoch every host asks the three ordered policies at query times
    /// that repeat, interleave and go backwards: the core query by query,
    /// 1, 2 and 3 shards over two batches (the second in reverse time
    /// order), and one long-lived scratch over a fresh build of each epoch
    /// all numbered 1 and dropped after use (so neither the epoch number
    /// nor a reused address may key a permutation) — all equal the
    /// reference `Ranker` over the live map.
    #[test]
    fn shared_orders_match_the_reference_across_times_and_epochs(
        leaves in proptest::collection::vec((2usize..=5, 0u8..4, any::<u64>()), 2..4),
        hosts in proptest::collection::vec((0u8..4, 0u32..48, any::<u64>()), 25),
        big_k in any::<bool>(),
        widest in any::<bool>(),
    ) {
        const MS: u64 = 1_000_000;
        const T: u64 = 2_000 * MS;
        const EPOCH: u64 = 400 * MS;
        let mut fabric = SharedFabric::new(&leaves, &hosts, false);
        let n = fabric.hosts();
        fabric.access[1] = if widest { u64::MAX / 8 } else { 1 << 44 };
        let quiet = n as usize - 1 - leaves.last().expect("two leaves or more").0;
        fabric.quiet = Some((quiet, 1));
        let (island, joiner) = (n, n + 1);
        let cfg = CoreConfig {
            k_ns_per_pkt: if big_k { u64::MAX / 64 } else { 20 * MS },
            qlen_window_ns: 120 * MS,
            staleness_ns: 300 * MS,
            origin_silence_ns: 600 * MS,
            eviction_horizon_ns: u64::MAX,
            ..CoreConfig::default()
        };
        let learn = |core: &mut SchedulerCore, epoch: usize| {
            let now = T + epoch as u64 * EPOCH;
            fabric.learn_round(core, epoch, now);
            let q = (7 * epoch as u32) % 48;
            let reflected = probe(island, epoch as u64 + 1, [hop(LEAF + 50, q, q / 2, MS, now)]);
            core.collector_mut().ingest_relayed(&reflected, island, now);
            if epoch == 2 {
                core.register_host(joiner);
            } else if epoch > 2 {
                let up = probe(joiner, epoch as u64, [hop(LEAF, q, q / 2, 2 * MS, now)]);
                core.collector_mut().ingest_relayed(&up, 0, now);
            }
        };
        let policies = [Policy::IntDelay, Policy::IntBandwidth, Policy::Nearest];
        let batch = |epoch: usize, backwards: bool| {
            let at = T + epoch as u64 * EPOCH;
            let mut laters = vec![130, 0, 700, 50, 0];
            if backwards {
                laters.reverse();
            }
            let mut queries = Vec::new();
            for later in laters {
                for requester in (0..=joiner).chain([999]) {
                    for policy in policies {
                        queries.push(RankQuery { requester, policy, now_ns: at + later * MS });
                    }
                }
            }
            queries
        };

        let mut core = SchedulerCore::new(0, cfg.clone(), fabric.distances(), 5);
        let mut sharded: Vec<ShardedScheduler> = [1, 2, 3]
            .map(|shards| ShardedScheduler::new(0, cfg.clone(), fabric.distances(), 5, shards))
            .into();
        let mut reference = Ranker::new(cfg.clone(), fabric.distances(), 5);
        let (mut bare, mut fresh) = (SnapshotScratch::new(), None);
        let (mut fallbacks, mut silent) = (0, 0);
        for epoch in 0..4 {
            learn(&mut core, epoch);
            for s in &mut sharded {
                learn(s.core_mut(), epoch);
                s.advance(T + epoch as u64 * EPOCH);
            }
            let batches = [batch(epoch, false), batch(epoch, true)];
            let mut answers = BTreeMap::new();
            let want: Vec<Vec<RankOutcome>> = batches
                .iter()
                .map(|b| {
                    b.iter()
                        .map(|q| {
                            let key = (q.requester, q.policy as usize, q.now_ns);
                            answers
                                .entry(key)
                                .or_insert_with(|| {
                                    reference.answer(core.collector(), q.requester, q.policy, q.now_ns)
                                })
                                .clone()
                        })
                        .collect()
                })
                .collect();
            for (q, w) in batches[0].iter().zip(&want[0]) {
                fallbacks += usize::from(q.requester == island && w.ranked.len() > 1);
                silent += usize::from(q.requester == quiet as u32 && !w.excluded.is_empty());
            }

            // The last epoch's build is dropped right before this one's,
            // so its structure's address is free to be reused.
            drop(fresh.take());
            let (cfg, distances) = (core.config_arc(), core.distances_arc());
            let snap = fresh.insert(SchedSnapshot::build(
                core.collector(),
                &cfg,
                &distances,
                5,
                1,
                T + epoch as u64 * EPOCH,
            ));
            for (q, w) in batches.iter().flatten().zip(want.iter().flatten()) {
                let got = snap.rank_detailed(&mut bare, q.requester, q.policy, q.now_ns, 0);
                prop_assert_eq!(&got, w, "fresh build, epoch {}: {:?}", epoch, q);
            }
            for (q, w) in batches.iter().flatten().zip(want.iter().flatten()) {
                let got = core.rank_detailed_with(q.requester, q.policy, q.now_ns);
                prop_assert_eq!(&got, w, "core, epoch {}: {:?}", epoch, q);
            }
            for s in &mut sharded {
                for (b, w) in batches.iter().zip(&want) {
                    let mut got = Vec::new();
                    s.serve_batch(b, &mut got);
                    prop_assert_eq!(&got, w, "shards={}, epoch {}", s.shard_count(), epoch);
                }
            }
        }
        prop_assert!(fallbacks > 0, "the island ranks everyone while no origin is silent");
        prop_assert!(silent > 0, "the quiet host asks while silent");
    }
}

proptest! {
    /// Where the cuts of the root-ordered batch fall must not show in the
    /// answers. Over leaf–spine fabrics with 2–6 single-homed hosts per
    /// leaf plus one multi-homed host, each case serves at 8, 3, 2 and 1
    /// shards and compares, byte for byte, with the single-threaded core
    /// answering the same queries in the same order (Random included, so
    /// every slot number is checked too):
    ///
    /// * before the first publish, a batch into an `out` that still holds
    ///   a longer batch's answers from the previous shard count's
    ///   scheduler, whose workers have started, comes back empty (and the
    ///   core spends the same slots);
    /// * after one publish, on the same schedulers (so their workers serve
    ///   batch after batch): a batch at mixed query times, longest first,
    ///   so every later batch reuses an `out` holding stale answers; a
    ///   random batch of hosts, policies and times; a batch on one serving
    ///   root only; one root's run straddling every cut (one query before
    ///   it in time and one after); and batches shorter than the shard
    ///   count.
    #[test]
    fn cut_placement_never_shows_in_the_answers(
        leaves in proptest::collection::vec((2usize..=6, 0u8..4, any::<u64>()), 2..5),
        hosts in proptest::collection::vec((0u8..4, 0u32..48, any::<u64>()), 25),
        random in proptest::collection::vec((0u32..40, 0usize..4, 0usize..5), 1..48),
    ) {
        const MS: u64 = 1_000_000;
        const T: u64 = 2_000 * MS;
        const LATER: [u64; 5] = [0, 50, 130, 350, 700];
        let fabric = SharedFabric::new(&leaves, &hosts, false);
        let n = fabric.hosts();
        let cfg = CoreConfig {
            qlen_window_ns: 120 * MS,
            staleness_ns: 300 * MS,
            origin_silence_ns: 600 * MS,
            eviction_horizon_ns: u64::MAX,
            ..CoreConfig::default()
        };
        let learn = |core: &mut SchedulerCore| {
            for (round, now) in [T - 100 * MS, T].into_iter().enumerate() {
                fabric.learn_round(core, round, now);
            }
        };
        let policies = [Policy::IntDelay, Policy::IntBandwidth, Policy::Nearest, Policy::Random];
        let ask = |requester: u32, policy: Policy, later: u64| {
            RankQuery { requester, policy, now_ns: T + later * MS }
        };
        // Hosts 0.. sit on leaf 0, the next ones on leaf 1 (see `SharedFabric`).
        let leaf0 = 0..leaves[0].0 as u32;
        let leaf1 = leaf0.end..leaf0.end + leaves[1].0 as u32;

        let mut batches: Vec<Vec<RankQuery>> = Vec::new();
        batches.push(
            [700, 0, 130]
                .into_iter()
                .flat_map(|later| {
                    (0..n).chain([999]).flat_map(move |r| policies.map(|p| ask(r, p, later)))
                })
                .collect(),
        );
        batches.push(
            random
                .iter()
                .map(|&(r, p, t)| {
                    let requester = if r % (n + 1) == n { 999 } else { r % (n + 1) };
                    ask(requester, policies[p], LATER[t])
                })
                .collect(),
        );
        batches.push(
            leaf0.clone().flat_map(|r| policies.map(|p| ask(r, p, 50))).collect(),
        );
        let run: Vec<RankQuery> = leaf1
            .clone()
            .cycle()
            .take(2 * leaf1.len())
            .flat_map(|r| policies.map(|p| ask(r, p, 50)))
            .collect();
        let (first, last) = (ask(n - 1, Policy::IntDelay, 0), ask(0, Policy::IntBandwidth, 700));
        batches.push([first].into_iter().chain(run).chain([last]).collect());
        batches.push(vec![ask(leaf1.start, Policy::Random, 130), ask(0, Policy::IntDelay, 0)]);
        batches.push(vec![ask(n - 1, Policy::Nearest, 350)]);
        let before: Vec<RankQuery> = (0..n).map(|r| ask(r, Policy::IntDelay, 0)).collect();

        // The core spends the slots the unpublished batch takes. It answers
        // them (its first publish, so the epoch numbers, which seed Random,
        // stay aligned), but the answers are not the shards' to match.
        let mut core = SchedulerCore::new(0, cfg.clone(), fabric.distances(), 5);
        learn(&mut core);
        for q in &before {
            core.rank_detailed_with(q.requester, q.policy, q.now_ns);
        }
        let want: Vec<Vec<RankOutcome>> = batches
            .iter()
            .map(|b| {
                b.iter().map(|q| core.rank_detailed_with(q.requester, q.policy, q.now_ns)).collect()
            })
            .collect();
        prop_assert!(want[0].iter().any(|o| !o.ranked.is_empty()), "the fabric answers");

        // The previous shard count's outcomes of its first (longest) batch.
        let mut stale: Vec<RankOutcome> = Vec::new();
        for shards in [8, 3, 2, 1] {
            let mut s = ShardedScheduler::new(0, cfg.clone(), fabric.distances(), 5, shards);
            let mut out = std::mem::take(&mut stale);
            s.serve_batch(&before, &mut out);
            prop_assert_eq!(out.len(), before.len());
            prop_assert!(
                out.iter().all(|o| o.ranked.is_empty() && o.excluded.is_empty()),
                "shards={}: nothing published, nothing answered", shards
            );
            learn(s.core_mut());
            s.advance(T);
            for (i, (b, w)) in batches.iter().zip(&want).enumerate() {
                s.serve_batch(b, &mut out);
                prop_assert_eq!(out.len(), w.len());
                if let Some(k) = (0..w.len()).find(|&k| out[k] != w[k]) {
                    let (q, got, core) = (b[k], &out[k], &w[k]);
                    prop_assert!(false, "shards={}, batch {}, {:?}: {:?} vs the core's {:?}", shards, i, q, got, core);
                }
                if i == 0 {
                    stale = out.clone();
                }
            }
        }
    }
}
