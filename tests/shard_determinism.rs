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
use int_edge_sched::core::snapshot::SnapshotScratch;
use int_edge_sched::core::{CoreConfig, Policy, RankOutcome, SchedulerCore};
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
