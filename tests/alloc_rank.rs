//! Steady-state rank queries perform **zero heap allocations**.
//!
//! A counting allocator (`tests/common/alloc.rs`) wraps the system
//! allocator. After one warm-up query per (requester, policy) — which
//! publishes the epoch and grows the requester's shortest-path tree —
//! every further query through `SchedulerCore::rank_detailed_into_with`
//! must sweep the cached tree into reused scratch and order the answer
//! through the scratch's reused sort-key and gather buffers — under all
//! three ordered policies, Nearest over a non-empty distance table.
//!
//! The later sections cover the *cold* serve path too: under churn (every
//! epoch re-learns every link) serving regrows its per-root trees into
//! retained capacity and allocates nothing, through the façade, through a
//! bare snapshot + scratch, and through a 1-shard
//! `ShardedScheduler::serve_batch`, which sorts its batch through a
//! buffer the scheduler keeps and starts no thread. The next section
//! serves requesters that share their leaf: from the leaf's shared orders
//! (hits) and rebuilding them every churned epoch (misses). The last one
//! serves that fabric at two shards, where the second shard's worker
//! thread starts once and then swaps its state, piece and outcomes over
//! bounded channels; its allocations are counted too.
//!
//! Single test function on purpose: parallel tests would interleave their
//! allocations into the shared counter (and the two-shard section counts
//! every thread's).

#[path = "common/alloc.rs"]
mod alloc;
#[path = "common/probe.rs"]
mod probes;

use alloc::{allocations_in, allocations_in_every_thread};
use int_edge_sched::core::rank::{RankOutcome, StaticDistances};
use int_edge_sched::core::shard::RankQuery;
use int_edge_sched::core::snapshot::SnapshotScratch;
use int_edge_sched::core::{CoreConfig, Policy, SchedulerCore};
use int_edge_sched::packet::ProbePayload;
use probes::{hop, probe};

/// One probe round of the testbed-scale map: 8 servers, each behind its
/// own leaf switch, all joined by spine switch 20 next to scheduler host
/// 100. `churn` varies every queue depth and link latency.
fn probe_round(seq: u64, churn: u64, now_ns: u64) -> Vec<ProbePayload> {
    (0..8u32)
        .map(|h| {
            let (q, lat) = ((h * 3 + churn as u32) % 40, 10_000_000 + churn * 1_000_000);
            probe(h, seq, [hop(10 + h, q, h, lat, now_ns - 10_000_000), hop(20, q, h, lat, now_ns)])
        })
        .collect()
}

/// Static hop counts from scheduler host 100 to every server (with ties)
/// and between neighbouring servers, so the Nearest order has real keys.
fn distances() -> StaticDistances {
    let mut d = StaticDistances::new();
    for h in 0..8u32 {
        d.set(100, h, 3 + h % 3);
        d.set(h, (h + 1) % 8, 4);
    }
    d
}

/// The policies whose orders go through the packed sort keys.
const ORDERED: [Policy; 3] = [Policy::IntDelay, Policy::IntBandwidth, Policy::Nearest];

#[test]
fn steady_state_rank_queries_allocate_nothing() {
    // The scheduler's `_into` entry point: the full query path —
    // eviction check, publish-key check, tree sweep, detailed ranking
    // with exclusions — reuses internal scratch and the caller's outcome.
    let mut core = SchedulerCore::new(100, CoreConfig::default(), distances(), 1);
    for p in probe_round(1, 0, 30_000_000) {
        core.collector_mut().ingest(&p, 30_000_000);
    }
    let mut detailed = RankOutcome::default();
    let mut other = RankOutcome::default();
    // Warm-up grows every buffer (including the audit-off fast path).
    for policy in ORDERED {
        core.rank_detailed_into_with(100, policy, 30_000_000, &mut detailed);
        core.rank_detailed_into_with(100, policy, 30_000_000, &mut other);
    }

    let (allocs, ()) = allocations_in(|| {
        for round in 0..1_000u64 {
            let now = 30_000_000 + round;
            core.rank_detailed_into_with(100, Policy::IntDelay, now, &mut detailed);
            core.rank_detailed_into_with(100, Policy::IntBandwidth, now, &mut other);
            core.rank_detailed_into_with(100, Policy::Nearest, now, &mut other);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state scheduler `_into` queries must not touch the heap"
    );
    assert!(!detailed.ranked.is_empty());
    let steady = core.path_stats();
    assert_eq!(steady.sssp_runs, 1, "one Dijkstra serves every query from host 100");
    assert_eq!((steady.csr_rebuilds, steady.weight_refreshes), (1, 1), "one epoch, published once");
    assert_eq!(steady.cache_misses, 1);

    // Churn through the façade: every round re-learns every link, so the
    // first query of the round republishes (the ingest half's business,
    // outside the counted region); after two warm-up rounds, serving
    // requesters never asked before this epoch allocates nothing.
    let hosts: Vec<u32> = (0..8).chain([100]).collect();
    let mut facade_allocs = 0u64;
    for epoch in 0..5u64 {
        let now = 31_000_000 + epoch * 100_000_000;
        for p in probe_round(2 + epoch, epoch, now) {
            core.collector_mut().ingest(&p, now);
        }
        let mut requesters = (0..4).map(|i| hosts[(4 * epoch as usize + i) % hosts.len()]);
        let publishes = core.path_stats().weight_refreshes;
        let first = requesters.next().expect("four requesters");
        core.rank_detailed_into_with(first, Policy::IntDelay, now, &mut detailed);
        assert_eq!(core.path_stats().weight_refreshes, publishes + 1, "the round's first query publishes");
        let (allocs, ()) = allocations_in(|| {
            for requester in requesters {
                core.rank_detailed_into_with(requester, Policy::IntDelay, now, &mut detailed);
                core.rank_detailed_into_with(requester, Policy::Nearest, now, &mut other);
            }
        });
        if epoch >= 2 {
            facade_allocs += allocs;
        }
        assert_eq!(detailed.ranked.len(), 8, "everyone reachable, nobody silent");
    }
    assert_eq!(facade_allocs, 0, "churn serving through the scheduler must not touch the heap");
    assert_eq!(core.path_stats().sssp_runs, 1 + 5 * 4, "one Dijkstra per requester per epoch");

    // Snapshot serving as the sharded read path does it — a bare epoch
    // and a private scratch: after one warm-up query fills the scratch,
    // repeat queries are alloc-free as well.
    let mut sharded = int_edge_sched::core::shard::ShardedScheduler::new(
        100,
        CoreConfig::default(),
        distances(),
        1,
        1,
    );
    for p in probe_round(2, 0, 30_000_000) {
        sharded.core_mut().collector_mut().ingest(&p, 30_000_000);
    }
    sharded.advance(30_000_000);
    let snap = sharded.epoch_slot().current().expect("published");
    let mut scratch = SnapshotScratch::new();
    for policy in ORDERED {
        snap.rank_detailed_into(&mut scratch, 100, policy, 30_000_000, 0, &mut detailed);
    }

    let (allocs, ()) = allocations_in(|| {
        for round in 0..1_000u64 {
            let now = 30_000_000 + round;
            for policy in ORDERED {
                snap.rank_detailed_into(&mut scratch, 100, policy, now, round, &mut detailed);
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state snapshot queries must not touch the heap"
    );
    assert!(!detailed.ranked.is_empty());

    // Churn serving: every epoch re-learns every link, so nothing a
    // scratch cached survives — each requester's shortest-path tree is
    // regrown into the arena the previous epoch left behind. After two
    // warm-up epochs have sized it, *ingest → advance → serve a new
    // requester set* allocates nothing in serving (publishing is the
    // ingest half's business and stays outside the counted region).
    let mut served = 0u64;
    let mut churn_allocs = 0u64;
    for epoch in 0..5u64 {
        let now = 31_000_000 + epoch * 100_000_000;
        for p in probe_round(3 + epoch, epoch, now) {
            sharded.core_mut().collector_mut().ingest(&p, now);
        }
        assert!(sharded.advance(now), "every round publishes a new epoch");
        let snap = sharded.epoch_slot().current().expect("published");
        // Three requesters per epoch, rotating through all nine hosts:
        // the first measured epoch serves three never asked before.
        let requesters = (0..3).map(|i| hosts[(3 * epoch as usize + i) % hosts.len()]);
        let (allocs, ()) = allocations_in(|| {
            for requester in requesters {
                for policy in ORDERED {
                    let slot = served;
                    snap.rank_detailed_into(
                        &mut scratch,
                        requester,
                        policy,
                        now,
                        slot,
                        &mut detailed,
                    );
                    served += 1;
                }
            }
        });
        if epoch >= 2 {
            churn_allocs += allocs;
        }
        assert_eq!(detailed.ranked.len(), 8, "everyone reachable, nobody silent");
    }
    assert_eq!(churn_allocs, 0, "churn serving must not touch the heap after warm-up");
    let stats = scratch.stats();
    assert_eq!(stats.sssp_runs, 1 + 5 * 3, "one Dijkstra per requester per epoch");

    // The sharded read path itself, one shard (no thread): the scheduler
    // sorts the batch into `(time, root)` order through a buffer it keeps
    // and shard 0 fills the caller's outcomes in place, so once the first
    // epochs have sized everything, a churned epoch's batch — every host
    // under every ordered policy — allocates nothing.
    let mut batch_allocs = 0u64;
    let mut outcomes = Vec::new();
    for epoch in 0..5u64 {
        let now = 600_000_000 + epoch * 100_000_000;
        for p in probe_round(10 + epoch, epoch, now) {
            sharded.core_mut().collector_mut().ingest(&p, now);
        }
        assert!(sharded.advance(now), "every round publishes a new epoch");
        let batch: Vec<RankQuery> = hosts
            .iter()
            .flat_map(|&requester| ORDERED.map(|policy| RankQuery { requester, policy, now_ns: now }))
            .collect();
        let (allocs, ()) = allocations_in(|| {
            sharded.serve_batch(&batch, &mut outcomes);
            sharded.serve_batch(&batch, &mut outcomes);
        });
        if epoch >= 2 {
            batch_allocs += allocs;
        }
        assert!(outcomes.iter().all(|o| o.ranked.len() == 8), "everyone reachable, nobody silent");
    }
    assert_eq!(batch_allocs, 0, "steady-state 1-shard serve_batch must not touch the heap");

    // Shared orders: four requesters on each of four leaves read their
    // leaf's ranked lists (built by the first of them per policy and query
    // time) and their own Nearest permutations. Each churned epoch's first
    // batch rebuilds every list into the capacity the last epoch left
    // (misses); ten repeats at the same query time read them (hits). The
    // hits allocate nothing from the first epoch on, the misses after
    // three warm-up epochs.
    let mut leafy = int_edge_sched::core::shard::ShardedScheduler::new(
        100,
        CoreConfig::default(),
        leaf_distances(),
        1,
        1,
    );
    let batch: Vec<RankQuery> = (0..16u32)
        .flat_map(|requester| ORDERED.map(|policy| RankQuery { requester, policy, now_ns: 0 }))
        .collect();
    let at = |now_ns| batch.iter().map(|q| RankQuery { now_ns, ..*q }).collect::<Vec<_>>();
    let mut miss_allocs = 0u64;
    for epoch in 0..6u64 {
        let now = 1_100_000_000 + epoch * 100_000_000;
        for p in leaf_round(20 + epoch, epoch, now) {
            leafy.core_mut().collector_mut().ingest(&p, now);
        }
        assert!(leafy.advance(now), "every round publishes a new epoch");
        let batch = at(now);
        let (misses, ()) = allocations_in(|| leafy.serve_batch(&batch, &mut outcomes));
        let (hits, ()) = allocations_in(|| {
            for _ in 0..10 {
                leafy.serve_batch(&batch, &mut outcomes);
            }
        });
        assert_eq!(hits, 0, "serving from shared orders must not touch the heap");
        if epoch >= 3 {
            miss_allocs += misses;
        }
        // Fifteen other servers and the scheduler's own host.
        assert!(outcomes.iter().all(|o| o.ranked.len() == 16), "everyone reachable, nobody silent");
    }
    assert_eq!(miss_allocs, 0, "rebuilding shared orders must not touch the heap after warm-up");

    // Two shards on the same fabric: the first batch starts the second
    // shard's worker thread, and every later batch hands it its shard
    // state, the snapshot and its piece by value over a bounded channel
    // and takes its outcomes back by swapping them into the caller's.
    // Counted on every thread, the worker's included: after two warm-up
    // epochs a churned epoch's batches allocate nothing.
    let mut two = int_edge_sched::core::shard::ShardedScheduler::new(
        100,
        CoreConfig::default(),
        leaf_distances(),
        1,
        2,
    );
    let mut two_allocs = 0u64;
    for epoch in 0..6u64 {
        let now = 1_800_000_000 + epoch * 100_000_000;
        for p in leaf_round(40 + epoch, epoch, now) {
            two.core_mut().collector_mut().ingest(&p, now);
        }
        assert!(two.advance(now), "every round publishes a new epoch");
        let batch = at(now);
        let (allocs, ()) = allocations_in_every_thread(|| {
            two.serve_batch(&batch, &mut outcomes);
            two.serve_batch(&batch, &mut outcomes);
        });
        if epoch >= 2 {
            two_allocs += allocs;
        }
        assert!(outcomes.iter().all(|o| o.ranked.len() == 16), "everyone reachable, nobody silent");
    }
    assert_eq!(two_allocs, 0, "steady-state 2-shard serve_batch must not touch the heap on any thread");
}

/// One probe round of a fabric whose leaves are shared: hosts 0–15, four
/// on each of leaves 30–33, each with its own access delay, all joined by
/// spine switch 20 next to scheduler host 100. `churn` varies every queue
/// depth and link latency.
fn leaf_round(seq: u64, churn: u64, now_ns: u64) -> Vec<ProbePayload> {
    (0..16u32)
        .map(|h| {
            let q = (h * 5 + churn as u32) % 40;
            let access = (1 + u64::from(h % 4)) * 1_000_000 + churn * 1_000;
            let up = 10_000_000 + churn * 1_000_000;
            probe(h, seq, [hop(30 + h / 4, q, h, access, now_ns - 10_000_000), hop(20, q, h, up, now_ns)])
        })
        .collect()
}

/// Hop counts between the shared-leaf fabric's hosts: 2 on one leaf, 4
/// across.
fn leaf_distances() -> StaticDistances {
    let mut d = StaticDistances::new();
    for a in 0..16u32 {
        for b in a + 1..16 {
            d.set(a, b, if a / 4 == b / 4 { 2 } else { 4 });
        }
    }
    d
}
