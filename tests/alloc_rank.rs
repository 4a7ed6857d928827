//! Steady-state rank queries perform **zero heap allocations**.
//!
//! A counting allocator (`tests/common/alloc.rs`) wraps the system
//! allocator. After one warm-up query per (requester, policy) — which
//! publishes the epoch and grows the requester's shortest-path tree —
//! every further query through `SchedulerCore::rank_detailed_into_with`
//! must sweep the cached tree into reused scratch and sort in place.
//!
//! The later sections cover the *cold* serve path too: under churn (every
//! epoch re-learns every link) serving regrows its per-requester trees
//! into retained capacity and allocates nothing, through the façade and
//! through a bare snapshot + scratch alike.
//!
//! Single test function on purpose: parallel tests would interleave their
//! allocations into the shared counter.

#[path = "common/alloc.rs"]
mod alloc;
#[path = "common/probe.rs"]
mod probes;

use alloc::allocations_in;
use int_edge_sched::core::rank::{RankOutcome, StaticDistances};
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

#[test]
fn steady_state_rank_queries_allocate_nothing() {
    // The scheduler's `_into` entry point: the full query path —
    // eviction check, publish-key check, tree sweep, detailed ranking
    // with exclusions — reuses internal scratch and the caller's outcome.
    let mut core = SchedulerCore::new(100, CoreConfig::default(), StaticDistances::new(), 1);
    for p in probe_round(1, 0, 30_000_000) {
        core.collector_mut().ingest(&p, 30_000_000);
    }
    let mut detailed = RankOutcome::default();
    let mut other = RankOutcome::default();
    // Warm-up grows every buffer (including the audit-off fast path).
    for policy in [Policy::IntDelay, Policy::IntBandwidth] {
        core.rank_detailed_into_with(100, policy, 30_000_000, &mut detailed);
        core.rank_detailed_into_with(100, policy, 30_000_000, &mut other);
    }

    let (allocs, ()) = allocations_in(|| {
        for round in 0..1_000u64 {
            let now = 30_000_000 + round;
            core.rank_detailed_into_with(100, Policy::IntDelay, now, &mut detailed);
            core.rank_detailed_into_with(100, Policy::IntBandwidth, now, &mut other);
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
        StaticDistances::new(),
        1,
        1,
    );
    for p in probe_round(2, 0, 30_000_000) {
        sharded.core_mut().collector_mut().ingest(&p, 30_000_000);
    }
    sharded.advance(30_000_000);
    let snap = sharded.epoch_slot().current().expect("published");
    let mut scratch = SnapshotScratch::new();
    for policy in [Policy::IntDelay, Policy::IntBandwidth] {
        snap.rank_detailed_into(&mut scratch, 100, policy, 30_000_000, 0, &mut detailed);
    }

    let (allocs, ()) = allocations_in(|| {
        for round in 0..1_000u64 {
            let now = 30_000_000 + round;
            snap.rank_detailed_into(
                &mut scratch,
                100,
                Policy::IntDelay,
                now,
                round,
                &mut detailed,
            );
            snap.rank_detailed_into(
                &mut scratch,
                100,
                Policy::IntBandwidth,
                now,
                round,
                &mut detailed,
            );
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
                for policy in [Policy::IntDelay, Policy::IntBandwidth, Policy::Nearest] {
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
}
