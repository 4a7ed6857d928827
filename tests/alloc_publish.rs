//! Steady-state epoch **publication** and `k_paths > 1` snapshot serving
//! perform (next to) zero heap allocations.
//!
//! Companion to `alloc_rank.rs`, which pins the single-path query paths;
//! this one pins
//!
//! * multipath serving — after warm-up fills the per-scratch k-set cache,
//!   `rank_detailed_into` at `k_paths = 3` never touches the heap;
//! * the O(dirty) incremental publish loop — once the publisher holds two
//!   consecutive same-layout epochs and no reader pins the older one, a
//!   steady ingest→publish round recycles every per-epoch array and
//!   allocates exactly one `Arc` shell per published snapshot.
//!
//! Single test function on purpose: parallel tests would interleave their
//! allocations into the shared counter.

#[path = "common/alloc.rs"]
mod alloc;
#[path = "common/probe.rs"]
mod probes;

use alloc::allocations_in;
use int_edge_sched::core::rank::{RankOutcome, StaticDistances};
use int_edge_sched::core::shard::ShardedScheduler;
use int_edge_sched::core::snapshot::SnapshotScratch;
use int_edge_sched::core::{CoreConfig, Policy};
use int_edge_sched::packet::ProbePayload;
use probes::{hop, probe};

#[test]
fn steady_state_publish_and_kpath_serving_allocate_nothing() {
    const ROUND_NS: u64 = 100_000_000;
    let cfg = CoreConfig { k_paths: 3, ..CoreConfig::default() };
    let mut sched = ShardedScheduler::new(100, cfg, StaticDistances::new(), 1, 1);

    // Warm-up: enough rounds that every queue history reaches its
    // retention-bounded steady length, the publisher's last full build
    // reserved slot headroom beyond it, and two consecutive epochs share
    // one slot layout (so the third begins recycling spare arrays).
    let warm_rounds = 32u64;
    let rounds = 200u64;
    // Host `h` probes through its leaf `10 + h` and each of two spines
    // (`20` and `21`) — two switch-disjoint routes per host, so `k_paths =
    // 3` genuinely resolves multipath k-sets.
    let mk_round = |round: u64| -> (u64, Vec<ProbePayload>) {
        let now = (round + 1) * ROUND_NS;
        let probes = (0..8u32)
            .flat_map(|h| {
                let q = (round % 5) as u32 + h * 3;
                [(20, 1), (21, 2)].map(|(spine, k)| {
                    let hops = [
                        hop(10 + h, q, q / 2, 10_000_000, now - 50_000),
                        hop(spine, q, q / 2, 10_000_000, now),
                    ];
                    probe(h, round * 2 + k, hops)
                })
            })
            .collect();
        (now, probes)
    };
    for round in 0..warm_rounds {
        let (now, probes) = mk_round(round);
        assert!(sched.ingest_batch(&probes, now), "every round publishes");
    }

    // Serving warm-up at k_paths = 3 against the live snapshot.
    let snap = sched.epoch_slot().current().expect("published");
    let mut scratch = SnapshotScratch::new();
    let mut detailed = RankOutcome::default();
    let warm_now = warm_rounds * ROUND_NS;
    for policy in [Policy::IntDelay, Policy::IntBandwidth] {
        snap.rank_detailed_into(&mut scratch, 100, policy, warm_now, 0, &mut detailed);
    }

    let (allocs, ()) = allocations_in(|| {
        for q in 0..1_000u64 {
            let now = warm_now + q;
            snap.rank_detailed_into(&mut scratch, 100, Policy::IntDelay, now, q, &mut detailed);
            snap.rank_detailed_into(
                &mut scratch,
                100,
                Policy::IntBandwidth,
                now,
                q,
                &mut detailed,
            );
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state k_paths > 1 snapshot queries must not touch the heap"
    );
    assert!(!detailed.ranked.is_empty());
    drop(snap); // release the reader pin so the publisher can recycle

    // Publish loop: probes are built outside the counted window (they
    // are the simulated network's traffic, not publisher work).
    let stats_before = sched.publish_stats();
    let batches: Vec<(u64, Vec<ProbePayload>)> =
        (warm_rounds..warm_rounds + rounds).map(mk_round).collect();

    let (allocs, ()) = allocations_in(|| {
        for (now, probes) in &batches {
            sched.ingest_batch(probes, *now);
        }
    });

    let stats = sched.publish_stats();
    assert_eq!(
        stats.incremental_builds - stats_before.incremental_builds,
        rounds,
        "every steady-state publish takes the incremental path: {stats:?}"
    );
    assert_eq!(
        stats.full_builds, stats_before.full_builds,
        "no steady-state full rebuilds"
    );
    assert!(
        allocs <= rounds,
        "steady-state ingest+publish must allocate at most the snapshot \
         Arc shell per epoch: {allocs} allocations over {rounds} rounds"
    );
}
