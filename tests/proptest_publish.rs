//! Property-based pinning of the O(dirty) incremental epoch publisher
//! against the full-rebuild oracle.
//!
//! A random op sequence of probe updates (varying routes, latencies,
//! queues, clock steps; sent toward the scheduler, or back from it so
//! both directions of a link carry their own edge), whole re-probing
//! rounds (every edge learned so far dirty in one epoch, often in
//! consecutive epochs — the paper's cadence) and stale-link evictions
//! drives three planes over identical collector state, under either
//! direction-fallback policy:
//!
//! * a [`SnapshotPublisher`] with the incremental path enabled (the
//!   default) — patches dirty arcs in place while `topo_gen` holds,
//!   recycling the epoch-before-last's arrays when no reader pins them;
//! * a [`SnapshotPublisher`] with the incremental path forced off —
//!   every epoch is a full rebuild through the same publisher plumbing;
//! * the raw [`SchedSnapshot::build`] oracle, frozen from scratch.
//!
//! After **every** epoch all three snapshots must agree on all content
//! (`content_eq`: topology arrays, weights, delay estimates, queue
//! evidence runs, origin table) — only the physical `qlen_hist` slack
//! layout may differ. Every third epoch is pinned alive like a slow
//! reader shard would, and the pins are dropped now and then, so the
//! publisher exercises all three buffer paths: recycled spare (union
//! patch), allocation reuse (clone_from), and fresh clone.

use int_edge_sched::core::rank::StaticDistances;
use int_edge_sched::core::config::DirectionFallback;
use int_edge_sched::core::{CoreConfig, IntCollector, SchedSnapshot, SnapshotPublisher};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

#[path = "common/probe.rs"]
mod probes;
use probes::{hop, probe};

const SCHED: u32 = 100;
const EVICT_HORIZON_NS: u64 = 350_000_000;

/// One probe over one of three route shapes per host — a dedicated star
/// switch, a detour over the shared spine 20, and a cross route through
/// the neighbour's star switch (the proptest_core churn recipe) — sent
/// by the host toward the scheduler, or (`back`) by the scheduler toward
/// the host over the same switches in reverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Route {
    host: u32,
    shape: u32,
    back: bool,
}

impl Route {
    fn ingest(self, col: &mut IntCollector, lat_ms: u64, qlen: u32, seq: u64, now_ns: u64) {
        let mut chain: Vec<u32> = match self.shape {
            0 => vec![10 + self.host],
            1 => vec![10 + self.host, 20],
            _ => vec![20, 10 + (self.host + 1) % 5],
        };
        let (origin, terminal) = if self.back {
            chain.reverse();
            (SCHED, self.host)
        } else {
            (self.host, SCHED)
        };
        let last = chain.len() as u64 - 1;
        let hops = chain.iter().enumerate().map(|(i, &sw)| {
            let ts = now_ns - (last - i as u64) * lat_ms * 1_000_000;
            hop(sw, qlen, qlen / 2, lat_ms * 1_000_000, ts)
        });
        col.ingest_relayed(&probe(origin, seq, hops), terminal, now_ns);
    }
}

proptest! {
    #[test]
    fn incremental_publish_matches_full_rebuild_oracle(
        ops in proptest::collection::vec(
            // (host, route shape, link latency ms, queue, clock step ms, op kind)
            (0u32..5, 0u32..3, 1u64..50, 0u32..40, 1u64..250, 0u8..10),
            1..40,
        ),
        seed in any::<u64>(),
        strict in any::<bool>(),
    ) {
        let direction_fallback =
            if strict { DirectionFallback::Strict } else { DirectionFallback::ReverseOk };
        let cfg = Arc::new(CoreConfig { direction_fallback, ..CoreConfig::default() });
        let distances = Arc::new(StaticDistances::new());

        // Two collectors fed identically: each publisher must drain its
        // own dirty list without seeing the other's take.
        let mut col_inc = IntCollector::new(SCHED);
        let mut col_full = IntCollector::new(SCHED);
        let mut pub_inc = SnapshotPublisher::new();
        pub_inc.set_incremental(true);
        let mut pub_full = SnapshotPublisher::new();
        pub_full.set_incremental(false);

        let mut now_ns: u64 = 1_000_000_000;
        let mut pinned: Vec<Arc<SchedSnapshot>> = Vec::new();
        let mut learned: BTreeSet<Route> = BTreeSet::new();

        for (seq, &(host, shape, lat_ms, qlen, dt_ms, kind)) in ops.iter().enumerate() {
            now_ns += dt_ms * 1_000_000;
            let seq = seq as u64 + 1;
            match kind {
                // Stale links die (and the next probe over them revives).
                0 => {
                    col_inc.map_mut().evict_stale(now_ns, EVICT_HORIZON_NS);
                    col_full.map_mut().evict_stale(now_ns, EVICT_HORIZON_NS);
                }
                // A whole probing round: every route learned so far is
                // re-measured, so every edge it ever taught is dirty.
                1..=3 => {
                    for (i, route) in learned.iter().enumerate() {
                        let q = (qlen + 7 * i as u32) % 40;
                        route.ingest(&mut col_inc, lat_ms, q, seq, now_ns);
                        route.ingest(&mut col_full, lat_ms, q, seq, now_ns);
                    }
                }
                _ => {
                    let route = Route { host, shape, back: kind >= 8 };
                    learned.insert(route);
                    route.ingest(&mut col_inc, lat_ms, qlen, seq, now_ns);
                    route.ingest(&mut col_full, lat_ms, qlen, seq, now_ns);
                }
            }

            let epoch = seq;
            let inc = pub_inc.publish(&mut col_inc, &cfg, &distances, seed, epoch, now_ns);
            let full = pub_full.publish(&mut col_full, &cfg, &distances, seed, epoch, now_ns);
            let oracle = SchedSnapshot::build(&col_inc, &cfg, &distances, seed, epoch, now_ns);

            prop_assert!(
                inc.content_eq(&full),
                "incremental vs full publisher diverged after op {seq} (kind {kind})"
            );
            prop_assert!(
                inc.content_eq(&oracle),
                "incremental publisher vs raw oracle diverged after op {seq} (kind {kind})"
            );

            // Pin every third epoch like a slow reader shard would: the
            // publisher must fall back to cloning instead of recycling
            // until the reader lets go.
            if seq.is_multiple_of(3) {
                pinned.push(Arc::clone(&inc));
            }
            if seq.is_multiple_of(11) {
                pinned.clear();
            }
        }

        // The incremental publisher actually took the fast path at least
        // once on any run long enough to have two same-topology epochs
        // in a row (metric-only refreshes of existing edges).
        let stats = pub_inc.stats();
        prop_assert_eq!(
            stats.full_builds + stats.incremental_builds,
            ops.len() as u64
        );
        prop_assert_eq!(pub_full.stats().incremental_builds, 0);
    }
}
