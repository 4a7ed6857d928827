//! The collector's write path on a stable fabric performs **zero heap
//! allocations**, and learning the fabric allocates per *doubling* of the
//! collector's tables, not per origin.
//!
//! * Steady state: after one learning round, a full `ingest_batch` round
//!   over the same routes with flat queue depths — route memo hits all the
//!   way — touches the heap not once; nor does the same round arriving as
//!   wire bytes through `ingest_bytes`, which decodes into one kept payload.
//! * Learning: the map underneath allocates per edge it learns (queue
//!   histories, node sets) whoever drives it, so the collector's own share
//!   is what the learning round allocates *beyond* a bare `NetworkMap` fed
//!   the same probes. That share — origin table, pair index, memo arena —
//!   must stay within a small constant × log₂(origins). A memo holding a
//!   `Vec` or two per origin fails this by two orders of magnitude.
//!
//! Single test function on purpose: parallel tests would interleave their
//! allocations into the shared counter.

#[path = "common/alloc.rs"]
mod alloc;
#[path = "common/probe.rs"]
mod probes;

use alloc::allocations_in;
use int_edge_sched::core::{IntCollector, NetworkMap};
use int_edge_sched::packet::wire::WireEncode;
use int_edge_sched::packet::ProbePayload;
use probes::{hop, probe};

const SCHED: u32 = 100_000;
const ORIGINS: u32 = 4096;
const ROUND_NS: u64 = 100_000_000;

/// One probing round of a two-tier fabric: every origin reaches the
/// scheduler over its leaf (64 of them), a spine and the scheduler's leaf.
/// Queue depths are flat, so per-edge histories stay one entry long.
fn probe_round(round: u64) -> Vec<ProbePayload> {
    let now_ns = (round + 1) * ROUND_NS;
    (0..ORIGINS)
        .map(|o| {
            let switches = [1_000 + o % 64, 2_000 + o % 4, 3_000].into_iter().enumerate();
            let hops = switches
                .map(|(i, sw)| hop(sw, 5, 2, 10_000 + round, now_ns - (3 - i as u64) * 10_000));
            probe(o, round, hops)
        })
        .collect()
}

#[test]
fn stable_routes_ingest_without_allocating_and_learning_allocates_per_doubling() {
    let learning = probe_round(0);
    let mut drained = Vec::new();

    // What the map allocates learning this fabric, whoever feeds it.
    let mut bare = NetworkMap::new();
    bare.register_host(SCHED);
    let (map_allocs, ()) = allocations_in(|| {
        for p in &learning {
            bare.apply_probe(p, SCHED, ROUND_NS);
        }
    });

    let mut col = IntCollector::new(SCHED);
    let (learning_allocs, ()) = allocations_in(|| col.ingest_batch(&learning, ROUND_NS));
    assert_eq!(col.memo_stats(), (0, ORIGINS as u64));
    assert_eq!(col.map().edge_count(), bare.edge_count());
    let own = learning_allocs.saturating_sub(map_allocs);
    let bound = 8 * ORIGINS.ilog2() as u64;
    assert!(
        own <= bound,
        "learning {ORIGINS} origins cost the collector {own} allocations of its own \
         ({learning_allocs} with the map's {map_allocs}); table and arena growth allow {bound}"
    );
    col.map_mut().take_dirty_into(&mut drained);

    // Stable routes: every probe of every later round is a memo hit.
    for round in 1..4u64 {
        let probes = probe_round(round);
        let now_ns = (round + 1) * ROUND_NS;
        let (allocs, ()) = allocations_in(|| col.ingest_batch(&probes, now_ns));
        assert_eq!(allocs, 0, "round {round} over stable routes must not touch the heap");
        assert_eq!(col.memo_stats(), (round * ORIGINS as u64, ORIGINS as u64));
        allocations_in(|| col.map_mut().take_dirty_into(&mut drained));
        assert_eq!(drained.len(), col.map().edge_count(), "every edge refreshed");
    }

    // The same as wire bytes: after the first datagram sized the kept
    // payload, decoding allocates nothing either.
    let wire: Vec<Vec<u8>> = probe_round(4).iter().map(|p| p.to_bytes()).collect();
    let now_ns = 5 * ROUND_NS;
    col.ingest_bytes(&wire[0], now_ns).expect("well-formed probe");
    let (allocs, ()) = allocations_in(|| {
        for bytes in &wire[1..] {
            col.ingest_bytes(bytes, now_ns).expect("well-formed probe");
        }
    });
    assert_eq!(allocs, 0, "ingest_bytes over stable routes must not touch the heap");
    assert_eq!(col.memo_stats().1, ORIGINS as u64, "no miss since the learning round");
    assert_eq!(col.parse_errors(), 0);
}
