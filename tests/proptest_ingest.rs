//! Differential pinning of the memoized [`IntCollector`] against the
//! unmemoized write path it replaced.
//!
//! The reference lives here, not in `crates/core`: a bare [`NetworkMap`]
//! fed through [`NetworkMap::apply_probe`] (plus the relayed path's
//! `register_host`) and a `BTreeMap` of per-origin accounting. A random op
//! sequence drives both: direct probes (decoded, and as wire bytes) and
//! relayed ones from a few origins to several terminals each, over stacks
//! drawn from a four-switch alphabet — so routes repeat switches, contain
//! self-edges and A-B-A-B runs — of 0 to 11 hops; pairs re-send their last
//! route (the memo hit), flap to a new one, or a whole round re-probes;
//! sequence numbers repeat and go backwards; relayed probes arrive late;
//! `evict_stale` kills memo'd edges at random times (miss, then revival
//! under the old id); `take_dirty_into` drains both dirty lists.
//!
//! After **every** op the two must agree on everything a reader can see:
//! edges with their full state and histories, both generations, the dirty
//! list's content *and order*, dead edges, host and switch sets, and the
//! origin table.

use int_edge_sched::core::collector::OriginStats;
use int_edge_sched::core::map::EdgeId;
use int_edge_sched::core::{IntCollector, NetworkMap};
use int_edge_sched::packet::wire::WireEncode;
use int_edge_sched::packet::ProbePayload;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[path = "common/probe.rs"]
mod probes;
use probes::{hop, probe};

const SCHED: u32 = 100;
const MS: u64 = 1_000_000;
const EVICT_HORIZON_NS: u64 = 300 * MS;
const SILENCE_HORIZON_NS: u64 = 200 * MS;

/// The write path as it was before the route memo.
struct Reference {
    map: NetworkMap,
    origins: BTreeMap<u32, OriginStats>,
    accepted: u64,
}

impl Reference {
    fn new() -> Self {
        let mut map = NetworkMap::new();
        map.register_host(SCHED);
        Reference { map, origins: BTreeMap::new(), accepted: 0 }
    }

    fn ingest(&mut self, probe: &ProbePayload, terminal: u32, rx_ns: u64) {
        let st = self.origins.entry(probe.origin_node).or_default();
        st.received += 1;
        st.last_rx_ns = rx_ns;
        if st.received == 1 {
            st.max_seq = probe.seq;
        } else if probe.seq > st.max_seq {
            st.lost += probe.seq - st.max_seq - 1;
            st.max_seq = probe.seq;
        } else if probe.seq == st.max_seq {
            st.duplicate += 1;
        } else {
            st.reordered += 1;
        }
        self.accepted += 1;
        if terminal != SCHED {
            self.map.register_host(terminal);
        }
        self.map.apply_probe(probe, terminal, rx_ns);
    }
}

fn assert_same(col: &IntCollector, reference: &Reference, now_ns: u64) {
    let (got, want) = (col.map(), &reference.map);
    assert_eq!(
        got.edges().map(|(a, b, e)| (a, b, e.clone())).collect::<Vec<_>>(),
        want.edges().map(|(a, b, e)| (a, b, e.clone())).collect::<Vec<_>>(),
    );
    assert_eq!(got.topology_generation(), want.topology_generation());
    assert_eq!(got.metrics_generation(), want.metrics_generation());
    assert_eq!(got.dirty_count(), want.dirty_count());
    assert_eq!(got.dead_edges().collect::<Vec<_>>(), want.dead_edges().collect::<Vec<_>>());
    assert_eq!(got.hosts().collect::<Vec<_>>(), want.hosts().collect::<Vec<_>>());
    assert_eq!(got.switches().collect::<Vec<_>>(), want.switches().collect::<Vec<_>>());

    let origins: Vec<(u32, OriginStats)> = reference.origins.iter().map(|(&o, &st)| (o, st)).collect();
    assert_eq!(col.origin_stats_all().collect::<Vec<_>>(), origins);
    assert_eq!(col.origins().collect::<Vec<_>>(), reference.origins.keys().copied().collect::<Vec<_>>());
    for &(o, st) in &origins {
        assert_eq!(col.origin_stats(o), st);
    }
    assert_eq!(col.origin_stats(77), OriginStats::default(), "an origin never heard from");
    let silent: Vec<u32> = origins
        .iter()
        .filter(|(_, st)| now_ns.saturating_sub(st.last_rx_ns) > SILENCE_HORIZON_NS)
        .map(|&(o, _)| o)
        .collect();
    assert_eq!(col.silent_origins(now_ns, SILENCE_HORIZON_NS), silent);
    assert_eq!(col.probes_accepted(), reference.accepted);
    let (hits, misses) = col.memo_stats();
    assert_eq!(hits + misses, reference.accepted, "every accepted probe is a hit or a miss");
}

proptest! {
    #[test]
    fn memoized_collector_matches_unmemoized_reference(
        ops in proptest::collection::vec(
            // (op kind, origin, terminal pick, new route, seq, (latency ms, queue), clock step ms, lateness ms)
            (
                0u8..16, 0u32..3, 0u32..4,
                proptest::collection::vec(10u32..14, 0..12),
                0u64..6, (1u64..40, 0u32..40), 0u64..120, 0u64..30,
            ),
            1..60,
        ),
    ) {
        let mut col = IntCollector::new(SCHED);
        let mut reference = Reference::new();
        // The route each (origin, terminal) pair sent last.
        let mut routes: BTreeMap<(u32, u32), Vec<u32>> = BTreeMap::new();
        let (mut drained, mut drained_ref): (Vec<EdgeId>, Vec<EdgeId>) = (Vec::new(), Vec::new());
        let mut now_ns = 1_000 * MS;

        for (kind, origin, pick, fresh, seq, (lat_ms, qlen), dt_ms, late_ms) in ops {
            now_ns += dt_ms * MS;
            // Terminal 0 is the scheduler itself (the paper's direct
            // probing); the others relay, stamped when they received.
            let terminal = if pick == 0 { SCHED } else { 3 + pick };
            let send = |col: &mut IntCollector,
                        reference: &mut Reference,
                        (origin, terminal): (u32, u32),
                        route: &[u32],
                        bytes: bool| {
                let rx_ns = if terminal == SCHED { now_ns } else { now_ns - late_ms * MS };
                let n = route.len() as u64;
                let hops = route.iter().enumerate().map(|(i, &switch_id)| {
                    let ts = rx_ns.saturating_sub((n - i as u64) * lat_ms * MS);
                    // Depths differ along the path so staircases grow and shrink.
                    hop(switch_id, (qlen + 3 * i as u32) % 40, qlen / 2, lat_ms * MS + i as u64, ts)
                });
                let p = probe(origin, seq, hops);
                if terminal != SCHED {
                    col.ingest_relayed(&p, terminal, rx_ns);
                } else if bytes {
                    prop_assert_eq!(col.ingest_bytes(&p.to_bytes(), rx_ns), Ok(&p));
                } else {
                    col.ingest(&p, rx_ns);
                }
                reference.ingest(&p, terminal, rx_ns);
            };
            match kind {
                0 => {
                    prop_assert_eq!(
                        col.map_mut().evict_stale(now_ns, EVICT_HORIZON_NS),
                        reference.map.evict_stale(now_ns, EVICT_HORIZON_NS)
                    );
                }
                1 => {
                    col.map_mut().take_dirty_into(&mut drained);
                    reference.map.take_dirty_into(&mut drained_ref);
                    prop_assert_eq!(&drained, &drained_ref);
                }
                // A probing round: every pair re-sends its route.
                2..=4 => {
                    for (&pair, route) in &routes {
                        send(&mut col, &mut reference, pair, route, kind == 2);
                    }
                }
                // One pair re-sends its route (or its first, if new) …
                5..=10 => {
                    let route = routes.entry((origin, terminal)).or_insert(fresh);
                    send(&mut col, &mut reference, (origin, terminal), route, kind == 5);
                }
                // … or flaps to another one.
                _ => {
                    send(&mut col, &mut reference, (origin, terminal), &fresh, kind == 11);
                    routes.insert((origin, terminal), fresh);
                }
            }
            assert_same(&col, &reference, now_ns);
        }
        col.map_mut().take_dirty_into(&mut drained);
        reference.map.take_dirty_into(&mut drained_ref);
        prop_assert_eq!(drained, drained_ref);
    }
}
