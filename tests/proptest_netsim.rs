//! Property-based tests on the simulator substrates: the LPM forwarding
//! table against a reference model, event ordering, register semantics, queue
//! conservation, and TCP stream integrity under arbitrary loss patterns.

use int_edge_sched::dataplane::{Key, MatchActionTable, MatchKind, RegisterArray};
use int_edge_sched::netsim::tcp::{TcpConfig, TcpHost};
use int_edge_sched::netsim::topology::{ClosParams, FatTreeParams, LinkParams};
use int_edge_sched::netsim::{DropTailQueue, EventQueue, NodeKind, RouteTable, SimTime};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Reference LPM: scan all prefixes, pick the longest match.
fn reference_lpm(entries: &[([u8; 4], u16, u32)], key: [u8; 4]) -> Option<u32> {
    entries
        .iter()
        .filter(|(value, plen, _)| {
            let bits = u32::from_be_bytes(*value);
            let k = u32::from_be_bytes(key);
            let mask = if *plen == 0 { 0 } else { u32::MAX << (32 - *plen.min(&32)) };
            (bits & mask) == (k & mask)
        })
        .max_by_key(|(_, plen, _)| *plen)
        .map(|(_, _, action)| *action)
}

proptest! {
    /// The LPM table agrees with a brute-force reference on random
    /// prefix sets and lookups.
    #[test]
    fn lpm_matches_reference(
        entries in proptest::collection::vec((any::<[u8; 4]>(), 0u16..=32, any::<u32>()), 0..16),
        lookups in proptest::collection::vec(any::<[u8; 4]>(), 1..32),
    ) {
        // Dedup by (masked value, plen): the table has MODIFY semantics for
        // identical keys, the reference would keep both.
        let mut seen = std::collections::BTreeSet::new();
        let mut entries2 = Vec::new();
        for (v, plen, a) in entries {
            let bits = u32::from_be_bytes(v);
            let mask = if plen == 0 { 0 } else { u32::MAX << (32 - plen.min(32)) };
            if seen.insert((bits & mask, plen)) {
                entries2.push(((bits & mask).to_be_bytes(), plen, a));
            }
        }
        let mut table = MatchActionTable::new("fwd", MatchKind::Lpm);
        for (value, plen, action) in &entries2 {
            table.insert(Key::Lpm { value: value.to_vec(), prefix_len: *plen }, *action);
        }
        for key in lookups {
            let got = table.lookup(&key).copied();
            let want = reference_lpm(&entries2, key);
            // Equal-length overlaps are resolved identically because masked
            // values are unique per (value, plen).
            prop_assert_eq!(got, want, "key {:?}", key);
        }
    }

    /// The event queue dequeues in exact (time, insertion) order.
    #[test]
    fn event_queue_is_stable_priority_queue(times in proptest::collection::vec(any::<u32>(), 1..64)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(
                SimTime(t as u64),
                int_edge_sched::netsim::Event::AppTimer {
                    node: int_edge_sched::netsim::NodeId(0),
                    app_idx: 0,
                    timer_id: i as u64,
                },
            );
        }
        let mut expected: Vec<(u64, u64)> =
            times.iter().enumerate().map(|(i, &t)| (t as u64, i as u64)).collect();
        expected.sort();
        let mut got = Vec::new();
        while let Some((at, ev)) = q.pop() {
            if let int_edge_sched::netsim::Event::AppTimer { timer_id, .. } = ev {
                got.push((at.as_nanos(), timer_id));
            }
        }
        prop_assert_eq!(got, expected);
    }

    /// write_max is idempotent, commutative, and equals the running max.
    #[test]
    fn register_write_max_is_running_max(values in proptest::collection::vec(any::<u64>(), 1..64)) {
        let mut a = RegisterArray::new(1);
        for &v in &values {
            a.write_max(0, v);
        }
        prop_assert_eq!(a.read(0), *values.iter().max().unwrap());
        prop_assert_eq!(a.take(0), *values.iter().max().unwrap());
        prop_assert_eq!(a.read(0), 0);
    }

    /// Drop-tail conservation: enqueued = dequeued + still-queued + never
    /// more than capacity in the queue.
    #[test]
    fn queue_conserves_frames(ops in proptest::collection::vec(any::<bool>(), 1..256), cap in 1usize..32) {
        let mut q = DropTailQueue::new(cap);
        let mut dequeued = 0u64;
        for push in ops {
            if push {
                let frame = Box::new(int_edge_sched::dataplane::Frame::new(bytes::BytesMut::from(&[0u8; 10][..])));
                let was_full = q.depth_pkts() == cap;
                // A full queue hands the frame back instead of leaking it.
                prop_assert_eq!(q.enqueue(frame).is_some(), was_full);
            } else if q.dequeue().is_some() {
                dequeued += 1;
            }
            prop_assert!(q.depth_pkts() <= cap);
        }
        let s = q.stats();
        prop_assert_eq!(s.enqueued, dequeued + q.depth_pkts() as u64);
    }

    /// Clos generator invariants: node/link counts, strict bipartite tier
    /// wiring, all-pairs host connectivity, and tight hop-count bounds
    /// (2 links same-leaf, 4 links cross-leaf), for arbitrary shapes.
    #[test]
    fn clos_generator_invariants(
        spines in 1u32..6,
        leaves in 1u32..8,
        hosts_per_leaf in 1u32..4,
    ) {
        let p = ClosParams { spines, leaves, hosts_per_leaf, link: LinkParams::paper_default() };
        let f = p.build();
        prop_assert_eq!(f.hosts.len() as u32, leaves * hosts_per_leaf);
        prop_assert_eq!(f.tiers.len(), 2);
        prop_assert_eq!(f.tiers[0].len() as u32, leaves);
        prop_assert_eq!(f.tiers[1].len() as u32, spines);
        prop_assert_eq!(
            f.topo.links.len() as u32,
            leaves * hosts_per_leaf + leaves * spines,
            "host attachments plus the full bipartite mesh"
        );

        // Tier wiring is strictly bipartite: every link joins either a
        // host to a leaf or a leaf to a spine — never intra-tier.
        let tier_of = |n: int_edge_sched::netsim::NodeId| -> usize {
            if f.topo.node(n).kind == NodeKind::Host {
                0
            } else if f.tiers[0].contains(&n) {
                1
            } else {
                2
            }
        };
        for l in &f.topo.links {
            let (ta, tb) = (tier_of(l.a.0), tier_of(l.b.0));
            prop_assert_eq!(ta.abs_diff(tb), 1, "adjacent tiers only: {:?}", l.id);
        }
        // Every leaf reaches every spine exactly once.
        for &leaf in &f.tiers[0] {
            let up = f.topo.node(leaf).ports.iter()
                .filter(|pb| f.tiers[1].contains(&pb.peer)).count() as u32;
            prop_assert_eq!(up, spines);
        }

        let routes = RouteTable::compute(&f.topo);
        for &a in &f.hosts {
            for &b in &f.hosts {
                if a == b { continue; }
                let hops = routes.hop_count(a, b).expect("all host pairs connected");
                let expect = if f.leaf_of(a) == f.leaf_of(b) { 2 } else { 4 };
                prop_assert_eq!(hops, expect, "{a} -> {b}");
                if f.leaf_of(a) != f.leaf_of(b) {
                    // The host-facing tier exposes the full spine fan-out
                    // as equal-cost choices.
                    let ec = routes.equal_cost_ports(&f.topo, f.leaf_of(a), b);
                    prop_assert_eq!(ec.len() as u32, spines, "{a} -> {b}");
                }
            }
        }
    }

    /// Fat-tree generator invariants: classic counts for arity k, adjacent-
    /// tier wiring only, and 2/4/6-link hop bounds (same edge / same pod /
    /// cross pod).
    #[test]
    fn fat_tree_generator_invariants(half in 1u32..3, hosts_per_edge in 1u32..3) {
        let k = half * 2;
        let p = FatTreeParams { k, hosts_per_edge, link: LinkParams::paper_default() };
        let f = p.build();
        prop_assert_eq!(f.hosts.len() as u32, k * half * hosts_per_edge);
        prop_assert_eq!(f.tiers[0].len() as u32, k * half, "edge switches");
        prop_assert_eq!(f.tiers[1].len() as u32, k * half, "aggregation switches");
        prop_assert_eq!(f.tiers[2].len() as u32, half * half, "core switches");

        let tier_of = |n: int_edge_sched::netsim::NodeId| -> usize {
            if f.topo.node(n).kind == NodeKind::Host { return 0; }
            1 + f.tiers.iter().position(|t| t.contains(&n)).expect("switch in a tier")
        };
        for l in &f.topo.links {
            prop_assert_eq!(tier_of(l.a.0).abs_diff(tier_of(l.b.0)), 1, "{:?}", l.id);
        }

        let pod_of = |edge: int_edge_sched::netsim::NodeId| -> u32 {
            f.tiers[0].iter().position(|&e| e == edge).unwrap() as u32 / half
        };
        let routes = RouteTable::compute(&f.topo);
        for &a in &f.hosts {
            for &b in &f.hosts {
                if a == b { continue; }
                let hops = routes.hop_count(a, b).expect("all host pairs connected");
                let (ea, eb) = (f.leaf_of(a), f.leaf_of(b));
                let expect = if ea == eb {
                    2
                } else if pod_of(ea) == pod_of(eb) {
                    4
                } else {
                    6
                };
                prop_assert_eq!(hops, expect, "{a} -> {b}");
            }
        }
    }

    /// TCP delivers the exact byte stream for any loss pattern that is not
    /// total (each direction keeps at least some packets), using explicit
    /// timer firing to recover.
    #[test]
    fn tcp_stream_survives_arbitrary_loss(
        len in 1usize..30_000,
        loss_mask in any::<u64>(),
    ) {
        let a_ip = Ipv4Addr::new(10, 0, 0, 1);
        let b_ip = Ipv4Addr::new(10, 0, 0, 2);
        let mut a = TcpHost::new(a_ip, TcpConfig::default());
        let mut b = TcpHost::new(b_ip, TcpConfig::default());
        b.listen(7100);
        let conn = a.alloc_conn_id();
        a.connect(conn, b_ip, 7100, SimTime(0));

        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        a.send(conn, &data, SimTime(0));
        a.close(conn, SimTime(0));

        let mut received = Vec::new();
        let mut now = 1u64;
        let mut pkt_counter = 0u32;
        let mut pending_a: Vec<int_edge_sched::netsim::tcp::TimerRequest> = Vec::new();
        let mut pending_b: Vec<int_edge_sched::netsim::tcp::TimerRequest> = Vec::new();
        // Drive the pair: exchange segments (dropping per the mask), firing
        // every pending timer when the network goes quiet.
        for _round in 0..10_000 {
            let from_a = a.take_segments();
            let from_b = b.take_segments();
            let quiet = from_a.is_empty() && from_b.is_empty();
            // The mask drops data/FIN segments (retransmitted without
            // limit); handshake segments are spared because connects give
            // up after a bounded number of SYN retries, by design.
            let mut lossy = |hdr: &int_edge_sched::packet::TcpHeader, plen: usize| {
                if hdr.flags.syn || (plen == 0 && !hdr.flags.fin) {
                    return false;
                }
                pkt_counter += 1;
                pkt_counter < 64 && (loss_mask >> (pkt_counter % 64)) & 1 == 1
            };
            for s in from_a {
                if !lossy(&s.header, s.payload.len()) {
                    b.on_segment(SimTime(now), a_ip, &s.header, &s.payload);
                }
            }
            for s in from_b {
                if !lossy(&s.header, s.payload.len()) {
                    a.on_segment(SimTime(now), b_ip, &s.header, &s.payload);
                }
            }
            for e in b.take_events() {
                if let int_edge_sched::netsim::TcpEvent::Data { data, .. } = e {
                    received.extend_from_slice(&data);
                }
            }
            a.take_events();
            if received.len() == len {
                break;
            }
            // Collect timer arms from both sides (stale generations are
            // filtered by the hosts when fired).
            pending_a.extend(a.take_timer_requests());
            pending_b.extend(b.take_timer_requests());
            if quiet {
                // Network idle: advance time and fire everything pending.
                now += 2_000_000_000;
                for t in std::mem::take(&mut pending_a) {
                    a.on_timer(t.conn, t.generation, SimTime(now));
                }
                for t in std::mem::take(&mut pending_b) {
                    b.on_timer(t.conn, t.generation, SimTime(now));
                }
            } else {
                now += 1_000_000;
            }
        }
        prop_assert_eq!(received.len(), len, "stream fully delivered");
        prop_assert_eq!(received, data, "stream intact and in order");
    }
}
