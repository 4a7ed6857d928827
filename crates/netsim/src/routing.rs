//! Shortest-path routing over the topology.
//!
//! Routes are computed once at simulation build time with per-source
//! Dijkstra (weight = link propagation delay, deterministic tie-break on
//! node id) and installed into every switch's LPM table as /32 host routes
//! — the control-plane step a real deployment performs via p4runtime.

use crate::time::SimDuration;
use crate::topology::{NodeId, PortId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// All-pairs routing state: next hops, distances, and reconstructable paths.
#[derive(Debug, Clone)]
pub struct RouteTable {
    n: usize,
    /// `dist_ns[src][dst]` — shortest-path delay, `u64::MAX` if unreachable.
    dist_ns: Vec<Vec<u64>>,
    /// `prev[src][dst]` — predecessor of `dst` on the shortest path from `src`.
    prev: Vec<Vec<Option<NodeId>>>,
}

impl RouteTable {
    /// Run Dijkstra from every node.
    pub fn compute(topo: &Topology) -> RouteTable {
        let n = topo.nodes.len();
        let mut dist_ns = vec![vec![u64::MAX; n]; n];
        let mut prev = vec![vec![None; n]; n];

        for src in 0..n {
            let (d, p) = dijkstra(topo, NodeId(src as u32));
            dist_ns[src] = d;
            prev[src] = p;
        }
        RouteTable { n, dist_ns, prev }
    }

    /// Shortest-path propagation delay between two nodes.
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<SimDuration> {
        let d = self.dist_ns[from.0 as usize][to.0 as usize];
        (d != u64::MAX).then_some(SimDuration::from_nanos(d))
    }

    /// Node sequence of the shortest path, inclusive of both endpoints.
    pub fn path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        if self.dist_ns[from.0 as usize][to.0 as usize] == u64::MAX {
            return None;
        }
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = self.prev[from.0 as usize][cur.0 as usize]?;
            path.push(cur);
            debug_assert!(path.len() <= self.n, "cycle in prev chain");
        }
        path.reverse();
        Some(path)
    }

    /// Number of links on the shortest path (the paper's "hops": a host
    /// pair with two switches between them is 3 hops apart).
    pub fn hop_count(&self, from: NodeId, to: NodeId) -> Option<usize> {
        self.path(from, to).map(|p| p.len() - 1)
    }

    /// First hop from `from` toward `to`.
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> Option<NodeId> {
        let p = self.path(from, to)?;
        p.get(1).copied()
    }

    /// Egress port on `from` toward `to` (next-hop port lookup).
    pub fn egress_port(&self, topo: &Topology, from: NodeId, to: NodeId) -> Option<PortId> {
        let nh = self.next_hop(from, to)?;
        topo.node(from)
            .ports
            .iter()
            .position(|pb| pb.peer == nh)
            .map(|i| i as PortId)
    }

    /// *All* egress ports of `from` that lie on some shortest path to
    /// `to`: port `p` with peer `v` qualifies iff
    /// `w(from,v) + dist(v,to) == dist(from,to)` — the standard ECMP
    /// relaxation test over the all-pairs distance matrix. Ports come out
    /// in creation order, so the set is deterministic; the single-path
    /// [`RouteTable::egress_port`] answer is always a member. Empty when
    /// `to` is unreachable or `from == to`.
    pub fn equal_cost_ports(&self, topo: &Topology, from: NodeId, to: NodeId) -> Vec<PortId> {
        let total = self.dist_ns[from.0 as usize][to.0 as usize];
        if total == u64::MAX || from == to {
            return Vec::new();
        }
        topo.node(from)
            .ports
            .iter()
            .enumerate()
            .filter(|(_, pb)| {
                let w = topo.link(pb.link).params.delay.as_nanos();
                let rest = self.dist_ns[pb.peer.0 as usize][to.0 as usize];
                rest != u64::MAX && w.saturating_add(rest) == total
            })
            .map(|(i, _)| i as PortId)
            .collect()
    }
}

/// What a node is, in the structural Clos layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosNodeKind {
    /// A host, with its index (= node id).
    Host(u32),
    /// A leaf switch, with its leaf index.
    Leaf(u32),
    /// A spine switch, with its spine index.
    Spine(u32),
}

/// Structural O(1) routing for fabrics built by
/// [`ClosParams::build`](crate::topology::ClosParams::build) (and its
/// tiered-delay variant): next hops, distances and ECMP groups read off
/// the leaf-spine structure instead of an all-pairs Dijkstra.
///
/// The all-pairs [`RouteTable`] costs `O(n²)` memory and `n` Dijkstra
/// runs — ~1.8 GB and minutes of setup for a 10k-host fabric, which is
/// exactly what made giant runs infeasible. A Clos has no routing
/// freedom a table could add: every host-to-host path is
/// host→leaf(→spine→leaf)→host, and all spines are equal-cost. This
/// struct encodes the layout contract of `ClosParams::build`:
///
/// * node ids: hosts `0..H` leaf-major, leaves `H..H+L`, spines
///   `H+L..H+L+S`;
/// * leaf ports: `0..hpl-1` attach the leaf's own hosts in id order,
///   `hpl..hpl+S-1` attach the spines in spine order;
/// * spine ports: port `l` attaches leaf `l`;
/// * host port `0` is the single uplink.
///
/// The parity test below pins this against a Dijkstra [`RouteTable`] on
/// a small fabric.
#[derive(Debug, Clone, Copy)]
pub struct ClosRoutes {
    spines: u32,
    leaves: u32,
    hosts_per_leaf: u32,
    /// Host–leaf attachment delay, ns.
    host_delay_ns: u64,
    /// Leaf–spine uplink delay, ns.
    uplink_delay_ns: u64,
}

impl ClosRoutes {
    /// Structural routes for a fabric with the given tier sizes and
    /// per-tier link delays (equal for `ClosParams::build`, distinct
    /// for the tiered-delay builder).
    pub fn new(
        spines: u32,
        leaves: u32,
        hosts_per_leaf: u32,
        host_delay: SimDuration,
        uplink_delay: SimDuration,
    ) -> Self {
        assert!(spines >= 1 && leaves >= 1 && hosts_per_leaf >= 1, "empty tier");
        Self {
            spines,
            leaves,
            hosts_per_leaf,
            host_delay_ns: host_delay.as_nanos(),
            uplink_delay_ns: uplink_delay.as_nanos(),
        }
    }

    /// Host count.
    pub fn hosts(&self) -> u32 {
        self.leaves * self.hosts_per_leaf
    }

    /// Spine count (the ECMP fan-out every leaf sees).
    pub fn spines(&self) -> u32 {
        self.spines
    }

    /// Leaf count.
    pub fn leaves(&self) -> u32 {
        self.leaves
    }

    /// Hosts attached to each leaf.
    pub fn hosts_per_leaf(&self) -> u32 {
        self.hosts_per_leaf
    }

    /// Classify a node id per the structural layout.
    pub fn kind_of(&self, n: NodeId) -> ClosNodeKind {
        let h = self.hosts();
        if n.0 < h {
            ClosNodeKind::Host(n.0)
        } else if n.0 < h + self.leaves {
            ClosNodeKind::Leaf(n.0 - h)
        } else {
            assert!(n.0 < h + self.leaves + self.spines, "node {n} outside fabric");
            ClosNodeKind::Spine(n.0 - h - self.leaves)
        }
    }

    /// A leaf's uplink ports toward the spines, in spine order — the
    /// equal-cost group for every remote destination.
    pub fn leaf_uplink_ports(&self) -> Vec<PortId> {
        (self.hosts_per_leaf..self.hosts_per_leaf + self.spines)
            .map(|p| p as PortId)
            .collect()
    }

    /// The spine port attaching leaf `l` (spine ports are in leaf order).
    pub fn spine_port_to_leaf(&self, leaf: u32) -> PortId {
        leaf as PortId
    }

    /// Shortest-path propagation delay between two hosts: 0 to self,
    /// two host hops within a leaf, plus two uplink hops across leaves.
    /// Only the parity test below reads it; it is what checks the
    /// per-tier delays [`ClosRoutes::new`] takes.
    pub fn host_distance(&self, a: u32, b: u32) -> SimDuration {
        let ns = if a == b {
            0
        } else if a / self.hosts_per_leaf == b / self.hosts_per_leaf {
            2 * self.host_delay_ns
        } else {
            2 * self.host_delay_ns + 2 * self.uplink_delay_ns
        };
        SimDuration::from_nanos(ns)
    }
}

/// The routing mode a simulation was built with: a general all-pairs
/// [`RouteTable`], or structural [`ClosRoutes`] for giant leaf-spine
/// fabrics where the table's `O(n²)` state is the scaling bottleneck.
#[derive(Debug)]
pub enum Routes {
    /// All-pairs Dijkstra (any topology).
    Table(RouteTable),
    /// Structural Clos routing (ClosParams-built fabrics only).
    Clos(ClosRoutes),
}

fn dijkstra(topo: &Topology, src: NodeId) -> (Vec<u64>, Vec<Option<NodeId>>) {
    let n = topo.nodes.len();
    let mut dist = vec![u64::MAX; n];
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();

    dist[src.0 as usize] = 0;
    heap.push(Reverse((0u64, src.0)));

    while let Some(Reverse((d, u))) = heap.pop() {
        if done[u as usize] {
            continue;
        }
        done[u as usize] = true;
        let node = topo.node(NodeId(u));
        // Ports in creation order → deterministic relaxations; strict `<`
        // keeps the first-found route among equal-cost alternatives.
        for pb in &node.ports {
            let link = topo.link(pb.link);
            let nd = d.saturating_add(link.params.delay.as_nanos());
            let v = pb.peer.0 as usize;
            if nd < dist[v] {
                dist[v] = nd;
                prev[v] = Some(NodeId(u));
                heap.push(Reverse((nd, v as u32)));
            }
        }
    }
    (dist, prev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkParams;

    fn params(ms: u64) -> LinkParams {
        LinkParams {
            bandwidth_bps: 20_000_000,
            delay: SimDuration::from_millis(ms),
            queue_cap_pkts: 64,
        }
    }

    /// h1 - s1 - s2 - h2, with a slow detour s1 - s3 - s2.
    fn line_with_detour() -> (Topology, [NodeId; 5]) {
        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let s1 = t.add_switch("s1");
        let s2 = t.add_switch("s2");
        let s3 = t.add_switch("s3");
        let h2 = t.add_host("h2");
        t.add_link(h1, s1, params(10));
        t.add_link(s1, s2, params(10));
        t.add_link(s2, h2, params(10));
        t.add_link(s1, s3, params(50));
        t.add_link(s3, s2, params(50));
        (t, [h1, s1, s2, s3, h2])
    }

    #[test]
    fn picks_shortest_path() {
        let (t, [h1, s1, s2, _s3, h2]) = line_with_detour();
        let r = RouteTable::compute(&t);
        assert_eq!(r.path(h1, h2).unwrap(), vec![h1, s1, s2, h2]);
        assert_eq!(r.distance(h1, h2).unwrap(), SimDuration::from_millis(30));
        assert_eq!(r.hop_count(h1, h2), Some(3));
        assert_eq!(r.next_hop(s1, h2), Some(s2));
    }

    #[test]
    fn egress_ports_follow_path() {
        let (t, [h1, s1, _s2, _s3, h2]) = line_with_detour();
        let r = RouteTable::compute(&t);
        // s1's ports: 0→h1, 1→s2, 2→s3
        assert_eq!(r.egress_port(&t, s1, h2), Some(1));
        assert_eq!(r.egress_port(&t, s1, h1), Some(0));
        assert_eq!(r.egress_port(&t, h1, h2), Some(0), "host single uplink");
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_host("a");
        let b = t.add_host("b");
        let c = t.add_host("c");
        t.add_link(a, b, params(10));
        // c has a link only to itself-ish world: connect c to nothing else.
        let d = t.add_host("d");
        t.add_link(c, d, params(10));
        let r = RouteTable::compute(&t);
        assert_eq!(r.distance(a, c), None);
        assert_eq!(r.path(a, c), None);
        assert_eq!(r.hop_count(a, b), Some(1));
    }

    #[test]
    fn equal_cost_tiebreak_is_deterministic() {
        // Ring of 4 switches: two equal-cost paths between opposite corners.
        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let h2 = t.add_host("h2");
        let s: Vec<NodeId> = (0..4).map(|i| t.add_switch(format!("s{i}"))).collect();
        t.add_link(h1, s[0], params(10));
        t.add_link(h2, s[2], params(10));
        t.add_link(s[0], s[1], params(10));
        t.add_link(s[1], s[2], params(10));
        t.add_link(s[0], s[3], params(10));
        t.add_link(s[3], s[2], params(10));
        let r1 = RouteTable::compute(&t);
        let r2 = RouteTable::compute(&t);
        assert_eq!(r1.path(h1, h2), r2.path(h1, h2));
        assert_eq!(r1.path(h1, h2).unwrap().len(), 5, "h1 s0 sX s2 h2");
    }

    #[test]
    fn path_to_self_is_singleton() {
        let (t, [h1, ..]) = line_with_detour();
        let r = RouteTable::compute(&t);
        assert_eq!(r.path(h1, h1).unwrap(), vec![h1]);
        assert_eq!(r.distance(h1, h1).unwrap(), SimDuration::ZERO);
    }

    #[test]
    fn equal_cost_ports_expose_every_tied_next_hop() {
        // Same ring of 4: s0 has two equal-cost egresses toward h2 (via s1
        // and via s3), but only one toward h1 (the direct attachment).
        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let h2 = t.add_host("h2");
        let s: Vec<NodeId> = (0..4).map(|i| t.add_switch(format!("s{i}"))).collect();
        t.add_link(h1, s[0], params(10));
        t.add_link(h2, s[2], params(10));
        t.add_link(s[0], s[1], params(10));
        t.add_link(s[1], s[2], params(10));
        t.add_link(s[0], s[3], params(10));
        t.add_link(s[3], s[2], params(10));
        let r = RouteTable::compute(&t);

        // s0's ports: 0→h1, 1→s1, 2→s3.
        assert_eq!(r.equal_cost_ports(&t, s[0], h2), vec![1, 2]);
        assert_eq!(r.equal_cost_ports(&t, s[0], h1), vec![0]);
        // The single-path answer is always a member of the set.
        let primary = r.egress_port(&t, s[0], h2).unwrap();
        assert!(r.equal_cost_ports(&t, s[0], h2).contains(&primary));
        // Self targets yield empty sets.
        assert!(r.equal_cost_ports(&t, h1, h1).is_empty());
    }

    #[test]
    fn equal_cost_ports_degrade_to_single_on_asymmetric_costs() {
        let (t, [h1, s1, _s2, _s3, h2]) = line_with_detour();
        let r = RouteTable::compute(&t);
        // The 50 ms detour is not equal-cost with the 10 ms direct hop.
        assert_eq!(r.equal_cost_ports(&t, s1, h2), vec![1]);
        assert_eq!(r.equal_cost_ports(&t, h1, h2), vec![0]);
    }

    #[test]
    fn clos_routes_match_dijkstra_on_a_small_fabric() {
        // The structural layout contract, pinned against the general
        // Dijkstra table on a 3-spine / 4-leaf / 2-hosts-per-leaf Clos.
        use crate::topology::ClosParams;
        let cp = ClosParams { spines: 3, leaves: 4, hosts_per_leaf: 2, link: params(10) };
        let fab = cp.build();
        let t = &fab.topo;
        let table = RouteTable::compute(t);
        let c = ClosRoutes::new(3, 4, 2, cp.link.delay, cp.link.delay);
        let h = c.hosts();
        assert_eq!(h, 8);
        for (i, &hn) in fab.hosts.iter().enumerate() {
            assert_eq!(hn.0, i as u32, "hosts are the low ids, leaf-major");
        }
        for a in 0..h {
            for b in 0..h {
                assert_eq!(
                    table.distance(NodeId(a), NodeId(b)),
                    Some(c.host_distance(a, b)),
                    "distance {a}->{b}"
                );
                // Leaf forwarding toward b: exact port for own hosts,
                // the full spine uplink group for remote ones.
                let leaf = NodeId(h + a / 2);
                assert_eq!(c.kind_of(leaf), ClosNodeKind::Leaf(a / 2));
                let ecmp = table.equal_cost_ports(t, leaf, NodeId(b));
                if a / 2 == b / 2 {
                    assert_eq!(ecmp, vec![(b % 2) as PortId], "leaf {leaf}->{b}");
                } else {
                    assert_eq!(ecmp, c.leaf_uplink_ports(), "leaf {leaf}->{b}");
                }
            }
        }
        // Spine forwarding: one port, toward the destination's leaf.
        for s in 0..3u32 {
            let spine = NodeId(h + 4 + s);
            assert_eq!(c.kind_of(spine), ClosNodeKind::Spine(s));
            for b in 0..h {
                let want = c.spine_port_to_leaf(b / 2);
                assert_eq!(table.egress_port(t, spine, NodeId(b)), Some(want));
                assert_eq!(table.equal_cost_ports(t, spine, NodeId(b)), vec![want]);
            }
        }
        // Node classification round-trips the layout.
        assert_eq!(c.kind_of(NodeId(0)), ClosNodeKind::Host(0));
        assert_eq!(c.kind_of(NodeId(7)), ClosNodeKind::Host(7));
        assert_eq!(c.kind_of(NodeId(8)), ClosNodeKind::Leaf(0));
        assert_eq!(c.kind_of(NodeId(11)), ClosNodeKind::Leaf(3));
        assert_eq!(c.kind_of(NodeId(12)), ClosNodeKind::Spine(0));
    }
}
