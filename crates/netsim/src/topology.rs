//! Topology description: nodes (hosts and switches), links, port bindings,
//! and deterministic IP/MAC assignment.

use crate::time::SimDuration;
use int_obs::{fnv1a, SlabIndex};
use serde::{Serialize, Value};
use std::fmt;
use std::net::Ipv4Addr;

/// Index of a node in the topology (hosts and switches share the space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of a link in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct LinkId(pub u32);

/// A node-local port index (matches `int_dataplane::PortId`).
pub type PortId = u16;

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum NodeKind {
    /// An end host: runs applications, terminates transport connections.
    Host,
    /// A P4-programmable switch: runs a data-plane program.
    Switch,
}

/// Physical characteristics of a (bidirectional, symmetric) link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LinkParams {
    /// Line rate in bits per second (each direction).
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Egress queue capacity at each endpoint, in packets (drop-tail).
    pub queue_cap_pkts: usize,
}

impl LinkParams {
    /// The paper's emulation setting: 20 Mbit/s effective rate, 10 ms
    /// delay, and a BMv2-like queue of 64 packets.
    pub fn paper_default() -> Self {
        LinkParams {
            bandwidth_bps: 20_000_000,
            delay: SimDuration::from_millis(10),
            queue_cap_pkts: 64,
        }
    }
}

/// One endpoint's view of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PortBinding {
    /// The link this port attaches to.
    pub link: LinkId,
    /// Node on the far end.
    pub peer: NodeId,
    /// Port index on the far end.
    pub peer_port: PortId,
}

/// A node in the specification.
#[derive(Debug, Clone, Serialize)]
pub struct NodeSpec {
    /// Node identity.
    pub id: NodeId,
    /// Human-readable name (unique).
    pub name: String,
    /// Host or switch.
    pub kind: NodeKind,
    /// Ports, in creation order.
    pub ports: Vec<PortBinding>,
}

/// A link in the specification.
#[derive(Debug, Clone, Serialize)]
pub struct LinkSpec {
    /// Link identity.
    pub id: LinkId,
    /// First endpoint (node, port).
    pub a: (NodeId, PortId),
    /// Second endpoint (node, port).
    pub b: (NodeId, PortId),
    /// Physical parameters.
    pub params: LinkParams,
}

/// A complete network description, built incrementally.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// All nodes (index = `NodeId.0`).
    pub nodes: Vec<NodeSpec>,
    /// All links (index = `LinkId.0`).
    pub links: Vec<LinkSpec>,
    /// Node name → node id over the names in `nodes`, kept by
    /// `add_node` (a node pushed onto `nodes` directly is not in it).
    names: SlabIndex,
}

/// The description alone, `{nodes, links}`: the name index is derived.
impl Serialize for Topology {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("nodes".to_string(), self.nodes.serialize()),
            ("links".to_string(), self.links.serialize()),
        ])
    }
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a node. Panics on a name already taken, checked in O(1)
    /// through the name index (hash of the name → id; the names
    /// themselves live in `nodes` only), so building an n-node fabric is
    /// linear in n.
    fn add_node(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeId {
        let name = name.into();
        let Topology { nodes, names, .. } = self;
        let hash = fnv1a(name.bytes());
        assert!(
            names.find(hash, |id| nodes[id as usize].name == name).is_none(),
            "duplicate node name `{name}`"
        );
        let id = NodeId(nodes.len() as u32);
        names.insert(hash, id.0, |old| fnv1a(nodes[old as usize].name.bytes()));
        nodes.push(NodeSpec { id, name, kind, ports: Vec::new() });
        id
    }

    /// Add a host.
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name, NodeKind::Host)
    }

    /// Add a switch.
    pub fn add_switch(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name, NodeKind::Switch)
    }

    /// Connect two nodes; ports are allocated in creation order on each.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, params: LinkParams) -> LinkId {
        assert_ne!(a, b, "self-links are not supported");
        let id = LinkId(self.links.len() as u32);
        let a_port = self.nodes[a.0 as usize].ports.len() as PortId;
        let b_port = self.nodes[b.0 as usize].ports.len() as PortId;
        self.nodes[a.0 as usize].ports.push(PortBinding { link: id, peer: b, peer_port: b_port });
        self.nodes[b.0 as usize].ports.push(PortBinding { link: id, peer: a, peer_port: a_port });
        self.links.push(LinkSpec { id, a: (a, a_port), b: (b, b_port), params });
        id
    }

    /// Node spec by id.
    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.0 as usize]
    }

    /// Link spec by id.
    pub fn link(&self, id: LinkId) -> &LinkSpec {
        &self.links[id.0 as usize]
    }

    /// The link connecting `a` and `b` (either order), if one exists:
    /// the first of `a`'s ports whose peer is `b` (the lowest such link
    /// id), so O(degree of `a`). `None` for an unknown `a`.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        let ports = &self.nodes.get(a.0 as usize)?.ports;
        ports.iter().find(|p| p.peer == b).map(|p| p.link)
    }

    /// All host node ids, in creation order.
    pub fn hosts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().filter(|n| n.kind == NodeKind::Host).map(|n| n.id)
    }

    /// All switch node ids, in creation order.
    pub fn switches(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().filter(|n| n.kind == NodeKind::Switch).map(|n| n.id)
    }

    /// Deterministic IPv4 address of a host: `10.x.y.z` derived from the
    /// node id (`10.0.y.z` for the first 65,535 nodes, so small-fabric
    /// addresses are unchanged). Switches are transparent L3 devices and
    /// have no address. Panics past 2²⁴−2 nodes — beyond the 10/8 space —
    /// instead of silently aliasing two hosts onto one address, which at
    /// giant scale would misdeliver traffic with no diagnostic.
    pub fn host_ip(id: NodeId) -> Ipv4Addr {
        let n = id.0 + 1; // avoid .0 network address
        assert!(n < 1 << 24, "node id {} exceeds the 10/8 address space", id.0);
        Ipv4Addr::new(10, (n >> 16) as u8, (n >> 8) as u8, (n & 0xFF) as u8)
    }

    /// Inverse of [`Topology::host_ip`].
    pub fn node_of_ip(ip: Ipv4Addr) -> Option<NodeId> {
        let o = ip.octets();
        if o[0] != 10 {
            return None;
        }
        let n = ((o[1] as u32) << 16) | ((o[2] as u32) << 8) | o[3] as u32;
        n.checked_sub(1).map(NodeId)
    }

    /// Validate structural invariants; called by the simulator at build
    /// time. Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for host in self.hosts() {
            let n = self.node(host);
            if n.ports.is_empty() {
                return Err(format!("host `{}` has no links", n.name));
            }
        }
        for link in &self.links {
            for (node, port) in [link.a, link.b] {
                let spec = self.node(node);
                let bound = spec
                    .ports
                    .get(port as usize)
                    .ok_or_else(|| format!("link {:?} references missing port", link.id))?;
                if bound.link != link.id {
                    return Err(format!("port binding mismatch on `{}`", spec.name));
                }
            }
            if link.params.queue_cap_pkts == 0 {
                return Err(format!("link {:?} has zero-capacity queue", link.id));
            }
            if link.params.bandwidth_bps == 0 {
                return Err(format!("link {:?} has zero bandwidth", link.id));
            }
        }
        Ok(())
    }
}

/// A generated multipath fabric: the topology plus the node handles a
/// caller needs to attach apps, pick probers, or assert wiring.
#[derive(Debug, Clone)]
pub struct Fabric {
    /// The wired topology.
    pub topo: Topology,
    /// All hosts, leaf-major (hosts of leaf 0 first).
    pub hosts: Vec<NodeId>,
    /// Switch tiers, host-facing tier first: `tiers[0]` = leaves,
    /// `tiers[1]` = spines.
    pub tiers: Vec<Vec<NodeId>>,
}

impl Fabric {
    /// Every switch of every tier, in tier order.
    pub fn switches(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.tiers.iter().flatten().copied()
    }

    /// The leaf switch a host attaches to.
    pub fn leaf_of(&self, host: NodeId) -> NodeId {
        self.topo.node(host).ports[0].peer
    }
}

/// Parameters of a two-tier leaf–spine Clos fabric: every leaf connects
/// to every spine (full bipartite), hosts hang off leaves. Any two hosts
/// on different leaves have exactly `spines` equal-cost paths.
#[derive(Debug, Clone, Copy)]
pub struct ClosParams {
    /// Spine (top-tier) switch count — the ECMP fan-out.
    pub spines: u32,
    /// Leaf (host-facing) switch count.
    pub leaves: u32,
    /// Hosts attached to each leaf.
    pub hosts_per_leaf: u32,
    /// Link parameters used fabric-wide (uniform ⇒ equal-cost tiers).
    pub link: LinkParams,
}

impl ClosParams {
    /// A 512-switch datacenter-scale fabric: 480 leaves × 32 spines,
    /// 2 hosts per leaf (960 hosts), paper-default links.
    pub fn datacenter() -> Self {
        ClosParams {
            spines: 32,
            leaves: 480,
            hosts_per_leaf: 2,
            link: LinkParams::paper_default(),
        }
    }

    /// Shrink both switch tiers and the host count by `scale` in (0, 1],
    /// keeping the fabric a valid multipath Clos (≥ 2 spines, ≥ 2 leaves).
    pub fn scaled(self, scale: f64) -> Self {
        let s = scale.clamp(0.0, 1.0);
        ClosParams {
            spines: ((self.spines as f64 * s).round() as u32).max(2),
            leaves: ((self.leaves as f64 * s).round() as u32).max(2),
            hosts_per_leaf: self.hosts_per_leaf.max(1),
            link: self.link,
        }
    }

    /// Build the fabric. Node creation order (and therefore id order) is
    /// hosts leaf-major, then leaves, then spines; links are host
    /// attachments first, then the leaf×spine bipartite mesh — all
    /// deterministic, so same params ⇒ byte-identical topology.
    pub fn build(&self) -> Fabric {
        self.build_tiered(self.link)
    }

    /// [`ClosParams::build`] with a distinct link parameter set for the
    /// leaf–spine uplinks (`self.link` still covers host attachments).
    /// Tiered delays give the domain partitioner a slow tier to cut on
    /// — lookahead = the uplink delay — and, chosen non-round (e.g.
    /// `12_000_019` ns), avoid exact-nanosecond arrival coincidences
    /// between tiers. Same node/link creation order as `build`, so
    /// `build_tiered(self.link)` is byte-identical to `build()`.
    pub fn build_tiered(&self, uplink: LinkParams) -> Fabric {
        assert!(self.spines >= 1 && self.leaves >= 1, "empty tier");
        let mut t = Topology::new();
        let hosts: Vec<NodeId> = (0..self.leaves * self.hosts_per_leaf)
            .map(|i| t.add_host(format!("h{i}")))
            .collect();
        let leaves: Vec<NodeId> =
            (0..self.leaves).map(|i| t.add_switch(format!("leaf{i}"))).collect();
        let spines: Vec<NodeId> =
            (0..self.spines).map(|i| t.add_switch(format!("spine{i}"))).collect();
        for (i, &h) in hosts.iter().enumerate() {
            t.add_link(h, leaves[i / self.hosts_per_leaf as usize], self.link);
        }
        for &l in &leaves {
            for &s in &spines {
                t.add_link(l, s, uplink);
            }
        }
        Fabric { topo: t, hosts, tiers: vec![leaves, spines] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let s1 = t.add_switch("s1");
        let h2 = t.add_host("h2");
        let l1 = t.add_link(h1, s1, LinkParams::paper_default());
        let l2 = t.add_link(s1, h2, LinkParams::paper_default());

        assert_eq!(t.hosts().collect::<Vec<_>>(), vec![h1, h2]);
        assert_eq!(t.switches().collect::<Vec<_>>(), vec![s1]);
        assert_eq!(t.node(h1).ports[0], PortBinding { link: l1, peer: s1, peer_port: 0 });
        assert_eq!(t.node(s1).ports[1], PortBinding { link: l2, peer: h2, peer_port: 0 });
        assert_eq!(t.link_between(h1, s1), Some(l1));
        assert_eq!(t.link_between(h2, s1), Some(l2), "order-insensitive");
        assert_eq!(t.link_between(h1, h2), None);
        assert_eq!(t.link_between(NodeId(99), h1), None, "unknown node");
        assert!(t.validate().is_ok());
        let parallel = t.add_link(s1, h1, LinkParams::paper_default());
        assert_eq!(t.link_between(h1, s1), Some(l1), "the lowest of parallel links");
        assert_eq!(t.link_between(s1, h1), Some(l1));
        assert_ne!(parallel, l1);
    }

    /// The name index is derived state: a topology serializes as its
    /// description alone.
    #[test]
    fn serializes_as_nodes_and_links() {
        let mut t = Topology::new();
        let h = t.add_host("h");
        let s = t.add_switch("s");
        t.add_link(h, s, LinkParams::paper_default());
        let Value::Object(fields) = t.serialize() else { panic!("a topology is an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["nodes", "links"]);
        assert_eq!(fields[0].1, t.nodes.serialize());
        assert_eq!(fields[1].1, t.links.serialize());
    }

    #[test]
    fn ip_assignment_roundtrips() {
        // Boundary values straddle every octet carry, including the
        // 65,534/65,535 edge where the old two-octet scheme would have
        // silently aliased giant-fabric hosts.
        for id in [0u32, 1, 5, 254, 255, 256, 1000, 65_533, 65_534, 65_535, 1_000_000] {
            let ip = Topology::host_ip(NodeId(id));
            assert_eq!(Topology::node_of_ip(ip), Some(NodeId(id)), "{ip}");
        }
        // Small ids keep their historical 10.0.x.y form.
        assert_eq!(Topology::host_ip(NodeId(0)), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(Topology::host_ip(NodeId(65_534)), Ipv4Addr::new(10, 0, 255, 255));
        assert_eq!(Topology::host_ip(NodeId(65_535)), Ipv4Addr::new(10, 1, 0, 0));
        // Distinctness at the boundary (the aliasing the assert guards).
        assert_ne!(Topology::host_ip(NodeId(65_535)), Topology::host_ip(NodeId(65_535 + 256)));
        assert_eq!(Topology::host_ip(NodeId(0)), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(Topology::node_of_ip(Ipv4Addr::new(192, 168, 0, 1)), None);
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_rejected() {
        let mut t = Topology::new();
        t.add_host("x");
        t.add_host("x");
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_rejected() {
        let mut t = Topology::new();
        let a = t.add_host("a");
        t.add_link(a, a, LinkParams::paper_default());
    }

    #[test]
    fn validate_catches_linkless_host() {
        let mut t = Topology::new();
        t.add_host("lonely");
        assert!(t.validate().unwrap_err().contains("no links"));
    }

    #[test]
    fn validate_catches_bad_params() {
        let mut t = Topology::new();
        let a = t.add_host("a");
        let b = t.add_host("b");
        t.add_link(
            a,
            b,
            LinkParams { bandwidth_bps: 0, delay: SimDuration::ZERO, queue_cap_pkts: 1 },
        );
        assert!(t.validate().unwrap_err().contains("zero bandwidth"));
    }
}
