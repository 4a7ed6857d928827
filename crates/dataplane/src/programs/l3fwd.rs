//! Plain IPv4 longest-prefix-match forwarding.
//!
//! This is the program a conventional (non-INT) switch runs, and the base
//! forwarding behaviour the INT program builds on: parse, LPM on the
//! destination address, decrement TTL, emit on the matched port.

use crate::frame::Frame;
use crate::pipeline::{DataPlaneProgram, IngressCtx, IngressVerdict, PortId};
use crate::programs::decrement_ttl;
use crate::registers::RegisterFile;
use crate::table::{Key, MatchActionTable, MatchKind};
use int_packet::{L4View, ParsedPacket};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// How a multipath route picks among its equal-cost egress ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EcmpSelect {
    /// Always use the group's first (primary) port — the pre-multipath
    /// single-route behaviour, bit-compatible with older runs. Default.
    #[default]
    Primary,
    /// Hash the flow 5-tuple over the group — classic ECMP. A flow sticks
    /// to one port (no reordering); distinct flows spread.
    FlowHash,
}

/// Deterministic flow hash over an explicit 5-tuple: FNV-1a, a pure
/// function of the header bytes — no RNG, no state — so replays and
/// thread counts cannot change path choice. Hosts hash the same tuple as
/// switches, so a flow's ports are stable end to end.
pub fn flow_hash_tuple(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, sport: u16, dport: u16) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |b: u8| h = (h ^ b as u64).wrapping_mul(PRIME);
    for b in src.octets().into_iter().chain(dst.octets()) {
        eat(b);
    }
    eat(proto);
    for b in sport.to_be_bytes().into_iter().chain(dport.to_be_bytes()) {
        eat(b);
    }
    h
}

/// [`flow_hash_tuple`] over a parsed packet's headers.
pub fn flow_hash(parsed: &ParsedPacket) -> u64 {
    let (src, dst) = match parsed.ip {
        Some(ip) => (ip.src, ip.dst),
        None => (Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED),
    };
    let (proto, sport, dport) = match parsed.l4 {
        Some(L4View::Udp(u)) => (17u8, u.src_port, u.dst_port),
        Some(L4View::Tcp(t)) => (6u8, t.src_port, t.dst_port),
        None => (0, 0, 0),
    };
    flow_hash_tuple(src, dst, proto, sport, dport)
}

/// An equal-cost multipath group: `ports[0]` is the primary (the
/// single-path route an older control plane would have installed).
#[derive(Debug, Clone, PartialEq, Eq)]
struct EcmpGroup {
    ports: Vec<PortId>,
}

/// IPv4 LPM forwarding program with ECMP groups: every route resolves to
/// a group of equal-cost egress ports (usually of size 1) and the
/// configured [`EcmpSelect`] picks among them per packet.
pub struct L3ForwardProgram {
    fwd: MatchActionTable<u16>,
    /// Dedup'd ECMP groups; table actions index into this.
    groups: Vec<EcmpGroup>,
    /// Reverse index for dedup at install time.
    group_index: BTreeMap<Vec<PortId>, u16>,
    select: EcmpSelect,
    registers: RegisterFile,
    /// Single-entry last-lookup cache `(dst, group)`: consecutive packets
    /// overwhelmingly share a destination, so the ingress path usually
    /// skips the table entirely. Invalidated on any table write. Caching
    /// the *group* keeps the cache correct under ECMP — per-packet port
    /// selection happens after the cache.
    cache: Option<(u32, u16)>,
    cache_hits: u64,
}

impl L3ForwardProgram {
    /// New program with an empty forwarding table; unmatched packets drop.
    pub fn new(num_ports: usize) -> Self {
        let mut registers = RegisterFile::new();
        registers.declare("pkt_count", num_ports);
        L3ForwardProgram {
            fwd: MatchActionTable::new("ipv4_lpm", MatchKind::Lpm),
            groups: Vec::new(),
            group_index: BTreeMap::new(),
            select: EcmpSelect::Primary,
            registers,
            cache: None,
            cache_hits: 0,
        }
    }

    /// Set the multipath selection mode (default [`EcmpSelect::Primary`]).
    pub fn set_ecmp_select(&mut self, select: EcmpSelect) {
        self.select = select;
    }

    /// The current multipath selection mode.
    pub fn ecmp_select(&self) -> EcmpSelect {
        self.select
    }

    fn intern_group(&mut self, ports: &[PortId]) -> u16 {
        if let Some(&idx) = self.group_index.get(ports) {
            return idx;
        }
        let idx = self.groups.len() as u16;
        self.groups.push(EcmpGroup { ports: ports.to_vec() });
        self.group_index.insert(ports.to_vec(), idx);
        idx
    }

    /// Control plane: route `prefix/len` out of `port` (a single-member
    /// ECMP group).
    pub fn install_route(&mut self, prefix: Ipv4Addr, prefix_len: u16, port: PortId) {
        self.install_route_multi(prefix, prefix_len, &[port]);
    }

    /// Control plane: route `prefix/len` over an equal-cost port group.
    /// `ports[0]` is the primary — the port [`EcmpSelect::Primary`] always
    /// picks. Panics on an empty group.
    pub fn install_route_multi(&mut self, prefix: Ipv4Addr, prefix_len: u16, ports: &[PortId]) {
        assert!(!ports.is_empty(), "ECMP group for {prefix}/{prefix_len} is empty");
        self.cache = None; // any table write invalidates the lookup cache
        let group = self.intern_group(ports);
        self.fwd
            .insert(Key::Lpm { value: prefix.octets().to_vec(), prefix_len }, group);
    }

    /// Control plane: route a single host address out of `port`.
    pub fn install_host_route(&mut self, host: Ipv4Addr, port: PortId) {
        self.install_route(host, 32, port);
    }

    /// Look up the *primary* egress port for a destination without side
    /// effects — the pre-ECMP single-path answer.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<PortId> {
        self.group_ports(dst).map(|ports| ports[0])
    }

    /// The full equal-cost port group for a destination, primary first.
    pub fn group_ports(&self, dst: Ipv4Addr) -> Option<&[PortId]> {
        let g = *self.fwd.lookup(&dst.octets())?;
        Some(&self.groups[g as usize].ports)
    }

    /// [`lookup`](Self::lookup) through the single-entry cache — the
    /// per-packet path. Misses consult the table and refill the cache.
    pub fn lookup_cached(&mut self, dst: Ipv4Addr) -> Option<PortId> {
        self.group_cached(dst).map(|g| self.groups[g as usize].ports[0])
    }

    /// Per-packet multipath selection through the cache: resolve the ECMP
    /// group for `dst`, then pick a member under the configured
    /// [`EcmpSelect`] using the caller-computed flow hash.
    pub fn select_cached(&mut self, dst: Ipv4Addr, hash: u64) -> Option<PortId> {
        let g = self.group_cached(dst)?;
        let ports = &self.groups[g as usize].ports;
        Some(match self.select {
            EcmpSelect::Primary => ports[0],
            EcmpSelect::FlowHash => ports[(hash % ports.len() as u64) as usize],
        })
    }

    fn group_cached(&mut self, dst: Ipv4Addr) -> Option<u16> {
        let key = u32::from(dst);
        if let Some((k, g)) = self.cache {
            if k == key {
                self.cache_hits += 1;
                return Some(g);
            }
        }
        let group = self.fwd.lookup(&dst.octets()).copied();
        if let Some(g) = group {
            self.cache = Some((key, g));
        }
        group
    }

    /// Number of lookups served from the single-entry cache (diagnostics).
    pub fn lookup_cache_hits(&self) -> u64 {
        self.cache_hits
    }
}

impl DataPlaneProgram for L3ForwardProgram {
    fn ingress(&mut self, frame: &mut Frame, ctx: &IngressCtx) -> IngressVerdict {
        let Ok(parsed) = frame.parsed() else {
            return IngressVerdict::Drop;
        };
        let Some(ip) = parsed.ip else {
            return IngressVerdict::Drop; // non-IP traffic is not forwarded
        };
        let hash = match self.select {
            EcmpSelect::Primary => 0, // selection ignores it; skip the work
            EcmpSelect::FlowHash => flow_hash(&parsed),
        };
        let Some(port) = self.select_cached(ip.dst, hash) else {
            return IngressVerdict::Drop;
        };
        if !decrement_ttl(frame) {
            return IngressVerdict::Drop;
        }
        self.registers.array_mut("pkt_count").increment(ctx.ingress_port as usize);
        IngressVerdict::Forward(port)
    }

    fn install_host_route(&mut self, host: Ipv4Addr, port: PortId) {
        self.install_route(host, 32, port);
    }

    fn registers(&self) -> &RegisterFile {
        &self.registers
    }

    fn registers_mut(&mut self) -> &mut RegisterFile {
        &mut self.registers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use int_packet::PacketBuilder;

    fn udp_frame(dst: Ipv4Addr) -> Frame {
        Frame::new(PacketBuilder::between(1, Ipv4Addr::new(10, 0, 0, 1), 2, dst).udp(1, 2, b"x"))
    }

    fn ctx() -> IngressCtx {
        IngressCtx { now_ns: 0, switch_id: 1, ingress_port: 0 }
    }

    #[test]
    fn routes_by_longest_prefix() {
        let mut p = L3ForwardProgram::new(4);
        p.install_route(Ipv4Addr::new(10, 0, 0, 0), 24, 1);
        p.install_host_route(Ipv4Addr::new(10, 0, 0, 7), 2);

        let mut f = udp_frame(Ipv4Addr::new(10, 0, 0, 7));
        assert_eq!(p.ingress(&mut f, &ctx()), IngressVerdict::Forward(2));

        let mut f = udp_frame(Ipv4Addr::new(10, 0, 0, 9));
        assert_eq!(p.ingress(&mut f, &ctx()), IngressVerdict::Forward(1));
    }

    #[test]
    fn unrouted_destination_drops() {
        let mut p = L3ForwardProgram::new(4);
        let mut f = udp_frame(Ipv4Addr::new(192, 168, 0, 1));
        assert_eq!(p.ingress(&mut f, &ctx()), IngressVerdict::Drop);
    }

    #[test]
    fn forwarding_decrements_ttl() {
        let mut p = L3ForwardProgram::new(4);
        p.install_host_route(Ipv4Addr::new(10, 0, 0, 2), 1);
        let mut f = udp_frame(Ipv4Addr::new(10, 0, 0, 2));
        let before = f.parse().unwrap().ip.unwrap().ttl;
        p.ingress(&mut f, &ctx());
        let after = f.parse().unwrap().ip.unwrap().ttl;
        assert_eq!(after, before - 1);
    }

    #[test]
    fn pkt_count_register_increments() {
        let mut p = L3ForwardProgram::new(4);
        p.install_host_route(Ipv4Addr::new(10, 0, 0, 2), 1);
        for _ in 0..3 {
            let mut f = udp_frame(Ipv4Addr::new(10, 0, 0, 2));
            p.ingress(&mut f, &ctx());
        }
        assert_eq!(p.registers().array("pkt_count").read(0), 3);
    }

    /// The single-entry cache serves repeat destinations, refills on a
    /// destination change, and is invalidated by any table write — a stale
    /// hit after a route change would misforward silently.
    #[test]
    fn lookup_cache_hits_and_invalidates() {
        let mut p = L3ForwardProgram::new(4);
        let a = Ipv4Addr::new(10, 0, 0, 2);
        let b = Ipv4Addr::new(10, 0, 0, 3);
        p.install_host_route(a, 1);
        p.install_host_route(b, 2);

        assert_eq!(p.lookup_cached(a), Some(1));
        assert_eq!(p.lookup_cache_hits(), 0, "first lookup misses");
        assert_eq!(p.lookup_cached(a), Some(1));
        assert_eq!(p.lookup_cached(a), Some(1));
        assert_eq!(p.lookup_cache_hits(), 2, "repeats hit");
        assert_eq!(p.lookup_cached(b), Some(2), "destination change refills");
        assert_eq!(p.lookup_cached(b), Some(2));
        assert_eq!(p.lookup_cache_hits(), 3);

        // Re-route b: the cached (b → 2) binding must not survive.
        p.install_host_route(b, 3);
        assert_eq!(p.lookup_cached(b), Some(3), "table write invalidates the cache");
        assert_eq!(p.lookup_cache_hits(), 3);

        // The ingress path goes through the same cache.
        let mut f = udp_frame(a);
        assert_eq!(p.ingress(&mut f, &ctx()), IngressVerdict::Forward(1));
        let mut f = udp_frame(a);
        assert_eq!(p.ingress(&mut f, &ctx()), IngressVerdict::Forward(1));
        assert!(p.lookup_cache_hits() > 3, "ingress lookups populate and hit the cache");
    }

    /// Multipath routes expose the full group, keep the primary first, and
    /// dedup identical port sets into one interned group.
    #[test]
    fn ecmp_groups_intern_and_expose_ports() {
        let mut p = L3ForwardProgram::new(4);
        let a = Ipv4Addr::new(10, 0, 0, 2);
        let b = Ipv4Addr::new(10, 0, 0, 3);
        let c = Ipv4Addr::new(10, 0, 0, 4);
        p.install_route_multi(a, 32, &[1, 2]);
        p.install_route_multi(b, 32, &[1, 2]);
        p.install_route_multi(c, 32, &[2, 1]);

        assert_eq!(p.group_ports(a), Some(&[1, 2][..]));
        assert_eq!(p.group_ports(c), Some(&[2, 1][..]), "order is significant");
        assert_eq!(p.lookup(a), Some(1), "primary is the first member");
        assert_eq!(p.lookup(c), Some(2));
        // a and b share one interned group; c (different order) gets its own.
        assert_eq!(p.groups.len(), 2);
    }

    /// Under the default Primary selection, a multipath route forwards
    /// exactly like the old single-path table — bit-compatible behaviour.
    #[test]
    fn primary_select_ignores_extra_group_members() {
        let mut p = L3ForwardProgram::new(4);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        p.install_route_multi(dst, 32, &[3, 1, 2]);
        for _ in 0..4 {
            let mut f = udp_frame(dst);
            assert_eq!(p.ingress(&mut f, &ctx()), IngressVerdict::Forward(3));
        }
    }

    /// The flow hash is a pure function of the 5-tuple: same tuple → same
    /// value, any field change → (here) a different value, and a flow's
    /// port choice is stable across repeated packets.
    #[test]
    fn flow_hash_is_deterministic_per_tuple() {
        let s = Ipv4Addr::new(10, 0, 0, 1);
        let d = Ipv4Addr::new(10, 0, 0, 2);
        let base = flow_hash_tuple(s, d, 17, 4000, 5000);
        assert_eq!(flow_hash_tuple(s, d, 17, 4000, 5000), base);
        assert_ne!(flow_hash_tuple(d, s, 17, 4000, 5000), base, "src/dst swap");
        assert_ne!(flow_hash_tuple(s, d, 6, 4000, 5000), base, "proto");
        assert_ne!(flow_hash_tuple(s, d, 17, 4001, 5000), base, "sport");
        assert_ne!(flow_hash_tuple(s, d, 17, 4000, 5001), base, "dport");

        // The parsed-packet form hashes the same bytes as the tuple form.
        let f = Frame::new(PacketBuilder::between(1, s, 2, d).udp(4000, 5000, b"x"));
        assert_eq!(flow_hash(&f.parse().unwrap()), base);
    }

    /// FlowHash spreads distinct flows across the group: with enough
    /// source ports, every member of a 2-port group receives traffic.
    #[test]
    fn flow_hash_select_spreads_flows_across_members() {
        let mut p = L3ForwardProgram::new(4);
        p.set_ecmp_select(EcmpSelect::FlowHash);
        assert_eq!(p.ecmp_select(), EcmpSelect::FlowHash);
        let s = Ipv4Addr::new(10, 0, 0, 1);
        let d = Ipv4Addr::new(10, 0, 0, 2);
        p.install_route_multi(d, 32, &[1, 2]);

        let mut seen = [0u32; 3];
        for sport in 4000..4032u16 {
            let mut f =
                Frame::new(PacketBuilder::between(1, s, 2, d).udp(sport, 5000, b"x"));
            match p.ingress(&mut f, &ctx()) {
                IngressVerdict::Forward(port) => seen[port as usize] += 1,
                v => panic!("unexpected verdict {v:?}"),
            }
            // Replaying the identical tuple must pick the identical port.
            let hash = flow_hash_tuple(s, d, 17, sport, 5000);
            assert_eq!(p.select_cached(d, hash), p.select_cached(d, hash));
        }
        assert_eq!(seen[0], 0, "port 0 is not in the group");
        assert!(seen[1] > 0 && seen[2] > 0, "both members carry flows: {seen:?}");
    }

    /// The single-entry lookup cache stores the *group*, not a port, so a
    /// cache hit still honours per-flow selection under FlowHash.
    #[test]
    fn lookup_cache_preserves_flow_hash_selection() {
        let mut p = L3ForwardProgram::new(4);
        p.set_ecmp_select(EcmpSelect::FlowHash);
        let d = Ipv4Addr::new(10, 0, 0, 2);
        p.install_route_multi(d, 32, &[1, 2]);

        // Two hashes landing on different members, served back to back so
        // the second resolution is a cache hit.
        let pa = p.select_cached(d, 0).unwrap(); // 0 % 2 → member 0
        let pb = p.select_cached(d, 1).unwrap(); // 1 % 2 → member 1
        assert_eq!((pa, pb), (1, 2));
        assert_eq!(p.lookup_cache_hits(), 1, "second select hit the cache");
        assert_eq!(p.select_cached(d, 0), Some(1), "hit does not pin the port");
        assert_eq!(p.lookup_cache_hits(), 2);
    }

    #[test]
    fn garbage_frame_drops() {
        let mut p = L3ForwardProgram::new(1);
        let mut f = Frame::new(bytes::BytesMut::from(&[0u8; 10][..]));
        assert_eq!(p.ingress(&mut f, &ctx()), IngressVerdict::Drop);
    }
}

#[cfg(test)]
mod ttl_tests {
    use super::*;
    use int_packet::wire::internet_checksum;
    use int_packet::{EthernetHeader, Ipv4Header, PacketBuilder};

    /// A packet looping long enough to exhaust its TTL is dropped, never
    /// forwarded forever.
    #[test]
    fn ttl_exhaustion_drops() {
        let mut p = L3ForwardProgram::new(2);
        p.install_host_route(Ipv4Addr::new(10, 0, 0, 2), 1);

        let b = PacketBuilder::between(1, Ipv4Addr::new(10, 0, 0, 1), 2, Ipv4Addr::new(10, 0, 0, 2));
        let mut f = Frame::new(b.udp(1, 2, b"x"));
        let ctx = IngressCtx { now_ns: 0, switch_id: 1, ingress_port: 0 };

        let mut forwards = 0;
        while let IngressVerdict::Forward(_) = p.ingress(&mut f, &ctx) {
            forwards += 1;
            assert!(forwards < 256, "runaway forwarding");
        }
        // Default TTL 64: 63 hops succeed, the 64th hop sees TTL 1 → drop.
        assert_eq!(forwards, Ipv4Header::DEFAULT_TTL as u32 - 1);
        // The frame still carries a valid checksum after all the rewrites.
        let ip_off = EthernetHeader::LEN;
        assert_eq!(internet_checksum(&f.bytes[ip_off..ip_off + Ipv4Header::LEN]), 0);
    }
}
