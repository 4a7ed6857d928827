//! The switch program's forwarding stage: IPv4 longest-prefix match on
//! the destination address, ECMP member selection, TTL decrement.
//!
//! [`IntTelemetryProgram`](crate::IntTelemetryProgram) owns one and calls
//! its `forward` at the end of its ingress. With telemetry disabled that
//! is all a switch does: the plain forwarding of a conventional (non-INT)
//! switch.

use crate::frame::Frame;
use crate::pipeline::{IngressVerdict, PortId};
use crate::programs::decrement_ttl;
use crate::table::{MatchActionTable, MatchKind};
use int_obs::{fnv1a, SlabIndex};
use int_packet::{L4View, ParsedPacket};
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
pub(crate) fn flow_hash(parsed: &ParsedPacket) -> u64 {
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

/// IPv4 LPM forwarding with ECMP groups: every route resolves to a group
/// of equal-cost egress ports (usually of size 1) and the configured
/// [`EcmpSelect`] picks among them per packet.
pub(crate) struct L3ForwardProgram {
    fwd: MatchActionTable<u16>,
    /// Dedup'd ECMP groups as `(start, len)` into `group_ports`; table
    /// actions index into this. A group's first port is its primary (the
    /// single-path route an older control plane would have installed).
    groups: Vec<(u32, u32)>,
    /// Every group's ports, back to back.
    group_ports: Vec<PortId>,
    /// Port list → group, for dedup at install time.
    group_index: SlabIndex,
    select: EcmpSelect,
    /// Single-entry last-lookup cache `(dst, group)`: consecutive packets
    /// overwhelmingly share a destination, so the ingress path usually
    /// skips the table entirely. Invalidated on any table write. Caching
    /// the *group* keeps the cache correct under ECMP — per-packet port
    /// selection happens after the cache.
    cache: Option<(u32, u16)>,
    /// Resolutions served from `cache`. Only the tests read it, to prove
    /// that a resolution was a hit.
    cache_hits: u64,
}

fn hash_ports(ports: &[PortId]) -> u64 {
    fnv1a(ports.iter().flat_map(|p| p.to_le_bytes()))
}

impl L3ForwardProgram {
    /// New stage with an empty forwarding table; unmatched packets drop.
    pub(crate) fn new() -> Self {
        L3ForwardProgram {
            fwd: MatchActionTable::new("ipv4_lpm", MatchKind::Lpm),
            groups: Vec::new(),
            group_ports: Vec::new(),
            group_index: SlabIndex::default(),
            select: EcmpSelect::Primary,
            cache: None,
            cache_hits: 0,
        }
    }

    /// Set the multipath selection mode (default [`EcmpSelect::Primary`]).
    pub(crate) fn set_ecmp_select(&mut self, select: EcmpSelect) {
        self.select = select;
    }

    /// The ports of group `g`, primary first.
    fn ports(&self, g: u16) -> &[PortId] {
        let (start, len) = self.groups[g as usize];
        &self.group_ports[start as usize..][..len as usize]
    }

    fn intern_group(&mut self, ports: &[PortId]) -> u16 {
        let hash = hash_ports(ports);
        if let Some(g) = self.group_index.find(hash, |g| self.ports(g as u16) == ports) {
            return g as u16;
        }
        let g = self.groups.len() as u32;
        self.groups.push((self.group_ports.len() as u32, ports.len() as u32));
        self.group_ports.extend_from_slice(ports);
        let (groups, all) = (&self.groups, &self.group_ports);
        self.group_index.insert(hash, g, |old| {
            let (start, len) = groups[old as usize];
            hash_ports(&all[start as usize..][..len as usize])
        });
        g as u16
    }

    /// Control plane: route `prefix/len` over an equal-cost port group.
    /// `ports[0]` is the primary — the port [`EcmpSelect::Primary`] always
    /// picks. Panics on an empty group.
    pub(crate) fn install_route(&mut self, prefix: Ipv4Addr, prefix_len: u16, ports: &[PortId]) {
        assert!(!ports.is_empty(), "ECMP group for {prefix}/{prefix_len} is empty");
        self.cache = None; // any table write invalidates the lookup cache
        let group = self.intern_group(ports);
        self.fwd.insert_prefix(&prefix.octets(), prefix_len, group);
    }

    /// The per-packet forwarding step: resolve the destination's ECMP
    /// group through the cache, pick a member, decrement the TTL. Drops
    /// non-IP traffic, then an unrouted destination, then an expired TTL.
    pub(crate) fn forward(&mut self, frame: &mut Frame, parsed: &ParsedPacket) -> IngressVerdict {
        let Some(ip) = parsed.ip else {
            return IngressVerdict::Drop; // non-IP traffic is not forwarded
        };
        let hash = match self.select {
            EcmpSelect::Primary => 0, // selection ignores it; skip the work
            EcmpSelect::FlowHash => flow_hash(parsed),
        };
        let Some(port) = self.select_cached(ip.dst, hash) else {
            return IngressVerdict::Drop;
        };
        if !decrement_ttl(frame) {
            return IngressVerdict::Drop;
        }
        IngressVerdict::Forward(port)
    }

    /// Multipath selection through the cache: resolve the ECMP group for
    /// `dst`, then pick a member under the configured [`EcmpSelect`] using
    /// the caller-computed flow hash.
    fn select_cached(&mut self, dst: Ipv4Addr, hash: u64) -> Option<PortId> {
        let g = self.group_cached(dst)?;
        let ports = self.ports(g);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{DataPlaneProgram, IngressCtx};
    use crate::programs::int_telemetry::{IntProgramConfig, IntTelemetryProgram};
    use int_packet::PacketBuilder;

    fn udp_frame(dst: Ipv4Addr) -> Frame {
        Frame::new(PacketBuilder::between(1, Ipv4Addr::new(10, 0, 0, 1), 2, dst).udp(1, 2, b"x"))
    }

    fn ctx() -> IngressCtx {
        IngressCtx { now_ns: 0, switch_id: 1, ingress_port: 0 }
    }

    /// The program a baseline (non-INT) switch runs: telemetry off, so
    /// ingress is this forwarding stage alone.
    fn plain(num_ports: usize) -> IntTelemetryProgram {
        IntTelemetryProgram::new(IntProgramConfig { switch_id: 1, num_ports, int_enabled: false })
    }

    /// One packet through the stage directly.
    fn forward(p: &mut L3ForwardProgram, dst: Ipv4Addr) -> IngressVerdict {
        let mut f = udp_frame(dst);
        let parsed = f.parsed().unwrap();
        p.forward(&mut f, &parsed)
    }

    #[test]
    fn routes_by_longest_prefix() {
        let mut p = plain(4);
        p.install_route_multi(Ipv4Addr::new(10, 0, 0, 0), 24, &[1]);
        p.install_host_route(Ipv4Addr::new(10, 0, 0, 7), 2);

        let mut f = udp_frame(Ipv4Addr::new(10, 0, 0, 7));
        assert_eq!(p.ingress(&mut f, &ctx()), IngressVerdict::Forward(2));

        let mut f = udp_frame(Ipv4Addr::new(10, 0, 0, 9));
        assert_eq!(p.ingress(&mut f, &ctx()), IngressVerdict::Forward(1));
    }

    #[test]
    fn unrouted_destination_drops() {
        let mut p = plain(4);
        let mut f = udp_frame(Ipv4Addr::new(192, 168, 0, 1));
        assert_eq!(p.ingress(&mut f, &ctx()), IngressVerdict::Drop);
    }

    #[test]
    fn forwarding_decrements_ttl() {
        let mut p = plain(4);
        p.install_host_route(Ipv4Addr::new(10, 0, 0, 2), 1);
        let mut f = udp_frame(Ipv4Addr::new(10, 0, 0, 2));
        let before = f.parse().unwrap().ip.unwrap().ttl;
        p.ingress(&mut f, &ctx());
        let after = f.parse().unwrap().ip.unwrap().ttl;
        assert_eq!(after, before - 1);
    }

    /// The single-entry cache serves repeat destinations, refills on a
    /// destination change, and is invalidated by any table write — a stale
    /// hit after a route change would misforward silently.
    #[test]
    fn lookup_cache_hits_and_invalidates() {
        let mut p = L3ForwardProgram::new();
        let a = Ipv4Addr::new(10, 0, 0, 2);
        let b = Ipv4Addr::new(10, 0, 0, 3);
        p.install_route(a, 32, &[1]);
        p.install_route(b, 32, &[2]);

        assert_eq!(forward(&mut p, a), IngressVerdict::Forward(1));
        assert_eq!(p.cache_hits, 0, "first lookup misses");
        assert_eq!(forward(&mut p, a), IngressVerdict::Forward(1));
        assert_eq!(forward(&mut p, a), IngressVerdict::Forward(1));
        assert_eq!(p.cache_hits, 2, "repeats hit");
        assert_eq!(forward(&mut p, b), IngressVerdict::Forward(2), "destination change refills");
        assert_eq!(forward(&mut p, b), IngressVerdict::Forward(2));
        assert_eq!(p.cache_hits, 3);

        // Re-route b: the cached (b → 2) binding must not survive.
        p.install_route(b, 32, &[3]);
        let rerouted = forward(&mut p, b);
        assert_eq!(rerouted, IngressVerdict::Forward(3), "table write invalidates the cache");
        assert_eq!(p.cache_hits, 3);
    }

    /// Multipath routes keep the primary first, and identical port sets
    /// dedup into one interned group.
    #[test]
    fn ecmp_groups_intern_with_primary_first() {
        let mut p = L3ForwardProgram::new();
        let a = Ipv4Addr::new(10, 0, 0, 2);
        let b = Ipv4Addr::new(10, 0, 0, 3);
        let c = Ipv4Addr::new(10, 0, 0, 4);
        p.install_route(a, 32, &[1, 2]);
        p.install_route(b, 32, &[1, 2]);
        p.install_route(c, 32, &[2, 1]);

        assert_eq!(forward(&mut p, a), IngressVerdict::Forward(1), "primary is the first member");
        assert_eq!(forward(&mut p, c), IngressVerdict::Forward(2), "order is significant");
        // a and b share one interned group; c (different order) gets its own.
        assert_eq!(p.groups.len(), 2);
    }

    /// Under the default Primary selection, a multipath route forwards
    /// exactly like the old single-path table — bit-compatible behaviour.
    #[test]
    fn primary_select_ignores_extra_group_members() {
        let mut p = plain(4);
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
        let mut p = plain(4);
        p.set_ecmp_select(EcmpSelect::FlowHash);
        let s = Ipv4Addr::new(10, 0, 0, 1);
        let d = Ipv4Addr::new(10, 0, 0, 2);
        p.install_route_multi(d, 32, &[1, 2]);

        let mut seen = [0u32; 3];
        for sport in 4000..4032u16 {
            let frame = || Frame::new(PacketBuilder::between(1, s, 2, d).udp(sport, 5000, b"x"));
            let verdict = p.ingress(&mut frame(), &ctx());
            match verdict {
                IngressVerdict::Forward(port) => seen[port as usize] += 1,
                v => panic!("unexpected verdict {v:?}"),
            }
            // Replaying the identical tuple must pick the identical port.
            assert_eq!(p.ingress(&mut frame(), &ctx()), verdict);
        }
        assert_eq!(seen[0], 0, "port 0 is not in the group");
        assert!(seen[1] > 0 && seen[2] > 0, "both members carry flows: {seen:?}");
    }

    /// The single-entry lookup cache stores the *group*, not a port, so a
    /// cache hit still honours per-flow selection under FlowHash.
    #[test]
    fn lookup_cache_preserves_flow_hash_selection() {
        let mut p = L3ForwardProgram::new();
        p.set_ecmp_select(EcmpSelect::FlowHash);
        let d = Ipv4Addr::new(10, 0, 0, 2);
        p.install_route(d, 32, &[1, 2]);

        // Two hashes landing on different members, served back to back so
        // the second resolution is a cache hit.
        let pa = p.select_cached(d, 0).unwrap(); // 0 % 2 → member 0
        let pb = p.select_cached(d, 1).unwrap(); // 1 % 2 → member 1
        assert_eq!((pa, pb), (1, 2));
        assert_eq!(p.cache_hits, 1, "second select hit the cache");
        assert_eq!(p.select_cached(d, 0), Some(1), "hit does not pin the port");
        assert_eq!(p.cache_hits, 2);
    }

    #[test]
    fn garbage_frame_drops() {
        let mut p = plain(1);
        let mut f = Frame::new(bytes::BytesMut::from(&[0u8; 10][..]));
        assert_eq!(p.ingress(&mut f, &ctx()), IngressVerdict::Drop);
    }
}

#[cfg(test)]
mod ttl_tests {
    use super::*;
    use crate::pipeline::{DataPlaneProgram, IngressCtx};
    use crate::programs::int_telemetry::{IntProgramConfig, IntTelemetryProgram};
    use int_packet::wire::internet_checksum;
    use int_packet::{EthernetHeader, Ipv4Header, PacketBuilder};

    /// A packet looping long enough to exhaust its TTL is dropped, never
    /// forwarded forever.
    #[test]
    fn ttl_exhaustion_drops() {
        let cfg = IntProgramConfig { switch_id: 1, num_ports: 2, int_enabled: false };
        let mut p = IntTelemetryProgram::new(cfg);
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
