//! The packet buffer a data-plane program operates on.

use bytes::BytesMut;
use int_packet::{Ipv4Header, ParsedPacket, Result};

/// Per-packet user metadata, the analogue of P4 `metadata` structs: scratch
/// state that travels with the packet between pipeline stages of one switch
/// and is *not* serialized onto the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameMeta {
    /// Port this packet entered the current switch on.
    pub ingress_port: Option<u16>,
    /// Link latency measured at ingress for probe packets
    /// (`now - upstream_egress_ts`), ns.
    pub measured_link_latency_ns: Option<u64>,
}

impl FrameMeta {
    /// Reset the per-switch fields when a packet leaves a device; every
    /// field is per-hop, so this is the default metadata.
    pub fn clear_per_hop(&mut self) {
        *self = FrameMeta::default();
    }
}

/// A full Ethernet frame plus pipeline metadata.
///
/// The frame memoizes its parse: the first [`Frame::parsed`] call runs the
/// header parser and caches the result, so switch ingress, egress, traffic
/// accounting, and host delivery all share one parse per hop instead of
/// re-walking the headers. Code that mutates `bytes` directly must call
/// [`Frame::invalidate_parse`] (length changes are detected and re-parsed
/// automatically; same-length header rewrites are not).
#[derive(Debug, Clone)]
pub struct Frame {
    /// Raw frame bytes (Ethernet header first).
    pub bytes: BytesMut,
    /// Per-packet metadata (zeroed between switches).
    pub meta: FrameMeta,
    /// Memoized `(bytes.len() at parse time, parsed view)`.
    cache: Option<(usize, ParsedPacket)>,
}

/// Equality is over wire bytes and metadata; the parse cache is derived
/// state and never observable.
impl PartialEq for Frame {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes && self.meta == other.meta
    }
}
impl Eq for Frame {}

impl Frame {
    /// Wrap raw frame bytes.
    pub fn new(bytes: BytesMut) -> Self {
        Frame { bytes, meta: FrameMeta::default(), cache: None }
    }

    /// Wire length in bytes (what occupies link capacity).
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }

    /// Parse the headers (convenience over [`ParsedPacket::parse`]).
    /// Uncached; prefer [`Frame::parsed`] where `&mut self` is available.
    pub fn parse(&self) -> Result<ParsedPacket> {
        ParsedPacket::parse(&self.bytes)
    }

    /// Parse the headers once and memoize. A cached view is reused only
    /// while `bytes.len()` is unchanged, so payload-growing rewrites (probe
    /// augmentation) self-heal even without an explicit invalidation.
    pub fn parsed(&mut self) -> Result<ParsedPacket> {
        if let Some((len, p)) = self.cache {
            if len == self.bytes.len() {
                return Ok(p);
            }
        }
        let p = ParsedPacket::parse(&self.bytes)?;
        self.cache = Some((self.bytes.len(), p));
        Ok(p)
    }

    /// Drop the memoized parse after mutating `bytes` in place.
    pub fn invalidate_parse(&mut self) {
        self.cache = None;
    }

    /// Mutable view of the cached IPv4 header, for callers that patch the
    /// raw bytes and keep the memoized parse in sync (e.g. TTL decrement).
    pub fn cached_ip_mut(&mut self) -> Option<&mut Ipv4Header> {
        self.cache.as_mut().and_then(|(_, p)| p.ip.as_mut())
    }

    /// Reset to an empty frame for buffer reuse: contents and metadata are
    /// cleared, the byte buffer's allocation is kept.
    pub fn reset_for_reuse(&mut self) {
        self.bytes.clear();
        self.meta = FrameMeta::default();
        self.cache = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use int_packet::PacketBuilder;
    use std::net::Ipv4Addr;

    #[test]
    fn wire_len_matches_bytes() {
        let b = PacketBuilder::between(1, Ipv4Addr::new(10, 0, 0, 1), 2, Ipv4Addr::new(10, 0, 0, 2))
            .udp(1, 2, &[0u8; 50]);
        let f = Frame::new(b);
        assert_eq!(f.wire_len(), 14 + 20 + 8 + 50);
        assert!(f.parse().is_ok());
    }

    fn udp_frame(payload: &[u8]) -> Frame {
        Frame::new(
            PacketBuilder::between(1, Ipv4Addr::new(10, 0, 0, 1), 2, Ipv4Addr::new(10, 0, 0, 2))
                .udp(1, 2, payload),
        )
    }

    #[test]
    fn parsed_memoizes_and_matches_fresh_parse() {
        let mut f = udp_frame(&[7u8; 32]);
        let first = f.parsed().unwrap();
        let again = f.parsed().unwrap();
        assert_eq!(first.payload_offset, again.payload_offset);
        let fresh = f.parse().unwrap();
        assert_eq!(fresh.ip.unwrap().ttl, first.ip.unwrap().ttl);
    }

    #[test]
    fn length_change_self_heals_the_cache() {
        let mut f = udp_frame(&[1u8; 10]);
        let before = f.parsed().unwrap();
        // Rewrite with a longer payload — as probe augmentation does.
        f.bytes =
            PacketBuilder::between(1, Ipv4Addr::new(10, 0, 0, 1), 2, Ipv4Addr::new(10, 0, 0, 2))
                .udp(1, 2, &[1u8; 40]);
        let after = f.parsed().unwrap();
        assert_eq!(before.ip.unwrap().total_len, 20 + 8 + 10);
        assert_eq!(after.ip.unwrap().total_len, 20 + 8 + 40, "cache re-parsed on length change");
    }

    #[test]
    fn cached_ip_mut_patches_the_memoized_view() {
        let mut f = udp_frame(&[0u8; 8]);
        let ttl = f.parsed().unwrap().ip.unwrap().ttl;
        f.cached_ip_mut().unwrap().ttl = ttl - 1;
        assert_eq!(f.parsed().unwrap().ip.unwrap().ttl, ttl - 1);
        f.invalidate_parse();
        // After invalidation the view comes from the (unchanged) bytes.
        assert_eq!(f.parsed().unwrap().ip.unwrap().ttl, ttl);
    }

    #[test]
    fn reset_for_reuse_clears_everything() {
        let mut f = udp_frame(&[9u8; 64]);
        f.meta.ingress_port = Some(5);
        let _ = f.parsed();
        f.reset_for_reuse();
        assert!(f.bytes.is_empty());
        assert_eq!(f.meta, FrameMeta::default());
        assert!(f.parse().is_err(), "empty frame no longer parses");
    }

    #[test]
    fn clear_per_hop_resets_every_field() {
        let mut m = FrameMeta { ingress_port: Some(3), measured_link_latency_ns: Some(10) };
        m.clear_per_hop();
        assert_eq!(m, FrameMeta::default());
    }
}
