//! The switch program and its forwarding stage.
//!
//! * [`int_telemetry`] — the paper's program, the one every switch runs:
//!   L3 forwarding plus register-based INT collection and probe-packet
//!   augmentation,
//! * [`l3fwd`] — its forwarding stage: IPv4 longest-prefix match, ECMP
//!   selection, TTL decrement (all a switch does with telemetry off).

pub mod int_telemetry;
pub mod l3fwd;

use crate::frame::Frame;
use int_packet::ipv4::Ipv4Header;
use int_packet::wire::internet_checksum;
use int_packet::EthernetHeader;

/// Decrement the IPv4 TTL in place (patching the checksum incrementally) and
/// report whether the packet is still alive. Returns `false` when the TTL
/// would reach zero, in which case the frame is left unmodified and must be
/// dropped by the caller.
pub(crate) fn decrement_ttl(frame: &mut Frame) -> bool {
    let ip_off = EthernetHeader::LEN;
    let Some(hdr) = frame.bytes.get_mut(ip_off..ip_off + Ipv4Header::LEN) else {
        return false;
    };
    let ttl = hdr[8];
    if ttl <= 1 {
        return false;
    }
    hdr[8] = ttl - 1;
    // Recompute the header checksum over the patched header.
    hdr[10] = 0;
    hdr[11] = 0;
    let ck = internet_checksum(hdr);
    hdr[10] = (ck >> 8) as u8;
    hdr[11] = (ck & 0xFF) as u8;
    // The rewrite is length-preserving, so the frame's memoized parse stays
    // live — patch the one field that changed instead of re-parsing.
    if let Some(ip) = frame.cached_ip_mut() {
        ip.ttl = ttl - 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use int_packet::{PacketBuilder, ParsedPacket};
    use std::net::Ipv4Addr;

    fn frame() -> Frame {
        let b = PacketBuilder::between(1, Ipv4Addr::new(10, 0, 0, 1), 2, Ipv4Addr::new(10, 0, 0, 2))
            .udp(1, 2, b"x");
        Frame::new(b)
    }

    #[test]
    fn ttl_decrements_and_checksum_stays_valid() {
        let mut f = frame();
        assert!(decrement_ttl(&mut f));
        let p = ParsedPacket::parse(&f.bytes).expect("checksum must still verify");
        assert_eq!(p.ip.unwrap().ttl, Ipv4Header::DEFAULT_TTL - 1);
    }

    #[test]
    fn ttl_one_reports_dead() {
        let mut f = frame();
        // Force TTL to 1 and fix checksum.
        let ip_off = EthernetHeader::LEN;
        f.bytes[ip_off + 8] = 1;
        f.bytes[ip_off + 10] = 0;
        f.bytes[ip_off + 11] = 0;
        let ck = internet_checksum(&f.bytes[ip_off..ip_off + Ipv4Header::LEN]);
        f.bytes[ip_off + 10] = (ck >> 8) as u8;
        f.bytes[ip_off + 11] = (ck & 0xFF) as u8;

        let before = f.bytes.clone();
        assert!(!decrement_ttl(&mut f));
        assert_eq!(f.bytes, before, "dead packet left unmodified");
    }

    #[test]
    fn truncated_frame_is_dead() {
        let mut f = Frame::new(BytesMut::from(&b"short"[..]));
        assert!(!decrement_ttl(&mut f));
    }

    #[test]
    fn memoized_parse_stays_coherent_across_decrement() {
        let mut f = frame();
        let cached_before = f.parsed().unwrap();
        assert!(decrement_ttl(&mut f));
        let cached_after = f.parsed().unwrap();
        let fresh = ParsedPacket::parse(&f.bytes).unwrap();
        assert_eq!(cached_after.ip.unwrap().ttl, fresh.ip.unwrap().ttl, "cache patched, not stale");
        assert_eq!(cached_after.ip.unwrap().ttl, cached_before.ip.unwrap().ttl - 1);
    }
}
