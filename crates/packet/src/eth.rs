//! Ethernet II framing.

use crate::wire::{need, WireDecode, WireEncode};
use crate::Result;
use bytes::{Buf, BufMut};
use serde::Serialize;
use std::fmt;

/// A 48-bit IEEE 802 MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The all-zero address, used as a placeholder before ARP-like resolution.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Deterministic MAC for a simulated node: `02:00:00:00:hi:lo`
    /// (locally administered, unicast).
    pub fn for_node(node_id: u32) -> MacAddr {
        let b = node_id.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = &self.0;
        write!(f, "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}", b[0], b[1], b[2], b[3], b[4], b[5])
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// EtherType values understood by the simulated data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum EtherType {
    /// IPv4 (0x0800) — the only L3 protocol the testbed carries.
    Ipv4,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl EtherType {
    /// Numeric wire value.
    pub fn value(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Other(v) => v,
        }
    }

    /// Classify a wire value.
    pub fn from_value(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            other => EtherType::Other(other),
        }
    }
}

/// An Ethernet II header: destination, source, EtherType. 14 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct EthernetHeader {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Wire size of an Ethernet II header.
    pub const LEN: usize = 14;

    /// Header for an IPv4 frame between two simulated nodes.
    pub fn ipv4(src: MacAddr, dst: MacAddr) -> Self {
        EthernetHeader { dst, src, ethertype: EtherType::Ipv4 }
    }
}

impl WireEncode for EthernetHeader {
    fn encoded_len(&self) -> usize {
        Self::LEN
    }

    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(&self.dst.0);
        buf.put_slice(&self.src.0);
        buf.put_u16(self.ethertype.value());
    }
}

impl WireDecode for EthernetHeader {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self> {
        need(buf, "ethernet header", Self::LEN)?;
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        buf.copy_to_slice(&mut dst);
        buf.copy_to_slice(&mut src);
        let ethertype = EtherType::from_value(buf.get_u16());
        Ok(EthernetHeader { dst: MacAddr(dst), src: MacAddr(src), ethertype })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PacketError;

    #[test]
    fn mac_display() {
        assert_eq!(MacAddr([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]).to_string(), "de:ad:be:ef:00:01");
    }

    #[test]
    fn mac_for_node_is_unicast_local() {
        let m = MacAddr::for_node(42);
        assert_eq!(m.0[0] & 0x01, 0, "I/G bit clear: unicast");
        assert_eq!(m.0[0] & 0x02, 0x02, "locally administered bit set");
    }

    #[test]
    fn mac_for_node_is_injective_on_node_ids() {
        let a = MacAddr::for_node(1);
        let b = MacAddr::for_node(256);
        let c = MacAddr::for_node(1);
        assert_ne!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn header_roundtrip() {
        let h = EthernetHeader::ipv4(MacAddr::for_node(1), MacAddr::for_node(2));
        let bytes = h.to_bytes();
        assert_eq!(bytes.len(), EthernetHeader::LEN);
        let parsed = EthernetHeader::decode(&mut &bytes[..]).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn ethertype_other_preserved() {
        let h = EthernetHeader {
            dst: MacAddr([0xFF; 6]),
            src: MacAddr::for_node(9),
            ethertype: EtherType::Other(0x86DD),
        };
        let parsed = EthernetHeader::decode(&mut &h.to_bytes()[..]).unwrap();
        assert_eq!(parsed.ethertype, EtherType::Other(0x86DD));
    }

    #[test]
    fn truncated_header_errors() {
        let h = EthernetHeader::ipv4(MacAddr::for_node(1), MacAddr::for_node(2));
        let bytes = h.to_bytes();
        let err = EthernetHeader::decode(&mut &bytes[..10]).unwrap_err();
        assert!(matches!(err, PacketError::Truncated { .. }));
    }
}
