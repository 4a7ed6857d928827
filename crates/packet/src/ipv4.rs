//! IPv4 headers with RFC 1071 checksums.

use crate::wire::{internet_checksum, need, WireDecode, WireEncode};
use crate::{PacketError, Result};
use bytes::{Buf, BufMut};
use serde::Serialize;
use std::net::Ipv4Addr;

/// IP protocol numbers the data plane understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum IpProtocol {
    /// ICMP (1) — used by the ping application.
    Icmp,
    /// TCP (6) — used by the reliable task-transfer transport.
    Tcp,
    /// UDP (17) — probes, scheduler control plane, iperf background traffic.
    Udp,
    /// Any other protocol number, preserved verbatim.
    Other(u8),
}

impl IpProtocol {
    /// Numeric wire value.
    pub fn value(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }

    /// Classify a wire value.
    pub fn from_value(v: u8) -> IpProtocol {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

/// An IPv4 header without options (IHL = 5, 20 bytes).
///
/// The simulated network never emits IP options; probe metadata rides in a
/// Geneve-style shim over UDP instead (paper §III-A), so a fixed 20-byte
/// header is faithful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Ipv4Header {
    /// Differentiated services code point (6 bits) + ECN (2 bits).
    pub dscp_ecn: u8,
    /// Total length of the IP datagram (header + payload) in bytes.
    pub total_len: u16,
    /// Identification field (used for tracing, not fragmentation — DF set).
    pub identification: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: IpProtocol,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Wire size (no options).
    pub const LEN: usize = 20;
    /// Default TTL for freshly generated datagrams.
    pub const DEFAULT_TTL: u8 = 64;

    /// Build a header for a payload of `payload_len` bytes.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload_len: usize) -> Self {
        let total = Self::LEN + payload_len;
        debug_assert!(total <= u16::MAX as usize, "IPv4 datagram too large: {total}");
        Ipv4Header {
            dscp_ecn: 0,
            total_len: total as u16,
            identification: 0,
            ttl: Self::DEFAULT_TTL,
            protocol,
            src,
            dst,
        }
    }

    /// Payload length implied by `total_len`.
    pub fn payload_len(&self) -> usize {
        (self.total_len as usize).saturating_sub(Self::LEN)
    }

    /// Encode with a freshly computed checksum.
    fn encode_with_checksum(&self) -> [u8; Self::LEN] {
        let mut b = [0u8; Self::LEN];
        b[0] = 0x45; // version 4, IHL 5
        b[1] = self.dscp_ecn;
        b[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        b[4..6].copy_from_slice(&self.identification.to_be_bytes());
        b[6] = 0x40; // flags: DF
        b[7] = 0; // fragment offset 0
        b[8] = self.ttl;
        b[9] = self.protocol.value();
        // checksum at [10..12] left zero for computation
        b[12..16].copy_from_slice(&self.src.octets());
        b[16..20].copy_from_slice(&self.dst.octets());
        let ck = internet_checksum(&b);
        b[10..12].copy_from_slice(&ck.to_be_bytes());
        b
    }
}

impl WireEncode for Ipv4Header {
    fn encoded_len(&self) -> usize {
        Self::LEN
    }

    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(&self.encode_with_checksum());
    }
}

impl WireDecode for Ipv4Header {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self> {
        need(buf, "ipv4 header", Self::LEN)?;
        let mut b = [0u8; Self::LEN];
        buf.copy_to_slice(&mut b);

        let version = b[0] >> 4;
        if version != 4 {
            return Err(PacketError::InvalidField { field: "ip.version", value: version as u64 });
        }
        let ihl = (b[0] & 0x0F) as usize;
        if ihl != 5 {
            // Options are never generated in this system; reject rather than
            // silently misparse the payload offset.
            return Err(PacketError::InvalidField { field: "ip.ihl", value: ihl as u64 });
        }
        let found = u16::from_be_bytes([b[10], b[11]]);
        let mut zeroed = b;
        zeroed[10] = 0;
        zeroed[11] = 0;
        let computed = internet_checksum(&zeroed);
        if found != computed {
            return Err(PacketError::BadChecksum { found, computed });
        }

        Ok(Ipv4Header {
            dscp_ecn: b[1],
            total_len: u16::from_be_bytes([b[2], b[3]]),
            identification: u16::from_be_bytes([b[4], b[5]]),
            ttl: b[8],
            protocol: IpProtocol::from_value(b[9]),
            src: Ipv4Addr::new(b[12], b[13], b[14], b[15]),
            dst: Ipv4Addr::new(b[16], b[17], b[18], b[19]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProtocol::Udp,
            100,
        )
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        let parsed = Ipv4Header::decode(&mut &h.to_bytes()[..]).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn total_len_accounts_for_header() {
        assert_eq!(sample().total_len, 120);
        assert_eq!(sample().payload_len(), 100);
    }

    #[test]
    fn checksum_verifies() {
        let bytes = sample().to_bytes();
        assert_eq!(internet_checksum(&bytes), 0, "embedded checksum sums to zero");
    }

    #[test]
    fn corrupted_byte_fails_checksum() {
        let mut bytes = sample().to_bytes();
        bytes[15] ^= 0xFF; // flip part of src addr
        let err = Ipv4Header::decode(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, PacketError::BadChecksum { .. }), "{err}");
    }

    #[test]
    fn rejects_ipv6_version() {
        let mut bytes = sample().to_bytes();
        bytes[0] = 0x65;
        let err = Ipv4Header::decode(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, PacketError::InvalidField { field: "ip.version", .. }));
    }

    #[test]
    fn rejects_options() {
        let mut bytes = sample().to_bytes();
        bytes[0] = 0x46; // IHL 6 => options present
        let err = Ipv4Header::decode(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, PacketError::InvalidField { field: "ip.ihl", .. }));
    }

    #[test]
    fn protocol_mapping_roundtrips() {
        for p in [IpProtocol::Icmp, IpProtocol::Tcp, IpProtocol::Udp, IpProtocol::Other(89)] {
            assert_eq!(IpProtocol::from_value(p.value()), p);
        }
    }
}
