//! UDP headers.

use crate::wire::{need, WireDecode, WireEncode};
use crate::{PacketError, Result};
use bytes::{Buf, BufMut};
use serde::Serialize;

/// A UDP header (8 bytes).
///
/// The simulator computes no UDP checksum (field carried as zero, which RFC
/// 768 defines as "checksum disabled"); integrity inside the simulator is
/// guaranteed by construction and the IPv4 header checksum is verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of UDP header + payload in bytes.
    pub length: u16,
}

impl UdpHeader {
    /// Wire size.
    pub const LEN: usize = 8;

    /// Header for a payload of `payload_len` bytes.
    pub fn new(src_port: u16, dst_port: u16, payload_len: usize) -> Self {
        let length = Self::LEN + payload_len;
        debug_assert!(length <= u16::MAX as usize, "UDP datagram too large: {length}");
        UdpHeader { src_port, dst_port, length: length as u16 }
    }

    /// Payload length implied by the `length` field.
    pub fn payload_len(&self) -> usize {
        (self.length as usize).saturating_sub(Self::LEN)
    }
}

impl WireEncode for UdpHeader {
    fn encoded_len(&self) -> usize {
        Self::LEN
    }

    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u16(self.length);
        buf.put_u16(0); // checksum disabled
    }
}

impl WireDecode for UdpHeader {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self> {
        need(buf, "udp header", Self::LEN)?;
        let src_port = buf.get_u16();
        let dst_port = buf.get_u16();
        let length = buf.get_u16();
        let _checksum = buf.get_u16();
        if (length as usize) < Self::LEN {
            return Err(PacketError::InvalidField { field: "udp.length", value: length as u64 });
        }
        Ok(UdpHeader { src_port, dst_port, length })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = UdpHeader::new(40000, crate::PROBE_UDP_PORT, 64);
        let parsed = UdpHeader::decode(&mut &h.to_bytes()[..]).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(parsed.payload_len(), 64);
    }

    #[test]
    fn rejects_length_below_header() {
        let mut bytes = UdpHeader::new(1, 2, 0).to_bytes();
        bytes[4] = 0;
        bytes[5] = 7; // length = 7 < 8
        let err = UdpHeader::decode(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, PacketError::InvalidField { field: "udp.length", .. }));
    }

    #[test]
    fn truncated_errors() {
        let bytes = UdpHeader::new(1, 2, 0).to_bytes();
        assert!(UdpHeader::decode(&mut &bytes[..5]).is_err());
    }
}
