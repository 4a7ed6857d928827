//! TCP segment headers (no options), used by the reliable task-transfer
//! transport in the simulator.

use crate::wire::{need, WireDecode, WireEncode};
use crate::{PacketError, Result};
use bytes::{Buf, BufMut};
use serde::Serialize;

/// TCP control flags (subset actually used by the transport).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct TcpFlags {
    /// Synchronize sequence numbers (connection open).
    pub syn: bool,
    /// Acknowledgment field significant.
    pub ack: bool,
    /// No more data from sender (connection close).
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
}

impl TcpFlags {
    /// SYN only.
    pub const SYN: TcpFlags = TcpFlags { syn: true, ack: false, fin: false, rst: false };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags { syn: true, ack: true, fin: false, rst: false };
    /// ACK only.
    pub const ACK: TcpFlags = TcpFlags { syn: false, ack: true, fin: false, rst: false };
    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags { syn: false, ack: true, fin: true, rst: false };

    fn to_byte(self) -> u8 {
        (self.fin as u8) | (self.syn as u8) << 1 | (self.rst as u8) << 2 | (self.ack as u8) << 4
    }

    fn from_byte(b: u8) -> TcpFlags {
        TcpFlags { fin: b & 0x01 != 0, syn: b & 0x02 != 0, rst: b & 0x04 != 0, ack: b & 0x10 != 0 }
    }
}

/// A 20-byte TCP header without options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte in this segment.
    pub seq: u32,
    /// Cumulative acknowledgment number (next byte expected).
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window, in bytes (no window scaling).
    pub window: u16,
}

impl TcpHeader {
    /// Wire size (data offset 5, no options).
    pub const LEN: usize = 20;
}

impl WireEncode for TcpHeader {
    fn encoded_len(&self) -> usize {
        Self::LEN
    }

    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u32(self.seq);
        buf.put_u32(self.ack);
        buf.put_u8(5 << 4); // data offset 5 words, reserved 0
        buf.put_u8(self.flags.to_byte());
        buf.put_u16(self.window);
        buf.put_u16(0); // checksum (integrity by construction in-sim)
        buf.put_u16(0); // urgent pointer
    }
}

impl WireDecode for TcpHeader {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self> {
        need(buf, "tcp header", Self::LEN)?;
        let src_port = buf.get_u16();
        let dst_port = buf.get_u16();
        let seq = buf.get_u32();
        let ack = buf.get_u32();
        let offset_words = buf.get_u8() >> 4;
        if offset_words != 5 {
            return Err(PacketError::InvalidField {
                field: "tcp.data_offset",
                value: offset_words as u64,
            });
        }
        let flags = TcpFlags::from_byte(buf.get_u8());
        let window = buf.get_u16();
        let _checksum = buf.get_u16();
        let _urgent = buf.get_u16();
        Ok(TcpHeader { src_port, dst_port, seq, ack, flags, window })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_flag_combinations() {
        for bits in 0u8..16 {
            let flags = TcpFlags {
                syn: bits & 1 != 0,
                ack: bits & 2 != 0,
                fin: bits & 4 != 0,
                rst: bits & 8 != 0,
            };
            let h = TcpHeader {
                src_port: 1000,
                dst_port: 7100,
                seq: 0xDEADBEEF,
                ack: 0x01020304,
                flags,
                window: 65535,
            };
            let parsed = TcpHeader::decode(&mut &h.to_bytes()[..]).unwrap();
            assert_eq!(parsed, h);
        }
    }

    #[test]
    fn rejects_options() {
        let h = TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 100,
        };
        let mut bytes = h.to_bytes();
        bytes[12] = 6 << 4; // data offset 6 => 4 bytes of options
        assert!(TcpHeader::decode(&mut &bytes[..]).is_err());
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the constants ARE the subject
    fn flag_constants() {
        assert!(TcpFlags::SYN.syn && !TcpFlags::SYN.ack);
        assert!(TcpFlags::SYN_ACK.syn && TcpFlags::SYN_ACK.ack);
        assert!(TcpFlags::FIN_ACK.fin && TcpFlags::FIN_ACK.ack && !TcpFlags::FIN_ACK.syn);
    }
}
