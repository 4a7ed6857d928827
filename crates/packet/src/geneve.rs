//! Geneve-style option shim that marks probe packets.
//!
//! The paper (§III-A) distinguishes probe packets from production traffic by
//! sending them as "UDP with certain IP header fields set (aka Geneve
//! option)". We model that faithfully: probes are UDP datagrams to the
//! Geneve port (6081) whose payload starts with an 8-byte option shim
//! carrying a magic number, a version, and an option type. A P4 parser keys
//! on `(udp.dst_port == 6081, shim.magic, shim.opt_type)` to branch into the
//! INT processing pipeline.

use crate::wire::{need, WireDecode, WireEncode};
use crate::{PacketError, Result};
use bytes::{Buf, BufMut};
use serde::Serialize;

/// Magic number identifying our telemetry shim ("IN" "T!" in ASCII).
pub const GENEVE_MAGIC: u16 = 0x494E;

/// Option class assigned to this system (experimental range).
pub const OPT_CLASS_TELEMETRY: u16 = 0xFF01;

/// Option types carried in the shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum GeneveOptType {
    /// An INT-collecting probe packet travelling edge-server → scheduler.
    IntProbe,
    /// Reserved/unknown option type, preserved verbatim.
    Other(u8),
}

impl GeneveOptType {
    /// Numeric wire value.
    pub fn value(self) -> u8 {
        match self {
            GeneveOptType::IntProbe => 0x01,
            GeneveOptType::Other(v) => v,
        }
    }

    /// Classify a wire value.
    pub fn from_value(v: u8) -> Self {
        match v {
            0x01 => GeneveOptType::IntProbe,
            other => GeneveOptType::Other(other),
        }
    }
}

/// The 8-byte option shim at the start of a probe payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct GeneveOption {
    /// Shim format version; only [`GeneveOption::VERSION`] is accepted.
    pub version: u8,
    /// Option class; telemetry uses [`OPT_CLASS_TELEMETRY`].
    pub opt_class: u16,
    /// Option type; probes use [`GeneveOptType::IntProbe`].
    pub opt_type: GeneveOptType,
}

impl GeneveOption {
    /// Wire size.
    pub const LEN: usize = 8;
    /// Current shim version.
    pub const VERSION: u8 = 1;

    /// The shim placed on every INT probe packet.
    pub fn int_probe() -> Self {
        GeneveOption {
            version: Self::VERSION,
            opt_class: OPT_CLASS_TELEMETRY,
            opt_type: GeneveOptType::IntProbe,
        }
    }

    /// True if this shim marks an INT probe.
    pub fn is_int_probe(&self) -> bool {
        self.opt_class == OPT_CLASS_TELEMETRY && self.opt_type == GeneveOptType::IntProbe
    }
}

impl WireEncode for GeneveOption {
    fn encoded_len(&self) -> usize {
        Self::LEN
    }

    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u16(GENEVE_MAGIC);
        buf.put_u8(self.version);
        buf.put_u8(0); // flags, reserved
        buf.put_u16(self.opt_class);
        buf.put_u8(self.opt_type.value());
        buf.put_u8(0); // reserved
    }
}

impl WireDecode for GeneveOption {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self> {
        need(buf, "geneve option", Self::LEN)?;
        let magic = buf.get_u16();
        if magic != GENEVE_MAGIC {
            return Err(PacketError::InvalidField { field: "geneve.magic", value: magic as u64 });
        }
        let version = buf.get_u8();
        if version != Self::VERSION {
            return Err(PacketError::InvalidField {
                field: "geneve.version",
                value: version as u64,
            });
        }
        let _flags = buf.get_u8();
        let opt_class = buf.get_u16();
        let opt_type = GeneveOptType::from_value(buf.get_u8());
        let _reserved = buf.get_u8();
        Ok(GeneveOption { version, opt_class, opt_type })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_shim_roundtrips() {
        let o = GeneveOption::int_probe();
        assert!(o.is_int_probe());
        let parsed = GeneveOption::decode(&mut &o.to_bytes()[..]).unwrap();
        assert_eq!(parsed, o);
        assert!(parsed.is_int_probe());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = GeneveOption::int_probe().to_bytes();
        bytes[0] = 0x00;
        let err = GeneveOption::decode(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, PacketError::InvalidField { field: "geneve.magic", .. }));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = GeneveOption::int_probe().to_bytes();
        bytes[2] = 99;
        let err = GeneveOption::decode(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, PacketError::InvalidField { field: "geneve.version", .. }));
    }

    #[test]
    fn other_class_is_not_probe() {
        let o = GeneveOption {
            version: GeneveOption::VERSION,
            opt_class: 0x1234,
            opt_type: GeneveOptType::IntProbe,
        };
        assert!(!o.is_int_probe());
    }
}
