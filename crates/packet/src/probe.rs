//! Probe packet payloads.
//!
//! A probe is sent by each edge server to the scheduler at a fixed interval
//! (100 ms by default). Its payload, carried over UDP to
//! [`crate::PROBE_UDP_PORT`], is:
//!
//! ```text
//! +-------------------+---------------------+-----------------+
//! | GeneveOption (8B) | ProbeFixed (24B)    | IntStack (2+32n)|
//! +-------------------+---------------------+-----------------+
//! ```
//!
//! The fixed part identifies the originating edge server, carries a sequence
//! number (loss/reordering detection at the collector), and the host's send
//! timestamp, which the first switch uses to measure the access-link latency
//! exactly like `egress_ts_ns` of inter-switch records.

use crate::geneve::GeneveOption;
use crate::int::IntStack;
use crate::wire::{need, WireDecode, WireEncode};
use crate::{PacketError, Result};
use bytes::{Buf, BufMut};
use serde::Serialize;

/// Payload of an INT probe packet (shim + fixed fields + INT stack).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ProbePayload {
    /// Node id of the edge server that originated the probe.
    pub origin_node: u32,
    /// Monotonic per-origin sequence number.
    pub seq: u64,
    /// Origin host's send timestamp (ns since simulation epoch). Doubles as
    /// the "previous egress timestamp" for the first switch on the path.
    pub sent_ts_ns: u64,
    /// Per-hop telemetry appended by switches en route.
    pub int: IntStack,
}

impl ProbePayload {
    /// Size of the fixed (non-INT) portion excluding the Geneve shim.
    pub const FIXED_LEN: usize = 4 + 8 + 8;

    /// A fresh probe as it leaves its origin host: empty INT stack.
    pub fn new(origin_node: u32, seq: u64, sent_ts_ns: u64) -> Self {
        ProbePayload { origin_node, seq, sent_ts_ns, int: IntStack::new() }
    }

    /// Timestamp the *next* switch should use as the upstream egress time:
    /// the last switch's egress stamp, or the host send time for hop one.
    pub fn upstream_egress_ts_ns(&self) -> u64 {
        self.int.last().map(|r| r.egress_ts_ns).unwrap_or(self.sent_ts_ns)
    }
}

impl WireEncode for ProbePayload {
    fn encoded_len(&self) -> usize {
        GeneveOption::LEN + Self::FIXED_LEN + self.int.encoded_len()
    }

    fn encode<B: BufMut>(&self, buf: &mut B) {
        GeneveOption::int_probe().encode(buf);
        buf.put_u32(self.origin_node);
        buf.put_u64(self.seq);
        buf.put_u64(self.sent_ts_ns);
        self.int.encode(buf);
    }
}

impl ProbePayload {
    /// [`WireDecode::decode`] into `self`, reusing the INT record buffer's
    /// capacity: a receiver that keeps one payload around decodes every
    /// probe after the first without allocating. On error `self` is left
    /// partially overwritten.
    pub fn decode_into<B: Buf>(&mut self, buf: &mut B) -> Result<()> {
        let shim = GeneveOption::decode(buf)?;
        if !shim.is_int_probe() {
            return Err(PacketError::WrongKind { expected: "int probe" });
        }
        need(buf, "probe fixed fields", Self::FIXED_LEN)?;
        self.origin_node = buf.get_u32();
        self.seq = buf.get_u64();
        self.sent_ts_ns = buf.get_u64();
        self.int.decode_into(buf)
    }
}

impl WireDecode for ProbePayload {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self> {
        let mut probe = ProbePayload::default();
        probe.decode_into(buf)?;
        Ok(probe)
    }
}

/// A probe payload relayed from its terminal node to the central
/// collector.
///
/// The paper sends probes only edge-server → scheduler and leaves "route
/// selection optimization for probe packets" as future work; with that
/// scheme, directed links that lie on no node→scheduler shortest path are
/// never measured. The all-pairs probing mode closes the gap: every node
/// probes every other node, and the *terminal* wraps the received probe —
/// with its own identity and receive timestamp, which the collector needs
/// for final-hop latency — and forwards it to the scheduler over UDP.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RelayedProbe {
    /// Node the probe terminated at.
    pub terminal_node: u32,
    /// Receive timestamp at the terminal, ns.
    pub rx_ts_ns: u64,
    /// The probe as received (full INT stack).
    pub probe: ProbePayload,
}

impl WireEncode for RelayedProbe {
    fn encoded_len(&self) -> usize {
        4 + 8 + self.probe.encoded_len()
    }

    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u32(self.terminal_node);
        buf.put_u64(self.rx_ts_ns);
        self.probe.encode(buf);
    }
}

impl WireDecode for RelayedProbe {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self> {
        need(buf, "relayed probe fixed fields", 12)?;
        let terminal_node = buf.get_u32();
        let rx_ts_ns = buf.get_u64();
        let probe = ProbePayload::decode(buf)?;
        Ok(RelayedProbe { terminal_node, rx_ts_ns, probe })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::int::IntRecord;

    #[test]
    fn fresh_probe_roundtrips() {
        let p = ProbePayload::new(5, 17, 1_000_000);
        let parsed = ProbePayload::decode(&mut &p.to_bytes()[..]).unwrap();
        assert_eq!(parsed, p);
        assert_eq!(parsed.upstream_egress_ts_ns(), 1_000_000);
    }

    #[test]
    fn probe_with_records_roundtrips() {
        let mut p = ProbePayload::new(2, 1, 500);
        p.int.push(IntRecord {
            switch_id: 10,
            ingress_port: 0,
            egress_port: 1,
            max_qlen_pkts: 12,
            qlen_at_probe_pkts: 3,
            link_latency_ns: 10_000_000,
            egress_ts_ns: 11_000_000,
        });
        let parsed = ProbePayload::decode(&mut &p.to_bytes()[..]).unwrap();
        assert_eq!(parsed, p);
        assert_eq!(parsed.upstream_egress_ts_ns(), 11_000_000, "last switch egress stamp wins");
    }

    #[test]
    fn non_probe_shim_rejected() {
        let mut bytes = ProbePayload::new(1, 1, 1).to_bytes();
        // Corrupt the option type so it is no longer IntProbe.
        bytes[6] = 0x7F;
        let err = ProbePayload::decode(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, PacketError::WrongKind { expected: "int probe" }));
    }

    #[test]
    fn relayed_probe_roundtrips() {
        let mut p = ProbePayload::new(2, 1, 500);
        p.int.push(IntRecord {
            switch_id: 10,
            ingress_port: 0,
            egress_port: 1,
            max_qlen_pkts: 12,
            qlen_at_probe_pkts: 3,
            link_latency_ns: 10_000_000,
            egress_ts_ns: 11_000_000,
        });
        let r = RelayedProbe { terminal_node: 4, rx_ts_ns: 21_000_000, probe: p };
        let bytes = r.to_bytes();
        assert_eq!(bytes.len(), r.encoded_len());
        assert_eq!(RelayedProbe::decode(&mut &bytes[..]).unwrap(), r);
    }

    #[test]
    fn encoded_len_matches_actual() {
        let mut p = ProbePayload::new(3, 9, 42);
        for i in 0..4 {
            p.int.push(IntRecord {
                switch_id: i,
                ingress_port: 0,
                egress_port: 0,
                max_qlen_pkts: 0,
                qlen_at_probe_pkts: 0,
                link_latency_ns: 0,
                egress_ts_ns: 0,
            });
        }
        assert_eq!(p.to_bytes().len(), p.encoded_len());
    }
}
