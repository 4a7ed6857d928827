//! In-band Network Telemetry record stacks.
//!
//! Each P4 switch a probe packet traverses appends one [`IntRecord`] to the
//! probe's [`IntStack`] (paper §III-A, Fig. 2). A record carries:
//!
//! * the switch identity and ports the probe used,
//! * the **maximum egress-queue occupancy** (in packets) the switch observed
//!   on that egress port since the previous probe harvested it — the paper
//!   found the *maximum* (not the mean) is the signal that correlates with
//!   queuing delay,
//! * the **measured upstream link latency**: the previous hop stamps its
//!   egress time into its own record; this hop subtracts that stamp from its
//!   ingress arrival time *before enqueueing*, so queuing delay is excluded,
//! * this switch's own egress timestamp (consumed by the next hop).
//!
//! Because records are appended in path order, the scheduler can reconstruct
//! network adjacency purely from the record sequence (paper §III-B).

use crate::wire::{need, WireDecode, WireEncode};
use crate::{PacketError, Result};
use bytes::{Buf, BufMut};
use serde::{Deserialize, Serialize};

/// Telemetry appended by one switch to a probe packet. 32 bytes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntRecord {
    /// Identifier of the switch that appended this record.
    pub switch_id: u32,
    /// Port the probe entered the switch on.
    pub ingress_port: u16,
    /// Port the probe left the switch on.
    pub egress_port: u16,
    /// Maximum egress-queue occupancy (packets) observed on `egress_port`
    /// since the register was last harvested and reset by a probe.
    pub max_qlen_pkts: u32,
    /// Instantaneous egress-queue occupancy (packets) when the probe itself
    /// was enqueued; recorded for diagnostics/ablations.
    pub qlen_at_probe_pkts: u32,
    /// Measured latency of the link the probe traversed to *reach* this
    /// switch, in nanoseconds. Zero for the first switch on the path if the
    /// origin host did not stamp an egress time.
    pub link_latency_ns: u64,
    /// Time at which the probe left this switch (egress timestamp),
    /// consumed by the next hop to compute its `link_latency_ns`.
    pub egress_ts_ns: u64,
}

impl IntRecord {
    /// Wire size of one record.
    pub const LEN: usize = 32;
}

impl WireEncode for IntRecord {
    fn encoded_len(&self) -> usize {
        Self::LEN
    }

    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u32(self.switch_id);
        buf.put_u16(self.ingress_port);
        buf.put_u16(self.egress_port);
        buf.put_u32(self.max_qlen_pkts);
        buf.put_u32(self.qlen_at_probe_pkts);
        buf.put_u64(self.link_latency_ns);
        buf.put_u64(self.egress_ts_ns);
    }
}

impl IntRecord {
    /// Parse one record from its [`IntRecord::LEN`] wire bytes — the one
    /// place that knows the field offsets [`WireEncode::encode`] writes.
    fn from_wire(b: &[u8; Self::LEN]) -> Self {
        let u16_at = |i: usize| u16::from_be_bytes([b[i], b[i + 1]]);
        let u32_at = |i: usize| u32::from_be_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let u64_at = |i: usize| (u32_at(i) as u64) << 32 | u32_at(i + 4) as u64;
        IntRecord {
            switch_id: u32_at(0),
            ingress_port: u16_at(4),
            egress_port: u16_at(6),
            max_qlen_pkts: u32_at(8),
            qlen_at_probe_pkts: u32_at(12),
            link_latency_ns: u64_at(16),
            egress_ts_ns: u64_at(24),
        }
    }
}

impl WireDecode for IntRecord {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self> {
        need(buf, "int record", Self::LEN)?;
        let mut wire = [0u8; Self::LEN];
        buf.copy_to_slice(&mut wire);
        Ok(Self::from_wire(&wire))
    }
}

/// The ordered stack of per-hop telemetry records in a probe payload.
///
/// Record order is path order (first switch first): switches *append*.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IntStack {
    /// Per-hop records, in the order the probe visited switches.
    pub records: Vec<IntRecord>,
}

impl IntStack {
    /// Maximum number of hops a single probe may record. Bounds parsing of
    /// hostile/corrupt input; generous relative to any realistic edge path.
    pub const MAX_HOPS: usize = 256;

    /// An empty stack (probe fresh from its origin host).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of hops recorded so far.
    pub fn hop_count(&self) -> usize {
        self.records.len()
    }

    /// Append one hop's telemetry (what a switch's egress deparser does).
    pub fn push(&mut self, record: IntRecord) {
        debug_assert!(self.records.len() < Self::MAX_HOPS);
        self.records.push(record);
    }

    /// The most recently appended record, if any — the previous hop from the
    /// perspective of the switch currently holding the probe.
    pub fn last(&self) -> Option<&IntRecord> {
        self.records.last()
    }

    /// Mutable access to the most recent record (used by a switch's egress
    /// stage to stamp `egress_ts_ns` into its *own* record).
    pub fn last_mut(&mut self) -> Option<&mut IntRecord> {
        self.records.last_mut()
    }

    /// Iterate over `(upstream, downstream)` switch-id pairs, i.e. the link
    /// adjacencies this probe's path reveals (paper §III-B).
    pub fn adjacencies(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.records.windows(2).map(|w| (w[0].switch_id, w[1].switch_id))
    }
}

impl WireEncode for IntStack {
    fn encoded_len(&self) -> usize {
        2 + self.records.len() * IntRecord::LEN
    }

    fn encode<B: BufMut>(&self, buf: &mut B) {
        debug_assert!(self.records.len() <= u16::MAX as usize);
        buf.put_u16(self.records.len() as u16);
        for r in &self.records {
            r.encode(buf);
        }
    }
}

impl IntStack {
    /// [`WireDecode::decode`] into `self`, reusing the record buffer's
    /// capacity. On error `self` holds the records decoded so far.
    ///
    /// The claimed length is checked against the bytes present *before*
    /// anything is reserved (a short datagram claiming 256 hops costs no
    /// allocation), and that one check also licenses the fast path: when
    /// the whole stack is one contiguous chunk, records are read at fixed
    /// offsets instead of being bounds-checked and copied out one by one.
    pub fn decode_into<B: Buf>(&mut self, buf: &mut B) -> Result<()> {
        need(buf, "int stack", 2)?;
        let count = buf.get_u16() as usize;
        if count > Self::MAX_HOPS {
            return Err(PacketError::InvalidField { field: "int.hop_count", value: count as u64 });
        }
        self.records.clear();
        let len = count * IntRecord::LEN;
        if buf.remaining() < len {
            // The error the per-record loop reports: it runs out inside
            // the first record the bytes do not cover.
            return Err(PacketError::Truncated {
                what: "int record",
                needed: IntRecord::LEN,
                available: buf.remaining() % IntRecord::LEN,
            });
        }
        self.records.reserve_exact(count);
        if let Some(stack) = buf.chunk().get(..len) {
            let (records, _) = stack.as_chunks::<{ IntRecord::LEN }>();
            self.records.extend(records.iter().map(IntRecord::from_wire));
            buf.advance(len);
        } else {
            // A `Buf` split across chunks: read through the cursor.
            for _ in 0..count {
                self.records.push(IntRecord::decode(buf)?);
            }
        }
        Ok(())
    }
}

impl WireDecode for IntStack {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self> {
        let mut stack = IntStack::new();
        stack.decode_into(buf)?;
        Ok(stack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(switch_id: u32, maxq: u32) -> IntRecord {
        IntRecord {
            switch_id,
            ingress_port: 1,
            egress_port: 2,
            max_qlen_pkts: maxq,
            qlen_at_probe_pkts: maxq / 2,
            link_latency_ns: 10_000_000,
            egress_ts_ns: 123_456_789,
        }
    }

    #[test]
    fn record_roundtrip() {
        let r = rec(7, 42);
        let bytes = r.to_bytes();
        assert_eq!(bytes.len(), IntRecord::LEN);
        assert_eq!(IntRecord::decode(&mut &bytes[..]).unwrap(), r);
    }

    #[test]
    fn stack_roundtrip_preserves_order() {
        let mut s = IntStack::new();
        for id in [3u32, 1, 4, 1, 5] {
            s.push(rec(id, id * 10));
        }
        let parsed = IntStack::decode(&mut &s.to_bytes()[..]).unwrap();
        assert_eq!(parsed, s);
        let ids: Vec<u32> = parsed.records.iter().map(|r| r.switch_id).collect();
        assert_eq!(ids, vec![3, 1, 4, 1, 5]);
    }

    #[test]
    fn adjacencies_follow_record_order() {
        let mut s = IntStack::new();
        for id in [1u32, 3, 4] {
            s.push(rec(id, 0));
        }
        let adj: Vec<(u32, u32)> = s.adjacencies().collect();
        assert_eq!(adj, vec![(1, 3), (3, 4)]);
    }

    #[test]
    fn empty_stack_roundtrips() {
        let s = IntStack::new();
        assert_eq!(s.hop_count(), 0);
        let parsed = IntStack::decode(&mut &s.to_bytes()[..]).unwrap();
        assert_eq!(parsed.hop_count(), 0);
        assert_eq!(s.adjacencies().count(), 0);
    }

    #[test]
    fn hop_count_bound_enforced() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(IntStack::MAX_HOPS as u16 + 1).to_be_bytes());
        let err = IntStack::decode(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, PacketError::InvalidField { field: "int.hop_count", .. }));
    }

    #[test]
    fn truncated_record_list_errors() {
        let mut s = IntStack::new();
        s.push(rec(1, 1));
        s.push(rec(2, 2));
        let bytes = s.to_bytes();
        let err = IntStack::decode(&mut &bytes[..bytes.len() - 4]).unwrap_err();
        assert!(matches!(err, PacketError::Truncated { .. }));
    }

    /// Regression: the record buffer used to be reserved for the claimed
    /// hop count before the bytes were known to exist, so a one-record
    /// datagram claiming 256 hops cost 8 KiB before it failed.
    #[test]
    fn truncated_stack_of_every_claimed_length_errors_without_allocating() {
        for count in 1..=IntStack::MAX_HOPS {
            let full = count * IntRecord::LEN;
            let lens = [0, IntRecord::LEN - 1, IntRecord::LEN, full - IntRecord::LEN, full - 1];
            for present in lens.into_iter().filter(|&present| present < full) {
                let mut bytes = (count as u16).to_be_bytes().to_vec();
                bytes.resize(2 + present, 0xAB);
                let mut stack = IntStack::new();
                let err = stack.decode_into(&mut &bytes[..]).unwrap_err();
                assert_eq!(
                    err,
                    PacketError::Truncated {
                        what: "int record",
                        needed: IntRecord::LEN,
                        available: present % IntRecord::LEN,
                    },
                    "{count} hops claimed, {present} bytes present"
                );
                assert_eq!(stack.records.capacity(), 0, "nothing reserved for {count} claimed hops");
            }
        }
    }

    #[test]
    fn decode_into_reuses_the_record_buffer() {
        let mut long = IntStack::new();
        for id in 0..6 {
            long.push(rec(id, id));
        }
        let mut short = IntStack::new();
        short.push(rec(9, 9));

        let mut stack = IntStack::new();
        stack.decode_into(&mut &long.to_bytes()[..]).unwrap();
        assert_eq!(stack, long);
        let (ptr, cap) = (stack.records.as_ptr(), stack.records.capacity());
        stack.decode_into(&mut &short.to_bytes()[..]).unwrap();
        assert_eq!(stack, short, "the previous probe's records are gone");
        stack.decode_into(&mut &long.to_bytes()[..]).unwrap();
        assert_eq!(stack, long);
        assert_eq!((stack.records.as_ptr(), stack.records.capacity()), (ptr, cap));
    }

    /// A `Buf` whose bytes sit in two chunks, as a chained or ring buffer
    /// presents them.
    struct TwoChunks<'a>(&'a [u8], &'a [u8]);

    impl Buf for TwoChunks<'_> {
        fn remaining(&self) -> usize {
            self.0.len() + self.1.len()
        }
        fn chunk(&self) -> &[u8] {
            if self.0.is_empty() { self.1 } else { self.0 }
        }
        fn advance(&mut self, cnt: usize) {
            let first = cnt.min(self.0.len());
            self.0 = &self.0[first..];
            self.1 = &self.1[cnt - first..];
        }
        fn copy_to_slice(&mut self, dst: &mut [u8]) {
            for d in dst {
                *d = self.chunk()[0];
                self.advance(1);
            }
        }
    }

    /// The fixed-offset path needs the whole stack in one chunk; bytes
    /// split anywhere else decode through the cursor to the same value,
    /// and run short with the same error.
    #[test]
    fn split_buffers_decode_like_contiguous_ones() {
        let mut s = IntStack::new();
        for id in [3u32, 1, 4] {
            s.push(rec(id, id * 10));
        }
        let bytes = s.to_bytes();
        for cut in 0..=bytes.len() {
            let mut buf = TwoChunks(&bytes[..cut], &bytes[cut..]);
            assert_eq!(IntStack::decode(&mut buf).unwrap(), s, "split at {cut}");
            assert_eq!(buf.remaining(), 0);
        }
        let short = &bytes[..bytes.len() - 5];
        let contiguous = IntStack::decode(&mut &short[..]).unwrap_err();
        assert_eq!(IntStack::decode(&mut TwoChunks(&short[..40], &short[40..])).unwrap_err(), contiguous);
    }
}
