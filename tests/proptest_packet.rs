//! Property-based tests on the wire formats: every header round-trips for
//! arbitrary field values, and no parser panics on arbitrary bytes.

use int_edge_sched::packet::int::{IntRecord, IntStack};
use int_edge_sched::packet::msgs::{Candidate, ControlMsg, RankingKind, TaskStreamHeader};
use int_edge_sched::packet::wire::{need, WireDecode, WireEncode};
use int_edge_sched::packet::{
    EthernetHeader, Ipv4Header, MacAddr, PacketBuilder, PacketError, ParsedPacket, ProbePayload,
    TcpFlags, TcpHeader, UdpHeader,
};
use bytes::Buf;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_record() -> impl Strategy<Value = IntRecord> {
    (
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(switch_id, ingress_port, egress_port, max_q, inst_q, lat, ts)| IntRecord {
                switch_id,
                ingress_port,
                egress_port,
                max_qlen_pkts: max_q,
                qlen_at_probe_pkts: inst_q,
                link_latency_ns: lat,
                egress_ts_ns: ts,
            },
        )
}

/// The per-record decode `IntStack::decode` replaced with one length
/// check and fixed-offset reads: every record bounds-checked and read
/// through the cursor on its own.
fn per_record_stack_decode(buf: &mut &[u8]) -> Result<IntStack, PacketError> {
    need(buf, "int stack", 2)?;
    let count = buf.get_u16() as usize;
    if count > IntStack::MAX_HOPS {
        return Err(PacketError::InvalidField { field: "int.hop_count", value: count as u64 });
    }
    let mut stack = IntStack::new();
    for _ in 0..count {
        stack.records.push(IntRecord::decode(buf)?);
    }
    Ok(stack)
}

proptest! {
    #[test]
    fn ethernet_roundtrips(dst in any::<[u8; 6]>(), src in any::<[u8; 6]>(), et in any::<u16>()) {
        let h = EthernetHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: int_edge_sched::packet::EtherType::from_value(et),
        };
        let parsed = EthernetHeader::decode(&mut &h.to_bytes()[..]).unwrap();
        prop_assert_eq!(parsed, h);
    }

    #[test]
    fn ipv4_roundtrips(
        src in arb_ip(),
        dst in arb_ip(),
        proto in any::<u8>(),
        payload_len in 0usize..1400,
        ttl in 1u8..=255,
        id in any::<u16>(),
    ) {
        let mut h = Ipv4Header::new(src, dst, int_edge_sched::packet::IpProtocol::from_value(proto), payload_len);
        h.ttl = ttl;
        h.identification = id;
        let parsed = Ipv4Header::decode(&mut &h.to_bytes()[..]).unwrap();
        prop_assert_eq!(parsed, h);
    }

    #[test]
    fn udp_roundtrips(sp in any::<u16>(), dp in any::<u16>(), len in 0usize..60_000) {
        let h = UdpHeader::new(sp, dp, len);
        prop_assert_eq!(UdpHeader::decode(&mut &h.to_bytes()[..]).unwrap(), h);
    }

    #[test]
    fn tcp_roundtrips(
        sp in any::<u16>(), dp in any::<u16>(), seq in any::<u32>(), ack in any::<u32>(),
        win in any::<u16>(), flags in any::<u8>(),
    ) {
        let h = TcpHeader {
            src_port: sp, dst_port: dp, seq, ack,
            flags: TcpFlags {
                syn: flags & 1 != 0, ack: flags & 2 != 0,
                fin: flags & 4 != 0, rst: flags & 8 != 0,
            },
            window: win,
        };
        prop_assert_eq!(TcpHeader::decode(&mut &h.to_bytes()[..]).unwrap(), h);
    }

    #[test]
    fn int_stack_roundtrips(records in proptest::collection::vec(arb_record(), 0..12)) {
        let mut s = IntStack::new();
        for r in &records {
            s.push(*r);
        }
        let parsed = IntStack::decode(&mut &s.to_bytes()[..]).unwrap();
        prop_assert_eq!(parsed.records, records);
    }

    /// Check-once decode ≡ per-record decode — values, errors and bytes
    /// consumed — on arbitrary bytes under an arbitrary claimed hop count
    /// (mostly short, sometimes over the bound), with trailing bytes.
    #[test]
    fn int_stack_decode_matches_per_record_decode_on_arbitrary_bytes(
        count in 0u16..300,
        small in any::<bool>(),
        body in proptest::collection::vec(any::<u8>(), 0..400),
        header_len in 0usize..=2,
    ) {
        let count = if small { count % 14 } else { count };
        let mut bytes = count.to_be_bytes()[..header_len].to_vec();
        bytes.extend_from_slice(&body);
        let (mut fast, mut slow) = (&bytes[..], &bytes[..]);
        let got = IntStack::decode(&mut fast);
        prop_assert_eq!(&got, &per_record_stack_decode(&mut slow));
        if got.is_ok() {
            prop_assert_eq!(fast, slow);
        }
    }

    /// … and on a well-formed stack cut short anywhere.
    #[test]
    fn int_stack_decode_matches_per_record_decode_on_truncated_stacks(
        records in proptest::collection::vec(arb_record(), 0..12),
        cut in any::<usize>(),
    ) {
        let bytes = IntStack { records }.to_bytes();
        let cut = &bytes[..cut % (bytes.len() + 1)];
        let got = IntStack::decode(&mut &cut[..]);
        prop_assert_eq!(got.is_ok(), cut.len() == bytes.len());
        prop_assert_eq!(got, per_record_stack_decode(&mut &cut[..]));
    }

    /// Decoding into a payload that held another probe leaves nothing of
    /// the old one behind.
    #[test]
    fn probe_decode_into_matches_decode(
        old in proptest::collection::vec(arb_record(), 0..8),
        origin in any::<u32>(), seq in any::<u64>(), ts in any::<u64>(),
        records in proptest::collection::vec(arb_record(), 0..8),
    ) {
        let mut reused = ProbePayload::new(!origin, !seq, !ts);
        reused.int.records = old;
        let mut p = ProbePayload::new(origin, seq, ts);
        p.int.records = records;
        reused.decode_into(&mut &p.to_bytes()[..]).unwrap();
        prop_assert_eq!(reused, p);
    }

    #[test]
    fn probe_roundtrips(
        origin in any::<u32>(), seq in any::<u64>(), ts in any::<u64>(),
        records in proptest::collection::vec(arb_record(), 0..8),
    ) {
        let mut p = ProbePayload::new(origin, seq, ts);
        for r in records {
            p.int.push(r);
        }
        let parsed = ProbePayload::decode(&mut &p.to_bytes()[..]).unwrap();
        prop_assert_eq!(parsed, p);
    }

    #[test]
    fn control_msgs_roundtrip(
        requester in any::<u32>(), job in any::<u64>(), n in any::<u8>(),
        cands in proptest::collection::vec((any::<u32>(), any::<u64>(), any::<u64>()), 0..20),
        bw in any::<bool>(),
    ) {
        let msgs = [
            ControlMsg::SchedRequest {
                requester, job_id: job, task_count: n,
                ranking: if bw { RankingKind::Bandwidth } else { RankingKind::Delay },
            },
            ControlMsg::SchedResponse {
                job_id: job,
                candidates: cands
                    .iter()
                    .map(|&(node, d, b)| Candidate { node, est_delay_ns: d, est_bandwidth_bps: b })
                    .collect(),
            },
            ControlMsg::TaskDone {
                job_id: job, task_id: n as u64, executed_on: requester,
                data_received_ts_ns: job, queue_wait_ns: job ^ 0xFF,
            },
            ControlMsg::LoadReport { host: requester, outstanding: n as u32 },
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            prop_assert_eq!(bytes.len(), m.encoded_len());
            prop_assert_eq!(ControlMsg::decode(&mut &bytes[..]).unwrap(), m);
        }
    }

    #[test]
    fn task_header_roundtrips(j in any::<u64>(), t in any::<u64>(), o in any::<u32>(), e in any::<u64>(), dl in any::<u64>(), d in any::<u64>()) {
        let h = TaskStreamHeader { job_id: j, task_id: t, origin: o, exec_duration_ns: e, deadline_ns: dl, data_len: d };
        prop_assert_eq!(TaskStreamHeader::decode(&mut &h.to_bytes()[..]).unwrap(), h);
    }

    /// Fuzz the parser stack: arbitrary bytes must never panic.
    #[test]
    fn parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = ParsedPacket::parse(&bytes);
        let _ = ProbePayload::decode(&mut &bytes[..]);
        let _ = ControlMsg::decode(&mut &bytes[..]);
        let _ = IntStack::decode(&mut &bytes[..]);
    }

    /// A frame built by the builder always parses back with intact payload.
    #[test]
    fn built_frames_parse(
        src_node in 0u32..1000, dst_node in 0u32..1000,
        sp in any::<u16>(), dp in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1400),
    ) {
        let b = PacketBuilder::between(
            src_node,
            Ipv4Addr::from(0x0A000001u32 + src_node),
            dst_node,
            Ipv4Addr::from(0x0A000001u32 + dst_node),
        );
        let frame = b.udp(sp, dp, &payload);
        let parsed = ParsedPacket::parse(&frame).unwrap();
        prop_assert_eq!(parsed.payload(&frame), &payload[..]);
        prop_assert_eq!(parsed.udp().unwrap().dst_port, dp);
    }

    /// Bit-flipping a built frame must never panic the parser (and IP
    /// header corruption must be detected by the checksum).
    #[test]
    fn corrupted_frames_never_panic(
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let b = PacketBuilder::between(1, Ipv4Addr::new(10, 0, 0, 1), 2, Ipv4Addr::new(10, 0, 0, 2));
        let mut frame = b.udp(1000, 2000, &payload);
        let idx = flip_at % frame.len();
        frame[idx] ^= 1 << flip_bit;
        let result = ParsedPacket::parse(&frame);
        if (14..34).contains(&idx) {
            // Any single-bit flip inside the IP header is caught.
            prop_assert!(result.is_err(), "ip corruption at byte {} undetected", idx);
        }
    }
}
