//! Unit costs: one layer's public function timed on inputs shaped like
//! the workload's. Inside `Simulator::run_until` the layers cannot be
//! separated from outside, so a layer is priced as unit cost × count.

use int_dataplane::{
    DataPlaneProgram, EgressCtx, EnqueueCtx, Frame, IngressCtx, IntProgramConfig,
    IntTelemetryProgram, Key, MatchActionTable, MatchKind,
};
use int_netsim::{Event, EventQueue, NodeId, SimTime};
use int_packet::int::IntRecord;
use int_packet::wire::{WireDecode, WireEncode};
use int_packet::{PacketBuilder, ParsedPacket, ProbePayload, TcpFlags, TcpHeader, PROBE_UDP_PORT};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Iterations per unit-cost measurement. Some inputs are built once per
/// iteration, so this also bounds the memory the measurement holds (3 MB).
const ITERS: usize = 2_000;

/// Mean ns per call of `f` over [`ITERS`] calls.
fn ns_per_call(mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..ITERS {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / ITERS as f64
}

fn builder() -> PacketBuilder {
    PacketBuilder::between(1, Ipv4Addr::new(10, 0, 0, 5), 2, Ipv4Addr::new(10, 0, 0, 2))
}

/// A probe that has crossed four switches.
pub fn four_record_probe() -> ProbePayload {
    let mut p = ProbePayload::new(1, 7, 1_000);
    for i in 0..4u32 {
        p.int.push(IntRecord {
            switch_id: i,
            ingress_port: 0,
            egress_port: 1,
            max_qlen_pkts: i * 3,
            qlen_at_probe_pkts: i,
            link_latency_ns: 10_000_000,
            egress_ts_ns: (i as u64 + 1) * 11_000_000,
        });
    }
    p
}

/// `ParsedPacket::parse` of a full-size (1514 B) TCP segment.
pub fn parse_ns() -> f64 {
    let tcp = TcpHeader {
        src_port: 40000,
        dst_port: 7100,
        seq: 1,
        ack: 2,
        flags: TcpFlags::ACK,
        window: 65535,
    };
    let frame = builder().tcp(tcp, &[0u8; 1460]);
    ns_per_call(|_| {
        black_box(ParsedPacket::parse(black_box(&frame)).expect("well-formed frame"));
    })
}

/// Building a UDP frame around a 1472 B payload.
pub fn build_udp_ns() -> f64 {
    let payload = [0u8; 1472];
    let b = builder();
    ns_per_call(|_| {
        black_box(b.udp(5000, 5001, black_box(&payload)));
    })
}

/// `ProbePayload::decode` of a four-record probe.
pub fn probe_decode_ns() -> f64 {
    let bytes = four_record_probe().to_bytes();
    ns_per_call(|_| {
        black_box(ProbePayload::decode(&mut black_box(&bytes[..])).expect("well-formed probe"));
    })
}

/// Encoding the same probe.
pub fn probe_encode_ns() -> f64 {
    let probe = four_record_probe();
    ns_per_call(|_| {
        black_box(black_box(&probe).to_bytes());
    })
}

fn program(routes: u32) -> IntTelemetryProgram {
    let mut p = IntTelemetryProgram::new(IntProgramConfig {
        switch_id: 1,
        num_ports: 8,
        int_enabled: true,
    });
    for i in 0..routes {
        p.install_host_route(Ipv4Addr::from(0x0A00_0001u32 + i), (i % 8) as u16);
    }
    p
}

/// Ingress mutates the frame, so every call gets a fresh one, built
/// outside the timed loop.
fn frames(make: impl Fn() -> Frame) -> Vec<Frame> {
    (0..ITERS).map(|_| make()).collect()
}

fn data_frame() -> Frame {
    Frame::new(builder().udp(5001, 5001, &[0u8; 1400]))
}

fn probe_frame() -> Frame {
    Frame::new(builder().udp_msg(41000, PROBE_UDP_PORT, &four_record_probe()))
}

const INGRESS: IngressCtx = IngressCtx {
    now_ns: 1_000,
    switch_id: 1,
    ingress_port: 0,
};

/// Pipeline ingress of a data packet with `routes` host routes installed.
pub fn ingress_data_ns(routes: u32) -> f64 {
    let mut p = program(routes);
    let mut fs = frames(data_frame);
    ns_per_call(|i| {
        black_box(p.ingress(&mut fs[i], &INGRESS));
    })
}

/// Pipeline ingress of a probe packet.
pub fn ingress_probe_ns(routes: u32) -> f64 {
    let mut p = program(routes);
    let mut fs = frames(probe_frame);
    ns_per_call(|i| {
        black_box(p.ingress(&mut fs[i], &INGRESS));
    })
}

/// A probe's full transit of one switch: ingress, enqueue observation,
/// egress with the re-deparse that grows the INT stack.
pub fn probe_transit_ns(routes: u32) -> f64 {
    let mut p = program(routes);
    let mut fs = frames(probe_frame);
    ns_per_call(|i| {
        let f = &mut fs[i];
        let v = p.ingress(f, &INGRESS);
        p.on_enqueue(
            f,
            &EnqueueCtx {
                now_ns: 1_000,
                port: 0,
                qdepth_after_pkts: 3,
            },
        );
        p.egress(
            f,
            &EgressCtx {
                now_ns: 2_000,
                switch_id: 1,
                egress_port: 0,
                qdepth_at_deq_pkts: 2,
            },
        );
        black_box((v, f.wire_len()));
    })
}

/// One LPM lookup among `routes` installed /32 routes, rotating through
/// all of them so a one-entry cache cannot hide the table.
pub fn lpm_lookup_ns(routes: u32) -> f64 {
    let mut t = MatchActionTable::new("fwd", MatchKind::Lpm);
    let keys: Vec<[u8; 4]> = (0..routes.max(1))
        .map(|i| (0x0A00_0000u32 + i * 7).to_be_bytes())
        .collect();
    for (i, k) in keys.iter().enumerate() {
        t.insert(
            Key::Lpm {
                value: k.to_vec(),
                prefix_len: 32,
            },
            i as u16,
        );
    }
    ns_per_call(|i| {
        black_box(t.lookup(black_box(&keys[i % keys.len()])));
    })
}

/// One pop plus one push on an event queue holding `depth` timers spread
/// over a second, each popped timer rearmed a second later — the steady
/// state of rearming app timers.
pub fn evq_push_pop_ns(depth: usize) -> f64 {
    let depth = depth.max(1) as u64;
    let timer = |id| Event::AppTimer {
        node: NodeId(0),
        app_idx: 0,
        timer_id: id,
    };
    let mut q = EventQueue::new();
    for i in 0..depth {
        q.push(SimTime(i * 1_000_000_000 / depth), timer(i));
    }
    ns_per_call(|i| {
        let (at, _) = q.pop().expect("queue keeps its depth");
        q.push(SimTime(at.0 + 1_000_000_000), timer(i as u64));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_costs_are_positive() {
        for ns in [
            parse_ns(),
            build_udp_ns(),
            probe_decode_ns(),
            probe_encode_ns(),
            ingress_data_ns(8),
            ingress_probe_ns(8),
            probe_transit_ns(8),
            lpm_lookup_ns(8),
            evq_push_pop_ns(64),
        ] {
            assert!(ns > 0.0);
        }
        assert_eq!(four_record_probe().int.hop_count(), 4);
    }
}
