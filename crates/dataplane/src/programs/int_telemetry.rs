//! The paper's INT telemetry program (§III-A, Fig. 2).
//!
//! On **regular packets** the switch only observes: every enqueue folds the
//! egress-queue depth into the `max_qlen` register of that port. Nothing is
//! added to production packets — this is the paper's key overhead-avoidance
//! design.
//!
//! On **probe packets** (UDP to the Geneve port with the telemetry shim):
//!
//! * *ingress* (before enqueue): read the upstream egress timestamp from the
//!   probe payload and record `link_latency = now − upstream_ts` in packet
//!   metadata. Doing this pre-queue excludes this switch's queuing delay
//!   from the link measurement.
//! * *egress* (head of queue, about to serialize): harvest-and-reset the
//!   `max_qlen` register of the egress port, append an [`IntRecord`] with
//!   the harvested value, the measured upstream link latency, and this
//!   switch's egress timestamp, then re-deparse the packet (lengths and
//!   checksums updated).

use crate::frame::Frame;
use crate::pipeline::{
    DataPlaneProgram, EgressCtx, EnqueueCtx, IngressCtx, IngressVerdict, PortId,
};
use crate::programs::l3fwd::{EcmpSelect, L3ForwardProgram};
use crate::registers::RegisterArray;
use bytes::BytesMut;
use int_obs::{TraceEvent, TraceKind};
use int_packet::int::IntRecord;
use int_packet::ipv4::Ipv4Header;
use int_packet::udp::UdpHeader;
use int_packet::wire::{internet_checksum, WireEncode};
use int_packet::EthernetHeader;
use std::net::Ipv4Addr;

/// Configuration for the INT program.
#[derive(Debug, Clone, Copy)]
pub struct IntProgramConfig {
    /// Switch identity stamped into INT records.
    pub switch_id: u32,
    /// Number of ports (sizes the register arrays).
    pub num_ports: usize,
    /// If false, the program behaves exactly like plain L3 forwarding
    /// (probes are forwarded but not augmented) — used for baseline runs.
    pub int_enabled: bool,
}

/// The INT telemetry data-plane program: the one program every switch
/// runs.
pub struct IntTelemetryProgram {
    cfg: IntProgramConfig,
    /// The forwarding stage ingress ends with.
    l3: L3ForwardProgram,
    /// Max egress-queue depth per port since the last probe harvested it.
    max_qlen: RegisterArray,
    /// Buffer harvest/reset trace events for the simulator to drain.
    tracing: bool,
    trace_buf: Vec<TraceEvent>,
}

impl IntTelemetryProgram {
    /// Name of the `max_qlen` register, as `RegisterReset` trace events
    /// carry it.
    pub const REG_MAX_QLEN: &'static str = "max_qlen";

    /// Build the program for a switch.
    pub fn new(cfg: IntProgramConfig) -> Self {
        IntTelemetryProgram {
            cfg,
            l3: L3ForwardProgram::new(),
            max_qlen: RegisterArray::new(cfg.num_ports),
            tracing: false,
            trace_buf: Vec::new(),
        }
    }

    /// Control plane: route a single host address out of `port`.
    pub fn install_host_route(&mut self, host: Ipv4Addr, port: PortId) {
        self.l3.install_route(host, 32, &[port]);
    }

    /// Control plane: route `prefix/len` over an equal-cost port group
    /// (`ports[0]` = primary). `len == 0` installs a default route.
    pub fn install_route_multi(&mut self, prefix: Ipv4Addr, prefix_len: u16, ports: &[PortId]) {
        self.l3.install_route(prefix, prefix_len, ports);
    }

    /// Multipath selection mode for this switch's routes.
    pub fn set_ecmp_select(&mut self, select: EcmpSelect) {
        self.l3.set_ecmp_select(select);
    }

    /// Enable or disable buffering of probe-harvest / register-reset trace
    /// events; disabling drops what is buffered.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.trace_buf.clear();
        }
    }

    /// Move the buffered trace events into `out` (oldest first). The
    /// simulator drains after each egress call, so the buffer stays tiny.
    pub fn drain_trace(&mut self, out: &mut Vec<TraceEvent>) {
        out.append(&mut self.trace_buf);
    }

    /// Append an INT record to a probe frame and re-deparse it in place.
    fn augment_probe(&mut self, frame: &mut Frame, ctx: &EgressCtx) {
        let Ok(parsed) = frame.parsed() else { return };
        let Ok(mut probe) = parsed.probe_payload(&frame.bytes) else { return };

        let max_qlen = self.max_qlen.take(ctx.egress_port as usize);
        if self.tracing {
            // One event for the harvested sample, one for the
            // read-and-reset side effect the harvest performs.
            self.trace_buf.push(TraceEvent {
                at_ns: ctx.now_ns,
                kind: TraceKind::ProbeHarvest {
                    switch: self.cfg.switch_id,
                    port: ctx.egress_port,
                    max_qlen_pkts: max_qlen.min(u32::MAX as u64) as u32,
                },
            });
            self.trace_buf.push(TraceEvent {
                at_ns: ctx.now_ns,
                kind: TraceKind::RegisterReset {
                    switch: self.cfg.switch_id,
                    register: Self::REG_MAX_QLEN,
                    port: ctx.egress_port,
                },
            });
        }

        probe.int.push(IntRecord {
            switch_id: self.cfg.switch_id,
            ingress_port: frame.meta.ingress_port.unwrap_or(u16::MAX),
            egress_port: ctx.egress_port,
            max_qlen_pkts: max_qlen.min(u32::MAX as u64) as u32,
            qlen_at_probe_pkts: ctx.qdepth_at_deq_pkts,
            link_latency_ns: frame.meta.measured_link_latency_ns.unwrap_or(0),
            egress_ts_ns: ctx.now_ns,
        });

        // Re-deparse: same Ethernet + IP addressing/TTL/id, new payload.
        let (Some(ip), Some(udp)) = (parsed.ip, parsed.udp()) else { return };
        let payload = probe.to_bytes();
        frame.bytes = redeparse_udp(&parsed.eth, &ip, &udp, &payload);
        // The frame grew by one INT record; drop the memoized parse so the
        // next stage re-reads the rewritten headers.
        frame.invalidate_parse();
    }
}

/// Rebuild `eth/ip/udp/payload` preserving addressing, TTL, and IP id while
/// recomputing all length and checksum fields — what a P4 deparser does
/// after headers or payload were modified.
fn redeparse_udp(
    eth: &EthernetHeader,
    ip: &Ipv4Header,
    udp: &UdpHeader,
    payload: &[u8],
) -> BytesMut {
    let udp_new = UdpHeader::new(udp.src_port, udp.dst_port, payload.len());
    let mut ip_new = *ip;
    ip_new.total_len = (Ipv4Header::LEN + UdpHeader::LEN + payload.len()) as u16;

    let mut buf = BytesMut::with_capacity(
        EthernetHeader::LEN + Ipv4Header::LEN + UdpHeader::LEN + payload.len(),
    );
    eth.encode(&mut buf);
    ip_new.encode(&mut buf);
    udp_new.encode(&mut buf);
    buf.extend_from_slice(payload);
    debug_assert_eq!(
        internet_checksum(&buf[EthernetHeader::LEN..EthernetHeader::LEN + Ipv4Header::LEN]),
        0,
        "re-deparsed IP checksum must verify"
    );
    buf
}

impl DataPlaneProgram for IntTelemetryProgram {
    fn ingress(&mut self, frame: &mut Frame, ctx: &IngressCtx) -> IngressVerdict {
        let Ok(parsed) = frame.parsed() else {
            return IngressVerdict::Drop;
        };
        frame.meta.ingress_port = Some(ctx.ingress_port);

        // Probe packets: measure upstream link latency *before* queuing.
        if self.cfg.int_enabled && parsed.is_int_probe(&frame.bytes) {
            if let Ok(probe) = parsed.probe_payload(&frame.bytes) {
                let upstream = probe.upstream_egress_ts_ns();
                frame.meta.measured_link_latency_ns = Some(ctx.now_ns.saturating_sub(upstream));
            }
        }

        self.l3.forward(frame, &parsed)
    }

    fn on_enqueue(&mut self, _frame: &Frame, ctx: &EnqueueCtx) {
        if !self.cfg.int_enabled {
            return;
        }
        self.max_qlen.write_max(ctx.port as usize, ctx.qdepth_after_pkts as u64);
    }

    fn egress(&mut self, frame: &mut Frame, ctx: &EgressCtx) {
        if !self.cfg.int_enabled {
            return;
        }
        let is_probe = match frame.parsed() {
            Ok(p) => p.is_int_probe(&frame.bytes),
            Err(_) => false,
        };
        if is_probe {
            self.augment_probe(frame, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use int_packet::{PacketBuilder, ParsedPacket, ProbePayload, PROBE_UDP_PORT};

    fn probe_frame(origin: u32, sent_ts: u64) -> Frame {
        let probe = ProbePayload::new(origin, 1, sent_ts);
        let b = PacketBuilder::between(
            origin,
            Ipv4Addr::new(10, 0, 0, 1),
            6,
            Ipv4Addr::new(10, 0, 0, 6),
        )
        .udp_msg(40000, PROBE_UDP_PORT, &probe);
        Frame::new(b)
    }

    fn data_frame() -> Frame {
        let b = PacketBuilder::between(1, Ipv4Addr::new(10, 0, 0, 1), 6, Ipv4Addr::new(10, 0, 0, 6))
            .udp(5001, 5001, &[0u8; 1000]);
        Frame::new(b)
    }

    fn program(int_enabled: bool) -> IntTelemetryProgram {
        let mut p = IntTelemetryProgram::new(IntProgramConfig {
            switch_id: 42,
            num_ports: 4,
            int_enabled,
        });
        p.install_host_route(Ipv4Addr::new(10, 0, 0, 6), 2);
        p
    }

    fn run_through(p: &mut IntTelemetryProgram, frame: &mut Frame, now: u64, qdepth: u32) {
        let v = p.ingress(frame, &IngressCtx { now_ns: now, switch_id: 42, ingress_port: 0 });
        let IngressVerdict::Forward(port) = v else { panic!("expected forward, got {v:?}") };
        p.on_enqueue(frame, &EnqueueCtx { now_ns: now, port, qdepth_after_pkts: qdepth });
        p.egress(
            frame,
            &EgressCtx {
                now_ns: now + 1_000,
                switch_id: 42,
                egress_port: port,
                qdepth_at_deq_pkts: qdepth.saturating_sub(1),
            },
        );
    }

    #[test]
    fn regular_packets_are_untouched_but_observed() {
        let mut p = program(true);
        let mut f = data_frame();
        let original_len = f.wire_len();
        run_through(&mut p, &mut f, 1_000_000, 7);
        assert_eq!(f.wire_len(), original_len, "no INT padding on production traffic");
        assert_eq!(p.max_qlen.read(2), 7);
    }

    #[test]
    fn probe_harvests_and_resets_register() {
        let mut p = program(true);

        // Two data packets build up the register.
        let mut d1 = data_frame();
        run_through(&mut p, &mut d1, 1_000, 5);
        let mut d2 = data_frame();
        run_through(&mut p, &mut d2, 2_000, 12);

        // Probe sent at ts=0, arrives at ingress at now=10_000_000.
        let mut probe = probe_frame(3, 0);
        run_through(&mut p, &mut probe, 10_000_000, 13);

        let parsed = ParsedPacket::parse(&probe.bytes).unwrap();
        let payload = parsed.probe_payload(&probe.bytes).unwrap();
        assert_eq!(payload.int.hop_count(), 1);
        let rec = payload.int.records[0];
        assert_eq!(rec.switch_id, 42);
        // max over {5, 12, 13(the probe itself)} = 13
        assert_eq!(rec.max_qlen_pkts, 13);
        assert_eq!(rec.link_latency_ns, 10_000_000, "now - origin sent_ts");
        assert_eq!(rec.egress_ts_ns, 10_001_000);

        // Register was reset by the harvest.
        assert_eq!(p.max_qlen.read(2), 0);
    }

    #[test]
    fn second_switch_chains_link_latency_from_first() {
        let mut s1 = program(true);
        let mut s2 = IntTelemetryProgram::new(IntProgramConfig {
            switch_id: 43,
            num_ports: 4,
            int_enabled: true,
        });
        s2.install_host_route(Ipv4Addr::new(10, 0, 0, 6), 1);

        let mut probe = probe_frame(3, 0);
        run_through(&mut s1, &mut probe, 10_000_000, 1);
        probe.meta.clear_per_hop(); // leaving switch 1

        // Arrives at s2 after a 10 ms link.
        let egress_s1 = 10_001_000;
        let arrive_s2 = egress_s1 + 10_000_000;
        let v = s2.ingress(
            &mut probe,
            &IngressCtx { now_ns: arrive_s2, switch_id: 43, ingress_port: 3 },
        );
        let IngressVerdict::Forward(port) = v else { panic!() };
        s2.on_enqueue(&probe, &EnqueueCtx { now_ns: arrive_s2, port, qdepth_after_pkts: 1 });
        s2.egress(
            &mut probe,
            &EgressCtx {
                now_ns: arrive_s2 + 500,
                switch_id: 43,
                egress_port: port,
                qdepth_at_deq_pkts: 0,
            },
        );

        let parsed = ParsedPacket::parse(&probe.bytes).unwrap();
        let payload = parsed.probe_payload(&probe.bytes).unwrap();
        assert_eq!(payload.int.hop_count(), 2);
        let rec2 = payload.int.records[1];
        assert_eq!(rec2.switch_id, 43);
        assert_eq!(rec2.link_latency_ns, 10_000_000, "s1→s2 link latency measured exactly");
        assert_eq!(rec2.ingress_port, 3);
        let path: Vec<_> = payload.int.records.iter().map(|r| r.switch_id).collect();
        assert_eq!(path, vec![42, 43]);
    }

    #[test]
    fn int_disabled_forwards_probes_unaugmented() {
        let mut p = program(false);
        let mut probe = probe_frame(3, 0);
        let before_len = probe.wire_len();
        run_through(&mut p, &mut probe, 5_000_000, 9);
        assert_eq!(probe.wire_len(), before_len);
        let parsed = ParsedPacket::parse(&probe.bytes).unwrap();
        assert_eq!(parsed.probe_payload(&probe.bytes).unwrap().int.hop_count(), 0);
        assert_eq!(p.max_qlen.read(2), 0);
    }

    #[test]
    fn redeparsed_probe_has_valid_lengths() {
        let mut p = program(true);
        let mut probe = probe_frame(3, 0);
        run_through(&mut p, &mut probe, 1_000, 1);
        let parsed = ParsedPacket::parse(&probe.bytes).unwrap();
        let udp = parsed.udp().unwrap();
        assert_eq!(udp.payload_len(), parsed.payload(&probe.bytes).len());
        let ip = parsed.ip.unwrap();
        assert_eq!(ip.total_len as usize, probe.bytes.len() - EthernetHeader::LEN);
    }

    #[test]
    fn tracing_buffers_harvest_and_reset_events() {
        let mut p = program(true);
        p.set_tracing(true);

        let mut d = data_frame();
        run_through(&mut p, &mut d, 1_000, 5);
        let mut probe = probe_frame(3, 0);
        run_through(&mut p, &mut probe, 10_000_000, 6);

        let mut out = Vec::new();
        p.drain_trace(&mut out);
        assert_eq!(out.len(), 2, "one harvest + one reset per probe");
        assert!(matches!(
            out[0].kind,
            TraceKind::ProbeHarvest { switch: 42, port: 2, max_qlen_pkts: 6 }
        ));
        assert!(matches!(
            out[1].kind,
            TraceKind::RegisterReset { switch: 42, register: "max_qlen", port: 2 }
        ));

        // Drained: a second drain yields nothing; disabling clears.
        let mut again = Vec::new();
        p.drain_trace(&mut again);
        assert!(again.is_empty());
        p.set_tracing(false);
        let mut probe2 = probe_frame(3, 0);
        run_through(&mut p, &mut probe2, 20_000_000, 1);
        p.drain_trace(&mut again);
        assert!(again.is_empty(), "no buffering while tracing is off");
    }

    #[test]
    fn probe_grows_by_exactly_one_record_per_switch() {
        let mut p = program(true);
        let mut probe = probe_frame(3, 0);
        let len0 = probe.wire_len();
        run_through(&mut p, &mut probe, 1_000, 1);
        assert_eq!(probe.wire_len(), len0 + IntRecord::LEN);
    }
}
