//! Traffic accounting: classify every frame a simulation delivers and
//! report byte/packet shares per traffic class.
//!
//! Used by the overhead experiment (the paper quantifies probing overhead
//! at 120 kbit/s ≈ 1.1 % of a 10 Mbit/s network, §III-A) and generally
//! useful when debugging who is filling a queue.

use int_packet::{L4View, ParsedPacket, PROBE_RELAY_UDP_PORT, PROBE_UDP_PORT, SCHEDULER_UDP_PORT, SCHED_CLIENT_UDP_PORT, TASK_UDP_PORT, ECHO_UDP_PORT};
use serde::Serialize;

/// Traffic classes the accountant distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum TrafficClass {
    /// INT probe packets (direct or relayed).
    Probe,
    /// Scheduler queries/responses and completion callbacks.
    Control,
    /// Task data over TCP.
    TaskData,
    /// Echo request/reply (ping).
    Ping,
    /// Everything else over UDP (iperf background and unknown).
    Background,
    /// Non-IP or unparsable frames.
    Other,
}

impl TrafficClass {
    /// Classify a raw frame.
    pub fn of(frame: &[u8]) -> TrafficClass {
        let Ok(parsed) = ParsedPacket::parse(frame) else {
            return TrafficClass::Other;
        };
        TrafficClass::of_parsed(&parsed)
    }

    /// Classify an already-parsed frame (lets the engine reuse its cached
    /// parse instead of re-walking the headers).
    pub fn of_parsed(parsed: &ParsedPacket) -> TrafficClass {
        match parsed.l4 {
            Some(L4View::Tcp(t)) => {
                if t.dst_port == TASK_UDP_PORT || t.src_port == TASK_UDP_PORT {
                    TrafficClass::TaskData
                } else if t.dst_port == SCHEDULER_UDP_PORT
                    || t.src_port == SCHEDULER_UDP_PORT
                    || t.dst_port == SCHED_CLIENT_UDP_PORT
                    || t.src_port == SCHED_CLIENT_UDP_PORT
                {
                    // Scheduler/control traffic carried over TCP counts as
                    // Control just like its UDP form; without this it fell
                    // through to Other and skewed the overhead shares.
                    TrafficClass::Control
                } else {
                    TrafficClass::Other
                }
            }
            Some(L4View::Udp(u)) => match u.dst_port {
                PROBE_UDP_PORT | PROBE_RELAY_UDP_PORT => TrafficClass::Probe,
                SCHEDULER_UDP_PORT | SCHED_CLIENT_UDP_PORT | TASK_UDP_PORT => {
                    TrafficClass::Control
                }
                ECHO_UDP_PORT => TrafficClass::Ping,
                // Ping replies: identified by source port only (the prior
                // arm already matched every dst_port == ECHO_UDP_PORT).
                _ if u.src_port == ECHO_UDP_PORT => TrafficClass::Ping,
                _ => TrafficClass::Background,
            },
            None => TrafficClass::Other,
        }
    }
}

/// Per-class byte and packet counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ClassCounters {
    /// Frames counted.
    pub packets: u64,
    /// Wire bytes counted.
    pub bytes: u64,
}

/// Accumulates per-class traffic over a simulation.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TrafficAccountant {
    counters: std::collections::BTreeMap<TrafficClass, ClassCounters>,
}

impl TrafficAccountant {
    /// Empty accountant.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one frame.
    pub fn record(&mut self, frame: &[u8]) {
        self.record_classified(TrafficClass::of(frame), frame.len());
    }

    /// Count one frame whose class is already known (cached-parse path).
    pub fn record_classified(&mut self, class: TrafficClass, wire_len: usize) {
        let c = self.counters.entry(class).or_default();
        c.packets += 1;
        c.bytes += wire_len as u64;
    }

    /// Counters of one class.
    pub fn class(&self, class: TrafficClass) -> ClassCounters {
        self.counters.get(&class).copied().unwrap_or_default()
    }

    /// Total bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.counters.values().map(|c| c.bytes).sum()
    }

    /// Byte share of a class in `[0, 1]`.
    pub fn share(&self, class: TrafficClass) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            return 0.0;
        }
        self.class(class).bytes as f64 / total as f64
    }

    /// All classes with data, deterministic order.
    pub fn classes(&self) -> impl Iterator<Item = (TrafficClass, ClassCounters)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use int_packet::{PacketBuilder, ProbePayload, TcpFlags, TcpHeader};
    use std::net::Ipv4Addr;

    fn builder() -> PacketBuilder {
        PacketBuilder::between(1, Ipv4Addr::new(10, 0, 0, 1), 2, Ipv4Addr::new(10, 0, 0, 2))
    }

    #[test]
    fn classifies_probe_and_background() {
        let probe = builder().udp_msg(41000, PROBE_UDP_PORT, &ProbePayload::new(1, 0, 0));
        assert_eq!(TrafficClass::of(&probe), TrafficClass::Probe);
        let iperf = builder().udp(5001, 5001, &[0u8; 100]);
        assert_eq!(TrafficClass::of(&iperf), TrafficClass::Background);
    }

    #[test]
    fn classifies_task_tcp_both_directions() {
        let hdr = TcpHeader {
            src_port: 40000,
            dst_port: TASK_UDP_PORT,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 100,
        };
        assert_eq!(TrafficClass::of(&builder().tcp(hdr, &[0; 10])), TrafficClass::TaskData);
        let back = TcpHeader { src_port: TASK_UDP_PORT, dst_port: 40000, ..hdr };
        assert_eq!(TrafficClass::of(&builder().tcp(back, &[])), TrafficClass::TaskData);
    }

    #[test]
    fn classifies_control_and_ping() {
        let ctl = builder().udp(7002, SCHEDULER_UDP_PORT, &[1, 2, 3]);
        assert_eq!(TrafficClass::of(&ctl), TrafficClass::Control);
        let ping = builder().udp(42000, ECHO_UDP_PORT, &[0; 17]);
        assert_eq!(TrafficClass::of(&ping), TrafficClass::Ping);
        let pong = builder().udp(ECHO_UDP_PORT, 42000, &[0; 17]);
        assert_eq!(TrafficClass::of(&pong), TrafficClass::Ping);
    }

    /// Regression (ISSUE 3): a ping *reply* is recognized by its source
    /// port alone — dst is the requester's ephemeral port — and an
    /// unrelated datagram whose ports are both ephemeral stays Background.
    #[test]
    fn ping_reply_classified_by_src_port_only() {
        let reply = builder().udp(ECHO_UDP_PORT, 51123, &[0; 17]);
        assert_eq!(TrafficClass::of(&reply), TrafficClass::Ping);
        let unrelated = builder().udp(51123, 51124, &[0; 17]);
        assert_eq!(TrafficClass::of(&unrelated), TrafficClass::Background);
    }

    /// Regression (ISSUE 3): scheduler/control ports over TCP are Control,
    /// in both directions, not Other.
    #[test]
    fn tcp_on_control_ports_is_control() {
        let hdr = TcpHeader {
            src_port: 40000,
            dst_port: SCHEDULER_UDP_PORT,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 100,
        };
        assert_eq!(TrafficClass::of(&builder().tcp(hdr, &[1])), TrafficClass::Control);
        let from_sched = TcpHeader { src_port: SCHEDULER_UDP_PORT, dst_port: 40000, ..hdr };
        assert_eq!(TrafficClass::of(&builder().tcp(from_sched, &[])), TrafficClass::Control);
        let client = TcpHeader { src_port: 40000, dst_port: SCHED_CLIENT_UDP_PORT, ..hdr };
        assert_eq!(TrafficClass::of(&builder().tcp(client, &[])), TrafficClass::Control);
        let other = TcpHeader { src_port: 40000, dst_port: 40001, ..hdr };
        assert_eq!(TrafficClass::of(&builder().tcp(other, &[])), TrafficClass::Other);
    }

    #[test]
    fn garbage_is_other() {
        assert_eq!(TrafficClass::of(b"nonsense"), TrafficClass::Other);
    }

    #[test]
    fn accountant_shares_sum_to_one() {
        let mut acc = TrafficAccountant::new();
        acc.record(&builder().udp(5001, 5001, &[0u8; 1400]));
        acc.record(&builder().udp_msg(41000, PROBE_UDP_PORT, &ProbePayload::new(1, 0, 0)));
        acc.record(&builder().udp(42000, ECHO_UDP_PORT, &[0; 17]));

        let total_share: f64 = [
            TrafficClass::Probe,
            TrafficClass::Control,
            TrafficClass::TaskData,
            TrafficClass::Ping,
            TrafficClass::Background,
            TrafficClass::Other,
        ]
        .iter()
        .map(|&c| acc.share(c))
        .sum();
        assert!((total_share - 1.0).abs() < 1e-12);
        assert!(acc.share(TrafficClass::Background) > acc.share(TrafficClass::Probe));
        assert_eq!(acc.class(TrafficClass::Ping).packets, 1);
    }

    #[test]
    fn empty_accountant_is_zero() {
        let acc = TrafficAccountant::new();
        assert_eq!(acc.total_bytes(), 0);
        assert_eq!(acc.share(TrafficClass::Probe), 0.0);
        assert_eq!(acc.classes().count(), 0);
    }
}
