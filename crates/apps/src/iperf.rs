//! iperf-style constant-bit-rate UDP traffic generation — the paper's
//! background congestion source (§IV) and the load source for Fig. 3.
//!
//! Packets are emitted with exponentially distributed inter-arrival times
//! whose mean matches the configured rate (a Poisson packet process). This
//! reproduces the queueing behaviour the paper measured on its testbed:
//! below ~50 % utilization the bottleneck queue stays nearly empty, and it
//! grows sharply as utilization approaches 100 % (M/D/1 dynamics). A
//! `burst_pkts > 1` setting emits back-to-back packet trains instead, for
//! experiments that need heavier short-term burstiness.

use int_netsim::{App, AppCtx, SimDuration, SimTime};
use rand::Rng;
use std::net::Ipv4Addr;

/// The iperf UDP port (matches the real tool's default).
pub const IPERF_UDP_PORT: u16 = 5001;

const TIMER_START: u64 = 1;
const TIMER_SEND: u64 = 2;

/// Configuration of one CBR flow.
#[derive(Debug, Clone, Copy)]
pub struct IperfConfig {
    /// Destination host.
    pub dst: Ipv4Addr,
    /// Destination port.
    pub dst_port: u16,
    /// Offered rate, bit/s.
    pub rate_bps: u64,
    /// Absolute start time.
    pub start: SimTime,
    /// How long to transmit.
    pub duration: SimDuration,
    /// UDP payload bytes per packet (1472 ≈ a full 1.5 KB frame).
    pub payload_len: usize,
    /// Packets per emission (1 = pure Poisson process).
    pub burst_pkts: u32,
}

impl IperfConfig {
    /// A flow with the paper's packet size and Poisson emission.
    pub fn new(dst: Ipv4Addr, rate_bps: u64, start: SimTime, duration: SimDuration) -> Self {
        IperfConfig {
            dst,
            dst_port: IPERF_UDP_PORT,
            rate_bps,
            start,
            duration,
            payload_len: 1472,
            burst_pkts: 1,
        }
    }
}

/// One CBR sender flow.
pub struct IperfSenderApp {
    cfg: IperfConfig,
    end: SimTime,
    /// Packets sent.
    pub packets_sent: u64,
    /// Bytes of payload sent.
    pub bytes_sent: u64,
}

impl IperfSenderApp {
    /// Build the sender.
    pub fn new(cfg: IperfConfig) -> Self {
        assert!(cfg.rate_bps > 0, "zero-rate iperf flow");
        assert!(cfg.payload_len > 0 && cfg.burst_pkts > 0);
        IperfSenderApp { cfg, end: cfg.start + cfg.duration, packets_sent: 0, bytes_sent: 0 }
    }

    /// Mean gap between emissions (bursts) at the configured rate.
    fn mean_gap(&self) -> f64 {
        let bits_per_emission = (self.cfg.payload_len as u64 * 8 * self.cfg.burst_pkts as u64) as f64;
        bits_per_emission / self.cfg.rate_bps as f64 * 1e9
    }

    fn schedule_next(&self, ctx: &mut AppCtx<'_>) {
        // Exponential inter-arrival: -ln(U) · mean.
        let u: f64 = ctx.rng.gen_range(1e-12..1.0);
        let gap_ns = (-u.ln() * self.mean_gap()).round().max(1.0) as u64;
        ctx.set_timer(SimDuration::from_nanos(gap_ns), TIMER_SEND);
    }

    fn emit(&mut self, ctx: &mut AppCtx<'_>) {
        for _ in 0..self.cfg.burst_pkts {
            ctx.send_udp(IPERF_UDP_PORT, self.cfg.dst, self.cfg.dst_port, vec![0u8; self.cfg.payload_len]);
            self.packets_sent += 1;
            self.bytes_sent += self.cfg.payload_len as u64;
        }
    }
}

impl App for IperfSenderApp {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        let delay = self.cfg.start.since(ctx.now);
        ctx.set_timer(delay, TIMER_START);
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, timer_id: u64) {
        match timer_id {
            TIMER_START => {
                self.emit(ctx);
                self.schedule_next(ctx);
            }
            TIMER_SEND if ctx.now < self.end => {
                self.emit(ctx);
                self.schedule_next(ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::UdpSinkApp;
    use int_netsim::{LinkParams, SimConfig, Simulator, Topology};

    fn line() -> (Topology, int_netsim::NodeId, int_netsim::NodeId) {
        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let s1 = t.add_switch("s1");
        let h2 = t.add_host("h2");
        // Fast links, 20 Mbit/s switch ceiling (the paper's regime).
        let fast = LinkParams {
            bandwidth_bps: 1_000_000_000,
            delay: SimDuration::from_millis(10),
            queue_cap_pkts: 256,
        };
        t.add_link(h1, s1, fast);
        t.add_link(s1, h2, fast);
        (t, h1, h2)
    }

    #[test]
    fn rate_is_respected_within_tolerance() {
        let (t, h1, h2) = line();
        let mut sim = Simulator::new(t, SimConfig::default());
        let rate = 10_000_000; // 50% of the 20 Mbit/s ceiling
        sim.install_app(
            h1,
            Box::new(IperfSenderApp::new(IperfConfig::new(
                Topology::host_ip(h2),
                rate,
                SimTime::ZERO,
                SimDuration::from_secs(30),
            ))),
        );
        let sink = sim.install_app(h2, Box::new(UdpSinkApp::new(IPERF_UDP_PORT)));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(31));

        let got = sim.app::<UdpSinkApp>(h2, sink).unwrap();
        let achieved_bps = got.bytes * 8 / 30;
        let err = (achieved_bps as f64 - rate as f64).abs() / rate as f64;
        assert!(err < 0.05, "offered {rate}, achieved {achieved_bps}");
    }

    #[test]
    fn queue_grows_with_utilization() {
        let max_q = |rate: u64| {
            let (t, h1, h2) = line();
            let s1 = t.node(h1).ports[0].peer;
            let mut sim = Simulator::new(t, SimConfig::default());
            sim.install_app(
                h1,
                Box::new(IperfSenderApp::new(IperfConfig::new(
                    Topology::host_ip(h2),
                    rate,
                    SimTime::ZERO,
                    SimDuration::from_secs(60),
                ))),
            );
            sim.install_app(h2, Box::new(UdpSinkApp::new(IPERF_UDP_PORT)));
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
            // Ground-truth max depth of s1's egress queue toward h2 (port 1).
            sim.queue_stats(s1, 1).max_depth_pkts
        };

        let q30 = max_q(6_000_000); // 30%
        let q95 = max_q(19_000_000); // 95%
        assert!(q30 <= 6, "low utilization keeps the queue short: {q30}");
        assert!(q95 >= 15, "near saturation the queue builds: {q95}");
        assert!(q95 > q30);
    }

    #[test]
    fn flow_stops_at_duration_end() {
        let (t, h1, h2) = line();
        let mut sim = Simulator::new(t, SimConfig::default());
        let idx = sim.install_app(
            h1,
            Box::new(IperfSenderApp::new(IperfConfig::new(
                Topology::host_ip(h2),
                10_000_000,
                SimTime::ZERO + SimDuration::from_secs(5),
                SimDuration::from_secs(5),
            ))),
        );
        sim.install_app(h2, Box::new(UdpSinkApp::new(IPERF_UDP_PORT)));

        sim.run_until(SimTime::ZERO + SimDuration::from_secs(4));
        assert_eq!(sim.app::<IperfSenderApp>(h1, idx).unwrap().packets_sent, 0, "not started yet");

        sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let at_end = sim.app::<IperfSenderApp>(h1, idx).unwrap().packets_sent;
        assert!(at_end > 0);

        sim.run_until(SimTime::ZERO + SimDuration::from_secs(20));
        let later = sim.app::<IperfSenderApp>(h1, idx).unwrap().packets_sent;
        assert_eq!(later, at_end, "no packets after the flow ended");
    }
}

#[cfg(test)]
mod burst_tests {
    use super::*;
    use crate::sink::UdpSinkApp;
    use int_netsim::{LinkParams, SimConfig, Simulator, Topology};

    #[test]
    fn burst_mode_builds_deeper_queues_than_poisson() {
        let max_q = |burst_pkts: u32| {
            let mut t = Topology::new();
            let h1 = t.add_host("h1");
            let s1 = t.add_switch("s1");
            let h2 = t.add_host("h2");
            let fast = LinkParams {
                bandwidth_bps: 1_000_000_000,
                delay: SimDuration::from_millis(10),
                queue_cap_pkts: 512,
            };
            t.add_link(h1, s1, fast);
            t.add_link(s1, h2, fast);
            let s1_id = s1;
            let mut sim = Simulator::new(t, SimConfig::default());
            let mut cfg = IperfConfig::new(
                Topology::host_ip(h2),
                10_000_000,
                SimTime::ZERO,
                SimDuration::from_secs(20),
            );
            cfg.burst_pkts = burst_pkts;
            sim.install_app(h1, Box::new(IperfSenderApp::new(cfg)));
            sim.install_app(h2, Box::new(UdpSinkApp::new(IPERF_UDP_PORT)));
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(20));
            sim.queue_stats(s1_id, 1).max_depth_pkts
        };
        let poisson = max_q(1);
        let bursty = max_q(32);
        assert!(
            bursty >= poisson + 10,
            "32-packet trains queue deeper: poisson {poisson}, bursty {bursty}"
        );
    }

    #[test]
    #[should_panic(expected = "zero-rate")]
    fn zero_rate_rejected() {
        let mut cfg = IperfConfig::new(
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            1,
            SimTime::ZERO,
            SimDuration::from_secs(1),
        );
        cfg.rate_bps = 0;
        IperfSenderApp::new(cfg);
    }
}
