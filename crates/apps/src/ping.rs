//! Ping: periodic RTT measurement (the paper's Fig. 3 delay ground truth,
//! run at one-second intervals). Implemented as a UDP echo pair.

use int_netsim::{App, AppCtx, SimDuration, SimTime};
use int_packet::msgs::ControlMsg;
use int_packet::wire::{WireDecode, WireEncode};
use int_packet::ECHO_UDP_PORT;
use std::net::Ipv4Addr;

const TIMER_SEND: u64 = 1;
const PING_SRC_PORT: u16 = 42000;

/// Periodic echo requester recording RTT samples.
pub struct PingApp {
    dst: Ipv4Addr,
    interval: SimDuration,
    next_seq: u64,
    /// (send time, RTT) samples for completed echos.
    pub rtts: Vec<(SimTime, SimDuration)>,
    /// Requests sent.
    pub sent: u64,
}

impl PingApp {
    /// Ping `dst` every `interval` (the paper uses one second).
    pub fn new(dst: Ipv4Addr, interval: SimDuration) -> Self {
        assert!(interval.as_nanos() > 0);
        PingApp { dst, interval, next_seq: 0, rtts: Vec::new(), sent: 0 }
    }

    /// Mean RTT over all samples, ms (None before the first reply).
    pub fn mean_rtt_ms(&self) -> Option<f64> {
        if self.rtts.is_empty() {
            return None;
        }
        let sum: f64 = self.rtts.iter().map(|(_, d)| d.as_millis_f64()).sum();
        Some(sum / self.rtts.len() as f64)
    }

    /// Fraction of requests answered so far.
    pub fn reply_rate(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        self.rtts.len() as f64 / self.sent as f64
    }

    fn send_ping(&mut self, ctx: &mut AppCtx<'_>) {
        let msg = ControlMsg::EchoRequest { seq: self.next_seq, ts_ns: ctx.now.as_nanos() };
        self.next_seq += 1;
        self.sent += 1;
        ctx.send_udp(PING_SRC_PORT, self.dst, ECHO_UDP_PORT, msg.to_bytes());
        ctx.set_timer(self.interval, TIMER_SEND);
    }
}

impl App for PingApp {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.bind_udp(PING_SRC_PORT);
        self.send_ping(ctx);
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, timer_id: u64) {
        if timer_id == TIMER_SEND {
            self.send_ping(ctx);
        }
    }

    fn on_udp(
        &mut self,
        ctx: &mut AppCtx<'_>,
        _from: Ipv4Addr,
        _from_port: u16,
        _to_port: u16,
        payload: &[u8],
    ) {
        if let Ok(ControlMsg::EchoReply { ts_ns, .. }) = ControlMsg::decode(&mut &payload[..]) {
            let rtt = ctx.now.since(SimTime(ts_ns));
            self.rtts.push((SimTime(ts_ns), rtt));
        }
    }
}

/// Replies to echo requests on the well-known echo port.
#[derive(Default)]
pub struct EchoResponderApp {
    /// Requests answered.
    pub replies: u64,
}

impl EchoResponderApp {
    /// New responder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl App for EchoResponderApp {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.bind_udp(ECHO_UDP_PORT);
    }

    fn on_udp(
        &mut self,
        ctx: &mut AppCtx<'_>,
        from: Ipv4Addr,
        from_port: u16,
        _to_port: u16,
        payload: &[u8],
    ) {
        if let Ok(ControlMsg::EchoRequest { seq, ts_ns }) = ControlMsg::decode(&mut &payload[..]) {
            self.replies += 1;
            let reply = ControlMsg::EchoReply { seq, ts_ns };
            ctx.send_udp(ECHO_UDP_PORT, from, from_port, reply.to_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use int_netsim::{LinkParams, SimConfig, Simulator, Topology};

    #[test]
    fn rtt_matches_path_delay_on_idle_network() {
        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let s1 = t.add_switch("s1");
        let h2 = t.add_host("h2");
        t.add_link(h1, s1, LinkParams::paper_default());
        t.add_link(s1, h2, LinkParams::paper_default());

        let mut sim = Simulator::new(t, SimConfig::default());
        let ping = sim.install_app(
            h1,
            Box::new(PingApp::new(Topology::host_ip(h2), SimDuration::from_secs(1))),
        );
        sim.install_app(h2, Box::new(EchoResponderApp::new()));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));

        let app = sim.app::<PingApp>(h1, ping).unwrap();
        assert!(app.sent >= 10);
        assert!(app.reply_rate() > 0.9, "idle network answers pings: {}", app.reply_rate());
        let mean = app.mean_rtt_ms().unwrap();
        // 4 × 10 ms links + 4 small serializations ≈ just above 40 ms.
        assert!((40.0..42.0).contains(&mean), "idle RTT ≈ 40 ms, got {mean}");
    }
}
