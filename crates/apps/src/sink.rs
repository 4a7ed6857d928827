//! A counting UDP sink (the iperf server side).

use int_netsim::{App, AppCtx};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Binds a UDP port and counts what arrives, per source.
pub struct UdpSinkApp {
    port: u16,
    /// Total bytes of UDP payload received.
    pub bytes: u64,
    /// Total datagrams received.
    pub packets: u64,
    /// Per-source byte counts.
    pub by_source: BTreeMap<Ipv4Addr, u64>,
}

impl UdpSinkApp {
    /// Sink on `port`.
    pub fn new(port: u16) -> Self {
        UdpSinkApp { port, bytes: 0, packets: 0, by_source: BTreeMap::new() }
    }
}

impl App for UdpSinkApp {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.bind_udp(self.port);
    }

    fn on_udp(
        &mut self,
        _ctx: &mut AppCtx<'_>,
        from: Ipv4Addr,
        _from_port: u16,
        _to_port: u16,
        payload: &[u8],
    ) {
        self.bytes += payload.len() as u64;
        self.packets += 1;
        *self.by_source.entry(from).or_insert(0) += payload.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use int_netsim::{LinkParams, SimConfig, SimDuration, SimTime, Simulator, Topology};

    /// Two senders into one sink: counters split per source.
    #[test]
    fn sink_accounts_per_source() {
        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let h2 = t.add_host("h2");
        let s = t.add_switch("s");
        let h3 = t.add_host("h3");
        t.add_link(h1, s, LinkParams::paper_default());
        t.add_link(h2, s, LinkParams::paper_default());
        t.add_link(h3, s, LinkParams::paper_default());

        struct OneShot {
            dst: std::net::Ipv4Addr,
            len: usize,
        }
        impl int_netsim::App for OneShot {
            fn on_start(&mut self, ctx: &mut int_netsim::AppCtx<'_>) {
                ctx.send_udp(9000, self.dst, 9001, vec![0u8; self.len]);
            }
        }

        let mut sim = Simulator::new(t, SimConfig::default());
        let dst = Topology::host_ip(h3);
        sim.install_app(h1, Box::new(OneShot { dst, len: 100 }));
        sim.install_app(h2, Box::new(OneShot { dst, len: 200 }));
        let sink = sim.install_app(h3, Box::new(UdpSinkApp::new(9001)));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));

        let app = sim.app::<UdpSinkApp>(h3, sink).unwrap();
        assert_eq!(app.packets, 2);
        assert_eq!(app.bytes, 300);
        assert_eq!(app.by_source[&Topology::host_ip(h1)], 100);
        assert_eq!(app.by_source[&Topology::host_ip(h2)], 200);
    }
}
