//! The periodic INT probe sender (paper §III-A).
//!
//! Each edge server sends one probe per interval (100 ms by default) to the
//! scheduler. Switches en route harvest their registers into the probe.
//! Probing overhead matches the paper's arithmetic: at 10 probes/s a probe
//! stream stays a negligible fraction of a 20 Mbit/s network.

use int_netsim::{App, AppCtx, SimDuration};
use int_packet::wire::WireEncode;
use int_packet::{ProbePayload, PROBE_UDP_PORT};
use std::net::Ipv4Addr;

const TIMER_SEND: u64 = 1;

/// Periodically sends INT probes toward one or more collection points.
///
/// With a single target this is exactly the paper's design (server →
/// scheduler every 100 ms). With several targets (all-pairs mode) one
/// probe per target is emitted each interval, so every directed path out
/// of this node is refreshed at the probing frequency.
pub struct ProbeSenderApp {
    targets: Vec<Ipv4Addr>,
    interval: SimDuration,
    /// Probes per target per interval, each from a distinct UDP source
    /// port (`41000 + j`). Under flow-hash ECMP each source port hashes to
    /// a different equal-cost path, so one interval refreshes telemetry on
    /// up to `fan` distinct paths per target — the Paris-traceroute idiom.
    /// Default 1 = the paper's single-path probing.
    fan: u16,
    next_seq: u64,
    sent: u64,
}

impl ProbeSenderApp {
    /// The paper's default probing interval.
    pub const DEFAULT_INTERVAL: SimDuration = SimDuration::from_millis(100);

    /// Base UDP source port for probe emission; fanned probes use
    /// consecutive ports above it.
    pub const BASE_SRC_PORT: u16 = 41000;

    /// Probe `scheduler` every `interval` (the paper's scheme).
    pub fn new(scheduler: Ipv4Addr, interval: SimDuration) -> Self {
        Self::new_multi(vec![scheduler], interval)
    }

    /// Probe every target each `interval` (all-pairs mode).
    pub fn new_multi(targets: Vec<Ipv4Addr>, interval: SimDuration) -> Self {
        Self::new_fanned(targets, interval, 1)
    }

    /// Probe every target `fan` times each interval, varying the UDP
    /// source port per copy so flow-hash ECMP spreads the copies across
    /// equal-cost paths.
    pub fn new_fanned(targets: Vec<Ipv4Addr>, interval: SimDuration, fan: u16) -> Self {
        assert!(interval.as_nanos() > 0, "zero probing interval");
        assert!(!targets.is_empty(), "probe sender needs at least one target");
        assert!(fan >= 1, "probe fan must be at least 1");
        ProbeSenderApp { targets, interval, fan, next_seq: 0, sent: 0 }
    }

    /// Probes sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    fn send_probe(&mut self, ctx: &mut AppCtx<'_>) {
        for i in 0..self.targets.len() {
            for j in 0..self.fan {
                let probe = ProbePayload::new(ctx.node.0, self.next_seq, ctx.now.as_nanos());
                self.next_seq += 1;
                self.sent += 1;
                ctx.send_udp(
                    Self::BASE_SRC_PORT + j,
                    self.targets[i],
                    PROBE_UDP_PORT,
                    probe.to_bytes(),
                );
            }
        }
        ctx.set_timer(self.interval, TIMER_SEND);
    }
}

impl App for ProbeSenderApp {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        // Random phase within one interval: without it every node in the
        // network fires probes at the same instant and the synchronized
        // bursts queue up on the collector's access link, reading as
        // permanent (phantom) congestion.
        use rand::Rng;
        let phase = ctx.rng.gen_range(0..self.interval.as_nanos());
        ctx.set_timer(SimDuration::from_nanos(phase), TIMER_SEND);
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, timer_id: u64) {
        if timer_id == TIMER_SEND {
            self.send_probe(ctx);
        }
    }
}

/// Collects raw probes at an endpoint and keeps every decoded payload —
/// used by experiments that analyse the per-probe telemetry stream itself
/// (e.g. Fig. 3's average of per-interval max queue lengths) rather than
/// the scheduler's folded map.
#[derive(Default)]
pub struct ProbeCollectorApp {
    /// (receive time, payload) for every probe that arrived.
    pub probes: Vec<(SimTime, ProbePayload)>,
}

impl ProbeCollectorApp {
    /// New collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The max-queue-length values reported by switch `switch_id`, in
    /// arrival order.
    pub fn max_qlens_of(&self, switch_id: u32) -> Vec<u32> {
        self.probes
            .iter()
            .flat_map(|(_, p)| p.int.records.iter())
            .filter(|r| r.switch_id == switch_id)
            .map(|r| r.max_qlen_pkts)
            .collect()
    }
}

impl App for ProbeCollectorApp {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.bind_udp(PROBE_UDP_PORT);
    }

    fn on_udp(
        &mut self,
        ctx: &mut AppCtx<'_>,
        _from: Ipv4Addr,
        _from_port: u16,
        _to_port: u16,
        payload: &[u8],
    ) {
        use int_packet::wire::WireDecode;
        if let Ok(p) = ProbePayload::decode(&mut &payload[..]) {
            self.probes.push((ctx.now, p));
        }
    }
}

use int_netsim::SimTime;

/// Terminates probes on a non-scheduler node and relays them — wrapped
/// with this node's identity and receive timestamp — to the central
/// collector (all-pairs probing mode).
pub struct ProbeRelayApp {
    scheduler: Ipv4Addr,
    /// Probes relayed so far.
    pub relayed: u64,
}

impl ProbeRelayApp {
    /// Relay received probes to `scheduler`.
    pub fn new(scheduler: Ipv4Addr) -> Self {
        ProbeRelayApp { scheduler, relayed: 0 }
    }
}

impl App for ProbeRelayApp {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.bind_udp(PROBE_UDP_PORT);
    }

    fn on_udp(
        &mut self,
        ctx: &mut AppCtx<'_>,
        _from: Ipv4Addr,
        _from_port: u16,
        _to_port: u16,
        payload: &[u8],
    ) {
        use int_packet::wire::WireDecode;
        use int_packet::{RelayedProbe, PROBE_RELAY_UDP_PORT};
        let Ok(probe) = ProbePayload::decode(&mut &payload[..]) else { return };
        let relayed = RelayedProbe {
            terminal_node: ctx.node.0,
            rx_ts_ns: ctx.now.as_nanos(),
            probe,
        };
        self.relayed += 1;
        ctx.send_udp(41001, self.scheduler, PROBE_RELAY_UDP_PORT, relayed.to_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use int_netsim::{LinkParams, SimConfig, SimTime, Simulator, Topology};

    #[test]
    fn probes_sent_at_interval() {
        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let s1 = t.add_switch("s1");
        let h2 = t.add_host("h2");
        t.add_link(h1, s1, LinkParams::paper_default());
        t.add_link(s1, h2, LinkParams::paper_default());

        let mut sim = Simulator::new(t, SimConfig::default());
        let idx = sim.install_app(
            h1,
            Box::new(ProbeSenderApp::new(Topology::host_ip(h2), SimDuration::from_millis(100))),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let app = sim.app::<ProbeSenderApp>(h1, idx).unwrap();
        // One random phase delay, then every 100 ms: 10 or 11 sends.
        assert!((10..=11).contains(&app.sent()), "{}", app.sent());
    }

    #[test]
    #[should_panic(expected = "zero probing interval")]
    fn zero_interval_rejected() {
        ProbeSenderApp::new(Ipv4Addr::new(10, 0, 0, 1), SimDuration::ZERO);
    }

    /// Records the UDP source port of every probe that arrives.
    struct PortRecorder {
        ports: Vec<u16>,
    }

    impl App for PortRecorder {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.bind_udp(PROBE_UDP_PORT);
        }
        fn on_udp(
            &mut self,
            _ctx: &mut AppCtx<'_>,
            _from: Ipv4Addr,
            from_port: u16,
            _to_port: u16,
            _payload: &[u8],
        ) {
            self.ports.push(from_port);
        }
    }

    /// A fanned sender emits `fan` copies per target per interval, each
    /// from a consecutive source port above BASE_SRC_PORT — the knob
    /// flow-hash ECMP uses to spread copies over equal-cost paths.
    #[test]
    fn fanned_probes_use_distinct_source_ports() {
        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let s1 = t.add_switch("s1");
        let h2 = t.add_host("h2");
        t.add_link(h1, s1, LinkParams::paper_default());
        t.add_link(s1, h2, LinkParams::paper_default());

        let mut sim = Simulator::new(t, SimConfig::default());
        let idx = sim.install_app(
            h1,
            Box::new(ProbeSenderApp::new_fanned(
                vec![Topology::host_ip(h2)],
                SimDuration::from_millis(100),
                3,
            )),
        );
        let rec = sim.install_app(h2, Box::new(PortRecorder { ports: Vec::new() }));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));

        let sent = sim.app::<ProbeSenderApp>(h1, idx).unwrap().sent();
        assert!((30..=33).contains(&sent), "~10 rounds × fan 3: {sent}");
        let ports = &sim.app::<PortRecorder>(h2, rec).unwrap().ports;
        assert!(ports.len() >= 27, "{}", ports.len());
        let base = ProbeSenderApp::BASE_SRC_PORT;
        for j in 0..3u16 {
            assert!(ports.contains(&(base + j)), "missing fan port {}", base + j);
        }
        assert!(ports.iter().all(|p| (base..base + 3).contains(p)));
    }

    #[test]
    #[should_panic(expected = "probe fan must be at least 1")]
    fn zero_fan_rejected() {
        ProbeSenderApp::new_fanned(vec![Ipv4Addr::new(10, 0, 0, 1)], SimDuration::from_millis(100), 0);
    }
}

#[cfg(test)]
mod relay_tests {
    use super::*;
    use crate::scheduler::SchedulerApp;
    use int_core::rank::StaticDistances;
    use int_core::{CoreConfig, Policy};
    use int_netsim::{LinkParams, SimConfig, Simulator, Topology};

    /// All-pairs style: a probe from h1 terminates at h2, which relays it
    /// to the scheduler on h3; the scheduler's map must learn h1's path to
    /// h2 (not to itself).
    #[test]
    fn relayed_probes_teach_the_scheduler_foreign_paths() {
        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let s1 = t.add_switch("s1");
        let h2 = t.add_host("h2");
        let sched = t.add_host("sched");
        t.add_link(h1, s1, LinkParams::paper_default());
        t.add_link(h2, s1, LinkParams::paper_default());
        t.add_link(sched, s1, LinkParams::paper_default());

        let mut sim = Simulator::new(t, SimConfig::default());
        let sched_ip = Topology::host_ip(sched);
        sim.install_app(
            h1,
            Box::new(ProbeSenderApp::new(Topology::host_ip(h2), SimDuration::from_millis(100))),
        );
        let relay = sim.install_app(h2, Box::new(ProbeRelayApp::new(sched_ip)));
        let sapp = sim.install_app(
            sched,
            Box::new(SchedulerApp::new(
                sched.0,
                Policy::IntDelay,
                CoreConfig::default(),
                StaticDistances::new(),
                1,
            )),
        );
        // Run 1.2 s: the sender's random phase can push the 10th probe's
        // arrival past the 1 s mark, so leave headroom beyond 10 intervals.
        sim.run_until(int_netsim::SimTime::ZERO + SimDuration::from_millis(1200));

        assert!(sim.app::<ProbeRelayApp>(h2, relay).unwrap().relayed >= 10);
        let app = sim.app::<SchedulerApp>(sched, sapp).unwrap();
        assert!(app.probes_received() >= 10);
        let map = app.core().collector().map();
        // Edge h1 → s1 and s1 → h2 learned from the relayed path.
        use int_core::NetNode;
        assert!(map.edge(NetNode::Host(h1.0), NetNode::Switch(s1.0)).is_some());
        assert!(map.edge(NetNode::Switch(s1.0), NetNode::Host(h2.0)).is_some());
    }

    #[test]
    fn multi_target_sender_probes_every_target_each_interval() {
        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let s1 = t.add_switch("s1");
        let h2 = t.add_host("h2");
        let h3 = t.add_host("h3");
        t.add_link(h1, s1, LinkParams::paper_default());
        t.add_link(h2, s1, LinkParams::paper_default());
        t.add_link(h3, s1, LinkParams::paper_default());

        let mut sim = Simulator::new(t, SimConfig::default());
        let idx = sim.install_app(
            h1,
            Box::new(ProbeSenderApp::new_multi(
                vec![Topology::host_ip(h2), Topology::host_ip(h3)],
                SimDuration::from_millis(100),
            )),
        );
        let c2 = sim.install_app(h2, Box::new(ProbeCollectorApp::new()));
        let c3 = sim.install_app(h3, Box::new(ProbeCollectorApp::new()));
        sim.run_until(int_netsim::SimTime::ZERO + SimDuration::from_secs(1));

        let sent = sim.app::<ProbeSenderApp>(h1, idx).unwrap().sent();
        assert!((20..=22).contains(&sent), "~10 rounds × 2 targets: {sent}");
        // Both targets receive the same stream (minus any in flight).
        let got2 = sim.app::<ProbeCollectorApp>(h2, c2).unwrap().probes.len();
        let got3 = sim.app::<ProbeCollectorApp>(h3, c3).unwrap().probes.len();
        assert!(got2 >= 9 && got3 >= 9, "{got2} {got3}");
    }
}
