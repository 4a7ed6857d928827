//! Simulator-engine throughput: event queue operations, packets simulated
//! per second, and TCP transfer wall-clock cost.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use int_apps::iperf::{IperfConfig, IperfSenderApp, IPERF_UDP_PORT};
use int_apps::UdpSinkApp;
use int_netsim::{
    Event, EventQueue, LinkParams, NodeId, SimConfig, SimDuration, SimTime, Simulator, Topology,
};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.push(
                    SimTime(i * 37 % 1000),
                    Event::AppTimer { node: NodeId(0), app_idx: 0, timer_id: i },
                );
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
}

fn bench_event_queue_far(c: &mut Criterion) {
    // Same push/pop churn with times spread across 10 simulated seconds:
    // most pushes land past the wheel's ~4.29 s L1 horizon and transit the
    // overflow heap, then promote level by level on the way out.
    c.bench_function("event_queue/push_pop_far_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.push(
                    SimTime((i * 37 % 1000) * 10_000_000),
                    Event::AppTimer { node: NodeId(0), app_idx: 0, timer_id: i },
                );
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
}

fn line_topo() -> (Topology, NodeId, NodeId) {
    let mut t = Topology::new();
    let h1 = t.add_host("h1");
    let s1 = t.add_switch("s1");
    let h2 = t.add_host("h2");
    let fast = LinkParams {
        bandwidth_bps: 1_000_000_000,
        delay: SimDuration::from_millis(10),
        queue_cap_pkts: 256,
    };
    t.add_link(h1, s1, fast);
    t.add_link(s1, h2, fast);
    (t, h1, h2)
}

fn bench_packet_throughput(c: &mut Criterion) {
    // Simulate 5 seconds of a near-saturating CBR flow through one switch
    // and report simulated-packet throughput.
    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);
    // ~19 Mbit/s of 1472 B payloads ≈ 1600 pkt/s × 5 s ≈ 8000 packets.
    g.throughput(Throughput::Elements(8000));
    g.bench_function("cbr_5s_one_switch", |b| {
        b.iter(|| {
            let (t, h1, h2) = line_topo();
            let mut sim = Simulator::new(t, SimConfig::default());
            sim.install_app(
                h1,
                Box::new(IperfSenderApp::new(IperfConfig::new(
                    Topology::host_ip(h2),
                    19_000_000,
                    SimTime::ZERO,
                    SimDuration::from_secs(5),
                ))),
            );
            sim.install_app(h2, Box::new(UdpSinkApp::new(IPERF_UDP_PORT)));
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
            black_box(sim.stats().frames_delivered)
        })
    });
    g.finish();
}

fn bench_packet_throughput_observed(c: &mut Criterion) {
    // Same workload as `cbr_5s_one_switch`, with every observability
    // sink lit (metrics registry, trace ring, data-plane tracing).
    // Compare against the plain variant to price the instrumentation;
    // the *disabled* registry (the default everywhere else) must stay
    // within ~2% of the plain variant — it costs one branch per record
    // site.
    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(8000));
    g.bench_function("cbr_5s_one_switch_obs_on", |b| {
        b.iter(|| {
            let (t, h1, h2) = line_topo();
            let mut sim = Simulator::new(t, SimConfig::default());
            sim.set_metrics_enabled(true);
            sim.set_tracing(true);
            sim.install_app(
                h1,
                Box::new(IperfSenderApp::new(IperfConfig::new(
                    Topology::host_ip(h2),
                    19_000_000,
                    SimTime::ZERO,
                    SimDuration::from_secs(5),
                ))),
            );
            sim.install_app(h2, Box::new(UdpSinkApp::new(IPERF_UDP_PORT)));
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
            black_box(sim.trace_ring().seen());
            black_box(sim.stats().frames_delivered)
        })
    });
    g.finish();
}

fn bench_timer_heavy(c: &mut Criterion) {
    use int_netsim::{App, AppCtx};
    use std::any::Any;

    // Periods from 5 ms to 8 s: the long ones park past the wheel's L1
    // horizon (~4.29 s) and exercise overflow promotion; each timer
    // rearms on fire, so every wheel level churns for the whole run.
    const PERIODS_MS: [u64; 8] = [5, 10, 25, 100, 250, 1_000, 5_000, 8_000];

    /// Battery of 16 rearming timers (each period, plus each period ×3).
    struct TimerStorm;
    impl App for TimerStorm {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            for (id, &ms) in PERIODS_MS.iter().enumerate() {
                ctx.set_timer(SimDuration::from_millis(ms), id as u64);
                ctx.set_timer(SimDuration::from_millis(ms * 3), (id + PERIODS_MS.len()) as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut AppCtx<'_>, id: u64) {
            let base = PERIODS_MS[id as usize % PERIODS_MS.len()];
            let ms = if id as usize >= PERIODS_MS.len() { base * 3 } else { base };
            ctx.set_timer(SimDuration::from_millis(ms), id);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    let build = || {
        let mut t = Topology::new();
        let s1 = t.add_switch("s1");
        let fast = LinkParams {
            bandwidth_bps: 1_000_000_000,
            delay: SimDuration::from_millis(10),
            queue_cap_pkts: 256,
        };
        let hosts: Vec<NodeId> = (0..4)
            .map(|i| {
                let h = t.add_host(Box::leak(format!("h{i}").into_boxed_str()));
                t.add_link(h, s1, fast);
                h
            })
            .collect();
        let mut sim = Simulator::new(t, SimConfig::default());
        // Timer batteries on every host, plus a steady 2 Mbit/s flow so
        // packet events interleave with the timer churn.
        for &h in &hosts {
            sim.install_app(h, Box::new(TimerStorm));
        }
        sim.install_app(
            hosts[0],
            Box::new(IperfSenderApp::new(IperfConfig::new(
                Topology::host_ip(hosts[1]),
                2_000_000,
                SimTime::ZERO,
                SimDuration::from_secs(20),
            ))),
        );
        sim.install_app(hosts[1], Box::new(UdpSinkApp::new(IPERF_UDP_PORT)));
        sim
    };

    // The sim is deterministic: one throwaway run prices the workload.
    let events = {
        let mut sim = build();
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(20));
        sim.stats().events_processed
    };

    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(events));
    g.bench_function("timer_heavy_20s", |b| {
        b.iter(|| {
            let mut sim = build();
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(20));
            black_box(sim.stats().events_processed)
        })
    });
    g.finish();
}

fn bench_tcp_transfer(c: &mut Criterion) {
    use int_netsim::{App, AppCtx, TcpEvent};
    use std::any::Any;
    use std::net::Ipv4Addr;

    struct Client {
        dst: Ipv4Addr,
        len: usize,
    }
    impl App for Client {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            let conn = ctx.tcp_connect(self.dst, 7100);
            ctx.tcp_send(conn, vec![0u8; self.len]);
            ctx.tcp_close(conn);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    #[derive(Default)]
    struct Server {
        bytes: usize,
    }
    impl App for Server {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.tcp_listen(7100);
        }
        fn on_tcp(&mut self, _c: &mut AppCtx<'_>, ev: TcpEvent) {
            if let TcpEvent::Data { data, .. } = ev {
                self.bytes += data.len();
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    let mut g = c.benchmark_group("tcp_transfer");
    g.sample_size(10);
    let len = 1_000_000usize;
    g.throughput(Throughput::Bytes(len as u64));
    g.bench_function("1MB_through_switch", |b| {
        b.iter(|| {
            let (t, h1, h2) = line_topo();
            let mut sim = Simulator::new(t, SimConfig::default());
            sim.install_app(h1, Box::new(Client { dst: Topology::host_ip(h2), len }));
            let srv = sim.install_app(h2, Box::new(Server::default()));
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
            let got = sim.app::<Server>(h2, srv).unwrap().bytes;
            assert_eq!(got, len);
            black_box(got)
        })
    });
    g.finish();
}

/// Fabric control-plane build cost: generate a quarter-scale datacenter
/// Clos (128 switches, 240 hosts), then stand up the simulator — all-pairs
/// Dijkstra, per-switch LPM route install (240 host routes × 128 tables,
/// ECMP groups interned), and the per-host multipath uplink memo. This is
/// the fixed cost every fabric experiment cell pays before the first
/// event fires.
fn bench_fabric_build(c: &mut Criterion) {
    use int_netsim::ClosParams;
    let mut g = c.benchmark_group("fabric_build");
    g.sample_size(10);
    let params = ClosParams::datacenter().scaled(0.25);
    g.bench_function("clos_128s_240h", |b| {
        b.iter(|| {
            let fab = params.build();
            let sim = Simulator::new(fab.topo, SimConfig::default());
            black_box(sim.now())
        })
    });
    g.finish();
}

/// Domain-count scaling of the conservative parallel engine: the same
/// cross-leaf CBR workload on a tiered Clos, run through `ParSim` at
/// 1, 2, and 4 latency-partitioned domains. `domains_1` collapses to the
/// plain single-thread engine, so the paired numbers price the barrier
/// windows and cross-domain batching; a wall-clock *speedup* additionally
/// needs cores.
fn bench_domain_scaling(c: &mut Criterion) {
    use int_netsim::{ClosParams, ParSim};

    const END: SimDuration = SimDuration::from_secs(2);

    let build = |domains: u16| {
        let host_link = LinkParams {
            bandwidth_bps: 1_000_000_000,
            delay: SimDuration::from_micros(50),
            queue_cap_pkts: 64,
        };
        let uplink = LinkParams {
            bandwidth_bps: 10_000_000_000,
            delay: SimDuration::from_millis(2),
            queue_cap_pkts: 64,
        };
        let fabric = ClosParams { spines: 2, leaves: 8, hosts_per_leaf: 2, link: host_link }
            .build_tiered(uplink);
        let hosts = fabric.hosts;
        let mut sim = ParSim::new(fabric.topo, SimConfig::default(), domains);
        // Every flow crosses the spine tier (src and dst sit under
        // opposite halves of the leaves), so higher domain counts keep
        // exchanging cross-domain batches every window.
        let n = hosts.len();
        for i in 0..n / 2 {
            let dst = hosts[i + n / 2];
            sim.install_app(
                hosts[i],
                Box::new(IperfSenderApp::new(IperfConfig::new(
                    Topology::host_ip(dst),
                    8_000_000,
                    SimTime::ZERO,
                    END,
                ))),
            );
            sim.install_app(dst, Box::new(UdpSinkApp::new(IPERF_UDP_PORT)));
        }
        sim
    };

    // One throwaway run prices the workload; the engine's determinism
    // contract says every domain count processes the same event total.
    let events = {
        let mut sim = build(1);
        sim.run_until(SimTime::ZERO + END);
        sim.stats().events_processed
    };

    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(events));
    for domains in [1u16, 2, 4] {
        g.bench_function(format!("domains_{domains}"), |b| {
            b.iter(|| {
                let mut sim = build(domains);
                sim.run_until(SimTime::ZERO + END);
                let got = sim.stats().events_processed;
                assert_eq!(got, events, "domain count changed the event total");
                black_box(got)
            })
        });
    }
    g.finish();
}

/// What lit observability costs at fabric scale: a 200-host tiered Clos
/// whose hosts heartbeat a rotating peer (`GiantHost`-style, but every
/// send is a new flow, so FlowHash ECMP spreads over all uplinks and
/// most of the ≈ 1 900 possible per-port and per-node series go live),
/// with the metrics registry off and on. `cbr_5s_one_switch_obs_on`
/// holds about five series, which prices the trace ring but not the
/// registry's per-series cost.
fn bench_observed_clos(c: &mut Criterion) {
    use int_netsim::{App, AppCtx, ClosParams, ClosRoutes, EcmpSelect};
    use std::any::Any;
    use std::net::Ipv4Addr;

    const END: SimDuration = SimDuration::from_secs(2);
    const PERIOD: SimDuration = SimDuration::from_millis(10);
    const PORT: u16 = 7100;

    struct Heartbeat {
        id: usize,
        peers: std::sync::Arc<Vec<Ipv4Addr>>,
        sent: usize,
    }

    impl App for Heartbeat {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.bind_udp(PORT);
            let phase = (self.id as u64).wrapping_mul(10_007) % PERIOD.as_nanos();
            ctx.set_timer(SimDuration::from_nanos(phase + 1), 1);
        }
        fn on_timer(&mut self, ctx: &mut AppCtx<'_>, timer_id: u64) {
            let n = self.peers.len();
            let peer = self.peers[(self.id + 1 + self.sent * 7 % (n - 1)) % n];
            self.sent += 1;
            ctx.send_udp(PORT, peer, PORT, vec![0x48; 64]);
            ctx.set_timer(PERIOD, timer_id);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    let build = |observed: bool| {
        let host_link = LinkParams {
            bandwidth_bps: 1_000_000_000,
            delay: SimDuration::from_micros(50),
            queue_cap_pkts: 64,
        };
        let uplink = LinkParams { delay: SimDuration::from_micros(500), ..host_link };
        let (spines, leaves, hosts_per_leaf) = (16, 40, 5);
        let fabric =
            ClosParams { spines, leaves, hosts_per_leaf, link: host_link }.build_tiered(uplink);
        let routes = ClosRoutes::new(spines, leaves, hosts_per_leaf, host_link.delay, uplink.delay);
        let cfg = SimConfig { ecmp: EcmpSelect::FlowHash, ..SimConfig::default() };
        let mut sim = Simulator::new_clos(fabric.topo, routes, cfg);
        sim.set_metrics_enabled(observed);
        let peers: std::sync::Arc<Vec<Ipv4Addr>> =
            std::sync::Arc::new(fabric.hosts.iter().map(|&h| Topology::host_ip(h)).collect());
        for (id, &h) in fabric.hosts.iter().enumerate() {
            sim.install_app(h, Box::new(Heartbeat { id, peers: peers.clone(), sent: 0 }));
        }
        sim
    };

    let (events, series) = {
        let mut sim = build(true);
        sim.run_until(SimTime::ZERO + END);
        (sim.stats().events_processed, sim.metrics().series())
    };
    assert!(series > 1_000, "the lit run must hold a fabric's worth of series: {series}");

    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(events));
    for (name, observed) in [("clos_obs_off", false), ("clos_obs_on", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut sim = build(observed);
                sim.run_until(SimTime::ZERO + END);
                let got = sim.stats().events_processed;
                assert_eq!(got, events, "observability changed the event total");
                black_box(got)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_event_queue_far,
    bench_fabric_build,
    bench_packet_throughput,
    bench_packet_throughput_observed,
    bench_timer_heavy,
    bench_tcp_transfer,
    bench_domain_scaling,
    bench_observed_clos
);
criterion_main!(benches);
