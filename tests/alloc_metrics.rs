//! Lit observability allocates nothing per record and nothing per series.
//!
//! On a small Clos with every host heartbeating a rotating peer, after two
//! warm-up epochs — by which time every series is interned and the line
//! buffer has its size — one further epoch must:
//!
//! * **record** without allocating: `run_until` on the lit simulator
//!   performs exactly as many allocations as on its dark twin (the app's
//!   payload `Vec`s and whatever else the engine does are the same
//!   deterministic schedule on both; the registry adds zero);
//! * **export** in O(1) allocations, not O(series): rendering the epoch
//!   line into the reused buffer allocates what the serde-rendered
//!   `stats` block does and at most a buffer growth, with hundreds of
//!   series live.
//!
//! Single test function on purpose: parallel tests would interleave their
//! allocations into the shared counter.

#[path = "common/alloc.rs"]
mod alloc;

use alloc::allocations_in;
use int_edge_sched::experiments::giant::render_epoch_line;
use int_edge_sched::netsim::{
    App, AppCtx, ClosParams, ClosRoutes, EcmpSelect, LinkParams, ParSim, SimConfig, SimDuration,
    SimTime, Topology,
};
use int_obs::json::JsonBuf;
use std::net::Ipv4Addr;
use std::sync::Arc;

const PORT: u16 = 7100;
const PERIOD: SimDuration = SimDuration::from_millis(5);
const EPOCH_NS: u64 = 200_000_000;

/// Heartbeats a different peer on every send, so every (src, dst) flow —
/// and with FlowHash ECMP every fabric port — is live within one epoch.
struct Heartbeat {
    id: usize,
    peers: Arc<Vec<Ipv4Addr>>,
    sent: usize,
}

impl App for Heartbeat {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.bind_udp(PORT);
        ctx.set_timer(SimDuration::from_nanos(self.id as u64 * 10_007 + 1), 1);
    }
    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, timer_id: u64) {
        let n = self.peers.len();
        let peer = self.peers[(self.id + 1 + self.sent % (n - 1)) % n];
        self.sent += 1;
        ctx.send_udp(PORT, peer, PORT, vec![0x48; 64]);
        ctx.set_timer(PERIOD, timer_id);
    }
}

fn fabric(lit: bool) -> ParSim {
    let link = LinkParams {
        bandwidth_bps: 1_000_000_000,
        delay: SimDuration::from_nanos(50_000),
        queue_cap_pkts: 64,
    };
    let uplink = LinkParams { delay: SimDuration::from_nanos(500_000), ..link };
    let (spines, leaves, hosts_per_leaf) = (4, 8, 8);
    let fab = ClosParams { spines, leaves, hosts_per_leaf, link }.build_tiered(uplink);
    let routes = ClosRoutes::new(spines, leaves, hosts_per_leaf, link.delay, uplink.delay);
    let cfg = SimConfig { ecmp: EcmpSelect::FlowHash, ..SimConfig::default() };
    let mut sim = ParSim::new_clos(fab.topo, routes, cfg, 1);
    sim.set_metrics_enabled(lit);
    let peers: Arc<Vec<Ipv4Addr>> =
        Arc::new(fab.hosts.iter().map(|&h| Topology::host_ip(h)).collect());
    for (id, &h) in fab.hosts.iter().enumerate() {
        sim.install_app(h, Box::new(Heartbeat { id, peers: peers.clone(), sent: 0 }));
    }
    sim
}

#[test]
fn lit_epoch_records_without_allocating_and_exports_in_constant_allocations() {
    let mut lit = fabric(true);
    let mut dark = fabric(false);
    let mut line = JsonBuf::new();
    for k in 1..=2 {
        lit.run_until(SimTime(k * EPOCH_NS));
        dark.run_until(SimTime(k * EPOCH_NS));
        render_epoch_line(&mut line, k, &mut lit);
    }
    let series = lit.sims()[0].metrics().series();
    assert!(series > 250, "a fabric's worth of series is live: {series}");

    let (lit_allocs, ()) = allocations_in(|| lit.run_until(SimTime(3 * EPOCH_NS)));
    let (dark_allocs, ()) = allocations_in(|| dark.run_until(SimTime(3 * EPOCH_NS)));
    assert_eq!(lit.stats(), dark.stats(), "both ran the same schedule");
    assert!(lit.stats().frames_delivered > 6_000, "the epoch carried traffic: {:?}", lit.stats());
    assert_eq!(
        lit.sims()[0].metrics().series(),
        series,
        "steady state: the measured epoch interned nothing"
    );
    assert_eq!(
        lit_allocs, dark_allocs,
        "recording into interned series must not allocate (lit vs dark epoch)"
    );

    // The serde-rendered `stats` block is the export's constant part (the
    // vendored serializer builds a value tree: a few allocations per
    // `NetStats` field); the snapshot of every series beside it may add a
    // growth of the line buffer, never one allocation per series.
    let (stats_allocs, _) = allocations_in(|| serde_json::to_string(&lit.stats()));
    let (export_allocs, ()) = allocations_in(|| render_epoch_line(&mut line, 3, &mut lit));
    assert!(
        export_allocs <= stats_allocs + 2,
        "epoch export allocated {export_allocs} times ({stats_allocs} of them for `stats`) \
         with {series} series live"
    );
    assert!(line.as_str().starts_with(r#"{"epoch":3,"t_ns":600000000,"stats":{"#));
    assert!(line.as_str().contains(r#""sim.queue_depth_pkts{node="#));
}
