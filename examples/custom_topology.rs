//! Bring-your-own topology: build a two-tier edge network with the public
//! API, write a custom application, and drive the full INT pipeline —
//! P4-programmed switches, probes, collector — without the bundled testbed.
//!
//! ```text
//! cargo run --example custom_topology
//! ```

use int_edge_sched::core::rank::StaticDistances;
use int_edge_sched::prelude::*;
use std::net::Ipv4Addr;

/// A device app that fires one scheduler query and prints the response.
struct QueryOnce {
    scheduler: Ipv4Addr,
    answer: Option<Vec<(u32, u64)>>,
}

impl App for QueryOnce {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.bind_udp(int_edge_sched::packet::SCHED_CLIENT_UDP_PORT);
        // Let probes warm the map for two seconds first.
        ctx.set_timer(SimDuration::from_secs(2), 1);
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, _timer_id: u64) {
        use int_edge_sched::packet::msgs::{ControlMsg, RankingKind};
        use int_edge_sched::packet::wire::WireEncode;
        let req = ControlMsg::SchedRequest {
            requester: ctx.node.0,
            job_id: 1,
            task_count: 1,
            ranking: RankingKind::Delay,
        };
        ctx.send_udp(
            int_edge_sched::packet::SCHED_CLIENT_UDP_PORT,
            self.scheduler,
            SCHEDULER_UDP_PORT,
            req.to_bytes(),
        );
    }

    fn on_udp(&mut self, _c: &mut AppCtx<'_>, _f: Ipv4Addr, _fp: u16, _tp: u16, payload: &[u8]) {
        use int_edge_sched::packet::msgs::ControlMsg;
        use int_edge_sched::packet::wire::WireDecode;
        if let Ok(ControlMsg::SchedResponse { candidates, .. }) =
            ControlMsg::decode(&mut &payload[..])
        {
            self.answer = Some(candidates.iter().map(|c| (c.node, c.est_delay_ns)).collect());
        }
    }

}

fn main() {
    // Two-tier edge: an aggregation switch with two racks of servers.
    let mut topo = Topology::new();
    let device = topo.add_host("device");
    let agg = topo.add_switch("agg");
    let rack_a = topo.add_switch("rack-a");
    let rack_b = topo.add_switch("rack-b");
    let srv_a1 = topo.add_host("srv-a1");
    let srv_a2 = topo.add_host("srv-a2");
    let srv_b1 = topo.add_host("srv-b1");
    let scheduler = topo.add_host("scheduler");

    let fast = LinkParams::paper_default();
    topo.add_link(device, agg, fast);
    topo.add_link(scheduler, agg, fast);
    topo.add_link(agg, rack_a, fast);
    topo.add_link(agg, rack_b, fast);
    topo.add_link(srv_a1, rack_a, fast);
    topo.add_link(srv_a2, rack_a, fast);
    topo.add_link(srv_b1, rack_b, fast);

    let mut sim = Simulator::new(topo, SimConfig::default());
    let scheduler_ip = Topology::host_ip(scheduler);

    // Servers AND the device probe: the scheduler needs every endpoint in
    // its learned graph to estimate device→server paths.
    for node in [srv_a1, srv_a2, srv_b1, device] {
        sim.install_app(
            node,
            Box::new(ProbeSenderApp::new(scheduler_ip, ProbeSenderApp::DEFAULT_INTERVAL)),
        );
    }
    sim.install_app(
        scheduler,
        Box::new(SchedulerApp::new(
            scheduler.0,
            Policy::IntDelay,
            CoreConfig::default(),
            StaticDistances::new(),
            1,
        )),
    );
    let q = sim.install_app(device, Box::new(QueryOnce { scheduler: scheduler_ip, answer: None }));

    sim.run_until(SimTime::ZERO + SimDuration::from_secs(3));

    let app = sim.app::<QueryOnce>(device, q).expect("query app");
    let answer = app.answer.as_ref().expect("scheduler answered over UDP");
    println!("scheduler's ranked answer for the device:");
    for (host, delay_ns) in answer {
        println!("  host {:>2}  est one-way delay {:>6.1} ms", host, *delay_ns as f64 / 1e6);
    }
    assert!(answer.len() >= 3, "all three probing servers are candidates");
    println!("\ncustom topology + custom app + real UDP query/response: done.");
}
