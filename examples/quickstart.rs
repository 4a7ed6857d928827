//! Quickstart: build a three-host network, let INT probes map it, and ask
//! the scheduler for a ranked server list.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use int_edge_sched::prelude::*;
use int_edge_sched::core::rank::StaticDistances;

fn main() {
    // Topology: device and two servers behind one switch, scheduler on its
    // own access link. All links 10 ms / 20 Mbit/s-class.
    let mut topo = Topology::new();
    let device = topo.add_host("device");
    let server_a = topo.add_host("server-a");
    let server_b = topo.add_host("server-b");
    let scheduler = topo.add_host("scheduler");
    let sw = topo.add_switch("sw0");
    for h in [device, server_a, server_b, scheduler] {
        topo.add_link(h, sw, LinkParams::paper_default());
    }

    let mut sim = Simulator::new(topo, SimConfig::default());
    let scheduler_ip = Topology::host_ip(scheduler);

    // Every node probes the scheduler every 100 ms (paper §III-A).
    for h in [device, server_a, server_b] {
        sim.install_app(
            h,
            Box::new(ProbeSenderApp::new(scheduler_ip, ProbeSenderApp::DEFAULT_INTERVAL)),
        );
    }
    let sched_app = sim.install_app(
        scheduler,
        Box::new(SchedulerApp::new(
            scheduler.0,
            Policy::IntDelay,
            CoreConfig::default(),
            StaticDistances::new(),
            42,
        )),
    );

    // One second of probing is plenty to learn this network.
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));

    let app = sim
        .app_mut::<SchedulerApp>(scheduler, sched_app)
        .expect("scheduler app");
    println!("probes received: {}", app.probes_received());

    let map = app.core().collector().map();
    println!("learned hosts:    {:?}", map.hosts().collect::<Vec<_>>());
    println!("learned switches: {:?}", map.switches().collect::<Vec<_>>());

    // Fig. 1 steps 3–4: rank candidate servers for the device. (In a live
    // network the query arrives over UDP — see examples/custom_topology.rs;
    // here we call the scheduler core directly.)
    let app = sim
        .app_mut::<SchedulerApp>(scheduler, sched_app)
        .expect("scheduler app");
    let ranking: Vec<RankedServer> =
        app.core_mut().rank_detailed_with(device.0, Policy::IntDelay, 1_000_000_000).ranked;
    println!("\nranked servers for the device (best first):");
    for r in &ranking {
        println!(
            "  host {:>2}  est delay {:>6.1} ms  est bandwidth {:>5.1} Mbit/s",
            r.host,
            r.est_delay_ns as f64 / 1e6,
            r.est_bandwidth_bps as f64 / 1e6,
        );
    }
    assert!(!ranking.is_empty(), "the scheduler learned at least one server");
}
