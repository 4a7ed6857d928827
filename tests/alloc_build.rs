//! Building a fabric keeps its checks, and installing routes allocates
//! per *doubling* of the forwarding state, not per route.
//!
//! * Route installs: a spine of the 2 000-host `des_fabric` Clos (16 ×
//!   100 × 20) holds one /32 per host, pointing at that host's leaf. Its
//!   2 000 installs into one `IntTelemetryProgram` touch the heap only
//!   when a vector or index doubles — a handful of times per structure.
//!   A key `Vec`, a boxed index key or a group-map probe per route fails
//!   this by two orders of magnitude.
//! * Node names: after that fabric is built (names checked in O(1)), a
//!   name already taken still panics at `add_host`.
//! * Lookups: a 2 000-route table with a /0 default answers every host
//!   address, an address only the default covers and a key of the wrong
//!   length exactly as the reference scan does; the property tests build
//!   only small tables.
//!
//! Single test function on purpose: parallel tests would interleave their
//! allocations into the shared counter.

#[path = "common/alloc.rs"]
mod alloc;

use alloc::allocations_in;
use int_edge_sched::dataplane::{
    DataPlaneProgram, Frame, IngressCtx, IngressVerdict, IntProgramConfig, IntTelemetryProgram,
    Key, MatchActionTable, MatchKind,
};
use int_edge_sched::netsim::{ClosParams, LinkParams, NodeId, Topology};
use int_edge_sched::packet::PacketBuilder;
use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};

const LEAVES: u32 = 100;
const HOSTS_PER_LEAF: u32 = 20;
const HOSTS: u32 = LEAVES * HOSTS_PER_LEAF;

/// Heap allocations one spine's 2 000 route installs may make: the
/// program's vectors and indexes doubling up to 2 000 entries (and its
/// 100 port groups up to 100) take a few dozen.
const MAX_INSTALL_ALLOCATIONS: u64 = 64;

fn spine_port(host: u32) -> u16 {
    (host / HOSTS_PER_LEAF) as u16
}

#[test]
fn route_installs_allocate_per_doubling_and_fabric_checks_hold() {
    // Route installs into one spine.
    let mut spine = IntTelemetryProgram::new(IntProgramConfig {
        switch_id: 1,
        num_ports: LEAVES as usize,
        int_enabled: true,
    });
    let (allocs, ()) = allocations_in(|| {
        for h in 0..HOSTS {
            spine.install_host_route(Topology::host_ip(NodeId(h)), spine_port(h));
        }
    });
    assert!(
        allocs <= MAX_INSTALL_ALLOCATIONS,
        "{allocs} allocations for {HOSTS} route installs (bound {MAX_INSTALL_ALLOCATIONS})"
    );
    // The installed routes forward: first, middle and last host.
    let src = Ipv4Addr::new(10, 0, 0, 1);
    let ctx = IngressCtx {
        now_ns: 0,
        switch_id: 1,
        ingress_port: 0,
    };
    for h in [0, HOSTS / 2 + 7, HOSTS - 1] {
        let dst = Topology::host_ip(NodeId(h));
        let mut f = Frame::new(PacketBuilder::between(1, src, 2, dst).udp(1, 2, b"x"));
        assert_eq!(
            spine.ingress(&mut f, &ctx),
            IngressVerdict::Forward(spine_port(h)),
            "host {h}"
        );
    }

    // A duplicate name after a 2 116-node build still panics.
    let clos = ClosParams {
        spines: 16,
        leaves: LEAVES,
        hosts_per_leaf: HOSTS_PER_LEAF,
        link: LinkParams::paper_default(),
    };
    let mut topo = clos.build_tiered(LinkParams::paper_default()).topo;
    let nodes = topo.nodes.len();
    assert_eq!(nodes, (HOSTS + LEAVES + 16) as usize);
    for taken in ["h0", "h1234", "leaf99", "spine15"] {
        let err = catch_unwind(AssertUnwindSafe(|| topo.add_host(taken)))
            .expect_err("a taken name must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(msg.contains("duplicate node name"), "{taken}: {msg}");
    }
    assert_eq!(topo.nodes.len(), nodes, "a refused name adds no node");
    assert_eq!(
        topo.add_switch("spine16"),
        NodeId(nodes as u32),
        "a new name is accepted"
    );

    // The indexed lookup agrees with the reference scan at fabric size.
    let mut table = MatchActionTable::new("fwd", MatchKind::Lpm);
    for h in 0..HOSTS {
        let value = Topology::host_ip(NodeId(h)).octets().to_vec();
        table.insert(
            Key::Lpm {
                value,
                prefix_len: 32,
            },
            spine_port(h),
        );
    }
    table.insert(
        Key::Lpm {
            value: vec![0; 4],
            prefix_len: 0,
        },
        u16::MAX,
    );
    assert_eq!(table.len(), HOSTS as usize + 1);
    for h in 0..HOSTS {
        let ip = Topology::host_ip(NodeId(h)).octets();
        assert_eq!(table.lookup(&ip), table.lookup_linear(&ip), "host {h}");
        assert_eq!(table.lookup(&ip), Some(&spine_port(h)), "host {h}");
    }
    let outside = [192, 168, 0, 1];
    assert_eq!(table.lookup(&outside), table.lookup_linear(&outside));
    assert_eq!(
        table.lookup(&outside),
        Some(&u16::MAX),
        "only the default route covers it"
    );
    let short = [10, 0];
    assert_eq!(table.lookup(&short), table.lookup_linear(&short));
    assert_eq!(table.lookup(&short), None, "no entry has a 2-byte key");
}
