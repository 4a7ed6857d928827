//! The simulator: owns the world, dispatches events, moves frames.
//!
//! ## Transmission model
//!
//! Each (node, port) has a drop-tail egress queue. When a port is idle and
//! a frame is enqueued, serialization starts immediately: the frame leaves
//! the queue, the egress hook runs (switches only — this is where probe
//! packets grow their INT record), and two events are scheduled:
//! `TxDone` after the serialization time and `Arrive` at the far end after
//! serialization + propagation.
//!
//! The effective serialization rate is `min(link rate, device egress
//! rate)`. The per-switch egress rate models the BMv2 processing ceiling
//! the paper observed (~20 Mbit/s) — links themselves were fast, the
//! software switch was the bottleneck (paper §III-C footnote 3).
//!
//! ## Node record
//!
//! Every node is one `Node`: its egress ports and its `sim.drops` series,
//! which hosts and switches share, plus a `Role` holding what only one
//! kind has. The queueing and transmission paths index
//! `nodes[n].ports[p]` without asking the role. Only switch ingress, the
//! enqueue/egress hooks and the egress-rate ceiling look at
//! `Role::Switch`; only delivery, apps and TCP look at `Role::Host`.
//!
//! ## Drops
//!
//! Every dropped frame leaves through `drop_frame`: one
//! `NetStats::count_drop` under its [`DropReason`], one `sim.drops{node}`
//! record, one `Drop` trace event, and the frame back to the pool.

use crate::app::{App, AppCtx, AppOp};
use crate::event::{ConnId, Event, EventQueue};
use crate::fault::{FaultPlan, FaultState};
use crate::pool::{BufPool, PoolStats};
use crate::queue::{DropTailQueue, QueueStats};
use crate::routing::{ClosNodeKind, ClosRoutes, RouteTable, Routes};
use crate::stats::NetStats;
use crate::tcp::TcpHost;
use crate::trace::{TrafficAccountant, TrafficClass};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, NodeKind, PortId, Topology};
use int_dataplane::{
    DataPlaneProgram, EcmpSelect, EgressCtx, EnqueueCtx, Frame, IngressCtx, IngressVerdict,
    IntProgramConfig, IntTelemetryProgram,
};
use int_obs::{
    CounterId, DropReason, HistogramId, Labels, MetricsRegistry, TraceEvent, TraceKind, TraceRing,
};
use int_packet::{L4View, PacketBuilder};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Per-port runtime state.
struct PortState {
    queue: DropTailQueue,
    transmitting: bool,
    /// `sim.queue_depth_pkts{node,port}`, interned by the first lit
    /// enqueue. This and the other `*_series` fields index the slab of
    /// `Simulator::metrics`, which is never replaced.
    depth_series: Option<HistogramId>,
}

/// One node's runtime state (see the module doc).
struct Node {
    ports: Vec<PortState>,
    /// `sim.drops{node}`.
    drops_series: Option<CounterId>,
    role: Role,
}

// The size skew (HostState ≫ SwitchState) is fine: nodes live in one `Vec`
// built at construction and are only ever borrowed afterwards.
#[allow(clippy::large_enum_variant)]
enum Role {
    Host(HostState),
    Switch(SwitchState),
}

struct HostState {
    apps: Vec<Box<dyn App>>,
    /// (port, app index) — later binds shadow earlier ones.
    udp_bindings: Vec<(u16, usize)>,
    tcp: TcpHost,
    conn_owner: HashMap<ConnId, usize>,
    listener_owner: Vec<(u16, usize)>,
    rng: SmallRng,
    /// Egress port group toward every destination, built once at
    /// construction so the send path never reconstructs a route
    /// (`RouteTable::egress_port` → `path()` allocates and reverses a
    /// `Vec<NodeId>` per call). Each entry is the full equal-cost *group*
    /// (primary first), so selection can hash across ports and fail over
    /// to a live member when a fault retires the primary. Empty on Clos
    /// fabrics and on hosts another domain owns.
    uplinks: HostRouteTable,
    /// `sim.frames_delivered{node}`.
    delivered_series: Option<CounterId>,
}

struct SwitchState {
    program: IntTelemetryProgram,
    /// `sim.frames_forwarded{node}`.
    forwarded_series: Option<CounterId>,
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Master RNG seed; every host derives its own stream from it.
    pub seed: u64,
    /// Egress-rate ceiling applied to every switch port (None = link rate).
    /// The paper's BMv2 setup behaved like a 20 Mbit/s ceiling.
    pub switch_egress_rate_bps: Option<u64>,
    /// Whether switches run the INT program with telemetry enabled.
    pub int_enabled: bool,
    /// Multipath selection at every hop (hosts and switches). The default
    /// [`EcmpSelect::Primary`] keeps the pre-multipath single-route
    /// behaviour bit-for-bit; [`EcmpSelect::FlowHash`] spreads flows over
    /// equal-cost port groups — the fabric experiments' mode.
    pub ecmp: EcmpSelect,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            switch_egress_rate_bps: Some(20_000_000),
            int_enabled: true,
            ecmp: EcmpSelect::Primary,
        }
    }
}

/// Assemble an equal-cost port group with `primary` first.
/// `equal_cost_ports` can be empty (unreachable or self destination) —
/// the group then degenerates to the primary alone, preserving the old
/// single-port behaviour including its `unwrap_or(0)` default.
fn ecmp_group(primary: PortId, equal: Vec<PortId>) -> Vec<PortId> {
    let mut group = Vec::with_capacity(equal.len().max(1));
    group.push(primary);
    for p in equal {
        if p != primary {
            group.push(p);
        }
    }
    group
}

/// A frame crossing a domain boundary in a partitioned run: everything
/// the receiving domain needs to re-schedule the `Arrive`, plus the
/// `(sent_at, src_domain, seq)` tie-break key that makes the merged
/// injection order a pure function of the traffic (not of thread timing).
pub(crate) struct CrossMsg {
    pub(crate) at: SimTime,
    pub(crate) sent_at: SimTime,
    pub(crate) node: NodeId,
    pub(crate) port: PortId,
    pub(crate) src_domain: u16,
    pub(crate) seq: u64,
    pub(crate) frame: Box<Frame>,
}

/// Per-domain context for a partitioned run. `None` on an ordinary
/// simulator: the data path then behaves exactly as before.
pub(crate) struct DomainCtx {
    /// This simulator's domain id.
    id: u16,
    /// `of[node]` = owning domain of every node (shared across domains).
    of: Arc<Vec<u16>>,
    /// Frames headed to foreign nodes, collected until the next barrier.
    outbox: Vec<CrossMsg>,
    /// Monotone per-domain sequence for the cross-message tie-break.
    seq: u64,
}

impl DomainCtx {
    pub(crate) fn new(id: u16, of: Arc<Vec<u16>>) -> DomainCtx {
        DomainCtx { id, of, outbox: Vec::new(), seq: 0 }
    }
}

/// The discrete-event network simulator.
pub struct Simulator {
    topo: Arc<Topology>,
    cfg: SimConfig,
    now: SimTime,
    events: EventQueue,
    nodes: Vec<Node>,
    stats: NetStats,
    accounting: TrafficAccountant,
    /// Classify and count every frame put on the wire (adds one parse per
    /// transmission; off by default).
    account_traffic: bool,
    next_ip_id: u16,
    started: bool,
    /// Freelist of frame boxes: delivered and dropped frames are recycled
    /// into the host send paths, so steady state allocates no frames.
    pool: BufPool,
    /// Fault-injection state; `None` (the default) keeps the data path
    /// identical to a fault-free build.
    faults: Option<FaultState>,
    /// Scratch op buffers for app callbacks. A stack (not a single buffer)
    /// because callbacks re-enter: `invoke_app` → `flush_tcp` → `invoke_app`.
    ops_free: Vec<Vec<AppOp>>,
    /// Deterministic metrics registry (disabled by default: every record
    /// call is one branch; see DESIGN.md §5.3).
    metrics: MetricsRegistry,
    /// Typed trace-event ring (disabled by default).
    trace: TraceRing,
    /// Scratch for draining data-plane program trace buffers.
    trace_scratch: Vec<TraceEvent>,
    /// `Some` only when this simulator is one domain of a partitioned run.
    domain: Option<DomainCtx>,
}

/// A host's build-time route state: one equal-cost port group per
/// destination node, dedup'd (a host usually has one uplink, so most
/// destinations share group 0).
#[derive(Default)]
struct HostRouteTable {
    /// `group_of[dst]` indexes into `groups`.
    group_of: Vec<u16>,
    /// Equal-cost egress port groups, primary (the pre-multipath
    /// single-route answer) first.
    groups: Vec<Vec<PortId>>,
}

impl HostRouteTable {
    fn build(topo: &Topology, rt: &RouteTable, host: NodeId) -> HostRouteTable {
        let mut table = HostRouteTable::default();
        let mut index: HashMap<Vec<PortId>, u16> = HashMap::new();
        for d in 0..topo.nodes.len() {
            let dst = NodeId(d as u32);
            let primary = rt.egress_port(topo, host, dst).unwrap_or(0);
            let group = ecmp_group(primary, rt.equal_cost_ports(topo, host, dst));
            let g = *index.entry(group.clone()).or_insert_with(|| {
                table.groups.push(group);
                (table.groups.len() - 1) as u16
            });
            table.group_of.push(g);
        }
        table
    }

    fn group(&self, dst: NodeId) -> Option<&[PortId]> {
        let g = *self.group_of.get(dst.0 as usize)?;
        Some(&self.groups[g as usize])
    }
}

impl Simulator {
    /// Build a simulator: validates the topology, computes routes, creates
    /// INT-programmed switches, and installs host routes into every switch.
    pub fn new(topo: Topology, cfg: SimConfig) -> Simulator {
        topo.validate().expect("invalid topology");
        let routes = Routes::Table(RouteTable::compute(&topo));
        Self::build(Arc::new(topo), &routes, cfg, None)
    }

    /// Build a simulator over a Clos fabric using structural O(1) routing
    /// instead of an all-pairs route table. The topology must have been
    /// produced by [`crate::topology::ClosParams::build`] /
    /// [`crate::topology::ClosParams::build_tiered`] with the same shape as
    /// `clos` — construction asserts the node count matches. This is what
    /// makes 10k-host fabrics constructible: the dense table is O(n²)
    /// memory plus n Dijkstra runs, the structural form is O(1).
    pub fn new_clos(topo: Topology, clos: ClosRoutes, cfg: SimConfig) -> Simulator {
        topo.validate().expect("invalid topology");
        assert_eq!(
            topo.nodes.len() as u32,
            clos.hosts() + clos.leaves() + clos.spines(),
            "ClosRoutes shape does not match topology"
        );
        Self::build(Arc::new(topo), &Routes::Clos(clos), cfg, None)
    }

    /// Shared constructor body. `domain` scopes construction to one domain
    /// of a partitioned run: foreign nodes still get (dead-weight) state so
    /// indices line up, but no routes are installed into them and no host
    /// uplink tables are built for them.
    pub(crate) fn build(
        topo: Arc<Topology>,
        routes: &Routes,
        cfg: SimConfig,
        domain: Option<DomainCtx>,
    ) -> Simulator {
        let owns = |n: NodeId| match &domain {
            Some(d) => d.of[n.0 as usize] == d.id,
            None => true,
        };

        let mut nodes = Vec::with_capacity(topo.nodes.len());
        for spec in &topo.nodes {
            let ports: Vec<PortState> = spec
                .ports
                .iter()
                .map(|pb| PortState {
                    queue: DropTailQueue::new(topo.link(pb.link).params.queue_cap_pkts),
                    transmitting: false,
                    depth_series: None,
                })
                .collect();
            let role = match spec.kind {
                NodeKind::Host => Role::Host(HostState {
                    apps: Vec::new(),
                    udp_bindings: Vec::new(),
                    tcp: TcpHost::new(Topology::host_ip(spec.id)),
                    conn_owner: HashMap::new(),
                    listener_owner: Vec::new(),
                    rng: SmallRng::seed_from_u64(
                        cfg.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(spec.id.0 as u64 + 1)),
                    ),
                    // A Clos host has exactly one port, and `host_uplink`
                    // falls back to port 0 when no group is found, so
                    // Clos mode needs no per-destination table.
                    uplinks: match routes {
                        Routes::Table(rt) if owns(spec.id) => {
                            HostRouteTable::build(&topo, rt, spec.id)
                        }
                        _ => HostRouteTable::default(),
                    },
                    delivered_series: None,
                }),
                NodeKind::Switch => {
                    let mut program = IntTelemetryProgram::new(IntProgramConfig {
                        switch_id: spec.id.0,
                        num_ports: spec.ports.len(),
                        int_enabled: cfg.int_enabled,
                    });
                    program.set_ecmp_select(cfg.ecmp);
                    if owns(spec.id) {
                        match routes {
                            // Control plane: /32 ECMP routes for every host.
                            // The group's primary is the old single-path
                            // `egress_port` answer, so Primary selection
                            // forwards identically to the pre-multipath
                            // control plane.
                            Routes::Table(rt) => {
                                for host in topo.hosts() {
                                    if let Some(primary) = rt.egress_port(&topo, spec.id, host) {
                                        let group = ecmp_group(
                                            primary,
                                            rt.equal_cost_ports(&topo, spec.id, host),
                                        );
                                        program.install_route_multi(
                                            Topology::host_ip(host),
                                            32,
                                            &group,
                                        );
                                    }
                                }
                            }
                            // Structural Clos control plane: a leaf holds /32s
                            // for its own hosts plus one default ECMP group
                            // over its uplinks; a spine holds one /32 per host
                            // pointing at that host's leaf. O(hosts) total
                            // routes instead of O(switches × hosts) groups.
                            Routes::Clos(c) => match c.kind_of(spec.id) {
                                ClosNodeKind::Leaf(l) => {
                                    let hpl = c.hosts_per_leaf();
                                    for j in 0..hpl {
                                        let host = NodeId(l * hpl + j);
                                        program.install_host_route(
                                            Topology::host_ip(host),
                                            j as PortId,
                                        );
                                    }
                                    program.install_route_multi(
                                        Ipv4Addr::new(0, 0, 0, 0),
                                        0,
                                        &c.leaf_uplink_ports(),
                                    );
                                }
                                ClosNodeKind::Spine(_) => {
                                    let hpl = c.hosts_per_leaf();
                                    for host in 0..c.hosts() {
                                        program.install_host_route(
                                            Topology::host_ip(NodeId(host)),
                                            c.spine_port_to_leaf(host / hpl),
                                        );
                                    }
                                }
                                ClosNodeKind::Host(_) => {
                                    unreachable!("Clos host classified as switch")
                                }
                            },
                        }
                    }
                    Role::Switch(SwitchState { program, forwarded_series: None })
                }
            };
            nodes.push(Node { ports, drops_series: None, role });
        }

        Simulator {
            topo,
            cfg,
            now: SimTime::ZERO,
            events: EventQueue::new(),
            nodes,
            stats: NetStats::default(),
            accounting: TrafficAccountant::new(),
            account_traffic: false,
            next_ip_id: 1,
            started: false,
            pool: BufPool::new(),
            faults: None,
            ops_free: Vec::new(),
            metrics: MetricsRegistry::new(),
            trace: TraceRing::default(),
            trace_scratch: Vec::new(),
            domain,
        }
    }

    /// Install a fault plan: resolves it against the topology, schedules
    /// each transition on the event queue, and arms the runtime state.
    /// Panics on a plan referencing links or switches that do not exist.
    /// Transitions scheduled in the past fire at the current time.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        let resolved = plan.resolve(&self.topo).expect("invalid fault plan");
        for &(at, action) in &resolved.events {
            let at = if at < self.now { self.now } else { at };
            self.events.push(at, Event::Fault(action));
        }
        self.faults = Some(FaultState::new(&self.topo, &resolved, self.cfg.seed));
    }

    /// Current fault state (None unless a plan was installed).
    pub fn faults(&self) -> Option<&FaultState> {
        self.faults.as_ref()
    }

    /// Install an application on a host (before or after start; `on_start`
    /// runs at the next opportunity if the sim already started).
    pub fn install_app(&mut self, node: NodeId, app: Box<dyn App>) -> usize {
        let Role::Host(h) = &mut self.nodes[node.0 as usize].role else {
            panic!("cannot install an app on a switch");
        };
        h.apps.push(app);
        let idx = h.apps.len() - 1;
        if self.started {
            self.invoke_app(node, idx, |app, ctx| app.on_start(ctx));
        }
        idx
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configuration this simulator was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Engine-wide counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Frame-pool counters (how many takes hit the freelist vs allocated).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Per-class traffic accounting (empty unless
    /// [`Simulator::set_account_traffic`] turned it on).
    pub fn traffic(&self) -> &TrafficAccountant {
        &self.accounting
    }

    /// Turn per-frame traffic accounting on or off at runtime.
    pub fn set_account_traffic(&mut self, on: bool) {
        self.account_traffic = on;
    }

    /// The metrics registry (disabled by default).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Enable (or disable) metrics recording; series recorded so far are
    /// kept. The registry itself is not handed out mutably: the record
    /// sites hold series ids into it, which replacing it would strand.
    pub fn set_metrics_enabled(&mut self, on: bool) {
        self.metrics.set_enabled(on);
    }

    /// The trace-event ring (disabled by default).
    pub fn trace_ring(&self) -> &TraceRing {
        &self.trace
    }

    /// Mutable access to the trace ring. Test accessor: the trace
    /// determinism tests (here and in [`crate::par`]) install a ring large
    /// enough that nothing is evicted.
    pub fn trace_ring_mut(&mut self) -> &mut TraceRing {
        &mut self.trace
    }

    /// Enable (or disable) trace-event recording engine-wide: flips the
    /// ring *and* tells every switch data-plane program to buffer its
    /// probe-harvest / register-reset events for draining.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace.set_enabled(on);
        for node in &mut self.nodes {
            if let Role::Switch(sw) = &mut node.role {
                sw.program.set_tracing(on);
            }
        }
    }

    /// The topology this simulator runs.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Ground-truth statistics of one egress queue. Test accessor:
    /// `congested_multi_host_replay_is_identical` and the iperf tests'
    /// `queue_grows_with_utilization` read it.
    pub fn queue_stats(&self, node: NodeId, port: PortId) -> QueueStats {
        self.nodes[node.0 as usize].ports[port as usize].queue.stats()
    }

    /// Downcast an installed app's state for inspection: `None` unless
    /// `node` is a host whose app `app_idx` exists and is a `T`. This and
    /// [`Self::app_mut`] are the only places an app is found by type.
    pub fn app<T: App>(&self, node: NodeId, app_idx: usize) -> Option<&T> {
        let Role::Host(h) = &self.nodes[node.0 as usize].role else { return None };
        let app: &dyn Any = &**h.apps.get(app_idx)?;
        app.downcast_ref::<T>()
    }

    /// Mutable downcast of an installed app's state (see [`Self::app`]).
    pub fn app_mut<T: App>(&mut self, node: NodeId, app_idx: usize) -> Option<&mut T> {
        let Role::Host(h) = &mut self.nodes[node.0 as usize].role else { return None };
        let app: &mut dyn Any = &mut **h.apps.get_mut(app_idx)?;
        app.downcast_mut::<T>()
    }

    /// Start all apps (idempotent; called automatically by `run_until`).
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let hosts: Vec<(NodeId, usize)> = self
            .topo
            .hosts()
            .flat_map(|n| {
                let count = match &self.nodes[n.0 as usize].role {
                    Role::Host(h) => h.apps.len(),
                    Role::Switch(_) => 0,
                };
                (0..count).map(move |i| (n, i))
            })
            .collect();
        for (node, idx) in hosts {
            self.invoke_app(node, idx, |app, ctx| app.on_start(ctx));
        }
    }

    /// Run until simulated time `t` (inclusive of events at `t`).
    pub fn run_until(&mut self, t: SimTime) {
        self.start();
        while let Some(at) = self.events.peek_time() {
            if at > t {
                break;
            }
            let (at, event) = self.events.pop().expect("peeked");
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.dispatch(event);
        }
        self.now = t;
    }

    /// Number of pending events (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    // ------------------------------------------------------------ dispatch

    fn dispatch(&mut self, event: Event) {
        if let Event::Fault(action) = event {
            // Fault transitions are mirrored into every domain of a
            // partitioned run (each needs the state flip for its local
            // liveness checks), but only the owning domain counts and
            // traces the event, so summed stats match the oracle exactly.
            if let Some(f) = &mut self.faults {
                f.apply(action);
            }
            if self.owns_fault(action) {
                self.stats.events_processed += 1;
                self.trace_fault(action);
            }
            return;
        }
        self.stats.events_processed += 1;
        match event {
            Event::Arrive { node, port, frame } => self.handle_arrive(node, port, frame),
            Event::TxDone { node, port } => self.handle_tx_done(node, port),
            Event::AppTimer { node, app_idx, timer_id } => {
                self.invoke_app(node, app_idx, |app, ctx| app.on_timer(ctx, timer_id));
            }
            Event::TcpTimer { node, conn, generation } => {
                let now = self.now;
                self.host(node).tcp.on_timer(conn, generation, now);
                self.flush_tcp(node);
            }
            Event::Fault(_) => unreachable!("handled above"),
        }
    }

    /// The owner of a fault transition: the `a`-endpoint's domain for link
    /// events, the subject switch's domain for switch events.
    fn owns_fault(&self, action: crate::fault::FaultAction) -> bool {
        use crate::fault::FaultAction::*;
        let Some(d) = &self.domain else { return true };
        let subject = match action {
            LinkDown(l) | LinkUp(l) => self.topo.link(l).a.0,
            SwitchFail(n) | SwitchRecover(n) => n,
        };
        d.of[subject.0 as usize] == d.id
    }

    /// Drain the cross-domain outbox (empty on an unpartitioned run).
    pub(crate) fn take_outbox(&mut self) -> Vec<CrossMsg> {
        match &mut self.domain {
            Some(d) => std::mem::take(&mut d.outbox),
            None => Vec::new(),
        }
    }

    /// Schedule cross-domain arrivals received at a barrier. Callers must
    /// pre-sort by the deterministic merge key; every `at` must be beyond
    /// the window just completed (guaranteed by the lookahead rule).
    pub(crate) fn inject_cross(&mut self, msgs: Vec<CrossMsg>) {
        for m in msgs {
            debug_assert!(m.at > self.now, "cross msg inside completed window");
            self.events.push(m.at, Event::Arrive { node: m.node, port: m.port, frame: m.frame });
        }
    }

    /// The host state of `node`. Only host paths (delivery, apps, TCP)
    /// call this; a switch here is an engine bug.
    fn host(&mut self, node: NodeId) -> &mut HostState {
        match &mut self.nodes[node.0 as usize].role {
            Role::Host(h) => h,
            Role::Switch(_) => unreachable!("host path on switch {node}"),
        }
    }

    /// The one drop path: count the frame under its reason, record it in
    /// the metrics registry and trace ring (both disabled by default — two
    /// predictable branches on the hot path), and recycle it.
    fn drop_frame(&mut self, node: NodeId, port: PortId, reason: DropReason, frame: Box<Frame>) {
        self.stats.count_drop(reason);
        self.metrics.counter_add_cached(
            &mut self.nodes[node.0 as usize].drops_series,
            "sim.drops",
            Labels::one("node", node.0 as u64),
            1,
        );
        self.trace.push(self.now.as_nanos(), TraceKind::Drop { node: node.0, port, reason });
        self.pool.recycle(frame);
    }

    /// A frame reached a host's transport or app.
    fn note_delivered(&mut self, node: NodeId) {
        self.stats.frames_delivered += 1;
        if let Role::Host(h) = &mut self.nodes[node.0 as usize].role {
            self.metrics.counter_add_cached(
                &mut h.delivered_series,
                "sim.frames_delivered",
                Labels::one("node", node.0 as u64),
                1,
            );
        }
    }

    /// Record a fault-plan transition in the trace ring.
    fn trace_fault(&mut self, action: crate::fault::FaultAction) {
        use crate::fault::FaultAction::*;
        let (label, subject, peer) = match action {
            LinkDown(l) => {
                let spec = self.topo.link(l);
                ("link_down", spec.a.0 .0, spec.b.0 .0)
            }
            LinkUp(l) => {
                let spec = self.topo.link(l);
                ("link_up", spec.a.0 .0, spec.b.0 .0)
            }
            SwitchFail(n) => ("switch_fail", n.0, u32::MAX),
            SwitchRecover(n) => ("switch_recover", n.0, u32::MAX),
        };
        self.metrics.counter_inc("sim.faults", Labels::none());
        self.trace
            .push(self.now.as_nanos(), TraceKind::Fault { action: label, subject, peer });
    }

    fn handle_arrive(&mut self, node: NodeId, port: PortId, mut frame: Box<Frame>) {
        if let Some(f) = &self.faults {
            // The frame was in flight when the cable was pulled, or it
            // reaches a switch that died while it propagated.
            let link = self.topo.node(node).ports[port as usize].link;
            if !f.link_is_up(link) {
                return self.drop_frame(node, port, DropReason::LinkDown, frame);
            }
            if !f.node_is_up(node) {
                return self.drop_frame(node, port, DropReason::SwitchDown, frame);
            }
        }
        let Role::Switch(sw) = &mut self.nodes[node.0 as usize].role else {
            return self.deliver_to_host(node, frame);
        };
        let ictx =
            IngressCtx { now_ns: self.now.as_nanos(), switch_id: node.0, ingress_port: port };
        match sw.program.ingress(&mut frame, &ictx) {
            IngressVerdict::Forward(eport) => {
                self.stats.frames_forwarded += 1;
                self.metrics.counter_add_cached(
                    &mut sw.forwarded_series,
                    "sim.frames_forwarded",
                    Labels::one("node", node.0 as u64),
                    1,
                );
                self.enqueue(node, eport, frame);
            }
            IngressVerdict::Drop => self.drop_frame(node, port, DropReason::DataPlane, frame),
        }
    }

    /// Place a frame on an egress queue, firing the enqueue hook and
    /// starting transmission if the port is idle.
    fn enqueue(&mut self, node: NodeId, port: PortId, frame: Box<Frame>) {
        let now_ns = self.now.as_nanos();
        let Node { ports, role, .. } = &mut self.nodes[node.0 as usize];
        let ps = &mut ports[port as usize];
        if let Role::Switch(sw) = role {
            if ps.queue.depth_pkts() < ps.queue.capacity_pkts() {
                // Fire the observation hook (BMv2 `enq_qdepth`): the number
                // of packets *ahead* of this one — an idle network reports
                // zero, so probes do not observe themselves as congestion.
                let depth_ahead = ps.queue.depth_pkts() as u32;
                let ectx = EnqueueCtx { now_ns, port, qdepth_after_pkts: depth_ahead };
                sw.program.on_enqueue(&frame, &ectx);
            }
        }
        if let Some(dropped) = ps.queue.enqueue(frame) {
            return self.drop_frame(node, port, DropReason::QueueFull, dropped);
        }
        if self.metrics.enabled() || self.trace.enabled() {
            let depth = ps.queue.depth_pkts() as u32;
            self.metrics.histogram_record_cached(
                &mut ps.depth_series,
                "sim.queue_depth_pkts",
                Labels::two("node", node.0 as u64, "port", port as u64),
                depth as u64,
            );
            self.trace.push(now_ns, TraceKind::Enqueue { node: node.0, port, depth_pkts: depth });
        }
        if !ps.transmitting {
            self.start_tx(node, port);
        }
    }

    fn handle_tx_done(&mut self, node: NodeId, port: PortId) {
        let ps = &mut self.nodes[node.0 as usize].ports[port as usize];
        ps.transmitting = false;
        if !ps.queue.is_empty() {
            self.start_tx(node, port);
        }
    }

    /// Dequeue the head frame, run egress processing, and put it on the wire.
    fn start_tx(&mut self, node: NodeId, port: PortId) {
        let now_ns = self.now.as_nanos();
        let Node { ports, role, .. } = &mut self.nodes[node.0 as usize];
        let ps = &mut ports[port as usize];
        let Some(mut frame) = ps.queue.dequeue() else { return };
        ps.transmitting = true;
        let qdepth_after = ps.queue.depth_pkts() as u32;
        let egress_rate = match role {
            Role::Switch(sw) => {
                let ectx = EgressCtx {
                    now_ns,
                    switch_id: node.0,
                    egress_port: port,
                    qdepth_at_deq_pkts: qdepth_after,
                };
                sw.program.egress(&mut frame, &ectx);
                // Pull any probe-harvest / register-reset events the egress
                // hook buffered; they are traced after the dequeue below.
                if self.trace.enabled() {
                    sw.program.drain_trace(&mut self.trace_scratch);
                }
                self.cfg.switch_egress_rate_bps
            }
            Role::Host(_) => None,
        };
        if self.trace.enabled() {
            self.trace.push(
                now_ns,
                TraceKind::Dequeue { node: node.0, port, depth_pkts: qdepth_after },
            );
            for i in 0..self.trace_scratch.len() {
                let ev = self.trace_scratch[i];
                self.trace.push(ev.at_ns, ev.kind);
            }
            self.trace_scratch.clear();
        }
        frame.meta.clear_per_hop();
        if self.account_traffic {
            // Classification reuses the frame's cached parse when present
            // (and primes it for the receiving host otherwise).
            let class = match frame.parsed() {
                Ok(p) => TrafficClass::of_parsed(&p),
                Err(_) => TrafficClass::Other,
            };
            self.accounting.record_classified(class, frame.wire_len());
        }

        let binding = self.topo.node(node).ports[port as usize];
        let link = self.topo.link(binding.link);
        // Which direction of the (bidirectional) link this transmission
        // uses — keys the per-direction loss RNG stream.
        let from_a = link.a.0 == node;
        let rate = match egress_rate {
            Some(r) => r.min(link.params.bandwidth_bps),
            None => link.params.bandwidth_bps,
        };
        let tx = SimDuration::transmission(frame.wire_len(), rate);
        let arrive_at = self.now + tx + link.params.delay;

        // The port spends the serialization time regardless of faults, so
        // queues behind a dead link drain at line rate instead of wedging.
        self.events.push(self.now + tx, Event::TxDone { node, port });

        let fault_drop = match &mut self.faults {
            None => None,
            // A failed switch drains its queues into the void.
            Some(f) if !f.node_is_up(node) => Some(DropReason::SwitchDown),
            Some(f) if !f.link_is_up(binding.link) => Some(DropReason::LinkDown),
            Some(f) => f.roll_loss(binding.link, from_a).then_some(DropReason::LinkLoss),
        };
        if let Some(reason) = fault_drop {
            return self.drop_frame(node, port, reason, frame);
        }

        // In a partitioned run, a frame bound for a foreign node crosses
        // the domain boundary through the outbox instead of the local
        // event queue; the barrier exchange re-schedules it remotely.
        if let Some(d) = &mut self.domain {
            if d.of[binding.peer.0 as usize] != d.id {
                d.outbox.push(CrossMsg {
                    at: arrive_at,
                    sent_at: self.now,
                    node: binding.peer,
                    port: binding.peer_port,
                    src_domain: d.id,
                    seq: d.seq,
                    frame,
                });
                d.seq += 1;
                return;
            }
        }
        self.events.push(
            arrive_at,
            Event::Arrive { node: binding.peer, port: binding.peer_port, frame },
        );
    }

    fn deliver_to_host(&mut self, node: NodeId, mut frame: Box<Frame>) {
        // The frame is owned locally, so app callbacks can borrow the
        // payload straight out of its buffer — no copies on delivery. Every
        // exit recycles the frame into the pool; an unparsable, misaddressed
        // or L4-less frame, or a datagram to an unbound port, dies here.
        let reason = DropReason::HostUnbound;
        let Ok(parsed) = frame.parsed() else { return self.drop_frame(node, 0, reason, frame) };
        let ip = match parsed.ip {
            Some(ip) if ip.dst == Topology::host_ip(node) => ip,
            _ => return self.drop_frame(node, 0, reason, frame),
        };

        match parsed.l4 {
            Some(L4View::Udp(udp)) => {
                let bindings = &self.host(node).udp_bindings;
                let bound = bindings.iter().rev().find(|(p, _)| *p == udp.dst_port);
                let Some(&(_, app_idx)) = bound else {
                    return self.drop_frame(node, 0, reason, frame);
                };
                self.note_delivered(node);
                let payload = parsed.payload(&frame.bytes);
                let (src, sport, dport) = (ip.src, udp.src_port, udp.dst_port);
                self.invoke_app(node, app_idx, move |app, ctx| {
                    app.on_udp(ctx, src, sport, dport, payload)
                });
                self.pool.recycle(frame);
            }
            Some(L4View::Tcp(tcp)) => {
                self.note_delivered(node);
                let now = self.now;
                self.host(node).tcp.on_segment(now, ip.src, &tcp, parsed.payload(&frame.bytes));
                self.flush_tcp(node);
                self.pool.recycle(frame);
            }
            None => self.drop_frame(node, 0, reason, frame),
        }
    }

    // ------------------------------------------------------ app plumbing

    /// Run one app callback, then apply its ops and flush TCP.
    fn invoke_app<F>(&mut self, node: NodeId, app_idx: usize, f: F)
    where
        F: FnOnce(&mut dyn App, &mut AppCtx<'_>),
    {
        let now = self.now;
        // Scratch buffer reuse; the freelist depth tracks callback
        // re-entrancy, which is shallow (delivery → TCP event → app).
        let mut ops = self.ops_free.pop().unwrap_or_default();
        let HostState { apps, rng, tcp, .. } = self.host(node);
        if let Some(app) = apps.get_mut(app_idx) {
            let mut ctx = AppCtx {
                now,
                node,
                node_ip: Topology::host_ip(node),
                rng,
                ops: &mut ops,
                next_conn: &mut tcp.next_conn,
            };
            f(app.as_mut(), &mut ctx);
        }
        self.apply_ops(node, app_idx, &mut ops);
        self.flush_tcp(node);
        ops.clear();
        self.ops_free.push(ops);
    }

    fn apply_ops(&mut self, node: NodeId, app_idx: usize, ops: &mut Vec<AppOp>) {
        let now = self.now;
        for op in ops.drain(..) {
            match op {
                AppOp::BindUdp { port } => self.host(node).udp_bindings.push((port, app_idx)),
                AppOp::SendUdp { src_port, dst, dst_port, payload } => {
                    self.send_from(node, dst, 17, src_port, dst_port, |b, f| {
                        b.udp_into(src_port, dst_port, &payload, &mut f.bytes)
                    });
                }
                AppOp::SetTimer { delay, timer_id } => {
                    self.events.push(now + delay, Event::AppTimer { node, app_idx, timer_id });
                }
                AppOp::TcpListen { port } => {
                    let h = self.host(node);
                    h.tcp.listen(port);
                    h.listener_owner.push((port, app_idx));
                }
                AppOp::TcpConnect { conn, dst, dst_port } => {
                    let h = self.host(node);
                    h.conn_owner.insert(conn, app_idx);
                    h.tcp.connect(conn, dst, dst_port, now);
                }
                AppOp::TcpSend { conn, data } => self.host(node).tcp.send(conn, &data, now),
                AppOp::TcpClose { conn } => self.host(node).tcp.close(conn, now),
            }
        }
    }

    /// Build one frame from host `node` to `dst` (stamped with the next IP
    /// id) and enqueue it on the uplink its 5-tuple selects.
    fn send_from(
        &mut self,
        node: NodeId,
        dst: Ipv4Addr,
        proto: u8,
        sport: u16,
        dport: u16,
        fill: impl FnOnce(&PacketBuilder, &mut Frame),
    ) {
        let dst_node = Topology::node_of_ip(dst).unwrap_or(NodeId(u32::MAX));
        let mut builder = PacketBuilder::between(node.0, Topology::host_ip(node), dst_node.0, dst);
        builder.ip_id = self.next_ip_id;
        self.next_ip_id = self.next_ip_id.wrapping_add(1);
        let mut frame = self.pool.take();
        fill(&builder, &mut frame);
        let uplink = self.host_uplink(node, dst, proto, sport, dport);
        self.enqueue(node, uplink, frame);
    }

    /// Egress port a host uses toward `dst` (port 0 unless multihomed with
    /// a better route). One memo read per packet; the table is filled at
    /// construction from the same `RouteTable` answers, but each entry is
    /// the full equal-cost *group*:
    ///
    /// * selection — [`EcmpSelect::Primary`] always takes the group head
    ///   (the old memoized answer); [`EcmpSelect::FlowHash`] hashes the
    ///   5-tuple across the group, same function the switches apply.
    /// * liveness — with a fault plan armed, a selected port whose link or
    ///   peer is down is skipped for the first live group member (the
    ///   bond-failover fix: the build-time memo used to pin traffic to a
    ///   dead port forever after a cable pull). When the whole group is
    ///   dead the selected port is kept — the fault drop paths account the
    ///   loss. Fault-free runs never take the liveness branch.
    fn host_uplink(&self, node: NodeId, dst: Ipv4Addr, proto: u8, sport: u16, dport: u16) -> PortId {
        let Some(group) = self.uplink_group(node, dst) else { return 0 };
        let selected = match self.cfg.ecmp {
            EcmpSelect::Primary => group[0],
            EcmpSelect::FlowHash => {
                let src = Topology::host_ip(node);
                let h = int_dataplane::flow_hash_tuple(src, dst, proto, sport, dport);
                group[(h % group.len() as u64) as usize]
            }
        };
        if self.faults.is_some() && !self.port_is_live(node, selected) {
            if let Some(&live) = group.iter().find(|&&p| self.port_is_live(node, p)) {
                return live;
            }
        }
        selected
    }

    /// The equal-cost port group a host uses toward `dst`; `None` (send on
    /// port 0) for Clos hosts, switches and unknown destinations.
    fn uplink_group(&self, node: NodeId, dst: Ipv4Addr) -> Option<&[PortId]> {
        let Role::Host(h) = &self.nodes[node.0 as usize].role else { return None };
        h.uplinks.group(Topology::node_of_ip(dst)?)
    }

    /// Whether a port's attached link and peer are currently up. Always
    /// true without a fault plan.
    fn port_is_live(&self, node: NodeId, port: PortId) -> bool {
        let Some(f) = &self.faults else { return true };
        match self.topo.node(node).ports.get(port as usize) {
            Some(pb) => f.link_is_up(pb.link) && f.node_is_up(pb.peer),
            None => false,
        }
    }

    /// Memoized *primary* egress port a host uses toward `dst` — the value
    /// the send path consults under the default [`EcmpSelect::Primary`]
    /// with no faults armed. Test accessor: regression tests pin the memo
    /// against fresh `RouteTable` answers through it.
    pub fn host_uplink_port(&self, node: NodeId, dst: Ipv4Addr) -> PortId {
        self.uplink_group(node, dst).map_or(0, |g| g[0])
    }

    /// Drain the TCP outboxes of a host until quiescent.
    fn flush_tcp(&mut self, node: NodeId) {
        loop {
            let tcp = &mut self.host(node).tcp;
            let (segments, timers, tcp_events) =
                (tcp.take_segments(), tcp.take_timer_requests(), tcp.take_events());
            if segments.is_empty() && timers.is_empty() && tcp_events.is_empty() {
                return;
            }

            for seg in segments {
                let (h, sport, dport) = (seg.header, seg.header.src_port, seg.header.dst_port);
                self.send_from(node, seg.dst_ip, 6, sport, dport, |b, f| {
                    b.tcp_into(h, &seg.payload, &mut f.bytes)
                });
            }
            for t in timers {
                self.events.push(
                    t.deadline,
                    Event::TcpTimer { node, conn: t.conn, generation: t.generation },
                );
            }
            for ev in tcp_events {
                let conn = match &ev {
                    crate::tcp::TcpEvent::Connected { conn }
                    | crate::tcp::TcpEvent::Data { conn, .. }
                    | crate::tcp::TcpEvent::Closed { conn } => *conn,
                    crate::tcp::TcpEvent::Accepted { conn, local_port, .. } => {
                        // Assign ownership to the app listening on the port.
                        let h = self.host(node);
                        let owner = h
                            .listener_owner
                            .iter()
                            .rev()
                            .find(|(p, _)| p == local_port)
                            .map(|(_, i)| *i)
                            .unwrap_or(0);
                        h.conn_owner.insert(*conn, owner);
                        *conn
                    }
                };
                let owner = self.host(node).conn_owner.get(&conn).copied();
                if let Some(app_idx) = owner {
                    self.invoke_app(node, app_idx, move |app, ctx| app.on_tcp(ctx, ev));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::App;
    use crate::tcp::TcpEvent;
    use crate::topology::LinkParams;
    use int_packet::{ProbePayload, PROBE_UDP_PORT};
    use int_packet::wire::{WireDecode, WireEncode};

    /// h1 — s1 — h2 with paper-default links.
    fn line_topo() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let s1 = t.add_switch("s1");
        let h2 = t.add_host("h2");
        t.add_link(h1, s1, LinkParams::paper_default());
        t.add_link(s1, h2, LinkParams::paper_default());
        (t, h1, s1, h2)
    }

    fn cfg() -> SimConfig {
        SimConfig { switch_egress_rate_bps: None, ..SimConfig::default() }
    }

    // ---- tiny test apps ----

    /// Sends one UDP datagram at start; records nothing.
    struct UdpSender {
        dst: Ipv4Addr,
        payload: Vec<u8>,
    }
    impl App for UdpSender {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.send_udp(5000, self.dst, 5001, self.payload.clone());
        }
    }

    /// Records every datagram arriving on port 5001 with its arrival time.
    #[derive(Default)]
    struct UdpSink {
        got: Vec<(SimTime, Vec<u8>)>,
    }
    impl App for UdpSink {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.bind_udp(5001);
        }
        fn on_udp(&mut self, ctx: &mut AppCtx<'_>, _f: Ipv4Addr, _fp: u16, _tp: u16, p: &[u8]) {
            self.got.push((ctx.now, p.to_vec()));
        }
    }

    /// The one place an app is found by type: `app`/`app_mut` answer for
    /// a host's installed app of the asked type, and for nothing else.
    #[test]
    fn app_downcasts_only_to_the_installed_type() {
        let (t, h1, s1, h2) = line_topo();
        let mut sim = Simulator::new(t, cfg());
        let sink = sim.install_app(h2, Box::new(UdpSink::default()));

        sim.app_mut::<UdpSink>(h2, sink).expect("right type").got.push((SimTime::ZERO, vec![7]));
        assert_eq!(sim.app::<UdpSink>(h2, sink).expect("right type").got.len(), 1);

        assert!(sim.app::<UdpSender>(h2, sink).is_none(), "wrong type");
        assert!(sim.app_mut::<UdpSender>(h2, sink).is_none(), "wrong type");
        assert!(sim.app::<UdpSink>(h2, sink + 1).is_none(), "index out of range");
        assert!(sim.app_mut::<UdpSink>(h2, sink + 1).is_none(), "index out of range");
        assert!(sim.app::<UdpSink>(h1, 0).is_none(), "host without apps");
        assert!(sim.app::<UdpSink>(s1, 0).is_none(), "switch");
        assert!(sim.app_mut::<UdpSink>(s1, 0).is_none(), "switch");
    }

    #[test]
    fn udp_end_to_end_latency() {
        let (t, h1, _s1, h2) = line_topo();
        let mut sim = Simulator::new(t, cfg());
        sim.install_app(h1, Box::new(UdpSender { dst: Topology::host_ip(h2), payload: vec![7; 100] }));
        let sink = sim.install_app(h2, Box::new(UdpSink::default()));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));

        let got = &sim.app::<UdpSink>(h2, sink).unwrap().got;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, vec![7; 100]);
        // Two links at 10 ms + two serializations of 142 bytes at 20 Mbit/s
        // (56.8 µs each) ⇒ slightly over 20.11 ms.
        let ms = got[0].0.as_millis_f64();
        assert!((20.1..20.2).contains(&ms), "arrival at {ms} ms");
        assert_eq!(sim.stats().frames_forwarded, 1);
        assert_eq!(sim.stats().frames_delivered, 1);
    }

    /// Probe sender: emits one INT probe at start.
    struct OneProbe {
        dst: Ipv4Addr,
    }
    impl App for OneProbe {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            let p = ProbePayload::new(ctx.node.0, 1, ctx.now.as_nanos());
            ctx.send_udp(41000, self.dst, PROBE_UDP_PORT, p.to_bytes());
        }
    }

    /// Probe sink: parses INT stacks arriving on the probe port.
    #[derive(Default)]
    struct ProbeSink {
        probes: Vec<ProbePayload>,
    }
    impl App for ProbeSink {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.bind_udp(PROBE_UDP_PORT);
        }
        fn on_udp(&mut self, _c: &mut AppCtx<'_>, _f: Ipv4Addr, _fp: u16, _tp: u16, p: &[u8]) {
            self.probes.push(ProbePayload::decode(&mut &p[..]).expect("valid probe"));
        }
    }

    #[test]
    fn probe_collects_int_through_switch() {
        let (t, h1, s1, h2) = line_topo();
        let mut sim = Simulator::new(t, cfg());
        sim.install_app(h1, Box::new(OneProbe { dst: Topology::host_ip(h2) }));
        let sink = sim.install_app(h2, Box::new(ProbeSink::default()));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));

        let probes = &sim.app::<ProbeSink>(h2, sink).unwrap().probes;
        assert_eq!(probes.len(), 1);
        let p = &probes[0];
        assert_eq!(p.origin_node, h1.0);
        assert_eq!(p.int.hop_count(), 1, "one switch on the path");
        let rec = p.int.records[0];
        assert_eq!(rec.switch_id, s1.0);
        // Link latency = 10 ms propagation + 57.6 µs serialization of the
        // 144-byte probe at 20 Mbit/s.
        let ms = rec.link_latency_ns as f64 / 1e6;
        assert!((10.0..10.2).contains(&ms), "probe measured h1→s1 at {ms} ms");
    }

    /// Client that sends `len` bytes over TCP at start and records when the
    /// transfer completes (our FIN acked).
    struct TcpClient {
        dst: Ipv4Addr,
        len: usize,
        done_at: Option<SimTime>,
    }
    impl App for TcpClient {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            let conn = ctx.tcp_connect(self.dst, 7100);
            ctx.tcp_send(conn, vec![0xAB; self.len]);
            ctx.tcp_close(conn);
        }
        fn on_tcp(&mut self, ctx: &mut AppCtx<'_>, ev: TcpEvent) {
            if matches!(ev, TcpEvent::Closed { .. }) {
                self.done_at = Some(ctx.now);
            }
        }
    }

    /// Server that counts received bytes per connection.
    #[derive(Default)]
    struct TcpServer {
        bytes: usize,
        eof_at: Option<SimTime>,
    }
    impl App for TcpServer {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.tcp_listen(7100);
        }
        fn on_tcp(&mut self, ctx: &mut AppCtx<'_>, ev: TcpEvent) {
            match ev {
                TcpEvent::Data { data, .. } => self.bytes += data.len(),
                TcpEvent::Closed { .. } => self.eof_at = Some(ctx.now),
                _ => {}
            }
        }
    }

    #[test]
    fn tcp_transfer_end_to_end() {
        let (t, h1, _s1, h2) = line_topo();
        let mut sim = Simulator::new(t, cfg());
        let len = 500_000;
        let client =
            sim.install_app(h1, Box::new(TcpClient { dst: Topology::host_ip(h2), len, done_at: None }));
        let server = sim.install_app(h2, Box::new(TcpServer::default()));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));

        let srv = sim.app::<TcpServer>(h2, server).unwrap();
        assert_eq!(srv.bytes, len, "every byte arrived exactly once");
        let eof = srv.eof_at.expect("server saw EOF");
        let done = sim.app::<TcpClient>(h1, client).unwrap().done_at.expect("client done");
        assert!(done >= eof, "client completion follows server EOF");

        // Sanity on throughput: 500 kB over a 20 Mbit/s path with 40 ms RTT
        // must land between the line-rate bound and a generous slack.
        let secs = eof.as_secs_f64();
        assert!(secs > 0.2, "can't beat line rate: {secs}");
        assert!(secs < 5.0, "transfer unreasonably slow: {secs}");
    }

    #[test]
    fn tcp_transfer_through_congested_bottleneck_still_completes() {
        // Two senders share s1→h2; drops occur; both streams stay intact.
        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let h3 = t.add_host("h3");
        let s1 = t.add_switch("s1");
        let h2 = t.add_host("h2");
        let params = LinkParams { queue_cap_pkts: 16, ..LinkParams::paper_default() };
        t.add_link(h1, s1, params);
        t.add_link(h3, s1, params);
        t.add_link(s1, h2, params);

        let mut sim = Simulator::new(t, cfg());
        let len = 300_000;
        sim.install_app(h1, Box::new(TcpClient { dst: Topology::host_ip(h2), len, done_at: None }));
        sim.install_app(h3, Box::new(TcpClient { dst: Topology::host_ip(h2), len, done_at: None }));
        let server = sim.install_app(h2, Box::new(TcpServer::default()));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));

        let srv = sim.app::<TcpServer>(h2, server).unwrap();
        assert_eq!(srv.bytes, 2 * len, "both streams delivered in full");
        assert!(sim.stats().drops_queue_full > 0, "bottleneck actually congested");
    }

    #[test]
    fn switch_egress_rate_ceiling_applies() {
        let (t, h1, _s1, h2) = line_topo();
        // Fast links, slow switch: the BMv2 model.
        let mut t2 = Topology::new();
        let g1 = t2.add_host("h1");
        let gs = t2.add_switch("s1");
        let g2 = t2.add_host("h2");
        let fast = LinkParams {
            bandwidth_bps: 1_000_000_000,
            delay: SimDuration::from_millis(10),
            queue_cap_pkts: 512,
        };
        t2.add_link(g1, gs, fast);
        t2.add_link(gs, g2, fast);

        let mk = |topo: Topology, ceiling| {
            let mut sim = Simulator::new(
                topo,
                SimConfig { switch_egress_rate_bps: ceiling, ..SimConfig::default() },
            );
            let len = 1_000_000;
            sim.install_app(NodeId(0), Box::new(TcpClient { dst: Topology::host_ip(NodeId(2)), len, done_at: None }));
            let server = sim.install_app(NodeId(2), Box::new(TcpServer::default()));
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
            sim.app::<TcpServer>(NodeId(2), server).unwrap().eof_at.expect("done").as_secs_f64()
        };

        let _ = (t, h1, h2);
        let slow = mk(t2.clone(), Some(20_000_000));
        let fast_t = mk(t2, None);
        // 1 MB cannot beat the 20 Mbit/s line-rate bound of 0.4 s; without
        // the ceiling the transfer is limited only by slow start over RTT.
        assert!(slow > 0.4, "ceiling enforces the line-rate bound: {slow}");
        assert!(slow > 1.3 * fast_t, "ceiling visibly slower: {slow} vs {fast_t}");
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed| {
            let (t, h1, _s1, h2) = line_topo();
            let mut sim = Simulator::new(t, SimConfig { seed, ..cfg() });
            sim.install_app(h1, Box::new(TcpClient { dst: Topology::host_ip(h2), len: 100_000, done_at: None }));
            let server = sim.install_app(h2, Box::new(TcpServer::default()));
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
            (
                sim.app::<TcpServer>(h2, server).unwrap().eof_at,
                sim.stats(),
            )
        };
        assert_eq!(run(7), run(7));
    }

    /// Constant-bit-rate UDP source driven by a timer.
    struct CbrUdp {
        dst: Ipv4Addr,
        dst_port: u16,
        payload: usize,
        period: SimDuration,
        until: SimTime,
    }
    impl App for CbrUdp {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.set_timer(self.period, 1);
        }
        fn on_timer(&mut self, ctx: &mut AppCtx<'_>, _id: u64) {
            if ctx.now >= self.until {
                return;
            }
            ctx.send_udp(6000, self.dst, self.dst_port, vec![0xCB; self.payload]);
            ctx.set_timer(self.period, 1);
        }
    }

    /// Determinism at experiment scale: a congested multi-host topology
    /// (two TCP streams and a CBR flow squeezed through a two-switch
    /// bottleneck with tiny queues, probes in flight) must replay an
    /// identical packet-level schedule for an identical seed — including
    /// every drop, every queue high-water mark, and every pool counter.
    #[test]
    fn congested_multi_host_replay_is_identical() {
        #[derive(Debug, PartialEq)]
        struct Fingerprint {
            stats: NetStats,
            server_bytes: usize,
            server_eof: Option<SimTime>,
            bottleneck: QueueStats,
            pool: PoolStats,
            probes: usize,
        }
        let run = |seed: u64| -> Fingerprint {
            let mut t = Topology::new();
            let h1 = t.add_host("h1");
            let h2 = t.add_host("h2");
            let s1 = t.add_switch("s1");
            let s2 = t.add_switch("s2");
            let h3 = t.add_host("h3");
            let h4 = t.add_host("h4");
            let tight = LinkParams { queue_cap_pkts: 8, ..LinkParams::paper_default() };
            t.add_link(h1, s1, tight);
            t.add_link(h2, s1, tight);
            t.add_link(s1, s2, tight); // the bottleneck
            t.add_link(s2, h3, tight);
            t.add_link(s2, h4, tight);

            let mut sim = Simulator::new(t, SimConfig { seed, ..SimConfig::default() });
            let h3_ip = Topology::host_ip(h3);
            sim.install_app(h1, Box::new(TcpClient { dst: h3_ip, len: 150_000, done_at: None }));
            sim.install_app(h2, Box::new(TcpClient { dst: h3_ip, len: 150_000, done_at: None }));
            let server = sim.install_app(h3, Box::new(TcpServer::default()));
            sim.install_app(
                h4,
                Box::new(CbrUdp {
                    dst: Topology::host_ip(h1),
                    dst_port: 5001,
                    payload: 1000,
                    period: SimDuration::from_millis(2),
                    until: SimTime::ZERO + SimDuration::from_secs(60),
                }),
            );
            sim.install_app(h1, Box::new(UdpSink::default()));
            sim.install_app(h1, Box::new(OneProbe { dst: h3_ip }));
            let probe_sink = sim.install_app(h3, Box::new(ProbeSink::default()));
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));

            let srv = sim.app::<TcpServer>(h3, server).unwrap();
            Fingerprint {
                stats: sim.stats(),
                server_bytes: srv.bytes,
                server_eof: srv.eof_at,
                bottleneck: sim.queue_stats(s1, 2),
                pool: sim.pool_stats(),
                probes: sim.app::<ProbeSink>(h3, probe_sink).unwrap().probes.len(),
            }
        };

        let a = run(42);
        let b = run(42);
        assert!(a.stats.drops_queue_full > 0, "scenario actually congests: {:?}", a.stats);
        assert_eq!(a.server_bytes, 300_000, "both TCP streams complete");
        assert_eq!(a, b, "identical seeds must replay identically");
    }

    /// Wheel-vs-heap equivalence on a congested run (DESIGN.md §5.4): the
    /// event queue mirrors every push into a reference binary heap and
    /// asserts on every pop that the timing wheel produces the exact heap
    /// order. The scenario squeezes two TCP streams and a CBR flow through
    /// a tiny-queue bottleneck (retransmission timers, bursts, drops),
    /// adds a multi-second ticker (wheel overflow + idle jumps), and a
    /// fault plan with transitions 20 s and 40 s out (far-future events
    /// resident in overflow from t=0).
    #[test]
    fn wheel_pops_in_exact_heap_order_on_congested_run() {
        /// Rearming timer whose period dwarfs the L1 horizon (~4.29 s).
        struct SlowTicker {
            period: SimDuration,
            fires: u64,
        }
        impl App for SlowTicker {
            fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
                ctx.set_timer(self.period, 0);
            }
            fn on_timer(&mut self, ctx: &mut AppCtx<'_>, _id: u64) {
                self.fires += 1;
                ctx.set_timer(self.period, 0);
            }
        }

        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let h2 = t.add_host("h2");
        let s1 = t.add_switch("s1");
        let s2 = t.add_switch("s2");
        let h3 = t.add_host("h3");
        let h4 = t.add_host("h4");
        let tight = LinkParams { queue_cap_pkts: 8, ..LinkParams::paper_default() };
        t.add_link(h1, s1, tight);
        t.add_link(h2, s1, tight);
        t.add_link(s1, s2, tight); // the bottleneck
        t.add_link(s2, h3, tight);
        t.add_link(s2, h4, tight);

        let mut sim = Simulator::new(t, SimConfig { seed: 42, ..SimConfig::default() });
        sim.events.enable_cross_check();
        let h3_ip = Topology::host_ip(h3);
        sim.install_app(h1, Box::new(TcpClient { dst: h3_ip, len: 150_000, done_at: None }));
        sim.install_app(h2, Box::new(TcpClient { dst: h3_ip, len: 150_000, done_at: None }));
        let server = sim.install_app(h3, Box::new(TcpServer::default()));
        sim.install_app(
            h4,
            Box::new(CbrUdp {
                dst: Topology::host_ip(h1),
                dst_port: 5001,
                payload: 1000,
                period: SimDuration::from_millis(2),
                until: SimTime::ZERO + SimDuration::from_secs(60),
            }),
        );
        sim.install_app(h1, Box::new(UdpSink::default()));
        let ticker =
            sim.install_app(h2, Box::new(SlowTicker { period: SimDuration::from_secs(6), fires: 0 }));
        sim.install_fault_plan(
            &FaultPlan::new()
                .link_down(s2, h4, SimTime::ZERO + SimDuration::from_secs(20))
                .link_up(s2, h4, SimTime::ZERO + SimDuration::from_secs(40)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));

        // The cross-check asserted wheel == heap on every single pop; now
        // pin that the run exercised what it claims to.
        let stats = sim.stats();
        assert!(stats.drops_queue_full > 0, "scenario actually congests: {stats:?}");
        assert!(stats.drops_link_down > 0, "fault plan actually fired: {stats:?}");
        assert_eq!(sim.app::<TcpServer>(h3, server).unwrap().bytes, 300_000);
        assert_eq!(
            sim.app::<SlowTicker>(h2, ticker).unwrap().fires,
            10,
            "overflow-resident timers fired on schedule (every 6 s up to and including t=60 s)"
        );
    }

    /// The frame pool reaches a steady state: once the in-flight
    /// population is established, a constant-rate flow allocates no new
    /// frames — every send is served from recycled buffers.
    #[test]
    fn pool_stops_allocating_at_steady_state() {
        let (t, h1, _s1, h2) = line_topo();
        let mut sim = Simulator::new(t, cfg());
        sim.install_app(
            h1,
            Box::new(CbrUdp {
                dst: Topology::host_ip(h2),
                dst_port: 5001,
                payload: 500,
                period: SimDuration::from_millis(1),
                until: SimTime::ZERO + SimDuration::from_secs(10),
            }),
        );
        sim.install_app(h2, Box::new(UdpSink::default()));

        sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        let warm = sim.pool_stats();
        assert!(warm.takes > 1000, "flow is actually running: {warm:?}");

        sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let done = sim.pool_stats();
        assert!(done.takes > 2 * warm.takes, "flow kept running: {done:?}");
        assert_eq!(done.allocs, warm.allocs, "steady state allocates nothing new");
        assert!(
            done.recycles >= done.takes - done.allocs,
            "every non-fresh take was fed by a recycle: {done:?}"
        );
    }

    /// A 100 ms CBR flow across h1—s1—h2 with the h1–s1 link cut from
    /// t=2 s to t=4 s: deliveries stop during the outage (counted as
    /// link-down drops) and resume after recovery.
    #[test]
    fn link_down_blackholes_and_recovers() {
        let (t, h1, s1, h2) = line_topo();
        let mut sim = Simulator::new(t, cfg());
        sim.install_app(
            h1,
            Box::new(CbrUdp {
                dst: Topology::host_ip(h2),
                dst_port: 5001,
                payload: 100,
                period: SimDuration::from_millis(100),
                until: SimTime::ZERO + SimDuration::from_secs(6),
            }),
        );
        let sink = sim.install_app(h2, Box::new(UdpSink::default()));
        sim.install_fault_plan(
            &FaultPlan::new()
                .link_down(h1, s1, SimTime::ZERO + SimDuration::from_secs(2))
                .link_up(h1, s1, SimTime::ZERO + SimDuration::from_secs(4)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(6));

        let stats = sim.stats();
        assert!(stats.drops_link_down >= 15, "outage visible: {stats:?}");
        let got = &sim.app::<UdpSink>(h2, sink).unwrap().got;
        let early = got.iter().filter(|(at, _)| at.as_secs_f64() < 2.0).count();
        let outage = got.iter().filter(|(at, _)| (2.1..4.0).contains(&at.as_secs_f64())).count();
        let late = got.iter().filter(|(at, _)| at.as_secs_f64() > 4.1).count();
        assert!(early >= 15, "pre-failure deliveries: {early}");
        assert_eq!(outage, 0, "nothing crosses a dead link");
        assert!(late >= 15, "deliveries resume after recovery: {late}");
    }

    /// Satellite-1 regression: a dual-homed host pinned its traffic to the
    /// build-time primary uplink even after that cable was pulled,
    /// blackholing everything despite a healthy equal-cost second uplink.
    /// Uplink choice must re-resolve against live fault state.
    #[test]
    fn dual_homed_host_fails_over_to_live_uplink_on_cable_pull() {
        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let s1 = t.add_switch("s1");
        let s2 = t.add_switch("s2");
        let h2 = t.add_host("h2");
        t.add_link(h1, s1, LinkParams::paper_default());
        t.add_link(h1, s2, LinkParams::paper_default());
        t.add_link(s1, h2, LinkParams::paper_default());
        t.add_link(s2, h2, LinkParams::paper_default());
        let mut sim = Simulator::new(t, cfg());
        sim.install_app(
            h1,
            Box::new(CbrUdp {
                dst: Topology::host_ip(h2),
                dst_port: 5001,
                payload: 100,
                period: SimDuration::from_millis(100),
                until: SimTime::ZERO + SimDuration::from_secs(6),
            }),
        );
        let sink = sim.install_app(h2, Box::new(UdpSink::default()));
        sim.install_fault_plan(
            &FaultPlan::new()
                .link_down(h1, s1, SimTime::ZERO + SimDuration::from_secs(2))
                .link_up(h1, s1, SimTime::ZERO + SimDuration::from_secs(4)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(6));

        let got = &sim.app::<UdpSink>(h2, sink).unwrap().got;
        let early = got.iter().filter(|(at, _)| at.as_secs_f64() < 2.0).count();
        let outage = got.iter().filter(|(at, _)| (2.1..4.0).contains(&at.as_secs_f64())).count();
        let late = got.iter().filter(|(at, _)| at.as_secs_f64() > 4.1).count();
        assert!(early >= 15, "pre-failure deliveries: {early}");
        assert!(outage >= 15, "failover keeps the flow alive through the outage: {outage}");
        assert!(late >= 15, "deliveries continue after recovery: {late}");
        // At most the frame in flight at the instant of the cut dies on
        // the downed link — the host must stop *selecting* it.
        assert!(sim.stats().drops_link_down <= 1, "{:?}", sim.stats());
    }

    /// With no second uplink the old blackholing behaviour is preserved —
    /// the failover experiments depend on single-homed hosts going dark.
    #[test]
    fn single_homed_host_still_blackholes_when_its_only_uplink_dies() {
        let (t, h1, s1, h2) = line_topo();
        let mut sim = Simulator::new(t, cfg());
        sim.install_app(
            h1,
            Box::new(CbrUdp {
                dst: Topology::host_ip(h2),
                dst_port: 5001,
                payload: 100,
                period: SimDuration::from_millis(100),
                until: SimTime::ZERO + SimDuration::from_secs(4),
            }),
        );
        let sink = sim.install_app(h2, Box::new(UdpSink::default()));
        sim.install_fault_plan(
            &FaultPlan::new().link_down(h1, s1, SimTime::ZERO + SimDuration::from_secs(2)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(4));
        let got = &sim.app::<UdpSink>(h2, sink).unwrap().got;
        let outage = got.iter().filter(|(at, _)| at.as_secs_f64() > 2.1).count();
        assert_eq!(outage, 0, "no live member to fail over to");
        assert!(sim.stats().drops_link_down >= 15);
    }

    #[test]
    fn switch_fail_drops_everything_until_recovery() {
        let (t, h1, s1, h2) = line_topo();
        let mut sim = Simulator::new(t, cfg());
        sim.install_app(
            h1,
            Box::new(CbrUdp {
                dst: Topology::host_ip(h2),
                dst_port: 5001,
                payload: 100,
                period: SimDuration::from_millis(100),
                until: SimTime::ZERO + SimDuration::from_secs(6),
            }),
        );
        let sink = sim.install_app(h2, Box::new(UdpSink::default()));
        sim.install_fault_plan(
            &FaultPlan::new()
                .switch_fail(s1, SimTime::ZERO + SimDuration::from_secs(2))
                .switch_recover(s1, SimTime::ZERO + SimDuration::from_secs(4)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(6));

        let stats = sim.stats();
        assert!(stats.drops_switch_down >= 15, "dead switch drops frames: {stats:?}");
        assert_eq!(stats.drops_link_down, 0, "attributed to the switch, not the link");
        let got = &sim.app::<UdpSink>(h2, sink).unwrap().got;
        let outage = got.iter().filter(|(at, _)| (2.1..4.0).contains(&at.as_secs_f64())).count();
        let late = got.iter().filter(|(at, _)| at.as_secs_f64() > 4.1).count();
        assert_eq!(outage, 0, "nothing traverses a failed switch");
        assert!(late >= 15, "forwarding resumes on recovery: {late}");
    }

    #[test]
    fn total_link_loss_drops_every_frame() {
        let (t, h1, s1, h2) = line_topo();
        let mut sim = Simulator::new(t, cfg());
        sim.install_app(
            h1,
            Box::new(CbrUdp {
                dst: Topology::host_ip(h2),
                dst_port: 5001,
                payload: 100,
                period: SimDuration::from_millis(100),
                until: SimTime::ZERO + SimDuration::from_secs(2),
            }),
        );
        let sink = sim.install_app(h2, Box::new(UdpSink::default()));
        sim.install_fault_plan(&FaultPlan::new().link_loss(h1, s1, 1.0));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(3));

        assert!(sim.stats().drops_link_loss >= 15, "{:?}", sim.stats());
        assert!(sim.app::<UdpSink>(h2, sink).unwrap().got.is_empty());
    }

    #[test]
    fn partial_loss_replays_identically_and_recycles_frames() {
        let run = |seed: u64| {
            let (t, h1, s1, h2) = line_topo();
            let mut sim = Simulator::new(t, SimConfig { seed, ..cfg() });
            sim.install_app(
                h1,
                Box::new(CbrUdp {
                    dst: Topology::host_ip(h2),
                    dst_port: 5001,
                    payload: 100,
                    period: SimDuration::from_millis(20),
                    until: SimTime::ZERO + SimDuration::from_secs(5),
                }),
            );
            let sink = sim.install_app(h2, Box::new(UdpSink::default()));
            sim.install_fault_plan(&FaultPlan::new().link_loss(h1, s1, 0.3));
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(6));
            (sim.stats(), sim.pool_stats(), sim.app::<UdpSink>(h2, sink).unwrap().got.len())
        };
        let (stats, pool, delivered) = run(11);
        assert!(stats.drops_link_loss > 30, "loss actually biting: {stats:?}");
        assert!(delivered > 100, "most frames still get through: {delivered}");
        assert!(
            pool.recycles >= stats.drops_link_loss,
            "every lost frame went back to the pool: {pool:?} vs {stats:?}"
        );
        assert_eq!((stats, pool, delivered), run(11), "identical seeds replay identically");
    }

    /// Observability layer end-to-end: disabled by default (no series, no
    /// events), captures queue/drop/fault/harvest events once enabled, and
    /// renders byte-identical JSON for identical seeds.
    #[test]
    fn observability_is_off_by_default_and_deterministic_when_on() {
        use int_obs::TraceKind;

        let run = |instrument: bool| {
            let (t, h1, s1, h2) = line_topo();
            let mut sim = Simulator::new(t, cfg());
            if instrument {
                sim.set_metrics_enabled(true);
                sim.set_tracing(true);
            }
            sim.install_app(
                h1,
                Box::new(CbrUdp {
                    dst: Topology::host_ip(h2),
                    dst_port: 5001,
                    payload: 100,
                    period: SimDuration::from_millis(100),
                    until: SimTime::ZERO + SimDuration::from_secs(3),
                }),
            );
            sim.install_app(h2, Box::new(UdpSink::default()));
            sim.install_app(h1, Box::new(OneProbe { dst: Topology::host_ip(h2) }));
            sim.install_app(h2, Box::new(ProbeSink::default()));
            sim.install_fault_plan(
                &FaultPlan::new()
                    .link_down(h1, s1, SimTime::ZERO + SimDuration::from_secs(1))
                    .link_up(h1, s1, SimTime::ZERO + SimDuration::from_secs(2)),
            );
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(3));
            sim
        };

        let dark = run(false);
        assert_eq!(dark.metrics().series(), 0, "disabled registry stays empty");
        assert_eq!(dark.trace_ring().seen(), 0, "disabled ring sees nothing");

        let lit = run(true);
        assert!(
            lit.metrics().counter("sim.frames_delivered", Labels::one("node", 2)) > 10,
            "deliveries counted per node"
        );
        assert!(
            lit.metrics().counter("sim.drops", Labels::one("node", 0)) > 0,
            "link-down drops counted at the transmitting node"
        );
        let kinds: Vec<&'static str> = lit.trace_ring().iter().map(|e| e.kind.label()).collect();
        for expected in ["enqueue", "dequeue", "drop", "fault", "probe_harvest", "register_reset"] {
            assert!(kinds.contains(&expected), "ring holds a {expected} event: {kinds:?}");
        }
        assert!(
            lit.trace_ring().iter().any(|e| matches!(
                e.kind,
                TraceKind::Fault { action: "link_down", subject: 0, peer: 1 }
            )),
            "fault event names the link endpoints"
        );

        // Same seed ⇒ byte-identical exports.
        let again = run(true);
        assert_eq!(lit.metrics().snapshot_json(), again.metrics().snapshot_json());
        assert_eq!(lit.trace_ring().to_json(), again.trace_ring().to_json());

        // Engine behaviour is identical with and without instrumentation.
        assert_eq!(dark.stats(), lit.stats(), "observability never perturbs the schedule");
    }

    /// The record sites keep their series ids across a dark spell. A run
    /// lit over seconds 1 and 3 (dark while the link is down in between)
    /// must hold exactly those two windows' records: the snapshot a fresh
    /// accumulator builds through the keyed API (`merge`) from a run lit
    /// only for the first window and a run lit only for the last.
    #[test]
    fn re_enabling_metrics_mid_run_resumes_the_same_series() {
        let run = |lit: [bool; 3]| {
            let (t, h1, s1, h2) = line_topo();
            let mut sim = Simulator::new(t, cfg());
            sim.install_app(
                h1,
                Box::new(CbrUdp {
                    dst: Topology::host_ip(h2),
                    dst_port: 5001,
                    payload: 100,
                    period: SimDuration::from_millis(100),
                    until: SimTime::ZERO + SimDuration::from_secs(3),
                }),
            );
            sim.install_app(h2, Box::new(UdpSink::default()));
            sim.install_fault_plan(
                &FaultPlan::new()
                    .link_down(h1, s1, SimTime::ZERO + SimDuration::from_secs(1))
                    .link_up(h1, s1, SimTime::ZERO + SimDuration::from_secs(2)),
            );
            for (second, on) in (1..).zip(lit) {
                sim.set_metrics_enabled(on);
                sim.run_until(SimTime::ZERO + SimDuration::from_secs(second));
            }
            sim
        };
        let (first, last) = (run([true, false, false]), run([false, false, true]));
        assert!(first.metrics().series() > 0 && last.metrics().series() > 0);
        let mut reference = MetricsRegistry::new();
        reference.merge(first.metrics());
        reference.merge(last.metrics());

        let relit = run([true, false, true]);
        assert_eq!(relit.metrics().snapshot_json(), reference.snapshot_json());
        let drops = |sim: &Simulator| sim.metrics().counter("sim.drops", Labels::one("node", 0));
        let whole = run([true, true, true]);
        assert!(
            drops(&relit) + 5 < drops(&whole),
            "most link-down drops fell in the dark second"
        );
    }

    #[test]
    fn misaddressed_udp_is_dropped_at_host() {
        let (t, h1, _s1, h2) = line_topo();
        let mut sim = Simulator::new(t, cfg());
        // No app bound on h2's port 5001.
        sim.install_app(h1, Box::new(UdpSender { dst: Topology::host_ip(h2), payload: vec![1] }));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(sim.stats().drops_host, 1);
        assert_eq!(sim.stats().frames_delivered, 0);
    }

    /// Trace events carry the full 16-bit port: on a 300-port switch the
    /// datagram to the last host is enqueued on port 299, not 299 mod 256.
    #[test]
    fn trace_events_name_ports_above_255() {
        let mut t = Topology::new();
        let hosts: Vec<NodeId> = (0..300).map(|i| t.add_host(format!("h{i}"))).collect();
        let s = t.add_switch("s");
        for &h in &hosts {
            t.add_link(h, s, LinkParams::paper_default());
        }
        let mut sim = Simulator::new(t, cfg());
        sim.set_tracing(true);
        let last = hosts[299];
        let sender = UdpSender { dst: Topology::host_ip(last), payload: vec![1] };
        sim.install_app(hosts[0], Box::new(sender));
        let sink = sim.install_app(last, Box::new(UdpSink::default()));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));

        assert_eq!(sim.app::<UdpSink>(last, sink).unwrap().got.len(), 1);
        let switch_enqueues: Vec<u16> = sim
            .trace_ring()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::Enqueue { node, port, .. } if node == s.0 => Some(port),
                _ => None,
            })
            .collect();
        assert_eq!(switch_enqueues, vec![299]);
    }

    /// Every drop is counted once, under its reason, in all three places:
    /// `NetStats`, the per-node `sim.drops` series and the trace ring. The
    /// run congests a bottleneck, loses frames on a lossy link, cuts a
    /// link, fails a switch, and sends to an unknown address and to an
    /// unbound port, so all six reasons occur.
    #[test]
    fn drops_agree_across_stats_metrics_and_trace() {
        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let h2 = t.add_host("h2");
        let s1 = t.add_switch("s1");
        let s2 = t.add_switch("s2");
        let h3 = t.add_host("h3");
        let h4 = t.add_host("h4");
        let tight = LinkParams { queue_cap_pkts: 8, ..LinkParams::paper_default() };
        t.add_link(h1, s1, tight);
        t.add_link(h2, s1, tight);
        t.add_link(s1, s2, tight); // the bottleneck
        t.add_link(s2, h3, tight);
        t.add_link(s2, h4, tight);
        let nodes = t.nodes.len() as u64;

        let mut sim = Simulator::new(t, SimConfig::default());
        sim.set_metrics_enabled(true);
        *sim.trace_ring_mut() = TraceRing::new(1 << 20);
        sim.set_tracing(true);
        let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
        let cbr = |dst: Ipv4Addr, dst_port: u16, period_ms: u64| CbrUdp {
            dst,
            dst_port,
            payload: 1400,
            period: SimDuration::from_millis(period_ms),
            until: at(4_000),
        };
        let h3_ip = Topology::host_ip(h3);
        sim.install_app(h1, Box::new(cbr(h3_ip, 5001, 1)));
        sim.install_app(h2, Box::new(cbr(h3_ip, 5001, 1)));
        sim.install_app(h4, Box::new(cbr(h3_ip, 7000, 20))); // nobody binds 7000
        sim.install_app(h4, Box::new(cbr(Ipv4Addr::new(10, 200, 0, 1), 5001, 50))); // no route
        sim.install_app(h3, Box::new(UdpSink::default()));
        sim.install_fault_plan(
            &FaultPlan::new()
                .link_loss(s2, h3, 0.05)
                .link_down(h4, s2, at(1_000))
                .link_up(h4, s2, at(2_000))
                .switch_fail(s2, at(3_000))
                .switch_recover(s2, at(3_200)),
        );
        sim.run_until(at(5_000));

        let stats = sim.stats();
        assert_eq!(sim.trace_ring().evicted(), 0, "the ring holds every event");
        let per_node: u64 = (0..nodes)
            .map(|n| sim.metrics().counter("sim.drops", Labels::one("node", n)))
            .sum();
        assert_eq!(per_node, stats.total_drops());
        let traced = |reason: DropReason| {
            let drops = sim.trace_ring().iter().filter(|e| match e.kind {
                TraceKind::Drop { reason: r, .. } => r == reason,
                _ => false,
            });
            drops.count() as u64
        };
        for (reason, counted) in [
            (DropReason::QueueFull, stats.drops_queue_full),
            (DropReason::DataPlane, stats.drops_dataplane),
            (DropReason::HostUnbound, stats.drops_host),
            (DropReason::LinkDown, stats.drops_link_down),
            (DropReason::SwitchDown, stats.drops_switch_down),
            (DropReason::LinkLoss, stats.drops_link_loss),
        ] {
            assert!(counted > 0, "{reason:?} occurs: {stats:?}");
            assert_eq!(traced(reason), counted, "{reason:?}");
        }
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::app::App;
    use crate::topology::LinkParams;

    struct Beeper {
        beeps: u32,
    }
    impl App for Beeper {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.set_timer(SimDuration::from_millis(50), 1);
        }
        fn on_timer(&mut self, ctx: &mut AppCtx<'_>, _id: u64) {
            self.beeps += 1;
            ctx.set_timer(SimDuration::from_millis(50), 1);
        }
    }

    fn tiny() -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let h2 = t.add_host("h2");
        t.add_link(h1, h2, LinkParams::paper_default());
        (t, h1, h2)
    }

    #[test]
    fn run_until_advances_relative_time() {
        let (t, h1, _h2) = tiny();
        let mut sim = Simulator::new(t, SimConfig::default());
        let idx = sim.install_app(h1, Box::new(Beeper { beeps: 0 }));
        sim.run_until(sim.now() + SimDuration::from_millis(500));
        sim.run_until(sim.now() + SimDuration::from_millis(500));
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(sim.app::<Beeper>(h1, idx).unwrap().beeps, 20);
    }

    #[test]
    fn install_app_after_start_runs_on_start() {
        let (t, h1, _h2) = tiny();
        let mut sim = Simulator::new(t, SimConfig::default());
        sim.run_until(sim.now() + SimDuration::from_millis(100));
        let idx = sim.install_app(h1, Box::new(Beeper { beeps: 0 }));
        sim.run_until(sim.now() + SimDuration::from_millis(250));
        // Installed at t=100ms, timers at 150/200/250/300(in flight): ≥4 beeps.
        assert!(sim.app::<Beeper>(h1, idx).unwrap().beeps >= 4);
    }

    #[test]
    #[should_panic(expected = "cannot install an app on a switch")]
    fn installing_app_on_switch_panics() {
        let mut t = Topology::new();
        let h1 = t.add_host("h1");
        let s1 = t.add_switch("s1");
        t.add_link(h1, s1, LinkParams::paper_default());
        let mut sim = Simulator::new(t, SimConfig::default());
        sim.install_app(s1, Box::new(Beeper { beeps: 0 }));
    }
}
