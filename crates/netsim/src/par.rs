//! Conservative parallel execution over latency-partitioned domains.
//!
//! [`ParSim`] runs one [`Simulator`] per [`DomainPartition`] domain, each
//! on its own scoped thread, in lockstep *barrier windows* of the
//! partition's lookahead `L` (the minimum propagation delay over every
//! cut link). Within a window `[cur, cur + L - 1]` no domain can be
//! affected by a frame another domain transmits in the same window — the
//! frame arrives at `sent_at + tx + delay ≥ sent_at + L > window end` —
//! so each domain may process its local events independently and
//! exchange the frames that crossed a boundary at the barrier.
//!
//! Determinism: cross-domain frames carry a `(at, sent_at, src_domain,
//! seq)` key; every domain sorts the batch it receives at a barrier by
//! that key before scheduling, so injection order — and therefore the
//! event queue's tie-break order among same-instant arrivals — is a pure
//! function of the traffic, not of thread scheduling. Same-seed runs are
//! byte-identical across domain counts and to the single-thread oracle
//! (DESIGN.md §5.9 gives the argument; the test below enforces it).
//!
//! The caller names the domain count; `1` collapses to a plain
//! single-thread simulator with zero overhead.

use crate::app::App;
use crate::domain::DomainPartition;
use crate::engine::{CrossMsg, DomainCtx, SimConfig, Simulator};
use crate::fault::FaultPlan;
use crate::routing::{ClosRoutes, RouteTable, Routes};
use crate::stats::NetStats;
use crate::time::SimTime;
use crate::topology::{NodeId, Topology};
use int_obs::json::JsonBuf;
use int_obs::MetricsRegistry;
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Barrier};

/// A partitioned simulation: one engine per domain, run in conservative
/// lockstep windows. With one domain it degenerates to a plain
/// [`Simulator`] (no threads, no barriers, no ownership checks).
pub struct ParSim {
    sims: Vec<Simulator>,
    part: DomainPartition,
    now: SimTime,
    /// Accumulator [`ParSim::metrics_snapshot_into`] refolds the domains'
    /// registries into, kept so each epoch's export reuses its tables.
    merged: MetricsRegistry,
}

impl ParSim {
    /// Partitioned simulator over a dense route table (computed once,
    /// shared by every domain).
    pub fn new(topo: Topology, cfg: SimConfig, domains: u16) -> ParSim {
        topo.validate().expect("invalid topology");
        let routes = Routes::Table(RouteTable::compute(&topo));
        Self::build(Arc::new(topo), &routes, cfg, domains)
    }

    /// Partitioned simulator over structural Clos routes (the giant-run
    /// configuration: no dense table is ever materialized).
    pub fn new_clos(topo: Topology, clos: ClosRoutes, cfg: SimConfig, domains: u16) -> ParSim {
        topo.validate().expect("invalid topology");
        Self::build(Arc::new(topo), &Routes::Clos(clos), cfg, domains)
    }

    fn build(topo: Arc<Topology>, routes: &Routes, cfg: SimConfig, want: u16) -> ParSim {
        let part = DomainPartition::compute(&topo, want);
        debug_assert!(part.validate(&topo).is_ok());
        let sims = if part.domains == 1 {
            vec![Simulator::build(topo, routes, cfg, None)]
        } else {
            let of = Arc::new(part.domain_of.clone());
            (0..part.domains)
                .map(|d| {
                    Simulator::build(
                        topo.clone(),
                        routes,
                        cfg,
                        Some(DomainCtx::new(d, of.clone())),
                    )
                })
                .collect()
        };
        ParSim { sims, part, now: SimTime::ZERO, merged: MetricsRegistry::new() }
    }

    /// The partition in effect (1 domain means single-thread execution).
    pub fn partition(&self) -> &DomainPartition {
        &self.part
    }

    /// Number of engines actually running.
    pub fn domains(&self) -> u16 {
        self.part.domains
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The engine owning `node`.
    fn sim_of(&self, node: NodeId) -> usize {
        if self.sims.len() == 1 { 0 } else { self.part.domain(node) as usize }
    }

    /// Install an application on its owner domain's engine. The returned
    /// index is scoped to that engine — pass it back to [`ParSim::app`].
    pub fn install_app(&mut self, node: NodeId, app: Box<dyn App>) -> usize {
        let d = self.sim_of(node);
        self.sims[d].install_app(node, app)
    }

    /// Install a fault plan into *every* domain: each engine mirrors the
    /// state transitions (its local liveness checks need them), while
    /// counting and tracing stay owner-only so merged stats match the
    /// single-thread oracle.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        for sim in &mut self.sims {
            sim.install_fault_plan(plan);
        }
    }

    /// Downcast an installed app's state for inspection.
    pub fn app<T: App>(&self, node: NodeId, app_idx: usize) -> Option<&T> {
        self.sims[self.sim_of(node)].app(node, app_idx)
    }

    /// Enable (or disable) trace recording in every domain. Test accessor:
    /// `partitioned_runs_match_the_single_thread_oracle` compares the
    /// domains' canonical traces with the single-loop one.
    pub fn set_tracing(&mut self, on: bool) {
        for sim in &mut self.sims {
            sim.set_tracing(on);
        }
    }

    /// Enable (or disable) metrics recording in every domain.
    pub fn set_metrics_enabled(&mut self, on: bool) {
        for sim in &mut self.sims {
            sim.set_metrics_enabled(on);
        }
    }

    /// The per-domain engines, mutably. Test accessor: the trace oracle
    /// test sizes and drains each domain's ring through it. Mutating
    /// topology-level state through this asymmetrically across domains
    /// breaks the determinism contract.
    pub fn sims_mut(&mut self) -> &mut [Simulator] {
        &mut self.sims
    }

    /// Read-only view of the per-domain engines.
    pub fn sims(&self) -> &[Simulator] {
        &self.sims
    }

    /// Merged ground-truth counters: the exact fieldwise sum of every
    /// domain (fault events are counted owner-only, so nothing is
    /// double-counted).
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for sim in &self.sims {
            total.merge(&sim.stats());
        }
        total
    }

    /// Total pending events across domains (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.sims.iter().map(|s| s.pending_events()).sum()
    }

    /// Merged metrics: every domain's registry folded into one (counters
    /// sum, histograms merge fieldwise, gauges keep the latest sample).
    pub fn merged_metrics(&self) -> MetricsRegistry {
        let mut out = MetricsRegistry::new();
        for sim in &self.sims {
            out.merge(sim.metrics());
        }
        out
    }

    /// Render the merged metrics snapshot as the next value in `j` — the
    /// bytes `merged_metrics().snapshot_json()` would produce, without
    /// building a registry per call: a single domain's registry is
    /// rendered in place, several are refolded into a kept accumulator.
    pub fn metrics_snapshot_into(&mut self, j: &mut JsonBuf) {
        if let [sim] = &self.sims[..] {
            return sim.metrics().snapshot_into(j);
        }
        self.merged.clear();
        for sim in &self.sims {
            self.merged.merge(sim.metrics());
        }
        self.merged.snapshot_into(j);
    }

    /// Run every domain until simulated time `t` (inclusive).
    ///
    /// Multi-domain runs proceed in lockstep windows of the lookahead:
    /// each thread runs its engine to the window end, publishes its
    /// outbound cross-domain frames (one batch per peer, always sent,
    /// possibly empty), receives exactly one batch from every peer, sorts
    /// the union by the deterministic merge key, schedules it, and waits
    /// at the barrier. The bounded channels hold at most one window's
    /// batches, so memory stays O(domains² + in-flight frames).
    pub fn run_until(&mut self, t: SimTime) {
        assert!(t >= self.now, "time went backwards");
        if self.sims.len() == 1 {
            self.sims[0].run_until(t);
            self.now = t;
            return;
        }
        let n = self.sims.len();
        let la = self.part.lookahead.as_nanos();
        assert!(la > 0, "zero lookahead cannot advance");
        let start = self.now.as_nanos();
        let end = t.as_nanos();

        let barrier = Barrier::new(n);
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = sync_channel::<Vec<CrossMsg>>(n);
            txs.push(tx);
            rxs.push(rx);
        }
        let domain_of: &[u16] = &self.part.domain_of;
        std::thread::scope(|s| {
            for (i, (sim, rx)) in self.sims.iter_mut().zip(rxs).enumerate() {
                let txs = txs.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    let mut cur = start;
                    loop {
                        let w_end = cur.saturating_add(la - 1).min(end);
                        sim.run_until(SimTime(w_end));

                        let mut buckets: Vec<Vec<CrossMsg>> = (0..n).map(|_| Vec::new()).collect();
                        for m in sim.take_outbox() {
                            buckets[domain_of[m.node.0 as usize] as usize].push(m);
                        }
                        for (j, b) in buckets.into_iter().enumerate() {
                            if j != i {
                                txs[j].send(b).expect("peer domain hung up");
                            } else {
                                debug_assert!(b.is_empty(), "outbox held a local frame");
                            }
                        }
                        let mut pending: Vec<CrossMsg> = Vec::new();
                        for _ in 0..n - 1 {
                            pending.extend(rx.recv().expect("peer domain hung up"));
                        }
                        pending.sort_by_key(|m| (m.at, m.sent_at, m.src_domain, m.seq));
                        sim.inject_cross(pending);

                        // The barrier separates windows: nobody starts
                        // window k+1 (and sends its batches) until every
                        // domain has drained window k's batches.
                        barrier.wait();
                        if w_end >= end {
                            break;
                        }
                        cur = w_end + 1;
                    }
                });
            }
        });
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppCtx;
    use crate::fault::FaultPlan;
    use crate::time::SimDuration;
    use crate::topology::{ClosParams, LinkParams};
    use int_dataplane::EcmpSelect;
    use int_obs::trace::{canonical_order, render_events_json};
    use int_obs::TraceRing;
    use std::net::Ipv4Addr;

    /// CBR sender: a datagram to `dst` every `period`, forever.
    struct Blaster {
        dst: Ipv4Addr,
        period: SimDuration,
        sent: u64,
    }

    impl App for Blaster {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.bind_udp(7000);
            ctx.set_timer(self.period, 1);
        }
        fn on_timer(&mut self, ctx: &mut AppCtx<'_>, _timer_id: u64) {
            ctx.send_udp(7000, self.dst, 7000, vec![0xAB; 400]);
            self.sent += 1;
            ctx.set_timer(self.period, 1);
        }
    }

    /// Counts datagrams received on port 7000.
    #[derive(Default)]
    struct Sink {
        got: u64,
    }

    impl App for Sink {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.bind_udp(7000);
        }
        fn on_udp(
            &mut self,
            _ctx: &mut AppCtx<'_>,
            _from: Ipv4Addr,
            _from_port: u16,
            _to_port: u16,
            _payload: &[u8],
        ) {
            self.got += 1;
        }
    }

    /// A congested, fault-injected tiered Clos scenario: every host on
    /// leaves 0..2 blasts a partner two leaves over (all traffic crosses
    /// the spine tier, i.e. every potential domain cut), one uplink flaps,
    /// and one lossy period is active. Narrow queues force drops.
    fn scenario() -> (Topology, Vec<(NodeId, NodeId)>, FaultPlan) {
        let host = LinkParams {
            bandwidth_bps: 100_000_000,
            delay: SimDuration::from_nanos(50_000),
            queue_cap_pkts: 8,
        };
        let uplink = LinkParams {
            bandwidth_bps: 200_000_000,
            delay: SimDuration::from_millis(2),
            queue_cap_pkts: 8,
        };
        let params = ClosParams { spines: 2, leaves: 4, hosts_per_leaf: 3, link: host };
        let fabric = params.build_tiered(uplink);
        let hosts = fabric.hosts.clone();
        let pairs: Vec<(NodeId, NodeId)> = (0..6)
            .map(|i| (hosts[i], hosts[i + 6]))
            .collect();

        // Flap the leaf0–spine0 uplink mid-run and make both of leaf2's
        // uplinks lossy — every flow into leaf2 crosses one of them, so
        // the loss path fires regardless of how flows hash.
        let (leaves, spines) = (&fabric.tiers[0], &fabric.tiers[1]);
        let plan = FaultPlan::new()
            .link_down(leaves[0], spines[0], SimTime(SimDuration::from_millis(20).as_nanos()))
            .link_up(leaves[0], spines[0], SimTime(SimDuration::from_millis(60).as_nanos()))
            .link_loss(leaves[2], spines[0], 0.2)
            .link_loss(leaves[2], spines[1], 0.2);
        (fabric.topo, pairs, plan)
    }

    fn run_par(domains: u16) -> (NetStats, String, String, u64) {
        let (topo, pairs, plan) = scenario();
        let cfg = SimConfig { seed: 77, ecmp: EcmpSelect::FlowHash, ..SimConfig::default() };
        let mut sim = ParSim::new(topo, cfg, domains);
        if domains > 1 {
            assert_eq!(sim.domains(), domains, "scenario must actually split");
        }
        sim.install_fault_plan(&plan);
        for sim_ in sim.sims_mut() {
            *sim_.trace_ring_mut() = TraceRing::new(1 << 20);
        }
        sim.set_tracing(true);
        sim.set_metrics_enabled(true);
        let mut sinks = Vec::new();
        for &(src, dst) in &pairs {
            sim.install_app(
                src,
                Box::new(Blaster {
                    dst: Topology::host_ip(dst),
                    period: SimDuration::from_nanos(200_000),
                    sent: 0,
                }),
            );
            sinks.push((dst, sim.install_app(dst, Box::new(Sink::default()))));
        }
        sim.run_until(SimTime(SimDuration::from_millis(80).as_nanos()));

        let delivered: u64 =
            sinks.iter().map(|&(n, i)| sim.app::<Sink>(n, i).unwrap().got).sum();
        let metrics = sim.merged_metrics().snapshot_json();
        // The epoch export's in-place rendering is the same bytes, on a
        // cold accumulator and on a warm one.
        for _ in 0..2 {
            let mut j = JsonBuf::new();
            sim.metrics_snapshot_into(&mut j);
            assert_eq!(j.as_str(), metrics);
        }
        let (mut events, mut seen, mut evicted) = (Vec::new(), 0u64, 0u64);
        for sim_ in sim.sims_mut() {
            let ring = sim_.trace_ring_mut();
            assert_eq!(ring.evicted(), 0, "ring too small for byte-equality");
            seen += ring.seen();
            evicted += ring.evicted();
            events.extend(ring.take_events());
        }
        canonical_order(&mut events);
        let trace = render_events_json(seen, evicted, &events);
        (sim.stats(), metrics, trace, delivered)
    }

    /// The tentpole determinism contract: a congested, fault-injected run
    /// produces identical stats, metrics, and canonical traces at 1, 2,
    /// and 4 domains.
    #[test]
    fn partitioned_runs_match_the_single_thread_oracle() {
        let (s1, m1, t1, d1) = run_par(1);
        assert!(s1.frames_delivered > 500, "scenario is too quiet: {s1:?}");
        assert!(s1.total_drops() > 0, "scenario must congest");
        assert!(s1.drops_link_loss > 0, "loss must fire");
        assert!(d1 > 0);
        for domains in [2u16, 4] {
            let (s, m, t, d) = run_par(domains);
            assert_eq!(s, s1, "stats diverge at {domains} domains");
            assert_eq!(m, m1, "metrics diverge at {domains} domains");
            assert_eq!(t, t1, "trace diverges at {domains} domains");
            assert_eq!(d, d1, "deliveries diverge at {domains} domains");
        }
    }

    /// Cross-window scheduling: repeated short `run_until` calls (epoch
    /// style) land on the same artifacts as one long call.
    #[test]
    fn epoch_stepping_matches_one_shot() {
        let run = |steps: u64| -> (NetStats, String) {
            let (topo, pairs, plan) = scenario();
            let cfg = SimConfig { seed: 9, ecmp: EcmpSelect::FlowHash, ..SimConfig::default() };
            let mut sim = ParSim::new(topo, cfg, 2);
            sim.install_fault_plan(&plan);
            sim.set_metrics_enabled(true);
            for &(src, dst) in &pairs {
                sim.install_app(
                    src,
                    Box::new(Blaster {
                        dst: Topology::host_ip(dst),
                        period: SimDuration::from_nanos(500_000),
                        sent: 0,
                    }),
                );
            }
            let end = SimDuration::from_millis(40).as_nanos();
            for k in 1..=steps {
                sim.run_until(SimTime(end * k / steps));
            }
            (sim.stats(), sim.merged_metrics().snapshot_json())
        };
        assert_eq!(run(1), run(8));
    }

    /// One domain must behave exactly like the plain engine — same type
    /// of run, no threads involved.
    #[test]
    fn single_domain_collapses_to_plain_engine() {
        let (topo, pairs, plan) = scenario();
        let cfg = SimConfig { seed: 5, ecmp: EcmpSelect::FlowHash, ..SimConfig::default() };

        let mut plain = Simulator::new(topo.clone(), cfg);
        plain.install_fault_plan(&plan);
        for &(src, dst) in &pairs {
            plain.install_app(
                src,
                Box::new(Blaster {
                    dst: Topology::host_ip(dst),
                    period: SimDuration::from_nanos(300_000),
                    sent: 0,
                }),
            );
        }
        plain.run_until(SimTime(SimDuration::from_millis(30).as_nanos()));

        let mut par = ParSim::new(topo, cfg, 1);
        par.install_fault_plan(&plan);
        for &(src, dst) in &pairs {
            par.install_app(
                src,
                Box::new(Blaster {
                    dst: Topology::host_ip(dst),
                    period: SimDuration::from_nanos(300_000),
                    sent: 0,
                }),
            );
        }
        par.run_until(SimTime(SimDuration::from_millis(30).as_nanos()));

        assert_eq!(par.domains(), 1);
        assert_eq!(par.stats(), plain.stats());
    }
}
