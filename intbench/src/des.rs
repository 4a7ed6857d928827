//! The simulator workloads.
//!
//! Untraced, a repetition is one call of the entry point every paper
//! figure (`runner::run`) or fabric run (`giant::run`) goes through.
//! Traced, the same scenario is re-assembled here from public pieces — a
//! twin — and stepped one virtual second at a time with a span per
//! second. The twin's counters and outcomes go into the same digest as
//! the untraced run's, so a twin that simulates anything else fails the
//! repetition check.

use crate::gen::Digest;
use crate::stats::share;
use crate::trace::Tracer;
use crate::unit;
use crate::workload::{Layers, Rep};
use int_apps::{SchedulerApp, TaskSubmitterApp};
use int_core::{Policy, RankOutcome};
use int_experiments::giant::{self, GiantParams, UPLINK_DELAY_NS};
use int_experiments::report::results_dir;
use int_experiments::runner::{self, install_background};
use int_experiments::testbed::{TestbedConfig, SCHEDULER_NODE};
use int_experiments::{ExperimentConfig, ExperimentResult, TaskOutcome, Testbed};
use int_netsim::{
    App, AppCtx, ClosParams, ClosRoutes, EcmpSelect, LinkParams, NetStats, NodeId, ParSim,
    PoolStats, SimConfig, SimDuration, SimTime, Topology,
};
use int_obs::stream::EpochWriter;
use int_workload::{BgFlow, JobSpec, WorkloadGenerator};
use std::any::Any;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const SECOND_NS: u64 = 1_000_000_000;

fn fold_stats(d: &mut Digest, s: &NetStats) {
    for v in [
        s.events_processed,
        s.frames_delivered,
        s.frames_forwarded,
        s.drops_queue_full,
        s.drops_dataplane,
        s.drops_host,
        s.drops_link_down,
        s.drops_switch_down,
        s.drops_link_loss,
    ] {
        d.u64(v);
    }
}

/// The latency sample of a simulator repetition. How many events a run
/// simulates depends on the seed, so the wait for one run call is given
/// per million events simulated.
fn ms_per_million_events(run_s: f64, events: u64) -> f64 {
    share(run_s * 1e3, events as f64 / 1e6)
}

/// What stepping a simulator one virtual second at a time observed.
#[derive(Default)]
struct Stepped {
    /// Wall-clock ns inside `run_until`, per virtual second.
    run_ns: Vec<u64>,
    /// Events processed, per virtual second.
    events: Vec<u64>,
    /// Pending events at each second boundary.
    depth: Vec<f64>,
    events_total: u64,
}

impl Stepped {
    fn note(&mut self, run_ns: u64, events_total: u64, pending: usize) {
        self.run_ns.push(run_ns);
        self.events.push(events_total - self.events_total);
        self.depth.push(pending as f64);
        self.events_total = events_total;
    }

    /// The `netsim.*` numbers every simulator workload shares; returns
    /// `(run_busy_ns, median queue depth)`.
    fn layers(
        &self,
        stats: &NetStats,
        pool: PoolStats,
        build_s: f64,
        out: &mut Layers,
    ) -> (f64, usize) {
        let busy_ns: u64 = self.run_ns.iter().sum();
        let slowest = self
            .run_ns
            .iter()
            .zip(&self.events)
            .filter(|(_, &ev)| ev > 0)
            .map(|(&ns, &ev)| ns as f64 / ev as f64)
            .fold(0.0, f64::max);
        let depth_p50 = crate::stats::median(&self.depth);
        out.insert("netsim.run_busy_s", busy_ns as f64 / 1e9);
        out.insert("netsim.events", stats.events_processed as f64);
        out.insert(
            "netsim.ns_per_event",
            share(busy_ns as f64, stats.events_processed as f64),
        );
        out.insert("netsim.epoch_ns_per_event_max", slowest);
        out.insert("netsim.evq_depth_p50", depth_p50);
        out.insert(
            "netsim.evq_depth_max",
            self.depth.iter().copied().fold(0.0, f64::max),
        );
        out.insert("netsim.frames_delivered", stats.frames_delivered as f64);
        out.insert("netsim.drops_queue_full", stats.drops_queue_full as f64);
        out.insert(
            "netsim.pool_reuse_share",
            1.0 - share(pool.allocs as f64, pool.takes as f64),
        );
        out.insert("netsim.build_s", build_s);
        out.insert("dataplane.frames_forwarded", stats.frames_forwarded as f64);
        out.insert("dataplane.drops", stats.drops_dataplane as f64);
        (busy_ns as f64, depth_p50 as usize)
    }
}

/// Unit costs of the per-frame layers, and the shares they explain.
/// `extra` are shares measured directly (apps, obs, the in-sim scheduler);
/// what nothing explains is `netsim.unattributed_share`, so the shares
/// sum to one.
fn price_layers(
    routes: u32,
    stats: &NetStats,
    busy_ns: f64,
    depth: usize,
    extra: f64,
    out: &mut Layers,
) {
    out.insert("packet.parse_ns", unit::parse_ns());
    out.insert("packet.build_udp_ns", unit::build_udp_ns());
    out.insert("packet.probe_decode_ns", unit::probe_decode_ns());
    out.insert("packet.probe_encode_ns", unit::probe_encode_ns());
    let ingress = unit::ingress_data_ns(routes);
    out.insert("dataplane.ingress_data_ns", ingress);
    out.insert("dataplane.ingress_probe_ns", unit::ingress_probe_ns(routes));
    out.insert("dataplane.probe_transit_ns", unit::probe_transit_ns(routes));
    out.insert("dataplane.lpm_lookup_ns", unit::lpm_lookup_ns(routes));
    let evq = unit::evq_push_pop_ns(depth);
    out.insert("netsim.evq_push_pop_ns", evq);

    let dataplane = share(ingress * stats.frames_forwarded as f64, busy_ns);
    let queue = share(evq * stats.events_processed as f64, busy_ns);
    out.insert("dataplane.est_share", dataplane);
    out.insert("netsim.evq_est_share", queue);
    out.insert("netsim.unattributed_share", 1.0 - dataplane - queue - extra);
}

// ------------------------------------------------------------ des_testbed

/// Shape of the paper-testbed workload.
#[derive(Debug, Clone, Copy)]
pub struct TestbedShape {
    pub total_tasks: usize,
    pub drain: SimDuration,
}

fn experiment(seed: u64, shape: &TestbedShape) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default(seed, Policy::IntDelay);
    cfg.workload.total_tasks = shape.total_tasks;
    cfg.drain = shape.drain;
    cfg
}

/// What `runner::run` assembles before it starts the clock.
struct Scenario {
    tb: Testbed,
    jobs: Vec<JobSpec>,
    flows: Vec<BgFlow>,
    horizon: SimTime,
    gen_ms: f64,
}

fn assemble(cfg: &ExperimentConfig) -> Scenario {
    let tb = Testbed::new(&TestbedConfig {
        seed: cfg.seed,
        policy: cfg.policy,
        probe_interval: cfg.probe_interval,
        int_enabled: true,
        ..cfg.testbed.clone()
    });
    let hosts: Vec<u32> = tb.hosts.iter().map(|h| h.0).collect();
    let mut workload = cfg.workload.clone();
    workload.submitters = hosts.clone();
    let t = Instant::now();
    let jobs = WorkloadGenerator::new(cfg.seed).generate(&workload);
    let horizon = SimTime(jobs.last().map_or(0, |j| j.submit_at_ns)) + cfg.drain;
    let flows = cfg
        .scenario
        .generate(&hosts, horizon.as_nanos(), cfg.bg_rate_bps, cfg.seed);
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    Scenario {
        tb,
        jobs,
        flows,
        horizon,
        gen_ms,
    }
}

fn testbed_rep(
    res: &ExperimentResult,
    planned: usize,
    setup_s: f64,
    run_s: f64,
    layers: Layers,
) -> Rep {
    let mut d = Digest::default();
    fold_stats(&mut d, &res.net);
    d.u64(res.incomplete as u64);
    for o in &res.outcomes {
        for v in [
            o.job_id,
            o.task_id,
            o.server as u64,
            o.completion_ms.to_bits(),
            o.transfer_ms.to_bits(),
        ] {
            d.u64(v);
        }
    }
    // A repetition is one simulation run; it fails when tasks are lost
    // from the accounting. Tasks the simulated network did not finish are
    // a simulated result, carried by the digest.
    let conserved = res.outcomes.len() + res.incomplete == planned;
    Rep {
        setup_s,
        gen_s: 0.0,
        program_s: run_s,
        ops: res.net.events_processed,
        latency_ms: vec![ms_per_million_events(run_s, res.net.events_processed)],
        digest: d.0,
        attempted: 1,
        failed: !conserved as u64,
        shape: vec![
            ("hosts", int_experiments::testbed::NUM_NODES as u64),
            ("switches", int_experiments::testbed::NUM_SWITCHES as u64),
            ("tasks_planned", planned as u64),
            ("tasks_completed", res.outcomes.len() as u64),
            ("tasks_incomplete", res.incomplete as u64),
            ("events", res.net.events_processed),
            ("drops", res.net.total_drops()),
        ],
        layers,
    }
}

/// One repetition of `des_testbed`.
pub fn run_testbed(seed: u64, shape: &TestbedShape, tracer: Option<&mut Tracer>) -> Rep {
    let cfg = experiment(seed, shape);
    let t = Instant::now();
    let mut sc = assemble(&cfg);
    let setup_s = t.elapsed().as_secs_f64();
    let planned: usize = sc.jobs.iter().map(|j| j.tasks.len()).sum();

    let Some(tr) = tracer else {
        drop(sc);
        let t = Instant::now();
        let res = runner::run(&cfg);
        return testbed_rep(
            &res,
            planned,
            setup_s,
            t.elapsed().as_secs_f64(),
            Layers::new(),
        );
    };

    // --- the twin: runner::run's body, stepped ---
    install_background(&mut sc.tb, &sc.flows);
    let scheduler_ip = Topology::host_ip(sc.tb.node(SCHEDULER_NODE));
    let mut submitters: Vec<(NodeId, usize, usize)> = Vec::new();
    for &host in &sc.tb.hosts {
        let mine: Vec<JobSpec> = sc
            .jobs
            .iter()
            .filter(|j| j.submitter == host.0)
            .cloned()
            .collect();
        if mine.is_empty() {
            continue;
        }
        let planned = mine.iter().map(|j| j.tasks.len()).sum();
        let app = TaskSubmitterApp::new(scheduler_ip, cfg.ranking_kind(), mine);
        submitters.push((host, sc.tb.sim.install_app(host, Box::new(app)), planned));
    }

    let mut stepped = Stepped::default();
    let end = sc.horizon.as_nanos();
    for k in 1..=end.div_ceil(SECOND_NS) {
        let span = tr.open("netsim.run", None, k);
        sc.tb.sim.run_until(SimTime((k * SECOND_NS).min(end)));
        tr.close(span);
        let sp = &tr.spans()[span];
        stepped.note(
            sp.end_ns - sp.start_ns,
            sc.tb.sim.stats().events_processed,
            sc.tb.sim.pending_events(),
        );
    }

    let mut outcomes = Vec::new();
    let mut incomplete = 0usize;
    for (node, app, planned) in submitters {
        let sub = sc
            .tb
            .sim
            .app::<TaskSubmitterApp>(node, app)
            .expect("submitter app");
        for r in &sub.records {
            match (r.transfer_time(), r.completion_time(), r.server) {
                (Some(t), Some(c), Some(server)) => outcomes.push(TaskOutcome {
                    job_id: r.job_id,
                    task_id: r.task_id,
                    class: r.class,
                    submitter: node.0,
                    server,
                    data_bytes: r.data_bytes,
                    transfer_ms: t.as_millis_f64(),
                    completion_ms: c.as_millis_f64(),
                }),
                _ => incomplete += 1,
            }
        }
        incomplete += planned.saturating_sub(sub.records.len());
    }
    outcomes.sort_by_key(|o| (o.job_id, o.task_id));
    let net = sc.tb.sim.stats();
    let res = ExperimentResult {
        policy: cfg.policy,
        seed,
        outcomes,
        incomplete,
        net,
    };

    let mut layers = Layers::new();
    let (busy_ns, depth) = stepped.layers(&net, sc.tb.sim.pool_stats(), setup_s, &mut layers);
    layers.insert("workload.gen_ms", sc.gen_ms);
    layers.insert("apps.tasks_completed", res.outcomes.len() as f64);
    layers.insert("apps.tasks_incomplete", res.incomplete as f64);
    let done = res.outcomes.len().max(1) as f64;
    layers.insert(
        "apps.sim_task_completion_ms",
        res.outcomes.iter().map(|o| o.completion_ms).sum::<f64>() / done,
    );

    let now = sc.tb.sim.now().as_nanos();
    let (node, idx) = (sc.tb.scheduler, sc.tb.scheduler_app);
    let sched = sc
        .tb
        .sim
        .app_mut::<SchedulerApp>(node, idx)
        .expect("scheduler app");
    let queries = sched.queries_served();
    layers.insert("apps.sched_queries", queries as f64);
    layers.insert("apps.sched_probes", sched.probes_received() as f64);
    layers.insert("apps.sched_exclusions", sched.exclusions() as f64);
    let ps = sched.core().path_stats();
    layers.insert("core.pathidx.sssp_runs", ps.sssp_runs as f64);
    layers.insert(
        "core.pathidx.cache_hit_share",
        share(
            ps.cache_hits as f64,
            (ps.cache_hits + ps.cache_misses) as f64,
        ),
    );
    layers.insert("core.pathidx.csr_rebuilds", ps.csr_rebuilds as f64);
    // Unit cost of one ranking on the map the run ended with.
    let mut outcome = RankOutcome::default();
    let rounds = 2_000;
    let t = Instant::now();
    for i in 0..rounds {
        sched
            .core_mut()
            .rank_detailed_into_with(i % 8, Policy::IntDelay, now, &mut outcome);
    }
    let rank_ns = t.elapsed().as_nanos() as f64 / rounds as f64;
    layers.insert("core.sched.rank_ns", rank_ns);
    let sched_share = share(rank_ns * queries as f64, busy_ns);
    layers.insert("core.sched.est_share", sched_share);
    price_layers(
        int_experiments::testbed::NUM_NODES as u32,
        &net,
        busy_ns,
        depth,
        sched_share,
        &mut layers,
    );

    testbed_rep(&res, planned, setup_s, busy_ns / 1e9, layers)
}

// ------------------------------------------------------------- des_fabric

/// Shape of the Clos-fabric workload.
#[derive(Debug, Clone, Copy)]
pub struct FabricShape {
    pub spines: u32,
    pub leaves: u32,
    pub hosts_per_leaf: u32,
    pub duration: SimDuration,
}

fn giant_params(seed: u64, shape: &FabricShape) -> GiantParams {
    GiantParams {
        seed,
        spines: shape.spines,
        leaves: shape.leaves,
        hosts_per_leaf: shape.hosts_per_leaf,
        duration: shape.duration,
        epoch: SimDuration::from_secs(1),
        domains: 1,
        hb_period: SimDuration::from_millis(200),
        // Nothing else in this scenario reads the seed, so it stretches the
        // CBR period by up to 7.5 %: another seed, another schedule.
        cbr_period: SimDuration::from_nanos(20_000_000 + (seed % 16) * 100_000),
    }
}

/// `giant::run`'s fabric and simulator, from the same public pieces.
fn build_fabric(p: &GiantParams) -> (ParSim, Vec<NodeId>) {
    let host_link = LinkParams {
        bandwidth_bps: 1_000_000_000,
        delay: SimDuration::from_millis(10),
        queue_cap_pkts: 64,
    };
    let uplink = LinkParams {
        bandwidth_bps: 10_000_000_000,
        delay: SimDuration::from_nanos(UPLINK_DELAY_NS),
        queue_cap_pkts: 64,
    };
    let clos = ClosParams {
        spines: p.spines,
        leaves: p.leaves,
        hosts_per_leaf: p.hosts_per_leaf,
        link: host_link,
    };
    let fabric = clos.build_tiered(uplink);
    let routes = ClosRoutes::new(
        p.spines,
        p.leaves,
        p.hosts_per_leaf,
        host_link.delay,
        uplink.delay,
    );
    let cfg = SimConfig {
        seed: p.seed,
        ecmp: EcmpSelect::FlowHash,
        ..SimConfig::default()
    };
    (
        ParSim::new_clos(fabric.topo, routes, cfg, p.domains),
        fabric.hosts,
    )
}

const TIMER_HB: u64 = 1;
const TIMER_CBR: u64 = 2;
const PORT: u16 = 7100;

/// The per-host app of `giant::run` (private there): heartbeats a fixed
/// partner, counts what it receives, and on every tenth host sends CBR
/// noise.
struct FabricHost {
    id: u32,
    partner: Ipv4Addr,
    hb_period: SimDuration,
    cbr_period: Option<SimDuration>,
    got: u64,
}

impl App for FabricHost {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.bind_udp(PORT);
        let phase = (self.id as u64).wrapping_mul(10_007) % self.hb_period.as_nanos();
        ctx.set_timer(SimDuration::from_nanos(phase + 1), TIMER_HB);
        if let Some(cbr) = self.cbr_period {
            let phase = (self.id as u64).wrapping_mul(257) % cbr.as_nanos();
            ctx.set_timer(SimDuration::from_nanos(phase + 1), TIMER_CBR);
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, timer_id: u64) {
        let (period, payload) = match timer_id {
            TIMER_HB => (self.hb_period, vec![0x48; 64]),
            _ => (
                self.cbr_period.expect("timer only armed with a period"),
                vec![0xC8; 1024],
            ),
        };
        ctx.send_udp(PORT, self.partner, PORT, payload);
        ctx.set_timer(period, timer_id);
    }

    fn on_udp(&mut self, _: &mut AppCtx<'_>, _: Ipv4Addr, _: u16, _: u16, _: &[u8]) {
        self.got += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Wall-clock spent inside app callbacks, summed over every host.
#[derive(Default)]
struct CallbackClock {
    busy_ns: AtomicU64,
    calls: AtomicU64,
}

/// Decorator timing every callback of the app it wraps.
struct TimedApp<A> {
    inner: A,
    clock: Arc<CallbackClock>,
}

impl<A> TimedApp<A> {
    fn timed<R>(&mut self, f: impl FnOnce(&mut A) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.inner);
        // Statistics only: nothing is published through these counters.
        self.clock
            .busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.clock.calls.fetch_add(1, Ordering::Relaxed);
        r
    }
}

impl<A: App + 'static> App for TimedApp<A> {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.timed(|a| a.on_start(ctx))
    }
    fn on_udp(
        &mut self,
        ctx: &mut AppCtx<'_>,
        from: Ipv4Addr,
        from_port: u16,
        to_port: u16,
        payload: &[u8],
    ) {
        self.timed(|a| a.on_udp(ctx, from, from_port, to_port, payload))
    }
    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, timer_id: u64) {
        self.timed(|a| a.on_timer(ctx, timer_id))
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// What a fabric run produced, whether `giant::run` or its twin ran it.
struct FabricResult {
    stats: NetStats,
    /// Datagrams received by host apps.
    delivered: u64,
    export_bytes: u64,
    /// Export lines written.
    epochs: u64,
}

fn fabric_rep(
    p: &GiantParams,
    res: &FabricResult,
    setup_s: f64,
    run_s: f64,
    layers: Layers,
) -> Rep {
    let FabricResult {
        stats,
        delivered,
        export_bytes,
        epochs,
    } = *res;
    let mut d = Digest::default();
    fold_stats(&mut d, &stats);
    d.u64(delivered);
    d.u64(export_bytes);
    d.u64(epochs);
    Rep {
        setup_s,
        gen_s: 0.0,
        program_s: run_s,
        ops: stats.events_processed,
        latency_ms: vec![ms_per_million_events(run_s, stats.events_processed)],
        digest: d.0,
        attempted: 1,
        // One export line per virtual second, or the run lost an epoch.
        failed: (epochs != p.duration.as_nanos().div_ceil(p.epoch.as_nanos())) as u64,
        shape: vec![
            ("hosts", p.hosts() as u64),
            ("switches", (p.spines + p.leaves) as u64),
            ("virtual_s", p.duration.as_nanos() / SECOND_NS),
            ("events", stats.events_processed),
            ("datagrams_delivered", delivered),
            ("drops", stats.total_drops()),
            ("export_bytes", export_bytes),
        ],
        layers,
    }
}

/// One repetition of `des_fabric`.
pub fn run_fabric(
    seed: u64,
    shape: &FabricShape,
    tracer: Option<&mut Tracer>,
) -> std::io::Result<Rep> {
    let p = giant_params(seed, shape);
    let t = Instant::now();
    let (mut sim, hosts) = build_fabric(&p);
    let setup_s = t.elapsed().as_secs_f64();

    let Some(tr) = tracer else {
        drop(sim);
        let t = Instant::now();
        let out = giant::run(&p)?;
        let run_s = t.elapsed().as_secs_f64();
        let res = FabricResult {
            stats: out.stats,
            delivered: out.delivered,
            export_bytes: out.export_bytes,
            epochs: out.epochs,
        };
        return Ok(fabric_rep(&p, &res, setup_s, run_s, Layers::new()));
    };

    // --- the twin: giant::run's body, with timed apps and a timed export ---
    sim.set_metrics_enabled(true);
    let clock = Arc::new(CallbackClock::default());
    let n = hosts.len() as u32;
    let mut apps = Vec::with_capacity(hosts.len());
    for (i, &h) in hosts.iter().enumerate() {
        let inner = FabricHost {
            id: i as u32,
            partner: Topology::host_ip(hosts[((i as u32 + n / 2) % n) as usize]),
            hb_period: p.hb_period,
            cbr_period: (i % 10 == 0).then_some(p.cbr_period),
            got: 0,
        };
        apps.push((
            h,
            sim.install_app(
                h,
                Box::new(TimedApp {
                    inner,
                    clock: Arc::clone(&clock),
                }),
            ),
        ));
    }
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let mut writer = EpochWriter::create(&dir.join("giant.jsonl"), true)?;

    let mut stepped = Stepped::default();
    let (end, epoch) = (p.duration.as_nanos(), p.epoch.as_nanos());
    for k in 1..=end.div_ceil(epoch) {
        let at = (k * epoch).min(end);
        let span = tr.open("netsim.run", None, k);
        sim.run_until(SimTime(at));
        tr.close(span);
        let sp = &tr.spans()[span];
        stepped.note(
            sp.end_ns - sp.start_ns,
            sim.stats().events_processed,
            sim.pending_events(),
        );

        let span = tr.open("obs.export", None, k);
        let stats = serde_json::to_string(&sim.stats()).expect("stats serialize");
        let metrics = sim.merged_metrics().snapshot_json();
        writer.write_line(&format!(
            "{{\"epoch\":{k},\"t_ns\":{at},\"stats\":{stats},\"metrics\":{metrics}}}"
        ))?;
        tr.close(span);
    }
    let written = writer.finish()?;
    let delivered: u64 = apps
        .iter()
        .map(|&(h, i)| {
            sim.app::<TimedApp<FabricHost>>(h, i)
                .expect("installed above")
                .inner
                .got
        })
        .sum();
    let stats = sim.stats();

    let mut layers = Layers::new();
    let (run_ns, depth) = stepped.layers(&stats, sim.sims()[0].pool_stats(), setup_s, &mut layers);
    let export_ns = tr.busy_ns("obs.export") as f64;
    let callback_ns = clock.busy_ns.load(Ordering::Relaxed) as f64;
    // On this workload the export is part of the run the user waits for.
    let busy_ns = run_ns + export_ns;
    layers.insert("obs.export_busy_s", export_ns / 1e9);
    layers.insert("obs.export_bytes", written.bytes as f64);
    layers.insert("apps.callback_busy_s", callback_ns / 1e9);
    layers.insert("apps.callbacks", clock.calls.load(Ordering::Relaxed) as f64);
    layers.insert("apps.est_share", share(callback_ns, busy_ns));
    layers.insert("obs.est_share", share(export_ns, busy_ns));
    price_layers(
        p.hosts_per_leaf,
        &stats,
        busy_ns,
        depth,
        share(callback_ns + export_ns, busy_ns),
        &mut layers,
    );

    let res = FabricResult {
        stats,
        delivered,
        export_bytes: written.bytes,
        epochs: written.lines,
    };
    Ok(fabric_rep(&p, &res, setup_s, busy_ns / 1e9, layers))
}
