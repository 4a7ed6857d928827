//! Datacenter-fabric variants of the comparison and failover experiments
//! (ROADMAP item 1: the PR-5 bench fabric promoted to a first-class
//! topology family).
//!
//! The testbed here is a two-tier Clos (`ClosParams::datacenter()`: 32
//! spines × 480 leaves = 512 switches, 960 hosts at full scale) instead of
//! the paper's 12-switch ring, with the multipath machinery on:
//! flow-hash ECMP forwarding, probes fanned over several source ports per
//! target (so copies hash onto distinct equal-cost paths), and the
//! scheduler ranking over `k_paths` per-path estimates.
//!
//! Probing is confined to a bounded subset of hosts (one requester plus a
//! handful of candidate servers on distinct leaves): all-pairs probing
//! over 960 hosts would be ~1M probes/s, and the paper's scheduling
//! question only needs telemetry between the participants. Memory and
//! event load therefore stay bounded as the fabric grows — the fabric
//! size stresses route state (512 LPM tables × 960 host routes) and path
//! diversity, not the event queue.
//!
//! Two variants, mirroring the ring-scale experiments:
//!
//! * **compare** — half the candidate access links are congested with
//!   ~90 % CBR cross-traffic from their leaf-sibling hosts. IntDelay sees
//!   the queueing in the probe telemetry and avoids the congested
//!   candidates; Nearest (all candidates tie at 4 hops) keeps picking the
//!   lowest-id — congested — one; Random hits them at chance.
//! * **failover** — a leaf–spine cable on the learned best path to
//!   candidate 0 is pulled. Under multipath (FlowHash + fan + k-path
//!   ranking) the surviving equal-cost paths keep the candidate's
//!   telemetry fresh: the scheduler reroutes within the eviction horizon
//!   and the candidate stays schedulable throughout. Under the single-path
//!   configuration (Primary select, fan 1, k 1) every flow in the fabric
//!   shares one spine, so the cable pull silences the candidate entirely —
//!   it is excluded and never rerouted. That contrast is the
//!   single-path-assumption bug this PR retires, measured.

use crate::par;
use crate::report;
use int_apps::{
    iperf::{IperfConfig, IPERF_UDP_PORT},
    IperfSenderApp, ProbeRelayApp, ProbeSenderApp, SchedulerApp, UdpSinkApp,
};
use int_core::map::NetNode;
use int_core::rank::StaticDistances;
use int_core::{CoreConfig, Policy};
use int_netsim::{
    ClosParams, EcmpSelect, FaultPlan, NodeId, SimConfig, SimDuration, SimTime, Simulator,
    Topology,
};
use serde::Serialize;

/// Parameters of one fabric experiment.
#[derive(Debug, Clone, Copy)]
pub struct FabricParams {
    /// Master seed.
    pub seed: u64,
    /// The Clos fabric to build.
    pub clos: ClosParams,
    /// Candidate edge servers, each on its own leaf (capped to the
    /// available leaves).
    pub candidates: usize,
    /// Probe copies per target per interval (distinct source ports).
    pub fan: u16,
    /// Paths the scheduler ranks over per candidate.
    pub k_paths: u32,
    /// Probing interval.
    pub probe_interval: SimDuration,
}

impl FabricParams {
    /// The full datacenter fabric scaled by `scale` in (0, 1]: at 1.0 the
    /// 512-switch / 960-host Clos, with 8 candidates, fan 4, k = 4.
    pub fn at_scale(seed: u64, scale: f64) -> FabricParams {
        FabricParams {
            seed,
            clos: ClosParams::datacenter().scaled(scale),
            candidates: 8,
            fan: 4,
            k_paths: 4,
            probe_interval: ProbeSenderApp::DEFAULT_INTERVAL,
        }
    }
}

/// One policy's ranking behaviour under congested candidates.
#[derive(Debug, Clone, Serialize)]
pub struct FabricCompareCell {
    /// Ranking policy.
    pub policy: String,
    /// Fraction of polls whose top-ranked candidate sat behind a
    /// congested access link.
    pub congested_frac: f64,
    /// Distinct hosts that ever ranked first.
    pub distinct_tops: usize,
    /// Decision polls taken.
    pub polls: usize,
}

/// One forwarding mode's reaction to a leaf–spine cable pull.
#[derive(Debug, Clone, Serialize)]
pub struct FabricFailoverCell {
    /// `"multipath"` (FlowHash + fan + k-path ranking) or `"singlepath"`.
    pub mode: String,
    /// Time from the cut to the map evicting the dead link, ms.
    pub detect_ms: Option<f64>,
    /// Time from the cut to a learned route that avoids the dead link,
    /// ms. `None` when the scheduler never finds one (single-path probing
    /// leaves no alternate telemetry).
    pub reroute_ms: Option<f64>,
    /// Fraction of post-cut polls where the affected candidate was
    /// missing from the ranking entirely.
    pub absent_frac: f64,
    /// Post-cut polls taken.
    pub polls_after: usize,
}

/// Structural facts of the fabric the cells ran on.
#[derive(Debug, Clone, Serialize)]
pub struct FabricShape {
    /// Total switches (leaves + spines).
    pub switches: usize,
    /// Total hosts.
    pub hosts: usize,
    /// Spine count = equal-cost paths per cross-leaf host pair.
    pub spines: u32,
    /// Leaf count.
    pub leaves: u32,
    /// Probing hosts (requester + candidates).
    pub probers: usize,
    /// Probe fan.
    pub fan: u16,
    /// Ranking path count.
    pub k_paths: u32,
}

/// The full fabric artifact.
#[derive(Debug, Clone, Serialize)]
pub struct FabricOutput {
    /// What was built.
    pub fabric: FabricShape,
    /// Policy comparison under congestion.
    pub compare: Vec<FabricCompareCell>,
    /// Cable-pull reaction, multipath vs single-path.
    pub failover: Vec<FabricFailoverCell>,
}

/// Host roles within a built fabric simulation.
struct FabricSim {
    sim: Simulator,
    scheduler: NodeId,
    scheduler_app: usize,
    requester: NodeId,
    candidates: Vec<NodeId>,
    /// Leaf-sibling noise source per candidate (same leaf), when the
    /// fabric has ≥ 2 hosts per leaf.
    siblings: Vec<Option<NodeId>>,
    /// Leaf switch of each candidate.
    cand_leaves: Vec<NodeId>,
}

/// Multipath on (FlowHash + fan + k) or the legacy single-path setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Multipath,
    Singlepath,
}

fn build(p: &FabricParams, mode: Mode) -> FabricSim {
    let fab = p.clos.build();
    let hpl = p.clos.hosts_per_leaf as usize;
    let leaves = p.clos.leaves as usize;
    assert!(leaves >= 3, "fabric experiment needs >= 3 leaves, got {leaves}");

    // Roles on distinct, evenly spread leaves: scheduler on leaf 0,
    // requester on leaf 1, candidates from leaf 2 up.
    let host_of_leaf = |l: usize| fab.hosts[l * hpl];
    let scheduler = host_of_leaf(0);
    let requester = host_of_leaf(1);
    let ncand = p.candidates.clamp(1, leaves - 2);
    let stride = ((leaves - 2) / ncand).max(1);
    let cand_leaf_idx: Vec<usize> = (0..ncand).map(|i| 2 + i * stride).collect();
    let candidates: Vec<NodeId> = cand_leaf_idx.iter().map(|&l| host_of_leaf(l)).collect();
    let siblings: Vec<Option<NodeId>> = cand_leaf_idx
        .iter()
        .map(|&l| (hpl >= 2).then(|| fab.hosts[l * hpl + 1]))
        .collect();
    let cand_leaves: Vec<NodeId> = candidates.iter().map(|&c| fab.leaf_of(c)).collect();

    let (ecmp, fan, k) = match mode {
        Mode::Multipath => (EcmpSelect::FlowHash, p.fan.max(1), p.k_paths.max(1)),
        Mode::Singlepath => (EcmpSelect::Primary, 1, 1),
    };
    let sim_cfg = SimConfig {
        seed: p.seed,
        // Datacenter switches forward at link rate — no BMv2 ceiling.
        switch_egress_rate_bps: None,
        int_enabled: true,
        ecmp,
    };
    let mut sim = Simulator::new(fab.topo.clone(), sim_cfg);

    // Failure horizons track the probing interval exactly (as in the
    // failover sweep): eviction after 10 missed intervals, silence after
    // 5. The ranker considers k paths per candidate.
    let iv_ns = p.probe_interval.as_nanos();
    let core = CoreConfig {
        k_paths: k,
        origin_silence_ns: 5 * iv_ns,
        eviction_horizon_ns: 10 * iv_ns,
        ..CoreConfig::default()
    };

    // Static hop counts for Nearest: 2 same-leaf, 4 cross-leaf.
    let mut distances = StaticDistances::new();
    let mut participants = vec![requester];
    participants.extend(&candidates);
    for (i, &a) in participants.iter().enumerate() {
        for &b in &participants[i + 1..] {
            let hops = if fab.leaf_of(a) == fab.leaf_of(b) { 2 } else { 4 };
            distances.set(a.0, b.0, hops);
        }
    }

    let scheduler_app = sim.install_app(
        scheduler,
        Box::new(SchedulerApp::new(
            scheduler.0,
            Policy::IntDelay,
            core,
            distances,
            p.seed ^ 0x5EED_0F00,
        )),
    );

    // Bounded probing subset: requester + candidates probe each other
    // (fanned over source ports) and relay harvested INT to the scheduler.
    let scheduler_ip = Topology::host_ip(scheduler);
    for &h in &participants {
        let targets: Vec<_> = participants
            .iter()
            .filter(|&&o| o != h)
            .map(|&o| Topology::host_ip(o))
            .collect();
        sim.install_app(
            h,
            Box::new(ProbeSenderApp::new_fanned(targets, p.probe_interval, fan)),
        );
        sim.install_app(h, Box::new(ProbeRelayApp::new(scheduler_ip)));
    }

    let host_ids: Vec<u32> = participants.iter().map(|h| h.0).collect();
    sim.app_mut::<SchedulerApp>(scheduler, scheduler_app)
        .expect("scheduler app just installed")
        .register_hosts(&host_ids);

    FabricSim { sim, scheduler, scheduler_app, requester, candidates, siblings, cand_leaves }
}

/// Candidate indices whose access links the compare variant congests
/// (every even index with a sibling to source the noise).
fn congested_set(fs: &FabricSim) -> Vec<usize> {
    (0..fs.candidates.len())
        .filter(|&i| i % 2 == 0 && fs.siblings[i].is_some())
        .collect()
}

fn run_compare_cell(p: &FabricParams, policy: Policy) -> FabricCompareCell {
    let mut fs = build(p, Mode::Multipath);

    // ~90 % CBR onto each congested candidate's access link, sourced from
    // its leaf sibling (two hops — no fabric-wide collateral): the
    // leaf→candidate egress queue builds and every path to the candidate
    // inherits the queueing delay.
    let rate = p.clos.link.bandwidth_bps * 9 / 10;
    let noise_start = SimTime::ZERO + SimDuration::from_secs(1);
    for &i in &congested_set(&fs) {
        let (cand, sib) = (fs.candidates[i], fs.siblings[i].expect("congested needs sibling"));
        fs.sim.install_app(cand, Box::new(UdpSinkApp::new(IPERF_UDP_PORT)));
        fs.sim.install_app(
            sib,
            Box::new(IperfSenderApp::new(IperfConfig::new(
                Topology::host_ip(cand),
                rate,
                noise_start,
                SimDuration::from_secs(8),
            ))),
        );
    }
    let congested: Vec<u32> = congested_set(&fs).iter().map(|&i| fs.candidates[i].0).collect();

    // Warm up 4 s (40 probe rounds), then poll decisions for 4 s.
    let poll = SimDuration::from_millis(200);
    let mut t = SimTime::ZERO + SimDuration::from_secs(4);
    let t_end = SimTime::ZERO + SimDuration::from_secs(8);
    let requester = fs.requester.0;
    let (mut polls, mut hit, mut tops) = (0usize, 0usize, Vec::new());
    while t.as_nanos() <= t_end.as_nanos() {
        fs.sim.run_until(t);
        let app = fs
            .sim
            .app_mut::<SchedulerApp>(fs.scheduler, fs.scheduler_app)
            .expect("scheduler app");
        let outcome = app.core_mut().rank_detailed_with(requester, policy, t.as_nanos());
        if let Some(top) = outcome.ranked.first().map(|r| r.host) {
            polls += 1;
            if congested.contains(&top) {
                hit += 1;
            }
            if !tops.contains(&top) {
                tops.push(top);
            }
        }
        t += poll;
    }
    FabricCompareCell {
        policy: policy.name().to_string(),
        congested_frac: if polls == 0 { 0.0 } else { hit as f64 / polls as f64 },
        distinct_tops: tops.len(),
        polls,
    }
}

fn run_failover_cell(p: &FabricParams, mode: Mode) -> FabricFailoverCell {
    let mut fs = build(p, mode);
    let requester = fs.requester.0;
    let target = fs.candidates[0].0;
    let target_leaf = fs.cand_leaves[0];

    // Warm up, then read the learned best route to candidate 0 and pull
    // the leaf–spine cable it crosses.
    let iv_ns = p.probe_interval.as_nanos();
    let t_fail = SimTime::ZERO + SimDuration::from_secs(4);
    fs.sim.run_until(t_fail);
    let path = fs
        .sim
        .app_mut::<SchedulerApp>(fs.scheduler, fs.scheduler_app)
        .expect("scheduler app")
        .core_mut()
        .learned_path(requester, target, t_fail.as_nanos())
        .expect("warmed-up map routes requester -> candidate 0");
    let spine = path
        .iter()
        .rev()
        .find_map(|n| match *n {
            NetNode::Switch(id) if NodeId(id) != target_leaf => Some(NodeId(id)),
            _ => None,
        })
        .expect("cross-leaf route crosses a spine");
    fs.sim.install_fault_plan(&FaultPlan::new().link_down(spine, target_leaf, t_fail));
    let dead = [NetNode::Switch(spine.0), NetNode::Switch(target_leaf.0)];
    let crosses_dead = |p: &[NetNode]| {
        p.windows(2).any(|w| [w[0], w[1]] == dead || [w[1], w[0]] == dead)
    };

    // Observe for the 10-interval eviction horizon plus slack.
    let poll = SimDuration::from_millis(100);
    let t_end = t_fail + SimDuration::from_nanos(10 * iv_ns) + SimDuration::from_secs(4);
    let mut t = t_fail + poll;
    let mut detect_ns: Option<u64> = None;
    let mut reroute_ns: Option<u64> = None;
    let (mut polls_after, mut absent) = (0usize, 0usize);
    while t.as_nanos() <= t_end.as_nanos() {
        fs.sim.run_until(t);
        let since = t.as_nanos() - t_fail.as_nanos();
        let app = fs
            .sim
            .app_mut::<SchedulerApp>(fs.scheduler, fs.scheduler_app)
            .expect("scheduler app");
        let outcome =
            app.core_mut().rank_detailed_with(requester, Policy::IntDelay, t.as_nanos());
        polls_after += 1;
        if !outcome.ranked.iter().any(|r| r.host == target) {
            absent += 1;
        }
        if detect_ns.is_none() {
            let map = app.core().collector().map();
            if map.dead_edges().any(|(x, y, _)| [x, y] == dead || [y, x] == dead) {
                detect_ns = Some(since);
            }
        }
        if reroute_ns.is_none() {
            if let Some(route) = app.core_mut().learned_path(requester, target, t.as_nanos()) {
                if !crosses_dead(&route) {
                    reroute_ns = Some(since);
                }
            }
        }
        t += poll;
    }
    FabricFailoverCell {
        mode: match mode {
            Mode::Multipath => "multipath",
            Mode::Singlepath => "singlepath",
        }
        .to_string(),
        detect_ms: detect_ns.map(|ns| ns as f64 / 1e6),
        reroute_ms: reroute_ns.map(|ns| ns as f64 / 1e6),
        absent_frac: if polls_after == 0 { 0.0 } else { absent as f64 / polls_after as f64 },
        polls_after,
    }
}

/// Run both variants, cells on `workers` threads.
pub fn run(workers: usize, p: &FabricParams) -> FabricOutput {
    let policies = [Policy::IntDelay, Policy::Nearest, Policy::Random];
    let compare = par::parallel_map(workers, &policies, |&pol| run_compare_cell(p, pol));
    let modes = [Mode::Multipath, Mode::Singlepath];
    let failover = par::parallel_map(workers, &modes, |&m| run_failover_cell(p, m));

    let leaves = p.clos.leaves;
    let ncand = p.candidates.clamp(1, leaves as usize - 2);
    FabricOutput {
        fabric: FabricShape {
            switches: (p.clos.spines + leaves) as usize,
            hosts: (leaves * p.clos.hosts_per_leaf) as usize,
            spines: p.clos.spines,
            leaves,
            probers: 1 + ncand,
            fan: p.fan,
            k_paths: p.k_paths,
        },
        compare,
        failover,
    }
}

/// Render both tables.
pub fn render(out: &FabricOutput) -> String {
    let f = &out.fabric;
    let mut s = format!(
        "Clos fabric: {} switches ({} spines x {} leaves), {} hosts; {} probers, fan {}, k_paths {}\n\n",
        f.switches, f.spines, f.leaves, f.hosts, f.probers, f.fan, f.k_paths
    );
    let rows: Vec<Vec<String>> = out
        .compare
        .iter()
        .map(|c| {
            vec![
                c.policy.clone(),
                format!("{:.1}%", c.congested_frac * 100.0),
                c.distinct_tops.to_string(),
                c.polls.to_string(),
            ]
        })
        .collect();
    s.push_str(&report::table(
        &["policy", "congested picks", "distinct tops", "polls"],
        &rows,
    ));
    s.push('\n');
    let opt_ms = |v: Option<f64>| v.map(report::ms).unwrap_or_else(|| "never".to_string());
    let rows: Vec<Vec<String>> = out
        .failover
        .iter()
        .map(|c| {
            vec![
                c.mode.clone(),
                opt_ms(c.detect_ms),
                opt_ms(c.reroute_ms),
                format!("{:.1}%", c.absent_frac * 100.0),
                c.polls_after.to_string(),
            ]
        })
        .collect();
    s.push_str(&report::table(
        &["mode", "detect (ms)", "reroute (ms)", "candidate absent", "polls"],
        &rows,
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use int_netsim::LinkParams;

    /// A small but genuinely multipath Clos for unit tests.
    fn tiny() -> FabricParams {
        FabricParams {
            seed: 7,
            clos: ClosParams {
                spines: 4,
                leaves: 6,
                hosts_per_leaf: 2,
                link: LinkParams::paper_default(),
            },
            candidates: 4,
            fan: 4,
            k_paths: 4,
            probe_interval: SimDuration::from_millis(100),
        }
    }

    /// IntDelay reads the congestion out of the probe telemetry and avoids
    /// the loaded candidates; hop-count ties make Nearest keep picking the
    /// congested lowest-id candidate.
    #[test]
    fn int_delay_avoids_congested_candidates_nearest_does_not() {
        let p = tiny();
        let int = run_compare_cell(&p, Policy::IntDelay);
        let near = run_compare_cell(&p, Policy::Nearest);
        assert!(int.polls > 10 && near.polls > 10);
        assert!(
            int.congested_frac < 0.2,
            "IntDelay mostly avoids congested picks: {:?}",
            int
        );
        assert!(
            near.congested_frac > 0.9,
            "Nearest pins to the congested lowest-id candidate: {:?}",
            near
        );
    }

    /// The cable pull: multipath keeps the candidate schedulable and
    /// reroutes within the eviction horizon; the single-path configuration
    /// loses the candidate outright and never finds an alternate route.
    #[test]
    fn multipath_survives_the_cable_pull_singlepath_goes_dark() {
        let p = tiny();
        let multi = run_failover_cell(&p, Mode::Multipath);
        let single = run_failover_cell(&p, Mode::Singlepath);

        let horizon_ms = 10.0 * p.probe_interval.as_nanos() as f64 / 1e6;
        let detect = multi.detect_ms.expect("multipath detects the dead link");
        assert!(detect <= horizon_ms + 500.0, "bounded by the eviction horizon: {detect}");
        let reroute = multi.reroute_ms.expect("multipath reroutes over surviving paths");
        assert!(reroute <= horizon_ms + 500.0, "{reroute}");
        assert!(
            multi.absent_frac < 0.3,
            "candidate stays schedulable under multipath: {:?}",
            multi
        );

        assert_eq!(single.reroute_ms, None, "no alternate telemetry to reroute onto");
        assert!(
            single.absent_frac > 0.5,
            "single-path probing loses the candidate: {:?}",
            single
        );
        assert!(
            multi.absent_frac < single.absent_frac,
            "multipath strictly dominates on availability"
        );
    }
}
