//! The giant run: a 10,000-host Clos fabric simulated for minutes of
//! virtual time, with epoch-granular observability streamed to disk.
//!
//! This is the scenario the PR 9 machinery exists for. Three things make
//! it feasible where the previous harness was not:
//!
//! * **structural Clos routing** ([`int_netsim::ClosRoutes`]) — no
//!   all-pairs route table (O(n²) memory plus n Dijkstra runs at 10k
//!   hosts) is ever materialized;
//! * **streaming epoch exports** ([`int_obs::EpochWriter`]) — each epoch's
//!   JSONL line hits disk as the epoch closes, so observability memory is
//!   one line, not the whole run;
//! * **conservative parallel domains** ([`int_netsim::ParSim`]) —
//!   `repro giant --domains N` splits the fabric at the leaf–spine
//!   latency cut; artifacts stay byte-identical to the single-thread
//!   oracle (`tests/invariance.rs` pins 1, 2 and 4).
//!
//! Everything written to `giant.jsonl` / `giant.json` is integer-only and
//! deterministic; wall-clock and peak-RSS live in the `giant.runmeta.json`
//! sidecar so the artifacts themselves can be byte-compared.

use crate::report;
use int_netsim::{
    App, AppCtx, ClosParams, ClosRoutes, EcmpSelect, LinkParams, NetStats, ParSim, SimConfig,
    SimDuration, SimTime, Topology,
};
use int_obs::json::JsonBuf;
use int_obs::stream::EpochWriter;
use serde::Serialize;
use std::net::Ipv4Addr;
use std::path::Path;

/// Non-round uplink delay: avoids exact-nanosecond arrival coincidences
/// between unrelated flows, which keeps the canonical artifact ordering
/// trivially stable (DESIGN.md §5.9 discusses the coincidence window).
pub const UPLINK_DELAY_NS: u64 = 12_000_019;

/// Giant-run shape and workload knobs.
#[derive(Debug, Clone, Serialize)]
pub struct GiantParams {
    pub seed: u64,
    /// Spine tier width (ECMP fan-out).
    pub spines: u32,
    /// Leaf switch count.
    pub leaves: u32,
    /// Hosts per leaf.
    pub hosts_per_leaf: u32,
    /// Virtual run length.
    pub duration: SimDuration,
    /// Export epoch: one JSONL line per epoch.
    pub epoch: SimDuration,
    /// Domain count for the parallel driver (1 = single-thread oracle).
    pub domains: u16,
    /// Every host heartbeats its partner at this period.
    pub hb_period: SimDuration,
    /// Every 10th host also blasts CBR noise at this period.
    pub cbr_period: SimDuration,
}

impl GiantParams {
    /// The full 10,000-host scenario: 16 spines × 500 leaves × 20 hosts,
    /// 180 s of virtual time, on the single-thread engine.
    pub fn full_scale(seed: u64) -> GiantParams {
        GiantParams {
            seed,
            spines: 16,
            leaves: 500,
            hosts_per_leaf: 20,
            duration: SimDuration::from_secs(180),
            epoch: SimDuration::from_secs(1),
            domains: 1,
            hb_period: SimDuration::from_millis(200),
            cbr_period: SimDuration::from_millis(20),
        }
    }

    /// Shrink every axis by `scale` (floors keep the fabric a real Clos).
    pub fn at_scale(seed: u64, scale: f64) -> GiantParams {
        let full = Self::full_scale(seed);
        let dim = |v: u32, lo: u32| (((v as f64) * scale).round() as u32).max(lo);
        GiantParams {
            spines: dim(full.spines, 2),
            leaves: dim(full.leaves, 4),
            hosts_per_leaf: dim(full.hosts_per_leaf, 2),
            duration: SimDuration::from_secs(
                (((full.duration.as_secs_f64()) * scale).round() as u64).max(2),
            ),
            ..full
        }
    }

    /// Host count this shape produces.
    pub fn hosts(&self) -> u32 {
        self.leaves * self.hosts_per_leaf
    }
}

/// Deterministic artifact summary (identical across domain counts apart
/// from the fields that name the count and its lookahead).
#[derive(Debug, Serialize)]
pub struct GiantOut {
    pub params: GiantParams,
    /// Domains the partitioner actually produced.
    pub domains: u16,
    /// Barrier-window width the cut guarantees, ns.
    pub lookahead_ns: u64,
    pub hosts: u32,
    pub switches: u32,
    /// Epoch lines written to the JSONL artifact.
    pub epochs: u64,
    /// Bytes of the JSONL artifact (newline framing included).
    pub export_bytes: u64,
    /// Merged ground-truth counters at end of run.
    pub stats: NetStats,
    /// Datagrams received by host apps (heartbeats + noise).
    pub delivered: u64,
}

/// One app per host: heartbeats a fixed partner, counts what it receives,
/// and (on every 10th host) blasts CBR noise to load the spine tier.
struct GiantHost {
    id: u32,
    partner: Ipv4Addr,
    hb_period: SimDuration,
    /// `None` on non-noise hosts.
    cbr_period: Option<SimDuration>,
    got: u64,
}

const TIMER_HB: u64 = 1;
const TIMER_CBR: u64 = 2;
const PORT: u16 = 7100;

impl App for GiantHost {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.bind_udp(PORT);
        // Deterministic per-host phase spreads the first wave of timers
        // so 10k hosts do not fire on the same nanosecond.
        let phase = (self.id as u64).wrapping_mul(10_007) % self.hb_period.as_nanos();
        ctx.set_timer(SimDuration::from_nanos(phase + 1), TIMER_HB);
        if let Some(cbr) = self.cbr_period {
            let phase = (self.id as u64).wrapping_mul(257) % cbr.as_nanos();
            ctx.set_timer(SimDuration::from_nanos(phase + 1), TIMER_CBR);
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, timer_id: u64) {
        match timer_id {
            TIMER_HB => {
                ctx.send_udp(PORT, self.partner, PORT, vec![0x48; 64]);
                ctx.set_timer(self.hb_period, TIMER_HB);
            }
            TIMER_CBR => {
                let cbr = self.cbr_period.expect("timer only armed with a period");
                ctx.send_udp(PORT, self.partner, PORT, vec![0xC8; 1024]);
                ctx.set_timer(cbr, TIMER_CBR);
            }
            _ => unreachable!("unknown timer {timer_id}"),
        }
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

/// Run the giant scenario, streaming one JSONL line per epoch to
/// `<results>/giant.jsonl`. Returns the deterministic summary.
pub fn run(p: &GiantParams) -> std::io::Result<GiantOut> {
    run_in(p, &report::results_dir())
}

/// [`run`] with the artifact directory named by the caller: the export
/// lands in `dir/giant.jsonl`.
pub fn run_in(p: &GiantParams, dir: &Path) -> std::io::Result<GiantOut> {
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
    let hosts = fabric.hosts;
    let switches = (fabric.topo.nodes.len() - hosts.len()) as u32;
    let routes = ClosRoutes::new(
        p.spines,
        p.leaves,
        p.hosts_per_leaf,
        host_link.delay,
        uplink.delay,
    );

    let cfg = SimConfig { seed: p.seed, ecmp: EcmpSelect::FlowHash, ..SimConfig::default() };
    let mut sim = ParSim::new_clos(fabric.topo, routes, cfg, p.domains);
    sim.set_metrics_enabled(true);

    let n = hosts.len() as u32;
    let mut app_idx = Vec::with_capacity(hosts.len());
    for (i, &h) in hosts.iter().enumerate() {
        let partner = hosts[((i as u32 + n / 2) % n) as usize];
        let app = GiantHost {
            id: i as u32,
            partner: Topology::host_ip(partner),
            hb_period: p.hb_period,
            cbr_period: (i % 10 == 0).then_some(p.cbr_period),
            got: 0,
        };
        app_idx.push((h, sim.install_app(h, Box::new(app))));
    }

    std::fs::create_dir_all(dir)?;
    let mut writer = EpochWriter::create(&dir.join("giant.jsonl"), true)?;

    let end = p.duration.as_nanos();
    let epoch = p.epoch.as_nanos().max(1);
    let epochs = end.div_ceil(epoch);
    let mut line = JsonBuf::new();
    for k in 1..=epochs {
        let t = (k * epoch).min(end);
        sim.run_until(SimTime(t));
        render_epoch_line(&mut line, k, &mut sim);
        writer.write_line(line.as_str())?;
    }
    let wstats = writer.finish()?;

    let delivered: u64 = app_idx
        .iter()
        .map(|&(h, i)| sim.app::<GiantHost>(h, i).expect("installed above").got)
        .sum();

    Ok(GiantOut {
        params: p.clone(),
        domains: sim.domains(),
        lookahead_ns: sim.partition().lookahead.as_nanos(),
        hosts: n,
        switches,
        epochs: wstats.lines,
        export_bytes: wstats.bytes,
        stats: sim.stats(),
        delivered,
    })
}

/// Render epoch `k`'s JSONL line — `{"epoch","t_ns","stats","metrics"}`
/// at the simulator's current time — into `line`, replacing what it
/// held. The buffer is the caller's to reuse: the metrics snapshot goes
/// straight into it, so an epoch's export allocates the serde-rendered
/// `stats` and nothing per series.
pub fn render_epoch_line(line: &mut JsonBuf, k: u64, sim: &mut ParSim) {
    let stats = serde_json::to_string(&sim.stats()).expect("stats serialize");
    line.clear();
    line.obj_open();
    line.key("epoch").u64(k);
    line.key("t_ns").u64(sim.now().as_nanos());
    line.key("stats").raw(&stats);
    line.key("metrics");
    sim.metrics_snapshot_into(line);
    line.obj_close();
}

/// Human summary table.
pub fn render(out: &GiantOut) -> String {
    let rows = vec![
        vec!["hosts".to_string(), out.hosts.to_string()],
        vec!["switches".to_string(), out.switches.to_string()],
        vec!["domains".to_string(), out.domains.to_string()],
        vec!["lookahead_ns".to_string(), out.lookahead_ns.to_string()],
        vec!["virtual_s".to_string(), format!("{:.0}", out.params.duration.as_secs_f64())],
        vec!["epoch_lines".to_string(), out.epochs.to_string()],
        vec!["export_bytes".to_string(), out.export_bytes.to_string()],
        vec!["events".to_string(), out.stats.events_processed.to_string()],
        vec!["delivered".to_string(), out.delivered.to_string()],
        vec!["drops".to_string(), out.stats.total_drops().to_string()],
    ];
    crate::report::table(&["giant", "value"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_floors_keep_a_real_clos() {
        let p = GiantParams::at_scale(1, 0.001);
        assert!(p.spines >= 2 && p.leaves >= 4 && p.hosts_per_leaf >= 2);
        assert!(p.duration.as_nanos() >= SimDuration::from_secs(2).as_nanos());
        assert_eq!(GiantParams::full_scale(1).hosts(), 10_000);
    }
}
