//! Probing-overhead analysis (paper §III-A).
//!
//! The paper's arithmetic: probes at 10/s × 1.5 KB ≈ 120 kbit/s, a
//! negligible ~1.1 % of a 10 Mbit/s network, versus the rapidly growing
//! cost of padding INT onto *every* packet (4.2 % of payload for two
//! fields over five switches). This module measures both sides on the
//! live testbed:
//!
//! * the actual share of wire bytes spent on probes (all-pairs mode is
//!   deliberately chattier than the paper's scheme — quantify it),
//! * the shares of scheduler control and ping traffic (a light
//!   foreground workload keeps both classes populated), and
//! * the hypothetical per-packet INT padding cost for the traffic that
//!   actually flowed, per the paper's formula.

use crate::report;
use crate::Claim;
use crate::runner::install_background;
use crate::testbed::{Testbed, TestbedConfig, ProbeMode};
use int_apps::{PingApp, TaskSubmitterApp};
use int_netsim::{SimDuration, SimTime, Topology, TrafficClass};
use int_packet::int::IntRecord;
use int_packet::msgs::RankingKind;
use int_workload::{
    BackgroundScenario, JobKind, JobSpec, TaskClass, WorkloadConfig, WorkloadGenerator,
};
use serde::Serialize;

/// Overhead measured for one probing mode.
#[derive(Debug, Clone, Serialize)]
pub struct OverheadRow {
    /// Probing mode label.
    pub mode: String,
    /// Wire bytes of probe traffic.
    pub probe_bytes: u64,
    /// Wire bytes of everything.
    pub total_bytes: u64,
    /// Probe share of all wire bytes.
    pub probe_share: f64,
    /// Probe offered rate network-wide, bit/s.
    pub probe_rate_bps: f64,
    /// Wire bytes of scheduler/task control traffic (UDP and TCP forms
    /// both count — see `TrafficClass::of_parsed`).
    pub control_bytes: u64,
    /// Control share of all wire bytes.
    pub control_share: f64,
    /// Wire bytes of echo (ping) traffic, requests and replies.
    pub ping_bytes: u64,
    /// Ping share of all wire bytes.
    pub ping_share: f64,
    /// Hypothetical extra bytes if INT were instead padded onto every
    /// data packet for `avg_hops` switches (paper's alternative design).
    pub per_packet_int_bytes: u64,
    /// That alternative's share of total traffic.
    pub per_packet_int_share: f64,
}

/// The full report.
#[derive(Debug, Clone, Serialize)]
pub struct OverheadOutput {
    /// One row per probing mode.
    pub rows: Vec<OverheadRow>,
    /// Measurement duration, seconds.
    pub duration_s: f64,
}

/// Measure probing overhead on the testbed with default background load.
pub fn run(seed: u64, duration: SimDuration) -> OverheadOutput {
    let rows = [ProbeMode::SchedulerOnly, ProbeMode::AllPairs]
        .into_iter()
        .map(|mode| measure(seed, duration, mode))
        .collect();
    OverheadOutput { rows, duration_s: duration.as_secs_f64() }
}

/// §III-A: probing is far cheaper than padding INT onto every packet.
pub const CLAIMS: &[Claim<OverheadOutput>] = &[Claim {
    paper: "SchedulerOnly probing costs ≥ 10× fewer wire bytes than per-packet INT padding",
    check: |out| {
        let r = out.rows.iter().find(|r| r.mode == "SchedulerOnly").ok_or("no SchedulerOnly row")?;
        if r.probe_share * 10.0 <= r.per_packet_int_share {
            Ok(())
        } else {
            Err(format!("probe share {} vs padding {}", r.probe_share, r.per_packet_int_share))
        }
    },
}];

fn measure(seed: u64, duration: SimDuration, mode: ProbeMode) -> OverheadRow {
    let mut tb = Testbed::new(&TestbedConfig { seed, probe_mode: mode, ..TestbedConfig::default() });
    tb.sim.set_account_traffic(true);

    let nodes: Vec<u32> = tb.hosts.iter().map(|h| h.0).collect();
    let flows = BackgroundScenario::Default.generate(
        &nodes,
        duration.as_nanos(),
        15_000_000,
        seed,
    );
    install_background(&mut tb, &flows);

    // A light foreground so the Control and Ping classes carry real
    // traffic (same classes a deployed testbed would see): every host
    // pings its ring neighbour once per second, and a thin serverless
    // job stream exercises the query/response scheduler path.
    for (i, &h) in tb.hosts.iter().enumerate() {
        let neighbour = tb.hosts[(i + 1) % tb.hosts.len()];
        tb.sim.install_app(
            h,
            Box::new(PingApp::new(Topology::host_ip(neighbour), SimDuration::from_secs(1))),
        );
    }
    let wl = WorkloadConfig {
        total_tasks: ((duration.as_secs_f64() / 3.0) as usize).max(4),
        kind: JobKind::Serverless,
        submitters: nodes.clone(),
        classes: vec![TaskClass::Small],
        ..WorkloadConfig::default()
    };
    let jobs = WorkloadGenerator::new(seed).generate(&wl);
    let scheduler_ip = Topology::host_ip(tb.scheduler);
    for &host in &tb.hosts {
        let mine: Vec<JobSpec> = jobs.iter().filter(|j| j.submitter == host.0).cloned().collect();
        if !mine.is_empty() {
            tb.sim.install_app(
                host,
                Box::new(TaskSubmitterApp::new(scheduler_ip, RankingKind::Delay, mine)),
            );
        }
    }

    tb.sim.run_until(SimTime::ZERO + duration);

    let acc = tb.sim.traffic();
    let probe_bytes = acc.class(TrafficClass::Probe).bytes;
    let control_bytes = acc.class(TrafficClass::Control).bytes;
    let ping_bytes = acc.class(TrafficClass::Ping).bytes;
    let total_bytes = acc.total_bytes();
    let share = |bytes: u64| if total_bytes == 0 { 0.0 } else { bytes as f64 / total_bytes as f64 };

    // The paper's alternative: pad each non-probe packet with one INT
    // record per switch hop. Average path ≈ 4 switches on this testbed.
    let avg_hops = 4u64;
    let data_pkts: u64 = [
        TrafficClass::TaskData,
        TrafficClass::Background,
        TrafficClass::Control,
        TrafficClass::Ping,
    ]
    .iter()
    .map(|&c| acc.class(c).packets)
    .sum();
    let per_packet_int_bytes = data_pkts * avg_hops * IntRecord::LEN as u64;

    OverheadRow {
        mode: format!("{mode:?}"),
        probe_bytes,
        total_bytes,
        probe_share: share(probe_bytes),
        probe_rate_bps: probe_bytes as f64 * 8.0 / duration.as_secs_f64(),
        control_bytes,
        control_share: share(control_bytes),
        ping_bytes,
        ping_share: share(ping_bytes),
        per_packet_int_bytes,
        per_packet_int_share: share(per_packet_int_bytes),
    }
}

/// Render the comparison table.
pub fn render(out: &OverheadOutput) -> String {
    let rows: Vec<Vec<String>> = out
        .rows
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                format!("{:.1} kbit/s", r.probe_rate_bps / 1e3),
                format!("{:.2}%", r.probe_share * 100.0),
                format!("{:.3}%", r.control_share * 100.0),
                format!("{:.3}%", r.ping_share * 100.0),
                format!("{:.2}%", r.per_packet_int_share * 100.0),
            ]
        })
        .collect();
    report::table(
        &[
            "probing mode",
            "probe rate",
            "probe share of wire bytes",
            "control share",
            "ping share",
            "per-packet INT alternative",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_are_a_small_fraction_and_padding_would_cost_more() {
        let out = run(1, SimDuration::from_secs(20));
        assert_eq!(out.rows.len(), 2);
        for r in &out.rows {
            assert!(r.probe_bytes > 0, "{}: probes flowed", r.mode);
            assert!(r.probe_share < 0.10, "{}: probes stay <10%: {:.3}", r.mode, r.probe_share);
            assert!(
                r.per_packet_int_share > r.probe_share / 20.0,
                "padding alternative is not free"
            );
        }
        // All-pairs is chattier than scheduler-only, by design.
        assert!(out.rows[1].probe_bytes > out.rows[0].probe_bytes);
    }

    /// The §III-A claim holds while SchedulerOnly probing costs under a
    /// tenth of the padding, and fails past that or without the row.
    #[test]
    fn the_claim_fails_on_a_report_that_breaks_it() {
        let row = |mode: &str, probe_share, per_packet_int_share| OverheadRow {
            mode: mode.into(),
            probe_bytes: 0,
            total_bytes: 0,
            probe_share,
            probe_rate_bps: 0.0,
            control_bytes: 0,
            control_share: 0.0,
            ping_bytes: 0,
            ping_share: 0.0,
            per_packet_int_bytes: 0,
            per_packet_int_share,
        };
        // AllPairs alone would fail: the claim is about SchedulerOnly.
        let good = OverheadOutput {
            rows: vec![row("SchedulerOnly", 0.003, 0.04), row("AllPairs", 0.02, 0.04)],
            duration_s: 120.0,
        };
        let [claim] = CLAIMS else { panic!("§III-A has one claim") };
        assert_eq!((claim.check)(&good), Ok(()));
        let breaks: [fn(&mut OverheadOutput); 2] =
            [|o| o.rows[0].probe_share = 0.0041, |o| o.rows[0].mode = "AllPairs".into()];
        for (i, edit) in breaks.into_iter().enumerate() {
            let mut bad = good.clone();
            edit(&mut bad);
            assert!((claim.check)(&bad).is_err(), "edit {i} breaks no claim");
        }
    }

    #[test]
    fn per_class_breakdown_is_consistent() {
        let out = run(1, SimDuration::from_secs(20));
        for r in &out.rows {
            assert!(r.ping_bytes > 0, "{}: echo traffic flowed", r.mode);
            assert!(r.control_bytes > 0, "{}: scheduler control traffic flowed", r.mode);
            assert!(
                r.probe_bytes + r.control_bytes + r.ping_bytes <= r.total_bytes,
                "{}: class bytes are a partition of the total",
                r.mode
            );
            let eps = 1e-12;
            assert!((r.control_share - r.control_bytes as f64 / r.total_bytes as f64).abs() < eps);
            assert!((r.ping_share - r.ping_bytes as f64 / r.total_bytes as f64).abs() < eps);
        }
    }
}
