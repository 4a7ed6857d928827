//! Fig. 3: max queue length (left) and packet delay (right) at different
//! egress-port utilization levels.
//!
//! Setup mirrors the paper's §III-C experiment: two hosts joined by one
//! P4 switch whose egress rate is capped at 20 Mbit/s (the BMv2
//! bottleneck); links add 10 ms each, so the idle RTT is 40 ms. An iperf
//! flow offers `util × 20 Mbit/s`; probes run at 100 ms intervals
//! harvesting the max-queue register; ping samples RTT once a second.
//! Each utilization level runs for `duration` (paper: 300 s) and the mean
//! of the per-interval max queue lengths and of the RTT samples is
//! reported.

use crate::par;
use crate::report;
use crate::Claim;
use int_apps::iperf::{IperfConfig, IperfSenderApp, IPERF_UDP_PORT};
use int_apps::{EchoResponderApp, PingApp, ProbeCollectorApp, ProbeSenderApp, UdpSinkApp};
use int_netsim::{LinkParams, SimConfig, SimDuration, SimTime, Simulator, Topology};
use serde::Serialize;

/// Parameters of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Config {
    /// Utilization levels to test (fraction of the 20 Mbit/s ceiling).
    pub utilizations: Vec<f64>,
    /// Measurement duration per level (paper: 300 s).
    pub duration: SimDuration,
    /// Switch egress ceiling, bit/s.
    pub switch_rate_bps: u64,
    /// Egress queue capacity, packets.
    pub queue_cap_pkts: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Fig3Config {
            utilizations: vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
            duration: SimDuration::from_secs(300),
            switch_rate_bps: 20_000_000,
            queue_cap_pkts: 128,
            seed: 1,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig3Point {
    /// Offered utilization (fraction).
    pub utilization: f64,
    /// Mean of the per-probing-interval max queue lengths, packets.
    pub mean_max_qlen: f64,
    /// Largest max queue length any probe reported, packets.
    pub peak_qlen: u32,
    /// Mean ping RTT, ms.
    pub mean_rtt_ms: f64,
    /// Fraction of pings answered (drops reduce this near saturation).
    pub ping_reply_rate: f64,
}

/// The full sweep result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Output {
    /// Configuration used.
    pub config: Fig3Config,
    /// One point per utilization level.
    pub points: Vec<Fig3Point>,
}

/// Run the sweep on `workers` threads (each level is its own simulation).
pub fn run(workers: usize, cfg: &Fig3Config) -> Fig3Output {
    let points = par::parallel_map(workers, &cfg.utilizations, |&u| run_level(cfg, u));
    Fig3Output { config: cfg.clone(), points }
}

/// Fig. 3's shape: short queues and a flat RTT until the link nears
/// saturation, then both blow up.
pub const CLAIMS: &[Claim<Fig3Output>] = &[
    Claim {
        paper: "mean max queue < 5 packets at ≤ 50 % utilisation",
        check: |out| every_point(out, |p, _| p.utilization > 0.5 || p.mean_max_qlen < 5.0),
    },
    Claim {
        paper: "peak queue > 30 packets at ≥ 90 % utilisation",
        check: |out| every_point(out, |p, _| p.utilization < 0.9 || p.peak_qlen > 30),
    },
    Claim {
        paper: "mean RTT within ± 5 % of the idle RTT up to 80 % utilisation",
        check: |out| {
            every_point(out, |p, idle| p.utilization > 0.8 || (p.mean_rtt_ms / idle - 1.0).abs() <= 0.05)
        },
    },
    Claim {
        paper: "mean RTT at 100 % utilisation ≥ 1.5× the idle RTT",
        check: |out| every_point(out, |p, idle| p.utilization < 1.0 || p.mean_rtt_ms >= 1.5 * idle),
    },
];

/// `Err` names the first point of the sweep that fails `holds`, which is
/// also handed the idle RTT (the sweep's first point is 0 %).
fn every_point(out: &Fig3Output, holds: impl Fn(&Fig3Point, f64) -> bool) -> Result<(), String> {
    let idle = out.points[0].mean_rtt_ms;
    match out.points.iter().find(|p| !holds(p, idle)) {
        Some(p) => Err(format!("{p:?}")),
        None => Ok(()),
    }
}

fn run_level(cfg: &Fig3Config, utilization: f64) -> Fig3Point {
    let mut t = Topology::new();
    let h1 = t.add_host("h1");
    let s1 = t.add_switch("s1");
    let h2 = t.add_host("h2");
    let link = LinkParams {
        bandwidth_bps: 1_000_000_000,
        delay: SimDuration::from_millis(10),
        queue_cap_pkts: cfg.queue_cap_pkts,
    };
    t.add_link(h1, s1, link);
    t.add_link(s1, h2, link);

    let mut sim = Simulator::new(
        t,
        SimConfig {
            seed: cfg.seed,
            switch_egress_rate_bps: Some(cfg.switch_rate_bps),
            ..SimConfig::default()
        },
    );

    let h2_ip = Topology::host_ip(h2);
    // Background load.
    let rate = (utilization * cfg.switch_rate_bps as f64) as u64;
    if rate > 0 {
        sim.install_app(
            h1,
            Box::new(IperfSenderApp::new(IperfConfig::new(
                h2_ip,
                rate,
                SimTime::ZERO,
                cfg.duration,
            ))),
        );
        sim.install_app(h2, Box::new(UdpSinkApp::new(IPERF_UDP_PORT)));
    }
    // Telemetry: probes h1 → h2 across the switch.
    sim.install_app(h1, Box::new(ProbeSenderApp::new(h2_ip, SimDuration::from_millis(100))));
    let collector = sim.install_app(h2, Box::new(ProbeCollectorApp::new()));
    // Ground truth: ping once a second.
    let ping = sim.install_app(h1, Box::new(PingApp::new(h2_ip, SimDuration::from_secs(1))));
    sim.install_app(h2, Box::new(EchoResponderApp::new()));

    sim.run_until(SimTime::ZERO + cfg.duration);

    let col = sim.app::<ProbeCollectorApp>(h2, collector).expect("collector");
    let qlens = col.max_qlens_of(s1.0);
    let mean_max_qlen = if qlens.is_empty() {
        0.0
    } else {
        qlens.iter().map(|&q| q as f64).sum::<f64>() / qlens.len() as f64
    };
    let peak_qlen = qlens.iter().copied().max().unwrap_or(0);

    let png = sim.app::<PingApp>(h1, ping).expect("ping");
    Fig3Point {
        utilization,
        mean_max_qlen,
        peak_qlen,
        mean_rtt_ms: png.mean_rtt_ms().unwrap_or(f64::NAN),
        ping_reply_rate: png.reply_rate(),
    }
}

/// Render the paper-style table.
pub fn render(out: &Fig3Output) -> String {
    let rows: Vec<Vec<String>> = out
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.utilization * 100.0),
                format!("{:.1}", p.mean_max_qlen),
                p.peak_qlen.to_string(),
                report::ms(p.mean_rtt_ms),
                format!("{:.0}%", p.ping_reply_rate * 100.0),
            ]
        })
        .collect();
    report::table(
        &["utilization", "mean max qlen (pkts)", "peak qlen", "mean RTT (ms)", "ping replies"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down sweep that still shows the paper's shape.
    #[test]
    fn queue_and_rtt_grow_with_utilization() {
        let cfg = Fig3Config {
            utilizations: vec![0.2, 0.95],
            duration: SimDuration::from_secs(30),
            ..Fig3Config::default()
        };
        let out = run(2, &cfg);
        assert_eq!(out.points.len(), 2);
        let low = out.points[0];
        let high = out.points[1];

        assert!(low.mean_max_qlen < 5.0, "low load keeps queues short: {}", low.mean_max_qlen);
        assert!(
            high.mean_max_qlen > 2.0 * low.mean_max_qlen.max(0.5),
            "queues grow with load: {} vs {}",
            high.mean_max_qlen,
            low.mean_max_qlen
        );
        assert!((40.0..45.0).contains(&low.mean_rtt_ms), "near-idle RTT ≈ 40 ms: {}", low.mean_rtt_ms);
        assert!(high.mean_rtt_ms > low.mean_rtt_ms + 5.0, "RTT inflates: {}", high.mean_rtt_ms);
    }

    /// Each of Fig. 3's claims holds on a sweep with the paper's shape,
    /// and one edit to one point breaks that claim and no other.
    #[test]
    fn each_claim_fails_on_a_sweep_that_breaks_it() {
        let point = |utilization, mean_max_qlen, peak_qlen, mean_rtt_ms| Fig3Point {
            utilization,
            mean_max_qlen,
            peak_qlen,
            mean_rtt_ms,
            ping_reply_rate: 1.0,
        };
        let good = Fig3Output {
            config: Fig3Config::default(),
            points: vec![
                point(0.0, 0.0, 0, 40.0),
                point(0.5, 4.0, 9, 41.0),
                point(0.8, 12.0, 25, 41.5),
                point(0.9, 25.0, 31, 50.0),
                point(1.0, 60.0, 128, 60.0),
            ],
        };
        // In CLAIMS order.
        let breaks: [fn(&mut Fig3Output); 4] = [
            |o| o.points[1].mean_max_qlen = 5.0,
            |o| o.points[3].peak_qlen = 30,
            |o| o.points[2].mean_rtt_ms = 42.5,
            |o| o.points[4].mean_rtt_ms = 59.5,
        ];
        assert_eq!(breaks.len(), CLAIMS.len());
        for c in CLAIMS {
            assert_eq!((c.check)(&good), Ok(()), "{}", c.paper);
        }
        for (i, edit) in breaks.into_iter().enumerate() {
            let mut bad = good.clone();
            edit(&mut bad);
            for (j, c) in CLAIMS.iter().enumerate() {
                assert_eq!((c.check)(&bad).is_err(), i == j, "edit {i}: \"{}\"", c.paper);
            }
        }
    }

    #[test]
    fn render_produces_rows() {
        let out = Fig3Output {
            config: Fig3Config::default(),
            points: vec![Fig3Point {
                utilization: 0.5,
                mean_max_qlen: 3.2,
                peak_qlen: 9,
                mean_rtt_ms: 44.0,
                ping_reply_rate: 1.0,
            }],
        };
        let text = render(&out);
        assert!(text.contains("50%"));
        assert!(text.contains("3.2"));
    }
}
