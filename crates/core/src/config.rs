//! Tunables for the scheduler core, with the paper's values as defaults.
//!
//! A field is settable only because some experiment or deployment sets
//! it to a value other than the default:
//!
//! - `k_ns_per_pkt` and `hop_signal`: the two ablations vary them.
//! - `staleness_ns`, `qlen_window_ns`, `eviction_horizon_ns` and
//!   `origin_silence_ns`: failover, fig9, fabric and the testbed scale
//!   them to their probing intervals.
//! - `k_paths`: the fabric experiment prices 4 paths per pair.
//! - `link_capacity_bps` and `util_curve`: they describe the deployment's
//!   links, not the algorithm.
//!
//! What no caller varies is a constant beside the code that reads it: the
//! delay EWMA weight lives in [`crate::map`], and an unprobed direction
//! always reads the reverse direction's measurements.

use serde::Serialize;

/// A `(max_queue_pkts, utilization)` control point of the queue-occupancy →
/// link-utilization curve (paper Fig. 3, used by §III-D).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct UtilPoint {
    /// Max queue occupancy observed over a probing interval, packets.
    pub qlen: u32,
    /// Inferred link utilization in `[0, 1]`.
    pub util: f64,
}

/// Which queue signal drives hop-delay inference — the paper's ablation:
/// it found per-interval *maximum* queue occupancy informative and averages
/// "inconclusive" (§III-C); the instantaneous sample a probe happens to see
/// behaves like an average and is kept for the ablation harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum HopSignal {
    /// Max queue occupancy since the last harvest (the paper's choice).
    MaxQueue,
    /// Queue occupancy at the instant the probe was enqueued.
    InstantaneousQueue,
}

/// Configuration of the scheduler core.
#[derive(Debug, Clone, Serialize)]
pub struct CoreConfig {
    /// Queue-occupancy → hop-latency conversion factor in nanoseconds per
    /// packet — the paper's `k`, fixed at 20 ms (§III-C).
    pub k_ns_per_pkt: u64,
    /// Assumed per-link capacity for available-bandwidth estimation, bit/s.
    /// The paper's testbed bottleneck was ~20 Mbit/s.
    pub link_capacity_bps: u64,
    /// The queue→utilization curve (piecewise linear, sorted by `qlen`).
    pub util_curve: Vec<UtilPoint>,
    /// Measurements older than this are treated as stale (queue assumed
    /// empty): congestion signals must come from the last probing rounds.
    pub staleness_ns: u64,
    /// Queue signal for hop-delay inference (ablation knob).
    pub hop_signal: HopSignal,
    /// Sliding window over which per-edge max-queue harvests are combined.
    /// With several probes crossing an egress per interval, each harvest
    /// resets the register and sees only a slice of the interval; taking
    /// the max over this window restores the paper's per-interval-max
    /// semantics at the collector.
    pub qlen_window_ns: u64,
    /// Links not refreshed by any probe within this horizon are *evicted*
    /// from the learned map (not merely read as stale): the scheduler must
    /// forget infrastructure that stopped carrying probes, or it keeps
    /// ranking hosts over ghost telemetry after a failure.
    pub eviction_horizon_ns: u64,
    /// An origin that sent probes before but has been silent this long is
    /// presumed unreachable and excluded from INT-based rankings until it
    /// is heard from again.
    pub origin_silence_ns: u64,
    /// Number of candidate paths the ranking engine prices per host pair
    /// (k-shortest by successive edge exclusion). 1 (the default) is the
    /// paper's single delay-weighted route; fabrics with ECMP set this to
    /// the spread probes cover so the ranker can pick the best of the
    /// per-path estimates.
    pub k_paths: u32,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            k_ns_per_pkt: 20_000_000, // k = 20 ms per queued packet
            link_capacity_bps: 20_000_000,
            util_curve: default_util_curve(),
            staleness_ns: 3_000_000_000, // 3 s
            hop_signal: HopSignal::MaxQueue,
            qlen_window_ns: 500_000_000,
            eviction_horizon_ns: 10_000_000_000, // 10 s ≈ 100 default intervals
            origin_silence_ns: 3_000_000_000,    // 3 s ≈ 30 default intervals
            k_paths: 1,
        }
    }
}

/// The Fig. 3 relationship digitized as control points: queues stay under
/// ~5 packets below 50 % utilization, exceed 30 packets near saturation.
pub fn default_util_curve() -> Vec<UtilPoint> {
    vec![
        UtilPoint { qlen: 0, util: 0.0 },
        UtilPoint { qlen: 2, util: 0.30 },
        UtilPoint { qlen: 5, util: 0.50 },
        UtilPoint { qlen: 10, util: 0.70 },
        UtilPoint { qlen: 30, util: 0.90 },
        UtilPoint { qlen: 60, util: 1.0 },
    ]
}

impl CoreConfig {
    /// Interpolate the utilization for an observed max queue length.
    pub fn utilization_for_qlen(&self, qlen: u32) -> f64 {
        let curve = &self.util_curve;
        debug_assert!(!curve.is_empty(), "empty utilization curve");
        if qlen <= curve[0].qlen {
            return curve[0].util;
        }
        for w in curve.windows(2) {
            let (a, b) = (w[0], w[1]);
            if qlen <= b.qlen {
                let span = (b.qlen - a.qlen) as f64;
                let frac = (qlen - a.qlen) as f64 / span;
                return a.util + frac * (b.util - a.util);
            }
        }
        curve.last().expect("non-empty").util
    }

    /// Estimated available bandwidth on a link with the given observed max
    /// queue length, bit/s.
    pub fn available_bw_for_qlen(&self, qlen: u32) -> u64 {
        let util = self.utilization_for_qlen(qlen).clamp(0.0, 1.0);
        ((1.0 - util) * self.link_capacity_bps as f64).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_endpoints() {
        let c = CoreConfig::default();
        assert_eq!(c.utilization_for_qlen(0), 0.0);
        assert_eq!(c.utilization_for_qlen(60), 1.0);
        assert_eq!(c.utilization_for_qlen(1000), 1.0, "clamps past the last point");
    }

    #[test]
    fn curve_interpolates_between_points() {
        let c = CoreConfig::default();
        // Midway between (5, 0.5) and (10, 0.7).
        let u = c.utilization_for_qlen(7);
        assert!((u - 0.58).abs() < 1e-9, "{u}");
    }

    #[test]
    fn curve_is_monotone() {
        let c = CoreConfig::default();
        let mut prev = -1.0;
        for q in 0..=100 {
            let u = c.utilization_for_qlen(q);
            assert!(u >= prev, "monotone at q={q}");
            prev = u;
        }
    }

    #[test]
    fn available_bw_complements_utilization() {
        let c = CoreConfig::default();
        assert_eq!(c.available_bw_for_qlen(0), 20_000_000);
        assert_eq!(c.available_bw_for_qlen(60), 0);
        let half = c.available_bw_for_qlen(5);
        assert_eq!(half, 10_000_000, "50% utilization leaves half the capacity");
    }

    #[test]
    fn paper_k_default() {
        assert_eq!(CoreConfig::default().k_ns_per_pkt, 20_000_000);
    }
}
