//! End-to-end path estimation from the learned map.
//!
//! * [`DelayEstimator`] — paper §III-C / Algorithm 1:
//!   `Delay(e_n, e_m) = Σ delay(l_i) + Σ k · Q(h_i)` where `Q(h_i)` is the
//!   max queue occupancy of hop *i* in the last probing interval and *k*
//!   converts queued packets to latency (20 ms by default).
//! * [`BandwidthEstimator`] — paper §III-D:
//!   `throughput(e_n, e_m) = min(b_1 … b_k)` where each `b_i` is the
//!   available bandwidth inferred from the hop's queue occupancy via the
//!   Fig. 3 utilization curve.

use crate::config::CoreConfig;
use crate::map::{NetNode, NetworkMap};
use std::sync::Arc;

/// Components of a delay estimate (useful for diagnostics and ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayBreakdown {
    /// Σ measured link transmission delays, ns.
    pub link_delay_ns: u64,
    /// Σ k·Q inferred hop (queuing) delays, ns.
    pub hop_delay_ns: u64,
    /// Number of links on the path.
    pub links: usize,
    /// Number of switch hops on the path.
    pub hops: usize,
}

impl DelayBreakdown {
    /// Total estimated one-way delay, ns. Saturating: on a long Clos path
    /// the two sums can each approach `u64::MAX` (the per-hop penalty is
    /// `k · Q` with k = 20 ms), and a wrapping total would rank a
    /// saturated path *best* instead of worst.
    pub fn total_ns(&self) -> u64 {
        self.link_delay_ns.saturating_add(self.hop_delay_ns)
    }
}

/// Algorithm 1's delay model.
#[derive(Debug, Clone)]
pub struct DelayEstimator {
    /// Shared, not cloned: one `CoreConfig` allocation per control plane.
    cfg: Arc<CoreConfig>,
}

impl DelayEstimator {
    /// Estimator with the given configuration. Accepts either an owned
    /// `CoreConfig` or an already-shared `Arc<CoreConfig>`.
    pub fn new(cfg: impl Into<Arc<CoreConfig>>) -> Self {
        DelayEstimator { cfg: cfg.into() }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Estimate the one-way delay between two hosts over the learned map.
    /// Returns `None` when the map has no path between them yet.
    ///
    /// Routes via the reference [`NetworkMap::path`]. Serving
    /// ([`crate::snapshot`]) folds the same terms along its shortest-path
    /// tree and yields identical numbers.
    pub fn estimate(
        &self,
        map: &NetworkMap,
        from: NetNode,
        to: NetNode,
        now_ns: u64,
    ) -> Option<DelayBreakdown> {
        let path = map.path(from, to)?;
        Some(self.estimate_along(map, &path, now_ns))
    }

    /// Estimate along an explicit node path (exposed for ablations).
    ///
    /// # Panics
    ///
    /// If two consecutive nodes of `path` are not joined by a live edge
    /// of `map`, as they are on every path [`NetworkMap::path`] and
    /// [`NetworkMap::k_paths`] return.
    pub fn estimate_along(
        &self,
        map: &NetworkMap,
        path: &[NetNode],
        now_ns: u64,
    ) -> DelayBreakdown {
        let mut link_delay_ns = 0u64;
        let mut hop_delay_ns = 0u64;
        let mut links = 0usize;
        let mut hops = 0usize;

        // All sums saturate: 8+-hop fabric paths of near-sentinel samples
        // (an unrefreshed edge can legitimately carry a huge EWMA'd delay)
        // must pin at `u64::MAX`, not wrap around to "nearby".
        for w in path.windows(2) {
            let (a, b) = (w[0], w[1]);
            link_delay_ns = link_delay_ns.saturating_add(
                map.effective_delay_ns(a, b)
                    .expect("consecutive path nodes are joined by a live edge in one direction"),
            );
            links += 1;
            if matches!(a, NetNode::Switch(_)) {
                let q = map.effective_qlen(&self.cfg, a, b, now_ns);
                hop_delay_ns =
                    hop_delay_ns.saturating_add(self.cfg.k_ns_per_pkt.saturating_mul(q as u64));
                hops += 1;
            }
        }
        DelayBreakdown { link_delay_ns, hop_delay_ns, links, hops }
    }
}

/// §III-D's bottleneck available-bandwidth model.
#[derive(Debug, Clone)]
pub struct BandwidthEstimator {
    cfg: Arc<CoreConfig>,
}

impl BandwidthEstimator {
    /// Estimator with the given configuration (owned or shared).
    pub fn new(cfg: impl Into<Arc<CoreConfig>>) -> Self {
        BandwidthEstimator { cfg: cfg.into() }
    }

    /// Estimate available path bandwidth between two hosts, bit/s.
    pub fn estimate(
        &self,
        map: &NetworkMap,
        from: NetNode,
        to: NetNode,
        now_ns: u64,
    ) -> Option<u64> {
        let path = map.path(from, to)?;
        Some(self.estimate_along(map, &path, now_ns))
    }

    /// Estimate along an explicit node path.
    pub fn estimate_along(&self, map: &NetworkMap, path: &[NetNode], now_ns: u64) -> u64 {
        let mut bottleneck = self.cfg.link_capacity_bps;
        for w in path.windows(2) {
            let (a, b) = (w[0], w[1]);
            if matches!(a, NetNode::Switch(_)) {
                let q = map.effective_qlen(&self.cfg, a, b, now_ns);
                bottleneck = bottleneck.min(self.cfg.available_bw_for_qlen(q));
            }
        }
        bottleneck
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use int_packet::int::IntRecord;
    use int_packet::ProbePayload;

    fn rec(switch_id: u32, maxq: u32, egress_ts_ms: u64) -> IntRecord {
        IntRecord {
            switch_id,
            ingress_port: 0,
            egress_port: 1,
            max_qlen_pkts: maxq,
            qlen_at_probe_pkts: 0,
            link_latency_ns: 10_000_000,
            egress_ts_ns: egress_ts_ms * 1_000_000,
        }
    }

    /// Map learned from probes of two servers (hosts 1, 2) through distinct
    /// switch chains to scheduler host 6: 1→[10,11]→6, 2→[12,11]→6.
    /// Switch 10's egress queue is congested (20 pkts); 12's is idle.
    fn map() -> NetworkMap {
        let mut m = NetworkMap::new();
        let mut p1 = ProbePayload::new(1, 1, 0);
        p1.int.push(rec(10, 20, 11));
        p1.int.push(rec(11, 0, 22));
        m.apply_probe(&p1, 6, 32_000_000);
        let mut p2 = ProbePayload::new(2, 1, 0);
        p2.int.push(rec(12, 0, 11));
        p2.int.push(rec(11, 0, 22));
        m.apply_probe(&p2, 6, 32_000_000);
        m
    }

    #[test]
    fn delay_is_links_plus_k_times_queue() {
        let m = map();
        let est = DelayEstimator::new(CoreConfig::default());
        // Path 6 → 11 → 10 → 1: three 10 ms links.
        // Hops: switch 11 egress→10 (reverse of 10→11 qlen 20) and switch
        // 10 egress→host1 (reverse of host1→10, qlen 0).
        let d = est.estimate(&m, NetNode::Host(6), NetNode::Host(1), 32_000_000).unwrap();
        assert_eq!(d.links, 3);
        assert_eq!(d.hops, 2);
        assert_eq!(d.link_delay_ns, 30_000_000);
        assert_eq!(d.hop_delay_ns, 20 * 20_000_000, "k=20ms × 20 queued packets");
        assert_eq!(d.total_ns(), 430_000_000);
    }

    #[test]
    fn uncongested_path_has_zero_hop_delay() {
        let m = map();
        let est = DelayEstimator::new(CoreConfig::default());
        let d = est.estimate(&m, NetNode::Host(6), NetNode::Host(2), 32_000_000).unwrap();
        assert_eq!(d.hop_delay_ns, 0);
        assert_eq!(d.total_ns(), 30_000_000);
    }

    #[test]
    fn congestion_ranks_host2_closer_than_host1() {
        let m = map();
        let est = DelayEstimator::new(CoreConfig::default());
        let d1 = est.estimate(&m, NetNode::Host(6), NetNode::Host(1), 32_000_000).unwrap();
        let d2 = est.estimate(&m, NetNode::Host(6), NetNode::Host(2), 32_000_000).unwrap();
        assert!(d2.total_ns() < d1.total_ns());
    }

    #[test]
    fn bandwidth_bottleneck_is_min_over_path() {
        let m = map();
        let est = BandwidthEstimator::new(CoreConfig::default());
        let b1 = est.estimate(&m, NetNode::Host(6), NetNode::Host(1), 32_000_000).unwrap();
        let b2 = est.estimate(&m, NetNode::Host(6), NetNode::Host(2), 32_000_000).unwrap();
        // qlen 20 → util 0.8 → 4 Mbit/s available; idle path → full 20.
        assert_eq!(b1, 4_000_000);
        assert_eq!(b2, 20_000_000);
    }

    #[test]
    fn unknown_destination_yields_none() {
        let m = map();
        let est = DelayEstimator::new(CoreConfig::default());
        assert!(est.estimate(&m, NetNode::Host(6), NetNode::Host(42), 0).is_none());
    }

    #[test]
    fn self_path_is_free() {
        let m = map();
        let est = DelayEstimator::new(CoreConfig::default());
        let d = est.estimate(&m, NetNode::Host(1), NetNode::Host(1), 0).unwrap();
        assert_eq!(d.total_ns(), 0);
        assert_eq!(d.links, 0);
    }

    /// Satellite regression for long Clos paths: the per-link and per-hop
    /// accumulators used to wrap on 8+-hop paths whose links carry
    /// near-`u64::MAX` delay samples, ranking the worst path as nearly
    /// free. Saturating arithmetic must pin the total at the ceiling.
    #[test]
    fn long_path_with_saturated_links_pins_at_max_instead_of_wrapping() {
        let mut m = NetworkMap::new();
        // A 9-switch chain, every link at u64::MAX/4 ns and every egress
        // queue deeply congested: both accumulators overflow u64 if summed
        // naively.
        let mut p = ProbePayload::new(1, 1, 0);
        for sw in 10u32..19 {
            p.int.push(IntRecord {
                switch_id: sw,
                ingress_port: 0,
                egress_port: 1,
                max_qlen_pkts: u32::MAX,
                qlen_at_probe_pkts: 0,
                link_latency_ns: u64::MAX / 4,
                egress_ts_ns: 11_000_000,
            });
        }
        m.apply_probe(&p, 6, 32_000_000);

        // Dijkstra refuses paths whose distance saturates, but the k-path
        // machinery prices explicitly supplied node sequences with
        // `estimate_along` — that walk must saturate, not wrap.
        let mut path = vec![NetNode::Host(1)];
        path.extend((10u32..19).map(NetNode::Switch));
        path.push(NetNode::Host(6));
        let est = DelayEstimator::new(CoreConfig::default());
        let d = est.estimate_along(&m, &path, 32_000_000);
        assert_eq!(d.links, 10);
        assert_eq!(d.link_delay_ns, u64::MAX, "4+ links at MAX/4 saturate");
        assert_eq!(d.total_ns(), u64::MAX, "total saturates too");

        // A short, cheap path must still rank strictly better than the
        // saturated one — the property overflow used to violate.
        let mut m2 = NetworkMap::new();
        let mut q = ProbePayload::new(1, 1, 0);
        q.int.push(rec(10, 0, 11));
        m2.apply_probe(&q, 6, 21_000_000);
        let cheap =
            est.estimate(&m2, NetNode::Host(1), NetNode::Host(6), 21_000_000).unwrap().total_ns();
        assert!(cheap < d.total_ns());
    }

    #[test]
    fn hop_penalty_saturates_per_hop_multiply() {
        // k_ns_per_pkt × qlen alone can overflow; the multiply itself must
        // saturate, not just the running sum.
        let cfg = CoreConfig { k_ns_per_pkt: u64::MAX / 2, ..CoreConfig::default() };
        let mut m = NetworkMap::new();
        let mut p = ProbePayload::new(1, 1, 0);
        p.int.push(rec(10, 3, 11));
        p.int.push(rec(11, 3, 22));
        m.apply_probe(&p, 6, 32_000_000);
        let est = DelayEstimator::new(cfg);
        let d = est.estimate(&m, NetNode::Host(6), NetNode::Host(1), 32_000_000).unwrap();
        assert_eq!(d.hop_delay_ns, u64::MAX);
        assert_eq!(d.total_ns(), u64::MAX);
    }
}
