//! Probe coverage audit.
//!
//! The paper assumes "probe packets visit each device at least once" per
//! interval and leaves probe route optimization as future work. This
//! module makes the assumption checkable: given the learned map and a
//! freshness horizon, report which directed links are fresh, stale, or
//! known only via their reverse direction.

use crate::config::CoreConfig;
use crate::map::{NetNode, NetworkMap};
use serde::Serialize;

/// Freshness classification of a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum LinkCoverage {
    /// Probed in this direction within the horizon.
    Fresh,
    /// Probed in this direction, but not recently.
    Stale,
    /// Never probed in this direction; reverse data exists.
    ReverseOnly,
}

/// A full coverage report.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CoverageReport {
    /// (from, to, classification) for every directed link with any data in
    /// either direction. Deterministic order.
    pub links: Vec<(NetNode, NetNode, LinkCoverage)>,
    /// Directed links *evicted* from the map by aging and not re-learned
    /// since, with their eviction times — infrastructure that went dark,
    /// as opposed to merely stale. Deterministic order.
    pub dead: Vec<(NetNode, NetNode, u64)>,
}

impl CoverageReport {
    /// Build a report at time `now_ns` with freshness horizon
    /// `cfg.staleness_ns`.
    pub fn build(map: &NetworkMap, cfg: &CoreConfig, now_ns: u64) -> CoverageReport {
        let mut links = Vec::new();
        let mut seen = std::collections::BTreeSet::new();

        for (a, b, state) in map.edges() {
            seen.insert((a, b));
            let cls = if now_ns.saturating_sub(state.updated_ns) <= cfg.staleness_ns {
                LinkCoverage::Fresh
            } else {
                LinkCoverage::Stale
            };
            links.push((a, b, cls));
        }
        // Reverse-only entries: (b, a) has data, (a, b) does not.
        let mut reverse_only = Vec::new();
        for (a, b, _) in map.edges() {
            if !seen.contains(&(b, a)) {
                reverse_only.push((b, a, LinkCoverage::ReverseOnly));
            }
        }
        links.extend(reverse_only);
        links.sort_by_key(|(a, b, _)| (*a, *b));
        CoverageReport { links, dead: map.dead_edges().collect() }
    }

    /// Count of links in each class: `(fresh, stale, reverse_only)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut f = 0;
        let mut s = 0;
        let mut r = 0;
        for (_, _, c) in &self.links {
            match c {
                LinkCoverage::Fresh => f += 1,
                LinkCoverage::Stale => s += 1,
                LinkCoverage::ReverseOnly => r += 1,
            }
        }
        (f, s, r)
    }

    /// Fraction of directed links with fresh same-direction data.
    pub fn fresh_fraction(&self) -> f64 {
        if self.links.is_empty() {
            return 0.0;
        }
        let (f, _, _) = self.counts();
        f as f64 / self.links.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use int_packet::int::IntRecord;
    use int_packet::ProbePayload;

    fn probe(origin: u32, switches: &[u32]) -> ProbePayload {
        let mut p = ProbePayload::new(origin, 1, 0);
        for (i, &s) in switches.iter().enumerate() {
            p.int.push(IntRecord {
                switch_id: s,
                ingress_port: 0,
                egress_port: 1,
                max_qlen_pkts: 0,
                qlen_at_probe_pkts: 0,
                link_latency_ns: 10_000_000,
                egress_ts_ns: (i as u64 + 1) * 11_000_000,
            });
        }
        p
    }

    #[test]
    fn fresh_and_reverse_classification() {
        let mut m = NetworkMap::new();
        m.apply_probe(&probe(1, &[10, 11]), 6, 32_000_000);
        let cfg = CoreConfig::default();
        let report = CoverageReport::build(&m, &cfg, 40_000_000);
        let (fresh, stale, reverse) = report.counts();
        assert_eq!(fresh, 3, "h1→s10, s10→s11, s11→h6");
        assert_eq!(stale, 0);
        assert_eq!(reverse, 3, "the three opposite directions");
        assert!((report.fresh_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn staleness_detected() {
        let mut m = NetworkMap::new();
        m.apply_probe(&probe(1, &[10]), 6, 32_000_000);
        let cfg = CoreConfig::default();
        let later = 32_000_000 + cfg.staleness_ns + 1;
        let report = CoverageReport::build(&m, &cfg, later);
        let (fresh, stale, _) = report.counts();
        assert_eq!(fresh, 0);
        assert_eq!(stale, 2);
    }

    #[test]
    fn bidirectional_probing_removes_reverse_only() {
        let mut m = NetworkMap::new();
        m.apply_probe(&probe(1, &[10]), 6, 32_000_000);
        // Scheduler-side probe back toward host 1 covers the reverse.
        m.apply_probe(&probe(6, &[10]), 1, 32_000_000);
        let report = CoverageReport::build(&m, &CoreConfig::default(), 33_000_000);
        let (_, _, reverse) = report.counts();
        assert_eq!(reverse, 0);
    }

    #[test]
    fn empty_map_report() {
        let report = CoverageReport::build(&NetworkMap::new(), &CoreConfig::default(), 0);
        assert!(report.links.is_empty());
        assert!(report.dead.is_empty());
        assert_eq!(report.fresh_fraction(), 0.0);
    }

    /// Links evicted by aging show up as dead in the report, and leave it
    /// once a probe re-learns them.
    #[test]
    fn dead_links_reported_until_relearned() {
        let mut m = NetworkMap::new();
        m.apply_probe(&probe(1, &[10, 11]), 6, 32_000_000);
        let cfg = CoreConfig::default();
        let later = 32_000_000 + cfg.eviction_horizon_ns + 1;
        m.evict_stale(later, cfg.eviction_horizon_ns);

        let report = CoverageReport::build(&m, &cfg, later);
        assert!(report.links.is_empty(), "evicted links are not merely stale");
        assert_eq!(report.dead.len(), 3, "h1→s10, s10→s11, s11→h6 went dark");
        assert!(report.dead.iter().all(|(_, _, at)| *at == later));

        m.apply_probe(&probe(1, &[10, 11]), 6, later + 1);
        let report = CoverageReport::build(&m, &cfg, later + 2);
        assert!(report.dead.is_empty(), "recovery clears the dead list");
        assert_eq!(report.counts().0, 3, "and the links are fresh again");
    }
}
