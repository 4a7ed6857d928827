//! The scheduler-side INT collector (paper Fig. 1, step 2).
//!
//! Receives probe payloads, validates them, tracks per-origin sequence
//! continuity (probe loss / reordering), and folds telemetry into the
//! [`NetworkMap`].

use crate::map::NetworkMap;
use int_packet::wire::WireDecode;
use int_packet::{ProbePayload, Result as PacketResult};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-origin probe accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OriginStats {
    /// Probes accepted from this origin.
    pub received: u64,
    /// Highest sequence number seen.
    pub max_seq: u64,
    /// Sequence gaps observed (probes presumed lost in the network).
    pub lost: u64,
    /// Probes that arrived with a lower-than-expected sequence — genuinely
    /// late arrivals, not re-deliveries of the newest probe.
    pub reordered: u64,
    /// Exact re-deliveries of the highest sequence seen (`seq == max_seq`).
    /// Formerly misfiled under `reordered`: a duplicated packet is a
    /// network-duplication signal, not an ordering one.
    pub duplicate: u64,
    /// Receive time of the most recent probe, ns.
    pub last_rx_ns: u64,
}

impl OriginStats {
    /// Fold one accepted probe into the sequence accounting. Shared by the
    /// direct and relayed ingest paths so loss/reordering is counted over
    /// the origin's single sequence stream regardless of which terminal a
    /// probe reached.
    fn note_probe(&mut self, seq: u64, rx_ns: u64) {
        self.received += 1;
        self.last_rx_ns = rx_ns;
        if self.received == 1 {
            self.max_seq = seq;
        } else if seq > self.max_seq {
            // Gap: sequences between max_seq+1 and seq-1 never arrived.
            self.lost += seq - self.max_seq - 1;
            self.max_seq = seq;
        } else if seq == self.max_seq {
            self.duplicate += 1;
        } else {
            self.reordered += 1;
        }
    }
}

/// The INT collector.
#[derive(Debug, Clone, Default)]
pub struct IntCollector {
    map: NetworkMap,
    scheduler_host: u32,
    origins: BTreeMap<u32, OriginStats>,
    parse_errors: u64,
    /// Total probes accepted (direct + relayed). Monotone; lets the
    /// snapshot publisher detect ingest activity that touched only
    /// per-origin accounting (e.g. an empty-record probe refreshing
    /// `last_rx_ns`) without scanning the origin table.
    probes_accepted: u64,
}

impl IntCollector {
    /// Collector running on `scheduler_host`.
    pub fn new(scheduler_host: u32) -> Self {
        let mut map = NetworkMap::new();
        map.register_host(scheduler_host);
        IntCollector {
            map,
            scheduler_host,
            origins: BTreeMap::new(),
            parse_errors: 0,
            probes_accepted: 0,
        }
    }

    /// The learned network map.
    pub fn map(&self) -> &NetworkMap {
        &self.map
    }

    /// Mutable access to the map (host pre-registration).
    pub fn map_mut(&mut self) -> &mut NetworkMap {
        &mut self.map
    }

    /// Host this collector runs on.
    pub fn scheduler_host(&self) -> u32 {
        self.scheduler_host
    }

    /// Per-origin accounting.
    pub fn origin_stats(&self, origin: u32) -> OriginStats {
        self.origins.get(&origin).copied().unwrap_or_default()
    }

    /// All probe origins seen so far.
    pub fn origins(&self) -> impl Iterator<Item = u32> + '_ {
        self.origins.keys().copied()
    }

    /// Per-origin accounting for every origin, in ascending origin order
    /// (snapshot construction).
    pub fn origin_stats_all(&self) -> impl Iterator<Item = (u32, OriginStats)> + '_ {
        self.origins.iter().map(|(&o, st)| (o, *st))
    }

    /// Total probes accepted so far (direct + relayed ingest).
    pub fn probes_accepted(&self) -> u64 {
        self.probes_accepted
    }

    /// Number of probe payloads that failed to parse.
    pub fn parse_errors(&self) -> u64 {
        self.parse_errors
    }

    /// Ingest a raw probe payload (UDP payload bytes as received).
    /// Returns the decoded probe on success.
    pub fn ingest_bytes(&mut self, payload: &[u8], now_ns: u64) -> PacketResult<ProbePayload> {
        match ProbePayload::decode(&mut &payload[..]) {
            Ok(probe) => {
                self.ingest(&probe, now_ns);
                Ok(probe)
            }
            Err(e) => {
                self.parse_errors += 1;
                Err(e)
            }
        }
    }

    /// Ingest a relayed probe: one that terminated at `terminal` (not at
    /// the scheduler) and was forwarded here (all-pairs probing mode).
    /// `rx_ts_ns` is the terminal's receive timestamp.
    pub fn ingest_relayed(&mut self, probe: &ProbePayload, terminal: u32, rx_ts_ns: u64) {
        self.origins.entry(probe.origin_node).or_default().note_probe(probe.seq, rx_ts_ns);
        self.probes_accepted += 1;
        self.map.register_host(terminal);
        self.map.apply_probe(probe, terminal, rx_ts_ns);
    }

    /// Ingest an already-decoded probe.
    pub fn ingest(&mut self, probe: &ProbePayload, now_ns: u64) {
        self.origins.entry(probe.origin_node).or_default().note_probe(probe.seq, now_ns);
        self.probes_accepted += 1;
        self.map.apply_probe(probe, self.scheduler_host, now_ns);
    }

    /// Drain a backlog of decoded probes accumulated over one collection
    /// interval, all stamped with the interval's receive time. Equivalent
    /// to calling [`IntCollector::ingest`] per probe in order; exists so
    /// the publish loop runs once per *batch* instead of once per probe.
    pub fn ingest_batch<'a, I>(&mut self, probes: I, now_ns: u64)
    where
        I: IntoIterator<Item = &'a ProbePayload>,
    {
        for p in probes {
            self.ingest(p, now_ns);
        }
    }

    /// Origins presumed unreachable: they sent probes before but nothing
    /// within `horizon_ns` of `now_ns`, ascending. (Serving reads the same
    /// rule off the origin table frozen into each epoch snapshot.)
    pub fn silent_origins(&self, now_ns: u64, horizon_ns: u64) -> Vec<u32> {
        self.origins
            .iter()
            .filter(|(_, st)| st.received > 0 && now_ns.saturating_sub(st.last_rx_ns) > horizon_ns)
            .map(|(&o, _)| o)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use int_packet::int::IntRecord;
    use int_packet::wire::WireEncode;

    fn probe(origin: u32, seq: u64) -> ProbePayload {
        let mut p = ProbePayload::new(origin, seq, 0);
        p.int.push(IntRecord {
            switch_id: 10,
            ingress_port: 0,
            egress_port: 1,
            max_qlen_pkts: 3,
            qlen_at_probe_pkts: 1,
            link_latency_ns: 10_000_000,
            egress_ts_ns: 11_000_000,
        });
        p
    }

    #[test]
    fn ingest_updates_map_and_stats() {
        let mut c = IntCollector::new(6);
        c.ingest(&probe(1, 0), 21_000_000);
        assert_eq!(c.origin_stats(1).received, 1);
        assert!(c.map().edge_count() > 0);
        assert_eq!(c.origins().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn sequence_gaps_count_as_loss() {
        let mut c = IntCollector::new(6);
        c.ingest(&probe(1, 0), 1);
        c.ingest(&probe(1, 1), 2);
        c.ingest(&probe(1, 5), 3); // 2,3,4 lost
        let st = c.origin_stats(1);
        assert_eq!(st.received, 3);
        assert_eq!(st.lost, 3);
        assert_eq!(st.reordered, 0);
        assert_eq!(st.max_seq, 5);
    }

    #[test]
    fn reordering_detected() {
        let mut c = IntCollector::new(6);
        c.ingest(&probe(1, 3), 1);
        c.ingest(&probe(1, 2), 2);
        assert_eq!(c.origin_stats(1).reordered, 1);
    }

    #[test]
    fn bytes_roundtrip_and_parse_errors() {
        let mut c = IntCollector::new(6);
        let p = probe(2, 7);
        assert_eq!(c.ingest_bytes(&p.to_bytes(), 50_000_000).unwrap(), p);
        assert_eq!(c.origin_stats(2).received, 1);

        assert!(c.ingest_bytes(b"garbage", 1).is_err());
        assert_eq!(c.parse_errors(), 1);
    }

    #[test]
    fn scheduler_host_pre_registered() {
        let c = IntCollector::new(6);
        assert!(c.map().hosts().any(|h| h == 6));
    }

    #[test]
    fn duplicate_seq_counts_as_duplicate_not_lost_or_reordered() {
        let mut c = IntCollector::new(6);
        c.ingest(&probe(1, 5), 1);
        c.ingest(&probe(1, 5), 2);
        let st = c.origin_stats(1);
        assert_eq!(st.received, 2);
        assert_eq!(st.lost, 0, "a duplicate is not a gap");
        assert_eq!(st.duplicate, 1);
        assert_eq!(st.reordered, 0, "an exact re-delivery is not reordering");
        assert_eq!(st.max_seq, 5);
    }

    /// Regression: `seq == max_seq` used to be misfiled under `reordered`.
    /// The two signals must stay distinguishable — a duplicated newest
    /// probe and a genuinely late straggler are different network events.
    #[test]
    fn duplicate_and_late_probes_count_separately() {
        let mut c = IntCollector::new(6);
        c.ingest(&probe(1, 0), 1);
        c.ingest(&probe(1, 10), 2); // gap 1..=9
        c.ingest(&probe(1, 10), 3); // exact duplicate of the newest
        c.ingest(&probe(1, 7), 4); // straggler from inside the gap
        let st = c.origin_stats(1);
        assert_eq!(st.duplicate, 1, "only the re-delivered 10");
        assert_eq!(st.reordered, 1, "only the late 7");
        assert_eq!(st.lost, 9);
        assert_eq!(st.max_seq, 10);
    }

    #[test]
    fn seq_regression_after_gap_does_not_inflate_loss() {
        let mut c = IntCollector::new(6);
        c.ingest(&probe(1, 0), 1);
        c.ingest(&probe(1, 10), 2); // gap of 9
        c.ingest(&probe(1, 3), 3); // one of the "lost" probes shows up late
        let st = c.origin_stats(1);
        assert_eq!(st.lost, 9, "late arrival does not re-count the gap");
        assert_eq!(st.reordered, 1);
        assert_eq!(st.max_seq, 10);
    }

    /// Regression: the relayed path used to skip loss/reordering
    /// accounting entirely. An identical probe stream must produce
    /// identical `OriginStats` whether it arrives directly or via a relay
    /// terminal.
    #[test]
    fn relayed_and_direct_paths_account_identically() {
        let seqs = [0u64, 1, 5, 3, 6, 6, 10];
        let mut direct = IntCollector::new(6);
        let mut relayed = IntCollector::new(6);
        for (i, &s) in seqs.iter().enumerate() {
            let rx = (i as u64 + 1) * 1_000_000;
            direct.ingest(&probe(1, s), rx);
            relayed.ingest_relayed(&probe(1, s), 2, rx);
        }
        let d = direct.origin_stats(1);
        let r = relayed.origin_stats(1);
        assert_eq!(d, r, "relayed accounting must match direct accounting");
        assert_eq!(d.lost, 3 + 3, "gaps 2..=4 and 7..=9");
        assert_eq!(d.reordered, 1, "the late 3");
        assert_eq!(d.duplicate, 1, "the re-delivered 6");
    }

    /// A batch drain is byte-equivalent to per-probe ingest in the same
    /// order with the same timestamp.
    #[test]
    fn ingest_batch_matches_per_probe_ingest() {
        let backlog: Vec<ProbePayload> =
            [(1u32, 0u64), (2, 0), (1, 1), (3, 5), (1, 1)].iter().map(|&(o, s)| probe(o, s)).collect();
        let mut one_by_one = IntCollector::new(6);
        for p in &backlog {
            one_by_one.ingest(p, 7_000_000);
        }
        let mut batched = IntCollector::new(6);
        batched.ingest_batch(&backlog, 7_000_000);

        assert_eq!(batched.probes_accepted(), one_by_one.probes_accepted());
        assert_eq!(
            batched.origin_stats_all().collect::<Vec<_>>(),
            one_by_one.origin_stats_all().collect::<Vec<_>>()
        );
        assert_eq!(batched.map().edge_count(), one_by_one.map().edge_count());
        assert_eq!(
            batched.map().metrics_generation(),
            one_by_one.map().metrics_generation()
        );
    }

    /// Relayed probes keep the first-probe special case: a large initial
    /// sequence (collector restart, origin long-lived) is a baseline, not
    /// a thousand lost probes.
    #[test]
    fn relayed_first_probe_sets_baseline_without_loss() {
        let mut c = IntCollector::new(6);
        c.ingest_relayed(&probe(1, 1000), 2, 1);
        let st = c.origin_stats(1);
        assert_eq!(st.lost, 0);
        assert_eq!(st.max_seq, 1000);
    }

    #[test]
    fn silent_origins_detected_and_recover() {
        let ms = 1_000_000u64;
        let mut c = IntCollector::new(6);
        c.ingest(&probe(1, 0), 100 * ms);
        c.ingest(&probe(2, 0), 3_000 * ms);
        assert!(c.silent_origins(3_100 * ms, 1_000 * ms).contains(&1));
        assert!(!c.silent_origins(3_100 * ms, 1_000 * ms).contains(&2));
        // Origin 1 speaks again: silence clears.
        c.ingest(&probe(1, 1), 3_200 * ms);
        assert!(c.silent_origins(3_300 * ms, 1_000 * ms).is_empty());
        // An origin never heard from is not "silent" — it is unknown.
        assert!(!c.silent_origins(u64::MAX, 0).contains(&99));
    }
}
