//! The scheduler-side INT collector (paper Fig. 1, step 2).
//!
//! Receives probe payloads, validates them, tracks per-origin sequence
//! continuity (probe loss / reordering), and folds telemetry into the
//! [`NetworkMap`].
//!
//! Every edge server re-sends the same record order every probing
//! interval, so the collector remembers, per `(origin, terminal)` pair,
//! the route it last walked and the edge ids that walk resolved to (the
//! *route memo*). A probe that repeats its pair's route is folded straight
//! into those edges; only a new, changed or partly evicted route pays for
//! [`NetworkMap::apply_probe`]'s per-edge lookups.

use crate::map::{mix64, EdgeId, NetworkMap};
use int_obs::SlabIndex;
use int_packet::{ProbePayload, Result as PacketResult};
use serde::Serialize;

/// Per-origin probe accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
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

/// One probed `(origin, terminal)` pair: where the origin's accounting
/// lives and where the pair's route memo sits in the arena.
#[derive(Debug, Clone, Copy)]
struct Route {
    origin: u32,
    terminal: u32,
    /// Index of the origin's entry in [`RouteTable::stats`].
    stat: u32,
    /// The memo's span of the arena: `cap` words reserved at `start`. The
    /// first `hops` hold the switch ids of the route last walked, the next
    /// `hops + 1` the [`EdgeId`]s its edges resolved to.
    start: u32,
    cap: u32,
    /// Switches on the memo'd route; 0 while nothing is memo'd.
    hops: u32,
}

/// Interned `(origin, terminal)` pairs with per-origin accounting and
/// per-pair route memos — the [`NetworkMap`] slab idiom: dense entries, a
/// [`SlabIndex`], an ordered list touched on insert only.
///
/// A memo never goes *wrong*: an [`EdgeId`] names the same directed edge
/// for as long as the map exists, so the ids recorded for a switch
/// sequence on a pair are the ids any later walk of that sequence
/// resolves to. It can only go *stale* — an edge on it was evicted — and
/// [`NetworkMap::apply_probe_resolved`] checks exactly that, per probe.
/// The pair is the key because all-pairs probing sends each origin's
/// probes to several terminals over different routes.
#[derive(Debug, Clone, Default)]
struct RouteTable {
    routes: Vec<Route>,
    /// `(origin, terminal)` → index into `routes`.
    lookup: SlabIndex,
    /// Backing store of every route memo. Flat, so learning a fabric
    /// allocates per doubling of this vector, not per origin.
    arena: Vec<u32>,
    /// Per-origin accounting in first-sighting order.
    stats: Vec<(u32, OriginStats)>,
    /// Indices into `stats`, ascending by origin.
    order: Vec<u32>,
    /// Probes folded through their pair's memo; every other accepted
    /// probe took the walk.
    hits: u64,
}

impl RouteTable {
    fn pair_hash(origin: u32, terminal: u32) -> u64 {
        mix64((origin as u64) << 32 | terminal as u64)
    }

    /// Index of the pair's route, interning it on first sighting.
    fn route(&mut self, origin: u32, terminal: u32) -> usize {
        let hash = Self::pair_hash(origin, terminal);
        let found = self.lookup.find(hash, |at| {
            let r = &self.routes[at as usize];
            r.origin == origin && r.terminal == terminal
        });
        match found {
            Some(at) => at as usize,
            None => self.intern(origin, terminal, hash),
        }
    }

    fn intern(&mut self, origin: u32, terminal: u32, hash: u64) -> usize {
        let stat = match self.stat_position(origin) {
            Ok(pos) => self.order[pos],
            Err(pos) => {
                let stat = self.stats.len() as u32;
                self.stats.push((origin, OriginStats::default()));
                self.order.insert(pos, stat);
                stat
            }
        };
        let at = self.routes.len();
        self.routes.push(Route { origin, terminal, stat, start: 0, cap: 0, hops: 0 });
        let routes = &self.routes;
        self.lookup.insert(hash, at as u32, |old| {
            let r = &routes[old as usize];
            Self::pair_hash(r.origin, r.terminal)
        });
        at
    }

    /// Where `origin` sits in `order`, or where it would be inserted.
    fn stat_position(&self, origin: u32) -> Result<usize, usize> {
        self.order.binary_search_by_key(&origin, |&i| self.stats[i as usize].0)
    }

    /// Per-origin accounting, ascending by origin.
    fn by_origin(&self) -> impl Iterator<Item = &(u32, OriginStats)> + '_ {
        self.order.iter().map(|&i| &self.stats[i as usize])
    }

    /// Account one accepted probe to its origin and fold it into `map`:
    /// through the pair's memo when the probe repeats the memo'd route and
    /// every edge on it is still live, through the full walk — which
    /// re-records the memo — otherwise.
    fn ingest(&mut self, map: &mut NetworkMap, probe: &ProbePayload, terminal: u32, now_ns: u64) {
        let at = self.route(probe.origin_node, terminal);
        let Route { stat, start, cap, hops, .. } = self.routes[at];
        self.stats[stat as usize].1.note_probe(probe.seq, now_ns);

        let records = &probe.int.records;
        let k = records.len();
        let span = 2 * k + 1;
        if k > 0 && k == hops as usize {
            let (switches, ids) = self.arena[start as usize..][..span].split_at(k);
            if switches.iter().zip(records).all(|(&s, r)| s == r.switch_id)
                && map.apply_probe_resolved(probe, ids, now_ns)
            {
                self.hits += 1;
                return;
            }
        }
        if k == 0 {
            // No edges to remember; whatever is memo'd stays valid.
            map.apply_probe(probe, terminal, now_ns);
            return;
        }
        let start = if span <= cap as usize {
            start as usize
        } else {
            // Outgrown spans are abandoned; doubling bounds what a pair
            // leaves behind to the size of its longest route.
            let start = self.arena.len();
            let cap = span.max(2 * cap as usize);
            self.arena.resize(start + cap, 0);
            self.routes[at].start = u32::try_from(start).expect("memo arena within u32 words");
            self.routes[at].cap = cap as u32;
            start
        };
        self.routes[at].hops = k as u32;
        let (switches, ids) = self.arena[start..][..span].split_at_mut(k);
        for (s, r) in switches.iter_mut().zip(records) {
            *s = r.switch_id;
        }
        let mut resolved = ids.iter_mut();
        map.apply_probe_with(probe, terminal, now_ns, |id: EdgeId| {
            *resolved.next().expect("a k-record walk resolves k + 1 edges") = id;
        });
    }
}

/// The INT collector.
#[derive(Debug, Clone, Default)]
pub struct IntCollector {
    map: NetworkMap,
    scheduler_host: u32,
    routes: RouteTable,
    /// The payload [`IntCollector::ingest_bytes`] decodes into; kept so
    /// its record buffer is reused from probe to probe.
    scratch: ProbePayload,
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
        IntCollector { map, scheduler_host, ..Default::default() }
    }

    /// The learned network map.
    pub fn map(&self) -> &NetworkMap {
        &self.map
    }

    /// Mutable access to the map (host pre-registration, eviction,
    /// tunables). Mutate it in place: route memos hold this map's edge
    /// ids, so it must not be swapped for another one.
    pub fn map_mut(&mut self) -> &mut NetworkMap {
        &mut self.map
    }

    /// Host this collector runs on.
    pub fn scheduler_host(&self) -> u32 {
        self.scheduler_host
    }

    /// Per-origin accounting. Test accessor: `tests/proptest_ingest.rs`
    /// reads it against the unmemoized reference.
    pub fn origin_stats(&self, origin: u32) -> OriginStats {
        let routes = &self.routes;
        routes
            .stat_position(origin)
            .map(|pos| routes.stats[routes.order[pos] as usize].1)
            .unwrap_or_default()
    }

    /// All probe origins seen so far, ascending.
    pub fn origins(&self) -> impl Iterator<Item = u32> + '_ {
        self.routes.by_origin().map(|&(o, _)| o)
    }

    /// Per-origin accounting for every origin, in ascending origin order
    /// (snapshot construction).
    pub fn origin_stats_all(&self) -> impl Iterator<Item = (u32, OriginStats)> + '_ {
        self.routes.by_origin().copied()
    }

    /// Total probes accepted so far (direct + relayed ingest).
    pub fn probes_accepted(&self) -> u64 {
        self.probes_accepted
    }

    /// Number of probe payloads that failed to parse.
    pub fn parse_errors(&self) -> u64 {
        self.parse_errors
    }

    /// `(hits, misses)` of the route memo: probes folded straight into
    /// their memo'd edges vs. probes that took the full walk. Test accessor:
    /// `tests/alloc_ingest.rs` and `tests/proptest_ingest.rs` read it.
    pub fn memo_stats(&self) -> (u64, u64) {
        (self.routes.hits, self.probes_accepted - self.routes.hits)
    }

    /// Ingest a raw probe payload (UDP payload bytes as received).
    /// Returns the decoded probe on success; it lives in a buffer the next
    /// call overwrites.
    pub fn ingest_bytes(&mut self, payload: &[u8], now_ns: u64) -> PacketResult<&ProbePayload> {
        if let Err(e) = self.scratch.decode_into(&mut &payload[..]) {
            self.parse_errors += 1;
            return Err(e);
        }
        self.probes_accepted += 1;
        self.routes.ingest(&mut self.map, &self.scratch, self.scheduler_host, now_ns);
        Ok(&self.scratch)
    }

    /// Ingest a relayed probe: one that terminated at `terminal` (not at
    /// the scheduler) and was forwarded here (all-pairs probing mode).
    /// `rx_ts_ns` is the terminal's receive timestamp.
    pub fn ingest_relayed(&mut self, probe: &ProbePayload, terminal: u32, rx_ts_ns: u64) {
        self.probes_accepted += 1;
        self.routes.ingest(&mut self.map, probe, terminal, rx_ts_ns);
    }

    /// Ingest an already-decoded probe.
    pub fn ingest(&mut self, probe: &ProbePayload, now_ns: u64) {
        self.ingest_relayed(probe, self.scheduler_host, now_ns);
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
        self.routes
            .by_origin()
            .filter(|(_, st)| st.received > 0 && now_ns.saturating_sub(st.last_rx_ns) > horizon_ns)
            .map(|&(o, _)| o)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::NetNode;
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
        assert_eq!(c.ingest_bytes(&p.to_bytes(), 50_000_000).unwrap(), &p);
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

    /// A probe from `origin` over `switches`, queue depth flat.
    fn probe_over(origin: u32, seq: u64, switches: &[u32]) -> ProbePayload {
        let mut p = ProbePayload::new(origin, seq, 0);
        for &switch_id in switches {
            p.int.push(IntRecord { switch_id, ..probe(origin, seq).int.records[0] });
        }
        p
    }

    /// All-pairs probing: one origin, two terminals, two routes. The memo
    /// is per pair, so neither route evicts the other's.
    #[test]
    fn origin_alternating_between_two_terminals_hits_on_both_from_the_second_round() {
        let mut c = IntCollector::new(6);
        for round in 0..4u64 {
            c.ingest_relayed(&probe_over(1, 2 * round, &[10, 11]), 2, round);
            c.ingest_relayed(&probe_over(1, 2 * round + 1, &[10, 12, 13]), 3, round);
            assert_eq!(c.memo_stats(), (2 * round, 2), "after round {round}");
        }
        assert_eq!(c.origin_stats(1).received, 8, "one sequence stream across both terminals");
        assert_eq!(c.origin_stats(1).lost, 0);
    }

    /// Memo validity is per edge (is it still live?), not per map
    /// generation: structure learned elsewhere costs a known route nothing.
    #[test]
    fn another_origin_learning_an_edge_does_not_cost_a_known_origin_its_hit() {
        let mut c = IntCollector::new(6);
        c.ingest(&probe_over(1, 0, &[10, 11]), 1);
        let learned = c.map().topology_generation();
        c.ingest(&probe_over(2, 0, &[12, 11]), 2);
        assert!(c.map().topology_generation() > learned, "origin 2 taught new edges");
        c.ingest(&probe_over(1, 1, &[10, 11]), 3);
        assert_eq!(c.memo_stats(), (1, 2));
    }

    /// A route change misses once and is then the memo; an evicted edge
    /// on the memo'd route misses once and revives under its old id.
    #[test]
    fn route_flap_and_eviction_miss_once_then_hit_again() {
        let mut c = IntCollector::new(6);
        c.ingest(&probe_over(1, 0, &[10, 11]), 1);
        c.ingest(&probe_over(1, 1, &[10, 12, 11]), 2);
        c.ingest(&probe_over(1, 2, &[10, 12, 11]), 3);
        assert_eq!(c.memo_stats(), (1, 2), "the longer route replaced the memo");

        // Only the abandoned s10→s11 edge ages out: the memo'd route is
        // untouched by unrelated eviction.
        assert_eq!(c.map_mut().evict_stale(5, 2).len(), 1);
        c.ingest(&probe_over(1, 3, &[10, 12, 11]), 6);
        assert_eq!(c.memo_stats(), (2, 2));

        let id_of = |c: &IntCollector| {
            let route = (NetNode::Switch(12), NetNode::Switch(11));
            let on_route =
                |id: &EdgeId| c.map().edge_by_id(*id).is_some_and(|(from, to, _)| (from, to) == route);
            (0..5).find(on_route).unwrap()
        };
        let id = id_of(&c);
        assert_eq!(c.map_mut().evict_stale(1_000, 2).len(), 4, "the whole route dies");
        c.ingest(&probe_over(1, 4, &[10, 12, 11]), 1_001);
        assert_eq!(c.memo_stats(), (2, 3), "a dead edge on the memo is a miss");
        assert_eq!(id_of(&c), id, "revived under the id the memo holds");
        c.ingest(&probe_over(1, 5, &[10, 12, 11]), 1_002);
        assert_eq!(c.memo_stats(), (3, 3));
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
