//! The dynamically learned network map (paper §III-B).
//!
//! The scheduler never receives a topology file: it deduces adjacency from
//! the *order* of INT records in probe packets ("if a probe packet contains
//! INT data in S1-S3-S4 order, S1–S3 and S3–S4 are connected") and
//! annotates each directed link with the latest measured latency and the
//! max queue occupancy harvested from the upstream switch's register.

use crate::config::{CoreConfig, HopSignal};
use int_obs::SlabIndex;
use int_packet::ProbePayload;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// A node in the learned map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum NetNode {
    /// An edge host (device, server, or the scheduler itself).
    Host(u32),
    /// A switch, identified by the id it stamps into INT records.
    Switch(u32),
}

/// Telemetry state of one *directed* link.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct EdgeState {
    /// Smoothed link latency, ns (EWMA over probe measurements).
    pub delay_ns: u64,
    /// Latest raw latency sample, ns.
    pub last_delay_ns: u64,
    /// Max queue occupancy of the upstream egress port during the last
    /// probing interval, packets.
    pub max_qlen_pkts: u32,
    /// Queue occupancy at the instant the probe was enqueued, packets
    /// (the ablation's "average-like" signal).
    pub qlen_at_probe_pkts: u32,
    /// When the queue measurement was taken (collector clock, ns).
    pub qlen_updated_ns: u64,
    /// When any field was last updated (collector clock, ns).
    pub updated_ns: u64,
    /// Total probe samples folded into this edge.
    pub samples: u64,
    /// Harvested max-queue samples as a *dominance staircase* of
    /// `(timestamp, depth)`: timestamps strictly ascending, depths
    /// strictly descending. A harvest is dropped as soon as another with a
    /// later-or-equal timestamp has a depth ≥ its own — such a harvest can
    /// never be the max of a window `{ts ≥ cutoff}` its dominator is not
    /// also in — so [`EdgeState::windowed_max_qlen`] answers exactly as it
    /// would over every raw harvest, for every cutoff, from O(log n)
    /// entries instead of one per probe.
    pub qlen_history: Vec<(u64, u32)>,
}

impl EdgeState {
    fn new(now_ns: u64) -> Self {
        EdgeState {
            delay_ns: 0,
            last_delay_ns: 0,
            max_qlen_pkts: 0,
            qlen_at_probe_pkts: 0,
            qlen_updated_ns: now_ns,
            updated_ns: now_ns,
            samples: 0,
            qlen_history: Vec::new(),
        }
    }

    /// Max harvested queue length over `[now - window, now]`.
    pub fn windowed_max_qlen(&self, now_ns: u64, window_ns: u64) -> u32 {
        let cutoff = now_ns.saturating_sub(window_ns);
        self.qlen_history
            .iter()
            .filter(|(ts, _)| *ts >= cutoff)
            .map(|(_, q)| *q)
            .max()
            .unwrap_or(0)
    }

    /// Fold one probe's latency sample for this link into the EWMA
    /// (`w` = weight of the new sample, in eighths).
    fn fold_delay(&mut self, w: u64, sample_ns: u64, now_ns: u64) {
        self.last_delay_ns = sample_ns;
        self.delay_ns = if self.samples == 0 {
            sample_ns
        } else {
            // Widen before multiplying: `(8 - w) * delay_ns` overflows u64
            // once the smoothed delay passes ~2.6e18 ns, which long Clos
            // paths with saturated estimates can legitimately reach.
            let blended =
                ((8 - w) as u128 * self.delay_ns as u128 + w as u128 * sample_ns as u128) / 8;
            blended.min(u64::MAX as u128) as u64
        };
        self.samples += 1;
        self.updated_ns = now_ns;
    }

    /// Fold one register harvest of the upstream egress queue, taken at
    /// `now_ns`, then forget what fell out of `[now_ns - retention_ns, ..]`
    /// (harvests outside it can never contribute to the windowed max).
    fn fold_harvest(&mut self, max_q: u32, inst_q: u32, now_ns: u64, retention_ns: u64) {
        self.max_qlen_pkts = max_q;
        self.qlen_at_probe_pkts = inst_q;
        self.qlen_updated_ns = now_ns;
        self.updated_ns = now_ns;

        let h = &mut self.qlen_history;
        // `at` = first entry not older than the harvest: the back in the
        // common in-order case, further in for a late (relayed) one. It
        // carries the deepest queue at or after `now_ns`, so if it already
        // covers `max_q` the harvest adds nothing.
        let at = h.iter().rposition(|&(ts, _)| ts < now_ns).map_or(0, |i| i + 1);
        if h.get(at).is_none_or(|&(_, q)| q < max_q) {
            // The harvest dominates the equal-timestamp entry, if any,
            // and every older entry that is no deeper.
            let end = at + h.get(at).is_some_and(|&(ts, _)| ts == now_ns) as usize;
            let start = h[..at].iter().rposition(|&(_, q)| q > max_q).map_or(0, |i| i + 1);
            h.splice(start..end, [(now_ns, max_q)]);
        }
        // What aged out of the retention horizon is a prefix; so is what
        // the backstop cap cannot hold.
        let cutoff = now_ns.saturating_sub(retention_ns);
        let aged = h.iter().position(|&(ts, _)| ts >= cutoff).unwrap_or(h.len());
        h.drain(..aged.max(h.len().saturating_sub(QLEN_HISTORY_HARD_CAP)));
    }
}

/// EWMA weight of a new link-delay sample, in eighths: 2/8 rides out one
/// odd sample yet keeps jitter visible, as the paper intends probes to
/// capture it.
const DELAY_EWMA_NEW_EIGHTHS: u64 = 2;

/// Hard backstop on per-edge history length. A staircase only gets here
/// through > 1 024 strictly falling depths inside one retention window.
/// (The one sanctioned divergence from the raw per-harvest history the
/// staircase replaced: that was cut to its newest 1 024 entries whenever
/// a window held more *harvests*, so such a window is answered exactly
/// now where it was answered from a truncated history before.)
const QLEN_HISTORY_HARD_CAP: usize = 1024;

/// Stable identifier of an interned directed edge. Ids are assigned on
/// first sighting and never reused: an evicted edge keeps its id (slot
/// marked dead) and a probe that re-learns it revives the same id.
pub type EdgeId = u32;

/// One interned directed edge: endpoints, liveness, dirty stamp, state.
#[derive(Debug, Clone)]
struct EdgeSlot {
    from: NetNode,
    to: NetNode,
    /// Dead slots (evicted edges) keep their id and lookup entry so a
    /// re-learning probe revives the same `EdgeId`.
    live: bool,
    /// Last dirty epoch this edge was recorded in; dedupes the dirty list
    /// to one entry per edge per publish interval.
    stamp: u64,
    state: EdgeState,
}

/// SplitMix64 finalizer — cheap, well-mixed hash for the edge lookup.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Injective 64-bit encoding of a node (hosts and switches never collide).
fn node_key(n: NetNode) -> u64 {
    match n {
        NetNode::Host(h) => h as u64,
        NetNode::Switch(s) => (1u64 << 32) | s as u64,
    }
}

/// Hash of a *directed* edge; asymmetric so (a,b) and (b,a) differ.
fn pair_hash(from: NetNode, to: NetNode) -> u64 {
    mix64(node_key(from) ^ mix64(node_key(to).wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

/// The learned network graph.
///
/// Edge storage is a dense interned slab: each directed edge gets a stable
/// [`EdgeId`] on first sighting, hot-path updates are O(1) hash-probe +
/// array write, and deterministic iteration goes through a sorted id list
/// maintained only on structural changes. Edges touched since the last
/// [`NetworkMap::take_dirty_into`] accumulate in a deduped dirty list so
/// the snapshot publisher can reprice only what changed.
#[derive(Debug, Clone)]
pub struct NetworkMap {
    /// Edge slab, indexed by `EdgeId`. Append-only; eviction marks slots
    /// dead instead of removing them.
    slots: Vec<EdgeSlot>,
    /// Directed endpoint pair ([`pair_hash`]) → `EdgeId`. Entries are
    /// never removed — dead slots keep theirs for revival.
    lookup: SlabIndex,
    /// Live edge ids sorted by `(from, to)`; gives `edges()` the same
    /// deterministic order the old `BTreeMap` store had. Maintained on
    /// structural changes only (insert/revive/evict).
    order: Vec<EdgeId>,
    hosts: BTreeSet<u32>,
    switches: BTreeSet<u32>,
    /// Edges evicted for not being refreshed within the aging horizon,
    /// keyed to their eviction time — the "newly dead" set surfaced by the
    /// coverage report. Cleared per edge when a probe re-learns it.
    evicted: BTreeMap<(NetNode, NetNode), u64>,
    /// Retention horizon for per-edge queue-harvest history; mirrors
    /// [`CoreConfig::qlen_window_ns`].
    qlen_retention_ns: u64,
    /// Bumped whenever the *structure* of the graph changes: an edge is
    /// inserted, revived or evicted, or a node joins the host/switch sets.
    /// The snapshot publisher keys its frozen CSR and edge ↔ arc tables
    /// on this.
    topo_gen: u64,
    /// Bumped on metric-only updates (delay/queue refresh of an existing
    /// edge). Does not invalidate adjacency structure, only edge weights
    /// and cached shortest paths.
    metrics_gen: u64,
    /// Edge ids touched since the last `take_dirty_into`, one entry per
    /// edge (deduped via `EdgeSlot::stamp` against `dirty_epoch`).
    dirty: Vec<EdgeId>,
    /// Current dirty interval; bumped when the dirty list is drained.
    /// Starts at 1 so freshly interned slots (stamp 0) always differ.
    dirty_epoch: u64,
}

impl Default for NetworkMap {
    fn default() -> Self {
        let defaults = CoreConfig::default();
        NetworkMap {
            slots: Vec::new(),
            lookup: SlabIndex::default(),
            order: Vec::new(),
            hosts: BTreeSet::new(),
            switches: BTreeSet::new(),
            evicted: BTreeMap::new(),
            qlen_retention_ns: defaults.qlen_window_ns,
            topo_gen: 0,
            metrics_gen: 0,
            dirty: Vec::new(),
            dirty_epoch: 1,
        }
    }
}

impl NetworkMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the retention horizon for queue-harvest history. Harvests older
    /// than this relative to the newest sample are pruned.
    pub fn set_qlen_retention(&mut self, window_ns: u64) {
        self.qlen_retention_ns = window_ns;
    }

    /// Known edge hosts (probe origins and the scheduler).
    pub fn hosts(&self) -> impl Iterator<Item = u32> + '_ {
        self.hosts.iter().copied()
    }

    /// Known switches.
    pub fn switches(&self) -> impl Iterator<Item = u32> + '_ {
        self.switches.iter().copied()
    }

    /// Number of directed edges with state.
    pub fn edge_count(&self) -> usize {
        self.order.len()
    }

    /// All directed edges (deterministic `(from, to)` order).
    pub fn edges(&self) -> impl Iterator<Item = (NetNode, NetNode, &EdgeState)> + '_ {
        self.order.iter().map(|&id| {
            let s = &self.slots[id as usize];
            (s.from, s.to, &s.state)
        })
    }

    /// Directed edge state, if probed.
    pub fn edge(&self, from: NetNode, to: NetNode) -> Option<&EdgeState> {
        let s = &self.slots[self.find_slot(from, to)? as usize];
        s.live.then_some(&s.state)
    }

    /// Endpoints and state of a *live* edge by id; `None` when the id is
    /// unknown or the edge is currently dead (evicted).
    pub fn edge_by_id(&self, id: EdgeId) -> Option<(NetNode, NetNode, &EdgeState)> {
        let s = self.slots.get(id as usize)?;
        s.live.then_some((s.from, s.to, &s.state))
    }

    /// Ids handed out so far, dead edges included: every `EdgeId` is below
    /// this.
    pub(crate) fn interned_edges(&self) -> usize {
        self.slots.len()
    }

    /// Drain the dirty-edge list (edge ids touched since the previous
    /// drain, deduped) into `out`, clearing it first. Starts a new dirty
    /// interval: subsequent touches re-record their edges.
    pub fn take_dirty_into(&mut self, out: &mut Vec<EdgeId>) {
        out.clear();
        out.extend_from_slice(&self.dirty);
        self.dirty.clear();
        self.dirty_epoch += 1;
    }

    /// Number of distinct edges touched since the last dirty drain.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Look up the slot id of a directed edge (live or dead).
    fn find_slot(&self, from: NetNode, to: NetNode) -> Option<u32> {
        self.lookup.find(pair_hash(from, to), |id| {
            let s = &self.slots[id as usize];
            s.from == from && s.to == to
        })
    }

    /// Record `id` as touched in the current dirty interval (deduped).
    fn mark_dirty(&mut self, id: EdgeId) {
        let s = &mut self.slots[id as usize];
        if s.stamp != self.dirty_epoch {
            s.stamp = self.dirty_epoch;
            self.dirty.push(id);
        }
    }

    /// The structural half of learning an edge — `found` is its dead slot,
    /// or `None` when it was never seen: revive it under its old id with
    /// fresh state, or intern it under the next id.
    fn learn(&mut self, found: Option<EdgeId>, from: NetNode, to: NetNode, now_ns: u64) -> EdgeId {
        self.topo_gen += 1;
        let id = if let Some(id) = found {
            let s = &mut self.slots[id as usize];
            s.live = true;
            s.state = EdgeState::new(now_ns);
            self.evicted.remove(&(from, to));
            id
        } else {
            let id = self.slots.len() as u32;
            let state = EdgeState::new(now_ns);
            self.slots.push(EdgeSlot { from, to, live: true, stamp: 0, state });
            let slots = &self.slots;
            self.lookup.insert(pair_hash(from, to), id, |old| {
                let s = &slots[old as usize];
                pair_hash(s.from, s.to)
            });
            id
        };
        self.insert_order(id);
        id
    }

    /// Register a node met as an edge endpoint.
    fn register(&mut self, node: NetNode) {
        let new = match node {
            NetNode::Host(h) => self.hosts.insert(h),
            NetNode::Switch(s) => self.switches.insert(s),
        };
        self.topo_gen += new as u64;
    }

    /// One step of the probe walk: resolve the `from → to` edge with one
    /// hash probe, then fold the link's latency sample and — where a
    /// switch sits upstream — its `(max, at-probe)` queue harvest into the
    /// same slot. The node sets are only consulted when the edge is
    /// missing or dead: eviction forgets a switch only once no live edge
    /// names it and hosts are never forgotten, so a live edge implies both
    /// its endpoints are registered. Returns the id the edge resolved to.
    fn touch(
        &mut self,
        from: NetNode,
        to: NetNode,
        delay_ns: u64,
        harvest: Option<(u32, u32)>,
        now_ns: u64,
    ) -> EdgeId {
        let id = match self.find_slot(from, to) {
            Some(id) if self.slots[id as usize].live => {
                self.metrics_gen += 1;
                id
            }
            found => {
                self.register(from);
                self.register(to);
                self.learn(found, from, to, now_ns)
            }
        };
        self.fold(id, delay_ns, harvest, now_ns);
        id
    }

    /// What every step of the walk ends with once its edge is resolved:
    /// mark `id` dirty, fold the latency sample and the upstream harvest.
    fn fold(&mut self, id: EdgeId, delay_ns: u64, harvest: Option<(u32, u32)>, now_ns: u64) {
        self.mark_dirty(id);
        let e = &mut self.slots[id as usize].state;
        e.fold_delay(DELAY_EWMA_NEW_EIGHTHS, delay_ns, now_ns);
        if let Some((max_q, inst_q)) = harvest {
            e.fold_harvest(max_q, inst_q, now_ns, self.qlen_retention_ns);
        }
    }

    /// Insert a (newly live) id into the sorted iteration order.
    fn insert_order(&mut self, id: EdgeId) {
        let key = {
            let s = &self.slots[id as usize];
            (s.from, s.to)
        };
        let pos = self
            .order
            .binary_search_by(|&o| {
                let s = &self.slots[o as usize];
                (s.from, s.to).cmp(&key)
            })
            .unwrap_or_else(|p| p);
        self.order.insert(pos, id);
    }

    /// Topology generation: incremented on every structural change (edge
    /// insert/evict, node-set growth). Snapshots keyed on this stay valid
    /// across metric-only refreshes.
    pub fn topology_generation(&self) -> u64 {
        self.topo_gen
    }

    /// Metrics generation: incremented on every metric refresh of an
    /// existing edge. Cached shortest paths must be revalidated when this
    /// moves — route choice is delay-weighted, so fresher metrics can
    /// select a different path.
    pub fn metrics_generation(&self) -> u64 {
        self.metrics_gen
    }

    /// Register a host that may not originate probes (e.g. the scheduler
    /// itself, or a device that only submits queries).
    pub fn register_host(&mut self, host: u32) {
        self.register(NetNode::Host(host));
    }

    /// Fold one probe into the map (paper Fig. 2 semantics).
    ///
    /// `scheduler_host` is the node the probe terminated at; `now_ns` is
    /// the collector's receive timestamp, used to measure the final hop's
    /// link latency from the last switch's egress stamp.
    ///
    /// One walk over the k + 1 edges of origin → s1 → … → sk → terminal:
    /// record i measured the latency of the link *into* switch i (the
    /// final hop is measured here, at the collector) and harvested the
    /// max queue of switch i's egress — toward the node *after* it — so
    /// every edge from the second on also receives the previous record's
    /// harvest.
    pub fn apply_probe(&mut self, probe: &ProbePayload, scheduler_host: u32, now_ns: u64) {
        self.apply_probe_with(probe, scheduler_host, now_ns, |_| {});
    }

    /// [`NetworkMap::apply_probe`], handing `resolved` the id each of the
    /// k + 1 edges resolved to, in path order (none for an empty stack).
    pub(crate) fn apply_probe_with(
        &mut self,
        probe: &ProbePayload,
        scheduler_host: u32,
        now_ns: u64,
        mut resolved: impl FnMut(EdgeId),
    ) {
        let records = &probe.int.records;
        let Some(last) = records.last() else {
            // A probe that saw no switch teaches no edge, only that both
            // of its ends exist.
            self.register_host(probe.origin_node);
            self.register_host(scheduler_host);
            return;
        };
        let mut from = NetNode::Host(probe.origin_node);
        let mut harvest = None;
        for r in records {
            let to = NetNode::Switch(r.switch_id);
            resolved(self.touch(from, to, r.link_latency_ns, harvest, now_ns));
            harvest = Some((r.max_qlen_pkts, r.qlen_at_probe_pkts));
            from = to;
        }
        let final_hop = now_ns.saturating_sub(last.egress_ts_ns);
        resolved(self.touch(from, NetNode::Host(scheduler_host), final_hop, harvest, now_ns));
    }

    /// [`NetworkMap::apply_probe`] for a probe whose k + 1 edges an
    /// earlier walk of the same route already resolved to `ids`: if every
    /// one of them is still live, fold the probe exactly as the walk would
    /// — each `touch` would find its slot live, so none would register or
    /// learn anything — and return `true`; otherwise change nothing and
    /// return `false`.
    ///
    /// An id names the same directed edge for as long as the map exists
    /// (ids are never reused, a slot's endpoints never change), so
    /// liveness is the only thing left to check.
    pub(crate) fn apply_probe_resolved(
        &mut self,
        probe: &ProbePayload,
        ids: &[EdgeId],
        now_ns: u64,
    ) -> bool {
        let records = &probe.int.records;
        let (Some((&final_id, hop_ids)), Some(last)) = (ids.split_last(), records.last()) else {
            return false;
        };
        if hop_ids.len() != records.len()
            || !ids.iter().all(|&id| self.slots.get(id as usize).is_some_and(|s| s.live))
        {
            return false;
        }
        let mut harvest = None;
        for (&id, r) in hop_ids.iter().zip(records) {
            self.metrics_gen += 1;
            self.fold(id, r.link_latency_ns, harvest, now_ns);
            harvest = Some((r.max_qlen_pkts, r.qlen_at_probe_pkts));
        }
        self.metrics_gen += 1;
        self.fold(final_id, now_ns.saturating_sub(last.egress_ts_ns), harvest, now_ns);
        true
    }

    /// Evict every edge not refreshed within `horizon_ns` of `now_ns`, and
    /// forget switches left with no edges. Evicted edges are remembered as
    /// *dead* (see [`NetworkMap::dead_edges`]) until a probe re-learns
    /// them. Returns the edges evicted by this call, in deterministic
    /// order.
    pub fn evict_stale(&mut self, now_ns: u64, horizon_ns: u64) -> Vec<(NetNode, NetNode)> {
        // `order` is sorted by (from, to), so the dead list comes out in
        // the same deterministic order the BTreeMap store produced.
        let dead_ids: Vec<EdgeId> = self
            .order
            .iter()
            .copied()
            .filter(|&id| {
                let s = &self.slots[id as usize];
                now_ns.saturating_sub(s.state.updated_ns) > horizon_ns
            })
            .collect();
        if dead_ids.is_empty() {
            return Vec::new();
        }
        let mut dead = Vec::with_capacity(dead_ids.len());
        for &id in &dead_ids {
            let (from, to) = {
                let s = &mut self.slots[id as usize];
                s.live = false;
                // Release dead history memory; revival resets state anyway.
                s.state.qlen_history = Vec::new();
                (s.from, s.to)
            };
            self.evicted.insert((from, to), now_ns);
            dead.push((from, to));
        }
        let mut order = std::mem::take(&mut self.order);
        order.retain(|&id| self.slots[id as usize].live);
        self.order = order;
        self.topo_gen += 1;
        // A switch is only known through its edges; drop the ones that
        // no longer appear on any.
        let mut live = BTreeSet::new();
        for (a, b, _) in self.edges() {
            for n in [a, b] {
                if let NetNode::Switch(s) = n {
                    live.insert(s);
                }
            }
        }
        self.switches = live;
        dead
    }

    /// Edges evicted by aging and not re-learned since, with their
    /// eviction times (deterministic order).
    pub fn dead_edges(&self) -> impl Iterator<Item = (NetNode, NetNode, u64)> + '_ {
        self.evicted.iter().map(|((a, b), at)| (*a, *b, *at))
    }

    /// The live edge that answers for the `from → to` direction: that
    /// edge if probed, else the reverse one. Probes flow server →
    /// scheduler while task data flows device → server, so the forward
    /// direction is often unprobed and the reverse measurement stands in.
    fn answering_edge(&self, from: NetNode, to: NetNode) -> Option<&EdgeState> {
        self.edge(from, to).or_else(|| self.edge(to, from))
    }

    /// Effective delay of a directed edge for estimation (the reverse
    /// direction's when this one is unprobed); `None` if neither direction
    /// is a live edge. Every live edge carries a delay sample: the probe
    /// walk folds one into each edge it creates or revives.
    pub fn effective_delay_ns(&self, from: NetNode, to: NetNode) -> Option<u64> {
        self.answering_edge(from, to).map(|e| e.delay_ns)
    }

    /// Effective max queue length of a directed edge, with the same
    /// reverse fallback; stale measurements read as an empty queue (they
    /// do not fall through to the reverse edge).
    pub fn effective_qlen(&self, cfg: &CoreConfig, from: NetNode, to: NetNode, now_ns: u64) -> u32 {
        let Some(e) = self.answering_edge(from, to) else { return 0 };
        if now_ns.saturating_sub(e.qlen_updated_ns) > cfg.staleness_ns {
            return 0;
        }
        match cfg.hop_signal {
            HopSignal::MaxQueue => e.windowed_max_qlen(now_ns, cfg.qlen_window_ns),
            HopSignal::InstantaneousQueue => e.qlen_at_probe_pkts,
        }
    }

    /// Undirected neighbours of a node (for graph traversal).
    pub fn neighbours(&self, node: NetNode) -> Vec<NetNode> {
        let mut out = BTreeSet::new();
        for (a, b, _) in self.edges() {
            if a == node {
                out.insert(b);
            }
            if b == node {
                out.insert(a);
            }
        }
        out.into_iter().collect()
    }

    /// Shortest path (by effective delay, deterministic tie-break) between
    /// two nodes over the learned graph. Returns the node sequence
    /// including endpoints, or `None` if disconnected.
    ///
    /// This is the *reference* implementation: queries are served from
    /// [`crate::snapshot::SchedSnapshot`], whose routes must agree with
    /// this byte-for-byte (pinned by the churn proptests). Keep the two
    /// in lockstep when changing traversal semantics.
    pub fn path(&self, from: NetNode, to: NetNode) -> Option<Vec<NetNode>> {
        self.path_banned(from, to, &BTreeSet::new())
    }

    /// [`NetworkMap::path`] with an undirected ban list: edges whose
    /// normalized `(min, max)` pair appears in `banned` are skipped in both
    /// directions. With an empty ban list this *is* the reference shortest
    /// path; [`NetworkMap::k_paths`] layers successive bans on top.
    fn path_banned(
        &self,
        from: NetNode,
        to: NetNode,
        banned: &BTreeSet<(NetNode, NetNode)>,
    ) -> Option<Vec<NetNode>> {
        if from == to {
            return Some(vec![from]);
        }
        // Dijkstra over the undirected learned graph with directed-delay
        // weights (reverse fallback applies).
        let mut dist: BTreeMap<NetNode, u64> = BTreeMap::new();
        let mut prev: BTreeMap<NetNode, NetNode> = BTreeMap::new();
        let mut heap = std::collections::BinaryHeap::new();
        dist.insert(from, 0);
        heap.push(std::cmp::Reverse((0u64, from)));

        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if dist.get(&u).copied().unwrap_or(u64::MAX) < d {
                continue;
            }
            if u == to {
                break;
            }
            for v in self.neighbours(u) {
                if !banned.is_empty() && banned.contains(&undirected_key(u, v)) {
                    continue;
                }
                let w = self
                    .effective_delay_ns(u, v)
                    .expect("a neighbour is joined by a live edge in one direction");
                let nd = d.saturating_add(w.max(1));
                if nd < dist.get(&v).copied().unwrap_or(u64::MAX) {
                    dist.insert(v, nd);
                    prev.insert(v, u);
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }

        if !dist.contains_key(&to) {
            return None;
        }
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = *prev.get(&cur)?;
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Up to `k` candidate paths between two nodes by successive edge
    /// exclusion: path *j+1* is the shortest path with the interior
    /// switch–switch edges of paths *1..=j* banned (host attachment edges
    /// are never banned — a host's only uplink is not an alternative to
    /// itself). Stops early when banning yields no path or a duplicate.
    ///
    /// The first element always equals [`NetworkMap::path`] exactly. Like
    /// `path`, this is the *reference* implementation for the k-path rank:
    /// the snapshot's k-sets must agree byte-for-byte.
    pub fn k_paths(&self, from: NetNode, to: NetNode, k: u32) -> Vec<Vec<NetNode>> {
        let mut out: Vec<Vec<NetNode>> = Vec::new();
        let mut banned: BTreeSet<(NetNode, NetNode)> = BTreeSet::new();
        for _ in 0..k.max(1) {
            let Some(path) = self.path_banned(from, to, &banned) else { break };
            if out.contains(&path) {
                break;
            }
            for w in path.windows(2) {
                let (a, b) = (w[0], w[1]);
                if matches!(a, NetNode::Switch(_)) && matches!(b, NetNode::Switch(_)) {
                    banned.insert(undirected_key(a, b));
                }
            }
            out.push(path);
        }
        out
    }
}

/// Normalize an undirected edge to a canonical `(min, max)` key.
fn undirected_key(a: NetNode, b: NetNode) -> (NetNode, NetNode) {
    if a <= b { (a, b) } else { (b, a) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use int_packet::int::IntRecord;
    use proptest::prelude::*;

    fn rec(switch_id: u32, maxq: u32, link_lat_ms: u64, egress_ts_ms: u64) -> IntRecord {
        IntRecord {
            switch_id,
            ingress_port: 0,
            egress_port: 1,
            max_qlen_pkts: maxq,
            qlen_at_probe_pkts: 0,
            link_latency_ns: link_lat_ms * 1_000_000,
            egress_ts_ns: egress_ts_ms * 1_000_000,
        }
    }

    /// Probe from host 1 through switches 10, 11 to scheduler host 6.
    fn two_hop_probe() -> ProbePayload {
        let mut p = ProbePayload::new(1, 1, 0);
        p.int.push(rec(10, 4, 10, 11));
        p.int.push(rec(11, 9, 10, 22));
        p
    }

    #[test]
    fn topology_learned_from_record_order() {
        let mut m = NetworkMap::new();
        m.apply_probe(&two_hop_probe(), 6, 32_000_000);

        assert_eq!(m.hosts().collect::<Vec<_>>(), vec![1, 6]);
        assert_eq!(m.switches().collect::<Vec<_>>(), vec![10, 11]);
        // Edges: h1→s10, s10→s11, s11→h6 (probe direction).
        assert!(m.edge(NetNode::Host(1), NetNode::Switch(10)).is_some());
        assert!(m.edge(NetNode::Switch(10), NetNode::Switch(11)).is_some());
        assert!(m.edge(NetNode::Switch(11), NetNode::Host(6)).is_some());
        assert_eq!(m.edge_count(), 3);
    }

    #[test]
    fn delays_assigned_to_correct_edges() {
        let mut m = NetworkMap::new();
        m.apply_probe(&two_hop_probe(), 6, 32_000_000);
        let d1 = m.edge(NetNode::Host(1), NetNode::Switch(10)).unwrap();
        assert_eq!(d1.delay_ns, 10_000_000);
        let d2 = m.edge(NetNode::Switch(10), NetNode::Switch(11)).unwrap();
        assert_eq!(d2.delay_ns, 10_000_000);
        // Final hop: now (32 ms) − egress stamp of s11 (22 ms) = 10 ms.
        let d3 = m.edge(NetNode::Switch(11), NetNode::Host(6)).unwrap();
        assert_eq!(d3.delay_ns, 10_000_000);
    }

    #[test]
    fn qlens_assigned_to_switch_egress_edges() {
        let mut m = NetworkMap::new();
        m.apply_probe(&two_hop_probe(), 6, 32_000_000);
        // s10's register snapshot describes its egress toward s11.
        assert_eq!(m.edge(NetNode::Switch(10), NetNode::Switch(11)).unwrap().max_qlen_pkts, 4);
        // s11's snapshot describes its egress toward the scheduler.
        assert_eq!(m.edge(NetNode::Switch(11), NetNode::Host(6)).unwrap().max_qlen_pkts, 9);
    }

    #[test]
    fn delay_ewma_smooths() {
        let mut m = NetworkMap::new();
        m.apply_probe(&two_hop_probe(), 6, 32_000_000);
        // Second probe with a 20 ms first-link sample.
        let mut p = ProbePayload::new(1, 2, 0);
        p.int.push(rec(10, 0, 20, 120));
        p.int.push(rec(11, 0, 10, 130));
        m.apply_probe(&p, 6, 140_000_000);
        let e = m.edge(NetNode::Host(1), NetNode::Switch(10)).unwrap();
        assert_eq!(e.last_delay_ns, 20_000_000);
        // EWMA: (6·10 + 2·20)/8 = 12.5 ms
        assert_eq!(e.delay_ns, 12_500_000);
        assert_eq!(e.samples, 2);
    }

    /// Regression (history used to be capped at the 32 most recent
    /// entries): a window wider than 32 probing intervals must still see
    /// an early congestion spike inside the window, and only there.
    #[test]
    fn qlen_history_prunes_by_window_not_by_count() {
        let ms = 1_000_000u64;
        let window = 10_000 * ms; // 10 s window, 100 ms samples
        let mut m = NetworkMap::new();
        m.set_qlen_retention(window);
        let spike_at = 100 * ms;

        // Sample 0 carries the spike (q=50); 39 quieter samples follow, so
        // a count-of-32 cap would have dropped the spike by the end.
        for i in 0..40u64 {
            let mut p = ProbePayload::new(1, i, 0);
            let q = if i == 0 { 50 } else { 7 };
            p.int.push(rec(10, q, 10, 11));
            p.int.push(rec(11, 0, 10, 22));
            m.apply_probe(&p, 6, spike_at + i * 100 * ms);
        }
        let e = m.edge(NetNode::Switch(10), NetNode::Switch(11)).unwrap();
        let now = spike_at + 39 * 100 * ms;
        assert_eq!(e.windowed_max_qlen(now, window), 50, "the early spike is inside the window");
        // Across the window's edge: the spike's own instant is the last
        // one that still sees it.
        assert_eq!(e.windowed_max_qlen(spike_at + window, window), 50);
        assert_eq!(e.windowed_max_qlen(spike_at + window + 1, window), 7);

        // A harvest that ages out of the retention horizon is gone for
        // good — even a wider window asked later cannot see it.
        let mut p = ProbePayload::new(1, 40, 0);
        p.int.push(rec(10, 0, 10, 11));
        p.int.push(rec(11, 0, 10, 22));
        m.apply_probe(&p, 6, spike_at + window + ms);
        let e = m.edge(NetNode::Switch(10), NetNode::Switch(11)).unwrap();
        assert_eq!(e.windowed_max_qlen(spike_at + window + ms, u64::MAX), 7);
        assert!(
            e.qlen_history.iter().all(|(ts, _)| *ts >= 101 * ms),
            "aged-out harvests pruned: {:?}",
            e.qlen_history
        );
    }

    #[test]
    fn eviction_removes_unrefreshed_edges_and_remembers_them() {
        let mut m = NetworkMap::new();
        m.apply_probe(&two_hop_probe(), 6, 32_000_000);
        assert_eq!(m.edge_count(), 3);

        // Within the horizon nothing happens.
        assert!(m.evict_stale(32_000_000 + 1_000_000, 10_000_000_000).is_empty());
        assert_eq!(m.edge_count(), 3);

        // Past the horizon everything learned from that probe dies.
        let later = 32_000_000 + 10_000_000_001;
        let dead = m.evict_stale(later, 10_000_000_000);
        assert_eq!(dead.len(), 3);
        assert_eq!(m.edge_count(), 0);
        assert_eq!(m.switches().count(), 0, "switches with no edges are forgotten");
        assert_eq!(m.dead_edges().count(), 3);
        assert!(m.dead_edges().all(|(_, _, at)| at == later));
        // Hosts stay registered: they are candidates, not telemetry.
        assert_eq!(m.hosts().collect::<Vec<_>>(), vec![1, 6]);
    }

    #[test]
    fn relearned_edge_leaves_the_dead_set() {
        let mut m = NetworkMap::new();
        m.apply_probe(&two_hop_probe(), 6, 32_000_000);
        let later = 32_000_000 + 10_000_000_001;
        m.evict_stale(later, 10_000_000_000);
        assert_eq!(m.dead_edges().count(), 3);

        // The same path comes back: re-learning clears its dead markers.
        m.apply_probe(&two_hop_probe(), 6, later + 1);
        assert_eq!(m.dead_edges().count(), 0);
        assert_eq!(m.edge_count(), 3);
        assert_eq!(m.switches().collect::<Vec<_>>(), vec![10, 11]);
    }

    #[test]
    fn eviction_disconnects_paths() {
        let mut m = NetworkMap::new();
        m.apply_probe(&two_hop_probe(), 6, 32_000_000);
        assert!(m.path(NetNode::Host(6), NetNode::Host(1)).is_some());
        m.evict_stale(32_000_000 + 10_000_000_001, 10_000_000_000);
        assert!(
            m.path(NetNode::Host(6), NetNode::Host(1)).is_none(),
            "a dead path must not be traversable"
        );
    }

    #[test]
    fn reverse_fallback_supplies_unprobed_direction() {
        let mut m = NetworkMap::new();
        m.apply_probe(&two_hop_probe(), 6, 32_000_000);
        let cfg = CoreConfig::default();
        // Forward (device→server) direction s11→s10 was never probed.
        let d = m.effective_delay_ns(NetNode::Switch(11), NetNode::Switch(10));
        assert_eq!(d, Some(10_000_000), "reverse measurement reused");
        let q =
            m.effective_qlen(&cfg, NetNode::Switch(11), NetNode::Switch(10), 32_000_000);
        assert_eq!(q, 4);
    }

    #[test]
    fn stale_qlen_reads_as_empty() {
        let mut m = NetworkMap::new();
        m.apply_probe(&two_hop_probe(), 6, 32_000_000);
        let cfg = CoreConfig::default();
        let fresh = m.effective_qlen(&cfg, NetNode::Switch(10), NetNode::Switch(11), 32_000_000);
        assert_eq!(fresh, 4);
        let later = 32_000_000 + cfg.staleness_ns + 1;
        let stale = m.effective_qlen(&cfg, NetNode::Switch(10), NetNode::Switch(11), later);
        assert_eq!(stale, 0, "stale measurements must not signal congestion");
    }

    #[test]
    fn path_over_learned_graph() {
        let mut m = NetworkMap::new();
        m.apply_probe(&two_hop_probe(), 6, 32_000_000);
        let p = m.path(NetNode::Host(6), NetNode::Host(1)).unwrap();
        assert_eq!(
            p,
            vec![NetNode::Host(6), NetNode::Switch(11), NetNode::Switch(10), NetNode::Host(1)]
        );
        assert_eq!(m.path(NetNode::Host(1), NetNode::Host(1)).unwrap().len(), 1);
        assert!(m.path(NetNode::Host(1), NetNode::Host(99)).is_none());
    }

    #[test]
    fn empty_probe_is_ignored() {
        let mut m = NetworkMap::new();
        m.apply_probe(&ProbePayload::new(1, 1, 0), 6, 1);
        assert_eq!(m.edge_count(), 0);
        assert_eq!(m.switches().count(), 0);
    }

    #[test]
    fn probes_from_multiple_origins_merge() {
        let mut m = NetworkMap::new();
        m.apply_probe(&two_hop_probe(), 6, 32_000_000);
        // Host 2 probes through switches 12 → 11.
        let mut p = ProbePayload::new(2, 1, 0);
        p.int.push(rec(12, 1, 10, 11));
        p.int.push(rec(11, 2, 10, 22));
        m.apply_probe(&p, 6, 32_000_000);

        assert_eq!(m.hosts().collect::<Vec<_>>(), vec![1, 2, 6]);
        assert_eq!(m.switches().collect::<Vec<_>>(), vec![10, 11, 12]);
        assert!(m.edge(NetNode::Switch(12), NetNode::Switch(11)).is_some());
    }

    /// Two disjoint switch chains host1→host6: 10–11 (fast), 12–13 (slow).
    fn two_route_map() -> NetworkMap {
        let mut m = NetworkMap::new();
        let mut fast = ProbePayload::new(1, 1, 0);
        fast.int.push(rec(10, 0, 5, 11));
        fast.int.push(rec(11, 0, 5, 22));
        m.apply_probe(&fast, 6, 22_000_000);
        let mut slow = ProbePayload::new(1, 2, 0);
        slow.int.push(rec(12, 0, 30, 11));
        slow.int.push(rec(13, 0, 30, 22));
        m.apply_probe(&slow, 6, 70_000_000);
        m
    }

    #[test]
    fn k_paths_first_is_the_shortest_path_and_banning_finds_the_alternate() {
        let m = two_route_map();
        let (a, b) = (NetNode::Host(1), NetNode::Host(6));
        let ks = m.k_paths(a, b, 3);
        assert_eq!(ks.len(), 2, "two disjoint routes exist: {ks:?}");
        assert_eq!(ks[0], m.path(a, b).unwrap(), "first k-path is the oracle path");
        assert!(ks[0].contains(&NetNode::Switch(10)), "fast route first: {ks:?}");
        assert!(ks[1].contains(&NetNode::Switch(12)), "banning reveals the slow route: {ks:?}");
    }

    #[test]
    fn k_paths_never_bans_host_attachment_edges() {
        // Single chain: the only route shares the host attachments; k>1
        // must return exactly one path, not sever the hosts.
        let mut m = NetworkMap::new();
        m.apply_probe(&two_hop_probe(), 6, 32_000_000);
        let ks = m.k_paths(NetNode::Host(1), NetNode::Host(6), 4);
        assert_eq!(ks.len(), 1, "the lone interior edge bans out: {ks:?}");
        assert_eq!(ks[0], m.path(NetNode::Host(1), NetNode::Host(6)).unwrap());
    }

    #[test]
    fn k_paths_of_one_reduces_to_path() {
        let m = two_route_map();
        for (a, b) in [(1u32, 6u32), (6, 1)] {
            let ks = m.k_paths(NetNode::Host(a), NetNode::Host(b), 1);
            assert_eq!(ks.len(), 1);
            assert_eq!(ks[0], m.path(NetNode::Host(a), NetNode::Host(b)).unwrap());
        }
    }

    #[test]
    fn k_paths_self_and_unknown_endpoints() {
        let m = two_route_map();
        let selfp = m.k_paths(NetNode::Host(1), NetNode::Host(1), 3);
        assert_eq!(selfp, vec![vec![NetNode::Host(1)]]);
        assert!(m.k_paths(NetNode::Host(1), NetNode::Host(42), 3).is_empty());
    }

    #[test]
    fn dirty_list_dedupes_per_interval_and_drains() {
        let mut m = NetworkMap::new();
        m.apply_probe(&two_hop_probe(), 6, 32_000_000);
        // 3 delay edges + 2 qlen edges, overlapping: 3 distinct edges.
        assert_eq!(m.dirty_count(), 3);
        let mut dirty = Vec::new();
        m.take_dirty_into(&mut dirty);
        assert_eq!(dirty.len(), 3);
        assert_eq!(m.dirty_count(), 0);
        for &id in &dirty {
            assert!(m.edge_by_id(id).is_some(), "dirty ids resolve to live edges");
        }

        // Re-probing the same path re-dirties the same edges once each.
        m.apply_probe(&two_hop_probe(), 6, 64_000_000);
        assert_eq!(m.dirty_count(), 3);
        let mut again = Vec::new();
        m.take_dirty_into(&mut again);
        assert_eq!(dirty, again, "stable ids: the same edges re-report");
    }

    #[test]
    fn edge_ids_are_stable_across_eviction_and_revival() {
        let mut m = NetworkMap::new();
        m.apply_probe(&two_hop_probe(), 6, 32_000_000);
        let mut before = Vec::new();
        m.take_dirty_into(&mut before);
        before.sort_unstable();

        let later = 32_000_000 + 10_000_000_001;
        m.evict_stale(later, 10_000_000_000);
        for &id in &before {
            assert!(m.edge_by_id(id).is_none(), "dead edges resolve to None");
        }

        m.apply_probe(&two_hop_probe(), 6, later + 1);
        let mut after = Vec::new();
        m.take_dirty_into(&mut after);
        after.sort_unstable();
        assert_eq!(before, after, "revived edges keep their interned ids");
        for &id in &after {
            assert!(m.edge_by_id(id).is_some());
        }
    }

    #[test]
    fn interned_lookup_survives_table_growth() {
        // Enough distinct edges to force several lookup-table rebuilds.
        let mut m = NetworkMap::new();
        for i in 0..200u32 {
            let mut p = ProbePayload::new(1 + i % 7, i as u64, 0);
            p.int.push(rec(100 + i, 1, 5, 11));
            p.int.push(rec(500 + i, 2, 5, 22));
            m.apply_probe(&p, 6, 32_000_000 + i as u64);
        }
        // Every learned edge is still addressable and iteration is sorted.
        let keys: Vec<_> = m.edges().map(|(a, b, _)| (a, b)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "edges() iterates in (from, to) order");
        for (a, b) in keys {
            assert!(m.edge(a, b).is_some());
        }
        assert!(m.edge(NetNode::Host(1), NetNode::Switch(999)).is_none());
    }

    #[test]
    fn qlen_history_hard_cap_keeps_the_newest_steps() {
        let mut e = EdgeState::new(0);
        // Strictly falling depths never dominate one another.
        for i in 0..2_000u32 {
            e.fold_harvest(5_000 - i, 0, i as u64, u64::MAX);
        }
        assert_eq!(e.qlen_history.len(), QLEN_HISTORY_HARD_CAP);
        assert_eq!(e.qlen_history.first(), Some(&(976, 4_024)));
        assert_eq!(e.qlen_history.last(), Some(&(1_999, 3_001)));
    }

    /// The raw harvest history the staircase replaced — one entry per
    /// harvest, pruned by age, hard-capped — kept as its oracle.
    #[derive(Default)]
    struct RawHistory(Vec<(u64, u32)>);

    impl RawHistory {
        fn push(&mut self, now_ns: u64, max_q: u32, retention_ns: u64) {
            self.0.push((now_ns, max_q));
            let cutoff = now_ns.saturating_sub(retention_ns);
            self.0.retain(|(ts, _)| *ts >= cutoff);
            if self.0.len() > QLEN_HISTORY_HARD_CAP {
                let excess = self.0.len() - QLEN_HISTORY_HARD_CAP;
                self.0.drain(..excess);
            }
        }

        fn windowed_max(&self, now_ns: u64, window_ns: u64) -> u32 {
            let cutoff = now_ns.saturating_sub(window_ns);
            self.0.iter().filter(|(ts, _)| *ts >= cutoff).map(|(_, q)| *q).max().unwrap_or(0)
        }
    }

    /// The two-pass probe application the fused walk replaced, kept as
    /// its oracle: register every node up front, then one pass of delay
    /// samples and one of queue harvests, each resolving its edge anew.
    impl NetworkMap {
        fn apply_probe_two_pass(&mut self, probe: &ProbePayload, scheduler_host: u32, now_ns: u64) {
            self.register(NetNode::Host(probe.origin_node));
            self.register(NetNode::Host(scheduler_host));
            let records = &probe.int.records;
            if records.is_empty() {
                return;
            }
            let mut path = vec![NetNode::Host(probe.origin_node)];
            for r in records {
                self.register(NetNode::Switch(r.switch_id));
                path.push(NetNode::Switch(r.switch_id));
            }
            path.push(NetNode::Host(scheduler_host));

            let final_hop = now_ns.saturating_sub(records.last().unwrap().egress_ts_ns);
            let samples = records.iter().map(|r| r.link_latency_ns).chain([final_hop]);
            for (i, sample_ns) in samples.enumerate() {
                let id = self.intern_two_pass(path[i], path[i + 1], now_ns);
                self.slots[id as usize].state.fold_delay(DELAY_EWMA_NEW_EIGHTHS, sample_ns, now_ns);
            }
            let retention = self.qlen_retention_ns;
            for (i, r) in records.iter().enumerate() {
                let id = self.intern_two_pass(path[i + 1], path[i + 2], now_ns);
                self.slots[id as usize].state.fold_harvest(
                    r.max_qlen_pkts,
                    r.qlen_at_probe_pkts,
                    now_ns,
                    retention,
                );
            }
        }

        fn intern_two_pass(&mut self, from: NetNode, to: NetNode, now_ns: u64) -> EdgeId {
            let id = match self.find_slot(from, to) {
                Some(id) if self.slots[id as usize].live => id,
                found => self.learn(found, from, to, now_ns),
            };
            self.mark_dirty(id);
            id
        }
    }

    proptest! {
        /// The staircase answers every window exactly as the raw history
        /// does, after every harvest: equal, late and far-future
        /// timestamps, retention prunes included (fewer harvests than the
        /// hard cap, whose truncation the staircase deliberately drops).
        #[test]
        fn staircase_answers_every_window_like_the_raw_history(
            // (clock step — 4 = stand still, below 4 = step back —, depth)
            harvests in proptest::collection::vec((0u64..40, 0u32..12), 1..120),
            retention in 0u64..400,
        ) {
            let mut stair = EdgeState::new(0);
            let mut raw = RawHistory::default();
            let mut now = 1_000u64;
            for &(step, q) in &harvests {
                now = (now + step).saturating_sub(4);
                stair.fold_harvest(q, q / 2, now, retention);
                raw.push(now, q, retention);

                let h = &stair.qlen_history;
                prop_assert!(
                    h.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 > w[1].1),
                    "ts must ascend and depth descend strictly: {:?}", h
                );
                prop_assert!(h.len() <= raw.0.len());
                // An answer depends on `now - window` alone: sweep that
                // cutoff over every instant near a harvest, through a few
                // different `(now, window)` splits of it.
                for cutoff in raw.0.iter().flat_map(|&(ts, _)| [ts.saturating_sub(1), ts, ts + 1]) {
                    for window in [0, 7, retention, 10_000] {
                        prop_assert_eq!(
                            stair.windowed_max_qlen(cutoff + window, window),
                            raw.windowed_max(cutoff + window, window),
                            "cutoff {} window {} after {:?}", cutoff, window, raw.0
                        );
                    }
                }
                prop_assert_eq!(
                    stair.windowed_max_qlen(now, u64::MAX),
                    raw.windowed_max(now, u64::MAX)
                );
            }
        }

        /// The fused walk against the two-pass oracle over random probe
        /// streams — empty record stacks, repeated switches (self-edges
        /// and cycles), relayed terminals, late timestamps — interleaved
        /// with evictions, so edges die, revive and re-register their
        /// switches. Everything but `metrics_generation` (a change key:
        /// once per edge here, once per resolve there) must agree.
        #[test]
        fn fused_walk_matches_two_pass_reference(
            ops in proptest::collection::vec(
                // (origin, terminal, switch chain, clock step, evict?)
                (0u32..4, 0u32..3, proptest::collection::vec(0u32..5, 0..5), 0u64..300, 0u8..6),
                1..40,
            ),
        ) {
            const MS: u64 = 1_000_000;
            let (mut fused, mut oracle) = (NetworkMap::new(), NetworkMap::new());
            for m in [&mut fused, &mut oracle] {
                m.set_qlen_retention(500 * MS);
            }
            let mut now = 1_000 * MS;
            let (mut dirty_f, mut dirty_o) = (Vec::new(), Vec::new());
            for (seq, (origin, terminal, chain, step, kind)) in ops.iter().enumerate() {
                now = (now + step * MS).saturating_sub(20 * MS);
                if *kind == 0 {
                    prop_assert_eq!(
                        fused.evict_stale(now, 200 * MS),
                        oracle.evict_stale(now, 200 * MS)
                    );
                } else {
                    let mut p = ProbePayload::new(*origin, seq as u64, 0);
                    for (i, sw) in chain.iter().enumerate() {
                        p.int.push(rec(10 + sw, (seq as u32 * 7 + *sw) % 9, 1 + i as u64, 1_000));
                    }
                    fused.apply_probe(&p, 100 + terminal, now);
                    oracle.apply_probe_two_pass(&p, 100 + terminal, now);
                }
                prop_assert_eq!(
                    fused.edges().collect::<Vec<_>>(),
                    oracle.edges().collect::<Vec<_>>()
                );
                prop_assert_eq!(
                    fused.hosts().collect::<Vec<_>>(),
                    oracle.hosts().collect::<Vec<_>>()
                );
                prop_assert_eq!(
                    fused.switches().collect::<Vec<_>>(),
                    oracle.switches().collect::<Vec<_>>()
                );
                prop_assert_eq!(fused.topology_generation(), oracle.topology_generation());
                prop_assert_eq!(
                    fused.dead_edges().collect::<Vec<_>>(),
                    oracle.dead_edges().collect::<Vec<_>>()
                );
                if seq % 3 == 0 {
                    fused.take_dirty_into(&mut dirty_f);
                    oracle.take_dirty_into(&mut dirty_o);
                    prop_assert_eq!(&dirty_f, &dirty_o);
                }
            }
        }
    }

    #[test]
    fn delay_ewma_survives_near_max_samples() {
        // Regression: the EWMA blend `(8-w)*delay + w*sample` used to be
        // computed in u64 and wrapped once the smoothed delay passed
        // ~2.6e18 ns, ranking a saturated path as nearly free.
        let mut m = NetworkMap::new();
        let huge = u64::MAX / 2;
        let mk = |seq: u64| {
            let mut p = ProbePayload::new(1, seq, 0);
            p.int.push(IntRecord {
                switch_id: 10,
                ingress_port: 0,
                egress_port: 1,
                max_qlen_pkts: 0,
                qlen_at_probe_pkts: 0,
                link_latency_ns: huge,
                egress_ts_ns: 11_000_000,
            });
            p
        };
        m.apply_probe(&mk(1), 6, 21_000_000);
        m.apply_probe(&mk(2), 6, 22_000_000);
        let e = m.edge(NetNode::Host(1), NetNode::Switch(10)).expect("edge learned");
        assert!(
            e.delay_ns >= huge - 8 && e.delay_ns <= huge,
            "EWMA of two equal huge samples stays at the sample, got {}",
            e.delay_ns
        );
    }
}
