//! Immutable epoch snapshots of the scheduler control plane.
//!
//! **The serving stack.** Every ranking this crate hands out — from
//! [`SchedulerCore`](crate::sched::SchedulerCore) with its one scratch,
//! or from the N shards of [`crate::shard`] — is evaluated here, against
//! a [`SchedSnapshot`]: a frozen, `Send + Sync` copy of everything a
//! query needs, published by [`SnapshotPublisher`] whenever the live
//! [`NetworkMap`]'s topology or metrics generation (or the collector's
//! probe count) moves. The ingest half keeps mutating the map; queries
//! never touch it.
//!
//! A snapshot carries:
//!
//! * a CSR adjacency over dense node ids and ≥1-clamped traversal
//!   weights. Dense ids ascend in [`NetNode`] order and rows are sorted,
//!   so the Dijkstra's `(dist, id)` tie-break and relaxation order equal
//!   the reference [`NetworkMap::path`]'s — routes are byte-identical;
//! * per-arc *estimate* inputs: the unclamped effective link delay and
//!   the resolved queue-occupancy evidence (which directed edge answers
//!   for this arc under the direction-fallback policy, its harvest
//!   timestamps and windowed history) — resolved once at publish so
//!   query-time evaluation never touches the map;
//! * freshness/silence metadata: every known host (the candidate set)
//!   and every probe origin's last-receive time, so origin-silence
//!   exclusion is a pure function of the query's `now`.
//!
//! Queries evaluate against a per-shard [`SnapshotScratch`], so N shards
//! serve concurrently with zero shared mutable state. Serving is **tree
//! pricing**: one Dijkstra per distinct requester per epoch records the
//! shortest-path tree (settle order, each node's parent and parent arc)
//! in a flat per-epoch arena; each query sweeps that tree once, carrying
//! `(Σ link delay, Σ k·Q, min available bandwidth)` from parent to child,
//! and every candidate's estimate is a table read at its dense id — no
//! per-pair path is ever materialised. (`k_paths > 1` still resolves and
//! caches explicit k-path sets, because banning edges needs real paths.)
//! Two things keep a cold query cheap: degree-1 nodes (hosts, which hang
//! off one switch) settle as they are relaxed instead of passing through
//! the Dijkstra's heap, and a switch-tail arc's queue price — `k·Q` and
//! the available bandwidth at `Q` — is computed once per (snapshot, query
//! time) and memoized in the scratch, so a batch of queries sharing a
//! `now` evaluates each arc's queue evidence once.
//! The evaluation mirrors the reference [`Ranker`](crate::rank::Ranker)
//! over the live map decision-for-decision; the proptests here and in
//! `tests/` pin equality across churn, eviction, and faults.
//!
//! The only sanctioned divergence is [`Policy::Random`]: the reference
//! draws from one long-lived RNG stream, which cannot be reproduced when
//! queries are served concurrently. Snapshot evaluation derives an RNG
//! per query from `(seed, epoch, slot)` instead — deterministic for any
//! worker count, an equally uniform shuffle, but a different stream.

use crate::collector::IntCollector;
use crate::config::{CoreConfig, HopSignal};
use crate::map::{EdgeId, EdgeState, NetNode, NetworkMap};
use crate::rank::{ExcludeReason, Policy, RankOutcome, RankedServer, StaticDistances};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel for "no predecessor" in the SSSP scratch.
const NO_PREV: u32 = u32::MAX;

/// Source of [`SchedSnapshot::uid`]. `Relaxed` suffices: the value only
/// has to be unique, it publishes no other data.
static NEXT_SNAPSHOT_UID: AtomicU64 = AtomicU64::new(0);

fn next_uid() -> u64 {
    NEXT_SNAPSHOT_UID.fetch_add(1, Ordering::Relaxed)
}

/// Queue-occupancy evidence for one CSR arc, resolved at publish time.
///
/// Mirrors [`NetworkMap::effective_qlen`]: the forward directed edge
/// answers if it exists (even if its harvest is stale — staleness reads
/// as an empty queue, it does not fall through to the reverse edge);
/// otherwise the reverse edge answers.
#[derive(Debug, Clone, Copy)]
struct ArcQlen {
    /// When the answering edge's queue measurement was taken, ns.
    updated_ns: u64,
    /// Instantaneous occupancy at the probe (the ablation signal).
    at_probe_pkts: u32,
    /// Offset/length of this arc's harvest history in `qlen_hist`.
    hist_start: u32,
    hist_len: u32,
    /// Slot capacity reserved for this arc's run in `qlen_hist`: a full
    /// build reserves the run's length or the publisher's slot floor,
    /// whichever is larger, so incremental publishes can splice a longer
    /// run in place; a run outgrowing its slot forces a full rebuild.
    hist_cap: u32,
}

impl ArcQlen {
    /// Copy `e`'s queue evidence into this arc's slot of `qlen_hist`.
    /// `Err(run length)` when the run outgrew the slot.
    fn store(&mut self, e: &EdgeState, qlen_hist: &mut [(u64, u32)]) -> Result<(), usize> {
        let run = &e.qlen_history;
        if run.len() > self.hist_cap as usize {
            return Err(run.len());
        }
        let start = self.hist_start as usize;
        qlen_hist[start..start + run.len()].copy_from_slice(run);
        self.hist_len = run.len() as u32;
        self.updated_ns = e.qlen_updated_ns;
        self.at_probe_pkts = e.qlen_at_probe_pkts;
        Ok(())
    }
}

/// "No such arc / no such edge" in the [`CsrTopo`] edge↔arc tables.
const NONE: u32 = u32::MAX;

/// The structural half of a snapshot: CSR adjacency, the candidate host
/// universe, and the tables tying CSR arcs to the map's interned edges.
/// Immutable — and the tables valid — for exactly as long as the map's
/// `topo_gen` holds (any intern, revival or eviction moves it), so
/// consecutive incremental epochs share one allocation via `Arc`.
#[derive(Debug)]
struct CsrTopo {
    /// All nodes in ascending `NetNode` order; index = dense id.
    nodes: Vec<NetNode>,
    /// CSR row offsets (`nodes.len() + 1` entries).
    row: Vec<u32>,
    /// CSR columns (neighbour dense ids, sorted per row).
    cols: Vec<u32>,
    /// Every known host, ascending — the candidate universe. Hosts sort
    /// before switches, so `hosts[i]`'s dense id is `i`.
    hosts: Vec<u32>,
    /// `EdgeId` → the arcs `[a → b, b → a]` that read the directed edge
    /// `a → b` (directly, and through the reverse-direction fallback);
    /// `NONE` for ids that were dead at the freeze.
    edge_arcs: Vec<[u32; 2]>,
    /// Arc `u → v` → `[the edge u → v, the edge v → u]`, `NONE` where
    /// that direction was never probed: what pricing the arc reads.
    arc_edges: Vec<[EdgeId; 2]>,
}

impl CsrTopo {
    /// Freeze `map`'s structure. Each directed edge contributes both arc
    /// orientations; `(a, b)` and `(b, a)` probed separately collapse.
    fn build(map: &NetworkMap) -> Self {
        let hosts: Vec<u32> = map.hosts().collect();
        let mut nodes: Vec<NetNode> = hosts.iter().map(|&h| NetNode::Host(h)).collect();
        nodes.extend(map.switches().map(NetNode::Switch));
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "dense ids must be sorted");
        let id = |n: NetNode| nodes.binary_search(&n).expect("edge endpoints are known nodes") as u32;

        let edges: Vec<(EdgeId, u32, u32)> = (0..map.interned_edges() as EdgeId)
            .filter_map(|e| map.edge_by_id(e).map(|(a, b, _)| (e, id(a), id(b))))
            .collect();
        let mut arcs: Vec<(u32, u32)> =
            edges.iter().flat_map(|&(_, a, b)| [(a, b), (b, a)]).collect();
        arcs.sort_unstable();
        arcs.dedup();

        let mut row = vec![0u32; nodes.len() + 1];
        for &(u, _) in &arcs {
            row[u as usize + 1] += 1;
        }
        for i in 1..row.len() {
            row[i] += row[i - 1];
        }

        let arc = |u, v| arcs.binary_search(&(u, v)).expect("both orientations are arcs") as u32;
        let mut edge_arcs = vec![[NONE; 2]; map.interned_edges()];
        let mut arc_edges = vec![[NONE; 2]; arcs.len()];
        for &(e, a, b) in &edges {
            let pair = [arc(a, b), arc(b, a)];
            edge_arcs[e as usize] = pair;
            arc_edges[pair[0] as usize][0] = e;
            arc_edges[pair[1] as usize][1] = e;
        }
        let cols = arcs.iter().map(|&(_, v)| v).collect();
        CsrTopo { nodes, row, cols, hosts, edge_arcs, arc_edges }
    }
}

/// The edge that answers for one arc, given its `[forward, reverse]` edge
/// ids from [`CsrTopo::arc_edges`]: its delay is the arc's unclamped
/// effective link delay ([`NetworkMap::effective_delay_ns`]) and its queue
/// evidence the arc's (see [`ArcQlen`]). Full and incremental builds both
/// price through here.
fn price_arc(map: &NetworkMap, [fwd, rev]: [EdgeId; 2]) -> &EdgeState {
    let state = |id| map.edge_by_id(id).map(|(_, _, e)| e);
    state(fwd)
        .or_else(|| state(rev))
        .expect("every CSR arc is an orientation of a live edge")
}

/// One frozen epoch of the scheduler control plane. Immutable and
/// `Send + Sync`: any number of shards may evaluate queries against it
/// concurrently, each with its own [`SnapshotScratch`].
#[derive(Debug)]
pub struct SchedSnapshot {
    /// Process-unique identity of this built snapshot. A scratch binds
    /// to it, not to `epoch`: two snapshots may share an epoch number
    /// (two schedulers, or a rebuilt epoch) yet freeze different graphs.
    /// Never reaches an outcome.
    uid: u64,
    epoch: u64,
    published_at_ns: u64,
    cfg: Arc<CoreConfig>,
    distances: Arc<StaticDistances>,
    /// Base seed for the per-query Random-policy RNG derivation.
    seed: u64,
    /// Structure (nodes/adjacency/hosts), shared across incremental
    /// epochs while the map's topology generation holds.
    topo: Arc<CsrTopo>,
    /// Map topology generation this snapshot's structure was frozen at;
    /// the publisher's incremental path requires it unchanged.
    topo_gen: u64,
    /// Identity of the `qlen_hist` slot layout (bumped per full build);
    /// two snapshots with equal `layout_gen` share slot offsets/caps.
    layout_gen: u64,
    /// ≥1-clamped traversal weight per arc (parallel to `cols`).
    weights: Vec<u64>,
    /// Unclamped effective link delay per arc — the estimate's per-link
    /// term (`effective_delay_ns`, *without* the traversal `.max(1)`
    /// clamp).
    est_delay: Vec<u64>,
    /// Queue evidence per arc (parallel to `cols`).
    arc_q: Vec<ArcQlen>,
    /// Flat slotted storage for all arcs' harvest histories (runs padded
    /// to their slot capacity).
    qlen_hist: Vec<(u64, u32)>,
    /// `(origin, last_rx_ns)` per probe origin with ≥1 probe, ascending.
    origins: Vec<(u32, u64)>,
}

impl SchedSnapshot {
    /// Freeze the current state of `collector`'s map into an immutable
    /// epoch, from scratch.
    pub fn build(
        collector: &IntCollector,
        cfg: &Arc<CoreConfig>,
        distances: &Arc<StaticDistances>,
        seed: u64,
        epoch: u64,
        published_at_ns: u64,
    ) -> Self {
        let topo = Arc::new(CsrTopo::build(collector.map()));
        Self::build_full(collector, topo, cfg, distances, seed, epoch, published_at_ns, 0, 0)
    }

    /// The full (re)build: price every arc of `topo` (which must freeze
    /// the map's current structure) from the live map, giving each arc
    /// with queue evidence a history slot of at least `slot_floor`
    /// entries. `layout_gen` identifies the slot layout this creates.
    #[allow(clippy::too_many_arguments)]
    fn build_full(
        collector: &IntCollector,
        topo: Arc<CsrTopo>,
        cfg: &Arc<CoreConfig>,
        distances: &Arc<StaticDistances>,
        seed: u64,
        epoch: u64,
        published_at_ns: u64,
        slot_floor: u32,
        layout_gen: u64,
    ) -> Self {
        let map = collector.map();
        let arcs = topo.cols.len();
        let mut weights = Vec::with_capacity(arcs);
        let mut est_delay = Vec::with_capacity(arcs);
        let mut arc_q = Vec::with_capacity(arcs);
        let mut qlen_hist = Vec::with_capacity(arcs * slot_floor as usize);
        for &edges in &topo.arc_edges {
            let e = price_arc(map, edges);
            est_delay.push(e.delay_ns);
            weights.push(e.delay_ns.max(1));
            let hist_start = qlen_hist.len() as u32;
            let hist_cap = (e.qlen_history.len() as u32).max(slot_floor);
            let mut q =
                ArcQlen { updated_ns: 0, at_probe_pkts: 0, hist_start, hist_len: 0, hist_cap };
            // Slack beyond the run is inert padding.
            qlen_hist.resize((hist_start + hist_cap) as usize, (0, 0));
            q.store(e, &mut qlen_hist).expect("the slot was sized for the run");
            arc_q.push(q);
        }

        SchedSnapshot {
            uid: next_uid(),
            epoch,
            published_at_ns,
            cfg: Arc::clone(cfg),
            distances: Arc::clone(distances),
            seed,
            topo,
            topo_gen: map.topology_generation(),
            layout_gen,
            weights,
            est_delay,
            arc_q,
            qlen_hist,
            origins: collector
                .origin_stats_all()
                .filter(|(_, st)| st.received > 0)
                .map(|(o, st)| (o, st.last_rx_ns))
                .collect(),
        }
    }

    /// Semantic equality of everything a query can observe: structure,
    /// weights, delays, origins, and per-arc queue evidence with history
    /// *runs* compared by content. (Byte-comparing `qlen_hist` directly
    /// would also compare slot padding, which legitimately differs
    /// between a fresh full build and an incrementally patched epoch.)
    pub fn content_eq(&self, other: &SchedSnapshot) -> bool {
        self.epoch == other.epoch
            && self.published_at_ns == other.published_at_ns
            && self.seed == other.seed
            && self.topo.nodes == other.topo.nodes
            && self.topo.row == other.topo.row
            && self.topo.cols == other.topo.cols
            && self.topo.hosts == other.topo.hosts
            && self.weights == other.weights
            && self.est_delay == other.est_delay
            && self.origins == other.origins
            && self.arc_q.len() == other.arc_q.len()
            && self.arc_q.iter().zip(&other.arc_q).all(|(a, b)| {
                a.updated_ns == b.updated_ns
                    && a.at_probe_pkts == b.at_probe_pkts
                    && self.hist_run(a) == other.hist_run(b)
            })
    }

    /// The live entries of one arc's history slot (padding excluded).
    fn hist_run(&self, a: &ArcQlen) -> &[(u64, u32)] {
        &self.qlen_hist[a.hist_start as usize..(a.hist_start + a.hist_len) as usize]
    }

    /// The epoch counter this snapshot was published as.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Collector-clock time this snapshot was published at, ns.
    pub fn published_at_ns(&self) -> u64 {
        self.published_at_ns
    }

    /// Directed arcs in the frozen graph. Diagnostic: the slot-floor test
    /// below bounds history reservation by it.
    pub fn arc_count(&self) -> usize {
        self.topo.cols.len()
    }

    /// Candidate hosts known to this epoch, ascending.
    pub fn hosts(&self) -> &[u32] {
        &self.topo.hosts
    }

    /// Rank for `requester` under `policy`, evaluated purely against this
    /// snapshot. `slot` is the query's pre-assigned batch slot (it seeds
    /// the Random-policy shuffle, so results are independent of which
    /// shard serves the slot). Decision-for-decision identical to the
    /// reference [`Ranker::answer`](crate::rank::Ranker::answer) over the
    /// map state this epoch froze, at the same `now_ns` (except
    /// `Policy::Random`, see the module docs).
    pub fn rank_detailed(
        &self,
        scratch: &mut SnapshotScratch,
        requester: u32,
        policy: Policy,
        now_ns: u64,
        slot: u64,
    ) -> RankOutcome {
        let mut out = RankOutcome::default();
        self.rank_detailed_into(scratch, requester, policy, now_ns, slot, &mut out);
        out
    }

    /// [`SchedSnapshot::rank_detailed`] into a caller-owned outcome (the
    /// zero-alloc steady-state path).
    pub fn rank_detailed_into(
        &self,
        scratch: &mut SnapshotScratch,
        requester: u32,
        policy: Policy,
        now_ns: u64,
        slot: u64,
        out: &mut RankOutcome,
    ) {
        scratch.bind(self);
        scratch.stats.queries += 1;
        out.ranked.clear();
        out.excluded.clear();

        // Resolve the requester once. Single-path serving prices its whole
        // shortest-path tree up front; every candidate is then a table read.
        let from = self.node_id(NetNode::Host(requester));
        if self.cfg.k_paths <= 1 {
            if let Some(from) = from {
                self.price_tree(scratch, from, now_ns);
            }
        }

        // Candidate set: every known host except the requester (paper §IV:
        // all nodes can execute tasks unless they are the submitter), with
        // its dense id.
        let topo = &*self.topo;
        let candidates =
            topo.hosts.iter().zip(0u32..).filter(|&(&host, _)| host != requester);
        out.ranked.reserve(topo.hosts.len());

        if matches!(policy, Policy::Nearest | Policy::Random) {
            for (&host, to) in candidates {
                out.ranked.push(self.estimate(scratch, from, host, to, now_ns));
            }
            self.sort(scratch, &mut out.ranked, requester, policy, slot);
            return;
        }

        let mut pathless = std::mem::take(&mut scratch.pathless);
        pathless.clear();
        // Origin silence is `IntCollector::silent_origins` membership, a
        // pure function of the frozen origin table and the query `now`;
        // hosts and origins both ascend, so one merged walk answers it.
        let mut origins = self.origins.iter().peekable();
        for (&host, to) in candidates {
            while origins.next_if(|&&(o, _)| o < host).is_some() {}
            let silent = origins.peek().is_some_and(|&&(o, last_rx_ns)| {
                o == host && now_ns.saturating_sub(last_rx_ns) > self.cfg.origin_silence_ns
            });
            if silent {
                out.excluded.push((host, ExcludeReason::OriginSilent));
                continue;
            }
            let est = self.estimate(scratch, from, host, to, now_ns);
            if est.est_delay_ns == u64::MAX {
                out.excluded.push((host, ExcludeReason::NoFreshPath));
                pathless.push(est);
            } else {
                out.ranked.push(est);
            }
        }

        if out.ranked.is_empty()
            && out.excluded.iter().all(|(_, r)| *r == ExcludeReason::NoFreshPath)
        {
            // Warm-up, not failure: rank the pathless estimates instead.
            out.ranked.extend_from_slice(&pathless);
            out.excluded.clear();
        } else {
            out.excluded.sort_unstable_by_key(|(h, _)| *h);
        }
        self.sort(scratch, &mut out.ranked, requester, policy, slot);
        scratch.pathless = pathless;
    }

    /// Estimate one candidate (`to` is `host`'s dense id) with the frozen
    /// per-arc delay and queue evidence — the same numbers the live
    /// estimators produce against the map state this snapshot froze.
    /// Single-path serving reads the table [`Self::price_tree`] just
    /// filled. With `k_paths > 1`, resolve the whole k-set
    /// (route-identical to [`NetworkMap::k_paths`]) and report the
    /// cheapest path's figures, ties breaking to the lowest path index —
    /// exactly the reference `Ranker::estimate` rule.
    fn estimate(
        &self,
        scratch: &mut SnapshotScratch,
        from: Option<u32>,
        host: u32,
        to: u32,
        now_ns: u64,
    ) -> RankedServer {
        let pathless = RankedServer { host, est_delay_ns: u64::MAX, est_bandwidth_bps: 0 };
        let Some(from) = from else { return pathless };
        if self.cfg.k_paths <= 1 {
            return scratch.table[to as usize].map_or(pathless, |p| {
                let (est_delay_ns, est_bandwidth_bps) = p.finish();
                RankedServer { host, est_delay_ns, est_bandwidth_bps }
            });
        }

        if !self.ensure_k_paths(scratch, from, to) {
            return pathless;
        }
        let kset = scratch.kcache.get(&(from, to)).expect("just ensured");
        let mut best_delay = u64::MAX;
        let mut best_bw = 0;
        for path in kset {
            let (d, bw) = self.price_path(&mut scratch.hops, path, now_ns);
            if d < best_delay {
                best_delay = d;
                best_bw = bw;
            }
        }
        RankedServer { host, est_delay_ns: best_delay, est_bandwidth_bps: best_bw }
    }

    /// Fold the `u → ·` arc `ai` onto a route's running figures, mirroring
    /// one step of `DelayEstimator`/`BandwidthEstimator::estimate_along`
    /// — including their saturating arithmetic (8+-hop fabric paths with
    /// saturated link estimates must pin at the ceiling, not wrap). Both
    /// the tree sweep and [`Self::price_path`] price through this one
    /// step, source → leaf, which is what makes them bit-identical; a
    /// switch-tail arc's `(k·Q, available bandwidth)` comes from `hops`,
    /// priced at its current query time.
    fn fold_arc(&self, hops: &mut HopMemo, acc: &mut Priced, u: u32, ai: usize) {
        acc.link_delay_ns = acc.link_delay_ns.saturating_add(self.est_delay[ai]);
        if matches!(self.topo.nodes[u as usize], NetNode::Switch(_)) {
            let (hop_ns, bw_bps) = self.hop_price(hops, ai);
            acc.hop_delay_ns = acc.hop_delay_ns.saturating_add(hop_ns);
            acc.bottleneck_bps = acc.bottleneck_bps.min(bw_bps);
        }
    }

    /// Arc `ai`'s `(k·Q saturating, available_bw_for_qlen(Q))` at the
    /// memo's query time, `Q` its effective queue length: computed on the
    /// first ask per (snapshot, query time), a memo read after that.
    fn hop_price(&self, hops: &mut HopMemo, ai: usize) -> (u64, u64) {
        let entry = &mut hops.arcs[ai];
        if entry.0 != hops.stamp {
            let q = self.arc_qlen(ai, hops.now_ns);
            let hop_ns = self.cfg.k_ns_per_pkt.saturating_mul(q as u64);
            *entry = (hops.stamp, hop_ns, self.cfg.available_bw_for_qlen(q));
        }
        (entry.1, entry.2)
    }

    /// Price every node reachable from `from` into `scratch.table`: one
    /// forward sweep over the source's shortest-path tree in settle order
    /// (a parent always settles before its children), each tree arc
    /// folded exactly once onto its parent's figures.
    fn price_tree(&self, scratch: &mut SnapshotScratch, from: u32, now_ns: u64) {
        let (start, end) = self.ensure_tree(scratch, from);
        let SnapshotScratch { table, arena, hops, .. } = scratch;
        hops.at(now_ns);
        table.clear();
        table.resize(self.topo.nodes.len(), None);
        table[from as usize] = Some(Priced::at_source(&self.cfg));
        for t in &arena[start + 1..end] {
            let mut acc = table[t.parent as usize].expect("parents settle before children");
            self.fold_arc(hops, &mut acc, t.parent, t.arc as usize);
            table[t.node as usize] = Some(acc);
        }
    }

    /// The arena range of `source`'s shortest-path tree, growing it with
    /// one Dijkstra the first time the source is asked this epoch.
    fn ensure_tree(&self, scratch: &mut SnapshotScratch, source: u32) -> (usize, usize) {
        let known = scratch.tree_of[source as usize];
        if known.1 > known.0 {
            scratch.stats.cache_hits += 1;
            return known;
        }
        scratch.stats.cache_misses += 1;
        scratch.stats.sssp_runs += 1;
        let SnapshotScratch { sssp, arena, .. } = scratch;
        let start = arena.len();
        self.dijkstra(sssp, source, None, |_| false, |t| arena.push(t));
        scratch.sssp_source = Some(source);
        let grown = (start, arena.len());
        scratch.tree_of[source as usize] = grown;
        grown
    }

    /// Price one explicit dense-id path (the `k_paths > 1` route, and the
    /// reference the tree sweep is tested against): the arcs folded
    /// source → leaf through [`Self::fold_arc`].
    fn price_path(&self, hops: &mut HopMemo, path: &[u32], now_ns: u64) -> (u64, u64) {
        hops.at(now_ns);
        let mut acc = Priced::at_source(&self.cfg);
        for w in path.windows(2) {
            let ai = self.arc_index(w[0], w[1]).expect("path arcs exist in the CSR");
            self.fold_arc(hops, &mut acc, w[0], ai);
        }
        acc.finish()
    }

    /// Resolve (and cache) the k-path set for `from → to` into the
    /// scratch, mirroring [`NetworkMap::k_paths`]: first path from the
    /// shared SSSP, successors from masked Dijkstra runs with the
    /// previous paths' interior switch–switch edges banned, stopping on
    /// no-path or a duplicate. Returns false when disconnected (cached as
    /// an empty set).
    fn ensure_k_paths(&self, scratch: &mut SnapshotScratch, from: u32, to: u32) -> bool {
        if let Some(kset) = scratch.kcache.get(&(from, to)) {
            scratch.stats.cache_hits += 1;
            return !kset.is_empty();
        }
        scratch.stats.cache_misses += 1;
        let mut out: Vec<Vec<u32>> = Vec::new();
        // First path straight off the shared SSSP into the cache-owned Vec.
        self.ensure_sssp(scratch, from);
        let mut first = Vec::new();
        if extract_path_into(&scratch.sssp, from, to, &mut first) {
            out.push(first);
            scratch.arc_mask.clear();
            scratch.arc_mask.resize(self.topo.cols.len(), false);
            for _ in 1..self.cfg.k_paths {
                let last = out.last().expect("non-empty");
                self.ban_interior_edges(scratch, last);
                let Some(p) = self.masked_path(scratch, from, to) else { break };
                if out.contains(&p) {
                    break;
                }
                out.push(p);
            }
        }
        let ok = !out.is_empty();
        scratch.kcache.insert((from, to), out);
        ok
    }

    /// Mask both arc directions of every interior switch–switch edge of
    /// a path (host attachment edges are never banned).
    fn ban_interior_edges(&self, scratch: &mut SnapshotScratch, path: &[u32]) {
        for w in path.windows(2) {
            let (u, v) = (w[0], w[1]);
            if matches!(self.topo.nodes[u as usize], NetNode::Switch(_))
                && matches!(self.topo.nodes[v as usize], NetNode::Switch(_))
            {
                for (a, b) in [(u, v), (v, u)] {
                    if let Some(ai) = self.arc_index(a, b) {
                        scratch.arc_mask[ai] = true;
                    }
                }
            }
        }
    }

    /// Point-to-point shortest path honouring `scratch.arc_mask`, over
    /// the masked buffers — never the shared SSSP's, so the memoized
    /// first-path state survives. Tie-breaks equal the shared SSSP's.
    fn masked_path(&self, scratch: &mut SnapshotScratch, from: u32, to: u32) -> Option<Vec<u32>> {
        let SnapshotScratch { masked, arc_mask, .. } = scratch;
        self.dijkstra(masked, from, Some(to), |ai| arc_mask[ai], |_| {});
        let mut path = Vec::new();
        extract_path_into(masked, from, to, &mut path).then_some(path)
    }

    /// Make `scratch.sssp` describe `source`, reusing it while consecutive
    /// k-set misses or [`Self::path`] calls share the source.
    fn ensure_sssp(&self, scratch: &mut SnapshotScratch, source: u32) {
        if scratch.sssp_source == Some(source) {
            return;
        }
        scratch.stats.sssp_runs += 1;
        self.dijkstra(&mut scratch.sssp, source, None, |_| false, |_| {});
        scratch.sssp_source = Some(source);
    }

    /// The one Dijkstra of the serving stack: same weights and tie-breaks
    /// as the reference `NetworkMap::path` (see the module docs), which
    /// exits when its target pops while this may run to completion — the
    /// extracted paths agree because a popped node's parent is final
    /// (weights are ≥ 1). Arcs for which `banned` holds are skipped;
    /// with a `target` the run stops once that node settles. `settled`
    /// sees every node as it settles, with its final parent and parent
    /// arc (`NO_PREV` for the source): weights are ≥ 1, so that order
    /// lists every parent before its children.
    ///
    /// A node with exactly one CSR arc — a host on its one switch —
    /// settles the moment it is relaxed and never enters the heap. That
    /// is exact: rows are symmetric, so its one arc out mirrors its one
    /// arc in, whose tail `u` is being settled; `dist[u] + w` can never
    /// improve again, there is no tie to break, and the node can relax
    /// nothing (its only neighbour is final), so it is never an interior
    /// node of a route. `dist`, `prev` and every extracted path equal the
    /// heap-only run's; only the settle order moves, still parent first.
    /// A banned in-arc leaves the node unreached, and a relaxation to
    /// `u64::MAX` never fires (strict `<`), so neither settles it.
    fn dijkstra(
        &self,
        sp: &mut Sssp,
        source: u32,
        target: Option<u32>,
        banned: impl Fn(usize) -> bool,
        mut settled: impl FnMut(TreeArc),
    ) {
        let topo = &*self.topo;
        let n = topo.nodes.len();
        sp.dist.clear();
        sp.dist.resize(n, u64::MAX);
        sp.prev.clear();
        sp.prev.resize(n, (NO_PREV, NO_PREV));
        sp.heap.clear();
        // At most one push per arc plus the source: sized once, the heap
        // never reallocates however the next source's frontier differs.
        sp.heap.reserve(topo.cols.len() + 1);

        sp.dist[source as usize] = 0;
        sp.heap.push(Reverse((0, source)));
        'run: while let Some(Reverse((d, u))) = sp.heap.pop() {
            if sp.dist[u as usize] < d {
                continue; // stale heap entry
            }
            let (parent, arc) = sp.prev[u as usize];
            settled(TreeArc { node: u, parent, arc });
            if target == Some(u) {
                break;
            }
            for i in topo.row[u as usize] as usize..topo.row[u as usize + 1] as usize {
                if banned(i) {
                    continue;
                }
                let v = topo.cols[i];
                let nd = d.saturating_add(self.weights[i]);
                if nd < sp.dist[v as usize] {
                    sp.dist[v as usize] = nd;
                    sp.prev[v as usize] = (u, i as u32);
                    if topo.row[v as usize + 1] - topo.row[v as usize] == 1 {
                        settled(TreeArc { node: v, parent: u, arc: i as u32 });
                        if target == Some(v) {
                            break 'run;
                        }
                    } else {
                        sp.heap.push(Reverse((nd, v)));
                    }
                }
            }
        }
        sp.heap.clear(); // early exit can leave stale entries behind
    }

    /// The route serving prices from `from` to `to` — the single path, or
    /// the first of the k-set — endpoints included; `None` when either end
    /// is unknown or they are disconnected. Diagnostics and tests: agrees
    /// with [`NetworkMap::path`] on the map state this epoch froze.
    pub fn path(
        &self,
        scratch: &mut SnapshotScratch,
        from: NetNode,
        to: NetNode,
    ) -> Option<Vec<NetNode>> {
        if from == to {
            return Some(vec![from]); // needs no map knowledge, as in the reference
        }
        scratch.bind(self);
        let (from, to) = (self.node_id(from)?, self.node_id(to)?);
        self.ensure_sssp(scratch, from);
        let mut ids = Vec::new();
        extract_path_into(&scratch.sssp, from, to, &mut ids)
            .then(|| ids.iter().map(|&i| self.topo.nodes[i as usize]).collect())
    }

    /// Dense id of a node, if it is part of the snapshot.
    fn node_id(&self, n: NetNode) -> Option<u32> {
        self.topo.nodes.binary_search(&n).ok().map(|i| i as u32)
    }

    /// Index of the `u → v` arc in the CSR (binary search within the row).
    fn arc_index(&self, u: u32, v: u32) -> Option<usize> {
        let start = self.topo.row[u as usize] as usize;
        let end = self.topo.row[u as usize + 1] as usize;
        self.topo.cols[start..end].binary_search(&v).ok().map(|i| start + i)
    }

    /// Effective queue length of an arc at `now_ns` — the frozen-evidence
    /// equivalent of [`NetworkMap::effective_qlen`].
    fn arc_qlen(&self, ai: usize, now_ns: u64) -> u32 {
        let a = self.arc_q[ai];
        if now_ns.saturating_sub(a.updated_ns) > self.cfg.staleness_ns {
            return 0; // stale measurements read as an empty queue
        }
        match self.cfg.hop_signal {
            HopSignal::MaxQueue => {
                let cutoff = now_ns.saturating_sub(self.cfg.qlen_window_ns);
                let start = a.hist_start as usize;
                self.qlen_hist[start..start + a.hist_len as usize]
                    .iter()
                    .filter(|(ts, _)| *ts >= cutoff)
                    .map(|(_, q)| *q)
                    .max()
                    .unwrap_or(0)
            }
            HopSignal::InstantaneousQueue => a.at_probe_pkts,
        }
    }

    /// Order `out` best-first — the reference `Ranker::sort` keys, with the
    /// Random shuffle drawn from the per-query derived RNG. `out` arrives
    /// ascending by host (candidate order).
    fn sort(
        &self,
        scratch: &mut SnapshotScratch,
        out: &mut [RankedServer],
        requester: u32,
        policy: Policy,
        slot: u64,
    ) {
        match policy {
            Policy::IntDelay => {
                out.sort_unstable_by_key(|s| (s.est_delay_ns, s.host));
            }
            Policy::IntBandwidth => {
                out.sort_unstable_by_key(|s| {
                    (Reverse(s.est_bandwidth_bps), s.est_delay_ns, s.host)
                });
            }
            Policy::Nearest => {
                // Key = (static distance or MAX, host). One merge of the
                // requester's ascending distance row against the ascending
                // candidates finds every distance; the sort then compares
                // precomputed keys instead of probing the table.
                debug_assert!(out.windows(2).all(|w| w[0].host < w[1].host));
                let keyed = &mut scratch.nearest;
                keyed.clear();
                let mut row = self.distances.row(requester).peekable();
                for s in out.iter() {
                    while row.next_if(|&(h, _)| h < s.host).is_some() {}
                    let hops = row.next_if(|&(h, _)| h == s.host).map_or(u32::MAX, |(_, d)| d);
                    keyed.push((hops, *s));
                }
                keyed.sort_unstable_by_key(|&(hops, s)| (hops, s.host));
                for (dst, &(_, s)) in out.iter_mut().zip(keyed.iter()) {
                    *dst = s;
                }
            }
            Policy::Random => {
                let mut rng = SmallRng::seed_from_u64(mix(
                    self.seed ^ mix(self.epoch) ^ mix(slot.wrapping_add(0x9E37_79B9)),
                ));
                out.shuffle(&mut rng);
            }
        }
    }
}

/// Walk an SSSP's predecessor chain into `out` (endpoints included,
/// forward order). `sp` must describe `from` and have settled `to` if it
/// is reachable. Returns false (clearing `out`) when unreachable.
fn extract_path_into(sp: &Sssp, from: u32, to: u32, out: &mut Vec<u32>) -> bool {
    out.clear();
    if sp.dist[to as usize] == u64::MAX {
        return false;
    }
    let mut cur = to;
    out.push(cur);
    loop {
        if cur == from {
            out.reverse();
            return true;
        }
        cur = sp.prev[cur as usize].0;
        if cur == NO_PREV {
            out.clear();
            return false;
        }
        out.push(cur);
    }
}

/// One settled node of a shortest-path tree: the node, its parent, and
/// the CSR arc `parent → node` (12 B; both `NO_PREV` at the source).
#[derive(Debug, Clone, Copy)]
struct TreeArc {
    node: u32,
    parent: u32,
    arc: u32,
}

/// A route's running figures, folded arc by arc from the source.
#[derive(Debug, Clone, Copy)]
struct Priced {
    link_delay_ns: u64,
    hop_delay_ns: u64,
    bottleneck_bps: u64,
}

impl Priced {
    /// The empty route at the source itself.
    fn at_source(cfg: &CoreConfig) -> Self {
        Priced { link_delay_ns: 0, hop_delay_ns: 0, bottleneck_bps: cfg.link_capacity_bps }
    }

    /// `(est_delay_ns, est_bandwidth_bps)`. The `u64::MAX - 1` clamp keeps
    /// reachable totals distinct from the no-fresh-path sentinel.
    fn finish(self) -> (u64, u64) {
        (
            self.link_delay_ns.saturating_add(self.hop_delay_ns).min(u64::MAX - 1),
            self.bottleneck_bps,
        )
    }
}

/// Dijkstra working set, reused across runs.
#[derive(Debug, Default)]
struct Sssp {
    dist: Vec<u64>,
    /// `(parent node, parent arc)`; `NO_PREV` at the source and wherever
    /// the run did not reach.
    prev: Vec<(u32, u32)>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

/// Per-arc queue prices for one (snapshot, query time), without an
/// O(arcs) clear when either moves: an entry counts only while its stamp
/// is the current one, and the stamp moves on every rebind and every new
/// query time. 24 B per arc, sized once per snapshot (capacity kept).
#[derive(Debug, Default)]
struct HopMemo {
    /// Current stamp; never 0 once bound, so fresh entries never count.
    stamp: u64,
    /// The query time entries with the current stamp were priced at.
    now_ns: u64,
    /// Per arc: `(stamp, k·Q saturating, available_bw_for_qlen(Q))`,
    /// written for switch-tail arcs only.
    arcs: Vec<(u64, u64, u64)>,
}

impl HopMemo {
    /// A new snapshot with `arcs` arcs: forget every entry.
    fn rebind(&mut self, arcs: usize) {
        self.stamp += 1;
        self.arcs.resize(arcs, (0, 0, 0));
    }

    /// Price at `now_ns` from here on: entries of another time lapse.
    fn at(&mut self, now_ns: u64) {
        if self.now_ns != now_ns {
            self.now_ns = now_ns;
            self.stamp += 1;
        }
    }
}

/// SplitMix64's finalizer: a cheap, well-distributed u64 → u64 mix for
/// deriving per-query RNG seeds from `(seed, epoch, slot)`.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Serving counters for one shard's scratch (diagnostics and tests).
///
/// `cache_hits` / `cache_misses` count lookups of whatever the scratch
/// keeps per epoch. With `k_paths == 1` that is one shortest-path-tree
/// lookup per query whose requester is a known host: a miss is exactly
/// one Dijkstra (so `cache_misses == sssp_runs`), a hit reuses the tree
/// an earlier query of the same requester grew this epoch. With
/// `k_paths > 1` it is one k-path-set lookup per (query, candidate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotServeStats {
    /// Queries evaluated through this scratch.
    pub queries: u64,
    /// Shared (unmasked) single-source Dijkstra runs.
    pub sssp_runs: u64,
    /// Tree (`k_paths == 1`) or k-set (`k_paths > 1`) lookups that hit.
    pub cache_hits: u64,
    /// Tree or k-set lookups that missed.
    pub cache_misses: u64,
}

/// Per-shard mutable state for evaluating queries against a
/// [`SchedSnapshot`]: the reusable Dijkstra buffers, this epoch's
/// shortest-path trees, the per-query price table and the per-arc queue
/// prices of the last query time. One scratch must only ever be used by
/// one thread at a time (each shard owns its own); it revalidates itself
/// against the snapshot's identity on every query, so handing it any
/// sequence of snapshots — advancing epochs, or different schedulers' —
/// is safe and cheap. Nothing here is freed on an epoch move (`clear()`
/// keeps capacity), so steady churn serving does not allocate.
#[derive(Debug, Default)]
pub struct SnapshotScratch {
    /// [`SchedSnapshot::uid`] the per-epoch state below belongs to.
    bound: Option<u64>,
    /// Shared (unmasked) Dijkstra buffers.
    sssp: Sssp,
    /// The source `sssp` currently describes.
    sssp_source: Option<u32>,
    /// `k_paths == 1`: every tree grown this epoch, each in settle order
    /// (source first), back to back. Bounded by sources asked this epoch
    /// × reachable nodes × 12 B.
    arena: Vec<TreeArc>,
    /// Dense source id → its tree's `arena` range (empty = not grown).
    tree_of: Vec<(usize, usize)>,
    /// The current query's priced routes by dense node id (`None` =
    /// unreachable from the requester).
    table: Vec<Option<Priced>>,
    /// Switch-tail arcs' queue prices at the last priced query time.
    hops: HopMemo,
    /// Nearest-policy sort keys: `(static distance, estimate)`.
    nearest: Vec<(u32, RankedServer)>,
    /// `(from, to)` → cached k-path set (empty = unreachable); used only
    /// when `k_paths > 1`.
    kcache: BTreeMap<(u32, u32), Vec<Vec<u32>>>,
    /// Per-arc ban mask for successive-exclusion runs.
    arc_mask: Vec<bool>,
    /// Masked-Dijkstra buffers, separate from the shared SSSP's.
    masked: Sssp,
    pathless: Vec<RankedServer>,
    stats: SnapshotServeStats,
}

impl SnapshotScratch {
    /// Fresh scratch (typically one per shard).
    pub fn new() -> Self {
        Self::default()
    }

    /// Serving counters.
    pub fn stats(&self) -> SnapshotServeStats {
        self.stats
    }

    /// Revalidate against `snap`: any other snapshot than the one last
    /// served invalidates the trees, the k-set cache, the memoized SSSP
    /// and the queue prices (dense ids and arc indices belong to one
    /// frozen graph, the prices to one epoch's evidence).
    fn bind(&mut self, snap: &SchedSnapshot) {
        if self.bound != Some(snap.uid) {
            self.bound = Some(snap.uid);
            self.sssp_source = None;
            self.arena.clear();
            self.tree_of.clear();
            self.tree_of.resize(snap.topo.nodes.len(), (0, 0));
            self.kcache.clear();
            self.hops.rebind(snap.topo.cols.len());
        }
    }
}

/// Publish counters (diagnostics, tests, benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Epochs built by the full O(topology) rebuild.
    pub full_builds: u64,
    /// Epochs built by the O(dirty) incremental patch path.
    pub incremental_builds: u64,
    /// Full builds that re-froze the structure (CSR + edge↔arc tables);
    /// the others — forced, or after a history slot overflowed — reused
    /// the previous epoch's.
    pub csr_builds: u64,
}

/// History-slot entries a full build reserves per arc before any run
/// has been seen to need more.
const INITIAL_SLOT_FLOOR: u32 = 8;

/// The epoch publisher: owns the previous epochs needed for O(dirty)
/// incremental publication.
///
/// While the map's topology generation holds, each publish starts from
/// the previous epoch's arrays (structure shared via `Arc`, per-epoch
/// arrays recycled from the epoch-before-last when no reader holds it)
/// and reprices only the arcs of edges on the map's dirty list, each edge
/// once: its two arcs come from the frozen `EdgeId → arcs` table and are
/// priced by `price_arc` straight off the edge slab, their `qlen_hist`
/// runs spliced in place. Any structural change — or a history run
/// outgrowing its reserved slot — falls back to the full rebuild, which
/// remains the reference: an incremental epoch is pinned `content_eq` to
/// what the full build would have produced (`tests/proptest_publish.rs`,
/// via [`SnapshotPublisher::set_incremental`]).
///
/// Slots are sized by a floor the publisher owns and only ever raises: a
/// run that outgrows its slot lifts the floor to twice its length before
/// the rebuild. Staircase histories (see
/// [`EdgeState::qlen_history`]) shrink as often as they grow, so slots
/// sized from current lengths would overflow again and again; under the
/// ratchet the full rebuilds a traffic pattern can cause are bounded by
/// the log of its longest run.
#[derive(Debug)]
pub struct SnapshotPublisher {
    incremental: bool,
    /// Most recently published epoch.
    prev: Option<Arc<SchedSnapshot>>,
    /// Epoch before that — the recycling candidate: once every shard has
    /// moved on, `Arc::try_unwrap` reclaims its arrays for the next build.
    older: Option<Arc<SchedSnapshot>>,
    /// Dirty edges drained from the map for the in-flight publish.
    dirty: Vec<EdgeId>,
    /// Dirty set of the *previous* publish (the diff `older → prev`);
    /// recycling `older`'s arrays patches the union of both sets.
    prev_dirty: Vec<EdgeId>,
    /// `EdgeId` → the last `patch_round` that patched it: dedupes the
    /// union of the two dirty sets to one patch per edge.
    patched: Vec<u64>,
    patch_round: u64,
    /// Minimum history-slot size of the next full build; see the type docs.
    slot_floor: u32,
    /// Monotone id source for `SchedSnapshot::layout_gen`.
    layout_counter: u64,
    stats: PublishStats,
}

impl Default for SnapshotPublisher {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotPublisher {
    /// A publisher with incremental publication enabled.
    pub fn new() -> Self {
        SnapshotPublisher {
            incremental: true,
            prev: None,
            older: None,
            dirty: Vec::new(),
            prev_dirty: Vec::new(),
            patched: Vec::new(),
            patch_round: 0,
            slot_floor: INITIAL_SLOT_FLOOR,
            layout_counter: 0,
            stats: PublishStats::default(),
        }
    }

    /// Turn the incremental path off (every publish a full rebuild — the
    /// reference tests and benches compare against) or back on.
    pub fn set_incremental(&mut self, on: bool) {
        self.incremental = on;
    }

    /// Publish counters so far.
    pub fn stats(&self) -> PublishStats {
        self.stats
    }

    /// Freeze the collector's current state as epoch `epoch`. Drains the
    /// map's dirty-edge list; takes the incremental path when enabled,
    /// the topology generation is unchanged since the previous publish,
    /// and the publish inputs (cfg/distances/seed) are the same.
    pub fn publish(
        &mut self,
        collector: &mut IntCollector,
        cfg: &Arc<CoreConfig>,
        distances: &Arc<StaticDistances>,
        seed: u64,
        epoch: u64,
        published_at_ns: u64,
    ) -> Arc<SchedSnapshot> {
        collector.map_mut().take_dirty_into(&mut self.dirty);
        let topo_gen = collector.map().topology_generation();
        let reusable = self.incremental
            && self.prev.as_ref().is_some_and(|p| {
                p.topo_gen == topo_gen
                    && p.seed == seed
                    && Arc::ptr_eq(&p.cfg, cfg)
                    && Arc::ptr_eq(&p.distances, distances)
            });
        let snap = if reusable {
            match self.build_incremental(collector, epoch, published_at_ns) {
                Some(s) => {
                    self.stats.incremental_builds += 1;
                    s
                }
                None => self.full(collector, cfg, distances, seed, epoch, published_at_ns),
            }
        } else {
            self.full(collector, cfg, distances, seed, epoch, published_at_ns)
        };
        let snap = Arc::new(snap);
        self.older = self.prev.take();
        self.prev = Some(Arc::clone(&snap));
        // The in-flight dirty set becomes the `older → prev` diff.
        std::mem::swap(&mut self.prev_dirty, &mut self.dirty);
        snap
    }

    /// The full-rebuild path, stamping a fresh slot-layout id. The
    /// structure is only re-frozen when the map's topology generation
    /// moved.
    fn full(
        &mut self,
        collector: &IntCollector,
        cfg: &Arc<CoreConfig>,
        distances: &Arc<StaticDistances>,
        seed: u64,
        epoch: u64,
        published_at_ns: u64,
    ) -> SchedSnapshot {
        self.stats.full_builds += 1;
        self.layout_counter += 1;
        let topo = match &self.prev {
            Some(p) if p.topo_gen == collector.map().topology_generation() => Arc::clone(&p.topo),
            _ => {
                self.stats.csr_builds += 1;
                Arc::new(CsrTopo::build(collector.map()))
            }
        };
        SchedSnapshot::build_full(
            collector,
            topo,
            cfg,
            distances,
            seed,
            epoch,
            published_at_ns,
            self.slot_floor,
            self.layout_counter,
        )
    }

    /// The O(dirty) path: start from the previous epoch's arrays and
    /// reprice only the dirty edges' arcs. Returns `None` (caller falls
    /// back to the full rebuild) if any history run outgrew its slot or
    /// a dirty edge can no longer be resolved against the structure.
    fn build_incremental(
        &mut self,
        collector: &IntCollector,
        epoch: u64,
        published_at_ns: u64,
    ) -> Option<SchedSnapshot> {
        let map = collector.map();
        let prev = self.prev.as_ref().expect("incremental requires a previous epoch");

        // Reclaim the epoch-before-last's arrays if no reader holds them.
        let spare = self.older.take().and_then(|a| Arc::try_unwrap(a).ok());
        let (mut weights, mut est_delay, mut arc_q, mut qlen_hist, mut origins, patch_union);
        match spare {
            Some(s) if s.layout_gen == prev.layout_gen && s.epoch + 1 == prev.epoch => {
                // `s` differs from `prev` exactly by `prev_dirty`: patch
                // the union of both dirty sets in place, copy nothing.
                weights = s.weights;
                est_delay = s.est_delay;
                arc_q = s.arc_q;
                qlen_hist = s.qlen_hist;
                origins = s.origins;
                patch_union = true;
            }
            Some(s) => {
                // Layout lineage broken (full rebuild in between): reuse
                // the allocations but copy the previous epoch wholesale.
                weights = s.weights;
                weights.clone_from(&prev.weights);
                est_delay = s.est_delay;
                est_delay.clone_from(&prev.est_delay);
                arc_q = s.arc_q;
                arc_q.clone_from(&prev.arc_q);
                qlen_hist = s.qlen_hist;
                qlen_hist.clone_from(&prev.qlen_hist);
                origins = s.origins;
                patch_union = false;
            }
            None => {
                weights = prev.weights.clone();
                est_delay = prev.est_delay.clone();
                arc_q = prev.arc_q.clone();
                qlen_hist = prev.qlen_hist.clone();
                origins = Vec::new();
                patch_union = false;
            }
        }

        // Each edge is patched once however many of the lists name it.
        // (A dirty edge without arcs would have died, and an eviction
        // moves `topo_gen` — reaching that here means stale state.)
        self.patch_round += 1;
        self.patched.resize(prev.topo.edge_arcs.len(), 0);
        let union = if patch_union { &self.prev_dirty[..] } else { &[] };
        for &id in self.dirty.iter().chain(union) {
            let stamp = self.patched.get_mut(id as usize)?;
            if std::mem::replace(stamp, self.patch_round) == self.patch_round {
                continue;
            }
            // Evidence on edge (a,b) feeds arc (a,b) directly and arc
            // (b,a) via the reverse-direction fallback.
            for ai in prev.topo.edge_arcs[id as usize] {
                let ai = ai as usize;
                let e = price_arc(map, *prev.topo.arc_edges.get(ai)?);
                est_delay[ai] = e.delay_ns;
                weights[ai] = e.delay_ns.max(1);
                if let Err(run) = arc_q[ai].store(e, &mut qlen_hist) {
                    self.slot_floor = self.slot_floor.max(2 * run as u32);
                    return None;
                }
            }
        }

        origins.clear();
        origins.extend(
            collector
                .origin_stats_all()
                .filter(|(_, st)| st.received > 0)
                .map(|(o, st)| (o, st.last_rx_ns)),
        );

        Some(SchedSnapshot {
            uid: next_uid(),
            epoch,
            published_at_ns,
            cfg: Arc::clone(&prev.cfg),
            distances: Arc::clone(&prev.distances),
            seed: prev.seed,
            topo: Arc::clone(&prev.topo),
            topo_gen: prev.topo_gen,
            layout_gen: prev.layout_gen,
            weights,
            est_delay,
            arc_q,
            qlen_hist,
            origins,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::Ranker;
    use crate::sched::SchedulerCore;
    use int_packet::int::IntRecord;
    use int_packet::ProbePayload;
    use proptest::prelude::*;

    fn rec(switch_id: u32, maxq: u32, ts_ms: u64) -> IntRecord {
        IntRecord {
            switch_id,
            ingress_port: 0,
            egress_port: 1,
            max_qlen_pkts: maxq,
            qlen_at_probe_pkts: maxq / 2,
            link_latency_ns: 10_000_000,
            egress_ts_ns: ts_ms * 1_000_000,
        }
    }

    fn probe(origin: u32, seq: u64, chain: &[(u32, u32)]) -> ProbePayload {
        let mut p = ProbePayload::new(origin, seq, 0);
        for (i, &(sw, q)) in chain.iter().enumerate() {
            p.int.push(rec(sw, q, (i as u64 + 1) * 11));
        }
        p
    }

    /// A scheduler with two servers behind distinct switch chains, one
    /// congested — the same shape the rank/sched tests use.
    fn core_with_two_servers() -> SchedulerCore {
        let mut d = StaticDistances::new();
        d.set(6, 1, 3);
        d.set(6, 2, 5);
        let mut core = SchedulerCore::new(6, CoreConfig::default(), d, 42);
        core.collector_mut().ingest(&probe(1, 1, &[(10, 20), (11, 0)]), 32_000_000);
        core.collector_mut().ingest(&probe(2, 1, &[(12, 0), (11, 0)]), 32_000_000);
        core
    }

    fn snap_of(core: &SchedulerCore, epoch: u64, at: u64) -> SchedSnapshot {
        SchedSnapshot::build(core.collector(), &core.config_arc(), &core.distances_arc(), 42, epoch, at)
    }

    /// The reference answer over `core`'s live map (here `core` is only
    /// the holder of a collector, a config and a distance table).
    fn reference(core: &SchedulerCore, requester: u32, policy: Policy, now_ns: u64) -> RankOutcome {
        Ranker::new(core.config_arc(), core.distances_arc(), 0)
            .answer(core.collector(), requester, policy, now_ns)
    }

    #[test]
    fn snapshot_matches_oracle_for_all_policies_and_requesters() {
        let core = core_with_two_servers();
        let now = 32_000_000;
        let snap = snap_of(&core, 1, now);
        let mut scratch = SnapshotScratch::new();
        for requester in [6u32, 1, 2] {
            for policy in [Policy::IntDelay, Policy::IntBandwidth, Policy::Nearest] {
                let want = reference(&core, requester, policy, now);
                let got = snap.rank_detailed(&mut scratch, requester, policy, now, 7);
                assert_eq!(got, want, "{requester} {policy:?}");
            }
        }
    }

    #[test]
    fn snapshot_honours_staleness_at_query_time() {
        // Silence horizon widened so the only time-dependent effect in
        // play is queue staleness (defaults tie both at 3 s).
        let cfg = CoreConfig { origin_silence_ns: 60_000_000_000, ..CoreConfig::default() };
        let mut d = StaticDistances::new();
        d.set(6, 1, 3);
        d.set(6, 2, 5);
        let mut core = SchedulerCore::new(6, cfg, d, 42);
        core.collector_mut().ingest(&probe(1, 1, &[(10, 20), (11, 0)]), 32_000_000);
        core.collector_mut().ingest(&probe(2, 1, &[(12, 0), (11, 0)]), 32_000_000);
        let now = 32_000_000;
        let snap = snap_of(&core, 1, now);
        let mut scratch = SnapshotScratch::new();
        // Query far past the staleness horizon (but before eviction):
        // queues read as empty in both planes, so the congested server's
        // hop penalty vanishes identically.
        let later = now + 4_000_000_000; // > 3 s staleness, < 10 s eviction
        let want = reference(&core, 6, Policy::IntDelay, later);
        let got = snap.rank_detailed(&mut scratch, 6, Policy::IntDelay, later, 0);
        assert_eq!(got, want);
        assert_eq!(got.ranked.len(), 2);
        assert_eq!(
            got.ranked[0].est_delay_ns, got.ranked[1].est_delay_ns,
            "stale queues erase the congestion difference"
        );
    }

    /// The queue-price memo is keyed on (snapshot, query time), not on
    /// time moving forward: one scratch answering one requester at times
    /// that jump past the staleness horizon and the queue window and back
    /// again answers each exactly as a fresh scratch and the reference
    /// do — through the tree sweep (`k_paths = 1`) and explicit k-paths.
    #[test]
    fn queue_prices_follow_query_time_backwards_and_forwards() {
        for k_paths in [1, 2] {
            let cfg = CoreConfig {
                origin_silence_ns: 60_000_000_000,
                k_paths,
                ..CoreConfig::default()
            };
            let mut d = StaticDistances::new();
            d.set(6, 1, 3);
            d.set(6, 2, 5);
            let mut core = SchedulerCore::new(6, cfg, d, 42);
            core.collector_mut().ingest(&probe(1, 1, &[(10, 20), (11, 0)]), 32_000_000);
            core.collector_mut().ingest(&probe(2, 1, &[(12, 0), (11, 0)]), 32_000_000);
            let t = 32_000_000;
            let (stale, unwindowed) = (t + 4_000_000_000, t + core.config().qlen_window_ns + 1);
            let snap = snap_of(&core, 1, t);
            let mut scratch = SnapshotScratch::new();
            let mut delays = BTreeMap::new();
            for now in [t, stale, t, unwindowed, t] {
                for policy in [Policy::IntDelay, Policy::IntBandwidth] {
                    let want = reference(&core, 6, policy, now);
                    let fresh = snap.rank_detailed(&mut SnapshotScratch::new(), 6, policy, now, 0);
                    let got = snap.rank_detailed(&mut scratch, 6, policy, now, 0);
                    assert_eq!(got, want, "k={k_paths} {policy:?} at {now}");
                    assert_eq!(got, fresh, "k={k_paths} {policy:?} at {now}");
                    if policy == Policy::IntDelay {
                        delays.insert(now, got.ranked);
                    }
                }
            }
            assert_ne!(delays[&t], delays[&stale], "staleness empties the queue");
            assert_ne!(delays[&t], delays[&unwindowed], "the window empties the queue");
        }
    }

    #[test]
    fn snapshot_excludes_silent_origins_by_query_now() {
        let mut core = core_with_two_servers();
        // Server 2 keeps probing; server 1 goes dark.
        let ms = 1_000_000u64;
        for i in 1..=60u64 {
            core.collector_mut()
                .ingest(&probe(2, 1 + i, &[(12, 0), (11, 0)]), 32 * ms + i * 100 * ms);
        }
        let now = 32 * ms + 6_000 * ms; // ≫ 3 s silence horizon for origin 1
        let horizon = core.config().eviction_horizon_ns;
        core.collector_mut().map_mut().evict_stale(now, horizon);
        let snap = snap_of(&core, 3, now);
        let mut scratch = SnapshotScratch::new();
        let want = reference(&core, 6, Policy::IntDelay, now);
        let got = snap.rank_detailed(&mut scratch, 6, Policy::IntDelay, now, 0);
        assert_eq!(got, want);
        assert_eq!(got.excluded, vec![(1, ExcludeReason::OriginSilent)]);
    }

    #[test]
    fn scratch_shares_one_sssp_per_source_and_caches_paths() {
        let core = core_with_two_servers();
        let snap = snap_of(&core, 1, 32_000_000);
        let mut scratch = SnapshotScratch::new();
        for _ in 0..10 {
            snap.rank_detailed(&mut scratch, 6, Policy::IntDelay, 32_000_000, 0);
        }
        let s = scratch.stats();
        assert_eq!(s.sssp_runs, 1, "one Dijkstra serves every query from host 6");
        assert_eq!(s.cache_misses, 1, "the tree is grown by the first query");
        assert_eq!(s.cache_hits, 9, "repeat queries sweep the cached tree");
        // A second requester grows its own tree; the first one's stays.
        snap.rank_detailed(&mut scratch, 1, Policy::IntBandwidth, 32_000_000, 0);
        snap.rank_detailed(&mut scratch, 6, Policy::Nearest, 32_000_000, 0);
        let s = scratch.stats();
        assert_eq!((s.sssp_runs, s.cache_misses, s.cache_hits), (2, 2, 10));
        // An unknown requester has no tree to look up.
        snap.rank_detailed(&mut scratch, 99, Policy::IntDelay, 32_000_000, 0);
        assert_eq!(scratch.stats().cache_hits + scratch.stats().cache_misses, 12);
    }

    /// Regression: scratch validity used to be keyed on the epoch *number*,
    /// so one scratch serving two different snapshots that share it kept
    /// the first graph's dense-id state for the second.
    #[test]
    fn scratch_rebinds_across_different_snapshots_of_one_epoch() {
        let small = core_with_two_servers();
        // A larger, differently shaped map frozen under the same epoch 1.
        let mut big = core_with_two_servers();
        big.collector_mut().ingest(&probe(3, 1, &[(13, 7), (10, 2), (11, 0)]), 32_000_000);
        big.collector_mut().ingest(&probe(4, 1, &[(14, 0), (12, 9), (11, 0)]), 32_000_000);
        let now = 32_000_000;
        let snaps = [snap_of(&big, 1, now), snap_of(&small, 1, now), snap_of(&big, 1, now)];
        let mut shared = SnapshotScratch::new();
        for snap in &snaps {
            for requester in [6u32, 1, 2, 4] {
                for policy in [Policy::IntDelay, Policy::IntBandwidth, Policy::Nearest] {
                    let want =
                        snap.rank_detailed(&mut SnapshotScratch::new(), requester, policy, now, 0);
                    let got = snap.rank_detailed(&mut shared, requester, policy, now, 0);
                    assert_eq!(got, want, "{requester} {policy:?}");
                }
            }
        }
    }

    #[test]
    fn random_policy_is_slot_deterministic() {
        let core = core_with_two_servers();
        let snap = snap_of(&core, 1, 32_000_000);
        let mut a = SnapshotScratch::new();
        let mut b = SnapshotScratch::new();
        let one = snap.rank_detailed(&mut a, 6, Policy::Random, 32_000_000, 5);
        let two = snap.rank_detailed(&mut b, 6, Policy::Random, 32_000_000, 5);
        assert_eq!(one, two, "same slot ⇒ same shuffle, regardless of scratch");
        // Different slots eventually differ (2 candidates ⇒ 2 orders).
        let mut seen = std::collections::BTreeSet::new();
        for slot in 0..16 {
            let mut s = SnapshotScratch::new();
            let out = snap.rank_detailed(&mut s, 6, Policy::Random, 32_000_000, slot);
            seen.insert(out.ranked.iter().map(|r| r.host).collect::<Vec<_>>());
        }
        assert!(seen.len() > 1, "the shuffle actually varies across slots");
    }

    #[test]
    fn k_path_snapshot_matches_oracle_under_multipath_config() {
        // Two disjoint routes 1↔6 (one congested) plus a second server —
        // with k_paths = 2 both planes must price both routes and agree
        // decision-for-decision on the winner.
        let cfg = CoreConfig { k_paths: 2, ..CoreConfig::default() };
        let mut d = StaticDistances::new();
        d.set(6, 1, 3);
        d.set(6, 2, 5);
        let mut core = SchedulerCore::new(6, cfg, d, 42);
        core.collector_mut().ingest(&probe(1, 1, &[(10, 20), (11, 0)]), 32_000_000);
        core.collector_mut().ingest(&probe(1, 2, &[(12, 0), (13, 0)]), 33_000_000);
        core.collector_mut().ingest(&probe(2, 1, &[(14, 5), (11, 0)]), 32_000_000);
        let now = 33_000_000;
        // Rankings and routes: the route serving prices is the reference
        // route, the k-set is the reference k-set and leads with it,
        // unknown endpoints are unreachable, a self path needs no map.
        let check = |snap: &SchedSnapshot, core: &SchedulerCore, now: u64| {
            let mut scratch = SnapshotScratch::new();
            for requester in [6u32, 1, 2] {
                for policy in [Policy::IntDelay, Policy::IntBandwidth, Policy::Nearest] {
                    let want = reference(core, requester, policy, now);
                    let got = snap.rank_detailed(&mut scratch, requester, policy, now, 3);
                    assert_eq!(got, want, "{requester} {policy:?}");
                }
            }
            let (map, cfg) = (core.collector().map(), core.config());
            for (a, b) in [(1u32, 6u32), (6, 1), (2, 1), (1, 42), (42, 1), (42, 42)] {
                let (from, to) = (NetNode::Host(a), NetNode::Host(b));
                let route = snap.path(&mut scratch, from, to);
                assert_eq!(route, map.path(from, to), "{a}->{b}");
                let (Some(f), Some(t)) = (snap.node_id(from), snap.node_id(to)) else { continue };
                snap.ensure_k_paths(&mut scratch, f, t);
                let kset: Vec<Vec<NetNode>> = scratch.kcache[&(f, t)]
                    .iter()
                    .map(|p| p.iter().map(|&i| snap.topo.nodes[i as usize]).collect())
                    .collect();
                assert_eq!(kset, map.k_paths(from, to, cfg.k_paths), "{a}->{b}");
                assert_eq!(kset.first(), route.as_ref(), "{a}->{b}: first k-path is the path");
            }
        };
        check(&snap_of(&core, 1, now), &core, now);

        // Metric-only drift re-routes: the 10–11 route degrades to 100 ms
        // links, the structure holds, and the next epoch leads with the
        // other route.
        let (cfg, distances) = (core.config_arc(), core.distances_arc());
        let mut publisher = SnapshotPublisher::new();
        let before = publisher.publish(core.collector_mut(), &cfg, &distances, 42, 1, now);
        let route = |snap: &SchedSnapshot| {
            snap.path(&mut SnapshotScratch::new(), NetNode::Host(1), NetNode::Host(6)).unwrap()
        };
        assert!(route(&before).contains(&NetNode::Switch(10)), "fast route first");
        let topo_gen = core.collector().map().topology_generation();
        let later = 300_000_000;
        for seq in 3..=20 {
            let mut p = probe(1, seq, &[(10, 20), (11, 0)]);
            for r in &mut p.int.records {
                r.link_latency_ns = 100_000_000;
            }
            core.collector_mut().ingest(&p, later);
        }
        assert_eq!(core.collector().map().topology_generation(), topo_gen, "no structural change");
        let after = publisher.publish(core.collector_mut(), &cfg, &distances, 42, 2, later);
        assert!(Arc::ptr_eq(&before.topo, &after.topo), "metric drift never re-freezes the CSR");
        assert!(route(&after).contains(&NetNode::Switch(12)), "re-priced, re-routed");
        check(&after, &core, later);
    }

    #[test]
    fn warm_up_fallback_matches_oracle_on_empty_map() {
        let mut core = SchedulerCore::new(6, CoreConfig::default(), StaticDistances::new(), 1);
        core.register_host(3);
        core.register_host(5);
        let snap = snap_of(&core, 1, 0);
        let mut scratch = SnapshotScratch::new();
        let want = reference(&core, 9, Policy::IntDelay, 0);
        let got = snap.rank_detailed(&mut scratch, 9, Policy::IntDelay, 0, 0);
        assert_eq!(got, want);
        assert_eq!(got.ranked.len(), 3, "warm-up ranks everyone: {got:?}");
        assert!(got.excluded.is_empty());
    }

    /// Regression: staircase histories shrink as often as they grow, so
    /// history slots sized from the lengths current at a full build (the
    /// rule raw histories had) overflowed again on almost every publish.
    /// The paper's cadence on the 512-switch shape — every host re-probes
    /// every round, iid depths, each probe with its own timestamp — must
    /// stay on the incremental path once the publisher's slot floor has
    /// ratcheted past the longest run, without the slots growing unbounded.
    #[test]
    fn slot_floor_keeps_fluctuating_staircases_on_the_incremental_path() {
        const ROUND_NS: u64 = 100_000_000;
        let (cfg, distances) = (Arc::new(CoreConfig::default()), Arc::new(StaticDistances::new()));
        let mut collector = IntCollector::new(10_000);
        let mut publisher = SnapshotPublisher::new();
        let mut lcg = 1u64;
        let mut last = None;
        for round in 1..=600u64 {
            for h in 0..960u32 {
                let now = round * ROUND_NS + h as u64 * 1_000;
                let mut p = ProbePayload::new(h, round, 0);
                for sw in [1000 + h % 256, 2000 + h % 128, 3000 + h % 64, 4000 + h % 64] {
                    lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    p.int.push(rec(sw, (lcg >> 33) as u32 % 40, 0));
                }
                collector.ingest(&p, now);
            }
            let at = (round + 1) * ROUND_NS - 1;
            last = Some(publisher.publish(&mut collector, &cfg, &distances, 1, round, at));
        }
        let (stats, snap) = (publisher.stats(), last.unwrap());
        assert!(stats.full_builds <= 3, "{stats:?}");
        assert_eq!(stats.csr_builds, 1, "the structure never moved: {stats:?}");
        assert!(
            snap.qlen_hist.len() <= 32 * snap.arc_count(),
            "{} history entries reserved for {} arcs",
            snap.qlen_hist.len(),
            snap.arc_count()
        );
    }

    proptest! {
        /// Tree pricing against its references over random
        /// probe/churn/eviction sequences: after every op, (1) every host
        /// pair's route equals the reference `NetworkMap::path` (a
        /// heap-only Dijkstra, so the degree-1 rule is checked against a
        /// run without it; route shape 2 multi-homes origins), and, at
        /// query times on both sides of the queue window, the staleness
        /// horizon and the silence horizon, (2) the swept table equals
        /// the explicit path — walked off a second scratch's SSSP and
        /// priced arc by arc — for every host pair, unreachable ones
        /// included, and (3) the full ranking equals the single-threaded
        /// oracle's. Latency classes ≥ 50 put links near `u64::MAX` (two
        /// of them in a row are unreachable: Dijkstra never settles a
        /// node at distance `u64::MAX`), and `big_k` does the same to
        /// `k·Q`, so the saturating hop sum, the saturating link + hop
        /// total and the `MAX − 1` clamp are all hit.
        #[test]
        fn tree_pricing_matches_explicit_paths_and_oracle_under_churn(
            ops in proptest::collection::vec(
                // (origin, route shape, latency class, queue, clock step ms, op kind)
                (0u32..5, 0u32..3, 1u64..56, 0u32..70, 1u64..250, 0u8..8),
                1..24,
            ),
            big_k in any::<bool>(),
        ) {
            const SCHED: u32 = 100;
            const MS: u64 = 1_000_000;
            // Kind-6 ops probe scheduler → host, so some links carry an
            // edge per direction and some only the reverse one.
            let cfg = CoreConfig {
                k_ns_per_pkt: if big_k { u64::MAX / 64 } else { 20 * MS },
                qlen_window_ns: 120 * MS,
                staleness_ns: 300 * MS,
                origin_silence_ns: 600 * MS,
                // Only the explicit eviction op below evicts, so oracle
                // queries at later times see the map the snapshot froze.
                eviction_horizon_ns: u64::MAX,
                ..CoreConfig::default()
            };
            let mut d = StaticDistances::new();
            for h in 0..5u32 {
                d.set(SCHED, h, 7 - h);
                d.set(h, (h + 1) % 5, 2);
            }
            let mut core = SchedulerCore::new(SCHED, cfg, d, 9);
            core.register_host(7); // known, never probes: unreachable
            let mut shared = SnapshotScratch::new();
            let mut now_ns: u64 = 1_000 * MS;

            for (seq, &(origin, route, lat, qlen, dt_ms, kind)) in ops.iter().enumerate() {
                now_ns += dt_ms * MS;
                if kind == 7 {
                    core.collector_mut().map_mut().evict_stale(now_ns, 350 * MS);
                } else {
                    let lat_ns = if lat >= 50 { u64::MAX / (lat - 48) } else { lat * MS };
                    let mut chain: Vec<u32> = match route {
                        0 => vec![10 + origin],
                        1 => vec![10 + origin, 20],
                        _ => vec![20, 10 + (origin + 1) % 5],
                    };
                    let (from, terminal) = if kind == 6 {
                        chain.reverse();
                        (SCHED, origin)
                    } else {
                        (origin, SCHED)
                    };
                    let mut p = ProbePayload::new(from, seq as u64 + 1, 0);
                    let last = chain.len() as u64 - 1;
                    for (i, sw) in chain.iter().enumerate() {
                        p.int.push(IntRecord {
                            switch_id: *sw,
                            ingress_port: 0,
                            egress_port: 1,
                            max_qlen_pkts: qlen,
                            qlen_at_probe_pkts: qlen / 2,
                            link_latency_ns: lat_ns,
                            egress_ts_ns: now_ns
                                .saturating_sub((last - i as u64).saturating_mul(lat_ns)),
                        });
                    }
                    core.collector_mut().ingest_relayed(&p, terminal, now_ns);
                }

                let snap = SchedSnapshot::build(
                    core.collector(),
                    &core.config_arc(),
                    &core.distances_arc(),
                    9,
                    seq as u64 + 1,
                    now_ns,
                );
                shared.bind(&snap);
                let mut walk = SnapshotScratch::new();
                walk.bind(&snap);
                let map = core.collector().map();
                for &a in &snap.topo.hosts {
                    for &b in &snap.topo.hosts {
                        let (from, to) = (NetNode::Host(a), NetNode::Host(b));
                        prop_assert_eq!(
                            snap.path(&mut walk, from, to),
                            map.path(from, to),
                            "route {}→{}, op {}", a, b, seq
                        );
                    }
                }
                let mut path = Vec::new();
                for later_ms in [0u64, 100, 200, 400, 900] {
                    let at = now_ns + later_ms * MS;
                    for (&from_host, from) in snap.topo.hosts.iter().zip(0u32..) {
                        snap.price_tree(&mut shared, from, at);
                        snap.ensure_sssp(&mut walk, from);
                        for to in 0..snap.topo.hosts.len() as u32 {
                            let want = extract_path_into(&walk.sssp, from, to, &mut path)
                                .then(|| snap.price_path(&mut walk.hops, &path, at));
                            let got = shared.table[to as usize].map(Priced::finish);
                            prop_assert_eq!(
                                got, want,
                                "{}→{} +{} ms, op {}", from, to, later_ms, seq
                            );
                        }
                        for policy in [Policy::IntDelay, Policy::IntBandwidth, Policy::Nearest] {
                            let want = reference(&core, from_host, policy, at);
                            let got = snap.rank_detailed(&mut shared, from_host, policy, at, 0);
                            prop_assert_eq!(
                                got, want,
                                "{} {:?} +{} ms, op {}", from_host, policy, later_ms, seq
                            );
                        }
                    }
                }
            }
        }
    }
}
