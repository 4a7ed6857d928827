//! The control-plane workloads: a closed loop over `ShardedScheduler`.
//!
//! One round is what the scheduler does every probing interval: the
//! round's probes arrive (as wire bytes on `ctl_ingest`), are decoded,
//! ingested, published as one epoch, and a batch of rank queries is
//! served against it. One batch is outstanding at a time. Generator work
//! (building probes, encoding bytes, building query vectors) is outside
//! every timed span and reported as `gen_s`.

use crate::gen::{silenced, Digest, Fabric, QueryMix, ROUND_NS};
use crate::trace::Tracer;
use crate::workload::{Layers, Rep};
use int_core::rank::StaticDistances;
use int_core::shard::{RankQuery, ShardedScheduler};
use int_core::{CoreConfig, ExcludeReason, Policy, RankOutcome, SchedulerCore, SnapshotScratch};
use int_packet::wire::{WireDecode, WireEncode};
use int_packet::ProbePayload;
use std::sync::Arc;
use std::time::Instant;

/// What one latency sample times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyOf {
    /// One `serve_batch` call.
    Batch,
    /// First probe byte handed to the decoder → ranked answer returned.
    Round,
}

/// Which count the throughput is over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpsOf {
    Queries,
    Probes,
}

/// The shape of one control-plane workload.
#[derive(Debug, Clone, Copy)]
pub struct CtlShape {
    pub fabric: Fabric,
    pub rounds: usize,
    pub queries_per_round: usize,
    pub mix: QueryMix,
    /// Every live host re-probes each round; `false` learns the map once.
    pub ingest: bool,
    /// Probes arrive as wire bytes and are decoded inside the timed loop.
    pub wire: bool,
    /// Rounds `[from, to)` during which every eighth host stays silent.
    pub silent: Option<(usize, usize)>,
    pub shards: usize,
    /// Untimed batches served during set-up so the path caches are full
    /// (for shapes without ingest, whose clock stands still).
    pub warm_batches: usize,
    pub latency: LatencyOf,
    pub ops: OpsOf,
}

/// Telemetry older than this is evicted: short enough for the silence
/// window of `ctl_churn` (7 s) to cross it.
const EVICTION_HORIZON_NS: u64 = 5_000_000_000;

impl CtlShape {
    fn config(&self) -> CoreConfig {
        CoreConfig {
            eviction_horizon_ns: EVICTION_HORIZON_NS,
            ..CoreConfig::default()
        }
    }

    /// The batch admitted at `round`: requesters stride over the host
    /// space from a seed-dependent offset. A host that is silent this
    /// round is down and asks nothing; its neighbour asks in its place.
    pub fn queries(&self, seed: u64, round: usize, out: &mut Vec<RankQuery>) {
        out.clear();
        let hosts = self.fabric.hosts;
        let offset = (seed % hosts as u64) as usize;
        for i in 0..self.queries_per_round {
            let mut requester = ((offset + round * 31 + i * 7) % hosts as usize) as u32;
            if silenced(seed, self.silent, round, requester) {
                requester = (requester + 1) % hosts;
            }
            let policy = match (self.mix, i % 3) {
                (QueryMix::DelayOnly, _) | (QueryMix::Cycle, 0) => Policy::IntDelay,
                (QueryMix::Cycle, 1) => Policy::IntBandwidth,
                (QueryMix::Cycle, _) => Policy::Nearest,
            };
            out.push(RankQuery {
                requester,
                policy,
                now_ns: self.now(round),
            });
        }
    }

    /// The Nearest baseline is the only reader of the distance table.
    fn distances(&self) -> StaticDistances {
        match self.mix {
            QueryMix::Cycle => self.fabric.distances(),
            QueryMix::DelayOnly => StaticDistances::new(),
        }
    }

    /// Collector-clock time of `round` (the learning round is round 0).
    /// Without ingest the clock stays at the learning round, or every
    /// origin would age into silence.
    fn now(&self, round: usize) -> u64 {
        if self.ingest {
            (round as u64 + 1) * ROUND_NS
        } else {
            ROUND_NS
        }
    }

    fn live_probes(&self, seed: u64, round: usize, out: &mut Vec<ProbePayload>) {
        out.clear();
        let now = self.now(round);
        out.extend(
            (0..self.fabric.hosts)
                .filter(|&h| !silenced(seed, self.silent, round, h))
                .map(|h| self.fabric.probe(seed, round, h, now)),
        );
    }
}

/// Per-policy serving time of the single-threaded replay.
#[derive(Default)]
struct Replay {
    scratch: SnapshotScratch,
    outcome: RankOutcome,
    ns: [u64; 3],
    queries: [u64; 3],
}

impl Replay {
    /// Serve `queries` again on one thread against the published epoch
    /// and require the sharded plane's answers.
    fn check(
        &mut self,
        sched: &ShardedScheduler,
        tag_base: u64,
        queries: &[RankQuery],
        got: &[RankOutcome],
    ) -> bool {
        let Some(snap) = sched.epoch_slot().current() else {
            return false;
        };
        let mut same = true;
        for (i, (q, o)) in queries.iter().zip(got).enumerate() {
            let t = Instant::now();
            snap.rank_detailed_into(
                &mut self.scratch,
                q.requester,
                q.policy,
                q.now_ns,
                tag_base + i as u64,
                &mut self.outcome,
            );
            let p = q.policy as usize;
            self.ns[p] += t.elapsed().as_nanos() as u64;
            self.queries[p] += 1;
            same &= self.outcome == *o;
        }
        same
    }
}

/// Run one repetition. With a tracer, every call into a layer is
/// recorded as a span and the per-layer numbers are filled in.
pub fn run(seed: u64, shape: &CtlShape, mut tracer: Option<&mut Tracer>) -> Rep {
    let fabric = &shape.fabric;
    let mut gen_ns = 0u64;
    let mut backlog: Vec<ProbePayload> = Vec::with_capacity(fabric.hosts as usize);
    let mut batch: Vec<RankQuery> = Vec::with_capacity(shape.queries_per_round);
    let mut outcomes: Vec<RankOutcome> = Vec::with_capacity(shape.queries_per_round);

    let g = Instant::now();
    shape.live_probes(seed, 0, &mut backlog);
    let distances = shape.distances();
    gen_ns += g.elapsed().as_nanos() as u64;

    // --- set-up: scheduler, hosts, first learning round, first publish ---
    let t_setup = Instant::now();
    let mut sched = ShardedScheduler::new(
        fabric.scheduler,
        Arc::new(shape.config()),
        distances,
        seed,
        shape.shards,
    );
    for h in 0..fabric.hosts {
        sched.core_mut().register_host(h);
    }
    sched.ingest_batch(&backlog, shape.now(0));
    for w in 0..shape.warm_batches {
        shape.queries(seed, w, &mut batch);
        sched.serve_batch(&batch, &mut outcomes);
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut wire: Vec<u8> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    let mut decoded: Vec<ProbePayload> = Vec::with_capacity(fabric.hosts as usize);
    let mut latency_ms = Vec::with_capacity(shape.rounds);
    let mut digest = Digest::default();
    let mut replay = Replay::default();
    let (mut program_ns, mut n_queries, mut n_probes) = (0u64, 0u64, 0u64);
    let (mut parse_errors, mut unanswered, mut replay_mismatch) = (0u64, 0u64, 0u64);
    let (mut excluded_silent, mut excluded_no_path) = (0u64, 0u64);
    let mut dirty_edges: Vec<f64> = Vec::new();
    let origin = Instant::now();
    let at = |t: Instant| t.duration_since(origin).as_nanos() as u64;

    for round in 1..=shape.rounds {
        let now = shape.now(round);
        let g = Instant::now();
        if shape.ingest {
            shape.live_probes(seed, round, &mut backlog);
            if shape.wire {
                wire.clear();
                ends.clear();
                for p in &backlog {
                    p.encode(&mut wire);
                    ends.push(wire.len());
                }
            }
        }
        shape.queries(seed, round, &mut batch);
        gen_ns += g.elapsed().as_nanos() as u64;
        let tag_base = sched.queries_total();

        let t0 = Instant::now();
        let (mut t_dec, mut t_ing, mut t_adv, mut t_pub) = (t0, t0, t0, t0);
        if shape.ingest {
            let probes = if shape.wire {
                decoded.clear();
                let mut start = 0;
                for &end in &ends {
                    match ProbePayload::decode(&mut &wire[start..end]) {
                        Ok(p) => decoded.push(p),
                        Err(_) => parse_errors += 1,
                    }
                    start = end;
                }
                t_dec = Instant::now();
                &decoded
            } else {
                &backlog
            };
            n_probes += probes.len() as u64;
            sched.core_mut().collector_mut().ingest_batch(probes, now);
            t_ing = Instant::now();
            if tracer.is_some() {
                dirty_edges.push(sched.core().collector().map().dirty_count() as f64);
            }
            t_adv = Instant::now();
            sched.advance(now);
            t_pub = Instant::now();
        }
        sched.serve_batch(&batch, &mut outcomes);
        let t_srv = Instant::now();

        program_ns += (t_srv - t0).as_nanos() as u64;
        let sample = match shape.latency {
            LatencyOf::Batch => t_srv - t_pub,
            LatencyOf::Round => t_srv - t0,
        };
        latency_ms.push(sample.as_secs_f64() * 1e3);

        if let Some(tr) = tracer.as_deref_mut() {
            let id = round as u64;
            let parent = Some(tr.record("round", at(t0), at(t_srv), None, id));
            if shape.ingest {
                if shape.wire {
                    tr.record("packet.decode", at(t0), at(t_dec), parent, id);
                }
                tr.record("core.collector.ingest", at(t_dec), at(t_ing), parent, id);
                tr.record("core.snapshot.publish", at(t_adv), at(t_pub), parent, id);
            }
            tr.record("core.shard.serve", at(t_pub), at(t_srv), parent, id);
            if !replay.check(&sched, tag_base, &batch, &outcomes) {
                replay_mismatch += 1;
            }
        }

        n_queries += batch.len() as u64;
        for (q, o) in batch.iter().zip(&outcomes) {
            digest.outcome(q, o);
            unanswered += o.ranked.is_empty() as u64;
            for (_, reason) in &o.excluded {
                match reason {
                    ExcludeReason::OriginSilent => excluded_silent += 1,
                    ExcludeReason::NoFreshPath => excluded_no_path += 1,
                }
            }
        }
    }

    let mut layers = Layers::new();
    if let Some(tr) = tracer {
        let secs = |ns: u64| ns as f64 / 1e9;
        let share = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let collector = sched.core().collector();
        let ingest_ns = tr.busy_ns("core.collector.ingest");
        layers.insert("packet.decode_busy_s", secs(tr.busy_ns("packet.decode")));
        layers.insert("packet.parse_errors", parse_errors as f64);
        layers.insert("core.collector.ingest_busy_s", secs(ingest_ns));
        layers.insert("core.collector.probes", n_probes as f64);
        layers.insert("core.collector.ns_per_probe", share(ingest_ns, n_probes));
        let (dup, reord) = collector
            .origin_stats_all()
            .fold((0, 0), |(d, r), (_, st)| {
                (d + st.duplicate, r + st.reordered)
            });
        layers.insert("core.collector.duplicates", dup as f64);
        layers.insert("core.collector.reordered", reord as f64);
        layers.insert("core.map.edges", collector.map().edge_count() as f64);
        if !dirty_edges.is_empty() {
            layers.insert(
                "core.map.dirty_edges_p50",
                crate::stats::median(&dirty_edges),
            );
        }
        layers.insert(
            "core.map.topology_generations",
            collector.map().topology_generation() as f64,
        );

        let publishes = tr.durations_ns("core.snapshot.publish");
        let ps = sched.publish_stats();
        layers.insert("core.snapshot.publish_busy_s", secs(publishes.iter().sum()));
        layers.insert("core.snapshot.publishes", sched.epoch() as f64);
        if !publishes.is_empty() {
            let us: Vec<f64> = publishes.iter().map(|&ns| ns as f64 / 1e3).collect();
            layers.insert("core.snapshot.publish_us_p50", crate::stats::median(&us));
            layers.insert(
                "core.snapshot.publish_us_max",
                us.iter().copied().fold(0.0, f64::max),
            );
        }
        layers.insert("core.snapshot.full_builds", ps.full_builds as f64);
        layers.insert(
            "core.snapshot.incremental_share",
            share(
                ps.incremental_builds,
                ps.full_builds + ps.incremental_builds,
            ),
        );

        let serve_ns = tr.busy_ns("core.shard.serve");
        let st = replay.scratch.stats();
        let replay_ns: u64 = replay.ns.iter().sum();
        layers.insert("core.shard.serve_busy_s", secs(serve_ns));
        layers.insert("core.shard.queries", n_queries as f64);
        layers.insert("core.shard.us_per_query", share(serve_ns, n_queries) / 1e3);
        for (name, p) in [
            ("core.shard.us_per_query.int_delay", Policy::IntDelay),
            (
                "core.shard.us_per_query.int_bandwidth",
                Policy::IntBandwidth,
            ),
            ("core.shard.us_per_query.nearest", Policy::Nearest),
        ] {
            layers.insert(
                name,
                share(replay.ns[p as usize], replay.queries[p as usize]) / 1e3,
            );
        }
        layers.insert("core.shard.sssp_runs", st.sssp_runs as f64);
        layers.insert("core.shard.sssp_per_query", share(st.sssp_runs, st.queries));
        layers.insert("core.shard.path_cache_misses", st.cache_misses as f64);
        layers.insert(
            "core.shard.path_cache_hit_share",
            share(st.cache_hits, st.cache_hits + st.cache_misses),
        );
        layers.insert("core.shard.excluded_silent", excluded_silent as f64);
        layers.insert("core.shard.excluded_no_path", excluded_no_path as f64);
        layers.insert(
            "core.shard.answered_share",
            share(n_queries - unanswered, n_queries),
        );
        layers.insert(
            "core.shard.parallel_efficiency",
            share(replay_ns, sched.shard_count() as u64 * serve_ns),
        );

        let round_ns = tr.busy_ns("round");
        let uncovered = tr.self_time_ns().get("round").copied().unwrap_or(0);
        layers.insert("trace.span_coverage", share(round_ns - uncovered, round_ns));
    }

    let ops = match shape.ops {
        OpsOf::Queries => n_queries,
        OpsOf::Probes => n_probes,
    };
    Rep {
        setup_s,
        gen_s: gen_ns as f64 / 1e9,
        program_s: program_ns as f64 / 1e9,
        ops,
        latency_ms,
        digest: digest.0,
        attempted: n_queries + n_probes,
        failed: unanswered + parse_errors + replay_mismatch,
        shape: vec![
            ("hosts", fabric.hosts as u64),
            ("switches", fabric.switches as u64),
            ("shards", sched.shard_count() as u64),
            ("rounds", shape.rounds as u64),
            ("queries", n_queries),
            ("probes", n_probes),
            ("epochs", sched.epoch()),
        ],
        layers,
    }
}

/// Replay the same scenario through the single-threaded `SchedulerCore`
/// — no snapshots, no shards — and digest its answers. The sharded
/// plane must produce this digest at any shard count.
pub fn oracle_digest(seed: u64, shape: &CtlShape) -> u64 {
    let fabric = &shape.fabric;
    let mut core = SchedulerCore::new(fabric.scheduler, shape.config(), shape.distances(), seed);
    for h in 0..fabric.hosts {
        core.register_host(h);
    }
    let mut backlog = Vec::new();
    let mut batch = Vec::new();
    let mut outcome = RankOutcome::default();
    let mut digest = Digest::default();
    for round in 0..=shape.rounds {
        let now = shape.now(round);
        if shape.ingest || round == 0 {
            shape.live_probes(seed, round, &mut backlog);
            for p in &backlog {
                core.collector_mut().ingest(p, now);
            }
        }
        if round == 0 {
            continue;
        }
        shape.queries(seed, round, &mut batch);
        for q in &batch {
            core.rank_detailed_into_with(q.requester, q.policy, q.now_ns, &mut outcome);
            digest.outcome(q, &outcome);
        }
    }
    digest.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Scale, Workload};

    #[test]
    fn query_batches_repeat_for_a_seed_and_differ_across_seeds() {
        let shape = Workload::CtlChurn.ctl_shape(Scale::Full).unwrap();
        let (mut q1, mut q2, mut q3) = (Vec::new(), Vec::new(), Vec::new());
        shape.queries(1, 5, &mut q1);
        shape.queries(1, 5, &mut q2);
        shape.queries(2, 5, &mut q3);
        assert_eq!(q1, q2);
        assert_ne!(q1, q3);
        assert_eq!(q1.len(), shape.queries_per_round);
        assert!(q1.iter().all(|q| q.requester < shape.fabric.hosts));
        assert!(q1.iter().any(|q| q.policy == Policy::Nearest));

        shape.queries(3, 50, &mut q1);
        assert!(
            q1.iter()
                .all(|q| !silenced(3, shape.silent, 50, q.requester)),
            "a silent host asks nothing"
        );

        let ingest = Workload::CtlIngest.ctl_shape(Scale::Full).unwrap();
        ingest.queries(1, 0, &mut q1);
        assert!(q1.iter().all(|q| q.policy == Policy::IntDelay));
    }
}
