//! Scheduler-core hot paths: probe ingestion, graph traversal, estimation,
//! and ranking — what the scheduler pays per probe and per query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use int_core::rank::{Ranker, StaticDistances};
use int_core::shard::{RankQuery, ShardedScheduler};
use int_core::{
    CoreConfig, DelayEstimator, IntCollector, NetNode, NetworkMap, Policy, RankOutcome,
    SchedulerCore,
};
use int_packet::int::IntRecord;
use int_packet::ProbePayload;
use std::hint::black_box;

fn probe_through(origin: u32, switches: &[u32], maxq: u32) -> ProbePayload {
    let mut p = ProbePayload::new(origin, 1, 0);
    for (i, &s) in switches.iter().enumerate() {
        p.int.push(IntRecord {
            switch_id: s,
            ingress_port: 0,
            egress_port: 1,
            max_qlen_pkts: maxq,
            qlen_at_probe_pkts: maxq / 2,
            link_latency_ns: 10_000_000,
            egress_ts_ns: (i as u64 + 1) * 11_000_000,
        });
    }
    p
}

/// Collector-clock time every bench map is learned (and queried) at.
const LEARNED_AT_NS: u64 = 50_000_000;

/// A learning round: each probe with the host it terminated at.
type Probes = Vec<(ProbePayload, u32)>;

/// `up` from `h` to `scheduler` over `chain`, and `down` the reverse way.
fn both_ways(h: u32, scheduler: u32, chain: &[u32], up: u32, down: u32) -> [(ProbePayload, u32); 2] {
    let rev: Vec<u32> = chain.iter().rev().copied().collect();
    [(probe_through(h, chain, up), scheduler), (probe_through(scheduler, &rev, down), h)]
}

/// The live map `probes` teach — what the reference ranker reads.
fn map_of(probes: &Probes) -> NetworkMap {
    let mut m = NetworkMap::new();
    for (p, terminal) in probes {
        m.apply_probe(p, *terminal, LEARNED_AT_NS);
    }
    m
}

/// A scheduler that learned `probes` — the serving stack.
fn core_of(scheduler: u32, cfg: CoreConfig, probes: &Probes) -> SchedulerCore {
    let mut core = SchedulerCore::new(scheduler, cfg, StaticDistances::new(), 1);
    for (p, terminal) in probes {
        core.collector_mut().ingest_relayed(p, *terminal, LEARNED_AT_NS);
    }
    core
}

/// A ring of 12 as the paper's testbed produces, fully learned: host h
/// and the scheduler (host 100) probe each other across 4 ring switches.
fn ring_probes(hosts: u32) -> Probes {
    (0..hosts)
        .flat_map(|h| {
            let chain: Vec<u32> = (0..4).map(|i| (h + i) % 12 + 10).collect();
            both_ways(h, 100, &chain, h % 8, h % 5)
        })
        .collect()
}

fn ring_map(hosts: u32) -> NetworkMap {
    map_of(&ring_probes(hosts))
}

fn bench_probe_ingest(c: &mut Criterion) {
    let mut g = c.benchmark_group("collector_ingest");
    for hops in [2usize, 5, 10] {
        let switches: Vec<u32> = (0..hops as u32).collect();
        let probe = probe_through(1, &switches, 7);
        g.bench_with_input(BenchmarkId::from_parameter(hops), &probe, |b, p| {
            let mut col = IntCollector::new(100);
            let mut t = 0u64;
            b.iter(|| {
                t += 100_000_000;
                col.ingest(black_box(p), t);
            })
        });
    }
    // The miss path: one origin alternating between two 5-hop routes, so
    // every probe fails the memo compare, takes the full walk and
    // re-records — what `collector_ingest/5` cost before the memo, plus
    // the re-record.
    let flap = [probe_through(1, &[0, 1, 2, 3, 4], 7), probe_through(1, &[0, 5, 6, 7, 4], 7)];
    g.bench_function("route_flap", |b| {
        let mut col = IntCollector::new(100);
        let mut round = 0usize;
        b.iter(|| {
            round += 1;
            col.ingest(black_box(&flap[round % 2]), round as u64 * 100_000_000);
        })
    });
    g.finish();
}

fn bench_path_traversal(c: &mut Criterion) {
    let m = ring_map(8);
    c.bench_function("map/path_lookup", |b| {
        b.iter(|| black_box(m.path(NetNode::Host(0), NetNode::Host(4))))
    });
}

fn bench_delay_estimate(c: &mut Criterion) {
    let m = ring_map(8);
    let est = DelayEstimator::new(CoreConfig::default());
    c.bench_function("estimate/delay_one_pair", |b| {
        b.iter(|| black_box(est.estimate(&m, NetNode::Host(0), NetNode::Host(4), 50_000_000)))
    });
}

fn bench_ranking(c: &mut Criterion) {
    let mut g = c.benchmark_group("rank_query");
    for n in [4u32, 8, 16] {
        let m = ring_map(n);
        let candidates: Vec<u32> = (0..n).collect();
        for policy in [Policy::IntDelay, Policy::IntBandwidth, Policy::Nearest] {
            g.bench_with_input(
                BenchmarkId::new(format!("{policy:?}"), n),
                &candidates,
                |b, cands| {
                    let mut r = Ranker::new(CoreConfig::default(), StaticDistances::new(), 1);
                    b.iter(|| black_box(r.rank(&m, 100, cands, policy, 50_000_000)))
                },
            );
        }
    }
    g.finish();
}

/// A synthetic 3-tier fabric far beyond the paper's testbed: 128 hosts
/// behind 32 leaf, 16 aggregation, 8 spine, and 8 core switches (64
/// total), fully learned in both directions.
fn fabric_probes(hosts: u32) -> Probes {
    (0..hosts)
        .flat_map(|h| {
            let chain = [100 + h % 32, 200 + h % 16, 300 + h % 8, 400 + (h / 16) % 8];
            both_ways(h, 1000, &chain, h % 8, h % 5)
        })
        .collect()
}

/// The PR 5 headline: sustained rank-query throughput of one long-lived
/// scheduler. Steady state on an unchanged map — exactly what it pays per
/// query between probe rounds (eviction scan, publish-key check, one
/// sweep of the requester's cached shortest-path tree, sort).
fn bench_rank_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("rank_throughput");
    for (name, scheduler, probes) in
        [("testbed_8h", 100, ring_probes(8)), ("fabric_64s_128h", 1000, fabric_probes(128))]
    {
        g.bench_function(name, |b| {
            let mut core = core_of(scheduler, CoreConfig::default(), &probes);
            let mut out = RankOutcome::default();
            b.iter(|| {
                core.rank_detailed_into_with(scheduler, Policy::IntDelay, LEARNED_AT_NS, &mut out);
                black_box(out.ranked.len())
            })
        });
    }
    g.finish();
}

/// A multipath leaf–spine map: every host pair is learned over `spines`
/// alternate 2-switch chains (one per spine), so k-path ranking has real
/// equal-cost diversity to rank over.
fn multipath_probes(hosts: u32, spines: u32) -> Probes {
    (0..hosts)
        .flat_map(|h| (0..spines).map(move |s| (h, s)))
        .flat_map(|(h, s)| both_ways(h, 1000, &[100 + h % 32, 200 + s], (h + s) % 8, (h + s) % 5))
        .collect()
}

/// The PR 8 headline: steady-state rank throughput when every candidate
/// is priced over k equal-cost paths instead of one — the ECMP fabric's
/// query cost. Same long-lived-scheduler shape as `rank_throughput`, so
/// the k = 1 rows there are the direct baseline.
fn bench_rank_throughput_kpaths(c: &mut Criterion) {
    let mut g = c.benchmark_group("rank_throughput_kpaths");
    let probes = multipath_probes(128, 4);
    for k in [1u32, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("fabric_mp_128h", k), &k, |b, &k| {
            let mut core = core_of(1000, CoreConfig { k_paths: k, ..CoreConfig::default() }, &probes);
            let mut out = RankOutcome::default();
            b.iter(|| {
                core.rank_detailed_into_with(1000, Policy::IntDelay, LEARNED_AT_NS, &mut out);
                black_box(out.ranked.len())
            })
        });
    }
    g.finish();
}

/// One probing round of the `fabric_probes` shape into a sharded scheduler:
/// every host probes the scheduler (host 1000) and is probed back, so
/// every learned edge is re-measured.
fn probe_fabric_round(s: &mut ShardedScheduler, seq: u64, now_ns: u64) {
    for h in 0..128u32 {
        let chain = [100 + h % 32, 200 + h % 16, 300 + h % 8, 400 + (h / 16) % 8];
        let mut up = probe_through(h, &chain, h % 8);
        up.seq = seq;
        s.core_mut().collector_mut().ingest(&up, now_ns);
        let rev: Vec<u32> = chain.iter().rev().copied().collect();
        let mut down = probe_through(1000, &rev, h % 5);
        down.seq = seq;
        s.core_mut().collector_mut().ingest_relayed(&down, h, now_ns);
    }
}

/// The PR 6 headline: aggregate rank throughput of the sharded,
/// snapshot-based control plane at 1/2/4/8 read workers. One epoch is
/// published up front (steady state between probe rounds); each
/// iteration admits and serves a 256-query batch through `serve_batch`,
/// so the measurement includes the chunking and thread-scope cost the
/// real scheduler pays. Single-worker batches skip the thread machinery
/// entirely — that is the A in the A/B.
fn bench_rank_throughput_mt(c: &mut Criterion) {
    let mut g = c.benchmark_group("rank_throughput_mt");

    let batch: Vec<RankQuery> = (0..256)
        .map(|i| RankQuery {
            requester: (i * 7) % 128,
            policy: match i % 3 {
                0 => Policy::IntDelay,
                1 => Policy::IntBandwidth,
                _ => Policy::Nearest,
            },
            now_ns: 50_000_000,
        })
        .collect();

    for workers in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("fabric_64s_128h", workers),
            &workers,
            |b, &workers| {
                let mut s = ShardedScheduler::new(
                    1000,
                    CoreConfig::default(),
                    StaticDistances::new(),
                    1,
                    workers,
                );
                probe_fabric_round(&mut s, 1, 50_000_000);
                s.advance(50_000_000);
                let mut out = Vec::new();
                b.iter(|| {
                    s.serve_batch(&batch, &mut out);
                    black_box(out.len())
                })
            },
        );
    }

    g.finish();
}

/// The cold serve path (PR 12): the paper's scheduler re-learns every
/// link each probing interval, so nothing a shard cached survives an
/// epoch. One iteration = one probing round (every edge dirty) → publish
/// → serve 128 queries from 128 distinct requesters on one shard, i.e.
/// one Dijkstra plus one tree sweep per query. Compare per-query cost
/// with `rank_throughput_mt/fabric_64s_128h/1` (same fabric, warm).
fn bench_rank_throughput_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("rank_throughput_churn");
    let mut batch: Vec<RankQuery> = (0..128)
        .map(|i| RankQuery {
            requester: i,
            policy: match i % 3 {
                0 => Policy::IntDelay,
                1 => Policy::IntBandwidth,
                _ => Policy::Nearest,
            },
            now_ns: 0,
        })
        .collect();
    g.throughput(Throughput::Elements(batch.len() as u64));
    g.bench_function("fabric_64s_128h", |b| {
        let mut s =
            ShardedScheduler::new(1000, CoreConfig::default(), StaticDistances::new(), 1, 1);
        let mut out = Vec::new();
        let mut t = 50_000_000u64;
        let mut seq = 0u64;
        b.iter(|| {
            t += 100_000_000;
            seq += 1;
            probe_fabric_round(&mut s, seq, t);
            s.advance(t);
            for q in &mut batch {
                q.now_ns = t;
            }
            s.serve_batch(&batch, &mut out);
            black_box(out.len())
        })
    });
    g.finish();
}

/// The PR-10 datacenter shape: a 512-switch Clos (256 leaf / 128 agg /
/// 64 spine / 64 core) probed by 960 hosts toward scheduler host 10000.
fn clos_chain(h: u32) -> [u32; 4] {
    [1000 + h % 256, 2000 + h % 128, 3000 + h % 64, 4000 + h % 64]
}

/// A fully learned 512-switch Clos behind a one-shard scheduler, with
/// two epochs already published so the incremental publisher holds its
/// prev/older lineage. Eviction is parked out of reach: the bench
/// prices publication, and an eviction mid-measurement would flip every
/// epoch back to the full rebuild.
fn clos_512_sched(incremental: bool) -> ShardedScheduler {
    let cfg = CoreConfig { eviction_horizon_ns: u64::MAX, ..CoreConfig::default() };
    let mut s = ShardedScheduler::new(10_000, cfg, StaticDistances::new(), 1, 1);
    s.set_incremental_publish(incremental);
    for h in 0..960u32 {
        s.core_mut().collector_mut().ingest(&probe_through(h, &clos_chain(h), h % 8), 50_000_000);
    }
    s.advance(50_000_000);
    s.core_mut().collector_mut().ingest(&probe_through(0, &clos_chain(0), 3), 50_100_000);
    s.advance(50_100_000);
    s
}

/// Epoch publication cost at 512-switch scale. `full` / `incremental`
/// are a sparse update (two probes sharing the agg/spine/core tiers → 7
/// distinct dirty edges per epoch): the full rebuild reprices every CSR
/// arc, the incremental path only the dirty ones — the PR-10 ratio.
/// `all_dirty` is the paper's own cadence: all 960 hosts re-probe, so
/// every learned edge is dirty and the incremental publish prices every
/// arc once, table-driven (the iteration includes the 960 ingests —
/// `ingest_throughput/clos_512s_960probes` prices those alone).
fn bench_publish_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("publish_throughput");
    for mode in ["full", "incremental"] {
        g.bench_function(BenchmarkId::new("clos_512s", mode), |b| {
            let mut s = clos_512_sched(mode == "incremental");
            let mut t = 50_100_000u64;
            let mut seq = 10u64;
            b.iter(|| {
                t += 100_000_000;
                seq += 1;
                let mut p0 = probe_through(0, &clos_chain(0), (seq % 8) as u32);
                p0.seq = seq;
                let mut p1 = probe_through(128, &clos_chain(128), (seq % 8) as u32);
                p1.seq = seq;
                s.core_mut().collector_mut().ingest(&p0, t);
                s.core_mut().collector_mut().ingest(&p1, t);
                black_box(s.advance(t))
            })
        });
    }
    g.bench_function(BenchmarkId::new("clos_512s", "all_dirty"), |b| {
        let mut s = clos_512_sched(true);
        // Depths that differ per host and per round, so every edge's
        // history staircase keeps moving.
        let round_of = |r: u32| -> Vec<ProbePayload> {
            (0..960u32).map(|h| probe_through(h, &clos_chain(h), (h + 3 * r) % 8)).collect()
        };
        let rounds: Vec<Vec<ProbePayload>> = (0..8).map(round_of).collect();
        let mut t = 50_100_000u64;
        let mut round = 0usize;
        b.iter(|| {
            t += 100_000_000;
            round += 1;
            s.core_mut().collector_mut().ingest_batch(&rounds[round % rounds.len()], t);
            black_box(s.advance(t))
        })
    });
    g.finish();
}

/// Batched probe drain: one epoch's backlog (every host re-probing its
/// learned 4-switch chain) through `ingest_batch`. Each probe is one walk
/// over its 5 edges — per edge one hash probe into the interned slab, a
/// delay-EWMA write and, past the first, a queue-harvest staircase
/// insert. Nothing is drained between iterations, so the dirty list
/// stays at its 1 472 edges.
fn bench_ingest_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("ingest_throughput");
    let backlog: Vec<ProbePayload> =
        (0..960u32).map(|h| probe_through(h, &clos_chain(h), h % 8)).collect();
    g.throughput(Throughput::Elements(backlog.len() as u64));
    g.bench_function("clos_512s_960probes", |b| {
        let mut col = IntCollector::new(10_000);
        col.ingest_batch(&backlog, 50_000_000); // learn topology once
        let mut t = 50_000_000u64;
        b.iter(|| {
            t += 100_000_000;
            col.ingest_batch(black_box(&backlog), t);
            black_box(col.probes_accepted())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_probe_ingest,
    bench_path_traversal,
    bench_delay_estimate,
    bench_ranking,
    bench_rank_throughput,
    bench_rank_throughput_kpaths,
    bench_rank_throughput_mt,
    bench_rank_throughput_churn,
    bench_publish_throughput,
    bench_ingest_throughput
);
criterion_main!(benches);
