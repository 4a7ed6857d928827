//! Sustained load: the sharded control plane under a churning fabric.
//!
//! A 64-switch / 128-host leaf-spine-ish fabric feeds the [`ShardedScheduler`]
//! continuously: every 100 ms round, each live host emits a probe with
//! LCG-churned queue depths and link latencies, the publisher freezes a
//! new epoch, and a batch of rank queries is admitted and served by the
//! read shards. Mid-run a fault window silences every eighth host —
//! long enough to trip both the origin-silence exclusion (3 s) and
//! telemetry eviction (5 s here) — then they come back and the map
//! recovers. At full scale this is 256 rounds × 4096 queries ≈ 1M rank
//! queries against ~2.5k published epochs' worth of churn.
//!
//! The artifact is a **digest**, not a measurement: an FNV-1a hash over
//! every outcome in admission order (hosts, estimates, exclusion
//! reasons), plus the run's shape. It deliberately contains no wall
//! time, worker count, or publish accounting, so the bytes on disk are
//! identical for any shard count, for full-rebuild instead of incremental
//! publication, *and* for the single-threaded replay ([`run_oracle`])
//! that bypasses the shards entirely — that equality is the whole point
//! (`tests/shard_determinism.rs`). Timing (throughput, batch p99) goes to
//! stdout.

use crate::report;
use int_core::rank::StaticDistances;
use int_core::shard::{RankQuery, ShardedScheduler};
use int_core::{CoreConfig, Policy, RankOutcome, SchedulerCore};
use int_packet::int::IntRecord;
use int_packet::ProbePayload;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Hosts in the fabric.
pub const HOSTS: u32 = 128;
/// Scheduler's own host id.
pub const SCHEDULER: u32 = 1000;
/// Round cadence on the collector clock, ns (the paper's 100 ms).
const ROUND_NS: u64 = 100_000_000;
/// Rounds at full scale.
const FULL_ROUNDS: usize = 256;
/// Queries admitted per round at full scale (≈1M total).
const FULL_QPR: usize = 4096;

/// The saved artifact: run shape + outcome digest. Nothing in here may
/// depend on worker count or wall time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SustainedOutput {
    /// RNG seed the run was driven by.
    pub seed: u64,
    /// Ingest/publish rounds executed.
    pub rounds: usize,
    /// Queries admitted per round.
    pub queries_per_round: usize,
    /// Total rank queries served.
    pub total_queries: u64,
    /// Hosts in the fabric.
    pub hosts: u32,
    /// Switches in the fabric.
    pub switches: u32,
    /// Hosts silenced during the fault window (h % 8 == seed % 8).
    pub faulted_hosts: usize,
    /// Queries that came back with a non-empty ranking.
    pub answered: u64,
    /// Candidates excluded as `OriginSilent` across all outcomes.
    pub excluded_silent: u64,
    /// Candidates excluded as `NoFreshPath` across all outcomes.
    pub excluded_no_path: u64,
    /// FNV-1a 64 digest over every outcome in admission order.
    pub digest: String,
}

/// Timing sidecar (stdout only — never serialized next to the digest).
#[derive(Debug, Clone)]
pub struct SustainedPerf {
    /// Read shards used.
    pub shards: usize,
    /// Epochs published.
    pub publishes: u64,
    /// Wall time spent inside `serve_batch`, ms.
    pub serve_wall_ms: f64,
    /// End-to-end wall time (ingest + publish + serve), ms.
    pub total_wall_ms: f64,
    /// p99 of per-batch serve latency, µs.
    pub p99_batch_us: f64,
    /// Aggregate served throughput, queries/s.
    pub qps: f64,
}

/// Deterministic 64-bit LCG step (MMIX constants).
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state
}

/// The switch chain host `h` probes through — 32 leaf, 16 aggregation,
/// 8 spine, 8 core switches shared across hosts.
fn chain(h: u32) -> [u32; 4] {
    [100 + h % 32, 200 + h % 16, 300 + h % 8, 400 + (h / 16) % 8]
}

/// Build host `h`'s probe for `round`, with queue depths and link
/// latencies churned from the seeded LCG.
fn probe_for(seed: u64, round: usize, h: u32, now_ns: u64) -> ProbePayload {
    let mut p = ProbePayload::new(h, round as u64, 0);
    let mut st = seed ^ ((round as u64) << 32) ^ ((h as u64) << 8) ^ 0x5DEE_CE66;
    lcg(&mut st);
    for (i, sw) in chain(h).into_iter().enumerate() {
        let maxq = (lcg(&mut st) % 40) as u32;
        p.int.push(IntRecord {
            switch_id: sw,
            ingress_port: 0,
            egress_port: 1,
            max_qlen_pkts: maxq,
            qlen_at_probe_pkts: maxq / 2,
            link_latency_ns: 5_000_000 + lcg(&mut st) % 10_000_000,
            egress_ts_ns: now_ns.saturating_sub((4 - i as u64) * 50_000),
        });
    }
    p
}

/// Is `h` silenced at `round`? The fault window spans rounds
/// `[rounds/4, rounds/2)` and hits every eighth host.
fn faulted(seed: u64, rounds: usize, round: usize, h: u32) -> bool {
    (rounds / 4..rounds / 2).contains(&round) && h % 8 == (seed % 8) as u32
}

/// The probes arriving in `round`: one per host outside the fault window.
fn live_probes(
    seed: u64,
    rounds: usize,
    round: usize,
    now_ns: u64,
) -> impl Iterator<Item = ProbePayload> {
    (0..HOSTS)
        .filter(move |&h| !faulted(seed, rounds, round, h))
        .map(move |h| probe_for(seed, round, h, now_ns))
}

/// The query mix admitted at `round`: requesters stride over the host
/// space, policies cycle through the three deterministic ones (Random
/// is slot-seeded in the sharded plane and so deliberately diverges
/// from the sequential RNG stream — it has no oracle to compare to).
fn queries_for(round: usize, qpr: usize, now_ns: u64, out: &mut Vec<RankQuery>) {
    out.clear();
    for i in 0..qpr {
        let requester = ((round * 31 + i * 7) % HOSTS as usize) as u32;
        let policy = match i % 3 {
            0 => Policy::IntDelay,
            1 => Policy::IntBandwidth,
            _ => Policy::Nearest,
        };
        out.push(RankQuery { requester, policy, now_ns });
    }
}

/// Scheduler config for the scenario: a 5 s eviction horizon so the
/// fault window (≥6.4 s at full scale) actually evicts dead telemetry.
fn scenario_config() -> CoreConfig {
    CoreConfig { eviction_horizon_ns: 5_000_000_000, ..CoreConfig::default() }
}

/// Static hop counts for the Nearest baseline: leaf-sharing hosts are 2
/// hops apart, everyone else 4 — derived from the chain shape, so it is
/// identical however the scheduler is built.
fn distances() -> StaticDistances {
    let mut d = StaticDistances::new();
    for a in 0..HOSTS {
        for b in (a + 1)..HOSTS {
            let hops = if a % 32 == b % 32 { 2 } else { 4 };
            d.set(a, b, hops);
        }
    }
    d
}

/// FNV-1a 64 running digest over outcome bytes.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf29ce484222325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }
    fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
}

/// Fold one outcome (with its admitted query) into the digest and the
/// artifact's tallies.
fn fold(acc: &mut SustainedOutput, d: &mut Digest, q: &RankQuery, o: &RankOutcome) {
    d.u32(q.requester);
    d.byte(match q.policy {
        Policy::IntDelay => 0,
        Policy::IntBandwidth => 1,
        Policy::Nearest => 2,
        Policy::Random => 3,
    });
    d.u32(o.ranked.len() as u32);
    for r in &o.ranked {
        d.u32(r.host);
        d.u64(r.est_delay_ns);
        d.u64(r.est_bandwidth_bps);
    }
    d.u32(o.excluded.len() as u32);
    for (h, reason) in &o.excluded {
        d.u32(*h);
        let silent = matches!(reason, int_core::ExcludeReason::OriginSilent);
        d.byte(silent as u8);
        if silent {
            acc.excluded_silent += 1;
        } else {
            acc.excluded_no_path += 1;
        }
    }
    if !o.ranked.is_empty() {
        acc.answered += 1;
    }
    acc.total_queries += 1;
}

fn empty_output(seed: u64, rounds: usize, qpr: usize) -> SustainedOutput {
    SustainedOutput {
        seed,
        rounds,
        queries_per_round: qpr,
        total_queries: 0,
        hosts: HOSTS,
        switches: 64,
        faulted_hosts: (0..HOSTS).filter(|h| h % 8 == (seed % 8) as u32).count(),
        answered: 0,
        excluded_silent: 0,
        excluded_no_path: 0,
        digest: String::new(),
    }
}

/// The scenario's scheduler: `shards` read workers, every host known.
pub fn scheduler(seed: u64, shards: usize) -> ShardedScheduler {
    let mut sched =
        ShardedScheduler::new(SCHEDULER, Arc::new(scenario_config()), distances(), seed, shards);
    for h in 0..HOSTS {
        sched.core_mut().register_host(h);
    }
    sched
}

/// Run the scenario through the sharded plane with `shards` read
/// workers. The artifact is worker-count-invariant; the perf sidecar is
/// not (and must stay out of the artifact).
pub fn run(seed: u64, rounds: usize, qpr: usize, shards: usize) -> (SustainedOutput, SustainedPerf) {
    run_on(scheduler(seed, shards), seed, rounds, qpr)
}

/// [`run`] on a caller-prepared [`scheduler`] (of the same `seed`).
pub fn run_on(
    mut sched: ShardedScheduler,
    seed: u64,
    rounds: usize,
    qpr: usize,
) -> (SustainedOutput, SustainedPerf) {
    let mut out = empty_output(seed, rounds, qpr);
    let mut digest = Digest::new();
    let mut queries = Vec::with_capacity(qpr);
    let mut outcomes: Vec<RankOutcome> = Vec::with_capacity(qpr);
    let mut batch_ns: Vec<u64> = Vec::with_capacity(rounds);
    let mut backlog: Vec<ProbePayload> = Vec::with_capacity(HOSTS as usize);
    let t0 = Instant::now();
    let mut serve_ns = 0u64;

    for round in 0..rounds {
        let now = (round as u64 + 1) * ROUND_NS;
        // The round's probes arrive as a backlog and are drained into
        // one epoch — the batched ingest path (identical map state to
        // ingesting them one at a time, which `run_oracle` still does).
        backlog.clear();
        backlog.extend(live_probes(seed, rounds, round, now));
        sched.ingest_batch(&backlog, now);
        queries_for(round, qpr, now, &mut queries);
        let t = Instant::now();
        sched.serve_batch(&queries, &mut outcomes);
        let dt = t.elapsed().as_nanos() as u64;
        serve_ns += dt;
        batch_ns.push(dt);
        for (q, o) in queries.iter().zip(&outcomes) {
            fold(&mut out, &mut digest, q, o);
        }
    }
    out.digest = format!("{:016x}", digest.0);

    batch_ns.sort_unstable();
    let p99 = batch_ns[(batch_ns.len() - 1) * 99 / 100];
    let perf = SustainedPerf {
        shards: sched.shard_count(),
        publishes: sched.epoch(),
        serve_wall_ms: serve_ns as f64 / 1e6,
        total_wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        p99_batch_us: p99 as f64 / 1e3,
        qps: if serve_ns > 0 { out.total_queries as f64 / (serve_ns as f64 / 1e9) } else { 0.0 },
    };
    (out, perf)
}

/// Replay the identical scenario through a plain single-threaded
/// [`SchedulerCore`] — one scratch, no shards, probes ingested one at a
/// time. Produces the same artifact struct, byte-identical to
/// [`run`]'s. Oracle: `tests/invariance.rs` pins both to one digest.
pub fn run_oracle(seed: u64, rounds: usize, qpr: usize) -> SustainedOutput {
    let mut core = SchedulerCore::new(SCHEDULER, scenario_config(), distances(), seed);
    for h in 0..HOSTS {
        core.register_host(h);
    }
    let mut out = empty_output(seed, rounds, qpr);
    let mut digest = Digest::new();
    let mut queries = Vec::with_capacity(qpr);
    let mut outcome = RankOutcome::default();
    for round in 0..rounds {
        let now = (round as u64 + 1) * ROUND_NS;
        for p in live_probes(seed, rounds, round, now) {
            core.collector_mut().ingest(&p, now);
        }
        queries_for(round, qpr, now, &mut queries);
        for q in &queries {
            core.rank_detailed_into_with(q.requester, q.policy, q.now_ns, &mut outcome);
            fold(&mut out, &mut digest, q, &outcome);
        }
    }
    out.digest = format!("{:016x}", digest.0);
    out
}

/// Scale the full-size run shape by `scale` (CI smoke uses small
/// fractions; floors keep the fault window and batches meaningful).
pub fn shape(scale: f64) -> (usize, usize) {
    let rounds = ((FULL_ROUNDS as f64 * scale) as usize).max(8);
    let qpr = ((FULL_QPR as f64 * scale) as usize).max(64);
    (rounds, qpr)
}

/// Human-readable summary table.
pub fn render(out: &SustainedOutput) -> String {
    report::table(
        &["queries", "answered", "silent-excl", "nopath-excl", "rounds", "digest"],
        &[vec![
            out.total_queries.to_string(),
            out.answered.to_string(),
            out.excluded_silent.to_string(),
            out.excluded_no_path.to_string(),
            out.rounds.to_string(),
            out.digest.clone(),
        ]],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `tests/invariance.rs` compares the serving stack with itself (one
    /// scratch vs N shards). This one holds it to the reference ranker
    /// over the live map — O(N·E) per query at this scale, so only every
    /// 61st query of the stream is checked, at the full cadence so the
    /// fault window trips silence, then eviction, then recovers.
    #[test]
    fn sampled_answers_match_the_reference_ranker() {
        use int_core::ExcludeReason::{NoFreshPath, OriginSilent};
        let (seed, rounds, qpr) = (5, FULL_ROUNDS, 64);
        let mut sched = scheduler(seed, 2);
        let mut reference = int_core::rank::Ranker::new(scenario_config(), distances(), seed);
        let (mut queries, mut outcomes) = (Vec::new(), Vec::new());
        let (mut silent, mut no_path) = (0, 0);
        for round in 0..rounds {
            let now = (round as u64 + 1) * ROUND_NS;
            let backlog: Vec<ProbePayload> = live_probes(seed, rounds, round, now).collect();
            sched.ingest_batch(&backlog, now);
            queries_for(round, qpr, now, &mut queries);
            sched.serve_batch(&queries, &mut outcomes);
            for i in (0..qpr).filter(|i| (round * qpr + i) % 61 == 0) {
                let q = queries[i];
                let want =
                    reference.answer(sched.core().collector(), q.requester, q.policy, q.now_ns);
                assert_eq!(outcomes[i], want, "round {round} query {i}: {q:?}");
                silent += want.excluded.iter().filter(|(_, r)| *r == OriginSilent).count();
                no_path += want.excluded.iter().filter(|(_, r)| *r == NoFreshPath).count();
            }
        }
        assert!(silent > 0 && no_path > 0, "the sample must cross the fault window");
    }

    #[test]
    fn fault_window_produces_silent_exclusions_at_scale() {
        // Full cadence: silence horizon is 3 s = 30 rounds; a 64-round
        // window (rounds 64..128 of 256) leaves plenty of silent rounds.
        let (out, _) = run(1, 140, 64, 2);
        assert!(out.excluded_silent > 0, "fault window never tripped silence: {out:?}");
        assert_eq!(out.answered, out.total_queries, "live hosts always rankable");
    }

    #[test]
    fn shape_floors_apply() {
        assert_eq!(shape(1.0), (FULL_ROUNDS, FULL_QPR));
        assert_eq!(shape(0.01), (8, 64));
    }
}
