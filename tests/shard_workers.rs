//! Shard worker threads start once and stop with their scheduler. A
//! multi-shard `ShardedScheduler` starts one `int-shard-<i>` thread per
//! shard past the first on its first published batch, keeps the same
//! threads for every later batch, and joins them when it drops: the drop
//! returns and leaves no `int-shard-` thread behind. Threads are counted
//! by name in `/proc/self/task/*/comm`; where `/proc` is absent only the
//! drops are checked.
//!
//! Single test function on purpose: a parallel test's schedulers would
//! show their own workers in the thread list.

#[path = "common/probe.rs"]
mod probes;

use int_edge_sched::core::rank::StaticDistances;
use int_edge_sched::core::shard::{RankQuery, ShardedScheduler};
use int_edge_sched::core::{CoreConfig, Policy};
use probes::{hop, probe};
use std::time::{Duration, Instant};

/// Live threads of this process named `int-shard-*`, or `None` without
/// `/proc`.
fn shard_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let names = tasks.filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok());
    Some(names.filter(|name| name.starts_with("int-shard-")).count())
}

/// `shard_threads()` once it reads `want`, or what it last read after a
/// second: a joined thread's task entry can outlive its join briefly.
fn settled_shard_threads(want: usize) -> Option<usize> {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let seen = shard_threads()?;
        if seen == want || Instant::now() >= deadline {
            return Some(seen);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Hosts 0–7, two on each of leaves 30–33, behind spine 20 and scheduler
/// host 100, learned and published at `now`.
fn published(shards: usize, now: u64) -> ShardedScheduler {
    let mut s = ShardedScheduler::new(100, CoreConfig::default(), StaticDistances::new(), 1, shards);
    for h in 0..8u32 {
        let hops = [hop(30 + h / 2, h, h / 2, 1_000_000, now - 1_000_000), hop(20, 3, 1, 2_000_000, now)];
        s.core_mut().collector_mut().ingest(&probe(h, 1, hops), now);
    }
    s.advance(now);
    s
}

#[test]
fn dropping_a_scheduler_joins_its_workers() {
    let now = 50_000_000;
    let batch: Vec<RankQuery> = (0..8u32)
        .flat_map(|requester| {
            [Policy::IntDelay, Policy::IntBandwidth].map(|policy| RankQuery { requester, policy, now_ns: now })
        })
        .collect();
    let mut out = Vec::new();
    for shards in [1, 2, 3, 8] {
        let mut s = published(shards, now);
        assert_eq!(shard_threads().unwrap_or(0), 0, "shards={shards}: no worker before the first batch");
        for _ in 0..3 {
            s.serve_batch(&batch, &mut out);
            assert!(out.iter().all(|o| !o.ranked.is_empty()), "shards={shards}");
            if let Some(live) = shard_threads() {
                assert_eq!(live, shards - 1, "shards={shards}: one worker per shard past the first, kept");
            }
        }
        drop(s);
        if let Some(left) = settled_shard_threads(0) {
            assert_eq!(left, 0, "shards={shards}: the drop joins every worker");
        }
    }

    // A scheduler that moved to another thread and dropped there joins
    // its workers as well.
    let mut s = published(2, now);
    s.serve_batch(&batch, &mut out);
    std::thread::spawn(move || drop(s)).join().expect("the drop returns");
    if let Some(left) = settled_shard_threads(0) {
        assert_eq!(left, 0, "a scheduler dropped on another thread joins its workers");
    }
}
