//! Compute-aware scheduling extension.
//!
//! The paper's conclusion names taking the availability of compute on
//! edge servers into account as future work. This module implements it
//! as a post-processing layer over the network ranking: re-order by a
//! blend of network estimate and current server load. (Its other
//! direction, hardware/software requirements such as a GPU, has no
//! workload here that needs it, so nothing filters on capabilities.)

use crate::rank::RankedServer;
use serde::Serialize;
use std::collections::BTreeMap;

/// Tracked compute state of the fleet.
#[derive(Debug, Clone, Default)]
pub struct ComputeTracker {
    /// Outstanding tasks per server (incremented on dispatch, overwritten
    /// by executor load reports).
    load: BTreeMap<u32, u32>,
    /// Task slots per server (1 = serial executor).
    slots: BTreeMap<u32, u32>,
}

impl ComputeTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a server with its parallel slots.
    pub fn register(&mut self, host: u32, slots: u32) {
        self.slots.insert(host, slots.max(1));
        self.load.entry(host).or_insert(0);
    }

    /// A task was dispatched to `host`.
    pub fn on_dispatch(&mut self, host: u32) {
        *self.load.entry(host).or_insert(0) += 1;
    }

    /// Overwrite `host`'s outstanding-task count from an absolute load
    /// report (executors push these; reports win over the dispatch
    /// deltas because they come from the ground truth).
    pub fn set_load(&mut self, host: u32, outstanding: u32) {
        self.load.insert(host, outstanding);
    }

    /// Current outstanding tasks on `host`.
    pub fn load(&self, host: u32) -> u32 {
        self.load.get(&host).copied().unwrap_or(0)
    }

    /// Parallel slots registered for `host` (1 when unregistered).
    pub fn slots(&self, host: u32) -> u32 {
        self.slots.get(&host).copied().unwrap_or(1).max(1)
    }

    /// Queue pressure: outstanding tasks beyond the server's slots, i.e.
    /// tasks that are actually *waiting* (0 while every task has a slot).
    pub fn pressure(&self, host: u32) -> u32 {
        self.load(host).saturating_sub(self.slots(host))
    }

    /// Compute-aware re-ranking: stable-sort a network ranking by queue
    /// pressure so equally loaded servers keep their network order, but a
    /// backlogged server drops behind an idle one. `exec_est_ns` is the
    /// caller's estimate of one task's execution time, used to convert
    /// pressure into a delay penalty comparable with network delay. The
    /// queued backlog drains across all of the server's slots in parallel,
    /// so the wait estimate divides by the slot count.
    pub fn rerank(&self, ranked: &[RankedServer], exec_est_ns: u64) -> Vec<RankedServer> {
        let mut out: Vec<RankedServer> = ranked.to_vec();
        out.sort_by_key(|s| (self.queue_wait_est_ns(s.host, exec_est_ns).saturating_add(s.est_delay_ns), s.host));
        out
    }

    /// Estimated queue wait for a task newly dispatched to `host`: the
    /// queued backlog, drained across the server's parallel slots.
    pub fn queue_wait_est_ns(&self, host: u32, exec_est_ns: u64) -> u64 {
        self.pressure(host) as u64 * exec_est_ns / self.slots(host) as u64
    }
}

/// Composite scheduling policies blending the INT network ranking with the
/// tracked compute load (ROADMAP item 4; the paper's compute-availability
/// future work). Applied by the scheduler as a post-processing step over
/// the network ranking produced by a base [`crate::Policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CompositePolicy {
    /// Pure network ranking (the paper's scheme); compute load ignored.
    NetworkOnly,
    /// Pure load ranking: fewest outstanding tasks first, network ignored.
    LeastLoaded,
    /// INT network delay plus estimated queue wait ([`ComputeTracker::rerank`]).
    IntLeastLoaded,
    /// Same placement as [`CompositePolicy::IntLeastLoaded`], but executors
    /// drain their run queues earliest-deadline-first.
    IntEdf,
}

impl CompositePolicy {
    /// All composites, baseline order (the workflow experiment's grid).
    pub const ALL: [CompositePolicy; 4] = [
        CompositePolicy::NetworkOnly,
        CompositePolicy::LeastLoaded,
        CompositePolicy::IntLeastLoaded,
        CompositePolicy::IntEdf,
    ];

    /// Stable name for artifacts and tables.
    pub fn name(&self) -> &'static str {
        match self {
            CompositePolicy::NetworkOnly => "NetworkOnly",
            CompositePolicy::LeastLoaded => "LeastLoaded",
            CompositePolicy::IntLeastLoaded => "IntLeastLoaded",
            CompositePolicy::IntEdf => "IntEdf",
        }
    }

    /// Does this composite consult INT telemetry (vs. load/static only)?
    pub fn uses_int(&self) -> bool {
        !matches!(self, CompositePolicy::LeastLoaded)
    }

    /// Should executors order their run queues earliest-deadline-first?
    pub fn edf_executor(&self) -> bool {
        matches!(self, CompositePolicy::IntEdf)
    }

    /// Re-order a network ranking in place according to this composite.
    pub fn apply(&self, tracker: &ComputeTracker, ranked: &mut Vec<RankedServer>, exec_est_ns: u64) {
        match self {
            CompositePolicy::NetworkOnly => {}
            CompositePolicy::LeastLoaded => {
                ranked.sort_by_key(|s| (tracker.load(s.host), s.host));
            }
            CompositePolicy::IntLeastLoaded | CompositePolicy::IntEdf => {
                *ranked = tracker.rerank(ranked, exec_est_ns);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(host: u32, delay_ms: u64) -> RankedServer {
        RankedServer {
            host,
            est_delay_ns: delay_ms * 1_000_000,
            est_bandwidth_bps: 10_000_000,
        }
    }

    #[test]
    fn load_tracking_and_pressure() {
        let mut t = ComputeTracker::new();
        t.register(1, 2);
        assert_eq!(t.pressure(1), 0);
        t.on_dispatch(1);
        assert_eq!(t.load(1), 1);
        assert_eq!(t.pressure(1), 0, "one free slot left");
        t.on_dispatch(1);
        assert_eq!(t.pressure(1), 0, "both slots busy but nothing queued");
        t.on_dispatch(1);
        assert_eq!(t.pressure(1), 1, "one task actually waits");
    }

    #[test]
    fn set_load_overwrites_deltas() {
        let mut t = ComputeTracker::new();
        t.register(1, 1);
        t.on_dispatch(1);
        t.set_load(1, 5);
        assert_eq!(t.load(1), 5);
        assert_eq!(t.pressure(1), 4);
        t.set_load(1, 0);
        assert_eq!(t.pressure(1), 0);
    }

    #[test]
    fn queue_wait_drains_across_slots() {
        let mut t = ComputeTracker::new();
        t.register(1, 1);
        t.register(2, 4);
        // Same backlog of 4 queued tasks on both…
        for _ in 0..5 {
            t.on_dispatch(1);
        }
        for _ in 0..8 {
            t.on_dispatch(2);
        }
        assert_eq!(t.pressure(1), 4);
        assert_eq!(t.pressure(2), 4);
        // …but host 2 drains it 4× as fast.
        assert_eq!(t.queue_wait_est_ns(1, 100), 400);
        assert_eq!(t.queue_wait_est_ns(2, 100), 100);
    }

    #[test]
    fn rerank_pushes_backlogged_server_down() {
        let mut t = ComputeTracker::new();
        t.register(1, 1);
        t.register(2, 1);
        // Network prefers host 1 (30 ms vs 50 ms)…
        let ranked = vec![server(1, 30), server(2, 50)];
        // …but host 1 has 3 outstanding tasks of ~100 ms each.
        for _ in 0..3 {
            t.on_dispatch(1);
        }
        let out = t.rerank(&ranked, 100_000_000);
        assert_eq!(out[0].host, 2, "idle-but-farther server wins under load");
        // With negligible execution estimates the network order returns.
        let out = t.rerank(&ranked, 1);
        assert_eq!(out[0].host, 1);
    }

    #[test]
    fn composite_policies_reorder_as_documented() {
        let mut t = ComputeTracker::new();
        t.register(1, 1);
        t.register(2, 1);
        // Network prefers host 1; host 1 carries a 3-task backlog.
        let base = vec![server(1, 30), server(2, 50)];
        for _ in 0..3 {
            t.on_dispatch(1);
        }

        let mut r = base.clone();
        CompositePolicy::NetworkOnly.apply(&t, &mut r, 100_000_000);
        assert_eq!(r[0].host, 1, "network-only ignores load");

        let mut r = base.clone();
        CompositePolicy::LeastLoaded.apply(&t, &mut r, 100_000_000);
        assert_eq!(r[0].host, 2, "least-loaded ignores network");

        for p in [CompositePolicy::IntLeastLoaded, CompositePolicy::IntEdf] {
            let mut r = base.clone();
            p.apply(&t, &mut r, 100_000_000);
            assert_eq!(r[0].host, 2, "{p:?} penalizes the backlog");
            let mut r = base.clone();
            p.apply(&t, &mut r, 1);
            assert_eq!(r[0].host, 1, "{p:?} keeps network order when exec is negligible");
        }

        assert!(CompositePolicy::IntEdf.edf_executor());
        assert!(!CompositePolicy::IntLeastLoaded.edf_executor());
        assert!(!CompositePolicy::LeastLoaded.uses_int());
        let names: Vec<&str> = CompositePolicy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["NetworkOnly", "LeastLoaded", "IntLeastLoaded", "IntEdf"]);
    }
}
