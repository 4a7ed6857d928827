//! The metric tables: every name a later performance claim must use.
//! `BENCHMARK.json` is generated from this file (`intbench --spec`).

use crate::json::{obj, s};
use crate::workload::Workload;
use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// A difference smaller than this (in the metric's unit) is never a
    /// regression: a set-up of a millisecond that doubles is noise.
    pub floor: f64,
}

/// How long one run measures, seconds.
pub const RUN_SECONDS: u64 = 18;

pub const SETUP_S: &str = "setup_s";
pub const OPS_PER_S: &str = "ops_per_s";
pub const LATENCY_P50: &str = "latency_ms_p50";
pub const LATENCY_P90: &str = "latency_ms_p90";

/// Every workload reports every one of these. `ops_per_s` counts
/// simulated events on `des_*`, rank queries on `ctl_churn`/`ctl_warm`
/// and probes on `ctl_ingest`, each over the time inside the program's
/// calls; a `latency_ms` sample is one `runner::run`/`giant::run` call per
/// million events it simulated on `des_*`, one `serve_batch` call on
/// `ctl_churn`/`ctl_warm`, and one round from first probe byte to ranked
/// answer on `ctl_ingest`.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: OPS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: LATENCY_P50,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: LATENCY_P90,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.05,
    },
];

use Better::{Higher, Lower};

/// Per-layer metrics, reported by a traced run. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [(&str, &str, Better); 77] = [
    // packet: unit costs (1514 B TCP frame, 1472 B UDP payload, 4-record
    // probe) and the decode spans of ctl_ingest
    ("packet.parse_ns", "ns", Lower),
    ("packet.build_udp_ns", "ns", Lower),
    ("packet.probe_decode_ns", "ns", Lower),
    ("packet.probe_encode_ns", "ns", Lower),
    ("packet.decode_busy_s", "s", Lower),
    ("packet.parse_errors", "count", Lower),
    // dataplane: unit costs at the workload's route count, counts, and
    // ingress cost × frames forwarded as a share of the run
    ("dataplane.ingress_data_ns", "ns", Lower),
    ("dataplane.ingress_probe_ns", "ns", Lower),
    ("dataplane.probe_transit_ns", "ns", Lower),
    ("dataplane.lpm_lookup_ns", "ns", Lower),
    ("dataplane.frames_forwarded", "count", Lower),
    ("dataplane.drops", "count", Lower),
    ("dataplane.est_share", "share", Lower),
    // netsim: the stepped twin's run spans and the event queue
    ("netsim.run_busy_s", "s", Lower),
    ("netsim.events", "count", Lower),
    ("netsim.ns_per_event", "ns", Lower),
    ("netsim.epoch_ns_per_event_max", "ns", Lower),
    ("netsim.evq_depth_p50", "count", Lower),
    ("netsim.evq_depth_max", "count", Lower),
    ("netsim.evq_push_pop_ns", "ns", Lower),
    ("netsim.evq_est_share", "share", Lower),
    ("netsim.frames_delivered", "count", Higher),
    ("netsim.drops_queue_full", "count", Lower),
    ("netsim.pool_reuse_share", "share", Higher),
    ("netsim.build_s", "s", Lower),
    ("netsim.unattributed_share", "share", Lower),
    // apps: the in-sim scheduler and task apps (des_testbed), timed
    // callbacks (des_fabric)
    ("apps.sched_queries", "count", Higher),
    ("apps.sched_probes", "count", Higher),
    ("apps.sched_exclusions", "count", Lower),
    ("apps.tasks_completed", "count", Higher),
    ("apps.tasks_incomplete", "count", Lower),
    ("apps.sim_task_completion_ms", "ms", Lower),
    ("apps.callback_busy_s", "s", Lower),
    ("apps.callbacks", "count", Lower),
    ("apps.est_share", "share", Lower),
    // core inside the simulation (des_testbed)
    ("core.pathidx.sssp_runs", "count", Lower),
    ("core.pathidx.cache_hit_share", "share", Higher),
    ("core.pathidx.csr_rebuilds", "count", Lower),
    ("core.sched.rank_ns", "ns", Lower),
    ("core.sched.est_share", "share", Lower),
    // core.collector / core.map (ctl_*)
    ("core.collector.ingest_busy_s", "s", Lower),
    ("core.collector.probes", "count", Higher),
    ("core.collector.ns_per_probe", "ns", Lower),
    ("core.collector.duplicates", "count", Lower),
    ("core.collector.reordered", "count", Lower),
    ("core.map.edges", "count", Lower),
    ("core.map.dirty_edges_p50", "count", Lower),
    ("core.map.topology_generations", "count", Lower),
    // core.snapshot (ctl_*)
    ("core.snapshot.publish_busy_s", "s", Lower),
    ("core.snapshot.publishes", "count", Lower),
    ("core.snapshot.publish_us_p50", "us", Lower),
    ("core.snapshot.publish_us_max", "us", Lower),
    ("core.snapshot.full_builds", "count", Lower),
    ("core.snapshot.incremental_share", "share", Higher),
    // core.shard (ctl_*); counters and per-policy costs come from the
    // single-threaded replay of the same queries
    ("core.shard.serve_busy_s", "s", Lower),
    ("core.shard.queries", "count", Higher),
    ("core.shard.us_per_query", "us", Lower),
    ("core.shard.us_per_query.int_delay", "us", Lower),
    ("core.shard.us_per_query.int_bandwidth", "us", Lower),
    ("core.shard.us_per_query.nearest", "us", Lower),
    ("core.shard.sssp_runs", "count", Lower),
    ("core.shard.sssp_per_query", "count", Lower),
    ("core.shard.path_cache_misses", "count", Lower),
    ("core.shard.path_cache_hit_share", "share", Higher),
    ("core.shard.excluded_silent", "count", Lower),
    ("core.shard.excluded_no_path", "count", Lower),
    ("core.shard.answered_share", "share", Higher),
    ("core.shard.parallel_efficiency", "share", Higher),
    // obs (des_fabric)
    ("obs.export_busy_s", "s", Lower),
    ("obs.export_bytes", "bytes", Lower),
    ("obs.est_share", "share", Lower),
    // workload / experiments (des_testbed)
    ("workload.gen_ms", "ms", Lower),
    // the harness itself
    ("trace.overhead_share", "share", Lower),
    ("trace.spans", "count", Lower),
    ("trace.span_coverage", "share", Higher),
    ("trace.repetitions", "count", Higher),
    // the process: VmHWM at the end of the traced run, tracer included
    ("mem.peak_rss_mb", "MB", Lower),
];

/// The benchmark contract, as `BENCHMARK.json` states it.
pub fn benchmark_json() -> Value {
    let strings = |v: &[&str]| Value::Array(v.iter().map(|x| s(*x)).collect());
    obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "intbench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["intbench"])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                Workload::ALL
                    .iter()
                    .map(|w| obj([("name", s(w.name())), ("why", s(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        obj([
                            ("name", s(*name)),
                            ("unit", s(*unit)),
                            ("better", s(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract() {
        let mut names = BTreeSet::new();
        for m in END_TO_END {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for (name, unit, _) in PER_LAYER {
            assert!(name_ok(name) && names.insert(name), "{name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == SETUP_S && m.unit == "s" && m.better == Better::Lower));
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && names.insert(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}: {}",
                w.name(),
                w.why().len()
            );
        }
        let runs = 4 + 22 * Workload::ALL.len() as u64;
        assert!(
            runs * (RUN_SECONDS + 8) + 300 < 3420,
            "the driver's run budget"
        );
    }

    #[test]
    fn benchmark_json_is_generated_from_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            crate::json::parse(&on_disk).unwrap(),
            benchmark_json(),
            "regenerate with `intbench --spec > BENCHMARK.json`"
        );
    }
}
