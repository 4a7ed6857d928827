//! The invariance matrix: same seed ⇒ the same artifact bytes under every
//! execution strategy, and the same bytes as history.
//!
//! One table. Each row runs a scenario in-process at the shape
//! `repro <scenario> --seed 1` uses for CI smokes, under one execution
//! strategy, and returns the artifact exactly as `repro` would write it.
//! Every row of a scenario must hash to that scenario's pin — length and
//! FNV-1a 64, taken from the commit before this file existed — so a
//! strategy that diverges from the others *and* a change that moves every
//! strategy together both fail, naming `scenario × strategy`.
//!
//! `heavy` rows (the workflow sweep has a ≈ 20 s floor unoptimised) run
//! only in optimised builds: `cargo test --workspace --release` in
//! `scripts/ci.sh` covers them.

use int_edge_sched::experiments::giant::GiantParams;
use int_edge_sched::experiments::{audit, fabric, failover, giant, sustained, workflow};

const SEED: u64 = 1;

/// `(scenario, strategy, heavy, artifact bytes)`.
type Row = (&'static str, &'static str, bool, fn() -> Vec<u8>);

const ROWS: &[Row] = &[
    ("failover", "workers=1", false, || failover(1)),
    ("failover", "workers=4", false, || failover(4)),
    ("audit", "workers=1", false, || audit(1)),
    ("audit", "workers=4", false, || audit(4)),
    ("fabric", "workers=1", false, || fabric(1)),
    ("fabric", "workers=4", false, || fabric(4)),
    ("workflow", "workers=1", true, || workflow(1)),
    ("workflow", "workers=4", true, || workflow(4)),
    ("sustained", "oracle replay", false, sustained_oracle),
    ("sustained", "shards=1", false, || sustained(1)),
    ("sustained", "shards=2", false, || sustained(2)),
    ("sustained", "shards=8", false, || sustained(8)),
    ("sustained", "full-rebuild publish", false, sustained_full_rebuild),
    ("giant", "domains=1", false, || giant(1)),
    ("giant", "domains=2", false, || giant(2)),
    ("giant", "domains=4", false, || giant(4)),
];

/// `(scenario, artifact length, FNV-1a 64)`.
const PINS: &[(&str, usize, u64)] = &[
    ("failover", 665, 0x33f8_640f_36c8_9022),
    ("audit", 142_440, 0x537b_6290_5801_98d1),
    ("fabric", 825, 0xe44f_20a7_6784_5f8c),
    ("workflow", 5_818, 0x0a97_4a04_1832_25f3),
    ("sustained", 242, 0x74f0_f7b1_11b2_f2c4),
    ("giant", 29_928, 0x7289_f8f3_53a9_6dc0),
];

#[test]
fn every_strategy_reproduces_the_pinned_artifact() {
    for &(scenario, strategy, heavy, run) in ROWS {
        if heavy && cfg!(debug_assertions) {
            continue;
        }
        let bytes = run();
        let fnv = bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3));
        let &(_, len, pin) = PINS.iter().find(|p| p.0 == scenario).expect("scenario has a pin");
        assert_eq!(
            (bytes.len(), fnv),
            (len, pin),
            "{scenario} × {strategy}: artifact moved (got len {}, fnv {fnv:#018x})",
            bytes.len()
        );
    }
}

/// What `report::save_json` writes.
macro_rules! artifact {
    ($out:expr) => {
        serde_json::to_string_pretty($out).expect("serializable").into_bytes()
    };
}

/// `repro failover --scale 0.25`: the first probing interval only.
fn failover(workers: usize) -> Vec<u8> {
    let ivs = &failover::default_intervals()[..1];
    artifact!(&failover::run_sweep_with(workers, SEED, ivs))
}

/// `repro audit --scale 0.5`: the first probing interval only.
fn audit(workers: usize) -> Vec<u8> {
    let ivs = &audit::default_intervals()[..1];
    artifact!(&audit::run_with(workers, SEED, ivs))
}

/// `repro fabric --scale 0.05`.
fn fabric(workers: usize) -> Vec<u8> {
    artifact!(&fabric::run_with(workers, &fabric::FabricParams::at_scale(SEED, 0.05)))
}

/// `repro workflow --scale 0.25`.
fn workflow(workers: usize) -> Vec<u8> {
    artifact!(&workflow::run_sweep_with(workers, SEED, 0.25))
}

/// `repro sustained --scale 0.05`.
fn sustained_shape() -> (usize, usize) {
    sustained::shape(0.05)
}

fn sustained(shards: usize) -> Vec<u8> {
    let (rounds, qpr) = sustained_shape();
    let (out, perf) = sustained::run_with(SEED, rounds, qpr, shards);
    assert_eq!(perf.shards, shards);
    artifact!(&out)
}

/// A plain single-threaded `SchedulerCore`, probes ingested one by one.
fn sustained_oracle() -> Vec<u8> {
    let (rounds, qpr) = sustained_shape();
    artifact!(&sustained::run_oracle(SEED, rounds, qpr))
}

/// Incremental publication is a publish-cost strategy, not a semantics
/// change: every epoch down the full-rebuild path, same bytes.
fn sustained_full_rebuild() -> Vec<u8> {
    let (rounds, qpr) = sustained_shape();
    let mut sched = sustained::scheduler(SEED, 2);
    sched.set_incremental_publish(false);
    let (out, perf) = sustained::run_on(sched, SEED, rounds, qpr);
    assert_eq!(perf.publishes, rounds as u64, "every round must publish");
    artifact!(&out)
}

/// `repro giant --scale 0.02 --domains N`: `giant.jsonl`, then the end-of-run
/// counters of the summary (the rest of `giant.json` names the domain count).
fn giant(domains: u16) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("int_invariance_{}_{domains}", std::process::id()));
    let p = GiantParams { domains, ..GiantParams::at_scale(SEED, 0.02) };
    let out = giant::run_in(&p, &dir).expect("giant run");
    let mut bytes = std::fs::read(dir.join("giant.jsonl")).expect("epoch export");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.domains, domains, "the partitioner must produce the domains asked for");
    assert_eq!(out.export_bytes, bytes.len() as u64);
    bytes.extend(artifact!(&(&out.stats, out.delivered)));
    bytes
}
