//! The invariance matrix: same seed ⇒ the same artifact bytes under every
//! execution strategy, and the same bytes as history.
//!
//! The rows come from `int_experiments::EXPERIMENTS`. Every experiment
//! runs in-process at its `smoke` scale and seed 1 — the file `repro
//! <name> --seed 1 --scale <smoke>` writes — on 1 and on 4 workers, and
//! [`STRATEGIES`] adds the strategies that are not worker counts. Every
//! row of an experiment must hash to that experiment's pin — length and
//! FNV-1a 64 of the parent commit's `repro` output — so a strategy that
//! diverges from the others *and* a change that moves every strategy
//! together both fail, naming `experiment × strategy`. The single-worker
//! row also asserts that the run broke none of the experiment's paper
//! claims, which the row checks on the output it serialises.
//!
//! [`HEAVY`] experiments (the workflow sweep has a ≈ 20 s floor
//! unoptimised, the comparison grids several seconds each) run only in
//! optimised builds: `cargo test --workspace --release` in
//! `scripts/ci.sh` covers them.

use int_edge_sched::experiments::giant::{self, GiantParams};
use int_edge_sched::experiments::{find, report, sustained, Experiment, Run, EXPERIMENTS};

const SEED: u64 = 1;

/// Experiments too slow for an unoptimised build.
const HEAVY: &[&str] = &[
    "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "workflow", "ablation-k", "ablation-maxq",
];

/// `(experiment, strategy, artifact bytes)`.
type Strategy = (&'static str, &'static str, fn() -> Vec<u8>);

/// The strategies beyond the worker counts. `giant` varies its engine's
/// domain count instead of workers.
const STRATEGIES: &[Strategy] = &[
    ("sustained", "oracle replay", sustained_oracle),
    ("sustained", "shards=8", || sustained(8)),
    ("sustained", "full-rebuild publish", sustained_full_rebuild),
    ("giant", "domains=1", || giant(1)),
    ("giant", "domains=2", || giant(2)),
    ("giant", "domains=4", || giant(4)),
];

/// `(experiment, artifact length, FNV-1a 64)`.
const PINS: &[(&str, usize, u64)] = &[
    ("tab1", 1_257, 0x6212_e9e2_725f_d7ad),
    ("fig3", 2_339, 0x4269_39bc_232a_1b4b),
    ("fig5", 16_291, 0xe29c_f1f8_6ffb_4988),
    ("fig6", 21_049, 0x0699_9275_1f33_a581),
    ("fig7", 21_383, 0xfa4d_187d_a3a3_5364),
    ("fig8", 1_563, 0xc248_a4e6_9140_11e2),
    ("fig9", 1_339, 0x06bf_d88f_8373_0368),
    ("failover", 665, 0x33f8_640f_36c8_9022),
    ("fabric", 825, 0xe44f_20a7_6784_5f8c),
    ("workflow", 5_818, 0x0a97_4a04_1832_25f3),
    ("audit", 142_440, 0x537b_6290_5801_98d1),
    ("overhead", 877, 0x2faf_a473_ab4e_79df),
    ("ablation-k", 609, 0x2354_cf5d_ec95_1aaf),
    ("ablation-maxq", 190, 0x09e3_bbf4_9e84_67af),
    ("ext-compute", 156, 0xf9ad_2a81_1df8_3cbb),
    ("sustained", 242, 0x74f0_f7b1_11b2_f2c4),
    ("giant", 29_928, 0x7289_f8f3_53a9_6dc0),
];

#[test]
fn every_experiment_has_a_pin() {
    for e in EXPERIMENTS {
        assert!(PINS.iter().any(|p| p.0 == e.name), "{}: no pin, so no determinism row", e.name);
        assert!(
            !e.takes_domains() || STRATEGIES.iter().any(|s| s.0 == e.name),
            "{}: its domain counts have no rows",
            e.name
        );
    }
    for name in PINS.iter().map(|p| p.0).chain(STRATEGIES.iter().map(|s| s.0)) {
        assert!(find(name).is_some(), "{name}: pinned but not in the experiment table");
    }
}

#[test]
fn every_strategy_reproduces_the_pinned_artifact() {
    let mut broken_claims = Vec::new();
    for e in EXPERIMENTS.iter().filter(|e| !e.takes_domains() && runs_here(e.name)) {
        for workers in [1, 4] {
            let artifact = (e.run)(&smoke(e, workers, std::env::temp_dir())).expect("runs");
            // A row without a file is pinned on the text it prints.
            let bytes = if artifact.json.is_empty() { artifact.text.as_bytes() } else { &artifact.json };
            assert_pinned(e.name, &format!("workers={workers}"), bytes);
            if workers == 1 {
                broken_claims.extend(artifact.broken_claims.iter().map(|c| format!("{}: {c}", e.name)));
            }
        }
    }
    for &(name, strategy, run) in STRATEGIES.iter().filter(|s| runs_here(s.0)) {
        assert_pinned(name, strategy, &run());
    }
    assert!(broken_claims.is_empty(), "paper claims broken at smoke scale:\n{}", broken_claims.join("\n"));
}

fn runs_here(name: &str) -> bool {
    !(HEAVY.contains(&name) && cfg!(debug_assertions))
}

/// What `repro <e> --seed 1 --scale <smoke>` runs, on `workers` threads.
fn smoke(e: &Experiment, workers: usize, dir: std::path::PathBuf) -> Run {
    Run { seed: SEED, scale: e.smoke, domains: None, dir, workers }
}

fn assert_pinned(name: &str, strategy: &str, bytes: &[u8]) {
    let fnv = bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3));
    let &(_, len, pin) = PINS.iter().find(|p| p.0 == name).expect("experiment has a pin");
    assert_eq!(
        (bytes.len(), fnv),
        (len, pin),
        "{name} × {strategy}: artifact moved (got len {}, fnv {fnv:#018x})",
        bytes.len()
    );
}

/// `repro sustained`'s rounds and queries per round at its smoke scale.
fn sustained_shape() -> (usize, usize) {
    sustained::shape(find("sustained").expect("a sustained row").smoke)
}

fn sustained(shards: usize) -> Vec<u8> {
    let (rounds, qpr) = sustained_shape();
    let (out, perf) = sustained::run(SEED, rounds, qpr, shards);
    assert_eq!(perf.shards, shards);
    report::to_json(&out)
}

/// A plain single-threaded `SchedulerCore`, probes ingested one by one.
fn sustained_oracle() -> Vec<u8> {
    let (rounds, qpr) = sustained_shape();
    report::to_json(&sustained::run_oracle(SEED, rounds, qpr))
}

/// Incremental publication is a publish-cost strategy, not a semantics
/// change: every epoch down the full-rebuild path, same bytes.
fn sustained_full_rebuild() -> Vec<u8> {
    let (rounds, qpr) = sustained_shape();
    let mut sched = sustained::scheduler(SEED, 2);
    sched.set_incremental_publish(false);
    let (out, perf) = sustained::run_on(sched, SEED, rounds, qpr);
    assert_eq!(perf.publishes, rounds as u64, "every round must publish");
    report::to_json(&out)
}

/// `repro giant --scale 0.02 --domains N`: `giant.jsonl`, then the end-of-run
/// counters of the summary (the rest of `giant.json` names the domain count).
fn giant(domains: u16) -> Vec<u8> {
    let scale = find("giant").unwrap().smoke;
    let dir = std::env::temp_dir().join(format!("int_invariance_{}_{domains}", std::process::id()));
    let out = giant::run_in(&GiantParams { domains, ..GiantParams::at_scale(SEED, scale) }, &dir).expect("giant run");
    let mut bytes = std::fs::read(dir.join("giant.jsonl")).expect("epoch export");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.domains, domains, "the partitioner must produce the domains asked for");
    assert_eq!(out.export_bytes, bytes.len() as u64);
    bytes.extend(report::to_json(&(&out.stats, out.delivered)));
    bytes
}
