//! The experiment table: one row per `repro` command, the only list of
//! experiments in the workspace.
//!
//! `repro <name>` looks its row up and `repro all` runs every row marked
//! `in_all`; `tests/invariance.rs` runs every row at its `smoke` scale
//! under 1 and 4 workers (`giant` under 1, 2 and 4 domains), holds the
//! artifact to a pin and asserts that it breaks none of the row's paper
//! claims; `tests/docs.rs` resolves every `repro <name>` the docs mention
//! against it. A row's `run` holds everything special
//! about its experiment — how `--scale` shapes the workload, which seeds
//! it pools, what it prints besides its table.

use crate::compare::{self, CompareConfig, Metric, MultiCompareOutput};
use crate::report::{self, RunMeta};
use crate::{ablation, audit, fabric, failover, fig3, fig8, fig9, giant, overhead, sustained};
use crate::{tab1, workflow};
use int_core::Policy;
use int_netsim::SimDuration;
use int_workload::JobKind;
use serde::Serialize;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// One experiment: a `repro` command and the artifact it writes.
pub struct Experiment {
    /// The `repro` command.
    pub name: &'static str,
    /// The artifact's file stem under the results dir (`None`: the row
    /// only prints).
    pub file: Option<&'static str>,
    /// Whether `repro all` runs it.
    pub in_all: bool,
    /// The scale `tests/invariance.rs` runs it at.
    pub smoke: f64,
    /// Run it. Only `giant`, which streams its export to the results dir
    /// during the run, can fail.
    pub run: fn(&Run) -> io::Result<Artifact>,
}

impl Experiment {
    /// A row that writes `<name>.json` and runs in `repro all`.
    const fn new(name: &'static str, smoke: f64, run: fn(&Run) -> io::Result<Artifact>) -> Experiment {
        Experiment { name, file: Some(name), in_all: true, smoke, run }
    }

    /// Whether `--domains` applies: only the partitioned engine's run.
    pub fn takes_domains(&self) -> bool {
        self.name == "giant"
    }
}

/// What one run of an experiment may vary: `repro`'s flags, where
/// artifacts land and how many threads a grid may use.
#[derive(Debug)]
pub struct Run {
    /// `--seed`.
    pub seed: u64,
    /// `--scale`, in (0, 1]; 1.0 is the paper's size.
    pub scale: f64,
    /// `--domains` (`giant` only).
    pub domains: Option<u16>,
    /// The results dir (`giant` streams its epoch export there).
    pub dir: PathBuf,
    /// Threads a grid may use, and the sharded plane's read shards. No
    /// artifact depends on it.
    pub workers: usize,
}

impl Run {
    /// Tasks per comparison: the paper's 200, scaled, at least 4.
    fn tasks(&self) -> usize {
        ((200.0 * self.scale).round() as usize).max(4)
    }

    /// Three seeds starting at `seed`: comparisons pool them for stability.
    fn seeds(&self) -> Vec<u64> {
        (self.seed..self.seed + 3).collect()
    }

    /// `full_s` seconds of virtual time, scaled, at least 20 s.
    fn secs(&self, full_s: f64) -> SimDuration {
        SimDuration::from_secs(((full_s * self.scale) as u64).max(20))
    }

    /// The leading `scale` share of an interval grid (the cells are cheap;
    /// the long-interval ones just simulate more virtual time).
    fn trim(&self, mut intervals: Vec<SimDuration>) -> Vec<SimDuration> {
        if self.scale < 1.0 {
            intervals.truncate(((intervals.len() as f64 * self.scale).ceil() as usize).max(1));
        }
        intervals
    }

    /// A paper comparison (the INT policy vs Nearest vs Random), pooled
    /// over [`Run::seeds`].
    fn compare(&self, kind: JobKind, policy: Policy) -> MultiCompareOutput {
        let mut cfg = CompareConfig::paper_default(self.seed, kind, policy);
        cfg.total_tasks = self.tasks();
        compare::run_comparison_seeds(self.workers, &cfg, &self.seeds())
    }
}

/// What a run produces.
#[derive(Debug)]
pub struct Artifact {
    /// The bytes written to `<file>.json` (empty when the row has no file).
    pub json: Vec<u8>,
    /// The text printed before the file is saved.
    pub text: String,
    /// Wall-clock and RSS for a `<file>.runmeta.json` sidecar, kept out of
    /// the byte-stable `json`.
    pub runmeta: Option<RunMeta>,
    /// The paper claims the run's output breaks, each with what it shows
    /// instead.
    pub broken_claims: Vec<String>,
}

impl Artifact {
    /// `value` as its file and its rendering as the text.
    fn of<T: Serialize>(value: &T, render: impl Fn(&T) -> String) -> io::Result<Artifact> {
        Artifact::checked(value, render, &[])
    }

    /// [`Artifact::of`], with `value` checked against `claims`. The file's
    /// bytes are a pure function of `value` (floats print as their
    /// shortest round-trip form), so a claim checked here holds on the
    /// file too.
    fn checked<T: Serialize>(
        value: &T,
        render: impl Fn(&T) -> String,
        claims: &[Claim<T>],
    ) -> io::Result<Artifact> {
        let broken_claims = claims
            .iter()
            .filter_map(|c| (c.check)(value).err().map(|got| format!("\"{}\" fails: {got}", c.paper)))
            .collect();
        Ok(Artifact { json: report::to_json(value), text: render(value), runmeta: None, broken_claims })
    }
}

/// A claim of the paper about an experiment's output `T`.
pub struct Claim<T> {
    /// The claim, with the tolerance EXPERIMENTS.md states.
    pub paper: &'static str,
    /// `Err` says what the output shows instead.
    pub check: fn(&T) -> Result<(), String>,
}

/// The row named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Every experiment, in `repro all` order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment::new("tab1", 0.02, |r| Artifact::checked(&tab1::run(r.seed, 1000), tab1::render, tab1::CLAIMS)),
    Experiment::new("fig3", 0.02, |r| {
        let cfg = fig3::Fig3Config { seed: r.seed, duration: r.secs(300.0), ..Default::default() };
        Artifact::checked(&fig3::run(r.workers, &cfg), fig3::render, fig3::CLAIMS)
    }),
    // Fig. 5: serverless workload (one task per job), delay ranking; mean
    // completion per Table I class. Paper: 17–31 % gain over Nearest,
    // largest for very small tasks.
    Experiment::new("fig5", 0.02, |r| {
        let out = r.compare(JobKind::Serverless, Policy::IntDelay);
        Artifact::of(&out, |o| o.render(Metric::Completion))
    }),
    // Fig. 6: distributed workload (three tasks per job), delay ranking.
    // Paper: 7–13 % gain over Nearest; large tasks benefit least.
    Experiment::new("fig6", 0.02, |r| {
        let out = r.compare(JobKind::Distributed, Policy::IntDelay);
        Artifact::of(&out, |o| o.render(Metric::Completion))
    }),
    // Fig. 7: distributed workload, bandwidth ranking. Paper: 28–40 % less
    // transfer time (the figure), 22–35 % less completion time (the text).
    Experiment::new("fig7", 0.02, |r| {
        let out = r.compare(JobKind::Distributed, Policy::IntBandwidth);
        Artifact::of(&out, |o| {
            let (transfer, completion) = (o.render(Metric::Transfer), o.render(Metric::Completion));
            format!("Transfer times:\n{transfer}\nCompletion times:\n{completion}")
        })
    }),
    Experiment::new("fig8", 0.02, |r| {
        Artifact::of(&fig8::run_seeds(r.workers, &r.seeds(), r.tasks()), fig8::render)
    }),
    Experiment::new("fig9", 0.02, |r| {
        let out = fig9::run_sweep(r.workers, r.seed, r.tasks(), &fig9::paper_intervals());
        Artifact::of(&out, fig9::render)
    }),
    Experiment::new("failover", 0.25, |r| {
        let out = failover::run_sweep(r.workers, r.seed, &r.trim(failover::default_intervals()));
        Artifact::of(&out, failover::render)
    }),
    // `--scale` shrinks the 512-switch Clos (both tiers and hosts).
    Experiment::new("fabric", 0.05, |r| {
        let out = fabric::run(r.workers, &fabric::FabricParams::at_scale(r.seed, r.scale));
        Artifact::of(&out, fabric::render)
    }),
    Experiment::new("workflow", 0.25, |r| {
        Artifact::of(&workflow::run_sweep(r.workers, r.seed, r.scale), |out| {
            let wins = out.cells_where_intedf_wins();
            format!(
                "{}\nIntEdf beats NetworkOnly and LeastLoaded on miss rate in {} of {} slack cells{}",
                workflow::render(out),
                wins.len(),
                workflow::SLACK_CELLS.len(),
                if wins.is_empty() { String::new() } else { format!(" ({wins:?}%)") }
            )
        })
    }),
    Experiment::new("audit", 0.5, |r| {
        Artifact::of(&audit::run(r.workers, r.seed, &r.trim(audit::default_intervals())), audit::render)
    }),
    Experiment::new("overhead", 0.02, |r| {
        Artifact::checked(&overhead::run(r.seed, r.secs(120.0)), overhead::render, overhead::CLAIMS)
    }),
    Experiment {
        file: Some("ablation_k"),
        ..Experiment::new("ablation-k", 0.02, |r| {
            let out = ablation::run_k_sweep(r.workers, r.seed, r.tasks(), &[0, 5, 20, 50, 100]);
            Artifact::of(&out, ablation::render_k_sweep)
        })
    },
    Experiment {
        file: Some("ablation_maxq"),
        ..Experiment::new("ablation-maxq", 0.02, |r| {
            let out = ablation::run_signal_ablation(r.workers, r.seed, r.tasks());
            Artifact::of(&out, ablation::render_signal)
        })
    },
    Experiment {
        file: None,
        ..Experiment::new("ext-compute", 0.02, |_| {
            let text = ablation::demo_compute_aware();
            Ok(Artifact { json: Vec::new(), text, runmeta: None, broken_claims: Vec::new() })
        })
    },
    // One read shard per worker. The throughput line is wall-clock, so it
    // is printed, never saved.
    Experiment::new("sustained", 0.05, |r| {
        let (rounds, qpr) = sustained::shape(r.scale);
        let (out, perf) = sustained::run(r.seed, rounds, qpr, r.workers);
        Artifact::of(&out, |out| {
            format!(
                "sustained: shards={} publishes={} serve={:.1} ms total={:.1} ms p99(batch)={:.0} µs throughput={:.0} q/s\n{}",
                perf.shards, perf.publishes, perf.serve_wall_ms, perf.total_wall_ms, perf.p99_batch_us, perf.qps,
                sustained::render(out)
            )
        })
    }),
    // Not part of `all`: full scale is a dedicated benchmark run. The
    // epoch export streams to `<dir>/giant.jsonl` during the run.
    Experiment {
        in_all: false,
        ..Experiment::new("giant", 0.02, |r| {
            let mut p = if r.scale >= 1.0 {
                giant::GiantParams::full_scale(r.seed)
            } else {
                giant::GiantParams::at_scale(r.seed, r.scale)
            };
            p.domains = r.domains.unwrap_or(p.domains);
            let t0 = Instant::now();
            let out = giant::run_in(&p, &r.dir)?;
            let runmeta = Some(RunMeta::capture(t0.elapsed().as_secs_f64()));
            Ok(Artifact { runmeta, ..Artifact::of(&out, giant::render)? })
        })
    },
];
