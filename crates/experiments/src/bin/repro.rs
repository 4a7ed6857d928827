//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all                 # everything (long; use --scale for a preview)
//! repro tab1                # Table I
//! repro fig3                # queue length & RTT vs utilization
//! repro fig5|fig6|fig7      # scheduling comparisons
//! repro fig8                # ECDF of per-task gain
//! repro fig9                # probing-interval sweep
//! repro failover            # link-failure detection & rescheduling
//! repro fabric              # ECMP multipath compare + failover on a 512-switch Clos
//! repro workflow            # deadline-aware DAG workflows, composite policies
//! repro audit               # instrumented failover cells + decision audit trail
//! repro ablation-k          # conversion-factor sweep
//! repro ablation-maxq       # queue-signal ablation
//! repro ext-compute         # compute-aware extension demo
//! repro sustained           # sharded control plane under churn
//!                           # (INT_SCHED_SHARDS read workers, default: cores)
//! repro giant               # 10k-host Clos, minutes of virtual time
//!                           # (INT_SIM_DOMAINS / INT_OBS_STREAM aware;
//!                           #  --scale shrinks it for smokes)
//!
//! options:
//!   --seed N      experiment seed (default 1)
//!   --scale F     workload scale factor in (0,1] (default 1.0 = paper size)
//! ```
//!
//! Results are printed as tables and saved as JSON under `results/`
//! (override with INT_RESULTS_DIR).

use int_experiments::{
    ablation, audit, fabric, failover, fig3, fig5, fig6, fig7, fig8, fig9, giant, overhead,
    report, sustained, tab1, workflow,
};
use int_netsim::SimDuration;
use std::time::Instant;

struct Opts {
    seed: u64,
    scale: f64,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut cmd = None;
    let mut opts = Opts { seed: 1, scale: 1.0 };

    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--scale" => {
                opts.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a float"));
                if !(opts.scale > 0.0 && opts.scale <= 1.0) {
                    die("--scale must be in (0, 1]");
                }
            }
            other if cmd.is_none() => cmd = Some(other.to_string()),
            other => die(&format!("unexpected argument `{other}`")),
        }
    }

    let Some(cmd) = cmd else {
        eprintln!("usage: repro <all|tab1|fig3|fig5|fig6|fig7|fig8|fig9|failover|fabric|workflow|audit|overhead|ablation-k|ablation-maxq|ext-compute|sustained|giant> [--seed N] [--scale F]");
        std::process::exit(2);
    };

    match cmd.as_str() {
        "all" => {
            for c in [
                "tab1", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "failover", "fabric",
                "workflow", "audit", "overhead", "ablation-k", "ablation-maxq", "ext-compute",
                "sustained",
            ] {
                run_one(c, &opts);
            }
        }
        other => run_one(other, &opts),
    }
}

/// Read shards for `sustained`: `INT_SCHED_SHARDS` if it parses (clamped
/// to ≥1), else the machine's available parallelism.
fn sched_shards() -> usize {
    std::env::var("INT_SCHED_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn tasks(opts: &Opts) -> usize {
    ((200.0 * opts.scale).round() as usize).max(4)
}

/// Three seeds starting at --seed: comparisons pool them for stability.
fn seeds(opts: &Opts) -> Vec<u64> {
    (opts.seed..opts.seed + 3).collect()
}

fn run_one(cmd: &str, opts: &Opts) {
    let started = Instant::now();
    println!("=== {cmd} (seed {}, scale {}) ===", opts.seed, opts.scale);
    match cmd {
        "tab1" => {
            let out = tab1::run(opts.seed, 1000);
            println!("{}", tab1::render(&out));
            save("tab1", &out);
        }
        "fig3" => {
            let mut cfg = fig3::Fig3Config { seed: opts.seed, ..fig3::Fig3Config::default() };
            cfg.duration = SimDuration::from_secs(((300.0 * opts.scale) as u64).max(20));
            let out = fig3::run(&cfg);
            println!("{}", fig3::render(&out));
            save("fig3", &out);
        }
        "fig5" => {
            let out = fig5::run_seeds(&seeds(opts), tasks(opts));
            println!("{}", fig5::render(&out));
            save("fig5", &out);
        }
        "fig6" => {
            let out = fig6::run_seeds(&seeds(opts), tasks(opts));
            println!("{}", fig6::render(&out));
            save("fig6", &out);
        }
        "fig7" => {
            let out = fig7::run_seeds(&seeds(opts), tasks(opts));
            println!("{}", fig7::render(&out));
            save("fig7", &out);
        }
        "fig8" => {
            let out = fig8::run_seeds(&seeds(opts), tasks(opts));
            println!("{}", fig8::render(&out));
            save("fig8", &out);
        }
        "fig9" => {
            let out = fig9::run_sweep(opts.seed, tasks(opts), &fig9::paper_intervals());
            println!("{}", fig9::render(&out));
            save("fig9", &out);
        }
        "sustained" => {
            let out = sustained::run(opts.seed, opts.scale, sched_shards());
            println!("{}", sustained::render(&out));
            save("sustained", &out);
        }
        "failover" => {
            // --scale trims the interval grid (the cells are cheap; the
            // long-interval ones just simulate more virtual time).
            let mut ivs = failover::default_intervals();
            if opts.scale < 1.0 {
                let keep = ((ivs.len() as f64 * opts.scale).ceil() as usize).max(1);
                ivs.truncate(keep);
            }
            let out = failover::run_sweep(opts.seed, &ivs);
            println!("{}", failover::render(&out));
            save("failover", &out);
        }
        "fabric" => {
            // --scale shrinks the 512-switch Clos (both tiers and hosts).
            let out = fabric::run(&fabric::FabricParams::at_scale(opts.seed, opts.scale));
            println!("{}", fabric::render(&out));
            save("fabric", &out);
        }
        "workflow" => {
            let out = workflow::run_sweep(opts.seed, opts.scale);
            println!("{}", workflow::render(&out));
            let wins = out.cells_where_intedf_wins();
            println!(
                "IntEdf beats NetworkOnly and LeastLoaded on miss rate in {} of {} slack cells{}",
                wins.len(),
                workflow::SLACK_CELLS.len(),
                if wins.is_empty() {
                    String::new()
                } else {
                    format!(" ({:?}%)", wins)
                }
            );
            save("workflow", &out);
        }
        "audit" => {
            // Same --scale handling as failover: trim the interval grid.
            let mut ivs = audit::default_intervals();
            if opts.scale < 1.0 {
                let keep = ((ivs.len() as f64 * opts.scale).ceil() as usize).max(1);
                ivs.truncate(keep);
            }
            let out = audit::run(opts.seed, &ivs);
            println!("{}", audit::render(&out));
            save("audit", &out);
        }
        "overhead" => {
            let d = SimDuration::from_secs(((120.0 * opts.scale) as u64).max(20));
            let out = overhead::run(opts.seed, d);
            println!("{}", overhead::render(&out));
            save("overhead", &out);
        }
        "ablation-k" => {
            let out = ablation::run_k_sweep(opts.seed, tasks(opts), &[0, 5, 20, 50, 100]);
            println!("{}", ablation::render_k_sweep(&out));
            save("ablation_k", &out);
        }
        "ablation-maxq" => {
            let out = ablation::run_signal_ablation(opts.seed, tasks(opts));
            println!("{}", ablation::render_signal(&out));
            save("ablation_maxq", &out);
        }
        "ext-compute" => {
            println!("{}", ablation::demo_compute_aware());
        }
        "giant" => {
            // Not part of `all`: full scale is a dedicated benchmark run.
            let p = if opts.scale >= 1.0 {
                giant::GiantParams::full_scale(opts.seed)
            } else {
                giant::GiantParams::at_scale(opts.seed, opts.scale)
            };
            let t0 = Instant::now();
            match giant::run(&p) {
                Ok(out) => {
                    println!("{}", giant::render(&out));
                    save("giant", &out);
                    let meta = report::RunMeta::capture(t0.elapsed().as_secs_f64());
                    match report::save_runmeta("giant", &meta) {
                        Ok(path) => println!("(saved {})", path.display()),
                        Err(e) => eprintln!("warning: could not save giant runmeta: {e}"),
                    }
                }
                Err(e) => die(&format!("giant run failed: {e}")),
            }
        }
        other => die(&format!("unknown experiment `{other}`")),
    }
    println!("[{cmd} done in {:.1}s]\n", started.elapsed().as_secs_f64());
}

fn save<T: serde::Serialize>(name: &str, value: &T) {
    match report::save_json(name, value) {
        Ok(path) => println!("(saved {})", path.display()),
        Err(e) => eprintln!("warning: could not save {name}.json: {e}"),
    }
}
