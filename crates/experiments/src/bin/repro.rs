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
//! repro overhead            # probe bytes on the wire vs task traffic
//! repro ablation-k          # conversion-factor sweep
//! repro ablation-maxq       # queue-signal ablation
//! repro ext-compute         # compute-aware extension demo
//! repro sustained           # sharded control plane under churn
//! repro giant               # 10k-host Clos, minutes of virtual time
//!                           # (not part of `all`; --scale shrinks it)
//!
//! options:
//!   --seed N      experiment seed (default 1)
//!   --scale F     workload scale factor in (0,1] (default 1.0 = paper size)
//!   --domains N   giant only: parallel engine domains, 1..=65535 (default 1)
//! ```
//!
//! Results are printed as tables and saved as JSON under `results/`
//! (override with INT_RESULTS_DIR). Grids and read shards use every core
//! the process may run on; `taskset -c 0 repro …` forces serial.

use int_experiments::{
    ablation, audit, fabric, failover, fig3, fig5, fig6, fig7, fig8, fig9, giant, overhead,
    report, sustained, tab1, workflow,
};
use int_netsim::SimDuration;
use std::time::Instant;

#[derive(Debug, PartialEq)]
struct Opts {
    seed: u64,
    scale: f64,
    /// `--domains`, when given (only `giant` takes it).
    domains: Option<u16>,
}

const USAGE: &str = "usage: repro <all|tab1|fig3|fig5|fig6|fig7|fig8|fig9|failover|fabric|workflow|audit|overhead|ablation-k|ablation-maxq|ext-compute|sustained|giant> [--seed N] [--scale F] [--domains N]";

/// Parse the command line (program name already skipped) into the
/// experiment name and its options; every malformed value is an error.
fn parse(mut args: impl Iterator<Item = String>) -> Result<(String, Opts), String> {
    let mut cmd = None;
    let mut opts = Opts { seed: 1, scale: 1.0, domains: None };

    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                opts.seed =
                    args.next().and_then(|v| v.parse().ok()).ok_or("--seed needs an integer")?;
            }
            "--scale" => {
                opts.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s: &f64| s > 0.0 && s <= 1.0)
                    .ok_or("--scale needs a float in (0, 1]")?;
            }
            "--domains" => {
                let d = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&d: &u16| d >= 1)
                    .ok_or("--domains needs an integer in 1..=65535")?;
                opts.domains = Some(d);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            other if cmd.is_none() => cmd = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }

    let cmd = cmd.ok_or(USAGE)?;
    if opts.domains.is_some() && cmd != "giant" {
        return Err(format!("--domains applies to `giant` only, not `{cmd}`"));
    }
    Ok((cmd, opts))
}

fn main() {
    let (cmd, opts) = parse(std::env::args().skip(1)).unwrap_or_else(|e| die(&e));
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
            let out = sustained::run(opts.seed, opts.scale, report::host_cores());
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
            let mut p = if opts.scale >= 1.0 {
                giant::GiantParams::full_scale(opts.seed)
            } else {
                giant::GiantParams::at_scale(opts.seed, opts.scale)
            };
            if let Some(d) = opts.domains {
                p.domains = d;
            }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<(String, Opts), String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn command_line_is_parsed_strictly() {
        let defaults = Opts { seed: 1, scale: 1.0, domains: None };
        assert_eq!(parse_str("fig5"), Ok(("fig5".to_string(), defaults)));
        assert_eq!(
            parse_str("giant --seed 7 --scale 0.02 --domains 4"),
            Ok(("giant".to_string(), Opts { seed: 7, scale: 0.02, domains: Some(4) }))
        );
        for bad in [
            "giant --domains 0",
            "giant --domains x",
            "giant --domains 70000",
            "giant --domains",
            "fig5 --domains 2",
            "all --domains 2",
            "fig5 --scale 0",
            "fig5 --scale 1.5",
            "fig5 --seed -1",
            "fig5 --threads 4",
            "fig5 fig6",
            "--seed 3",
            "",
        ] {
            assert!(parse_str(bad).is_err(), "`repro {bad}` must be rejected");
        }
    }
}
