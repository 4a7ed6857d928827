//! `repro <experiment|all> [--seed N] [--scale F] [--domains N]` —
//! regenerate the paper's tables and figures. The experiments are the rows
//! of `int_experiments::EXPERIMENTS`; `all` runs every row but `giant`.
//! `--seed` defaults to 1 and `--scale` (in (0, 1]) to 1.0, the paper's
//! size; `--domains` is `giant`'s engine domain count. Tables print to
//! stdout and JSON lands in `results/` (override with INT_RESULTS_DIR).
//! Grids use every core the process may run on; `taskset -c 0` forces serial.
//! A run whose output breaks one of its row's paper claims says so on
//! stderr.

use int_experiments::{find, report, Experiment, Run, EXPERIMENTS};
use std::path::PathBuf;
use std::time::Instant;

/// Parse the command line (program name already skipped) into the
/// experiments to run and how; every malformed value is an error.
fn parse(
    mut args: impl Iterator<Item = String>,
    dir: PathBuf,
) -> Result<(Vec<&'static Experiment>, Run), String> {
    let mut cmd = None;
    let mut run = Run { seed: 1, scale: 1.0, domains: None, dir, workers: report::host_cores() };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                run.seed = args.next().and_then(|v| v.parse().ok()).ok_or("--seed needs an integer")?;
            }
            "--scale" => {
                run.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s: &f64| s > 0.0 && s <= 1.0)
                    .ok_or("--scale needs a float in (0, 1]")?;
            }
            "--domains" => {
                let d = args.next().and_then(|v| v.parse().ok()).filter(|&d: &u16| d >= 1);
                run.domains = Some(d.ok_or("--domains needs an integer in 1..=65535")?);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            other if cmd.is_none() => cmd = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }

    let cmd = cmd.ok_or_else(usage)?;
    let todo: Vec<_> = match cmd.as_str() {
        "all" => EXPERIMENTS.iter().filter(|e| e.in_all).collect(),
        name => vec![find(name).ok_or_else(|| format!("unknown experiment `{name}`\n{}", usage()))?],
    };
    if run.domains.is_some() && todo.iter().any(|e| !e.takes_domains()) {
        return Err(format!("--domains applies to `giant` only, not `{cmd}`"));
    }
    Ok((todo, run))
}

fn usage() -> String {
    let names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!("usage: repro <all|{}> [--seed N] [--scale F] [--domains N]", names.join("|"))
}

fn main() {
    let (todo, run) = parse(std::env::args().skip(1), report::results_dir()).unwrap_or_else(|e| die(&e));
    for e in todo {
        let started = Instant::now();
        println!("=== {} (seed {}, scale {}) ===", e.name, run.seed, run.scale);
        let artifact = (e.run)(&run).unwrap_or_else(|err| die(&format!("{} run failed: {err}", e.name)));
        println!("{}", artifact.text);
        for c in &artifact.broken_claims {
            eprintln!("repro: {}: paper claim {c}", e.name);
        }
        if let Some(file) = e.file {
            saved(&format!("{file}.json"), report::save_json(&run.dir, file, &artifact.json));
            if let Some(meta) = &artifact.runmeta {
                saved(&format!("{file} runmeta"), report::save_runmeta(&run.dir, file, meta));
            }
        }
        println!("[{} done in {:.1}s]\n", e.name, started.elapsed().as_secs_f64());
    }
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn saved(what: &str, result: std::io::Result<PathBuf>) {
    match result {
        Ok(path) => println!("(saved {})", path.display()),
        Err(e) => eprintln!("warning: could not save {what}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The experiments and settings a command line parses to, as one line.
    fn parse_str(line: &str) -> Result<String, String> {
        let (todo, r) = parse(line.split_whitespace().map(String::from), PathBuf::new())?;
        let names: Vec<_> = todo.iter().map(|e| e.name).collect();
        Ok(format!("{} seed {} scale {} domains {:?}", names.join(" "), r.seed, r.scale, r.domains))
    }

    #[test]
    fn command_line_is_parsed_strictly() {
        assert_eq!(parse_str("fig5").unwrap(), "fig5 seed 1 scale 1 domains None");
        assert_eq!(
            parse_str("giant --seed 7 --scale 0.02 --domains 4").unwrap(),
            "giant seed 7 scale 0.02 domains Some(4)"
        );
        let all = parse_str("all").unwrap();
        assert_eq!(all.split(' ').count(), EXPERIMENTS.len() - 1 + 6, "every row but giant: {all}");
        assert!(!all.contains("giant"));
        for bad in [
            "giant --domains 0", "giant --domains x", "giant --domains 70000", "giant --domains",
            "fig5 --domains 2", "all --domains 2", "fig5 --scale 0", "fig5 --scale 1.5",
            "fig5 --seed -1", "fig5 --threads 4", "fig5 fig6", "--seed 3", "bogus", "all giant", "",
        ] {
            assert!(parse_str(bad).is_err(), "`repro {bad}` must be rejected");
        }
    }
}
