//! `intbench` — the benchmark of record. See README.md.

use intbench::compare;
use intbench::harness::{self, measure, out_dir, prepare_env, Outcome};
use intbench::json::{self, obj, s};
use intbench::spec::{self, END_TO_END, RUN_SECONDS};
use intbench::stats::{median, spread};
use intbench::workload::{shards, Scale, Workload};
use serde::Value;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  intbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run of one workload
  intbench --all [--seed <n>] [--seconds <s>] [--runs <k>] [--trace 1] [--out <file>]
                                                                     gate, then every workload
  intbench --compare <A.json> <B.json>                                is B no worse than A?
  intbench --spec                                                     print BENCHMARK.json
  add --smoke to run every workload at a few rounds / virtual seconds
workloads: des_testbed des_fabric ctl_churn ctl_warm ctl_ingest";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    runs: Option<usize>,
    trace: bool,
    smoke: bool,
    all: bool,
    spec: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                a.seed = Some(
                    value(&mut it, flag)?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let v: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&v) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
                a.seconds = Some(v);
            }
            "--runs" => {
                let v: usize = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&v) {
                    return Err("--runs must be between 1 and 100".into());
                }
                a.runs = Some(v);
            }
            "--trace" => match value(&mut it, flag)?.as_str() {
                "0" => a.trace = false,
                "1" => a.trace = true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            },
            "--smoke" => a.smoke = true,
            "--all" => a.all = true,
            "--spec" => a.spec = true,
            "--out" => a.out = Some(value(&mut it, flag)?),
            "--compare" => a.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// The correctness gate: every workload at smoke size, untraced and
/// traced, with every check `measure` makes — identical digests for one
/// seed, the single-threaded oracle at one and two shards, task
/// conservation, and the twins against the untraced runs.
fn gate(seed: u64) -> std::io::Result<bool> {
    let mut ok = true;
    for w in Workload::ALL {
        for trace in [false, true] {
            let o = measure(w, seed, 0.0, trace, Scale::Smoke)?;
            for p in &o.problems {
                println!("gate: {}: {p}", w.name());
            }
            if o.failed > 0 {
                println!(
                    "gate: {}: {} of {} operations failed",
                    w.name(),
                    o.failed,
                    o.attempted
                );
            }
            ok &= o.ok();
        }
    }
    println!("gate: {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// One child process per run, one at a time, so each run's peak memory
/// is its own. Returns the child's INFO and result lines.
fn child_run(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{} exited with {}:\n{text}", w.name(), out.status));
    }
    let info = text
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("INFO "))
        .ok_or("no INFO line")?;
    let last = text.lines().last().ok_or("no output")?;
    Ok((json::parse(info)?, json::parse(last)?))
}

fn metric_values(result: &Value) -> Value {
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        return Value::Null;
    };
    obj(metrics
        .iter()
        .map(|(k, v)| (k.as_str(), v.get("value").cloned().unwrap_or(Value::Null))))
}

fn run_all(a: &Args) -> Result<bool, String> {
    let seed = a.seed.unwrap_or(1);
    let seconds = a.seconds.unwrap_or(6.0);
    let runs = a.runs.unwrap_or(3);
    if !gate(seed).map_err(|e| e.to_string())? {
        return Ok(false);
    }
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut values = Vec::new();
        let mut first_info = Value::Null;
        for run in 0..runs {
            let (info, result) = child_run(w, seed, seconds, false, a.smoke)?;
            // Memory rides along with each run; it carries no bound (see
            // README), so --compare does not judge it.
            let mut row = metric_values(&result);
            if let (Value::Object(row), Some(rss)) = (&mut row, info.get("peak_rss_mb")) {
                row.push(("peak_rss_mb".to_string(), rss.clone()));
            }
            values.push(row);
            if run == 0 {
                first_info = info;
            }
        }
        println!("{} — {runs} runs of {seconds} s, seed {seed}", w.name());
        for m in &END_TO_END {
            let v: Vec<f64> = values
                .iter()
                .filter_map(|r| json::as_f64(r.get(m.name)?))
                .collect();
            println!(
                "  {:<15} median {:>16.4} {:<4} spread {:>5.1}%  (bound {:.0}%)",
                m.name,
                median(&v),
                m.unit,
                spread(&v) * 100.0,
                m.bound * 100.0
            );
        }
        let mut entry = vec![("info", first_info), ("runs", Value::Array(values))];
        if a.trace {
            let (_, result) = child_run(w, seed, seconds, true, a.smoke)?;
            let layers = metric_values(&result);
            if let Value::Object(ls) = &layers {
                for (k, v) in ls {
                    println!("  {k} = {}", json::to_line(v));
                }
            }
            entry.push(("layers", layers));
        }
        workloads.push((w.name(), obj(entry)));
    }
    let doc = obj([
        (
            "meta",
            obj([
                ("seed", Value::U64(seed)),
                ("seconds", Value::F64(seconds)),
                ("runs", Value::U64(runs as u64)),
                ("smoke", Value::Bool(a.smoke)),
                ("git_sha", s(command_line("git", &["rev-parse", "HEAD"]))),
                ("rustc", s(command_line("rustc", &["-V"]))),
                (
                    "host_cores",
                    Value::U64(int_experiments::report::host_cores() as u64),
                ),
                ("shards", Value::U64(shards() as u64)),
            ]),
        ),
        ("workloads", obj(workloads)),
    ]);
    let path = a.out.clone().map_or_else(
        || out_dir().join(format!("intbench-seed{seed}.json")),
        Into::into,
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&path, json::to_pretty(&doc)).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(true)
}

fn run(a: &Args) -> Result<bool, String> {
    if a.spec {
        println!("{}", json::to_pretty(&spec::benchmark_json()));
        return Ok(true);
    }
    if let Some((pa, pb)) = &a.compare {
        let load =
            |p: &String| json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?);
        return Ok(compare::report(&compare::compare(&load(pa)?, &load(pb)?)));
    }
    let workload = match &a.workload {
        Some(name) => Some(
            Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?,
        ),
        None if a.all => None,
        None => return Err(USAGE.to_string()),
    };
    let scratch = prepare_env().map_err(|e| e.to_string())?;
    let result = match workload {
        None => run_all(a),
        Some(w) => {
            let scale = if a.smoke { Scale::Smoke } else { Scale::Full };
            let seconds = a.seconds.unwrap_or(RUN_SECONDS as f64);
            measure(w, a.seed.unwrap_or(1), seconds, a.trace, scale)
                .map_err(|e| e.to_string())
                .map(|o: Outcome| {
                    harness::print(&o);
                    o.ok()
                })
        }
    };
    let _ = std::fs::remove_dir_all(scratch);
    result
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|a| run(&a)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("intbench: {msg}");
            ExitCode::from(2)
        }
    }
}
