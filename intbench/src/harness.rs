//! One run of one workload: repeat it for the asked time, check its
//! outputs, and turn the repetitions into metrics.

use crate::ctl;
use crate::json::{metric, obj, s, to_line};
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{median_of, percentile_sorted, sorted, supported_tail};
use crate::trace::Tracer;
use crate::workload::{Rep, Scale, Workload};
use int_experiments::report::{host_cores, peak_rss_kb};
use serde::Value;
use std::path::PathBuf;
use std::time::Instant;

/// Strategy switches the crates read from the environment. They are
/// removed so the defaults are what is measured.
const SCRUBBED: [&str; 7] = [
    "INT_PATH_CACHE",
    "INT_SNAP_INCREMENTAL",
    "INT_SCHED_SHARDS",
    "INT_SIM_DOMAINS",
    "INT_OBS_STREAM",
    "INT_EXP_THREADS",
    "INT_EXP_PROFILE",
];

/// Where the benchmark writes: under the build directory, inside the
/// checkout it runs from.
pub fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("intbench")
}

/// Remove the strategy switches and point the experiments' results
/// directory at a scratch directory, so `results/` is never written.
/// Call once, before any thread is started.
pub fn prepare_env() -> std::io::Result<PathBuf> {
    for var in SCRUBBED {
        std::env::remove_var(var);
    }
    let scratch = out_dir().join(format!("results-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    std::env::set_var("INT_RESULTS_DIR", &scratch);
    Ok(scratch)
}

/// The result of one run, as the last line of output reports it.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: Workload,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// What was actually run: shape, repetitions, sample counts, digest.
    pub info: Value,
    /// Why `correct` is false, if it is.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The one JSON object the benchmark contract asks for.
    pub fn last_line(&self) -> String {
        to_line(&obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            (
                "metrics",
                obj(self
                    .metrics
                    .iter()
                    .map(|&(name, v, unit)| (name, metric(v, unit)))),
            ),
        ]))
    }

    pub fn ok(&self) -> bool {
        self.correct && self.failed == 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// At a reduced shape, the sharded plane must answer exactly as the
/// single-threaded `SchedulerCore`, at one shard and at two.
fn oracle_problems(w: Workload, seed: u64) -> Vec<String> {
    let Some(shape) = w.ctl_shape(Scale::Smoke) else {
        return Vec::new();
    };
    let want = ctl::oracle_digest(seed, &shape);
    [1usize, 2]
        .into_iter()
        .filter_map(|shards| {
            let got = ctl::run(seed, &ctl::CtlShape { shards, ..shape }, None).digest;
            (got != want).then(|| format!("{shards}-shard digest {got:016x} differs from the single-threaded oracle {want:016x}"))
        })
        .collect()
}

/// Run `w` for `seconds`: one discarded warm-up repetition, then timed
/// repetitions (each followed by a traced one when `trace` is set) until
/// the time is up.
pub fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> std::io::Result<Outcome> {
    let warmup = w.run(seed, scale, None)?;
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut last_trace = Tracer::default();
    let start = Instant::now();
    loop {
        plain.push(w.run(seed, scale, None)?);
        if trace {
            last_trace = Tracer::default();
            traced.push(w.run(seed, scale, Some(&mut last_trace))?);
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let mut problems = oracle_problems(w, seed);
    let all = || std::iter::once(&warmup).chain(&plain).chain(&traced);
    if let Some(rep) = all().find(|r| r.digest != warmup.digest) {
        problems.push(format!(
            "outputs differ between repetitions of one seed: digest {:016x} vs {:016x}",
            rep.digest, warmup.digest
        ));
    }
    let attempted = all().map(|r| r.attempted).sum();
    let failed = all().map(|r| r.failed).sum();

    let peak_rss_mb = peak_rss_kb().unwrap_or(0) as f64 / 1024.0;
    let program_s: f64 = plain.iter().map(|r| r.program_s).sum();
    let ops: u64 = plain.iter().map(|r| r.ops).sum();
    let samples = sorted(
        plain
            .iter()
            .flat_map(|r| r.latency_ms.iter().copied())
            .collect(),
    );
    let metrics = if trace {
        let overhead = median_of(traced.iter().map(|r| r.program_s))
            / median_of(plain.iter().map(|r| r.program_s))
            - 1.0;
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let v = match name {
                    "trace.overhead_share" => overhead,
                    "trace.spans" => last_trace.spans().len() as f64,
                    "trace.repetitions" => traced.len() as f64,
                    "mem.peak_rss_mb" => peak_rss_mb,
                    _ => median_of(
                        traced
                            .iter()
                            .map(|r| r.layers.get(name).copied().unwrap_or(0.0)),
                    ),
                };
                (name, v, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let v = match m.name {
                    spec::SETUP_S => median_of(all().map(|r| r.setup_s)),
                    spec::OPS_PER_S => ops as f64 / program_s,
                    spec::LATENCY_P50 => percentile_sorted(&samples, 0.5),
                    spec::LATENCY_P90 => percentile_sorted(&samples, 0.9),
                    other => unreachable!("end-to-end metric {other} has no measurement"),
                };
                (m.name, v, m.unit)
            })
            .collect()
    };
    if trace {
        last_trace.write(&out_dir().join(format!("trace-{}.json", w.name())))?;
    }

    let tail = supported_tail(samples.len());
    let info = obj([
        ("workload", s(w.name())),
        ("seed", Value::U64(seed)),
        ("seconds", Value::F64(seconds)),
        ("trace", Value::Bool(trace)),
        ("host_cores", Value::U64(host_cores() as u64)),
        ("repetitions", Value::U64(plain.len() as u64)),
        ("traced_repetitions", Value::U64(traced.len() as u64)),
        ("latency_samples", Value::U64(samples.len() as u64)),
        (
            "latency_tail",
            obj([
                ("percentile", Value::F64(tail)),
                ("ms", Value::F64(percentile_sorted(&samples, tail))),
            ]),
        ),
        ("gen_s", Value::F64(plain.iter().map(|r| r.gen_s).sum())),
        ("program_s", Value::F64(program_s)),
        ("ops", Value::U64(ops)),
        ("peak_rss_mb", Value::F64(peak_rss_mb)),
        ("digest", s(format!("{:016x}", warmup.digest))),
        (
            "shape",
            obj(warmup.shape.iter().map(|&(k, v)| (k, Value::U64(v)))),
        ),
    ]);
    Ok(Outcome {
        workload: w,
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        info,
        problems,
    })
}

/// Print every metric by name with its unit, what was run, and the
/// contract's JSON object as the last line.
pub fn print(o: &Outcome) {
    let w = o.workload;
    println!("intbench {}: {}", w.name(), w.why());
    println!("  ops = {}; a latency sample = {}", w.op(), w.wait());
    if let Value::Object(entries) = &o.info {
        for (k, v) in entries.iter().filter(|(k, _)| k != "workload") {
            println!("  {k} = {}", to_line(v));
        }
    }
    for &(name, v, unit) in &o.metrics {
        println!("  {name} = {v} {unit}");
    }
    println!(
        "  attempted = {}, failed = {}, correct = {}",
        o.attempted, o.failed, o.correct
    );
    for p in &o.problems {
        println!("  PROBLEM: {p}");
    }
    println!("INFO {}", to_line(&o.info));
    println!("{}", o.last_line());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `giant::run` reads `INT_RESULTS_DIR` and writes one fixed file name
    /// under it, so tests that run workloads take turns.
    pub(crate) static ENV: Mutex<()> = Mutex::new(());

    /// Every workload at smoke size, untraced and traced: the full path a
    /// real run takes, checks included.
    #[test]
    fn smoke_runs_every_workload_traced_and_untraced() {
        let _env = ENV.lock().unwrap_or_else(|e| e.into_inner());
        let scratch = prepare_env().unwrap();
        for w in Workload::ALL {
            for trace in [false, true] {
                let o = measure(w, 1, 0.0, trace, Scale::Smoke).unwrap();
                assert!(o.ok(), "{}: {:?}", w.name(), o.problems);
                assert!(o.attempted >= 1);
                let want: Vec<&str> = if trace {
                    PER_LAYER.iter().map(|m| m.0).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                assert_eq!(o.metrics.iter().map(|m| m.0).collect::<Vec<_>>(), want);
                assert!(o.metrics.iter().all(|m| m.1.is_finite()), "{:?}", o.metrics);
                if !trace {
                    assert!(
                        o.metrics.iter().all(|m| m.1 > 0.0),
                        "{}: {:?}",
                        w.name(),
                        o.metrics
                    );
                }
                let line = crate::json::parse(&o.last_line()).unwrap();
                let Value::Object(keys) = &line else {
                    panic!("{line:?}")
                };
                assert_eq!(
                    keys.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                    ["correct", "attempted", "failed", "metrics"]
                );
            }
            let trace_file = out_dir().join(format!("trace-{}.json", w.name()));
            assert!(crate::json::parse(&std::fs::read_to_string(trace_file).unwrap()).is_ok());
        }
        let _ = std::fs::remove_dir_all(scratch);
    }

    /// What the layer tables promise: spans cover the control-plane
    /// rounds, the simulator shares sum to one, and a different seed is a
    /// different input.
    #[test]
    fn traced_numbers_account_for_the_run() {
        let _env = ENV.lock().unwrap_or_else(|e| e.into_inner());
        let scratch = prepare_env().unwrap();
        for w in Workload::ALL {
            let o = measure(w, 2, 0.0, true, Scale::Smoke).unwrap();
            assert!(o.ok(), "{}: {:?}", w.name(), o.problems);
            let v = |name| o.value(name).unwrap();
            if w.ctl_shape(Scale::Smoke).is_some() {
                assert!(
                    v("trace.span_coverage") >= 0.95,
                    "{}: {}",
                    w.name(),
                    v("trace.span_coverage")
                );
                assert!(v("core.shard.queries") > 0.0 && v("core.shard.answered_share") == 1.0);
            } else {
                let sum = v("dataplane.est_share")
                    + v("netsim.evq_est_share")
                    + v("core.sched.est_share")
                    + v("apps.est_share")
                    + v("obs.est_share")
                    + v("netsim.unattributed_share");
                assert!(
                    (sum - 1.0).abs() < 1e-9,
                    "{}: shares sum to {sum}",
                    w.name()
                );
                assert!(v("netsim.events") > 0.0);
            }
            let other = w.run(3, Scale::Smoke, None).unwrap();
            let digest = |o: &Outcome| o.info.get("digest").cloned();
            assert_ne!(
                digest(&o),
                Some(s(format!("{:016x}", other.digest))),
                "{}",
                w.name()
            );
        }
        let _ = std::fs::remove_dir_all(scratch);
    }
}
