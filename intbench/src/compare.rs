//! `intbench --compare A.json B.json`: is B no worse than A?
//!
//! Both files come from `intbench --all`. For every workload × end-to-end
//! metric the medians of the runs are compared against the metric's
//! bound. A pair whose run-to-run spread exceeds the bound is reported as
//! unresolved rather than unchanged, unless every run of B reads better
//! than every run of A.

use crate::json::as_f64;
use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, spread};
use crate::workload::Workload;
use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Better,
    Unresolved,
    Regression,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// `(b − a) / a`, signed so that positive is worse.
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge one metric of one workload from the runs of both sides.
pub fn judge(workload: &'static str, m: &EndToEnd, a: &[f64], b: &[f64]) -> Row {
    let (ma, mb) = (median(a), median(b));
    let sign = if m.better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = if ma == 0.0 {
        0.0
    } else {
        sign * (mb - ma) / ma.abs()
    };
    let noise = spread(a).max(spread(b));
    let worse = |x: f64, y: f64| sign * (x - y) > 0.0;
    let b_always_better = a.iter().all(|&x| b.iter().all(|&y| worse(x, y)));
    let verdict = if b_always_better {
        Verdict::Better
    } else if (mb - ma).abs() <= m.floor {
        Verdict::Ok
    } else if noise > m.bound {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    Row {
        workload,
        metric: m.name,
        a: ma,
        b: mb,
        worse_by,
        spread: noise,
        bound: m.bound,
        verdict,
    }
}

fn runs_of(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let Value::Array(runs) = doc.get("workloads")?.get(workload)?.get("runs")? else {
        return None;
    };
    runs.iter().map(|r| as_f64(r.get(metric)?)).collect()
}

/// Compare two `--all` documents; rows for every pair both contain.
pub fn compare(a: &Value, b: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in Workload::ALL {
        for m in &END_TO_END {
            let (Some(ra), Some(rb)) = (runs_of(a, w.name(), m.name), runs_of(b, w.name(), m.name))
            else {
                continue;
            };
            if ra.is_empty() || rb.is_empty() {
                continue;
            }
            rows.push(judge(w.name(), m, &ra, &rb));
        }
    }
    rows
}

/// Print the table; `true` when nothing regressed.
pub fn report(rows: &[Row]) -> bool {
    println!(
        "{:<12} {:<15} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<12} {:<15} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    let regressions = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regression)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} pairs, {regressions} regressions, {unresolved} unresolved",
        rows.len()
    );
    regressions == 0 && !rows.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_bound_spread_and_floor() {
        let ops = metric("ops_per_s"); // higher is better, bound 25 %
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let v = |a: &[f64], b: &[f64]| judge("w", ops, a, b).verdict;
        assert_eq!(v(&steady, &steady), Verdict::Ok);
        assert_eq!(
            v(&steady, &[70.0, 71.0, 69.0, 70.0, 70.5]),
            Verdict::Regression
        );
        assert_eq!(
            v(&steady, &[130.0, 131.0, 129.0, 130.0, 130.5]),
            Verdict::Better
        );
        // Too noisy to call, even though the median fell by 40 %.
        assert_eq!(
            v(&steady, &[20.0, 60.0, 100.0, 140.0, 30.0]),
            Verdict::Unresolved
        );
        let worse_by = judge("w", ops, &steady, &[80.0; 5]).worse_by;
        assert!(
            (worse_by - 0.2).abs() < 1e-9,
            "a fall in throughput is positive: {worse_by}"
        );

        // A set-up time that doubles but stays under the floor is noise.
        let setup = metric("setup_s");
        assert_eq!(
            judge("w", setup, &[0.004; 3], &[0.009, 0.008, 0.009]).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge("w", setup, &[0.4; 3], &[0.9, 0.8, 0.9]).verdict,
            Verdict::Regression
        );
    }

    #[test]
    fn documents_are_compared_pair_by_pair() {
        let doc = |ops: f64| {
            let run = || {
                obj([
                    ("ops_per_s", Value::F64(ops)),
                    ("latency_ms_p50", Value::F64(2.0)),
                ])
            };
            obj([(
                "workloads",
                obj([(
                    "ctl_warm",
                    obj([("runs", Value::Array(vec![run(), run(), run()]))]),
                )]),
            )])
        };
        let rows = compare(&doc(100.0), &doc(60.0));
        assert_eq!(rows.len(), 2, "only pairs both files hold: {rows:?}");
        assert_eq!(rows[0].verdict, Verdict::Regression);
        assert_eq!(rows[1].verdict, Verdict::Ok);
        assert!(!report(&rows));
        assert!(report(&compare(&doc(100.0), &doc(100.0))));
        assert!(!report(&[]), "nothing to compare is not a pass");
    }
}
