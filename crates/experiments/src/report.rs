//! Table rendering and machine-readable result output.

use serde::Serialize;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Render rows as an aligned text table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        debug_assert_eq!(row.len(), cols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }

    let mut out = String::new();
    let render_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            let _ = write!(out, "{:<width$}", cell, width = widths[i] + 2);
        }
        out.push('\n');
    };
    render_row(&mut out, &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().map(|w| w + 2).sum();
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        render_row(&mut out, row);
    }
    out
}

/// Format a millisecond value compactly.
pub fn ms(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a gain fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:+.1}%", v * 100.0)
}

/// Where experiment JSON results land: `INT_RESULTS_DIR`, else `results/`.
/// The only environment read in the library crates; `repro` resolves it
/// once and hands the directory to everything it writes.
pub fn results_dir() -> PathBuf {
    std::env::var_os("INT_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// A result as the pretty JSON every artifact file holds.
pub fn to_json<T: Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_string_pretty(value).expect("serializable result").into_bytes()
}

/// Write `json` as `<dir>/<name>.json`, creating `dir`; returns the path.
pub fn save_json(dir: &Path, name: &str, json: &[u8]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Logical cores visible to this process — recorded alongside every
/// wall-clock number so readers can judge what parallel speedups were
/// even observable (the CI container has one).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Peak resident set size of this process in kB (`VmHWM` from
/// `/proc/self/status`); `None` off Linux or if the field is missing.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Run metadata `repro giant` records next to its artifact.
#[derive(Debug, Serialize)]
pub struct RunMeta {
    /// Wall-clock duration of the run, seconds.
    pub wall_clock_s: f64,
    /// Peak RSS in kB (`None` when the platform cannot report it).
    pub peak_rss_kb: Option<u64>,
    /// Logical cores available to the process.
    pub host_cores: usize,
}

impl RunMeta {
    /// Capture metadata for a run that took `wall_clock_s` seconds.
    pub fn capture(wall_clock_s: f64) -> RunMeta {
        RunMeta { wall_clock_s, peak_rss_kb: peak_rss_kb(), host_cores: host_cores() }
    }
}

/// Persist run metadata as a `<name>.runmeta.json` sidecar, keeping
/// nondeterministic measurements (wall clock, RSS) out of the byte-stable
/// artifact. Returns the sidecar path.
pub fn save_runmeta(dir: &Path, name: &str, meta: &RunMeta) -> std::io::Result<PathBuf> {
    save_json(dir, &format!("{name}.runmeta"), &to_json(meta))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["class", "mean"],
            &[
                vec!["VS".into(), "123.4".into()],
                vec!["Large".into(), "9.0".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("class"));
        assert!(lines[2].starts_with("VS"));
        assert!(lines[3].starts_with("Large"));
        // Columns align: "mean" starts at the same offset everywhere.
        let col = lines[0].find("mean").unwrap();
        assert_eq!(&lines[2][col..col + 5], "123.4");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(1234.56), "1234.6");
        assert_eq!(pct(0.305), "+30.5%");
        assert_eq!(pct(-0.05), "-5.0%");
    }

    #[test]
    fn host_cores_and_rss_are_sane() {
        assert!(host_cores() >= 1);
        if cfg!(target_os = "linux") {
            // VmHWM exists on any Linux and a test process uses some memory.
            assert!(peak_rss_kb().unwrap() > 0);
        }
    }

    #[test]
    fn runmeta_sidecar_lands_next_to_the_artifact() {
        let dir = std::env::temp_dir().join(format!("int_runmeta_{}", std::process::id()));
        let meta = RunMeta::capture(1.5);
        assert_eq!(meta.wall_clock_s, 1.5);
        assert!(meta.host_cores >= 1);
        let path = save_runmeta(&dir, "giant_test", &meta).unwrap();
        assert!(path.ends_with("giant_test.runmeta.json"));
        assert_eq!(std::fs::read(&path).unwrap(), to_json(&meta));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn json_roundtrip() {
        #[derive(Serialize)]
        struct Tiny {
            x: u32,
        }
        let dir = std::env::temp_dir().join(format!("int_exp_test_results_{}", std::process::id()));
        let path = save_json(&dir, "tiny", &to_json(&Tiny { x: 7 })).unwrap();
        assert!(path.ends_with("tiny.json"));
        assert_eq!(std::fs::read(&path).unwrap(), to_json(&Tiny { x: 7 }));
        assert_eq!(to_json(&Tiny { x: 7 }), b"{\n  \"x\": 7\n}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
