//! The docs and the public surface stay honest.
//!
//! - The docs name only experiments that exist: every `repro <name>` in the
//!   top-level docs and in the crates' sources resolves to a row of
//!   `int_experiments::EXPERIMENTS` or to `all`. A mention is
//!   `` `repro <name> `` (inline code) or `repro -- <name>` (a `cargo run`
//!   line); `<name>` is the lowercase word that follows.
//! - The docs name only items that exist: every inline `` `Type::item` ``
//!   in the top-level docs names a `fn`, `const`, field or variant defined
//!   in a crate file that defines `Type`, or a std path in [`STD_PATHS`].
//! - Every `pub` item has a caller or a reason: a `pub fn`, `struct`,
//!   `enum`, `trait`, `type`, `const` or `static` in `crates/*/src` that no
//!   non-test code names is listed in [`KEPT`], its doc comment gives the
//!   reason it stays under one of the [`REASONS`] markers, and every entry
//!   of [`KEPT`] is still such an item.

use int_edge_sched::experiments::find;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

#[test]
fn every_repro_command_in_the_docs_is_an_experiment() {
    let mut files: Vec<PathBuf> = DOCS.map(Into::into).to_vec();
    files.extend(crate_sources());
    let mut unknown = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable doc");
        for marker in ["`repro ", "repro -- "] {
            for (at, _) in text.match_indices(marker) {
                let rest = &text[at + marker.len()..];
                let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '-')).unwrap_or(rest.len());
                let name = &rest[..end];
                let is_word = name.starts_with(|c: char| c.is_ascii_lowercase());
                if is_word && name != "all" && find(name).is_none() {
                    unknown.push(format!("{}: repro {name}", path.display()));
                }
            }
        }
    }
    assert!(unknown.is_empty(), "no such experiment:\n{}", unknown.join("\n"));
}

/// `Type::item` spans in the docs that name the standard library.
const STD_PATHS: &[&str] = &["Arc::try_unwrap"];

#[test]
fn every_type_item_path_in_the_docs_resolves() {
    let sources: Vec<String> =
        crate_sources().iter().map(|p| std::fs::read_to_string(p).expect("readable source")).collect();
    let mut unresolved = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(doc).expect("readable doc");
        // Inline code never spans lines here: the odd pieces of a line
        // split at its backticks are its code spans.
        for span in text.lines().flat_map(|l| l.split('`').skip(1).step_by(2)) {
            let Some((ty, item)) = span.split_once("::") else { continue };
            let ident = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
            if !(ty.starts_with(|c: char| c.is_ascii_uppercase()) && ident(ty) && ident(item)) {
                continue;
            }
            let resolves = sources.iter().any(|src| {
                src.lines().any(|l| follows(l, &["struct", "enum", "trait", "type"], ty))
                    && src.lines().any(|l| follows(l, &["fn", "const"], item) || is_member(l, item))
            });
            if !resolves && !STD_PATHS.contains(&span) {
                unresolved.push(format!("{doc}: `{span}`"));
            }
        }
    }
    assert!(unresolved.is_empty(), "no such item:\n{}", unresolved.join("\n"));
}

/// `pub` items that no non-test code names, as (file, name). Each one's
/// doc comment says why it stays, under one of the [`REASONS`].
const KEPT: &[(&str, &str)] = &[
    ("crates/apps/src/task.rs", "all_done"),
    ("crates/core/src/collector.rs", "origin_stats"),
    ("crates/core/src/collector.rs", "memo_stats"),
    ("crates/core/src/sched.rs", "config_arc"),
    ("crates/core/src/sched.rs", "distances_arc"),
    ("crates/core/src/snapshot.rs", "content_eq"),
    ("crates/dataplane/src/table.rs", "lookup_linear"),
    ("crates/experiments/src/sustained.rs", "run_oracle"),
    ("crates/netsim/src/engine.rs", "trace_ring_mut"),
    ("crates/netsim/src/engine.rs", "queue_stats"),
    ("crates/netsim/src/engine.rs", "host_uplink_port"),
    ("crates/netsim/src/par.rs", "sims_mut"),
    ("crates/netsim/src/routing.rs", "distance"),
    ("crates/netsim/src/routing.rs", "host_distance"),
    ("crates/netsim/src/tcp.rs", "alloc_conn_id"),
    ("crates/obs/src/metrics.rs", "histogram_record"),
    ("crates/obs/src/metrics.rs", "gauge"),
    ("crates/obs/src/metrics.rs", "histogram"),
    ("crates/obs/src/trace.rs", "canonical_order"),
];

/// The markers a kept item's reason opens with: the reference a test holds
/// the fast path to, an accessor a determinism test or a ground-truth
/// comparison reads, or the ground truth itself.
const REASONS: [&str; 3] = ["Oracle:", "Test accessor:", "Ground truth:"];

/// Finds each `pub` item in `crates/*/src` above the file's
/// `#[cfg(test)] mod` whose name no non-test code in `crates/*/src`,
/// `src`, `examples` or `intbench/src` names outside its own definition
/// line, `//` comments excluded. A name counts where it appears as a whole
/// word, so the scan is a lower bound on what has no caller: a common name
/// counts as used wherever any item of that name is used
/// (`ParSim::set_tracing`, say, passes on `Simulator::set_tracing`'s
/// callers). Each unmatched item must be in [`KEPT`], and its doc comment
/// must carry one of the [`REASONS`].
#[test]
fn every_pub_item_has_a_caller_or_a_reason() {
    let mut corpus = crate_sources();
    for dir in ["src", "examples", "intbench/src"] {
        collect_rs(Path::new(dir), &mut corpus);
    }
    let texts: Vec<String> =
        corpus.iter().map(|p| std::fs::read_to_string(p).expect("readable source")).collect();
    let mut uses: HashMap<&str, usize> = HashMap::new();
    let mut defs = Vec::new();
    for (path, text) in corpus.iter().zip(&texts) {
        for line in code_lines(text) {
            for w in words(line) {
                *uses.entry(w).or_default() += 1;
            }
            if let Some(name) = pub_item(line).filter(|_| path.starts_with("crates")) {
                defs.push((path.display().to_string(), name, words(line).filter(|w| *w == name).count()));
            }
        }
    }
    let orphans: Vec<(String, &str)> =
        defs.into_iter().filter(|(_, name, own)| uses[name] == *own).map(|(f, name, _)| (f, name)).collect();
    let unjustified: Vec<String> = orphans
        .iter()
        .filter(|(f, name)| !KEPT.contains(&(f.as_str(), *name)))
        .map(|(f, name)| format!("{f}: {name}"))
        .collect();
    let stale: Vec<String> = KEPT
        .iter()
        .filter(|&&(f, name)| !orphans.iter().any(|(of, on)| of == f && *on == name))
        .map(|(f, name)| format!("{f}: {name}"))
        .collect();
    assert!(
        unjustified.is_empty(),
        "pub items no non-test code calls (delete them, or add them to KEPT with the reason they stay):\n{}",
        unjustified.join("\n")
    );
    assert!(stale.is_empty(), "KEPT entries that are gone or now have a caller:\n{}", stale.join("\n"));
    let unexplained: Vec<String> = KEPT
        .iter()
        .filter(|&&(f, name)| {
            let doc = doc_comment(&std::fs::read_to_string(f).expect("readable source"), name);
            !REASONS.iter().any(|r| doc.contains(r))
        })
        .map(|(f, name)| format!("{f}: {name}"))
        .collect();
    assert!(
        unexplained.is_empty(),
        "KEPT items whose doc comment gives no reason (one of {REASONS:?}):\n{}",
        unexplained.join("\n")
    );
}

/// The `///` doc comment above the first `pub` definition of `name`, its
/// lines joined by spaces so a marker may wrap.
fn doc_comment(text: &str, name: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let Some(at) = lines.iter().position(|l| pub_item(l) == Some(name)) else { return String::new() };
    let mut doc: Vec<&str> = lines[..at]
        .iter()
        .rev()
        .map(|l| l.trim_start())
        .take_while(|l| l.starts_with("///") || l.starts_with("#["))
        .filter_map(|l| l.strip_prefix("///"))
        .map(str::trim)
        .collect();
    doc.reverse();
    doc.join(" ")
}

/// Non-test code, line by line: what lies above the file's
/// `#[cfg(test)] mod`, each line cut at its `//` comment.
fn code_lines(text: &str) -> impl Iterator<Item = &str> {
    let code = text.split("#[cfg(test)]\nmod").next().unwrap_or(text);
    code.lines().map(|l| l.split("//").next().unwrap_or(l))
}

fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).filter(|w| !w.is_empty())
}

/// The name a `pub fn|struct|enum|trait|type|const|static` line defines.
fn pub_item(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = ["const ", "unsafe "]
        .iter()
        .find_map(|q| rest.strip_prefix(q).filter(|r| r.starts_with("fn ")))
        .unwrap_or(rest);
    let (kind, after) = rest.split_once(' ')?;
    ["fn", "struct", "enum", "trait", "type", "const", "static"].contains(&kind).then(|| words(after).next())?
}

/// Does `line` hold one of the keywords `kinds` directly followed by `name`?
fn follows(line: &str, kinds: &[&str], name: &str) -> bool {
    let w: Vec<&str> = words(line).collect();
    w.windows(2).any(|p| kinds.contains(&p[0]) && p[1] == name)
}

/// Does `line` declare a field or variant `name` (`name:`, `name,`,
/// `name(` or `name {`)?
fn is_member(line: &str, name: &str) -> bool {
    let l = line.trim_start();
    let l = l.strip_prefix("pub ").or_else(|| l.strip_prefix("pub(crate) ")).unwrap_or(l);
    l.strip_prefix(name)
        .map(str::trim_start)
        .is_some_and(|r| !r.starts_with("::") && r.starts_with([':', ',', '(', '{']))
}

/// Every `.rs` file under `crates/*/src`.
fn crate_sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir("crates").expect("crates/") {
        collect_rs(&krate.expect("dir entry").path().join("src"), &mut files);
    }
    files
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
