//! The docs name only experiments that exist: every `repro <name>` in the
//! top-level docs and in the crates' sources resolves to a row of
//! `int_experiments::EXPERIMENTS` or to `all`.
//!
//! A mention is `` `repro <name> `` (inline code) or `repro -- <name>` (a
//! `cargo run` line); `<name>` is the lowercase word that follows.

use int_edge_sched::experiments::find;
use std::path::Path;

#[test]
fn every_repro_command_in_the_docs_is_an_experiment() {
    let mut files: Vec<_> = ["README.md", "DESIGN.md", "EXPERIMENTS.md"].map(Into::into).to_vec();
    for krate in std::fs::read_dir("crates").expect("crates/") {
        collect_rs(&krate.expect("dir entry").path().join("src"), &mut files);
    }
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

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
