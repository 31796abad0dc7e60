//! DESIGN.md stays small and every pointer into it stays valid.
//!
//! The document records what the code cannot show (the paper mapping, the
//! substitutions, the contracts); module docs, CHANGES.md and the ledger
//! hold the rest. So it has a byte budget, and a change that adds text
//! removes at least as much. A reference is `DESIGN.md §N` (a numbered
//! `##` section, `§N–M` for a range) and/or `DESIGN.md, "Title"`: a
//! heading whose text is, or starts with, `Title` before ` (`, or a
//! paragraph that opens with `**Title.**`. With both, the title must lie
//! inside that section.

use std::fs;
use std::path::{Path, PathBuf};

const BUDGET_BYTES: usize = 40_000;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn design() -> String {
    fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md is readable")
}

/// A `##` section: its number (`6b` in `## 6b. Performance`) and its lines.
struct Section<'a> {
    number: &'a str,
    lines: Vec<&'a str>,
}

fn sections(doc: &str) -> Vec<Section<'_>> {
    let mut out = vec![Section { number: "", lines: Vec::new() }];
    for line in doc.lines() {
        if let Some(head) = line.strip_prefix("## ") {
            let number = head.split_once(". ").map_or("", |(n, _)| n);
            out.push(Section { number, lines: Vec::new() });
        }
        out.last_mut().expect("one section at least").lines.push(line);
    }
    out
}

fn names_title(line: &str, title: &str) -> bool {
    if !line.starts_with('#') {
        return line.starts_with(&format!("**{title}.**"));
    }
    let text = line.trim_start_matches('#').trim_start();
    let text = match text.split_once(". ") {
        Some((n, rest)) if n.starts_with(|c: char| c.is_ascii_digit()) => rest,
        _ => text,
    };
    text == title || text.starts_with(&format!("{title} ("))
}

/// One file's text with line breaks, comment markers and indentation
/// folded into single spaces, so a reference wrapped across doc-comment
/// lines reads as one.
fn folded(text: &str) -> String {
    let strip = |l: &str| {
        let l = l.trim_start();
        ["//!", "///", "//", "#"]
            .iter()
            .find_map(|p| l.strip_prefix(p))
            .unwrap_or(l)
            .trim()
            .to_owned()
    };
    text.lines().map(strip).collect::<Vec<_>>().join(" ")
}

/// Every `(section, title)` reference in `text`, as written.
fn references(text: &str) -> Vec<(Option<String>, Option<String>)> {
    let text = folded(text);
    let mut out = Vec::new();
    for (at, _) in text.match_indices("DESIGN.md") {
        let mut rest = text[at + "DESIGN.md".len()..].trim_start_matches('`').trim_start();
        let mut section = None;
        if let Some(after) = rest.strip_prefix('§') {
            let end = after
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '–'))
                .unwrap_or(after.len());
            section = Some(after[..end].to_owned());
            rest = &after[end..];
        }
        let rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
        let title =
            rest.strip_prefix('"').and_then(|r| r.split_once('"')).map(|(t, _)| t.to_owned());
        if section.is_some() || title.is_some() {
            out.push((section, title));
        }
    }
    out
}

fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                files_under(&path, out);
            }
        } else if path
            .extension()
            .is_some_and(|e| ["rs", "md", "toml", "yml"].contains(&e.to_str().unwrap_or("")))
        {
            out.push(path);
        }
    }
}

fn referring_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = ["README.md", "EXPERIMENTS.md", ".github/workflows/ci.yml"]
        .iter()
        .map(|f| root().join(f))
        .collect();
    files_under(&root().join("crates"), &mut files);
    files
}

#[test]
fn design_doc_fits_its_budget() {
    let bytes = design().len();
    assert!(
        bytes <= BUDGET_BYTES,
        "DESIGN.md is {bytes} bytes, over its {BUDGET_BYTES}-byte budget"
    );
}

#[test]
fn every_design_doc_reference_names_a_section_that_exists() {
    let doc = design();
    let sections = sections(&doc);
    let mut broken = Vec::new();
    let mut seen = 0;
    for file in referring_files() {
        let text = fs::read_to_string(&file).expect("readable source");
        for (section, title) in references(&text) {
            seen += 1;
            let scope: Vec<&Section> = match &section {
                Some(s) => s
                    .split('–')
                    .map(|n| sections.iter().find(|sec| sec.number == n))
                    .collect::<Option<Vec<_>>>()
                    .unwrap_or_default(),
                None => sections.iter().collect(),
            };
            let found = !scope.is_empty()
                && title.as_ref().is_none_or(|t| {
                    scope.iter().flat_map(|s| s.lines.iter()).any(|l| names_title(l, t))
                });
            if !found {
                let shown = file.strip_prefix(root()).unwrap_or(&file).display().to_string();
                broken.push(format!("{shown}: §{section:?} {title:?}"));
            }
        }
    }
    assert!(broken.is_empty(), "dangling DESIGN.md references:\n{}", broken.join("\n"));
    assert!(seen >= 10, "only {seen} references found: the scan itself is broken");
}

#[test]
fn the_reference_scan_reads_wrapped_and_titled_forms() {
    let text = "see (DESIGN.md §6d, \"Study server & WAL\") and\n//! `DESIGN.md`, \"SIMD\n//! microkernels & dispatch\"; DESIGN.md §3–4";
    assert_eq!(
        references(text),
        vec![
            (Some("6d".into()), Some("Study server & WAL".into())),
            (None, Some("SIMD microkernels & dispatch".into())),
            (Some("3–4".into()), None),
        ]
    );
    assert!(names_title("### Execution runtime (`dist_exec::runtime`)", "Execution runtime"));
    assert!(names_title("## 6e. Distributional evaluation", "Distributional evaluation"));
    assert!(names_title("**Fault tolerance.** Worker failures", "Fault tolerance"));
    assert!(!names_title("### SIMD microkernels & dispatch", "SIMD microkernels"));
    assert!(references("DESIGN.md alone is not a reference").is_empty());
}

#[test]
fn the_generated_experiments_file_keeps_its_table_anchor() {
    let text = fs::read_to_string(root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    assert!(
        references(&text).contains(&(Some("4".into()), None)),
        "EXPERIMENTS.md cites DESIGN.md §4"
    );
}
