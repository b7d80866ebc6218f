//! Link-check for the repository's markdown documentation: every relative
//! link must point at an existing file, and every `#anchor` must match a
//! real heading (GitHub slugification) in the target document. This is
//! what keeps the cross-document links added by the docs overhaul — the
//! README env table into ARCHITECTURE.md sections, ARCHITECTURE.md into
//! EXPERIMENTS.md — from rotting as headings move.

use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

/// GitHub's heading-to-anchor slugification: lowercase, drop everything
/// but alphanumerics/spaces/hyphens/underscores, spaces become hyphens.
/// Repeated slugs get `-1`, `-2`, … suffixes.
fn slugify(heading: &str) -> String {
    heading
        .trim()
        .chars()
        .filter_map(|c| {
            if c.is_alphanumeric() || c == '_' || c == '-' {
                Some(c.to_ascii_lowercase())
            } else if c == ' ' {
                Some('-')
            } else {
                None
            }
        })
        .collect()
}

/// All heading anchors of one markdown file, fence-aware.
fn anchors(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut seen: HashMap<String, u64> = HashMap::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced || !line.starts_with('#') {
            continue;
        }
        let title = line.trim_start_matches('#');
        if !title.starts_with(' ') {
            continue; // not a heading (e.g. "#![warn…]" in prose)
        }
        let slug = slugify(title);
        let n = seen.entry(slug.clone()).or_insert(0);
        out.push(if *n == 0 { slug.clone() } else { format!("{slug}-{n}") });
        *n += 1;
    }
    out
}

/// Extracts `](target)` link targets, fence-aware and inline-code-naive
/// (markdown links never start inside backticks in these docs).
fn link_targets(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        let mut rest = line;
        while let Some(pos) = rest.find("](") {
            rest = &rest[pos + 2..];
            if let Some(end) = rest.find(')') {
                out.push(rest[..end].to_string());
                rest = &rest[end + 1..];
            } else {
                break;
            }
        }
    }
    out
}

#[test]
fn markdown_links_resolve() {
    let root = repo_root();
    let docs: Vec<PathBuf> = fs::read_dir(&root)
        .expect("readable repo root")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    assert!(docs.len() >= 5, "expected the top-level docs, found {docs:?}");

    let mut anchor_cache: HashMap<PathBuf, Vec<String>> = HashMap::new();
    let mut errors = Vec::new();
    for doc in &docs {
        let text = fs::read_to_string(doc).expect("readable doc");
        anchor_cache.insert(doc.clone(), anchors(&text));
        for target in link_targets(&text) {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            let (path_part, anchor) = match target.split_once('#') {
                Some((p, a)) => (p, Some(a.to_string())),
                None => (target.as_str(), None),
            };
            let file = if path_part.is_empty() {
                doc.clone()
            } else {
                doc.parent().expect("doc has a dir").join(path_part)
            };
            if !file.exists() {
                errors.push(format!("{}: broken link -> {target}", doc.display()));
                continue;
            }
            if let Some(a) = anchor {
                if file.extension().is_some_and(|x| x == "md") {
                    let file = file.canonicalize().expect("canonical target");
                    let anch = anchor_cache.entry(file.clone()).or_insert_with(|| {
                        anchors(&fs::read_to_string(&file).expect("readable target"))
                    });
                    if !anch.contains(&a) {
                        errors.push(format!(
                            "{}: dead anchor -> {target} (no heading slugs to \"{a}\" in {})",
                            doc.display(),
                            file.display()
                        ));
                    }
                }
            }
        }
    }
    assert!(errors.is_empty(), "documentation links rotted:\n{}", errors.join("\n"));
}

/// The cells of each data row of the README's canonical env-var table
/// (`cells[1]` = variable, `cells[2]` = default).
fn readme_env_rows() -> Vec<Vec<String>> {
    let text = fs::read_to_string(repo_root().join("README.md")).expect("README");
    let rows: Vec<Vec<String>> = text
        .lines()
        .skip_while(|l| !l.starts_with("| variable | default |"))
        .take_while(|l| l.starts_with('|'))
        .skip(2)
        .map(|row| row.split('|').map(|c| c.trim().to_string()).collect())
        .collect();
    assert!(!rows.is_empty(), "canonical env table missing from README");
    rows
}

#[test]
fn readme_env_table_has_defaults_for_every_row() {
    // The canonical env-var table promises a default for every knob; keep
    // the column from silently losing cells.
    for cells in readme_env_rows() {
        assert!(
            cells.len() >= 4 && !cells[2].is_empty(),
            "env-table row lacks a default value: {cells:?}"
        );
    }
}

/// Drops every `#[cfg(test)]` item (up to its balanced closing brace, or
/// its `;`) and every comment line, leaving the code a release build runs.
fn strip_tests_and_comments(text: &str) -> String {
    let mut out = String::new();
    let (mut skipping, mut depth, mut opened) = (false, 0i64, false);
    for line in text.lines() {
        let code = line.trim_start();
        if skipping {
            depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
            opened |= code.contains('{');
            skipping = !(opened && depth <= 0 || !opened && code.ends_with(';'));
        } else if code == "#[cfg(test)]" {
            (skipping, depth, opened) = (true, 0, false);
        } else if !code.starts_with("//") {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Every non-test Rust source under `crates/*/src`, as (path relative to
/// the repo root, code with test items and comments stripped).
fn non_test_sources() -> Vec<(String, String)> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) {
        for entry in fs::read_dir(dir).expect("readable source dir").filter_map(|e| e.ok()) {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, root, out);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let rel = path.strip_prefix(root).expect("under the root").display().to_string();
                let text = fs::read_to_string(&path).expect("readable source");
                out.push((rel, strip_tests_and_comments(&text)));
            }
        }
    }
    let root = repo_root();
    let mut out = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/").filter_map(|e| e.ok()) {
        let src = krate.path().join("src");
        if src.is_dir() {
            walk(&src, &root, &mut out);
        }
    }
    assert!(out.len() > 20, "expected the workspace sources, found {}", out.len());
    out
}

#[test]
fn readme_env_table_names_only_variables_the_code_reads() {
    // The table and the code agree in both directions: every documented
    // knob has a reader, and every name a reader is called with (a literal
    // passed to `env::var`, `bench::knob` or `bench::flag` outside tests)
    // is documented.
    let documented: BTreeSet<String> = readme_env_rows()
        .iter()
        .flat_map(|cells| {
            // The variable cell holds one or more backticked `NAME[=value]`.
            let names: Vec<String> = cells[1]
                .split('`')
                .skip(1)
                .step_by(2)
                .map(|code| {
                    code.chars().take_while(|c| c.is_ascii_uppercase() || *c == '_').collect()
                })
                .collect();
            assert!(!names.is_empty(), "env-table row names no variable: {cells:?}");
            names
        })
        .collect();
    let mut read = BTreeSet::new();
    for (_, code) in non_test_sources() {
        for reader in ["env::var(\"", "knob(\"", "flag(\""] {
            for (pos, _) in code.match_indices(reader) {
                let name = &code[pos + reader.len()..];
                read.insert(name[..name.find('"').expect("closed literal")].to_string());
            }
        }
    }
    assert_eq!(
        documented,
        read,
        "README env table vs names the code reads (documented-only: {:?}; read-only: {:?})",
        documented.difference(&read).collect::<Vec<_>>(),
        read.difference(&documented).collect::<Vec<_>>()
    );
}

#[test]
fn only_bench_and_the_engine_switch_read_the_environment() {
    // Libraries take explicit parameters; the harness reads knobs in one
    // place (`bench::knob`/`bench::flag`/`bench::banner`) and `cdvm`
    // owns the one engine switch.
    let allowed = ["crates/bench/src/lib.rs", "crates/cdvm/src/fastpath.rs"];
    let offenders: Vec<String> = non_test_sources()
        .into_iter()
        .filter(|(path, code)| code.contains("env::var") && !allowed.contains(&path.as_str()))
        .map(|(path, _)| path)
        .collect();
    assert!(offenders.is_empty(), "environment read outside {allowed:?}: {offenders:?}");
}
