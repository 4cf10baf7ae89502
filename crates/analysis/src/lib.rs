//! In-repo static analysis gate for the UniStore workspace.
//!
//! Three rule families (see [`rules`]) run over a token-masked view of
//! every source file (see [`scan`]), with a checked-in, size-capped
//! suppression list (see [`allow`]). The gate is dependency-free and
//! offline: it reads the tree, never the network, and never runs a
//! build. `cargo run -p unistore-analysis` from the workspace root
//! prints findings and exits non-zero when any are unsuppressed.

pub mod allow;
pub mod rules;
pub mod scan;

use rules::Finding;
use scan::Source;
use std::path::{Path, PathBuf};

/// Outcome of a full workspace run.
pub struct Report {
    /// Unsuppressed findings — the gate fails when non-empty.
    pub findings: Vec<Finding>,
    /// Findings matched by an allowlist entry.
    pub suppressed: Vec<(Finding, String)>,
    /// Structural problems: allowlist parse errors, stale entries,
    /// unreadable files.
    pub errors: Vec<String>,
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// Allowlist entries in force.
    pub allow_entries: usize,
    /// Lines of non-test code per crate directory (`crates/<name>`),
    /// ascending by directory ([`Source::code_lines`]).
    pub code_lines: Vec<(String, usize)>,
}

impl Report {
    /// True when the gate passes.
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.errors.is_empty()
    }
}

/// Runs the whole gate over the workspace rooted at `root`.
pub fn run(root: &Path) -> Report {
    let mut errors = Vec::new();
    let sources = load_sources(root, &mut errors);

    let mut findings = Vec::new();
    for src in &sources {
        rules::check_file(src, &mut findings);
    }
    check_exhaustiveness(&sources, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    let allow_text = std::fs::read_to_string(root.join("analysis-allow.toml")).unwrap_or_default();
    let (entries, allow_errors) = allow::parse(&allow_text);
    errors.extend(allow_errors.iter().map(|e| e.to_string()));

    let mut used = vec![0usize; entries.len()];
    let mut unsuppressed = Vec::new();
    let mut suppressed = Vec::new();
    for f in findings {
        let hit = entries
            .iter()
            .position(|e| e.rule == f.rule && e.file == f.file && f.text.contains(&e.needle));
        match hit {
            Some(i) => {
                used[i] += 1;
                suppressed.push((f, entries[i].justification.clone()));
            }
            None => unsuppressed.push(f),
        }
    }
    for (entry, &n) in entries.iter().zip(&used) {
        if n == 0 {
            errors.push(format!(
                "analysis-allow.toml:{}: stale entry (rule {:?}, file {:?}, needle {:?}) \
                 suppresses nothing — delete it; the list may only shrink",
                entry.line, entry.rule, entry.file, entry.needle
            ));
        }
    }

    let mut code_lines: Vec<(String, usize)> = Vec::new();
    for src in &sources {
        let Some(krate) = src.path.strip_prefix("crates/").and_then(|p| p.split('/').next()) else {
            continue;
        };
        let krate = format!("crates/{krate}");
        match code_lines.last_mut() {
            Some((last, n)) if *last == krate => *n += src.code_lines(),
            _ => code_lines.push((krate, src.code_lines())),
        }
    }

    Report {
        findings: unsuppressed,
        suppressed,
        errors,
        files: sources.len(),
        allow_entries: entries.len(),
        code_lines,
    }
}

/// Loads every `.rs` file under `crates/*/src`, `crates/*/tests`, and
/// the root `tests/` directory. Vendored shims and build output are out
/// of scope: the gate polices this repo's protocol code, not the
/// offline stand-ins for external crates.
fn load_sources(root: &Path, errors: &mut Vec<String>) -> Vec<Source> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut krates: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        krates.sort();
        for krate in krates {
            for sub in ["src", "tests"] {
                collect_rs(&krate.join(sub), &mut files);
            }
        }
    } else {
        errors.push(format!("cannot read {}", crates_dir.display()));
    }
    collect_rs(&root.join("tests"), &mut files);
    files.sort();

    let mut sources = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        match std::fs::read_to_string(&path) {
            Ok(text) => sources.push(Source::new(rel, text)),
            Err(e) => errors.push(format!("cannot read {rel}: {e}")),
        }
    }
    sources
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// L3: every variant of each protocol enum needs a handler arm in
/// non-test code and a constructor in test code (roundtrip coverage).
fn check_exhaustiveness(sources: &[Source], out: &mut Vec<Finding>) {
    for spec in rules::ENUM_SPECS {
        let Some(def) = sources.iter().find(|s| s.path == spec.file) else {
            out.push(Finding {
                rule: "wire-exhaustive",
                file: spec.file.to_string(),
                line: 0,
                text: String::new(),
                message: format!("defining file for enum {} not found", spec.name),
            });
            continue;
        };
        let variants = rules::enum_variants(&def.masked, spec.name);
        if variants.is_empty() {
            out.push(Finding {
                rule: "wire-exhaustive",
                file: spec.file.to_string(),
                line: 0,
                text: String::new(),
                message: format!("enum {} not found or has no variants", spec.name),
            });
            continue;
        }
        let enum_line =
            def.masked.find(&format!("enum {}", spec.name)).map_or(1, |at| def.line_of(at));
        for variant in &variants {
            let needle = format!("{}::{}", spec.name, variant);
            let handled = sources.iter().any(|s| {
                s.path != spec.file
                    && s.path.starts_with(spec.handler_dir)
                    && s.masked_non_test().contains(&needle)
            });
            if !handled {
                out.push(Finding {
                    rule: "wire-exhaustive",
                    file: spec.file.to_string(),
                    line: enum_line,
                    text: needle.clone(),
                    message: format!(
                        "{needle} has no handler arm in {} — a decodable message nobody \
                         handles is dead protocol surface",
                        spec.handler_dir
                    ),
                });
            }
            let covered = sources.iter().any(|s| {
                spec.coverage_dirs.iter().any(|d| s.path.starts_with(d))
                    && s.masked_test_only().contains(&needle)
            });
            if !covered {
                out.push(Finding {
                    rule: "wire-exhaustive",
                    file: spec.file.to_string(),
                    line: enum_line,
                    text: needle.clone(),
                    message: format!(
                        "{needle} is never constructed in test code — add a decode-roundtrip \
                         test for it"
                    ),
                });
            }
        }
    }
}

/// Renders a report to a writer (used by both the binary and tests).
pub fn render(report: &Report, verbose: bool, out: &mut dyn std::io::Write) -> std::io::Result<()> {
    for f in &report.findings {
        writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message)?;
        if !f.text.is_empty() {
            writeln!(out, "    {}", f.text)?;
        }
    }
    for e in &report.errors {
        writeln!(out, "error: {e}")?;
    }
    if verbose {
        for (f, why) in &report.suppressed {
            writeln!(out, "allowed {}:{}: [{}] — {}", f.file, f.line, f.rule, why)?;
        }
        for (krate, n) in &report.code_lines {
            writeln!(out, "code lines {krate}: {n}")?;
        }
    }
    writeln!(
        out,
        "{} files scanned, {} finding(s), {} suppressed ({} allow entries), {} error(s)",
        report.files,
        report.findings.len(),
        report.suppressed.len(),
        report.allow_entries,
        report.errors.len()
    )
}

/// Workspace root for in-repo integration tests: two levels above this
/// crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate, run on the real workspace, must be clean: this is the
    /// same check CI runs via the binary, wired into `cargo test` so a
    /// regression cannot land even when CI scripts are skipped.
    #[test]
    fn workspace_is_clean() {
        let report = run(&workspace_root());
        let mut buf = Vec::new();
        render(&report, false, &mut buf).unwrap();
        assert!(report.clean(), "analysis gate found problems:\n{}", String::from_utf8_lossy(&buf));
        assert!(report.files > 50, "walker saw only {} files", report.files);
    }

    /// Canary: the gate must actually be able to see findings. A bug
    /// that silently blanked every rule would otherwise keep the
    /// workspace "clean" forever.
    #[test]
    fn gate_detects_seeded_defects() {
        let src = Source::new(
            "crates/core/src/seeded.rs".into(),
            "fn f(x: Option<u8>) -> u8 { let t = Instant::now(); x.unwrap() }\n".into(),
        );
        let mut findings = Vec::new();
        rules::check_file(&src, &mut findings);
        let rules_hit: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert!(rules_hit.contains(&"no-panic"), "{rules_hit:?}");
        assert!(rules_hit.contains(&"wall-clock"), "{rules_hit:?}");
    }
}
