//! Workspace discovery and the scan driver: which files the linter
//! looks at, and the single pass over them.
//!
//! The walk is deterministic (directory entries are sorted) so the
//! diagnostic order — and the JSON artifact CI uploads — is stable
//! across machines, the same property the scanner exists to enforce
//! elsewhere. Every run parses and scans every file and keeps no state
//! between runs, so a rule edit always shows on the next run.

use std::path::{Path, PathBuf};

use crate::parse::parse_file;
use crate::rules::{scan_parsed, FileContext};
use crate::{Diagnostic, LintError};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "results"];

/// Workspace-relative prefixes excluded from the scan: vendored crates
/// (tracking upstream APIs, not held to the workspace bar — the same
/// set the clippy CI job excludes) and the linter's own known-bad
/// fixtures.
const SKIP_PREFIXES: &[&str] = &["crates/rand/", "crates/proptest/", "crates/lint/fixtures/"];

/// The outcome of a workspace scan.
#[derive(Debug)]
pub struct ScanReport {
    /// Every finding, in path order.
    pub diagnostics: Vec<Diagnostic>,
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
}

/// Walks `root` and scans every non-vendored `.rs` file.
///
/// # Errors
///
/// Returns [`LintError::Io`] when a directory or file cannot be read —
/// the scan is all-or-nothing so a permissions problem cannot silently
/// shrink coverage.
pub fn scan_workspace(root: &Path) -> Result<ScanReport, LintError> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut diagnostics = Vec::new();
    for rel in &files {
        let abs = root.join(rel);
        let text = std::fs::read_to_string(&abs).map_err(|source| LintError::Io {
            path: abs.clone(),
            source,
        })?;
        diagnostics.extend(scan_parsed(&parse_file(&text), &FileContext::classify(rel)));
    }
    Ok(ScanReport {
        diagnostics,
        files_scanned: files.len(),
    })
}

/// Recursively collects workspace-relative `/`-separated `.rs` paths.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), LintError> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|source| LintError::Io {
            path: dir.to_path_buf(),
            source,
        })?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();

    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if name.starts_with('.') {
            continue;
        }
        let rel = relative_slash_path(root, &path);
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            let rel_dir = format!("{rel}/");
            if SKIP_PREFIXES
                .iter()
                .any(|p| rel_dir.starts_with(p) || *p == rel_dir)
            {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") && !SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
            out.push(rel);
        }
    }
    Ok(())
}

/// `root`-relative path with `/` separators regardless of platform.
fn relative_slash_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> PathBuf {
        // crates/lint -> crates -> workspace root
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(Path::to_path_buf)
            .unwrap_or_default()
    }

    fn scan_tree() -> ScanReport {
        scan_workspace(&workspace_root()).expect("workspace scan must run")
    }

    #[test]
    fn workspace_scan_is_clean_and_covers_the_tree() {
        let report = scan_tree();
        assert!(
            report.files_scanned > 60,
            "expected to scan the whole first-party tree, got {} files",
            report.files_scanned
        );
        let rendered: Vec<String> = report.diagnostics.iter().map(ToString::to_string).collect();
        assert!(
            report.diagnostics.is_empty(),
            "workspace must lint clean:\n{}",
            rendered.join("\n")
        );
    }

    #[test]
    fn vendored_crates_and_fixtures_are_excluded() {
        let report = scan_tree();
        for d in &report.diagnostics {
            for p in SKIP_PREFIXES {
                assert!(!d.file.starts_with(p), "{} should be excluded", d.file);
            }
        }
        assert!(report.files_scanned > 0);
    }
}
