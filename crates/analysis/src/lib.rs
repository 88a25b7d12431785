//! `ic-analysis`: workspace-aware static analysis for the
//! influential-communities repo (the `ic-lint` binary).
//!
//! It checks the serving-path rules that neither rustc nor clippy can
//! express: no release-build `assert!` on connection-handling paths and
//! no lock held across blocking I/O. The rest is the compiler's job or
//! a test's: the serving crate and the load replayer deny clippy's panic
//! and indexing lints, the serving and dynamic-update crates deny
//! `let_underscore_must_use`, `AlgorithmId`'s variants, `ALL` table and
//! names come from one list, and so do the protocol's verbs, which
//! `dispatch` matches exhaustively and `tests/protocol_robustness.rs`
//! checks against the README. The checks are line/token-level
//! analysis over scrubbed sources (see [`source`]), no rustc plugin,
//! std-only like the rest of the workspace.
//!
//! Findings are suppressed only by the *pair* of a `lint:allow(ID)`
//! marker at the site and a justified entry in `lint-allow.toml` (see
//! [`allowlist`]); entries that stop matching become findings
//! themselves, so the allowlist can only shrink.
//!
//! Run it as `cargo run -p ic-analysis --release -- --deny` (what CI
//! does) or via [`Workspace::load`] + [`Workspace::run`] in tests.

pub mod allowlist;
pub mod checks;
pub mod source;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use allowlist::Allowlist;
use source::SourceFile;

/// One reported problem: `CHECK file:line message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable check ID (one of [`checks::ALL_CHECKS`]).
    pub check: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} {}",
            self.check, self.file, self.line, self.message
        )
    }
}

/// The result of a full lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived suppression, sorted by file/line/check.
    pub findings: Vec<Finding>,
    /// How many findings the allowlist suppressed.
    pub suppressed: usize,
}

/// A scanned input set: source files plus the committed allowlist.
#[derive(Debug, Default)]
pub struct Workspace {
    files: Vec<SourceFile>,
    allowlist: Allowlist,
}

impl Workspace {
    /// Builds a workspace from in-memory files — the fixture-test entry
    /// point.
    pub fn from_files(files: Vec<SourceFile>, allowlist: Allowlist) -> Workspace {
        Workspace { files, allowlist }
    }

    /// Loads the real workspace rooted at `root`: every `.rs` file
    /// outside `target/`, `vendor/`, and fixture directories, plus
    /// `lint-allow.toml`.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut paths = Vec::new();
        collect(root, &mut paths)?;
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for p in &paths {
            let rel = rel_path(root, p);
            files.push(SourceFile::new(rel, &fs::read_to_string(p)?));
        }
        let allow_path = root.join("lint-allow.toml");
        let allowlist = if allow_path.is_file() {
            Allowlist::parse("lint-allow.toml", &fs::read_to_string(allow_path)?)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        } else {
            Allowlist::default()
        };
        Ok(Workspace { files, allowlist })
    }

    /// The scanned files (fixture tests inspect these).
    pub fn files(&self) -> &[SourceFile] {
        &self.files
    }

    /// Runs every check, applies allowlist suppression, and validates
    /// the allowlist itself.
    pub fn run(&self) -> Report {
        let mut raw = checks::run_all(&self.files);
        raw.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.check).cmp(&(b.file.as_str(), b.line, b.check))
        });
        let mut used = vec![false; self.allowlist.entries.len()];
        let mut findings = Vec::new();
        let mut suppressed = 0;
        for finding in raw {
            if self.suppresses(&finding, &mut used) {
                suppressed += 1;
            } else {
                findings.push(finding);
            }
        }
        for (entry, used) in self.allowlist.entries.iter().zip(&used) {
            if entry.justification.trim().is_empty() {
                findings.push(Finding {
                    check: checks::IC_ALLOW,
                    file: self.allowlist.rel.clone(),
                    line: entry.line,
                    message: format!(
                        "allow entry for {} in {} has an empty justification",
                        entry.check, entry.file
                    ),
                });
            }
            if !used {
                findings.push(Finding {
                    check: checks::IC_ALLOW,
                    file: self.allowlist.rel.clone(),
                    line: entry.line,
                    message: format!(
                        "stale allow entry: no current {} finding in {} matches context {:?} with a lint:allow marker — delete it",
                        entry.check, entry.file, entry.context
                    ),
                });
            }
        }
        Report {
            findings,
            suppressed,
        }
    }

    /// A finding is suppressed only when the site carries a
    /// `lint:allow(check)` marker *and* a matching allowlist entry
    /// exists. Entries with empty justifications still suppress (the
    /// hygiene finding above keeps the run red), so one problem is
    /// reported once.
    fn suppresses(&self, finding: &Finding, used: &mut [bool]) -> bool {
        let Some(file) = self.files.iter().find(|f| f.rel() == finding.file) else {
            return false;
        };
        if !file.has_marker(finding.line, finding.check) {
            return false;
        }
        let raw = file.raw_line(finding.line).unwrap_or_default();
        let mut hit = false;
        for (i, entry) in self.allowlist.entries.iter().enumerate() {
            if entry.check == finding.check
                && entry.file == finding.file
                && raw.contains(&entry.context)
            {
                used[i] = true;
                hit = true;
            }
        }
        hit
    }
}

/// Recursively collects lintable `.rs` files, pruning build output,
/// vendored deps, VCS metadata, and this crate's own lint fixtures
/// (which contain deliberate findings).
fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    const PRUNE: &[&str] = &["target", "vendor", ".git", "fixtures"];
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !PRUNE.contains(&name.as_ref()) {
                collect(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes.
fn rel_path(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock_file(marker: bool) -> SourceFile {
        let m = if marker {
            " // lint:allow(IC-LOCK): audited"
        } else {
            ""
        };
        SourceFile::new(
            "crates/service/src/x.rs",
            &format!("fn f() {{\n    rx.lock().unwrap().recv();{m}\n}}\n"),
        )
    }

    fn allow(context: &str, justification: &str) -> Allowlist {
        Allowlist::parse(
            "lint-allow.toml",
            &format!(
                "[[allow]]\ncheck = \"IC-LOCK\"\nfile = \"crates/service/src/x.rs\"\ncontext = \"{context}\"\njustification = \"{justification}\"\n"
            ),
        )
        .unwrap()
    }

    #[test]
    fn marker_plus_entry_suppresses() {
        let ws = Workspace::from_files(vec![lock_file(true)], allow(".recv()", "fine"));
        let r = ws.run();
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn marker_without_entry_does_not_suppress() {
        let ws = Workspace::from_files(vec![lock_file(true)], Allowlist::default());
        let r = ws.run();
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.suppressed, 0);
    }

    #[test]
    fn entry_without_marker_is_stale_and_does_not_suppress() {
        let ws = Workspace::from_files(vec![lock_file(false)], allow(".recv()", "fine"));
        let r = ws.run();
        // The original finding plus the stale-entry finding.
        assert_eq!(r.findings.len(), 2, "{:?}", r.findings);
        assert!(r.findings.iter().any(|f| f.check == checks::IC_ALLOW));
    }

    #[test]
    fn empty_justification_is_a_finding_even_when_matching() {
        let ws = Workspace::from_files(vec![lock_file(true)], allow(".recv()", ""));
        let r = ws.run();
        assert_eq!(r.suppressed, 1);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("justification"));
    }
}
