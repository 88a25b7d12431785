//! Fixture-driven check tests: for every check, one known-bad snippet
//! under `fixtures/` must fire and one near-miss must stay silent.
//!
//! Fixtures are scanned under synthetic serving-path names, so the
//! scope rules (`crates/service/src/...`) apply exactly as they do to
//! the live tree. The fixture files themselves are never compiled.

use ic_analysis::allowlist::Allowlist;
use ic_analysis::checks;
use ic_analysis::source::SourceFile;
use ic_analysis::{Finding, Workspace};

const PANIC_FIRES: &str = include_str!("fixtures/ic_panic_fires.rs");
const PANIC_CLEAN: &str = include_str!("fixtures/ic_panic_clean.rs");
const LOCK_FIRES: &str = include_str!("fixtures/ic_lock_fires.rs");
const LOCK_CLEAN: &str = include_str!("fixtures/ic_lock_clean.rs");

/// Scans one fixture under a serving-path name and returns the findings
/// of a single check.
fn scan(rel: &str, source: &str, check: &str) -> Vec<Finding> {
    let files = vec![SourceFile::new(rel, source)];
    checks::run_all(&files)
        .into_iter()
        .filter(|f| f.check == check)
        .collect()
}

fn fire_lines(findings: &[Finding]) -> Vec<usize> {
    let mut lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// Every fixture line tagged `// FIRE` must be reported; no other line
/// may be.
fn assert_fires_exactly_marked(rel: &str, source: &str, check: &str) {
    let marked: Vec<usize> = source
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("// FIRE"))
        .map(|(i, _)| i + 1)
        .collect();
    assert!(!marked.is_empty(), "fixture {rel} has no // FIRE markers");
    let found = fire_lines(&scan(rel, source, check));
    assert_eq!(
        found, marked,
        "{check} on {rel}: findings (left) vs // FIRE markers (right)"
    );
}

#[test]
fn panic_fixture_fires_on_every_marked_line() {
    assert_fires_exactly_marked(
        "crates/service/src/fixture.rs",
        PANIC_FIRES,
        checks::IC_PANIC,
    );
}

#[test]
fn panic_near_misses_stay_silent() {
    let f = scan(
        "crates/service/src/fixture.rs",
        PANIC_CLEAN,
        checks::IC_PANIC,
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn lock_fixture_fires_on_every_marked_line() {
    assert_fires_exactly_marked("crates/service/src/fixture.rs", LOCK_FIRES, checks::IC_LOCK);
}

#[test]
fn lock_near_misses_stay_silent() {
    let f = scan("crates/service/src/fixture.rs", LOCK_CLEAN, checks::IC_LOCK);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn suppression_requires_marker_and_allowlist_entry_together() {
    let bad = "pub fn f(rx: &Mutex<Receiver<u32>>) -> Option<u32> {\n    // lint:allow(IC-LOCK): fixture reason\n    rx.lock().unwrap().recv().ok()\n}\n";
    let rel = "crates/service/src/fixture.rs";
    // marker alone: still a finding
    let ws = Workspace::from_files(
        vec![SourceFile::new(rel, bad)],
        Allowlist::parse("lint-allow.toml", "").unwrap(),
    );
    assert_eq!(ws.run().findings.len(), 1);
    // marker + matching justified entry: suppressed and counted
    let allow = r#"
[[allow]]
check = "IC-LOCK"
file = "crates/service/src/fixture.rs"
context = ".recv()"
justification = "fixture"
"#;
    let ws = Workspace::from_files(
        vec![SourceFile::new(rel, bad)],
        Allowlist::parse("lint-allow.toml", allow).unwrap(),
    );
    let report = ws.run();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
    // entry alone (no marker): still a finding
    let unmarked = "pub fn f(rx: &Mutex<Receiver<u32>>) -> Option<u32> {\n    rx.lock().unwrap().recv().ok()\n}\n";
    let ws = Workspace::from_files(
        vec![SourceFile::new(rel, unmarked)],
        Allowlist::parse("lint-allow.toml", allow).unwrap(),
    );
    let report = ws.run();
    // the lock finding survives, and the entry is reported stale
    assert!(
        report.findings.iter().any(|f| f.check == checks::IC_LOCK),
        "{:?}",
        report.findings
    );
    assert!(
        report.findings.iter().any(|f| f.check == checks::IC_ALLOW),
        "{:?}",
        report.findings
    );
}
