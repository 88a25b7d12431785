//! The workspace must pass its own lint: `cargo test -p ic-analysis`
//! fails the moment a serving-path `assert!` or a held-lock blocking
//! call lands — the same gate CI's `ic-lint --deny` run enforces, minus
//! the shell. Serving-path unwraps, indexing and dropped `Result`s fail
//! `cargo clippy` instead.

use std::path::Path;

use ic_analysis::allowlist::Allowlist;
use ic_analysis::Workspace;

#[test]
fn live_workspace_is_clean_under_the_committed_allowlist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    assert!(
        root.join("Cargo.toml").is_file(),
        "expected the workspace root at {}",
        root.display()
    );
    let ws = Workspace::load(&root).expect("scan workspace sources");
    let report = ws.run();
    assert!(
        report.findings.is_empty(),
        "ic-lint findings in the live tree (run `cargo run -p ic-analysis` for the list):\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn the_committed_allowlist_is_in_active_use() {
    // the suppressed count is the allowlist working; if it drops to
    // zero the file should be empty (shrink-only policy, see README)
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("lint-allow.toml")).expect("read the allowlist");
    let allowlist = Allowlist::parse("lint-allow.toml", &text).expect("the allowlist parses");
    let ws = Workspace::load(&root).expect("scan workspace sources");
    let report = ws.run();
    assert!(
        allowlist.entries.is_empty() || report.suppressed > 0,
        "lint-allow.toml has entries but none suppress anything"
    );
}
