//! The check registry.
//!
//! Each check is a free function from scanned files to findings, so it
//! can run against the live workspace (the `ic-lint` binary) or against
//! synthetic fixture files (the crate's own tests) with no filesystem
//! coupling. Adding a check means: write the module, list it in
//! [`ALL_CHECKS`], document it in the README's static-analysis table.
//! A rule clippy or the type system can express belongs there instead.

pub mod locks;
pub mod panic_free;
pub mod protocol;

use crate::source::SourceFile;
use crate::Finding;

/// Check IDs, stable across releases: they appear in findings, in
/// `lint:allow(...)` markers, and in `lint-allow.toml`.
pub const IC_PANIC: &str = "IC-PANIC";
/// Lock guard alive across a blocking call.
pub const IC_LOCK: &str = "IC-LOCK";
/// Protocol verb missing from a required surface.
pub const IC_PROTO: &str = "IC-PROTO";
/// Problems with the allowlist itself (stale or unjustified entries).
pub const IC_ALLOW: &str = "IC-ALLOW";

/// `(id, one-line description)` for every registered check, in the
/// order they run.
pub const ALL_CHECKS: &[(&str, &str)] = &[
    (
        IC_PANIC,
        "assert!/assert_eq!/assert_ne! in serving paths (debug_assert* exempt; clippy denies the other panics)",
    ),
    (
        IC_LOCK,
        "Mutex/RwLock guard alive across a blocking call (send/recv/accept/read_line/write_all/fsync)",
    ),
    (
        IC_PROTO,
        "every dispatched protocol verb documented in README, fuzzed in tests/protocol_robustness.rs, and counted where applicable",
    ),
    (
        IC_ALLOW,
        "lint-allow.toml hygiene: every entry justified, matching a live marker site",
    ),
];

/// Runs every code check over `files` (allowlist hygiene is handled by
/// the workspace runner, which owns suppression).
pub fn run_all(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(panic_free::run(files));
    out.extend(locks::run(files));
    out.extend(protocol::run(files));
    out
}

/// Serving-path scope for the assertion check: the whole serving crate
/// plus the load replayer's hot loop.
pub(crate) fn serving_path(rel: &str) -> bool {
    rel.starts_with("crates/service/src/") || rel == "crates/load/src/replay.rs"
}
