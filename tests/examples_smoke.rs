//! Keeps the examples honest: every example must compile, and the
//! examples exercised in the docs (`quickstart`, `progressive_stream`,
//! `service_demo`, `dynamic_updates`) must run to completion, as must
//! `closest_communities`, which asserts that each query recovers its
//! planted group through the query-dependent re-rank. Without this
//! harness an API change can silently rot `examples/` because
//! `cargo test` alone never builds them.

use std::path::Path;
use std::process::Command;

fn cargo() -> Command {
    // Respect the exact cargo that invoked the test run (set by cargo for
    // all child processes), falling back to PATH lookup.
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.current_dir(Path::new(env!("CARGO_MANIFEST_DIR")));
    cmd
}

fn run_ok(args: &[&str]) {
    let out = cargo().args(args).output().expect("cargo spawns");
    assert!(
        out.status.success(),
        "`cargo {}` failed:\n--- stdout ---\n{}\n--- stderr ---\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn all_examples_compile() {
    run_ok(&["build", "--examples", "--quiet"]);
}

#[test]
fn quickstart_runs_to_completion() {
    run_ok(&["run", "--quiet", "--example", "quickstart"]);
}

#[test]
fn service_demo_runs_to_completion() {
    run_ok(&["run", "--quiet", "--example", "service_demo"]);
}

#[test]
fn dynamic_updates_runs_to_completion() {
    run_ok(&["run", "--quiet", "--example", "dynamic_updates"]);
}

#[test]
fn closest_communities_runs_to_completion() {
    run_ok(&["run", "--quiet", "--example", "closest_communities"]);
}

#[test]
fn progressive_stream_runs_to_completion() {
    // Release profile: the example synthesizes a scale-15 R-MAT graph and
    // runs PageRank over it, which is needlessly slow unoptimized.
    run_ok(&[
        "run",
        "--release",
        "--quiet",
        "--example",
        "progressive_stream",
    ]);
}
