//! IC-PANIC: no release-build assertions on serving paths.
//!
//! A panic inside connection handling is a full-connection outage (and,
//! off the catch_unwind'd worker pool, a poisoned lock). The serving
//! crate and the replayer deny clippy's `unwrap_used`, `expect_used`,
//! `panic`, `unreachable`, `todo`, `unimplemented` and
//! `indexing_slicing` outside tests; this check covers the one panicking
//! construct clippy cannot single out: `assert!` / `assert_eq!` /
//! `assert_ne!`. `debug_assert*` is exempt, because it is compiled out
//! of release serving builds. Clippy's `disallowed_macros` cannot draw
//! that line (`debug_assert!` expands to `assert!`, so it fires on both),
//! and `panic_in_result_fn` misses asserts in functions that do not
//! return a `Result`.

use crate::checks::{serving_path, IC_PANIC};
use crate::source::{contains_token, SourceFile};
use crate::Finding;

/// Matched on token boundaries, so `debug_assert!` never hits.
const ASSERT_MACROS: &[&str] = &["assert!", "assert_eq!", "assert_ne!"];

pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files.iter().filter(|f| serving_path(f.rel())) {
        for line in file.lines().filter(|l| !l.in_test) {
            for mac in ASSERT_MACROS {
                if contains_token(line.code, mac) {
                    out.push(Finding {
                        check: IC_PANIC,
                        file: file.rel().to_string(),
                        line: line.number,
                        message: format!("`{mac}` panics in release serving builds"),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        run(&[SourceFile::new(path, src)])
    }

    #[test]
    fn assert_flags_but_debug_assert_does_not() {
        let f = findings(
            "crates/load/src/replay.rs",
            "fn f() {\n    assert!(x > 0);\n    debug_assert!(y > 0);\n    debug_assert_eq!(a, b);\n}\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn skips_tests_and_comments() {
        let src = "// assert!(x) in a comment\n#[cfg(test)]\nmod tests {\n    fn t() { assert_eq!(a, b); }\n}\n";
        assert!(findings("crates/service/src/x.rs", src).is_empty());
        assert!(findings("crates/core/src/x.rs", "fn f() { assert!(x); }\n").is_empty());
    }
}
