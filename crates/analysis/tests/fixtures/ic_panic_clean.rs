// IC-PANIC near-misses: none of these may produce a finding, even when
// this file is scanned under a serving-path name.

pub fn handle(input: &str, n: usize) -> String {
    // the assert token only appears inside a string and a comment: assert!(x)
    let s = "call assert!(now) and assert_eq!(a, b)";
    debug_assert!(n > 0); // debug-only, compiled out in release
    debug_assert_eq!(n, n);
    debug_assert_ne!(n, usize::MAX);
    format!("{s} {input}")
}

#[cfg(test)]
mod tests {
    // asserts under #[cfg(test)] never ship in a serving build
    #[test]
    fn test_only_assert_is_fine() {
        assert_eq!(1 + 1, 2);
    }
}
