// IC-PANIC fixture: every line marked FIRE must produce a finding when
// this file is scanned under a serving-path name.

pub fn handle(n: usize, parts: &[&str]) -> usize {
    assert!(n > 0, "bad n"); // FIRE: assert! panics in release
    assert_eq!(parts.len(), n); // FIRE: assert_eq!
    assert_ne!(n, 7); // FIRE: assert_ne!
    n
}
