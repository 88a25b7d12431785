//! Source scanning: comment/string scrubbing, `#[cfg(test)]` region
//! tracking, and `lint:allow` site markers.
//!
//! Every check in this crate works line-by-line over a *scrubbed* view
//! of the source, where comment bodies and string/char-literal contents
//! are blanked to spaces (delimiters and newlines are preserved, so
//! byte columns and line numbers still line up with the raw text).
//! Scrubbing is what keeps token matching honest: doc-comment examples
//! are full of `unwrap()`, and log strings mention `panic` — none of
//! that is code.
//!
//! Test-gated code is recorded per line rather than stripped: blocks
//! introduced by a `#[cfg(test)]` attribute are marked `in_test`, and
//! the serving-path checks skip those lines (tests may unwrap freely).
//!
//! The raw text is kept alongside because `lint:allow(CHECK-ID)`
//! suppression markers legitimately live in comments.

/// One scanned file: the workspace-relative path plus per-line views.
#[derive(Debug, Clone)]
pub struct SourceFile {
    rel: String,
    raw: Vec<String>,
    code: Vec<String>,
    in_test: Vec<bool>,
    markers: Vec<Vec<String>>,
}

/// A single line of a scanned file, as handed to checks.
#[derive(Debug, Clone, Copy)]
pub struct Line<'a> {
    /// 1-based line number, for `file:line` findings.
    pub number: usize,
    /// The raw text, exactly as committed.
    pub raw: &'a str,
    /// The scrubbed text: comments and literal contents blanked.
    pub code: &'a str,
    /// Whether this line sits inside a `#[cfg(test)]`-gated block.
    pub in_test: bool,
}

impl SourceFile {
    /// Scans the Rust `source` under the workspace-relative path `rel`.
    pub fn new(rel: impl Into<String>, source: &str) -> SourceFile {
        let rel = rel.into();
        let raw: Vec<String> = source.lines().map(str::to_string).collect();
        let code: Vec<String> = scrub_rust(source).lines().map(str::to_string).collect();
        let in_test = test_regions(&code);
        let markers = raw.iter().map(|l| parse_markers(l)).collect();
        SourceFile {
            rel,
            raw,
            code,
            in_test,
            markers,
        }
    }

    /// The workspace-relative path (forward slashes).
    pub fn rel(&self) -> &str {
        &self.rel
    }

    /// Iterates the file's lines with 1-based numbers.
    pub fn lines(&self) -> impl Iterator<Item = Line<'_>> {
        (0..self.raw.len()).map(move |i| Line {
            number: i + 1,
            raw: &self.raw[i],
            code: &self.code[i],
            in_test: self.in_test[i],
        })
    }

    /// The raw text of 1-based line `number`, if it exists.
    pub fn raw_line(&self, number: usize) -> Option<&str> {
        self.raw.get(number.wrapping_sub(1)).map(String::as_str)
    }

    /// Whether line `number` (or the line directly above it) carries a
    /// `lint:allow(check)` marker — the site half of a suppression.
    pub fn has_marker(&self, number: usize, check: &str) -> bool {
        let at = |n: usize| {
            n >= 1
                && self
                    .markers
                    .get(n - 1)
                    .is_some_and(|m| m.iter().any(|c| c == check))
        };
        at(number) || at(number.wrapping_sub(1))
    }
}

/// Extracts every `lint:allow(ID)` marker on a raw line.
fn parse_markers(raw: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = raw;
    while let Some(pos) = rest.find("lint:allow(") {
        rest = &rest[pos + "lint:allow(".len()..];
        if let Some(end) = rest.find(')') {
            out.push(rest[..end].trim().to_string());
            rest = &rest[end..];
        } else {
            break;
        }
    }
    out
}

/// Blanks comment bodies and string/char-literal contents to spaces,
/// preserving delimiters, line structure, and byte columns.
fn scrub_rust(source: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        CharLit,
    }
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match st {
            St::Code => {
                if c == '/' && next == Some('/') {
                    st = St::LineComment;
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = St::Str;
                    out.push('"');
                    i += 1;
                } else if (c == 'r' || c == 'b') && is_raw_string_start(&chars, i) {
                    let (hashes, consumed) = raw_string_open(&chars, i);
                    st = St::RawStr(hashes);
                    for _ in 0..consumed {
                        out.push(' ');
                    }
                    out.push('"');
                    i += consumed + 1;
                } else if c == 'b' && next == Some('"') {
                    st = St::Str;
                    out.push_str(" \"");
                    i += 2;
                } else if c == '\'' {
                    // Lifetime or char literal? A char literal is either
                    // an escape ('\n') or exactly one char then a quote.
                    if next == Some('\\') {
                        st = St::CharLit;
                        out.push('\'');
                        i += 1;
                    } else if chars.get(i + 2) == Some(&'\'') && next != Some('\'') {
                        out.push_str("'  ");
                        i += 3;
                    } else {
                        out.push('\'');
                        i += 1;
                    }
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            St::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    // A `\` escape consumes the next char; `\<newline>`
                    // is a line continuation whose newline must survive
                    // so line numbers stay aligned.
                    out.push(' ');
                    match chars.get(i + 1) {
                        Some('\n') => out.push('\n'),
                        Some(_) => out.push(' '),
                        None => {}
                    }
                    i += 2;
                } else if c == '"' {
                    st = St::Code;
                    out.push('"');
                    i += 1;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#')) {
                    st = St::Code;
                    out.push('"');
                    for _ in 0..hashes {
                        out.push(' ');
                    }
                    i += 1 + hashes;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::CharLit => {
                if c == '\\' {
                    out.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    st = St::Code;
                    out.push('\'');
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
        }
    }
    out
}

/// Is `chars[i]` the start of a raw string (`r"`, `r#"`, `br#"`, ...)?
/// Only called when `chars[i]` is `r` or `b`, and must not fire on
/// ordinary identifiers ending in `r` — the caller's previous char was
/// already emitted, so check that `i` begins a token.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// For a raw-string opener at `i`, returns (hash count, chars before
/// the opening quote).
fn raw_string_open(chars: &[char], i: usize) -> (usize, usize) {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    j += 1; // the 'r'
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (hashes, j - i)
}

/// Marks which scrubbed lines sit inside a `#[cfg(test)]`-gated block.
///
/// A `#[cfg(test)]` attribute arms a pending flag; the next `{` opens a
/// test region at that brace depth, closed when the matching `}`
/// arrives. A `;` before any `{` disarms the flag (the attribute gated
/// an item with no body, e.g. `#[cfg(test)] use ...;`).
fn test_regions(scrubbed: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; scrubbed.len()];
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut regions: Vec<i64> = Vec::new();
    for (idx, line) in scrubbed.iter().enumerate() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            pending = true;
        }
        in_test[idx] = !regions.is_empty() || pending;
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending {
                        regions.push(depth);
                        pending = false;
                    }
                }
                '}' => {
                    if regions.last() == Some(&depth) {
                        regions.pop();
                    }
                    depth -= 1;
                }
                ';' if pending && regions.is_empty() => {
                    pending = false;
                }
                _ => {}
            }
        }
    }
    in_test
}

/// True if `needle` occurs in `hay` bounded by non-identifier chars on
/// both sides — so `LocalSearch` never matches inside `LocalSearchSE`.
pub fn contains_token(hay: &str, needle: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !hay[..at].chars().next_back().is_some_and(ident);
        let after = at + needle.len();
        let after_ok = !hay[after..].chars().next().is_some_and(ident);
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings() {
        let src = "let x = 1; // unwrap() here\nlet s = \"panic!(no)\";\n";
        let f = SourceFile::new("a.rs", src);
        let lines: Vec<_> = f.lines().collect();
        assert!(!lines[0].code.contains("unwrap"));
        assert!(!lines[1].code.contains("panic"));
        assert!(lines[1].code.contains('"'));
    }

    #[test]
    fn scrub_keeps_code_and_columns() {
        let src = "a.unwrap(); // x\n";
        let f = SourceFile::new("a.rs", src);
        let l = f.lines().next().unwrap();
        assert!(l.code.contains(".unwrap()"));
        assert_eq!(l.raw.len(), l.code.len());
    }

    #[test]
    fn doc_comments_are_blanked() {
        let src = "/// calls `unwrap()` on...\nfn f() {}\n//! panic!(never)\n";
        let f = SourceFile::new("a.rs", src);
        for l in f.lines() {
            assert!(!l.code.contains("unwrap") && !l.code.contains("panic"));
        }
    }

    #[test]
    fn raw_strings_and_escapes() {
        let src = "let a = r#\"unwrap() \"quoted\"\"#;\nlet b = \"esc\\\"unwrap()\";\nlet c = a.unwrap();\n";
        let f = SourceFile::new("a.rs", src);
        let lines: Vec<_> = f.lines().collect();
        assert!(!lines[0].code.contains("unwrap"));
        assert!(!lines[1].code.contains("unwrap"));
        assert!(lines[2].code.contains(".unwrap()"));
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let src =
            "fn f<'a>(x: &'a str) -> &'a str { x }\nlet y = 'z';\nlet n = '\\n';\nb.unwrap();\n";
        let f = SourceFile::new("a.rs", src);
        let lines: Vec<_> = f.lines().collect();
        assert!(lines[0].code.contains("&'a str"));
        assert!(!lines[1].code.contains('z'));
        assert!(lines[3].code.contains(".unwrap()"));
    }

    #[test]
    fn cfg_test_blocks_are_marked() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn live2() {}\n";
        let f = SourceFile::new("a.rs", src);
        let lines: Vec<_> = f.lines().collect();
        assert!(!lines[0].in_test);
        assert!(lines[1].in_test && lines[2].in_test && lines[3].in_test && lines[4].in_test);
        assert!(!lines[5].in_test);
    }

    #[test]
    fn cfg_test_on_semicolon_item_does_not_leak() {
        let src = "#[cfg(test)]\nuse std::fmt;\nfn live() { x.unwrap(); }\n";
        let f = SourceFile::new("a.rs", src);
        let lines: Vec<_> = f.lines().collect();
        assert!(!lines[2].in_test);
    }

    #[test]
    fn markers_are_line_local() {
        let src = "// lint:allow(IC-PANIC): startup\nlet x = y.unwrap();\nlet z = q.unwrap();\n";
        let f = SourceFile::new("a.rs", src);
        assert!(f.has_marker(1, "IC-PANIC"));
        assert!(f.has_marker(2, "IC-PANIC"), "line above carries it");
        assert!(!f.has_marker(3, "IC-PANIC"));
    }

    #[test]
    fn token_boundaries() {
        assert!(contains_token(
            "x = &exec::LocalSearch;",
            "&exec::LocalSearch"
        ));
        assert!(!contains_token(
            "x = &exec::LocalSearchSE;",
            "&exec::LocalSearch"
        ));
        assert!(contains_token("| `QUERY g k ...`", "QUERY"));
        assert!(!contains_token("SUBQUERYX", "QUERY"));
    }
}
