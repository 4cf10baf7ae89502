//! Light token-level source scanning.
//!
//! The linter deliberately avoids a full Rust parser (no `syn`, no
//! network, no build): rules operate on a *masked* view of each file in
//! which comment bodies and literal contents are blanked out, so a
//! `panic!` inside a doc comment or a `"unwrap()"` inside a string can
//! never produce a finding. Masking preserves byte offsets and newlines
//! exactly, which keeps line numbers honest and lets brace matching work
//! on the masked text.

/// One scanned source file.
pub struct Source {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Original text (for rendering findings).
    pub text: String,
    /// Masked text: same length as `text`, with comment bodies and
    /// string/char literal contents replaced by spaces. Quote and
    /// delimiter characters are kept so `.expect("` stays detectable.
    pub masked: String,
    /// Byte ranges covered by `#[cfg(test)]` items (or the whole file
    /// for `tests/` integration files).
    test_regions: Vec<(usize, usize)>,
}

impl Source {
    /// Scans a file's contents.
    pub fn new(path: String, text: String) -> Source {
        let masked = mask(&text);
        let whole_file_test = path.contains("/tests/") || path.starts_with("tests/");
        let test_regions =
            if whole_file_test { vec![(0, masked.len())] } else { test_regions(&masked) };
        Source { path, text, masked, test_regions }
    }

    /// True when the byte offset falls inside test-only code.
    pub fn is_test(&self, offset: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| offset >= s && offset < e)
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        self.text.as_bytes()[..offset.min(self.text.len())].iter().filter(|&&b| b == b'\n').count()
            + 1
    }

    /// The source line containing a byte offset, trimmed.
    pub fn line_text(&self, offset: usize) -> &str {
        let bytes = self.text.as_bytes();
        let off = offset.min(self.text.len());
        let start = bytes[..off].iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        let end = bytes[off..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |p| off + p);
        self.text[start..end].trim()
    }

    /// Masked text of the non-test portion only (test bytes blanked).
    /// Handy for rules that search for substrings.
    pub fn masked_non_test(&self) -> String {
        let mut out: Vec<u8> = self.masked.clone().into_bytes();
        for &(s, e) in &self.test_regions {
            let e = e.min(out.len());
            for b in &mut out[s..e] {
                if *b != b'\n' {
                    *b = b' ';
                }
            }
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    /// Lines of code outside tests: lines of the masked non-test text
    /// with anything but whitespace left on them, so comments and blank
    /// lines never count.
    pub fn code_lines(&self) -> usize {
        self.masked_non_test().lines().filter(|l| !l.trim().is_empty()).count()
    }

    /// Masked text of the test portions only (non-test bytes blanked).
    pub fn masked_test_only(&self) -> String {
        let mut out: Vec<u8> = vec![b' '; self.masked.len()];
        let bytes = self.masked.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                out[i] = b'\n';
            }
        }
        for &(s, e) in &self.test_regions {
            out[s..e.min(bytes.len())].copy_from_slice(&bytes[s..e.min(bytes.len())]);
        }
        String::from_utf8_lossy(&out).into_owned()
    }
}

/// Blanks comment bodies and literal contents, preserving length,
/// newlines, and the delimiter characters themselves.
pub fn mask(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let blank = |out: &mut [u8], range: std::ops::Range<usize>| {
        for b in &mut out[range] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = memchr(bytes, i, b'\n').unwrap_or(bytes.len());
                blank(&mut out, i..end);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i..j);
                i = j;
            }
            b'"' => {
                let end = skip_string(bytes, i);
                blank(&mut out, i + 1..end.saturating_sub(1));
                i = end;
            }
            b'r' if is_raw_string_start(bytes, i) => {
                let (content_start, content_end, after) = skip_raw_string(bytes, i);
                blank(&mut out, content_start..content_end);
                i = after;
            }
            b'\'' => {
                // Char literal vs lifetime. A literal is 'x', '\n',
                // '\u{..}'; a lifetime is 'ident with no closing quote.
                if bytes.get(i + 1) == Some(&b'\\') {
                    let end = skip_char_escape(bytes, i + 2);
                    blank(&mut out, i + 1..end);
                    i = end + 1; // past closing quote
                } else {
                    // Find the char boundary after one scalar.
                    let rest = &src[i + 1..];
                    match rest.chars().next() {
                        Some(c) if bytes.get(i + 1 + c.len_utf8()) == Some(&b'\'') => {
                            blank(&mut out, i + 1..i + 1 + c.len_utf8());
                            i += c.len_utf8() + 2;
                        }
                        _ => i += 1, // lifetime
                    }
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn memchr(bytes: &[u8], from: usize, needle: u8) -> Option<usize> {
    bytes[from..].iter().position(|&b| b == needle).map(|p| from + p)
}

fn skip_string(bytes: &[u8], start: usize) -> usize {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    bytes.len()
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // r"..." or r#"..."# (and not part of an identifier like `for`).
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return false;
    }
    let mut j = i + 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Returns (content_start, content_end, offset_past_closing_delims).
fn skip_raw_string(bytes: &[u8], start: usize) -> (usize, usize, usize) {
    let mut hashes = 0;
    let mut j = start + 1;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    let content_start = j + 1; // past the opening quote
    let mut i = content_start;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let mut k = 0;
            while k < hashes && bytes.get(i + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == hashes {
                return (content_start, i, i + 1 + hashes);
            }
        }
        i += 1;
    }
    (content_start, bytes.len(), bytes.len())
}

fn skip_char_escape(bytes: &[u8], mut i: usize) -> usize {
    // `i` points at the escaped character (may itself be `'`); consume
    // it unconditionally, then scan to the closing quote.
    i += 1;
    while i < bytes.len() && bytes[i] != b'\'' {
        i += 1;
    }
    i
}

/// Byte ranges of `#[cfg(test)]`-gated items, found by brace matching
/// from the attribute to the end of the following item.
fn test_regions(masked: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let needle = "#[cfg(test)]";
    let mut from = 0;
    while let Some(pos) = masked[from..].find(needle) {
        let start = from + pos;
        let after = start + needle.len();
        match match_item_end(masked.as_bytes(), after) {
            Some(end) => {
                regions.push((start, end));
                from = end;
            }
            None => from = after,
        }
    }
    regions
}

/// From just past an attribute, finds the end of the item it gates:
/// the matching `}` of the first `{`, or the first `;` before any `{`.
fn match_item_end(bytes: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    match bytes[i] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                return Some(i + 1);
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return Some(bytes.len());
            }
            b';' => return Some(i + 1),
            _ => i += 1,
        }
    }
    None
}

/// True when the byte at `pos` starts an identifier occurrence of
/// `name` (boundaries checked on both sides).
pub fn is_ident_at(masked: &str, pos: usize, name: &str) -> bool {
    let bytes = masked.as_bytes();
    if pos > 0 {
        let prev = bytes[pos - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            return false;
        }
    }
    let end = pos + name.len();
    if let Some(&next) = bytes.get(end) {
        if next.is_ascii_alphanumeric() || next == b'_' {
            return false;
        }
    }
    true
}

/// All identifier-boundary occurrences of `name` in `masked`.
pub fn find_idents(masked: &str, name: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = masked[from..].find(name) {
        let at = from + pos;
        if is_ident_at(masked, at, name) {
            out.push(at);
        }
        from = at + name.len();
    }
    out
}

/// First non-whitespace byte at or after `from`.
pub fn next_sig(masked: &str, from: usize) -> Option<(usize, u8)> {
    masked.as_bytes()[from..]
        .iter()
        .enumerate()
        .find(|(_, b)| !b.is_ascii_whitespace())
        .map(|(i, &b)| (from + i, b))
}

/// Last non-whitespace byte strictly before `at`.
pub fn prev_sig(masked: &str, at: usize) -> Option<(usize, u8)> {
    masked.as_bytes()[..at]
        .iter()
        .enumerate()
        .rev()
        .find(|(_, b)| !b.is_ascii_whitespace())
        .map(|(i, &b)| (i, b))
}

/// Matches the `(`..`)` group starting at `open` (which must be `(`),
/// returning the offset of the closing paren. Braces/brackets nest.
pub fn match_paren(masked: &str, open: usize) -> Option<usize> {
    let bytes = masked.as_bytes();
    debug_assert_eq!(bytes.get(open), Some(&b'('));
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Byte ranges of the bodies of functions whose name starts with
/// `prefix` (e.g. `decode`), found by `fn` keyword + brace matching.
pub fn fn_bodies_with_prefix(masked: &str, prefix: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for pos in find_idents(masked, "fn") {
        let Some((name_at, _)) = next_sig(masked, pos + 2) else { continue };
        let rest = &masked[name_at..];
        if !rest.starts_with(prefix) {
            continue;
        }
        // Find the body opening brace (skip signature; generic bounds
        // and where clauses carry no braces).
        let bytes = masked.as_bytes();
        let mut i = name_at;
        while i < bytes.len() && bytes[i] != b'{' && bytes[i] != b';' {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] == b';' {
            continue; // trait method declaration
        }
        if let Some(end) = match_item_end(bytes, i) {
            out.push((i, end));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let src = "let x = \"unwrap()\"; // panic!\nlet y = 1; /* unreachable! */";
        let m = mask(src);
        assert_eq!(m.len(), src.len());
        assert!(!m.contains("unwrap"));
        assert!(!m.contains("panic"));
        assert!(!m.contains("unreachable"));
        assert!(m.contains("let y = 1;"));
        assert!(m.contains('"'), "delimiters survive masking");
    }

    #[test]
    fn masks_raw_strings_and_chars() {
        let src = "let s = r#\"x.unwrap()\"#; let c = 'u'; let l: &'static str = s;";
        let m = mask(src);
        assert!(!m.contains("unwrap"));
        assert!(m.contains("'static"), "lifetimes survive");
        assert_eq!(m.len(), src.len());
    }

    #[test]
    fn masks_escaped_quotes() {
        let src = r#"let s = "a\"unwrap()\"b"; foo();"#;
        let m = mask(src);
        assert!(!m.contains("unwrap"));
        assert!(m.contains("foo()"));
    }

    #[test]
    fn cfg_test_region_detected() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn t() { y.unwrap(); }\n}\nfn after() {}";
        let s = Source::new("crates/x/src/a.rs".into(), src.into());
        let live = src.find("x.unwrap").unwrap();
        let test = src.find("y.unwrap").unwrap();
        let after = src.find("after").unwrap();
        assert!(!s.is_test(live));
        assert!(s.is_test(test));
        assert!(!s.is_test(after));
    }

    #[test]
    fn tests_dir_is_whole_file_test() {
        let s = Source::new("tests/foo.rs".into(), "x.unwrap();".into());
        assert!(s.is_test(0));
    }

    #[test]
    fn line_numbers() {
        let s = Source::new("f.rs".into(), "a\nb\ncde\n".into());
        assert_eq!(s.line_of(0), 1);
        assert_eq!(s.line_of(2), 2);
        assert_eq!(s.line_of(4), 3);
        assert_eq!(s.line_text(4), "cde");
    }

    #[test]
    fn ident_boundaries() {
        let m = "unwrap unwrapped my_unwrap .unwrap()";
        let hits = find_idents(m, "unwrap");
        assert_eq!(hits.len(), 2, "{hits:?}");
    }

    #[test]
    fn fn_body_by_prefix() {
        let src =
            "fn decode(b: &mut B) -> R { body1 }\nfn encode() { e }\nfn decode_flagged() { body2 }";
        let bodies = fn_bodies_with_prefix(src, "decode");
        assert_eq!(bodies.len(), 2);
        assert!(src[bodies[0].0..bodies[0].1].contains("body1"));
        assert!(src[bodies[1].0..bodies[1].1].contains("body2"));
    }

    #[test]
    fn code_lines_skip_comments_blanks_and_tests() {
        let src =
            "//! Doc.\n\n/// A fn.\nfn live() {\n    let s = \"// not a comment\"; /* note */\n}\n\
                   /* a\n   block */\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let s = Source::new("crates/x/src/a.rs".into(), src.into());
        assert_eq!(s.code_lines(), 3, "fn live, its let, its brace");
        let bare: String = src
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .collect::<Vec<_>>()
            .join("\n");
        let bare = Source::new("crates/x/src/a.rs".into(), bare);
        assert_eq!(bare.code_lines(), 3, "deleting comments does not lower the count");
        assert_eq!(Source::new("tests/t.rs".into(), src.into()).code_lines(), 0);
    }

    #[test]
    fn masked_non_test_blanks_tests() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }";
        let s = Source::new("crates/x/src/a.rs".into(), src.into());
        let nt = s.masked_non_test();
        assert!(!nt.contains("unwrap"));
        assert!(nt.contains("fn live"));
        let t = s.masked_test_only();
        assert!(t.contains("unwrap"));
        assert!(!t.contains("fn live"));
    }
}
