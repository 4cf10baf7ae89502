//! The three rule families.
//!
//! * **L1 `no-panic` / `decode-index`** — protocol code (the crates
//!   whose non-test code runs inside a node: `core`, `chord`, `pgrid`,
//!   `overlay`, `query`, `vql`, the `util` wire codec and the `store`
//!   triple-list codec) must not contain panic paths: `unwrap()`,
//!   `expect("…")`, `panic!`, `unreachable!`, `todo!`,
//!   `unimplemented!`, or slice indexing inside `decode` functions. A
//!   panic on a decoded message is a remote crash trigger once bytes
//!   arrive from a real socket.
//! * **L2 `wall-clock` / `entropy-rng` / `map-order` /
//!   `wire-map-order`** — the simulator is the correctness oracle only
//!   while same-seed runs are bit-identical. Wall clocks outside the
//!   designated clock modules, entropy-seeded RNGs anywhere, and
//!   randomized-order hash maps (std `HashMap`/`HashSet`) in non-test
//!   code all break that; deterministic `FxHashMap` is allowed except
//!   in wire-emitting modules, where any hash map needs a justified
//!   suppression (iteration order must provably never reach the wire).
//! * **L3 `wire-exhaustive` / `decode-alloc`** — every variant of the
//!   five message enums must have a handler arm and decode-roundtrip
//!   test coverage, and every `with_capacity`/`reserve` inside a
//!   decode function must clamp its length argument.

use crate::scan::{find_idents, fn_bodies_with_prefix, match_paren, next_sig, prev_sig, Source};

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (stable; allowlist entries reference it).
    pub rule: &'static str,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Trimmed source line (allowlist needles match against this).
    pub text: String,
    /// What is wrong.
    pub message: String,
}

/// Crates whose non-test code is held to the no-panic rule.
fn in_l1_scope(path: &str) -> bool {
    const SCOPES: &[&str] = &[
        "crates/core/src/",
        "crates/chord/src/",
        "crates/pgrid/src/",
        "crates/overlay/src/",
        "crates/query/src/",
        "crates/vql/src/",
    ];
    SCOPES.iter().any(|s| path.starts_with(s)) || in_wire_codec(path)
}

/// The wire codec itself (`util/wire*`) and the triple-list codec that
/// every reply and batch payload table goes through: decoders over
/// untrusted bytes.
fn in_wire_codec(path: &str) -> bool {
    path == "crates/util/src/wire.rs"
        || path.starts_with("crates/util/src/wire/")
        || path == "crates/store/src/list.rs"
}

/// Modules whose data structures feed the wire, a stats broadcast or a
/// bench snapshot: hash maps here need a justified suppression.
fn in_wire_emitting(path: &str) -> bool {
    path.ends_with("/msg.rs")
        || in_wire_codec(path)
        || matches!(
            path,
            "crates/util/src/bloom.rs"
                | "crates/query/src/relation.rs"
                | "crates/query/src/mqp.rs"
                | "crates/query/src/cost/delta.rs"
                | "crates/query/src/cost/notice.rs"
                | "crates/query/src/cost/shards.rs"
                | "crates/core/src/stats.rs"
                | "crates/simnet/src/metrics.rs"
        )
}

/// Modules allowed to read the wall clock: the simulated clock, the
/// live (threaded) runtime, and the bench harness (which measures real
/// wall time by design).
fn wall_clock_allowed(path: &str) -> bool {
    matches!(path, "crates/simnet/src/time.rs" | "crates/core/src/live.rs")
        || path.starts_with("crates/bench/")
}

/// Runs every per-file rule over one source.
pub fn check_file(src: &Source, out: &mut Vec<Finding>) {
    let non_test = src.masked_non_test();
    if in_l1_scope(&src.path) {
        no_panic(src, &non_test, out);
        decode_index(src, &non_test, out);
    }
    decode_alloc(src, &non_test, out);
    if !wall_clock_allowed(&src.path) {
        banned_path(src, &non_test, "Instant::now", "wall-clock", out);
        banned_path(src, &non_test, "SystemTime::now", "wall-clock", out);
    }
    // Entropy-seeded randomness is banned everywhere, tests included: a
    // test that passes only for some seeds is a flake, and protocol
    // code seeded from entropy breaks same-seed reproducibility.
    for needle in ["from_entropy", "thread_rng", "OsRng", "from_os_rng"] {
        for at in find_idents(&src.masked, needle) {
            push(
                src,
                at,
                "entropy-rng",
                format!(
                    "{needle} breaks deterministic replay; derive seeds via unistore_util::rng"
                ),
                out,
            );
        }
    }
    if src.path != "crates/util/src/fxhash.rs" {
        for name in ["HashMap", "HashSet"] {
            for at in find_idents(&non_test, name) {
                push(
                    src,
                    at,
                    "map-order",
                    format!(
                        "std {name} has randomized iteration order; use Fx{name} (deterministic) \
                         or BTree{}",
                        &name[4..]
                    ),
                    out,
                );
            }
        }
    }
    if in_wire_emitting(&src.path) {
        for name in ["FxHashMap", "FxHashSet"] {
            for at in find_idents(&non_test, name) {
                push(
                    src,
                    at,
                    "wire-map-order",
                    format!(
                        "{name} in a wire-emitting module: iteration order must never reach the \
                         wire — use BTreeMap/sorted emission, or suppress with a proof sketch"
                    ),
                    out,
                );
            }
        }
    }
}

fn push(src: &Source, at: usize, rule: &'static str, message: String, out: &mut Vec<Finding>) {
    out.push(Finding {
        rule,
        file: src.path.clone(),
        line: src.line_of(at),
        text: src.line_text(at).to_string(),
        message,
    });
}

fn banned_path(
    src: &Source,
    non_test: &str,
    needle: &str,
    rule: &'static str,
    out: &mut Vec<Finding>,
) {
    let mut from = 0;
    while let Some(pos) = non_test[from..].find(needle) {
        let at = from + pos;
        from = at + needle.len();
        if !crate::scan::is_ident_at(non_test, at, needle.split("::").next().unwrap_or(needle)) {
            continue;
        }
        push(
            src,
            at,
            rule,
            format!("{needle} outside the clock modules makes same-seed runs diverge"),
            out,
        );
    }
}

/// `.unwrap()`, `.expect("…")`, and the panic macro family.
fn no_panic(src: &Source, non_test: &str, out: &mut Vec<Finding>) {
    for at in find_idents(non_test, "unwrap") {
        let preceded_by_dot = matches!(prev_sig(non_test, at), Some((_, b'.')));
        let called_empty = next_sig(non_test, at + "unwrap".len())
            .filter(|&(_, b)| b == b'(')
            .and_then(|(p, _)| next_sig(non_test, p + 1))
            .is_some_and(|(_, b)| b == b')');
        if preceded_by_dot && called_empty {
            push(
                src,
                at,
                "no-panic",
                "unwrap() panics on the error path; return a typed error or handle the None"
                    .to_string(),
                out,
            );
        }
    }
    for at in find_idents(non_test, "expect") {
        let preceded_by_dot = matches!(prev_sig(non_test, at), Some((_, b'.')));
        // Only Option/Result::expect takes a string literal first; a
        // parser's own `self.expect(Token::X)` does not match.
        let string_arg = next_sig(non_test, at + "expect".len())
            .filter(|&(_, b)| b == b'(')
            .and_then(|(p, _)| next_sig(non_test, p + 1))
            .is_some_and(|(_, b)| b == b'"');
        if preceded_by_dot && string_arg {
            push(
                src,
                at,
                "no-panic",
                "expect(\"…\") panics on the error path; return a typed error instead".to_string(),
                out,
            );
        }
    }
    for mac in ["panic", "unreachable", "todo", "unimplemented"] {
        for at in find_idents(non_test, mac) {
            if non_test.as_bytes().get(at + mac.len()) == Some(&b'!') {
                push(
                    src,
                    at,
                    "no-panic",
                    format!(
                        "{mac}! in protocol code is a remote crash trigger once bytes arrive \
                             from a real socket"
                    ),
                    out,
                );
            }
        }
    }
}

/// Slice/array indexing inside `decode*` function bodies: decoded data
/// must be accessed through `get`/bounds-checked paths.
fn decode_index(src: &Source, non_test: &str, out: &mut Vec<Finding>) {
    for (start, end) in fn_bodies_with_prefix(non_test, "decode") {
        let bytes = non_test.as_bytes();
        let body = &bytes[start..end.min(bytes.len())];
        for (off, &b) in body.iter().enumerate() {
            if b != b'[' {
                continue;
            }
            let i = start + off;
            // An index expression follows an identifier, `)`, or `]`;
            // array literals and attributes do not.
            let Some((_, prev)) = prev_sig(non_test, i) else { continue };
            if prev == b')' || prev == b']' || prev.is_ascii_alphanumeric() || prev == b'_' {
                push(
                    src,
                    i,
                    "decode-index",
                    "indexing in a decode path panics out of bounds; use get()/chunk guards"
                        .to_string(),
                    out,
                );
            }
        }
    }
}

/// `with_capacity`/`reserve` inside `decode*` bodies must clamp: a
/// length prefix is attacker-controlled, and an unclamped reservation
/// turns 5 wire bytes into a gigabyte allocation.
fn decode_alloc(src: &Source, non_test: &str, out: &mut Vec<Finding>) {
    for (start, end) in fn_bodies_with_prefix(non_test, "decode") {
        for name in ["with_capacity", "reserve"] {
            for at in find_idents(&non_test[start..end], name) {
                let at = start + at;
                let Some((open, b'(')) = next_sig(non_test, at + name.len()) else { continue };
                let Some(close) = match_paren(non_test, open) else { continue };
                let arg = &non_test[open + 1..close];
                if !is_clamped(arg) {
                    push(
                        src,
                        at,
                        "decode-alloc",
                        format!(
                            "{name}({}) fed by decoded input without a clamp: cap it with \
                                 .min(…) before reserving",
                            arg.trim()
                        ),
                        out,
                    );
                }
            }
        }
    }
}

/// A capacity argument counts as clamped when it passes through
/// `min(…)` / `clamp(…)`, or is a plain numeric literal / SCREAMING
/// constant (compile-time bound, not wire data).
fn is_clamped(arg: &str) -> bool {
    let arg = arg.trim();
    if arg.contains("min(") || arg.contains("clamp(") {
        return true;
    }
    !arg.is_empty()
        && arg.chars().all(|c| {
            c.is_ascii_digit()
                || c.is_ascii_uppercase()
                || c == '_'
                || c == ':'
                || c.is_whitespace()
        })
}

// ---- L3: wire exhaustiveness -----------------------------------------

/// Where one message enum is defined, handled and test-covered.
pub struct EnumSpec {
    /// Enum name as written in source.
    pub name: &'static str,
    /// Defining file (workspace-relative).
    pub file: &'static str,
    /// Directory whose non-test code must contain a handler arm
    /// (`Enum::Variant`) outside the defining file.
    pub handler_dir: &'static str,
    /// Directories whose *test* code must construct the variant
    /// (decode-roundtrip coverage).
    pub coverage_dirs: &'static [&'static str],
}

/// The five protocol enums the gate tracks.
pub const ENUM_SPECS: &[EnumSpec] = &[
    EnumSpec {
        name: "UniMsg",
        file: "crates/core/src/msg.rs",
        handler_dir: "crates/core/src/",
        coverage_dirs: &["crates/core/src/", "tests/"],
    },
    EnumSpec {
        name: "QueryMsg",
        file: "crates/core/src/msg.rs",
        handler_dir: "crates/core/src/",
        coverage_dirs: &["crates/core/src/", "tests/"],
    },
    EnumSpec {
        name: "PGridMsg",
        file: "crates/pgrid/src/msg.rs",
        handler_dir: "crates/pgrid/src/",
        coverage_dirs: &["crates/pgrid/src/", "crates/core/src/", "tests/"],
    },
    EnumSpec {
        name: "ChordMsg",
        file: "crates/chord/src/msg.rs",
        handler_dir: "crates/chord/src/",
        coverage_dirs: &["crates/chord/src/", "crates/core/src/", "tests/"],
    },
    EnumSpec {
        name: "RepairMsg",
        file: "crates/overlay/src/repair/msg.rs",
        handler_dir: "crates/overlay/src/",
        coverage_dirs: &["crates/overlay/", "crates/pgrid/src/", "crates/chord/src/", "tests/"],
    },
];

/// Extracts the variant names of `enum <name>` from a masked source.
pub fn enum_variants(masked: &str, name: &str) -> Vec<String> {
    let mut variants = Vec::new();
    let Some(body) = enum_body(masked, name) else { return variants };
    let bytes = body.as_bytes();
    let mut depth = 0i32;
    let mut expect_name = true;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'(' | b'[' | b'<' => depth += 1,
            b'}' | b')' | b']' | b'>' => depth -= 1,
            b',' if depth == 0 => expect_name = true,
            b'#' if depth == 0 && bytes.get(i + 1) == Some(&b'[') => {
                // Skip an attribute.
                let mut d = 0;
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'[' => d += 1,
                        b']' => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            c if expect_name && depth == 0 && (c.is_ascii_alphabetic() || c == b'_') => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                variants.push(body[start..i].to_string());
                expect_name = false;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    variants
}

fn enum_body<'a>(masked: &'a str, name: &str) -> Option<&'a str> {
    for at in find_idents(masked, "enum") {
        let Some((name_at, _)) = next_sig(masked, at + 4) else { continue };
        if !masked[name_at..].starts_with(name) || !crate::scan::is_ident_at(masked, name_at, name)
        {
            continue;
        }
        let open = masked[name_at..].find('{')? + name_at;
        let bytes = masked.as_bytes();
        let mut depth = 0usize;
        for (i, &b) in bytes.iter().enumerate().skip(open) {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(&masked[open + 1..i]);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::Source;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        let s = Source::new(path.into(), src.into());
        let mut out = Vec::new();
        check_file(&s, &mut out);
        out
    }

    #[test]
    fn unwrap_flagged_in_scope_only() {
        let src = "fn f() { x.unwrap(); }";
        assert_eq!(findings("crates/pgrid/src/a.rs", src).len(), 1);
        assert_eq!(findings("crates/workload/src/a.rs", src).len(), 0, "out of L1 scope");
    }

    /// The statistics flush's codecs — the notice, the OID piece, and
    /// the messages that carry them — are protocol code and wire
    /// emitters: a panic or a hash-map order there reaches every peer.
    #[test]
    fn statistics_codecs_are_in_scope() {
        for path in [
            "crates/query/src/cost/delta.rs",
            "crates/query/src/cost/notice.rs",
            "crates/query/src/cost/shards.rs",
            "crates/core/src/msg.rs",
        ] {
            assert!(in_l1_scope(path) && in_wire_emitting(path), "{path}");
            assert_eq!(findings(path, "fn f() { x.unwrap(); }").len(), 1, "{path}");
        }
    }

    #[test]
    fn unwrap_or_not_flagged() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); z.unwrap_or_default(); }";
        assert!(findings("crates/query/src/a.rs", src).is_empty());
    }

    #[test]
    fn expect_string_vs_token() {
        let flagged = findings("crates/core/src/a.rs", "fn f() { x.expect(\"alive\"); }");
        assert_eq!(flagged.len(), 1);
        let parser = findings("crates/vql/src/p.rs", "fn f() { self.expect(Token::Comma)?; }");
        assert!(parser.is_empty(), "parser's own expect(Token) is not Result::expect");
    }

    #[test]
    fn panic_macros_flagged_but_not_in_tests() {
        let src = "fn f() { panic!(\"boom\"); }\n#[cfg(test)]\nmod tests { fn t() { panic!(); unreachable!(); } }";
        let got = findings("crates/chord/src/a.rs", src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 1);
    }

    #[test]
    fn wall_clock_scoping() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(findings("crates/query/src/a.rs", src).len(), 1);
        assert!(findings("crates/core/src/live.rs", src).is_empty());
        assert!(findings("crates/bench/src/bin/x.rs", src).is_empty());
    }

    #[test]
    fn entropy_flagged_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests { fn t() { let r = thread_rng(); } }";
        assert_eq!(findings("crates/util/src/a.rs", src).len(), 1);
    }

    #[test]
    fn std_maps_flagged_fx_allowed_outside_wire() {
        let src = "use std::collections::HashMap; fn f(m: HashMap<u8, u8>) {}";
        assert_eq!(findings("crates/store/src/a.rs", src).len(), 2);
        let fx = "fn f(m: FxHashMap<u8, u8>) {}";
        assert!(findings("crates/store/src/a.rs", fx).is_empty());
        assert_eq!(findings("crates/query/src/cost/delta.rs", fx).len(), 1, "wire-emitting module");
    }

    #[test]
    fn decode_index_and_alloc() {
        let src = "fn decode(buf: &mut Bytes) -> R { let x = buf[0]; let mut v = Vec::with_capacity(len); }";
        let got = findings("crates/util/src/wire.rs", src);
        assert!(got.iter().any(|f| f.rule == "decode-index"), "{got:?}");
        assert!(got.iter().any(|f| f.rule == "decode-alloc"), "{got:?}");
        let clamped =
            "fn decode(b: &mut Bytes) -> R { let mut v = Vec::with_capacity(len.min(1024) as usize); let a = [0u8; 4]; }";
        let got = findings("crates/util/src/wire.rs", clamped);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn encode_side_allocs_exempt() {
        let src = "fn encode(&self, buf: &mut BytesMut) { buf.reserve(self.wire_size()); }";
        assert!(findings("crates/util/src/wire.rs", src).is_empty());
    }

    #[test]
    fn variants_parsed() {
        let src = "pub enum PGridMsg<I> {\n  #[doc(hidden)]\n  Lookup { qid: u64, filter: Option<F> },\n  Reply(Vec<(u64, I)>),\n  Ping,\n}";
        let got = enum_variants(&crate::scan::mask(src), "PGridMsg");
        assert_eq!(got, vec!["Lookup", "Reply", "Ping"]);
    }

    /// The L3 rule tracks Chord's liveness plane: its variants are read
    /// off the live source, so each needs a handler arm in the chord
    /// crate and a test that constructs it.
    #[test]
    fn chord_liveness_variants_are_tracked() {
        let spec = ENUM_SPECS.iter().find(|s| s.name == "ChordMsg").expect("ChordMsg is tracked");
        let path = crate::workspace_root().join(spec.file);
        let src = std::fs::read_to_string(&path).expect("the ChordMsg source");
        let got = enum_variants(&crate::scan::mask(&src), spec.name);
        for variant in ["Ping", "Pong", "Down", "Watchers"] {
            assert!(got.iter().any(|v| v == variant), "{variant} in {got:?}");
        }
    }
}
