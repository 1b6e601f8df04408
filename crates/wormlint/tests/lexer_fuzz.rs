//! Fuzz-style robustness properties for the linter's front end: the
//! lexer, the source-file analysis, and the full rule pipeline must be
//! *total* over arbitrary input. The linter runs on every file in the
//! workspace (and, via fixtures, on deliberately broken code), so a
//! panic inside wormlint is itself a lint-infrastructure outage.

use proptest::prelude::*;
use wormlint::analysis::SourceFile;
use wormlint::lexer::{self};
use wormlint::rules::{self, Scope};

/// Rust-ish source fragments weighted toward the constructs a naive
/// scanner gets wrong: nested/unterminated comments, raw strings with
/// varying hash depth (and truncated ones), byte strings, char
/// literals versus lifetimes, raw identifiers, cfg(test) boundaries.
fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("fn f(v: Option<u32>) -> u32 { v.unwrap() }".to_string()),
        Just("// line comment with panic!(\"text\") inside".to_string()),
        Just("/* block /* nested */ comment */".to_string()),
        Just("/* unterminated block".to_string()),
        Just("let s = \"str with \\\" escape and // no comment\";".to_string()),
        Just("let r = r#\"raw \" string\"#;".to_string()),
        Just("let r = r##\"deeper \"# raw\"##;".to_string()),
        Just("let r = r#\"truncated raw".to_string()),
        Just("let b = b\"bytes\"; let rb = br#\"raw bytes\"#;".to_string()),
        Just("let c = '\\''; let d = 'x';".to_string()),
        Just("fn g<'a>(s: &'a str) -> &'static str { s }".to_string()),
        Just("#[cfg(test)]\nmod tests {".to_string()),
        Just("}".to_string()),
        Just("let n = 0xFF_u64 + 0b1010 + 0o77 + 1_000;".to_string()),
        Just("let r#fn = r#struct + 1;".to_string()),
        Just("\"unterminated string".to_string()),
        Just("'".to_string()),
        Just("self.state.lock(); // wormlint: allow(panic) -- fuzz".to_string()),
        Just("h.join(); std::thread::sleep(d); // wormlint: allow(blocking) -- fuzz".to_string()),
        Just("let n = r.get_count(); let v = vec![0u8; n]; Vec::with_capacity(n)".to_string()),
        ascii_soup(),
        byte_soup(),
    ]
}

/// Printable-ASCII noise (operators, brackets, quote starts).
fn ascii_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0x20u8..0x7f, 0..32)
        .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

/// Arbitrary bytes forced into UTF-8 (replacement chars included).
fn byte_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..32)
        .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

fn soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(fragment(), 0..12).prop_map(|v| v.join("\n"))
}

proptest! {
    /// Lexing is total and its spans are sane: in bounds, non-empty,
    /// non-overlapping, on char boundaries (`text()` would panic
    /// otherwise), with monotonic line numbers.
    #[test]
    fn lex_spans_are_sane(src in soup()) {
        let lexed = lexer::lex(&src);
        let line_count = src.lines().count() as u32 + 1;
        let mut prev_end = 0usize;
        let mut prev_line = 1u32;
        for t in &lexed.tokens {
            prop_assert!(t.start < t.end, "empty token span at byte {}", t.start);
            prop_assert!(t.end <= src.len(), "token span past EOF");
            prop_assert!(t.start >= prev_end, "overlapping token spans");
            let _ = t.text(&src);
            let _ = t.ident_text(&src);
            prop_assert!(t.line >= prev_line, "line numbers went backwards");
            prop_assert!(t.line <= line_count, "line number past EOF");
            prev_end = t.end;
            prev_line = t.line;
        }
        for c in &lexed.comments {
            prop_assert!(c.start < c.end, "empty comment span");
            prop_assert!(c.end <= src.len(), "comment span past EOF");
            let _ = c.text(&src);
            prop_assert!(c.line <= c.end_line, "comment line range inverted");
        }
    }

    /// Any char-boundary prefix of any soup lexes without panicking:
    /// unterminated literals and comments must run to EOF, not crash.
    #[test]
    fn truncation_never_panics(src in soup(), cut in any::<prop::sample::Index>()) {
        let mut end = cut.index(src.len() + 1);
        while end > 0 && !src.is_char_boundary(end) {
            end -= 1;
        }
        let _ = SourceFile::parse("fuzz.rs", src[..end].to_string());
    }

    /// cfg(test)-region tracking never invents a test region: a source
    /// with no `cfg` token has no line inside one.
    #[test]
    fn no_phantom_test_regions(src in soup()) {
        let f = SourceFile::parse("fuzz.rs", src.clone());
        if !src.contains("cfg") {
            for line in 1..=(src.lines().count() as u32 + 1) {
                prop_assert!(!f.in_test(line), "phantom cfg(test) region at line {line}");
            }
        }
    }

    /// The entire pipeline a workspace file sees — every rule, in the
    /// widest scope (serving codec file), then allow staleness — is
    /// total over arbitrary input.
    #[test]
    fn full_pipeline_never_panics(src in soup()) {
        let f = SourceFile::parse("fuzz.rs", src);
        let scope = Scope { serving: true, codec_path: true };
        let _ = rules::lint_file(&f, scope);
    }

    /// Integer-literal parsing is total over suffix/radix soup.
    #[test]
    fn int_value_is_total(s in "[0-9a-zA-Zxob_]{0,12}") {
        let _ = lexer::int_value(&s);
    }
}
