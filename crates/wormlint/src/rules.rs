//! The WORM-invariant lint rules.
//!
//! * **L1 `panic`/`index`** — no panicking constructs in non-test code
//!   of the serving crates; indexing-style panics additionally flagged
//!   on the wire-facing codec modules where input is hostile.
//! * **L2 `ordering`** — every atomic `Ordering` use carries an
//!   adjacent `// ordering:` justification; all sites are inventoried.
//! * **L3 `codec`** — every `encode_*` has a matching `decode_*`, is
//!   exercised by a roundtrip/fuzz test, and wire opcodes are unique,
//!   decoded, and documented.
//! * **L4 `cast`** — no bare `as` numeric conversions in codec/frame
//!   paths; use `From`/`try_from`/checked helpers.

use std::collections::{BTreeMap, BTreeSet};

use crate::analysis::SourceFile;
use crate::lexer::{int_value, TokKind, Token};
use crate::{AtomicSite, Diag};

/// Which rule families apply to a file.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scope {
    /// Crate is part of the serving/trusted base: L1 applies.
    pub serving: bool,
    /// File is a canonical codec / frame / wire module: L1's `index`
    /// sub-rule and L4 apply.
    pub codec_path: bool,
}

/// Method names whose call panics on the error/none case.
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
/// Macros that always panic when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// Atomic ordering variants inventoried by L2.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
/// Numeric types an `as` cast can silently truncate into.
const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub diags: Vec<Diag>,
    pub atomic_sites: Vec<AtomicSite>,
    /// Names of non-test `fn encode_*` items defined in this file.
    pub encode_fns: Vec<(String, u32)>,
    /// Indices into `SourceFile::allows` consumed by the per-file
    /// rules. The interprocedural pass (L5-L8) consumes more before
    /// [`unused_allows`] judges staleness.
    pub used_allows: BTreeSet<usize>,
}

/// Runs every per-file rule on `f` under `scope`.
pub fn lint_file(f: &SourceFile, scope: Scope) -> FileReport {
    let mut report = FileReport::default();
    let mut used_allows: BTreeSet<usize> = BTreeSet::new();

    for ba in &f.bad_allows {
        report.diags.push(Diag::new(
            "L0",
            "allow-syntax",
            &f.path,
            ba.line,
            format!("malformed escape hatch: {}", ba.problem),
        ));
    }

    if scope.serving {
        l1_panics(f, scope, &mut report, &mut used_allows);
    }
    l2_atomics(f, &mut report);
    l3_codec_pairs(f, &mut report, &mut used_allows);
    if scope.codec_path {
        l4_casts(f, &mut report, &mut used_allows);
    }

    report.used_allows = used_allows;
    report
}

/// L0's staleness check: every allow comment must have suppressed
/// something across *all* rule passes (per-file and interprocedural).
/// Run after both have recorded consumption into `used`.
pub fn unused_allows(f: &SourceFile, used: &BTreeSet<usize>) -> Vec<Diag> {
    let mut diags = Vec::new();
    for (i, a) in f.allows.iter().enumerate() {
        if !used.contains(&i) {
            diags.push(Diag::new(
                "L0",
                "allow-unused",
                &f.path,
                a.comment_line,
                format!(
                    "allow({}) suppresses nothing on line {}",
                    a.rules.join(", "),
                    a.target_line
                ),
            ));
        }
    }
    diags
}

/// Looks up and consumes an allow for `rule` at `line`; returns true
/// when the violation is suppressed.
fn consume_allow(f: &SourceFile, rule: &str, line: u32, used: &mut BTreeSet<usize>) -> bool {
    match f.allow_for(rule, line) {
        Some(idx) => {
            used.insert(idx);
            true
        }
        None => false,
    }
}

fn l1_panics(
    f: &SourceFile,
    scope: Scope,
    report: &mut FileReport,
    used_allows: &mut BTreeSet<usize>,
) {
    let toks = &f.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || f.in_test(t.line) {
            // Indexing is keyed off punctuation, handled below.
            if scope.codec_path && !f.in_test(t.line) {
                check_index(f, toks, i, report, used_allows);
            }
            continue;
        }
        let name = t.ident_text(&f.src);
        // `.unwrap()` — method position only: a `.` immediately before.
        if PANIC_METHODS.contains(&name)
            && i > 0
            && toks[i - 1].is_punct(b'.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct(b'('))
            && !consume_allow(f, "panic", t.line, used_allows)
        {
            report.diags.push(Diag::new(
                "L1",
                "panic",
                &f.path,
                t.line,
                format!(
                    "`.{name}()` in non-test serving-crate code; return a typed error or \
                     justify with `// wormlint: allow(panic) -- <reason>`"
                ),
            ));
        }
        // `panic!(...)` — macro position: a `!` immediately after.
        if PANIC_MACROS.contains(&name)
            && toks.get(i + 1).is_some_and(|n| n.is_punct(b'!'))
            && !consume_allow(f, "panic", t.line, used_allows)
        {
            report.diags.push(Diag::new(
                "L1",
                "panic",
                &f.path,
                t.line,
                format!(
                    "`{name}!` in non-test serving-crate code; return a typed error or \
                     justify with `// wormlint: allow(panic) -- <reason>`"
                ),
            ));
        }
    }
}

/// Flags indexing expressions `expr[...]` (a panic on out-of-bounds)
/// in the wire-facing modules. Token `i` is examined as a potential
/// `[` in expression position.
fn check_index(
    f: &SourceFile,
    toks: &[Token],
    i: usize,
    report: &mut FileReport,
    used_allows: &mut BTreeSet<usize>,
) {
    let t = &toks[i];
    if !t.is_punct(b'[') || i == 0 {
        return;
    }
    // Expression position: the previous token ends a value —
    // identifier, closing bracket, or literal. (`#[attr]`, `&[u8]`,
    // `vec![..]`, slice patterns after `=>`/`(`/`,` all miss.)
    let prev = &toks[i - 1];
    let exprish = matches!(prev.kind, TokKind::Ident | TokKind::Int | TokKind::Lit)
        || prev.is_punct(b')')
        || prev.is_punct(b']');
    if !exprish {
        return;
    }
    // Keywords lex as identifiers but never end a value: `&mut [u8]` is
    // a slice type, `return [..]`/`break [..]` are array literals.
    if prev.kind == TokKind::Ident
        && matches!(
            prev.ident_text(&f.src),
            "mut" | "ref" | "dyn" | "as" | "in" | "return" | "break" | "else" | "match" | "impl"
        )
    {
        return;
    }
    // Non-expression `[` contexts all miss this pattern: attributes
    // follow `#`, slice types follow `&`/`<`/`:`, `vec![..]` follows
    // `!`, and slice patterns follow `=>`/`(`/`,`/`|`.
    if !consume_allow(f, "index", t.line, used_allows) {
        report.diags.push(Diag::new(
            "L1",
            "index",
            &f.path,
            t.line,
            "indexing expression in a wire-facing module panics on out-of-bounds; use `get`/\
             `split_at` style accessors or justify with `// wormlint: allow(index) -- <reason>`"
                .to_string(),
        ));
    }
}

fn l2_atomics(f: &SourceFile, report: &mut FileReport) {
    let toks = &f.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || f.in_test(t.line) {
            continue;
        }
        if !ORDERINGS.contains(&t.ident_text(&f.src)) {
            continue;
        }
        // Must be path position `Ordering :: Variant`.
        if i < 2 || !toks[i - 1].is_punct(b':') || !toks[i - 2].is_punct(b':') {
            continue;
        }
        let qualifier = toks
            .get(i.wrapping_sub(3))
            .filter(|q| q.kind == TokKind::Ident)
            .map(|q| q.ident_text(&f.src));
        if qualifier != Some("Ordering") {
            continue;
        }
        // Import lines declare no ordering semantics.
        if f.line_text(t.line).starts_with("use ") || f.line_text(t.line).starts_with("pub use ") {
            continue;
        }
        let justification = f.ordering_justification(t.line);
        if justification.is_none() {
            report.diags.push(Diag::new(
                "L2",
                "ordering",
                &f.path,
                t.line,
                format!(
                    "`Ordering::{}` without an adjacent `// ordering:` justification",
                    t.ident_text(&f.src)
                ),
            ));
        }
        report.atomic_sites.push(AtomicSite {
            file: f.path.clone(),
            line: t.line,
            ordering: t.ident_text(&f.src).to_string(),
            container: f.enclosing_fn(i),
            justification,
        });
    }
}

/// Per-file half of L3: every non-test `fn encode_*` needs a matching
/// `fn decode_*` in the same file, and is reported upward so the
/// workspace pass can check test coverage. An encoder that writes in
/// place (`encode_x_into`) and a decoder that slices its source buffer
/// (`decode_x_shared`) are the `x` pair itself, not variants of it.
fn l3_codec_pairs(f: &SourceFile, report: &mut FileReport, used_allows: &mut BTreeSet<usize>) {
    let toks = &f.lexed.tokens;
    let mut encodes: Vec<(&str, &str, u32)> = Vec::new();
    let mut decodes: BTreeSet<&str> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.ident_text(&f.src) != "fn" {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
            continue;
        };
        let name = name_tok.ident_text(&f.src);
        if f.in_test(name_tok.line) {
            continue;
        }
        let stem_of = |prefix: &str, suffix: &str| {
            let stem = name.strip_suffix(suffix).unwrap_or(name);
            stem.strip_prefix(prefix).filter(|s| !s.is_empty())
        };
        if let Some(stem) = stem_of("encode_", "_into") {
            encodes.push((name, stem, name_tok.line));
        } else if let Some(stem) = stem_of("decode_", "_shared") {
            decodes.insert(stem);
        }
    }
    for (name, stem, line) in encodes {
        if !decodes.contains(stem) && !consume_allow(f, "codec", line, used_allows) {
            report.diags.push(Diag::new(
                "L3",
                "codec-pair",
                &f.path,
                line,
                format!("`{name}` has no matching `decode_{stem}` in this module"),
            ));
            continue;
        }
        report.encode_fns.push((name.to_string(), line));
    }
}

fn l4_casts(f: &SourceFile, report: &mut FileReport, used_allows: &mut BTreeSet<usize>) {
    let toks = &f.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || f.in_test(t.line) || t.ident_text(&f.src) != "as" {
            continue;
        }
        // `use x as y` renames, it does not cast.
        let line_text = f.line_text(t.line);
        if line_text.starts_with("use ") || line_text.starts_with("pub use ") {
            continue;
        }
        let Some(target) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
            continue;
        };
        let ty = target.ident_text(&f.src);
        if !NUMERIC_TYPES.contains(&ty) {
            continue;
        }
        if !consume_allow(f, "cast", t.line, used_allows) {
            report.diags.push(Diag::new(
                "L4",
                "cast",
                &f.path,
                t.line,
                format!(
                    "bare `as {ty}` in a codec/frame path can silently truncate; use \
                     `{ty}::from`/`{ty}::try_from` or justify with \
                     `// wormlint: allow(cast) -- <reason>`"
                ),
            ));
        }
    }
}

/// Workspace half of L3: opcode discipline in `wormnet/src/protocol.rs`
/// plus the requirement that every `encode_*` is exercised from test
/// code.
pub struct CodecContext<'a> {
    /// Identifiers appearing anywhere in test code (tests/ trees,
    /// `#[cfg(test)]` regions, fuzz/roundtrip suites).
    pub test_idents: &'a BTreeSet<String>,
    /// Contents of `docs/PROTOCOL.md`, if found.
    pub protocol_doc: Option<&'a str>,
}

/// Checks cross-file codec properties for one file's encode fns.
pub fn l3_test_coverage(
    path: &str,
    encode_fns: &[(String, u32)],
    ctx: &CodecContext<'_>,
    diags: &mut Vec<Diag>,
) {
    for (name, line) in encode_fns {
        if !ctx.test_idents.contains(name) {
            diags.push(Diag::new(
                "L3",
                "codec-test",
                path,
                *line,
                format!("`{name}` is not referenced from any roundtrip/fuzz test"),
            ));
        }
    }
}

/// Extracts and audits the wire opcodes of `protocol.rs`: every opcode
/// literal emitted by the encoders must be unique, matched by a decoder
/// arm, and documented as a `| N |` table row in PROTOCOL.md.
pub fn l3_opcodes(f: &SourceFile, ctx: &CodecContext<'_>, diags: &mut Vec<Diag>) {
    let encode_ops = put_u8_literals(f, &["put_request"]);
    let resp_ops = put_u8_literals(f, &["put_response"]);
    let decode_ops = match_arm_literals(f, &["decode_request_inner", "decode_request"]);

    let mut seen: BTreeMap<u64, u32> = BTreeMap::new();
    for &(op, line) in &encode_ops {
        if let Some(first) = seen.insert(op, line) {
            diags.push(Diag::new(
                "L3",
                "opcode",
                &f.path,
                line,
                format!("request opcode {op} already emitted at line {first}"),
            ));
        }
    }
    let mut resp_seen: BTreeMap<u64, u32> = BTreeMap::new();
    for &(op, line) in &resp_ops {
        if let Some(first) = resp_seen.insert(op, line) {
            diags.push(Diag::new(
                "L3",
                "opcode",
                &f.path,
                line,
                format!("response discriminant {op} already emitted at line {first}"),
            ));
        }
    }
    for (&op, &line) in &seen {
        if !decode_ops.contains(&op) {
            diags.push(Diag::new(
                "L3",
                "opcode",
                &f.path,
                line,
                format!("request opcode {op} is encoded but never decoded"),
            ));
        }
        match ctx.protocol_doc {
            Some(doc) => {
                let row = format!("| {op} |");
                if !doc.lines().any(|l| l.trim_start().starts_with(&row)) {
                    diags.push(Diag::new(
                        "L3",
                        "opcode",
                        &f.path,
                        line,
                        format!(
                            "request opcode {op} has no `| {op} | ... |` row in docs/PROTOCOL.md"
                        ),
                    ));
                }
            }
            None => diags.push(Diag::new(
                "L3",
                "opcode",
                &f.path,
                line,
                "docs/PROTOCOL.md not found; wire opcodes must be documented".to_string(),
            )),
        }
    }
    if encode_ops.is_empty() {
        diags.push(Diag::new(
            "L3",
            "opcode",
            &f.path,
            1,
            "no `put_u8(<literal>)` opcodes found in put_request; \
             opcode audit cannot run"
                .to_string(),
        ));
    }
}

/// Integer literals passed directly to `put_u8(...)` within the bodies
/// of the named functions.
fn put_u8_literals(f: &SourceFile, fns: &[&str]) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    for name in fns {
        let Some((start, end)) = fn_body_range(f, name) else {
            continue;
        };
        let toks = &f.lexed.tokens[start..end];
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Ident
                && t.ident_text(&f.src) == "put_u8"
                && toks.get(i + 1).is_some_and(|n| n.is_punct(b'('))
            {
                if let Some(lit) = toks.get(i + 2).filter(|l| l.kind == TokKind::Int) {
                    if toks.get(i + 3).is_some_and(|n| n.is_punct(b')')) {
                        if let Some(v) = int_value(lit.text(&f.src)) {
                            out.push((v, lit.line));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Integer literals in match-arm position (`N =>`) or equality
/// comparisons (`== N`) within the named function bodies.
fn match_arm_literals(f: &SourceFile, fns: &[&str]) -> BTreeSet<u64> {
    let mut out = BTreeSet::new();
    for name in fns {
        let Some((start, end)) = fn_body_range(f, name) else {
            continue;
        };
        let toks = &f.lexed.tokens[start..end];
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Int {
                continue;
            }
            let arm = toks.get(i + 1).is_some_and(|a| a.is_punct(b'='))
                && toks.get(i + 2).is_some_and(|b| b.is_punct(b'>'));
            let eq = i >= 2 && toks[i - 1].is_punct(b'=') && toks[i - 2].is_punct(b'=');
            if arm || eq {
                if let Some(v) = int_value(t.text(&f.src)) {
                    out.insert(v);
                }
            }
        }
    }
    out
}

/// Token index range (exclusive) of the body of `fn name`, spanning
/// from the name to the matching close brace.
fn fn_body_range(f: &SourceFile, name: &str) -> Option<(usize, usize)> {
    let toks = &f.lexed.tokens;
    let src = &f.src;
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && t.ident_text(src) == "fn"
            && toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && n.ident_text(src) == name)
        {
            // Find the body's opening brace at bracket depth 0.
            let mut depth = 0i64;
            let mut j = i + 2;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
                    TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
                    TokKind::Punct(b'{') if depth == 0 => {
                        let mut brace = 0i64;
                        let mut k = j;
                        while k < toks.len() {
                            if toks[k].is_punct(b'{') {
                                brace += 1;
                            } else if toks[k].is_punct(b'}') {
                                brace -= 1;
                                if brace == 0 {
                                    return Some((j, k + 1));
                                }
                            }
                            k += 1;
                        }
                        return Some((j, toks.len()));
                    }
                    TokKind::Punct(b';') if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
        }
    }
    None
}
