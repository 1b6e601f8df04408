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
//! * **L6 `blocking`** — every call that can wait unboundedly in
//!   serving code is declared by a `wormtrace::sync::blocking(..)` call
//!   just before it, which asserts at run time that the thread may
//!   block.
//! * **L8 `count-bomb`** — in codec files, allocation sizes derived
//!   from wire-read counts must be bounded (compared against a limit
//!   or clamped with `.min(..)`) before reaching
//!   `with_capacity`/`reserve`/`vec![..; n]`.

use std::collections::{BTreeMap, BTreeSet};

use crate::analysis::SourceFile;
use crate::lexer::{int_value, TokKind, Token};
use crate::{AtomicSite, Diag};

/// Which rule families apply to a file.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scope {
    /// Crate is part of the serving/trusted base: L1 and L6 apply.
    pub serving: bool,
    /// File is a canonical codec / frame / wire module: L1's `index`
    /// sub-rule, L4 and L8 apply.
    pub codec_path: bool,
}

/// Method names whose call panics on the error/none case.
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
/// Macros that always panic when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// Atomic ordering variants inventoried by L2.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
/// Blocking calls recognized in method position with zero arguments
/// only (with arguments, `join`/`recv` etc. are ordinary data methods).
const BLOCKING_ZERO_ARG: &[&str] = &["join", "recv", "park", "accept"];
/// Blocking calls recognized at any arity. Positional file I/O
/// (`read_exact_at`/`write_all_at`) is deliberately absent: the paper
/// charges bounded device I/O to the storage layer, while these names
/// mark unbounded *stream* waits.
const BLOCKING_ANY_ARG: &[&str] = &[
    "sleep",
    "wait",
    "wait_timeout",
    "recv_timeout",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
];
/// Qualifiers that make a `connect` call a blocking socket dial.
const SOCKET_TYPES: &[&str] = &["TcpStream", "TcpListener", "UnixStream", "UnixListener"];
/// Wire-read accessors whose value, unbounded, sizes an allocation.
const L8_SOURCES: &[&str] = &[
    "get_count",
    "get_u16",
    "get_u32",
    "get_u64",
    "from_be_bytes",
];
/// Allocation sinks taking an element count.
const L8_SINKS: &[&str] = &["with_capacity", "reserve", "reserve_exact"];
/// Idents inside a sink argument that bound the count.
const L8_CLAMPS: &[&str] = &["min", "remaining", "len"];
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
}

/// Runs every per-file rule on `f` under `scope`, then judges which of
/// its allow comments suppressed nothing.
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
        l6_blocking(f, &mut report, &mut used_allows);
    }
    l2_atomics(f, &mut report);
    l3_codec_pairs(f, &mut report, &mut used_allows);
    if scope.codec_path {
        l4_casts(f, &mut report, &mut used_allows);
        l8_count_bombs(f, &mut report, &mut used_allows);
    }

    unused_allows(f, &used_allows, &mut report);
    report
}

/// L0's staleness check: every allow comment must have suppressed
/// something. Run after every rule has recorded consumption into
/// `used`.
fn unused_allows(f: &SourceFile, used: &BTreeSet<usize>, report: &mut FileReport) {
    for (i, a) in f.allows.iter().enumerate() {
        if !used.contains(&i) {
            report.diags.push(Diag::new(
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

/// L6: a call that can wait unboundedly — a sleep, a join, a socket
/// dial or stream I/O — is declared by a `sync::blocking(..)` call
/// that ends on the line before it or on its own line. That call is
/// the run-time half: it asserts the thread holds no guard and is no
/// reactor worker, so what the lint sees declared is also checked when
/// it runs. A call that cannot actually wait (a non-blocking socket)
/// takes an `allow(blocking)` comment saying why instead.
fn l6_blocking(f: &SourceFile, report: &mut FileReport, used_allows: &mut BTreeSet<usize>) {
    let toks = &f.lexed.tokens;
    let ident = |i: usize| {
        toks.get(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.ident_text(&f.src))
    };
    let qualifier = |i: usize| {
        i.checked_sub(3)
            .filter(|&q| toks[q + 1].is_punct(b':') && toks[q + 2].is_punct(b':'))
            .and_then(ident)
    };
    let calls = |i: usize| toks.get(i + 1).is_some_and(|n| n.is_punct(b'('));
    // The lines on which a `sync::blocking(..)` call ends.
    let declared: BTreeSet<u32> = (0..toks.len())
        .filter(|&i| ident(i) == Some("blocking") && calls(i) && qualifier(i) == Some("sync"))
        .filter_map(|i| {
            let mut depth = 0i64;
            toks.iter().skip(i + 1).find_map(|u| {
                depth += i64::from(u.is_punct(b'(')) - i64::from(u.is_punct(b')'));
                (depth == 0).then_some(u.line)
            })
        })
        .collect();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || f.in_test(t.line) || !calls(i) {
            continue;
        }
        let name = t.ident_text(&f.src);
        let before = i.checked_sub(1).and_then(|j| toks.get(j));
        let method = before.is_some_and(|p| p.is_punct(b'.'));
        let qualifier = qualifier(i);
        let blocking = (method
            && toks.get(i + 2).is_some_and(|n| n.is_punct(b')'))
            && BLOCKING_ZERO_ARG.contains(&name))
            || (BLOCKING_ANY_ARG.contains(&name) && i.checked_sub(1).and_then(ident) != Some("fn"))
            || (name == "connect" && qualifier.is_some_and(|q| SOCKET_TYPES.contains(&q)));
        let is_declared =
            declared.contains(&t.line) || declared.contains(&t.line.saturating_sub(1));
        if blocking && !is_declared && !consume_allow(f, "blocking", t.line, used_allows) {
            let what = match qualifier {
                Some(q) => format!("{q}::{name}"),
                None => format!(".{name}()"),
            };
            report.diags.push(Diag::new(
                "L6",
                "blocking",
                &f.path,
                t.line,
                format!(
                    "`{what}` can block: declare it on the line before with \
                     `wormtrace::sync::blocking(\"<what>\")`, which asserts at run time \
                     that the thread holds no lock and is no reactor worker"
                ),
            ));
        }
    }
}

/// L8: in a codec file, a count read off the wire reaches an
/// allocation only once compared against a limit or clamped. Taint is
/// tracked through `let` bindings within one function.
fn l8_count_bombs(f: &SourceFile, report: &mut FileReport, used_allows: &mut BTreeSet<usize>) {
    let toks = &f.lexed.tokens;
    let src = &f.src;
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    let mut k = 0usize;
    while k < toks.len() {
        let t = &toks[k];
        if t.kind != TokKind::Ident || f.in_test(t.line) {
            k += 1;
            continue;
        }
        let name = t.ident_text(src);
        match name {
            "fn" => {
                // Taint does not cross function boundaries.
                tainted.clear();
            }
            "let" => {
                // `let [mut] v = <rhs>;` — v is tainted iff the rhs
                // reads a wire count.
                let mut j = k + 1;
                if toks
                    .get(j)
                    .is_some_and(|t| t.kind == TokKind::Ident && t.ident_text(src) == "mut")
                {
                    j += 1;
                }
                let Some(vt) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
                    k += 1;
                    continue;
                };
                if !toks.get(j + 1).is_some_and(|t| t.is_punct(b'=')) {
                    k += 1;
                    continue;
                }
                let var = vt.ident_text(src).to_string();
                let mut has_source = false;
                let mut m = j + 2;
                let mut depth = 0i64;
                while m < toks.len() {
                    let u = &toks[m];
                    if u.is_punct(b'(') || u.is_punct(b'[') || u.is_punct(b'{') {
                        depth += 1;
                    } else if u.is_punct(b')') || u.is_punct(b']') || u.is_punct(b'}') {
                        depth -= 1;
                    } else if u.is_punct(b';') && depth <= 0 {
                        break;
                    } else if u.kind == TokKind::Ident {
                        let n = u.ident_text(src);
                        if L8_SOURCES.contains(&n) || tainted.contains(n) {
                            has_source = true;
                        }
                        if L8_CLAMPS.contains(&n) {
                            has_source = false;
                            break;
                        }
                    }
                    m += 1;
                }
                if has_source {
                    tainted.insert(var);
                } else {
                    tainted.remove(&var);
                }
            }
            _ if tainted.contains(name) => {
                // A comparison against the value counts as bounding it
                // (the `if n > MAX { return Err }` idiom).
                let cmp = toks
                    .get(k + 1)
                    .is_some_and(|n| n.is_punct(b'<') || n.is_punct(b'>'))
                    || (k > 0 && (toks[k - 1].is_punct(b'<') || toks[k - 1].is_punct(b'>')));
                if cmp {
                    tainted.remove(name);
                }
            }
            _ if L8_SINKS.contains(&name) && toks.get(k + 1).is_some_and(|n| n.is_punct(b'(')) => {
                if let Some(what) = unbounded_count(f, k + 1, false, &tainted) {
                    count_bomb(f, t.line, &format!("{name}({what})"), report, used_allows);
                }
            }
            "vec" if toks.get(k + 1).is_some_and(|n| n.is_punct(b'!')) => {
                if let Some(what) = unbounded_count(f, k + 2, true, &tainted) {
                    count_bomb(f, t.line, &format!("vec![..; {what}]"), report, used_allows);
                }
            }
            _ => {}
        }
        k += 1;
    }
}

/// The first unbounded wire count inside the bracketed arguments that
/// open at token `open` (for `vec![elem; n]`, `after_semi`: only the
/// length after the `;`), unless a clamp bounds them.
fn unbounded_count(
    f: &SourceFile,
    open: usize,
    after_semi: bool,
    tainted: &BTreeSet<String>,
) -> Option<String> {
    let toks = &f.lexed.tokens;
    let mut depth = 0i64;
    let mut counting = !after_semi;
    let mut bad: Option<String> = None;
    for u in toks.iter().skip(open) {
        if u.is_punct(b'(') || u.is_punct(b'[') || u.is_punct(b'{') {
            depth += 1;
        } else if u.is_punct(b')') || u.is_punct(b']') || u.is_punct(b'}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if u.is_punct(b';') && depth == 1 {
            counting = true;
        } else if counting && u.kind == TokKind::Ident {
            let n = u.ident_text(&f.src);
            if L8_CLAMPS.contains(&n) {
                return None; // `n.min(r.remaining())` and friends
            }
            if bad.is_none() && (tainted.contains(n) || L8_SOURCES.contains(&n)) {
                bad = Some(n.to_string());
            }
        }
    }
    bad
}

fn count_bomb(
    f: &SourceFile,
    line: u32,
    what: &str,
    report: &mut FileReport,
    used_allows: &mut BTreeSet<usize>,
) {
    if !consume_allow(f, "count-bomb", line, used_allows) {
        report.diags.push(Diag::new(
            "L8",
            "count-bomb",
            &f.path,
            line,
            format!(
                "{what} sizes an allocation from an unbounded wire count — \
                 compare against a limit or clamp with `.min(..)` first"
            ),
        ));
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
