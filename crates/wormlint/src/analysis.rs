//! Per-file structural analysis layered over the token stream: test
//! regions, `wormlint: allow(...)` escape hatches, and `// ordering:`
//! justification comments.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Comment, Lexed, TokKind, Token};

/// Marker introducing an escape-hatch comment. Must open the comment
/// (after the `//`/`/*` sigils), so prose that merely *mentions* the
/// grammar is never parsed as an escape hatch.
pub const ALLOW_MARKER: &str = "wormlint: allow";
/// Marker introducing an atomics-ordering justification. Must open the
/// comment, so documentation discussing "ordering:" in passing cannot
/// accidentally justify an adjacent atomic.
pub const ORDERING_MARKER: &str = "ordering:";

/// Strips comment sigils (`//`, `///`, `//!`, `/*`, `/**`) and leading
/// whitespace, yielding the comment's payload text.
fn comment_payload(text: &str) -> &str {
    let t = text.trim_start();
    let t = t
        .strip_prefix("/*")
        .or_else(|| t.strip_prefix("//"))
        .unwrap_or(t);
    t.trim_start_matches(['/', '!', '*']).trim_start()
}

/// Rule names accepted inside `wormlint: allow(...)`.
pub const KNOWN_RULES: &[&str] = &["panic", "index", "cast", "codec", "blocking", "count-bomb"];

/// A parsed, well-formed allow comment.
#[derive(Clone, Debug)]
pub struct Allow {
    pub rules: Vec<String>,
    pub reason: String,
    /// Line the comment sits on.
    pub comment_line: u32,
    /// Line of code the allow covers (same line for trailing comments,
    /// the next code line for comment-only lines).
    pub target_line: u32,
}

/// A malformed allow comment (bad grammar, unknown rule, or missing
/// justification).
#[derive(Clone, Debug)]
pub struct BadAllow {
    pub line: u32,
    pub problem: String,
}

/// One fully analyzed source file, ready for rules.
pub struct SourceFile {
    /// Path as reported in diagnostics (workspace-relative).
    pub path: String,
    pub src: String,
    pub lexed: Lexed,
    /// `test_lines[line]` (1-based; index 0 unused) — line is inside a
    /// `#[cfg(test)]` / `#[test]` region.
    test_lines: Vec<bool>,
    /// Lines fully covered by comments/whitespace (no code tokens) but
    /// carrying comment text.
    comment_only_lines: Vec<bool>,
    /// Lines opening an `// ordering:` justification comment, mapped to
    /// the justification text.
    ordering_notes: BTreeMap<u32, String>,
    pub allows: Vec<Allow>,
    pub bad_allows: Vec<BadAllow>,
}

impl SourceFile {
    pub fn parse(path: &str, src: String) -> SourceFile {
        let lexed = lex(&src);
        let nlines = src.lines().count().max(1) + 1;
        let mut code_lines = vec![false; nlines + 1];
        for t in &lexed.tokens {
            if let Some(slot) = code_lines.get_mut(t.line as usize) {
                *slot = true;
            }
        }
        let mut ordering_notes: BTreeMap<u32, String> = BTreeMap::new();
        let mut comment_only_lines = vec![false; nlines + 1];
        for c in &lexed.comments {
            // A block comment counts on every line it touches, so
            // adjacency checks see it wherever it appears.
            for line in c.line..=c.end_line {
                let l = line as usize;
                if l < comment_only_lines.len() && !code_lines[l] {
                    comment_only_lines[l] = true;
                }
            }
            let text = c.text(&src);
            if let Some(rest) = comment_payload(text).strip_prefix(ORDERING_MARKER) {
                let note = rest.trim().trim_end_matches("*/").trim();
                if !note.is_empty() {
                    ordering_notes.insert(c.line, note.to_string());
                }
            }
        }
        let test_lines = find_test_regions(&src, &lexed.tokens, nlines);
        let (allows, bad_allows) = parse_allows(&lexed.comments, &src, &code_lines, nlines as u32);
        SourceFile {
            path: path.to_string(),
            src,
            lexed,
            test_lines,
            comment_only_lines,
            ordering_notes,
            allows,
            bad_allows,
        }
    }

    /// Whether `line` falls inside test-only code.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_lines.get(line as usize).copied().unwrap_or(false)
    }

    /// Whether an allow comment for `rule` covers `line`. Does not
    /// consume the allow; rules record usage via [`SourceFile::allow_for`].
    pub fn allow_for(&self, rule: &str, line: u32) -> Option<usize> {
        self.allows
            .iter()
            .position(|a| a.target_line == line && a.rules.iter().any(|r| r == rule))
    }

    /// Finds an adjacent `// ordering:` justification for a use at
    /// `line`: on the same line, or in the contiguous run of
    /// comment-only lines immediately above.
    pub fn ordering_justification(&self, line: u32) -> Option<String> {
        self.adjacent_note(&self.ordering_notes, line)
    }

    fn adjacent_note(&self, notes: &BTreeMap<u32, String>, line: u32) -> Option<String> {
        if let Some(j) = notes.get(&line) {
            return Some(j.clone());
        }
        let mut l = line.saturating_sub(1);
        while l >= 1
            && self
                .comment_only_lines
                .get(l as usize)
                .copied()
                .unwrap_or(false)
        {
            if let Some(j) = notes.get(&l) {
                return Some(j.clone());
            }
            l -= 1;
        }
        None
    }

    /// The trimmed source text of `line` (1-based).
    pub fn line_text(&self, line: u32) -> &str {
        self.src
            .lines()
            .nth(line as usize - 1)
            .map(str::trim)
            .unwrap_or("")
    }

    /// Name of the innermost `fn` enclosing the token at `tok_idx`,
    /// or the innermost `impl`/`mod` context when not inside a fn body.
    pub fn enclosing_fn(&self, tok_idx: usize) -> Option<String> {
        let toks = &self.lexed.tokens;
        // Walk backwards tracking brace balance: a candidate `fn name`
        // encloses us if its body's `{` is still open at our position.
        let mut depth: i64 = 0;
        let mut i = tok_idx;
        while i > 0 {
            i -= 1;
            match toks[i].kind {
                TokKind::Punct(b'}') => depth += 1,
                TokKind::Punct(b'{') => {
                    if depth == 0 {
                        // This open brace encloses us. Find the `fn`
                        // introducing it, if any, else keep climbing.
                        if let Some(name) = fn_name_before_brace(toks, i, &self.src) {
                            return Some(name);
                        }
                    } else {
                        depth -= 1;
                    }
                }
                _ => {}
            }
        }
        None
    }
}

/// Scans backwards from an opening brace for the `fn name` that
/// introduced the block, stopping at the previous `;`/`{`/`}`.
fn fn_name_before_brace(toks: &[Token], brace_idx: usize, src: &str) -> Option<String> {
    let mut i = brace_idx;
    while i > 0 {
        i -= 1;
        match toks[i].kind {
            TokKind::Punct(b';') | TokKind::Punct(b'{') | TokKind::Punct(b'}') => return None,
            TokKind::Ident if toks[i].ident_text(src) == "fn" => {
                return toks
                    .get(i + 1)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.ident_text(src).to_string());
            }
            _ => {}
        }
    }
    None
}

/// Marks every line covered by a `#[cfg(test)]` or `#[test]` item.
fn find_test_regions(src: &str, toks: &[Token], nlines: usize) -> Vec<bool> {
    let mut marked = vec![false; nlines + 1];
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct(b'#') {
            i += 1;
            continue;
        }
        // Inner attribute `#![...]`: skip wholesale, gates nothing.
        if toks.get(i + 1).is_some_and(|t| t.is_punct(b'!')) {
            i = skip_balanced(toks, i + 2).unwrap_or(i + 2);
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.is_punct(b'[')) {
            i += 1;
            continue;
        }
        let attr_start_line = toks[i].line;
        let Some(after_attr) = skip_balanced(toks, i + 1) else {
            break;
        };
        let attr_toks = &toks[i + 2..after_attr - 1];
        if !attr_is_test(attr_toks, src) {
            i = after_attr;
            continue;
        }
        // Skip any further outer attributes on the same item.
        let mut j = after_attr;
        while toks.get(j).is_some_and(|t| t.is_punct(b'#'))
            && toks.get(j + 1).is_some_and(|t| t.is_punct(b'['))
        {
            match skip_balanced(toks, j + 1) {
                Some(nj) => j = nj,
                None => break,
            }
        }
        // Find the item's extent: the matching `}` of its first
        // top-level `{`, or a `;` before any body (e.g. `use`).
        let mut depth: i64 = 0;
        let mut end_line = toks.get(j).map_or(attr_start_line, |t| t.line);
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
                TokKind::Punct(b'{') if depth == 0 => {
                    if let Some(close) = matching_brace(toks, j) {
                        end_line = toks[close].line;
                        j = close;
                    } else {
                        end_line = toks.last().map_or(end_line, |t| t.line);
                        j = toks.len();
                    }
                    break;
                }
                TokKind::Punct(b'{') => depth += 1,
                TokKind::Punct(b'}') => depth -= 1,
                TokKind::Punct(b';') if depth == 0 => {
                    end_line = toks[j].line;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        for line in attr_start_line..=end_line {
            if let Some(slot) = marked.get_mut(line as usize) {
                *slot = true;
            }
        }
        i = j + 1;
    }
    marked
}

/// `#[test]` or `#[cfg(test)]` exactly — `cfg(not(test))`,
/// `cfg_attr(test, ..)` and friends do not gate a test region.
fn attr_is_test(attr_toks: &[Token], src: &str) -> bool {
    let idents: Vec<&str> = attr_toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.ident_text(src))
        .collect();
    idents == ["test"] || idents == ["cfg", "test"]
}

/// Given `open` pointing at `[`/`(`/`{`, returns the index just past
/// the matching close bracket.
fn skip_balanced(toks: &[Token], open: usize) -> Option<usize> {
    let (o, c) = match toks.get(open)?.kind {
        TokKind::Punct(b'[') => (b'[', b']'),
        TokKind::Punct(b'(') => (b'(', b')'),
        TokKind::Punct(b'{') => (b'{', b'}'),
        _ => return None,
    };
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(k + 1);
            }
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(b'{') {
            depth += 1;
        } else if t.is_punct(b'}') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Parses every `wormlint: allow(rule, ...) -- reason` comment.
fn parse_allows(
    comments: &[Comment],
    src: &str,
    code_lines: &[bool],
    nlines: u32,
) -> (Vec<Allow>, Vec<BadAllow>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    let mut seen_targets: BTreeSet<(String, u32)> = BTreeSet::new();
    for c in comments {
        let Some(rest) = comment_payload(c.text(src)).strip_prefix(ALLOW_MARKER) else {
            continue;
        };
        let rest = rest.trim_start();
        let parsed = (|| -> Result<(Vec<String>, String), String> {
            let rest = rest
                .strip_prefix('(')
                .ok_or_else(|| "expected `(` after `wormlint: allow`".to_string())?;
            let close = rest
                .find(')')
                .ok_or_else(|| "unclosed rule list in allow comment".to_string())?;
            let rules: Vec<String> = rest[..close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            if rules.is_empty() {
                return Err("empty rule list in allow comment".to_string());
            }
            for r in &rules {
                if !KNOWN_RULES.contains(&r.as_str()) {
                    return Err(format!(
                        "unknown rule `{r}` in allow comment (known: {})",
                        KNOWN_RULES.join(", ")
                    ));
                }
            }
            let tail = rest[close + 1..].trim_start();
            let reason = tail
                .strip_prefix("--")
                .ok_or_else(|| "allow comment requires a justification: `-- <reason>`".to_string())?
                .trim()
                .trim_end_matches("*/")
                .trim();
            if reason.is_empty() {
                return Err("allow comment has an empty justification".to_string());
            }
            Ok((rules, reason.to_string()))
        })();
        match parsed {
            Err(problem) => bad.push(BadAllow {
                line: c.line,
                problem,
            }),
            Ok((rules, reason)) => {
                // Trailing comment covers its own line; a comment-only
                // line covers the next line that carries code.
                let target_line = if code_lines.get(c.line as usize).copied().unwrap_or(false) {
                    c.line
                } else {
                    let mut l = c.end_line + 1;
                    while l <= nlines && !code_lines.get(l as usize).copied().unwrap_or(false) {
                        l += 1;
                    }
                    l
                };
                for r in &rules {
                    if !seen_targets.insert((r.clone(), target_line)) {
                        bad.push(BadAllow {
                            line: c.line,
                            problem: format!("duplicate allow({r}) covering line {target_line}"),
                        });
                    }
                }
                allows.push(Allow {
                    rules,
                    reason,
                    comment_line: c.line,
                    target_line,
                });
            }
        }
    }
    (allows, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(src: &str) -> SourceFile {
        SourceFile::parse("mem.rs", src.to_string())
    }

    #[test]
    fn cfg_test_mod_is_a_test_region() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\nfn live2() {}\n";
        let f = sf(src);
        assert!(!f.in_test(1));
        assert!(f.in_test(2));
        assert!(f.in_test(4));
        assert!(f.in_test(5));
        assert!(!f.in_test(6));
    }

    #[test]
    fn test_attr_fn_is_a_test_region() {
        let src = "#[test]\nfn t() {\n  body();\n}\nfn live() {}\n";
        let f = sf(src);
        assert!(f.in_test(1) && f.in_test(3) && f.in_test(4));
        assert!(!f.in_test(5));
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let src = "#[cfg(not(test))]\nfn live() {\n  body();\n}\n";
        let f = sf(src);
        assert!(!f.in_test(3));
    }

    #[test]
    fn allow_comment_parses_and_targets() {
        let src = "let a = 1; // wormlint: allow(panic) -- lock cannot be poisoned\n\
                   // wormlint: allow(cast, index) -- bounded by header check\n\
                   let b = 2;\n";
        let f = sf(src);
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].target_line, 1);
        assert_eq!(f.allows[1].target_line, 3);
        assert_eq!(f.allows[1].rules, vec!["cast", "index"]);
        assert!(f.bad_allows.is_empty());
        assert!(f.allow_for("panic", 1).is_some());
        assert!(f.allow_for("index", 3).is_some());
        assert!(f.allow_for("index", 1).is_none());
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let f =
            sf("let a = 1; // wormlint: allow(panic)\nlet b = 2; // wormlint: allow(bogus) -- x\n");
        assert_eq!(f.bad_allows.len(), 2);
        assert!(f.allows.is_empty());
    }

    #[test]
    fn ordering_justification_adjacency() {
        let src = "x.store(1, Ordering::Release); // ordering: publishes init\n\
                   // ordering: pairs with the Acquire in reader()\n\
                   y.store(2, Ordering::Release);\n\
                   z.store(3, Ordering::Relaxed);\n";
        let f = sf(src);
        assert!(f.ordering_justification(1).is_some());
        assert_eq!(
            f.ordering_justification(3).as_deref(),
            Some("pairs with the Acquire in reader()")
        );
        assert!(f.ordering_justification(4).is_none());
    }

    #[test]
    fn enclosing_fn_resolves() {
        let src = "impl T {\n  fn alpha(&self) {\n    let x = 1;\n  }\n}\nfn beta() { body(); }\n";
        let f = sf(src);
        let idx = f
            .lexed
            .tokens
            .iter()
            .position(|t| t.ident_text(&f.src) == "x")
            .unwrap();
        assert_eq!(f.enclosing_fn(idx).as_deref(), Some("alpha"));
        let idx2 = f
            .lexed
            .tokens
            .iter()
            .position(|t| t.ident_text(&f.src) == "body")
            .unwrap();
        assert_eq!(f.enclosing_fn(idx2).as_deref(), Some("beta"));
    }
}
