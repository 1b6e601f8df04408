//! wormlint — WORM-invariant static analysis for this workspace.
//!
//! The Strong WORM guarantees (monotonic serial numbers, signed window
//! bounds, canonical signatures over `(SN, attr)` / `(SN, Hash(data))`)
//! only hold if the host-side Rust never silently diverges from them.
//! This crate machine-checks the trusted-computing-base hygiene that
//! the paper's proofs quietly assume:
//!
//! * **L1** — the serving crates are panic-free outside tests; every
//!   deliberate panic carries a written justification.
//! * **L2** — every atomic memory-`Ordering` choice is justified in a
//!   comment and inventoried into `results/ATOMICS_AUDIT.json`.
//! * **L3** — canonical codecs come in `encode_*`/`decode_*` pairs,
//!   each exercised by roundtrip/fuzz tests; wire opcodes are unique,
//!   decoded, and documented in `docs/PROTOCOL.md`.
//! * **L4** — codec/frame paths never use bare `as` numeric casts.
//! * **L6** — every blocking call in serving code is declared by a
//!   `wormtrace::sync::blocking` call just before it, which asserts at
//!   run time that its thread may block.
//! * **L8** — wire-read counts are bounded before they size an
//!   allocation.
//!
//! Lock order is not checked here: every serving lock is a ranked
//! `wormtrace::sync` lock, which checks its own order where it is
//! taken.
//!
//! See `docs/LINTS.md` for the rule catalogue and the escape-hatch
//! grammar (`// wormlint: allow(<rule>) -- <reason>`).

pub mod analysis;
pub mod lexer;
pub mod rules;
pub mod selftest;

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

use analysis::SourceFile;
use rules::{CodecContext, Scope};

/// Crates whose non-test code must be panic-free (L1): everything on
/// the serving path from socket to SCPU, and the crypto it verifies
/// and encodes with.
pub const SERVING_CRATES: &[&str] = &[
    "strongworm",
    "wormnet",
    "wormstore",
    "wormtrace",
    "wormaudit",
    "scpu",
    "wormcrypt",
];

/// File names treated as canonical codec / wire-facing modules, where
/// the `index` sub-rule and L4's cast ban additionally apply.
pub const CODEC_FILES: &[&str] = &["codec.rs", "wire.rs", "frame.rs", "protocol.rs", "attr.rs"];

/// One diagnostic with a file:line span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diag {
    /// Lint family: `L0` (escape-hatch hygiene) through `L8`.
    pub lint: &'static str,
    /// Machine-readable rule name (`panic`, `index`, `ordering`,
    /// `codec-pair`, `codec-test`, `opcode`, `cast`, `allow-syntax`,
    /// `allow-unused`, `blocking`, `count-bomb`).
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl Diag {
    pub fn new(
        lint: &'static str,
        rule: &'static str,
        file: &str,
        line: u32,
        message: String,
    ) -> Diag {
        Diag {
            lint,
            rule,
            file: file.to_string(),
            line,
            message,
        }
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {}",
            self.file, self.line, self.lint, self.rule, self.message
        )
    }
}

/// One inventoried atomic-ordering site (justified or not).
#[derive(Clone, Debug)]
pub struct AtomicSite {
    pub file: String,
    pub line: u32,
    /// `Relaxed` / `Acquire` / `Release` / `AcqRel` / `SeqCst`.
    pub ordering: String,
    /// Innermost enclosing function, when resolvable.
    pub container: Option<String>,
    /// Text of the adjacent `// ordering:` comment, if present.
    pub justification: Option<String>,
}

/// Full workspace analysis result.
#[derive(Debug, Default)]
pub struct Report {
    pub diags: Vec<Diag>,
    pub atomic_sites: Vec<AtomicSite>,
    /// Source files linted.
    pub files_linted: usize,
}

impl Report {
    pub fn clean(&self) -> bool {
        self.diags.is_empty()
    }
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Recursively collects `.rs` files under `dir`, sorted for
/// deterministic output.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            // `target/` never holds first-party sources; fixtures are
            // deliberately-broken corpus files, not workspace code.
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == "fixtures" {
                continue;
            }
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Relative display path for diagnostics.
fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Determines the rule scope for a source file from its path.
pub fn scope_for(rel_path: &str) -> Scope {
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    let serving = SERVING_CRATES.contains(&crate_name);
    let file_name = rel_path.rsplit('/').next().unwrap_or("");
    Scope {
        serving,
        codec_path: serving && CODEC_FILES.contains(&file_name),
    }
}

/// Runs the full analysis over the workspace at `root`.
pub fn run_workspace(root: &Path) -> Report {
    let mut report = Report::default();

    // Lint targets: every crate's src tree. Corpus for L3 coverage:
    // those same files (their #[cfg(test)] regions) plus every tests/,
    // benches/ and examples/ tree in the workspace.
    let mut lint_files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for d in dirs {
            collect_rs(&d.join("src"), &mut lint_files);
        }
    }

    let mut corpus_files: Vec<PathBuf> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for d in dirs {
            collect_rs(&d.join("tests"), &mut corpus_files);
            collect_rs(&d.join("benches"), &mut corpus_files);
        }
    }
    collect_rs(&root.join("tests"), &mut corpus_files);
    collect_rs(&root.join("examples"), &mut corpus_files);
    collect_rs(&root.join("src"), &mut corpus_files);

    // Identifiers visible from test code: whole tests/benches files
    // plus #[cfg(test)] regions of lint targets.
    let mut test_idents: BTreeSet<String> = BTreeSet::new();
    for p in &corpus_files {
        if let Ok(src) = std::fs::read_to_string(p) {
            let lexed = lexer::lex(&src);
            for t in &lexed.tokens {
                if t.kind == lexer::TokKind::Ident {
                    test_idents.insert(t.ident_text(&src).to_string());
                }
            }
        }
    }

    let protocol_doc = std::fs::read_to_string(root.join("docs/PROTOCOL.md")).ok();

    // Parse in parallel: files are independent, and lexing dominates
    // wall-clock on a cold run. Workers take disjoint chunks of a
    // preallocated slot vector, so results stay in deterministic file
    // order with no locking.
    type Slot = Option<Result<(SourceFile, Scope), (String, String)>>;
    let mut slots: Vec<Slot> = Vec::new();
    slots.resize_with(lint_files.len(), || None);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let chunk = lint_files.len().div_ceil(workers.max(1)).max(1);
    std::thread::scope(|s| {
        for (ci, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
            let files = &lint_files[ci * chunk..ci * chunk + slot_chunk.len()];
            s.spawn(move || {
                for (slot, p) in slot_chunk.iter_mut().zip(files) {
                    let rp = rel(root, p);
                    *slot = Some(match std::fs::read_to_string(p) {
                        Ok(src) => {
                            let scope = scope_for(&rp);
                            Ok((SourceFile::parse(&rp, src), scope))
                        }
                        Err(e) => Err((rp, format!("unreadable source file: {e}"))),
                    });
                }
            });
        }
    });
    let mut parsed: Vec<(SourceFile, Scope)> = Vec::new();
    for slot in slots {
        match slot.expect("every parse slot is filled by its worker") {
            Ok(pair) => parsed.push(pair),
            Err((rp, err)) => report.diags.push(Diag::new("L0", "io", &rp, 0, err)),
        }
    }

    // Harvest test-region identifiers from lint targets too (in-file
    // #[cfg(test)] mod tests reference codecs directly).
    for (f, _) in &parsed {
        for t in &f.lexed.tokens {
            if t.kind == lexer::TokKind::Ident && f.in_test(t.line) {
                test_idents.insert(t.ident_text(&f.src).to_string());
            }
        }
    }

    let ctx = CodecContext {
        test_idents: &test_idents,
        protocol_doc: protocol_doc.as_deref(),
    };

    for (f, scope) in &parsed {
        let file_report = rules::lint_file(f, *scope);
        rules::l3_test_coverage(&f.path, &file_report.encode_fns, &ctx, &mut report.diags);
        if f.path.ends_with("wormnet/src/protocol.rs") {
            rules::l3_opcodes(f, &ctx, &mut report.diags);
        }
        report.files_linted += 1;
        report.diags.extend(file_report.diags);
        report.atomic_sites.extend(file_report.atomic_sites);
    }

    report
        .diags
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .atomic_sites
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// Minimal JSON string escaping (the only JSON writer this offline
/// workspace needs).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// What kind of justification would have silenced a diagnostic —
/// CI annotations link the fix from this. A pure function of the rule
/// name so the mapping is schema-stable.
pub fn justification_status(rule: &str) -> &'static str {
    match rule {
        // The escape hatch itself is broken.
        "allow-syntax" => "malformed",
        // The escape hatch no longer suppresses anything.
        "allow-unused" => "stale",
        // Silenced by an adjacent `// ordering:`.
        "ordering" => "missing-comment",
        // Silenced by a `wormlint: allow(<rule>)` with a reason.
        "panic" | "index" | "cast" | "codec" | "blocking" | "count-bomb" => "missing-allow",
        // Structural findings with no per-site escape hatch.
        _ => "n/a",
    }
}

/// Renders diagnostics as the documented `wormlint.diag.v2` JSON
/// document (see docs/LINTS.md).
pub fn diags_to_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"version\": \"wormlint.diag.v2\",\n");
    out.push_str(&format!("  \"clean\": {},\n", report.clean()));
    out.push_str(&format!("  \"files_linted\": {},\n", report.files_linted));
    out.push_str("  \"diagnostics\": [\n");
    for (i, d) in report.diags.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"lint\": \"{}\", \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"justification\": \"{}\", \"message\": \"{}\"}}{}\n",
            d.lint,
            d.rule,
            json_escape(&d.file),
            d.line,
            justification_status(d.rule),
            json_escape(&d.message),
            if i + 1 == report.diags.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the atomics inventory as the documented
/// `wormlint.atomics.v1` JSON document (see docs/LINTS.md).
pub fn atomics_to_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"version\": \"wormlint.atomics.v1\",\n");
    out.push_str(&format!(
        "  \"total_sites\": {},\n",
        report.atomic_sites.len()
    ));
    let justified = report
        .atomic_sites
        .iter()
        .filter(|s| s.justification.is_some())
        .count();
    out.push_str(&format!("  \"justified_sites\": {},\n", justified));
    out.push_str("  \"sites\": [\n");
    for (i, s) in report.atomic_sites.iter().enumerate() {
        let container = match &s.container {
            Some(c) => format!("\"{}\"", json_escape(c)),
            None => "null".to_string(),
        };
        let justification = match &s.justification {
            Some(j) => format!("\"{}\"", json_escape(j)),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"ordering\": \"{}\", \"container\": {}, \"justification\": {}}}{}\n",
            json_escape(&s.file),
            s.line,
            json_escape(&s.ordering),
            container,
            justification,
            if i + 1 == report.atomic_sites.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
