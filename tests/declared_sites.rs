//! Two kinds of site must say why they are safe, in the line that has
//! them, and this test reads the source to check that they do:
//!
//! * every atomic `Ordering::…` outside a `use` line carries
//!   `// ordering: <why that ordering suffices>` on its line or in the
//!   comment block directly above it;
//! * every call in a serving crate that can wait unboundedly — a sleep, a
//!   join, a channel receive, a socket dial, stream I/O — is declared by
//!   `wormtrace::sync::blocking(..)` on its line or the line before. That
//!   call is the run-time half: in debug builds it panics when the thread
//!   holds a ranked lock or is a reactor worker. A call that matches but
//!   cannot wait (an `accept` on a non-blocking listener) takes a
//!   `// not blocking: <why>` comment instead.
//!
//! Only code counts: a file ends at its trailing `#[cfg(test)] mod`, the
//! rule `scripts/code_lines.sh` counts by, and `//` comments are not
//! code.

use std::path::{Path, PathBuf};

/// The crates on the serving path, from socket to SCPU, and the crypto
/// it verifies with.
const SERVING_CRATES: &[&str] = &[
    "scpu",
    "strongworm",
    "wormaudit",
    "wormcrypt",
    "wormnet",
    "wormstore",
    "wormtrace",
];

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Methods that block when called with no argument (with arguments,
/// `join` and friends are ordinary data methods).
const BLOCKING_METHODS: &[&str] = &["join", "recv", "park", "accept"];

/// Calls that block at any arity. Positional file I/O is absent: bounded
/// device I/O is the storage layer's cost, not an unbounded wait.
const BLOCKING_CALLS: &[&str] = &[
    "sleep",
    "wait",
    "wait_timeout",
    "recv_timeout",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
];

const SOCKET_TYPES: &[&str] = &["TcpStream", "TcpListener", "UnixStream", "UnixListener"];

/// One source file's code: its lines up to the trailing test module.
struct Source {
    path: String,
    lines: Vec<String>,
}

impl Source {
    fn new(path: String, text: &str) -> Source {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let cut = lines
            .windows(2)
            .rposition(|w| w[0] == "#[cfg(test)]" && w[1].starts_with("mod "));
        if let Some(cut) = cut {
            lines.truncate(cut);
        }
        Source { path, lines }
    }

    /// Line `i` without its `//` comment.
    fn code(&self, i: usize) -> &str {
        let line = self.lines[i].as_str();
        line.find("//").map_or(line, |c| &line[..c])
    }

    /// Whether a `// <marker>` comment sits on line `i` or opens a line
    /// of the comment block directly above it.
    fn justified(&self, i: usize, marker: &str) -> bool {
        let opens = |line: &str| {
            line.find("//").is_some_and(|c| {
                line[c..]
                    .trim_start_matches('/')
                    .trim_start()
                    .starts_with(marker)
            })
        };
        if opens(&self.lines[i]) {
            return true;
        }
        self.lines[..i]
            .iter()
            .rev()
            .map(|l| l.trim_start())
            .take_while(|l| l.starts_with("//"))
            .any(opens)
    }

    /// The lines that use an atomic ordering with no `// ordering:`
    /// comment, and how many ordering sites there are.
    fn unjustified_orderings(&self) -> (Vec<String>, usize) {
        let mut bad = Vec::new();
        let mut sites = 0;
        for i in 0..self.lines.len() {
            let code = self.code(i);
            let trimmed = code.trim_start();
            if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
                continue;
            }
            let n = ORDERINGS
                .iter()
                .map(|o| code.matches(&format!("Ordering::{o}")).count())
                .sum::<usize>();
            if n == 0 {
                continue;
            }
            sites += n;
            if !self.justified(i, "ordering:") {
                bad.push(format!("{}:{}: {}", self.path, i + 1, self.lines[i].trim()));
            }
        }
        (bad, sites)
    }

    /// The blocking calls with no declaration, and how many blocking
    /// calls there are.
    fn undeclared_blocking(&self) -> (Vec<String>, usize) {
        let mut bad = Vec::new();
        let mut sites = 0;
        for i in 0..self.lines.len() {
            let Some(what) = blocking_call(self.code(i)) else {
                continue;
            };
            sites += 1;
            let declared = (i.saturating_sub(1)..=i)
                .any(|j| self.code(j).contains("sync::blocking("))
                || self.justified(i, "not blocking:");
            if !declared {
                bad.push(format!("{}:{}: `{what}` can block", self.path, i + 1));
            }
        }
        (bad, sites)
    }
}

/// The first call in `code` that can wait unboundedly, if any.
fn blocking_call(code: &str) -> Option<String> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    for (at, _) in code.match_indices('(') {
        let before = &code[..at];
        let name_at = before.trim_end_matches(ident).len();
        let name = &before[name_at..];
        let prefix = &before[..name_at];
        if name.is_empty() || prefix.trim_end().ends_with("fn") {
            continue;
        }
        let method = prefix.ends_with('.');
        if method && BLOCKING_METHODS.contains(&name) && code[at..].starts_with("()") {
            return Some(format!(".{name}()"));
        }
        if BLOCKING_CALLS.contains(&name) {
            return Some(format!("{name}(..)"));
        }
        if name == "connect" {
            let qualifier = prefix.strip_suffix("::").unwrap_or("");
            let ty = &qualifier[qualifier.trim_end_matches(ident).len()..];
            if SOCKET_TYPES.contains(&ty) {
                return Some(format!("{ty}::connect(..)"));
            }
        }
    }
    None
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Every crate's `src` files, with whether the crate is a serving one.
fn workspace_sources() -> Vec<(Source, bool)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("directory entry").path())
        .collect();
    crates.sort();
    let mut out = Vec::new();
    for krate in crates {
        let name = krate.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let serving = SERVING_CRATES.contains(&name);
        let mut files = Vec::new();
        rs_files(&krate.join("src"), &mut files);
        for f in files {
            let text = std::fs::read_to_string(&f).expect("readable source");
            let rel = f.strip_prefix(root).unwrap_or(&f).display().to_string();
            out.push((Source::new(rel, &text), serving));
        }
    }
    out
}

#[test]
fn every_atomic_ordering_is_justified() {
    let mut bad = Vec::new();
    let mut sites = 0;
    for (src, _) in workspace_sources() {
        let (b, n) = src.unjustified_orderings();
        bad.extend(b);
        sites += n;
    }
    assert!(sites > 0, "the scan found no atomic ordering at all");
    assert!(
        bad.is_empty(),
        "{} of {sites} atomic ordering sites lack a `// ordering:` comment on the line \
         or in the comment block above:\n{}",
        bad.len(),
        bad.join("\n")
    );
}

#[test]
fn every_blocking_call_in_the_serving_crates_is_declared() {
    let mut bad = Vec::new();
    let mut sites = 0;
    for (src, serving) in workspace_sources() {
        if serving {
            let (b, n) = src.undeclared_blocking();
            bad.extend(b);
            sites += n;
        }
    }
    assert!(sites > 0, "the scan found no blocking call at all");
    assert!(
        bad.is_empty(),
        "{} of {sites} blocking calls are undeclared: put \
         `wormtrace::sync::blocking(\"<what>\")` on the line before each, or a \
         `// not blocking: <why>` comment above one that cannot wait:\n{}",
        bad.len(),
        bad.join("\n")
    );
}

#[test]
fn code_ends_at_the_trailing_test_module() {
    let src = Source::new(
        "mem.rs".into(),
        "fn live() {}\n#[cfg(test)]\nfn helper() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n",
    );
    assert_eq!(src.lines.len(), 3, "{:?}", src.lines);
}

#[test]
fn an_ordering_needs_its_comment_on_the_line_or_in_the_block_above() {
    let src = Source::new(
        "mem.rs".into(),
        "use std::sync::atomic::Ordering::Relaxed;\n\
         x.store(1, Ordering::Release); // ordering: publishes init\n\
         // ordering: pairs with the Acquire in reader(),\n\
         // which must see the whole value.\n\
         y.store(2, Ordering::Release);\n\
         // A comment about ordering without the marker.\n\
         z.store(3, Ordering::Relaxed);\n\
         w.load(Ordering::SeqCst)\n",
    );
    let (bad, sites) = src.unjustified_orderings();
    assert_eq!(sites, 4);
    assert_eq!(bad.len(), 2, "{bad:?}");
    assert!(bad[0].starts_with("mem.rs:7:") && bad[1].starts_with("mem.rs:8:"));
}

#[test]
fn a_blocking_call_needs_its_declaration_on_the_line_before() {
    let src = Source::new(
        "mem.rs".into(),
        "wormtrace::sync::blocking(\"a pause\");\n\
         std::thread::sleep(d);\n\
         let conn = TcpStream::connect(addr)?;\n\
         h.join().ok();\n\
         // not blocking: the listener is non-blocking\n\
         match listener.accept() {\n\
         fn recv(&mut self) {}\n\
         names.join(\", \");\n\
         stream.write_all(&buf)?; // a comment: sleep(1)\n",
    );
    let (bad, sites) = src.undeclared_blocking();
    assert_eq!(sites, 5);
    let lines: Vec<&str> = bad
        .iter()
        .map(|b| b.split(": ").next().unwrap_or(""))
        .collect();
    assert_eq!(lines, ["mem.rs:3", "mem.rs:4", "mem.rs:9"]);
}
