//! The interprocedural substrate for L5-L7: function-item extraction,
//! per-function fact collection (lock acquisitions, blocking
//! operations, panic sites), name-based call resolution, and held-lock
//! propagation through the call graph.
//!
//! Everything here is token-level — no type inference, no trait
//! solving. Precision comes from a handful of cheap structural facts:
//!
//! * a **struct table** mapping `Type.field` to the field's base type,
//!   noting `Mutex<_>` / `RwLock<_>` fields and their inner types;
//! * an **impl/trait stack** so every method knows its self type, and
//!   trait impls index their methods under the trait name too;
//! * **guard-local typing**: `let g = self.witness.lock()` makes later
//!   `g.method()` calls resolve against the lock's inner type;
//! * **lock helpers**: a fn that acquires on its own first parameter
//!   (the `sync::lock(&self.inner)` poison-tolerance pattern) has the
//!   acquisition attributed at each call site instead, resolved
//!   through the caller's field table.
//!
//! Resolution is deliberately asymmetric: held-set propagation (L5)
//! walks only *precise* edges (typed receiver, same-impl self call,
//! in-crate free fn), under-approximating rather than inventing
//! phantom nesting; reachability (L6/L7) additionally walks name-only
//! fan-out edges, over-approximating in the direction that cannot
//! miss a blocking or panicking callee.

use std::collections::{BTreeMap, BTreeSet};

use crate::analysis::SourceFile;
use crate::lexer::TokKind;

/// Crates included in the interprocedural graph: the serving crates
/// plus the crypto core they call into. Benches, TUIs and the linter
/// itself stay out — their identifiers would otherwise collide with
/// serving-path method names during name-based fan-out. `fixture` is
/// the synthetic crate name the self-test corpus runs under.
pub const GRAPH_CRATES: &[&str] = &[
    "strongworm",
    "wormnet",
    "wormstore",
    "wormtrace",
    "wormaudit",
    "scpu",
    "wormcrypt",
    "fixture",
];

/// Offline-harness files excluded from the graph universe: they drive
/// the serving stack from the outside (power-fail torture), are never
/// on a serving path, and their generically-named methods (`verify`,
/// `write`) otherwise pollute name-based fan-out.
pub const GRAPH_EXCLUDE_FILES: &[&str] = &["powerfail.rs"];

/// Functions treated as reactor entry points by L6's
/// nothing-blocking-reachable rule.
pub const REACTOR_ENTRIES: &[&str] = &["worker_loop"];

/// Method names whose zero-argument call acquires a guard.
fn lock_kind_for_method(name: &str) -> Option<LockKind> {
    match name {
        "lock" => Some(LockKind::Mutex),
        "read" => Some(LockKind::Read),
        "write" => Some(LockKind::Write),
        _ => None,
    }
}

/// Blocking methods recognized with zero arguments only (with
/// arguments, `join`/`recv` etc. are ordinary data methods).
const BLOCKING_ZERO_ARG: &[&str] = &["join", "recv", "park", "accept"];
/// Blocking calls recognized regardless of arity. Positional file I/O
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

/// Std types that cannot carry workspace inherent methods: a method
/// call on a receiver resolved to one of these is an external call,
/// not a fan-out candidate (`self.stream.write(..)` must not resolve
/// to every workspace `write`). Workspace *trait* impls on these types
/// still register under the type name and are found first.
const EXTERNAL_TYPES: &[&str] = &[
    "TcpStream",
    "TcpListener",
    "UnixStream",
    "UnixListener",
    "File",
    "HashMap",
    "BTreeMap",
    "HashSet",
    "BTreeSet",
    "Vec",
    "VecDeque",
    "String",
    "str",
    "Path",
    "PathBuf",
    "OsStr",
    "OsString",
    "Instant",
    "Duration",
    "SystemTime",
    "Sender",
    "Receiver",
    "SyncSender",
    "JoinHandle",
    "Formatter",
    "Cursor",
    "Stdin",
    "Stdout",
    "Stderr",
    "Option",
    "Result",
    "AtomicBool",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "u8",
    "u16",
    "u32",
    "u64",
    "usize",
    "i64",
    "bool",
];

/// Keywords that look like calls when followed by `(`.
const CALLISH_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "else", "fn", "let",
    "use", "pub", "where", "impl", "unsafe", "break", "continue", "mut", "ref", "dyn",
];

const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// How a guard is entered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockKind {
    #[default]
    Mutex,
    Read,
    Write,
}

impl LockKind {
    pub fn name(self) -> &'static str {
        match self {
            LockKind::Mutex => "mutex",
            LockKind::Read => "read",
            LockKind::Write => "write",
        }
    }
}

/// One guard acquisition, with the token range it is held over.
#[derive(Clone, Debug)]
pub struct Acquire {
    /// Stable lock identity: `Owner.field`, `shared:Inner` for
    /// Arc-shared locks with a unique inner type, or `crate:name` when
    /// the receiver cannot be resolved.
    pub lock: String,
    pub kind: LockKind,
    pub line: u32,
    pub tok: usize,
    /// One past the last token index at which the guard is held.
    pub scope_end: usize,
    /// Synthesized at a call to a lock helper / guard-returning fn.
    pub via_call: bool,
}

/// One resolved call site.
#[derive(Clone, Debug)]
pub struct Call {
    pub name: String,
    pub line: u32,
    pub tok: usize,
    /// Indices into `Graph::fns`.
    pub callees: Vec<usize>,
    /// Receiver was typed (self/field/guard/param) or the callee is an
    /// in-crate free fn — trusted for held-set propagation.
    pub precise: bool,
}

/// One blocking operation.
#[derive(Clone, Debug)]
pub struct Blocking {
    pub what: String,
    pub line: u32,
    pub tok: usize,
    /// Covered by `wormlint: allow(blocking)`.
    pub allowed: bool,
}

/// One panic site (same catalogue as L1).
#[derive(Clone, Debug)]
pub struct PanicSite {
    pub what: String,
    pub line: u32,
    /// Covered by `wormlint: allow(panic)` — the fn is a documented
    /// concentration point, not a panic source.
    pub allowed: bool,
}

/// One extracted function with its facts.
#[derive(Clone, Debug)]
pub struct FnInfo {
    pub name: String,
    /// Self type for methods, trait name for default trait methods.
    pub impl_type: Option<String>,
    pub krate: String,
    /// Index into `Graph::files`.
    pub file: usize,
    pub line: u32,
    /// Token range of the body: index of `{` to index of `}` inclusive.
    pub body: (usize, usize),
    pub in_test: bool,
    pub serving: bool,
    pub acquires: Vec<Acquire>,
    pub calls: Vec<Call>,
    pub blocking: Vec<Blocking>,
    pub panics: Vec<PanicSite>,
    /// Lock kinds acquired on the fn's own first parameter (lock
    /// helper — attributed at call sites, not here).
    pub param_locks: Vec<LockKind>,
    /// Guard acquired on own state and returned to the caller:
    /// (lock id, kind, inner type for guard-local typing).
    pub provides: Option<(String, LockKind, Option<String>)>,
    /// Idents appearing in the return type (pre-`where`), in order.
    ret_idents: Vec<String>,
    /// The return type's resolved receiver type: the first return-type
    /// ident that has workspace methods (`Result<&Arc<WormServer>, E>`
    /// resolves to `WormServer`). Types `x.owner()?.method()` chains.
    pub ret_ty: Option<String>,
    /// Locks that may already be held when this fn is entered
    /// (fixpoint over precise call edges).
    pub entry_held: BTreeSet<String>,
}

impl FnInfo {
    /// `Type::name` or bare `name` for display.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Locks held at token `tok` from this fn's own acquisitions.
    pub fn held_at(&self, tok: usize) -> BTreeSet<String> {
        self.acquires
            .iter()
            .filter(|a| a.tok < tok && tok < a.scope_end)
            .map(|a| a.lock.clone())
            .collect()
    }
}

/// One source file admitted to the graph.
pub struct GraphFile<'a> {
    pub sf: &'a SourceFile,
    pub krate: String,
    pub serving: bool,
    pub codec: bool,
    /// The caller's index for this file (allow-consumption routing).
    pub orig: usize,
}

/// A field's structural type info.
#[derive(Clone, Debug, Default)]
struct FieldTy {
    /// First meaningful type ident, looking through `Arc`/`&`/`dyn`
    /// and into the lock's inner type for guarded fields.
    base: Option<String>,
    /// `Some((kind-of-mechanism, arc-shared))` when the field is a
    /// `Mutex`/`RwLock`. `base` is then the lock's inner type.
    lock: Option<(bool, bool)>, // (is_mutex, arc_shared)
    /// Element type of a `Vec<T>` field, looking through `Arc`/`Box`
    /// (`shards: Vec<Arc<WormServer<D>>>` records `WormServer`).
    elem: Option<String>,
}

/// The assembled workspace call graph.
pub struct Graph<'a> {
    pub files: Vec<GraphFile<'a>>,
    pub fns: Vec<FnInfo>,
    /// (self type or trait name, method name) -> fn indices.
    methods: BTreeMap<(String, String), Vec<usize>>,
    /// Method name -> fn indices across the graph (fan-out).
    by_name: BTreeMap<String, Vec<usize>>,
    /// (crate, free fn name) -> fn indices.
    free_by_crate: BTreeMap<(String, String), Vec<usize>>,
    free_by_name: BTreeMap<String, Vec<usize>>,
    /// Type.field -> structural type.
    fields: BTreeMap<(String, String), FieldTy>,
    /// struct generic param -> bound trait, per struct.
    struct_bounds: BTreeMap<(String, String), String>,
    /// Struct-name definition counts (shared-lock naming needs a
    /// unique inner type).
    type_defs: BTreeMap<String, usize>,
}

/// Per-fn extraction leftovers needed by later passes.
#[derive(Clone, Debug, Default)]
struct FnExtra {
    /// Non-self parameter names with their first type ident.
    params: Vec<(String, Option<String>)>,
    /// Element type of `Vec<T>`-typed parameters (loop-var typing).
    param_elems: BTreeMap<String, String>,
    /// fn generic param -> first bound ident.
    bounds: BTreeMap<String, String>,
    /// Return type mentions `*Guard*`.
    ret_guard: bool,
    raw: Vec<RawSite>,
}

#[derive(Clone, Debug)]
enum Binding {
    Let { var: String },
    LetWild,
    None,
}

#[derive(Clone, Debug)]
enum RawSite {
    Acq {
        tok: usize,
        line: u32,
        kind: LockKind,
        recv: Vec<String>,
        binding: Binding,
    },
    Call {
        tok: usize,
        line: u32,
        name: String,
        kind: RawCallKind,
        zero_args: bool,
        first_arg: Vec<String>,
        binding: Binding,
    },
    Panic {
        line: u32,
        what: String,
        allowed: bool,
    },
    /// A local variable whose type is known textually (annotated let,
    /// `for` over a typed `Vec`, iteration-closure parameter).
    Bind { var: String, ty: String },
}

#[derive(Clone, Debug)]
enum RawCallKind {
    Method {
        recv: Vec<String>,
        /// `recv` is the path of an *inner call* whose result is the
        /// receiver (`self.owner(sn)?.method(..)`).
        via_call: bool,
    },
    /// Receiver type known statically at extraction (indexed `Vec`
    /// element: `self.shards[i].write(..)`).
    Typed {
        ty: String,
    },
    Qualified {
        q: String,
    },
    Free,
}

/// How a method call's receiver expression ends.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RecvVia {
    /// Plain ident path (`self.a.b`).
    Plain,
    /// Result of an inner call (`self.owner(sn)?`).
    Call,
    /// Indexed element (`self.shards[i]`).
    Index,
}

pub fn build<'a>(gfiles: Vec<GraphFile<'a>>) -> Graph<'a> {
    let mut g = Graph {
        files: gfiles,
        fns: Vec::new(),
        methods: BTreeMap::new(),
        by_name: BTreeMap::new(),
        free_by_crate: BTreeMap::new(),
        free_by_name: BTreeMap::new(),
        fields: BTreeMap::new(),
        struct_bounds: BTreeMap::new(),
        type_defs: BTreeMap::new(),
    };
    let mut extras: Vec<FnExtra> = Vec::new();

    // Pass A: items — structs (field table), impls/traits, fn shells.
    for fi in 0..g.files.len() {
        scan_items(&mut g, &mut extras, fi);
    }

    // Indexes over live (non-test) fns.
    for (i, f) in g.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        match &f.impl_type {
            Some(t) => {
                g.methods
                    .entry((t.clone(), f.name.clone()))
                    .or_default()
                    .push(i);
                g.by_name.entry(f.name.clone()).or_default().push(i);
            }
            None => {
                g.free_by_crate
                    .entry((f.krate.clone(), f.name.clone()))
                    .or_default()
                    .push(i);
                g.free_by_name.entry(f.name.clone()).or_default().push(i);
            }
        }
    }

    // Return-type receiver resolution: the first return-type ident
    // that names a type with workspace methods is what a chained call
    // (`self.owner(sn)?.lit_release(..)`) dispatches on. Transparent
    // wrappers are skipped even when blanket forwarding impls register
    // methods under them — method dispatch continues through `Deref`.
    const RET_WRAPPERS: &[&str] = &[
        "Result", "Option", "Arc", "Box", "Rc", "Vec", "VecDeque", "Ref", "RefMut", "Cow", "Pin",
    ];
    let types_with_methods: BTreeSet<String> = g.methods.keys().map(|(t, _)| t.clone()).collect();
    for f in &mut g.fns {
        let self_ty = f.impl_type.clone();
        f.ret_ty = f
            .ret_idents
            .iter()
            .map(|i| match (i.as_str(), &self_ty) {
                ("Self", Some(t)) => t.clone(),
                _ => i.clone(),
            })
            .find(|i| !RET_WRAPPERS.contains(&i.as_str()) && types_with_methods.contains(i));
    }

    // Pass B1: raw facts per fn.
    for (i, extra) in extras.iter_mut().enumerate() {
        if g.fns[i].in_test {
            continue;
        }
        extract_raw(&g, extra, i);
    }

    // Pass B2: lock-helper fixpoint (param-rooted acquisitions
    // propagate through forwarding calls like `Self::get_or_insert`).
    helper_fixpoint(&mut g, &extras);

    // Pass B3: resolve calls, synthesize helper/guard-provider
    // acquisitions, finalize guard scopes.
    for i in 0..g.fns.len() {
        if g.fns[i].in_test {
            continue;
        }
        resolve_fn(&mut g, &extras, i);
    }

    // Pass B4: entry-held fixpoint over precise edges.
    entry_held_fixpoint(&mut g);

    g
}

impl<'a> Graph<'a> {
    /// All candidates for a method named `name` on type-or-trait `t`.
    fn typed_candidates(&self, t: &str, name: &str) -> Vec<usize> {
        self.methods
            .get(&(t.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    fn fanout(&self, name: &str) -> Vec<usize> {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Walks `Type.field` chains to the base type of the final field.
    fn walk_fields(&self, start: &str, path: &[String]) -> Option<String> {
        let mut cur = start.to_string();
        for seg in path {
            let ft = self.fields.get(&(cur.clone(), seg.clone()))?;
            let mut base = ft.base.clone()?;
            // A field typed by a struct generic resolves through the
            // struct's bound (`dev: D` where `D: BlockDevice`).
            if let Some(tr) = self.struct_bounds.get(&(cur.clone(), base.clone())) {
                base = tr.clone();
            }
            cur = base;
        }
        Some(cur)
    }

    /// Lock identity + guard inner type for `Type.field`.
    fn lock_id(&self, owner: &str, field: &str) -> Option<(String, Option<String>)> {
        let ft = self.fields.get(&(owner.to_string(), field.to_string()))?;
        let (_, arc) = ft.lock?;
        let inner = ft.base.clone();
        // Arc-shared locks with a unique workspace inner type collapse
        // to one identity across every holder (`Arc<RwLock<Vrdt>>` in
        // both planes is the same lock).
        if arc {
            if let Some(t) = &inner {
                if self.type_defs.get(t).copied().unwrap_or(0) == 1 {
                    return Some((format!("shared:{t}"), inner));
                }
            }
        }
        Some((format!("{owner}.{field}"), inner))
    }
}

/// Pass A: item extraction for one file.
fn scan_items(g: &mut Graph<'_>, extras: &mut Vec<FnExtra>, fi: usize) {
    let sf = g.files[fi].sf;
    let krate = g.files[fi].krate.clone();
    let serving = g.files[fi].serving;
    let toks = &sf.lexed.tokens;
    let src = &sf.src;
    // (type name, close token index): innermost impl/trait context.
    let mut ctx: Vec<(String, usize, Option<String>)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        while ctx.last().is_some_and(|&(_, close, _)| i >= close) {
            ctx.pop();
        }
        if toks[i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match toks[i].ident_text(src) {
            "impl" => {
                if let Some((ty, of_trait, open, close)) = parse_impl_header(sf, i) {
                    g.type_defs.entry(ty.clone()).or_insert(0);
                    ctx.push((ty, close, of_trait));
                    i = open + 1;
                } else {
                    i += 1;
                }
            }
            "trait" => {
                // `trait Name [: Super] { ... }` — default methods
                // index under the trait name.
                let name = toks
                    .get(i + 1)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.ident_text(src).to_string());
                let mut j = i + 1;
                let mut open = None;
                while j < toks.len() {
                    if toks[j].is_punct(b'{') {
                        open = Some(j);
                        break;
                    }
                    if toks[j].is_punct(b';') {
                        break;
                    }
                    j += 1;
                }
                match (name, open) {
                    (Some(n), Some(o)) => {
                        let close = matching_close(toks, o);
                        ctx.push((n, close, None));
                        i = o + 1;
                    }
                    _ => i = j + 1,
                }
            }
            "struct" => {
                i = parse_struct(g, fi, i);
            }
            "fn" => {
                let self_ty = ctx.last().map(|(t, _, _)| t.clone());
                let of_trait = ctx.last().and_then(|(_, _, tr)| tr.clone());
                match parse_fn(g, extras, fi, i, &krate, serving, self_ty, of_trait) {
                    Some(next) => i = next,
                    None => i += 1,
                }
            }
            _ => i += 1,
        }
    }
}

/// Index of the `}` matching the `{` at `open`, or `toks.len()`.
fn matching_close(toks: &[crate::lexer::Token], open: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(b'{') {
            depth += 1;
        } else if t.is_punct(b'}') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len()
}

/// Skips a balanced `<...>` run starting at `i` (which must point at
/// `<`), returning the index just past the matching `>`.
fn skip_angles(toks: &[crate::lexer::Token], i: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct(b'<') {
            depth += 1;
        } else if toks[j].is_punct(b'>') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if toks[j].is_punct(b'{') || toks[j].is_punct(b';') {
            // Malformed / not actually generics: bail.
            return i + 1;
        }
        j += 1;
    }
    toks.len()
}

/// Parses `impl [<...>] Path [for Path] [where ...] {`, returning
/// (self type, trait, body open index, body close index).
fn parse_impl_header(sf: &SourceFile, i: usize) -> Option<(String, Option<String>, usize, usize)> {
    let toks = &sf.lexed.tokens;
    let src = &sf.src;
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.is_punct(b'<')) {
        j = skip_angles(toks, j);
    }
    let (name1, nj) = parse_type_path(sf, j)?;
    j = nj;
    let mut ty = name1.clone();
    let mut of_trait = None;
    if toks
        .get(j)
        .is_some_and(|t| t.kind == TokKind::Ident && t.ident_text(src) == "for")
    {
        let (name2, nj2) = parse_type_path(sf, j + 1)?;
        ty = name2;
        of_trait = Some(name1);
        j = nj2;
    }
    // Skip a where clause: scan to the body brace.
    while j < toks.len() && !toks[j].is_punct(b'{') {
        if toks[j].is_punct(b';') {
            return None;
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    Some((ty, of_trait, j, matching_close(toks, j)))
}

/// Parses a type path (`a::b::Name<...>`), returning the last segment
/// name and the index just past the path.
fn parse_type_path(sf: &SourceFile, start: usize) -> Option<(String, usize)> {
    let toks = &sf.lexed.tokens;
    let src = &sf.src;
    let mut j = start;
    // Skip leading `&`, lifetimes, `mut`, `dyn`.
    loop {
        match toks.get(j) {
            Some(t) if t.is_punct(b'&') => j += 1,
            Some(t) if t.kind == TokKind::Lifetime => j += 1,
            Some(t) if t.kind == TokKind::Ident && matches!(t.ident_text(src), "mut" | "dyn") => {
                j += 1
            }
            _ => break,
        }
    }
    let mut last = None;
    loop {
        let t = toks.get(j)?;
        if t.kind != TokKind::Ident {
            break;
        }
        last = Some(t.ident_text(src).to_string());
        j += 1;
        if toks.get(j).is_some_and(|t| t.is_punct(b'<')) {
            j = skip_angles(toks, j);
        }
        if toks.get(j).is_some_and(|t| t.is_punct(b':'))
            && toks.get(j + 1).is_some_and(|t| t.is_punct(b':'))
        {
            j += 2;
            continue;
        }
        break;
    }
    last.map(|l| (l, j))
}

/// Parses a struct item at `i` (pointing at `struct`), recording its
/// fields, and returns the index to resume scanning from.
fn parse_struct(g: &mut Graph<'_>, fi: usize, i: usize) -> usize {
    let sf = g.files[fi].sf;
    let toks = &sf.lexed.tokens;
    let src = &sf.src;
    let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
        return i + 1;
    };
    let name = name_tok.ident_text(src).to_string();
    *g.type_defs.entry(name.clone()).or_insert(0) += 1;
    let mut j = i + 2;
    // Generics: capture `D: BlockDevice` bounds for field walking.
    if toks.get(j).is_some_and(|t| t.is_punct(b'<')) {
        let end = skip_angles(toks, j);
        let mut k = j + 1;
        while k + 2 < end {
            if toks[k].kind == TokKind::Ident
                && toks[k + 1].is_punct(b':')
                && toks[k + 2].kind == TokKind::Ident
            {
                g.struct_bounds.insert(
                    (name.clone(), toks[k].ident_text(src).to_string()),
                    toks[k + 2].ident_text(src).to_string(),
                );
            }
            k += 1;
        }
        j = end;
    }
    // Find the body (or `;` / tuple struct).
    while j < toks.len() {
        if toks[j].is_punct(b'{') {
            break;
        }
        if toks[j].is_punct(b';') {
            return j + 1;
        }
        j += 1;
    }
    if j >= toks.len() {
        return j;
    }
    let close = matching_close(toks, j);
    let mut k = j + 1;
    while k < close {
        // A field name: ident followed by a single `:`, preceded by a
        // field separator or visibility.
        let is_field = toks[k].kind == TokKind::Ident
            && toks.get(k + 1).is_some_and(|t| t.is_punct(b':'))
            && !toks.get(k + 2).is_some_and(|t| t.is_punct(b':'))
            && (k == j + 1
                || toks[k - 1].is_punct(b',')
                || toks[k - 1].is_punct(b')')
                || toks[k - 1].is_punct(b']')
                || (toks[k - 1].kind == TokKind::Ident && toks[k - 1].ident_text(src) == "pub"));
        if is_field {
            let fname = toks[k].ident_text(src).to_string();
            let fty = parse_field_type(sf, k + 2, close);
            g.fields.insert((name.clone(), fname), fty);
        }
        k += 1;
    }
    close + 1
}

/// Structural type of a field starting at token `start`.
fn parse_field_type(sf: &SourceFile, start: usize, limit: usize) -> FieldTy {
    let toks = &sf.lexed.tokens;
    let src = &sf.src;
    let mut j = start;
    let mut arc = false;
    // Peel `&`, lifetimes, `mut`, `dyn`, path qualifiers
    // (`wormtrace::OpStats`), and one `Arc<` / `Box<` layer.
    let mut peeled = 0;
    loop {
        match toks.get(j) {
            Some(t) if t.is_punct(b'&') || t.kind == TokKind::Lifetime => j += 1,
            Some(t) if t.kind == TokKind::Ident && matches!(t.ident_text(src), "mut" | "dyn") => {
                j += 1
            }
            Some(t)
                if t.kind == TokKind::Ident
                    && toks.get(j + 1).is_some_and(|n| n.is_punct(b':'))
                    && toks.get(j + 2).is_some_and(|n| n.is_punct(b':')) =>
            {
                j += 3
            }
            Some(t)
                if t.kind == TokKind::Ident
                    && matches!(t.ident_text(src), "Arc" | "Box" | "Rc")
                    && toks.get(j + 1).is_some_and(|n| n.is_punct(b'<'))
                    && peeled < 2 =>
            {
                if t.ident_text(src) == "Arc" {
                    arc = true;
                }
                peeled += 1;
                j += 2;
            }
            _ => break,
        }
    }
    let Some(t0) = toks
        .get(j)
        .filter(|t| t.kind == TokKind::Ident && j < limit)
    else {
        return FieldTy::default();
    };
    let t0name = t0.ident_text(src);
    if matches!(t0name, "Mutex" | "RwLock") {
        // Inner type: first ident inside the angle brackets (skipping
        // `&`/`dyn`/lifetimes).
        let mut k = j + 1;
        let inner = loop {
            match toks.get(k) {
                Some(t) if t.is_punct(b'<') || t.is_punct(b'&') || t.kind == TokKind::Lifetime => {
                    k += 1
                }
                Some(t)
                    if t.kind == TokKind::Ident && matches!(t.ident_text(src), "mut" | "dyn") =>
                {
                    k += 1
                }
                Some(t)
                    if t.kind == TokKind::Ident
                        && toks.get(k + 1).is_some_and(|n| n.is_punct(b':'))
                        && toks.get(k + 2).is_some_and(|n| n.is_punct(b':')) =>
                {
                    k += 3
                }
                Some(t) if t.kind == TokKind::Ident && k < limit => {
                    break Some(t.ident_text(src).to_string())
                }
                _ => break None,
            }
        };
        return FieldTy {
            base: inner,
            lock: Some((t0name == "Mutex", arc)),
            elem: None,
        };
    }
    let mut elem = None;
    if t0name == "Vec" && toks.get(j + 1).is_some_and(|t| t.is_punct(b'<')) {
        // Element type: first meaningful ident inside the angles,
        // peeling `&`/`Arc`/`Box` layers.
        let mut k = j + 1;
        elem = loop {
            match toks.get(k) {
                Some(t) if t.is_punct(b'<') || t.is_punct(b'&') || t.kind == TokKind::Lifetime => {
                    k += 1
                }
                Some(t)
                    if t.kind == TokKind::Ident
                        && matches!(t.ident_text(src), "mut" | "dyn" | "Arc" | "Box" | "Rc") =>
                {
                    k += 1
                }
                Some(t)
                    if t.kind == TokKind::Ident
                        && toks.get(k + 1).is_some_and(|n| n.is_punct(b':'))
                        && toks.get(k + 2).is_some_and(|n| n.is_punct(b':')) =>
                {
                    k += 3
                }
                Some(t) if t.kind == TokKind::Ident && k < limit => {
                    break Some(t.ident_text(src).to_string())
                }
                _ => break None,
            }
        };
    }
    FieldTy {
        base: Some(t0name.to_string()),
        lock: None,
        elem,
    }
}

/// Parses a fn item at `i` (pointing at `fn`), recording its shell,
/// and returns the index just past the signature (scanning continues
/// *inside* the body so nested items are found).
#[allow(clippy::too_many_arguments)]
fn parse_fn(
    g: &mut Graph<'_>,
    extras: &mut Vec<FnExtra>,
    fi: usize,
    i: usize,
    krate: &str,
    serving: bool,
    self_ty: Option<String>,
    of_trait: Option<String>,
) -> Option<usize> {
    let sf = g.files[fi].sf;
    let toks = &sf.lexed.tokens;
    let src = &sf.src;
    let name_tok = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident)?;
    let name = name_tok.ident_text(src).to_string();
    let line = name_tok.line;
    let mut j = i + 2;
    let mut extra = FnExtra::default();
    if toks.get(j).is_some_and(|t| t.is_punct(b'<')) {
        let end = skip_angles(toks, j);
        let mut k = j + 1;
        while k + 2 < end {
            if toks[k].kind == TokKind::Ident
                && toks[k + 1].is_punct(b':')
                && toks[k + 2].kind == TokKind::Ident
            {
                extra.bounds.insert(
                    toks[k].ident_text(src).to_string(),
                    toks[k + 2].ident_text(src).to_string(),
                );
            }
            k += 1;
        }
        j = end;
    }
    if !toks.get(j).is_some_and(|t| t.is_punct(b'(')) {
        return None;
    }
    // Parameters: names + first meaningful type ident each.
    let mut depth = 0i64;
    let params_open = j;
    let mut params_close = j;
    while params_close < toks.len() {
        if toks[params_close].is_punct(b'(') {
            depth += 1;
        } else if toks[params_close].is_punct(b')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        params_close += 1;
    }
    let mut k = params_open + 1;
    let mut pdepth = 0i64;
    while k < params_close {
        match () {
            _ if toks[k].is_punct(b'(') || toks[k].is_punct(b'[') || toks[k].is_punct(b'<') => {
                pdepth += 1
            }
            _ if toks[k].is_punct(b')') || toks[k].is_punct(b']') || toks[k].is_punct(b'>') => {
                pdepth -= 1
            }
            _ => {}
        }
        if pdepth == 0
            && toks[k].kind == TokKind::Ident
            && toks.get(k + 1).is_some_and(|t| t.is_punct(b':'))
            && !toks.get(k + 2).is_some_and(|t| t.is_punct(b':'))
            && !toks
                .get(k.wrapping_sub(1))
                .is_some_and(|t| t.is_punct(b':'))
        {
            let pname = toks[k].ident_text(src).to_string();
            // First meaningful type ident after the colon.
            let mut m = k + 2;
            let mut ty = None;
            while m < params_close {
                let t = &toks[m];
                if t.is_punct(b'&') || t.kind == TokKind::Lifetime {
                    m += 1;
                    continue;
                }
                if t.kind == TokKind::Ident {
                    let it = t.ident_text(src);
                    if matches!(it, "mut" | "dyn" | "impl") {
                        m += 1;
                        continue;
                    }
                    if toks.get(m + 1).is_some_and(|n| n.is_punct(b':'))
                        && toks.get(m + 2).is_some_and(|n| n.is_punct(b':'))
                    {
                        m += 3;
                        continue;
                    }
                    ty = Some(it.to_string());
                    break;
                }
                break;
            }
            // `Vec<T>` parameters record T so loop variables and
            // iteration-closure parameters over them type as T.
            if ty.as_deref() == Some("Vec") && toks.get(m + 1).is_some_and(|t| t.is_punct(b'<')) {
                if let Some(elem) = toks
                    .get(m + 2)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.ident_text(src).to_string())
                {
                    extra.param_elems.insert(pname.clone(), elem);
                }
            }
            extra.params.push((pname, ty));
        }
        k += 1;
    }
    // Return type + body open.
    let mut j = params_close + 1;
    let mut ret_idents: Vec<String> = Vec::new();
    let mut in_where = false;
    let mut body_open = None;
    let mut bdepth = 0i64;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct(b'(') || t.is_punct(b'[') {
            bdepth += 1;
        } else if t.is_punct(b')') || t.is_punct(b']') {
            bdepth -= 1;
        } else if t.is_punct(b'{') && bdepth == 0 {
            body_open = Some(j);
            break;
        } else if t.is_punct(b';') && bdepth == 0 {
            // Bodyless declaration (trait method): no node.
            return Some(j + 1);
        } else if t.kind == TokKind::Ident {
            let it = t.ident_text(src);
            if it == "where" {
                in_where = true;
            } else if !in_where {
                if it.contains("Guard") {
                    extra.ret_guard = true;
                }
                if !matches!(it, "mut" | "dyn" | "impl") {
                    ret_idents.push(it.to_string());
                }
            }
        }
        j += 1;
    }
    let open = body_open?;
    let close = matching_close(toks, open);
    // Methods index under the self type; trait impls additionally
    // resolve through the trait name, so a `B: Trait` receiver finds
    // exactly the workspace implementors.
    let info = FnInfo {
        name,
        impl_type: self_ty.clone(),
        krate: krate.to_string(),
        file: fi,
        line,
        body: (open, close),
        in_test: sf.in_test(line),
        serving,
        acquires: Vec::new(),
        calls: Vec::new(),
        blocking: Vec::new(),
        panics: Vec::new(),
        param_locks: Vec::new(),
        provides: None,
        ret_idents,
        ret_ty: None,
        entry_held: BTreeSet::new(),
    };
    let idx = g.fns.len();
    g.fns.push(info);
    extras.push(extra);
    // Trait-impl methods are also reachable through the trait name.
    if let (Some(tr), Some(st)) = (of_trait, self_ty) {
        if !g.fns[idx].in_test && tr != st {
            g.methods
                .entry((tr, g.fns[idx].name.clone()))
                .or_default()
                .push(idx);
        }
    }
    Some(open + 1)
}

/// Pass B1: raw fact extraction for fn `idx`.
fn extract_raw(g: &Graph<'_>, extra: &mut FnExtra, idx: usize) {
    let f = &g.fns[idx];
    let sf = g.files[f.file].sf;
    let toks = &sf.lexed.tokens;
    let src = &sf.src;
    // Nested fn bodies inside this body belong to their own nodes.
    let nested: Vec<(usize, usize)> = g
        .fns
        .iter()
        .filter(|o| o.file == f.file && o.body.0 > f.body.0 && o.body.1 <= f.body.1)
        .map(|o| o.body)
        .collect();
    // Element types of `Vec<T>` locals (annotated lets), for typing
    // loop variables and iteration-closure parameters.
    let mut vec_locals: BTreeMap<String, String> = BTreeMap::new();
    let mut k = f.body.0 + 1;
    while k < f.body.1 {
        if let Some(&(_, nend)) = nested.iter().find(|&&(ns, _)| ns == k) {
            k = nend + 1;
            continue;
        }
        let t = &toks[k];
        if t.kind != TokKind::Ident || sf.in_test(t.line) {
            k += 1;
            continue;
        }
        let name = t.ident_text(src);
        let prev_dot = k > 0 && toks[k - 1].is_punct(b'.');
        let next_paren = toks.get(k + 1).is_some_and(|n| n.is_punct(b'('));
        let next_bang = toks.get(k + 1).is_some_and(|n| n.is_punct(b'!'));

        // `let [mut] v: Type` — annotated locals type their receiver
        // directly; `Vec<T>` annotations record the element type.
        if name == "let" {
            let mut j = k + 1;
            if toks
                .get(j)
                .is_some_and(|t| t.kind == TokKind::Ident && t.ident_text(src) == "mut")
            {
                j += 1;
            }
            let named = toks
                .get(j)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.ident_text(src).to_string());
            if let Some(var) = named {
                if toks.get(j + 1).is_some_and(|t| t.is_punct(b':'))
                    && !toks.get(j + 2).is_some_and(|t| t.is_punct(b':'))
                {
                    let mut m = j + 2;
                    while toks.get(m).is_some_and(|t| {
                        t.is_punct(b'&')
                            || t.kind == TokKind::Lifetime
                            || (t.kind == TokKind::Ident
                                && matches!(t.ident_text(src), "mut" | "dyn"))
                    }) {
                        m += 1;
                    }
                    if let Some(ty) = toks
                        .get(m)
                        .filter(|t| t.kind == TokKind::Ident)
                        .map(|t| t.ident_text(src).to_string())
                    {
                        if ty == "Vec" && toks.get(m + 1).is_some_and(|t| t.is_punct(b'<')) {
                            if let Some(elem) = toks
                                .get(m + 2)
                                .filter(|t| t.kind == TokKind::Ident)
                                .map(|t| t.ident_text(src).to_string())
                            {
                                vec_locals.insert(var, elem);
                            }
                        } else {
                            extra.raw.push(RawSite::Bind { var, ty });
                        }
                    }
                }
            }
            k += 1;
            continue;
        }

        // `for <pat> in <iterable>` — iterating a known `Vec<T>` types
        // the last pattern ident as T (tuple patterns bind their last
        // ident: `for (i, conn) in conns.iter_mut().enumerate()`).
        if name == "for" {
            let mut j = k + 1;
            let mut var: Option<String> = None;
            while j < f.body.1 {
                let u = &toks[j];
                if u.kind == TokKind::Ident {
                    let n = u.ident_text(src);
                    if n == "in" {
                        break;
                    }
                    if n != "mut" && n != "ref" {
                        var = Some(n.to_string());
                    }
                } else if u.is_punct(b'{') || u.is_punct(b';') {
                    var = None;
                    break;
                }
                j += 1;
            }
            let mut m = j + 1;
            while toks.get(m).is_some_and(|t| {
                t.is_punct(b'&') || (t.kind == TokKind::Ident && t.ident_text(src) == "mut")
            }) {
                m += 1;
            }
            // Iterable: a dotted ident path, with trailing iterator
            // adapters (`.iter()`, `.enumerate()`) stripped.
            let mut path: Vec<String> = Vec::new();
            while let Some(t) = toks.get(m).filter(|t| t.kind == TokKind::Ident) {
                path.push(t.ident_text(src).to_string());
                m += 1;
                if toks.get(m).is_some_and(|t| t.is_punct(b'.')) {
                    m += 1;
                } else {
                    break;
                }
            }
            const ITER_ADAPTERS: &[&str] = &[
                "iter",
                "iter_mut",
                "into_iter",
                "drain",
                "enumerate",
                "values",
                "values_mut",
                "keys",
                "rev",
            ];
            while path
                .last()
                .is_some_and(|s| ITER_ADAPTERS.contains(&s.as_str()))
            {
                path.pop();
            }
            let elem = elem_of_path(
                g,
                f.impl_type.as_deref(),
                &vec_locals,
                &extra.param_elems,
                &path,
            );
            if let (Some(var), Some(ty)) = (var, elem) {
                extra.raw.push(RawSite::Bind { var, ty });
            }
            k += 1;
            continue;
        }

        // Panic sites (L1's catalogue, lifted for L7).
        if PANIC_METHODS.contains(&name) && prev_dot && next_paren {
            extra.raw.push(RawSite::Panic {
                line: t.line,
                what: format!(".{name}()"),
                allowed: sf.allow_for("panic", t.line).is_some(),
            });
            k += 1;
            continue;
        }
        if PANIC_MACROS.contains(&name) && next_bang {
            extra.raw.push(RawSite::Panic {
                line: t.line,
                what: format!("{name}!"),
                allowed: sf.allow_for("panic", t.line).is_some(),
            });
            k += 2;
            continue;
        }
        if next_bang {
            // Other macro invocation: not a call.
            k += 2;
            continue;
        }
        if !next_paren || CALLISH_KEYWORDS.contains(&name) {
            k += 1;
            continue;
        }
        let zero_args = toks.get(k + 2).is_some_and(|n| n.is_punct(b')'));

        // Zero-argument `.read()`/`.write()`/`.lock()`: acquisition.
        if prev_dot && zero_args {
            if let Some(kind) = lock_kind_for_method(name) {
                let (recv, expr_start, acq_via) = receiver_path(sf, k);
                // An acquisition on a call result / indexed element is
                // opaque here; the `crate:name` fallback identity keeps
                // only the tail.
                let recv = if acq_via != RecvVia::Plain {
                    Vec::new()
                } else {
                    recv
                };
                let binding = binding_before(sf, expr_start);
                extra.raw.push(RawSite::Acq {
                    tok: k,
                    line: t.line,
                    kind,
                    recv,
                    binding,
                });
                k += 3;
                continue;
            }
        }

        // Iteration closures over a known `Vec<T>` type their first
        // closure parameter as T (`conns.retain_mut(|c| ...)`).
        if prev_dot && matches!(name, "retain" | "retain_mut" | "for_each") {
            let (recv, _, cvc) = receiver_path(sf, k);
            if cvc == RecvVia::Plain
                && recv.len() == 1
                && toks.get(k + 2).is_some_and(|t| t.is_punct(b'|'))
            {
                let elem = vec_locals
                    .get(&recv[0])
                    .or_else(|| extra.param_elems.get(&recv[0]))
                    .cloned();
                if let (Some(ty), Some(cv)) =
                    (elem, toks.get(k + 3).filter(|t| t.kind == TokKind::Ident))
                {
                    extra.raw.push(RawSite::Bind {
                        var: cv.ident_text(src).to_string(),
                        ty,
                    });
                }
            }
        }

        // An ordinary call site.
        let (kind, expr_start) = if prev_dot {
            let (recv, es, via) = receiver_path(sf, k);
            let kind = match via {
                RecvVia::Index => match elem_of_path(
                    g,
                    f.impl_type.as_deref(),
                    &vec_locals,
                    &extra.param_elems,
                    &recv,
                ) {
                    Some(ty) => RawCallKind::Typed { ty },
                    None => RawCallKind::Method {
                        recv: Vec::new(),
                        via_call: false,
                    },
                },
                RecvVia::Call => RawCallKind::Method {
                    recv,
                    via_call: true,
                },
                RecvVia::Plain => RawCallKind::Method {
                    recv,
                    via_call: false,
                },
            };
            (kind, es)
        } else if k >= 2 && toks[k - 1].is_punct(b':') && toks[k - 2].is_punct(b':') {
            let q = toks
                .get(k.wrapping_sub(3))
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.ident_text(src).to_string())
                .unwrap_or_default();
            // Walk further left over the whole path for binding checks.
            let mut es = k.saturating_sub(3);
            while es >= 2 && toks[es - 1].is_punct(b':') && toks[es - 2].is_punct(b':') {
                es = es.saturating_sub(3);
            }
            (RawCallKind::Qualified { q }, es)
        } else {
            (RawCallKind::Free, k)
        };
        let binding = binding_before(sf, expr_start);
        extra.raw.push(RawSite::Call {
            tok: k,
            line: t.line,
            name: name.to_string(),
            kind,
            zero_args,
            first_arg: first_arg_path(sf, k + 1),
            binding,
        });
        k += 1;
    }
}

/// Walks back from a method-name token over the `a.b.c` receiver
/// chain; returns (segments in order, index of the first segment,
/// how the receiver expression ends). When the receiver is itself a
/// call — `self.owner(sn)?.lit_release(..)` — the segments are the
/// *inner* call's path (`[self, owner]`) and `RecvVia::Call` is
/// returned so resolution can dispatch on the inner fn's return type;
/// an indexed receiver (`self.shards[i].write(..)`) returns the
/// container's path with `RecvVia::Index`.
fn receiver_path(sf: &SourceFile, method_tok: usize) -> (Vec<String>, usize, RecvVia) {
    let toks = &sf.lexed.tokens;
    let src = &sf.src;
    let mut segs: Vec<String> = Vec::new();
    let mut start = method_tok;
    let j = method_tok - 1; // the `.`
    if j == 0 || !toks[j].is_punct(b'.') {
        return (segs, start, RecvVia::Plain);
    }
    let mut prev = j - 1;
    let mut via = RecvVia::Plain;
    if toks[prev].is_punct(b'?') {
        if prev == 0 {
            return (segs, start, RecvVia::Plain);
        }
        prev -= 1;
    }
    if toks[prev].is_punct(b')') || toks[prev].is_punct(b']') {
        // Walk back over the call arguments / index expression to the
        // matching open bracket; the ident before it is the inner
        // method name / container path tail.
        let (open, shut) = if toks[prev].is_punct(b')') {
            (b'(', b')')
        } else {
            (b'[', b']')
        };
        let mut depth = 0i64;
        let mut m = prev;
        loop {
            if toks[m].is_punct(shut) {
                depth += 1;
            } else if toks[m].is_punct(open) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if m == 0 {
                return (segs, start, RecvVia::Plain);
            }
            m -= 1;
        }
        let callee_ident = m > 0
            && toks[m - 1].kind == TokKind::Ident
            && !CALLISH_KEYWORDS.contains(&toks[m - 1].ident_text(src));
        if !callee_ident {
            // `(&self.stream).write(..)`: a parenthesized *group*, not
            // a call — parse the group contents as a plain path.
            if open == b'(' {
                let close = prev;
                let mut gj = m + 1;
                while toks.get(gj).is_some_and(|t| {
                    t.is_punct(b'&') || (t.kind == TokKind::Ident && t.ident_text(src) == "mut")
                }) {
                    gj += 1;
                }
                let mut gsegs: Vec<String> = Vec::new();
                while gj < close {
                    let Some(t) = toks.get(gj).filter(|t| t.kind == TokKind::Ident) else {
                        gsegs.clear();
                        break;
                    };
                    gsegs.push(t.ident_text(src).to_string());
                    gj += 1;
                    if gj < close && toks[gj].is_punct(b'.') {
                        gj += 1;
                    } else {
                        break;
                    }
                }
                if gj == close && !gsegs.is_empty() {
                    return (gsegs, m, RecvVia::Plain);
                }
            }
            return (Vec::new(), start, RecvVia::Plain);
        }
        via = if open == b'(' {
            RecvVia::Call
        } else {
            RecvVia::Index
        };
        prev = m - 1;
    }
    if toks[prev].kind != TokKind::Ident {
        return (Vec::new(), start, RecvVia::Plain);
    }
    segs.push(toks[prev].ident_text(src).to_string());
    start = prev;
    let mut j = prev;
    loop {
        if j == 0 || !toks[j - 1].is_punct(b'.') {
            break;
        }
        if j == 1 {
            break;
        }
        let p = j - 2;
        if toks[p].kind == TokKind::Ident {
            segs.push(toks[p].ident_text(src).to_string());
            start = p;
            j = p;
        } else {
            // A chain that continues left through a non-ident (nested
            // call result, index expression) is opaque:
            // `self.plane().vrdt.read()`.
            return (Vec::new(), method_tok, RecvVia::Plain);
        }
    }
    segs.reverse();
    (segs, start, via)
}

/// Element type of a `Vec` named by `path`: a typed local, a `Vec<T>`
/// parameter, or a `self.field` chain whose final field is `Vec<T>`.
fn elem_of_path(
    g: &Graph<'_>,
    impl_type: Option<&str>,
    vec_locals: &BTreeMap<String, String>,
    param_elems: &BTreeMap<String, String>,
    path: &[String],
) -> Option<String> {
    match path {
        [one] => vec_locals
            .get(one)
            .or_else(|| param_elems.get(one))
            .cloned(),
        [s, rest @ .., field] if s == "self" => {
            let t = impl_type?;
            let owner = if rest.is_empty() {
                t.to_string()
            } else {
                g.walk_fields(t, rest)?
            };
            g.fields
                .get(&(owner, field.clone()))
                .and_then(|ft| ft.elem.clone())
        }
        _ => None,
    }
}

/// Detects `let [mut] v =` immediately before token `expr_start`.
fn binding_before(sf: &SourceFile, expr_start: usize) -> Binding {
    let toks = &sf.lexed.tokens;
    let src = &sf.src;
    if expr_start < 2 || !toks[expr_start - 1].is_punct(b'=') {
        return Binding::None;
    }
    let mut j = expr_start - 2;
    let var_tok = if toks[j].kind == TokKind::Ident {
        j
    } else if toks[j].is_punct(b'_') {
        // `_` lexes as punct? It lexes as an identifier in this lexer;
        // handled below.
        return Binding::None;
    } else {
        return Binding::None;
    };
    let var = toks[var_tok].ident_text(src).to_string();
    if j == 0 {
        return Binding::None;
    }
    j -= 1;
    if toks[j].kind == TokKind::Ident && toks[j].ident_text(src) == "mut" {
        if j == 0 {
            return Binding::None;
        }
        j -= 1;
    }
    if toks[j].kind == TokKind::Ident && toks[j].ident_text(src) == "let" {
        if var == "_" {
            Binding::LetWild
        } else {
            Binding::Let { var }
        }
    } else {
        Binding::None
    }
}

/// First argument's `&`-stripped ident path, for helper attribution.
fn first_arg_path(sf: &SourceFile, open_paren: usize) -> Vec<String> {
    let toks = &sf.lexed.tokens;
    let src = &sf.src;
    let mut j = open_paren + 1;
    while toks.get(j).is_some_and(|t| {
        t.is_punct(b'&') || (t.kind == TokKind::Ident && t.ident_text(src) == "mut")
    }) {
        j += 1;
    }
    let mut path = Vec::new();
    while let Some(t) = toks.get(j) {
        if t.kind != TokKind::Ident {
            break;
        }
        path.push(t.ident_text(src).to_string());
        j += 1;
        if toks.get(j).is_some_and(|t| t.is_punct(b'.')) {
            j += 1;
        } else {
            break;
        }
    }
    path
}

/// Pass B2: propagate lock-helper status. Direct: an acquisition whose
/// receiver root is the fn's own parameter. Transitive: forwarding a
/// parameter as the first argument of a known helper.
fn helper_fixpoint(g: &mut Graph<'_>, extras: &[FnExtra]) {
    // Direct param acquisitions.
    for (i, extra) in extras.iter().enumerate() {
        if g.fns[i].in_test {
            continue;
        }
        let params: BTreeSet<&String> = extra.params.iter().map(|(n, _)| n).collect();
        let mut kinds = Vec::new();
        for site in &extra.raw {
            if let RawSite::Acq { kind, recv, .. } = site {
                if recv.first().is_some_and(|r| params.contains(r)) && !kinds.contains(kind) {
                    kinds.push(*kind);
                }
            }
        }
        g.fns[i].param_locks = kinds;
    }
    // Transitive forwarding, to a fixpoint.
    loop {
        let mut changed = false;
        for (i, extra) in extras.iter().enumerate() {
            if g.fns[i].in_test {
                continue;
            }
            let params: BTreeSet<&String> = extra.params.iter().map(|(n, _)| n).collect();
            let mut add: Vec<LockKind> = Vec::new();
            for site in &extra.raw {
                let RawSite::Call {
                    name,
                    kind,
                    first_arg,
                    ..
                } = site
                else {
                    continue;
                };
                if !first_arg.first().is_some_and(|r| params.contains(r)) || first_arg.len() != 1 {
                    continue;
                }
                for c in light_resolve(g, i, name, kind) {
                    for k in g.fns[c].param_locks.clone() {
                        if !add.contains(&k) {
                            add.push(k);
                        }
                    }
                }
            }
            for k in add {
                if !g.fns[i].param_locks.contains(&k) {
                    g.fns[i].param_locks.push(k);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// Free/qualified-only resolution used by the helper fixpoint.
fn light_resolve(g: &Graph<'_>, caller: usize, name: &str, kind: &RawCallKind) -> Vec<usize> {
    let krate = &g.fns[caller].krate;
    match kind {
        RawCallKind::Method { .. } | RawCallKind::Typed { .. } => Vec::new(),
        RawCallKind::Qualified { q } if q == "Self" => match &g.fns[caller].impl_type {
            Some(t) => g.typed_candidates(t, name),
            None => Vec::new(),
        },
        RawCallKind::Qualified { .. } | RawCallKind::Free => g
            .free_by_crate
            .get(&(krate.clone(), name.to_string()))
            .cloned()
            .unwrap_or_default(),
    }
}

/// Pass B3: finalize one fn — resolve calls, synthesize acquisitions
/// for helper/provider calls, compute guard scopes, detect provides.
fn resolve_fn(g: &mut Graph<'_>, extras: &[FnExtra], idx: usize) {
    let extra = &extras[idx];
    let (file_idx, body, krate, impl_type) = {
        let f = &g.fns[idx];
        (f.file, f.body, f.krate.clone(), f.impl_type.clone())
    };
    let sf = g.files[file_idx].sf;
    let params: BTreeMap<&String, &Option<String>> =
        extra.params.iter().map(|(n, t)| (n, t)).collect();
    let mut guard_vars: BTreeMap<String, String> = BTreeMap::new();
    let mut acquires: Vec<Acquire> = Vec::new();
    let mut calls: Vec<Call> = Vec::new();
    let mut blocking: Vec<Blocking> = Vec::new();
    let mut panics: Vec<PanicSite> = Vec::new();
    let mut provides: Option<(String, LockKind, Option<String>)> = None;

    // Shared routine: record one acquisition (direct or synthesized).
    let record_acq =
        |g: &Graph<'_>,
         tok: usize,
         line: u32,
         lock: String,
         kind: LockKind,
         inner: Option<String>,
         binding: &Binding,
         via_call: bool,
         ret_guard: bool,
         guard_vars: &mut BTreeMap<String, String>,
         acquires: &mut Vec<Acquire>,
         provides: &mut Option<(String, LockKind, Option<String>)>| {
            let _ = g;
            match binding {
                Binding::Let { var } => {
                    let scope_end = block_end(sf, tok, body.1, var);
                    if let Some(t) = &inner {
                        guard_vars.insert(var.clone(), t.clone());
                    }
                    acquires.push(Acquire {
                        lock,
                        kind,
                        line,
                        tok,
                        scope_end,
                        via_call,
                    });
                }
                Binding::LetWild => acquires.push(Acquire {
                    lock,
                    kind,
                    line,
                    tok,
                    scope_end: statement_end(sf, tok, body.1).0,
                    via_call,
                }),
                Binding::None => {
                    let (end, tail) = statement_end(sf, tok, body.1);
                    if tail && ret_guard {
                        *provides = Some((lock, kind, inner));
                    } else {
                        acquires.push(Acquire {
                            lock,
                            kind,
                            line,
                            tok,
                            scope_end: end,
                            via_call,
                        });
                    }
                }
            }
        };

    // Resolve a lock identity from a receiver/argument ident path.
    let resolve_lock_path = |g: &Graph<'_>,
                             path: &[String],
                             guard_vars: &BTreeMap<String, String>|
     -> Option<(String, Option<String>)> {
        let p0 = path.first()?;
        if p0 == "self" && path.len() >= 2 {
            let t = impl_type.as_deref()?;
            let owner = if path.len() == 2 {
                t.to_string()
            } else {
                g.walk_fields(t, &path[1..path.len() - 1])?
            };
            return g.lock_id(&owner, path.last().unwrap_or(&String::new()));
        }
        if path.len() == 1 && (guard_vars.contains_key(p0) || params.contains_key(p0)) {
            return None; // handled by caller (helper / odd shape)
        }
        // Local variable holding a lock reference: walk from its last
        // segment if it is a field of some known type is not possible
        // without local typing — fall back to a crate-scoped name.
        None
    };

    for site in &extra.raw {
        match site {
            RawSite::Panic {
                line,
                what,
                allowed,
            } => panics.push(PanicSite {
                what: what.clone(),
                line: *line,
                allowed: *allowed,
            }),
            RawSite::Bind { var, ty } => {
                guard_vars.insert(var.clone(), ty.clone());
            }
            RawSite::Acq {
                tok,
                line,
                kind,
                recv,
                binding,
            } => {
                // Acquisition on an own parameter: lock helper,
                // attributed at call sites (pass B2 marked us).
                if recv
                    .first()
                    .is_some_and(|r| r != "self" && params.contains_key(r))
                {
                    continue;
                }
                let resolved = resolve_lock_path(g, recv, &guard_vars);
                let (lock, inner) = resolved.unwrap_or_else(|| {
                    let tail = recv.last().cloned().unwrap_or_else(|| "?".to_string());
                    (format!("{krate}:{tail}"), None)
                });
                record_acq(
                    g,
                    *tok,
                    *line,
                    lock,
                    *kind,
                    inner,
                    binding,
                    false,
                    extra.ret_guard,
                    &mut guard_vars,
                    &mut acquires,
                    &mut provides,
                );
            }
            RawSite::Call {
                tok,
                line,
                name,
                kind,
                zero_args,
                first_arg,
                binding,
            } => {
                // Resolve candidates.
                let (callees, precise) =
                    resolve_call(g, idx, name, kind, &params, &extra.bounds, &guard_vars);

                // Blocking catalogue: unresolved (or imprecisely
                // resolved) calls with a blocking name are stream
                // waits, not workspace calls.
                let is_method = matches!(kind, RawCallKind::Method { .. });
                let blocking_name = (is_method
                    && *zero_args
                    && BLOCKING_ZERO_ARG.contains(&name.as_str()))
                    || BLOCKING_ANY_ARG.contains(&name.as_str())
                    || (name == "connect"
                        && matches!(kind, RawCallKind::Qualified { q } if SOCKET_TYPES.contains(&q.as_str())));
                if blocking_name && (!precise || callees.is_empty()) {
                    blocking.push(Blocking {
                        what: match kind {
                            RawCallKind::Qualified { q } => format!("{q}::{name}"),
                            _ => format!(".{name}()"),
                        },
                        line: *line,
                        tok: *tok,
                        allowed: sf.allow_for("blocking", *line).is_some(),
                    });
                }

                // A precisely-resolved let-bound call whose candidates
                // agree on a return type types the local
                // (`let mut w = WireWriter::tagged(..)` makes later
                // `w.finish()` dispatch on `WireWriter`).
                if let Binding::Let { var } = binding {
                    if precise && !callees.is_empty() {
                        let tys: BTreeSet<&String> = callees
                            .iter()
                            .filter_map(|&c| g.fns[c].ret_ty.as_ref())
                            .collect();
                        if tys.len() == 1 && callees.iter().all(|&c| g.fns[c].ret_ty.is_some()) {
                            if let Some(t) = tys.iter().next() {
                                guard_vars.insert(var.clone(), (*t).clone());
                            }
                        }
                    }
                }

                // Helper / guard-provider synthesis.
                let helper_kinds: Vec<LockKind> = callees
                    .iter()
                    .flat_map(|&c| g.fns[c].param_locks.clone())
                    .fold(Vec::new(), |mut acc, k| {
                        if !acc.contains(&k) {
                            acc.push(k);
                        }
                        acc
                    });
                let any_ret_guard = callees
                    .iter()
                    .any(|&c| g.fns[c].provides.is_some() || !g.fns[c].param_locks.is_empty());
                if !helper_kinds.is_empty() {
                    // Skip when forwarding our own parameter: we are
                    // the helper then (pass B2).
                    let forwards_param = first_arg.len() == 1
                        && first_arg
                            .first()
                            .is_some_and(|r| r != "self" && params.contains_key(r));
                    if !forwards_param {
                        let resolved = resolve_lock_path(g, first_arg, &guard_vars);
                        let (lock, inner) = resolved.unwrap_or_else(|| {
                            let tail = first_arg.last().cloned().unwrap_or_else(|| "?".to_string());
                            (format!("{krate}:{tail}"), None)
                        });
                        for k in helper_kinds {
                            record_acq(
                                g,
                                *tok,
                                *line,
                                lock.clone(),
                                k,
                                inner.clone(),
                                binding,
                                true,
                                extra.ret_guard && any_ret_guard,
                                &mut guard_vars,
                                &mut acquires,
                                &mut provides,
                            );
                        }
                    }
                } else if let Some(&c) = callees
                    .iter()
                    .find(|&&c| g.fns[c].provides.is_some() && precise)
                {
                    let (lock, k, inner) = g.fns[c].provides.clone().unwrap_or_default();
                    record_acq(
                        g,
                        *tok,
                        *line,
                        lock,
                        k,
                        inner,
                        binding,
                        true,
                        extra.ret_guard,
                        &mut guard_vars,
                        &mut acquires,
                        &mut provides,
                    );
                }

                if !callees.is_empty() {
                    calls.push(Call {
                        name: name.clone(),
                        line: *line,
                        tok: *tok,
                        callees,
                        precise,
                    });
                }
            }
        }
    }

    let f = &mut g.fns[idx];
    f.acquires = acquires;
    f.calls = calls;
    f.blocking = blocking;
    f.panics = panics;
    f.provides = provides;
}

/// Resolves one call site to candidate fn indices.
fn resolve_call(
    g: &Graph<'_>,
    caller: usize,
    name: &str,
    kind: &RawCallKind,
    params: &BTreeMap<&String, &Option<String>>,
    bounds: &BTreeMap<String, String>,
    guard_vars: &BTreeMap<String, String>,
) -> (Vec<usize>, bool) {
    let f = &g.fns[caller];
    match kind {
        RawCallKind::Method { recv, via_call } => {
            // Typed receiver resolution, shared between the direct case
            // and the inner call of a `x.owner(..)?.method(..)` chain.
            // `Some((type, candidates))` when the receiver type is
            // known; candidates may be empty (external method).
            let typed_recv = |recv: &[String], name: &str| -> Option<(String, Vec<usize>)> {
                let p0 = recv.first()?;
                if p0 == "self" {
                    let t = f.impl_type.as_ref()?;
                    let owner = if recv.len() == 1 {
                        t.clone()
                    } else {
                        g.walk_fields(t, &recv[1..])?
                    };
                    let c = g.typed_candidates(&owner, name);
                    return Some((owner, c));
                }
                if recv.len() == 1 {
                    if let Some(t) = guard_vars.get(p0) {
                        return Some((t.clone(), g.typed_candidates(t, name)));
                    }
                    if let Some(Some(ty)) = params.get(p0) {
                        let t = bounds.get(ty).unwrap_or(ty);
                        return Some((t.clone(), g.typed_candidates(t, name)));
                    }
                    return None;
                }
                // `param.field.method()` / `guard.field.method()`.
                let root_ty = guard_vars
                    .get(p0)
                    .cloned()
                    .or_else(|| params.get(p0).and_then(|t| (*t).clone()))?;
                let rt = bounds.get(&root_ty).cloned().unwrap_or(root_ty);
                let o = g.walk_fields(&rt, &recv[1..])?;
                let c = g.typed_candidates(&o, name);
                Some((o, c))
            };
            if *via_call {
                // `self.witness.lock().method(..)`: the inner call is a
                // guard acquisition — dispatch on the lock's inner type.
                if recv.len() >= 3
                    && recv[0] == "self"
                    && recv
                        .last()
                        .is_some_and(|m| lock_kind_for_method(m).is_some())
                {
                    if let Some(t) = &f.impl_type {
                        let path = &recv[1..recv.len() - 1];
                        let owner = if path.len() == 1 {
                            Some(t.clone())
                        } else {
                            g.walk_fields(t, &path[..path.len() - 1])
                        };
                        if let Some((_, Some(inner_ty))) = owner.and_then(|o| {
                            g.lock_id(&o, path.last().map(|s| s.as_str()).unwrap_or(""))
                        }) {
                            let c = g.typed_candidates(&inner_ty, name);
                            if !c.is_empty() {
                                return (c, true);
                            }
                        }
                    }
                }
                // Resolve the inner call, then dispatch on its return
                // type when every candidate agrees on one.
                let inner: Vec<usize> = if recv.len() >= 2 {
                    typed_recv(
                        &recv[..recv.len() - 1],
                        recv.last().map(|s| s.as_str()).unwrap_or(""),
                    )
                    .map(|(_, c)| c)
                    .unwrap_or_default()
                } else if recv.len() == 1 {
                    g.free_by_crate
                        .get(&(f.krate.clone(), recv[0].clone()))
                        .cloned()
                        .unwrap_or_default()
                } else {
                    Vec::new()
                };
                let tys: BTreeSet<&String> = inner
                    .iter()
                    .filter_map(|&c| g.fns[c].ret_ty.as_ref())
                    .collect();
                if !inner.is_empty()
                    && tys.len() == 1
                    && inner.iter().all(|&c| g.fns[c].ret_ty.is_some())
                {
                    if let Some(t) = tys.iter().next() {
                        let c = g.typed_candidates(t, name);
                        if !c.is_empty() {
                            return (c, true);
                        }
                        if EXTERNAL_TYPES.contains(&t.as_str()) {
                            return (Vec::new(), true);
                        }
                    }
                }
                return (g.fanout(name), false);
            }
            match typed_recv(recv, name) {
                Some((_, c)) if !c.is_empty() => return (c, true),
                // Known std type with no workspace method: an external
                // call, not a fan-out site.
                Some((t, _)) if EXTERNAL_TYPES.contains(&t.as_str()) => return (Vec::new(), true),
                _ => {}
            }
            (g.fanout(name), false)
        }
        RawCallKind::Typed { ty } => {
            let c = g.typed_candidates(ty, name);
            if !c.is_empty() {
                return (c, true);
            }
            if EXTERNAL_TYPES.contains(&ty.as_str()) {
                return (Vec::new(), true);
            }
            (g.fanout(name), false)
        }
        RawCallKind::Qualified { q } => {
            if q == "Self" {
                if let Some(t) = &f.impl_type {
                    let c = g.typed_candidates(t, name);
                    if !c.is_empty() {
                        return (c, true);
                    }
                }
            }
            let c = g.typed_candidates(q, name);
            if !c.is_empty() {
                return (c, true);
            }
            if let Some(c) = g.free_by_crate.get(&(f.krate.clone(), name.to_string())) {
                return (c.clone(), true);
            }
            (g.free_by_name.get(name).cloned().unwrap_or_default(), false)
        }
        RawCallKind::Free => {
            if let Some(c) = g.free_by_crate.get(&(f.krate.clone(), name.to_string())) {
                return (c.clone(), true);
            }
            (g.free_by_name.get(name).cloned().unwrap_or_default(), false)
        }
    }
}

/// End of the enclosing block for a `let`-bound guard at `tok`,
/// cut short by `drop(var)`.
fn block_end(sf: &SourceFile, tok: usize, body_close: usize, var: &str) -> usize {
    let toks = &sf.lexed.tokens;
    let src = &sf.src;
    let mut depth = 0i64;
    let mut k = tok;
    while k < body_close {
        let t = &toks[k];
        if t.is_punct(b'{') {
            depth += 1;
        } else if t.is_punct(b'}') {
            depth -= 1;
            if depth < 0 {
                return k;
            }
        } else if t.kind == TokKind::Ident
            && t.ident_text(src) == "drop"
            && toks.get(k + 1).is_some_and(|n| n.is_punct(b'('))
            && toks
                .get(k + 2)
                .is_some_and(|n| n.kind == TokKind::Ident && n.ident_text(src) == var)
            && toks.get(k + 3).is_some_and(|n| n.is_punct(b')'))
        {
            return k;
        }
        k += 1;
    }
    body_close
}

/// End of the statement containing the expression at `tok`; second
/// value is true when the scan ran to the function's closing brace
/// (tail-expression position).
fn statement_end(sf: &SourceFile, tok: usize, body_close: usize) -> (usize, bool) {
    let toks = &sf.lexed.tokens;
    let src = &sf.src;
    let mut depth = 0i64;
    let mut k = tok;
    while k < body_close {
        let t = &toks[k];
        if t.is_punct(b'(') || t.is_punct(b'[') || t.is_punct(b'{') {
            depth += 1;
        } else if t.is_punct(b')') || t.is_punct(b']') {
            // An unbalanced close means the expression was nested in
            // an enclosing call — the statement continues.
            depth = (depth - 1).max(0);
        } else if t.is_punct(b'}') {
            depth -= 1;
            if depth < 0 {
                return (k, true);
            }
            if depth == 0 {
                // `if let ... { }` / `match ... { }` statement ends
                // here unless the block is part of a larger expression.
                let cont = toks.get(k + 1).is_some_and(|n| {
                    n.is_punct(b'.')
                        || n.is_punct(b'?')
                        || n.is_punct(b',')
                        || n.is_punct(b')')
                        || (n.kind == TokKind::Ident && n.ident_text(src) == "else")
                });
                if !cont {
                    return (k + 1, false);
                }
            }
        } else if t.is_punct(b';') && depth <= 0 {
            return (k, false);
        }
        k += 1;
    }
    (body_close, true)
}

/// Pass B4: propagate held-lock sets along precise call edges.
fn entry_held_fixpoint(g: &mut Graph<'_>) {
    let mut work: Vec<usize> = (0..g.fns.len()).filter(|&i| !g.fns[i].in_test).collect();
    while let Some(i) = work.pop() {
        let (entry, calls) = {
            let f = &g.fns[i];
            (f.entry_held.clone(), f.calls.clone())
        };
        for c in &calls {
            if !c.precise {
                continue;
            }
            let mut held = g.fns[i].held_at(c.tok);
            held.extend(entry.iter().cloned());
            if held.is_empty() {
                continue;
            }
            for &callee in &c.callees {
                if g.fns[callee].in_test {
                    continue;
                }
                let before = g.fns[callee].entry_held.len();
                g.fns[callee].entry_held.extend(held.iter().cloned());
                if g.fns[callee].entry_held.len() != before && !work.contains(&callee) {
                    work.push(callee);
                }
            }
        }
    }
}
