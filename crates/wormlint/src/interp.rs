//! The four interprocedural rules (L5-L8) evaluated over the
//! [`graph`](crate::graph) substrate, plus the machine-readable
//! lock-order audit (`wormlint.locks.v1`).
//!
//! * **L5 `lock-order` / `lock-cycle`** — every nested guard
//!   acquisition (a second lock taken while one is held, in the same
//!   fn or via the entry-held sets propagated through precise call
//!   edges) needs an adjacent `// lock-order:` justification, and the
//!   union of all observed acquisition orders must be acyclic.
//! * **L6 `hold-blocking` / `reactor-blocking`** — no blocking
//!   operation while a guard may be held on a serving path, and no
//!   blocking operation at all in any function reachable from the
//!   wormnet reactor loop (`worker_loop`), fan-out edges included.
//! * **L7 `panic-reach`** — no serving-path call may reach a function
//!   with an unjustified panic site; functions whose every panic is
//!   `allow(panic)`-justified are concentration points and firewall
//!   the search.
//! * **L8 `count-bomb`** — in codec files, allocation sizes derived
//!   from wire-read counts must be bounded (compared against a limit
//!   or clamped with `.min(..)`) before reaching
//!   `with_capacity`/`reserve`/`vec![..; n]`.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{Graph, REACTOR_ENTRIES};
use crate::lexer::TokKind;
use crate::Diag;

/// One inventoried acquisition site in the lock audit.
#[derive(Clone, Debug)]
pub struct LockSite {
    pub lock: String,
    /// `mutex` / `read` / `write`.
    pub kind: &'static str,
    pub file: String,
    pub line: u32,
    pub func: String,
    /// Some other guard may be held here.
    pub nested: bool,
    /// Text of the adjacent `// lock-order:` comment, if present.
    pub justification: Option<String>,
}

/// One observed acquisition-order edge (outer held while inner taken).
#[derive(Clone, Debug)]
pub struct LockEdge {
    pub outer: String,
    pub inner: String,
    pub file: String,
    pub line: u32,
    pub func: String,
}

/// The full lock inventory for `results/LOCK_AUDIT.json`.
#[derive(Clone, Debug, Default)]
pub struct LockAudit {
    pub sites: Vec<LockSite>,
    pub edges: Vec<LockEdge>,
    /// Locks on at least one acquisition-order cycle (empty = acyclic).
    pub cycle: Vec<String>,
}

/// L5-L8 output: diagnostics, the audit, and which allow comments were
/// consumed, per graph file (parallel to `Graph::files`).
pub struct InterpOut {
    pub diags: Vec<Diag>,
    pub audit: LockAudit,
    pub used_allows: Vec<BTreeSet<usize>>,
}

pub fn check(g: &Graph<'_>) -> InterpOut {
    let mut out = InterpOut {
        diags: Vec::new(),
        audit: LockAudit::default(),
        used_allows: vec![BTreeSet::new(); g.files.len()],
    };
    l5_lock_order(g, &mut out);
    l6_blocking(g, &mut out);
    l7_panic_reach(g, &mut out);
    for fi in 0..g.files.len() {
        l8_count_bombs(g, fi, &mut out);
    }
    out
}

/// Consumes an allow at `line` in graph file `fi`; true if present.
fn consume(g: &Graph<'_>, fi: usize, rule: &str, line: u32, out: &mut InterpOut) -> bool {
    match g.files[fi].sf.allow_for(rule, line) {
        Some(idx) => {
            out.used_allows[fi].insert(idx);
            true
        }
        None => false,
    }
}

fn l5_lock_order(g: &Graph<'_>, out: &mut InterpOut) {
    // (outer, inner) -> representative site, first observation wins.
    let mut edges: BTreeMap<(String, String), (String, u32, String)> = BTreeMap::new();
    for f in &g.fns {
        if f.in_test {
            continue;
        }
        let file = g.files[f.file].sf.path.clone();
        for a in &f.acquires {
            let mut held: BTreeSet<&str> = f.entry_held.iter().map(|s| s.as_str()).collect();
            for o in &f.acquires {
                if o.tok < a.tok && a.tok < o.scope_end {
                    held.insert(o.lock.as_str());
                }
            }
            held.remove(a.lock.as_str());
            let justification = g.files[f.file].sf.lock_order_justification(a.line);
            let nested = !held.is_empty();
            if nested && justification.is_none() {
                out.diags.push(Diag::new(
                    "L5",
                    "lock-order",
                    &file,
                    a.line,
                    format!(
                        "acquires {} ({}) while holding {} — nested acquisition needs an \
                         adjacent `// lock-order:` justification",
                        a.lock,
                        a.kind.name(),
                        join(&held),
                    ),
                ));
            }
            for h in &held {
                edges
                    .entry((h.to_string(), a.lock.clone()))
                    .or_insert_with(|| (file.clone(), a.line, f.qualified()));
            }
            out.audit.sites.push(LockSite {
                lock: a.lock.clone(),
                kind: a.kind.name(),
                file: file.clone(),
                line: a.line,
                func: f.qualified(),
                nested,
                justification,
            });
        }
    }
    out.audit
        .sites
        .sort_by(|a, b| (&a.file, a.line, &a.lock).cmp(&(&b.file, b.line, &b.lock)));
    for ((outer, inner), (file, line, func)) in &edges {
        out.audit.edges.push(LockEdge {
            outer: outer.clone(),
            inner: inner.clone(),
            file: file.clone(),
            line: *line,
            func: func.clone(),
        });
    }

    // Cycle detection: peel nodes with no remaining incoming edge; the
    // residue is the union of all cycles.
    let mut nodes: BTreeSet<String> = BTreeSet::new();
    for (outer, inner) in edges.keys() {
        nodes.insert(outer.clone());
        nodes.insert(inner.clone());
    }
    loop {
        let removable: Vec<String> = nodes
            .iter()
            .filter(|n| {
                !edges
                    .keys()
                    .any(|(o, i)| i == *n && nodes.contains(o) && o != i)
            })
            .cloned()
            .collect();
        if removable.is_empty() {
            break;
        }
        for n in removable {
            nodes.remove(&n);
        }
    }
    if !nodes.is_empty() {
        out.audit.cycle = nodes.iter().cloned().collect();
        // One diagnostic, at the lexicographically smallest edge
        // inside the residue.
        if let Some(((outer, inner), (file, line, func))) = edges
            .iter()
            .find(|((o, i), _)| nodes.contains(o) && nodes.contains(i))
        {
            out.diags.push(Diag::new(
                "L5",
                "lock-cycle",
                file,
                *line,
                format!(
                    "acquisition-order cycle through {{{}}} — {} takes {} after {}, \
                     closing the cycle",
                    out.audit.cycle.join(", "),
                    func,
                    inner,
                    outer,
                ),
            ));
        }
    }
}

fn l6_blocking(g: &Graph<'_>, out: &mut InterpOut) {
    // Part 1: blocking while a guard may be held, on serving paths.
    for f in &g.fns {
        if f.in_test || !f.serving {
            continue;
        }
        let file = &g.files[f.file].sf.path;
        for b in &f.blocking {
            let mut held = f.held_at(b.tok);
            held.extend(f.entry_held.iter().cloned());
            if held.is_empty() {
                continue;
            }
            if consume(g, f.file, "blocking", b.line, out) {
                continue;
            }
            let held: BTreeSet<&str> = held.iter().map(|s| s.as_str()).collect();
            out.diags.push(Diag::new(
                "L6",
                "hold-blocking",
                file,
                b.line,
                format!(
                    "blocking {} while {} may be held — drop the guard first",
                    b.what,
                    join(&held),
                ),
            ));
        }
    }

    // Part 2: nothing blocking is reachable from the reactor loop.
    // Reachability walks every edge, fan-out included: a miss here is
    // a violated paper invariant, so over-approximate.
    let mut reach: BTreeMap<usize, Option<usize>> = BTreeMap::new(); // fn -> BFS parent
    let mut queue: Vec<usize> = Vec::new();
    for (i, f) in g.fns.iter().enumerate() {
        if !f.in_test && f.serving && REACTOR_ENTRIES.contains(&f.name.as_str()) {
            reach.insert(i, None);
            queue.push(i);
        }
    }
    while let Some(i) = queue.pop() {
        for c in &g.fns[i].calls {
            for &callee in &c.callees {
                if g.fns[callee].in_test || reach.contains_key(&callee) {
                    continue;
                }
                reach.insert(callee, Some(i));
                queue.push(callee);
            }
        }
    }
    let path_to = |mut i: usize| -> String {
        let mut segs = vec![g.fns[i].qualified()];
        while let Some(Some(p)) = reach.get(&i) {
            segs.push(g.fns[*p].qualified());
            if segs.len() > 8 {
                break;
            }
            i = *p;
        }
        segs.reverse();
        segs.join(" -> ")
    };
    for &i in reach.keys() {
        let f = &g.fns[i];
        let file = &g.files[f.file].sf.path;
        for b in &f.blocking {
            if consume(g, f.file, "blocking", b.line, out) {
                continue;
            }
            out.diags.push(Diag::new(
                "L6",
                "reactor-blocking",
                file,
                b.line,
                format!(
                    "blocking {} is reachable from the reactor loop ({})",
                    b.what,
                    path_to(i),
                ),
            ));
        }
    }
}

fn l7_panic_reach(g: &Graph<'_>, out: &mut InterpOut) {
    // Concentration points: every panic justified, none naked. They
    // firewall the search — a documented panic boundary is where
    // reachability stops.
    let mut conc: BTreeSet<usize> = BTreeSet::new();
    let mut sources: BTreeMap<usize, (String, u32)> = BTreeMap::new();
    for (i, f) in g.fns.iter().enumerate() {
        if f.in_test || f.panics.is_empty() {
            continue;
        }
        // A justified panic marks a concentration point; in the
        // non-serving graph crates (wormcrypt) L1 never runs, so the
        // allow is consumed here instead.
        for p in f.panics.iter().filter(|p| p.allowed) {
            consume(g, f.file, "panic", p.line, out);
        }
        match f.panics.iter().find(|p| !p.allowed) {
            Some(p) => {
                sources.insert(i, (p.what.clone(), p.line));
            }
            None => {
                conc.insert(i);
            }
        }
    }

    // Backward reachability with `allow(panic-reach)` edge cuts. The
    // step map records, for each reaching fn, the callee it reaches a
    // panic through (for witness paths).
    let mut reach: BTreeSet<usize> = sources.keys().copied().collect();
    let mut step: BTreeMap<usize, usize> = BTreeMap::new();
    loop {
        let mut changed = false;
        for (i, f) in g.fns.iter().enumerate() {
            if f.in_test || reach.contains(&i) || conc.contains(&i) {
                continue;
            }
            for c in &f.calls {
                let Some(&hit) = c.callees.iter().find(|x| reach.contains(x)) else {
                    continue;
                };
                if g.files[f.file]
                    .sf
                    .allow_for("panic-reach", c.line)
                    .is_some()
                {
                    continue;
                }
                reach.insert(i);
                step.insert(i, hit);
                changed = true;
                break;
            }
        }
        if !changed {
            break;
        }
    }

    let witness = |start: usize| -> String {
        let mut segs = vec![g.fns[start].qualified()];
        let mut i = start;
        while let Some(&n) = step.get(&i) {
            segs.push(g.fns[n].qualified());
            if segs.len() > 8 {
                break;
            }
            i = n;
        }
        if let Some((what, line)) = sources.get(&i) {
            let file = &g.files[g.fns[i].file].sf.path;
            segs.push(format!("{what} at {file}:{line}"));
        }
        segs.join(" -> ")
    };

    // Diagnostics at serving-path call sites whose callee set reaches
    // a panic; an adjacent allow(panic-reach) cuts the edge (and is
    // consumed only when it actually cuts one).
    for f in &g.fns {
        if f.in_test || !f.serving {
            continue;
        }
        let file = &g.files[f.file].sf.path;
        for c in &f.calls {
            let Some(&hit) = c.callees.iter().find(|x| reach.contains(x)) else {
                continue;
            };
            if consume(g, f.file, "panic-reach", c.line, out) {
                continue;
            }
            out.diags.push(Diag::new(
                "L7",
                "panic-reach",
                file,
                c.line,
                format!("call to {} can panic: {}", c.name, witness(hit)),
            ));
        }
    }
}

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

fn l8_count_bombs(g: &Graph<'_>, fi: usize, out: &mut InterpOut) {
    if !g.files[fi].codec {
        return;
    }
    let sf = g.files[fi].sf;
    let toks = &sf.lexed.tokens;
    let src = &sf.src;
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    let mut k = 0usize;
    while k < toks.len() {
        let t = &toks[k];
        if t.kind != TokKind::Ident || sf.in_test(t.line) {
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
                check_sink_args(g, fi, k, &tainted, out);
            }
            "vec" if toks.get(k + 1).is_some_and(|n| n.is_punct(b'!')) => {
                check_vec_macro(g, fi, k, &tainted, out);
            }
            _ => {}
        }
        k += 1;
    }
}

/// Flags a sink call whose arguments carry an unbounded wire count.
fn check_sink_args(
    g: &Graph<'_>,
    fi: usize,
    sink_tok: usize,
    tainted: &BTreeSet<String>,
    out: &mut InterpOut,
) {
    let sf = g.files[fi].sf;
    let toks = &sf.lexed.tokens;
    let src = &sf.src;
    let line = toks[sink_tok].line;
    let sink = toks[sink_tok].ident_text(src).to_string();
    let mut depth = 0i64;
    let mut m = sink_tok + 1;
    let mut bad: Option<String> = None;
    while m < toks.len() {
        let u = &toks[m];
        if u.is_punct(b'(') || u.is_punct(b'[') {
            depth += 1;
        } else if u.is_punct(b')') || u.is_punct(b']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if u.kind == TokKind::Ident {
            let n = u.ident_text(src);
            if L8_CLAMPS.contains(&n) {
                return; // `n.min(r.remaining())` and friends
            }
            if bad.is_none() && (tainted.contains(n) || L8_SOURCES.contains(&n)) {
                bad = Some(n.to_string());
            }
        }
        m += 1;
    }
    if let Some(what) = bad {
        if !consume(g, fi, "count-bomb", line, out) {
            out.diags.push(Diag::new(
                "L8",
                "count-bomb",
                &sf.path,
                line,
                format!(
                    "{sink}({what}) sizes an allocation from an unbounded wire count — \
                     compare against a limit or clamp with `.min(..)` first"
                ),
            ));
        }
    }
}

/// Flags `vec![elem; n]` where `n` carries an unbounded wire count.
fn check_vec_macro(
    g: &Graph<'_>,
    fi: usize,
    vec_tok: usize,
    tainted: &BTreeSet<String>,
    out: &mut InterpOut,
) {
    let sf = g.files[fi].sf;
    let toks = &sf.lexed.tokens;
    let src = &sf.src;
    let line = toks[vec_tok].line;
    let mut depth = 0i64;
    let mut m = vec_tok + 2;
    let mut after_semi = false;
    let mut bad: Option<String> = None;
    while m < toks.len() {
        let u = &toks[m];
        if u.is_punct(b'(') || u.is_punct(b'[') || u.is_punct(b'{') {
            depth += 1;
        } else if u.is_punct(b')') || u.is_punct(b']') || u.is_punct(b'}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if u.is_punct(b';') && depth == 1 {
            after_semi = true;
        } else if after_semi && u.kind == TokKind::Ident {
            let n = u.ident_text(src);
            if L8_CLAMPS.contains(&n) {
                return;
            }
            if bad.is_none() && (tainted.contains(n) || L8_SOURCES.contains(&n)) {
                bad = Some(n.to_string());
            }
        }
        m += 1;
    }
    if let Some(what) = bad {
        if !consume(g, fi, "count-bomb", line, out) {
            out.diags.push(Diag::new(
                "L8",
                "count-bomb",
                &sf.path,
                line,
                format!(
                    "vec![..; {what}] sizes an allocation from an unbounded wire count — \
                     compare against a limit or clamp with `.min(..)` first"
                ),
            ));
        }
    }
}

fn join(set: &BTreeSet<&str>) -> String {
    set.iter().copied().collect::<Vec<_>>().join(", ")
}

/// Serializes the lock audit as `wormlint.locks.v1`.
pub fn locks_to_json(audit: &LockAudit) -> String {
    let mut s = String::from("{\n  \"schema\": \"wormlint.locks.v1\",\n");
    s.push_str(&format!(
        "  \"acyclic\": {},\n  \"cycle\": [{}],\n",
        audit.cycle.is_empty(),
        audit
            .cycle
            .iter()
            .map(|c| format!("\"{}\"", crate::json_escape(c)))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    s.push_str("  \"sites\": [\n");
    for (i, site) in audit.sites.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"lock\": \"{}\", \"kind\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"fn\": \"{}\", \"nested\": {}, \"justification\": {}}}{}\n",
            crate::json_escape(&site.lock),
            site.kind,
            crate::json_escape(&site.file),
            site.line,
            crate::json_escape(&site.func),
            site.nested,
            match &site.justification {
                Some(j) => format!("\"{}\"", crate::json_escape(j)),
                None => "null".to_string(),
            },
            if i + 1 == audit.sites.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n  \"edges\": [\n");
    for (i, e) in audit.edges.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"outer\": \"{}\", \"inner\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"fn\": \"{}\"}}{}\n",
            crate::json_escape(&e.outer),
            crate::json_escape(&e.inner),
            crate::json_escape(&e.file),
            e.line,
            crate::json_escape(&e.func),
            if i + 1 == audit.edges.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
