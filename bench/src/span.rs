//! The benchmark's own spans, taken around calls into the program
//! (never inside it): kept in memory, written out at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval. `parent` is the index + 1 of the span that
/// caused it (0 for a root); spans of one request share `req`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store with one time origin.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Records a finished span and returns its id (usable as `parent`).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        req: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        self.spans.len() as u32
    }

    /// Opens a span whose end is not known yet; [`Recorder::close`] sets it.
    pub fn open(&mut self, name: &'static str, start_ns: u64, parent: u32, req: u32) -> u32 {
        self.push(name, start_ns, start_ns, parent, req)
    }

    pub fn close(&mut self, id: u32, end_ns: u64) {
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Times `f` as a root span of request `req`.
    pub fn time<T>(&mut self, name: &'static str, req: u32, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, start, end, 0, req);
        out
    }

    /// One JSON object per line: name, start, end (ns since the run's
    /// origin), parent span id (line number, 0 = root), request id.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.req
            )?;
        }
        Ok(())
    }
}

/// Per span name: how many, total duration, and total self time (the
/// duration minus the part of the interval its children cover).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }

    pub fn mean_self_ns(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    // Children of one parent never overlap here (one thread records
    // them in sequence), so covered time is the sum of their
    // durations, clipped to the parent's interval.
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != 0 {
            let p = &spans[s.parent as usize - 1];
            let clipped = s
                .end_ns
                .min(p.end_ns)
                .saturating_sub(s.start_ns.max(p.start_ns));
            covered[s.parent as usize - 1] += clipped;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::new();
        let root = r.open("req", 100, 0, 7);
        r.push("client.send", 100, 130, root, 7);
        r.push("client.recv", 400, 480, root, 7);
        r.push("client.verify", 480, 500, root, 7);
        r.close(root, 500);
        let t = totals(&r.spans);
        assert_eq!(t["req"].total_ns, 400);
        assert_eq!(t["req"].self_ns, 400 - 30 - 80 - 20);
        assert_eq!(t["client.recv"].self_ns, 80);
    }

    #[test]
    fn child_overhang_is_clipped() {
        let mut r = Recorder::new();
        let root = r.push("root", 100, 140, 0, 0);
        r.push("child", 90, 150, root, 0);
        assert_eq!(totals(&r.spans)["root"].self_ns, 0);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut r = Recorder::new();
        r.push("stage.frame", 1, 2, 0, 3);
        let mut out = Vec::new();
        r.write_jsonl(&mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"name\":\"stage.frame\",\"start_ns\":1,\"end_ns\":2,\"parent\":0,\"req\":3}\n"
        );
    }
}
