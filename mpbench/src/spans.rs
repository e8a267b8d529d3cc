//! In-memory spans recorded by the benchmark around each call into a
//! layer. Spans stay in memory and are written once, at the end of the
//! traced run; per-name totals (count, duration, time covered by child
//! spans) are kept for every span, stored or not, so self time is exact
//! even when the stored list is capped.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// No parent, or a parent that was not stored.
pub const NONE: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the stored list, or [`NONE`].
    pub parent: u32,
    /// Request id shared by every span of one request.
    pub req: u32,
}

#[derive(Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub child_ns: u64,
}

impl Totals {
    /// Time inside this span name that no child span covers.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

struct Open {
    name: &'static str,
    index: u32,
    start_ns: u64,
    child_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    totals: BTreeMap<&'static str, Totals>,
    open: Vec<Open>,
}

impl Tracer {
    /// Store at most `cap` spans; later ones only feed the totals.
    pub fn new(epoch: Instant, cap: usize) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
            dropped: 0,
            totals: BTreeMap::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn store(&mut self, name: &'static str, start_ns: u64, req: u32) -> u32 {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return NONE;
        }
        let parent = self.open.last().map_or(NONE, |o| o.index);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    /// Open a span that encloses the spans recorded until [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, req: u32) {
        let start_ns = self.ns(Instant::now());
        let index = self.store(name, start_ns, req);
        self.open.push(Open {
            name,
            index,
            start_ns,
            child_ns: 0,
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.ns(Instant::now());
        let o = self.open.pop().expect("end() matches a begin()");
        if o.index != NONE {
            self.spans[o.index as usize].end_ns = end_ns;
        }
        self.close(o.name, end_ns - o.start_ns, o.child_ns);
    }

    /// Record a span with no children that ran from `start` to `end`.
    pub fn leaf(&mut self, name: &'static str, req: u32, start: Instant, end: Instant) {
        let (s, e) = (self.ns(start), self.ns(end));
        let index = self.store(name, s, req);
        if index != NONE {
            self.spans[index as usize].end_ns = e;
        }
        self.close(name, e - s, 0);
    }

    fn close(&mut self, name: &'static str, dur: u64, child_ns: u64) {
        let t = self.totals.entry(name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.child_ns += child_ns;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
    }

    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Sum of every span name's self time: the traced wall time that the
    /// spans account for.
    pub fn attributed_ns(&self) -> u64 {
        self.totals.values().map(Totals::self_ns).sum()
    }

    /// Fold another thread's tracer into this one (its stored spans keep
    /// their own parent indices, shifted past ours).
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        for mut s in other.spans {
            if self.spans.len() >= self.cap {
                self.dropped += 1;
                continue;
            }
            s.parent = if s.parent == NONE {
                NONE
            } else {
                s.parent + base
            };
            s.start_ns += shift;
            s.end_ns += shift;
            self.spans.push(s);
        }
        self.dropped += other.dropped;
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.child_ns += t.child_ns;
        }
    }

    /// Write the stored spans as JSON lines, plus a trailing line with the
    /// number of spans that did not fit.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        writeln!(w, "{{\"dropped_spans\":{}}}", self.dropped)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), 16);
        t.begin("outer", 0);
        let a = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.leaf("inner", 0, a, Instant::now());
        t.end();
        let outer = t.totals("outer");
        let inner = t.totals("inner");
        assert_eq!(inner.count, 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.child_ns, inner.total_ns);
        assert_eq!(t.attributed_ns(), outer.total_ns);
        assert_eq!(t.spans[1].parent, 0);
    }

    #[test]
    fn cap_keeps_totals_exact() {
        let mut t = Tracer::new(Instant::now(), 1);
        let now = Instant::now();
        for _ in 0..5 {
            t.leaf("x", 7, now, now);
        }
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.dropped, 4);
        assert_eq!(t.totals("x").count, 5);
    }
}
