//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around each call
//! into a layer of the program; nothing inside the program is traced. A span
//! records its name, start and end (nanoseconds since the tracer was made),
//! the span that was open when it began, and the request it belongs to.
//! Everything stays in memory until [`Tracer::write_jsonl`] runs at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` when the operation runs untraced.
pub type SpanId = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    next_request: u64,
    /// Whether the current request is traced. A `--trace 1` run flips this
    /// per request so traced and untraced operations interleave.
    pub on: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            next_request: 0,
            on: false,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new request: later spans share its id, which is returned.
    pub fn request(&mut self, traced: bool) -> u64 {
        self.next_request += 1;
        self.resume(self.next_request, traced);
        self.next_request
    }

    /// Continues an earlier request: later spans carry its id again.
    pub fn resume(&mut self, request: u64, traced: bool) {
        self.request = request;
        self.on = traced;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span else { return };
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name);
        let out = f();
        self.end(s);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean duration in milliseconds of the spans named `name` (0 if none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.nanos()));
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e6
        }
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Per span name: (calls, total ms, self ms). A span's self time is its
    /// duration minus the time its direct children cover; children of one
    /// span never overlap because the benchmark runs one call at a time.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.nanos();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, &kids) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.nanos() as f64 / 1e6;
            e.2 += s.nanos().saturating_sub(kids) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_requests_record_nothing() {
        let mut t = Tracer::default();
        t.request(false);
        let v = t.span("engine.query", || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn parents_requests_and_self_time() {
        let mut t = Tracer::default();
        t.request(true);
        let root = t.begin("op.query");
        t.span("engine.query", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("baselines.brs", || ());
        t.end(root);
        let second = t.request(true);
        t.span("engine.query", || ());
        t.resume(1, true);
        t.span("baselines.brs", || ());

        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!((s[3].request, second), (2, 2));
        assert_eq!(s[4].request, s[0].request, "a resumed request keeps its id");
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert_eq!(s[0].request, s[1].request);
        assert_ne!(s[0].request, s[3].request);

        let st = t.self_times();
        let (calls, total, own) = st["op.query"];
        assert_eq!(calls, 1);
        let kids = (s[1].nanos() + s[2].nanos()) as f64 / 1e6;
        assert!((total - own - kids).abs() < 1e-9);
        assert_eq!(st["engine.query"].0, 2);
        assert!(t.mean_ms("engine.query") > 0.0);
        assert_eq!(t.mean_ms("missing"), 0.0);
    }
}
