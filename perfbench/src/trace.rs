//! In-memory span recorder, self-time accounting and Chrome trace export.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer: the seam decorators in [`crate::seams`] and the call sites
//! in [`crate::workload`].  A span's parent is the innermost span open on
//! the same thread, or — on a thread with nothing open, such as a shard
//! worker — the span registered with [`Tracer::set_root`].  Spans are kept
//! in memory and written out once, after the measurement.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::{number, string};

const NO_SPAN: usize = usize::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Operation name, e.g. `step` or `write`.
    pub name: &'static str,
    /// Layer (workspace crate) the call goes into.
    pub layer: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// The solve this span belongs to.
    pub solve: u64,
    /// Recording thread (small dense ids, for the trace viewer).
    pub tid: u64,
    /// Bytes the call moved (backend operations), else 0.
    pub bytes: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// The span recorder shared by every seam of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    solve: AtomicU64,
    root: AtomicUsize,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; its creation instant is time zero.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            solve: AtomicU64::new(0),
            root: AtomicUsize::new(NO_SPAN),
        }
    }

    /// Tags every span recorded from now on with solve `id`.
    pub fn set_solve(&self, id: u64) {
        self.solve.store(id, Ordering::Relaxed);
    }

    /// Makes span `id` the parent of spans opened on threads that have no
    /// open span of their own (`None` clears it).
    pub fn set_root(&self, id: Option<usize>) {
        self.root.store(id.unwrap_or(NO_SPAN), Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `t` in nanoseconds since the tracer was created (0 if earlier).
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, layer: &'static str) -> usize {
        let parent = OPEN.with(|open| open.borrow().last().copied()).or_else(|| {
            let root = self.root.load(Ordering::Relaxed);
            (root != NO_SPAN).then_some(root)
        });
        let span = Span {
            name,
            layer,
            start_ns: 0,
            end_ns: 0,
            parent,
            solve: self.solve.load(Ordering::Relaxed),
            tid: TID.with(|t| *t),
            bytes: 0,
        };
        let id = {
            let mut spans = self.spans.lock().expect("span log poisoned by a panic");
            spans.push(span);
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        let start = self.now_ns();
        self.spans.lock().expect("span log poisoned by a panic")[id].start_ns = start;
        id
    }

    /// Closes span `id`, recording `bytes` moved by the call.
    pub fn end(&self, id: usize, bytes: u64) {
        let end = self.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&s| s == id) {
                open.truncate(pos);
            }
        });
        let mut spans = self.spans.lock().expect("span log poisoned by a panic");
        spans[id].end_ns = end.max(spans[id].start_ns);
        spans[id].bytes = bytes;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, layer);
        let out = f();
        self.end(id, 0);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned by a panic")
            .clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children, such as two shard
/// threads, are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            s.dur_ns()
                .saturating_sub(covered_ns(s, &children[i], spans))
        })
        .collect()
}

/// Nanoseconds of `parent`'s interval covered by the union of `kids`.
pub fn covered_ns(parent: &Span, kids: &[usize], spans: &[Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|&k| {
            (
                spans[k].start_ns.max(parent.start_ns),
                spans[k].end_ns.min(parent.end_ns),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// The spans as Chrome trace-event JSON (complete `X` events, timestamps
/// in microseconds), which chrome://tracing and Perfetto open.
pub fn chrome_trace_json(spans: &[Span], process_name: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    out.push_str(&format!(
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"args\": {{\"name\": {}}}}}",
        string(process_name)
    ));
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            ",\n{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"span\": {i}, \"parent\": {}, \"solve\": {}, \"bytes\": {}}}}}",
            string(s.name),
            string(s.layer),
            s.tid,
            number(s.start_ns as f64 / 1e3),
            number(s.dur_ns() as f64 / 1e3),
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.solve,
            s.bytes
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            layer: "l",
            start_ns: start,
            end_ns: end,
            parent,
            solve: 0,
            tid: 1,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(80, 120, Some(0)),
        ];
        let st = self_times_ns(&spans);
        // Children cover 10..60 and 80..100 of the parent: 70 ns.
        assert_eq!(st[0], 30);
        assert_eq!(st[1], 30);
    }

    #[test]
    fn nesting_follows_the_thread_stack_and_root() {
        let t = Tracer::new();
        let outer = t.begin("outer", "a");
        t.span("inner", "b", || ());
        t.end(outer, 0);
        t.set_root(Some(outer));
        let worker = std::thread::scope(|s| s.spawn(|| t.span("w", "c", || ())).join());
        assert!(worker.is_ok());
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(chrome_trace_json(&spans, "x").contains("\"ph\": \"X\""));
    }
}
