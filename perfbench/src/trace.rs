//! Spans around the benchmark's calls into the library's layers.
//!
//! A span records its layer, its name, the span that caused it, its start
//! and its duration. Spans are kept in memory for the thread that enabled
//! tracing and handed back by [`finish`]. A span's self time is its
//! duration minus the time covered by its child spans; spans nest
//! strictly (one benchmark thread), so that is the sum of the children.
//! With tracing off, [`span`] is a thread-local flag check around the call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer whose public function the span wraps (a module path of
    /// the library, e.g. `datalog.engine`), or `bench` for the benchmark.
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the outermost enclosing span (the request identifier).
    pub root: usize,
    /// Start, relative to when tracing was enabled.
    pub start: Duration,
    /// Wall-clock duration.
    pub dur: Duration,
    /// Time covered by direct children.
    pub child: Duration,
}

impl Span {
    /// Duration minus the time covered by child spans.
    pub fn self_time(&self) -> Duration {
        self.dur.saturating_sub(self.child)
    }
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread (dropping any earlier record).
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stops recording and returns the spans recorded since [`enable`].
pub fn finish() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Runs `f` inside a span named `layer`/`name` when tracing is on.
pub fn span<R>(layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
    let on = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(tr) = t.as_mut() else {
            return false;
        };
        let idx = tr.spans.len();
        let parent = tr.open.last().map(|&(p, _)| p);
        let root = parent.map_or(idx, |p| tr.spans[p].root);
        let now = Instant::now();
        tr.spans.push(Span {
            layer,
            name,
            parent,
            root,
            start: now - tr.epoch,
            dur: Duration::ZERO,
            child: Duration::ZERO,
        });
        tr.open.push((idx, now));
        true
    });
    let out = f();
    if on {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let tr = t.as_mut().expect("tracer stays enabled inside a span");
            let (idx, start) = tr.open.pop().expect("span was opened");
            let dur = start.elapsed();
            tr.spans[idx].dur = dur;
            if let Some(p) = tr.spans[idx].parent {
                tr.spans[p].child += dur;
            }
        });
    }
    out
}

/// Self time summed per layer.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer).or_default() += s.self_time();
    }
    out
}

/// Writes spans as JSON lines: id, parent, trace (root id), layer, name,
/// start and duration in microseconds.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"trace\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
            s.root,
            s.layer,
            s.name,
            s.start.as_secs_f64() * 1e6,
            s.dur.as_secs_f64() * 1e6,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        enable();
        span("a", "outer", || {
            span("b", "inner", || {
                std::thread::sleep(Duration::from_millis(5))
            });
            std::thread::sleep(Duration::from_millis(2));
        });
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].root, 0);
        assert!(spans[0].child >= Duration::from_millis(5));
        assert!(spans[0].self_time() >= Duration::from_millis(2));
        assert!(spans[0].self_time() < spans[0].dur);
    }

    #[test]
    fn spans_are_free_when_off() {
        assert_eq!(span("a", "x", || 7), 7);
        assert!(finish().is_empty());
    }
}
