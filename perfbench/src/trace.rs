//! In-memory span recorder for the traced run.
//!
//! A span is `{name, start, end, parent, id}` around one call into a
//! layer. Spans live in a thread-local buffer (the traced run is
//! single-threaded) and are written out when the run ends. With
//! tracing off, [`span`] costs one thread-local flag read.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::{self, Tick};

/// One recorded call into a layer. Times are nanoseconds since the
/// tracer was enabled; `parent` is 0 for a root span, ids start at 1.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub id: u32,
}

struct Tracer {
    origin: Tick,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        origin: clock::now(),
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// Starts recording on this thread with an empty buffer.
pub fn enable() {
    TRACER.with_borrow_mut(|t| {
        t.origin = clock::now();
        t.spans.clear();
        t.stack.clear();
    });
    ON.set(true);
}

/// The duration a span records around no work at all: the clock read
/// and bookkeeping inside its own interval. Median of empty spans
/// recorded on this thread. Call with tracing off: it uses the buffer.
pub fn empty_span_ns() -> u64 {
    enable();
    for _ in 0..1024 {
        span("empty", || ());
    }
    let mut durations: Vec<u64> = disable().iter().map(|s| s.end - s.start).collect();
    durations.sort_unstable();
    durations.get(durations.len() / 2).copied().unwrap_or(0)
}

/// Stops recording and hands back every span recorded since
/// [`enable`].
pub fn disable() -> Vec<Span> {
    ON.set(false);
    TRACER.with_borrow_mut(|t| {
        t.stack.clear();
        std::mem::take(&mut t.spans)
    })
}

/// Runs `f` inside a span named `name` when tracing is on.
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ON.get() {
        return f();
    }
    let id = TRACER.with_borrow_mut(|t| {
        let id = u32::try_from(t.spans.len() + 1).unwrap_or(u32::MAX);
        let parent = t.stack.last().copied().unwrap_or(0);
        let start = t.origin.elapsed_ns();
        t.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            id,
        });
        t.stack.push(id);
        id
    });
    let out = f();
    TRACER.with_borrow_mut(|t| {
        let end = t.origin.elapsed_ns();
        if let Some(s) = t.spans.get_mut(id as usize - 1) {
            s.end = end;
        }
        t.stack.pop();
    });
    out
}

/// Per-name totals of a span list.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed durations minus the time direct children cover, ns.
    pub self_ns: u64,
}

/// Aggregates spans by name, plus the time covered by root spans.
/// Self times have `bias_ns` (see [`empty_span_ns`]) taken off each
/// span, so a call split into several spans is not charged more
/// instrumentation than one traced whole.
pub fn summarize(spans: &[Span], bias_ns: u64) -> (BTreeMap<&'static str, Totals>, u64) {
    let mut child_ns = vec![0_u64; spans.len()];
    let mut roots_ns = 0_u64;
    for s in spans {
        let dur = s.end - s.start;
        match (s.parent as usize).checked_sub(1) {
            Some(p) => child_ns[p] += dur,
            None => roots_ns += dur,
        }
    }
    let mut by_name: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let dur = s.end - s.start;
        let t = by_name.entry(s.name).or_default();
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children + bias_ns);
    }
    (by_name, roots_ns)
}

/// Renders spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 64);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.start, s.end
        );
    }
    out
}
