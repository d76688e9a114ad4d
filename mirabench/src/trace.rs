//! In-memory spans for the traced run.
//!
//! Each thread records into its own tracer; spans carry a name, start
//! and end (ns since the run's origin), the enclosing span and the id
//! of the operation they belong to. Nothing is written until the run
//! ends. When no tracer is active on a thread, [`span`] only calls its
//! closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::Samples;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, timestamps relative to `origin`.
pub fn start(origin: Instant) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin,
            // Reserved up front so recording rarely allocates inside the
            // windows whose allocations are counted.
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            op: 0,
        });
    });
}

/// Stops recording on this thread and returns its spans.
pub fn finish() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Tags the spans that follow with operation id `op`.
pub fn set_op(op: u64) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.op = op;
        }
    });
}

fn enter(name: &'static str) -> Option<usize> {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let t = guard.as_mut()?;
        let start_ns = t.ns(Instant::now());
        let id = t.spans.len();
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: t.open.last().copied(),
            op: t.op,
        });
        t.open.push(id);
        Some(id)
    })
}

fn exit(id: usize) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            let end_ns = t.ns(Instant::now());
            if let Some(span) = t.spans.get_mut(id) {
                span.end_ns = end_ns;
            }
            t.open.retain(|&open| open != id);
        }
    });
}

/// Runs `f` inside a span called `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = enter(name);
    let out = f();
    if let Some(id) = id {
        exit(id);
    }
    out
}

/// Records a span whose bounds the caller measured itself (a request
/// timed from send to reply), under the innermost open span.
pub fn record(name: &'static str, start: Instant, end: Instant) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            let span = Span {
                name,
                start_ns: t.ns(start),
                end_ns: t.ns(end),
                parent: t.open.last().copied(),
                op: t.op,
            };
            t.spans.push(span);
        }
    });
}

/// Appends spans recorded on another thread, keeping parent links.
pub fn append(dst: &mut Vec<Span>, src: Vec<Span>) {
    let offset = dst.len();
    dst.extend(src.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = s.parent.and_then(|p| children.get_mut(p)) {
            kids.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Total duration of the spans called `name`, per operation id.
pub fn per_op_ns(spans: &[Span], name: &str) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.op).or_insert(0) += s.duration_ns();
    }
    out
}

/// Median over operations of the total duration of the spans called
/// `name` in each; 0 without such spans.
pub fn per_op_median_ns(spans: &[Span], name: &str) -> f64 {
    let mut s = Samples::default();
    for ns in per_op_ns(spans, name).values() {
        s.push(*ns as f64);
    }
    s.median()
}

/// One JSON object per span, with its self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            s("op", 0, 100, None),
            s("a", 10, 30, Some(0)),
            s("b", 20, 40, Some(0)),
            // Sticks out past the parent's end: only [90, 100) counts.
            s("c", 90, 120, Some(0)),
            s("leaf", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6]);
        let t = totals(&spans);
        assert_eq!(t["op"].self_ns, 60);
        assert_eq!(t["a"].total_ns, 20);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        start(Instant::now());
        set_op(3);
        let v = span("outer", || span("inner", || 7));
        assert_eq!(v, 7);
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let self_ns = self_times(&spans);
        assert_eq!(self_ns[0] + spans[1].duration_ns(), spans[0].duration_ns());
        assert!(to_jsonl(&spans).lines().count() == 2);
        let mut merged = vec![s("other", 0, 1, None)];
        append(&mut merged, spans);
        assert_eq!(merged[2].parent, Some(1));
    }

    #[test]
    fn inactive_tracer_records_nothing() {
        assert_eq!(span("x", || 1), 1);
        assert!(finish().is_empty());
    }
}
