//! Span recording for the traced runs.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span: name, start, end, parent and request id. Spans stay in memory
//! until the run ends, when they are written out and reduced to per-layer
//! self times. A span's self time is its duration minus the part of it
//! that its children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Indices of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// An in-memory span table. A disabled tracer runs the wrapped calls and
/// records nothing, so traced and untraced passes share one code path.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the span open on
    /// this thread (if any).
    pub fn span<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let index = {
            let mut spans = self.spans.lock().expect("span table poisoned");
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                request,
            });
            let index = spans.len() - 1;
            spans[index].start_ns = self.ns(Instant::now());
            index
        };
        OPEN.with(|open| open.borrow_mut().push(index));
        let out = f();
        let end = self.ns(Instant::now());
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans.lock().expect("span table poisoned")[index].end_ns = end;
        out
    }

    /// Records a root span timed elsewhere (a client-side request, say).
    pub fn record(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if self.enabled {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            let span = Span {
                name,
                start_ns,
                end_ns,
                parent: None,
                request,
            };
            self.spans.lock().expect("span table poisoned").push(span);
        }
    }

    /// The recorded spans, in start order of recording.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span table poisoned")
    }
}

/// Appends `more` to `spans`, shifting its parent indices to match.
pub fn append(spans: &mut Vec<Span>, more: Vec<Span>) {
    let base = spans.len();
    spans.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerStat {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Every span's duration, nanoseconds, in recording order.
    pub durations_ns: Vec<u64>,
}

impl LayerStat {
    /// Durations in the given unit divisor (1e3 for µs, 1e6 for ms).
    pub fn durations(&self, per: f64) -> Vec<f64> {
        self.durations_ns.iter().map(|&d| d as f64 / per).collect()
    }
}

/// Folds spans into per-name statistics.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let stat = out.entry(span.name).or_default();
        stat.calls += 1;
        stat.total_ns += span.duration_ns();
        stat.self_ns += self_ns;
        stat.durations_ns.push(span.duration_ns());
    }
    out
}

/// One `layer <name>: calls, total ms, self ms` line per span name, for
/// the run's detail file.
pub fn layer_lines(spans: &[Span]) -> Vec<String> {
    by_name(spans)
        .iter()
        .map(|(name, l)| {
            format!(
                "layer {name}: calls {} total_ms {:.3} self_ms {:.3}",
                l.calls,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6
            )
        })
        .collect()
}

/// The share of the root spans' time that no layer span accounts for:
/// the roots' self time over their total. Roots are the spans without a
/// parent whose name is in `roots`.
pub fn unattributed_frac(spans: &[Span], roots: &[&str]) -> f64 {
    let selfs = self_times(spans);
    let (mut own, mut total) = (0u64, 0u64);
    for (span, self_ns) in spans.iter().zip(selfs) {
        if span.parent.is_none() && roots.contains(&span.name) {
            own += self_ns;
            total += span.duration_ns();
        }
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

/// Writes the span table as tab-separated lines:
/// `index name start_ns end_ns parent request`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\trequest")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a` (children on another thread may overlap): the
            // union 10..40 counts once.
            span("b", 20, 40, Some(0)),
            span("c", 60, 70, Some(0)),
            // A grandchild reduces `c`, not the root.
            span("d", 62, 65, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20, 20, 7, 3]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("root", 10, 50, None), span("late", 40, 80, Some(0))];
        assert_eq!(self_times(&spans), vec![30, 40]);
    }

    #[test]
    fn by_name_and_unattributed_share() {
        let spans = vec![
            span("root", 0, 100, None),
            span("layer", 0, 60, Some(0)),
            span("root", 200, 300, None),
            span("layer", 200, 290, Some(2)),
        ];
        let stats = by_name(&spans);
        assert_eq!(stats["layer"].calls, 2);
        assert_eq!(stats["layer"].self_ns, 150);
        assert_eq!(stats["root"].self_ns, 50);
        assert_eq!(stats["root"].durations_ns, vec![100, 100]);
        assert!((unattributed_frac(&spans, &["root"]) - 0.25).abs() < 1e-12);
        assert_eq!(unattributed_frac(&spans, &["other"]), 0.0);
    }

    #[test]
    fn tracer_nests_spans_on_one_thread_and_disabled_records_nothing() {
        let tracer = Tracer::new(true);
        let v = tracer.span("outer", 7, || tracer.span("inner", 7, || 41) + 1);
        assert_eq!(v, 42);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::new(false);
        assert_eq!(off.span("x", 0, || 5), 5);
        assert!(off.into_spans().is_empty());
    }
}
