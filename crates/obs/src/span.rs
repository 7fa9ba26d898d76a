//! Scoped tracing spans with thread-local nesting.
//!
//! `span!("corpus.build")` returns a guard; while it lives, nested spans
//! record under the path `corpus.build/<child>/…`. Each thread keeps its
//! own collector — a slot table keyed by `(parent slot, name)`, so a span
//! enter/exit is two `Instant::now()` calls plus one small-map lookup,
//! with **no** allocation and **no** global lock. Slot statistics are
//! flushed into the global span table by the thread-local destructor when
//! the thread exits, or when [`flush_thread`] / [`crate::snapshot()`] runs
//! on the owning thread. A worker's flush is guaranteed visible only once
//! the thread has been *joined*: `std::thread::scope` may return as soon
//! as a scoped closure ends, before that thread's TLS destructors run, so
//! callers that read the table after a fan-out (`par_map`, the daemon's
//! worker pool) must join every handle first.
//!
//! Spans honour a global enable flag ([`set_spans_enabled`], default on)
//! checked with one relaxed load before any clock is touched, and compile
//! out entirely under feature `obs-off`.

#[cfg(not(feature = "obs-off"))]
use std::time::Instant;

/// Aggregate statistics of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed scopes.
    pub calls: u64,
    /// Total wall time, nanoseconds (includes child spans).
    pub total_ns: u64,
    /// Wall time spent in *recorded* child spans, nanoseconds
    /// (`total_ns - child_ns` is the span's self time).
    pub child_ns: u64,
}

impl SpanStat {
    /// Wall time not attributed to any recorded child span.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    #[cfg(not(feature = "obs-off"))]
    fn merge(&mut self, other: &SpanStat) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.child_ns += other.child_ns;
    }
}

/// Opens a scoped span named by a `&'static str`; the returned
/// [`SpanGuard`] records wall time and call count under the current
/// thread's span path when dropped.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

// ---------------------------------------------------------------------------
// Enabled flag

#[cfg(not(feature = "obs-off"))]
static SPANS_ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

/// Globally enables or disables span recording (cheap runtime switch; the
/// `obs-off` feature is the compile-time equivalent).
pub fn set_spans_enabled(enabled: bool) {
    #[cfg(not(feature = "obs-off"))]
    SPANS_ENABLED.store(enabled, std::sync::atomic::Ordering::Relaxed);
    #[cfg(feature = "obs-off")]
    let _ = enabled;
}

fn spans_enabled() -> bool {
    #[cfg(not(feature = "obs-off"))]
    return SPANS_ENABLED.load(std::sync::atomic::Ordering::Relaxed);
    #[cfg(feature = "obs-off")]
    false
}

// ---------------------------------------------------------------------------
// Thread-local collector

#[cfg(not(feature = "obs-off"))]
const NO_PARENT: u32 = u32::MAX;

#[cfg(not(feature = "obs-off"))]
struct Frame {
    slot: u32,
    start: Instant,
    child_ns: u64,
}

#[cfg(not(feature = "obs-off"))]
#[derive(Default)]
struct Slot {
    parent: u32,
    name: &'static str,
    stat: SpanStat,
}

#[cfg(not(feature = "obs-off"))]
#[derive(Default)]
struct Collector {
    stack: Vec<Frame>,
    slots: Vec<Slot>,
    index: std::collections::HashMap<(u32, &'static str), u32>,
}

#[cfg(not(feature = "obs-off"))]
impl Collector {
    fn enter(&mut self, name: &'static str) {
        let parent = self.stack.last().map_or(NO_PARENT, |f| f.slot);
        let slot = *self.index.entry((parent, name)).or_insert_with(|| {
            self.slots.push(Slot { parent, name, stat: SpanStat::default() });
            (self.slots.len() - 1) as u32
        });
        self.stack.push(Frame { slot, start: Instant::now(), child_ns: 0 });
    }

    fn exit(&mut self) {
        let Some(frame) = self.stack.pop() else {
            return; // unbalanced guard after a mid-span reset; ignore
        };
        let elapsed = frame.start.elapsed().as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += elapsed;
        }
        let stat = &mut self.slots[frame.slot as usize].stat;
        stat.calls += 1;
        stat.total_ns += elapsed;
        stat.child_ns += frame.child_ns;
    }

    /// Full `a/b/c` path of a slot via its parent chain.
    fn path(&self, mut slot: u32) -> String {
        let mut parts = Vec::new();
        while slot != NO_PARENT {
            let s = &self.slots[slot as usize];
            parts.push(s.name);
            slot = s.parent;
        }
        parts.reverse();
        parts.join("/")
    }

    fn flush(&mut self) {
        let recorded: Vec<(String, SpanStat)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.stat.calls > 0)
            .map(|(i, s)| (self.path(i as u32), s.stat))
            .collect();
        if recorded.is_empty() {
            return;
        }
        let mut global = global_spans().lock().expect("span table poisoned");
        for (path, stat) in recorded {
            global.entry(path).or_default().merge(&stat);
        }
        for slot in &mut self.slots {
            slot.stat = SpanStat::default();
        }
    }
}

#[cfg(not(feature = "obs-off"))]
impl Drop for Collector {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(not(feature = "obs-off"))]
thread_local! {
    static COLLECTOR: std::cell::RefCell<Collector> = std::cell::RefCell::new(Collector::default());
}

// ---------------------------------------------------------------------------
// Global span table

type SpanTable = std::sync::Mutex<std::collections::HashMap<String, SpanStat>>;

fn global_spans() -> &'static SpanTable {
    static TABLE: std::sync::OnceLock<SpanTable> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| std::sync::Mutex::new(std::collections::HashMap::new()))
}

/// An open span scope; records into the thread's collector on drop.
#[derive(Debug)]
#[must_use = "a span records when its guard drops"]
pub struct SpanGuard {
    active: bool,
}

/// Opens a span (prefer the [`span!`] macro). Returns an inert guard when
/// spans are disabled.
#[inline]
pub fn enter(name: &'static str) -> SpanGuard {
    if !spans_enabled() {
        return SpanGuard { active: false };
    }
    #[cfg(not(feature = "obs-off"))]
    {
        COLLECTOR.with(|c| c.borrow_mut().enter(name));
        // Mirror the push into the profiler's per-thread seqlock slot so
        // a sampler can snapshot the live stack lock-free.
        crate::prof::on_span_enter(name);
    }
    #[cfg(feature = "obs-off")]
    let _ = name;
    SpanGuard { active: true }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        #[cfg(not(feature = "obs-off"))]
        if self.active {
            COLLECTOR.with(|c| c.borrow_mut().exit());
            crate::prof::on_span_exit();
        }
        #[cfg(feature = "obs-off")]
        let _ = self.active;
    }
}

/// Flushes the calling thread's span statistics into the global table.
/// Worker threads flush automatically on exit; the snapshotting thread
/// calls this (via [`crate::snapshot()`]) to publish its own spans.
pub fn flush_thread() {
    #[cfg(not(feature = "obs-off"))]
    COLLECTOR.with(|c| c.borrow_mut().flush());
}

/// The flushed span table as `(path, stat)` rows sorted by path, so
/// children immediately follow their parents.
pub fn spans_snapshot() -> Vec<(String, SpanStat)> {
    let mut rows: Vec<(String, SpanStat)> = global_spans()
        .lock()
        .expect("span table poisoned")
        .iter()
        .map(|(path, stat)| (path.clone(), *stat))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// Clears the global span table and the calling thread's pending spans.
pub fn reset_spans() {
    #[cfg(not(feature = "obs-off"))]
    COLLECTOR.with(|c| {
        let collector = &mut *c.borrow_mut();
        for slot in &mut collector.slots {
            slot.stat = SpanStat::default();
        }
    });
    global_spans().lock().expect("span table poisoned").clear();
}

/// Renders `(path, stat)` rows (as from [`spans_snapshot`]) as an
/// indented tree with calls, total/self wall time and per-call mean.
pub fn render_tree(rows: &[(String, SpanStat)]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<44} {:>9} {:>11} {:>11} {:>10}\n",
        "span", "calls", "total ms", "self ms", "mean µs"
    ));
    for (path, stat) in rows {
        let depth = path.matches('/').count();
        let name = path.rsplit('/').next().unwrap_or(path);
        let label = format!("{}{}", "  ".repeat(depth), name);
        out.push_str(&format!(
            "{:<44} {:>9} {:>11.2} {:>11.2} {:>10.1}\n",
            label,
            stat.calls,
            stat.total_ns as f64 / 1e6,
            stat.self_ns() as f64 / 1e6,
            stat.total_ns as f64 / stat.calls.max(1) as f64 / 1e3,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The span table is process-global; tests assert on their own unique
    // span names so parallel execution cannot interfere, and tests that
    // toggle or depend on the global enable flag serialise on a lock.
    fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn nested_spans_record_paths_and_self_time() {
        let _guard = flag_lock();
        {
            let _outer = crate::span!("test_outer_a");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = crate::span!("test_inner_a");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        flush_thread();
        let rows = spans_snapshot();
        if cfg!(feature = "obs-off") {
            assert!(rows.iter().all(|(p, _)| !p.contains("test_outer_a")));
            return;
        }
        let outer = rows.iter().find(|(p, _)| p == "test_outer_a").expect("outer recorded");
        let inner = rows
            .iter()
            .find(|(p, _)| p == "test_outer_a/test_inner_a")
            .expect("inner nests under outer");
        assert!(outer.1.calls >= 1);
        assert!(inner.1.calls >= 1);
        assert!(outer.1.total_ns >= inner.1.total_ns);
        assert!(outer.1.child_ns >= inner.1.total_ns);
        assert!(outer.1.self_ns() <= outer.1.total_ns);
    }

    #[test]
    fn worker_threads_flush_on_exit() {
        let _guard = flag_lock();
        std::thread::scope(|scope| {
            // Joining waits for the worker's TLS destructors (the flush);
            // the scope's own implicit wait does not.
            scope
                .spawn(|| {
                    let _s = crate::span!("test_worker_span");
                })
                .join()
                .expect("span worker");
        });
        let rows = spans_snapshot();
        if cfg!(feature = "obs-off") {
            assert!(rows.iter().all(|(p, _)| p != "test_worker_span"));
        } else {
            assert!(rows.iter().any(|(p, _)| p == "test_worker_span"));
        }
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = flag_lock();
        set_spans_enabled(false);
        {
            let _s = crate::span!("test_disabled_span");
        }
        set_spans_enabled(true);
        flush_thread();
        let rows = spans_snapshot();
        assert!(rows.iter().all(|(p, _)| !p.contains("test_disabled_span")));
    }

    #[test]
    fn sibling_spans_share_a_slot() {
        let _guard = flag_lock();
        for _ in 0..3 {
            let _s = crate::span!("test_repeat_span");
        }
        flush_thread();
        let rows = spans_snapshot();
        if !cfg!(feature = "obs-off") {
            let row = rows.iter().find(|(p, _)| p == "test_repeat_span").unwrap();
            assert!(row.1.calls >= 3);
        }
    }

    #[test]
    fn render_tree_indents_children() {
        let rows = vec![
            ("a".to_string(), SpanStat { calls: 1, total_ns: 2_000_000, child_ns: 500_000 }),
            ("a/b".to_string(), SpanStat { calls: 4, total_ns: 500_000, child_ns: 0 }),
        ];
        let tree = render_tree(&rows);
        assert!(tree.contains("\na "));
        assert!(tree.contains("\n  b "));
        assert!(tree.contains("calls"));
    }
}
