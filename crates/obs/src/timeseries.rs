//! Windowed time-series sampling of the global registry.
//!
//! A [`Sampler`] turns the process-lifetime counters and histograms into
//! per-interval *windows*: each [`Sampler::sample`] call freezes the
//! registry, diffs it against the previous freeze, and publishes the
//! delta — every enum-indexed counter plus every log₂ latency histogram —
//! into a bounded ring. The ring keeps the most recent `capacity`
//! windows; readers ([`Sampler::windows`]) never block the writer.
//!
//! ## Concurrency model
//!
//! The hot query path is untouched: workers keep publishing relaxed
//! `fetch_add`s to the static registry exactly as before. Only the
//! sampling tick (one caller per sampler, serialised by an internal
//! mutex over the baseline freeze) writes the ring. Each ring slot is a
//! seqlock: a per-slot sequence number (odd while the writer is mid-
//! store) brackets a flat array of `AtomicU64` cells, so readers
//! validate the sequence before and after copying and retry on a torn
//! read — lock-free reads with no `unsafe`.
//!
//! Under `obs-off` the registry reads compile to constants, `sample`
//! publishes nothing, and `windows` returns empty — the sampler is a
//! compile-time no-op like every other probe.

use crate::counter::{self, CounterId};
use crate::hist::{self, HistId, PlainHistogram, BUCKETS};
use std::sync::atomic::{
    AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::Mutex;
use std::time::Instant;

/// Default ring capacity: four minutes of one-second ticks.
pub const DEFAULT_RING_WINDOWS: usize = 240;

const N_COUNTERS: usize = CounterId::ALL.len();
const N_HISTS: usize = HistId::ALL.len();
/// Flat cell layout of one slot: `index`, `start_ms`, `duration_ns`,
/// the counter deltas, then per histogram `BUCKETS` bucket deltas plus
/// `count` and `sum_ns`.
const HIST_CELLS: usize = BUCKETS + 2;
const SLOT_CELLS: usize = 3 + N_COUNTERS + N_HISTS * HIST_CELLS;
/// Retries before a reader gives up on a slot the writer keeps lapping.
const READ_RETRIES: usize = 64;

/// One sampled interval: per-interval deltas of every counter and
/// histogram, plus enough timing to derive rates.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Monotonic window number (0 for the first sample ever published).
    pub index: u64,
    /// Start of the interval, milliseconds since the sampler was created.
    pub start_ms: u64,
    /// Wall-clock length of the interval in nanoseconds.
    pub duration_ns: u64,
    /// Per-interval counter deltas in [`CounterId::ALL`] order. Gauge
    /// counters ([`CounterId::is_gauge`]) carry the level at sample time
    /// instead of a delta.
    pub counters: [u64; N_COUNTERS],
    /// Per-interval histogram deltas in [`HistId::ALL`] order.
    pub hists: [PlainHistogram; N_HISTS],
}

impl Default for Window {
    fn default() -> Self {
        Self::empty()
    }
}

impl Window {
    /// An all-zero window.
    pub const fn empty() -> Self {
        Window {
            index: 0,
            start_ms: 0,
            duration_ns: 0,
            counters: [0; N_COUNTERS],
            hists: [PlainHistogram::new(); N_HISTS],
        }
    }

    /// The interval's delta (or level, for gauges) of one counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    /// The interval's delta of one histogram.
    pub fn hist(&self, id: HistId) -> &PlainHistogram {
        &self.hists[id as usize]
    }

    /// Interval length in seconds (0 maps to a tiny epsilon so rates
    /// stay finite).
    pub fn secs(&self) -> f64 {
        (self.duration_ns as f64 / 1e9).max(1e-9)
    }

    /// Events per second for one counter over this interval.
    pub fn rate(&self, id: CounterId) -> f64 {
        self.counter(id) as f64 / self.secs()
    }

    /// Queries completed per second (from the query-latency histogram
    /// count, so it matches what latency percentiles are computed over).
    pub fn qps(&self) -> f64 {
        self.hist(HistId::QueryLatency).count as f64 / self.secs()
    }

    /// Postings traversed per second.
    pub fn postings_per_sec(&self) -> f64 {
        self.rate(CounterId::PostingsTraversed)
    }

    /// Fraction of compressed posting blocks skipped whole this interval
    /// (0 when no blocks were walked).
    pub fn block_skip_frac(&self) -> f64 {
        let total = self.counter(CounterId::BlocksTotal);
        if total == 0 {
            0.0
        } else {
            self.counter(CounterId::BlocksSkipped) as f64 / total as f64
        }
    }

    /// Windowed query-latency percentile in microseconds (bucket-resolved
    /// nearest-rank, like the global histograms).
    pub fn latency_percentile_us(&self, p: f64) -> f64 {
        self.hist(HistId::QueryLatency).percentile_ns(p) as f64 / 1e3
    }

    fn encode(&self) -> [u64; SLOT_CELLS] {
        let mut cells = [0u64; SLOT_CELLS];
        cells[0] = self.index;
        cells[1] = self.start_ms;
        cells[2] = self.duration_ns;
        cells[3..3 + N_COUNTERS].copy_from_slice(&self.counters);
        for (h, hist) in self.hists.iter().enumerate() {
            let base = 3 + N_COUNTERS + h * HIST_CELLS;
            cells[base..base + BUCKETS].copy_from_slice(&hist.buckets);
            cells[base + BUCKETS] = hist.count;
            cells[base + BUCKETS + 1] = hist.sum_ns;
        }
        cells
    }

    fn decode(cells: &[u64; SLOT_CELLS]) -> Window {
        let mut w = Window::empty();
        w.index = cells[0];
        w.start_ms = cells[1];
        w.duration_ns = cells[2];
        w.counters.copy_from_slice(&cells[3..3 + N_COUNTERS]);
        for (h, hist) in w.hists.iter_mut().enumerate() {
            let base = 3 + N_COUNTERS + h * HIST_CELLS;
            hist.buckets.copy_from_slice(&cells[base..base + BUCKETS]);
            hist.count = cells[base + BUCKETS];
            hist.sum_ns = cells[base + BUCKETS + 1];
        }
        w
    }
}

/// One seqlock ring slot: `seq` is even when stable, odd while the
/// writer is storing `cells`.
struct Slot {
    seq: AtomicU64,
    cells: Vec<AtomicU64>,
}

impl Slot {
    fn new() -> Self {
        Slot { seq: AtomicU64::new(0), cells: (0..SLOT_CELLS).map(|_| AtomicU64::new(0)).collect() }
    }

    fn publish(&self, window: &Window) {
        let cells = window.encode();
        let seq = self.seq.load(Relaxed);
        self.seq.store(seq.wrapping_add(1), Release); // odd: write in progress
        for (cell, value) in self.cells.iter().zip(cells) {
            cell.store(value, Relaxed);
        }
        self.seq.store(seq.wrapping_add(2), Release); // even again
    }

    /// Seqlock read: `None` when the writer lapped us `READ_RETRIES`
    /// times in a row.
    fn read(&self) -> Option<Window> {
        for _ in 0..READ_RETRIES {
            let before = self.seq.load(Acquire);
            if before % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let mut cells = [0u64; SLOT_CELLS];
            for (out, cell) in cells.iter_mut().zip(&self.cells) {
                *out = cell.load(Relaxed);
            }
            // The Acquire fence below orders the cell loads before the
            // second seq check; equal sequence numbers mean no writer
            // touched the slot while we copied.
            std::sync::atomic::fence(Acquire);
            if self.seq.load(Acquire) == before {
                return Some(Window::decode(&cells));
            }
        }
        None
    }
}

/// The writer-side state: the previous registry freeze the next sample
/// is diffed against.
struct Baseline {
    counters: [u64; N_COUNTERS],
    hists: [PlainHistogram; N_HISTS],
    last_tick: Instant,
}

/// A bounded ring of per-interval [`Window`]s over the global registry.
///
/// Create one per measurement (each sampler carries its own baseline, so
/// a fresh sampler's first window covers only activity after creation),
/// call [`sample`](Sampler::sample) on a fixed tick, and read the
/// resident windows any time with [`windows`](Sampler::windows).
pub struct Sampler {
    slots: Vec<Slot>,
    /// Number of windows ever published (head of the ring).
    published: AtomicU64,
    writer: Mutex<Baseline>,
    started: Instant,
}

impl Default for Sampler {
    fn default() -> Self {
        Self::new()
    }
}

impl Sampler {
    /// A sampler with the default ring capacity
    /// ([`DEFAULT_RING_WINDOWS`]), baselined at the current registry
    /// state.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_WINDOWS)
    }

    /// A sampler retaining the most recent `capacity` windows (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let now = Instant::now();
        Sampler {
            slots: (0..capacity.max(1)).map(|_| Slot::new()).collect(),
            published: AtomicU64::new(0),
            writer: Mutex::new(Baseline {
                counters: freeze_counters(),
                hists: freeze_hists(),
                last_tick: now,
            }),
            started: now,
        }
    }

    /// Ring capacity in windows.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of windows published so far (not capped at capacity).
    pub fn published(&self) -> u64 {
        self.published.load(Acquire)
    }

    /// Freezes the registry, publishes the delta since the previous
    /// sample as a new window, and returns it. Concurrent callers are
    /// serialised on the baseline; the hot path is never blocked.
    ///
    /// Under `obs-off` the window carries real timing but all-zero
    /// counters and histograms, and nothing is published to the ring.
    pub fn sample(&self) -> Window {
        let mut base = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        let counters = freeze_counters();
        let hists = freeze_hists();

        let mut window = Window::empty();
        window.start_ms = base.last_tick.duration_since(self.started).as_millis() as u64;
        window.duration_ns = now.duration_since(base.last_tick).as_nanos() as u64;
        for (i, &id) in CounterId::ALL.iter().enumerate() {
            // Gauges carry the level, monotone counters the delta.
            window.counters[i] = if id.is_gauge() {
                counters[i]
            } else {
                counters[i].saturating_sub(base.counters[i])
            };
        }
        for (i, hist) in hists.iter().enumerate() {
            window.hists[i] = hist.saturating_delta(&base.hists[i]);
        }

        base.counters = counters;
        base.hists = hists;
        base.last_tick = now;

        if crate::PROBES_ENABLED {
            let index = self.published.load(Relaxed);
            window.index = index;
            self.slots[(index % self.slots.len() as u64) as usize].publish(&window);
            self.published.store(index + 1, Release);
        }
        window
    }

    /// The resident windows, oldest first — a lock-free snapshot.
    /// Windows the writer overwrote or tore mid-read are skipped.
    pub fn windows(&self) -> Vec<Window> {
        let head = self.published.load(Acquire);
        let cap = self.slots.len() as u64;
        let first = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - first) as usize);
        for index in first..head {
            if let Some(w) = self.slots[(index % cap) as usize].read() {
                // A slot lapped between the head load and our read holds
                // a newer window; keep only the expected index so the
                // result stays ordered oldest → newest.
                if w.index == index {
                    out.push(w);
                }
            }
        }
        out
    }

    /// Merges one histogram across every resident window.
    pub fn merged_hist(&self, id: HistId) -> PlainHistogram {
        let mut merged = PlainHistogram::new();
        for w in self.windows() {
            merged.merge_from(w.hist(id));
        }
        merged
    }

    /// Sums one counter's deltas across every resident window (for
    /// gauges this returns the most recent level instead).
    pub fn total_counter(&self, id: CounterId) -> u64 {
        let windows = self.windows();
        if id.is_gauge() {
            return windows.last().map(|w| w.counter(id)).unwrap_or(0);
        }
        windows.iter().map(|w| w.counter(id)).sum()
    }
}

fn freeze_counters() -> [u64; N_COUNTERS] {
    let mut out = [0u64; N_COUNTERS];
    for (i, &id) in CounterId::ALL.iter().enumerate() {
        out[i] = counter::get(id);
    }
    out
}

fn freeze_hists() -> [PlainHistogram; N_HISTS] {
    let mut out = [PlainHistogram::new(); N_HISTS];
    for (i, &id) in HistId::ALL.iter().enumerate() {
        out[i] = hist::freeze(id);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and other tests run in parallel, so
    // counter/histogram assertions are monotonic (≥ the activity this
    // test injected), matching the style of counter.rs tests.

    #[test]
    fn sample_captures_per_interval_deltas() {
        let s = Sampler::with_capacity(8);
        counter::add(CounterId::PostingsTraversed, 1_000);
        hist::record_ns(HistId::QueryLatency, 50_000);
        let w = s.sample();
        if crate::PROBES_ENABLED {
            assert!(w.counter(CounterId::PostingsTraversed) >= 1_000, "{w:?}");
            assert!(w.hist(HistId::QueryLatency).count >= 1);
            assert!(w.qps() > 0.0);
            assert!(w.postings_per_sec() > 0.0);
        } else {
            assert_eq!(w.counter(CounterId::PostingsTraversed), 0);
            assert_eq!(w.hist(HistId::QueryLatency).count, 0);
        }
        assert!(w.duration_ns > 0);
    }

    #[test]
    fn fresh_sampler_starts_from_current_registry_state() {
        counter::add(CounterId::DocsAnalyzed, 500);
        let s = Sampler::with_capacity(4);
        // Only activity after creation lands in the first window, so a
        // quiet interval (from this sampler's point of view nothing is
        // *guaranteed* to have happened) stays bounded by what parallel
        // tests can plausibly add — we can at least assert the window is
        // not seeded with the pre-existing 500.
        let w = s.sample();
        assert!(w.counter(CounterId::DocsAnalyzed) < 500 || !crate::PROBES_ENABLED);
    }

    #[test]
    fn ring_retains_most_recent_windows_in_order() {
        let s = Sampler::with_capacity(4);
        for _ in 0..10 {
            s.sample();
        }
        if !crate::PROBES_ENABLED {
            assert!(s.windows().is_empty());
            return;
        }
        let windows = s.windows();
        assert_eq!(s.published(), 10);
        assert_eq!(windows.len(), 4);
        let indices: Vec<u64> = windows.iter().map(|w| w.index).collect();
        assert_eq!(indices, vec![6, 7, 8, 9]);
        // start_ms is monotone across consecutive windows.
        for pair in windows.windows(2) {
            assert!(pair[0].start_ms <= pair[1].start_ms);
        }
    }

    #[test]
    fn merged_windows_fold_into_totals() {
        let s = Sampler::with_capacity(16);
        let mut injected = 0u64;
        for i in 0..5u64 {
            hist::record_ns(HistId::SnapshotLoadLatency, 1_000 * (i + 1));
            injected += 1;
            s.sample();
        }
        if crate::PROBES_ENABLED {
            assert!(s.merged_hist(HistId::SnapshotLoadLatency).count >= injected);
            assert_eq!(
                s.total_counter(CounterId::AttributionShapesResident),
                counter::get(CounterId::AttributionShapesResident)
            );
        } else {
            assert_eq!(s.merged_hist(HistId::SnapshotLoadLatency).count, 0);
        }
    }

    #[test]
    fn windowed_percentile_matches_plain_histogram() {
        let s = Sampler::with_capacity(2);
        hist::record_ns(HistId::SnapshotLoadLatency, 10_000);
        let w = s.sample();
        for p in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                w.latency_percentile_us(p),
                w.hist(HistId::QueryLatency).percentile_ns(p) as f64 / 1e3
            );
        }
    }

    #[test]
    fn block_skip_frac_is_zero_without_blocks() {
        let w = Window::empty();
        assert_eq!(w.block_skip_frac(), 0.0);
        assert_eq!(w.qps(), 0.0);
    }

    #[test]
    fn seqlock_roundtrip_is_bit_exact() {
        let slot = Slot::new();
        let mut w = Window::empty();
        w.index = 42;
        w.start_ms = 1_234;
        w.duration_ns = 1_000_000_000;
        w.counters[0] = 77;
        w.hists[0].record_ns(999);
        slot.publish(&w);
        assert_eq!(slot.read().expect("stable slot reads"), w);
    }

    #[test]
    fn lapped_slot_reads_skip_without_tearing() {
        // One writer republishing a single slot as fast as it can; the
        // readers hammer that same slot. Every window is built so all
        // its cells agree on the writer iteration (counters all equal to
        // the index, duration derived from it): a torn read — cells from
        // two different publishes — cannot satisfy the invariant. A
        // reader that keeps losing the race gets `None` (lapped, skip),
        // never a mangled window.
        let slot = std::sync::Arc::new(Slot::new());
        let publish = |index: u64| {
            let mut w = Window::empty();
            w.index = index;
            w.duration_ns = index * 3 + 1;
            w.counters = [index; N_COUNTERS];
            slot.publish(&w);
        };
        // The first publish happens before any reader starts: a pristine
        // slot reads as an all-zero window, which the invariant below
        // would misdiagnose as a tear.
        publish(0);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..2 {
            let slot = slot.clone();
            let stop = stop.clone();
            readers.push(std::thread::spawn(move || {
                let (mut seen, mut skipped) = (0u64, 0u64);
                while !stop.load(Relaxed) {
                    match slot.read() {
                        Some(w) => {
                            assert!(
                                w.counters.iter().all(|&c| c == w.index),
                                "torn read: {:?} vs index {}",
                                w.counters,
                                w.index
                            );
                            assert_eq!(w.duration_ns, w.index * 3 + 1, "torn timing");
                            seen += 1;
                        }
                        None => skipped += 1, // lapped: skipped, not torn
                    }
                }
                (seen, skipped)
            }));
        }
        for index in 1..50_000u64 {
            publish(index);
        }
        stop.store(true, Relaxed);
        let mut total_seen = 0;
        for r in readers {
            let (seen, _skipped) = r.join().expect("reader panicked");
            total_seen += seen;
        }
        assert!(total_seen > 0, "readers observed stable windows");
    }

    #[test]
    fn concurrent_readers_never_observe_torn_windows() {
        // One writer publishing distinguishable windows, several readers
        // validating internal consistency of everything they see.
        let s = std::sync::Arc::new(Sampler::with_capacity(4));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let s = s.clone();
            let stop = stop.clone();
            readers.push(std::thread::spawn(move || {
                while !stop.load(Relaxed) {
                    for w in s.windows() {
                        // Published windows always carry real timing.
                        assert!(w.duration_ns > 0 || w.index == u64::MAX, "torn: {w:?}");
                    }
                }
            }));
        }
        for _ in 0..200 {
            s.sample();
        }
        stop.store(true, Relaxed);
        for r in readers {
            r.join().expect("reader panicked");
        }
    }
}
