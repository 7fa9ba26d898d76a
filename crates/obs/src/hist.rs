//! Log-bucketed latency histograms.
//!
//! Each histogram is a fixed array of 64 power-of-two nanosecond buckets
//! (`bucket b` covers `[2^(b-1), 2^b)` ns) plus exact count/sum, all
//! relaxed atomics — recording from `par_map` workers needs no
//! coordination, and two histograms merge bucket-wise. Percentiles are
//! resolved to the upper bound of the covering bucket, i.e. within 2× of
//! the true order statistic, which is plenty for regression tracking.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
#[cfg(not(feature = "obs-off"))]
use std::time::Instant;

/// Number of power-of-two buckets in every histogram.
pub const BUCKETS: usize = 64;

/// One global latency histogram. Names are the JSON keys of the
/// `metrics.histograms` section of `BENCH_<scale>.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistId {
    /// Full single-query serving latency (analyse + retrieve + rank).
    QueryLatency,
    /// Per-document Fig. 4 pipeline latency during corpus analysis.
    AnalyzeDocLatency,
    /// Full evidence-walk latency of one `Attribution::compute`.
    AttributionComputeLatency,
    /// Full `store::load_sharded` latency: manifest read + checksum +
    /// study decode + every shard's verify-then-map open.
    SnapshotLoadLatency,
}

impl HistId {
    /// Every histogram, in rendering order.
    pub const ALL: [HistId; 4] = [
        HistId::QueryLatency,
        HistId::AnalyzeDocLatency,
        HistId::AttributionComputeLatency,
        HistId::SnapshotLoadLatency,
    ];

    /// The histogram's snake_case name (JSON key and table label).
    pub const fn name(self) -> &'static str {
        match self {
            HistId::QueryLatency => "query_latency",
            HistId::AnalyzeDocLatency => "analyze_doc_latency",
            HistId::AttributionComputeLatency => "attribution_compute_latency",
            HistId::SnapshotLoadLatency => "snapshot_load_latency",
        }
    }
}

/// A mergeable, thread-safe log-bucketed histogram of nanosecond values.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

// See counter.rs: const-item repetition creates independent atomics.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram { buckets: [ZERO; BUCKETS], count: AtomicU64::new(0), sum_ns: AtomicU64::new(0) }
    }

    /// Records one nanosecond observation.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let b = (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[b].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum_ns.fetch_add(ns, Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of recorded nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Relaxed)
    }

    /// Adds every observation of `other` into `self` (bucket-wise; used to
    /// fold worker-local histograms into a global one).
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Relaxed);
            if n > 0 {
                mine.fetch_add(n, Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Relaxed), Relaxed);
        self.sum_ns.fetch_add(other.sum_ns.load(Relaxed), Relaxed);
    }

    /// The `p`-th percentile (`0.0..=1.0`) in nanoseconds, resolved to the
    /// upper bound of the covering bucket; 0 when empty.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        self.freeze().percentile_ns(p)
    }

    /// Freezes the atomic histogram into a [`PlainHistogram`] value (one
    /// relaxed load per bucket; no coordination with writers, so a freeze
    /// taken mid-record may be off by in-flight observations).
    pub fn freeze(&self) -> PlainHistogram {
        let mut out = PlainHistogram::new();
        for (b, bucket) in self.buckets.iter().enumerate() {
            out.buckets[b] = bucket.load(Relaxed);
        }
        out.count = self.count.load(Relaxed);
        out.sum_ns = self.sum_ns.load(Relaxed);
        out
    }

    /// Freezes the histogram into a plain summary.
    pub fn summarize(&self) -> HistogramSummary {
        self.freeze().summarize()
    }

    /// Clears every bucket.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum_ns.store(0, Relaxed);
    }
}

/// Upper bound of bucket `b` in nanoseconds.
pub fn bucket_upper_ns(b: usize) -> u64 {
    if b >= 63 {
        u64::MAX
    } else {
        1u64 << b
    }
}

/// A frozen (non-atomic) histogram value: the same 64 power-of-two
/// nanosecond buckets as [`Histogram`], but plain `u64`s, so it can be
/// copied into time-series windows, diffed, merged and serialised without
/// touching the atomic registry. `Histogram::freeze` produces one;
/// [`PlainHistogram::merge_from`] folds windows back together bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlainHistogram {
    /// Per-bucket observation counts (`bucket b` covers `[2^(b-1), 2^b)` ns).
    pub buckets: [u64; BUCKETS],
    /// Total number of observations.
    pub count: u64,
    /// Exact sum of observed nanoseconds.
    pub sum_ns: u64,
}

impl Default for PlainHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl PlainHistogram {
    /// An empty frozen histogram.
    pub const fn new() -> Self {
        PlainHistogram { buckets: [0; BUCKETS], count: 0, sum_ns: 0 }
    }

    /// Records one nanosecond observation (same bucketing as
    /// [`Histogram::record_ns`]).
    pub fn record_ns(&mut self, ns: u64) {
        let b = (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[b] += 1;
        self.count += 1;
        // The atomic histogram's fetch_add wraps on overflow; match it.
        self.sum_ns = self.sum_ns.wrapping_add(ns);
    }

    /// Adds every observation of `other` into `self`, bucket-wise.
    pub fn merge_from(&mut self, other: &PlainHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.wrapping_add(other.sum_ns);
    }

    /// The per-interval delta `self − prev`. A registry reset between
    /// freezes (visible as a shrinking count) yields an empty window
    /// instead of garbage; otherwise buckets and count subtract exactly
    /// and the sum subtracts modulo 2⁶⁴, matching the wrapping adds of
    /// the recorders, so merging deltas stays bit-exact even across a
    /// sum overflow.
    pub fn saturating_delta(&self, prev: &PlainHistogram) -> PlainHistogram {
        if self.count < prev.count {
            return PlainHistogram::new();
        }
        let mut out = PlainHistogram::new();
        for (b, (cur, old)) in self.buckets.iter().zip(&prev.buckets).enumerate() {
            out.buckets[b] = cur.saturating_sub(*old);
        }
        out.count = self.count - prev.count;
        out.sum_ns = self.sum_ns.wrapping_sub(prev.sum_ns);
        out
    }

    /// The `p`-th percentile (`0.0..=1.0`) in nanoseconds, resolved to the
    /// upper bound of the covering bucket; 0 when empty. Identical
    /// nearest-rank semantics to [`Histogram::percentile_ns`].
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Nearest-rank over buckets: the smallest bucket whose cumulative
        // count reaches ceil(p · count).
        let target = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= target {
                return bucket_upper_ns(b);
            }
        }
        bucket_upper_ns(BUCKETS - 1)
    }

    /// Summarises the frozen histogram.
    pub fn summarize(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean_us: if self.count == 0 {
                0.0
            } else {
                self.sum_ns as f64 / self.count as f64 / 1e3
            },
            p50_us: self.percentile_ns(0.50) as f64 / 1e3,
            p90_us: self.percentile_ns(0.90) as f64 / 1e3,
            p99_us: self.percentile_ns(0.99) as f64 / 1e3,
            max_us: self.percentile_ns(1.0) as f64 / 1e3,
        }
    }
}

/// A frozen histogram: exact count and mean, bucket-resolved percentiles
/// in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Exact mean (from the atomic sum), microseconds.
    pub mean_us: f64,
    /// Median, resolved to the covering power-of-two bucket, microseconds.
    pub p50_us: f64,
    /// 90th percentile, bucket-resolved, microseconds.
    pub p90_us: f64,
    /// 99th percentile, bucket-resolved, microseconds.
    pub p99_us: f64,
    /// Largest observation's bucket bound, microseconds.
    pub max_us: f64,
}

#[cfg(not(feature = "obs-off"))]
static HISTS: [Histogram; HistId::ALL.len()] =
    [Histogram::new(), Histogram::new(), Histogram::new(), Histogram::new()];

/// Records `ns` into a global histogram (a no-op under `obs-off`).
#[inline]
pub fn record_ns(id: HistId, ns: u64) {
    #[cfg(not(feature = "obs-off"))]
    HISTS[id as usize].record_ns(ns);
    #[cfg(feature = "obs-off")]
    let _ = (id, ns);
}

/// Summarises a global histogram (empty under `obs-off`).
pub fn summarize(id: HistId) -> HistogramSummary {
    #[cfg(not(feature = "obs-off"))]
    return HISTS[id as usize].summarize();
    #[cfg(feature = "obs-off")]
    {
        let _ = id;
        HistogramSummary::default()
    }
}

/// Freezes a global histogram into a plain value (empty under `obs-off`).
pub fn freeze(id: HistId) -> PlainHistogram {
    #[cfg(not(feature = "obs-off"))]
    return HISTS[id as usize].freeze();
    #[cfg(feature = "obs-off")]
    {
        let _ = id;
        PlainHistogram::new()
    }
}

/// Resets every global histogram.
pub fn reset_hists() {
    #[cfg(not(feature = "obs-off"))]
    for h in &HISTS {
        h.reset();
    }
}

/// Records the wall time of a scope into a global histogram on drop.
#[derive(Debug)]
pub struct TimerGuard {
    #[cfg(not(feature = "obs-off"))]
    id: HistId,
    #[cfg(not(feature = "obs-off"))]
    start: Instant,
}

impl TimerGuard {
    /// Starts timing for `id`.
    #[inline]
    pub fn start(id: HistId) -> Self {
        #[cfg(not(feature = "obs-off"))]
        return TimerGuard { id, start: Instant::now() };
        #[cfg(feature = "obs-off")]
        {
            let _ = id;
            TimerGuard {}
        }
    }
}

impl Drop for TimerGuard {
    #[inline]
    fn drop(&mut self) {
        #[cfg(not(feature = "obs-off"))]
        record_ns(self.id, self.start.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile_ns(0.5), 0);
        assert_eq!(h.summarize(), HistogramSummary::default());
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds() {
        let h = Histogram::new();
        for ns in [100u64, 200, 400, 100_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 4);
        // 100 lands in (64, 128]; p25 → 128.
        assert_eq!(h.percentile_ns(0.25), 128);
        // The outlier dominates the tail.
        assert_eq!(h.percentile_ns(1.0), 131_072);
        let s = h.summarize();
        assert!((s.mean_us - 25.175).abs() < 1e-9, "{}", s.mean_us);
    }

    #[test]
    fn merge_folds_counts_and_sums() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_ns(1_000);
        b.record_ns(2_000);
        b.record_ns(3_000);
        a.merge_from(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum_ns(), 6_000);
    }

    #[test]
    fn zero_and_huge_values_stay_in_range() {
        let h = Histogram::new();
        h.record_ns(0);
        h.record_ns(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.percentile_ns(1.0) > 0);
    }

    #[test]
    fn global_roundtrip() {
        record_ns(HistId::AttributionComputeLatency, 5_000);
        let s = summarize(HistId::AttributionComputeLatency);
        if cfg!(feature = "obs-off") {
            assert_eq!(s.count, 0);
        } else {
            assert!(s.count >= 1);
        }
    }

    #[test]
    fn freeze_matches_atomic_state() {
        let h = Histogram::new();
        for ns in [100u64, 200, 400, 100_000] {
            h.record_ns(ns);
        }
        let f = h.freeze();
        assert_eq!(f.count, 4);
        assert_eq!(f.sum_ns, 100_700);
        assert_eq!(f.percentile_ns(0.25), h.percentile_ns(0.25));
        assert_eq!(f.summarize(), h.summarize());
    }

    #[test]
    fn plain_record_matches_atomic_bucketing() {
        let atomic = Histogram::new();
        let mut plain = PlainHistogram::new();
        for ns in [0u64, 1, 2, 3, 1_000, 1 << 40, u64::MAX] {
            atomic.record_ns(ns);
            plain.record_ns(ns);
        }
        assert_eq!(atomic.freeze(), plain);
    }

    #[test]
    fn saturating_delta_recovers_the_interval() {
        let h = Histogram::new();
        h.record_ns(1_000);
        let before = h.freeze();
        h.record_ns(2_000);
        h.record_ns(4_000);
        let delta = h.freeze().saturating_delta(&before);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum_ns, 6_000);
        // A reset between freezes saturates to zero instead of wrapping.
        h.reset();
        let after_reset = h.freeze().saturating_delta(&before);
        assert_eq!(after_reset.count, 0);
        assert_eq!(after_reset.sum_ns, 0);
    }

    #[test]
    fn merging_window_deltas_rebuilds_the_total() {
        // Freeze after every record (one window per observation), merge the
        // per-window deltas, and recover the global histogram bit-exactly.
        let h = Histogram::new();
        let mut merged = PlainHistogram::new();
        let mut prev = PlainHistogram::new();
        for ns in [300u64, 900, 5_000, 70, 123_456] {
            h.record_ns(ns);
            let cur = h.freeze();
            merged.merge_from(&cur.saturating_delta(&prev));
            prev = cur;
        }
        assert_eq!(merged, h.freeze());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = HistId::ALL.iter().map(|h| h.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), HistId::ALL.len());
    }
}
