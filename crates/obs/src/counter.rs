//! The fixed counter taxonomy: relaxed atomic event counters on a static
//! array, addressed by enum — no hashing, no locking, one `fetch_add` per
//! publish.
//!
//! Hot loops must not increment per element; they accumulate into a local
//! `u64` and [`add`] once per call (see `InvertedIndex::score_top_k` for
//! the pattern). With feature `obs-off` every operation is an empty
//! `#[inline]` function and reads return zero.

#[cfg(not(feature = "obs-off"))]
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// One global event counter. Names are the JSON keys of the
/// `metrics.counters` section of `BENCH_<scale>.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CounterId {
    /// Postings visited by any Eq. 1 scoring path (term + entity sides).
    PostingsTraversed,
    /// Documents admitted into the scoring accumulator by the MaxScore
    /// top-k path.
    MaxscoreAdmitted,
    /// First-appearance documents skipped by the MaxScore bound (their
    /// best achievable score could not reach the top k).
    MaxscorePruned,
    /// Compressed posting blocks owned by the lists the Block-Max top-k
    /// path walked (decoded + skipped for those lists sum to this).
    BlocksTotal,
    /// Compressed posting blocks actually decompressed by the Block-Max
    /// top-k path.
    BlocksDecoded,
    /// Compressed posting blocks skipped whole by their block-max upper
    /// bound, without decompression.
    BlocksSkipped,
    /// Compressed payload bytes decompressed by the Block-Max top-k path.
    PostingsBytesDecoded,
    /// Postings inside skipped blocks — never decoded, so never part of
    /// `postings_traversed` (they are counted under `maxscore_pruned`).
    PostingsSkipped,
    /// `AttributionCache` lookups served from the memoised table.
    AttributionCacheHits,
    /// `AttributionCache` lookups that computed a new evidence walk.
    AttributionCacheMisses,
    /// Expertise needs analysed into queries.
    QueriesAnalyzed,
    /// Documents pushed through the Fig. 4 analysis pipeline.
    DocsAnalyzed,
    /// Documents dropped by the language gate.
    DocsDroppedNonEnglish,
    /// Evidence documents attributed at distance 0 (own profiles).
    EvidenceDocsD0,
    /// Evidence documents attributed at distance 1 (direct resources).
    EvidenceDocsD1,
    /// Evidence documents attributed at distance 2 (container/friend
    /// resources).
    EvidenceDocsD2,
    /// Entity annotations produced by the TAGME-style annotator.
    EntitiesAnnotated,
    /// Normalised terms produced by the text processor.
    TermsProcessed,
    /// Gauge (written with [`set`]): traversal shapes currently resident
    /// in the `AttributionCache`.
    AttributionShapesResident,
    /// Bytes written by `store::save_sharded` (manifest plus every shard).
    SnapshotBytesWritten,
    /// Manifest bytes read and checksum-validated by
    /// `store::load_sharded` and `store::open_mapped` (shard files count
    /// under `ShardBytesRead`). Cumulative across *every* load in
    /// the process: a benchmark that loads the same snapshot `r` times
    /// reads `r ×` its size. Multi-phase measurements that want per-phase
    /// deltas instead of process totals snapshot and then call
    /// [`reset_counters`] between phases (as `rc bench` does between its
    /// store and query phases).
    SnapshotBytesRead,
    /// Shard files opened by `store::load_sharded` and `store::open_mapped`.
    ShardsLoaded,
    /// Shard bytes digest-validated by cold opens and mapped by
    /// `store::load_sharded` (the manifest is counted under
    /// `SnapshotBytesRead`).
    ShardBytesRead,
    /// `mmap(2)` calls issued by the zero-copy snapshot opener (one per
    /// shard file mapped; re-opens of an already-resident file still
    /// count — the kernel shares the pages).
    MmapOpens,
    /// Shard/manifest opens whose validity sidecar matched (length,
    /// mtime and digest), skipping the streamed checksum pass.
    SidecarHits,
    /// Opens that had to fall back to the full streamed verification
    /// because the sidecar was absent, stale, or malformed.
    SidecarMisses,
    /// Bytes of shard payload placed behind live memory mappings (file
    /// sizes at `mmap` time; cumulative like the byte counters above).
    MappedBytes,
}

impl CounterId {
    /// Every counter, in rendering order.
    pub const ALL: [CounterId; 27] = [
        CounterId::PostingsTraversed,
        CounterId::MaxscoreAdmitted,
        CounterId::MaxscorePruned,
        CounterId::BlocksTotal,
        CounterId::BlocksDecoded,
        CounterId::BlocksSkipped,
        CounterId::PostingsBytesDecoded,
        CounterId::PostingsSkipped,
        CounterId::AttributionCacheHits,
        CounterId::AttributionCacheMisses,
        CounterId::QueriesAnalyzed,
        CounterId::DocsAnalyzed,
        CounterId::DocsDroppedNonEnglish,
        CounterId::EvidenceDocsD0,
        CounterId::EvidenceDocsD1,
        CounterId::EvidenceDocsD2,
        CounterId::EntitiesAnnotated,
        CounterId::TermsProcessed,
        CounterId::AttributionShapesResident,
        CounterId::SnapshotBytesWritten,
        CounterId::SnapshotBytesRead,
        CounterId::ShardsLoaded,
        CounterId::ShardBytesRead,
        CounterId::MmapOpens,
        CounterId::SidecarHits,
        CounterId::SidecarMisses,
        CounterId::MappedBytes,
    ];

    /// `true` for level-style counters written with [`set`] (rendered as
    /// OpenMetrics gauges rather than `_total` counters, and excluded
    /// from per-interval delta semantics in `obs::timeseries`).
    pub const fn is_gauge(self) -> bool {
        matches!(self, CounterId::AttributionShapesResident)
    }

    /// The counter's snake_case name (JSON key and table label).
    pub const fn name(self) -> &'static str {
        match self {
            CounterId::PostingsTraversed => "postings_traversed",
            CounterId::MaxscoreAdmitted => "maxscore_admitted",
            CounterId::MaxscorePruned => "maxscore_pruned",
            CounterId::BlocksTotal => "blocks_total",
            CounterId::BlocksDecoded => "blocks_decoded",
            CounterId::BlocksSkipped => "blocks_skipped",
            CounterId::PostingsBytesDecoded => "postings_bytes_decoded",
            CounterId::PostingsSkipped => "postings_skipped",
            CounterId::AttributionCacheHits => "attribution_cache_hits",
            CounterId::AttributionCacheMisses => "attribution_cache_misses",
            CounterId::QueriesAnalyzed => "queries_analyzed",
            CounterId::DocsAnalyzed => "docs_analyzed",
            CounterId::DocsDroppedNonEnglish => "docs_dropped_non_english",
            CounterId::EvidenceDocsD0 => "evidence_docs_d0",
            CounterId::EvidenceDocsD1 => "evidence_docs_d1",
            CounterId::EvidenceDocsD2 => "evidence_docs_d2",
            CounterId::EntitiesAnnotated => "entities_annotated",
            CounterId::TermsProcessed => "terms_processed",
            CounterId::AttributionShapesResident => "attribution_shapes_resident",
            CounterId::SnapshotBytesWritten => "snapshot_bytes_written",
            CounterId::SnapshotBytesRead => "snapshot_bytes_read",
            CounterId::ShardsLoaded => "shards_loaded",
            CounterId::ShardBytesRead => "shard_bytes_read",
            CounterId::MmapOpens => "mmap_opens",
            CounterId::SidecarHits => "sidecar_hits",
            CounterId::SidecarMisses => "sidecar_misses",
            CounterId::MappedBytes => "mapped_bytes",
        }
    }
}

// A const item is the MSRV-compatible way to repeat a non-Copy zero into
// a static array; each repetition is a fresh atomic, not a shared one.
#[cfg(not(feature = "obs-off"))]
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
#[cfg(not(feature = "obs-off"))]
static COUNTERS: [AtomicU64; CounterId::ALL.len()] = [ZERO; CounterId::ALL.len()];

/// Adds `n` to a counter (relaxed; a no-op under `obs-off`).
#[inline]
pub fn add(id: CounterId, n: u64) {
    #[cfg(not(feature = "obs-off"))]
    COUNTERS[id as usize].fetch_add(n, Relaxed);
    #[cfg(feature = "obs-off")]
    let _ = (id, n);
}

/// Stores an absolute value into a counter, turning it into a gauge
/// (relaxed; a no-op under `obs-off`). Used for resident-size metrics
/// where the latest level, not an event total, is the fact of interest.
#[inline]
pub fn set(id: CounterId, value: u64) {
    #[cfg(not(feature = "obs-off"))]
    COUNTERS[id as usize].store(value, Relaxed);
    #[cfg(feature = "obs-off")]
    let _ = (id, value);
}

/// The current value of a counter (zero under `obs-off`).
#[inline]
pub fn get(id: CounterId) -> u64 {
    #[cfg(not(feature = "obs-off"))]
    return COUNTERS[id as usize].load(Relaxed);
    #[cfg(feature = "obs-off")]
    {
        let _ = id;
        0
    }
}

/// Resets every counter to zero.
pub fn reset_counters() {
    #[cfg(not(feature = "obs-off"))]
    for c in &COUNTERS {
        c.store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counters are process-global, so tests only make monotonic
    // (delta-based) assertions that stay valid under parallel execution.
    #[test]
    fn add_accumulates_relaxed() {
        let before = get(CounterId::TermsProcessed);
        add(CounterId::TermsProcessed, 5);
        add(CounterId::TermsProcessed, 2);
        let after = get(CounterId::TermsProcessed);
        if cfg!(feature = "obs-off") {
            assert_eq!(after, 0);
        } else {
            assert!(after >= before + 7, "{before} -> {after}");
        }
    }

    #[test]
    fn names_are_snake_case_and_unique() {
        let names: Vec<_> = CounterId::ALL.iter().map(|c| c.name()).collect();
        for name in &names {
            assert!(name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        }
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len());
    }
}
