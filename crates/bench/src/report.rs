//! The `BENCH_<scale>.json` emitter — the recorded performance trajectory.
//!
//! Every `rc bench` run measures the pipeline's hot paths on the current
//! machine and writes one JSON snapshot: corpus-build time, per-query
//! retrieval latency (p50/p99, queries/sec), and the factored-vs-naive
//! α-sweep comparison that certifies the single-traversal sweep of
//! [`EvalContext::run_alpha_sweep`]. Snapshots are committed next to the
//! code so the perf history rides the git history.
//!
//! The JSON is hand-rolled (flat object, numbers and strings only) to
//! keep the workspace free of serialisation dependencies.
//!
//! [`EvalContext::run_alpha_sweep`]: rightcrowd_core::EvalContext::run_alpha_sweep

use crate::{scale_label, Bench};
use rightcrowd_core::FinderConfig;
use rightcrowd_core::ranker::rank_query;
use std::time::Instant;

/// Repetitions per load measurement; the minimum is recorded. A single
/// ~50 ms load sample carries several ms of scheduler and page-cache
/// jitter — enough to flip a ±20% regression gate on an otherwise
/// healthy build — while the floor over a few runs is stable.
const LOAD_REPS: usize = 3;

/// One performance snapshot, serialised to `BENCH_<scale>.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Dataset scale label (`tiny` / `small` / `paper`).
    pub scale: String,
    /// Short git revision the snapshot was taken at (`unknown` outside a
    /// work tree).
    pub git_rev: String,
    /// Whether the work tree had uncommitted changes at measurement time
    /// (a dirty-tree snapshot is not reproducible from `git_rev`).
    pub git_dirty: bool,
    /// Available hardware parallelism on the measuring machine.
    pub threads: usize,
    /// Seconds since the Unix epoch at measurement time.
    pub unix_time: u64,
    /// Dataset generation wall-clock, milliseconds.
    pub generate_ms: f64,
    /// Corpus analysis + indexing wall-clock, milliseconds.
    pub analyze_ms: f64,
    /// `generate_ms + analyze_ms`: what a snapshot load avoids.
    pub cold_build_ms: f64,
    /// Full snapshot open (`load_sharded`: manifest read + verify +
    /// study decode + every shard mapped) wall-clock, milliseconds — the
    /// open every `--snapshot` consumer pays. Minimum over
    /// [`LOAD_REPS`]. The serving contract wants this ≥10× faster than
    /// `cold_build_ms`.
    pub snapshot_load_ms: f64,
    /// Snapshot size on disk (manifest plus every shard), bytes.
    pub snapshot_bytes: u64,
    /// Shard count of the measured snapshot.
    pub shard_count: usize,
    /// Manifest size, bytes.
    pub manifest_bytes: u64,
    /// Warm index open (`open_mapped` with every sidecar attesting its
    /// file): maps + checks layouts without streaming a byte.
    /// Milliseconds — microsecond-class by design; `rc regress` gates
    /// this at ≥100× faster than `cold_open_ms`.
    pub warm_open_ms: f64,
    /// Cold index open (sidecars removed first): one streamed CRC +
    /// deep-verification pass per file, then the sidecars are re-earned.
    /// Milliseconds.
    pub cold_open_ms: f64,
    /// Shard payload bytes behind memory mappings after an open.
    pub mapped_bytes: u64,
    /// Indexed documents after the language gate.
    pub retained_docs: usize,
    /// Workload size (number of queries measured).
    pub queries: usize,
    /// Median single-query latency (analyse + retrieve + rank), ms.
    pub query_p50_ms: f64,
    /// 99th-percentile single-query latency, ms.
    pub query_p99_ms: f64,
    /// Sequential single-query throughput.
    pub queries_per_sec: f64,
    /// Fraction of compressed blocks skipped whole by the Block-Max
    /// MaxScore bound over the latency workload: `blocks_skipped /
    /// blocks_total`. Zero when the per-query deltas are compiled out
    /// (`obs-off`).
    pub blocks_skipped_frac: f64,
    /// Number of α points in the sweep comparison.
    pub alpha_points: usize,
    /// Naive sweep (one posting traversal per (query, distance, α)), ms.
    pub alpha_sweep_naive_ms: f64,
    /// Factored sweep (one traversal per (query, distance)), ms.
    pub alpha_sweep_factored_ms: f64,
    /// `alpha_sweep_naive_ms / alpha_sweep_factored_ms`.
    pub alpha_sweep_speedup: f64,
    /// Flight-recorder aggregate over the latency workload: the bench
    /// measures latency *with* flight recording enabled, so the snapshot
    /// certifies the recorder's overhead stays inside the latency budget.
    pub flight: rightcrowd_obs::FlightSummary,
    /// Peak resident set size at the end of the measurement (`VmHWM`
    /// from `/proc/self/status`); `None` off Linux.
    pub rss_peak_bytes: Option<u64>,
    /// Registry state frozen at the end of the build/store phase
    /// (dataset generation, corpus analysis, snapshot round trips).
    /// Counters here are that phase's totals; the registry's counters
    /// are reset right after this freeze.
    pub build_metrics: rightcrowd_obs::MetricsSnapshot,
    /// Registry state at the end of the run. Because the counters were
    /// reset after the build/store phase, counter values here are
    /// **query + sweep phase deltas**, not process totals (histograms
    /// and spans still span the whole run — only counters reset).
    pub metrics: rightcrowd_obs::MetricsSnapshot,
}

/// The short revision of the repository containing the working directory.
/// Shared with `rc soak` / `rc expose` (the OpenMetrics `build_info`).
pub(crate) fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Whether the work tree has uncommitted changes (`false` when git is
/// unavailable, matching `git_rev`'s `unknown`).
fn git_dirty() -> bool {
    std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .is_some_and(|out| !out.stdout.is_empty())
}

/// Linearly-interpolated percentile over an ascending sample, `p` in
/// `[0, 1]` (the "linear" / type-7 estimator: rank `p·(n−1)`, interpolating
/// between the straddling order statistics). Shared with `rc soak`'s
/// under-load percentiles.
pub(crate) fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = p.clamp(0.0, 1.0) * (sorted_ms.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return sorted_ms[lo];
    }
    let frac = rank - lo as f64;
    sorted_ms[lo] + (sorted_ms[hi] - sorted_ms[lo]) * frac
}

impl BenchReport {
    /// Measures the bench: per-query latency over the full workload at the
    /// paper's operating point, and the α sweep of Fig. 7 (all three
    /// distances, eleven α points) on both the naive per-α path and the
    /// factored single-traversal path.
    pub fn measure(bench: &Bench) -> Self {
        Self::measure_with(bench, None, crate::runner::DEFAULT_SHARDS)
    }

    /// [`BenchReport::measure`] with an explicit snapshot directory: the
    /// save → open round trip is measured against `snapshot` (kept on
    /// disk for later `--snapshot` consumers) instead of a temp
    /// directory, split into `shards` shards.
    pub fn measure_with(bench: &Bench, snapshot: Option<&std::path::Path>, shards: usize) -> Self {
        // Snapshot round trip first, on a quiet machine state: save the
        // built corpus, then load + verify it back and check the
        // reconstruction, so `snapshot_load_ms` certifies a *usable*
        // snapshot, not just an I/O pass.
        eprintln!("[bench] measuring snapshot save/open round trip ({shards} shards)...");
        let temp = std::env::temp_dir().join(format!("rc-bench-{}.snap", std::process::id()));
        let dir = snapshot.unwrap_or(&temp);
        let threads = rightcrowd_core::par::default_threads();
        let saved = rightcrowd_store::save_sharded(dir, &bench.ds, &bench.corpus, shards, threads)
            .expect("snapshot save");
        // Load timings are min-of-k: the load is tens of ms against
        // several ms of scheduler/page-cache jitter, and the regression
        // harness hard-gates these keys, so the stable floor is the
        // honest figure.
        let mut snapshot_load_ms = f64::INFINITY;
        for rep in 0..LOAD_REPS {
            let (_, loaded_corpus, load_stats) =
                rightcrowd_store::load_sharded(dir, threads).expect("snapshot load");
            if rep == 0 {
                assert_eq!(
                    loaded_corpus.index(),
                    bench.corpus.index(),
                    "snapshot round trip must reconstruct the identical index"
                );
            }
            snapshot_load_ms = snapshot_load_ms.min(load_stats.elapsed_ms);
        }
        eprintln!(
            "[bench]   {} bytes; load {:.0} ms vs cold build {:.0} ms",
            saved.bytes,
            snapshot_load_ms,
            bench.generate_ms + bench.analyze_ms,
        );

        // Index-only open costs. Warm opens verify the sidecars and map;
        // cold opens (sidecars removed) pay one streamed CRC +
        // deep-verification pass per file, then re-earn the sidecars.
        eprintln!("[bench] measuring cold and warm index opens...");
        let mut cold_open_ms = f64::INFINITY;
        for _ in 0..LOAD_REPS {
            for entry in std::fs::read_dir(dir).expect("snapshot dir") {
                let path = entry.expect("dir entry").path();
                if path.extension().is_some_and(|e| e == "rcv") {
                    std::fs::remove_file(path).expect("sidecar removal");
                }
            }
            let (_, stats) = rightcrowd_store::open_mapped(dir).expect("cold open");
            assert!(!stats.warm, "cold open must not find live sidecars");
            cold_open_ms = cold_open_ms.min(stats.elapsed_ms);
        }
        // The cold pass just rewrote the sidecars; warm opens are now
        // available. More reps than the full loads: a microsecond
        // measurement needs a deeper floor to shed scheduler noise.
        let mut warm_open_ms = f64::INFINITY;
        let mut mapped_bytes = 0u64;
        for rep in 0..LOAD_REPS * 3 {
            let (index, stats) = rightcrowd_store::open_mapped(dir).expect("warm open");
            assert!(stats.warm, "sidecars were just re-earned; the open must be warm");
            if rep == 0 {
                // Live owned-vs-mapped parity: the borrowed-from-disk
                // index must equal the built one bit for bit, so every
                // scoring path ranks identically over it.
                assert_eq!(
                    &index,
                    bench.corpus.index(),
                    "mapped open must reconstruct the identical index"
                );
            }
            mapped_bytes = stats.mapped_bytes;
            warm_open_ms = warm_open_ms.min(stats.elapsed_ms);
        }
        if dir == temp {
            std::fs::remove_dir_all(&temp).ok();
        }
        eprintln!(
            "[bench]   warm open {:.3} ms / cold open {cold_open_ms:.0} ms ({mapped_bytes} bytes mapped)",
            warm_open_ms,
        );

        // End of the build/store phase: freeze its counter totals, then
        // reset the counters so the final `metrics` block reports
        // query + sweep deltas instead of cumulative process totals
        // (`snapshot_bytes_read` alone accrues a manifest read per open
        // above). Histograms and spans are left accumulating — only
        // counters have the cumulative-vs-delta ambiguity.
        let build_metrics = rightcrowd_obs::snapshot();
        rightcrowd_obs::reset_counters();

        let ctx = bench.ctx();
        let config = FinderConfig::default();
        let attribution = ctx.attribution(&config);
        let pipeline = rightcrowd_core::AnalysisPipeline::new(bench.ds.kb());
        let n = bench.ds.candidates().len();

        // Per-query latency: the full serving path (analysis, retrieval,
        // ranking), sequential so percentiles reflect a single request.
        // Flight recording is ON for this loop — the snapshot's latency
        // figures certify the recorder's per-query overhead.
        eprintln!("[bench] measuring per-query latency (flight recorder on)...");
        rightcrowd_obs::flight::reset_flight();
        rightcrowd_obs::flight::set_flight_enabled(true);
        let mut latencies_ms = Vec::with_capacity(bench.ds.queries().len());
        let (mut blocks_total_sum, mut blocks_skipped_sum) = (0u64, 0u64);
        let started = Instant::now();
        for need in bench.ds.queries() {
            let _ = rightcrowd_index::take_traversal_stats();
            // Tag profiler samples landing in this iteration with the
            // query id, so `rc profile bench` can attribute CPU per query.
            let _cpu = rightcrowd_obs::prof::query_scope(need.id.index() as u64);
            let one = Instant::now();
            let query = pipeline.analyze_query(&need.text);
            let ranking = rank_query(&bench.corpus, &attribution, &config, &query, n);
            let elapsed = one.elapsed();
            let stats = rightcrowd_index::take_traversal_stats();
            blocks_total_sum += stats.blocks_total;
            blocks_skipped_sum += stats.blocks_skipped;
            rightcrowd_obs::flight::record(rightcrowd_obs::QueryRecord {
                query_id: need.id.index() as u64,
                label: need.text.clone(),
                domain: need.domain.label().to_string(),
                alpha: config.alpha,
                max_distance: config.max_distance.level() as u8,
                window: config.window.label(),
                latency_ns: elapsed.as_nanos() as u64,
                postings_traversed: stats.traversed,
                maxscore_admitted: stats.admitted,
                maxscore_pruned: stats.pruned,
                top_candidates: ranking.iter().take(5).map(|r| (r.person.0, r.score)).collect(),
                cpu_est_us: 0,
            });
            std::hint::black_box(ranking);
            rightcrowd_obs::record(rightcrowd_obs::HistId::QueryLatency, elapsed);
            latencies_ms.push(elapsed.as_secs_f64() * 1e3);
        }
        let total_s = started.elapsed().as_secs_f64();
        // Summarise before the sweeps so the flight block reflects the
        // measured workload only, then disable recording so the
        // naive-vs-factored comparison below stays apples-to-apples.
        let flight = rightcrowd_obs::flight::flight_summary();
        rightcrowd_obs::flight::set_flight_enabled(false);
        let mut sorted = latencies_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

        // α sweep, Fig. 7 shape: naive re-traverses postings per α, the
        // factored path recombines per-query components.
        let alphas = crate::experiments::alpha::alpha_grid();
        eprintln!("[bench] measuring naive α sweep ({} points)...", alphas.len());
        let started = Instant::now();
        for distance in rightcrowd_types::Distance::ALL {
            let base = FinderConfig::default().with_distance(distance);
            let attribution = ctx.attribution(&base);
            for &alpha in &alphas {
                let swept = ctx.run_with_attribution(&base.clone().with_alpha(alpha), &attribution);
                std::hint::black_box(swept);
            }
        }
        let naive_ms = started.elapsed().as_secs_f64() * 1e3;

        eprintln!("[bench] measuring factored α sweep...");
        let started = Instant::now();
        for distance in rightcrowd_types::Distance::ALL {
            let base = FinderConfig::default().with_distance(distance);
            let swept = ctx.run_alpha_sweep(&base, &alphas);
            std::hint::black_box(swept);
        }
        let factored_ms = started.elapsed().as_secs_f64() * 1e3;

        BenchReport {
            scale: scale_label(),
            git_rev: git_rev(),
            git_dirty: git_dirty(),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            unix_time: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            generate_ms: bench.generate_ms,
            analyze_ms: bench.analyze_ms,
            cold_build_ms: bench.generate_ms + bench.analyze_ms,
            snapshot_load_ms,
            snapshot_bytes: saved.bytes,
            shard_count: saved.shard_count,
            manifest_bytes: saved.manifest_bytes,
            warm_open_ms,
            cold_open_ms,
            mapped_bytes,
            retained_docs: bench.corpus.retained(),
            queries: latencies_ms.len(),
            query_p50_ms: percentile(&sorted, 0.50),
            query_p99_ms: percentile(&sorted, 0.99),
            queries_per_sec: if total_s > 0.0 { latencies_ms.len() as f64 / total_s } else { 0.0 },
            blocks_skipped_frac: if blocks_total_sum > 0 {
                blocks_skipped_sum as f64 / blocks_total_sum as f64
            } else {
                0.0
            },
            alpha_points: alphas.len(),
            alpha_sweep_naive_ms: naive_ms,
            alpha_sweep_factored_ms: factored_ms,
            alpha_sweep_speedup: if factored_ms > 0.0 { naive_ms / factored_ms } else { 0.0 },
            flight,
            rss_peak_bytes: rightcrowd_obs::rss_peak_bytes(),
            build_metrics,
            // Counters were reset after the build/store phase, so this
            // block's counters are query + sweep deltas; its histograms
            // and spans still cover the whole run.
            metrics: rightcrowd_obs::snapshot(),
        }
    }

    /// The snapshot as a pretty-printed JSON object.
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() { format!("{v:.3}") } else { "null".to_owned() }
        }
        fn text(v: &str) -> String {
            let escaped: String = v
                .chars()
                .flat_map(|c| match c {
                    '"' | '\\' => vec!['\\', c],
                    '\n' => vec!['\\', 'n'],
                    c if (c as u32) < 0x20 => " ".chars().collect(),
                    c => vec![c],
                })
                .collect();
            format!("\"{escaped}\"")
        }
        format!(
            "{{\n  \"scale\": {},\n  \"git_rev\": {},\n  \"git_dirty\": {},\n  \
             \"threads\": {},\n  \"unix_time\": {},\n  \
             \"generate_ms\": {},\n  \"analyze_ms\": {},\n  \"cold_build_ms\": {},\n  \
             \"snapshot_load_ms\": {},\n  \"snapshot_bytes\": {},\n  \
             \"shard_count\": {},\n  \"manifest_bytes\": {},\n  \
             \"warm_open_ms\": {},\n  \"cold_open_ms\": {},\n  \
             \"mapped_bytes\": {},\n  \
             \"retained_docs\": {},\n  \
             \"queries\": {},\n  \"query_p50_ms\": {},\n  \"query_p99_ms\": {},\n  \
             \"queries_per_sec\": {},\n  \"blocks_skipped_frac\": {},\n  \
             \"alpha_points\": {},\n  \
             \"alpha_sweep_naive_ms\": {},\n  \"alpha_sweep_factored_ms\": {},\n  \
             \"alpha_sweep_speedup\": {},\n  \"flight\": {{\n    \
             \"recorded\": {},\n    \"retained\": {},\n    \"mean_ms\": {},\n    \
             \"slowest_ms\": {},\n    \"slowest_label\": {}\n  }},\n  \
             \"rss_peak_bytes\": {},\n  \
             \"build_metrics\": {},\n  \
             \"metrics\": {}\n}}\n",
            text(&self.scale),
            text(&self.git_rev),
            self.git_dirty,
            self.threads,
            self.unix_time,
            num(self.generate_ms),
            num(self.analyze_ms),
            num(self.cold_build_ms),
            num(self.snapshot_load_ms),
            self.snapshot_bytes,
            self.shard_count,
            self.manifest_bytes,
            num(self.warm_open_ms),
            num(self.cold_open_ms),
            self.mapped_bytes,
            self.retained_docs,
            self.queries,
            num(self.query_p50_ms),
            num(self.query_p99_ms),
            num(self.queries_per_sec),
            num(self.blocks_skipped_frac),
            self.alpha_points,
            num(self.alpha_sweep_naive_ms),
            num(self.alpha_sweep_factored_ms),
            num(self.alpha_sweep_speedup),
            self.flight.recorded,
            self.flight.retained,
            num(self.flight.mean_ms),
            num(self.flight.slowest_ms),
            text(&self.flight.slowest_label),
            self.rss_peak_bytes.map_or("null".to_owned(), |b| b.to_string()),
            self.build_metrics.to_json(2),
            self.metrics.to_json(2),
        )
    }

    /// The conventional snapshot filename for this report's scale.
    pub fn filename(&self) -> String {
        format!("BENCH_{}.json", self.scale)
    }

    /// Writes the snapshot to `dir/BENCH_<scale>.json` (creating `dir` if
    /// needed) and returns the path.
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.filename());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            scale: "tiny".into(),
            git_rev: "abc1234".into(),
            git_dirty: true,
            threads: 8,
            unix_time: 1_700_000_000,
            generate_ms: 12.5,
            analyze_ms: 800.25,
            cold_build_ms: 812.75,
            snapshot_load_ms: 40.5,
            snapshot_bytes: 1_234_567,
            shard_count: 4,
            manifest_bytes: 9_876,
            warm_open_ms: 0.125,
            cold_open_ms: 42.0,
            mapped_bytes: 1_111_111,
            retained_docs: 4321,
            queries: 30,
            query_p50_ms: 1.25,
            query_p99_ms: 4.75,
            queries_per_sec: 600.0,
            blocks_skipped_frac: 0.25,
            alpha_points: 11,
            alpha_sweep_naive_ms: 500.0,
            alpha_sweep_factored_ms: 50.0,
            alpha_sweep_speedup: 10.0,
            flight: rightcrowd_obs::FlightSummary {
                recorded: 30,
                retained: 30,
                mean_ms: 1.5,
                slowest_ms: 4.75,
                slowest_label: "slowest \"query\"".into(),
            },
            rss_peak_bytes: Some(104_857_600),
            build_metrics: rightcrowd_obs::MetricsSnapshot {
                counters: vec![("snapshot_bytes_read", 999_999)],
                histograms: vec![],
                spans: vec![],
            },
            metrics: rightcrowd_obs::MetricsSnapshot {
                counters: vec![("postings_traversed", 1234)],
                histograms: vec![],
                spans: vec![],
            },
        }
    }

    #[test]
    fn json_shape_is_flat_and_complete() {
        let json = sample().to_json();
        for key in [
            "scale",
            "git_rev",
            "git_dirty",
            "threads",
            "unix_time",
            "generate_ms",
            "analyze_ms",
            "cold_build_ms",
            "snapshot_load_ms",
            "snapshot_bytes",
            "shard_count",
            "manifest_bytes",
            "warm_open_ms",
            "cold_open_ms",
            "mapped_bytes",
            "retained_docs",
            "queries",
            "query_p50_ms",
            "query_p99_ms",
            "queries_per_sec",
            "blocks_skipped_frac",
            "alpha_points",
            "alpha_sweep_naive_ms",
            "alpha_sweep_factored_ms",
            "alpha_sweep_speedup",
            "flight",
            "rss_peak_bytes",
            "build_metrics",
            "metrics",
        ] {
            assert!(json.contains(&format!("\"{key}\": ")), "missing {key} in {json}");
        }
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"scale\": \"tiny\""));
        assert!(json.contains("\"git_dirty\": true"));
        assert!(json.contains("\"threads\": 8"));
        assert!(json.contains("\"alpha_sweep_speedup\": 10.000"));
        // The snapshot size is an integer byte count, not a float.
        assert!(json.contains("\"snapshot_bytes\": 1234567"));
        assert!(json.contains("\"shard_count\": 4"));
        assert!(json.contains("\"manifest_bytes\": 9876"));
        assert!(json.contains("\"blocks_skipped_frac\": 0.250"));
        assert!(json.contains("\"cold_build_ms\": 812.750"));
        for retired in ["postings_bytes", "compression_ratio", "sharded_load_ms_t1", "bytes_per_shard"] {
            assert!(!json.contains(retired), "{retired} is no longer reported");
        }
        assert!(json.contains("\"warm_open_ms\": 0.125"));
        assert!(json.contains("\"cold_open_ms\": 42.000"));
        assert!(json.contains("\"mapped_bytes\": 1111111"));
        // The flight block is nested, escaped, and complete.
        for key in ["recorded", "retained", "mean_ms", "slowest_ms", "slowest_label"] {
            assert!(json.contains(&format!("\"{key}\": ")), "missing flight.{key}");
        }
        assert!(json.contains(r#""slowest_label": "slowest \"query\"""#));
        // The embedded metrics snapshot keeps its nested shape.
        assert!(json.contains("\"postings_traversed\": 1234"));
        // rss is an integer byte count; both metrics blocks are present.
        assert!(json.contains("\"rss_peak_bytes\": 104857600"));
        assert!(json.contains("\"snapshot_bytes_read\": 999999"));
    }

    #[test]
    fn json_renders_missing_rss_as_null() {
        let mut report = sample();
        report.rss_peak_bytes = None;
        assert!(report.to_json().contains("\"rss_peak_bytes\": null"));
    }

    #[test]
    fn json_escapes_strings() {
        let mut report = sample();
        report.git_rev = "we\"ird\\rev".into();
        let json = report.to_json();
        assert!(json.contains(r#""git_rev": "we\"ird\\rev""#));
    }

    #[test]
    fn filename_follows_scale() {
        assert_eq!(sample().filename(), "BENCH_tiny.json");
    }

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 10.0];
        // Exact order statistics where the rank lands on a sample.
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&sorted, 1.0), 10.0);
        // p99 over 5 samples: rank 3.96 → between 4.0 and 10.0.
        assert!((percentile(&sorted, 0.99) - 9.76).abs() < 1e-12);
        // p25 over 5 samples: rank exactly 1.0.
        assert_eq!(percentile(&sorted, 0.25), 2.0);
    }

    #[test]
    fn percentile_empty_input_is_zero() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[], 0.0), 0.0);
    }

    #[test]
    fn percentile_single_sample_is_constant() {
        for p in [0.0, 0.37, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[7.5], p), 7.5);
        }
    }

    #[test]
    fn percentile_even_count_interpolates_median() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        // Median rank 1.5 → midpoint of 2.0 and 3.0.
        assert_eq!(percentile(&sorted, 0.5), 2.5);
        assert_eq!(percentile(&sorted, 1.0), 4.0);
        // rank 2.97 → 3.0 + 0.97·(4.0 − 3.0).
        assert!((percentile(&sorted, 0.99) - 3.97).abs() < 1e-12);
    }

    #[test]
    fn percentile_odd_count_hits_middle_sample() {
        let sorted = [5.0, 6.0, 7.0];
        assert_eq!(percentile(&sorted, 0.5), 6.0);
        assert_eq!(percentile(&sorted, 0.25), 5.5);
    }

    #[test]
    fn percentile_clamps_out_of_range_p() {
        let sorted = [1.0, 2.0];
        assert_eq!(percentile(&sorted, -0.5), 1.0);
        assert_eq!(percentile(&sorted, 1.5), 2.0);
    }

    /// Pins the per-phase counter semantics: `build_metrics` carries the
    /// build/store phase totals (≥ LOAD_REPS full loads, each reading
    /// the whole manifest), and the final `metrics` block carries query +
    /// sweep *deltas* — in particular zero snapshot reads, because
    /// nothing opens snapshots after the reset.
    #[test]
    fn measure_reports_per_phase_counter_deltas() {
        use rightcrowd_obs::CounterId;
        let ds = rightcrowd_synth::SyntheticDataset::generate(
            &rightcrowd_synth::DatasetConfig::tiny(),
        );
        let corpus = rightcrowd_core::AnalyzedCorpus::build(&ds);
        let bench = Bench { ds, corpus, generate_ms: 1.0, analyze_ms: 1.0 };
        let report = BenchReport::measure(&bench);
        if !rightcrowd_obs::PROBES_ENABLED {
            return;
        }
        let build_read = report.build_metrics.counter(CounterId::SnapshotBytesRead);
        assert!(
            build_read >= LOAD_REPS as u64 * report.manifest_bytes,
            "build phase must record its manifest reads: {build_read} < {} × {}",
            LOAD_REPS,
            report.manifest_bytes
        );
        assert_eq!(
            report.metrics.counter(CounterId::SnapshotBytesRead),
            0,
            "query/sweep phase loads no containers, so the post-reset delta is zero"
        );
        // The query phase's own counters do land in the final block.
        assert!(report.metrics.counter(CounterId::PostingsTraversed) > 0);
        assert!(report.metrics.counter(CounterId::QueriesAnalyzed) > 0);
    }
}
