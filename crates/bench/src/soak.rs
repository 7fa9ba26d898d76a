//! `rc soak` — the closed-loop in-process load harness.
//!
//! Where `rc bench` measures the sequential request path (one query at a
//! time, percentiles of a quiet machine), the soak harness answers the
//! serving question: what does the index deliver **under sustained
//! concurrent load**, and what does watching it cost? N worker threads
//! share one snapshot-loaded corpus and hammer it with a Zipf-skewed
//! query mix — a handful of hot queries dominate, the tail stays warm —
//! while a coordinator thread ticks the [`rightcrowd_obs::timeseries`]
//! sampler once per interval, turning the live counter registry into a
//! per-second series (qps, windowed p50/p90/p99, postings/s, block-skip
//! fraction).
//!
//! One run walks a thread ladder (1 → 2 → 4 → 8 workers by default) and
//! additionally measures a **telemetry-off** phase: the same closed loop
//! with the sampler parked and the per-query probes (latency histogram,
//! wide-event log) skipped. The throughput gap between the two is the
//! observability tax, recorded as `soak_telemetry_overhead_frac` and
//! gated by `rc regress` at ≤3% ([`crate::regress::OBS_OVERHEAD_MAX`]).
//!
//! Artifacts per run (all under `--out`):
//!
//! * `SOAK_<scale>.json` — the full report: per-phase aggregates plus
//!   the per-tick series rows.
//! * `SOAK_<scale>.events.jsonl` — the tail-sampled wide-event query log
//!   ([`rightcrowd_obs::wide`]): errors and the slowest tail always, a
//!   uniform reservoir of the rest.
//! * `SOAK_<scale>.openmetrics` — OpenMetrics exposition rebuilt from
//!   the final phase's window ring, validated before it is written.
//!
//! The headline numbers (`qps_t{1,2,4,8}`, `p50/p99_under_load_t{N}_ms`,
//! the overhead fraction, peak RSS) are also merged into
//! `BENCH_<scale>.json` so the regression gate covers them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rightcrowd_core::ranker::rank_query;
use rightcrowd_core::FinderConfig;
use rightcrowd_obs::timeseries::{Sampler, Window};
use rightcrowd_obs::{BuildInfo, HistId, QueryRecord, WideEvent, WideEventLog};

use crate::regress::{parse_json, Json};
use crate::report::percentile;
use crate::runner::Bench;

/// Zipf exponent of the query mix: weight of the rank-`i` query is
/// `1 / (i + 1)^s`. `s = 1` is the classic web-workload skew.
const ZIPF_S: f64 = 1.0;

/// Wide-event log capacities: uniform reservoir and slow-tail cohort.
const WIDE_RESERVOIR: usize = 256;
const WIDE_TAIL: usize = 64;

/// The compile-time feature string for the OpenMetrics `build_info`.
pub(crate) fn build_features() -> String {
    if rightcrowd_obs::PROBES_ENABLED { "default" } else { "obs-off" }.to_owned()
}

/// The `build_info` labels for every exposition this binary produces.
pub fn build_info() -> BuildInfo {
    BuildInfo::new(crate::report::git_rev(), build_features())
}

/// Knobs of one soak run (defaults match the CLI defaults).
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// Wall-clock length of each measured phase.
    pub duration: Duration,
    /// Stop a phase early once this many queries completed.
    pub query_budget: Option<u64>,
    /// Caps the thread ladder (`None` = the full 1/2/4/8).
    pub max_threads: Option<usize>,
    /// Sampler tick — one series row per tick.
    pub tick: Duration,
    /// Print a live status line per tick (stderr).
    pub watch: bool,
    /// Run the sampling profiler over the telemetry-on ladder and fold
    /// per-query CPU estimates into the wide-event log.
    pub profile: bool,
    /// Seed for the query mix and the wide-event reservoir.
    pub seed: u64,
}

impl Default for SoakOptions {
    fn default() -> Self {
        SoakOptions {
            duration: Duration::from_secs(10),
            query_budget: None,
            max_threads: None,
            tick: Duration::from_secs(1),
            watch: false,
            profile: false,
            seed: 0x50AC_BEEF,
        }
    }
}

/// The thread ladder a soak run walks: the default rungs capped at
/// `max`, with `max` itself appended when it is not a rung (so
/// `--threads 3` measures 1, 2 *and* 3).
pub fn thread_ladder(max: Option<usize>) -> Vec<usize> {
    let cap = max.unwrap_or(8).max(1);
    let mut ladder: Vec<usize> = [1usize, 2, 4, 8].into_iter().filter(|&n| n <= cap).collect();
    if max.is_some() && !ladder.contains(&cap) {
        ladder.push(cap);
    }
    ladder.sort_unstable();
    ladder
}

/// Deterministic Zipf(`s`) sampler over ranks `0..n` via inverse CDF on
/// precomputed cumulative weights.
pub struct ZipfPicker {
    cumulative: Vec<f64>,
}

impl ZipfPicker {
    /// Builds the cumulative weight table for `n` ranks.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cumulative.push(total);
        }
        ZipfPicker { cumulative }
    }

    /// Maps a uniform `u ∈ [0, 1)` to a rank (0 = hottest).
    pub fn pick(&self, u: f64) -> usize {
        let Some(&total) = self.cumulative.last() else { return 0 };
        let target = u.clamp(0.0, 1.0) * total;
        self.cumulative.partition_point(|&c| c <= target).min(self.cumulative.len() - 1)
    }
}

/// xorshift64* — the same tiny generator the wide-event reservoir uses;
/// good enough to pick query ranks, and dependency-free.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A uniform f64 in `[0, 1)` from the generator's top 53 bits.
fn next_unit(state: &mut u64) -> f64 {
    (next_rand(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Milliseconds since the Unix epoch (0 when the clock is broken).
fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// One sampler tick of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRow {
    /// Window start, milliseconds since the phase's sampler started.
    pub t_ms: u64,
    /// Queries completed in the window.
    pub queries: u64,
    /// Queries per second over the window.
    pub qps: f64,
    /// Windowed latency percentiles (µs, bucket upper bounds).
    pub p50_us: f64,
    /// 90th percentile (µs).
    pub p90_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
    /// Postings traversed per second over the window.
    pub postings_per_sec: f64,
    /// Fraction of compressed blocks skipped whole in the window.
    pub block_skip_frac: f64,
}

impl SeriesRow {
    fn from_window(w: &Window) -> Self {
        SeriesRow {
            t_ms: w.start_ms,
            queries: w.hist(HistId::QueryLatency).count,
            qps: w.qps(),
            p50_us: w.latency_percentile_us(0.50),
            p90_us: w.latency_percentile_us(0.90),
            p99_us: w.latency_percentile_us(0.99),
            postings_per_sec: w.postings_per_sec(),
            block_skip_frac: w.block_skip_frac(),
        }
    }

    fn to_json(&self) -> Json {
        let mut m = std::collections::BTreeMap::new();
        m.insert("t_ms".to_owned(), Json::Num(self.t_ms as f64));
        m.insert("queries".to_owned(), Json::Num(self.queries as f64));
        m.insert("qps".to_owned(), Json::Num(self.qps));
        m.insert("p50_us".to_owned(), Json::Num(self.p50_us));
        m.insert("p90_us".to_owned(), Json::Num(self.p90_us));
        m.insert("p99_us".to_owned(), Json::Num(self.p99_us));
        m.insert("postings_per_sec".to_owned(), Json::Num(self.postings_per_sec));
        m.insert("block_skip_frac".to_owned(), Json::Num(self.block_skip_frac));
        Json::Obj(m)
    }
}

/// The aggregate of one soak phase (one ladder rung, or the
/// telemetry-off baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct SoakPhase {
    /// Worker thread count.
    pub threads: usize,
    /// Whether live telemetry ran (sampler ticks + per-query probes).
    pub telemetry: bool,
    /// Queries completed.
    pub queries: u64,
    /// Wall-clock phase length (seconds).
    pub elapsed_s: f64,
    /// Closed-loop throughput.
    pub qps: f64,
    /// Interpolated latency percentiles over every query (ms).
    pub p50_ms: f64,
    /// 90th percentile (ms).
    pub p90_ms: f64,
    /// 99th percentile (ms).
    pub p99_ms: f64,
    /// One row per sampler tick (empty for telemetry-off phases).
    pub series: Vec<SeriesRow>,
}

impl SoakPhase {
    fn to_json(&self) -> Json {
        let mut m = std::collections::BTreeMap::new();
        m.insert("threads".to_owned(), Json::Num(self.threads as f64));
        m.insert("telemetry".to_owned(), Json::Bool(self.telemetry));
        m.insert("queries".to_owned(), Json::Num(self.queries as f64));
        m.insert("elapsed_s".to_owned(), Json::Num(self.elapsed_s));
        m.insert("qps".to_owned(), Json::Num(self.qps));
        m.insert("p50_ms".to_owned(), Json::Num(self.p50_ms));
        m.insert("p90_ms".to_owned(), Json::Num(self.p90_ms));
        m.insert("p99_ms".to_owned(), Json::Num(self.p99_ms));
        m.insert(
            "series".to_owned(),
            Json::Arr(self.series.iter().map(SeriesRow::to_json).collect()),
        );
        Json::Obj(m)
    }
}

/// Everything one soak run produced.
pub struct SoakReport {
    /// Dataset scale label.
    pub scale: String,
    /// Short git revision of the measuring tree.
    pub git_rev: String,
    /// Seconds since the Unix epoch at measurement time.
    pub unix_time: u64,
    /// Per-phase duration the run was configured with (ms).
    pub duration_ms: u64,
    /// Sampler tick (ms).
    pub tick_ms: u64,
    /// Measured phases in run order (the warmup is discarded).
    pub phases: Vec<SoakPhase>,
    /// `(qps_off − qps_on) / qps_off` at the first ladder rung, floored
    /// at zero — the observability tax `rc regress` gates at ≤3%.
    pub telemetry_overhead_frac: f64,
    /// Peak resident set (`VmHWM`); `None` off Linux.
    pub rss_peak_bytes: Option<u64>,
    /// Wide events offered across the telemetry phases.
    pub events_seen: u64,
    /// Wide events retained after tail sampling.
    pub events_retained: usize,
    /// The tail-sampled query log, one JSON object per line.
    pub events_jsonl: String,
    /// OpenMetrics exposition rebuilt from the final phase's windows.
    pub openmetrics: String,
    /// The sampling profile of the measured ladder, when the run was
    /// started with [`SoakOptions::profile`] (empty under `obs-off`).
    pub profile: Option<rightcrowd_obs::ProfileReport>,
}

/// What one worker brought home.
struct WorkerOut {
    latencies_ns: Vec<u64>,
}

/// Runs one closed-loop phase: `threads` workers against the shared
/// corpus until the deadline or the query budget, the coordinator
/// sampling per tick when `telemetry` is on.
fn run_phase(
    bench: &Bench,
    opts: &SoakOptions,
    threads: usize,
    telemetry: bool,
    duration: Duration,
    wide: Option<&Mutex<WideEventLog>>,
) -> (SoakPhase, Vec<Window>) {
    let ctx = bench.ctx();
    let config = FinderConfig::default();
    let attribution = ctx.attribution(&config);
    let needs = bench.ds.queries();
    let candidates = bench.ds.candidates().len();
    let zipf = ZipfPicker::new(needs.len().max(1), ZIPF_S);
    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let sampler = telemetry.then(|| {
        let windows = (duration.as_millis() / opts.tick.as_millis().max(1)) as usize + 8;
        Sampler::with_capacity(windows.max(16))
    });

    let started = Instant::now();
    let deadline = started + duration;
    let (outs, series): (Vec<WorkerOut>, Vec<SeriesRow>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let (stop, completed) = (&stop, &completed);
                let (zipf, attribution, config) = (&zipf, &attribution, &config);
                scope.spawn(move || {
                    let pipeline = rightcrowd_core::AnalysisPipeline::new(bench.ds.kb());
                    let mut rng =
                        opts.seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    let mut latencies_ns = Vec::new();
                    while !stop.load(Ordering::Acquire) {
                        if needs.is_empty() {
                            break;
                        }
                        let need = &needs[zipf.pick(next_unit(&mut rng))];
                        let _ = rightcrowd_index::take_traversal_stats();
                        // Tag profiler samples with the in-flight query id
                        // so `--profile` can stamp cpu_est_us per event.
                        let _cpu =
                            rightcrowd_obs::prof::query_scope(need.id.index() as u64);
                        let one = Instant::now();
                        let query = pipeline.analyze_query(&need.text);
                        let ranking =
                            rank_query(&bench.corpus, attribution, config, &query, candidates);
                        let elapsed = one.elapsed();
                        let stats = rightcrowd_index::take_traversal_stats();
                        latencies_ns.push(elapsed.as_nanos() as u64);
                        if telemetry {
                            rightcrowd_obs::record(HistId::QueryLatency, elapsed);
                            if let Some(log) = wide {
                                let event = WideEvent {
                                    unix_ms: unix_ms(),
                                    thread: worker as u32,
                                    record: QueryRecord {
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
                                        top_candidates: ranking
                                            .first()
                                            .map(|r| (r.person.0, r.score))
                                            .into_iter()
                                            .collect(),
                                        cpu_est_us: 0,
                                    },
                                    blocks_total: stats.blocks_total,
                                    blocks_skipped: stats.blocks_skipped,
                                    // The pruning floor this query ended
                                    // at: the weakest positive fused score
                                    // still on the board.
                                    theta: ranking.last().map_or(0.0, |r| r.score),
                                    error: None,
                                };
                                log.lock().expect("wide-event log poisoned").offer(event);
                            }
                        }
                        std::hint::black_box(&ranking);
                        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                        if opts.query_budget.is_some_and(|budget| done >= budget) {
                            stop.store(true, Ordering::Release);
                        }
                    }
                    WorkerOut { latencies_ns }
                })
            })
            .collect();

        // The coordinator: short dozes so a budget stop lands promptly,
        // sampling the window ring once per full tick.
        let mut series = Vec::new();
        let mut last_tick = Instant::now();
        let mut last_total = 0u64;
        while Instant::now() < deadline && !stop.load(Ordering::Acquire) {
            let nap = opts.tick.min(Duration::from_millis(25));
            std::thread::sleep(nap.min(deadline.saturating_duration_since(Instant::now())));
            if last_tick.elapsed() >= opts.tick {
                last_tick = Instant::now();
                if let Some(sampler) = &sampler {
                    let w = sampler.sample();
                    let row = SeriesRow::from_window(&w);
                    if opts.watch {
                        eprintln!(
                            "[soak t{threads}] {:>6.1}s {:>8.0} qps  p50 {:>7.2} ms  p99 {:>7.2} ms  skip {:.2}",
                            started.elapsed().as_secs_f64(),
                            row.qps,
                            row.p50_us / 1e3,
                            row.p99_us / 1e3,
                            row.block_skip_frac,
                        );
                    }
                    series.push(row);
                } else if opts.watch {
                    // No sampler in the off phase; derive qps from the
                    // shared completion counter (same cost both phases).
                    let total = completed.load(Ordering::Relaxed);
                    let window_s = last_tick.duration_since(started).as_secs_f64();
                    let _ = window_s;
                    eprintln!(
                        "[soak t{threads} obs-off] {:>6.1}s {:>8.0} qps",
                        started.elapsed().as_secs_f64(),
                        (total - last_total) as f64 / opts.tick.as_secs_f64().max(1e-9),
                    );
                    last_total = total;
                }
            }
        }
        stop.store(true, Ordering::Release);
        let outs: Vec<WorkerOut> =
            handles.into_iter().map(|h| h.join().expect("soak worker panicked")).collect();
        // One final sample after the workers stopped captures the tail
        // partial window.
        if let Some(sampler) = &sampler {
            let w = sampler.sample();
            if w.hist(HistId::QueryLatency).count > 0 {
                series.push(SeriesRow::from_window(&w));
            }
        }
        (outs, series)
    });
    let elapsed_s = started.elapsed().as_secs_f64().max(1e-9);

    let mut latencies_ms: Vec<f64> =
        outs.iter().flat_map(|o| o.latencies_ns.iter().map(|&ns| ns as f64 / 1e6)).collect();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let queries = latencies_ms.len() as u64;
    let windows = sampler.as_ref().map(Sampler::windows).unwrap_or_default();
    (
        SoakPhase {
            threads,
            telemetry,
            queries,
            elapsed_s,
            qps: queries as f64 / elapsed_s,
            p50_ms: percentile(&latencies_ms, 0.50),
            p90_ms: percentile(&latencies_ms, 0.90),
            p99_ms: percentile(&latencies_ms, 0.99),
            series,
        },
        windows,
    )
}

impl SoakReport {
    /// Runs the full soak: a discarded warmup, the telemetry-on thread
    /// ladder, and the telemetry-off baseline at the first rung.
    pub fn run(bench: &Bench, opts: &SoakOptions) -> SoakReport {
        let ladder = thread_ladder(opts.max_threads);
        let wide = Mutex::new(WideEventLog::new(WIDE_RESERVOIR, WIDE_TAIL, opts.seed));

        // Warmup: touches every cold path (attribution cache, allocator
        // arenas, branch predictors) so the first measured rung is not
        // paying one-time costs. Short, discarded.
        let warmup = opts.duration.div_f64(5.0).clamp(
            Duration::from_millis(200),
            Duration::from_secs(2),
        );
        eprintln!("[soak] warmup: {} threads for {:.1}s...", ladder[ladder.len() - 1], warmup.as_secs_f64());
        let _ = run_phase(bench, opts, ladder[ladder.len() - 1], true, warmup, None);

        // The profiler samples the measured ladder only (warmup is
        // discarded, so sampling it would just dilute the profile). The
        // telemetry-off twin runs inside the sampled region too — its
        // spans are compiled in, only the soak-level probes are skipped —
        // which keeps the on/off phase pair thermally back-to-back.
        let profiler = opts.profile.then(rightcrowd_obs::Profiler::start);

        let mut phases = Vec::new();
        let mut last_windows = Vec::new();

        // Telemetry-on rung 1 first, then its telemetry-off twin
        // back-to-back (thermal/cache drift hits both equally), then the
        // rest of the ladder.
        for (i, &threads) in ladder.iter().enumerate() {
            eprintln!(
                "[soak] measuring {} thread{} (telemetry on) for {:.1}s...",
                threads,
                if threads == 1 { "" } else { "s" },
                opts.duration.as_secs_f64()
            );
            let (phase, windows) =
                run_phase(bench, opts, threads, true, opts.duration, Some(&wide));
            last_windows = windows;
            phases.push(phase);
            if i == 0 {
                eprintln!(
                    "[soak] measuring {} thread{} (telemetry off) for {:.1}s...",
                    threads,
                    if threads == 1 { "" } else { "s" },
                    opts.duration.as_secs_f64()
                );
                let (off, _) = run_phase(bench, opts, threads, false, opts.duration, None);
                phases.push(off);
            }
        }

        let qps_on = phases
            .iter()
            .find(|p| p.telemetry && p.threads == ladder[0])
            .map_or(0.0, |p| p.qps);
        let qps_off = phases
            .iter()
            .find(|p| !p.telemetry && p.threads == ladder[0])
            .map_or(0.0, |p| p.qps);
        let telemetry_overhead_frac =
            if qps_off > 0.0 { ((qps_off - qps_on) / qps_off).max(0.0) } else { 0.0 };

        let mut wide = wide.into_inner().expect("wide-event log poisoned");
        let profile = profiler.map(rightcrowd_obs::Profiler::stop);
        if let Some(profile) = &profile {
            let cpu = profile.query_cpu_us();
            wide.attribute_cpu(&cpu);
            rightcrowd_obs::flight::attribute_cpu(&cpu);
            eprintln!(
                "[soak] profiler: {} samples over {} ticks, CPU attributed to {} queries",
                profile.samples,
                profile.ticks,
                cpu.len()
            );
        }
        let openmetrics = rightcrowd_obs::export::openmetrics_from_windows(
            &build_info(),
            &last_windows,
        );
        SoakReport {
            scale: crate::runner::scale_label(),
            git_rev: crate::report::git_rev(),
            unix_time: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            duration_ms: opts.duration.as_millis() as u64,
            tick_ms: opts.tick.as_millis() as u64,
            phases,
            telemetry_overhead_frac,
            rss_peak_bytes: rightcrowd_obs::rss_peak_bytes(),
            events_seen: wide.seen(),
            events_retained: wide.retained(),
            events_jsonl: wide.to_jsonl(),
            openmetrics,
            profile,
        }
    }

    /// The headline keys merged into `BENCH_<scale>.json`: throughput
    /// and under-load percentiles per default ladder rung, the telemetry
    /// overhead fraction, and peak RSS.
    pub fn bench_entries(&self) -> Vec<(String, Json)> {
        let mut entries = Vec::new();
        for phase in self.phases.iter().filter(|p| p.telemetry) {
            if ![1usize, 2, 4, 8].contains(&phase.threads) {
                continue;
            }
            let t = phase.threads;
            entries.push((format!("qps_t{t}"), Json::Num(phase.qps)));
            entries.push((format!("p50_under_load_t{t}_ms"), Json::Num(phase.p50_ms)));
            entries.push((format!("p99_under_load_t{t}_ms"), Json::Num(phase.p99_ms)));
        }
        entries.push((
            "soak_telemetry_overhead_frac".to_owned(),
            Json::Num(self.telemetry_overhead_frac),
        ));
        if let Some(rss) = self.rss_peak_bytes {
            entries.push(("rss_peak_bytes".to_owned(), Json::Num(rss as f64)));
        }
        entries
    }

    /// Merges [`SoakReport::bench_entries`] into the bench snapshot at
    /// `path` (parse → insert → re-render, so the result stays valid
    /// JSON; keys come out alphabetised). A missing snapshot becomes a
    /// minimal one so a soak-only run still leaves a gateable artifact.
    pub fn merge_into_bench(&self, path: &std::path::Path) -> Result<(), String> {
        let mut doc = match std::fs::read_to_string(path) {
            Ok(text) => parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let mut m = std::collections::BTreeMap::new();
                m.insert("scale".to_owned(), Json::Str(self.scale.clone()));
                m.insert("git_rev".to_owned(), Json::Str(self.git_rev.clone()));
                Json::Obj(m)
            }
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        for (key, value) in self.bench_entries() {
            doc.set(&key, value);
        }
        std::fs::write(path, doc.render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// The full report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut m = std::collections::BTreeMap::new();
        m.insert("scale".to_owned(), Json::Str(self.scale.clone()));
        m.insert("git_rev".to_owned(), Json::Str(self.git_rev.clone()));
        m.insert("unix_time".to_owned(), Json::Num(self.unix_time as f64));
        m.insert("duration_ms".to_owned(), Json::Num(self.duration_ms as f64));
        m.insert("tick_ms".to_owned(), Json::Num(self.tick_ms as f64));
        m.insert(
            "phases".to_owned(),
            Json::Arr(self.phases.iter().map(SoakPhase::to_json).collect()),
        );
        m.insert(
            "soak_telemetry_overhead_frac".to_owned(),
            Json::Num(self.telemetry_overhead_frac),
        );
        m.insert(
            "rss_peak_bytes".to_owned(),
            self.rss_peak_bytes.map_or(Json::Null, |b| Json::Num(b as f64)),
        );
        m.insert("events_seen".to_owned(), Json::Num(self.events_seen as f64));
        m.insert("events_retained".to_owned(), Json::Num(self.events_retained as f64));
        for (key, value) in self.bench_entries() {
            m.entry(key).or_insert(value);
        }
        Json::Obj(m).render()
    }

    /// Writes the three artifacts into `dir` (created if missing) and
    /// merges the headline keys into `BENCH_<scale>.json` there. The
    /// OpenMetrics text is validated before it is written — an
    /// exposition this binary cannot re-parse is a bug, not an artifact.
    /// Returns the paths written.
    pub fn write_to(&self, dir: &std::path::Path) -> Result<Vec<std::path::PathBuf>, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut written = Vec::new();

        let json_path = dir.join(format!("SOAK_{}.json", self.scale));
        std::fs::write(&json_path, self.to_json())
            .map_err(|e| format!("cannot write {}: {e}", json_path.display()))?;
        written.push(json_path);

        let events_path = dir.join(format!("SOAK_{}.events.jsonl", self.scale));
        std::fs::write(&events_path, &self.events_jsonl)
            .map_err(|e| format!("cannot write {}: {e}", events_path.display()))?;
        written.push(events_path);

        rightcrowd_obs::validate_openmetrics(&self.openmetrics)
            .map_err(|e| format!("soak exposition failed validation: {e}"))?;
        let om_path = dir.join(format!("SOAK_{}.openmetrics", self.scale));
        std::fs::write(&om_path, &self.openmetrics)
            .map_err(|e| format!("cannot write {}: {e}", om_path.display()))?;
        written.push(om_path);

        let bench_path = dir.join(format!("BENCH_{}.json", self.scale));
        self.merge_into_bench(&bench_path)?;
        written.push(bench_path);
        Ok(written)
    }
}

/// A minimal keep-alive HTTP/1.1 client for driving `rc serve` over
/// real TCP: enough protocol for `POST /rank`, `GET /healthz` and the
/// chunked `GET /metrics` exposition.
pub struct SoakClient {
    addr: String,
    stream: std::net::TcpStream,
    carry: Vec<u8>,
    /// The last response carried `Connection: close` — the daemon caps
    /// requests per connection, so the next request needs a fresh one.
    close_after: bool,
}

impl SoakClient {
    /// Connects to the daemon with a request timeout.
    pub fn connect(addr: &str) -> Result<SoakClient, String> {
        let stream = std::net::TcpStream::connect(addr)
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(10))))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("cannot configure socket to {addr}: {e}"))?;
        Ok(SoakClient { addr: addr.to_owned(), stream, carry: Vec::new(), close_after: false })
    }

    /// Replaces the connection (announced close, request cap, idle
    /// timeout) — the reconnect cost lands in the measured latency,
    /// which is what a real client of the daemon would pay too.
    fn reconnect(&mut self) -> Result<(), String> {
        *self = SoakClient::connect(&self.addr)?;
        Ok(())
    }

    /// `POST path` with a JSON body; returns `(status, body)`.
    pub fn post(&mut self, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: rc\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.round_trip(&request)
    }

    /// `GET path`; returns `(status, body)`.
    pub fn get(&mut self, path: &str) -> Result<(u16, Vec<u8>), String> {
        let request = format!("GET {path} HTTP/1.1\r\nHost: rc\r\n\r\n");
        self.round_trip(&request)
    }

    /// Sends one request and reads its response, transparently taking
    /// a fresh connection when the daemon announced a close — and
    /// retrying once on a fresh connection when the old one died
    /// unannounced (keep-alive idled out between requests). A failure
    /// on the fresh connection is real and propagates.
    fn round_trip(&mut self, request: &str) -> Result<(u16, Vec<u8>), String> {
        if self.close_after {
            self.reconnect()?;
        }
        match self.send_and_read(request) {
            Ok(response) => Ok(response),
            Err(_) => {
                self.reconnect()?;
                self.send_and_read(request)
            }
        }
    }

    fn send_and_read(&mut self, request: &str) -> Result<(u16, Vec<u8>), String> {
        use std::io::Write;
        self.stream.write_all(request.as_bytes()).map_err(|e| format!("send: {e}"))?;
        self.read_response()
    }

    /// Reads one response off the keep-alive connection —
    /// Content-Length-framed or chunked — leaving any pipelined surplus
    /// in the carry buffer.
    fn read_response(&mut self) -> Result<(u16, Vec<u8>), String> {
        let head_end = loop {
            if let Some(i) =
                self.carry.windows(4).position(|w| w == b"\r\n\r\n")
            {
                break i + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.carry[..head_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("malformed status line: {:?}", head.lines().next()))?;
        let header = |name: &str| {
            head.lines().find_map(|l| {
                let (n, value) = l.split_once(':')?;
                n.eq_ignore_ascii_case(name).then(|| value.trim().to_owned())
            })
        };
        self.close_after =
            header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        let chunked = header("transfer-encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
        if chunked {
            self.carry.drain(..head_end);
            return Ok((status, self.read_chunked_body()?));
        }
        let length: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| "response without Content-Length".to_owned())?;
        self.carry.drain(..head_end);
        while self.carry.len() < length {
            self.fill()?;
        }
        let body: Vec<u8> = self.carry.drain(..length).collect();
        Ok((status, body))
    }

    /// Reassembles a chunked body: `size-hex\r\n data \r\n` repeated,
    /// terminated by a zero-size chunk.
    fn read_chunked_body(&mut self) -> Result<Vec<u8>, String> {
        let mut body = Vec::new();
        loop {
            let line_end = loop {
                if let Some(i) = self.carry.windows(2).position(|w| w == b"\r\n") {
                    break i;
                }
                self.fill()?;
            };
            let size_line = String::from_utf8_lossy(&self.carry[..line_end]).into_owned();
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| format!("malformed chunk size {size_line:?}"))?;
            self.carry.drain(..line_end + 2);
            while self.carry.len() < size + 2 {
                self.fill()?;
            }
            body.extend(self.carry.drain(..size));
            self.carry.drain(..2); // the chunk's trailing CRLF
            if size == 0 {
                return Ok(body);
            }
        }
    }

    /// Reads more bytes from the daemon into the carry buffer.
    fn fill(&mut self) -> Result<(), String> {
        use std::io::Read;
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection mid-response".to_owned());
        }
        self.carry.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// The `/rank` request body connect-mode sends for `text` — also what
/// the bit-identity pre-check posts, so the two cannot diverge.
fn rank_body(text: &str) -> String {
    format!("{{\"query\": {}, \"top\": 10}}", rightcrowd_serve::http::json_escape(text))
}

/// Runs one closed-loop connect-mode phase: `threads` workers, each on
/// its own keep-alive connection, posting Zipf-picked queries to the
/// daemon until the deadline or budget. Latency is the full round trip
/// (serialise + TCP + daemon rank + response), which is the number a
/// client of the daemon actually experiences.
fn run_connect_phase(
    bench: &Bench,
    opts: &SoakOptions,
    addr: &str,
    threads: usize,
    duration: Duration,
) -> Result<SoakPhase, String> {
    let needs = bench.ds.queries();
    let zipf = ZipfPicker::new(needs.len().max(1), ZIPF_S);
    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);

    let started = Instant::now();
    let deadline = started + duration;
    let outs: Vec<Result<WorkerOut, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let (stop, completed, zipf) = (&stop, &completed, &zipf);
                scope.spawn(move || {
                    let mut client = SoakClient::connect(addr)?;
                    let mut rng =
                        opts.seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    let mut latencies_ns = Vec::new();
                    while !stop.load(Ordering::Acquire) && !needs.is_empty() {
                        let need = &needs[zipf.pick(next_unit(&mut rng))];
                        let body = rank_body(&need.text);
                        let one = Instant::now();
                        let (status, _) = client.post("/rank", &body)?;
                        let elapsed = one.elapsed();
                        if status != 200 {
                            return Err(format!(
                                "daemon answered {status} to a well-formed /rank request"
                            ));
                        }
                        latencies_ns.push(elapsed.as_nanos() as u64);
                        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                        if opts.query_budget.is_some_and(|budget| done >= budget) {
                            stop.store(true, Ordering::Release);
                        }
                    }
                    Ok(WorkerOut { latencies_ns })
                })
            })
            .collect();

        while Instant::now() < deadline && !stop.load(Ordering::Acquire) {
            std::thread::sleep(
                Duration::from_millis(25)
                    .min(deadline.saturating_duration_since(Instant::now())),
            );
        }
        stop.store(true, Ordering::Release);
        handles.into_iter().map(|h| h.join().expect("connect worker panicked")).collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64().max(1e-9);

    let mut latencies_ms = Vec::new();
    for out in outs {
        latencies_ms
            .extend(out?.latencies_ns.iter().map(|&ns| ns as f64 / 1e6));
    }
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let queries = latencies_ms.len() as u64;
    Ok(SoakPhase {
        threads,
        // Client-side phases carry no sampler: the daemon owns the live
        // registry (scrape `GET /metrics` for it).
        telemetry: false,
        queries,
        elapsed_s,
        qps: queries as f64 / elapsed_s,
        p50_ms: percentile(&latencies_ms, 0.50),
        p90_ms: percentile(&latencies_ms, 0.90),
        p99_ms: percentile(&latencies_ms, 0.99),
        series: Vec::new(),
    })
}

/// Everything one `rc soak --connect` run produced: the thread ladder
/// replayed against a live daemon over TCP.
pub struct ConnectReport {
    /// Dataset scale label (checked against the daemon's `/healthz`).
    pub scale: String,
    /// Short git revision of the measuring tree.
    pub git_rev: String,
    /// Seconds since the Unix epoch at measurement time.
    pub unix_time: u64,
    /// The daemon address driven.
    pub addr: String,
    /// Per-phase duration the run was configured with (ms).
    pub duration_ms: u64,
    /// Queries whose served bytes were verified against in-process
    /// ranking before the ladder ran.
    pub identity_checked: usize,
    /// Measured phases in ladder order (the warmup is discarded).
    pub phases: Vec<SoakPhase>,
}

impl ConnectReport {
    /// Runs the connect-mode soak: verifies the daemon serves this
    /// tree's exact bytes (scale via `/healthz`, then byte-identity of
    /// `/rank` against in-process [`crate::serve_app::rank_response`]
    /// for a prefix of the workload), then walks the thread ladder.
    pub fn run(bench: &Bench, addr: &str, opts: &SoakOptions) -> Result<ConnectReport, String> {
        let scale = crate::runner::scale_label();
        let mut probe = SoakClient::connect(addr)?;
        let (status, health) = probe.get("/healthz")?;
        if status != 200 {
            return Err(format!("{addr}/healthz answered {status}"));
        }
        let health = parse_json(&String::from_utf8_lossy(&health))
            .map_err(|e| format!("{addr}/healthz body is not JSON: {e}"))?;
        match health.get("scale") {
            Some(Json::Str(daemon_scale)) if *daemon_scale == scale => {}
            Some(Json::Str(daemon_scale)) => {
                return Err(format!(
                    "scale mismatch: daemon serves {daemon_scale:?}, this run is {scale:?} \
                     (set RIGHTCROWD_SCALE or --scale to match)"
                ));
            }
            _ => return Err(format!("{addr}/healthz reports no scale")),
        }

        // Bit-identity: the served response must be byte-for-byte what
        // in-process ranking renders, or every latency this run measures
        // describes some other computation.
        let config = FinderConfig::default();
        let attribution = bench.ctx().attribution(&config);
        let checked: Vec<&rightcrowd_synth::ExpertiseNeed> =
            bench.ds.queries().iter().take(3).collect();
        for need in &checked {
            let (expected, _) =
                crate::serve_app::rank_response(bench, &attribution, &config, &need.text, 10);
            let (status, served) = probe.post("/rank", &rank_body(&need.text))?;
            if status != 200 {
                return Err(format!("{addr}/rank answered {status} during identity check"));
            }
            if served != expected.as_bytes() {
                return Err(format!(
                    "served response for {:?} differs from in-process ranking \
                     ({} vs {} bytes) — daemon built from a different tree or snapshot?",
                    need.text,
                    served.len(),
                    expected.len()
                ));
            }
        }
        eprintln!(
            "[soak] identity: {} served responses byte-identical to in-process ranking",
            checked.len()
        );

        let ladder = thread_ladder(opts.max_threads);
        let warmup = opts
            .duration
            .div_f64(5.0)
            .clamp(Duration::from_millis(200), Duration::from_secs(2));
        eprintln!(
            "[soak] warmup: {} connection(s) against {addr} for {:.1}s...",
            ladder[ladder.len() - 1],
            warmup.as_secs_f64()
        );
        let _ = run_connect_phase(bench, opts, addr, ladder[ladder.len() - 1], warmup)?;

        let mut phases = Vec::new();
        for &threads in &ladder {
            eprintln!(
                "[soak] measuring {threads} connection(s) against {addr} for {:.1}s...",
                opts.duration.as_secs_f64()
            );
            phases.push(run_connect_phase(bench, opts, addr, threads, opts.duration)?);
        }
        Ok(ConnectReport {
            scale,
            git_rev: crate::report::git_rev(),
            unix_time: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            addr: addr.to_owned(),
            duration_ms: opts.duration.as_millis() as u64,
            identity_checked: checked.len(),
            phases,
        })
    }

    /// The headline keys merged into `BENCH_<scale>.json`: served
    /// throughput and under-load round-trip percentiles per default
    /// ladder rung, gated by `rc regress` with the same reversed-slack
    /// rules as the in-process soak keys.
    pub fn bench_entries(&self) -> Vec<(String, Json)> {
        let mut entries = Vec::new();
        for phase in &self.phases {
            if ![1usize, 2, 4, 8].contains(&phase.threads) {
                continue;
            }
            let t = phase.threads;
            entries.push((format!("serve_qps_t{t}"), Json::Num(phase.qps)));
            entries.push((format!("serve_p50_under_load_t{t}_ms"), Json::Num(phase.p50_ms)));
            entries.push((format!("serve_p99_under_load_t{t}_ms"), Json::Num(phase.p99_ms)));
        }
        entries
    }

    /// The full report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut m = std::collections::BTreeMap::new();
        m.insert("scale".to_owned(), Json::Str(self.scale.clone()));
        m.insert("git_rev".to_owned(), Json::Str(self.git_rev.clone()));
        m.insert("unix_time".to_owned(), Json::Num(self.unix_time as f64));
        m.insert("addr".to_owned(), Json::Str(self.addr.clone()));
        m.insert("duration_ms".to_owned(), Json::Num(self.duration_ms as f64));
        m.insert("identity_checked".to_owned(), Json::Num(self.identity_checked as f64));
        m.insert(
            "phases".to_owned(),
            Json::Arr(self.phases.iter().map(SoakPhase::to_json).collect()),
        );
        for (key, value) in self.bench_entries() {
            m.entry(key).or_insert(value);
        }
        Json::Obj(m).render()
    }

    /// Writes `SERVE_<scale>.json` into `dir` and merges the headline
    /// keys into `BENCH_<scale>.json` there (same parse → insert →
    /// re-render contract as the in-process soak). Returns the paths
    /// written.
    pub fn write_to(&self, dir: &std::path::Path) -> Result<Vec<std::path::PathBuf>, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut written = Vec::new();

        let json_path = dir.join(format!("SERVE_{}.json", self.scale));
        std::fs::write(&json_path, self.to_json())
            .map_err(|e| format!("cannot write {}: {e}", json_path.display()))?;
        written.push(json_path);

        let bench_path = dir.join(format!("BENCH_{}.json", self.scale));
        let mut doc = match std::fs::read_to_string(&bench_path) {
            Ok(text) => {
                parse_json(&text).map_err(|e| format!("{}: {e}", bench_path.display()))?
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let mut m = std::collections::BTreeMap::new();
                m.insert("scale".to_owned(), Json::Str(self.scale.clone()));
                m.insert("git_rev".to_owned(), Json::Str(self.git_rev.clone()));
                Json::Obj(m)
            }
            Err(e) => return Err(format!("cannot read {}: {e}", bench_path.display())),
        };
        for (key, value) in self.bench_entries() {
            doc.set(&key, value);
        }
        std::fs::write(&bench_path, doc.render())
            .map_err(|e| format!("cannot write {}: {e}", bench_path.display()))?;
        written.push(bench_path);
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_covers_the_default_rungs_and_odd_caps() {
        assert_eq!(thread_ladder(None), vec![1, 2, 4, 8]);
        assert_eq!(thread_ladder(Some(8)), vec![1, 2, 4, 8]);
        assert_eq!(thread_ladder(Some(2)), vec![1, 2]);
        assert_eq!(thread_ladder(Some(3)), vec![1, 2, 3]);
        assert_eq!(thread_ladder(Some(1)), vec![1]);
        assert_eq!(thread_ladder(Some(16)), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn zipf_is_skewed_and_exhaustive() {
        let zipf = ZipfPicker::new(100, ZIPF_S);
        assert_eq!(zipf.pick(0.0), 0);
        assert!(zipf.pick(0.999_999) >= 90);
        let mut rng = 7u64;
        let mut hits = [0u32; 100];
        for _ in 0..100_000 {
            hits[zipf.pick(next_unit(&mut rng))] += 1;
        }
        // Rank 0 carries weight 1 of ~5.19 total: ~19% of the draws —
        // and the tail still gets traffic.
        assert!(hits[0] > hits[10] && hits[10] > 0, "{:?}", &hits[..12]);
        assert!((15_000..25_000).contains(&hits[0]), "rank 0 drew {}", hits[0]);
        // Degenerate sizes stay in range.
        assert_eq!(ZipfPicker::new(1, ZIPF_S).pick(0.9), 0);
        assert_eq!(ZipfPicker::new(0, ZIPF_S).pick(0.5), 0);
    }

    /// Satellite 4's bench-side half: on ranks where the type-7
    /// interpolated percentile (`report::percentile`, PR 2) lands
    /// exactly on an observation, the windowed nearest-rank percentile
    /// reports the upper bound of the bucket holding that same
    /// observation — the two implementations select the same sample.
    #[test]
    fn windowed_percentile_selects_the_interpolated_sample() {
        use rightcrowd_obs::hist::{bucket_upper_ns, PlainHistogram, BUCKETS};
        let bucket_of = |ns: u64| (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        // Odd count, spread across decades, so p ∈ {0, 0.5, 1} all hit
        // integral type-7 ranks.
        let samples: Vec<u64> =
            vec![800, 3_000, 70_000, 500_000, 2_000_000, 40_000_000, 900_000_000];
        let mut window = PlainHistogram::new();
        for &ns in &samples {
            window.record_ns(ns);
        }
        let sorted_ms: Vec<f64> = samples.iter().map(|&ns| ns as f64 / 1e6).collect();
        for p in [0.0, 0.5, 1.0] {
            let exact_ns = (percentile(&sorted_ms, p) * 1e6).round() as u64;
            assert!(samples.contains(&exact_ns), "rank must be integral at p={p}");
            assert_eq!(
                window.percentile_ns(p),
                bucket_upper_ns(bucket_of(exact_ns)),
                "p={p}: windowed result must cover the interpolated sample"
            );
        }
    }

    #[test]
    fn soak_runs_end_to_end_on_a_tiny_corpus() {
        let ds = rightcrowd_synth::SyntheticDataset::generate(
            &rightcrowd_synth::DatasetConfig::tiny(),
        );
        let corpus = rightcrowd_core::AnalyzedCorpus::build(&ds);
        let bench = Bench { ds, corpus, generate_ms: 1.0, analyze_ms: 1.0 };
        let opts = SoakOptions {
            duration: Duration::from_millis(300),
            query_budget: Some(400),
            max_threads: Some(2),
            tick: Duration::from_millis(100),
            // Exercise the profiled path too — a no-op under obs-off.
            profile: true,
            ..SoakOptions::default()
        };
        let report = SoakReport::run(&bench, &opts);

        // Ladder [1, 2] telemetry-on plus the off twin at rung 1.
        assert_eq!(report.phases.len(), 3);
        assert!(report.profile.is_some(), "--profile must yield a profile report");
        assert!(report.phases.iter().all(|p| p.queries > 0 && p.qps > 0.0));
        assert!(report.phases.iter().all(|p| p.p50_ms <= p.p99_ms));
        let off: Vec<_> = report.phases.iter().filter(|p| !p.telemetry).collect();
        assert_eq!((off.len(), off[0].threads), (1, 1));
        assert!(off[0].series.is_empty(), "no sampler ticks in the off phase");
        assert!((0.0..=1.0).contains(&report.telemetry_overhead_frac));

        // The report is valid JSON carrying the headline keys.
        let doc = parse_json(&report.to_json()).expect("soak json must parse");
        assert!(doc.get("qps_t1").and_then(Json::as_f64).is_some_and(|q| q > 0.0));
        assert!(doc.get("p99_under_load_t2_ms").is_some());
        assert!(doc.get("phases").is_some());

        if rightcrowd_obs::PROBES_ENABLED {
            // Telemetry phases produced series rows, wide events, and a
            // valid exposition.
            assert!(report.phases.iter().any(|p| p.telemetry && !p.series.is_empty()));
            assert!(report.events_seen > 0);
            assert!(report.events_retained > 0);
            assert!(report.events_jsonl.lines().count() == report.events_retained);
            rightcrowd_obs::validate_openmetrics(&report.openmetrics)
                .expect("soak exposition must validate");
        }

        // Artifacts + BENCH merge land on disk.
        let dir = std::env::temp_dir().join(format!("rc-soak-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let existing = dir.join(format!("BENCH_{}.json", report.scale));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&existing, "{\n  \"query_p50_ms\": 1.25\n}\n").unwrap();
        if rightcrowd_obs::PROBES_ENABLED {
            let written = report.write_to(&dir).expect("artifacts must write");
            assert_eq!(written.len(), 4);
            let merged = parse_json(&std::fs::read_to_string(&existing).unwrap()).unwrap();
            // Pre-existing keys survive the merge; soak keys joined them.
            assert_eq!(merged.get("query_p50_ms").and_then(Json::as_f64), Some(1.25));
            assert!(merged.get("qps_t1").is_some());
            assert!(merged.get("soak_telemetry_overhead_frac").is_some());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn connect_mode_soaks_a_live_daemon_over_tcp() {
        use rightcrowd_serve::{Server, ServerConfig};

        // The scale label must agree between the in-process bench and
        // the daemon's /healthz, and both read RIGHTCROWD_SCALE — but a
        // parallel test could have set it differently, so build both
        // sides from the same tiny dataset and only compare /healthz
        // against whatever scale_label() currently says.
        let ds = rightcrowd_synth::SyntheticDataset::generate(
            &rightcrowd_synth::DatasetConfig::tiny(),
        );
        let corpus = rightcrowd_core::AnalyzedCorpus::build(&ds);
        let bench = Bench { ds, corpus, generate_ms: 1.0, analyze_ms: 1.0 };
        let ds2 = rightcrowd_synth::SyntheticDataset::generate(
            &rightcrowd_synth::DatasetConfig::tiny(),
        );
        let corpus2 = rightcrowd_core::AnalyzedCorpus::build(&ds2);
        let daemon_bench = Bench { ds: ds2, corpus: corpus2, generate_ms: 1.0, analyze_ms: 1.0 };
        let app = crate::serve_app::RankApp::new(daemon_bench, "in-memory".to_owned(), None);

        rightcrowd_serve::reset_stop();
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            ..ServerConfig::default()
        })
        .expect("ephemeral bind");
        let addr = server.local_addr().expect("bound address").to_string();

        // Requests a drain on drop so a failing assertion below still
        // stops the server instead of deadlocking the scope join.
        struct StopOnDrop;
        impl Drop for StopOnDrop {
            fn drop(&mut self) {
                rightcrowd_serve::request_stop();
            }
        }

        std::thread::scope(|scope| {
            let run = scope.spawn(|| server.run(&app));
            let stopper = StopOnDrop;

            let opts = SoakOptions {
                duration: Duration::from_millis(250),
                query_budget: Some(200),
                max_threads: Some(2),
                ..SoakOptions::default()
            };
            let report =
                ConnectReport::run(&bench, &addr, &opts).expect("connect soak must succeed");
            assert_eq!(report.identity_checked, 3);
            assert_eq!(report.phases.len(), 2, "ladder [1, 2]");
            assert!(report.phases.iter().all(|p| p.queries > 0 && p.qps > 0.0));
            assert!(report.phases.iter().all(|p| p.p50_ms <= p.p99_ms));

            // The report is valid JSON carrying the serve_* keys, and
            // the artifacts merge into an existing BENCH snapshot.
            let doc = parse_json(&report.to_json()).expect("connect json must parse");
            assert!(doc.get("serve_qps_t1").and_then(Json::as_f64).is_some_and(|q| q > 0.0));
            assert!(doc.get("serve_p99_under_load_t2_ms").is_some());
            let dir =
                std::env::temp_dir().join(format!("rc-connect-test-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            let existing = dir.join(format!("BENCH_{}.json", report.scale));
            std::fs::write(&existing, "{\n  \"qps_t1\": 100.0\n}\n").unwrap();
            let written = report.write_to(&dir).expect("artifacts must write");
            assert_eq!(written.len(), 2);
            let merged = parse_json(&std::fs::read_to_string(&existing).unwrap()).unwrap();
            assert_eq!(merged.get("qps_t1").and_then(Json::as_f64), Some(100.0));
            assert!(merged.get("serve_qps_t1").is_some());
            std::fs::remove_dir_all(&dir).ok();

            drop(stopper);
            run.join().expect("server thread");
        });
        rightcrowd_serve::reset_stop();
    }
}
