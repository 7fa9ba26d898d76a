//! What every workload shares: arguments, the metric tables, the seeded
//! inputs, the snapshot area and the evaluation sweep.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use rightcrowd_bench::runner::Bench;
use rightcrowd_core::{EvalContext, FinderConfig, WindowSize};
use rightcrowd_metrics::MeanEval;
use rightcrowd_synth::{DatasetConfig, SyntheticDataset};
use rightcrowd_types::{Distance, Platform, PlatformMask};

/// Parsed command line of a measuring run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    /// Seeds every stochastic input of the run: arrivals, need streams,
    /// request mixes.
    pub seed: u64,
    /// Seeds the synthetic study (`DatasetConfig::seed`). Fixed by default,
    /// so that runs with different `--seed`s measure the code on one
    /// dataset; `--data-seed` re-checks a claim on another.
    pub data_seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `rc` binary whose `serve` subcommand is the daemon.
    pub rc: Option<PathBuf>,
    /// The benchmark's own area: snapshots, spans, result files.
    pub area: PathBuf,
    /// Tiny datasets and short phases, for the self-tests.
    pub tiny: bool,
}

/// Dataset scales the workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Small,
    Paper,
}

impl Scale {
    pub fn label(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// The study's own dataset seed, the default `--data-seed`.
pub const DEFAULT_DATA_SEED: u64 = rightcrowd_synth::config::DEFAULT_SEED;

/// The dataset configuration of `scale` under the data seed. `tiny`
/// swaps every scale for the tiny one (self-tests only).
pub fn dataset_config(scale: Scale, seed: u64, tiny: bool) -> DatasetConfig {
    let mut config = match (tiny, scale) {
        (true, _) => DatasetConfig::tiny(),
        (false, Scale::Small) => DatasetConfig::small(),
        (false, Scale::Paper) => DatasetConfig::paper(),
    };
    config.seed = seed;
    config
}

/// The end-to-end metrics, with units, in `BENCHMARK.json` order. Each
/// workload measures every one on its own activity: `latency_p50_ms` is
/// the median time of one unit of its work and `throughput_per_s` the
/// rate at which it gets that work done (see `README.md`).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("quality_map", "score"),
    ("quality_ndcg10", "score"),
    ("snapshot_bytes_per_doc", "B"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
];

/// The per-layer metrics other than the `quality.*` counts.
pub const LAYER: [(&str, &str); 38] = [
    ("serve.transport_ms.p50", "ms"),
    ("serve.shed_frac", "fraction"),
    ("serve_app.handle_ms.p50", "ms"),
    ("serve_app.handle_ms.p99", "ms"),
    ("serve_app.render_us.p50", "us"),
    ("pipeline.new_ms", "ms"),
    ("pipeline.new_calls_per_query", "count"),
    ("langid.train_ms", "ms"),
    ("pipeline.analyze_query_us.p50", "us"),
    ("pipeline.analyze_doc_us.p50", "us"),
    ("langid.detect_us.p50", "us"),
    ("text.process_us.p50", "us"),
    ("annotate.tokens_us.p50", "us"),
    ("langid.dropped_frac", "fraction"),
    ("annotate.entities_per_doc", "count"),
    ("corpus.build_s", "s"),
    ("store.save_s", "s"),
    ("store.bytes", "B"),
    ("store.open_ms", "ms"),
    ("attribution.compute_ms", "ms"),
    ("attribution.cache_hit_frac", "fraction"),
    ("index.score_top_k_us.p50", "us"),
    ("index.score_top_k_us.p99", "us"),
    ("index.score_all_us.p50", "us"),
    ("index.score_components_us.p50", "us"),
    ("index.postings_per_query", "count"),
    ("index.blocks_decoded_per_query", "count"),
    ("index.blocks_skipped_frac", "fraction"),
    ("index.pruned_frac", "fraction"),
    ("ranker.rank_scored_us.p50", "us"),
    ("ranker.rank_components_us.p50", "us"),
    ("metrics.evaluate_us.p50", "us"),
    ("eval.grid_s", "s"),
    ("eval.alpha_sweep_s", "s"),
    ("eval.window_sweep_s", "s"),
    ("loadgen.lag_ms.p99", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
];

/// Table 3's platform masks, with the labels the quality keys use.
pub fn masks() -> [(&'static str, PlatformMask); 4] {
    [
        ("all", PlatformMask::ALL),
        ("fb", PlatformMask::only(Platform::Facebook)),
        ("tw", PlatformMask::only(Platform::Twitter)),
        ("li", PlatformMask::only(Platform::LinkedIn)),
    ]
}

/// Fig. 6's window fractions (0.5 % – 10 % of the matching resources).
pub const FRACTIONS: [f64; 8] = [0.005, 0.01, 0.02, 0.03, 0.04, 0.06, 0.08, 0.10];

/// Fig. 6 sweeps the window at these distances, with α = 0.5.
pub const WINDOW_DISTANCES: [Distance; 2] = [Distance::D1, Distance::D2];

/// The α grid of Fig. 7.
pub fn alphas() -> Vec<f64> {
    rightcrowd_bench::experiments::alpha::alpha_grid()
}

/// Key fragment naming a window fraction, e.g. `win0.5pct`.
pub fn window_key(fraction: f64) -> String {
    format!("win{}pct", fraction * 100.0)
}

/// The `quality.*` per-layer keys: MAP/NDCG/NDCG@10/MRR per Table 3
/// (platform, distance) at the default α and window; MAP and NDCG at
/// α = 0 per distance; MAP at every Fig. 6 window point.
pub fn quality_names() -> Vec<String> {
    let mut names = Vec::new();
    for (mask, _) in masks() {
        for d in Distance::ALL {
            for m in ["map", "ndcg", "ndcg10", "mrr"] {
                names.push(format!("quality.{m}.{mask}.d{}", d.level()));
            }
        }
    }
    for d in Distance::ALL {
        for m in ["map", "ndcg"] {
            names.push(format!("quality.{m}.alpha0.d{}", d.level()));
        }
    }
    for d in WINDOW_DISTANCES {
        for f in FRACTIONS {
            names.push(format!("quality.map.{}.d{}", window_key(f), d.level()));
        }
    }
    names
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        LAYER.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    all.extend(quality_names().into_iter().map(|n| (n, "score")));
    all
}

/// The metrics one run reports, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Renders the metrics of `table` (missing ones as 0) as the
    /// `metrics` member of the result line.
    pub fn render(&self, table: &[(String, &str)]) -> String {
        let parts: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// Operations attempted and failed, for `ok_frac` and the result line.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("[perfbench] check failed: {}", what());
            }
        }
    }

    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// splitmix64: the benchmark's own seeded stream, so inputs depend only
/// on `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seeded Zipf(s = 1) stream of `len` need indices over `needs` needs.
///
/// The stream is stratified: every seed draws the same multiset (each
/// need appears in proportion to its Zipf weight, largest remainders
/// rounded up) in a seed-dependent order. Latency percentiles then
/// describe the same mix of needs on every run, and the seed moves only
/// the order, so a median cannot flip between the cost modes of cheap
/// and expensive needs as the sampled mix wobbles.
pub fn need_stream(seed: u64, stream: u64, needs: usize, len: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=needs).map(|rank| 1.0 / rank as f64).collect();
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| w / total * len as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..needs).collect();
    by_remainder.sort_by(|&a, &b| {
        let ra = quotas[a] - quotas[a].floor();
        let rb = quotas[b] - quotas[b].floor();
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let short = len - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let mut out: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
        .collect();
    shuffle(&mut out, &mut Rng::new(seed, stream));
    out
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// FNV-1a 64 over `bytes`, continuing from `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1_0000_0000_01b3);
    }
    hash
}

/// Identity of the code under test: a hash of the benchmark binary and,
/// when given, the daemon binary. Both are built from the checkout, so a
/// different commit gives a different key.
pub fn code_key(rc: Option<&Path>) -> Result<u64, String> {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    for path in std::iter::once(exe.as_path()).chain(rc) {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        hash = fnv1a(hash, &bytes);
    }
    Ok(hash)
}

/// Peak resident set (VmHWM) of process `pid`, MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Total size of the regular files in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Shards every snapshot the benchmark writes is split into.
pub const SHARDS: usize = 4;

/// Analysis and encode threads: the machine's cores.
pub fn threads() -> usize {
    rightcrowd_core::par::default_threads()
}

/// The mapped-layout snapshot of `(scale, seed)` built by the code under
/// test, from the benchmark's area. It is keyed by (code, data seed, scale)
/// and built once, before any timing, by a child process running the
/// `build-snapshot` subcommand (so the build's memory does not count
/// towards the measuring process's peak).
pub fn snapshot(args: &Args, scale: Scale) -> Result<PathBuf, String> {
    let key = code_key(args.rc.as_deref())?;
    let tiny = if args.tiny { "-tiny" } else { "" };
    let root = args.area.join("snapshots");
    let dir = root.join(format!(
        "{}{tiny}-data{}-{key:016x}",
        scale.label(),
        args.data_seed
    ));
    if dir.join("READY").is_file() {
        eprintln!("[perfbench] snapshot {} (cached)", dir.display());
        return Ok(dir);
    }
    std::fs::create_dir_all(&root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    evict_snapshots(&root, key);
    let partial = root.join(format!("partial-{}", std::process::id()));
    std::fs::remove_dir_all(&partial).ok();
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "build-snapshot",
        "--scale",
        scale.label(),
        "--seed",
        &args.data_seed.to_string(),
    ]);
    cmd.arg("--out").arg(&partial);
    if args.tiny {
        cmd.arg("--tiny");
    }
    let started = Instant::now();
    let status = cmd
        .status()
        .map_err(|e| format!("cannot run snapshot build: {e}"))?;
    if !status.success() {
        return Err(format!("snapshot build failed: {status}"));
    }
    std::fs::write(partial.join("READY"), b"").map_err(|e| format!("cannot mark snapshot: {e}"))?;
    std::fs::remove_dir_all(&dir).ok();
    std::fs::rename(&partial, &dir).map_err(|e| format!("cannot place snapshot: {e}"))?;
    eprintln!(
        "[perfbench] built snapshot {} in {:.1} s",
        dir.display(),
        started.elapsed().as_secs_f64()
    );
    Ok(dir)
}

/// Removes what other code left in the snapshot area: snapshots keyed by
/// another code hash (they are never reused) and partial builds of
/// interrupted runs.
fn evict_snapshots(root: &Path, key: u64) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    let mine = format!("-{key:016x}");
    let own_partial = format!("partial-{}", std::process::id());
    for path in entries.filter_map(Result::ok).map(|e| e.path()) {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() && !name.ends_with(&mine) && name != own_partial {
            std::fs::remove_dir_all(&path).ok();
        }
    }
}

/// The `build-snapshot` subcommand: generate, analyse, save mapped.
pub fn build_snapshot(scale: Scale, seed: u64, out: &Path, tiny: bool) -> Result<(), String> {
    let ds = SyntheticDataset::generate(&dataset_config(scale, seed, tiny));
    let corpus = rightcrowd_core::AnalyzedCorpus::build(&ds);
    rightcrowd_store::save_sharded_with(
        out,
        &ds,
        &corpus,
        SHARDS,
        threads(),
        rightcrowd_store::SnapshotLayout::Mapped,
    )
    .map_err(|e| format!("cannot save snapshot {}: {e}", out.display()))?;
    Ok(())
}

/// Opens a snapshot into a [`Bench`], with the open's wall time in ms.
pub fn open(dir: &Path) -> Result<(Bench, f64), String> {
    let started = Instant::now();
    let (ds, corpus, _) = rightcrowd_bench::runner::load_snapshot(dir, threads())?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    Ok((
        Bench {
            ds,
            corpus,
            generate_ms: 0.0,
            analyze_ms: 0.0,
        },
        ms,
    ))
}

/// Which figure a sweep configuration belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// Table 3: 4 platform masks × distances 0–2, α 0.6, window 100.
    Grid,
    /// Fig. 7: α 0.0–1.0 at distances 0–2, window 100.
    Alpha,
    /// Fig. 6: window fractions at distances 1–2, α 0.5.
    Window,
}

/// One evaluated sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    pub group: Group,
    /// Quality-key fragment (`all.d2`, `alpha0.d1`, `win2pct.d2`, …).
    pub label: String,
    pub config: FinderConfig,
    pub mean: MeanEval,
    pub rankings: Vec<Vec<rightcrowd_core::RankedExpert>>,
}

/// The 61 configurations of one reproduction pass, in run order.
pub fn sweep_configs() -> Vec<(Group, String, FinderConfig)> {
    let mut out = Vec::new();
    for (mask_label, mask) in masks() {
        for d in Distance::ALL {
            let config = FinderConfig::default()
                .with_platforms(mask)
                .with_distance(d);
            out.push((Group::Grid, format!("{mask_label}.d{}", d.level()), config));
        }
    }
    for d in Distance::ALL {
        for a in alphas() {
            let config = FinderConfig::default().with_distance(d).with_alpha(a);
            out.push((Group::Alpha, format!("alpha{a}.d{}", d.level()), config));
        }
    }
    for d in WINDOW_DISTANCES {
        for f in FRACTIONS {
            let config = FinderConfig::default()
                .with_alpha(0.5)
                .with_distance(d)
                .with_window(WindowSize::Fraction(f));
            out.push((
                Group::Window,
                format!("{}.d{}", window_key(f), d.level()),
                config,
            ));
        }
    }
    out
}

/// One untraced reproduction pass through the evaluation API, as the
/// experiment binaries drive it: `run` per Table 3 cell,
/// `run_alpha_sweep` per distance, `run_with_attribution` per window
/// point. Returns the points in [`sweep_configs`] order and the wall
/// seconds of the three groups.
pub fn sweep_pass(ctx: &EvalContext<'_>) -> (Vec<Point>, [f64; 3]) {
    let configs = sweep_configs();
    let point = |i: usize, o: rightcrowd_core::ConfigOutcome| {
        let (group, label, config) = configs[i].clone();
        Point {
            group,
            label,
            config,
            mean: o.mean,
            rankings: o.rankings,
        }
    };
    let mut points = Vec::with_capacity(configs.len());
    let mut times = [0.0; 3];

    let started = Instant::now();
    for (i, (_, _, config)) in configs
        .iter()
        .enumerate()
        .filter(|(_, c)| c.0 == Group::Grid)
    {
        points.push(point(i, ctx.run(config)));
    }
    times[0] = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let grid = alphas();
    for d in Distance::ALL {
        let base = FinderConfig::default().with_distance(d);
        let first = configs
            .iter()
            .position(|(g, _, c)| *g == Group::Alpha && c.max_distance == d)
            .expect("alpha configs exist for every distance");
        for (k, outcome) in ctx.run_alpha_sweep(&base, &grid).into_iter().enumerate() {
            points.push(point(first + k, outcome));
        }
    }
    times[1] = started.elapsed().as_secs_f64();

    let started = Instant::now();
    for d in WINDOW_DISTANCES {
        let base = FinderConfig::default().with_alpha(0.5).with_distance(d);
        let attribution = ctx.attribution(&base);
        for (i, (_, _, config)) in configs
            .iter()
            .enumerate()
            .filter(|(_, c)| c.0 == Group::Window && c.2.max_distance == d)
        {
            points.push(point(i, ctx.run_with_attribution(config, &attribution)));
        }
    }
    times[2] = started.elapsed().as_secs_f64();
    (points, times)
}

/// Times one sweep pass, checking it against `reference`. Returns its
/// seconds.
pub fn timed_pass(ctx: &EvalContext<'_>, reference: &[Point], ops: &mut Ops) -> f64 {
    let started = Instant::now();
    let (points, _) = sweep_pass(ctx);
    let secs = started.elapsed().as_secs_f64();
    ops.check(same_points(reference, &points), || {
        "a sweep pass changed its outcome".into()
    });
    secs
}

/// The default configuration's point (All, d2, α 0.6, window 100).
pub fn default_point(points: &[Point]) -> &Point {
    points
        .iter()
        .find(|p| p.label == "all.d2")
        .expect("the grid holds all.d2")
}

/// Records the `quality.*` keys and the two end-to-end quality metrics.
pub fn record_quality(points: &[Point], metrics: &mut Metrics) {
    for p in points {
        let m = &p.mean;
        match p.group {
            Group::Grid => {
                for (k, v) in [
                    ("map", m.map),
                    ("ndcg", m.ndcg),
                    ("ndcg10", m.ndcg10),
                    ("mrr", m.mrr),
                ] {
                    metrics.set(&format!("quality.{k}.{}", p.label), v);
                }
            }
            Group::Alpha if p.config.alpha == 0.0 => {
                let d = p.config.max_distance.level();
                metrics.set(&format!("quality.map.alpha0.d{d}"), m.map);
                metrics.set(&format!("quality.ndcg.alpha0.d{d}"), m.ndcg);
            }
            Group::Alpha => {}
            Group::Window => metrics.set(&format!("quality.map.{}", p.label), m.map),
        }
    }
    let default = default_point(points);
    metrics.set("quality_map", default.mean.map);
    metrics.set("quality_ndcg10", default.mean.ndcg10);
}

/// Whether two rankings agree to the bit.
pub fn same_ranking(
    a: &[rightcrowd_core::RankedExpert],
    b: &[rightcrowd_core::RankedExpert],
) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.person == y.person && x.score.to_bits() == y.score.to_bits())
}

/// Whether two passes produced the same outcome for every configuration.
pub fn same_points(a: &[Point], b: &[Point]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.label == y.label
                && x.rankings.len() == y.rankings.len()
                && x.rankings
                    .iter()
                    .zip(&y.rankings)
                    .all(|(r, s)| same_ranking(r, s))
        })
}

/// The attribution of every traversal shape the sweep uses (12: the
/// Table 3 grid), computed through the context's cache.
pub fn warm_attributions(ctx: &EvalContext<'_>) {
    for (group, _, config) in sweep_configs() {
        if group == Group::Grid {
            ctx.attribution(&config);
        }
    }
}

/// Records the two end-to-end quality metrics from the default
/// configuration (All, d2, α 0.6, window 100) evaluated through `ctx`.
pub fn record_default_quality(ctx: &EvalContext<'_>, metrics: &mut Metrics) {
    let mean = ctx.run(&FinderConfig::default()).mean;
    metrics.set("quality_map", mean.map);
    metrics.set("quality_ndcg10", mean.ndcg10);
}

/// Runs `f` with every core kept busy by a spinner thread in the
/// `SCHED_IDLE` class, which yields to any other thread at once. On a
/// virtual machine an idle core halts, and waking it again (for the next
/// request, a worker's next task, a timer) can take milliseconds on a
/// shared host; that delay belongs to the host, not to the program under
/// test. Where the class cannot be set, the spinner exits rather than
/// compete with the measured threads.
pub fn with_cores_awake<R>(f: impl FnOnce() -> R) -> R {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..nproc {
            scope.spawn(|| {
                if !sched_idle() {
                    return;
                }
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let out = f();
        stop.store(true, Ordering::Relaxed);
        out
    })
}

/// Moves the calling thread to `SCHED_IDLE`. Whether that worked.
#[cfg(target_os = "linux")]
fn sched_idle() -> bool {
    #[repr(C)]
    struct SchedParam {
        priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    // SAFETY: pid 0 names the calling thread and `param` outlives the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { priority: 0 }) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn sched_idle() -> bool {
    false
}

/// Writes a detail file next to the spans: the seed, the workload and
/// whatever the workload adds, one `key = value` line each.
pub fn write_details(args: &Args, lines: &[String]) {
    let dir = args.area.join("results");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let mut text = format!(
        "workload = {}\nseed = {}\ndata_seed = {}\ntrace = {}\n",
        args.workload, args.seed, args.data_seed, args.trace
    );
    for line in lines {
        text.push_str(line);
        text.push('\n');
    }
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("[perfbench] warning: cannot write {}: {e}", path.display());
    }
}

/// Where a traced run writes its span table.
pub fn spans_path(args: &Args) -> PathBuf {
    args.area
        .join("traces")
        .join(format!("{}-seed{}.spans.tsv", args.workload, args.seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_is_sixty_one_configurations_over_twelve_shapes() {
        let configs = sweep_configs();
        assert_eq!(configs.len(), 61);
        let shapes: std::collections::BTreeSet<String> = configs
            .iter()
            .map(|(_, _, c)| format!("{:?}", rightcrowd_core::TraversalShape::of(c)))
            .collect();
        assert_eq!(shapes.len(), 12);
        let labels: std::collections::BTreeSet<&String> = configs.iter().map(|c| &c.1).collect();
        assert_eq!(labels.len(), 61, "labels are unique");
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let doc = rightcrowd_bench::regress::parse_json(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(rightcrowd_bench::regress::Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let field = |f: &str| match m.get(f) {
                            Some(rightcrowd_bench::regress::Json::Str(s)) => s.clone(),
                            other => panic!("{key}.{f}: {other:?}"),
                        };
                        (field("name"), field("unit"))
                    })
                    .collect(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(names("per_layer"), layer);
        assert!(layer.len() <= 128);
    }

    #[test]
    fn seeded_streams_repeat_and_differ_by_seed() {
        assert_eq!(need_stream(7, 1, 30, 200), need_stream(7, 1, 30, 200));
        assert_ne!(need_stream(7, 1, 30, 200), need_stream(8, 1, 30, 200));
        let stream = need_stream(7, 1, 30, 2000);
        assert!(stream.iter().all(|&i| i < 30));
        // Zipf(1): the hottest need is drawn far more than the coldest.
        let hot = stream.iter().filter(|&&i| i == 0).count();
        let cold = stream.iter().filter(|&&i| i == 29).count();
        assert!(hot > 5 * cold.max(1), "hot {hot} cold {cold}");
        // Every seed draws the same multiset, in its own order.
        let mut a = need_stream(1, 1, 30, 500);
        let mut b = need_stream(2, 1, 30, 500);
        assert_eq!(a.len(), 500);
        assert_ne!(a, b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
