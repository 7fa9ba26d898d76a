//! Argument parsing for the `rc` command-line tool.
//!
//! Hand-rolled (the workspace's dependency policy keeps external crates to
//! the algorithmic minimum); supports every subcommand of
//! `src/bin/rc.rs` with long-flag options.

use crate::runner::DEFAULT_SHARDS;
use rightcrowd_types::{Distance, Platform, PlatformMask};

/// A parsed `rc` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `rc query "<text>" [--top N] [--platform P] [--distance D]`
    Query {
        /// The free-form expertise need.
        text: String,
        /// How many experts to print.
        top: usize,
        /// Platform restriction.
        platforms: PlatformMask,
        /// Distance cap.
        distance: Distance,
    },
    /// `rc stats` — print dataset statistics.
    Stats,
    /// `rc eval [--platform P] [--distance D]` — run the workload and
    /// print the metric row.
    Eval {
        /// Platform restriction.
        platforms: PlatformMask,
        /// Distance cap.
        distance: Distance,
    },
    /// `rc bench [--out DIR] [--snapshot DIR] [--shards N]` — measure
    /// the retrieval hot path (cold build *and* the store save → open
    /// round trip) and write a `BENCH_<scale>.json` snapshot.
    Bench {
        /// Directory the JSON snapshot is written into.
        out: std::path::PathBuf,
        /// Where the measured snapshot directory is kept (a temp
        /// directory is used — and removed — when absent).
        snapshot: Option<std::path::PathBuf>,
        /// Shard count of the measured snapshot (default 4).
        shards: usize,
    },
    /// `rc save --snapshot DIR [--shards N] [--threads N]` — build the
    /// corpus at the selected scale and write it as a snapshot
    /// directory: a manifest plus `--shards` (default 4) `RCSHRD02`
    /// shards and their validity sidecars, which every consumer opens
    /// zero-copy via `mmap(2)`.
    Save {
        /// The snapshot directory to write.
        snapshot: std::path::PathBuf,
        /// Number of per-term-range shards.
        shards: usize,
        /// Worker threads for the shard encode.
        threads: Option<usize>,
    },
    /// `rc load --snapshot DIR [--threads N]` — verify + open a snapshot
    /// directory and print what it holds.
    Load {
        /// The snapshot directory to load.
        snapshot: std::path::PathBuf,
        /// Worker threads for the shard opens.
        threads: Option<usize>,
    },
    /// `rc metrics [--platform P] [--distance D]` — run the workload once
    /// and print the observability registry (counters, histograms, span
    /// tree).
    Metrics {
        /// Platform restriction.
        platforms: PlatformMask,
        /// Distance cap.
        distance: Distance,
    },
    /// `rc explain "<text>" [--candidate NAME] [--top K] [--json]
    /// [--platform P] [--distance D]` — rank the query with the full score
    /// decomposition and print why each candidate landed where they did.
    Explain {
        /// The free-form expertise need.
        text: String,
        /// Restrict the breakdown to candidates whose name contains this
        /// (case-insensitive) needle.
        candidate: Option<String>,
        /// How many experts to break down.
        top: usize,
        /// Emit the decomposition as JSON instead of tables.
        json: bool,
        /// Platform restriction.
        platforms: PlatformMask,
        /// Distance cap.
        distance: Distance,
        /// Serve from this store container instead of rebuilding (cold
        /// build + cache when the file is absent).
        snapshot: Option<std::path::PathBuf>,
    },
    /// `rc flight [--slowest K] [--capacity N] [--platform P]
    /// [--distance D]` — run the workload with the flight recorder on and
    /// print the retained records (all of them, or the K slowest).
    Flight {
        /// Print only the K slowest retained records.
        slowest: Option<usize>,
        /// Replace the global recorder with an N-record ring before the
        /// run (default 256).
        capacity: Option<usize>,
        /// Platform restriction.
        platforms: PlatformMask,
        /// Distance cap.
        distance: Distance,
        /// Serve from this store container instead of rebuilding (cold
        /// build + cache when the file is absent).
        snapshot: Option<std::path::PathBuf>,
    },
    /// `rc soak [--out DIR] [--snapshot PATH] [--connect ADDR]
    /// [--duration 30s] [--queries N] [--threads N] [--tick-ms MS]
    /// [--watch]` — the closed-loop load harness: a telemetry-on thread
    /// ladder plus a telemetry-off baseline, writing `SOAK_<scale>.json`
    /// (per-tick series), the wide-event query log, a validated
    /// OpenMetrics exposition, and merging the headline keys into
    /// `BENCH_<scale>.json`. With `--connect` the same ladder drives a
    /// running `rc serve` daemon over real TCP instead of in-process
    /// calls, merging `serve_qps_t{N}` / `serve_p50/p99_under_load_t{N}_ms`.
    Soak {
        /// Directory the artifacts are written into.
        out: std::path::PathBuf,
        /// Serve from this store container instead of rebuilding.
        snapshot: Option<std::path::PathBuf>,
        /// Drive a running `rc serve` daemon at this address over HTTP
        /// instead of ranking in-process.
        connect: Option<String>,
        /// Wall-clock length of each measured phase (ms).
        duration_ms: u64,
        /// Stop each phase early after this many queries.
        queries: Option<u64>,
        /// Cap the thread ladder (default rungs 1/2/4/8).
        threads: Option<usize>,
        /// Sampler tick: one series row per this many ms.
        tick_ms: u64,
        /// Print a live status line per tick.
        watch: bool,
        /// Run the sampling profiler over the telemetry-on ladder and
        /// fold CPU estimates into the wide-event log.
        profile: bool,
    },
    /// `rc serve --snapshot PATH [--addr HOST:PORT] [--threads N]
    /// [--out DIR]` — promote the snapshot to a resident query daemon:
    /// warm once, then serve `POST /rank`, `POST /explain`,
    /// `GET /metrics`, `GET /healthz` and `WS /rank` until SIGTERM,
    /// which drains in-flight queries, flushes the wide-event log into
    /// `--out`, and exits 0.
    Serve {
        /// The snapshot directory to warm from (cold build + cache when
        /// absent).
        snapshot: std::path::PathBuf,
        /// Listen address (default 127.0.0.1:7700).
        addr: String,
        /// Worker threads (default: available parallelism).
        threads: Option<usize>,
        /// Directory the drain-time wide-event log is flushed into.
        out: std::path::PathBuf,
    },
    /// `rc profile <bench|soak> [--folded PATH] [--svg PATH] [--hz N]
    /// [--out DIR] [--snapshot PATH] [--duration 30s] [--threads N]` —
    /// run the workload under the in-process sampling profiler and write
    /// collapsed stacks (Brendan Gregg folded format) plus a
    /// self-contained flamegraph SVG, folding per-query CPU estimates
    /// into the flight recorder and merging `profile_*` keys into
    /// `BENCH_<scale>.json`.
    Profile {
        /// What to profile: the bench per-query workload loop, or the
        /// closed-loop soak ladder.
        mode: ProfileMode,
        /// Directory the artifacts (and the merged bench JSON) live in.
        out: std::path::PathBuf,
        /// Serve from this store container instead of rebuilding.
        snapshot: Option<std::path::PathBuf>,
        /// Where the folded stacks go (default `<out>/profile.folded`).
        folded: Option<std::path::PathBuf>,
        /// Where the flamegraph SVG goes (default `<out>/flamegraph.svg`).
        svg: Option<std::path::PathBuf>,
        /// Sampling frequency (default ~1003 Hz: a prime 997 µs period).
        hz: Option<u32>,
        /// Wall-clock length of the profiled soak phase (ms; soak mode).
        duration_ms: u64,
        /// Worker threads for the profiled soak phase (soak mode).
        threads: Option<usize>,
    },
    /// `rc spans [--json]` — run the workload once and print the
    /// aggregated span tree (or its JSON form) without a full bench.
    Spans {
        /// Emit the span table as JSON instead of the indented tree.
        json: bool,
        /// Platform restriction.
        platforms: PlatformMask,
        /// Distance cap.
        distance: Distance,
    },
    /// `rc expose [--out FILE] [--check FILE]` — run the workload and
    /// write the live metric registry as OpenMetrics text, and/or
    /// validate an exposition file.
    Expose {
        /// Write the OpenMetrics exposition here.
        out: Option<std::path::PathBuf>,
        /// Validate this exposition file instead of — or after — writing.
        check: Option<std::path::PathBuf>,
    },
    /// `rc trace [--chrome OUT.json] [--check FILE.json]` — run the
    /// workload and export spans + flight records as Chrome trace-event
    /// JSON (chrome://tracing / Perfetto), and/or validate a trace file.
    Trace {
        /// Write the Chrome trace-event JSON here.
        chrome: Option<std::path::PathBuf>,
        /// Validate this trace file (well-formed JSON with a non-empty
        /// `traceEvents` array) instead of — or after — exporting.
        check: Option<std::path::PathBuf>,
        /// Platform restriction.
        platforms: PlatformMask,
        /// Distance cap.
        distance: Distance,
    },
    /// `rc regress <baseline.json> <current.json> [--threshold F]
    /// [--warn-only]` — compare two bench snapshots and fail on latency
    /// or counter-invariant regressions.
    Regress {
        /// The committed baseline snapshot.
        baseline: std::path::PathBuf,
        /// The freshly measured snapshot.
        current: std::path::PathBuf,
        /// Relative regression threshold (0.2 = +20%).
        threshold: f64,
        /// Report regressions without a failing exit code.
        warn_only: bool,
        /// Also integrity-verify this store container (typed error →
        /// exit 1), so CI gates on snapshot health alongside latency.
        snapshot: Option<std::path::PathBuf>,
    },
    /// `rc help` or parse failure fallback.
    Help,
}

/// What `rc profile` drives while the sampler runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileMode {
    /// The bench-style per-query workload loop (profiler on vs off, so
    /// the run also measures `profile_overhead_frac`).
    Bench,
    /// One closed-loop soak phase under load.
    Soak,
}

/// A fully parsed `rc` invocation: the subcommand plus global flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// The subcommand to run.
    pub command: Command,
    /// `--trace`: print the span tree on exit.
    pub trace: bool,
    /// `--scale`: overrides `RIGHTCROWD_SCALE` for this run.
    pub scale: Option<String>,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// The usage string printed by `rc help`.
pub const USAGE: &str = "\
rc — expert finding in (simulated) social networks

USAGE:
  rc query \"<expertise need>\" [--top N] [--platform all|fb|tw|li] [--distance 0|1|2]
  rc explain \"<expertise need>\" [--candidate NAME] [--top K] [--json] [--snapshot DIR]
                               [--platform all|fb|tw|li] [--distance 0|1|2]
  rc eval [--platform all|fb|tw|li] [--distance 0|1|2]
  rc bench [--out DIR] [--snapshot DIR] [--shards N]
  rc save --snapshot DIR [--shards N] [--threads N]
  rc load --snapshot DIR [--threads N]
  rc flight [--slowest K] [--capacity N] [--snapshot DIR] [--platform all|fb|tw|li] [--distance 0|1|2]
  rc soak [--out DIR] [--snapshot DIR] [--connect HOST:PORT] [--duration 30s] [--queries N]
          [--threads N] [--tick-ms MS] [--watch] [--profile]
  rc serve --snapshot DIR [--addr HOST:PORT] [--threads N] [--out DIR]
  rc profile bench|soak [--folded PATH] [--svg PATH] [--hz N] [--out DIR]
             [--snapshot DIR] [--duration 30s] [--threads N]
  rc spans [--json] [--platform all|fb|tw|li] [--distance 0|1|2]
  rc expose [--out FILE.openmetrics] [--check FILE.openmetrics]
  rc trace [--chrome OUT.json] [--check FILE.json]
  rc metrics [--platform all|fb|tw|li] [--distance 0|1|2]
  rc regress <baseline.json> <current.json> [--threshold F] [--warn-only] [--snapshot DIR]
  rc stats
  rc help

SOAK (closed-loop load):
  rc soak runs N worker threads over one shared corpus with a Zipf-skewed
  query mix, walking a 1/2/4/8 thread ladder (capped by --threads) plus a
  telemetry-off baseline. It writes SOAK_<scale>.json (per-tick series),
  SOAK_<scale>.events.jsonl (the tail-sampled wide-event query log) and
  SOAK_<scale>.openmetrics (validated exposition) into --out, and merges
  qps_t{1,2,4,8}, p50/p99_under_load_t{N}_ms, soak_telemetry_overhead_frac
  and rss_peak_bytes into BENCH_<scale>.json for `rc regress` to gate.
  --duration accepts 500ms / 30s / 2m / plain seconds.

SERVE (resident query daemon):
  rc serve warms the snapshot once and answers over a zero-dependency
  HTTP/1.1 + WebSocket front end until SIGTERM/SIGINT, which drains
  in-flight queries, flushes SERVE_<scale>.events.jsonl into --out, and
  exits 0. `rc soak --connect HOST:PORT` replays the soak ladder against
  a running daemon over real TCP — after checking that served responses
  are byte-identical to in-process ranking — and merges serve_qps_t{N}
  and serve_p50/p99_under_load_t{N}_ms into BENCH_<scale>.json.

PROFILE (in-process sampling profiler):
  rc profile runs the workload with a sampler thread snapshotting every
  instrumented thread's live span stack on a prime ~997 µs interval (no
  ptrace, no perf, no external tools). `bench` mode replays the query
  workload twice — profiler off then on — so it also measures
  profile_overhead_frac; `soak` mode profiles one closed-loop load phase.
  Both write collapsed stacks (--folded, default <out>/profile.folded)
  and a self-contained flamegraph SVG (--svg, default
  <out>/flamegraph.svg), fold per-query CPU estimates into the flight
  recorder (`rc flight` / `rc explain` show cpu_ms), and merge
  profile_samples, profile_overhead_frac and the top-5 self-time spans
  into BENCH_<scale>.json for `rc regress` to gate. `rc soak --profile`
  samples the telemetry-on ladder and stamps cpu_est_us into the
  wide-event log.

SNAPSHOTS (build once, query many):
  --snapshot DIR points at a rightcrowd-store snapshot: a directory
  holding a `manifest.rcm` plus `--shards N` (default 4) mapped postings
  shards and their `.rcv` validity sidecars, written by `rc save`.
  `explain`, `flight`, `soak`, `profile` and `serve` open it when it
  exists (and cold-build + cache it when it does not); `bench` measures
  the save/open round trip against it; `regress` additionally verifies
  its checksums. Every open maps the shards zero-copy via mmap(2): the
  first open streams one CRC pass per file to earn its sidecar, later
  opens verify the sidecar and map in microseconds, and the page cache
  shares one physical copy of the index across processes. A regular
  file (a retired single-file snapshot) is refused; re-save it with
  `rc save`.

GLOBAL OPTIONS:
  --scale tiny|small|paper   dataset scale (overrides RIGHTCROWD_SCALE)
  --trace                    print the span tree after the command

ENVIRONMENT:
  RIGHTCROWD_SCALE   dataset scale: tiny | small (default) | paper
";

fn parse_platform(value: &str) -> Result<PlatformMask, ParseError> {
    match value.to_ascii_lowercase().as_str() {
        "all" => Ok(PlatformMask::ALL),
        "fb" | "facebook" => Ok(PlatformMask::only(Platform::Facebook)),
        "tw" | "twitter" => Ok(PlatformMask::only(Platform::Twitter)),
        "li" | "linkedin" => Ok(PlatformMask::only(Platform::LinkedIn)),
        other => Err(ParseError(format!("unknown platform {other:?} (use all|fb|tw|li)"))),
    }
}

fn parse_distance(value: &str) -> Result<Distance, ParseError> {
    value
        .parse::<usize>()
        .ok()
        .and_then(Distance::from_level)
        .ok_or_else(|| ParseError(format!("invalid distance {value:?} (use 0, 1 or 2)")))
}

/// Parses a human duration into milliseconds: `500ms`, `30s`, `2m`, or a
/// bare number of seconds. Zero is rejected — a zero-length soak phase
/// measures nothing.
fn parse_duration_ms(value: &str) -> Result<u64, ParseError> {
    let bad = || ParseError(format!("invalid duration {value:?} (use e.g. 500ms, 30s, 2m)"));
    let (digits, unit_ms) = if let Some(n) = value.strip_suffix("ms") {
        (n, 1u64)
    } else if let Some(n) = value.strip_suffix('s') {
        (n, 1_000)
    } else if let Some(n) = value.strip_suffix('m') {
        (n, 60_000)
    } else {
        (value, 1_000)
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    let ms = n.checked_mul(unit_ms).ok_or_else(bad)?;
    if ms == 0 {
        return Err(ParseError("duration must be positive".into()));
    }
    Ok(ms)
}

/// Parses `rc` arguments (without the program name).
pub fn parse(args: &[String]) -> Result<Invocation, ParseError> {
    let mut iter = args.iter();
    let Some(sub) = iter.next() else {
        return Ok(Invocation { command: Command::Help, trace: false, scale: None });
    };

    let mut top = 10usize;
    let mut platforms = PlatformMask::ALL;
    let mut distance = Distance::D2;
    let mut out = std::path::PathBuf::from(".");
    let mut threshold = 0.2f64;
    let mut warn_only = false;
    let mut trace = false;
    let mut scale: Option<String> = None;
    let mut candidate: Option<String> = None;
    let mut json = false;
    let mut slowest: Option<usize> = None;
    let mut chrome: Option<std::path::PathBuf> = None;
    let mut check: Option<std::path::PathBuf> = None;
    let mut snapshot: Option<std::path::PathBuf> = None;
    let mut shards: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut out_given = false;
    let mut duration_ms = 30_000u64;
    let mut queries: Option<u64> = None;
    let mut tick_ms = 1_000u64;
    let mut watch = false;
    let mut capacity: Option<usize> = None;
    let mut folded: Option<std::path::PathBuf> = None;
    let mut svg: Option<std::path::PathBuf> = None;
    let mut hz: Option<u32> = None;
    let mut profile = false;
    let mut addr: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut positional: Vec<&String> = Vec::new();

    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--trace" => trace = true,
            "--warn-only" => warn_only = true,
            "--json" => json = true,
            "--candidate" => {
                let value = iter
                    .next()
                    .ok_or_else(|| ParseError("--candidate needs a name".into()))?;
                candidate = Some(value.clone());
            }
            "--slowest" => {
                let value = iter
                    .next()
                    .ok_or_else(|| ParseError("--slowest needs a number".into()))?;
                let k: usize = value
                    .parse()
                    .map_err(|_| ParseError(format!("invalid --slowest value {value:?}")))?;
                if k == 0 {
                    return Err(ParseError("--slowest must be at least 1".into()));
                }
                slowest = Some(k);
            }
            "--chrome" => {
                let value =
                    iter.next().ok_or_else(|| ParseError("--chrome needs a path".into()))?;
                chrome = Some(std::path::PathBuf::from(value));
            }
            "--check" => {
                let value =
                    iter.next().ok_or_else(|| ParseError("--check needs a path".into()))?;
                check = Some(std::path::PathBuf::from(value));
            }
            "--snapshot" => {
                let value = iter
                    .next()
                    .ok_or_else(|| ParseError("--snapshot needs a path".into()))?;
                snapshot = Some(std::path::PathBuf::from(value));
            }
            "--shards" => {
                let value = iter
                    .next()
                    .ok_or_else(|| ParseError("--shards needs a number".into()))?;
                let n: usize = value
                    .parse()
                    .map_err(|_| ParseError(format!("invalid --shards value {value:?}")))?;
                if n == 0 {
                    return Err(ParseError("--shards must be at least 1".into()));
                }
                shards = Some(n);
            }
            "--threads" => {
                let value = iter
                    .next()
                    .ok_or_else(|| ParseError("--threads needs a number".into()))?;
                let n: usize = value
                    .parse()
                    .map_err(|_| ParseError(format!("invalid --threads value {value:?}")))?;
                if n == 0 {
                    return Err(ParseError("--threads must be at least 1".into()));
                }
                threads = Some(n);
            }
            "--scale" => {
                let value = iter
                    .next()
                    .ok_or_else(|| ParseError("--scale needs a value".into()))?;
                match value.as_str() {
                    "tiny" | "small" | "paper" => scale = Some(value.clone()),
                    other => {
                        return Err(ParseError(format!(
                            "unknown scale {other:?} (use tiny|small|paper)"
                        )))
                    }
                }
            }
            "--threshold" => {
                let value = iter
                    .next()
                    .ok_or_else(|| ParseError("--threshold needs a number".into()))?;
                threshold = value
                    .parse()
                    .map_err(|_| ParseError(format!("invalid --threshold value {value:?}")))?;
                if !(threshold > 0.0 && threshold.is_finite()) {
                    return Err(ParseError("--threshold must be a positive number".into()));
                }
            }
            "--out" => {
                let value =
                    iter.next().ok_or_else(|| ParseError("--out needs a path".into()))?;
                out = std::path::PathBuf::from(value);
                out_given = true;
            }
            "--duration" => {
                let value = iter
                    .next()
                    .ok_or_else(|| ParseError("--duration needs a value (e.g. 30s)".into()))?;
                duration_ms = parse_duration_ms(value)?;
            }
            "--queries" => {
                let value = iter
                    .next()
                    .ok_or_else(|| ParseError("--queries needs a number".into()))?;
                let n: u64 = value
                    .parse()
                    .map_err(|_| ParseError(format!("invalid --queries value {value:?}")))?;
                if n == 0 {
                    return Err(ParseError("--queries must be at least 1".into()));
                }
                queries = Some(n);
            }
            "--tick-ms" => {
                let value = iter
                    .next()
                    .ok_or_else(|| ParseError("--tick-ms needs a number".into()))?;
                let n: u64 = value
                    .parse()
                    .map_err(|_| ParseError(format!("invalid --tick-ms value {value:?}")))?;
                if n == 0 {
                    return Err(ParseError("--tick-ms must be at least 1".into()));
                }
                tick_ms = n;
            }
            "--watch" => watch = true,
            "--profile" => profile = true,
            "--addr" => {
                let value = iter
                    .next()
                    .ok_or_else(|| ParseError("--addr needs host:port".into()))?;
                addr = Some(value.clone());
            }
            "--connect" => {
                let value = iter
                    .next()
                    .ok_or_else(|| ParseError("--connect needs host:port".into()))?;
                connect = Some(value.clone());
            }
            "--folded" => {
                let value =
                    iter.next().ok_or_else(|| ParseError("--folded needs a path".into()))?;
                folded = Some(std::path::PathBuf::from(value));
            }
            "--svg" => {
                let value =
                    iter.next().ok_or_else(|| ParseError("--svg needs a path".into()))?;
                svg = Some(std::path::PathBuf::from(value));
            }
            "--hz" => {
                let value =
                    iter.next().ok_or_else(|| ParseError("--hz needs a number".into()))?;
                let n: u32 = value
                    .parse()
                    .map_err(|_| ParseError(format!("invalid --hz value {value:?}")))?;
                if n == 0 || n > 10_000 {
                    return Err(ParseError("--hz must be between 1 and 10000".into()));
                }
                hz = Some(n);
            }
            "--capacity" => {
                let value = iter
                    .next()
                    .ok_or_else(|| ParseError("--capacity needs a number".into()))?;
                let n: usize = value
                    .parse()
                    .map_err(|_| ParseError(format!("invalid --capacity value {value:?}")))?;
                if n == 0 {
                    return Err(ParseError("--capacity must be at least 1".into()));
                }
                capacity = Some(n);
            }
            "--top" => {
                let value = iter.next().ok_or_else(|| ParseError("--top needs a number".into()))?;
                top = value
                    .parse()
                    .map_err(|_| ParseError(format!("invalid --top value {value:?}")))?;
                if top == 0 {
                    return Err(ParseError("--top must be at least 1".into()));
                }
            }
            "--platform" => {
                let value = iter
                    .next()
                    .ok_or_else(|| ParseError("--platform needs a value".into()))?;
                platforms = parse_platform(value)?;
            }
            "--distance" => {
                let value = iter
                    .next()
                    .ok_or_else(|| ParseError("--distance needs a value".into()))?;
                distance = parse_distance(value)?;
            }
            other if other.starts_with("--") => {
                return Err(ParseError(format!("unknown option {other:?}")));
            }
            _ => positional.push(arg),
        }
    }

    let command = match sub.as_str() {
        "query" => {
            let text = positional
                .first()
                .ok_or_else(|| ParseError("query needs the expertise need text".into()))?;
            Command::Query { text: (*text).clone(), top, platforms, distance }
        }
        "stats" => Command::Stats,
        "eval" => Command::Eval { platforms, distance },
        "bench" => Command::Bench { out, snapshot, shards: shards.unwrap_or(DEFAULT_SHARDS) },
        "save" => Command::Save {
            snapshot: snapshot.ok_or_else(|| ParseError("save needs --snapshot <path>".into()))?,
            shards: shards.unwrap_or(DEFAULT_SHARDS),
            threads,
        },
        "load" => Command::Load {
            snapshot: snapshot
                .ok_or_else(|| ParseError("load needs --snapshot <path>".into()))?,
            threads,
        },
        "explain" => {
            let text = positional
                .first()
                .ok_or_else(|| ParseError("explain needs the expertise need text".into()))?;
            Command::Explain {
                text: (*text).clone(),
                candidate,
                top,
                json,
                platforms,
                distance,
                snapshot,
            }
        }
        "flight" => Command::Flight { slowest, capacity, platforms, distance, snapshot },
        "soak" => {
            if connect.is_some() && snapshot.is_some() {
                return Err(ParseError(
                    "soak takes --snapshot (in-process) or --connect (daemon), not both; \
                     the daemon already owns the snapshot"
                        .into(),
                ));
            }
            Command::Soak {
                out,
                snapshot,
                connect,
                duration_ms,
                queries,
                threads,
                tick_ms,
                watch,
                profile,
            }
        }
        "serve" => Command::Serve {
            snapshot: snapshot
                .ok_or_else(|| ParseError("serve needs --snapshot <path>".into()))?,
            addr: addr.unwrap_or_else(|| "127.0.0.1:7700".to_owned()),
            threads,
            out: if out_given { out } else { std::path::PathBuf::from("target/perf") },
        },
        "profile" => {
            let mode = match positional.first().map(|s| s.as_str()) {
                Some("bench") => ProfileMode::Bench,
                Some("soak") => ProfileMode::Soak,
                Some(other) => {
                    return Err(ParseError(format!(
                        "unknown profile mode {other:?} (use bench or soak)"
                    )))
                }
                None => return Err(ParseError("profile needs a mode: bench or soak".into())),
            };
            Command::Profile { mode, out, snapshot, folded, svg, hz, duration_ms, threads }
        }
        "spans" => Command::Spans { json, platforms, distance },
        "expose" => {
            if !out_given && check.is_none() {
                return Err(ParseError(
                    "expose needs --out <file.openmetrics> and/or --check <file.openmetrics>"
                        .into(),
                ));
            }
            Command::Expose { out: out_given.then_some(out), check }
        }
        "trace" => {
            if chrome.is_none() && check.is_none() {
                return Err(ParseError(
                    "trace needs --chrome <out.json> and/or --check <file.json>".into(),
                ));
            }
            Command::Trace { chrome, check, platforms, distance }
        }
        "metrics" => Command::Metrics { platforms, distance },
        "regress" => {
            let [baseline, current] = positional.as_slice() else {
                return Err(ParseError(
                    "regress needs exactly two snapshot paths: <baseline.json> <current.json>"
                        .into(),
                ));
            };
            Command::Regress {
                baseline: std::path::PathBuf::from(baseline),
                current: std::path::PathBuf::from(current),
                threshold,
                warn_only,
                snapshot,
            }
        }
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(ParseError(format!("unknown subcommand {other:?}"))),
    };
    Ok(Invocation { command, trace, scale })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// The command of a successfully parsed invocation.
    fn cmd(v: &[&str]) -> Command {
        parse(&args(v)).unwrap().command
    }

    #[test]
    fn parses_query_with_defaults() {
        assert_eq!(
            cmd(&["query", "who knows php"]),
            Command::Query {
                text: "who knows php".into(),
                top: 10,
                platforms: PlatformMask::ALL,
                distance: Distance::D2,
            }
        );
    }

    #[test]
    fn parses_query_with_options() {
        assert_eq!(
            cmd(&["query", "swimming", "--top", "3", "--platform", "tw", "--distance", "1"]),
            Command::Query {
                text: "swimming".into(),
                top: 3,
                platforms: PlatformMask::only(Platform::Twitter),
                distance: Distance::D1,
            }
        );
    }

    #[test]
    fn parses_eval_and_stats() {
        assert_eq!(
            cmd(&["eval", "--platform", "li"]),
            Command::Eval {
                platforms: PlatformMask::only(Platform::LinkedIn),
                distance: Distance::D2
            }
        );
        assert_eq!(cmd(&["stats"]), Command::Stats);
        assert_eq!(cmd(&[]), Command::Help);
        assert_eq!(cmd(&["help"]), Command::Help);
    }

    #[test]
    fn parses_bench() {
        assert_eq!(
            cmd(&["bench"]),
            Command::Bench { out: std::path::PathBuf::from("."), snapshot: None, shards: 4 }
        );
        assert_eq!(
            cmd(&["bench", "--out", "target/perf", "--snapshot", "target/perf/corpus.snap"]),
            Command::Bench {
                out: std::path::PathBuf::from("target/perf"),
                snapshot: Some(std::path::PathBuf::from("target/perf/corpus.snap")),
                shards: 4,
            }
        );
        assert_eq!(
            cmd(&["bench", "--snapshot", "target/perf/corpus.shards", "--shards", "4"]),
            Command::Bench {
                out: std::path::PathBuf::from("."),
                snapshot: Some(std::path::PathBuf::from("target/perf/corpus.shards")),
                shards: 4,
            }
        );
        assert!(parse(&args(&["bench", "--out"])).is_err());
        assert!(parse(&args(&["bench", "--snapshot"])).is_err());
        assert!(parse(&args(&["bench", "--shards", "0"])).is_err());
    }

    #[test]
    fn parses_save_and_load() {
        // A snapshot is always a directory of shards; the default count is
        // the one the bench harness measures.
        assert_eq!(
            cmd(&["save", "--snapshot", "corpus.snap"]),
            Command::Save {
                snapshot: std::path::PathBuf::from("corpus.snap"),
                shards: 4,
                threads: None,
            }
        );
        assert_eq!(
            cmd(&["save", "--snapshot", "corpus.shards", "--shards", "8", "--threads", "2"]),
            Command::Save {
                snapshot: std::path::PathBuf::from("corpus.shards"),
                shards: 8,
                threads: Some(2),
            }
        );
        // The retired layout switch is an unknown option now.
        assert!(parse(&args(&["save", "--snapshot", "x", "--layout", "mapped"])).is_err());
        assert_eq!(
            cmd(&["load", "--snapshot", "corpus.snap"]),
            Command::Load { snapshot: std::path::PathBuf::from("corpus.snap"), threads: None }
        );
        assert_eq!(
            cmd(&["load", "--snapshot", "corpus.shards", "--threads", "4"]),
            Command::Load {
                snapshot: std::path::PathBuf::from("corpus.shards"),
                threads: Some(4),
            }
        );
        // The container path is the whole point of these subcommands.
        assert!(parse(&args(&["save"])).is_err());
        assert!(parse(&args(&["load"])).is_err());
        assert!(parse(&args(&["save", "--snapshot", "x", "--shards", "none"])).is_err());
        assert!(parse(&args(&["load", "--snapshot", "x", "--threads", "0"])).is_err());
    }

    #[test]
    fn parses_metrics() {
        assert_eq!(
            cmd(&["metrics"]),
            Command::Metrics { platforms: PlatformMask::ALL, distance: Distance::D2 }
        );
        assert_eq!(
            cmd(&["metrics", "--platform", "fb", "--distance", "0"]),
            Command::Metrics {
                platforms: PlatformMask::only(Platform::Facebook),
                distance: Distance::D0
            }
        );
    }

    #[test]
    fn parses_explain() {
        assert_eq!(
            cmd(&["explain", "who knows php"]),
            Command::Explain {
                text: "who knows php".into(),
                candidate: None,
                top: 10,
                json: false,
                platforms: PlatformMask::ALL,
                distance: Distance::D2,
                snapshot: None,
            }
        );
        assert_eq!(
            cmd(&[
                "explain", "swimming", "--candidate", "Riley", "--top", "2", "--json",
                "--platform", "tw", "--distance", "1", "--snapshot", "c.snap"
            ]),
            Command::Explain {
                text: "swimming".into(),
                candidate: Some("Riley".into()),
                top: 2,
                json: true,
                platforms: PlatformMask::only(Platform::Twitter),
                distance: Distance::D1,
                snapshot: Some(std::path::PathBuf::from("c.snap")),
            }
        );
        assert!(parse(&args(&["explain"])).is_err());
        assert!(parse(&args(&["explain", "x", "--candidate"])).is_err());
    }

    #[test]
    fn parses_flight() {
        assert_eq!(
            cmd(&["flight"]),
            Command::Flight {
                slowest: None,
                capacity: None,
                platforms: PlatformMask::ALL,
                distance: Distance::D2,
                snapshot: None,
            }
        );
        assert_eq!(
            cmd(&[
                "flight", "--slowest", "5", "--capacity", "1024", "--platform", "fb",
                "--snapshot", "c.snap"
            ]),
            Command::Flight {
                slowest: Some(5),
                capacity: Some(1024),
                platforms: PlatformMask::only(Platform::Facebook),
                distance: Distance::D2,
                snapshot: Some(std::path::PathBuf::from("c.snap")),
            }
        );
        assert!(parse(&args(&["flight", "--slowest", "0"])).is_err());
        assert!(parse(&args(&["flight", "--slowest", "many"])).is_err());
        assert!(parse(&args(&["flight", "--capacity", "0"])).is_err());
        assert!(parse(&args(&["flight", "--capacity", "lots"])).is_err());
    }

    #[test]
    fn parses_soak() {
        assert_eq!(
            cmd(&["soak"]),
            Command::Soak {
                out: std::path::PathBuf::from("."),
                snapshot: None,
                connect: None,
                duration_ms: 30_000,
                queries: None,
                threads: None,
                tick_ms: 1_000,
                watch: false,
                profile: false,
            }
        );
        assert_eq!(
            cmd(&[
                "soak", "--out", "target/perf", "--snapshot", "corpus.shards", "--duration",
                "5s", "--queries", "1000", "--threads", "2", "--tick-ms", "250", "--watch",
                "--profile"
            ]),
            Command::Soak {
                out: std::path::PathBuf::from("target/perf"),
                snapshot: Some(std::path::PathBuf::from("corpus.shards")),
                connect: None,
                duration_ms: 5_000,
                queries: Some(1_000),
                threads: Some(2),
                tick_ms: 250,
                watch: true,
                profile: true,
            }
        );
        assert!(parse(&args(&["soak", "--duration", "0s"])).is_err());
        assert!(parse(&args(&["soak", "--queries", "0"])).is_err());
        assert!(parse(&args(&["soak", "--tick-ms", "0"])).is_err());
        assert!(parse(&args(&["soak", "--threads", "0"])).is_err());
    }

    #[test]
    fn parses_soak_connect() {
        assert_eq!(
            cmd(&["soak", "--connect", "127.0.0.1:7700", "--duration", "3s"]),
            Command::Soak {
                out: std::path::PathBuf::from("."),
                snapshot: None,
                connect: Some("127.0.0.1:7700".into()),
                duration_ms: 3_000,
                queries: None,
                threads: None,
                tick_ms: 1_000,
                watch: false,
                profile: false,
            }
        );
        // The daemon owns the snapshot; pointing the client at another
        // one would measure an incoherent pair.
        assert!(parse(&args(&["soak", "--connect", "h:1", "--snapshot", "c.snap"])).is_err());
        assert!(parse(&args(&["soak", "--connect"])).is_err());
    }

    #[test]
    fn parses_serve() {
        assert_eq!(
            cmd(&["serve", "--snapshot", "corpus.shards"]),
            Command::Serve {
                snapshot: std::path::PathBuf::from("corpus.shards"),
                addr: "127.0.0.1:7700".into(),
                threads: None,
                out: std::path::PathBuf::from("target/perf"),
            }
        );
        assert_eq!(
            cmd(&[
                "serve", "--snapshot", "c.snap", "--addr", "0.0.0.0:8080", "--threads", "4",
                "--out", "artifacts"
            ]),
            Command::Serve {
                snapshot: std::path::PathBuf::from("c.snap"),
                addr: "0.0.0.0:8080".into(),
                threads: Some(4),
                out: std::path::PathBuf::from("artifacts"),
            }
        );
        assert!(parse(&args(&["serve"])).is_err());
        assert!(parse(&args(&["serve", "--snapshot", "c.snap", "--addr"])).is_err());
        assert!(parse(&args(&["serve", "--snapshot", "c.snap", "--threads", "0"])).is_err());
    }

    #[test]
    fn parses_profile() {
        assert_eq!(
            cmd(&["profile", "bench"]),
            Command::Profile {
                mode: ProfileMode::Bench,
                out: std::path::PathBuf::from("."),
                snapshot: None,
                folded: None,
                svg: None,
                hz: None,
                duration_ms: 30_000,
                threads: None,
            }
        );
        assert_eq!(
            cmd(&[
                "profile", "soak", "--out", "target/perf", "--snapshot", "corpus.shards",
                "--folded", "p.folded", "--svg", "f.svg", "--hz", "500", "--duration", "5s",
                "--threads", "2"
            ]),
            Command::Profile {
                mode: ProfileMode::Soak,
                out: std::path::PathBuf::from("target/perf"),
                snapshot: Some(std::path::PathBuf::from("corpus.shards")),
                folded: Some(std::path::PathBuf::from("p.folded")),
                svg: Some(std::path::PathBuf::from("f.svg")),
                hz: Some(500),
                duration_ms: 5_000,
                threads: Some(2),
            }
        );
        // The mode is required and closed.
        assert!(parse(&args(&["profile"])).is_err());
        assert!(parse(&args(&["profile", "everything"])).is_err());
        assert!(parse(&args(&["profile", "bench", "--hz", "0"])).is_err());
        assert!(parse(&args(&["profile", "bench", "--hz", "20000"])).is_err());
        assert!(parse(&args(&["profile", "bench", "--hz", "fast"])).is_err());
        assert!(parse(&args(&["profile", "bench", "--folded"])).is_err());
        assert!(parse(&args(&["profile", "bench", "--svg"])).is_err());
    }

    #[test]
    fn parses_spans() {
        assert_eq!(
            cmd(&["spans"]),
            Command::Spans { json: false, platforms: PlatformMask::ALL, distance: Distance::D2 }
        );
        assert_eq!(
            cmd(&["spans", "--json", "--platform", "li", "--distance", "1"]),
            Command::Spans {
                json: true,
                platforms: PlatformMask::only(Platform::LinkedIn),
                distance: Distance::D1,
            }
        );
    }

    #[test]
    fn parses_durations() {
        assert_eq!(parse_duration_ms("500ms").unwrap(), 500);
        assert_eq!(parse_duration_ms("30s").unwrap(), 30_000);
        assert_eq!(parse_duration_ms("2m").unwrap(), 120_000);
        assert_eq!(parse_duration_ms("7").unwrap(), 7_000);
        assert!(parse_duration_ms("0").is_err());
        assert!(parse_duration_ms("0ms").is_err());
        assert!(parse_duration_ms("-5s").is_err());
        assert!(parse_duration_ms("5h").is_err());
        assert!(parse_duration_ms("fast").is_err());
        assert!(parse_duration_ms("").is_err());
    }

    #[test]
    fn parses_expose() {
        assert_eq!(
            cmd(&["expose", "--out", "metrics.om"]),
            Command::Expose { out: Some(std::path::PathBuf::from("metrics.om")), check: None }
        );
        assert_eq!(
            cmd(&["expose", "--check", "metrics.om"]),
            Command::Expose { out: None, check: Some(std::path::PathBuf::from("metrics.om")) }
        );
        assert_eq!(
            cmd(&["expose", "--out", "a.om", "--check", "a.om"]),
            Command::Expose {
                out: Some(std::path::PathBuf::from("a.om")),
                check: Some(std::path::PathBuf::from("a.om")),
            }
        );
        // Neither output nor validation target: nothing to do.
        assert!(parse(&args(&["expose"])).is_err());
        assert!(parse(&args(&["expose", "--out"])).is_err());
    }

    #[test]
    fn parses_trace() {
        assert_eq!(
            cmd(&["trace", "--chrome", "trace.chrome.json"]),
            Command::Trace {
                chrome: Some(std::path::PathBuf::from("trace.chrome.json")),
                check: None,
                platforms: PlatformMask::ALL,
                distance: Distance::D2,
            }
        );
        assert_eq!(
            cmd(&["trace", "--check", "trace.chrome.json"]),
            Command::Trace {
                chrome: None,
                check: Some(std::path::PathBuf::from("trace.chrome.json")),
                platforms: PlatformMask::ALL,
                distance: Distance::D2,
            }
        );
        assert_eq!(
            cmd(&["trace", "--chrome", "out.json", "--check", "out.json"]),
            Command::Trace {
                chrome: Some(std::path::PathBuf::from("out.json")),
                check: Some(std::path::PathBuf::from("out.json")),
                platforms: PlatformMask::ALL,
                distance: Distance::D2,
            }
        );
        // Neither output nor validation target: nothing to do.
        assert!(parse(&args(&["trace"])).is_err());
        assert!(parse(&args(&["trace", "--chrome"])).is_err());
    }

    #[test]
    fn parses_regress() {
        assert_eq!(
            cmd(&["regress", "BENCH_small.json", "target/BENCH_small.json"]),
            Command::Regress {
                baseline: std::path::PathBuf::from("BENCH_small.json"),
                current: std::path::PathBuf::from("target/BENCH_small.json"),
                threshold: 0.2,
                warn_only: false,
                snapshot: None,
            }
        );
        assert_eq!(
            cmd(&[
                "regress", "a.json", "b.json", "--threshold", "0.5", "--warn-only",
                "--snapshot", "corpus.snap"
            ]),
            Command::Regress {
                baseline: std::path::PathBuf::from("a.json"),
                current: std::path::PathBuf::from("b.json"),
                threshold: 0.5,
                warn_only: true,
                snapshot: Some(std::path::PathBuf::from("corpus.snap")),
            }
        );
        assert!(parse(&args(&["regress", "only-one.json"])).is_err());
        assert!(parse(&args(&["regress", "a", "b", "--threshold", "nope"])).is_err());
        assert!(parse(&args(&["regress", "a", "b", "--threshold", "-1"])).is_err());
    }

    #[test]
    fn parses_global_flags() {
        let inv = parse(&args(&["bench", "--trace", "--scale", "tiny"])).unwrap();
        assert!(inv.trace);
        assert_eq!(inv.scale.as_deref(), Some("tiny"));
        let inv = parse(&args(&["eval"])).unwrap();
        assert!(!inv.trace);
        assert_eq!(inv.scale, None);
        assert!(parse(&args(&["bench", "--scale", "galactic"])).is_err());
        assert!(parse(&args(&["bench", "--scale"])).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&args(&["query"])).is_err());
        assert!(parse(&args(&["query", "x", "--top", "zero"])).is_err());
        assert!(parse(&args(&["query", "x", "--top", "0"])).is_err());
        assert!(parse(&args(&["query", "x", "--platform", "myspace"])).is_err());
        assert!(parse(&args(&["query", "x", "--distance", "9"])).is_err());
        assert!(parse(&args(&["query", "x", "--bogus"])).is_err());
        assert!(parse(&args(&["frobnicate"])).is_err());
        assert!(parse(&args(&["query", "x", "--top"])).is_err());
    }

    #[test]
    fn platform_aliases() {
        assert_eq!(parse_platform("Facebook").unwrap(), PlatformMask::only(Platform::Facebook));
        assert_eq!(parse_platform("TW").unwrap(), PlatformMask::only(Platform::Twitter));
        assert_eq!(parse_platform("all").unwrap(), PlatformMask::ALL);
    }
}
