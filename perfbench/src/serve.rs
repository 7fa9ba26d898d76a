//! `serve-small`: open-loop `POST /rank` traffic (with a small share of
//! `POST /explain`) against the `rc serve` daemon over TCP, on a mapped
//! small-scale snapshot.
//!
//! Requests arrive as a seeded Poisson process at each rate of a fixed
//! ladder; the need of each request is a Zipf(1) pick over the 30
//! expertise needs. The generator is this one process with at most
//! `nproc` threads, one keep-alive connection each. Latency is timed
//! from each request's due time, so a stall also charges the requests
//! queued behind it.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rightcrowd_bench::regress::Json;
use rightcrowd_bench::runner::Bench;
use rightcrowd_bench::serve_app::{rank_response, RankApp};
use rightcrowd_bench::soak::SoakClient;
use rightcrowd_core::{AnalysisPipeline, Attribution, FinderConfig};
use rightcrowd_serve::http::json_escape;
use rightcrowd_serve::{App, Request, Response};

use crate::common::{self, Args, Metrics, Ops, Rng, Scale};
use crate::stats::{self, StepReport, Verdict};
use crate::trace::{self, Tracer};

/// The rate ladder, requests per second. Every step runs on every run.
pub const LADDER: [f64; 6] = [100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0];

/// The rate at which `latency_p50_ms` (and the logged tail) is read.
pub const REFERENCE_RATE: f64 = 100.0;

/// Latency limit on a step's tail percentile, milliseconds.
pub const LATENCY_LIMIT_MS: f64 = 100.0;

/// A step whose generator lag tail exceeds this is invalid, ms: a tenth
/// of the latency limit, so that the generator's own tardiness cannot
/// decide a verdict (latency is timed from the due time either way).
pub const LAG_LIMIT_MS: f64 = LATENCY_LIMIT_MS / 10.0;

/// Share of requests that are `POST /explain`.
pub const EXPLAIN_SHARE: f64 = 0.02;

/// Shares of the run's seconds: the reference rate, the other ladder
/// steps together, and the saturation drives together.
const REFERENCE_SHARE: f64 = 0.4;
const LADDER_SHARE: f64 = 0.25;
const SATURATE_SHARE: f64 = 0.35;

/// Slices the reference rate's share of the run is cut into.
const REFERENCE_SLICES: usize = 6;

/// Slices the saturation share of the run is cut into.
const SATURATE_SLICES: usize = 5;

/// Length of the need stream a saturation drive cycles through.
const SATURATE_STREAM: usize = 4096;

/// Daemon spawns per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// `/rank` calls the traced recomposition replays.
const RECOMPOSED_CALLS: usize = 300;

/// Generator threads (and connections): the machine's cores, at most 2.
pub fn generator_threads() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(2);
    assert!(threads <= nproc, "generator threads must not exceed nproc");
    threads
}

/// Per need: the request body (the same for `/rank` and `/explain`) and
/// the responses the daemon must return for it.
pub struct Expected {
    pub req: Vec<String>,
    pub rank_resp: Vec<String>,
    pub explain_resp: Vec<String>,
}

impl Expected {
    /// Renders every need's `/rank` and `/explain` answer in process with
    /// the daemon's own renderers.
    pub fn new(bench: &Bench, attribution: &Attribution) -> Expected {
        let config = FinderConfig::default();
        let pipeline = AnalysisPipeline::new(bench.ds.kb());
        let names: Vec<&str> = bench
            .ds
            .candidates()
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        let mut e = Expected {
            req: Vec::new(),
            rank_resp: Vec::new(),
            explain_resp: Vec::new(),
        };
        for need in bench.ds.queries() {
            let req = format!("{{\"query\": {}, \"top\": 10}}", json_escape(&need.text));
            e.rank_resp
                .push(rank_response(bench, attribution, &config, &need.text, 10).0);
            let query = pipeline.analyze_query(&need.text);
            let explained = rightcrowd_core::rank_explained(
                &bench.corpus,
                attribution,
                &config,
                &query,
                bench.ds.candidates().len(),
            );
            e.explain_resp
                .push(rightcrowd_bench::explain_fmt::explain_json(
                    &explained, &config, &names, None, 10,
                ));
            e.req.push(req);
        }
        e
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub due_ns: u64,
    pub need: usize,
    pub explain: bool,
}

/// A seeded Poisson schedule of `rate` requests/s over `secs` seconds,
/// conditioned on its expected count: `rate × secs` arrivals at sorted
/// uniform times (a Poisson process given its count), needs from the
/// stratified [`common::need_stream`], and an exact [`EXPLAIN_SHARE`] of
/// `/explain` requests at seeded positions.
pub fn plan(rate: f64, secs: f64, seed: u64, stream: u64, needs: usize) -> Vec<Planned> {
    let n = (rate * secs).round() as usize;
    let mut rng = Rng::new(seed, stream);
    let mut times: Vec<u64> = (0..n).map(|_| (rng.unit() * secs * 1e9) as u64).collect();
    times.sort_unstable();
    let picks = common::need_stream(seed, stream ^ 0x4EED, needs, n);
    let mut explain = vec![false; n];
    let explains = (n as f64 * EXPLAIN_SHARE).round() as usize;
    explain[..explains].iter_mut().for_each(|e| *e = true);
    common::shuffle(&mut explain, &mut rng);
    times
        .into_iter()
        .zip(picks)
        .zip(explain)
        .map(|((due_ns, need), explain)| Planned {
            due_ns,
            need,
            explain,
        })
        .collect()
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, Copy)]
struct Sent {
    index: usize,
    explain: bool,
    lag_ms: f64,
    latency_ms: f64,
    ok: bool,
}

/// What one drive of a schedule left behind.
struct Drive {
    planned: usize,
    sent: Vec<Sent>,
    unsent: usize,
}

/// The generator's keep-alive connections, one per thread, kept across
/// drives so that no measured request pays for a connect.
fn connect(addr: &str) -> Result<Vec<SoakClient>, String> {
    (0..generator_threads())
        .map(|_| SoakClient::connect(addr))
        .collect()
}

/// Drives `schedule` (spanning `secs`) over `clients`. With `traced`,
/// bodies carry a request id and every request is recorded as a client
/// span.
fn run_step(
    clients: &mut [SoakClient],
    secs: f64,
    schedule: &[Planned],
    expected: &Expected,
    traced: Option<&Tracer>,
) -> Result<Drive, String> {
    let next = AtomicUsize::new(0);
    let sent: Mutex<Vec<Sent>> = Mutex::new(Vec::with_capacity(schedule.len()));
    let unsent = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(10);
    let deadline = t0 + Duration::from_secs_f64(secs + LATENCY_LIMIT_MS / 1e3);
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let (next, sent, unsent) = (&next, &sent, &unsent);
            scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = schedule.get(i) else { break };
                    let free = Instant::now();
                    if free > deadline {
                        unsent.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let due = t0 + Duration::from_nanos(p.due_ns);
                    if due > free {
                        std::thread::sleep(due - free);
                    }
                    let send = Instant::now();
                    let req = &expected.req[p.need];
                    let (path, want) = if p.explain {
                        ("/explain", &expected.explain_resp[p.need])
                    } else {
                        ("/rank", &expected.rank_resp[p.need])
                    };
                    let body = match traced {
                        Some(_) => format!("{}, \"rid\": {}}}", &req[..req.len() - 1], i + 1),
                        None => req.clone(),
                    };
                    let result = client.post(path, &body);
                    let done = Instant::now();
                    if let Some(tracer) = traced {
                        tracer.record("serve.request", i as u64 + 1, send, done);
                    }
                    let ok = matches!(&result, Ok((200, got)) if got == want.as_bytes());
                    mine.push(Sent {
                        index: i,
                        explain: p.explain,
                        lag_ms: (send - due.max(free)).as_secs_f64() * 1e3,
                        latency_ms: (done - due).as_secs_f64() * 1e3,
                        ok,
                    });
                }
                sent.lock().expect("step results poisoned").extend(mine);
            });
        }
    });
    let mut sent = sent.into_inner().expect("step results poisoned");
    sent.sort_by_key(|s| s.index);
    Ok(Drive {
        planned: schedule.len(),
        sent,
        unsent: unsent.into_inner(),
    })
}

/// Pools the drives of one rate into its step report.
fn report(rate: f64, drives: &[&Drive]) -> StepReport {
    let sent: Vec<&Sent> = drives.iter().flat_map(|d| &d.sent).collect();
    let rank_latency: Vec<f64> = sent
        .iter()
        .filter(|s| !s.explain)
        .map(|s| s.latency_ms)
        .collect();
    let lag: Vec<f64> = sent.iter().map(|s| s.lag_ms).collect();
    let failed = sent.iter().filter(|s| !s.ok).count();
    StepReport {
        rate,
        planned: drives.iter().map(|d| d.planned).sum(),
        sent: sent.len(),
        succeeded: sent.len() - failed,
        failed,
        unsent: drives.iter().map(|d| d.unsent).sum(),
        latency: stats::summarize(&rank_latency),
        lag: stats::summarize(&lag),
    }
}

fn describe(step: &StepReport, verdict: Verdict) -> String {
    format!(
        "step {:.0} rps: {verdict:?}; planned {} sent {} succeeded {} failed {} unsent {}; \
         latency p50 {:.3} ms p{:.2} {:.3} ms (n={}); loadgen.lag_ms p{:.2} {:.3}",
        step.rate,
        step.planned,
        step.sent,
        step.succeeded,
        step.failed,
        step.unsent,
        step.latency.p50,
        step.latency.tail_pct,
        step.latency.tail,
        step.latency.count,
        step.lag.tail_pct,
        step.lag.tail,
    )
}

/// A running `rc serve` daemon.
struct Daemon {
    child: Child,
    addr: String,
    // Held so the daemon's stdout stays open while it runs.
    _stdout: std::io::BufReader<std::process::ChildStdout>,
}

impl Daemon {
    /// Spawns `rc serve` on an ephemeral port and waits for the first
    /// good `/healthz`. Returns the daemon and the seconds that took.
    fn spawn(args: &Args, snapshot: &std::path::Path) -> Result<(Daemon, f64), String> {
        let rc = args
            .rc
            .as_ref()
            .ok_or("serve-small needs --rc <path to the rc binary>")?;
        let out = args.area.join("serve-events");
        let started = Instant::now();
        let mut child = Command::new(rc)
            .arg("serve")
            .arg("--snapshot")
            .arg(snapshot)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--threads",
                &generator_threads().to_string(),
            ])
            .arg("--out")
            .arg(&out)
            .env("RIGHTCROWD_SCALE", "small")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", rc.display()))?;
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            if stdout
                .read_line(&mut line)
                .map_err(|e| format!("daemon stdout: {e}"))?
                == 0
            {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before announcing its address".into());
            }
            addr = line
                .split("http://")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_owned);
        }
        let addr = addr.expect("loop ends with an address");
        let mut daemon = Daemon {
            child,
            addr,
            _stdout: stdout,
        };
        loop {
            let healthy = SoakClient::connect(&daemon.addr)
                .and_then(|mut c| c.get("/healthz"))
                .is_ok_and(|(status, _)| status == 200);
            if healthy {
                return Ok((daemon, started.elapsed().as_secs_f64()));
            }
            if started.elapsed() > Duration::from_secs(60) {
                daemon.stop();
                return Err("daemon not healthy after 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One drive of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// A slice of the reference rate.
    Reference,
    /// A ladder rate above the reference.
    Rung(f64),
    /// A slice of closed-loop saturation.
    Saturate,
}

/// The order of a run's drives: each kind spread evenly over the run,
/// the reference slices first and last included, so that the samples of
/// every metric span the whole run and a passing disturbance of the host
/// weighs on a small share of them.
fn drive_order() -> Vec<Step> {
    let rungs: Vec<f64> = LADDER
        .iter()
        .copied()
        .filter(|&r| r != REFERENCE_RATE)
        .collect();
    let mut keyed: Vec<(f64, Step)> = (0..REFERENCE_SLICES)
        .map(|k| (k as f64 / (REFERENCE_SLICES - 1) as f64, Step::Reference))
        .collect();
    keyed.extend(
        rungs
            .iter()
            .enumerate()
            .map(|(j, &r)| ((j as f64 + 0.5) / rungs.len() as f64, Step::Rung(r))),
    );
    keyed.extend(
        (0..SATURATE_SLICES).map(|k| ((k as f64 + 0.5) / SATURATE_SLICES as f64, Step::Saturate)),
    );
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.into_iter().map(|(_, step)| step).collect()
}

/// The seconds one drive of `step` lasts in a run of `seconds`.
fn step_seconds(seconds: f64, step: Step) -> f64 {
    match step {
        Step::Reference => seconds * REFERENCE_SHARE / REFERENCE_SLICES as f64,
        Step::Rung(_) => seconds * LADDER_SHARE / (LADDER.len() - 1) as f64,
        Step::Saturate => seconds * SATURATE_SHARE / SATURATE_SLICES as f64,
    }
}

/// Drives `clients` closed loop for `secs`: each connection sends its
/// next `/rank` (needs cycled from `stream`) as soon as the last one is
/// answered. Returns completions per second and whether each answer
/// matched the in-process body.
fn saturate(
    clients: &mut [SoakClient],
    secs: f64,
    stream: &[usize],
    expected: &Expected,
) -> (f64, Vec<bool>) {
    let next = AtomicUsize::new(0);
    let answers: Mutex<Vec<bool>> = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let (next, answers) = (&next, &answers);
            scope.spawn(move || {
                let mut mine = Vec::new();
                while started.elapsed().as_secs_f64() < secs {
                    let need = stream[next.fetch_add(1, Ordering::Relaxed) % stream.len()];
                    let result = client.post("/rank", &expected.req[need]);
                    let ok = matches!(&result, Ok((200, got)) if got == expected.rank_resp[need].as_bytes());
                    mine.push(ok);
                    if result.is_err() {
                        break;
                    }
                }
                answers.lock().expect("answers poisoned").extend(mine);
            });
        }
    });
    let answers = answers.into_inner().expect("answers poisoned");
    (
        answers.len() as f64 / started.elapsed().as_secs_f64(),
        answers,
    )
}

/// Pools the drives of each ladder rate into its report.
fn ladder_reports(drives: &[(f64, Drive)]) -> Vec<StepReport> {
    LADDER
        .iter()
        .filter_map(|&rate| {
            let mine: Vec<&Drive> = drives
                .iter()
                .filter(|(r, _)| *r == rate)
                .map(|(_, d)| d)
                .collect();
            (!mine.is_empty()).then(|| report(rate, &mine))
        })
        .collect()
}

/// Checks every need's `/rank` and `/explain` over the wire once.
fn gate(addr: &str, expected: &Expected, ops: &mut Ops) -> Result<(), String> {
    let mut client = SoakClient::connect(addr)?;
    for i in 0..expected.req.len() {
        let (status, body) = client.post("/rank", &expected.req[i])?;
        ops.check(
            status == 200 && body == expected.rank_resp[i].as_bytes(),
            || format!("/rank for need {i} differs from the in-process rank_response"),
        );
        let (status, body) = client.post("/explain", &expected.req[i])?;
        ops.check(
            status == 200 && body == expected.explain_resp[i].as_bytes(),
            || format!("/explain for need {i} differs from the in-process explain_json"),
        );
    }
    Ok(())
}

/// The untraced run: every end-to-end metric.
///
/// `latency_p50_ms` is the `/rank` median at the reference rate;
/// `throughput_per_s` the median completion rate of the saturation
/// drives.
pub fn run(args: &Args, ops: &mut Ops, metrics: &mut Metrics) -> Result<Vec<String>, String> {
    let snapshot = common::snapshot(args, Scale::Small)?;
    let (bench, _) = common::open(&snapshot)?;
    let ctx = bench.ctx();
    let attribution = ctx.attribution(&FinderConfig::default());
    let expected = Expected::new(&bench, &attribution);
    common::record_default_quality(&ctx, metrics);
    metrics.set(
        "snapshot_bytes_per_doc",
        common::dir_bytes(&snapshot) as f64 / bench.corpus.retained() as f64,
    );
    drop(bench);

    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPEATS {
        drop(daemon.take());
        let (d, secs) = Daemon::spawn(args, &snapshot)?;
        setups.push(secs);
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("at least one spawn");
    metrics.set("setup_s", stats::median_of(&setups).unwrap_or(0.0));
    let mut details = vec![format!("setup_s samples = {setups:?}")];

    gate(&daemon.addr, &expected, ops)?;
    // Warm the connections and the daemon's page cache, unmeasured.
    let mut clients = connect(&daemon.addr)?;
    let warm = plan(REFERENCE_RATE, 0.3, args.seed, 0x5E_4E, expected.req.len());
    run_step(&mut clients, 0.3, &warm, &expected, None)?;

    let mut drives: Vec<(f64, Drive)> = Vec::new();
    let mut saturated = Vec::new();
    for (k, step) in drive_order().into_iter().enumerate() {
        let secs = step_seconds(args.seconds, step);
        let rate = match step {
            Step::Reference => REFERENCE_RATE,
            Step::Rung(rate) => rate,
            Step::Saturate => {
                let stream = common::need_stream(
                    args.seed,
                    0x5A7 + k as u64,
                    expected.req.len(),
                    SATURATE_STREAM,
                );
                let (rate, answers) = saturate(&mut clients, secs, &stream, &expected);
                for (i, ok) in answers.into_iter().enumerate() {
                    ops.check(ok, || format!("saturation request {i} failed or differed"));
                }
                saturated.push(rate);
                continue;
            }
        };
        let schedule = plan(rate, secs, args.seed, k as u64, expected.req.len());
        let drive = run_step(&mut clients, secs, &schedule, &expected, None)?;
        for s in &drive.sent {
            ops.check(s.ok, || {
                format!("request {} at {rate} rps failed or differed", s.index)
            });
        }
        drives.push((rate, drive));
    }
    let slices: Vec<f64> = drives
        .iter()
        .filter(|(rate, _)| *rate == REFERENCE_RATE)
        .map(|(rate, d)| report(*rate, &[d]).latency.p50)
        .collect();
    let mut verdicts = Vec::new();
    for step in ladder_reports(&drives) {
        let verdict = stats::judge(&step, LATENCY_LIMIT_MS, LAG_LIMIT_MS);
        eprintln!("[perfbench] {}", describe(&step, verdict));
        details.push(describe(&step, verdict));
        if step.rate == REFERENCE_RATE {
            metrics.set("latency_p50_ms", step.latency.p50);
        }
        verdicts.push((step.rate, verdict));
    }
    let sustained = stats::sustained_rate(&verdicts);
    for line in [
        format!("reference slice p50 ms = {slices:?}"),
        format!("sustained rate (ladder) = {sustained} rps"),
        format!("saturated rps samples = {saturated:?}"),
    ] {
        eprintln!("[perfbench] {line}");
        details.push(line);
    }
    metrics.set(
        "throughput_per_s",
        stats::median_of(&saturated).unwrap_or(0.0),
    );
    metrics.set(
        "peak_rss_mb",
        common::peak_rss_mb(Some(daemon.pid())).unwrap_or(0.0),
    );
    daemon.stop();
    Ok(details)
}

/// The daemon's app behind a wrapper that times `App::handle`.
struct TimedApp<'t> {
    inner: RankApp,
    tracer: &'t Tracer,
}

/// The `"rid"` a traced request body carries: the request's 1-based
/// position in its schedule (0 when absent, as on warm-up requests).
fn request_id(body: &[u8]) -> u64 {
    let text = String::from_utf8_lossy(body);
    text.split("\"rid\": ")
        .nth(1)
        .and_then(|rest| rest.trim_end_matches('}').trim().parse().ok())
        .unwrap_or(0)
}

impl App for TimedApp<'_> {
    fn handle(&self, req: &Request) -> Response {
        self.tracer
            .span("serve_app.handle", request_id(&req.body), || {
                self.inner.handle(req)
            })
    }

    fn upgrade_allowed(&self, path: &str) -> bool {
        self.inner.upgrade_allowed(path)
    }

    fn ws_message(&self, text: &str) -> Vec<String> {
        self.inner.ws_message(text)
    }
}

/// [`rank_response`] recomposed from the layer calls it makes, each in a
/// span: pipeline construction, query analysis, top-k retrieval, Eq. 3
/// aggregation and rendering. Returns the body it renders, which must
/// equal `rank_response`'s.
pub fn rank_response_traced(
    bench: &Bench,
    attribution: &Attribution,
    config: &FinderConfig,
    text: &str,
    top: usize,
    tracer: &Tracer,
    rid: u64,
) -> String {
    tracer.span("serve_app.rank_response", rid, || {
        let pipeline = tracer.span("pipeline.new", rid, || AnalysisPipeline::new(bench.ds.kb()));
        let query = tracer.span("pipeline.analyze_query", rid, || {
            pipeline.analyze_query(text)
        });
        let n = bench.ds.candidates().len();
        let ranking = match config.window {
            rightcrowd_core::WindowSize::Count(k) => {
                let eligible = tracer.span("index.score_top_k", rid, || {
                    bench
                        .corpus
                        .index()
                        .score_top_k(&query, config.alpha, k, |d| attribution.is_attributed(d))
                });
                tracer.span("ranker.rank_scored", rid, || {
                    rightcrowd_core::ranker::rank_scored(
                        attribution,
                        config,
                        &eligible,
                        eligible.len(),
                        n,
                    )
                })
            }
            _ => panic!("the daemon's default configuration has a fixed-count window"),
        };
        tracer.span("serve_app.render", rid, || {
            render(bench, text, &ranking, top)
        })
    })
}

/// `rank_response`'s JSON rendering of a ranking.
fn render(
    bench: &Bench,
    text: &str,
    ranking: &[rightcrowd_core::RankedExpert],
    top: usize,
) -> String {
    let candidates = bench.ds.candidates();
    let experts: Vec<Json> = ranking
        .iter()
        .take(top)
        .enumerate()
        .map(|(i, expert)| {
            let mut row = std::collections::BTreeMap::new();
            row.insert("rank".to_owned(), Json::Num((i + 1) as f64));
            row.insert("person".to_owned(), Json::Num(f64::from(expert.person.0)));
            row.insert(
                "name".to_owned(),
                Json::Str(candidates[expert.person.index()].name.clone()),
            );
            row.insert("score".to_owned(), Json::Num(expert.score));
            Json::Obj(row)
        })
        .collect();
    let mut doc = std::collections::BTreeMap::new();
    doc.insert("query".to_owned(), Json::Str(text.to_owned()));
    doc.insert("count".to_owned(), Json::Num(ranking.len() as f64));
    doc.insert("experts".to_owned(), Json::Arr(experts));
    Json::Obj(doc).render()
}

/// Median of one traced layer's span durations in `per` units.
pub fn p50(
    layers: &std::collections::BTreeMap<&str, trace::LayerStat>,
    name: &str,
    per: f64,
) -> f64 {
    layers
        .get(name)
        .map_or(0.0, |l| stats::summarize(&l.durations(per)).p50)
}

/// `langid.train_ms`: median of five standalone profile trainings.
pub fn langid_train_ms() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(rightcrowd_langid::LanguageIdentifier::new());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median_of(&samples).unwrap_or(0.0)
}

/// The traced run: every per-layer metric.
pub fn run_traced(
    args: &Args,
    ops: &mut Ops,
    metrics: &mut Metrics,
) -> Result<Vec<String>, String> {
    let snapshot = common::snapshot(args, Scale::Small)?;
    let (bench, open_ms) = common::open(&snapshot)?;
    metrics.set("store.open_ms", open_ms);
    let config = FinderConfig::default();
    let ctx = bench.ctx();
    let attribution = ctx.attribution(&config);
    let expected = Expected::new(&bench, &attribution);
    let started = Instant::now();
    std::hint::black_box(Attribution::compute(&bench.ds, &bench.corpus, &config));
    metrics.set(
        "attribution.compute_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    let (points, _) = common::sweep_pass(&ctx);
    common::record_quality(&points, metrics);
    metrics.set("langid.train_ms", langid_train_ms());

    // Part 1: the daemon's app in process, behind the timing wrapper,
    // under the reference-rate load over TCP.
    let (app_bench, _) = common::open(&snapshot)?;
    let tracer = Tracer::new(true);
    let app = TimedApp {
        inner: RankApp::new(app_bench, "traced".into(), None),
        tracer: &tracer,
    };
    let server = rightcrowd_serve::Server::bind(rightcrowd_serve::ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: generator_threads(),
        ..rightcrowd_serve::ServerConfig::default()
    })
    .map_err(|e| format!("cannot bind the traced server: {e}"))?;
    let addr = server
        .local_addr()
        .ok_or("traced server has no address")?
        .to_string();
    let secs = args.seconds * REFERENCE_SHARE;
    let schedule = plan(
        REFERENCE_RATE,
        secs,
        args.seed,
        0x7_4ACE,
        expected.req.len(),
    );
    rightcrowd_serve::reset_stop();
    let drive = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&app));
        let drive = connect(&addr).and_then(|mut clients| {
            let warm = plan(REFERENCE_RATE, 0.3, args.seed, 0x5E_4E, expected.req.len());
            run_step(&mut clients, 0.3, &warm, &expected, None)?;
            run_step(&mut clients, secs, &schedule, &expected, Some(&tracer))
        });
        rightcrowd_serve::request_stop();
        serving.join().expect("traced server panicked");
        drive
    });
    rightcrowd_serve::reset_stop();
    let drive = drive?;
    for s in &drive.sent {
        ops.check(s.ok, || {
            format!("traced request {} failed or differed", s.index)
        });
    }
    let step = report(REFERENCE_RATE, &[&drive]);
    let verdict = stats::judge(&step, LATENCY_LIMIT_MS, LAG_LIMIT_MS);
    eprintln!("[perfbench] traced {}", describe(&step, verdict));
    let server_stats = server.stats();
    let accepted = server_stats.accepted.load(Ordering::Relaxed).max(1);
    metrics.set(
        "serve.shed_frac",
        server_stats.shed.load(Ordering::Relaxed) as f64 / accepted as f64,
    );
    metrics.set("loadgen.lag_ms.p99", step.lag.tail);

    let mut spans = tracer.into_spans();
    // Link each handle span to the client span of the same request.
    let mut client_of = std::collections::HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == "serve.request" {
            client_of.insert(s.request, i);
        }
    }
    for s in spans.iter_mut() {
        if s.name == "serve_app.handle" {
            s.parent = client_of.get(&s.request).copied();
        }
    }
    let selfs = trace::self_times(&spans);
    let transport: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "serve.request")
        .map(|(_, &own)| own as f64 / 1e6)
        .collect();
    metrics.set("serve.transport_ms.p50", stats::summarize(&transport).p50);
    let handle: Vec<f64> = spans
        .iter()
        .filter(|s| {
            s.name == "serve_app.handle"
                && s.request > 0
                && !schedule[s.request as usize - 1].explain
        })
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let handle = stats::summarize(&handle);
    metrics.set("serve_app.handle_ms.p50", handle.p50);
    metrics.set("serve_app.handle_ms.p99", handle.tail);

    // Part 2: rank_response recomposed on the same query stream,
    // untraced then traced; both must render the daemon's bytes.
    let stream: Vec<usize> = schedule
        .iter()
        .filter(|p| !p.explain)
        .map(|p| p.need)
        .take(RECOMPOSED_CALLS)
        .collect();
    let needs = bench.ds.queries();
    let mut walls = [0.0f64; 2];
    let recomposed = Tracer::new(true);
    for (pass, tracer) in [Tracer::new(false), recomposed].into_iter().enumerate() {
        let started = Instant::now();
        for (rid, &need) in stream.iter().enumerate() {
            let body = rank_response_traced(
                &bench,
                &attribution,
                &config,
                &needs[need].text,
                10,
                &tracer,
                rid as u64,
            );
            ops.check(body == expected.rank_resp[need], || {
                format!("recomposed /rank for need {need} differs from rank_response")
            });
        }
        walls[pass] = started.elapsed().as_secs_f64();
        if pass == 1 {
            let rspans = tracer.into_spans();
            let layers = trace::by_name(&rspans);
            let calls = |n: &str| layers.get(n).map_or(0, |l| l.calls) as f64;
            metrics.set("pipeline.new_ms", p50(&layers, "pipeline.new", 1e6));
            metrics.set(
                "pipeline.new_calls_per_query",
                calls("pipeline.new") / calls("pipeline.analyze_query").max(1.0),
            );
            metrics.set(
                "pipeline.analyze_query_us.p50",
                p50(&layers, "pipeline.analyze_query", 1e3),
            );
            let top_k = layers
                .get("index.score_top_k")
                .map(|l| stats::summarize(&l.durations(1e3)));
            metrics.set("index.score_top_k_us.p50", top_k.map_or(0.0, |s| s.p50));
            metrics.set("index.score_top_k_us.p99", top_k.map_or(0.0, |s| s.tail));
            metrics.set(
                "ranker.rank_scored_us.p50",
                p50(&layers, "ranker.rank_scored", 1e3),
            );
            metrics.set(
                "serve_app.render_us.p50",
                p50(&layers, "serve_app.render", 1e3),
            );
            metrics.set(
                "trace.unattributed_frac",
                trace::unattributed_frac(&rspans, &["serve_app.rank_response"]),
            );
            trace::append(&mut spans, rspans);
        }
    }
    metrics.set("trace.overhead_frac", walls[1] / walls[0] - 1.0);

    // Traversal counters of the same stream, read between calls.
    let mut totals = rightcrowd_index::TraversalStats::default();
    let pipeline = AnalysisPipeline::new(bench.ds.kb());
    for &need in &stream {
        let query = pipeline.analyze_query(&needs[need].text);
        let _ = rightcrowd_index::take_traversal_stats();
        let _ = bench
            .corpus
            .index()
            .score_top_k(&query, config.alpha, 100, |d| attribution.is_attributed(d));
        add_stats(&mut totals, &rightcrowd_index::take_traversal_stats());
    }
    record_traversal(&totals, stream.len(), stream.len(), metrics);

    trace::write_spans(&common::spans_path(args), &spans)
        .map_err(|e| format!("cannot write spans: {e}"))?;
    let mut details = vec![describe(&step, verdict)];
    details.extend(trace::layer_lines(&spans));
    Ok(details)
}

/// Accumulates traversal counters.
pub fn add_stats(
    total: &mut rightcrowd_index::TraversalStats,
    s: &rightcrowd_index::TraversalStats,
) {
    total.traversed += s.traversed;
    total.admitted += s.admitted;
    total.pruned += s.pruned;
    total.blocks_total += s.blocks_total;
    total.blocks_decoded += s.blocks_decoded;
    total.blocks_skipped += s.blocks_skipped;
}

/// Records the `index.*` counter metrics: postings per scored query,
/// blocks decoded per top-k query, and the skip and prune shares.
pub fn record_traversal(
    t: &rightcrowd_index::TraversalStats,
    scored_queries: usize,
    top_k_queries: usize,
    metrics: &mut Metrics,
) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    metrics.set(
        "index.postings_per_query",
        ratio(t.traversed, scored_queries as u64),
    );
    metrics.set(
        "index.blocks_decoded_per_query",
        ratio(t.blocks_decoded, top_k_queries as u64),
    );
    metrics.set(
        "index.blocks_skipped_frac",
        ratio(t.blocks_skipped, t.blocks_total),
    );
    metrics.set("index.pruned_frac", ratio(t.pruned, t.admitted + t.pruned));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seeded_poisson_schedules() {
        let a = plan(200.0, 5.0, 3, 1, 30);
        let b = plan(200.0, 5.0, 3, 1, 30);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due_ns == y.due_ns && x.need == y.need));
        // rate × seconds arrivals, in order, inside the step.
        assert_eq!(a.len(), 1000);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|p| p.due_ns < 5_000_000_000 && p.need < 30));
        assert_eq!(a.iter().filter(|p| p.explain).count(), 20);
        // Another seed: other times and order, the same mix.
        let c = plan(200.0, 5.0, 4, 1, 30);
        assert_ne!(
            a.iter().map(|p| p.due_ns).collect::<Vec<_>>(),
            c.iter().map(|p| p.due_ns).collect::<Vec<_>>()
        );
        let mix = |p: &[Planned]| {
            let mut needs: Vec<usize> = p.iter().map(|p| p.need).collect();
            needs.sort_unstable();
            needs
        };
        assert_eq!(mix(&a), mix(&c));
    }

    #[test]
    fn the_run_spreads_every_kind_of_drive_over_the_run() {
        let order = drive_order();
        assert_eq!(order.first(), Some(&Step::Reference));
        assert_eq!(order.last(), Some(&Step::Reference));
        let count = |s: Step| order.iter().filter(|&&o| o == s).count();
        assert_eq!(count(Step::Reference), REFERENCE_SLICES);
        assert_eq!(count(Step::Saturate), SATURATE_SLICES);
        for rate in LADDER.into_iter().filter(|&r| r != REFERENCE_RATE) {
            assert_eq!(count(Step::Rung(rate)), 1, "{rate}");
        }
        // No two saturation drives run back to back.
        assert!(order
            .windows(2)
            .all(|w| !(w[0] == Step::Saturate && w[1] == Step::Saturate)));
        // The shares add up to the whole run.
        let total: f64 = order.iter().map(|&s| step_seconds(20.0, s)).sum();
        assert!((total - 20.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn request_ids_round_trip_through_traced_bodies() {
        let req = "{\"query\": \"who\", \"top\": 10}";
        let traced = format!("{}, \"rid\": 42}}", &req[..req.len() - 1]);
        assert_eq!(traced, "{\"query\": \"who\", \"top\": 10, \"rid\": 42}");
        assert_eq!(request_id(traced.as_bytes()), 42);
        assert_eq!(request_id(req.as_bytes()), 0);
    }

    #[test]
    fn generator_never_exceeds_the_cores() {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(generator_threads() <= nproc);
        assert!(generator_threads() >= 1);
    }
}
