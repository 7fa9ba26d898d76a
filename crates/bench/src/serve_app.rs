//! The application layer of the resident daemon: what the endpoints of
//! `rc serve` *mean*, plugged into the `rightcrowd-serve` transport
//! through its `App` trait.
//!
//! The split keeps `rightcrowd-serve` dependency-free in both
//! directions: the transport knows nothing about corpora or rankers,
//! and this module knows nothing about sockets. [`RankApp`] owns the
//! warmed snapshot (dataset + corpus + attribution cache) and serves:
//!
//! * `POST /rank` — JSON `{"query": ..., "top": N}` →
//!   [`rank_response`], byte-identical to what an in-process
//!   [`rank_query`] caller would render ([`rc soak --connect`]
//!   re-verifies this bit-identity before every measured phase).
//! * `POST /explain` — the score decomposition of
//!   [`rightcrowd_core::rank_explained`], rendered by the same
//!   [`crate::explain_fmt::explain_json`] the CLI uses.
//! * `GET /metrics` — the live OpenMetrics exposition (chunked).
//! * `GET /healthz` — snapshot fingerprint, uptime, served count.
//! * `WS /rank` — text frames carrying the `POST /rank` request shape
//!   (or `{"queries": [...]}` batches), one result frame per query.
//!
//! Every ranked query runs under the same spans / latency histogram /
//! flight-ring / wide-event / profiler probes as the soak harness, so
//! `rc profile`, `rc flight` and the OpenMetrics endpoint describe a
//! *serving* process, not an idle one. Under `obs-off` the probes
//! compile out and the daemon just serves.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use rightcrowd_core::ranker::rank_query;
use rightcrowd_core::{
    rank_explained, AnalysisPipeline, Attribution, FinderConfig, RankedExpert,
};
use rightcrowd_obs::{HistId, QueryRecord, WideEvent, WideEventLog};
use rightcrowd_serve::http::json_escape;
use rightcrowd_serve::{App, Request, Response};

use crate::regress::{parse_json, Json};
use crate::runner::{Bench, SnapshotLoad};
use crate::soak::build_info;

/// Wide-event log capacities (same cohort sizes as the soak harness).
const WIDE_RESERVOIR: usize = 256;
const WIDE_TAIL: usize = 64;

/// Most experts one request may ask for.
const MAX_TOP: usize = 1000;

/// Most queries one WebSocket batch frame may carry.
const MAX_BATCH: usize = 256;

/// FNV-1a over `bytes` — query ids for ad-hoc HTTP queries, and the
/// snapshot fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1_0000_0000_01b3);
    }
    hash
}

/// Milliseconds since the Unix epoch (0 when the clock is broken).
fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Analyses `text`, ranks the candidates, and renders the wire JSON.
/// This is THE `/rank` response path — the daemon serves its output
/// verbatim, and the `rc soak --connect` bit-identity check calls the
/// same function in-process, so the two cannot drift apart.
pub fn rank_response(
    bench: &Bench,
    attribution: &Attribution,
    config: &FinderConfig,
    text: &str,
    top: usize,
) -> (String, Vec<RankedExpert>) {
    let pipeline = AnalysisPipeline::new(bench.ds.kb());
    let query = pipeline.analyze_query(text);
    let ranking =
        rank_query(&bench.corpus, attribution, config, &query, bench.ds.candidates().len());

    let candidates = bench.ds.candidates();
    let experts: Vec<Json> = ranking
        .iter()
        .take(top.min(MAX_TOP))
        .enumerate()
        .map(|(i, expert)| {
            let mut row = BTreeMap::new();
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
    let mut doc = BTreeMap::new();
    doc.insert("query".to_owned(), Json::Str(text.to_owned()));
    doc.insert("count".to_owned(), Json::Num(ranking.len() as f64));
    doc.insert("experts".to_owned(), Json::Arr(experts));
    (Json::Obj(doc).render(), ranking)
}

/// One parsed rank/explain request body.
struct RankRequest {
    queries: Vec<String>,
    candidate: Option<String>,
    top: usize,
}

/// Parses `{"query": ...}` or `{"queries": [...]}` with optional `top`
/// and `candidate`. Every malformed shape is a rendered error, never a
/// panic — this is peer-controlled input.
fn parse_rank_request(body: &[u8]) -> Result<RankRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_owned())?;
    let doc = parse_json(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
    let mut queries = Vec::new();
    match (doc.get("query"), doc.get("queries")) {
        (Some(Json::Str(q)), None) => queries.push(q.clone()),
        (None, Some(Json::Arr(items))) => {
            if items.len() > MAX_BATCH {
                return Err(format!("batch of {} queries over the {MAX_BATCH} cap", items.len()));
            }
            for item in items {
                match item {
                    Json::Str(q) => queries.push(q.clone()),
                    other => return Err(format!("\"queries\" items must be strings, got {other:?}")),
                }
            }
        }
        (Some(_), None) => return Err("\"query\" must be a string".to_owned()),
        (None, Some(_)) => return Err("\"queries\" must be an array of strings".to_owned()),
        (Some(_), Some(_)) => return Err("give \"query\" or \"queries\", not both".to_owned()),
        (None, None) => return Err("missing \"query\" (or \"queries\") key".to_owned()),
    }
    if queries.iter().any(String::is_empty) {
        return Err("queries must be non-empty".to_owned());
    }
    let top = match doc.get("top") {
        None => 10,
        Some(t) => match t.as_f64() {
            Some(n) if n >= 1.0 && n <= MAX_TOP as f64 && n.fract() == 0.0 => n as usize,
            _ => return Err(format!("\"top\" must be an integer in 1..={MAX_TOP}")),
        },
    };
    let candidate = match doc.get("candidate") {
        None | Some(Json::Null) => None,
        Some(Json::Str(name)) => Some(name.clone()),
        Some(_) => return Err("\"candidate\" must be a string".to_owned()),
    };
    Ok(RankRequest { queries, candidate, top })
}

/// A 4xx JSON error body.
fn bad_request(why: &str) -> Response {
    Response::json(400, format!("{{\"error\": {}}}", json_escape(why)))
}

/// The resident application: a warmed snapshot plus everything the
/// endpoints need, shared read-only across the worker pool.
pub struct RankApp {
    bench: Bench,
    attribution: Arc<Attribution>,
    config: FinderConfig,
    fingerprint: String,
    snapshot_label: String,
    started: Instant,
    served: AtomicU64,
    wide: Mutex<WideEventLog>,
}

impl RankApp {
    /// Warms the app over a prepared bench: trains the process-wide
    /// language profiles, computes the shared attribution once (every
    /// request reuses both — the daemon's amortisation story) and
    /// fingerprints the snapshot for `/healthz`: a loaded snapshot by its
    /// manifest digest, a cold-built corpus (`load` is `None`) by a hash
    /// of its census.
    pub fn new(bench: Bench, snapshot_label: String, load: Option<SnapshotLoad>) -> RankApp {
        // The first identifier in a process trains the language profiles;
        // build one now so no client's request pays for that.
        let _ = rightcrowd_langid::LanguageIdentifier::new();
        let config = FinderConfig::default();
        let attribution = bench.ctx().attribution(&config);
        // A loaded index is borrowed from `mmap(2)` pages that may not be
        // resident yet: fingerprint the snapshot by its manifest digest
        // (verified at open time — it attests the shard table and thus
        // every shard's bytes) instead of hashing corpus content, which
        // would force a full page-in on daemon boot.
        let fingerprint = match load {
            Some(l) => format!("{:016x}", l.manifest_digest),
            None => {
                let (persons, profiles, resources, containers) = bench.ds.graph().counts();
                let identity = format!(
                    "{}|{}|{}|{}|{}|{}|{}|{}",
                    crate::runner::scale_label(),
                    persons,
                    profiles,
                    resources,
                    containers,
                    bench.corpus.retained(),
                    bench.corpus.dropped_non_english(),
                    bench.ds.queries().len(),
                );
                format!("{:016x}", fnv1a(identity.as_bytes()))
            }
        };
        RankApp {
            bench,
            attribution,
            config,
            fingerprint,
            snapshot_label,
            started: Instant::now(),
            served: AtomicU64::new(0),
            wide: Mutex::new(WideEventLog::new(WIDE_RESERVOIR, WIDE_TAIL, 0x005E_12ED)),
        }
    }

    /// The snapshot fingerprint `/healthz` reports.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Queries served so far (HTTP + WebSocket).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Ranks one query under the full instrumentation stack and renders
    /// the wire body.
    fn rank_instrumented(&self, text: &str, top: usize) -> String {
        let _span = rightcrowd_obs::span!("serve.rank");
        let query_id = fnv1a(text.as_bytes());
        let _ = rightcrowd_index::take_traversal_stats();
        // Tag profiler samples with the query id so `rc profile` style
        // CPU attribution works against the daemon too.
        let _cpu = rightcrowd_obs::prof::query_scope(query_id);
        let one = Instant::now();
        let (body, ranking) =
            rank_response(&self.bench, &self.attribution, &self.config, text, top);
        let elapsed = one.elapsed();
        let stats = rightcrowd_index::take_traversal_stats();
        self.served.fetch_add(1, Ordering::Relaxed);
        rightcrowd_obs::record(HistId::QueryLatency, elapsed);
        let record = QueryRecord {
            query_id,
            label: text.to_owned(),
            domain: "http".to_owned(),
            alpha: self.config.alpha,
            max_distance: self.config.max_distance.level() as u8,
            window: self.config.window.label(),
            latency_ns: elapsed.as_nanos() as u64,
            postings_traversed: stats.traversed,
            maxscore_admitted: stats.admitted,
            maxscore_pruned: stats.pruned,
            top_candidates: ranking.first().map(|r| (r.person.0, r.score)).into_iter().collect(),
            cpu_est_us: 0,
        };
        rightcrowd_obs::flight::record(record.clone());
        let event = WideEvent {
            unix_ms: unix_ms(),
            thread: 0,
            record,
            blocks_total: stats.blocks_total,
            blocks_skipped: stats.blocks_skipped,
            theta: ranking.last().map_or(0.0, |r| r.score),
            error: None,
        };
        self.wide.lock().expect("wide-event log poisoned").offer(event);
        body
    }

    /// `POST /explain`: the full score decomposition.
    fn explain(&self, req: &RankRequest) -> Response {
        let text = &req.queries[0];
        let _span = rightcrowd_obs::span!("serve.explain");
        let pipeline = AnalysisPipeline::new(self.bench.ds.kb());
        let query = pipeline.analyze_query(text);
        let explained = rank_explained(
            &self.bench.corpus,
            &self.attribution,
            &self.config,
            &query,
            self.bench.ds.candidates().len(),
        );
        self.served.fetch_add(1, Ordering::Relaxed);
        let names: Vec<&str> =
            self.bench.ds.candidates().iter().map(|p| p.name.as_str()).collect();
        Response::json(
            200,
            crate::explain_fmt::explain_json(
                &explained,
                &self.config,
                &names,
                req.candidate.as_deref(),
                req.top,
            ),
        )
    }

    /// `GET /healthz`: identity + liveness.
    fn healthz(&self) -> Response {
        let mut doc = BTreeMap::new();
        doc.insert("status".to_owned(), Json::Str("ok".to_owned()));
        doc.insert("scale".to_owned(), Json::Str(crate::runner::scale_label()));
        doc.insert("snapshot".to_owned(), Json::Str(self.snapshot_label.clone()));
        doc.insert("fingerprint".to_owned(), Json::Str(self.fingerprint.clone()));
        doc.insert("git_rev".to_owned(), Json::Str(crate::report::git_rev()));
        doc.insert("features".to_owned(), Json::Str(crate::soak::build_features()));
        doc.insert(
            "uptime_s".to_owned(),
            Json::Num(self.started.elapsed().as_secs_f64()),
        );
        doc.insert("served".to_owned(), Json::Num(self.served() as f64));
        Response::json(200, Json::Obj(doc).render())
    }

    /// `GET /metrics`: the live OpenMetrics exposition, streamed
    /// chunked (the counter registry grows with uptime).
    fn metrics(&self) -> Response {
        let text = rightcrowd_obs::openmetrics_live(&build_info());
        Response {
            status: 200,
            content_type: "application/openmetrics-text; version=1.0.0; charset=utf-8".into(),
            body: text.into_bytes(),
            headers: Vec::new(),
            chunked: true,
        }
    }

    /// Flushes the wide-event log to `dir/SERVE_<scale>.events.jsonl` —
    /// the drain-time half of the graceful-shutdown contract.
    pub fn flush_events(&self, dir: &std::path::Path) -> Result<std::path::PathBuf, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let wide = self.wide.lock().expect("wide-event log poisoned");
        let path = dir.join(format!("SERVE_{}.events.jsonl", crate::runner::scale_label()));
        let jsonl = wide.to_jsonl();
        // An empty log still leaves a marker line, so CI's `test -s`
        // check distinguishes "flushed nothing served" from "lost".
        let payload = if jsonl.is_empty() {
            format!(
                "{{\"kept\": \"none\", \"seen\": {}, \"note\": \"no queries served\"}}\n",
                wide.seen()
            )
        } else {
            jsonl
        };
        std::fs::write(&path, payload)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }
}

impl App for RankApp {
    fn handle(&self, req: &Request) -> Response {
        let _span = rightcrowd_obs::span!("serve.request");
        match (req.method.as_str(), req.path()) {
            ("GET", "/healthz") => self.healthz(),
            ("GET", "/metrics") => self.metrics(),
            ("POST", "/rank") => match parse_rank_request(&req.body) {
                Ok(rank) if rank.queries.len() == 1 => {
                    Response::json(200, self.rank_instrumented(&rank.queries[0], rank.top))
                }
                Ok(_) => bad_request("POST /rank takes one \"query\"; batches go over WS /rank"),
                Err(why) => bad_request(&why),
            },
            ("POST", "/explain") => match parse_rank_request(&req.body) {
                Ok(rank) if rank.queries.len() == 1 => self.explain(&rank),
                Ok(_) => bad_request("POST /explain takes one \"query\""),
                Err(why) => bad_request(&why),
            },
            (_, "/healthz" | "/metrics" | "/explain" | "/rank") => Response::json(
                405,
                "{\"error\": \"wrong method for this endpoint\"}".to_owned(),
            ),
            _ => Response::json(404, "{\"error\": \"no such endpoint\"}".to_owned()),
        }
    }

    fn upgrade_allowed(&self, path: &str) -> bool {
        path == "/rank"
    }

    fn ws_message(&self, text: &str) -> Vec<String> {
        match parse_rank_request(text.as_bytes()) {
            Ok(rank) => rank
                .queries
                .iter()
                .map(|q| self.rank_instrumented(q, rank.top))
                .collect(),
            Err(why) => vec![format!("{{\"error\": {}}}", json_escape(&why))],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_app() -> RankApp {
        let ds = rightcrowd_synth::SyntheticDataset::generate(
            &rightcrowd_synth::DatasetConfig::tiny(),
        );
        let corpus = rightcrowd_core::AnalyzedCorpus::build(&ds);
        let bench = Bench { ds, corpus, generate_ms: 0.0, analyze_ms: 0.0 };
        RankApp::new(bench, "in-memory".to_owned(), None)
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            target: path.into(),
            version: "HTTP/1.1".into(),
            headers: vec![("Content-Length".into(), body.len().to_string())],
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            target: path.into(),
            version: "HTTP/1.1".into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn rank_endpoint_is_bit_identical_to_the_shared_renderer() {
        let app = tiny_app();
        let text = &app.bench.ds.queries()[0].text.clone();
        let (expected, _) =
            rank_response(&app.bench, &app.attribution, &app.config, text, 10);
        let body = format!("{{\"query\": {}, \"top\": 10}}", json_escape(text));
        let resp = app.handle(&post("/rank", &body));
        assert_eq!(resp.status, 200);
        assert_eq!(String::from_utf8(resp.body).unwrap(), expected);

        // The response parses and carries the contract keys.
        let doc = parse_json(&expected).unwrap();
        assert_eq!(doc.get("query"), Some(&Json::Str(text.clone())));
        assert!(doc.get("count").and_then(Json::as_f64).is_some());
        assert!(matches!(doc.get("experts"), Some(Json::Arr(_))));
    }

    #[test]
    fn websocket_batches_yield_one_frame_per_query_in_order() {
        let app = tiny_app();
        let queries: Vec<String> =
            app.bench.ds.queries().iter().take(3).map(|q| q.text.clone()).collect();
        let body = format!(
            "{{\"queries\": [{}], \"top\": 3}}",
            queries.iter().map(|q| json_escape(q)).collect::<Vec<_>>().join(", ")
        );
        let frames = app.ws_message(&body);
        assert_eq!(frames.len(), queries.len());
        for (frame, text) in frames.iter().zip(&queries) {
            let (expected, _) =
                rank_response(&app.bench, &app.attribution, &app.config, text, 3);
            assert_eq!(frame, &expected, "frame for {text:?}");
        }
    }

    #[test]
    fn explain_endpoint_matches_the_cli_renderer() {
        let app = tiny_app();
        let text = app.bench.ds.queries()[0].text.clone();
        let body = format!("{{\"query\": {}, \"top\": 3}}", json_escape(&text));
        let resp = app.handle(&post("/explain", &body));
        assert_eq!(resp.status, 200);
        let rendered = String::from_utf8(resp.body).unwrap();
        assert!(rendered.contains("\"experts\""), "{rendered}");
        assert!(rendered.contains("\"alpha\""), "{rendered}");
    }

    #[test]
    fn healthz_reports_identity_and_progress() {
        let app = tiny_app();
        let resp = app.handle(&get("/healthz"));
        assert_eq!(resp.status, 200);
        let doc = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("status"), Some(&Json::Str("ok".to_owned())));
        assert_eq!(
            doc.get("fingerprint"),
            Some(&Json::Str(app.fingerprint().to_owned()))
        );
        assert_eq!(doc.get("served").and_then(Json::as_f64), Some(0.0));

        // Serving a query moves the counter.
        let text = app.bench.ds.queries()[0].text.clone();
        let body = format!("{{\"query\": {}}}", json_escape(&text));
        assert_eq!(app.handle(&post("/rank", &body)).status, 200);
        assert_eq!(app.served(), 1);
    }

    #[test]
    fn loaded_snapshots_fingerprint_by_manifest_digest() {
        // A snapshot open hands the app the manifest digest, and the app
        // must use it verbatim — hashing corpus content instead would
        // force a full page-in of the borrowed index on daemon boot.
        let make = |load: Option<SnapshotLoad>| {
            let ds = rightcrowd_synth::SyntheticDataset::generate(
                &rightcrowd_synth::DatasetConfig::tiny(),
            );
            let corpus = rightcrowd_core::AnalyzedCorpus::build(&ds);
            let bench = Bench { ds, corpus, generate_ms: 0.0, analyze_ms: 0.0 };
            RankApp::new(bench, "snap".to_owned(), load)
        };
        let load = SnapshotLoad {
            shard_count: 2,
            bytes: 1024,
            manifest_digest: 0xDEAD_BEEF_0BAD_F00D,
            elapsed_ms: 0.1,
        };
        let app = make(Some(load));
        assert_eq!(app.fingerprint(), "deadbeef0badf00d");
        let doc = parse_json(
            std::str::from_utf8(&app.handle(&get("/healthz")).body).unwrap(),
        )
        .unwrap();
        assert_eq!(
            doc.get("fingerprint"),
            Some(&Json::Str("deadbeef0badf00d".to_owned()))
        );
        // A cold-built corpus has no manifest; it keeps a census hash.
        let cold = make(None);
        assert_ne!(cold.fingerprint(), "deadbeef0badf00d");
        assert_eq!(cold.fingerprint().len(), 16);
    }

    #[test]
    fn metrics_endpoint_survives_the_validator() {
        let app = tiny_app();
        let resp = app.handle(&get("/metrics"));
        assert_eq!(resp.status, 200);
        assert!(resp.chunked, "the exposition streams chunked");
        let text = String::from_utf8(resp.body).unwrap();
        rightcrowd_obs::validate_openmetrics(&text).expect("live exposition must validate");
    }

    #[test]
    fn malformed_bodies_answer_400_and_unknown_paths_404() {
        let app = tiny_app();
        for body in [
            "not json",
            "{}",
            "{\"query\": 7}",
            "{\"query\": \"\"}",
            "{\"query\": \"x\", \"queries\": [\"y\"]}",
            "{\"query\": \"x\", \"top\": 0}",
            "{\"query\": \"x\", \"top\": 1e9}",
            "{\"queries\": \"not an array\"}",
        ] {
            let resp = app.handle(&post("/rank", body));
            assert_eq!(resp.status, 400, "{body}");
            assert!(String::from_utf8(resp.body).unwrap().contains("\"error\""), "{body}");
        }
        assert_eq!(app.handle(&get("/nowhere")).status, 404);
        assert_eq!(app.handle(&get("/rank")).status, 405);
        assert_eq!(app.handle(&post("/healthz", "{}")).status, 405);
        // WS upgrades are only allowed on /rank.
        assert!(app.upgrade_allowed("/rank"));
        assert!(!app.upgrade_allowed("/healthz"));
    }

    #[test]
    fn flush_events_always_leaves_a_non_empty_artifact() {
        let app = tiny_app();
        let dir = std::env::temp_dir().join(format!("rc-serve-app-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // Nothing served yet: the marker line keeps the file non-empty.
        let path = app.flush_events(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.trim().is_empty());
        assert!(text.contains("no queries served"), "{text}");

        if rightcrowd_obs::PROBES_ENABLED {
            let text_q = app.bench.ds.queries()[0].text.clone();
            let body = format!("{{\"query\": {}}}", json_escape(&text_q));
            assert_eq!(app.handle(&post("/rank", &body)).status, 200);
            let path = app.flush_events(&dir).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.lines().count() >= 1 && !text.contains("no queries served"), "{text}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
