//! `rc regress` — the perf-regression harness.
//!
//! Diffs two `BENCH_<scale>.json` snapshots (a committed baseline and a
//! fresh run) over the latency-bearing keys and fails when any regresses
//! past a relative threshold. Snapshots are produced by
//! [`crate::report::BenchReport`]; the parser below is a minimal
//! recursive-descent JSON reader (objects, arrays, strings, numbers,
//! booleans, null) — enough for the snapshot schema while keeping the
//! workspace free of serialisation dependencies.

use std::collections::BTreeMap;

/// A parsed JSON value (the subset the snapshots use).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (all snapshot numbers fit f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` keeps key order deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Inserts (or replaces) an object member; no-op on other variants.
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(m) = self {
            m.insert(key.to_owned(), value);
        }
    }

    /// Pretty-prints the value as a JSON document (2-space indent,
    /// alphabetical object keys — `BTreeMap` order — and a trailing
    /// newline). Round-trips through [`parse_json`]; `rc soak` uses this
    /// to merge its keys into an existing `BENCH_<scale>.json`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, depth: usize| {
            for _ in 0..depth {
                out.push_str("  ");
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                // Integral values print without a fractional part so
                // counters survive a parse → render round trip verbatim.
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => render_json_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    pad(out, depth + 1);
                    item.render_into(out, depth + 1);
                }
                out.push('\n');
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    pad(out, depth + 1);
                    render_json_string(out, key);
                    out.push_str(": ");
                    value.render_into(out, depth + 1);
                }
                out.push('\n');
                pad(out, depth);
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a quoted JSON string with the required escapes.
fn render_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError { at: self.pos, message: message.into() })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected {:?}", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => self.err(format!("unexpected byte {:?}", b as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected {word}"))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ascii");
        match text.parse::<f64>() {
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => self.err(format!("invalid number {text:?}")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            // \uXXXX — decode the BMP code point (snapshot
                            // strings never need surrogate pairs).
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("invalid \\u escape"),
                            }
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| JsonError {
                            at: self.pos,
                            message: "invalid utf-8".into(),
                        })?;
                    let c = rest.chars().next().expect("non-empty checked above");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse_json(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing garbage after document");
    }
    Ok(value)
}

/// The latency-bearing snapshot keys compared by the harness, in report
/// order. Throughput and metric counters are informational, not gated.
pub const LATENCY_KEYS: &[&str] = &[
    "generate_ms",
    "analyze_ms",
    "cold_build_ms",
    "snapshot_load_ms",
    "warm_open_ms",
    "cold_open_ms",
    "query_p50_ms",
    "query_p99_ms",
    "alpha_sweep_naive_ms",
    "alpha_sweep_factored_ms",
];

/// The snapshot-size keys, gated with the same relative-threshold policy
/// as the latency keys (the encoder is deterministic, so unexplained
/// growth is a format or content change, not noise). `mapped_bytes` (the
/// shard files, i.e. the packed postings) and `manifest_bytes` keep the
/// compression wins from silently eroding.
pub const SIZE_KEYS: &[&str] = &["snapshot_bytes", "manifest_bytes", "mapped_bytes"];

/// The under-load latency keys written by `rc soak`: closed-loop p50/p99
/// at each rung of the thread ladder. Gated like [`LATENCY_KEYS`] but
/// with a larger absolute slack — a saturated 8-thread run jitters far
/// more than the sequential bench loop.
pub const UNDER_LOAD_LATENCY_KEYS: &[&str] = &[
    "p50_under_load_t1_ms",
    "p50_under_load_t2_ms",
    "p50_under_load_t4_ms",
    "p50_under_load_t8_ms",
    "p99_under_load_t1_ms",
    "p99_under_load_t2_ms",
    "p99_under_load_t4_ms",
    "p99_under_load_t8_ms",
];

/// The soak throughput keys, gated in the *opposite* direction of the
/// latency keys: a regression is the current run delivering fewer
/// queries per second than the baseline.
pub const THROUGHPUT_KEYS: &[&str] = &["qps_t1", "qps_t2", "qps_t4", "qps_t8"];

/// The served round-trip latency keys written by `rc soak --connect`:
/// closed-loop p50/p99 through a live `rc serve` daemon over TCP.
/// Gated like [`UNDER_LOAD_LATENCY_KEYS`] (same absolute slack — the
/// network round trip jitters at least as hard as the in-process loop).
pub const SERVE_UNDER_LOAD_LATENCY_KEYS: &[&str] = &[
    "serve_p50_under_load_t1_ms",
    "serve_p50_under_load_t2_ms",
    "serve_p50_under_load_t4_ms",
    "serve_p50_under_load_t8_ms",
    "serve_p99_under_load_t1_ms",
    "serve_p99_under_load_t2_ms",
    "serve_p99_under_load_t4_ms",
    "serve_p99_under_load_t8_ms",
];

/// The served throughput keys, gated in the reversed direction with the
/// same slack as [`THROUGHPUT_KEYS`]: fewer served queries per second
/// than the baseline is the regression.
pub const SERVE_THROUGHPUT_KEYS: &[&str] =
    &["serve_qps_t1", "serve_qps_t2", "serve_qps_t4", "serve_qps_t8"];

/// Sub-millisecond latencies jitter hard between runs; a delta is only a
/// regression when it also exceeds this absolute slack (ms).
const ABS_SLACK_MS: f64 = 0.05;

/// Container sizes only move when the encoded content moves; small
/// corpus-statistics drift (varint-free fixed-width encoding keeps this
/// rare) is forgiven below this absolute slack (bytes).
const ABS_SLACK_BYTES: f64 = 1024.0;

/// Under-load latencies jitter with scheduler preemption at saturation;
/// a delta only regresses past this absolute slack (ms).
const ABS_SLACK_UNDER_LOAD_MS: f64 = 0.5;

/// A throughput drop only regresses when it also exceeds this many
/// queries per second (tiny ladders at tiny scales are all noise).
const ABS_SLACK_QPS: f64 = 25.0;

/// Peak RSS moves with allocator arena behaviour and thread count; drift
/// below this absolute slack (bytes) is forgiven.
const ABS_SLACK_RSS_BYTES: f64 = 32.0 * 1024.0 * 1024.0;

/// The telemetry-overhead invariant from the soak harness: a
/// telemetry-on closed loop must deliver within this fraction of the
/// telemetry-off throughput on the same corpus (ISSUE 7's ≤3% budget).
pub const OBS_OVERHEAD_MAX: f64 = 0.03;

/// The sampling-profiler overhead budget: running the workload with the
/// in-process sampler attached must cost at most this fraction of the
/// unprofiled throughput (ISSUE 8). The publisher's per-span cost is a
/// handful of relaxed stores on a thread-owned cache line, so the budget
/// mostly bounds sampler-side interference.
pub const PROFILE_OVERHEAD_MAX: f64 = 0.03;

/// Admission ratios are noisy across machines but should be stable for
/// the same corpus seed; drift beyond this absolute slack (in ratio
/// points) flags a MaxScore accounting or bound-quality change.
const ADMISSION_DRIFT_SLACK: f64 = 0.05;

/// The warm-open contract: a sidecar-attested `open_mapped` must be at
/// least this many times faster than the cold (fully verifying) open of
/// the same snapshot — the alternative the sidecars exist to skip. The
/// warm path maps files and checks layouts without streaming a byte, so
/// anything below two orders of magnitude means verification snuck back
/// onto the hot path.
pub const WARM_OPEN_MIN_SPEEDUP: f64 = 100.0;

/// The served-path throughput floor: a closed-loop `rc soak --connect`
/// t1 run against the daemon must deliver at least this fraction of the
/// in-process `rc soak` t1 throughput. The daemon adds only transport,
/// parsing and rendering to the in-process rank call, so a larger gap
/// means per-request work crept onto the served path.
pub const SERVE_QPS_MIN_RATIO: f64 = 0.8;

/// The served-path latency ceiling: the daemon's t1 p50 under load may
/// be at most this many times the in-process t1 p50 under load.
pub const SERVE_P50_MAX_RATIO: f64 = 1.5;

/// One counter-invariant verdict (see [`counter_checks`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterCheck {
    /// Short invariant name.
    pub name: &'static str,
    /// Human-readable evidence (the numbers the verdict came from).
    pub detail: String,
    /// Whether the invariant failed.
    pub failed: bool,
}

/// The MaxScore traversal counters of one snapshot's `metrics` block.
fn traversal_counters(snapshot: &Json) -> Option<(f64, f64, f64)> {
    let counters = snapshot.get("metrics")?.get("counters")?;
    let get = |key: &str| counters.get(key).and_then(Json::as_f64);
    Some((
        get("postings_traversed")?,
        get("maxscore_admitted")?,
        get("maxscore_pruned")?,
    ))
}

/// The block-traversal counters of one snapshot's `metrics` block:
/// `(blocks_total, blocks_decoded, blocks_skipped, postings_skipped)`.
/// `None` for snapshots that predate block compression.
fn block_counters(snapshot: &Json) -> Option<(f64, f64, f64, f64)> {
    let counters = snapshot.get("metrics")?.get("counters")?;
    let get = |key: &str| counters.get(key).and_then(Json::as_f64);
    Some((
        get("blocks_total")?,
        get("blocks_decoded")?,
        get("blocks_skipped")?,
        get("postings_skipped")?,
    ))
}

/// Counter-invariant checks over a snapshot pair, gated alongside the
/// latency keys:
///
/// 1. **Accounting sanity** (each snapshot): every document the MaxScore
///    scorer admits or prunes is discovered either through a traversed
///    posting or as part of a whole skipped block, so `maxscore_admitted +
///    maxscore_pruned` can never exceed `postings_traversed +
///    postings_skipped` (pre-block snapshots carry no `postings_skipped`
///    and reduce to the original `≤ postings_traversed` form). A violation
///    means the counter plumbing drifted from the traversal (e.g. a probe
///    was moved without its twin).
/// 2. **Block accounting** (each snapshot recording block counters): every
///    block the top-k path walks is either decoded or skipped whole —
///    `blocks_decoded + blocks_skipped == blocks_total` — and postings in
///    skipped blocks are a subset of the pruned tally
///    (`postings_skipped ≤ maxscore_pruned`), i.e. they never leak into
///    `postings_traversed`.
/// 3. **Block-max effectiveness** (each snapshot with blocks): a workload
///    that traverses compressed blocks must skip at least one
///    (`blocks_skipped > 0`), otherwise the per-block bounds stopped
///    pruning and the compression is paying decode cost for nothing.
/// 4. **Admission-ratio drift** (baseline vs current): the fraction of
///    touched documents that get fully scored, `admitted / (admitted +
///    pruned)`, is a property of the corpus and the bound quality — not of
///    the machine — so it should be stable run-to-run. Large drift flags a
///    pruning-logic change hiding inside a "pure perf" diff.
///
/// Snapshots without the traversal counters (pre-observability baselines)
/// skip the checks, mirroring how missing latency keys are skipped.
pub fn counter_checks(baseline: &Json, current: &Json) -> Vec<CounterCheck> {
    let mut checks = Vec::new();
    let mut ratios = Vec::new();
    for (label, snap) in [("baseline", baseline), ("current", current)] {
        let Some((traversed, admitted, pruned)) = traversal_counters(snap) else {
            continue;
        };
        let blocks = block_counters(snap);
        let skipped_postings = blocks.map_or(0.0, |(.., postings_skipped)| postings_skipped);
        checks.push(CounterCheck {
            name: "maxscore_accounting",
            detail: format!(
                "{label}: admitted {admitted:.0} + pruned {pruned:.0} vs traversed \
                 {traversed:.0} + skipped {skipped_postings:.0}"
            ),
            failed: admitted + pruned > traversed + skipped_postings,
        });
        if let Some((total, decoded, skipped, postings_skipped)) = blocks {
            checks.push(CounterCheck {
                name: "block_accounting",
                detail: format!(
                    "{label}: decoded {decoded:.0} + skipped {skipped:.0} vs total {total:.0}; \
                     skipped postings {postings_skipped:.0} vs pruned {pruned:.0}"
                ),
                failed: decoded + skipped != total || postings_skipped > pruned,
            });
            if total > 0.0 {
                checks.push(CounterCheck {
                    name: "block_max_skips",
                    detail: format!(
                        "{label}: {skipped:.0} of {total:.0} blocks skipped whole"
                    ),
                    failed: skipped == 0.0,
                });
            }
        }
        if admitted + pruned > 0.0 {
            ratios.push((label, admitted / (admitted + pruned)));
        }
    }
    if let [(_, base), (_, curr)] = ratios.as_slice() {
        checks.push(CounterCheck {
            name: "admission_ratio_drift",
            detail: format!(
                "baseline {:.3} vs current {:.3} (|Δ| {:.3}, slack {ADMISSION_DRIFT_SLACK})",
                base,
                curr,
                (curr - base).abs()
            ),
            failed: (curr - base).abs() > ADMISSION_DRIFT_SLACK,
        });
    }
    checks
}

/// The warm-open speedup invariant, checked per snapshot that records
/// both `warm_open_ms` and `cold_open_ms`: a sidecar-attested open must
/// be at least [`WARM_OPEN_MIN_SPEEDUP`]× faster than the cold open of
/// the same snapshot. Absolute per snapshot, like the overhead budgets;
/// snapshots that predate the mapped layout skip it.
pub fn warm_open_checks(baseline: &Json, current: &Json) -> Vec<CounterCheck> {
    let mut checks = Vec::new();
    for (label, snap) in [("baseline", baseline), ("current", current)] {
        let (Some(warm), Some(cold)) = (
            snap.get("warm_open_ms").and_then(Json::as_f64),
            snap.get("cold_open_ms").and_then(Json::as_f64),
        ) else {
            continue;
        };
        checks.push(CounterCheck {
            name: "warm_open_speedup",
            detail: format!(
                "{label}: warm open {warm:.3} ms vs cold open {cold:.3} ms ({:.0}×, need \
                 ≥{WARM_OPEN_MIN_SPEEDUP:.0}×)",
                if warm > 0.0 { cold / warm } else { f64::INFINITY }
            ),
            // Written so NaN (incomparable) fails rather than passes.
            failed: (warm * WARM_OPEN_MIN_SPEEDUP)
                .partial_cmp(&cold)
                .is_none_or(|ord| ord == std::cmp::Ordering::Greater),
        });
    }
    checks
}

/// The served-versus-in-process invariants, checked per snapshot that
/// records both sides: `serve_qps_t1 ≥` [`SERVE_QPS_MIN_RATIO`]` ×
/// qps_t1` and `serve_p50_under_load_t1_ms ≤` [`SERVE_P50_MAX_RATIO`]` ×
/// p50_under_load_t1_ms`. Absolute per snapshot, like the overhead
/// budgets; snapshots without a `rc soak --connect` run skip them.
///
/// Advisory for now: [`RegressReport::compare`] reports a failed ratio
/// as a warning, not a regression. The daemon still delivers under 0.8×
/// the in-process t1 throughput, so a blocking gate would fail every
/// run; it becomes a counter invariant once that gap is closed.
pub fn serve_ratio_checks(baseline: &Json, current: &Json) -> Vec<CounterCheck> {
    let mut checks = Vec::new();
    for (label, snap) in [("baseline", baseline), ("current", current)] {
        let get = |key: &str| snap.get(key).and_then(Json::as_f64);
        if let (Some(served), Some(local)) = (get("serve_qps_t1"), get("qps_t1")) {
            checks.push(CounterCheck {
                name: "serve_qps_t1_ratio",
                detail: format!(
                    "{label}: served {served:.0} qps vs in-process {local:.0} qps ({:.2}×, need \
                     ≥{SERVE_QPS_MIN_RATIO}×)",
                    served / local
                ),
                // Written so NaN (incomparable) fails rather than passes.
                failed: !matches!(
                    served.partial_cmp(&(SERVE_QPS_MIN_RATIO * local)),
                    Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
                ),
            });
        }
        if let (Some(served), Some(local)) =
            (get("serve_p50_under_load_t1_ms"), get("p50_under_load_t1_ms"))
        {
            checks.push(CounterCheck {
                name: "serve_p50_t1_ratio",
                detail: format!(
                    "{label}: served p50 {served:.3} ms vs in-process {local:.3} ms ({:.2}×, need \
                     ≤{SERVE_P50_MAX_RATIO}×)",
                    served / local
                ),
                failed: !matches!(
                    served.partial_cmp(&(SERVE_P50_MAX_RATIO * local)),
                    Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
                ),
            });
        }
    }
    checks
}

/// The telemetry-overhead invariant, checked per snapshot that records
/// `soak_telemetry_overhead_frac` (written by `rc soak`): the measured
/// throughput cost of running with live telemetry — window sampler,
/// latency histogram, wide-event log — must stay within
/// [`OBS_OVERHEAD_MAX`] of the telemetry-off closed loop. This is an
/// absolute bound, not a baseline-relative one: each snapshot certifies
/// its own measurement. Snapshots that predate the soak harness skip
/// the check, like missing latency keys.
pub fn soak_overhead_checks(baseline: &Json, current: &Json) -> Vec<CounterCheck> {
    let mut checks = Vec::new();
    for (label, snap) in [("baseline", baseline), ("current", current)] {
        let Some(frac) = snap.get("soak_telemetry_overhead_frac").and_then(Json::as_f64)
        else {
            continue;
        };
        checks.push(CounterCheck {
            name: "soak_telemetry_overhead",
            detail: format!(
                "{label}: telemetry-on soak {:.1}% slower than telemetry-off (budget {:.0}%)",
                frac * 100.0,
                OBS_OVERHEAD_MAX * 100.0
            ),
            // Written so NaN (incomparable) fails rather than passes.
            failed: !matches!(
                frac.partial_cmp(&OBS_OVERHEAD_MAX),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            ),
        });
    }
    checks
}

/// The profiler-overhead invariant, checked per snapshot that records
/// `profile_overhead_frac` (written by `rc profile bench`): the workload
/// slowdown with the sampling profiler attached must stay within
/// [`PROFILE_OVERHEAD_MAX`]. Like the telemetry check this is an
/// absolute bound per snapshot, not a baseline-relative diff; snapshots
/// that never ran `rc profile` skip it.
pub fn profile_overhead_checks(baseline: &Json, current: &Json) -> Vec<CounterCheck> {
    let mut checks = Vec::new();
    for (label, snap) in [("baseline", baseline), ("current", current)] {
        let Some(frac) = snap.get("profile_overhead_frac").and_then(Json::as_f64) else {
            continue;
        };
        checks.push(CounterCheck {
            name: "profile_overhead",
            detail: format!(
                "{label}: profiled workload {:.1}% slower than unprofiled (budget {:.0}%)",
                frac * 100.0,
                PROFILE_OVERHEAD_MAX * 100.0
            ),
            // Written so NaN (incomparable) fails rather than passes.
            failed: !matches!(
                frac.partial_cmp(&PROFILE_OVERHEAD_MAX),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            ),
        });
    }
    checks
}

/// One compared key.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyDelta {
    /// The snapshot key.
    pub key: &'static str,
    /// Baseline value (ms; bytes for the [`SIZE_KEYS`]).
    pub baseline: f64,
    /// Current value (ms; bytes for the [`SIZE_KEYS`]).
    pub current: f64,
    /// `(current − baseline) / baseline` (0 when the baseline is 0).
    pub ratio: f64,
    /// Whether this key regressed past the threshold.
    pub regressed: bool,
}

/// The outcome of one baseline/current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressReport {
    /// Relative threshold the comparison ran with.
    pub threshold: f64,
    /// Per-key deltas, [`LATENCY_KEYS`] order then [`SIZE_KEYS`] (missing
    /// keys skipped).
    pub deltas: Vec<KeyDelta>,
    /// Counter-invariant verdicts (empty when the snapshots predate the
    /// traversal counters). See [`counter_checks`] and
    /// [`warm_open_checks`].
    pub counters: Vec<CounterCheck>,
    /// Non-fatal advisories (e.g. a dirty-tree baseline): printed by
    /// [`RegressReport::render`], never part of the verdict.
    pub warnings: Vec<String>,
    /// The baseline's `git_rev`, when the snapshot records one — so a
    /// failure summary can say which tree produced the numbers it is
    /// failing against.
    pub baseline_rev: Option<String>,
    /// Whether the baseline snapshot says it was measured on a dirty
    /// work tree (`git_dirty: true`). `None` when the snapshot predates
    /// the provenance keys.
    pub baseline_dirty: Option<bool>,
}

impl RegressReport {
    /// Compares two parsed snapshots.
    pub fn compare(baseline: &Json, current: &Json, threshold: f64) -> Self {
        let mut deltas = Vec::new();
        for &key in LATENCY_KEYS {
            let (Some(b), Some(c)) = (
                baseline.get(key).and_then(Json::as_f64),
                current.get(key).and_then(Json::as_f64),
            ) else {
                continue;
            };
            let ratio = if b > 0.0 { (c - b) / b } else { 0.0 };
            let regressed = ratio > threshold && (c - b) > ABS_SLACK_MS;
            deltas.push(KeyDelta { key, baseline: b, current: c, ratio, regressed });
        }
        for &key in UNDER_LOAD_LATENCY_KEYS.iter().chain(SERVE_UNDER_LOAD_LATENCY_KEYS) {
            let (Some(b), Some(c)) = (
                baseline.get(key).and_then(Json::as_f64),
                current.get(key).and_then(Json::as_f64),
            ) else {
                continue;
            };
            let ratio = if b > 0.0 { (c - b) / b } else { 0.0 };
            let regressed = ratio > threshold && (c - b) > ABS_SLACK_UNDER_LOAD_MS;
            deltas.push(KeyDelta { key, baseline: b, current: c, ratio, regressed });
        }
        for &key in THROUGHPUT_KEYS.iter().chain(SERVE_THROUGHPUT_KEYS) {
            let (Some(b), Some(c)) = (
                baseline.get(key).and_then(Json::as_f64),
                current.get(key).and_then(Json::as_f64),
            ) else {
                continue;
            };
            // Reversed direction: lower throughput is the regression.
            let ratio = if b > 0.0 { (c - b) / b } else { 0.0 };
            let regressed = -ratio > threshold && (b - c) > ABS_SLACK_QPS;
            deltas.push(KeyDelta { key, baseline: b, current: c, ratio, regressed });
        }
        for &key in SIZE_KEYS {
            let (Some(b), Some(c)) = (
                baseline.get(key).and_then(Json::as_f64),
                current.get(key).and_then(Json::as_f64),
            ) else {
                continue;
            };
            let ratio = if b > 0.0 { (c - b) / b } else { 0.0 };
            let regressed = ratio > threshold && (c - b) > ABS_SLACK_BYTES;
            deltas.push(KeyDelta { key, baseline: b, current: c, ratio, regressed });
        }
        if let (Some(b), Some(c)) = (
            baseline.get("rss_peak_bytes").and_then(Json::as_f64),
            current.get("rss_peak_bytes").and_then(Json::as_f64),
        ) {
            let ratio = if b > 0.0 { (c - b) / b } else { 0.0 };
            let regressed = ratio > threshold && (c - b) > ABS_SLACK_RSS_BYTES;
            deltas.push(KeyDelta { key: "rss_peak_bytes", baseline: b, current: c, ratio, regressed });
        }
        let mut counters = counter_checks(baseline, current);
        counters.extend(warm_open_checks(baseline, current));
        counters.extend(soak_overhead_checks(baseline, current));
        counters.extend(profile_overhead_checks(baseline, current));
        let mut warnings: Vec<String> = serve_ratio_checks(baseline, current)
            .into_iter()
            .filter(|c| c.failed)
            .map(|c| format!("{} out of bounds (advisory, not gated): {}", c.name, c.detail))
            .collect();
        if baseline.get("git_dirty") == Some(&Json::Bool(true)) {
            warnings.push(
                "baseline was measured on a dirty work tree (git_dirty: true); its numbers are \
                 not reproducible from its git_rev — regenerate it from a clean tree"
                    .to_owned(),
            );
        }
        let baseline_rev = match baseline.get("git_rev") {
            Some(Json::Str(rev)) => Some(rev.clone()),
            _ => None,
        };
        let baseline_dirty = match baseline.get("git_dirty") {
            Some(Json::Bool(dirty)) => Some(*dirty),
            _ => None,
        };
        RegressReport { threshold, deltas, counters, warnings, baseline_rev, baseline_dirty }
    }

    /// One-line baseline provenance for failure summaries: which
    /// revision the baseline claims, and whether its tree was dirty —
    /// the first question a failed gate raises ("what am I actually
    /// regressing against?") answered without re-opening the snapshot.
    pub fn provenance(&self) -> String {
        match (&self.baseline_rev, self.baseline_dirty) {
            (Some(rev), Some(true)) => format!("baseline {rev} (DIRTY tree)"),
            (Some(rev), Some(false)) => format!("baseline {rev} (clean tree)"),
            (Some(rev), None) => format!("baseline {rev} (dirtiness unrecorded)"),
            (None, _) => "baseline provenance unrecorded".to_owned(),
        }
    }

    /// Whether any latency key or counter invariant regressed.
    pub fn any_regressed(&self) -> bool {
        self.deltas.iter().any(|d| d.regressed) || self.counters.iter().any(|c| c.failed)
    }

    /// How many latency keys and counter invariants regressed, so the
    /// CLI's collected-failure summary can say "3 regressed" instead of
    /// just "something regressed".
    pub fn regressed_count(&self) -> usize {
        self.deltas.iter().filter(|d| d.regressed).count()
            + self.counters.iter().filter(|c| c.failed).count()
    }

    /// The comparison as an aligned table with a verdict line.
    pub fn render(&self) -> String {
        // Units: ms for the latency keys, bytes for `snapshot_bytes`.
        let mut out = format!(
            "{:<26} {:>12} {:>12} {:>9}  verdict\n",
            "key", "baseline", "current", "delta"
        );
        for d in &self.deltas {
            out.push_str(&format!(
                "{:<26} {:>12.3} {:>12.3} {:>+8.1}%  {}\n",
                d.key,
                d.baseline,
                d.current,
                d.ratio * 100.0,
                if d.regressed { "REGRESSED" } else { "ok" },
            ));
        }
        for w in &self.warnings {
            out.push_str(&format!("warning: {w}\n"));
        }
        if !self.counters.is_empty() {
            out.push_str("counter invariants:\n");
            for c in &self.counters {
                out.push_str(&format!(
                    "  {:<24} {}  {}\n",
                    c.name,
                    c.detail,
                    if c.failed { "VIOLATED" } else { "ok" },
                ));
            }
        }
        if self.any_regressed() {
            out.push_str(&format!(
                "FAIL: regression beyond {:.0}% threshold or counter-invariant violation\n",
                self.threshold * 100.0
            ));
        } else {
            out.push_str(&format!(
                "OK: all keys within {:.0}% of baseline\n",
                self.threshold * 100.0
            ));
        }
        out
    }
}

/// Validates Chrome trace-event JSON (`rc trace --check`): the document
/// must parse, carry a non-empty `traceEvents` array, and every event must
/// be an object with the `ph`/`pid`/`name` members chrome://tracing and
/// Perfetto key on. Returns the event count.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("missing \"traceEvents\" array".into());
    };
    if events.is_empty() {
        return Err("\"traceEvents\" is empty".into());
    }
    for (i, event) in events.iter().enumerate() {
        if !matches!(event, Json::Obj(_)) {
            return Err(format!("traceEvents[{i}] is not an object"));
        }
        for key in ["ph", "pid", "name"] {
            if event.get(key).is_none() {
                return Err(format!("traceEvents[{i}] is missing {key:?}"));
            }
        }
    }
    Ok(events.len())
}

/// Reads and compares two snapshot files.
pub fn compare_files(
    baseline: &std::path::Path,
    current: &std::path::Path,
    threshold: f64,
) -> Result<RegressReport, String> {
    let read = |path: &std::path::Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    Ok(RegressReport::compare(&read(baseline)?, &read(current)?, threshold))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json("true").unwrap(), Json::Bool(true));
        assert_eq!(parse_json(" false ").unwrap(), Json::Bool(false));
        assert_eq!(parse_json("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse_json("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(parse_json(r#""hi""#).unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        assert_eq!(
            parse_json(r#""a\"b\\c\ndé""#).unwrap(),
            Json::Str("a\"b\\c\ndé".into())
        );
        assert_eq!(parse_json(r#""naïve""#).unwrap(), Json::Str("naïve".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse_json(r#"{"a": [1, 2, {"b": true}], "c": {"d": null}}"#).unwrap();
        let a = doc.get("a").unwrap();
        assert_eq!(a, &Json::Arr(vec![
            Json::Num(1.0),
            Json::Num(2.0),
            Json::Obj([("b".to_string(), Json::Bool(true))].into_iter().collect()),
        ]));
        assert_eq!(doc.get("c").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(parse_json("{}").unwrap(), Json::Obj(BTreeMap::new()));
        assert_eq!(parse_json("[]").unwrap(), Json::Arr(vec![]));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", r#"{"a" 1}"#, "tru", "1 2", r#""open"#] {
            assert!(parse_json(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn parses_a_real_bench_snapshot() {
        let report = crate::report::BenchReport {
            scale: "tiny".into(),
            git_rev: "abc1234".into(),
            git_dirty: false,
            threads: 4,
            unix_time: 1_700_000_000,
            generate_ms: 10.0,
            analyze_ms: 900.0,
            cold_build_ms: 910.0,
            snapshot_load_ms: 45.0,
            snapshot_bytes: 987_654,
            shard_count: 4,
            manifest_bytes: 4_096,
            warm_open_ms: 0.2,
            cold_open_ms: 35.0,
            mapped_bytes: 800_000,
            retained_docs: 100,
            queries: 30,
            query_p50_ms: 1.0,
            query_p99_ms: 2.0,
            queries_per_sec: 500.0,
            blocks_skipped_frac: 0.4,
            alpha_points: 11,
            alpha_sweep_naive_ms: 300.0,
            alpha_sweep_factored_ms: 60.0,
            alpha_sweep_speedup: 5.0,
            flight: rightcrowd_obs::FlightSummary::default(),
            rss_peak_bytes: Some(64 << 20),
            build_metrics: rightcrowd_obs::snapshot(),
            metrics: rightcrowd_obs::snapshot(),
        };
        let doc = parse_json(&report.to_json()).unwrap();
        assert_eq!(doc.get("query_p50_ms").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("git_dirty"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("snapshot_load_ms").and_then(Json::as_f64), Some(45.0));
        assert_eq!(doc.get("shard_count").and_then(Json::as_f64), Some(4.0));
        assert_eq!(doc.get("snapshot_bytes").and_then(Json::as_f64), Some(987_654.0));
        assert_eq!(doc.get("manifest_bytes").and_then(Json::as_f64), Some(4_096.0));
        assert_eq!(doc.get("warm_open_ms").and_then(Json::as_f64), Some(0.2));
        assert_eq!(doc.get("cold_open_ms").and_then(Json::as_f64), Some(35.0));
        assert_eq!(doc.get("mapped_bytes").and_then(Json::as_f64), Some(800_000.0));
        assert_eq!(doc.get("blocks_skipped_frac").and_then(Json::as_f64), Some(0.4));
        assert!(doc.get("metrics").and_then(|m| m.get("counters")).is_some());
    }

    fn snap(p50: f64, p99: f64) -> Json {
        snap_sized(p50, p99, 1_000_000)
    }

    fn snap_sized(p50: f64, p99: f64, bytes: u64) -> Json {
        parse_json(&format!(
            r#"{{"generate_ms": 10.0, "analyze_ms": 1000.0, "cold_build_ms": 1010.0,
                "snapshot_load_ms": 50.0, "snapshot_bytes": {bytes},
                "warm_open_ms": 0.2, "cold_open_ms": 35.0,
                "query_p50_ms": {p50},
                "query_p99_ms": {p99}, "alpha_sweep_naive_ms": 300.0,
                "alpha_sweep_factored_ms": 60.0}}"#
        ))
        .unwrap()
    }

    #[test]
    fn unchanged_snapshots_pass() {
        let r = RegressReport::compare(&snap(1.0, 2.0), &snap(1.0, 2.0), 0.2);
        // Every latency key plus the snapshot-size gate.
        assert_eq!(r.deltas.len(), LATENCY_KEYS.len() + 1);
        assert!(!r.any_regressed());
        assert!(r.render().contains("OK:"));
    }

    #[test]
    fn snapshot_size_growth_fails() {
        // +50% and far beyond the byte slack: the container got fatter.
        let r =
            RegressReport::compare(&snap_sized(1.0, 2.0, 1_000_000), &snap_sized(1.0, 2.0, 1_500_000), 0.2);
        assert!(r.any_regressed());
        let d = r.deltas.iter().find(|d| d.key == "snapshot_bytes").unwrap();
        assert!(d.regressed);
        assert!((d.ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_size_slack_and_shrink_pass() {
        // Growth within the absolute byte slack is forgiven even when the
        // relative threshold trips (tiny baseline), and shrinking is never
        // a regression.
        let r = RegressReport::compare(&snap_sized(1.0, 2.0, 1_000), &snap_sized(1.0, 2.0, 1_900), 0.2);
        assert!(!r.deltas.iter().find(|d| d.key == "snapshot_bytes").unwrap().regressed);
        let r =
            RegressReport::compare(&snap_sized(1.0, 2.0, 2_000_000), &snap_sized(1.0, 2.0, 1_000_000), 0.2);
        assert!(!r.any_regressed());
    }

    #[test]
    fn snapshot_load_regression_fails() {
        let mut slow = snap(1.0, 2.0);
        if let Json::Obj(m) = &mut slow {
            m.insert("snapshot_load_ms".into(), Json::Num(90.0));
        }
        let r = RegressReport::compare(&snap(1.0, 2.0), &slow, 0.2);
        assert!(r.any_regressed());
        let d = r.deltas.iter().find(|d| d.key == "snapshot_load_ms").unwrap();
        assert!(d.regressed);
    }

    #[test]
    fn large_regression_fails() {
        let r = RegressReport::compare(&snap(1.0, 2.0), &snap(1.5, 2.0), 0.2);
        assert!(r.any_regressed());
        let d = r.deltas.iter().find(|d| d.key == "query_p50_ms").unwrap();
        assert!(d.regressed);
        assert!((d.ratio - 0.5).abs() < 1e-12);
        assert!(r.render().contains("REGRESSED"));
        assert!(r.render().contains("FAIL:"));
    }

    #[test]
    fn improvement_is_never_a_regression() {
        let r = RegressReport::compare(&snap(2.0, 4.0), &snap(1.0, 2.0), 0.2);
        assert!(!r.any_regressed());
    }

    #[test]
    fn absolute_slack_forgives_tiny_jitter() {
        // +50% relative but only +0.02 ms absolute: not a regression.
        let r = RegressReport::compare(&snap(0.04, 2.0), &snap(0.06, 2.0), 0.2);
        assert!(!r.any_regressed());
    }

    #[test]
    fn missing_keys_are_skipped() {
        let partial = parse_json(r#"{"query_p50_ms": 1.0}"#).unwrap();
        let r = RegressReport::compare(&partial, &snap(1.0, 2.0), 0.2);
        assert_eq!(r.deltas.len(), 1);
        assert_eq!(r.deltas[0].key, "query_p50_ms");
    }

    /// A minimal snapshot carrying only soak-harness keys.
    fn soak_snap(qps_t1: f64, p99_t1: f64, overhead: f64, rss: u64) -> Json {
        parse_json(&format!(
            r#"{{"qps_t1": {qps_t1}, "qps_t4": {q4}, "p99_under_load_t1_ms": {p99_t1},
                "p50_under_load_t1_ms": {p50}, "soak_telemetry_overhead_frac": {overhead},
                "rss_peak_bytes": {rss}}}"#,
            q4 = qps_t1 * 3.0,
            p50 = p99_t1 / 4.0,
        ))
        .unwrap()
    }

    #[test]
    fn soak_keys_gate_in_both_directions() {
        let base = soak_snap(2000.0, 4.0, 0.01, 200 << 20);
        // Unchanged: everything ok, overhead within budget on both sides.
        let r = RegressReport::compare(&base, &base.clone(), 0.2);
        assert!(!r.any_regressed());
        assert!(r.deltas.iter().any(|d| d.key == "qps_t1"));
        assert!(r.deltas.iter().any(|d| d.key == "p99_under_load_t1_ms"));
        assert!(r.deltas.iter().any(|d| d.key == "rss_peak_bytes"));
        assert_eq!(
            r.counters.iter().filter(|c| c.name == "soak_telemetry_overhead").count(),
            2
        );

        // Throughput collapse regresses (reversed direction)…
        let slow = soak_snap(1200.0, 4.0, 0.01, 200 << 20);
        let r = RegressReport::compare(&base, &slow, 0.2);
        assert!(r.deltas.iter().find(|d| d.key == "qps_t1").unwrap().regressed);
        // …but a throughput *gain* never does, even a huge one.
        let fast = soak_snap(9000.0, 4.0, 0.01, 200 << 20);
        assert!(!RegressReport::compare(&base, &fast, 0.2).any_regressed());
        // A drop inside the absolute qps slack is noise, not a regression.
        let tiny_base = soak_snap(40.0, 4.0, 0.01, 200 << 20);
        let tiny_drop = soak_snap(20.0, 4.0, 0.01, 200 << 20);
        let r = RegressReport::compare(&tiny_base, &tiny_drop, 0.2);
        assert!(!r.deltas.iter().find(|d| d.key == "qps_t1").unwrap().regressed);

        // Under-load latency regresses past threshold + 0.5 ms slack…
        let laggy = soak_snap(2000.0, 8.0, 0.01, 200 << 20);
        let r = RegressReport::compare(&base, &laggy, 0.2);
        assert!(r.deltas.iter().find(|d| d.key == "p99_under_load_t1_ms").unwrap().regressed);
        // …while sub-slack jitter passes.
        let jitter = soak_snap(2000.0, 4.3, 0.01, 200 << 20);
        assert!(!RegressReport::compare(&base, &jitter, 0.2).any_regressed());
    }

    /// A minimal snapshot carrying only `rc soak --connect` keys.
    fn serve_snap(qps_t1: f64, p99_t1: f64) -> Json {
        parse_json(&format!(
            r#"{{"serve_qps_t1": {qps_t1}, "serve_qps_t4": {q4},
                "serve_p50_under_load_t1_ms": {p50},
                "serve_p99_under_load_t1_ms": {p99_t1}}}"#,
            q4 = qps_t1 * 3.0,
            p50 = p99_t1 / 4.0,
        ))
        .unwrap()
    }

    #[test]
    fn serve_keys_gate_with_the_soak_slack_rules() {
        let base = serve_snap(1500.0, 6.0);
        let r = RegressReport::compare(&base, &base.clone(), 0.2);
        assert!(!r.any_regressed());
        assert!(r.deltas.iter().any(|d| d.key == "serve_qps_t1"));
        assert!(r.deltas.iter().any(|d| d.key == "serve_p99_under_load_t1_ms"));

        // Served throughput collapse regresses (reversed direction)…
        let slow = serve_snap(900.0, 6.0);
        let r = RegressReport::compare(&base, &slow, 0.2);
        assert!(r.deltas.iter().find(|d| d.key == "serve_qps_t1").unwrap().regressed);
        // …a gain never does…
        assert!(!RegressReport::compare(&base, &serve_snap(5000.0, 6.0), 0.2).any_regressed());
        // …and a drop inside the absolute qps slack is noise.
        let r = RegressReport::compare(&serve_snap(40.0, 6.0), &serve_snap(20.0, 6.0), 0.2);
        assert!(!r.deltas.iter().find(|d| d.key == "serve_qps_t1").unwrap().regressed);

        // Round-trip latency past threshold + 0.5 ms slack regresses;
        // sub-slack jitter passes.
        let laggy = serve_snap(1500.0, 12.0);
        let r = RegressReport::compare(&base, &laggy, 0.2);
        assert!(r
            .deltas
            .iter()
            .find(|d| d.key == "serve_p99_under_load_t1_ms")
            .unwrap()
            .regressed);
        assert!(!RegressReport::compare(&base, &serve_snap(1500.0, 6.4), 0.2).any_regressed());
    }

    /// A snapshot carrying the t1 keys of both soaks: in-process and served.
    fn both_soaks(qps_t1: f64, p50_t1: f64, serve_qps_t1: f64, serve_p50_t1: f64) -> Json {
        parse_json(&format!(
            r#"{{"qps_t1": {qps_t1}, "p50_under_load_t1_ms": {p50_t1},
                "serve_qps_t1": {serve_qps_t1}, "serve_p50_under_load_t1_ms": {serve_p50_t1}}}"#
        ))
        .unwrap()
    }

    fn ratio_check(baseline: &Json, current: &Json, name: &str) -> Vec<CounterCheck> {
        serve_ratio_checks(baseline, current).into_iter().filter(|c| c.name == name).collect()
    }

    #[test]
    fn served_keys_are_checked_against_the_in_process_soak() {
        // Within both ratios (and exactly on them): passes, once per snapshot.
        let good = both_soaks(2000.0, 0.4, 1700.0, 0.5);
        let edge = both_soaks(2000.0, 0.4, 1600.0, 0.6);
        let checks = serve_ratio_checks(&good, &edge);
        assert_eq!(checks.len(), 4);
        assert!(checks.iter().all(|c| !c.failed), "{checks:?}");

        // The daemon under 0.8× the in-process throughput fails, even
        // when the baseline carries the same numbers (no baseline slack).
        let slow = both_soaks(2000.0, 0.4, 1500.0, 0.5);
        assert!(ratio_check(&slow, &slow, "serve_qps_t1_ratio").iter().all(|c| c.failed));
        assert!(ratio_check(&slow, &slow, "serve_p50_t1_ratio").iter().all(|c| !c.failed));

        // A served p50 over 1.5× the in-process p50 fails.
        let laggy = both_soaks(2000.0, 0.4, 1700.0, 0.7);
        let p50 = ratio_check(&good, &laggy, "serve_p50_t1_ratio");
        assert!(!p50[0].failed && p50[1].failed, "{p50:?}");

        // NaN is incomparable and fails; a snapshot missing either side
        // of a pair skips that check.
        let mut broken = good.clone();
        broken.set("serve_qps_t1", Json::Num(f64::NAN));
        assert!(ratio_check(&good, &broken, "serve_qps_t1_ratio")[1].failed);
        assert!(serve_ratio_checks(&serve_snap(1500.0, 6.0), &serve_snap(1500.0, 6.0)).is_empty());

        // Advisory: a failed ratio is reported as a warning naming the
        // measured ratio, never as a regression.
        let r = RegressReport::compare(&good, &laggy, 0.2);
        assert!(!r.any_regressed(), "{}", r.render());
        assert!(r.counters.iter().all(|c| !c.name.starts_with("serve_")));
        let warned: Vec<_> = r.warnings.iter().filter(|w| w.starts_with("serve_")).collect();
        assert_eq!(warned.len(), 1, "{warned:?}");
        assert!(warned[0].contains("serve_p50_t1_ratio") && warned[0].contains("1.75×"));
        let r = RegressReport::compare(&good, &edge, 0.2);
        assert!(r.warnings.iter().all(|w| !w.starts_with("serve_")));
    }

    #[test]
    fn provenance_reports_the_baseline_rev_and_dirtiness() {
        let clean = parse_json(r#"{"git_rev": "abc1234", "git_dirty": false}"#).unwrap();
        let none = parse_json("{}").unwrap();
        let r = RegressReport::compare(&clean, &none, 0.2);
        assert_eq!(r.baseline_rev.as_deref(), Some("abc1234"));
        assert_eq!(r.baseline_dirty, Some(false));
        assert_eq!(r.provenance(), "baseline abc1234 (clean tree)");

        let dirty = parse_json(r#"{"git_rev": "abc1234", "git_dirty": true}"#).unwrap();
        let r = RegressReport::compare(&dirty, &none, 0.2);
        assert_eq!(r.provenance(), "baseline abc1234 (DIRTY tree)");

        let old = parse_json(r#"{"git_rev": "abc1234"}"#).unwrap();
        let r = RegressReport::compare(&old, &none, 0.2);
        assert_eq!(r.provenance(), "baseline abc1234 (dirtiness unrecorded)");

        let r = RegressReport::compare(&none, &none, 0.2);
        assert_eq!(r.baseline_rev, None);
        assert_eq!(r.provenance(), "baseline provenance unrecorded");
    }

    #[test]
    fn rss_peak_gates_with_its_own_slack() {
        let base = soak_snap(2000.0, 4.0, 0.01, 256 << 20);
        // +50% and way past 32 MiB: a real footprint regression.
        let fat = soak_snap(2000.0, 4.0, 0.01, 384 << 20);
        let r = RegressReport::compare(&base, &fat, 0.2);
        assert!(r.deltas.iter().find(|d| d.key == "rss_peak_bytes").unwrap().regressed);
        // +50% of a tiny footprint stays under the absolute slack.
        let small = soak_snap(2000.0, 4.0, 0.01, 20 << 20);
        let small_fat = soak_snap(2000.0, 4.0, 0.01, 30 << 20);
        assert!(!RegressReport::compare(&small, &small_fat, 0.2).any_regressed());
    }

    #[test]
    fn telemetry_overhead_past_budget_fails() {
        let base = soak_snap(2000.0, 4.0, 0.01, 200 << 20);
        let costly = soak_snap(2000.0, 4.0, 0.08, 200 << 20);
        let r = RegressReport::compare(&base, &costly, 0.2);
        assert!(r.any_regressed());
        let check = r
            .counters
            .iter()
            .find(|c| c.name == "soak_telemetry_overhead" && c.failed)
            .expect("the current snapshot's overhead check must fail");
        assert!(check.detail.contains("current"), "{}", check.detail);
        // NaN must not sneak past the budget comparison.
        let nan = parse_json(r#"{"soak_telemetry_overhead_frac": 1e999}"#).unwrap();
        let r = RegressReport::compare(&base, &nan, 0.2);
        assert!(r.counters.iter().any(|c| c.name == "soak_telemetry_overhead" && c.failed));
    }

    #[test]
    fn profile_overhead_past_budget_fails() {
        let base = parse_json(r#"{"profile_overhead_frac": 0.005}"#).unwrap();
        let r = RegressReport::compare(&base, &base.clone(), 0.2);
        assert_eq!(r.counters.iter().filter(|c| c.name == "profile_overhead").count(), 2);
        assert!(!r.any_regressed());

        let costly = parse_json(r#"{"profile_overhead_frac": 0.09}"#).unwrap();
        let r = RegressReport::compare(&base, &costly, 0.2);
        assert!(r.any_regressed());
        let check = r
            .counters
            .iter()
            .find(|c| c.name == "profile_overhead" && c.failed)
            .expect("the current snapshot's overhead check must fail");
        assert!(check.detail.contains("current"), "{}", check.detail);
        // NaN must not sneak past the budget comparison.
        let nan = parse_json(r#"{"profile_overhead_frac": 1e999}"#).unwrap();
        let r = RegressReport::compare(&base, &nan, 0.2);
        assert!(r.counters.iter().any(|c| c.name == "profile_overhead" && c.failed));
        // Snapshots that never ran `rc profile` skip the check entirely.
        let r = RegressReport::compare(&snap(1.0, 2.0), &snap(1.0, 2.0), 0.2);
        assert!(r.counters.iter().all(|c| c.name != "profile_overhead"));
    }

    #[test]
    fn render_round_trips_through_parse() {
        let text = r#"{
  "arr": [1, 2.5, "x"],
  "b": true,
  "empty_arr": [],
  "empty_obj": {},
  "nested": {"k": null, "needs\tescape": "a\"b\\c\nd"},
  "num": 42,
  "wide": 9007199254740991
}"#;
        let doc = parse_json(text).unwrap();
        let rendered = doc.render();
        assert_eq!(parse_json(&rendered).unwrap(), doc, "{rendered}");
        // Integers survive verbatim (no trailing `.0`), floats keep value.
        assert!(rendered.contains("\"num\": 42"), "{rendered}");
        assert!(rendered.contains("9007199254740991"), "{rendered}");
        assert!(rendered.contains("2.5"), "{rendered}");
        // And a second round trip is a fixed point.
        assert_eq!(parse_json(&rendered).unwrap().render(), rendered);
    }

    #[test]
    fn set_inserts_and_replaces_members() {
        let mut doc = parse_json(r#"{"a": 1}"#).unwrap();
        doc.set("b", Json::Num(2.0));
        doc.set("a", Json::Str("replaced".into()));
        assert_eq!(doc.get("b").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("a"), Some(&Json::Str("replaced".into())));
        // No-op on non-objects.
        let mut arr = Json::Arr(vec![]);
        arr.set("x", Json::Null);
        assert_eq!(arr, Json::Arr(vec![]));
    }

    /// A minimal snapshot carrying only the traversal counters.
    fn counter_snap(traversed: u64, admitted: u64, pruned: u64) -> Json {
        parse_json(&format!(
            r#"{{"metrics": {{"counters": {{"postings_traversed": {traversed},
                "maxscore_admitted": {admitted}, "maxscore_pruned": {pruned}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn validates_chrome_traces() {
        // A real export: synthetic snapshot + one flight record.
        let snap = rightcrowd_obs::MetricsSnapshot {
            counters: vec![],
            histograms: vec![],
            spans: vec![(
                "corpus.build".to_string(),
                rightcrowd_obs::SpanStat { calls: 1, total_ns: 5_000_000, child_ns: 0 },
            )],
        };
        let record = rightcrowd_obs::QueryRecord {
            query_id: 1,
            label: "q".into(),
            latency_ns: 1_000_000,
            ..Default::default()
        };
        let trace = rightcrowd_obs::chrome_trace_json(&snap, &[record]);
        let events = validate_chrome_trace(&trace).expect("exported trace must validate");
        assert!(events >= 2, "span + flight events expected, got {events}");

        // Rejections: garbage, wrong shape, empty, malformed events.
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents": []}"#).is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents": [1]}"#).is_err());
        assert!(
            validate_chrome_trace(r#"{"traceEvents": [{"ph": "X", "pid": 1}]}"#).is_err(),
            "events without a name must fail"
        );
        assert!(validate_chrome_trace(
            r#"{"traceEvents": [{"ph": "X", "pid": 1, "name": "a"}]}"#
        )
        .is_ok());
    }

    #[test]
    fn stable_counters_pass_the_invariants() {
        let base = counter_snap(1000, 300, 500);
        let curr = counter_snap(2000, 610, 990);
        let r = RegressReport::compare(&base, &curr, 0.2);
        assert_eq!(r.counters.len(), 3, "two accounting checks + one drift check");
        assert!(!r.any_regressed());
        assert!(r.render().contains("counter invariants:"));
        assert!(r.render().contains("admission_ratio_drift"));
    }

    #[test]
    fn accounting_violation_fails() {
        // admitted + pruned > traversed: impossible for a real traversal.
        let bad = counter_snap(100, 80, 40);
        let r = RegressReport::compare(&counter_snap(1000, 300, 500), &bad, 0.2);
        assert!(r.any_regressed());
        let check = r.counters.iter().find(|c| c.failed).unwrap();
        assert_eq!(check.name, "maxscore_accounting");
        assert!(r.render().contains("VIOLATED"));
        assert!(r.render().contains("FAIL:"));
    }

    #[test]
    fn admission_ratio_drift_fails() {
        // Same accounting sanity, but the admitted fraction moves from
        // 0.375 to 0.8 — far beyond the drift slack.
        let base = counter_snap(1000, 300, 500);
        let curr = counter_snap(1000, 640, 160);
        let r = RegressReport::compare(&base, &curr, 0.2);
        assert!(r.any_regressed());
        let check = r.counters.iter().find(|c| c.failed).unwrap();
        assert_eq!(check.name, "admission_ratio_drift");
    }

    /// A snapshot carrying the full traversal + block counter set.
    #[allow(clippy::too_many_arguments)]
    fn block_snap(
        traversed: u64,
        admitted: u64,
        pruned: u64,
        total: u64,
        decoded: u64,
        skipped: u64,
        postings_skipped: u64,
    ) -> Json {
        parse_json(&format!(
            r#"{{"metrics": {{"counters": {{"postings_traversed": {traversed},
                "maxscore_admitted": {admitted}, "maxscore_pruned": {pruned},
                "blocks_total": {total}, "blocks_decoded": {decoded},
                "blocks_skipped": {skipped}, "postings_skipped": {postings_skipped}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn block_counters_pass_the_invariants() {
        // 40 of 100 blocks skipped whole; their 400 postings are pruned
        // without being traversed, so admitted + pruned exceeds traversed
        // by exactly the skipped tally.
        let snap = block_snap(1000, 300, 900, 100, 60, 40, 400);
        let r = RegressReport::compare(&snap, &snap, 0.2);
        assert!(!r.any_regressed(), "{}", r.render());
        for name in ["maxscore_accounting", "block_accounting", "block_max_skips"] {
            assert!(r.counters.iter().any(|c| c.name == name), "missing {name}");
        }
    }

    #[test]
    fn block_accounting_violation_fails() {
        // decoded + skipped ≠ total: a block fell through both paths.
        let bad = block_snap(1000, 300, 900, 100, 60, 30, 400);
        let r = RegressReport::compare(&block_snap(1000, 300, 900, 100, 60, 40, 400), &bad, 0.2);
        assert!(r.any_regressed());
        let failed = r.counters.iter().find(|c| c.failed).unwrap();
        assert_eq!(failed.name, "block_accounting");
    }

    #[test]
    fn skipped_postings_leaking_past_pruned_fails() {
        // postings_skipped > maxscore_pruned: skipped-block postings must
        // be a subset of the pruned tally.
        let bad = block_snap(1000, 300, 200, 100, 60, 40, 400);
        let r = RegressReport::compare(&bad, &bad, 0.2);
        assert!(r.counters.iter().any(|c| c.failed && c.name == "block_accounting"));
    }

    #[test]
    fn zero_blocks_skipped_fails_when_blocks_were_traversed() {
        let lazy = block_snap(1000, 300, 500, 100, 100, 0, 0);
        let r = RegressReport::compare(&lazy, &lazy, 0.2);
        let failed: Vec<_> = r.counters.iter().filter(|c| c.failed).collect();
        assert!(failed.iter().all(|c| c.name == "block_max_skips"), "{:?}", failed);
        assert!(!failed.is_empty());
        // A run that traversed no blocks (blocks_total == 0) skips the
        // gate entirely.
        let flat = block_snap(1000, 300, 500, 0, 0, 0, 0);
        let r = RegressReport::compare(&flat, &flat, 0.2);
        assert!(!r.any_regressed(), "{}", r.render());
        assert!(r.counters.iter().all(|c| c.name != "block_max_skips"));
    }

    #[test]
    fn warm_open_speedup_gate() {
        // snap() records warm 0.2 ms vs cold 35 ms: 175×, passes.
        let r = RegressReport::compare(&snap(1.0, 2.0), &snap(1.0, 2.0), 0.2);
        let checks: Vec<_> = r.counters.iter().filter(|c| c.name == "warm_open_speedup").collect();
        assert_eq!(checks.len(), 2, "one verdict per snapshot");
        assert!(checks.iter().all(|c| !c.failed));
        assert!(r.render().contains("warm_open_speedup"));
        // A warm open within two orders of magnitude of the cold one
        // fails its snapshot (35×).
        let mut curr = snap(1.0, 2.0);
        if let Json::Obj(m) = &mut curr {
            m.insert("warm_open_ms".into(), Json::Num(1.0));
        }
        let r = RegressReport::compare(&snap(1.0, 2.0), &curr, 0.2);
        let failed: Vec<_> =
            r.counters.iter().filter(|c| c.name == "warm_open_speedup" && c.failed).collect();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].detail.contains("current"), "{}", failed[0].detail);
        assert!(r.any_regressed());
        // NaN (an incomparable reading) fails rather than passes.
        let mut nan = snap(1.0, 2.0);
        if let Json::Obj(m) = &mut nan {
            m.insert("cold_open_ms".into(), Json::Num(f64::NAN));
        }
        let r = RegressReport::compare(&snap(1.0, 2.0), &nan, 0.2);
        assert!(r.counters.iter().any(|c| c.name == "warm_open_speedup" && c.failed));
        // Snapshots that predate the mapped layout skip the gate.
        let old = parse_json(r#"{"snapshot_load_ms": 40.0}"#).unwrap();
        let r = RegressReport::compare(&old, &old, 0.2);
        assert!(r.counters.iter().all(|c| c.name != "warm_open_speedup"));
    }

    #[test]
    fn mapped_and_manifest_sizes_are_gated() {
        let sized = |mapped: u64, manifest: u64| {
            parse_json(&format!(r#"{{"mapped_bytes": {mapped}, "manifest_bytes": {manifest}}}"#))
                .unwrap()
        };
        let r = RegressReport::compare(&sized(1_000_000, 500_000), &sized(1_400_000, 500_000), 0.2);
        assert!(r.deltas.iter().any(|d| d.key == "mapped_bytes" && d.regressed));
        let r = RegressReport::compare(&sized(1_000_000, 500_000), &sized(1_000_000, 900_000), 0.2);
        assert!(r.deltas.iter().any(|d| d.key == "manifest_bytes" && d.regressed));
        let r = RegressReport::compare(&sized(1_000_000, 500_000), &sized(900_000, 400_000), 0.2);
        assert!(!r.any_regressed());
    }

    #[test]
    fn snapshots_without_counters_skip_the_checks() {
        // Pre-observability snapshots carry no metrics block: no traversal
        // checks, no failure — mirroring the missing-latency-key
        // behaviour. (The warm-open gate still runs; it keys on the open
        // timings, not the metrics block.)
        let traversal =
            |c: &&CounterCheck| c.name == "maxscore_accounting" || c.name == "admission_ratio_drift";
        let r = RegressReport::compare(&snap(1.0, 2.0), &snap(1.0, 2.0), 0.2);
        assert!(!r.counters.iter().any(|c| traversal(&c)));
        // One-sided counters run the sanity check but cannot diff ratios.
        let r = RegressReport::compare(&snap(1.0, 2.0), &counter_snap(10, 4, 4), 0.2);
        let checks: Vec<_> = r.counters.iter().filter(traversal).collect();
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].name, "maxscore_accounting");
    }

    #[test]
    fn dirty_baseline_warns_but_never_fails() {
        let dirty = parse_json(r#"{"git_dirty": true, "query_p50_ms": 1.0}"#).unwrap();
        let clean = parse_json(r#"{"git_dirty": false, "query_p50_ms": 1.0}"#).unwrap();
        let r = RegressReport::compare(&dirty, &clean, 0.2);
        assert_eq!(r.warnings.len(), 1);
        assert!(r.warnings[0].contains("dirty work tree"), "{}", r.warnings[0]);
        assert!(!r.any_regressed(), "a warning must not flip the verdict");
        assert!(r.render().contains("warning: baseline was measured on a dirty work tree"));
        // A dirty *current* run is the developer's own uncommitted work in
        // flight — expected, not warned; and a clean baseline stays quiet.
        let r = RegressReport::compare(&clean, &dirty, 0.2);
        assert!(r.warnings.is_empty());
        assert!(!r.render().contains("warning:"));
    }

    #[test]
    fn compare_files_roundtrip() {
        let dir = std::env::temp_dir().join("rc-regress-test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let curr = dir.join("curr.json");
        std::fs::write(&base, r#"{"query_p50_ms": 1.0}"#).unwrap();
        std::fs::write(&curr, r#"{"query_p50_ms": 1.1}"#).unwrap();
        let r = compare_files(&base, &curr, 0.2).unwrap();
        assert!(!r.any_regressed());
        assert!(compare_files(&dir.join("missing.json"), &curr, 0.2).is_err());
    }
}
