//! # rightcrowd-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (§3), each printing the paper's reported values next to the
//! values measured on the synthetic reproduction. The experiment bodies
//! live in [`experiments`] as functions over a shared [`Bench`], so
//! `exp_all` runs the full suite against **one** dataset build.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `exp_dataset`  | Fig. 5a (resources/users per network & distance), Fig. 5b (experts per domain) |
//! | `exp_window`   | Fig. 6 (metrics vs. window size, distances 1–2) |
//! | `exp_alpha`    | Fig. 7 (metrics vs. α, distances 0–2) — factored single-traversal sweep |
//! | `exp_friends`  | Table 2 + Fig. 8 (Twitter friends on/off) |
//! | `exp_distance` | Table 3 + Fig. 9 (All/FB/TW/LI × distance) |
//! | `exp_domains`  | Table 4 (per-domain breakdown) |
//! | `exp_users`    | Fig. 10 (per-user F1 vs. available resources) |
//! | `exp_delta`    | Fig. 11 (retrieved-expert deltas per query) |
//! | `exp_ablation` | design-choice ablations (weights, normalisation, enrichment, voting, location policy) |
//! | `exp_rankers`  | retrieval (VSM vs. BM25) × fusion (Eq. 3 vs. voting models) comparison |
//! | `exp_all`      | everything above, in order, sharing one in-process [`Bench`] |
//! | `rc`           | interactive CLI: `rc query`, `rc explain`, `rc eval`, `rc stats`, `rc bench`, `rc save`, `rc load`, `rc flight`, `rc trace`, `rc metrics`, `rc regress`, `rc soak`, `rc profile`, `rc spans` |
//!
//! `rc bench` measures the retrieval hot path (per-query latency, the
//! factored-vs-naive α-sweep speedup) and writes a `BENCH_<scale>.json`
//! snapshot — see [`report`]. Since the observability layer landed the
//! snapshot also embeds a `metrics` member (counters, histograms, span
//! timings from [`rightcrowd_obs`]) and a `flight` member (the query
//! flight-recorder aggregate — the latency loop runs with recording on,
//! so the snapshot certifies the recorder's overhead); `rc metrics`
//! prints the same registry after a workload run, and `rc regress` diffs
//! two snapshots, failing on latency regressions past a threshold and on
//! traversal counter-invariant violations — see [`regress`]. `rc explain`
//! prints the per-resource score decomposition of a query ([`explain_fmt`]),
//! `rc flight` tails the flight recorder, and `rc trace --chrome` exports
//! spans + flight records as Chrome trace-event JSON.
//!
//! `rc save` / `rc load` write and verify the built corpus as an on-disk
//! snapshot directory (`rightcrowd-store`), `--snapshot DIR` serves
//! `rc explain` / `rc flight` / `rc serve` from one (cold-building and
//! caching it when absent), `rc bench` measures — and records in the JSON
//! snapshot as `cold_build_ms` / `snapshot_load_ms` / `snapshot_bytes` —
//! the save → open round trip, and `rc regress` gates on those keys plus
//! the snapshot's integrity.
//!
//! The dataset scale is selected with the `RIGHTCROWD_SCALE` environment
//! variable (or `rc --scale`): `tiny`, `small` (default) or `paper` (the
//! full ~330k-resource study; expect a few minutes of corpus analysis).

pub mod cli;
pub mod experiments;
pub mod explain_fmt;
pub mod paper;
pub mod profile;
pub mod regress;
pub mod report;
pub mod runner;
pub mod serve_app;
pub mod soak;
pub mod table;

pub use report::BenchReport;
pub use runner::{load_dataset, scale_label, Bench};
