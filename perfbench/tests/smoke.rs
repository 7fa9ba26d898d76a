//! Tiny-scale smoke run of every workload, untraced and traced: each run
//! must exit 0, pass its checks, and report exactly the metrics of its
//! table in `BENCHMARK.json`. The runs use a data seed other than the
//! default, so the seed reaches the generated study end to end.

use std::path::PathBuf;
use std::process::Command;

use rightcrowd_bench::regress::{parse_json, Json};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The repository's own target directory, for the `rc` build and the
/// run's area (an absolute path: the test's working directory is this
/// package, not the checkout root).
fn target_dir() -> PathBuf {
    root().join("target")
}

/// Builds the `rc` daemon from the repository workspace.
fn rc_binary() -> PathBuf {
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "rightcrowd-bench",
            "--bin",
            "rc",
        ])
        .arg("--manifest-path")
        .arg(root().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target_dir())
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building rc failed");
    target_dir().join("release").join("rc")
}

fn metric_names(doc: &Json, table: &str) -> Vec<String> {
    match doc.get(table) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| match m.get("name") {
                Some(Json::Str(name)) => name.clone(),
                other => panic!("{table} name: {other:?}"),
            })
            .collect(),
        other => panic!("{table}: {other:?}"),
    }
}

#[test]
fn every_workload_runs_at_tiny_scale() {
    let benchmark = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let benchmark = parse_json(&benchmark).expect("BENCHMARK.json parses");
    let rc = rc_binary();
    let area = target_dir().join(format!("perfbench-selftest-{}", std::process::id()));
    for workload in ["serve-small", "eval-paper", "ingest-small"] {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--data-seed",
                    "7",
                    "--tiny",
                ])
                .arg("--rc")
                .arg(&rc)
                .arg("--area")
                .arg(&area)
                .output()
                .expect("perfbench runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stderr}"
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = parse_json(last).expect("the result line is JSON");
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload}: {last}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
                    >= 1.0
            );
            let table = if trace == "0" {
                "end_to_end"
            } else {
                "per_layer"
            };
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("metrics: {last}")
            };
            let mut got: Vec<String> = metrics.keys().cloned().collect();
            let mut want = metric_names(&benchmark, table);
            got.sort();
            want.sort();
            assert_eq!(got, want, "{workload} trace {trace}");
            if trace == "0" {
                for (name, m) in metrics {
                    let v = m
                        .get("value")
                        .and_then(Json::as_f64)
                        .expect("numeric value");
                    assert!(v > 0.0, "{workload}: end-to-end {name} is {v}");
                }
            }
        }
    }
    std::fs::remove_dir_all(&area).ok();
}
