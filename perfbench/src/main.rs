//! The rightcrowd benchmark harness.
//!
//! ```text
//! perfbench --workload serve-small|eval-paper|ingest-small --seed N
//!           --seconds S --trace 0|1 [--data-seed N] [--rc PATH] [--area DIR] [--tiny]
//! perfbench build-snapshot --scale small|paper --seed N --out DIR [--tiny]
//! ```
//!
//! A measuring run prints progress on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`). `run.sh` builds the daemon and this harness
//! from the checkout and runs it. See `README.md` for what each workload
//! and metric means.

mod common;
mod eval;
mod ingest;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;

use common::{Args, Metrics, Ops, Scale};

const USAGE: &str = "usage: perfbench --workload serve-small|eval-paper|ingest-small --seed N \
--seconds S --trace 0|1 [--data-seed N] [--rc PATH] [--area DIR] [--tiny]
       perfbench build-snapshot --scale small|paper --seed N --out DIR [--tiny]";

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["serve-small", "eval-paper", "ingest-small"];

fn flag_value<'a>(args: &'a [String], i: &mut usize) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("{what} must be a whole number, got {s:?}"))
}

fn default_area() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    target.join("perfbench")
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut rc, mut area, mut tiny, mut data_seed) = (None, None, false, None);
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => workload = Some(flag_value(argv, &mut i)?.to_owned()),
            "--seed" => seed = Some(parse_u64(flag_value(argv, &mut i)?, "--seed")?),
            "--data-seed" => data_seed = Some(parse_u64(flag_value(argv, &mut i)?, "--data-seed")?),
            "--seconds" => seconds = Some(parse_u64(flag_value(argv, &mut i)?, "--seconds")?),
            "--trace" => {
                trace = Some(match flag_value(argv, &mut i)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            "--rc" => rc = Some(PathBuf::from(flag_value(argv, &mut i)?)),
            "--area" => area = Some(PathBuf::from(flag_value(argv, &mut i)?)),
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        data_seed: data_seed.unwrap_or(common::DEFAULT_DATA_SEED),
        seconds: seconds as f64,
        trace: trace.ok_or("--trace is required")?,
        rc,
        area: area.unwrap_or_else(default_area),
        tiny,
    })
}

fn build_snapshot(argv: &[String]) -> Result<(), String> {
    let (mut scale, mut seed, mut out, mut tiny) = (None, None, None, false);
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                let s = flag_value(argv, &mut i)?;
                scale = Some(Scale::parse(s).ok_or_else(|| format!("unknown scale {s:?}"))?);
            }
            "--seed" => seed = Some(parse_u64(flag_value(argv, &mut i)?, "--seed")?),
            "--out" => out = Some(PathBuf::from(flag_value(argv, &mut i)?)),
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    common::build_snapshot(
        scale.ok_or("--scale is required")?,
        seed.ok_or("--seed is required")?,
        &out.ok_or("--out is required")?,
        tiny,
    )
}

fn measure(args: &Args) -> Result<(Ops, Metrics), String> {
    let mut ops = Ops::default();
    let mut metrics = Metrics::default();
    let details = common::with_cores_awake(|| match (args.workload.as_str(), args.trace) {
        ("serve-small", false) => serve::run(args, &mut ops, &mut metrics),
        ("serve-small", true) => serve::run_traced(args, &mut ops, &mut metrics),
        ("eval-paper", false) => eval::run(args, &mut ops, &mut metrics),
        ("eval-paper", true) => eval::run_traced(args, &mut ops, &mut metrics),
        ("ingest-small", false) => ingest::run(args, &mut ops, &mut metrics),
        ("ingest-small", true) => ingest::run_traced(args, &mut ops, &mut metrics),
        _ => unreachable!("workload names are checked when parsing"),
    })?;
    if !args.trace {
        metrics.set("ok_frac", ops.ok_frac());
    }
    common::write_details(args, &details);
    Ok((ops, metrics))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("build-snapshot") {
        if let Err(e) = build_snapshot(&argv[1..]) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "[perfbench] workload {} seed {} data seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.data_seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (ops, metrics) = match measure(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let table: Vec<(String, &str)> = if args.trace {
        common::per_layer()
    } else {
        common::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u))
            .collect()
    };
    let correct = ops.failed == 0 && ops.attempted > 0;
    eprintln!(
        "[perfbench] seed {}: {} checks, {} failed",
        args.seed, ops.attempted, ops.failed
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ops.attempted.max(1),
        ops.failed,
        metrics.render(&table)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse(&argv(
            "--workload eval-paper --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("eval-paper", 7, 10.0, true)
        );
        assert_eq!(a.data_seed, common::DEFAULT_DATA_SEED);
        let b = parse(&argv(
            "--workload eval-paper --seed 7 --seconds 10 --trace 0 --data-seed 9",
        ))
        .unwrap();
        assert_eq!(b.data_seed, 9);
        assert!(parse(&argv("--workload nope --seed 7 --seconds 10 --trace 1")).is_err());
        assert!(parse(&argv(
            "--workload eval-paper --seed 7 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse(&argv("--workload eval-paper --seconds 10 --trace 0")).is_err());
        assert!(parse(&argv(
            "--workload eval-paper --seed 7 --seconds 0 --trace 0"
        ))
        .is_err());
    }
}
