//! `rc` — the interactive command-line front end.
//!
//! ```sh
//! cargo run --release -p rightcrowd-bench --bin rc -- query "why is copper a good conductor" --top 5
//! RIGHTCROWD_SCALE=tiny cargo run --release -p rightcrowd-bench --bin rc -- eval --platform tw
//! cargo run --release -p rightcrowd-bench --bin rc -- stats
//! cargo run --release -p rightcrowd-bench --bin rc -- bench --scale small
//! cargo run --release -p rightcrowd-bench --bin rc -- save --snapshot corpus.snap
//! cargo run --release -p rightcrowd-bench --bin rc -- save --snapshot corpus.snap --shards 8
//! cargo run --release -p rightcrowd-bench --bin rc -- load --snapshot corpus.snap --threads 4
//! cargo run --release -p rightcrowd-bench --bin rc -- explain "famous freestyle swimmers" --snapshot corpus.snap
//! cargo run --release -p rightcrowd-bench --bin rc -- metrics --trace
//! cargo run --release -p rightcrowd-bench --bin rc -- regress BENCH_small.json target/BENCH_small.json
//! cargo run --release -p rightcrowd-bench --bin rc -- explain "famous freestyle swimmers" --top 3
//! cargo run --release -p rightcrowd-bench --bin rc -- flight --slowest 10 --capacity 1024
//! cargo run --release -p rightcrowd-bench --bin rc -- soak --out target/perf --duration 30s --watch
//! cargo run --release -p rightcrowd-bench --bin rc -- serve --snapshot corpus.snap --addr 127.0.0.1:7700
//! cargo run --release -p rightcrowd-bench --bin rc -- soak --connect 127.0.0.1:7700 --duration 10s
//! cargo run --release -p rightcrowd-bench --bin rc -- profile bench --out target/perf --hz 1000
//! cargo run --release -p rightcrowd-bench --bin rc -- profile soak --duration 10s --svg flame.svg
//! cargo run --release -p rightcrowd-bench --bin rc -- spans --json
//! cargo run --release -p rightcrowd-bench --bin rc -- expose --out metrics.openmetrics --check metrics.openmetrics
//! cargo run --release -p rightcrowd-bench --bin rc -- trace --chrome trace.chrome.json --check trace.chrome.json
//! ```

use rightcrowd_bench::cli::{parse, Command, USAGE};
use rightcrowd_bench::table::{header4, row4};
use rightcrowd_bench::{explain_fmt, regress, Bench, BenchReport};
use rightcrowd_core::baseline::random_baseline;
use rightcrowd_core::{ExpertFinder, FinderConfig};
use rightcrowd_synth::DatasetStats;
use rightcrowd_types::{Domain, Platform};

/// [`Bench::prepare_with`], exiting with a rendered error (a damaged
/// snapshot is a hard failure, not a silent rebuild).
fn prepare_or_exit(snapshot: Option<&std::path::Path>) -> Bench {
    match Bench::prepare_with(snapshot) {
        Ok(bench) => bench,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match parse(&args) {
        Ok(invocation) => invocation,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(scale) = &invocation.scale {
        // Before any dataset loading; single-threaded here, so safe.
        std::env::set_var("RIGHTCROWD_SCALE", scale);
    }
    let trace = invocation.trace;
    match invocation.command {
        Command::Help => print!("{USAGE}"),
        Command::Stats => {
            let bench = Bench::prepare();
            let stats = DatasetStats::compute(&bench.ds);
            println!(
                "{} candidates, {} resources ({:.0}% English, {:.0}% with URLs)",
                stats.candidates,
                stats.total_resources,
                stats.english_fraction * 100.0,
                stats.url_fraction * 100.0
            );
            for platform in Platform::ALL {
                let p = &stats.platforms[platform.index()];
                println!(
                    "  {:<9} d0 {:>7}  d1 {:>7}  d2 {:>7}  (generated {:>7})",
                    platform.abbrev(),
                    p.docs_at[0],
                    p.docs_at[1],
                    p.docs_at[2],
                    p.resources_generated
                );
            }
            for domain in Domain::ALL {
                let d = &stats.domains[domain.index()];
                println!(
                    "  {:<22} {:>2} experts, avg expertise {:.2}",
                    domain.label(),
                    d.experts,
                    d.avg_expertise
                );
            }
        }
        Command::Query { text, top, platforms, distance } => {
            let bench = Bench::prepare();
            let config = FinderConfig::default()
                .with_platforms(platforms)
                .with_distance(distance);
            let finder = ExpertFinder::with_corpus(&bench.ds, bench.corpus, &config);
            let ranking = finder.rank_text(&text);
            if ranking.is_empty() {
                println!("no candidate shows evidence for {text:?}");
                return;
            }
            println!("top {} of {} candidates for {:?}:", top.min(ranking.len()), ranking.len(), text);
            for (rank, expert) in ranking.iter().take(top).enumerate() {
                println!(
                    "  {:>2}. {:<24} {:>10.2}",
                    rank + 1,
                    bench.ds.candidates()[expert.person.index()].name,
                    expert.score
                );
            }
        }
        Command::Bench { out, snapshot, shards } => {
            // The bench always cold-builds (snapshot_load_ms must be
            // compared against a real cold_build_ms from the same run),
            // then measures the save → open round trip against --snapshot
            // or a temp directory.
            let bench = Bench::prepare();
            let report = BenchReport::measure_with(&bench, snapshot.as_deref(), shards);
            println!(
                "query latency p50 {:.2} ms / p99 {:.2} ms ({:.0} queries/sec)",
                report.query_p50_ms, report.query_p99_ms, report.queries_per_sec
            );
            println!(
                "snapshot: {} bytes; load {:.0} ms vs cold build {:.0} ms — {:.1}× faster",
                report.snapshot_bytes,
                report.snapshot_load_ms,
                report.cold_build_ms,
                if report.snapshot_load_ms > 0.0 {
                    report.cold_build_ms / report.snapshot_load_ms
                } else {
                    f64::INFINITY
                },
            );
            println!(
                "{} shards + {} byte manifest: cold open {:.0} ms, warm open {:.3} ms",
                report.shard_count,
                report.manifest_bytes,
                report.cold_open_ms,
                report.warm_open_ms,
            );
            println!(
                "α sweep ({} points × 3 distances): naive {:.0} ms, factored {:.0} ms — {:.1}× speedup",
                report.alpha_points,
                report.alpha_sweep_naive_ms,
                report.alpha_sweep_factored_ms,
                report.alpha_sweep_speedup
            );
            println!(
                "metrics: {} postings traversed, {} pruned, {} attribution cache hits / {} misses",
                report.metrics.counter(rightcrowd_obs::CounterId::PostingsTraversed),
                report.metrics.counter(rightcrowd_obs::CounterId::MaxscorePruned),
                report.metrics.counter(rightcrowd_obs::CounterId::AttributionCacheHits),
                report.metrics.counter(rightcrowd_obs::CounterId::AttributionCacheMisses),
            );
            println!(
                "flight: {} recorded, {} retained, mean {:.3} ms, slowest {:.3} ms ({:?})",
                report.flight.recorded,
                report.flight.retained,
                report.flight.mean_ms,
                report.flight.slowest_ms,
                report.flight.slowest_label,
            );
            match report.write_to(&out) {
                Ok(path) => println!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("error: cannot write {}: {e}", out.display());
                    std::process::exit(1);
                }
            }
        }
        Command::Save { snapshot, shards, threads } => {
            let bench = Bench::prepare();
            let threads = threads.unwrap_or_else(rightcrowd_core::par::default_threads);
            match rightcrowd_store::save_sharded(&snapshot, &bench.ds, &bench.corpus, shards, threads)
            {
                Ok(stats) => println!(
                    "wrote {} ({} shards + {} byte manifest, {} bytes total in {:.0} ms)",
                    snapshot.display(),
                    stats.shard_count,
                    stats.manifest_bytes,
                    stats.bytes,
                    stats.elapsed_ms,
                ),
                Err(e) => {
                    eprintln!("error: cannot save {}: {e}", snapshot.display());
                    std::process::exit(1);
                }
            }
        }
        Command::Load { snapshot, threads } => {
            let threads = threads.unwrap_or_else(rightcrowd_core::par::default_threads);
            let rss_before = rightcrowd_obs::rss_now_bytes();
            match rightcrowd_bench::runner::load_snapshot(&snapshot, threads) {
                Ok((ds, corpus, load)) => {
                    println!(
                        "verified {} ({} shards, {} bytes in {:.0} ms, {} threads, mapped zero-copy)",
                        snapshot.display(),
                        load.shard_count,
                        load.bytes,
                        load.elapsed_ms,
                        threads,
                    );
                    // The RSS delta across the open shows what the mapped
                    // shards save: borrowed pages are counted only as they
                    // are touched.
                    if let (Some(before), Some(after)) =
                        (rss_before, rightcrowd_obs::rss_now_bytes())
                    {
                        println!(
                            "  rss delta across the open: {:+} KiB (now {} KiB)",
                            (after as i64 - before as i64) / 1024,
                            after / 1024
                        );
                    }
                    // The full load above verified (or re-signed) every
                    // sidecar, so re-opening just the index shows the
                    // steady-state warm cost: a stat + sidecar read + mmap
                    // per shard, no CRC pass. Best of three keeps one
                    // scheduler hiccup from skewing the report.
                    let mut best: Option<rightcrowd_store::MappedOpenStats> = None;
                    for _ in 0..3 {
                        if let Ok((_, stats)) = rightcrowd_store::open_mapped(&snapshot) {
                            if best.as_ref().is_none_or(|b| stats.elapsed_ms < b.elapsed_ms) {
                                best = Some(stats);
                            }
                        }
                    }
                    if let Some(stats) = best {
                        println!(
                            "  warm index open: {:.3} ms ({}, best of 3)",
                            stats.elapsed_ms,
                            if stats.warm { "warm" } else { "cold" },
                        );
                    }
                    let (persons, profiles, resources, containers) = ds.graph().counts();
                    println!(
                        "  {persons} candidates / {profiles} profiles / {resources} resources / {containers} containers"
                    );
                    println!(
                        "  {} retained docs, {} dropped as non-English, {} queries",
                        corpus.retained(),
                        corpus.dropped_non_english(),
                        ds.queries().len()
                    );
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        Command::Explain { text, candidate, top, json, platforms, distance, snapshot } => {
            let bench = prepare_or_exit(snapshot.as_deref());
            let ctx = bench.ctx();
            let config = FinderConfig::default()
                .with_platforms(platforms)
                .with_distance(distance);
            let explained = ctx.explain_text(&config, &text);
            let names: Vec<&str> =
                bench.ds.candidates().iter().map(|p| p.name.as_str()).collect();
            if json {
                print!(
                    "{}",
                    explain_fmt::explain_json(
                        &explained,
                        &config,
                        &names,
                        candidate.as_deref(),
                        top
                    )
                );
            } else {
                println!("explaining {text:?}");
                print!(
                    "{}",
                    explain_fmt::render_explain(
                        &explained,
                        &config,
                        &names,
                        candidate.as_deref(),
                        top
                    )
                );
            }
        }
        Command::Flight { slowest, capacity, platforms, distance, snapshot } => {
            let bench = prepare_or_exit(snapshot.as_deref());
            let ctx = bench.ctx();
            let config = FinderConfig::default()
                .with_platforms(platforms)
                .with_distance(distance);
            if let Some(n) = capacity {
                // Swap in a fresh ring of the requested size before the
                // run (drops anything previously recorded).
                rightcrowd_obs::set_flight_capacity(n);
                eprintln!(
                    "[flight] ring capacity {}",
                    rightcrowd_obs::flight::flight_capacity()
                );
            }
            rightcrowd_obs::flight::reset_flight();
            rightcrowd_obs::flight::set_flight_enabled(true);
            let outcome = ctx.run(&config);
            rightcrowd_obs::flight::set_flight_enabled(false);
            eprintln!(
                "[flight] workload MAP {:.3} over {} queries",
                outcome.mean.map,
                outcome.per_query.len()
            );
            let summary = rightcrowd_obs::flight::flight_summary();
            let records = match slowest {
                Some(k) => rightcrowd_obs::flight::slowest(k),
                None => {
                    // Newest first, like a log tail.
                    let mut recent = rightcrowd_obs::flight::recent();
                    recent.reverse();
                    recent
                }
            };
            let names: Vec<&str> =
                bench.ds.candidates().iter().map(|p| p.name.as_str()).collect();
            print!("{}", explain_fmt::render_flight(&summary, &records, &names));
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
        } => {
            let bench = prepare_or_exit(snapshot.as_deref());
            let opts = rightcrowd_bench::soak::SoakOptions {
                duration: std::time::Duration::from_millis(duration_ms),
                query_budget: queries,
                max_threads: threads,
                tick: std::time::Duration::from_millis(tick_ms),
                watch,
                profile,
                ..Default::default()
            };
            if let Some(addr) = connect {
                // Connect mode: the ladder drives a running `rc serve`
                // daemon over TCP instead of ranking in-process. The
                // local bench only supplies the query workload and the
                // bit-identity reference.
                let report =
                    match rightcrowd_bench::soak::ConnectReport::run(&bench, &addr, &opts) {
                        Ok(report) => report,
                        Err(e) => {
                            eprintln!("error: {e}");
                            std::process::exit(1);
                        }
                    };
                for phase in &report.phases {
                    println!(
                        "t{} over-tcp       {:>8.0} qps  p50 {:>7.3} ms  p99 {:>7.3} ms  ({} queries in {:.1}s)",
                        phase.threads, phase.qps, phase.p50_ms, phase.p99_ms, phase.queries,
                        phase.elapsed_s,
                    );
                }
                match report.write_to(&out) {
                    Ok(paths) => {
                        for path in paths {
                            println!("wrote {}", path.display());
                        }
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                }
                return;
            }
            let report = rightcrowd_bench::soak::SoakReport::run(&bench, &opts);
            for phase in &report.phases {
                println!(
                    "t{} {:<13} {:>8.0} qps  p50 {:>7.3} ms  p99 {:>7.3} ms  ({} queries in {:.1}s)",
                    phase.threads,
                    if phase.telemetry { "telemetry-on" } else { "telemetry-off" },
                    phase.qps,
                    phase.p50_ms,
                    phase.p99_ms,
                    phase.queries,
                    phase.elapsed_s,
                );
            }
            println!(
                "telemetry overhead {:.2}% (budget {:.0}%); wide events {} seen / {} retained{}",
                report.telemetry_overhead_frac * 100.0,
                regress::OBS_OVERHEAD_MAX * 100.0,
                report.events_seen,
                report.events_retained,
                report
                    .rss_peak_bytes
                    .map_or(String::new(), |b| format!("; peak RSS {:.1} MiB", b as f64 / (1 << 20) as f64)),
            );
            if let Some(profile) = &report.profile {
                println!(
                    "profiler: {} samples over {} ticks ({:.0} µs interval); per-query CPU stamped on {} events",
                    profile.samples,
                    profile.ticks,
                    profile.interval_ns as f64 / 1_000.0,
                    profile.query_samples.len(),
                );
            }
            match report.write_to(&out) {
                Ok(paths) => {
                    for path in paths {
                        println!("wrote {}", path.display());
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        Command::Serve { snapshot, addr, threads, out } => {
            use std::sync::atomic::Ordering;

            // Warm once: snapshot when it exists, cold build + cache
            // otherwise — the same policy every other snapshot-taking
            // subcommand follows.
            let decode_threads = rightcrowd_core::par::default_threads();
            let rss_before = rightcrowd_obs::rss_now_bytes();
            let (bench, load) = if snapshot.exists() {
                match rightcrowd_bench::runner::load_snapshot(&snapshot, decode_threads) {
                    Ok((ds, corpus, load)) => (
                        Bench { ds, corpus, generate_ms: 0.0, analyze_ms: 0.0 },
                        Some(load),
                    ),
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                }
            } else {
                (prepare_or_exit(Some(&snapshot)), None)
            };
            if let Some(l) = &load {
                // Startup cost report: wall time next to the RSS delta the
                // open actually charged this process — small, because the
                // index stays in borrowed page cache until queries touch it.
                match (rss_before, rightcrowd_obs::rss_now_bytes()) {
                    (Some(before), Some(after)) => eprintln!(
                        "[serve] warmed in {:.0} ms (mapped zero-copy): rss delta {:+} KiB (now {} KiB)",
                        l.elapsed_ms,
                        (after as i64 - before as i64) / 1024,
                        after / 1024
                    ),
                    _ => eprintln!("[serve] warmed in {:.0} ms (mapped zero-copy)", l.elapsed_ms),
                }
            }

            // Queries served over HTTP land in the flight ring like any
            // other instrumented run, so `rc flight`-style debugging
            // works against a daemon too.
            rightcrowd_obs::flight::set_flight_enabled(true);
            let app = rightcrowd_bench::serve_app::RankApp::new(
                bench,
                snapshot.display().to_string(),
                load,
            );
            let mut server_config = rightcrowd_serve::ServerConfig {
                addr,
                ..rightcrowd_serve::ServerConfig::default()
            };
            if let Some(n) = threads {
                server_config.threads = n;
            }
            let workers = server_config.threads;
            let server = match rightcrowd_serve::Server::bind(server_config) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            };
            match server.local_addr() {
                Some(bound) => println!(
                    "serving on http://{bound} ({workers} workers) — POST /rank, POST /explain, \
                     GET /metrics, GET /healthz, WS /rank"
                ),
                None => eprintln!("warning: cannot read bound address"),
            }
            println!(
                "snapshot fingerprint {}; SIGTERM/SIGINT drains in-flight queries and \
                 flushes the event log into {}",
                app.fingerprint(),
                out.display()
            );
            server.run(&app);

            // Past this point the drain contract holds: every accepted
            // request finished. Flush, report, exit 0.
            let stats = server.stats();
            eprintln!(
                "[serve] drained: {} queries over {} requests ({} connections, {} shed, \
                 {} ws upgrades, {} faults answered)",
                app.served(),
                stats.requests.load(Ordering::Relaxed),
                stats.accepted.load(Ordering::Relaxed),
                stats.shed.load(Ordering::Relaxed),
                stats.ws_upgrades.load(Ordering::Relaxed),
                stats.faults_answered.load(Ordering::Relaxed),
            );
            match app.flush_events(&out) {
                Ok(path) => println!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        Command::Expose { out, check } => {
            if let Some(path) = &out {
                // Run the workload once so the registry holds a real
                // serving profile, then expose it.
                let bench = Bench::prepare();
                let ctx = bench.ctx();
                let outcome = ctx.run(&FinderConfig::default());
                eprintln!(
                    "[expose] workload MAP {:.3} over {} queries",
                    outcome.mean.map,
                    outcome.per_query.len()
                );
                let text = rightcrowd_obs::openmetrics_live(&rightcrowd_bench::soak::build_info());
                if let Err(e) = rightcrowd_obs::validate_openmetrics(&text) {
                    eprintln!("error: live exposition failed validation: {e}");
                    std::process::exit(1);
                }
                if let Err(e) = std::fs::write(path, &text) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
                println!("wrote {}", path.display());
            }
            if let Some(path) = &check {
                let text = match std::fs::read_to_string(path) {
                    Ok(text) => text,
                    Err(e) => {
                        eprintln!("error: cannot read {}: {e}", path.display());
                        std::process::exit(1);
                    }
                };
                match rightcrowd_obs::validate_openmetrics(&text) {
                    Ok(samples) => {
                        println!("ok: {} valid samples in {}", samples, path.display())
                    }
                    Err(e) => {
                        eprintln!("error: {}: {e}", path.display());
                        std::process::exit(1);
                    }
                }
            }
        }
        Command::Trace { chrome, check, platforms, distance } => {
            if let Some(out_path) = &chrome {
                let bench = Bench::prepare();
                let ctx = bench.ctx();
                let config = FinderConfig::default()
                    .with_platforms(platforms)
                    .with_distance(distance);
                rightcrowd_obs::flight::reset_flight();
                rightcrowd_obs::flight::set_flight_enabled(true);
                let outcome = ctx.run(&config);
                rightcrowd_obs::flight::set_flight_enabled(false);
                eprintln!(
                    "[trace] workload MAP {:.3} over {} queries",
                    outcome.mean.map,
                    outcome.per_query.len()
                );
                let trace_json = rightcrowd_obs::chrome_trace_json(
                    &rightcrowd_obs::snapshot(),
                    &rightcrowd_obs::flight::recent(),
                );
                if let Err(e) = std::fs::write(out_path, &trace_json) {
                    eprintln!("error: cannot write {}: {e}", out_path.display());
                    std::process::exit(1);
                }
                println!("wrote {} (load in chrome://tracing or Perfetto)", out_path.display());
            }
            if let Some(path) = &check {
                let text = match std::fs::read_to_string(path) {
                    Ok(text) => text,
                    Err(e) => {
                        eprintln!("error: cannot read {}: {e}", path.display());
                        std::process::exit(1);
                    }
                };
                match regress::validate_chrome_trace(&text) {
                    Ok(events) => {
                        println!("ok: {} valid trace events in {}", events, path.display())
                    }
                    Err(e) => {
                        eprintln!("error: {}: {e}", path.display());
                        std::process::exit(1);
                    }
                }
            }
        }
        Command::Metrics { platforms, distance } => {
            let bench = Bench::prepare();
            let ctx = bench.ctx();
            let config = FinderConfig::default()
                .with_platforms(platforms)
                .with_distance(distance);
            let outcome = ctx.run(&config);
            eprintln!(
                "[metrics] workload MAP {:.3} over {} queries",
                outcome.mean.map,
                outcome.per_query.len()
            );
            print!("{}", rightcrowd_obs::snapshot().render());
        }
        Command::Regress { baseline, current, threshold, warn_only, snapshot } => {
            // Every gate runs even after the first failure — one run
            // reports ALL broken keys and invariants (a CI loop that
            // surfaces failures one at a time costs a full rebuild per
            // discovery). Failures accumulate here; the exit happens once
            // at the end.
            let mut failures: Vec<String> = Vec::new();

            // Snapshot integrity gate: a snapshot that fails its
            // checksums is a regression regardless of the latency diff.
            if let Some(path) = &snapshot {
                let threads = rightcrowd_core::par::default_threads();
                match rightcrowd_bench::runner::load_snapshot(path, threads) {
                    Ok((_, corpus, load)) => println!(
                        "snapshot {} ok: {} shards / {} bytes verified in {:.0} ms ({} retained docs)",
                        path.display(),
                        load.shard_count,
                        load.bytes,
                        load.elapsed_ms,
                        corpus.retained()
                    ),
                    Err(e) => failures.push(e),
                }
            }

            // Profiler artifact gate: when a profile run left its folded
            // stacks next to the current bench snapshot, they must still
            // parse — a flamegraph nobody can re-render is not an
            // artifact. Absence is fine (not every run profiles).
            let folded_path = current
                .parent()
                .map(|dir| dir.join("profile.folded"))
                .filter(|p| p.is_file());
            if let Some(path) = &folded_path {
                match std::fs::read_to_string(path) {
                    Ok(text) => match rightcrowd_obs::validate_folded(&text) {
                        Ok(samples) => println!(
                            "profile {} ok: {} samples re-validated",
                            path.display(),
                            samples
                        ),
                        Err(e) => failures.push(format!("profile {}: {e}", path.display())),
                    },
                    Err(e) => {
                        failures.push(format!("profile {}: cannot read: {e}", path.display()))
                    }
                }
            }

            // The snapshot diff itself: latency/size keys plus counter
            // invariants (including the profiler overhead budget).
            let mut provenance: Option<String> = None;
            match regress::compare_files(&baseline, &current, threshold) {
                Ok(report) => {
                    print!("{}", report.render());
                    provenance = Some(report.provenance());
                    if report.any_regressed() {
                        failures.push(format!(
                            "{} regressed key(s)/invariant(s) in {}",
                            report.regressed_count(),
                            current.display()
                        ));
                    }
                }
                Err(e) => failures.push(e.to_string()),
            }

            if !failures.is_empty() {
                // The summary names the baseline the run compared
                // against — a failed gate against a dirty-tree baseline
                // reads very differently from one against a clean rev.
                match &provenance {
                    Some(p) => eprintln!("{} gate(s) failed ({p}):", failures.len()),
                    None => eprintln!("{} gate(s) failed:", failures.len()),
                }
                for failure in &failures {
                    eprintln!("  - {failure}");
                }
                if !warn_only {
                    std::process::exit(1);
                }
            }
        }
        Command::Profile { mode, out, snapshot, folded, svg, hz, duration_ms, threads } => {
            if !rightcrowd_obs::PROBES_ENABLED {
                // obs-off builds keep the command but compile the sampler
                // (and every span it would observe) out. Degrade to a
                // clear no-op — writing empty artifacts would look like a
                // profiler bug rather than a build-flavour fact.
                eprintln!(
                    "rc profile: built with feature obs-off — the sampling profiler is \
                     compiled out, nothing to profile (rebuild without obs-off)"
                );
                return;
            }
            let bench = prepare_or_exit(snapshot.as_deref());
            let opts = rightcrowd_bench::profile::ProfileOptions {
                mode,
                hz,
                duration: std::time::Duration::from_millis(duration_ms),
                threads,
            };
            let report = rightcrowd_bench::profile::ProfileRunReport::run(&bench, &opts);
            println!(
                "profile: {} samples over {} ticks ({:.0} µs interval)",
                report.profile.samples,
                report.profile.ticks,
                report.profile.interval_ns as f64 / 1_000.0,
            );
            if let Some(frac) = report.overhead_frac {
                println!(
                    "overhead: {:.2}% vs unprofiled floor (budget {:.0}%, gated by rc regress)",
                    frac * 100.0,
                    regress::PROFILE_OVERHEAD_MAX * 100.0,
                );
            }
            for (i, (span, frac)) in report.profile.top_self(5).into_iter().enumerate() {
                println!("  top{} {:<44} {:>5.1}% self", i + 1, span, frac * 100.0);
            }
            match report.write_to(&out, folded.as_deref(), svg.as_deref()) {
                Ok(paths) => {
                    for path in paths {
                        println!("wrote {}", path.display());
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        Command::Spans { json, platforms, distance } => {
            // Run the evaluation workload once so the span registry holds
            // a real serving profile, then expose the aggregated tree —
            // the same rows `rc metrics` embeds, without the counters and
            // histograms around them.
            let bench = Bench::prepare();
            let ctx = bench.ctx();
            let config = FinderConfig::default()
                .with_platforms(platforms)
                .with_distance(distance);
            let outcome = ctx.run(&config);
            eprintln!(
                "[spans] workload MAP {:.3} over {} queries",
                outcome.mean.map,
                outcome.per_query.len()
            );
            let spans = rightcrowd_obs::snapshot().spans;
            if json {
                let rows: Vec<regress::Json> = spans
                    .iter()
                    .map(|(path, stat)| {
                        let mut row = std::collections::BTreeMap::new();
                        row.insert("path".to_owned(), regress::Json::Str(path.clone()));
                        row.insert("calls".to_owned(), regress::Json::Num(stat.calls as f64));
                        row.insert(
                            "total_ns".to_owned(),
                            regress::Json::Num(stat.total_ns as f64),
                        );
                        row.insert(
                            "self_ns".to_owned(),
                            regress::Json::Num(stat.self_ns() as f64),
                        );
                        regress::Json::Obj(row)
                    })
                    .collect();
                print!("{}", regress::Json::Arr(rows).render());
            } else if spans.is_empty() {
                eprintln!("no spans recorded (built with obs-off?)");
            } else {
                print!("{}", rightcrowd_obs::span::render_tree(&spans));
            }
        }
        Command::Eval { platforms, distance } => {
            let bench = Bench::prepare();
            let ctx = bench.ctx();
            let config = FinderConfig::default()
                .with_platforms(platforms)
                .with_distance(distance);
            let outcome = ctx.run(&config);
            let random = random_baseline(&bench.ds, 0x0E7A1);
            println!("{:<10} {}", "config", header4());
            println!("{:<10} {}", "random", row4(&random));
            println!(
                "{:<10} {}",
                format!("{} d{}", config.platforms.label(), distance.level()),
                row4(&outcome.mean)
            );
        }
    }
    if trace {
        let spans = rightcrowd_obs::snapshot().spans;
        if spans.is_empty() {
            eprintln!("[trace] no spans recorded (built with obs-off?)");
        } else {
            eprint!("{}", rightcrowd_obs::span::render_tree(&spans));
        }
    }
}
