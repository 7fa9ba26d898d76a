//! `eval-paper`: the in-process reproduction sweep (Table 3 grid, Fig. 7
//! α sweep, Fig. 6 window sweep: 61 configurations per pass) over a
//! mapped paper-scale snapshot.

use std::time::Instant;

use rightcrowd_bench::runner::Bench;
use rightcrowd_core::ranker::{attributed_components, rank_components, rank_scored};
use rightcrowd_core::{
    AnalysisPipeline, Attribution, EvalContext, FinderConfig, RankedExpert, WindowSize,
};
use rightcrowd_metrics::{mean_eval, QueryEval};
use rightcrowd_types::Distance;

use crate::common::{self, Args, Group, Metrics, Ops, Point, Scale};
use crate::serve::{add_stats, langid_train_ms, p50, record_traversal};
use crate::stats;
use crate::trace::{self, Tracer};

/// Snapshot opens per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Configurations the reference-oracle gate re-ranks. α-sweep points are
/// left out: they recombine factored components, which the evaluation
/// API documents as equal to direct scoring only up to reassociation.
const ORACLE_SUBSET: [&str; 6] = [
    "all.d0",
    "tw.d1",
    "li.d2",
    "all.d2",
    "win2pct.d1",
    "win10pct.d2",
];

/// Opens the snapshot and computes the attribution of every traversal
/// shape the sweep uses: the work before the first configuration can run.
fn set_up(dir: &std::path::Path) -> Result<(Bench, f64), String> {
    let started = Instant::now();
    let (bench, _) = common::open(dir)?;
    common::warm_attributions(&bench.ctx());
    Ok((bench, started.elapsed().as_secs_f64()))
}

/// Evaluates one ranking against the ground truth, as the evaluation
/// context does.
fn evaluate(
    bench: &Bench,
    need: &rightcrowd_synth::ExpertiseNeed,
    ranking: &[RankedExpert],
) -> QueryEval {
    let gt = bench.ds.ground_truth();
    let rels: Vec<bool> = ranking
        .iter()
        .map(|r| gt.is_expert(r.person, need.domain))
        .collect();
    QueryEval::evaluate(&rels, gt.experts(need.domain).len())
}

/// Re-ranks [`ORACLE_SUBSET`] through `rightcrowd_index::reference`
/// followed by `rank_scored`, and checks each ranking against the sweep
/// to the bit.
fn oracle_gate(bench: &Bench, ctx: &EvalContext<'_>, points: &[Point], ops: &mut Ops) {
    let pipeline = AnalysisPipeline::new(bench.ds.kb());
    let index = bench.corpus.index();
    let n = bench.ds.candidates().len();
    for label in ORACLE_SUBSET {
        let point = points
            .iter()
            .find(|p| p.label == label)
            .expect("subset labels exist");
        let config = &point.config;
        let attribution = ctx.attribution(config);
        for (qi, need) in bench.ds.queries().iter().enumerate() {
            let query = pipeline.analyze_query(&need.text);
            let ranking = match config.window {
                WindowSize::Count(k) => {
                    let top = rightcrowd_index::reference::score_top_k(
                        index,
                        &query,
                        config.alpha,
                        k,
                        |d| attribution.is_attributed(d),
                    );
                    rank_scored(&attribution, config, &top, top.len(), n)
                }
                window => {
                    let mut all =
                        rightcrowd_index::reference::score_all(index, &query, config.alpha);
                    all.retain(|s| attribution.is_attributed(s.doc));
                    let w = window.resolve(all.len());
                    rank_scored(&attribution, config, &all, w, n)
                }
            };
            ops.check(common::same_ranking(&ranking, &point.rankings[qi]), || {
                format!("{label} query {qi}: sweep ranking differs from the reference oracle")
            });
        }
    }
}

/// The untraced run: every end-to-end metric.
///
/// `latency_p50_ms` is the median wall time of one 61-configuration pass;
/// `throughput_per_s` the configurations per second of that median pass.
pub fn run(args: &Args, ops: &mut Ops, metrics: &mut Metrics) -> Result<Vec<String>, String> {
    let dir = common::snapshot(args, Scale::Paper)?;
    let mut setups = Vec::new();
    for _ in 1..SETUP_REPEATS {
        setups.push(set_up(&dir)?.1);
    }
    let (bench, secs) = set_up(&dir)?;
    setups.push(secs);
    metrics.set("setup_s", stats::median_of(&setups).unwrap_or(0.0));
    let ctx = bench.ctx();
    common::warm_attributions(&ctx);

    // A warm-up pass, whose outcome the gate and every timed pass must
    // reproduce.
    let (reference, _) = common::sweep_pass(&ctx);
    oracle_gate(&bench, &ctx, &reference, ops);
    common::record_quality(&reference, metrics);

    // Timed passes fill the run's seconds (at least three).
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 3 || started.elapsed().as_secs_f64() < args.seconds {
        passes.push(common::timed_pass(&ctx, &reference, ops));
    }
    let pass_s = stats::median_of(&passes).unwrap_or(0.0);
    metrics.set("latency_p50_ms", pass_s * 1e3);
    metrics.set("throughput_per_s", reference.len() as f64 / pass_s);
    metrics.set(
        "snapshot_bytes_per_doc",
        common::dir_bytes(&dir) as f64 / bench.corpus.retained() as f64,
    );
    metrics.set("peak_rss_mb", common::peak_rss_mb(None).unwrap_or(0.0));
    Ok(vec![
        format!("setup_s samples = {setups:?}"),
        format!("pass_s samples = {passes:?}"),
    ])
}

/// One reproduction pass recomposed from the layer calls the evaluation
/// API makes, each in a span; single-threaded, in [`common::sweep_configs`]
/// order. Also returns the traversal counters and the number of scored
/// and top-k queries.
fn recomposed_pass(
    bench: &Bench,
    ctx: &EvalContext<'_>,
    tracer: &Tracer,
) -> (Vec<Point>, rightcrowd_index::TraversalStats, usize, usize) {
    let configs = common::sweep_configs();
    let index = bench.corpus.index();
    let needs = bench.ds.queries();
    let n = bench.ds.candidates().len();
    let mut totals = rightcrowd_index::TraversalStats::default();
    let (mut scored, mut top_k) = (0usize, 0usize);
    let mut points: Vec<Point> = Vec::with_capacity(configs.len());
    let mut finish = |i: usize, rankings: Vec<Vec<RankedExpert>>, evals: Vec<QueryEval>| {
        let (group, label, config) = configs[i].clone();
        points.push(Point {
            group,
            label,
            config,
            mean: mean_eval(&evals),
            rankings,
        });
    };

    tracer.span("eval.grid", 0, || {
        for (ci, (_, _, config)) in configs
            .iter()
            .enumerate()
            .filter(|(_, c)| c.0 == Group::Grid)
        {
            let attribution = &*ctx.attribution(config);
            let k = match config.window {
                WindowSize::Count(k) => k,
                _ => unreachable!("the grid uses the fixed window"),
            };
            let rid = ci as u64;
            let pipeline =
                tracer.span("pipeline.new", rid, || AnalysisPipeline::new(bench.ds.kb()));
            let (mut rankings, mut evals) = (Vec::new(), Vec::new());
            for need in needs {
                let query = tracer.span("pipeline.analyze_query", rid, || {
                    pipeline.analyze_query(&need.text)
                });
                let _ = rightcrowd_index::take_traversal_stats();
                let top = tracer.span("index.score_top_k", rid, || {
                    index.score_top_k(&query, config.alpha, k, |d| attribution.is_attributed(d))
                });
                add_stats(&mut totals, &rightcrowd_index::take_traversal_stats());
                scored += 1;
                top_k += 1;
                let ranking = tracer.span("ranker.rank_scored", rid, || {
                    rank_scored(attribution, config, &top, top.len(), n)
                });
                evals
                    .push(tracer.span("metrics.evaluate", rid, || evaluate(bench, need, &ranking)));
                rankings.push(ranking);
            }
            finish(ci, rankings, evals);
        }
    });

    tracer.span("eval.alpha_sweep", 0, || {
        for d in Distance::ALL {
            let members: Vec<usize> = (0..configs.len())
                .filter(|&i| configs[i].0 == Group::Alpha && configs[i].2.max_distance == d)
                .collect();
            let base = FinderConfig::default().with_distance(d);
            let attribution = &*ctx.attribution(&base);
            let rid = members[0] as u64;
            let pipeline =
                tracer.span("pipeline.new", rid, || AnalysisPipeline::new(bench.ds.kb()));
            let mut rows: Vec<(Vec<Vec<RankedExpert>>, Vec<QueryEval>)> =
                members.iter().map(|_| (Vec::new(), Vec::new())).collect();
            for need in needs {
                let query = tracer.span("pipeline.analyze_query", rid, || {
                    pipeline.analyze_query(&need.text)
                });
                let _ = rightcrowd_index::take_traversal_stats();
                let components = tracer.span("index.score_components", rid, || {
                    attributed_components(attribution, &index.score_components(&query))
                });
                add_stats(&mut totals, &rightcrowd_index::take_traversal_stats());
                scored += 1;
                for (row, &ci) in rows.iter_mut().zip(&members) {
                    let config = &configs[ci].2;
                    let ranking = tracer.span("ranker.rank_components", ci as u64, || {
                        rank_components(attribution, config, &components, n)
                    });
                    row.1.push(tracer.span("metrics.evaluate", ci as u64, || {
                        evaluate(bench, need, &ranking)
                    }));
                    row.0.push(ranking);
                }
            }
            for (&ci, (rankings, evals)) in members.iter().zip(rows) {
                finish(ci, rankings, evals);
            }
        }
    });

    tracer.span("eval.window_sweep", 0, || {
        for (ci, (_, _, config)) in configs
            .iter()
            .enumerate()
            .filter(|(_, c)| c.0 == Group::Window)
        {
            let attribution = &*ctx.attribution(config);
            let rid = ci as u64;
            let pipeline =
                tracer.span("pipeline.new", rid, || AnalysisPipeline::new(bench.ds.kb()));
            let (mut rankings, mut evals) = (Vec::new(), Vec::new());
            for need in needs {
                let query = tracer.span("pipeline.analyze_query", rid, || {
                    pipeline.analyze_query(&need.text)
                });
                let _ = rightcrowd_index::take_traversal_stats();
                let all = tracer.span("index.score_all", rid, || {
                    index.score_all(&query, config.alpha)
                });
                add_stats(&mut totals, &rightcrowd_index::take_traversal_stats());
                scored += 1;
                let ranking = tracer.span("ranker.rank_scored", rid, || {
                    let eligible: Vec<_> = all
                        .into_iter()
                        .filter(|s| attribution.is_attributed(s.doc))
                        .collect();
                    let w = config.window.resolve(eligible.len());
                    rank_scored(attribution, config, &eligible, w, n)
                });
                evals
                    .push(tracer.span("metrics.evaluate", rid, || evaluate(bench, need, &ranking)));
                rankings.push(ranking);
            }
            finish(ci, rankings, evals);
        }
    });

    // The groups ran in configuration order except that `finish` was
    // called group by group; restore sweep order.
    let order: Vec<String> = configs.iter().map(|c| c.1.clone()).collect();
    points.sort_by_key(|p| order.iter().position(|l| *l == p.label));
    (points, totals, scored, top_k)
}

/// The traced run: every per-layer metric.
pub fn run_traced(
    args: &Args,
    ops: &mut Ops,
    metrics: &mut Metrics,
) -> Result<Vec<String>, String> {
    let dir = common::snapshot(args, Scale::Paper)?;
    let tracer = Tracer::new(true);
    let started = Instant::now();
    let (bench, _) = common::open(&dir)?;
    metrics.set("store.open_ms", started.elapsed().as_secs_f64() * 1e3);

    // Attribution of every traversal shape (one per Table 3 cell), timed
    // directly rather than through the context's cache.
    let mut compute_ms = 0.0;
    for (_, _, config) in common::sweep_configs()
        .iter()
        .filter(|c| c.0 == Group::Grid)
    {
        let one = Instant::now();
        std::hint::black_box(Attribution::compute(&bench.ds, &bench.corpus, config));
        compute_ms += one.elapsed().as_secs_f64() * 1e3;
    }
    metrics.set("attribution.compute_ms", compute_ms);

    // The production pass through the evaluation API: the reference
    // outcome, the group times and the context cache's hit share.
    let ctx = bench.ctx();
    let (reference, times) = common::sweep_pass(&ctx);
    let cache = ctx.attribution_cache_stats();
    metrics.set(
        "attribution.cache_hit_frac",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    metrics.set("eval.grid_s", times[0]);
    metrics.set("eval.alpha_sweep_s", times[1]);
    metrics.set("eval.window_sweep_s", times[2]);
    common::record_quality(&reference, metrics);

    let untraced_started = Instant::now();
    let (plain, _, _, _) = recomposed_pass(&bench, &ctx, &Tracer::new(false));
    let untraced = untraced_started.elapsed().as_secs_f64();
    let traced_started = Instant::now();
    let (points, totals, scored, top_k) = recomposed_pass(&bench, &ctx, &tracer);
    let traced = traced_started.elapsed().as_secs_f64();
    for (label, pass) in [("untraced", &plain), ("traced", &points)] {
        ops.check(common::same_points(&reference, pass), || {
            format!("{label} recomposed pass differs from the evaluation API's")
        });
        ops.check(
            pass.iter().zip(&reference).all(|(a, b)| a.mean == b.mean),
            || format!("{label} recomposed means differ from the evaluation API's"),
        );
    }
    metrics.set("trace.overhead_frac", traced / untraced - 1.0);
    record_traversal(&totals, scored, top_k, metrics);
    metrics.set("langid.train_ms", langid_train_ms());

    let spans = tracer.into_spans();
    let layers = trace::by_name(&spans);
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
    let top = layers
        .get("index.score_top_k")
        .map(|l| stats::summarize(&l.durations(1e3)));
    metrics.set("index.score_top_k_us.p50", top.map_or(0.0, |s| s.p50));
    metrics.set("index.score_top_k_us.p99", top.map_or(0.0, |s| s.tail));
    metrics.set(
        "index.score_all_us.p50",
        p50(&layers, "index.score_all", 1e3),
    );
    metrics.set(
        "index.score_components_us.p50",
        p50(&layers, "index.score_components", 1e3),
    );
    metrics.set(
        "ranker.rank_scored_us.p50",
        p50(&layers, "ranker.rank_scored", 1e3),
    );
    metrics.set(
        "ranker.rank_components_us.p50",
        p50(&layers, "ranker.rank_components", 1e3),
    );
    metrics.set(
        "metrics.evaluate_us.p50",
        p50(&layers, "metrics.evaluate", 1e3),
    );
    metrics.set(
        "trace.unattributed_frac",
        trace::unattributed_frac(
            &spans,
            &["eval.grid", "eval.alpha_sweep", "eval.window_sweep"],
        ),
    );
    trace::write_spans(&common::spans_path(args), &spans)
        .map_err(|e| format!("cannot write spans: {e}"))?;
    let mut details = vec![format!(
        "recomposed pass: untraced {untraced:.3} s, traced {traced:.3} s"
    )];
    details.extend(trace::layer_lines(&spans));
    Ok(details)
}
