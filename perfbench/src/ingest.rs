//! `ingest-small`: the write side. A cold build of a freshly generated
//! small dataset with `AnalyzedCorpus::build_with`, a mapped-layout
//! `save_sharded` made durable, and a reopen check.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rightcrowd_annotate::{Annotator, AnnotatorConfig};
use rightcrowd_bench::runner::Bench;
use rightcrowd_bench::serve_app::rank_response;
use rightcrowd_core::{AnalysisPipeline, AnalyzedCorpus, AnalyzedDoc, CorpusOptions, FinderConfig};
use rightcrowd_langid::LanguageIdentifier;
use rightcrowd_synth::SyntheticDataset;
use rightcrowd_text::{sanitize, tokenize, TextProcessor};

use crate::common::{self, Args, Metrics, Ops, Scale};
use crate::serve::{langid_train_ms, p50};
use crate::stats;
use crate::trace::{self, Tracer};

/// Pipeline constructions before the first build and after each build;
/// `setup_s` is the median of them all, so that its samples span the run.
const SETUP_REPEATS: usize = 5;

/// Times [`SETUP_REPEATS`] pipeline constructions into `setups`.
fn time_setups(ds: &SyntheticDataset, setups: &mut Vec<f64>) {
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        std::hint::black_box(AnalysisPipeline::new(ds.kb()));
        setups.push(started.elapsed().as_secs_f64());
    }
}

/// Where one run saves its snapshot (inside the benchmark's area).
fn save_dir(args: &Args) -> PathBuf {
    args.area
        .join("ingest")
        .join(format!("seed{}-{}", args.seed, std::process::id()))
}

/// Saves `corpus` in the mapped layout and makes every file durable.
/// Returns the bytes written.
fn save_durable(dir: &Path, ds: &SyntheticDataset, corpus: &AnalyzedCorpus) -> Result<u64, String> {
    let saved = rightcrowd_store::save_sharded_with(
        dir,
        ds,
        corpus,
        common::SHARDS,
        common::threads(),
        rightcrowd_store::SnapshotLayout::Mapped,
    )
    .map_err(|e| format!("cannot save {}: {e}", dir.display()))?;
    let sync = |path: &Path| {
        std::fs::File::open(path)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("cannot sync {}: {e}", path.display()))
    };
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        if entry.path().is_file() {
            sync(&entry.path())?;
        }
    }
    sync(dir)?;
    Ok(saved.bytes)
}

/// Documents the corpus build analyses: profiles, resources, containers.
fn doc_count(ds: &SyntheticDataset) -> usize {
    ds.graph().profiles().len() + ds.graph().resources().len() + ds.graph().containers().len()
}

/// Reopens the saved snapshot and checks that it ranks every need as the
/// in-memory corpus does. Returns the reopened bench and the open's ms.
fn reopen_check(dir: &Path, built: &Bench, ops: &mut Ops) -> Result<(Bench, f64), String> {
    let (reopened, open_ms) = common::open(dir)?;
    ops.check(reopened.corpus.index() == built.corpus.index(), || {
        "reopened index differs".into()
    });
    let config = FinderConfig::default();
    let a = built.ctx().attribution(&config);
    let b = reopened.ctx().attribution(&config);
    for (i, need) in built.ds.queries().iter().enumerate() {
        let want = rank_response(built, &a, &config, &need.text, 10).0;
        let got = rank_response(&reopened, &b, &config, &need.text, 10).0;
        ops.check(want == got, || {
            format!("need {i} ranks differently after reopening")
        });
    }
    Ok((reopened, open_ms))
}

/// The untraced run: every end-to-end metric.
///
/// `latency_p50_ms` is the median wall time of one build made durable;
/// `throughput_per_s` the documents per second of that median build.
pub fn run(args: &Args, ops: &mut Ops, metrics: &mut Metrics) -> Result<Vec<String>, String> {
    let ds = SyntheticDataset::generate(&common::dataset_config(
        Scale::Small,
        args.data_seed,
        args.tiny,
    ));
    let docs = doc_count(&ds);
    let mut setups = Vec::new();
    time_setups(&ds, &mut setups);

    // The first build is saved and reopened; the reopened snapshot must
    // rank as the build does, and gives the quality metrics.
    let dir = save_dir(args);
    let first_dir = dir.join("first");
    let measuring = Instant::now();
    let corpus = AnalyzedCorpus::build_with(&ds, &CorpusOptions::default());
    let bytes = save_durable(&first_dir, &ds, &corpus)?;
    let mut builds = vec![measuring.elapsed().as_secs_f64()];
    metrics.set(
        "snapshot_bytes_per_doc",
        bytes as f64 / corpus.retained() as f64,
    );
    let built = Bench {
        ds,
        corpus,
        generate_ms: 0.0,
        analyze_ms: 0.0,
    };
    let (reopened, _) = reopen_check(&first_dir, &built, ops)?;
    common::record_default_quality(&reopened.ctx(), metrics);
    drop(reopened);

    // Further builds fill the run's seconds (at least three in all).
    let next_dir = dir.join("next");
    while builds.len() < 3 || measuring.elapsed().as_secs_f64() < args.seconds {
        std::fs::remove_dir_all(&next_dir).ok();
        let started = Instant::now();
        let corpus = AnalyzedCorpus::build_with(&built.ds, &CorpusOptions::default());
        save_durable(&next_dir, &built.ds, &corpus)?;
        builds.push(started.elapsed().as_secs_f64());
        ops.check(corpus.index() == built.corpus.index(), || {
            "cold builds disagree".into()
        });
        time_setups(&built.ds, &mut setups);
    }
    metrics.set("setup_s", stats::median_of(&setups).unwrap_or(0.0));
    let build_s = stats::median_of(&builds).unwrap_or(0.0);
    metrics.set("latency_p50_ms", build_s * 1e3);
    metrics.set("throughput_per_s", docs as f64 / build_s);
    metrics.set("peak_rss_mb", common::peak_rss_mb(None).unwrap_or(0.0));
    std::fs::remove_dir_all(&dir).ok();
    Ok(vec![
        format!("docs = {docs}"),
        format!("setup_s samples = {setups:?}"),
        format!("build_s samples = {builds:?}"),
    ])
}

/// The stages of `AnalysisPipeline` as the corpus build configures them.
struct Stages<'kb> {
    identifier: LanguageIdentifier,
    processor: TextProcessor,
    annotator: Annotator<'kb>,
}

/// `AnalysisPipeline::analyze_doc` (gated) or `analyze_doc_ungated`,
/// recomposed from the stage calls it makes, each in a span. `None` when
/// the language gate drops the document.
fn analyze_doc_traced(
    s: &Stages<'_>,
    raw: &str,
    pages: &[&str],
    gated: bool,
    tracer: &Tracer,
    rid: u64,
) -> Option<AnalyzedDoc> {
    tracer.span("pipeline.analyze_doc", rid, || {
        let sanitized = tracer.span("text.sanitize", rid, || sanitize(raw));
        let language = tracer.span("langid.detect", rid, || {
            s.identifier.detect(&sanitized.text)
        });
        if gated && !language.retained() {
            return None;
        }
        let mut enriched = sanitized.text;
        for page in pages {
            enriched.push(' ');
            enriched.push_str(page);
        }
        let tokens = tracer.span("text.tokenize", rid, || tokenize(&enriched));
        let entities = tracer
            .span("annotate.tokens", rid, || {
                s.annotator.annotate_tokens(&tokens)
            })
            .into_iter()
            .map(|a| (a.entity, a.dscore))
            .collect();
        let terms = tracer.span("text.process", rid, || s.processor.process_clean(&enriched));
        Some(AnalyzedDoc {
            terms,
            entities,
            language,
        })
    })
}

/// Counts of one recomposed analysis pass.
#[derive(Debug, Default)]
struct Census {
    gated: usize,
    dropped: usize,
    retained: usize,
    entities: usize,
}

/// The corpus build's analysis and index construction, recomposed on one
/// thread in the build's job order. Returns the index it builds.
fn recomposed_build(
    ds: &SyntheticDataset,
    s: &Stages<'_>,
    tracer: &Tracer,
) -> (rightcrowd_index::InvertedIndex, Census) {
    let graph = ds.graph();
    let web = ds.web();
    let mut builder = rightcrowd_index::IndexBuilder::new();
    let mut census = Census::default();
    let mut rid = 0u64;
    let mut one = |raw: &str, links: &[rightcrowd_types::PageId], gated: bool| {
        let pages: Vec<&str> = links.iter().map(|&p| web.text(p)).collect();
        rid += 1;
        census.gated += usize::from(gated);
        match analyze_doc_traced(s, raw, &pages, gated, tracer, rid) {
            Some(doc) => {
                census.retained += 1;
                census.entities += doc.entities.len();
                builder.add_document(&doc.terms, &doc.entities);
            }
            None => census.dropped += 1,
        }
    };
    for p in graph.profiles() {
        one(&p.text, &p.links, false);
    }
    for r in graph.resources() {
        one(&r.text, &r.links, true);
    }
    for c in graph.containers() {
        one(&c.text, &c.links, true);
    }
    (builder.build(), census)
}

/// The traced run: every per-layer metric.
pub fn run_traced(
    args: &Args,
    ops: &mut Ops,
    metrics: &mut Metrics,
) -> Result<Vec<String>, String> {
    let ds = SyntheticDataset::generate(&common::dataset_config(
        Scale::Small,
        args.data_seed,
        args.tiny,
    ));
    let setup = Tracer::new(true);
    setup.span("pipeline.new", 0, || {
        std::hint::black_box(AnalysisPipeline::new(ds.kb()))
    });
    let setup_layers = trace::by_name(&setup.into_spans());
    metrics.set("pipeline.new_ms", p50(&setup_layers, "pipeline.new", 1e6));
    metrics.set("langid.train_ms", langid_train_ms());

    // The production build, untraced: the reference output.
    let started = Instant::now();
    let corpus = AnalyzedCorpus::build_with(&ds, &CorpusOptions::default());
    metrics.set("corpus.build_s", started.elapsed().as_secs_f64());

    let stages = Stages {
        identifier: LanguageIdentifier::new(),
        processor: TextProcessor::default(),
        annotator: Annotator::with_config(ds.kb(), AnnotatorConfig::default()),
    };
    let started = Instant::now();
    let (plain, _) = recomposed_build(&ds, &stages, &Tracer::new(false));
    let untraced = started.elapsed().as_secs_f64();
    let tracer = Tracer::new(true);
    let started = Instant::now();
    let (index, census) = recomposed_build(&ds, &stages, &tracer);
    let traced = started.elapsed().as_secs_f64();
    for (label, built) in [("untraced", &plain), ("traced", &index)] {
        ops.check(built == corpus.index(), || {
            format!("{label} recomposed index differs from build_with's")
        });
    }
    ops.check(census.dropped == corpus.dropped_non_english(), || {
        "recomposed drop count differs".into()
    });
    metrics.set("trace.overhead_frac", traced / untraced - 1.0);
    metrics.set(
        "langid.dropped_frac",
        census.dropped as f64 / census.gated.max(1) as f64,
    );
    metrics.set(
        "annotate.entities_per_doc",
        census.entities as f64 / census.retained.max(1) as f64,
    );

    let dir = save_dir(args);
    std::fs::remove_dir_all(&dir).ok();
    let started = Instant::now();
    let bytes = save_durable(&dir, &ds, &corpus)?;
    metrics.set("store.save_s", started.elapsed().as_secs_f64());
    metrics.set("store.bytes", bytes as f64);
    let built = Bench {
        ds,
        corpus,
        generate_ms: 0.0,
        analyze_ms: 0.0,
    };
    let (_, open_ms) = reopen_check(&dir, &built, ops)?;
    metrics.set("store.open_ms", open_ms);
    std::fs::remove_dir_all(&dir).ok();

    let ctx = built.ctx();
    let (points, _) = common::sweep_pass(&ctx);
    common::record_quality(&points, metrics);

    let spans = tracer.into_spans();
    let layers = trace::by_name(&spans);
    metrics.set(
        "pipeline.analyze_doc_us.p50",
        p50(&layers, "pipeline.analyze_doc", 1e3),
    );
    metrics.set("langid.detect_us.p50", p50(&layers, "langid.detect", 1e3));
    metrics.set("text.process_us.p50", p50(&layers, "text.process", 1e3));
    metrics.set(
        "annotate.tokens_us.p50",
        p50(&layers, "annotate.tokens", 1e3),
    );
    metrics.set(
        "trace.unattributed_frac",
        trace::unattributed_frac(&spans, &["pipeline.analyze_doc"]),
    );
    trace::write_spans(&common::spans_path(args), &spans)
        .map_err(|e| format!("cannot write spans: {e}"))?;
    let mut details = vec![
        format!("recomposed build: untraced {untraced:.3} s, traced {traced:.3} s"),
        format!("census = {census:?}"),
    ];
    details.extend(trace::layer_lines(&spans));
    Ok(details)
}
