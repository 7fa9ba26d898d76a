//! Shared experiment plumbing.

use rightcrowd_core::{AnalyzedCorpus, EvalContext};
use rightcrowd_synth::{DatasetConfig, SyntheticDataset};

/// The dataset scale selected by `RIGHTCROWD_SCALE` (tiny/small/paper).
pub fn scale_label() -> String {
    std::env::var("RIGHTCROWD_SCALE").unwrap_or_else(|_| "small".to_owned())
}

/// Loads the dataset at the selected scale.
pub fn load_dataset() -> SyntheticDataset {
    let config = match scale_label().as_str() {
        "tiny" => DatasetConfig::tiny(),
        "paper" => DatasetConfig::paper(),
        "small" => DatasetConfig::small(),
        other => {
            eprintln!("unknown RIGHTCROWD_SCALE {other:?}, using small");
            DatasetConfig::small()
        }
    };
    SyntheticDataset::generate(&config)
}

/// The shard count a snapshot gets when no `--shards` is given, both
/// from `rc save` and when a cache miss writes one.
pub const DEFAULT_SHARDS: usize = 4;

/// How an existing snapshot was loaded, for progress output and the
/// daemon's `/healthz` report.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotLoad {
    /// Shard files opened.
    pub shard_count: usize,
    /// Total bytes verified or mapped: manifest plus every shard.
    pub bytes: u64,
    /// The manifest's whole-file digest — the snapshot identity
    /// `/healthz` fingerprints (it attests the shard table and thus every
    /// shard without paging the index in).
    pub manifest_digest: u64,
    /// Wall time of read + verify + decode + map, milliseconds.
    pub elapsed_ms: f64,
}

/// Loads an *existing* snapshot directory (one holding `manifest.rcm`).
/// A regular file — a retired single-file snapshot — and a manifest-less
/// directory are refused with an error saying what to do, never treated
/// as a cache miss. This is the one loader every `--snapshot` consumer
/// shares — `rc bench`, `explain`, `flight`, `regress`, `soak`, and the
/// resident `rc serve` daemon — so integrity failures behave identically
/// everywhere.
pub fn load_snapshot(
    path: &std::path::Path,
    threads: usize,
) -> Result<(SyntheticDataset, AnalyzedCorpus, SnapshotLoad), String> {
    if rightcrowd_store::is_sharded(path) {
        let (ds, corpus, stats) = rightcrowd_store::load_sharded(path, threads)
            .map_err(|e| format!("snapshot {}: {e}", path.display()))?;
        let load = SnapshotLoad {
            shard_count: stats.shard_count,
            bytes: stats.bytes,
            manifest_digest: stats.manifest_digest,
            elapsed_ms: stats.elapsed_ms,
        };
        return Ok((ds, corpus, load));
    }
    if path.is_file() {
        return Err(format!(
            "snapshot {}: is a single file, a retired snapshot format; snapshots are \
             directories now — re-save it with `rc save --snapshot DIR`",
            path.display()
        ));
    }
    if path.is_dir() {
        return Err(format!(
            "snapshot {}: directory exists but holds no {}",
            path.display(),
            rightcrowd_store::MANIFEST_FILE
        ));
    }
    Err(format!("snapshot {}: no such file or directory", path.display()))
}

/// A ready-to-run experiment bench: dataset + analysed corpus, plus the
/// build timings recorded for the perf trajectory (`BENCH_<scale>.json`).
pub struct Bench {
    /// The generated dataset.
    pub ds: SyntheticDataset,
    /// The analysed corpus.
    pub corpus: AnalyzedCorpus,
    /// Wall-clock milliseconds spent generating the dataset.
    pub generate_ms: f64,
    /// Wall-clock milliseconds spent analysing + indexing the corpus.
    pub analyze_ms: f64,
}

impl Bench {
    /// Generates and analyses at the environment-selected scale, with
    /// progress output on stderr.
    pub fn prepare() -> Self {
        eprintln!("[bench] generating dataset (scale: {})...", scale_label());
        let started = std::time::Instant::now();
        let ds = load_dataset();
        let generate_ms = started.elapsed().as_secs_f64() * 1e3;
        let (persons, profiles, resources, containers) = ds.graph().counts();
        eprintln!(
            "[bench]   {persons} candidates / {profiles} profiles / {resources} resources / {containers} containers ({generate_ms:.0} ms)",
        );
        eprintln!("[bench] analysing corpus (pipeline + indexing)...");
        let started = std::time::Instant::now();
        let corpus = AnalyzedCorpus::build(&ds);
        let analyze_ms = started.elapsed().as_secs_f64() * 1e3;
        eprintln!(
            "[bench]   {} retained, {} dropped as non-English ({analyze_ms:.0} ms)",
            corpus.retained(),
            corpus.dropped_non_english(),
        );
        Bench { ds, corpus, generate_ms, analyze_ms }
    }

    /// Like [`Bench::prepare`], but served from a snapshot directory when
    /// one is given: an existing snapshot is loaded (verified checksums,
    /// no pipeline run — the *query many* half of the serving story), and
    /// a missing path is populated (with [`DEFAULT_SHARDS`] shards) after
    /// the cold build so the next run — or the next CI job — hits the
    /// cache. A damaged or mismatched snapshot, a regular file, or a
    /// manifest-less directory is an error (rendered), never a silent
    /// rebuild and never overwritten.
    pub fn prepare_with(snapshot: Option<&std::path::Path>) -> Result<Self, String> {
        let Some(path) = snapshot else { return Ok(Self::prepare()) };
        let threads = rightcrowd_core::par::default_threads();
        if path.exists() {
            eprintln!("[bench] loading snapshot {}...", path.display());
            let (ds, corpus, load) = load_snapshot(path, threads)?;
            eprintln!(
                "[bench]   {} retained docs from {} shard(s) / {} bytes in {:.0} ms (pipeline skipped)",
                corpus.retained(),
                load.shard_count,
                load.bytes,
                load.elapsed_ms,
            );
            // No pipeline ran, so there are no build timings to report.
            return Ok(Bench { ds, corpus, generate_ms: 0.0, analyze_ms: 0.0 });
        }
        let bench = Self::prepare();
        match rightcrowd_store::save_sharded(path, &bench.ds, &bench.corpus, DEFAULT_SHARDS, threads)
        {
            Ok(saved) => eprintln!(
                "[bench]   cached snapshot {} ({} shards, {} bytes, {:.0} ms)",
                path.display(),
                saved.shard_count,
                saved.bytes,
                saved.elapsed_ms,
            ),
            // A failed cache write only costs the next run a rebuild.
            Err(e) => eprintln!("[bench]   warning: cannot cache {}: {e}", path.display()),
        }
        Ok(bench)
    }

    /// The evaluation context over this bench.
    pub fn ctx(&self) -> EvalContext<'_> {
        EvalContext::new(&self.ds, &self.corpus)
    }
}

/// Least-squares linear regression over (x, y) points.
/// Returns `(slope, intercept, pearson_r)`; zeros on degenerate input.
pub fn linear_regression(points: &[(f64, f64)]) -> (f64, f64, f64) {
    let n = points.len() as f64;
    if points.len() < 2 {
        return (0.0, 0.0, 0.0);
    }
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let syy: f64 = points.iter().map(|p| p.1 * p.1).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let cov = sxy - sx * sy / n;
    let var_x = sxx - sx * sx / n;
    let var_y = syy - sy * sy / n;
    if var_x <= 0.0 || var_y <= 0.0 {
        return (0.0, sy / n, 0.0);
    }
    let slope = cov / var_x;
    let intercept = (sy - slope * sx) / n;
    let r = cov / (var_x * var_y).sqrt();
    (slope, intercept, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_with_rejects_a_damaged_snapshot() {
        let dir = std::env::temp_dir().join(format!("rc-runner-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(rightcrowd_store::manifest_path(&dir), b"definitely not a manifest").unwrap();
        let err = match Bench::prepare_with(Some(&dir)) {
            Err(err) => err,
            Ok(_) => panic!("damaged snapshot must fail"),
        };
        assert!(err.contains("rc-runner-test"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_single_file_snapshot_is_refused_and_left_unchanged() {
        let dir = std::env::temp_dir().join(format!("rc-runner-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.rcs");
        let contents = b"RCSNAP01 a retired single-file snapshot".to_vec();
        std::fs::write(&path, &contents).unwrap();
        let err = match Bench::prepare_with(Some(&path)) {
            Err(err) => err,
            Ok(_) => panic!("a regular file must not load"),
        };
        assert!(err.contains("corpus.rcs") && err.contains("rc save"), "{err}");
        assert!(load_snapshot(&path, 2).unwrap_err().contains("rc save"));
        assert_eq!(std::fs::read(&path).unwrap(), contents, "the file must be left unchanged");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prepare_with_loads_a_sharded_directory() {
        let (ds, corpus) = rightcrowd_core::testkit::tiny();
        let dir = std::env::temp_dir().join(format!("rc-runner-sharded-{}", std::process::id()));
        rightcrowd_store::save_sharded(&dir, ds, corpus, 3, 2).unwrap();
        let bench = Bench::prepare_with(Some(&dir)).unwrap();
        assert_eq!(bench.corpus.index(), corpus.index());
        // A directory that is not a snapshot must not be treated as a
        // cache miss and silently overwritten.
        std::fs::remove_file(rightcrowd_store::manifest_path(&dir)).unwrap();
        let err = match Bench::prepare_with(Some(&dir)) {
            Err(err) => err,
            Ok(_) => panic!("manifest-less directory must fail"),
        };
        assert!(err.contains("no manifest.rcm"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_snapshot_types_a_missing_path() {
        let missing = std::path::Path::new("/nonexistent/rc-snap.rcs");
        let err = load_snapshot(missing, 2).unwrap_err();
        assert!(err.contains("no such file"), "{err}");
    }

    #[test]
    fn regression_recovers_a_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 * i as f64 + 1.0)).collect();
        let (slope, intercept, r) = linear_regression(&pts);
        assert!((slope - 2.0).abs() < 1e-9);
        assert!((intercept - 1.0).abs() < 1e-9);
        assert!((r - 1.0).abs() < 1e-9);
    }

    #[test]
    fn regression_degenerate_cases() {
        assert_eq!(linear_regression(&[]), (0.0, 0.0, 0.0));
        assert_eq!(linear_regression(&[(1.0, 2.0)]), (0.0, 0.0, 0.0));
        // Vertical spread with no x variance.
        let (s, _, r) = linear_regression(&[(1.0, 1.0), (1.0, 3.0)]);
        assert_eq!(s, 0.0);
        assert_eq!(r, 0.0);
    }

    #[test]
    fn negative_correlation() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, -(i as f64))).collect();
        let (_, _, r) = linear_regression(&pts);
        assert!((r + 1.0).abs() < 1e-9);
    }
}
