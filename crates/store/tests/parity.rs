//! Save → load → rank parity, and deterministic re-serialisation.
//!
//! Ranked scores after a snapshot round trip are bit-identical to the
//! freshly built index across random synth configs, and saving the
//! loaded state again is byte-identical.

use rightcrowd_core::{AnalyzedCorpus, ExpertFinder, FinderConfig};
use rightcrowd_store::{load_sharded, manifest_path, save_sharded, shard_path};
use rightcrowd_synth::{DatasetConfig, SyntheticDataset};
use std::path::PathBuf;

/// Random-but-seeded config variations: different RNG seeds and volume
/// scalings around the tiny preset (kept tiny so the suite stays fast).
fn random_configs() -> Vec<DatasetConfig> {
    let mut configs = Vec::new();
    for (i, seed) in [0xEDB7_2015u64, 0xDEAD_BEEF, 7].into_iter().enumerate() {
        let mut cfg = DatasetConfig::tiny();
        cfg.seed = seed;
        // Vary the structure too, not just the seed.
        cfg.candidates = 6 + 2 * i;
        cfg.english_rate = (0.6 + 0.15 * i as f64).min(1.0);
        for v in &mut cfg.volumes {
            v.own_posts += i;
            v.annotations += i;
        }
        configs.push(cfg);
    }
    configs
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcstore-parity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn save_load_rank_parity_across_random_configs() {
    for (case, cfg) in random_configs().into_iter().enumerate() {
        let ds = SyntheticDataset::generate(&cfg);
        let corpus = AnalyzedCorpus::build(&ds);

        // Shard counts vary with the case, so 1-shard snapshots (the
        // former single-file case) are covered too.
        let dir = temp_dir(&format!("rank-{case}"));
        save_sharded(&dir, &ds, &corpus, 1 + 2 * case, 2).expect("save");
        let (loaded_ds, loaded_corpus, _) = load_sharded(&dir, 2).expect("round trip");

        // The reconstructed index must be *equal*, not merely equivalent.
        assert_eq!(
            corpus.index(),
            loaded_corpus.index(),
            "case {case}: index not identical after round trip"
        );
        assert_eq!(corpus.doc_ids(), loaded_corpus.doc_ids(), "case {case}");
        assert_eq!(
            corpus.dropped_non_english(),
            loaded_corpus.dropped_non_english(),
            "case {case}"
        );

        // Rank the whole workload through both stacks; scores must match
        // bit for bit.
        let config = FinderConfig::default();
        let fresh = ExpertFinder::with_corpus(&ds, corpus, &config);
        let loaded = ExpertFinder::with_corpus(&loaded_ds, loaded_corpus, &config);
        for need in ds.queries() {
            let a = fresh.rank(need);
            let b = loaded.rank(need);
            assert_eq!(a.len(), b.len(), "case {case}, query {:?}", need.text);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.person, y.person, "case {case}, query {:?}", need.text);
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "case {case}, query {:?}: {} vs {}",
                    need.text,
                    x.score,
                    y.score
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn second_save_of_loaded_state_is_byte_identical() {
    for (case, cfg) in random_configs().into_iter().enumerate() {
        let ds = SyntheticDataset::generate(&cfg);
        let corpus = AnalyzedCorpus::build(&ds);
        let first = temp_dir(&format!("first-{case}"));
        let second = temp_dir(&format!("second-{case}"));
        save_sharded(&first, &ds, &corpus, 3, 2).expect("save");
        let (loaded_ds, loaded_corpus, _) = load_sharded(&first, 2).expect("round trip");
        save_sharded(&second, &loaded_ds, &loaded_corpus, 3, 2).expect("re-save");
        let read = |dir: &PathBuf| {
            let mut files = vec![std::fs::read(manifest_path(dir)).unwrap()];
            files.extend((0..3).map(|i| std::fs::read(shard_path(dir, i)).unwrap()));
            files
        };
        assert_eq!(read(&first), read(&second), "case {case}: serialisation is not deterministic");
        std::fs::remove_dir_all(&first).ok();
        std::fs::remove_dir_all(&second).ok();
    }
}

/// `snapshot_bytes_read` is CUMULATIVE across loads in a process — it
/// answers "how many manifest bytes has this process read and verified",
/// not "how large was the last snapshot". Loading the same snapshot
/// twice therefore grows the counter by (at least, under concurrent
/// tests) the manifest size each time.
#[cfg(not(feature = "obs-off"))]
#[test]
fn snapshot_bytes_read_accumulates_across_loads() {
    use rightcrowd_obs::CounterId;

    let cfg = DatasetConfig::tiny();
    let ds = SyntheticDataset::generate(&cfg);
    let corpus = AnalyzedCorpus::build(&ds);
    let dir = temp_dir("counter");
    let saved = save_sharded(&dir, &ds, &corpus, 2, 2).expect("save");

    let before = rightcrowd_obs::counter::get(CounterId::SnapshotBytesRead);
    load_sharded(&dir, 2).expect("first load");
    let after_one = rightcrowd_obs::counter::get(CounterId::SnapshotBytesRead);
    load_sharded(&dir, 2).expect("second load");
    let after_two = rightcrowd_obs::counter::get(CounterId::SnapshotBytesRead);

    // ≥ rather than ==: the counter is process-global and other tests in
    // this binary may load snapshots concurrently.
    let len = saved.manifest_bytes;
    assert!(after_one >= before + len, "{after_one} vs {before} + {len}");
    assert!(after_two >= after_one + len, "{after_two} vs {after_one} + {len}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn save_load_through_the_filesystem() {
    let cfg = DatasetConfig::tiny();
    let ds = SyntheticDataset::generate(&cfg);
    let corpus = AnalyzedCorpus::build(&ds);
    let dir = temp_dir("fs");

    let saved = save_sharded(&dir, &ds, &corpus, 2, 2).unwrap();
    let on_disk = std::fs::metadata(manifest_path(&dir)).unwrap().len()
        + (0..2).map(|i| std::fs::metadata(shard_path(&dir, i)).unwrap().len()).sum::<u64>();
    assert_eq!(saved.bytes, on_disk);
    assert_eq!(saved.manifest_bytes, std::fs::metadata(manifest_path(&dir)).unwrap().len());

    let (loaded_ds, loaded_corpus, stats) = load_sharded(&dir, 2).unwrap();
    assert_eq!(stats.bytes, on_disk);
    assert_eq!(loaded_corpus.retained(), corpus.retained());
    assert_eq!(loaded_ds.graph().counts(), ds.graph().counts());

    std::fs::remove_dir_all(&dir).ok();
}
