//! Snapshot round trip: build once, save a snapshot directory, load it
//! back and serve queries without re-running the pipeline.
//!
//! ```sh
//! cargo run --release --example snapshot
//! ```

use rightcrowd::core::{AnalyzedCorpus, ExpertFinder, FinderConfig};
use rightcrowd::store;
use rightcrowd::synth::{DatasetConfig, SyntheticDataset};
use std::time::Instant;

fn main() {
    // Build once: the expensive half (synthesis + analysis + indexing).
    println!("building (tiny preset)...");
    let started = Instant::now();
    let dataset = SyntheticDataset::generate(&DatasetConfig::tiny());
    let corpus = AnalyzedCorpus::build(&dataset);
    let build_ms = started.elapsed().as_secs_f64() * 1e3;
    println!("  {} documents indexed in {build_ms:.0} ms", corpus.retained());

    // Save: one directory holds everything the query path needs — a
    // checksummed manifest plus the postings split over mapped shards.
    let dir = std::env::temp_dir().join(format!("rightcrowd-example-{}.snap", std::process::id()));
    let saved = store::save_sharded(&dir, &dataset, &corpus, 2, 2).expect("save snapshot");
    println!(
        "saved {} ({} shards + {} byte manifest, {} bytes in {:.0} ms)",
        dir.display(),
        saved.shard_count,
        saved.manifest_bytes,
        saved.bytes,
        saved.elapsed_ms
    );

    // Inspect the manifest layout (what `rc load` verifies first).
    let manifest = std::fs::read(store::manifest_path(&dir)).expect("read manifest back");
    println!("manifest sections:");
    for info in store::layout(&manifest, &store::MANIFEST_MAGIC).expect("layout") {
        println!("  {:<13} {:>8} bytes at {:>8}", info.name, info.len, info.offset);
    }

    // Load: verify checksums + version, map the shards — no pipeline run.
    let (loaded_ds, loaded_corpus, stats) = store::load_sharded(&dir, 2).expect("load snapshot");
    println!(
        "loaded in {:.0} ms ({:.1}x faster than the {build_ms:.0} ms build)",
        stats.elapsed_ms,
        build_ms / stats.elapsed_ms.max(0.001),
    );

    // Query many: the loaded state ranks identically to the fresh build.
    let config = FinderConfig::default();
    let finder = ExpertFinder::with_corpus(&loaded_ds, loaded_corpus, &config);
    let need = &loaded_ds.queries()[5]; // "famous European football teams"
    println!("\nexpertise need: {:?} [{}]", need.text, need.domain);
    println!("top-3 ranked experts (served from the snapshot):");
    for (rank, expert) in finder.top_k(need, 3).iter().enumerate() {
        let person = &loaded_ds.candidates()[expert.person.index()];
        println!("  {}. {:<22} score {:>9.2}", rank + 1, person.name, expert.score);
    }

    // Damage demo: flip one bit inside the manifest's graph section and
    // the load refuses with a typed error naming the section — never a
    // panic, never silent garbage.
    let graph = store::layout(&manifest, &store::MANIFEST_MAGIC)
        .expect("layout")
        .into_iter()
        .find(|info| info.name == "graph")
        .expect("graph section");
    let mut damaged = manifest.clone();
    let at = graph.offset + graph.len / 2;
    damaged[at] ^= 0x01;
    std::fs::write(store::manifest_path(&dir), &damaged).expect("write damaged manifest");
    match store::load_sharded(&dir, 2) {
        Err(e) => println!("\nflipped one bit at manifest byte {at}: {e}"),
        Ok(_) => unreachable!("a damaged snapshot must not load"),
    }

    std::fs::remove_dir_all(&dir).ok();
}
