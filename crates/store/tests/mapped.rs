//! Mapped-shard (`RCSHRD02`) contract tests: owned ↔ mapped parity
//! through real files, warm/cold open behaviour, the sidecar
//! invalidation matrix (truncate / extend / touch / corrupt / forge), and
//! byte-identical re-saves of a loaded snapshot.

use rightcrowd_core::testkit;
use rightcrowd_store::{
    load_sharded, manifest_path, open_mapped, read_sidecar, save_sharded, save_sharded_with,
    shard_path, sidecar_path, write_sidecar, Sidecar, SnapshotLayout, StoreError,
    SHARD_FORMAT_VERSION,
};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcstore-mapped-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Saves the tiny study as an `n`-shard snapshot through the explicit-layout
/// entry point external harnesses call.
fn save_tiny_mapped(tag: &str, n: usize) -> PathBuf {
    let dir = temp_dir(tag);
    let (ds, corpus) = testkit::tiny();
    let stats =
        save_sharded_with(&dir, ds, corpus, n, 2, SnapshotLayout::Mapped).expect("mapped save");
    assert_eq!(stats.shard_count, n);
    dir
}

fn delete_sidecars(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rcv") {
            std::fs::remove_file(path).unwrap();
        }
    }
}

/// Re-signs an `RCSHRD02` file's trailing whole-file digest after
/// tampering (the forged-shard attack: internally consistent bytes whose
/// digest no longer matches the manifest's promise).
fn resign_mapped_trailer(bytes: &mut [u8]) {
    let end = bytes.len() - 8;
    let crc = rightcrowd_store::crc64(&bytes[..end]);
    bytes[end..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn open_mapped_is_warm_after_save_and_cold_after_sidecar_loss() {
    let dir = save_tiny_mapped("warmcold", 2);
    // Every file got a sidecar at save time — first open is already warm.
    let (index, stats) = open_mapped(&dir).expect("warm open");
    assert!(stats.warm, "save-time sidecars should make the first open warm");
    assert!(index.is_mapped());
    assert_eq!(stats.shard_count, 2);
    assert!(stats.mapped_bytes > 0);
    assert!(stats.manifest_digest != 0);

    // Drop the sidecars: the open must fall back to full verification —
    // and earn the sidecars back.
    delete_sidecars(&dir);
    let (index2, stats2) = open_mapped(&dir).expect("cold open");
    assert!(!stats2.warm);
    assert_eq!(index, index2, "cold and warm opens see the same index");
    assert!(sidecar_path(&shard_path(&dir, 0)).is_file(), "cold open rewrites sidecars");
    assert!(sidecar_path(&manifest_path(&dir)).is_file());
    let (_, stats3) = open_mapped(&dir).expect("re-warmed open");
    assert!(stats3.warm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_mapped_matches_the_built_index_and_scores_identically() {
    let (_, corpus) = testkit::tiny();
    let mapped_dir = save_tiny_mapped("openparity-mapped", 3);
    let (index, _) = open_mapped(&mapped_dir).expect("mapped open");
    assert!(index.is_mapped() && !corpus.index().is_mapped());
    assert_eq!(corpus.index(), &index);
    let query = rightcrowd_index::Query::from_terms(["swim", "code", "cook"]);
    let a = corpus.index().score_top_k(&query, 0.6, 10, |_| true);
    let b = index.score_top_k(&query, 0.6, 10, |_| true);
    assert_eq!(a, b);
    std::fs::remove_dir_all(&mapped_dir).ok();
}

#[test]
fn truncated_shard_is_typed_error_never_a_stale_map() {
    let dir = save_tiny_mapped("truncate", 2);
    let path = shard_path(&dir, 1);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 17]).unwrap();
    match open_mapped(&dir) {
        Err(StoreError::ShardChecksumMismatch { index: 1 }) => {}
        other => panic!("expected ShardChecksumMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn extended_shard_is_typed_error() {
    let dir = save_tiny_mapped("extend", 2);
    let path = shard_path(&dir, 0);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&[0u8; 9]);
    std::fs::write(&path, &bytes).unwrap();
    match open_mapped(&dir) {
        Err(StoreError::ShardChecksumMismatch { index: 0 }) => {}
        other => panic!("expected ShardChecksumMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn touched_shard_falls_back_to_full_verification() {
    let dir = save_tiny_mapped("touch", 2);
    let path = shard_path(&dir, 0);
    // Same bytes, new mtime: the sidecar is stale, the data is fine.
    let later = std::time::UNIX_EPOCH + std::time::Duration::from_secs(4_000_000_000);
    std::fs::File::options().append(true).open(&path).unwrap().set_modified(later).unwrap();
    let (_, stats) = open_mapped(&dir).expect("open after touch");
    assert!(!stats.warm, "stale sidecar must force the streamed pass");
    // The fallback re-verified and re-attested; next open is warm again.
    let (_, stats2) = open_mapped(&dir).expect("re-warmed");
    assert!(stats2.warm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_shard_payload_is_typed_error() {
    let dir = save_tiny_mapped("corrupt", 1);
    let path = shard_path(&dir, 0);
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one payload byte mid-file; the trailer still matches the
    // manifest, so only the streamed CRC pass can catch it — which the
    // now-stale sidecar (mtime changed by the rewrite) forces.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    match open_mapped(&dir) {
        Err(
            StoreError::ShardChecksumMismatch { index: 0 }
            | StoreError::ChecksumMismatch { .. }
            | StoreError::Corrupt(_),
        ) => {}
        other => panic!("expected a checksum/corrupt error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forged_sidecar_cannot_bless_tampered_bytes() {
    let dir = save_tiny_mapped("forge", 1);
    let path = shard_path(&dir, 0);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    // Make the file internally consistent again (re-signed trailer), then
    // forge a sidecar that faithfully attests the *tampered* file.
    resign_mapped_trailer(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    let forged_digest = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    let sc = Sidecar::for_file(&path, SHARD_FORMAT_VERSION, forged_digest).unwrap();
    write_sidecar(&path, &sc).unwrap();
    assert_eq!(read_sidecar(&path).unwrap(), sc, "forged sidecar is well-formed");
    // The manifest's digest is the trust anchor: the forged sidecar does
    // not match it, the trailer does not match it — typed error.
    match open_mapped(&dir) {
        Err(StoreError::ShardChecksumMismatch { index: 0 }) => {}
        other => panic!("expected ShardChecksumMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn touched_manifest_falls_back_without_losing_the_open() {
    let dir = save_tiny_mapped("manifest-touch", 2);
    let later = std::time::UNIX_EPOCH + std::time::Duration::from_secs(4_000_000_000);
    std::fs::File::options()
        .append(true)
        .open(manifest_path(&dir))
        .unwrap()
        .set_modified(later)
        .unwrap();
    let (_, stats) = open_mapped(&dir).expect("open after manifest touch");
    assert!(!stats.warm);
    let (_, stats2) = open_mapped(&dir).expect("re-warmed");
    assert!(stats2.warm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mapped_corpus_saves_back_to_identical_bytes() {
    let dir = save_tiny_mapped("resave", 2);
    let (mp_ds, mp_corpus, _) = load_sharded(&dir, 2).unwrap();
    assert!(mp_corpus.index().is_mapped());
    // The writer regenerates every shard from the mapped index's
    // canonical parts — byte-identical output.
    let again = temp_dir("resave-again");
    save_sharded(&again, &mp_ds, &mp_corpus, 2, 2).unwrap();
    assert_eq!(
        std::fs::read(manifest_path(&dir)).unwrap(),
        std::fs::read(manifest_path(&again)).unwrap()
    );
    for i in 0..2 {
        assert_eq!(
            std::fs::read(shard_path(&dir, i)).unwrap(),
            std::fs::read(shard_path(&again, i)).unwrap(),
            "shard {i}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&again).ok();
}

#[test]
fn obs_counters_track_mapped_opens() {
    let dir = save_tiny_mapped("obs", 2);
    let before_opens = rightcrowd_obs::counter::get(rightcrowd_obs::CounterId::MmapOpens);
    let before_hits = rightcrowd_obs::counter::get(rightcrowd_obs::CounterId::SidecarHits);
    let before_bytes = rightcrowd_obs::counter::get(rightcrowd_obs::CounterId::MappedBytes);
    let (_, stats) = open_mapped(&dir).expect("warm open");
    if cfg!(feature = "obs-off") {
        assert_eq!(rightcrowd_obs::counter::get(rightcrowd_obs::CounterId::MmapOpens), 0);
    } else {
        assert!(rightcrowd_obs::counter::get(rightcrowd_obs::CounterId::MmapOpens) >= before_opens + 2);
        // Manifest + 2 shards, all warm.
        assert!(rightcrowd_obs::counter::get(rightcrowd_obs::CounterId::SidecarHits) >= before_hits + 3);
        assert!(
            rightcrowd_obs::counter::get(rightcrowd_obs::CounterId::MappedBytes)
                >= before_bytes + stats.mapped_bytes
        );
    }
    delete_sidecars(&dir);
    let before_misses = rightcrowd_obs::counter::get(rightcrowd_obs::CounterId::SidecarMisses);
    open_mapped(&dir).expect("cold open");
    if !cfg!(feature = "obs-off") {
        assert!(rightcrowd_obs::counter::get(rightcrowd_obs::CounterId::SidecarMisses) >= before_misses + 3);
    }
    std::fs::remove_dir_all(&dir).ok();
}
