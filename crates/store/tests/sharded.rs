//! Snapshot-directory contract tests: parity against the freshly built
//! index and fault injection over the manifest's shard table and the
//! `RCSHRD02` shard files.
//!
//! Parity: `save_sharded → load_sharded → rank` is bit-identical to the
//! built study for shard counts 1, 3 and 7. Fault injection: missing,
//! swapped, truncated and damaged shards; re-signed forgeries of block
//! metadata and layout; duplicate / overlapping / gapped term ranges; and
//! manifest/shard format-version skew (including the retired streamed
//! format 1) each surface as the exact typed [`StoreError`] — never a
//! panic, never a stale map.

use rightcrowd_core::{testkit, ExpertFinder, FinderConfig};
use rightcrowd_store::{
    crc64, layout, load_sharded, manifest_path, open_mapped, save_sharded, shard_path,
    StoreError, FLAG_PACKED_SECTIONS, MANIFEST_MAGIC,
};
use std::path::{Path, PathBuf};

/// A fresh temp directory for one test (removed-and-recreated so reruns
/// are clean).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcstore-sharded-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Saves the tiny study as an `n`-shard snapshot under a fresh directory.
fn save_tiny_sharded(tag: &str, n: usize) -> PathBuf {
    let dir = temp_dir(tag);
    let (ds, corpus) = testkit::tiny();
    let stats = save_sharded(&dir, ds, corpus, n, 2).expect("sharded save");
    assert_eq!(stats.shard_count, n);
    dir
}

/// Recomputes every checksum of a manifest after tampering: each
/// section's table CRC entry, the table CRC, and the whole-file CRC. With
/// the envelope re-signed, only the structural validators stand between
/// the tampered bytes and the loader.
fn resign(bytes: &mut [u8]) {
    let infos = layout(bytes, &MANIFEST_MAGIC).expect("layout");
    let table = infos.iter().find(|i| i.name == "table").expect("table region");
    for info in infos.iter().filter(|i| i.kind != 0) {
        let section_crc = crc64(&bytes[info.offset..info.offset + info.len]);
        let entry_count = (table.len - 8) / 20;
        for e in 0..entry_count {
            let at = table.offset + e * 20;
            let kind = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            if kind == info.kind {
                bytes[at + 12..at + 20].copy_from_slice(&section_crc.to_le_bytes());
            }
        }
    }
    let table_crc = crc64(&bytes[table.offset..table.offset + table.len - 8]);
    let tc_at = table.offset + table.len - 8;
    bytes[tc_at..tc_at + 8].copy_from_slice(&table_crc.to_le_bytes());
    let end = bytes.len() - 8;
    let file_crc = crc64(&bytes[..end]);
    bytes[end..].copy_from_slice(&file_crc.to_le_bytes());
}

/// Applies `tamper` to the manifest's shard-table payload, re-signs the
/// envelope, and writes the result back.
fn tamper_shard_table(dir: &Path, tamper: impl FnOnce(&mut [u8])) {
    let path = manifest_path(dir);
    let mut manifest = std::fs::read(&path).unwrap();
    let infos = layout(&manifest, &MANIFEST_MAGIC).expect("manifest layout");
    let info = infos.iter().find(|i| i.name == "shard_table").expect("shard_table section");
    // Packed manifests wrap each section with a one-byte packing tag (the
    // shard table itself rides raw); aim past it at the actual payload.
    let flags = u32::from_le_bytes(manifest[12..16].try_into().unwrap());
    let skip = usize::from(flags & FLAG_PACKED_SECTIONS != 0);
    tamper(&mut manifest[info.offset + skip..info.offset + info.len]);
    resign(&mut manifest);
    std::fs::write(&path, &manifest).unwrap();
}

// Shard-table payload layout: version u32 | term_count u64 |
// entity_count u64 | entry_count u64 | entries × 36 bytes
// (term_lo u32 | term_hi u32 | entity_lo u32 | entity_hi u32 |
//  byte_len u64 | digest u64 | flags u32).
const TABLE_HEADER: usize = 4 + 8 + 8 + 8;
const ENTRY_LEN: usize = 36;

/// Offset of entry `i`'s term_lo field inside the shard-table payload.
fn entry_term_lo(i: usize) -> usize {
    TABLE_HEADER + i * ENTRY_LEN
}

/// The `(offset, len)` of the payload of section `kind` in an `RCSHRD02`
/// file (32-byte header, then 24-byte rows: kind u32 | reserved u32 |
/// offset u64 | len u64).
fn mapped_section(bytes: &[u8], kind: u32) -> (usize, usize) {
    let count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| 32 + i * 24)
        .find(|&row| u32::from_le_bytes(bytes[row..row + 4].try_into().unwrap()) == kind)
        .map(|row| {
            let at = |a: usize| u64::from_le_bytes(bytes[a..a + 8].try_into().unwrap()) as usize;
            (at(row + 8), at(row + 16))
        })
        .expect("section present")
}

/// A consistent rewrite of shard `index`: `tamper` edits the file bytes,
/// the file's trailing digest is re-signed, and the manifest's entry for
/// the shard is updated to the new length and digest (then re-signed) —
/// so only the shard's own structural checks can object.
fn forge_shard(dir: &Path, index: u32, tamper: impl FnOnce(&mut Vec<u8>)) {
    let path = shard_path(dir, index);
    let mut bytes = std::fs::read(&path).unwrap();
    tamper(&mut bytes);
    let end = bytes.len() - 8;
    let digest = crc64(&bytes[..end]);
    bytes[end..].copy_from_slice(&digest.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let len = bytes.len() as u64;
    tamper_shard_table(dir, |table| {
        let at = entry_term_lo(index as usize) + 16;
        table[at..at + 8].copy_from_slice(&len.to_le_bytes());
        table[at + 8..at + 16].copy_from_slice(&digest.to_le_bytes());
    });
}

/// Opens `dir` both ways — the full load and the index-only open — and
/// returns the full load's error after checking both refused.
fn refused(dir: &Path) -> StoreError {
    let Err(full) = load_sharded(dir, 2) else { panic!("the full load must refuse") };
    assert!(open_mapped(dir).is_err(), "the index-only open must refuse too");
    full
}

#[test]
fn sharded_parity_with_built_index_for_1_3_7() {
    let (ds, corpus) = testkit::tiny();
    let config = FinderConfig::default();
    let built_finder =
        ExpertFinder::with_corpus(ds, rightcrowd_core::AnalyzedCorpus::build(ds), &config);
    for n in [1usize, 3, 7] {
        let dir = save_tiny_sharded(&format!("parity-{n}"), n);
        let (sh_ds, sh_corpus, stats) = load_sharded(&dir, 2).expect("sharded load");
        assert_eq!(stats.shard_count, n);
        assert!(stats.manifest_bytes > 0 && stats.bytes > stats.manifest_bytes);
        assert!(sh_corpus.index().is_mapped(), "{n} shards: index should be mapped");

        // The mapped index is *equal* to the built one — every scoring
        // path is observably identical.
        assert_eq!(corpus.index(), sh_corpus.index(), "{n} shards: index differs");
        assert_eq!(corpus.doc_ids(), sh_corpus.doc_ids(), "{n} shards");
        assert_eq!(ds.graph().counts(), sh_ds.graph().counts(), "{n} shards");

        // Rank the whole workload through both stacks; scores must match
        // bit for bit.
        let sharded_finder = ExpertFinder::with_corpus(&sh_ds, sh_corpus, &config);
        for need in ds.queries() {
            let a = built_finder.rank(need);
            let b = sharded_finder.rank(need);
            assert_eq!(a.len(), b.len(), "{n} shards, query {:?}", need.text);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.person, y.person, "{n} shards, query {:?}", need.text);
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "{n} shards, query {:?}: {} vs {}",
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
fn sharded_save_is_deterministic() {
    let a = save_tiny_sharded("determinism-a", 3);
    let b = save_tiny_sharded("determinism-b", 3);
    assert_eq!(
        std::fs::read(manifest_path(&a)).unwrap(),
        std::fs::read(manifest_path(&b)).unwrap(),
        "manifests differ between identical saves"
    );
    for i in 0..3 {
        assert_eq!(
            std::fs::read(shard_path(&a, i)).unwrap(),
            std::fs::read(shard_path(&b, i)).unwrap(),
            "shard {i} differs between identical saves"
        );
    }
    std::fs::remove_dir_all(&a).ok();
    std::fs::remove_dir_all(&b).ok();
}

#[test]
fn narrower_resave_removes_stale_shards() {
    let dir = save_tiny_sharded("stale", 5);
    let (ds, corpus) = testkit::tiny();
    save_sharded(&dir, ds, corpus, 2, 1).unwrap();
    assert!(shard_path(&dir, 1).is_file());
    assert!(!shard_path(&dir, 2).is_file(), "stale shard 2 survived a narrower re-save");
    assert!(!shard_path(&dir, 4).is_file(), "stale shard 4 survived a narrower re-save");
    let (_, loaded, stats) = load_sharded(&dir, 1).expect("load after re-save");
    assert_eq!(stats.shard_count, 2);
    assert_eq!(loaded.retained(), corpus.retained());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_shard_file_is_shard_missing() {
    let dir = save_tiny_sharded("missing", 3);
    std::fs::remove_file(shard_path(&dir, 1)).unwrap();
    match refused(&dir) {
        StoreError::ShardMissing { index: 1 } => {}
        other => panic!("expected ShardMissing {{ index: 1 }}, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_shard_payload_is_shard_checksum_mismatch() {
    let dir = save_tiny_sharded("crc", 3);
    let path = shard_path(&dir, 2);
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one payload bit; the rewrite leaves the sidecar stale, so the
    // open streams the CRC pass and the manifest digest catches it.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    match refused(&dir) {
        StoreError::ShardChecksumMismatch { index: 2 } => {}
        other => panic!("expected ShardChecksumMismatch {{ index: 2 }}, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn swapped_shard_files_are_shard_checksum_mismatch() {
    let dir = save_tiny_sharded("swap", 3);
    let a = std::fs::read(shard_path(&dir, 0)).unwrap();
    let b = std::fs::read(shard_path(&dir, 1)).unwrap();
    std::fs::write(shard_path(&dir, 0), &b).unwrap();
    std::fs::write(shard_path(&dir, 1), &a).unwrap();
    // Each file is internally consistent, but not the file the manifest
    // digested at that position.
    match refused(&dir) {
        StoreError::ShardChecksumMismatch { index: 0 } => {}
        other => panic!("expected ShardChecksumMismatch {{ index: 0 }}, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_shard_is_shard_checksum_mismatch() {
    // The manifest promises each shard's exact length, so a short file is
    // refused before it is mapped — never a stale map.
    let dir = save_tiny_sharded("shard-trunc", 3);
    let path = shard_path(&dir, 0);
    let bytes = std::fs::read(&path).unwrap();
    for cut in [0, 10, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        match refused(&dir) {
            StoreError::ShardChecksumMismatch { index: 0 } => {}
            other => panic!("cut at {cut}: expected ShardChecksumMismatch, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_header_version_flip_is_version_mismatch() {
    let dir = save_tiny_sharded("shard-version", 2);
    let path = shard_path(&dir, 0);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8] ^= 0x02; // format version word, right after the magic
    std::fs::write(&path, &bytes).unwrap();
    match refused(&dir) {
        StoreError::VersionMismatch { found: 0, expected: 2 } => {}
        other => panic!("expected VersionMismatch 0 vs 2, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_magic_damage_is_bad_magic() {
    let dir = save_tiny_sharded("shard-magic", 2);
    let path = shard_path(&dir, 1);
    let pristine = std::fs::read(&path).unwrap();
    let mut bytes = pristine.clone();
    bytes[0] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(refused(&dir), StoreError::BadMagic));
    // A file carrying the retired streamed-shard magic in its place is
    // also BadMagic.
    let mut retired = pristine;
    retired[0..8].copy_from_slice(b"RCSHRD01");
    std::fs::write(&path, &retired).unwrap();
    assert!(matches!(refused(&dir), StoreError::BadMagic));
    std::fs::remove_dir_all(&dir).ok();
}

/// Consistent rewrite of *block metadata*: forge the first term block's
/// recorded `last_doc` (re-signing the shard and its manifest entry), and
/// the cold open's delta-decode cross-check must refuse the postings.
#[test]
fn checksum_valid_block_last_doc_damage_is_corrupt() {
    let dir = save_tiny_sharded("forge-last-doc", 2);
    forge_shard(&dir, 0, |bytes| {
        let (at, len) = mapped_section(bytes, 7); // T_LAST_DOC
        assert!(len >= 4, "tiny snapshot should have at least one term block");
        bytes[at] ^= 0x01;
    });
    match refused(&dir) {
        StoreError::Corrupt(msg) => assert!(msg.contains("last doc"), "{msg}"),
        other => panic!("expected Corrupt(last doc), got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Consistent rewrite of a block bound: an inflated `max_score` would let
/// MaxScore prune wrongly, so the cold open must refuse it.
#[test]
fn checksum_valid_block_bound_damage_is_corrupt() {
    let dir = save_tiny_sharded("forge-bound", 2);
    forge_shard(&dir, 1, |bytes| {
        let (at, len) = mapped_section(bytes, 11); // T_MAX_SCORE
        assert!(len >= 8);
        let v = f64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) + 1.0;
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    });
    match refused(&dir) {
        StoreError::Corrupt(msg) => assert!(msg.contains("max weight"), "{msg}"),
        other => panic!("expected Corrupt(max weight), got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Consistent rewrite of the layout: bytes appended before the digest
/// (length and digest re-promised by the manifest) are trailing garbage.
#[test]
fn checksum_valid_trailing_garbage_is_corrupt() {
    let dir = save_tiny_sharded("forge-trailing", 2);
    forge_shard(&dir, 0, |bytes| {
        let end = bytes.len() - 8;
        bytes.splice(end..end, [0u8; 64]);
    });
    match refused(&dir) {
        StoreError::Corrupt(msg) => assert!(msg.contains("trailing garbage"), "{msg}"),
        other => panic!("expected Corrupt(trailing garbage), got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_format_version_skew_is_version_mismatch() {
    let dir = save_tiny_sharded("skew", 2);
    // The shard_format_version is the first u32 of the shard_table
    // payload; bump it and re-sign so only the version check can object.
    tamper_shard_table(&dir, |table| {
        table[0..4].copy_from_slice(&99u32.to_le_bytes());
    });
    match refused(&dir) {
        StoreError::VersionMismatch { found: 99, expected: 2 } => {}
        other => panic!("expected VersionMismatch 99 vs 2, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retired_streamed_table_version_is_version_mismatch() {
    // A manifest declaring the retired streamed shard format (1) is
    // refused by both openers with the typed version error, never read
    // as the current format.
    let dir = save_tiny_sharded("retired", 2);
    tamper_shard_table(&dir, |table| {
        table[0..4].copy_from_slice(&1u32.to_le_bytes());
    });
    match load_sharded(&dir, 2) {
        Err(StoreError::VersionMismatch { found: 1, expected: 2 }) => {}
        other => panic!("expected VersionMismatch 1 vs 2, got {:?}", other.err()),
    }
    match open_mapped(&dir) {
        Err(StoreError::VersionMismatch { found: 1, expected: 2 }) => {}
        other => panic!("expected VersionMismatch 1 vs 2, got {:?}", other.err()),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gapped_term_ranges_are_corrupt() {
    let dir = save_tiny_sharded("gap", 3);
    tamper_shard_table(&dir, |table| {
        // Push shard 1's term_lo one past shard 0's term_hi.
        let at = entry_term_lo(1);
        let lo = u32::from_le_bytes(table[at..at + 4].try_into().unwrap());
        table[at..at + 4].copy_from_slice(&(lo + 1).to_le_bytes());
    });
    match refused(&dir) {
        StoreError::Corrupt(msg) => assert!(msg.contains("gap"), "{msg}"),
        other => panic!("expected Corrupt(gap), got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overlapping_term_ranges_are_corrupt() {
    let dir = save_tiny_sharded("overlap", 3);
    tamper_shard_table(&dir, |table| {
        // Pull shard 1's term_lo one below shard 0's term_hi.
        let at = entry_term_lo(1);
        let lo = u32::from_le_bytes(table[at..at + 4].try_into().unwrap());
        assert!(lo > 0, "tiny corpus should give shard 0 a non-empty range");
        table[at..at + 4].copy_from_slice(&(lo - 1).to_le_bytes());
    });
    match refused(&dir) {
        StoreError::Corrupt(msg) => assert!(msg.contains("overlap"), "{msg}"),
        other => panic!("expected Corrupt(overlap), got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_shard_entries_are_corrupt() {
    let dir = save_tiny_sharded("duplicate", 3);
    tamper_shard_table(&dir, |table| {
        // Overwrite entry 1 with a copy of entry 0 — a duplicated range.
        let (e0, e1) = (entry_term_lo(0), entry_term_lo(1));
        let entry0: Vec<u8> = table[e0..e0 + ENTRY_LEN].to_vec();
        table[e1..e1 + ENTRY_LEN].copy_from_slice(&entry0);
    });
    match refused(&dir) {
        StoreError::Corrupt(msg) => assert!(msg.contains("duplicates or overlaps"), "{msg}"),
        other => panic!("expected Corrupt(duplicate), got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_manifest_is_truncated() {
    let dir = save_tiny_sharded("mani-trunc", 2);
    let path = manifest_path(&dir);
    let bytes = std::fs::read(&path).unwrap();
    for cut in [0, 10, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        match refused(&dir) {
            StoreError::Truncated => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retired_monolithic_magic_as_manifest_is_bad_magic() {
    // A manifest-sized file under the retired single-file magic.
    let dir = save_tiny_sharded("mani-magic", 2);
    let path = manifest_path(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0..8].copy_from_slice(b"RCSNAP01");
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(refused(&dir), StoreError::BadMagic));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_stats_account_for_every_byte_on_disk() {
    let dir = save_tiny_sharded("stats", 4);
    let (_, _, stats) = load_sharded(&dir, 2).expect("load");
    let mut on_disk = std::fs::metadata(manifest_path(&dir)).unwrap().len();
    for i in 0..4 {
        on_disk += std::fs::metadata(shard_path(&dir, i)).unwrap().len();
    }
    assert_eq!(stats.bytes, on_disk);
    assert_eq!(stats.manifest_bytes, std::fs::metadata(manifest_path(&dir)).unwrap().len());
    std::fs::remove_dir_all(&dir).ok();
}
