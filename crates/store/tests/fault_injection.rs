//! Fault-injection harness over the manifest: bit-flips and truncations
//! at every section boundary (and inside every byte region) of a real
//! snapshot's `manifest.rcm` must produce the documented typed
//! [`StoreError`] from both openers — the full [`load_sharded`] and the
//! index-only [`open_mapped`] — and must never panic. Shard-file damage
//! is covered by `sharded.rs` and `mapped.rs`.

use rightcrowd_core::testkit;
use rightcrowd_store::{
    crc64, layout, load_sharded, manifest_path, open_mapped, save_sharded, sidecar_path,
    StoreError, FORMAT_VERSION, MANIFEST_MAGIC,
};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The pristine manifest bytes of a 2-shard tiny snapshot, saved once
/// for the whole suite.
fn manifest() -> &'static Vec<u8> {
    static CELL: OnceLock<Vec<u8>> = OnceLock::new();
    CELL.get_or_init(|| {
        let dir = snapshot_dir("pristine");
        let bytes = std::fs::read(manifest_path(&dir)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        bytes
    })
}

/// A fresh 2-shard tiny snapshot directory for one test, without the
/// manifest's validity sidecar, so every open below streams and verifies
/// the (damaged) manifest in full.
fn snapshot_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcstore-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (ds, corpus) = testkit::tiny();
    save_sharded(&dir, ds, corpus, 2, 2).expect("save");
    std::fs::remove_file(sidecar_path(&manifest_path(&dir))).expect("manifest sidecar");
    dir
}

/// Writes `damaged` as the manifest and opens the snapshot both ways.
/// Both openers must refuse with the same typed error, which is returned.
fn open_damaged(dir: &Path, damaged: &[u8]) -> StoreError {
    std::fs::write(manifest_path(dir), damaged).unwrap();
    let full = match load_sharded(dir, 1) {
        Err(e) => e,
        Ok(_) => panic!("damaged manifest must not load"),
    };
    let index_only = match open_mapped(dir) {
        Err(e) => e,
        Ok(_) => panic!("damaged manifest must not open"),
    };
    assert_eq!(format!("{full:?}"), format!("{index_only:?}"), "openers disagree");
    full
}

#[test]
fn pristine_manifest_loads() {
    let dir = snapshot_dir("ok");
    let (ds, corpus, stats) = load_sharded(&dir, 1).expect("pristine snapshot must load");
    let (orig_ds, orig_corpus) = testkit::tiny();
    assert_eq!(ds.graph().counts(), orig_ds.graph().counts());
    assert_eq!(corpus.retained(), orig_corpus.retained());
    assert_eq!(stats.manifest_bytes, manifest().len() as u64);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn layout_maps_the_whole_manifest() {
    let bytes = manifest();
    let infos = layout(bytes, &MANIFEST_MAGIC).unwrap();
    let names: Vec<_> = infos.iter().map(|i| i.name).collect();
    assert_eq!(
        names,
        vec![
            "header",
            "table",
            "meta",
            "graph",
            "web",
            "truth",
            "corpus",
            "doc_lens",
            "shard_table",
            "file_crc"
        ]
    );
    assert_eq!(infos.iter().map(|i| i.len).sum::<usize>(), bytes.len());
}

/// Flipping one bit inside a payload section must surface as that
/// section's checksum failure (detected before the whole-file digest,
/// which would also fail). Each section is probed at its first, middle
/// and last byte.
#[test]
fn bit_flip_in_each_section_names_the_section() {
    let dir = snapshot_dir("sections");
    let bytes = manifest();
    let infos = layout(bytes, &MANIFEST_MAGIC).unwrap();
    for info in infos.iter().filter(|i| i.kind != 0) {
        for probe in [info.offset, info.offset + info.len / 2, info.offset + info.len - 1] {
            let mut damaged = bytes.clone();
            damaged[probe] ^= 0x01;
            match open_damaged(&dir, &damaged) {
                StoreError::ChecksumMismatch { section } => {
                    assert_eq!(
                        section, info.name,
                        "flip at byte {probe} should blame `{}`",
                        info.name
                    );
                }
                other => panic!(
                    "flip at byte {probe} in `{}`: expected ChecksumMismatch, got {other:?}",
                    info.name
                ),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flip_in_magic_is_bad_magic() {
    let dir = snapshot_dir("magic");
    let mut damaged = manifest().clone();
    damaged[0] ^= 0x01;
    assert!(matches!(open_damaged(&dir, &damaged), StoreError::BadMagic));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flip_in_version_is_version_mismatch() {
    // The version word is validated before the header checksum on
    // purpose: an old or future manifest should say "wrong version", not
    // "corrupt".
    let dir = snapshot_dir("version");
    let mut damaged = manifest().clone();
    damaged[8] ^= 0x02;
    match open_damaged(&dir, &damaged) {
        StoreError::VersionMismatch { found, expected } => {
            assert_eq!(found, FORMAT_VERSION ^ 0x02);
            assert_eq!(expected, FORMAT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flip_in_flags_is_unsupported_flags() {
    // Flipping an *unknown* flag bit is a compatibility refusal that
    // reports the resulting flag word.
    let dir = snapshot_dir("flags");
    let bytes = manifest();
    let want = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) ^ 0x04;
    let mut damaged = bytes.clone();
    damaged[12] ^= 0x04;
    match open_damaged(&dir, &damaged) {
        StoreError::UnsupportedFlags { flags } => assert_eq!(flags, want),
        other => panic!("expected UnsupportedFlags, got {other:?}"),
    }
    // Bit 2 marked the retired block-postings container; it is refused too.
    let mut retired = bytes.clone();
    retired[12] ^= 0x02;
    assert!(matches!(open_damaged(&dir, &retired), StoreError::UnsupportedFlags { .. }));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flip_in_known_flag_is_header_checksum() {
    // Flipping a *defined* flag bit passes the compatibility gate (the
    // result is still a known combination) and is then caught as header
    // damage by the CRC.
    let dir = snapshot_dir("known-flag");
    let mut damaged = manifest().clone();
    damaged[12] ^= 0x01;
    assert!(matches!(
        open_damaged(&dir, &damaged),
        StoreError::ChecksumMismatch { section: "header" }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flip_in_section_count_is_header_checksum() {
    let dir = snapshot_dir("count");
    let mut damaged = manifest().clone();
    damaged[16] ^= 0x01;
    assert!(matches!(
        open_damaged(&dir, &damaged),
        StoreError::ChecksumMismatch { section: "header" }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flip_in_header_crc_is_header_checksum() {
    let dir = snapshot_dir("header-crc");
    let mut damaged = manifest().clone();
    damaged[20] ^= 0x01;
    assert!(matches!(
        open_damaged(&dir, &damaged),
        StoreError::ChecksumMismatch { section: "header" }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flip_in_table_is_table_checksum() {
    let dir = snapshot_dir("table");
    let bytes = manifest();
    let infos = layout(bytes, &MANIFEST_MAGIC).unwrap();
    let table = infos.iter().find(|i| i.name == "table").unwrap();
    for probe in [table.offset, table.offset + table.len / 2, table.offset + table.len - 1] {
        let mut damaged = bytes.clone();
        damaged[probe] ^= 0x01;
        assert!(
            matches!(
                open_damaged(&dir, &damaged),
                StoreError::ChecksumMismatch { section: "table" }
            ),
            "flip at table byte {probe}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flip_in_trailing_digest_is_file_checksum() {
    let dir = snapshot_dir("trailer");
    let mut damaged = manifest().clone();
    let last = damaged.len() - 1;
    damaged[last] ^= 0x01;
    assert!(matches!(
        open_damaged(&dir, &damaged),
        StoreError::ChecksumMismatch { section: "file" }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// Truncating at every section boundary — and at interior points of each
/// region — must always be `Truncated`, never a panic and never a
/// misleading checksum error.
#[test]
fn truncation_at_every_boundary_is_truncated() {
    let dir = snapshot_dir("truncate");
    let bytes = manifest();
    let infos = layout(bytes, &MANIFEST_MAGIC).unwrap();
    let mut cuts = vec![0usize];
    for info in &infos {
        cuts.push(info.offset); // start of each region
        cuts.push(info.offset + info.len / 2); // mid-region
        cuts.push(info.offset + info.len.saturating_sub(1)); // last byte
    }
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        assert!(cut < bytes.len());
        match open_damaged(&dir, &bytes[..cut]) {
            StoreError::Truncated => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Re-signs a tampered section so the whole envelope verifies again:
/// section CRC in the table entry, table CRC, whole-file CRC. The
/// consistent-rewrite attacks below use this to get past every checksum
/// and prove the *structural* validators still refuse the file.
fn resign_section(damaged: &mut [u8], section_name: &str) {
    let infos = layout(damaged, &MANIFEST_MAGIC).unwrap();
    let target = *infos.iter().find(|i| i.name == section_name).unwrap();
    let table = *infos.iter().find(|i| i.name == "table").unwrap();

    // Section crc lives in this section's table entry
    // (kind u32 | len u64 | crc u64); find the entry by scanning kinds.
    let section_crc = crc64(&damaged[target.offset..target.offset + target.len]);
    let entry_count = (table.len - 8) / 20;
    let mut fixed = false;
    for i in 0..entry_count {
        let at = table.offset + i * 20;
        let kind = u32::from_le_bytes(damaged[at..at + 4].try_into().unwrap());
        if kind == target.kind {
            damaged[at + 12..at + 20].copy_from_slice(&section_crc.to_le_bytes());
            fixed = true;
        }
    }
    assert!(fixed, "table entry for `{section_name}` not found");
    // Re-sign the table crc (last 8 bytes of the table region)…
    let table_crc = crc64(&damaged[table.offset..table.offset + table.len - 8]);
    let tc_at = table.offset + table.len - 8;
    damaged[tc_at..tc_at + 8].copy_from_slice(&table_crc.to_le_bytes());
    // …and the whole-file crc.
    let end = damaged.len() - 8;
    let file_crc = crc64(&damaged[..end]);
    damaged[end..].copy_from_slice(&file_crc.to_le_bytes());
}

/// A consistent rewrite — payload tampered *and* every checksum fixed up —
/// defeats the envelope, so the structural validators must catch it as
/// `Corrupt`. Manifest sections are wrapped with a packing tag, so the
/// first forgeable structural byte is the tag itself.
#[test]
fn checksum_valid_structural_damage_is_corrupt() {
    let dir = snapshot_dir("structural");
    let bytes = manifest();
    let infos = layout(bytes, &MANIFEST_MAGIC).unwrap();
    let corpus = infos.iter().find(|i| i.name == "corpus").unwrap();

    let mut damaged = bytes.clone();
    damaged[corpus.offset] = 9;
    resign_section(&mut damaged, "corpus");

    match open_damaged(&dir, &damaged) {
        StoreError::Corrupt(msg) => {
            assert!(msg.contains("packing tag"), "unexpected corruption report: {msg}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A re-signed `doc_lens` section that disagrees with the corpus table is
/// refused by the full load, which cross-checks the two.
#[test]
fn checksum_valid_doc_lens_damage_is_corrupt() {
    let dir = snapshot_dir("doc-lens");
    let bytes = manifest();
    let infos = layout(bytes, &MANIFEST_MAGIC).unwrap();
    let lens = infos.iter().find(|i| i.name == "doc_lens").unwrap();

    // Raw-wrapped payload: tag u8, count u64, then the u32 lengths.
    let mut damaged = bytes.clone();
    damaged[lens.offset + 1 + 8] ^= 0x01;
    resign_section(&mut damaged, "doc_lens");
    std::fs::write(manifest_path(&dir), &damaged).unwrap();
    match load_sharded(&dir, 1) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("doc_lens"), "{msg}"),
        Err(other) => panic!("expected Corrupt(doc_lens), got {other:?}"),
        Ok(_) => panic!("a doc_lens forgery must not load"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Errors must render actionably (the CLI prints them verbatim).
#[test]
fn injected_errors_render_with_section_names() {
    let dir = snapshot_dir("render");
    let bytes = manifest();
    let infos = layout(bytes, &MANIFEST_MAGIC).unwrap();
    let graph = infos.iter().find(|i| i.name == "graph").unwrap();
    let mut damaged = bytes.clone();
    damaged[graph.offset] ^= 0xFF;
    let err = open_damaged(&dir, &damaged);
    assert!(err.to_string().contains("`graph`"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
