//! Sharded snapshots: a manifest plus N per-term-range postings shards —
//! the store's one on-disk format.
//!
//! A snapshot is a *directory*:
//!
//! ```text
//! <dir>/manifest.rcm       magic RCMANI01 — everything small: meta,
//!                          graph, web, truth, corpus table, raw
//!                          doc_lens, and the shard table (ranges, byte
//!                          lengths, digests)
//! <dir>/shard-000.rcshard  magic RCSHRD02 — the block-compressed
//! <dir>/shard-001.rcshard  term/entity postings of one contiguous
//! …                        dense-id range, 64-byte aligned so every
//!                          array is borrowed straight from mmap(2)
//! <dir>/*.rcv              validity sidecars (see `sidecar`)
//! ```
//!
//! The manifest uses the checksummed envelope of `container`; the shard
//! layout and its verify-then-map opener live in `mapped`. A snapshot
//! that once would have been one file is simply a one-shard directory.
//!
//! The corruption contract: any damage to the manifest surfaces as the
//! envelope's typed error; a promised shard file that is absent is
//! [`StoreError::ShardMissing`]; a shard whose length or digest disagrees
//! with the manifest is [`StoreError::ShardChecksumMismatch`]; duplicate,
//! overlapping or gapped ranges in the shard table — and any
//! disagreement between a shard's recorded identity and the manifest
//! entry that named it — are [`StoreError::Corrupt`]; a
//! `shard_format_version` other than [`SHARD_FORMAT_VERSION`] (including
//! the retired streamed format 1) is [`StoreError::VersionMismatch`].
//! Nothing in this path panics on hostile input.

use crate::container::{assemble, kind, read_container, Section, FLAG_PACKED_SECTIONS};
use crate::err::StoreError;
use crate::sidecar::{write_sidecar, Sidecar};
use crate::wire::{put_len, put_u32, put_u64, Cursor};
use crate::{decode_study, study_sections};
use rightcrowd_core::par::par_map;
use rightcrowd_core::AnalyzedCorpus;
use rightcrowd_index::{IndexShard, InvertedIndex};
use rightcrowd_synth::SyntheticDataset;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The 8-byte magic of a snapshot manifest.
pub const MANIFEST_MAGIC: [u8; 8] = *b"RCMANI01";

/// Revision of the shard format (`RCSHRD02`: fixed layout, 64-byte-aligned
/// payloads, zero-copy openable — see [`crate::mapped`]). Recorded in the
/// manifest's shard table and in every shard header, checked on open,
/// independently of the envelope's `FORMAT_VERSION`. Revision 1 was the
/// retired streamed `RCSHRD01` format.
pub const SHARD_FORMAT_VERSION: u32 = 2;

/// The manifest's file name inside a snapshot directory.
pub const MANIFEST_FILE: &str = "manifest.rcm";

/// Upper bound on the shard count a reader will accept; anything larger
/// is a forged shard table.
const MAX_SHARDS: usize = 4096;

/// The section order a manifest must use: the five study sections, the
/// raw `doc_lens` (so an index-only warm open never has to unpack the
/// corpus), then the shard table.
pub const MANIFEST_SECTION_ORDER: [u32; 7] = [
    kind::META,
    kind::GRAPH,
    kind::WEB,
    kind::TRUTH,
    kind::CORPUS,
    kind::DOC_LENS,
    kind::SHARD_TABLE,
];

/// One row of the manifest's shard table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardEntry {
    /// Dense term-id range `[lo, hi)` the shard carries.
    pub term_range: (u32, u32),
    /// Dense entity-slot range `[lo, hi)` the shard carries.
    pub entity_range: (u32, u32),
    /// Exact shard file size in bytes.
    pub byte_len: u64,
    /// The shard file's trailing whole-file CRC-64/XZ — the digest its
    /// open is verified against.
    pub digest: u64,
    /// Per-shard feature flags; reserved, must be 0.
    pub flags: u32,
}

/// The manifest's `shard_table` section, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTable {
    /// Shard format revision (see [`SHARD_FORMAT_VERSION`]).
    pub shard_format_version: u32,
    /// Total term vocabulary size the entries must tile.
    pub term_count: u64,
    /// Total entity vocabulary size the entries must tile.
    pub entity_count: u64,
    /// One row per shard, in shard order.
    pub entries: Vec<ShardEntry>,
}

/// What [`save_sharded`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedSaveStats {
    /// Total bytes written: manifest plus every shard.
    pub bytes: u64,
    /// Manifest file size in bytes.
    pub manifest_bytes: u64,
    /// Number of shard files written.
    pub shard_count: usize,
    /// Wall time of partition + encode + write, milliseconds.
    pub elapsed_ms: f64,
}

/// What [`load_sharded`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedLoadStats {
    /// Total bytes verified or mapped: manifest plus every shard.
    pub bytes: u64,
    /// Manifest file size in bytes.
    pub manifest_bytes: u64,
    /// Number of shard files opened.
    pub shard_count: usize,
    /// The manifest's whole-file digest: a cheap identity fingerprint
    /// of the snapshot (it covers the shard table and thus every shard
    /// digest). Consumers like `/healthz` report it instead of hashing
    /// the corpus — which would page in every mapped byte on boot.
    pub manifest_digest: u64,
    /// Wall time of read + verify + decode + map, milliseconds.
    pub elapsed_ms: f64,
}

/// The manifest's path inside a snapshot directory.
pub fn manifest_path(dir: impl AsRef<Path>) -> PathBuf {
    dir.as_ref().join(MANIFEST_FILE)
}

/// The path of shard `index` inside a snapshot directory.
pub fn shard_path(dir: impl AsRef<Path>, index: u32) -> PathBuf {
    dir.as_ref().join(format!("shard-{index:03}.rcshard"))
}

/// Whether `path` is a snapshot directory (contains a manifest). This is
/// the dispatch test for `--snapshot` arguments: a directory with a
/// manifest loads, a missing path is a cache miss, anything else is
/// refused.
pub fn is_sharded(path: impl AsRef<Path>) -> bool {
    manifest_path(path).is_file()
}

// ----- shard-table + shard-meta codecs ----------------------------------

/// Bytes per shard-table row: four range bounds + len + digest + flags.
const SHARD_ENTRY_LEN: usize = 4 * 4 + 8 + 8 + 4;

fn encode_shard_table(table: &ShardTable) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32 + table.entries.len() * SHARD_ENTRY_LEN);
    put_u32(&mut buf, table.shard_format_version);
    put_u64(&mut buf, table.term_count);
    put_u64(&mut buf, table.entity_count);
    put_len(&mut buf, table.entries.len());
    for e in &table.entries {
        put_u32(&mut buf, e.term_range.0);
        put_u32(&mut buf, e.term_range.1);
        put_u32(&mut buf, e.entity_range.0);
        put_u32(&mut buf, e.entity_range.1);
        put_u64(&mut buf, e.byte_len);
        put_u64(&mut buf, e.digest);
        put_u32(&mut buf, e.flags);
    }
    buf
}

/// Checks that `ranges` tile `[0, count)` exactly — ascending, no
/// duplicate, no overlap, no gap.
fn check_tiling(side: &str, ranges: impl Iterator<Item = (u32, u32)>, count: u64) -> Result<(), StoreError> {
    let mut expected = 0u32;
    for (i, (lo, hi)) in ranges.enumerate() {
        if hi < lo {
            return Err(StoreError::Corrupt(format!(
                "shard table: {side} range [{lo}, {hi}) of shard {i} is inverted"
            )));
        }
        if lo < expected {
            return Err(StoreError::Corrupt(format!(
                "shard table: {side} range [{lo}, {hi}) of shard {i} duplicates or overlaps the previous shard (expected lo {expected})"
            )));
        }
        if lo > expected {
            return Err(StoreError::Corrupt(format!(
                "shard table: gap in {side} ranges — ids [{expected}, {lo}) before shard {i} are covered by no shard"
            )));
        }
        expected = hi;
    }
    if u64::from(expected) != count {
        return Err(StoreError::Corrupt(format!(
            "shard table: {side} ranges end at {expected} but the vocabulary has {count} ids"
        )));
    }
    Ok(())
}

/// Decodes and fully validates the manifest's shard table: format
/// version, reserved flags, shard-count bounds, and exact tiling of both
/// vocabularies.
pub fn decode_shard_table(payload: &[u8]) -> Result<ShardTable, StoreError> {
    let mut c = Cursor::new(payload);
    let shard_format_version = c.u32()?;
    if shard_format_version != SHARD_FORMAT_VERSION {
        return Err(StoreError::VersionMismatch {
            found: shard_format_version,
            expected: SHARD_FORMAT_VERSION,
        });
    }
    let term_count = c.u64()?;
    let entity_count = c.u64()?;
    let n = c.len(SHARD_ENTRY_LEN)?;
    if n == 0 {
        return Err(StoreError::Corrupt("shard table declares zero shards".into()));
    }
    if n > MAX_SHARDS {
        return Err(StoreError::Corrupt(format!(
            "shard table declares {n} shards, above the format limit {MAX_SHARDS}"
        )));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let entry = ShardEntry {
            term_range: (c.u32()?, c.u32()?),
            entity_range: (c.u32()?, c.u32()?),
            byte_len: c.u64()?,
            digest: c.u64()?,
            flags: c.u32()?,
        };
        if entry.flags != 0 {
            return Err(StoreError::UnsupportedFlags { flags: entry.flags });
        }
        entries.push(entry);
    }
    c.finish("shard_table")?;
    check_tiling("term", entries.iter().map(|e| e.term_range), term_count)?;
    check_tiling("entity", entries.iter().map(|e| e.entity_range), entity_count)?;
    Ok(ShardTable { shard_format_version, term_count, entity_count, entries })
}

pub(crate) fn encode_shard_meta(shard: &IndexShard, shard_count: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(24);
    put_u32(&mut buf, shard.index);
    put_u32(&mut buf, shard_count as u32);
    put_u32(&mut buf, shard.term_range.0);
    put_u32(&mut buf, shard.term_range.1);
    put_u32(&mut buf, shard.entity_range.0);
    put_u32(&mut buf, shard.entity_range.1);
    buf
}

/// A shard file's recorded identity, cross-checked against the manifest
/// entry that named it.
pub(crate) struct ShardMeta {
    pub(crate) index: u32,
    pub(crate) shard_count: u32,
    pub(crate) term_range: (u32, u32),
    pub(crate) entity_range: (u32, u32),
}

pub(crate) fn decode_shard_meta(payload: &[u8]) -> Result<ShardMeta, StoreError> {
    let mut c = Cursor::new(payload);
    let index = c.u32()?;
    let shard_count = c.u32()?;
    let term_range = (c.u32()?, c.u32()?);
    let entity_range = (c.u32()?, c.u32()?);
    c.finish("shard_meta")?;
    Ok(ShardMeta { index, shard_count, term_range, entity_range })
}

// ----- saving -----------------------------------------------------------

/// The trailing whole-file CRC-64 of an assembled container.
pub(crate) fn trailing_digest(bytes: &[u8]) -> u64 {
    let tail: [u8; 8] = bytes[bytes.len() - 8..].try_into().expect("assembled container");
    u64::from_le_bytes(tail)
}

/// On-disk layout of a snapshot's shard files. One layout remains; the
/// type survives only so existing [`save_sharded_with`] callers compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotLayout {
    /// `RCSHRD02`: fixed-layout, alignment-padded shard files that every
    /// `--snapshot` consumer opens zero-copy via `mmap(2)`.
    Mapped,
}

/// [`save_sharded`] under an explicit (and only) layout.
pub fn save_sharded_with(
    dir: impl AsRef<Path>,
    ds: &SyntheticDataset,
    corpus: &AnalyzedCorpus,
    shards: usize,
    threads: usize,
    _layout: SnapshotLayout,
) -> Result<ShardedSaveStats, StoreError> {
    save_sharded(dir, ds, corpus, shards, threads)
}

/// Writes a snapshot of `(ds, corpus)` into directory `dir`: `shards`
/// per-term-range `RCSHRD02` shards (encoded on up to `threads` workers,
/// capped at the machine's available parallelism), the manifest, and a
/// validity sidecar for every file — the writer just computed each
/// digest, so the *first* open is already a warm one. Deterministic for
/// a given `(ds, corpus, shards)`. Stale `*.rcshard` files (and every
/// `.rcv` sidecar) from an earlier, wider save are removed so the
/// directory always equals the manifest's promise.
pub fn save_sharded(
    dir: impl AsRef<Path>,
    ds: &SyntheticDataset,
    corpus: &AnalyzedCorpus,
    shards: usize,
    threads: usize,
) -> Result<ShardedSaveStats, StoreError> {
    let _span = rightcrowd_obs::span!("store.save_sharded");
    let start = Instant::now();
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir).map_err(StoreError::Io)?;
    remove_all_sidecars(dir)?;

    let parts = corpus.index().to_parts();
    let index_shards = corpus.index().to_shards(shards);
    let shard_count = index_shards.len();

    // Encoding is pure CPU; cap workers at the core count (see load).
    let threads = threads.min(rightcrowd_core::par::default_threads()).max(1);
    let files: Vec<Vec<u8>> =
        par_map(&index_shards, threads, |s| crate::mapped::encode_mapped_shard(s, shard_count));

    let entries: Vec<ShardEntry> = index_shards
        .iter()
        .zip(&files)
        .map(|(s, bytes)| ShardEntry {
            term_range: s.term_range,
            entity_range: s.entity_range,
            byte_len: bytes.len() as u64,
            digest: trailing_digest(bytes),
            flags: 0,
        })
        .collect();
    let table = ShardTable {
        shard_format_version: SHARD_FORMAT_VERSION,
        term_count: parts.terms.vocab.len() as u64,
        entity_count: parts.entities.vocab.len() as u64,
        entries,
    };

    let mut sections = study_sections(ds, corpus, &parts.doc_lens);
    sections.push(Section {
        kind: kind::DOC_LENS,
        payload: crate::mapped::encode_doc_lens(&parts.doc_lens),
    });
    sections.push(Section { kind: kind::SHARD_TABLE, payload: encode_shard_table(&table) });
    // The manifest carries the text-heavy study sections, so it alone gets
    // the byte compressor ([`FLAG_PACKED_SECTIONS`]); postings compression
    // lives in the shard files' packed blocks.
    let manifest = assemble(&MANIFEST_MAGIC, &sections, FLAG_PACKED_SECTIONS);

    let mut total = manifest.len() as u64;
    for (i, bytes) in files.iter().enumerate() {
        std::fs::write(shard_path(dir, i as u32), bytes).map_err(StoreError::Io)?;
        total += bytes.len() as u64;
    }
    std::fs::write(manifest_path(dir), &manifest).map_err(StoreError::Io)?;
    remove_stale_shards(dir, shard_count)?;

    // The writer just computed every digest, so it can honestly attest
    // each file: the first open gets the microsecond path for free.
    for (i, bytes) in files.iter().enumerate() {
        let path = shard_path(dir, i as u32);
        if let Ok(sc) = Sidecar::for_file(&path, SHARD_FORMAT_VERSION, trailing_digest(bytes)) {
            let _ = write_sidecar(&path, &sc);
        }
    }
    let mpath = manifest_path(dir);
    if let Ok(sc) = Sidecar::for_file(&mpath, SHARD_FORMAT_VERSION, trailing_digest(&manifest)) {
        let _ = write_sidecar(&mpath, &sc);
    }

    rightcrowd_obs::add(rightcrowd_obs::CounterId::SnapshotBytesWritten, total);
    Ok(ShardedSaveStats {
        bytes: total,
        manifest_bytes: manifest.len() as u64,
        shard_count,
        elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
    })
}

/// Deletes `*.rcshard` files whose index is not addressed by the new
/// manifest, so a narrower re-save cannot leave orphans that a future
/// reader might mistake for live data.
fn remove_stale_shards(dir: &Path, shard_count: usize) -> Result<(), StoreError> {
    for entry in std::fs::read_dir(dir).map_err(StoreError::Io)? {
        let path = entry.map_err(StoreError::Io)?.path();
        if path.extension().is_some_and(|e| e == "rcshard")
            && (0..shard_count as u32).all(|i| path != shard_path(dir, i))
        {
            std::fs::remove_file(&path).map_err(StoreError::Io)?;
        }
    }
    Ok(())
}

/// Deletes every `*.rcv` validity sidecar in `dir`. A save is about to
/// change the files the sidecars attest, so all of them are stale by
/// construction; the writer re-creates fresh ones afterwards.
fn remove_all_sidecars(dir: &Path) -> Result<(), StoreError> {
    for entry in std::fs::read_dir(dir).map_err(StoreError::Io)? {
        let path = entry.map_err(StoreError::Io)?.path();
        if path.extension().is_some_and(|e| e == crate::sidecar::SIDECAR_EXT) {
            std::fs::remove_file(&path).map_err(StoreError::Io)?;
        }
    }
    Ok(())
}

// ----- loading ----------------------------------------------------------

/// Reads, verifies and reconstructs a snapshot from directory `dir`: the
/// whole manifest is streamed and checksum-verified, the study replayed,
/// and every shard opened through the verify-then-map path on up to
/// `threads` workers (capped at the machine's available parallelism).
/// This is the open every `--snapshot` consumer pays.
///
/// The mapped index satisfies `==` against the freshly built one, so
/// every scoring path behaves identically (the parity suites enforce
/// this for several shard counts).
pub fn load_sharded(
    dir: impl AsRef<Path>,
    threads: usize,
) -> Result<(SyntheticDataset, AnalyzedCorpus, ShardedLoadStats), StoreError> {
    let _span = rightcrowd_obs::span!("store.load_sharded");
    let _timer = rightcrowd_obs::time(rightcrowd_obs::HistId::SnapshotLoadLatency);
    let start = Instant::now();
    let dir = dir.as_ref();

    let manifest_file = std::fs::read(manifest_path(dir)).map_err(StoreError::Io)?;
    let manifest_digest =
        if manifest_file.len() >= 8 { trailing_digest(&manifest_file) } else { 0 };
    let (sections, manifest_bytes, _flags) = read_container(&manifest_file[..], &MANIFEST_MAGIC)?;
    // The shard-table version is checked before the section layout, so a
    // directory in a retired format reports `VersionMismatch`.
    let (table, raw_doc_lens) = crate::mapped::mapped_manifest_sections(&sections)?;
    if sections.len() != MANIFEST_SECTION_ORDER.len()
        || sections.iter().zip(MANIFEST_SECTION_ORDER).any(|(s, k)| s.kind != k)
    {
        return Err(StoreError::Corrupt(format!(
            "unexpected manifest section layout {:?} (want {MANIFEST_SECTION_ORDER:?})",
            sections.iter().map(|s| s.kind).collect::<Vec<_>>()
        )));
    }
    let (ds, docs, dropped, doc_lens) = decode_study([
        &sections[0].payload,
        &sections[1].payload,
        &sections[2].payload,
        &sections[3].payload,
        &sections[4].payload,
    ])?;
    // The raw doc_lens section exists for index-only warm opens; a full
    // load cross-checks it against the corpus-derived truth.
    if raw_doc_lens != doc_lens {
        return Err(StoreError::Corrupt(
            "manifest doc_lens section disagrees with the corpus section".into(),
        ));
    }

    // Open every shard, concurrently when threads allow, with results back
    // in shard order. The worker count is capped at the machine's
    // parallelism: a cold open is a CPU-bound CRC + verification pass, and
    // workers past the core count only add scheduler contention.
    let shard_count = table.entries.len();
    let threads = threads.min(rightcrowd_core::par::default_threads()).max(1);
    let jobs: Vec<(u32, ShardEntry)> =
        table.entries.iter().enumerate().map(|(i, e)| (i as u32, *e)).collect();
    let results = par_map(&jobs, threads, |(i, entry)| {
        crate::mapped::open_mapped_shard(&shard_path(dir, *i), *i, entry, shard_count)
    });
    let mut views = Vec::with_capacity(shard_count);
    let mut shard_bytes = 0u64;
    for result in results {
        let opened = result?;
        shard_bytes += opened.bytes;
        views.push(opened.view);
    }
    let index = InvertedIndex::from_mapped(views, doc_lens).map_err(StoreError::Corrupt)?;
    // The full manifest verification that just happened earns the
    // manifest its sidecar, so the next open takes the fast path.
    let mpath = manifest_path(dir);
    if let Ok(sc) = Sidecar::for_file(&mpath, SHARD_FORMAT_VERSION, manifest_digest) {
        let _ = write_sidecar(&mpath, &sc);
    }
    let corpus = AnalyzedCorpus::from_parts(index, docs, dropped).map_err(StoreError::Corrupt)?;

    rightcrowd_obs::add(rightcrowd_obs::CounterId::SnapshotBytesRead, manifest_bytes);
    rightcrowd_obs::add(rightcrowd_obs::CounterId::ShardBytesRead, shard_bytes);
    rightcrowd_obs::add(rightcrowd_obs::CounterId::ShardsLoaded, shard_count as u64);
    Ok((
        ds,
        corpus,
        ShardedLoadStats {
            bytes: manifest_bytes + shard_bytes,
            manifest_bytes,
            shard_count,
            manifest_digest,
            elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
        },
    ))
}

// ----- zero-copy (index-only) opens -------------------------------------

/// What [`open_mapped`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappedOpenStats {
    /// Bytes of shard payload now behind memory mappings.
    pub mapped_bytes: u64,
    /// Bytes actually read from the manifest (tiny when its sidecar hit).
    pub manifest_bytes_read: u64,
    /// Number of shard files mapped.
    pub shard_count: usize,
    /// Whether every sidecar (manifest + shards) hit — the
    /// microsecond-class path with no streamed verification anywhere.
    pub warm: bool,
    /// The manifest's whole-file digest — a cheap fingerprint of the
    /// snapshot's identity (covers the shard table and thus every shard
    /// digest) that never forces a page-in.
    pub manifest_digest: u64,
    /// Wall time of the whole open, milliseconds.
    pub elapsed_ms: f64,
}

/// Opens the *index* of a snapshot zero-copy: verify-sidecar-then-map
/// per file, no study decode, no postings copy.
///
/// This is the warm-open entry point for query-serving consumers that
/// don't need the synthetic study (bench open legs). The returned index
/// borrows every array from the mappings and scores bit-identically to
/// the built one (the parity suites pin this). Fails with
/// [`StoreError::VersionMismatch`] on a retired-format
/// (`shard_format_version` 1) snapshot.
pub fn open_mapped(dir: impl AsRef<Path>) -> Result<(InvertedIndex, MappedOpenStats), StoreError> {
    let _span = rightcrowd_obs::span!("store.open_mapped");
    let start = Instant::now();
    let dir = dir.as_ref();

    let manifest = crate::mapped::read_manifest_index_only(dir)?;
    let shard_count = manifest.table.entries.len();
    let mut views = Vec::with_capacity(shard_count);
    let mut mapped_bytes = 0u64;
    let mut warm = manifest.warm;
    for (i, entry) in manifest.table.entries.iter().enumerate() {
        let opened =
            crate::mapped::open_mapped_shard(&shard_path(dir, i as u32), i as u32, entry, shard_count)?;
        mapped_bytes += opened.bytes;
        warm &= opened.warm;
        views.push(opened.view);
    }
    let index = InvertedIndex::from_mapped(views, manifest.doc_lens).map_err(StoreError::Corrupt)?;
    rightcrowd_obs::add(rightcrowd_obs::CounterId::ShardsLoaded, shard_count as u64);
    Ok((
        index,
        MappedOpenStats {
            mapped_bytes,
            manifest_bytes_read: manifest.bytes_read,
            shard_count,
            warm,
            manifest_digest: manifest.digest,
            elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(term: (u32, u32), entity: (u32, u32)) -> ShardEntry {
        ShardEntry { term_range: term, entity_range: entity, byte_len: 10, digest: 7, flags: 0 }
    }

    fn table(entries: Vec<ShardEntry>, term_count: u64, entity_count: u64) -> ShardTable {
        ShardTable { shard_format_version: SHARD_FORMAT_VERSION, term_count, entity_count, entries }
    }

    #[test]
    fn shard_table_roundtrip() {
        let t = table(
            vec![entry((0, 3), (0, 2)), entry((3, 3), (2, 5)), entry((3, 8), (5, 5))],
            8,
            5,
        );
        let decoded = decode_shard_table(&encode_shard_table(&t)).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn shard_table_version_skew_is_version_mismatch() {
        let mut t = table(vec![entry((0, 1), (0, 1))], 1, 1);
        t.shard_format_version = 9;
        match decode_shard_table(&encode_shard_table(&t)) {
            Err(StoreError::VersionMismatch { found: 9, expected }) => {
                assert_eq!(expected, SHARD_FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn shard_table_refuses_the_retired_streamed_version() {
        let mut t = table(vec![entry((0, 1), (0, 1))], 1, 1);
        t.shard_format_version = 1;
        match decode_shard_table(&encode_shard_table(&t)) {
            Err(StoreError::VersionMismatch { found: 1, expected: 2 }) => {}
            other => panic!("expected VersionMismatch 1 vs 2, got {other:?}"),
        }
    }

    #[test]
    fn shard_table_rejects_bad_tilings() {
        // Gap in term ranges.
        let t = table(vec![entry((0, 2), (0, 1)), entry((3, 5), (1, 2))], 5, 2);
        let err = decode_shard_table(&encode_shard_table(&t)).unwrap_err();
        assert!(matches!(&err, StoreError::Corrupt(m) if m.contains("gap")), "{err:?}");

        // Overlap / duplicate.
        let t = table(vec![entry((0, 2), (0, 1)), entry((1, 5), (1, 2))], 5, 2);
        let err = decode_shard_table(&encode_shard_table(&t)).unwrap_err();
        assert!(matches!(&err, StoreError::Corrupt(m) if m.contains("overlap")), "{err:?}");

        // Not ending at the vocabulary size.
        let t = table(vec![entry((0, 2), (0, 2))], 5, 2);
        let err = decode_shard_table(&encode_shard_table(&t)).unwrap_err();
        assert!(matches!(&err, StoreError::Corrupt(m) if m.contains("end at 2")), "{err:?}");

        // Zero shards.
        let t = table(vec![], 0, 0);
        let err = decode_shard_table(&encode_shard_table(&t)).unwrap_err();
        assert!(matches!(&err, StoreError::Corrupt(m) if m.contains("zero shards")), "{err:?}");

        // Reserved flags.
        let mut bad = entry((0, 1), (0, 1));
        bad.flags = 4;
        let t = table(vec![bad], 1, 1);
        let err = decode_shard_table(&encode_shard_table(&t)).unwrap_err();
        assert!(matches!(err, StoreError::UnsupportedFlags { flags: 4 }), "{err:?}");
    }

    #[test]
    fn paths_and_dispatch() {
        let dir = std::env::temp_dir().join("rc-shard-dispatch-test");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(!is_sharded(&dir));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(!is_sharded(&dir));
        std::fs::write(manifest_path(&dir), b"stub").unwrap();
        assert!(is_sharded(&dir));
        assert_eq!(shard_path(&dir, 7).file_name().unwrap(), "shard-007.rcshard");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
