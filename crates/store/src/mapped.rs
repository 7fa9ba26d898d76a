//! The shard layout (`RCSHRD02`) and its verify-then-map opener.
//!
//! An `RCSHRD02` file holds one shard's block-compressed postings, laid
//! out so the query path can *borrow* every array straight from an
//! `mmap(2)` of the file instead of decoding it into fresh allocations:
//!
//! ```text
//! offset   0  header (32 B): magic "RCSHRD02" · version u32 (2) ·
//!             flags u32 (0) · section count u32 · reserved u32 ·
//!             CRC-64 of bytes 0..24
//! offset  32  section table: count × 24 B
//!             { kind u32 · reserved u32 · payload offset u64 · len u64 }
//!             followed by the table's CRC-64
//!        ...  payloads, each starting at a 64-byte-aligned offset
//!             (zero padding between), in the fixed section order
//!  len − 8   CRC-64 of every preceding byte (the container convention,
//!             so the manifest's shard digest and the `.rcv` sidecar
//!             both attest this trailer)
//! ```
//!
//! Payloads are the raw little-endian element bytes of each array — the
//! wire format *is* the in-memory format on every supported target, and
//! 64-byte alignment (a multiple of every element size, and a cache
//! line) makes `&[u8] → &[u32]/&[u64]/&[f64]` reinterpretation sound
//! once the mapping's page alignment is factored in.
//!
//! # Open protocol
//!
//! *Cold* (no valid sidecar): map the file, stream one CRC-64 pass over
//! it (checked against both its own trailer and the manifest's promised
//! digest), fully re-derive and cross-check the block maxima
//! (`unpack_terms`/`unpack_entities`, so forged bounds are refused),
//! then write the `.rcv` sidecar.
//!
//! *Warm* (sidecar matches length + mtime *and* its digest equals the
//! manifest's): map and go. The layout checks (header, table, bounds,
//! alignment) are O(sections) and always run; no payload byte is
//! touched, so the open costs microseconds and N processes share one
//! physical copy of the index through the page cache.

use crate::container::{kind, FLAG_PACKED_SECTIONS, HEADER_LEN, KNOWN_FLAGS, TABLE_ENTRY_LEN};
use crate::crc::{crc64, Crc64};
use crate::err::StoreError;
use crate::mmap::FileBytes;
use crate::shard::{ShardEntry, SHARD_FORMAT_VERSION};
use crate::sidecar::{read_sidecar, write_sidecar, Sidecar};
use crate::wire::{put_u32, put_u64, Cursor};
use rightcrowd_index::{
    pack_entity_parts, pack_term_parts, unpack_entities, unpack_terms, IndexShard,
    MappedEntitySide, MappedShardView, MappedTermSide, PackedPostings, Seg,
};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// The 8-byte magic of a mapped postings shard.
pub const MAPPED_SHARD_MAGIC: [u8; 8] = *b"RCSHRD02";

/// Payload alignment inside an `RCSHRD02` file: a multiple of every
/// array element size and of the cache line.
pub const MAPPED_ALIGN: usize = 64;

const MAPPED_HEADER_LEN: usize = 32;
const MAPPED_TABLE_ENTRY_LEN: usize = 24;

/// Section kinds of the `RCSHRD02` envelope (its own namespace — the
/// fixed layout is not a `container` file).
pub mod mkind {
    /// Shard identity: index, count, declared id ranges.
    pub const SHARD_META: u32 = 1;
    pub const T_VOCAB_OFFSETS: u32 = 2;
    pub const T_VOCAB_BYTES: u32 = 3;
    pub const T_IRF: u32 = 4;
    pub const T_MAX_TF: u32 = 5;
    pub const T_BLOCK_OFFSETS: u32 = 6;
    pub const T_LAST_DOC: u32 = 7;
    pub const T_COUNTS: u32 = 8;
    pub const T_DOC_BITS: u32 = 9;
    pub const T_AUX_BITS: u32 = 10;
    pub const T_MAX_SCORE: u32 = 11;
    pub const T_DATA_OFFSETS: u32 = 12;
    pub const T_DATA: u32 = 13;
    pub const E_VOCAB: u32 = 14;
    pub const E_EIRF: u32 = 15;
    pub const E_MAX_CONTRIB: u32 = 16;
    pub const E_BLOCK_OFFSETS: u32 = 17;
    pub const E_LAST_DOC: u32 = 18;
    pub const E_COUNTS: u32 = 19;
    pub const E_DOC_BITS: u32 = 20;
    pub const E_AUX_BITS: u32 = 21;
    pub const E_MAX_SCORE: u32 = 22;
    pub const E_DATA_OFFSETS: u32 = 23;
    pub const E_DATA: u32 = 24;
}

/// The fixed section order every `RCSHRD02` file uses.
pub const MAPPED_SECTION_ORDER: [u32; 24] = [
    mkind::SHARD_META,
    mkind::T_VOCAB_OFFSETS,
    mkind::T_VOCAB_BYTES,
    mkind::T_IRF,
    mkind::T_MAX_TF,
    mkind::T_BLOCK_OFFSETS,
    mkind::T_LAST_DOC,
    mkind::T_COUNTS,
    mkind::T_DOC_BITS,
    mkind::T_AUX_BITS,
    mkind::T_MAX_SCORE,
    mkind::T_DATA_OFFSETS,
    mkind::T_DATA,
    mkind::E_VOCAB,
    mkind::E_EIRF,
    mkind::E_MAX_CONTRIB,
    mkind::E_BLOCK_OFFSETS,
    mkind::E_LAST_DOC,
    mkind::E_COUNTS,
    mkind::E_DOC_BITS,
    mkind::E_AUX_BITS,
    mkind::E_MAX_SCORE,
    mkind::E_DATA_OFFSETS,
    mkind::E_DATA,
];

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

#[inline]
fn align64(n: usize) -> usize {
    n.div_ceil(MAPPED_ALIGN) * MAPPED_ALIGN
}

// ----- writing ----------------------------------------------------------

fn u32s_le(v: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn u64s_le(v: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn f64s_le(v: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    out
}

fn packed_sections(p: &PackedPostings, kinds: &[u32; 8]) -> Vec<(u32, Vec<u8>)> {
    vec![
        (kinds[0], u32s_le(&p.block_offsets)),
        (kinds[1], u32s_le(&p.last_doc)),
        (kinds[2], u32s_le(&p.counts)),
        (kinds[3], p.doc_bits.to_vec()),
        (kinds[4], p.aux_bits.to_vec()),
        (kinds[5], f64s_le(&p.max_score)),
        (kinds[6], u64s_le(&p.data_offsets)),
        (kinds[7], p.data.to_vec()),
    ]
}

/// Assembles a complete `RCSHRD02` file from `(kind, payload)` pairs in
/// [`MAPPED_SECTION_ORDER`].
fn assemble_mapped(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let table_end = MAPPED_HEADER_LEN + sections.len() * MAPPED_TABLE_ENTRY_LEN + 8;
    let mut offsets = Vec::with_capacity(sections.len());
    let mut at = align64(table_end);
    for (_, payload) in sections {
        offsets.push(at);
        at = align64(at + payload.len());
    }
    let mut out = Vec::with_capacity(at + 8);

    out.extend_from_slice(&MAPPED_SHARD_MAGIC);
    out.extend_from_slice(&SHARD_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // flags
    put_u32(&mut out, sections.len() as u32);
    out.extend_from_slice(&0u32.to_le_bytes()); // reserved
    let header_crc = crc64(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());

    let table_start = out.len();
    for ((kind_tag, payload), offset) in sections.iter().zip(&offsets) {
        put_u32(&mut out, *kind_tag);
        out.extend_from_slice(&0u32.to_le_bytes()); // reserved
        put_u64(&mut out, *offset as u64);
        put_u64(&mut out, payload.len() as u64);
    }
    let table_crc = crc64(&out[table_start..]);
    out.extend_from_slice(&table_crc.to_le_bytes());

    for ((_, payload), offset) in sections.iter().zip(&offsets) {
        out.resize(*offset, 0);
        out.extend_from_slice(payload);
    }
    out.resize(at, 0);
    let file_crc = crc64(&out);
    out.extend_from_slice(&file_crc.to_le_bytes());
    out
}

/// Serialises one shard into a complete `RCSHRD02` file (fixed layout,
/// aligned payloads, block-compressed postings).
pub(crate) fn encode_mapped_shard(shard: &IndexShard, shard_count: usize) -> Vec<u8> {
    let packed_t = pack_term_parts(&shard.terms);
    let packed_e = pack_entity_parts(&shard.entities);

    let mut vocab_bytes = Vec::new();
    let mut vocab_offsets = vec![0u64];
    for term in &shard.terms.vocab {
        vocab_bytes.extend_from_slice(term.as_bytes());
        vocab_offsets.push(vocab_bytes.len() as u64);
    }
    let entity_vocab: Vec<u32> = shard.entities.vocab.iter().map(|e| e.0).collect();

    let mut sections = vec![
        (mkind::SHARD_META, crate::shard::encode_shard_meta(shard, shard_count)),
        (mkind::T_VOCAB_OFFSETS, u64s_le(&vocab_offsets)),
        (mkind::T_VOCAB_BYTES, vocab_bytes),
        (mkind::T_IRF, f64s_le(&shard.terms.irf)),
        (mkind::T_MAX_TF, u32s_le(&shard.terms.max_tf)),
    ];
    sections.extend(packed_sections(
        &packed_t,
        &[
            mkind::T_BLOCK_OFFSETS,
            mkind::T_LAST_DOC,
            mkind::T_COUNTS,
            mkind::T_DOC_BITS,
            mkind::T_AUX_BITS,
            mkind::T_MAX_SCORE,
            mkind::T_DATA_OFFSETS,
            mkind::T_DATA,
        ],
    ));
    sections.push((mkind::E_VOCAB, u32s_le(&entity_vocab)));
    sections.push((mkind::E_EIRF, f64s_le(&shard.entities.eirf)));
    sections.push((mkind::E_MAX_CONTRIB, f64s_le(&shard.entities.max_contrib)));
    sections.extend(packed_sections(
        &packed_e,
        &[
            mkind::E_BLOCK_OFFSETS,
            mkind::E_LAST_DOC,
            mkind::E_COUNTS,
            mkind::E_DOC_BITS,
            mkind::E_AUX_BITS,
            mkind::E_MAX_SCORE,
            mkind::E_DATA_OFFSETS,
            mkind::E_DATA,
        ],
    ));
    debug_assert_eq!(
        sections.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
        MAPPED_SECTION_ORDER.to_vec()
    );
    assemble_mapped(&sections)
}

// ----- layout parsing ---------------------------------------------------

/// One parsed table row: the byte range of a payload inside the file.
struct MappedSection {
    kind: u32,
    offset: usize,
    len: usize,
}

/// Parses and structurally validates an `RCSHRD02` byte image: header
/// and table checksums, the fixed section order, 64-byte payload
/// alignment, and in-bounds non-overlapping payload ranges. Does NOT
/// verify the trailing whole-file digest — that is the caller's cold/warm
/// decision.
fn parse_mapped_layout(bytes: &[u8]) -> Result<Vec<MappedSection>, StoreError> {
    if bytes.len() < MAPPED_HEADER_LEN + 8 {
        return Err(StoreError::Truncated);
    }
    if bytes[0..8] != MAPPED_SHARD_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let u32at = |a: usize| u32::from_le_bytes(bytes[a..a + 4].try_into().expect("4 bytes"));
    let u64at = |a: usize| u64::from_le_bytes(bytes[a..a + 8].try_into().expect("8 bytes"));
    let version = u32at(8);
    if version != SHARD_FORMAT_VERSION {
        return Err(StoreError::VersionMismatch { found: version, expected: SHARD_FORMAT_VERSION });
    }
    let flags = u32at(12);
    if flags != 0 {
        return Err(StoreError::UnsupportedFlags { flags });
    }
    if crc64(&bytes[..24]) != u64at(24) {
        return Err(StoreError::ChecksumMismatch { section: "header" });
    }
    let count = u32at(16) as usize;
    if count != MAPPED_SECTION_ORDER.len() {
        return Err(corrupt(format!(
            "mapped shard declares {count} sections, format has {}",
            MAPPED_SECTION_ORDER.len()
        )));
    }

    let table_start = MAPPED_HEADER_LEN;
    let table_len = count * MAPPED_TABLE_ENTRY_LEN;
    if bytes.len() < table_start + table_len + 8 + 8 {
        return Err(StoreError::Truncated);
    }
    if crc64(&bytes[table_start..table_start + table_len]) != u64at(table_start + table_len) {
        return Err(StoreError::ChecksumMismatch { section: "table" });
    }

    let payload_area_end = bytes.len() - 8;
    let mut sections = Vec::with_capacity(count);
    let mut cursor = align64(table_start + table_len + 8);
    for (i, &want_kind) in MAPPED_SECTION_ORDER.iter().enumerate() {
        let row = table_start + i * MAPPED_TABLE_ENTRY_LEN;
        let kind_tag = u32at(row);
        if kind_tag != want_kind {
            return Err(corrupt(format!(
                "mapped shard section {i} has kind {kind_tag}, format wants {want_kind}"
            )));
        }
        if u32at(row + 4) != 0 {
            return Err(corrupt(format!("mapped shard section {i} has non-zero reserved word")));
        }
        let offset = u64at(row + 8) as usize;
        let len = u64at(row + 16) as usize;
        if !offset.is_multiple_of(MAPPED_ALIGN) {
            return Err(corrupt(format!("mapped shard section {i} payload is not 64-byte aligned")));
        }
        if offset != cursor {
            return Err(corrupt(format!(
                "mapped shard section {i} starts at {offset}, layout expects {cursor}"
            )));
        }
        let end = offset.checked_add(len).ok_or_else(|| corrupt("mapped shard section overflow"))?;
        if end > payload_area_end {
            return Err(StoreError::Truncated);
        }
        cursor = align64(end);
        sections.push(MappedSection { kind: kind_tag, offset, len });
    }
    if cursor != payload_area_end {
        return Err(corrupt(format!(
            "mapped shard has {} bytes of trailing garbage before the digest",
            payload_area_end - cursor
        )));
    }
    Ok(sections)
}

// ----- view construction ------------------------------------------------

/// Borrows a typed segment from the file bytes. Element reinterpretation
/// is sound: payload offsets are 64-byte aligned within a page-aligned
/// (or 8-byte-aligned fallback) base, and the wire format is the
/// little-endian native layout of every supported target.
fn seg<T: Copy + Send + Sync + 'static>(
    fb: &FileBytes,
    s: &MappedSection,
) -> Result<Seg<T>, StoreError> {
    let elem = std::mem::size_of::<T>();
    if !s.len.is_multiple_of(elem) {
        return Err(corrupt(format!(
            "mapped shard section kind {} has {} bytes, not a multiple of element size {elem}",
            s.kind, s.len
        )));
    }
    let bytes = fb.as_slice();
    let ptr = bytes[s.offset..s.offset + s.len].as_ptr();
    debug_assert_eq!(ptr as usize % std::mem::align_of::<T>(), 0);
    // SAFETY: the range was bounds-checked by `parse_mapped_layout`, the
    // base is at least 8-byte aligned and the offset 64-byte aligned, and
    // the FileBytes owner keeps the memory alive and immutable.
    Ok(unsafe { Seg::from_owner(fb.owner(), ptr.cast::<T>(), s.len / elem) })
}

fn packed_from(fb: &FileBytes, s: &[MappedSection]) -> Result<PackedPostings, StoreError> {
    Ok(PackedPostings {
        block_offsets: seg(fb, &s[0])?,
        last_doc: seg(fb, &s[1])?,
        counts: seg(fb, &s[2])?,
        doc_bits: seg(fb, &s[3])?,
        aux_bits: seg(fb, &s[4])?,
        max_score: seg(fb, &s[5])?,
        data_offsets: seg(fb, &s[6])?,
        data: seg(fb, &s[7])?,
    })
}

/// Builds the shard view over an already-layout-validated mapping and
/// cross-checks the recorded identity against the manifest's entry.
fn view_from(
    fb: &FileBytes,
    sections: &[MappedSection],
    index: u32,
    entry: &ShardEntry,
    shard_count: usize,
) -> Result<MappedShardView, StoreError> {
    let meta_s = &sections[0];
    let meta = crate::shard::decode_shard_meta(
        &fb.as_slice()[meta_s.offset..meta_s.offset + meta_s.len],
    )?;
    if meta.index != index
        || meta.shard_count != shard_count as u32
        || meta.term_range != entry.term_range
        || meta.entity_range != entry.entity_range
    {
        return Err(corrupt(format!(
            "mapped shard {index} identity mismatch: file says shard {}/{} terms [{}, {}) \
             entities [{}, {}), manifest says shard {index}/{shard_count} terms [{}, {}) \
             entities [{}, {})",
            meta.index,
            meta.shard_count,
            meta.term_range.0,
            meta.term_range.1,
            meta.entity_range.0,
            meta.entity_range.1,
            entry.term_range.0,
            entry.term_range.1,
            entry.entity_range.0,
            entry.entity_range.1,
        )));
    }
    Ok(MappedShardView {
        term_range: entry.term_range,
        entity_range: entry.entity_range,
        terms: MappedTermSide {
            vocab_offsets: seg(fb, &sections[1])?,
            vocab_bytes: seg(fb, &sections[2])?,
            irf: seg(fb, &sections[3])?,
            max_tf: seg(fb, &sections[4])?,
            packed: packed_from(fb, &sections[5..13])?,
        },
        entities: MappedEntitySide {
            vocab: seg(fb, &sections[13])?,
            eirf: seg(fb, &sections[14])?,
            max_contrib: seg(fb, &sections[15])?,
            packed: packed_from(fb, &sections[16..24])?,
        },
    })
}

/// The deep content verification a cold open runs (and a sidecar then
/// attests): every posting block re-derived with full
/// monotonicity/overflow checking, the stored block and per-list maxima
/// proven bit-identical to the re-derived values, so forged bounds can
/// never steer the pruning.
fn verify_view_deep(view: &MappedShardView, index: u32) -> Result<(), StoreError> {
    let n_t = (view.term_range.1 - view.term_range.0) as usize;
    let (_, _, _, max_tf) = unpack_terms(&view.terms.packed, n_t)
        .map_err(|e| corrupt(format!("mapped shard {index}: {e}")))?;
    if max_tf != *view.terms.max_tf {
        return Err(corrupt(format!(
            "mapped shard {index}: stored per-list max_tf disagrees with decoded postings"
        )));
    }
    let n_e = (view.entity_range.1 - view.entity_range.0) as usize;
    let (_, _, _, _, max_contrib) = unpack_entities(&view.entities.packed, n_e)
        .map_err(|e| corrupt(format!("mapped shard {index}: {e}")))?;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(&max_contrib) != bits(&view.entities.max_contrib) {
        return Err(corrupt(format!(
            "mapped shard {index}: stored per-list max_contrib disagrees with decoded postings"
        )));
    }
    Ok(())
}

// ----- opening ----------------------------------------------------------

/// One opened mapped shard.
pub(crate) struct OpenedShard {
    pub view: MappedShardView,
    /// File size (== bytes now behind the mapping).
    pub bytes: u64,
    /// Whether the sidecar waived the streamed verification.
    pub warm: bool,
}

/// Opens one `RCSHRD02` shard file: sidecar-or-verify, map, view.
///
/// The sidecar's digest is only trusted when it equals the *manifest's*
/// digest for this shard (`entry.digest`) — a forged or stale sidecar
/// falls back to the full streamed verification, which then fails
/// against the manifest if the bytes really are wrong.
pub(crate) fn open_mapped_shard(
    path: &Path,
    index: u32,
    entry: &ShardEntry,
    shard_count: usize,
) -> Result<OpenedShard, StoreError> {
    let _span = rightcrowd_obs::span!("store.open_mapped_shard");
    let warm = matches!(
        read_sidecar(path),
        Ok(sc) if sc.attests(path, SHARD_FORMAT_VERSION, entry.digest)
    );

    let fb = match FileBytes::open(path, std::fs::metadata(path).map_err(io_missing(index))?.len())
    {
        Ok(fb) => fb,
        Err(e) => return Err(io_missing(index)(e)),
    };
    let bytes = fb.as_slice();
    if bytes.len() as u64 != entry.byte_len || bytes.len() < 8 {
        return Err(StoreError::ShardChecksumMismatch { index });
    }
    let trailer = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    if trailer != entry.digest {
        // The file's own claim already disagrees with the manifest; no
        // amount of hashing can save it.
        return Err(StoreError::ShardChecksumMismatch { index });
    }
    let sections = parse_mapped_layout(bytes)?;
    let view = view_from(&fb, &sections, index, entry, shard_count)?;

    if warm {
        rightcrowd_obs::add(rightcrowd_obs::CounterId::SidecarHits, 1);
    } else {
        rightcrowd_obs::add(rightcrowd_obs::CounterId::SidecarMisses, 1);
        // The streamed pass: one CRC over every byte, then the deep
        // content verification, then the receipt.
        let mut digest = Crc64::new();
        digest.update(&bytes[..bytes.len() - 8]);
        if digest.finish() != entry.digest {
            return Err(StoreError::ShardChecksumMismatch { index });
        }
        verify_view_deep(&view, index)?;
        rightcrowd_obs::add(rightcrowd_obs::CounterId::ShardBytesRead, bytes.len() as u64);
        if let Ok(sc) = Sidecar::for_file(path, SHARD_FORMAT_VERSION, entry.digest) {
            let _ = write_sidecar(path, &sc);
        }
    }
    rightcrowd_obs::add(rightcrowd_obs::CounterId::MmapOpens, 1);
    rightcrowd_obs::add(rightcrowd_obs::CounterId::MappedBytes, bytes.len() as u64);
    Ok(OpenedShard { view, bytes: fb.as_slice().len() as u64, warm })
}

fn io_missing(index: u32) -> impl Fn(std::io::Error) -> StoreError {
    move |e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            StoreError::ShardMissing { index }
        } else {
            StoreError::Io(e)
        }
    }
}

// ----- manifest fast path -----------------------------------------------

/// What the index-only manifest read produced.
pub(crate) struct ManifestIndexOnly {
    pub table: crate::shard::ShardTable,
    pub doc_lens: Vec<u32>,
    /// Whole-file digest (the trailing 8 bytes) — the trust anchor for
    /// the manifest's own sidecar.
    pub digest: u64,
    /// Bytes actually read from disk (tiny on the warm path).
    pub bytes_read: u64,
    /// Whether the manifest sidecar waived the full streamed read.
    pub warm: bool,
}

/// Reads only what a mapped open needs from the manifest — the shard
/// table and the raw `doc_lens` section — without unpacking the study
/// sections.
///
/// Warm path (sidecar matches stat + the file's own trailing digest):
/// four targeted reads — trailer, header, table, the two payloads —
/// each guarded by the envelope's own CRCs. Cold path: one full
/// streamed verification of the whole manifest, then
/// the sidecar is written.
pub(crate) fn read_manifest_index_only(dir: &Path) -> Result<ManifestIndexOnly, StoreError> {
    let path = crate::shard::manifest_path(dir);
    if let Ok(sc) = read_sidecar(&path) {
        match read_manifest_fast(&path, &sc) {
            Ok(Some(out)) => {
                rightcrowd_obs::add(rightcrowd_obs::CounterId::SidecarHits, 1);
                rightcrowd_obs::add(rightcrowd_obs::CounterId::SnapshotBytesRead, out.bytes_read);
                return Ok(out);
            }
            Ok(None) => {} // stale sidecar — fall through to the slow path
            Err(e) => return Err(e),
        }
    }
    rightcrowd_obs::add(rightcrowd_obs::CounterId::SidecarMisses, 1);
    let bytes = std::fs::read(&path)?;
    let digest = trailing_u64(&bytes)?;
    let (sections, n, _flags) =
        crate::container::read_container(&bytes[..], &crate::shard::MANIFEST_MAGIC)?;
    let (table, doc_lens) = mapped_manifest_sections(&sections)?;
    rightcrowd_obs::add(rightcrowd_obs::CounterId::SnapshotBytesRead, n);
    if let Ok(sc) = Sidecar::for_file(&path, SHARD_FORMAT_VERSION, digest) {
        let _ = write_sidecar(&path, &sc);
    }
    Ok(ManifestIndexOnly { table, doc_lens, digest, bytes_read: n, warm: false })
}

fn trailing_u64(bytes: &[u8]) -> Result<u64, StoreError> {
    if bytes.len() < 8 {
        return Err(StoreError::Truncated);
    }
    Ok(u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes")))
}

/// Decodes the shard table + doc_lens out of a fully-read manifest's
/// sections (the `Section.payload`s are already unwrapped). The table's
/// format version is checked before the `doc_lens` lookup, so a
/// retired-format manifest reports `VersionMismatch`.
pub(crate) fn mapped_manifest_sections(
    sections: &[crate::container::Section],
) -> Result<(crate::shard::ShardTable, Vec<u32>), StoreError> {
    let table_sec = sections
        .iter()
        .find(|s| s.kind == kind::SHARD_TABLE)
        .ok_or_else(|| corrupt("manifest has no shard_table section"))?;
    let table = crate::shard::decode_shard_table(&table_sec.payload)?;
    let lens_sec = sections
        .iter()
        .find(|s| s.kind == kind::DOC_LENS)
        .ok_or_else(|| corrupt("manifest has no doc_lens section"))?;
    let doc_lens = decode_doc_lens(&lens_sec.payload)?;
    Ok((table, doc_lens))
}

/// Encodes the manifest's raw `doc_lens` section.
pub(crate) fn encode_doc_lens(doc_lens: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + doc_lens.len() * 4);
    crate::wire::put_u32s(&mut buf, doc_lens);
    buf
}

pub(crate) fn decode_doc_lens(payload: &[u8]) -> Result<Vec<u32>, StoreError> {
    let mut c = Cursor::new(payload);
    let lens = c.u32s()?;
    c.finish("doc_lens")?;
    Ok(lens)
}

/// The targeted-read warm path. Returns `Ok(None)` when the sidecar
/// turns out stale (stat or digest disagree) so the caller can fall back
/// without treating it as corruption.
fn read_manifest_fast(path: &Path, sc: &Sidecar) -> Result<Option<ManifestIndexOnly>, StoreError> {
    if !sc.attests(path, SHARD_FORMAT_VERSION, sc.digest) {
        // Self-anchored check is vacuous for the digest; stat must match.
        return Ok(None);
    }
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(_) => return Ok(None),
    };
    let file_len = file.metadata()?.len();
    if file_len != sc.file_len || file_len < (HEADER_LEN + 8 + 8) as u64 {
        return Ok(None);
    }
    let mut read_at = |at: u64, len: usize| -> Result<Vec<u8>, StoreError> {
        let mut buf = vec![0u8; len];
        file.seek(SeekFrom::Start(at))?;
        file.read_exact(&mut buf)?;
        Ok(buf)
    };

    // The manifest sidecar's trust anchor is the file's own trailing
    // digest: the sidecar only waives re-hashing of bytes whose digest
    // it recorded at full-verification time.
    let trailer = read_at(file_len - 8, 8)?;
    if u64::from_le_bytes(trailer.try_into().expect("8 bytes")) != sc.digest {
        return Ok(None);
    }

    let header = read_at(0, HEADER_LEN)?;
    if header[0..8] != crate::shard::MANIFEST_MAGIC {
        return Ok(None);
    }
    let u32at = |b: &[u8], a: usize| u32::from_le_bytes(b[a..a + 4].try_into().expect("4 bytes"));
    let version = u32at(&header, 8);
    let flags = u32at(&header, 12);
    let count = u32at(&header, 16) as usize;
    if version != crate::container::FORMAT_VERSION
        || flags & !KNOWN_FLAGS != 0
        || count == 0
        || count > 64
        || crc64(&header[..20])
            != u64::from_le_bytes(header[20..28].try_into().expect("8 bytes"))
    {
        return Ok(None);
    }

    let table_len = count * TABLE_ENTRY_LEN;
    let table = read_at(HEADER_LEN as u64, table_len + 8)?;
    if crc64(&table[..table_len])
        != u64::from_le_bytes(table[table_len..].try_into().expect("8 bytes"))
    {
        return Ok(None);
    }

    let mut offset = (HEADER_LEN + table_len + 8) as u64;
    let mut found: Vec<(u32, u64, usize, u64)> = Vec::new(); // kind, offset, len, crc
    for i in 0..count {
        let row = &table[i * TABLE_ENTRY_LEN..(i + 1) * TABLE_ENTRY_LEN];
        let kind_tag = u32at(row, 0);
        let len = u64::from_le_bytes(row[4..12].try_into().expect("8 bytes"));
        let crc = u64::from_le_bytes(row[12..20].try_into().expect("8 bytes"));
        let len_usize = match usize::try_from(len) {
            Ok(l) => l,
            Err(_) => return Ok(None),
        };
        if matches!(kind_tag, kind::SHARD_TABLE | kind::DOC_LENS) {
            found.push((kind_tag, offset, len_usize, crc));
        }
        offset = match offset.checked_add(len) {
            Some(o) => o,
            None => return Ok(None),
        };
    }
    if offset + 8 != file_len {
        return Ok(None);
    }
    let mut bytes_read = (HEADER_LEN + table_len + 8 + 8) as u64;
    let mut table_payload = None;
    let mut lens_payload = None;
    for (kind_tag, at, len, crc) in found {
        let wrapped = read_at(at, len)?;
        if crc64(&wrapped) != crc {
            return Ok(None);
        }
        bytes_read += len as u64;
        let payload = if flags & FLAG_PACKED_SECTIONS != 0 {
            crate::pack::unwrap(crate::container::section_name(kind_tag), &wrapped)?
        } else {
            wrapped
        };
        match kind_tag {
            kind::SHARD_TABLE => table_payload = Some(payload),
            _ => lens_payload = Some(payload),
        }
    }
    let (Some(table_payload), Some(lens_payload)) = (table_payload, lens_payload) else {
        return Ok(None); // a section is missing — the slow path decides
    };
    let table = crate::shard::decode_shard_table(&table_payload)?;
    let doc_lens = decode_doc_lens(&lens_payload)?;
    Ok(Some(ManifestIndexOnly {
        table,
        doc_lens,
        digest: sc.digest,
        bytes_read,
        warm: true,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_helper() {
        assert_eq!(align64(0), 0);
        assert_eq!(align64(1), 64);
        assert_eq!(align64(64), 64);
        assert_eq!(align64(65), 128);
    }

    #[test]
    fn doc_lens_roundtrip() {
        let lens = vec![3u32, 0, 7, 1];
        assert_eq!(decode_doc_lens(&encode_doc_lens(&lens)).unwrap(), lens);
        assert!(decode_doc_lens(&[1, 2, 3]).is_err());
    }
}
