//! The container envelope: magic, version, section table, checksums.
//!
//! The sharded-snapshot manifest (`RCMANI01`) is written in this
//! envelope; the `RCSHRD02` shard files have a fixed, alignment-padded
//! layout of their own (see [`crate::mapped`]). There is one streaming
//! decoder, [`read_container`], parameterised by the expected magic.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     8  magic  ("RCMANI01")
//!      8     4  format version   (u32 LE)
//!     12     4  feature flags    (u32 LE, any bit outside KNOWN_FLAGS
//!                                 refuses the file — see [`FLAG_PACKED_SECTIONS`])
//!     16     4  section count    (u32 LE)
//!     20     8  header crc64     (over bytes [0, 20))
//!     28   20·n  section table:  n × { kind u32, len u64, crc64 u64 }
//!   28+20n    8  table crc64     (over the table bytes)
//!      ...   …  payloads, concatenated in table order
//!     end−8   8  file crc64      (over every preceding byte)
//! ```
//!
//! Under [`FLAG_PACKED_SECTIONS`] every section payload carries a one-byte
//! packing tag (raw or LZ-compressed; see [`crate::pack`]). Section CRCs,
//! the layout table, and the whole-file CRC always cover the **on-disk**
//! (wrapped) bytes; unwrapping happens only after the entire envelope has
//! verified.
//!
//! Validation order is part of the format contract — each class of damage
//! maps to exactly one [`StoreError`]:
//!
//! 1. any short read                      → `Truncated`
//! 2. magic                               → `BadMagic`
//! 3. version (checked *before* the header checksum, so an old/new file
//!    reports `VersionMismatch` rather than a checksum failure)
//! 4. flags                               → `UnsupportedFlags`
//! 5. header crc                          → `ChecksumMismatch{"header"}`
//! 6. table crc                           → `ChecksumMismatch{"table"}`
//! 7. each payload crc, in table order    → `ChecksumMismatch{<section>}`
//! 8. whole-file crc                      → `ChecksumMismatch{"file"}`
//!
//! Only after the envelope fully verifies does decoding start; structural
//! problems found then are `Corrupt`.

use crate::crc::{crc64, Crc64};
use crate::err::StoreError;
use std::io::Read;

/// The format revision this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;

/// Header flag: every section payload is wrapped with a packing tag
/// (raw or LZ-compressed — [`crate::pack`]).
pub const FLAG_PACKED_SECTIONS: u32 = 1;

/// Every flag bit this build understands; any other set bit means the
/// file needs a newer reader ([`StoreError::UnsupportedFlags`]).
pub const KNOWN_FLAGS: u32 = FLAG_PACKED_SECTIONS;

/// Fixed header size: magic + version + flags + count + header crc.
pub const HEADER_LEN: usize = 28;

/// Bytes per section-table entry: kind + len + crc.
pub const TABLE_ENTRY_LEN: usize = 20;

/// Upper bound on the section count a reader will accept; the manifest
/// has 7, the headroom is for future minor revisions. Anything larger
/// is a forged header.
const MAX_SECTIONS: usize = 64;

/// Payloads are read in bounded chunks so a forged length cannot force a
/// multi-gigabyte allocation before EOF is discovered.
const READ_CHUNK: usize = 1 << 20;

/// One decoded section: its kind tag and verified payload.
#[derive(Debug)]
pub struct Section {
    /// The section's kind tag (see [`kind`]).
    pub kind: u32,
    /// The checksum-verified payload.
    pub payload: Vec<u8>,
}

/// Section kind tags. Values are part of the on-disk format; never
/// renumber. Tags 6, 7, 9, 10 and 11 belonged to the retired
/// monolithic and streamed-shard formats; never reuse them.
pub mod kind {
    /// Dataset config, fingerprints, node census.
    pub const META: u32 = 1;
    /// Social-graph nodes and adjacency.
    pub const GRAPH: u32 = 2;
    /// Synthetic web pages.
    pub const WEB: u32 = 3;
    /// Latent expertise, questionnaire answers, personas.
    pub const TRUTH: u32 = 4;
    /// Retained-document table and per-document lengths.
    pub const CORPUS: u32 = 5;
    /// Sharded-snapshot manifest: shard ranges, byte lengths, digests.
    pub const SHARD_TABLE: u32 = 8;
    /// Raw per-document term lengths: warm opens read this tiny section
    /// instead of unpacking `CORPUS`.
    pub const DOC_LENS: u32 = 12;
}

/// Section kinds whose payloads are worth running through the byte
/// compressor under [`FLAG_PACKED_SECTIONS`]: the synthetic-study
/// sections (text-heavy, highly redundant). The shard table and the
/// raw `doc_lens` array are wrapped raw.
const fn compress_candidate(kind_tag: u32) -> bool {
    matches!(kind_tag, kind::META | kind::GRAPH | kind::WEB | kind::TRUTH | kind::CORPUS)
}

/// The human name of a section kind (used in error messages and
/// [`SectionInfo`]).
pub const fn section_name(kind_tag: u32) -> &'static str {
    match kind_tag {
        kind::META => "meta",
        kind::GRAPH => "graph",
        kind::WEB => "web",
        kind::TRUTH => "truth",
        kind::CORPUS => "corpus",
        kind::SHARD_TABLE => "shard_table",
        kind::DOC_LENS => "doc_lens",
        _ => "unknown",
    }
}

// ----- writing ----------------------------------------------------------

/// Assembles the complete container from encoded section payloads under
/// `magic` and the header feature `flags`. Under [`FLAG_PACKED_SECTIONS`]
/// each payload is wrapped with its packing tag here (compressing the
/// study sections when that wins), so callers always hand over plain
/// encoded payloads.
pub fn assemble(magic: &[u8; 8], sections: &[Section], flags: u32) -> Vec<u8> {
    debug_assert_eq!(flags & !KNOWN_FLAGS, 0, "writer uses only known flags");
    let wrapped: Vec<Section>;
    let sections = if flags & FLAG_PACKED_SECTIONS != 0 {
        wrapped = sections
            .iter()
            .map(|s| {
                let payload = if compress_candidate(s.kind) {
                    crate::pack::wrap(&s.payload)
                } else {
                    let mut raw = Vec::with_capacity(1 + s.payload.len());
                    raw.push(crate::pack::TAG_RAW);
                    raw.extend_from_slice(&s.payload);
                    raw
                };
                Section { kind: s.kind, payload }
            })
            .collect();
        &wrapped[..]
    } else {
        sections
    };

    let payload_total: usize = sections.iter().map(|s| s.payload.len()).sum();
    let mut out = Vec::with_capacity(
        HEADER_LEN + sections.len() * TABLE_ENTRY_LEN + 8 + payload_total + 8,
    );

    out.extend_from_slice(magic);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let header_crc = crc64(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());

    let table_start = out.len();
    for s in sections {
        out.extend_from_slice(&s.kind.to_le_bytes());
        out.extend_from_slice(&(s.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc64(&s.payload).to_le_bytes());
    }
    let table_crc = crc64(&out[table_start..]);
    out.extend_from_slice(&table_crc.to_le_bytes());

    for s in sections {
        out.extend_from_slice(&s.payload);
    }

    let file_crc = crc64(&out);
    out.extend_from_slice(&file_crc.to_le_bytes());
    out
}

// ----- reading ----------------------------------------------------------

/// Wraps a reader, feeding every byte read into the whole-file digest.
struct HashingReader<R: Read> {
    inner: R,
    digest: Crc64,
    bytes_read: u64,
}

impl<R: Read> HashingReader<R> {
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), StoreError> {
        self.inner.read_exact(buf)?; // UnexpectedEof → Truncated via From
        self.digest.update(buf);
        self.bytes_read += buf.len() as u64;
        Ok(())
    }
}

/// The one streaming container decoder: chunked reads and the fixed
/// detection-order error mapping above. Returns the sections in table
/// order (payloads already unwrapped when the file sets
/// [`FLAG_PACKED_SECTIONS`]), the total byte count, and the header flags.
pub fn read_container<R: Read>(
    reader: R,
    magic: &[u8; 8],
) -> Result<(Vec<Section>, u64, u32), StoreError> {
    let mut r = HashingReader { inner: reader, digest: Crc64::new(), bytes_read: 0 };

    // Header: validate magic → version → flags → checksum, in that order.
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    if header[0..8] != *magic {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(StoreError::VersionMismatch { found: version, expected: FORMAT_VERSION });
    }
    let flags = u32::from_le_bytes(header[12..16].try_into().unwrap());
    if flags & !KNOWN_FLAGS != 0 {
        return Err(StoreError::UnsupportedFlags { flags });
    }
    let count = u32::from_le_bytes(header[16..20].try_into().unwrap()) as usize;
    let header_crc = u64::from_le_bytes(header[20..28].try_into().unwrap());
    if crc64(&header[..20]) != header_crc {
        return Err(StoreError::ChecksumMismatch { section: "header" });
    }
    if count > MAX_SECTIONS {
        return Err(StoreError::Corrupt(format!("section count {count} exceeds the format limit")));
    }

    // Section table + its checksum.
    let mut table = vec![0u8; count * TABLE_ENTRY_LEN];
    r.read_exact(&mut table)?;
    let mut crc_buf = [0u8; 8];
    r.read_exact(&mut crc_buf)?;
    if crc64(&table) != u64::from_le_bytes(crc_buf) {
        return Err(StoreError::ChecksumMismatch { section: "table" });
    }
    let mut entries = Vec::with_capacity(count);
    for chunk in table.chunks_exact(TABLE_ENTRY_LEN) {
        let kind_tag = u32::from_le_bytes(chunk[0..4].try_into().unwrap());
        let len = u64::from_le_bytes(chunk[4..12].try_into().unwrap());
        let crc = u64::from_le_bytes(chunk[12..20].try_into().unwrap());
        entries.push((kind_tag, len, crc));
    }

    // Payloads, verified section by section. Chunked reads keep a forged
    // length from allocating ahead of the bytes that actually exist.
    let mut sections = Vec::with_capacity(count);
    for (kind_tag, len, expected_crc) in entries {
        let len = usize::try_from(len)
            .map_err(|_| StoreError::Corrupt(format!("section length {len} overflows usize")))?;
        let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
        while payload.len() < len {
            let take = (len - payload.len()).min(READ_CHUNK);
            let start = payload.len();
            payload.resize(start + take, 0);
            r.read_exact(&mut payload[start..])?;
        }
        if crc64(&payload) != expected_crc {
            return Err(StoreError::ChecksumMismatch { section: section_name(kind_tag) });
        }
        sections.push(Section { kind: kind_tag, payload });
    }

    // Whole-file checksum: digest of everything streamed so far must match
    // the trailing 8 bytes (which are read outside the digest).
    let computed = r.digest.finish();
    let mut trailer = [0u8; 8];
    r.inner.read_exact(&mut trailer).map_err(StoreError::from)?;
    r.bytes_read += 8;
    if computed != u64::from_le_bytes(trailer) {
        return Err(StoreError::ChecksumMismatch { section: "file" });
    }
    // Anything after the trailer is not ours.
    let mut probe = [0u8; 1];
    match r.inner.read(&mut probe) {
        Ok(0) => {}
        Ok(_) => return Err(StoreError::Corrupt("trailing bytes after the file checksum".into())),
        Err(e) => return Err(StoreError::Io(e)),
    }

    // Only now — every checksum verified — unwrap packed payloads.
    if flags & FLAG_PACKED_SECTIONS != 0 {
        for s in &mut sections {
            s.payload = crate::pack::unwrap(section_name(s.kind), &s.payload)?;
        }
    }

    Ok((sections, r.bytes_read, flags))
}

// ----- layout introspection ---------------------------------------------

/// One named byte range of a container, as reported by [`layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// Region name: `"header"`, `"table"`, a section name, or `"file_crc"`.
    pub name: &'static str,
    /// Section kind tag (0 for envelope regions).
    pub kind: u32,
    /// First byte of the region.
    pub offset: usize,
    /// Region length in bytes.
    pub len: usize,
}

/// Maps a serialised container into its named byte regions (envelope
/// included) without decoding payloads. The fault-injection suite uses
/// this to aim bit-flips and truncations at every region of a manifest;
/// `rc load` failures can use it to point at the damaged range.
pub fn layout(bytes: &[u8], magic: &[u8; 8]) -> Result<Vec<SectionInfo>, StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated);
    }
    if bytes[0..8] != *magic {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(StoreError::VersionMismatch { found: version, expected: FORMAT_VERSION });
    }
    let count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    if count > MAX_SECTIONS {
        return Err(StoreError::Corrupt(format!("section count {count} exceeds the format limit")));
    }

    let mut infos = vec![SectionInfo { name: "header", kind: 0, offset: 0, len: HEADER_LEN }];
    let table_len = count * TABLE_ENTRY_LEN + 8;
    if bytes.len() < HEADER_LEN + table_len {
        return Err(StoreError::Truncated);
    }
    infos.push(SectionInfo { name: "table", kind: 0, offset: HEADER_LEN, len: table_len });

    let mut offset = HEADER_LEN + table_len;
    for i in 0..count {
        let entry = HEADER_LEN + i * TABLE_ENTRY_LEN;
        let kind_tag = u32::from_le_bytes(bytes[entry..entry + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[entry + 4..entry + 12].try_into().unwrap());
        let len = usize::try_from(len)
            .map_err(|_| StoreError::Corrupt(format!("section length {len} overflows usize")))?;
        if bytes.len() < offset + len {
            return Err(StoreError::Truncated);
        }
        infos.push(SectionInfo { name: section_name(kind_tag), kind: kind_tag, offset, len });
        offset += len;
    }
    if bytes.len() < offset + 8 {
        return Err(StoreError::Truncated);
    }
    infos.push(SectionInfo { name: "file_crc", kind: 0, offset, len: 8 });
    Ok(infos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::MANIFEST_MAGIC as MAGIC;

    fn two_sections() -> Vec<u8> {
        assemble(
            &MAGIC,
            &[
                Section { kind: kind::META, payload: vec![1, 2, 3] },
                Section { kind: kind::GRAPH, payload: vec![4; 100] },
            ],
            0,
        )
    }

    fn read(bytes: &[u8]) -> Result<(Vec<Section>, u64, u32), StoreError> {
        read_container(bytes, &MAGIC)
    }

    #[test]
    fn roundtrip() {
        let bytes = two_sections();
        let (sections, n, flags) = read(&bytes).unwrap();
        assert_eq!(n, bytes.len() as u64);
        assert_eq!(flags, 0);
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].kind, kind::META);
        assert_eq!(sections[0].payload, vec![1, 2, 3]);
        assert_eq!(sections[1].payload.len(), 100);
    }

    #[test]
    fn packed_sections_roundtrip_and_shrink() {
        // A redundant payload compresses; an already-dense one rides raw.
        let redundant = b"social graph social graph social graph ".repeat(100);
        let dense: Vec<u8> = (0..255u32).map(|i| (i.wrapping_mul(2654435761) >> 23) as u8).collect();
        let sections = [
            Section { kind: kind::GRAPH, payload: redundant.clone() },
            Section { kind: kind::SHARD_TABLE, payload: dense.clone() },
        ];
        let legacy = assemble(&MAGIC, &sections, 0);
        let packed = assemble(&MAGIC, &sections, FLAG_PACKED_SECTIONS);
        assert!(packed.len() < legacy.len(), "{} vs {}", packed.len(), legacy.len());

        let (got, n, flags) = read(&packed).unwrap();
        assert_eq!(n, packed.len() as u64);
        assert_eq!(flags, FLAG_PACKED_SECTIONS);
        assert_eq!(got[0].payload, redundant);
        assert_eq!(got[1].payload, dense);

        // On-disk, the non-candidate section is tag-RAW (1 byte overhead).
        let infos = layout(&packed, &MAGIC).unwrap();
        let st = infos.iter().find(|i| i.name == "shard_table").unwrap();
        assert_eq!(st.len, dense.len() + 1);
        assert_eq!(packed[st.offset], crate::pack::TAG_RAW);
    }

    #[test]
    fn packed_assembly_is_deterministic() {
        let sections = [Section { kind: kind::WEB, payload: b"page page page page".repeat(50) }];
        assert_eq!(
            assemble(&MAGIC, &sections, KNOWN_FLAGS),
            assemble(&MAGIC, &sections, KNOWN_FLAGS)
        );
    }

    #[test]
    fn layout_covers_every_byte_exactly_once() {
        let bytes = two_sections();
        let infos = layout(&bytes, &MAGIC).unwrap();
        let mut cursor = 0usize;
        for info in &infos {
            assert_eq!(info.offset, cursor, "gap before {}", info.name);
            cursor += info.len;
        }
        assert_eq!(cursor, bytes.len());
        let names: Vec<_> = infos.iter().map(|i| i.name).collect();
        assert_eq!(names, vec!["header", "table", "meta", "graph", "file_crc"]);
    }

    #[test]
    fn wrong_magic() {
        let mut bytes = two_sections();
        bytes[0] = b'X';
        assert!(matches!(read(&bytes), Err(StoreError::BadMagic)));
    }

    #[test]
    fn wrong_version_reports_both_numbers() {
        let mut bytes = two_sections();
        bytes[8] = 99;
        match read(&bytes) {
            Err(StoreError::VersionMismatch { found, expected }) => {
                assert_eq!(found, 99);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn unknown_flags_refused() {
        let mut bytes = two_sections();
        bytes[12] = 0x80; // a bit no revision of this build defines
        // Unknown-flag damage is detected before the header checksum:
        // flags are a compatibility statement, not just payload bytes.
        assert!(matches!(
            read(&bytes),
            Err(StoreError::UnsupportedFlags { flags: 0x80 })
        ));
    }

    #[test]
    fn known_flag_flip_fails_header_checksum() {
        // Flipping a *defined* flag bit passes the compatibility gate and
        // is then caught as header damage by the CRC.
        let mut bytes = two_sections();
        bytes[12] |= FLAG_PACKED_SECTIONS as u8;
        assert!(matches!(
            read(&bytes),
            Err(StoreError::ChecksumMismatch { section: "header" })
        ));
    }

    #[test]
    fn forged_packing_tag_is_corrupt_after_consistent_rewrite() {
        // Structural damage below the checksums: rewrite a packed
        // section's tag byte and re-sign every CRC. The envelope then
        // verifies, and the unwrapper must still refuse the payload.
        let sections = [Section { kind: kind::META, payload: vec![5; 40] }];
        let mut bytes = assemble(&MAGIC, &sections, FLAG_PACKED_SECTIONS);
        let infos = layout(&bytes, &MAGIC).unwrap();
        let meta = infos.iter().find(|i| i.name == "meta").unwrap();
        bytes[meta.offset] = 9; // unknown packing tag
        // Re-sign: section crc in the table, table crc, file crc.
        let payload_crc = crc64(&bytes[meta.offset..meta.offset + meta.len]);
        let entry = HEADER_LEN; // first table entry
        bytes[entry + 12..entry + 20].copy_from_slice(&payload_crc.to_le_bytes());
        let table = infos.iter().find(|i| i.name == "table").unwrap();
        let table_crc = crc64(&bytes[table.offset..table.offset + table.len - 8]);
        let crc_at = table.offset + table.len - 8;
        bytes[crc_at..crc_at + 8].copy_from_slice(&table_crc.to_le_bytes());
        let file_crc = crc64(&bytes[..bytes.len() - 8]);
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&file_crc.to_le_bytes());

        match read(&bytes) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("packing tag"), "{msg}"),
            other => panic!("expected Corrupt(packing tag), got {other:?}"),
        }
    }

    #[test]
    fn header_count_flip_fails_header_checksum() {
        let mut bytes = two_sections();
        bytes[16] ^= 1; // section count is covered by the header crc
        assert!(matches!(
            read(&bytes),
            Err(StoreError::ChecksumMismatch { section: "header" })
        ));
    }

    #[test]
    fn every_truncation_point_is_truncated() {
        let bytes = two_sections();
        for cut in 0..bytes.len() {
            match read(&bytes[..cut]) {
                Err(StoreError::Truncated) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut bytes = two_sections();
        bytes.push(0);
        assert!(matches!(read(&bytes), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn empty_input_is_truncated() {
        assert!(matches!(read(&[]), Err(StoreError::Truncated)));
        assert!(matches!(layout(&[], &MAGIC), Err(StoreError::Truncated)));
    }

    #[test]
    fn foreign_magic_is_bad_magic() {
        // A file written under another magic (a retired `RCSNAP01`
        // monolithic snapshot, say) is refused before anything else.
        let bytes = assemble(b"RCSNAP01", &[Section { kind: kind::META, payload: vec![9; 50] }], 0);
        assert!(matches!(read(&bytes), Err(StoreError::BadMagic)));
        assert!(matches!(layout(&bytes, &MAGIC), Err(StoreError::BadMagic)));
    }
}
