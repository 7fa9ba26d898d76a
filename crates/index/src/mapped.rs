//! The zero-copy (mapped) index store: per-shard views whose arrays are
//! [`Seg`]s borrowed straight from `mmap`'d `RCSHRD02` files.
//!
//! A [`MappedShardView`] mirrors one on-disk shard: the term side keeps
//! its vocabulary as concatenated UTF-8 bytes addressed through a byte
//! offsets table (no `String` materialisation, no interning `HashMap`),
//! and both sides keep their postings exclusively in block-compressed
//! [`PackedPostings`] form — the flat CSR mirror of the owned store does
//! not exist here, so a warm open copies nothing.
//!
//! Lookups exploit the interning order pinned by the raw-parts export
//! (terms lexicographic, entity ids ascending): resolving a term is a
//! binary search over the global dense-id space, reading vocabulary
//! bytes in place. The shard for a given id is found by partition point
//! over the contiguous shard ranges.
//!
//! # Validation contract
//!
//! [`MappedStore::new`] runs the *memory-safety* checks only: array
//! lengths, offset monotonicity and bounds, block shapes
//! ([`crate::block`]'s `validate_shape`), doc ids inside the collection,
//! vocabulary order/UTF-8 and finite weights — everything needed so no
//! later access can panic, index out of bounds, or feed NaN into a score
//! comparison, all in O(vocab + blocks) without touching posting
//! payloads. Deep content verification (checksums, bit-exact block
//! maxima) is the snapshot store's job: it runs once on the first open
//! of a shard file and is then attested by the validity sidecar.

use crate::backing::Seg;
use crate::block::{validate_shape, PackedPostings, BLOCK_SIZE};
use crate::index::InvertedIndex;

/// Term side of one mapped shard (dense ids `[term_range.0, term_range.1)`).
#[derive(Debug, Clone, Default)]
pub struct MappedTermSide {
    /// Byte offsets into `vocab_bytes`: `n + 1` entries, ascending.
    pub vocab_offsets: Seg<u64>,
    /// Concatenated UTF-8 vocabulary, lexicographically ascending.
    pub vocab_bytes: Seg<u8>,
    /// Precomputed `irf(t)` per local id.
    pub irf: Seg<f64>,
    /// Max `tf` per list (MaxScore bound ingredient).
    pub max_tf: Seg<u32>,
    /// Block-compressed postings, list ids local to the shard.
    pub packed: PackedPostings,
}

/// Entity side of one mapped shard.
#[derive(Debug, Clone, Default)]
pub struct MappedEntitySide {
    /// Raw entity ids per local slot, strictly ascending.
    pub vocab: Seg<u32>,
    /// Precomputed `eirf(e)` per local slot.
    pub eirf: Seg<f64>,
    /// Max `ef · we` per list (MaxScore bound ingredient).
    pub max_contrib: Seg<f64>,
    /// Block-compressed postings, list ids local to the shard.
    pub packed: PackedPostings,
}

/// One shard of a mapped index: both posting families for a contiguous
/// dense-id slice of the vocabulary, arrays borrowed from the mapping.
#[derive(Debug, Clone, Default)]
pub struct MappedShardView {
    /// Dense term-id range `[lo, hi)` this shard carries.
    pub term_range: (u32, u32),
    /// Dense entity-slot range `[lo, hi)` this shard carries.
    pub entity_range: (u32, u32),
    /// The term side.
    pub terms: MappedTermSide,
    /// The entity side.
    pub entities: MappedEntitySide,
}

/// The shard sequence plus the global id-space sizes, validated once at
/// construction so every accessor below is panic-free.
#[derive(Debug, Clone)]
pub(crate) struct MappedStore {
    pub(crate) shards: Vec<MappedShardView>,
    pub(crate) term_count: u32,
    pub(crate) entity_count: u32,
}

fn check(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

fn check_finite(side: &str, name: &str, values: &[f64]) -> Result<(), String> {
    check(values.iter().all(|v| v.is_finite()), || {
        format!("mapped {side}: non-finite value in {name}")
    })
}

/// Validates one side's per-list metadata arrays + packed block shape.
fn validate_side(
    side: &str,
    shard: usize,
    n: usize,
    packed: &PackedPostings,
    with_weights: bool,
    doc_count: usize,
) -> Result<(), String> {
    validate_shape(packed, n, with_weights)
        .map_err(|e| format!("mapped {side}: shard {shard}: {e}"))?;
    check(packed.last_doc.iter().all(|&d| (d as usize) < doc_count), || {
        format!("mapped {side}: shard {shard}: block last doc beyond doc count {doc_count}")
    })?;
    check_finite(side, "max_score", &packed.max_score)
        .map_err(|e| format!("{e} (shard {shard})"))
}

impl MappedStore {
    /// Builds and validates a mapped store over `shards`, which must tile
    /// both id spaces contiguously from 0, in shard order.
    pub(crate) fn new(shards: Vec<MappedShardView>, doc_count: usize) -> Result<Self, String> {
        check(!shards.is_empty(), || "mapped: empty shard sequence".into())?;
        let (mut t_next, mut e_next) = (0u32, 0u32);
        for (i, s) in shards.iter().enumerate() {
            for (side, (lo, hi), next) in [
                ("terms", s.term_range, &mut t_next),
                ("entities", s.entity_range, &mut e_next),
            ] {
                check(hi >= lo, || {
                    format!("mapped {side}: shard {i} range [{lo}, {hi}) is inverted")
                })?;
                check(lo == *next, || {
                    format!("mapped {side}: shard {i} range [{lo}, {hi}) does not tile (expected lo {next})")
                })?;
                *next = hi;
            }

            let t = &s.terms;
            let n_t = (s.term_range.1 - s.term_range.0) as usize;
            check(t.vocab_offsets.len() == n_t + 1, || {
                format!("mapped terms: shard {i} vocab_offsets length != range + 1")
            })?;
            check(t.vocab_offsets.first() == Some(&0), || {
                format!("mapped terms: shard {i} vocab_offsets[0] != 0")
            })?;
            check(t.vocab_offsets.windows(2).all(|w| w[0] <= w[1]), || {
                format!("mapped terms: shard {i} vocab_offsets not ascending")
            })?;
            check(t.vocab_offsets.last().copied() == Some(t.vocab_bytes.len() as u64), || {
                format!("mapped terms: shard {i} vocab_offsets end != vocab byte length")
            })?;
            check(t.irf.len() == n_t && t.max_tf.len() == n_t, || {
                format!("mapped terms: shard {i} irf/max_tf length != range")
            })?;
            check_finite("terms", "irf", &t.irf).map_err(|e| format!("{e} (shard {i})"))?;
            validate_side("terms", i, n_t, &t.packed, false, doc_count)?;

            let e = &s.entities;
            let n_e = (s.entity_range.1 - s.entity_range.0) as usize;
            check(e.vocab.len() == n_e, || {
                format!("mapped entities: shard {i} vocab length != range")
            })?;
            check(e.eirf.len() == n_e && e.max_contrib.len() == n_e, || {
                format!("mapped entities: shard {i} eirf/max_contrib length != range")
            })?;
            check_finite("entities", "eirf", &e.eirf).map_err(|e| format!("{e} (shard {i})"))?;
            check_finite("entities", "max_contrib", &e.max_contrib)
                .map_err(|e| format!("{e} (shard {i})"))?;
            validate_side("entities", i, n_e, &e.packed, true, doc_count)?;
        }

        let store = MappedStore { shards, term_count: t_next, entity_count: e_next };

        // Vocabulary order underpins the binary-search lookups; UTF-8 is
        // checked once here so `term_str` never has to fail later.
        for g in 0..store.term_count {
            let bytes = store.term_bytes(g);
            check(std::str::from_utf8(bytes).is_ok(), || {
                format!("mapped terms: vocabulary entry {g} is not UTF-8")
            })?;
            check(g == 0 || store.term_bytes(g - 1) < bytes, || {
                format!("mapped terms: vocabulary not strictly ascending at {g}")
            })?;
        }
        for g in 1..store.entity_count {
            check(store.entity_at(g - 1) < store.entity_at(g), || {
                format!("mapped entities: vocabulary not strictly ascending at {g}")
            })?;
        }
        Ok(store)
    }

    /// Size of the global dense term-id space.
    #[inline]
    pub(crate) fn term_count(&self) -> usize {
        self.term_count as usize
    }

    /// Size of the global dense entity-slot space.
    #[inline]
    pub(crate) fn entity_count(&self) -> usize {
        self.entity_count as usize
    }

    /// The shard holding global term id `g` (which must be `< term_count`).
    #[inline]
    fn term_shard(&self, g: u32) -> &MappedShardView {
        let i = self.shards.partition_point(|s| s.term_range.1 <= g);
        &self.shards[i]
    }

    /// The shard holding global entity slot `g`.
    #[inline]
    fn entity_shard(&self, g: u32) -> &MappedShardView {
        let i = self.shards.partition_point(|s| s.entity_range.1 <= g);
        &self.shards[i]
    }

    /// `(term side, local list id)` of global term id `g`.
    #[inline]
    pub(crate) fn term_side(&self, g: u32) -> (&MappedTermSide, u32) {
        let s = self.term_shard(g);
        (&s.terms, g - s.term_range.0)
    }

    /// `(entity side, local list id)` of global entity slot `g`.
    #[inline]
    pub(crate) fn entity_side(&self, g: u32) -> (&MappedEntitySide, u32) {
        let s = self.entity_shard(g);
        (&s.entities, g - s.entity_range.0)
    }

    /// Vocabulary bytes of global term id `g`, straight from the mapping.
    #[inline]
    fn term_bytes(&self, g: u32) -> &[u8] {
        let (t, local) = self.term_side(g);
        let (a, b) =
            (t.vocab_offsets[local as usize] as usize, t.vocab_offsets[local as usize + 1] as usize);
        &t.vocab_bytes[a..b]
    }

    /// Vocabulary entry `g` as a `&str` (UTF-8 was validated at open).
    #[inline]
    pub(crate) fn term_str(&self, g: u32) -> &str {
        std::str::from_utf8(self.term_bytes(g)).unwrap_or("")
    }

    /// Raw entity id interned at global slot `g`.
    #[inline]
    pub(crate) fn entity_at(&self, g: u32) -> u32 {
        let (e, local) = self.entity_side(g);
        e.vocab[local as usize]
    }

    /// Global dense id of `term`, by binary search over the mapped
    /// vocabulary (interning order is lexicographic — pinned by the
    /// raw-parts export tests).
    pub(crate) fn find_term(&self, term: &str) -> Option<u32> {
        let (mut lo, mut hi) = (0u32, self.term_count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.term_bytes(mid) < term.as_bytes() {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < self.term_count && self.term_bytes(lo) == term.as_bytes()).then_some(lo)
    }

    /// Global dense slot of raw entity id `e`, by binary search (slots
    /// are interned in ascending id order).
    pub(crate) fn find_entity(&self, e: u32) -> Option<u32> {
        let (mut lo, mut hi) = (0u32, self.entity_count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.entity_at(mid) < e {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < self.entity_count && self.entity_at(lo) == e).then_some(lo)
    }
}

/// Posting count of one packed list — the mapped store's `df` (the flat
/// store reads its CSR offsets instead).
#[inline]
pub(crate) fn list_len(packed: &PackedPostings, local: u32) -> usize {
    let (bs, be) = packed.list_blocks(local);
    packed.counts[bs..be].iter().map(|&c| c as usize).sum()
}

/// Point lookup of `doc` in a packed term list: binary-search the block
/// skip metadata, decode the one candidate block, binary-search inside.
pub(crate) fn lookup_freq(packed: &PackedPostings, local: u32, doc: u32) -> Option<u32> {
    let (bs, be) = packed.list_blocks(local);
    let b = bs + packed.last_doc[bs..be].partition_point(|&l| l < doc);
    if b >= be {
        return None;
    }
    let prev = if b == bs { -1 } else { i64::from(packed.last_doc[b - 1]) };
    let (mut docs, mut freqs) = ([0u32; BLOCK_SIZE], [0u32; BLOCK_SIZE]);
    let (n, _) = packed.decode_block(b, prev, &mut docs, &mut freqs);
    docs[..n].binary_search(&doc).ok().map(|i| freqs[i])
}

/// [`lookup_freq`] for an entity list, returning `(ef, we)`.
pub(crate) fn lookup_entity_freq(
    packed: &PackedPostings,
    local: u32,
    doc: u32,
) -> Option<(u32, f64)> {
    let (bs, be) = packed.list_blocks(local);
    let b = bs + packed.last_doc[bs..be].partition_point(|&l| l < doc);
    if b >= be {
        return None;
    }
    let prev = if b == bs { -1 } else { i64::from(packed.last_doc[b - 1]) };
    let (mut docs, mut freqs, mut wes) =
        ([0u32; BLOCK_SIZE], [0u32; BLOCK_SIZE], [0.0f64; BLOCK_SIZE]);
    let (n, _) = packed.decode_entity_block(b, prev, &mut docs, &mut freqs, &mut wes);
    docs[..n].binary_search(&doc).ok().map(|i| (freqs[i], wes[i]))
}

/// Converts an owned index into owned-backed mapped shard views — the
/// in-memory reference for what the snapshot store encodes into an
/// `RCSHRD02` file, and the workhorse of the owned↔mapped parity suites.
pub fn views_from_index(index: &InvertedIndex, shards: usize) -> Vec<MappedShardView> {
    index
        .to_shards(shards)
        .into_iter()
        .map(|sh| {
            let packed_t = crate::block::pack_term_parts(&sh.terms);
            let packed_e = crate::block::pack_entity_parts(&sh.entities);
            let mut vocab_bytes = Vec::new();
            let mut vocab_offsets = vec![0u64];
            for term in &sh.terms.vocab {
                vocab_bytes.extend_from_slice(term.as_bytes());
                vocab_offsets.push(vocab_bytes.len() as u64);
            }
            MappedShardView {
                term_range: sh.term_range,
                entity_range: sh.entity_range,
                terms: MappedTermSide {
                    vocab_offsets: vocab_offsets.into(),
                    vocab_bytes: vocab_bytes.into(),
                    irf: sh.terms.irf.into(),
                    max_tf: sh.terms.max_tf.into(),
                    packed: packed_t,
                },
                entities: MappedEntitySide {
                    vocab: sh.entities.vocab.iter().map(|e| e.0).collect::<Vec<_>>().into(),
                    eirf: sh.entities.eirf.into(),
                    max_contrib: sh.entities.max_contrib.into(),
                    packed: packed_e,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use rightcrowd_types::EntityId;

    fn sample() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        let terms = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        b.add_document(&terms(&["swim", "pool", "swim", "dive"]), &[(EntityId::new(3), 0.7)]);
        b.add_document(&terms(&["cook", "pasta", "boil"]), &[(EntityId::new(1), 0.2)]);
        b.add_document(&terms(&["swim", "cook", "train"]), &[(EntityId::new(3), 0.4)]);
        b.build()
    }

    #[test]
    fn store_resolves_every_vocab_entry() {
        let idx = sample();
        let parts = idx.to_parts();
        let store = MappedStore::new(views_from_index(&idx, 3), idx.doc_count()).unwrap();
        assert_eq!(store.term_count as usize, parts.terms.vocab.len());
        for (g, term) in parts.terms.vocab.iter().enumerate() {
            assert_eq!(store.find_term(term), Some(g as u32), "term {term}");
            assert_eq!(store.term_str(g as u32), term);
        }
        assert_eq!(store.find_term("zzz-unseen"), None);
        assert_eq!(store.find_term(""), None);
        for (g, e) in parts.entities.vocab.iter().enumerate() {
            assert_eq!(store.find_entity(e.0), Some(g as u32));
        }
        assert_eq!(store.find_entity(999), None);
    }

    #[test]
    fn rejects_untiled_or_misshapen_views() {
        let idx = sample();
        let n = idx.doc_count();

        let mut views = views_from_index(&idx, 2);
        views[1].term_range.0 += 1;
        assert!(MappedStore::new(views, n).unwrap_err().contains("tile"));

        let mut views = views_from_index(&idx, 2);
        views[0].terms.irf.to_mut().pop();
        assert!(MappedStore::new(views, n).unwrap_err().contains("irf"));

        let mut views = views_from_index(&idx, 2);
        views[0].terms.irf[0] = f64::NAN;
        assert!(MappedStore::new(views, n).unwrap_err().contains("non-finite"));

        let mut views = views_from_index(&idx, 1);
        let end = views[0].terms.vocab_offsets.len() - 1;
        views[0].terms.vocab_offsets[end] += 1;
        assert!(MappedStore::new(views, n).unwrap_err().contains("vocab"));

        // A block pointing past the collection.
        let mut views = views_from_index(&idx, 1);
        views[0].entities.packed.last_doc[0] = 1000;
        assert!(MappedStore::new(views, n).unwrap_err().contains("doc count"));

        assert!(MappedStore::new(Vec::new(), n).unwrap_err().contains("empty"));
    }

    #[test]
    fn point_lookups_match_flat_lists() {
        let idx = sample();
        let store = MappedStore::new(views_from_index(&idx, 2), idx.doc_count()).unwrap();
        let parts = idx.to_parts();
        for (g, term) in parts.terms.vocab.iter().enumerate() {
            let (a, b) = (parts.terms.offsets[g] as usize, parts.terms.offsets[g + 1] as usize);
            let (side, local) = store.term_side(g as u32);
            assert_eq!(list_len(&side.packed, local), b - a, "term {term}");
            for doc in 0..idx.doc_count() as u32 {
                let want = parts.terms.docs[a..b]
                    .iter()
                    .position(|&d| d == doc)
                    .map(|i| parts.terms.tfs[a + i]);
                assert_eq!(lookup_freq(&side.packed, local, doc), want, "term {term} doc {doc}");
            }
        }
    }
}
