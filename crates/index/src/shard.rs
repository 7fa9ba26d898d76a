//! Per-term-range sharding of the interned CSR state.
//!
//! A shard is a contiguous dense-id slice of both vocabularies — term ids
//! `[term_range.0, term_range.1)` and entity slots `[entity_range.0,
//! entity_range.1)` — carrying the CSR postings of exactly those lists
//! with their precomputed `irf`/`eirf` and MaxScore bounds, offsets
//! rebased to the shard. Because the term vocabulary is interned in
//! lexicographic order (and entity slots ascending), a contiguous id
//! range *is* a term range, so the snapshot store can partition a corpus
//! into N independently decodable files and splice them back.
//!
//! Partitioning balances postings mass, not vocabulary size: shard
//! boundaries are chosen so each shard holds ≈ `1/N` of the posting
//! entries of its side, which is what makes a parallel open divide the
//! verification work evenly. The store writes each shard as one mapped
//! file; opening validates the shard views' tiling and shapes
//! (`MappedStore::new`) before any block is decoded.

use crate::index::InvertedIndex;
use crate::raw::{EntityParts, TermParts};

/// One contiguous slice of the index: the `index`-th of `count` shards.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexShard {
    /// Position of this shard in the sequence (0-based).
    pub index: u32,
    /// Dense term-id range `[lo, hi)` this shard carries.
    pub term_range: (u32, u32),
    /// Dense entity-slot range `[lo, hi)` this shard carries.
    pub entity_range: (u32, u32),
    /// Term-side slice: vocab/irf/max_tf for the range, offsets rebased
    /// to start at 0, postings of exactly these lists.
    pub terms: TermParts,
    /// Entity-side slice, same shape.
    pub entities: EntityParts,
}

/// Splits `[0, offsets.len() - 1)` into `n` contiguous ranges of roughly
/// equal postings mass (offsets are the CSR prefix sums, so
/// `offsets[i+1] - offsets[i]` is list `i`'s mass). Ranges may be empty
/// when `n` exceeds the vocabulary or the mass is very skewed; together
/// they always cover the id space exactly once, in order.
fn partition_by_mass(offsets: &[u64], n: usize) -> Vec<(u32, u32)> {
    let vocab = offsets.len().saturating_sub(1);
    let total = offsets.last().copied().unwrap_or(0);
    let mut bounds = Vec::with_capacity(n + 1);
    bounds.push(0u32);
    for k in 1..n {
        let bound = if total == 0 {
            // No postings to balance: fall back to an even vocab split.
            (vocab * k / n) as u32
        } else {
            // First id whose prefix mass reaches k/n of the total.
            let target = (total as u128 * k as u128 / n as u128) as u64;
            offsets[..=vocab].partition_point(|&o| o < target) as u32
        };
        let prev = *bounds.last().expect("bounds start non-empty");
        bounds.push(bound.clamp(prev, vocab as u32));
    }
    bounds.push(vocab as u32);
    bounds.windows(2).map(|w| (w[0], w[1])).collect()
}

/// The term-side slice of one shard, offsets rebased to 0.
fn slice_terms(t: &TermParts, lo: u32, hi: u32) -> TermParts {
    let (lo, hi) = (lo as usize, hi as usize);
    let base = t.offsets[lo];
    let end = t.offsets[hi];
    TermParts {
        vocab: t.vocab[lo..hi].to_vec(),
        offsets: t.offsets[lo..=hi].iter().map(|&o| o - base).collect(),
        docs: t.docs[base as usize..end as usize].to_vec(),
        tfs: t.tfs[base as usize..end as usize].to_vec(),
        irf: t.irf[lo..hi].to_vec(),
        max_tf: t.max_tf[lo..hi].to_vec(),
    }
}

/// The entity-side slice of one shard, offsets rebased to 0.
fn slice_entities(e: &EntityParts, lo: u32, hi: u32) -> EntityParts {
    let (lo, hi) = (lo as usize, hi as usize);
    let base = e.offsets[lo];
    let end = e.offsets[hi];
    EntityParts {
        vocab: e.vocab[lo..hi].to_vec(),
        offsets: e.offsets[lo..=hi].iter().map(|&o| o - base).collect(),
        docs: e.docs[base as usize..end as usize].to_vec(),
        efs: e.efs[base as usize..end as usize].to_vec(),
        we: e.we[base as usize..end as usize].to_vec(),
        eirf: e.eirf[lo..hi].to_vec(),
        max_contrib: e.max_contrib[lo..hi].to_vec(),
    }
}

impl InvertedIndex {
    /// Partitions the index into `shards` contiguous per-term-range (and
    /// per-entity-range) slices, each side balanced by postings mass.
    /// `shards` is clamped to at least 1. Concatenating the slices in
    /// order (offsets re-based) gives back [`InvertedIndex::to_parts`].
    pub fn to_shards(&self, shards: usize) -> Vec<IndexShard> {
        let n = shards.max(1);
        let parts = self.to_parts();
        let term_ranges = partition_by_mass(&parts.terms.offsets, n);
        let entity_ranges = partition_by_mass(&parts.entities.offsets, n);
        term_ranges
            .into_iter()
            .zip(entity_ranges)
            .enumerate()
            .map(|(i, (tr, er))| IndexShard {
                index: i as u32,
                term_range: tr,
                entity_range: er,
                terms: slice_terms(&parts.terms, tr.0, tr.1),
                entities: slice_entities(&parts.entities, er.0, er.1),
            })
            .collect()
    }
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
        b.add_document(&terms(&["swim", "cook", "train"]), &[(EntityId::new(3), 0.4), (EntityId::new(9), 0.1)]);
        b.add_document(&terms(&["pool", "train"]), &[(EntityId::new(9), 0.9)]);
        b.build()
    }

    /// Concatenates shard slices back into whole-index parts, re-basing
    /// each shard's offsets onto the running postings totals.
    fn concat(shards: &[IndexShard]) -> (TermParts, EntityParts) {
        let mut t = TermParts {
            vocab: vec![],
            offsets: vec![0],
            docs: vec![],
            tfs: vec![],
            irf: vec![],
            max_tf: vec![],
        };
        let mut e = EntityParts {
            vocab: vec![],
            offsets: vec![0],
            docs: vec![],
            efs: vec![],
            we: vec![],
            eirf: vec![],
            max_contrib: vec![],
        };
        for s in shards {
            let base = t.docs.len() as u64;
            t.offsets.extend(s.terms.offsets[1..].iter().map(|&o| o + base));
            t.vocab.extend(s.terms.vocab.iter().cloned());
            t.docs.extend(&s.terms.docs);
            t.tfs.extend(&s.terms.tfs);
            t.irf.extend(&s.terms.irf);
            t.max_tf.extend(&s.terms.max_tf);
            let base = e.docs.len() as u64;
            e.offsets.extend(s.entities.offsets[1..].iter().map(|&o| o + base));
            e.vocab.extend(&s.entities.vocab);
            e.docs.extend(&s.entities.docs);
            e.efs.extend(&s.entities.efs);
            e.we.extend(&s.entities.we);
            e.eirf.extend(&s.entities.eirf);
            e.max_contrib.extend(&s.entities.max_contrib);
        }
        (t, e)
    }

    #[test]
    fn shards_concatenate_back_to_the_parts_for_many_counts() {
        let idx = sample();
        let parts = idx.to_parts();
        for n in [1, 2, 3, 5, 7, 64] {
            let shards = idx.to_shards(n);
            assert_eq!(shards.len(), n, "shard count {n}");
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(s.index, i as u32);
                assert_eq!(s.terms.offsets.first(), Some(&0), "shard {i} offsets rebased");
                assert_eq!(s.entities.offsets.first(), Some(&0), "shard {i} offsets rebased");
            }
            let (terms, entities) = concat(&shards);
            assert_eq!(terms, parts.terms, "shard count {n}");
            assert_eq!(entities, parts.entities, "shard count {n}");
        }
    }

    #[test]
    fn ranges_tile_and_balance_mass() {
        let idx = sample();
        let parts = idx.to_parts();
        let shards = idx.to_shards(3);
        // Tiling: start at 0, contiguous, end at vocab length.
        let mut expected = 0u32;
        for s in &shards {
            assert_eq!(s.term_range.0, expected);
            expected = s.term_range.1;
        }
        assert_eq!(expected as usize, parts.terms.vocab.len());
        // Mass balance: no shard carries everything when 3 are requested
        // over 8 term lists.
        let masses: Vec<usize> = shards.iter().map(|s| s.terms.docs.len()).collect();
        assert_eq!(masses.iter().sum::<usize>(), parts.terms.docs.len());
        assert!(masses.iter().all(|&m| m < parts.terms.docs.len()), "{masses:?}");
    }

    #[test]
    fn more_shards_than_vocab_yields_empty_tail_shards() {
        let idx = sample();
        let shards = idx.to_shards(64);
        assert_eq!(shards.len(), 64);
        let non_empty = shards.iter().filter(|s| !s.terms.vocab.is_empty()).count();
        assert!(non_empty <= 8);
        let (terms, _) = concat(&shards);
        assert_eq!(terms, idx.to_parts().terms);
    }

    #[test]
    fn partition_by_mass_handles_degenerate_inputs() {
        // Empty vocabulary: every range is empty but the tiling holds.
        assert_eq!(partition_by_mass(&[0], 3), vec![(0, 0), (0, 0), (0, 0)]);
        // Zero postings: falls back to an even vocabulary split.
        assert_eq!(partition_by_mass(&[0, 0, 0, 0, 0], 2), vec![(0, 2), (2, 4)]);
        // One heavy list cannot be split below list granularity.
        let ranges = partition_by_mass(&[0, 100, 101, 102], 3);
        assert_eq!(ranges.iter().map(|r| r.1).next_back(), Some(3));
        let mut expected = 0;
        for &(lo, hi) in &ranges {
            assert_eq!(lo, expected);
            assert!(hi >= lo);
            expected = hi;
        }
    }
}
