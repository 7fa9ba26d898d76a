//! Raw-parts export of the interned CSR state.
//!
//! [`IndexParts`] is the canonical, backing-independent view of an
//! [`InvertedIndex`]: vocabularies in dense-id order, CSR offsets,
//! posting arrays and the precomputed `irf`/`eirf`/`we`/bound tables.
//! The snapshot store slices it into shards ([`InvertedIndex::to_shards`])
//! and `PartialEq` compares it whenever a mapped index is involved.
//! Exporting is loss-free and deterministic (the interning `HashMap`s
//! are inverted into id-ordered vectors, never iterated).

use crate::block::BLOCK_SIZE;
use crate::index::InvertedIndex;
use crate::mapped::MappedStore;
use rightcrowd_types::EntityId;

/// The term side of [`IndexParts`]: vocabulary in dense term-id order plus
/// the CSR arrays of the index's term table.
#[derive(Debug, Clone, PartialEq)]
pub struct TermParts {
    /// `vocab[id]` is the term interned as dense id `id`.
    pub vocab: Vec<String>,
    /// CSR offsets (`vocab.len() + 1` entries, ascending, last = docs.len()).
    pub offsets: Vec<u64>,
    /// Posting documents, ascending within each list.
    pub docs: Vec<u32>,
    /// Term frequencies, parallel to `docs`.
    pub tfs: Vec<u32>,
    /// Precomputed `irf(t)` per term id.
    pub irf: Vec<f64>,
    /// Max `tf` per list (the MaxScore bound ingredient).
    pub max_tf: Vec<u32>,
}

/// The entity side of [`IndexParts`], mirroring the entity table.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityParts {
    /// `vocab[id]` is the entity interned as dense slot `id`.
    pub vocab: Vec<EntityId>,
    /// CSR offsets (`vocab.len() + 1` entries, ascending, last = docs.len()).
    pub offsets: Vec<u64>,
    /// Posting documents, ascending within each list.
    pub docs: Vec<u32>,
    /// Annotation frequencies, parallel to `docs`.
    pub efs: Vec<u32>,
    /// Precomputed Eq. 2 weights, parallel to `docs`.
    pub we: Vec<f64>,
    /// Precomputed `eirf(e)` per entity slot.
    pub eirf: Vec<f64>,
    /// Max `ef · we` per list (the MaxScore bound ingredient).
    pub max_contrib: Vec<f64>,
}

/// The complete interned state of an [`InvertedIndex`], exported in
/// dense-id order.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexParts {
    /// The term side.
    pub terms: TermParts,
    /// The entity side.
    pub entities: EntityParts,
    /// Term length per document (the collection size `N` is its length).
    pub doc_lens: Vec<u32>,
}

impl InvertedIndex {
    /// Exports the full interned state in dense-id order. The output is a
    /// pure function of the index (no hash-iteration order leaks through),
    /// so two equal indexes always export identical parts.
    pub fn to_parts(&self) -> IndexParts {
        if let Some(m) = self.mapped.as_deref() {
            return self.mapped_to_parts(m);
        }
        let mut term_vocab = vec![String::new(); self.terms.irf.len()];
        for (term, &id) in &self.terms.ids {
            term_vocab[id as usize] = term.clone();
        }
        let mut entity_vocab = vec![EntityId::new(0); self.entities.eirf.len()];
        for (&entity, &id) in &self.entities.ids {
            entity_vocab[id as usize] = entity;
        }
        IndexParts {
            terms: TermParts {
                vocab: term_vocab,
                offsets: self.terms.offsets.iter().map(|&o| o as u64).collect(),
                docs: self.terms.docs.clone(),
                tfs: self.terms.tfs.clone(),
                irf: self.terms.irf.clone(),
                max_tf: self.terms.max_tf.clone(),
            },
            entities: EntityParts {
                vocab: entity_vocab,
                offsets: self.entities.offsets.iter().map(|&o| o as u64).collect(),
                docs: self.entities.docs.clone(),
                efs: self.entities.efs.clone(),
                we: self.entities.we.clone(),
                eirf: self.entities.eirf.clone(),
                max_contrib: self.entities.max_contrib.clone(),
            },
            doc_lens: self.doc_lens.clone(),
        }
    }

    /// The mapped-store half of [`Self::to_parts`]: walks the shard views
    /// in global id order, decoding every packed list back into CSR form.
    /// The export is byte-identical to what the original flat index
    /// produced — block packing is loss-free — so backing-independent
    /// equality and re-sharding both route through here.
    fn mapped_to_parts(&self, m: &MappedStore) -> IndexParts {
        let mut terms = TermParts {
            vocab: Vec::with_capacity(m.term_count()),
            offsets: vec![0],
            docs: Vec::new(),
            tfs: Vec::new(),
            irf: Vec::with_capacity(m.term_count()),
            max_tf: Vec::with_capacity(m.term_count()),
        };
        let mut dbuf = [0u32; BLOCK_SIZE];
        let mut fbuf = [0u32; BLOCK_SIZE];
        let mut wbuf = [0.0f64; BLOCK_SIZE];
        for g in 0..m.term_count() as u32 {
            let (t, local) = m.term_side(g);
            terms.vocab.push(m.term_str(g).to_owned());
            terms.irf.push(t.irf[local as usize]);
            terms.max_tf.push(t.max_tf[local as usize]);
            let (bs, be) = t.packed.list_blocks(local);
            let mut prev = -1i64;
            for b in bs..be {
                let (n, _) = t.packed.decode_block(b, prev, &mut dbuf, &mut fbuf);
                terms.docs.extend_from_slice(&dbuf[..n]);
                terms.tfs.extend_from_slice(&fbuf[..n]);
                prev = i64::from(t.packed.last_doc[b]);
            }
            terms.offsets.push(terms.docs.len() as u64);
        }
        let mut entities = EntityParts {
            vocab: Vec::with_capacity(m.entity_count()),
            offsets: vec![0],
            docs: Vec::new(),
            efs: Vec::new(),
            we: Vec::new(),
            eirf: Vec::with_capacity(m.entity_count()),
            max_contrib: Vec::with_capacity(m.entity_count()),
        };
        for g in 0..m.entity_count() as u32 {
            let (e, local) = m.entity_side(g);
            entities.vocab.push(EntityId::new(m.entity_at(g)));
            entities.eirf.push(e.eirf[local as usize]);
            entities.max_contrib.push(e.max_contrib[local as usize]);
            let (bs, be) = e.packed.list_blocks(local);
            let mut prev = -1i64;
            for b in bs..be {
                let (n, _) =
                    e.packed.decode_entity_block(b, prev, &mut dbuf, &mut fbuf, &mut wbuf);
                entities.docs.extend_from_slice(&dbuf[..n]);
                entities.efs.extend_from_slice(&fbuf[..n]);
                entities.we.extend_from_slice(&wbuf[..n]);
                prev = i64::from(e.packed.last_doc[b]);
            }
            entities.offsets.push(entities.docs.len() as u64);
        }
        IndexParts { terms, entities, doc_lens: self.doc_lens.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;

    fn sample() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        let terms = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        b.add_document(&terms(&["swim", "pool", "swim"]), &[(EntityId::new(3), 0.7)]);
        b.add_document(&terms(&["cook", "pasta"]), &[(EntityId::new(1), 0.2)]);
        b.add_document(&terms(&["swim", "cook"]), &[(EntityId::new(3), 0.4)]);
        b.build()
    }

    #[test]
    fn export_is_deterministic() {
        // HashMap iteration order varies run to run; the export must not.
        let a = sample().to_parts();
        let b = sample().to_parts();
        assert_eq!(a, b);
        assert!(a.terms.vocab.windows(2).all(|w| w[0] < w[1]), "terms interned lexicographically");
        assert!(a.entities.vocab.windows(2).all(|w| w[0] < w[1]), "entities interned ascending");
    }
}
