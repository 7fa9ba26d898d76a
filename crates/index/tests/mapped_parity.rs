//! Owned ↔ mapped backing parity: an index opened through zero-copy shard
//! views must be observably identical — bit for bit — to the flat owned
//! index it was exported from, on every accessor and every scoring path,
//! pinned against the definitional reference oracle.

use proptest::prelude::*;
use rightcrowd_index::mapped::views_from_index;
use rightcrowd_index::{reference, DocIdx, IndexBuilder, InvertedIndex, Query};
use rightcrowd_types::EntityId;

/// One generated document: its term list and entity attachments.
type Doc = (Vec<String>, Vec<(EntityId, f64)>);

fn doc_strategy() -> impl Strategy<Value = Doc> {
    let words = prop::collection::vec(
        prop::sample::select(vec!["swim", "pool", "code", "php", "song", "team", "city"]),
        0..12,
    )
    .prop_map(|ws| ws.into_iter().map(str::to_owned).collect::<Vec<String>>());
    let entities = prop::collection::vec((0u32..6, 0.0f64..1.0), 0..5)
        .prop_map(|es| es.into_iter().map(|(e, d)| (EntityId::new(e), d)).collect());
    (words, entities)
}

fn build(docs: &[Doc]) -> InvertedIndex {
    let mut b = IndexBuilder::new();
    for (terms, entities) in docs {
        b.add_document(terms, entities);
    }
    b.build()
}

fn doc_lens(idx: &InvertedIndex) -> Vec<u32> {
    (0..idx.doc_count() as u32).map(|d| idx.doc_len(DocIdx(d))).collect()
}

/// Reopens `idx` through owned-backed mapped shard views — the in-memory
/// equivalent of an `RCSHRD02` mmap open.
fn remap(idx: &InvertedIndex, shards: usize) -> InvertedIndex {
    InvertedIndex::from_mapped(views_from_index(idx, shards), doc_lens(idx)).unwrap()
}

fn query() -> Query {
    Query {
        terms: vec!["swim".into(), "php".into(), "city".into(), "unseen".into()],
        entities: vec![EntityId::new(0), EntityId::new(3), EntityId::new(99)],
    }
}

proptest! {
    #[test]
    fn scoring_paths_are_bit_identical(
        docs in prop::collection::vec(doc_strategy(), 1..20),
        shards in 1usize..5,
    ) {
        let owned = build(&docs);
        let mapped = remap(&owned, shards);
        prop_assert!(mapped.is_mapped());
        let q = query();
        for &alpha in &[0.0, 0.3, 0.6, 1.0] {
            let full = owned.score_all(&q, alpha);
            prop_assert_eq!(&full, &mapped.score_all(&q, alpha), "score_all alpha {}", alpha);
            prop_assert_eq!(
                &full,
                &reference::score_all(&mapped, &q, alpha),
                "reference oracle alpha {}",
                alpha
            );
            for &k in &[1usize, 3, 100] {
                prop_assert_eq!(
                    owned.score_top_k(&q, alpha, k, |_| true),
                    mapped.score_top_k(&q, alpha, k, |_| true),
                    "score_top_k alpha {} k {}",
                    alpha,
                    k
                );
            }
        }
        prop_assert_eq!(owned.score_components(&q), mapped.score_components(&q));
        let params = rightcrowd_index::Bm25Params::default();
        prop_assert_eq!(
            owned.score_all_bm25(&q, 0.6, params),
            mapped.score_all_bm25(&q, 0.6, params)
        );
    }

    #[test]
    fn accessors_and_export_agree(
        docs in prop::collection::vec(doc_strategy(), 1..15),
        shards in 1usize..4,
    ) {
        let owned = build(&docs);
        let mapped = remap(&owned, shards);

        prop_assert_eq!(owned.term_count(), mapped.term_count());
        prop_assert_eq!(owned.entity_count(), mapped.entity_count());
        for term in ["swim", "pool", "code", "php", "song", "team", "city", "unseen"] {
            prop_assert_eq!(owned.term_df(term), mapped.term_df(term), "df {}", term);
            prop_assert_eq!(owned.irf(term), mapped.irf(term), "irf {}", term);
            let a: Vec<_> = owned.term_postings(term).collect();
            let b: Vec<_> = mapped.term_postings(term).collect();
            prop_assert_eq!(a, b, "postings {}", term);
            for d in 0..owned.doc_count() as u32 {
                prop_assert_eq!(owned.tf(term, DocIdx(d)), mapped.tf(term, DocIdx(d)));
            }
        }
        for e in (0..7u32).map(EntityId::new) {
            prop_assert_eq!(owned.entity_df(e), mapped.entity_df(e));
            prop_assert_eq!(owned.eirf(e), mapped.eirf(e));
            let a: Vec<_> = owned.entity_postings(e).collect();
            let b: Vec<_> = mapped.entity_postings(e).collect();
            prop_assert_eq!(a, b);
            for d in 0..owned.doc_count() as u32 {
                prop_assert_eq!(owned.ef(e, DocIdx(d)), mapped.ef(e, DocIdx(d)));
                prop_assert_eq!(owned.entity_weight(e, DocIdx(d)), mapped.entity_weight(e, DocIdx(d)));
            }
        }

        // The canonical export agrees and drives backing-independent
        // equality in both directions.
        prop_assert_eq!(owned.to_parts(), mapped.to_parts());
        prop_assert_eq!(&owned, &mapped);
        prop_assert_eq!(&mapped, &owned);
    }
}

#[test]
fn mapped_index_survives_resharding() {
    let mut b = IndexBuilder::new();
    let terms = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    b.add_document(&terms(&["swim", "pool", "swim"]), &[(EntityId::new(3), 0.7)]);
    b.add_document(&terms(&["cook", "pasta"]), &[(EntityId::new(1), 0.2)]);
    b.add_document(&terms(&["swim", "cook"]), &[(EntityId::new(3), 0.4)]);
    let owned = b.build();
    let mapped = remap(&owned, 2);
    // to_shards routes through to_parts, so a mapped index re-shards into
    // the same shards the owned one produces.
    let a = owned.to_shards(3);
    let b = mapped.to_shards(3);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.term_range, y.term_range);
        assert_eq!(x.terms, y.terms);
        assert_eq!(x.entities, y.entities);
    }
}
