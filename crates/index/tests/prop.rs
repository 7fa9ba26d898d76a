//! Property tests for the dual inverted index.

use proptest::prelude::*;
use rightcrowd_index::{DocIdx, IndexBuilder, Query};
use rightcrowd_types::EntityId;

/// A small random document: a bag of words over a closed vocabulary plus
/// entity annotations.
fn doc_strategy() -> impl Strategy<Value = (Vec<String>, Vec<(EntityId, f64)>)> {
    let words = prop::collection::vec(
        prop::sample::select(vec!["swim", "pool", "code", "php", "song", "team", "city"]),
        0..12,
    )
    .prop_map(|ws| ws.into_iter().map(str::to_owned).collect::<Vec<String>>());
    let entities = prop::collection::vec((0u32..6, 0.0f64..1.0), 0..5)
        .prop_map(|es| es.into_iter().map(|(e, d)| (EntityId::new(e), d)).collect());
    (words, entities)
}

proptest! {
    #[test]
    fn df_equals_documents_containing_term(docs in prop::collection::vec(doc_strategy(), 1..20)) {
        let mut builder = IndexBuilder::new();
        for (terms, entities) in &docs {
            builder.add_document(terms, entities);
        }
        let index = builder.build();
        prop_assert_eq!(index.doc_count(), docs.len());
        for term in ["swim", "code", "song"] {
            let expected = docs
                .iter()
                .filter(|(terms, _)| terms.iter().any(|t| t == term))
                .count();
            prop_assert_eq!(index.term_df(term), expected, "df of {}", term);
        }
    }

    #[test]
    fn tf_matches_occurrences(docs in prop::collection::vec(doc_strategy(), 1..15)) {
        let mut builder = IndexBuilder::new();
        for (terms, entities) in &docs {
            builder.add_document(terms, entities);
        }
        let index = builder.build();
        for (i, (terms, entities)) in docs.iter().enumerate() {
            let doc = DocIdx(i as u32);
            for term in ["pool", "php"] {
                let expected = terms.iter().filter(|t| *t == term).count() as u32;
                prop_assert_eq!(index.tf(term, doc), expected);
            }
            for e in 0..6u32 {
                let entity = EntityId::new(e);
                let expected = entities.iter().filter(|(x, _)| *x == entity).count() as u32;
                prop_assert_eq!(index.ef(entity, doc), expected);
            }
        }
    }

    #[test]
    fn scores_are_positive_finite_and_sorted(
        docs in prop::collection::vec(doc_strategy(), 1..20),
        alpha in 0.0f64..1.0,
    ) {
        let mut builder = IndexBuilder::new();
        for (terms, entities) in &docs {
            builder.add_document(terms, entities);
        }
        let index = builder.build();
        let query = Query {
            terms: vec!["swim".into(), "code".into()],
            entities: vec![EntityId::new(0), EntityId::new(3)],
        };
        let hits = index.score_all(&query, alpha);
        for w in hits.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        for h in &hits {
            prop_assert!(h.score > 0.0 && h.score.is_finite());
            prop_assert!(h.doc.index() < docs.len());
        }
    }

    #[test]
    fn matched_set_is_union_of_term_and_entity_matches(
        docs in prop::collection::vec(doc_strategy(), 1..20),
    ) {
        let mut builder = IndexBuilder::new();
        for (terms, entities) in &docs {
            builder.add_document(terms, entities);
        }
        let index = builder.build();
        let query = Query {
            terms: vec!["team".into()],
            entities: vec![EntityId::new(1)],
        };
        let hits = index.score_all(&query, 0.5);
        let expected: Vec<usize> = docs
            .iter()
            .enumerate()
            .filter(|(_, (terms, entities))| {
                terms.iter().any(|t| t == "team")
                    || entities.iter().any(|(e, _)| *e == EntityId::new(1))
            })
            .map(|(i, _)| i)
            .collect();
        let mut got: Vec<usize> = hits.iter().map(|h| h.doc.index()).collect();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// ISSUE 4 satellite: the block-compressed top-k path is bit-identical
    /// to the definitional reference scorer — same documents, same order,
    /// same tie-breaks, bit-equal scores — across random corpora, αs, ks.
    #[test]
    fn top_k_is_bit_identical_to_the_reference(
        docs in prop::collection::vec(doc_strategy(), 1..25),
        alpha in 0.0f64..1.0,
        k in 1usize..12,
    ) {
        let mut builder = IndexBuilder::new();
        for (terms, entities) in &docs {
            builder.add_document(terms, entities);
        }
        let index = builder.build();
        let query = Query {
            terms: vec!["swim".into(), "code".into(), "city".into()],
            entities: vec![EntityId::new(0), EntityId::new(3)],
        };
        let oracle = rightcrowd_index::reference::score_top_k(&index, &query, alpha, k, |_| true);
        let fast = index.score_top_k(&query, alpha, k, |_| true);
        prop_assert_eq!(oracle.len(), fast.len());
        for (a, b) in oracle.iter().zip(&fast) {
            prop_assert_eq!(a.doc, b.doc);
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits(), "{} vs {}", a.score, b.score);
        }
    }

    /// ISSUE 4 satellite: the α-free explain factorisation recombines to
    /// the direct score within the 1e-12 contract, for every matched doc.
    #[test]
    fn explain_sums_recombine_to_score_all(
        docs in prop::collection::vec(doc_strategy(), 1..25),
        alpha in 0.0f64..1.0,
    ) {
        let mut builder = IndexBuilder::new();
        for (terms, entities) in &docs {
            builder.add_document(terms, entities);
        }
        let index = builder.build();
        let query = Query {
            terms: vec!["pool".into(), "team".into()],
            entities: vec![EntityId::new(1), EntityId::new(5)],
        };
        let direct = index.score_all(&query, alpha);
        let factored = rightcrowd_index::recombine(&index.score_components(&query), alpha);
        prop_assert_eq!(direct.len(), factored.len());
        for (a, b) in direct.iter().zip(&factored) {
            prop_assert_eq!(a.doc, b.doc);
            prop_assert!((a.score - b.score).abs() <= 1e-12 * a.score.max(1.0));
        }
    }

    #[test]
    fn entity_weight_within_eq2_bounds(docs in prop::collection::vec(doc_strategy(), 1..15)) {
        let mut builder = IndexBuilder::new();
        for (terms, entities) in &docs {
            builder.add_document(terms, entities);
        }
        let index = builder.build();
        for (i, (_, entities)) in docs.iter().enumerate() {
            for (entity, _) in entities {
                let we = index.entity_weight(*entity, DocIdx(i as u32));
                // Eq. 2: we = 1 + dScore with dScore ∈ [0, 1].
                prop_assert!((1.0..=2.0).contains(&we), "we = {we}");
            }
        }
    }
}

/// Hot lists spanning several 128-doc blocks (proptest corpora above stay
/// within one block): the Block-Max top-k path must still return the
/// reference ranking bit for bit, and its counters must account for every
/// block as either decoded or skipped whole.
#[test]
fn multi_block_top_k_is_bit_identical_and_counters_balance() {
    let vocab = ["swim", "pool", "code", "php", "song", "team", "city"];
    let mut builder = IndexBuilder::new();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 16
    };
    for _ in 0..400 {
        let n_terms = (next() % 7) as usize + 1;
        let terms: Vec<String> =
            (0..n_terms).map(|_| vocab[next() as usize % vocab.len()].to_owned()).collect();
        let mut entities = Vec::new();
        if next() % 3 != 0 {
            entities.push((EntityId::new((next() % 6) as u32), (next() % 1000) as f64 / 1000.0));
        }
        builder.add_document(&terms, &entities);
    }
    let index = builder.build();
    let query = Query {
        terms: vec!["swim".into(), "code".into(), "city".into()],
        entities: vec![EntityId::new(0), EntityId::new(3)],
    };
    for alpha in [0.0, 0.35, 0.8, 1.0] {
        for k in [1usize, 5, 40] {
            let oracle =
                rightcrowd_index::reference::score_top_k(&index, &query, alpha, k, |_| true);
            let _ = rightcrowd_index::take_traversal_stats();
            let fast = index.score_top_k(&query, alpha, k, |_| true);
            let stats = rightcrowd_index::take_traversal_stats();
            assert_eq!(oracle.len(), fast.len(), "alpha {alpha}, k {k}");
            for (a, b) in oracle.iter().zip(&fast) {
                assert_eq!(a.doc, b.doc, "alpha {alpha}, k {k}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "alpha {alpha}, k {k}");
            }
            if rightcrowd_obs::PROBES_ENABLED {
                assert_eq!(
                    stats.blocks_decoded + stats.blocks_skipped,
                    stats.blocks_total,
                    "alpha {alpha}, k {k}: every block is decoded or skipped whole"
                );
                assert!(stats.postings_skipped <= stats.pruned, "alpha {alpha}, k {k}");
                assert!(stats.blocks_total > 0, "400-doc lists must span blocks");
            }
        }
    }
}
