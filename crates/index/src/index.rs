//! The immutable dual inverted index and the Eq. 1 scorer.
//!
//! # Storage layout
//!
//! Both posting families live in interned CSR (compressed sparse row)
//! form: [`IndexBuilder`](crate::builder::IndexBuilder) assigns every
//! distinct term and entity a dense id, and the per-id posting lists are
//! concatenated into flat parallel arrays addressed through an offsets
//! table. A query resolves each term/entity to its id once, then scans a
//! contiguous slice — no string hashing and no pointer chasing inside the
//! hot loop. The `irf`/`eirf` tables (and per-list maxima used for
//! pruning bounds) are precomputed at build time.
//!
//! # Scoring paths
//!
//! - [`InvertedIndex::score_all`] / [`InvertedIndex::score_top_k`] apply
//!   Eq. 1 for one `α` over a dense epoch-stamped accumulator. The
//!   accumulation order (query terms in order, postings in ascending doc
//!   order, term side before entity side) matches the definitional
//!   reference scorer in [`crate::reference`] bit for bit.
//! - [`InvertedIndex::score_top_k`] additionally prunes documents that
//!   provably cannot enter the top `k` (MaxScore-style upper bounds; see
//!   the method docs for the invariant).
//! - [`InvertedIndex::score_components`] factors Eq. 1 into its α-free
//!   term and entity sums so that an α sweep recombines the two numbers
//!   per document instead of re-traversing postings
//!   ([`recombine`] / [`recombine_top_k`]).

use crate::block::{self, PackedPostings, BLOCK_SIZE};
use crate::mapped::{self, MappedShardView, MappedStore};
use crate::query::Query;
use crate::stats::TraversalStats;
use rightcrowd_types::EntityId;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Dense handle of a document inside one [`InvertedIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocIdx(pub u32);

impl DocIdx {
    /// The raw arena offset.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// One (document, score) result of a match run, Eq. 1 applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredDoc {
    /// The matched document.
    pub doc: DocIdx,
    /// Its relevance score (strictly positive — zero-score documents are
    /// not retrieved).
    pub score: f64,
}

/// The α-free factorisation of Eq. 1 for one document: the final score is
/// `α · term_sum + (1 − α) · entity_sum` for any mixing weight α.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentScore {
    /// The matched document.
    pub doc: DocIdx,
    /// `Σ_t tf(t,doc) · irf(t)²` over the query terms.
    pub term_sum: f64,
    /// `Σ_e ef(e,doc) · eirf(e)² · we(e,doc)` over the query entities.
    pub entity_sum: f64,
}

/// One entity posting as seen through [`InvertedIndex::entity_postings`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntityPostingView {
    /// The annotated document.
    pub doc: DocIdx,
    /// Annotation occurrences of the entity in the document.
    pub ef: u32,
    /// The Eq. 2 weight `we = 1 + dScore` (average over the annotations).
    pub we: f64,
}

/// Interned CSR postings for the term side.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct TermTable {
    /// Term → dense term id.
    pub(crate) ids: HashMap<String, u32>,
    /// CSR offsets; list `i` spans `docs[offsets[i]..offsets[i+1]]`.
    pub(crate) offsets: Vec<usize>,
    /// Posting documents, ascending within each list.
    pub(crate) docs: Vec<u32>,
    /// Term frequencies, parallel to `docs`.
    pub(crate) tfs: Vec<u32>,
    /// Precomputed `irf(t) = ln(1 + N/df)` per term id.
    pub(crate) irf: Vec<f64>,
    /// Max `tf` in each list — the pruning upper-bound ingredient.
    pub(crate) max_tf: Vec<u32>,
}

impl TermTable {
    #[inline]
    fn list(&self, id: u32) -> (&[u32], &[u32]) {
        let (a, b) = (self.offsets[id as usize], self.offsets[id as usize + 1]);
        (&self.docs[a..b], &self.tfs[a..b])
    }
}

/// Interned CSR postings for the entity side.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct EntityTable {
    /// Entity → dense entity-slot id.
    pub(crate) ids: HashMap<EntityId, u32>,
    /// CSR offsets; list `i` spans `docs[offsets[i]..offsets[i+1]]`.
    pub(crate) offsets: Vec<usize>,
    /// Posting documents, ascending within each list.
    pub(crate) docs: Vec<u32>,
    /// Annotation frequencies, parallel to `docs`.
    pub(crate) efs: Vec<u32>,
    /// Precomputed Eq. 2 weights `1 + dscore_sum/ef`, parallel to `docs`.
    pub(crate) we: Vec<f64>,
    /// Precomputed `eirf(e)` per entity slot.
    pub(crate) eirf: Vec<f64>,
    /// Max `ef · we` in each list — the pruning upper-bound ingredient.
    pub(crate) max_contrib: Vec<f64>,
}

impl EntityTable {
    #[inline]
    fn list(&self, id: u32) -> (&[u32], &[u32], &[f64]) {
        let (a, b) = (self.offsets[id as usize], self.offsets[id as usize + 1]);
        (&self.docs[a..b], &self.efs[a..b], &self.we[a..b])
    }
}

/// A query term resolved against whichever store backs the index, carrying
/// everything the scorer needs: the precomputed weights, the document
/// frequency (known before traversal, e.g. for BM25's idf), and the list's
/// address. On the flat store `flat` is the dense CSR id and `packed` is
/// the whole-index mirror; on the mapped store `flat` is `None` and
/// `packed`/`local` address the owning shard view.
pub(crate) struct ResolvedTerm<'a> {
    pub(crate) irf: f64,
    pub(crate) max_tf: u32,
    pub(crate) df: usize,
    pub(crate) packed: &'a PackedPostings,
    pub(crate) local: u32,
    pub(crate) flat: Option<u32>,
}

/// Entity-side twin of [`ResolvedTerm`].
pub(crate) struct ResolvedEntity<'a> {
    pub(crate) eirf: f64,
    pub(crate) max_contrib: f64,
    pub(crate) df: usize,
    pub(crate) packed: &'a PackedPostings,
    pub(crate) local: u32,
    pub(crate) flat: Option<u32>,
}

/// The immutable dual (term + entity) inverted index.
///
/// The postings live in one of two stores: the *flat* store (interned
/// `HashMap` vocabularies + CSR arrays + block-compressed mirrors, all
/// owned) that the builder produces, or
/// the *mapped* store ([`crate::mapped`]) whose arrays are borrowed
/// zero-copy from `mmap`'d shard files. Every public accessor and every
/// scoring path dispatches on the store and produces bit-identical
/// results either way — the mapped store decodes the same blocks in the
/// same order with the same arithmetic.
///
/// `PartialEq` means the indexes are observably identical on every
/// scoring path: flat/flat comparisons check the interned state directly;
/// as soon as a mapped store is involved, both sides export their
/// canonical raw parts ([`InvertedIndex::to_parts`]) and compare those.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    pub(crate) terms: TermTable,
    pub(crate) entities: EntityTable,
    pub(crate) doc_lens: Vec<u32>,
    /// Block-compressed mirror of the term postings, which every scorer
    /// reads. Derived deterministically from the CSR arrays by
    /// [`InvertedIndex::assemble`], so it adds no degrees of freedom to
    /// `PartialEq`.
    pub(crate) packed_terms: PackedPostings,
    /// Block-compressed mirror of the entity postings.
    pub(crate) packed_entities: PackedPostings,
    /// The zero-copy store; when set, the flat tables above are empty and
    /// every access goes through the mapped shard views.
    pub(crate) mapped: Option<Box<MappedStore>>,
}

impl PartialEq for InvertedIndex {
    fn eq(&self, other: &Self) -> bool {
        if self.mapped.is_none() && other.mapped.is_none() {
            self.terms == other.terms
                && self.entities == other.entities
                && self.doc_lens == other.doc_lens
                && self.packed_terms == other.packed_terms
                && self.packed_entities == other.packed_entities
        } else {
            // Backing-independent equality: compare the canonical export.
            self.doc_lens == other.doc_lens && self.to_parts() == other.to_parts()
        }
    }
}

// ---------------------------------------------------------------------------
// Per-thread scoring scratch: a dense accumulator with epoch stamps, so a
// query touches only the slots its postings hit and nothing is re-zeroed
// between queries.

#[derive(Default)]
struct Scratch {
    epoch: u32,
    stamps: Vec<u32>,
    /// Combined score (plain paths) or the term sum (component path).
    acc: Vec<f64>,
    /// The entity sum (component path only).
    acc2: Vec<f64>,
    touched: Vec<u32>,
}

impl Scratch {
    fn begin(&mut self, doc_count: usize) {
        if self.stamps.len() != doc_count {
            self.stamps = vec![0; doc_count];
            self.acc = vec![0.0; doc_count];
            self.acc2 = vec![0.0; doc_count];
            self.epoch = 0;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Sorts by descending score, ties broken by ascending doc — the output
/// order of every scoring path.
fn sort_scored(scored: &mut [ScoredDoc]) {
    scored.sort_unstable_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("scores are finite")
            .then_with(|| a.doc.cmp(&b.doc))
    });
}

/// Heap entry ordered so the heap root is the *worst* kept doc: lower
/// score first; among equal scores, larger doc id first (doc ids ascend
/// in the final output, so the largest id is the first to evict).
struct Worst(ScoredDoc);

impl PartialEq for Worst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Worst {}
impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .score
            .partial_cmp(&self.0.score)
            .expect("scores are finite")
            .then_with(|| self.0.doc.cmp(&other.0.doc))
    }
}

/// Bounded-heap top-k capacity: `k` may be "effectively unbounded"
/// (`usize::MAX`), so cap the initial allocation.
fn heap_capacity(k: usize) -> usize {
    k.saturating_add(1).min(4096)
}

impl InvertedIndex {
    /// Builds the final index from its interned tables, deriving the
    /// block-compressed posting mirror, so the packed state always agrees
    /// with the CSR arrays.
    pub(crate) fn assemble(terms: TermTable, entities: EntityTable, doc_lens: Vec<u32>) -> Self {
        let (packed_terms, packed_entities) = (
            block::pack_term_lists((0..terms.irf.len() as u32).map(|id| terms.list(id))),
            block::pack_entity_lists((0..entities.eirf.len() as u32).map(|id| entities.list(id))),
        );
        InvertedIndex { terms, entities, doc_lens, packed_terms, packed_entities, mapped: None }
    }

    /// Builds an index over zero-copy shard views (typically borrowed from
    /// `mmap`'d `RCSHRD02` files; see [`crate::mapped`]). The views must
    /// tile the global term/entity id spaces and pass the mapped store's
    /// shape validation — the memory-safety gate that makes subsequent
    /// unchecked block decodes sound.
    pub fn from_mapped(views: Vec<MappedShardView>, doc_lens: Vec<u32>) -> Result<Self, String> {
        let store = MappedStore::new(views, doc_lens.len())?;
        Ok(InvertedIndex {
            terms: TermTable::default(),
            entities: EntityTable::default(),
            doc_lens,
            packed_terms: PackedPostings::default(),
            packed_entities: PackedPostings::default(),
            mapped: Some(Box::new(store)),
        })
    }

    /// Whether this index reads through the zero-copy mapped store.
    pub fn is_mapped(&self) -> bool {
        self.mapped.is_some()
    }

    /// Number of indexed documents (the collection size `N`).
    pub fn doc_count(&self) -> usize {
        self.doc_lens.len()
    }

    /// Term length of a document (number of term occurrences).
    pub fn doc_len(&self, doc: DocIdx) -> u32 {
        self.doc_lens[doc.index()]
    }

    /// Number of distinct interned terms.
    pub fn term_count(&self) -> usize {
        match self.mapped.as_deref() {
            None => self.terms.irf.len(),
            Some(m) => m.term_count(),
        }
    }

    /// Number of distinct interned entities.
    pub fn entity_count(&self) -> usize {
        match self.mapped.as_deref() {
            None => self.entities.eirf.len(),
            Some(m) => m.entity_count(),
        }
    }

    /// Document frequency of a term.
    pub fn term_df(&self, term: &str) -> usize {
        self.resolve_term(term).map_or(0, |r| r.df)
    }

    /// Document frequency of an entity.
    pub fn entity_df(&self, entity: EntityId) -> usize {
        self.resolve_entity(entity).map_or(0, |r| r.df)
    }

    /// Inverse resource frequency: `ln(1 + N / df)`. Zero for unseen terms
    /// (they can never contribute anyway).
    pub fn irf(&self, term: &str) -> f64 {
        self.resolve_term(term).map_or(0.0, |r| r.irf)
    }

    /// Inverse resource frequency of an entity, same form as [`Self::irf`].
    pub fn eirf(&self, entity: EntityId) -> f64 {
        self.resolve_entity(entity).map_or(0.0, |r| r.eirf)
    }

    /// Term frequency of `term` in `doc` (0 when absent).
    pub fn tf(&self, term: &str, doc: DocIdx) -> u32 {
        self.resolve_term(term).map_or(0, |r| match r.flat {
            Some(id) => {
                let (docs, tfs) = self.terms.list(id);
                docs.binary_search(&doc.0).map_or(0, |i| tfs[i])
            }
            None => mapped::lookup_freq(r.packed, r.local, doc.0).unwrap_or(0),
        })
    }

    /// Entity frequency of `entity` in `doc` (0 when absent).
    pub fn ef(&self, entity: EntityId, doc: DocIdx) -> u32 {
        self.resolve_entity(entity).map_or(0, |r| match r.flat {
            Some(id) => {
                let (docs, efs, _) = self.entities.list(id);
                docs.binary_search(&doc.0).map_or(0, |i| efs[i])
            }
            None => mapped::lookup_entity_freq(r.packed, r.local, doc.0).map_or(0, |(ef, _)| ef),
        })
    }

    /// The Eq. 2 entity weight `we(e, doc) = 1 + dScore(e, doc)` (average
    /// dscore over the entity's annotations in the document); 0 when the
    /// entity is not annotated in the document.
    pub fn entity_weight(&self, entity: EntityId, doc: DocIdx) -> f64 {
        self.resolve_entity(entity).map_or(0.0, |r| match r.flat {
            Some(id) => {
                let (docs, _, we) = self.entities.list(id);
                docs.binary_search(&doc.0).map_or(0.0, |i| we[i])
            }
            None => {
                mapped::lookup_entity_freq(r.packed, r.local, doc.0).map_or(0.0, |(_, we)| we)
            }
        })
    }

    /// The postings of `term` as `(doc, tf)` pairs in ascending doc order
    /// (empty for unseen terms).
    pub fn term_postings(&self, term: &str) -> impl Iterator<Item = (DocIdx, u32)> + '_ {
        let iter: Box<dyn Iterator<Item = (DocIdx, u32)> + '_> = match self.resolve_term(term) {
            None => Box::new(std::iter::empty()),
            Some(r) => match r.flat {
                Some(id) => {
                    let (docs, tfs) = self.terms.list(id);
                    Box::new(docs.iter().zip(tfs).map(|(&d, &tf)| (DocIdx(d), tf)))
                }
                None => {
                    let mut out = Vec::with_capacity(r.df);
                    self.visit_term_list(&r, |d, tf| out.push((DocIdx(d), tf)));
                    Box::new(out.into_iter())
                }
            },
        };
        iter
    }

    /// The postings of `entity` in ascending doc order (empty for unseen
    /// entities).
    pub fn entity_postings(&self, entity: EntityId) -> impl Iterator<Item = EntityPostingView> + '_ {
        let iter: Box<dyn Iterator<Item = EntityPostingView> + '_> =
            match self.resolve_entity(entity) {
                None => Box::new(std::iter::empty()),
                Some(r) => match r.flat {
                    Some(id) => {
                        let (docs, efs, we) = self.entities.list(id);
                        Box::new(docs.iter().zip(efs).zip(we).map(|((&d, &ef), &we)| {
                            EntityPostingView { doc: DocIdx(d), ef, we }
                        }))
                    }
                    None => {
                        let mut out = Vec::with_capacity(r.df);
                        self.visit_entity_list(&r, |d, ef, we| {
                            out.push(EntityPostingView { doc: DocIdx(d), ef, we });
                        });
                        Box::new(out.into_iter())
                    }
                },
            };
        iter
    }

    /// Resolves a term to its scoring ingredients on whichever store backs
    /// this index. `flat` carries the dense CSR id on the flat store; on
    /// the mapped store the postings only exist packed, so `flat` is
    /// `None` and `packed`/`local` address the owning shard view.
    pub(crate) fn resolve_term(&self, term: &str) -> Option<ResolvedTerm<'_>> {
        match self.mapped.as_deref() {
            None => {
                let &id = self.terms.ids.get(term)?;
                Some(ResolvedTerm {
                    irf: self.terms.irf[id as usize],
                    max_tf: self.terms.max_tf[id as usize],
                    df: self.terms.list(id).0.len(),
                    packed: &self.packed_terms,
                    local: id,
                    flat: Some(id),
                })
            }
            Some(m) => {
                let g = m.find_term(term)?;
                let (t, local) = m.term_side(g);
                Some(ResolvedTerm {
                    irf: t.irf[local as usize],
                    max_tf: t.max_tf[local as usize],
                    df: mapped::list_len(&t.packed, local),
                    packed: &t.packed,
                    local,
                    flat: None,
                })
            }
        }
    }

    /// Entity-side twin of [`Self::resolve_term`].
    pub(crate) fn resolve_entity(&self, entity: EntityId) -> Option<ResolvedEntity<'_>> {
        match self.mapped.as_deref() {
            None => {
                let &id = self.entities.ids.get(&entity)?;
                Some(ResolvedEntity {
                    eirf: self.entities.eirf[id as usize],
                    max_contrib: self.entities.max_contrib[id as usize],
                    df: self.entities.list(id).0.len(),
                    packed: &self.packed_entities,
                    local: id,
                    flat: Some(id),
                })
            }
            Some(m) => {
                let g = m.find_entity(entity.0)?;
                let (e, local) = m.entity_side(g);
                Some(ResolvedEntity {
                    eirf: e.eirf[local as usize],
                    max_contrib: e.max_contrib[local as usize],
                    df: mapped::list_len(&e.packed, local),
                    packed: &e.packed,
                    local,
                    flat: None,
                })
            }
        }
    }

    /// Streams the `(doc, tf)` pairs of a resolved term list in ascending
    /// doc order. The flat store walks its CSR slice; the mapped store
    /// decodes blocks sequentially — the same posting sequence either way,
    /// so downstream float accumulation is bit-identical.
    pub(crate) fn visit_term_list(&self, r: &ResolvedTerm<'_>, mut f: impl FnMut(u32, u32)) {
        if let Some(id) = r.flat {
            let (docs, tfs) = self.terms.list(id);
            for (&d, &tf) in docs.iter().zip(tfs) {
                f(d, tf);
            }
            return;
        }
        let (bs, be) = r.packed.list_blocks(r.local);
        let mut dbuf = [0u32; BLOCK_SIZE];
        let mut fbuf = [0u32; BLOCK_SIZE];
        let mut prev = -1i64;
        for b in bs..be {
            let (n, _) = r.packed.decode_block(b, prev, &mut dbuf, &mut fbuf);
            for (&d, &tf) in dbuf[..n].iter().zip(&fbuf[..n]) {
                f(d, tf);
            }
            prev = i64::from(r.packed.last_doc[b]);
        }
    }

    /// Entity-side twin of [`Self::visit_term_list`]: `(doc, ef, we)`.
    pub(crate) fn visit_entity_list(&self, r: &ResolvedEntity<'_>, mut f: impl FnMut(u32, u32, f64)) {
        if let Some(id) = r.flat {
            let (docs, efs, wes) = self.entities.list(id);
            for ((&d, &ef), &we) in docs.iter().zip(efs).zip(wes) {
                f(d, ef, we);
            }
            return;
        }
        let (bs, be) = r.packed.list_blocks(r.local);
        let mut dbuf = [0u32; BLOCK_SIZE];
        let mut fbuf = [0u32; BLOCK_SIZE];
        let mut wbuf = [0.0f64; BLOCK_SIZE];
        let mut prev = -1i64;
        for b in bs..be {
            let (n, _) = r.packed.decode_entity_block(b, prev, &mut dbuf, &mut fbuf, &mut wbuf);
            for ((&d, &ef), &we) in dbuf[..n].iter().zip(&fbuf[..n]).zip(&wbuf[..n]) {
                f(d, ef, we);
            }
            prev = i64::from(r.packed.last_doc[b]);
        }
    }

    /// Eq. 1 accumulation into the dense scratch: one combined score per
    /// touched document. The contribution order per document — query terms
    /// in order, then query entities in order, postings ascending by doc —
    /// reproduces the reference scorer's float-addition sequence exactly.
    ///
    /// Returns the number of postings traversed, accumulated locally so
    /// the hot loop carries no atomic traffic; the caller publishes it to
    /// the observability counters once.
    fn accumulate(&self, query: &Query, alpha: f64, s: &mut Scratch) -> u64 {
        let mut traversed = 0u64;
        s.begin(self.doc_count());
        if alpha > 0.0 {
            for term in &query.terms {
                let Some(r) = self.resolve_term(term) else {
                    continue;
                };
                let w = alpha * r.irf * r.irf;
                traversed += r.df as u64;
                self.visit_term_list(&r, |doc, tf| {
                    let d = doc as usize;
                    if s.stamps[d] != s.epoch {
                        s.stamps[d] = s.epoch;
                        s.acc[d] = 0.0;
                        s.touched.push(doc);
                    }
                    s.acc[d] += w * tf as f64;
                });
            }
        }
        if alpha < 1.0 {
            for &entity in &query.entities {
                let Some(r) = self.resolve_entity(entity) else {
                    continue;
                };
                let w = (1.0 - alpha) * r.eirf * r.eirf;
                traversed += r.df as u64;
                self.visit_entity_list(&r, |doc, ef, we| {
                    let d = doc as usize;
                    if s.stamps[d] != s.epoch {
                        s.stamps[d] = s.epoch;
                        s.acc[d] = 0.0;
                        s.touched.push(doc);
                    }
                    s.acc[d] += w * ef as f64 * we;
                });
            }
        }
        traversed
    }

    /// Scores the whole collection against `query` with mixing weight
    /// `alpha` (Eq. 1) and returns every positive-scoring document, sorted
    /// by descending score (ties broken by ascending doc for determinism).
    pub fn score_all(&self, query: &Query, alpha: f64) -> Vec<ScoredDoc> {
        let _span = rightcrowd_obs::span!("index.score_all");
        let alpha = alpha.clamp(0.0, 1.0);
        SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            let traversed = self.accumulate(query, alpha, s);
            crate::stats::publish(TraversalStats { traversed, ..TraversalStats::default() });
            let mut scored: Vec<ScoredDoc> = s
                .touched
                .iter()
                .filter_map(|&doc| {
                    let score = s.acc[doc as usize];
                    (score > 0.0).then_some(ScoredDoc { doc: DocIdx(doc), score })
                })
                .collect();
            sort_scored(&mut scored);
            scored
        })
    }

    /// Like [`Self::score_all`] but returns only the `k` best matching
    /// documents among those accepted by `filter`, using a bounded
    /// min-heap instead of sorting the whole match set — O(n log k)
    /// rather than O(n log n) — plus MaxScore-style pruning: once `k`
    /// eligible documents each hold a partial score that no unseen
    /// document can still reach (per-list upper bounds from the
    /// precomputed `irf`/`eirf` and per-list maxima), documents first
    /// appearing in the remaining lists are skipped without accumulation.
    ///
    /// Pruning invariant: a skipped document's best achievable score is
    /// strictly below the final `k`-th best eligible score, so pruning
    /// never changes which documents are returned, their scores (documents
    /// that survive accumulate every contribution), or their order.
    ///
    /// The result is identical (same documents, same order, same
    /// tie-breaking) to filtering and truncating [`Self::score_all`].
    pub fn score_top_k<F>(&self, query: &Query, alpha: f64, k: usize, filter: F) -> Vec<ScoredDoc>
    where
        F: Fn(DocIdx) -> bool,
    {
        if k == 0 {
            return Vec::new();
        }
        let _span = rightcrowd_obs::span!("index.score_top_k");
        let alpha = alpha.clamp(0.0, 1.0);

        // Observability tallies, accumulated locally (no atomics in the
        // hot loop) and published once on the way out.
        let mut st = TraversalStats::default();

        // Active posting lists in accumulation order (terms before
        // entities, query order within each side), each resolved against
        // the backing store and paired with an upper bound on its
        // per-document contribution.
        enum ListRef<'a> {
            Term(ResolvedTerm<'a>),
            Entity(ResolvedEntity<'a>),
        }
        let mut lists: Vec<(ListRef<'_>, f64)> = Vec::new();
        if alpha > 0.0 {
            for term in &query.terms {
                if let Some(r) = self.resolve_term(term) {
                    let w = alpha * r.irf * r.irf;
                    let ub = w * r.max_tf as f64;
                    lists.push((ListRef::Term(r), ub));
                }
            }
        }
        if alpha < 1.0 {
            for &entity in &query.entities {
                if let Some(r) = self.resolve_entity(entity) {
                    let w = (1.0 - alpha) * r.eirf * r.eirf;
                    let ub = w * r.max_contrib;
                    lists.push((ListRef::Entity(r), ub));
                }
            }
        }

        // remaining[j] bounds what lists j.. can still add to any document.
        let mut remaining = vec![0.0f64; lists.len() + 1];
        for j in (0..lists.len()).rev() {
            remaining[j] = remaining[j + 1] + lists[j].1;
        }

        SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            s.begin(self.doc_count());

            // filter() results, memoised so the predicate (which may be an
            // attribution lookup) runs at most once per document.
            let mut filter_cache: HashMap<u32, bool> = HashMap::new();
            let mut eligible = |doc: u32| -> bool {
                *filter_cache
                    .entry(doc)
                    .or_insert_with(|| filter(DocIdx(doc)))
            };

            // Decoded-block staging buffers (block path only).
            let mut dbuf = [0u32; BLOCK_SIZE];
            let mut fbuf = [0u32; BLOCK_SIZE];
            let mut wbuf = [0.0f64; BLOCK_SIZE];

            let mut skip_new = false;
            for (j, (list, _)) in lists.iter().enumerate() {
                // θ = k-th best eligible partial score. Scores only grow,
                // so θ lower-bounds the final k-th best; a document first
                // seen now gains at most `remaining[j]`. The 1e-9 slack
                // absorbs float reassociation between the bound sum and a
                // document's actual accumulation order, keeping the skip
                // decision sound.
                let mut theta: Option<f64> = None;
                if !skip_new && j > 0 && s.touched.len() >= k {
                    let mut partials: Vec<f64> = s
                        .touched
                        .iter()
                        .filter(|&&doc| eligible(doc))
                        .map(|&doc| s.acc[doc as usize])
                        .collect();
                    if partials.len() >= k {
                        let nth = partials.len() - k;
                        let (_, &mut th, _) = partials.select_nth_unstable_by(nth, |a, b| {
                            a.partial_cmp(b).expect("scores are finite")
                        });
                        theta = Some(th);
                        if remaining[j] * (1.0 + 1e-9) < th {
                            skip_new = true;
                        }
                    }
                }

                // Sorted snapshot of the already-touched documents, built
                // lazily the first time this list considers skipping a
                // block. A document has at most one posting per list, so
                // documents admitted *during* this list can never recur in
                // a later block of it — the snapshot only has to cover
                // documents admitted up to the moment it is taken, which
                // it does by construction.
                let mut touched_sorted: Option<Vec<u32>> = None;
                let mut snapshot = |touched: &[u32], lo: u32, hi: u32| -> bool {
                    let ts = touched_sorted.get_or_insert_with(|| {
                        let mut v = touched.to_vec();
                        v.sort_unstable();
                        v
                    });
                    // Any touched doc inside [lo, hi]?
                    ts.partition_point(|&d| d < lo) < ts.partition_point(|&d| d <= hi)
                };

                match list {
                    ListRef::Term(r) => {
                        let w = alpha * r.irf * r.irf;
                        let packed = r.packed;
                        let (bs, be) = packed.list_blocks(r.local);
                        st.blocks_total += (be - bs) as u64;
                        let mut prev = -1i64;
                        for b in bs..be {
                            let last = packed.last_doc[b];
                            // A doc first seen in this block gains at
                            // most the block max from this list plus
                            // everything after it; below θ, the block
                            // can only matter through already-touched
                            // docs — skip it whole when none are in
                            // its doc range.
                            let prunable = skip_new
                                || theta.is_some_and(|t| {
                                    (w * packed.max_score[b] + remaining[j + 1])
                                        * (1.0 + 1e-9)
                                        < t
                                });
                            if prunable && !snapshot(&s.touched, (prev + 1) as u32, last) {
                                let count = packed.counts[b] as u64;
                                st.pruned += count;
                                st.postings_skipped += count;
                                st.blocks_skipped += 1;
                                prev = i64::from(last);
                                continue;
                            }
                            let (n, bytes) =
                                packed.decode_block(b, prev, &mut dbuf, &mut fbuf);
                            st.blocks_decoded += 1;
                            st.postings_bytes_decoded += bytes;
                            st.traversed += n as u64;
                            for (&doc, &tf) in dbuf[..n].iter().zip(&fbuf[..n]) {
                                let d = doc as usize;
                                if s.stamps[d] != s.epoch {
                                    if skip_new {
                                        st.pruned += 1;
                                        continue;
                                    }
                                    s.stamps[d] = s.epoch;
                                    s.acc[d] = 0.0;
                                    s.touched.push(doc);
                                }
                                s.acc[d] += w * tf as f64;
                            }
                            prev = i64::from(last);
                        }
                    }
                    ListRef::Entity(r) => {
                        let w = (1.0 - alpha) * r.eirf * r.eirf;
                        let packed = r.packed;
                        let (bs, be) = packed.list_blocks(r.local);
                        st.blocks_total += (be - bs) as u64;
                        let mut prev = -1i64;
                        for b in bs..be {
                            let last = packed.last_doc[b];
                            let prunable = skip_new
                                || theta.is_some_and(|t| {
                                    (w * packed.max_score[b] + remaining[j + 1])
                                        * (1.0 + 1e-9)
                                        < t
                                });
                            if prunable && !snapshot(&s.touched, (prev + 1) as u32, last) {
                                let count = packed.counts[b] as u64;
                                st.pruned += count;
                                st.postings_skipped += count;
                                st.blocks_skipped += 1;
                                prev = i64::from(last);
                                continue;
                            }
                            let (n, bytes) = packed.decode_entity_block(
                                b, prev, &mut dbuf, &mut fbuf, &mut wbuf,
                            );
                            st.blocks_decoded += 1;
                            st.postings_bytes_decoded += bytes;
                            st.traversed += n as u64;
                            for ((&doc, &ef), &we) in
                                dbuf[..n].iter().zip(&fbuf[..n]).zip(&wbuf[..n])
                            {
                                let d = doc as usize;
                                if s.stamps[d] != s.epoch {
                                    if skip_new {
                                        st.pruned += 1;
                                        continue;
                                    }
                                    s.stamps[d] = s.epoch;
                                    s.acc[d] = 0.0;
                                    s.touched.push(doc);
                                }
                                s.acc[d] += w * ef as f64 * we;
                            }
                            prev = i64::from(last);
                        }
                    }
                }
            }
            st.admitted = s.touched.len() as u64;
            crate::stats::publish(st);

            let mut heap: BinaryHeap<Worst> = BinaryHeap::with_capacity(heap_capacity(k));
            for &doc in &s.touched {
                let score = s.acc[doc as usize];
                if score <= 0.0 || !eligible(doc) {
                    continue;
                }
                heap.push(Worst(ScoredDoc { doc: DocIdx(doc), score }));
                if heap.len() > k {
                    heap.pop();
                }
            }
            let mut out: Vec<ScoredDoc> = heap.into_iter().map(|w| w.0).collect();
            sort_scored(&mut out);
            out
        })
    }

    /// One posting traversal yielding the α-free factorisation of Eq. 1
    /// per matching document, in ascending doc order. Feed the result to
    /// [`recombine`] / [`recombine_top_k`] to obtain the ranking for any
    /// α without touching the postings again.
    pub fn score_components(&self, query: &Query) -> Vec<ComponentScore> {
        let _span = rightcrowd_obs::span!("index.score_components");
        let mut traversed = 0u64;
        SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            s.begin(self.doc_count());
            for term in &query.terms {
                let Some(r) = self.resolve_term(term) else {
                    continue;
                };
                let w = r.irf * r.irf;
                traversed += r.df as u64;
                self.visit_term_list(&r, |doc, tf| {
                    let d = doc as usize;
                    if s.stamps[d] != s.epoch {
                        s.stamps[d] = s.epoch;
                        s.acc[d] = 0.0;
                        s.acc2[d] = 0.0;
                        s.touched.push(doc);
                    }
                    s.acc[d] += w * tf as f64;
                });
            }
            for &entity in &query.entities {
                let Some(r) = self.resolve_entity(entity) else {
                    continue;
                };
                let w = r.eirf * r.eirf;
                traversed += r.df as u64;
                self.visit_entity_list(&r, |doc, ef, we| {
                    let d = doc as usize;
                    if s.stamps[d] != s.epoch {
                        s.stamps[d] = s.epoch;
                        s.acc[d] = 0.0;
                        s.acc2[d] = 0.0;
                        s.touched.push(doc);
                    }
                    s.acc2[d] += w * ef as f64 * we;
                });
            }
            crate::stats::publish(TraversalStats { traversed, ..TraversalStats::default() });
            s.touched.sort_unstable();
            s.touched
                .iter()
                .map(|&doc| ComponentScore {
                    doc: DocIdx(doc),
                    term_sum: s.acc[doc as usize],
                    entity_sum: s.acc2[doc as usize],
                })
                .collect()
        })
    }
}

/// Applies the Eq. 1 mix `α · term_sum + (1 − α) · entity_sum` to factored
/// [`ComponentScore`]s and returns every positive-scoring document in the
/// [`InvertedIndex::score_all`] order (descending score, then ascending
/// doc).
pub fn recombine(components: &[ComponentScore], alpha: f64) -> Vec<ScoredDoc> {
    let alpha = alpha.clamp(0.0, 1.0);
    let mut scored: Vec<ScoredDoc> = components
        .iter()
        .filter_map(|c| {
            let score = alpha * c.term_sum + (1.0 - alpha) * c.entity_sum;
            (score > 0.0).then_some(ScoredDoc { doc: c.doc, score })
        })
        .collect();
    sort_scored(&mut scored);
    scored
}

/// Like [`recombine`] but keeps only the `k` best documents accepted by
/// `filter`, mirroring [`InvertedIndex::score_top_k`] semantics.
pub fn recombine_top_k<F>(
    components: &[ComponentScore],
    alpha: f64,
    k: usize,
    filter: F,
) -> Vec<ScoredDoc>
where
    F: Fn(DocIdx) -> bool,
{
    if k == 0 {
        return Vec::new();
    }
    let alpha = alpha.clamp(0.0, 1.0);
    let mut heap: BinaryHeap<Worst> = BinaryHeap::with_capacity(heap_capacity(k));
    for c in components {
        let score = alpha * c.term_sum + (1.0 - alpha) * c.entity_sum;
        if score <= 0.0 || !filter(c.doc) {
            continue;
        }
        heap.push(Worst(ScoredDoc { doc: c.doc, score }));
        if heap.len() > k {
            heap.pop();
        }
    }
    let mut out: Vec<ScoredDoc> = heap.into_iter().map(|w| w.0).collect();
    sort_scored(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;

    fn terms(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// Three docs: one about swimming, one about cooking, one mixed.
    fn sample() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document(&terms(&["swim", "pool", "train", "swim"]), &[(EntityId::new(1), 0.8)]);
        b.add_document(&terms(&["cook", "pasta", "recipe"]), &[]);
        b.add_document(&terms(&["swim", "cook"]), &[(EntityId::new(1), 0.2), (EntityId::new(2), 0.5)]);
        b.build()
    }

    #[test]
    fn irf_decreases_with_df() {
        let idx = sample();
        // "pool" occurs in 1 doc, "swim" in 2 → rarer term has higher irf.
        assert!(idx.irf("pool") > idx.irf("swim"));
        assert_eq!(idx.irf("unseen"), 0.0);
        assert!(idx.eirf(EntityId::new(2)) > idx.eirf(EntityId::new(1)));
        assert_eq!(idx.eirf(EntityId::new(99)), 0.0);
    }

    #[test]
    fn pure_term_query_ranks_by_tf_irf() {
        let idx = sample();
        let hits = idx.score_all(&Query::from_terms(["swim"]), 1.0);
        assert_eq!(hits.len(), 2);
        // Doc 0 has tf=2, doc 2 has tf=1 → doc 0 first.
        assert_eq!(hits[0].doc, DocIdx(0));
        assert_eq!(hits[1].doc, DocIdx(2));
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn pure_entity_query_uses_dscore_weight() {
        let idx = sample();
        let q = Query { terms: vec![], entities: vec![EntityId::new(1)] };
        let hits = idx.score_all(&q, 0.0);
        assert_eq!(hits.len(), 2);
        // Same ef=1 in both docs, but doc 0 has higher dscore → we bigger.
        assert_eq!(hits[0].doc, DocIdx(0));
    }

    #[test]
    fn alpha_mixes_the_two_signals() {
        let idx = sample();
        let q = Query {
            terms: terms(&["cook"]),
            entities: vec![EntityId::new(1)],
        };
        let text_only = idx.score_all(&q, 1.0);
        let entity_only = idx.score_all(&q, 0.0);
        let mixed = idx.score_all(&q, 0.5);
        // Text matches docs 1, 2; entity matches docs 0, 2; the mix
        // matches the union.
        assert_eq!(text_only.len(), 2);
        assert_eq!(entity_only.len(), 2);
        assert_eq!(mixed.len(), 3);
        // Doc 2 gets both contributions in the mix.
        assert_eq!(mixed[0].doc, DocIdx(2));
    }

    #[test]
    fn alpha_is_clamped() {
        let idx = sample();
        let q = Query::from_terms(["swim"]);
        let clamped = idx.score_all(&q, 42.0);
        let one = idx.score_all(&q, 1.0);
        assert_eq!(clamped, one);
    }

    #[test]
    fn empty_query_matches_nothing() {
        let idx = sample();
        assert!(idx.score_all(&Query::default(), 0.5).is_empty());
    }

    #[test]
    fn repeated_query_terms_double_contribution() {
        let idx = sample();
        let once = idx.score_all(&Query::from_terms(["swim"]), 1.0);
        let twice = idx.score_all(&Query::from_terms(["swim", "swim"]), 1.0);
        assert!((twice[0].score - 2.0 * once[0].score).abs() < 1e-9);
    }

    #[test]
    fn top_k_matches_truncated_score_all() {
        let idx = sample();
        let q = Query {
            terms: terms(&["swim", "cook"]),
            entities: vec![EntityId::new(1)],
        };
        let full = idx.score_all(&q, 0.5);
        for k in 0..=full.len() + 2 {
            let topk = idx.score_top_k(&q, 0.5, k, |_| true);
            assert_eq!(topk.len(), k.min(full.len()));
            assert_eq!(&topk[..], &full[..topk.len()], "k = {k}");
        }
    }

    #[test]
    fn top_k_respects_filter() {
        let idx = sample();
        let q = Query::from_terms(["swim"]);
        let only_doc2 = idx.score_top_k(&q, 1.0, 10, |d| d == DocIdx(2));
        assert_eq!(only_doc2.len(), 1);
        assert_eq!(only_doc2[0].doc, DocIdx(2));
        let none = idx.score_top_k(&q, 1.0, 10, |_| false);
        assert!(none.is_empty());
    }

    #[test]
    fn top_k_tie_break_matches_full_sort() {
        let mut b = IndexBuilder::new();
        for _ in 0..6 {
            b.add_document(&terms(&["x"]), &[]);
        }
        let idx = b.build();
        let q = Query::from_terms(["x"]);
        let full = idx.score_all(&q, 1.0);
        let top3 = idx.score_top_k(&q, 1.0, 3, |_| true);
        assert_eq!(&top3[..], &full[..3]);
        assert_eq!(top3[0].doc, DocIdx(0));
        assert_eq!(top3[2].doc, DocIdx(2));
    }

    #[test]
    fn deterministic_tie_break_by_doc() {
        let mut b = IndexBuilder::new();
        b.add_document(&terms(&["x"]), &[]);
        b.add_document(&terms(&["x"]), &[]);
        let idx = b.build();
        let hits = idx.score_all(&Query::from_terms(["x"]), 1.0);
        assert_eq!(hits[0].doc, DocIdx(0));
        assert_eq!(hits[1].doc, DocIdx(1));
    }

    /// A wider index where pruning actually activates: many single-term
    /// docs with spread-out tfs, so a small k lets θ beat the remaining
    /// upper bounds after the first list.
    fn wide() -> (InvertedIndex, Query) {
        let mut b = IndexBuilder::new();
        for i in 0..200u32 {
            // tf varies 1..=20; "rare" appears only in a few docs.
            let tf = (i % 20 + 1) as usize;
            let mut ts = vec!["common".to_string(); tf];
            if i % 37 == 0 {
                ts.push("rare".to_string());
            }
            let ents = if i % 11 == 0 {
                vec![(EntityId::new(1), (i % 10) as f64 / 10.0)]
            } else {
                vec![]
            };
            b.add_document(&ts, &ents);
        }
        let idx = b.build();
        let q = Query {
            terms: terms(&["common", "rare"]),
            entities: vec![EntityId::new(1)],
        };
        (idx, q)
    }

    #[test]
    fn pruned_top_k_matches_score_all_across_alphas_and_ks() {
        let (idx, q) = wide();
        for &alpha in &[0.0, 0.3, 0.6, 1.0] {
            let full = idx.score_all(&q, alpha);
            for &k in &[1usize, 3, 10, 50, 500] {
                let topk = idx.score_top_k(&q, alpha, k, |_| true);
                assert_eq!(&topk[..], &full[..k.min(full.len())], "alpha {alpha} k {k}");
            }
        }
    }

    #[test]
    fn pruned_top_k_matches_filtered_score_all() {
        let (idx, q) = wide();
        let filter = |d: DocIdx| !d.0.is_multiple_of(3);
        let full: Vec<ScoredDoc> = idx
            .score_all(&q, 0.6)
            .into_iter()
            .filter(|s| filter(s.doc))
            .collect();
        for &k in &[1usize, 5, 25] {
            let topk = idx.score_top_k(&q, 0.6, k, filter);
            assert_eq!(&topk[..], &full[..k.min(full.len())], "k {k}");
        }
    }

    #[test]
    fn components_recombine_to_score_all() {
        let (idx, q) = wide();
        let components = idx.score_components(&q);
        // Components arrive in ascending doc order.
        assert!(components.windows(2).all(|w| w[0].doc < w[1].doc));
        for &alpha in &[0.0, 0.25, 0.6, 1.0] {
            let direct = idx.score_all(&q, alpha);
            let factored = recombine(&components, alpha);
            assert_eq!(direct.len(), factored.len(), "alpha {alpha}");
            for (a, b) in direct.iter().zip(&factored) {
                assert_eq!(a.doc, b.doc, "alpha {alpha}");
                assert!((a.score - b.score).abs() <= 1e-12 * a.score.max(1.0));
            }
        }
    }

    #[test]
    fn recombine_top_k_matches_direct_top_k() {
        let (idx, q) = wide();
        let components = idx.score_components(&q);
        let filter = |d: DocIdx| d.0.is_multiple_of(2);
        for &alpha in &[0.0, 0.6, 1.0] {
            let direct = idx.score_top_k(&q, alpha, 10, filter);
            let factored = recombine_top_k(&components, alpha, 10, filter);
            assert_eq!(direct.len(), factored.len());
            for (a, b) in direct.iter().zip(&factored) {
                assert_eq!(a.doc, b.doc, "alpha {alpha}");
                assert!((a.score - b.score).abs() <= 1e-12 * a.score.max(1.0));
            }
        }
    }

    #[test]
    fn posting_iterators_expose_csr_lists() {
        let idx = sample();
        let swim: Vec<(DocIdx, u32)> = idx.term_postings("swim").collect();
        assert_eq!(swim, vec![(DocIdx(0), 2), (DocIdx(2), 1)]);
        assert_eq!(idx.term_postings("unseen").count(), 0);
        let e1: Vec<EntityPostingView> = idx.entity_postings(EntityId::new(1)).collect();
        assert_eq!(e1.len(), 2);
        assert_eq!(e1[0].doc, DocIdx(0));
        assert!((e1[0].we - 1.8).abs() < 1e-12);
        assert_eq!(idx.entity_postings(EntityId::new(99)).count(), 0);
    }

    #[test]
    fn interning_is_dense_and_counts_match() {
        let idx = sample();
        assert_eq!(idx.term_count(), 6); // swim pool train cook pasta recipe
        assert_eq!(idx.entity_count(), 2);
        assert_eq!(idx.doc_count(), 3);
    }
}
