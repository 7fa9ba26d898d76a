//! # rightcrowd-store
//!
//! Versioned on-disk snapshots of the built corpus + index — the
//! *build once, query many* half of the serving story (DESIGN.md §10).
//!
//! A snapshot is a directory holding one format: an `RCMANI01` manifest
//! plus N `RCSHRD02` postings shards (see [`shard`]). The manifest holds
//! everything `EvalContext` needs besides the postings — the social
//! graph, the synthetic web, the ground-truth inputs and the
//! retained-document table — plus a shard table with every shard's
//! range, length and digest. Each shard holds the block-compressed
//! postings of one contiguous term/entity range with their precomputed
//! `irf`/`eirf` and MaxScore bounds, laid out so an open borrows every
//! array straight from `mmap(2)` (see [`mapped`]). Compiled-in constants
//! (knowledge base, query workload) are *not* stored; they are
//! regenerated at load and verified against fingerprints, so a snapshot
//! can never be silently interpreted against the wrong vocabulary.
//!
//! Everything is hand-rolled (this crate has zero dependencies beyond
//! the workspace), little-endian, and fully checksummed — magic, format
//! version, feature flags, a section table, one CRC-64 per manifest
//! section, a whole-file CRC per file, and the manifest's digest of
//! every shard. On any damage a load returns a typed [`StoreError`] —
//! never a panic — whose variant names exactly what went wrong (see
//! `container` for the detection-order contract). Validity sidecars
//! (`.rcv`, see [`sidecar`]) let a re-open skip re-hashing unchanged
//! files.
//!
//! ```no_run
//! # use rightcrowd_synth::{DatasetConfig, SyntheticDataset};
//! # use rightcrowd_core::AnalyzedCorpus;
//! let ds = SyntheticDataset::generate(&DatasetConfig::small());
//! let corpus = AnalyzedCorpus::build(&ds);
//! rightcrowd_store::save_sharded("corpus.snap", &ds, &corpus, 4, 4).unwrap();
//! // …later, in another process:
//! let (ds, corpus, stats) = rightcrowd_store::load_sharded("corpus.snap", 4).unwrap();
//! assert!(stats.bytes > 0);
//! ```

pub mod codec;
pub mod container;
pub mod crc;
pub mod err;
pub mod mapped;
pub mod mmap;
pub mod pack;
pub mod shard;
pub mod sidecar;
pub mod wire;

pub use codec::Census;
pub use container::{
    layout, section_name, SectionInfo, FLAG_PACKED_SECTIONS, FORMAT_VERSION, KNOWN_FLAGS,
};
pub use crc::{crc64, Crc64};
pub use err::StoreError;
pub use mapped::{MAPPED_ALIGN, MAPPED_SHARD_MAGIC};
pub use shard::{
    is_sharded, load_sharded, manifest_path, open_mapped, save_sharded, save_sharded_with,
    shard_path, MappedOpenStats, ShardEntry, ShardTable, ShardedLoadStats, ShardedSaveStats,
    SnapshotLayout, MANIFEST_FILE, MANIFEST_MAGIC, SHARD_FORMAT_VERSION,
};
pub use sidecar::{read_sidecar, sidecar_path, write_sidecar, Sidecar};

use container::{kind, Section};
use rightcrowd_core::AnalyzedCorpus;
use rightcrowd_graph::DocId;
use rightcrowd_synth::{queries::workload, SyntheticDataset};

/// Encodes the five study sections that open every manifest — `meta`,
/// `graph`, `web`, `truth`, `corpus` — in format order. The manifest
/// writer appends the raw `doc_lens` and the shard table.
pub(crate) fn study_sections(
    ds: &SyntheticDataset,
    corpus: &AnalyzedCorpus,
    doc_lens: &[u32],
) -> Vec<Section> {
    let (persons, profiles, resources, containers) = ds.graph().counts();
    let census = Census {
        persons,
        profiles,
        resources,
        containers,
        pages: ds.web().len(),
        retained: corpus.retained(),
    };
    vec![
        Section {
            kind: kind::META,
            payload: codec::encode_meta(ds.config(), ds.kb(), ds.queries(), census),
        },
        Section { kind: kind::GRAPH, payload: codec::encode_graph(ds.graph()) },
        Section { kind: kind::WEB, payload: codec::encode_web(ds.web()) },
        Section {
            kind: kind::TRUTH,
            payload: codec::encode_truth(ds.latent(), ds.ground_truth().answers(), ds.personas()),
        },
        Section {
            kind: kind::CORPUS,
            payload: codec::encode_corpus(corpus.doc_ids(), corpus.dropped_non_english(), doc_lens),
        },
    ]
}

/// Decodes the five shared study sections (in the order produced by
/// [`study_sections`]), regenerating and fingerprint-checking the
/// compiled-in constants, and replays the dataset. Returns the dataset
/// plus the corpus ingredients that still await an index.
pub(crate) fn decode_study(
    payloads: [&[u8]; 5],
) -> Result<(SyntheticDataset, Vec<DocId>, usize, Vec<u32>), StoreError> {
    let [meta, graph, web, truth, corpus] = payloads;

    // Regenerate the compiled-in constants the fingerprints verify against.
    let kb = rightcrowd_kb::seed::standard();
    let queries = workload();

    let (config, census) = codec::decode_meta(meta, &kb, &queries)?;
    let graph = codec::decode_graph(graph, census)?;
    let web = codec::decode_web(web, census)?;
    let (latent, answers, personas) = codec::decode_truth(truth, census, queries.len())?;
    let (docs, dropped, doc_lens) = codec::decode_corpus(corpus, census)?;
    let ds = SyntheticDataset::from_parts(config, graph, web, latent, answers, personas);
    Ok((ds, docs, dropped, doc_lens))
}
