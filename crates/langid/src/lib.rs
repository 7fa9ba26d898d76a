//! # rightcrowd-langid
//!
//! Language identification for the "Language Identification" stage of the
//! paper's analysis pipeline (Fig. 4). Social-network users interact in many
//! languages; the paper classifies each resource by its main language and
//! keeps only English items for the (language-dependent) text-processing and
//! entity-annotation stages — of ~330k collected resources, ~230k were
//! English.
//!
//! The classifier is a from-scratch implementation of the Cavnar–Trenkle
//! rank-order ("out-of-place") character n-gram method (*N-Gram-Based Text
//! Categorization*, SDAIR 1994), trained on small embedded seed corpora
//! for English, Italian, French, German and Spanish. Training runs once
//! per process, on the first [`LanguageIdentifier::new`]; every
//! identifier after it shares the same profiles, so constructing one
//! (and an analysis pipeline around it) costs nothing.

pub mod classifier;
pub mod corpora;
pub mod profile;

pub use classifier::{Classification, LanguageIdentifier};
pub use profile::LanguageProfile;
