//! The rank-order language classifier.

use crate::corpora::training_pairs;
use crate::profile::{LanguageProfile, PROFILE_SIZE};
use rightcrowd_types::Language;
use std::sync::OnceLock;

/// Minimum number of characters before a classification is attempted;
/// shorter snippets ("ok!!", "+1") return [`Language::Unknown`].
pub const MIN_TEXT_LEN: usize = 12;

/// Maximum allowed average out-of-place distance per document gram; above
/// this the text matches no trained language well enough and is `Unknown`.
/// Expressed as a fraction of the worst-case (all-miss) distance.
pub const MAX_REL_DISTANCE: f64 = 0.9;

/// The result of classifying one text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Classification {
    /// Best-matching language ([`Language::Unknown`] when inconclusive).
    pub language: Language,
    /// Confidence in `[0, 1]`: 1 − relative out-of-place distance of the
    /// winner. Higher means a closer profile match.
    pub confidence: f64,
}

impl Classification {
    /// The inconclusive classification.
    pub const UNKNOWN: Classification = Classification { language: Language::Unknown, confidence: 0.0 };
}

/// The rank-order profiles trained from the embedded corpora, shared by
/// every [`LanguageIdentifier`] in the process.
static PROFILES: OnceLock<Vec<LanguageProfile>> = OnceLock::new();

/// Trains one profile per seed corpus. Runs once per process, on the
/// first [`LanguageIdentifier::new`]; concurrent first callers block on
/// the one training instead of repeating it.
fn train() -> Vec<LanguageProfile> {
    let _span = rightcrowd_obs::span!("langid.train");
    training_pairs()
        .into_iter()
        .map(|(lang, text)| LanguageProfile::from_text(lang, text))
        .collect()
}

/// A trained language identifier: a view of the process-wide profiles.
///
/// The profiles are trained once per process, on the first
/// [`LanguageIdentifier::new`], and shared by every identifier after it,
/// so construction is free and the value is `Copy`.
#[derive(Debug, Clone, Copy)]
pub struct LanguageIdentifier {
    profiles: &'static [LanguageProfile],
}

impl Default for LanguageIdentifier {
    fn default() -> Self {
        Self::new()
    }
}

impl LanguageIdentifier {
    /// The identifier over the embedded seed corpora. The first call in
    /// a process trains the profiles; every later call only borrows them.
    pub fn new() -> Self {
        Self::over(&PROFILES)
    }

    /// The identifier over the profiles in `cell`, training them first if
    /// the cell is still empty.
    fn over(cell: &'static OnceLock<Vec<LanguageProfile>>) -> Self {
        LanguageIdentifier { profiles: cell.get_or_init(train) }
    }

    /// Classifies `text`, returning the best language and a confidence.
    pub fn classify(&self, text: &str) -> Classification {
        let _span = rightcrowd_obs::span!("langid.classify");
        let informative: usize = text.chars().filter(|c| c.is_alphabetic()).count();
        if informative < MIN_TEXT_LEN {
            return Classification::UNKNOWN;
        }
        let document = LanguageProfile::from_text(Language::Unknown, text);
        if document.is_empty() {
            return Classification::UNKNOWN;
        }
        let worst = document.len() * PROFILE_SIZE;
        let mut best: Option<(Language, usize)> = None;
        for profile in self.profiles {
            let d = profile.out_of_place(&document);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((profile.language, d));
            }
        }
        let (language, distance) = best.expect("at least one trained profile");
        let rel = distance as f64 / worst as f64;
        if rel > MAX_REL_DISTANCE {
            return Classification::UNKNOWN;
        }
        Classification { language, confidence: 1.0 - rel }
    }

    /// Convenience: the detected language only.
    pub fn detect(&self, text: &str) -> Language {
        self.classify(text).language
    }

    /// Whether the paper's pipeline would retain this text (English).
    pub fn retains(&self, text: &str) -> bool {
        self.detect(text).retained()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident() -> LanguageIdentifier {
        LanguageIdentifier::new()
    }

    #[test]
    fn classifies_clear_english() {
        let c = ident().classify("I just finished a great swimming session at the pool with my friends");
        assert_eq!(c.language, Language::English);
        assert!(c.confidence > 0.3, "confidence {}", c.confidence);
    }

    #[test]
    fn classifies_clear_italian() {
        let c = ident().classify("Oggi sono andato in piscina con gli amici e poi abbiamo mangiato una pizza buonissima");
        assert_eq!(c.language, Language::Italian);
    }

    #[test]
    fn classifies_clear_french() {
        assert_eq!(
            ident().detect("Je voudrais savoir quels sont les meilleurs restaurants près de chez moi"),
            Language::French
        );
    }

    #[test]
    fn classifies_clear_german() {
        assert_eq!(
            ident().detect("Ich habe gestern ein sehr interessantes Buch über die Geschichte gelesen"),
            Language::German
        );
    }

    #[test]
    fn classifies_clear_spanish() {
        assert_eq!(
            ident().detect("Me gustaría saber cuáles son las mejores canciones de este año para la fiesta"),
            Language::Spanish
        );
    }

    #[test]
    fn short_snippets_are_unknown() {
        let id = ident();
        assert_eq!(id.classify("ok!"), Classification::UNKNOWN);
        assert_eq!(id.classify("+1"), Classification::UNKNOWN);
        assert_eq!(id.classify(""), Classification::UNKNOWN);
        assert_eq!(id.classify("12345 67890 0001"), Classification::UNKNOWN);
    }

    #[test]
    fn retains_only_english() {
        let id = ident();
        assert!(id.retains("What do you suggest for a cheap graphics card to play new games?"));
        assert!(!id.retains("Quale scheda grafica mi consigliate per giocare senza spendere troppo?"));
    }

    /// The paper's six example expertise needs.
    const PAPER_QUERIES: [&str; 6] = [
        "Which PHP function can I use in order to obtain the length of a string?",
        "Can you list some restaurants in Milan?",
        "Can you list some famous actors in how I met your mother?",
        "Can you list some famous songs of Michael Jackson?",
        "Why is copper a good conductor?",
        "Can you list some famous European football teams?",
    ];

    #[test]
    fn paper_example_queries_are_english() {
        let id = ident();
        for q in PAPER_QUERIES {
            assert_eq!(id.detect(q), Language::English, "misclassified: {q}");
        }
    }

    #[test]
    fn identifiers_share_one_profile_set() {
        let (a, b) = (ident(), ident());
        assert!(std::ptr::eq(a.profiles, b.profiles));
        assert_eq!(a.profiles.len(), training_pairs().len());
    }

    #[test]
    fn racing_first_use_classifies_like_a_private_training() {
        // A cell no other test touches, so the eight threads really race
        // on its first use through the same path `new` takes.
        static FRESH: OnceLock<Vec<LanguageProfile>> = OnceLock::new();
        const THREADS: usize = 8;
        let private = LanguageIdentifier { profiles: train().leak() };
        let texts: Vec<&str> =
            PAPER_QUERIES.into_iter().chain(training_pairs().map(|(_, text)| text)).collect();
        let barrier = std::sync::Barrier::new(THREADS);
        let shared: Vec<&'static [LanguageProfile]> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let raced = LanguageIdentifier::over(&FRESH);
                        for id in [raced, ident()] {
                            for text in &texts {
                                assert_eq!(id.classify(text), private.classify(text), "{text}");
                            }
                        }
                        raced.profiles
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("racing thread")).collect()
        });
        assert!(shared.iter().all(|p| std::ptr::eq(*p, shared[0])), "trained more than once");
    }

    #[test]
    fn confidence_in_unit_interval() {
        let id = ident();
        for text in [
            "the cat sat on the mat and watched the birds outside",
            "il gatto dorme tutto il giorno sul divano di casa",
            "xqzw vvkk zzzz qqqq wwww",
        ] {
            let c = id.classify(text);
            assert!((0.0..=1.0).contains(&c.confidence), "{text}: {}", c.confidence);
        }
    }
}
