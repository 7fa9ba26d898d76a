//! Property tests for language identification.

use proptest::prelude::*;
use rightcrowd_langid::{LanguageIdentifier, LanguageProfile};
use rightcrowd_types::Language;

fn ident() -> LanguageIdentifier {
    LanguageIdentifier::new()
}

proptest! {
    #[test]
    fn classification_is_total_and_bounded(text in "\\PC{0,300}") {
        let c = ident().classify(&text);
        prop_assert!((0.0..=1.0).contains(&c.confidence), "confidence {}", c.confidence);
        // Unknown always comes with zero confidence.
        if c.language == Language::Unknown {
            prop_assert_eq!(c.confidence, 0.0);
        }
    }

    #[test]
    fn short_texts_are_always_unknown(text in "\\PC{0,8}") {
        // Fewer than MIN_TEXT_LEN alphabetic chars → inconclusive.
        let alphabetic = text.chars().filter(|c| c.is_alphabetic()).count();
        prop_assume!(alphabetic < rightcrowd_langid::classifier::MIN_TEXT_LEN);
        prop_assert_eq!(ident().detect(&text), Language::Unknown);
    }

    #[test]
    fn classification_is_deterministic(text in "\\PC{0,150}") {
        prop_assert_eq!(ident().classify(&text), ident().classify(&text));
    }

    #[test]
    fn profile_distance_is_zero_to_self(text in "[a-z ]{30,120}") {
        let p = LanguageProfile::from_text(Language::Unknown, &text);
        prop_assert_eq!(p.out_of_place(&p), 0);
    }

    #[test]
    fn out_of_place_is_bounded_by_all_miss(a in "[a-z ]{10,80}", b in "[a-z ]{10,80}") {
        let pa = LanguageProfile::from_text(Language::Unknown, &a);
        let pb = LanguageProfile::from_text(Language::Unknown, &b);
        let d = pa.out_of_place(&pb);
        prop_assert!(d <= pb.len() * rightcrowd_langid::profile::PROFILE_SIZE);
    }
}
