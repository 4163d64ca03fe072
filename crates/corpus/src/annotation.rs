//! Simulated annotation study (Fig. 2 and §II-E).
//!
//! The paper trains two student annotators on expert-curated guidelines, has them
//! label the corpus independently, and reports Fleiss' κ = 75.92 %. The raw annotator
//! decisions are not released, so this module simulates the study: an annotator reads
//! the gold label and, with a per-dimension probability, *confuses* it with a related
//! dimension. The confusion structure follows the paper's Limitations section —
//! Emotional↔Social and Spiritual↔Emotional are the documented hard pairs — so the
//! resulting disagreement pattern (and the κ value) mirrors the published study.

use crate::agreement::AgreementReport;
use crate::post::{AnnotatedPost, WellnessDimension, ALL_DIMENSIONS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A single simulated annotator: an accuracy level plus a dimension-confusion table.
#[derive(Debug, Clone)]
pub struct AnnotatorProfile {
    /// Display name (e.g. "student-annotator-1").
    pub name: String,
    /// Probability of keeping the gold label for an unambiguous post.
    pub base_accuracy: f64,
    /// Extra probability of error on posts whose dimension is one of the subjectively
    /// hard ones (Emotional, Spiritual).
    pub subjective_penalty: f64,
}

impl AnnotatorProfile {
    /// A profile calibrated so that two independent annotators reach a Fleiss' kappa
    /// in the neighbourhood of the paper's 75.92 %.
    pub fn student(name: &str) -> Self {
        Self {
            name: name.to_string(),
            base_accuracy: 0.93,
            subjective_penalty: 0.14,
        }
    }

    /// The probability this annotator keeps the gold label for `dim`.
    pub fn keep_probability(&self, dim: WellnessDimension) -> f64 {
        let penalty = match dim {
            WellnessDimension::Emotional | WellnessDimension::Spiritual => self.subjective_penalty,
            WellnessDimension::Intellectual => self.subjective_penalty * 0.4,
            _ => 0.0,
        };
        (self.base_accuracy - penalty).clamp(0.0, 1.0)
    }
}

/// The dimensions an annotator is most likely to confuse a gold label with, per the
/// Limitations section (ordered most-likely first).
pub fn confusable_with(dim: WellnessDimension) -> &'static [WellnessDimension] {
    use WellnessDimension::*;
    match dim {
        Emotional => &[Social, Spiritual, Physical],
        Spiritual => &[Emotional, Social],
        Social => &[Emotional],
        Physical => &[Emotional],
        Intellectual => &[Vocational, Emotional],
        Vocational => &[Intellectual, Emotional],
    }
}

/// A seeded simulated annotator.
#[derive(Debug, Clone)]
pub struct SimulatedAnnotator {
    profile: AnnotatorProfile,
    rng: StdRng,
}

impl SimulatedAnnotator {
    /// Create an annotator with a profile and a seed.
    pub fn new(profile: AnnotatorProfile, seed: u64) -> Self {
        Self {
            profile,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The annotator's profile.
    pub fn profile(&self) -> &AnnotatorProfile {
        &self.profile
    }

    /// Annotate one post: returns the label this annotator would assign.
    pub fn annotate(&mut self, post: &AnnotatedPost) -> WellnessDimension {
        let keep = self.profile.keep_probability(post.label);
        if self.rng.gen::<f64>() < keep {
            return post.label;
        }
        let confusables = confusable_with(post.label);
        // Mostly pick a documented confusable dimension; occasionally any other.
        if !confusables.is_empty() && self.rng.gen::<f64>() < 0.85 {
            confusables[self.rng.gen_range(0..confusables.len())]
        } else {
            loop {
                let candidate = ALL_DIMENSIONS[self.rng.gen_range(0..6)];
                if candidate != post.label {
                    return candidate;
                }
            }
        }
    }

    /// Annotate a whole corpus, returning dense label indices in post order.
    pub fn annotate_all(&mut self, posts: &[AnnotatedPost]) -> Vec<usize> {
        posts.iter().map(|p| self.annotate(p).index()).collect()
    }
}

/// A complete simulated annotation study: two independent annotators over a corpus.
#[derive(Debug, Clone)]
pub struct AnnotationStudy {
    /// First annotator's labels (dense indices, post order).
    pub annotator_a: Vec<usize>,
    /// Second annotator's labels.
    pub annotator_b: Vec<usize>,
    /// Gold labels.
    pub gold: Vec<usize>,
    /// Agreement statistics between the two annotators.
    pub agreement: AgreementReport,
    /// Fraction of items where the two annotators disagreed and at least one of them
    /// matched the gold label (the cases the perplexity guidelines adjudicate).
    pub adjudicated_fraction: f64,
}

impl AnnotationStudy {
    /// Run the study over `posts` with two student-profile annotators.
    pub fn run(posts: &[AnnotatedPost], seed: u64) -> Self {
        let mut a = SimulatedAnnotator::new(AnnotatorProfile::student("student-annotator-1"), seed);
        let mut b = SimulatedAnnotator::new(
            AnnotatorProfile::student("student-annotator-2"),
            seed.wrapping_add(0x9E37_79B9),
        );
        let labels_a = a.annotate_all(posts);
        let labels_b = b.annotate_all(posts);
        let gold: Vec<usize> = posts.iter().map(|p| p.label.index()).collect();
        let agreement = AgreementReport::from_two_raters(&labels_a, &labels_b, 6);
        let disagreements = labels_a
            .iter()
            .zip(&labels_b)
            .zip(&gold)
            .filter(|((a, b), _)| a != b)
            .count();
        let adjudicated = labels_a
            .iter()
            .zip(&labels_b)
            .zip(&gold)
            .filter(|((a, b), g)| a != b && (*a == *g || *b == *g))
            .count();
        Self {
            annotator_a: labels_a,
            annotator_b: labels_b,
            gold,
            agreement,
            adjudicated_fraction: if disagreements == 0 {
                0.0
            } else {
                adjudicated as f64 / disagreements as f64
            },
        }
    }

    /// Per-pair disagreement counts: `(gold dimension, assigned dimension, count)` for
    /// all annotator decisions that differ from gold. This is the empirical confusion
    /// pattern the Limitations section describes qualitatively.
    pub fn confusion_pairs(&self) -> Vec<(WellnessDimension, WellnessDimension, usize)> {
        let mut counts = vec![vec![0usize; 6]; 6];
        for (labels, gold) in [
            (&self.annotator_a, &self.gold),
            (&self.annotator_b, &self.gold),
        ] {
            for (&assigned, &g) in labels.iter().zip(gold) {
                if assigned != g {
                    counts[g][assigned] += 1;
                }
            }
        }
        let mut out = Vec::new();
        for (g, row) in counts.iter().enumerate() {
            for (a, &c) in row.iter().enumerate() {
                if c > 0 {
                    out.push((ALL_DIMENSIONS[g], ALL_DIMENSIONS[a], c));
                }
            }
        }
        out.sort_by_key(|x| std::cmp::Reverse(x.2));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::HolistixCorpus;

    #[test]
    fn annotator_mostly_agrees_with_gold() {
        let corpus = HolistixCorpus::generate_small(300, 21);
        let mut annotator = SimulatedAnnotator::new(AnnotatorProfile::student("a"), 5);
        let labels = annotator.annotate_all(&corpus.posts);
        let gold = corpus.label_indices();
        let acc =
            labels.iter().zip(&gold).filter(|(a, b)| a == b).count() as f64 / gold.len() as f64;
        assert!(acc > 0.8, "accuracy {acc}");
        assert!(acc < 1.0, "a simulated annotator should make some errors");
    }

    #[test]
    fn study_kappa_lands_near_paper_value() {
        let corpus = HolistixCorpus::generate(42);
        let study = AnnotationStudy::run(&corpus.posts, 7);
        let kappa = study.agreement.fleiss_kappa;
        assert!(
            (kappa - AgreementReport::paper_reference_kappa()).abs() < 0.08,
            "kappa {kappa} too far from 0.7592"
        );
    }

    #[test]
    fn study_is_deterministic() {
        let corpus = HolistixCorpus::generate_small(100, 3);
        let a = AnnotationStudy::run(&corpus.posts, 11);
        let b = AnnotationStudy::run(&corpus.posts, 11);
        assert_eq!(a.annotator_a, b.annotator_a);
        assert_eq!(a.agreement, b.agreement);
    }

    #[test]
    fn emotional_and_spiritual_are_most_confused() {
        let corpus = HolistixCorpus::generate(7);
        let study = AnnotationStudy::run(&corpus.posts, 19);
        let pairs = study.confusion_pairs();
        assert!(!pairs.is_empty());
        // Among gold EA/SpiA errors there should be more confusion than among gold VA.
        let errors_for = |d: WellnessDimension| -> usize {
            pairs
                .iter()
                .filter(|(g, _, _)| *g == d)
                .map(|(_, _, c)| c)
                .sum()
        };
        let ea_rate = errors_for(WellnessDimension::Emotional) as f64
            / WellnessDimension::Emotional.paper_count() as f64;
        let va_rate = errors_for(WellnessDimension::Vocational) as f64
            / WellnessDimension::Vocational.paper_count() as f64;
        assert!(
            ea_rate > va_rate,
            "EA error rate {ea_rate} should exceed VA {va_rate}"
        );
    }

    #[test]
    fn keep_probability_clamped_and_ordered() {
        let p = AnnotatorProfile::student("x");
        assert!(
            p.keep_probability(WellnessDimension::Emotional)
                < p.keep_probability(WellnessDimension::Social)
        );
        for d in ALL_DIMENSIONS {
            let kp = p.keep_probability(d);
            assert!((0.0..=1.0).contains(&kp));
        }
    }

    #[test]
    fn adjudicated_fraction_is_a_fraction() {
        let corpus = HolistixCorpus::generate_small(200, 2);
        let study = AnnotationStudy::run(&corpus.posts, 3);
        assert!((0.0..=1.0).contains(&study.adjudicated_fraction));
    }
}
