//! Seeded synthetic Holistix corpus generator.
//!
//! The real Holistix corpus (1,420 Beyond Blue posts) cannot be redistributed, so the
//! generator synthesises a corpus with the same *measurable* properties the paper
//! reports:
//!
//! * the Table II statistics — post count, class counts, words per post (mean and max),
//!   sentences per post (mean and max);
//! * the Table III lexical profile — each class's explanation spans are built from the
//!   class's weighted indicator keywords, so the per-class frequent-word lists come out
//!   in the same order;
//! * the difficulty structure of Table IV — a tunable share of posts contain clauses
//!   from *other* dimensions or deliberately ambiguous clauses (EA↔SA, EA↔SpiA), which
//!   is what makes the Emotional and Spiritual classes hard for every model.
//!
//! Every post records the gold explanation [`Span`](crate::post::Span) — the byte range
//! of the indicator clause — so the LIME evaluation of Table V has gold spans to
//! compare against, exactly as the real dataset does.

use crate::lexicon::{DimensionLexicon, IndicatorLexicon};
use crate::post::{AnnotatedPost, Post, Span, WellnessDimension, ALL_DIMENSIONS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Beyond Blue forum categories the paper scraped.
pub const FORUM_CATEGORIES: [&str; 7] = [
    "Anxiety",
    "Depression",
    "PTSD and Trauma",
    "Suicidal Thoughts and Self-Harm",
    "Relationship and Family Issues",
    "Supporting Friends and Family",
    "Grief and Loss",
];

/// Neutral opener clauses (no dimension signal) used to pad posts.
const OPENERS: &[&str] = &[
    "Hi everyone, this is my first time posting here",
    "I've been lurking on this forum for a while",
    "Sorry if this is long, I just need to get it out",
    "I'm not really sure where to start",
    "Thanks in advance for reading this",
    "It's late at night and I can't stop thinking",
    "I've never told anyone this before",
    "Things have been building up for months now",
    "I'm writing this because I don't know what else to do",
    "A bit of background about me first",
];

/// Distractor frames: clauses that *mention* another dimension's keyword but mark it
/// as explicitly not the problem ("at least my job is fine"). Bag-of-words models see
/// the keyword and get pulled towards the wrong class; order-aware models can learn
/// that the framing neutralises it. `{}` is replaced with a keyword sampled from a
/// *different* dimension's lexicon.
const DISTRACTOR_FRAMES: &[&str] = &[
    "at least my {} is going okay for now",
    "thankfully the {} side of things has been fine lately",
    "it is not really about my {} this time",
    "my {} is honestly fine so that is not the problem",
    "I used to worry about {} but that part is under control",
    "people keep asking about my {} but that is not what hurts",
    "the {} stuff is manageable compared to this",
    "I can cope with the {} part just fine",
];

/// Neutral closer clauses (no dimension signal).
const CLOSERS: &[&str] = &[
    "Has anyone else been through something like this",
    "Any advice would mean a lot to me",
    "I just needed to tell someone",
    "Thanks for listening to me ramble",
    "I don't know what I'm hoping to hear",
    "Maybe writing it down will help somehow",
    "I hope tomorrow is a little better",
    "Please tell me it gets easier",
];

/// Calibration parameters for the generator. The defaults reproduce the paper's
/// Table II statistics.
#[derive(Debug, Clone)]
pub struct CorpusCalibration {
    /// Number of posts per class, in table order (IA, VA, SpiA, PA, SA, EA).
    pub class_counts: [usize; 6],
    /// Probability that a post gains an extra clause drawn from a *different*
    /// dimension's lexicon (cross-dimension noise).
    pub cross_dimension_rate: f64,
    /// Probability that the gold sentence is extended with a *distractor* clause — a
    /// mention of another dimension's keyword framed as explicitly not the problem
    /// ("…, but at least my job is going okay for now"). This is what makes the corpus
    /// hard for bag-of-words models while remaining solvable for order-aware ones.
    pub distractor_rate: f64,
    /// Probability that a post includes one of the deliberately ambiguous clauses.
    pub ambiguous_clause_rate: f64,
    /// Probability of each additional filler (opener/closer) sentence.
    pub filler_rate: f64,
    /// Probability that a post is a "long" post with many sentences.
    pub long_post_rate: f64,
    /// Maximum number of sentences in a post (Table II: 9).
    pub max_sentences: usize,
}

impl Default for CorpusCalibration {
    fn default() -> Self {
        Self {
            class_counts: [155, 150, 190, 296, 406, 223],
            cross_dimension_rate: 0.30,
            distractor_rate: 0.60,
            ambiguous_clause_rate: 0.28,
            filler_rate: 0.45,
            long_post_rate: 0.04,
            max_sentences: 9,
        }
    }
}

impl CorpusCalibration {
    /// Total number of posts.
    pub fn n_posts(&self) -> usize {
        self.class_counts.iter().sum()
    }

    /// A proportionally scaled-down calibration with roughly `n` posts, keeping the
    /// class balance. Every class keeps at least 2 posts so stratified splitting and
    /// per-class metrics remain well-defined.
    pub fn scaled_to(&self, n: usize) -> Self {
        let total = self.n_posts() as f64;
        let mut counts = [0usize; 6];
        for (i, &c) in self.class_counts.iter().enumerate() {
            counts[i] = ((c as f64 / total) * n as f64).round().max(2.0) as usize;
        }
        Self {
            class_counts: counts,
            ..self.clone()
        }
    }
}

/// The generated corpus: every post carries its gold label and explanation span.
#[derive(Debug, Clone)]
pub struct HolistixCorpus {
    /// Annotated posts in generation order (shuffled across classes).
    pub posts: Vec<AnnotatedPost>,
    /// The seed the corpus was generated from (for provenance).
    pub seed: u64,
}

impl HolistixCorpus {
    /// Generate the full-size corpus (1,420 posts, Table II class balance) from a seed.
    pub fn generate(seed: u64) -> Self {
        CorpusGenerator::new(CorpusCalibration::default()).generate(seed)
    }

    /// Generate a smaller corpus of roughly `n` posts with the same class balance —
    /// used by tests and quick examples.
    pub fn generate_small(n: usize, seed: u64) -> Self {
        CorpusGenerator::new(CorpusCalibration::default().scaled_to(n)).generate(seed)
    }

    /// Number of posts.
    pub fn len(&self) -> usize {
        self.posts.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.posts.is_empty()
    }

    /// Iterate over the annotated posts.
    pub fn iter(&self) -> impl Iterator<Item = &AnnotatedPost> {
        self.posts.iter()
    }

    /// Post texts in order.
    pub fn texts(&self) -> Vec<&str> {
        self.posts.iter().map(|p| p.post.text.as_str()).collect()
    }

    /// Gold labels in order.
    pub fn labels(&self) -> Vec<WellnessDimension> {
        self.posts.iter().map(|p| p.label).collect()
    }

    /// Gold labels as dense class indices in order.
    pub fn label_indices(&self) -> Vec<usize> {
        self.posts.iter().map(|p| p.label.index()).collect()
    }

    /// Number of posts per class, in table order.
    pub fn class_counts(&self) -> [usize; 6] {
        let mut counts = [0usize; 6];
        for p in &self.posts {
            counts[p.label.index()] += 1;
        }
        counts
    }
}

/// Syllables composed into synthetic filler terms by [`synthetic_lexicon`]. None of
/// the combinations collide with English words, stop-words or the Table I indicator
/// keywords, so augmentation grows the vocabulary without disturbing the label signal.
const LEXICON_SYLLABLES: [&str; 40] = [
    "bel", "cor", "dan", "fen", "gol", "hun", "jor", "kel", "lom", "mur", "nel", "pol", "quin",
    "ros", "sel", "tor", "vul", "wex", "yal", "zem", "bri", "cla", "dre", "fal", "gre", "hol",
    "jin", "kra", "lun", "mex", "nor", "pra", "que", "ril", "ska", "tre", "vor", "wul", "xan",
    "yor",
];

/// A deterministic synthetic lexicon of `n_terms` distinct pronounceable word types
/// (two-syllable terms first, then three-syllable), used to scale the corpus
/// vocabulary to paper-scale sizes (10k+ terms) for benchmarking. Panics if
/// `n_terms` exceeds the 65,600 constructible combinations.
pub fn synthetic_lexicon(n_terms: usize) -> Vec<String> {
    let syl = &LEXICON_SYLLABLES;
    let max = syl.len() * syl.len() * (1 + syl.len());
    assert!(n_terms <= max, "synthetic lexicon caps at {max} terms");
    let mut terms = Vec::with_capacity(n_terms);
    'outer: for a in syl {
        for b in syl {
            if terms.len() == n_terms {
                break 'outer;
            }
            terms.push(format!("{a}{b}"));
        }
    }
    'outer3: for a in syl {
        for b in syl {
            for c in syl {
                if terms.len() == n_terms {
                    break 'outer3;
                }
                terms.push(format!("{a}{b}{c}"));
            }
        }
    }
    terms
}

impl HolistixCorpus {
    /// Append a trailing filler sentence of synthetic lexicon terms to every post,
    /// growing the corpus vocabulary to roughly `n_terms` distinct extra word types.
    ///
    /// Each post gains `words_per_post` terms: half drawn round-robin so every term
    /// is guaranteed to appear (and, once the corpus has at least `2 * n_terms`
    /// round-robin slots, to appear in at least two distinct posts — surviving any
    /// document-frequency cut-off of 2), half drawn log-uniformly so term
    /// frequencies fall off Zipf-style like a natural vocabulary. Terms are appended
    /// *after* the existing text, so gold spans and labels are untouched.
    ///
    /// This exists for benchmarking: the built-in Table I lexicon yields only a few
    /// hundred TF-IDF features, far below the 10k+ term vocabularies of real
    /// corpora where sparse inference pays off.
    pub fn augment_vocabulary(&mut self, n_terms: usize, words_per_post: usize, seed: u64) {
        let lexicon = synthetic_lexicon(n_terms);
        if lexicon.is_empty() || words_per_post == 0 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cursor = 0usize;
        let coverage_slots = words_per_post.div_ceil(2);
        for p in &mut self.posts {
            let mut extra: Vec<&str> = Vec::with_capacity(words_per_post);
            for _ in 0..coverage_slots {
                extra.push(&lexicon[cursor % lexicon.len()]);
                cursor += 1;
            }
            for _ in coverage_slots..words_per_post {
                // Log-uniform index: rank r is ~1/(r+1) likely, a Zipf-like tail.
                let idx = (lexicon.len() as f64).powf(rng.gen::<f64>()) as usize - 1;
                extra.push(&lexicon[idx.min(lexicon.len() - 1)]);
            }
            let text = &mut p.post.text;
            text.push(' ');
            text.push_str(&extra.join(" "));
            text.push('.');
        }
    }
}

/// Deterministic corpus generator.
#[derive(Debug, Clone)]
pub struct CorpusGenerator {
    calibration: CorpusCalibration,
    lexicon: IndicatorLexicon,
}

impl CorpusGenerator {
    /// Generator with the given calibration and the built-in Table I lexicon.
    pub fn new(calibration: CorpusCalibration) -> Self {
        Self {
            calibration,
            lexicon: IndicatorLexicon::new(),
        }
    }

    /// The calibration in use.
    pub fn calibration(&self) -> &CorpusCalibration {
        &self.calibration
    }

    /// The lexicon in use.
    pub fn lexicon(&self) -> &IndicatorLexicon {
        &self.lexicon
    }

    /// Generate a corpus. The same `(calibration, seed)` pair always yields the same
    /// corpus, byte for byte.
    pub fn generate(&self, seed: u64) -> HolistixCorpus {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut posts = Vec::with_capacity(self.calibration.n_posts());
        for dim in ALL_DIMENSIONS {
            for _ in 0..self.calibration.class_counts[dim.index()] {
                posts.push(self.generate_post(dim, &mut rng));
            }
        }
        // Shuffle so class blocks are interleaved, then re-assign ids in final order.
        for i in (1..posts.len()).rev() {
            let j = rng.gen_range(0..=i);
            posts.swap(i, j);
        }
        for (id, p) in posts.iter_mut().enumerate() {
            p.post.id = id;
        }
        HolistixCorpus { posts, seed }
    }

    /// Sample a keyword from a dimension lexicon, weight-proportional.
    fn sample_keyword<'a>(&self, lex: &'a DimensionLexicon, rng: &mut StdRng) -> &'a str {
        let total: f64 = lex.keywords.iter().map(|k| k.weight).sum();
        let mut target = rng.gen::<f64>() * total;
        for k in &lex.keywords {
            if target < k.weight {
                return k.word;
            }
            target -= k.weight;
        }
        lex.keywords.last().map(|k| k.word).unwrap_or("feel")
    }

    /// Render one indicator clause for a dimension.
    fn indicator_clause(&self, dim: WellnessDimension, rng: &mut StdRng) -> String {
        let lex = self.lexicon.for_dimension(dim);
        let template = lex.templates[rng.gen_range(0..lex.templates.len())];
        let keyword = self.sample_keyword(lex, rng);
        template.replacen("{}", keyword, 1)
    }

    /// Pick a plausible forum category for a dimension.
    fn category_for(&self, dim: WellnessDimension, rng: &mut StdRng) -> &'static str {
        use WellnessDimension::*;
        let preferred: &[&str] = match dim {
            Physical => &["Anxiety", "Depression"],
            Emotional => &["Depression", "Anxiety", "Grief and Loss"],
            Social => &[
                "Relationship and Family Issues",
                "Supporting Friends and Family",
            ],
            Spiritual => &["Suicidal Thoughts and Self-Harm", "Depression"],
            Vocational => &["Depression", "Anxiety"],
            Intellectual => &["Anxiety", "Depression"],
        };
        if rng.gen::<f64>() < 0.8 {
            preferred[rng.gen_range(0..preferred.len())]
        } else {
            FORUM_CATEGORIES[rng.gen_range(0..FORUM_CATEGORIES.len())]
        }
    }

    /// Generate a single annotated post for a dimension.
    fn generate_post(&self, dim: WellnessDimension, rng: &mut StdRng) -> AnnotatedPost {
        let cal = &self.calibration;
        let mut sentences: Vec<String> = Vec::new();

        // Optional opener.
        if rng.gen::<f64>() < cal.filler_rate * 0.6 {
            sentences.push(OPENERS[rng.gen_range(0..OPENERS.len())].to_string());
        }

        // The gold indicator clause — remember its index so we can compute the span.
        // With probability `distractor_rate` a neutralised mention of *another*
        // dimension's keyword is appended to the same sentence (outside the gold span),
        // so the post's bag of words straddles two classes while the sentence structure
        // still points at the gold dimension.
        let gold_clause = self.indicator_clause(dim, rng);
        let gold_index = sentences.len();
        // The gold span covers only the indicator clause, not the appended distractor.
        let gold_span_len = gold_clause.len();
        let gold_clause = if rng.gen::<f64>() < cal.distractor_rate {
            let mut other = dim;
            while other == dim {
                other = ALL_DIMENSIONS[rng.gen_range(0..6)];
            }
            let frame = DISTRACTOR_FRAMES[rng.gen_range(0..DISTRACTOR_FRAMES.len())];
            let keyword = self.sample_keyword(self.lexicon.for_dimension(other), rng);
            format!("{gold_clause}, but {}", frame.replacen("{}", keyword, 1))
        } else {
            gold_clause
        };
        sentences.push(gold_clause);

        // Cross-dimension noise clause.
        if rng.gen::<f64>() < cal.cross_dimension_rate {
            let mut other = dim;
            while other == dim {
                other = ALL_DIMENSIONS[rng.gen_range(0..6)];
            }
            sentences.push(self.indicator_clause(other, rng));
        }

        // Deliberately ambiguous clause.
        if rng.gen::<f64>() < cal.ambiguous_clause_rate {
            let clauses = self.lexicon.ambiguous_clauses();
            let (clause, _) = &clauses[rng.gen_range(0..clauses.len())];
            sentences.push((*clause).to_string());
        }

        // Optional closer.
        if rng.gen::<f64>() < cal.filler_rate * 0.5 {
            sentences.push(CLOSERS[rng.gen_range(0..CLOSERS.len())].to_string());
        }

        // Occasionally produce a long post by appending extra in-dimension clauses and
        // fillers, up to the max sentence count.
        if rng.gen::<f64>() < cal.long_post_rate {
            let extra = rng.gen_range(2..=cal.max_sentences.saturating_sub(sentences.len()).max(2));
            for _ in 0..extra {
                if sentences.len() >= cal.max_sentences {
                    break;
                }
                if rng.gen::<f64>() < 0.5 {
                    sentences.push(self.indicator_clause(dim, rng));
                } else {
                    sentences.push(OPENERS[rng.gen_range(0..OPENERS.len())].to_string());
                }
            }
        }
        sentences.truncate(cal.max_sentences);

        // Assemble the text and locate the gold span.
        let mut text = String::new();
        let mut span = Span::new(0, 0);
        for (i, s) in sentences.iter().enumerate() {
            if i > 0 {
                text.push(' ');
            }
            let start = text.len();
            text.push_str(s);
            text.push('.');
            if i == gold_index {
                span = Span::new(start, start + gold_span_len);
            }
        }

        AnnotatedPost {
            post: Post {
                id: 0, // assigned after shuffling
                text,
                category: self.category_for(dim, rng).to_string(),
            },
            label: dim,
            span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_calibration_matches_table2_counts() {
        let cal = CorpusCalibration::default();
        assert_eq!(cal.n_posts(), 1420);
        assert_eq!(cal.class_counts[WellnessDimension::Social.index()], 406);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = HolistixCorpus::generate_small(60, 7);
        let b = HolistixCorpus::generate_small(60, 7);
        assert_eq!(a.posts, b.posts);
        let c = HolistixCorpus::generate_small(60, 8);
        assert_ne!(a.posts, c.posts);
    }

    #[test]
    fn class_counts_match_calibration() {
        let corpus = HolistixCorpus::generate_small(120, 3);
        let cal = CorpusCalibration::default().scaled_to(120);
        assert_eq!(corpus.class_counts(), cal.class_counts);
    }

    #[test]
    fn full_corpus_has_1420_posts() {
        let corpus = HolistixCorpus::generate(42);
        assert_eq!(corpus.len(), 1420);
        assert_eq!(corpus.class_counts(), [155, 150, 190, 296, 406, 223]);
    }

    #[test]
    fn spans_point_at_indicator_clauses() {
        let corpus = HolistixCorpus::generate_small(80, 11);
        let lexicon = IndicatorLexicon::new();
        let mut span_hits = 0;
        for p in corpus.iter() {
            assert!(!p.span.is_empty(), "gold span should not be empty");
            let span_text = p.span_text();
            assert!(!span_text.is_empty());
            // The span should lie inside the post text.
            assert!(p.post.text.contains(span_text));
            if lexicon.classify_by_indicators(span_text) == Some(p.label) {
                span_hits += 1;
            }
        }
        // The indicator classifier should recover the label from the gold span for the
        // large majority of posts (it can lose ties on heavily shared words).
        assert!(
            span_hits as f64 / corpus.len() as f64 > 0.7,
            "only {span_hits}/{} spans classified correctly",
            corpus.len()
        );
    }

    #[test]
    fn sentence_and_word_limits_respected() {
        let corpus = HolistixCorpus::generate_small(200, 5);
        for p in corpus.iter() {
            assert!(
                p.post.sentence_count() <= 9,
                "too many sentences: {}",
                p.post.text
            );
            assert!(
                p.post.word_count() <= 130,
                "too many words: {}",
                p.post.text
            );
            assert!(p.post.word_count() >= 5, "too few words: {}", p.post.text);
        }
    }

    #[test]
    fn categories_are_valid_forum_categories() {
        let corpus = HolistixCorpus::generate_small(50, 2);
        for p in corpus.iter() {
            assert!(FORUM_CATEGORIES.contains(&p.post.category.as_str()));
        }
    }

    #[test]
    fn ids_are_dense_after_shuffle() {
        let corpus = HolistixCorpus::generate_small(40, 19);
        let mut ids: Vec<usize> = corpus.iter().map(|p| p.post.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..corpus.len()).collect::<Vec<_>>());
    }

    #[test]
    fn scaled_calibration_keeps_every_class() {
        let cal = CorpusCalibration::default().scaled_to(30);
        assert!(cal.class_counts.iter().all(|&c| c >= 2));
    }

    #[test]
    fn synthetic_lexicon_terms_are_distinct() {
        assert!(synthetic_lexicon(0).is_empty());
        assert_eq!(synthetic_lexicon(1600).len(), 1600);
        let terms = synthetic_lexicon(5000);
        assert_eq!(terms.len(), 5000);
        let mut sorted = terms.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), terms.len(), "lexicon terms must be distinct");
        assert!(terms
            .iter()
            .all(|t| t.chars().all(|c| c.is_ascii_lowercase())));
    }

    #[test]
    fn augmentation_covers_every_term_at_least_twice() {
        let mut corpus = HolistixCorpus::generate_small(60, 5);
        corpus.augment_vocabulary(100, 20, 9);
        // 60 posts × 10 round-robin slots = 600 ≥ 2×100, so every term lands in
        // at least two distinct posts (the cursor revisits a term only after a
        // full cycle through the lexicon, which spans many posts).
        let lexicon = synthetic_lexicon(100);
        for term in &lexicon {
            let posts_with_term = corpus
                .iter()
                .filter(|p| {
                    p.post
                        .text
                        .split_whitespace()
                        .any(|w| w.trim_end_matches('.') == term)
                })
                .count();
            assert!(
                posts_with_term >= 2,
                "term {term} in only {posts_with_term} posts"
            );
        }
    }

    #[test]
    fn augmentation_is_deterministic_and_preserves_spans() {
        let pristine = HolistixCorpus::generate_small(40, 11);
        let mut a = pristine.clone();
        let mut b = pristine.clone();
        a.augment_vocabulary(500, 16, 3);
        b.augment_vocabulary(500, 16, 3);
        assert_eq!(a.posts, b.posts);
        for (augmented, original) in a.iter().zip(pristine.iter()) {
            assert_eq!(augmented.span, original.span);
            assert_eq!(augmented.span_text(), original.span_text());
            assert_eq!(augmented.label, original.label);
            assert!(augmented.post.text.starts_with(&original.post.text));
        }
    }
}
