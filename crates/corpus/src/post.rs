//! Data model: wellness dimensions, posts, explanation spans.

use std::fmt;
use std::str::FromStr;

/// The six wellness dimensions of the Dunn/Hettler model, in the order the paper's
/// tables use (IA, VA, SpiA, PA, SA, EA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WellnessDimension {
    /// Intellectual Aspect — academic stress, intellectual inadequacy, learning frustration.
    Intellectual,
    /// Vocational Aspect — workplace dissatisfaction, career struggles, work-related finances.
    Vocational,
    /// Spiritual Aspect — hopelessness, existential crises, loss of purpose.
    Spiritual,
    /// Physical Aspect — fatigue, sleep issues, body image, illness, medication.
    Physical,
    /// Social Aspect — loneliness, strained relationships, isolation, lack of belonging.
    Social,
    /// Emotional Aspect — emotional instability, exhaustion, inability to cope, sadness.
    Emotional,
}

/// All six dimensions in table order.
pub const ALL_DIMENSIONS: [WellnessDimension; 6] = [
    WellnessDimension::Intellectual,
    WellnessDimension::Vocational,
    WellnessDimension::Spiritual,
    WellnessDimension::Physical,
    WellnessDimension::Social,
    WellnessDimension::Emotional,
];

impl WellnessDimension {
    /// The short code used in the paper's tables (IA, VA, SpiA, PA, SA, EA).
    pub fn code(&self) -> &'static str {
        match self {
            Self::Intellectual => "IA",
            Self::Vocational => "VA",
            Self::Spiritual => "SpiA",
            Self::Physical => "PA",
            Self::Social => "SA",
            Self::Emotional => "EA",
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Intellectual => "Intellectual Aspect",
            Self::Vocational => "Vocational Aspect",
            Self::Spiritual => "Spiritual Aspect",
            Self::Physical => "Physical Aspect",
            Self::Social => "Social Aspect",
            Self::Emotional => "Emotional Aspect",
        }
    }

    /// Dense class index 0..6 in table order (IA=0, VA=1, SpiA=2, PA=3, SA=4, EA=5).
    pub fn index(&self) -> usize {
        match self {
            Self::Intellectual => 0,
            Self::Vocational => 1,
            Self::Spiritual => 2,
            Self::Physical => 3,
            Self::Social => 4,
            Self::Emotional => 5,
        }
    }

    /// Dimension for a dense class index. Panics if `index >= 6`.
    pub fn from_index(index: usize) -> Self {
        ALL_DIMENSIONS[index]
    }

    /// Number of posts of this dimension in the published dataset (Table II).
    pub fn paper_count(&self) -> usize {
        match self {
            Self::Intellectual => 155,
            Self::Vocational => 150,
            Self::Spiritual => 190,
            Self::Physical => 296,
            Self::Social => 406,
            Self::Emotional => 223,
        }
    }

    /// Class prior implied by the Table II counts.
    pub fn paper_prior(&self) -> f64 {
        self.paper_count() as f64 / 1420.0
    }
}

impl fmt::Display for WellnessDimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

impl FromStr for WellnessDimension {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "ia" | "intellectual" | "intellectual aspect" => Ok(Self::Intellectual),
            "va" | "vocational" | "vocational aspect" => Ok(Self::Vocational),
            "spia" | "spiritual" | "spiritual aspect" => Ok(Self::Spiritual),
            "pa" | "physical" | "physical aspect" => Ok(Self::Physical),
            "sa" | "social" | "social aspect" => Ok(Self::Social),
            "ea" | "emotional" | "emotional aspect" => Ok(Self::Emotional),
            other => Err(format!("unknown wellness dimension: {other:?}")),
        }
    }
}

/// A byte-offset span inside a post's text, used for explanation annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first byte of the span.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Span {
    /// Create a span; panics if `end < start`.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(end >= start, "Span end {end} before start {start}");
        Self { start, end }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the span is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The text covered by the span (clamped to the string's length).
    pub fn slice<'a>(&self, text: &'a str) -> &'a str {
        let end = self.end.min(text.len());
        let start = self.start.min(end);
        // Guard against slicing inside a UTF-8 code point.
        let start = (start..=end)
            .find(|&i| text.is_char_boundary(i))
            .unwrap_or(end);
        let end = (start..=end)
            .rev()
            .find(|&i| text.is_char_boundary(i))
            .unwrap_or(start);
        &text[start..end]
    }

    /// Whether two spans overlap by at least one byte.
    pub fn overlaps(&self, other: &Span) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// A raw (pre-annotation) forum post.
#[derive(Debug, Clone, PartialEq)]
pub struct Post {
    /// Stable identifier within the corpus.
    pub id: usize,
    /// The full post text.
    pub text: String,
    /// Source forum category (Anxiety, Depression, PTSD and Trauma, …), mirroring the
    /// Beyond Blue discussion categories the paper scraped.
    pub category: String,
}

impl Post {
    /// Word count using the shared tokeniser (word tokens only).
    pub fn word_count(&self) -> usize {
        holistix_text::tokenize(&self.text)
            .iter()
            .filter(|t| t.kind == holistix_text::TokenKind::Word)
            .count()
    }

    /// Sentence count using the shared sentence splitter.
    pub fn sentence_count(&self) -> usize {
        holistix_text::sentences(&self.text).len()
    }
}

/// A post together with its gold annotation: the wellness dimension and the
/// explanatory text span that justifies it.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotatedPost {
    /// The underlying post.
    pub post: Post,
    /// Gold wellness dimension label.
    pub label: WellnessDimension,
    /// Explanatory span (byte offsets into `post.text`).
    pub span: Span,
}

impl AnnotatedPost {
    /// The explanation text the span points at.
    pub fn span_text(&self) -> &str {
        self.span.slice(&self.post.text)
    }

    /// Lower-cased content words of the explanation span (stop-words removed) — the
    /// unit of analysis for Table III and for the LIME overlap metrics of Table V.
    pub fn span_keywords(&self) -> Vec<String> {
        holistix_text::content_words(self.span_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for d in ALL_DIMENSIONS {
            let parsed: WellnessDimension = d.code().parse().unwrap();
            assert_eq!(parsed, d);
            let by_name: WellnessDimension = d.name().parse().unwrap();
            assert_eq!(by_name, d);
        }
        assert!("XX".parse::<WellnessDimension>().is_err());
    }

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, d) in ALL_DIMENSIONS.iter().enumerate() {
            assert_eq!(d.index(), i);
            assert_eq!(WellnessDimension::from_index(i), *d);
        }
    }

    #[test]
    fn paper_counts_sum_to_corpus_size() {
        let total: usize = ALL_DIMENSIONS.iter().map(|d| d.paper_count()).sum();
        assert_eq!(total, 1420);
        let prior_sum: f64 = ALL_DIMENSIONS.iter().map(|d| d.paper_prior()).sum();
        assert!((prior_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn social_is_largest_class() {
        let max = ALL_DIMENSIONS
            .iter()
            .max_by_key(|d| d.paper_count())
            .unwrap();
        assert_eq!(*max, WellnessDimension::Social);
    }

    #[test]
    fn span_slicing() {
        let text = "I feel exhausted all the time";
        let span = Span::new(7, 16);
        assert_eq!(span.slice(text), "exhausted");
        assert_eq!(span.len(), 9);
        assert!(!span.is_empty());
        assert!(Span::new(3, 3).is_empty());
    }

    #[test]
    fn span_slice_clamps_out_of_range() {
        let text = "short";
        assert_eq!(Span::new(2, 100).slice(text), "ort");
        assert_eq!(Span::new(50, 100).slice(text), "");
    }

    #[test]
    fn span_overlap() {
        let a = Span::new(0, 5);
        let b = Span::new(4, 8);
        let c = Span::new(5, 9);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn post_counts_words_and_sentences() {
        let p = Post {
            id: 0,
            text: "I hate my job. I feel alone.".to_string(),
            category: "Depression".to_string(),
        };
        assert_eq!(p.word_count(), 7);
        assert_eq!(p.sentence_count(), 2);
    }

    #[test]
    fn annotated_post_keywords() {
        let post = Post {
            id: 1,
            text: "Lately I feel exhausted and I can't sleep at night.".to_string(),
            category: "Anxiety".to_string(),
        };
        let ap = AnnotatedPost {
            span: Span::new(9, 51),
            post,
            label: WellnessDimension::Physical,
        };
        let kws = ap.span_keywords();
        assert!(kws.contains(&"exhausted".to_string()));
        assert!(kws.contains(&"sleep".to_string()));
    }
}
