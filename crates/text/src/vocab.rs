//! Frequency-counted vocabularies.
//!
//! Both feature extraction (TF-IDF column space) and the transformer embedding tables
//! need a stable token → id mapping with document-frequency statistics. The
//! [`VocabularyBuilder`] accumulates counts over a corpus; [`Vocabulary`] freezes them
//! into contiguous ids (sorted by descending frequency, ties broken lexicographically
//! so builds are reproducible across runs and platforms).

use std::collections::HashMap;

/// Reserved id for the unknown token in vocabularies built with `with_unk`.
pub const UNK_TOKEN: &str = "<unk>";
/// Reserved padding token used by the transformer batching code.
pub const PAD_TOKEN: &str = "<pad>";
/// Reserved classification token prepended to transformer inputs.
pub const CLS_TOKEN: &str = "<cls>";
/// Reserved mask token used by the masked-LM pre-initialisation stage.
pub const MASK_TOKEN: &str = "<mask>";
/// Reserved separator/end-of-sequence token.
pub const SEP_TOKEN: &str = "<sep>";

/// Accumulates term and document frequencies before freezing a [`Vocabulary`].
#[derive(Debug, Clone, Default)]
pub struct VocabularyBuilder {
    term_counts: HashMap<String, u64>,
    doc_counts: HashMap<String, u64>,
    n_docs: u64,
}

impl VocabularyBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one document's tokens. Document frequency counts each term once per doc.
    pub fn add_document<S: AsRef<str>>(&mut self, tokens: &[S]) {
        self.n_docs += 1;
        let mut seen: HashMap<&str, ()> = HashMap::new();
        for t in tokens {
            let t = t.as_ref();
            *self.term_counts.entry(t.to_string()).or_insert(0) += 1;
            if seen.insert(t, ()).is_none() {
                *self.doc_counts.entry(t.to_string()).or_insert(0) += 1;
            }
        }
    }

    /// Record pre-aggregated counts for one term: `term_count` total
    /// occurrences and `doc_count` containing documents. This is how the
    /// interned fit path (which counts by dense symbol into plain vectors)
    /// folds its totals into a builder; the result is exactly what
    /// [`add_document`](Self::add_document)-ing the same corpus would have
    /// produced, because both are the same integer sums.
    pub fn record_term(&mut self, term: &str, term_count: u64, doc_count: u64) {
        if term_count == 0 && doc_count == 0 {
            return;
        }
        *self.term_counts.entry(term.to_string()).or_insert(0) += term_count;
        if doc_count > 0 {
            *self.doc_counts.entry(term.to_string()).or_insert(0) += doc_count;
        }
    }

    /// Record `n` documents counted externally (the companion of
    /// [`record_term`](Self::record_term)).
    pub fn record_documents(&mut self, n: u64) {
        self.n_docs += n;
    }

    /// Merge another builder into this one, summing term frequencies, document
    /// frequencies and document counts.
    ///
    /// This is the reduce step of the sharded fit pipeline: independent shards
    /// count disjoint document chunks in parallel, then merge. Because every
    /// count is an exact integer sum and [`build`](Self::build) orders terms by
    /// a total order (frequency descending, then lexicographic), the merged
    /// builder freezes into a [`Vocabulary`] bit-identical to one built by a
    /// single sequential scan — regardless of how the corpus was split or in
    /// which order shards merge.
    pub fn merge(&mut self, other: VocabularyBuilder) {
        self.n_docs += other.n_docs;
        for (term, count) in other.term_counts {
            *self.term_counts.entry(term).or_insert(0) += count;
        }
        for (term, count) in other.doc_counts {
            *self.doc_counts.entry(term).or_insert(0) += count;
        }
    }

    /// Number of documents added so far.
    pub fn n_documents(&self) -> u64 {
        self.n_docs
    }

    /// Number of distinct terms seen so far.
    pub fn n_terms(&self) -> usize {
        self.term_counts.len()
    }

    /// Freeze into a [`Vocabulary`], keeping terms with at least `min_count` total
    /// occurrences and at most `max_size` terms (most frequent first; `None` = no cap).
    pub fn build(&self, min_count: u64, max_size: Option<usize>) -> Vocabulary {
        self.build_filtered(|_, term_count, _| term_count >= min_count, max_size)
    }

    /// Freeze into a [`Vocabulary`], keeping terms that occur in at least
    /// `min_document_frequency` documents (the `min_df` semantics of scikit-learn
    /// vectorisers, which filter on document frequency, not total occurrences) and
    /// at most `max_size` terms.
    pub fn build_with_min_df(
        &self,
        min_document_frequency: usize,
        max_size: Option<usize>,
    ) -> Vocabulary {
        self.build_filtered(
            |_, _, doc_count| doc_count as usize >= min_document_frequency,
            max_size,
        )
    }

    fn build_filtered<F>(&self, keep: F, max_size: Option<usize>) -> Vocabulary
    where
        F: Fn(&str, u64, u64) -> bool,
    {
        let mut entries: Vec<(&String, u64)> = self
            .term_counts
            .iter()
            .filter(|(t, &c)| keep(t, c, *self.doc_counts.get(*t).unwrap_or(&0)))
            .map(|(t, &c)| (t, c))
            .collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        if let Some(cap) = max_size {
            entries.truncate(cap);
        }
        let mut terms = Vec::with_capacity(entries.len());
        let mut ids = HashMap::with_capacity(entries.len());
        let mut term_freqs = Vec::with_capacity(entries.len());
        let mut doc_freqs = Vec::with_capacity(entries.len());
        for (term, count) in entries {
            ids.insert(term.clone(), terms.len());
            term_freqs.push(count);
            doc_freqs.push(*self.doc_counts.get(term).unwrap_or(&0));
            terms.push(term.clone());
        }
        Vocabulary {
            terms,
            ids,
            term_freqs,
            doc_freqs,
            n_docs: self.n_docs,
            special: Vec::new(),
        }
    }

    /// Like [`build`](Self::build) but prepends the reserved special tokens
    /// (`<pad>`, `<unk>`, `<cls>`, `<sep>`, `<mask>`) at ids 0..5, as the transformer
    /// stack expects.
    pub fn build_with_specials(&self, min_count: u64, max_size: Option<usize>) -> Vocabulary {
        let base = self.build(min_count, max_size);
        let specials = [PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN, MASK_TOKEN];
        let mut terms: Vec<String> = specials.iter().map(|s| s.to_string()).collect();
        let mut term_freqs = vec![0; specials.len()];
        let mut doc_freqs = vec![0; specials.len()];
        for (i, t) in base.terms.iter().enumerate() {
            if specials.contains(&t.as_str()) {
                continue;
            }
            terms.push(t.clone());
            term_freqs.push(base.term_freqs[i]);
            doc_freqs.push(base.doc_freqs[i]);
        }
        let ids = terms
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i))
            .collect();
        Vocabulary {
            terms,
            ids,
            term_freqs,
            doc_freqs,
            n_docs: self.n_docs,
            special: specials.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// A frozen token → id mapping with term/document frequencies.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    terms: Vec<String>,
    ids: HashMap<String, usize>,
    term_freqs: Vec<u64>,
    doc_freqs: Vec<u64>,
    n_docs: u64,
    special: Vec<String>,
}

impl Vocabulary {
    /// Build directly from an iterator of terms (each distinct term gets frequency of
    /// its number of occurrences; document frequency is not tracked). Mostly for tests.
    pub fn from_terms<I, S>(terms: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut b = VocabularyBuilder::new();
        let collected: Vec<String> = terms.into_iter().map(|s| s.as_ref().to_string()).collect();
        b.add_document(&collected);
        b.build(1, None)
    }

    /// Number of terms (including specials if present).
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Id of `term`, if present.
    pub fn id(&self, term: &str) -> Option<usize> {
        self.ids.get(term).copied()
    }

    /// Id of `term`, falling back to the `<unk>` id when absent.
    ///
    /// Panics if the vocabulary was not built with specials and the term is missing.
    pub fn id_or_unk(&self, term: &str) -> usize {
        self.id(term)
            .or_else(|| self.id(UNK_TOKEN))
            .expect("term missing and vocabulary has no <unk> token")
    }

    /// Term for `id`, if in range.
    pub fn term(&self, id: usize) -> Option<&str> {
        self.terms.get(id).map(|s| s.as_str())
    }

    /// Total occurrences of `term` in the corpus the vocabulary was built from.
    pub fn term_frequency(&self, term: &str) -> u64 {
        self.id(term).map(|i| self.term_freqs[i]).unwrap_or(0)
    }

    /// Number of documents containing `term`.
    pub fn document_frequency(&self, term: &str) -> u64 {
        self.id(term).map(|i| self.doc_freqs[i]).unwrap_or(0)
    }

    /// Number of documents the vocabulary was built from.
    pub fn n_documents(&self) -> u64 {
        self.n_docs
    }

    /// Iterate over `(term, id)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, usize)> {
        self.terms.iter().enumerate().map(|(i, t)| (t.as_str(), i))
    }

    /// All terms in id order.
    pub fn terms(&self) -> &[String] {
        &self.terms
    }

    /// Smoothed inverse document frequency of `term`:
    /// `ln((1 + N) / (1 + df)) + 1`, the same smoothing scikit-learn uses, so that the
    /// TF-IDF baseline matches the paper's experimental setup.
    pub fn idf(&self, term: &str) -> f64 {
        let df = self.document_frequency(term) as f64;
        let n = self.n_docs as f64;
        ((1.0 + n) / (1.0 + df)).ln() + 1.0
    }

    /// Whether `term` is one of the reserved special tokens.
    pub fn is_special(&self, term: &str) -> bool {
        self.special.iter().any(|s| s == term)
    }

    /// The top `k` most frequent terms (id order is frequency order for non-special
    /// vocabularies).
    pub fn top_k(&self, k: usize) -> Vec<(&str, u64)> {
        let mut entries: Vec<(&str, u64)> = self
            .terms
            .iter()
            .enumerate()
            .filter(|(_, t)| !self.is_special(t))
            .map(|(i, t)| (t.as_str(), self.term_freqs[i]))
            .collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        entries.truncate(k);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_builder() -> VocabularyBuilder {
        let mut b = VocabularyBuilder::new();
        b.add_document(&["i", "feel", "alone", "feel"]);
        b.add_document(&["work", "drains", "me"]);
        b.add_document(&["i", "feel", "exhausted"]);
        b
    }

    #[test]
    fn ids_are_frequency_ordered() {
        let v = sample_builder().build(1, None);
        // "feel" occurs 3 times -> id 0; "i" occurs twice -> id 1
        assert_eq!(v.id("feel"), Some(0));
        assert_eq!(v.id("i"), Some(1));
        assert_eq!(v.term(0), Some("feel"));
    }

    #[test]
    fn min_count_filters_rare_terms() {
        let v = sample_builder().build(2, None);
        assert!(v.id("feel").is_some());
        assert!(v.id("exhausted").is_none());
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn min_df_filters_on_document_frequency() {
        // "feel" occurs 3 times but in only 2 documents; "i" occurs 2 times in
        // 2 documents. A doc-frequency threshold of 2 keeps both and drops every
        // single-document term, unlike the total-occurrence filter of `build`.
        let v = sample_builder().build_with_min_df(2, None);
        assert!(v.id("feel").is_some());
        assert!(v.id("i").is_some());
        assert!(v.id("work").is_none());
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn max_size_caps_vocabulary() {
        let v = sample_builder().build(1, Some(3));
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn document_frequency_counts_once_per_doc() {
        let v = sample_builder().build(1, None);
        assert_eq!(v.term_frequency("feel"), 3);
        assert_eq!(v.document_frequency("feel"), 2);
        assert_eq!(v.n_documents(), 3);
    }

    #[test]
    fn idf_is_monotone_in_rarity() {
        let v = sample_builder().build(1, None);
        assert!(v.idf("exhausted") > v.idf("feel"));
        assert!(v.idf("feel") >= 1.0);
    }

    #[test]
    fn unknown_term_behaviour() {
        let v = sample_builder().build(1, None);
        assert_eq!(v.id("zzz"), None);
        assert_eq!(v.term_frequency("zzz"), 0);
        // idf of an unseen term equals the max possible idf
        assert!(v.idf("zzz") >= v.idf("exhausted"));
    }

    #[test]
    fn specials_occupy_low_ids() {
        let v = sample_builder().build_with_specials(1, None);
        assert_eq!(v.id(PAD_TOKEN), Some(0));
        assert_eq!(v.id(UNK_TOKEN), Some(1));
        assert_eq!(v.id(CLS_TOKEN), Some(2));
        assert!(v.is_special(MASK_TOKEN));
        assert_eq!(v.id_or_unk("not-in-vocab"), 1);
    }

    #[test]
    fn top_k_excludes_specials() {
        let v = sample_builder().build_with_specials(1, None);
        let top = v.top_k(2);
        assert_eq!(top[0].0, "feel");
        assert!(top.iter().all(|(t, _)| !t.starts_with('<')));
    }

    #[test]
    fn merge_equals_sequential_counting() {
        // Shard the sample corpus two ways; both merges must equal the
        // sequential build exactly.
        let sequential = sample_builder();

        let mut left = VocabularyBuilder::new();
        left.add_document(&["i", "feel", "alone", "feel"]);
        let mut right = VocabularyBuilder::new();
        right.add_document(&["work", "drains", "me"]);
        right.add_document(&["i", "feel", "exhausted"]);
        left.merge(right);

        assert_eq!(left.n_documents(), sequential.n_documents());
        assert_eq!(left.n_terms(), sequential.n_terms());
        let merged = left.build(1, None);
        let expected = sequential.build(1, None);
        assert_eq!(merged.terms(), expected.terms());
        for term in expected.terms() {
            assert_eq!(merged.term_frequency(term), expected.term_frequency(term));
            assert_eq!(
                merged.document_frequency(term),
                expected.document_frequency(term)
            );
        }
    }

    #[test]
    fn merge_with_empty_builder_is_identity() {
        let mut b = sample_builder();
        b.merge(VocabularyBuilder::new());
        let v = b.build(1, None);
        let expected = sample_builder().build(1, None);
        assert_eq!(v.terms(), expected.terms());
        assert_eq!(v.n_documents(), expected.n_documents());

        let mut empty = VocabularyBuilder::new();
        empty.merge(sample_builder());
        assert_eq!(empty.build(1, None).terms(), expected.terms());
    }

    #[test]
    fn from_terms_convenience() {
        let v = Vocabulary::from_terms(["a", "b", "a"]);
        assert_eq!(v.len(), 2);
        assert_eq!(v.term_frequency("a"), 2);
    }
}
