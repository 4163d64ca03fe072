//! Text feature extraction: raw-count and TF-IDF vectorisers.
//!
//! The paper "converts text data into numerical representation using Term
//! Frequency-Inverse Document Frequency (TF-IDF) and uses frequency-based features
//! with classifiers from the Scikit-Learn library". Both vectorisers here follow the
//! scikit-learn semantics so the baselines are comparable: smoothed IDF
//! (`ln((1+N)/(1+df)) + 1`), optional sublinear TF, and L2 row normalisation for
//! TF-IDF.
//!
//! ## The sharded map-reduce fit
//!
//! Fitting is a map-reduce over document shards, and there is exactly one fit
//! code path: [`CountVectorizer::fit_parallel`] chunks the corpus into
//! `n_threads` contiguous shards, runs the analyzer and an independent
//! [`VocabularyBuilder`] per shard on scoped threads (the map), tree-reduces
//! the builders in shard order (pairwise merge rounds via
//! [`tree_reduce`](crate::parallel::tree_reduce), integer-exact, `O(log)`
//! sequential rounds), and freezes the
//! vocabulary once. The sequential [`fit`](CountVectorizer::fit) is simply
//! `n_threads = 1`. [`TfidfVectorizer::fit_parallel`] layers a single IDF
//! computation on top, and
//! [`fit_transform_sparse_parallel`](TfidfVectorizer::fit_transform_sparse_parallel)
//! retains each shard's token streams so fit + transform costs **one**
//! tokenisation pass: every shard re-emits its documents as a [`CsrBuilder`]
//! block and the blocks are stacked back in document order.
//!
//! Shard count never changes results: vocabulary order, IDF vectors and
//! transformed matrices are bit-identical for every `n_threads` (a property
//! test in `crates/ml/tests/property.rs` pins this), because frequency merges
//! are integer sums, term ordering is a total order, and every transformed row
//! depends only on its own document.
//!
//! ## The interned fit path
//!
//! Inside a shard the analyzer does not build `Vec<String>` per document.
//! Each shard owns a per-fit [`Interner`]: tokens are cut as byte spans
//! ([`token_spans`]), lowercased through a borrow when the slice is already
//! ASCII-lowercase, and mapped to dense `u32` symbols, so the fit allocates
//! one `String` per *distinct* term instead of one per token occurrence.
//! Stems are memoised per distinct word symbol and term/document frequencies
//! accumulate in plain `Vec<u64>` slots indexed by symbol ([`SymCounts`]),
//! folding into a [`VocabularyBuilder`] only once per shard. The counts are
//! the same integers the string path produced, so vocabularies, IDF vectors
//! and matrices stay bit-identical (pinned by a property test against a
//! reference analyzer built from the public text API). The string-based
//! [`analyze`] remains the transform/inference path, where documents arrive
//! one at a time and an arena would never amortise.

use crate::parallel::{scoped_map, tree_reduce};
use holistix_linalg::{CsrBuilder, CsrMatrix, Matrix};
use holistix_text::{
    ngrams, stem, token_spans, Interner, StopwordFilter, Sym, TokenKind, Vocabulary,
    VocabularyBuilder,
};
use std::collections::HashMap;

/// Analyzer and vocabulary options shared by both vectorisers.
#[derive(Debug, Clone)]
pub struct VectorizerOptions {
    /// Lower-case and keep word tokens only (numbers and punctuation dropped).
    pub lowercase: bool,
    /// Remove English stop-words.
    pub remove_stopwords: bool,
    /// Apply the Porter-style stemmer to each token.
    pub stem: bool,
    /// Include word n-grams up to this order (1 = unigrams only).
    pub ngram_max: usize,
    /// Drop terms occurring in fewer than this many documents. `usize` because it
    /// is compared against document counts.
    pub min_document_frequency: usize,
    /// Cap the vocabulary at the most frequent `max_features` terms (`None` = no cap).
    pub max_features: Option<usize>,
    /// Use `1 + ln(tf)` instead of raw term frequency (TF-IDF only).
    pub sublinear_tf: bool,
    /// L2-normalise each document vector (TF-IDF only).
    pub l2_normalize: bool,
}

impl Default for VectorizerOptions {
    fn default() -> Self {
        Self {
            lowercase: true,
            remove_stopwords: true,
            stem: false,
            ngram_max: 1,
            min_document_frequency: 1,
            max_features: None,
            sublinear_tf: false,
            l2_normalize: true,
        }
    }
}

impl VectorizerOptions {
    /// The configuration used for the paper's baselines: unigram TF-IDF with stop-word
    /// removal and L2 normalisation.
    pub fn paper_default() -> Self {
        Self::default()
    }
}

/// Shared analyzer: text → list of (possibly n-gram) terms. The stop-word filter
/// is taken by reference so corpus-level callers build its hash set once, not
/// once per document — formerly the hottest allocation in the transform path.
fn analyze(text: &str, options: &VectorizerOptions, stopwords: &StopwordFilter) -> Vec<String> {
    let mut words: Vec<String> = holistix_text::tokenize(text)
        .into_iter()
        .filter(|t| t.kind == holistix_text::TokenKind::Word)
        .map(|t| if options.lowercase { t.lower() } else { t.text })
        .filter(|w| !options.remove_stopwords || !stopwords.is_stopword(w))
        .collect();
    if options.stem {
        words = words.iter().map(|w| stem(w)).collect();
    }
    if options.ngram_max <= 1 {
        return words;
    }
    let mut terms = words.clone();
    for n in 2..=options.ngram_max {
        terms.extend(ngrams(&words, n).into_iter().map(|g| g.joined()));
    }
    terms
}

/// The interned analyzer: the symbol-producing twin of [`analyze`], scoped to
/// one fit shard. Holds the term arena, the per-distinct-word stem memo, and
/// reusable scratch buffers; emits the exact term sequence [`analyze`] would,
/// as dense [`Sym`]s.
struct InternedAnalyzer<'a> {
    options: &'a VectorizerOptions,
    stopwords: &'static StopwordFilter,
    interner: Interner,
    /// word symbol → stemmed symbol, so each distinct word is stemmed once.
    stem_memo: HashMap<Sym, Sym>,
    /// Unigram scratch, reused across documents.
    words: Vec<Sym>,
    /// N-gram join scratch, reused across n-grams.
    gram: String,
}

impl<'a> InternedAnalyzer<'a> {
    fn new(options: &'a VectorizerOptions) -> Self {
        Self {
            options,
            stopwords: StopwordFilter::english_shared(),
            interner: Interner::new(),
            stem_memo: HashMap::new(),
            words: Vec::new(),
            gram: String::new(),
        }
    }

    /// Append the analyzed term symbols for `text` to `out` — the same terms,
    /// in the same order, as `analyze(text, options, stopwords)`.
    fn analyze_into(&mut self, text: &str, out: &mut Vec<Sym>) {
        self.words.clear();
        for (start, end, kind) in token_spans(text) {
            if kind != TokenKind::Word {
                continue;
            }
            let raw = &text[start..end];
            let lowered;
            let token: &str = if self.options.lowercase
                && !raw.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase())
            {
                // Slow path: uppercase or non-ASCII — go through the same
                // `str::to_lowercase` the string analyzer uses (it is context
                // sensitive, e.g. Greek final sigma, so no per-char shortcut).
                lowered = raw.to_lowercase();
                &lowered
            } else {
                raw
            };
            if self.options.remove_stopwords && self.stopwords.is_stopword(token) {
                continue;
            }
            self.words.push(self.interner.intern(token));
        }
        if self.options.stem {
            for sym in &mut self.words {
                *sym = match self.stem_memo.get(sym) {
                    Some(&stemmed) => stemmed,
                    None => {
                        let stemmed_term = stem(self.interner.resolve(*sym));
                        let stemmed = self.interner.intern(&stemmed_term);
                        self.stem_memo.insert(*sym, stemmed);
                        stemmed
                    }
                };
            }
        }
        out.extend_from_slice(&self.words);
        for n in 2..=self.options.ngram_max {
            if self.words.len() < n {
                break;
            }
            for window in self.words.windows(n) {
                self.gram.clear();
                for (i, &sym) in window.iter().enumerate() {
                    if i > 0 {
                        self.gram.push(' ');
                    }
                    self.gram.push_str(self.interner.resolve(sym));
                }
                out.push(self.interner.intern(&self.gram));
            }
        }
    }
}

/// Dense per-symbol frequency accumulators for one shard: `Vec` slots indexed
/// by [`Sym`] instead of `HashMap<String, u64>` probes. Document frequency
/// dedup uses a per-document stamp, so no per-document set is allocated.
#[derive(Default)]
struct SymCounts {
    term: Vec<u64>,
    doc: Vec<u64>,
    /// Stamp of the last document each symbol was seen in.
    seen_in: Vec<u32>,
    stamp: u32,
    n_docs: u64,
}

impl SymCounts {
    fn add_document(&mut self, terms: &[Sym], n_syms: usize) {
        self.n_docs += 1;
        self.stamp += 1;
        if self.term.len() < n_syms {
            self.term.resize(n_syms, 0);
            self.doc.resize(n_syms, 0);
            self.seen_in.resize(n_syms, 0);
        }
        for &sym in terms {
            let i = sym as usize;
            self.term[i] += 1;
            if self.seen_in[i] != self.stamp {
                self.seen_in[i] = self.stamp;
                self.doc[i] += 1;
            }
        }
    }

    /// Fold the totals into a [`VocabularyBuilder`] — exactly what
    /// `add_document`-ing every document's string terms would have produced.
    /// Symbols that never occurred as terms (stem-memo keys interned only as
    /// lookups) have zero counts and are skipped.
    fn into_builder(self, interner: &Interner) -> VocabularyBuilder {
        let mut builder = VocabularyBuilder::new();
        builder.record_documents(self.n_docs);
        for (i, (&term_count, &doc_count)) in self.term.iter().zip(&self.doc).enumerate() {
            if term_count > 0 {
                builder.record_term(interner.resolve(i as Sym), term_count, doc_count);
            }
        }
        builder
    }
}

/// One shard's map output: vocabulary counts, plus (when requested) the
/// per-document interned token streams and their arena so a following
/// transform never tokenises again.
struct ShardFit {
    builder: VocabularyBuilder,
    interner: Interner,
    tokens: Vec<Vec<Sym>>,
}

/// A shard's retained token streams paired with the arena they intern into.
type ShardTokens = (Interner, Vec<Vec<Sym>>);

/// Analyze one contiguous document shard into a [`ShardFit`] through the
/// interned path (see the module docs).
fn analyze_shard<S: AsRef<str>>(
    documents: &[S],
    options: &VectorizerOptions,
    keep_tokens: bool,
) -> ShardFit {
    let mut analyzer = InternedAnalyzer::new(options);
    let mut counts = SymCounts::default();
    let mut tokens = Vec::with_capacity(if keep_tokens { documents.len() } else { 0 });
    let mut scratch: Vec<Sym> = Vec::new();
    for doc in documents {
        scratch.clear();
        analyzer.analyze_into(doc.as_ref(), &mut scratch);
        counts.add_document(&scratch, analyzer.interner.len());
        if keep_tokens {
            tokens.push(scratch.clone());
        }
    }
    ShardFit {
        builder: counts.into_builder(&analyzer.interner),
        interner: analyzer.interner,
        tokens,
    }
}

/// The map-reduce fit shared by both vectorisers: chunk `documents` into at
/// most `n_threads` contiguous shards, analyze + count each shard (on scoped
/// threads when more than one), and tree-reduce the builders in shard order
/// ([`tree_reduce`]: pairwise merge rounds, each round's merges in parallel,
/// so the reduce is `O(log shards)` sequential rounds instead of a
/// single-threaded fold — the step that dominated at ≥16 shards).
///
/// Returns the merged builder and the per-shard interned token streams with
/// their arenas (empty streams unless `keep_tokens`). One shard — the
/// sequential fit — runs inline on the calling thread; results are
/// bit-identical for every shard count because frequency merging is an
/// associative integer sum (so fold and tree agree exactly) and vocabulary
/// freezing orders terms totally.
fn fit_shards<S: AsRef<str> + Sync>(
    documents: &[S],
    options: &VectorizerOptions,
    n_threads: usize,
    keep_tokens: bool,
) -> (VocabularyBuilder, Vec<ShardTokens>) {
    let n_shards = n_threads.clamp(1, documents.len().max(1));
    let shards: Vec<ShardFit> = if n_shards <= 1 {
        vec![analyze_shard(documents, options, keep_tokens)]
    } else {
        let chunk_size = documents.len().div_ceil(n_shards);
        let chunks: Vec<&[S]> = documents.chunks(chunk_size).collect();
        scoped_map(&chunks, |chunk| analyze_shard(chunk, options, keep_tokens))
    };
    let mut builders = Vec::with_capacity(shards.len());
    let mut token_shards = Vec::with_capacity(shards.len());
    for shard in shards {
        builders.push(shard.builder);
        token_shards.push((shard.interner, shard.tokens));
    }
    let merged = tree_reduce(builders, |mut left, right| {
        left.merge(right);
        left
    })
    .unwrap_or_default();
    (merged, token_shards)
}

/// Count one shard's retained interned token streams into a CSR block. The
/// shard's symbols map to vocabulary columns through one dense lookup table
/// (symbol → `Option<column>`), built with a single hash probe per *distinct*
/// shard term. Entries are pushed in token order with weight `1.0`, exactly
/// as [`CountVectorizer::transform_sparse`] does, so the block is
/// bit-identical to the corresponding rows of a standalone transform.
fn count_block(vocabulary: &Vocabulary, interner: &Interner, documents: &[Vec<Sym>]) -> CsrMatrix {
    let columns: Vec<Option<usize>> = interner
        .terms()
        .iter()
        .map(|term| vocabulary.id(term))
        .collect();
    let mut builder = CsrBuilder::new(vocabulary.len());
    let mut entries: Vec<(usize, f64)> = Vec::new();
    for tokens in documents {
        entries.clear();
        for &sym in tokens {
            if let Some(col) = columns[sym as usize] {
                entries.push((col, 1.0));
            }
        }
        builder.push_row(&mut entries);
    }
    builder.finish()
}

/// Raw term-count vectoriser (`CountVectorizer` analogue).
#[derive(Debug, Clone)]
pub struct CountVectorizer {
    options: VectorizerOptions,
    vocabulary: Vocabulary,
}

impl CountVectorizer {
    /// Fit a vectoriser on a document collection (the single-shard case of
    /// [`fit_parallel`](Self::fit_parallel) — there is one fit code path).
    pub fn fit<S: AsRef<str> + Sync>(documents: &[S], options: VectorizerOptions) -> Self {
        Self::fit_parallel(documents, options, 1)
    }

    /// Fit with vocabulary counting sharded across `n_threads` scoped threads.
    /// The result is bit-identical to the sequential fit for every shard
    /// count; `n_threads = 1` (or a single-document corpus) runs inline.
    pub fn fit_parallel<S: AsRef<str> + Sync>(
        documents: &[S],
        options: VectorizerOptions,
        n_threads: usize,
    ) -> Self {
        let (builder, _) = fit_shards(documents, &options, n_threads, false);
        let vocabulary =
            builder.build_with_min_df(options.min_document_frequency.max(1), options.max_features);
        Self {
            options,
            vocabulary,
        }
    }

    /// Fit and sparse-transform in one tokenisation pass: each shard retains
    /// its token streams while counting, then re-emits them as a CSR block
    /// once the merged vocabulary exists; blocks are stacked back in document
    /// order. Equivalent to `(Self::fit_parallel(..), fitted.transform_sparse(..))`
    /// bit for bit, at half the analyzer cost.
    pub fn fit_transform_sparse_parallel<S: AsRef<str> + Sync>(
        documents: &[S],
        options: VectorizerOptions,
        n_threads: usize,
    ) -> (Self, CsrMatrix) {
        let (builder, token_shards) = fit_shards(documents, &options, n_threads, true);
        let vocabulary =
            builder.build_with_min_df(options.min_document_frequency.max(1), options.max_features);
        let mut blocks: Vec<CsrMatrix> = if token_shards.len() <= 1 {
            token_shards
                .iter()
                .map(|(interner, tokens)| count_block(&vocabulary, interner, tokens))
                .collect()
        } else {
            scoped_map(&token_shards, |(interner, tokens)| {
                count_block(&vocabulary, interner, tokens)
            })
        };
        // A lone block IS the matrix — vstack would copy the whole corpus's
        // CSR arrays for nothing on the (default) sequential path.
        let matrix = if blocks.len() == 1 {
            blocks.pop().expect("one block")
        } else {
            CsrMatrix::vstack(&blocks)
        };
        (
            Self {
                options,
                vocabulary,
            },
            matrix,
        )
    }

    /// The fitted vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// Number of features (vocabulary size).
    pub fn n_features(&self) -> usize {
        self.vocabulary.len()
    }

    /// The analyzer output for one document (useful for explanations).
    pub fn analyze_document(&self, text: &str) -> Vec<String> {
        analyze(text, &self.options, StopwordFilter::english_shared())
    }

    /// Transform documents into a dense `documents × features` count matrix.
    /// Out-of-vocabulary terms are ignored.
    pub fn transform<S: AsRef<str>>(&self, documents: &[S]) -> Matrix {
        let mut out = Matrix::zeros(documents.len(), self.vocabulary.len());
        let stopwords = StopwordFilter::english_shared();
        for (row, doc) in documents.iter().enumerate() {
            for term in analyze(doc.as_ref(), &self.options, stopwords) {
                if let Some(col) = self.vocabulary.id(&term) {
                    out[(row, col)] += 1.0;
                }
            }
        }
        out
    }

    /// Transform documents straight into a CSR count matrix, never allocating the
    /// dense `documents × vocabulary` grid. `transform_sparse(d).to_dense()` equals
    /// `transform(d)` exactly (a property test asserts bitwise equality).
    pub fn transform_sparse<S: AsRef<str>>(&self, documents: &[S]) -> CsrMatrix {
        let mut builder = CsrBuilder::new(self.vocabulary.len());
        let mut entries: Vec<(usize, f64)> = Vec::new();
        let stopwords = StopwordFilter::english_shared();
        for doc in documents {
            entries.clear();
            for term in analyze(doc.as_ref(), &self.options, stopwords) {
                if let Some(col) = self.vocabulary.id(&term) {
                    entries.push((col, 1.0));
                }
            }
            builder.push_row(&mut entries);
        }
        builder.finish()
    }
}

/// TF-IDF vectoriser (`TfidfVectorizer` analogue with scikit-learn smoothing).
#[derive(Debug, Clone)]
pub struct TfidfVectorizer {
    counts: CountVectorizer,
    idf: Vec<f64>,
}

impl TfidfVectorizer {
    /// Fit on a document collection (the single-shard case of
    /// [`fit_parallel`](Self::fit_parallel)).
    pub fn fit<S: AsRef<str> + Sync>(documents: &[S], options: VectorizerOptions) -> Self {
        Self::fit_parallel(documents, options, 1)
    }

    /// Fit with vocabulary counting sharded across `n_threads` threads; the
    /// IDF vector is computed once from the merged document frequencies, so
    /// it is bit-identical for every shard count.
    pub fn fit_parallel<S: AsRef<str> + Sync>(
        documents: &[S],
        options: VectorizerOptions,
        n_threads: usize,
    ) -> Self {
        Self::from_counts(CountVectorizer::fit_parallel(documents, options, n_threads))
    }

    /// Finish a TF-IDF vectoriser around fitted counts: one IDF computation,
    /// after whatever merge produced the vocabulary.
    fn from_counts(counts: CountVectorizer) -> Self {
        let idf = counts
            .vocabulary()
            .terms()
            .iter()
            .map(|t| counts.vocabulary().idf(t))
            .collect();
        Self { counts, idf }
    }

    /// Fit with the paper-default options.
    pub fn fit_default<S: AsRef<str> + Sync>(documents: &[S]) -> Self {
        Self::fit(documents, VectorizerOptions::paper_default())
    }

    /// The fitted vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        self.counts.vocabulary()
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.counts.n_features()
    }

    /// The IDF weight of each vocabulary term, in id order.
    pub fn idf(&self) -> &[f64] {
        &self.idf
    }

    /// The analyzer output for one document.
    pub fn analyze_document(&self, text: &str) -> Vec<String> {
        self.counts.analyze_document(text)
    }

    /// Transform documents into a dense TF-IDF matrix.
    pub fn transform<S: AsRef<str>>(&self, documents: &[S]) -> Matrix {
        let mut m = self.counts.transform(documents);
        let options = &self.counts.options;
        for r in 0..m.rows() {
            let row = m.row_mut(r);
            for (c, value) in row.iter_mut().enumerate() {
                if *value > 0.0 {
                    let tf = if options.sublinear_tf {
                        1.0 + value.ln()
                    } else {
                        *value
                    };
                    *value = tf * self.idf[c];
                }
            }
            if options.l2_normalize {
                let norm: f64 = row.iter().map(|v| v * v).sum::<f64>().sqrt();
                if norm > 0.0 {
                    for v in row.iter_mut() {
                        *v /= norm;
                    }
                }
            }
        }
        m
    }

    /// Transform documents straight into a CSR TF-IDF matrix, never allocating the
    /// dense grid. Entry-wise identical to [`transform`](Self::transform): the TF
    /// and IDF factors are per-entry, and the L2 norm accumulates over the same
    /// column order (zero terms are exact identities), so
    /// `transform_sparse(d).to_dense()` equals `transform(d)` bitwise.
    pub fn transform_sparse<S: AsRef<str>>(&self, documents: &[S]) -> CsrMatrix {
        let mut m = self.counts.transform_sparse(documents);
        self.apply_tfidf(&mut m);
        m
    }

    /// Scale a CSR count matrix into TF-IDF in place: per-entry TF and IDF
    /// factors, then the optional per-row L2 norm. Row-local, so it commutes
    /// with any row partition — the sharded fit applies it once to the stacked
    /// matrix with the same bits a per-shard application would produce.
    fn apply_tfidf(&self, m: &mut CsrMatrix) {
        let options = &self.counts.options;
        for r in 0..m.rows() {
            let (cols, values) = m.row_mut(r);
            for (&c, value) in cols.iter().zip(values.iter_mut()) {
                let tf = if options.sublinear_tf {
                    1.0 + value.ln()
                } else {
                    *value
                };
                *value = tf * self.idf[c];
            }
            if options.l2_normalize {
                let norm: f64 = values.iter().map(|v| v * v).sum::<f64>().sqrt();
                if norm > 0.0 {
                    for v in values.iter_mut() {
                        *v /= norm;
                    }
                }
            }
        }
    }

    /// Fit and transform in one step.
    pub fn fit_transform<S: AsRef<str> + Sync>(
        documents: &[S],
        options: VectorizerOptions,
    ) -> (Self, Matrix) {
        let v = Self::fit(documents, options);
        let m = v.transform(documents);
        (v, m)
    }

    /// Fit and sparse-transform in one step (single-shard case of
    /// [`fit_transform_sparse_parallel`](Self::fit_transform_sparse_parallel)).
    pub fn fit_transform_sparse<S: AsRef<str> + Sync>(
        documents: &[S],
        options: VectorizerOptions,
    ) -> (Self, CsrMatrix) {
        Self::fit_transform_sparse_parallel(documents, options, 1)
    }

    /// Sharded fit + sparse transform in one tokenisation pass: the count
    /// layer retains per-shard token streams and stacks per-shard CSR blocks
    /// in document order; TF-IDF scaling then runs once over the stacked
    /// matrix. Output is bit-identical to `fit` followed by `transform_sparse`
    /// for every shard count.
    pub fn fit_transform_sparse_parallel<S: AsRef<str> + Sync>(
        documents: &[S],
        options: VectorizerOptions,
        n_threads: usize,
    ) -> (Self, CsrMatrix) {
        let (counts, mut matrix) =
            CountVectorizer::fit_transform_sparse_parallel(documents, options, n_threads);
        let v = Self::from_counts(counts);
        v.apply_tfidf(&mut matrix);
        (v, matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> Vec<&'static str> {
        vec![
            "I feel exhausted and I cannot sleep",
            "my job drains me and the money worries never stop",
            "I feel so alone without my friends",
            "sleep issues and anxiety every night",
        ]
    }

    #[test]
    fn count_vectorizer_counts_terms() {
        let v = CountVectorizer::fit(&docs(), VectorizerOptions::default());
        let m = v.transform(&docs());
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), v.n_features());
        let sleep_col = v.vocabulary().id("sleep").unwrap();
        assert_eq!(m[(0, sleep_col)], 1.0);
        assert_eq!(m[(3, sleep_col)], 1.0);
        assert_eq!(m[(1, sleep_col)], 0.0);
    }

    #[test]
    fn stopwords_are_removed_by_default() {
        let v = CountVectorizer::fit(&docs(), VectorizerOptions::default());
        assert!(v.vocabulary().id("and").is_none());
        assert!(v.vocabulary().id("the").is_none());
    }

    #[test]
    fn tfidf_rows_are_unit_norm() {
        let (_, m) = TfidfVectorizer::fit_transform(&docs(), VectorizerOptions::default());
        for r in 0..m.rows() {
            let norm: f64 = m.row(r).iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9, "row {r} norm {norm}");
        }
    }

    #[test]
    fn tfidf_weights_rare_terms_higher() {
        let opts = VectorizerOptions {
            l2_normalize: false,
            ..VectorizerOptions::default()
        };
        let (v, m) = TfidfVectorizer::fit_transform(&docs(), opts);
        // "sleep" appears in 2 docs, "job" in 1: within doc 1, job should outweigh a
        // twice-as-common word given equal term frequency.
        let job = v.vocabulary().id("job").unwrap();
        let sleep = v.vocabulary().id("sleep").unwrap();
        assert!(v.idf()[job] > v.idf()[sleep]);
        assert!(m[(1, job)] > 0.0);
    }

    #[test]
    fn oov_terms_are_ignored_at_transform_time() {
        let v = TfidfVectorizer::fit_default(&docs());
        let m = v.transform(&["completely novel vocabulary zap zorp"]);
        assert_eq!(m.rows(), 1);
        assert_eq!(m.row(0).iter().copied().sum::<f64>(), 0.0);
    }

    #[test]
    fn empty_document_is_zero_row() {
        let v = TfidfVectorizer::fit_default(&docs());
        let m = v.transform(&[""]);
        assert!(m.row(0).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn min_df_prunes_rare_terms() {
        let opts = VectorizerOptions {
            min_document_frequency: 2,
            ..VectorizerOptions::default()
        };
        let v = CountVectorizer::fit(&docs(), opts);
        assert!(
            v.vocabulary().id("job").is_none(),
            "df-1 term should be pruned"
        );
        assert!(v.vocabulary().id("sleep").is_some() || v.vocabulary().id("feel").is_some());
    }

    #[test]
    fn max_features_caps_vocabulary() {
        let opts = VectorizerOptions {
            max_features: Some(5),
            ..VectorizerOptions::default()
        };
        let v = CountVectorizer::fit(&docs(), opts);
        assert_eq!(v.n_features(), 5);
    }

    #[test]
    fn bigram_options_add_ngrams() {
        let opts = VectorizerOptions {
            ngram_max: 2,
            remove_stopwords: false,
            ..VectorizerOptions::default()
        };
        let v = CountVectorizer::fit(&docs(), opts);
        assert!(
            v.vocabulary().terms().iter().any(|t| t.contains(' ')),
            "expected bigram terms"
        );
    }

    #[test]
    fn stemming_conflates_variants() {
        let opts = VectorizerOptions {
            stem: true,
            ..VectorizerOptions::default()
        };
        let v = CountVectorizer::fit(&["sleeping sleeps slept", "sleep"], opts);
        // "sleeping"/"sleeps"/"sleep" all stem to "sleep".
        let m = v.transform(&["sleeping", "sleep"]);
        let col = v.vocabulary().id("sleep").unwrap();
        assert!(m[(0, col)] > 0.0);
        assert!(m[(1, col)] > 0.0);
    }

    #[test]
    fn sparse_transform_matches_dense_for_both_vectorisers() {
        let count = CountVectorizer::fit(&docs(), VectorizerOptions::default());
        assert_eq!(
            count.transform_sparse(&docs()).to_dense(),
            count.transform(&docs())
        );
        let tfidf = TfidfVectorizer::fit_default(&docs());
        let sparse = tfidf.transform_sparse(&docs());
        assert_eq!(sparse.to_dense(), tfidf.transform(&docs()));
        // The whole point: a realistic row stores only its own terms.
        assert!(sparse.density() < 0.5, "density {}", sparse.density());
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_sequential() {
        // More documents than shards, uneven splits included.
        let docs: Vec<String> = (0..23)
            .map(|i| {
                format!(
                    "doc {i} feel alone tired sleep anxiety word{} word{}",
                    i % 7,
                    i % 3
                )
            })
            .collect();
        let sequential = TfidfVectorizer::fit(&docs, VectorizerOptions::default());
        let expected = sequential.transform_sparse(&docs);
        for n_threads in [1, 2, 3, 4, 8, 64] {
            let parallel =
                TfidfVectorizer::fit_parallel(&docs, VectorizerOptions::default(), n_threads);
            assert_eq!(
                parallel.vocabulary().terms(),
                sequential.vocabulary().terms(),
                "{n_threads} shards changed the vocabulary"
            );
            assert_eq!(parallel.idf(), sequential.idf());
            assert_eq!(parallel.transform_sparse(&docs), expected);
        }
    }

    #[test]
    fn fit_transform_parallel_matches_fit_then_transform() {
        let docs: Vec<String> = (0..17)
            .map(|i| format!("anxiety sleep work drain {} repeat repeat", i % 5))
            .collect();
        for variant in [
            VectorizerOptions::default(),
            VectorizerOptions {
                sublinear_tf: true,
                min_document_frequency: 2,
                ..VectorizerOptions::default()
            },
        ] {
            let fitted = TfidfVectorizer::fit(&docs, variant.clone());
            let expected = fitted.transform_sparse(&docs);
            for n_threads in [1, 3, 5] {
                let (v, m) = TfidfVectorizer::fit_transform_sparse_parallel(
                    &docs,
                    variant.clone(),
                    n_threads,
                );
                assert_eq!(v.vocabulary().terms(), fitted.vocabulary().terms());
                assert_eq!(m, expected, "{n_threads} shards diverged");
            }
            let (cv, cm) =
                CountVectorizer::fit_transform_sparse_parallel(&docs, variant.clone(), 4);
            assert_eq!(cm, cv.transform_sparse(&docs));
        }
    }

    #[test]
    fn parallel_fit_handles_tiny_and_empty_corpora() {
        let empty: Vec<&str> = Vec::new();
        let v = TfidfVectorizer::fit_parallel(&empty, VectorizerOptions::default(), 4);
        assert_eq!(v.n_features(), 0);
        let (_, m) =
            TfidfVectorizer::fit_transform_sparse_parallel(&empty, VectorizerOptions::default(), 4);
        assert_eq!(m.rows(), 0);

        let one = ["just one document here"];
        let (v, m) =
            TfidfVectorizer::fit_transform_sparse_parallel(&one, VectorizerOptions::default(), 8);
        assert_eq!(m.rows(), 1);
        assert_eq!(m, v.transform_sparse(&one));
    }

    #[test]
    fn sublinear_tf_dampens_repeats() {
        let opts = VectorizerOptions {
            sublinear_tf: true,
            l2_normalize: false,
            ..VectorizerOptions::default()
        };
        let docs = vec!["anxiety anxiety anxiety anxiety", "anxiety calm"];
        let (v, m) = TfidfVectorizer::fit_transform(&docs, opts);
        let col = v.vocabulary().id("anxiety").unwrap();
        // 1 + ln(4) ≈ 2.39 rather than 4.
        assert!(m[(0, col)] < 3.0 * v.idf()[col]);
        assert!(m[(0, col)] > m[(1, col)]);
    }
}
