//! Dataset splits: the paper's fixed 990/212/213 split and stratified k-fold CV.
//!
//! §III of the paper fixes 990 training, 212 validation and 213 test samples and
//! reports every metric averaged over 10-fold cross-validation. Both splitting schemes
//! are stratified here so that each part keeps the Table II class balance — with only
//! 150 posts in the smallest class, unstratified folds can easily end up with too few
//! examples of a class to compute per-class recall.

use crate::post::AnnotatedPost;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Index-based train/validation/test split of a corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetSplit {
    /// Indices of training posts.
    pub train: Vec<usize>,
    /// Indices of validation posts.
    pub validation: Vec<usize>,
    /// Indices of test posts.
    pub test: Vec<usize>,
    /// Indices not assigned to any part.
    ///
    /// The paper's fixed sizes (990 train + 212 validation + 213 test = 1,415) do not
    /// sum to the 1,420 posts of Table II; the five leftover posts end up here when the
    /// paper sizes are applied verbatim.
    pub unused: Vec<usize>,
}

impl DatasetSplit {
    /// Total number of indices across the three parts (excluding `unused`).
    pub fn len(&self) -> usize {
        self.train.len() + self.validation.len() + self.test.len()
    }

    /// Whether the split is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Check that the parts (including `unused`) are disjoint and jointly cover `0..n`.
    pub fn is_partition_of(&self, n: usize) -> bool {
        let mut all: Vec<usize> = self
            .train
            .iter()
            .chain(&self.validation)
            .chain(&self.test)
            .chain(&self.unused)
            .copied()
            .collect();
        all.sort_unstable();
        all.len() == n && all.iter().enumerate().all(|(i, &v)| i == v)
    }
}

/// One fold of a cross-validation: train and held-out test indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fold {
    /// Indices used for training in this fold.
    pub train: Vec<usize>,
    /// Indices held out for evaluation in this fold.
    pub test: Vec<usize>,
}

/// A full set of cross-validation folds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossValidationFolds {
    /// The folds, in order.
    pub folds: Vec<Fold>,
    /// Number of items the folds were built over.
    pub n_items: usize,
}

impl CrossValidationFolds {
    /// Number of folds.
    pub fn len(&self) -> usize {
        self.folds.len()
    }

    /// Whether there are no folds.
    pub fn is_empty(&self) -> bool {
        self.folds.is_empty()
    }

    /// Iterate over folds.
    pub fn iter(&self) -> impl Iterator<Item = &Fold> {
        self.folds.iter()
    }

    /// Verify the fold test sets partition `0..n_items`.
    pub fn test_sets_partition_items(&self) -> bool {
        let mut all: Vec<usize> = self
            .folds
            .iter()
            .flat_map(|f| f.test.iter().copied())
            .collect();
        all.sort_unstable();
        all.len() == self.n_items && all.iter().enumerate().all(|(i, &v)| i == v)
    }
}

/// Group item indices by their dense class label.
fn indices_by_class(labels: &[usize], n_classes: usize) -> Vec<Vec<usize>> {
    let mut by_class = vec![Vec::new(); n_classes];
    for (i, &c) in labels.iter().enumerate() {
        assert!(
            c < n_classes,
            "label {c} out of range for {n_classes} classes"
        );
        by_class[c].push(i);
    }
    by_class
}

/// Stratified train/validation/test split with the given absolute sizes.
///
/// `sizes = (train, validation, test)` must sum to `labels.len()`. The class balance
/// of each part matches the corpus balance as closely as integer rounding allows.
/// Deterministic for a given seed.
pub fn train_val_test_split(
    labels: &[usize],
    n_classes: usize,
    sizes: (usize, usize, usize),
    seed: u64,
) -> DatasetSplit {
    let (n_train, n_val, n_test) = sizes;
    assert!(
        n_train + n_val + n_test <= labels.len(),
        "split sizes {:?} must sum to at most the number of items {}",
        sizes,
        labels.len()
    );
    let n_unused = labels.len() - (n_train + n_val + n_test);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_class = indices_by_class(labels, n_classes);
    for idx in &mut by_class {
        for i in (1..idx.len()).rev() {
            let j = rng.gen_range(0..=i);
            idx.swap(i, j);
        }
    }

    let total = labels.len() as f64;
    let mut train = Vec::new();
    let mut validation = Vec::new();
    let mut test = Vec::new();
    // Per-class proportional allocation; leftovers (from rounding) go to train, then
    // are rebalanced below to hit the exact requested sizes.
    for idx in &by_class {
        let frac = idx.len() as f64 / total;
        let c_val = (n_val as f64 * frac).round() as usize;
        let c_test = (n_test as f64 * frac).round() as usize;
        let c_val = c_val.min(idx.len());
        let c_test = c_test.min(idx.len() - c_val);
        validation.extend_from_slice(&idx[..c_val]);
        test.extend_from_slice(&idx[c_val..c_val + c_test]);
        train.extend_from_slice(&idx[c_val + c_test..]);
    }
    // Fix up rounding drift by moving items between parts (largest part donates).
    let move_items = |from: &mut Vec<usize>, to: &mut Vec<usize>, count: usize| {
        for _ in 0..count {
            if let Some(x) = from.pop() {
                to.push(x);
            }
        }
    };
    while validation.len() > n_val {
        let extra = validation.len() - n_val;
        move_items(&mut validation, &mut train, extra);
    }
    while test.len() > n_test {
        let extra = test.len() - n_test;
        move_items(&mut test, &mut train, extra);
    }
    while validation.len() < n_val {
        let need = n_val - validation.len();
        move_items(&mut train, &mut validation, need);
    }
    while test.len() < n_test {
        let need = n_test - test.len();
        move_items(&mut train, &mut test, need);
    }
    let mut unused = Vec::with_capacity(n_unused);
    while train.len() > n_train {
        if let Some(x) = train.pop() {
            unused.push(x);
        }
    }
    DatasetSplit {
        train,
        validation,
        test,
        unused,
    }
}

/// The paper's fixed split sizes (990 / 212 / 213) applied to a 1,420-item corpus, or
/// proportionally scaled sizes for smaller corpora.
pub fn paper_split(labels: &[usize], n_classes: usize, seed: u64) -> DatasetSplit {
    let n = labels.len();
    if n == 1420 {
        return train_val_test_split(labels, n_classes, (990, 212, 213), seed);
    }
    let train = (n as f64 * 990.0 / 1420.0).round() as usize;
    let val = (n as f64 * 212.0 / 1420.0).round() as usize;
    let test = n - train - val;
    train_val_test_split(labels, n_classes, (train, val, test), seed)
}

/// Stratified k-fold cross-validation over dense labels. Deterministic for a seed.
///
/// Panics if `k < 2` or `k > labels.len()`.
pub fn kfold_stratified(
    labels: &[usize],
    n_classes: usize,
    k: usize,
    seed: u64,
) -> CrossValidationFolds {
    assert!(k >= 2, "k-fold requires k >= 2 (got {k})");
    assert!(
        k <= labels.len(),
        "k-fold requires k <= number of items ({k} > {})",
        labels.len()
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_class = indices_by_class(labels, n_classes);
    for idx in &mut by_class {
        for i in (1..idx.len()).rev() {
            let j = rng.gen_range(0..=i);
            idx.swap(i, j);
        }
    }
    // Deal each class's items round-robin into the k folds' test sets.
    let mut test_sets: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut next_fold = 0usize;
    for idx in &by_class {
        for &item in idx {
            test_sets[next_fold].push(item);
            next_fold = (next_fold + 1) % k;
        }
    }
    let folds = test_sets
        .iter()
        .enumerate()
        .map(|(fi, test)| {
            let train: Vec<usize> = test_sets
                .iter()
                .enumerate()
                .filter(|(fj, _)| *fj != fi)
                .flat_map(|(_, t)| t.iter().copied())
                .collect();
            Fold {
                train,
                test: test.clone(),
            }
        })
        .collect();
    CrossValidationFolds {
        folds,
        n_items: labels.len(),
    }
}

/// Convenience: build folds directly from annotated posts.
pub fn kfold_posts(posts: &[AnnotatedPost], k: usize, seed: u64) -> CrossValidationFolds {
    let labels: Vec<usize> = posts.iter().map(|p| p.label.index()).collect();
    kfold_stratified(&labels, 6, k, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::HolistixCorpus;

    #[test]
    fn paper_split_sizes_match_section3() {
        let corpus = HolistixCorpus::generate(1);
        let split = paper_split(&corpus.label_indices(), 6, 42);
        assert_eq!(split.train.len(), 990);
        assert_eq!(split.validation.len(), 212);
        assert_eq!(split.test.len(), 213);
        assert!(split.is_partition_of(1420));
    }

    #[test]
    fn split_is_stratified() {
        let corpus = HolistixCorpus::generate(1);
        let labels = corpus.label_indices();
        let split = paper_split(&labels, 6, 42);
        // Class proportions in train should be within a few points of the corpus.
        let corpus_frac =
            |c: usize| labels.iter().filter(|&&l| l == c).count() as f64 / labels.len() as f64;
        let train_frac = |c: usize| {
            split.train.iter().filter(|&&i| labels[i] == c).count() as f64
                / split.train.len() as f64
        };
        for c in 0..6 {
            assert!(
                (corpus_frac(c) - train_frac(c)).abs() < 0.03,
                "class {c} proportions drift: corpus {} vs train {}",
                corpus_frac(c),
                train_frac(c)
            );
        }
    }

    #[test]
    fn split_deterministic_per_seed() {
        let corpus = HolistixCorpus::generate_small(120, 3);
        let labels = corpus.label_indices();
        let a = paper_split(&labels, 6, 9);
        let b = paper_split(&labels, 6, 9);
        let c = paper_split(&labels, 6, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn kfold_test_sets_partition_and_are_stratified() {
        let corpus = HolistixCorpus::generate_small(300, 5);
        let labels = corpus.label_indices();
        let folds = kfold_stratified(&labels, 6, 10, 7);
        assert_eq!(folds.len(), 10);
        assert!(folds.test_sets_partition_items());
        for fold in folds.iter() {
            assert_eq!(fold.train.len() + fold.test.len(), labels.len());
            // Every class appears in every training set.
            for c in 0..6 {
                assert!(
                    fold.train.iter().any(|&i| labels[i] == c),
                    "class {c} missing from a training fold"
                );
            }
        }
    }

    #[test]
    fn kfold_posts_convenience() {
        let corpus = HolistixCorpus::generate_small(60, 2);
        let folds = kfold_posts(&corpus.posts, 5, 1);
        assert_eq!(folds.len(), 5);
        assert!(folds.test_sets_partition_items());
    }

    #[test]
    #[should_panic(expected = "k-fold requires k >= 2")]
    fn kfold_rejects_k_one() {
        let _ = kfold_stratified(&[0, 1, 2], 3, 1, 0);
    }

    #[test]
    #[should_panic(expected = "must sum to at most the number of items")]
    fn split_sizes_must_sum() {
        let _ = train_val_test_split(&[0, 1, 2, 3], 2, (2, 1, 2), 0);
    }

    #[test]
    fn small_corpus_split_still_partitions() {
        let corpus = HolistixCorpus::generate_small(40, 8);
        let labels = corpus.label_indices();
        let split = paper_split(&labels, 6, 3);
        assert!(split.is_partition_of(labels.len()));
    }
}
