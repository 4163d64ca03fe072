//! ROUGE metrics (Lin, 2004): ROUGE-1 unigram overlap and ROUGE-L longest common
//! subsequence, each reported as precision / recall / F1.
//!
//! Table V scores LIME keyword explanations against the annotated explanation spans
//! with ROUGE; the paper reports a single ROUGE figure, which corresponds to the
//! ROUGE-1 F-measure here (candidate = LIME keywords, reference = gold span words).

use std::collections::HashMap;

/// Precision / recall / F-measure triple for a ROUGE variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RougeScore {
    /// Overlap / candidate length.
    pub precision: f64,
    /// Overlap / reference length.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl RougeScore {
    fn from_overlap(overlap: f64, candidate_len: usize, reference_len: usize) -> Self {
        let precision = if candidate_len == 0 {
            0.0
        } else {
            overlap / candidate_len as f64
        };
        let recall = if reference_len == 0 {
            0.0
        } else {
            overlap / reference_len as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Self {
            precision,
            recall,
            f1,
        }
    }

    /// The all-zero score.
    pub fn zero() -> Self {
        Self {
            precision: 0.0,
            recall: 0.0,
            f1: 0.0,
        }
    }
}

fn counts<S: AsRef<str>>(tokens: &[S]) -> HashMap<String, usize> {
    let mut map = HashMap::new();
    for t in tokens {
        *map.entry(t.as_ref().to_lowercase()).or_insert(0) += 1;
    }
    map
}

/// ROUGE-1: unigram overlap between candidate and reference token sequences.
pub fn rouge_1<S: AsRef<str>, T: AsRef<str>>(candidate: &[S], reference: &[T]) -> RougeScore {
    if candidate.is_empty() && reference.is_empty() {
        return RougeScore::zero();
    }
    let cand_counts = counts(candidate);
    let ref_counts = counts(reference);
    let overlap: usize = cand_counts
        .iter()
        .map(|(token, &c)| c.min(*ref_counts.get(token).unwrap_or(&0)))
        .sum();
    RougeScore::from_overlap(overlap as f64, candidate.len(), reference.len())
}

/// Length of the longest common subsequence of two token sequences (case-insensitive).
fn lcs_length<S: AsRef<str>, T: AsRef<str>>(a: &[S], b: &[T]) -> usize {
    let a: Vec<String> = a.iter().map(|t| t.as_ref().to_lowercase()).collect();
    let b: Vec<String> = b.iter().map(|t| t.as_ref().to_lowercase()).collect();
    let mut dp = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for i in 1..=a.len() {
        for j in 1..=b.len() {
            dp[i][j] = if a[i - 1] == b[j - 1] {
                dp[i - 1][j - 1] + 1
            } else {
                dp[i - 1][j].max(dp[i][j - 1])
            };
        }
    }
    dp[a.len()][b.len()]
}

/// ROUGE-L: longest-common-subsequence overlap.
pub fn rouge_l<S: AsRef<str>, T: AsRef<str>>(candidate: &[S], reference: &[T]) -> RougeScore {
    if candidate.is_empty() && reference.is_empty() {
        return RougeScore::zero();
    }
    let lcs = lcs_length(candidate, reference);
    RougeScore::from_overlap(lcs as f64, candidate.len(), reference.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_score_one() {
        let tokens = ["feel", "exhausted", "sleep"];
        let r1 = rouge_1(&tokens, &tokens);
        let rl = rouge_l(&tokens, &tokens);
        assert!((r1.f1 - 1.0).abs() < 1e-12);
        assert!((rl.f1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_sequences_score_zero() {
        let r = rouge_1(&["job", "money"], &["sleep", "anxiety"]);
        assert_eq!(r.f1, 0.0);
        assert_eq!(rouge_l(&["job"], &["sleep"]).f1, 0.0);
    }

    #[test]
    fn rouge1_hand_computed() {
        // candidate: {the, cat, sat}; reference: {the, cat, was, here}
        // overlap = 2; P = 2/3, R = 2/4 = 0.5, F1 = 2*(2/3)*(1/2)/(2/3+1/2) = 0.5714…
        let r = rouge_1(&["the", "cat", "sat"], &["the", "cat", "was", "here"]);
        assert!((r.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.recall - 0.5).abs() < 1e-12);
        assert!((r.f1 - 0.5714285714).abs() < 1e-6);
    }

    #[test]
    fn rouge1_is_clipped_by_reference_counts() {
        // "feel" appears twice in the candidate but once in the reference -> overlap 1.
        let r = rouge_1(&["feel", "feel"], &["feel", "alone"]);
        assert!((r.precision - 0.5).abs() < 1e-12);
        assert!((r.recall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rouge_l_respects_order() {
        // LCS of [a b c d] and [a c b d] is 3 (a b d or a c d).
        let r = rouge_l(&["a", "b", "c", "d"], &["a", "c", "b", "d"]);
        assert!((r.recall - 0.75).abs() < 1e-12);
        // Bag-of-words ROUGE-1 would be 1.0 here.
        assert!((rouge_1(&["a", "b", "c", "d"], &["a", "c", "b", "d"]).f1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn case_insensitive() {
        let r = rouge_1(&["Feel", "ALONE"], &["feel", "alone"]);
        assert!((r.f1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(rouge_1::<&str, &str>(&[], &[]).f1, 0.0);
        assert_eq!(rouge_1(&["a"], &[] as &[&str]).f1, 0.0);
        assert_eq!(rouge_l(&[] as &[&str], &["a"]).f1, 0.0);
    }
}
