//! Inter-annotator agreement statistics.
//!
//! The paper reports a Fleiss' kappa of 75.92 % between the two student annotators
//! (§II-E). This module implements Fleiss' kappa for any number of raters and Cohen's
//! kappa for exactly two, plus a small report type used by the annotation-study
//! experiment and the Fig. 2 bench.

/// Fleiss' kappa over an `items × categories` table of rating counts.
///
/// `ratings[i][k]` is the number of raters that assigned item `i` to category `k`.
/// Every item must have the same total number of raters. Returns `None` for degenerate
/// inputs (no items, fewer than two raters, or zero observed/expected variance making
/// the statistic undefined); a table where all raters always agree on a single
/// category that is also the only category ever used yields `Some(1.0)`.
pub fn fleiss_kappa(ratings: &[Vec<usize>]) -> Option<f64> {
    if ratings.is_empty() {
        return None;
    }
    let n_items = ratings.len();
    let n_categories = ratings[0].len();
    if n_categories == 0 {
        return None;
    }
    let n_raters: usize = ratings[0].iter().sum();
    if n_raters < 2 {
        return None;
    }
    for (i, row) in ratings.iter().enumerate() {
        assert_eq!(
            row.len(),
            n_categories,
            "fleiss_kappa: row {i} has {} categories, expected {n_categories}",
            row.len()
        );
        assert_eq!(
            row.iter().sum::<usize>(),
            n_raters,
            "fleiss_kappa: row {i} has a different number of raters"
        );
    }

    // Per-item agreement P_i and per-category proportions p_k.
    let mut p_bar = 0.0;
    let mut p_k = vec![0.0f64; n_categories];
    for row in ratings {
        let mut agree = 0.0;
        for (k, &count) in row.iter().enumerate() {
            agree += (count * count.saturating_sub(1)) as f64;
            p_k[k] += count as f64;
        }
        p_bar += agree / (n_raters * (n_raters - 1)) as f64;
    }
    p_bar /= n_items as f64;
    for pk in &mut p_k {
        *pk /= (n_items * n_raters) as f64;
    }
    let p_e: f64 = p_k.iter().map(|p| p * p).sum();

    if (1.0 - p_e).abs() < 1e-12 {
        // Chance agreement is total: kappa is undefined unless observed agreement is
        // also total, in which case we follow the convention kappa = 1.
        return if (p_bar - 1.0).abs() < 1e-12 {
            Some(1.0)
        } else {
            None
        };
    }
    Some((p_bar - p_e) / (1.0 - p_e))
}

/// Cohen's kappa between two raters' label sequences over `n_categories` categories.
///
/// Labels are dense indices `0..n_categories`. Returns `None` for empty input or when
/// the statistic is undefined (expected agreement of exactly 1 with imperfect observed
/// agreement).
pub fn cohen_kappa(rater_a: &[usize], rater_b: &[usize], n_categories: usize) -> Option<f64> {
    assert_eq!(rater_a.len(), rater_b.len(), "cohen_kappa: length mismatch");
    if rater_a.is_empty() || n_categories == 0 {
        return None;
    }
    let n = rater_a.len() as f64;
    let mut confusion = vec![vec![0.0f64; n_categories]; n_categories];
    for (&a, &b) in rater_a.iter().zip(rater_b) {
        assert!(a < n_categories && b < n_categories, "label out of range");
        confusion[a][b] += 1.0;
    }
    let p_o: f64 = (0..n_categories).map(|k| confusion[k][k]).sum::<f64>() / n;
    let mut p_e = 0.0;
    for (k, confusion_row) in confusion.iter().enumerate() {
        let row: f64 = confusion_row.iter().sum::<f64>() / n;
        let col: f64 = confusion.iter().map(|r| r[k]).sum::<f64>() / n;
        p_e += row * col;
    }
    if (1.0 - p_e).abs() < 1e-12 {
        return if (p_o - 1.0).abs() < 1e-12 {
            Some(1.0)
        } else {
            None
        };
    }
    Some((p_o - p_e) / (1.0 - p_e))
}

/// Build the Fleiss rating table for two raters from their label sequences.
pub fn two_rater_table(
    rater_a: &[usize],
    rater_b: &[usize],
    n_categories: usize,
) -> Vec<Vec<usize>> {
    assert_eq!(
        rater_a.len(),
        rater_b.len(),
        "two_rater_table: length mismatch"
    );
    rater_a
        .iter()
        .zip(rater_b)
        .map(|(&a, &b)| {
            let mut row = vec![0usize; n_categories];
            row[a] += 1;
            row[b] += 1;
            row
        })
        .collect()
}

/// Summary of an annotation study: observed agreement plus kappa statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct AgreementReport {
    /// Number of doubly annotated items.
    pub n_items: usize,
    /// Raw percentage agreement between the two raters.
    pub percent_agreement: f64,
    /// Fleiss' kappa (the statistic the paper reports).
    pub fleiss_kappa: f64,
    /// Cohen's kappa, for comparison.
    pub cohen_kappa: f64,
}

impl AgreementReport {
    /// Compute the report from two raters' labels.
    pub fn from_two_raters(rater_a: &[usize], rater_b: &[usize], n_categories: usize) -> Self {
        let n_items = rater_a.len();
        let agree = rater_a.iter().zip(rater_b).filter(|(a, b)| a == b).count();
        let table = two_rater_table(rater_a, rater_b, n_categories);
        Self {
            n_items,
            percent_agreement: if n_items == 0 {
                0.0
            } else {
                agree as f64 / n_items as f64
            },
            fleiss_kappa: fleiss_kappa(&table).unwrap_or(0.0),
            cohen_kappa: cohen_kappa(rater_a, rater_b, n_categories).unwrap_or(0.0),
        }
    }

    /// The value the paper reports: κ = 75.92 %.
    pub fn paper_reference_kappa() -> f64 {
        0.7592
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_agreement_gives_kappa_one() {
        let a = vec![0, 1, 2, 3, 4, 5, 0, 1];
        let report = AgreementReport::from_two_raters(&a, &a, 6);
        assert!((report.fleiss_kappa - 1.0).abs() < 1e-9);
        assert!((report.cohen_kappa - 1.0).abs() < 1e-9);
        assert_eq!(report.percent_agreement, 1.0);
    }

    #[test]
    fn fleiss_kappa_matches_wikipedia_worked_example() {
        // The classic 10-item, 14-rater, 5-category example from Fleiss (1971),
        // reproduced on the Wikipedia "Fleiss' kappa" page; κ ≈ 0.210.
        let table = vec![
            vec![0, 0, 0, 0, 14],
            vec![0, 2, 6, 4, 2],
            vec![0, 0, 3, 5, 6],
            vec![0, 3, 9, 2, 0],
            vec![2, 2, 8, 1, 1],
            vec![7, 7, 0, 0, 0],
            vec![3, 2, 6, 3, 0],
            vec![2, 5, 3, 2, 2],
            vec![6, 5, 2, 1, 0],
            vec![0, 2, 2, 3, 7],
        ];
        let kappa = fleiss_kappa(&table).unwrap();
        assert!((kappa - 0.210).abs() < 0.002, "kappa = {kappa}");
    }

    #[test]
    fn cohen_kappa_hand_example() {
        // 2x2 example: 20 items, raters agree on 15 (10 yes-yes, 5 no-no).
        // p_o = 0.75; marginals: A yes 12/20, B yes 13/20 -> p_e = 0.39+0.14 = 0.53 -> k ≈ 0.468
        let a = [vec![0usize; 12], vec![1usize; 8]].concat();
        let mut b = vec![0usize; 10];
        b.extend(vec![1usize; 2]);
        b.extend(vec![0usize; 3]);
        b.extend(vec![1usize; 5]);
        let kappa = cohen_kappa(&a, &b, 2).unwrap();
        assert!((kappa - 0.4680851).abs() < 1e-4, "kappa = {kappa}");
    }

    #[test]
    fn chance_only_agreement_is_near_zero() {
        // Rater B's labels are independent of A's: kappa should be near zero.
        let a: Vec<usize> = (0..600).map(|i| i % 6).collect();
        let b: Vec<usize> = (0..600).map(|i| (i / 6) % 6).collect();
        let report = AgreementReport::from_two_raters(&a, &b, 6);
        assert!(
            report.fleiss_kappa.abs() < 0.1,
            "kappa = {}",
            report.fleiss_kappa
        );
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert_eq!(fleiss_kappa(&[]), None);
        assert_eq!(fleiss_kappa(&[vec![1, 0]]), None); // single rater
        assert_eq!(cohen_kappa(&[], &[], 6), None);
        // All raters always pick category 0: expected agreement 1, observed 1 -> Some(1.0)
        assert_eq!(fleiss_kappa(&[vec![2, 0], vec![2, 0]]), Some(1.0));
    }

    #[test]
    fn two_rater_table_rows_sum_to_two() {
        let table = two_rater_table(&[0, 1, 2], &[0, 2, 2], 3);
        for row in &table {
            assert_eq!(row.iter().sum::<usize>(), 2);
        }
        assert_eq!(table[0], vec![2, 0, 0]);
        assert_eq!(table[1], vec![0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "different number of raters")]
    fn ragged_rater_counts_panic() {
        let _ = fleiss_kappa(&[vec![2, 0], vec![1, 0]]);
    }
}
