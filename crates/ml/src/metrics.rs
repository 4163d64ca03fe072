//! Classification metrics: confusion matrix, per-class precision/recall/F1, accuracy.
//!
//! These are the quantities of Table IV: precision (P), recall (R) and F-score (F) for
//! each of the six wellness dimensions plus overall accuracy, averaged over 10 folds.
//! Per-class metrics follow the usual one-vs-rest definitions; classes absent from
//! both predictions and gold labels get 0 for all three (the scikit-learn
//! `zero_division=0` convention the paper's scripts use).

use std::fmt;

/// A dense confusion matrix: `counts[gold][predicted]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
    n_classes: usize,
}

impl ConfusionMatrix {
    /// Build from gold and predicted label sequences.
    pub fn from_labels(gold: &[usize], predicted: &[usize], n_classes: usize) -> Self {
        assert_eq!(
            gold.len(),
            predicted.len(),
            "gold/predicted length mismatch"
        );
        let mut counts = vec![vec![0usize; n_classes]; n_classes];
        for (&g, &p) in gold.iter().zip(predicted) {
            assert!(g < n_classes && p < n_classes, "label out of range");
            counts[g][p] += 1;
        }
        Self { counts, n_classes }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Count of items with gold class `gold` predicted as `predicted`.
    pub fn count(&self, gold: usize, predicted: usize) -> usize {
        self.counts[gold][predicted]
    }

    /// Total number of items.
    pub fn total(&self) -> usize {
        self.counts.iter().map(|r| r.iter().sum::<usize>()).sum()
    }

    /// True positives for a class.
    pub fn true_positives(&self, class: usize) -> usize {
        self.counts[class][class]
    }

    /// False positives for a class (predicted as `class` but gold differs).
    pub fn false_positives(&self, class: usize) -> usize {
        (0..self.n_classes)
            .filter(|&g| g != class)
            .map(|g| self.counts[g][class])
            .sum()
    }

    /// False negatives for a class (gold `class` predicted as something else).
    pub fn false_negatives(&self, class: usize) -> usize {
        (0..self.n_classes)
            .filter(|&p| p != class)
            .map(|p| self.counts[class][p])
            .sum()
    }

    /// Number of gold items of a class.
    pub fn support(&self, class: usize) -> usize {
        self.counts[class].iter().sum()
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = (0..self.n_classes).map(|c| self.counts[c][c]).sum();
        correct as f64 / total as f64
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "gold \\ pred {}",
            (0..self.n_classes)
                .map(|c| format!("{c:>6}"))
                .collect::<String>()
        )?;
        for (g, row) in self.counts.iter().enumerate() {
            writeln!(
                f,
                "{g:>11} {}",
                row.iter().map(|c| format!("{c:>6}")).collect::<String>()
            )?;
        }
        Ok(())
    }
}

/// Precision, recall, F1 and support for a single class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMetrics {
    /// Precision = TP / (TP + FP); 0 when undefined.
    pub precision: f64,
    /// Recall = TP / (TP + FN); 0 when undefined.
    pub recall: f64,
    /// F1 = harmonic mean of precision and recall; 0 when undefined.
    pub f1: f64,
    /// Number of gold examples of the class.
    pub support: usize,
}

impl ClassMetrics {
    /// Compute from raw counts.
    pub fn from_counts(tp: usize, fp: usize, fn_: usize) -> Self {
        let precision = if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            0.0
        } else {
            tp as f64 / (tp + fn_) as f64
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
            support: tp + fn_,
        }
    }
}

/// A full classification report: per-class metrics plus aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationReport {
    /// Per-class metrics, indexed by dense class id.
    pub per_class: Vec<ClassMetrics>,
    /// Overall accuracy.
    pub accuracy: f64,
    /// Unweighted mean of the per-class metrics.
    pub macro_precision: f64,
    /// Unweighted mean recall.
    pub macro_recall: f64,
    /// Unweighted mean F1.
    pub macro_f1: f64,
    /// Support-weighted mean F1.
    pub weighted_f1: f64,
}

impl ClassificationReport {
    /// Compute a report from gold and predicted labels.
    pub fn from_labels(gold: &[usize], predicted: &[usize], n_classes: usize) -> Self {
        let cm = ConfusionMatrix::from_labels(gold, predicted, n_classes);
        Self::from_confusion(&cm)
    }

    /// Compute a report from a confusion matrix.
    pub fn from_confusion(cm: &ConfusionMatrix) -> Self {
        let n = cm.n_classes();
        let per_class: Vec<ClassMetrics> = (0..n)
            .map(|c| {
                ClassMetrics::from_counts(
                    cm.true_positives(c),
                    cm.false_positives(c),
                    cm.false_negatives(c),
                )
            })
            .collect();
        let total_support: usize = per_class.iter().map(|m| m.support).sum();
        let macro_precision = mean(per_class.iter().map(|m| m.precision));
        let macro_recall = mean(per_class.iter().map(|m| m.recall));
        let macro_f1 = mean(per_class.iter().map(|m| m.f1));
        let weighted_f1 = if total_support == 0 {
            0.0
        } else {
            per_class
                .iter()
                .map(|m| m.f1 * m.support as f64)
                .sum::<f64>()
                / total_support as f64
        };
        Self {
            per_class,
            accuracy: cm.accuracy(),
            macro_precision,
            macro_recall,
            macro_f1,
            weighted_f1,
        }
    }

    /// Metrics for one class.
    pub fn class(&self, class: usize) -> &ClassMetrics {
        &self.per_class[class]
    }

    /// Element-wise average of several reports (used to average over CV folds).
    /// Panics if the reports have different class counts or the slice is empty.
    pub fn average(reports: &[ClassificationReport]) -> ClassificationReport {
        assert!(!reports.is_empty(), "cannot average zero reports");
        let n_classes = reports[0].per_class.len();
        assert!(
            reports.iter().all(|r| r.per_class.len() == n_classes),
            "reports have differing class counts"
        );
        let k = reports.len() as f64;
        let per_class = (0..n_classes)
            .map(|c| ClassMetrics {
                precision: reports
                    .iter()
                    .map(|r| r.per_class[c].precision)
                    .sum::<f64>()
                    / k,
                recall: reports.iter().map(|r| r.per_class[c].recall).sum::<f64>() / k,
                f1: reports.iter().map(|r| r.per_class[c].f1).sum::<f64>() / k,
                support: (reports
                    .iter()
                    .map(|r| r.per_class[c].support)
                    .sum::<usize>() as f64
                    / k)
                    .round() as usize,
            })
            .collect();
        ClassificationReport {
            per_class,
            accuracy: reports.iter().map(|r| r.accuracy).sum::<f64>() / k,
            macro_precision: reports.iter().map(|r| r.macro_precision).sum::<f64>() / k,
            macro_recall: reports.iter().map(|r| r.macro_recall).sum::<f64>() / k,
            macro_f1: reports.iter().map(|r| r.macro_f1).sum::<f64>() / k,
            weighted_f1: reports.iter().map(|r| r.weighted_f1).sum::<f64>() / k,
        }
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let collected: Vec<f64> = values.collect();
    if collected.is_empty() {
        0.0
    } else {
        collected.iter().sum::<f64>() / collected.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_matrix_counts() {
        let gold = vec![0, 0, 1, 1, 2, 2];
        let pred = vec![0, 1, 1, 1, 2, 0];
        let cm = ConfusionMatrix::from_labels(&gold, &pred, 3);
        assert_eq!(cm.count(0, 0), 1);
        assert_eq!(cm.count(0, 1), 1);
        assert_eq!(cm.count(2, 0), 1);
        assert_eq!(cm.total(), 6);
        assert_eq!(cm.true_positives(1), 2);
        assert_eq!(cm.false_positives(1), 1);
        assert_eq!(cm.false_negatives(2), 1);
        assert_eq!(cm.support(0), 2);
        assert!((cm.accuracy() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_predictions_give_ones() {
        let gold = vec![0, 1, 2, 0, 1, 2];
        let report = ClassificationReport::from_labels(&gold, &gold, 3);
        assert_eq!(report.accuracy, 1.0);
        for m in &report.per_class {
            assert_eq!(m.precision, 1.0);
            assert_eq!(m.recall, 1.0);
            assert_eq!(m.f1, 1.0);
        }
        assert_eq!(report.macro_f1, 1.0);
        assert_eq!(report.weighted_f1, 1.0);
    }

    #[test]
    fn hand_computed_metrics() {
        // Class 0: TP=1 FP=1 FN=1 -> P=0.5 R=0.5 F1=0.5
        let gold = vec![0, 0, 1, 1];
        let pred = vec![0, 1, 0, 1];
        let report = ClassificationReport::from_labels(&gold, &pred, 2);
        let c0 = report.class(0);
        assert!((c0.precision - 0.5).abs() < 1e-12);
        assert!((c0.recall - 0.5).abs() < 1e-12);
        assert!((c0.f1 - 0.5).abs() < 1e-12);
        assert_eq!(c0.support, 2);
        assert!((report.accuracy - 0.5).abs() < 1e-12);
    }

    #[test]
    fn absent_class_gets_zero_metrics() {
        // Class 2 never appears in gold or predictions.
        let gold = vec![0, 1, 0, 1];
        let pred = vec![0, 1, 1, 1];
        let report = ClassificationReport::from_labels(&gold, &pred, 3);
        let c2 = report.class(2);
        assert_eq!(c2.precision, 0.0);
        assert_eq!(c2.recall, 0.0);
        assert_eq!(c2.f1, 0.0);
        assert_eq!(c2.support, 0);
    }

    #[test]
    fn f1_is_harmonic_mean() {
        let m = ClassMetrics::from_counts(3, 1, 2);
        // P = 0.75, R = 0.6, F1 = 2*0.75*0.6/1.35 = 0.6667
        assert!((m.precision - 0.75).abs() < 1e-12);
        assert!((m.recall - 0.6).abs() < 1e-12);
        assert!((m.f1 - 2.0 * 0.75 * 0.6 / 1.35).abs() < 1e-12);
    }

    #[test]
    fn averaging_reports_is_elementwise() {
        let gold = vec![0, 1];
        let r1 = ClassificationReport::from_labels(&gold, &[0, 1], 2); // perfect
        let r2 = ClassificationReport::from_labels(&gold, &[1, 0], 2); // all wrong
        let avg = ClassificationReport::average(&[r1, r2]);
        assert!((avg.accuracy - 0.5).abs() < 1e-12);
        assert!((avg.class(0).f1 - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot average zero reports")]
    fn averaging_zero_reports_panics() {
        let _ = ClassificationReport::average(&[]);
    }

    #[test]
    fn weighted_f1_reflects_support() {
        // Majority class classified perfectly, minority always wrong: weighted F1 should
        // exceed macro F1.
        let gold = vec![0, 0, 0, 0, 0, 0, 0, 0, 1, 1];
        let pred = vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let report = ClassificationReport::from_labels(&gold, &pred, 2);
        assert!(report.weighted_f1 > report.macro_f1);
    }

    #[test]
    fn empty_input_is_all_zero() {
        let report = ClassificationReport::from_labels(&[], &[], 3);
        assert_eq!(report.accuracy, 0.0);
        assert_eq!(report.macro_f1, 0.0);
    }
}
