//! The plug-in outlier-detector interface (paper Section VI-E: "Sentomist
//! can actually plug in these outlier detection algorithms conveniently").

use crate::matrix::FeatureMatrix;
use std::cmp::Ordering;
use std::error::Error;
use std::fmt;

/// Failure of an outlier detector.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// No samples (or fewer than the detector requires).
    TooFewSamples {
        /// Samples provided.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// Samples of inconsistent dimensionality.
    RaggedSamples,
    /// An invalid hyperparameter.
    BadParameter(String),
    /// A numeric routine failed.
    Numeric(String),
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::TooFewSamples { got, need } => {
                write!(f, "need at least {need} samples, got {got}")
            }
            MlError::RaggedSamples => f.write_str("samples have inconsistent dimensions"),
            MlError::BadParameter(msg) => write!(f, "bad parameter: {msg}"),
            MlError::Numeric(msg) => write!(f, "numeric failure: {msg}"),
        }
    }
}

impl Error for MlError {}

/// An unsupervised outlier detector over a fixed sample set.
///
/// Samples arrive as a dense row-major [`FeatureMatrix`] — one row per
/// sample. Implementations fit on the given samples and return one score
/// per row, **lower = more suspicious**. For the one-class SVM the score
/// is the signed distance to the decision boundary (negative on the
/// outlier side — exactly the ranking quantity of the paper's Figure 5);
/// other detectors return negated distances or reconstruction errors so
/// that the ordering convention matches.
///
/// ```
/// use mlcore::{FeatureMatrix, OneClassSvm, OutlierDetector};
///
/// let samples = FeatureMatrix::from_rows(&[
///     vec![1.0, 0.0],
///     vec![1.1, 0.0],
///     vec![0.9, 0.1],
///     vec![9.0, 9.0], // the outlier
/// ]).unwrap();
/// let scores = OneClassSvm::with_nu(0.5).score(&samples).unwrap();
/// assert_eq!(scores.len(), samples.rows());
/// ```
///
/// Detectors are `Send + Sync` so pipelines built around them can be
/// driven from campaign worker threads (see `sentomist-core`'s campaign
/// orchestrator); all detectors here are plain value types, so the bound
/// costs implementations nothing.
pub trait OutlierDetector: Send + Sync {
    /// A short, stable identifier ("ocsvm", "pca", ...).
    fn name(&self) -> &'static str;

    /// Scores every sample; `scores[i]` corresponds to row `i`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError`] on empty input or solver failure.
    fn score(&self, samples: &FeatureMatrix) -> Result<Vec<f64>, MlError>;
}

/// Validates a sample matrix: at least `need` rows. Returns the
/// dimensionality (rectangularity is guaranteed by construction).
pub fn validate_samples(samples: &FeatureMatrix, need: usize) -> Result<usize, MlError> {
    if samples.rows() < need {
        return Err(MlError::TooFewSamples {
            got: samples.rows(),
            need,
        });
    }
    Ok(samples.cols())
}

/// Normalizes scores the way the paper's Figure 5 does: divide everything
/// by the largest positive score so the most-normal sample scores 1.0.
/// Scores are unchanged if no score is positive.
pub fn normalize_scores(scores: &mut [f64]) {
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max > 0.0 {
        for s in scores.iter_mut() {
            *s /= max;
        }
    }
}

/// Returns sample indices sorted ascending by score (most suspicious
/// first), ties broken by index for determinism. NaN scores rank after
/// every number; `-0.0` and `+0.0` tie.
pub fn rank_ascending(scores: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        let (x, y) = (scores[a], scores[b]);
        // A total order: NaN is the largest key, so no comparison is
        // ever undecided.
        x.is_nan()
            .cmp(&y.is_nan())
            .then(x.partial_cmp(&y).unwrap_or(Ordering::Equal))
            .then(a.cmp(&b))
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_makes_max_one() {
        let mut s = vec![-2.0, 0.5, 4.0];
        normalize_scores(&mut s);
        assert_eq!(s, vec![-0.5, 0.125, 1.0]);
    }

    #[test]
    fn normalize_no_positive_is_identity() {
        let mut s = vec![-3.0, -1.0];
        normalize_scores(&mut s);
        assert_eq!(s, vec![-3.0, -1.0]);
    }

    #[test]
    fn rank_is_ascending_and_stable() {
        let order = rank_ascending(&[0.5, -1.0, 0.5, -2.0]);
        assert_eq!(order, vec![3, 1, 0, 2]);
    }

    #[test]
    fn rank_puts_nan_last_and_keeps_numbers_sorted() {
        let nan = f64::NAN;
        let order = rank_ascending(&[nan, 2.0, -nan, -1.0, nan, 0.5]);
        assert_eq!(order, vec![3, 5, 1, 0, 2, 4]);
    }

    #[test]
    fn validate_catches_too_few() {
        let m = FeatureMatrix::from_rows(&[vec![1.0]]).unwrap();
        let e = validate_samples(&m, 2).unwrap_err();
        assert!(matches!(e, MlError::TooFewSamples { got: 1, need: 2 }));
    }

    #[test]
    fn validate_returns_dimension() {
        let m = FeatureMatrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap();
        assert_eq!(validate_samples(&m, 1).unwrap(), 3);
    }
}
