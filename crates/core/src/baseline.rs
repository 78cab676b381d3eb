//! Baseline-model monitoring: fit the one-class SVM (plus its feature
//! scaler) on a trusted reference run, persist it, and score intervals of
//! *later* runs against the frozen boundary.
//!
//! Batch mining ranks a sample set against itself, which is right for
//! testing campaigns; in regression testing one instead wants "does
//! today's build behave like the known-good run?" — a frozen baseline
//! answers that without re-fitting, and scores stay comparable across
//! runs.

use crate::pipeline::PipelineError;
use crate::sample::SampleSet;
use mlcore::{rank_ascending, MlError, OcSvmModel, OneClassSvm, Scaler};
use serde::{Deserialize, Serialize};

/// A frozen reference model: scaler + fitted one-class SVM.
///
/// # Examples
///
/// ```
/// use mlcore::FeatureMatrix;
/// use sentomist_core::{baseline::BaselineModel, SampleIndex, SampleMeta, SampleSet};
/// # use sentomist_trace::EventInterval;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let interval = EventInterval { irq: 0, start_index: 0, end_index: 1,
/// #     last_run_index: None, start_cycle: 0, end_cycle: 1, task_count: 0 };
/// let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![10.0 + (i % 3) as f64, 5.0]).collect();
/// let reference = SampleSet {
///     meta: (0..40)
///         .map(|seq| SampleMeta { index: SampleIndex::Seq(seq), interval })
///         .collect(),
///     features: FeatureMatrix::from_rows(&rows)?,
/// };
/// let model = BaselineModel::fit(&reference, 0.1)?;
/// // A later run's interval that matches the baseline scores high...
/// let normal = model.score(&[10.0, 5.0]);
/// // ...and a deviating one scores lower.
/// let weird = model.score(&[80.0, -3.0]);
/// assert!(weird < normal);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineModel {
    scaler: Scaler,
    model: OcSvmModel,
    /// Feature dimensionality (program length) the model was fit on.
    pub dimension: usize,
}

impl BaselineModel {
    /// Fits a baseline on a reference sample set with the given ν.
    ///
    /// # Errors
    ///
    /// [`PipelineError::NoSamples`] on an empty set;
    /// [`PipelineError::Detector`] if the solver fails.
    pub fn fit(reference: &SampleSet, nu: f64) -> Result<BaselineModel, PipelineError> {
        if reference.is_empty() {
            return Err(PipelineError::NoSamples);
        }
        let dimension = reference.features.cols();
        let scaler = Scaler::fit(&reference.features);
        let mut scaled = reference.features.clone();
        scaler.transform_in_place(&mut scaled);
        let model = OneClassSvm::with_nu(nu)
            .fit(&scaled)
            .map_err(PipelineError::Detector)?;
        Ok(BaselineModel {
            scaler,
            model,
            dimension,
        })
    }

    /// Signed decision value of one (raw, unscaled) instruction counter:
    /// positive = consistent with the baseline, negative = outside it.
    ///
    /// # Panics
    ///
    /// Panics if the feature dimension differs from the fitted one.
    pub fn score(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.dimension, "dimension mismatch");
        self.model.decide(&self.scaler.transform(features))
    }

    /// Scores a later run's sample set, returning `(row, score)` pairs in
    /// [`rank_ascending`] order: most deviating first, ties by row.
    ///
    /// # Errors
    ///
    /// [`MlError::RaggedSamples`] if a non-empty set's feature width
    /// differs from the fitted one.
    pub fn screen(&self, samples: &SampleSet) -> Result<Vec<(usize, f64)>, MlError> {
        if !samples.is_empty() && samples.features.cols() != self.dimension {
            return Err(MlError::RaggedSamples);
        }
        let scores: Vec<f64> = samples
            .features
            .rows_iter()
            .map(|row| self.score(row))
            .collect();
        Ok(rank_ascending(&scores)
            .into_iter()
            .map(|i| (i, scores[i]))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::tests::set;

    fn reference_rows() -> Vec<Vec<f64>> {
        (0..40)
            .map(|i| vec![100.0 + (i % 4) as f64, 7.0, (i % 3) as f64])
            .collect()
    }

    fn reference() -> SampleSet {
        set(&reference_rows())
    }

    #[test]
    fn deviating_sample_scores_below_conforming_one() {
        let model = BaselineModel::fit(&reference(), 0.1).unwrap();
        let normal = model.score(&[101.0, 7.0, 1.0]);
        let weird = model.score(&[101.0, 7.0, 40.0]);
        assert!(weird < normal, "{weird} !< {normal}");
    }

    #[test]
    fn screen_ranks_a_later_run() {
        let model = BaselineModel::fit(&reference(), 0.1).unwrap();
        let mut later = reference_rows();
        later.push(vec![160.0, 7.0, 9.0]);
        let screened = model.screen(&set(&later)).unwrap();
        assert_eq!(screened[0].0, 40, "the injected deviant screens first");
    }

    #[test]
    fn round_trips_through_json() {
        // serde_json's default float parsing may be off by one ulp (its
        // `float_roundtrip` feature is off), so the contract is scoring
        // agreement within rounding, not bitwise struct equality.
        let model = BaselineModel::fit(&reference(), 0.1).unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let back: BaselineModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.dimension, model.dimension);
        for x in [[100.0, 7.0, 2.0], [102.0, 7.0, 0.0], [140.0, 9.0, 5.0]] {
            assert!((back.score(&x) - model.score(&x)).abs() < 1e-9);
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let model = BaselineModel::fit(&reference(), 0.1).unwrap();
        assert!(model.screen(&set(&[vec![1.0]])).is_err());
    }

    #[test]
    fn empty_reference_rejected() {
        assert!(matches!(
            BaselineModel::fit(&SampleSet::empty(), 0.1),
            Err(PipelineError::NoSamples)
        ));
    }
}
