//! The symptom-mining pipeline: scale → detect → normalize → rank.
//!
//! The rank path operates on a [`SampleSet`] — a dense row-major feature
//! matrix plus per-sample metadata. Scaling transforms the matrix in
//! place and the detector reads contiguous row slices, so no feature row
//! is cloned anywhere between harvesting and the final report.

use crate::report::{RankedSample, Report};
use crate::sample::SampleSet;
use mlcore::{normalize_scores, rank_ascending, MlError, OneClassSvm, OutlierDetector, Scaler};
use std::error::Error;
use std::fmt;

/// Pipeline failure.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// No samples were supplied.
    NoSamples,
    /// The plug-in detector failed.
    Detector(MlError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::NoSamples => f.write_str("no samples to rank"),
            PipelineError::Detector(e) => write!(f, "detector failed: {e}"),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Detector(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MlError> for PipelineError {
    fn from(e: MlError) -> Self {
        PipelineError::Detector(e)
    }
}

/// The back-end of Sentomist: feeds instruction counters to a plug-in
/// outlier detector and ranks the intervals by suspicion.
///
/// # Examples
///
/// ```
/// use mlcore::{FeatureMatrix, OneClassSvm};
/// use sentomist_core::{Pipeline, SampleIndex, SampleMeta, SampleSet};
/// # use sentomist_trace::EventInterval;
/// # let interval = EventInterval { irq: 0, start_index: 0, end_index: 1,
/// #     last_run_index: None, start_cycle: 0, end_cycle: 1, task_count: 0 };
///
/// let mut rows: Vec<Vec<f64>> = (0..30).map(|i| vec![10.0, (i % 3) as f64]).collect();
/// rows.push(vec![55.0, 9.0]); // the odd one out
/// let samples = SampleSet {
///     meta: (1..=31)
///         .map(|seq| SampleMeta { index: SampleIndex::Seq(seq), interval })
///         .collect(),
///     features: FeatureMatrix::from_rows(&rows)?,
/// };
/// let pipeline = Pipeline::new(Box::new(OneClassSvm::with_nu(0.1)));
/// let report = pipeline.rank_set(samples)?;
/// assert_eq!(report.ranking[0].index, SampleIndex::Seq(31));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Pipeline {
    detector: Box<dyn OutlierDetector>,
    scale: bool,
}

impl Pipeline {
    /// Creates a pipeline with the given detector and min-max scaling on.
    pub fn new(detector: Box<dyn OutlierDetector>) -> Pipeline {
        Pipeline {
            detector,
            scale: true,
        }
    }

    /// The paper's default configuration: one-class SVM (RBF, ν as given)
    /// over min-max-scaled counters.
    pub fn default_ocsvm(nu: f64) -> Pipeline {
        Pipeline::new(Box::new(OneClassSvm::with_nu(nu)))
    }

    /// Disables feature scaling (for ablation).
    pub fn without_scaling(mut self) -> Pipeline {
        self.scale = false;
        self
    }

    /// The plug-in detector's name.
    pub fn detector_name(&self) -> &'static str {
        self.detector.name()
    }

    /// Scores and ranks a sample set, most suspicious first. Scores are
    /// normalized so the largest positive score is 1 (the paper's Figure-5
    /// convention).
    ///
    /// Takes the set by value: the scaled path min-max-transforms the
    /// feature matrix **in place** and the unscaled path hands the matrix
    /// to the detector as-is — no feature row is copied either way.
    ///
    /// # Errors
    ///
    /// [`PipelineError::NoSamples`] on an empty set;
    /// [`PipelineError::Detector`] if the detector fails.
    pub fn rank_set(&self, mut samples: SampleSet) -> Result<Report, PipelineError> {
        if samples.is_empty() {
            return Err(PipelineError::NoSamples);
        }
        if self.scale {
            let scaler = Scaler::fit(&samples.features);
            scaler.transform_in_place(&mut samples.features);
        }
        let mut scores = self.detector.score(&samples.features)?;
        normalize_scores(&mut scores);
        let order = rank_ascending(&scores);
        let ranking = order
            .into_iter()
            .map(|i| RankedSample {
                index: samples.meta[i].index,
                score: scores[i],
                interval: samples.meta[i].interval,
            })
            .collect();
        Ok(Report {
            detector: self.detector.name().to_string(),
            ranking,
        })
    }
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("detector", &self.detector.name())
            .field("scale", &self.scale)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::tests::set;
    use crate::sample::SampleIndex;

    fn cluster_plus_outlier() -> SampleSet {
        let mut rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![100.0 + (i % 4) as f64, 50.0, (i % 3) as f64])
            .collect();
        rows.push(vec![200.0, 50.0, 9.0]);
        set(&rows)
    }

    #[test]
    fn outlier_ranks_first_and_scores_normalized() {
        let report = Pipeline::default_ocsvm(0.1)
            .rank_set(cluster_plus_outlier())
            .unwrap();
        assert_eq!(report.ranking[0].index, SampleIndex::Seq(41));
        let max = report
            .ranking
            .iter()
            .map(|r| r.score)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((max - 1.0).abs() < 1e-9, "largest positive score is 1");
        assert!(report.ranking[0].score < report.ranking.last().unwrap().score);
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(
            Pipeline::default_ocsvm(0.1)
                .rank_set(SampleSet::empty())
                .unwrap_err(),
            PipelineError::NoSamples
        );
    }

    #[test]
    fn alternative_detectors_plug_in() {
        // Cluster with two perfectly correlated dimensions; the outlier
        // breaks the correlation (stays in range, so scaling does not mask
        // it) — a shape every detector family should flag.
        let mut rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let t = (i % 5) as f64;
                vec![100.0 + t, 50.0, 10.0 + t]
            })
            .collect();
        rows.push(vec![103.0, 50.0, 2.0]);
        let samples = set(&rows);
        for det in [
            Box::new(mlcore::KnnDetector::default()) as Box<dyn OutlierDetector>,
            Box::new(mlcore::PcaDetector::default()),
            Box::new(mlcore::MahalanobisDetector::default()),
            Box::new(mlcore::OneClassSvm::with_nu(0.1)),
        ] {
            let name = det.name();
            let report = Pipeline::new(det).rank_set(samples.clone()).unwrap();
            assert_eq!(
                report.ranking[0].index,
                SampleIndex::Seq(41),
                "detector {name} should still find the outlier"
            );
            assert_eq!(report.detector, name);
        }
    }

    #[test]
    fn scaling_ablation_changes_nothing_for_prescaled_data() {
        // Features already in [0,1]: scaled and unscaled agree on ranking.
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 2) as f64 * 0.01, 0.5])
            .chain(std::iter::once(vec![1.0, 0.0]))
            .collect();
        let samples = set(&rows);
        let with = Pipeline::default_ocsvm(0.1)
            .rank_set(samples.clone())
            .unwrap();
        let without = Pipeline::default_ocsvm(0.1)
            .without_scaling()
            .rank_set(samples)
            .unwrap();
        assert_eq!(with.ranking[0].index, without.ranking[0].index);
    }

    #[test]
    fn deterministic_ranking() {
        let a = Pipeline::default_ocsvm(0.1)
            .rank_set(cluster_plus_outlier())
            .unwrap();
        let b = Pipeline::default_ocsvm(0.1)
            .rank_set(cluster_plus_outlier())
            .unwrap();
        let ia: Vec<_> = a.ranking.iter().map(|r| r.index).collect();
        let ib: Vec<_> = b.ranking.iter().map(|r| r.index).collect();
        assert_eq!(ia, ib);
    }
}
