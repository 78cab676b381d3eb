//! # mlcore — outlier detection for Sentomist's symptom mining
//!
//! Implements Section V-C of ["Sentomist: Unveiling Transient Sensor
//! Network Bugs via Symptom Mining"](https://doi.org/10.1109/ICDCS.2010.75)
//! from scratch:
//!
//! * [`OneClassSvm`] — the paper's default detector: Schölkopf's one-class
//!   ν-SVM solved by sequential minimal optimization with
//!   maximal-violating-pair selection (the same dual LIBSVM solves);
//! * [`PcaDetector`], [`KfdDetector`] (the two methods §VI-E names),
//!   plus [`KnnDetector`], [`MahalanobisDetector`] and [`KdeDetector`] —
//!   alternative plug-ins behind the common [`OutlierDetector`] trait;
//! * [`Scaler`] — min-max feature scaling (the `svm-scale` step);
//! * [`normalize_scores`] / [`rank_ascending`] — the paper's Figure-5
//!   score normalization (largest positive score = 1) and suspicion
//!   ranking (ascending; lowest first).
//!
//! All detectors are deterministic: identical inputs yield identical
//! scores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detector;
pub mod ensemble;
pub mod evaluation;
pub mod kde;
pub mod kernel;
pub mod kfd;
pub mod knn;
pub mod linalg;
pub mod mahalanobis;
pub mod matrix;
pub mod ocsvm;
pub mod pca;
pub mod scale;

pub use detector::{normalize_scores, rank_ascending, MlError, OutlierDetector};
pub use ensemble::EnsembleDetector;
pub use evaluation::{
    average_precision, expected_random_inspections, inspections_until_all, inspections_until_first,
    pr_curve, precision_at_k, recall_at_k, roc_auc, roc_curve,
};
pub use kde::KdeDetector;
pub use kernel::{DistinctGram, Kernel};
pub use kfd::KfdDetector;
pub use knn::KnnDetector;
pub use mahalanobis::MahalanobisDetector;
pub use matrix::FeatureMatrix;
pub use ocsvm::{OcSvmConfig, OcSvmModel, OneClassSvm};
pub use pca::{PcaConfig, PcaDetector};
pub use scale::Scaler;
