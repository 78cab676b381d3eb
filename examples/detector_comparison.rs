//! Detector ablation (paper Section VI-E): the outlier detector is a
//! plug-in — compare the one-class SVM against PCA, kNN and Mahalanobis
//! on all three case studies, reporting where each detector ranks the
//! ground-truth bug symptoms.
//!
//! Run with: `cargo run --release --example detector_comparison`

use sentomist::apps::{Case1Config, Case2Config, Case3Config, CaseResult, DetectorKind};

fn row(case: &str, kind: DetectorKind, result: &CaseResult) {
    println!(
        "{:<8} {:<12} {:>7} {:>7}   {:?}",
        case,
        kind.name(),
        result.sample_count,
        result.buggy.len(),
        result.buggy_ranks,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<8} {:<12} {:>7} {:>7}   symptom ranks (lower = better)",
        "case", "detector", "samples", "buggy"
    );
    for kind in DetectorKind::all(0.05) {
        let result = Case1Config {
            detector: kind,
            ..Case1Config::default()
        }
        .study()?
        .run()?
        .0;
        row("case-1", kind, &result);
    }
    for kind in DetectorKind::all(0.05) {
        let result = Case2Config {
            detector: kind,
            ..Case2Config::default()
        }
        .study()?
        .run()?
        .0;
        row("case-2", kind, &result);
    }
    for kind in DetectorKind::all(0.1) {
        let result = Case3Config {
            detector: kind,
            ..Case3Config::default()
        }
        .study()?
        .run()?
        .0;
        row("case-3", kind, &result);
    }
    println!(
        "\nReading: OC-SVM (the paper's choice) and the distance-based \
         detectors surface the symptoms; PCA can be *masked* when the \
         outliers themselves dominate the principal components."
    );
    Ok(())
}
