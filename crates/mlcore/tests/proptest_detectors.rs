//! Property tests for the detector suite: the one-class SVM's dual
//! constraints and ν-bound, scaler range guarantees, and ranking-utility
//! invariants, over randomized sample sets.

use mlcore::{
    normalize_scores, rank_ascending, FeatureMatrix, KdeDetector, KfdDetector, KnnDetector,
    MahalanobisDetector, OneClassSvm, OutlierDetector, PcaDetector, Scaler,
};
use proptest::prelude::*;

/// Random rectangular sample sets: n points in d dimensions, values in a
/// bounded range (instruction counters are nonnegative and bounded).
fn raw_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (4usize..40, 1usize..6).prop_flat_map(|(n, d)| {
        prop::collection::vec(prop::collection::vec(0.0f64..1000.0, d..=d), n..=n)
    })
}

fn sample_set() -> impl Strategy<Value = FeatureMatrix> {
    raw_rows().prop_map(|rows| FeatureMatrix::from_rows(&rows).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ocsvm_dual_constraints_hold(samples in sample_set(), nu in 0.2f64..0.9) {
        let svm = OneClassSvm::with_nu(nu);
        prop_assume!(nu * samples.rows() as f64 >= 1.0);
        let model = svm.fit(&samples).unwrap();
        let sum: f64 = model.alphas.iter().sum();
        prop_assert!((sum - nu * samples.rows() as f64).abs() < 1e-6,
            "sum alpha = {} vs nu*l = {}", sum, nu * samples.rows() as f64);
        for a in &model.alphas {
            prop_assert!(*a > 0.0 && *a <= 1.0 + 1e-9);
        }
        // Support-vector lower bound: at least ceil(nu*l) - small slack
        // points carry positive alpha (Schölkopf Prop. 4).
        prop_assert!(model.num_support() as f64 + 1e-9 >= nu * samples.rows() as f64);
    }

    #[test]
    fn ocsvm_nu_bounds_margin_violations(samples in sample_set()) {
        let nu = 0.3;
        let svm = OneClassSvm::with_nu(nu);
        prop_assume!(nu * samples.rows() as f64 >= 1.0);
        let scores = svm.score(&samples).unwrap();
        let margin = svm.config.tolerance * 10.0;
        let violators = scores.iter().filter(|&&s| s < -margin).count();
        prop_assert!(violators as f64 <= nu * samples.rows() as f64 + 1.0);
    }

    #[test]
    fn detectors_return_finite_scores(samples in sample_set()) {
        let detectors: Vec<Box<dyn OutlierDetector>> = vec![
            Box::new(OneClassSvm::with_nu(0.5)),
            Box::new(PcaDetector::default()),
            Box::new(KnnDetector::default()),
            Box::new(MahalanobisDetector::default()),
            Box::new(KdeDetector::default()),
            Box::new(KfdDetector::default()),
        ];
        for det in detectors {
            let scores = det.score(&samples).unwrap();
            prop_assert_eq!(scores.len(), samples.rows(), "{}", det.name());
            for s in &scores {
                prop_assert!(s.is_finite(), "{} produced {}", det.name(), s);
            }
        }
    }

    #[test]
    fn scaler_maps_fit_data_into_unit_box(samples in sample_set()) {
        let scaled = Scaler::fit_transform(&samples);
        for row in scaled.rows_iter() {
            for &v in row {
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&v));
            }
        }
    }

    #[test]
    fn scaling_is_translation_invariant_for_ranking(samples in sample_set(), shift in -500.0f64..500.0) {
        // Shifting every feature by a constant must not change the kNN
        // ranking after scaling.
        let mut shifted = samples.clone();
        for v in shifted.as_mut_slice() {
            *v += shift;
        }
        let a = KnnDetector::default()
            .score(&Scaler::fit_transform(&samples))
            .unwrap();
        let b = KnnDetector::default()
            .score(&Scaler::fit_transform(&shifted))
            .unwrap();
        // Exact rank equality can flip on floating-point ties; the scores
        // themselves must agree to within rounding.
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-6, "{} vs {}", x, y);
        }
    }

    #[test]
    fn normalize_keeps_order_and_caps_at_one(mut scores in prop::collection::vec(-100.0f64..100.0, 1..50)) {
        let before = rank_ascending(&scores);
        normalize_scores(&mut scores);
        let after = rank_ascending(&scores);
        prop_assert_eq!(before, after, "normalization must preserve order");
        let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(max <= 1.0 + 1e-12);
    }

    #[test]
    fn from_rows_row_views_round_trip(rows in raw_rows()) {
        // The migration shim must preserve every value and shape: packing
        // arbitrary rectangular input and reading it back through row
        // views reproduces the original rows bit-for-bit.
        let m = FeatureMatrix::from_rows(&rows).unwrap();
        prop_assert_eq!(m.rows(), rows.len());
        prop_assert_eq!(m.cols(), rows[0].len());
        for (view, original) in m.rows_iter().zip(&rows) {
            prop_assert_eq!(view, original.as_slice());
        }
        prop_assert_eq!(m.to_rows(), rows);
    }

    #[test]
    fn rank_ascending_is_a_sorted_permutation(scores in prop::collection::vec(-10.0f64..10.0, 0..40)) {
        let order = rank_ascending(&scores);
        let mut seen = vec![false; scores.len()];
        for &i in &order {
            prop_assert!(!seen[i]);
            seen[i] = true;
        }
        for w in order.windows(2) {
            prop_assert!(scores[w[0]] <= scores[w[1]]);
        }
    }

    #[test]
    fn rank_ascending_orders_numbers_first_and_nans_last(scores in nan_laced_scores()) {
        // Reference: the numbers by value (ties, including -0.0 vs +0.0,
        // by index), then every NaN by index.
        let (mut numbers, nans): (Vec<usize>, Vec<usize>) =
            (0..scores.len()).partition(|&i| !scores[i].is_nan());
        numbers.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap().then(a.cmp(&b)));
        numbers.extend(nans);
        prop_assert_eq!(rank_ascending(&scores), numbers);
    }
}

/// Score vectors with NaNs of both signs, signed zeros and exact ties
/// mixed among ordinary values.
fn nan_laced_scores() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            -10.0f64..10.0,
            (-3i32..3).prop_map(f64::from),
            Just(f64::NAN),
            Just(-f64::NAN),
            Just(0.0),
            Just(-0.0),
        ],
        0..60,
    )
}
