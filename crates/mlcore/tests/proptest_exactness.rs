//! Exactness gate for the distinct-row Gram and solver.
//!
//! `Kernel::distinct_gram` evaluates the kernel once per pair of
//! bitwise-distinct rows, and `OneClassSvm::fit` keeps one gradient entry
//! per distinct row. Both claim to be exact, not approximate. These
//! properties check that claim against references that do not share the
//! code under test: naive pairwise `eval` for the Gram, and a verbatim
//! copy of the dense `l × l` SMO solver the distinct-row one replaced.
//! Every fit is also checked against the ν-SVM's KKT conditions, an
//! oracle that depends on no earlier output at all.
//!
//! Rows are drawn from a small palette so duplicates dominate, as they do
//! in real interval features, and the palette always carries two
//! near-twins of its first row: one a single ulp away in one coordinate,
//! one with the sign of every zero flipped.

use mlcore::detector::validate_samples;
use mlcore::{FeatureMatrix, Kernel, MlError, OcSvmConfig, OcSvmModel, OneClassSvm};
use proptest::prelude::*;

/// Palette values: both zeros, and 1.0 next to the float one ulp above it.
const VALUES: [f64; 8] = [
    0.0,
    -0.0,
    1.0,
    1.000_000_000_000_000_2,
    0.5,
    0.25,
    3.0,
    1e-3,
];

fn value() -> impl Strategy<Value = f64> {
    prop_oneof![(0..VALUES.len()).prop_map(|i| VALUES[i]), 0.0f64..1.0]
}

/// `l` rows in `d` dimensions, each a copy of one of `p + 2` palette rows.
fn duplicate_heavy() -> impl Strategy<Value = FeatureMatrix> {
    (1usize..4, 1usize..6, 2usize..80)
        .prop_flat_map(|(d, p, l)| {
            (
                prop::collection::vec(prop::collection::vec(value(), d), p),
                prop::collection::vec(0..p + 2, l),
                0..d,
            )
        })
        .prop_map(|(mut palette, picks, coord)| {
            let mut ulp = palette[0].clone();
            ulp[coord] = f64::from_bits(ulp[coord].to_bits() + 1);
            let flipped = palette[0]
                .iter()
                .map(|&v| if v == 0.0 { -v } else { v })
                .collect();
            palette.push(ulp);
            palette.push(flipped);
            let rows: Vec<Vec<f64>> = picks.iter().map(|&k| palette[k].clone()).collect();
            FeatureMatrix::from_rows(&rows).unwrap()
        })
}

fn kernels(gamma: f64) -> [Kernel; 3] {
    [
        Kernel::Rbf { gamma },
        Kernel::Linear,
        Kernel::Poly {
            gamma,
            coef0: 1.0,
            degree: 2,
        },
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    bits(a) == bits(b)
}

/// The dense Gram the distinct-row one replaced, verbatim.
fn dense_gram(kernel: Kernel, samples: &FeatureMatrix) -> FeatureMatrix {
    let l = samples.rows();
    let mut q = FeatureMatrix::zeros(l, l);
    for i in 0..l {
        let xi = samples.row(i);
        for j in i..l {
            let v = kernel.eval(xi, samples.row(j));
            q.set(i, j, v);
            q.set(j, i, v);
        }
    }
    q
}

/// The dense `l × l` SMO solver the distinct-row one replaced, verbatim
/// apart from taking its configuration as an argument.
#[allow(clippy::needless_range_loop)]
fn dense_fit(config: &OcSvmConfig, samples: &FeatureMatrix) -> Result<OcSvmModel, MlError> {
    let d = validate_samples(samples, 2)?;
    let l = samples.rows();
    let nu = config.nu;
    if !(0.0..=1.0).contains(&nu) || nu <= 0.0 {
        return Err(MlError::BadParameter(format!("nu = {nu} outside (0, 1]")));
    }
    let total = nu * l as f64;
    if total < 1.0 {
        return Err(MlError::BadParameter(format!(
            "nu*l = {total:.3} < 1: too few samples for nu = {nu}"
        )));
    }
    let kernel = config.kernel.unwrap_or(Kernel::rbf_default(d));
    let q = dense_gram(kernel, samples);

    let mut alpha = vec![0.0f64; l];
    let n_full = total.floor() as usize;
    for a in alpha.iter_mut().take(n_full.min(l)) {
        *a = 1.0;
    }
    if n_full < l {
        alpha[n_full] = total - n_full as f64;
    }

    let mut grad = vec![0.0f64; l];
    for (i, g_out) in grad.iter_mut().enumerate() {
        let qi = q.row(i);
        let mut g = 0.0;
        for j in 0..l {
            if alpha[j] > 0.0 {
                g += qi[j] * alpha[j];
            }
        }
        *g_out = g;
    }

    let eps = config.tolerance;
    let tau = 1e-12;
    let mut iterations = 0usize;
    let mut converged = false;
    while iterations < config.max_iterations {
        iterations += 1;
        let mut i_sel = None;
        let mut i_val = f64::NEG_INFINITY;
        let mut j_sel = None;
        let mut j_val = f64::INFINITY;
        for k in 0..l {
            if alpha[k] < 1.0 && -grad[k] > i_val {
                i_val = -grad[k];
                i_sel = Some(k);
            }
            if alpha[k] > 0.0 && -grad[k] < j_val {
                j_val = -grad[k];
                j_sel = Some(k);
            }
        }
        let (Some(i), Some(j)) = (i_sel, j_sel) else {
            converged = true;
            break;
        };
        if i_val - j_val < eps {
            converged = true;
            break;
        }
        let qi = q.row(i);
        let qj = q.row(j);
        let quad = (qi[i] + qj[j] - 2.0 * qi[j]).max(tau);
        let mut delta = (grad[j] - grad[i]) / quad;
        delta = delta.min(1.0 - alpha[i]).min(alpha[j]);
        if delta <= 0.0 {
            converged = true;
            break;
        }
        alpha[i] += delta;
        alpha[j] -= delta;
        for k in 0..l {
            grad[k] += delta * (qi[k] - qj[k]);
        }
    }

    let mut free_sum = 0.0;
    let mut free_count = 0usize;
    let mut upper = f64::INFINITY;
    let mut lower = f64::NEG_INFINITY;
    for k in 0..l {
        if alpha[k] > 0.0 && alpha[k] < 1.0 {
            free_sum += grad[k];
            free_count += 1;
        } else if alpha[k] <= 0.0 {
            upper = upper.min(grad[k]);
        } else {
            lower = lower.max(grad[k]);
        }
    }
    let rho = if free_count > 0 {
        free_sum / free_count as f64
    } else {
        let lo = if lower.is_finite() { lower } else { upper };
        let hi = if upper.is_finite() { upper } else { lower };
        (lo + hi) / 2.0
    };

    let decision = grad.iter().map(|&g| g - rho).collect();
    let mut support = FeatureMatrix::new(samples.cols());
    let mut alphas = Vec::new();
    for (i, &a) in alpha.iter().enumerate() {
        if a > 0.0 {
            support.push_row(samples.row(i));
            alphas.push(a);
        }
    }
    Ok(OcSvmModel {
        support,
        alphas,
        rho,
        kernel,
        decision,
        iterations,
        converged,
    })
}

/// Per-sample α of a fitted model. The support rows are the samples with
/// α > 0, in training order, so they are matched to the samples greedily.
/// Where bit-equal samples make the match ambiguous, the candidates share
/// one decision value, so every match gives the same KKT checks.
fn per_sample_alpha(model: &OcSvmModel, samples: &FeatureMatrix) -> Vec<f64> {
    let mut alpha = vec![0.0; samples.rows()];
    let mut next = 0;
    for (k, row) in samples.rows_iter().enumerate() {
        if next < model.num_support() && same_bits(model.support.row(next), row) {
            alpha[k] = model.alphas[next];
            next += 1;
        }
    }
    assert_eq!(
        next,
        model.num_support(),
        "support rows are not a subsequence"
    );
    alpha
}

/// The ν-SVM's optimality conditions on a converged fit: Σα = ν·l,
/// 0 ≤ α ≤ 1, and f ≥ 0 where α = 0, f ≤ 0 where α = 1, f = 0 on free
/// support vectors, each to the solver's tolerance.
fn check_kkt(model: &OcSvmModel, samples: &FeatureMatrix, nu: f64, tolerance: f64) {
    let l = samples.rows();
    let alpha = per_sample_alpha(model, samples);
    let sum: f64 = alpha.iter().sum();
    assert!(
        (sum - nu * l as f64).abs() <= 1e-9 * l as f64,
        "Σα = {sum} vs ν·l = {}",
        nu * l as f64
    );
    if !model.converged {
        return;
    }
    let slack = tolerance + 1e-9 * (1.0 + model.rho.abs());
    for (k, (&a, &f)) in alpha.iter().zip(&model.decision).enumerate() {
        assert!((0.0..=1.0).contains(&a), "α[{k}] = {a} outside the box");
        if a == 0.0 {
            assert!(f >= -slack, "α[{k}] = 0 but f = {f}");
        } else if a == 1.0 {
            assert!(f <= slack, "α[{k}] = 1 but f = {f}");
        } else {
            assert!(f.abs() <= slack, "free α[{k}] = {a} but f = {f}");
        }
    }
}

/// Number of bitwise-distinct rows, by brute force.
fn distinct_rows(samples: &FeatureMatrix) -> usize {
    (0..samples.rows())
        .filter(|&i| (0..i).all(|j| !same_bits(samples.row(i), samples.row(j))))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn distinct_gram_expands_to_pairwise_eval(samples in duplicate_heavy(), gamma in 0.01f64..4.0) {
        let l = samples.rows();
        for kernel in kernels(gamma) {
            let dg = kernel.distinct_gram(&samples);
            prop_assert_eq!(dg.of.len(), l);
            prop_assert_eq!(dg.q.rows(), distinct_rows(&samples));
            let full = dg.expand();
            prop_assert!(same_bits(kernel.gram(&samples).as_slice(), full.as_slice()));
            for i in 0..l {
                for j in 0..l {
                    let want = kernel.eval(samples.row(i), samples.row(j));
                    prop_assert_eq!(full.get(i, j).to_bits(), want.to_bits(),
                        "{:?} entry ({}, {})", kernel, i, j);
                }
            }
        }
    }

    #[test]
    fn fit_matches_the_dense_solver_bit_for_bit(
        samples in duplicate_heavy(),
        nu in 0.05f64..1.0,
        gamma in 0.01f64..4.0,
    ) {
        prop_assume!(nu * samples.rows() as f64 >= 1.0);
        let kernels = kernels(gamma).map(Some);
        for kernel in kernels.into_iter().chain([None]) {
            let config = OcSvmConfig { nu, kernel, ..OcSvmConfig::default() };
            let got = OneClassSvm { config }.fit(&samples).unwrap();
            let want = dense_fit(&config, &samples).unwrap();
            prop_assert!(same_bits(&got.decision, &want.decision), "{:?} decision", kernel);
            prop_assert_eq!(got.rho.to_bits(), want.rho.to_bits(), "{:?} rho", kernel);
            prop_assert!(same_bits(&got.alphas, &want.alphas), "{:?} alphas", kernel);
            prop_assert_eq!(got.iterations, want.iterations, "{:?} iterations", kernel);
            prop_assert_eq!(got.converged, want.converged, "{:?} converged", kernel);
            prop_assert!(same_bits(got.support.as_slice(), want.support.as_slice()));
            prop_assert_eq!(got.kernel, want.kernel);
            check_kkt(&got, &samples, nu, config.tolerance);
        }
    }
}
