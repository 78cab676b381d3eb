//! One-class ν-SVM (Schölkopf et al., *Estimating the support of a
//! high-dimensional distribution*, Neural Computation 13(7), 2001) —
//! Sentomist's default symptom-mining detector.
//!
//! # Formulation
//!
//! With samples `x_1..x_l`, the dual solved here (the same one LIBSVM
//! solves for `-s 2`) is
//!
//! ```text
//! min_α  ½ αᵀ Q α      s.t.  0 ≤ α_i ≤ 1,  Σ α_i = ν·l
//! ```
//!
//! with `Q_ij = k(x_i, x_j)`. The decision function is
//! `f(x) = Σ_i α_i k(x_i, x) − ρ`; `ρ` is recovered from the KKT
//! conditions (free support vectors satisfy `(Qα)_i = ρ`). `f` is
//! positive on the "normal" side; Sentomist ranks intervals ascending by
//! `f`, so the most negative samples — farthest outside the estimated
//! support — are inspected first.
//!
//! ν upper-bounds the fraction of outliers (margin violators) and
//! lower-bounds the fraction of support vectors.
//!
//! # Solver
//!
//! Sequential minimal optimization with maximal-violating-pair working-set
//! selection over a Gram matrix precomputed on the *distinct* sample rows
//! ([`Kernel::distinct_gram`]). Interval features repeat heavily, so
//! `u` distinct rows are often far fewer than `l` samples: the solver
//! keeps one gradient entry per distinct row, which makes the initial
//! gradient O(u·l), each SMO update O(u) and memory O(u² + l).
//!
//! The result is bit-identical to a dense `l × l` solve. Bit-equal rows
//! have bit-equal Q rows, so by induction over the SMO steps they keep
//! bit-equal gradients; working-set selection, ρ and the decision values
//! still walk the samples in index order, so every comparison and sum
//! sees the same values in the same order.

use crate::detector::{validate_samples, MlError, OutlierDetector};
use crate::kernel::{DistinctGram, Kernel};
use crate::matrix::FeatureMatrix;
use serde::{Deserialize, Serialize};

/// One-class SVM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OcSvmConfig {
    /// ν ∈ (0, 1]: upper bound on the outlier fraction.
    pub nu: f64,
    /// The kernel; `None` selects RBF with `gamma = 1/num_features`.
    pub kernel: Option<Kernel>,
    /// KKT violation tolerance for convergence.
    pub tolerance: f64,
    /// Hard cap on SMO iterations.
    pub max_iterations: usize,
}

impl Default for OcSvmConfig {
    fn default() -> Self {
        OcSvmConfig {
            nu: 0.05,
            kernel: None,
            tolerance: 1e-4,
            max_iterations: 200_000,
        }
    }
}

/// The one-class SVM detector.
///
/// # Examples
///
/// ```
/// use mlcore::{FeatureMatrix, OneClassSvm, OutlierDetector, rank_ascending};
///
/// // A tight cluster and one far point: the far point scores lowest.
/// let mut rows: Vec<Vec<f64>> =
///     (0..40).map(|i| vec![(i % 5) as f64 * 0.1, 0.0]).collect();
/// rows.push(vec![9.0, 9.0]);
/// let samples = FeatureMatrix::from_rows(&rows)?;
/// let scores = OneClassSvm::with_nu(0.1).score(&samples)?;
/// assert_eq!(rank_ascending(&scores)[0], 40);
/// # Ok::<(), mlcore::MlError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OneClassSvm {
    /// Configuration.
    pub config: OcSvmConfig,
}

impl OneClassSvm {
    /// Creates a detector with the given ν and an RBF kernel sized to the
    /// data.
    pub fn with_nu(nu: f64) -> OneClassSvm {
        OneClassSvm {
            config: OcSvmConfig {
                nu,
                ..OcSvmConfig::default()
            },
        }
    }

    /// Fits the model and returns the full solution (dual coefficients,
    /// offset, training-point decision values).
    ///
    /// # Errors
    ///
    /// [`MlError::BadParameter`] for ν outside `(0, 1]` or `ν·l < 1`;
    /// [`MlError::TooFewSamples`] for bad input.
    pub fn fit(&self, samples: &FeatureMatrix) -> Result<OcSvmModel, MlError> {
        let d = validate_samples(samples, 2)?;
        let l = samples.rows();
        let nu = self.config.nu;
        if !(0.0..=1.0).contains(&nu) || nu <= 0.0 {
            return Err(MlError::BadParameter(format!("nu = {nu} outside (0, 1]")));
        }
        let total = nu * l as f64;
        if total < 1.0 {
            return Err(MlError::BadParameter(format!(
                "nu*l = {total:.3} < 1: too few samples for nu = {nu}"
            )));
        }
        let kernel = self.config.kernel.unwrap_or(Kernel::rbf_default(d));
        // Q_ij = q[of[i]][of[j]]: bit-equal samples share a Q row.
        let DistinctGram { q, of } = kernel.distinct_gram(samples);
        let u = q.rows();

        // LIBSVM-style initialization: the first ⌊ν·l⌋ points get α = 1,
        // the next gets the fractional remainder.
        let mut alpha = vec![0.0f64; l];
        let n_full = total.floor() as usize;
        for a in alpha.iter_mut().take(n_full.min(l)) {
            *a = 1.0;
        }
        if n_full < l {
            alpha[n_full] = total - n_full as f64;
        }

        // Gradient G = Qα, one entry per distinct row: samples with equal
        // Q rows start with equal gradients, and every update below adds
        // the same term to both, so `grad[of[k]]` is sample k's gradient.
        let mut grad = vec![0.0f64; u];
        for (a, g_out) in grad.iter_mut().enumerate() {
            let qa = q.row(a);
            let mut g = 0.0;
            for j in 0..l {
                if alpha[j] > 0.0 {
                    g += qa[of[j]] * alpha[j];
                }
            }
            *g_out = g;
        }

        let eps = self.config.tolerance;
        let tau = 1e-12;
        let mut iterations = 0usize;
        let mut converged = false;
        while iterations < self.config.max_iterations {
            iterations += 1;
            // Maximal violating pair: i maximizes -G over α_i < 1,
            // j minimizes -G over α_j > 0.
            let mut i_sel = None;
            let mut i_val = f64::NEG_INFINITY;
            let mut j_sel = None;
            let mut j_val = f64::INFINITY;
            for (k, &a) in of.iter().enumerate() {
                let g = grad[a];
                if alpha[k] < 1.0 && -g > i_val {
                    i_val = -g;
                    i_sel = Some(k);
                }
                if alpha[k] > 0.0 && -g < j_val {
                    j_val = -g;
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
            // Analytic step along (e_i - e_j). Q is symmetric, so the
            // column reads Q[k][i], Q[k][j] of the gradient update are the
            // contiguous row slices q[of[i]], q[of[j]].
            let (ui, uj) = (of[i], of[j]);
            let qi = q.row(ui);
            let qj = q.row(uj);
            let quad = (qi[ui] + qj[uj] - 2.0 * qi[uj]).max(tau);
            let mut delta = (grad[uj] - grad[ui]) / quad;
            delta = delta.min(1.0 - alpha[i]).min(alpha[j]);
            if delta <= 0.0 {
                // Degenerate (box-bound) pair; numerical convergence.
                converged = true;
                break;
            }
            alpha[i] += delta;
            alpha[j] -= delta;
            for (g, (a, b)) in grad.iter_mut().zip(qi.iter().zip(qj)) {
                *g += delta * (a - b);
            }
        }

        // ρ from the KKT conditions.
        let mut free_sum = 0.0;
        let mut free_count = 0usize;
        let mut upper = f64::INFINITY; // min G over α = 0
        let mut lower = f64::NEG_INFINITY; // max G over α = 1
        for (k, &a) in of.iter().enumerate() {
            let g = grad[a];
            if alpha[k] > 0.0 && alpha[k] < 1.0 {
                free_sum += g;
                free_count += 1;
            } else if alpha[k] <= 0.0 {
                upper = upper.min(g);
            } else {
                lower = lower.max(g);
            }
        }
        let rho = if free_count > 0 {
            free_sum / free_count as f64
        } else {
            let lo = if lower.is_finite() { lower } else { upper };
            let hi = if upper.is_finite() { upper } else { lower };
            (lo + hi) / 2.0
        };

        let decision = of.iter().map(|&a| grad[a] - rho).collect();
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
}

impl OutlierDetector for OneClassSvm {
    fn name(&self) -> &'static str {
        "ocsvm"
    }

    fn score(&self, samples: &FeatureMatrix) -> Result<Vec<f64>, MlError> {
        Ok(self.fit(samples)?.decision)
    }
}

/// A fitted one-class SVM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OcSvmModel {
    /// Support vectors, one per row, in training order.
    pub support: FeatureMatrix,
    /// Dual coefficients `α_i > 0`, aligned with the support rows.
    pub alphas: Vec<f64>,
    /// Decision offset ρ.
    pub rho: f64,
    /// The kernel used.
    pub kernel: Kernel,
    /// Decision values `f(x_i)` of the training samples.
    pub decision: Vec<f64>,
    /// SMO iterations performed.
    pub iterations: usize,
    /// Whether the solver met the KKT tolerance (vs. hitting the
    /// iteration cap).
    pub converged: bool,
}

impl OcSvmModel {
    /// Decision value `f(x)` for an arbitrary point.
    pub fn decide(&self, x: &[f64]) -> f64 {
        let sum: f64 = self
            .support
            .rows_iter()
            .zip(&self.alphas)
            .map(|(sv, a)| a * self.kernel.eval(sv, x))
            .sum();
        sum - self.rho
    }

    /// Number of support vectors.
    pub fn num_support(&self) -> usize {
        self.support.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::rank_ascending;

    /// A tight cluster plus one far outlier.
    fn cluster_with_outlier() -> FeatureMatrix {
        let mut pts: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let t = i as f64 * 0.157;
                vec![t.sin() * 0.1, t.cos() * 0.1]
            })
            .collect();
        pts.push(vec![5.0, 5.0]);
        FeatureMatrix::from_rows(&pts).unwrap()
    }

    #[test]
    fn outlier_gets_lowest_score() {
        let pts = cluster_with_outlier();
        let scores = OneClassSvm::with_nu(0.1).score(&pts).unwrap();
        let order = rank_ascending(&scores);
        assert_eq!(order[0], 40, "the far point must rank first");
        assert!(scores[40] < 0.0, "outlier on the negative side");
    }

    #[test]
    fn constraints_hold_after_solve() {
        let pts = cluster_with_outlier();
        let svm = OneClassSvm::with_nu(0.2);
        let model = svm.fit(&pts).unwrap();
        let sum: f64 = model.alphas.iter().sum();
        let expected = 0.2 * pts.rows() as f64;
        assert!(
            (sum - expected).abs() < 1e-9,
            "Σα = ν·l violated: {sum} vs {expected}"
        );
        for a in &model.alphas {
            assert!((0.0..=1.0 + 1e-12).contains(a), "box constraint: {a}");
        }
        assert_eq!(model.support.rows(), model.alphas.len());
        assert!(model.converged);
    }

    #[test]
    fn nu_bounds_outlier_fraction() {
        // At most ν·l samples may end up strictly outside (f < 0), up to
        // the solver's KKT tolerance (Schölkopf Proposition 4): free
        // support vectors sit numerically within ±tolerance of zero, so
        // count only violations clearly beyond it.
        let pts = cluster_with_outlier();
        for nu in [0.05, 0.1, 0.3] {
            let detector = OneClassSvm::with_nu(nu);
            let scores = detector.score(&pts).unwrap();
            let margin = detector.config.tolerance * 10.0;
            let outliers = scores.iter().filter(|&&s| s < -margin).count();
            let bound = (nu * pts.rows() as f64).ceil() as usize;
            assert!(
                outliers <= bound,
                "nu={nu}: {outliers} outliers > bound {bound}"
            );
        }
    }

    #[test]
    fn decide_matches_training_decision() {
        let pts = cluster_with_outlier();
        let model = OneClassSvm::with_nu(0.1).fit(&pts).unwrap();
        for (i, p) in pts.rows_iter().enumerate() {
            assert!(
                (model.decide(p) - model.decision[i]).abs() < 1e-8,
                "sample {i}"
            );
        }
    }

    #[test]
    fn two_dense_clusters_are_both_normal() {
        // The paper's requirement (Section V-B): a 1/3-vs-2/3 split of
        // normal behaviors must NOT be flagged — both modes are dense.
        let mut pts = Vec::new();
        for i in 0..30 {
            let eps = (i % 5) as f64 * 0.01;
            pts.push(vec![0.0 + eps, 0.0]);
        }
        for i in 0..15 {
            let eps = (i % 5) as f64 * 0.01;
            pts.push(vec![1.0 + eps, 1.0]);
        }
        // One true outlier far from both.
        pts.push(vec![10.0, -10.0]);
        let pts = FeatureMatrix::from_rows(&pts).unwrap();
        // ν must give the dual enough mass (ν·l ≫ 1) for ρ to exceed the
        // outlier's self-kernel term; with RBF and a vanishing
        // cross-kernel, tiny ν·l leaves isolated points on the boundary
        // instead of outside it (a property LIBSVM shares).
        let scores = OneClassSvm::with_nu(0.2).score(&pts).unwrap();
        let order = rank_ascending(&scores);
        assert_eq!(order[0], 45, "true outlier first");
        // All cluster members should score higher than the outlier.
        for i in 0..45 {
            assert!(scores[i] > scores[45]);
        }
    }

    #[test]
    fn bad_nu_rejected() {
        let pts = FeatureMatrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        assert!(matches!(
            OneClassSvm::with_nu(0.0).score(&pts),
            Err(MlError::BadParameter(_))
        ));
        assert!(matches!(
            OneClassSvm::with_nu(1.5).score(&pts),
            Err(MlError::BadParameter(_))
        ));
        // nu*l < 1.
        assert!(matches!(
            OneClassSvm::with_nu(0.01).score(&pts),
            Err(MlError::BadParameter(_))
        ));
    }

    #[test]
    fn identical_points_all_score_equal() {
        let pts = FeatureMatrix::from_rows(&vec![vec![2.0, 3.0]; 20]).unwrap();
        let scores = OneClassSvm::with_nu(0.2).score(&pts).unwrap();
        for w in scores.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9);
        }
    }

    #[test]
    fn linear_kernel_supported() {
        let mut cfg = OcSvmConfig {
            nu: 0.2,
            kernel: Some(Kernel::Linear),
            ..OcSvmConfig::default()
        };
        cfg.tolerance = 1e-6;
        let detector = OneClassSvm { config: cfg };
        let pts = FeatureMatrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.1, 0.1],
            vec![0.9, 0.0],
            vec![1.0, 0.1],
            vec![1.05, 0.02],
        ])
        .unwrap();
        let scores = detector.score(&pts).unwrap();
        assert_eq!(scores.len(), 5);
    }

    #[test]
    fn deterministic_fit() {
        let pts = cluster_with_outlier();
        let a = OneClassSvm::with_nu(0.1).fit(&pts).unwrap();
        let b = OneClassSvm::with_nu(0.1).fit(&pts).unwrap();
        assert_eq!(a.decision, b.decision);
        assert_eq!(a.rho, b.rho);
    }
}
