//! Kernel functions for the one-class SVM.
//!
//! The paper relies on the kernel trick to let the one-class SVM find a
//! *nonlinear* boundary around the normal samples; the RBF kernel is the
//! default (as in LIBSVM, which Sentomist plugs in).
//!
//! # Gram matrices over distinct rows
//!
//! Instruction counters repeat heavily: a case-I ranking pools 1,141
//! intervals but only 41–47 distinct feature rows. [`Kernel::distinct_gram`]
//! therefore evaluates the kernel once per pair of *bitwise-distinct*
//! rows (grouped by `f64::to_bits`, so `-0.0`/`+0.0` or two NaN payloads
//! stay separate) and records which distinct row every input row is.
//! That is exact, not an approximation: bit-equal inputs give bit-equal
//! kernel values. [`Kernel::gram`] is the `l × l` expansion of that
//! matrix, so every entry is the same `eval` result the pairwise
//! definition gives (the kernels are symmetric in their arguments).

use crate::linalg::{dist_sq, dot};
use crate::matrix::FeatureMatrix;
use serde::{Deserialize, Serialize};

/// A kernel function `k(x, y)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Kernel {
    /// `k(x, y) = x · y`.
    Linear,
    /// `k(x, y) = exp(-gamma * ||x - y||²)`.
    Rbf {
        /// Width parameter; LIBSVM's default is `1 / num_features`.
        gamma: f64,
    },
    /// `k(x, y) = (gamma * x·y + coef0)^degree`.
    Poly {
        /// Scale of the inner product.
        gamma: f64,
        /// Additive constant.
        coef0: f64,
        /// Polynomial degree.
        degree: u32,
    },
}

impl Kernel {
    /// The LIBSVM-style default: RBF with `gamma = 1 / num_features`.
    pub fn rbf_default(num_features: usize) -> Kernel {
        Kernel::Rbf {
            gamma: 1.0 / (num_features.max(1) as f64),
        }
    }

    /// Evaluates the kernel.
    ///
    /// # Panics
    ///
    /// Panics if the vectors' lengths differ.
    pub fn eval(self, x: &[f64], y: &[f64]) -> f64 {
        match self {
            Kernel::Linear => dot(x, y),
            Kernel::Rbf { gamma } => (-gamma * dist_sq(x, y)).exp(),
            Kernel::Poly {
                gamma,
                coef0,
                degree,
            } => (gamma * dot(x, y) + coef0).powi(degree as i32),
        }
    }

    /// Full Gram matrix of a sample set (dense row-major, symmetric):
    /// the `l × l` expansion of [`Kernel::distinct_gram`].
    pub fn gram(self, samples: &FeatureMatrix) -> FeatureMatrix {
        self.distinct_gram(samples).expand()
    }

    /// Gram matrix over the bitwise-distinct rows of a sample set, plus
    /// the distinct id of every input row.
    ///
    /// Distinct ids follow first occurrence, so an all-distinct input
    /// gets `of[i] == i` and its `u × u` matrix is already the full Gram.
    ///
    /// ```
    /// use mlcore::{FeatureMatrix, Kernel};
    ///
    /// let pts = FeatureMatrix::from_rows(&[vec![1.0], vec![2.0], vec![1.0]]).unwrap();
    /// let dg = Kernel::Linear.distinct_gram(&pts);
    /// assert_eq!(dg.of, vec![0, 1, 0]);
    /// assert_eq!(dg.q.rows(), 2);
    /// assert_eq!(dg.expand(), Kernel::Linear.gram(&pts));
    /// ```
    pub fn distinct_gram(self, samples: &FeatureMatrix) -> DistinctGram {
        let (distinct, of) = group_rows(samples);
        let u = distinct.rows();
        let mut q = FeatureMatrix::zeros(u, u);
        for a in 0..u {
            let xa = distinct.row(a);
            for b in a..u {
                let v = self.eval(xa, distinct.row(b));
                q.set(a, b, v);
                q.set(b, a, v);
            }
        }
        DistinctGram { q, of }
    }
}

/// A Gram matrix over the distinct rows of a sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct DistinctGram {
    /// `u × u` kernel values between the distinct rows, in order of first
    /// occurrence.
    pub q: FeatureMatrix,
    /// `of[i]` is the distinct id of input row `i`, so the full Gram
    /// entry `(i, j)` is `q.get(of[i], of[j])`.
    pub of: Vec<usize>,
}

impl DistinctGram {
    /// The full `l × l` Gram matrix of the input rows.
    pub fn expand(self) -> FeatureMatrix {
        let l = self.of.len();
        if self.q.rows() == l {
            // All rows distinct: ids are the identity.
            return self.q;
        }
        let mut full = FeatureMatrix::zeros(l, l);
        for (i, &a) in self.of.iter().enumerate() {
            let src = self.q.row(a);
            for (dst, &b) in full.row_mut(i).iter_mut().zip(&self.of) {
                *dst = src[b];
            }
        }
        full
    }
}

/// Groups bitwise-equal rows: returns the distinct rows in order of
/// first occurrence, and the distinct id of every input row.
///
/// An open-addressing table keyed by a hash of the rows' bit patterns,
/// with a full-row bit compare on every probe hit; no per-row
/// allocation.
fn group_rows(samples: &FeatureMatrix) -> (FeatureMatrix, Vec<usize>) {
    let l = samples.rows();
    let mask = (2 * l).next_power_of_two().max(2) - 1;
    let mut slots = vec![usize::MAX; mask + 1];
    let mut distinct = FeatureMatrix::new(samples.cols());
    let mut of = Vec::with_capacity(l);
    for row in samples.rows_iter() {
        let mut s = row_hash(row) as usize & mask;
        let id = loop {
            match slots[s] {
                usize::MAX => {
                    slots[s] = distinct.rows();
                    distinct.push_row(row);
                    break slots[s];
                }
                id if bits_eq(distinct.row(id), row) => break id,
                _ => s = (s + 1) & mask,
            }
        };
        of.push(id);
    }
    (distinct, of)
}

/// FxHash-style mix of a row's bit patterns.
fn row_hash(row: &[f64]) -> u64 {
    let mut h = 0u64;
    for v in row {
        h = (h.rotate_left(5) ^ v.to_bits()).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    // Fold the high bits, which the multiply mixes best, into the low
    // bits the table mask keeps.
    h ^ (h >> 32)
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_dot() {
        assert_eq!(Kernel::Linear.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn rbf_identity_and_decay() {
        let k = Kernel::Rbf { gamma: 0.5 };
        assert_eq!(k.eval(&[1.0, 1.0], &[1.0, 1.0]), 1.0);
        let near = k.eval(&[0.0, 0.0], &[0.1, 0.0]);
        let far = k.eval(&[0.0, 0.0], &[2.0, 0.0]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn poly_matches_formula() {
        let k = Kernel::Poly {
            gamma: 1.0,
            coef0: 1.0,
            degree: 2,
        };
        // (1*2 + 1)^2 = 9 for x·y = 2.
        assert_eq!(k.eval(&[1.0, 1.0], &[1.0, 1.0]), 9.0);
    }

    #[test]
    fn gram_is_symmetric_with_unit_diagonal_for_rbf() {
        let pts = FeatureMatrix::from_rows(&[vec![0.0], vec![1.0], vec![3.0]]).unwrap();
        let q = Kernel::rbf_default(1).gram(&pts);
        for i in 0..3 {
            assert_eq!(q.get(i, i), 1.0);
            for j in 0..3 {
                assert_eq!(q.get(i, j), q.get(j, i));
            }
        }
    }

    #[test]
    fn distinct_gram_groups_by_bits() {
        let pts = FeatureMatrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, -0.0],
            vec![1.0, 0.0],
            vec![2.0, 0.0],
            vec![1.0, -0.0],
        ])
        .unwrap();
        let dg = Kernel::rbf_default(2).distinct_gram(&pts);
        assert_eq!(dg.of, vec![0, 1, 0, 2, 1], "±0.0 stay separate");
        assert_eq!(dg.q.rows(), 3);
        let full = dg.expand();
        for i in 0..5 {
            for j in 0..5 {
                let want = Kernel::rbf_default(2).eval(pts.row(i), pts.row(j));
                assert_eq!(full.get(i, j).to_bits(), want.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn rbf_default_gamma() {
        match Kernel::rbf_default(4) {
            Kernel::Rbf { gamma } => assert_eq!(gamma, 0.25),
            _ => unreachable!(),
        }
    }
}
