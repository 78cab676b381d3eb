//! Dense row-major feature storage.
//!
//! Every layer of the featurize→scale→detect→rank vertical moves samples
//! as a [`FeatureMatrix`]: one flat `Vec<f64>` of `rows × cols` values,
//! row-major, with cheap `&[f64]` row views. Compared to the ragged
//! `Vec<Vec<f64>>` it replaced, the flat layout makes Gram/kernel
//! evaluation cache-contiguous (row slices instead of pointer-chasing
//! nested vecs), eliminates per-row allocations on the rank path, and is
//! the prerequisite layout for batched/SIMD/sharded detectors.

use crate::detector::MlError;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f64` features: `rows` samples ×
/// `cols` dimensions stored in one contiguous allocation.
///
/// Rows are the unit of access: [`row`](FeatureMatrix::row) returns a
/// borrowed `&[f64]` slice, [`rows_iter`](FeatureMatrix::rows_iter)
/// walks them in order, and [`push_row`](FeatureMatrix::push_row) /
/// [`add_row`](FeatureMatrix::add_row) grow the matrix without any
/// intermediate per-row `Vec`.
///
/// ```
/// use mlcore::FeatureMatrix;
///
/// let m = FeatureMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 2);
/// assert_eq!(m.row(1), &[3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl FeatureMatrix {
    /// An empty matrix ready to accept `cols`-wide rows.
    pub fn new(cols: usize) -> FeatureMatrix {
        FeatureMatrix {
            data: Vec::new(),
            rows: 0,
            cols,
        }
    }

    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> FeatureMatrix {
        FeatureMatrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// An empty matrix with room for `rows` rows pre-reserved.
    pub fn with_capacity(rows: usize, cols: usize) -> FeatureMatrix {
        FeatureMatrix {
            data: Vec::with_capacity(rows * cols),
            rows: 0,
            cols,
        }
    }

    /// Migration shim from the ragged representation: packs `rows` into
    /// one flat allocation.
    ///
    /// # Errors
    ///
    /// [`MlError::RaggedSamples`] if the rows disagree on length;
    /// [`MlError::TooFewSamples`] if `rows` is empty (an empty matrix has
    /// no inferable width — use [`FeatureMatrix::new`] instead).
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<FeatureMatrix, MlError> {
        let first = rows
            .first()
            .ok_or(MlError::TooFewSamples { got: 0, need: 1 })?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(MlError::RaggedSamples);
            }
            data.extend_from_slice(row);
        }
        Ok(FeatureMatrix {
            data,
            rows: rows.len(),
            cols,
        })
    }

    /// Builds from a pre-flattened row-major buffer.
    ///
    /// # Errors
    ///
    /// [`MlError::BadParameter`] if `data.len()` is not a multiple of
    /// `cols` (or `cols` is zero while data is not empty).
    pub fn from_flat(data: Vec<f64>, cols: usize) -> Result<FeatureMatrix, MlError> {
        if cols == 0 {
            if !data.is_empty() {
                return Err(MlError::BadParameter(
                    "zero-width matrix with nonzero data".into(),
                ));
            }
            return Ok(FeatureMatrix::new(0));
        }
        if !data.len().is_multiple_of(cols) {
            return Err(MlError::BadParameter(format!(
                "flat buffer of {} values is not a multiple of {} columns",
                data.len(),
                cols
            )));
        }
        let rows = data.len() / cols;
        Ok(FeatureMatrix { data, rows, cols })
    }

    /// Number of rows (samples).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (feature dimensions).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Borrowed view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Entry at (`i`, `j`).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Sets entry (`i`, `j`).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Iterates rows in order as `&[f64]` slices.
    pub fn rows_iter(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// Appends a row by copying from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != cols()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.cols,
            "pushed row of width {} onto a {}-column matrix",
            row.len(),
            self.cols
        );
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Appends a zero row and hands back a mutable view of it, so
    /// producers (e.g. the trace counter table) can write features
    /// directly into the matrix with no intermediate allocation.
    pub fn add_row(&mut self) -> &mut [f64] {
        self.data.resize(self.data.len() + self.cols, 0.0);
        self.rows += 1;
        let start = (self.rows - 1) * self.cols;
        &mut self.data[start..]
    }

    /// Appends every row of `other` (one bulk copy). A matrix with no
    /// rows adopts `other`'s width, so pooling can start from
    /// `FeatureMatrix::new(0)`.
    ///
    /// # Panics
    ///
    /// Panics if both matrices have rows and their widths differ.
    pub fn append(&mut self, other: &FeatureMatrix) {
        if self.rows == 0 {
            self.cols = other.cols;
        }
        assert_eq!(
            other.cols, self.cols,
            "appended a {}-column matrix onto a {}-column matrix",
            other.cols, self.cols
        );
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// The flat row-major backing buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the flat backing buffer (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Copies the matrix back out as ragged rows (test/debug aid; the
    /// inverse of [`FeatureMatrix::from_rows`]).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.rows_iter().map(|r| r.to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let m = FeatureMatrix::from_rows(&rows).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.to_rows(), rows);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let e = FeatureMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert_eq!(e, MlError::RaggedSamples);
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(matches!(
            FeatureMatrix::from_rows(&[]),
            Err(MlError::TooFewSamples { got: 0, need: 1 })
        ));
    }

    #[test]
    fn push_and_add_row_grow_in_place() {
        let mut m = FeatureMatrix::new(2);
        m.push_row(&[1.0, 2.0]);
        m.add_row().copy_from_slice(&[3.0, 4.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn append_pools_rows_and_adopts_width() {
        let mut pooled = FeatureMatrix::new(0);
        pooled.append(&FeatureMatrix::from_rows(&[vec![1.0, 2.0]]).unwrap());
        pooled.append(&FeatureMatrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap());
        assert_eq!(pooled.rows(), 3);
        assert_eq!(pooled.cols(), 2);
        assert_eq!(pooled.row(2), &[5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "appended a 3-column matrix")]
    fn append_rejects_width_mismatch() {
        let mut m = FeatureMatrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        m.append(&FeatureMatrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap());
    }

    #[test]
    fn get_set_are_row_major() {
        let mut m = FeatureMatrix::zeros(2, 3);
        m.set(1, 2, 9.0);
        assert_eq!(m.get(1, 2), 9.0);
        assert_eq!(m.as_slice()[5], 9.0);
    }

    #[test]
    fn from_flat_checks_divisibility() {
        assert!(FeatureMatrix::from_flat(vec![1.0, 2.0, 3.0], 2).is_err());
        let m = FeatureMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2).unwrap();
        assert_eq!(m.rows(), 2);
    }

    #[test]
    fn rows_iter_is_exact() {
        let m = FeatureMatrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let it = m.rows_iter();
        assert_eq!(it.len(), 3);
        let collected: Vec<f64> = it.map(|r| r[0]).collect();
        assert_eq!(collected, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn zero_width_matrix_iterates_empty_rows() {
        let m = FeatureMatrix::new(0);
        assert_eq!(m.rows(), 0);
        assert!(m.rows_iter().next().is_none());
    }
}
