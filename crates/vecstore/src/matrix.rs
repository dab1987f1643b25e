//! Row-major dense matrix of `f32` vectors.
//!
//! [`VectorSet`] is the canonical container for a descriptor collection.  All
//! clustering algorithms in the workspace take `&VectorSet` and address
//! samples by row index, which keeps membership bookkeeping (`cluster label of
//! sample i`) trivially indexable.

use crate::error::{Error, Result};

/// An owned, row-major `n × d` matrix of `f32` values.
///
/// The storage is a single contiguous `Vec<f32>` so row access is a cheap
/// slice operation and the whole set can be handed to I/O routines without
/// copies.
#[derive(Clone, Debug, PartialEq)]
pub struct VectorSet {
    data: Vec<f32>,
    dim: usize,
}

impl VectorSet {
    /// Creates a vector set from a flat buffer laid out row-major.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `data.len()` is not a multiple
    /// of `dim`, and [`Error::EmptyInput`] if `dim == 0`.
    pub fn from_flat(data: Vec<f32>, dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(Error::EmptyInput("dimension must be non-zero"));
        }
        if data.len() % dim != 0 {
            return Err(Error::DimensionMismatch {
                expected: dim,
                found: data.len() % dim,
            });
        }
        Ok(Self { data, dim })
    }

    /// Creates a vector set from a list of equally sized rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyInput`] when `rows` is empty and
    /// [`Error::DimensionMismatch`] when rows disagree in length.
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Result<Self> {
        let first = rows.first().ok_or(Error::EmptyInput("rows"))?;
        let dim = first.len();
        if dim == 0 {
            return Err(Error::EmptyInput("dimension must be non-zero"));
        }
        let mut data = Vec::with_capacity(rows.len() * dim);
        for row in &rows {
            if row.len() != dim {
                return Err(Error::DimensionMismatch {
                    expected: dim,
                    found: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self { data, dim })
    }

    /// Creates an all-zero vector set with `n` rows of dimensionality `dim`.
    pub fn zeros(n: usize, dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(Error::EmptyInput("dimension must be non-zero"));
        }
        Ok(Self {
            data: vec![0.0; n * dim],
            dim,
        })
    }

    /// Number of rows (samples).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// `true` when the set holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality `d` of every row.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow row `i` as a slice of length [`Self::dim`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`; use [`Self::try_row`] for a fallible
    /// variant.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        let d = self.dim;
        &self.data[i * d..(i + 1) * d]
    }

    /// Fallible row access.
    pub fn try_row(&self, i: usize) -> Result<&[f32]> {
        if i >= self.len() {
            return Err(Error::IndexOutOfBounds {
                index: i,
                len: self.len(),
            });
        }
        Ok(self.row(i))
    }

    /// Mutable access to row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let d = self.dim;
        &mut self.data[i * d..(i + 1) * d]
    }

    /// The whole backing buffer, row-major.
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Consumes the set and returns the backing buffer.
    pub fn into_flat(self) -> Vec<f32> {
        self.data
    }

    /// Iterator over rows in index order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f32]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// Returns a new set containing the rows selected by `indices`, in order.
    ///
    /// Duplicate indices are allowed (the row is copied twice), which the
    /// bootstrap-style samplers rely on.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] for any out-of-range index.
    pub fn gather(&self, indices: &[usize]) -> Result<Self> {
        let mut data = Vec::with_capacity(indices.len() * self.dim);
        for &i in indices {
            if i >= self.len() {
                return Err(Error::IndexOutOfBounds {
                    index: i,
                    len: self.len(),
                });
            }
            data.extend_from_slice(self.row(i));
        }
        Ok(Self {
            data,
            dim: self.dim,
        })
    }

    /// Appends a row to the set.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when the row length differs from
    /// [`Self::dim`].
    pub fn push_row(&mut self, row: &[f32]) -> Result<()> {
        if row.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                found: row.len(),
            });
        }
        self.data.extend_from_slice(row);
        Ok(())
    }

    /// Splits the set into two: rows `[0, at)` and rows `[at, n)`.
    ///
    /// Used by the harness to carve a query set off a base set.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] when `at > self.len()`.
    pub fn split_at(&self, at: usize) -> Result<(Self, Self)> {
        if at > self.len() {
            return Err(Error::IndexOutOfBounds {
                index: at,
                len: self.len(),
            });
        }
        let head = Self {
            data: self.data[..at * self.dim].to_vec(),
            dim: self.dim,
        };
        let tail = Self {
            data: self.data[at * self.dim..].to_vec(),
            dim: self.dim,
        };
        Ok((head, tail))
    }

    /// Computes the arithmetic mean of all rows (the global centroid).
    ///
    /// Returns `None` for an empty set.
    pub fn mean(&self) -> Option<Vec<f32>> {
        if self.is_empty() {
            return None;
        }
        let n = self.len() as f64;
        let mut acc = vec![0.0f64; self.dim];
        for row in self.rows() {
            for (a, &x) in acc.iter_mut().zip(row) {
                *a += f64::from(x);
            }
        }
        Some(acc.into_iter().map(|a| (a / n) as f32).collect())
    }

    /// Checks that every component is finite.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] naming the first NaN or infinity in
    /// row-major order.
    pub fn check_finite(&self) -> Result<()> {
        self.rows()
            .enumerate()
            .try_for_each(|(i, row)| check_finite_row(i, row))
    }
}

/// The row-level twin of [`VectorSet::check_finite`]: checks that every
/// component of `values`, reported as row `row`, is finite.
///
/// # Errors
///
/// Returns [`Error::NonFinite`] naming the first NaN or infinity.
pub fn check_finite_row(row: usize, values: &[f32]) -> Result<()> {
    match values.iter().position(|v| !v.is_finite()) {
        Some(column) => Err(Error::NonFinite {
            row,
            column,
            value: values[column],
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VectorSet {
        VectorSet::from_rows(vec![
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ])
        .unwrap()
    }

    #[test]
    fn from_rows_round_trips() {
        let vs = sample();
        assert_eq!(vs.len(), 3);
        assert_eq!(vs.dim(), 3);
        assert_eq!(vs.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(vs.as_flat().len(), 9);
    }

    #[test]
    fn check_finite_names_the_first_bad_component() {
        let mut vs = sample();
        assert!(vs.check_finite().is_ok());
        vs.row_mut(2)[1] = f32::INFINITY;
        vs.row_mut(1)[2] = f32::NAN;
        assert!(matches!(
            vs.check_finite().unwrap_err(),
            Error::NonFinite { row: 1, column: 2, value } if value.is_nan()
        ));
        assert!(matches!(
            check_finite_row(7, &[0.0, f32::NEG_INFINITY]).unwrap_err(),
            Error::NonFinite { row: 7, column: 1, value } if value == f32::NEG_INFINITY
        ));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = VectorSet::from_rows(vec![vec![1.0, 2.0], vec![1.0]]).unwrap_err();
        assert!(matches!(err, Error::DimensionMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(matches!(
            VectorSet::from_rows(vec![]).unwrap_err(),
            Error::EmptyInput(_)
        ));
        assert!(matches!(
            VectorSet::from_rows(vec![vec![]]).unwrap_err(),
            Error::EmptyInput(_)
        ));
    }

    #[test]
    fn from_flat_checks_divisibility() {
        assert!(VectorSet::from_flat(vec![0.0; 10], 3).is_err());
        let vs = VectorSet::from_flat(vec![0.0; 12], 3).unwrap();
        assert_eq!(vs.len(), 4);
    }

    #[test]
    fn from_flat_rejects_zero_dim() {
        assert!(VectorSet::from_flat(vec![], 0).is_err());
    }

    #[test]
    fn zeros_has_expected_shape() {
        let vs = VectorSet::zeros(5, 4).unwrap();
        assert_eq!(vs.len(), 5);
        assert_eq!(vs.dim(), 4);
        assert!(vs.as_flat().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn try_row_bounds() {
        let vs = sample();
        assert!(vs.try_row(2).is_ok());
        assert!(matches!(
            vs.try_row(3).unwrap_err(),
            Error::IndexOutOfBounds { index: 3, len: 3 }
        ));
    }

    #[test]
    fn row_mut_writes_through() {
        let mut vs = sample();
        vs.row_mut(0)[1] = 42.0;
        assert_eq!(vs.row(0), &[1.0, 42.0, 3.0]);
    }

    #[test]
    fn gather_selects_and_duplicates() {
        let vs = sample();
        let g = vs.gather(&[2, 0, 0]).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.row(0), vs.row(2));
        assert_eq!(g.row(1), vs.row(0));
        assert_eq!(g.row(2), vs.row(0));
        assert!(vs.gather(&[5]).is_err());
    }

    #[test]
    fn push_row_validates_dim() {
        let mut vs = sample();
        assert!(vs.push_row(&[0.0, 0.0]).is_err());
        vs.push_row(&[0.5, 0.5, 0.5]).unwrap();
        assert_eq!(vs.len(), 4);
    }

    #[test]
    fn split_at_partitions() {
        let vs = sample();
        let (a, b) = vs.split_at(1).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(0), vs.row(1));
        assert!(vs.split_at(4).is_err());
    }

    #[test]
    fn split_at_edges() {
        let vs = sample();
        let (a, b) = vs.split_at(0).unwrap();
        assert_eq!(a.len(), 0);
        assert_eq!(b.len(), 3);
        let (a, b) = vs.split_at(3).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn mean_is_componentwise_average() {
        let vs = sample();
        let m = vs.mean().unwrap();
        assert_eq!(m, vec![4.0, 5.0, 6.0]);
        let empty = VectorSet::zeros(0, 3).unwrap();
        assert!(empty.mean().is_none());
    }

    #[test]
    fn rows_iterator_matches_row_access() {
        let vs = sample();
        let collected: Vec<&[f32]> = vs.rows().collect();
        assert_eq!(collected.len(), 3);
        for (i, r) in collected.iter().enumerate() {
            assert_eq!(*r, vs.row(i));
        }
    }
}
