//! Matrices and vectors over an arbitrary semiring.
//!
//! Automaton transitions are stored as [`SparseMatrix`]: per row, the
//! non-zero `(column, weight)` entries. A position automaton's row holds
//! the positions that can follow one atom occurrence, usually a handful,
//! so every pass over a transition matrix — series coefficients, support
//! NFAs, the restriction product — costs time in its non-zero entries,
//! not in `n²`. The zeroness kernel reads the restriction product in its
//! own compressed table, which that product writes directly.
//!
//! No transition matrix is ever dense: the position automaton pushes each
//! row's follow weights straight into a [`SparseMatrix`], and so does
//! the reference construction, ε-elimination, with each closure row it
//! counts on the sparse ε-graph.

use nka_semiring::Semiring;

/// A sparse matrix over a semiring in compressed-row form: each row holds
/// its non-zero entries as `(column, weight)` pairs, sorted by column.
/// Zero weights are never stored, and indexing an absent entry yields
/// zero.
///
/// Rows are appended in order with [`SparseMatrix::push_row`], which is
/// how every producer in this crate builds them, row by row in state
/// order.
///
/// # Examples
///
/// ```
/// use nka_wfa::matrix::SparseMatrix;
/// use nka_semiring::ExtNat;
///
/// let mut m = SparseMatrix::new(3);
/// m.push_row([(2, ExtNat::from(5u64)), (0, ExtNat::from(0u64))]);
/// m.push_row([]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m[(0, 2)], ExtNat::from(5u64));
/// assert_eq!(m[(0, 0)], ExtNat::from(0u64)); // zeros are not stored
/// assert_eq!(m.row(0).len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix<S> {
    cols: usize,
    /// Row `i` is `entries[row_starts[i]..row_starts[i + 1]]`.
    row_starts: Vec<usize>,
    entries: Vec<(usize, S)>,
    /// The zero that [`Index`](std::ops::Index) lends for absent entries.
    zero: S,
}

impl<S: Semiring> SparseMatrix<S> {
    /// A matrix with `cols` columns and no rows yet.
    pub fn new(cols: usize) -> Self {
        SparseMatrix {
            cols,
            row_starts: vec![0],
            entries: Vec::new(),
            zero: S::zero(),
        }
    }

    /// Appends a row given by `(column, weight)` entries in any order.
    /// Zero weights are dropped.
    ///
    /// # Panics
    ///
    /// Panics if a column is out of range or appears twice.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = (usize, S)>) {
        let start = self.entries.len();
        self.entries
            .extend(row.into_iter().filter(|(_, w)| !w.is_zero()));
        let new = &mut self.entries[start..];
        new.sort_unstable_by_key(|&(j, _)| j);
        assert!(
            new.windows(2).all(|p| p[0].0 < p[1].0),
            "duplicate column in a sparse row"
        );
        assert!(
            new.last().is_none_or(|&(j, _)| j < self.cols),
            "column out of range"
        );
        self.row_starts.push(self.entries.len());
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.row_starts.len() - 1
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The non-zero entries of row `i`, sorted by column.
    pub fn row(&self, i: usize) -> &[(usize, S)] {
        &self.entries[self.row_starts[i]..self.row_starts[i + 1]]
    }

    /// Every non-zero entry as `(row, column, weight)`, row by row.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, &S)> + '_ {
        (0..self.rows()).flat_map(move |i| self.row(i).iter().map(move |(j, w)| (i, *j, w)))
    }

    /// The matrix with `f` applied to every non-zero entry; entries that
    /// `f` maps to zero are dropped.
    pub fn map_nonzero<T: Semiring>(&self, f: impl Fn(&S) -> T) -> SparseMatrix<T> {
        let mut out = SparseMatrix::new(self.cols);
        for i in 0..self.rows() {
            out.push_row(self.row(i).iter().map(|(j, w)| (*j, f(w))));
        }
        out
    }

    /// Row vector × matrix, visiting only the non-zero entries of `vec`
    /// and of the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `vec.len() != self.rows()`.
    pub fn vec_mul(&self, vec: &[S]) -> Vec<S> {
        assert_eq!(vec.len(), self.rows(), "dimension mismatch in vec_mul");
        let mut out = vec![S::zero(); self.cols];
        for (i, v) in vec.iter().enumerate() {
            if v.is_zero() {
                continue;
            }
            for (j, w) in self.row(i) {
                out[*j] = out[*j].add(&v.mul(w));
            }
        }
        out
    }
}

impl<S> std::ops::Index<(usize, usize)> for SparseMatrix<S> {
    type Output = S;
    fn index(&self, (i, j): (usize, usize)) -> &S {
        let row = &self.entries[self.row_starts[i]..self.row_starts[i + 1]];
        match row.binary_search_by_key(&j, |&(c, _)| c) {
            Ok(k) => &row[k].1,
            Err(_) => &self.zero,
        }
    }
}

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn dot<S: Semiring>(a: &[S], b: &[S]) -> S {
    assert_eq!(a.len(), b.len(), "dimension mismatch in dot");
    a.iter()
        .zip(b)
        .fold(S::zero(), |acc, (x, y)| acc.add(&x.mul(y)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nka_semiring::{BigRational, ExtNat};

    fn n(x: u64) -> ExtNat {
        ExtNat::from(x)
    }

    /// The sparse form of the dense 2×2 matrix `[[a, b], [c, d]]`.
    fn m2(a: u64, b: u64, c: u64, d: u64) -> SparseMatrix<ExtNat> {
        let mut m = SparseMatrix::new(2);
        m.push_row([(0, n(a)), (1, n(b))]);
        m.push_row([(1, n(d)), (0, n(c))]);
        m
    }

    #[test]
    fn rows_are_sorted_and_zero_free() {
        let m = m2(0, 2, 3, 0);
        assert_eq!(m.row(0), &[(1, n(2))]);
        assert_eq!(m.row(1), &[(0, n(3))]);
        assert_eq!(m[(0, 0)], n(0));
        assert_eq!(m[(1, 0)], n(3));
        let entries: Vec<_> = m.entries().map(|(i, j, w)| (i, j, *w)).collect();
        assert_eq!(entries, [(0, 1, n(2)), (1, 0, n(3))]);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_are_rejected() {
        SparseMatrix::new(2).push_row([(1, n(1)), (1, n(2))]);
    }

    #[test]
    fn vector_product() {
        let m = m2(1, 2, 3, 4);
        assert_eq!(m.vec_mul(&[n(1), n(1)]), [n(4), n(6)]);
    }

    #[test]
    fn infinity_propagates_but_zero_annihilates() {
        let mut m = SparseMatrix::new(2);
        m.push_row([(0, ExtNat::INFINITY)]);
        m.push_row([(1, n(1))]);
        // ∞·0 = 0 keeps the first coordinate clean.
        assert_eq!(m.vec_mul(&[n(0), n(5)]), [n(0), n(5)]);
    }

    #[test]
    fn map_nonzero_changes_semiring_and_drops_zeros() {
        let m = m2(2, 0, 1, 3);
        let q = m.map_nonzero(|x| match x.finite() {
            Some(1) | None => BigRational::zero(),
            Some(v) => BigRational::from(v),
        });
        assert_eq!(q[(1, 1)], BigRational::from(3u64));
        assert_eq!(q.row(1).len(), 1, "the weight mapped to zero is gone");
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[n(2), n(3)], &[n(4), n(5)]), n(23));
    }
}
