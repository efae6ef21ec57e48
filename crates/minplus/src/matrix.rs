//! Dense rectangular matrices over the `(min, +)` semiring.

use crate::{Weight, INF};

/// A dense `rows × cols` matrix of path weights, row-major.
///
/// The semiring operations are `x ⊕ y = min(x, y)` (with identity `∞`) and
/// `x ⊗ y = x + y` (with identity `0`). A structurally empty block is one
/// whose entries are all `∞`.
#[derive(Clone, Debug, PartialEq)]
pub struct MinPlusMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Weight>,
}

impl MinPlusMatrix {
    /// All-`∞` matrix (the `⊕` identity element of its shape).
    pub fn empty(rows: usize, cols: usize) -> Self {
        MinPlusMatrix { rows, cols, data: vec![INF; rows * cols] }
    }

    /// Square matrix with `0` diagonal and `∞` elsewhere (the `⊗` identity).
    pub fn identity(n: usize) -> Self {
        let mut m = Self::empty(n, n);
        for i in 0..n {
            m.set(i, i, 0.0);
        }
        m
    }

    /// Wraps a row-major buffer.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_raw(rows: usize, cols: usize, data: Vec<Weight>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer shape mismatch");
        MinPlusMatrix { rows, cols, data }
    }

    /// Builds from a closure `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Weight) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        MinPlusMatrix { rows, cols, data }
    }

    /// Row count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of entries (the message word count when transmitted).
    #[inline]
    pub fn words(&self) -> usize {
        self.data.len()
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Weight {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, w: Weight) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = w;
    }

    /// `⊕`-assigns one entry: keeps the minimum.
    #[inline]
    pub fn relax(&mut self, i: usize, j: usize, w: Weight) {
        let cell = &mut self.data[i * self.cols + j];
        if w < *cell {
            *cell = w;
        }
    }

    /// Row slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[Weight] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Raw buffer.
    #[inline]
    pub fn as_slice(&self) -> &[Weight] {
        &self.data
    }

    /// Mutable raw buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Weight] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<Weight> {
        self.data
    }

    /// Entrywise `⊕` with a same-shape matrix.
    pub fn min_assign(&mut self, other: &MinPlusMatrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = if b < *a { b } else { *a };
        }
    }

    /// `true` when every entry is `∞` (structurally empty block, §4.1).
    pub fn is_empty_block(&self) -> bool {
        self.data.iter().all(|&w| w == INF)
    }

    /// Number of finite entries.
    pub fn finite_entries(&self) -> usize {
        self.data.iter().filter(|w| w.is_finite()).count()
    }

    /// Transposed copy.
    pub fn transposed(&self) -> MinPlusMatrix {
        let mut t = MinPlusMatrix::empty(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// `true` when square and symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let (a, b) = (self.get(i, j), self.get(j, i));
                let both_inf = a == INF && b == INF;
                if !both_inf && (a - b).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Maximum absolute difference with another matrix (∞ on a finite/∞
    /// mismatch) — test helper.
    pub fn max_diff(&self, other: &MinPlusMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        let mut worst = 0.0f64;
        for (&a, &b) in self.data.iter().zip(&other.data) {
            if (a == INF) != (b == INF) {
                return f64::INFINITY;
            }
            if a != INF {
                worst = worst.max((a - b).abs());
            }
        }
        worst
    }

    /// Semiring closure by repeated squaring: `A* = (A ⊕ I)^(2^⌈log n⌉)`.
    /// Reference implementation for testing `fw_in_place`.
    pub fn closure_by_squaring(&self) -> MinPlusMatrix {
        assert_eq!(self.rows, self.cols, "closure needs a square matrix");
        let n = self.rows;
        let mut d = self.clone();
        for i in 0..n {
            d.relax(i, i, 0.0);
        }
        let mut steps = 0usize;
        while (1usize << steps) < n.max(1) {
            steps += 1;
        }
        for _ in 0..steps {
            let mut next = d.clone();
            crate::kernels::gemm(&mut next, &d, &d);
            d = next;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_identity() {
        let e = MinPlusMatrix::empty(2, 3);
        assert!(e.is_empty_block());
        assert_eq!(e.words(), 6);
        let i = MinPlusMatrix::identity(3);
        assert!(!i.is_empty_block());
        assert_eq!(i.finite_entries(), 3);
        assert_eq!(i.get(1, 1), 0.0);
        assert_eq!(i.get(0, 1), INF);
    }

    #[test]
    fn relax_and_min_assign() {
        let mut a = MinPlusMatrix::empty(2, 2);
        a.relax(0, 1, 5.0);
        a.relax(0, 1, 7.0);
        assert_eq!(a.get(0, 1), 5.0);
        let mut b = MinPlusMatrix::empty(2, 2);
        b.set(0, 1, 2.0);
        b.set(1, 0, 9.0);
        a.min_assign(&b);
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.get(1, 0), 9.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = MinPlusMatrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        let t = m.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), m.get(1, 2));
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn symmetry_detection() {
        let mut m = MinPlusMatrix::identity(2);
        m.set(0, 1, 3.0);
        assert!(!m.is_symmetric(1e-12));
        m.set(1, 0, 3.0);
        assert!(m.is_symmetric(1e-12));
        assert!(!MinPlusMatrix::empty(2, 3).is_symmetric(1e-12));
    }

    #[test]
    fn closure_of_path_matrix() {
        // 0 -1- 1 -2- 2
        let mut a = MinPlusMatrix::empty(3, 3);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 2, 2.0);
        a.set(2, 1, 2.0);
        let c = a.closure_by_squaring();
        assert_eq!(c.get(0, 2), 3.0);
        assert_eq!(c.get(2, 0), 3.0);
        assert_eq!(c.get(0, 0), 0.0);
    }

    #[test]
    fn max_diff_detects_inf_mismatch() {
        let a = MinPlusMatrix::empty(1, 2);
        let mut b = MinPlusMatrix::empty(1, 2);
        b.set(0, 0, 1.0);
        assert_eq!(a.max_diff(&b), f64::INFINITY);
        assert_eq!(a.max_diff(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn min_assign_shape_mismatch_panics() {
        let mut a = MinPlusMatrix::empty(1, 2);
        a.min_assign(&MinPlusMatrix::empty(2, 1));
    }
}
