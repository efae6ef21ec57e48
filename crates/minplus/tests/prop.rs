//! Property tests: semiring laws and kernel equivalences.

use apsp_minplus::{fw_in_place, gemm, MinPlusMatrix, INF};
use proptest::prelude::*;

/// Strategy: square matrix of dimension `n` with ~`density` finite entries.
fn arb_square(max_n: usize) -> impl Strategy<Value = MinPlusMatrix> {
    (2..max_n).prop_flat_map(|n| {
        proptest::collection::vec(proptest::option::weighted(0.6, 0u32..100), n * n).prop_map(
            move |cells| {
                MinPlusMatrix::from_fn(n, n, |i, j| match cells[i * n + j] {
                    Some(w) => w as f64 / 7.0,
                    None => INF,
                })
            },
        )
    })
}

/// Symmetrize and clear the diagonal (adjacency-matrix shape).
fn symmetrized(mut a: MinPlusMatrix) -> MinPlusMatrix {
    let n = a.rows();
    for i in 0..n {
        for j in (i + 1)..n {
            let w = a.get(i, j).min(a.get(j, i));
            a.set(i, j, w);
            a.set(j, i, w);
        }
        a.set(i, i, INF);
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_is_associative(a in arb_square(8)) {
        // ((A ⊗ A) ⊗ A) == (A ⊗ (A ⊗ A)); fresh outputs so no accumulation
        let n = a.rows();
        let mut aa = MinPlusMatrix::empty(n, n);
        gemm(&mut aa, &a, &a);
        let mut left = MinPlusMatrix::empty(n, n);
        gemm(&mut left, &aa, &a);
        let mut right = MinPlusMatrix::empty(n, n);
        gemm(&mut right, &a, &aa);
        prop_assert!(left.max_diff(&right) < 1e-9);
    }

    #[test]
    fn identity_is_multiplicative_identity(a in arb_square(9)) {
        let n = a.rows();
        let id = MinPlusMatrix::identity(n);
        let mut left = MinPlusMatrix::empty(n, n);
        gemm(&mut left, &id, &a);
        let mut right = MinPlusMatrix::empty(n, n);
        gemm(&mut right, &a, &id);
        prop_assert!(left.max_diff(&a) < 1e-12);
        prop_assert!(right.max_diff(&a) < 1e-12);
    }

    #[test]
    fn fw_equals_squaring_closure(a in arb_square(9)) {
        let a = symmetrized(a);
        let reference = a.closure_by_squaring();
        let mut fast = a.clone();
        fw_in_place(&mut fast);
        prop_assert!(fast.max_diff(&reference) < 1e-9);
    }

    #[test]
    fn fw_is_idempotent(a in arb_square(9)) {
        let a = symmetrized(a);
        let mut once = a.clone();
        fw_in_place(&mut once);
        let mut twice = once.clone();
        fw_in_place(&mut twice);
        prop_assert!(once.max_diff(&twice) < 1e-12);
    }

    #[test]
    fn transpose_commutes_with_fw_on_symmetric(a in arb_square(9)) {
        let a = symmetrized(a);
        let mut d = a.clone();
        fw_in_place(&mut d);
        prop_assert!(d.is_symmetric(1e-9));
    }
}
