//! Min-plus GEMM and the classical Floyd–Warshall closure, both built
//! from one relaxation primitive.
//!
//! Every relaxation under [`gemm`], [`gemm_parallel`], [`fw_in_place`] and
//! the distributed `decrease_edges` is [`relax_row`]:
//! `c[j] = min(c[j], a + b[j])` as a branch-free select with a strict `<`
//! over two slices that cannot alias, which is the form LLVM vectorises:
//! a vector `add`, then `min` (SSE2) or a compare and a masked store
//! (AVX2). [`gemm`] and [`gemm_parallel`] are one `i-k-j` body over it,
//! [`fw_in_place`] runs it on every row against the pivot row, the buffer
//! split around that row. Each body is compiled twice on x86-64 — for the
//! build's baseline target and with AVX2 enabled — and the CPU picks (see
//! `dispatched!`). Both compilations, and the textbook triple loops they
//! replace, produce the same bits: the row operations are the same, in
//! the same order, and every vector lane computes the scalar select.
//! `docs/PERFORMANCE.md` has the measured rates.
//!
//! Out of scope here: a packed-panel, register-tiled microkernel (the `c`
//! row still goes through L1 once per `k`), blocking `k` in `fw_in_place`
//! (measured, no gain at the sizes the benchmark has) and via/successor
//! matrices ([`crate::via`] keeps its own loop).
//!
//! Every kernel returns the exact number of scalar relaxations
//! (`c = min(c, a + b)`) it executed; rows skipped through the `∞` fast
//! path are not counted. These counts feed the paper's computation
//! comparisons (SuperFW vs classical FW, §2/§4).
//!
//! Each kernel additionally records host-side perf counters (ops, ∞-row
//! skips, approximate bytes touched) into the global metrics registry —
//! once per call, see [`crate::perf`].

use crate::matrix::MinPlusMatrix;
use crate::perf;
use crate::INF;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a kernel body did: relaxations executed and rows skipped because
/// their multiplier was `∞`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Tally {
    /// Scalar `min(c, a + b)` relaxations executed.
    ops: u64,
    /// Row operations skipped through the `∞` fast path.
    skips: u64,
}

/// The relaxation, once. Strict `<`: on a tie, and against `∞`, `c` keeps
/// its own bits.
#[inline(always)]
fn relax_row_body(c: &mut [f64], a: f64, b: &[f64]) {
    assert_eq!(c.len(), b.len(), "row length mismatch");
    for (cj, &bj) in c.iter_mut().zip(b) {
        let sum = a + bj;
        *cj = if sum < *cj { sum } else { *cj };
    }
}

/// One row operation of either kernel: `c ⊕= a ⊗ b`, free when `a = ∞`.
#[inline(always)]
fn row_step(c: &mut [f64], a: f64, b: &[f64], tally: &mut Tally) {
    if a == INF {
        tally.skips += 1;
    } else {
        tally.ops += c.len() as u64;
        relax_row_body(c, a, b);
    }
}

/// `C ⊕= A ⊗ B` on row-major slices, `i-k-j`: `c` is `m × n`, `a` is
/// `m × kk`, `b` is `kk × n`. The caller chooses which rows of `C` (and the
/// matching rows of `A`) to hand in.
#[inline(always)]
fn gemm_rows_body(c: &mut [f64], a: &[f64], b: &[f64], kk: usize, n: usize) -> Tally {
    let mut tally = Tally::default();
    if kk == 0 {
        return tally;
    }
    for (i, arow) in a.chunks_exact(kk).enumerate() {
        let crow = &mut c[i * n..(i + 1) * n];
        for (k, &aik) in arow.iter().enumerate() {
            row_step(crow, aik, &b[k * n..(k + 1) * n], &mut tally);
        }
    }
    tally
}

/// Floyd–Warshall sweeps over a row-major `n × n` buffer whose diagonal is
/// already `≤ 0`: `for k { for i { row i ⊕= d[i][k] ⊗ row k } }`, the
/// textbook order.
///
/// Step `(k, k)` would relax row `k` against itself through `d[k][k]`,
/// which changes nothing while `d[k][k] ≥ 0` — every input without a
/// negative cycle, the diagonal having been `⊕`-ed with 0. It is counted
/// and not run, which leaves row `k` read-only during step `k`: splitting
/// the buffer around it gives every row operation disjoint operands.
#[inline(always)]
fn fw_rows_body(buf: &mut [f64], n: usize) -> Tally {
    assert_eq!(buf.len(), n * n, "FW needs a square buffer");
    let mut tally = Tally::default();
    for k in 0..n {
        let (above, rest) = buf.split_at_mut(k * n);
        let (pivot, below) = rest.split_at_mut(n);
        tally.ops += n as u64;
        for row in above.chunks_exact_mut(n).chain(below.chunks_exact_mut(n)) {
            let dik = row[k];
            row_step(row, dik, pivot, &mut tally);
        }
    }
    tally
}

/// Defines `$name` and `$portable` from the `#[inline(always)]` body
/// `$body`: `$portable` is the body compiled for the build's baseline
/// target, and `$name` runs a second compilation of it with AVX2 enabled
/// when the CPU has AVX2, `$portable` otherwise. `is_x86_feature_detected!`
/// caches its answer, so the choice is made once per process. (No AVX-512
/// arm: `docs/PERFORMANCE.md`, "Tried and dropped".)
macro_rules! dispatched {
    ($(#[$doc:meta])* $vis:vis fn $name:ident / $pvis:vis $portable:ident
        ($($arg:ident: $ty:ty),*) $(-> $ret:ty)? = $body:ident) => {
        $(#[$doc])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: sound to call on a CPU that has AVX2, and only there.
                #[target_feature(enable = "avx2")]
                unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: AVX2, the one feature `avx2` enables, was just detected.
                    return unsafe { avx2($($arg),*) };
                }
            }
            $portable($($arg),*)
        }

        /// The baseline-target compilation of the same body: the
        /// dispatcher's fallback, and a function of its own so that tests can
        /// cover it on a host where the dispatcher never picks it.
        #[doc(hidden)]
        $pvis fn $portable($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }
    };
}

dispatched! {
    /// `c[j] = min(c[j], a + b[j])` for every `j` — the one relaxation loop
    /// under [`gemm`], [`fw_in_place`] and the distributed edge update.
    ///
    /// A strict `<` decides, so on a tie (and for `∞`, `±0`) `c` keeps its
    /// own bits, exactly as `if a + b[j] < c[j] { c[j] = a + b[j] }` would.
    ///
    /// ```
    /// use apsp_minplus::{relax_row, INF};
    ///
    /// let mut c = [5.0, INF, 1.0];
    /// relax_row(&mut c, 2.0, &[1.0, 4.0, INF]);
    /// assert_eq!(c, [3.0, 6.0, 1.0]);
    /// ```
    ///
    /// # Panics
    /// Panics when the rows differ in length.
    pub fn relax_row / pub relax_row_portable(c: &mut [f64], a: f64, b: &[f64]) = relax_row_body
}

dispatched! {
    /// [`gemm`] on row-major slices (`c`: `m × n`, `a`: `m × kk`, `b`:
    /// `kk × n`), without the perf record.
    fn gemm_rows / gemm_rows_portable(
        c: &mut [f64], a: &[f64], b: &[f64], kk: usize, n: usize
    ) -> Tally = gemm_rows_body
}

dispatched! {
    /// The sweeps of [`fw_in_place`] on a row-major `n × n` slice whose
    /// diagonal is already `≤ 0`, without the perf record.
    fn fw_rows / fw_rows_portable(buf: &mut [f64], n: usize) -> Tally = fw_rows_body
}

fn assert_gemm_shapes(c: &MinPlusMatrix, a: &MinPlusMatrix, b: &MinPlusMatrix) {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "output row mismatch");
    assert_eq!(c.cols(), b.cols(), "output col mismatch");
}

/// `C ⊕= A ⊗ B` (min-plus product accumulate). Returns the scalar-op count.
///
/// Loop order `i-k-j` with an `∞` skip on `A[i][k]`, so structurally empty
/// operands cost nothing — this is what makes the §4.1 empty-block
/// avoidance measurable.
///
/// ```
/// use apsp_minplus::{gemm, MinPlusMatrix, INF};
///
/// let a = MinPlusMatrix::from_raw(2, 2, vec![0.0, 1.0, INF, 0.0]);
/// let b = MinPlusMatrix::from_raw(2, 2, vec![5.0, INF, 2.0, 0.0]);
/// let mut c = MinPlusMatrix::empty(2, 2);
/// gemm(&mut c, &a, &b);
/// assert_eq!(c.get(0, 0), 3.0); // min(0+5, 1+2)
/// ```
///
/// # Panics
/// Panics on shape mismatch or when `C` aliases would be required (pass
/// distinct `&mut`/`&` — aliasing is impossible in safe Rust anyway).
pub fn gemm(c: &mut MinPlusMatrix, a: &MinPlusMatrix, b: &MinPlusMatrix) -> u64 {
    assert_gemm_shapes(c, a, b);
    let (kk, n) = (a.cols(), b.cols());
    let tally = gemm_rows(c.as_mut_slice(), a.as_slice(), b.as_slice(), kk, n);
    perf::record_gemm(tally.ops, tally.skips, (a.rows() * kk) as u64);
    tally.ops
}

/// Parallel variant of [`gemm`] splitting output rows across threads.
/// Returns the scalar-op count. Falls back to [`gemm`] for small outputs.
pub fn gemm_parallel(c: &mut MinPlusMatrix, a: &MinPlusMatrix, b: &MinPlusMatrix) -> u64 {
    assert_gemm_shapes(c, a, b);
    let (m, kk, n) = (a.rows(), a.cols(), b.cols());
    if m * n < 64 * 64 {
        return gemm(c, a, b);
    }
    let rows_per_chunk = m.div_ceil(apsp_par::num_threads()).max(1);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let ops = AtomicU64::new(0);
    let skips = AtomicU64::new(0);
    apsp_par::par_chunks_mut(c.as_mut_slice(), rows_per_chunk * n, |start, chunk| {
        let arows = &av[start / n * kk..(start + chunk.len()) / n * kk];
        let tally = gemm_rows(chunk, arows, bv, kk, n);
        ops.fetch_add(tally.ops, Ordering::Relaxed);
        skips.fetch_add(tally.skips, Ordering::Relaxed);
    });
    let ops = ops.into_inner();
    perf::record_gemm(ops, skips.into_inner(), (m * kk) as u64);
    ops
}

/// Classical Floyd–Warshall closure of a square block, in place
/// (the paper's `ClassicalFW(A(k,k))`, §3.3). The diagonal is first
/// `⊕`-ed with `0` (a vertex reaches itself for free). Returns the
/// scalar-op count: `n` per `(k, i)` pair with `d[i][k]` finite, as the
/// textbook triple loop would execute.
pub fn fw_in_place(a: &mut MinPlusMatrix) -> u64 {
    assert_eq!(a.rows(), a.cols(), "FW needs a square block");
    let n = a.rows();
    for i in 0..n {
        a.relax(i, i, 0.0);
    }
    let tally = fw_rows(a.as_mut_slice(), n);
    perf::record_fw(tally.ops, tally.skips, (n * n) as u64);
    tally.ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> MinPlusMatrix {
        let mut a = MinPlusMatrix::empty(3, 3);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 2, 2.0);
        a.set(2, 1, 2.0);
        a
    }

    #[test]
    fn gemm_simple_product() {
        // C = A ⊗ B with A = [0 1; ∞ 0], B = [5 ∞; 2 0]
        let a = MinPlusMatrix::from_raw(2, 2, vec![0.0, 1.0, INF, 0.0]);
        let b = MinPlusMatrix::from_raw(2, 2, vec![5.0, INF, 2.0, 0.0]);
        let mut c = MinPlusMatrix::empty(2, 2);
        let ops = gemm(&mut c, &a, &b);
        assert_eq!(c.get(0, 0), 3.0); // min(0+5, 1+2)
        assert_eq!(c.get(0, 1), 1.0); // 1+0
        assert_eq!(c.get(1, 0), 2.0); // 0+2
        assert_eq!(c.get(1, 1), 0.0);
        // row 1 skips k=0 (∞): 3 finite a-entries × 2 cols
        assert_eq!(ops, 6);
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let a = MinPlusMatrix::from_raw(1, 1, vec![10.0]);
        let b = MinPlusMatrix::from_raw(1, 1, vec![10.0]);
        let mut c = MinPlusMatrix::from_raw(1, 1, vec![3.0]);
        gemm(&mut c, &a, &b);
        assert_eq!(c.get(0, 0), 3.0); // 20 does not beat 3
    }

    #[test]
    fn gemm_empty_operand_is_free() {
        let a = MinPlusMatrix::empty(8, 8);
        let b = MinPlusMatrix::identity(8);
        let mut c = MinPlusMatrix::empty(8, 8);
        assert_eq!(gemm(&mut c, &a, &b), 0);
        assert!(c.is_empty_block());
    }

    #[test]
    fn fw_closes_a_path() {
        let mut a = line3();
        let ops = fw_in_place(&mut a);
        assert!(ops > 0);
        assert_eq!(a.get(0, 2), 3.0);
        assert_eq!(a.get(2, 0), 3.0);
        for i in 0..3 {
            assert_eq!(a.get(i, i), 0.0);
        }
    }

    #[test]
    fn fw_matches_squaring_closure() {
        let mut rng = 123u64;
        let mut rnd = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng >> 33) % 100) as f64 / 10.0
        };
        for trial in 0..10 {
            let n = 2 + trial % 6;
            let mut a = MinPlusMatrix::empty(n, n);
            for i in 0..n {
                for j in 0..n {
                    if i != j && rnd() < 5.0 {
                        let w = rnd();
                        a.set(i, j, w);
                        a.set(j, i, w);
                    }
                }
            }
            let reference = a.closure_by_squaring();
            let mut fast = a.clone();
            fw_in_place(&mut fast);
            assert!(fast.max_diff(&reference) < 1e-9, "trial {trial}");
        }
    }

    #[test]
    fn parallel_gemm_matches_serial() {
        let n = 96;
        let a = MinPlusMatrix::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 50) as f64);
        let b = MinPlusMatrix::from_fn(n, n, |i, j| ((i * 11 + j * 3) % 50) as f64);
        let mut c1 = MinPlusMatrix::empty(n, n);
        let mut c2 = MinPlusMatrix::empty(n, n);
        let ops1 = gemm(&mut c1, &a, &b);
        let ops2 = gemm_parallel(&mut c2, &a, &b);
        assert_eq!(c1, c2);
        assert_eq!(ops1, ops2);
    }

    /// A non-symmetric matrix, about `finite_pct` % of it finite sevenths
    /// (so that sums round) and zeros, with some rows left all-`∞`.
    fn lcg_matrix(state: &mut u64, rows: usize, cols: usize, finite_pct: u64) -> MinPlusMatrix {
        let mut next = |modulus: u64| {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (*state >> 33) % modulus
        };
        let mut m = MinPlusMatrix::empty(rows, cols);
        for i in 0..rows {
            if next(6) == 0 {
                continue;
            }
            for j in 0..cols {
                if next(100) < finite_pct {
                    m.set(i, j, next(8).min(1) as f64 * next(700) as f64 / 7.0);
                }
            }
        }
        m
    }

    fn bits(m: &MinPlusMatrix) -> Vec<u64> {
        m.as_slice().iter().map(|w| w.to_bits()).collect()
    }

    /// `tests/bit_exact.rs` holds the dispatched kernels to the scalar loops
    /// they replaced; on a host with AVX2 those never run the baseline-target
    /// compilation, so it is held to the dispatched one here.
    #[test]
    fn portable_bodies_match_the_dispatched_ones_bit_for_bit() {
        let mut state = 14;
        let sizes: Vec<usize> =
            if cfg!(miri) { vec![1, 2, 5, 9] } else { (1..=40).chain([64, 131]).collect() };
        for n in sizes {
            for finite_pct in [5, 30, 90] {
                // a rectangular product: short inner dimension, odd width
                let (m, kk, w) = (n, n.div_ceil(3), 2 * n + 1);
                let a = lcg_matrix(&mut state, m, kk, finite_pct);
                let b = lcg_matrix(&mut state, kk, w, finite_pct);
                let mut got = lcg_matrix(&mut state, m, w, finite_pct);
                let mut want = got.clone();
                assert_eq!(
                    gemm_rows_portable(got.as_mut_slice(), a.as_slice(), b.as_slice(), kk, w),
                    gemm_rows(want.as_mut_slice(), a.as_slice(), b.as_slice(), kk, w),
                    "gemm {m}x{kk}x{w} at {finite_pct} %"
                );
                assert_eq!(bits(&got), bits(&want), "gemm {m}x{kk}x{w} at {finite_pct} %");

                let mut got = lcg_matrix(&mut state, n, n, finite_pct);
                for i in 0..n {
                    got.relax(i, i, 0.0);
                }
                let mut want = got.clone();
                assert_eq!(
                    fw_rows_portable(got.as_mut_slice(), n),
                    fw_rows(want.as_mut_slice(), n),
                    "fw n={n} at {finite_pct} %"
                );
                assert_eq!(bits(&got), bits(&want), "fw n={n} at {finite_pct} %");
            }
        }
    }

    #[test]
    fn fw_opcount_is_n_cubed_when_dense() {
        let n = 7;
        let mut a = MinPlusMatrix::from_fn(n, n, |i, j| (i + j) as f64);
        let ops = fw_in_place(&mut a);
        assert_eq!(ops, (n * n * n) as u64);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_shape_mismatch_panics() {
        let a = MinPlusMatrix::empty(2, 3);
        let b = MinPlusMatrix::empty(2, 3);
        let mut c = MinPlusMatrix::empty(2, 3);
        gemm(&mut c, &a, &b);
    }

    #[test]
    #[should_panic(expected = "square block")]
    fn fw_non_square_panics() {
        fw_in_place(&mut MinPlusMatrix::empty(2, 3));
    }
}
