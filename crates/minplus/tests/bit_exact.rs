//! Bit-exactness of the kernels against the scalar loops they replaced:
//! every output word, the returned op count and the `inf_row_skips` delta.
//! A test binary of its own, because those deltas are read off the
//! process-wide perf counters.

use apsp_minplus::kernels::relax_row_portable;
use apsp_minplus::{fw_in_place, gemm, relax_row, MinPlusMatrix, INF};
use proptest::test_runner::TestRng;
use std::sync::{Mutex, MutexGuard};

/// What a kernel did: relaxations executed and `∞`-row skips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Tally {
    ops: u64,
    skips: u64,
}

/// Held by the two tests that read exact deltas of the process-wide
/// `inf_row_skips` counter, which a kernel call on the other's thread
/// would move.
fn counters_lock() -> MutexGuard<'static, ()> {
    static COUNTERS: Mutex<()> = Mutex::new(());
    COUNTERS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The two relaxation loops as they stood before `relax_row`, kept
/// verbatim (minus the perf record) as the reference: same bits, same op
/// count, same `∞`-row skips, or the kernels changed the arithmetic.
mod frozen {
    use super::Tally;
    use apsp_minplus::{MinPlusMatrix, INF};

    pub fn gemm(c: &mut MinPlusMatrix, a: &MinPlusMatrix, b: &MinPlusMatrix) -> Tally {
        let (m, kk, n) = (a.rows(), a.cols(), b.cols());
        let (av, bv) = (a.as_slice(), b.as_slice());
        let cv = c.as_mut_slice();
        let mut ops = 0u64;
        let mut skips = 0u64;
        for i in 0..m {
            let crow = &mut cv[i * n..(i + 1) * n];
            for k in 0..kk {
                let aik = av[i * kk + k];
                if aik == INF {
                    skips += 1;
                    continue;
                }
                let brow = &bv[k * n..(k + 1) * n];
                ops += n as u64;
                for j in 0..n {
                    let via = aik + brow[j];
                    if via < crow[j] {
                        crow[j] = via;
                    }
                }
            }
        }
        Tally { ops, skips }
    }

    pub fn fw_in_place(a: &mut MinPlusMatrix) -> Tally {
        let n = a.rows();
        for i in 0..n {
            a.relax(i, i, 0.0);
        }
        let buf = a.as_mut_slice();
        let mut ops = 0u64;
        let mut skips = 0u64;
        for k in 0..n {
            for i in 0..n {
                let dik = buf[i * n + k];
                if dik == INF {
                    skips += 1;
                    continue;
                }
                ops += n as u64;
                for j in 0..n {
                    let via = dik + buf[k * n + j];
                    if via < buf[i * n + j] {
                        buf[i * n + j] = via;
                    }
                }
            }
        }
        Tally { ops, skips }
    }
}

/// Finite-entry shares the bit-exactness tests run at.
const DENSITIES: [f64; 3] = [0.05, 0.30, 0.90];

/// A non-symmetric `rows × cols` matrix with about `density` finite
/// entries: sevenths (so sums round), one in eight of them an exact `0.0`,
/// and about one row in six left all-`∞`.
fn float_matrix(rng: &mut TestRng, rows: usize, cols: usize, density: f64) -> MinPlusMatrix {
    let mut m = MinPlusMatrix::empty(rows, cols);
    for i in 0..rows {
        if rng.next_f64() < 1.0 / 6.0 {
            continue;
        }
        for j in 0..cols {
            if rng.next_f64() < density {
                let w = if rng.next_f64() < 0.125 { 0.0 } else { rng.next_f64() * 700.0 / 7.0 };
                m.set(i, j, w);
            }
        }
    }
    m
}

fn bits(m: &MinPlusMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|w| w.to_bits()).collect()
}

fn skip_counter() -> u64 {
    apsp_minplus::perf::counters().inf_row_skips.get()
}

/// Runs `kernel` (a dispatched entry point, which records into the global
/// counters) and returns its op count with the `inf_row_skips` delta.
fn counted(kernel: impl FnOnce() -> u64) -> Tally {
    let before = skip_counter();
    let ops = kernel();
    Tally { ops, skips: skip_counter() - before }
}

/// `gemm` against the frozen loop on one `m × kk × n` shape, accumulating
/// into a non-empty `C`.
fn check_gemm(rng: &mut TestRng, m: usize, kk: usize, n: usize, density: f64) {
    let ctx = format!("gemm {m}x{kk}x{n} density {density}");
    let a = float_matrix(rng, m, kk, density);
    let b = float_matrix(rng, kk, n, density);
    let c0 = float_matrix(rng, m, n, density);

    let mut want = c0.clone();
    let want_tally = frozen::gemm(&mut want, &a, &b);

    let mut got = c0.clone();
    assert_eq!(counted(|| gemm(&mut got, &a, &b)), want_tally, "{ctx}: gemm tally");
    assert_eq!(bits(&got), bits(&want), "{ctx}: gemm");
}

/// `fw_in_place` against the frozen triple loop.
fn check_fw(rng: &mut TestRng, n: usize, density: f64) {
    let ctx = format!("fw n={n} density {density}");
    let a = float_matrix(rng, n, n, density);

    let mut want = a.clone();
    let want_tally = frozen::fw_in_place(&mut want);

    let mut got = a.clone();
    assert_eq!(counted(|| fw_in_place(&mut got)), want_tally, "{ctx}: tally");
    assert_eq!(bits(&got), bits(&want), "{ctx}");
}

/// Every size up to a few vectors plus tail, then the vector-width edges
/// and the leaf size of the benchmark's `mesh-fw` workload.
fn sizes() -> impl Iterator<Item = usize> {
    (1..=70).chain([127, 128, 131, 280])
}

#[test]
fn fw_is_bit_exact_against_the_frozen_loop() {
    let _counters = counters_lock();
    let mut rng = TestRng::from_name("fw_is_bit_exact");
    for n in sizes() {
        for density in DENSITIES {
            check_fw(&mut rng, n, density);
        }
    }
}

#[test]
fn gemm_is_bit_exact_against_the_frozen_loops() {
    let _counters = counters_lock();
    let mut rng = TestRng::from_name("gemm_is_bit_exact");
    for n in sizes() {
        for density in DENSITIES {
            check_gemm(&mut rng, n, n, n, density);
        }
    }
    // rectangular: separator panels (280x12x280 and its transpose shape),
    // the expander's top separator, odd and even outputs near 64x64,
    // and empty dimensions
    let shapes = [
        (280, 12, 280),
        (12, 280, 12),
        (120, 120, 120),
        (1, 70, 131),
        (131, 1, 70),
        (70, 3, 131),
        (64, 5, 64),
        (63, 5, 65),
        (65, 9, 63),
        (3, 17, 5),
        (4, 0, 6),
        (0, 3, 5),
        (5, 3, 0),
    ];
    for (m, kk, n) in shapes {
        for density in DENSITIES {
            check_gemm(&mut rng, m, kk, n, density);
        }
    }
}

#[test]
fn relax_row_is_the_strict_less_select() {
    let mut rng = TestRng::from_name("relax_row_is_the_strict_less_select");
    for n in sizes() {
        for density in DENSITIES {
            let b = float_matrix(&mut rng, 1, n, density).into_vec();
            let c0 = float_matrix(&mut rng, 1, n, density).into_vec();
            for a in [0.0, 3.0 / 7.0, INF] {
                let mut want = c0.clone();
                for j in 0..n {
                    let via = a + b[j];
                    if via < want[j] {
                        want[j] = via;
                    }
                }
                let want: Vec<u64> = want.iter().map(|w| w.to_bits()).collect();
                for kernel in [relax_row, relax_row_portable] {
                    let mut got = c0.clone();
                    kernel(&mut got, a, &b);
                    let got: Vec<u64> = got.iter().map(|w| w.to_bits()).collect();
                    assert_eq!(got, want, "n={n} a={a}");
                }
            }
        }
    }
    // a tie keeps c's own bits: -0.0 is not replaced by an equal +0.0
    let mut c = [-0.0f64];
    relax_row(&mut c, 0.0, &[0.0]);
    assert_eq!(c[0].to_bits(), (-0.0f64).to_bits());
}
