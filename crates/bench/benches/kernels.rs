//! Criterion benches for the min-plus kernels: semiring GEMM, the classical
//! FW closure, and blocked FW with/without sparsity skipping. Matrix
//! generators live in `apsp_bench::workloads` (shared, deterministic).

use apsp_bench::workloads::{arrow_minplus, dense_minplus};
use apsp_minplus::{fw_in_place, gemm, gemm_parallel, BlockedMatrix, Blocking, MinPlusMatrix};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// The top-left `rows × cols` corner of a deterministic dense matrix.
fn dense_rect(rows: usize, cols: usize, seed: u64) -> MinPlusMatrix {
    let square = dense_minplus(rows.max(cols), seed);
    MinPlusMatrix::from_fn(rows, cols, |i, j| square.get(i, j))
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_minplus");
    // the cubes under their old ids, then the shapes the benchmark's
    // workloads produce: the expander's top separator (120³) and a mesh
    // leaf against its 12-vertex separator (280×12×280)
    for (id, m, kk, n) in [
        ("64", 64, 64, 64),
        ("128", 128, 128, 128),
        ("256", 256, 256, 256),
        ("120x120x120", 120, 120, 120),
        ("280x12x280", 280, 12, 280),
    ] {
        let a = dense_rect(m, kk, 1);
        let b = dense_rect(kk, n, 2);
        group.throughput(Throughput::Elements((m * kk * n) as u64));
        group.bench_with_input(BenchmarkId::new("serial", id), &id, |bench, _| {
            bench.iter(|| {
                let mut out = MinPlusMatrix::empty(m, n);
                gemm(&mut out, &a, &b)
            });
        });
        group.bench_with_input(BenchmarkId::new("parallel", id), &id, |bench, _| {
            bench.iter(|| {
                let mut out = MinPlusMatrix::empty(m, n);
                gemm_parallel(&mut out, &a, &b)
            });
        });
    }
    group.finish();
}

fn bench_fw(c: &mut Criterion) {
    let mut group = c.benchmark_group("floyd_warshall");
    // 280 is the leaf size of the benchmark's `mesh-fw` workload
    for n in [64usize, 128, 256, 280] {
        let a = dense_minplus(n, 3);
        group.throughput(Throughput::Elements((n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("classical", n), &n, |bench, _| {
            bench.iter(|| {
                let mut m = a.clone();
                fw_in_place(&mut m)
            });
        });
        group.bench_with_input(BenchmarkId::new("blocked_b32", n), &n, |bench, _| {
            bench.iter(|| {
                let mut bm = BlockedMatrix::from_dense(&a, Blocking::uniform(n, 32));
                let order: Vec<usize> = (0..bm.blocking().num_blocks()).collect();
                bm.blocked_fw(&order)
            });
        });
    }
    group.finish();
}

fn bench_sparse_skip(c: &mut Criterion) {
    // a block-arrow matrix: blocked FW should skip the empty cross blocks
    let n = 192;
    let a = arrow_minplus(n);
    let mut group = c.benchmark_group("blocked_fw_sparsity");
    group.bench_function("arrow_structure_skips", |bench| {
        bench.iter(|| {
            let mut bm = BlockedMatrix::from_dense(&a, Blocking::uniform(n, n / 3));
            bm.blocked_fw(&[0, 1, 2])
        });
    });
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_fw, bench_sparse_skip);
criterion_main!(benches);
