//! Criterion benches: wall time of the simulated distributed algorithms.
//! (The *scientific* metrics are message/word counts — see `paper_report` —
//! but simulation throughput matters for how large an experiment fits.)

use apsp_core::dcapsp::dc_apsp;
use apsp_core::djohnson::distributed_johnson;
use apsp_core::dnd::dist_nested_dissection;
use apsp_core::fw2d::fw2d;
use apsp_core::sparse2d::{sparse2d, sparse2d_directed, R4Strategy, Sparse2dOptions};
use apsp_core::update::{apply_decreases, DecreasedEdge};
use apsp_core::SupernodalLayout;
use apsp_graph::generators::{self, WeightKind};
use apsp_graph::DiCsr;
use apsp_partition::grid_nd;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_distributed(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed_sim");
    group.sample_size(10);
    for (side, h) in [(12usize, 3u32), (16, 3)] {
        let g = generators::grid2d(side, side, WeightKind::Unit, 0);
        let nd = grid_nd(side, side, h);
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        let n_grid = (1usize << h) - 1;
        let label = format!("{side}x{side}_p{}", n_grid * n_grid);
        group.bench_with_input(BenchmarkId::new("sparse2d", &label), &gp, |b, gp| {
            b.iter(|| sparse2d(&layout, gp, R4Strategy::OneToOne));
        });
        group.bench_with_input(BenchmarkId::new("fw2d", &label), &g, |b, g| {
            b.iter(|| fw2d(g, n_grid));
        });
        group.bench_with_input(BenchmarkId::new("dc_apsp_d1", &label), &g, |b, g| {
            b.iter(|| dc_apsp(g, n_grid, 1));
        });
        group.bench_with_input(BenchmarkId::new("johnson", &label), &g, |b, g| {
            b.iter(|| distributed_johnson(g, n_grid * n_grid));
        });
        let dgp = DiCsr::from_undirected(&g).permuted(&nd.perm);
        group.bench_with_input(BenchmarkId::new("sparse2d_directed", &label), &dgp, |b, dgp| {
            b.iter(|| sparse2d_directed(&layout, dgp, &Sparse2dOptions::default()));
        });
    }
    group.finish();
}

fn bench_pipeline_pieces(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    let side = 16;
    let g = generators::grid2d(side, side, WeightKind::Unit, 0);
    group.bench_function("dist_nested_dissection_p9", |b| {
        b.iter(|| dist_nested_dissection(&g, 3, 9, 0, false));
    });
    // batched update of a solved matrix
    let nd = grid_nd(side, side, 3);
    let layout = SupernodalLayout::from_ordering(&nd);
    let gp = g.permuted(&nd.perm);
    let solved = sparse2d(&layout, &gp, R4Strategy::OneToOne);
    let blocks: Vec<_> = (0..layout.p())
        .map(|rank| {
            let (i, j) = layout.block_of_rank(rank);
            let (ri, rj) = (layout.range(i), layout.range(j));
            apsp_minplus::MinPlusMatrix::from_fn(ri.len(), rj.len(), |r, c| {
                solved.dist_eliminated.get(ri.start + r, rj.start + c)
            })
        })
        .collect();
    let batch = vec![DecreasedEdge { u: 0, v: layout.n() - 1, new_weight: 1.0 }];
    group.bench_function("apply_one_decrease_p49", |b| {
        b.iter(|| apply_decreases(&layout, &blocks, &batch));
    });
    group.finish();
}

criterion_group!(benches, bench_distributed, bench_pipeline_pieces);
criterion_main!(benches);
