//! Cross-crate integration tests: the full pipeline on realistic workloads,
//! all algorithms against all oracles.

use sparse_apsp::prelude::*;

fn verify(run: &ApspRun, g: &Csr) {
    let reference = oracle::apsp_dijkstra(g);
    if let Some((i, j, a, b)) = run.dist.first_mismatch(&reference, 1e-9) {
        panic!("mismatch at ({i},{j}): got {a}, expected {b}");
    }
}

#[test]
fn paper_fig1_graph_end_to_end() {
    let g = paper_fig1();
    let solved = SparseApsp::with_height(2).solve(&g, None).unwrap();
    // the paper's Fig. 1 separator is the single bridging vertex
    assert_eq!(solved.ordering().top_separator(), 1);
    verify(&solved.into(), &g);
}

#[test]
fn mesh_all_heights_all_strategies() {
    let g = grid2d(10, 10, WeightKind::Integer { max: 9 }, 11);
    for h in 1..=3u32 {
        for r4 in [R4Strategy::OneToOne, R4Strategy::SequentialUnits] {
            let run =
                SparseApsp::new(SparseApspConfig { height: h, r4, ..Default::default() }).run(&g);
            verify(&run, &g);
        }
    }
}

#[test]
fn grid_ordering_matches_multilevel_ordering_results() {
    let g = grid2d(9, 9, WeightKind::Uniform { lo: 0.1, hi: 2.0 }, 5);
    let a = SparseApsp::new(SparseApspConfig {
        height: 3,
        ordering: Ordering::Grid { rows: 9, cols: 9 },
        ..Default::default()
    })
    .run(&g);
    let b = SparseApsp::new(SparseApspConfig { height: 3, ..Default::default() }).run(&g);
    verify(&a, &g);
    verify(&b, &g);
    assert!(a.dist.first_mismatch(&b.dist, 1e-9).is_none());
}

#[test]
fn three_distributed_algorithms_agree() {
    let g = connected_gnp(50, 0.06, WeightKind::Integer { max: 20 }, 3);
    let sparse = SparseApsp::with_height(3).run(&g);
    let dense = fw2d(&g, 7);
    let dc = dc_apsp(&g, 7, 1);
    verify(&sparse, &g);
    assert!(sparse.dist.first_mismatch(&dense.dist, 1e-9).is_none());
    assert!(sparse.dist.first_mismatch(&dc.dist, 1e-9).is_none());
}

#[test]
fn superfw_and_sparse2d_agree() {
    let g = random_geometric(80, 0.2, WeightKind::Uniform { lo: 0.5, hi: 3.0 }, 7);
    let nd = nested_dissection(&g, 3, &NdOptions::default());
    let (sf_dist, _) = superfw_apsp(&g, &nd);
    let run = SparseApsp::with_height(3).run(&g);
    assert!(run.dist.first_mismatch(&sf_dist, 1e-9).is_none());
}

#[test]
fn workloads_gallery() {
    // every generator goes through the full pipeline at least once
    let graphs: Vec<(&str, Csr)> = vec![
        ("path", path(20, WeightKind::Unit, 0)),
        ("cycle", cycle(21, WeightKind::Integer { max: 3 }, 1)),
        ("star", star(20, WeightKind::Unit, 2)),
        ("tree", balanced_tree(5, WeightKind::Integer { max: 5 }, 3)),
        ("caterpillar", caterpillar(6, 3, WeightKind::Unit, 4)),
        ("grid3d", grid3d(3, 3, 3, WeightKind::Unit, 5)),
        ("complete", complete(12, WeightKind::Integer { max: 9 }, 6)),
        ("rmat", rmat(5, 3, WeightKind::Unit, 7)),
    ];
    for (name, g) in graphs {
        let run = SparseApsp::with_height(2).run(&g);
        let reference = oracle::apsp_dijkstra(&g);
        assert!(run.dist.first_mismatch(&reference, 1e-9).is_none(), "workload {name} failed");
    }
}

#[test]
fn disconnected_forest() {
    let mut b = GraphBuilder::new(30);
    for c in 0..5 {
        for i in 0..5 {
            b.add_edge(6 * c + i, 6 * c + i + 1, (i + 1) as f64);
        }
    }
    let g = b.build();
    let run = SparseApsp::with_height(2).run(&g);
    verify(&run, &g);
    assert_eq!(run.dist.get(0, 29), INF);
}

#[test]
fn io_roundtrip_through_pipeline() {
    let g = grid2d(6, 6, WeightKind::Integer { max: 4 }, 9);
    let text = sparse_apsp::graph::io::to_matrix_market(&g);
    let g2 = sparse_apsp::graph::io::from_matrix_market(&text).unwrap();
    let a = SparseApsp::with_height(2).run(&g);
    let b = SparseApsp::with_height(2).run(&g2);
    assert!(a.dist.first_mismatch(&b.dist, 1e-9).is_none());
}

#[test]
fn zero_weight_edges() {
    let mut b = GraphBuilder::new(8);
    for i in 0..7 {
        b.add_edge(i, i + 1, if i % 2 == 0 { 0.0 } else { 2.0 });
    }
    let g = b.build();
    let run = SparseApsp::with_height(2).run(&g);
    verify(&run, &g);
    assert_eq!(run.dist.get(0, 1), 0.0);
}

#[test]
fn single_vertex_graph() {
    let g = Csr::edgeless(1);
    let run = SparseApsp::with_height(1).run(&g);
    assert_eq!(run.dist.get(0, 0), 0.0);
    assert_eq!(run.report.total_messages(), 0);
}
