//! Integration tests for the beyond-the-paper extensions, all through the
//! public prelude: directed solves (incl. negative arcs), the distributed
//! Johnson baseline, the stateful handle, and the distributed ND pipeline.

use sparse_apsp::graph::digraph::{apsp_dijkstra_directed, bellman_ford_directed};
use sparse_apsp::prelude::*;

#[test]
fn stateful_handle_full_lifecycle() {
    let g = grid2d(10, 10, WeightKind::Integer { max: 6 }, 3);
    let mut solved = SolvedApsp::solve(&g, 3);
    let d0 = solved.distance(0, 99);
    // a shortcut halves the corner-to-corner trip
    solved.decrease_edges(&[(0, 99, d0 / 2.0)]);
    assert!((solved.distance(0, 99) - d0 / 2.0).abs() < 1e-9);
    // persist and restore
    let snap = std::env::temp_dir().join(format!("ext-snap-{}.txt", std::process::id()));
    solved.save(&snap).unwrap();
    let restored = SolvedApsp::load(&snap).unwrap();
    assert_eq!(restored.distance(0, 99), solved.distance(0, 99));
    let reference = oracle::apsp_dijkstra(restored.graph());
    assert!(restored.dense().first_mismatch(&reference, 1e-9).is_none());
}

#[test]
fn directed_negative_pipeline_through_prelude() {
    // a commute network where downhill segments "pay back" time
    let base = grid2d(6, 6, WeightKind::Unit, 0);
    let mut b = DiGraphBuilder::new(base.n());
    for (idx, (u, v, _)) in base.edges().enumerate() {
        let downhill = if idx % 6 == 0 { -0.5 } else { 1.0 };
        b.add_arc(u, v, downhill);
        b.add_arc(v, u, 2.0);
    }
    let dg = b.build();
    let run = SparseApsp::with_height(2).run_directed_negative(&dg).unwrap();
    for s in [0usize, 20, 35] {
        let truth = bellman_ford_directed(&dg, s).unwrap();
        for (t, &d) in truth.iter().enumerate() {
            let got = run.dist.get(s, t);
            assert!(
                (got - d).abs() < 1e-9 || (got.is_infinite() && d.is_infinite()),
                "({s},{t}): {got} vs {d}"
            );
        }
    }
}

#[test]
fn johnson_baseline_and_sparse_agree() {
    // the E15 configuration: large enough that graph replication does not
    // dominate (at n ≲ 100 the log p-round broadcast of the CSR exceeds
    // the sparse solve's critical bandwidth — regime honesty cuts both ways)
    let g = grid2d(16, 16, WeightKind::Integer { max: 5 }, 1);
    let sparse = SparseApsp::with_height(3).run(&g);
    let dj = distributed_johnson(&g, 49);
    assert!(sparse.dist.first_mismatch(&dj.dist, 1e-9).is_none());
    // the regime signature (E15): Johnson's critical path is one broadcast
    // (its *total* replication volume, p copies of the graph, can exceed
    // the sparse solve's — totals are not its selling point)
    assert!(dj.report.critical_bandwidth() < sparse.report.critical_bandwidth());
    assert!(dj.report.critical_latency() < sparse.report.critical_latency());
}

#[test]
fn distributed_nd_feeds_the_solver_via_prelude() {
    let g = watts_strogatz(90, 2, 0.05, WeightKind::Unit, 2);
    let dist_nd = dist_nested_dissection(&g, 3, 9, 5, false);
    dist_nd.ordering.validate(&g).unwrap();
    let layout = SupernodalLayout::from_ordering(&dist_nd.ordering);
    let gp = g.permuted(&dist_nd.ordering.perm);
    let solved = sparse2d(&layout, &gp, R4Strategy::OneToOne);
    let dist =
        SupernodalLayout::unpermute(&layout.assemble_dense(&solved.blocks), &dist_nd.ordering.perm);
    let reference = oracle::apsp_dijkstra(&g);
    assert!(dist.first_mismatch(&reference, 1e-9).is_none());
}

#[test]
fn directed_cli_formats_roundtrip_through_library() {
    // DIMACS directed round trip through io helpers
    let mut b = DiGraphBuilder::new(4);
    b.add_arc(0, 1, 1.0);
    b.add_arc(1, 2, 2.0);
    b.add_arc(2, 3, 3.0);
    b.add_arc(3, 0, 4.0);
    let dg = b.build();
    let text = sparse_apsp::graph::io::to_dimacs_directed(&dg);
    let dg2 = sparse_apsp::graph::io::from_dimacs_directed(&text).unwrap();
    assert_eq!(dg, dg2);
    let solved = SparseApsp::with_height(2).solve(&dg2, None).unwrap();
    let reference = apsp_dijkstra_directed(&dg2);
    assert!(solved.dense().first_mismatch(&reference, 1e-9).is_none());
}

#[test]
fn projected_time_bridges_to_wall_clock_models() {
    let g = grid2d(10, 10, WeightKind::Unit, 0);
    let sparse = SparseApsp::with_height(3).run(&g);
    let dense = fw2d(&g, 7);
    // on a latency-dominated interconnect the sparse algorithm's projected
    // time wins by roughly the latency ratio
    let (alpha, beta, gamma) = (1e-5, 1e-9, 1e-10);
    let ts = sparse.report.projected_time(alpha, beta, gamma);
    let td = dense.report.projected_time(alpha, beta, gamma);
    assert!(ts < td, "{ts} vs {td}");
}
