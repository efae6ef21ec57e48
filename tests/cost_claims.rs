//! Cost-regression tests: the measured communication of every run must
//! stay within the paper's asymptotic envelopes (with explicit constants).
//! These are the executable versions of Theorems 5.7 and 5.10, Lemma 5.2,
//! and the Table 2 comparisons.

use sparse_apsp::prelude::*;

/// Runs the sparse solver on a `side × side` mesh with tree height `h` and
/// returns `(report, |S|, n)` after verifying the distances.
fn mesh_run(side: usize, h: u32) -> (RunReport, usize, usize) {
    let g = grid2d(side, side, WeightKind::Unit, 0);
    let solver = SparseApsp::new(SparseApspConfig {
        height: h,
        ordering: Ordering::Grid { rows: side, cols: side },
        ..Default::default()
    });
    let solved = solver.solve(&g, None).unwrap();
    let reference = oracle::apsp_dijkstra(&g);
    assert!(solved.dense().first_mismatch(&reference, 1e-9).is_none());
    (solved.report().clone(), solved.ordering().max_separator(), g.n())
}

#[test]
fn latency_is_within_log_squared_envelope_theorem_5_7() {
    // L ≤ c·log²p with a fixed constant across machine sizes
    for (side, h) in [(8, 2), (12, 3), (16, 4)] {
        let p = (((1usize << h) - 1) * ((1usize << h) - 1)) as f64;
        let (report, _, _) = mesh_run(side, h);
        let envelope = 3.0 * p.log2().powi(2);
        assert!(
            (report.critical_latency() as f64) <= envelope,
            "h={h}: L={} > 3·log²p={envelope:.0}",
            report.critical_latency()
        );
    }
}

#[test]
fn latency_does_not_scale_with_sqrt_p() {
    // between p=9 and p=225, √p grows 5×; sparse L must grow ≪ 5×
    let (r9, _, _) = mesh_run(16, 2);
    let (r225, _, _) = mesh_run(16, 4);
    let growth = r225.critical_latency() as f64 / r9.critical_latency() as f64;
    assert!(growth < 5.0, "L growth {growth:.2}× looks like √p scaling");
}

#[test]
fn bandwidth_is_within_theorem_5_10_envelope() {
    for (side, h) in [(12, 2), (12, 3), (16, 4)] {
        let n_grid = (1usize << h) - 1;
        let p = n_grid * n_grid;
        let (report, s, n) = mesh_run(side, h);
        let envelope = 6.0 * bounds::sparse_bandwidth(n, p, s);
        assert!(
            (report.critical_bandwidth() as f64) <= envelope,
            "h={h}: B={} > 6×prediction={envelope:.0}",
            report.critical_bandwidth()
        );
    }
}

#[test]
fn memory_is_within_section_5_4_1_envelope() {
    for (side, h) in [(12, 2), (16, 3), (16, 4)] {
        let n_grid = (1usize << h) - 1;
        let p = n_grid * n_grid;
        let (report, s, n) = mesh_run(side, h);
        let envelope = 8.0 * bounds::sparse_memory(n, p, s);
        assert!(
            (report.max_peak_words() as f64) <= envelope,
            "h={h}: M={} > 8×(n²/p + |S|²)={envelope:.0}",
            report.max_peak_words()
        );
    }
}

#[test]
fn sparse_beats_dense_fw2d_on_meshes_table_2() {
    let g = grid2d(16, 16, WeightKind::Unit, 0);
    let reference = oracle::apsp_dijkstra(&g);
    for h in [3u32, 4] {
        let n_grid = (1usize << h) - 1;
        let sparse = SparseApsp::new(SparseApspConfig {
            height: h,
            ordering: Ordering::Grid { rows: 16, cols: 16 },
            ..Default::default()
        })
        .run(&g);
        let dense = fw2d(&g, n_grid);
        assert!(dense.dist.first_mismatch(&reference, 1e-9).is_none());
        assert!(
            sparse.report.critical_latency() < dense.report.critical_latency(),
            "h={h}: sparse L should win"
        );
        assert!(
            sparse.report.critical_bandwidth() < dense.report.critical_bandwidth(),
            "h={h}: sparse B should win on a mesh"
        );
        assert!(sparse.report.total_words() < dense.report.total_words());
    }
}

#[test]
fn sparse_beats_dcapsp_latency() {
    let g = grid2d(14, 14, WeightKind::Unit, 0);
    let sparse = SparseApsp::new(SparseApspConfig {
        height: 3,
        ordering: Ordering::Grid { rows: 14, cols: 14 },
        ..Default::default()
    })
    .run(&g);
    let dc = dc_apsp(&g, 7, 1);
    let reference = oracle::apsp_dijkstra(&g);
    assert!(dc.dist.first_mismatch(&reference, 1e-9).is_none());
    assert!(
        sparse.report.critical_latency() < dc.report.critical_latency(),
        "sparse {} vs dc {}",
        sparse.report.critical_latency(),
        dc.report.critical_latency()
    );
}

#[test]
fn measured_bandwidth_sits_above_lower_bound_theorem_6_5() {
    // sanity on the lower-bound overlay: measured ≥ LB body/8 (the LB has
    // no constant; measured should not be absurdly below it)
    for (side, h) in [(16usize, 3u32), (16, 4)] {
        let n_grid = (1usize << h) - 1;
        let p = n_grid * n_grid;
        let (report, s, n) = mesh_run(side, h);
        let lb = bounds::lower_bound_bandwidth(n, p, s);
        assert!(
            report.critical_bandwidth() as f64 >= lb / 8.0,
            "h={h}: measured B={} below LB/8={lb:.0}",
            report.critical_bandwidth()
        );
    }
}

#[test]
fn r4_one_to_one_is_never_worse_than_sequential() {
    for side in [12usize, 16] {
        let g = grid2d(side, side, WeightKind::Unit, 0);
        let nd = grid_nd(side, side, 4);
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        let fast = sparse2d(&layout, &gp, R4Strategy::OneToOne).report;
        let slow = sparse2d(&layout, &gp, R4Strategy::SequentialUnits).report;
        assert!(fast.critical_bandwidth() <= slow.critical_bandwidth());
        // latency: within one message of each other at this scale or better
        assert!(fast.critical_latency() <= slow.critical_latency() + 2);
    }
}

#[test]
fn bigger_machines_reduce_per_rank_bandwidth() {
    // sparse B per rank must decrease as p grows (Table 2: ~ n²/p + |S|²)
    let (r9, _, _) = mesh_run(16, 2);
    let (r49, _, _) = mesh_run(16, 3);
    let (r225, _, _) = mesh_run(16, 4);
    assert!(r49.critical_bandwidth() < r9.critical_bandwidth());
    assert!(r225.critical_bandwidth() < r49.critical_bandwidth());
}
