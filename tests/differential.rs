//! Differential conformance: every solver in the workspace computes the
//! same distance matrix on the same corpus. Cross-solver agreement was
//! previously only checked ad hoc per crate (each against the oracle);
//! this table pins it pairwise, so a drift in any one solver's semantics
//! (INF handling, disconnected components, weight ties) fails here by name.

use sparse_apsp::minplus::MinPlusMatrix;
use sparse_apsp::prelude::*;

/// The corpus: name + graph, spanning the shapes that historically
/// disagree between APSP implementations.
fn corpus() -> Vec<(&'static str, Csr)> {
    let disconnected = {
        let mut b = GraphBuilder::new(14);
        for i in 0..5 {
            b.add_edge(i, i + 1, 1.0 + (i % 3) as f64);
        }
        b.add_edge(7, 8, 2.0);
        b.add_edge(8, 9, 0.5);
        // vertices 6 and 10..13 are isolated
        b.build()
    };
    vec![
        ("path", path(16, WeightKind::Unit, 0)),
        ("grid", grid2d(5, 5, WeightKind::Integer { max: 6 }, 1)),
        ("random-sparse", connected_gnp(26, 0.12, WeightKind::Uniform { lo: 0.3, hi: 2.0 }, 7)),
        ("disconnected", disconnected),
        ("weighted", watts_strogatz(24, 4, 0.2, WeightKind::Uniform { lo: 0.1, hi: 5.0 }, 3)),
    ]
}

/// Every solver, normalized to `name → DenseDist` on input vertex ids.
fn solve_all(g: &Csr) -> Vec<(&'static str, DenseDist)> {
    let mut out = Vec::new();

    let run = SparseApsp::with_height(2).run(g);
    out.push(("sparse2d", run.dist));

    out.push(("fw2d", fw2d(g, 3).dist));
    out.push(("dcapsp", dc_apsp(g, 3, 1).dist));
    out.push(("djohnson", distributed_johnson(g, 9).dist));

    let nd = nested_dissection(g, 2, &NdOptions::default());
    let (dist, _) = superfw_apsp(g, &nd);
    out.push(("superfw", dist));

    out
}

#[test]
fn all_solvers_agree_pairwise_on_the_corpus() {
    for (graph_name, g) in corpus() {
        let solved = solve_all(&g);
        for (i, (name_a, dist_a)) in solved.iter().enumerate() {
            for (name_b, dist_b) in &solved[i + 1..] {
                if let Some((r, c, a, b)) = dist_a.first_mismatch(dist_b, 1e-9) {
                    panic!(
                        "{graph_name}: {name_a} vs {name_b} disagree at \
                         ({r},{c}): {a} vs {b}"
                    );
                }
            }
        }
        // sanity: they agree with each other AND with the oracle
        let reference = oracle::apsp_dijkstra(&g);
        let (name, dist) = &solved[0];
        assert!(
            dist.first_mismatch(&reference, 1e-9).is_none(),
            "{graph_name}: {name} disagrees with the oracle"
        );
    }
}

/// Asserts exact f64 bit equality — `first_mismatch(.., 0.0)` would still
/// admit `-0.0 == 0.0` and treats NaN specially; the backends run the
/// identical schedule, so nothing short of `to_bits` equality is owed.
fn assert_bit_identical(graph_name: &str, solver: &str, sim: &DenseDist, native: &DenseDist) {
    assert_eq!(sim.n(), native.n(), "{graph_name}/{solver}: dimension drift");
    for i in 0..sim.n() {
        for j in 0..sim.n() {
            let (a, b) = (sim.get(i, j), native.get(i, j));
            assert!(
                a.to_bits() == b.to_bits(),
                "{graph_name}/{solver}: backends disagree at ({i},{j}): \
                 sim {a} ({:#x}) vs native {b} ({:#x})",
                a.to_bits(),
                b.to_bits()
            );
        }
    }
}

/// A plain launch on the native backend.
fn on_native<S: Solver>(solver: &S) -> S::Result {
    launch(solver, &LaunchSpec { backend: Backend::Native, ..Default::default() })
        .expect("fault-free launch cannot fail")
        .result
}

#[test]
fn native_backend_is_bit_identical_to_simnet() {
    // the Transport-trait guarantee: both backends execute the identical
    // SPMD schedule, so every solver's distance matrix must match the
    // simulated run bit for bit — to_bits equality, not tolerance
    for (graph_name, g) in corpus() {
        let sim = SparseApsp::with_height(2).run(&g).dist;
        let native =
            SparseApsp::new(SparseApspConfig { backend: Backend::Native, ..Default::default() })
                .run(&g)
                .dist;
        assert_bit_identical(graph_name, "sparse2d", &sim, &native);

        let native = on_native(&Fw2d::new(&g, 3)).dist;
        assert_bit_identical(graph_name, "fw2d", &fw2d(&g, 3).dist, &native);
        assert_bit_identical(
            graph_name,
            "dcapsp",
            &dc_apsp(&g, 3, 1).dist,
            &on_native(&DcApsp::new(&g, 3, 1)).dist,
        );
        assert_bit_identical(
            graph_name,
            "djohnson",
            &distributed_johnson(&g, 9).dist,
            &on_native(&DJohnson::new(&g, 9)).dist,
        );
    }
}

#[test]
fn native_backend_matches_simnet_on_sparse2d_variants() {
    // the option space the schedule actually branches on: R⁴ strategy,
    // taller trees, directed weights
    let g = grid2d(8, 8, WeightKind::Integer { max: 6 }, 5);
    let nd = grid_nd(8, 8, 3);
    let layout = SupernodalLayout::from_ordering(&nd);
    let gp = g.permuted(&nd.perm);
    for r4 in [R4Strategy::OneToOne, R4Strategy::SequentialUnits] {
        let sim = sparse2d(&layout, &gp, r4).dist_eliminated;
        let native = on_native(&Sparse2d::new(&layout, &gp, r4)).dist_eliminated;
        assert_bit_identical("grid8x8", &format!("sparse2d {r4:?}"), &sim, &native);
    }

    let dg = DiCsr::from_undirected(&g).permuted(&nd.perm);
    let r4 = R4Strategy::OneToOne;
    let sim = sparse2d_directed(&layout, &dg, r4).dist_eliminated;
    let native = on_native(&Sparse2d::new(&layout, &dg, r4)).dist_eliminated;
    assert_bit_identical("grid8x8", "sparse2d-directed", &sim, &native);
}

#[test]
fn native_backend_applies_decreases_bit_identically() {
    // the update's rank program runs on any Transport: the same batch on
    // real threads must leave every distance bit where the simulator does
    let g = grid2d(8, 8, WeightKind::Uniform { lo: 1.0, hi: 10.0 }, 5);
    let nd = grid_nd(8, 8, 3);
    let layout = SupernodalLayout::from_ordering(&nd);
    let solved = sparse2d(&layout, &g.permuted(&nd.perm), R4Strategy::OneToOne).dist_eliminated;
    let blocks = layout.split_dense(&solved);
    let bits = |m: &MinPlusMatrix| m.as_slice().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    // compounding float decreases: 0→27 then 27→63, plus a repeated edge;
    // then a batch of sixteen edges
    let compounding = [(0, 63, 4.25), (0, 27, 0.3), (27, 63, 0.7), (0, 63, 0.0)];
    let sixteen: Vec<(usize, usize, f64)> =
        (0..16).map(|i| (i * 5 % 64, (i * 11 + 29) % 64, 0.25 * i as f64)).collect();
    for (name, edges) in [("compounding", &compounding[..]), ("k=16", &sixteen[..])] {
        let batch: Vec<DecreasedEdge> = edges
            .iter()
            .map(|&(u, v, w)| DecreasedEdge {
                u: nd.perm.to_new(u),
                v: nd.perm.to_new(v),
                new_weight: w,
            })
            .collect();
        let sim = apply_decreases(&layout, &blocks, &batch).blocks;
        let native = on_native(&Decreases::new(&layout, &blocks, &batch)).blocks;
        assert!(sim.iter().zip(&blocks).any(|(a, b)| bits(a) != bits(b)), "{name}: no change");
        for (rank, (a, b)) in sim.iter().zip(&native).enumerate() {
            assert_eq!(bits(a), bits(b), "{name}: the backends disagree on rank {rank}'s block");
        }
    }
}

#[test]
fn native_backend_orders_distributed_like_simnet() {
    // distributed nested dissection is a rank program like any other: on
    // real threads it must pick the same permutation, and the solve that
    // follows must land on the same distance bits
    for (name, side) in [("grid6x6", 6), ("grid8x8", 8)] {
        let g = grid2d(side, side, WeightKind::Uniform { lo: 0.5, hi: 4.0 }, 9);
        for height in [2, 3] {
            let run = |backend| {
                let config = SparseApspConfig {
                    height,
                    ordering: Ordering::Distributed,
                    backend,
                    ..Default::default()
                };
                SparseApsp::new(config).run(&g)
            };
            let (sim, native) = (run(Backend::Sim), run(Backend::Native));
            assert_eq!(
                sim.ordering.perm.as_order(),
                native.ordering.perm.as_order(),
                "{name} h={height}: the two machines ordered the graph differently"
            );
            assert_eq!(sim.ordering.supernode_sizes, native.ordering.supernode_sizes);
            assert_bit_identical(name, "sparse2d-distributed-ordering", &sim.dist, &native.dist);
        }
    }
}

#[test]
fn faulted_and_clean_solvers_agree() {
    // the differential table, under faults: a recovered run must equal the
    // clean run bit-for-bit on distances
    let plan = FaultPlan::new(0xD1FF).with_drop(0.06).with_dup(0.04).with_corrupt(0.03);
    for (graph_name, g) in corpus() {
        let clean = fw2d(&g, 3).dist;
        let spec = LaunchSpec { faults: Some(&plan), ..Default::default() };
        let faulted = launch(&Fw2d::new(&g, 3), &spec).expect("recoverable plan");
        let summary = faulted.faults.expect("faulty run carries a summary");
        assert!(
            clean.first_mismatch(&faulted.result.dist, 0.0).is_none(),
            "{graph_name}: faulted fw2d drifted from the clean run"
        );
        assert_eq!(summary.unrecoverable, 0, "{graph_name}");
    }
}
