//! End-to-end property tests: every algorithm in the crate must agree with
//! the Dijkstra oracle on arbitrary graphs.

use apsp_core::dcapsp::dc_apsp;
use apsp_core::fw2d::fw2d;
use apsp_core::sparse2d::{sparse2d, R4Strategy};
use apsp_core::superfw::superfw_apsp;
use apsp_core::supernodal::SupernodalLayout;
use apsp_graph::{oracle, GraphBuilder};
use apsp_partition::{nested_dissection, NdOptions};
use proptest::prelude::*;

fn arb_graph(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize, u32)>)> {
    (4..max_n).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 1u32..50);
        (Just(n), proptest::collection::vec(edge, 0..(3 * n)))
    })
}

fn build(n: usize, edges: &[(usize, usize, u32)]) -> apsp_graph::Csr {
    let mut b = GraphBuilder::new(n);
    for &(u, v, w) in edges {
        if u != v {
            b.add_edge(u, v, w as f64);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse2d_matches_oracle((n, edges) in arb_graph(30), h in 2u32..4) {
        let g = build(n, &edges);
        let nd = nested_dissection(&g, h, &NdOptions::default());
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        let result = sparse2d(&layout, &gp, R4Strategy::OneToOne);
        let dist = SupernodalLayout::unpermute(&result.dist_eliminated, &nd.perm);
        let reference = oracle::apsp_dijkstra(&g);
        prop_assert!(dist.first_mismatch(&reference, 1e-9).is_none());
        // the distance matrix of an undirected graph is symmetric
        prop_assert!(dist.is_symmetric(1e-9));
    }

    #[test]
    fn both_r4_strategies_agree((n, edges) in arb_graph(24)) {
        let g = build(n, &edges);
        let nd = nested_dissection(&g, 3, &NdOptions::default());
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        let a = sparse2d(&layout, &gp, R4Strategy::OneToOne);
        let b = sparse2d(&layout, &gp, R4Strategy::SequentialUnits);
        prop_assert!(a.dist_eliminated.first_mismatch(&b.dist_eliminated, 1e-9).is_none());
    }

    #[test]
    fn superfw_matches_oracle((n, edges) in arb_graph(30), h in 1u32..5) {
        let g = build(n, &edges);
        let nd = nested_dissection(&g, h, &NdOptions::default());
        let (dist, _) = superfw_apsp(&g, &nd);
        let reference = oracle::apsp_dijkstra(&g);
        prop_assert!(dist.first_mismatch(&reference, 1e-9).is_none());
    }

    #[test]
    fn fw2d_matches_oracle((n, edges) in arb_graph(24), ng in 1usize..4) {
        let g = build(n, &edges);
        let result = fw2d(&g, ng);
        let reference = oracle::apsp_dijkstra(&g);
        prop_assert!(result.dist.first_mismatch(&reference, 1e-9).is_none());
    }

    #[test]
    fn dcapsp_matches_oracle((n, edges) in arb_graph(20), depth in 0u32..3) {
        let g = build(n, &edges);
        let result = dc_apsp(&g, 3, depth);
        let reference = oracle::apsp_dijkstra(&g);
        prop_assert!(result.dist.first_mismatch(&reference, 1e-9).is_none());
    }

    #[test]
    fn directed_sparse2d_matches_directed_oracle(
        (n, edges) in arb_graph(24),
        drops in proptest::collection::vec(proptest::bool::ANY, 3 * 24),
    ) {
        // random digraph: independent weights per direction, some one-way
        let mut b = apsp_graph::DiGraphBuilder::new(n);
        for (idx, &(u, v, w)) in edges.iter().enumerate() {
            if u == v {
                continue;
            }
            let keep_fwd = drops.get(idx % drops.len()).copied().unwrap_or(true);
            let keep_bwd = drops.get((idx + 7) % drops.len()).copied().unwrap_or(true);
            if keep_fwd {
                b.add_arc(u, v, w as f64);
            }
            if keep_bwd || !keep_fwd {
                b.add_arc(v, u, (w / 2 + 1) as f64);
            }
        }
        let dg = b.build();
        let pattern = dg.underlying_pattern();
        let nd = nested_dissection(&pattern, 3, &NdOptions::default());
        let layout = SupernodalLayout::from_ordering(&nd);
        let dgp = dg.permuted(&nd.perm);
        let result = apsp_core::sparse2d::sparse2d_directed(
            &layout,
            &dgp,
            apsp_core::sparse2d::R4Strategy::OneToOne,
        );
        let reference = apsp_graph::digraph::apsp_dijkstra_directed(&dgp);
        prop_assert!(result.dist_eliminated.first_mismatch(&reference, 1e-9).is_none());
    }

    #[test]
    fn memory_stays_within_block_plus_temporaries((n, edges) in arb_graph(24)) {
        // every rank's peak ≤ its block + a constant number of same-order
        // temporaries (§5.4.1: M = O(n²/p + |S|²))
        let g = build(n, &edges);
        let nd = nested_dissection(&g, 2, &NdOptions::default());
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        let result = sparse2d(&layout, &gp, R4Strategy::OneToOne);
        let max_block = (1..=layout.n_super())
            .flat_map(|i| (1..=layout.n_super()).map(move |j| (i, j)))
            .map(|(i, j)| layout.block_words(i, j))
            .max()
            .unwrap_or(0) as u64;
        for (rank, stats) in result.report.per_rank.iter().enumerate() {
            prop_assert!(
                stats.peak_words <= 8 * max_block.max(1),
                "rank {rank}: peak {} vs max block {max_block}",
                stats.peak_words
            );
        }
    }
}
