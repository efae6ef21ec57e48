//! Property tests for the distributed nested-dissection pipeline: on
//! arbitrary graphs and rank counts it must produce valid orderings
//! (separation invariant, complete vertex coverage) deterministically.

use apsp_core::dnd::dist_nested_dissection;
use apsp_graph::GraphBuilder;
use proptest::prelude::*;

fn arb_graph(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (4..max_n).prop_flat_map(|n| {
        let edge = (0..n, 0..n);
        (Just(n), proptest::collection::vec(edge, 0..(3 * n)))
    })
}

fn build(n: usize, edges: &[(usize, usize)]) -> apsp_graph::Csr {
    let mut b = GraphBuilder::new(n);
    for &(u, v) in edges {
        if u != v {
            b.add_edge(u, v, 1.0);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn orderings_are_always_valid(
        (n, edges) in arb_graph(40),
        h in 2u32..4,
        p_pick in 0usize..4,
        seed in 0u64..100,
    ) {
        let g = build(n, &edges);
        let p = [1, 3, 4, 7][p_pick];
        let result = dist_nested_dissection(&g, h, p, seed, false);
        prop_assert!(result.ordering.validate(&g).is_ok());
        prop_assert_eq!(result.ordering.supernode_sizes.iter().sum::<usize>(), n);
        // every vertex appears exactly once in the permutation (from_order
        // enforces bijection; double-check coverage)
        let mut seen = vec![false; n];
        for new in 0..n {
            let old = result.ordering.perm.to_old(new);
            prop_assert!(!seen[old]);
            seen[old] = true;
        }
    }

    #[test]
    fn deterministic_per_seed((n, edges) in arb_graph(28), seed in 0u64..50) {
        let g = build(n, &edges);
        let a = dist_nested_dissection(&g, 3, 4, seed, false);
        let b = dist_nested_dissection(&g, 3, 4, seed, false);
        prop_assert_eq!(a.ordering.perm.as_order(), b.ordering.perm.as_order());
        prop_assert_eq!(
            a.report.critical_bandwidth(),
            b.report.critical_bandwidth()
        );
    }

    #[test]
    fn solves_feed_through((n, edges) in arb_graph(26)) {
        // the distributed ordering must always be usable by the solver
        let g = build(n, &edges);
        let result = dist_nested_dissection(&g, 2, 4, 7, false);
        let layout = apsp_core::SupernodalLayout::from_ordering(&result.ordering);
        let gp = g.permuted(&result.ordering.perm);
        let solved = apsp_core::sparse2d::sparse2d(
            &layout,
            &gp,
            apsp_core::R4Strategy::OneToOne,
        );
        let dist = apsp_core::SupernodalLayout::unpermute(
            &solved.dist_eliminated,
            &result.ordering.perm,
        );
        let reference = apsp_graph::oracle::apsp_dijkstra(&g);
        prop_assert!(dist.first_mismatch(&reference, 1e-9).is_none());
    }
}
