//! Property tests: every ordering the partitioner emits must satisfy the
//! structural invariants the paper's algorithm relies on.

mod common;

use apsp_partition::separator::{min_vertex_cover_bipartite, separates, Part};
use apsp_partition::{bisect, nested_dissection, vertex_separator, BisectOptions, NdOptions};
use common::{arb_graph, build};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bisection_sides_are_binary_and_nonempty((n, edges) in arb_graph(50)) {
        let g = build(n, &edges);
        let b = bisect(&g, &BisectOptions::default());
        prop_assert_eq!(b.side.len(), n);
        prop_assert!(b.side.iter().all(|&s| s <= 1));
        // both sides populated for n >= 2
        prop_assert!(b.side.contains(&0));
        prop_assert!(b.side.contains(&1));
    }

    #[test]
    fn separator_always_separates((n, edges) in arb_graph(40)) {
        let g = build(n, &edges);
        let b = bisect(&g, &BisectOptions::default());
        let part = vertex_separator(&g, &b.side);
        prop_assert!(separates(&g, &part));
        // separator no larger than the boundary it covers
        let cut_endpoints: std::collections::BTreeSet<usize> = g
            .edges()
            .filter(|&(u, v, _)| b.side[u] != b.side[v])
            .flat_map(|(u, v, _)| [u, v])
            .collect();
        let s = part.iter().filter(|p| **p == Part::Sep).count();
        prop_assert!(s <= cut_endpoints.len());
        // the cover touches every cut edge, and on a boundary small enough
        // to search exhaustively it is as small as a maximum matching
        let cut: Vec<(usize, usize)> = g
            .edges()
            .filter(|&(u, v, _)| b.side[u] != b.side[v])
            .map(|(u, v, _)| if b.side[u] == 0 { (u, v) } else { (v, u) })
            .collect();
        prop_assert!(cut.iter().all(|&(u, v)| part[u] == Part::Sep || part[v] == Part::Sep));
        if let Some(matching) = brute_force_matching(&cut) {
            prop_assert_eq!(s, matching);
        }
    }

    #[test]
    fn cover_is_a_minimum_cover(edges in proptest::collection::vec((0..12usize, 100..112usize), 0..40)) {
        let cover = min_vertex_cover_bipartite(&edges);
        prop_assert!(cover.windows(2).all(|w| w[0] < w[1]), "sorted, no repeats");
        prop_assert!(edges.iter().all(|(l, r)| cover.contains(l) || cover.contains(r)));
        prop_assert_eq!(Some(cover.len()), brute_force_matching(&edges));
    }

    #[test]
    fn nd_orderings_validate((n, edges) in arb_graph(36), h in 1u32..5) {
        let g = build(n, &edges);
        let nd = nested_dissection(&g, h, &NdOptions::default());
        prop_assert!(nd.validate(&g).is_ok());
        prop_assert_eq!(nd.supernode_sizes.iter().sum::<usize>(), n);
        prop_assert_eq!(nd.supernode_sizes.len(), nd.tree.num_supernodes());
    }

    #[test]
    fn nd_permutation_is_stable_per_seed((n, edges) in arb_graph(24)) {
        let g = build(n, &edges);
        let a = nested_dissection(&g, 3, &NdOptions::default());
        let b = nested_dissection(&g, 3, &NdOptions::default());
        prop_assert_eq!(a.perm.as_order(), b.perm.as_order());
        prop_assert_eq!(a.supernode_sizes, b.supernode_sizes);
    }

    #[test]
    fn supernode_lookup_consistent((n, edges) in arb_graph(30)) {
        let g = build(n, &edges);
        let nd = nested_dissection(&g, 3, &NdOptions::default());
        for old in 0..n {
            let k = nd.supernode_of_old(old);
            let new = nd.perm.to_new(old);
            let off = nd.offset(k);
            prop_assert!(off <= new && new < off + nd.supernode_sizes[k - 1]);
        }
    }
}

/// The size of a maximum matching of a bipartite edge list `(left, right)`,
/// found by trying every choice (each left vertex in turn stays unmatched or
/// takes a free neighbour, memoised on the set of rights taken), or `None`
/// when a side has more than 12 vertices. Kőnig's theorem makes it the size
/// of a minimum vertex cover.
fn brute_force_matching(edges: &[(usize, usize)]) -> Option<usize> {
    let ids = |pick: fn(&(usize, usize)) -> usize| {
        let mut ids: Vec<usize> = edges.iter().map(pick).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let (lefts, rights) = (ids(|e| e.0), ids(|e| e.1));
    if lefts.len() > 12 || rights.len() > 12 {
        return None;
    }
    // `nbrs[l]`: the rights of left `l`, as a bit mask
    let mut nbrs = vec![0usize; lefts.len()];
    for (l, r) in edges {
        let (l, r) = (lefts.binary_search(l).unwrap(), rights.binary_search(r).unwrap());
        nbrs[l] |= 1 << r;
    }
    fn best(l: usize, taken: usize, nbrs: &[usize], memo: &mut [Option<usize>]) -> usize {
        if l == nbrs.len() {
            return 0;
        }
        if let Some(size) = memo[l << 12 | taken] {
            return size;
        }
        let mut size = best(l + 1, taken, nbrs, memo);
        for r in 0..12 {
            if nbrs[l] >> r & 1 == 1 && taken >> r & 1 == 0 {
                size = size.max(1 + best(l + 1, taken | 1 << r, nbrs, memo));
            }
        }
        memo[l << 12 | taken] = Some(size);
        size
    }
    Some(best(0, 0, &nbrs, &mut vec![None; lefts.len() << 12]))
}
