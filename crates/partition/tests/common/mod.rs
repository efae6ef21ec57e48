//! Graph strategies shared by the partitioner's property suites.

use apsp_graph::GraphBuilder;
use proptest::prelude::*;

/// A vertex count in `2..max_n` and up to `4n` random edges over it
/// (self loops and repeats included; [`build`] drops and merges them).
pub fn arb_graph(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2..max_n).prop_flat_map(|n| {
        let edge = (0..n, 0..n);
        (Just(n), proptest::collection::vec(edge, 0..(4 * n)))
    })
}

/// The unit-weight graph of an [`arb_graph`] draw.
pub fn build(n: usize, edges: &[(usize, usize)]) -> apsp_graph::Csr {
    let mut b = GraphBuilder::new(n);
    for &(u, v) in edges {
        if u != v {
            b.add_edge(u, v, 1.0);
        }
    }
    b.build()
}
