//! Directed APSP: a downtown street grid where avenues alternate direction
//! (Manhattan-style one-way streets). Weights are asymmetric — the paper's
//! undirected formulation generalizes because the supernodal schedule only
//! needs the *pattern* to be symmetric; the `R⁴` phase computes both block
//! orientations instead of mirroring (`Input::Directed`).
//!
//! ```text
//! cargo run --release --example one_way_streets
//! ```

use sparse_apsp::graph::digraph::apsp_dijkstra_directed;
use sparse_apsp::graph::DiGraphBuilder;
use sparse_apsp::prelude::*;

fn main() {
    let side = 10;
    let id = |r: usize, c: usize| r * side + c;
    let mut b = DiGraphBuilder::new(side * side);
    for r in 0..side {
        for c in 0..side {
            // horizontal streets: even rows eastbound, odd rows westbound
            if c + 1 < side {
                if r % 2 == 0 {
                    b.add_arc(id(r, c), id(r, c + 1), 1.0);
                } else {
                    b.add_arc(id(r, c + 1), id(r, c), 1.0);
                }
            }
            // vertical avenues: two-way but slower northbound
            if r + 1 < side {
                b.add_arc(id(r, c), id(r + 1, c), 1.0);
                b.add_arc(id(r + 1, c), id(r, c), 2.0);
            }
        }
    }
    let city = b.build();
    println!(
        "downtown: {} intersections, {} pattern pairs (one-way streets included)",
        city.n(),
        city.pattern_entries() / 2
    );

    let solved = SparseApsp::with_height(3).solve(&city, None).expect("one-way weights are >= 0");
    let reference = apsp_dijkstra_directed(&city);
    assert!(solved.dense().first_mismatch(&reference, 1e-9).is_none());
    println!("verified against directed Dijkstra ✓");

    // asymmetry in action: the same two corners, both directions
    let (a, z) = (id(0, 0), id(1, side - 1));
    println!(
        "drive {a} → {z}: {:.0} min   |   {z} → {a}: {:.0} min (one-way detours)",
        solved.distance(a, z),
        solved.distance(z, a)
    );
    assert_ne!(solved.distance(a, z), solved.distance(z, a));

    println!(
        "communication: L = {} messages, B = {} words on p = 49 simulated ranks",
        solved.report().critical_latency(),
        solved.report().critical_bandwidth()
    );
}
