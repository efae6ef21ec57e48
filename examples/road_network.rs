//! A synthetic road network: a perturbed mesh of local streets with a few
//! long-range highways — the workload class (planar-ish, small separators)
//! whose APSP the paper's algorithm accelerates. Computes all-pairs
//! distances on the simulated machine, reconstructs a route, and compares
//! the communication bill against the dense baseline.
//!
//! ```text
//! cargo run --release --example road_network
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparse_apsp::prelude::*;

/// Builds the road network: `side × side` intersections, street edges with
/// congestion-perturbed travel times, plus `highways` fast long-distance
/// links along grid lines.
fn build_roads(side: usize, highways: usize, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let id = |r: usize, c: usize| r * side + c;
    let mut b = GraphBuilder::new(side * side);
    for r in 0..side {
        for c in 0..side {
            // street travel time: base 1.0 plus congestion noise
            if c + 1 < side {
                b.add_edge(id(r, c), id(r, c + 1), 1.0 + rng.random::<f64>());
            }
            if r + 1 < side {
                b.add_edge(id(r, c), id(r + 1, c), 1.0 + rng.random::<f64>());
            }
        }
    }
    // highways: straight segments with 0.25×-per-hop cost
    for _ in 0..highways {
        let r = rng.random_range(0..side);
        let c0 = rng.random_range(0..side / 2);
        let c1 = rng.random_range(side / 2..side);
        let hops = (c1 - c0) as f64;
        b.add_edge(id(r, c0), id(r, c1), 0.25 * hops);
    }
    b.build()
}

fn main() {
    let side = 14;
    let g = build_roads(side, 6, 7);
    println!("road network: {} intersections, {} segments", g.n(), g.m());

    // sparse distributed solve (multilevel ND handles the highway shortcuts)
    let solver = SparseApsp::new(SparseApspConfig { height: 3, ..Default::default() });
    let solved = solver.solve(&g, None).expect("travel times are non-negative");
    println!("top separator: {} vertices (of {})", solved.ordering().top_separator(), g.n());

    // oracle check + route reconstruction from the handle's distances
    let reference = oracle::apsp_dijkstra(&g);
    assert!(solved.dense().first_mismatch(&reference, 1e-9).is_none());
    let (src, dst) = (0, side * side - 1);
    let route = solved.route(src, dst).expect("connected");
    println!(
        "route {src} → {dst}: {:.2} time units via {} intersections",
        solved.distance(src, dst),
        route.len()
    );
    // cross-check the route against the Dijkstra tree
    let (dist, _) = oracle::dijkstra_with_parents(&g, src);
    assert!((dist[dst] - solved.distance(src, dst)).abs() < 1e-9);
    let w = sparse_apsp::graph::paths::path_weight(&g, &route).expect("valid hops");
    assert!((w - dist[dst]).abs() < 1e-9);

    // communication: sparse algorithm vs dense baseline on the same machine
    let dense = fw2d(&g, 7);
    assert!(dense.dist.first_mismatch(&reference, 1e-9).is_none());
    let (rs, rd) = (solved.report(), &dense.report);
    println!("\n                   2D-SPARSE-APSP    dense blocked FW");
    println!("latency  (msgs)  {:>12}    {:>12}", rs.critical_latency(), rd.critical_latency());
    println!("bandwidth(words) {:>12}    {:>12}", rs.critical_bandwidth(), rd.critical_bandwidth());
    println!("volume   (words) {:>12}    {:>12}", rs.total_words(), rd.total_words());
}
