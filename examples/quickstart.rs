//! Quickstart: solve all-pairs shortest paths on a simulated distributed
//! machine and read the communication bill.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sparse_apsp::prelude::*;

fn main() {
    // A 12×12 mesh: 144 vertices, the separator-friendly shape the paper
    // targets (|S| = Θ(√n)).
    let g = grid2d(12, 12, WeightKind::Integer { max: 9 }, 42);
    println!("graph: {} vertices, {} edges", g.n(), g.m());

    // Elimination tree of height 3 → √p = 2³−1 = 7 → p = 49 simulated ranks.
    let solver = SparseApsp::new(SparseApspConfig {
        height: 3,
        ordering: Ordering::Grid { rows: 12, cols: 12 },
        ..Default::default()
    });
    // The one door: a handle on the ranks' blocks, or a typed error for
    // input it refuses (a negative weight, a grid shape that does not fit).
    let solved = solver.solve(&g, None).expect("a 12×12 mesh with weights 1..=9");

    // Queries take input vertex ids.
    let (a, b) = (0, 143); // opposite corners
    println!("d({a}, {b}) = {}", solved.distance(a, b));

    // Verify against the sequential oracle (n Dijkstra runs).
    let reference = oracle::apsp_dijkstra(&g);
    assert!(solved.dense().first_mismatch(&reference, 1e-9).is_none());
    println!("verified against Dijkstra ✓");

    // The §3.1 communication bill, measured on the critical path.
    let r = solved.report();
    println!("\ncost report (p = 49):");
    println!("  latency   L = {:>8} messages", r.critical_latency());
    println!("  bandwidth B = {:>8} words", r.critical_bandwidth());
    println!("  memory    M = {:>8} words/rank (peak)", r.max_peak_words());
    println!("  volume      = {:>8} words total", r.total_words());
    println!(
        "\npaper predictions (shape): L ~ log²p = {:.0}, B ~ n²log²p/p + |S|²log²p = {:.0}",
        bounds::sparse_latency(49),
        bounds::sparse_bandwidth(g.n(), 49, solved.ordering().max_separator()),
    );
}
