//! Live traffic updates on a solved road network: when a few road segments
//! speed up (an accident clears, a new ramp opens), the solved all-pairs
//! distance matrix is *updated in place* through two all-reduces instead
//! of re-solved — the incremental regime where FW-structured APSP shines.
//!
//! ```text
//! cargo run --release --example traffic_updates
//! ```

use sparse_apsp::core::update::{apply_decreases, DecreasedEdge};
use sparse_apsp::prelude::*;

fn main() {
    // the city: a 12×12 street mesh, travel times 2..9 minutes
    let side = 12;
    let g = grid2d(side, side, WeightKind::Integer { max: 9 }, 11);
    let n = g.n();

    // solve once on 49 simulated ranks
    let nd = grid_nd(side, side, 3);
    let layout = SupernodalLayout::from_ordering(&nd);
    let gp = g.permuted(&nd.perm);
    let solved = sparse2d(&layout, &gp, R4Strategy::OneToOne);
    println!(
        "initial solve: L = {} msgs, B = {} words",
        solved.report.critical_latency(),
        solved.report.critical_bandwidth()
    );
    let dist0 = SupernodalLayout::unpermute(&layout.assemble_dense(&solved.blocks), &nd.perm);
    let (a, b) = (0, n - 1);
    println!("before: travel {a} → {b} takes {:.0} min", dist0.get(a, b));

    // a new expressway opens diagonally across town: 3 fast segments
    let upgrades = [(0usize, 52usize, 2.0), (52, 104, 2.0), (104, 143, 2.0)];
    let blocks = solved.blocks;
    let batch: Vec<DecreasedEdge> = upgrades
        .iter()
        .map(|&(u, v, w)| DecreasedEdge {
            u: nd.perm.to_new(u),
            v: nd.perm.to_new(v),
            new_weight: w,
        })
        .collect();
    let updated = apply_decreases(&layout, &blocks, &batch);
    println!(
        "update ({} segments): L = {} msgs, B = {} words  ({}x less bandwidth than re-solving)",
        upgrades.len(),
        updated.report.critical_latency(),
        updated.report.critical_bandwidth(),
        solved.report.critical_bandwidth() / updated.report.critical_bandwidth().max(1),
    );

    let dist1 = SupernodalLayout::unpermute(&layout.assemble_dense(&updated.blocks), &nd.perm);
    println!("after:  travel {a} → {b} takes {:.0} min", dist1.get(a, b));
    assert!(dist1.get(a, b) < dist0.get(a, b), "the expressway must help");

    // verify the updated matrix against a full re-solve of the new city
    let mut builder = GraphBuilder::new(n);
    for (u, v, w) in g.edges() {
        builder.add_edge(u, v, w);
    }
    for &(u, v, w) in &upgrades {
        builder.add_edge(u, v, w);
    }
    let modified = builder.build();
    let reference = oracle::apsp_dijkstra(&modified);
    assert!(dist1.first_mismatch(&reference, 1e-9).is_none());
    println!("updated matrix verified against a full re-solve ✓");
}
