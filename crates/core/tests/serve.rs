//! The handle serves from its rank blocks: `distance` and `route` read the
//! blocks in place through the locate table, and must answer exactly what
//! the dense view answers — the same bits for every distance and the same
//! vertex sequence for every route — on a fresh handle, after decrease
//! batches and after a save/load round trip. The dense view itself must
//! equal, bit for bit, the element-by-element assembly it replaced.

use apsp_core::{SolvedApsp, SupernodalLayout};
use apsp_graph::generators::{connected_gnp, grid2d, WeightKind};
use apsp_graph::paths::reconstruct_path;
use apsp_graph::{Csr, GraphBuilder, Permutation};
use apsp_minplus::MinPlusMatrix;

/// The dense assembly and un-permutation as they stood before they copied
/// rows, kept verbatim as the reference: an `∞` matrix written one `set`
/// at a time.
mod frozen {
    use apsp_core::SupernodalLayout;
    use apsp_graph::{DenseDist, Permutation};
    use apsp_minplus::MinPlusMatrix;

    pub fn assemble_dense(layout: &SupernodalLayout, blocks: &[MinPlusMatrix]) -> DenseDist {
        let n = layout.n();
        let ns = layout.n_super();
        assert_eq!(blocks.len(), ns * ns, "one buffer per block");
        let mut out = DenseDist::unconnected(n);
        for i in 1..=ns {
            for j in 1..=ns {
                let b = &blocks[layout.rank_of_block(i, j)];
                assert_eq!(b.rows(), layout.size(i), "block ({i},{j}) row mismatch");
                assert_eq!(b.cols(), layout.size(j), "block ({i},{j}) col mismatch");
                let (oi, oj) = (layout.offset(i), layout.offset(j));
                for r in 0..b.rows() {
                    for c in 0..b.cols() {
                        out.set(oi + r, oj + c, b.get(r, c));
                    }
                }
            }
        }
        out
    }

    pub fn unpermute(dist: &DenseDist, perm: &Permutation) -> DenseDist {
        let n = dist.n();
        assert_eq!(perm.len(), n);
        let mut out = DenseDist::unconnected(n);
        for old_i in 0..n {
            for old_j in 0..n {
                out.set(old_i, old_j, dist.get(perm.to_new(old_i), perm.to_new(old_j)));
            }
        }
        out
    }
}

/// 24 × 24 mesh, integer weights 1..=9: the benchmark's `mesh-serve`
/// shape, where many shortest paths tie.
fn mesh() -> Csr {
    grid2d(24, 24, WeightKind::Integer { max: 9 }, 5)
}

/// A 10 × 10 mesh where every third edge weighs 0: plateaus a greedy walk
/// can dead-end in.
fn plateaus() -> Csr {
    let g = grid2d(10, 10, WeightKind::Integer { max: 4 }, 2);
    let mut b = GraphBuilder::new(g.n());
    for (k, (u, v, w)) in g.edges().enumerate() {
        b.add_edge(u, v, if k % 3 == 0 { 0.0 } else { w });
    }
    b.build()
}

/// G(120, 0.05) with uniform real weights.
fn gnp() -> Csr {
    connected_gnp(120, 0.05, WeightKind::Uniform { lo: 0.1, hi: 3.0 }, 11)
}

/// Four paths of three vertices and two isolated vertices: at height 4
/// its ordering leaves supernodes empty.
fn disconnected() -> Csr {
    let mut b = GraphBuilder::new(14);
    for k in 0..4 {
        b.add_edge(3 * k, 3 * k + 1, 1.0 + k as f64);
        b.add_edge(3 * k + 1, 3 * k + 2, 0.5);
    }
    b.build()
}

/// The four graphs and the heights they are solved at.
fn cases() -> [(&'static str, Csr, u32); 4] {
    [
        ("mesh", mesh(), 3),
        ("plateaus", plateaus(), 3),
        ("gnp", gnp(), 3),
        ("disconnected", disconnected(), 4),
    ]
}

/// Every ordered pair: `route` is the dense reconstruction vertex for
/// vertex, and `distance` the dense entry bit for bit.
fn serves_like_dense(what: &str, solved: &SolvedApsp) {
    let dense = solved.dense();
    let g = solved.graph();
    for u in 0..g.n() {
        for v in 0..g.n() {
            let want = dense.get(u, v).to_bits();
            assert_eq!(solved.distance(u, v).to_bits(), want, "{what}: distance({u}, {v})");
            let route = solved.route(u, v);
            assert_eq!(route, reconstruct_path(g, &dense, u, v, 1e-9), "{what}: route({u}, {v})");
        }
    }
}

/// Two decrease batches of four edges each: three shortcuts at half the
/// distance of their ends (weight 1 across components) and one existing
/// edge lowered.
fn two_batches(solved: &mut SolvedApsp) {
    let n = solved.graph().n();
    for batch in 0..2 {
        let mut edges = Vec::new();
        for k in 0..3 {
            let (u, v) = ((7 * k + batch) % n, (n / 2 + 5 * k + 3 * batch) % n);
            let d = solved.distance(u, v);
            edges.push((u, v, if d.is_finite() { d * 0.5 } else { 1.0 }));
        }
        let (u, v, w) = solved.graph().edges().nth(batch).expect("every case has edges");
        edges.push((u, v, w * 0.5));
        solved.decrease_edges(&edges);
    }
}

#[test]
fn every_route_and_distance_read_from_the_blocks_equals_the_dense_view() {
    for (what, g, h) in cases() {
        let mut solved = SolvedApsp::solve(&g, h);
        if what == "disconnected" {
            assert!(solved.ordering().supernode_sizes.contains(&0), "no empty supernode");
        }
        serves_like_dense(what, &solved);
        two_batches(&mut solved);
        serves_like_dense(&format!("{what} after two batches"), &solved);
        let path = std::env::temp_dir().join(format!("apsp-serve-{what}-{}", std::process::id()));
        solved.save(&path).unwrap();
        let loaded = SolvedApsp::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        serves_like_dense(&format!("{what} after save and load"), &loaded);
    }
}

/// Blocks whose every word differs (and some are `∞`), so any word the
/// assembly puts in the wrong place shows.
fn numbered_blocks(layout: &SupernodalLayout) -> Vec<MinPlusMatrix> {
    (0..layout.p())
        .map(|rank| {
            let (i, j) = layout.block_of_rank(rank);
            let (rows, cols) = (layout.size(i), layout.size(j));
            let word = |x: usize| if x % 7 == 3 { f64::INFINITY } else { (rank * 4096 + x) as f64 };
            MinPlusMatrix::from_raw(rows, cols, (0..rows * cols).map(word).collect())
        })
        .collect()
}

#[test]
fn the_dense_view_equals_the_frozen_assembly_bit_for_bit() {
    let bits = |d: &apsp_graph::DenseDist| d.as_slice().iter().map(|w| w.to_bits()).collect();
    for (what, g, h) in cases() {
        let solved = SolvedApsp::solve(&g, h);
        let layout = SupernodalLayout::from_ordering(solved.ordering());
        let perm: &Permutation = &solved.ordering().perm;
        let blocks = numbered_blocks(&layout);
        let (new, old) = (layout.assemble_dense(&blocks), frozen::assemble_dense(&layout, &blocks));
        let (a, b): (Vec<u64>, Vec<u64>) = (bits(&new), bits(&old));
        assert_eq!(a, b, "{what}: assemble_dense");
        let (a, b): (Vec<u64>, Vec<u64>) =
            (bits(&SupernodalLayout::unpermute(&new, perm)), bits(&frozen::unpermute(&old, perm)));
        assert_eq!(a, b, "{what}: unpermute");
    }
}
