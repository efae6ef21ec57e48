//! Shared-memory supernodal Floyd–Warshall (SuperFW \[22\], §4).
//!
//! The sequential reference point of the paper: blocked FW driven by the
//! elimination tree, eliminating supernodes bottom-up and skipping every
//! block update whose operands are structurally empty (cousin blocks).
//! Compared with classical FW's `n³` scalar operations, the supernodal
//! elimination performs `O(n²|S|)`-ish work — a reduction of `Θ(n/|S|)` —
//! which [`superfw_opcount_comparison`] measures for the E7 experiment.

use crate::supernodal::SupernodalLayout;
use apsp_graph::{Csr, DenseDist};
use apsp_minplus::{fw_in_place, gemm, MinPlusMatrix};

/// Operation statistics of a [`superfw`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SuperFwStats {
    /// Scalar min-plus relaxations performed.
    pub ops: u64,
    /// Block updates executed.
    pub block_updates: u64,
    /// Block updates skipped because an operand was structurally empty.
    pub block_skips: u64,
    /// Scalar ops in the `R¹` diagonal closures.
    pub r1_ops: u64,
    /// Scalar ops in the `R²` panel updates.
    pub r2_ops: u64,
    /// Scalar ops in the `R³`/`R⁴` outer products.
    pub r34_ops: u64,
}

impl SuperFwStats {
    /// The per-region counters partition the total: `r1 + r2 + r34 = ops`.
    pub fn region_ops_sum(&self) -> u64 {
        self.r1_ops + self.r2_ops + self.r34_ops
    }
}

/// Runs supernodal FW on the blocks of an eliminated-order graph.
///
/// `blocks` is the row-major `N × N` block matrix (see
/// [`SupernodalLayout::extract_all_blocks`]); it is updated in place to the
/// all-pairs distances. Empty-operand updates are skipped, which is exactly
/// the §4.1/§4.2 saving (legitimate because fill is confined to related
/// supernode pairs under the ND order).
pub fn superfw(layout: &SupernodalLayout, blocks: &mut [MinPlusMatrix]) -> SuperFwStats {
    let t = *layout.tree();
    let n_super = layout.n_super();
    assert_eq!(blocks.len(), n_super * n_super, "one block per grid cell");
    let at = |i: usize, j: usize| layout.rank_of_block(i, j);
    let mut stats = SuperFwStats::default();

    for l in 1..=t.height() {
        for k in t.level_nodes(l) {
            if layout.size(k) == 0 {
                continue;
            }
            // R1: diagonal closure
            let d = fw_in_place(&mut blocks[at(k, k)]);
            stats.ops += d;
            stats.r1_ops += d;
            stats.block_updates += 1;
            let akk = blocks[at(k, k)].clone();

            // R2: panels over related supernodes only
            let related: Vec<usize> = t.descendants(k).chain(t.ancestors(k)).collect();
            for &i in &related {
                if layout.size(i) == 0 {
                    continue;
                }
                let col = blocks[at(i, k)].clone();
                if col.is_empty_block() {
                    stats.block_skips += 1;
                } else {
                    let d = gemm(&mut blocks[at(i, k)], &col, &akk);
                    stats.ops += d;
                    stats.r2_ops += d;
                    stats.block_updates += 1;
                }
                let row = blocks[at(k, i)].clone();
                if row.is_empty_block() {
                    stats.block_skips += 1;
                } else {
                    let d = gemm(&mut blocks[at(k, i)], &akk, &row);
                    stats.ops += d;
                    stats.r2_ops += d;
                    stats.block_updates += 1;
                }
            }

            // R3/R4: outer products over related × related
            for &i in &related {
                if layout.size(i) == 0 {
                    continue;
                }
                let aik = blocks[at(i, k)].clone();
                if aik.is_empty_block() {
                    stats.block_skips += related.len() as u64;
                    continue;
                }
                for &j in &related {
                    if layout.size(j) == 0 {
                        continue;
                    }
                    let akj = blocks[at(k, j)].clone();
                    if akj.is_empty_block() {
                        stats.block_skips += 1;
                        continue;
                    }
                    let d = gemm(&mut blocks[at(i, j)], &aik, &akj);
                    stats.ops += d;
                    stats.r34_ops += d;
                    stats.block_updates += 1;
                }
            }
        }
    }
    stats
}

/// End-to-end shared-memory sparse APSP: permute by `nd`, run [`superfw`],
/// un-permute. Returns distances (input vertex ids) and the statistics.
pub fn superfw_apsp(g: &Csr, nd: &apsp_partition::NdOrdering) -> (DenseDist, SuperFwStats) {
    let layout = SupernodalLayout::from_ordering(nd);
    let gp = g.permuted(&nd.perm);
    let mut blocks = layout.extract_all_blocks(&gp);
    let stats = superfw(&layout, &mut blocks);
    let dense = layout.assemble_dense(&blocks);
    (SupernodalLayout::unpermute(&dense, &nd.perm), stats)
}

/// The E7 experiment row: classical FW ops (`n³`) vs SuperFW ops on the
/// same graph, plus the separator statistic that predicts the ratio.
#[derive(Clone, Copy, Debug)]
pub struct OpcountComparison {
    /// Vertex count.
    pub n: usize,
    /// Top-level separator size.
    pub top_separator: usize,
    /// Classical FW scalar ops (`n³`).
    pub classical_ops: u64,
    /// SuperFW scalar ops.
    pub superfw_ops: u64,
}

impl OpcountComparison {
    /// Measured reduction factor `classical / superfw`.
    pub fn reduction(&self) -> f64 {
        self.classical_ops as f64 / self.superfw_ops.max(1) as f64
    }

    /// The paper's predicted reduction `Θ(n / |S|)`.
    pub fn predicted_reduction(&self) -> f64 {
        self.n as f64 / self.top_separator.max(1) as f64
    }
}

/// Measures classical-vs-supernodal operation counts for a graph/ordering.
pub fn superfw_opcount_comparison(g: &Csr, nd: &apsp_partition::NdOrdering) -> OpcountComparison {
    let (_, stats) = superfw_apsp(g, nd);
    OpcountComparison {
        n: g.n(),
        top_separator: nd.max_separator(),
        classical_ops: apsp_graph::oracle::classical_fw_opcount(g.n()),
        superfw_ops: stats.ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{self, WeightKind};
    use apsp_graph::oracle;
    use apsp_partition::{grid_nd, nested_dissection, NdOptions};

    #[test]
    fn fig1_graph_correct() {
        let g = generators::paper_fig1();
        let nd = nested_dissection(&g, 2, &NdOptions::default());
        let (dist, stats) = superfw_apsp(&g, &nd);
        let oracle = oracle::apsp_dijkstra(&g);
        assert!(dist.first_mismatch(&oracle, 1e-9).is_none());
        assert!(stats.block_updates > 0);
    }

    #[test]
    fn deep_tree_skips_empty_blocks() {
        // with h = 3 on a path, leaf-to-cousin-panel products are skipped
        let g = generators::path(16, WeightKind::Unit, 0);
        let nd = nested_dissection(&g, 3, &NdOptions::default());
        let (dist, stats) = superfw_apsp(&g, &nd);
        let oracle = oracle::apsp_dijkstra(&g);
        assert!(dist.first_mismatch(&oracle, 1e-9).is_none());
        assert!(stats.block_skips > 0, "sparsity should be exploited: {stats:?}");
    }

    #[test]
    fn grids_correct_across_heights() {
        let g = generators::grid2d(6, 6, WeightKind::Integer { max: 8 }, 2);
        let oracle = oracle::apsp_dijkstra(&g);
        for h in 1..=4 {
            let nd = nested_dissection(&g, h, &NdOptions::default());
            let (dist, _) = superfw_apsp(&g, &nd);
            assert!(dist.first_mismatch(&oracle, 1e-9).is_none(), "h={h}");
        }
    }

    #[test]
    fn random_graphs_correct() {
        for seed in 0..6 {
            let g =
                generators::connected_gnp(40, 0.08, WeightKind::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let nd = nested_dissection(&g, 3, &NdOptions::default());
            let (dist, _) = superfw_apsp(&g, &nd);
            let oracle = oracle::apsp_dijkstra(&g);
            assert!(dist.first_mismatch(&oracle, 1e-9).is_none(), "seed {seed}");
        }
    }

    #[test]
    fn disconnected_graph_keeps_infinities() {
        let mut b = apsp_graph::GraphBuilder::new(8);
        for i in 0..3 {
            b.add_edge(i, i + 1, 1.0);
        }
        for i in 4..7 {
            b.add_edge(i, i + 1, 1.0);
        }
        let g = b.build();
        let nd = nested_dissection(&g, 2, &NdOptions::default());
        let (dist, _) = superfw_apsp(&g, &nd);
        let oracle = oracle::apsp_dijkstra(&g);
        assert!(dist.first_mismatch(&oracle, 1e-9).is_none());
    }

    #[test]
    fn opcount_reduction_tracks_n_over_s() {
        // 16×16 grid, geometric dissection: |S| = 16, n = 256 → predicted ~16×
        let g = generators::grid2d(16, 16, WeightKind::Unit, 0);
        let nd = grid_nd(16, 16, 4);
        let cmp = superfw_opcount_comparison(&g, &nd);
        assert!(cmp.superfw_ops < cmp.classical_ops);
        // measured reduction within a small constant of the prediction
        let measured = cmp.reduction();
        let predicted = cmp.predicted_reduction();
        assert!(measured > predicted / 8.0, "measured {measured:.2} vs predicted {predicted:.2}");
    }

    #[test]
    fn region_ops_partition_the_total() {
        let g = generators::grid2d(10, 10, WeightKind::Integer { max: 5 }, 1);
        let nd = grid_nd(10, 10, 3);
        let (_, stats) = superfw_apsp(&g, &nd);
        assert!(stats.r1_ops > 0 && stats.r2_ops > 0 && stats.r34_ops > 0, "{stats:?}");
        assert_eq!(stats.region_ops_sum(), stats.ops, "{stats:?}");
    }

    #[test]
    fn deeper_trees_skip_more() {
        let g = generators::grid2d(12, 12, WeightKind::Unit, 0);
        let shallow = {
            let nd = grid_nd(12, 12, 2);
            superfw_apsp(&g, &nd).1
        };
        let deep = {
            let nd = grid_nd(12, 12, 4);
            superfw_apsp(&g, &nd).1
        };
        assert!(deep.ops < shallow.ops, "deep {} vs shallow {}", deep.ops, shallow.ops);
    }
}
