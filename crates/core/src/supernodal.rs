//! The supernodal block matrix: an ND-ordered graph cut into the `N × N`
//! block grid addressed by scheduling-tree labels (paper Fig. 1d / Fig. 3).

use apsp_etree::SchedTree;
use apsp_graph::{Csr, Permutation};
use apsp_minplus::MinPlusMatrix;
use apsp_partition::NdOrdering;

/// Geometry of the supernodal blocking: the scheduling tree plus each
/// supernode's vertex count and offset in the eliminated ordering.
///
/// Block `(i, j)` (1-based supernode labels) is `size(i) × size(j)`; the
/// `√p × √p` processor grid assigns it to rank `(i−1)·N + (j−1)`.
#[derive(Clone, Debug)]
pub struct SupernodalLayout {
    tree: SchedTree,
    sizes: Vec<usize>,
    offsets: Vec<usize>,
}

impl SupernodalLayout {
    /// Builds the layout from a nested-dissection ordering.
    pub fn from_ordering(nd: &NdOrdering) -> Self {
        Self::new(nd.tree, nd.supernode_sizes.clone())
    }

    /// Builds from a tree and explicit supernode sizes (label order).
    pub fn new(tree: SchedTree, sizes: Vec<usize>) -> Self {
        assert_eq!(sizes.len(), tree.num_supernodes(), "one size per supernode");
        let mut offsets = vec![0];
        for &size in &sizes {
            offsets.push(offsets[offsets.len() - 1] + size);
        }
        SupernodalLayout { tree, sizes, offsets }
    }

    /// The scheduling tree.
    pub fn tree(&self) -> &SchedTree {
        &self.tree
    }

    /// Grid side `N = √p` (also the supernode count).
    pub fn n_super(&self) -> usize {
        self.tree.num_supernodes()
    }

    /// Total vertex count.
    pub fn n(&self) -> usize {
        // offsets always starts with the sentinel 0
        self.offsets.last().copied().unwrap_or(0)
    }

    /// Processor count `p = N²`.
    pub fn p(&self) -> usize {
        self.n_super() * self.n_super()
    }

    /// Vertex count of supernode `k` (1-based label).
    pub fn size(&self, k: usize) -> usize {
        self.sizes[k - 1]
    }

    /// First vertex index of supernode `k` in the eliminated ordering.
    pub fn offset(&self, k: usize) -> usize {
        self.offsets[k - 1]
    }

    /// Vertex index range of supernode `k`.
    pub fn range(&self, k: usize) -> std::ops::Range<usize> {
        self.offsets[k - 1]..self.offsets[k]
    }

    /// The supernode owning eliminated vertex `x`, and `x`'s offset in
    /// it: a binary search over the offsets, so a zero-size supernode
    /// never owns a vertex.
    pub(crate) fn locate(&self, x: usize) -> (usize, usize) {
        assert!(x < self.n(), "vertex {x} is past the layout's {} vertices", self.n());
        // the first offset past `x` ends the range of the owner
        let k = self.offsets.partition_point(|&o| o <= x);
        (k, x - self.offsets[k - 1])
    }

    /// Words of block `(i, j)`.
    pub fn block_words(&self, i: usize, j: usize) -> usize {
        self.size(i) * self.size(j)
    }

    /// Rank of the processor owning block `(i, j)` (row-major grid).
    pub fn rank_of_block(&self, i: usize, j: usize) -> usize {
        let n = self.n_super();
        debug_assert!((1..=n).contains(&i) && (1..=n).contains(&j));
        (i - 1) * n + (j - 1)
    }

    /// Inverse of [`SupernodalLayout::rank_of_block`].
    pub fn block_of_rank(&self, rank: usize) -> (usize, usize) {
        let n = self.n_super();
        debug_assert!(rank < n * n);
        (rank / n + 1, rank % n + 1)
    }

    /// Builds block `(i, j)` of the adjacency matrix of `g_perm` — the
    /// graph **already permuted** into the eliminated ordering. The
    /// diagonal of diagonal blocks is `0`.
    pub fn extract_block(&self, g_perm: &Csr, i: usize, j: usize) -> MinPlusMatrix {
        self.block_of(i, j, |u| g_perm.edges_of(u))
    }

    /// Block `(i, j)` of the adjacency whose arcs out of `u` (eliminated
    /// ordering) are `arcs(u)`: entry `(r, c)` holds the arc weight
    /// `row-vertex → col-vertex`, and the missing direction of a directed
    /// pattern pair (an `∞` arc) stays `∞`.
    pub(crate) fn block_of<I: Iterator<Item = (usize, f64)>>(
        &self,
        i: usize,
        j: usize,
        arcs: impl Fn(usize) -> I,
    ) -> MinPlusMatrix {
        let (ri, rj) = (self.range(i), self.range(j));
        let mut block = MinPlusMatrix::empty(ri.len(), rj.len());
        if i == j {
            for d in 0..ri.len() {
                block.set(d, d, 0.0);
            }
        }
        for (bi, u) in ri.clone().enumerate() {
            for (v, w) in arcs(u) {
                if rj.contains(&v) && w.is_finite() {
                    block.relax(bi, v - rj.start, w);
                }
            }
        }
        block
    }

    /// Builds every block (row-major `N × N`) — convenience for
    /// shared-memory algorithms and tests.
    pub fn extract_all_blocks(&self, g_perm: &Csr) -> Vec<MinPlusMatrix> {
        let block = |(i, j)| self.extract_block(g_perm, i, j);
        (0..self.p()).map(|rank| block(self.block_of_rank(rank))).collect()
    }

    /// Counts blocks that are structurally empty in the ND-ordered
    /// adjacency matrix (the Fig. 1 empty-block census).
    pub fn empty_block_census(&self, g_perm: &Csr) -> EmptyBlockCensus {
        let n = self.n_super();
        let mut census = EmptyBlockCensus::default();
        for i in 1..=n {
            for j in 1..=n {
                census.total += 1;
                let empty = self.extract_block(g_perm, i, j).is_empty_block();
                if empty {
                    census.empty += 1;
                }
                if self.tree.cousins(i, j) {
                    census.cousin_blocks += 1;
                    if !empty {
                        // legal only for orderings that are not true nested
                        // dissections (e.g. the "natural order" baseline of
                        // the Fig. 1 census); counted so callers can tell
                        census.nonempty_cousin_blocks += 1;
                    }
                }
            }
        }
        census
    }

    /// Reassembles a dense matrix (in eliminated ordering) from per-block
    /// buffers laid out row-major by `(i−1)·N + (j−1)`. The blocks tile
    /// the `n × n` matrix, so each output row is the concatenation of one
    /// row of every block in its block row, copied into one exact-size
    /// buffer.
    pub fn assemble_dense(&self, blocks: &[MinPlusMatrix]) -> apsp_graph::DenseDist {
        let n = self.n();
        let ns = self.n_super();
        assert_eq!(blocks.len(), ns * ns, "one buffer per block");
        for (rank, b) in blocks.iter().enumerate() {
            let (i, j) = self.block_of_rank(rank);
            assert_eq!(b.rows(), self.size(i), "block ({i},{j}) row mismatch");
            assert_eq!(b.cols(), self.size(j), "block ({i},{j}) col mismatch");
        }
        let mut out = Vec::with_capacity(n * n);
        for (i, block_row) in (1..=ns).zip(blocks.chunks_exact(ns)) {
            for r in 0..self.size(i) {
                for b in block_row {
                    out.extend_from_slice(b.row(r));
                }
            }
        }
        apsp_graph::DenseDist::from_raw(n, out)
    }

    /// Un-permutes a dense matrix from the eliminated ordering back to the
    /// input graph's vertex ids: row `u` of the output is row
    /// `perm.to_new(u)` gathered through `perm`, into one exact-size buffer.
    pub fn unpermute(dist: &apsp_graph::DenseDist, perm: &Permutation) -> apsp_graph::DenseDist {
        let n = dist.n();
        assert_eq!(perm.len(), n);
        let to_new = perm.as_to_new();
        let mut out = Vec::with_capacity(n * n);
        for &new_i in to_new {
            let row = dist.row(new_i);
            out.extend(to_new.iter().map(|&new_j| row[new_j]));
        }
        apsp_graph::DenseDist::from_raw(n, out)
    }
}

/// Result of [`SupernodalLayout::empty_block_census`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EmptyBlockCensus {
    /// Total block count `N²`.
    pub total: usize,
    /// Structurally empty blocks.
    pub empty: usize,
    /// Blocks whose supernodes are cousins (all empty under a valid ND
    /// ordering).
    pub cousin_blocks: usize,
    /// Cousin blocks holding finite entries — zero for every valid nested
    /// dissection; positive for baseline orderings like "natural order".
    pub nonempty_cousin_blocks: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{self, WeightKind};
    use apsp_partition::{grid_nd, nested_dissection, NdOptions};

    fn fig1_layout() -> (Csr, SupernodalLayout, Permutation) {
        let g = generators::paper_fig1();
        let nd = nested_dissection(&g, 2, &NdOptions::default());
        nd.validate(&g).unwrap();
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        (gp, layout, nd.perm)
    }

    #[test]
    fn fig1_block_structure() {
        let (gp, layout, _) = fig1_layout();
        assert_eq!(layout.n_super(), 3);
        assert_eq!(layout.p(), 9);
        assert_eq!(layout.n(), 7);
        // the cross blocks between the two leaf supernodes are empty
        assert!(layout.extract_block(&gp, 1, 2).is_empty_block());
        assert!(layout.extract_block(&gp, 2, 1).is_empty_block());
        // panels against the separator are not
        assert!(!layout.extract_block(&gp, 1, 3).is_empty_block());
        assert!(!layout.extract_block(&gp, 3, 2).is_empty_block());
        let census = layout.empty_block_census(&gp);
        assert_eq!(census.total, 9);
        assert_eq!(census.cousin_blocks, 2);
        assert_eq!(census.empty, 2);
    }

    #[test]
    fn diagonal_blocks_have_zero_diagonal() {
        let (gp, layout, _) = fig1_layout();
        for k in 1..=3 {
            let b = layout.extract_block(&gp, k, k);
            for d in 0..b.rows() {
                assert_eq!(b.get(d, d), 0.0);
            }
            assert!(b.is_symmetric(1e-12));
        }
    }

    #[test]
    fn rank_mapping_roundtrip() {
        let (_, layout, _) = fig1_layout();
        for i in 1..=3 {
            for j in 1..=3 {
                let r = layout.rank_of_block(i, j);
                assert_eq!(layout.block_of_rank(r), (i, j));
            }
        }
    }

    #[test]
    fn assemble_matches_extracted_blocks() {
        let g = generators::grid2d(5, 5, WeightKind::Integer { max: 4 }, 3);
        let nd = grid_nd(5, 5, 2);
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        let blocks = layout.extract_all_blocks(&gp);
        let dense = layout.assemble_dense(&blocks);
        // spot-check: dense equals the permuted adjacency
        for (u, v, w) in gp.edges() {
            assert_eq!(dense.get(u, v), w);
            assert_eq!(dense.get(v, u), w);
        }
        for d in 0..25 {
            assert_eq!(dense.get(d, d), 0.0);
        }
    }

    #[test]
    fn unpermute_restores_vertex_ids() {
        let g = generators::grid2d(4, 4, WeightKind::Integer { max: 5 }, 1);
        let nd = grid_nd(4, 4, 2);
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        let blocks = layout.extract_all_blocks(&gp);
        let dense = layout.assemble_dense(&blocks);
        let restored = SupernodalLayout::unpermute(&dense, &nd.perm);
        for (u, v, w) in g.edges() {
            assert_eq!(restored.get(u, v), w, "edge ({u},{v})");
        }
    }

    #[test]
    fn zero_size_supernodes_yield_zero_blocks() {
        let g = generators::path(5, WeightKind::Unit, 0);
        let nd = nested_dissection(&g, 4, &NdOptions::default());
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        let blocks = layout.extract_all_blocks(&gp);
        assert_eq!(blocks.len(), 15 * 15);
        let dense = layout.assemble_dense(&blocks);
        assert_eq!(dense.n(), 5);
    }

    #[test]
    fn grid_census_counts_most_blocks_empty() {
        let g = generators::grid2d(16, 16, WeightKind::Unit, 0);
        let nd = grid_nd(16, 16, 4);
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        let census = layout.empty_block_census(&gp);
        assert_eq!(census.total, 225);
        // most cousin blocks exist and are empty
        assert!(census.empty >= census.cousin_blocks / 2, "{census:?}");
        assert!(census.cousin_blocks > 100, "{census:?}");
    }
}
