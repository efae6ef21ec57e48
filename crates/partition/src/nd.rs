//! Recursive nested dissection producing the supernodal elimination order.

use crate::bisect::{bisect, BisectOptions};
use crate::separator::{vertex_separator, Part};
use apsp_etree::SchedTree;
use apsp_graph::{Csr, Permutation};

/// Options for [`nested_dissection`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NdOptions {
    /// Options forwarded to every bisection call (the seed is mixed with
    /// the tree-node label so recursive calls decorrelate).
    pub bisect: BisectOptions,
}

/// A nested-dissection ordering shaped for the scheduling tree:
/// supernode `k` (1-based bottom-up level-order label) owns the vertex
/// range `offset(k) .. offset(k) + size(k)` of the **new** numbering.
#[derive(Clone, Debug)]
pub struct NdOrdering {
    /// The scheduling tree (`N = 2^h − 1` supernodes).
    pub tree: SchedTree,
    /// Vertex permutation: `perm.to_new(old) = new`.
    pub perm: Permutation,
    /// Vertex count of each supernode, indexed by `label − 1`.
    pub supernode_sizes: Vec<usize>,
}

impl NdOrdering {
    /// Start of supernode `k`'s vertex range in the new numbering.
    pub fn offset(&self, k: usize) -> usize {
        self.supernode_sizes[..k - 1].iter().sum()
    }

    /// All supernode offsets (index `label − 1`), plus the total as a
    /// final sentinel entry.
    pub fn offsets(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.supernode_sizes.len() + 1);
        let mut acc = 0usize;
        out.push(0);
        for &s in &self.supernode_sizes {
            acc += s;
            out.push(acc);
        }
        out
    }

    /// The supernode label owning new vertex index `idx`: the first
    /// supernode whose range ends past it, so a zero-size supernode never
    /// owns a vertex. A prefix walk over the `N` sizes, with no allocation.
    pub fn supernode_of_new(&self, idx: usize) -> usize {
        let mut end = 0;
        for (k, &size) in self.supernode_sizes.iter().enumerate() {
            end += size;
            if idx < end {
                return k + 1;
            }
        }
        panic!("vertex {idx} is past the {end} vertices of the ordering")
    }

    /// The supernode label owning **old** (input-graph) vertex `u`.
    pub fn supernode_of_old(&self, u: usize) -> usize {
        self.supernode_of_new(self.perm.to_new(u))
    }

    /// Sizes of the level-`l` supernodes (the level-`l` separators for
    /// `l ≥ 2`, the leaf partitions for `l = 1`).
    pub fn level_sizes(&self, l: u32) -> Vec<usize> {
        self.tree.level_nodes(l).map(|k| self.supernode_sizes[k - 1]).collect()
    }

    /// Largest separator size across all non-leaf levels — the `|S|` that
    /// enters the paper's cost formulas (the top separator dominates for
    /// monotone separator families, §5.4.1).
    pub fn max_separator(&self) -> usize {
        (2..=self.tree.height()).flat_map(|l| self.level_sizes(l)).max().unwrap_or(0)
    }

    /// The size of the top-level (root) separator.
    pub fn top_separator(&self) -> usize {
        self.supernode_sizes[self.tree.num_supernodes() - 1]
    }

    /// Validates the ordering against the input graph:
    /// * sizes sum to `n`;
    /// * the permutation is consistent;
    /// * **cousin supernodes share no edge** — the §4.1 structural property
    ///   every communication saving rests on.
    pub fn validate(&self, g: &Csr) -> Result<(), String> {
        let n: usize = self.supernode_sizes.iter().sum();
        if n != g.n() {
            return Err(format!("sizes sum to {n}, graph has {} vertices", g.n()));
        }
        if self.perm.len() != g.n() {
            return Err("permutation length mismatch".into());
        }
        for (u, v, _) in g.edges() {
            let (su, sv) = (self.supernode_of_old(u), self.supernode_of_old(v));
            if !self.tree.related(su, sv) {
                return Err(format!("edge ({u},{v}) joins cousin supernodes {su} and {sv}"));
            }
        }
        Ok(())
    }
}

/// Computes a nested-dissection ordering with exactly `h` levels.
///
/// Level `h` holds the top separator, level `1` the `2^{h−1}` leaf parts.
/// Empty supernodes (size 0) are legal and arise when a region becomes
/// too small to keep splitting.
///
/// ```
/// use apsp_graph::generators::{grid2d, WeightKind};
/// use apsp_partition::{nested_dissection, NdOptions};
///
/// let g = grid2d(8, 8, WeightKind::Unit, 0);
/// let nd = nested_dissection(&g, 3, &NdOptions::default());
/// nd.validate(&g).unwrap();                 // cousins share no edges
/// assert!(nd.top_separator() <= 16);        // Θ(√n) separator on a mesh
/// assert_eq!(nd.supernode_sizes.iter().sum::<usize>(), 64);
/// ```
pub fn nested_dissection(g: &Csr, h: u32, opts: &NdOptions) -> NdOrdering {
    let tree = SchedTree::new(h);
    let n_super = tree.num_supernodes();
    let mut supernode_vertices: Vec<Vec<usize>> = vec![Vec::new(); n_super];

    // explicit stack: (vertex ids, level, index-in-level)
    let all: Vec<usize> = (0..g.n()).collect();
    let mut stack = vec![(all, h, 0usize)];
    while let Some((vertices, level, idx)) = stack.pop() {
        let label = tree.level_offset(level) + idx + 1;
        if level == 1 {
            supernode_vertices[label - 1] = vertices;
            continue;
        }
        if vertices.is_empty() {
            stack.push((Vec::new(), level - 1, 2 * idx));
            stack.push((Vec::new(), level - 1, 2 * idx + 1));
            continue;
        }
        let (sub, ids) = g.induced_subgraph(&vertices);
        let mut bopts = opts.bisect;
        bopts.seed ^= (label as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let bisection = bisect(&sub, &bopts);
        let part = vertex_separator(&sub, &bisection.side);
        let mut sep = Vec::new();
        let mut v1 = Vec::new();
        let mut v2 = Vec::new();
        for (local, p) in part.iter().enumerate() {
            match p {
                Part::Sep => sep.push(ids[local]),
                Part::V1 => v1.push(ids[local]),
                Part::V2 => v2.push(ids[local]),
            }
        }
        supernode_vertices[label - 1] = sep;
        stack.push((v1, level - 1, 2 * idx));
        stack.push((v2, level - 1, 2 * idx + 1));
    }

    finish(tree, supernode_vertices)
}

/// Assembles an [`NdOrdering`] from per-supernode vertex lists (shared by
/// the multilevel and the geometric dissections).
pub(crate) fn finish(tree: SchedTree, supernode_vertices: Vec<Vec<usize>>) -> NdOrdering {
    let sizes: Vec<usize> = supernode_vertices.iter().map(|v| v.len()).collect();
    let order: Vec<usize> = supernode_vertices.into_iter().flatten().collect();
    NdOrdering { tree, perm: Permutation::from_order(order), supernode_sizes: sizes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{self, WeightKind};

    #[test]
    fn fig1_example_reproduced() {
        // the paper's Fig. 1 graph: separator {6}, sides {0,1,2} and {3,4,5}
        let g = generators::paper_fig1();
        let nd = nested_dissection(&g, 2, &NdOptions::default());
        nd.validate(&g).unwrap();
        assert_eq!(nd.tree.num_supernodes(), 3);
        assert_eq!(nd.supernode_sizes[2], 1, "top separator is the single cut vertex");
        assert_eq!(nd.supernode_sizes[0] + nd.supernode_sizes[1], 6);
        assert_eq!(nd.supernode_of_old(6), 3);
    }

    #[test]
    fn grid_nd_small_separators() {
        let g = generators::grid2d(12, 12, WeightKind::Unit, 0);
        let nd = nested_dissection(&g, 3, &NdOptions::default());
        nd.validate(&g).unwrap();
        // top separator of a 12×12 grid should be near 12, certainly << n
        assert!(nd.top_separator() <= 3 * 12, "top separator {}", nd.top_separator());
        assert!(nd.max_separator() <= 3 * 12);
        // leaves hold most of the graph
        let leaf_total: usize = nd.level_sizes(1).iter().sum();
        assert!(leaf_total >= 144 / 2, "leaf total {leaf_total}");
    }

    #[test]
    fn heights_one_and_two() {
        let g = generators::grid2d(4, 4, WeightKind::Unit, 0);
        let nd1 = nested_dissection(&g, 1, &NdOptions::default());
        nd1.validate(&g).unwrap();
        assert_eq!(nd1.supernode_sizes, vec![16]);
        let nd2 = nested_dissection(&g, 2, &NdOptions::default());
        nd2.validate(&g).unwrap();
        assert_eq!(nd2.supernode_sizes.iter().sum::<usize>(), 16);
    }

    #[test]
    fn deep_tree_on_small_graph_has_empty_supernodes() {
        let g = generators::path(5, WeightKind::Unit, 0);
        let nd = nested_dissection(&g, 4, &NdOptions::default());
        nd.validate(&g).unwrap();
        assert_eq!(nd.supernode_sizes.iter().sum::<usize>(), 5);
        assert!(nd.supernode_sizes.contains(&0));
    }

    #[test]
    fn disconnected_graph_ordering_is_valid() {
        let mut b = apsp_graph::GraphBuilder::new(20);
        for k in 0..4 {
            for i in 0..4 {
                b.add_edge(5 * k + i, 5 * k + i + 1, 1.0);
            }
        }
        let g = b.build();
        let nd = nested_dissection(&g, 3, &NdOptions::default());
        nd.validate(&g).unwrap();
    }

    #[test]
    fn offsets_and_lookup_agree() {
        let g = generators::grid2d(8, 8, WeightKind::Unit, 0);
        let deep = generators::path(5, WeightKind::Unit, 0);
        let dense = nested_dissection(&g, 3, &NdOptions::default());
        // a path of 5 at height 4 leaves supernodes empty
        let sparse = nested_dissection(&deep, 4, &NdOptions::default());
        assert!(sparse.supernode_sizes.contains(&0));
        // the count comes from the graph, so an ordering that drops or
        // doubles a vertex fails here
        for (nd, n) in [(dense, g.n()), (sparse, deep.n())] {
            let offsets = nd.offsets();
            assert_eq!(offsets.len(), nd.tree.num_supernodes() + 1);
            assert_eq!(*offsets.last().unwrap(), n);
            for idx in 0..n {
                let k = nd.supernode_of_new(idx);
                assert!(offsets[k - 1] <= idx && idx < offsets[k], "idx {idx} k {k}");
                assert!(nd.supernode_sizes[k - 1] > 0, "idx {idx} in empty supernode {k}");
            }
        }
    }

    #[test]
    fn validate_rejects_cousin_edges() {
        // hand-build a WRONG ordering for a path: put adjacent vertices in
        // cousin leaves
        let g = generators::path(4, WeightKind::Unit, 0);
        let bad = NdOrdering {
            tree: SchedTree::new(2),
            perm: Permutation::identity(4),
            supernode_sizes: vec![2, 2, 0],
        };
        // vertices {0,1} leaf 1, {2,3} leaf 2 — but edge (1,2) joins cousins
        assert!(bad.validate(&g).is_err());
    }

    #[test]
    fn random_graphs_always_validate() {
        for seed in 0..8 {
            let g = generators::connected_gnp(60, 0.05, WeightKind::Unit, seed);
            for h in 1..=4 {
                let nd = nested_dissection(&g, h, &NdOptions::default());
                nd.validate(&g).unwrap_or_else(|e| panic!("seed {seed} h {h}: {e}"));
            }
        }
    }
}
