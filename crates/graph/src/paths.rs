//! Shortest-path reconstruction from an exact distance matrix.
//!
//! Given the graph and *exact* all-pairs distances, a shortest path from
//! `src` to `dst` is recovered greedily without any predecessor storage:
//! from the current vertex `c`, step to any neighbour `u` with
//! `w(c,u) + D[u][dst] = D[c][dst]`. The search reads only column `dst`
//! of `D`, through a closure ([`reconstruct_path_with`]), so a caller
//! holding the distances in blocks reads them in place: a route costs
//! `O(path · degree)` distance reads plus `n` visited flags, and no dense
//! copy. [`reconstruct_path`] is the same search over a [`DenseDist`]
//! (no via matrices in the messages — the `O(path · degree)` query cost is
//! the standard trade).

use crate::csr::Csr;
use crate::dense::DenseDist;
use crate::weight::{is_inf, Weight};

/// Reconstructs one shortest path from `src` to `dst` using the distance
/// matrix `dist` (which must hold exact shortest distances of `g`).
///
/// Returns the vertex sequence including both endpoints, or `None` when
/// `dst` is unreachable. `tol` absorbs floating-point summation noise
/// (use `1e-9` unless weights are huge).
///
/// ```
/// use apsp_graph::generators::{grid2d, WeightKind};
/// use apsp_graph::{oracle, paths};
///
/// let g = grid2d(3, 3, WeightKind::Unit, 0);
/// let dist = oracle::apsp_dijkstra(&g);
/// let route = paths::reconstruct_path(&g, &dist, 0, 8, 1e-9).unwrap();
/// assert_eq!(route.len(), 5); // four unit hops corner to corner
/// assert_eq!(paths::path_weight(&g, &route), Some(4.0));
/// ```
pub fn reconstruct_path(
    g: &Csr,
    dist: &DenseDist,
    src: usize,
    dst: usize,
    tol: f64,
) -> Option<Vec<usize>> {
    assert_eq!(dist.n(), g.n(), "distance matrix does not match the graph");
    reconstruct_path_with(g, src, dst, tol, |u| dist.get(u, dst))
}

/// [`reconstruct_path`] with column `dst` of the distance matrix read
/// through `to_dst`: `to_dst(u)` must be the exact shortest distance from
/// `u` to `dst` in `g`. Each call reads `O(path · degree)` entries and
/// allocates `n` visited flags.
pub fn reconstruct_path_with(
    g: &Csr,
    src: usize,
    dst: usize,
    tol: f64,
    to_dst: impl Fn(usize) -> Weight,
) -> Option<Vec<usize>> {
    assert!(src < g.n() && dst < g.n(), "endpoint out of range");
    if src == dst {
        return Some(vec![src]);
    }
    if is_inf(to_dst(src)) {
        return None;
    }
    // Depth-first search over *consistent* edges — edges (c, u) with
    // w(c,u) + D[u][dst] = D[c][dst]. Every shortest path consists of
    // consistent edges, so dst is reachable in this subgraph; the DFS
    // backtracks out of zero-weight plateaus a pure greedy walk can
    // dead-end in. Each vertex is visited once: O(n + m).
    let mut visited = vec![false; g.n()];
    visited[src] = true;
    let mut path = vec![src];
    // frame = (vertex, index into its neighbour list)
    let mut frames: Vec<(usize, usize)> = vec![(src, 0)];
    while let Some(&mut (c, ref mut idx)) = frames.last_mut() {
        let remaining = to_dst(c);
        let nbrs = g.neighbors(c);
        let weights = g.weights_of(c);
        let mut advanced = false;
        while *idx < nbrs.len() {
            let (u, w) = (nbrs[*idx] as usize, weights[*idx]);
            *idx += 1;
            if visited[u] {
                continue;
            }
            let through = w + to_dst(u);
            if (through - remaining).abs() <= tol * (1.0 + remaining.abs()) {
                visited[u] = true;
                path.push(u);
                if u == dst {
                    return Some(path);
                }
                frames.push((u, 0));
                advanced = true;
                break;
            }
        }
        if !advanced {
            frames.pop();
            path.pop();
        }
    }
    None // inconsistent distance matrix
}

/// Sums the edge weights along a vertex sequence; `None` when a hop is not
/// an edge of `g`. Used to validate reconstructed paths.
pub fn path_weight(g: &Csr, path: &[usize]) -> Option<Weight> {
    let mut total = 0.0;
    for hop in path.windows(2) {
        total += g.edge_weight(hop[0], hop[1])?;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{self, WeightKind};
    use crate::oracle;

    fn check_all_pairs(g: &Csr) {
        let dist = oracle::apsp_dijkstra(g);
        for src in 0..g.n() {
            for dst in 0..g.n() {
                let want = dist.get(src, dst);
                match reconstruct_path(g, &dist, src, dst, 1e-9) {
                    Some(path) => {
                        assert_eq!(path.first(), Some(&src));
                        assert_eq!(path.last(), Some(&dst));
                        let w = path_weight(g, &path).expect("every hop is an edge");
                        assert!((w - want).abs() < 1e-9, "({src},{dst}): {w} vs {want}");
                    }
                    None => assert!(want.is_infinite(), "({src},{dst}) should be reachable"),
                }
            }
        }
    }

    #[test]
    fn grid_paths() {
        check_all_pairs(&generators::grid2d(5, 5, WeightKind::Integer { max: 7 }, 1));
    }

    #[test]
    fn random_graph_paths() {
        check_all_pairs(&generators::connected_gnp(
            25,
            0.12,
            WeightKind::Uniform { lo: 0.1, hi: 3.0 },
            2,
        ));
    }

    #[test]
    fn disconnected_returns_none() {
        let g = crate::GraphBuilder::new(4).edge(0, 1, 1.0).edge(2, 3, 1.0).build();
        let dist = oracle::apsp_dijkstra(&g);
        assert!(reconstruct_path(&g, &dist, 0, 2, 1e-9).is_none());
        assert_eq!(reconstruct_path(&g, &dist, 0, 1, 1e-9), Some(vec![0, 1]));
    }

    #[test]
    fn zero_weight_edges_terminate() {
        let g = crate::GraphBuilder::new(5)
            .edge(0, 1, 0.0)
            .edge(1, 2, 0.0)
            .edge(2, 3, 0.0)
            .edge(3, 4, 1.0)
            .build();
        check_all_pairs(&g);
    }

    #[test]
    fn trivial_cases() {
        let g = generators::path(3, WeightKind::Unit, 0);
        let dist = oracle::apsp_dijkstra(&g);
        assert_eq!(reconstruct_path(&g, &dist, 1, 1, 1e-9), Some(vec![1]));
    }

    #[test]
    fn path_weight_rejects_non_edges() {
        let g = generators::path(4, WeightKind::Unit, 0);
        assert_eq!(path_weight(&g, &[0, 2]), None);
        assert_eq!(path_weight(&g, &[0, 1, 2]), Some(2.0));
        assert_eq!(path_weight(&g, &[3]), Some(0.0));
    }
}
