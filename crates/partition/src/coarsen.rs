//! Heavy-edge matching coarsening (phase 1 of the multilevel scheme).

use crate::work::WorkGraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One coarsening step: a matching and the resulting coarse graph.
#[derive(Clone, Debug)]
pub struct CoarseLevel {
    /// The coarse graph.
    pub graph: WorkGraph,
    /// For every fine vertex, its coarse vertex id.
    pub map: Vec<u32>,
}

/// Computes a heavy-edge matching and contracts it.
///
/// Vertices are visited in a seeded random order; each unmatched vertex
/// matches its unmatched neighbour with the heaviest connecting edge
/// (ties broken by smaller id). Unmatched vertices survive as singletons.
pub fn coarsen_step(g: &WorkGraph, seed: u64) -> CoarseLevel {
    let n = g.n();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);

    let mut mate = vec![usize::MAX; n];
    for &u in &order {
        if mate[u] != usize::MAX {
            continue;
        }
        let mut best: Option<(u64, usize)> = None;
        for (&v, &w) in g.neighbors(u).iter().zip(g.edge_weights(u)) {
            let v = v as usize;
            if mate[v] != usize::MAX || v == u {
                continue;
            }
            let cand = (w, usize::MAX - v); // heavier first, then smaller id
            if best.is_none_or(|b| cand > (b.0, usize::MAX - b.1)) {
                best = Some((w, v));
            }
        }
        if let Some((_, v)) = best {
            mate[u] = v;
            mate[v] = u;
        } else {
            mate[u] = u; // singleton
        }
    }

    // assign coarse ids; `rep[c]` is coarse vertex `c`'s smaller member
    let mut map = vec![u32::MAX; n];
    let mut rep = Vec::new();
    for u in 0..n {
        if map[u] != u32::MAX {
            continue;
        }
        map[u] = rep.len() as u32;
        let v = mate[u];
        if v != u && v != usize::MAX {
            map[v] = rep.len() as u32;
        }
        rep.push(u);
    }
    CoarseLevel { graph: contract(g, &map, &rep, &mate), map }
}

/// Contracts the matching straight into CSR rows: each coarse row merges
/// its members' neighbours by coarse id (one slot per coarse vertex says
/// where in the row a neighbour already sits), drops edges inside the
/// coarse vertex, and is sorted by neighbour. On a symmetric fine graph
/// this is [`WorkGraph::from_edges`] of the coarse edge list.
fn contract(g: &WorkGraph, map: &[u32], rep: &[usize], mate: &[usize]) -> WorkGraph {
    let cn = rep.len();
    let mut vwt = vec![0u64; cn];
    let mut xadj = Vec::with_capacity(cn + 1);
    xadj.push(0);
    let mut row: Vec<(u32, u64)> = Vec::with_capacity(g.adj.len());
    // `slot[d] − 1` is where coarse neighbour `d` sits in `row`, if past the
    // current row's start
    let mut slot = vec![0usize; cn];
    for (c, &u) in rep.iter().enumerate() {
        let start = row.len();
        let v = mate[u];
        let members = if v == u { &[u][..] } else { &[u, v][..] };
        for &x in members {
            vwt[c] += g.vwt[x];
            for (&y, &w) in g.neighbors(x).iter().zip(g.edge_weights(x)) {
                let d = map[y as usize];
                if d as usize == c {
                    continue;
                }
                let s = slot[d as usize];
                if s > start {
                    row[s - 1].1 += w;
                } else {
                    row.push((d, w));
                    slot[d as usize] = row.len();
                }
            }
        }
        row[start..].sort_unstable_by_key(|&(d, _)| d);
        xadj.push(row.len());
    }
    let (adj, ewt) = row.into_iter().unzip();
    WorkGraph { xadj, adj, ewt, vwt }
}

/// Coarsens repeatedly until at most `target_n` vertices remain or progress
/// stalls (a step that shrinks the graph by under 5%). Returns the
/// hierarchy, fine → coarse.
pub fn coarsen(g: &WorkGraph, target_n: usize, seed: u64) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut round = 0u64;
    loop {
        let current = levels.last().map_or(g, |lvl| &lvl.graph);
        if current.n() <= target_n {
            break;
        }
        let step = coarsen_step(current, seed ^ (0x9e37_79b9 + round));
        let stalled = step.graph.n() as f64 > 0.95 * current.n() as f64;
        levels.push(step);
        round += 1;
        if stalled {
            break;
        }
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{self, WeightKind};

    #[test]
    fn step_preserves_total_vertex_weight() {
        let g = generators::grid2d(6, 6, WeightKind::Unit, 0);
        let w = WorkGraph::from_csr(&g);
        let step = coarsen_step(&w, 1);
        assert_eq!(step.graph.total_vwt(), 36);
        assert!(step.graph.n() < w.n());
        assert!(step.graph.n() >= w.n() / 2);
        // map is a surjection onto 0..cn
        let mut hit = vec![false; step.graph.n()];
        for &c in &step.map {
            hit[c as usize] = true;
        }
        assert!(hit.iter().all(|&b| b));
    }

    #[test]
    fn coarse_edges_reflect_fine_adjacency() {
        let g = generators::path(8, WeightKind::Unit, 0);
        let w = WorkGraph::from_csr(&g);
        let step = coarsen_step(&w, 3);
        // any fine edge maps either inside a coarse vertex or to a coarse edge
        for u in 0..8usize {
            for &v in g.neighbors(u) {
                let (cu, cv) = (step.map[u], step.map[v as usize]);
                if cu != cv {
                    assert!(
                        step.graph.neighbors(cu as usize).contains(&cv),
                        "missing coarse edge {cu}-{cv}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_coarsening_reaches_target() {
        let g = generators::grid2d(16, 16, WeightKind::Unit, 0);
        let w = WorkGraph::from_csr(&g);
        let levels = coarsen(&w, 24, 7);
        assert!(!levels.is_empty());
        let last = &levels.last().unwrap().graph;
        assert!(last.n() <= 96, "coarsening stalled too early: {}", last.n());
        assert_eq!(last.total_vwt(), 256);
    }

    #[test]
    fn coarsening_keeps_connectivity() {
        // connected fine graph => connected coarse graph
        let g = generators::grid2d(8, 8, WeightKind::Unit, 0);
        let w = WorkGraph::from_csr(&g);
        let step = coarsen_step(&w, 9);
        // BFS over coarse graph
        let cg = &step.graph;
        let mut seen = vec![false; cg.n()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in cg.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    stack.push(v as usize);
                }
            }
        }
        assert_eq!(count, cg.n());
    }
}
