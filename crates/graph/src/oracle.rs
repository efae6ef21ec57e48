//! Sequential shortest-path oracles used as ground truth.
//!
//! Everything in the workspace is ultimately verified against
//! [`apsp_dijkstra`]; [`floyd_warshall`], [`bellman_ford`] and [`johnson`]
//! provide independent implementations so the oracles also cross-check each
//! other (see the tests at the bottom).

use crate::csr::Csr;
use crate::dense::DenseDist;
use crate::weight::{is_inf, Weight, INF};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Binary-heap entry ordered by smallest distance first.
#[derive(PartialEq)]
struct HeapItem {
    dist: Weight,
    vertex: usize,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap
        other.dist.total_cmp(&self.dist)
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source Dijkstra. Requires non-negative weights.
///
/// # Panics
/// Panics when the graph has a negative edge.
pub fn dijkstra(g: &Csr, source: usize) -> Vec<Weight> {
    assert!(g.has_nonnegative_weights(), "Dijkstra requires non-negative weights");
    let n = g.n();
    let mut dist = vec![INF; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(HeapItem { dist: 0.0, vertex: source });
    while let Some(HeapItem { dist: d, vertex: u }) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        for (v, w) in g.edges_of(u) {
            let nd = d + w;
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(HeapItem { dist: nd, vertex: v });
            }
        }
    }
    dist
}

/// Single-source Dijkstra that also returns the shortest-path tree parents
/// (`usize::MAX` for the source and unreachable vertices).
pub fn dijkstra_with_parents(g: &Csr, source: usize) -> (Vec<Weight>, Vec<usize>) {
    assert!(g.has_nonnegative_weights(), "Dijkstra requires non-negative weights");
    let n = g.n();
    let mut dist = vec![INF; n];
    let mut parent = vec![usize::MAX; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(HeapItem { dist: 0.0, vertex: source });
    while let Some(HeapItem { dist: d, vertex: u }) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        for (v, w) in g.edges_of(u) {
            let nd = d + w;
            if nd < dist[v] {
                dist[v] = nd;
                parent[v] = u;
                heap.push(HeapItem { dist: nd, vertex: v });
            }
        }
    }
    (dist, parent)
}

/// Reconstructs the vertex sequence of a shortest path from a parent table.
/// Returns `None` when `target` is unreachable.
pub fn path_from_parents(parents: &[usize], source: usize, target: usize) -> Option<Vec<usize>> {
    if source == target {
        return Some(vec![source]);
    }
    if parents[target] == usize::MAX {
        return None;
    }
    let mut path = vec![target];
    let mut cur = target;
    while cur != source {
        cur = parents[cur];
        path.push(cur);
        if path.len() > parents.len() {
            return None; // corrupt parent table; avoid infinite loop
        }
    }
    path.reverse();
    Some(path)
}

/// All-pairs distances via `n` Dijkstra runs — the workspace ground truth.
pub fn apsp_dijkstra(g: &Csr) -> DenseDist {
    let n = g.n();
    let mut out = DenseDist::unconnected(n);
    for s in 0..n {
        let row = dijkstra(g, s);
        for (t, &d) in row.iter().enumerate() {
            out.set(s, t, d);
        }
    }
    out
}

/// [`apsp_dijkstra`] with the sources split into one contiguous range
/// per available core, each on a scoped thread writing its own rows —
/// identical output, used by the experiment harness where oracle
/// verification dominates wall time.
pub fn apsp_dijkstra_parallel(g: &Csr) -> DenseDist {
    let n = g.n();
    let mut out = DenseDist::unconnected(n);
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let rows_per_thread = n.div_ceil(threads);
    std::thread::scope(|s| {
        // at n = 0 the buffer is empty, and `chunks_mut` rejects a length of 0
        for (k, rows) in out.as_mut_slice().chunks_mut((rows_per_thread * n).max(1)).enumerate() {
            s.spawn(move || {
                for (i, row) in rows.chunks_mut(n).enumerate() {
                    row.copy_from_slice(&dijkstra(g, k * rows_per_thread + i));
                }
            });
        }
    });
    out
}

/// Single-source Bellman–Ford. Handles negative weights;
/// returns `Err` when a negative cycle is reachable from `source`.
pub fn bellman_ford(g: &Csr, source: usize) -> Result<Vec<Weight>, String> {
    let n = g.n();
    let mut dist = vec![INF; n];
    dist[source] = 0.0;
    for round in 0..n {
        let mut changed = false;
        for u in 0..n {
            if is_inf(dist[u]) {
                continue;
            }
            for (v, w) in g.edges_of(u) {
                let nd = dist[u] + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok(dist);
        }
        if round == n - 1 {
            return Err("negative cycle reachable from source".into());
        }
    }
    Ok(dist)
}

/// Johnson's algorithm: Bellman–Ford re-weighting followed by `n` Dijkstra
/// runs. For undirected graphs this only succeeds on non-negative inputs
/// (any undirected negative edge is a negative cycle), where it reduces to
/// [`apsp_dijkstra`]; it is kept as an independent oracle with a different
/// code path (explicit potentials).
pub fn johnson(g: &Csr) -> Result<DenseDist, String> {
    let n = g.n();
    // Virtual super-source: potential h = BF distances from it; since the
    // super-source connects to every vertex with weight 0 and the graph is
    // undirected, h is computed by running BF on the original graph with all
    // sources initialized to zero.
    let mut h = vec![0.0; n];
    for round in 0..n {
        let mut changed = false;
        for u in 0..n {
            for (v, w) in g.edges_of(u) {
                let nd = h[u] + w;
                if nd < h[v] {
                    h[v] = nd;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
        if round == n - 1 {
            return Err("negative cycle".into());
        }
    }
    // Re-weighted graph: w'(u,v) = w + h[u] − h[v] ≥ 0.
    let mut b = crate::builder::GraphBuilder::new(n);
    for (u, v, w) in g.edges() {
        // undirected: both directions must be non-negative; for a consistent
        // potential this forces h[u] == h[v] on any negative edge, which only
        // holds when w ≥ 0 anyway — the builder will panic on NaN, and the
        // assert below surfaces violations clearly.
        let wp = w + h[u] - h[v];
        let wq = w + h[v] - h[u];
        if wp < -1e-12 || wq < -1e-12 {
            return Err(format!("edge ({u},{v}) not re-weightable (undirected negative edge)"));
        }
        b.add_edge(u, v, wp.max(0.0).max(wq.max(0.0)).min(wp.max(0.0)));
    }
    let rg = b.build();
    let mut out = DenseDist::unconnected(n);
    for s in 0..n {
        let row = dijkstra(&rg, s);
        for (t, &d) in row.iter().enumerate() {
            if !is_inf(d) {
                out.set(s, t, d - h[s] + h[t]);
            }
        }
    }
    Ok(out)
}

/// Single-source Δ-stepping (Meyer–Sanders): bucket-based label-correcting
/// SSSP, the classic parallel-friendly alternative to Dijkstra. Kept here
/// as an algorithmically *independent* oracle (different control flow, no
/// heap) and as the light/heavy-edge reference implementation.
///
/// `delta` is the bucket width; `None` picks `max(min edge, mean edge)`.
/// Requires non-negative weights.
pub fn delta_stepping(g: &Csr, source: usize, delta: Option<Weight>) -> Vec<Weight> {
    assert!(g.has_nonnegative_weights(), "Δ-stepping requires non-negative weights");
    let n = g.n();
    let delta = delta.unwrap_or_else(|| {
        let m2 = g.edges().count().max(1) as Weight;
        let sum: Weight = g.edges().map(|(_, _, w)| w).sum();
        let min = g.edges().map(|(_, _, w)| w).fold(INF, Weight::min);
        if min.is_finite() {
            (sum / m2).max(min).max(1e-12)
        } else {
            1.0 // edgeless graph: any width works
        }
    });
    assert!(delta > 0.0, "bucket width must be positive");

    let mut dist = vec![INF; n];
    let mut buckets: Vec<Vec<usize>> = Vec::new();
    let bucket_of = |d: Weight| (d / delta) as usize;
    let place = |buckets: &mut Vec<Vec<usize>>, v: usize, d: Weight| {
        let b = bucket_of(d);
        if b >= buckets.len() {
            buckets.resize_with(b + 1, Vec::new);
        }
        buckets[b].push(v);
    };
    dist[source] = 0.0;
    place(&mut buckets, source, 0.0);

    let mut i = 0;
    while i < buckets.len() {
        // settle bucket i: light edges may re-insert into bucket i
        let mut deleted: Vec<usize> = Vec::new();
        while let Some(u) = buckets[i].pop() {
            if bucket_of(dist[u]) != i {
                continue; // stale entry
            }
            deleted.push(u);
            for (v, w) in g.edges_of(u) {
                if w <= delta {
                    let nd = dist[u] + w;
                    if nd < dist[v] {
                        dist[v] = nd;
                        place(&mut buckets, v, nd);
                    }
                }
            }
        }
        // heavy edges once per settled vertex
        for &u in &deleted {
            for (v, w) in g.edges_of(u) {
                if w > delta {
                    let nd = dist[u] + w;
                    if nd < dist[v] {
                        dist[v] = nd;
                        place(&mut buckets, v, nd);
                    }
                }
            }
        }
        i += 1;
    }
    dist
}

/// Dense Floyd–Warshall over the adjacency matrix — the §3.3 "ClassicalFW"
/// on the whole graph. `O(n³)`; use only for verification-sized inputs.
pub fn floyd_warshall(g: &Csr) -> DenseDist {
    let n = g.n();
    let mut d = DenseDist::unconnected(n);
    for (u, v, w) in g.edges() {
        d.relax(u, v, w);
        d.relax(v, u, w);
    }
    let buf = d.as_mut_slice();
    for k in 0..n {
        for i in 0..n {
            let dik = buf[i * n + k];
            if is_inf(dik) {
                continue;
            }
            for j in 0..n {
                let via = dik + buf[k * n + j];
                if via < buf[i * n + j] {
                    buf[i * n + j] = via;
                }
            }
        }
    }
    d
}

/// Exact count of `(min, +)` scalar operations the classical (unblocked)
/// FW performs on a dense `n × n` matrix: `n³` relaxations.
pub fn classical_fw_opcount(n: usize) -> u64 {
    (n as u64).pow(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{self, WeightKind};

    #[test]
    fn dijkstra_on_path() {
        let g = generators::path(5, WeightKind::Unit, 0);
        let d = dijkstra(&g, 0);
        assert_eq!(d, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn dijkstra_unreachable_is_inf() {
        let g = crate::GraphBuilder::new(3).edge(0, 1, 2.0).build();
        let d = dijkstra(&g, 0);
        assert_eq!(d[1], 2.0);
        assert!(is_inf(d[2]));
    }

    #[test]
    fn parents_reconstruct_path() {
        let g = generators::grid2d(3, 3, WeightKind::Unit, 0);
        let (dist, par) = dijkstra_with_parents(&g, 0);
        let p = path_from_parents(&par, 0, 8).unwrap();
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&8));
        assert_eq!(p.len() as f64 - 1.0, dist[8]);
        // consecutive vertices adjacent
        for w in p.windows(2) {
            assert!(g.edge_weight(w[0], w[1]).is_some());
        }
    }

    #[test]
    fn path_to_unreachable_is_none() {
        let g = crate::GraphBuilder::new(2).build();
        let (_, par) = dijkstra_with_parents(&g, 0);
        assert!(path_from_parents(&par, 0, 1).is_none());
        assert_eq!(path_from_parents(&par, 0, 0), Some(vec![0]));
    }

    #[test]
    fn fw_matches_dijkstra_on_random_graphs() {
        for seed in 0..6 {
            let g =
                generators::connected_gnp(25, 0.1, WeightKind::Uniform { lo: 0.1, hi: 3.0 }, seed);
            let a = apsp_dijkstra(&g);
            let b = floyd_warshall(&g);
            assert!(a.first_mismatch(&b, 1e-9).is_none(), "seed {seed}");
        }
    }

    #[test]
    fn johnson_matches_dijkstra() {
        for seed in 0..4 {
            let g = generators::connected_gnp(20, 0.15, WeightKind::Integer { max: 9 }, seed);
            let a = apsp_dijkstra(&g);
            let b = johnson(&g).unwrap();
            assert!(a.first_mismatch(&b, 1e-9).is_none(), "seed {seed}");
        }
    }

    #[test]
    fn bellman_ford_matches_dijkstra() {
        let g = generators::grid2d(4, 5, WeightKind::Integer { max: 5 }, 3);
        for s in [0, 7, 19] {
            let a = dijkstra(&g, s);
            let b = bellman_ford(&g, s).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bellman_ford_detects_negative_cycle() {
        // undirected negative edge = negative cycle
        let g = crate::GraphBuilder::new(2).edge(0, 1, -1.0).build();
        assert!(bellman_ford(&g, 0).is_err());
    }

    #[test]
    fn parallel_apsp_matches_serial() {
        let bits = |d: &DenseDist| d.as_slice().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
        let graphs = [
            Csr::edgeless(0),
            Csr::edgeless(1),
            // fewer vertices than threads on any machine with two or more
            generators::path(threads.div_ceil(2), WeightKind::Unit, 0),
            // two components: every cross pair stays ∞
            crate::GraphBuilder::new(5).edge(0, 1, 0.5).edge(1, 2, 1.5).edge(3, 4, 2.0).build(),
            generators::connected_gnp(50, 0.08, WeightKind::Uniform { lo: 0.2, hi: 2.0 }, 1),
            // a few hundred sources: thread ranges end inside the source range
            generators::connected_gnp(300, 0.02, WeightKind::Uniform { lo: 0.1, hi: 3.0 }, 7),
        ];
        for g in &graphs {
            assert_eq!(bits(&apsp_dijkstra_parallel(g)), bits(&apsp_dijkstra(g)), "n = {}", g.n());
        }
    }

    #[test]
    fn delta_stepping_matches_dijkstra() {
        for seed in 0..5 {
            let g =
                generators::connected_gnp(60, 0.06, WeightKind::Uniform { lo: 0.1, hi: 5.0 }, seed);
            for s in [0usize, 17, 59] {
                let a = dijkstra(&g, s);
                for delta in [None, Some(0.5), Some(10.0)] {
                    let b = delta_stepping(&g, s, delta);
                    for (t, (&x, &y)) in a.iter().zip(&b).enumerate() {
                        assert!(
                            crate::w_eq(x, y),
                            "seed {seed} s {s} t {t} delta {delta:?}: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn delta_stepping_edge_cases() {
        // edgeless, disconnected, zero-weight edges
        let g = crate::Csr::edgeless(4);
        let d = delta_stepping(&g, 2, None);
        assert_eq!(d[2], 0.0);
        assert!(is_inf(d[0]));

        let g = crate::GraphBuilder::new(5).edge(0, 1, 0.0).edge(1, 2, 0.0).edge(3, 4, 2.0).build();
        let d = delta_stepping(&g, 0, Some(1.0));
        assert_eq!(d[2], 0.0);
        assert!(is_inf(d[3]));
    }

    #[test]
    fn fw_symmetric_result() {
        let g = generators::grid2d(4, 4, WeightKind::Uniform { lo: 0.5, hi: 1.5 }, 9);
        let d = floyd_warshall(&g);
        assert!(d.is_symmetric(1e-9));
    }

    #[test]
    fn disconnected_pairs_are_inf_everywhere() {
        let g = crate::GraphBuilder::new(4).edge(0, 1, 1.0).edge(2, 3, 1.0).build();
        let d = apsp_dijkstra(&g);
        let f = floyd_warshall(&g);
        assert!(is_inf(d.get(0, 2)) && is_inf(f.get(0, 2)));
        assert!(is_inf(d.get(3, 1)) && is_inf(f.get(3, 1)));
        assert_eq!(d.finite_pairs(), 4);
    }

    #[test]
    fn opcount_formula() {
        assert_eq!(classical_fw_opcount(10), 1000);
    }
}
