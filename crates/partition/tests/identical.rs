//! The partitioner's output is the lazy-heap partitioner's, byte for byte:
//! every `nested_dissection` permutation and supernode size, every
//! `coarsen` level, every `bisect_work` side and every
//! `min_vertex_cover_bipartite` cover. The reference is `mod frozen`, the
//! bisection, coarsening, separator and dissection code as it stood with a
//! `BinaryHeap` of lazily re-derived gains, a contraction through one
//! `Vec` per coarse vertex and `HashMap` id compression. The benchmark's
//! exact counts and every distance and route rest on these orderings.

mod common;

use apsp_graph::generators::{self, WeightKind};
use apsp_graph::{Csr, GraphBuilder};
use apsp_partition::bisect::bisect_work;
use apsp_partition::coarsen::coarsen;
use apsp_partition::separator::min_vertex_cover_bipartite;
use apsp_partition::work::WorkGraph;
use apsp_partition::{nested_dissection, BisectOptions, NdOptions};
use common::{arb_graph, build};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The partitioner before gain buckets, kept verbatim (minus docs and
/// unit tests) as the reference.
mod frozen {
    use apsp_etree::SchedTree;
    use apsp_graph::{Csr, Permutation};
    use apsp_partition::bisect::{BisectOptions, Bisection};
    use apsp_partition::coarsen::CoarseLevel;
    use apsp_partition::separator::{separates, Part};
    use apsp_partition::work::WorkGraph;
    use apsp_partition::{NdOptions, NdOrdering};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::BinaryHeap;

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

        // assign coarse ids
        let mut map = vec![u32::MAX; n];
        let mut next = 0u32;
        for u in 0..n {
            if map[u] != u32::MAX {
                continue;
            }
            map[u] = next;
            let v = mate[u];
            if v != u && v != usize::MAX {
                map[v] = next;
            }
            next += 1;
        }
        let cn = next as usize;

        // coarse vertex weights
        let mut vwt = vec![0u64; cn];
        for u in 0..n {
            vwt[map[u] as usize] += g.vwt[u];
        }
        // coarse edges
        let mut edges = Vec::new();
        for u in 0..n {
            for (&v, &w) in g.neighbors(u).iter().zip(g.edge_weights(u)) {
                let (cu, cv) = (map[u], map[v as usize]);
                if cu < cv {
                    edges.push((cu, cv, w));
                }
            }
        }
        CoarseLevel { graph: WorkGraph::from_edges(cn, &edges, vwt), map }
    }

    /// Coarsens repeatedly until at most `target_n` vertices remain or progress
    /// stalls (shrink factor under 10%). Returns the hierarchy, fine → coarse.
    pub fn coarsen(g: &WorkGraph, target_n: usize, seed: u64) -> Vec<CoarseLevel> {
        let mut levels = Vec::new();
        let mut current = g.clone();
        let mut round = 0u64;
        while current.n() > target_n {
            let step = coarsen_step(&current, seed ^ (0x9e37_79b9 + round));
            let shrunk = step.graph.n();
            let stalled = shrunk as f64 > 0.95 * current.n() as f64;
            current = step.graph.clone();
            levels.push(step);
            round += 1;
            if stalled {
                break;
            }
        }
        levels
    }

    /// Edge-cut weight of a side assignment.
    pub fn cut_weight(g: &WorkGraph, side: &[u8]) -> u64 {
        let mut cut = 0;
        for u in 0..g.n() {
            for (&v, &w) in g.neighbors(u).iter().zip(g.edge_weights(u)) {
                if (v as usize) > u && side[u] != side[v as usize] {
                    cut += w;
                }
            }
        }
        cut
    }

    /// BFS region growing from a pseudo-peripheral vertex: side 0 collects
    /// vertices in BFS order until it holds at least half of the total weight.
    /// Extra components are swept afterwards, smaller side first.
    fn grow_initial(g: &WorkGraph, seed: u64) -> Vec<u8> {
        let n = g.n();
        let total = g.total_vwt();
        let mut side = vec![1u8; n];
        if n == 0 {
            return side;
        }
        let start = g.pseudo_peripheral((seed as usize) % n);
        let mut in0 = 0u64;
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        visited[start] = true;
        while let Some(u) = queue.pop_front() {
            if in0 * 2 >= total {
                break;
            }
            side[u] = 0;
            in0 += g.vwt[u];
            for &v in g.neighbors(u) {
                let v = v as usize;
                if !visited[v] {
                    visited[v] = true;
                    queue.push_back(v);
                }
            }
            // disconnected graphs: restart BFS from an unvisited vertex
            if queue.is_empty() && in0 * 2 < total {
                if let Some(next) = (0..n).find(|&x| !visited[x]) {
                    visited[next] = true;
                    queue.push_back(next);
                }
            }
        }
        side
    }

    /// One Fiduccia–Mattheyses pass with a lazy-invalidation gain heap.
    /// Returns `true` when the cut improved.
    fn fm_pass(g: &WorkGraph, side: &mut [u8], balance_eps: f64) -> bool {
        let n = g.n();
        let total = g.total_vwt();
        // minimum weight either side must keep: the balance envelope, and never
        // less than one vertex (a collapsed side is not a bisection)
        let lo = (((0.5 - balance_eps) * total as f64).ceil().max(0.0) as u64).max(if n >= 2 {
            1
        } else {
            0
        });
        let mut weight = [0u64; 2];
        for u in 0..n {
            weight[side[u] as usize] += g.vwt[u];
        }
        // gain(v) = external − internal incident edge weight
        let gain_of = |side: &[u8], v: usize| -> i64 {
            let mut gain = 0i64;
            for (&nbr, &w) in g.neighbors(v).iter().zip(g.edge_weights(v)) {
                if side[nbr as usize] == side[v] {
                    gain -= w as i64;
                } else {
                    gain += w as i64;
                }
            }
            gain
        };
        let mut stamp = vec![0u32; n]; // bump to invalidate queued entries
        let mut locked = vec![false; n];
        let mut heap: BinaryHeap<(i64, usize, u32)> =
            (0..n).map(|v| (gain_of(side, v), v, 0)).collect();

        let mut cur_cut = cut_weight(g, side) as i64;
        let best_start = cur_cut;
        let mut best_cut = cur_cut;
        let mut moves: Vec<usize> = Vec::new();
        let mut best_len = 0usize;

        while let Some((gain, v, s)) = heap.pop() {
            if locked[v] || s != stamp[v] {
                continue;
            }
            let from = side[v] as usize;
            if weight[from] < g.vwt[v] + lo {
                // balance would break; skip (vertex may be re-tried after mass
                // moves the other way, so just drop this entry)
                continue;
            }
            // apply
            side[v] ^= 1;
            weight[from] -= g.vwt[v];
            weight[1 - from] += g.vwt[v];
            locked[v] = true;
            cur_cut -= gain;
            moves.push(v);
            if cur_cut < best_cut {
                best_cut = cur_cut;
                best_len = moves.len();
            }
            for &nbr in g.neighbors(v) {
                let nbr = nbr as usize;
                if !locked[nbr] {
                    stamp[nbr] += 1;
                    heap.push((gain_of(side, nbr), nbr, stamp[nbr]));
                }
            }
        }
        // roll back past the best prefix
        for &v in moves.iter().skip(best_len) {
            side[v] ^= 1;
        }
        best_cut < best_start
    }

    /// Multilevel bisection of a work graph.
    pub fn bisect_work(g: &WorkGraph, opts: &BisectOptions) -> Bisection {
        let n = g.n();
        if n <= 1 {
            return Bisection { side: vec![0; n], cut: 0 };
        }
        let hierarchy = coarsen(g, opts.coarsen_target, opts.seed);
        let coarsest: &WorkGraph = hierarchy.last().map(|lvl| &lvl.graph).unwrap_or(g);
        let mut side = grow_initial(coarsest, opts.seed);
        for _ in 0..opts.fm_passes {
            if !fm_pass(coarsest, &mut side, opts.balance_eps) {
                break;
            }
        }
        // uncoarsen: project through the hierarchy, refining at each level
        for lvl_idx in (0..hierarchy.len()).rev() {
            let fine: &WorkGraph = if lvl_idx == 0 { g } else { &hierarchy[lvl_idx - 1].graph };
            let map = &hierarchy[lvl_idx].map;
            let mut fine_side = vec![0u8; fine.n()];
            for u in 0..fine.n() {
                fine_side[u] = side[map[u] as usize];
            }
            side = fine_side;
            for _ in 0..opts.fm_passes {
                if !fm_pass(fine, &mut side, opts.balance_eps) {
                    break;
                }
            }
        }
        let cut = cut_weight(g, &side);
        Bisection { side, cut }
    }

    /// Maximum bipartite matching (Kuhn's augmenting-path algorithm).
    /// `adj[l]` lists right-side neighbours of left vertex `l`.
    /// Returns `match_l[l] = Some(r)` assignments.
    fn max_bipartite_matching(
        left_n: usize,
        right_n: usize,
        adj: &[Vec<usize>],
    ) -> Vec<Option<usize>> {
        let mut match_l: Vec<Option<usize>> = vec![None; left_n];
        let mut match_r: Vec<Option<usize>> = vec![None; right_n];

        fn try_augment(
            l: usize,
            adj: &[Vec<usize>],
            match_l: &mut [Option<usize>],
            match_r: &mut [Option<usize>],
            visited_r: &mut [bool],
        ) -> bool {
            for &r in &adj[l] {
                if visited_r[r] {
                    continue;
                }
                visited_r[r] = true;
                let freed = match match_r[r] {
                    None => true,
                    Some(taken_by) => try_augment(taken_by, adj, match_l, match_r, visited_r),
                };
                if freed {
                    match_l[l] = Some(r);
                    match_r[r] = Some(l);
                    return true;
                }
            }
            false
        }

        for l in 0..left_n {
            let mut visited_r = vec![false; right_n];
            try_augment(l, adj, &mut match_l, &mut match_r, &mut visited_r);
        }
        match_l
    }

    /// Minimum vertex cover of a bipartite edge list (Kőnig construction over
    /// a maximum matching). Each pair is `(left_vertex, right_vertex)` with
    /// arbitrary (e.g. global) ids — the sides must be disjoint vertex sets.
    /// Returns the cover as a sorted id list.
    ///
    /// This is the primitive both the shared-memory separator extraction and
    /// the distributed pipeline (`apsp-core`'s distributed ND, which gathers
    /// fine cut edges to a group root) build on.
    pub fn min_vertex_cover_bipartite(cut_edges: &[(usize, usize)]) -> Vec<usize> {
        // compress ids per side
        let mut left_ids = Vec::new();
        let mut right_ids = Vec::new();
        let mut left_of = std::collections::HashMap::new();
        let mut right_of = std::collections::HashMap::new();
        for &(a, b) in cut_edges {
            left_of.entry(a).or_insert_with(|| {
                left_ids.push(a);
                left_ids.len() - 1
            });
            right_of.entry(b).or_insert_with(|| {
                right_ids.push(b);
                right_ids.len() - 1
            });
        }
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); left_ids.len()];
        for &(a, b) in cut_edges {
            adj[left_of[&a]].push(right_of[&b]);
        }

        let match_l = max_bipartite_matching(left_ids.len(), right_ids.len(), &adj);
        let mut match_r: Vec<Option<usize>> = vec![None; right_ids.len()];
        for (l, m) in match_l.iter().enumerate() {
            if let Some(r) = m {
                match_r[*r] = Some(l);
            }
        }

        // Kőnig: Z = vertices reachable from unmatched LEFT vertices via
        // alternating paths (unmatched edge left→right, matched edge right→left).
        let mut z_left = vec![false; left_ids.len()];
        let mut z_right = vec![false; right_ids.len()];
        let mut stack: Vec<usize> = (0..left_ids.len()).filter(|&l| match_l[l].is_none()).collect();
        for &l in &stack {
            z_left[l] = true;
        }
        while let Some(l) = stack.pop() {
            for &r in &adj[l] {
                if !z_right[r] {
                    z_right[r] = true;
                    if let Some(l2) = match_r[r] {
                        if !z_left[l2] {
                            z_left[l2] = true;
                            stack.push(l2);
                        }
                    }
                }
            }
        }
        // minimum vertex cover = (L \ Z) ∪ (R ∩ Z)
        let mut cover: Vec<usize> = left_ids
            .iter()
            .enumerate()
            .filter(|&(l, _)| !z_left[l])
            .map(|(_, &id)| id)
            .chain(right_ids.iter().enumerate().filter(|&(r, _)| z_right[r]).map(|(_, &id)| id))
            .collect();
        cover.sort_unstable();
        cover
    }

    /// Converts a 2-way bisection of `g` into a vertex separator via a minimum
    /// vertex cover of the cut edges (Kőnig construction). Returns a label per
    /// vertex. Guarantees: no edge joins a `V1` vertex to a `V2` vertex.
    pub fn vertex_separator(g: &Csr, side: &[u8]) -> Vec<Part> {
        let n = g.n();
        assert_eq!(side.len(), n);
        let cut_edges: Vec<(usize, usize)> = g
            .edges()
            .filter(|&(u, v, _)| side[u] != side[v])
            .map(|(u, v, _)| if side[u] == 0 { (u, v) } else { (v, u) })
            .collect();
        let cover = min_vertex_cover_bipartite(&cut_edges);
        let mut part: Vec<Part> =
            side.iter().map(|&s| if s == 0 { Part::V1 } else { Part::V2 }).collect();
        for v in cover {
            part[v] = Part::Sep;
        }
        debug_assert!(separates(g, &part), "Kőnig cover failed to separate");
        part
    }

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
            let bisection = bisect_work(&WorkGraph::from_csr(&sub), &bopts);
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
    pub fn finish(tree: SchedTree, supernode_vertices: Vec<Vec<usize>>) -> NdOrdering {
        let sizes: Vec<usize> = supernode_vertices.iter().map(|v| v.len()).collect();
        let order: Vec<usize> = supernode_vertices.into_iter().flatten().collect();
        NdOrdering { tree, perm: Permutation::from_order(order), supernode_sizes: sizes }
    }
}

/// Orders `g` at every height 1…6 with `seeds` and compares with the
/// reference.
fn same_orderings(g: &Csr, what: &str, seeds: &[u64]) {
    for &seed in seeds {
        let opts = NdOptions { bisect: BisectOptions { seed, ..Default::default() } };
        for h in 1..=6 {
            let new = nested_dissection(g, h, &opts);
            let old = frozen::nested_dissection(g, h, &opts);
            assert_eq!(new.perm.as_order(), old.perm.as_order(), "{what}, seed {seed}, h {h}");
            assert_eq!(new.supernode_sizes, old.supernode_sizes, "{what}, seed {seed}, h {h}");
        }
    }
}

#[test]
fn random_graphs_order_as_before() {
    for n in [60, 200, 400] {
        for (d, seed) in [(3.0, 1), (5.0, 2), (8.0, 3), (8.0, 4)] {
            let g = generators::connected_gnp(n, d / n as f64, WeightKind::Unit, seed);
            same_orderings(&g, &format!("connected G({n}, {d}/n) #{seed}"), &[0, seed]);
            // without the spanning path: components of every size
            let g = generators::gnp(n, d / n as f64, WeightKind::Unit, seed);
            same_orderings(&g, &format!("G({n}, {d}/n) #{seed}"), &[0]);
        }
    }
}

#[test]
fn meshes_paths_stars_and_forests_order_as_before() {
    let mut forest = GraphBuilder::new(60);
    for k in 0..6 {
        for i in 0..7 {
            forest.add_edge(10 * k + i, 10 * k + i + 1, 1.0);
        }
    }
    let cases = [
        ("12×48 mesh", generators::grid2d(12, 48, WeightKind::Unit, 0)),
        ("10×10 mesh", generators::grid2d(10, 10, WeightKind::Unit, 0)),
        ("24×24 mesh", generators::grid2d(24, 24, WeightKind::Unit, 0)),
        ("path", generators::path(100, WeightKind::Unit, 0)),
        ("star", generators::star(200, WeightKind::Unit, 0)),
        ("forest with isolated vertices", forest.build()),
        ("edgeless", Csr::edgeless(150)),
        ("paper Fig. 1", generators::paper_fig1()),
    ];
    for (what, g) in &cases {
        same_orderings(g, what, &[0, 7]);
    }
}

#[test]
fn large_cases_order_as_before() {
    same_orderings(&generators::star(3000, WeightKind::Unit, 0), "3 000-vertex star", &[0]);
    let g = generators::connected_gnp(2000, 12.0 / 2000.0, WeightKind::Unit, 5);
    same_orderings(&g, "G(2000, 12/n)", &[0]);
    same_orderings(&generators::grid2d(64, 64, WeightKind::Unit, 0), "64×64 mesh", &[0]);
}

/// A symmetric weighted work graph from an edge list, as `core::dnd`
/// builds the coarse graph it bisects.
fn random_work_graph(rng: &mut StdRng) -> WorkGraph {
    let n = rng.random_range(2..160usize);
    let m = rng.random_range(0..4 * n);
    let max_w = rng.random_range(1..6u64);
    let edges: Vec<(u32, u32, u64)> = (0..m)
        .map(|_| {
            let u = rng.random_range(0..n) as u32;
            let v = rng.random_range(0..n) as u32;
            (u, v, rng.random_range(1..=max_w))
        })
        .collect();
    let vwt = (0..n).map(|_| rng.random_range(1..5u64)).collect();
    WorkGraph::from_edges(n, &edges, vwt)
}

#[test]
fn coarsening_and_bisection_of_weighted_work_graphs_match() {
    let mut rng = StdRng::seed_from_u64(42);
    for case in 0..300u64 {
        let g = random_work_graph(&mut rng);
        let target = [2, 8, 48][case as usize % 3];
        let new = coarsen(&g, target, case);
        let old = frozen::coarsen(&g, target, case);
        assert_eq!(new.len(), old.len(), "case {case}: level count");
        for (k, (a, b)) in new.iter().zip(&old).enumerate() {
            assert_eq!(a.map, b.map, "case {case}, level {k}: map");
            assert_eq!(a.graph.xadj, b.graph.xadj, "case {case}, level {k}: xadj");
            assert_eq!(a.graph.adj, b.graph.adj, "case {case}, level {k}: adj");
            assert_eq!(a.graph.ewt, b.graph.ewt, "case {case}, level {k}: ewt");
            assert_eq!(a.graph.vwt, b.graph.vwt, "case {case}, level {k}: vwt");
        }
        let opts = BisectOptions {
            seed: case,
            balance_eps: [0.2, 0.05, 0.45][case as usize % 3],
            coarsen_target: [48, 8, 2][case as usize % 3],
            fm_passes: [6, 1, 12][case as usize % 3],
        };
        let (a, b) = (bisect_work(&g, &opts), frozen::bisect_work(&g, &opts));
        assert_eq!(a.side, b.side, "case {case}: sides");
        assert_eq!(a.cut, b.cut, "case {case}: cut");
    }
}

#[test]
fn covers_match_on_random_cut_lists() {
    let mut rng = StdRng::seed_from_u64(7);
    for case in 0..500 {
        let left_n = rng.random_range(1..30usize);
        let right_n = rng.random_range(1..30usize);
        // disjoint id ranges, spread out like global vertex ids
        let stride = rng.random_range(1..50usize);
        let base = left_n * stride;
        let m = rng.random_range(0..3 * (left_n + right_n));
        let edges: Vec<(usize, usize)> = (0..m)
            .map(|_| {
                let l = rng.random_range(0..left_n) * stride;
                let r = base + rng.random_range(0..right_n) * stride;
                if case % 2 == 0 {
                    (l, r)
                } else {
                    (r, l) // the right range on the left
                }
            })
            .collect();
        assert_eq!(
            min_vertex_cover_bipartite(&edges),
            frozen::min_vertex_cover_bipartite(&edges),
            "case {case}: {edges:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_graphs_order_as_before((n, edges) in arb_graph(60), h in 1u32..7, seed in 0u64..4) {
        let g = build(n, &edges);
        let opts = NdOptions { bisect: BisectOptions { seed, ..Default::default() } };
        let new = nested_dissection(&g, h, &opts);
        let old = frozen::nested_dissection(&g, h, &opts);
        prop_assert_eq!(new.perm.as_order(), old.perm.as_order());
        prop_assert_eq!(new.supernode_sizes, old.supernode_sizes);
    }
}
