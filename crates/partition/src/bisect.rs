//! Multilevel graph bisection: coarsen → grow → uncoarsen + FM refine.

use crate::coarsen::coarsen;
use crate::work::WorkGraph;

/// Tuning knobs for [`bisect`].
#[derive(Clone, Copy, Debug)]
pub struct BisectOptions {
    /// RNG seed (matchings and tie-breaks).
    pub seed: u64,
    /// Allowed imbalance: each side's vertex weight stays within
    /// `(1/2 ± balance_eps) · total`.
    pub balance_eps: f64,
    /// Stop coarsening at this many vertices.
    pub coarsen_target: usize,
    /// Maximum Fiduccia–Mattheyses passes per uncoarsening level.
    pub fm_passes: usize,
}

impl Default for BisectOptions {
    fn default() -> Self {
        BisectOptions { seed: 0, balance_eps: 0.2, coarsen_target: 48, fm_passes: 6 }
    }
}

/// A two-way partition: `side[u] ∈ {0, 1}` and the resulting edge-cut
/// weight.
#[derive(Clone, Debug)]
pub struct Bisection {
    /// Side of each vertex.
    pub side: Vec<u8>,
    /// Total weight of edges crossing the partition.
    pub cut: u64,
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
    // the smallest unvisited vertex only grows, so one cursor finds every
    // restart in O(n) over the whole sweep
    let mut unvisited = 0usize;
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
        // disconnected graphs: restart BFS from the smallest unvisited vertex
        if queue.is_empty() && in0 * 2 < total {
            while unvisited < n && visited[unvisited] {
                unvisited += 1;
            }
            if unvisited < n {
                visited[unvisited] = true;
                queue.push_back(unvisited);
            }
        }
    }
    side
}

/// The vertices waiting in an FM pass, bucketed by gain (Fiduccia and
/// Mattheyses, 1982): one bitset over the vertices per gain in `[−D, D]`,
/// where `D` is the pass graph's largest weighted degree, so no gain falls
/// outside. Each bucket also keeps a summary bitset with one bit per
/// nonzero word, so a pop reads `⌈n/4096⌉ + 1` words of its bucket,
/// never `O(n)`. [`GainBuckets::pop`] returns the highest gain and, among
/// equal gains, the highest vertex id: the order in which a max-heap of
/// `(gain, vertex)` pops.
///
/// Memory is `(2D + 1) · (⌈n/64⌉ + ⌈n/4096⌉)` words plus a count per
/// bucket. On a unit-weight graph `D` is the largest degree, below `n`, so
/// the buckets stay under about `n²/32` words, a 32nd of the `n × n`
/// distance matrix the solve builds from the ordering; a 3 000-vertex star
/// (`D = 2 999`) takes 287 952 words. A coarse pass graph has fewer
/// vertices but heavier edges: a coarse edge weighs as many fine edges as
/// it stands for.
struct GainBuckets {
    /// Largest |gain|: bucket `b` holds gain `b − d`.
    d: i64,
    /// Words per bucket bitset, `⌈n/64⌉`.
    words: usize,
    /// Words per bucket summary, `⌈words/64⌉`.
    sums: usize,
    bits: Vec<u64>,
    summary: Vec<u64>,
    count: Vec<u32>,
    /// No bucket above `top` holds a vertex.
    top: usize,
}

impl GainBuckets {
    fn new(n: usize, d: i64) -> Self {
        let buckets = 2 * d as usize + 1;
        let words = n.div_ceil(64);
        let sums = words.div_ceil(64);
        GainBuckets {
            d,
            words,
            sums,
            bits: vec![0; buckets * words],
            summary: vec![0; buckets * sums],
            count: vec![0; buckets],
            top: 0,
        }
    }

    fn bucket(&self, gain: i64) -> usize {
        debug_assert!(gain.abs() <= self.d, "gain {gain} outside ±{}", self.d);
        (gain + self.d) as usize
    }

    fn insert(&mut self, v: usize, gain: i64) {
        let b = self.bucket(gain);
        let w = b * self.words + v / 64;
        self.bits[w] |= 1 << (v % 64);
        self.summary[b * self.sums + v / 4096] |= 1 << (v / 64 % 64);
        self.count[b] += 1;
        self.top = self.top.max(b);
    }

    fn remove(&mut self, v: usize, gain: i64) {
        let b = self.bucket(gain);
        let w = b * self.words + v / 64;
        self.bits[w] &= !(1 << (v % 64));
        if self.bits[w] == 0 {
            self.summary[b * self.sums + v / 4096] &= !(1 << (v / 64 % 64));
        }
        self.count[b] -= 1;
    }

    /// Removes and returns the queued vertex of highest gain, the highest
    /// vertex id among equal gains.
    fn pop(&mut self) -> Option<(i64, usize)> {
        while self.count[self.top] == 0 {
            if self.top == 0 {
                return None;
            }
            self.top -= 1;
        }
        let b = self.top;
        let sums = &self.summary[b * self.sums..(b + 1) * self.sums];
        let s = sums.iter().rposition(|&x| x != 0).expect("a counted bucket has a set word");
        let word = s * 64 + 63 - sums[s].leading_zeros() as usize;
        let v = word * 64 + 63 - self.bits[b * self.words + word].leading_zeros() as usize;
        let gain = b as i64 - self.d;
        self.remove(v, gain);
        Some((gain, v))
    }
}

/// One Fiduccia–Mattheyses pass over every vertex. Gains live in an array
/// and move by `±2w` when a neighbour moves; the waiting vertices sit in
/// [`GainBuckets`]. A vertex whose move would break the balance leaves the
/// queue until a neighbour moves. Returns `true` when the cut improved.
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
    let mut gain = vec![0i64; n];
    let mut d = 0i64;
    for v in 0..n {
        let mut degree = 0i64;
        for (&nbr, &w) in g.neighbors(v).iter().zip(g.edge_weights(v)) {
            let w = w as i64;
            degree += w;
            gain[v] += if side[nbr as usize] == side[v] { -w } else { w };
        }
        d = d.max(degree);
    }
    let mut queue = GainBuckets::new(n, d);
    for (v, &gv) in gain.iter().enumerate() {
        queue.insert(v, gv);
    }
    let mut queued = vec![true; n];
    let mut locked = vec![false; n];

    let mut cur_cut = cut_weight(g, side) as i64;
    let best_start = cur_cut;
    let mut best_cut = cur_cut;
    let mut moves: Vec<usize> = Vec::new();
    let mut best_len = 0usize;

    while let Some((gv, v)) = queue.pop() {
        queued[v] = false;
        let from = side[v] as usize;
        if weight[from] < g.vwt[v] + lo {
            // balance would break: out of the queue until a neighbour moves
            continue;
        }
        // apply
        side[v] ^= 1;
        weight[from] -= g.vwt[v];
        weight[1 - from] += g.vwt[v];
        locked[v] = true;
        cur_cut -= gv;
        moves.push(v);
        if cur_cut < best_cut {
            best_cut = cur_cut;
            best_len = moves.len();
        }
        for (&nbr, &w) in g.neighbors(v).iter().zip(g.edge_weights(v)) {
            let u = nbr as usize;
            if locked[u] {
                continue;
            }
            if queued[u] {
                queue.remove(u, gain[u]);
            }
            // the edge turned internal where `u` now shares `v`'s side
            let w = 2 * w as i64;
            gain[u] += if side[u] == side[v] { -w } else { w };
            queue.insert(u, gain[u]);
            queued[u] = true;
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

/// Multilevel bisection of a plain CSR graph (unit weights).
pub fn bisect(g: &apsp_graph::Csr, opts: &BisectOptions) -> Bisection {
    bisect_work(&WorkGraph::from_csr(g), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{self, WeightKind};

    fn balance(g: &WorkGraph, side: &[u8]) -> f64 {
        let total = g.total_vwt() as f64;
        let w0: u64 = (0..g.n()).filter(|&u| side[u] == 0).map(|u| g.vwt[u]).sum();
        w0 as f64 / total
    }

    #[test]
    fn grid_bisection_is_balanced_with_small_cut() {
        let g = generators::grid2d(12, 12, WeightKind::Unit, 0);
        let w = WorkGraph::from_csr(&g);
        let b = bisect(&g, &BisectOptions::default());
        let frac = balance(&w, &b.side);
        assert!((0.3..=0.7).contains(&frac), "balance {frac}");
        // a 12×12 grid has a 12-edge bisector; allow heuristic slack
        assert!(b.cut <= 30, "cut {}", b.cut);
        assert_eq!(b.cut, cut_weight(&w, &b.side));
    }

    #[test]
    fn path_bisection_is_one_cut() {
        let g = generators::path(64, WeightKind::Unit, 0);
        let b = bisect(&g, &BisectOptions::default());
        assert!(b.cut <= 3, "cut {}", b.cut);
    }

    #[test]
    fn single_vertex_and_empty() {
        let g = apsp_graph::Csr::edgeless(1);
        let b = bisect(&g, &BisectOptions::default());
        assert_eq!(b.side, vec![0]);
        let g0 = apsp_graph::Csr::edgeless(0);
        let b0 = bisect(&g0, &BisectOptions::default());
        assert!(b0.side.is_empty());
    }

    #[test]
    fn two_vertices_split() {
        let g = apsp_graph::GraphBuilder::new(2).edge(0, 1, 1.0).build();
        let b = bisect(&g, &BisectOptions::default());
        assert_ne!(b.side[0], b.side[1]);
        assert_eq!(b.cut, 1);
    }

    #[test]
    fn disconnected_components_still_balanced() {
        // two 4×4 grids with no connection: perfect 0-cut bisection exists
        let mut builder = apsp_graph::GraphBuilder::new(32);
        let grid = generators::grid2d(4, 4, WeightKind::Unit, 0);
        for (u, v, w) in grid.edges() {
            builder.add_edge(u, v, w);
            builder.add_edge(u + 16, v + 16, w);
        }
        let g = builder.build();
        let b = bisect(&g, &BisectOptions::default());
        let w = WorkGraph::from_csr(&g);
        let frac = balance(&w, &b.side);
        assert!((0.3..=0.7).contains(&frac), "balance {frac}");
        assert!(b.cut <= 8, "cut {}", b.cut);
    }

    #[test]
    fn refinement_improves_or_keeps_cut() {
        let g = generators::connected_gnp(120, 0.04, WeightKind::Unit, 5);
        let w = WorkGraph::from_csr(&g);
        // raw grown partition on the full graph
        let raw = grow_initial(&w, 0);
        let raw_cut = cut_weight(&w, &raw);
        let refined = bisect(&g, &BisectOptions::default());
        assert!(refined.cut <= raw_cut.max(1) * 2, "{} vs {}", refined.cut, raw_cut);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::grid2d(10, 10, WeightKind::Unit, 0);
        let a = bisect(&g, &BisectOptions::default());
        let b = bisect(&g, &BisectOptions::default());
        assert_eq!(a.side, b.side);
    }
}
