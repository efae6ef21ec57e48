//! Dense distributed blocked Floyd–Warshall on a block layout
//! (Jenq–Sahni style, §2 of the paper) — the simple dense baseline.
//!
//! The `√p × √p` grid stores an `n × n` dense matrix in block layout; the
//! `√p` pivot iterations each broadcast the closed pivot block and the two
//! panels, so the costs are `L = Θ(√p · log p)` and `B = Θ(n²/√p · log p)`
//! — the dense-regime shape every row of Table 2 compares against.
//!
//! Each pivot round is one checkpointed phase whose schedule is data:
//! `round_plan` writes a rank's ops for the round into a `Plan` and
//! [`crate::plan`]'s `execute` runs them.

use crate::launch::{launch_plain, DenseResult, Solver};
use crate::plan::{execute, Buf, Op, Plan};
use apsp_graph::{Csr, DenseDist};
use apsp_minplus::MinPlusMatrix;
use apsp_simnet::RunReport;
use apsp_transport::Transport;

/// Balanced partition of `n` into `parts` consecutive chunks.
pub fn balanced_sizes(n: usize, parts: usize) -> Vec<usize> {
    let q = n / parts;
    let r = n % parts;
    (0..parts).map(|i| q + usize::from(i < r)).collect()
}

pub(crate) struct Grid {
    n_grid: usize,
    /// Block sizes by label `1..=n_grid` (`[0]` is unused).
    pub(crate) sizes: Vec<usize>,
    /// `offsets[k]` is where block `k` ends.
    offsets: Vec<usize>,
}

impl Grid {
    pub(crate) fn new(n: usize, n_grid: usize) -> Self {
        let sizes: Vec<usize> = std::iter::once(0).chain(balanced_sizes(n, n_grid)).collect();
        let offsets = sizes
            .iter()
            .scan(0, |end, &s| {
                *end += s;
                Some(*end)
            })
            .collect();
        Grid { n_grid, sizes, offsets }
    }

    pub(crate) fn rank_of(&self, i: usize, j: usize) -> usize {
        (i - 1) * self.n_grid + (j - 1)
    }

    pub(crate) fn block_of(&self, rank: usize) -> (usize, usize) {
        (rank / self.n_grid + 1, rank % self.n_grid + 1)
    }

    fn range(&self, k: usize) -> std::ops::Range<usize> {
        self.offsets[k - 1]..self.offsets[k]
    }

    fn extract(&self, g: &Csr, i: usize, j: usize) -> MinPlusMatrix {
        let (ri, rj) = (self.range(i), self.range(j));
        let mut block = MinPlusMatrix::empty(ri.len(), rj.len());
        if i == j {
            for d in 0..ri.len() {
                block.set(d, d, 0.0);
            }
        }
        for (bi, u) in ri.clone().enumerate() {
            for (v, w) in g.edges_of(u) {
                if rj.contains(&v) {
                    block.relax(bi, v - rj.start, w);
                }
            }
        }
        block
    }
}

fn tag(t: usize, phase: u64, aux: usize) -> u64 {
    0xF_0000_0000_0000 | ((t as u64) << 32) | (phase << 24) | aux as u64
}

/// Writes rank `(bi, bj)`'s ops for pivot round `t` into `plan`. The pivot
/// closes `A(t,t)` and broadcasts it down column `t` (every member keeps a
/// copy, the pivot's own until the row broadcast is done) and along row
/// `t`, where the panels update against it. Then panel `A(i,t)` goes along
/// row `i` and `A(t,j)` down column `j`, and every block off the pivot
/// cross multiplies the two it receives.
pub(crate) fn round_plan(grid: &Grid, t: usize, (bi, bj): (usize, usize), plan: &mut Plan) {
    use Buf::{Got, Own};
    let column = |j| (1..=grid.n_grid).map(move |i| grid.rank_of(i, j));
    let row = |i| (1..=grid.n_grid).map(move |j| grid.rank_of(i, j));
    let (pivot, block) = (grid.rank_of(t, t), Own(bi, bj));
    plan.clear();
    if (bi, bj) == (t, t) {
        plan.ops.push(Op::Close(block));
    }
    if bj == t {
        plan.broadcast(column(t), pivot, tag(t, 1, 0), [Own(t, t)], true);
        if bi != t {
            plan.ops.push(Op::Gemm { out: block, a: block, b: Got(t, t) });
        }
    }
    if bi == t {
        plan.broadcast(row(t), pivot, tag(t, 2, 0), [Own(t, t)], bj != t);
        if bj != t {
            let update = Op::Gemm { out: block, a: Got(t, t), b: block };
            plan.ops.extend([update, Op::Release(Got(t, t))]);
        }
    }
    if bj == t {
        plan.ops.push(Op::Release(Got(t, t)));
    }
    plan.broadcast(row(bi), grid.rank_of(bi, t), tag(t, 3, bi), [Own(bi, t)], true);
    plan.broadcast(column(bj), grid.rank_of(t, bj), tag(t, 4, bj), [Own(t, bj)], true);
    if bi != t && bj != t {
        plan.ops.push(Op::Gemm { out: block, a: Got(bi, t), b: Got(t, bj) });
    }
    plan.ops.extend([Op::Release(Got(bi, t)), Op::Release(Got(t, bj))]);
}

fn rank_program<C: Transport>(comm: &mut C, grid: &Grid, g: &Csr) -> Vec<f64> {
    let (bi, bj) = grid.block_of(comm.rank());
    let block = grid.extract(g, bi, bj);
    comm.alloc(block.words());
    let (mut plan, mut bufs) = (Plan::default(), vec![(Buf::Own(bi, bj), block)]);
    for t in 1..=grid.n_grid {
        // each pivot round is a checkpointable phase: skipped wholesale
        // when a restored checkpoint already covers it
        if comm.phase_live() {
            round_plan(grid, t, (bi, bj), &mut plan);
            let mut round = comm.span("pivot", t as u64);
            execute(&mut *round, &plan.ops, &plan, &grid.sizes, &mut bufs);
        }
        let block = &mut bufs[0].1;
        let (rows, cols) = (block.rows(), block.cols());
        let state =
            comm.commit_phase(std::mem::replace(block, MinPlusMatrix::empty(0, 0)).into_vec());
        *block = MinPlusMatrix::from_raw(rows, cols, state);
    }
    let (_, block) = bufs.pop().expect("the rank's block");
    block.into_vec()
}

/// Dense blocked Floyd–Warshall as a [`Solver`] on an `n_grid × n_grid`
/// grid (`p = n_grid²` ranks). Each pivot round is a checkpointable phase;
/// a profiled run's ledger has one `pivot#t` span per round with the panel
/// broadcasts nested inside.
pub struct Fw2d<'a> {
    g: &'a Csr,
    grid: Grid,
}

impl<'a> Fw2d<'a> {
    /// The solver for `g` on an `n_grid × n_grid` grid.
    pub fn new(g: &'a Csr, n_grid: usize) -> Self {
        assert!(n_grid >= 1, "fw2d needs an n_grid of at least 1");
        Fw2d { g, grid: Grid::new(g.n(), n_grid) }
    }
}

impl Solver for Fw2d<'_> {
    type Out = Vec<f64>;
    type Result = DenseResult;
    const PHASE: &'static str = "solve-fw2d";

    fn p(&self) -> usize {
        self.grid.n_grid * self.grid.n_grid
    }

    fn rank_program<C: Transport>(&self, comm: &mut C) -> Vec<f64> {
        rank_program(comm, &self.grid, self.g)
    }

    fn assemble(&self, blocks_raw: Vec<Vec<f64>>, report: RunReport) -> DenseResult {
        let grid = &self.grid;
        let mut dist = DenseDist::unconnected(self.g.n());
        for (rank, data) in blocks_raw.into_iter().enumerate() {
            let (i, j) = grid.block_of(rank);
            let (ri, rj) = (grid.range(i), grid.range(j));
            let block = MinPlusMatrix::from_raw(ri.len(), rj.len(), data);
            for r in 0..block.rows() {
                for c in 0..block.cols() {
                    dist.set(ri.start + r, rj.start + c, block.get(r, c));
                }
            }
        }
        DenseResult { dist, report }
    }
}

/// Runs the dense blocked-FW APSP on a `n_grid × n_grid` simulated grid
/// (`p = n_grid²` ranks); every other way to run it is a
/// [`crate::launch::LaunchSpec`] on [`Fw2d::new`].
pub fn fw2d(g: &Csr, n_grid: usize) -> DenseResult {
    launch_plain(&Fw2d::new(g, n_grid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{self, WeightKind};
    use apsp_graph::oracle;

    fn check(g: &Csr, n_grid: usize) -> RunReport {
        let result = fw2d(g, n_grid);
        let reference = oracle::apsp_dijkstra(g);
        if let Some((i, j, a, b)) = result.dist.first_mismatch(&reference, 1e-9) {
            panic!("mismatch at ({i},{j}): got {a}, expected {b}");
        }
        result.report
    }

    #[test]
    fn balanced_sizes_cover() {
        assert_eq!(balanced_sizes(10, 3), vec![4, 3, 3]);
        assert_eq!(balanced_sizes(9, 3), vec![3, 3, 3]);
        assert_eq!(balanced_sizes(2, 3), vec![1, 1, 0]);
    }

    #[test]
    fn grid_graph_on_9_ranks() {
        let g = generators::grid2d(5, 5, WeightKind::Integer { max: 6 }, 1);
        check(&g, 3);
    }

    #[test]
    fn random_graph_on_49_ranks() {
        let g = generators::connected_gnp(40, 0.08, WeightKind::Uniform { lo: 0.5, hi: 2.0 }, 2);
        check(&g, 7);
    }

    #[test]
    fn disconnected_on_4_ranks() {
        let mut b = apsp_graph::GraphBuilder::new(10);
        for i in 0..4 {
            b.add_edge(i, i + 1, 1.0);
        }
        b.add_edge(6, 7, 1.0);
        let g = b.build();
        check(&g, 2);
    }

    #[test]
    fn single_rank() {
        let g = generators::cycle(8, WeightKind::Unit, 0);
        let report = check(&g, 1);
        assert_eq!(report.total_messages(), 0);
    }

    #[test]
    fn latency_scales_with_grid_side() {
        let g = generators::grid2d(8, 8, WeightKind::Unit, 0);
        let l3 = check(&g, 3).critical_latency();
        let l7 = check(&g, 7).critical_latency();
        assert!(l7 > l3, "L(√p=7)={l7} should exceed L(√p=3)={l3}");
    }
}
