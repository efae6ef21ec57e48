//! Dense distributed blocked Floyd–Warshall on a block layout
//! (Jenq–Sahni style, §2 of the paper) — the simple dense baseline.
//!
//! The `√p × √p` grid stores an `n × n` dense matrix in block layout; the
//! `√p` pivot iterations each broadcast the closed pivot block and the two
//! panels, so the costs are `L = Θ(√p · log p)` and `B = Θ(n²/√p · log p)`
//! — the dense-regime shape every row of Table 2 compares against.

use crate::launch::{launch_plain, DenseResult, Solver};
use apsp_graph::{Csr, DenseDist};
use apsp_minplus::{fw_in_place, gemm, MinPlusMatrix};
use apsp_simnet::RunReport;
use apsp_transport::Transport;

/// Balanced partition of `n` into `parts` consecutive chunks.
pub fn balanced_sizes(n: usize, parts: usize) -> Vec<usize> {
    let q = n / parts;
    let r = n % parts;
    (0..parts).map(|i| q + usize::from(i < r)).collect()
}

struct Grid {
    n_grid: usize,
    sizes: Vec<usize>,
    offsets: Vec<usize>,
}

impl Grid {
    fn new(n: usize, n_grid: usize) -> Self {
        let sizes = balanced_sizes(n, n_grid);
        let mut offsets = vec![0];
        let mut acc = 0;
        for &s in &sizes {
            acc += s;
            offsets.push(acc);
        }
        Grid { n_grid, sizes, offsets }
    }

    fn rank_of(&self, i: usize, j: usize) -> usize {
        (i - 1) * self.n_grid + (j - 1)
    }

    fn block_of(&self, rank: usize) -> (usize, usize) {
        (rank / self.n_grid + 1, rank % self.n_grid + 1)
    }

    fn size(&self, k: usize) -> usize {
        self.sizes[k - 1]
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

fn rank_program<C: Transport>(comm: &mut C, grid: &Grid, g: &Csr) -> Vec<f64> {
    let n_grid = grid.n_grid;
    let (bi, bj) = grid.block_of(comm.rank());
    let mut block = grid.extract(g, bi, bj);
    comm.alloc(block.words());

    let full_col: Vec<usize> = (1..=n_grid).map(|i| grid.rank_of(i, bj)).collect();
    let full_row: Vec<usize> = (1..=n_grid).map(|j| grid.rank_of(bi, j)).collect();

    for t in 1..=n_grid {
        // each pivot round is a checkpointable phase: skipped wholesale
        // when a restored checkpoint already covers it
        if comm.phase_live() {
            pivot_round(comm, grid, &mut block, t, bi, bj, &full_col, &full_row);
        }
        let (rows, cols) = (block.rows(), block.cols());
        let state =
            comm.commit_phase(std::mem::replace(&mut block, MinPlusMatrix::empty(0, 0)).into_vec());
        block = MinPlusMatrix::from_raw(rows, cols, state);
    }

    block.into_vec()
}

#[allow(clippy::too_many_arguments)]
fn pivot_round<C: Transport>(
    comm: &mut C,
    grid: &Grid,
    block: &mut MinPlusMatrix,
    t: usize,
    bi: usize,
    bj: usize,
    full_col: &[usize],
    full_row: &[usize],
) {
    {
        let mut pivot_span = comm.span("pivot", t as u64);
        let comm: &mut C = &mut pivot_span;
        // pivot closure
        if bi == t && bj == t {
            let ops = fw_in_place(block);
            comm.compute(ops);
        }
        // pivot broadcast down column t
        let mut akk: Option<MinPlusMatrix> = None;
        if bj == t {
            let payload = (bi == t).then(|| block.as_slice().to_vec());
            let data = comm.bcast(full_col, grid.rank_of(t, t), tag(t, 1, 0), payload);
            comm.alloc(data.len());
            let pivot = MinPlusMatrix::from_raw(grid.size(t), grid.size(t), data);
            if bi != t {
                // column panel update: A(i,t) ⊕= A(i,t) ⊗ A(t,t)*
                let snapshot = block.clone();
                let ops = gemm(block, &snapshot, &pivot);
                comm.compute(ops);
            }
            akk = Some(pivot);
        }
        // pivot broadcast along row t
        if bi == t {
            let payload = (bj == t).then(|| block.as_slice().to_vec());
            let data = comm.bcast(full_row, grid.rank_of(t, t), tag(t, 2, 0), payload);
            if bj != t {
                comm.alloc(data.len());
                let akk_row = MinPlusMatrix::from_raw(grid.size(t), grid.size(t), data);
                // row panel update: A(t,j) ⊕= A(t,t)* ⊗ A(t,j)
                let snapshot = block.clone();
                let ops = gemm(block, &akk_row, &snapshot);
                comm.compute(ops);
                comm.release(akk_row.words());
            }
        }
        if let Some(a) = akk.take() {
            comm.release(a.words());
        }

        // column panel A(i,t) broadcasts along row i (all rows in parallel)
        let aik = {
            let payload = (bj == t).then(|| block.as_slice().to_vec());
            let data = comm.bcast(full_row, grid.rank_of(bi, t), tag(t, 3, bi), payload);
            comm.alloc(data.len());
            MinPlusMatrix::from_raw(grid.size(bi), grid.size(t), data)
        };
        // row panel A(t,j) broadcasts down column j
        let akj = {
            let payload = (bi == t).then(|| block.as_slice().to_vec());
            let data = comm.bcast(full_col, grid.rank_of(t, bj), tag(t, 4, bj), payload);
            comm.alloc(data.len());
            MinPlusMatrix::from_raw(grid.size(t), grid.size(bj), data)
        };
        // min-plus outer product everywhere off the pivot cross
        if bi != t && bj != t {
            let ops = gemm(block, &aik, &akj);
            comm.compute(ops);
        }
        comm.release(aik.words());
        comm.release(akj.words());
    }
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
        assert!(n_grid >= 1);
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
