//! 2D-DC-APSP (Solomonik et al. \[24\]) — the paper's dense comparator.
//!
//! Divide-and-conquer APSP over a **block-cyclic** layout:
//!
//! ```text
//! APSP(A) = | APSP(A₁₁)                 |  A₁₂ ← A₁₁ ⊗ A₁₂
//!           | A₂₁ ← A₂₁ ⊗ A₁₁           |  A₂₂ ⊕= A₂₁ ⊗ A₁₂
//!           | APSP(A₂₂)                 |  A₁₂ ← A₁₂ ⊗ A₂₂ ; A₂₁ ← A₂₂ ⊗ A₂₁
//!           | A₁₁ ⊕= A₁₂ ⊗ A₂₁          |
//! ```
//!
//! The matrix is padded and cut into a `T × T` grid of `ts × ts` tiles with
//! `T = √p · 2^depth`; tile `(I, J)` lives on rank `(I mod √p, J mod √p)`,
//! so every quadrant of every recursion level spreads across the whole
//! grid — the block-cyclic load-balancing §5.1 discusses. Min-plus
//! multiplies are SUMMA sweeps (one step per processor column, panels
//! broadcast along rows/columns); base cases run a tile-pivot blocked FW.
//!
//! Measured shape: `B = Θ(n²/√p · log p)`, `L = Θ(2^depth · √p · log p)` —
//! the dense-comparator row of Table 2 (Solomonik et al. tune the recursion
//! depth to reach `√p log²p`; we fix a small depth, which only changes
//! constants/log factors, and document the simplification in DESIGN.md).

use crate::launch::{launch_plain, DenseResult, Solver};
use apsp_graph::{Csr, DenseDist};
use apsp_minplus::{fw_in_place, gemm, MinPlusMatrix};
use apsp_simnet::RunReport;
use apsp_transport::Transport;

/// Block-cyclic geometry shared by all ranks.
#[derive(Clone, Copy, Debug)]
struct Cyclic {
    /// Grid side `√p`.
    ng: usize,
    /// Tile side in scalars.
    ts: usize,
    /// Tiles per dimension (`T`), a multiple of `ng`.
    tiles: usize,
}

impl Cyclic {
    fn new(n: usize, ng: usize, depth: u32) -> Self {
        let tiles = ng << depth;
        let ts = n.div_ceil(tiles).max(1);
        Cyclic { ng, ts, tiles }
    }

    /// Grid coordinates (0-based) of a rank.
    fn coords(&self, rank: usize) -> (usize, usize) {
        (rank / self.ng, rank % self.ng)
    }

    /// Tiles of `range` owned by grid row/column index `rc` (0-based),
    /// ascending.
    fn owned_in(&self, range: std::ops::Range<usize>, rc: usize) -> Vec<usize> {
        range.filter(|t| t % self.ng == rc).collect()
    }
}

/// Per-rank tile storage.
struct Tiles {
    geo: Cyclic,
    my_row: usize,
    my_col: usize,
    /// Local tiles indexed by (global_i / ng, global_j / ng).
    data: Vec<MinPlusMatrix>,
}

impl Tiles {
    fn new(geo: Cyclic, rank: usize, g: &Csr) -> Self {
        let (my_row, my_col) = geo.coords(rank);
        let per_dim = geo.tiles / geo.ng;
        let mut data = Vec::with_capacity(per_dim * per_dim);
        let n = g.n();
        for li in 0..per_dim {
            for lj in 0..per_dim {
                let (gi, gj) = (li * geo.ng + my_row, lj * geo.ng + my_col);
                let (r0, c0) = (gi * geo.ts, gj * geo.ts);
                let mut tile = MinPlusMatrix::empty(geo.ts, geo.ts);
                for r in 0..geo.ts {
                    if gi == gj {
                        // diagonal tile: zero self-distance (padded vertices
                        // included — they stay isolated otherwise)
                        tile.set(r, r, 0.0);
                    }
                    let u = r0 + r;
                    if u >= n {
                        continue;
                    }
                    for (v, w) in g.edges_of(u) {
                        if v >= c0 && v < c0 + geo.ts {
                            tile.relax(r, v - c0, w);
                        }
                    }
                }
                data.push(tile);
            }
        }
        Tiles { geo, my_row, my_col, data }
    }

    fn local_idx(&self, gi: usize, gj: usize) -> usize {
        debug_assert_eq!(gi % self.geo.ng, self.my_row, "tile ({gi},{gj}) not owned");
        debug_assert_eq!(gj % self.geo.ng, self.my_col);
        let per_dim = self.geo.tiles / self.geo.ng;
        (gi / self.geo.ng) * per_dim + gj / self.geo.ng
    }

    fn tile(&self, gi: usize, gj: usize) -> &MinPlusMatrix {
        &self.data[self.local_idx(gi, gj)]
    }

    fn tile_mut(&mut self, gi: usize, gj: usize) -> &mut MinPlusMatrix {
        let idx = self.local_idx(gi, gj);
        &mut self.data[idx]
    }

    /// Serializes the owned tiles of `rows × cols` (ascending `(i, j)`).
    fn pack(&self, rows: &[usize], cols: &[usize]) -> Vec<f64> {
        let mut out = Vec::with_capacity(rows.len() * cols.len() * self.geo.ts * self.geo.ts);
        for &i in rows {
            for &j in cols {
                out.extend_from_slice(self.tile(i, j).as_slice());
            }
        }
        out
    }
}

/// Deserializes a packed panel into `(tile_index → matrix)` lookups.
struct Panel {
    rows: Vec<usize>,
    cols: Vec<usize>,
    ts: usize,
    data: Vec<f64>,
}

impl Panel {
    fn tile(&self, i: usize, j: usize) -> MinPlusMatrix {
        let ri = self.rows.iter().position(|&r| r == i).expect("row in panel");
        let ci = self.cols.iter().position(|&c| c == j).expect("col in panel");
        let words = self.ts * self.ts;
        let off = (ri * self.cols.len() + ci) * words;
        MinPlusMatrix::from_raw(self.ts, self.ts, self.data[off..off + words].to_vec())
    }
}

fn tag(phase: u64, a: usize, b: usize) -> u64 {
    0xDC_0000_0000_0000 | (phase << 40) | ((a as u64) << 20) | b as u64
}

/// One SUMMA sweep: `C[rr × cc] ⊕= A[rr × kk] ⊗ B[kk × cc]` over tile
/// ranges. Snapshots of the operand ranges are taken locally first, so
/// aliasing with `C` (e.g. `A₁₂ ← A₁₁ ⊗ A₁₂`) is safe.
#[allow(clippy::too_many_arguments)]
fn summa<C: Transport>(
    comm: &mut C,
    t: &mut Tiles,
    rr: std::ops::Range<usize>,
    kk: std::ops::Range<usize>,
    cc: std::ops::Range<usize>,
    seq: &mut u64,
) {
    let geo = t.geo;
    let ng = geo.ng;
    let my_rows = geo.owned_in(rr.clone(), t.my_row);
    let my_cols = geo.owned_in(cc.clone(), t.my_col);
    // local operand snapshots (A panel slice this rank owns per step, and
    // the B rows it owns)
    let full_row_group: Vec<usize> = (0..ng).map(|c| t.my_row * ng + c).collect();
    let full_col_group: Vec<usize> = (0..ng).map(|r| r * ng + t.my_col).collect();

    // snapshot my owned A (rows rr) and B (rows kk) tiles to decouple from C
    let a_snapshot: Vec<(usize, usize, MinPlusMatrix)> = {
        let my_ks = geo.owned_in(kk.clone(), t.my_col);
        my_rows
            .iter()
            .flat_map(|&i| my_ks.iter().map(move |&k| (i, k)))
            .map(|(i, k)| (i, k, t.tile(i, k).clone()))
            .collect()
    };
    let b_snapshot: Vec<(usize, usize, MinPlusMatrix)> = {
        let my_ks = geo.owned_in(kk.clone(), t.my_row);
        my_ks
            .iter()
            .flat_map(|&k| my_cols.iter().map(move |&j| (k, j)))
            .map(|(k, j)| (k, j, t.tile(k, j).clone()))
            .collect()
    };

    *seq += 1;
    let s0 = *seq;
    let mut summa_span = comm.span("summa", s0);
    let comm: &mut C = &mut summa_span;
    for step in 0..ng {
        // panel of A: k-tiles owned by processor column `step`
        let step_ks = geo.owned_in(kk.clone(), step);
        let a_root = t.my_row * ng + step;
        let a_payload = (t.my_col == step).then(|| {
            let mut out = Vec::new();
            for &i in &my_rows {
                for &k in &step_ks {
                    let tile = a_snapshot
                        .iter()
                        .find(|&&(ti, tk, _)| ti == i && tk == k)
                        .map(|(_, _, m)| m)
                        .expect("own A tile");
                    out.extend_from_slice(tile.as_slice());
                }
            }
            out
        });
        let a_rows = geo.owned_in(rr.clone(), t.my_row);
        let a_data = comm.bcast(&full_row_group, a_root, tag(1, s0 as usize, step), a_payload);
        comm.alloc(a_data.len());
        let a_panel = Panel { rows: a_rows, cols: step_ks.clone(), ts: geo.ts, data: a_data };

        // panel of B: k-tiles owned by processor row `step`
        let b_root = step * ng + t.my_col;
        let b_ks = geo.owned_in(kk.clone(), step);
        let b_payload = (t.my_row == step).then(|| {
            let mut out = Vec::new();
            for &k in &b_ks {
                for &j in &my_cols {
                    let tile = b_snapshot
                        .iter()
                        .find(|&&(tk, tj, _)| tk == k && tj == j)
                        .map(|(_, _, m)| m)
                        .expect("own B tile");
                    out.extend_from_slice(tile.as_slice());
                }
            }
            out
        });
        let b_data = comm.bcast(&full_col_group, b_root, tag(2, s0 as usize, step), b_payload);
        comm.alloc(b_data.len());
        let b_panel = Panel { rows: b_ks, cols: my_cols.clone(), ts: geo.ts, data: b_data };

        // local multiply-accumulate
        let mut ops = 0u64;
        for &i in &my_rows {
            for &k in &a_panel.cols.clone() {
                let a_tile = a_panel.tile(i, k);
                if a_tile.is_empty_block() {
                    continue;
                }
                for &j in &my_cols {
                    let b_tile = b_panel.tile(k, j);
                    ops += gemm(t.tile_mut(i, j), &a_tile, &b_tile);
                }
            }
        }
        comm.compute(ops);
        comm.release(a_panel.data.len());
        comm.release(b_panel.data.len());
    }
}

/// Tile-pivot blocked FW over `range × range` — the recursion base case.
fn base_fw<C: Transport>(
    comm: &mut C,
    t: &mut Tiles,
    range: std::ops::Range<usize>,
    seq: &mut u64,
) {
    let mut fw_span = comm.span("base-fw", range.start as u64);
    let comm: &mut C = &mut fw_span;
    let geo = t.geo;
    let ng = geo.ng;
    let full_row_group: Vec<usize> = (0..ng).map(|c| t.my_row * ng + c).collect();
    let full_col_group: Vec<usize> = (0..ng).map(|r| r * ng + t.my_col).collect();
    let my_rows = geo.owned_in(range.clone(), t.my_row);
    let my_cols = geo.owned_in(range.clone(), t.my_col);

    for k in range.clone() {
        *seq += 1;
        let s = *seq as usize;
        let (kr, kc) = (k % ng, k % ng);
        // close the pivot tile
        if t.my_row == kr && t.my_col == kc {
            let ops = fw_in_place(t.tile_mut(k, k));
            comm.compute(ops);
        }
        // pivot down its processor column, update column panel tiles
        let piv_owner = kr * ng + kc;
        if t.my_col == kc {
            let payload = (comm.rank() == piv_owner).then(|| t.tile(k, k).as_slice().to_vec());
            let data = comm.bcast(&full_col_group, piv_owner, tag(3, s, k), payload);
            comm.alloc(data.len());
            let akk = MinPlusMatrix::from_raw(geo.ts, geo.ts, data);
            let mut ops = 0;
            for &i in &my_rows {
                if i == k && comm.rank() == piv_owner {
                    continue;
                }
                let snapshot = t.tile(i, k).clone();
                ops += gemm(t.tile_mut(i, k), &snapshot, &akk);
            }
            comm.compute(ops);
            comm.release(akk.words());
        }
        // pivot along its processor row, update row panel tiles
        if t.my_row == kr {
            let payload = (comm.rank() == piv_owner).then(|| t.tile(k, k).as_slice().to_vec());
            let data = comm.bcast(&full_row_group, piv_owner, tag(4, s, k), payload);
            comm.alloc(data.len());
            let akk = MinPlusMatrix::from_raw(geo.ts, geo.ts, data);
            let mut ops = 0;
            for &j in &my_cols {
                if j == k {
                    continue;
                }
                let snapshot = t.tile(k, j).clone();
                ops += gemm(t.tile_mut(k, j), &akk, &snapshot);
            }
            comm.compute(ops);
            comm.release(akk.words());
        }
        // column panel broadcasts along rows
        let a_root = t.my_row * ng + kc;
        let a_payload = (t.my_col == kc).then(|| t.pack(&my_rows, &[k]));
        let a_data = comm.bcast(&full_row_group, a_root, tag(5, s, k), a_payload);
        comm.alloc(a_data.len());
        let a_panel = Panel { rows: my_rows.clone(), cols: vec![k], ts: geo.ts, data: a_data };
        // row panel broadcasts down columns
        let b_root = kr * ng + t.my_col;
        let b_payload = (t.my_row == kr).then(|| t.pack(&[k], &my_cols));
        let b_data = comm.bcast(&full_col_group, b_root, tag(6, s, k), b_payload);
        comm.alloc(b_data.len());
        let b_panel = Panel { rows: vec![k], cols: my_cols.clone(), ts: geo.ts, data: b_data };
        // outer product
        let mut ops = 0;
        for &i in &my_rows {
            if i == k {
                continue; // row panel already updated against the closed pivot
            }
            let a_tile = a_panel.tile(i, k);
            if a_tile.is_empty_block() {
                continue;
            }
            for &j in &my_cols {
                if j == k {
                    continue; // column panel already updated
                }
                let b_tile = b_panel.tile(k, j);
                ops += gemm(t.tile_mut(i, j), &a_tile, &b_tile);
            }
        }
        comm.compute(ops);
        comm.release(a_panel.data.len());
        comm.release(b_panel.data.len());
    }
}

/// Runs one SUMMA sweep or base-FW call as a checkpointable phase: the
/// body executes only when the supervisor has not already restored past
/// this boundary, and the full local tile set is the phase state committed
/// at the end. Skipping is SPMD-uniform (every rank shares the boundary
/// counter), so `seq`-derived tags stay consistent across ranks.
fn checkpointed<C, F>(comm: &mut C, t: &mut Tiles, body: F)
where
    C: Transport,
    F: FnOnce(&mut C, &mut Tiles),
{
    if comm.phase_live() {
        body(comm, t);
    }
    let packed = {
        let mut out = Vec::with_capacity(t.data.iter().map(|m| m.words()).sum());
        for m in &t.data {
            out.extend_from_slice(m.as_slice());
        }
        out
    };
    let state = comm.commit_phase(packed);
    let ts = t.geo.ts;
    for (tile, chunk) in t.data.iter_mut().zip(state.chunks_exact(ts * ts)) {
        *tile = MinPlusMatrix::from_raw(ts, ts, chunk.to_vec());
    }
}

/// The divide-and-conquer recursion over a tile range.
fn dc<C: Transport>(
    comm: &mut C,
    t: &mut Tiles,
    range: std::ops::Range<usize>,
    depth: u32,
    seq: &mut u64,
) {
    if depth == 0 {
        checkpointed(comm, t, |c, t| base_fw(c, t, range, seq));
        return;
    }
    let mid = range.start + range.len() / 2;
    let (r1, r2) = (range.start..mid, mid..range.end);
    // APSP(A11)
    dc(comm, t, r1.clone(), depth - 1, seq);
    // A12 ← A11 ⊗ A12 ; A21 ← A21 ⊗ A11
    checkpointed(comm, t, |c, t| summa(c, t, r1.clone(), r1.clone(), r2.clone(), seq));
    checkpointed(comm, t, |c, t| summa(c, t, r2.clone(), r1.clone(), r1.clone(), seq));
    // A22 ⊕= A21 ⊗ A12
    checkpointed(comm, t, |c, t| summa(c, t, r2.clone(), r1.clone(), r2.clone(), seq));
    // APSP(A22)
    dc(comm, t, r2.clone(), depth - 1, seq);
    // A12 ← A12 ⊗ A22 ; A21 ← A22 ⊗ A21
    checkpointed(comm, t, |c, t| summa(c, t, r1.clone(), r2.clone(), r2.clone(), seq));
    checkpointed(comm, t, |c, t| summa(c, t, r2.clone(), r2.clone(), r1.clone(), seq));
    // A11 ⊕= A12 ⊗ A21
    checkpointed(comm, t, |c, t| summa(c, t, r1.clone(), r2.clone(), r1.clone(), seq));
}

/// 2D-DC-APSP as a [`Solver`] on an `n_grid × n_grid` grid: block-cyclic
/// tiles, divide-and-conquer over them, SUMMA min-plus multiplies. Every
/// SUMMA sweep and base-FW call is a checkpointable phase; a profiled
/// run's ledger has a `summa#s` span per sweep and a `base-fw#t0` span per
/// base case.
pub struct DcApsp<'a> {
    g: &'a Csr,
    geo: Cyclic,
    /// Divide-and-conquer levels run before the blocked-FW base case.
    rec_depth: u32,
}

impl<'a> DcApsp<'a> {
    /// 2D-DC-APSP with the given recursion depth (0 = pure distributed
    /// blocked FW over tiles).
    pub fn new(g: &'a Csr, n_grid: usize, depth: u32) -> Self {
        DcApsp { g, geo: Cyclic::new(g.n(), n_grid, depth), rec_depth: depth }
    }

    /// Distributed blocked FW over a **block-cyclic** layout with
    /// `2^oversub` tiles per processor per dimension and *no*
    /// divide-and-conquer — the §5.1 layout ablation. With `oversub = 0`
    /// this is the block layout (tile = block); larger `oversub`
    /// serializes the diagonal updates across the tiles a processor owns,
    /// which is exactly the latency argument the paper makes against
    /// block-cyclic for FW-shaped algorithms.
    pub fn cyclic(g: &'a Csr, n_grid: usize, oversub: u32) -> Self {
        DcApsp { g, geo: Cyclic::new(g.n(), n_grid, oversub), rec_depth: 0 }
    }
}

impl Solver for DcApsp<'_> {
    type Out = Vec<MinPlusMatrix>;
    type Result = DenseResult;
    const PHASE: &'static str = "solve-dcapsp";

    fn p(&self) -> usize {
        self.geo.ng * self.geo.ng
    }

    /// Builds the local block-cyclic tiles and runs the divide-and-conquer
    /// recursion over them.
    fn rank_program<C: Transport>(&self, comm: &mut C) -> Vec<MinPlusMatrix> {
        let mut t = Tiles::new(self.geo, comm.rank(), self.g);
        let words: usize = t.data.iter().map(|m| m.words()).sum();
        comm.alloc(words);
        let mut seq = 0u64;
        dc(comm, &mut t, 0..self.geo.tiles, self.rec_depth, &mut seq);
        t.data
    }

    /// Places every rank's tiles and crops the padding.
    fn assemble(&self, tiles_raw: Vec<Vec<MinPlusMatrix>>, report: RunReport) -> DenseResult {
        let geo = self.geo;
        let n = self.g.n();
        let mut dist = DenseDist::unconnected(n);
        let per_dim = geo.tiles / geo.ng;
        for (rank, tiles) in tiles_raw.into_iter().enumerate() {
            let (mr, mc) = geo.coords(rank);
            for li in 0..per_dim {
                for lj in 0..per_dim {
                    let tile = &tiles[li * per_dim + lj];
                    let (gi, gj) = (li * geo.ng + mr, lj * geo.ng + mc);
                    let (r0, c0) = (gi * geo.ts, gj * geo.ts);
                    for r in 0..geo.ts {
                        for c in 0..geo.ts {
                            if r0 + r < n && c0 + c < n {
                                dist.set(r0 + r, c0 + c, tile.get(r, c));
                            }
                        }
                    }
                }
            }
        }
        DenseResult { dist, report }
    }
}

/// Runs [`DcApsp::cyclic`] on the simulated machine.
pub fn cyclic_fw(g: &Csr, n_grid: usize, oversub: u32) -> DenseResult {
    launch_plain(&DcApsp::cyclic(g, n_grid, oversub))
}

/// Runs 2D-DC-APSP on an `n_grid × n_grid` simulated grid with the given
/// recursion depth; every other way to run it is a
/// [`crate::launch::LaunchSpec`] on [`DcApsp::new`].
pub fn dc_apsp(g: &Csr, n_grid: usize, depth: u32) -> DenseResult {
    launch_plain(&DcApsp::new(g, n_grid, depth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{self, WeightKind};
    use apsp_graph::oracle;

    fn check(g: &Csr, ng: usize, depth: u32) -> RunReport {
        let result = dc_apsp(g, ng, depth);
        let reference = oracle::apsp_dijkstra(g);
        if let Some((i, j, a, b)) = result.dist.first_mismatch(&reference, 1e-9) {
            panic!("ng={ng} depth={depth}: mismatch at ({i},{j}): got {a}, expected {b}");
        }
        result.report
    }

    #[test]
    fn depth_zero_is_blocked_fw() {
        let g = generators::grid2d(4, 4, WeightKind::Integer { max: 6 }, 1);
        check(&g, 3, 0);
    }

    #[test]
    fn depth_one_and_two() {
        let g = generators::connected_gnp(30, 0.1, WeightKind::Uniform { lo: 0.3, hi: 2.0 }, 3);
        check(&g, 3, 1);
        check(&g, 3, 2);
    }

    #[test]
    fn larger_grid() {
        let g = generators::grid2d(7, 7, WeightKind::Integer { max: 4 }, 5);
        check(&g, 7, 1);
    }

    #[test]
    fn padding_does_not_leak() {
        // n = 10 on a 3×3 grid with depth 1: tiles = 6, ts = 2, np = 12 > n
        let g = generators::cycle(10, WeightKind::Integer { max: 9 }, 2);
        let result = check(&g, 3, 1);
        assert!(result.total_words() > 0);
    }

    #[test]
    fn disconnected_graph() {
        let mut b = apsp_graph::GraphBuilder::new(9);
        b.add_edge(0, 1, 1.0);
        b.add_edge(3, 4, 2.0);
        b.add_edge(7, 8, 3.0);
        let g = b.build();
        check(&g, 3, 1);
    }

    #[test]
    fn cyclic_fw_matches_oracle_and_serializes_diagonals() {
        let g = generators::grid2d(6, 6, WeightKind::Integer { max: 4 }, 7);
        let reference = oracle::apsp_dijkstra(&g);
        let mut latencies = Vec::new();
        for oversub in 0..=2u32 {
            let result = cyclic_fw(&g, 3, oversub);
            assert!(result.dist.first_mismatch(&reference, 1e-9).is_none(), "oversub {oversub}");
            latencies.push(result.report.critical_latency());
        }
        // the §5.1 argument: more tiles per diagonal processor → more
        // serialized pivot rounds → strictly growing latency
        assert!(latencies[0] < latencies[1] && latencies[1] < latencies[2], "{latencies:?}");
    }

    #[test]
    fn bandwidth_scales_inverse_sqrt_p() {
        // B ≈ n²/√p: tripling √p should cut critical bandwidth noticeably
        let g = generators::grid2d(8, 8, WeightKind::Unit, 0);
        let b3 = check(&g, 3, 1).critical_bandwidth();
        let b7 = check(&g, 7, 1).critical_bandwidth();
        assert!(b7 < b3, "B(√p=7)={b7} should be below B(√p=3)={b3}");
    }
}
