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
//!
//! The recursion unrolls into a fixed list of checkpointed phases, one per
//! SUMMA sweep and one per base case. Each phase's schedule is data:
//! `phase_plan` writes a rank's ops over its `(T/√p)²` tiles into a `Plan`
//! and [`crate::plan`]'s `execute` runs them.

use crate::launch::{launch_plain, DenseResult, Solver};
use crate::plan::{execute, Buf, Op, Plan};
use apsp_graph::{Csr, DenseDist};
use apsp_minplus::MinPlusMatrix;
use apsp_simnet::RunReport;
use apsp_transport::Transport;
use std::ops::Range;

/// The tile count `n_grid · 2^depth` per dimension of a dc-apsp run on `n`
/// vertices, or `None` when the run is not legal: an empty grid, a count
/// that overflows, or more recursion levels than halvings of `n` (`2^depth`
/// tiles per processor per dimension beyond `n` are all padding).
pub fn tile_count(n: usize, n_grid: usize, depth: u32) -> Option<usize> {
    let split = 1usize.checked_shl(depth).filter(|&split| split <= n.max(1))?;
    n_grid.checked_mul(split).filter(|_| n_grid >= 1)
}

/// Block-cyclic geometry shared by all ranks.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cyclic {
    /// Grid side `√p`.
    ng: usize,
    /// Tile side in scalars.
    ts: usize,
    /// Tiles per dimension (`T`), a multiple of `ng`.
    pub(crate) tiles: usize,
}

impl Cyclic {
    pub(crate) fn new(n: usize, ng: usize, depth: u32) -> Self {
        let tiles = tile_count(n, ng, depth).unwrap_or_else(|| {
            panic!("dc-apsp needs n_grid ≥ 1 and 2^depth ≤ n (n = {n}, n_grid = {ng}, depth = {depth})")
        });
        Cyclic { ng, ts: n.div_ceil(tiles).max(1), tiles }
    }

    /// Grid coordinates (0-based) of a rank.
    pub(crate) fn coords(&self, rank: usize) -> (usize, usize) {
        (rank / self.ng, rank % self.ng)
    }

    /// The rank at grid coordinates `(r, c)`.
    pub(crate) fn rank_of(&self, (r, c): (usize, usize)) -> usize {
        r * self.ng + c
    }

    /// Tiles of `range` owned by grid row/column index `rc`, ascending.
    fn owned_in(&self, range: &Range<usize>, rc: usize) -> impl Iterator<Item = usize> + Clone {
        let ng = self.ng;
        range.clone().filter(move |t| t % ng == rc)
    }

    /// Every tile's side, by tile index: the block shapes `execute` reads.
    pub(crate) fn sizes(&self) -> Vec<usize> {
        vec![self.ts; self.tiles]
    }

    /// Rank `(row, col)`'s tiles of `g`, padded, in local order (ascending
    /// global coordinates).
    fn tiles_of(&self, (row, col): (usize, usize), g: &Csr) -> Vec<(Buf, MinPlusMatrix)> {
        let (ts, n) = (self.ts, g.n());
        let mut tiles = Vec::new();
        for gi in self.owned_in(&(0..self.tiles), row) {
            for gj in self.owned_in(&(0..self.tiles), col) {
                let (r0, c0) = (gi * ts, gj * ts);
                let mut tile = MinPlusMatrix::empty(ts, ts);
                for r in 0..ts {
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
                        if v >= c0 && v < c0 + ts {
                            tile.relax(r, v - c0, w);
                        }
                    }
                }
                tiles.push((Buf::Own(gi, gj), tile));
            }
        }
        tiles
    }
}

fn tag(phase: u64, a: usize, b: usize) -> u64 {
    0xDC_0000_0000_0000 | (phase << 40) | ((a as u64) << 20) | b as u64
}

/// One checkpointed phase of the divide-and-conquer recursion.
#[derive(Clone, Debug)]
pub(crate) enum Phase {
    /// Tile-pivot blocked FW over `range × range` — the base case.
    BaseFw(Range<usize>),
    /// One SUMMA sweep `C[rr × cc] ⊕= A[rr × kk] ⊗ B[kk × cc]`.
    Summa { rr: Range<usize>, kk: Range<usize>, cc: Range<usize> },
}

/// Appends the recursion over `range` to `out`, phase by phase.
pub(crate) fn phases(range: Range<usize>, depth: u32, out: &mut Vec<Phase>) {
    if depth == 0 {
        out.push(Phase::BaseFw(range));
        return;
    }
    let mid = range.start + range.len() / 2;
    let (r1, r2) = (range.start..mid, mid..range.end);
    let summa = |rr: &Range<usize>, kk: &Range<usize>, cc: &Range<usize>| Phase::Summa {
        rr: rr.clone(),
        kk: kk.clone(),
        cc: cc.clone(),
    };
    // APSP(A11); A12 ← A11 ⊗ A12; A21 ← A21 ⊗ A11; A22 ⊕= A21 ⊗ A12
    phases(r1.clone(), depth - 1, out);
    out.extend([summa(&r1, &r1, &r2), summa(&r2, &r1, &r1), summa(&r2, &r1, &r2)]);
    // APSP(A22); A12 ← A12 ⊗ A22; A21 ← A22 ⊗ A21; A11 ⊕= A12 ⊗ A21
    phases(r2.clone(), depth - 1, out);
    out.extend([summa(&r1, &r2, &r2), summa(&r2, &r2, &r1), summa(&r1, &r2, &r1)]);
}

/// Writes grid rank `(row, col)`'s ops for `phase` into `plan` and returns
/// the phase's span. `seq` numbers the SUMMA sweeps and base-case pivots
/// run so far, which the tags carry.
pub(crate) fn phase_plan(
    geo: &Cyclic,
    phase: &Phase,
    (row, col): (usize, usize),
    seq: &mut u64,
    plan: &mut Plan,
) -> (&'static str, u64) {
    use Buf::{Got, Own, Snap};
    let ng = geo.ng;
    let row_group = || (0..ng).map(move |c| geo.rank_of((row, c)));
    let col_group = || (0..ng).map(move |r| geo.rank_of((r, col)));
    plan.clear();
    match *phase {
        Phase::Summa { ref rr, ref kk, ref cc } => {
            *seq += 1;
            let s = *seq as usize;
            let (rows, cols) = (geo.owned_in(rr, row), geo.owned_in(cc, col));
            // A's tiles in processor column `step`, B's in processor row `step`
            let a = |step| {
                let ks = geo.owned_in(kk, step);
                rows.clone().flat_map(move |i| ks.clone().map(move |k| (i, k)))
            };
            let b = |step| {
                let cols = cols.clone();
                geo.owned_in(kk, step).flat_map(move |k| cols.clone().map(move |j| (k, j)))
            };
            // the operand tiles this rank sends, copied before the sweep
            // updates any tile (its output may alias an operand)
            let mine = a(col).chain(b(row));
            let snaps = plan.list(mine.map(|(i, j)| Snap(i, j)));
            plan.ops.push(Op::Snapshot(snaps));
            for step in 0..ng {
                let a_root = geo.rank_of((row, step));
                let a_tiles = a(step).map(|(i, k)| Snap(i, k));
                plan.broadcast(row_group(), a_root, tag(1, s, step), a_tiles, true);
                let b_root = geo.rank_of((step, col));
                let b_tiles = b(step).map(|(k, j)| Snap(k, j));
                plan.broadcast(col_group(), b_root, tag(2, s, step), b_tiles, true);
                for (i, k) in a(step) {
                    for j in cols.clone() {
                        plan.ops.push(Op::Gemm { out: Own(i, j), a: Got(i, k), b: Got(k, j) });
                    }
                }
                plan.ops.extend(a(step).map(|(i, k)| Op::Release(Got(i, k))));
                plan.ops.extend(b(step).map(|(k, j)| Op::Release(Got(k, j))));
            }
            ("summa", *seq)
        }
        Phase::BaseFw(ref range) => {
            let (rows, cols) = (geo.owned_in(range, row), geo.owned_in(range, col));
            for k in range.clone() {
                *seq += 1;
                let s = *seq as usize;
                let pivot = k % ng;
                let pivot_rank = geo.rank_of((pivot, pivot));
                if (row, col) == (pivot, pivot) {
                    plan.ops.push(Op::Close(Own(k, k)));
                }
                // the closed pivot goes down its processor column, where
                // the column panel updates against it, then along its row
                if col == pivot {
                    plan.broadcast(col_group(), pivot_rank, tag(3, s, k), [Own(k, k)], true);
                    let update = |i| Op::Gemm { out: Own(i, k), a: Own(i, k), b: Got(k, k) };
                    plan.ops.extend(rows.clone().filter(|&i| i != k).map(update));
                    plan.ops.push(Op::Release(Got(k, k)));
                }
                if row == pivot {
                    plan.broadcast(row_group(), pivot_rank, tag(4, s, k), [Own(k, k)], true);
                    let update = |j| Op::Gemm { out: Own(k, j), a: Got(k, k), b: Own(k, j) };
                    plan.ops.extend(cols.clone().filter(|&j| j != k).map(update));
                    plan.ops.push(Op::Release(Got(k, k)));
                }
                // column panel tiles along the rows, row panel tiles down
                // the columns; their product updates every tile off the
                // pivot's row and column
                let a_tiles = rows.clone().map(|i| Own(i, k));
                plan.broadcast(row_group(), geo.rank_of((row, pivot)), tag(5, s, k), a_tiles, true);
                let b_tiles = cols.clone().map(|j| Own(k, j));
                plan.broadcast(col_group(), geo.rank_of((pivot, col)), tag(6, s, k), b_tiles, true);
                for i in rows.clone().filter(|&i| i != k) {
                    for j in cols.clone().filter(|&j| j != k) {
                        plan.ops.push(Op::Gemm { out: Own(i, j), a: Got(i, k), b: Got(k, j) });
                    }
                }
                plan.ops.extend(rows.clone().map(|i| Op::Release(Got(i, k))));
                plan.ops.extend(cols.clone().map(|j| Op::Release(Got(k, j))));
            }
            ("base-fw", range.start as u64)
        }
    }
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
    ///
    /// # Panics
    /// When [`tile_count`] rejects `(g.n(), n_grid, depth)`.
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
    ///
    /// # Panics
    /// When [`tile_count`] rejects `(g.n(), n_grid, oversub)`.
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
    /// recursion over them, one checkpointed phase per SUMMA sweep and base
    /// case. Skipping a phase is SPMD-uniform (every rank shares the
    /// boundary counter), so the `seq`-derived tags stay consistent across
    /// ranks.
    fn rank_program<C: Transport>(&self, comm: &mut C) -> Vec<MinPlusMatrix> {
        let geo = self.geo;
        let me = geo.coords(comm.rank());
        let mut bufs = geo.tiles_of(me, self.g);
        let own = bufs.len();
        comm.alloc(bufs.iter().map(|(_, m)| m.words()).sum());
        let (mut plan, mut seq, sizes, mut all) = (Plan::default(), 0, geo.sizes(), Vec::new());
        phases(0..geo.tiles, self.rec_depth, &mut all);
        for phase in &all {
            if comm.phase_live() {
                let (name, tag) = phase_plan(&geo, phase, me, &mut seq, &mut plan);
                let mut span = comm.span(name, tag);
                execute(&mut *span, &plan.ops, &plan, &sizes, &mut bufs);
            }
            debug_assert_eq!(bufs.len(), own, "a phase ended holding buffers");
            let mut packed = Vec::with_capacity(own * geo.ts * geo.ts);
            for (_, tile) in &bufs {
                packed.extend_from_slice(tile.as_slice());
            }
            let state = comm.commit_phase(packed);
            for ((_, tile), chunk) in bufs.iter_mut().zip(state.chunks_exact(geo.ts * geo.ts)) {
                *tile = MinPlusMatrix::from_raw(geo.ts, geo.ts, chunk.to_vec());
            }
        }
        bufs.into_iter().map(|(_, tile)| tile).collect()
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
    fn tile_count_bounds_the_recursion_by_the_input() {
        assert_eq!(tile_count(10, 3, 1), Some(6), "padding_does_not_leak's 6 tiles");
        assert_eq!(tile_count(4, 3, 2), Some(12), "2^depth = n is legal");
        assert_eq!(tile_count(2, 3, 0), Some(3), "no recursion is legal for any n");
        assert_eq!(tile_count(0, 1, 0), Some(1));
        assert_eq!(tile_count(4, 3, 3), None, "8 tiles per processor row on 4 vertices");
        assert_eq!(tile_count(100, 7, 40), None, "2^40 tiles per processor row");
        assert_eq!(tile_count(10, 0, 0), None, "an empty grid");
        assert_eq!(tile_count(usize::MAX, 1, 64), None, "2^64 overflows");
        assert_eq!(tile_count(usize::MAX, usize::MAX, 1), None, "n_grid·2 overflows");
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
