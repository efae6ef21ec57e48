//! Distributed batched distance updates — the incremental-use regime that
//! motivates FW-structured APSP over re-running per-source searches.
//!
//! Given a solved distributed distance matrix (blocks on the `√p × √p`
//! grid) and a batch of **decreased** edge weights, each edge `(u, v, w′)`
//! relaxes every entry through itself:
//!
//! ```text
//! D'(x, y) = min(D(x, y), D(x, u) + w' + D(v, y), D(x, v) + w' + D(u, y))
//! ```
//!
//! The edges apply one after another, each against the distances the ones
//! before it left, so a batch whose edges form a new shortcut path is
//! still exact. (Weight *increases* invalidate paths and need a re-solve;
//! decrease-only is the standard incremental direction.)
//!
//! Block `(i, j)` needs, per edge, the columns of `u` and `v` over its rows
//! and the rows of `v` and `u` over its columns. The batch gathers them in
//! two collectives, whatever its size `k`:
//!
//! 1. an all-reduce along each block row collects the `2k` endpoint
//!    columns over that row's vertices (slot `2e` is edge `e`'s `u`, slot
//!    `2e + 1` its `v`): the rank whose block column holds an endpoint
//!    contributes its column, every other rank `+∞`, and the `min` combine
//!    selects the one real value exactly;
//! 2. an all-reduce down each block column collects the `2k` endpoint rows
//!    over that column's vertices, plus the `2k × 2k` endpoint-to-endpoint
//!    matrix `E`, whose rows the rank holding the endpoint's block row
//!    copies from its columns.
//!
//! Every rank then replays the batch edge by edge: it reads the edge's
//! operands from the strips, relaxes its block with them, and relaxes the
//! strips and `E` with them too, so that they hold the distances the next
//! edge reads. Every entry sees the same operands in the same order as
//! under a per-edge broadcast of the block grid's own columns and rows, so
//! the result is the same bits.
//!
//! With `q = √p`, a batch costs `4⌈log₂ q⌉` critical-path latency,
//! `4q(q − 1)` messages and `8k(q − 1)n + 8k²q(q − 1)` words: the buffers
//! have a fixed size, so the counts depend only on the layout and `k`.
//! Latency does not grow with `k`; critical-path bandwidth is
//! `O(k·n·log p/√p + k²·log p)`. E16 in `EXPERIMENTS.md` sets both against
//! a re-solve.

use crate::launch::{launch_plain, Solver};
use crate::supernodal::SupernodalLayout;
use apsp_minplus::{relax_row, MinPlusMatrix, INF};
use apsp_simnet::RunReport;
use apsp_transport::Transport;

/// One decreased edge, in *eliminated* vertex numbering.
#[derive(Clone, Copy, Debug)]
pub struct DecreasedEdge {
    /// One endpoint (eliminated-order index).
    pub u: usize,
    /// Other endpoint.
    pub v: usize,
    /// The new, smaller weight.
    pub new_weight: f64,
}

/// Result of a batched update run.
pub struct UpdateResult {
    /// Each rank's updated block, in the layout of the input blocks.
    pub blocks: Vec<MinPlusMatrix>,
    /// Measured cost of the update alone.
    pub report: RunReport,
}

fn tag(phase: u64, group: usize) -> u64 {
    0x0BDA_0000_0000 | (phase << 16) | group as u64
}

/// A batched decrease as a [`Solver`]: each rank relaxes every batch edge
/// against its block of a solved distributed distance matrix. `blocks`
/// holds each rank's block (eliminated order, row-major by rank, as
/// produced by `sparse2d`); edges use eliminated vertex indices and must
/// not create negative cycles (weights stay ≥ 0).
pub struct Decreases<'a> {
    layout: &'a SupernodalLayout,
    blocks: &'a [MinPlusMatrix],
    batch: &'a [DecreasedEdge],
}

impl<'a> Decreases<'a> {
    /// The update of `blocks` by `batch`.
    pub fn new(
        layout: &'a SupernodalLayout,
        blocks: &'a [MinPlusMatrix],
        batch: &'a [DecreasedEdge],
    ) -> Self {
        assert_eq!(blocks.len(), layout.p(), "one block per rank");
        for e in batch {
            assert!(e.new_weight >= 0.0, "negative weights form negative cycles");
            assert!(e.u < layout.n() && e.v < layout.n(), "endpoint out of range");
            assert_ne!(e.u, e.v, "self loops carry no distance information");
        }
        Decreases { layout, blocks, batch }
    }
}

impl Solver for Decreases<'_> {
    type Out = MinPlusMatrix;
    type Result = UpdateResult;
    const PHASE: &'static str = "update-decreases";

    fn p(&self) -> usize {
        self.layout.p()
    }

    fn rank_program<C: Transport>(&self, comm: &mut C) -> MinPlusMatrix {
        rank_program(comm, self.layout, self.blocks, self.batch)
    }

    fn assemble(&self, blocks: Vec<MinPlusMatrix>, report: RunReport) -> UpdateResult {
        UpdateResult { blocks, report }
    }
}

/// The per-rank program: gather the batch's endpoint strips in two
/// all-reduces, then replay the batch edge by edge on the block, the strips
/// and `E`.
fn rank_program<C: Transport>(
    comm: &mut C,
    layout: &SupernodalLayout,
    blocks_in: &[MinPlusMatrix],
    batch: &[DecreasedEdge],
) -> MinPlusMatrix {
    let (bi, bj) = layout.block_of_rank(comm.rank());
    let q = layout.n_super();
    let mut block = blocks_in[comm.rank()].clone();
    let (rows, cols) = (block.rows(), block.cols());
    comm.alloc(block.words());

    // (supernode, offset) of every slot: 2e is edge e's u, 2e + 1 its v
    let slots: Vec<(usize, usize)> =
        batch.iter().flat_map(|e| [e.u, e.v]).map(|x| layout.locate(x)).collect();
    let s = slots.len();

    // 1. column strip t (`rows` words) is D(x, slot t) for this block row's x
    let row_group: Vec<usize> = (1..=q).map(|j| layout.rank_of_block(bi, j)).collect();
    let mut mine = vec![INF; s * rows];
    for (t, &(k, o)) in slots.iter().enumerate() {
        if k == bj {
            for (r, d) in mine[t * rows..(t + 1) * rows].iter_mut().enumerate() {
                *d = block.get(r, o);
            }
        }
    }
    comm.alloc(mine.len());
    let mut col_strips = comm.allreduce_min(&row_group, tag(1, bi), mine);

    // 2. row strip t (`cols` words) is D(slot t, y) for this block column's
    // y; after the `s` row strips, E(t, t') = D(slot t, slot t')
    let col_group: Vec<usize> = (1..=q).map(|i| layout.rank_of_block(i, bj)).collect();
    let mut mine = vec![INF; s * cols + s * s];
    for (t, &(k, o)) in slots.iter().enumerate() {
        if k == bi {
            mine[t * cols..(t + 1) * cols].copy_from_slice(block.row(o));
            let e_row = &mut mine[s * cols + t * s..s * cols + (t + 1) * s];
            for (t2, d) in e_row.iter_mut().enumerate() {
                *d = col_strips[t2 * rows + o];
            }
        }
    }
    comm.alloc(mine.len());
    let mut gathered = comm.allreduce_min(&col_group, tag(2, bj), mine);
    let (row_strips, e) = gathered.split_at_mut(s * cols);

    for (e_idx, edge) in batch.iter().enumerate() {
        let (su, sv) = (2 * e_idx, 2 * e_idx + 1);
        let w = edge.new_weight;
        // the edge's operands as they stand before it
        let through = |slot: usize| -> Vec<f64> {
            col_strips[slot * rows..(slot + 1) * rows].iter().map(|&d| d + w).collect()
        };
        let (through_u, through_v) = (through(su), through(sv));
        let row_u = row_strips[su * cols..(su + 1) * cols].to_vec();
        let row_v = row_strips[sv * cols..(sv + 1) * cols].to_vec();
        let e_u = e[su * s..(su + 1) * s].to_vec();
        let e_v = e[sv * s..(sv + 1) * s].to_vec();
        let scratch = 2 * (rows + cols + s);
        comm.alloc(scratch);

        let buf = block.as_mut_slice();
        for r in 0..rows {
            let row = &mut buf[r * cols..(r + 1) * cols];
            relax_row(row, through_u[r], &row_v);
            relax_row(row, through_v[r], &row_u);
        }
        // entry x of column strip t: D(x, u) + w′ + D(v, slot t), then
        // through v (addition commutes bit for bit)
        for t in 0..s {
            let strip = &mut col_strips[t * rows..(t + 1) * rows];
            relax_row(strip, e_v[t], &through_u);
            relax_row(strip, e_u[t], &through_v);
        }
        // row strip t through D(slot t, u) + w′: read from E, which is
        // relaxed last so that it still holds the pre-edge value here
        for t in 0..s {
            let strip = &mut row_strips[t * cols..(t + 1) * cols];
            relax_row(strip, e[t * s + su] + w, &row_v);
            relax_row(strip, e[t * s + sv] + w, &row_u);
        }
        for t in 0..s {
            let e_row = &mut e[t * s..(t + 1) * s];
            let (via_u, via_v) = (e_row[su] + w, e_row[sv] + w);
            relax_row(e_row, via_u, &e_v);
            relax_row(e_row, via_v, &e_u);
        }
        comm.compute(2 * (rows * cols + s * (rows + cols) + s * s) as u64);
        comm.release(scratch);
    }

    comm.release(col_strips.len() + gathered.len());
    block
}

/// Applies a batch of decreased edges to a solved distributed distance
/// matrix on the simulated machine ([`Decreases`] under the default
/// [`crate::launch::LaunchSpec`]).
pub fn apply_decreases(
    layout: &SupernodalLayout,
    blocks: &[MinPlusMatrix],
    batch: &[DecreasedEdge],
) -> UpdateResult {
    launch_plain(&Decreases::new(layout, blocks, batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse2d::{sparse2d, R4Strategy};
    use apsp_graph::generators::{self, WeightKind};
    use apsp_graph::{oracle, Csr, DenseDist};
    use apsp_partition::grid_nd;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A solved `side × side` mesh (or a subgraph of one), ready to be
    /// updated.
    struct Solved {
        g: Csr,
        nd: apsp_partition::NdOrdering,
        layout: SupernodalLayout,
        dist_eliminated: DenseDist,
        /// each rank's block, as the solve left it
        blocks: Vec<MinPlusMatrix>,
        report: RunReport,
    }

    fn solve(g: Csr, side: usize, h: u32) -> Solved {
        let nd = grid_nd(side, side, h);
        let layout = SupernodalLayout::from_ordering(&nd);
        let solved = sparse2d(&layout, &g.permuted(&nd.perm), R4Strategy::OneToOne);
        let dist_eliminated = layout.assemble_dense(&solved.blocks);
        Solved { g, nd, layout, dist_eliminated, blocks: solved.blocks, report: solved.report }
    }

    /// Cuts a dense matrix (eliminated ordering) into `layout`'s blocks, in
    /// rank order: the inverse of [`SupernodalLayout::assemble_dense`].
    fn split_dense(layout: &SupernodalLayout, dense: &DenseDist) -> Vec<MinPlusMatrix> {
        (0..layout.p())
            .map(|rank| {
                let (i, j) = layout.block_of_rank(rank);
                let (ri, rj) = (layout.range(i), layout.range(j));
                MinPlusMatrix::from_fn(ri.len(), rj.len(), |r, c| {
                    dense.get(ri.start + r, rj.start + c)
                })
            })
            .collect()
    }

    fn solve_mesh(side: usize, h: u32, weights: WeightKind) -> Solved {
        solve(generators::grid2d(side, side, weights, 3), side, h)
    }

    /// The batch in eliminated coordinates.
    fn batch_of(
        nd: &apsp_partition::NdOrdering,
        decreases: &[(usize, usize, f64)],
    ) -> Vec<DecreasedEdge> {
        decreases
            .iter()
            .map(|&(u, v, w)| DecreasedEdge {
                u: nd.perm.to_new(u),
                v: nd.perm.to_new(v),
                new_weight: w,
            })
            .collect()
    }

    /// Solve, decrease some edges, update, and check against a re-solved
    /// oracle on the modified graph.
    fn check(side: usize, h: u32, decreases: &[(usize, usize, f64)]) -> (RunReport, RunReport) {
        let s = solve_mesh(side, h, WeightKind::Integer { max: 9 });
        // the modified graph (builder keeps the minimum)
        let mut b = apsp_graph::GraphBuilder::new(s.g.n());
        for (u, v, w) in s.g.edges().chain(decreases.iter().copied()) {
            b.add_edge(u, v, w);
        }
        let modified = b.build();

        let updated = apply_decreases(&s.layout, &s.blocks, &batch_of(&s.nd, decreases));
        let dist =
            SupernodalLayout::unpermute(&s.layout.assemble_dense(&updated.blocks), &s.nd.perm);
        let reference = oracle::apsp_dijkstra(&modified);
        if let Some((i, j, a, bb)) = dist.first_mismatch(&reference, 1e-9) {
            panic!("mismatch at ({i},{j}): got {a}, expected {bb}");
        }
        (updated.report, s.report)
    }

    /// The relaxation as it stood before `relax_row` — the `get`/`set`
    /// double loop with a conditional store — on the whole matrix at once.
    fn old_get_set_loop(d: &mut DenseDist, batch: &[DecreasedEdge]) {
        let n = d.n();
        for edge in batch {
            let col_u: Vec<f64> = (0..n).map(|r| d.get(r, edge.u)).collect();
            let row_v: Vec<f64> = (0..n).map(|c| d.get(edge.v, c)).collect();
            let col_v: Vec<f64> = (0..n).map(|r| d.get(r, edge.v)).collect();
            let row_u: Vec<f64> = (0..n).map(|c| d.get(edge.u, c)).collect();
            let w = edge.new_weight;
            for r in 0..n {
                let through_u = col_u[r] + w;
                let through_v = col_v[r] + w;
                for c in 0..n {
                    let cand = (through_u + row_v[c]).min(through_v + row_u[c]);
                    if cand < d.get(r, c) {
                        d.set(r, c, cand);
                    }
                }
            }
        }
    }

    fn bits(d: &DenseDist) -> Vec<u64> {
        d.as_slice().iter().map(|w| w.to_bits()).collect()
    }

    /// Applies `batch` to `dense` cut into `layout`'s blocks and asserts
    /// the reassembled result is, bit for bit, the old loop's on the whole
    /// matrix.
    fn assert_matches_old_loop(
        layout: &SupernodalLayout,
        dense: &DenseDist,
        batch: &[DecreasedEdge],
        what: &str,
    ) -> RunReport {
        let mut want = dense.clone();
        old_get_set_loop(&mut want, batch);
        let got = apply_decreases(layout, &split_dense(layout, dense), batch);
        assert_eq!(bits(&layout.assemble_dense(&got.blocks)), bits(&want), "{what}");
        got.report
    }

    /// The whole matrix on one rank.
    fn one_rank(n: usize) -> SupernodalLayout {
        SupernodalLayout::new(apsp_etree::SchedTree::new(1), vec![n])
    }

    #[test]
    fn float_weight_updates_match_the_old_loop_bit_for_bit() {
        // sums of float weights round, so an order or a tie handled
        // differently would show in the low bits; the batch compounds
        // (0→77 then 77→143) and repeats an edge at a lower weight
        let decreases = [
            (0, 143, 4.25),
            (0, 77, 0.3),
            (77, 143, 0.7),
            (11, 132, 1.0 / 3.0),
            (0, 143, 0.0),
            (5, 6, 1e3),
        ];
        for h in [2, 3] {
            let s = solve_mesh(12, h, WeightKind::Uniform { lo: 1.0, hi: 10.0 });
            let batch = batch_of(&s.nd, &decreases);
            let mut changed = s.dist_eliminated.clone();
            old_get_set_loop(&mut changed, &batch);
            assert!(bits(&changed) != bits(&s.dist_eliminated), "h={h}: the batch changed nothing");
            assert_matches_old_loop(&s.layout, &s.dist_eliminated, &batch, &format!("h={h}"));
            // on one rank the compute clock is the op count: two
            // relaxations per entry of the block, the 2k column and 2k row
            // strips and E, per edge
            let report = assert_matches_old_loop(
                &one_rank(144),
                &s.dist_eliminated,
                &batch,
                &format!("h={h}, one rank"),
            );
            let (n, k) = (144, batch.len());
            assert_eq!(
                report.critical_compute(),
                (2 * k * (n * n + 2 * k * (2 * n + 2 * k))) as u64
            );
        }
    }

    /// A seeded batch of `k` edges over `layout`'s vertices. Edge `i` takes
    /// shape `(i + seed) mod 6`: uniform endpoints; an endpoint shared with
    /// edge 0; an earlier edge again at half its weight; both endpoints in
    /// one supernode; an endpoint in the top separator; weight zero.
    fn random_batch(layout: &SupernodalLayout, k: usize, seed: u64) -> Vec<DecreasedEdge> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = layout.n();
        let top = layout.range(layout.n_super());
        let mut batch: Vec<DecreasedEdge> = Vec::with_capacity(k);
        for i in 0..k {
            let mut u = rng.random_range(0..n);
            let mut v = rng.random_range(0..n);
            let mut new_weight: f64 = rng.random_range(0.1..6.0);
            match (i + seed as usize) % 6 {
                1 if i > 0 => u = batch[0].u,
                2 if i > 0 => {
                    let earlier = batch[rng.random_range(0..i)];
                    (u, v, new_weight) = (earlier.u, earlier.v, earlier.new_weight / 2.0);
                }
                3 => {
                    let wide: Vec<usize> =
                        (1..=layout.n_super()).filter(|&sn| layout.size(sn) >= 2).collect();
                    let range = layout.range(wide[rng.random_range(0..wide.len())]);
                    let a = rng.random_range(0..range.len());
                    let b = (a + rng.random_range(1..range.len())) % range.len();
                    (u, v) = (range.start + a, range.start + b);
                }
                4 if !top.is_empty() => u = rng.random_range(top.clone()),
                5 => new_weight = 0.0,
                _ => {}
            }
            if u == v {
                v = (v + 1) % n;
            }
            batch.push(DecreasedEdge { u, v, new_weight });
        }
        batch
    }

    #[test]
    fn random_batches_match_the_old_loop_bit_for_bit() {
        let side = 12;
        let mesh = generators::grid2d(side, side, WeightKind::Uniform { lo: 1.0, hi: 10.0 }, 3);
        // no edge joins the left half to the right: genuine ∞ distances
        // meet the all-reduces' +∞ padding (until a batch edge bridges them)
        let mut halves = apsp_graph::GraphBuilder::new(mesh.n());
        for (u, v, w) in mesh.edges() {
            if (u % side < side / 2) == (v % side < side / 2) {
                halves.add_edge(u, v, w);
            }
        }
        for (name, g) in [("mesh", mesh.clone()), ("split mesh", halves.build())] {
            let (h2, h3) = (solve(g.clone(), side, 2), solve(g, side, 3));
            assert_eq!(
                h2.dist_eliminated.as_slice().iter().any(|d| d.is_infinite()),
                name == "split mesh"
            );
            let whole = one_rank(side * side);
            for (layout, dense) in [
                (&whole, &h2.dist_eliminated),
                (&h2.layout, &h2.dist_eliminated),
                (&h3.layout, &h3.dist_eliminated),
            ] {
                for k in [1, 2, 8, 16] {
                    for seed in 0..3 {
                        let batch = random_batch(layout, k, seed);
                        let what = format!("{name}, p={}, k={k}, seed {seed}", layout.p());
                        assert_matches_old_loop(layout, dense, &batch, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn single_shortcut_edge() {
        // a diagonal shortcut across the mesh
        check(8, 2, &[(0, 63, 1.0)]);
    }

    #[test]
    fn batch_of_three_edges() {
        check(8, 3, &[(0, 63, 2.0), (7, 56, 1.0), (27, 36, 0.5)]);
    }

    #[test]
    fn chained_batch_forms_a_new_path() {
        // two edges that only help *together*: 0→30 and 30→63
        check(8, 2, &[(0, 30, 0.5), (30, 63, 0.5)]);
    }

    #[test]
    fn no_op_decrease_changes_nothing() {
        // "decreasing" to a weight larger than current distances is a no-op
        let (update_report, _) = check(6, 2, &[(0, 35, 1000.0)]);
        assert!(update_report.total_messages() > 0, "the all-reduces still run");
    }

    #[test]
    fn update_is_much_cheaper_than_resolve() {
        let (update_report, solve_report) = check(12, 3, &[(0, 143, 1.0)]);
        assert!(
            update_report.critical_bandwidth() * 2 < solve_report.critical_bandwidth(),
            "update {} vs solve {}",
            update_report.critical_bandwidth(),
            solve_report.critical_bandwidth()
        );
        assert!(update_report.critical_latency() < solve_report.critical_latency());
    }

    #[test]
    fn zero_weight_decrease() {
        check(6, 2, &[(0, 1, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "negative weights")]
    fn negative_decrease_rejected() {
        let layout = one_rank(2);
        let blocks = vec![MinPlusMatrix::identity(2)];
        let _ =
            apply_decreases(&layout, &blocks, &[DecreasedEdge { u: 0, v: 1, new_weight: -1.0 }]);
    }
}
