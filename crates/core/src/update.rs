//! Distributed batched distance updates — the incremental-use regime that
//! motivates FW-structured APSP over re-running per-source searches.
//!
//! Given a solved distributed distance matrix (blocks on the `√p × √p`
//! grid) and a batch of **decreased** edge weights, the classic relaxation
//!
//! ```text
//! D'(x, y) = min(D(x, y), D(x, u) + w' + D(v, y), D(x, v) + w' + D(u, y))
//! ```
//!
//! needs, per changed edge `(u, v)`, the distance *column* of `u` and
//! *row* of `v` (and symmetrically). On the block layout those live in one
//! block column / row, so the update costs two broadcasts of
//! `O(n/√p)`-word vectors per edge — `O(k·log p)` latency and
//! `O(k·n·log p/√p)` bandwidth for a batch of `k` edges, versus a full
//! re-solve for the per-source baseline. (Weight *increases* invalidate
//! paths and need a re-solve; decrease-only is the standard incremental
//! direction.)
//!
//! Chained decreases within one batch are handled by processing the batch
//! edges sequentially (each edge's broadcast reads post-previous-edge
//! distances), so a batch whose edges form a new shortcut path is still
//! exact.

use crate::launch::{launch_plain, Solver};
use crate::supernodal::SupernodalLayout;
use apsp_graph::DenseDist;
use apsp_minplus::{relax_row, MinPlusMatrix};
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
    /// The updated distance matrix (eliminated ordering).
    pub dist_eliminated: DenseDist,
    /// Measured cost of the update alone.
    pub report: RunReport,
}

fn tag(edge_idx: usize, phase: u64, aux: usize) -> u64 {
    0x0BDA_0000_0000 | ((edge_idx as u64) << 20) | (phase << 16) | aux as u64
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
    type Out = Vec<f64>;
    type Result = UpdateResult;
    const PHASE: &'static str = "update-decreases";

    fn p(&self) -> usize {
        self.layout.p()
    }

    fn rank_program<C: Transport>(&self, comm: &mut C) -> Vec<f64> {
        rank_program(comm, self.layout, self.blocks, self.batch)
    }

    fn assemble(&self, out: Vec<Vec<f64>>, report: RunReport) -> UpdateResult {
        UpdateResult { dist_eliminated: self.layout.assemble_raw(out), report }
    }

    fn words(out: Vec<f64>) -> Vec<f64> {
        out
    }
}

/// The per-rank program: relax every batch edge against the local block.
fn rank_program<C: Transport>(
    comm: &mut C,
    layout: &SupernodalLayout,
    blocks_in: &[MinPlusMatrix],
    batch: &[DecreasedEdge],
) -> Vec<f64> {
    let (bi, bj) = layout.block_of_rank(comm.rank());
    let rank_of = |i: usize, j: usize| layout.rank_of_block(i, j);
    let n_super = layout.n_super();
    let mut block = blocks_in[comm.rank()].clone();
    comm.alloc(block.words());

    for (e_idx, edge) in batch.iter().enumerate() {
        // supernode and in-block offset of each endpoint
        let locate = |x: usize| {
            let mut k = 1;
            while layout.offset(k) + layout.size(k) <= x {
                k += 1;
            }
            (k, x - layout.offset(k))
        };
        let (su, ou) = locate(edge.u);
        let (sv, ov) = locate(edge.v);

        // Phase 1: block-column su broadcasts each rank's local column of u
        // along its row; block-row sv broadcasts each rank's local row of v
        // down its column. Every rank then knows D(x, u) for its block rows
        // x and D(v, y) for its block cols y.
        let row_group: Vec<usize> = (1..=n_super).map(|j| rank_of(bi, j)).collect();
        let col_u = {
            let root = rank_of(bi, su);
            let payload = (bj == su)
                .then(|| (0..block.rows()).map(|r| block.get(r, ou)).collect::<Vec<f64>>());
            comm.bcast(&row_group, root, tag(e_idx, 1, bi), payload)
        };
        let col_group: Vec<usize> = (1..=n_super).map(|i| rank_of(i, bj)).collect();
        let row_v = {
            let root = rank_of(sv, bj);
            let payload = (bi == sv)
                .then(|| (0..block.cols()).map(|c| block.get(ov, c)).collect::<Vec<f64>>());
            comm.bcast(&col_group, root, tag(e_idx, 2, bj), payload)
        };
        // the symmetric pair: column of v along rows, row of u down columns
        let col_v = {
            let root = rank_of(bi, sv);
            let payload = (bj == sv)
                .then(|| (0..block.rows()).map(|r| block.get(r, ov)).collect::<Vec<f64>>());
            comm.bcast(&row_group, root, tag(e_idx, 3, bi), payload)
        };
        let row_u = {
            let root = rank_of(su, bj);
            let payload = (bi == su)
                .then(|| (0..block.cols()).map(|c| block.get(ou, c)).collect::<Vec<f64>>());
            comm.bcast(&col_group, root, tag(e_idx, 4, bj), payload)
        };
        comm.alloc(col_u.len() + row_v.len() + col_v.len() + row_u.len());

        // Phase 2: local relaxation through the decreased edge
        let w = edge.new_weight;
        let (rows, cols) = (block.rows(), block.cols());
        let buf = block.as_mut_slice();
        for r in 0..rows {
            let row = &mut buf[r * cols..(r + 1) * cols];
            relax_row(row, col_u[r] + w, &row_v);
            relax_row(row, col_v[r] + w, &row_u);
        }
        comm.compute(2 * (rows * cols) as u64);
        comm.release(col_u.len() + row_v.len() + col_v.len() + row_u.len());
    }

    block.into_vec()
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
    use apsp_graph::oracle;
    use apsp_partition::grid_nd;

    /// A solved `side × side` mesh, ready to be updated.
    struct Solved {
        g: apsp_graph::Csr,
        nd: apsp_partition::NdOrdering,
        layout: SupernodalLayout,
        dist_eliminated: DenseDist,
        /// each rank's block, recovered from the solved dense matrix
        blocks: Vec<MinPlusMatrix>,
        report: RunReport,
    }

    fn solve_mesh(side: usize, h: u32, weights: WeightKind) -> Solved {
        let g = generators::grid2d(side, side, weights, 3);
        let nd = grid_nd(side, side, h);
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        let solved = sparse2d(&layout, &gp, R4Strategy::OneToOne);
        let blocks = (0..layout.p())
            .map(|rank| {
                let (i, j) = layout.block_of_rank(rank);
                let (ri, rj) = (layout.range(i), layout.range(j));
                MinPlusMatrix::from_fn(ri.len(), rj.len(), |r, c| {
                    solved.dist_eliminated.get(ri.start + r, rj.start + c)
                })
            })
            .collect();
        Solved {
            g,
            nd,
            layout,
            dist_eliminated: solved.dist_eliminated,
            blocks,
            report: solved.report,
        }
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
        let dist = SupernodalLayout::unpermute(&updated.dist_eliminated, &s.nd.perm);
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
            let mut want = s.dist_eliminated.clone();
            old_get_set_loop(&mut want, &batch);
            let got = apply_decreases(&s.layout, &s.blocks, &batch);
            let bits = |d: &DenseDist| d.as_slice().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert!(bits(&want) != bits(&s.dist_eliminated), "h={h}: the batch changed nothing");
            assert_eq!(bits(&got.dist_eliminated), bits(&want), "h={h}");
            // on one rank the compute clock is the op count: still two
            // relaxations per entry per edge
            let one_rank = SupernodalLayout::new(apsp_etree::SchedTree::new(1), vec![144]);
            let whole = MinPlusMatrix::from_raw(144, 144, s.dist_eliminated.as_slice().to_vec());
            let got = apply_decreases(&one_rank, &[whole], &batch);
            assert_eq!(bits(&got.dist_eliminated), bits(&want), "h={h}, one rank");
            assert_eq!(got.report.critical_compute(), (2 * 144 * 144 * batch.len()) as u64);
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
        assert!(update_report.total_messages() > 0, "broadcasts still happen");
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
        let layout = SupernodalLayout::new(apsp_etree::SchedTree::new(1), vec![2]);
        let blocks = vec![MinPlusMatrix::identity(2)];
        let _ =
            apply_decreases(&layout, &blocks, &[DecreasedEdge { u: 0, v: 1, new_weight: -1.0 }]);
    }
}
