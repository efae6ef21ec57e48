//! **2D-SPARSE-APSP (Algorithm 1)** — the paper's communication-avoiding
//! distributed sparse APSP.
//!
//! The `√p × √p` grid assigns block `A(i, j)` to processor `P_{i,j}`
//! (block layout, §5.1). Supernodes are eliminated level by level, and the
//! elimination of level `l` updates the four regions of §5.2 in order:
//!
//! 1. `R¹` — every pivot `P_{k,k}` closes `A(k,k)` locally (no messages);
//! 2. `R²` — `P_{k,k}` broadcasts the closed pivot down its column and row;
//!    panels update;
//! 3. `R³` — panels broadcast along their rows, then columns; each single-
//!    unit block applies `A(i,j) ⊕= A(i,k) ⊗ A(k,j)`;
//! 4. `R⁴` — the ancestor × ancestor blocks. With
//!    [`R4Strategy::OneToOne`], every computing unit runs on its own
//!    processor `P_{f,g}` (Corollary 5.5): panels broadcast to the workers,
//!    workers multiply in parallel, and per-block min-plus reductions
//!    deliver the results to `P_{i,j}`, which finally mirrors to
//!    `P_{j,i}`. With [`R4Strategy::SequentialUnits`] (the §5.2.2 "trivial
//!    strategy" ablation), `P_{i,j}` instead receives all `2q` panel
//!    messages itself and multiplies sequentially.
//!
//! The run captures **per-level critical-path clocks**, so the per-level
//! lemmas are directly measurable: Lemma 5.6 (`L_l = O(log p)`) and
//! Lemmas 5.8/5.9 (`B_1` carries the `n²log p/p` term, `B_l` for `l ≥ 2`
//! only separator-sized terms).
//!
//! [`Input::Directed`] runs the same schedule on **directed** inputs
//! (asymmetric weights over a symmetric pattern): `R¹–R³` are already
//! orientation-correct; `R⁴` swaps the transpose mirror for dual-
//! orientation computing units on the same Corollary 5.5 workers (see
//! `docs/ALGORITHM.md`).
//!
//! ## The level plan
//!
//! Each level is one checkpointed phase whose schedule is data:
//! `level_plan` writes the rank's ops for `R¹`–`R⁴` into a `Plan` and
//! [`crate::plan`]'s `execute` runs them region by region. `R⁴` has one
//! one-to-one generator for both orientations (a directed worker adds its
//! unit's second orientation; an undirected upper block adds the transpose
//! mirror) and one for `SequentialUnits`.
//!
//! ## Deadlock discipline
//!
//! Regions, and the phases inside them, run in a fixed global order.
//! Within a phase, either every rank belongs to at most one communication
//! group (R², R³ — groups are pairwise disjoint), or ranks hold at most
//! three roles and execute them sorted by the block each role moves, a
//! key shared by all participants (R⁴). Message edges therefore never
//! point backwards in (phase, key) order and the wait-for graph is
//! acyclic. Because the plan is a value, `plan`'s test
//! `sparse2d_plans_pair_up_and_agree_on_order` checks exactly this for
//! every rank of machines up to `p = 3 969` without starting a thread.

use crate::launch::{launch_plain, Solver};
use crate::plan::{execute, Buf, Op, Plan};
use crate::supernodal::SupernodalLayout;
use apsp_etree::{mapping, SchedTree};
use apsp_graph::{Csr, DiCsr};
use apsp_minplus::MinPlusMatrix;
use apsp_simnet::{Clocks, RunReport};
use apsp_transport::Transport;

/// How the `R⁴` computing units are scheduled (§5.2.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum R4Strategy {
    /// Corollary 5.5: one unit per processor, parallel multiply, tree
    /// reduction — `O(log p)` latency per level.
    #[default]
    OneToOne,
    /// The SuperLU_DIST-style trivial strategy: `P_{i,j}` receives `2q`
    /// messages and multiplies sequentially — `O(2^{h−l})` latency.
    SequentialUnits,
}

/// Result of a distributed run: final blocks in eliminated order plus the
/// measured communication report.
pub struct Sparse2dResult {
    /// Every rank's final block `A(i, j)`, in rank order: the distances in
    /// the *eliminated* ordering, block by block as Algorithm 1 left them
    /// ([`SupernodalLayout::assemble_dense`] makes the matrix of them).
    pub blocks: Vec<MinPlusMatrix>,
    /// Per-rank and critical-path costs.
    pub report: RunReport,
    /// Critical-path clocks *after each level* (cumulative, one entry per
    /// level `1..=h`): the maximum over ranks of the bill at each level's
    /// commit. Differences give the per-level costs of Lemmas 5.6/5.8/5.9.
    pub level_clocks: Vec<Clocks>,
}

impl Sparse2dResult {
    /// Per-level critical-path cost deltas `(latency, bandwidth)` —
    /// `L_l` and `B_l` in the paper's notation.
    pub fn level_costs(&self) -> Vec<(u64, u64)> {
        let before = std::iter::once(Clocks::default()).chain(self.level_clocks.iter().copied());
        (self.level_clocks.iter().zip(before))
            .map(|(c, b)| {
                let delta = |f: fn(&Clocks) -> u64| f(c).saturating_sub(f(&b));
                (delta(Clocks::latency), delta(Clocks::bandwidth))
            })
            .collect()
    }
}

/// Tag construction: phases are disambiguated so schedule bugs fail fast.
fn tag(l: u32, phase: u64, k: usize, aux: usize) -> u64 {
    ((l as u64) << 56) | (phase << 48) | ((k as u64) << 24) | aux as u64
}

/// `{k} ∪ 𝒜(k) ∪ 𝒟(k)` in ascending label order — which is ascending rank
/// order along a row or column of the grid (labels grow with the level).
fn rel_with_self(t: &SchedTree, k: usize) -> impl Iterator<Item = usize> + '_ {
    t.descendants(k).chain(std::iter::once(k)).chain(t.ancestors(k))
}

/// The unique level-`l` pivot `k` for which `(i, j)` is an `R³` block, if
/// any (§5.2.1 membership rule).
fn r3_pivot(t: &SchedTree, l: u32, i: usize, j: usize) -> Option<usize> {
    let (li, lj) = (t.level(i), t.level(j));
    if li == l || lj == l {
        return None; // pivot diagonal or panels — not R³
    }
    let ki = (li < l).then(|| t.ancestor_at(i, l));
    let kj = (lj < l).then(|| t.ancestor_at(j, l));
    match (ki, kj) {
        (Some(a), Some(b)) => (a == b).then_some(a),
        (Some(a), None) => t.related(j, a).then_some(a),
        (None, Some(b)) => t.related(i, b).then_some(b),
        (None, None) => None, // both above level l: R⁴ territory
    }
}

/// Is `(i, j)` an `R⁴` block at level `l` (both endpoints above `l`,
/// related)? With `upper`, only the orientation `level(i) ≤ level(j)`.
fn is_r4(t: &SchedTree, l: u32, i: usize, j: usize, upper: bool) -> bool {
    let (li, lj) = (t.level(i), t.level(j));
    li > l && lj > l && (!upper || li <= lj) && t.related(i, j)
}

/// `(x, y)` read along a row, `(y, x)` along a column.
fn along<T>(row: bool, x: T, y: T) -> (T, T) {
    if row {
        (x, y)
    } else {
        (y, x)
    }
}

/// The distinct `Some` keys in ascending order: a rank's roles in one
/// `R⁴` phase, each keyed by the block it moves.
fn roles<const N: usize>(
    mut keys: [Option<(usize, usize)>; N],
) -> impl Iterator<Item = (usize, usize)> {
    keys.sort_unstable();
    let mut last = None;
    keys.into_iter().flatten().filter(move |&key| last.replace(key) != Some(key))
}

/// Writes rank `(bi, bj)`'s schedule for level `l` into `plan`: `R¹`–`R³`,
/// then `R⁴` under `r4` when `l < h`. Returns where each region ends in
/// `plan.ops`. Ops run in this order on the rank; every rank of a
/// collective reaches it through the same (region, phase, key) order,
/// which is what keeps the wait-for graph acyclic (`docs/ALGORITHM.md`).
pub(crate) fn level_plan(
    layout: &SupernodalLayout,
    l: u32,
    (bi, bj): (usize, usize),
    directed: bool,
    r4: R4Strategy,
    plan: &mut Plan,
) -> [usize; 4] {
    use Buf::{Got, Own};
    let t = layout.tree();
    let rank = |(i, j): (usize, usize)| layout.rank_of_block(i, j);
    let (related, block) = (t.related(bi, bj), Own(bi, bj));
    plan.clear();

    // R¹: the diagonal pivot closes itself
    if bi == bj && t.level(bi) == l {
        plan.ops.push(Op::Close(block));
    }
    let r1 = plan.ops.len();

    // R²: pivot k broadcasts A(k,k)* down column k (phase 1), then along
    // row k (phase 2); the panels update against a snapshot of themselves
    for (phase, row) in [(1, false), (2, true)] {
        let (k, other) = along(row, bi, bj);
        if t.level(k) == l && related {
            let ranks = rel_with_self(t, k).map(|x| rank(along(row, k, x)));
            plan.broadcast(ranks, rank((k, k)), tag(l, phase, k, 0), [Own(k, k)], other != k);
            if other != k {
                let (a, b) = along(row, Got(k, k), block);
                plan.ops.extend([Op::Gemm { out: block, a, b }, Op::Release(Got(k, k))]);
            }
        }
    }
    let r2 = plan.ops.len();

    // R³: panel (i, k) broadcasts along row i (phase 3), then panel (k, j)
    // down column j (phase 4), to the blocks they update via pivot k
    let r3k = r3_pivot(t, l, bi, bj);
    for (phase, row) in [(3, true), (4, false)] {
        let (line, other) = along(row, bi, bj);
        let source = (t.level(other) == l && related && bi != bj).then_some(other);
        if let Some(k) = source.or(r3k) {
            // a panel below its pivot feeds every block related to k, one
            // above it only k's descendants (ancestor × ancestor is R⁴);
            // labels ascend, so those come first, then k — the root
            let below = t.level(line) < l;
            let ranks = rel_with_self(t, k)
                .take_while(|&x| below || x <= k)
                .map(|x| rank(along(row, line, x)));
            let (i, j) = along(row, line, k);
            plan.broadcast(ranks, rank((i, j)), tag(l, phase, k, line), [Own(i, j)], r3k.is_some());
        }
    }
    if let Some(k) = r3k {
        let (a, b) = (Got(bi, k), Got(k, bj));
        plan.ops.extend([Op::Gemm { out: block, a, b }, Op::Release(a), Op::Release(b)]);
    }
    let r3 = plan.ops.len();

    if l < t.height() {
        match r4 {
            R4Strategy::OneToOne => r4_one_to_one(layout, l, (bi, bj), directed, plan),
            R4Strategy::SequentialUnits => r4_sequential(layout, l, (bi, bj), directed, plan),
        }
        // K: an undirected upper block mirrors itself into its transpose
        if !directed && bi != bj {
            if is_r4(t, l, bi, bj, true) {
                plan.ops.push(Op::Send { to: rank((bj, bi)), tag: tag(l, 8, bi, bj), from: block });
            } else if is_r4(t, l, bj, bi, true) {
                let from = rank((bj, bi));
                plan.ops.push(Op::Mirror { from, tag: tag(l, 8, bj, bi), into: block });
            }
        }
    }
    [r1, r2, r3, plan.ops.len()]
}

/// Grid rows of the level-`l` workers whose unit reads a panel of
/// ancestor `x`: with `x` as the unit's lower-level endpoint (`lower`),
/// and with `x` as its upper one (`upper`).
fn unit_rows(
    t: &SchedTree,
    l: u32,
    x: usize,
    lower: bool,
    upper: bool,
) -> impl Iterator<Item = usize> + '_ {
    let (h, lx) = (t.height(), t.level(x));
    let as_lower = (lx..=h).filter(move |_| lower).map(move |c| mapping::unit_row(t, l, lx, c));
    let as_upper = (l + 1..=lx).filter(move |_| upper).map(move |a| mapping::unit_row(t, l, a, lx));
    as_lower.chain(as_upper)
}

/// The Corollary 5.5 one-to-one `R⁴` (phases G–J): panels broadcast to
/// the workers, each worker `P_{f,g}` multiplies its unit, and per-block
/// reductions deliver the products to their owners. A directed worker
/// also computes its unit's second orientation `A(j,k) ⊗ A(k,i)`, so it
/// reads both worker-row ranges and feeds both reductions.
fn r4_one_to_one(
    layout: &SupernodalLayout,
    l: u32,
    (bi, bj): (usize, usize),
    directed: bool,
    plan: &mut Plan,
) {
    use Buf::{Bwd, Fwd, Got, Own};
    let t = layout.tree();
    let rank = |(i, j): (usize, usize)| layout.rank_of_block(i, j);
    let unit = mapping::units_for_processor(t, l, bi, bj);

    // G (phase 5): column panels A(x, k); H (phase 6): row panels A(k, x).
    // A rank joins as the panel's owner and as a worker reading it.
    for (phase, col) in [(5, true), (6, false)] {
        let at = |x, k| along(col, x, k);
        let (x0, k0) = at(bi, bj);
        let source = (t.level(k0) == l && t.level(x0) > l && t.related(bi, bj)).then_some((bi, bj));
        let reads = unit.map_or([None; 2], |u| {
            let (near, far) = if col { (u.i, u.j) } else { (u.j, u.i) };
            [Some(at(near, u.k)), directed.then(|| at(far, u.k))]
        });
        for key in roles([source, reads[0], reads[1]]) {
            let (x, k) = at(key.0, key.1);
            let g = mapping::unit_col(t, l, k);
            let ranks = unit_rows(t, l, x, col || directed, !col || directed)
                .map(|f| rank((f, g)))
                .chain(std::iter::once(rank(key)));
            let keep = reads.contains(&Some(key));
            plan.broadcast(ranks, rank(key), tag(l, phase, k, x), [Own(key.0, key.1)], keep);
        }
    }

    // I: the worker multiplies, then frees its panels
    if let Some(u) = unit {
        plan.ops.push(Op::Gemm { out: Fwd, a: Got(u.i, u.k), b: Got(u.k, u.j) });
        if directed {
            plan.ops.push(Op::Gemm { out: Bwd, a: Got(u.j, u.k), b: Got(u.k, u.i) });
        }
        plan.ops.extend([Op::Release(Got(u.i, u.k)), Op::Release(Got(u.k, u.j))]);
        if directed && u.i != u.j {
            plan.ops.extend([Op::Release(Got(u.j, u.k)), Op::Release(Got(u.k, u.i))]);
        }
    }

    // J (phase 7): one reduction per R⁴ block, over the workers of its
    // units plus the owner, which folds the result in
    let products = unit.map_or([None; 2], |u| [Some((u.i, u.j)), directed.then_some((u.j, u.i))]);
    let own = is_r4(t, l, bi, bj, !directed).then_some((bi, bj));
    for (x, y) in roles([products[0], products[1], own]) {
        // the upper orientation of the pair decides the worker row
        let (ui, uj) = if t.level(x) <= t.level(y) { (x, y) } else { (y, x) };
        let f = mapping::unit_row(t, l, t.level(ui), t.level(uj));
        let group = plan.group(
            t.descendants_at(ui, l)
                .map(|k| rank((f, mapping::unit_col(t, l, k))))
                .chain(std::iter::once(rank((x, y)))),
        );
        let from = if products[0] == Some((x, y)) {
            Some(Fwd)
        } else {
            (products[1] == Some((x, y)) && x != y).then_some(Bwd)
        };
        plan.ops.push(Op::Reduce {
            group,
            root: rank((x, y)),
            tag: tag(l, 7, x, y),
            into: Own(x, y),
            from,
        });
    }
    if unit.is_some() {
        plan.ops.push(Op::Release(Fwd));
        if directed {
            plan.ops.push(Op::Release(Bwd));
        }
    }
}

/// The §5.2.2 "trivial strategy": every `R⁴` block of the schedule (upper
/// only when undirected) pulls its `2q` panels point to point and
/// multiplies them itself, pivot by pivot.
fn r4_sequential(
    layout: &SupernodalLayout,
    l: u32,
    (bi, bj): (usize, usize),
    directed: bool,
    plan: &mut Plan,
) {
    use Buf::{Got, Own};
    let t = layout.tree();
    let rank = |(i, j): (usize, usize)| layout.rank_of_block(i, j);
    // column panel (x, k) feeds blocks (x, y) (phase 9), row panel (k, x)
    // feeds (y, x) (phase 10), for y on k's root path above level l
    for (phase, col) in [(9, true), (10, false)] {
        let at = |x, y| along(col, x, y);
        let (x, k) = at(bi, bj);
        if t.level(k) == l && t.level(x) > l && t.related(bi, bj) {
            for (i, j) in
                t.ancestors(k).map(|y| at(x, y)).filter(|&(i, j)| is_r4(t, l, i, j, !directed))
            {
                let (to, tag) = (rank((i, j)), tag(l, phase, k, x));
                plan.ops.push(Op::Send { to, tag, from: Own(bi, bj) });
            }
        }
    }
    if is_r4(t, l, bi, bj, !directed) {
        // pivots: level-l descendants of the lower-level endpoint
        let lower = if t.level(bi) <= t.level(bj) { bi } else { bj };
        for k in t.descendants_at(lower, l) {
            let (a, b) = (Got(bi, k), Got(k, bj));
            plan.ops.extend([
                Op::Recv { from: rank((bi, k)), tag: tag(l, 9, k, bi), into: a },
                Op::Recv { from: rank((k, bj)), tag: tag(l, 10, k, bj), into: b },
                Op::Gemm { out: Own(bi, bj), a, b },
                Op::Release(a),
                Op::Release(b),
            ]);
        }
    }
}

/// The per-rank program: runs Algorithm 1 for this rank's block and
/// returns the final block buffer. `input` supplies the rank's initial
/// block; a directed one switches the `R⁴` phase to the no-mirror dual
/// schedule.
fn rank_program<C: Transport>(
    comm: &mut C,
    layout: &SupernodalLayout,
    input: Input<'_>,
    r4: R4Strategy,
) -> MinPlusMatrix {
    let h = layout.tree().height();
    let (bi, bj) = layout.block_of_rank(comm.rank());

    let (block, directed) = match input {
        Input::Undirected(g) => (layout.extract_block(g, bi, bj), false),
        Input::Directed(dg) => (layout.block_of(bi, bj, |u| dg.arcs_of(u)), true),
    };
    comm.alloc(block.words());
    let (mut plan, sizes) = (Plan::default(), label_sizes(layout));
    let mut bufs = vec![(Buf::Own(bi, bj), block)];

    // Every elimination level is a checkpointable phase whose boundary
    // state is the block; the bill at each level's commit is the Lemma
    // 5.6/5.8/5.9 measurement, and a restore puts it back with the rest of
    // the bill.
    for l in 1..=h {
        if comm.phase_live() {
            let ends = level_plan(layout, l, (bi, bj), directed, r4, &mut plan);
            // one "level" span per elimination level with the paper's
            // regions nested inside — free unless the run is profiled
            let mut level = comm.span("level", l as u64);
            let regions = if l < h { 4 } else { 3 };
            let mut start = 0;
            for (&end, name) in ends.iter().zip(["r1", "r2", "r3", "r4"]).take(regions) {
                let mut region = level.span(name, l as u64);
                execute(&mut *region, &plan.ops[start..end], &plan, &sizes, &mut bufs);
                start = end;
            }
            debug_assert!(bufs.len() == 1, "a level ended holding {bufs:?}");
        }
        let block = &mut bufs[0].1;
        let (rows, cols) = (block.rows(), block.cols());
        let state = std::mem::replace(block, MinPlusMatrix::empty(0, 0)).into_vec();
        *block = MinPlusMatrix::from_raw(rows, cols, comm.commit_phase(state));
    }

    let (_, block) = bufs.pop().expect("the rank's block");
    block
}

/// Supernode sizes indexed by label (`[0]` is unused): the block shapes
/// `execute` reads.
pub(crate) fn label_sizes(layout: &SupernodalLayout) -> Vec<usize> {
    let labels = 1..=layout.tree().num_supernodes();
    std::iter::once(0).chain(labels.map(|k| layout.size(k))).collect()
}

/// 2D-SPARSE-APSP as a [`Solver`]: a layout, the graph permuted into its
/// eliminated ordering, and the `R⁴` strategy. Undirected and directed
/// inputs share the rank program; only each rank's initial block and the
/// `R⁴` phase differ.
///
/// Each rank initializes its own block locally (the §3.1 model assumes the
/// matrix is pre-distributed, as on a parallel filesystem), so the report
/// covers the algorithm's communication only. Every elimination level is a
/// checkpointable phase, so under [`crate::launch::LaunchSpec::recovery`]
/// killed ranks roll back to the last complete level — the checkpoint
/// cadence follows the e-tree height, not the (much finer) message
/// schedule. Traced tags decode as `(level, phase, k, aux)`: level in bits
/// 56.., phase in 48.., pivot in 24...
pub struct Sparse2d<'a> {
    layout: &'a SupernodalLayout,
    input: Input<'a>,
    r4: R4Strategy,
}

/// A graph 2D-SPARSE-APSP accepts (`&Csr` and `&DiCsr` convert into it).
#[derive(Clone, Copy)]
pub enum Input<'a> {
    /// An undirected graph with non-negative weights.
    Undirected(&'a Csr),
    /// A **directed** graph: asymmetric non-negative weights over a
    /// symmetric pattern, ordered by the pattern's nested dissection. The
    /// schedule is identical except in `R⁴`, where both block orientations
    /// are computed explicitly instead of mirrored — within 2× of the
    /// undirected message costs, and a generally asymmetric result.
    Directed(&'a DiCsr),
}

impl<'a> From<&'a Csr> for Input<'a> {
    fn from(g: &'a Csr) -> Self {
        Input::Undirected(g)
    }
}

impl<'a> From<&'a DiCsr> for Input<'a> {
    fn from(dg: &'a DiCsr) -> Self {
        Input::Directed(dg)
    }
}

impl<'a> Sparse2d<'a> {
    /// The solver for `g_perm`, which must already be permuted into the
    /// eliminated ordering described by `layout`.
    pub fn new(layout: &'a SupernodalLayout, g_perm: impl Into<Input<'a>>, r4: R4Strategy) -> Self {
        let input = g_perm.into();
        let n = match input {
            Input::Undirected(g) => g.n(),
            Input::Directed(dg) => dg.n(),
        };
        assert_eq!(n, layout.n(), "layout does not match the graph");
        Sparse2d { layout, input, r4 }
    }
}

impl Solver for Sparse2d<'_> {
    type Out = MinPlusMatrix;
    type Result = Sparse2dResult;
    const PHASE: &'static str = "solve-sparse2d";

    fn p(&self) -> usize {
        self.layout.p()
    }

    fn rank_program<C: Transport>(&self, comm: &mut C) -> Self::Out {
        rank_program(comm, self.layout, self.input, self.r4)
    }

    fn assemble(&self, outputs: Vec<Self::Out>, report: RunReport) -> Sparse2dResult {
        // per-level critical clocks: max over ranks of the bill at each
        // level's commit
        let mut level_clocks = vec![Clocks::default(); self.layout.tree().height() as usize];
        for commits in &report.commits {
            for (level, c) in level_clocks.iter_mut().zip(commits) {
                level.merge_max(c);
            }
        }
        // each block is copied into the heap the solve freed, so a result
        // kept for long does not hold the solve's peak resident
        let mut blocks = Vec::with_capacity(outputs.len());
        for block in outputs {
            blocks.push(block.clone());
        }
        Sparse2dResult { blocks, report, level_clocks }
    }
}

/// Runs 2D-SPARSE-APSP — undirected or directed ([`Input`]) — on the
/// simulated machine; every other way to run it is a
/// [`crate::launch::LaunchSpec`] on [`Sparse2d::new`].
pub fn sparse2d<'a>(
    layout: &'a SupernodalLayout,
    g_perm: impl Into<Input<'a>>,
    strategy: R4Strategy,
) -> Sparse2dResult {
    launch_plain(&Sparse2d::new(layout, g_perm, strategy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{self, WeightKind};
    use apsp_graph::oracle;
    use apsp_partition::{grid_nd, nested_dissection, NdOptions};

    fn check_with(
        g: &Csr,
        nd: &apsp_partition::NdOrdering,
        strategy: R4Strategy,
    ) -> Sparse2dResult {
        let layout = SupernodalLayout::from_ordering(nd);
        let gp = g.permuted(&nd.perm);
        let result = sparse2d(&layout, &gp, strategy);
        let dist = SupernodalLayout::unpermute(&layout.assemble_dense(&result.blocks), &nd.perm);
        let reference = oracle::apsp_dijkstra(g);
        if let Some((i, j, a, b)) = dist.first_mismatch(&reference, 1e-9) {
            panic!("mismatch at ({i},{j}): got {a}, expected {b}");
        }
        result
    }

    fn check(g: &Csr, nd: &apsp_partition::NdOrdering, strategy: R4Strategy) -> RunReport {
        check_with(g, nd, strategy).report
    }

    #[test]
    fn fig1_graph_on_9_ranks() {
        let g = generators::paper_fig1();
        let nd = nested_dissection(&g, 2, &NdOptions::default());
        let report = check(&g, &nd, R4Strategy::OneToOne);
        assert!(report.total_messages() > 0);
    }

    #[test]
    fn grid_on_9_ranks() {
        let g = generators::grid2d(6, 6, WeightKind::Integer { max: 7 }, 1);
        let nd = grid_nd(6, 6, 2);
        check(&g, &nd, R4Strategy::OneToOne);
    }

    #[test]
    fn grid_on_49_ranks() {
        let g = generators::grid2d(9, 9, WeightKind::Integer { max: 7 }, 2);
        let nd = grid_nd(9, 9, 3);
        check(&g, &nd, R4Strategy::OneToOne);
    }

    #[test]
    fn grid_on_225_ranks() {
        let g = generators::grid2d(12, 12, WeightKind::Integer { max: 7 }, 3);
        let nd = grid_nd(12, 12, 4);
        check(&g, &nd, R4Strategy::OneToOne);
    }

    #[test]
    fn multilevel_ordering_on_49_ranks() {
        let g = generators::connected_gnp(60, 0.05, WeightKind::Uniform { lo: 0.2, hi: 2.0 }, 9);
        let nd = nested_dissection(&g, 3, &NdOptions::default());
        check(&g, &nd, R4Strategy::OneToOne);
    }

    #[test]
    fn sequential_units_strategy_matches() {
        let g = generators::grid2d(8, 8, WeightKind::Integer { max: 5 }, 4);
        let nd = grid_nd(8, 8, 3);
        check(&g, &nd, R4Strategy::SequentialUnits);
    }

    #[test]
    fn single_rank_degenerate() {
        let g = generators::path(6, WeightKind::Unit, 0);
        let nd = nested_dissection(&g, 1, &NdOptions::default());
        let report = check(&g, &nd, R4Strategy::OneToOne);
        assert_eq!(report.total_messages(), 0, "p = 1 needs no communication");
    }

    #[test]
    fn disconnected_graph() {
        let mut b = apsp_graph::GraphBuilder::new(12);
        for i in 0..5 {
            b.add_edge(i, i + 1, 1.0);
        }
        for i in 6..11 {
            b.add_edge(i, i + 1, 2.0);
        }
        let g = b.build();
        let nd = nested_dissection(&g, 2, &NdOptions::default());
        check(&g, &nd, R4Strategy::OneToOne);
    }

    #[test]
    fn one_to_one_beats_sequential_latency() {
        // the gap is asymptotic in 2^{h−l} vs log p, so it needs a tall
        // tree: h = 5 → 961 ranks, max q = 16 units per block
        let g = generators::grid2d(16, 16, WeightKind::Unit, 5);
        let nd = grid_nd(16, 16, 5);
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        let fast = sparse2d(&layout, &gp, R4Strategy::OneToOne).report;
        let slow = sparse2d(&layout, &gp, R4Strategy::SequentialUnits).report;
        assert!(
            fast.critical_latency() < slow.critical_latency(),
            "one-to-one {} vs sequential {}",
            fast.critical_latency(),
            slow.critical_latency()
        );
        assert!(fast.critical_bandwidth() < slow.critical_bandwidth());
    }

    fn random_digraph(base: &Csr, seed: u64) -> apsp_graph::DiCsr {
        // independent weights per direction, some one-way arcs
        let mut state = seed | 1;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f64
        };
        let mut b = apsp_graph::DiGraphBuilder::new(base.n());
        for (u, v, _) in base.edges() {
            let fw = 1.0 + rnd() / 100.0;
            if rnd() < 850.0 {
                b.add_arc(u, v, fw);
            }
            if rnd() < 850.0 {
                b.add_arc(v, u, 1.0 + rnd() / 100.0);
            }
            // guarantee the pattern pair exists even if both draws failed
            b.add_arc(u, v, fw.max(900.0));
        }
        b.build()
    }

    fn check_directed(
        base: &Csr,
        nd: &apsp_partition::NdOrdering,
        strategy: R4Strategy,
        seed: u64,
    ) {
        let dg = random_digraph(base, seed);
        let layout = SupernodalLayout::from_ordering(nd);
        let dgp = dg.permuted(&nd.perm);
        let result = sparse2d(&layout, &dgp, strategy);
        let dist = SupernodalLayout::unpermute(&layout.assemble_dense(&result.blocks), &nd.perm);
        let reference = apsp_graph::digraph::apsp_dijkstra_directed(&dg);
        if let Some((i, j, a, b)) = dist.first_mismatch(&reference, 1e-9) {
            panic!("directed mismatch at ({i},{j}): got {a}, expected {b}");
        }
    }

    #[test]
    fn directed_grid_on_9_ranks() {
        let base = generators::grid2d(6, 6, WeightKind::Unit, 0);
        let nd = grid_nd(6, 6, 2);
        check_directed(&base, &nd, R4Strategy::OneToOne, 1);
    }

    #[test]
    fn directed_grid_on_49_ranks() {
        let base = generators::grid2d(9, 9, WeightKind::Unit, 0);
        let nd = grid_nd(9, 9, 3);
        check_directed(&base, &nd, R4Strategy::OneToOne, 2);
    }

    #[test]
    fn directed_multilevel_ordering() {
        let base = generators::connected_gnp(40, 0.06, WeightKind::Unit, 4);
        let nd = nested_dissection(&base, 3, &NdOptions::default());
        check_directed(&base, &nd, R4Strategy::OneToOne, 3);
    }

    #[test]
    fn directed_sequential_strategy() {
        let base = generators::grid2d(8, 8, WeightKind::Unit, 0);
        let nd = grid_nd(8, 8, 3);
        check_directed(&base, &nd, R4Strategy::SequentialUnits, 4);
    }

    #[test]
    fn directed_path_on_49_ranks() {
        let base = generators::path(30, WeightKind::Unit, 0);
        let nd = nested_dissection(&base, 3, &NdOptions::default());
        check_directed(&base, &nd, R4Strategy::OneToOne, 5);
    }

    #[test]
    fn directed_agrees_with_undirected_on_symmetric_weights() {
        let g = generators::grid2d(8, 8, WeightKind::Integer { max: 6 }, 7);
        let nd = grid_nd(8, 8, 3);
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        let und = sparse2d(&layout, &gp, R4Strategy::OneToOne);
        let dg = apsp_graph::DiCsr::from_undirected(&g).permuted(&nd.perm);
        let dir = sparse2d(&layout, &dg, R4Strategy::OneToOne);
        assert!(layout
            .assemble_dense(&und.blocks)
            .first_mismatch(&layout.assemble_dense(&dir.blocks), 1e-9)
            .is_none());
        // directed costs stay within ~2x of the undirected schedule
        assert!(dir.report.critical_bandwidth() <= 3 * und.report.critical_bandwidth());
    }

    #[test]
    fn mostly_empty_supernodes_on_225_ranks() {
        // a 10-vertex path on a height-4 tree: most of the 15 supernodes
        // are empty, blocks of size 0 flow through every phase
        let g = generators::path(10, WeightKind::Integer { max: 3 }, 1);
        let nd = nested_dissection(&g, 4, &NdOptions::default());
        assert!(nd.supernode_sizes.iter().filter(|&&s| s == 0).count() > 0);
        check(&g, &nd, R4Strategy::OneToOne);
        check(&g, &nd, R4Strategy::SequentialUnits);
    }

    #[test]
    fn reports_are_deterministic() {
        let g = generators::grid2d(6, 6, WeightKind::Integer { max: 3 }, 8);
        let nd = grid_nd(6, 6, 2);
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        let a = sparse2d(&layout, &gp, R4Strategy::OneToOne).report;
        let b = sparse2d(&layout, &gp, R4Strategy::OneToOne).report;
        assert_eq!(a.critical_latency(), b.critical_latency());
        assert_eq!(a.critical_bandwidth(), b.critical_bandwidth());
        assert_eq!(a.total_words(), b.total_words());
    }

    #[test]
    fn level_costs_cover_the_total_lemma_5_6() {
        let g = generators::grid2d(12, 12, WeightKind::Unit, 0);
        let nd = grid_nd(12, 12, 4);
        let result = check_with(&g, &nd, R4Strategy::OneToOne);
        let per_level = result.level_costs();
        assert_eq!(per_level.len(), 4);
        // per-level deltas sum to the totals
        let sum_l: u64 = per_level.iter().map(|&(l, _)| l).sum();
        let sum_b: u64 = per_level.iter().map(|&(_, b)| b).sum();
        assert_eq!(sum_l, result.report.critical_latency());
        assert_eq!(sum_b, result.report.critical_bandwidth());
        // Lemma 5.6: every level costs O(log p) messages
        let log_p = (225f64).log2();
        for (lvl, &(lat, _)) in per_level.iter().enumerate() {
            assert!((lat as f64) <= 4.0 * log_p, "level {}: L_l = {lat} exceeds 4·log p", lvl + 1);
        }
    }
}
