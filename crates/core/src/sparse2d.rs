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
//! Each rank's schedule for a level is data: `level_plan` writes the
//! rank's operations (broadcast, reduce, send, receive, mirror, gemm,
//! closure, release) for `R¹`–`R⁴` into a `Plan` the rank reuses for every
//! level, and `execute` runs them — it is the only code that communicates,
//! multiplies or charges memory during a level. `R⁴` has one one-to-one
//! generator for both orientations (a directed worker adds its unit's
//! second orientation; an undirected upper block adds the transpose
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
//! acyclic. Because the plan is a value, the test
//! `plans_pair_up_and_agree_on_order_without_threads` checks exactly this
//! for every rank of machines up to `p = 3 969` without starting a thread.

use crate::launch::{launch_plain, Solver};
use crate::supernodal::SupernodalLayout;
use apsp_etree::{mapping, SchedTree};
use apsp_graph::{Csr, DenseDist, DiCsr};
use apsp_minplus::{fw_in_place, gemm, MinPlusMatrix};
use apsp_simnet::{Clocks, RunReport};
use apsp_transport::Transport;
use std::ops::Range;

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
    /// The distance matrix in the *eliminated* ordering.
    pub dist_eliminated: DenseDist,
    /// Per-rank and critical-path costs.
    pub report: RunReport,
    /// Critical-path clocks *after each level* (cumulative, one entry per
    /// level `1..=h`); differences give the per-level costs of
    /// Lemmas 5.6/5.8/5.9.
    pub level_clocks: Vec<Clocks>,
}

impl Sparse2dResult {
    /// Per-level critical-path cost deltas `(latency, bandwidth)` —
    /// `L_l` and `B_l` in the paper's notation.
    pub fn level_costs(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.level_clocks.len());
        let mut prev = Clocks::default();
        for c in &self.level_clocks {
            out.push((
                c.latency.saturating_sub(prev.latency),
                c.bandwidth.saturating_sub(prev.bandwidth),
            ));
            prev = *c;
        }
        out
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

/// A buffer an [`Op`] reads or writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Buf {
    /// This rank's block `A(bi, bj)`.
    Block,
    /// A received copy of block `A(i, j)`.
    Got(usize, usize),
    /// A worker's product `A(i,k) ⊗ A(k,j)` for its unit's block `(i, j)`.
    Fwd,
    /// A directed worker's product `A(j,k) ⊗ A(k,i)` for block `(j, i)`.
    Bwd,
}

/// One step of a rank's level schedule. Every payload a rank sends is its
/// own block; everything it receives lands in a [`Buf`].
#[derive(Debug)]
enum Op {
    /// `R¹`: close the diagonal pivot block in place.
    Close,
    /// Join the broadcast of the root's block; keep the payload as `keep`.
    Bcast { group: Range<usize>, root: usize, tag: u64, keep: Option<Buf> },
    /// Receive a panel point to point into `into`.
    Recv { from: usize, tag: u64, into: Buf },
    /// Send the block point to point.
    Send { to: usize, tag: u64 },
    /// Replace the block with the transpose of the partner's block.
    Mirror { from: usize, tag: u64 },
    /// `out ⊕= a ⊗ b`. A product output starts all-`∞`; an operand that is
    /// the block itself is read from a snapshot taken before the update.
    Gemm { out: Buf, a: Buf, b: Buf },
    /// `⊕`-reduce `from` (the identity when `None`) for block `target` to
    /// the root, which folds the result into its block.
    Reduce { group: Range<usize>, root: usize, tag: u64, target: (usize, usize), from: Option<Buf> },
    /// Free a received panel or a product.
    Release(Buf),
}

/// A rank's schedule for one level: its ops in order, and the members of
/// its collectives stored back to back (an op's `group` indexes
/// `members`). One plan per rank is reused by every level, so building
/// one allocates nothing once the buffers have grown.
#[derive(Default)]
struct Plan {
    ops: Vec<Op>,
    members: Vec<usize>,
}

impl Plan {
    /// Stores a collective's members, ascending and without duplicates —
    /// the order every member derives the same tree from.
    fn group(&mut self, ranks: impl Iterator<Item = usize>) -> Range<usize> {
        let start = self.members.len();
        self.members.extend(ranks);
        let group = &mut self.members[start..];
        group.sort_unstable();
        let mut len = 0;
        for i in 0..group.len() {
            if len == 0 || group[i] != group[len - 1] {
                group[len] = group[i];
                len += 1;
            }
        }
        self.members.truncate(start + len);
        start..start + len
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
fn level_plan(
    layout: &SupernodalLayout,
    l: u32,
    (bi, bj): (usize, usize),
    directed: bool,
    r4: R4Strategy,
    plan: &mut Plan,
) -> [usize; 4] {
    use Buf::{Block, Got};
    let t = layout.tree();
    let rank = |(i, j): (usize, usize)| layout.rank_of_block(i, j);
    let related = t.related(bi, bj);
    plan.ops.clear();
    plan.members.clear();

    // R¹: the diagonal pivot closes itself
    if bi == bj && t.level(bi) == l {
        plan.ops.push(Op::Close);
    }
    let r1 = plan.ops.len();

    // R²: pivot k broadcasts A(k,k)* down column k (phase 1), then along
    // row k (phase 2); the panels update against a snapshot of themselves
    for (phase, row) in [(1, false), (2, true)] {
        let (k, other) = along(row, bi, bj);
        if t.level(k) == l && related {
            let keep = (other != k).then_some(Got(k, k));
            let group = plan.group(rel_with_self(t, k).map(|x| rank(along(row, k, x))));
            plan.ops.push(Op::Bcast { group, root: rank((k, k)), tag: tag(l, phase, k, 0), keep });
            if keep.is_some() {
                let (a, b) = along(row, Got(k, k), Block);
                plan.ops.extend([Op::Gemm { out: Block, a, b }, Op::Release(Got(k, k))]);
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
            let group = plan.group(
                rel_with_self(t, k)
                    .take_while(|&x| below || x <= k)
                    .map(|x| rank(along(row, line, x))),
            );
            let root = rank(along(row, line, k));
            let keep = r3k.map(|_| along(row, line, k)).map(|(i, j)| Got(i, j));
            plan.ops.push(Op::Bcast { group, root, tag: tag(l, phase, k, line), keep });
        }
    }
    if let Some(k) = r3k {
        let (a, b) = (Got(bi, k), Got(k, bj));
        plan.ops.extend([Op::Gemm { out: Block, a, b }, Op::Release(a), Op::Release(b)]);
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
                plan.ops.push(Op::Send { to: rank((bj, bi)), tag: tag(l, 8, bi, bj) });
            } else if is_r4(t, l, bj, bi, true) {
                plan.ops.push(Op::Mirror { from: rank((bj, bi)), tag: tag(l, 8, bj, bi) });
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
    use Buf::{Bwd, Fwd, Got};
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
            let group = plan.group(
                unit_rows(t, l, x, col || directed, !col || directed)
                    .map(|f| rank((f, g)))
                    .chain(std::iter::once(rank(key))),
            );
            let keep = reads.contains(&Some(key)).then_some(Got(key.0, key.1));
            plan.ops.push(Op::Bcast { group, root: rank(key), tag: tag(l, phase, k, x), keep });
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
            target: (x, y),
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
    use Buf::{Block, Got};
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
                plan.ops.push(Op::Send { to: rank((i, j)), tag: tag(l, phase, k, x) });
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
                Op::Gemm { out: Block, a, b },
                Op::Release(a),
                Op::Release(b),
            ]);
        }
    }
}

/// Runs `ops` (whose groups index `members`) on this rank: the only code
/// that moves, multiplies or charges a block. `held` carries the received
/// panels and products between ops (empty again once a level's ops have
/// run).
fn execute<C: Transport>(
    comm: &mut C,
    layout: &SupernodalLayout,
    ops: &[Op],
    members: &[usize],
    block: &mut MinPlusMatrix,
    held: &mut Vec<(Buf, MinPlusMatrix)>,
) {
    let find = |held: &[(Buf, MinPlusMatrix)], buf: Buf| {
        held.iter().position(|(b, _)| *b == buf).unwrap_or_else(|| panic!("{buf:?} is not held"))
    };
    let hold = |comm: &mut C, held: &mut Vec<_>, buf: Buf, data: Vec<f64>| {
        let Buf::Got(i, j) = buf else { unreachable!("only received blocks are kept") };
        let m = MinPlusMatrix::from_raw(layout.size(i), layout.size(j), data);
        comm.alloc(m.words());
        held.push((buf, m));
    };
    for op in ops {
        match *op {
            Op::Close => {
                let ops = fw_in_place(block);
                comm.compute(ops);
            }
            Op::Bcast { ref group, root, tag, keep } => {
                let payload = (comm.rank() == root).then(|| block.as_slice().to_vec());
                let data = comm.bcast(&members[group.clone()], root, tag, payload);
                if let Some(buf) = keep {
                    hold(comm, held, buf, data);
                }
            }
            Op::Recv { from, tag, into } => {
                let data = comm.recv(from, tag);
                hold(comm, held, into, data);
            }
            Op::Send { to, tag } => comm.send(to, tag, block.as_slice().to_vec()),
            Op::Mirror { from, tag } => {
                let data = comm.recv(from, tag);
                *block = MinPlusMatrix::from_raw(block.cols(), block.rows(), data).transposed();
            }
            Op::Gemm { out, a, b } => {
                let snapshot = (a == Buf::Block || b == Buf::Block).then(|| block.clone());
                if let Some(s) = &snapshot {
                    comm.alloc(s.words());
                }
                let mut target = if out == Buf::Block {
                    std::mem::replace(block, MinPlusMatrix::empty(0, 0))
                } else {
                    let (rows, cols) = (held[find(held, a)].1.rows(), held[find(held, b)].1.cols());
                    let m = MinPlusMatrix::empty(rows, cols);
                    comm.alloc(m.words());
                    m
                };
                let read = |buf: Buf| match &snapshot {
                    Some(s) if buf == Buf::Block => s,
                    _ => &held[find(held, buf)].1,
                };
                let ops = gemm(&mut target, read(a), read(b));
                comm.compute(ops);
                if let Some(s) = snapshot {
                    comm.release(s.words());
                }
                if out == Buf::Block {
                    *block = target;
                } else {
                    held.push((out, target));
                }
            }
            Op::Reduce { ref group, root, tag, target: (i, j), from } => {
                let contribution = match from {
                    Some(buf) => held[find(held, buf)].1.as_slice().to_vec(),
                    // a non-worker root contributes the ⊕-identity
                    None => vec![f64::INFINITY; layout.size(i) * layout.size(j)],
                };
                let result = comm.reduce_min(&members[group.clone()], root, tag, contribution);
                if let Some(data) = result {
                    let reduced = MinPlusMatrix::from_raw(layout.size(i), layout.size(j), data);
                    block.min_assign(&reduced);
                    comm.compute(reduced.words() as u64);
                }
            }
            Op::Release(buf) => {
                let (_, m) = held.swap_remove(find(held, buf));
                comm.release(m.words());
            }
        }
    }
}

/// The per-rank program: runs Algorithm 1 for this rank's block. Returns
/// the final block buffer and the cumulative clocks after each level.
/// `input` supplies the rank's initial block; a directed one switches the
/// `R⁴` phase to the no-mirror dual schedule.
fn rank_program<C: Transport>(
    comm: &mut C,
    layout: &SupernodalLayout,
    input: Input<'_>,
    r4: R4Strategy,
) -> (Vec<f64>, Vec<Clocks>) {
    let h = layout.tree().height();
    let (bi, bj) = layout.block_of_rank(comm.rank());

    let (mut block, directed) = match input {
        Input::Undirected(g) => (layout.extract_block(g, bi, bj), false),
        Input::Directed(dg) => (layout.extract_block_directed(dg, bi, bj), true),
    };
    comm.alloc(block.words());
    let mut level_clocks = Vec::with_capacity(h as usize);
    let (mut plan, mut held) = (Plan::default(), Vec::new());

    // Every elimination level is a checkpointable phase: its boundary state
    // is the block plus the per-level clock snapshots accumulated so far,
    // so a restored rank resumes with both its distances and its Lemma
    // 5.6/5.8/5.9 measurements intact.
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
                execute(
                    &mut *region,
                    layout,
                    &plan.ops[start..end],
                    &plan.members,
                    &mut block,
                    &mut held,
                );
                start = end;
            }
            debug_assert!(held.is_empty(), "a level ended holding {held:?}");
            level_clocks.push(level.clocks());
        }
        let (rows, cols) = (block.rows(), block.cols());
        let packed =
            encode_state(std::mem::replace(&mut block, MinPlusMatrix::empty(0, 0)), &level_clocks);
        let (restored, clocks) = decode_state(rows, cols, comm.commit_phase(packed));
        block = restored;
        level_clocks = clocks;
    }

    (block.into_vec(), level_clocks)
}

/// Appends the per-level clock snapshots to a block's word vector so a
/// phase checkpoint carries both (three bit-cast words per level).
fn encode_state(block: MinPlusMatrix, level_clocks: &[Clocks]) -> Vec<f64> {
    let mut state = block.into_vec();
    state.reserve(3 * level_clocks.len());
    for c in level_clocks {
        state.push(f64::from_bits(c.latency));
        state.push(f64::from_bits(c.bandwidth));
        state.push(f64::from_bits(c.compute));
    }
    state
}

/// Inverse of [`encode_state`]: splits a committed state back into the
/// block and the per-level clock snapshots (the level count is implied by
/// the trailing length — block dimensions never change across levels).
fn decode_state(rows: usize, cols: usize, mut state: Vec<f64>) -> (MinPlusMatrix, Vec<Clocks>) {
    let nb = rows * cols;
    let clocks = state[nb..]
        .chunks_exact(3)
        .map(|c| Clocks {
            latency: c[0].to_bits(),
            bandwidth: c[1].to_bits(),
            compute: c[2].to_bits(),
        })
        .collect();
    state.truncate(nb);
    (MinPlusMatrix::from_raw(rows, cols, state), clocks)
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
    type Out = (Vec<f64>, Vec<Clocks>);
    type Result = Sparse2dResult;
    const PHASE: &'static str = "solve-sparse2d";

    fn p(&self) -> usize {
        self.layout.p()
    }

    fn rank_program<C: Transport>(&self, comm: &mut C) -> Self::Out {
        rank_program(comm, self.layout, self.input, self.r4)
    }

    fn assemble(&self, outputs: Vec<Self::Out>, report: RunReport) -> Sparse2dResult {
        let layout = self.layout;
        let h = layout.tree().height() as usize;
        // per-level critical clocks: max over ranks of the cumulative snapshot
        let mut level_clocks = vec![Clocks::default(); h];
        for (_, clocks) in &outputs {
            for (lvl, c) in clocks.iter().enumerate() {
                level_clocks[lvl].merge_max(c);
            }
        }
        let dist_eliminated = layout.assemble_raw(outputs.into_iter().map(|(data, _)| data));
        Sparse2dResult { dist_eliminated, report, level_clocks }
    }
}

/// Runs 2D-SPARSE-APSP on the simulated machine; every other way to run it
/// is a [`crate::launch::LaunchSpec`] on [`Sparse2d::new`].
pub fn sparse2d(layout: &SupernodalLayout, g_perm: &Csr, strategy: R4Strategy) -> Sparse2dResult {
    launch_plain(&Sparse2d::new(layout, g_perm, strategy))
}

/// Runs **directed** 2D-SPARSE-APSP on the simulated machine
/// ([`Input::Directed`]).
pub fn sparse2d_directed(
    layout: &SupernodalLayout,
    dg_perm: &DiCsr,
    strategy: R4Strategy,
) -> Sparse2dResult {
    launch_plain(&Sparse2d::new(layout, dg_perm, strategy))
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
        let dist = SupernodalLayout::unpermute(&result.dist_eliminated, &nd.perm);
        let reference = oracle::apsp_dijkstra(g);
        if let Some((i, j, a, b)) = dist.first_mismatch(&reference, 1e-9) {
            panic!("mismatch at ({i},{j}): got {a}, expected {b}");
        }
        result
    }

    fn check(g: &Csr, nd: &apsp_partition::NdOrdering, strategy: R4Strategy) -> RunReport {
        check_with(g, nd, strategy).report
    }

    /// One region of every rank's plan, checked as a whole machine would
    /// run it: collectives agree on `(group, root)` and are joined by
    /// exactly their members, point-to-point sends pair with receives, and
    /// the ranks' orders of blocking operations leave the wait-for graph
    /// acyclic. Received buffers must come from the block they name and
    /// multiply in matching shapes.
    fn check_region(layout: &SupernodalLayout, region: &[(&[Op], &[usize])], ctx: &str) {
        use std::collections::{BTreeMap, BTreeSet};
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Node {
            Collective(u64),
            Message(usize, usize, u64),
        }
        let mut collectives: BTreeMap<u64, (&[usize], usize, BTreeSet<usize>)> = BTreeMap::new();
        let (mut sends, mut recvs) = (BTreeSet::new(), BTreeSet::new());
        let mut edges: BTreeMap<Node, Vec<Node>> = BTreeMap::new();
        let mut indegree: BTreeMap<Node, usize> = BTreeMap::new();
        for (me, &(ops, members)) in region.iter().enumerate() {
            let (bi, bj) = layout.block_of_rank(me);
            let shape = |buf: Buf, held: &BTreeMap<Buf, (usize, usize)>| match buf {
                Buf::Block => (layout.size(bi), layout.size(bj)),
                _ => held[&buf],
            };
            let mut held = BTreeMap::new();
            let mut last: Option<Node> = None;
            for op in ops.iter() {
                let (node, blocking) = match *op {
                    Op::Bcast { ref group, root, tag, .. }
                    | Op::Reduce { ref group, root, tag, .. } => {
                        let group = &members[group.clone()];
                        let entry =
                            collectives.entry(tag).or_insert((group, root, BTreeSet::new()));
                        assert!(
                            entry.0 == group && entry.1 == root,
                            "{ctx}: tag {tag:#x} disagrees"
                        );
                        assert!(entry.2.insert(me), "{ctx}: rank {me} joins {tag:#x} twice");
                        (Some(Node::Collective(tag)), true)
                    }
                    Op::Send { to, tag } => {
                        assert!(sends.insert((me, to, tag)), "{ctx}: duplicate send {tag:#x}");
                        (Some(Node::Message(me, to, tag)), false)
                    }
                    Op::Recv { from, tag, .. } | Op::Mirror { from, tag } => {
                        assert!(recvs.insert((from, me, tag)), "{ctx}: duplicate recv {tag:#x}");
                        (Some(Node::Message(from, me, tag)), true)
                    }
                    _ => (None, false),
                };
                // buffers: what is kept names its sender's block
                match *op {
                    Op::Bcast { root, keep: Some(buf @ Buf::Got(i, j)), .. }
                    | Op::Recv { from: root, into: buf @ Buf::Got(i, j), .. } => {
                        assert_eq!(layout.rank_of_block(i, j), root, "{ctx}: {buf:?} from {root}");
                        assert!(held.insert(buf, (layout.size(i), layout.size(j))).is_none());
                    }
                    Op::Mirror { from, .. } => assert_eq!(from, layout.rank_of_block(bj, bi)),
                    Op::Gemm { out, a, b } => {
                        let ((ar, ac), (br, bc)) = (shape(a, &held), shape(b, &held));
                        assert_eq!(ac, br, "{ctx}: inner dimensions of {op:?}");
                        if out == Buf::Block {
                            assert_eq!(
                                (layout.size(bi), layout.size(bj)),
                                (ar, bc),
                                "{ctx}: {op:?}"
                            );
                        } else {
                            assert!(held.insert(out, (ar, bc)).is_none(), "{ctx}: {op:?}");
                        }
                    }
                    Op::Reduce { root, target: (i, j), from, .. } => {
                        assert_eq!(layout.rank_of_block(i, j), root, "{ctx}: {op:?}");
                        if let Some(buf) = from {
                            assert_eq!(
                                held[&buf],
                                (layout.size(i), layout.size(j)),
                                "{ctx}: {op:?}"
                            );
                        }
                    }
                    Op::Release(buf) => assert!(held.remove(&buf).is_some(), "{ctx}: {op:?}"),
                    _ => {}
                }
                if let Some(node) = node {
                    indegree.entry(node).or_insert(0);
                    if let Some(prev) = last {
                        edges.entry(prev).or_default().push(node);
                        *indegree.entry(node).or_insert(0) += 1;
                    }
                    if blocking {
                        last = Some(node);
                    }
                }
            }
            assert!(held.is_empty(), "{ctx}: rank {me} ends the region holding buffers");
        }
        for (tag, (group, root, joined)) in &collectives {
            assert!(group.windows(2).all(|w| w[0] < w[1]), "{ctx}: {tag:#x} group unsorted");
            assert!(group.contains(root), "{ctx}: {tag:#x} root outside its group");
            assert!(group.iter().copied().eq(joined.iter().copied()), "{ctx}: {tag:#x} members");
        }
        assert_eq!(sends, recvs, "{ctx}: sends and receives differ");
        // Kahn: every node must eventually lose all its predecessors
        let mut ready: Vec<Node> =
            indegree.iter().filter(|&(_, &d)| d == 0).map(|(&n, _)| n).collect();
        let mut done = 0;
        while let Some(node) = ready.pop() {
            done += 1;
            for next in edges.get(&node).into_iter().flatten() {
                let d = indegree.get_mut(next).expect("every target is a node");
                *d -= 1;
                if *d == 0 {
                    ready.push(*next);
                }
            }
        }
        assert_eq!(done, indegree.len(), "{ctx}: cycle");
    }

    #[test]
    fn plans_pair_up_and_agree_on_order_without_threads() {
        // p up to 3 969: far past what a threaded test can launch
        for h in 1..=6u32 {
            let t = SchedTree::new(h);
            let sizes = (1..=t.num_supernodes()).map(|k| 1 + k * 7 % 5).collect();
            let layout = SupernodalLayout::new(t, sizes);
            let mut plans: Vec<Plan> = (0..layout.p()).map(|_| Plan::default()).collect();
            for directed in [false, true] {
                for r4 in [R4Strategy::OneToOne, R4Strategy::SequentialUnits] {
                    for l in 1..=h {
                        let ends: Vec<[usize; 4]> = plans
                            .iter_mut()
                            .enumerate()
                            .map(|(r, plan)| {
                                level_plan(&layout, l, layout.block_of_rank(r), directed, r4, plan)
                            })
                            .collect();
                        for region in 0..4 {
                            let slices: Vec<(&[Op], &[usize])> = plans
                                .iter()
                                .zip(&ends)
                                .map(|(plan, e)| {
                                    let start = if region == 0 { 0 } else { e[region - 1] };
                                    (&plan.ops[start..e[region]], &plan.members[..])
                                })
                                .collect();
                            let ctx = format!(
                                "h={h} l={l} region {} ({r4:?}, directed {directed})",
                                region + 1
                            );
                            check_region(&layout, &slices, &ctx);
                        }
                    }
                }
            }
        }
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
        let result = sparse2d_directed(&layout, &dgp, strategy);
        // un-permute
        let n = base.n();
        let mut dist = apsp_graph::DenseDist::unconnected(n);
        for i in 0..n {
            for j in 0..n {
                dist.set(i, j, result.dist_eliminated.get(nd.perm.to_new(i), nd.perm.to_new(j)));
            }
        }
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
        let dir = sparse2d_directed(&layout, &dg, R4Strategy::OneToOne);
        assert!(und.dist_eliminated.first_mismatch(&dir.dist_eliminated, 1e-9).is_none());
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
