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
//! With [`Sparse2dOptions::compress_empty`], structurally empty (all-`∞`)
//! blocks travel as zero-length payloads — a header-only message, the way
//! real sparse solvers ship empty frontal updates. Latency is unchanged;
//! bandwidth drops on very sparse inputs.
//!
//! [`Input::Directed`] runs the same schedule on **directed** inputs
//! (asymmetric weights over a symmetric pattern): `R¹–R³` are already
//! orientation-correct; `R⁴` swaps the transpose mirror for dual-
//! orientation computing units on the same Corollary 5.5 workers (see
//! `docs/ALGORITHM.md`).
//!
//! ## Deadlock discipline
//!
//! Phases run in a fixed global order. Within a phase, either every rank
//! belongs to at most one communication group (R², R³ — groups are
//! pairwise disjoint), or ranks hold at most two roles and execute them
//! sorted by a deterministic key shared by all participants (R⁴). Message
//! edges therefore never point backwards in (phase, key) order and the
//! wait-for graph is acyclic.

use crate::launch::{launch_plain, Solver};
use crate::supernodal::SupernodalLayout;
use apsp_etree::{mapping, SchedTree};
use apsp_graph::{Csr, DenseDist, DiCsr};
use apsp_minplus::{fw_in_place, gemm, MinPlusMatrix};
use apsp_simnet::{Clocks, RunReport};
use apsp_transport::Transport;

/// How the `R⁴` computing units are scheduled (§5.2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum R4Strategy {
    /// Corollary 5.5: one unit per processor, parallel multiply, tree
    /// reduction — `O(log p)` latency per level.
    OneToOne,
    /// The SuperLU_DIST-style trivial strategy: `P_{i,j}` receives `2q`
    /// messages and multiplies sequentially — `O(2^{h−l})` latency.
    SequentialUnits,
}

/// Tuning options for a [`Sparse2d`] run.
#[derive(Clone, Copy, Debug)]
pub struct Sparse2dOptions {
    /// `R⁴` scheduling strategy.
    pub r4: R4Strategy,
    /// Ship structurally empty blocks as zero-length payloads.
    pub compress_empty: bool,
}

impl Default for Sparse2dOptions {
    fn default() -> Self {
        Sparse2dOptions { r4: R4Strategy::OneToOne, compress_empty: false }
    }
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

/// Serializes a block for transmission, optionally compressing all-`∞`
/// blocks to a zero-length payload.
fn encode(m: &MinPlusMatrix, compress: bool) -> Vec<f64> {
    if compress && m.words() > 0 && m.is_empty_block() {
        Vec::new()
    } else {
        m.as_slice().to_vec()
    }
}

/// Inverse of [`encode`]: an empty payload for a non-empty shape is the
/// all-`∞` block.
fn decode(rows: usize, cols: usize, data: Vec<f64>) -> MinPlusMatrix {
    if data.len() == rows * cols {
        MinPlusMatrix::from_raw(rows, cols, data)
    } else {
        assert!(data.is_empty(), "payload length {} for {rows}x{cols} block", data.len());
        MinPlusMatrix::empty(rows, cols)
    }
}

/// Sorted labels of `{k} ∪ 𝒜(k) ∪ 𝒟(k)` (ascending label order — which is
/// ascending rank order along a row or column of the grid).
fn rel_with_self(t: &SchedTree, k: usize) -> Vec<usize> {
    let mut v: Vec<usize> = t.descendants(k).collect();
    v.sort_unstable();
    v.push(k);
    v.extend(t.ancestors(k));
    v
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

/// Target columns of the `R³` row broadcast from panel `(i, k)`:
/// the columns `j` with `(i, j) ∈ R³` via `k`.
fn r3_row_targets(t: &SchedTree, l: u32, i: usize, k: usize) -> Vec<usize> {
    if t.level(i) < l {
        // i ∈ 𝒟(k): everything related to k except k itself
        rel_with_self(t, k).into_iter().filter(|&j| j != k).collect()
    } else {
        // i ∈ 𝒜(k): only descendants (ancestor × ancestor is R⁴)
        let mut v: Vec<usize> = t.descendants(k).collect();
        v.sort_unstable();
        v
    }
}

/// Is `(i, j)` an upper `R⁴` block at level `l` (`level(i) ≤ level(j)`,
/// both above `l`, related)?
fn is_r4_upper(t: &SchedTree, l: u32, i: usize, j: usize) -> bool {
    let (li, lj) = (t.level(i), t.level(j));
    li > l && lj > l && li <= lj && t.related(i, j)
}

/// The per-rank program: runs Algorithm 1 for this rank's block. Returns
/// the final block buffer and the cumulative clocks after each level.
/// `input` supplies the rank's initial block; a directed one switches the
/// `R⁴` phase to the no-mirror dual schedule.
fn rank_program<C: Transport>(
    comm: &mut C,
    layout: &SupernodalLayout,
    input: Input<'_>,
    opts: &Sparse2dOptions,
) -> (Vec<f64>, Vec<Clocks>) {
    let t = *layout.tree();
    let h = t.height();
    let (bi, bj) = layout.block_of_rank(comm.rank());

    let (mut block, directed) = match input {
        Input::Undirected(g) => (layout.extract_block(g, bi, bj), false),
        Input::Directed(dg) => (layout.extract_block_directed(dg, bi, bj), true),
    };
    comm.alloc(block.words());
    let mut level_clocks = Vec::with_capacity(h as usize);

    // Every elimination level is a checkpointable phase: its boundary state
    // is the block plus the per-level clock snapshots accumulated so far,
    // so a restored rank resumes with both its distances and its Lemma
    // 5.6/5.8/5.9 measurements intact.
    for l in 1..=h {
        if comm.phase_live() {
            level_clocks.push(level_round(comm, layout, &t, l, bi, bj, &mut block, opts, directed));
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

/// One elimination level of Algorithm 1 (`R¹`–`R⁴`), wrapped in its phase
/// spans. Returns the cumulative critical-path clocks after the level.
#[allow(clippy::too_many_arguments)]
fn level_round<C: Transport>(
    comm: &mut C,
    layout: &SupernodalLayout,
    t: &SchedTree,
    l: u32,
    bi: usize,
    bj: usize,
    block: &mut MinPlusMatrix,
    opts: &Sparse2dOptions,
    directed: bool,
) -> Clocks {
    let h = t.height();
    let rank_of = |i: usize, j: usize| layout.rank_of_block(i, j);
    let size = |k: usize| layout.size(k);
    let compress = opts.compress_empty;

    {
        // phase spans: one top-level "level" span per elimination level,
        // with the paper's computing units R¹–R⁴ nested inside — free
        // unless the run is profiled (see `Comm::span`)
        let mut level_span = comm.span("level", l as u64);
        let comm: &mut C = &mut level_span;

        // ---------------- R¹: diagonal pivot closure ----------------
        {
            let mut r1_span = comm.span("r1", l as u64);
            let comm: &mut C = &mut r1_span;
            if bi == bj && t.level(bi) == l {
                let ops = fw_in_place(block);
                comm.compute(ops);
            }
        }

        // ---------------- R²: pivot broadcasts + panel updates ----------------
        {
            let mut r2_span = comm.span("r2", l as u64);
            let comm: &mut C = &mut r2_span;
            // column phase: pivot k = bj broadcasts A(k,k)* down column k
            if t.level(bj) == l && t.related(bi, bj) {
                let k = bj;
                let group: Vec<usize> =
                    rel_with_self(t, k).iter().map(|&i| rank_of(i, k)).collect();
                let root = rank_of(k, k);
                let payload = (bi == k).then(|| encode(block, compress));
                let data = comm.bcast(&group, root, tag(l, 1, k, 0), payload);
                if bi != k {
                    let akk = decode(size(k), size(k), data);
                    comm.alloc(akk.words());
                    let snapshot = block.clone();
                    comm.alloc(snapshot.words());
                    let ops = gemm(block, &snapshot, &akk);
                    comm.compute(ops);
                    comm.release(snapshot.words());
                    comm.release(akk.words());
                }
            }
            // row phase: pivot k = bi broadcasts A(k,k)* along row k
            if t.level(bi) == l && t.related(bi, bj) {
                let k = bi;
                let group: Vec<usize> =
                    rel_with_self(t, k).iter().map(|&j| rank_of(k, j)).collect();
                let root = rank_of(k, k);
                let payload = (bj == k).then(|| encode(block, compress));
                let data = comm.bcast(&group, root, tag(l, 2, k, 0), payload);
                if bj != k {
                    let akk = decode(size(k), size(k), data);
                    comm.alloc(akk.words());
                    let snapshot = block.clone();
                    comm.alloc(snapshot.words());
                    let ops = gemm(block, &akk, &snapshot);
                    comm.compute(ops);
                    comm.release(snapshot.words());
                    comm.release(akk.words());
                }
            }
        }

        // ---------------- R³: panel broadcasts + single-unit updates ----------------
        {
            let mut r3_span = comm.span("r3", l as u64);
            let comm: &mut C = &mut r3_span;
            let r3k = r3_pivot(t, l, bi, bj);
            // row phase: panel (i, k=bj) broadcasts A(i,k) along row i
            let mut r3_aik: Option<MinPlusMatrix> = None;
            if t.level(bj) == l && t.related(bi, bj) && bi != bj {
                // source role
                let k = bj;
                let mut cols = r3_row_targets(t, l, bi, k);
                cols.push(k);
                cols.sort_unstable();
                let group: Vec<usize> = cols.iter().map(|&j| rank_of(bi, j)).collect();
                let _ = comm.bcast(
                    &group,
                    rank_of(bi, k),
                    tag(l, 3, k, bi),
                    Some(encode(block, compress)),
                );
            } else if let Some(k) = r3k {
                // receiver role: join the broadcast of panel (bi, k)
                let mut cols = r3_row_targets(t, l, bi, k);
                cols.push(k);
                cols.sort_unstable();
                let group: Vec<usize> = cols.iter().map(|&j| rank_of(bi, j)).collect();
                let data = comm.bcast(&group, rank_of(bi, k), tag(l, 3, k, bi), None);
                let m = decode(size(bi), size(k), data);
                comm.alloc(m.words());
                r3_aik = Some(m);
            }
            // column phase: panel (k=bi, j) broadcasts A(k,j) down column j
            let mut r3_akj: Option<MinPlusMatrix> = None;
            if t.level(bi) == l && t.related(bi, bj) && bi != bj {
                let k = bi;
                let mut rows = r3_row_targets(t, l, bj, k);
                rows.push(k);
                rows.sort_unstable();
                let group: Vec<usize> = rows.iter().map(|&i| rank_of(i, bj)).collect();
                let _ = comm.bcast(
                    &group,
                    rank_of(k, bj),
                    tag(l, 4, k, bj),
                    Some(encode(block, compress)),
                );
            } else if let Some(k) = r3k {
                let mut rows = r3_row_targets(t, l, bj, k);
                rows.push(k);
                rows.sort_unstable();
                let group: Vec<usize> = rows.iter().map(|&i| rank_of(i, bj)).collect();
                let data = comm.bcast(&group, rank_of(k, bj), tag(l, 4, k, bj), None);
                let m = decode(size(k), size(bj), data);
                comm.alloc(m.words());
                r3_akj = Some(m);
            }
            // local update
            if let (Some(aik), Some(akj)) = (&r3_aik, &r3_akj) {
                let ops = gemm(block, aik, akj);
                comm.compute(ops);
            }
            if let Some(a) = r3_aik.take() {
                comm.release(a.words());
            }
            if let Some(a) = r3_akj.take() {
                comm.release(a.words());
            }
        }

        // ---------------- R⁴ ----------------
        if l < h {
            let mut r4_span = comm.span("r4", l as u64);
            let comm: &mut C = &mut r4_span;
            match (opts.r4, directed) {
                (R4Strategy::OneToOne, false) => {
                    r4_one_to_one(comm, layout, t, l, bi, bj, block, compress)
                }
                (R4Strategy::SequentialUnits, false) => {
                    r4_sequential(comm, layout, t, l, bi, bj, block, compress)
                }
                (R4Strategy::OneToOne, true) => {
                    r4_one_to_one_directed(comm, layout, t, l, bi, bj, block, compress)
                }
                (R4Strategy::SequentialUnits, true) => {
                    r4_sequential_directed(comm, layout, t, l, bi, bj, block, compress)
                }
            }
        }

        comm.clocks()
    }
}

/// The Corollary 5.5 one-to-one schedule for `R⁴` at level `l`.
#[allow(clippy::too_many_arguments)]
fn r4_one_to_one<C: Transport>(
    comm: &mut C,
    layout: &SupernodalLayout,
    t: &SchedTree,
    l: u32,
    bi: usize,
    bj: usize,
    block: &mut MinPlusMatrix,
    compress: bool,
) {
    let h = t.height();
    let rank_of = |i: usize, j: usize| layout.rank_of_block(i, j);
    let size = |k: usize| layout.size(k);
    // the unit (if any) this rank executes as worker P_{f,g}
    let my_unit = mapping::units_for_processor(t, l, bi, bj);
    let mut unit_aik: Option<MinPlusMatrix> = None;
    let mut unit_akj: Option<MinPlusMatrix> = None;

    // --- phase G: row distribution — panel (i, k) → workers needing A(i,k)
    {
        // this rank's ops, keyed by the broadcast source block (i, k):
        // one as panel source, one as unit worker (possibly the same op)
        let mut ops: Vec<(usize, usize)> = Vec::new();
        if t.level(bj) == l && t.level(bi) > l && t.related(bi, bj) {
            ops.push((bi, bj));
        }
        if let Some(u) = my_unit {
            ops.push((u.i, u.k));
        }
        ops.sort_unstable();
        ops.dedup();
        for (i, k) in ops {
            let a = t.level(i);
            let g_col = mapping::unit_col(t, l, k);
            let mut members: Vec<usize> = vec![rank_of(i, k)];
            for c in a..=h {
                let f = mapping::unit_row(t, l, a, c);
                members.push(rank_of(f, g_col));
            }
            members.sort_unstable();
            members.dedup();
            let root = rank_of(i, k);
            let payload = (comm.rank() == root).then(|| encode(block, compress));
            let data = comm.bcast(&members, root, tag(l, 5, k, i), payload);
            if my_unit.map(|u| (u.i, u.k)) == Some((i, k)) {
                let m = decode(size(i), size(k), data);
                comm.alloc(m.words());
                unit_aik = Some(m);
            }
        }
    }

    // --- phase H: column distribution — panel (k, j) → workers needing A(k,j)
    {
        let mut ops: Vec<(usize, usize)> = Vec::new();
        if t.level(bi) == l && t.level(bj) > l && t.related(bi, bj) {
            ops.push((bi, bj));
        }
        if let Some(u) = my_unit {
            ops.push((u.k, u.j));
        }
        ops.sort_unstable();
        ops.dedup();
        for (k, j) in ops {
            let c = t.level(j);
            let g_col = mapping::unit_col(t, l, k);
            let mut members: Vec<usize> = vec![rank_of(k, j)];
            for a in (l + 1)..=c {
                let f = mapping::unit_row(t, l, a, c);
                members.push(rank_of(f, g_col));
            }
            members.sort_unstable();
            members.dedup();
            let root = rank_of(k, j);
            let payload = (comm.rank() == root).then(|| encode(block, compress));
            let data = comm.bcast(&members, root, tag(l, 6, k, j), payload);
            if my_unit.map(|u| (u.k, u.j)) == Some((k, j)) {
                let m = decode(size(k), size(j), data);
                comm.alloc(m.words());
                unit_akj = Some(m);
            }
        }
    }

    // --- phase I: workers multiply their unit
    let my_product: Option<MinPlusMatrix> = my_unit.map(|u| {
        let aik = unit_aik.take().expect("row distribution delivered A(i,k)");
        let akj = unit_akj.take().expect("column distribution delivered A(k,j)");
        let mut prod = MinPlusMatrix::empty(size(u.i), size(u.j));
        comm.alloc(prod.words());
        let ops = gemm(&mut prod, &aik, &akj);
        comm.compute(ops);
        comm.release(aik.words());
        comm.release(akj.words());
        prod
    });

    // --- phase J: per-block reduction to P_{i,j}
    {
        // ops: (key = (i, j), contribution)
        let mut ops: Vec<(usize, usize)> = Vec::new();
        if let Some(u) = my_unit {
            ops.push((u.i, u.j));
        }
        if is_r4_upper(t, l, bi, bj) && !ops.contains(&(bi, bj)) {
            ops.push((bi, bj));
        }
        ops.sort_unstable();
        for (i, j) in ops {
            let a = t.level(i);
            let c = t.level(j);
            let f = mapping::unit_row(t, l, a, c);
            let mut members: Vec<usize> =
                t.descendants_at(i, l).map(|k| rank_of(f, mapping::unit_col(t, l, k))).collect();
            members.push(rank_of(i, j));
            members.sort_unstable();
            members.dedup();
            let root = rank_of(i, j);
            let contribution = if my_unit.map(|u| (u.i, u.j)) == Some((i, j)) {
                encode(my_product.as_ref().expect("worker computed its unit"), compress)
            } else {
                // the root (when not itself a worker) contributes ⊕-identity
                if compress {
                    Vec::new()
                } else {
                    vec![f64::INFINITY; size(i) * size(j)]
                }
            };
            // combine handles compressed (empty = all-∞) contributions
            let result = comm.reduce(&members, root, tag(l, 7, i, j), contribution, |acc, inc| {
                if inc.is_empty() {
                    return;
                }
                if acc.is_empty() {
                    *acc = inc.to_vec();
                    return;
                }
                debug_assert_eq!(acc.len(), inc.len(), "reduction shape mismatch");
                for (x, &y) in acc.iter_mut().zip(inc) {
                    if y < *x {
                        *x = y;
                    }
                }
            });
            if comm.rank() == root {
                let reduced = decode(size(i), size(j), result.expect("root gets the reduction"));
                block.min_assign(&reduced);
                comm.compute(reduced.words() as u64);
            }
        }
        if let Some(prod) = my_product {
            comm.release(prod.words());
        }
    }

    // --- phase K: transpose mirror P_{i,j} → P_{j,i}
    if is_r4_upper(t, l, bi, bj) && bi != bj {
        comm.send(rank_of(bj, bi), tag(l, 8, bi, bj), encode(block, compress));
    } else if is_r4_upper(t, l, bj, bi) && bi != bj {
        let data = comm.recv(rank_of(bj, bi), tag(l, 8, bj, bi));
        *block = decode(size(bj), size(bi), data).transposed();
    }
}

/// The §5.2.2 "trivial strategy": `P_{i,j}` pulls all `2q` panels itself.
#[allow(clippy::too_many_arguments)]
fn r4_sequential<C: Transport>(
    comm: &mut C,
    layout: &SupernodalLayout,
    t: &SchedTree,
    l: u32,
    bi: usize,
    bj: usize,
    block: &mut MinPlusMatrix,
    compress: bool,
) {
    let rank_of = |i: usize, j: usize| layout.rank_of_block(i, j);
    let size = |k: usize| layout.size(k);

    // sender roles: column panel (i, k) feeds blocks (i, j), j ∈ {i} ∪ 𝒜(i);
    // row panel (k, j) feeds blocks (i, j), i on the k→j path above level l.
    if t.level(bj) == l && t.level(bi) > l && t.related(bi, bj) {
        let (i, k) = (bi, bj);
        for j in std::iter::once(i).chain(t.ancestors(i)) {
            comm.send(rank_of(i, j), tag(l, 9, k, i), encode(block, compress));
        }
    }
    if t.level(bi) == l && t.level(bj) > l && t.related(bi, bj) {
        let (k, j) = (bi, bj);
        let c = t.level(j);
        for a in (l + 1)..=c {
            let i = t.ancestor_at(k, a);
            comm.send(rank_of(i, j), tag(l, 10, k, j), encode(block, compress));
        }
    }
    // receiver role: upper R⁴ block pulls its 2q panels, pivot by pivot
    if is_r4_upper(t, l, bi, bj) {
        for k in t.descendants_at(bi, l) {
            let aik = decode(size(bi), size(k), comm.recv(rank_of(bi, k), tag(l, 9, k, bi)));
            comm.alloc(aik.words());
            let akj = decode(size(k), size(bj), comm.recv(rank_of(k, bj), tag(l, 10, k, bj)));
            comm.alloc(akj.words());
            let ops = gemm(block, &aik, &akj);
            comm.compute(ops);
            comm.release(aik.words());
            comm.release(akj.words());
        }
    }
    // transpose mirror, as in the one-to-one schedule
    if is_r4_upper(t, l, bi, bj) && bi != bj {
        comm.send(rank_of(bj, bi), tag(l, 8, bi, bj), encode(block, compress));
    } else if is_r4_upper(t, l, bj, bi) && bi != bj {
        let data = comm.recv(rank_of(bj, bi), tag(l, 8, bj, bi));
        *block = decode(size(bj), size(bi), data).transposed();
    }
}

/// Worker rows whose units involve ancestor `x` (as block row *or* block
/// column) at level `l` — the directed distribution target set.
fn dir_unit_rows(t: &SchedTree, l: u32, x: usize) -> Vec<usize> {
    let h = t.height();
    let lx = t.level(x);
    let mut rows: Vec<usize> = (lx..=h).map(|c| mapping::unit_row(t, l, lx, c)).collect();
    rows.extend(((l + 1)..=lx).map(|a| mapping::unit_row(t, l, a, lx)));
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// Is `(i, j)` *any* `R⁴` block at level `l` (both endpoints above `l`,
/// related — either orientation)?
fn is_r4_block(t: &SchedTree, l: u32, i: usize, j: usize) -> bool {
    t.level(i) > l && t.level(j) > l && t.related(i, j)
}

/// Directed `R⁴` with the one-to-one placement: each worker `P_{f,g}`
/// computes **both** orientations of its unit
/// (`A(i,k) ⊗ A(k,j)` and `A(j,k) ⊗ A(k,i)`) and feeds two reductions —
/// no transpose mirror exists for asymmetric weights. Costs stay within
/// 2× of the undirected schedule, same asymptotics.
#[allow(clippy::too_many_arguments)]
fn r4_one_to_one_directed<C: Transport>(
    comm: &mut C,
    layout: &SupernodalLayout,
    t: &SchedTree,
    l: u32,
    bi: usize,
    bj: usize,
    block: &mut MinPlusMatrix,
    compress: bool,
) {
    let rank_of = |i: usize, j: usize| layout.rank_of_block(i, j);
    let size = |k: usize| layout.size(k);
    let my_unit = mapping::units_for_processor(t, l, bi, bj);
    // received operands, keyed by block coordinates
    let mut col_panels: std::collections::BTreeMap<(usize, usize), MinPlusMatrix> =
        std::collections::BTreeMap::new();
    let mut row_panels: std::collections::BTreeMap<(usize, usize), MinPlusMatrix> =
        std::collections::BTreeMap::new();

    // --- phase G: column panels A(x, k) to every worker touching x
    {
        let mut ops: Vec<(usize, usize)> = Vec::new();
        if t.level(bj) == l && t.level(bi) > l && t.related(bi, bj) {
            ops.push((bi, bj));
        }
        if let Some(u) = my_unit {
            ops.push((u.i, u.k));
            ops.push((u.j, u.k));
        }
        ops.sort_unstable();
        ops.dedup();
        for (x, k) in ops {
            let g_col = mapping::unit_col(t, l, k);
            let mut members: Vec<usize> = vec![rank_of(x, k)];
            members.extend(dir_unit_rows(t, l, x).into_iter().map(|f| rank_of(f, g_col)));
            members.sort_unstable();
            members.dedup();
            let root = rank_of(x, k);
            let payload = (comm.rank() == root).then(|| encode(block, compress));
            let data = comm.bcast(&members, root, tag(l, 5, k, x), payload);
            if my_unit.is_some_and(|u| (u.i == x || u.j == x) && u.k == k) {
                let m = decode(size(x), size(k), data);
                comm.alloc(m.words());
                col_panels.insert((x, k), m);
            }
        }
    }
    // --- phase H: row panels A(k, x)
    {
        let mut ops: Vec<(usize, usize)> = Vec::new();
        if t.level(bi) == l && t.level(bj) > l && t.related(bi, bj) {
            ops.push((bi, bj));
        }
        if let Some(u) = my_unit {
            ops.push((u.k, u.i));
            ops.push((u.k, u.j));
        }
        ops.sort_unstable();
        ops.dedup();
        for (k, x) in ops {
            let g_col = mapping::unit_col(t, l, k);
            let mut members: Vec<usize> = vec![rank_of(k, x)];
            members.extend(dir_unit_rows(t, l, x).into_iter().map(|f| rank_of(f, g_col)));
            members.sort_unstable();
            members.dedup();
            let root = rank_of(k, x);
            let payload = (comm.rank() == root).then(|| encode(block, compress));
            let data = comm.bcast(&members, root, tag(l, 6, k, x), payload);
            if my_unit.is_some_and(|u| (u.i == x || u.j == x) && u.k == k) {
                let m = decode(size(k), size(x), data);
                comm.alloc(m.words());
                row_panels.insert((k, x), m);
            }
        }
    }
    // --- phase I: both oriented products
    let my_products: Option<(MinPlusMatrix, MinPlusMatrix)> = my_unit.map(|u| {
        let aik = &col_panels[&(u.i, u.k)];
        let akj = &row_panels[&(u.k, u.j)];
        let mut fwd = MinPlusMatrix::empty(size(u.i), size(u.j));
        comm.alloc(fwd.words());
        let mut ops = gemm(&mut fwd, aik, akj);
        let ajk = &col_panels[&(u.j, u.k)];
        let aki = &row_panels[&(u.k, u.i)];
        let mut bwd = MinPlusMatrix::empty(size(u.j), size(u.i));
        comm.alloc(bwd.words());
        ops += gemm(&mut bwd, ajk, aki);
        comm.compute(ops);
        (fwd, bwd)
    });
    for (_, m) in col_panels.into_iter().chain(row_panels) {
        comm.release(m.words());
    }

    // --- phase J: two reductions per unit pair (forward to P_{i,j},
    //     backward to P_{j,i}); diagonal blocks reduce once
    {
        let mut ops: Vec<(usize, usize)> = Vec::new();
        if let Some(u) = my_unit {
            ops.push((u.i, u.j));
            ops.push((u.j, u.i));
        }
        if is_r4_block(t, l, bi, bj) {
            ops.push((bi, bj));
        }
        ops.sort_unstable();
        ops.dedup();
        for (x, y) in ops {
            // upper orientation of the pair decides the worker row
            let (ui, uj) = if t.level(x) <= t.level(y) { (x, y) } else { (y, x) };
            let f = mapping::unit_row(t, l, t.level(ui), t.level(uj));
            let mut members: Vec<usize> =
                t.descendants_at(ui, l).map(|k| rank_of(f, mapping::unit_col(t, l, k))).collect();
            members.push(rank_of(x, y));
            members.sort_unstable();
            members.dedup();
            let root = rank_of(x, y);
            let contribution = match (&my_products, my_unit) {
                (Some((fwd, _)), Some(u)) if (u.i, u.j) == (x, y) => encode(fwd, compress),
                (Some((_, bwd)), Some(u)) if (u.j, u.i) == (x, y) && u.i != u.j => {
                    encode(bwd, compress)
                }
                _ => {
                    if compress {
                        Vec::new()
                    } else {
                        vec![f64::INFINITY; size(x) * size(y)]
                    }
                }
            };
            let result = comm.reduce(&members, root, tag(l, 7, x, y), contribution, |acc, inc| {
                if inc.is_empty() {
                    return;
                }
                if acc.is_empty() {
                    *acc = inc.to_vec();
                    return;
                }
                for (a, &b) in acc.iter_mut().zip(inc) {
                    if b < *a {
                        *a = b;
                    }
                }
            });
            if comm.rank() == root {
                let reduced = decode(size(x), size(y), result.expect("root gets the reduction"));
                block.min_assign(&reduced);
                comm.compute(reduced.words() as u64);
            }
        }
        if let Some((fwd, bwd)) = my_products {
            comm.release(fwd.words());
            comm.release(bwd.words());
        }
    }
}

/// Directed `R⁴`, trivial strategy: every `R⁴` block (both orientations)
/// pulls its `2q` panels itself. Panel `(x, k)` feeds blocks `(x, y)` for
/// every `y ∈ 𝒜(k)` above level `l`; panel `(k, x)` feeds `(y, x)`.
#[allow(clippy::too_many_arguments)]
fn r4_sequential_directed<C: Transport>(
    comm: &mut C,
    layout: &SupernodalLayout,
    t: &SchedTree,
    l: u32,
    bi: usize,
    bj: usize,
    block: &mut MinPlusMatrix,
    compress: bool,
) {
    let rank_of = |i: usize, j: usize| layout.rank_of_block(i, j);
    let size = |k: usize| layout.size(k);

    if t.level(bj) == l && t.level(bi) > l && t.related(bi, bj) {
        let (x, k) = (bi, bj);
        for y in t.ancestors(k) {
            comm.send(rank_of(x, y), tag(l, 9, k, x), encode(block, compress));
        }
    }
    if t.level(bi) == l && t.level(bj) > l && t.related(bi, bj) {
        let (k, x) = (bi, bj);
        for y in t.ancestors(k) {
            comm.send(rank_of(y, x), tag(l, 10, k, x), encode(block, compress));
        }
    }
    if is_r4_block(t, l, bi, bj) {
        // pivots: level-l descendants of the lower-level endpoint
        let lower = if t.level(bi) <= t.level(bj) { bi } else { bj };
        for k in t.descendants_at(lower, l) {
            let aik = decode(size(bi), size(k), comm.recv(rank_of(bi, k), tag(l, 9, k, bi)));
            comm.alloc(aik.words());
            let akj = decode(size(k), size(bj), comm.recv(rank_of(k, bj), tag(l, 10, k, bj)));
            comm.alloc(akj.words());
            let ops = gemm(block, &aik, &akj);
            comm.compute(ops);
            comm.release(aik.words());
            comm.release(akj.words());
        }
    }
}

/// 2D-SPARSE-APSP as a [`Solver`]: a layout, the graph permuted into its
/// eliminated ordering, and the schedule options. Undirected and directed
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
    opts: Sparse2dOptions,
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
    pub fn new(
        layout: &'a SupernodalLayout,
        g_perm: impl Into<Input<'a>>,
        opts: &Sparse2dOptions,
    ) -> Self {
        let input = g_perm.into();
        let n = match input {
            Input::Undirected(g) => g.n(),
            Input::Directed(dg) => dg.n(),
        };
        assert_eq!(n, layout.n(), "layout does not match the graph");
        Sparse2d { layout, input, opts: *opts }
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
        rank_program(comm, self.layout, self.input, &self.opts)
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

    fn words(out: Self::Out) -> Vec<f64> {
        out.0
    }
}

/// Runs 2D-SPARSE-APSP on the simulated machine with default options.
pub fn sparse2d(layout: &SupernodalLayout, g_perm: &Csr, strategy: R4Strategy) -> Sparse2dResult {
    sparse2d_with(layout, g_perm, &Sparse2dOptions { r4: strategy, ..Default::default() })
}

/// Runs 2D-SPARSE-APSP on the simulated machine with explicit
/// [`Sparse2dOptions`]; every other way to run it is a
/// [`crate::launch::LaunchSpec`] on [`Sparse2d::new`].
pub fn sparse2d_with(
    layout: &SupernodalLayout,
    g_perm: &Csr,
    opts: &Sparse2dOptions,
) -> Sparse2dResult {
    launch_plain(&Sparse2d::new(layout, g_perm, opts))
}

/// Runs **directed** 2D-SPARSE-APSP on the simulated machine
/// ([`Input::Directed`]).
pub fn sparse2d_directed(
    layout: &SupernodalLayout,
    dg_perm: &DiCsr,
    opts: &Sparse2dOptions,
) -> Sparse2dResult {
    launch_plain(&Sparse2d::new(layout, dg_perm, opts))
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
        opts: &Sparse2dOptions,
    ) -> Sparse2dResult {
        let layout = SupernodalLayout::from_ordering(nd);
        let gp = g.permuted(&nd.perm);
        let result = sparse2d_with(&layout, &gp, opts);
        let dist = SupernodalLayout::unpermute(&result.dist_eliminated, &nd.perm);
        let reference = oracle::apsp_dijkstra(g);
        if let Some((i, j, a, b)) = dist.first_mismatch(&reference, 1e-9) {
            panic!("mismatch at ({i},{j}): got {a}, expected {b}");
        }
        result
    }

    fn check(g: &Csr, nd: &apsp_partition::NdOrdering, strategy: R4Strategy) -> RunReport {
        check_with(g, nd, &Sparse2dOptions { r4: strategy, ..Default::default() }).report
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
        opts: &Sparse2dOptions,
        seed: u64,
    ) {
        let dg = random_digraph(base, seed);
        let layout = SupernodalLayout::from_ordering(nd);
        let dgp = dg.permuted(&nd.perm);
        let result = sparse2d_directed(&layout, &dgp, opts);
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
        check_directed(&base, &nd, &Sparse2dOptions::default(), 1);
    }

    #[test]
    fn directed_grid_on_49_ranks() {
        let base = generators::grid2d(9, 9, WeightKind::Unit, 0);
        let nd = grid_nd(9, 9, 3);
        check_directed(&base, &nd, &Sparse2dOptions::default(), 2);
    }

    #[test]
    fn directed_multilevel_ordering() {
        let base = generators::connected_gnp(40, 0.06, WeightKind::Unit, 4);
        let nd = nested_dissection(&base, 3, &NdOptions::default());
        check_directed(&base, &nd, &Sparse2dOptions::default(), 3);
    }

    #[test]
    fn directed_sequential_strategy() {
        let base = generators::grid2d(8, 8, WeightKind::Unit, 0);
        let nd = grid_nd(8, 8, 3);
        check_directed(
            &base,
            &nd,
            &Sparse2dOptions { r4: R4Strategy::SequentialUnits, ..Default::default() },
            4,
        );
    }

    #[test]
    fn directed_with_compression() {
        let base = generators::path(30, WeightKind::Unit, 0);
        let nd = nested_dissection(&base, 3, &NdOptions::default());
        check_directed(
            &base,
            &nd,
            &Sparse2dOptions { compress_empty: true, ..Default::default() },
            5,
        );
    }

    #[test]
    fn directed_agrees_with_undirected_on_symmetric_weights() {
        let g = generators::grid2d(8, 8, WeightKind::Integer { max: 6 }, 7);
        let nd = grid_nd(8, 8, 3);
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        let und = sparse2d(&layout, &gp, R4Strategy::OneToOne);
        let dg = apsp_graph::DiCsr::from_undirected(&g).permuted(&nd.perm);
        let dir = sparse2d_directed(&layout, &dg, &Sparse2dOptions::default());
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
        let result = check_with(&g, &nd, &Sparse2dOptions::default());
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

    #[test]
    fn compressed_empty_blocks_save_bandwidth_not_correctness() {
        // a path: extremely sparse, most blocks stay all-∞ for a while
        let g = generators::path(40, WeightKind::Integer { max: 5 }, 3);
        let nd = nested_dissection(&g, 3, &NdOptions::default());
        let plain = check_with(&g, &nd, &Sparse2dOptions::default());
        let compressed =
            check_with(&g, &nd, &Sparse2dOptions { compress_empty: true, ..Default::default() });
        assert!(
            compressed.report.total_words() < plain.report.total_words(),
            "compression should cut volume: {} vs {}",
            compressed.report.total_words(),
            plain.report.total_words()
        );
        // latency is the same schedule
        assert_eq!(compressed.report.total_messages(), plain.report.total_messages());
    }

    #[test]
    fn compression_works_with_sequential_strategy_too() {
        let g = generators::path(30, WeightKind::Unit, 0);
        let nd = nested_dissection(&g, 3, &NdOptions::default());
        check_with(
            &g,
            &nd,
            &Sparse2dOptions { r4: R4Strategy::SequentialUnits, compress_empty: true },
        );
    }
}
