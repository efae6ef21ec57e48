//! One op vocabulary and one interpreter for the blocked solvers.
//!
//! `sparse2d`, `fw2d` and `dcapsp` write each rank's schedule for one
//! checkpointed phase as data: a generator pushes the rank's operations
//! (broadcast, reduce, send, receive, mirror, snapshot, gemm, closure,
//! release) into a [`Plan`] the rank reuses for every phase, and
//! [`execute`] runs them. `execute` is the only code in those solvers that
//! communicates, multiplies or charges memory during a phase, so a rank
//! program is "for each phase: if live, generate, open the phase's span,
//! execute; then commit".
//!
//! A buffer is named by the block it holds: block `(i, j)` is
//! `sizes[i] × sizes[j]`, wherever it lives. A rank's resident blocks and
//! what it holds between ops share one list; the resident ones come first
//! and stay in place. The bills of the three solvers differ only in what
//! their plans say:
//!
//! - a [`Op::Gemm`] that reads its own output charges the snapshot it
//!   reads from, for as long as the product runs; an [`Op::Snapshot`]
//!   copies resident blocks for a later broadcast without charging them;
//! - a broadcast member holds (and is charged for) the payload only when
//!   its op says `keep`, the root included.
//!
//! Because a plan is a value, the tests check every rank's plans together
//! — collectives agree and are joined by exactly their members, sends pair
//! with receives, buffers are held before they are read and released by
//! the end of a phase, and the ranks' orders of blocking operations leave
//! the wait-for graph acyclic — for machines far larger than a threaded
//! test can launch.

use apsp_minplus::{fw_in_place, gemm, MinPlusMatrix};
use apsp_transport::Transport;
use std::ops::Range;

/// A buffer an [`Op`] reads or writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Buf {
    /// This rank's resident block `(i, j)`.
    Own(usize, usize),
    /// A received copy of block `(i, j)`.
    Got(usize, usize),
    /// An uncharged copy of resident block `(i, j)`, consumed by the
    /// broadcast that sends it.
    Snap(usize, usize),
    /// A worker's product `A(i,k) ⊗ A(k,j)` for its unit's block `(i, j)`.
    Fwd,
    /// A directed worker's product `A(j,k) ⊗ A(k,i)` for block `(j, i)`.
    Bwd,
}

impl Buf {
    /// The block a named buffer holds.
    fn at(self) -> (usize, usize) {
        match self {
            Buf::Own(i, j) | Buf::Got(i, j) | Buf::Snap(i, j) => (i, j),
            Buf::Fwd | Buf::Bwd => unreachable!("a product names no block"),
        }
    }
}

/// One step of a rank's phase schedule. A group or a buffer list is a
/// range of the plan's `members` or `bufs`.
#[derive(Debug)]
pub(crate) enum Op {
    /// Close a resident diagonal block in place.
    Close(Buf),
    /// Join the broadcast of `bufs[payload]` from `root`, which packs them
    /// in order (an `Own` block or a `Snap` copy). With `keep`, the member
    /// holds each block of the payload as a `Got`.
    Bcast { group: Range<usize>, root: usize, tag: u64, payload: Range<usize>, keep: bool },
    /// Receive a block point to point into `into`.
    Recv { from: usize, tag: u64, into: Buf },
    /// Send a resident block point to point.
    Send { to: usize, tag: u64, from: Buf },
    /// Replace a resident block with the transpose of the partner's block.
    Mirror { from: usize, tag: u64, into: Buf },
    /// `out ⊕= a ⊗ b`. An output not yet held starts all-`∞`; an operand
    /// that is the output itself is read from a snapshot taken before the
    /// update.
    Gemm { out: Buf, a: Buf, b: Buf },
    /// `⊕`-reduce `from` (the identity when `None`) to the root, which
    /// folds the result into its resident block `into`.
    Reduce { group: Range<usize>, root: usize, tag: u64, into: Buf, from: Option<Buf> },
    /// Copy the resident blocks named by the `Snap`s of `bufs[range]`.
    Snapshot(Range<usize>),
    /// Free a received block or a product.
    Release(Buf),
}

/// A rank's schedule for one phase: its ops in order, the members of its
/// collectives and its buffer lists, each stored back to back. One plan
/// per rank is reused by every phase, so building one allocates nothing
/// once the buffers have grown.
#[derive(Default)]
pub(crate) struct Plan {
    pub(crate) ops: Vec<Op>,
    pub(crate) members: Vec<usize>,
    pub(crate) bufs: Vec<Buf>,
}

impl Plan {
    /// Empties the plan for the next phase.
    pub(crate) fn clear(&mut self) {
        self.ops.clear();
        self.members.clear();
        self.bufs.clear();
    }

    /// Stores a collective's members, ascending and without duplicates —
    /// the order every member derives the same tree from.
    pub(crate) fn group(&mut self, ranks: impl Iterator<Item = usize>) -> Range<usize> {
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

    /// Stores a buffer list.
    pub(crate) fn list(&mut self, bufs: impl IntoIterator<Item = Buf>) -> Range<usize> {
        let start = self.bufs.len();
        self.bufs.extend(bufs);
        start..self.bufs.len()
    }

    /// Pushes a broadcast of `payload` from `root` to `ranks`.
    pub(crate) fn broadcast(
        &mut self,
        ranks: impl Iterator<Item = usize>,
        root: usize,
        tag: u64,
        payload: impl IntoIterator<Item = Buf>,
        keep: bool,
    ) {
        let group = self.group(ranks);
        let payload = self.list(payload);
        self.ops.push(Op::Bcast { group, root, tag, payload, keep });
    }
}

fn find(bufs: &[(Buf, MinPlusMatrix)], buf: Buf) -> usize {
    bufs.iter().position(|(b, _)| *b == buf).unwrap_or_else(|| panic!("{buf:?} is not held"))
}

/// Runs `ops` (whose groups and lists index `plan`) on this rank: the only
/// code of a blocked solver that moves, multiplies or charges a block.
/// `bufs` starts with the rank's resident blocks, which stay in place;
/// received blocks, snapshots and products are pushed behind them and are
/// gone again once a phase's ops have run.
pub(crate) fn execute<C: Transport>(
    comm: &mut C,
    ops: &[Op],
    plan: &Plan,
    sizes: &[usize],
    bufs: &mut Vec<(Buf, MinPlusMatrix)>,
) {
    let shape = |buf: Buf| {
        let (i, j) = buf.at();
        (sizes[i], sizes[j])
    };
    let hold = |comm: &mut C, bufs: &mut Vec<_>, buf: Buf, data: Vec<f64>| {
        let (rows, cols) = shape(buf);
        let m = MinPlusMatrix::from_raw(rows, cols, data);
        comm.alloc(m.words());
        bufs.push((buf, m));
    };
    for op in ops {
        match *op {
            Op::Close(buf) => {
                let at = find(bufs, buf);
                let ops = fw_in_place(&mut bufs[at].1);
                comm.compute(ops);
            }
            Op::Bcast { ref group, root, tag, ref payload, keep } => {
                let payload = &plan.bufs[payload.clone()];
                let packed = (comm.rank() == root).then(|| {
                    let words = payload.iter().map(|&buf| shape(buf)).map(|(r, c)| r * c);
                    let mut packed = Vec::with_capacity(words.sum());
                    for &buf in payload {
                        if let Buf::Snap(..) = buf {
                            packed
                                .extend_from_slice(bufs.swap_remove(find(bufs, buf)).1.as_slice());
                        } else {
                            packed.extend_from_slice(bufs[find(bufs, buf)].1.as_slice());
                        }
                    }
                    packed
                });
                let mut data = comm.bcast(&plan.members[group.clone()], root, tag, packed);
                if keep {
                    // split from the back, so a one-block payload is kept as
                    // it arrived
                    for &buf in payload.iter().rev() {
                        let ((i, j), (rows, cols)) = (buf.at(), shape(buf));
                        let end = data.len() - rows * cols;
                        let block =
                            if end == 0 { std::mem::take(&mut data) } else { data.split_off(end) };
                        hold(comm, bufs, Buf::Got(i, j), block);
                    }
                }
            }
            Op::Recv { from, tag, into } => {
                let data = comm.recv(from, tag);
                hold(comm, bufs, into, data);
            }
            Op::Send { to, tag, from } => {
                comm.send(to, tag, bufs[find(bufs, from)].1.as_slice().to_vec())
            }
            Op::Mirror { from, tag, into } => {
                let data = comm.recv(from, tag);
                let at = find(bufs, into);
                let block = &mut bufs[at].1;
                *block = MinPlusMatrix::from_raw(block.cols(), block.rows(), data).transposed();
            }
            Op::Gemm { out, a, b } => {
                let slot = bufs.iter().position(|(buf, _)| *buf == out);
                let mut target = match slot {
                    Some(at) => std::mem::replace(&mut bufs[at].1, MinPlusMatrix::empty(0, 0)),
                    None => {
                        let m = MinPlusMatrix::empty(shape(a).0, shape(b).1);
                        comm.alloc(m.words());
                        m
                    }
                };
                let snapshot = (a == out || b == out).then(|| target.clone());
                if let Some(s) = &snapshot {
                    comm.alloc(s.words());
                }
                let read = |buf: Buf| match &snapshot {
                    Some(s) if buf == out => s,
                    _ => &bufs[find(bufs, buf)].1,
                };
                let ops = gemm(&mut target, read(a), read(b));
                comm.compute(ops);
                if let Some(s) = snapshot {
                    comm.release(s.words());
                }
                match slot {
                    Some(at) => bufs[at].1 = target,
                    None => bufs.push((out, target)),
                }
            }
            Op::Reduce { ref group, root, tag, into, from } => {
                let (rows, cols) = shape(into);
                let contribution = match from {
                    Some(buf) => bufs[find(bufs, buf)].1.as_slice().to_vec(),
                    // a non-worker root contributes the ⊕-identity
                    None => vec![f64::INFINITY; rows * cols],
                };
                let result = comm.reduce_min(&plan.members[group.clone()], root, tag, contribution);
                if let Some(data) = result {
                    let reduced = MinPlusMatrix::from_raw(rows, cols, data);
                    let at = find(bufs, into);
                    bufs[at].1.min_assign(&reduced);
                    comm.compute(reduced.words() as u64);
                }
            }
            Op::Snapshot(ref list) => {
                for &buf in &plan.bufs[list.clone()] {
                    let (i, j) = buf.at();
                    let copy = bufs[find(bufs, Buf::Own(i, j))].1.clone();
                    bufs.push((buf, copy));
                }
            }
            Op::Release(buf) => {
                let (_, m) = bufs.swap_remove(find(bufs, buf));
                comm.release(m.words());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcapsp::{self, Cyclic, Phase};
    use crate::fw2d::{self, Grid};
    use crate::sparse2d::{self, R4Strategy};
    use crate::supernodal::SupernodalLayout;
    use apsp_etree::SchedTree;

    /// Checks one phase (or region) of every rank's plan as a whole machine
    /// would run it: a collective is its `(tag, root)`, its members agree on
    /// its group and payload, and it is joined by exactly them (a rank joins
    /// at most one collective per tag); point-to-point sends pair with
    /// receives, and the ranks' orders of blocking operations leave the
    /// wait-for graph acyclic. Every buffer is held before it is read, resident
    /// blocks belong to the rank (`owner` maps a block to the rank holding it),
    /// received blocks come from the rank that owns them, products multiply in
    /// matching shapes, and nothing is held once the region ends.
    fn check_region(
        sizes: &[usize],
        owner: &dyn Fn(usize, usize) -> usize,
        region: &[(&[Op], &Plan)],
        ctx: &str,
    ) {
        use std::collections::{BTreeMap, BTreeSet};
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Node {
            Collective(u64, usize),
            Message(usize, usize, u64),
        }
        type Shape = (usize, usize);
        // a held buffer's shape and copy count: a rank may hold two copies of
        // one block (a panel crossing its own pivot)
        type Held = BTreeMap<Buf, (Shape, usize)>;
        // a collective's group, payload and the ranks that joined it
        type Joined<'a> = (&'a [usize], Option<&'a [Buf]>, BTreeSet<usize>);
        let mut collectives: BTreeMap<(u64, usize), Joined> = BTreeMap::new();
        let mut joined_tags = BTreeSet::new();
        let (mut sends, mut recvs) = (BTreeSet::new(), BTreeSet::new());
        let mut edges: BTreeMap<Node, Vec<Node>> = BTreeMap::new();
        let mut indegree: BTreeMap<Node, usize> = BTreeMap::new();
        let block = |(i, j): (usize, usize)| (sizes[i], sizes[j]);
        for (me, &(ops, plan)) in region.iter().enumerate() {
            let mut held = Held::new();
            let hold = |held: &mut Held, buf: Buf, shape: Shape| {
                let entry = held.entry(buf).or_insert((shape, 0));
                assert_eq!(entry.0, shape, "{ctx}: rank {me} holds {buf:?} in two shapes");
                entry.1 += 1;
            };
            let drop = |held: &mut Held, buf: Buf| {
                let entry = held.get_mut(&buf).unwrap_or_else(|| panic!("{ctx}: {buf:?} not held"));
                entry.1 -= 1;
                if entry.1 == 0 {
                    held.remove(&buf);
                }
            };
            let shape = |held: &Held, buf: Buf| match buf {
                Buf::Own(i, j) => {
                    assert_eq!(owner(i, j), me, "{ctx}: rank {me} does not own {buf:?}");
                    block((i, j))
                }
                _ => held.get(&buf).unwrap_or_else(|| panic!("{ctx}: rank {me} reads {buf:?}")).0,
            };
            let mut last: Option<Node> = None;
            for op in ops {
                let (node, blocking) = match *op {
                    Op::Bcast { ref group, root, tag, .. }
                    | Op::Reduce { ref group, root, tag, .. } => {
                        let group = &plan.members[group.clone()];
                        let payload = match op {
                            Op::Bcast { payload, .. } => Some(&plan.bufs[payload.clone()]),
                            _ => None,
                        };
                        let entry = collectives.entry((tag, root)).or_insert((
                            group,
                            payload,
                            BTreeSet::new(),
                        ));
                        assert!(
                            entry.0 == group && entry.1 == payload,
                            "{ctx}: {tag:#x} disagrees"
                        );
                        assert!(
                            entry.2.insert(me) && joined_tags.insert((me, tag)),
                            "{ctx}: rank {me} joins {tag:#x} twice"
                        );
                        (Some(Node::Collective(tag, root)), true)
                    }
                    Op::Send { to, tag, .. } => {
                        assert!(sends.insert((me, to, tag)), "{ctx}: duplicate send {tag:#x}");
                        (Some(Node::Message(me, to, tag)), false)
                    }
                    Op::Recv { from, tag, .. } | Op::Mirror { from, tag, .. } => {
                        assert!(recvs.insert((from, me, tag)), "{ctx}: duplicate recv {tag:#x}");
                        (Some(Node::Message(from, me, tag)), true)
                    }
                    _ => (None, false),
                };
                // buffers: what is read is held, what is kept names its sender
                match *op {
                    Op::Close(buf) => {
                        let (rows, cols) = shape(&held, buf);
                        assert!(matches!(buf, Buf::Own(..)) && rows == cols, "{ctx}: {op:?}");
                    }
                    Op::Bcast { root, ref payload, keep, .. } => {
                        for &buf in &plan.bufs[payload.clone()] {
                            let (i, j) = buf.at();
                            assert_eq!(owner(i, j), root, "{ctx}: {buf:?} sent by {root}");
                            if me == root {
                                assert_eq!(shape(&held, buf), block((i, j)), "{ctx}: {op:?}");
                                if let Buf::Snap(..) = buf {
                                    drop(&mut held, buf);
                                }
                            }
                            if keep {
                                hold(&mut held, Buf::Got(i, j), block((i, j)));
                            }
                        }
                    }
                    Op::Recv { from, into, .. } => {
                        let Buf::Got(i, j) = into else { panic!("{ctx}: {op:?} into a non-copy") };
                        assert_eq!(owner(i, j), from, "{ctx}: {into:?} from {from}");
                        hold(&mut held, into, block((i, j)));
                    }
                    Op::Send { from, .. } => {
                        assert!(matches!(from, Buf::Own(..)), "{ctx}: {op:?}");
                        shape(&held, from);
                    }
                    Op::Mirror { from, into, .. } => {
                        let (i, j) = into.at();
                        shape(&held, into);
                        assert_eq!(from, owner(j, i), "{ctx}: {op:?}");
                    }
                    Op::Gemm { out, a, b } => {
                        let ((ar, ac), (br, bc)) = (shape(&held, a), shape(&held, b));
                        assert_eq!(ac, br, "{ctx}: inner dimensions of {op:?}");
                        if matches!(out, Buf::Own(..)) || held.contains_key(&out) {
                            assert_eq!(shape(&held, out), (ar, bc), "{ctx}: {op:?}");
                        } else {
                            hold(&mut held, out, (ar, bc));
                        }
                    }
                    Op::Reduce { root, into, from, .. } => {
                        let (i, j) = into.at();
                        assert_eq!(owner(i, j), root, "{ctx}: {op:?}");
                        if me == root {
                            shape(&held, into);
                        }
                        if let Some(buf) = from {
                            assert_eq!(shape(&held, buf), block((i, j)), "{ctx}: {op:?}");
                        }
                    }
                    Op::Snapshot(ref list) => {
                        for &buf in &plan.bufs[list.clone()] {
                            let Buf::Snap(i, j) = buf else { panic!("{ctx}: {op:?}") };
                            shape(&held, Buf::Own(i, j));
                            hold(&mut held, buf, block((i, j)));
                        }
                    }
                    Op::Release(buf) => drop(&mut held, buf),
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
            assert!(held.is_empty(), "{ctx}: rank {me} ends the region holding {held:?}");
        }
        for ((tag, root), (group, _, joined)) in &collectives {
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

    /// Builds every rank's plan for one phase with `build`, which returns
    /// where each region of the plan ends, and checks region by region.
    fn check_phase(
        plans: &mut [Plan],
        sizes: &[usize],
        owner: &dyn Fn(usize, usize) -> usize,
        mut build: impl FnMut(usize, &mut Plan) -> Vec<usize>,
        ctx: &str,
    ) {
        let ends: Vec<Vec<usize>> =
            plans.iter_mut().enumerate().map(|(rank, plan)| build(rank, plan)).collect();
        for region in 0..ends[0].len() {
            let slices: Vec<(&[Op], &Plan)> = plans
                .iter()
                .zip(&ends)
                .map(|(plan, e)| {
                    let start = if region == 0 { 0 } else { e[region - 1] };
                    (&plan.ops[start..e[region]], plan)
                })
                .collect();
            check_region(sizes, owner, &slices, &format!("{ctx} region {}", region + 1));
        }
    }

    #[test]
    fn sparse2d_plans_pair_up_and_agree_on_order() {
        // p up to 3 969: far past what a threaded test can launch
        for h in 1..=6u32 {
            let t = SchedTree::new(h);
            let sizes = (1..=t.num_supernodes()).map(|k| 1 + k * 7 % 5).collect();
            let layout = SupernodalLayout::new(t, sizes);
            let (sizes, owner) =
                (sparse2d::label_sizes(&layout), |i, j| layout.rank_of_block(i, j));
            let mut plans: Vec<Plan> = (0..layout.p()).map(|_| Plan::default()).collect();
            for directed in [false, true] {
                for r4 in [R4Strategy::OneToOne, R4Strategy::SequentialUnits] {
                    for l in 1..=h {
                        let build = |rank, plan: &mut Plan| {
                            let me = layout.block_of_rank(rank);
                            sparse2d::level_plan(&layout, l, me, directed, r4, plan).to_vec()
                        };
                        let ctx = format!("h={h} l={l} ({r4:?}, directed {directed})");
                        check_phase(&mut plans, &sizes, &owner, build, &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn fw2d_plans_pair_up_and_agree_on_order() {
        // up to p = 3 969, with zero-size blocks where n < n_grid
        for (n, n_grid) in [(1, 1), (3, 2), (2, 3), (11, 4), (5, 8), (100, 63)] {
            let grid = Grid::new(n, n_grid);
            let owner = |i, j| grid.rank_of(i, j);
            let mut plans: Vec<Plan> = (0..n_grid * n_grid).map(|_| Plan::default()).collect();
            for t in 1..=n_grid {
                let build = |rank, plan: &mut Plan| {
                    fw2d::round_plan(&grid, t, grid.block_of(rank), plan);
                    vec![plan.ops.len()]
                };
                let ctx = format!("n={n} n_grid={n_grid} t={t}");
                check_phase(&mut plans, &grid.sizes, &owner, build, &ctx);
            }
        }
    }

    #[test]
    fn dcapsp_plans_pair_up_and_agree_on_order() {
        // recursion depths 0–2 and cyclic oversubscription 0–2 (no
        // recursion) on grid sides 1–4
        for ng in 1..=4 {
            for split in 0..=2u32 {
                for rec_depth in [split, 0] {
                    let geo = Cyclic::new(ng << split, ng, split);
                    let owner = |i, j| geo.rank_of((i % ng, j % ng));
                    let mut all = Vec::new();
                    dcapsp::phases(0..geo.tiles, rec_depth, &mut all);
                    let mut plans: Vec<Plan> = (0..ng * ng).map(|_| Plan::default()).collect();
                    let mut seqs = vec![0; ng * ng];
                    for (at, phase) in all.iter().enumerate() {
                        let build = |rank, plan: &mut Plan| {
                            let me = geo.coords(rank);
                            dcapsp::phase_plan(&geo, phase, me, &mut seqs[rank], plan);
                            vec![plan.ops.len()]
                        };
                        let kind = if matches!(phase, Phase::BaseFw(_)) { "base" } else { "summa" };
                        let ctx = format!("ng={ng} split={split} depth={rec_depth} {kind} {at}");
                        check_phase(&mut plans, &geo.sizes(), &owner, build, &ctx);
                    }
                }
            }
        }
    }
}
