#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # apsp-transport
//!
//! The communication surface the distributed solvers are written against,
//! abstracted from any particular machine. The [`Transport`] trait captures
//! exactly what `sparse2d`, `fw2d`, `dcapsp`, and `djohnson` use of a
//! communicator — point-to-point messaging, binomial-tree collectives,
//! cost/memory charging, phase commits, and RAII spans — so the identical
//! SPMD rank programs run on:
//!
//! * [`apsp_simnet::Comm`] — the §3.1 cost-model simulator, with every
//!   Table-2/verification/fault/recovery guarantee.
//! * [`NativeComm`] — a real shared-memory backend: `p` pooled OS threads,
//!   one std `mpsc` inbox per rank, no cost clocks, genuine wall-clock
//!   time. See [`NativeMachine`].
//!
//! Both are the same rank endpoint ([`apsp_simnet::Endpoint`]) — one
//! frame format, one reliability protocol, one watchdog, one checkpoint
//! commit, one epoch runner — differing only in the [`apsp_simnet::Meter`]
//! plugged into it, so there is one `impl Transport` for both, and the
//! full robustness stack ([`MachineSpec::faults`],
//! [`MachineSpec::recovery`], the shared supervisor
//! [`apsp_simnet::supervise`]) runs on either. Both machines take the
//! same [`MachineSpec`] through one [`Machine::launch`], so a caller
//! picks a machine by type and everything else by value.
//!
//! ## Collectives
//!
//! Every collective operates on an explicit **group**: a sorted,
//! duplicate-free list of ranks that must contain the caller; all group
//! members must call the collective with the same arguments (group, root,
//! tag) in the same relative order — the usual MPI contract. Trees are
//! *binomial*, so a `g`-member collective costs `⌈log₂ g⌉` message rounds
//! on the critical path, and moving `w` words costs `O(w)` per round.
//! Each collective stirs the caller-provided tag with the message's role
//! so that schedule bugs surface as tag panics instead of data corruption.
//!
//! The collectives exist once, as the trait's default methods, for every
//! machine: same virtual-index scheme, same mask walk, same combine
//! order. Floating-point reduction order is therefore identical on every
//! backend, which is what makes cross-backend distance matrices
//! bit-identical rather than merely close (`tests/differential.rs`
//! asserts `f64` equality, not tolerance), and on the simulator their
//! §3.1 costs emerge from the sends they are built of (pinned by the
//! `transport_digest` golden test).
//!
//! See `docs/BACKENDS.md` for the full contract (FIFO non-overtaking, tag
//! semantics, phase commits, and what the native backend does *not*
//! provide).

mod native;

pub use native::{NativeComm, NativeMachine, NativeMeter};

// The sync shim lives next to the endpoint it serves; re-exported so the
// native machine and its loom suite keep one gateway.
pub use apsp_simnet::sync;

// The shared panic-triage helpers (quiet typed-panic hook, cascade-marker
// classification) live in `apsp_simnet::cascade` because the crate DAG
// points transport → simnet; re-exported here so backend-agnostic callers
// need only this crate.
pub use apsp_simnet::cascade;

pub use apsp_simnet::{MachineRun, MachineSpec};

use apsp_simnet::{Clocks, CollectiveKind, Comm, Endpoint, MachineError, Meter, Rank, SpanGuard};
use std::ops::DerefMut;

/// A machine that runs SPMD rank programs: `p` ranks, each handed its own
/// [`Transport`], under whatever the [`MachineSpec`] switches on. The rank
/// program is monomorphised per machine — picking one is a type, not a
/// branch per message.
pub trait Machine {
    /// The communicator a rank of this machine is handed.
    type Comm: Transport;

    /// Runs `f(comm)` on `p` ranks under `spec`.
    ///
    /// # Errors
    /// The typed error the run died with; see
    /// [`apsp_simnet::Machine::launch`] and [`NativeMachine::launch`].
    fn launch<T, F>(p: usize, spec: &MachineSpec<'_>, f: F) -> Result<MachineRun<T>, MachineError>
    where
        T: Send,
        F: Fn(&mut Self::Comm) -> T + Sync;
}

impl Machine for apsp_simnet::Machine {
    type Comm = Comm;

    fn launch<T, F>(p: usize, spec: &MachineSpec<'_>, f: F) -> Result<MachineRun<T>, MachineError>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        apsp_simnet::Machine::launch(p, spec, f)
    }
}

impl Machine for NativeMachine {
    type Comm = NativeComm;

    fn launch<T, F>(p: usize, spec: &MachineSpec<'_>, f: F) -> Result<MachineRun<T>, MachineError>
    where
        T: Send,
        F: Fn(&mut NativeComm) -> T + Sync,
    {
        NativeMachine::launch(p, spec, f)
    }
}

/// Position of `rank` in `group`.
///
/// # Panics
/// Panics when `rank` is not a member — calling a collective from outside
/// its group is always a schedule bug.
fn position(group: &[Rank], rank: Rank) -> usize {
    debug_assert!(group.windows(2).all(|w| w[0] < w[1]), "group must be sorted unique");
    group
        .iter()
        .position(|&r| r == rank)
        .unwrap_or_else(|| panic!("rank {rank} not in group {group:?}"))
}

/// The communication surface of one SPMD rank.
///
/// Implementations must provide MPI's per-`(src, dst)` FIFO non-overtaking
/// guarantee for point-to-point messages, tag checking on receives (a tag
/// mismatch is always a schedule bug and must fail loudly), and monotone
/// phase boundaries. Cost charging (`compute`/`alloc`/`release`/`clocks`)
/// may be a no-op on backends without a cost model.
pub trait Transport: Sized {
    /// RAII span guard returned by [`Transport::span`]. Derefs to the
    /// communicator so sends, receives, collectives, and nested spans all
    /// go through the guard; the span closes when the guard drops (LIFO).
    type Span<'s>: DerefMut<Target = Self>
    where
        Self: 's;

    /// This rank's id.
    fn rank(&self) -> Rank;

    /// Total rank count `p`.
    fn p(&self) -> usize;

    /// Sends `payload` to `dst`. Never blocks. Self-sends are a schedule
    /// bug and panic.
    fn send(&mut self, dst: Rank, tag: u64, payload: Vec<f64>);

    /// Receives the next message from `src` (FIFO per source; blocks).
    /// Panics when the arriving message's tag differs from `expected_tag`.
    fn recv(&mut self, src: Rank, expected_tag: u64) -> Vec<f64>;

    /// Records `ops` scalar operations of local compute (no-op without a
    /// cost model).
    fn compute(&mut self, ops: u64);

    /// Tracks an allocation of `words` words of resident data (no-op
    /// without a cost model).
    fn alloc(&mut self, words: usize);

    /// Releases previously tracked words (no-op without a cost model).
    fn release(&mut self, words: usize);

    /// Current critical-path clocks. Backends without a cost model return
    /// [`Clocks::default`] (all zero).
    fn clocks(&self) -> Clocks;

    /// Opens a phase span; see [`Transport::Span`].
    fn span(&mut self, name: &'static str, tag: u64) -> Self::Span<'_>;

    /// `true` when the current phase must actually execute — always,
    /// except under a recovery supervisor while skipping phases a restored
    /// checkpoint already covers.
    fn phase_live(&self) -> bool;

    /// Marks a phase boundary, handing the solver's per-rank `state`
    /// through the (optional) checkpoint layer.
    fn commit_phase(&mut self, state: Vec<f64>) -> Vec<f64>;

    /// Records entry into a collective on backends that keep a comm
    /// script (no-op otherwise — the default). The collectives call it
    /// right after opening their span, so every recording backend's
    /// script carries the same [`apsp_simnet::CommEvent::Collective`]
    /// entries and the protocol linter's collective-order check covers
    /// every machine.
    fn record_collective(&mut self, kind: CollectiveKind, group: &[Rank], root: Rank, tag: u64) {
        let _ = (kind, group, root, tag);
    }

    /// Binomial-tree broadcast of `data` from `root` to the whole group.
    /// The root passes `Some(data)`, everyone else `None`; every member
    /// returns the broadcast payload.
    fn bcast(&mut self, group: &[Rank], root: Rank, tag: u64, data: Option<Vec<f64>>) -> Vec<f64> {
        let mut s = self.span("bcast", tag);
        s.record_collective(CollectiveKind::Bcast, group, root, tag);
        bcast_tree(&mut *s, group, root, tag, data)
    }

    /// Binomial-tree reduction of every member's `contribution` to `root`,
    /// combining with `combine(acc, incoming)`. Returns `Some(result)` on
    /// the root, `None` elsewhere.
    fn reduce(
        &mut self,
        group: &[Rank],
        root: Rank,
        tag: u64,
        contribution: Vec<f64>,
        combine: impl Fn(&mut Vec<f64>, &[f64]),
    ) -> Option<Vec<f64>> {
        let mut s = self.span("reduce", tag);
        s.record_collective(CollectiveKind::Reduce, group, root, tag);
        reduce_tree(&mut *s, group, root, tag, contribution, combine)
    }

    /// Element-wise minimum reduction — the `⊕`-combine every distance
    /// block reduction in the workspace uses.
    fn reduce_min(
        &mut self,
        group: &[Rank],
        root: Rank,
        tag: u64,
        contribution: Vec<f64>,
    ) -> Option<Vec<f64>> {
        self.reduce(group, root, tag, contribution, |acc, inc| min_select(acc, inc))
    }

    /// Linear gather to `root`: returns `Some(payloads in group order)` on
    /// the root (the root's own entry included), `None` elsewhere.
    /// Costs `O(g)` latency on the root — used only where the paper's
    /// schedule allows it (base cases, result collection).
    fn gather(
        &mut self,
        group: &[Rank],
        root: Rank,
        tag: u64,
        payload: Vec<f64>,
    ) -> Option<Vec<Vec<f64>>> {
        let mut s = self.span("gather", tag);
        s.record_collective(CollectiveKind::Gather, group, root, tag);
        gather_linear(&mut *s, group, root, tag, payload)
    }

    /// Linear scatter from `root`: the root passes one payload per member
    /// (group order); every member returns its slice.
    fn scatter(
        &mut self,
        group: &[Rank],
        root: Rank,
        tag: u64,
        payloads: Option<Vec<Vec<f64>>>,
    ) -> Vec<f64> {
        let mut s = self.span("scatter", tag);
        s.record_collective(CollectiveKind::Scatter, group, root, tag);
        scatter_linear(&mut *s, group, root, tag, payloads)
    }

    /// Tree barrier over the group: a zero-word reduce followed by a
    /// zero-word broadcast (`2⌈log₂ g⌉` latency).
    fn barrier(&mut self, group: &[Rank], tag: u64) {
        let mut s = self.span("barrier", tag);
        s.record_collective(CollectiveKind::Barrier, group, group[0], tag);
        let this = &mut *s;
        let root = group[0];
        let done = reduce_tree(this, group, root, tag ^ 0xBA55, Vec::new(), |_, _| {});
        let _ = bcast_tree(this, group, root, tag ^ 0xBA55, done.map(|_| Vec::new()));
    }

    /// All-gather over the group: every member contributes a payload and
    /// receives everyone's payloads **in group order**. Implemented as a
    /// concatenating tree reduce to `group[0]` followed by a broadcast —
    /// `O(log g)` latency, `O(total · log g)` critical-path bandwidth.
    /// Contributions may have different lengths (zero-length ones are
    /// preserved).
    fn allgather(&mut self, group: &[Rank], tag: u64, payload: Vec<f64>) -> Vec<Vec<f64>> {
        let mut s = self.span("allgather", tag);
        s.record_collective(CollectiveKind::Allgather, group, group[0], tag);
        let this = &mut *s;
        let me = position(group, this.rank());
        // frame: [index, len, words...] triplets concatenated
        let mut framed = Vec::with_capacity(payload.len() + 2);
        framed.push(me as f64);
        framed.push(payload.len() as f64);
        framed.extend_from_slice(&payload);
        let root = group[0];
        let gathered = reduce_tree(this, group, root, tag ^ 0xA116, framed, |acc, inc| {
            acc.extend_from_slice(inc);
        });
        let all = bcast_tree(this, group, root, tag ^ 0xA117, gathered);
        // unframe into group order
        let mut out: Vec<Vec<f64>> = (0..group.len()).map(|_| Vec::new()).collect();
        let mut cursor = 0usize;
        let mut seen = 0usize;
        while cursor < all.len() {
            let idx = all[cursor] as usize;
            let len = all[cursor + 1] as usize;
            out[idx] = all[cursor + 2..cursor + 2 + len].to_vec();
            cursor += 2 + len;
            seen += 1;
        }
        assert_eq!(seen, group.len(), "allgather lost contributions");
        out
    }

    /// All-reduce over the group: a reduce to `group[0]` followed by a
    /// broadcast of the combined value (`2⌈log₂ g⌉` latency).
    fn allreduce(
        &mut self,
        group: &[Rank],
        tag: u64,
        contribution: Vec<f64>,
        combine: impl Fn(&mut Vec<f64>, &[f64]),
    ) -> Vec<f64> {
        let mut s = self.span("allreduce", tag);
        s.record_collective(CollectiveKind::Allreduce, group, group[0], tag);
        let this = &mut *s;
        let root = group[0];
        let combined = reduce_tree(this, group, root, tag ^ 0xA11E, contribution, combine);
        bcast_tree(this, group, root, tag ^ 0xA11F, combined)
    }

    /// Element-wise minimum all-reduce. Where every member but one
    /// contributes `+∞`, every member gets that one's word, bit for bit.
    fn allreduce_min(&mut self, group: &[Rank], tag: u64, contribution: Vec<f64>) -> Vec<f64> {
        self.allreduce(group, tag, contribution, |acc, inc| min_select(acc, inc))
    }
}

/// The `⊕`-combine of [`Transport::reduce_min`] and
/// [`Transport::allreduce_min`]: a strict `<`, so on a tie `acc` keeps its
/// own bits.
fn min_select(acc: &mut [f64], inc: &[f64]) {
    debug_assert_eq!(acc.len(), inc.len(), "reduction shape mismatch");
    for (a, &b) in acc.iter_mut().zip(inc) {
        if b < *a {
            *a = b;
        }
    }
}

// ---------------------------------------------------------------------------
// The binomial trees. One mask walk, virtual-index scheme, tag stirring and
// combine order for every machine, so reductions apply `combine` in the
// identical sequence on every backend (f64 bit-compatibility).
// ---------------------------------------------------------------------------

fn bcast_tree<C: Transport>(
    c: &mut C,
    group: &[Rank],
    root: Rank,
    tag: u64,
    data: Option<Vec<f64>>,
) -> Vec<f64> {
    let g = group.len();
    let me = position(group, c.rank());
    let root_pos = position(group, root);
    if c.rank() == root {
        assert!(data.is_some(), "broadcast root must supply the payload");
    } else {
        assert!(data.is_none(), "non-root must not supply a payload");
    }
    if g == 1 {
        return data.expect("single-member broadcast is the root");
    }
    let rel = (me + g - root_pos) % g; // virtual index, root at 0
    let actual = |virt: usize| group[(virt + root_pos) % g];

    // receive phase: lowest set bit of `rel` determines the parent
    let mut payload = data;
    let mut mask = 1usize;
    while mask < g {
        if rel & mask != 0 {
            let parent = actual(rel - mask);
            payload = Some(c.recv(parent, tag ^ 0xB0AD));
            break;
        }
        mask <<= 1;
    }
    // send phase: forward to children at decreasing distances
    let payload = payload.expect("root or received");
    let mut mask = mask >> 1;
    while mask > 0 {
        if rel + mask < g {
            let child = actual(rel + mask);
            c.send(child, tag ^ 0xB0AD, payload.clone());
        }
        mask >>= 1;
    }
    payload
}

fn reduce_tree<C: Transport>(
    c: &mut C,
    group: &[Rank],
    root: Rank,
    tag: u64,
    contribution: Vec<f64>,
    combine: impl Fn(&mut Vec<f64>, &[f64]),
) -> Option<Vec<f64>> {
    let g = group.len();
    let me = position(group, c.rank());
    let root_pos = position(group, root);
    if g == 1 {
        return Some(contribution);
    }
    let rel = (me + g - root_pos) % g;
    let actual = |virt: usize| group[(virt + root_pos) % g];

    let mut acc = contribution;
    let mut mask = 1usize;
    while mask < g {
        if rel & mask == 0 {
            let partner = rel | mask;
            if partner < g {
                let incoming = c.recv(actual(partner), tag ^ 0x5EDC);
                combine(&mut acc, &incoming);
            }
        } else {
            let parent = actual(rel & !mask);
            c.send(parent, tag ^ 0x5EDC, acc);
            return None;
        }
        mask <<= 1;
    }
    Some(acc)
}

fn gather_linear<C: Transport>(
    c: &mut C,
    group: &[Rank],
    root: Rank,
    tag: u64,
    payload: Vec<f64>,
) -> Option<Vec<Vec<f64>>> {
    position(group, c.rank());
    position(group, root);
    if c.rank() != root {
        c.send(root, tag ^ 0x6A78, payload);
        return None;
    }
    let mut out = Vec::with_capacity(group.len());
    for &r in group {
        if r == root {
            out.push(payload.clone());
        } else {
            out.push(c.recv(r, tag ^ 0x6A78));
        }
    }
    Some(out)
}

fn scatter_linear<C: Transport>(
    c: &mut C,
    group: &[Rank],
    root: Rank,
    tag: u64,
    payloads: Option<Vec<Vec<f64>>>,
) -> Vec<f64> {
    position(group, c.rank());
    position(group, root);
    if c.rank() == root {
        let mut payloads = payloads.expect("scatter root supplies payloads");
        assert_eq!(payloads.len(), group.len(), "one payload per member");
        let mut mine = Vec::new();
        for (pos, &r) in group.iter().enumerate() {
            let data = std::mem::take(&mut payloads[pos]);
            if r == c.rank() {
                mine = data;
            } else {
                c.send(r, tag ^ 0x5CA7, data);
            }
        }
        mine
    } else {
        assert!(payloads.is_none(), "non-root must not supply payloads");
        c.recv(root, tag ^ 0x5CA7)
    }
}

// ---------------------------------------------------------------------------
// Every machine built on the shared endpoint is a Transport: the required
// methods are the endpoint's own, and the collectives are the defaults
// above.
// ---------------------------------------------------------------------------

impl<M: Meter> Transport for Endpoint<M> {
    type Span<'s>
        = SpanGuard<'s, M>
    where
        M: 's;

    fn rank(&self) -> Rank {
        Endpoint::rank(self)
    }

    fn p(&self) -> usize {
        Endpoint::p(self)
    }

    fn send(&mut self, dst: Rank, tag: u64, payload: Vec<f64>) {
        Endpoint::send(self, dst, tag, payload);
    }

    fn recv(&mut self, src: Rank, expected_tag: u64) -> Vec<f64> {
        Endpoint::recv(self, src, expected_tag)
    }

    fn compute(&mut self, ops: u64) {
        Endpoint::compute(self, ops);
    }

    fn alloc(&mut self, words: usize) {
        Endpoint::alloc(self, words);
    }

    fn release(&mut self, words: usize) {
        Endpoint::release(self, words);
    }

    fn clocks(&self) -> Clocks {
        Endpoint::clocks(self)
    }

    fn span(&mut self, name: &'static str, tag: u64) -> SpanGuard<'_, M> {
        Endpoint::span(self, name, tag)
    }

    fn phase_live(&self) -> bool {
        Endpoint::phase_live(self)
    }

    fn commit_phase(&mut self, state: Vec<f64>) -> Vec<f64> {
        Endpoint::commit_phase(self, state)
    }

    fn record_collective(&mut self, kind: CollectiveKind, group: &[Rank], root: Rank, tag: u64) {
        Endpoint::record_collective(self, kind, group, root, tag);
    }
}

// The collectives' §3.1 bills on the simulator (their outputs on both
// machines are compared in `tests/collectives_prop.rs`). Gated off under
// `--cfg loom`: `Machine::run` would need a model around it.
#[cfg(all(test, not(loom)))]
mod tests {
    use super::Transport;
    use apsp_simnet::Machine;

    #[test]
    fn bcast_delivers_to_all_group_sizes() {
        for g in 1..=9usize {
            let group: Vec<usize> = (0..g).collect();
            let (outs, report) = Machine::run(g, |comm| {
                let data = if comm.rank() == 0 { Some(vec![42.0, 7.0]) } else { None };
                comm.bcast(&group, 0, 1, data)
            });
            for out in outs {
                assert_eq!(out, vec![42.0, 7.0]);
            }
            // binomial tree: ⌈log2 g⌉ rounds of 2 words
            let rounds = (g as f64).log2().ceil() as u64;
            assert_eq!(report.critical_latency(), rounds, "g={g}");
            assert_eq!(report.critical_bandwidth(), 2 * rounds, "g={g}");
        }
    }

    #[test]
    fn bcast_nontrivial_root_and_subgroup() {
        // group {1, 3, 4, 6} of a 7-rank machine, root 4
        let group = vec![1, 3, 4, 6];
        let (outs, _) = Machine::run(7, |comm| {
            if group.contains(&comm.rank()) {
                let data = if comm.rank() == 4 { Some(vec![5.5]) } else { None };
                Some(comm.bcast(&group, 4, 9, data))
            } else {
                None
            }
        });
        for (r, out) in outs.iter().enumerate() {
            if group.contains(&r) {
                assert_eq!(out.as_deref(), Some(&[5.5][..]));
            } else {
                assert!(out.is_none());
            }
        }
    }

    #[test]
    fn reduce_min_combines_everything() {
        for g in 1..=9usize {
            let group: Vec<usize> = (0..g).collect();
            let (outs, report) = Machine::run(g, |comm| {
                let r = comm.rank() as f64;
                // contribution: [r, -r]
                comm.reduce_min(&group, 0, 3, vec![r, -r])
            });
            assert_eq!(outs[0].as_deref(), Some(&[0.0, -(g as f64 - 1.0)][..]));
            for out in outs.iter().skip(1) {
                assert!(out.is_none());
            }
            let rounds = (g as f64).log2().ceil() as u64;
            assert_eq!(report.critical_latency(), rounds, "g={g}");
        }
    }

    #[test]
    fn reduce_with_shifted_root() {
        let group = vec![0, 1, 2, 3, 4];
        let (outs, _) = Machine::run(5, |comm| {
            let r = comm.rank() as f64;
            comm.reduce(&group, 3, 4, vec![r], |acc, inc| acc[0] += inc[0])
        });
        assert_eq!(outs[3].as_deref(), Some(&[10.0][..]));
        for (r, out) in outs.iter().enumerate() {
            assert_eq!(out.is_some(), r == 3);
        }
    }

    #[test]
    fn gather_in_group_order() {
        let group = vec![0, 2, 3];
        let (outs, _) = Machine::run(4, |comm| {
            if group.contains(&comm.rank()) {
                comm.gather(&group, 2, 5, vec![comm.rank() as f64])
            } else {
                None
            }
        });
        assert_eq!(outs[2], Some(vec![vec![0.0], vec![2.0], vec![3.0]]));
    }

    #[test]
    fn scatter_distributes_slices() {
        let group = vec![0, 1, 2];
        let (outs, _) = Machine::run(3, |comm| {
            let payloads = (comm.rank() == 1).then(|| vec![vec![10.0], vec![11.0], vec![12.0]]);
            comm.scatter(&group, 1, 6, payloads)
        });
        assert_eq!(outs, vec![vec![10.0], vec![11.0], vec![12.0]]);
    }

    #[test]
    fn barrier_synchronizes_clock_floor() {
        let group = vec![0, 1, 2, 3];
        let (_, report) = Machine::run(4, |comm| {
            if comm.rank() == 2 {
                comm.compute(1000);
            }
            comm.barrier(&group, 0);
            // after the barrier every rank's compute clock has absorbed
            // rank 2's 1000 ops
            assert!(comm.clocks().compute >= 1000);
        });
        assert_eq!(report.critical_compute(), 1000);
    }

    #[test]
    fn concurrent_disjoint_collectives_share_critical_path() {
        // two disjoint groups broadcast simultaneously: latency = one tree
        let (_, report) = Machine::run(8, |comm| {
            let r = comm.rank();
            let group: Vec<usize> = if r < 4 { (0..4).collect() } else { (4..8).collect() };
            let root = group[0];
            let data = (r == root).then(|| vec![1.0; 16]);
            comm.bcast(&group, root, 2, data);
        });
        assert_eq!(report.critical_latency(), 2); // ⌈log2 4⌉
        assert_eq!(report.total_messages(), 6);
    }

    #[test]
    fn allgather_returns_group_order_and_varied_sizes() {
        let group = vec![0, 2, 3];
        let (outs, report) = Machine::run(4, |comm| {
            if !group.contains(&comm.rank()) {
                return None;
            }
            let mine: Vec<f64> = (0..comm.rank()).map(|x| x as f64).collect();
            Some(comm.allgather(&group, 8, mine))
        });
        for r in &group {
            let got = outs[*r].as_ref().unwrap();
            assert_eq!(got.len(), 3);
            assert_eq!(got[0], Vec::<f64>::new());
            assert_eq!(got[1], vec![0.0, 1.0]);
            assert_eq!(got[2], vec![0.0, 1.0, 2.0]);
        }
        assert!(report.critical_latency() <= 2 * 2 + 2, "tree depth bound");
    }

    #[test]
    fn allreduce_sums_everywhere() {
        let group: Vec<usize> = (0..6).collect();
        let (outs, _) = Machine::run(6, |comm| {
            comm.allreduce(&group, 9, vec![comm.rank() as f64, 1.0], |acc, inc| {
                acc[0] += inc[0];
                acc[1] += inc[1];
            })
        });
        for out in outs {
            assert_eq!(out, vec![15.0, 6.0]);
        }
    }

    #[test]
    #[should_panic(expected = "not in group")]
    fn outsider_calling_collective_panics() {
        let _ = Machine::run(2, |comm| {
            let group = vec![0];
            let data = (comm.rank() == 0).then(|| vec![1.0]);
            comm.bcast(&group, 0, 0, data)
        });
    }
}
