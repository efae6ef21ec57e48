//! Distributed Johnson-style APSP: replicate the graph, partition the
//! sources — the "embarrassingly parallel" baseline the paper's related
//! work dismisses for scalability ("due to the data-dependent structure,
//! it is difficult to scalably parallelize", §2).
//!
//! We implement it anyway, honestly: rank 0 broadcasts the CSR arrays
//! (`O((n + m)·log p)` words), every rank runs Dijkstra from its `n/p`
//! sources, and each rank *keeps* its row block (no gather — like the
//! other algorithms, results stay distributed). Measured profile:
//!
//! * bandwidth `O((n + m)·log p)` — tiny for sparse graphs;
//! * latency `O(log p)`;
//! * **compute** `O(n·(m + n log n)/p)` per rank, but data-dependent and
//!   heap-bound — the semiring structure the paper's algorithms exploit
//!   (blocked min-plus products) is lost, along with any possibility of
//!   communication-avoiding *updates* (dynamic graphs, batched queries).
//!
//! Having this baseline keeps the reproduction honest about regimes: for a
//! one-shot APSP on a very sparse graph, source-parallel Dijkstra wins on
//! volume; the paper's contribution is the latency-optimal FW-structured
//! computation (see EXPERIMENTS.md E15).

use crate::fw2d::balanced_sizes;
use crate::launch::{launch_plain, DenseResult, Solver};
use apsp_graph::{oracle, Csr, DenseDist};
use apsp_simnet::RunReport;
use apsp_transport::Transport;

/// Serializes a CSR into one word vector: `[n, m2, xadj…, adj…, w…]`.
fn pack_graph(g: &Csr) -> Vec<f64> {
    let n = g.n();
    let mut out = Vec::with_capacity(2 + n + 1 + 4 * g.m());
    out.push(n as f64);
    out.push((2 * g.m()) as f64);
    for u in 0..=n {
        out.push(if u == 0 {
            0.0
        } else {
            g.neighbors(u - 1).len() as f64 // lengths; prefix-summed below
        });
    }
    for u in 0..n {
        for (v, _) in g.edges_of(u) {
            out.push(v as f64);
        }
    }
    for u in 0..n {
        for (_, w) in g.edges_of(u) {
            out.push(w);
        }
    }
    out
}

/// Inverse of [`pack_graph`].
fn unpack_graph(data: &[f64]) -> Csr {
    let n = data[0] as usize;
    let m2 = data[1] as usize;
    let mut xadj = Vec::with_capacity(n + 1);
    let mut acc = 0usize;
    for i in 0..=n {
        acc += data[2 + i] as usize;
        xadj.push(acc);
    }
    let adj: Vec<u32> = data[3 + n..3 + n + m2].iter().map(|&x| x as u32).collect();
    let w: Vec<f64> = data[3 + n + m2..3 + n + 2 * m2].to_vec();
    Csr::from_raw(xadj, adj, w)
}

/// Replicated-graph, source-partitioned Johnson/Dijkstra APSP as a
/// [`Solver`] on `p` ranks. Phase 1 replicates the graph, phase 2 runs
/// Dijkstra from this rank's sources; each phase ends at a checkpointable
/// boundary whose state is exactly the phase's output vector. All
/// communication is the single replication broadcast, so recorded scripts
/// reduce to one `main` phase.
pub struct DJohnson {
    n: usize,
    /// `offsets[r]..offsets[r + 1]` are rank `r`'s sources.
    offsets: Vec<usize>,
    /// The packed graph rank 0 broadcasts.
    packed: Vec<f64>,
    /// The full-machine broadcast group.
    group: Vec<usize>,
}

impl DJohnson {
    /// The solver for `g` on `p` ranks.
    pub fn new(g: &Csr, p: usize) -> Self {
        assert!(g.has_nonnegative_weights(), "undirected APSP requires non-negative weights");
        let mut offsets = vec![0usize];
        let mut acc = 0;
        for s in balanced_sizes(g.n(), p) {
            acc += s;
            offsets.push(acc);
        }
        DJohnson { n: g.n(), offsets, packed: pack_graph(g), group: (0..p).collect() }
    }
}

impl Solver for DJohnson {
    type Out = Vec<f64>;
    type Result = DenseResult;
    const PHASE: &'static str = "solve-djohnson";

    fn p(&self) -> usize {
        self.group.len()
    }

    fn rank_program<C: Transport>(&self, comm: &mut C) -> Vec<f64> {
        let n = self.n;
        // phase 1: graph replication (rank 0 holds the input)
        let mut state = if comm.phase_live() {
            let payload = (comm.rank() == 0).then(|| self.packed.clone());
            let data = comm.bcast(&self.group, 0, 0x10, payload);
            comm.alloc(data.len());
            data
        } else {
            Vec::new()
        };
        state = comm.commit_phase(state);
        // phase 2: source-partitioned Dijkstra over the replicated graph
        let out = if comm.phase_live() {
            let local = unpack_graph(&state);
            let r = comm.rank();
            let my_sources = self.offsets[r]..self.offsets[r + 1];
            let mut out = Vec::with_capacity(my_sources.len() * n);
            let mut ops = 0u64;
            for s in my_sources {
                let row = oracle::dijkstra(&local, s);
                // charge ~ (m + n)·log n heap operations' scalar work
                ops += (local.m() as u64 * 2 + n as u64)
                    * (usize::BITS - n.max(2).leading_zeros()) as u64;
                out.extend_from_slice(&row);
            }
            comm.compute(ops);
            comm.alloc(out.len());
            out
        } else {
            Vec::new()
        };
        comm.commit_phase(out)
    }

    fn assemble(&self, rows: Vec<Vec<f64>>, report: RunReport) -> DenseResult {
        let n = self.n;
        let mut dist = DenseDist::unconnected(n);
        for (r, block) in rows.into_iter().enumerate() {
            for (k, chunk) in block.chunks_exact(n.max(1)).enumerate() {
                let s = self.offsets[r] + k;
                for (t, &d) in chunk.iter().enumerate() {
                    dist.set(s, t, d);
                }
            }
        }
        DenseResult { dist, report }
    }

    fn words(out: Vec<f64>) -> Vec<f64> {
        out
    }
}

/// Runs the replicated-graph, source-partitioned Johnson/Dijkstra APSP on
/// `p` simulated ranks; every other way to run it is a
/// [`crate::launch::LaunchSpec`] on [`DJohnson::new`].
pub fn distributed_johnson(g: &Csr, p: usize) -> DenseResult {
    launch_plain(&DJohnson::new(g, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{self, WeightKind};

    #[test]
    fn pack_unpack_roundtrip() {
        let g = generators::grid2d(4, 5, WeightKind::Integer { max: 7 }, 1);
        let packed = pack_graph(&g);
        let h = unpack_graph(&packed);
        assert_eq!(g, h);
    }

    #[test]
    fn matches_oracle_on_meshes() {
        let g = generators::grid2d(7, 7, WeightKind::Uniform { lo: 0.2, hi: 2.0 }, 3);
        let result = distributed_johnson(&g, 9);
        let reference = oracle::apsp_dijkstra(&g);
        assert!(result.dist.first_mismatch(&reference, 1e-9).is_none());
        // replication: total volume ≈ (graph words)·(something ≤ p)
        assert!(result.report.total_words() > 0);
    }

    #[test]
    fn handles_more_ranks_than_sources() {
        let g = generators::path(5, WeightKind::Unit, 0);
        let result = distributed_johnson(&g, 9);
        let reference = oracle::apsp_dijkstra(&g);
        assert!(result.dist.first_mismatch(&reference, 1e-9).is_none());
    }

    #[test]
    fn disconnected_graph() {
        let mut b = apsp_graph::GraphBuilder::new(10);
        b.add_edge(0, 1, 1.0);
        b.add_edge(8, 9, 4.0);
        let g = b.build();
        let result = distributed_johnson(&g, 4);
        let reference = oracle::apsp_dijkstra(&g);
        assert!(result.dist.first_mismatch(&reference, 1e-9).is_none());
    }

    #[test]
    fn latency_is_logarithmic() {
        let g = generators::grid2d(8, 8, WeightKind::Unit, 0);
        let r9 = distributed_johnson(&g, 9).report;
        let r49 = distributed_johnson(&g, 49).report;
        // one broadcast: L = ceil(log2 p)
        assert_eq!(r9.critical_latency(), 4);
        assert_eq!(r49.critical_latency(), 6);
    }
}
