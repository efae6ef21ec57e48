//! What only the traced run does: probes of single layers on the
//! workload's own shapes (its blocks, its rank count) and process counters
//! read around a solve. None of it feeds an end-to-end metric.

use crate::lifecycle::{Oracle, Tally};
use crate::spec::Workload;
use crate::stats::minimum;
use crate::trace::Tracer;
use apsp_core::driver::ApspRun;
use apsp_core::superfw::{superfw_apsp, SuperFwStats};
use apsp_core::{Backend, SolvedApsp, SparseApsp, SparseApspConfig, SupernodalLayout};
use apsp_graph::{Csr, DenseDist, Permutation};
use apsp_minplus::{fw_in_place, gemm, MinPlusMatrix};
use apsp_partition::NdOrdering;
use apsp_transport::{NativeMachine, Transport};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Allgather payload cap (words per rank).
const ALLGATHER_MAX_WORDS: usize = 1 << 16;
const PINGPONG_ROUNDS: usize = 2_000;
const SCALING_NAMES: [[&str; 3]; 3] = [
    ["simnet.h2.critical_latency", "simnet.h2.critical_bandwidth", "simnet.h2.critical_compute"],
    ["simnet.h3.critical_latency", "simnet.h3.critical_bandwidth", "simnet.h3.critical_compute"],
    ["simnet.h4.critical_latency", "simnet.h4.critical_bandwidth", "simnet.h4.critical_compute"],
];
const LEVEL_NAMES: [[&str; 2]; 4] = [
    ["sparse2d.level1.latency", "sparse2d.level1.bandwidth"],
    ["sparse2d.level2.latency", "sparse2d.level2.bandwidth"],
    ["sparse2d.level3.latency", "sparse2d.level3.bandwidth"],
    ["sparse2d.level4.latency", "sparse2d.level4.bandwidth"],
];

/// The exact work counts of `minplus::perf::counters()`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KernelCounts {
    pub gemm_ops: u64,
    pub fw_ops: u64,
    pub gemm_calls: u64,
    pub fw_calls: u64,
    pub bytes_touched: u64,
    pub inf_row_skips: u64,
}

impl KernelCounts {
    pub fn now() -> Self {
        let c = apsp_minplus::perf::counters();
        KernelCounts {
            gemm_ops: c.gemm_ops.get(),
            fw_ops: c.fw_ops.get(),
            gemm_calls: c.gemm_calls.get(),
            fw_calls: c.fw_calls.get(),
            bytes_touched: c.bytes_touched.get(),
            inf_row_skips: c.inf_row_skips.get(),
        }
    }

    pub fn since(self, earlier: KernelCounts) -> Self {
        KernelCounts {
            gemm_ops: self.gemm_ops - earlier.gemm_ops,
            fw_ops: self.fw_ops - earlier.fw_ops,
            gemm_calls: self.gemm_calls - earlier.gemm_calls,
            fw_calls: self.fw_calls - earlier.fw_calls,
            bytes_touched: self.bytes_touched - earlier.bytes_touched,
            inf_row_skips: self.inf_row_skips - earlier.inf_row_skips,
        }
    }
}

/// Block `(i, j)` of a distance matrix given in input vertex ids.
fn closed_block(
    dist: &DenseDist,
    layout: &SupernodalLayout,
    perm: &Permutation,
    i: usize,
    j: usize,
) -> MinPlusMatrix {
    let (ri, rj) = (layout.range(i), layout.range(j));
    MinPlusMatrix::from_fn(ri.len(), rj.len(), |r, c| {
        dist.get(perm.to_old(ri.start + r), perm.to_old(rj.start + c))
    })
}

/// One layer probe: a call into a layer's public functions on operands of
/// this workload's shape. Each is a stage of the traced run's rounds, like
/// the six operations, and reports the fastest of its repetitions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Probe {
    /// What `SparseApsp::run` and `SolvedApsp::solve` both do first:
    /// order, validate, lay out, permute, extract — a span around each.
    Prepare,
    /// The same input on `Backend::Sim`: the paper's Table 2 quantities.
    SimnetSolve,
    /// `superfw_apsp`: the plain single-threaded run of the same problem.
    SuperfwSerial,
    /// `fw_in_place` on the largest diagonal adjacency block (what `R¹`
    /// closes).
    FwOwnBlock,
    /// `gemm` updating that supernode's diagonal block through the top
    /// separator, `C(i,i) ⊕= D(i,S) ⊗ D(S,i)`: the largest product of `R³`.
    GemmOwnPanels,
    /// `NativeMachine::run(p, no-op)`: starting and joining the ranks.
    SpawnJoin,
    /// One-word round trips between two ranks.
    PingPong,
    /// An allgather of a mean-block-sized payload along every grid row at
    /// once (the exchange pattern of the panel updates).
    Allgather,
    Assemble,
    Unpermute,
    Dense,
    Save,
    Load,
}

impl Probe {
    pub const ALL: [Probe; 13] = [
        Probe::Prepare,
        Probe::SimnetSolve,
        Probe::SuperfwSerial,
        Probe::FwOwnBlock,
        Probe::GemmOwnPanels,
        Probe::SpawnJoin,
        Probe::PingPong,
        Probe::Allgather,
        Probe::Assemble,
        Probe::Unpermute,
        Probe::Dense,
        Probe::Save,
        Probe::Load,
    ];

    /// Name of the span around the probe's call.
    pub fn span(self) -> &'static str {
        match self {
            Probe::Prepare => "prepare",
            Probe::SimnetSolve => "simnet.solve",
            Probe::SuperfwSerial => "superfw.serial",
            Probe::FwOwnBlock => "minplus.fw_in_place",
            Probe::GemmOwnPanels => "minplus.gemm",
            Probe::SpawnJoin => "transport.spawn_join",
            Probe::PingPong => "transport.pingpong",
            Probe::Allgather => "transport.allgather",
            Probe::Assemble => "supernodal.assemble",
            Probe::Unpermute => "supernodal.unpermute",
            Probe::Dense => "solved.dense",
            Probe::Save => "solved.save",
            Probe::Load => "solved.load",
        }
    }
}

/// What the solver prepares before its ranks start.
struct Prepared {
    ordering: NdOrdering,
    layout: SupernodalLayout,
    g_perm: Csr,
}

fn prepare_pass(solver: &SparseApsp, g: &Csr, tr: &mut Tracer) -> Prepared {
    let (ordering, _) = tr.span("partition.order", |_| solver.ordering_for(g));
    tr.span("partition.validate", |_| ordering.validate(g))
        .expect("the ordering separates cousins");
    let layout = tr.span("supernodal.layout", |_| SupernodalLayout::from_ordering(&ordering));
    let g_perm = tr.span("graph.permute", |_| g.permuted(&ordering.perm));
    black_box(tr.span("supernodal.extract", |_| layout.extract_all_blocks(&g_perm)));
    Prepared { ordering, layout, g_perm }
}

/// The operands of every probe, built once before the rounds, and what
/// the probes leave behind for the metrics and the checks.
pub struct Probes<'a> {
    w: &'static Workload,
    g: &'a Csr,
    solver: &'a SparseApsp,
    sim: SparseApsp,
    prepared: Prepared,
    /// A handle of its own, never updated.
    handle: SolvedApsp,
    blocks: Vec<MinPlusMatrix>,
    eliminated: DenseDist,
    fw_block: MinPlusMatrix,
    gemm_operands: [MinPlusMatrix; 3],
    snapshot: PathBuf,
    // left behind
    fw_ops: u64,
    gemm_ops: u64,
    simulated: Option<ApspRun>,
    serial: Option<(DenseDist, SuperFwStats)>,
    restored: Option<Result<SolvedApsp, String>>,
}

impl<'a> Probes<'a> {
    pub fn new(
        w: &'static Workload,
        g: &'a Csr,
        solver: &'a SparseApsp,
            out_dir: &std::path::Path,
    ) -> Self {
        let mut off = Tracer::new(false, w.name);
        let prepared = prepare_pass(solver, g, &mut off);
        let Prepared { ordering, layout, g_perm } = &prepared;
        let handle = SolvedApsp::solve(g, w.height);
        let dist = handle.dense();
        let largest = (1..=layout.n_super()).max_by_key(|&k| layout.size(k)).expect("a supernode");
        let top = layout.n_super();
        let blocks = layout.extract_all_blocks(g_perm);
        std::fs::create_dir_all(out_dir).expect("the output directory can be created");
        Probes {
            w,
            g,
            solver,
            sim: SparseApsp::new(w.solver_config(Backend::Sim)),
            handle,
            eliminated: layout.assemble_dense(&blocks),
            blocks,
            fw_block: layout.extract_block(g_perm, largest, largest),
            gemm_operands: [
                closed_block(&dist, layout, &ordering.perm, largest, largest),
                closed_block(&dist, layout, &ordering.perm, largest, top),
                closed_block(&dist, layout, &ordering.perm, top, largest),
            ],
            snapshot: out_dir.join(format!("snapshot-{}.txt", w.name)),
            prepared,
            fw_ops: 0,
            gemm_ops: 0,
            simulated: None,
            serial: None,
            restored: None,
        }
    }

    /// Runs one repetition of `probe` inside its span and returns the
    /// seconds of the timed region.
    pub fn run(&mut self, probe: Probe, tr: &mut Tracer) -> f64 {
        let name = probe.span();
        let Prepared { ordering, layout, .. } = &self.prepared;
        match probe {
            Probe::Prepare => tr.timed(name, |tr| prepare_pass(self.solver, self.g, tr)).0,
            Probe::SimnetSolve => {
                let (seconds, run) = tr.timed(name, |_| self.sim.run(black_box(self.g)));
                self.simulated = Some(run);
                seconds
            }
            Probe::SuperfwSerial => {
                let (seconds, out) = tr.timed(name, |_| superfw_apsp(black_box(self.g), ordering));
                self.serial = Some(out);
                seconds
            }
            Probe::FwOwnBlock => {
                let mut block = self.fw_block.clone();
                let (seconds, ops) = tr.timed(name, |_| fw_in_place(black_box(&mut block)));
                black_box(block);
                self.fw_ops = ops;
                seconds
            }
            Probe::GemmOwnPanels => {
                let [c0, a, b] = &self.gemm_operands;
                let mut c = c0.clone();
                let (seconds, ops) = tr.timed(name, |_| gemm(black_box(&mut c), a, b));
                black_box(c);
                self.gemm_ops = ops;
                seconds
            }
            Probe::SpawnJoin => tr.timed(name, |_| NativeMachine::run(self.w.ranks(), |_| ())).0,
            Probe::PingPong => {
                let (_, (elapsed, _)) = tr.timed(name, |_| {
                    NativeMachine::run(2, |comm| {
                        let t = Instant::now();
                        for round in 0..PINGPONG_ROUNDS as u64 {
                            if comm.rank() == 0 {
                                comm.send(1, round, vec![round as f64]);
                                black_box(comm.recv(1, round));
                            } else {
                                let word = comm.recv(0, round);
                                comm.send(0, round, word);
                            }
                        }
                        t.elapsed().as_secs_f64()
                    })
                });
                elapsed[0]
            }
            Probe::Allgather => {
                let (p, side, words) = self.allgather_shape();
                let everyone: Vec<usize> = (0..p).collect();
                let (_, (elapsed, _)) = tr.timed(name, |_| {
                    NativeMachine::run(p, |comm| {
                        let row = comm.rank() / side;
                        let group: Vec<usize> = (row * side..(row + 1) * side).collect();
                        comm.barrier(&everyone, 1);
                        let t = Instant::now();
                        black_box(comm.allgather(&group, 2, vec![1.0; words]));
                        t.elapsed().as_secs_f64()
                    })
                });
                elapsed.into_iter().fold(0.0, f64::max)
            }
            Probe::Assemble => {
                let (seconds, dense) = tr.timed(name, |_| layout.assemble_dense(&self.blocks));
                black_box(dense);
                seconds
            }
            Probe::Unpermute => {
                let (seconds, dense) = tr
                    .timed(name, |_| SupernodalLayout::unpermute(&self.eliminated, &ordering.perm));
                black_box(dense);
                seconds
            }
            Probe::Dense => {
                let (seconds, dense) = tr.timed(name, |_| self.handle.dense());
                black_box(dense);
                seconds
            }
            Probe::Save => {
                let (seconds, saved) = tr.timed(name, |_| self.handle.save(&self.snapshot));
                saved.expect("the snapshot can be written");
                seconds
            }
            Probe::Load => {
                if !self.snapshot.exists() {
                    self.handle.save(&self.snapshot).expect("the snapshot can be written");
                }
                let (seconds, restored) = tr.timed(name, |_| SolvedApsp::load(&self.snapshot));
                self.restored = Some(restored);
                seconds
            }
        }
    }

    /// Rank count, grid side and words per rank of the allgather probe.
    fn allgather_shape(&self) -> (usize, usize, usize) {
        let p = self.w.ranks();
        let side = p.isqrt();
        (p, side, (self.g.n() / side).pow(2).clamp(1, ALLGATHER_MAX_WORDS))
    }

    /// The per-layer metrics the probes give, from each probe's seconds
    /// (in `Probe::ALL` order) and from what the probes left behind; checks
    /// the distances they produced against `reference`. `counts` are the
    /// kernel counts and `solve_s` the seconds of one pinned native solve.
    pub fn finish(
        self,
        seconds: &[Vec<f64>],
        counts: KernelCounts,
        solve_s: f64,
        tr: &Tracer,
        tally: &mut Tally,
        reference: &Oracle,
    ) -> Vec<(&'static str, f64)> {
        // `Probe::ALL` is in declaration order
        let of = |probe: Probe| &seconds[probe as usize];
        let fastest = |probe: Probe| minimum(of(probe));
        let (p, side, words) = self.allgather_shape();
        let Prepared { ordering, layout, g_perm } = &self.prepared;
        let census = layout.empty_block_census(g_perm);
        let mut layer = vec![
            ("partition.order_s", tr.min_s("partition.order")),
            ("partition.validate_s", tr.min_s("partition.validate")),
            ("partition.top_separator", ordering.top_separator() as f64),
            ("partition.max_separator", ordering.max_separator() as f64),
            ("supernodal.layout_s", tr.min_s("supernodal.layout")),
            ("supernodal.empty_block_share", census.empty as f64 / census.total as f64),
            ("supernodal.assemble_s", fastest(Probe::Assemble)),
            ("supernodal.unpermute_s", fastest(Probe::Unpermute)),
            ("solved.dense_s", fastest(Probe::Dense)),
            ("solved.save_s", fastest(Probe::Save)),
            ("solved.load_s", fastest(Probe::Load)),
        ];
        let snapshot_bytes = std::fs::metadata(&self.snapshot).map_or(0, |m| m.len());
        let _ = std::fs::remove_file(&self.snapshot);
        layer.push(("solved.snapshot_mb", snapshot_bytes as f64 / (1 << 20) as f64));
        let round_trip = self
            .restored
            .expect("the load probe ran")
            .and_then(|restored| reference.check(|s, v| restored.distance(s, v)));
        tally.record(1, "snapshot round trip", round_trip);

        // kernels and transport on this workload's own shapes
        let fw_rate = self.fw_ops as f64 / fastest(Probe::FwOwnBlock);
        let gemm_rate = self.gemm_ops as f64 / fastest(Probe::GemmOwnPanels);
        let kernel_est_s = counts.fw_ops as f64 / fw_rate + counts.gemm_ops as f64 / gemm_rate;
        let gathered = (p * side * words) as f64;
        layer.extend([
            ("minplus.fw_relax_per_s", fw_rate),
            ("minplus.gemm_relax_per_s", gemm_rate),
            ("minplus.kernel_est_s", kernel_est_s),
            ("minplus.kernel_share", kernel_est_s / solve_s),
            ("transport.spawn_join_s", fastest(Probe::SpawnJoin)),
            ("transport.pingpong_per_s", PINGPONG_ROUNDS as f64 / fastest(Probe::PingPong)),
            ("transport.allgather_words_per_s", gathered / fastest(Probe::Allgather)),
        ]);

        // the plain single-threaded run of the same problem
        let (serial_dist, serial_stats) = self.serial.expect("the serial probe ran");
        tally.record(1, "serial solve", reference.check(|s, v| serial_dist.get(s, v)));
        layer.extend([
            ("superfw.serial_s", fastest(Probe::SuperfwSerial)),
            ("superfw.ops", serial_stats.ops as f64),
        ]);

        // the simulator on the same input: the paper's Table 2 quantities
        // at this workload's h, and strong scaling as counts
        let own = self.simulated.expect("the simulator probe ran");
        let sim_s = fastest(Probe::SimnetSolve);
        for h in [2, 3, 4] {
            let other;
            let result = if h == self.w.height {
                &own
            } else {
                let config = SparseApspConfig { height: h, ..self.w.solver_config(Backend::Sim) };
                other = SparseApsp::new(config).run(self.g);
                &other
            };
            tally.record(1, "simulated solve", reference.check(|s, v| result.dist.get(s, v)));
            let report = &result.report;
            let names = SCALING_NAMES[h as usize - 2];
            layer.extend([
                (names[0], report.critical_latency() as f64),
                (names[1], report.critical_bandwidth() as f64),
                (names[2], report.critical_compute() as f64),
            ]);
        }
        let report = &own.report;
        layer.extend([
            ("simnet.solve_s", sim_s),
            ("simnet.overhead_ratio", sim_s / solve_s),
            ("simnet.messages", report.total_messages() as f64),
            ("simnet.words", report.total_words() as f64),
            ("simnet.critical_latency", report.critical_latency() as f64),
            ("simnet.critical_bandwidth", report.critical_bandwidth() as f64),
            ("simnet.critical_compute", report.critical_compute() as f64),
            ("simnet.max_peak_words", report.max_peak_words() as f64),
        ]);
        // a tree of height h has levels 1..=h; higher ones cost nothing
        for (l, [latency, bandwidth]) in LEVEL_NAMES.into_iter().enumerate() {
            let (lat, bw) = own.level_costs.get(l).copied().unwrap_or((0, 0));
            layer.extend([(latency, lat as f64), (bandwidth, bw as f64)]);
        }
        layer
    }
}
