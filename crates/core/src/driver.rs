//! End-to-end public API: partition → permute → distribute → run → gather.

use crate::dnd::DistNd;
use crate::launch::{launch, reject_sim_only_on_native, verify, LaunchSpec};
pub use crate::sparse2d::Input;
use crate::sparse2d::{R4Strategy, Sparse2d, Sparse2dOptions};
use crate::supernodal::SupernodalLayout;
use apsp_graph::{Csr, DenseDist, DiCsr};
use apsp_partition::{grid_nd, nested_dissection, NdOptions, NdOrdering};
use apsp_simnet::{
    CommEvent, FaultPlan, FaultSummary, Machine, MachineError, MachineSpec, RecoveryPolicy,
    RecoveryReport, RunReport,
};
use apsp_transport::Transport;

/// Which execution backend runs the distributed solve.
///
/// Both backends execute the *identical* SPMD schedule — same messages,
/// same tags, same collectives — so the distance matrices they produce
/// are bit-for-bit equal. They differ in what the run measures:
///
/// * [`Backend::Sim`] is the §3.1 simulated machine (`apsp-simnet`):
///   exact latency/bandwidth/compute clocks, fault injection, tracing,
///   profiling, checkpoint/restart.
/// * [`Backend::Native`] runs the schedule on `p` pooled OS threads, one
///   inbox per rank (`apsp-transport`): no cost clocks (the report's
///   counters are all zero), but real wall-clock execution — the backend
///   for timing the actual message pattern. Fault injection and
///   checkpoint/restart run here too (the same seeded plans, with
///   `kill=` rules unwinding the killed rank's program); only tracing,
///   profiling, and cost accounting stay simulator-only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The simulated distributed machine with §3.1 cost accounting.
    #[default]
    Sim,
    /// Native shared-memory execution: OS threads, no cost model.
    Native,
}

impl Backend {
    /// Parses a CLI backend name.
    ///
    /// # Errors
    /// A readable message naming the accepted values.
    pub fn parse(s: &str) -> Result<Backend, String> {
        match s {
            "sim" => Ok(Backend::Sim),
            "native" => Ok(Backend::Native),
            other => Err(format!("unknown backend {other} (expected sim or native)")),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Sim => "sim",
            Backend::Native => "native",
        })
    }
}

/// How the nested-dissection ordering is obtained.
#[derive(Clone, Copy, Debug)]
pub enum Ordering {
    /// Multilevel ND (`apsp-partition`), computed host-side — works on any
    /// graph; distribution can still be charged via
    /// [`SparseApspConfig::charge_ordering_distribution`].
    Multilevel,
    /// Exact geometric ND for a `rows × cols` grid graph (vertex ids must
    /// follow [`apsp_graph::generators::grid2d`]).
    Grid {
        /// Mesh row count.
        rows: usize,
        /// Mesh column count.
        cols: usize,
    },
    /// Distributed ND computed **on the configured backend's machine** (the
    /// §5.4.4 pipeline, [`crate::dnd::DistNd`]); on the simulator its
    /// measured cost is folded into the run report.
    Distributed,
}

/// Configuration of a [`SparseApsp`] run.
#[derive(Clone, Copy, Debug)]
pub struct SparseApspConfig {
    /// Elimination-tree height `h`; the machine has `p = (2^h − 1)²` ranks.
    pub height: u32,
    /// Ordering strategy.
    pub ordering: Ordering,
    /// `R⁴` scheduling strategy (§5.2.2).
    pub r4: R4Strategy,
    /// Ship structurally empty blocks as header-only messages.
    pub compress_empty: bool,
    /// Also run the §5.4.4 ordering-distribution step on the machine and
    /// fold its cost into the report (scatter of the permutation).
    pub charge_ordering_distribution: bool,
    /// Collect the observability payload: span ledgers, the p×p
    /// communication matrix, and the event stream land on
    /// [`RunReport::profile`]. Every on-machine stage of the pipeline runs
    /// profiled, so the merged profile still satisfies the exact-sum
    /// invariant of [`apsp_simnet::PhaseBreakdown`].
    pub profile: bool,
    /// Checkpoint/restart policy for [`SparseApsp::run_faulty`]. `None`
    /// (the default) keeps the historical fail-fast behaviour: the first
    /// unrecoverable fault aborts the solve. `Some(policy)` supervises the
    /// solve instead — elimination levels are checkpointed and killed
    /// ranks roll back and re-execute (see
    /// [`crate::launch::LaunchSpec::recovery`]), on either backend.
    pub recovery: Option<RecoveryPolicy>,
    /// Execution backend for the distributed solve. [`Backend::Native`]
    /// is incompatible with the simulator-only features (`profile`,
    /// `charge_ordering_distribution`) — the driver panics with a
    /// readable message rather than silently dropping them.
    pub backend: Backend,
}

impl Default for SparseApspConfig {
    fn default() -> Self {
        SparseApspConfig {
            height: 2,
            ordering: Ordering::Multilevel,
            r4: R4Strategy::OneToOne,
            compress_empty: false,
            charge_ordering_distribution: false,
            profile: false,
            recovery: None,
            backend: Backend::default(),
        }
    }
}

/// The outcome of an end-to-end run.
pub struct ApspRun {
    /// All-pairs distances in the input graph's vertex ids.
    pub dist: DenseDist,
    /// Measured communication/computation report (the algorithm itself;
    /// plus the ordering scatter when configured).
    pub report: RunReport,
    /// The ordering used (separator sizes feed the cost formulas).
    pub ordering: NdOrdering,
    /// Per-elimination-level `(latency, bandwidth)` critical-path deltas
    /// (Lemmas 5.6, 5.8, 5.9) — excludes the ordering-distribution step.
    pub level_costs: Vec<(u64, u64)>,
    /// Fault history, present when the run went through
    /// [`SparseApsp::run_faulty`]: injected/recovered counts per rank
    /// (`unrecoverable` is always 0 on a run that returned).
    pub faults: Option<FaultSummary>,
    /// Checkpoint/restart ledger, present when the run was supervised
    /// ([`SparseApspConfig::recovery`] set): restarts, rollback bytes,
    /// spare takeovers.
    pub recovery: Option<RecoveryReport>,
}

impl ApspRun {
    /// Reconstructs one shortest path from the computed distances — greedy
    /// neighbour descent over `g`, no predecessor matrices needed
    /// (see [`apsp_graph::paths::reconstruct_path`]).
    pub fn path(&self, g: &Csr, src: usize, dst: usize) -> Option<Vec<usize>> {
        apsp_graph::paths::reconstruct_path(g, &self.dist, src, dst, 1e-9)
    }
}

/// The 2D-SPARSE-APSP solver — the crate's main entry point.
///
/// ```
/// use apsp_core::{SparseApsp, SparseApspConfig};
/// use apsp_graph::generators::{grid2d, WeightKind};
///
/// let g = grid2d(6, 6, WeightKind::Unit, 0);
/// let run = SparseApsp::new(SparseApspConfig::default()).run(&g);
/// assert_eq!(run.dist.get(0, 1), 1.0);
/// assert!(run.report.critical_latency() > 0);
/// ```
pub struct SparseApsp {
    config: SparseApspConfig,
}

/// What every entry point computes before the machine starts.
struct Prepared {
    nd: NdOrdering,
    ordering_report: RunReport,
    layout: SupernodalLayout,
    opts: Sparse2dOptions,
}

impl Prepared {
    /// Permutes `input` into the eliminated ordering and hands the solver
    /// over it to `f`.
    fn with_solver<R>(&self, input: Input<'_>, f: impl FnOnce(&Sparse2d<'_>) -> R) -> R {
        let perm = &self.nd.perm;
        match input {
            Input::Undirected(g) => f(&Sparse2d::new(&self.layout, &g.permuted(perm), &self.opts)),
            Input::Directed(dg) => f(&Sparse2d::new(&self.layout, &dg.permuted(perm), &self.opts)),
        }
    }
}

impl SparseApsp {
    /// Creates a solver with the given configuration.
    pub fn new(config: SparseApspConfig) -> Self {
        SparseApsp { config }
    }

    /// Solver on `p = (2^h − 1)²` simulated ranks with defaults.
    pub fn with_height(height: u32) -> Self {
        SparseApsp::new(SparseApspConfig { height, ..Default::default() })
    }

    /// Computes the ordering this configuration would use for `g` and the
    /// communication report of computing it (empty unless distributed).
    pub fn ordering_for(&self, g: &Csr) -> (NdOrdering, RunReport) {
        let _wall = apsp_metrics::time_phase("ordering");
        match self.config.ordering {
            Ordering::Multilevel => (
                nested_dissection(g, self.config.height, &NdOptions::default()),
                RunReport::default(),
            ),
            Ordering::Grid { rows, cols } => {
                assert_eq!(rows * cols, g.n(), "grid shape does not match the graph");
                (grid_nd(rows, cols, self.config.height), RunReport::default())
            }
            Ordering::Distributed => {
                let h = self.config.height;
                let p = ((1usize << h) - 1) * ((1usize << h) - 1);
                let spec = LaunchSpec {
                    backend: self.config.backend,
                    profile: self.config.profile,
                    ..Default::default()
                };
                let result = launch(&DistNd::new(g, h, p, 0), &spec)
                    .expect("fault-free launch cannot fail")
                    .result;
                (result.ordering, result.report)
            }
        }
    }

    /// The front every entry point shares: weights check → ordering →
    /// validation → layout → schedule options.
    fn prepare(&self, input: Input<'_>) -> Prepared {
        let pattern_of_directed;
        let pattern = match input {
            Input::Undirected(g) => {
                assert!(
                    g.has_nonnegative_weights(),
                    "undirected APSP requires non-negative weights (a negative \
                     undirected edge is a negative cycle)"
                );
                g
            }
            Input::Directed(dg) => {
                assert!(
                    dg.has_nonnegative_weights(),
                    "directed APSP requires non-negative finite weights"
                );
                pattern_of_directed = dg.underlying_pattern();
                &pattern_of_directed
            }
        };
        let (nd, ordering_report) = self.ordering_for(pattern);
        // O(m) check, negligible next to the solve; an ordering violating
        // the cousin-separation invariant would make the distributed
        // algorithm silently wrong, so this is always on.
        nd.validate(pattern).expect("ordering violates the §4.1 separation invariant");
        let layout = SupernodalLayout::from_ordering(&nd);
        let opts =
            Sparse2dOptions { r4: self.config.r4, compress_empty: self.config.compress_empty };
        Prepared { nd, ordering_report, layout, opts }
    }

    /// The pipeline behind [`SparseApsp::run`], [`SparseApsp::run_directed`],
    /// [`SparseApsp::run_faulty`] and [`SparseApsp::run_recorded`]: the
    /// configuration plus (`faults`, `record`) make the one
    /// [`LaunchSpec`] the solve is launched under.
    fn solve(
        &self,
        input: Input<'_>,
        faults: Option<&FaultPlan>,
        record: bool,
    ) -> Result<(ApspRun, Vec<Vec<CommEvent>>), MachineError> {
        let config = &self.config;
        let _wall = apsp_metrics::time_phase("driver-run");
        apsp_metrics::counter("apsp_driver_solves_total", "Full pipeline solves started.").inc();
        reject_sim_only_on_native(
            config.backend,
            config.profile,
            config.charge_ordering_distribution,
        );
        let prep = self.prepare(input);
        let mut report = RunReport::default();
        report.absorb(&prep.ordering_report);
        if config.charge_ordering_distribution {
            report.absorb(&distribute_ordering_cost(&prep.layout, &prep.nd, config.profile));
        }
        let spec = LaunchSpec {
            backend: config.backend,
            faults,
            recovery: faults.and(config.recovery),
            profile: config.profile,
            trace: false,
            record,
        };
        let run = prep.with_solver(input, |solver| launch(solver, &spec))?;
        report.absorb(&run.result.report);
        let apsp = ApspRun {
            dist: SupernodalLayout::unpermute(&run.result.dist_eliminated, &prep.nd.perm),
            report,
            level_costs: run.result.level_costs(),
            ordering: prep.nd,
            faults: run.faults,
            recovery: run.recovery,
        };
        Ok((apsp, run.scripts))
    }

    /// Runs the full pipeline on `g`. Distances come back in the input
    /// vertex numbering; `report` holds the measured critical-path costs.
    pub fn run(&self, g: &Csr) -> ApspRun {
        self.solve(g.into(), None, false).expect("fault-free launch cannot fail").0
    }

    /// Runs the full pipeline on a **directed** graph (asymmetric weights
    /// over a symmetric pattern): nested dissection on the underlying
    /// pattern, then the directed schedule ([`Input::Directed`]). The
    /// distance matrix is generally asymmetric.
    pub fn run_directed(&self, dg: &DiCsr) -> ApspRun {
        self.solve(dg.into(), None, false).expect("fault-free launch cannot fail").0
    }

    /// Runs the full pipeline on a **directed** graph that may carry
    /// negative arcs (no negative cycles) — the §3.2 generality of the
    /// paper, meaningful in the directed setting. Johnson potentials
    /// re-weight the arcs non-negative (host-side Bellman–Ford), the
    /// directed solve runs, and distances are shifted back.
    ///
    /// # Errors
    /// Returns the negative-cycle report from the re-weighting phase.
    pub fn run_directed_negative(&self, dg: &DiCsr) -> Result<ApspRun, String> {
        let (rg, h) = apsp_graph::digraph::johnson_reweight(dg)?;
        let mut run = self.run_directed(&rg);
        // shift distances back: d(u,v) = d'(u,v) − h(u) + h(v)
        let n = dg.n();
        for u in 0..n {
            for v in 0..n {
                let d = run.dist.get(u, v);
                if d.is_finite() {
                    run.dist.set(u, v, d - h[u] + h[v]);
                }
            }
        }
        Ok(run)
    }

    /// Like [`SparseApsp::run`], additionally returning every rank's
    /// recorded comm script of the solve — the cost-model auditor's
    /// sampling hook (`apsp audit`): [`apsp_simnet::phase_totals`] turns
    /// the scripts into per-phase (`level`, `r1`–`r4`) ledgers whose
    /// growth exponents are fitted against Theorems 5.7/5.10. Recording
    /// never touches the §3.1 clocks, so the report is byte-identical to
    /// `run`'s. (The theorems bound the solve alone: audit under a
    /// host-side ordering, whose cost report is empty.)
    pub fn run_recorded(&self, g: &Csr) -> (ApspRun, Vec<Vec<CommEvent>>) {
        self.solve(g.into(), None, true).expect("fault-free launch cannot fail")
    }

    /// Verifies the configured pipeline's communication schedule for `g`
    /// without running the plain solve: the ordering and layout are
    /// computed exactly as in [`SparseApsp::run`], then the schedule goes
    /// through [`crate::launch::verify`] on the configured backend (see
    /// `docs/VERIFICATION.md`).
    pub fn verify(&self, g: &Csr, vopts: &apsp_verify::VerifyOptions) -> apsp_verify::VerifyReport {
        let input = Input::Undirected(g);
        self.prepare(input).with_solver(input, |solver| verify(solver, self.config.backend, vopts))
    }

    /// Runs the full pipeline on `g` — undirected or directed — with a
    /// deterministic fault plan active during the distributed solve. The
    /// ordering is computed host-side exactly as in [`SparseApsp::run`]
    /// (an ordering corrupted by a fault would be a different experiment);
    /// the solve itself runs under the plan and must recover or fail.
    ///
    /// On success, [`ApspRun::faults`] carries the injected/recovered
    /// counts and the recovery traffic is part of [`ApspRun::report`].
    /// With [`SparseApspConfig::recovery`] set, the solve additionally
    /// survives killed ranks and dead links by rolling back to the last
    /// checkpointed elimination level, and [`ApspRun::recovery`] reports
    /// the restart/rollback ledger.
    ///
    /// # Errors
    /// A [`MachineError`] naming the first undeliverable message (or, on a
    /// supervised run, a typed [`apsp_simnet::Unrecoverable`] once the
    /// restart budget is exhausted) — the run never returns silently wrong
    /// distances.
    pub fn run_faulty<'a>(
        &self,
        g: impl Into<Input<'a>>,
        plan: &FaultPlan,
    ) -> Result<ApspRun, MachineError> {
        self.solve(g.into(), Some(plan), false).map(|(run, _)| run)
    }
}

/// The §5.4.4 ordering-distribution step, measured on the machine: rank 0
/// broadcasts the permutation (`n` words) and the supernode sizes
/// (`N = √p` words); every rank derives its own block ranges from the
/// sizes. This is the replicated-ordering pattern real sparse solvers use,
/// and it costs `O(log p)` latency / `O(n·log p)` bandwidth — subsumed by
/// the APSP cost, as §5.4.4 claims. The separator *computation* itself
/// happens host-side (see DESIGN.md §1 — the paper likewise adopts the
/// cited parallel partitioner \[18\] rather than presenting one); its cited
/// cost is reported separately by `bounds::separator_bandwidth/latency`.
fn distribute_ordering_cost(
    layout: &SupernodalLayout,
    nd: &NdOrdering,
    profile: bool,
) -> RunReport {
    let p = layout.p();
    let perm: Vec<f64> = nd.perm.as_order().iter().map(|&x| x as f64).collect();
    let sizes: Vec<f64> = (1..=layout.n_super()).map(|k| layout.size(k) as f64).collect();
    let group: Vec<usize> = (0..p).collect();
    let program = |comm: &mut apsp_simnet::Comm| {
        let mut span = comm.span("distribute-ordering", 0);
        let comm: &mut apsp_simnet::Comm = &mut span;
        // permutation broadcast
        let payload = (comm.rank() == 0).then(|| perm.clone());
        let data = comm.bcast(&group, 0, 0x0D157, payload);
        comm.alloc(data.len());
        // supernode-size broadcast; each rank derives its block ranges
        let payload = (comm.rank() == 0).then(|| sizes.clone());
        let sizes = comm.bcast(&group, 0, 0x0D158, payload);
        let (i, j) = layout.block_of_rank(comm.rank());
        let rows = sizes[i - 1] as usize;
        let cols = sizes[j - 1] as usize;
        assert_eq!((rows, cols), (layout.size(i), layout.size(j)));
    };
    Machine::launch(p, &MachineSpec { profile, ..Default::default() }, program)
        .expect("fault-free launch cannot fail")
        .report
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{self, WeightKind};
    use apsp_graph::oracle;

    #[test]
    fn default_config_end_to_end() {
        let g = generators::grid2d(6, 6, WeightKind::Integer { max: 5 }, 1);
        let run = SparseApsp::new(SparseApspConfig::default()).run(&g);
        let reference = oracle::apsp_dijkstra(&g);
        assert!(run.dist.first_mismatch(&reference, 1e-9).is_none());
        assert!(run.report.critical_latency() > 0);
        assert!(run.ordering.validate(&g).is_ok());
    }

    #[test]
    fn grid_ordering_end_to_end() {
        let g = generators::grid2d(8, 8, WeightKind::Uniform { lo: 0.5, hi: 1.5 }, 2);
        let config = SparseApspConfig {
            height: 3,
            ordering: Ordering::Grid { rows: 8, cols: 8 },
            ..Default::default()
        };
        let run = SparseApsp::new(config).run(&g);
        let reference = oracle::apsp_dijkstra(&g);
        assert!(run.dist.first_mismatch(&reference, 1e-9).is_none());
    }

    #[test]
    fn ordering_distribution_adds_cost() {
        let g = generators::grid2d(6, 6, WeightKind::Unit, 0);
        let base = SparseApsp::new(SparseApspConfig::default()).run(&g);
        let charged = SparseApsp::new(SparseApspConfig {
            charge_ordering_distribution: true,
            ..Default::default()
        })
        .run(&g);
        assert!(charged.report.total_words() > base.report.total_words());
        let reference = oracle::apsp_dijkstra(&g);
        assert!(charged.dist.first_mismatch(&reference, 1e-9).is_none());
    }

    #[test]
    fn negative_arcs_solved_via_reweighting() {
        // mesh pattern with some negative forward arcs, no negative cycles:
        // make a DAG-ish orientation carry the negatives (row-major order)
        let base = generators::grid2d(5, 5, WeightKind::Unit, 0);
        let mut b = apsp_graph::DiGraphBuilder::new(base.n());
        for (idx, (u, v, _)) in base.edges().enumerate() {
            // u < v always (edges() yields ordered pairs): negatives only
            // forward along the order → acyclic negative structure
            let fwd = if idx % 5 == 0 { -1.0 } else { 1.0 + (idx % 3) as f64 };
            b.add_arc(u, v, fwd);
            b.add_arc(v, u, 2.0 + (idx % 4) as f64);
        }
        let dg = b.build();
        let run = SparseApsp::with_height(2).run_directed_negative(&dg).unwrap();
        // verify against directed Bellman–Ford per source
        for s in [0usize, 7, 24] {
            let truth = apsp_graph::digraph::bellman_ford_directed(&dg, s).unwrap();
            for (t, &d) in truth.iter().enumerate() {
                let got = run.dist.get(s, t);
                assert!(
                    (got - d).abs() < 1e-9 || (got.is_infinite() && d.is_infinite()),
                    "({s},{t}): {got} vs {d}"
                );
            }
        }
        // negative distances actually appear
        assert!((0..dg.n()).any(|t| run.dist.get(0, t) < 0.0));
    }

    #[test]
    fn negative_cycle_is_reported() {
        let mut b = apsp_graph::DiGraphBuilder::new(3);
        b.add_arc(0, 1, 1.0);
        b.add_arc(1, 2, -3.0);
        b.add_arc(2, 0, 1.0);
        let dg = b.build();
        assert!(SparseApsp::with_height(2).run_directed_negative(&dg).is_err());
    }

    #[test]
    fn directed_end_to_end() {
        // a mesh with one-way "streets": forward weights only on odd edges
        let base = generators::grid2d(6, 6, WeightKind::Unit, 0);
        let mut b = apsp_graph::DiGraphBuilder::new(base.n());
        for (idx, (u, v, _)) in base.edges().enumerate() {
            b.add_arc(u, v, 1.0 + (idx % 3) as f64);
            if idx % 4 != 0 {
                b.add_arc(v, u, 1.0 + (idx % 5) as f64);
            }
        }
        let dg = b.build();
        let run = SparseApsp::with_height(2).run_directed(&dg);
        let reference = apsp_graph::digraph::apsp_dijkstra_directed(&dg);
        assert!(run.dist.first_mismatch(&reference, 1e-9).is_none());
        // asymmetric distances really occur
        let asym = (0..dg.n())
            .flat_map(|i| (0..dg.n()).map(move |j| (i, j)))
            .any(|(i, j)| (run.dist.get(i, j) - run.dist.get(j, i)).abs() > 1e-9);
        assert!(asym, "expected at least one asymmetric pair");
    }

    #[test]
    fn distributed_ordering_end_to_end() {
        let g = generators::grid2d(8, 8, WeightKind::Integer { max: 4 }, 6);
        let config =
            SparseApspConfig { height: 3, ordering: Ordering::Distributed, ..Default::default() };
        let run = SparseApsp::new(config).run(&g);
        let reference = oracle::apsp_dijkstra(&g);
        assert!(run.dist.first_mismatch(&reference, 1e-9).is_none());
        // the pipeline cost is included
        let host_only =
            SparseApsp::new(SparseApspConfig { height: 3, ..Default::default() }).run(&g);
        assert!(run.report.total_words() > host_only.report.total_words());
    }

    #[test]
    fn profiled_run_breakdown_sums_to_critical_totals() {
        let g = generators::grid2d(8, 8, WeightKind::Integer { max: 4 }, 3);
        let config = SparseApspConfig { height: 3, profile: true, ..Default::default() };
        let run = SparseApsp::new(config).run(&g);
        let reference = oracle::apsp_dijkstra(&g);
        assert!(run.dist.first_mismatch(&reference, 1e-9).is_none());
        let bd = run.report.phase_breakdown(0).expect("profiled run carries a breakdown");
        assert!(bd.exact, "uniform SPMD schedule should attribute exactly");
        let total = bd.total();
        assert_eq!(total.latency, run.report.critical_latency());
        assert_eq!(total.bandwidth, run.report.critical_bandwidth());
        assert_eq!(total.compute, run.report.critical_compute());
        // one `level` phase per elimination level
        let levels = bd.rows.iter().filter(|r| r.name == "level").count();
        assert_eq!(levels, 3);
    }

    #[test]
    fn profiled_pipeline_with_distribution_stays_exact() {
        let g = generators::grid2d(6, 6, WeightKind::Unit, 0);
        let config = SparseApspConfig {
            charge_ordering_distribution: true,
            profile: true,
            ..Default::default()
        };
        let run = SparseApsp::new(config).run(&g);
        let bd = run.report.phase_breakdown(0).expect("profiled");
        assert!(bd.exact, "distribute + solve is still a uniform schedule");
        assert!(bd.rows.iter().any(|r| r.name == "distribute-ordering"));
        let total = bd.total();
        assert_eq!(total.latency, run.report.critical_latency());
        assert_eq!(total.bandwidth, run.report.critical_bandwidth());
        assert_eq!(total.compute, run.report.critical_compute());
    }

    #[test]
    fn profiled_distributed_ordering_reports_pipeline_phases() {
        let g = generators::grid2d(8, 8, WeightKind::Unit, 2);
        let config = SparseApspConfig {
            height: 2,
            ordering: Ordering::Distributed,
            profile: true,
            ..Default::default()
        };
        let run = SparseApsp::new(config).run(&g);
        let bd = run.report.phase_breakdown(0).expect("profiled");
        // ND rank groups diverge, so attribution falls back to grouped —
        // but the pipeline steps must still show up
        assert!(bd.rows.iter().any(|r| r.name.starts_with("nd-")));
        assert!(bd.rows.iter().any(|r| r.name == "level"));
        let comm = &run.report.profile.as_ref().unwrap().comm_matrix;
        assert!(comm.words(0, 1) > 0 || comm.words(1, 0) > 0);
    }

    #[test]
    fn faulty_run_recovers_to_oracle() {
        let g = generators::grid2d(6, 6, WeightKind::Integer { max: 5 }, 1);
        let plan = apsp_simnet::FaultPlan::new(99).with_drop(0.05).with_dup(0.03);
        let run = SparseApsp::new(SparseApspConfig::default())
            .run_faulty(&g, &plan)
            .expect("recoverable plan");
        let reference = oracle::apsp_dijkstra(&g);
        assert!(run.dist.first_mismatch(&reference, 1e-9).is_none());
        let summary = run.faults.expect("faulty run carries a summary");
        assert!(summary.injected() > 0, "5% drop over a real schedule must fire");
        assert_eq!(summary.unrecoverable, 0);
        // recovery traffic is charged: strictly more messages than clean
        let clean = SparseApsp::new(SparseApspConfig::default()).run(&g);
        assert!(run.report.total_messages() > clean.report.total_messages());
    }

    #[test]
    fn empty_plan_run_is_byte_identical_to_plain() {
        let g = generators::grid2d(6, 6, WeightKind::Integer { max: 5 }, 1);
        let config = SparseApspConfig { profile: true, ..Default::default() };
        let plain = SparseApsp::new(config).run(&g);
        let faulty = SparseApsp::new(config)
            .run_faulty(&g, &apsp_simnet::FaultPlan::new(123))
            .expect("empty plan cannot fail");
        assert!(plain.dist.first_mismatch(&faulty.dist, 0.0).is_none());
        assert_eq!(plain.report.per_rank, faulty.report.per_rank);
        assert_eq!(plain.report.profile, faulty.report.profile);
        assert_eq!(faulty.faults.unwrap().injected(), 0);
    }

    #[test]
    fn dead_link_fails_the_driver_loudly() {
        let g = generators::grid2d(6, 6, WeightKind::Unit, 0);
        // rank 0 (block A11) must ship its closure to rank 2 (block A13) —
        // a link the default 9-rank schedule provably uses
        let plan = apsp_simnet::FaultPlan::new(5).with_kill(0, 2);
        let err = match SparseApsp::new(SparseApspConfig::default()).run_faulty(&g, &plan) {
            Ok(_) => panic!("a dead link in a 9-rank solve is unrecoverable"),
            Err(e) => e,
        };
        let MachineError::Fault(err) = err else {
            panic!("expected a fault error, got {err}");
        };
        assert_eq!((err.src, err.dst), (0, 2));
    }

    #[test]
    fn supervised_run_survives_a_killed_rank() {
        let g = generators::grid2d(6, 6, WeightKind::Integer { max: 5 }, 1);
        let plan = apsp_simnet::FaultPlan::new(7).with_kill_rank_from(4, 1);
        let config =
            SparseApspConfig { recovery: Some(RecoveryPolicy::default()), ..Default::default() };
        let run = SparseApsp::new(config).run_faulty(&g, &plan).expect("supervised run recovers");
        let reference = oracle::apsp_dijkstra(&g);
        assert!(run.dist.first_mismatch(&reference, 1e-9).is_none());
        let recovery = run.recovery.expect("supervised run carries a recovery report");
        assert!(recovery.restarts >= 1, "the killed rank must force a restart");
        assert_eq!(recovery.spare_takeovers.len(), 1);
        assert_eq!(run.faults.expect("summary").unrecoverable, 0);
    }

    #[test]
    fn supervised_run_exhausts_its_budget_loudly() {
        let g = generators::grid2d(6, 6, WeightKind::Unit, 0);
        // a rank kill with no spares can never be outrun by restarts
        let plan = apsp_simnet::FaultPlan::new(7).with_kill_rank(4);
        let config = SparseApspConfig {
            recovery: Some(RecoveryPolicy { max_restarts: 2, every: 1, spares: 0 }),
            ..Default::default()
        };
        let err = match SparseApsp::new(config).run_faulty(&g, &plan) {
            Ok(_) => panic!("no spares means the kill is unrecoverable"),
            Err(e) => e,
        };
        assert!(matches!(err, MachineError::Unrecoverable(_)), "got {err}");
    }

    #[test]
    fn native_faulty_run_recovers_to_oracle() {
        let g = generators::grid2d(6, 6, WeightKind::Integer { max: 5 }, 1);
        let plan = apsp_simnet::FaultPlan::new(99).with_drop(0.05).with_dup(0.03);
        let config = SparseApspConfig { backend: Backend::Native, ..Default::default() };
        let run = SparseApsp::new(config).run_faulty(&g, &plan).expect("recoverable plan");
        let reference = oracle::apsp_dijkstra(&g);
        assert!(run.dist.first_mismatch(&reference, 1e-9).is_none());
        let summary = run.faults.expect("faulty run carries a summary");
        assert!(summary.injected() > 0, "5% drop over a real schedule must fire");
        assert_eq!(summary.unrecoverable, 0);
        // and the recovered distances are bit-identical to the clean native run
        let clean = SparseApsp::new(config).run(&g);
        assert!(run.dist.first_mismatch(&clean.dist, 0.0).is_none());
    }

    #[test]
    fn native_supervised_run_survives_a_killed_rank() {
        let g = generators::grid2d(6, 6, WeightKind::Integer { max: 5 }, 1);
        let plan = apsp_simnet::FaultPlan::new(7).with_kill_rank_from(4, 1);
        let config = SparseApspConfig {
            backend: Backend::Native,
            recovery: Some(RecoveryPolicy::default()),
            ..Default::default()
        };
        let run = SparseApsp::new(config).run_faulty(&g, &plan).expect("supervised run recovers");
        let clean =
            SparseApsp::new(SparseApspConfig { backend: Backend::Native, ..Default::default() })
                .run(&g);
        assert!(run.dist.first_mismatch(&clean.dist, 0.0).is_none(), "bit-identical recovery");
        let recovery = run.recovery.expect("supervised run carries a recovery report");
        assert!(recovery.restarts >= 1, "the killed rank must force a restart");
        assert_eq!(recovery.spare_takeovers.len(), 1);
        assert_eq!(run.faults.expect("summary").unrecoverable, 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_rejected() {
        let g = apsp_graph::GraphBuilder::new(2).edge(0, 1, -1.0).build();
        let _ = SparseApsp::with_height(2).run(&g);
    }

    #[test]
    #[should_panic(expected = "grid shape")]
    fn wrong_grid_shape_rejected() {
        let g = generators::path(5, WeightKind::Unit, 0);
        let config = SparseApspConfig {
            ordering: Ordering::Grid { rows: 2, cols: 2 },
            ..Default::default()
        };
        let _ = SparseApsp::new(config).run(&g);
    }
}
