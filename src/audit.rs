//! The `apsp audit` orchestration: runs the static cost-model auditor
//! ([`apsp_verify::costcheck`]) over a deterministic `(n, p, |S|)` grid
//! of recorded solves and assembles the per-solver × per-phase
//! conformance report — executable Theorems 5.7/5.10 and Table 2.
//!
//! This module lives in the root crate because it needs both sides of
//! the comparison: the solvers (`apsp_core`, which *depends on*
//! `apsp_verify` and therefore cannot be called from it) and the fitting
//! machinery. Every sample is oracle-verified before its ledgers are
//! trusted — a cost table from a wrong answer is worthless.
//!
//! Bound closures compose the closed forms in [`apsp_core::bounds`].
//! Where the repo's own collectives add a documented binomial-tree
//! `log p` factor over Table 2's idealized dense bounds (see the `fw2d`
//! module header), the composed bound carries that factor explicitly —
//! the auditor checks the *implementation's* stated asymptotics, and a
//! regression beyond them still fails.

use apsp_core::bounds;
use apsp_core::dcapsp::DcApsp;
use apsp_core::djohnson::DJohnson;
use apsp_core::driver::Ordering;
use apsp_core::fw2d::Fw2d;
use apsp_core::launch::{launch, DenseResult, LaunchSpec, Solver};
use apsp_core::{SparseApsp, SparseApspConfig};
use apsp_graph::generators::{grid2d, WeightKind};
use apsp_graph::{oracle, Csr, DenseDist};
use apsp_simnet::{Machine, MachineSpec};
use apsp_verify::costcheck::{fit_conformance, Conformance, CostReport, Metric, Observation};

/// Knobs for one `apsp audit` cost pass.
#[derive(Clone, Debug)]
pub struct AuditOptions {
    /// Slack on every exponent comparison (measured ≤ bound + tolerance).
    /// The pinned default is [`AuditOptions::DEFAULT_TOLERANCE`].
    pub tolerance: f64,
    /// Grid points with more ranks than this are skipped (the default
    /// keeps the sparse `p`-sweep at `{9, 49}` and every dense sweep at
    /// `p ≤ 16`).
    pub max_p: usize,
}

impl AuditOptions {
    /// The pinned exponent slack. Empirically the clean solvers sit more
    /// than `0.3` *below* their bound exponents on the default grid,
    /// while the seeded flood fixture overshoots by `≥ 0.5` — `0.25`
    /// splits the margin and absorbs small-scale log-term noise without
    /// admitting a genuine asymptotic regression.
    pub const DEFAULT_TOLERANCE: f64 = 0.25;
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions { tolerance: Self::DEFAULT_TOLERANCE, max_p: 49 }
    }
}

/// A mesh workload: the separator-friendly case the paper targets, and
/// the one whose `|S| = O(√n)` makes the sparse bounds meaningful.
fn mesh(side: usize) -> Csr {
    grid2d(side, side, WeightKind::Unit, 0)
}

fn assert_correct(solver: &str, side: usize, p: usize, dist: &DenseDist, g: &Csr) {
    let reference = oracle::apsp_dijkstra(g);
    if let Some((i, j, a, b)) = dist.first_mismatch(&reference, 1e-9) {
        panic!("audit sample {solver} side={side} p={p} is WRONG at ({i},{j}): {a} vs {b}");
    }
}

/// One solver's sweep samples plus the closed-form bounds to hold them
/// against.
struct SolverAudit {
    solver: &'static str,
    /// `(sweep name, observations along it)`.
    sweeps: Vec<(&'static str, Vec<Observation>)>,
    /// `(bound description, closure)` for latency / bandwidth / memory.
    latency: (String, fn(&Observation) -> f64),
    bandwidth: (String, fn(&Observation) -> f64),
    memory: (String, fn(&Observation) -> f64),
}

impl SolverAudit {
    /// Expands the sweeps into conformance checks: whole-run latency,
    /// bandwidth, and memory, plus per-phase latency and bandwidth
    /// (each phase's cost is bounded by the whole run's bound — a phase
    /// exceeding the total asymptotics is exactly the drift the auditor
    /// exists to catch). Sweeps left with fewer than two grid points
    /// (by `max_p` filtering) are skipped.
    fn checks(&self, tolerance: f64) -> Vec<Conformance> {
        let mut out = Vec::new();
        for (sweep, obs) in &self.sweeps {
            if obs.len() < 2 {
                continue;
            }
            let var = |o: &Observation| match *sweep {
                "n" => o.n as f64,
                _ => o.p as f64,
            };
            let mut push = |metric: Metric,
                            phase: &str,
                            desc: &str,
                            measured: &dyn Fn(&Observation) -> f64,
                            bound: fn(&Observation) -> f64| {
                if let Some(c) = fit_conformance(
                    self.solver,
                    metric,
                    phase,
                    sweep,
                    desc,
                    tolerance,
                    obs,
                    var,
                    measured,
                    bound,
                ) {
                    out.push(c);
                }
            };
            push(Metric::Latency, "total", &self.latency.0, &|o| o.latency as f64, self.latency.1);
            push(
                Metric::Bandwidth,
                "total",
                &self.bandwidth.0,
                &|o| o.bandwidth as f64,
                self.bandwidth.1,
            );
            push(Metric::Memory, "total", &self.memory.0, &|o| o.memory as f64, self.memory.1);
            let mut phases: Vec<String> =
                obs.iter().flat_map(|o| o.phases.iter().map(|t| t.phase.clone())).collect();
            phases.sort();
            phases.dedup();
            for phase in &phases {
                push(
                    Metric::Latency,
                    phase,
                    &self.latency.0,
                    &|o| o.phase_messages(phase) as f64,
                    self.latency.1,
                );
                push(
                    Metric::Bandwidth,
                    phase,
                    &self.bandwidth.0,
                    &|o| o.phase_words(phase) as f64,
                    self.bandwidth.1,
                );
            }
        }
        out
    }
}

fn sparse_sample(side: usize, h: u32) -> Observation {
    let g = mesh(side);
    let solver = SparseApsp::new(SparseApspConfig {
        height: h,
        ordering: Ordering::Grid { rows: side, cols: side },
        ..Default::default()
    });
    let (run, scripts) = solver.run_recorded(&g);
    let p = ((1usize << h) - 1) * ((1usize << h) - 1);
    assert_correct("sparse2d", side, p, &run.dist, &g);
    Observation::from_run(g.n(), p, run.ordering.max_separator(), &run.report, &scripts)
}

fn sparse_audit(max_p: usize) -> SolverAudit {
    // n-sweep at p = 9 (h = 2); p-sweep at side 16 over the machine
    // sizes the supernodal layout admits, p = (2^h − 1)² ∈ {9, 49}
    let n_sweep = [8usize, 12, 16].iter().map(|&side| sparse_sample(side, 2)).collect();
    let p_sweep = [2u32, 3]
        .iter()
        .filter(|&&h| ((1usize << h) - 1).pow(2) <= max_p)
        .map(|&h| sparse_sample(16, h))
        .collect();
    SolverAudit {
        solver: "sparse2d",
        sweeps: vec![("n", n_sweep), ("p", p_sweep)],
        latency: ("Thm 5.7: L = O(log²p)".into(), |o| bounds::sparse_latency(o.p)),
        bandwidth: ("Thm 5.10: B = O(n²log²p/p + |S|²log²p)".into(), |o| {
            bounds::sparse_bandwidth(o.n, o.p, o.s)
        }),
        memory: ("§5.4.1: M = O(n²/p + |S|²)".into(), |o| bounds::sparse_memory(o.n, o.p, o.s)),
    }
}

/// One recorded, oracle-checked run of a dense baseline on `g`.
fn dense_sample<S>(name: &str, side: usize, g: &Csr, solver: &S) -> Observation
where
    S: Solver<Result = DenseResult>,
{
    let run = launch(solver, &LaunchSpec { record: true, ..Default::default() })
        .expect("fault-free launch cannot fail");
    assert_correct(name, side, solver.p(), &run.result.dist, g);
    Observation::from_run(g.n(), solver.p(), 0, &run.result.report, &run.scripts)
}

fn fw2d_sample(side: usize, n_grid: usize) -> Observation {
    let g = mesh(side);
    dense_sample("fw2d", side, &g, &Fw2d::new(&g, n_grid))
}

fn fw2d_audit(max_p: usize) -> SolverAudit {
    let n_sweep = [8usize, 12, 16].iter().map(|&side| fw2d_sample(side, 4)).collect();
    let p_sweep = [2usize, 3, 4]
        .iter()
        .filter(|&&ng| ng * ng <= max_p)
        .map(|&ng| fw2d_sample(12, ng))
        .collect();
    SolverAudit {
        solver: "fw2d",
        sweeps: vec![("n", n_sweep), ("p", p_sweep)],
        latency: ("§2 (tree bcasts): L = Θ(√p·log p)".into(), |o| bounds::fw2d_latency(o.p)),
        bandwidth: ("§2 (tree bcasts): B = Θ(n²log p/√p)".into(), |o| {
            bounds::fw2d_bandwidth(o.n, o.p)
        }),
        memory: ("Table 2: M = O(n²/p)".into(), |o| bounds::dc_memory(o.n, o.p)),
    }
}

fn dcapsp_sample(side: usize, n_grid: usize) -> Observation {
    let g = mesh(side);
    dense_sample("dcapsp", side, &g, &DcApsp::new(&g, n_grid, 1))
}

fn dcapsp_audit(max_p: usize) -> SolverAudit {
    let n_sweep = [8usize, 12, 16].iter().map(|&side| dcapsp_sample(side, 4)).collect();
    let p_sweep = [2usize, 3, 4]
        .iter()
        .filter(|&&ng| ng * ng <= max_p)
        .map(|&ng| dcapsp_sample(12, ng))
        .collect();
    SolverAudit {
        solver: "dcapsp",
        sweeps: vec![("n", n_sweep), ("p", p_sweep)],
        latency: ("Table 2: L = O(√p·log²p)".into(), |o| bounds::dc_latency(o.p)),
        bandwidth: ("Table 2 × tree log p: B = O(n²log p/√p)".into(), |o| {
            bounds::dc_bandwidth(o.n, o.p) * bounds::log2p(o.p)
        }),
        memory: ("Table 2: M = O(n²/p)".into(), |o| bounds::dc_memory(o.n, o.p)),
    }
}

fn djohnson_sample(side: usize, p: usize) -> Observation {
    let g = mesh(side);
    let mut obs = dense_sample("djohnson", side, &g, &DJohnson::new(&g, p));
    // the Johnson bounds are graph-sized: smuggle m through `s` so the
    // bound closures can see it (no separator notion here)
    obs.s = g.m();
    obs
}

fn djohnson_audit(max_p: usize) -> SolverAudit {
    let n_sweep = [8usize, 12, 16].iter().map(|&side| djohnson_sample(side, 16)).collect();
    let p_sweep =
        [4usize, 9, 16].iter().filter(|&&p| p <= max_p).map(|&p| djohnson_sample(12, p)).collect();
    SolverAudit {
        solver: "djohnson",
        sweeps: vec![("n", n_sweep), ("p", p_sweep)],
        latency: ("replication bcast: L = O(log p)".into(), |o| bounds::johnson_latency(o.p)),
        bandwidth: ("replication bcast: B = O((n+2m)·log p)".into(), |o| {
            bounds::johnson_bandwidth(o.n, o.s, o.p)
        }),
        memory: ("row block + replica: M = O(n²/p + n + 2m)".into(), |o| {
            bounds::johnson_memory(o.n, o.s, o.p)
        }),
    }
}

/// Runs the full cost audit: all four solvers over their deterministic
/// sweeps, every sample oracle-verified, every fitted exponent held
/// against its closed-form bound. Clean ⇔ [`CostReport::is_clean`].
pub fn audit_cost_model(opts: &AuditOptions) -> CostReport {
    let _wall = apsp_metrics::time_phase("audit-cost");
    let audits = [
        sparse_audit(opts.max_p),
        fw2d_audit(opts.max_p),
        dcapsp_audit(opts.max_p),
        djohnson_audit(opts.max_p),
    ];
    let checks = audits.iter().flat_map(|a| a.checks(opts.tolerance)).collect();
    let report = CostReport { checks };
    let reg = apsp_metrics::global();
    reg.counter("apsp_audit_checks_total", "Cost-conformance checks fitted.")
        .add(report.checks.len() as u64);
    reg.counter("apsp_audit_violations_total", "Cost-conformance checks exceeding their bound.")
        .add(report.failures().len() as u64);
    report
}

/// Audits the seeded over-communicating fixture
/// ([`apsp_verify::flood_exchange`]) against the **sparse** Table 2
/// bounds on a `p`-sweep — the regression anchor proving the cost audit
/// can fail. Every `p`-exponent (latency `~p^1.5` vs `log²p`, bandwidth
/// `~√p·n²` vs a flat `n²log²p/p`, memory `~n²` vs `n²/p`) overshoots,
/// so [`CostReport::is_clean`] must come back `false`.
pub fn audit_flood_fixture(tolerance: f64) -> CostReport {
    let side = 24usize;
    let obs: Vec<Observation> = [4usize, 9, 16]
        .iter()
        .map(|&p| {
            let recorded = MachineSpec { record: true, ..Default::default() };
            let run = Machine::launch(p, &recorded, |comm| {
                apsp_verify::flood_exchange(comm, side * side)
            })
            .expect("flood fixture is deadlock-free by construction");
            assert!(!run.outs.is_empty());
            Observation::from_run(side * side, p, 0, &run.report, &run.scripts)
        })
        .collect();
    let audit = SolverAudit {
        solver: "flood-fixture",
        sweeps: vec![("p", obs)],
        latency: ("Thm 5.7: L = O(log²p)".into(), |o| bounds::sparse_latency(o.p)),
        bandwidth: ("Thm 5.10: B = O(n²log²p/p + |S|²log²p)".into(), |o| {
            bounds::sparse_bandwidth(o.n, o.p, o.s)
        }),
        memory: ("§5.4.1: M = O(n²/p + |S|²)".into(), |o| bounds::sparse_memory(o.n, o.p, o.s)),
    };
    CostReport { checks: audit.checks(tolerance) }
}
