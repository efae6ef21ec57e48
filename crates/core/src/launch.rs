//! One launch path for every distributed solver.
//!
//! A [`Solver`] is a rank program plus the host-side assembly of its
//! per-rank outputs; [`launch`] runs one on either machine under a
//! [`LaunchSpec`], whose fields are the orthogonal options a run can have
//! (`docs/BACKENDS.md` tabulates option × backend: `profile` and `trace`
//! are the two the native backend rejects). [`verify`] checks a solver's
//! communication schedule: the governed simulator records, lints and
//! explores it; the native machine records it through [`launch`] and
//! lints it.

use crate::driver::Backend;
use apsp_graph::DenseDist;
use apsp_simnet::{
    CommEvent, FaultPlan, FaultSummary, Machine as SimMachine, MachineError, MachineRun,
    MachineSpec, RecoveryPolicy, RecoveryReport, RunReport, TraceEvent,
};
use apsp_transport::{Machine, NativeMachine, Transport};
use apsp_verify::{VerifyOptions, VerifyReport};

/// A distributed solver: what one rank runs and how the ranks' outputs
/// become the result.
pub trait Solver: Sync {
    /// What one rank's program returns.
    type Out: Send;
    /// What the assembled run returns.
    type Result;
    /// Phase-timer name of a simulated launch; a native launch is timed as
    /// `{PHASE}-native`.
    const PHASE: &'static str;

    /// Rank count.
    fn p(&self) -> usize;

    /// The SPMD program of one rank.
    fn rank_program<C: Transport>(&self, comm: &mut C) -> Self::Out;

    /// Host-side assembly of every rank's output (rank order).
    fn assemble(&self, outs: Vec<Self::Out>, report: RunReport) -> Self::Result;

    /// The distance words of one rank's output — what [`verify`] digests
    /// to tell two delivery schedules' results apart.
    fn words(out: Self::Out) -> Vec<f64>;
}

/// How to run a [`Solver`]: every field is independent of the others and
/// the default is a plain simulated run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaunchSpec<'a> {
    /// Which machine runs the rank programs.
    pub backend: Backend,
    /// Run under this deterministic fault plan.
    pub faults: Option<&'a FaultPlan>,
    /// Supervise the run with checkpoint/restart under this policy (an
    /// empty fault plan when `faults` is `None`).
    pub recovery: Option<RecoveryPolicy>,
    /// Collect the observability payload into `report.profile`.
    pub profile: bool,
    /// Return every rank's sent-message stream.
    pub trace: bool,
    /// Return every rank's comm script.
    pub record: bool,
}

/// What a [`launch`] hands back: the solver's result plus whatever the
/// spec asked the machine to collect.
pub struct Launched<R> {
    /// The assembled result.
    pub result: R,
    /// Fault history, present when the run had a fault layer
    /// (`unrecoverable` is always 0 on a run that returned).
    pub faults: Option<FaultSummary>,
    /// Checkpoint/restart ledger, present when the run was supervised.
    pub recovery: Option<RecoveryReport>,
    /// Per-rank comm scripts (rank order); empty unless recorded.
    pub scripts: Vec<Vec<CommEvent>>,
    /// Per-rank sent-message streams; each empty unless traced or
    /// profiled.
    pub traces: Vec<Vec<TraceEvent>>,
}

/// What the dense baselines (`fw2d`, `dc_apsp`, `distributed_johnson`)
/// return: distances on input vertex ids plus the measured report.
pub struct DenseResult {
    /// All-pairs distances (input vertex ids — no reordering happens).
    pub dist: DenseDist,
    /// Measured communication report (all-zero on the native backend).
    pub report: RunReport,
}

/// The one place simulator-only options meet the native backend: panics
/// with a readable message rather than silently dropping them.
pub(crate) fn reject_sim_only_on_native(backend: Backend, observe: bool, charge_ordering: bool) {
    if backend == Backend::Sim {
        return;
    }
    assert!(
        !observe,
        "the native backend has no §3.1 cost clocks to profile; use the sim backend \
         for --trace/--profile"
    );
    assert!(
        !charge_ordering,
        "ordering-distribution cost accounting needs the simulated machine; use the \
         sim backend"
    );
}

fn on<M: Machine, S: Solver>(
    solver: &S,
    spec: &MachineSpec<'_>,
) -> Result<MachineRun<S::Out>, MachineError> {
    M::launch(solver.p(), spec, |comm| solver.rank_program(comm))
}

/// Runs `solver` under `spec`. The rank program is monomorphised per
/// machine; this is the only place a [`Backend`] picks one.
///
/// # Errors
/// The typed [`MachineError`] the run died with — only possible under a
/// fault plan (a kill rule without `recovery`, or an exhausted restart
/// budget with it).
///
/// # Panics
/// When `profile` or `trace` is asked of the native backend.
pub fn launch<S: Solver>(
    solver: &S,
    spec: &LaunchSpec<'_>,
) -> Result<Launched<S::Result>, MachineError> {
    let machine = MachineSpec {
        faults: spec.faults,
        recovery: spec.recovery,
        profile: spec.profile,
        trace: spec.trace,
        record: spec.record,
    };
    reject_sim_only_on_native(spec.backend, spec.profile || spec.trace, false);
    let (_wall, run) = match spec.backend {
        Backend::Sim => {
            (apsp_metrics::time_phase(S::PHASE), on::<SimMachine, S>(solver, &machine)?)
        }
        Backend::Native => {
            let wall = apsp_metrics::time_phase(&format!("{}-native", S::PHASE));
            (wall, on::<NativeMachine, S>(solver, &machine)?)
        }
    };
    Ok(Launched {
        result: solver.assemble(run.outs, run.report),
        faults: run.faults,
        recovery: run.recovery,
        scripts: run.scripts,
        traces: run.traces,
    })
}

/// [`launch`] with the default spec: a plain simulated run, which cannot
/// fail.
pub(crate) fn launch_plain<S: Solver>(solver: &S) -> S::Result {
    launch(solver, &LaunchSpec::default()).expect("fault-free launch cannot fail").result
}

/// Verifies `solver`'s communication schedule. On [`Backend::Sim`] every
/// rank's comm script is recorded for the static lint (send/recv matching,
/// tag freshness across phases, collective ordering, phase quiescence at
/// every `commit_phase`, span balance) and, for `p ≤`
/// [`apsp_verify::MAX_EXPLORE_P`], wildcard delivery schedules are
/// explored for deadlocks and order-sensitive nondeterminism
/// ([`apsp_verify::verify_program`]). On [`Backend::Native`] the same rank
/// program records the same logical script over real OS threads and the
/// static lint checks it; the explorer needs the governed simulator and is
/// reported as not run. Recording never touches the §3.1 clocks, so a
/// verified schedule's plain run is byte-identical to an unverified one.
pub fn verify<S: Solver>(solver: &S, backend: Backend, opts: &VerifyOptions) -> VerifyReport {
    if backend == Backend::Sim {
        return apsp_verify::verify_program(
            solver.p(),
            opts,
            |comm| S::words(solver.rank_program(comm)),
            apsp_verify::digest_rows,
        );
    }
    let recorded = launch(solver, &LaunchSpec { backend, record: true, ..Default::default() });
    apsp_verify::lint_recorded_outcome(solver.p(), recorded.map(|run| run.scripts))
}
