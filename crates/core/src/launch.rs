//! One launch path for every distributed solver.
//!
//! A [`Solver`] is a rank program plus the host-side assembly of its
//! per-rank outputs; [`launch`] runs one on either machine under a
//! [`LaunchSpec`], whose fields are the orthogonal options a run can have
//! (`docs/BACKENDS.md` tabulates option × backend: `profile` is the one
//! the native backend rejects). [`verify`] checks a solver's
//! communication schedule: either machine records it, and the recording
//! is linted.
//!
//! # Errors
//! [`launch`] refuses `profile` on the native backend and a rank count past
//! [`MAX_RANKS`]; a machine that dies is [`ApspError::Machine`].

use crate::driver::Backend;
use apsp_graph::DenseDist;
use apsp_simnet::{
    CommEvent, FaultPlan, FaultSummary, Machine as SimMachine, MachineError, MachineRun,
    MachineSpec, RecoveryPolicy, RecoveryReport, RunReport,
};
use apsp_transport::{Machine, NativeMachine, Transport};
use apsp_verify::VerifyReport;

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
    /// Collect the observability payload, every sent message included,
    /// into `report.profile`.
    pub profile: bool,
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
}

/// What the dense baselines (`fw2d`, `dc_apsp`, `distributed_johnson`)
/// return: distances on input vertex ids plus the measured report.
pub struct DenseResult {
    /// All-pairs distances (input vertex ids — no reordering happens).
    pub dist: DenseDist,
    /// Measured communication report (all-zero on the native backend).
    pub report: RunReport,
}

/// The largest rank count this crate launches, `(2^5 − 1)²`: the tallest
/// tree the tests and the paper report run. Each rank is a pooled thread.
pub const MAX_RANKS: usize = 961;

/// `(2^h − 1)²`, the rank count of a height-`h` tree (saturating past 64).
pub fn ranks_of_height(h: u32) -> u128 {
    let side = (1u128 << h.min(64)) - 1;
    side * side
}

/// Why a solve was refused at the door, or how its machine died. Nothing
/// on the way in panics: every input check is one of these variants.
#[derive(Debug)]
pub enum ApspError {
    /// An edge weight no solve accepts — negative, NaN or `−∞` — as
    /// `(u, v, weight)` for the arc `u → v` in input vertex ids.
    Weight(usize, usize, f64),
    /// [`crate::driver::Ordering::Grid`] `(rows, cols)` does not describe
    /// the graph's `n` vertices: `(rows, cols, n)`.
    GridShape(usize, usize, usize),
    /// The ordering breaks the §4.1 cousin-separation invariant.
    Ordering(String),
    /// A simulator-only option (named) asked of the native backend.
    SimOnly(&'static str),
    /// A rank count outside `1..=`[`MAX_RANKS`].
    Ranks(u128),
    /// The machine's typed error: an unrecoverable fault, a budget, a hang.
    Machine(MachineError),
}

impl std::fmt::Display for ApspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Weight(u, v, w) => write!(f, "edge {u} -> {v}: weight {w} is not >= 0"),
            Self::GridShape(r, c, n) => write!(f, "grid {r} x {c} does not fit {n} vertices"),
            Self::Ordering(e) => write!(f, "ordering breaks the §4.1 separation invariant: {e}"),
            Self::SimOnly(o) => write!(f, "{o} needs the simulated machine's cost clocks"),
            Self::Ranks(p) => write!(f, "{p} ranks asked for; this build runs 1..={MAX_RANKS}"),
            Self::Machine(e) => write!(f, "machine error: {e}"),
        }
    }
}

impl std::error::Error for ApspError {}

impl From<MachineError> for ApspError {
    fn from(e: MachineError) -> Self {
        ApspError::Machine(e)
    }
}

/// Refuses a rank count no machine here runs.
pub(crate) fn check_ranks(p: u128) -> Result<(), ApspError> {
    (1..=MAX_RANKS as u128).contains(&p).then_some(()).ok_or(ApspError::Ranks(p))
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
/// [`ApspError::SimOnly`] for `profile` on the native backend and
/// [`ApspError::Ranks`] past [`MAX_RANKS`], both before a rank starts;
/// otherwise the typed [`MachineError`] the run died with — only possible
/// under a fault plan (a kill rule without `recovery`, or an exhausted
/// restart budget with it).
pub fn launch<S: Solver>(
    solver: &S,
    spec: &LaunchSpec<'_>,
) -> Result<Launched<S::Result>, ApspError> {
    check_ranks(solver.p() as u128)?;
    if spec.backend == Backend::Native && spec.profile {
        return Err(ApspError::SimOnly("profile"));
    }
    Ok(run(solver, spec)?)
}

/// [`launch`] past its checks.
fn run<S: Solver>(solver: &S, spec: &LaunchSpec<'_>) -> Result<Launched<S::Result>, MachineError> {
    let machine = MachineSpec {
        faults: spec.faults,
        recovery: spec.recovery,
        profile: spec.profile,
        record: spec.record,
    };
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
    })
}

/// [`launch`] with the default spec: a plain simulated run, which cannot
/// fail.
pub(crate) fn launch_plain<S: Solver>(solver: &S) -> S::Result {
    launch(solver, &LaunchSpec::default()).expect("fault-free launch cannot fail").result
}

/// Verifies `solver`'s communication schedule: every rank's comm script
/// is recorded and linted statically (send/recv matching, tag freshness
/// across phases, collective ordering, phase quiescence at every
/// `commit_phase`, span balance), and a run that dies — a hang after
/// `APSP_WATCHDOG_MS` included — adds its typed error as an `execution`
/// violation. [`Backend::Sim`] records on the simulator
/// ([`apsp_verify::verify_program`], which also lints the partial scripts
/// of a run that dies and returns the §3.1 report of one that completes);
/// [`Backend::Native`] records the same logical script over real OS
/// threads through [`launch`]. Recording never touches the §3.1 clocks, so
/// a verified schedule's plain run is byte-identical to an unverified one.
pub fn verify<S: Solver>(solver: &S, backend: Backend) -> VerifyReport {
    if backend == Backend::Sim {
        return apsp_verify::verify_program(solver.p(), |comm| solver.rank_program(comm));
    }
    let recorded = run(solver, &LaunchSpec { backend, record: true, ..Default::default() });
    apsp_verify::lint_recorded_outcome(solver.p(), recorded.map(|run| run.scripts))
}
