//! Checkpoint/restart recovery for the simulated machine.
//!
//! PR 2's fault layer recovers from *transient* faults with message-level
//! retransmission, but a permanent fault — a dead link, a killed rank, an
//! exhausted retry budget — still aborts the whole solve. This module adds
//! the lineage above that protocol, the way checkpoint/restart (or Spark's
//! lineage recovery) sits above TCP:
//!
//! * Solvers mark **phase boundaries** with [`crate::Comm::commit_phase`].
//!   Under a [`RecoveryPolicy`] the machine snapshots each rank's state
//!   (solver payload, fault-protocol sequence state) at every `every`-th
//!   boundary into a shared [`SnapshotStore`], and the fold of the epoch's
//!   log charges the snapshot words to the ordinary latency/bandwidth
//!   ledgers — checkpoint traffic is Table 2 traffic — and saves the bill
//!   at the boundary for a later restore to resume from.
//! * A supervisor ([`supervise`], one loop for both machines) catches the
//!   typed error a faulted epoch dies with, rolls every rank back to the last
//!   **consistent cut** (the highest boundary every rank has snapshotted),
//!   prunes now-stale snapshots (the rollback ledger), respawns the ranks
//!   with fresh attempt counters — remapping a permanently dead rank onto a
//!   **spare** physical id when the plan's kill rules make retrying
//!   pointless — and re-executes from the cut under a bounded restart
//!   budget.
//! * When the budget runs out the supervisor degrades to a typed
//!   [`Unrecoverable`] report carrying the partial [`FaultSummary`]
//!   reconstructed from the consistent cut — never a panic, never a hang.
//!
//! Determinism: every supervisor decision is a pure function of the plan,
//! the policy, and the epoch number (re-executions re-key injections by
//! epoch), so the same seed and policy replay the same [`RecoveryReport`]
//! bit-for-bit. What is *not* a function of (plan, policy) is how far the
//! ranks ahead of a cut ran before a kill reached them: the snapshots a
//! rollback discards depend on thread scheduling, so the report counts
//! snapshots net of rollbacks and the discarded words go to the
//! `apsp_simnet_rollback_words_total` metric only.

use crate::comm::{MachineRun, MachineSpec, Rank};
use crate::cost::{fold_epoch, Saved};
use crate::faults::{FaultPlan, FaultSummary};
use crate::report::{RankStats, RunReport};
use crate::script::CommEvent;
#[doc(inline)]
pub use crate::snapshot::{Snapshot, SnapshotStore};
use crate::sync::Arc;

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// How a recovering launch responds to unrecoverable faults.
///
/// ## Spec grammar (CLI `--recover`)
///
/// Comma-separated `key=value` clauses; an empty spec is the default
/// policy:
///
/// ```text
/// restarts=N        restart budget before degrading to Unrecoverable (default 3)
/// every=K           checkpoint every K-th phase boundary; 0 disables (default 1)
/// spares=S          spare physical ranks for permanent-fault takeover (default 1)
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Restarts allowed before the run degrades to [`Unrecoverable`].
    pub max_restarts: u32,
    /// Checkpoint cadence: snapshot at every `every`-th phase boundary
    /// (`0` disables checkpointing — every restart replays from scratch).
    pub every: u32,
    /// Spare physical ranks available for permanent-fault takeover.
    pub spares: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { max_restarts: 3, every: 1, spares: 1 }
    }
}

impl RecoveryPolicy {
    /// Parses the `--recover` spec grammar (see the type docs). An empty
    /// spec yields the default policy.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut policy = RecoveryPolicy::default();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("recovery clause `{clause}` is not key=value"))?;
            match key {
                "restarts" => {
                    policy.max_restarts =
                        value.parse().map_err(|_| format!("bad restart budget in `{clause}`"))?;
                }
                "every" => {
                    policy.every = value
                        .parse()
                        .map_err(|_| format!("bad checkpoint cadence in `{clause}`"))?;
                }
                "spares" => {
                    policy.spares =
                        value.parse().map_err(|_| format!("bad spare count in `{clause}`"))?;
                }
                other => return Err(format!("unknown recovery knob `{other}`")),
            }
        }
        Ok(policy)
    }
}

// ---------------------------------------------------------------------------
// Recovery report
// ---------------------------------------------------------------------------

/// What a recovering launch did to finish: the restart/rollback ledger.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Restarts performed (0 on a fault-free trajectory).
    pub restarts: u32,
    /// The consistent-cut boundary each restart resumed from, in order.
    pub resume_boundaries: Vec<u64>,
    /// `(logical rank, spare physical id)` takeovers, in order.
    pub spare_takeovers: Vec<(Rank, Rank)>,
    /// Snapshots the finished run rests on: captured and not discarded by
    /// a rollback (`p ×` checkpointed boundaries — the final epoch
    /// completes every boundary).
    pub snapshots_taken: u64,
    /// Solver-state words in those snapshots (charged to bandwidth).
    pub snapshot_words: u64,
    /// Snapshots restored at resume boundaries.
    pub restores: u64,
    /// Solver-state words restored (charged to bandwidth).
    pub restore_words: u64,
    /// Rollbacks performed (one per restart).
    pub rollbacks: u64,
    /// Display strings of the error behind each restart, in order.
    pub causes: Vec<String>,
}

impl RecoveryReport {
    /// One-line human-readable digest (the CLI's stderr `recovery:` line).
    pub fn digest(&self) -> String {
        let takeovers: Vec<String> = self
            .spare_takeovers
            .iter()
            .map(|(logical, physical)| format!("{logical}→{physical}"))
            .collect();
        format!(
            "{} restarts (resumed at [{}]), {} snapshots ({} words), \
             {} restores ({} words), {} rollbacks, spares [{}]",
            self.restarts,
            self.resume_boundaries.iter().map(u64::to_string).collect::<Vec<_>>().join(", "),
            self.snapshots_taken,
            self.snapshot_words,
            self.restores,
            self.restore_words,
            self.rollbacks,
            takeovers.join(", "),
        )
    }
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

/// A rank's wiring to the checkpoint layer under a supervisor.
#[derive(Clone)]
pub struct Checkpoints {
    /// The snapshot store shared by every epoch of the launch.
    pub store: Arc<SnapshotStore>,
    /// Phases up to and including this boundary are skipped and the state
    /// at it restored from the store (0 = run from scratch).
    pub resume: u64,
    /// Snapshot at every `every`-th boundary (0 = never).
    pub every: u32,
}

/// The coordinates one epoch of a supervised launch runs under.
pub struct Epoch {
    /// Epoch salt: 0 for the first execution; each restart re-keys the
    /// probabilistic injection stream with the next number.
    pub number: u32,
    /// Logical → physical rank map. Identity until a permanently dead
    /// rank is remapped onto a spare physical id `≥ p`.
    pub remap: Vec<Rank>,
    /// Where this epoch's ranks checkpoint to and resume from.
    pub checkpoints: Checkpoints,
}

/// The part of a launch both machines share, generic over "run one
/// epoch": `run_epoch(plan, epoch)` executes the rank program once on `p`
/// ranks — under the fault plan when there is one, checkpointing and
/// resuming as `epoch` says — and hands back the outcome with the ranks'
/// event logs. This function calls it once, or under
/// [`MachineSpec::recovery`] as often as the checkpoint/rollback
/// supervisor needs. On a `billed` machine (the simulator) the report of
/// every epoch is the fold of its logs ([`crate::cost::fold`]) — a failed
/// epoch's too, so that a restore resumes from the bill folded at its
/// boundary; otherwise the report is all-zero, and a recorded log is only
/// handed back (folding it gives the same bill).
///
/// When a supervised epoch dies with a typed error the supervisor rolls
/// back to the last consistent cut, prunes the snapshots beyond it, and
/// re-executes with the next epoch salt — first remapping the blamed rank
/// onto a spare physical id when the fault is permanent (a thread kill
/// names its victim directly; an exhausted retry budget on a link the plan
/// kills blames the endpoint a rank-kill rule targets, else the dead
/// receiving end) — until an epoch completes or the restart budget runs
/// out. The returned run is the final, successful epoch's, carrying the
/// [`RecoveryReport`] of the trajectory.
///
/// # Errors
/// Whatever `run_epoch` died with; supervised,
/// [`MachineError::Unrecoverable`] when `max_restarts` is exhausted (or a
/// permanent fault needs a spare none is left for), carrying the root
/// cause and the partial [`FaultSummary`] at the last consistent cut.
pub fn supervise<T>(
    p: usize,
    spec: &MachineSpec<'_>,
    billed: bool,
    run_epoch: impl Fn(
        Option<&FaultPlan>,
        Option<&Epoch>,
    ) -> (Result<MachineRun<T>, MachineError>, Vec<Vec<CommEvent>>),
) -> Result<MachineRun<T>, MachineError> {
    // a supervised run without a plan measures the pure checkpoint cost
    let empty = FaultPlan::new(0);
    let plan = spec.faults.or(spec.recovery.map(|_| &empty));
    let mut saved = Saved::default();
    let mut run_epoch = |epoch: Option<&Epoch>| {
        let (outcome, logs) = run_epoch(plan, epoch);
        let report = if billed {
            fold_epoch(&logs, spec.profile, &mut saved).expect("a machine's own log folds")
        } else {
            RunReport { per_rank: vec![RankStats::default(); p], ..Default::default() }
        };
        let mut run = outcome?;
        run.report = report;
        crate::perf::record_run(&run.report, run.faults.as_ref());
        if spec.record {
            run.scripts = logs;
        }
        Ok(run)
    };
    let (Some(policy), Some(plan)) = (spec.recovery, plan) else { return run_epoch(None) };
    let store = Arc::new(SnapshotStore::new(p));
    let checkpoints = Checkpoints { store: Arc::clone(&store), resume: 0, every: policy.every };
    let mut epoch = Epoch { number: 0, remap: (0..p).collect(), checkpoints };
    let mut recovery = RecoveryReport::default();
    let mut discarded_words = 0u64;
    loop {
        epoch.checkpoints.resume = store.consistent_boundary();
        if epoch.number > 0 {
            recovery.resume_boundaries.push(epoch.checkpoints.resume);
        }
        let err = match run_epoch(Some(&epoch)) {
            Ok(mut run) => {
                recovery.snapshots_taken = store.saves();
                recovery.snapshot_words = store.save_words();
                recovery.restores = store.restores();
                recovery.restore_words = store.restore_words();
                crate::perf::record_recovery(&recovery, discarded_words);
                run.recovery = Some(recovery);
                return Ok(run);
            }
            Err(err) => err,
        };
        recovery.causes.push(err.to_string());
        let blamed = match &err {
            MachineError::Down(d) => Some(d.rank),
            MachineError::Fault(fe) => {
                let (src, dst) = (epoch.remap[fe.src], epoch.remap[fe.dst]);
                let victim =
                    if plan.kills_rank(src) && !plan.kills_rank(dst) { fe.src } else { fe.dst };
                plan.kills_link(src, dst).then_some(victim)
            }
            _ => None,
        };
        let spare = p + recovery.spare_takeovers.len();
        if recovery.restarts >= policy.max_restarts
            || (blamed.is_some() && recovery.spare_takeovers.len() >= policy.spares)
        {
            return Err(MachineError::Unrecoverable(Unrecoverable {
                cause: Box::new(err),
                restarts: recovery.restarts,
                partial: store.partial_summary(store.consistent_boundary()),
            }));
        }
        if let Some(blamed) = blamed {
            epoch.remap[blamed] = spare;
            recovery.spare_takeovers.push((blamed, spare));
        }
        discarded_words += store.prune_beyond(store.consistent_boundary());
        recovery.rollbacks += 1;
        recovery.restarts += 1;
        epoch.number += 1;
    }
}

// ---------------------------------------------------------------------------
// Typed machine errors
// ---------------------------------------------------------------------------

/// Any way a machine run can fail, as a typed value: the supervisor's
/// input, and the `Err` of every fallible [`crate::Machine`] entry point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// A message exhausted its retry budget (dead link, killed rank).
    Fault(crate::faults::FaultError),
    /// A receive saw a tag it did not expect — a schedule bug.
    Protocol(ProtocolError),
    /// The wall-clock watchdog found every rank stalled.
    Hang(HangError),
    /// A rank's thread was killed outright by the fault plan at a phase
    /// boundary (the native backend's thread-kill chaos mode).
    Down(RankDown),
    /// The recovery supervisor exhausted its restart budget.
    Unrecoverable(Unrecoverable),
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::Fault(e) => e.fmt(f),
            MachineError::Protocol(e) => e.fmt(f),
            MachineError::Hang(e) => e.fmt(f),
            MachineError::Down(e) => e.fmt(f),
            MachineError::Unrecoverable(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<crate::faults::FaultError> for MachineError {
    fn from(e: crate::faults::FaultError) -> Self {
        MachineError::Fault(e)
    }
}

impl From<RankDown> for MachineError {
    fn from(e: RankDown) -> Self {
        MachineError::Down(e)
    }
}

/// A rank whose program the fault plan killed outright at a phase
/// boundary — the native backend's analogue of a lost executor. Carried
/// as the dying rank's panic payload and surfaced over cascade panics.
/// A rank-down is **permanent**: replaying with the same physical id dies
/// at the same boundary every epoch, so the recovery supervisor must
/// remap the logical rank onto a spare before replay can succeed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankDown {
    /// The logical rank that died.
    pub rank: Rank,
    /// The phase-boundary counter at the moment of death.
    pub boundary: u64,
}

impl std::fmt::Display for RankDown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} down: killed by the fault plan at phase boundary {} — \
             permanent loss; recovery needs a spare-rank takeover",
            self.rank, self.boundary
        )
    }
}

impl std::error::Error for RankDown {}

/// A receive whose arriving tag did not match the expected one — always an
/// algorithm-schedule bug. Typed so the supervisor (and tests) can route
/// it; its `Display` keeps the long-standing grep-able diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError {
    /// The receiving rank that observed the mismatch.
    pub rank: Rank,
    /// The sending rank.
    pub src: Rank,
    /// The tag the receiver expected.
    pub expected: u64,
    /// The tag that actually arrived.
    pub actual: u64,
    /// Up to 8 still-pending `(tag, words)` messages on the same channel.
    pub pending: Vec<(u64, usize)>,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pending: Vec<String> = self
            .pending
            .iter()
            .map(|(tag, words)| format!("tag {tag:#x} ({words} words)"))
            .collect();
        write!(
            f,
            "rank {}: message from {} has tag {:#x}, expected {:#x} — \
             schedule mismatch; pending from {}: [{}]",
            self.rank,
            self.src,
            self.actual,
            self.expected,
            self.src,
            pending.join(", ")
        )
    }
}

impl std::error::Error for ProtocolError {}

/// The watchdog's verdict on a stalled machine: no rank made progress for
/// the configured wall-clock window, so the run was aborted with a dump of
/// who was blocked on whom — a solver bug can no longer hang the suite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HangError {
    /// The rank whose watchdog fired.
    pub rank: Rank,
    /// The peer it was blocked receiving from.
    pub src: Rank,
    /// The tag it was blocked waiting for.
    pub tag: u64,
    /// What every rank was doing at the dump, in rank order.
    pub blocked: Vec<RankWait>,
    /// Up to 16 `(src, tag, words)` messages pending at the detecting
    /// rank's ports — delivered but never asked for.
    pub pending: Vec<(Rank, u64, usize)>,
}

impl std::fmt::Display for HangError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let blocked: Vec<String> = self
            .blocked
            .iter()
            .enumerate()
            .map(|(r, b)| match b {
                RankWait::On(src, tag) => format!("{r}⇐{src} (tag {tag:#x})"),
                RankWait::Returned => format!("{r}: returned"),
                RankWait::Running => format!("{r}: running"),
            })
            .collect();
        let pending: Vec<String> = self
            .pending
            .iter()
            .map(|(src, tag, words)| format!("from {src} tag {tag:#x} ({words} words)"))
            .collect();
        write!(
            f,
            "machine hung: rank {} made no progress waiting on rank {} (tag {:#x}); \
             blocked-on: [{}]; pending at rank {}: [{}]",
            self.rank,
            self.src,
            self.tag,
            blocked.join(", "),
            self.rank,
            pending.join(", ")
        )
    }
}

impl std::error::Error for HangError {}

/// One rank's line in a [`HangError`] dump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankWait {
    /// Its program was still running: not blocked in a receive, not
    /// returned.
    Running,
    /// Its program had returned.
    Returned,
    /// Blocked receiving from `.0` the message tagged `.1`.
    On(Rank, u64),
}

/// The restart budget ran out: the supervisor degrades to this typed
/// report instead of panicking, carrying the root cause and the partial
/// fault history reconstructed from the last consistent cut.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unrecoverable {
    /// The error behind the final failed epoch.
    pub cause: Box<MachineError>,
    /// Restarts spent before giving up.
    pub restarts: u32,
    /// Fault counters at the last consistent cut (`unrecoverable = 1`).
    pub partial: FaultSummary,
}

impl std::fmt::Display for Unrecoverable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unrecoverable after {} restarts: {} (partial fault history: {})",
            self.restarts,
            self.cause,
            self.partial.digest()
        )
    }
}

impl std::error::Error for Unrecoverable {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parse_roundtrips() {
        assert_eq!(RecoveryPolicy::parse("").unwrap(), RecoveryPolicy::default());
        assert_eq!(
            RecoveryPolicy::parse("restarts=5, every=2,spares=0").unwrap(),
            RecoveryPolicy { max_restarts: 5, every: 2, spares: 0 }
        );
    }

    #[test]
    fn policy_parse_rejects_bad_specs() {
        for bad in ["restarts", "restarts=x", "warp=1", "every=-1", "spares=1.5"] {
            assert!(RecoveryPolicy::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn error_displays_carry_the_grepable_phrases() {
        let p = ProtocolError { rank: 1, src: 0, expected: 0xC, actual: 0xA, pending: vec![] };
        assert!(p.to_string().contains("schedule mismatch"));
        let blocked = vec![RankWait::Running; 2];
        let h = HangError { rank: 0, src: 1, tag: 7, blocked, pending: vec![] };
        assert!(h.to_string().contains("machine hung"));
        let d = RankDown { rank: 2, boundary: 1 };
        assert!(d.to_string().contains("rank 2 down"));
        let u = Unrecoverable {
            cause: Box::new(MachineError::Protocol(p)),
            restarts: 3,
            partial: FaultSummary::default(),
        };
        assert!(u.to_string().contains("unrecoverable after 3 restarts"));
    }
}
