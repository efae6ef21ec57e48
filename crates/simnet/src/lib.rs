#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # apsp-simnet
//!
//! A simulated distributed-memory machine implementing the paper's §3.1
//! communication model — the workspace's MPI substitute.
//!
//! * `p` ranks run SPMD code on `p` OS threads, parked between launches
//!   in a pool every launch reuses ([`Machine::run`]; every option —
//!   faults, recovery, profiling, tracing, recording — is a field of the
//!   [`MachineSpec`] that [`Machine::launch`] takes).
//! * Each rank has one inbox, and the messages from each sender come out
//!   of it in send order (MPI's per-`(src, dst)` non-overtaking
//!   guarantee).
//! * Every rank carries **critical-path clocks** `(latency, bandwidth,
//!   compute)`. A send advances the sender's clocks by `(1 message,
//!   w words)`; the matching receive advances the receiver's clocks to the
//!   element-wise maximum with the sender's post-send snapshot. The maximum
//!   over ranks at the end is therefore exactly the paper's critical-path
//!   cost: "two messages communicated between separate pairs of processors
//!   simultaneously are counted only once".
//! * Collectives (`bcast`, `reduce`, … — methods of `apsp-transport`'s
//!   `Transport` trait, written once for every machine) are binomial trees
//!   built from those sends, so their `O(log g)` latency and `O(w log g)`
//!   bandwidth *emerge* from the simulation instead of being formulas.
//!
//! ## One endpoint, two machines
//!
//! The machine's mechanics — frames, links, the reliability protocol, the
//! watchdog, checkpoint commits, the epoch runner — live once in
//! [`endpoint`], generic over a [`Meter`]. [`Comm`] is that endpoint with
//! the §3.1 cost model ([`comm::SimMeter`]) plugged in; `apsp-transport`'s
//! native machine is the same endpoint with a meter that counts nothing.
//! All of it synchronizes through the [`sync`] shim, so the code that runs
//! is the code `--cfg loom` model-checks.
//!
//! ## Fault injection
//!
//! [`MachineSpec::faults`] activates a deterministic fault layer (see
//! [`faults`]): a seeded [`faults::FaultPlan`] injects message drops,
//! duplications, corruptions, delays, and per-rank slowdowns, and a
//! reliability protocol (sequence numbers, checksums, bounded
//! retransmission with exponential backoff) recovers from them — charging
//! all recovery traffic to the same cost clocks, so resilience overhead
//! is measured by the very model the paper's Table 2 uses. With an empty
//! plan the layer is bit-for-bit invisible in every report.
//!
//! ## Checkpoint/restart
//!
//! [`MachineSpec::recovery`] survives what the retransmission
//! protocol cannot (dead links, killed ranks, exhausted retries): rank
//! programs mark phase boundaries with [`Comm::commit_phase`], the
//! machine snapshots per-rank state there (charging the bytes to the
//! ordinary ledgers), and a supervisor rolls back to the last consistent
//! checkpoint and re-executes — remapping permanently dead ranks onto
//! spares — under a bounded [`RecoveryPolicy`], degrading to a typed
//! [`recovery::Unrecoverable`] report when the budget runs out. A
//! wall-clock watchdog turns hung schedules into typed
//! [`recovery::HangError`]s instead of stuck test runs.
//!
//! ## Deadlock discipline
//!
//! Sends never block (unbounded inboxes); receives block. A distributed
//! algorithm on this machine is deadlock-free when every rank executes its
//! communication operations sorted by a global deterministic key and each
//! operation's internal message pattern is acyclic (trees are). All
//! algorithms in `apsp-core` follow this discipline.

pub mod cascade;
pub mod comm;
pub mod endpoint;
pub mod faults;
pub mod perf;
mod pool;
pub mod recovery;
pub mod report;
pub mod script;
pub mod snapshot;
pub mod sync;
pub mod trace;

pub use cascade::Disconnect;
pub use comm::{Comm, Machine, MachineRun, MachineSpec, Rank, SimMeter, TraceEvent};
pub use endpoint::{run_epoch, Endpoint, Meter, SpanGuard};
pub use faults::{FaultError, FaultPlan, FaultStats, FaultSummary, Injection};
pub use recovery::{
    supervise, Checkpoints, Epoch, HangError, MachineError, ProtocolError, RankDown, RankWait,
    RecoveryPolicy, RecoveryReport, Unrecoverable,
};
pub use report::{Clocks, RankStats, RunReport};
pub use script::{phase_totals, CollectiveKind, CommEvent, PhaseTotals, ScriptBoard};
pub use snapshot::{Snapshot, SnapshotStore};
pub use trace::{
    CommMatrix, PhaseBreakdown, PhaseRow, Profile, RankProfile, SpanLedger, SpanRecord,
    SpanSnapshot, TimeModel,
};
