//! The native shared-memory machine: `p` ranks on parked OS threads of
//! the rank-thread pool, one std `mpsc` inbox per rank, no cost clocks,
//! genuine wall-clock time.
//!
//! It is the rank endpoint the simulator runs
//! ([`apsp_simnet::Endpoint`]) with a meter that counts nothing, so it
//! provides, from the same code: per-`(src, dst)` FIFO non-overtaking,
//! tag checking (typed [`apsp_simnet::ProtocolError`]), the hang watchdog
//! (typed [`apsp_simnet::HangError`] after `APSP_WATCHDOG_MS`), the
//! cascade-death discipline ([`apsp_simnet::cascade`]), comm-script
//! recording ([`MachineSpec::record`]), and the whole robustness stack —
//! the seeded fault grammar ([`apsp_simnet::FaultPlan`]) injected into
//! real inbox traffic and recovered by the shared seq+checksum envelope
//! and bounded-backoff retransmission ([`MachineSpec::faults`]), and the
//! shared checkpoint/restart supervisor ([`MachineSpec::recovery`]).
//!
//! What is native about it ([`NativeMeter`]): a retransmit backoff is a
//! real (capped) sleep, and a `kill=R[@B]` rule **unwinds rank R's
//! program** on its worker at the chosen phase boundary instead of
//! dropping its messages.
//! What it does **not** provide: §3.1 cost clocks, span ledgers, schedule
//! governors — [`crate::Transport::clocks`] returns zeros, the report is
//! all-zero, and spans only echo into a recorded script. Injection
//! decisions are pure functions of `(seed, epoch, boundary, src, dst,
//! tag, seq, attempt)` and sequence numbers are per `(src, dst)`, so fault
//! trajectories are deterministic even under real thread scheduling; with
//! an empty plan the fault layer is never constructed. See
//! docs/BACKENDS.md ("Native fault model") for the exact guarantees.

use crate::sync::thread;
use apsp_simnet::{
    run_epoch, supervise, Endpoint, MachineError, MachineRun, MachineSpec, Meter, Rank, RunReport,
};
use std::time::Duration;

/// A rank's handle to the native machine.
pub type NativeComm = Endpoint<NativeMeter>;

/// The native machine's [`Meter`]: no cost model. Frames carry no stamp
/// and every charging hook keeps its do-nothing default.
pub struct NativeMeter;

impl Meter for NativeMeter {
    type Stamp = ();

    const KILL_UNWINDS_RANK: bool = true;

    fn on_wire(&mut self, _dst: Rank, _tag: u64, _words: usize, _delay: u64) {}

    fn backoff(&mut self, units: u64) {
        // real (bounded) backoff before the retransmission
        thread::sleep(Duration::from_micros(units.min(2000)));
    }
}

/// Launcher for the native machine — the shape of
/// [`apsp_simnet::Machine`]'s entry points without the cost model.
pub struct NativeMachine;

impl NativeMachine {
    /// Runs `f(comm)` on `p` ranks (one pooled OS thread each) and returns every
    /// rank's result plus an all-zero [`RunReport`] (`p` default rank
    /// entries, no profile) so callers keep a uniform result shape across
    /// backends.
    ///
    /// Panics in any rank propagate and fail the run; when several ranks
    /// die, the root cause (the first non-cascade panic in rank order) is
    /// surfaced rather than a disconnect victim. Typed machine aborts
    /// (tag mismatch, watchdog hang) re-panic with their `Display`
    /// rendering, exactly like [`apsp_simnet::Machine::run`].
    pub fn run<T, F>(p: usize, f: F) -> (Vec<T>, RunReport)
    where
        T: Send,
        F: Fn(&mut NativeComm) -> T + Sync,
    {
        let (run, _) =
            run_epoch(p, &f, None, None, None, |_| NativeMeter).unwrap_or_else(|e| panic!("{e}"));
        (run.outs, run.report)
    }

    /// The one configurable entry point — [`apsp_simnet::Machine::launch`]
    /// on real OS threads, taking the same [`MachineSpec`]:
    ///
    /// * `faults` runs the shared reliability protocol on real inbox
    ///   traffic and unwinds the programs of `kill=R[@B]` victims at
    ///   their phase boundaries. Injection decisions are pure functions
    ///   of the seeded plan and the per-`(src, dst)` sequence numbers, so
    ///   the [`apsp_simnet::FaultSummary`] is deterministic under real
    ///   thread scheduling.
    /// * `recovery` is the shared [`apsp_simnet::supervise`] loop over
    ///   real threads: every restart runs all `p` ranks again with the
    ///   next epoch salt, a killed rank remapped onto a spare physical id
    ///   first. Same plan + same policy ⇒ the same
    ///   [`apsp_simnet::RecoveryReport`] and bit-identical outputs.
    /// * `record` returns the same per-rank [`apsp_simnet::CommEvent`]
    ///   scripts the simulator records, so the protocol linter runs
    ///   against native executions too; unrecorded, the per-op cost is a
    ///   skipped `Option`.
    /// * `profile` and `trace` have nothing to collect here (no cost
    ///   clocks, no ledgers); `apsp-core`'s `launch` rejects them up front.
    ///
    /// # Errors
    /// [`MachineError::Down`] when a kill rule took a rank down,
    /// [`MachineError::Fault`] when a message exhausted its retries,
    /// [`MachineError::Protocol`]/[`MachineError::Hang`] for schedule bugs
    /// and stalls; under `recovery`, [`MachineError::Unrecoverable`] once
    /// the restart budget (or the spare pool) is spent.
    pub fn launch<T, F>(
        p: usize,
        spec: &MachineSpec<'_>,
        f: F,
    ) -> Result<MachineRun<T>, MachineError>
    where
        T: Send,
        F: Fn(&mut NativeComm) -> T + Sync,
    {
        supervise(p, spec, |plan, epoch, script| {
            run_epoch(p, &f, plan, epoch, script, |_| NativeMeter).map(|(run, _)| run)
        })
    }
}

// Gated off under `--cfg loom`: `run` would need a model around it — the
// loom counterparts live in `tests/loom.rs`, and everything
// machine-independent about the endpoint is asserted for both machines in
// `tests/protocol.rs`.
#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_roundtrip() {
        let (outs, report) = NativeMachine::run(2, |comm| match comm.rank() {
            0 => {
                comm.send(1, 7, vec![1.5, 2.5]);
                comm.recv(1, 8)
            }
            _ => {
                let got = comm.recv(0, 7);
                comm.send(0, 8, vec![got[0] + got[1]]);
                got
            }
        });
        assert_eq!(outs[0], vec![4.0]);
        assert_eq!(outs[1], vec![1.5, 2.5]);
        // the native machine reports no costs, but keeps the report shape
        assert_eq!(report.per_rank.len(), 2);
        assert_eq!(report.critical_latency(), 0);
    }

    #[test]
    #[should_panic(expected = "schedule mismatch")]
    fn tag_mismatch_fails_loudly() {
        let _ = NativeMachine::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![0.0]);
            } else {
                let _ = comm.recv(0, 2);
            }
        });
    }
}
