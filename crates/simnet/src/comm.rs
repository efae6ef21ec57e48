//! The simulated machine: the shared rank [`Endpoint`], billed by the
//! §3.1 cost model as the fold of its event log.

use crate::endpoint::{run_epoch, Endpoint, Log, Meter};
use crate::faults::{FaultPlan, FaultSummary};
use crate::recovery::{supervise, MachineError, RecoveryPolicy, RecoveryReport};
use crate::report::RunReport;
use crate::script::CommEvent;

/// A process id, `0 .. p`.
pub type Rank = usize;

/// A rank's handle to the simulated machine: the shared [`Endpoint`],
/// whose every send, receive, compute and checkpoint lands in the §3.1
/// bill.
pub type Comm = Endpoint<SimMeter>;

/// The simulated machine.
pub struct Machine;

impl Machine {
    /// Runs `f(comm)` on `p` ranks (one pooled OS thread each) and returns every
    /// rank's result plus the cost report.
    ///
    /// Panics in any rank propagate and fail the run (useful in tests).
    ///
    /// ```
    /// use apsp_simnet::Machine;
    /// use apsp_transport::Transport; // the collectives
    ///
    /// // rank 0 broadcasts a value to everyone; costs are measured
    /// let group: Vec<usize> = (0..4).collect();
    /// let (outs, report) = Machine::run(4, |comm| {
    ///     let data = (comm.rank() == 0).then(|| vec![3.25]);
    ///     comm.bcast(&group, 0, 7, data)[0]
    /// });
    /// assert_eq!(outs, vec![3.25; 4]);
    /// assert_eq!(report.critical_latency(), 2); // ⌈log₂ 4⌉ tree rounds
    /// assert_eq!(report.total_messages(), 3);
    /// ```
    pub fn run<T, F>(p: usize, f: F) -> (Vec<T>, RunReport)
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        let run = Self::launch(p, &MachineSpec::default(), f).unwrap_or_else(|e| panic!("{e}"));
        (run.outs, run.report)
    }

    /// The one configurable entry point: [`Machine::run`] with whatever
    /// `spec` switches on. The options ([`MachineSpec`]'s fields) are
    /// orthogonal: each observes or perturbs the run exactly as it does
    /// alone — the fault layer charges its recovery traffic to the ordinary
    /// cost clocks, checkpoints charge `(1, words)` per snapshot and
    /// restore, and profiling and recording leave every clock,
    /// counter and ledger byte-identical.
    ///
    /// # Errors
    /// Without `recovery`, the typed error the first dying rank carried
    /// ([`MachineError::Fault`] names the message whose retry budget ran
    /// out) — the run never returns silently wrong data. With it,
    /// [`MachineError::Unrecoverable`] once the restart budget (or the
    /// spare pool) is spent.
    pub fn launch<T, F>(
        p: usize,
        spec: &MachineSpec<'_>,
        f: F,
    ) -> Result<MachineRun<T>, MachineError>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        let log = match (spec.record, spec.profile) {
            (true, _) => Log::All,
            (false, true) => Log::Spans,
            (false, false) => Log::Bill,
        };
        supervise(p, spec, true, |plan, epoch| run_epoch(p, &f, plan, epoch, log))
    }
}

/// What a [`Machine::launch`] switches on beyond the cost clocks. The
/// options are orthogonal; the default is a plain run. The native machine
/// (`apsp-transport`) takes the same spec.
#[derive(Clone, Copy, Debug, Default)]
pub struct MachineSpec<'a> {
    /// Run under this deterministic fault plan (see [`crate::faults`]);
    /// the run carries a [`FaultSummary`].
    pub faults: Option<&'a FaultPlan>,
    /// Supervise the run ([`crate::recovery::supervise`]): checkpoint at
    /// phase boundaries, roll back and re-execute when an epoch dies. The
    /// report and summary are the final epoch's; the [`RecoveryReport`]
    /// carries the trajectory. Without `faults` the plan is empty.
    pub recovery: Option<RecoveryPolicy>,
    /// Fold span ledgers, the comm matrix and every sent message into
    /// [`RunReport::profile`].
    pub profile: bool,
    /// Return every rank's event log ([`MachineRun::scripts`]), logical
    /// events included.
    pub record: bool,
}

/// Everything a [`Machine::launch`] hands back.
#[derive(Debug)]
pub struct MachineRun<T> {
    /// Every rank's result, in rank order.
    pub outs: Vec<T>,
    /// The cost report: the fold of the run's event log (all-zero on a
    /// machine that kept none).
    pub report: RunReport,
    /// Fault history, present when the run had a fault layer.
    pub faults: Option<FaultSummary>,
    /// Checkpoint/restart ledger, present when the run was supervised.
    pub recovery: Option<RecoveryReport>,
    /// Per-rank event logs (rank order); empty unless recorded.
    pub scripts: Vec<Vec<CommEvent>>,
}

/// The simulator's [`Meter`]: a kill rule drops the victim's messages,
/// and a backoff waits in simulated time only.
pub struct SimMeter;

impl Meter for SimMeter {}

// The simulator's own behaviour: clocks and ledgers. What is
// machine-independent about the endpoint (FIFO, tag checks, the
// reliability protocol's exact stats, kills, recovery trajectories) is
// asserted once for both machines in
// `crates/transport/tests/protocol.rs`; the collectives' bills next to
// the collectives in `apsp-transport`.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_critical_path() {
        let (_, report) = Machine::run(2, |comm| match comm.rank() {
            0 => {
                comm.send(1, 1, vec![1.0, 2.0, 3.0]);
                let back = comm.recv(1, 2);
                assert_eq!(back, vec![9.0]);
            }
            1 => {
                let data = comm.recv(0, 1);
                assert_eq!(data, vec![1.0, 2.0, 3.0]);
                comm.send(0, 2, vec![9.0]);
            }
            _ => unreachable!(),
        });
        // critical path: two messages, 4 words
        assert_eq!(report.critical_latency(), 2);
        assert_eq!(report.critical_bandwidth(), 4);
        assert_eq!(report.total_messages(), 2);
        assert_eq!(report.total_words(), 4);
    }

    #[test]
    fn disjoint_pairs_count_once() {
        // ranks 0↔1 and 2↔3 exchange simultaneously: critical latency is 1,
        // not 2 — the §3.1 "separate pairs counted once" rule.
        let (_, report) = Machine::run(4, |comm| {
            let peer = comm.rank() ^ 1;
            if comm.rank() < peer {
                comm.send(peer, 7, vec![0.0; 10]);
            } else {
                comm.recv(peer, 7);
            }
        });
        assert_eq!(report.critical_latency(), 1);
        assert_eq!(report.critical_bandwidth(), 10);
        assert_eq!(report.total_messages(), 2);
    }

    #[test]
    fn chain_accumulates_latency() {
        // 0 → 1 → 2 → 3: critical latency 3
        let p = 4;
        let (_, report) = Machine::run(p, |comm| {
            let r = comm.rank();
            if r > 0 {
                comm.recv(r - 1, r as u64);
            }
            if r + 1 < p {
                comm.send(r + 1, (r + 1) as u64, vec![1.0]);
            }
        });
        assert_eq!(report.critical_latency(), 3);
        assert_eq!(report.critical_bandwidth(), 3);
    }

    #[test]
    fn clocks_are_deterministic() {
        let run = || {
            Machine::run(8, |comm| {
                let r = comm.rank();
                // a little irregular traffic
                if r % 2 == 0 && r + 1 < 8 {
                    comm.send(r + 1, 0, vec![0.0; r + 1]);
                } else if r % 2 == 1 {
                    comm.recv(r - 1, 0);
                    if r + 2 < 8 {
                        comm.send(r + 2, 1, vec![0.0; 2]);
                    }
                    if r >= 3 {
                        comm.recv(r - 2, 1);
                    }
                }
            })
            .1
        };
        let a = run();
        let b = run();
        for (x, y) in a.per_rank.iter().zip(&b.per_rank) {
            assert_eq!(x.clocks, y.clocks);
        }
    }

    #[test]
    fn memory_tracking_peaks() {
        let (_, report) = Machine::run(1, |comm| {
            comm.alloc(100);
            comm.alloc(50);
            comm.release(120);
            comm.alloc(10);
        });
        assert_eq!(report.max_peak_words(), 150);
        assert_eq!(report.per_rank[0].resident_words, 40);
    }

    #[test]
    fn compute_clock() {
        let (_, report) = Machine::run(2, |comm| {
            if comm.rank() == 0 {
                comm.compute(500);
                comm.send(1, 0, vec![1.0]);
            } else {
                comm.recv(0, 0);
                comm.compute(10);
            }
        });
        // rank 1 inherits rank 0's 500 ops through the merge, then adds 10
        assert_eq!(report.critical_compute(), 510);
    }

    #[test]
    #[should_panic(expected = "schedule mismatch")]
    fn tag_mismatch_panics() {
        let _ = Machine::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![]);
            } else {
                comm.recv(0, 2);
            }
        });
    }

    #[allow(clippy::type_complexity)]
    fn run_faulty<T: Send + std::fmt::Debug>(
        p: usize,
        plan: &FaultPlan,
        f: impl Fn(&mut Comm) -> T + Sync,
    ) -> Result<(Vec<T>, RunReport, FaultSummary), MachineError> {
        Machine::launch(p, &MachineSpec { faults: Some(plan), ..Default::default() }, f)
            .map(|run| (run.outs, run.report, run.faults.expect("faulty run carries a summary")))
    }

    #[allow(clippy::type_complexity)]
    fn run_recovering<T: Send + std::fmt::Debug>(
        p: usize,
        plan: &FaultPlan,
        policy: RecoveryPolicy,
        f: impl Fn(&mut Comm) -> T + Sync,
    ) -> Result<(Vec<T>, RunReport, FaultSummary, RecoveryReport), MachineError> {
        let spec = MachineSpec { faults: Some(plan), recovery: Some(policy), ..Default::default() };
        Machine::launch(p, &spec, f).map(|run| {
            let (faults, recovery) = (run.faults.expect("summary"), run.recovery.expect("ledger"));
            (run.outs, run.report, faults, recovery)
        })
    }

    /// A two-rank ping-pong under a given plan; returns per-rank clocks,
    /// the report, and the summary.
    fn faulty_ping_pong(plan: &FaultPlan) -> (RunReport, FaultSummary) {
        let (outs, report, summary) = run_faulty(2, plan, |comm| match comm.rank() {
            0 => {
                comm.send(1, 1, vec![1.0, 2.0, 3.0]);
                comm.recv(1, 2)
            }
            _ => {
                let data = comm.recv(0, 1);
                assert_eq!(data, vec![1.0, 2.0, 3.0]);
                comm.send(0, 2, vec![9.0]);
                data
            }
        })
        .expect("recoverable plan");
        assert_eq!(outs[0], vec![9.0]);
        (report, summary)
    }

    #[test]
    fn drops_are_charged_like_any_send() {
        let plan = FaultPlan::new(7).with_drop(1.0); // every eligible attempt drops
        let (report, summary) = faulty_ping_pong(&plan);
        let t = summary.totals();
        assert_eq!(t.drops_injected, 2 * crate::faults::INJECT_ATTEMPTS as u64);
        // recovery traffic lands in the ordinary counters: 2 logical
        // messages became 2 * (INJECT_ATTEMPTS + 1) physical sends
        let sent: u64 = report.per_rank.iter().map(|r| r.sent_messages).sum();
        assert_eq!(sent, 2 * (crate::faults::INJECT_ATTEMPTS as u64 + 1));
        let (clean, _) = faulty_ping_pong(&FaultPlan::new(7));
        assert!(
            report.critical_latency() > clean.critical_latency(),
            "drops + backoff must lengthen the critical path"
        );
    }

    #[test]
    fn delay_inflates_receiver_latency_only() {
        let delayed = faulty_ping_pong(&FaultPlan::new(17).with_delay(1.0, 10)).0;
        let clean = faulty_ping_pong(&FaultPlan::new(17)).0;
        // sender clock at each hop is unchanged; the receive-side merge
        // observes the late arrival, so the critical path stretches
        assert!(delayed.critical_latency() >= clean.critical_latency() + 10);
    }

    #[test]
    fn straggler_multiplies_compute() {
        let plan = FaultPlan::new(19).with_straggler(1, 4);
        let (_, report, summary) = run_faulty(2, &plan, |comm| {
            comm.compute(100);
        })
        .expect("no message faults possible");
        assert_eq!(report.per_rank[0].clocks.compute, 100);
        assert_eq!(report.per_rank[1].clocks.compute, 400);
        assert_eq!(summary.per_rank[1].straggler_ops, 300);
    }

    /// A relay pipeline with `phases` checkpointable phases: each phase,
    /// rank 0 sends `phase` to 1, which forwards it to 2; every rank folds
    /// the value into its state, so the final state is Σ 1..=phases.
    fn relay(phases: u64) -> impl Fn(&mut Comm) -> Vec<f64> + Sync {
        move |comm| {
            let mut state = vec![0.0];
            for phase in 1..=phases {
                if comm.phase_live() {
                    let x = match comm.rank() {
                        0 => {
                            comm.send(1, phase, vec![phase as f64]);
                            phase as f64
                        }
                        1 => {
                            let v = comm.recv(0, phase);
                            comm.send(2, phase, v.clone());
                            v[0]
                        }
                        _ => comm.recv(1, phase)[0],
                    };
                    state[0] += x;
                }
                state = comm.commit_phase(state);
            }
            state
        }
    }

    #[test]
    fn commit_phase_is_free_without_recovery() {
        // outside a recovering launch, commit_phase only advances the
        // boundary counter: same clocks as a run without any commits
        let plan = FaultPlan::new(31);
        let (outs, with_commits, _) =
            run_faulty(3, &plan, relay(2)).expect("empty plan cannot fail");
        let (_, without, _) = run_faulty(3, &plan, |comm: &mut Comm| {
            for phase in 1..=2u64 {
                match comm.rank() {
                    0 => comm.send(1, phase, vec![phase as f64]),
                    1 => {
                        let v = comm.recv(0, phase);
                        comm.send(2, phase, v);
                    }
                    _ => drop(comm.recv(1, phase)),
                }
            }
        })
        .expect("empty plan cannot fail");
        assert_eq!(outs, vec![vec![3.0]; 3]);
        assert_eq!(with_commits.per_rank, without.per_rank);
    }

    #[test]
    fn recovering_fault_free_run_charges_snapshots_exactly() {
        let plan = FaultPlan::new(37);
        let (plain_outs, plain, _) =
            run_faulty(3, &plan, relay(3)).expect("empty plan cannot fail");
        let (outs, report, _, recovery) =
            run_recovering(3, &plan, RecoveryPolicy::default(), relay(3))
                .expect("empty plan cannot fail");
        assert_eq!(outs, plain_outs);
        assert_eq!(recovery.restarts, 0, "nothing to recover from");
        assert_eq!(recovery.snapshots_taken, 9, "3 ranks × 3 boundaries");
        assert_eq!(recovery.snapshot_words, 9, "one state word per snapshot");
        assert_eq!((recovery.restores, recovery.rollbacks), (0, 0));
        // the checkpoint traffic lands in the §3.1 ledgers exactly:
        // (1, words) per snapshot on each rank's own clocks
        for (with, without) in report.per_rank.iter().zip(&plain.per_rank) {
            assert_eq!(with.clocks.latency, without.clocks.latency + 3);
            assert_eq!(with.clocks.bandwidth, without.clocks.bandwidth + 3);
            assert_eq!(with.clocks.compute, without.clocks.compute);
            assert_eq!(with.sent_messages, without.sent_messages, "snapshots are not messages");
        }
    }
}
