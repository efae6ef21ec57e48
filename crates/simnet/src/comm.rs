//! The simulated machine: the shared rank [`Endpoint`] metered by the
//! §3.1 cost model.

use crate::endpoint::{run_epoch, Endpoint, Meter};
use crate::faults::{FaultPlan, FaultSummary};
use crate::recovery::{supervise, MachineError, RecoveryPolicy, RecoveryReport};
use crate::report::{Clocks, RankStats, RunReport};
use crate::sched::{ChoicePoint, Governor};
use crate::script::{CommEvent, ScriptBoard};
use crate::sync::Arc;
use crate::trace::{Profile, RankProfile, SendTotal, SpanLedger, SpanSnapshot};
use std::collections::BTreeMap;

/// A process id, `0 .. p`.
pub type Rank = usize;

/// A rank's handle to the simulated machine: the shared [`Endpoint`]
/// charging every send, receive, compute and checkpoint to the §3.1 clocks.
pub type Comm = Endpoint<SimMeter>;

/// One recorded message, when tracing is on ([`MachineSpec::trace`] or
/// [`MachineSpec::profile`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sender rank.
    pub src: Rank,
    /// Receiver rank.
    pub dst: Rank,
    /// Payload size in words.
    pub words: usize,
    /// Message tag (phase-identifying, algorithm-specific).
    pub tag: u64,
    /// The sender's critical-path clocks immediately *after* the send —
    /// the simulated time at which the message is on the wire. Ordering
    /// events by this snapshot time-orders a merged trace.
    pub clocks: Clocks,
}

impl TraceEvent {
    /// Lexicographic sort key: simulated send time, then endpoints/tag.
    /// The clock components order first, so sorting by this key merges
    /// per-rank streams into one globally time-ordered stream.
    pub fn sort_key(&self) -> (u64, u64, u64, Rank, Rank, u64, usize) {
        (
            self.clocks.latency,
            self.clocks.bandwidth,
            self.clocks.compute,
            self.src,
            self.dst,
            self.tag,
            self.words,
        )
    }
}

impl PartialOrd for TraceEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TraceEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.sort_key().cmp(&other.sort_key())
    }
}

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
        let meter = |rank| SimMeter::new(rank, false, false, None);
        let (run, _) = run_epoch(p, &f, None, None, None, meter).unwrap_or_else(|e| panic!("{e}"));
        (run.outs, run.report)
    }

    /// The one configurable entry point: [`Machine::run`] with whatever
    /// `spec` switches on. The options ([`MachineSpec`]'s fields) are
    /// orthogonal: each observes or perturbs the run exactly as it does
    /// alone — the fault layer charges its recovery traffic to the ordinary
    /// cost clocks, checkpoints charge `(1, words)` per snapshot and
    /// restore, and profiling, tracing and recording leave every clock,
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
        supervise(p, spec, |plan, epoch, script| {
            let meter = |rank| SimMeter::new(rank, spec.trace || spec.profile, spec.profile, None);
            let (mut run, meters) = run_epoch(p, &f, plan, epoch, script, meter)?;
            let mut profiles = Vec::with_capacity(p);
            for meter in meters {
                let (events, profile) = meter.finish();
                run.traces.push(events);
                profiles.extend(profile);
            }
            if spec.profile {
                run.report.profile = Some(Profile::from_ranks(profiles));
            }
            Ok(run)
        })
    }

    /// Runs `f` with recording **and** governed delivery: every receive
    /// goes through a shared [`Governor`] that resolves wildcard receives
    /// ([`Comm::recv_any`]) against `schedule` and detects deadlock
    /// structurally (typed [`MachineError::Deadlock`], no watchdog wait).
    /// The comm scripts and
    /// the wildcard decision log survive a failing run — the verifier
    /// lints partial scripts and the explorer enumerates sibling
    /// schedules from the choices.
    ///
    /// Same program + same schedule ⇒ bit-identical outputs, report, and
    /// scripts. Fault injection is not supported in governed runs.
    pub fn run_governed<T, F>(p: usize, schedule: &[usize], f: F) -> GovernedRun<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        let board = Arc::new(ScriptBoard::new(p));
        let gov = Arc::new(Governor::new(p, schedule));
        let meter = |rank| SimMeter::new(rank, false, false, Some(Arc::clone(&gov)));
        let outcome = run_epoch(p, &f, None, None, Some(&board), meter)
            .map(|(run, _)| (run.outs, run.report));
        GovernedRun { outcome, scripts: board.take(), choices: gov.choices() }
    }
}

/// Everything a governed run produces, success or failure: the outcome,
/// every rank's comm script (partial on failure — recorded up to the
/// moment the machine died), and the wildcard decision log the schedule
/// explorer enumerates siblings from.
pub struct GovernedRun<T> {
    /// The run's result, or the typed error that killed it.
    pub outcome: Result<(Vec<T>, RunReport), MachineError>,
    /// Per-rank comm scripts (rank order), partial on failure.
    pub scripts: Vec<Vec<CommEvent>>,
    /// Wildcard-receive decisions actually made, in decision order.
    pub choices: Vec<ChoicePoint>,
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
    /// Collect span ledgers, the comm matrix and the event stream into
    /// [`RunReport::profile`].
    pub profile: bool,
    /// Return every message each rank sent ([`MachineRun::traces`]).
    pub trace: bool,
    /// Return every rank's comm script ([`MachineRun::scripts`]).
    pub record: bool,
}

/// Everything a [`Machine::launch`] hands back.
#[derive(Debug)]
pub struct MachineRun<T> {
    /// Every rank's result, in rank order.
    pub outs: Vec<T>,
    /// The cost report (all-zero on machines without a cost model).
    pub report: RunReport,
    /// Fault history, present when the run had a fault layer.
    pub faults: Option<FaultSummary>,
    /// Checkpoint/restart ledger, present when the run was supervised.
    pub recovery: Option<RecoveryReport>,
    /// Per-rank comm scripts (rank order); empty unless recorded.
    pub scripts: Vec<Vec<CommEvent>>,
    /// Per-rank sent-message streams (send order); each empty unless
    /// traced or profiled.
    pub traces: Vec<Vec<TraceEvent>>,
}

/// The §3.1 cost model as a [`Meter`]: critical-path clocks, send and
/// memory counters, and — when the run asks for them — the message trace,
/// the span ledger, the per-`(dst, tag)` send map and the delivery
/// governor.
pub struct SimMeter {
    rank: Rank,
    costs: RankStats,
    /// Every message sent, present in traced and profiled runs.
    trace: Option<Vec<TraceEvent>>,
    /// Span ledger, present in profiled runs ([`MachineSpec::profile`]).
    ledger: Option<SpanLedger>,
    /// Per-`(dst, tag)` send counters, present in profiled runs.
    sends: Option<BTreeMap<(Rank, u64), (u64, u64)>>,
    /// Delivery governor, present in governed runs
    /// ([`Machine::run_governed`]).
    governor: Option<Arc<Governor>>,
}

impl SimMeter {
    fn new(rank: Rank, traced: bool, profiled: bool, governor: Option<Arc<Governor>>) -> Self {
        SimMeter {
            rank,
            costs: RankStats::default(),
            trace: traced.then(Vec::new),
            ledger: profiled.then(SpanLedger::default),
            sends: profiled.then(BTreeMap::new),
            governor,
        }
    }

    /// Charges one send's clocks, counters, and trace event — everything a
    /// physical message attempt costs the sender, delivered or not.
    fn charge_send(&mut self, dst: Rank, tag: u64, words: usize) {
        self.costs.clocks.latency += 1;
        self.costs.clocks.bandwidth += words as u64;
        self.costs.sent_messages += 1;
        self.costs.sent_words += words as u64;
        if let Some(sends) = &mut self.sends {
            let e = sends.entry((dst, tag)).or_insert((0, 0));
            e.0 += 1;
            e.1 += words as u64;
        }
        if let Some(trace) = &mut self.trace {
            // post-send clocks: the simulated instant the message departs
            let clocks = self.costs.clocks;
            trace.push(TraceEvent { src: self.rank, dst, words, tag, clocks });
        }
    }

    /// What a finished rank's meter leaves besides its costs: the sent
    /// message stream (empty unless traced) and, when profiled, the
    /// rank's observability payload.
    fn finish(self) -> (Vec<TraceEvent>, Option<RankProfile>) {
        let events = self.trace.unwrap_or_default();
        let profile = self.ledger.map(|ledger| RankProfile {
            ledger,
            sends: self
                .sends
                .unwrap_or_default()
                .into_iter()
                .map(|((dst, tag), (messages, words))| SendTotal { dst, tag, messages, words })
                .collect(),
            events: events.clone(),
            final_clocks: self.costs.clocks,
        });
        (events, profile)
    }

    fn snapshot(&self) -> SpanSnapshot {
        SpanSnapshot {
            clocks: self.costs.clocks,
            resident_words: self.costs.resident_words,
            sent_messages: self.costs.sent_messages,
            sent_words: self.costs.sent_words,
        }
    }
}

impl Meter for SimMeter {
    /// The sender's post-send clock snapshot, which drives the receiver's
    /// critical-path merge.
    type Stamp = Clocks;

    fn on_wire(&mut self, dst: Rank, tag: u64, words: usize, delay: u64) -> Clocks {
        self.charge_send(dst, tag, words);
        // the delay is folded into the carried snapshot: the receiver sees
        // a late arrival, the sender's own clock is unaffected
        Clocks { latency: self.costs.clocks.latency + delay, ..self.costs.clocks }
    }

    fn lost(&mut self, dst: Rank, tag: u64, words: usize) {
        self.charge_send(dst, tag, words);
    }

    fn arrived(&mut self, words: usize, sent_at: &Clocks) {
        // §3.1 assumption (2): a processor receives one message at a time,
        // so the receive occupies this rank's port for (1, w) — while the
        // message itself arrives no earlier than the sender's post-send
        // clocks. Taking the max of the two keeps a single relayed message
        // counted once along its path, yet serializes fan-in at a receiver.
        let clocks = &mut self.costs.clocks;
        clocks.latency = (clocks.latency + 1).max(sent_at.latency);
        clocks.bandwidth = (clocks.bandwidth + words as u64).max(sent_at.bandwidth);
        clocks.compute = clocks.compute.max(sent_at.compute);
    }

    fn backoff(&mut self, units: u64) {
        // simulated-clock timeout: the wait is real latency
        self.costs.clocks.latency += units;
    }

    fn compute(&mut self, ops: u64) {
        self.costs.clocks.compute += ops;
    }

    fn alloc(&mut self, words: usize) {
        self.costs.resident_words += words as u64;
        self.costs.peak_words = self.costs.peak_words.max(self.costs.resident_words);
    }

    fn release(&mut self, words: usize) {
        debug_assert!(self.costs.resident_words >= words as u64, "release underflow");
        self.costs.resident_words = self.costs.resident_words.saturating_sub(words as u64);
    }

    fn costs(&self) -> RankStats {
        self.costs
    }

    fn restore(&mut self, costs: RankStats) {
        self.costs = costs;
    }

    fn checkpoint(&mut self, words: usize) {
        self.costs.clocks.latency += 1;
        self.costs.clocks.bandwidth += words as u64;
    }

    fn span_enter(&mut self, name: &'static str, tag: u64) -> Option<usize> {
        self.ledger.as_ref()?;
        let at = self.snapshot();
        self.ledger.as_mut().map(|ledger| ledger.enter(name, tag, at))
    }

    fn span_exit(&mut self, idx: usize) {
        let at = self.snapshot();
        self.ledger.as_mut().expect("a span index comes from the ledger").exit(idx, at);
    }

    fn governor(&self) -> Option<&Arc<Governor>> {
        self.governor.as_ref()
    }
}

// The simulator's own behaviour: clocks, ledgers, the governor. What is
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
    fn governed_cross_recv_deadlocks_structurally() {
        let run = Machine::run_governed(2, &[], |comm: &mut Comm| {
            let peer = comm.rank() ^ 1;
            comm.recv(peer, 9);
        });
        let err = run.outcome.map(|_| ()).expect_err("cross recv must deadlock");
        let MachineError::Deadlock(dl) = err else { panic!("expected deadlock, got {err}") };
        assert_eq!(dl.cycle, vec![0, 1]);
        assert_eq!(dl.waiting.len(), 2);
        assert!(dl.to_string().contains("machine deadlocked"));
    }

    #[test]
    fn governed_recv_any_follows_the_schedule() {
        // wildcard decisions happen at quiescent points, so every decision
        // sees the full candidate set regardless of thread timing
        let settled = |comm: &mut Comm| {
            if comm.rank() == 0 {
                let mut order = Vec::new();
                for _ in 1..comm.p() {
                    let (src, _) = comm.recv_any(5);
                    order.push(src as f64);
                }
                order
            } else {
                comm.send(0, 5, vec![comm.rank() as f64]);
                Vec::new()
            }
        };
        let base = Machine::run_governed(4, &[], settled);
        let (outs, _) = base.outcome.expect("clean");
        assert_eq!(outs[0], vec![1.0, 2.0, 3.0], "default schedule picks lowest rank");
        assert_eq!(base.choices.len(), 2, "last receive has a single candidate");
        assert_eq!(base.choices[0].alternatives, 3);
        let alt = Machine::run_governed(4, &[2, 1], settled);
        let (outs, _) = alt.outcome.expect("clean");
        assert_eq!(outs[0], vec![3.0, 2.0, 1.0], "schedule reorders delivery");
        // replay is bit-identical
        let again = Machine::run_governed(4, &[2, 1], settled);
        assert_eq!(again.outcome.expect("clean").0[0], vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn governed_named_recv_report_matches_plain() {
        let program = |comm: &mut Comm| {
            let r = comm.rank();
            if r.is_multiple_of(2) && r + 1 < 4 {
                comm.send(r + 1, 0, vec![0.0; r + 1]);
            } else if !r.is_multiple_of(2) {
                comm.recv(r - 1, 0);
            }
        };
        let governed = Machine::run_governed(4, &[], program);
        let (_, report) = governed.outcome.expect("clean");
        let (_, plain) = Machine::run(4, program);
        assert_eq!(report.per_rank, plain.per_rank, "the governor never touches clocks");
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
