//! The machine, rank communicators, and point-to-point messaging.

use crate::faults::{checksum, FaultError, FaultPlan, FaultStats, FaultSummary, Injection};
use crate::recovery::{
    supervise, Checkpoints, Epoch, HangError, MachineError, ProtocolError, RecoveryPolicy,
    RecoveryReport, Snapshot,
};
use crate::report::{Clocks, RankStats, RunReport};
use crate::sched::{ChoicePoint, Governor};
use crate::script::{CollectiveKind, CommEvent, ScriptBoard};
use crate::trace::{Profile, RankProfile, SendTotal, SpanLedger, SpanSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A process id, `0 .. p`.
pub type Rank = usize;

/// Constant-size reliability envelope carried by fault-mode messages:
/// part of the per-message α cost in the §3.1 model, so it adds **no**
/// words to the bandwidth clock.
#[derive(Clone, Copy, Debug)]
struct MsgMeta {
    /// Per-`(src, dst)` channel sequence number, starting at 1.
    seq: u64,
    /// [`checksum`] of the payload at send time.
    checksum: u64,
}

/// A message in flight: payload words plus the sender's post-send clock
/// snapshot (which drives the receiver's critical-path merge).
struct Msg {
    tag: u64,
    payload: Vec<f64>,
    sender_clocks: Clocks,
    /// Present exactly when the run has a fault layer.
    meta: Option<MsgMeta>,
}

/// Per-rank state of the fault layer ([`MachineSpec::faults`]).
struct FaultState {
    plan: FaultPlan,
    /// This rank's compute-clock multiplier (1 = full speed).
    slowdown: u64,
    /// Recovery epoch: 0 for a first execution; each supervisor restart
    /// re-keys the probabilistic injection stream with the next epoch.
    epoch: u32,
    /// Logical → physical rank map for injection decisions. Identity
    /// until the supervisor remaps a permanently dead rank onto a spare
    /// physical id ≥ `p` (a pure relabeling — same threads, same wires,
    /// but kill rules no longer match).
    remap: Vec<Rank>,
    /// Next sequence number per destination channel.
    seq_next: Vec<u64>,
    /// Highest accepted sequence number per source channel.
    seq_seen: Vec<u64>,
    stats: FaultStats,
}

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
    /// Runs `f(comm)` on `p` ranks (one OS thread each) and returns every
    /// rank's result plus the cost report.
    ///
    /// Panics in any rank propagate and fail the run (useful in tests).
    ///
    /// ```
    /// use apsp_simnet::Machine;
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
        let run = Self::run_inner(p, f, Mode::PLAIN).unwrap_or_else(|e| panic!("{e}"));
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
        supervise(p, spec, |faults, epoch, script| {
            let (traced, profiled) = (spec.trace || spec.profile, spec.profile);
            let script = script.cloned();
            Self::run_inner(p, &f, Mode { traced, profiled, faults, epoch, script, ..Mode::PLAIN })
        })
    }

    /// Runs `f` with recording **and** governed delivery: every receive
    /// goes through a shared [`Governor`](crate::sched::Governor) that
    /// resolves wildcard receives ([`Comm::recv_any`]) against `schedule`
    /// and detects deadlock structurally (typed
    /// [`MachineError::Deadlock`], no watchdog wait). The comm scripts and
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
        let mode = Mode {
            script: Some(Arc::clone(&board)),
            governor: Some(Arc::clone(&gov)),
            ..Mode::PLAIN
        };
        let outcome = Self::run_inner(p, f, mode).map(|run| (run.outs, run.report));
        GovernedRun { outcome, scripts: board.take(), choices: gov.choices() }
    }

    fn run_inner<T, F>(p: usize, f: F, mode: Mode<'_>) -> Result<MachineRun<T>, MachineError>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        assert!(p >= 1, "need at least one rank");
        crate::cascade::install_quiet_typed_panics();
        // wall-clock observability only; inert unless metrics are enabled
        let _machine_wall = apsp_metrics::time_phase("machine-run");
        let watchdog = Arc::new(Watchdog::new(p));
        let watchdog_ms =
            if mode.watchdog_ms > 0 { mode.watchdog_ms } else { default_watchdog_ms() };
        // channel matrix: tx_rows[src][dst] sends src→dst; each rank takes
        // sole ownership of its row of senders and column of receivers, so
        // a dying rank disconnects its channels (unblocking any peer stuck
        // in recv, which then fails loudly instead of hanging).
        let mut tx_rows: Vec<Vec<Sender<Msg>>> = Vec::with_capacity(p);
        let mut rx_rows: Vec<Vec<Option<Receiver<Msg>>>> =
            (0..p).map(|_| (0..p).map(|_| None).collect::<Vec<_>>()).collect();
        for src in 0..p {
            let mut row = Vec::with_capacity(p);
            for rx_row in rx_rows.iter_mut() {
                let (tx, rx) = channel();
                row.push(tx);
                rx_row[src] = Some(rx);
            }
            tx_rows.push(row);
        }

        // the rank's receiver ports ride along in the outcome so they stay
        // open until every thread has finished: a fault-mode duplicate of a
        // rank's final message may land after that rank's program returns,
        // and must evaporate at a still-open port rather than SendError the
        // sender. A *panicking* rank unwinds before depositing its outcome,
        // so its ports still close and unblock peers stuck in recv.
        type RankOutcome<T> = (
            T,
            RankStats,
            Vec<TraceEvent>,
            Option<RankProfile>,
            Option<FaultStats>,
            Vec<Receiver<Msg>>,
        );
        let mut results: Vec<Option<RankOutcome<T>>> = (0..p).map(|_| None).collect();
        {
            let slots: Vec<_> = results.iter_mut().collect();
            let f = &f;
            let scope_outcome = std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(p);
                let rank_iter = tx_rows.drain(..).zip(rx_rows.drain(..)).zip(slots).enumerate();
                for (rank, ((tx_row, rx_row), slot)) in rank_iter {
                    let rx_row: Vec<Receiver<Msg>> =
                        rx_row.into_iter().map(|o| o.expect("receiver present")).collect();
                    let rank_mode = mode.clone();
                    let watchdog = Arc::clone(&watchdog);
                    handles.push(scope.spawn(move || {
                        let mut comm = Comm {
                            rank,
                            p,
                            tx: tx_row,
                            rx: rx_row,
                            clocks: Clocks::default(),
                            sent_messages: 0,
                            sent_words: 0,
                            peak_words: 0,
                            resident_words: 0,
                            boundary: 0,
                            trace: rank_mode.traced.then(Vec::new),
                            ledger: rank_mode.profiled.then(SpanLedger::default),
                            sends: rank_mode.profiled.then(BTreeMap::new),
                            faults: rank_mode.faults.map(|plan| {
                                let epoch = rank_mode.epoch;
                                let remap =
                                    epoch.map_or_else(|| (0..p).collect(), |e| e.remap.clone());
                                Box::new(FaultState {
                                    slowdown: plan.slowdown(remap[rank]),
                                    plan: plan.clone(),
                                    epoch: epoch.map_or(0, |e| e.number),
                                    remap,
                                    seq_next: vec![1; p],
                                    seq_seen: vec![0; p],
                                    stats: FaultStats::default(),
                                })
                            }),
                            recovery: rank_mode.epoch.map(|e| Box::new(e.checkpoints.clone())),
                            watchdog,
                            watchdog_ms,
                            script: rank_mode.script.clone(),
                            governor: rank_mode.governor.clone(),
                        };
                        // mark this rank finished for the governor even
                        // when its program unwinds, so peers blocked on it
                        // deadlock-detect instead of waiting forever
                        struct GovFinish(Option<Arc<Governor>>, Rank);
                        impl Drop for GovFinish {
                            fn drop(&mut self) {
                                if let Some(gov) = &self.0 {
                                    gov.finish(self.1);
                                }
                            }
                        }
                        let _gov_finish = GovFinish(comm.governor.clone(), rank);
                        let out = f(&mut comm);
                        let stats = RankStats {
                            clocks: comm.clocks,
                            sent_messages: comm.sent_messages,
                            sent_words: comm.sent_words,
                            peak_words: comm.peak_words,
                            resident_words: comm.resident_words,
                        };
                        let profile = comm.ledger.take().map(|ledger| RankProfile {
                            ledger,
                            sends: comm
                                .sends
                                .take()
                                .unwrap_or_default()
                                .into_iter()
                                .map(|((dst, tag), (messages, words))| SendTotal {
                                    dst,
                                    tag,
                                    messages,
                                    words,
                                })
                                .collect(),
                            events: comm.trace.clone().unwrap_or_default(),
                            final_clocks: comm.clocks,
                        });
                        let fault_stats = comm.faults.take().map(|st| st.stats);
                        let ports = std::mem::take(&mut comm.rx);
                        *slot = Some((
                            out,
                            stats,
                            comm.trace.take().unwrap_or_default(),
                            profile,
                            fault_stats,
                            ports,
                        ));
                    }));
                }
                let mut panics = Vec::new();
                for h in handles {
                    if let Err(payload) = h.join() {
                        panics.push(payload);
                    }
                }
                if panics.is_empty() {
                    return Ok(());
                }
                // a typed abort (unrecoverable injected fault, protocol
                // mismatch, watchdog hang) kills its rank with a typed
                // payload; peers then die on channel disconnect — surface
                // the root cause, not the cascade. Handles were joined in
                // rank order, so the lowest faulting rank wins a tie and
                // the surfaced error is deterministic.
                if let Some(err) = crate::cascade::classify_panics(&panics, mode.faults.is_some()) {
                    return Err(err);
                }
                crate::cascade::surface_root_cause(panics);
            });
            scope_outcome?;
        }

        let mut outs = Vec::with_capacity(p);
        let mut traces = Vec::with_capacity(p);
        let mut rank_profiles = Vec::with_capacity(p);
        let mut fault_ranks = Vec::with_capacity(p);
        let mut report = RunReport { per_rank: Vec::with_capacity(p), profile: None };
        for r in results {
            let (out, stats, trace, profile, fault_stats, _ports) = r.expect("rank completed");
            outs.push(out);
            report.per_rank.push(stats);
            traces.push(trace);
            if let Some(rp) = profile {
                rank_profiles.push(rp);
            }
            if let Some(fs) = fault_stats {
                fault_ranks.push(fs);
            }
        }
        if mode.profiled {
            report.profile = Some(Profile::from_ranks(rank_profiles));
        }
        let faults = mode
            .faults
            .is_some()
            .then_some(FaultSummary { per_rank: fault_ranks, unrecoverable: 0 });
        // observability counters read the finished aggregates; the §3.1
        // ledgers above are already sealed by this point
        crate::perf::record_run(&report, faults.as_ref());
        Ok(MachineRun { outs, report, faults, recovery: None, scripts: Vec::new(), traces })
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

/// What a run records beyond the cost clocks, and where it sits in a
/// recovery trajectory.
#[derive(Clone)]
struct Mode<'a> {
    traced: bool,
    profiled: bool,
    faults: Option<&'a FaultPlan>,
    /// Recovery coordinates, present under a recovery supervisor (`None`
    /// = a first execution under the identity rank map, no checkpoints).
    epoch: Option<&'a Epoch>,
    /// Watchdog window override in wall-clock ms (0 = default/env).
    watchdog_ms: u64,
    /// Comm-script recorder, present in recorded/governed runs
    /// ([`MachineSpec::record`], [`Machine::run_governed`]).
    script: Option<Arc<ScriptBoard>>,
    /// Delivery governor, present in governed runs.
    governor: Option<Arc<Governor>>,
}

impl Mode<'_> {
    const PLAIN: Mode<'static> = Mode {
        traced: false,
        profiled: false,
        faults: None,
        epoch: None,
        watchdog_ms: 0,
        script: None,
        governor: None,
    };
}

/// Machine-wide hang detection, shared by every rank of one run: any send
/// or completed receive bumps `progress`; a rank blocked in a receive
/// while `progress` stays flat for the whole watchdog window declares the
/// machine hung and aborts with a [`HangError`] dump of the `blocked`
/// registry.
struct Watchdog {
    progress: AtomicU64,
    /// `blocked[rank] = Some((src, tag))` while `rank` waits in a receive.
    blocked: Mutex<Vec<Option<(Rank, u64)>>>,
}

impl Watchdog {
    fn new(p: usize) -> Self {
        Watchdog { progress: AtomicU64::new(0), blocked: Mutex::new(vec![None; p]) }
    }
}

/// The default watchdog window: `APSP_WATCHDOG_MS` or 5000 ms of
/// machine-wide inactivity. Wall-clock time only arms the detector —
/// simulated costs never depend on it, so determinism is unaffected.
fn default_watchdog_ms() -> u64 {
    std::env::var("APSP_WATCHDOG_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(5000)
}

/// A rank's handle to the machine: point-to-point messaging, cost clocks,
/// and memory tracking. Collectives live in [`crate::collectives`].
pub struct Comm {
    rank: Rank,
    p: usize,
    tx: Vec<Sender<Msg>>,
    rx: Vec<Receiver<Msg>>,
    pub(crate) clocks: Clocks,
    pub(crate) sent_messages: u64,
    pub(crate) sent_words: u64,
    peak_words: u64,
    resident_words: u64,
    /// Phase boundaries committed so far ([`Comm::commit_phase`]).
    /// Counted in every mode — kill-at-boundary rules key on it even
    /// when no recovery supervisor is attached.
    boundary: u64,
    trace: Option<Vec<TraceEvent>>,
    /// Span ledger, present in profiled runs ([`MachineSpec::profile`]).
    ledger: Option<SpanLedger>,
    /// Per-`(dst, tag)` send counters, present in profiled runs.
    sends: Option<BTreeMap<(Rank, u64), (u64, u64)>>,
    /// Fault layer, present in faulty runs ([`MachineSpec::faults`]).
    /// Boxed so the fault-free hot path pays one pointer of state.
    faults: Option<Box<FaultState>>,
    /// Checkpoint/restore wiring, present under a recovery supervisor
    /// ([`MachineSpec::recovery`]). Boxed like the fault layer.
    recovery: Option<Box<Checkpoints>>,
    /// Machine-wide hang detector shared by every rank of the run.
    watchdog: Arc<Watchdog>,
    /// Wall-clock inactivity window before the watchdog fires.
    watchdog_ms: u64,
    /// Comm-script recorder, present in recorded/governed runs. Recording
    /// observes the machine — it never touches clocks or counters.
    script: Option<Arc<ScriptBoard>>,
    /// Delivery governor, present in governed runs
    /// ([`Machine::run_governed`]).
    governor: Option<Arc<Governor>>,
}

impl Comm {
    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Total rank count `p`.
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Current critical-path clocks.
    pub fn clocks(&self) -> Clocks {
        self.clocks
    }

    /// Sends `payload` to `dst`. Never blocks. Costs `(1, payload.len())`
    /// on this rank's clocks. The `tag` is a debugging aid checked by the
    /// matching [`Comm::recv`].
    ///
    /// # Panics
    /// Panics on self-send (the §3.1 model has no loopback cost and local
    /// data never needs a message) or out-of-range `dst`.
    pub fn send(&mut self, dst: Rank, tag: u64, payload: Vec<f64>) {
        assert!(dst < self.p, "rank {dst} out of range (p = {})", self.p);
        assert_ne!(dst, self.rank, "self-send: use local data instead");
        // one logical send per call, whatever the fault layer retransmits
        let words = payload.len();
        self.record(|phase| CommEvent::Send { dst, tag, words, phase });
        if self.faults.is_some() {
            return self.send_faulty(dst, tag, payload);
        }
        self.put_on_wire(dst, tag, payload, None, 0);
    }

    /// Appends an event to this rank's comm script when one is being
    /// recorded; free otherwise (the closure never runs).
    #[inline]
    fn record(&self, ev: impl FnOnce(u64) -> CommEvent) {
        if let Some(board) = &self.script {
            board.push(self.rank, ev(self.boundary));
        }
    }

    /// Records entry into a collective (called by the public wrappers in
    /// [`crate::collectives`] — their internal tree messages additionally
    /// record as ordinary sends/receives).
    pub(crate) fn record_collective(
        &self,
        kind: CollectiveKind,
        group: &[Rank],
        root: Rank,
        tag: u64,
    ) {
        if let Some(board) = &self.script {
            board.push(
                self.rank,
                CommEvent::Collective {
                    kind,
                    group: group.to_vec(),
                    root,
                    tag,
                    phase: self.boundary,
                },
            );
        }
    }

    /// Charges one send's clocks, counters, and trace event — everything a
    /// physical message attempt costs the sender, delivered or not.
    fn charge_send(&mut self, dst: Rank, tag: u64, words: usize) {
        self.clocks.latency += 1;
        self.clocks.bandwidth += words as u64;
        self.sent_messages += 1;
        self.sent_words += words as u64;
        if let Some(sends) = &mut self.sends {
            let e = sends.entry((dst, tag)).or_insert((0, 0));
            e.0 += 1;
            e.1 += words as u64;
        }
        if let Some(trace) = &mut self.trace {
            // post-send clocks: the simulated instant the message departs
            trace.push(TraceEvent { src: self.rank, dst, words, tag, clocks: self.clocks });
        }
    }

    /// Charges a send and pushes the message, with `delay` extra latency
    /// units folded into the carried clock snapshot (the receiver sees a
    /// late arrival; the sender's own clock is unaffected).
    fn put_on_wire(
        &mut self,
        dst: Rank,
        tag: u64,
        payload: Vec<f64>,
        meta: Option<MsgMeta>,
        delay: u64,
    ) {
        self.charge_send(dst, tag, payload.len());
        let mut snapshot = self.clocks;
        snapshot.latency += delay;
        let msg = Msg { tag, payload, sender_clocks: snapshot, meta };
        if self.tx[dst].send(msg).is_err() {
            // the receiver's thread already died of a root-cause error;
            // die as a silenced cascade victim so that error surfaces
            std::panic::panic_any(crate::cascade::Disconnect { rank: self.rank, peer: dst, tag });
        }
        // a send is machine progress: any rank still moving holds off
        // every rank's watchdog
        self.watchdog.progress.fetch_add(1, Ordering::Relaxed);
        // mirror the wire *after* the mpsc send, so a governor grant
        // always finds the message already deposited
        if let Some(gov) = &self.governor {
            gov.on_send(self.rank, dst);
        }
    }

    /// Fault-mode send: stamps the reliability envelope, consults the plan
    /// per attempt, and retransmits with exponential backoff until the
    /// message is cleanly on the wire or the retry budget runs out.
    fn send_faulty(&mut self, dst: Rank, tag: u64, payload: Vec<f64>) {
        let (seq, retries) = {
            let st = self.faults.as_mut().expect("fault mode");
            let seq = st.seq_next[dst];
            st.seq_next[dst] += 1;
            (seq, st.plan.retries())
        };
        let meta = MsgMeta { seq, checksum: checksum(&payload) };
        let mut attempt = 0u32;
        loop {
            let injection = {
                let st = self.faults.as_ref().expect("fault mode");
                st.plan.injection_at(
                    st.epoch,
                    self.boundary,
                    st.remap[self.rank],
                    st.remap[dst],
                    tag,
                    seq,
                    attempt,
                )
            };
            match injection {
                Injection::Drop => {
                    // the attempt leaves the sender's port (and is charged)
                    // but never arrives
                    self.charge_send(dst, tag, payload.len());
                    self.fstats().drops_injected += 1;
                }
                Injection::Deliver { corrupt: true, .. } => {
                    // deliver a copy with one payload bit flipped (or, for
                    // empty payloads, a poisoned checksum): the receiver's
                    // checksum test rejects it and waits for a retransmit
                    let (bad, bad_meta) = if payload.is_empty() {
                        (Vec::new(), MsgMeta { checksum: meta.checksum ^ 1, ..meta })
                    } else {
                        let mut bad = payload.clone();
                        let idx = (seq as usize).wrapping_mul(31) % bad.len();
                        let bit = seq.wrapping_mul(0x9E37) % 64;
                        bad[idx] = f64::from_bits(bad[idx].to_bits() ^ (1u64 << bit));
                        (bad, meta)
                    };
                    self.put_on_wire(dst, tag, bad, Some(bad_meta), 0);
                    self.fstats().corruptions_injected += 1;
                }
                Injection::Deliver { corrupt: false, duplicate, delay } => {
                    if delay > 0 {
                        self.fstats().delays_injected += 1;
                    }
                    if duplicate {
                        self.put_on_wire(dst, tag, payload.clone(), Some(meta), delay);
                        self.fstats().duplicates_injected += 1;
                    }
                    self.put_on_wire(dst, tag, payload, Some(meta), delay);
                    if attempt > 0 {
                        self.fstats().recovered_messages += 1;
                    }
                    return;
                }
            }
            attempt += 1;
            if attempt > retries {
                std::panic::panic_any(FaultError {
                    src: self.rank,
                    dst,
                    tag,
                    seq,
                    attempts: attempt,
                });
            }
            // simulated-clock timeout: the sender waits out the backoff
            // window before retransmitting, and that wait is real latency
            let backoff = {
                let st = self.faults.as_ref().expect("fault mode");
                st.plan.backoff(attempt)
            };
            self.clocks.latency += backoff;
            let st = self.fstats();
            st.backoff_latency += backoff;
            st.retransmissions += 1;
        }
    }

    /// Receives the next message from `src` (FIFO per channel; blocks).
    ///
    /// # Panics
    /// Panics when the arriving message's tag differs from `expected_tag` —
    /// that is always an algorithm-schedule bug worth failing loudly on.
    /// The diagnostic names both tags and dumps the pending queue.
    pub fn recv(&mut self, src: Rank, expected_tag: u64) -> Vec<f64> {
        assert!(src < self.p, "rank {src} out of range (p = {})", self.p);
        assert_ne!(src, self.rank, "self-receive: use local data instead");
        if self.faults.is_some() {
            return self.recv_faulty(src, expected_tag);
        }
        let msg = self.wire_recv(src, expected_tag);
        self.check_tag(src, expected_tag, msg.tag);
        self.charge_recv(&msg);
        let words = msg.payload.len();
        self.record(|phase| CommEvent::Recv { src, tag: expected_tag, words, phase });
        msg.payload
    }

    /// Receives the next message from **any** source carrying
    /// `expected_tag` — the `MPI_ANY_SOURCE` analogue, and the machine's
    /// only genuine delivery-order choice point (named receives are FIFO
    /// per channel, so their delivery order is fixed by the program).
    ///
    /// Under [`Machine::run_governed`] the delivery order is resolved by
    /// the schedule, making runs replayable and explorable; in ungoverned
    /// runs the ports are polled and the winner depends on wall-clock
    /// arrival order — exactly the nondeterminism hazard the protocol
    /// verifier's explorer exists to surface. Returns the source rank and
    /// the payload.
    ///
    /// # Panics
    /// Panics in fault mode (wildcard receives and per-channel reliability
    /// sequencing do not compose) and on tag mismatch.
    pub fn recv_any(&mut self, expected_tag: u64) -> (Rank, Vec<f64>) {
        assert!(self.faults.is_none(), "recv_any is not supported in fault mode");
        assert!(self.p > 1, "recv_any with no possible sender");
        let (src, msg) = if let Some(gov) = self.governor.clone() {
            match gov.acquire_any(self.rank, expected_tag) {
                Ok(src) => {
                    let msg = self.rx[src]
                        .recv()
                        .expect("governor granted a message that is on the wire");
                    (src, msg)
                }
                Err(dl) => std::panic::panic_any(dl),
            }
        } else {
            self.wire_recv_any(expected_tag)
        };
        self.check_tag(src, expected_tag, msg.tag);
        self.charge_recv(&msg);
        let words = msg.payload.len();
        self.record(|phase| CommEvent::Recv { src, tag: expected_tag, words, phase });
        (src, msg.payload)
    }

    /// Ungoverned wildcard receive: round-robin polling over every port,
    /// with the same machine-wide watchdog discipline as [`Comm::wire_recv`].
    fn wire_recv_any(&mut self, tag: u64) -> (Rank, Msg) {
        let tick = (self.watchdog_ms / 5).clamp(1, 50);
        let mut registered = false;
        let mut idle = 0u64;
        let mut last_progress = self.watchdog.progress.load(Ordering::Relaxed);
        loop {
            for src in 0..self.p {
                if src == self.rank {
                    continue;
                }
                if let Ok(msg) = self.rx[src].try_recv() {
                    self.watchdog.progress.fetch_add(1, Ordering::Relaxed);
                    if registered {
                        self.watchdog.blocked.lock().expect("watchdog registry")[self.rank] = None;
                    }
                    return (src, msg);
                }
            }
            std::thread::sleep(Duration::from_millis(tick));
            if !registered {
                // wildcard wait: register blocked-on-self as the marker
                self.watchdog.blocked.lock().expect("watchdog registry")[self.rank] =
                    Some((self.rank, tag));
                registered = true;
            }
            let progress = self.watchdog.progress.load(Ordering::Relaxed);
            if progress != last_progress {
                last_progress = progress;
                idle = 0;
                continue;
            }
            idle += tick;
            if idle < self.watchdog_ms {
                continue;
            }
            let blocked = self.watchdog.blocked.lock().expect("watchdog registry").clone();
            std::panic::panic_any(HangError {
                rank: self.rank,
                src: self.rank,
                tag,
                blocked,
                pending: Vec::new(),
            });
        }
    }

    /// Pulls the next physical arrival from `src`, arming the watchdog:
    /// the blocking wait is chopped into short timeouts, and when the
    /// machine-wide progress counter stays flat for the whole watchdog
    /// window while this rank is blocked, the rank dumps the blocked-on
    /// registry and its own pending ports and aborts with a typed
    /// [`HangError`] — a schedule bug hangs a test run no longer.
    fn wire_recv(&mut self, src: Rank, tag: u64) -> Msg {
        if let Some(gov) = self.governor.clone() {
            // governed runs sequence delivery through the governor, which
            // detects deadlock structurally — no watchdog wait needed. A
            // grant guarantees the message is already on the mpsc wire.
            return match gov.acquire(self.rank, src, tag) {
                Ok(()) => {
                    self.rx[src].recv().expect("governor granted a message that is on the wire")
                }
                Err(dl) => std::panic::panic_any(dl),
            };
        }
        let tick = (self.watchdog_ms / 5).clamp(1, 50);
        let mut registered = false;
        let mut idle = 0u64;
        let mut last_progress = self.watchdog.progress.load(Ordering::Relaxed);
        loop {
            match self.rx[src].recv_timeout(Duration::from_millis(tick)) {
                Ok(msg) => {
                    self.watchdog.progress.fetch_add(1, Ordering::Relaxed);
                    if registered {
                        self.watchdog.blocked.lock().expect("watchdog registry")[self.rank] = None;
                    }
                    return msg;
                }
                Err(RecvTimeoutError::Timeout) => {
                    if !registered {
                        self.watchdog.blocked.lock().expect("watchdog registry")[self.rank] =
                            Some((src, tag));
                        registered = true;
                    }
                    let progress = self.watchdog.progress.load(Ordering::Relaxed);
                    if progress != last_progress {
                        last_progress = progress;
                        idle = 0;
                        continue;
                    }
                    idle += tick;
                    if idle < self.watchdog_ms {
                        continue;
                    }
                    let blocked = self.watchdog.blocked.lock().expect("watchdog registry").clone();
                    let mut pending = Vec::new();
                    'ports: for (peer, rx) in self.rx.iter().enumerate() {
                        while let Ok(m) = rx.try_recv() {
                            pending.push((peer, m.tag, m.payload.len()));
                            if pending.len() >= 16 {
                                break 'ports;
                            }
                        }
                    }
                    std::panic::panic_any(HangError {
                        rank: self.rank,
                        src,
                        tag,
                        blocked,
                        pending,
                    });
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // the sender's ports only close when its thread unwound
                    // before depositing its outcome — this rank is a cascade
                    // victim of a root-cause panic over there. Die with a
                    // typed marker so the root cause is surfaced instead.
                    std::panic::panic_any(crate::cascade::Disconnect {
                        rank: self.rank,
                        peer: src,
                        tag,
                    });
                }
            }
        }
    }

    /// Charges this rank's port for one physical arrival.
    fn charge_recv(&mut self, msg: &Msg) {
        // §3.1 assumption (2): a processor receives one message at a time,
        // so the receive occupies this rank's port for (1, w) — while the
        // message itself arrives no earlier than the sender's post-send
        // clocks. Taking the max of the two keeps a single relayed message
        // counted once along its path, yet serializes fan-in at a receiver.
        let w = msg.payload.len() as u64;
        self.clocks.latency = (self.clocks.latency + 1).max(msg.sender_clocks.latency);
        self.clocks.bandwidth = (self.clocks.bandwidth + w).max(msg.sender_clocks.bandwidth);
        self.clocks.compute = self.clocks.compute.max(msg.sender_clocks.compute);
    }

    /// Fault-mode receive: every physical arrival occupies the port (and
    /// is charged), but only the first clean, in-order copy is accepted —
    /// corrupted copies fail the checksum, stale sequence numbers are
    /// duplicate retransmissions.
    fn recv_faulty(&mut self, src: Rank, expected_tag: u64) -> Vec<f64> {
        loop {
            let msg = self.wire_recv(src, expected_tag);
            self.charge_recv(&msg);
            let meta = msg.meta.expect("fault-mode messages carry an envelope");
            if checksum(&msg.payload) != meta.checksum {
                self.fstats().corruptions_detected += 1;
                continue;
            }
            let seen = &mut self.faults.as_mut().expect("fault mode").seq_seen[src];
            if meta.seq <= *seen {
                self.fstats().duplicates_discarded += 1;
                continue;
            }
            debug_assert_eq!(
                meta.seq,
                *seen + 1,
                "per-channel FIFO delivers sequence numbers in order"
            );
            *seen = meta.seq;
            self.check_tag(src, expected_tag, msg.tag);
            let words = msg.payload.len();
            self.record(|phase| CommEvent::Recv { src, tag: expected_tag, words, phase });
            return msg.payload;
        }
    }

    /// Fails loudly on a tag mismatch, naming the endpoints, both tags,
    /// and up to 8 still-pending messages on the same channel. The abort
    /// is a typed [`ProtocolError`] (whose `Display` carries the same
    /// diagnostic) so the recovery supervisor routes it like any other
    /// machine error.
    fn check_tag(&mut self, src: Rank, expected: u64, actual: u64) {
        if actual == expected {
            return;
        }
        let mut pending = Vec::new();
        while pending.len() < 8 {
            match self.rx[src].try_recv() {
                Ok(m) => pending.push((m.tag, m.payload.len())),
                Err(_) => break,
            }
        }
        std::panic::panic_any(ProtocolError { rank: self.rank, src, expected, actual, pending });
    }

    /// `true` when the current phase must actually execute: always, except
    /// under a recovery supervisor while skipping phases a restored
    /// checkpoint already covers. Gate each phase body on this, then call
    /// [`Comm::commit_phase`] unconditionally.
    pub fn phase_live(&self) -> bool {
        match &self.recovery {
            Some(rs) => self.boundary + 1 > rs.resume,
            None => true,
        }
    }

    /// Marks a phase boundary, handing the solver's per-rank `state`
    /// through the checkpoint layer.
    ///
    /// Without a recovery supervisor this only advances the boundary
    /// counter (against which `kill=R@B` rules are matched) and returns
    /// `state` untouched — zero cost. Under
    /// a supervised launch ([`MachineSpec::recovery`]):
    ///
    /// * at the resume boundary, the rank's snapshot (state, clocks,
    ///   counters, fault sequence state) replaces the local one and a
    ///   restore charge of `(1, words)` hits the latency/bandwidth
    ///   clocks;
    /// * at every `every`-th later boundary, a save charge of
    ///   `(1, words)` hits the clocks and the state is snapshotted into
    ///   the shared store.
    ///
    /// Checkpoint traffic thus lands in the §3.1 ledgers exactly: one
    /// latency unit plus the state's word count per snapshot or restore.
    pub fn commit_phase(&mut self, state: Vec<f64>) -> Vec<f64> {
        self.boundary += 1;
        self.record(|boundary| CommEvent::Commit { boundary });
        let Some(rs) = self.recovery.as_deref() else { return state };
        let boundary = self.boundary;
        let (store, resume, every) = (Arc::clone(&rs.store), rs.resume, rs.every);
        if boundary < resume {
            // still in the skipped region: the state is stale and a
            // snapshot at this boundary already exists
            return state;
        }
        if boundary == resume {
            let snap = store.restore(self.rank, boundary);
            self.clocks = snap.clocks;
            self.sent_messages = snap.sent_messages;
            self.sent_words = snap.sent_words;
            self.peak_words = snap.peak_words;
            self.resident_words = snap.resident_words;
            if let Some(st) = self.faults.as_deref_mut() {
                if snap.seq_next.len() == st.seq_next.len() {
                    st.seq_next.clone_from(&snap.seq_next);
                    st.seq_seen.clone_from(&snap.seq_seen);
                }
                st.stats = snap.stats;
            }
            // the restore itself moves the state words back into place
            self.clocks.latency += 1;
            self.clocks.bandwidth += snap.state.len() as u64;
            return snap.state;
        }
        if every != 0 && boundary.is_multiple_of(every as u64) {
            // charge before capture, so the snapshot's clocks already
            // include its own cost and a restore resumes past it exactly
            self.clocks.latency += 1;
            self.clocks.bandwidth += state.len() as u64;
            let (seq_next, seq_seen, stats) = match self.faults.as_deref() {
                Some(st) => (st.seq_next.clone(), st.seq_seen.clone(), st.stats),
                None => (Vec::new(), Vec::new(), FaultStats::default()),
            };
            store.save(
                self.rank,
                boundary,
                Snapshot {
                    state: state.clone(),
                    clocks: self.clocks,
                    sent_messages: self.sent_messages,
                    sent_words: self.sent_words,
                    peak_words: self.peak_words,
                    resident_words: self.resident_words,
                    seq_next,
                    seq_seen,
                    stats,
                },
            );
        }
        state
    }

    /// Records `ops` scalar operations of local compute. A straggler rank
    /// (see [`FaultPlan::with_straggler`](crate::faults::FaultPlan)) pays a
    /// multiple of every operation.
    pub fn compute(&mut self, ops: u64) {
        self.clocks.compute += ops;
        if let Some(st) = &mut self.faults {
            if st.slowdown > 1 {
                let extra = ops.saturating_mul(st.slowdown - 1);
                self.clocks.compute += extra;
                st.stats.straggler_ops += extra;
            }
        }
    }

    /// The fault-stats ledger; only callable in fault mode.
    fn fstats(&mut self) -> &mut FaultStats {
        &mut self.faults.as_mut().expect("fault mode").stats
    }

    /// Tracks an allocation of `words` words of resident data (blocks,
    /// buffers); feeds the per-rank peak-memory statistic (`M` in Table 2).
    pub fn alloc(&mut self, words: usize) {
        self.resident_words += words as u64;
        self.peak_words = self.peak_words.max(self.resident_words);
    }

    /// Releases previously tracked words.
    pub fn release(&mut self, words: usize) {
        debug_assert!(self.resident_words >= words as u64, "release underflow");
        self.resident_words = self.resident_words.saturating_sub(words as u64);
    }

    /// Opens a phase span: the guard snapshots this rank's clocks, memory,
    /// and send counters now and again when it drops, recording the pair
    /// in the rank's span ledger. Spans nest — call `span` again on the
    /// returned guard (it derefs to the communicator) — and close LIFO.
    ///
    /// Outside profiled runs ([`MachineSpec::profile`]) there is no
    /// ledger and the guard is free; algorithms instrument themselves
    /// unconditionally and pay nothing unless someone is watching.
    ///
    /// ```
    /// use apsp_simnet::{Machine, MachineSpec};
    ///
    /// let spec = MachineSpec { profile: true, ..Default::default() };
    /// let run = Machine::launch(2, &spec, |comm| {
    ///     let mut phase = comm.span("exchange", 1);
    ///     match phase.rank() {
    ///         0 => phase.send(1, 7, vec![1.0, 2.0]),
    ///         _ => drop(phase.recv(0, 7)),
    ///     }
    /// });
    /// let profile = run.unwrap().report.profile.unwrap();
    /// assert_eq!(profile.per_rank[0].ledger.spans[0].name, "exchange");
    /// assert_eq!(profile.comm_matrix.words(0, 1), 2);
    /// ```
    pub fn span(&mut self, name: &'static str, tag: u64) -> SpanGuard<'_> {
        let idx = self.ledger.is_some().then(|| {
            let at = self.snapshot();
            self.ledger.as_mut().expect("checked above").enter(name, tag, at)
        });
        self.record(|_| CommEvent::SpanOpen { name });
        SpanGuard { comm: self, idx, name }
    }

    fn snapshot(&self) -> SpanSnapshot {
        SpanSnapshot {
            clocks: self.clocks,
            resident_words: self.resident_words,
            sent_messages: self.sent_messages,
            sent_words: self.sent_words,
        }
    }
}

/// RAII guard for a [`Comm::span`]. Derefs to the communicator, so sends,
/// receives, collectives, and nested spans all go through the guard; the
/// span closes when the guard drops.
pub struct SpanGuard<'a> {
    comm: &'a mut Comm,
    /// Ledger index of the open span; `None` when the run is unprofiled.
    idx: Option<usize>,
    /// Span name, echoed into the comm script when one is recorded.
    name: &'static str,
}

impl std::ops::Deref for SpanGuard<'_> {
    type Target = Comm;
    fn deref(&self) -> &Comm {
        self.comm
    }
}

impl std::ops::DerefMut for SpanGuard<'_> {
    fn deref_mut(&mut self) -> &mut Comm {
        self.comm
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let at = self.comm.snapshot();
            self.comm.ledger.as_mut().expect("profiled span").exit(idx, at);
        }
        let name = self.name;
        self.comm.record(|_| CommEvent::SpanClose { name });
    }
}

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
    fn fifo_per_pair() {
        let (_, _) = Machine::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..100 {
                    comm.send(1, i, vec![i as f64]);
                }
            } else {
                for i in 0..100 {
                    let v = comm.recv(0, i);
                    assert_eq!(v[0], i as f64);
                }
            }
        });
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

    #[test]
    #[should_panic(expected = "self-send")]
    fn self_send_panics() {
        let _ = Machine::run(1, |comm| comm.send(0, 0, vec![]));
    }

    #[test]
    fn results_returned_in_rank_order() {
        let (outs, _) = Machine::run(5, |comm| comm.rank() * 10);
        assert_eq!(outs, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn tag_mismatch_diagnostic_lists_pending_queue() {
        let result = std::panic::catch_unwind(|| {
            Machine::run(2, |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 0xA, vec![1.0]);
                    comm.send(1, 0xB, vec![2.0, 3.0]);
                } else {
                    comm.recv(0, 0xC);
                }
            })
        });
        let payload = result.expect_err("mismatch must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("string panic payload");
        assert!(msg.contains("schedule mismatch"), "kept the grep-able phrase: {msg}");
        assert!(msg.contains("tag 0xa"), "actual tag named: {msg}");
        assert!(msg.contains("expected 0xc"), "expected tag named: {msg}");
        assert!(msg.contains("pending from 0"), "pending queue dumped: {msg}");
        assert!(msg.contains("tag 0xb (2 words)"), "queued message described: {msg}");
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
    fn empty_plan_is_zero_overhead() {
        let plain = Machine::run(2, |comm| match comm.rank() {
            0 => {
                comm.send(1, 1, vec![1.0, 2.0, 3.0]);
                comm.recv(1, 2)
            }
            _ => {
                let data = comm.recv(0, 1);
                comm.send(0, 2, vec![9.0]);
                data
            }
        })
        .1;
        let (faulty, summary) = faulty_ping_pong(&FaultPlan::new(42));
        assert_eq!(plain.per_rank, faulty.per_rank, "empty plan must not perturb any clock");
        assert_eq!(summary.injected(), 0);
        assert_eq!(summary.totals(), FaultStats::default());
    }

    #[test]
    fn drops_are_retransmitted_and_charged() {
        let plan = FaultPlan::new(7).with_drop(1.0); // every eligible attempt drops
        let (report, summary) = faulty_ping_pong(&plan);
        let t = summary.totals();
        assert_eq!(t.drops_injected, 2 * crate::faults::INJECT_ATTEMPTS as u64);
        assert_eq!(t.retransmissions, t.drops_injected);
        assert_eq!(t.recovered_messages, 2);
        assert!(t.backoff_latency > 0);
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
    fn corruption_is_detected_and_recovered() {
        let plan = FaultPlan::new(11).with_corrupt(1.0);
        let (_, summary) = faulty_ping_pong(&plan);
        let t = summary.totals();
        assert_eq!(t.corruptions_injected, 2 * crate::faults::INJECT_ATTEMPTS as u64);
        assert_eq!(t.corruptions_detected, t.corruptions_injected);
        assert_eq!(t.recovered_messages, 2);
    }

    #[test]
    fn duplicates_are_discarded() {
        // three messages on one channel: each duplicate is discarded when
        // the receiver pulls the next message (the last one's copy stays
        // in the queue — nothing ever asks for it)
        let plan = FaultPlan::new(13).with_dup(1.0);
        let (_, _, summary) = run_faulty(2, &plan, |comm| {
            if comm.rank() == 0 {
                for i in 0..3 {
                    comm.send(1, i, vec![i as f64]);
                }
            } else {
                for i in 0..3 {
                    assert_eq!(comm.recv(0, i), vec![i as f64]);
                }
            }
        })
        .expect("duplication is always recoverable");
        let t = summary.totals();
        assert_eq!(t.duplicates_injected, 3);
        assert_eq!(t.duplicates_discarded, 2);
        assert_eq!(t.recovered_messages, 0, "duplication needs no retransmit");
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

    #[test]
    fn dead_link_fails_loudly_with_the_culprit() {
        let plan = FaultPlan::new(23).with_kill(0, 1);
        let err = run_faulty(2, &plan, |comm| match comm.rank() {
            0 => comm.send(1, 5, vec![1.0]),
            _ => drop(comm.recv(0, 5)),
        })
        .expect_err("dead link is unrecoverable");
        assert!(err.to_string().contains("unrecoverable fault"));
        let MachineError::Fault(err) = err else { panic!("expected a fault error, got {err}") };
        assert_eq!((err.src, err.dst, err.tag), (0, 1, 5));
    }

    #[test]
    fn faulty_runs_replay_bit_identically() {
        let plan = FaultPlan::new(29).with_drop(0.4).with_dup(0.3).with_corrupt(0.2);
        let run = || {
            run_faulty(4, &plan, |comm| {
                let r = comm.rank();
                let peer = r ^ 1;
                if r < peer {
                    comm.send(peer, 3, vec![r as f64; 5]);
                    comm.recv(peer, 4)
                } else {
                    let got = comm.recv(peer, 3);
                    comm.send(peer, 4, vec![0.5]);
                    got
                }
            })
            .expect("recoverable plan")
        };
        let (outs_a, report_a, summary_a) = run();
        let (outs_b, report_b, summary_b) = run();
        assert_eq!(outs_a, outs_b);
        assert_eq!(report_a.per_rank, report_b.per_rank);
        assert_eq!(summary_a, summary_b);
    }

    #[test]
    fn watchdog_aborts_a_mutual_deadlock() {
        // both ranks wait on each other — a true deadlock (a rank merely
        // exiting disconnects its channels, which is a different failure)
        let mode = Mode { watchdog_ms: 200, ..Mode::PLAIN };
        let err = Machine::run_inner(
            2,
            |comm: &mut Comm| {
                let peer = comm.rank() ^ 1;
                comm.recv(peer, 9);
            },
            mode,
        )
        .expect_err("deadlock must trip the watchdog");
        let MachineError::Hang(hang) = err else { panic!("expected a hang, got {err}") };
        assert_eq!(hang.tag, 9);
        assert!(hang.blocked.iter().all(Option::is_some), "both ranks were blocked");
        assert!(hang.to_string().contains("machine hung"));
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
    fn recorded_run_scripts_and_report_match_plain() {
        let program = |comm: &mut Comm| match comm.rank() {
            0 => {
                comm.send(1, 7, vec![1.0, 2.0]);
                let mut state = comm.commit_phase(vec![0.0]);
                state[0] = comm.recv(1, 8)[0];
                state
            }
            _ => {
                let got = comm.recv(0, 7);
                let state = comm.commit_phase(vec![got[0]]);
                comm.send(0, 8, vec![9.0]);
                state
            }
        };
        let MachineRun { outs, report, scripts, .. } =
            Machine::launch(2, &MachineSpec { record: true, ..Default::default() }, program)
                .expect("clean run");
        let (plain_outs, plain_report) = Machine::run(2, program);
        assert_eq!(outs, plain_outs);
        assert_eq!(report.per_rank, plain_report.per_rank, "recording is zero-cost");
        assert_eq!(
            scripts[0],
            vec![
                CommEvent::Send { dst: 1, tag: 7, words: 2, phase: 0 },
                CommEvent::Commit { boundary: 1 },
                CommEvent::Recv { src: 1, tag: 8, words: 1, phase: 1 },
            ]
        );
        assert_eq!(
            scripts[1],
            vec![
                CommEvent::Recv { src: 0, tag: 7, words: 2, phase: 0 },
                CommEvent::Commit { boundary: 1 },
                CommEvent::Send { dst: 0, tag: 8, words: 1, phase: 1 },
            ]
        );
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

    #[test]
    fn rank_kill_recovers_via_spare_takeover() {
        // rank 1 dies at boundary 1: phase 2's traffic through it drops
        // forever, so only a spare-rank takeover can finish the run
        let plan = FaultPlan::new(41).with_kill_rank_from(1, 1);
        let (outs, _, summary, recovery) =
            run_recovering(3, &plan, RecoveryPolicy::default(), relay(3))
                .expect("spare takeover recovers the run");
        assert_eq!(outs, vec![vec![6.0]; 3], "oracle-equal after recovery");
        assert_eq!(recovery.restarts, 1);
        assert_eq!(recovery.resume_boundaries, vec![1], "resumed at the consistent cut");
        assert_eq!(recovery.spare_takeovers, vec![(1, 3)]);
        assert_eq!(recovery.restores, 3, "each rank restored once");
        assert_eq!(summary.unrecoverable, 0, "the final epoch is clean");
        assert_eq!(recovery.causes.len(), 1);
        assert!(recovery.causes[0].contains("unrecoverable fault"));
    }

    #[test]
    fn recovery_trajectories_replay_bit_identically() {
        let plan = FaultPlan::new(43).with_drop(0.3).with_kill_rank_from(2, 2);
        let run =
            || run_recovering(3, &plan, RecoveryPolicy::default(), relay(4)).expect("recovers");
        let (outs_a, report_a, summary_a, recovery_a) = run();
        let (outs_b, report_b, summary_b, recovery_b) = run();
        assert_eq!(outs_a, outs_b);
        assert_eq!(outs_a, vec![vec![10.0]; 3]);
        assert_eq!(report_a.per_rank, report_b.per_rank);
        assert_eq!(summary_a, summary_b);
        assert_eq!(recovery_a, recovery_b, "the whole trajectory replays");
    }

    #[test]
    fn exhausted_restart_budget_degrades_to_typed_unrecoverable() {
        // a dead link with no spares left: the supervisor must give up
        // with a typed report, not panic or hang
        let plan = FaultPlan::new(47).with_kill(0, 1);
        let policy = RecoveryPolicy { max_restarts: 2, every: 1, spares: 0 };
        let err = run_recovering(3, &plan, policy, relay(2))
            .map(|_| ())
            .expect_err("a kill with no spares cannot recover");
        let MachineError::Unrecoverable(u) = err else {
            panic!("expected Unrecoverable, got {err}")
        };
        assert!(matches!(*u.cause, MachineError::Fault(_)));
        assert_eq!(u.partial.unrecoverable, 1);
        assert_eq!(u.partial.per_rank.len(), 3);
        assert!(u.to_string().contains("unrecoverable after"));
    }
}
