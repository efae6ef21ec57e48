//! The native shared-memory backend: `p` OS threads over per-`(src, dst)`
//! std `mpsc` channels, no cost clocks, genuine wall-clock time.
//!
//! What it preserves from the simulator:
//!
//! * per-`(src, dst)` FIFO non-overtaking (one dedicated channel per
//!   ordered rank pair);
//! * tag checking — a mismatched tag dies with a typed
//!   [`ProtocolError`] naming both tags and dumping the pending queue,
//!   the simulator's exact diagnostic;
//! * the hang watchdog — a rank blocked in a receive while the whole
//!   machine makes no progress for `APSP_WATCHDOG_MS` (default 5000 ms)
//!   aborts with a typed [`HangError`] instead of hanging the test run;
//! * cascade-death discipline — a rank dying on a disconnected channel is
//!   a *victim* of a root-cause panic elsewhere; the shared triage
//!   ([`apsp_simnet::cascade`]) surfaces the root cause and silences the
//!   markers;
//! * **the whole robustness stack**: the seeded fault grammar
//!   ([`FaultPlan`]) injects drops, duplications, corruptions, and
//!   delays into real channel traffic — recovered by the same
//!   seq+checksum envelope and bounded-backoff retransmission protocol
//!   the simulator runs — and `kill=R[@B]` rules kill the rank's
//!   **actual OS thread** at the chosen phase boundary
//!   ([`MachineSpec::faults`]). The shared recovery supervisor
//!   ([`MachineSpec::recovery`]) catches the typed death,
//!   rolls every rank back to the last consistent checkpoint through the
//!   shared [`apsp_simnet::SnapshotStore`], respawns the machine with the dead rank
//!   remapped onto a spare physical id, and replays under an
//!   epoch-salted seed — bit-identically, every time.
//!
//! What it does **not** provide: §3.1 cost clocks, span ledgers,
//! schedule governors. [`crate::Transport::clocks`] returns zeros and
//! spans are free no-ops. (Comm *scripts* — the per-rank event logs the
//! protocol linter consumes — are recorded on request via
//! [`MachineSpec::record`], byte-compatible with the
//! simulator's.) Injection decisions are pure
//! functions of `(seed, epoch, boundary, src, dst, tag, seq, attempt)`
//! and sequence numbers are per-channel, so fault trajectories are
//! deterministic even under real thread scheduling; with an empty plan
//! the fault layer is never constructed and the plain path is
//! byte-identical to a fault-free build. See docs/BACKENDS.md ("Native
//! fault model") for the exact guarantees.

use crate::Transport;
use apsp_simnet::cascade::{
    classify_panics, install_quiet_typed_panics, surface_root_cause, Disconnect,
};
use apsp_simnet::faults::checksum;
use apsp_simnet::{
    supervise, Checkpoints, Clocks, CollectiveKind, CommEvent, Epoch, FaultError, FaultPlan,
    FaultStats, FaultSummary, HangError, Injection, MachineError, MachineRun, MachineSpec,
    ProtocolError, Rank, RankDown, RankStats, RunReport, ScriptBoard, Snapshot,
};

// Every synchronization primitive goes through the shim (`crate::sync`),
// never `std::sync`/`std::thread` directly, so `--cfg loom` builds run
// this exact code under the model checker (srclint's `raw-sync` rule
// keeps it that way).
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use crate::sync::{thread, Arc, Mutex};
use std::time::Duration;

/// One message on a native wire: tag, payload, and the constant-size
/// reliability envelope. Outside fault mode the envelope is zeroed and
/// ignored — the plain path neither computes nor checks it.
struct Wire {
    tag: u64,
    payload: Vec<f64>,
    /// Per-`(src, dst)` channel sequence number, starting at 1 (0 = plain
    /// mode, no reliability protocol).
    seq: u64,
    /// [`checksum`] of the payload at send time (fault mode only).
    sum: u64,
}

/// Machine-wide hang detection shared by every rank of one run: any send
/// or completed receive bumps `progress`; a rank blocked in a receive
/// while `progress` stays flat for the whole watchdog window declares the
/// machine hung and aborts with a typed [`HangError`].
struct NativeWatchdog {
    progress: AtomicU64,
    /// `blocked[rank] = Some((src, tag))` while `rank` waits in a receive
    /// (`src == rank` marks a wildcard wait).
    blocked: Mutex<Vec<Option<(Rank, u64)>>>,
}

impl NativeWatchdog {
    fn new(p: usize) -> Self {
        NativeWatchdog { progress: AtomicU64::new(0), blocked: Mutex::new(vec![None; p]) }
    }
}

/// The watchdog window: `APSP_WATCHDOG_MS` or 5000 ms of machine-wide
/// inactivity — the same knob the simulator honours.
fn default_watchdog_ms() -> u64 {
    std::env::var("APSP_WATCHDOG_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(5000)
}

/// The native fault layer's typed root causes — what seeded chaos can
/// abort a native run with, surfaced over the cascade panics of the
/// victim's peers. Each variant wraps the shared typed payload the dying
/// thread actually carried (the same types the simulator aborts with, so
/// one triage serves both backends); this view exists for callers that
/// want to match native fault outcomes without handling the
/// simulator-only [`MachineError`] variants.
#[derive(Clone, Debug, PartialEq)]
pub enum NativeFaultError {
    /// The fault plan killed the rank's OS thread at a phase boundary.
    Down(RankDown),
    /// A message exhausted its retransmission budget (dead link or rank).
    Undeliverable(FaultError),
    /// The machine-wide receive deadline expired with no progress.
    Timeout(HangError),
}

impl NativeFaultError {
    /// The native-fault view of a machine error, when it has one.
    pub fn classify(err: &MachineError) -> Option<Self> {
        match err {
            MachineError::Down(d) => Some(NativeFaultError::Down(*d)),
            MachineError::Fault(e) => Some(NativeFaultError::Undeliverable(e.clone())),
            MachineError::Hang(e) => Some(NativeFaultError::Timeout(e.clone())),
            _ => None,
        }
    }
}

impl std::fmt::Display for NativeFaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NativeFaultError::Down(e) => e.fmt(f),
            NativeFaultError::Undeliverable(e) => e.fmt(f),
            NativeFaultError::Timeout(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for NativeFaultError {}

impl From<NativeFaultError> for MachineError {
    fn from(e: NativeFaultError) -> Self {
        match e {
            NativeFaultError::Down(d) => MachineError::Down(d),
            NativeFaultError::Undeliverable(f) => MachineError::Fault(f),
            NativeFaultError::Timeout(h) => MachineError::Hang(h),
        }
    }
}

/// Per-rank state of the native fault layer — the exact counterpart of
/// the simulator's `FaultState`: the shared seeded fault grammar
/// ([`FaultPlan`], reused verbatim from `simnet::faults`), the recovery
/// coordinates this epoch runs under, reliability sequence counters per
/// channel, and the stats ledger.
struct FaultLayer {
    plan: FaultPlan,
    /// Epoch salt re-keying the probabilistic injection stream (0 for a
    /// first execution; the recovery supervisor advances it per restart).
    epoch: u32,
    /// Logical → physical rank map: identity until the supervisor retires
    /// a permanently dead rank onto a spare id.
    remap: Vec<Rank>,
    /// Precomputed `kill=R[@B]` trigger for this rank's *physical* id:
    /// the boundary from which the next communication attempt kills the
    /// thread. `None` for ranks the plan never kills.
    kill_from: Option<u64>,
    /// This rank's compute slowdown factor (stats-only off-simulator).
    slowdown: u64,
    /// Next sequence number per destination channel.
    seq_next: Vec<u64>,
    /// Highest accepted sequence number per source channel.
    seq_seen: Vec<u64>,
    stats: FaultStats,
}

impl FaultLayer {
    fn new(plan: &FaultPlan, epoch: Option<&Epoch>, rank: Rank, p: usize) -> Self {
        let remap = epoch.map_or_else(|| (0..p).collect(), |e| e.remap.clone());
        FaultLayer {
            kill_from: plan.kill_boundary(remap[rank]),
            slowdown: plan.slowdown(remap[rank]),
            seq_next: vec![1; p],
            seq_seen: vec![0; p],
            stats: FaultStats::default(),
            plan: plan.clone(),
            epoch: epoch.map_or(0, |e| e.number),
            remap,
        }
    }
}

/// Launcher for the native backend — the shape of
/// [`apsp_simnet::Machine`]'s entry points without the cost model.
pub struct NativeMachine;

impl NativeMachine {
    /// Runs `f(comm)` on `p` ranks (one OS thread each) and returns every
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
        let run = Self::run_inner(p, &f, None, None, None).unwrap_or_else(|e| panic!("{e}"));
        (run.outs, run.report)
    }

    /// The one configurable entry point — [`apsp_simnet::Machine::launch`]
    /// on real OS threads, taking the same [`MachineSpec`]:
    ///
    /// * `faults` runs the simulator's exact reliability protocol on real
    ///   channel traffic and kills the OS threads of `kill=R[@B]` victims
    ///   at their phase boundaries. Injection decisions are pure functions
    ///   of the seeded plan and the per-channel sequence numbers, so the
    ///   [`FaultSummary`] is deterministic under real thread scheduling.
    /// * `recovery` is the shared [`apsp_simnet::supervise`] loop over
    ///   real threads: every restart respawns all `p` of them with the
    ///   next epoch salt, a killed thread's rank remapped onto a spare
    ///   physical id first. Same plan + same policy ⇒ the same
    ///   [`apsp_simnet::RecoveryReport`] and bit-identical outputs.
    /// * `record` returns the same per-rank [`CommEvent`] scripts the
    ///   simulator records, so the protocol linter runs against native
    ///   executions too; unrecorded, the per-op cost is a skipped `Option`.
    /// * `profile` and `trace` have nothing to collect here (no cost
    ///   clocks, no ledgers); `apsp-core`'s `launch` rejects them up front.
    ///
    /// # Errors
    /// [`MachineError::Down`] when a kill rule took a thread down,
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
        supervise(p, spec, |plan, epoch, scripts| Self::run_inner(p, &f, plan, epoch, scripts))
    }

    /// One machine epoch: spawns `p` OS threads over a fresh channel
    /// matrix, joins them all (scoped — no thread outlives this call),
    /// and triages any panics into the typed root cause via the shared
    /// cascade discipline.
    fn run_inner<T, F>(
        p: usize,
        f: &F,
        plan: Option<&FaultPlan>,
        epoch: Option<&Epoch>,
        scripts: Option<&Arc<ScriptBoard>>,
    ) -> Result<MachineRun<T>, MachineError>
    where
        T: Send,
        F: Fn(&mut NativeComm) -> T + Sync,
    {
        assert!(p >= 1, "need at least one rank");
        install_quiet_typed_panics();
        let watchdog = Arc::new(NativeWatchdog::new(p));
        let watchdog_ms = default_watchdog_ms();
        // channel matrix: tx_rows[src][dst] sends src→dst; each rank takes
        // sole ownership of its row of senders and column of receivers, so
        // a dying rank disconnects its channels (unblocking any peer stuck
        // in recv, which then fails as a cascade victim instead of hanging).
        let mut tx_rows: Vec<Vec<Sender<Wire>>> = Vec::with_capacity(p);
        let mut rx_rows: Vec<Vec<Option<Receiver<Wire>>>> =
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

        // each rank's receiver ports ride along in its outcome so they stay
        // open until every thread has finished; a *panicking* rank unwinds
        // before depositing its outcome, so its ports close and unblock
        // peers stuck in recv.
        type RankOutcome<T> = (T, Option<FaultStats>, Vec<Receiver<Wire>>);
        let mut results: Vec<Option<RankOutcome<T>>> = (0..p).map(|_| None).collect();
        {
            let slots: Vec<_> = results.iter_mut().collect();
            let scope_outcome = thread::scope(|scope| {
                let mut handles = Vec::with_capacity(p);
                let rank_iter = tx_rows.drain(..).zip(rx_rows.drain(..)).zip(slots).enumerate();
                for (rank, ((tx_row, rx_row), slot)) in rank_iter {
                    let rx_row: Vec<Receiver<Wire>> =
                        rx_row.into_iter().map(|o| o.expect("receiver present at build")).collect();
                    let watchdog = Arc::clone(&watchdog);
                    let recovery = epoch.map(|e| e.checkpoints.clone());
                    let scripts = scripts.map(Arc::clone);
                    handles.push(scope.spawn(move || {
                        let mut comm = NativeComm {
                            rank,
                            p,
                            tx: tx_row,
                            rx: rx_row,
                            boundary: 0,
                            watchdog,
                            watchdog_ms,
                            faults: plan.map(|pl| Box::new(FaultLayer::new(pl, epoch, rank, p))),
                            recovery,
                            scripts,
                        };
                        let out = f(&mut comm);
                        let stats = comm.faults.take().map(|fl| fl.stats);
                        let ports = std::mem::take(&mut comm.rx);
                        *slot = Some((out, stats, ports));
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
                // a typed abort (thread kill, unrecoverable injected
                // fault, tag mismatch, watchdog hang) kills its rank with
                // a typed payload; peers then die on channel disconnect —
                // surface the root cause, not the cascade. Handles were
                // joined in rank order, so the surfaced error is
                // deterministic.
                if let Some(err) = classify_panics(&panics, plan.is_some()) {
                    return Err(err);
                }
                surface_root_cause(panics);
            });
            scope_outcome?;
        }

        let mut outs = Vec::with_capacity(p);
        let mut fault_ranks = Vec::with_capacity(p);
        for r in results {
            let (out, stats, _ports) = r.expect("rank completed without depositing an outcome");
            outs.push(out);
            if let Some(fs) = stats {
                fault_ranks.push(fs);
            }
        }
        let faults =
            plan.is_some().then_some(FaultSummary { per_rank: fault_ranks, unrecoverable: 0 });
        let report = RunReport { per_rank: vec![RankStats::default(); p], profile: None };
        Ok(MachineRun {
            outs,
            report,
            faults,
            recovery: None,
            scripts: Vec::new(),
            traces: Vec::new(),
        })
    }
}

/// A rank's handle to the native machine: point-to-point messaging over
/// std `mpsc` channels, with the optional fault/recovery layers. No cost
/// model — see the module docs for the exact contract differences from
/// [`apsp_simnet::Comm`].
pub struct NativeComm {
    rank: Rank,
    p: usize,
    tx: Vec<Sender<Wire>>,
    rx: Vec<Receiver<Wire>>,
    /// Phase boundaries committed so far ([`Transport::commit_phase`]).
    boundary: u64,
    watchdog: Arc<NativeWatchdog>,
    watchdog_ms: u64,
    /// Present exactly when the run has a fault layer; `None` keeps the
    /// plain path byte-identical to a fault-free build.
    faults: Option<Box<FaultLayer>>,
    /// Present exactly when a recovery supervisor is driving the run.
    recovery: Option<Checkpoints>,
    /// Comm-script recorder, present in recorded runs
    /// ([`MachineSpec::record`]) — same board type and event
    /// conventions as the simulator's recorder.
    scripts: Option<Arc<ScriptBoard>>,
}

impl NativeComm {
    /// Phase boundaries committed so far.
    pub fn boundary(&self) -> u64 {
        self.boundary
    }

    /// Fault-plan thread kill: once this rank's boundary counter reaches
    /// a `kill=R[@B]` trigger, the next communication attempt takes the
    /// whole OS thread down with a typed [`RankDown`] payload. Checked at
    /// send/receive entry — *after* the boundary-B commit, so the
    /// victim's last checkpoint is exactly the one the supervisor's
    /// consistent cut sees, matching the simulator's kill timing.
    fn kill_check(&self) {
        if let Some(fl) = &self.faults {
            if let Some(from) = fl.kill_from {
                if self.boundary >= from {
                    std::panic::panic_any(RankDown { rank: self.rank, boundary: self.boundary });
                }
            }
        }
    }

    /// Puts one physical message on the wire; a closed channel means the
    /// receiver's thread already died of a root-cause error, so this rank
    /// dies as a silenced cascade victim.
    fn put_on_wire(&mut self, dst: Rank, wire: Wire) {
        let tag = wire.tag;
        if self.tx[dst].send(wire).is_err() {
            std::panic::panic_any(Disconnect { rank: self.rank, peer: dst, tag });
        }
    }

    /// Fault-mode send: the simulator's exact retransmission protocol on
    /// real channels. Each physical attempt asks the shared plan what the
    /// network does with it (a pure seeded decision); drops and corrupted
    /// copies burn the bounded retry budget with (real, tiny) exponential
    /// backoff, and exhaustion dies with a typed [`FaultError`].
    fn send_faulty(&mut self, dst: Rank, tag: u64, payload: Vec<f64>) {
        let (seq, retries) = {
            let fl = self.faults.as_mut().expect("fault mode");
            let seq = fl.seq_next[dst];
            fl.seq_next[dst] += 1;
            (seq, fl.plan.retries())
        };
        let sum = checksum(&payload);
        let mut attempt = 0u32;
        loop {
            let injection = {
                let fl = self.faults.as_ref().expect("fault mode");
                fl.plan.injection_at(
                    fl.epoch,
                    self.boundary,
                    fl.remap[self.rank],
                    fl.remap[dst],
                    tag,
                    seq,
                    attempt,
                )
            };
            match injection {
                Injection::Drop => {
                    // the attempt leaves the sender's port but never
                    // arrives; the retransmit timer will fire
                    self.fstats().drops_injected += 1;
                }
                Injection::Deliver { corrupt: true, .. } => {
                    // deliver a copy with one payload bit flipped (or, for
                    // empty payloads, a poisoned checksum): the receiver's
                    // checksum test rejects it and waits for a retransmit
                    let (bad, bad_sum) = if payload.is_empty() {
                        (Vec::new(), sum ^ 1)
                    } else {
                        let mut bad = payload.clone();
                        let idx = (seq as usize).wrapping_mul(31) % bad.len();
                        let bit = seq.wrapping_mul(0x9E37) % 64;
                        bad[idx] = f64::from_bits(bad[idx].to_bits() ^ (1u64 << bit));
                        (bad, sum)
                    };
                    self.put_on_wire(dst, Wire { tag, seq, sum: bad_sum, payload: bad });
                    self.fstats().corruptions_injected += 1;
                }
                Injection::Deliver { corrupt: false, duplicate, delay } => {
                    if delay > 0 {
                        // counted, but inert off-simulator: there is no
                        // carried clock snapshot to inflate
                        self.fstats().delays_injected += 1;
                    }
                    if duplicate {
                        self.put_on_wire(dst, Wire { tag, seq, sum, payload: payload.clone() });
                        self.fstats().duplicates_injected += 1;
                    }
                    self.put_on_wire(dst, Wire { tag, seq, sum, payload });
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
            // real (bounded) backoff before the retransmission; the
            // deterministic unit count still lands in the stats ledger so
            // fault digests match the simulator's exactly
            let backoff = self.faults.as_ref().expect("fault mode").plan.backoff(attempt);
            thread::sleep(Duration::from_micros(backoff.min(2000)));
            let st = self.fstats();
            st.backoff_latency += backoff;
            st.retransmissions += 1;
        }
    }

    /// Fault-mode receive: every physical arrival occupies the port, but
    /// only the first clean, in-order copy is accepted — corrupted copies
    /// fail the checksum, stale sequence numbers are duplicate
    /// retransmissions.
    fn recv_faulty(&mut self, src: Rank, expected_tag: u64) -> Vec<f64> {
        loop {
            let wire = self.wire_recv(src, expected_tag);
            if checksum(&wire.payload) != wire.sum {
                self.fstats().corruptions_detected += 1;
                continue;
            }
            let seen = &mut self.faults.as_mut().expect("fault mode").seq_seen[src];
            if wire.seq <= *seen {
                self.fstats().duplicates_discarded += 1;
                continue;
            }
            debug_assert_eq!(
                wire.seq,
                *seen + 1,
                "per-channel FIFO delivers sequence numbers in order"
            );
            *seen = wire.seq;
            self.check_tag(src, expected_tag, wire.tag);
            return wire.payload;
        }
    }

    /// Deadline-based receive with the machine-wide watchdog discipline:
    /// the wait is chopped into `recv_timeout` ticks; local idle time only
    /// accumulates while *no* rank makes progress, and the run aborts with
    /// a typed [`HangError`] when it exceeds the watchdog window.
    fn wire_recv(&mut self, src: Rank, tag: u64) -> Wire {
        let tick = (self.watchdog_ms / 5).clamp(1, 50);
        let mut registered = false;
        let mut idle = 0u64;
        let mut last_progress = self.watchdog.progress.load(Ordering::Relaxed);
        loop {
            match self.rx[src].recv_timeout(Duration::from_millis(tick)) {
                Ok(wire) => {
                    self.watchdog.progress.fetch_add(1, Ordering::Relaxed);
                    if registered {
                        self.watchdog.blocked.lock().expect("watchdog registry")[self.rank] = None;
                    }
                    return wire;
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
                    self.hang(src, tag);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // the sender's ports only close when its thread unwound
                    // before depositing its outcome — this rank is a cascade
                    // victim of a root-cause panic over there. Die with a
                    // typed marker so the root cause is surfaced instead.
                    std::panic::panic_any(Disconnect { rank: self.rank, peer: src, tag });
                }
            }
        }
    }

    /// The watchdog's verdict: no rank made progress for the whole window.
    /// Aborts with the simulator's typed [`HangError`] — who was blocked
    /// on whom, plus up to 16 messages delivered to this rank's ports but
    /// never asked for.
    fn hang(&mut self, src: Rank, tag: u64) -> ! {
        let blocked = self.watchdog.blocked.lock().expect("watchdog registry").clone();
        let mut pending = Vec::new();
        'ports: for from in 0..self.p {
            if from == self.rank {
                continue;
            }
            while let Ok(w) = self.rx[from].try_recv() {
                pending.push((from, w.tag, w.payload.len()));
                if pending.len() >= 16 {
                    break 'ports;
                }
            }
        }
        std::panic::panic_any(HangError { rank: self.rank, src, tag, blocked, pending });
    }

    /// Fails loudly on a tag mismatch with the simulator's typed
    /// [`ProtocolError`], naming the endpoints, both tags, and up to 8
    /// still-pending messages on the same channel.
    fn check_tag(&mut self, src: Rank, expected: u64, actual: u64) {
        if actual == expected {
            return;
        }
        let mut pending = Vec::new();
        while pending.len() < 8 {
            match self.rx[src].try_recv() {
                Ok(w) => pending.push((w.tag, w.payload.len())),
                Err(_) => break,
            }
        }
        std::panic::panic_any(ProtocolError { rank: self.rank, src, expected, actual, pending });
    }

    /// The fault-stats ledger; only callable in fault mode.
    fn fstats(&mut self) -> &mut FaultStats {
        &mut self.faults.as_mut().expect("fault mode").stats
    }

    /// Appends an event to this rank's comm script when one is being
    /// recorded; the closure receives the committed-boundary count (the
    /// simulator recorder's exact convention).
    fn record(&self, ev: impl FnOnce(u64) -> CommEvent) {
        if let Some(board) = &self.scripts {
            board.push(self.rank, ev(self.boundary));
        }
    }
}

/// RAII span for the native backend. There is no cost ledger to record
/// into, so outside recorded runs the guard is a free forwarding no-op;
/// in recorded runs ([`MachineSpec::record`]) it echoes
/// `SpanOpen`/`SpanClose` into the comm script exactly like the
/// simulator's [`apsp_simnet::SpanGuard`], which is what lets the
/// verifier's span-balance and phase-attribution checks run on native
/// scripts.
pub struct NativeSpan<'a> {
    comm: &'a mut NativeComm,
    /// Span name, `Some` exactly when this run records a comm script.
    name: Option<&'static str>,
}

impl std::ops::Deref for NativeSpan<'_> {
    type Target = NativeComm;
    fn deref(&self) -> &NativeComm {
        self.comm
    }
}

impl std::ops::DerefMut for NativeSpan<'_> {
    fn deref_mut(&mut self) -> &mut NativeComm {
        self.comm
    }
}

impl Drop for NativeSpan<'_> {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            self.comm.record(|_| CommEvent::SpanClose { name });
        }
    }
}

impl Transport for NativeComm {
    type Span<'s> = NativeSpan<'s>;

    fn rank(&self) -> Rank {
        self.rank
    }

    fn p(&self) -> usize {
        self.p
    }

    fn record_collective(&mut self, kind: CollectiveKind, group: &[Rank], root: Rank, tag: u64) {
        self.record(|phase| CommEvent::Collective {
            kind,
            group: group.to_vec(),
            root,
            tag,
            phase,
        });
    }

    fn send(&mut self, dst: Rank, tag: u64, payload: Vec<f64>) {
        assert!(dst < self.p, "rank {dst} out of range (p = {})", self.p);
        assert_ne!(dst, self.rank, "self-send: use local data instead");
        let words = payload.len();
        self.record(|phase| CommEvent::Send { dst, tag, words, phase });
        if self.faults.is_some() {
            self.kill_check();
            self.send_faulty(dst, tag, payload);
        } else {
            self.put_on_wire(dst, Wire { tag, payload, seq: 0, sum: 0 });
        }
        // a send is machine progress: any rank still moving holds off
        // every rank's watchdog
        self.watchdog.progress.fetch_add(1, Ordering::Relaxed);
    }

    fn recv(&mut self, src: Rank, expected_tag: u64) -> Vec<f64> {
        assert!(src < self.p, "rank {src} out of range (p = {})", self.p);
        assert_ne!(src, self.rank, "self-receive: use local data instead");
        if self.faults.is_some() {
            self.kill_check();
            let payload = self.recv_faulty(src, expected_tag);
            let words = payload.len();
            self.record(|phase| CommEvent::Recv { src, tag: expected_tag, words, phase });
            return payload;
        }
        let wire = self.wire_recv(src, expected_tag);
        self.check_tag(src, expected_tag, wire.tag);
        let words = wire.payload.len();
        self.record(|phase| CommEvent::Recv { src, tag: expected_tag, words, phase });
        wire.payload
    }

    fn recv_any(&mut self, expected_tag: u64) -> (Rank, Vec<f64>) {
        assert!(self.faults.is_none(), "recv_any is not supported in fault mode");
        assert!(self.p > 1, "recv_any with no possible sender");
        let tick = (self.watchdog_ms / 5).clamp(1, 50);
        let mut registered = false;
        let mut idle = 0u64;
        let mut last_progress = self.watchdog.progress.load(Ordering::Relaxed);
        loop {
            for src in 0..self.p {
                if src == self.rank {
                    continue;
                }
                if let Ok(wire) = self.rx[src].try_recv() {
                    self.watchdog.progress.fetch_add(1, Ordering::Relaxed);
                    if registered {
                        self.watchdog.blocked.lock().expect("watchdog registry")[self.rank] = None;
                    }
                    self.check_tag(src, expected_tag, wire.tag);
                    let words = wire.payload.len();
                    self.record(|phase| CommEvent::Recv { src, tag: expected_tag, words, phase });
                    return (src, wire.payload);
                }
            }
            thread::sleep(Duration::from_millis(tick));
            if !registered {
                // wildcard wait: register blocked-on-self as the marker
                self.watchdog.blocked.lock().expect("watchdog registry")[self.rank] =
                    Some((self.rank, expected_tag));
                registered = true;
            }
            let progress = self.watchdog.progress.load(Ordering::Relaxed);
            if progress != last_progress {
                last_progress = progress;
                idle = 0;
                continue;
            }
            idle += tick;
            if idle >= self.watchdog_ms {
                self.hang(self.rank, expected_tag);
            }
        }
    }

    fn compute(&mut self, ops: u64) {
        // no compute clock off-simulator; a straggler's extra ops are
        // still counted so fault digests line up across backends
        if let Some(fl) = &mut self.faults {
            if fl.slowdown > 1 {
                fl.stats.straggler_ops += ops.saturating_mul(fl.slowdown - 1);
            }
        }
    }

    fn alloc(&mut self, _words: usize) {}

    fn release(&mut self, _words: usize) {}

    fn clocks(&self) -> Clocks {
        Clocks::default()
    }

    fn span(&mut self, name: &'static str, _tag: u64) -> NativeSpan<'_> {
        let name = if self.scripts.is_some() {
            self.record(|_| CommEvent::SpanOpen { name });
            Some(name)
        } else {
            None
        };
        NativeSpan { comm: self, name }
    }

    fn phase_live(&self) -> bool {
        match &self.recovery {
            Some(rc) => self.boundary + 1 > rc.resume,
            None => true,
        }
    }

    fn commit_phase(&mut self, state: Vec<f64>) -> Vec<f64> {
        self.boundary += 1;
        self.record(|boundary| CommEvent::Commit { boundary });
        let Some(rc) = self.recovery.clone() else { return state };
        let boundary = self.boundary;
        if boundary < rc.resume {
            // still in the skipped region: the state is stale and a
            // snapshot at this boundary already exists
            return state;
        }
        if boundary == rc.resume {
            let snap = rc.store.restore(self.rank, boundary);
            if let Some(fl) = self.faults.as_deref_mut() {
                if snap.seq_next.len() == fl.seq_next.len() {
                    fl.seq_next.clone_from(&snap.seq_next);
                    fl.seq_seen.clone_from(&snap.seq_seen);
                }
                fl.stats = snap.stats;
            }
            return snap.state;
        }
        if rc.every != 0 && boundary.is_multiple_of(rc.every as u64) {
            let (seq_next, seq_seen, stats) = match self.faults.as_deref() {
                Some(fl) => (fl.seq_next.clone(), fl.seq_seen.clone(), fl.stats),
                None => (Vec::new(), Vec::new(), FaultStats::default()),
            };
            rc.store.save(
                self.rank,
                boundary,
                Snapshot {
                    state: state.clone(),
                    clocks: Clocks::default(),
                    sent_messages: 0,
                    sent_words: 0,
                    peak_words: 0,
                    resident_words: 0,
                    seq_next,
                    seq_seen,
                    stats,
                },
            );
        }
        state
    }
}

// Gated off under `--cfg loom`: these tests exercise real wall-clock
// scheduling (100-message FIFO streams, seeded chaos over 80 messages)
// far past what exhaustive schedule exploration can cover — the loom
// counterparts live in `tests/loom.rs` with model-sized programs.
#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use apsp_simnet::{RecoveryPolicy, RecoveryReport};

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
    fn fifo_non_overtaking_per_channel() {
        let (outs, _) = NativeMachine::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..100 {
                    comm.send(1, 3, vec![i as f64]);
                }
                Vec::new()
            } else {
                (0..100).map(|_| comm.recv(0, 3)[0]).collect::<Vec<f64>>()
            }
        });
        let expect: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(outs[1], expect);
    }

    #[test]
    fn recv_any_drains_all_senders() {
        let (outs, _) = NativeMachine::run(4, |comm| {
            if comm.rank() == 0 {
                let mut got: Vec<f64> = (1..4).map(|_| comm.recv_any(5).1[0]).collect();
                got.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                got
            } else {
                comm.send(0, 5, vec![comm.rank() as f64]);
                Vec::new()
            }
        });
        assert_eq!(outs[0], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn commit_phase_advances_boundary_and_returns_state() {
        let (outs, _) = NativeMachine::run(1, |comm| {
            let s1 = comm.commit_phase(vec![1.0]);
            let s2 = comm.commit_phase(vec![2.0]);
            assert!(comm.phase_live());
            (s1, s2, comm.boundary())
        });
        assert_eq!(outs[0], (vec![1.0], vec![2.0], 2));
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

    #[test]
    fn single_rank_machine_runs() {
        let (outs, _) = NativeMachine::run(1, |comm| {
            comm.compute(10);
            comm.alloc(100);
            comm.release(100);
            comm.rank()
        });
        assert_eq!(outs, vec![0]);
    }

    #[allow(clippy::type_complexity)]
    fn run_faulty<T: Send>(
        p: usize,
        plan: &FaultPlan,
        f: impl Fn(&mut NativeComm) -> T + Sync,
    ) -> Result<(Vec<T>, RunReport, FaultSummary), MachineError> {
        NativeMachine::launch(p, &MachineSpec { faults: Some(plan), ..Default::default() }, f)
            .map(|run| (run.outs, run.report, run.faults.expect("faulty run carries a summary")))
    }

    #[allow(clippy::type_complexity)]
    fn run_recovering<T: Send>(
        p: usize,
        plan: &FaultPlan,
        policy: RecoveryPolicy,
        f: impl Fn(&mut NativeComm) -> T + Sync,
    ) -> Result<(Vec<T>, RunReport, FaultSummary, RecoveryReport), MachineError> {
        let spec = MachineSpec { faults: Some(plan), recovery: Some(policy), ..Default::default() };
        NativeMachine::launch(p, &spec, f).map(|run| {
            let (faults, recovery) = (run.faults.expect("summary"), run.recovery.expect("ledger"));
            (run.outs, run.report, faults, recovery)
        })
    }

    /// The ping-pong schedule used by the fault-layer tests: rank 0 sends
    /// `rounds` messages to rank 1 and receives each echo back doubled.
    fn echo_rounds(comm: &mut NativeComm, rounds: u64) -> f64 {
        let mut acc = 0.0;
        for i in 0..rounds {
            match comm.rank() {
                0 => {
                    comm.send(1, 40 + i, vec![i as f64, 0.5]);
                    acc += comm.recv(1, 80 + i)[0];
                }
                _ => {
                    let got = comm.recv(0, 40 + i);
                    comm.send(0, 80 + i, vec![2.0 * got[0]]);
                    acc += got[0];
                }
            }
        }
        acc
    }

    #[test]
    fn empty_plan_injects_nothing_and_matches_plain() {
        let plan = FaultPlan::new(7);
        let (outs, _, faults) = run_faulty(2, &plan, |comm| echo_rounds(comm, 20))
            .expect("empty plan recovers everything");
        let (plain, _) = NativeMachine::run(2, |comm| echo_rounds(comm, 20));
        assert_eq!(outs, plain);
        assert_eq!(faults.injected(), 0);
        assert_eq!(faults.recovered(), 0);
        assert_eq!(faults.unrecoverable, 0);
    }

    #[test]
    fn chaos_is_recovered_and_deterministic() {
        let plan =
            FaultPlan::new(42).with_drop(0.2).with_dup(0.15).with_corrupt(0.15).with_delay(0.1, 4);
        let run = || {
            run_faulty(2, &plan, |comm| echo_rounds(comm, 40))
                .expect("transient chaos always recovers")
        };
        let (outs_a, _, faults_a) = run();
        let (plain, _) = NativeMachine::run(2, |comm| echo_rounds(comm, 40));
        assert_eq!(outs_a, plain, "recovered run matches the fault-free run exactly");
        assert!(faults_a.injected() > 0, "this seed injects something over 80 messages");
        assert_eq!(faults_a.unrecoverable, 0);
        // seed-reproducible under real thread scheduling: injection is a
        // pure function of (plan, channel, seq, attempt)
        let (outs_b, _, faults_b) = run();
        assert_eq!(outs_a, outs_b);
        assert_eq!(faults_a.digest(), faults_b.digest());
    }

    #[test]
    fn a_kill_rule_takes_the_thread_down_typed() {
        let plan = FaultPlan::new(3).with_kill_rank(1);
        let err = match run_faulty(2, &plan, |comm| echo_rounds(comm, 4)) {
            Err(e) => e,
            Ok(_) => panic!("a killed rank cannot finish"),
        };
        match NativeFaultError::classify(&err) {
            Some(NativeFaultError::Down(d)) => assert_eq!(d.rank, 1),
            other => panic!("expected a typed rank-down, got {other:?} ({err})"),
        }
    }

    /// Three checkpointed phases of pairwise exchange; the state word
    /// accumulates so a wrong rollback/replay is visible in the output.
    fn phased_exchange(comm: &mut NativeComm) -> f64 {
        let mut state = vec![comm.rank() as f64 + 1.0];
        for phase in 0..3u64 {
            if comm.phase_live() {
                let peer = comm.rank() ^ 1;
                comm.send(peer, 100 + phase, state.clone());
                let got = comm.recv(peer, 100 + phase);
                state[0] += got[0] * (phase + 1) as f64;
            }
            state = comm.commit_phase(state);
        }
        state[0]
    }

    #[test]
    fn recovery_replays_a_killed_rank_onto_a_spare() {
        let plan = FaultPlan::new(11).with_kill_rank_from(1, 1);
        let (outs, _, faults, recovery) =
            run_recovering(2, &plan, RecoveryPolicy::default(), phased_exchange)
                .expect("one spare is enough for one dead rank");
        let (clean, _) = NativeMachine::run(2, phased_exchange);
        assert_eq!(outs, clean, "recovered outputs are bit-identical to fault-free");
        assert!(recovery.restarts >= 1, "the kill must force a restart");
        assert_eq!(recovery.spare_takeovers, vec![(1, 2)]);
        assert!(recovery.restores >= 1, "replay resumes from a checkpoint");
        assert_eq!(faults.unrecoverable, 0);
        // the whole trajectory is replayable bit-for-bit
        let (outs_b, _, _, recovery_b) =
            run_recovering(2, &plan, RecoveryPolicy::default(), phased_exchange)
                .expect("identical trajectory");
        assert_eq!(outs, outs_b);
        assert_eq!(recovery.digest(), recovery_b.digest());
    }

    #[test]
    fn exhausted_spares_degrade_to_typed_unrecoverable() {
        let plan = FaultPlan::new(5).with_kill_rank(1);
        let policy = RecoveryPolicy { max_restarts: 3, every: 1, spares: 0 };
        let err = match run_recovering(2, &plan, policy, phased_exchange) {
            Err(e) => e,
            Ok(_) => panic!("no spares means no takeover"),
        };
        match err {
            MachineError::Unrecoverable(u) => {
                assert_eq!(u.partial.unrecoverable, 1);
                assert!(matches!(*u.cause, MachineError::Down(_)));
            }
            other => panic!("expected Unrecoverable, got {other}"),
        }
    }
}
