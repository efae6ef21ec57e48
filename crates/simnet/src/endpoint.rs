//! The rank endpoint: the one implementation of the §3.1 machine's
//! mechanics — ranks, per-pair FIFO links, the reliability protocol, the
//! watchdog, the checkpoint commit — that both the cost-counting simulator
//! ([`crate::Machine`]) and the native threads machine (`apsp-transport`)
//! run. The cost model is an *accounting* of this machine, so it is a
//! hook: an [`Endpoint`] is generic over a [`Meter`], called at exactly
//! the points where counting costs differs from not counting them.
//!
//! Each [`Meter`] hook says what it is called for; `docs/BACKENDS.md`
//! ("One endpoint") tabulates what the simulator's
//! [`SimMeter`](crate::comm::SimMeter) and the native machine's meter do in
//! each.
//!
//! Everything else — the frame format (sequence number + checksum
//! envelope), bounded-backoff retransmission, duplicate and corruption
//! rejection, tag checking, the hang dump, script recording, the
//! save/restore protocol at a phase boundary, and the epoch runner
//! ([`run_epoch`]: channel matrix, scoped spawn, rank-order join, cascade
//! triage) — is written once, here, against the [`crate::sync`] shim, so
//! `--cfg loom` builds model-check the code that runs.

use crate::cascade::{classify_panics, install_quiet_typed_panics, surface_root_cause, Disconnect};
use crate::comm::{MachineRun, Rank};
use crate::faults::{checksum, FaultError, FaultPlan, FaultStats, FaultSummary, Injection};
use crate::recovery::{Checkpoints, Epoch, HangError, MachineError, ProtocolError, RankDown};
use crate::report::{Clocks, RankStats, RunReport};
use crate::sched::Governor;
use crate::script::{CollectiveKind, CommEvent, ScriptBoard};
use crate::snapshot::Snapshot;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use crate::sync::{thread, Arc, Mutex};
use std::time::Duration;

/// What a machine supplies to the shared [`Endpoint`]: its cost
/// accounting. Every hook defaults to "no cost model", so a machine that
/// only moves messages implements [`Meter::on_wire`] and nothing else.
/// The endpoint is monomorphised per meter — a hook that does nothing
/// compiles to nothing.
pub trait Meter: Sized {
    /// What a frame carries from the sender's meter to the receiver's.
    type Stamp: Send;

    /// What a `kill=R[@B]` rule does to rank R: `true` takes its thread
    /// down with a typed [`RankDown`] at the next communication attempt
    /// from boundary B on; `false` leaves the thread running and the
    /// kill manifests as R's messages being dropped
    /// ([`FaultPlan::injection_at`]).
    const KILL_TAKES_THREAD_DOWN: bool = false;

    /// A physical attempt of `words` words left for `dst` and is on the
    /// wire, `delay` injected latency units late: charges the sender and
    /// stamps the frame.
    fn on_wire(&mut self, dst: Rank, tag: u64, words: usize, delay: u64) -> Self::Stamp;

    /// A physical attempt left the port and the network dropped it.
    fn lost(&mut self, _dst: Rank, _tag: u64, _words: usize) {}

    /// A physical arrival of `words` words occupied this rank's port.
    fn arrived(&mut self, _words: usize, _stamp: &Self::Stamp) {}

    /// Waits out the retransmit timeout of `units` latency units.
    fn backoff(&mut self, _units: u64) {}

    /// `ops` scalar operations of local compute (straggler-inflated).
    fn compute(&mut self, _ops: u64) {}

    /// `words` more words of tracked resident data.
    fn alloc(&mut self, _words: usize) {}

    /// `words` fewer words of tracked resident data.
    fn release(&mut self, _words: usize) {}

    /// The rank's cost ledger so far — what a checkpoint saves and the
    /// run report ends with.
    fn costs(&self) -> RankStats {
        RankStats::default()
    }

    /// Rolls the cost ledger back to a checkpoint's.
    fn restore(&mut self, _costs: RankStats) {}

    /// Charges one snapshot or restore of `words` state words.
    fn checkpoint(&mut self, _words: usize) {}

    /// Opens a span in the ledger, when one is kept; the index goes back
    /// to [`Meter::span_exit`].
    fn span_enter(&mut self, _name: &'static str, _tag: u64) -> Option<usize> {
        None
    }

    /// Closes the span [`Meter::span_enter`] opened as `idx`.
    fn span_exit(&mut self, _idx: usize) {}

    /// The delivery governor sequencing this run's receives, if any.
    fn governor(&self) -> Option<&Arc<Governor>> {
        None
    }
}

/// A message in flight: tag, payload, the constant-size reliability
/// envelope (part of the per-message α cost in the §3.1 model, so it adds
/// **no** words to the bandwidth clock) and the sender meter's stamp.
/// Outside fault mode the envelope is zeroed and ignored — the plain path
/// neither computes nor checks it.
struct Frame<S> {
    tag: u64,
    payload: Vec<f64>,
    /// Per-`(src, dst)` channel sequence number, starting at 1 (0 = no
    /// fault layer).
    seq: u64,
    /// [`checksum`] of the payload at send time (fault mode only).
    sum: u64,
    stamp: S,
}

/// Machine-wide hang detection, shared by every rank of one run: any send
/// or completed receive bumps `progress`; a rank blocked in a receive
/// while `progress` stays flat for the whole window declares the machine
/// hung and aborts with a [`HangError`] dump of the `blocked` registry.
struct Watchdog {
    progress: AtomicU64,
    /// `blocked[rank] = Some((src, tag))` while `rank` waits in a receive
    /// (`src == rank` marks a wildcard wait).
    blocked: Mutex<Vec<Option<(Rank, u64)>>>,
    /// `APSP_WATCHDOG_MS`, or 5000 ms of machine-wide inactivity.
    /// Wall-clock time only arms the detector — simulated costs never
    /// depend on it, so determinism is unaffected.
    window_ms: u64,
}

impl Watchdog {
    fn new(p: usize) -> Self {
        let window_ms =
            std::env::var("APSP_WATCHDOG_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(5000);
        Watchdog { progress: AtomicU64::new(0), blocked: Mutex::new(vec![None; p]), window_ms }
    }
}

/// Per-rank state of the fault layer ([`crate::MachineSpec::faults`]).
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
    /// On machines whose kill rules take threads down: the boundary from
    /// which this rank's next communication attempt kills it.
    kill_from: Option<u64>,
    /// Next sequence number per destination channel.
    seq_next: Vec<u64>,
    /// Highest accepted sequence number per source channel.
    seq_seen: Vec<u64>,
    stats: FaultStats,
}

/// A rank's handle to its machine: point-to-point messaging, cost
/// charging, phase commits and spans. The collectives are `Transport`
/// methods (`apsp-transport`), built from these sends and receives.
pub struct Endpoint<M: Meter> {
    rank: Rank,
    p: usize,
    tx: Vec<Sender<Frame<M::Stamp>>>,
    rx: Vec<Receiver<Frame<M::Stamp>>>,
    /// Phase boundaries committed so far ([`Endpoint::commit_phase`]).
    /// Counted in every mode — kill-at-boundary rules key on it even
    /// when no recovery supervisor is attached.
    boundary: u64,
    meter: M,
    /// Fault layer, present in faulty runs ([`crate::MachineSpec::faults`]).
    /// Boxed so the fault-free hot path pays one pointer of state.
    faults: Option<Box<FaultState>>,
    /// Checkpoint/restore wiring, present under a recovery supervisor
    /// ([`crate::MachineSpec::recovery`]).
    recovery: Option<Checkpoints>,
    watchdog: Arc<Watchdog>,
    /// Comm-script recorder, present in recorded and governed runs.
    /// Recording observes the machine — it never touches the meter.
    script: Option<Arc<ScriptBoard>>,
}

impl<M: Meter> Endpoint<M> {
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

    /// Current critical-path clocks (all zero without a cost model).
    pub fn clocks(&self) -> Clocks {
        self.meter.costs().clocks
    }

    /// Appends an event to this rank's comm script when one is being
    /// recorded; free otherwise (the closure never runs). The closure
    /// receives the committed-boundary count.
    #[inline]
    fn record(&self, ev: impl FnOnce(u64) -> CommEvent) {
        if let Some(board) = &self.script {
            board.push(self.rank, ev(self.boundary));
        }
    }

    /// Records entry into a collective (called by the `Transport`
    /// collectives — their internal tree messages additionally record as
    /// ordinary sends/receives).
    pub fn record_collective(&self, kind: CollectiveKind, group: &[Rank], root: Rank, tag: u64) {
        self.record(|phase| CommEvent::Collective {
            kind,
            group: group.to_vec(),
            root,
            tag,
            phase,
        });
    }

    /// Sends `payload` to `dst`. Never blocks. Costs `(1, payload.len())`
    /// on a metered rank's clocks. The `tag` is a debugging aid checked
    /// by the matching [`Endpoint::recv`].
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
            self.kill_check();
            return self.send_faulty(dst, tag, payload);
        }
        self.put_on_wire(dst, tag, payload, 0, 0, 0);
    }

    /// Fault-plan thread kill: once this rank's boundary counter reaches
    /// its `kill=R[@B]` trigger, the next communication attempt takes the
    /// whole thread down with a typed [`RankDown`] payload. Checked at
    /// send/receive entry — *after* the boundary-B commit, so the
    /// victim's last checkpoint is exactly the one the supervisor's
    /// consistent cut sees, matching the timing of a kill that manifests
    /// as dropped messages.
    fn kill_check(&self) {
        let from = self.faults.as_ref().and_then(|st| st.kill_from);
        if from.is_some_and(|from| self.boundary >= from) {
            std::panic::panic_any(RankDown { rank: self.rank, boundary: self.boundary });
        }
    }

    /// Puts one physical message on the wire, metered and stamped.
    fn put_on_wire(
        &mut self,
        dst: Rank,
        tag: u64,
        payload: Vec<f64>,
        seq: u64,
        sum: u64,
        delay: u64,
    ) {
        let stamp = self.meter.on_wire(dst, tag, payload.len(), delay);
        if self.tx[dst].send(Frame { tag, payload, seq, sum, stamp }).is_err() {
            // the receiver's thread already died of a root-cause error;
            // die as a silenced cascade victim so that error surfaces
            std::panic::panic_any(Disconnect { rank: self.rank, peer: dst, tag });
        }
        // a send is machine progress: any rank still moving holds off
        // every rank's watchdog
        self.watchdog.progress.fetch_add(1, Ordering::Relaxed);
        // mirror the wire *after* the channel send, so a governor grant
        // always finds the message already deposited
        if let Some(gov) = self.meter.governor() {
            gov.on_send(self.rank, dst);
        }
    }

    /// Fault-mode send: stamps the reliability envelope, asks the plan
    /// what the network does with each physical attempt (a pure seeded
    /// decision), and retransmits with exponential backoff until the
    /// message is cleanly on the wire or the retry budget runs out.
    fn send_faulty(&mut self, dst: Rank, tag: u64, payload: Vec<f64>) {
        let st = self.faults.as_mut().expect("fault mode");
        let seq = st.seq_next[dst];
        st.seq_next[dst] += 1;
        let retries = st.plan.retries();
        let sum = checksum(&payload);
        let mut attempt = 0u32;
        loop {
            let st = self.faults.as_ref().expect("fault mode");
            let injection = st.plan.injection_at(
                st.epoch,
                self.boundary,
                st.remap[self.rank],
                st.remap[dst],
                tag,
                seq,
                attempt,
            );
            match injection {
                Injection::Drop => {
                    self.meter.lost(dst, tag, payload.len());
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
                    self.put_on_wire(dst, tag, bad, seq, bad_sum, 0);
                    self.fstats().corruptions_injected += 1;
                }
                Injection::Deliver { corrupt: false, duplicate, delay } => {
                    if delay > 0 {
                        self.fstats().delays_injected += 1;
                    }
                    if duplicate {
                        self.put_on_wire(dst, tag, payload.clone(), seq, sum, delay);
                        self.fstats().duplicates_injected += 1;
                    }
                    self.put_on_wire(dst, tag, payload, seq, sum, delay);
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
            // the sender waits out the backoff window before
            // retransmitting; the deterministic unit count lands in the
            // stats ledger on every machine, so fault digests match
            let backoff = self.faults.as_ref().expect("fault mode").plan.backoff(attempt);
            self.meter.backoff(backoff);
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
        let frame = if self.faults.is_some() {
            self.kill_check();
            self.recv_faulty(src, expected_tag)
        } else {
            self.wire_recv(Some(src), expected_tag).1
        };
        self.accept(src, expected_tag, frame)
    }

    /// Receives the next message from **any** source carrying
    /// `expected_tag` — the `MPI_ANY_SOURCE` analogue, and the machine's
    /// only genuine delivery-order choice point (named receives are FIFO
    /// per channel, so their delivery order is fixed by the program).
    ///
    /// Under [`crate::Machine::run_governed`] the delivery order is
    /// resolved by the schedule, making runs replayable and explorable;
    /// in ungoverned runs the ports are polled and the winner depends on
    /// wall-clock arrival order — exactly the nondeterminism hazard the
    /// protocol verifier's explorer exists to surface. Returns the source
    /// rank and the payload.
    ///
    /// # Panics
    /// Panics in fault mode (wildcard receives and per-channel reliability
    /// sequencing do not compose) and on tag mismatch.
    pub fn recv_any(&mut self, expected_tag: u64) -> (Rank, Vec<f64>) {
        assert!(self.faults.is_none(), "recv_any is not supported in fault mode");
        assert!(self.p > 1, "recv_any with no possible sender");
        let (src, frame) = self.wire_recv(None, expected_tag);
        (src, self.accept(src, expected_tag, frame))
    }

    /// Hands an accepted frame to the program: tag check, script entry.
    fn accept(&mut self, src: Rank, expected_tag: u64, frame: Frame<M::Stamp>) -> Vec<f64> {
        self.check_tag(src, expected_tag, frame.tag);
        let words = frame.payload.len();
        self.record(|phase| CommEvent::Recv { src, tag: expected_tag, words, phase });
        frame.payload
    }

    /// Pulls the next physical arrival — from `src`, or from any port for
    /// a wildcard receive — and charges it to this rank's port.
    ///
    /// Governed runs sequence delivery through the governor, which
    /// detects deadlock structurally. Otherwise the wait arms the
    /// watchdog: it is chopped into short ticks, local idle time only
    /// accumulates while *no* rank makes progress, and when it exceeds
    /// the watchdog window the rank aborts with a typed [`HangError`] —
    /// a schedule bug hangs a test run no longer.
    fn wire_recv(&mut self, src: Option<Rank>, tag: u64) -> (Rank, Frame<M::Stamp>) {
        let arrival = match self.meter.governor() {
            Some(gov) => {
                let src = gov
                    .acquire(self.rank, src, tag)
                    .unwrap_or_else(|deadlock| std::panic::panic_any(deadlock));
                // a grant guarantees the message is already on the wire
                let frame = self.rx[src].recv();
                (src, frame.expect("governor granted a message that is on the wire"))
            }
            None => self.watched_recv(src, tag),
        };
        self.meter.arrived(arrival.1.payload.len(), &arrival.1.stamp);
        arrival
    }

    /// The ungoverned wait of [`Endpoint::wire_recv`], under the watchdog.
    fn watched_recv(&self, src: Option<Rank>, tag: u64) -> (Rank, Frame<M::Stamp>) {
        let window_ms = self.watchdog.window_ms;
        let tick_ms = (window_ms / 5).clamp(1, 50);
        let tick = Duration::from_millis(tick_ms);
        // what the blocked registry shows: a wildcard wait marks itself
        let blocked_on = (src.unwrap_or(self.rank), tag);
        let mut registered = false;
        let mut idle = 0u64;
        let mut last_progress = self.watchdog.progress.load(Ordering::Relaxed);
        loop {
            let arrival = match src {
                Some(src) => match self.rx[src].recv_timeout(tick) {
                    Ok(frame) => Some((src, frame)),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => {
                        // the sender's ports only close when its thread
                        // unwound before depositing its outcome — this
                        // rank is a cascade victim of a root-cause panic
                        // over there. Die with a typed marker so the root
                        // cause is surfaced instead.
                        std::panic::panic_any(Disconnect { rank: self.rank, peer: src, tag });
                    }
                },
                None => {
                    let polled = (0..self.p)
                        .filter(|&src| src != self.rank)
                        .find_map(|src| self.rx[src].try_recv().ok().map(|frame| (src, frame)));
                    if polled.is_none() {
                        thread::sleep(tick);
                    }
                    polled
                }
            };
            if let Some(arrival) = arrival {
                self.watchdog.progress.fetch_add(1, Ordering::Relaxed);
                if registered {
                    self.watchdog.blocked.lock().expect("watchdog registry")[self.rank] = None;
                }
                return arrival;
            }
            if !registered {
                self.watchdog.blocked.lock().expect("watchdog registry")[self.rank] =
                    Some(blocked_on);
                registered = true;
            }
            let progress = self.watchdog.progress.load(Ordering::Relaxed);
            if progress != last_progress {
                last_progress = progress;
                idle = 0;
                continue;
            }
            idle += tick_ms;
            if idle >= window_ms {
                self.hang(blocked_on);
            }
        }
    }

    /// The watchdog's verdict: no rank made progress for the whole window.
    /// Aborts with a typed [`HangError`] — who was blocked on whom, plus
    /// up to 16 messages delivered to this rank's ports but never asked
    /// for.
    fn hang(&self, (src, tag): (Rank, u64)) -> ! {
        let blocked = self.watchdog.blocked.lock().expect("watchdog registry").clone();
        let mut pending = Vec::new();
        'ports: for (peer, rx) in self.rx.iter().enumerate() {
            while let Ok(frame) = rx.try_recv() {
                pending.push((peer, frame.tag, frame.payload.len()));
                if pending.len() >= 16 {
                    break 'ports;
                }
            }
        }
        std::panic::panic_any(HangError { rank: self.rank, src, tag, blocked, pending });
    }

    /// Fault-mode receive: every physical arrival occupies the port (and
    /// is charged), but only the first clean, in-order copy is accepted —
    /// corrupted copies fail the checksum, stale sequence numbers are
    /// duplicate retransmissions.
    fn recv_faulty(&mut self, src: Rank, expected_tag: u64) -> Frame<M::Stamp> {
        loop {
            let (_, frame) = self.wire_recv(Some(src), expected_tag);
            if checksum(&frame.payload) != frame.sum {
                self.fstats().corruptions_detected += 1;
                continue;
            }
            let seen = &mut self.faults.as_mut().expect("fault mode").seq_seen[src];
            if frame.seq <= *seen {
                self.fstats().duplicates_discarded += 1;
                continue;
            }
            debug_assert_eq!(
                frame.seq,
                *seen + 1,
                "per-channel FIFO delivers sequence numbers in order"
            );
            *seen = frame.seq;
            return frame;
        }
    }

    /// Fails loudly on a tag mismatch, naming the endpoints, both tags,
    /// and up to 8 still-pending messages on the same channel. The abort
    /// is a typed [`ProtocolError`] (whose `Display` carries the same
    /// diagnostic) so the recovery supervisor routes it like any other
    /// machine error.
    fn check_tag(&self, src: Rank, expected: u64, actual: u64) {
        if actual == expected {
            return;
        }
        let mut pending = Vec::new();
        while pending.len() < 8 {
            match self.rx[src].try_recv() {
                Ok(frame) => pending.push((frame.tag, frame.payload.len())),
                Err(_) => break,
            }
        }
        std::panic::panic_any(ProtocolError { rank: self.rank, src, expected, actual, pending });
    }

    /// The fault-stats ledger; only callable in fault mode.
    fn fstats(&mut self) -> &mut FaultStats {
        &mut self.faults.as_mut().expect("fault mode").stats
    }

    /// `true` when the current phase must actually execute: always, except
    /// under a recovery supervisor while skipping phases a restored
    /// checkpoint already covers. Gate each phase body on this, then call
    /// [`Endpoint::commit_phase`] unconditionally.
    pub fn phase_live(&self) -> bool {
        match &self.recovery {
            Some(checkpoints) => self.boundary + 1 > checkpoints.resume,
            None => true,
        }
    }

    /// Marks a phase boundary, handing the solver's per-rank `state`
    /// through the checkpoint layer.
    ///
    /// Without a recovery supervisor this only advances the boundary
    /// counter (against which `kill=R@B` rules are matched) and returns
    /// `state` untouched — zero cost. Under a supervised launch
    /// ([`crate::MachineSpec::recovery`]):
    ///
    /// * at the resume boundary, the rank's snapshot (state, cost ledger,
    ///   fault sequence state) replaces the local one and the meter is
    ///   charged one restore of the state's words;
    /// * at every `every`-th later boundary, the meter is charged one
    ///   snapshot and the state is saved into the shared store.
    ///
    /// On the simulator each charge is `(1, words)`, so checkpoint
    /// traffic lands in the §3.1 ledgers exactly: one latency unit plus
    /// the state's word count per snapshot or restore.
    pub fn commit_phase(&mut self, state: Vec<f64>) -> Vec<f64> {
        self.boundary += 1;
        self.record(|boundary| CommEvent::Commit { boundary });
        let Some(checkpoints) = &self.recovery else { return state };
        let boundary = self.boundary;
        if boundary < checkpoints.resume {
            // still in the skipped region: the state is stale and a
            // snapshot at this boundary already exists
            return state;
        }
        if boundary == checkpoints.resume {
            let snap = checkpoints.store.restore(self.rank, boundary);
            self.meter.restore(snap.costs);
            if let Some(st) = self.faults.as_deref_mut() {
                if snap.seq_next.len() == st.seq_next.len() {
                    st.seq_next.clone_from(&snap.seq_next);
                    st.seq_seen.clone_from(&snap.seq_seen);
                }
                st.stats = snap.stats;
            }
            // the restore itself moves the state words back into place
            self.meter.checkpoint(snap.state.len());
            return snap.state;
        }
        if checkpoints.every != 0 && boundary.is_multiple_of(checkpoints.every as u64) {
            // charge before capture, so the snapshot's costs already
            // include its own and a restore resumes past it exactly
            self.meter.checkpoint(state.len());
            let (seq_next, seq_seen, stats) = match self.faults.as_deref() {
                Some(st) => (st.seq_next.clone(), st.seq_seen.clone(), st.stats),
                None => (Vec::new(), Vec::new(), FaultStats::default()),
            };
            let costs = self.meter.costs();
            checkpoints.store.save(
                self.rank,
                boundary,
                Snapshot { state: state.clone(), costs, seq_next, seq_seen, stats },
            );
        }
        state
    }

    /// Records `ops` scalar operations of local compute. A straggler rank
    /// (see [`FaultPlan::with_straggler`]) pays a multiple of every
    /// operation; the extra ops are counted in the fault stats on every
    /// machine, so fault digests line up across backends.
    pub fn compute(&mut self, ops: u64) {
        let mut charged = ops;
        if let Some(st) = &mut self.faults {
            if st.slowdown > 1 {
                let extra = ops.saturating_mul(st.slowdown - 1);
                st.stats.straggler_ops += extra;
                charged += extra;
            }
        }
        self.meter.compute(charged);
    }

    /// Tracks an allocation of `words` words of resident data (blocks,
    /// buffers); feeds the per-rank peak-memory statistic (`M` in Table 2).
    pub fn alloc(&mut self, words: usize) {
        self.meter.alloc(words);
    }

    /// Releases previously tracked words.
    pub fn release(&mut self, words: usize) {
        self.meter.release(words);
    }

    /// Opens a phase span: on a profiled simulator run the guard samples
    /// this rank's clocks, memory and send counters now and again when it
    /// drops, recording the pair in the rank's span ledger; in recorded
    /// runs it echoes `SpanOpen`/`SpanClose` into the comm script. Spans
    /// nest — call `span` again on the returned guard (it derefs to the
    /// endpoint) — and close LIFO.
    ///
    /// Otherwise the guard is free; algorithms instrument themselves
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
    pub fn span(&mut self, name: &'static str, tag: u64) -> SpanGuard<'_, M> {
        let idx = self.meter.span_enter(name, tag);
        self.record(|_| CommEvent::SpanOpen { name });
        SpanGuard { endpoint: self, idx, name }
    }
}

/// RAII guard for an [`Endpoint::span`]. Derefs to the endpoint, so sends,
/// receives, collectives, and nested spans all go through the guard; the
/// span closes when the guard drops.
pub struct SpanGuard<'a, M: Meter> {
    endpoint: &'a mut Endpoint<M>,
    /// Ledger index of the open span; `None` when no ledger is kept.
    idx: Option<usize>,
    /// Span name, echoed into the comm script when one is recorded.
    name: &'static str,
}

impl<M: Meter> std::ops::Deref for SpanGuard<'_, M> {
    type Target = Endpoint<M>;
    fn deref(&self) -> &Endpoint<M> {
        self.endpoint
    }
}

impl<M: Meter> std::ops::DerefMut for SpanGuard<'_, M> {
    fn deref_mut(&mut self) -> &mut Endpoint<M> {
        self.endpoint
    }
}

impl<M: Meter> Drop for SpanGuard<'_, M> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            self.endpoint.meter.span_exit(idx);
        }
        let name = self.name;
        self.endpoint.record(|_| CommEvent::SpanClose { name });
    }
}

/// Marks a rank finished for the governor even when its program unwinds,
/// so peers blocked on it deadlock-detect instead of waiting forever.
struct Finish(Option<Arc<Governor>>, Rank);

impl Drop for Finish {
    fn drop(&mut self) {
        if let Some(gov) = &self.0 {
            gov.finish(self.1);
        }
    }
}

/// One machine epoch: runs `f` on `p` ranks — one scoped thread each over
/// a fresh channel matrix, the endpoint of rank `r` metered by `meter(r)`
/// — under the fault plan when there is one, checkpointing and resuming
/// as `epoch` says, recording into `script`. Returns the run (outputs,
/// the cost report the meters end with, the fault summary) and the meters
/// themselves, in rank order, for whatever else the machine collects.
///
/// # Errors
/// The typed root cause when ranks died of one: a typed abort (thread
/// kill, unrecoverable injected fault, tag mismatch, watchdog hang,
/// governed deadlock) kills its rank with a typed payload and its peers
/// then die on channel disconnect; the join triage surfaces the cause,
/// not the cascade. Handles are joined in rank order, so the lowest
/// faulting rank wins a tie and the surfaced error is deterministic.
///
/// # Panics
/// Re-raises a rank's genuine (string) panic.
pub fn run_epoch<M, T, F>(
    p: usize,
    f: &F,
    plan: Option<&FaultPlan>,
    epoch: Option<&Epoch>,
    script: Option<&Arc<ScriptBoard>>,
    meter: impl Fn(Rank) -> M + Sync,
) -> Result<(MachineRun<T>, Vec<M>), MachineError>
where
    M: Meter + Send,
    T: Send,
    F: Fn(&mut Endpoint<M>) -> T + Sync,
{
    assert!(p >= 1, "need at least one rank");
    install_quiet_typed_panics();
    // wall-clock observability only; inert unless metrics are enabled
    let _machine_wall = apsp_metrics::time_phase("machine-run");
    let watchdog = Arc::new(Watchdog::new(p));
    // channel matrix: tx_rows[src][dst] sends src→dst; each rank takes
    // sole ownership of its row of senders and column of receivers, so
    // a dying rank disconnects its channels (unblocking any peer stuck
    // in recv, which then fails as a cascade victim instead of hanging).
    let mut tx_rows = Vec::with_capacity(p);
    let mut rx_rows: Vec<Vec<_>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
    for _src in 0..p {
        let mut row = Vec::with_capacity(p);
        for rx_row in rx_rows.iter_mut() {
            let (tx, rx) = channel::<Frame<M::Stamp>>();
            row.push(tx);
            rx_row.push(rx);
        }
        tx_rows.push(row);
    }

    // a rank's receiver ports ride along in its outcome so they stay open
    // until every thread has finished: a fault-mode duplicate of a rank's
    // final message may land after that rank's program returns, and must
    // evaporate at a still-open port rather than SendError the sender. A
    // *panicking* rank unwinds before depositing its outcome, so its
    // ports still close and unblock peers stuck in recv.
    let mut results: Vec<Option<_>> = (0..p).map(|_| None).collect();
    let meter = &meter;
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        let ranks = tx_rows.into_iter().zip(rx_rows).zip(results.iter_mut()).enumerate();
        for (rank, ((tx, rx), slot)) in ranks {
            let watchdog = Arc::clone(&watchdog);
            handles.push(scope.spawn(move || {
                let mut endpoint = Endpoint {
                    rank,
                    p,
                    tx,
                    rx,
                    boundary: 0,
                    meter: meter(rank),
                    faults: plan.map(|plan| {
                        let remap = epoch.map_or_else(|| (0..p).collect(), |e| e.remap.clone());
                        let kill_from = plan.kill_boundary(remap[rank]);
                        Box::new(FaultState {
                            slowdown: plan.slowdown(remap[rank]),
                            plan: plan.clone(),
                            epoch: epoch.map_or(0, |e| e.number),
                            remap,
                            kill_from: kill_from.filter(|_| M::KILL_TAKES_THREAD_DOWN),
                            seq_next: vec![1; p],
                            seq_seen: vec![0; p],
                            stats: FaultStats::default(),
                        })
                    }),
                    recovery: epoch.map(|e| e.checkpoints.clone()),
                    watchdog,
                    script: script.cloned(),
                };
                let _finish = Finish(endpoint.meter.governor().cloned(), rank);
                let out = f(&mut endpoint);
                let Endpoint { meter, faults, rx, .. } = endpoint;
                *slot = Some((out, meter, faults.map(|st| st.stats), rx));
            }));
        }
        let mut panics = Vec::new();
        for handle in handles {
            if let Err(payload) = handle.join() {
                panics.push(payload);
            }
        }
        if panics.is_empty() {
            return Ok(());
        }
        if let Some(err) = classify_panics(&panics, plan.is_some()) {
            return Err(err);
        }
        surface_root_cause(panics);
    })?;

    let mut outs = Vec::with_capacity(p);
    let mut meters = Vec::with_capacity(p);
    let mut fault_ranks = Vec::with_capacity(p);
    for outcome in results {
        let (out, meter, stats, _ports) =
            outcome.expect("rank completed without depositing an outcome");
        outs.push(out);
        meters.push(meter);
        fault_ranks.extend(stats);
    }
    let report = RunReport { per_rank: meters.iter().map(Meter::costs).collect(), profile: None };
    let faults = plan.is_some().then_some(FaultSummary { per_rank: fault_ranks, unrecoverable: 0 });
    // observability counters read the finished aggregates; the §3.1
    // ledgers above are already sealed by this point
    crate::perf::record_run(&report, faults.as_ref());
    let run = MachineRun {
        outs,
        report,
        faults,
        recovery: None,
        scripts: Vec::new(),
        traces: Vec::new(),
    };
    Ok((run, meters))
}
