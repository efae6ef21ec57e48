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
//! ([`run_epoch`]: one inbox per rank, the rank-thread pool, rank-order
//! triage of the outcomes, cascade handling) — is written once, here and
//! in [`crate::pool`], against the [`crate::sync`] shim, so `--cfg loom`
//! builds model-check the code that runs.

use crate::cascade::{classify_panics, install_quiet_typed_panics, surface_root_cause, Disconnect};
use crate::comm::{MachineRun, Rank};
use crate::faults::{checksum, FaultError, FaultPlan, FaultStats, FaultSummary, Injection};
use crate::pool;
use crate::recovery::{Checkpoints, Epoch, HangError, MachineError, ProtocolError, RankDown};
use crate::report::{Clocks, RankStats, RunReport};
use crate::sched::Governor;
use crate::script::{CollectiveKind, CommEvent, ScriptBoard};
use crate::snapshot::Snapshot;
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use crate::sync::{Arc, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Duration;

/// What a machine supplies to the shared [`Endpoint`]: its cost
/// accounting. Every hook defaults to "no cost model", so a machine that
/// only moves messages implements [`Meter::on_wire`] and nothing else.
/// The endpoint is monomorphised per meter — a hook that does nothing
/// compiles to nothing.
pub trait Meter: Sized {
    /// What a frame carries from the sender's meter to the receiver's.
    type Stamp: Send;

    /// What a `kill=R[@B]` rule does to rank R: `true` unwinds R's
    /// program with a typed [`RankDown`] at its next communication
    /// attempt from boundary B on; `false` leaves the program running and
    /// the kill manifests as R's messages being dropped
    /// ([`FaultPlan::injection_at`]).
    const KILL_UNWINDS_RANK: bool = false;

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
    /// Per-`(src, dst)` sequence number, starting at 1 (0 = no fault
    /// layer).
    seq: u64,
    /// [`checksum`] of the payload at send time (fault mode only).
    sum: u64,
    stamp: S,
}

/// What lands in a rank's inbox, with its source: a frame, or `None` once
/// the source's program unwound — its hang-up notice, which arrives
/// behind every frame it sent.
type Mail<S> = (Rank, Option<Frame<S>>);

/// Machine-wide hang detection, shared by every rank of one run: any send
/// or completed receive bumps `progress`; a rank blocked in a receive
/// while `progress` stays flat for the whole window declares the machine
/// hung and aborts with a [`HangError`] dump of the `blocked` registry.
struct Watchdog {
    progress: AtomicU64,
    /// `blocked[rank] = Some((src, tag))` while `rank` waits in a receive
    /// (`src == rank` marks a wildcard wait).
    blocked: Mutex<Vec<Option<(Rank, u64)>>>,
    /// `returned[rank]`: `rank`'s program returned, so nothing more will
    /// come from it — a receive naming it with nothing pending is a hang.
    returned: Vec<AtomicBool>,
    /// `APSP_WATCHDOG_MS`, or 5000 ms of machine-wide inactivity.
    /// Wall-clock time only arms the detector — simulated costs never
    /// depend on it, so determinism is unaffected.
    window_ms: u64,
}

impl Watchdog {
    fn new(p: usize) -> Self {
        let window_ms =
            std::env::var("APSP_WATCHDOG_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(5000);
        Watchdog {
            progress: AtomicU64::new(0),
            blocked: Mutex::new(vec![None; p]),
            returned: (0..p).map(|_| AtomicBool::new(false)).collect(),
            window_ms,
        }
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
    /// On machines whose kill rules unwind the rank: the boundary from
    /// which this rank's next communication attempt kills it.
    kill_from: Option<u64>,
    /// Next sequence number per destination.
    seq_next: Vec<u64>,
    /// Highest accepted sequence number per source.
    seq_seen: Vec<u64>,
    stats: FaultStats,
}

/// A rank's handle to its machine: point-to-point messaging, cost
/// charging, phase commits and spans. The collectives are `Transport`
/// methods (`apsp-transport`), built from these sends and receives.
pub struct Endpoint<M: Meter> {
    rank: Rank,
    p: usize,
    /// The senders into every rank's inbox, by rank.
    tx: Arc<[Sender<Mail<M::Stamp>>]>,
    /// This rank's one inbox: every peer's mail, each peer's in send order.
    inbox: Receiver<Mail<M::Stamp>>,
    /// Frames taken from the inbox ahead of the receive that names their
    /// source, per source, oldest first.
    pending: Vec<VecDeque<Frame<M::Stamp>>>,
    /// `hung_up[src]`: `src`'s program unwound, and everything it sent is
    /// in `pending[src]` or already received.
    hung_up: Vec<bool>,
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

    /// Fault-plan rank kill: once this rank's boundary counter reaches its
    /// `kill=R[@B]` trigger, the next communication attempt unwinds the
    /// rank's program with a typed [`RankDown`] payload. Checked at
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
        let frame = Frame { tag, payload, seq, sum, stamp };
        if self.tx[dst].send((self.rank, Some(frame))).is_err() {
            // the receiver's program already unwound, closing its inbox;
            // die as a silenced cascade victim so that error surfaces
            std::panic::panic_any(Disconnect { rank: self.rank, peer: dst, tag });
        }
        // a send is machine progress: any rank still moving holds off
        // every rank's watchdog
        self.watchdog.progress.fetch_add(1, Ordering::Relaxed);
        // mirror the wire *after* the inbox send, so a governor grant
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

    /// Receives the next message from `src` (FIFO per source; blocks).
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
    /// per source, so their delivery order is fixed by the program).
    ///
    /// Under [`crate::Machine::run_governed`] the delivery order is
    /// resolved by the schedule, making runs replayable and explorable;
    /// in ungoverned runs it takes the lowest source's pending frame, or
    /// else waits for the next frame into the inbox, so the winner depends
    /// on wall-clock arrival order — exactly the nondeterminism hazard the
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

    /// Pulls the next physical arrival — from `src`, or from any source for
    /// a wildcard receive — and charges it to this rank's port.
    ///
    /// Governed runs sequence delivery through the governor, which
    /// detects deadlock structurally. Otherwise the wait arms the
    /// watchdog: it is chopped into short ticks, local idle time only
    /// accumulates while *no* rank makes progress, and when it exceeds
    /// the watchdog window the rank aborts with a typed [`HangError`] —
    /// a schedule bug hangs a test run no longer.
    fn wire_recv(&mut self, src: Option<Rank>, tag: u64) -> (Rank, Frame<M::Stamp>) {
        let granted = self.meter.governor().map(|gov| {
            gov.acquire(self.rank, src, tag)
                .unwrap_or_else(|deadlock| std::panic::panic_any(deadlock))
        });
        let arrival = match granted {
            Some(src) => (src, self.granted(src)),
            None => self.watched_recv(src, tag),
        };
        self.meter.arrived(arrival.1.payload.len(), &arrival.1.stamp);
        arrival
    }

    /// The frame a governor grant for `src` names. A grant guarantees the
    /// message is already deposited, so this only files what the inbox
    /// holds ahead of it.
    fn granted(&mut self, src: Rank) -> Frame<M::Stamp> {
        loop {
            if let Some(frame) = self.pending[src].pop_front() {
                return frame;
            }
            let mail = self.inbox.recv().expect("a rank's own sender keeps its inbox open");
            self.file(mail);
        }
    }

    /// Files a piece of mail under its source.
    fn file(&mut self, (src, mail): Mail<M::Stamp>) {
        match mail {
            Some(frame) => self.pending[src].push_back(frame),
            None => self.hung_up[src] = true,
        }
    }

    /// Files everything already in the inbox, without waiting.
    fn drain(&mut self) {
        while let Ok(mail) = self.inbox.try_recv() {
            self.file(mail);
        }
    }

    /// The oldest pending frame from `src`, or, for a wildcard, from the
    /// lowest source holding one.
    fn take_pending(&mut self, src: Option<Rank>) -> Option<(Rank, Frame<M::Stamp>)> {
        let src = match src {
            Some(src) => src,
            None => self.pending.iter().position(|queue| !queue.is_empty())?,
        };
        self.pending[src].pop_front().map(|frame| (src, frame))
    }

    /// The ungoverned wait of [`Endpoint::wire_recv`], under the watchdog:
    /// pending frames first, then the inbox, filing other sources' frames
    /// as they come. A named source that hung up with nothing left makes
    /// this rank a cascade victim at once; one that returned with nothing
    /// left is a hang, declared at the next tick.
    fn watched_recv(&mut self, src: Option<Rank>, tag: u64) -> (Rank, Frame<M::Stamp>) {
        let window_ms = self.watchdog.window_ms;
        let tick_ms = (window_ms / 5).clamp(1, 50);
        let tick = Duration::from_millis(tick_ms);
        // what the blocked registry shows: a wildcard wait marks itself
        let blocked_on = (src.unwrap_or(self.rank), tag);
        let mut registered = false;
        let mut idle = 0u64;
        let mut last_progress = self.watchdog.progress.load(Ordering::Relaxed);
        loop {
            let arrival = match self.take_pending(src) {
                Some(arrival) => Some(arrival),
                None => {
                    if let Some(peer) = src.filter(|&peer| self.hung_up[peer]) {
                        // the peer's program unwound before sending what
                        // this rank waits for: a cascade victim of a
                        // root-cause panic over there. Die with a typed
                        // marker so the root cause is surfaced instead.
                        std::panic::panic_any(Disconnect { rank: self.rank, peer, tag });
                    }
                    match self.inbox.recv_timeout(tick) {
                        Ok((from, Some(frame))) if src.is_none_or(|src| src == from) => {
                            Some((from, frame))
                        }
                        Ok(mail) => {
                            self.file(mail);
                            continue;
                        }
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => {
                            unreachable!("a rank's own sender keeps its inbox open")
                        }
                    }
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
            if let Some(peer) =
                src.filter(|&peer| self.watchdog.returned[peer].load(Ordering::Acquire))
            {
                // everything the peer sent is in the inbox by now
                self.drain();
                if self.pending[peer].is_empty() {
                    self.hang(blocked_on);
                }
                continue;
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
    /// up to 16 messages delivered to this rank but never asked for, by
    /// source.
    fn hang(&mut self, (src, tag): (Rank, u64)) -> ! {
        let blocked = self.watchdog.blocked.lock().expect("watchdog registry").clone();
        self.drain();
        let pending = self
            .pending
            .iter()
            .enumerate()
            .flat_map(|(peer, queue)| queue.iter().map(move |f| (peer, f.tag, f.payload.len())))
            .take(16)
            .collect();
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
                "per-source FIFO delivers sequence numbers in order"
            );
            *seen = frame.seq;
            return frame;
        }
    }

    /// Fails loudly on a tag mismatch, naming the endpoints, both tags,
    /// and up to 8 still-pending messages from the same source. The abort
    /// is a typed [`ProtocolError`] (whose `Display` carries the same
    /// diagnostic) so the recovery supervisor routes it like any other
    /// machine error.
    fn check_tag(&mut self, src: Rank, expected: u64, actual: u64) {
        if actual == expected {
            return;
        }
        self.drain();
        let pending = self.pending[src]
            .iter()
            .take(8)
            .map(|frame| (frame.tag, frame.payload.len()))
            .collect();
        std::panic::panic_any(ProtocolError { rank: self.rank, src, expected, actual, pending });
    }

    /// Closes this rank after its program unwound: each peer gets a hang-up
    /// notice behind the frames already sent to it, so a peer waiting on
    /// this rank dies promptly as a cascade victim, and the inbox drops
    /// with the endpoint, so a later send here makes its sender one too.
    fn hang_up(self) {
        for (peer, tx) in self.tx.iter().enumerate() {
            if peer != self.rank {
                // a peer whose own program unwound has no inbox left
                let _ = tx.send((self.rank, None));
            }
        }
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

/// One machine epoch: runs `f` on `p` ranks — each on a parked worker of
/// the rank-thread pool ([`crate::pool`]) with a fresh inbox, the endpoint
/// of rank `r` metered by `meter(r)` — under the fault plan when there is
/// one, checkpointing and resuming as `epoch` says, recording into
/// `script`. Returns the run (outputs, the cost report the meters end
/// with, the fault summary) and the meters themselves, in rank order, for
/// whatever else the machine collects.
///
/// # Errors
/// The typed root cause when ranks died of one: a typed abort (rank kill,
/// unrecoverable injected fault, tag mismatch, watchdog hang, governed
/// deadlock) unwinds its rank's program with a typed payload, the rank
/// hangs up, and its peers then die as cascade victims; the triage
/// surfaces the cause, not the cascade. Outcomes are triaged in rank
/// order, so the lowest faulting rank wins a tie and the surfaced error
/// is deterministic.
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
    // one inbox per rank; every endpoint holds the senders into all of them
    let (senders, inboxes): (Vec<_>, Vec<_>) = (0..p).map(|_| channel::<Mail<M::Stamp>>()).unzip();
    let senders: Arc<[_]> = senders.into();
    let meter = &meter;
    let ranks: Vec<_> = inboxes
        .into_iter()
        .enumerate()
        .map(|(rank, inbox)| {
            let (tx, watchdog) = (Arc::clone(&senders), Arc::clone(&watchdog));
            move || {
                let mut endpoint = Endpoint {
                    rank,
                    p,
                    tx,
                    inbox,
                    pending: (0..p).map(|_| VecDeque::new()).collect(),
                    hung_up: vec![false; p],
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
                            kill_from: kill_from.filter(|_| M::KILL_UNWINDS_RANK),
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
                let out = match catch_unwind(AssertUnwindSafe(|| f(&mut endpoint))) {
                    Ok(out) => out,
                    Err(payload) => {
                        endpoint.hang_up();
                        resume_unwind(payload)
                    }
                };
                // (under the model time does not pass, so the watchdog
                // window already ends at the first stalled tick: this
                // shortcut stays out of the schedule tree)
                #[cfg(not(loom))]
                endpoint.watchdog.returned[rank].store(true, Ordering::Release);
                // the inbox rides in the outcome, open until every rank has
                // finished: a fault-mode duplicate of a peer's last message
                // may still land here, and must evaporate rather than make
                // its sender a cascade victim
                let Endpoint { meter, faults, inbox, .. } = endpoint;
                (out, meter, faults.map(|st| st.stats), inbox)
            }
        })
        .collect();
    drop(senders);

    let mut outcomes = Vec::with_capacity(p);
    let mut panics = Vec::new();
    for outcome in pool::run(ranks) {
        match outcome {
            Ok(outcome) => outcomes.push(outcome),
            Err(payload) => panics.push(payload),
        }
    }
    if !panics.is_empty() {
        if let Some(err) = classify_panics(&panics, plan.is_some()) {
            return Err(err);
        }
        surface_root_cause(panics);
    }

    let mut outs = Vec::with_capacity(p);
    let mut meters = Vec::with_capacity(p);
    let mut fault_ranks = Vec::with_capacity(p);
    for (out, meter, stats, _inbox) in outcomes {
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
