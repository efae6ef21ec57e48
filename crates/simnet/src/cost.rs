//! The §3.1 bill as a pure function of the event log.
//!
//! A rank's endpoint logs what happens to it ([`CommEvent`]); [`fold`]
//! replays the logs of one run and charges them by the paper's rules:
//!
//! * a physical attempt on the wire, delivered or lost, costs its sender
//!   `(1 message, w words)` and counts as a send;
//! * a physical arrival — accepted or discarded — moves the receiver to
//!   `max(own + (1, w), sender-after-send)` component-wise, where the
//!   sender's clocks are those right after the matching attempt, plus its
//!   injected delay on the latency clock; arrivals match attempts FIFO per
//!   `(src, dst)`, as the machine delivers them;
//! * a backoff adds its units to latency, compute adds its ops, a
//!   snapshot or restore of `w` state words costs `(1, w)`, and a restore
//!   first puts back the bill the fold saved at that boundary;
//! * alloc and release move the resident words and their peak.
//!
//! The maximum over ranks at the end is the critical-path cost: two
//! messages between separate pairs of ranks at the same time count once.
//! The fold is sequential and allocation-light: it steps each rank through
//! its log and parks a rank at an arrival whose attempt its sender has not
//! reached yet, so it never waits and never guesses.

use crate::comm::Rank;
use crate::report::{Clocks, RankStats, RunReport};
use crate::script::CommEvent;
use crate::trace::{Profile, RankProfile, SendTotal, SpanLedger, SpanSnapshot, TraceEvent};
use std::collections::{BTreeMap, VecDeque};

/// Why a set of logs cannot be the logs of one run. Ranks are log
/// indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogError {
    /// Rank `.0` names rank `.1`, which the run does not have.
    NoSuchRank(Rank, Rank),
    /// Rank `.0` has an arrival from `.1`, whose log ends without another
    /// attempt to it.
    NoSend(Rank, Rank),
    /// Every rank still to go waits on an arrival from another that waits
    /// too: `(rank, src)` pairs in rank order.
    Cycle(Vec<(Rank, Rank)>),
    /// Rank `.0` takes `.3` words from `.1`, whose attempt carried `.2`.
    Words(Rank, Rank, usize, usize),
    /// Rank `.0` restores boundary `.1`, at which no snapshot was folded.
    NoSnapshot(Rank, u64),
    /// Rank `.0` closes a span none opened.
    SpanClose(Rank),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoSuchRank(r, peer) => write!(f, "rank {r} names rank {peer}"),
            Self::NoSend(r, src) => {
                write!(f, "rank {r} receives from {src}, which sends it no more")
            }
            Self::Cycle(waits) => {
                let waits: Vec<String> = waits.iter().map(|(r, s)| format!("{r}⇐{s}")).collect();
                write!(f, "ranks wait on each other: [{}]", waits.join(", "))
            }
            Self::Words(r, src, sent, got) => {
                write!(f, "rank {r} takes {got} words from {src}, which sent {sent}")
            }
            Self::NoSnapshot(r, b) => write!(f, "rank {r} restores boundary {b}, never saved"),
            Self::SpanClose(r) => write!(f, "rank {r} closes a span none opened"),
        }
    }
}

impl std::error::Error for LogError {}

/// What a restore resumes from: per rank, per boundary, the bill and the
/// commit clocks right after the snapshot there. A supervised launch keeps
/// one across its epochs; each epoch's fold adds its snapshots.
pub(crate) type Saved = Vec<BTreeMap<u64, (RankStats, Vec<Clocks>)>>;

/// The bill of one run: its report, with the span ledgers, per-message
/// records and comm matrix when `profile` is set.
///
/// # Errors
/// A [`LogError`] when the logs cannot be one run's — an arrival with no
/// attempt, ranks that each receive first, a word count that changed on
/// the way, a restore the logs never saved.
pub fn fold(logs: &[Vec<CommEvent>], profile: bool) -> Result<RunReport, LogError> {
    fold_epoch(logs, profile, &mut Saved::default())
}

/// [`fold`] for one epoch of a supervised launch: restores read `saved`,
/// snapshots write it.
pub(crate) fn fold_epoch(
    logs: &[Vec<CommEvent>],
    profile: bool,
    saved: &mut Saved,
) -> Result<RunReport, LogError> {
    let p = logs.len();
    saved.resize_with(p, BTreeMap::new);
    let rank = || RankFold { p, profile: profile.then(Default::default), ..Default::default() };
    let mut ranks: Vec<RankFold> = (0..p).map(|_| rank()).collect();
    // attempts on the wire and not yet arrived, per destination in wire
    // order: (src, words, the sender's clocks it arrives no earlier than)
    let mut wires: Vec<Wires> = vec![VecDeque::new(); p];
    let mut ready: Vec<Rank> = (0..p).rev().collect();
    while let Some(r) = ready.pop() {
        while let Some(ev) = logs[r].get(ranks[r].next) {
            match ranks[r].step(r, ev, &mut wires, &mut saved[r])? {
                Step::Next => {}
                Step::Wait(src) => {
                    ranks[r].waiting = Some(src);
                    break;
                }
                Step::Wire(dst) if ranks[dst].waiting == Some(r) => {
                    ranks[dst].waiting = None;
                    ready.push(dst);
                }
                Step::Wire(_) => {}
            }
            ranks[r].next += 1;
        }
    }
    let mut waits = Vec::new();
    for (r, rank) in ranks.iter().enumerate() {
        if let Some(src) = rank.waiting {
            if ranks[src].next == logs[src].len() {
                return Err(LogError::NoSend(r, src));
            }
            waits.push((r, src));
        }
    }
    if !waits.is_empty() {
        return Err(LogError::Cycle(waits));
    }
    let commits = ranks.iter_mut().map(|rank| std::mem::take(&mut rank.commits)).collect();
    let per_rank = ranks.iter().map(|rank| rank.stats).collect();
    let profiles: Option<Vec<RankProfile>> = ranks.into_iter().map(RankFold::finish).collect();
    Ok(RunReport { per_rank, profile: profiles.map(Profile::from_ranks), commits })
}

/// The attempts on the wire to one rank: `(src, words, clocks)`.
type Wires = VecDeque<(Rank, usize, Clocks)>;

/// What folding one event asks of the loop.
enum Step {
    /// Go on with the next event.
    Next,
    /// Park the rank until `.0` puts the attempt it waits for on the wire.
    Wait(Rank),
    /// An attempt went on the wire to `.0`, which may wait for it.
    Wire(Rank),
}

/// One rank's place in the fold.
#[derive(Default)]
struct RankFold {
    /// Rank count of the run.
    p: usize,
    stats: RankStats,
    /// Clocks at each commit so far.
    commits: Vec<Clocks>,
    /// The boundary of the last commit.
    boundary: u64,
    /// Index of the next event to fold.
    next: usize,
    /// The sender whose attempt the next event, an arrival, waits for.
    waiting: Option<Rank>,
    /// The tag of the next span to open.
    span_tag: u64,
    /// Per-message records, span ledger and open spans, when profiled.
    profile: Option<(Vec<TraceEvent>, SpanLedger, Vec<usize>)>,
}

impl RankFold {
    /// Folds rank `r`'s event `ev`, unless it is an arrival whose attempt
    /// is not on the wire yet.
    fn step(
        &mut self,
        r: Rank,
        ev: &CommEvent,
        wires: &mut [Wires],
        saved: &mut BTreeMap<u64, (RankStats, Vec<Clocks>)>,
    ) -> Result<Step, LogError> {
        let peer = match *ev {
            CommEvent::Wire { dst, .. } | CommEvent::Lost { dst, .. } => dst,
            CommEvent::Arrived { src, .. } => src,
            _ => r,
        };
        if peer >= self.p {
            return Err(LogError::NoSuchRank(r, peer));
        }
        match *ev {
            CommEvent::Wire { dst, tag, words, delay } => {
                self.send(r, dst, tag, words);
                let mut at = self.stats.clocks;
                at.latency += delay;
                wires[dst].push_back((r, words, at));
                return Ok(Step::Wire(dst));
            }
            CommEvent::Lost { dst, tag, words } => self.send(r, dst, tag, words),
            CommEvent::Arrived { src, words } => {
                // the oldest attempt from `src`: FIFO per (src, dst)
                let queue = &mut wires[r];
                let Some((_, sent, at)) =
                    queue.iter().position(|w| w.0 == src).and_then(|i| queue.remove(i))
                else {
                    return Ok(Step::Wait(src));
                };
                if sent != words {
                    return Err(LogError::Words(r, src, sent, words));
                }
                // §3.1 assumption (2): the receive occupies this rank's port
                // for (1, w), and the message arrives no earlier than its
                // sender put it on the wire
                let c = &mut self.stats.clocks;
                c.latency = (c.latency + 1).max(at.latency);
                c.bandwidth = (c.bandwidth + words as u64).max(at.bandwidth);
                c.compute = c.compute.max(at.compute);
            }
            CommEvent::Backoff { units } => self.stats.clocks.latency += units,
            CommEvent::Compute { ops } => self.stats.clocks.compute += ops,
            CommEvent::Alloc { words } => {
                let s = &mut self.stats;
                s.resident_words += words as u64;
                s.peak_words = s.peak_words.max(s.resident_words);
            }
            CommEvent::Release { words } => {
                let s = &mut self.stats;
                s.resident_words = s.resident_words.saturating_sub(words as u64);
            }
            CommEvent::Commit { boundary } => {
                self.boundary = boundary;
                self.commits.push(self.stats.clocks);
            }
            CommEvent::Save { words } => {
                // charged before it is saved, so a restore resumes past it
                self.checkpoint(words);
                saved.insert(self.boundary, (self.stats, self.commits.clone()));
            }
            CommEvent::Restore { words } => {
                let boundary = self.boundary;
                let Some((stats, commits)) = saved.get(&boundary) else {
                    return Err(LogError::NoSnapshot(r, boundary));
                };
                (self.stats, self.commits) = (*stats, commits.clone());
                self.checkpoint(words);
            }
            CommEvent::SpanTag { tag } => self.span_tag = tag,
            CommEvent::SpanOpen { name } => self.span_open(name),
            CommEvent::SpanClose { .. } => self.span_close(r)?,
            CommEvent::Send { .. } | CommEvent::Recv { .. } | CommEvent::Collective { .. } => {}
        }
        Ok(Step::Next)
    }

    /// One physical attempt, delivered or lost.
    fn send(&mut self, src: Rank, dst: Rank, tag: u64, words: usize) {
        let s = &mut self.stats;
        s.clocks.latency += 1;
        s.clocks.bandwidth += words as u64;
        s.sent_messages += 1;
        s.sent_words += words as u64;
        if let Some((events, ..)) = &mut self.profile {
            events.push(TraceEvent { src, dst, words, tag, clocks: s.clocks });
        }
    }

    /// One snapshot or restore of `words` state words.
    fn checkpoint(&mut self, words: usize) {
        self.stats.clocks.latency += 1;
        self.stats.clocks.bandwidth += words as u64;
    }

    fn at(&self) -> SpanSnapshot {
        SpanSnapshot {
            clocks: self.stats.clocks,
            resident_words: self.stats.resident_words,
            sent_messages: self.stats.sent_messages,
            sent_words: self.stats.sent_words,
        }
    }

    fn span_open(&mut self, name: &'static str) {
        let (at, tag) = (self.at(), self.span_tag);
        if let Some((_, ledger, open)) = &mut self.profile {
            open.push(ledger.enter(name, tag, at));
        }
    }

    fn span_close(&mut self, rank: Rank) -> Result<(), LogError> {
        let at = self.at();
        if let Some((_, ledger, open)) = &mut self.profile {
            let idx = open.pop().ok_or(LogError::SpanClose(rank))?;
            ledger.exit(idx, at);
        }
        Ok(())
    }

    /// The rank's profile, when the fold keeps one: its ledger, its sent
    /// messages and their per-`(dst, tag)` totals.
    fn finish(self) -> Option<RankProfile> {
        let (events, ledger, _) = self.profile?;
        let mut sends: BTreeMap<(Rank, u64), (u64, u64)> = BTreeMap::new();
        for e in &events {
            let total = sends.entry((e.dst, e.tag)).or_default();
            total.0 += 1;
            total.1 += e.words as u64;
        }
        let sends = sends
            .into_iter()
            .map(|((dst, tag), (messages, words))| SendTotal { dst, tag, messages, words })
            .collect();
        Some(RankProfile { ledger, sends, events, final_clocks: self.stats.clocks })
    }
}

// The fold's own contract. The `fold_` tests are pure — no machine, no
// threads — so they also run under miri; the one that runs a machine pins
// the log the fold reads.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::{Comm, Machine, MachineSpec};

    /// Two rounds of 0 → 1 (three words) and 1 → 0 (one word).
    fn ping_pong(comm: &mut Comm) {
        for round in 0..2 {
            if comm.rank() == 0 {
                comm.send(1, 2 * round + 1, vec![1.0, 2.0, 3.0]);
                assert_eq!(comm.recv(1, 2 * round + 2), vec![9.0]);
            } else {
                assert_eq!(comm.recv(0, 2 * round + 1), vec![1.0, 2.0, 3.0]);
                comm.send(0, 2 * round + 2, vec![9.0]);
            }
        }
    }

    fn plan() -> FaultPlan {
        FaultPlan::new(1040).with_drop(0.3).with_dup(0.3).with_corrupt(0.3).with_delay(0.5, 3)
    }

    /// [`ping_pong`]'s log under [`plan`]: a corrupted attempt, a
    /// backoff, a lost attempt, a longer backoff and the clean attempt;
    /// two delayed attempts; a duplicate, discarded at the next receive.
    fn ping_pong_log() -> Vec<Vec<CommEvent>> {
        use CommEvent::*;
        let send = |dst, tag, words| Send { dst, tag, words, phase: 0 };
        let recv = |src, tag, words| Recv { src, tag, words, phase: 0 };
        vec![
            vec![
                send(1, 1, 3),
                Wire { dst: 1, tag: 1, words: 3, delay: 0 },
                Backoff { units: 2 },
                Lost { dst: 1, tag: 1, words: 3 },
                Backoff { units: 4 },
                Wire { dst: 1, tag: 1, words: 3, delay: 0 },
                Arrived { src: 1, words: 1 },
                recv(1, 2, 1),
                send(1, 3, 3),
                Wire { dst: 1, tag: 3, words: 3, delay: 3 },
                Arrived { src: 1, words: 1 },
                Arrived { src: 1, words: 1 },
                recv(1, 4, 1),
            ],
            vec![
                Arrived { src: 0, words: 3 },
                Arrived { src: 0, words: 3 },
                recv(0, 1, 3),
                send(0, 2, 1),
                Wire { dst: 0, tag: 2, words: 1, delay: 3 },
                Wire { dst: 0, tag: 2, words: 1, delay: 3 },
                Arrived { src: 0, words: 3 },
                recv(0, 3, 3),
                send(0, 4, 1),
                Wire { dst: 0, tag: 4, words: 1, delay: 0 },
            ],
        ]
    }

    /// The bill of [`ping_pong_log`], worked by hand: rank 0's second
    /// attempt leaves at (9, 9) after 2 + 4 backoff units; rank 1's reply
    /// and its duplicate carry 3 units of delay; the last arrivals bring
    /// both ranks to (18, 15).
    fn ping_pong_bill() -> Vec<RankStats> {
        let clocks = Clocks { latency: 18, bandwidth: 15, compute: 0 };
        let stats = |sent_messages, sent_words| RankStats {
            clocks,
            sent_messages,
            sent_words,
            ..Default::default()
        };
        vec![stats(4, 12), stats(3, 3)]
    }

    #[test]
    fn ping_pong_logs_every_attempt_arrival_and_backoff() {
        let plan = plan();
        let spec = MachineSpec { faults: Some(&plan), record: true, ..Default::default() };
        let run = Machine::launch(2, &spec, ping_pong).expect("recoverable plan");
        let t = run.faults.expect("faulty run").totals();
        assert_eq!(
            (t.drops_injected, t.duplicates_injected, t.corruptions_injected, t.delays_injected),
            (1, 1, 1, 2),
            "the plan exercises all four"
        );
        assert_eq!(run.scripts, ping_pong_log());
        assert_eq!(run.report.per_rank, ping_pong_bill());
    }

    #[test]
    fn fold_bills_the_pinned_ping_pong() {
        let report = fold(&ping_pong_log(), true).expect("a real log");
        assert_eq!(report.per_rank, ping_pong_bill());
        let profile = report.profile.expect("profiled");
        // every attempt is a sent message, the lost one included
        assert_eq!(profile.comm_matrix.messages(0, 1), 4);
        assert_eq!(profile.comm_matrix.words(1, 0), 3);
        let first = profile.per_rank[0].events[0];
        assert_eq!(first.clocks, Clocks { latency: 1, bandwidth: 3, compute: 0 });
    }

    #[test]
    fn fold_refuses_a_receive_with_no_send() {
        let logs = vec![vec![], vec![CommEvent::Arrived { src: 0, words: 1 }]];
        assert_eq!(fold(&logs, false).unwrap_err(), LogError::NoSend(1, 0));
    }

    #[test]
    fn fold_refuses_ranks_that_each_receive_first() {
        let log = |peer| {
            vec![
                CommEvent::Arrived { src: peer, words: 1 },
                CommEvent::Wire { dst: peer, tag: 0, words: 1, delay: 0 },
            ]
        };
        let err = fold(&[log(1), log(0)], false).unwrap_err();
        assert_eq!(err, LogError::Cycle(vec![(0, 1), (1, 0)]));
        assert_eq!(err.to_string(), "ranks wait on each other: [0⇐1, 1⇐0]");
    }

    #[test]
    fn fold_refuses_an_arrival_of_another_size() {
        let logs = vec![
            vec![CommEvent::Wire { dst: 1, tag: 0, words: 3, delay: 0 }],
            vec![CommEvent::Arrived { src: 0, words: 2 }],
        ];
        let err = fold(&logs, false).unwrap_err();
        assert_eq!(err, LogError::Words(1, 0, 3, 2));
    }

    #[test]
    fn fold_refuses_unknown_ranks_unsaved_restores_and_stray_closes() {
        let logs = vec![vec![CommEvent::Lost { dst: 5, tag: 0, words: 1 }]];
        assert_eq!(fold(&logs, false).unwrap_err(), LogError::NoSuchRank(0, 5));
        let logs = vec![vec![CommEvent::Commit { boundary: 1 }, CommEvent::Restore { words: 1 }]];
        let err = fold(&logs, false).unwrap_err();
        assert_eq!(err, LogError::NoSnapshot(0, 1));
        let logs = vec![vec![CommEvent::SpanClose { name: "level" }]];
        assert_eq!(fold(&logs, true).unwrap_err(), LogError::SpanClose(0));
    }

    #[test]
    fn fold_resumes_a_restore_from_the_saved_bill() {
        let mut saved = Saved::default();
        let first = vec![vec![
            CommEvent::Compute { ops: 5 },
            CommEvent::Commit { boundary: 1 },
            CommEvent::Save { words: 2 },
            CommEvent::Compute { ops: 7 },
        ]];
        let report = fold_epoch(&first, false, &mut saved).expect("a real log");
        assert_eq!(report.per_rank[0].clocks, Clocks { latency: 1, bandwidth: 2, compute: 12 });
        // the replay skips to boundary 1: what it did before the restore
        // is overwritten by the bill saved there, plus the restore's own
        let replay = vec![vec![
            CommEvent::Alloc { words: 4 },
            CommEvent::Commit { boundary: 1 },
            CommEvent::Restore { words: 2 },
            CommEvent::Compute { ops: 1 },
        ]];
        let report = fold_epoch(&replay, false, &mut saved).expect("a real log");
        assert_eq!(report.per_rank[0].clocks, Clocks { latency: 2, bandwidth: 4, compute: 6 });
        assert_eq!(report.per_rank[0].peak_words, 0);
        assert_eq!(report.commits, vec![vec![Clocks { latency: 0, bandwidth: 0, compute: 5 }]]);
    }
}
