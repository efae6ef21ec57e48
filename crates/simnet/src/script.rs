//! Comm-script recording: per-rank communication event logs for the
//! protocol verifier (`apsp-verify`).
//!
//! A recorded run ([`MachineSpec::record`](crate::MachineSpec::record),
//! or [`run_epoch`](crate::run_epoch) handed a board) pushes one
//! [`CommEvent`] per *logical* communication operation into a shared
//! [`ScriptBoard`]. Recording observes the machine without perturbing it:
//! no clock, counter, or ledger is touched, so a recorded run's §3.1 cost
//! report is byte-identical to a plain run's (test-pinned in
//! `tests/verification.rs`).
//!
//! Events are logical, not physical: a fault-mode retransmission is one
//! `Send`, a collective is one `Collective` entry per member (its internal
//! tree messages are also recorded as `Send`/`Recv`, which is what the
//! matching invariant checks).

use crate::comm::Rank;
use std::sync::Mutex;

/// Which collective a rank entered — the `Transport` method of that name
/// in `apsp-transport`, where the collectives live.
/// `reduce_min` records as [`CollectiveKind::Reduce`] (it delegates).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CollectiveKind {
    /// `Transport::bcast`
    Bcast,
    /// `Transport::reduce`
    Reduce,
    /// `Transport::gather`
    Gather,
    /// `Transport::scatter`
    Scatter,
    /// `Transport::barrier`
    Barrier,
    /// `Transport::allgather`
    Allgather,
    /// `Transport::allreduce`
    Allreduce,
}

impl std::fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            CollectiveKind::Bcast => "bcast",
            CollectiveKind::Reduce => "reduce",
            CollectiveKind::Gather => "gather",
            CollectiveKind::Scatter => "scatter",
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::Allgather => "allgather",
            CollectiveKind::Allreduce => "allreduce",
        };
        f.write_str(name)
    }
}

/// One logical communication event in a rank's comm script.
///
/// `phase` is the rank's committed-boundary count at the time of the
/// event: a matched send/recv pair with differing phases is a message
/// crossing a checkpoint cut (the quiescence invariant).
#[derive(Clone, Debug, PartialEq)]
pub enum CommEvent {
    /// One logical point-to-point send (retransmissions collapse).
    Send {
        /// Destination rank.
        dst: Rank,
        /// Message tag.
        tag: u64,
        /// Payload size in words.
        words: usize,
        /// Committed boundaries at send time.
        phase: u64,
    },
    /// One accepted point-to-point receive.
    Recv {
        /// Source rank.
        src: Rank,
        /// Message tag.
        tag: u64,
        /// Accepted payload size in words.
        words: usize,
        /// Committed boundaries at receive time.
        phase: u64,
    },
    /// Entry into a collective operation.
    Collective {
        /// Which collective.
        kind: CollectiveKind,
        /// The participating group, in the caller's order.
        group: Vec<Rank>,
        /// The root rank (for rootless collectives, the group's first
        /// member, which anchors the internal tree).
        root: Rank,
        /// The collective's base tag.
        tag: u64,
        /// Committed boundaries at entry.
        phase: u64,
    },
    /// A [`Comm::commit_phase`](crate::Comm::commit_phase) call; `boundary`
    /// is the counter value *after* the commit.
    Commit {
        /// Committed boundaries after this commit.
        boundary: u64,
    },
    /// A [`Comm::span`](crate::Comm::span) opened.
    SpanOpen {
        /// Span name.
        name: &'static str,
    },
    /// A span guard dropped.
    SpanClose {
        /// Span name.
        name: &'static str,
    },
}

/// Per-phase communication totals extracted from recorded comm scripts —
/// the sample the static cost-model auditor (`apsp-verify::costcheck`)
/// fits growth exponents over.
///
/// A "phase" here is a **span name**: each send is attributed to the
/// innermost open [`Comm::span`](crate::Comm::span) at the moment it was
/// recorded, skipping the collective-primitive spans (`bcast`, `reduce`,
/// …) so a broadcast inside `R¹` counts toward `r1`, not `bcast`. Sends
/// outside any algorithm span land in the `"main"` phase. Multiple spans
/// with the same name (e.g. one `r1` per elimination level) aggregate
/// into one phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Span name the sends were attributed to (`"main"` when none).
    pub phase: String,
    /// Maximum over ranks of messages sent inside this phase — the
    /// latency-shaped per-phase proxy (critical-path latency is bounded
    /// above by the busiest rank's message count).
    pub max_messages: u64,
    /// Maximum over ranks of words sent inside this phase — the
    /// bandwidth-shaped per-phase proxy.
    pub max_words: u64,
    /// Total messages sent inside this phase across all ranks.
    pub total_messages: u64,
    /// Total words sent inside this phase across all ranks.
    pub total_words: u64,
}

/// The collective-primitive span names [`phase_totals`] skips when
/// resolving the innermost span: these wrap a collective's internal tree
/// messages, which belong to the *algorithm* phase that invoked the
/// collective.
pub const COLLECTIVE_SPAN_NAMES: [&str; 7] =
    ["bcast", "reduce", "gather", "scatter", "barrier", "allgather", "allreduce"];

/// Aggregates per-rank comm scripts (as returned by
/// [`MachineSpec::record`](crate::MachineSpec::record)) into
/// deterministic per-phase send totals, ordered by phase name. See
/// [`PhaseTotals`] for the attribution rule.
pub fn phase_totals(scripts: &[Vec<CommEvent>]) -> Vec<PhaseTotals> {
    use std::collections::BTreeMap;
    // phase -> per-rank (messages, words)
    let mut acc: BTreeMap<&str, Vec<(u64, u64)>> = BTreeMap::new();
    for (rank, script) in scripts.iter().enumerate() {
        let mut stack: Vec<&'static str> = Vec::new();
        for ev in script {
            match *ev {
                CommEvent::SpanOpen { name } => stack.push(name),
                CommEvent::SpanClose { name } if stack.last() == Some(&name) => {
                    stack.pop();
                }
                CommEvent::SpanClose { .. } => {}
                CommEvent::Send { words, .. } => {
                    let phase = stack
                        .iter()
                        .rev()
                        .find(|n| !COLLECTIVE_SPAN_NAMES.contains(n))
                        .copied()
                        .unwrap_or("main");
                    let per_rank = acc.entry(phase).or_insert_with(|| vec![(0, 0); scripts.len()]);
                    per_rank[rank].0 += 1;
                    per_rank[rank].1 += words as u64;
                }
                _ => {}
            }
        }
    }
    acc.into_iter()
        .map(|(phase, per_rank)| PhaseTotals {
            phase: phase.to_string(),
            max_messages: per_rank.iter().map(|&(m, _)| m).max().unwrap_or(0),
            max_words: per_rank.iter().map(|&(_, w)| w).max().unwrap_or(0),
            total_messages: per_rank.iter().map(|&(m, _)| m).sum(),
            total_words: per_rank.iter().map(|&(_, w)| w).sum(),
        })
        .collect()
}

/// Shared collector of per-rank comm scripts for one recorded run.
///
/// The caller holds it via `Arc`, so partial scripts survive a failing
/// run (hang, protocol error): the verifier lints whatever was
/// recorded before the machine died.
#[derive(Debug)]
pub struct ScriptBoard {
    ranks: Vec<Mutex<Vec<CommEvent>>>,
}

impl ScriptBoard {
    /// A fresh board for `p` ranks.
    pub fn new(p: usize) -> Self {
        ScriptBoard { ranks: (0..p).map(|_| Mutex::new(Vec::new())).collect() }
    }

    /// Appends an event to `rank`'s script. Public because both machines
    /// record: the simulator's `Comm` and the native backend's
    /// `NativeComm` (apsp-transport) push into the same board type, so
    /// one comm-script linter serves both.
    pub fn push(&self, rank: Rank, ev: CommEvent) {
        if let Ok(mut script) = self.ranks[rank].lock() {
            script.push(ev);
        }
    }

    /// Drains and returns every rank's script (in rank order).
    pub fn take(&self) -> Vec<Vec<CommEvent>> {
        self.ranks
            .iter()
            .map(|m| match m.lock() {
                Ok(mut script) => std::mem::take(&mut *script),
                Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(dst: Rank, words: usize) -> CommEvent {
        CommEvent::Send { dst, tag: 1, words, phase: 0 }
    }

    #[test]
    fn phase_totals_attribute_to_innermost_algorithm_span() {
        let scripts = vec![
            vec![
                CommEvent::SpanOpen { name: "level" },
                send(1, 10),
                CommEvent::SpanOpen { name: "r1" },
                CommEvent::SpanOpen { name: "bcast" }, // collective: skipped
                send(1, 5),
                CommEvent::SpanClose { name: "bcast" },
                CommEvent::SpanClose { name: "r1" },
                CommEvent::SpanClose { name: "level" },
            ],
            vec![
                CommEvent::SpanOpen { name: "r1" },
                send(0, 7),
                send(0, 2),
                CommEvent::SpanClose { name: "r1" },
                send(0, 3), // no open span: "main"
            ],
        ];
        let totals = phase_totals(&scripts);
        let by_name: std::collections::BTreeMap<&str, &PhaseTotals> =
            totals.iter().map(|t| (t.phase.as_str(), t)).collect();
        let level = by_name["level"];
        assert_eq!((level.max_messages, level.max_words), (1, 10));
        let r1 = by_name["r1"];
        assert_eq!((r1.max_messages, r1.max_words), (2, 9));
        assert_eq!((r1.total_messages, r1.total_words), (3, 14));
        let main = by_name["main"];
        assert_eq!((main.total_messages, main.total_words), (1, 3));
    }

    #[test]
    fn phase_totals_aggregate_repeated_spans() {
        let scripts = vec![vec![
            CommEvent::SpanOpen { name: "pivot" },
            send(0, 4),
            CommEvent::SpanClose { name: "pivot" },
            CommEvent::SpanOpen { name: "pivot" },
            send(0, 6),
            CommEvent::SpanClose { name: "pivot" },
        ]];
        let totals = phase_totals(&scripts);
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].phase, "pivot");
        assert_eq!(totals[0].max_messages, 2);
        assert_eq!(totals[0].max_words, 10);
    }
}
