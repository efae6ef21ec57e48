//! The per-rank event log: what happened to each rank, as
//! [`CommEvent`]s — the one record both the §3.1 bill
//! ([`crate::cost::fold`]) and the protocol verifier (`apsp-verify`) read.
//!
//! Two kinds of event share the log. *Logical* events — `Send`, `Recv`,
//! `Collective`, `Commit`, `SpanOpen`, `SpanClose` — are one per
//! communication operation: a fault-mode retransmission is one `Send`, a
//! collective is one `Collective` entry per member (its internal tree
//! messages are also logged as `Send`/`Recv`, which is what the
//! matching invariant checks). *Cost* events
//! ([`CommEvent::is_cost_only`]) are the physical side the bill is folded
//! from: every attempt on the wire, every loss, every arrival, backoff,
//! compute, alloc, release, snapshot and restore, and each span's tag.
//!
//! The simulator always keeps the log (its report is the fold of it); a
//! native run keeps it when recorded
//! ([`MachineSpec::record`](crate::MachineSpec::record)), which is also
//! when the logical events are logged and the log is handed back. Logging
//! never perturbs the machine: a recorded run's report is byte-identical
//! to a plain run's (test-pinned in `tests/verification.rs`).

use crate::comm::Rank;

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
    /// Cost event: the tag of the span the next `SpanOpen` opens.
    SpanTag {
        /// Span tag.
        tag: u64,
    },
    /// Cost event: a physical attempt put on the wire to `dst`.
    Wire {
        /// Destination rank.
        dst: Rank,
        /// Message tag.
        tag: u64,
        /// Payload size in words.
        words: usize,
        /// Injected latency units the attempt arrives late by.
        delay: u64,
    },
    /// Cost event: a physical attempt that left the port and was dropped.
    Lost {
        /// Destination rank.
        dst: Rank,
        /// Message tag.
        tag: u64,
        /// Payload size in words.
        words: usize,
    },
    /// Cost event: a physical arrival from `src` occupied this rank's
    /// port, whether it was accepted or discarded as a duplicate or a
    /// corruption.
    Arrived {
        /// Source rank.
        src: Rank,
        /// Payload size in words.
        words: usize,
    },
    /// Cost event: a retransmit backoff of `units` latency units.
    Backoff {
        /// Latency units waited.
        units: u64,
    },
    /// Cost event: local compute, straggler inflation included.
    Compute {
        /// Scalar operations.
        ops: u64,
    },
    /// Cost event: tracked resident data grew.
    Alloc {
        /// Words allocated.
        words: usize,
    },
    /// Cost event: tracked resident data shrank.
    Release {
        /// Words released.
        words: usize,
    },
    /// Cost event: a snapshot of the state at the current boundary.
    Save {
        /// State words saved.
        words: usize,
    },
    /// Cost event: the rank resumed from its snapshot at the current
    /// boundary.
    Restore {
        /// State words restored.
        words: usize,
    },
}

impl CommEvent {
    /// `true` for the events only the bill reads; the verifier, the phase
    /// totals and the golden digest skip them.
    pub fn is_cost_only(&self) -> bool {
        !matches!(
            self,
            CommEvent::Send { .. }
                | CommEvent::Recv { .. }
                | CommEvent::Collective { .. }
                | CommEvent::Commit { .. }
                | CommEvent::SpanOpen { .. }
                | CommEvent::SpanClose { .. }
        )
    }
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
/// [`PhaseTotals`] for the attribution rule. Only logical sends count:
/// the cost-only events ([`CommEvent::is_cost_only`]) are skipped.
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
