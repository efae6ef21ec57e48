//! Typed protocol violations, with human-readable reports.

use apsp_simnet::script::CollectiveKind;
use apsp_simnet::Rank;

/// One protocol violation found by the linter, or the run's own failure.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// A send no receive ever claimed.
    UnmatchedSend {
        /// Sender.
        src: Rank,
        /// Destination.
        dst: Rank,
        /// Tag of the orphaned message.
        tag: u64,
        /// Payload words.
        words: usize,
    },
    /// A receive no send ever fed.
    UnmatchedRecv {
        /// Expected source.
        src: Rank,
        /// Receiver.
        dst: Rank,
        /// Expected tag.
        tag: u64,
    },
    /// The n-th send and n-th receive on a channel disagree on tag or
    /// word count (per-channel FIFO makes positional pairing exact).
    PairMismatch {
        /// Sender.
        src: Rank,
        /// Receiver.
        dst: Rank,
        /// Position on the channel (0-based).
        position: usize,
        /// `(tag, words)` as sent.
        sent: (u64, usize),
        /// `(tag, words)` as received.
        received: (u64, usize),
    },
    /// A tag seen on one channel in two different phases: after a
    /// rollback to the earlier phase's checkpoint, a retransmitted
    /// message would be indistinguishable from the later one.
    TagReuseAcrossPhases {
        /// Sender.
        src: Rank,
        /// Receiver.
        dst: Rank,
        /// The reused tag.
        tag: u64,
        /// Phase of first use.
        first_phase: u64,
        /// A later phase reusing the tag.
        other_phase: u64,
    },
    /// A matched send/recv pair whose endpoints sit in different phases —
    /// a message in flight across a checkpoint cut, so the phase is not
    /// quiescent at `commit_phase` and a rollback would lose or duplicate
    /// it.
    PhaseCutCrossing {
        /// Sender.
        src: Rank,
        /// Receiver.
        dst: Rank,
        /// Tag of the crossing message.
        tag: u64,
        /// Sender's committed-phase count at send.
        sent_phase: u64,
        /// Receiver's committed-phase count at receive.
        received_phase: u64,
    },
    /// Two members of the same group saw different collective sequences.
    CollectiveMismatch {
        /// The group (sorted member ranks).
        group: Vec<Rank>,
        /// Index into the group's collective sequence.
        position: usize,
        /// The reference member (first of the group) and what it entered.
        reference: (Rank, CollectiveKind, Rank, u64),
        /// The diverging member and what it entered (`None` = it entered
        /// fewer collectives than the reference).
        diverging: (Rank, Option<(CollectiveKind, Rank, u64)>),
    },
    /// A rank ended its program with open trace spans.
    UnbalancedSpan {
        /// The rank.
        rank: Rank,
        /// Names of the spans still open at exit (inner-most last).
        open: Vec<&'static str>,
    },
    /// The recorded run died with a typed machine error (protocol
    /// mismatch, hang, rank down) before the scripts completed.
    Execution {
        /// The error's rendered form.
        error: String,
    },
}

impl Violation {
    /// Stable short name of the violation class (for tests and filters).
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::UnmatchedSend { .. } => "unmatched-send",
            Violation::UnmatchedRecv { .. } => "unmatched-recv",
            Violation::PairMismatch { .. } => "pair-mismatch",
            Violation::TagReuseAcrossPhases { .. } => "tag-reuse-across-phases",
            Violation::PhaseCutCrossing { .. } => "phase-cut-crossing",
            Violation::CollectiveMismatch { .. } => "collective-mismatch",
            Violation::UnbalancedSpan { .. } => "unbalanced-span",
            Violation::Execution { .. } => "execution",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::UnmatchedSend { src, dst, tag, words } => write!(
                f,
                "unmatched send: {src} -> {dst} tag {tag:#x} ({words} words) was never received"
            ),
            Violation::UnmatchedRecv { src, dst, tag } => write!(
                f,
                "unmatched recv: rank {dst} waits on {src} for tag {tag:#x} that is never sent"
            ),
            Violation::PairMismatch { src, dst, position, sent, received } => write!(
                f,
                "send/recv mismatch on channel {src} -> {dst} (message #{position}): \
                 sent tag {:#x} ({} words), received tag {:#x} ({} words)",
                sent.0, sent.1, received.0, received.1
            ),
            Violation::TagReuseAcrossPhases { src, dst, tag, first_phase, other_phase } => write!(
                f,
                "tag reuse across phases: channel {src} -> {dst} tag {tag:#x} first used in \
                 phase {first_phase}, reused in phase {other_phase}"
            ),
            Violation::PhaseCutCrossing { src, dst, tag, sent_phase, received_phase } => write!(
                f,
                "message crosses a checkpoint cut: {src} -> {dst} tag {tag:#x} sent in phase \
                 {sent_phase} but received in phase {received_phase} — the phase is not \
                 quiescent at commit_phase"
            ),
            Violation::CollectiveMismatch { group, position, reference, diverging } => {
                write!(
                    f,
                    "collective order mismatch in group {group:?} at entry #{position}: \
                     rank {} entered {} (root {}, tag {:#x})",
                    reference.0, reference.1, reference.2, reference.3
                )?;
                match &diverging.1 {
                    Some((kind, root, tag)) => write!(
                        f,
                        ", but rank {} entered {kind} (root {root}, tag {tag:#x})",
                        diverging.0
                    ),
                    None => write!(f, ", but rank {} entered no more collectives", diverging.0),
                }
            }
            Violation::UnbalancedSpan { rank, open } => write!(
                f,
                "unbalanced trace spans: rank {rank} exited with open span(s) [{}]",
                open.join(", ")
            ),
            Violation::Execution { error } => write!(f, "run failed: {error}"),
        }
    }
}
