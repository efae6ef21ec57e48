//! The static comm-script linter.
//!
//! Operates purely on recorded per-rank scripts — no delivery is
//! executed. Because the machine's channels are FIFO per `(src, dst)`
//! pair and a receive names its source, the n-th recorded receive on a
//! channel claims exactly the n-th recorded send: positional pairing is
//! not a heuristic, it is the machine's delivery function. Everything
//! the linter checks is therefore an exact global invariant:
//!
//! 1. **Matching** — every send is received (same tag, same word count),
//!    every receive is fed.
//! 2. **Tag freshness** — no tag appears on one channel in two different
//!    phases (rollback safety: a replayed message must not be
//!    confusable with a different phase's).
//! 3. **Collective agreement** — all ranks of a group enter the same
//!    collectives, in the same order, with the same kind/root/tag.
//! 4. **Quiescence** — a matched pair whose send and receive sit in
//!    different phases crosses a `commit_phase` cut; the checkpoint
//!    would not capture the in-flight message.
//! 5. **Span balance** — every opened trace span is closed (LIFO).

use crate::violation::Violation;
use apsp_simnet::script::{CollectiveKind, CommEvent};
use apsp_simnet::Rank;
use std::collections::BTreeMap;

/// Caps per violation class so a badly broken program reports readably.
const MAX_PER_CLASS: usize = 8;

#[derive(Clone, Copy)]
struct SendRec {
    tag: u64,
    words: usize,
    phase: u64,
}

#[derive(Clone, Copy)]
struct RecvRec {
    tag: u64,
    words: usize,
    phase: u64,
}

/// Lints `scripts` (one per rank, as returned by
/// a [`MachineSpec::record`](apsp_simnet::MachineSpec::record) launch or
/// [`verify_program`](crate::verify_program)) against the module-level
/// invariants. Deterministic: violations come out in
/// channel/rank order.
pub fn lint_scripts(scripts: &[Vec<CommEvent>]) -> Vec<Violation> {
    let mut violations = Vec::new();
    check_matching(scripts, &mut violations);
    check_tag_freshness(scripts, &mut violations);
    check_collectives(scripts, &mut violations);
    check_spans(scripts, &mut violations);
    violations
}

/// Invariants 1 and 4: positional pairing per channel, with phase
/// equality on each matched pair.
fn check_matching(scripts: &[Vec<CommEvent>], out: &mut Vec<Violation>) {
    let mut sends: BTreeMap<(Rank, Rank), Vec<SendRec>> = BTreeMap::new();
    let mut recvs: BTreeMap<(Rank, Rank), Vec<RecvRec>> = BTreeMap::new();
    for (rank, script) in scripts.iter().enumerate() {
        for ev in script {
            match *ev {
                CommEvent::Send { dst, tag, words, phase } => {
                    sends.entry((rank, dst)).or_default().push(SendRec { tag, words, phase });
                }
                CommEvent::Recv { src, tag, words, phase } => {
                    recvs.entry((src, rank)).or_default().push(RecvRec { tag, words, phase });
                }
                _ => {}
            }
        }
    }
    let channels: Vec<(Rank, Rank)> = sends
        .keys()
        .chain(recvs.keys())
        .copied()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let (mut mismatches, mut orphan_sends, mut orphan_recvs, mut crossings) = (0, 0, 0, 0);
    for (src, dst) in channels {
        let empty_s: Vec<SendRec> = Vec::new();
        let empty_r: Vec<RecvRec> = Vec::new();
        let s = sends.get(&(src, dst)).unwrap_or(&empty_s);
        let r = recvs.get(&(src, dst)).unwrap_or(&empty_r);
        for (position, (snd, rcv)) in s.iter().zip(r.iter()).enumerate() {
            if snd.tag != rcv.tag || snd.words != rcv.words {
                if mismatches < MAX_PER_CLASS {
                    out.push(Violation::PairMismatch {
                        src,
                        dst,
                        position,
                        sent: (snd.tag, snd.words),
                        received: (rcv.tag, rcv.words),
                    });
                }
                mismatches += 1;
                continue;
            }
            if snd.phase != rcv.phase {
                if crossings < MAX_PER_CLASS {
                    out.push(Violation::PhaseCutCrossing {
                        src,
                        dst,
                        tag: snd.tag,
                        sent_phase: snd.phase,
                        received_phase: rcv.phase,
                    });
                }
                crossings += 1;
            }
        }
        for snd in s.iter().skip(r.len()) {
            if orphan_sends < MAX_PER_CLASS {
                out.push(Violation::UnmatchedSend { src, dst, tag: snd.tag, words: snd.words });
            }
            orphan_sends += 1;
        }
        for rcv in r.iter().skip(s.len()) {
            if orphan_recvs < MAX_PER_CLASS {
                out.push(Violation::UnmatchedRecv { src, dst, tag: rcv.tag });
            }
            orphan_recvs += 1;
        }
    }
}

/// Invariant 2: a tag is fresh per channel — all its uses sit in one
/// phase. One violation per `(channel, tag)`.
fn check_tag_freshness(scripts: &[Vec<CommEvent>], out: &mut Vec<Violation>) {
    let mut first_use: BTreeMap<(Rank, Rank, u64), u64> = BTreeMap::new();
    let mut reported: std::collections::BTreeSet<(Rank, Rank, u64)> =
        std::collections::BTreeSet::new();
    let mut count = 0usize;
    for (rank, script) in scripts.iter().enumerate() {
        for ev in script {
            let (src, dst, tag, phase) = match *ev {
                CommEvent::Send { dst, tag, phase, .. } => (rank, dst, tag, phase),
                _ => continue,
            };
            let first = *first_use.entry((src, dst, tag)).or_insert(phase);
            if phase != first && reported.insert((src, dst, tag)) {
                if count < MAX_PER_CLASS {
                    out.push(Violation::TagReuseAcrossPhases {
                        src,
                        dst,
                        tag,
                        first_phase: first.min(phase),
                        other_phase: first.max(phase),
                    });
                }
                count += 1;
            }
        }
    }
}

/// Invariant 3: per group, every member's collective sequence equals the
/// first member's (kind, root, tag — group order included via the key).
fn check_collectives(scripts: &[Vec<CommEvent>], out: &mut Vec<Violation>) {
    type Entry = (CollectiveKind, Rank, u64);
    let mut per_group: BTreeMap<Vec<Rank>, BTreeMap<Rank, Vec<Entry>>> = BTreeMap::new();
    for (rank, script) in scripts.iter().enumerate() {
        for ev in script {
            if let CommEvent::Collective { kind, ref group, root, tag, .. } = *ev {
                per_group
                    .entry(group.clone())
                    .or_default()
                    .entry(rank)
                    .or_default()
                    .push((kind, root, tag));
            }
        }
    }
    let mut count = 0usize;
    for (group, members) in &per_group {
        let Some((&reference_rank, reference)) = members.iter().next() else { continue };
        for (&rank, entries) in members.iter().skip(1) {
            let len = reference.len().max(entries.len());
            for position in 0..len {
                let a = reference.get(position);
                let b = entries.get(position);
                if a == b {
                    continue;
                }
                if count < MAX_PER_CLASS {
                    // orient the report so `reference` is whichever side
                    // has an entry at this position
                    let (refr, div) = match (a, b) {
                        (Some(a), b) => ((reference_rank, a.0, a.1, a.2), (rank, b.copied())),
                        (None, Some(b)) => ((rank, b.0, b.1, b.2), (reference_rank, None)),
                        (None, None) => continue,
                    };
                    out.push(Violation::CollectiveMismatch {
                        group: group.clone(),
                        position,
                        reference: refr,
                        diverging: div,
                    });
                }
                count += 1;
                break; // one divergence per member pair
            }
        }
    }
}

/// Invariant 5: spans close LIFO and none stay open.
fn check_spans(scripts: &[Vec<CommEvent>], out: &mut Vec<Violation>) {
    for (rank, script) in scripts.iter().enumerate() {
        let mut stack: Vec<&'static str> = Vec::new();
        for ev in script {
            match *ev {
                CommEvent::SpanOpen { name } => stack.push(name),
                // SpanGuard is RAII, so closes are LIFO by construction;
                // a stray close means a truncated script
                CommEvent::SpanClose { name } if stack.last() == Some(&name) => {
                    stack.pop();
                }
                _ => {}
            }
        }
        if !stack.is_empty() {
            out.push(Violation::UnbalancedSpan { rank, open: stack });
        }
    }
}
