//! Governed message delivery: the schedule explorer's runtime half.
//!
//! A governed run ([`Machine::run_governed`](crate::Machine::run_governed))
//! routes every receive through a shared [`Governor`] that (a) mirrors the
//! set of in-flight messages, (b) resolves wildcard receives
//! ([`Comm::recv_any`](crate::Comm::recv_any)) against an explicit
//! **schedule** — a vector of choice indices, one per wildcard decision
//! with ≥ 2 deliverable sources — and (c) detects true deadlock the moment
//! every unfinished rank is blocked with nothing deliverable, turning what
//! the wall-clock watchdog would report after seconds into an immediate,
//! typed [`DeadlockError`] carrying the wait-for graph.
//!
//! Wildcard decisions are deferred to **quiescent points** — no rank
//! running, no named receive deliverable — so each decision's candidate
//! set is maximal and independent of thread timing: the choice tree is a
//! deterministic function of the program and the schedule prefix, which
//! is what makes schedules replayable and the explorer's enumeration
//! sound. Named receives claim eagerly (per-channel FIFO already fixes
//! their delivery, so timing cannot change any result).
//!
//! The governor never touches the cost clocks: it sequences the same
//! deliveries the ungoverned machine would make (per-channel FIFO is
//! preserved — data still travels the mpsc wires), so a governed run's
//! §3.1 report is byte-identical to a plain run's for programs without
//! wildcard receives, and bit-identically replayable given the same
//! schedule in all cases.

use crate::comm::Rank;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// What a rank was waiting on when the machine deadlocked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitEdge {
    /// The blocked rank.
    pub rank: Rank,
    /// The source it waits on (`None` = wildcard: any source would do).
    pub src: Option<Rank>,
    /// The tag it expects.
    pub tag: u64,
}

/// Typed panic payload for a governed-run deadlock: every unfinished rank
/// is blocked in a receive and no blocked rank has a deliverable message.
///
/// Unlike [`HangError`](crate::recovery::HangError) (a wall-clock
/// heuristic), this is an exact structural fact about the wait-for graph,
/// detected the instant it forms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockError {
    /// Every blocked rank's wait edge, in rank order.
    pub waiting: Vec<WaitEdge>,
    /// A cycle in the wait-for graph (`a` waits on `b` waits on … on `a`),
    /// when one exists among the named-source edges; empty for deadlocks
    /// that involve only wildcard waits or ranks that exited early.
    pub cycle: Vec<Rank>,
}

impl std::fmt::Display for DeadlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "machine deadlocked: {} rank(s) blocked with nothing deliverable", {
            self.waiting.len()
        })?;
        for w in &self.waiting {
            match w.src {
                Some(src) => write!(f, "\n  rank {} waits on {} (tag 0x{:x})", w.rank, src, w.tag)?,
                None => write!(f, "\n  rank {} waits on any source (tag 0x{:x})", w.rank, w.tag)?,
            }
        }
        if !self.cycle.is_empty() {
            let cyc: Vec<String> = self.cycle.iter().map(|r| r.to_string()).collect();
            write!(f, "\n  wait-for cycle: {} -> {}", cyc.join(" -> "), self.cycle[0])?;
        }
        Ok(())
    }
}

impl std::error::Error for DeadlockError {}

/// One wildcard-receive decision the governor made: `chosen` among
/// `alternatives` deliverable sources (group order ascending by rank).
/// The schedule explorer enumerates sibling decisions from this log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChoicePoint {
    /// How many distinct sources were deliverable at this decision.
    pub alternatives: usize,
    /// Index of the source the governor picked (< `alternatives`).
    pub chosen: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RankState {
    Running,
    /// Blocked in a named receive on `src` / wildcard (`src = None`).
    Blocked {
        src: Option<Rank>,
        tag: u64,
    },
    Done,
}

struct GovState {
    /// `pending[dst][src]` = undelivered message count on the wire.
    pending: Vec<Vec<usize>>,
    status: Vec<RankState>,
    /// Explicit wildcard decisions; exhausted entries default to 0.
    schedule: Vec<usize>,
    cursor: usize,
    choices: Vec<ChoicePoint>,
    /// Set once, by the rank that detects the deadlock.
    deadlock: Option<DeadlockError>,
}

/// Shared delivery sequencer for one governed run. See the module docs.
pub struct Governor {
    state: Mutex<GovState>,
    cv: Condvar,
}

impl Governor {
    /// A governor for `p` ranks driving wildcard decisions from `schedule`
    /// (positions past its end default to choice 0).
    pub fn new(p: usize, schedule: &[usize]) -> Self {
        Governor {
            state: Mutex::new(GovState {
                pending: vec![vec![0; p]; p],
                status: vec![RankState::Running; p],
                schedule: schedule.to_vec(),
                cursor: 0,
                choices: Vec::new(),
                deadlock: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// The wildcard decisions this run actually made, in decision order.
    pub fn choices(&self) -> Vec<ChoicePoint> {
        match self.state.lock() {
            Ok(st) => st.choices.clone(),
            Err(poisoned) => poisoned.into_inner().choices.clone(),
        }
    }

    /// Records a message put on the wire `src → dst`.
    pub(crate) fn on_send(&self, src: Rank, dst: Rank) {
        let mut st = self.state.lock().expect("governor state");
        st.pending[dst][src] += 1;
        self.cv.notify_all();
    }

    /// Marks `me` finished (also called when its program unwinds, so peers
    /// blocked on it deadlock-detect instead of waiting forever).
    pub(crate) fn finish(&self, me: Rank) {
        let mut st = match self.state.lock() {
            Ok(st) => st,
            Err(poisoned) => poisoned.into_inner(),
        };
        st.status[me] = RankState::Done;
        self.cv.notify_all();
    }

    /// Blocks `me` until a message from `src` — or, for a wildcard receive
    /// (`None`), from *any* source — is deliverable, then claims it and
    /// returns its source. Named receives have no delivery choice
    /// (per-channel FIFO), so for them this only sequences blocking and
    /// feeds deadlock detection. A wildcard with ≥ 2 candidates is a
    /// genuine delivery-order choice: the next schedule entry picks the
    /// source (candidates in ascending rank order), and the decision is
    /// logged for the explorer.
    pub(crate) fn acquire(
        &self,
        me: Rank,
        src: Option<Rank>,
        tag: u64,
    ) -> Result<Rank, DeadlockError> {
        let mut st = self.state.lock().expect("governor state");
        st.status[me] = RankState::Blocked { src, tag };
        // entering the blocked set can complete a quiescent point or a
        // deadlock — wake everyone to re-evaluate
        self.cv.notify_all();
        loop {
            if let Some(dl) = st.deadlock.clone() {
                // someone else declared the deadlock while we waited
                st.status[me] = RankState::Done;
                return Err(dl);
            }
            match src {
                Some(s) => {
                    // named receives are confluent (per-channel FIFO fixes
                    // the delivered message), so they claim eagerly
                    if st.pending[me][s] > 0 {
                        st.pending[me][s] -= 1;
                        st.status[me] = RankState::Running;
                        return Ok(s);
                    }
                }
                None => {
                    // wildcard decisions wait for a quiescent point: no
                    // rank running, no named receive deliverable. Only
                    // then is the candidate set maximal — every message
                    // that can arrive before this decision has arrived —
                    // which makes the choice tree deterministic and
                    // schedules replayable regardless of thread timing.
                    if wildcard_may_decide(&st, me) {
                        let candidates: Vec<Rank> =
                            (0..st.pending[me].len()).filter(|&s| st.pending[me][s] > 0).collect();
                        let pick = if candidates.len() > 1 {
                            let pick = *st.schedule.get(st.cursor).unwrap_or(&0) % candidates.len();
                            st.cursor += 1;
                            st.choices
                                .push(ChoicePoint { alternatives: candidates.len(), chosen: pick });
                            pick
                        } else {
                            0
                        };
                        let chosen = candidates[pick];
                        st.pending[me][chosen] -= 1;
                        st.status[me] = RankState::Running;
                        self.cv.notify_all();
                        return Ok(chosen);
                    }
                }
            }
            if let Some(dl) = detect_deadlock(&st) {
                st.deadlock = Some(dl.clone());
                st.status[me] = RankState::Done;
                self.cv.notify_all();
                return Err(dl);
            }
            // timeout only as a lost-notification safety net: correctness
            // never depends on it, deadlock detection is structural
            let (guard, _) =
                self.cv.wait_timeout(st, Duration::from_millis(50)).expect("governor wait");
            st = guard;
        }
    }
}

/// A wildcard receive may decide exactly when the machine is quiescent
/// (no rank running, no named receive deliverable) and `me` is the
/// lowest-ranked blocked wildcard with a candidate — a deterministic
/// global decision order.
fn wildcard_may_decide(st: &GovState, me: Rank) -> bool {
    for (rank, status) in st.status.iter().enumerate() {
        match *status {
            RankState::Running => return false,
            RankState::Blocked { src: Some(s), .. } if st.pending[rank][s] > 0 => {
                return false;
            }
            _ => {}
        }
    }
    for (rank, status) in st.status.iter().enumerate() {
        if let RankState::Blocked { src: None, .. } = *status {
            if st.pending[rank].iter().any(|&n| n > 0) {
                return rank == me;
            }
        }
    }
    false
}

/// A deadlock exists exactly when no rank is `Running` and no blocked
/// rank has a deliverable message (blocked ranks with pending messages
/// would have claimed them before waiting, so checking the registry
/// under the lock is exact).
fn detect_deadlock(st: &GovState) -> Option<DeadlockError> {
    let mut waiting = Vec::new();
    for (rank, status) in st.status.iter().enumerate() {
        match *status {
            RankState::Running => return None,
            RankState::Blocked { src, tag } => {
                let deliverable = match src {
                    Some(s) => st.pending[rank][s] > 0,
                    None => st.pending[rank].iter().any(|&n| n > 0),
                };
                if deliverable {
                    return None;
                }
                waiting.push(WaitEdge { rank, src, tag });
            }
            RankState::Done => {}
        }
    }
    if waiting.is_empty() {
        return None;
    }
    Some(DeadlockError { cycle: find_cycle(&waiting), waiting })
}

/// Walks the named-source wait-for edges (a functional graph) from each
/// blocked rank looking for a cycle; returns it rotated to start at its
/// smallest member, or empty when the deadlock has no named cycle.
fn find_cycle(waiting: &[WaitEdge]) -> Vec<Rank> {
    let next =
        |r: Rank| -> Option<Rank> { waiting.iter().find(|w| w.rank == r).and_then(|w| w.src) };
    for start in waiting.iter().map(|w| w.rank) {
        let mut path = vec![start];
        let mut cur = start;
        while let Some(n) = next(cur) {
            if let Some(pos) = path.iter().position(|&r| r == n) {
                let mut cycle = path[pos..].to_vec();
                let min_pos =
                    cycle.iter().enumerate().min_by_key(|(_, &r)| r).map(|(i, _)| i).unwrap_or(0);
                cycle.rotate_left(min_pos);
                return cycle;
            }
            path.push(n);
            cur = n;
            if path.len() > waiting.len() + 1 {
                break;
            }
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_wait_is_a_cycle() {
        let waiting = vec![
            WaitEdge { rank: 2, src: Some(3), tag: 9 },
            WaitEdge { rank: 3, src: Some(2), tag: 9 },
        ];
        assert_eq!(find_cycle(&waiting), vec![2, 3]);
    }

    #[test]
    fn wildcard_only_deadlock_has_no_cycle() {
        let waiting = vec![WaitEdge { rank: 0, src: None, tag: 1 }];
        assert_eq!(find_cycle(&waiting), Vec::<Rank>::new());
    }

    #[test]
    fn three_cycle_rotates_to_smallest() {
        let waiting = vec![
            WaitEdge { rank: 5, src: Some(1), tag: 0 },
            WaitEdge { rank: 1, src: Some(4), tag: 0 },
            WaitEdge { rank: 4, src: Some(5), tag: 0 },
        ];
        assert_eq!(find_cycle(&waiting), vec![1, 4, 5]);
    }

    #[test]
    fn deadlock_display_names_edges() {
        let dl = DeadlockError {
            waiting: vec![
                WaitEdge { rank: 2, src: Some(3), tag: 0x9 },
                WaitEdge { rank: 3, src: None, tag: 0xA },
            ],
            cycle: vec![2, 3],
        };
        let text = dl.to_string();
        assert!(text.contains("machine deadlocked"));
        assert!(text.contains("rank 2 waits on 3 (tag 0x9)"));
        assert!(text.contains("rank 3 waits on any source (tag 0xa)"));
        assert!(text.contains("wait-for cycle: 2 -> 3 -> 2"));
    }
}
