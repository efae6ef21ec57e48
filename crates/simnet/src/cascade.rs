//! Cascade-death discipline of the epoch runner
//! ([`crate::endpoint::run_epoch`]), and so of both machines.
//!
//! When one rank dies of a root cause (an unrecoverable fault, a schedule
//! bug, a hang verdict, a fault-plan rank kill), it hangs up on every peer
//! and its inbox closes, and a peer waiting on it or sending to it dies
//! *of that* — a cascade victim, not a first failure. Three pieces deal
//! with that:
//!
//! * the [`Disconnect`] marker a cascade victim panics with;
//! * a process-wide panic hook that silences the machine's *typed* abort
//!   payloads (they are internal control flow, about to be rendered as a
//!   [`MachineError`] — the "thread panicked" dump would be noise);
//! * the join-time triage that picks the **root cause** out of a pile of
//!   per-rank panic payloads deterministically.

use crate::comm::Rank;
use crate::faults::FaultError;
use crate::recovery::{HangError, MachineError, ProtocolError, RankDown};
use crate::sched::DeadlockError;
use std::any::Any;

/// Typed panic payload for a rank that died sending to a peer whose inbox
/// closed, or receiving from a peer that hung up with nothing left to
/// deliver — always a cascade victim of a root-cause panic on the peer,
/// never a first failure, so the panic hook silences it and the triage
/// surfaces the peer's error instead.
#[derive(Clone, Copy, Debug)]
pub struct Disconnect {
    /// The rank that died of the disconnection.
    pub rank: Rank,
    /// The peer that unwound under it.
    pub peer: Rank,
    /// The tag of the send/receive in flight.
    pub tag: u64,
}

/// Silences the default panic printer for the machines' *typed* abort
/// payloads (fault, protocol, hang, deadlock, rank-down, disconnect
/// markers): those panics are internal control flow — the join triage
/// downcasts them into a [`MachineError`] the caller renders — so the
/// "thread panicked" backtrace noise would be a raw dump of an error that
/// is about to be reported properly. Genuine (string) panics still print.
/// Installed once per process; chains to the previous hook.
pub fn install_quiet_typed_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.is::<FaultError>()
                || p.is::<ProtocolError>()
                || p.is::<HangError>()
                || p.is::<DeadlockError>()
                || p.is::<RankDown>()
                || p.is::<Disconnect>()
            {
                return;
            }
            prev(info);
        }));
    });
}

/// Picks the typed root cause out of a pile of per-rank panic payloads,
/// by specificity: a fault-plan thread kill ([`RankDown`]) outranks an
/// exhausted retry budget ([`FaultError`], only meaningful when a fault
/// layer was active), which outranks a schedule bug, a hang verdict, and
/// last a deadlock (often itself a victim of a rank that already died of
/// something more specific). `None` when no typed payload is present —
/// the run died of a genuine (string) panic; see
/// [`surface_root_cause`].
///
/// Callers collect payloads by joining handles in rank order, so the
/// lowest faulting rank wins a tie within each class and the surfaced
/// error is deterministic.
pub fn classify_panics(panics: &[Box<dyn Any + Send>], fault_mode: bool) -> Option<MachineError> {
    if let Some(err) = panics.iter().find_map(|pl| pl.downcast_ref::<RankDown>()) {
        return Some(MachineError::Down(*err));
    }
    if fault_mode {
        if let Some(err) = panics.iter().find_map(|pl| pl.downcast_ref::<FaultError>()) {
            return Some(MachineError::Fault(err.clone()));
        }
    }
    if let Some(err) = panics.iter().find_map(|pl| pl.downcast_ref::<ProtocolError>()) {
        return Some(MachineError::Protocol(err.clone()));
    }
    if let Some(err) = panics.iter().find_map(|pl| pl.downcast_ref::<HangError>()) {
        return Some(MachineError::Hang(err.clone()));
    }
    if let Some(err) = panics.iter().find_map(|pl| pl.downcast_ref::<DeadlockError>()) {
        return Some(MachineError::Deadlock(err.clone()));
    }
    None
}

/// Re-raises the first non-[`Disconnect`] payload (rank order) — the
/// root-cause genuine panic — skipping cascade-victim markers. A pile of
/// *only* markers is a machine invariant violation: every disconnect
/// death has a root cause elsewhere in the list.
///
/// # Panics
/// Always (that is its job); also asserts the pile is non-empty.
pub fn surface_root_cause(mut panics: Vec<Box<dyn Any + Send>>) -> ! {
    assert!(!panics.is_empty(), "no panic payloads to surface");
    if let Some(i) = panics.iter().position(|pl| !pl.is::<Disconnect>()) {
        std::panic::resume_unwind(panics.remove(i));
    }
    let d = panics[0].downcast_ref::<Disconnect>().expect("only markers left");
    unreachable!(
        "rank {} died on disconnect from {} (tag {:#x}) with no root cause",
        d.rank, d.peer, d.tag
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed<T: Any + Send>(v: T) -> Box<dyn Any + Send> {
        Box::new(v)
    }

    #[test]
    fn classification_prefers_the_most_specific_root_cause() {
        let down = RankDown { rank: 2, boundary: 1 };
        let fault = FaultError { src: 0, dst: 2, tag: 7, seq: 3, attempts: 6 };
        let pile =
            vec![boxed(fault.clone()), boxed(down), boxed(Disconnect { rank: 1, peer: 2, tag: 7 })];
        match classify_panics(&pile, true) {
            Some(MachineError::Down(d)) => assert_eq!(d.rank, 2),
            other => panic!("expected Down, got {other:?}"),
        }
        // without the kill marker the fault wins, but only in fault mode
        let pile = vec![boxed(fault.clone())];
        assert!(matches!(classify_panics(&pile, true), Some(MachineError::Fault(_))));
        assert!(classify_panics(&pile, false).is_none());
    }

    #[test]
    fn markers_alone_classify_as_untyped() {
        let pile = vec![boxed(Disconnect { rank: 0, peer: 1, tag: 3 })];
        assert!(classify_panics(&pile, true).is_none());
    }

    #[test]
    fn surfacing_skips_markers_and_rethrows_the_genuine_panic() {
        let pile: Vec<Box<dyn Any + Send>> =
            vec![boxed(Disconnect { rank: 0, peer: 1, tag: 3 }), boxed("real failure")];
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| surface_root_cause(pile)))
                .expect_err("surface_root_cause always unwinds");
        assert_eq!(*err.downcast_ref::<&str>().expect("string payload"), "real failure");
    }
}
