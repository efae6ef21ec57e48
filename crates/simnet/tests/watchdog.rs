//! Simulator watchdog regression: a mutual wait must surface a typed
//! [`MachineError::Hang`] naming who had returned and who was blocked on
//! whom.
//!
//! Like the native machine's `tests/watchdog.rs`, this lives in its own
//! integration binary so the `APSP_WATCHDOG_MS` override cannot race with
//! other tests' environments — the whole file is a single test function.

use apsp_simnet::{Machine, MachineError, MachineSpec, RankWait};

#[test]
fn watchdog_aborts_a_mutual_deadlock() {
    std::env::set_var("APSP_WATCHDOG_MS", "200");
    // ranks 0 and 1 return at once; 2 and 3 wait on each other — a true
    // deadlock (a receive from a rank that merely returned is caught at
    // the next tick instead, see `crates/transport/tests/protocol.rs`)
    let err = Machine::launch(4, &MachineSpec::default(), |comm| {
        if comm.rank() >= 2 {
            let peer = comm.rank() ^ 1;
            comm.recv(peer, 9);
        }
    })
    .expect_err("deadlock must trip the watchdog");
    let MachineError::Hang(hang) = err else { panic!("expected a hang, got {err}") };
    assert_eq!(hang.tag, 9);
    let (returned, on) = (RankWait::Returned, RankWait::On);
    assert_eq!(hang.blocked, vec![returned, returned, on(3, 9), on(2, 9)]);
    let text = hang.to_string();
    for line in ["machine hung", "0: returned", "1: returned", "2⇐3", "3⇐2"] {
        assert!(text.contains(line), "`{line}` missing from {text}");
    }
}
