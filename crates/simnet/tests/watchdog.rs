//! Simulator watchdog regression: a mutual wait must surface a typed
//! [`MachineError::Hang`] naming who was blocked on whom.
//!
//! Like the native machine's `tests/watchdog.rs`, this lives in its own
//! integration binary so the `APSP_WATCHDOG_MS` override cannot race with
//! other tests' environments — the whole file is a single test function.

use apsp_simnet::{Machine, MachineError, MachineSpec};

#[test]
fn watchdog_aborts_a_mutual_deadlock() {
    std::env::set_var("APSP_WATCHDOG_MS", "200");
    // both ranks wait on each other — a true deadlock (a receive from a
    // rank that merely returned is caught at the next tick instead, see
    // `crates/transport/tests/protocol.rs`)
    let err = Machine::launch(2, &MachineSpec::default(), |comm| {
        let peer = comm.rank() ^ 1;
        comm.recv(peer, 9);
    })
    .expect_err("deadlock must trip the watchdog");
    let MachineError::Hang(hang) = err else { panic!("expected a hang, got {err}") };
    assert_eq!(hang.tag, 9);
    assert!(hang.blocked.iter().all(Option::is_some), "both ranks were blocked");
    assert!(hang.to_string().contains("machine hung"));
}
