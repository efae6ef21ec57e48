//! Watchdog/arrival race regression: when a recv's hang deadline fires
//! exactly as the awaited message arrives, either order must resolve to
//! a defined outcome — the payload is delivered, or the run dies with
//! the typed [`MachineError::Hang`]. Never an untyped panic, a lost
//! message, or a machine that hangs past its own watchdog.
//!
//! Like `tests/watchdog.rs`, this lives in its own integration binary so
//! the `APSP_WATCHDOG_MS` override cannot race other tests' environments
//! — the whole file is a single test function.

use sparse_apsp::prelude::*;
use std::time::Duration;

#[test]
fn deadline_racing_arrival_delivers_or_hangs_typed() {
    std::env::set_var("APSP_WATCHDOG_MS", "40");

    // Sweep the sender's delay across the 40ms deadline: the early delays
    // deliver before the watchdog arms, the late ones after it has fired,
    // and the middle of the sweep lands the arrival right on the boundary.
    // Several rounds per delay widen the window the race is sampled in.
    for round in 0..3u64 {
        for delay_ms in [0u64, 20, 40, 60, 90] {
            let plan = FaultPlan::new(0);
            let spec = MachineSpec { faults: Some(&plan), ..Default::default() };
            let result = NativeMachine::launch(2, &spec, move |comm| {
                if comm.rank() == 0 {
                    std::thread::sleep(Duration::from_millis(delay_ms));
                    comm.send(1, 9, vec![delay_ms as f64]);
                    Vec::new()
                } else {
                    comm.recv(0, 9)
                }
            });
            match result {
                // delivered: the payload must be intact, not truncated by
                // a concurrently-firing deadline
                Ok(MachineRun { outs, .. }) => {
                    assert_eq!(
                        outs[1],
                        vec![delay_ms as f64],
                        "round {round} delay {delay_ms}ms: corrupted delivery"
                    );
                }
                // timed out: only the typed hang is acceptable — a
                // disconnect or plain panic means the shutdown path lost
                // the race
                Err(e) => assert!(
                    matches!(e, MachineError::Hang(_)),
                    "round {round} delay {delay_ms}ms: expected a typed hang, got: {e}"
                ),
            }
        }
    }
}
