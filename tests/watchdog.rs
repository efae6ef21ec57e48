//! Native watchdog regression: a stalled rank must surface a typed
//! [`MachineError::Hang`] well before the test runner's own timeout, and
//! the aborted machine must leave no thread behind but parked pool
//! workers.
//!
//! This lives in its own integration binary so the `APSP_WATCHDOG_MS`
//! override cannot race with other tests' environments — the whole file
//! is a single test function.

use sparse_apsp::prelude::*;
use std::time::{Duration, Instant};

/// This process's threads other than the rank-thread pool's parked
/// `apsp-rank` workers (same gauge as `tests/stress.rs`), or `None` where
/// procfs does not exist (non-Linux).
fn thread_count() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let names =
        tasks.filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok());
    Some(names.filter(|name| name.trim_end() != "apsp-rank").count())
}

#[test]
fn stalled_rank_yields_typed_hang_error_and_leaks_no_threads() {
    std::env::set_var("APSP_WATCHDOG_MS", "300");
    let before = thread_count();
    if before.is_none() {
        eprintln!(
            "SKIPPED thread-leak gauge: /proc/self/task is unavailable on this \
             platform; the typed-hang assertions below still run"
        );
    }
    let started = Instant::now();

    // Two ranks, each waiting for a message the other never sends — the
    // classic deadlocked exchange. The empty plan keeps the fault layer
    // engaged (so the error is routed through the fault layer's typed
    // classification) without injecting anything.
    let plan = FaultPlan::new(0);
    let spec = MachineSpec { faults: Some(&plan), ..Default::default() };
    let result = NativeMachine::launch(2, &spec, |comm| {
        let peer = comm.rank() ^ 1;
        let _ = comm.recv(peer, 7);
        Vec::<f64>::new()
    });

    let err = result.expect_err("a mutual recv stall must not succeed");
    assert!(matches!(err, MachineError::Hang(_)), "expected a typed hang, got: {err}");
    assert!(
        err.to_string().starts_with("machine hung"),
        "hang display should be self-describing: {err}"
    );
    // The watchdog, not the test harness, must have broken the stall:
    // 300ms budget plus generous scheduling slack, far below any runner
    // timeout.
    assert!(started.elapsed() < Duration::from_secs(30), "watchdog did not fire in time");

    // Both ranks ran on pool workers, which park again; nothing else may
    // be left behind.
    if let (Some(before), Some(after)) = (before, thread_count()) {
        assert!(after <= before + 2, "stalled machine leaked threads: {before} -> {after}");
    }
}
