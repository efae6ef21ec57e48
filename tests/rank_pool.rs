//! The rank-thread pool's size, and what else launches leave behind.
//!
//! A launch takes parked `apsp-rank` workers and spawns only the ones it
//! is missing, so after launches of 49, 9 and 49 ranks, a native kill and
//! a watchdog hang, the pool holds exactly 49 workers — the peak number
//! of ranks in flight — and the process holds no other thread it did not
//! hold before. This lives in its own integration binary, one test
//! function, so no other test's launches run beside it and the
//! `APSP_WATCHDOG_MS` override cannot race other tests' environments.

use sparse_apsp::prelude::*;

/// This process's threads as `(pool workers, all others)`, or `None`
/// where procfs does not exist (non-Linux).
fn threads() -> Option<(usize, usize)> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let names =
        tasks.filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok());
    let (pool, other): (Vec<String>, Vec<String>) =
        names.partition(|name| name.trim_end() == "apsp-rank");
    Some((pool.len(), other.len()))
}

/// One ring shift: every rank sends its id right and returns its left
/// neighbour's.
fn ring(comm: &mut NativeComm) -> f64 {
    let (right, left) = ((comm.rank() + 1) % comm.p(), (comm.rank() + comm.p() - 1) % comm.p());
    comm.send(right, 0xF1F0, vec![comm.rank() as f64]);
    comm.recv(left, 0xF1F0)[0]
}

/// Three checkpointed phases of ring shifts, summed into the state.
fn phased_ring(comm: &mut NativeComm) -> f64 {
    let mut state = vec![comm.rank() as f64];
    for phase in 0..3u64 {
        if comm.phase_live() {
            let (right, left) =
                ((comm.rank() + 1) % comm.p(), (comm.rank() + comm.p() - 1) % comm.p());
            comm.send(right, phase, state.clone());
            state[0] += comm.recv(left, phase)[0];
        }
        state = comm.commit_phase(state);
    }
    state[0]
}

#[test]
fn the_pool_holds_the_peak_ranks_in_flight_and_nothing_else_stays() {
    std::env::set_var("APSP_WATCHDOG_MS", "300");
    let before = threads();
    if before.is_none() {
        eprintln!(
            "SKIPPED pool gauge: /proc/self/task is unavailable on this platform; the \
             launches below still run, the thread counts unchecked"
        );
    }

    for p in [49, 9].into_iter().chain(std::iter::repeat_n(49, 20)) {
        let (outs, _) = NativeMachine::run(p, ring);
        for (rank, &v) in outs.iter().enumerate() {
            assert_eq!(v, ((rank + p - 1) % p) as f64, "p {p} rank {rank}");
        }
    }

    // a native kill: rank 4's program unwinds on its worker at boundary 1
    // and the supervisor's next epoch runs it on a spare id
    let (clean, _) = NativeMachine::run(9, phased_ring);
    let plan = FaultPlan::new(5).with_kill_rank_from(4, 1);
    let spec = MachineSpec {
        faults: Some(&plan),
        recovery: Some(RecoveryPolicy::default()),
        ..Default::default()
    };
    let run = NativeMachine::launch(9, &spec, phased_ring).expect("a spare takes over");
    assert_eq!(run.outs, clean, "recovered outputs match the fault-free run");
    assert!(run.recovery.expect("supervised").restarts >= 1, "the kill must force a restart");

    // a watchdog hang: both ranks wait on each other
    let plan = FaultPlan::new(0);
    let spec = MachineSpec { faults: Some(&plan), ..Default::default() };
    let err = NativeMachine::launch(2, &spec, |comm| {
        let peer = comm.rank() ^ 1;
        comm.recv(peer, 7);
    })
    .map(|_| ())
    .expect_err("a mutual wait cannot finish");
    assert!(matches!(err, MachineError::Hang(_)), "expected a typed hang, got {err}");

    if let (Some((pool_before, other_before)), Some((pool, other))) = (before, threads()) {
        assert_eq!(pool_before, 0, "nothing launched before this test");
        assert_eq!(pool, 49, "the pool holds exactly the peak number of ranks in flight");
        assert_eq!(other, other_before, "launches left other threads behind");
    }
}
