//! Exhaustive interleaving checks for the rank endpoint, run with
//! `RUSTFLAGS="--cfg loom" cargo test -p apsp-transport --test loom`.
//!
//! The endpoint and epoch runner both machines share
//! (`apsp_simnet::{Endpoint, run_epoch}`) are driven here through the
//! native machine. Every synchronization primitive they touch goes through
//! `apsp_simnet::sync` (re-exported as `apsp_transport::sync`), which
//! under `--cfg loom` routes to the loom
//! model checker: each test body runs once per *schedule*, and the
//! checker explores every interleaving (up to the preemption bound) of
//! sends, receives, teardown drops, kills, and rollbacks that p ≤ 3
//! model threads can produce. What the suite pins, in every schedule:
//!
//! * no deadlock — a genuinely stuck machine must surface the typed
//!   [`apsp_simnet::HangError`], never an OS-level hang or a model
//!   deadlock verdict;
//! * no double-panic aborts during teardown — a dying rank's hang-up
//!   notices and inbox drop never park or panic while unwinding;
//! * no lost wakeups — a healthy program's messages are delivered under
//!   *every* explored schedule, and verdicts (outputs, typed errors,
//!   recovery trajectories) are schedule-independent.
//!
//! The watchdog window is pinned to 1 ms: model time does not pass, and
//! loom's `recv_timeout` deadline fires only at a genuine global stall
//! (see `crates/compat/loom`), so one tick of stalled idle time must be
//! enough to reach the typed-hang verdict — a larger window would only
//! multiply stall-spin schedules without adding coverage.

#![cfg(loom)]

use apsp_simnet::{FaultPlan, MachineError, MachineRun, MachineSpec, RecoveryPolicy};
use apsp_transport::{NativeComm, NativeMachine};

/// Pins the watchdog window to one tick for the whole binary (every test
/// writes the same value, so concurrent test threads cannot disagree).
fn pin_watchdog() {
    std::env::set_var("APSP_WATCHDOG_MS", "1");
}

#[test]
fn ping_pong_delivers_in_every_schedule() {
    pin_watchdog();
    let iterations = loom::Builder::default().check(|| {
        let (outs, _) = NativeMachine::run(2, |comm| match comm.rank() {
            0 => {
                comm.send(1, 7, vec![1.5, 2.5]);
                comm.recv(1, 8)
            }
            _ => {
                let got = comm.recv(0, 7);
                comm.send(0, 8, vec![got[0] + got[1]]);
                got
            }
        });
        assert_eq!(outs[0], vec![4.0]);
        assert_eq!(outs[1], vec![1.5, 2.5]);
    });
    assert!(iterations > 1, "a 2-rank exchange must have more than one schedule");
}

#[test]
fn ring_rotation_delivers_in_every_schedule() {
    pin_watchdog();
    loom::model(|| {
        let (outs, _) = NativeMachine::run(3, |comm| {
            let r = comm.rank();
            comm.send((r + 1) % 3, 9, vec![r as f64]);
            comm.recv((r + 2) % 3, 9)[0]
        });
        assert_eq!(outs, vec![2.0, 0.0, 1.0]);
    });
}

#[test]
fn staggered_exit_keeps_peer_channels_alive() {
    pin_watchdog();
    // rank 0 finishes immediately; its inbox must stay open (it rides in
    // its outcome) so the 1↔2 exchange cannot see a spurious disconnect,
    // under any teardown interleaving.
    loom::model(|| {
        let (outs, _) = NativeMachine::run(3, |comm| match comm.rank() {
            0 => 0.0,
            1 => {
                comm.send(2, 4, vec![41.0]);
                comm.recv(2, 5)[0]
            }
            _ => {
                let got = comm.recv(1, 4)[0];
                comm.send(1, 5, vec![got + 1.0]);
                got
            }
        });
        assert_eq!(outs, vec![0.0, 42.0, 41.0]);
    });
}

#[test]
fn two_senders_into_one_inbox_keep_each_fifo() {
    pin_watchdog();
    // rank 1's frames reach rank 0's inbox before rank 2's (rank 2 waits
    // for rank 1's token), yet rank 0 asks for rank 2's first: rank 1's
    // are filed aside, and each source still comes out in send order
    loom::model(|| {
        let (outs, _) = NativeMachine::run(3, |comm| match comm.rank() {
            0 => {
                let mut got = Vec::new();
                for src in [2, 1] {
                    for _ in 0..2 {
                        got.push(comm.recv(src, src as u64)[0]);
                    }
                }
                got
            }
            1 => {
                comm.send(0, 1, vec![10.0]);
                comm.send(0, 1, vec![11.0]);
                comm.send(2, 3, Vec::new());
                Vec::new()
            }
            _ => {
                comm.recv(1, 3);
                comm.send(0, 2, vec![20.0]);
                comm.send(0, 2, vec![21.0]);
                Vec::new()
            }
        });
        assert_eq!(outs[0], vec![20.0, 21.0, 10.0, 11.0]);
    });
}

#[test]
fn a_killed_rank_hands_back_and_the_next_launch_starts_clean() {
    pin_watchdog();
    // launch 1: rank 1 is killed at its first receive, possibly with rank
    // 0's frame still in its inbox, and its worker must hand back the
    // typed rank-down. Launch 2 runs on fresh inboxes: a stale frame from
    // launch 1 would surface as a tag mismatch, not as the payload.
    loom::model(|| {
        let plan = FaultPlan::new(3).with_kill_rank(1);
        let spec = MachineSpec { faults: Some(&plan), ..Default::default() };
        let err = NativeMachine::launch(2, &spec, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![1.0]);
            } else {
                comm.recv(0, 1);
            }
        })
        .map(|_| ())
        .expect_err("a killed rank cannot finish");
        assert!(matches!(err, MachineError::Down(d) if d.rank == 1), "{err}");
        let (outs, _) = NativeMachine::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 2, vec![2.0]);
                0.0
            } else {
                comm.recv(0, 2)[0]
            }
        });
        assert_eq!(outs, vec![0.0, 2.0]);
    });
}

#[test]
fn kill_rule_yields_typed_rankdown_in_every_schedule() {
    pin_watchdog();
    loom::model(|| {
        let plan = FaultPlan::new(3).with_kill_rank(1);
        let spec = MachineSpec { faults: Some(&plan), ..Default::default() };
        let err = match NativeMachine::launch(2, &spec, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![1.0]);
                comm.recv(1, 2)
            } else {
                let got = comm.recv(0, 1);
                comm.send(0, 2, got.clone());
                got
            }
        }) {
            Err(e) => e,
            Ok(_) => panic!("a killed rank cannot finish"),
        };
        // the verdict is schedule-independent: always the typed rank-down,
        // never a raw cascade panic or a hang
        match err {
            MachineError::Down(d) => assert_eq!(d.rank, 1),
            other => panic!("expected a typed rank-down, got {other}"),
        }
    });
}

#[test]
fn mutual_wait_surfaces_typed_hang_not_deadlock() {
    pin_watchdog();
    // both ranks wait on each other: a genuine protocol deadlock. The
    // watchdog must convert it into the typed HangError in every schedule
    // — including both elections of *which* rank's deadline fires first —
    // and the loser's teardown must cascade cleanly (no double panic, no
    // model-level deadlock verdict).
    loom::model(|| {
        let plan = FaultPlan::new(0); // empty: typed errors without injections
        let spec = MachineSpec { faults: Some(&plan), ..Default::default() };
        let err = match NativeMachine::launch(2, &spec, |comm| {
            let peer = comm.rank() ^ 1;
            comm.recv(peer, 99)
        }) {
            Err(e) => e,
            Ok(_) => panic!("a mutual wait cannot finish"),
        };
        match err {
            MachineError::Hang(h) => {
                assert_eq!(h.tag, 99);
                assert!(h.rank <= 1, "the hung rank is one of the two waiters");
            }
            other => panic!("expected a typed hang, got {other}"),
        }
    });
}

#[test]
fn watchdog_deadline_racing_a_late_send_always_delivers() {
    pin_watchdog();
    // the deadline-vs-arrival race: rank 0 delays its send across yield
    // points while rank 1 sits at the receive deadline. Loom's deadline
    // fires only at a genuine global stall, so with a live sender every
    // schedule — including the one where the message lands exactly as the
    // deadline would have fired — must end in delivery, never a timeout
    // verdict or a hang.
    loom::model(|| {
        let (outs, _) = NativeMachine::run(2, |comm| {
            if comm.rank() == 0 {
                loom::thread::yield_now();
                comm.send(1, 6, vec![7.0]);
                0.0
            } else {
                comm.recv(0, 6)[0]
            }
        });
        assert_eq!(outs, vec![0.0, 7.0]);
    });
}

/// Two checkpointed phases of pairwise exchange (the recovery tests'
/// schedule, sized for exhaustive exploration).
fn phased_exchange(comm: &mut NativeComm) -> f64 {
    let mut state = vec![comm.rank() as f64 + 1.0];
    for phase in 0..2u64 {
        if comm.phase_live() {
            let peer = comm.rank() ^ 1;
            comm.send(peer, 100 + phase, state.clone());
            let got = comm.recv(peer, 100 + phase);
            state[0] += got[0] * (phase + 1) as f64;
        }
        state = comm.commit_phase(state);
    }
    state[0]
}

#[test]
fn recovery_commit_rollback_takeover_is_schedule_independent() {
    pin_watchdog();
    // the full supervisor handshake under exhaustive interleaving: epoch 0
    // checkpoints at boundary 1, the kill rule unwinds rank 1's program,
    // the supervisor rolls back to the consistent cut, remaps the victim
    // onto the spare physical id, and the replay epoch restores from the
    // snapshot. Outputs and the takeover record must be bit-identical in
    // every schedule. Preemption bound 1 (not the default 2): two epochs
    // of two ranks give the deepest schedule tree in this suite, and every
    // blocking/teardown/election interleaving — the handshake's substance
    // — is explored regardless of the bound, which only caps *involuntary*
    // switches between consecutive atomic accesses.
    loom::Builder { max_preemptions: Some(1), max_iterations: 200_000 }.check(|| {
        let plan = FaultPlan::new(11).with_kill_rank_from(1, 1);
        let spec = MachineSpec {
            faults: Some(&plan),
            recovery: Some(RecoveryPolicy::default()),
            ..Default::default()
        };
        let MachineRun { outs, faults, recovery, .. } =
            NativeMachine::launch(2, &spec, phased_exchange)
                .expect("one spare is enough for one dead rank");
        let (faults, recovery) = (faults.expect("summary"), recovery.expect("ledger"));
        // fault-free value: phase 0 gives both ranks 1+2 = 3, phase 1 adds
        // 3·2 to each — recovery must land exactly there, bit-identically
        assert_eq!(outs, vec![9.0, 9.0], "recovered outputs match the fault-free run");
        assert!(recovery.restarts >= 1, "the kill must force a restart");
        assert_eq!(recovery.spare_takeovers, vec![(1, 2)]);
        assert_eq!(faults.unrecoverable, 0);
    });
}
