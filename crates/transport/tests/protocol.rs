//! The rank endpoint's machine-independent contract, asserted once and run
//! on both machines: per-channel FIFO, typed tag-mismatch aborts, the
//! reliability protocol's exact fault ledger, kills, and checkpoint/restart
//! trajectories. Both machines run the same `apsp_simnet::Endpoint`; this
//! suite is what keeps "the same" true — a case that needs clocks or span
//! ledgers is the simulator's own and lives in
//! `crates/simnet/src/comm.rs`.

#![cfg(not(loom))]

use apsp_simnet::faults::INJECT_ATTEMPTS;
use apsp_simnet::{
    CommEvent, FaultPlan, FaultStats, FaultSummary, MachineError, MachineRun, MachineSpec, Rank,
    RankWait, RecoveryPolicy, RecoveryReport, RunReport,
};
use apsp_transport::{Machine, NativeMachine, Transport};

/// The one thing the machines disagree on: how a `kill=R` rule ends an
/// unsupervised epoch (the simulator drops R's messages until a retry
/// budget runs out; the native machine takes R's thread down).
struct Kill {
    /// `true` when `err` is this machine's verdict on killed rank `r`.
    is: fn(&MachineError, Rank) -> bool,
    /// What the verdict's display says when rank 1 is the victim.
    says: &'static str,
}

const SIM_KILL: Kill = Kill {
    is: |err, r| matches!(err, MachineError::Fault(fe) if fe.src == r || fe.dst == r),
    says: "unrecoverable fault",
};

const NATIVE_KILL: Kill =
    Kill { is: |err, r| matches!(err, MachineError::Down(d) if d.rank == r), says: "rank 1 down" };

#[test]
fn simulator_runs_the_protocol_suite() {
    suite::<apsp_simnet::Machine>(&SIM_KILL);
}

#[test]
fn native_machine_runs_the_protocol_suite() {
    suite::<NativeMachine>(&NATIVE_KILL);
}

fn suite<M: Machine>(kill: &Kill) {
    fifo_per_channel::<M>();
    results_come_back_in_rank_order::<M>();
    single_rank_machine_runs::<M>();
    commit_phase_is_transparent_without_recovery::<M>();
    tag_mismatch_is_typed_and_dumps_the_pending_queue::<M>();
    recv_from_a_returned_rank_is_a_typed_hang::<M>();
    self_send_panics::<M>();
    recording_is_invisible_and_scripts_are_exact::<M>();
    empty_plan_is_invisible::<M>();
    drops_are_retransmitted::<M>();
    corruption_is_detected_and_recovered::<M>();
    duplicates_are_discarded::<M>();
    chaos_is_recovered_and_deterministic::<M>();
    faulty_runs_replay_bit_identically::<M>();
    dead_link_fails_loudly_with_the_culprit::<M>();
    kill_rule_ends_the_epoch_typed::<M>(kill);
    rank_kill_recovers_via_spare_takeover::<M>(kill);
    recovery_replays_a_killed_rank_onto_a_spare::<M>();
    recovery_trajectories_replay_bit_identically::<M>();
    exhausted_restart_budget_degrades_to_typed_unrecoverable::<M>();
    exhausted_spares_degrade_to_typed_unrecoverable::<M>(kill);
}

fn plain<M: Machine, T: Send>(
    p: usize,
    f: impl Fn(&mut M::Comm) -> T + Sync,
) -> (Vec<T>, RunReport) {
    let run = M::launch(p, &MachineSpec::default(), f).expect("plain run");
    (run.outs, run.report)
}

#[allow(clippy::type_complexity)]
fn faulty<M: Machine, T: Send>(
    p: usize,
    plan: &FaultPlan,
    f: impl Fn(&mut M::Comm) -> T + Sync,
) -> Result<(Vec<T>, RunReport, FaultSummary), MachineError> {
    M::launch(p, &MachineSpec { faults: Some(plan), ..Default::default() }, f)
        .map(|run| (run.outs, run.report, run.faults.expect("faulty run carries a summary")))
}

#[allow(clippy::type_complexity)]
fn recovering<M: Machine, T: Send>(
    p: usize,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    f: impl Fn(&mut M::Comm) -> T + Sync,
) -> Result<(Vec<T>, RunReport, FaultSummary, RecoveryReport), MachineError> {
    let spec = MachineSpec { faults: Some(plan), recovery: Some(policy), ..Default::default() };
    M::launch(p, &spec, f).map(|run| {
        let (faults, recovery) = (run.faults.expect("summary"), run.recovery.expect("ledger"));
        (run.outs, run.report, faults, recovery)
    })
}

fn fifo_per_channel<M: Machine>() {
    let (outs, _) = plain::<M, _>(2, |comm| {
        if comm.rank() == 0 {
            for i in 0..100 {
                comm.send(1, i, vec![i as f64]);
            }
            Vec::new()
        } else {
            (0..100).map(|i| comm.recv(0, i)[0]).collect::<Vec<f64>>()
        }
    });
    let expect: Vec<f64> = (0..100).map(|i| i as f64).collect();
    assert_eq!(outs[1], expect);
}

fn results_come_back_in_rank_order<M: Machine>() {
    let (outs, _) = plain::<M, _>(5, |comm| comm.rank() * 10);
    assert_eq!(outs, vec![0, 10, 20, 30, 40]);
}

fn single_rank_machine_runs<M: Machine>() {
    let (outs, _) = plain::<M, _>(1, |comm| {
        comm.compute(10);
        comm.alloc(100);
        comm.release(100);
        comm.rank()
    });
    assert_eq!(outs, vec![0]);
}

fn commit_phase_is_transparent_without_recovery<M: Machine>() {
    let (outs, _) = plain::<M, _>(1, |comm| {
        let s1 = comm.commit_phase(vec![1.0]);
        let s2 = comm.commit_phase(vec![2.0]);
        assert!(comm.phase_live());
        (s1, s2)
    });
    assert_eq!(outs[0], (vec![1.0], vec![2.0]));
}

fn tag_mismatch_is_typed_and_dumps_the_pending_queue<M: Machine>() {
    // rank 1 only looks at its port from rank 0 once a token has gone
    // 0 → 2 → 1 behind both messages, so both are queued by then
    let err = M::launch(3, &MachineSpec::default(), |comm| match comm.rank() {
        0 => {
            comm.send(1, 0xA, vec![1.0]);
            comm.send(1, 0xB, vec![2.0, 3.0]);
            comm.send(2, 0x60, Vec::new());
        }
        1 => {
            comm.recv(2, 0x60);
            comm.recv(0, 0xC);
        }
        _ => {
            let token = comm.recv(0, 0x60);
            comm.send(1, 0x60, token);
        }
    })
    .expect_err("a tag mismatch must abort the run");
    let msg = err.to_string();
    let MachineError::Protocol(pe) = err else { panic!("expected a protocol error, got {msg}") };
    assert_eq!((pe.rank, pe.src, pe.expected, pe.actual), (1, 0, 0xC, 0xA));
    assert_eq!(pe.pending, vec![(0xB, 2)]);
    assert!(msg.contains("schedule mismatch"), "kept the grep-able phrase: {msg}");
    assert!(msg.contains("tag 0xa"), "actual tag named: {msg}");
    assert!(msg.contains("expected 0xc"), "expected tag named: {msg}");
    assert!(msg.contains("pending from 0"), "pending queue dumped: {msg}");
    assert!(msg.contains("tag 0xb (2 words)"), "queued message described: {msg}");
}

#[expect(
    clippy::disallowed_methods,
    reason = "the test times the watchdog's answer against its window"
)]
fn recv_from_a_returned_rank_is_a_typed_hang<M: Machine>() {
    // rank 0 returns without sending: nothing can ever arrive, and the
    // watchdog says so at its next tick rather than after a whole window
    let started = std::time::Instant::now();
    let err = M::launch(2, &MachineSpec::default(), |comm| {
        if comm.rank() == 1 {
            comm.recv(0, 9);
        }
    })
    .map(|_| ())
    .expect_err("a receive from a rank that returned cannot complete");
    let MachineError::Hang(hang) = err else { panic!("expected a typed hang, got {err}") };
    assert_eq!((hang.rank, hang.src, hang.tag), (1, 0, 9));
    assert_eq!(
        hang.blocked,
        vec![RankWait::Returned, RankWait::On(0, 9)],
        "who returned, who waits"
    );
    assert!(hang.to_string().contains("0: returned"), "{hang}");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(4),
        "declared within a tick, not after the 5 s window: {:?}",
        started.elapsed()
    );
}

fn self_send_panics<M: Machine>() {
    let payload = std::panic::catch_unwind(|| plain::<M, _>(1, |comm| comm.send(0, 0, Vec::new())))
        .expect_err("a self-send must panic");
    let msg = payload.downcast_ref::<String>().expect("assertion message");
    assert!(msg.contains("self-send"), "{msg}");
}

fn recording_is_invisible_and_scripts_are_exact<M: Machine>() {
    fn program<C: Transport>(comm: &mut C) -> Vec<f64> {
        match comm.rank() {
            0 => {
                comm.send(1, 7, vec![1.0, 2.0]);
                let mut state = comm.commit_phase(vec![0.0]);
                state[0] = comm.recv(1, 8)[0];
                state
            }
            _ => {
                let got = comm.recv(0, 7);
                let state = comm.commit_phase(vec![got[0]]);
                comm.send(0, 8, vec![9.0]);
                state
            }
        }
    }
    let MachineRun { outs, report, scripts, .. } =
        M::launch(2, &MachineSpec { record: true, ..Default::default() }, program)
            .expect("clean run");
    let (plain_outs, plain_report) = plain::<M, _>(2, program);
    assert_eq!(outs, plain_outs);
    assert_eq!(report.per_rank, plain_report.per_rank, "recording is zero-cost");
    // the logical events; the cost-only ones are the bill's
    let scripts: Vec<Vec<CommEvent>> = scripts
        .into_iter()
        .map(|log| log.into_iter().filter(|ev| !ev.is_cost_only()).collect())
        .collect();
    assert_eq!(
        scripts[0],
        vec![
            CommEvent::Send { dst: 1, tag: 7, words: 2, phase: 0 },
            CommEvent::Commit { boundary: 1 },
            CommEvent::Recv { src: 1, tag: 8, words: 1, phase: 1 },
        ]
    );
    assert_eq!(
        scripts[1],
        vec![
            CommEvent::Recv { src: 0, tag: 7, words: 2, phase: 0 },
            CommEvent::Commit { boundary: 1 },
            CommEvent::Send { dst: 0, tag: 8, words: 1, phase: 1 },
        ]
    );
}

/// Rank 0 sends `rounds` messages to rank 1 and receives each echo back
/// doubled.
fn echo_rounds<C: Transport>(comm: &mut C, rounds: u64) -> f64 {
    let mut acc = 0.0;
    for i in 0..rounds {
        match comm.rank() {
            0 => {
                comm.send(1, 40 + i, vec![i as f64, 0.5]);
                acc += comm.recv(1, 80 + i)[0];
            }
            _ => {
                let got = comm.recv(0, 40 + i);
                comm.send(0, 80 + i, vec![2.0 * got[0]]);
                acc += got[0];
            }
        }
    }
    acc
}

fn empty_plan_is_invisible<M: Machine>() {
    let (plain_outs, plain_report) = plain::<M, _>(2, |comm| echo_rounds(comm, 20));
    let (outs, report, summary) =
        faulty::<M, _>(2, &FaultPlan::new(42), |comm| echo_rounds(comm, 20))
            .expect("empty plan cannot fail");
    assert_eq!(outs, plain_outs);
    assert_eq!(plain_report.per_rank, report.per_rank, "empty plan must not perturb any cost");
    assert_eq!((summary.injected(), summary.recovered(), summary.unrecoverable), (0, 0, 0));
    assert_eq!(summary.totals(), FaultStats::default());
}

/// A two-rank ping-pong under a given plan.
fn faulty_ping_pong<M: Machine>(plan: &FaultPlan) -> FaultSummary {
    let (outs, _, summary) = faulty::<M, _>(2, plan, |comm| match comm.rank() {
        0 => {
            comm.send(1, 1, vec![1.0, 2.0, 3.0]);
            comm.recv(1, 2)
        }
        _ => {
            let data = comm.recv(0, 1);
            assert_eq!(data, vec![1.0, 2.0, 3.0]);
            comm.send(0, 2, vec![9.0]);
            data
        }
    })
    .expect("recoverable plan");
    assert_eq!(outs[0], vec![9.0]);
    summary
}

fn drops_are_retransmitted<M: Machine>() {
    // every eligible attempt drops
    let t = faulty_ping_pong::<M>(&FaultPlan::new(7).with_drop(1.0)).totals();
    assert_eq!(t.drops_injected, 2 * INJECT_ATTEMPTS as u64);
    assert_eq!(t.retransmissions, t.drops_injected);
    assert_eq!(t.recovered_messages, 2);
    assert!(t.backoff_latency > 0);
}

fn corruption_is_detected_and_recovered<M: Machine>() {
    let t = faulty_ping_pong::<M>(&FaultPlan::new(11).with_corrupt(1.0)).totals();
    assert_eq!(t.corruptions_injected, 2 * INJECT_ATTEMPTS as u64);
    assert_eq!(t.corruptions_detected, t.corruptions_injected);
    assert_eq!(t.recovered_messages, 2);
}

fn duplicates_are_discarded<M: Machine>() {
    // three messages on one channel: each duplicate is discarded when
    // the receiver pulls the next message (the last one's copy stays
    // in the queue — nothing ever asks for it)
    let plan = FaultPlan::new(13).with_dup(1.0);
    let (_, _, summary) = faulty::<M, _>(2, &plan, |comm| {
        if comm.rank() == 0 {
            for i in 0..3 {
                comm.send(1, i, vec![i as f64]);
            }
        } else {
            for i in 0..3 {
                assert_eq!(comm.recv(0, i), vec![i as f64]);
            }
        }
    })
    .expect("duplication is always recoverable");
    let t = summary.totals();
    assert_eq!(t.duplicates_injected, 3);
    assert_eq!(t.duplicates_discarded, 2);
    assert_eq!(t.recovered_messages, 0, "duplication needs no retransmit");
}

fn chaos_is_recovered_and_deterministic<M: Machine>() {
    let plan =
        FaultPlan::new(42).with_drop(0.2).with_dup(0.15).with_corrupt(0.15).with_delay(0.1, 4);
    let run = || {
        faulty::<M, _>(2, &plan, |comm| echo_rounds(comm, 40))
            .expect("transient chaos always recovers")
    };
    let (outs_a, _, faults_a) = run();
    let (plain_outs, _) = plain::<M, _>(2, |comm| echo_rounds(comm, 40));
    assert_eq!(outs_a, plain_outs, "recovered run matches the fault-free run exactly");
    assert!(faults_a.injected() > 0, "this seed injects something over 80 messages");
    assert_eq!(faults_a.unrecoverable, 0);
    // seed-reproducible under real thread scheduling: injection is a
    // pure function of (plan, channel, seq, attempt)
    let (outs_b, _, faults_b) = run();
    assert_eq!(outs_a, outs_b);
    assert_eq!(faults_a.digest(), faults_b.digest());
}

fn faulty_runs_replay_bit_identically<M: Machine>() {
    let plan = FaultPlan::new(29).with_drop(0.4).with_dup(0.3).with_corrupt(0.2);
    let run = || {
        faulty::<M, _>(4, &plan, |comm| {
            let r = comm.rank();
            let peer = r ^ 1;
            if r < peer {
                comm.send(peer, 3, vec![r as f64; 5]);
                comm.recv(peer, 4)
            } else {
                let got = comm.recv(peer, 3);
                comm.send(peer, 4, vec![0.5]);
                got
            }
        })
        .expect("recoverable plan")
    };
    let (outs_a, report_a, summary_a) = run();
    let (outs_b, report_b, summary_b) = run();
    assert_eq!(outs_a, outs_b);
    assert_eq!(report_a.per_rank, report_b.per_rank);
    assert_eq!(summary_a, summary_b);
}

fn dead_link_fails_loudly_with_the_culprit<M: Machine>() {
    let plan = FaultPlan::new(23).with_kill(0, 1);
    let err = faulty::<M, _>(2, &plan, |comm| match comm.rank() {
        0 => comm.send(1, 5, vec![1.0]),
        _ => drop(comm.recv(0, 5)),
    })
    .expect_err("dead link is unrecoverable");
    assert!(err.to_string().contains("unrecoverable fault"));
    let MachineError::Fault(err) = err else { panic!("expected a fault error, got {err}") };
    assert_eq!((err.src, err.dst, err.tag), (0, 1, 5));
}

fn kill_rule_ends_the_epoch_typed<M: Machine>(kill: &Kill) {
    let plan = FaultPlan::new(3).with_kill_rank(1);
    let err = faulty::<M, _>(2, &plan, |comm| echo_rounds(comm, 4))
        .expect_err("a killed rank cannot finish");
    assert!((kill.is)(&err, 1), "expected this machine's typed kill verdict, got {err}");
}

/// A relay pipeline with `phases` checkpointable phases: each phase,
/// rank 0 sends `phase` to 1, which forwards it to 2; every rank folds
/// the value into its state, so the final state is Σ 1..=phases.
fn relay<C: Transport>(phases: u64) -> impl Fn(&mut C) -> Vec<f64> + Sync {
    move |comm| {
        let mut state = vec![0.0];
        for phase in 1..=phases {
            if comm.phase_live() {
                let x = match comm.rank() {
                    0 => {
                        comm.send(1, phase, vec![phase as f64]);
                        phase as f64
                    }
                    1 => {
                        let v = comm.recv(0, phase);
                        comm.send(2, phase, v.clone());
                        v[0]
                    }
                    _ => comm.recv(1, phase)[0],
                };
                state[0] += x;
            }
            state = comm.commit_phase(state);
        }
        state
    }
}

fn rank_kill_recovers_via_spare_takeover<M: Machine>(kill: &Kill) {
    // rank 1 dies at boundary 1: phase 2 cannot get through it, so only a
    // spare-rank takeover can finish the run
    let plan = FaultPlan::new(41).with_kill_rank_from(1, 1);
    let (outs, _, summary, recovery) =
        recovering::<M, _>(3, &plan, RecoveryPolicy::default(), relay(3))
            .expect("spare takeover recovers the run");
    assert_eq!(outs, vec![vec![6.0]; 3], "oracle-equal after recovery");
    assert_eq!(recovery.restarts, 1);
    assert_eq!(recovery.resume_boundaries, vec![1], "resumed at the consistent cut");
    assert_eq!(recovery.spare_takeovers, vec![(1, 3)]);
    assert_eq!(recovery.restores, 3, "each rank restored once");
    assert_eq!(summary.unrecoverable, 0, "the final epoch is clean");
    assert_eq!(recovery.causes.len(), 1);
    assert!(recovery.causes[0].contains(kill.says), "{}", recovery.causes[0]);
}

/// Three checkpointed phases of pairwise exchange; the state word
/// accumulates so a wrong rollback/replay is visible in the output.
fn phased_exchange<C: Transport>(comm: &mut C) -> f64 {
    let mut state = vec![comm.rank() as f64 + 1.0];
    for phase in 0..3u64 {
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

fn recovery_replays_a_killed_rank_onto_a_spare<M: Machine>() {
    let plan = FaultPlan::new(11).with_kill_rank_from(1, 1);
    let (outs, _, faults, recovery) =
        recovering::<M, _>(2, &plan, RecoveryPolicy::default(), phased_exchange)
            .expect("one spare is enough for one dead rank");
    let (clean, _) = plain::<M, _>(2, phased_exchange);
    assert_eq!(outs, clean, "recovered outputs are bit-identical to fault-free");
    assert!(recovery.restarts >= 1, "the kill must force a restart");
    assert_eq!(recovery.spare_takeovers, vec![(1, 2)]);
    assert!(recovery.restores >= 1, "replay resumes from a checkpoint");
    assert_eq!(faults.unrecoverable, 0);
    // the whole trajectory is replayable bit-for-bit
    let (outs_b, _, _, recovery_b) =
        recovering::<M, _>(2, &plan, RecoveryPolicy::default(), phased_exchange)
            .expect("identical trajectory");
    assert_eq!(outs, outs_b);
    assert_eq!(recovery.digest(), recovery_b.digest());
}

fn recovery_trajectories_replay_bit_identically<M: Machine>() {
    let plan = FaultPlan::new(43).with_drop(0.3).with_kill_rank_from(2, 2);
    let run =
        || recovering::<M, _>(3, &plan, RecoveryPolicy::default(), relay(4)).expect("recovers");
    let (outs_a, report_a, summary_a, recovery_a) = run();
    let (outs_b, report_b, summary_b, recovery_b) = run();
    assert_eq!(outs_a, outs_b);
    assert_eq!(outs_a, vec![vec![10.0]; 3]);
    assert_eq!(report_a.per_rank, report_b.per_rank);
    assert_eq!(summary_a, summary_b);
    assert_eq!(recovery_a, recovery_b, "the whole trajectory replays");
}

fn exhausted_restart_budget_degrades_to_typed_unrecoverable<M: Machine>() {
    // a dead link with no spares left: the supervisor must give up
    // with a typed report, not panic or hang
    let plan = FaultPlan::new(47).with_kill(0, 1);
    let policy = RecoveryPolicy { max_restarts: 2, every: 1, spares: 0 };
    let err = recovering::<M, _>(3, &plan, policy, relay(2))
        .map(|_| ())
        .expect_err("a kill with no spares cannot recover");
    let MachineError::Unrecoverable(u) = err else { panic!("expected Unrecoverable, got {err}") };
    assert!(matches!(*u.cause, MachineError::Fault(_)));
    assert_eq!(u.partial.unrecoverable, 1);
    assert_eq!(u.partial.per_rank.len(), 3);
    assert!(u.to_string().contains("unrecoverable after"));
}

fn exhausted_spares_degrade_to_typed_unrecoverable<M: Machine>(kill: &Kill) {
    let plan = FaultPlan::new(5).with_kill_rank(1);
    let policy = RecoveryPolicy { max_restarts: 3, every: 1, spares: 0 };
    let err = recovering::<M, _>(2, &plan, policy, phased_exchange)
        .map(|_| ())
        .expect_err("no spares means no takeover");
    let MachineError::Unrecoverable(u) = err else { panic!("expected Unrecoverable, got {err}") };
    assert_eq!(u.partial.unrecoverable, 1);
    assert!((kill.is)(&u.cause, 1), "{}", u.cause);
}
