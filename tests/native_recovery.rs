//! Native-backend fault tolerance, end to end: the kill matrix (every
//! solver × every rank killed at a phase boundary recovers to
//! bit-identical distances), empty-plan invisibility, and the zero
//! thread-leak guarantee across supervised restarts.
//!
//! Everything here runs on real OS threads: a `kill=R@B` rule unwinds a
//! rank's program mid-solve on its pool worker, and the supervisor runs
//! the next epoch with the dead rank remapped onto a spare.
//!
//! `CHAOS_SEED` (env var) reseeds the graphs and fault plans; the seed in
//! use is printed so any CI failure replays locally with
//! `CHAOS_SEED=<seed> cargo test --test native_recovery`.

use sparse_apsp::prelude::*;

/// The chaos seed: fixed by default, overridable for the CI randomized
/// run (same convention as `crates/simnet/tests/faults_prop.rs`).
fn chaos_seed() -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => s.parse().unwrap_or_else(|_| panic!("CHAOS_SEED must be a u64, got `{s}`")),
        Err(_) => 0xC1A05,
    }
}

/// This process's threads other than the rank-thread pool's parked
/// `apsp-rank` workers (same gauge as `tests/stress.rs`).
fn thread_count() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task lists the threads");
    let names =
        tasks.filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok());
    names.filter(|name| name.trim_end() != "apsp-rank").count()
}

/// A plain launch on the native backend.
fn native<S: Solver>(solver: &S) -> S::Result {
    launch(solver, &LaunchSpec { backend: Backend::Native, ..Default::default() })
        .expect("fault-free launch cannot fail")
        .result
}

/// A native launch under `plan`, unsupervised.
fn native_faulty<S: Solver>(
    solver: &S,
    plan: &FaultPlan,
) -> Result<(S::Result, FaultSummary), MachineError> {
    let spec = LaunchSpec { backend: Backend::Native, faults: Some(plan), ..Default::default() };
    launch(solver, &spec).map(|run| (run.result, run.faults.expect("summary")))
}

/// A native launch under `plan`, supervised by `policy`.
fn native_recovering<S: Solver>(
    solver: &S,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
) -> Result<(S::Result, FaultSummary, RecoveryReport), MachineError> {
    let spec = LaunchSpec {
        backend: Backend::Native,
        faults: Some(plan),
        recovery: Some(policy),
        ..Default::default()
    };
    launch(solver, &spec)
        .map(|run| (run.result, run.faults.expect("summary"), run.recovery.expect("ledger")))
}

/// The kill plan for one matrix cell: rank `r` dies at phase boundary 1.
fn kill_plan(seed: u64, rank: usize) -> FaultPlan {
    FaultPlan::new(seed ^ rank as u64).with_kill_rank_from(rank, 1)
}

#[test]
fn sparse2d_native_kill_matrix_recovers_bit_identically() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let g = grid2d(6, 6, WeightKind::Integer { max: 5 }, seed & 0xFFFF);
    let native_cfg = SparseApspConfig { backend: Backend::Native, ..Default::default() };
    let clean = SparseApsp::new(native_cfg).run(&g);
    let p = 9; // height 2 ⇒ (2² − 1)² ranks
    let before = thread_count();
    let mut restarts = 0u32;
    for victim in 0..p {
        let config = SparseApspConfig {
            backend: Backend::Native,
            recovery: Some(RecoveryPolicy::default()),
            ..Default::default()
        };
        let run = SparseApsp::new(config)
            .run_faulty(&g, &kill_plan(seed, victim))
            .unwrap_or_else(|e| panic!("victim {victim}: {e}"));
        assert!(
            run.dist.first_mismatch(&clean.dist, 0.0).is_none(),
            "victim {victim}: recovered distances differ from the fault-free native run"
        );
        assert_eq!(run.faults.expect("summary").unrecoverable, 0, "victim {victim}");
        restarts += run.recovery.expect("supervised").restarts;
    }
    assert!(restarts >= 1, "at least one cell of the matrix must actually restart");
    let after = thread_count();
    assert!(after <= before + 32, "kill matrix leaks threads: {before} -> {after}");
}

#[test]
fn fw2d_native_kill_matrix_recovers_bit_identically() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let g = grid2d(6, 6, WeightKind::Integer { max: 5 }, (seed & 0xFFFF) ^ 2);
    let n_grid = 2;
    let clean = native(&Fw2d::new(&g, n_grid));
    let before = thread_count();
    let mut restarts = 0u32;
    for victim in 0..n_grid * n_grid {
        let (out, faults, recovery) = native_recovering(
            &Fw2d::new(&g, n_grid),
            &kill_plan(seed, victim),
            RecoveryPolicy::default(),
        )
        .unwrap_or_else(|e| panic!("victim {victim}: {e}"));
        assert!(out.dist.first_mismatch(&clean.dist, 0.0).is_none(), "victim {victim}");
        assert_eq!(faults.unrecoverable, 0, "victim {victim}");
        restarts += recovery.restarts;
    }
    assert!(restarts >= 1, "at least one cell of the matrix must actually restart");
    let after = thread_count();
    assert!(after <= before + 32, "kill matrix leaks threads: {before} -> {after}");
}

#[test]
fn dcapsp_native_kill_matrix_recovers_bit_identically() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let g = grid2d(6, 6, WeightKind::Integer { max: 5 }, (seed & 0xFFFF) ^ 3);
    let (n_grid, depth) = (2, 1);
    let clean = native(&DcApsp::new(&g, n_grid, depth));
    let before = thread_count();
    let mut restarts = 0u32;
    for victim in 0..n_grid * n_grid {
        let (out, faults, recovery) = native_recovering(
            &DcApsp::new(&g, n_grid, depth),
            &kill_plan(seed, victim),
            RecoveryPolicy::default(),
        )
        .unwrap_or_else(|e| panic!("victim {victim}: {e}"));
        assert!(out.dist.first_mismatch(&clean.dist, 0.0).is_none(), "victim {victim}");
        assert_eq!(faults.unrecoverable, 0, "victim {victim}");
        restarts += recovery.restarts;
    }
    assert!(restarts >= 1, "at least one cell of the matrix must actually restart");
    let after = thread_count();
    assert!(after <= before + 32, "kill matrix leaks threads: {before} -> {after}");
}

#[test]
fn djohnson_native_kill_matrix_recovers_bit_identically() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let g = grid2d(6, 6, WeightKind::Integer { max: 5 }, (seed & 0xFFFF) ^ 4);
    let p = 4;
    let clean = native(&DJohnson::new(&g, p));
    let before = thread_count();
    for victim in 0..p {
        // djohnson's only communication is the phase-1 replication
        // broadcast, so kill the victim from boundary 0 — a boundary-1
        // kill would never fire (phase 2 is pure local Dijkstra)
        let plan = FaultPlan::new(seed ^ victim as u64).with_kill_rank(victim);
        let (out, faults, recovery) =
            native_recovering(&DJohnson::new(&g, p), &plan, RecoveryPolicy::default())
                .unwrap_or_else(|e| panic!("victim {victim}: {e}"));
        assert!(out.dist.first_mismatch(&clean.dist, 0.0).is_none(), "victim {victim}");
        assert_eq!(faults.unrecoverable, 0, "victim {victim}");
        assert!(recovery.restarts >= 1, "a boundary-0 kill must force a restart");
        assert_eq!(recovery.spare_takeovers, vec![(victim, p)], "victim {victim}");
    }
    let after = thread_count();
    assert!(after <= before + 32, "kill matrix leaks threads: {before} -> {after}");
}

#[test]
fn native_transient_chaos_recovers_without_the_supervisor() {
    // drop/dup/corrupt are transient: the retransmission protocol alone
    // (no checkpoints, no restarts) must deliver bit-identical distances
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let g = grid2d(6, 6, WeightKind::Integer { max: 5 }, (seed & 0xFFFF) ^ 5);
    let n_grid = 2;
    let clean = native(&Fw2d::new(&g, n_grid));
    let plan = FaultPlan::new(seed).with_drop(0.25).with_dup(0.1).with_corrupt(0.1);
    let (out, faults) =
        native_faulty(&Fw2d::new(&g, n_grid), &plan).expect("transient chaos always recovers");
    assert!(out.dist.first_mismatch(&clean.dist, 0.0).is_none());
    assert!(faults.injected() > 0, "25% drop over a real schedule must fire");
    assert!(faults.recovered() > 0);
    assert_eq!(faults.unrecoverable, 0);
    // and the digest is seed-reproducible on real threads
    let (_, again) = native_faulty(&Fw2d::new(&g, n_grid), &plan).expect("same seed, same story");
    assert_eq!(faults.digest(), again.digest());
}

#[test]
fn native_empty_plan_is_invisible() {
    // an empty plan must not change a single byte of any solver's output
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let g = grid2d(6, 6, WeightKind::Integer { max: 5 }, (seed & 0xFFFF) ^ 6);
    let empty = FaultPlan::new(seed);

    let clean = native(&Fw2d::new(&g, 2));
    let (faulty, summary) =
        native_faulty(&Fw2d::new(&g, 2), &empty).expect("empty plan cannot fail");
    assert!(clean.dist.first_mismatch(&faulty.dist, 0.0).is_none());
    assert_eq!(summary.injected(), 0);

    let clean = native(&DJohnson::new(&g, 4));
    let (faulty, summary) =
        native_faulty(&DJohnson::new(&g, 4), &empty).expect("empty plan cannot fail");
    assert!(clean.dist.first_mismatch(&faulty.dist, 0.0).is_none());
    assert_eq!(summary.injected(), 0);
}
