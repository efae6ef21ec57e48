//! Chaos suite for the fault-injection layer: random traffic and the real
//! APSP solvers under random recoverable fault plans still produce exact
//! results, replay bit-identically from their seed, and pay nothing when
//! the plan is empty.
//!
//! `CHAOS_SEED` (env var) reseeds the solver-level chaos runs; the seed in
//! use is printed so any CI failure replays locally with
//! `CHAOS_SEED=<seed> cargo test -p apsp-simnet --test faults_prop`.

use apsp_core::dcapsp::DcApsp;
use apsp_core::djohnson::DJohnson;
use apsp_core::fw2d::Fw2d;
use apsp_core::launch::{launch, LaunchSpec, Solver};
use apsp_core::sparse2d::{R4Strategy, Sparse2d};
use apsp_core::supernodal::SupernodalLayout;
use apsp_graph::generators::{self, WeightKind};
use apsp_graph::{oracle, DenseDist};
use apsp_simnet::{
    FaultPlan, FaultSummary, Machine, MachineError, MachineSpec, Rank, RecoveryPolicy,
    RecoveryReport, RunReport,
};
use proptest::prelude::*;

/// A simulated launch under `plan`, unsupervised.
fn faulty<S: Solver>(
    solver: &S,
    plan: &FaultPlan,
    profile: bool,
) -> Result<(S::Result, FaultSummary), MachineError> {
    let spec = LaunchSpec { faults: Some(plan), profile, ..Default::default() };
    launch(solver, &spec).map(|run| (run.result, run.faults.expect("summary")))
}

/// A simulated launch under `plan`, supervised by `policy`.
fn recovering<S: Solver>(
    solver: &S,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    profile: bool,
) -> Result<(S::Result, FaultSummary, RecoveryReport), MachineError> {
    let spec =
        LaunchSpec { faults: Some(plan), recovery: Some(policy), profile, ..Default::default() };
    launch(solver, &spec)
        .map(|run| (run.result, run.faults.expect("summary"), run.recovery.expect("ledger")))
}

/// The chaos seed: fixed by default, overridable for the CI randomized run.
fn chaos_seed() -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => s.parse().unwrap_or_else(|_| panic!("CHAOS_SEED must be a u64, got `{s}`")),
        Err(_) => 0xC1A05,
    }
}

/// A random recoverable plan: probabilistic faults only (no kill rules),
/// which the default retry budget recovers from by construction.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (0u64..1 << 48, 0.0f64..0.4, 0.0f64..0.3, 0.0f64..0.3, 0.0f64..0.4, 1u64..16, 1u64..4).prop_map(
        |(seed, drop, dup, corrupt, delay, units, slow)| {
            FaultPlan::new(seed)
                .with_drop(drop)
                .with_dup(dup)
                .with_corrupt(corrupt)
                .with_delay(delay, units)
                .with_straggler(0, slow)
        },
    )
}

/// A random one-shot traffic pattern (send-before-receive discipline, so
/// any pattern is deadlock-free), with position-dependent payloads so a
/// mis-delivered or corrupted word cannot go unnoticed.
#[derive(Clone, Debug)]
struct Pattern {
    p: usize,
    /// (src, dst, words), src ≠ dst
    messages: Vec<(Rank, Rank, usize)>,
}

fn arb_pattern(max_p: usize) -> impl Strategy<Value = Pattern> {
    (2..max_p).prop_flat_map(|p| {
        let msg = (0..p, 0..p, 0usize..24)
            .prop_filter_map("no self-sends", |(s, d, w)| (s != d).then_some((s, d, w)));
        proptest::collection::vec(msg, 1..24).prop_map(move |mut messages| {
            messages.sort();
            Pattern { p, messages }
        })
    })
}

fn payload_for(idx: usize, w: usize) -> Vec<f64> {
    (0..w).map(|k| (idx * 1000 + k) as f64 + 0.25).collect()
}

fn run_pattern_faulty(
    pattern: &Pattern,
    plan: &FaultPlan,
) -> (apsp_simnet::RunReport, apsp_simnet::FaultSummary) {
    let msgs = &pattern.messages;
    let spec = MachineSpec { faults: Some(plan), ..Default::default() };
    let run = Machine::launch(pattern.p, &spec, |comm| {
        let me = comm.rank();
        for (idx, &(s, d, w)) in msgs.iter().enumerate() {
            if s == me {
                comm.send(d, idx as u64, payload_for(idx, w));
            }
        }
        for (idx, &(s, d, w)) in msgs.iter().enumerate() {
            if d == me {
                let data = comm.recv(s, idx as u64);
                assert_eq!(data, payload_for(idx, w), "payload survived the faults");
            }
        }
    })
    .expect("probabilistic plans are recoverable by construction");
    (run.report, run.faults.expect("faulty run carries a summary"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_faults_deliver_exact_payloads(
        pattern in arb_pattern(9),
        plan in arb_plan(),
    ) {
        // correctness is asserted inside the rank program
        let (report, summary) = run_pattern_faulty(&pattern, &plan);
        prop_assert_eq!(summary.unrecoverable, 0);
        // every injected drop/corruption forced a visible retransmission
        let t = summary.totals();
        prop_assert_eq!(t.retransmissions, t.drops_injected + t.corruptions_injected);
        // recovery traffic is charged to the ordinary counters
        let physical: u64 = report.per_rank.iter().map(|r| r.sent_messages).sum();
        prop_assert_eq!(
            physical,
            pattern.messages.len() as u64 + t.retransmissions + t.duplicates_injected
        );
    }

    #[test]
    fn same_seed_replays_bit_identically(
        pattern in arb_pattern(8),
        plan in arb_plan(),
    ) {
        let (report_a, summary_a) = run_pattern_faulty(&pattern, &plan);
        let (report_b, summary_b) = run_pattern_faulty(&pattern, &plan);
        prop_assert_eq!(report_a.per_rank, report_b.per_rank);
        prop_assert_eq!(summary_a, summary_b);
    }

    #[test]
    fn empty_plan_is_byte_identical_to_no_fault_layer(
        pattern in arb_pattern(8),
        seed in 0u64..1 << 48,
    ) {
        // identical runs, with and without the (inactive) fault layer:
        // clocks, counters, span ledgers, comm matrix, and event streams
        // must all match exactly — the zero-overhead invariant guarding
        // the paper's Table 2 measurements
        let msgs = &pattern.messages;
        let program = |comm: &mut apsp_simnet::Comm| {
            let me = comm.rank();
            let mut work = comm.span("work", 0);
            let comm: &mut apsp_simnet::Comm = &mut work;
            for (idx, &(s, d, w)) in msgs.iter().enumerate() {
                if s == me {
                    comm.send(d, idx as u64, payload_for(idx, w));
                }
            }
            for (idx, &(s, d, _)) in msgs.iter().enumerate() {
                if d == me {
                    comm.recv(s, idx as u64);
                }
            }
            comm.compute(17);
        };
        let profiled = MachineSpec { profile: true, ..Default::default() };
        let plain = Machine::launch(pattern.p, &profiled, program).expect("fault-free").report;
        let empty = FaultPlan::new(seed);
        let faulted = MachineSpec { faults: Some(&empty), ..profiled };
        let run = Machine::launch(pattern.p, &faulted, program).expect("empty plan cannot fail");
        let (faulty, summary) = (run.report, run.faults.expect("summary"));
        prop_assert_eq!(&plain.per_rank, &faulty.per_rank);
        prop_assert_eq!(&plain.profile, &faulty.profile);
        prop_assert_eq!(summary.injected(), 0);
        prop_assert_eq!(summary.totals(), apsp_simnet::FaultStats::default());
    }
}

// ---------------------------------------------------------------------------
// Solver-level chaos: every solver, faulted, still equals the oracle
// ---------------------------------------------------------------------------

/// A few recoverable plans derived from the chaos seed, spanning the fault
/// modes (the last one mixes everything).
fn solver_plans(seed: u64) -> Vec<FaultPlan> {
    vec![
        FaultPlan::new(seed).with_drop(0.08),
        FaultPlan::new(seed ^ 0xD00D).with_corrupt(0.06).with_dup(0.05),
        FaultPlan::new(seed ^ 0xBEEF).with_delay(0.1, 6).with_straggler(1, 3),
        FaultPlan::new(seed ^ 0xFACE)
            .with_drop(0.05)
            .with_dup(0.04)
            .with_corrupt(0.04)
            .with_delay(0.05, 4),
    ]
}

fn corpus(seed: u64) -> Vec<apsp_graph::Csr> {
    let s = seed & 0xFFFF_FFFF;
    vec![
        generators::grid2d(5, 5, WeightKind::Integer { max: 6 }, s),
        generators::connected_gnp(24, 0.12, WeightKind::Uniform { lo: 0.3, hi: 2.0 }, s + 1),
        generators::path(17, WeightKind::Unit, 0),
    ]
}

fn assert_oracle(dist: &DenseDist, g: &apsp_graph::Csr, what: &str) {
    let reference = oracle::apsp_dijkstra(g);
    if let Some((i, j, a, b)) = dist.first_mismatch(&reference, 1e-9) {
        panic!("{what}: mismatch at ({i},{j}): got {a}, expected {b}");
    }
}

#[test]
fn fw2d_recovers_on_all_grid_sizes() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    for g in corpus(seed) {
        for n_grid in 1..=4usize {
            for (k, plan) in solver_plans(seed).into_iter().enumerate() {
                let (result, summary) = faulty(&Fw2d::new(&g, n_grid), &plan, false)
                    .unwrap_or_else(|e| panic!("p={}: {e}", n_grid * n_grid));
                assert_oracle(&result.dist, &g, &format!("fw2d p={} plan {k}", n_grid * n_grid));
                assert_eq!(summary.unrecoverable, 0);
            }
        }
    }
}

#[test]
fn dcapsp_recovers_on_all_grid_sizes() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    for g in corpus(seed) {
        for n_grid in 1..=4usize {
            let plan = solver_plans(seed).pop().expect("mixed plan");
            let (result, summary) = faulty(&DcApsp::new(&g, n_grid, 1), &plan, false)
                .unwrap_or_else(|e| panic!("p={}: {e}", n_grid * n_grid));
            assert_oracle(&result.dist, &g, &format!("dcapsp p={}", n_grid * n_grid));
            assert_eq!(summary.unrecoverable, 0);
        }
    }
}

#[test]
fn djohnson_recovers_on_all_rank_counts() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    for g in corpus(seed) {
        for p in [1usize, 4, 9, 16] {
            let plan = solver_plans(seed).swap_remove(1);
            let (result, summary) = faulty(&DJohnson::new(&g, p), &plan, false)
                .unwrap_or_else(|e| panic!("p={p}: {e}"));
            assert_oracle(&result.dist, &g, &format!("djohnson p={p}"));
            assert_eq!(summary.unrecoverable, 0);
        }
    }
}

#[test]
fn sparse2d_recovers_under_chaos() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    for g in corpus(seed) {
        for h in [1u32, 2] {
            let nd =
                apsp_partition::nested_dissection(&g, h, &apsp_partition::NdOptions::default());
            nd.validate(&g).expect("valid ordering");
            let layout = SupernodalLayout::from_ordering(&nd);
            let gp = g.permuted(&nd.perm);
            for (k, plan) in solver_plans(seed).into_iter().enumerate() {
                let (result, summary) =
                    faulty(&Sparse2d::new(&layout, &gp, R4Strategy::OneToOne), &plan, false)
                        .unwrap_or_else(|e| panic!("h={h} plan {k}: {e}"));
                let dist = SupernodalLayout::unpermute(&result.dist_eliminated, &nd.perm);
                assert_oracle(&dist, &g, &format!("sparse2d h={h} plan {k}"));
                assert_eq!(summary.unrecoverable, 0);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/restart chaos: dead ranks at every phase boundary
// ---------------------------------------------------------------------------

/// A recovering solver as a uniform closure: plan + policy in, distances
/// (in input vertex ids), report, fault summary, and recovery ledger out.
type RecoveringRun = Box<
    dyn Fn(
        &FaultPlan,
        RecoveryPolicy,
    ) -> Result<(DenseDist, RunReport, FaultSummary, RecoveryReport), MachineError>,
>;

/// Every checkpointable solver on a ~4-rank machine over the same graph.
/// (SuperFW is shared-memory and has no simulated ranks to kill.)
fn recoverable_solvers(g: &apsp_graph::Csr) -> Vec<(&'static str, RecoveringRun)> {
    let nd = apsp_partition::nested_dissection(g, 2, &apsp_partition::NdOptions::default());
    let layout = SupernodalLayout::from_ordering(&nd);
    let gp = g.permuted(&nd.perm);
    let (g1, g2, g3) = (g.clone(), g.clone(), g.clone());
    vec![
        (
            "fw2d",
            Box::new(move |plan: &FaultPlan, policy: RecoveryPolicy| {
                recovering(&Fw2d::new(&g1, 2), plan, policy, false)
                    .map(|(r, f, rec)| (r.dist, r.report, f, rec))
            }) as RecoveringRun,
        ),
        (
            "dcapsp",
            Box::new(move |plan: &FaultPlan, policy: RecoveryPolicy| {
                recovering(&DcApsp::new(&g2, 2, 1), plan, policy, false)
                    .map(|(r, f, rec)| (r.dist, r.report, f, rec))
            }),
        ),
        (
            "djohnson",
            Box::new(move |plan: &FaultPlan, policy: RecoveryPolicy| {
                recovering(&DJohnson::new(&g3, 4), plan, policy, false)
                    .map(|(r, f, rec)| (r.dist, r.report, f, rec))
            }),
        ),
        (
            "sparse2d",
            Box::new(move |plan: &FaultPlan, policy: RecoveryPolicy| {
                let solver = Sparse2d::new(&layout, &gp, R4Strategy::OneToOne);
                recovering(&solver, plan, policy, false).map(|(r, f, rec)| {
                    let dist = SupernodalLayout::unpermute(&r.dist_eliminated, &nd.perm);
                    (dist, r.report, f, rec)
                })
            }),
        ),
    ]
}

/// The acceptance matrix: every rank of every recoverable solver, killed
/// permanently at every phase boundary, still finishes oracle-equal under
/// the default policy — via one spare takeover when the kill actually
/// bites a live message.
#[test]
fn every_rank_killed_at_every_phase_boundary_recovers() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let g = generators::grid2d(4, 4, WeightKind::Integer { max: 5 }, seed & 0xFFFF);
    for (name, solve) in recoverable_solvers(&g) {
        // probe run: discovers the rank count and the boundary count
        let (dist, report, _, probe) = solve(&FaultPlan::new(seed), RecoveryPolicy::default())
            .unwrap_or_else(|e| panic!("{name}: clean recovering run failed: {e}"));
        assert_oracle(&dist, &g, &format!("{name} clean"));
        assert_eq!(probe.restarts, 0, "{name}: clean run restarted");
        let p = report.per_rank.len();
        let boundaries = probe.snapshots_taken / p as u64;
        assert!(boundaries >= 1, "{name}: no phase boundaries committed");
        assert_eq!(probe.snapshots_taken, boundaries * p as u64, "{name}: ragged snapshots");

        let mut exercised = 0u32;
        for r in 0..p {
            for b in 0..boundaries {
                let plan = FaultPlan::new(seed).with_kill_rank_from(r, b);
                let (dist, _, _, rec) = solve(&plan, RecoveryPolicy::default())
                    .unwrap_or_else(|e| panic!("{name}: kill {r}@{b} did not recover: {e}"));
                assert_oracle(&dist, &g, &format!("{name} kill {r}@{b}"));
                if rec.restarts > 0 {
                    exercised += 1;
                    // a permanent rank kill is only survivable by remapping
                    // the victim onto the one spare physical id
                    assert_eq!(
                        rec.spare_takeovers,
                        vec![(r, p)],
                        "{name} kill {r}@{b}: spare takeover"
                    );
                    assert_eq!(
                        rec.resume_boundaries.len(),
                        rec.restarts as usize,
                        "{name} kill {r}@{b}: one resume cut per restart"
                    );
                    // resuming past a non-zero cut replays from snapshots
                    if rec.resume_boundaries.iter().any(|&c| c > 0) {
                        assert!(rec.restores > 0, "{name} kill {r}@{b}: cut without restores");
                    }
                }
            }
        }
        assert!(exercised > 0, "{name}: the kill matrix never forced a restart");
    }
}

/// §3.1 exactness of the checkpoint layer itself: on a fault-free run the
/// recovering variant differs from the plain faulty one by *exactly* one
/// latency unit and one state's worth of bandwidth per boundary per rank —
/// and by nothing else (compute, message counts, and distances untouched).
#[test]
fn checkpoint_charges_land_exactly_in_the_ledgers() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let g = generators::grid2d(4, 4, WeightKind::Integer { max: 5 }, seed & 0xFFFF);
    let empty = FaultPlan::new(seed);
    let (plain, _) = faulty(&Fw2d::new(&g, 2), &empty, false).expect("clean");
    let (recov, _, rec) =
        recovering(&Fw2d::new(&g, 2), &empty, RecoveryPolicy::default(), false).expect("clean");
    assert_eq!(rec.restarts, 0);
    assert_eq!(rec.restores, 0);
    assert_eq!(rec.rollbacks, 0);
    let p = plain.report.per_rank.len() as u64;
    let boundaries = rec.snapshots_taken / p;
    // fw2d tiles are uniform, so per-rank snapshot charges are too
    let words_each = rec.snapshot_words / rec.snapshots_taken;
    let mut bandwidth_delta = 0u64;
    for (a, b) in plain.report.per_rank.iter().zip(&recov.report.per_rank) {
        assert_eq!(b.clocks.latency - a.clocks.latency, boundaries);
        assert_eq!(b.clocks.bandwidth - a.clocks.bandwidth, boundaries * words_each);
        assert_eq!(b.clocks.compute, a.clocks.compute);
        assert_eq!(b.sent_messages, a.sent_messages);
        assert_eq!(b.sent_words, a.sent_words);
        bandwidth_delta += b.clocks.bandwidth - a.clocks.bandwidth;
    }
    assert_eq!(bandwidth_delta, rec.snapshot_words, "snapshot ledger is exact");
    assert!(plain.dist.first_mismatch(&recov.dist, 0.0).is_none());
}

/// Same seed + same plan + same policy ⇒ a bit-identical recovery
/// trajectory: reports, profiles, fault summaries, the recovery ledger,
/// and its digest all replay exactly.
#[test]
fn recovery_replays_bit_identically() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let g = generators::grid2d(5, 5, WeightKind::Integer { max: 6 }, seed & 0xFFFF);
    let plan = FaultPlan::new(seed).with_drop(0.05).with_kill_rank_from(2, 1);
    let policy = RecoveryPolicy::default();
    let run = || recovering(&Fw2d::new(&g, 2), &plan, policy, true).expect("recoverable");
    let (res_a, sum_a, rec_a) = run();
    let (res_b, sum_b, rec_b) = run();
    assert_eq!(res_a.report.per_rank, res_b.report.per_rank);
    assert_eq!(res_a.report.profile, res_b.report.profile);
    assert_eq!(sum_a, sum_b);
    assert_eq!(rec_a, rec_b);
    assert_eq!(rec_a.digest(), rec_b.digest());
    assert!(rec_a.restarts >= 1, "the permanent kill fired");
}

/// Exhausting the budget (no spare for a permanent kill, or a zero restart
/// allowance) degrades to a *typed* `Unrecoverable` carrying the root
/// cause — never a panic or a hang.
#[test]
fn exhausted_budget_is_a_typed_unrecoverable() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let g = generators::grid2d(4, 4, WeightKind::Integer { max: 5 }, seed & 0xFFFF);
    let plan = FaultPlan::new(seed).with_kill_rank(1);

    // a permanent kill with no spare left cannot be outwaited
    let policy = RecoveryPolicy { max_restarts: 3, every: 1, spares: 0 };
    let err = match recovering(&Fw2d::new(&g, 2), &plan, policy, false) {
        Ok(_) => panic!("spare-less permanent kill must fail"),
        Err(e) => e,
    };
    let MachineError::Unrecoverable(u) = err else {
        panic!("expected Unrecoverable, got {err}");
    };
    assert!(matches!(*u.cause, MachineError::Fault(_)), "cause is the root fault");

    // a zero restart allowance fails on the first fault, budget-first
    let policy = RecoveryPolicy { max_restarts: 0, every: 1, spares: 1 };
    let err =
        match recovering(&DJohnson::new(&g, 4), &plan.clone().with_kill_rank(0), policy, false) {
            Ok(_) => panic!("zero restarts must fail"),
            Err(e) => e,
        };
    let MachineError::Unrecoverable(u) = err else {
        panic!("expected Unrecoverable, got {err}");
    };
    assert_eq!(u.restarts, 0);
}

#[test]
fn solver_chaos_replays_bit_identically() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let g = generators::grid2d(5, 5, WeightKind::Integer { max: 6 }, seed & 0xFFFF);
    let plan = solver_plans(seed).pop().expect("mixed plan");
    let run = || faulty(&Fw2d::new(&g, 3), &plan, true).expect("recoverable");
    let (res_a, sum_a) = run();
    let (res_b, sum_b) = run();
    assert_eq!(res_a.report.per_rank, res_b.report.per_rank);
    assert_eq!(res_a.report.profile, res_b.report.profile);
    assert_eq!(sum_a, sum_b);
    // and the fault history is visible in the profile's comm matrix:
    // physical messages (including retransmissions) are what it records
    let m = &res_a.report.profile.as_ref().expect("profiled").comm_matrix;
    let physical: u64 = (0..9).map(|s| m.row_messages(s)).sum();
    let logical = physical - sum_a.totals().retransmissions - sum_a.totals().duplicates_injected;
    assert!(logical > 0 && physical > logical, "recovery traffic shows in the comm matrix");
}
