//! The verifier verified: both layers must catch the seeded-bad fixture
//! with the expected violation kinds, produce minimal bit-identically
//! replayable counterexamples, and stay quiet on well-formed programs.

use apsp_simnet::script::CommEvent;
use apsp_simnet::{Comm, Machine, MachineError, MachineSpec};
use apsp_transport::Transport;
use apsp_verify::{
    bad_fixture, digest_rows, lint_scripts, racy_fixture, verify_program, VerifyOptions, Violation,
};

fn kinds(violations: &[Violation]) -> Vec<&'static str> {
    violations.iter().map(Violation::kind).collect()
}

#[test]
fn clean_program_verifies_clean() {
    let report = verify_program(
        4,
        &VerifyOptions::default(),
        |comm| {
            let group: Vec<usize> = (0..4).collect();
            let data = (comm.rank() == 0).then(|| vec![1.0, 2.0]);
            let out = comm.bcast(&group, 0, 7, data);
            comm.commit_phase(out)
        },
        digest_rows,
    );
    assert!(report.is_clean(), "unexpected violations: {}", report.render());
    assert_eq!(report.schedules_run, 1, "no wildcards, nothing to explore");
    assert_eq!(report.choice_points, 0);
    assert!(report.events > 0);
    assert!(report.render().contains("CLEAN"));
}

#[test]
fn bad_fixture_layer1_catches_tag_reuse() {
    let report = verify_program(4, &VerifyOptions::default(), bad_fixture, digest_rows);
    assert!(!report.is_clean());
    let found = kinds(&report.violations);
    assert!(
        found.contains(&"tag-reuse-across-phases"),
        "layer 1 must flag the reused tag; found {found:?}"
    );
    let reuse =
        report.violations.iter().find(|v| v.kind() == "tag-reuse-across-phases").expect("present");
    let Violation::TagReuseAcrossPhases { src, dst, tag, first_phase, other_phase } = reuse else {
        unreachable!()
    };
    assert_eq!((*src, *dst, *tag), (0, 1, 0x7));
    assert_eq!((*first_phase, *other_phase), (0, 1));
}

#[test]
fn bad_fixture_layer2_catches_the_deadlock() {
    let report = verify_program(4, &VerifyOptions::default(), bad_fixture, digest_rows);
    let deadlock = report
        .violations
        .iter()
        .find(|v| v.kind() == "deadlock")
        .unwrap_or_else(|| panic!("layer 2 must flag the deadlock: {}", report.render()));
    let Violation::Deadlock { info, schedule } = deadlock else { unreachable!() };
    assert_eq!(schedule, &Vec::<usize>::new(), "baseline deadlock: minimal schedule is empty");
    assert_eq!(info.cycle, vec![2, 3], "the cross-recv cycle is named");
    // the counterexample replays bit-identically: same schedule, same
    // typed deadlock, same wait-for graph
    let replay = Machine::run_governed(4, schedule, bad_fixture);
    let err = replay.outcome.map(|_| ()).expect_err("deadlock must replay");
    let MachineError::Deadlock(replayed) = err else { panic!("expected deadlock, got {err}") };
    assert_eq!(&replayed, info, "bit-identical replay");
    // the report renders both bugs readably
    let text = report.render();
    assert!(text.contains("FAILED"));
    assert!(text.contains("tag reuse across phases"));
    assert!(text.contains("machine deadlocked"));
    assert!(text.contains("minimal counterexample schedule"));
}

#[test]
fn racy_fixture_explorer_finds_nondeterminism() {
    let report = verify_program(4, &VerifyOptions::default(), racy_fixture, digest_rows);
    let nondet = report
        .violations
        .iter()
        .find(|v| v.kind() == "nondeterminism")
        .unwrap_or_else(|| panic!("explorer must flag order sensitivity: {}", report.render()));
    let Violation::Nondeterminism { schedule, baseline_digest, digest } = nondet else {
        unreachable!()
    };
    assert_ne!(baseline_digest, digest);
    assert!(!schedule.is_empty(), "a non-default schedule witnesses the divergence");
    assert!(report.schedules_run > 1);
    assert!(report.choice_points > 0);
    // minimality: flipping any entry of the witness to its default (0)
    // or truncating its tail reproduces the baseline digest instead
    let digest_of = |s: &[usize]| {
        let run = Machine::run_governed(4, s, racy_fixture);
        digest_rows(&run.outcome.expect("racy fixture never deadlocks").0)
    };
    assert_eq!(digest_of(schedule), *digest, "witness replays bit-identically");
    assert_eq!(digest_of(schedule), digest_of(schedule), "and deterministically");
    let trimmed = &schedule[..schedule.len() - 1];
    assert_eq!(digest_of(trimmed), *baseline_digest, "shorter schedule no longer diverges");
    for i in 0..schedule.len() {
        if schedule[i] == 0 {
            continue;
        }
        let mut weakened = schedule.clone();
        weakened[i] -= 1;
        assert_ne!(
            digest_of(&weakened),
            *digest,
            "decrementing entry {i} must change the verdict (greedy minimum)"
        );
    }
}

#[test]
fn racy_fixture_single_schedule_is_replayable() {
    // each individual schedule is deterministic — nondeterminism only
    // exists *across* schedules
    for schedule in [vec![], vec![1], vec![2, 1]] {
        let a = Machine::run_governed(4, &schedule, racy_fixture);
        let b = Machine::run_governed(4, &schedule, racy_fixture);
        let (outs_a, report_a) = a.outcome.expect("clean");
        let (outs_b, report_b) = b.outcome.expect("clean");
        assert_eq!(outs_a, outs_b, "schedule {schedule:?}");
        assert_eq!(report_a.per_rank, report_b.per_rank);
        assert_eq!(a.choices, b.choices);
        assert_eq!(a.scripts, b.scripts);
    }
}

#[test]
fn explorer_respects_its_budget() {
    let opts = VerifyOptions { explore: true, max_schedules: 3 };
    let report = verify_program(6, &opts, racy_fixture, digest_rows);
    assert!(
        report.schedules_run <= 3 + 2,
        "budget plus at most shrink-confirmation overruns: {}",
        report.schedules_run
    );
}

#[test]
fn explore_can_be_disabled() {
    let opts = VerifyOptions { explore: false, ..VerifyOptions::default() };
    let report = verify_program(4, &opts, racy_fixture, digest_rows);
    assert_eq!(report.schedules_run, 1);
    assert!(report.is_clean(), "layer 1 has nothing against the racy fixture");
}

// --- linter unit coverage on hand-built scripts ---------------------------

#[test]
fn lint_flags_orphan_send_and_starved_recv() {
    let scripts = vec![
        vec![CommEvent::Send { dst: 1, tag: 1, words: 3, phase: 0 }],
        vec![CommEvent::Recv { src: 0, tag: 2, words: 1, phase: 0 }],
    ];
    // positional pairing: the one send and one recv pair up but disagree
    let violations = lint_scripts(&scripts);
    assert_eq!(kinds(&violations), vec!["pair-mismatch"]);

    let scripts = vec![
        vec![
            CommEvent::Send { dst: 1, tag: 1, words: 3, phase: 0 },
            CommEvent::Send { dst: 1, tag: 2, words: 1, phase: 0 },
        ],
        vec![CommEvent::Recv { src: 0, tag: 1, words: 3, phase: 0 }],
    ];
    let violations = lint_scripts(&scripts);
    assert_eq!(kinds(&violations), vec!["unmatched-send"]);

    let scripts = vec![Vec::new(), vec![CommEvent::Recv { src: 0, tag: 9, words: 0, phase: 0 }]];
    let violations = lint_scripts(&scripts);
    assert_eq!(kinds(&violations), vec!["unmatched-recv"]);
}

#[test]
fn lint_flags_phase_cut_crossing() {
    let scripts = vec![
        vec![CommEvent::Send { dst: 1, tag: 5, words: 2, phase: 0 }],
        vec![
            CommEvent::Commit { boundary: 1 },
            CommEvent::Recv { src: 0, tag: 5, words: 2, phase: 1 },
        ],
    ];
    let violations = lint_scripts(&scripts);
    assert_eq!(kinds(&violations), vec!["phase-cut-crossing"]);
    assert!(violations[0].to_string().contains("not quiescent at commit_phase"));
}

#[test]
fn lint_flags_collective_disagreement() {
    use apsp_simnet::script::CollectiveKind;
    let group = vec![0usize, 1];
    let scripts = vec![
        vec![CommEvent::Collective {
            kind: CollectiveKind::Bcast,
            group: group.clone(),
            root: 0,
            tag: 7,
            phase: 0,
        }],
        vec![CommEvent::Collective {
            kind: CollectiveKind::Bcast,
            group: group.clone(),
            root: 1,
            tag: 7,
            phase: 0,
        }],
    ];
    let violations = lint_scripts(&scripts);
    assert_eq!(kinds(&violations), vec!["collective-mismatch"]);
    assert!(violations[0].to_string().contains("collective order mismatch"));

    // a member that stops entering collectives early is also flagged
    let scripts = vec![
        vec![
            CommEvent::Collective {
                kind: CollectiveKind::Barrier,
                group: group.clone(),
                root: 0,
                tag: 1,
                phase: 0,
            },
            CommEvent::Collective {
                kind: CollectiveKind::Barrier,
                group: group.clone(),
                root: 0,
                tag: 2,
                phase: 0,
            },
        ],
        vec![CommEvent::Collective {
            kind: CollectiveKind::Barrier,
            group: group.clone(),
            root: 0,
            tag: 1,
            phase: 0,
        }],
    ];
    let violations = lint_scripts(&scripts);
    assert_eq!(kinds(&violations), vec!["collective-mismatch"]);
    assert!(violations[0].to_string().contains("no more collectives"));
}

#[test]
fn lint_flags_unbalanced_spans() {
    let scripts = vec![vec![
        CommEvent::SpanOpen { name: "outer" },
        CommEvent::SpanOpen { name: "inner" },
        CommEvent::SpanClose { name: "inner" },
    ]];
    let violations = lint_scripts(&scripts);
    assert_eq!(kinds(&violations), vec!["unbalanced-span"]);
    assert!(violations[0].to_string().contains("outer"));
}

#[test]
fn lint_accepts_a_recorded_collective_program() {
    // end-to-end: record a real collective-heavy program and lint it
    let recorded = MachineSpec { record: true, ..Default::default() };
    let scripts = Machine::launch(6, &recorded, |comm: &mut Comm| {
        let group: Vec<usize> = (0..6).collect();
        let data = (comm.rank() == 2).then(|| vec![1.0; 8]);
        let got = comm.bcast(&group, 2, 0x10, data);
        let reduced = comm.reduce_min(&group, 0, 0x20, got);
        comm.barrier(&group, 0x30);
        let state = comm.commit_phase(reduced.unwrap_or_default());
        comm.allgather(&group, 0x40, state)
    })
    .expect("clean run")
    .scripts;
    let violations = lint_scripts(&scripts);
    assert!(violations.is_empty(), "violations: {violations:?}");
}
