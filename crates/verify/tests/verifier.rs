//! The verifier verified: the seeded-bad fixture must fail with both of
//! its bugs named — the lint's tag reuse and the watchdog's typed hang —
//! and well-formed programs must stay quiet.

use apsp_simnet::script::CommEvent;
use apsp_simnet::{Comm, Machine, MachineSpec};
use apsp_transport::Transport;
use apsp_verify::{bad_fixture, lint_scripts, verify_program, Violation};

fn kinds(violations: &[Violation]) -> Vec<&'static str> {
    violations.iter().map(Violation::kind).collect()
}

#[test]
fn clean_program_verifies_clean() {
    let report = verify_program(4, |comm| {
        let group: Vec<usize> = (0..4).collect();
        let data = (comm.rank() == 0).then(|| vec![1.0, 2.0]);
        let out = comm.bcast(&group, 0, 7, data);
        comm.commit_phase(out)
    });
    assert!(report.is_clean(), "unexpected violations: {}", report.render());
    assert!(report.report.is_some(), "a run that completed carries its cost report");
    assert!(report.events > 0);
    assert!(report.render().contains("CLEAN"));
}

#[test]
fn bad_fixture_yields_tag_reuse_and_a_typed_hang() {
    // the cross receive only ends when the watchdog fires: shorten its
    // window (this binary's only setter, so no other test sees a
    // different value mid-run)
    std::env::set_var("APSP_WATCHDOG_MS", "300");
    let report = verify_program(4, bad_fixture);
    assert_eq!(kinds(&report.violations), vec!["tag-reuse-across-phases", "execution"]);
    assert!(report.report.is_none(), "a run that died has no cost report");
    // the lint reads the scripts the dead run left behind
    let Violation::TagReuseAcrossPhases { src, dst, tag, first_phase, other_phase } =
        &report.violations[0]
    else {
        unreachable!()
    };
    assert_eq!((*src, *dst, *tag), (0, 1, 0x7));
    assert_eq!((*first_phase, *other_phase), (0, 1));
    // the hang dump names who returned and who waits on whom
    let Violation::Execution { error } = &report.violations[1] else { unreachable!() };
    for needle in ["machine hung", "0: returned", "1: returned", "2⇐3", "3⇐2"] {
        assert!(error.contains(needle), "`{needle}` missing from {error}");
    }
    // the report renders both bugs readably
    let text = report.render();
    assert!(text.contains("FAILED"));
    assert!(text.contains("tag reuse across phases"));
    assert!(text.contains("machine hung"));
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
