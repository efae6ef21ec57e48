//! Golden cost-model regression tests.
//!
//! The simulator is bit-deterministic, so the communication bill of a fixed
//! configuration is an exact constant. These pins protect the §3.1 cost
//! accounting (and the algorithms' schedules) from silent drift: if a
//! change legitimately alters a schedule or the clock rules, update the
//! constants *deliberately* and record why in the commit.

use sparse_apsp::prelude::*;

fn mesh12() -> Csr {
    grid2d(12, 12, WeightKind::Integer { max: 9 }, 7)
}

#[test]
fn sparse2d_h2_exact_bill() {
    let run = SparseApsp::new(SparseApspConfig {
        height: 2,
        ordering: Ordering::Grid { rows: 12, cols: 12 },
        ..Default::default()
    })
    .run(&mesh12());
    assert_eq!(run.report.critical_latency(), 12);
    assert_eq!(run.report.critical_bandwidth(), 15_264);
    assert_eq!(run.report.max_peak_words(), 7_056);
    assert_eq!(run.report.total_messages(), 22);
    assert_eq!(run.report.total_words(), 27_936);
    assert_eq!(run.level_costs, vec![(6, 12_384), (6, 2_880)]);
}

#[test]
fn sparse2d_h3_exact_bill() {
    let run = SparseApsp::new(SparseApspConfig {
        height: 3,
        ordering: Ordering::Grid { rows: 12, cols: 12 },
        ..Default::default()
    })
    .run(&mesh12());
    assert_eq!(run.report.critical_latency(), 27);
    assert_eq!(run.report.critical_bandwidth(), 9_684);
    assert_eq!(run.report.max_peak_words(), 2_160);
    assert_eq!(run.report.total_messages(), 186);
    assert_eq!(run.report.total_words(), 48_159);
    assert_eq!(run.level_costs, vec![(9, 5_688), (9, 1_368), (9, 2_628)]);
}

#[test]
fn fw2d_exact_bill() {
    let result = fw2d(&mesh12(), 3);
    assert_eq!(result.report.critical_latency(), 24);
    assert_eq!(result.report.critical_bandwidth(), 55_296);
    assert_eq!(result.report.total_messages(), 48);
}

#[test]
fn dcapsp_exact_bill() {
    let result = dc_apsp(&mesh12(), 3, 1);
    assert_eq!(result.report.critical_latency(), 120);
    assert_eq!(result.report.critical_bandwidth(), 69_120);
    assert_eq!(result.report.total_messages(), 312);
}

#[test]
fn update_exact_bill() {
    // a decrease batch is two all-reduces of fixed-size buffers: messages
    // and latency do not depend on k, words are 8k(q−1)n + 8k²q(q−1)
    let nd = grid_nd(12, 12, 3);
    let layout = SupernodalLayout::from_ordering(&nd);
    let solved = sparse2d(&layout, &mesh12().permuted(&nd.perm), R4Strategy::OneToOne);
    let blocks = solved.blocks;
    let edge = |i: usize| DecreasedEdge {
        u: nd.perm.to_new(i * 17 % 144),
        v: nd.perm.to_new((i * 17 + 71) % 144),
        new_weight: 1.0,
    };
    for (k, words, bandwidth) in [(1, 7_248, 888), (8, 76_800, 8_448)] {
        let batch: Vec<DecreasedEdge> = (0..k).map(edge).collect();
        let report = apply_decreases(&layout, &blocks, &batch).report;
        assert_eq!(report.total_messages(), 168, "k={k}");
        assert_eq!(report.critical_latency(), 12, "k={k}");
        assert_eq!(report.total_words(), words, "k={k}");
        assert_eq!(report.critical_bandwidth(), bandwidth, "k={k}");
    }
}

#[test]
fn collective_closed_forms_hold() {
    // the Lemma 5.6 building blocks: a g-member broadcast costs exactly
    // ⌈log₂ g⌉ critical-path messages on this machine
    for g in [2usize, 3, 5, 8, 13, 16] {
        let group: Vec<usize> = (0..g).collect();
        let (_, report) = Machine::run(g, |comm| {
            let data = (comm.rank() == 0).then(|| vec![1.0; 7]);
            comm.bcast(&group, 0, 0, data)
        });
        let rounds = (g as f64).log2().ceil() as u64;
        assert_eq!(report.critical_latency(), rounds, "g={g}");
        assert_eq!(report.critical_bandwidth(), 7 * rounds, "g={g}");
        assert_eq!(report.total_messages(), g as u64 - 1, "g={g}");
    }
}
