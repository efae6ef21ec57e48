//! Property tests for the simulated machine: deterministic clocks, exact
//! accounting identities, and collective correctness under random groups.

use apsp_simnet::{Machine, MachineRun, MachineSpec, Rank};
use apsp_transport::Transport;
use proptest::prelude::*;

/// A random one-shot traffic pattern: every rank sends its listed messages
/// (sorted by destination), then receives everything destined to it
/// (sorted by source) — the send-before-receive discipline the library's
/// algorithms follow, so any pattern is deadlock-free.
#[derive(Clone, Debug)]
struct Pattern {
    p: usize,
    /// (src, dst, words), src ≠ dst
    messages: Vec<(Rank, Rank, usize)>,
}

fn arb_pattern(max_p: usize) -> impl Strategy<Value = Pattern> {
    (2..max_p).prop_flat_map(|p| {
        let msg = (0..p, 0..p, 0usize..40)
            .prop_filter_map("no self-sends", |(s, d, w)| (s != d).then_some((s, d, w)));
        proptest::collection::vec(msg, 0..30).prop_map(move |mut messages| {
            // deterministic global order shared by senders and receivers
            messages.sort();
            Pattern { p, messages }
        })
    })
}

fn run_pattern(pattern: &Pattern) -> apsp_simnet::RunReport {
    let msgs = &pattern.messages;
    let (_, report) = Machine::run(pattern.p, |comm| {
        let me = comm.rank();
        // sends in global order (tag = message index)
        for (idx, &(s, d, w)) in msgs.iter().enumerate() {
            if s == me {
                comm.send(d, idx as u64, vec![0.5; w]);
            }
        }
        for (idx, &(s, d, w)) in msgs.iter().enumerate() {
            if d == me {
                let data = comm.recv(s, idx as u64);
                assert_eq!(data.len(), w);
            }
        }
    });
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn totals_match_the_pattern(pattern in arb_pattern(9)) {
        let report = run_pattern(&pattern);
        let words: usize = pattern.messages.iter().map(|&(_, _, w)| w).sum();
        prop_assert_eq!(report.total_messages(), pattern.messages.len() as u64);
        prop_assert_eq!(report.total_words(), words as u64);
    }

    #[test]
    fn critical_path_is_bounded_by_totals_and_maxima(pattern in arb_pattern(9)) {
        let report = run_pattern(&pattern);
        // critical latency: at least the busiest endpoint, at most the total
        let mut busiest = 0u64;
        for r in 0..pattern.p {
            let touched = pattern
                .messages
                .iter()
                .filter(|&&(s, d, _)| s == r || d == r)
                .count() as u64;
            busiest = busiest.max(touched);
        }
        prop_assert!(report.critical_latency() >= busiest.min(report.total_messages()));
        prop_assert!(report.critical_latency() <= report.total_messages());
        prop_assert!(report.critical_bandwidth() <= report.total_words());
    }

    #[test]
    fn clocks_are_reproducible(pattern in arb_pattern(8)) {
        let a = run_pattern(&pattern);
        let b = run_pattern(&pattern);
        for (x, y) in a.per_rank.iter().zip(&b.per_rank) {
            prop_assert_eq!(x.clocks, y.clocks);
        }
    }

    #[test]
    fn bcast_reaches_every_subset(p in 2usize..9, mask in 1u32..200, root_pick in 0usize..8) {
        // group = the set bits of `mask` within 0..p (at least one member)
        let group: Vec<usize> = (0..p).filter(|&r| mask & (1 << r) != 0).collect();
        prop_assume!(!group.is_empty());
        let root = group[root_pick % group.len()];
        let (outs, _) = Machine::run(p, |comm| {
            if !group.contains(&comm.rank()) {
                return None;
            }
            let data = (comm.rank() == root).then(|| vec![root as f64, 42.0]);
            Some(comm.bcast(&group, root, 7, data))
        });
        for (r, out) in outs.iter().enumerate() {
            if group.contains(&r) {
                prop_assert_eq!(out.as_deref(), Some(&[root as f64, 42.0][..]));
            } else {
                prop_assert!(out.is_none());
            }
        }
    }

    #[test]
    fn reduce_min_is_exact_over_random_contributions(
        p in 2usize..8,
        values in proptest::collection::vec(0.0f64..100.0, 2..8)
    ) {
        let p = p.min(values.len());
        let group: Vec<usize> = (0..p).collect();
        let vals = values[..p].to_vec();
        let expected = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let (outs, _) = Machine::run(p, |comm| {
            comm.reduce_min(&group, 0, 3, vec![vals[comm.rank()]])
        });
        prop_assert_eq!(outs[0].as_deref(), Some(&[expected][..]));
    }

    #[test]
    fn allgather_permutation_invariant(p in 2usize..8) {
        let group: Vec<usize> = (0..p).collect();
        let (outs, _) = Machine::run(p, |comm| {
            comm.allgather(&group, 5, vec![comm.rank() as f64; comm.rank() + 1])
        });
        for out in outs {
            prop_assert_eq!(out.len(), p);
            for (pos, part) in out.iter().enumerate() {
                prop_assert_eq!(part.len(), pos + 1);
                prop_assert!(part.iter().all(|&x| x == pos as f64));
            }
        }
    }
}

#[test]
fn trace_records_every_send_in_order() {
    let traced = MachineSpec { trace: true, ..Default::default() };
    let MachineRun { report, traces, .. } = Machine::launch(3, &traced, |comm| match comm.rank() {
        0 => {
            comm.send(1, 10, vec![1.0]);
            comm.send(2, 11, vec![2.0, 3.0]);
        }
        1 => {
            let _ = comm.recv(0, 10);
            comm.send(2, 12, vec![]);
        }
        2 => {
            let _ = comm.recv(0, 11);
            let _ = comm.recv(1, 12);
        }
        _ => unreachable!(),
    })
    .expect("fault-free launch");
    assert_eq!(traces[0].len(), 2);
    assert_eq!(traces[0][0].dst, 1);
    assert_eq!(traces[0][1].words, 2);
    assert_eq!(traces[1].len(), 1);
    assert_eq!(traces[1][0].tag, 12);
    assert!(traces[2].is_empty());
    // tracing does not change the accounting
    assert_eq!(report.total_messages(), 3);
    assert_eq!(report.total_words(), 3);
}

#[test]
fn trace_audits_a_broadcast_tree() {
    // total sends of a g-member binomial broadcast = g − 1
    for g in 2..10usize {
        let group: Vec<usize> = (0..g).collect();
        let traced = MachineSpec { trace: true, ..Default::default() };
        let traces = Machine::launch(g, &traced, |comm| {
            let data = (comm.rank() == 0).then(|| vec![1.0; 4]);
            comm.bcast(&group, 0, 1, data)
        })
        .expect("fault-free launch")
        .traces;
        let sends: usize = traces.iter().map(|t| t.len()).sum();
        assert_eq!(sends, g - 1, "g={g}");
        // every rank except the root appears exactly once as a destination
        let mut seen = vec![0usize; g];
        for t in traces.iter().flatten() {
            seen[t.dst] += 1;
        }
        assert_eq!(seen[0], 0);
        assert!(seen[1..].iter().all(|&c| c == 1));
    }
}

/// Like [`run_pattern`], but profiled and with a span hierarchy: one
/// top-level `work` span whose `send`/`recv` children tile it exactly (no
/// clock activity happens between a child's exit and the next enter).
fn run_pattern_profiled(pattern: &Pattern) -> apsp_simnet::RunReport {
    let msgs = &pattern.messages;
    let profiled = MachineSpec { profile: true, ..Default::default() };
    let run = Machine::launch(pattern.p, &profiled, |comm| {
        let me = comm.rank();
        let mut work = comm.span("work", 0);
        let comm: &mut apsp_simnet::Comm = &mut work;
        {
            let mut comm = comm.span("send", 0);
            for (idx, &(s, d, w)) in msgs.iter().enumerate() {
                if s == me {
                    comm.send(d, idx as u64, vec![0.5; w]);
                }
            }
        }
        {
            let mut comm = comm.span("recv", 0);
            for (idx, &(s, d, w)) in msgs.iter().enumerate() {
                if d == me {
                    let data = comm.recv(s, idx as u64);
                    assert_eq!(data.len(), w);
                }
            }
        }
    });
    run.expect("fault-free launch").report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn nested_span_deltas_are_nonnegative_and_sum_to_parent(pattern in arb_pattern(8)) {
        let report = run_pattern_profiled(&pattern);
        let profile = report.profile.as_ref().expect("profiled run");
        for rank in &profile.per_rank {
            for (idx, span) in rank.ledger.spans.iter().enumerate() {
                // monotone §3.1 clocks: every snapshot pair is ordered
                prop_assert!(span.exit.clocks.latency >= span.enter.clocks.latency);
                prop_assert!(span.exit.clocks.bandwidth >= span.enter.clocks.bandwidth);
                prop_assert!(span.exit.clocks.compute >= span.enter.clocks.compute);
                prop_assert!(span.exit.sent_messages >= span.enter.sent_messages);
                prop_assert!(span.exit.sent_words >= span.enter.sent_words);
                // the send/recv children tile the parent exactly
                let d = span.clocks_delta();
                let children: Vec<_> = rank.ledger.children(idx).collect();
                if !children.is_empty() {
                    let (mut l, mut b, mut c) = (0u64, 0u64, 0u64);
                    for ch in &children {
                        let cd = ch.clocks_delta();
                        l += cd.latency;
                        b += cd.bandwidth;
                        c += cd.compute;
                    }
                    prop_assert_eq!((l, b, c), (d.latency, d.bandwidth, d.compute));
                }
            }
        }
    }

    #[test]
    fn top_level_spans_sum_to_rank_clocks(pattern in arb_pattern(8)) {
        let report = run_pattern_profiled(&pattern);
        let profile = report.profile.as_ref().expect("profiled run");
        for (rank, stats) in profile.per_rank.iter().zip(&report.per_rank) {
            let (mut l, mut b, mut c) = (0u64, 0u64, 0u64);
            for span in rank.ledger.top_level() {
                let d = span.clocks_delta();
                l += d.latency;
                b += d.bandwidth;
                c += d.compute;
            }
            prop_assert_eq!(l, stats.clocks.latency);
            prop_assert_eq!(b, stats.clocks.bandwidth);
            prop_assert_eq!(c, stats.clocks.compute);
        }
    }

    #[test]
    fn comm_matrix_rows_and_columns_sum_to_rank_totals(pattern in arb_pattern(9)) {
        let report = run_pattern_profiled(&pattern);
        let profile = report.profile.as_ref().expect("profiled run");
        let m = &profile.comm_matrix;
        for (r, stats) in report.per_rank.iter().enumerate() {
            prop_assert_eq!(m.row_messages(r), stats.sent_messages);
            prop_assert_eq!(m.row_words(r), stats.sent_words);
        }
        for d in 0..pattern.p {
            let msgs =
                pattern.messages.iter().filter(|&&(_, dd, _)| dd == d).count() as u64;
            let words: usize = pattern
                .messages
                .iter()
                .filter(|&&(_, dd, _)| dd == d)
                .map(|&(_, _, w)| w)
                .sum();
            prop_assert_eq!(m.col_messages(d), msgs);
            prop_assert_eq!(m.col_words(d), words as u64);
        }
    }
}
