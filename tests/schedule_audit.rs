//! Schedule audit: decode the message trace of a 2D-SPARSE-APSP run and
//! check every phase's *total message count* against closed forms computed
//! independently from the elimination-tree combinatorics. This pins
//! Algorithm 1's communication schedule itself (not just the critical-path
//! aggregates the cost tests cover).

use sparse_apsp::etree::{mapping, regions, SchedTree};
use sparse_apsp::prelude::*;
use std::collections::BTreeMap;

/// Decodes the sparse2d tag layout.
fn decode_tag(tag: u64) -> (u32, u64) {
    (((tag >> 56) & 0xFF) as u32, (tag >> 48) & 0xFF)
}

/// One-sorted-member broadcast over `members` costs `|members| − 1` sends
/// (binomial trees send exactly one message per non-root member).
fn bcast_sends(group_len: usize) -> usize {
    group_len.saturating_sub(1)
}

#[test]
fn per_phase_message_counts_match_the_tree_combinatorics() {
    let side = 12;
    let h = 3u32;
    let g = grid2d(side, side, WeightKind::Unit, 0);
    let nd = grid_nd(side, side, h);
    let layout = SupernodalLayout::from_ordering(&nd);
    let gp = g.permuted(&nd.perm);
    let Launched { result, traces, .. } = launch(
        &Sparse2d::new(&layout, &gp, &Sparse2dOptions::default()),
        &LaunchSpec { trace: true, ..Default::default() },
    )
    .expect("fault-free launch cannot fail");
    // correctness first
    let dist = SupernodalLayout::unpermute(&result.dist_eliminated, &nd.perm);
    let reference = oracle::apsp_dijkstra(&g);
    assert!(dist.first_mismatch(&reference, 1e-9).is_none());

    // measured counts per (level, phase)
    let mut measured: BTreeMap<(u32, u64), usize> = BTreeMap::new();
    for event in traces.iter().flatten() {
        *measured.entry(decode_tag(event.tag)).or_default() += 1;
    }

    let t = SchedTree::new(h);
    let rel = |k: usize| t.num_ancestors(k) + t.num_descendants(k);

    for l in 1..=h {
        // R² column + row broadcasts: group = {k} ∪ rel(k)
        let r2: usize = t.level_nodes(l).map(|k| bcast_sends(rel(k) + 1)).sum();
        assert_eq!(measured.get(&(l, 1)).copied().unwrap_or(0), r2, "R2 col, l={l}");
        assert_eq!(measured.get(&(l, 2)).copied().unwrap_or(0), r2, "R2 row, l={l}");

        // R³ row broadcasts: one group per panel (i, k), i ∈ rel(k);
        // group = source + its R3 targets
        let mut r3 = 0usize;
        for k in t.level_nodes(l) {
            for i in t.descendants(k) {
                let _ = i;
                r3 += bcast_sends(rel(k) + 1 - 1 + 1); // targets rel(k)\{k} + source
            }
            for _ in t.ancestors(k) {
                r3 += bcast_sends(t.num_descendants(k) + 1);
            }
        }
        assert_eq!(measured.get(&(l, 3)).copied().unwrap_or(0), r3, "R3 row, l={l}");
        assert_eq!(measured.get(&(l, 4)).copied().unwrap_or(0), r3, "R3 col, l={l}");

        if l == h {
            continue; // no R4 at the root level
        }
        // R⁴ distribution broadcasts: group sizes derived from the
        // Corollary 5.5 placement (dedup against source collisions)
        let mut r4_row = 0usize;
        let mut r4_col = 0usize;
        for k in t.level_nodes(l) {
            let g_col = mapping::unit_col(&t, l, k);
            for i in t.ancestors(k) {
                let a = t.level(i);
                let mut members = vec![layout.rank_of_block(i, k)];
                for c in a..=h {
                    members.push(layout.rank_of_block(mapping::unit_row(&t, l, a, c), g_col));
                }
                members.sort_unstable();
                members.dedup();
                r4_row += bcast_sends(members.len());
            }
            for j in t.ancestors(k) {
                let c = t.level(j);
                let mut members = vec![layout.rank_of_block(k, j)];
                for a in (l + 1)..=c {
                    members.push(layout.rank_of_block(mapping::unit_row(&t, l, a, c), g_col));
                }
                members.sort_unstable();
                members.dedup();
                r4_col += bcast_sends(members.len());
            }
        }
        assert_eq!(measured.get(&(l, 5)).copied().unwrap_or(0), r4_row, "R4 row-dist, l={l}");
        assert_eq!(measured.get(&(l, 6)).copied().unwrap_or(0), r4_col, "R4 col-dist, l={l}");

        // R⁴ reductions: per upper block, group = its units ∪ root
        let mut r4_reduce = 0usize;
        for b in regions::r4_upper(&t, l) {
            let f = mapping::unit_row(&t, l, t.level(b.i), t.level(b.j));
            let mut members: Vec<usize> = t
                .descendants_at(b.i, l)
                .map(|k| layout.rank_of_block(f, mapping::unit_col(&t, l, k)))
                .collect();
            members.push(layout.rank_of_block(b.i, b.j));
            members.sort_unstable();
            members.dedup();
            r4_reduce += bcast_sends(members.len());
        }
        assert_eq!(measured.get(&(l, 7)).copied().unwrap_or(0), r4_reduce, "R4 reduce, l={l}");

        // transpose mirrors: one send per off-diagonal upper block
        let mirrors = regions::r4_upper(&t, l).iter().filter(|b| b.i != b.j).count();
        assert_eq!(measured.get(&(l, 8)).copied().unwrap_or(0), mirrors, "mirror, l={l}");
    }

    // no unaccounted phases
    for &(l, phase) in measured.keys() {
        assert!((1..=8).contains(&phase), "unexpected phase {phase} at level {l}");
    }
}
