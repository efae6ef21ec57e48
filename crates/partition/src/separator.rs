//! Vertex separator extraction from an edge cut via Kőnig's theorem.
//!
//! Given a bisection, the cut edges form a bipartite graph between the two
//! boundary vertex sets. By Kőnig's theorem, a minimum vertex cover of that
//! bipartite graph — computable from a maximum matching — is a smallest set
//! of vertices whose removal disconnects the sides. That cover is exactly
//! the nested-dissection separator `S` with `V = V₁ ∪ S ∪ V₂` (§4.1).

use apsp_graph::Csr;

/// Maximum bipartite matching (Kuhn's augmenting-path algorithm).
/// Left vertex `l`'s right-side neighbours are `adj[xadj[l]..xadj[l + 1]]`.
/// Returns `match_l[l] = Some(r)` assignments.
fn max_bipartite_matching(
    left_n: usize,
    right_n: usize,
    xadj: &[usize],
    adj: &[usize],
) -> Vec<Option<usize>> {
    let mut match_l: Vec<Option<usize>> = vec![None; left_n];
    let mut match_r: Vec<Option<usize>> = vec![None; right_n];

    // `visited[r] == epoch`: `r` was tried in the current search
    fn try_augment(
        l: usize,
        (xadj, adj): (&[usize], &[usize]),
        match_l: &mut [Option<usize>],
        match_r: &mut [Option<usize>],
        visited: &mut [usize],
        epoch: usize,
    ) -> bool {
        for &r in &adj[xadj[l]..xadj[l + 1]] {
            if visited[r] == epoch {
                continue;
            }
            visited[r] = epoch;
            let freed = match match_r[r] {
                None => true,
                Some(taken_by) => {
                    try_augment(taken_by, (xadj, adj), match_l, match_r, visited, epoch)
                }
            };
            if freed {
                match_l[l] = Some(r);
                match_r[r] = Some(l);
                return true;
            }
        }
        false
    }

    let mut visited = vec![0usize; right_n];
    for l in 0..left_n {
        try_augment(l, (xadj, adj), &mut match_l, &mut match_r, &mut visited, l + 1);
    }
    match_l
}

/// The result of separator extraction: a 3-way labelling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Part {
    /// First component side.
    V1,
    /// Separator vertex.
    Sep,
    /// Second component side.
    V2,
}

/// Minimum vertex cover of a bipartite edge list (Kőnig construction over
/// a maximum matching). Each pair is `(left_vertex, right_vertex)` with
/// arbitrary (e.g. global) ids — the sides must be disjoint vertex sets.
/// Returns the cover as a sorted id list. Ids index two arrays as long as
/// the largest id.
///
/// This is the primitive both the shared-memory separator extraction and
/// the distributed pipeline (`apsp-core`'s distributed ND, which gathers
/// fine cut edges to a group root) build on.
pub fn min_vertex_cover_bipartite(cut_edges: &[(usize, usize)]) -> Vec<usize> {
    // compress ids per side, in order of first appearance
    let bound = cut_edges.iter().map(|&(a, b)| a.max(b) + 1).max().unwrap_or(0);
    let mut left_ids = Vec::new();
    let mut right_ids = Vec::new();
    let mut left_of = vec![usize::MAX; bound];
    let mut right_of = vec![usize::MAX; bound];
    let mut xadj = Vec::new();
    for &(a, b) in cut_edges {
        if left_of[a] == usize::MAX {
            left_of[a] = left_ids.len();
            left_ids.push(a);
            xadj.push(0);
        }
        if right_of[b] == usize::MAX {
            right_of[b] = right_ids.len();
            right_ids.push(b);
        }
        xadj[left_of[a]] += 1;
    }
    // a left vertex's edges in input order: `adj[xadj[l]..xadj[l + 1]]`
    let mut end = 0;
    for x in xadj.iter_mut() {
        end += *x;
        *x = end;
    }
    xadj.push(end);
    let mut adj = vec![0; end];
    for &(a, b) in cut_edges.iter().rev() {
        let l = left_of[a];
        xadj[l] -= 1;
        adj[xadj[l]] = right_of[b];
    }
    let (xadj, adj) = (&xadj[..], &adj[..]);

    let match_l = max_bipartite_matching(left_ids.len(), right_ids.len(), xadj, adj);
    let mut match_r: Vec<Option<usize>> = vec![None; right_ids.len()];
    for (l, m) in match_l.iter().enumerate() {
        if let Some(r) = m {
            match_r[*r] = Some(l);
        }
    }

    // Kőnig: Z = vertices reachable from unmatched LEFT vertices via
    // alternating paths (unmatched edge left→right, matched edge right→left).
    let mut z_left = vec![false; left_ids.len()];
    let mut z_right = vec![false; right_ids.len()];
    let mut stack: Vec<usize> = (0..left_ids.len()).filter(|&l| match_l[l].is_none()).collect();
    for &l in &stack {
        z_left[l] = true;
    }
    while let Some(l) = stack.pop() {
        for &r in &adj[xadj[l]..xadj[l + 1]] {
            if !z_right[r] {
                z_right[r] = true;
                if let Some(l2) = match_r[r] {
                    if !z_left[l2] {
                        z_left[l2] = true;
                        stack.push(l2);
                    }
                }
            }
        }
    }
    // minimum vertex cover = (L \ Z) ∪ (R ∩ Z)
    let mut cover: Vec<usize> = left_ids
        .iter()
        .enumerate()
        .filter(|&(l, _)| !z_left[l])
        .map(|(_, &id)| id)
        .chain(right_ids.iter().enumerate().filter(|&(r, _)| z_right[r]).map(|(_, &id)| id))
        .collect();
    cover.sort_unstable();
    cover
}

/// Converts a 2-way bisection of `g` into a vertex separator via a minimum
/// vertex cover of the cut edges (Kőnig construction). Returns a label per
/// vertex. Guarantees: no edge joins a `V1` vertex to a `V2` vertex.
pub fn vertex_separator(g: &Csr, side: &[u8]) -> Vec<Part> {
    let n = g.n();
    assert_eq!(side.len(), n);
    let cut_edges: Vec<(usize, usize)> = g
        .edges()
        .filter(|&(u, v, _)| side[u] != side[v])
        .map(|(u, v, _)| if side[u] == 0 { (u, v) } else { (v, u) })
        .collect();
    let cover = min_vertex_cover_bipartite(&cut_edges);
    let mut part: Vec<Part> =
        side.iter().map(|&s| if s == 0 { Part::V1 } else { Part::V2 }).collect();
    for v in cover {
        part[v] = Part::Sep;
    }
    debug_assert!(separates(g, &part), "Kőnig cover failed to separate");
    part
}

/// Checks the separator property: no edge joins `V1` to `V2`.
pub fn separates(g: &Csr, part: &[Part]) -> bool {
    g.edges().all(|(u, v, _)| {
        !matches!((&part[u], &part[v]), (Part::V1, Part::V2) | (Part::V2, Part::V1))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisect::{bisect, BisectOptions};
    use apsp_graph::generators::{self, WeightKind};
    use apsp_graph::GraphBuilder;

    fn count(part: &[Part], what: Part) -> usize {
        part.iter().filter(|p| **p == what).count()
    }

    #[test]
    fn single_cut_edge_yields_one_separator_vertex() {
        // 0-1 cut edge between sides
        let g = GraphBuilder::new(4).edge(0, 1, 1.0).edge(1, 2, 1.0).edge(2, 3, 1.0).build();
        let side = vec![0, 0, 1, 1];
        let part = vertex_separator(&g, &side);
        assert!(separates(&g, &part));
        assert_eq!(count(&part, Part::Sep), 1);
    }

    #[test]
    fn star_cut_covered_by_centre() {
        // centre on side 0, all leaves on side 1: cover = {centre}
        let g = generators::star(6, WeightKind::Unit, 0);
        let side = vec![0, 1, 1, 1, 1, 1];
        let part = vertex_separator(&g, &side);
        assert!(separates(&g, &part));
        assert_eq!(count(&part, Part::Sep), 1);
        assert_eq!(part[0], Part::Sep);
    }

    #[test]
    fn grid_separator_is_one_column_sized() {
        let g = generators::grid2d(8, 8, WeightKind::Unit, 0);
        let b = bisect(&g, &BisectOptions::default());
        let part = vertex_separator(&g, &b.side);
        assert!(separates(&g, &part));
        let s = count(&part, Part::Sep);
        assert!((1..=16).contains(&s), "separator size {s}");
        // both sides survive
        assert!(count(&part, Part::V1) > 10);
        assert!(count(&part, Part::V2) > 10);
    }

    #[test]
    fn no_cut_edges_no_separator() {
        let g = GraphBuilder::new(4).edge(0, 1, 1.0).edge(2, 3, 1.0).build();
        let part = vertex_separator(&g, &[0, 0, 1, 1]);
        assert_eq!(count(&part, Part::Sep), 0);
        assert!(separates(&g, &part));
    }

    #[test]
    fn matching_handles_multiple_augmenting_paths() {
        // K_{3,3} cut: cover needs all of one side (3 vertices)
        let mut b = GraphBuilder::new(6);
        for u in 0..3 {
            for v in 3..6 {
                b.add_edge(u, v, 1.0);
            }
        }
        let g = b.build();
        let part = vertex_separator(&g, &[0, 0, 0, 1, 1, 1]);
        assert!(separates(&g, &part));
        assert_eq!(count(&part, Part::Sep), 3);
    }

    #[test]
    fn cover_over_raw_edge_list_with_global_ids() {
        // funnel with large arbitrary ids: cover = the single right vertex
        let edges = vec![(1000, 7), (2000, 7), (3000, 7)];
        assert_eq!(min_vertex_cover_bipartite(&edges), vec![7]);
        assert!(min_vertex_cover_bipartite(&[]).is_empty());
        // K_{2,2}: cover has exactly 2 vertices
        let k22 = vec![(1, 10), (1, 20), (2, 10), (2, 20)];
        assert_eq!(min_vertex_cover_bipartite(&k22).len(), 2);
    }

    #[test]
    fn koenig_beats_naive_boundary() {
        // path of 2x2 ladders: boundary has 2 vertices per side, but a
        // single middle rung cut needs only ... build a case where one side
        // of the cut is smaller: a "funnel": many left vertices all attach
        // to one right vertex.
        let mut b = GraphBuilder::new(5);
        for u in 0..4 {
            b.add_edge(u, 4, 1.0);
        }
        let g = b.build();
        let part = vertex_separator(&g, &[0, 0, 0, 0, 1]);
        assert_eq!(count(&part, Part::Sep), 1, "cover should pick the funnel vertex");
        assert_eq!(part[4], Part::Sep);
    }
}
