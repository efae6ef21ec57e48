//! Distributed nested dissection — the §4.1/§5.4.4 ordering pipeline as a
//! rank program (a simplified Karypis–Kumar \[18\]; the simplifications
//! are listed in DESIGN.md §1), measured when it runs on the simulated
//! machine.
//!
//! Per tree node, the owning rank group runs:
//!
//! 1. **directory all-gather** — every member learns the node's vertex→rank
//!    assignment;
//! 2. **local coarsening** — each rank contracts its own induced subgraph
//!    with heavy-edge matching (no communication);
//! 3. **boundary exchange** — coarse ids of boundary vertices travel to the
//!    neighbouring owners (one point-to-point round);
//! 4. **coarse all-gather + replicated bisection** — the small coarse graph
//!    is replicated and every member runs the identical seeded multilevel
//!    bisection (zero further communication);
//! 5. **separator extraction** — fine cut edges (locally identifiable
//!    thanks to step 3) are gathered to the group root, which computes the
//!    Kőnig minimum vertex cover and broadcasts it: the node's separator
//!    supernode, *minimal on the fine graph*;
//! 6. **redistribution** — each half's vertices move to its half of the
//!    rank group, and the two halves recurse concurrently.
//!
//! Rank groups halve with the tree; once a group reaches one rank it
//! finishes its subtree with the sequential partitioner. All communication
//! is measured; the resulting ordering is a drop-in [`NdOrdering`].

use crate::fw2d::balanced_sizes;
use crate::launch::{launch, LaunchSpec, Solver};
use apsp_etree::SchedTree;
use apsp_graph::{Csr, Permutation};
use apsp_partition::separator::min_vertex_cover_bipartite;
use apsp_partition::work::WorkGraph;
use apsp_partition::{nested_dissection, BisectOptions, NdOptions, NdOrdering};
use apsp_simnet::{Rank, RunReport};
use apsp_transport::Transport;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Result of [`dist_nested_dissection`]: the ordering plus the measured
/// communication bill of the whole pipeline.
pub struct DistNdResult {
    /// The computed ordering (validates like any other [`NdOrdering`]).
    pub ordering: NdOrdering,
    /// Measured costs of the distributed pipeline.
    pub report: RunReport,
}

fn ids_to_f64(ids: &[usize]) -> Vec<f64> {
    ids.iter().map(|&x| x as f64).collect()
}

fn f64_to_ids(data: &[f64]) -> Vec<usize> {
    data.iter().map(|&x| x as usize).collect()
}

fn tag(label: usize, step: u64) -> u64 {
    0xD0D0_0000_0000 | ((label as u64) << 12) | step
}

/// Per-node distributed state of one rank.
struct NodeCtx<'a> {
    g: &'a Csr,
    tree: SchedTree,
    seed: u64,
}

impl NodeCtx<'_> {
    /// Recursion over tree nodes; records `(label, vertex list)` facts this
    /// rank is responsible for into `out`.
    #[allow(clippy::too_many_arguments)]
    fn recurse<C: Transport>(
        &self,
        comm: &mut C,
        level: u32,
        idx: usize,
        group: &[Rank],
        my_verts: Vec<usize>,
        out: &mut Vec<(usize, Vec<usize>)>,
    ) {
        let label = self.tree.level_offset(level) + idx + 1;

        if group.len() == 1 {
            self.sequential_subtree(level, idx, my_verts, out);
            return;
        }
        if level == 1 {
            // leaf supernode: collect the group's vertices at the root
            let mut leaf_span = comm.span("nd-leaf", label as u64);
            let gathered = leaf_span.gather(group, group[0], tag(label, 0), ids_to_f64(&my_verts));
            if let Some(parts) = gathered {
                let mut all = Vec::new();
                for part in parts {
                    all.extend(f64_to_ids(&part));
                }
                out.push((label, all));
            }
            return;
        }

        // ---- step 0: directory all-gather ----
        let lists = {
            let mut span = comm.span("nd-directory", label as u64);
            span.allgather(group, tag(label, 1), ids_to_f64(&my_verts))
        };
        let mut owner_of: HashMap<usize, usize> = HashMap::new(); // vertex -> group pos
        for (pos, list) in lists.iter().enumerate() {
            for &v in list {
                owner_of.insert(v as usize, pos);
            }
        }
        let my_pos =
            group.iter().position(|&r| r == comm.rank()).expect("every rank sits in its own group");

        // ---- step 1: local coarsening (no communication) ----
        let (sub, ids) = self.g.induced_subgraph(&my_verts);
        let work = WorkGraph::from_csr(&sub);
        let hierarchy = apsp_partition::coarsen::coarsen(&work, 8, self.seed ^ label as u64);
        // compose the chain of maps: local fine index -> local coarse index
        let mut to_coarse: Vec<usize> = (0..sub.n()).collect();
        for lvl in &hierarchy {
            for c in to_coarse.iter_mut() {
                *c = lvl.map[*c] as usize;
            }
        }
        let (coarse_n, coarse_wts): (usize, Vec<u64>) = match hierarchy.last() {
            Some(lvl) => (lvl.graph.n(), lvl.graph.vwt.clone()),
            None => (sub.n(), vec![1; sub.n()]),
        };
        // globally unique coarse ids: group position × stride + local index
        let stride = self.g.n() + 1;
        let cid = |pos: usize, local: usize| pos * stride + local;
        // lookup table: owned global vertex -> local index in `sub`/`ids`
        let mut local_of: HashMap<usize, usize> = HashMap::new();
        for (li, &v) in ids.iter().enumerate() {
            local_of.insert(v, li);
        }

        // ---- step 2: boundary coarse-id exchange ----
        // cross edges: owned u, neighbour v owned by another rank of this node
        let mut to_targets: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new(); // pos -> my boundary verts
        let mut from_sources: BTreeSet<usize> = BTreeSet::new();
        for &u in &my_verts {
            for (v, _) in self.g.edges_of(u) {
                if let Some(&pos) = owner_of.get(&v) {
                    if pos != my_pos {
                        to_targets.entry(pos).or_default().insert(u);
                        from_sources.insert(pos);
                    }
                }
            }
        }
        let mut remote_cid: HashMap<usize, usize> = HashMap::new();
        {
            let mut span = comm.span("nd-boundary", label as u64);
            let comm: &mut C = &mut span;
            for (&pos, verts) in &to_targets {
                let mut payload = Vec::with_capacity(2 * verts.len());
                for &u in verts {
                    payload.push(u as f64);
                    payload.push(cid(my_pos, to_coarse[local_of[&u]]) as f64);
                }
                comm.send(group[pos], tag(label, 2), payload);
            }
            for &pos in &from_sources {
                let data = comm.recv(group[pos], tag(label, 2));
                for pair in data.chunks_exact(2) {
                    remote_cid.insert(pair[0] as usize, pair[1] as usize);
                }
            }
        }

        // ---- step 3: coarse graph all-gather ----
        let mut contribution = Vec::new();
        contribution.push(coarse_n as f64);
        for (local, &w) in coarse_wts.iter().enumerate() {
            contribution.push(cid(my_pos, local) as f64);
            contribution.push(w as f64);
        }
        // local coarse edges (with multiplicities) + cross fine edges (u < v)
        let mut edges: Vec<(usize, usize, u64)> = Vec::new();
        if let Some(lvl) = hierarchy.last() {
            let cg = &lvl.graph;
            for a in 0..cg.n() {
                for (&b, &w) in cg.neighbors(a).iter().zip(cg.edge_weights(a)) {
                    if a < b as usize {
                        edges.push((cid(my_pos, a), cid(my_pos, b as usize), w));
                    }
                }
            }
        } else {
            for (a, b, _) in sub.edges() {
                edges.push((cid(my_pos, to_coarse[a]), cid(my_pos, to_coarse[b]), 1));
            }
        }
        for &u in &my_verts {
            for (v, _) in self.g.edges_of(u) {
                if u < v {
                    if let Some(&pos) = owner_of.get(&v) {
                        if pos != my_pos {
                            edges.push((cid(my_pos, to_coarse[local_of[&u]]), remote_cid[&v], 1));
                        }
                    }
                }
            }
        }
        contribution.push(edges.len() as f64);
        for &(a, b, w) in &edges {
            contribution.push(a as f64);
            contribution.push(b as f64);
            contribution.push(w as f64);
        }
        let gathered = {
            let mut span = comm.span("nd-coarse", label as u64);
            span.allgather(group, tag(label, 3), contribution)
        };

        // replicated coarse graph: parse deterministically in group order
        let mut cid_weight: BTreeMap<usize, u64> = BTreeMap::new();
        let mut all_edges: Vec<(usize, usize, u64)> = Vec::new();
        for part in &gathered {
            let mut cursor = 0usize;
            let cnt = part[cursor] as usize;
            cursor += 1;
            for _ in 0..cnt {
                cid_weight.insert(part[cursor] as usize, part[cursor + 1] as u64);
                cursor += 2;
            }
            let ecnt = part[cursor] as usize;
            cursor += 1;
            for _ in 0..ecnt {
                all_edges.push((
                    part[cursor] as usize,
                    part[cursor + 1] as usize,
                    part[cursor + 2] as u64,
                ));
                cursor += 3;
            }
        }
        let dense_of: HashMap<usize, usize> =
            cid_weight.keys().enumerate().map(|(i, &c)| (c, i)).collect();
        let vwt: Vec<u64> = cid_weight.values().copied().collect();
        let dense_edges: Vec<(u32, u32, u64)> = all_edges
            .iter()
            .map(|&(a, b, w)| (dense_of[&a] as u32, dense_of[&b] as u32, w))
            .collect();
        let coarse = WorkGraph::from_edges(cid_weight.len(), &dense_edges, vwt);

        // ---- step 4: replicated bisection (identical seed ⇒ identical result) ----
        let opts = BisectOptions { seed: self.seed ^ (label as u64) << 3, ..Default::default() };
        let bisection = apsp_partition::bisect::bisect_work(&coarse, &opts);

        // ---- step 5: local projection ----
        let side_of = |v: usize,
                       local_of: &HashMap<usize, usize>,
                       remote_cid: &HashMap<usize, usize>|
         -> u8 {
            let c = match local_of.get(&v) {
                Some(&li) => cid(my_pos, to_coarse[li]),
                None => remote_cid[&v],
            };
            bisection.side[dense_of[&c]]
        };

        // ---- step 6/7: fine cut edges, oriented (side0, side1) ----
        let mut cut: Vec<f64> = Vec::new();
        for &u in &my_verts {
            let su = side_of(u, &local_of, &remote_cid);
            for (v, _) in self.g.edges_of(u) {
                if u < v && owner_of.contains_key(&v) {
                    let sv = side_of(v, &local_of, &remote_cid);
                    if su != sv {
                        let (a, b) = if su == 0 { (u, v) } else { (v, u) };
                        cut.push(a as f64);
                        cut.push(b as f64);
                    }
                }
            }
        }
        let cover: BTreeSet<usize> = {
            let mut span = comm.span("nd-separator", label as u64);
            let comm: &mut C = &mut span;
            let gathered_cut = comm.gather(group, group[0], tag(label, 4), cut);
            let cover_payload = gathered_cut.map(|parts| {
                let mut pairs = Vec::new();
                for part in parts {
                    for pair in part.chunks_exact(2) {
                        pairs.push((pair[0] as usize, pair[1] as usize));
                    }
                }
                let cover = min_vertex_cover_bipartite(&pairs);
                out.push((label, cover.clone()));
                ids_to_f64(&cover)
            });
            f64_to_ids(&comm.bcast(group, group[0], tag(label, 5), cover_payload))
                .into_iter()
                .collect()
        };

        // ---- step 8: split and redistribute ----
        let mut side0 = Vec::new();
        let mut side1 = Vec::new();
        for &u in &my_verts {
            if cover.contains(&u) {
                continue;
            }
            if side_of(u, &local_of, &remote_cid) == 0 {
                side0.push(u);
            } else {
                side1.push(u);
            }
        }
        let gl = (group.len() / 2).max(1);
        let left_group: Vec<Rank> = group[..gl].to_vec();
        let right_group: Vec<Rank> = group[gl..].to_vec();

        let my_new = {
            let mut span = comm.span("nd-redist", label as u64);
            let comm: &mut C = &mut span;
            let counts =
                comm.allgather(group, tag(label, 6), vec![side0.len() as f64, side1.len() as f64]);
            redistribute(
                comm,
                group,
                my_pos,
                label,
                [&side0, &side1],
                &counts,
                [&left_group, &right_group],
            )
        };

        // ---- step 9: recurse into my half (halves run concurrently) ----
        if my_pos < gl {
            self.recurse(comm, level - 1, 2 * idx, &left_group, my_new, out);
        } else {
            self.recurse(comm, level - 1, 2 * idx + 1, &right_group, my_new, out);
        }
    }

    /// One rank finishing an entire subtree with the sequential partitioner.
    fn sequential_subtree(
        &self,
        level: u32,
        idx: usize,
        my_verts: Vec<usize>,
        out: &mut Vec<(usize, Vec<usize>)>,
    ) {
        let (sub, ids) = self.g.induced_subgraph(&my_verts);
        let sub_tree = SchedTree::new(level);
        let nd = nested_dissection(
            &sub,
            level,
            &NdOptions {
                bisect: BisectOptions {
                    seed: self.seed ^ 0xFA11 ^ idx as u64,
                    ..Default::default()
                },
            },
        );
        let order = nd.perm.as_order();
        let offsets = nd.offsets();
        for lvl in 1..=level {
            let width = 1usize << (level - lvl);
            for t in 0..sub_tree.level_count(lvl) {
                let sub_label = sub_tree.level_offset(lvl) + t + 1;
                let glob_label = self.tree.level_offset(lvl) + idx * width + t + 1;
                let verts: Vec<usize> = order[offsets[sub_label - 1]..offsets[sub_label]]
                    .iter()
                    .map(|&local| ids[local])
                    .collect();
                out.push((glob_label, verts));
            }
        }
    }
}

/// Deterministic redistribution of the two side lists onto the two child
/// groups: side `s`'s global list (concatenation over the group in group
/// order) is chunked evenly over child group `s`; every rank derives the
/// full (source → target, length) matrix from the all-gathered counts.
fn redistribute<C: Transport>(
    comm: &mut C,
    group: &[Rank],
    my_pos: usize,
    label: usize,
    my_sides: [&Vec<usize>; 2],
    counts: &[Vec<f64>],
    child_groups: [&Vec<Rank>; 2],
) -> Vec<usize> {
    // transfers[s] = list of (source pos, target pos, len) in deterministic order
    let mut sends: Vec<(Rank, Vec<f64>)> = Vec::new();
    let mut my_receives: Vec<(Rank, usize)> = Vec::new(); // (source rank, seq) for ordering
    for s in 0..2 {
        let per_rank: Vec<usize> = counts.iter().map(|c| c[s] as usize).collect();
        let total: usize = per_rank.iter().sum();
        let targets = child_groups[s];
        let chunk_sizes = balanced_sizes(total, targets.len());
        // walk the concatenated list, mapping [offset, offset+len) windows
        let mut src_start = 0usize; // global offset where source `pos` begins
        let mut tgt_bounds = Vec::with_capacity(targets.len() + 1);
        tgt_bounds.push(0usize);
        let mut acc = 0;
        for &c in &chunk_sizes {
            acc += c;
            tgt_bounds.push(acc);
        }
        for (pos, &cnt) in per_rank.iter().enumerate() {
            let src_range = src_start..src_start + cnt;
            for (ti, w) in tgt_bounds.windows(2).enumerate() {
                let (lo, hi) = (w[0].max(src_range.start), w[1].min(src_range.end));
                if lo >= hi {
                    continue;
                }
                // source `pos` sends its slice [lo-src_start, hi-src_start) to target ti
                if pos == my_pos {
                    let slice = &my_sides[s][lo - src_range.start..hi - src_range.start];
                    sends.push((targets[ti], ids_to_f64(slice)));
                }
                let my_rank = group[my_pos];
                if targets[ti] == my_rank {
                    my_receives.push((group[pos], my_receives.len()));
                }
            }
            src_start += cnt;
        }
    }
    // send everything (non-blocking), then receive in the deterministic order
    let mut received = Vec::new();
    let my_rank = group[my_pos];
    let mut self_delivery: Vec<Vec<usize>> = Vec::new();
    let mut pending: Vec<(Rank, usize)> = Vec::new();
    let mut self_seq: Vec<usize> = Vec::new();
    for (target, payload) in sends {
        if target == my_rank {
            self_delivery.push(f64_to_ids(&payload));
        } else {
            comm.send(target, tag(label, 7), payload);
        }
    }
    for (source, seq) in my_receives {
        if source == my_rank {
            self_seq.push(seq);
        } else {
            pending.push((source, seq));
        }
    }
    // receives in schedule order; self-deliveries splice back in seq order
    let mut parts: Vec<(usize, Vec<usize>)> = Vec::new();
    for (source, seq) in pending {
        parts.push((seq, f64_to_ids(&comm.recv(source, tag(label, 7)))));
    }
    for (k, seq) in self_seq.into_iter().enumerate() {
        parts.push((seq, self_delivery[k].clone()));
    }
    parts.sort_by_key(|&(seq, _)| seq);
    for (_, mut ids) in parts {
        received.append(&mut ids);
    }
    received
}

/// The distributed nested-dissection pipeline as a [`Solver`]: `p` ranks
/// order `g` for an elimination tree of height `h`, each starting from an
/// even chunk of the vertex ids.
pub struct DistNd<'a> {
    g: &'a Csr,
    tree: SchedTree,
    seed: u64,
    /// Rank `r` starts with vertices `chunk_offsets[r]..chunk_offsets[r + 1]`.
    chunk_offsets: Vec<usize>,
}

impl<'a> DistNd<'a> {
    /// The ordering of `g` by `p` ranks under `seed`.
    pub fn new(g: &'a Csr, h: u32, p: usize, seed: u64) -> Self {
        assert!(p >= 1, "need at least one rank");
        let mut chunk_offsets = vec![0usize];
        for c in balanced_sizes(g.n(), p) {
            chunk_offsets.push(chunk_offsets[chunk_offsets.len() - 1] + c);
        }
        DistNd { g, tree: SchedTree::new(h), seed, chunk_offsets }
    }
}

impl Solver for DistNd<'_> {
    /// The `(label, vertex list)` facts this rank is responsible for.
    type Out = Vec<(usize, Vec<usize>)>;
    type Result = DistNdResult;
    const PHASE: &'static str = "ordering-distributed";

    fn p(&self) -> usize {
        self.chunk_offsets.len() - 1
    }

    fn rank_program<C: Transport>(&self, comm: &mut C) -> Self::Out {
        let r = comm.rank();
        let my_verts: Vec<usize> = (self.chunk_offsets[r]..self.chunk_offsets[r + 1]).collect();
        let ctx = NodeCtx { g: self.g, tree: self.tree, seed: self.seed };
        let group: Vec<Rank> = (0..self.p()).collect();
        let mut out = Vec::new();
        ctx.recurse(comm, self.tree.height(), 0, &group, my_verts, &mut out);
        out
    }

    fn assemble(&self, outputs: Vec<Self::Out>, report: RunReport) -> DistNdResult {
        // merge the per-rank facts
        let tree = self.tree;
        let mut supernode_vertices: Vec<Vec<usize>> = vec![Vec::new(); tree.num_supernodes()];
        for rank_facts in outputs {
            for (label, verts) in rank_facts {
                assert!(
                    supernode_vertices[label - 1].is_empty() || verts.is_empty(),
                    "label {label} reported twice"
                );
                if !verts.is_empty() {
                    supernode_vertices[label - 1] = verts;
                }
            }
        }
        let sizes: Vec<usize> = supernode_vertices.iter().map(|v| v.len()).collect();
        let order: Vec<usize> = supernode_vertices.into_iter().flatten().collect();
        let ordering =
            NdOrdering { tree, perm: Permutation::from_order(order), supernode_sizes: sizes };
        DistNdResult { ordering, report }
    }

    fn words(out: Self::Out) -> Vec<f64> {
        out.into_iter()
            .flat_map(|(label, verts)| {
                [label, verts.len()].into_iter().chain(verts).map(|x| x as f64)
            })
            .collect()
    }
}

/// Runs the distributed nested-dissection pipeline on `p` simulated ranks;
/// every other way to run it is a [`LaunchSpec`] on [`DistNd::new`].
///
/// The `ordering` satisfies the same invariants as the host-side
/// [`nested_dissection`] (checked by `NdOrdering::validate`); the `report`
/// is the measured §5.4.4 cost. With `profile`, the report carries the
/// span ledgers too: rank groups halve and recurse concurrently, so the
/// per-rank span sequences diverge and the phase breakdown falls back to
/// the grouped (`exact = false`) max-over-ranks attribution.
pub fn dist_nested_dissection(g: &Csr, h: u32, p: usize, seed: u64, profile: bool) -> DistNdResult {
    launch(&DistNd::new(g, h, p, seed), &LaunchSpec { profile, ..Default::default() })
        .expect("fault-free launch cannot fail")
        .result
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{self, WeightKind};

    fn check(g: &Csr, h: u32, p: usize) -> DistNdResult {
        let result = dist_nested_dissection(g, h, p, 42, false);
        result
            .ordering
            .validate(g)
            .unwrap_or_else(|e| panic!("h={h} p={p}: invalid ordering: {e}"));
        result
    }

    #[test]
    fn single_rank_equals_sequential_quality() {
        let g = generators::grid2d(8, 8, WeightKind::Unit, 0);
        let result = check(&g, 3, 1);
        assert_eq!(result.report.total_messages(), 0);
        assert!(result.ordering.top_separator() <= 16);
    }

    #[test]
    fn mesh_on_4_ranks() {
        let g = generators::grid2d(10, 10, WeightKind::Unit, 0);
        let result = check(&g, 3, 4);
        assert!(result.report.total_messages() > 0);
        // separators stay small-ish on a mesh
        assert!(
            result.ordering.top_separator() <= 30,
            "top separator {}",
            result.ordering.top_separator()
        );
    }

    #[test]
    fn mesh_on_9_ranks_height_4() {
        let g = generators::grid2d(12, 12, WeightKind::Unit, 0);
        check(&g, 4, 9);
    }

    #[test]
    fn random_graph_on_7_ranks() {
        let g = generators::connected_gnp(80, 0.05, WeightKind::Unit, 5);
        check(&g, 3, 7);
    }

    #[test]
    fn more_ranks_than_vertices() {
        let g = generators::path(6, WeightKind::Unit, 0);
        check(&g, 2, 9);
    }

    #[test]
    fn disconnected_graph() {
        let mut b = apsp_graph::GraphBuilder::new(24);
        for c in 0..3 {
            for i in 0..7 {
                b.add_edge(8 * c + i, 8 * c + i + 1, 1.0);
            }
        }
        let g = b.build();
        check(&g, 3, 4);
    }

    #[test]
    fn ordering_feeds_the_solver() {
        // the distributed ordering must work end-to-end
        let g = generators::grid2d(9, 9, WeightKind::Integer { max: 5 }, 3);
        let result = check(&g, 3, 9);
        let layout = crate::SupernodalLayout::from_ordering(&result.ordering);
        let gp = g.permuted(&result.ordering.perm);
        let solved = crate::sparse2d::sparse2d(&layout, &gp, crate::R4Strategy::OneToOne);
        let dist =
            crate::SupernodalLayout::unpermute(&solved.dist_eliminated, &result.ordering.perm);
        let reference = apsp_graph::oracle::apsp_dijkstra(&g);
        assert!(dist.first_mismatch(&reference, 1e-9).is_none());
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::grid2d(8, 8, WeightKind::Unit, 0);
        let a = dist_nested_dissection(&g, 3, 4, 7, false);
        let b = dist_nested_dissection(&g, 3, 4, 7, false);
        assert_eq!(a.ordering.perm.as_order(), b.ordering.perm.as_order());
        assert_eq!(a.report.critical_latency(), b.report.critical_latency());
    }
}
