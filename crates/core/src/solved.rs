//! A stateful handle to a solved distributed APSP instance: query
//! distances and routes, apply incremental updates, and keep the
//! accumulated communication bill — the ergonomic layer a long-lived
//! service builds on (solve once, serve queries, absorb traffic updates).
//!
//! The handle is what [`SparseApsp::solve`] returns: the rank blocks the
//! launch left on the layout, never copied through an `n × n` matrix. It
//! serves from those blocks in place: a table from input vertex to
//! (supernode, offset in block) makes [`SolvedApsp::distance`] two table
//! reads and one block read, and [`SolvedApsp::route`] reads column `dst`
//! from the blocks, `O(path · degree)` reads plus `n` visited flags, with
//! no dense copy. Only [`SolvedApsp::dense`] materialises `n × n`.
//!
//! # Errors
//! [`SparseApsp::solve`] refuses input with a typed [`crate::ApspError`];
//! [`SolvedApsp::load`] names the line of a snapshot it rejects.

use crate::driver::{ApspRun, SparseApsp};
use crate::supernodal::SupernodalLayout;
use crate::update::{apply_decreases, DecreasedEdge};
use apsp_graph::{Csr, DenseDist, Permutation};
use apsp_minplus::MinPlusMatrix;
use apsp_partition::NdOrdering;
use apsp_simnet::{Clocks, FaultSummary, RecoveryReport, RunReport};

/// A solved all-pairs instance living on the machine's layout: per-rank
/// blocks in eliminated order plus the permutation back to input vertex
/// ids.
pub struct SolvedApsp {
    /// the input graph, or the undirected pattern of a directed input
    pub(crate) graph: Csr,
    pub(crate) ordering: NdOrdering,
    pub(crate) layout: SupernodalLayout,
    /// `(supernode, offset in its block)` of every input vertex
    pub(crate) locate: Vec<(usize, usize)>,
    /// the input was directed: `graph` is its pattern, not its arcs
    pub(crate) directed: bool,
    /// per-rank blocks, eliminated order
    pub(crate) blocks: Vec<MinPlusMatrix>,
    /// accumulated communication bill (solve + every update so far)
    pub(crate) report: RunReport,
    pub(crate) level_costs: Vec<(u64, u64)>,
    pub(crate) faults: Option<FaultSummary>,
    pub(crate) recovery: Option<RecoveryReport>,
}

/// `(supernode, offset in its block)` of every input vertex, the table the
/// handle serves through.
pub(crate) fn locate_table(layout: &SupernodalLayout, perm: &Permutation) -> Vec<(usize, usize)> {
    perm.as_to_new().iter().map(|&new| layout.locate(new)).collect()
}

impl From<SolvedApsp> for ApspRun {
    /// [`SolvedApsp::dense`], the blocks freed before the unpermuted copy.
    fn from(solved: SolvedApsp) -> ApspRun {
        let eliminated = solved.layout.assemble_dense(&solved.blocks);
        drop(solved.blocks);
        let dist = SupernodalLayout::unpermute(&eliminated, &solved.ordering.perm);
        ApspRun { dist, report: solved.report, level_costs: solved.level_costs }
    }
}

impl SolvedApsp {
    /// Solves `g` on `p = (2^h − 1)²` simulated ranks and returns the
    /// stateful handle: [`SparseApsp::solve`] with the default
    /// configuration at height `height`.
    ///
    /// # Panics
    /// On any [`ApspError`](crate::ApspError); call [`SparseApsp::solve`] to get it typed.
    pub fn solve(g: &Csr, height: u32) -> SolvedApsp {
        SparseApsp::with_height(height).solve(g, None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Distance between two input-graph vertices: two reads of the locate
    /// table and one block read, no allocation.
    pub fn distance(&self, u: usize, v: usize) -> f64 {
        let ((i, oi), (j, oj)) = (self.locate[u], self.locate[v]);
        self.blocks[self.layout.rank_of_block(i, j)].get(oi, oj)
    }

    /// One shortest route between two input vertices, reconstructed from
    /// distances (`None` when unreachable): the depth-first search of
    /// [`apsp_graph::paths::reconstruct_path`] reading column `v` straight
    /// from the blocks, so it costs `O(path · degree)` block reads plus `n`
    /// visited flags, and no dense copy. It returns the vertex sequence
    /// `reconstruct_path(graph(), &dense(), u, v, 1e-9)` returns.
    /// Undirected handles only: a directed handle keeps its pattern, not
    /// its arcs.
    pub fn route(&self, u: usize, v: usize) -> Option<Vec<usize>> {
        apsp_graph::paths::reconstruct_path_with(&self.graph, u, v, 1e-9, |x| self.distance(x, v))
    }

    /// Applies a batch of edge-weight **decreases** (input vertex ids) to an
    /// undirected handle. Each edge must already exist or be a new
    /// shortcut; the handle's
    /// graph and distance blocks are updated, and the update's measured
    /// communication is folded into [`SolvedApsp::report`].
    ///
    /// New shortcut edges may cross cousin supernodes — that is fine for
    /// the update path (explicit row/column all-reduces, no reliance on the
    /// elimination structure), but it means the *updated* graph may no
    /// longer be solvable from scratch with this ordering; a fresh
    /// [`SolvedApsp::solve`] would recompute a valid one.
    pub fn decrease_edges(&mut self, edges: &[(usize, usize, f64)]) {
        let batch: Vec<DecreasedEdge> = edges
            .iter()
            .map(|&(u, v, w)| DecreasedEdge {
                u: self.ordering.perm.to_new(u),
                v: self.ordering.perm.to_new(v),
                new_weight: w,
            })
            .collect();
        let result = apply_decreases(&self.layout, &self.blocks, &batch);
        self.blocks = result.blocks;
        self.report.absorb(&result.report);
        // keep the stored graph in sync (builder keeps minima)
        let mut b = apsp_graph::GraphBuilder::new(self.graph.n());
        for (u, v, w) in self.graph.edges().chain(edges.iter().copied()) {
            b.add_edge(u, v, w);
        }
        self.graph = b.build();
    }

    /// The full dense distance matrix in input vertex ids (materializes —
    /// use [`SolvedApsp::distance`] for point queries).
    pub fn dense(&self) -> DenseDist {
        let eliminated = self.layout.assemble_dense(&self.blocks);
        SupernodalLayout::unpermute(&eliminated, &self.ordering.perm)
    }

    /// The accumulated communication bill (solve + updates).
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// Per-level `(latency, bandwidth)` deltas of the solve (empty if loaded).
    pub fn level_costs(&self) -> &[(u64, u64)] {
        &self.level_costs
    }

    /// The solve's fault history, present when it ran under a fault plan.
    pub fn faults(&self) -> Option<&FaultSummary> {
        self.faults.as_ref()
    }

    /// The solve's checkpoint/restart ledger, present when it was supervised.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The nested-dissection ordering in use.
    pub fn ordering(&self) -> &NdOrdering {
        &self.ordering
    }

    /// The current graph (including applied decreases); for a directed
    /// input, its undirected pattern (unit weights), which the ordering
    /// was computed on.
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// Serializes the solved instance to a self-contained text snapshot
    /// (graph, ordering, distance blocks, accumulated bill) so a service
    /// can restart without re-solving.
    ///
    /// # Errors
    /// A directed handle (the snapshot would hold its undirected pattern
    /// and load as an undirected handle), or a file that cannot be written.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        if self.directed {
            return Err("a directed handle cannot be saved: it keeps the undirected \
                        pattern of its arcs, and would load as an undirected handle"
                .into());
        }
        // the words, space-separated, and a newline, formatted straight
        // into `s`
        fn words<T: std::fmt::Display>(s: &mut String, words: impl IntoIterator<Item = T>) {
            use std::fmt::Write as _;
            for (k, word) in words.into_iter().enumerate() {
                if k > 0 {
                    s.push(' ');
                }
                let _ = write!(s, "{word}");
            }
            s.push('\n');
        }
        // `key`, a space, and its words (a key without words keeps the space)
        fn line<T: std::fmt::Display>(
            s: &mut String,
            key: &str,
            items: impl IntoIterator<Item = T>,
        ) {
            s.push_str(key);
            s.push(' ');
            words(s, items);
        }
        let r = &self.report;
        // accumulated critical clocks (enough to restore the bill's shape)
        let bill = [r.critical_latency(), r.critical_bandwidth(), r.critical_compute()]
            .into_iter()
            .chain([r.total_messages(), r.total_words(), r.max_peak_words()]);
        let mut s = String::from("sparse-apsp solved v1\n");
        line(&mut s, "height", [self.layout.tree().height()]);
        line(&mut s, "sizes", (1..=self.layout.n_super()).map(|k| self.layout.size(k)));
        line(&mut s, "order", self.ordering.perm.as_order());
        line(&mut s, "bill", bill);
        s += "graph\n";
        s += &apsp_graph::io::to_edge_list(&self.graph);
        s += "blocks\n";
        for block in &self.blocks {
            // distances are never `−∞`, so `+∞` is the one infinity: `inf`
            words(&mut s, block.as_slice());
        }
        std::fs::write(path.as_ref(), s)
            .map_err(|e| format!("cannot write {}: {e}", path.as_ref().display()))
    }

    /// Restores a snapshot written by [`SolvedApsp::save`]. The restored
    /// handle serves queries and accepts updates; the restored bill keeps
    /// only aggregate clocks (attributed to rank 0).
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<SolvedApsp, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("cannot read {}: {e}", path.as_ref().display()))?;
        let mut lines = text.lines();
        if lines.next() != Some("sparse-apsp solved v1") {
            return Err("not a sparse-apsp snapshot".into());
        }
        // the words after `key` on the next line, parsed
        fn words<T: std::str::FromStr>(line: Option<&str>, key: &str) -> Result<Vec<T>, String>
        where
            T::Err: std::fmt::Display,
        {
            let line = line.ok_or_else(|| format!("missing {key} line"))?;
            let mut it = line.split_whitespace();
            if it.next() != Some(key) {
                return Err(format!("expected {key} line, got {line:?}"));
            }
            it.map(|x| x.parse().map_err(|e| format!("{e}"))).collect()
        }
        let height: u32 = *words(lines.next(), "height")?.first().ok_or("missing height")?;
        let sizes: Vec<usize> = words(lines.next(), "sizes")?;
        let order: Vec<usize> = words(lines.next(), "order")?;
        let mut seen = vec![false; order.len()];
        for &v in &order {
            if v >= order.len() || std::mem::replace(&mut seen[v], true) {
                return Err(format!(
                    "line 4: order is not a permutation of 0..{}: {v} is out of range or repeated",
                    order.len()
                ));
            }
        }
        let bill: [u64; 6] =
            words(lines.next(), "bill")?.try_into().map_err(|_| "bad bill line")?;
        if lines.next() != Some("graph") {
            return Err("missing graph section".into());
        }
        let rest: Vec<&str> = lines.collect();
        let split = rest.iter().position(|&l| l == "blocks").ok_or("missing blocks section")?;
        let graph = apsp_graph::io::from_edge_list(&rest[..split].join("\n"))?;

        // the fallible constructor: a height no tree has (0, 70) never
        // reaches `SchedTree::new`
        let tree = apsp_etree::SchedTree::with_supernodes(sizes.len())
            .filter(|tree| tree.height() == height)
            .ok_or_else(|| {
                format!("line 2: height {height} does not match the {} sizes", sizes.len())
            })?;
        let ordering = NdOrdering {
            tree,
            perm: apsp_graph::Permutation::from_order(order),
            supernode_sizes: sizes.clone(),
        };
        // NOTE: no cousin-separation validation here — applied *updates*
        // legitimately add shortcut edges across cousins (the update path
        // uses explicit all-reduces, not the elimination structure), so the
        // stored graph need not be ND-consistent. Structural checks only:
        if ordering.perm.len() != graph.n() || sizes.iter().sum::<usize>() != graph.n() {
            return Err("snapshot ordering does not match its graph".into());
        }
        let layout = SupernodalLayout::new(tree, sizes);
        let locate = locate_table(&layout, &ordering.perm);

        let block_lines = &rest[split + 1..];
        let (want, found) = (layout.p(), block_lines.len());
        if found != want {
            return Err(format!("expected {want} block lines, found {found}"));
        }
        let mut blocks = Vec::with_capacity(layout.p());
        for (rank, line) in block_lines.iter().enumerate() {
            let (i, j) = layout.block_of_rank(rank);
            let want = layout.block_words(i, j);
            // `inf` parses as `f64::INFINITY`
            let vals: Vec<f64> = line
                .split_whitespace()
                .map(|x| x.parse().map_err(|e| format!("{e}")))
                .collect::<Result<_, String>>()?;
            if vals.len() != want {
                return Err(format!("block {rank}: expected {want} words, found {}", vals.len()));
            }
            // distances are non-negative, `inf` when unreachable; six
            // header lines and the `blocks` marker precede block 0
            if let Some(w) = vals.iter().find(|w| w.is_nan() || **w < 0.0) {
                return Err(format!("line {}: block {rank} holds {w}", split + rank + 8));
            }
            blocks.push(MinPlusMatrix::from_raw(layout.size(i), layout.size(j), vals));
        }

        // reconstruct an aggregate bill on rank 0
        let mut report =
            RunReport { per_rank: vec![Default::default(); layout.p()], profile: None };
        report.per_rank[0].clocks = Clocks::from_words([bill[0], bill[1], bill[2]]);
        report.per_rank[0].sent_messages = bill[3];
        report.per_rank[0].sent_words = bill[4];
        report.per_rank[0].peak_words = bill[5];

        Ok(SolvedApsp {
            graph,
            ordering,
            layout,
            locate,
            directed: false,
            blocks,
            report,
            level_costs: Vec::new(),
            faults: None,
            recovery: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{self, WeightKind};
    use apsp_graph::oracle;

    #[test]
    fn solve_query_route() {
        let g = generators::grid2d(8, 8, WeightKind::Integer { max: 5 }, 2);
        let solved = SolvedApsp::solve(&g, 3);
        let reference = oracle::apsp_dijkstra(&g);
        for (u, v) in [(0, 63), (5, 40), (7, 7)] {
            assert!((solved.distance(u, v) - reference.get(u, v)).abs() < 1e-9);
        }
        let route = solved.route(0, 63).unwrap();
        assert_eq!(route.first(), Some(&0));
        assert_eq!(route.last(), Some(&63));
        let w = apsp_graph::paths::path_weight(&g, &route).unwrap();
        assert!((w - reference.get(0, 63)).abs() < 1e-9);
        assert!(solved.report().critical_latency() > 0);
    }

    #[test]
    fn updates_keep_the_handle_consistent() {
        let g = generators::grid2d(6, 6, WeightKind::Integer { max: 9 }, 4);
        let mut solved = SolvedApsp::solve(&g, 2);
        let before = solved.distance(0, 35);
        let bill_before = solved.report().total_words();
        solved.decrease_edges(&[(0, 35, 1.5)]);
        assert!((solved.distance(0, 35) - 1.5).abs() < 1e-9);
        assert!(solved.distance(0, 35) < before);
        assert!(solved.report().total_words() > bill_before, "update cost accumulated");
        // full matrix agrees with a fresh oracle on the updated graph
        let reference = oracle::apsp_dijkstra(solved.graph());
        assert!(solved.dense().first_mismatch(&reference, 1e-9).is_none());
        // a second batch compounds correctly
        solved.decrease_edges(&[(5, 30, 0.5), (12, 24, 0.25)]);
        let reference = oracle::apsp_dijkstra(solved.graph());
        assert!(solved.dense().first_mismatch(&reference, 1e-9).is_none());
    }

    #[test]
    fn save_load_roundtrip() {
        let g = generators::grid2d(6, 6, WeightKind::Integer { max: 7 }, 8);
        let mut solved = SolvedApsp::solve(&g, 2);
        solved.decrease_edges(&[(0, 35, 2.0)]);
        let path = std::env::temp_dir().join(format!("apsp-snap-{}.txt", std::process::id()));
        solved.save(&path).unwrap();
        let restored = SolvedApsp::load(&path).unwrap();
        // identical distances (incl. the applied update)
        assert!(solved.dense().first_mismatch(&restored.dense(), 0.0).is_none());
        assert_eq!(restored.distance(0, 35), 2.0);
        // bill aggregates survive
        assert_eq!(restored.report().critical_latency(), solved.report().critical_latency());
        assert_eq!(restored.report().total_words(), solved.report().total_words());
        // the restored handle keeps working: another update + oracle check
        let mut restored = restored;
        restored.decrease_edges(&[(5, 30, 0.5)]);
        let reference = oracle::apsp_dijkstra(restored.graph());
        assert!(restored.dense().first_mismatch(&reference, 1e-9).is_none());
    }

    #[test]
    fn load_rejects_garbage() {
        let path = std::env::temp_dir().join(format!("apsp-garbage-{}.txt", std::process::id()));
        std::fs::write(&path, "not a snapshot").unwrap();
        assert!(SolvedApsp::load(&path).is_err());
        assert!(SolvedApsp::load("/nonexistent/really").is_err());
    }

    #[test]
    fn load_rejects_a_corrupted_snapshot_naming_the_line() {
        let g = generators::grid2d(4, 4, WeightKind::Integer { max: 7 }, 8);
        let solved = SolvedApsp::solve(&g, 2);
        let path = std::env::temp_dir().join(format!("apsp-corrupt-{}.txt", std::process::id()));
        solved.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].starts_with("height ") && lines[3].starts_with("order "));
        let block0 = lines.iter().position(|&l| l == "blocks").unwrap() + 1;
        // the line with its last word replaced
        let with_last = |at: usize, word: &str| {
            let (head, _) = lines[at].rsplit_once(' ').unwrap();
            format!("{head} {word}")
        };
        let repeated = lines[3].split(' ').nth(1).unwrap();
        let cases = [
            (1, "height 70".to_string()),
            (1, "height 0".to_string()),
            (3, with_last(3, repeated)),
            (3, with_last(3, "16")),
            (block0, with_last(block0, "NaN")),
            (block0 + 4, with_last(block0 + 4, "-1")),
        ];
        for (at, replacement) in cases {
            let mut corrupted: Vec<&str> = lines.clone();
            corrupted[at] = &replacement;
            std::fs::write(&path, corrupted.join("\n") + "\n").unwrap();
            let err = SolvedApsp::load(&path)
                .err()
                .unwrap_or_else(|| panic!("line {}: accepted {replacement:?}", at + 1));
            assert!(err.contains(&format!("line {}:", at + 1)), "{replacement:?}: {err}");
        }
        // untouched, the same text still loads, bit for bit
        std::fs::write(&path, &text).unwrap();
        let restored = SolvedApsp::load(&path).unwrap();
        for (a, b) in solved.blocks.iter().zip(&restored.blocks) {
            let bits =
                |m: &MinPlusMatrix| m.as_slice().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
        restored.save(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
    }

    #[test]
    fn disconnected_queries_are_infinite() {
        let mut b = apsp_graph::GraphBuilder::new(8);
        b.add_edge(0, 1, 1.0);
        b.add_edge(6, 7, 1.0);
        let g = b.build();
        let solved = SolvedApsp::solve(&g, 2);
        assert!(solved.distance(0, 7).is_infinite());
        assert!(solved.route(0, 7).is_none());
        assert_eq!(solved.distance(6, 7), 1.0);
    }
}
