//! A stateful handle to a solved distributed APSP instance: query
//! distances and routes, apply incremental updates, and keep the
//! accumulated communication bill — the ergonomic layer a long-lived
//! service builds on (solve once, serve queries, absorb traffic updates).

use crate::sparse2d::{sparse2d_with, Sparse2dOptions};
use crate::supernodal::SupernodalLayout;
use crate::update::{apply_decreases, DecreasedEdge};
use apsp_graph::{Csr, DenseDist};
use apsp_minplus::MinPlusMatrix;
use apsp_partition::{nested_dissection, NdOptions, NdOrdering};
use apsp_simnet::RunReport;

/// A solved all-pairs instance living on the simulated machine's layout:
/// per-rank blocks in eliminated order plus the permutation back to input
/// vertex ids.
pub struct SolvedApsp {
    graph: Csr,
    ordering: NdOrdering,
    layout: SupernodalLayout,
    /// per-rank blocks, eliminated order
    blocks: Vec<MinPlusMatrix>,
    /// accumulated communication bill (solve + every update so far)
    report: RunReport,
}

impl SolvedApsp {
    /// Solves `g` on `p = (2^h − 1)²` simulated ranks and returns the
    /// stateful handle.
    pub fn solve(g: &Csr, height: u32) -> SolvedApsp {
        assert!(g.has_nonnegative_weights(), "undirected APSP requires non-negative weights");
        let nd = nested_dissection(g, height, &NdOptions::default());
        nd.validate(g).expect("ordering violates the separation invariant");
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        let result = sparse2d_with(&layout, &gp, &Sparse2dOptions::default());
        let blocks = layout.split_dense(&result.dist_eliminated);
        SolvedApsp { graph: g.clone(), ordering: nd, layout, blocks, report: result.report }
    }

    /// Distance between two input-graph vertices (O(1) lookup).
    pub fn distance(&self, u: usize, v: usize) -> f64 {
        let (i, oi) = self.locate(u);
        let (j, oj) = self.locate(v);
        self.blocks[self.layout.rank_of_block(i, j)].get(oi, oj)
    }

    /// One shortest route between two input vertices, reconstructed from
    /// distances (`None` when unreachable).
    pub fn route(&self, u: usize, v: usize) -> Option<Vec<usize>> {
        apsp_graph::paths::reconstruct_path(&self.graph, &self.dense(), u, v, 1e-9)
    }

    /// Applies a batch of edge-weight **decreases** (input vertex ids).
    /// Each edge must already exist or be a new shortcut; the handle's
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
        for (u, v, w) in self.graph.edges() {
            b.add_edge(u, v, w);
        }
        for &(u, v, w) in edges {
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

    /// The nested-dissection ordering in use.
    pub fn ordering(&self) -> &NdOrdering {
        &self.ordering
    }

    /// The current graph (including applied decreases).
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    fn locate(&self, u: usize) -> (usize, usize) {
        let new = self.ordering.perm.to_new(u);
        let k = self.ordering.supernode_of_new(new);
        (k, new - self.layout.offset(k))
    }

    /// Serializes the solved instance to a self-contained text snapshot
    /// (graph, ordering, distance blocks, accumulated bill) so a service
    /// can restart without re-solving.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        use std::fmt::Write as _;
        let mut s = String::from("sparse-apsp solved v1\n");
        let _ = writeln!(s, "height {}", self.layout.tree().height());
        let _ = writeln!(
            s,
            "sizes {}",
            (1..=self.layout.n_super())
                .map(|k| self.layout.size(k).to_string())
                .collect::<Vec<_>>()
                .join(" ")
        );
        let _ = writeln!(
            s,
            "order {}",
            self.ordering
                .perm
                .as_order()
                .iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        );
        // accumulated critical clocks (enough to restore the bill's shape)
        let r = &self.report;
        let _ = writeln!(
            s,
            "bill {} {} {} {} {} {}",
            r.critical_latency(),
            r.critical_bandwidth(),
            r.critical_compute(),
            r.total_messages(),
            r.total_words(),
            r.max_peak_words()
        );
        let _ = writeln!(s, "graph");
        s.push_str(&apsp_graph::io::to_edge_list(&self.graph));
        let _ = writeln!(s, "blocks");
        for block in &self.blocks {
            let row: Vec<String> = block
                .as_slice()
                .iter()
                .map(|&w| if w.is_infinite() { "inf".into() } else { format!("{w}") })
                .collect();
            let _ = writeln!(s, "{}", row.join(" "));
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
        let parse_line = |line: Option<&str>, key: &str| -> Result<Vec<String>, String> {
            let line = line.ok_or_else(|| format!("missing {key} line"))?;
            let mut it = line.split_whitespace();
            if it.next() != Some(key) {
                return Err(format!("expected {key} line, got {line:?}"));
            }
            Ok(it.map(String::from).collect())
        };
        let height: u32 = parse_line(lines.next(), "height")?
            .first()
            .ok_or("missing height")?
            .parse()
            .map_err(|e| format!("{e}"))?;
        let sizes: Vec<usize> = parse_line(lines.next(), "sizes")?
            .iter()
            .map(|x| x.parse().map_err(|e| format!("{e}")))
            .collect::<Result<_, _>>()?;
        let order: Vec<usize> = parse_line(lines.next(), "order")?
            .iter()
            .map(|x| x.parse().map_err(|e| format!("{e}")))
            .collect::<Result<_, _>>()?;
        let mut seen = vec![false; order.len()];
        for &v in &order {
            if v >= order.len() || std::mem::replace(&mut seen[v], true) {
                return Err(format!(
                    "line 4: order is not a permutation of 0..{}: {v} is out of range or repeated",
                    order.len()
                ));
            }
        }
        let bill: Vec<u64> = parse_line(lines.next(), "bill")?
            .iter()
            .map(|x| x.parse().map_err(|e| format!("{e}")))
            .collect::<Result<_, _>>()?;
        if bill.len() != 6 {
            return Err("bad bill line".into());
        }
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

        let block_lines = &rest[split + 1..];
        if block_lines.len() != layout.p() {
            return Err(format!(
                "expected {} block lines, found {}",
                layout.p(),
                block_lines.len()
            ));
        }
        let mut blocks = Vec::with_capacity(layout.p());
        for (rank, line) in block_lines.iter().enumerate() {
            let (i, j) = layout.block_of_rank(rank);
            let want = layout.block_words(i, j);
            let vals: Vec<f64> = line
                .split_whitespace()
                .map(|x| {
                    if x == "inf" {
                        Ok(f64::INFINITY)
                    } else {
                        x.parse().map_err(|e| format!("{e}"))
                    }
                })
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
        report.per_rank[0].clocks.latency = bill[0]; // audit:allow(ledger-mutation)
        report.per_rank[0].clocks.bandwidth = bill[1]; // audit:allow(ledger-mutation)
        report.per_rank[0].clocks.compute = bill[2]; // audit:allow(ledger-mutation)
        report.per_rank[0].sent_messages = bill[3];
        report.per_rank[0].sent_words = bill[4];
        report.per_rank[0].peak_words = bill[5];

        Ok(SolvedApsp { graph, ordering, layout, blocks, report })
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
