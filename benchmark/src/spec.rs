//! What the benchmark runs and what it reports: the four workloads, the
//! seven end-to-end metrics with their bounds, and the per-layer metrics of
//! the traced run. `BENCHMARK.json` at the repository root is generated
//! from these tables (`apsp-benchmark spec-json`) and a package test keeps
//! the two equal.

use crate::quote;
use apsp_core::driver::Ordering;
use apsp_core::{Backend, SparseApspConfig};
use apsp_graph::generators::{connected_gnp, grid2d, WeightKind};
use apsp_graph::{Csr, GraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Seconds one run measures unless `--seconds` says otherwise; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 30;

/// The expander's edges come from this fixed seed and only its weights
/// from `--seed`: a `G(n, p)` redrawn per seed moves its top separator by
/// a few percent and the `|S|³` gemm work by three times that, which
/// would be input variance reported as run-to-run spread.
const EXPANDER_TOPOLOGY_SEED: u64 = 0x2d5a;

enum Input {
    /// `rows × cols` 4-neighbour mesh; `smoke` is the shape of a smoke run.
    Grid { rows: usize, cols: usize, smoke: (usize, usize), weights: WeightKind },
    /// `connected_gnp(n, degree / n)`: no small separators.
    Expander { n: usize, smoke_n: usize, degree: f64 },
}

/// Shares of `--seconds` the timed stages get.
pub struct Shares {
    pub setup: f64,
    pub solve: f64,
    pub solve_all_cores: f64,
    pub query: f64,
    pub route: f64,
    pub update: f64,
}

/// The stages that start threads get most: their fast repetitions are the
/// rarest.
const SOLVER_HEAVY: Shares =
    Shares { setup: 0.15, solve: 0.25, solve_all_cores: 0.15, query: 0.10, route: 0.10, update: 0.25 };
/// `mesh-serve`: lookups, routes and updates together get 3.4 times what
/// the two solve stages get.
const SERVE_HEAVY: Shares =
    Shares { setup: 0.12, solve: 0.12, solve_all_cores: 0.08, query: 0.20, route: 0.20, update: 0.28 };

pub struct Workload {
    pub name: &'static str,
    /// One line, at most 200 characters (it goes into `BENCHMARK.json`).
    pub why: &'static str,
    /// Elimination-tree height `h`; the solve runs on `p = (2^h − 1)²` ranks.
    pub height: u32,
    pub shares: Shares,
    input: Input,
}

const UNIFORM: WeightKind = WeightKind::Uniform { lo: 1.0, hi: 10.0 };

// Sizes. One operation of any stage has to stay under about 50 ms, because
// the run's value is the fastest of many short repetitions (README,
// "Noise"): the machine this was sized on switches between two speeds
// every few milliseconds, and a longer operation never sees the fast one
// from start to end. That caps `n` at a few hundred vertices.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mesh-fw",
        why: "12x48 mesh, h=2, 9 ranks: two ~280-vertex leaves behind a 12-vertex separator make \
              fw_in_place 82% of relaxations, transport almost nothing. One pinned CPU except solve_all_cores_s",
        height: 2,
        shares: SOLVER_HEAVY,
        input: Input::Grid { rows: 12, cols: 48, smoke: (8, 32), weights: UNIFORM },
    },
    Workload {
        name: "expander-gemm",
        why: "G(400, 8/n), h=3, 49 ranks: top separator ~120 of 400, so R2-R4 gemm is 85% of relaxations \
              and separator-sized panels cross the transport. One pinned CPU except solve_all_cores_s",
        height: 3,
        shares: SOLVER_HEAVY,
        input: Input::Expander { n: 400, smoke_n: 200, degree: 8.0 },
    },
    Workload {
        name: "mesh-ranks",
        why: "10x10 mesh, h=3, 49 rank threads, supernodes of 5-20 vertices: kernels are 4% of a 3 ms solve, \
              the rest is threads, channels, blocked recv. One pinned CPU except solve_all_cores_s",
        height: 3,
        shares: SOLVER_HEAVY,
        input: Input::Grid { rows: 10, cols: 10, smoke: (8, 8), weights: UNIFORM },
    },
    Workload {
        name: "mesh-serve",
        why: "24x24 mesh, tie-rich integer weights, h=3: lookups, dense-materialising routes and 49-rank updates \
              on one handle get 3.4x the solves' time. One pinned CPU except solve_all_cores_s",
        height: 3,
        shares: SERVE_HEAVY,
        input: Input::Grid { rows: 24, cols: 24, smoke: (14, 14), weights: WeightKind::Integer { max: 9 } },
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Rank count of the solve, `(2^h − 1)²`.
    pub fn ranks(&self) -> usize {
        let side = (1usize << self.height) - 1;
        side * side
    }

    /// How the benchmark configures the solver for this workload.
    pub fn solver_config(&self, backend: Backend) -> SparseApspConfig {
        SparseApspConfig {
            height: self.height,
            ordering: Ordering::Multilevel,
            backend,
            ..Default::default()
        }
    }

    /// The input graph for `seed`. `smoke` shrinks it to `n ≤ 256`; smoke
    /// runs exist to exercise the code paths, never for numbers.
    pub fn graph(&self, seed: u64, smoke: bool) -> Csr {
        match self.input {
            Input::Grid { rows, cols, smoke: shape, weights } => {
                let (rows, cols) = if smoke { shape } else { (rows, cols) };
                grid2d(rows, cols, weights, seed)
            }
            Input::Expander { n, smoke_n, degree } => {
                let n = if smoke { smoke_n } else { n };
                let shape =
                    connected_gnp(n, degree / n as f64, WeightKind::Unit, EXPANDER_TOPOLOGY_SEED);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_e4a1);
                let mut b = GraphBuilder::new(n);
                for (u, v, _) in shape.edges() {
                    b.add_edge(u, v, rng.random_range(1.0..10.0));
                }
                b.build()
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen: 1.2 to
    /// 1.3 times the widest quartile spread this metric showed in 40 sets
    /// of ten runs of one binary (README, "Noise"); `setup_s` carries the
    /// largest.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.20,
        what: "SolvedApsp::solve: from the input graph to a handle that serves (what the serve stages are set up with)",
    },
    EndToEnd {
        name: "solve_s",
        unit: "s",
        better: Lower,
        bound: 0.15,
        what: "SparseApsp::run on the native backend, its rank threads on one pinned CPU: time to distances in input vertex ids",
    },
    EndToEnd {
        name: "solve_all_cores_s",
        unit: "s",
        better: Lower,
        bound: 0.20,
        what: "the same SparseApsp::run with every CPU the process was started with allowed (all other stages: one pinned CPU)",
    },
    EndToEnd {
        name: "query_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.13,
        what: "SolvedApsp::distance on uniform random pairs: lookups per second of a chunk of 2^14, every chunk the next window of a pool of 2^20 pairs",
    },
    EndToEnd {
        name: "route_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.13,
        what: "SolvedApsp::route on random pairs, 1 / call time",
    },
    EndToEnd {
        name: "update_s",
        unit: "s",
        better: Lower,
        bound: 0.17,
        what: "one SolvedApsp::decrease_edges batch of 8 edges (4 halved, 4 new shortcuts)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.04,
        what: "VmHWM of a child process that goes through the lifecycle once; median of 15 children",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric it should move, and where ("-": none).
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

const TABLE2: &str = "Table 2 quantity: moves only if the algorithm changes";
const SCALING: &str = "strong scaling as counts (p > cores rules out wall-clock scaling)";

/// Grouped by layer; the part of a name before the first dot is the layer.
pub const PER_LAYER: [PerLayer; 73] = [
    layer("graph.n", "count", Lower, "-"),
    layer("graph.m", "count", Lower, "-"),
    layer("graph.generate_s", "s", Lower, "-"),
    layer("graph.oracle_row_s", "s", Lower, "- (one Dijkstra source: the reference yardstick)"),
    layer(
        "partition.order_s",
        "s",
        Lower,
        "solve_s and setup_s everywhere (both order the graph first)",
    ),
    layer("partition.validate_s", "s", Lower, "solve_s, setup_s"),
    layer(
        "partition.top_separator",
        "count",
        Lower,
        "solve_s on expander-gemm (gemm work grows with |S|^2)",
    ),
    layer("partition.max_separator", "count", Lower, "solve_s on expander-gemm"),
    layer("supernodal.layout_s", "s", Lower, "solve_s, setup_s"),
    layer(
        "supernodal.assemble_s",
        "s",
        Lower,
        "route_per_s, update_s on mesh-serve and mesh-fw; solve_s slightly",
    ),
    layer(
        "supernodal.unpermute_s",
        "s",
        Lower,
        "route_per_s on mesh-serve and mesh-fw; solve_s slightly",
    ),
    layer(
        "supernodal.empty_block_share",
        "share",
        Higher,
        "solve_s (empty blocks are skipped work)",
    ),
    layer("minplus.gemm_ops", "count", Lower, "solve_s on expander-gemm"),
    layer("minplus.fw_ops", "count", Lower, "solve_s on mesh-fw"),
    layer("minplus.gemm_calls", "count", Lower, "solve_s on mesh-ranks"),
    layer("minplus.fw_calls", "count", Lower, "solve_s on mesh-ranks"),
    layer(
        "minplus.bytes_touched",
        "B",
        Lower,
        "solve_s (computed from operand sizes, not measured traffic)",
    ),
    layer("minplus.inf_row_skips", "count", Higher, "solve_s"),
    layer("minplus.ops_per_byte", "ops/B", Higher, "- (computed from the two counts above)"),
    layer("minplus.fw_relax_per_s", "1/s", Higher, "solve_s on mesh-fw; not on mesh-ranks"),
    layer("minplus.gemm_relax_per_s", "1/s", Higher, "solve_s on expander-gemm; not on mesh-ranks"),
    layer("minplus.kernel_est_s", "s", Lower, "solve_s (ops / calibrated single-thread rates)"),
    layer("minplus.kernel_share", "share", Higher, "- (kernel_est_s / trace.solve_s, both on one core)"),
    layer("transport.spawn_join_s", "s", Lower, "solve_s on mesh-ranks"),
    layer("transport.pingpong_per_s", "1/s", Higher, "solve_s on mesh-ranks"),
    layer("transport.allgather_words_per_s", "1/s", Higher, "solve_s on expander-gemm"),
    layer(
        "solve.all_cores_s",
        "s",
        Lower,
        "solve_all_cores_s (the same stage, in the traced run)",
    ),
    layer("solve.cpu_s", "s", Lower, "solve_s (CPU seconds of one solve on all cores)"),
    layer("solve.idle_core_s", "s", Lower, "- (solve.all_cores_s * cores - cpu_s: time cores sat waiting)"),
    layer("solve.cpu_util", "share", Higher, "- (cpu_s / (solve.all_cores_s * cores))"),
    layer("simnet.solve_s", "s", Lower, "setup_s (the handle is built on the simulator)"),
    layer("simnet.overhead_ratio", "ratio", Lower, "setup_s (simulated / native solve)"),
    layer("simnet.messages", "count", Lower, TABLE2),
    layer("simnet.words", "words", Lower, TABLE2),
    layer("simnet.critical_latency", "count", Lower, "solve_s on mesh-ranks should follow it"),
    layer("simnet.critical_bandwidth", "words", Lower, "solve_s on expander-gemm should follow it"),
    layer("simnet.critical_compute", "count", Lower, TABLE2),
    layer("simnet.max_peak_words", "words", Lower, "peak_rss_mb"),
    layer("sparse2d.level1.latency", "count", Lower, TABLE2),
    layer("sparse2d.level1.bandwidth", "words", Lower, TABLE2),
    layer("sparse2d.level2.latency", "count", Lower, TABLE2),
    layer("sparse2d.level2.bandwidth", "words", Lower, TABLE2),
    layer("sparse2d.level3.latency", "count", Lower, TABLE2),
    layer("sparse2d.level3.bandwidth", "words", Lower, TABLE2),
    layer("sparse2d.level4.latency", "count", Lower, TABLE2),
    layer("sparse2d.level4.bandwidth", "words", Lower, TABLE2),
    layer("simnet.h2.critical_latency", "count", Lower, SCALING),
    layer("simnet.h2.critical_bandwidth", "words", Lower, SCALING),
    layer("simnet.h2.critical_compute", "count", Lower, SCALING),
    layer("simnet.h3.critical_latency", "count", Lower, SCALING),
    layer("simnet.h3.critical_bandwidth", "words", Lower, SCALING),
    layer("simnet.h3.critical_compute", "count", Lower, SCALING),
    layer("simnet.h4.critical_latency", "count", Lower, SCALING),
    layer("simnet.h4.critical_bandwidth", "words", Lower, SCALING),
    layer("simnet.h4.critical_compute", "count", Lower, SCALING),
    layer("solved.build_s", "s", Lower, "setup_s (the same call, with the benchmark's spans on)"),
    layer("solved.distance_ns", "ns", Lower, "query_per_s"),
    layer("solved.route_ms_p50", "ms", Lower, "route_per_s on mesh-serve"),
    layer("solved.route_ms_p90", "ms", Lower, "route_per_s on mesh-serve"),
    layer("solved.route_hops_mean", "hops", Lower, "- (path length of the timed routes)"),
    layer(
        "solved.dense_s",
        "s",
        Lower,
        "route_per_s; peak_rss_mb (route's two dense copies set the peak)",
    ),
    layer("solved.save_s", "s", Lower, "-"),
    layer("solved.load_s", "s", Lower, "-"),
    layer("solved.snapshot_mb", "MiB", Lower, "-"),
    layer("update.batch_s_p50", "s", Lower, "update_s"),
    layer("update.batch_s_p90", "s", Lower, "update_s"),
    layer(
        "update.messages",
        "count",
        Lower,
        "update_s on mesh-ranks (49 simulated ranks per batch, hardly any arithmetic)",
    ),
    layer("update.words", "words", Lower, "update_s on expander-gemm (large blocks)"),
    layer("update.vs_resolve_ratio", "ratio", Lower, "update_s (one batch / one solve)"),
    layer("superfw.serial_s", "s", Lower, "- (plain single-threaded run of the same problem)"),
    layer("superfw.ops", "count", Lower, "-"),
    layer("trace.solve_s", "s", Lower, "- (solve_s with the benchmark's spans on)"),
    layer(
        "trace.overhead_share",
        "share",
        Lower,
        "- (trace.solve_s against untraced solves of the same run)",
    ),
];

/// Unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, unit)| unit)
}

/// `--list`: every workload and metric by name, with units.
pub fn listing() -> String {
    let mut out = String::from(
        "closed loop, one client thread; the client and every thread the program starts are pinned to\n\
         one CPU (the highest-numbered one allowed), except in the solve_all_cores stage; a run's value\n\
         of a timed metric is its fastest repetition (README, \"Noise\")\n\
         workloads:\n",
    );
    for w in &WORKLOADS {
        let _ = writeln!(out, "  {:<14} h={} p={:<4} {}", w.name, w.height, w.ranks(), w.why);
    }
    out.push_str("end-to-end metrics (untraced run):\n");
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "  {:<18} {:<4} {} is better, bound {:.0}%: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    out.push_str("per-layer metrics (traced run) -> the end-to-end metric each should move:\n");
    for m in &PER_LAYER {
        let _ = writeln!(out, "  {:<34} {:<6} -> {}", m.name, m.unit, m.moves);
    }
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--config\", \"benchmark/cargo-config.toml\", \"--release\", \
         \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let rows = |rows: Vec<String>| rows.join(",\n");
    let _ = writeln!(
        out,
        "  \"workloads\": [\n{}\n  ],",
        rows(
            WORKLOADS
                .iter()
                .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
                .collect()
        )
    );
    let _ = writeln!(
        out,
        "  \"end_to_end\": [\n{}\n  ],",
        rows(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.as_str()),
                    m.bound
                ))
                .collect()
        )
    );
    let _ = writeln!(
        out,
        "  \"per_layer\": [\n{}\n  ]",
        rows(
            PER_LAYER
                .iter()
                .map(|m| format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.as_str())
                ))
                .collect()
        )
    );
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_bench::jsonio::{parse, Json};
    use std::collections::BTreeSet;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(well_formed(w.name, 64, "_.-") && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(well_formed(name, 64, "_.-") && names.insert(name), "{name}");
            assert!(well_formed(unit, 16, "_/%.-"), "{name}: {unit}");
        }
        // the driver's contract: no bound above 0.25, `setup_s` the largest
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound && m.bound <= 0.25));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).unwrap();
        assert_eq!(committed, benchmark_json(), "regenerate with `apsp-benchmark spec-json`");
        let doc = parse(&committed).unwrap();
        let Json::Obj(pairs) = &doc else { panic!("BENCHMARK.json is an object") };
        let keys: Vec<&str> = pairs.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(doc.get("per_layer").and_then(Json::as_arr).unwrap().len(), PER_LAYER.len());
        assert!(committed.len() < 64 * 1024);
    }

    #[test]
    fn smoke_graphs_are_small_and_seeds_change_weights_only() {
        for w in &WORKLOADS {
            let (a, b) = (w.graph(7, true), w.graph(8, true));
            assert!(a.n() <= 256 && a.is_connected(), "{}", w.name);
            assert_eq!((a.n(), a.m()), (b.n(), b.m()));
            assert!(a.edges().zip(b.edges()).all(|(x, y)| (x.0, x.1) == (y.0, y.1)));
            assert!(a.edges().zip(b.edges()).any(|(x, y)| x.2 != y.2));
            assert!(w.graph(7, true).edges().eq(a.edges()), "same seed, same input");
        }
    }
}
