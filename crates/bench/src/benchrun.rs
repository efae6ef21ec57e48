//! `apsp bench` — the pinned wall-clock + kernel-counter workload matrix
//! behind the committed `BENCH_*.json` trajectory.
//!
//! Each case solves one (workload, solver, height) cell, verifies the
//! distances against the Dijkstra oracle (a timing from a wrong answer is
//! worthless), and records:
//!
//! * **wall_ns** — minimum wall-clock over the iterations (min, not mean:
//!   the minimum is the least noisy estimator of the true cost on a
//!   machine with background load);
//! * the **§3.1 critical-path clocks** from the run report — fully
//!   deterministic, so any drift is an algorithmic change, not noise;
//! * **kernel/machine counter deltas** from the global metrics registry
//!   (GEMM/FW scalar ops, ∞ skips, bytes touched, block updates/skips,
//!   messages, words) over exactly one solve — also deterministic.
//!
//! The JSON schema is versioned ([`SCHEMA`]); [`compare`] gates CI on
//! wall-clock regressions against a committed baseline while treating
//! deterministic-counter drift as a warning (an intentional algorithmic
//! change updates the baseline; see `docs/OBSERVABILITY.md`).

use crate::jsonio::{self, Json};
use crate::workloads::{self, Workload};
use apsp_core::dcapsp::DcApsp;
use apsp_core::djohnson::DJohnson;
use apsp_core::fw2d::Fw2d;
use apsp_core::launch::{launch, DenseResult, LaunchSpec, Launched};
use apsp_core::{Backend, SparseApsp, SparseApspConfig};
use apsp_graph::{oracle, Csr, DenseDist};
use apsp_simnet::{MachineError, RunReport};
use std::fmt::Write as _;
use std::time::Instant;

/// Schema tag every `BENCH_*.json` carries; bump on layout changes.
pub const SCHEMA: &str = "apsp-bench-v1";

/// Counter families whose per-case deltas the bench records, as
/// `(registry name, short key in the JSON)`.
pub const TRACKED_COUNTERS: &[(&str, &str)] = &[
    ("apsp_minplus_gemm_ops_total", "gemm_ops"),
    ("apsp_minplus_fw_ops_total", "fw_ops"),
    ("apsp_minplus_inf_row_skips_total", "inf_row_skips"),
    ("apsp_minplus_bytes_touched_total", "bytes_touched"),
    ("apsp_minplus_block_updates_total", "block_updates"),
    ("apsp_minplus_block_skips_total", "block_skips"),
    ("apsp_simnet_messages_total", "messages"),
    ("apsp_simnet_words_total", "words"),
];

/// One cell of the workload matrix.
pub struct CaseSpec {
    /// The workload (graph + display name).
    pub workload: Workload,
    /// Solver key: `sparse2d`, `fw2d`, `dcapsp`, or `djohnson`.
    pub solver: &'static str,
    /// Elimination-tree height; the machine gets `(2^h − 1)²` ranks.
    pub height: u32,
}

/// One measured cell.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchCase {
    /// Workload display name.
    pub workload: String,
    /// Solver key.
    pub solver: String,
    /// Elimination-tree height.
    pub height: u32,
    /// Vertices.
    pub n: usize,
    /// Edges.
    pub m: usize,
    /// Wall-clock iterations measured.
    pub iters: u32,
    /// Minimum wall-clock nanoseconds over the iterations.
    pub wall_ns: u64,
    /// §3.1 critical-path message count (deterministic).
    pub critical_latency: u64,
    /// §3.1 critical-path word count (deterministic).
    pub critical_bandwidth: u64,
    /// §3.1 critical-path scalar-op count (deterministic).
    pub critical_compute: u64,
    /// Per-case deltas of [`TRACKED_COUNTERS`], in that order.
    pub counters: Vec<(String, u64)>,
}

impl BenchCase {
    /// The `(workload, solver, height)` identity cases are matched by.
    pub fn key(&self) -> String {
        format!("{} / {} / h={}", self.workload, self.solver, self.height)
    }
}

/// A full bench run.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSuite {
    /// Run label (names the output file `BENCH_<label>.json`).
    pub label: String,
    /// `true` = the quick matrix, `false` = the full matrix.
    pub quick: bool,
    /// Execution backend the suite ran on (`"sim"` or `"native"`; sim
    /// baselines predating the field parse back as `"sim"`).
    pub backend: String,
    /// Measured cells.
    pub cases: Vec<BenchCase>,
}

/// The quick matrix — small enough for a CI smoke job (seconds).
pub fn quick_specs() -> Vec<CaseSpec> {
    let mut specs = Vec::new();
    for solver in ["sparse2d", "fw2d"] {
        specs.push(CaseSpec { workload: workloads::mesh(8), solver, height: 2 });
        specs.push(CaseSpec { workload: workloads::geometric(64), solver, height: 2 });
        specs.push(CaseSpec { workload: workloads::erdos_renyi(64, 0.08), solver, height: 2 });
    }
    specs
}

/// The full matrix — every solver, bigger graphs, plus an `h = 3` row.
pub fn full_specs() -> Vec<CaseSpec> {
    let mut specs = Vec::new();
    for solver in ["sparse2d", "fw2d", "dcapsp", "djohnson"] {
        specs.push(CaseSpec { workload: workloads::mesh(12), solver, height: 2 });
        specs.push(CaseSpec { workload: workloads::geometric(128), solver, height: 2 });
        specs.push(CaseSpec { workload: workloads::erdos_renyi(96, 0.06), solver, height: 2 });
        specs.push(CaseSpec { workload: workloads::mesh3d(4), solver, height: 2 });
    }
    specs.push(CaseSpec { workload: workloads::mesh(12), solver: "sparse2d", height: 3 });
    specs
}

fn solve_once(g: &Csr, solver: &str, height: u32, backend: Backend) -> (DenseDist, RunReport) {
    let n_grid = (1usize << height) - 1;
    let spec = LaunchSpec { backend, ..Default::default() };
    let dense = |run: Result<Launched<DenseResult>, MachineError>| {
        let out = run.expect("fault-free launch cannot fail").result;
        (out.dist, out.report)
    };
    match solver {
        "sparse2d" => {
            let config = SparseApspConfig { height, backend, ..Default::default() };
            let run = SparseApsp::new(config).run(g);
            (run.dist, run.report)
        }
        "fw2d" => dense(launch(&Fw2d::new(g, n_grid), &spec)),
        "dcapsp" => dense(launch(&DcApsp::new(g, n_grid, 1), &spec)),
        "djohnson" => dense(launch(&DJohnson::new(g, n_grid * n_grid), &spec)),
        other => panic!("unknown bench solver {other}"),
    }
}

fn counter_values() -> Vec<u64> {
    let snap = apsp_metrics::global().snapshot();
    TRACKED_COUNTERS.iter().map(|(name, _)| snap.counter_value(name)).collect()
}

/// Runs one cell: an untimed verified solve bracketed by counter
/// snapshots (the deltas), then `iters` timed solves (min wall-clock).
pub fn run_case(spec: &CaseSpec, iters: u32, backend: Backend) -> BenchCase {
    let g = &spec.workload.graph;
    let before = counter_values();
    let (dist, report) = solve_once(g, spec.solver, spec.height, backend);
    let after = counter_values();
    let reference = oracle::apsp_dijkstra(g);
    if let Some((i, j, a, b)) = dist.first_mismatch(&reference, 1e-9) {
        panic!("bench case {} is WRONG at ({i},{j}): {a} vs {b}", spec.workload.name);
    }
    let mut wall_ns = u64::MAX;
    for _ in 0..iters.max(1) {
        // the bench harness is the one consumer of real wall time
        let t0 = Instant::now(); // audit:allow(wall-clock)
        let _ = solve_once(g, spec.solver, spec.height, backend);
        wall_ns = wall_ns.min(t0.elapsed().as_nanos() as u64);
    }
    BenchCase {
        workload: spec.workload.name.clone(),
        solver: spec.solver.to_string(),
        height: spec.height,
        n: g.n(),
        m: g.m(),
        iters: iters.max(1),
        wall_ns,
        critical_latency: report.critical_latency(),
        critical_bandwidth: report.critical_bandwidth(),
        critical_compute: report.critical_compute(),
        counters: TRACKED_COUNTERS
            .iter()
            .zip(before.iter().zip(&after))
            .map(|(&(_, short), (&b, &a))| (short.to_string(), a.saturating_sub(b)))
            .collect(),
    }
}

/// Runs a whole matrix on [`Backend::Sim`], announcing progress through
/// `progress`.
pub fn run_suite(
    label: &str,
    quick: bool,
    iters: u32,
    progress: &mut dyn FnMut(&str),
) -> BenchSuite {
    run_suite_on(label, quick, iters, Backend::Sim, progress)
}

/// Runs a whole matrix on the given backend, announcing progress through
/// `progress`.
pub fn run_suite_on(
    label: &str,
    quick: bool,
    iters: u32,
    backend: Backend,
    progress: &mut dyn FnMut(&str),
) -> BenchSuite {
    let specs = if quick { quick_specs() } else { full_specs() };
    let total = specs.len();
    let mut cases = Vec::with_capacity(total);
    for (i, spec) in specs.iter().enumerate() {
        progress(&format!(
            "[{}/{}] {} / {} / h={} / {backend}",
            i + 1,
            total,
            spec.workload.name,
            spec.solver,
            spec.height
        ));
        cases.push(run_case(spec, iters, backend));
    }
    BenchSuite { label: label.to_string(), quick, backend: backend.to_string(), cases }
}

impl BenchSuite {
    /// Hand-serializes the suite as schema-versioned JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(s, "  \"label\": \"{}\",", jsonio::escape(&self.label));
        let _ = writeln!(s, "  \"quick\": {},", self.quick);
        let _ = writeln!(s, "  \"backend\": \"{}\",", jsonio::escape(&self.backend));
        s.push_str("  \"cases\": [\n");
        for (i, c) in self.cases.iter().enumerate() {
            s.push_str("    {\n");
            let _ = writeln!(s, "      \"workload\": \"{}\",", jsonio::escape(&c.workload));
            let _ = writeln!(s, "      \"solver\": \"{}\",", jsonio::escape(&c.solver));
            let _ = writeln!(s, "      \"height\": {},", c.height);
            let _ = writeln!(s, "      \"n\": {},", c.n);
            let _ = writeln!(s, "      \"m\": {},", c.m);
            let _ = writeln!(s, "      \"iters\": {},", c.iters);
            let _ = writeln!(s, "      \"wall_ns\": {},", c.wall_ns);
            let _ = writeln!(s, "      \"critical_latency\": {},", c.critical_latency);
            let _ = writeln!(s, "      \"critical_bandwidth\": {},", c.critical_bandwidth);
            let _ = writeln!(s, "      \"critical_compute\": {},", c.critical_compute);
            let counters: Vec<String> =
                c.counters.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            let _ = writeln!(s, "      \"counters\": {{{}}}", counters.join(", "));
            s.push_str(if i + 1 < self.cases.len() { "    },\n" } else { "    }\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a `BENCH_*.json` document.
    ///
    /// # Errors
    /// Syntax errors from the JSON reader, a schema mismatch, or a case
    /// missing a required field.
    pub fn from_json(text: &str) -> Result<BenchSuite, String> {
        let doc = jsonio::parse(text)?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != SCHEMA {
            return Err(format!("schema mismatch: expected {SCHEMA:?}, found {schema:?}"));
        }
        let label = doc.get("label").and_then(Json::as_str).unwrap_or("").to_string();
        let quick = doc.get("quick") == Some(&Json::Bool(true));
        let backend = doc.get("backend").and_then(Json::as_str).unwrap_or("sim").to_string();
        let num = |case: &Json, key: &str| -> Result<u64, String> {
            case.get(key)
                .and_then(Json::as_num)
                .map(|x| x as u64)
                .ok_or_else(|| format!("case missing {key}"))
        };
        let mut cases = Vec::new();
        for case in doc.get("cases").and_then(Json::as_arr).unwrap_or(&[]) {
            let counters = match case.get("counters") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .map(|(k, v)| {
                        v.as_num()
                            .map(|x| (k.clone(), x as u64))
                            .ok_or_else(|| format!("bad counter {k}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => Vec::new(),
            };
            cases.push(BenchCase {
                workload: case
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or("case missing workload")?
                    .to_string(),
                solver: case
                    .get("solver")
                    .and_then(Json::as_str)
                    .ok_or("case missing solver")?
                    .to_string(),
                height: num(case, "height")? as u32,
                n: num(case, "n")? as usize,
                m: num(case, "m")? as usize,
                iters: num(case, "iters")? as u32,
                wall_ns: num(case, "wall_ns")?,
                critical_latency: num(case, "critical_latency")?,
                critical_bandwidth: num(case, "critical_bandwidth")?,
                critical_compute: num(case, "critical_compute")?,
                counters,
            });
        }
        Ok(BenchSuite { label, quick, backend, cases })
    }
}

/// Wall-clock regressions smaller than this are noise, whatever the
/// ratio says (quick cases run in milliseconds).
pub const MIN_REGRESSION_NS: u64 = 10_000_000;

/// The outcome of comparing a fresh run against a baseline.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Hard failures: wall-clock regressions beyond tolerance.
    pub regressions: Vec<String>,
    /// Soft findings: deterministic-counter drift, missing cases.
    pub warnings: Vec<String>,
}

impl Comparison {
    /// `true` when CI should pass.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares `current` against `baseline`: a case is a **regression** when
/// its wall-clock exceeds the baseline by more than `tolerance`
/// (fractional, e.g. `0.25`) *and* by more than [`MIN_REGRESSION_NS`]
/// absolute. Deterministic values (§3.1 clocks, kernel counters) that
/// drift are **warnings** — an intentional algorithmic change should
/// update the committed baseline.
pub fn compare(current: &BenchSuite, baseline: &BenchSuite, tolerance: f64) -> Comparison {
    let mut out = Comparison::default();
    for cur in &current.cases {
        let Some(base) = baseline.cases.iter().find(|b| {
            b.workload == cur.workload && b.solver == cur.solver && b.height == cur.height
        }) else {
            out.warnings.push(format!("{}: not in baseline (new case?)", cur.key()));
            continue;
        };
        let limit = (base.wall_ns as f64 * (1.0 + tolerance)) as u64;
        if cur.wall_ns > limit && cur.wall_ns - base.wall_ns > MIN_REGRESSION_NS {
            out.regressions.push(format!(
                "{}: wall {:.3} ms vs baseline {:.3} ms (> {:.0}% slower)",
                cur.key(),
                cur.wall_ns as f64 / 1e6,
                base.wall_ns as f64 / 1e6,
                tolerance * 100.0
            ));
        }
        for (label, c, b) in [
            ("critical_latency", cur.critical_latency, base.critical_latency),
            ("critical_bandwidth", cur.critical_bandwidth, base.critical_bandwidth),
            ("critical_compute", cur.critical_compute, base.critical_compute),
        ] {
            if c != b {
                out.warnings.push(format!("{}: {label} {c} vs baseline {b}", cur.key()));
            }
        }
        for (k, v) in &cur.counters {
            if let Some((_, bv)) = base.counters.iter().find(|(bk, _)| bk == k) {
                if v != bv {
                    out.warnings.push(format!("{}: counter {k} {v} vs baseline {bv}", cur.key()));
                }
            }
        }
    }
    for base in &baseline.cases {
        if !current.cases.iter().any(|c| {
            c.workload == base.workload && c.solver == base.solver && c.height == base.height
        }) {
            out.warnings.push(format!("{}: in baseline but not in this run", base.key()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_suite() -> BenchSuite {
        let spec = CaseSpec { workload: workloads::mesh(6), solver: "sparse2d", height: 2 };
        BenchSuite {
            label: "test".into(),
            quick: true,
            backend: "sim".into(),
            cases: vec![run_case(&spec, 1, Backend::Sim)],
        }
    }

    #[test]
    fn roundtrips_through_json() {
        let suite = tiny_suite();
        let parsed = BenchSuite::from_json(&suite.to_json()).expect("own JSON parses");
        assert_eq!(suite, parsed);
    }

    #[test]
    fn case_records_the_deterministic_payload() {
        let suite = tiny_suite();
        let c = &suite.cases[0];
        assert_eq!(c.n, 36);
        assert!(c.wall_ns > 0);
        assert!(c.critical_latency > 0);
        let ops = |k: &str| c.counters.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert!(ops("gemm_ops").unwrap_or(0) + ops("fw_ops").unwrap_or(0) > 0, "kernels counted");
        assert!(ops("messages").expect("messages tracked") > 0);
    }

    #[test]
    fn self_compare_is_clean_and_slower_regresses() {
        let suite = tiny_suite();
        let cmp = compare(&suite, &suite, 0.25);
        assert!(cmp.ok(), "self-compare regressed: {:?}", cmp.regressions);
        assert!(cmp.warnings.is_empty(), "self-compare warned: {:?}", cmp.warnings);
        let mut slow = suite.clone();
        slow.cases[0].wall_ns = suite.cases[0].wall_ns * 2 + 2 * MIN_REGRESSION_NS;
        let cmp = compare(&slow, &suite, 0.25);
        assert!(!cmp.ok(), "2x + floor must regress");
        // drifted counters warn but never fail
        let mut drift = suite.clone();
        drift.cases[0].critical_latency += 1;
        let cmp = compare(&drift, &suite, 0.25);
        assert!(cmp.ok());
        assert!(cmp.warnings.iter().any(|w| w.contains("critical_latency")));
    }

    #[test]
    fn schema_is_enforced() {
        assert!(BenchSuite::from_json("{\"schema\": \"other\", \"cases\": []}").is_err());
    }
}
