//! `apsp` — command-line front end for the sparse-apsp library.
//!
//! ```text
//! apsp generate --kind grid --rows 12 --cols 12 --seed 7 --out mesh.el
//! apsp solve --input mesh.el --algorithm sparse2d --height 3 \
//!            --distances dist.tsv --report report.json --verify
//! apsp path --input mesh.el --from 0 --to 143 --height 3
//! ```
//!
//! Formats: `.el` edge list, `.mtx` MatrixMarket, and `.gr` DIMACS
//! (autodetected from the extension; `--directed` keeps `.gr` arc
//! orientation). The cost report is emitted as JSON (hand-serialized —
//! the fields are flat counters).

use sparse_apsp::prelude::*;
use std::fmt::Write as _;

fn die(msg: &str) -> ! {
    eprintln!("apsp: {msg}");
    eprintln!("run `apsp help` for usage");
    std::process::exit(2);
}

struct Args(Vec<String>);

impl Args {
    fn opt(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        match self.0.get(i + 1).map(String::as_str) {
            Some(v) if !v.starts_with("--") => Some(v),
            _ => die(&format!("{name} requires a value")),
        }
    }

    fn get(&self, name: &str) -> &str {
        self.opt(name).unwrap_or_else(|| die(&format!("missing required option {name}")))
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.opt(name) {
            Some(v) => v.parse().unwrap_or_else(|_| die(&format!("bad value for {name}: {v}"))),
            None => default,
        }
    }

    /// `--height`: a scheduling-tree height whose `(2^h − 1)²` ranks this
    /// build runs.
    fn height(&self, default: u32) -> u32 {
        let height = self.num("--height", default);
        check_ranks("--height", height, ranks_of_height(height));
        height
    }

    /// `--n-grid`: a grid side whose square, the rank count, this build runs.
    fn n_grid(&self, default: usize) -> usize {
        let n_grid = self.num("--n-grid", default);
        check_ranks("--n-grid", n_grid, (n_grid as u128).pow(2));
        n_grid
    }

    /// `--depth` of a dc-apsp run on `g` over an `n_grid × n_grid` grid.
    fn dcapsp<'g>(&self, g: &'g Csr, n_grid: usize) -> DcApsp<'g> {
        let depth = self.num("--depth", 1u32);
        if sparse_apsp::core::dcapsp::tile_count(g.n(), n_grid, depth).is_none() {
            die(&format!("--depth {depth} is too deep for {} vertices (2^depth > n)", g.n()));
        }
        DcApsp::new(g, n_grid, depth)
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// Dies on a `--token` outside `known`, the command's space-separated
    /// option table: a misspelt option must not silently run the default.
    /// `--metrics=BASE` is the one option that carries its value inline.
    fn reject_unknown(&self, cmd: &str, known: &str) {
        for a in self.0.iter().filter(|a| a.starts_with("--")) {
            let name = if a.starts_with("--metrics=") { "--metrics" } else { a.as_str() };
            if !known.split(' ').any(|k| k == name) {
                die(&format!("unknown option {a} for apsp {cmd}"));
            }
        }
    }

    /// `--name` → `Some(None)`, `--name=value` → `Some(Some(value))`,
    /// absent → `None`. For options whose value is optional.
    fn opt_eq(&self, name: &str) -> Option<Option<&str>> {
        self.0.iter().find_map(|a| {
            if a == name {
                Some(None)
            } else {
                a.strip_prefix(name).and_then(|r| r.strip_prefix('=')).map(Some)
            }
        })
    }
}

/// Dies unless `flag value`'s `p` ranks are in `1..=MAX_RANKS`, before any allocation.
fn check_ranks(flag: &str, value: impl std::fmt::Display, p: u128) {
    if !(1..=MAX_RANKS as u128).contains(&p) {
        die(&format!(
            "{flag} must be at least 1 and ask for at most {MAX_RANKS} ranks; {flag} {value} \
             asks for {p}"
        ));
    }
}

fn load_graph(path: &str) -> Csr {
    sparse_apsp::graph::io::read_graph(path).unwrap_or_else(|e| die(&e))
}

fn report_json(report: &RunReport, level_costs: &[(u64, u64)]) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"critical_latency\": {},", report.critical_latency());
    let _ = writeln!(s, "  \"critical_bandwidth\": {},", report.critical_bandwidth());
    let _ = writeln!(s, "  \"critical_compute\": {},", report.critical_compute());
    let _ = writeln!(s, "  \"total_messages\": {},", report.total_messages());
    let _ = writeln!(s, "  \"total_words\": {},", report.total_words());
    let _ = writeln!(s, "  \"max_peak_words\": {},", report.max_peak_words());
    let _ = writeln!(s, "  \"ranks\": {},", report.per_rank.len());
    let levels: Vec<String> = level_costs
        .iter()
        .map(|&(l, b)| format!("{{\"latency\": {l}, \"bandwidth\": {b}}}"))
        .collect();
    let _ = writeln!(s, "  \"level_costs\": [{}]", levels.join(", "));
    s.push('}');
    s
}

/// `true` when the run should collect the observability payload
/// (`--trace DIR` or `--profile` given).
fn wants_profile(args: &Args) -> bool {
    args.opt("--trace").is_some() || args.flag("--profile")
}

/// Parses `--backend sim|native` (default sim), dying with the accepted
/// values on a bad name.
fn backend(args: &Args) -> Backend {
    match args.opt("--backend") {
        None => Backend::Sim,
        Some(v) => Backend::parse(v).unwrap_or_else(|e| die(&e)),
    }
}

/// The native backend runs the schedule on OS threads with no §3.1 cost
/// model, so every simulator-only flag is rejected up front with a
/// readable message instead of being silently ignored. Fault injection
/// and checkpoint/restart (`--faults`/`--recover`) are **not** in this
/// list: the native backend runs the same seeded chaos over real channel
/// traffic (see docs/BACKENDS.md, "Native fault model").
fn reject_sim_only_flags(args: &Args) {
    for (flag, present) in [
        ("--trace", args.opt("--trace").is_some()),
        ("--profile", args.flag("--profile")),
        ("--charge-ordering", args.flag("--charge-ordering")),
    ] {
        if present {
            die(&format!("{flag} needs the simulated machine; drop {flag} or use --backend sim"));
        }
    }
}

/// `--fault-seed` only keys a fault plan: without `--faults` (or
/// `--recover`, whose empty plan is seeded too) it would be silently
/// ignored, which always means the user expected chaos that never ran.
fn reject_orphan_fault_seed(args: &Args) {
    if args.opt("--fault-seed").is_some()
        && args.opt("--faults").is_none()
        && args.opt("--recover").is_none()
    {
        die("--fault-seed requires --faults (or --recover); add a fault spec or drop the seed");
    }
}

/// Parses `--faults SPEC` (seeded by `--fault-seed`, default 0) into a
/// [`FaultPlan`], dying with the grammar error on a bad spec.
fn fault_plan(args: &Args) -> Option<FaultPlan> {
    let spec = args.opt("--faults")?;
    let seed: u64 = args.num("--fault-seed", 0);
    Some(FaultPlan::parse(spec, seed).unwrap_or_else(|e| die(&format!("bad --faults spec: {e}"))))
}

/// Parses `--recover POLICY` into a [`RecoveryPolicy`] (`default` or the
/// empty string name the default policy), dying with the grammar error on
/// a bad spec.
fn recovery_policy(args: &Args) -> Option<RecoveryPolicy> {
    let spec = args.opt("--recover")?;
    let spec = if spec == "default" { "" } else { spec };
    Some(RecoveryPolicy::parse(spec).unwrap_or_else(|e| die(&format!("bad --recover spec: {e}"))))
}

/// Announces what a faulty run went through on stderr: the fault history
/// and, when it was supervised, the checkpoint/restart ledger.
fn announce(faults: Option<&FaultSummary>, recovery: Option<&RecoveryReport>) {
    if let Some(summary) = faults {
        eprintln!("faults: {}", summary.digest());
    }
    if let Some(recovery) = recovery {
        eprintln!("recovery: {}", recovery.digest());
    }
}

/// The one rendering path for every refused or failed solve: typed
/// errors print their Display form — bad weights, wait-for cycles, fault
/// locations, restart budgets — never a raw `{:?}` dump.
fn die_refused(e: ApspError) -> ! {
    die(&e.to_string())
}

/// Renders the per-phase attribution as an aligned text table.
fn breakdown_table(bd: &sparse_apsp::simnet::PhaseBreakdown) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<24} {:>10} {:>12} {:>12} {:>9} {:>10}",
        "phase", "latency", "bandwidth", "compute", "messages", "words"
    );
    for row in &bd.rows {
        let _ = writeln!(
            s,
            "{:<24} {:>10} {:>12} {:>12} {:>9} {:>10}",
            row.label(),
            row.clocks.latency(),
            row.clocks.bandwidth(),
            row.clocks.compute(),
            row.messages,
            row.words
        );
    }
    let [latency, bandwidth, compute] = bd.total().to_words();
    let _ = writeln!(s, "{:<24} {:>10} {:>12} {:>12}", "total", latency, bandwidth, compute);
    let _ = writeln!(
        s,
        "attribution: {}",
        if bd.exact {
            "exact (rows sum to the critical-path clocks)"
        } else {
            "grouped (per-rank schedules diverge; rows are cross-rank maxima)"
        }
    );
    s
}

fn distances_tsv(dist: &DenseDist) -> String {
    let mut s = String::new();
    for i in 0..dist.n() {
        for j in 0..dist.n() {
            if j > 0 {
                s.push('\t');
            }
            let d = dist.get(i, j);
            if d.is_infinite() {
                s.push_str("inf");
            } else {
                let _ = write!(s, "{d}");
            }
        }
        s.push('\n');
    }
    s
}

fn cmd_generate(args: &Args) {
    args.reject_unknown(
        "generate",
        "--kind --out --rows --cols --side --n --p --radius --scale --edge-factor --weights \
         --max-weight --seed",
    );
    let kind = args.get("--kind");
    let seed: u64 = args.num("--seed", 0);
    let weights = match args.opt("--weights").unwrap_or("unit") {
        "unit" => WeightKind::Unit,
        "integer" => WeightKind::Integer { max: args.num("--max-weight", 9u32) },
        "uniform" => WeightKind::Uniform { lo: 0.1, hi: 1.0 },
        other => die(&format!("unknown weight kind {other}")),
    };
    let g = match kind {
        "grid" => grid2d(args.num("--rows", 10usize), args.num("--cols", 10usize), weights, seed),
        "grid3d" => {
            let s = args.num("--side", 5usize);
            grid3d(s, s, s, weights, seed)
        }
        "gnp" => connected_gnp(args.num("--n", 100usize), args.num("--p", 0.05f64), weights, seed),
        "geometric" => random_geometric(
            args.num("--n", 100usize),
            args.num("--radius", 0.15f64),
            weights,
            seed,
        ),
        "rmat" => rmat(args.num("--scale", 8u32), args.num("--edge-factor", 4usize), weights, seed),
        "path" => path(args.num("--n", 100usize), weights, seed),
        other => die(&format!("unknown graph kind {other}")),
    };
    let out = args.get("--out");
    sparse_apsp::graph::io::write_graph(out, &g).unwrap_or_else(|e| die(&e));
    println!("wrote {out}: {} vertices, {} edges", g.n(), g.m());
}

/// The options of one solver run (`--input` and what [`solve`] reads);
/// `apsp solve` and `apsp path` both take them.
const SOLVER_OPTS: &str = "--input --algorithm --backend --height --depth --sequential-r4 \
    --charge-ordering --faults --fault-seed --recover";

/// What `solve` hands back: distances, the cost report, per-level costs.
type Solved = (DenseDist, RunReport, Vec<(u64, u64)>);

/// The options every distributed solve shares, parsed (and cross-checked)
/// once: they become one [`LaunchSpec`] whatever the algorithm.
struct RunOpts {
    backend: Backend,
    plan: Option<FaultPlan>,
    recover: Option<RecoveryPolicy>,
    profile: bool,
}

fn run_opts(args: &Args) -> RunOpts {
    let backend = backend(args);
    if backend == Backend::Native {
        reject_sim_only_flags(args);
    }
    reject_orphan_fault_seed(args);
    let recover = recovery_policy(args);
    // --recover without --faults still supervises the run (an empty plan
    // measures the pure checkpointing overhead)
    let plan =
        fault_plan(args).or_else(|| recover.map(|_| FaultPlan::new(args.num("--fault-seed", 0))));
    RunOpts { backend, plan, recover, profile: wants_profile(args) }
}

/// Loads `--input` as a digraph: DIMACS keeps arc orientation; other
/// formats go through the undirected reader and get symmetric weights.
fn load_digraph(args: &Args) -> DiCsr {
    let input = args.get("--input");
    if input.ends_with(".gr") {
        let text = std::fs::read_to_string(input)
            .unwrap_or_else(|e| die(&format!("cannot read {input}: {e}")));
        sparse_apsp::graph::io::from_dimacs_directed(&text).unwrap_or_else(|e| die(&e))
    } else {
        DiCsr::from_undirected(&load_graph(input))
    }
}

/// The 2D-SPARSE-APSP configuration `--sequential-r4` and
/// `--charge-ordering` describe, at `height` on `backend`.
fn sparse_config(args: &Args, height: u32, backend: Backend) -> SparseApspConfig {
    let r4 = if args.flag("--sequential-r4") {
        R4Strategy::SequentialUnits
    } else {
        R4Strategy::OneToOne
    };
    let charge_ordering_distribution = args.flag("--charge-ordering");
    SparseApspConfig { height, r4, charge_ordering_distribution, backend, ..Default::default() }
}

/// The full 2D-SPARSE-APSP pipeline on an undirected or directed input.
fn solve_sparse2d(args: &Args, opts: &RunOpts, input: Input<'_>) -> Solved {
    let solver = SparseApsp::new(SparseApspConfig {
        profile: opts.profile,
        recovery: opts.recover,
        ..sparse_config(args, args.height(3), opts.backend)
    });
    let solved = solver.solve(input, opts.plan.as_ref()).unwrap_or_else(|e| die_refused(e));
    announce(solved.faults(), solved.recovery());
    let run = ApspRun::from(solved);
    (run.dist, run.report, run.level_costs)
}

/// One of the dense baselines under the shared options.
fn solve_dense<S: Solver<Result = DenseResult>>(solver: &S, opts: &RunOpts) -> Solved {
    let spec = LaunchSpec {
        backend: opts.backend,
        faults: opts.plan.as_ref(),
        recovery: opts.recover,
        profile: opts.profile,
        ..Default::default()
    };
    let run = launch(solver, &spec).unwrap_or_else(|e| die_refused(e));
    announce(run.faults.as_ref(), run.recovery.as_ref());
    (run.result.dist, run.result.report, Vec::new())
}

fn solve(args: &Args, g: &Csr) -> Solved {
    let algorithm = args.opt("--algorithm").unwrap_or("sparse2d");
    let height = args.height(3);
    let n_grid = (1usize << height) - 1;
    let opts = run_opts(args);
    match algorithm {
        "sparse2d" => solve_sparse2d(args, &opts, g.into()),
        "fw2d" => solve_dense(&Fw2d::new(g, n_grid), &opts),
        "dcapsp" => solve_dense(&args.dcapsp(g, n_grid), &opts),
        "djohnson" => solve_dense(&DJohnson::new(g, n_grid * n_grid), &opts),
        "superfw" => {
            if args.opt("--backend").is_some() {
                die("superfw is host-side shared-memory already; --backend does not apply");
            }
            if opts.profile {
                die("--trace/--profile need the simulated machine; superfw is shared-memory");
            }
            if opts.plan.is_some() {
                die("--faults/--recover need the simulated machine; superfw is shared-memory");
            }
            let nd = nested_dissection(g, height, &NdOptions::default());
            let (dist, _) = superfw_apsp(g, &nd);
            (dist, RunReport::default(), Vec::new())
        }
        other => die(&format!("unknown algorithm {other}")),
    }
}

/// Handles `--metrics[=BASE]`: enables the wall-clock timers up front
/// (counters are always on) and returns the export action for the end of
/// the run. Must run *before* the solve so the phase timers fire.
fn metrics_setup(args: &Args) -> Option<Option<String>> {
    let opt = args.opt_eq("--metrics")?;
    sparse_apsp::metrics::enable();
    Some(opt.map(String::from))
}

/// Emits the metrics the run collected: bare `--metrics` prints the human
/// summary on stderr; `--metrics=BASE` writes `BASE.prom` (Prometheus
/// text exposition) and `BASE.jsonl` (one series per line).
fn metrics_emit(dest: Option<String>) {
    let snap = sparse_apsp::metrics::global().snapshot();
    match dest {
        None => eprint!("{}", sparse_apsp::metrics::summary_table(&snap)),
        Some(base) => {
            let prom_path = format!("{base}.prom");
            let prom = sparse_apsp::metrics::prometheus_text(&snap);
            // self-check: our own exposition must parse back
            sparse_apsp::metrics::parse_prometheus(&prom)
                .unwrap_or_else(|e| die(&format!("internal: bad exposition: {e}")));
            std::fs::write(&prom_path, prom)
                .unwrap_or_else(|e| die(&format!("cannot write {prom_path}: {e}")));
            let jsonl_path = format!("{base}.jsonl");
            std::fs::write(&jsonl_path, sparse_apsp::metrics::jsonl(&snap))
                .unwrap_or_else(|e| die(&format!("cannot write {jsonl_path}: {e}")));
            eprintln!("metrics written to {prom_path} and {jsonl_path}");
        }
    }
}

/// `--verify`: the distances must equal the oracle's for the input's kind.
fn check_against(oracle: &str, reference: &DenseDist, dist: &DenseDist) {
    match dist.first_mismatch(reference, 1e-9) {
        None => eprintln!("verified against {oracle}: OK"),
        Some((i, j, a, b)) => die(&format!("verification FAILED at ({i},{j}): {a} vs {b}")),
    }
}

fn cmd_solve(args: &Args) {
    let own = "--verify --directed --distances --report --trace --profile --metrics";
    args.reject_unknown("solve", &format!("{SOLVER_OPTS} {own}"));
    let metrics = metrics_setup(args);
    let check = args.flag("--verify");
    let (dist, report, level_costs) = if args.flag("--directed") {
        let dg = load_digraph(args);
        let solved = solve_sparse2d(args, &run_opts(args), (&dg).into());
        if check {
            let reference = sparse_apsp::graph::digraph::apsp_dijkstra_directed(&dg);
            check_against("directed Dijkstra", &reference, &solved.0);
        }
        solved
    } else {
        let g = load_graph(args.get("--input"));
        let solved = solve(args, &g);
        if check {
            check_against("Dijkstra", &oracle::apsp_dijkstra(&g), &solved.0);
        }
        solved
    };
    if let Some(dir) = args.opt("--trace") {
        let profile = report
            .profile
            .as_ref()
            .unwrap_or_else(|| die("this run produced no profile (see --algorithm)"));
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("cannot create {dir}: {e}")));
        let trace_path = format!("{dir}/trace.json");
        std::fs::write(&trace_path, profile.chrome_trace_json(&TimeModel::default()))
            .unwrap_or_else(|e| die(&format!("cannot write {trace_path}: {e}")));
        let events_path = format!("{dir}/events.jsonl");
        std::fs::write(&events_path, profile.events_jsonl())
            .unwrap_or_else(|e| die(&format!("cannot write {events_path}: {e}")));
        eprintln!("trace written to {trace_path} (open in Perfetto / chrome://tracing)");
        eprintln!("message stream written to {events_path}");
    }
    if args.flag("--profile") {
        match report.phase_breakdown(0) {
            Some(bd) => eprint!("{}", breakdown_table(&bd)),
            None => eprintln!("no phase breakdown available"),
        }
    }
    if let Some(path) = args.opt("--distances") {
        std::fs::write(path, distances_tsv(&dist))
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("distances written to {path}");
    }
    let json = report_json(&report, &level_costs);
    match args.opt("--report") {
        Some(path) => {
            std::fs::write(path, &json)
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            eprintln!("report written to {path}");
        }
        None => println!("{json}"),
    }
    if let Some(dest) = metrics {
        metrics_emit(dest);
    }
}

fn cmd_path(args: &Args) {
    args.reject_unknown("path", &format!("{SOLVER_OPTS} --from --to"));
    let g = load_graph(args.get("--input"));
    let (dist, _, _) = solve(args, &g);
    let from: usize = args.num("--from", 0);
    let to: usize = args.num("--to", g.n().saturating_sub(1));
    if from >= g.n() || to >= g.n() {
        die("--from/--to out of range");
    }
    match reconstruct_path(&g, &dist, from, to, 1e-9) {
        Some(route) => {
            println!("distance: {}", dist.get(from, to));
            println!(
                "path: {}",
                route.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(" -> ")
            );
        }
        None => println!("unreachable"),
    }
}

const HELP: &str = "\
apsp — communication-avoiding sparse all-pairs shortest paths (ICPP'21)

USAGE:
  apsp generate --kind <grid|grid3d|gnp|geometric|rmat|path> --out FILE
                [--rows N --cols N | --side N | --n N [--p F | --radius F]
                 | --scale N [--edge-factor N]]
                [--weights unit|integer|uniform] [--max-weight N] [--seed N]
  apsp solve    --input FILE [--algorithm sparse2d|fw2d|dcapsp|djohnson|superfw]
                [--backend sim|native] [--height H] [--depth D] [--verify]
                [--distances FILE] [--report FILE]
                [--sequential-r4] [--charge-ordering]
                [--trace DIR] [--profile] [--metrics[=BASE]]
                [--faults SPEC] [--fault-seed N] [--recover POLICY]
                [--directed]   (.gr inputs keep their arc orientation)
  apsp path     --input FILE --from A --to B   (plus solve's solver options:
                --algorithm --backend --height --depth --sequential-r4
                --charge-ordering --faults --fault-seed --recover)
  apsp verify   --input FILE [--algorithm sparse2d|fw2d|dcapsp|djohnson|bad-fixture]
                [--backend sim|native] [--height H] [--n-grid N] [--depth D]
                [--sequential-r4]
  apsp audit    [--json] [--tolerance F] [--max-p N] [--fixture cost]
  apsp info     --input FILE [--height H]   (graph statistics + separator probe)
  apsp help

An option a command does not list is an error (exit 2), never ignored.

The simulated machine has p = (2^H - 1)^2 ranks (verify's --n-grid N sets
p = N^2 for the dense baselines; either way 1 <= p <= 961, so H <= 5 and
N <= 31), and dcapsp's
recursion depth D needs 2^D <= n. The JSON report carries the
critical-path latency/bandwidth the paper's Table 2 analyzes.

Backends: --backend sim (default) runs on the simulated machine with
exact §3.1 cost clocks; --backend native runs the *identical* schedule
on p OS threads, one inbox per rank — bit-identical distances, real
wall-clock, but no cost model, so the report's cost counters are zero
and the simulator-only flags (--trace, --profile, --charge-ordering)
are rejected. --faults and --recover DO work on the native backend:
the same seeded plans inject chaos into real inbox traffic, and
kill= rules unwind the killed rank's program on its thread (recovered
by checkpoint/restart under --recover); see docs/BACKENDS.md.

Observability: --trace DIR writes DIR/trace.json (Chrome-trace JSON of the
span ledger over simulated critical-path time; open in Perfetto) and
DIR/events.jsonl (one sent message per line); --profile prints a per-phase
table of the critical-path cost (exact-sum attribution on uniform SPMD
schedules). Both work with sparse2d, fw2d and dcapsp.

Metrics: --metrics prints the host-side metrics registry (kernel perf
counters, retransmission/recovery totals, per-phase wall-clock timers)
as a summary table on stderr after the solve; --metrics=BASE instead
writes BASE.prom (Prometheus text exposition 0.0.4) and BASE.jsonl (one
series per line). Counters are always on; the flag additionally enables
the wall-clock timers. Enabling metrics never changes the cost report —
the §3.1 ledgers are test-pinned byte-identical either way.

Fault injection: --faults SPEC runs the solver under deterministic,
seed-reproducible message faults; on the simulated machine recovery is
charged to the same cost ledgers, on the native backend the same plan
perturbs real channel traffic (delay/straggle are counted but inert —
no cost clocks to inflate). The summary prints on stderr. SPEC is
comma-separated clauses: drop=P, dup=P, corrupt=P, delay=P[:UNITS],
straggle=RANK:FACTOR, kill=SRC>DST, kill=RANK[@BOUNDARY], retries=N
(probabilities in [0,1)). The same --faults/--fault-seed pair replays
bit-identically on either backend (--fault-seed without --faults or
--recover is rejected — it would be silently ignored). Without
--recover, a kill= rule on a used link is unrecoverable: the solver
exits loudly instead of returning distances.

Checkpoint/restart: --recover POLICY supervises the faulty solve —
phase boundaries are checkpointed (snapshot bytes charged to the same
ledgers), killed ranks roll back to the last consistent checkpoint and
re-execute, permanently dead ranks are remapped onto spares, and the
restart/rollback ledger is printed on stderr as `recovery: ...`.
POLICY is comma-separated clauses restarts=N,every=K,spares=S (or
`default` = restarts=3,every=1,spares=1). When the budget is exhausted
the solver exits with a typed unrecoverable error. Works with
sparse2d, fw2d, dcapsp and djohnson, on both backends — on native the
kill unwinds a rank running on a real thread, and the replay runs it
again under a spare id.
Examples:
  apsp solve --input mesh.el --algorithm fw2d \\
             --faults \"drop=0.05,dup=0.02\" --fault-seed 7 --verify
  apsp solve --input mesh.el --algorithm sparse2d \\
             --faults \"kill=4@1\" --recover default --verify
  apsp solve --input mesh.el --algorithm sparse2d --backend native \\
             --faults \"kill=4@1\" --recover default --verify

Protocol verification: `apsp verify` checks the *communication schedule*
itself (not the distances — that is `solve --verify`). It records each
rank's comm script and lints it statically: every send matched, no tag
reused across phase boundaries, collectives entered in the same order
everywhere, every phase quiescent at its checkpoint cut, trace spans
balanced. A run that dies (a tag mismatch, a hang the watchdog ends
after APSP_WATCHDOG_MS, default 5000 ms) is reported as a typed
execution violation after the lint of what it recorded. Exit 0 = clean,
1 = violations (printed). --n-grid sets the grid side directly for
fw2d/dcapsp/djohnson (default (2^H - 1)); --algorithm bad-fixture runs
the seeded-bad demo program (tag reuse plus a cross-receive hang).
Recording is zero-cost: a verified schedule's solve is byte-identical.
--backend native records the same logical comm script over real OS
threads and lints it the same way.

Static audit: `apsp audit` is the asymptotic gate the envelope tests
cannot be — it records every solver over a deterministic (n, p, |S|)
grid (each sample oracle-verified), fits growth exponents by log-log
regression, and fails (exit 1) when a fitted exponent exceeds the
paper's Table 2 / Theorem 5.7/5.10 bound by more than --tolerance
(default 0.25). --fixture cost runs the seeded over-communicating
solver, which must exit 1 — proof the auditor fires. The source rules
(no wall clocks outside the metrics timer, no ledger writes outside the
simulator, no raw threads in the solver crates, no unwrap() or println!
in libraries, no unsafe without a SAFETY comment, no sync primitive
around the loom shim) are compiler and clippy checks (`clippy.toml`).
--json emits the machine-readable report. See docs/VERIFICATION.md.";

/// `apsp verify` — the protocol verifier (static comm-script lint plus
/// the run's typed error; see `docs/VERIFICATION.md`). Exits 0 on a clean
/// report, 1 with a readable violation report.
fn cmd_verify(args: &Args) {
    args.reject_unknown(
        "verify",
        "--input --algorithm --backend --height --n-grid --depth --sequential-r4",
    );
    let algorithm = args.opt("--algorithm").unwrap_or("sparse2d");
    let backend = backend(args);
    let report = if algorithm == "bad-fixture" {
        if backend == Backend::Native {
            die("--algorithm bad-fixture is a simulator demo program; drop --backend native");
        }
        // the seeded-bad demo program: tag reuse and a cross-receive hang
        sparse_apsp::verify::verify_program(4, sparse_apsp::verify::bad_fixture)
    } else {
        let g = load_graph(args.get("--input"));
        let height = args.height(2);
        let n_grid = args.n_grid((1usize << height) - 1);
        match algorithm {
            "sparse2d" => SparseApsp::new(sparse_config(args, height, backend))
                .verify(&g)
                .unwrap_or_else(|e| die_refused(e)),
            "fw2d" => verify(&Fw2d::new(&g, n_grid), backend),
            "dcapsp" => verify(&args.dcapsp(&g, n_grid), backend),
            "djohnson" => verify(&DJohnson::new(&g, n_grid * n_grid), backend),
            other => die(&format!("unknown algorithm {other}")),
        }
    };
    println!("{}", report.render());
    if !report.is_clean() {
        std::process::exit(1);
    }
}

/// `apsp audit` — the static cost-model auditor (growth-exponent fits of
/// recorded ledgers against Table 2; see `docs/VERIFICATION.md`). Exits 0
/// when every fit is within its bound, 1 with a readable per-phase report
/// otherwise.
fn cmd_audit(args: &Args) {
    use sparse_apsp::audit::{audit_cost_model, audit_flood_fixture, AuditOptions};
    args.reject_unknown("audit", "--json --tolerance --max-p --fixture");
    let opts = AuditOptions {
        tolerance: args.num("--tolerance", AuditOptions::DEFAULT_TOLERANCE),
        max_p: args.num("--max-p", AuditOptions::default().max_p),
    };
    let report = match args.opt("--fixture") {
        // the seeded regression fixture must FAIL (exit 1) — CI proof that
        // the auditor can actually fire
        Some("cost") => audit_flood_fixture(opts.tolerance),
        Some(other) => die(&format!("unknown fixture {other} (expected cost)")),
        None => audit_cost_model(&opts),
    };
    if args.flag("--json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    if !report.is_clean() {
        std::process::exit(1);
    }
}

fn cmd_info(args: &Args) {
    args.reject_unknown("info", "--input --height");
    let h = args.height(3);
    let g = load_graph(args.get("--input"));
    print!("{}", sparse_apsp::graph::stats::graph_stats(&g));
    // a quick separator probe at the requested height
    let (nd, p) = (nested_dissection(&g, h, &NdOptions::default()), ranks_of_height(h));
    println!("top separator     {} vertices (h = {h}, p = {p})", nd.top_separator());
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv.first().map(String::as_str).unwrap_or("help");
    let args = Args(argv[1.min(argv.len())..].to_vec());
    match cmd {
        "generate" => cmd_generate(&args),
        "solve" => cmd_solve(&args),
        "path" => cmd_path(&args),
        "verify" => cmd_verify(&args),
        "audit" => cmd_audit(&args),
        "info" => cmd_info(&args),
        "help" | "--help" | "-h" => println!("{HELP}"),
        other => die(&format!("unknown command {other}")),
    }
}
