//! One workload's lifecycle: prepare → solve (native backend) → build the
//! served handle → query / route / update → verify.
//!
//! The untraced run times six stages and reports the end-to-end metrics;
//! the traced run goes through the same stages with spans on and shorter
//! budgets, with the layer probes of `layers` as further stages, and
//! reports the per-layer metrics.
//!
//! Noise discipline. The machine this was sized on runs a core at one of
//! two speeds, 1.45× apart, and switches between them every few
//! milliseconds; how much of a minute is spent at which drifts, so the
//! median of a stage's repetitions moves by ±20 % from run to run while
//! their minimum stays within ±3 % — as long as one repetition is short
//! enough (tens of milliseconds) to fit into a fast stretch. Hence:
//! operations are sized to stay under about 50 ms; the client and every
//! thread the program starts are confined to one CPU, because an operation
//! spread over two would need both fast at once — except in the
//! `solve_all_cores` stage, which is the same solve with every CPU
//! allowed; nothing is timed once — warm-ups are discarded and a stage
//! repeats until its share of `--seconds` is spent; the run is cut into
//! `ROUNDS` rounds and every stage takes its share of each, so a stage's
//! repetitions are spread over the whole run; and the value of a run is
//! the fastest repetition (`minimum`). Checking (oracle rows, path
//! weights, checksums) happens between timed regions, never inside one.

use crate::layers::{KernelCounts, Probe, Probes};
use crate::machine::{self, cpu_seconds, CpuSet};
use crate::spec::{Shares, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, minimum, quantile};
use crate::trace::Tracer;
use apsp_core::{Backend, SolvedApsp, SparseApsp};
use apsp_graph::{oracle, paths, Csr, DenseDist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::PathBuf;

/// Rounds a run is cut into; see the module docs.
const ROUNDS: usize = 10;
/// Source rows compared against Dijkstra after every solve and build.
const ORACLE_ROWS: usize = 64;
/// Source rows compared against Dijkstra on the handle's own graph after
/// each round's updates, and after the last one.
const ROUND_ROWS: usize = 4;
const POST_UPDATE_ROWS: usize = 32;
/// Lookups per timed chunk: about a millisecond's worth.
const QUERY_CHUNK: usize = 1 << 14;
/// Chunks in the pool of seeded pairs (8 MiB, four times the L2). Every
/// chunk looks up the pool's next window, so a window comes round again
/// only after a million other lookups all over the matrix: what a chunk
/// finds cached is what the matrix's size allows, not its own last pass.
const POOL_CHUNKS: usize = 64;
/// Children `peak_rss_mb` is the median of.
const MEMORY_PASSES: usize = 15;
const REL_TOL: f64 = 1e-9;

pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Where the traced run writes `trace-<workload>.json` and its
    /// short-lived snapshot file.
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the reader of the log.
    pub notes: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    pub tracer: Tracer,
}

/// How often one stage repeats: `warmups` discarded calls, then measured
/// calls until they add up to `budget_s` seconds, within the rep limits.
#[derive(Clone, Copy)]
struct Stage {
    warmups: usize,
    budget_s: f64,
    min_reps: usize,
    max_reps: usize,
}

/// A stage's measured repetitions so far.
struct Samples {
    stage: Stage,
    times: Vec<f64>,
    spent: f64,
}

impl Samples {
    fn new(stage: Stage) -> Self {
        Samples { stage, times: Vec::new(), spent: 0.0 }
    }

    /// Whether the stage owes another repetition once `progress` (in
    /// `(0, 1]`) of the run is over. Budget and repetition cap are both
    /// paced, so a stage whose cap binds still samples every round; by the
    /// end the stage has its minimum count.
    fn due(&self, progress: f64) -> bool {
        let reps = self.times.len();
        let cap = (self.stage.max_reps as f64 * progress).ceil() as usize;
        reps < cap
            && (self.spent < self.stage.budget_s * progress
                || (progress >= 1.0 && reps < self.stage.min_reps))
    }

    fn push(&mut self, seconds: f64) {
        self.spent += seconds;
        self.times.push(seconds);
    }
}

/// The split of `--seconds` over the stages, from the workload's `Shares`.
/// The traced run gives the lifecycle half of them and the layer probes
/// the other half (`probe` each).
struct Plan {
    setup: Stage,
    solve: Stage,
    solve_all_cores: Stage,
    query: Stage,
    route: Stage,
    update: Stage,
    probe: Stage,
}

impl Plan {
    fn new(seconds: f64, traced: bool, shares: &Shares) -> Plan {
        let scale = if traced { 0.5 } else { 1.0 };
        let stage = |warmups, share: f64, min_reps, max_reps| Stage {
            warmups,
            budget_s: seconds * share * scale,
            min_reps,
            max_reps,
        };
        Plan {
            setup: stage(1, shares.setup, 3, 2_000),
            // the traced run alternates spans on and off: two of each at least
            solve: stage(1, shares.solve, 4, 4_000),
            solve_all_cores: stage(1, shares.solve_all_cores, 3, 4_000),
            query: stage(2, shares.query, 5, 20_000),
            // a route on a 100-vertex mesh takes 15 µs; the traced run keeps
            // a span of each, so it stops earlier
            route: stage(2, shares.route, 3, if traced { 20_000 } else { 1_000_000 }),
            update: stage(2, shares.update, 3, 4_000),
            probe: Stage { warmups: 0, budget_s: seconds * 0.035, min_reps: 2, max_reps: 2_000 },
        }
    }
}

#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Counts `ops` operations sharing one check; a failed check fails
    /// them all.
    pub fn record(&mut self, ops: u64, what: &str, check: Result<(), String>) {
        self.attempted += ops;
        if let Err(why) = check {
            self.failed += ops;
            if self.notes.len() < 8 {
                self.notes.push(format!("{what}: {why}"));
            }
        }
    }
}

fn close(got: f64, want: f64) -> bool {
    if want.is_infinite() || got.is_infinite() {
        got == want
    } else {
        (got - want).abs() <= REL_TOL * want.abs().max(1.0)
    }
}

/// Dijkstra rows from sampled sources: the reference the benchmark checks
/// distances against. Sampled rows, not a full `n²` oracle, so checking
/// stays cheap next to the stages it sits between.
pub struct Oracle {
    rows: Vec<(usize, Vec<f64>)>,
}

impl Oracle {
    fn sample(g: &Csr, count: usize, rng: &mut StdRng, tr: &mut Tracer) -> Oracle {
        let rows = (0..count.min(g.n()))
            .map(|_| {
                let s = rng.random_range(0..g.n());
                (s, tr.span("graph.oracle_row", |_| oracle::dijkstra(g, s)))
            })
            .collect();
        Oracle { rows }
    }

    /// Compares `dist(source, v)` with the reference for every sampled
    /// source and every `v`: relative 1e-9, and ∞ must match ∞.
    pub fn check(&self, dist: impl Fn(usize, usize) -> f64) -> Result<(), String> {
        for (s, row) in &self.rows {
            for (v, &want) in row.iter().enumerate() {
                let got = dist(*s, v);
                if !close(got, want) {
                    return Err(format!("d({s},{v}) = {got}, Dijkstra says {want}"));
                }
            }
        }
        Ok(())
    }
}

/// Sum of `dist` over `pairs`, in order — the lookups' checksum.
fn checksum(pairs: &[(u32, u32)], dist: impl Fn(usize, usize) -> f64) -> f64 {
    pairs.iter().map(|&(u, v)| dist(u as usize, v as usize)).sum()
}

fn check_route(
    solved: &SolvedApsp,
    u: usize,
    v: usize,
    path: Option<&[usize]>,
) -> Result<(), String> {
    let path = path.ok_or("no route between connected vertices")?;
    if path.first() != Some(&u) || path.last() != Some(&v) {
        return Err("route does not join its endpoints".into());
    }
    let weight = paths::path_weight(solved.graph(), path).ok_or("route uses a missing edge")?;
    let want = solved.distance(u, v);
    if close(weight, want) {
        Ok(())
    } else {
        Err(format!("path weight {weight} but distance {want}"))
    }
}

/// An ordered pair of distinct vertices.
fn distinct_pair(rng: &mut StdRng, n: usize) -> (usize, usize) {
    let u = rng.random_range(0..n);
    (u, (u + 1 + rng.random_range(0..n - 1)) % n)
}

/// Eight decreases in input vertex ids: four existing edges at half their
/// weight, four new shortcuts at half the current distance of their ends.
fn update_batch(solved: &SolvedApsp, rng: &mut StdRng) -> Vec<(usize, usize, f64)> {
    let g = solved.graph();
    let mut batch = Vec::with_capacity(8);
    while batch.len() < 4 {
        let u = rng.random_range(0..g.n());
        if g.degree(u) > 0 {
            let k = rng.random_range(0..g.degree(u));
            batch.push((u, g.neighbors(u)[k] as usize, g.weights_of(u)[k] * 0.5));
        }
    }
    while batch.len() < 8 {
        let (u, v) = distinct_pair(rng, g.n());
        if g.edge_weight(u, v).is_none() {
            batch.push((u, v, solved.distance(u, v) * 0.5));
        }
    }
    batch
}

/// The inputs, the bookkeeping, and one method per timed operation. Each
/// method times its own region, checks the result afterwards, and returns
/// the seconds; `measured` is false for warm-ups, which count nowhere.
struct Run<'a> {
    w: &'static Workload,
    opts: &'a RunOptions,
    g: &'a Csr,
    solver: &'a SparseApsp,
    /// The CPUs the process was started with; the run is pinned to the
    /// last of them except inside an all-cores solve.
    allowed: CpuSet,
    /// Seeded uniform pairs: `POOL_CHUNKS` windows of `QUERY_CHUNK`.
    pairs: Vec<(u32, u32)>,
    /// The window the next query chunk looks up.
    next_window: usize,
    reference: Oracle,
    tr: Tracer,
    tally: Tally,
    rng: StdRng,
    /// Checksum of the first window over the first solve's matrix; later
    /// solves must reproduce it bit for bit.
    solve_sum: Option<f64>,
    /// CPU seconds (user + system) the all-cores solves took together.
    all_cores_cpu_s: f64,
    // traced run only: solves with spans on and off, and kernel counts
    // per solve
    spans_on: Vec<f64>,
    spans_off: Vec<f64>,
    kernel_counts: Option<KernelCounts>,
    hops: Vec<f64>,
    messages: Vec<f64>,
    words: Vec<f64>,
}

impl<'a> Run<'a> {
    /// References and query pairs, all from the seed, none of it timed.
    fn prepare(
        w: &'static Workload,
        opts: &'a RunOptions,
        g: &'a Csr,
        solver: &'a SparseApsp,
        allowed: CpuSet,
        mut tr: Tracer,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xa95b_5ee0_c0ff_ee00);
        let n = g.n() as u32;
        let reference = Oracle::sample(g, ORACLE_ROWS, &mut rng, &mut tr);
        let pairs = (0..POOL_CHUNKS * QUERY_CHUNK)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        Run {
            w,
            opts,
            g,
            solver,
            allowed,
            pairs,
            next_window: 0,
            reference,
            tr,
            tally: Tally::default(),
            rng,
            solve_sum: None,
            all_cores_cpu_s: 0.0,
            spans_on: Vec::new(),
            spans_off: Vec::new(),
            kernel_counts: None,
            hops: Vec::new(),
            messages: Vec::new(),
            words: Vec::new(),
        }
    }

    /// Set-up of the serve stages: from the input graph to a handle that
    /// answers (on simulated ranks, as a service would build it).
    fn build(&mut self, measured: bool) -> (f64, SolvedApsp) {
        let (g, height) = (self.g, self.w.height);
        let (seconds, solved) =
            self.tr.timed("solved.build", |_| SolvedApsp::solve(black_box(g), height));
        if measured {
            let built = self.reference.check(|s, v| solved.distance(s, v));
            self.tally.record(1, "handle", built);
        }
        (seconds, solved)
    }

    /// Time to solution in input vertex ids: on the one pinned CPU, or
    /// (`all_cores`) on every CPU the process was started with.
    fn solve(&mut self, all_cores: bool, measured: bool) -> f64 {
        // the traced run turns its spans off for every other pinned solve:
        // the two minima differ by what tracing costs
        let traced = self.opts.traced;
        let alternating = traced && !all_cores;
        let with_spans = !alternating || self.spans_on.len() <= self.spans_off.len();
        let before = traced.then(KernelCounts::now);
        let was_on = self.tr.on;
        self.tr.on = was_on && with_spans;
        let name = if all_cores { "solve.all_cores" } else { "solve" };
        let (seconds, run) = if all_cores {
            self.allowed.apply();
            let cpu_before = cpu_seconds();
            let timed = self.tr.timed(name, |_| self.solver.run(black_box(self.g)));
            self.all_cores_cpu_s += cpu_seconds() - cpu_before;
            self.allowed.last_only().apply();
            timed
        } else {
            self.tr.timed(name, |_| self.solver.run(black_box(self.g)))
        };
        self.tr.on = was_on;
        if !measured {
            return seconds;
        }
        let sum = checksum(&self.pairs[..QUERY_CHUNK], |u, v| run.dist.get(u, v));
        let mut check = self.reference.check(|s, v| run.dist.get(s, v));
        if *self.solve_sum.get_or_insert(sum) != sum {
            check = Err("two solves of one input disagree".into());
        }
        if let Some(counts) = before {
            let delta = KernelCounts::now().since(counts);
            if *self.kernel_counts.get_or_insert(delta) != delta {
                check = Err("kernel counts differ between two solves of one input".into());
            }
        }
        if alternating {
            (if with_spans { &mut self.spans_on } else { &mut self.spans_off }).push(seconds);
        }
        self.tally.record(1, name, check);
        seconds
    }

    /// One chunk of lookups on the pool's next window; the same pairs read
    /// from `dense`, the handle's `dense()` matrix, must give the same sum.
    fn query(&mut self, solved: &SolvedApsp, dense: &DenseDist, measured: bool) -> f64 {
        let start = self.next_window * QUERY_CHUNK;
        self.next_window = (self.next_window + 1) % POOL_CHUNKS;
        let pairs = &self.pairs[start..start + QUERY_CHUNK];
        let (seconds, sum) = self.tr.timed("solved.distance_chunk", |_| {
            black_box(checksum(black_box(pairs), |u, v| solved.distance(u, v)))
        });
        if measured {
            let expected = checksum(pairs, |u, v| dense.get(u, v));
            let why = || format!("lookups sum to {sum}, the dense matrix to {expected}");
            let check = close(sum, expected).then_some(()).ok_or_else(why);
            self.tally.record(QUERY_CHUNK as u64, "query", check);
        }
        seconds
    }

    fn route(&mut self, solved: &SolvedApsp, measured: bool) -> f64 {
        let (u, v) = distinct_pair(&mut self.rng, self.g.n());
        let (seconds, path) = self.tr.timed("solved.route", |_| solved.route(u, v));
        if measured {
            self.tally.record(1, "route", check_route(solved, u, v, path.as_deref()));
            self.hops.push(path.map_or(0, |p| p.len() - 1) as f64);
        }
        seconds
    }

    fn update(&mut self, solved: &mut SolvedApsp, measured: bool) -> f64 {
        let batch = update_batch(solved, &mut self.rng);
        let bill = (solved.report().total_messages(), solved.report().total_words());
        let (seconds, ()) =
            self.tr.timed("update.batch", |_| solved.decrease_edges(black_box(&batch)));
        if measured {
            let absorbed = batch
                .iter()
                .all(|&(u, v, weight)| solved.distance(u, v) <= weight * (1.0 + REL_TOL));
            let why = || "a decreased edge is not reflected in the distances".into();
            self.tally.record(1, "update", absorbed.then_some(()).ok_or_else(why));
            self.messages.push((solved.report().total_messages() - bill.0) as f64);
            self.words.push((solved.report().total_words() - bill.1) as f64);
        }
        seconds
    }

    /// The handle against Dijkstra on the handle's own (updated) graph.
    fn check_handle(&mut self, solved: &SolvedApsp, rows: usize, what: &str) {
        let current = Oracle::sample(solved.graph(), rows, &mut self.rng, &mut self.tr);
        self.tally.record(1, what, current.check(|s, v| solved.distance(s, v)));
    }
}

pub fn run(w: &'static Workload, opts: &RunOptions) -> Outcome {
    // one CPU for the client and every thread the program starts (module
    // docs); only the all-cores solve opens the others again
    let allowed = CpuSet::current();
    allowed.last_only().apply();
    machine::keep_freed_memory();
    let plan = Plan::new(opts.seconds, opts.traced, &w.shares);
    let mut tr = Tracer::new(opts.traced, w.name);
    let g = tr.span("graph.generate", |_| w.graph(opts.seed, opts.smoke));
    let solver = SparseApsp::new(w.solver_config(Backend::Native));
    let mut run = Run::prepare(w, opts, &g, &solver, allowed, tr);

    // ---- warm-up lap: every operation a few times, spans off, discarded
    let spans = std::mem::replace(&mut run.tr.on, false);
    let mut solved = run.build(false).1;
    for _ in 0..plan.solve.warmups {
        run.solve(false, false);
    }
    for _ in 0..plan.solve_all_cores.warmups {
        run.solve(true, false);
    }
    let dense = solved.dense();
    for _ in 0..plan.query.warmups {
        run.query(&solved, &dense, false);
    }
    drop(dense);
    for _ in 0..plan.route.warmups {
        run.route(&solved, false);
    }
    for _ in 0..plan.update.warmups {
        run.update(&mut solved, false);
    }
    run.tr.on = spans;

    // ---- the measured rounds; a round starts on a freshly built handle,
    // so updates compound within a round
    let [mut setup, mut solve, mut solve_all_cores, mut query, mut route, mut update] =
        [plan.setup, plan.solve, plan.solve_all_cores, plan.query, plan.route, plan.update]
            .map(Samples::new);
    let mut probes = opts.traced.then(|| Probes::new(w, &g, &solver, &opts.out_dir));
    let mut probe_samples = Probe::ALL.map(|_| Samples::new(plan.probe));
    for round in 1..=ROUNDS {
        let progress = round as f64 / ROUNDS as f64;
        while setup.due(progress) {
            let (seconds, handle) = run.build(true);
            setup.push(seconds);
            solved = handle;
        }
        while solve.due(progress) {
            solve.push(run.solve(false, true));
        }
        while solve_all_cores.due(progress) {
            solve_all_cores.push(run.solve(true, true));
        }
        if query.due(progress) {
            let dense = solved.dense();
            while query.due(progress) {
                query.push(run.query(&solved, &dense, true));
            }
        }
        while route.due(progress) {
            route.push(run.route(&solved, true));
        }
        while update.due(progress) {
            update.push(run.update(&mut solved, true));
        }
        run.check_handle(&solved, ROUND_ROWS, "rows after a round's updates");
        if let Some(probes) = &mut probes {
            for (probe, samples) in Probe::ALL.into_iter().zip(&mut probe_samples) {
                while samples.due(progress) {
                    samples.push(probes.run(probe, &mut run.tr));
                }
            }
        }
    }
    run.check_handle(&solved, POST_UPDATE_ROWS, "rows after the last update");

    let chunk = QUERY_CHUNK as f64;
    let Some(probes) = probes else {
        let end_to_end = vec![
            ("setup_s", minimum(&setup.times)),
            ("solve_s", minimum(&solve.times)),
            ("solve_all_cores_s", minimum(&solve_all_cores.times)),
            ("query_per_s", chunk / minimum(&query.times)),
            ("route_per_s", 1.0 / minimum(&route.times)),
            ("update_s", minimum(&update.times)),
            ("peak_rss_mb", memory_children(w, opts)),
        ];
        return finish(run.tally, end_to_end, &END_TO_END.map(|m| m.name), run.tr);
    };

    // ==== the traced run: per-layer metrics from the rounds' spans, counts
    // and probes
    let Run { reference, tr, mut tally, .. } = run;
    let counts = run.kernel_counts.expect("a measured solve");
    let relaxations = (counts.gemm_ops + counts.fw_ops) as f64;
    let solve_off = minimum(&run.spans_off);
    // the solve with every core allowed: CPU ticks are 10 ms, so only the
    // sum over the stage's solves resolves
    let wide = &solve_all_cores.times;
    let cores = allowed.count() as f64;
    let cpu = run.all_cores_cpu_s / wide.len() as f64;
    let wall = wide.iter().sum::<f64>() / wide.len() as f64;
    let mut layer: Vec<(&'static str, f64)> = vec![
        ("graph.n", g.n() as f64),
        ("graph.m", g.m() as f64),
        ("graph.generate_s", tr.min_s("graph.generate")),
        ("graph.oracle_row_s", tr.min_s("graph.oracle_row")),
        ("minplus.gemm_ops", counts.gemm_ops as f64),
        ("minplus.fw_ops", counts.fw_ops as f64),
        ("minplus.gemm_calls", counts.gemm_calls as f64),
        ("minplus.fw_calls", counts.fw_calls as f64),
        ("minplus.bytes_touched", counts.bytes_touched as f64),
        ("minplus.inf_row_skips", counts.inf_row_skips as f64),
        ("minplus.ops_per_byte", relaxations / counts.bytes_touched as f64),
        ("solve.all_cores_s", minimum(wide)),
        ("solve.cpu_s", cpu),
        ("solve.idle_core_s", wall * cores - cpu),
        ("solve.cpu_util", cpu / (wall * cores)),
        ("solved.build_s", minimum(&setup.times)),
        ("solved.distance_ns", 1e9 * minimum(&query.times) / chunk),
        ("solved.route_ms_p50", 1e3 * median(&route.times)),
        ("solved.route_ms_p90", 1e3 * quantile(&route.times, 0.9)),
        ("solved.route_hops_mean", run.hops.iter().sum::<f64>() / run.hops.len() as f64),
        ("update.batch_s_p50", median(&update.times)),
        ("update.batch_s_p90", quantile(&update.times, 0.9)),
        ("update.messages", median(&run.messages)),
        ("update.words", median(&run.words)),
        ("update.vs_resolve_ratio", minimum(&update.times) / solve_off),
        ("trace.solve_s", minimum(&run.spans_on)),
        ("trace.overhead_share", (minimum(&run.spans_on) - solve_off) / solve_off),
    ];
    let probe_seconds = probe_samples.map(|samples| samples.times);
    layer.extend(probes.finish(&probe_seconds, counts, solve_off, &tr, &mut tally, &reference));
    finish(tally, layer, &PER_LAYER.map(|m| m.name), tr)
}

/// Flag of the hidden invocation that `memory_children` starts.
pub const MEMORY_PASS_FLAG: &str = "--memory-pass";

/// One untimed pass of the lifecycle — prepare, solve, build, look up,
/// route, update — after which the process prints its own `VmHWM`.
pub fn memory_pass(w: &Workload, opts: &RunOptions) {
    let g = w.graph(opts.seed, opts.smoke);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let solver = SparseApsp::new(w.solver_config(Backend::Native));
    black_box(solver.run(&g).dist.get(0, g.n() - 1));
    let mut solved = SolvedApsp::solve(&g, w.height);
    let (u, v) = distinct_pair(&mut rng, g.n());
    black_box(solved.distance(u, v));
    black_box(solved.route(u, v));
    let batch = update_batch(&solved, &mut rng);
    solved.decrease_edges(&batch);
    println!("{}", machine::peak_rss_mb());
}

/// `peak_rss_mb`: the median `VmHWM` of `MEMORY_PASSES` child processes of
/// this binary that each go through the lifecycle once. Processes of
/// their own, so the figure is that of one pass and not of the timed
/// repetitions; with glibc's malloc told to use one arena and a fixed
/// mmap threshold, so that freed blocks go back to the kernel and the
/// high-water mark follows the bytes the program holds, not which rank
/// thread's arena kept what; and several, because which rank threads are
/// alive at once still differs from pass to pass.
fn memory_children(w: &Workload, opts: &RunOptions) -> f64 {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let marks: Vec<f64> = (0..MEMORY_PASSES)
        .map(|_| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args([MEMORY_PASS_FLAG, "--workload", w.name, "--seed", &opts.seed.to_string()])
                .env("MALLOC_ARENA_MAX", "1")
                .env("MALLOC_MMAP_THRESHOLD_", "65536")
                .stdin(std::process::Stdio::null())
                .stderr(std::process::Stdio::inherit());
            if opts.smoke {
                cmd.arg("--smoke");
            }
            // `output` waits for the child to end
            let out = cmd.output().expect("the memory pass can be started");
            assert!(out.status.success(), "the memory pass ended with {}", out.status);
            let text = String::from_utf8_lossy(&out.stdout);
            text.trim().parse().unwrap_or_else(|_| panic!("the memory pass printed {text:?}"))
        })
        .collect();
    median(&marks)
}

/// Puts the metrics in table order and insists that none is missing.
fn finish(
    tally: Tally,
    mut metrics: Vec<(&'static str, f64)>,
    order: &[&'static str],
    tracer: Tracer,
) -> Outcome {
    let position = |name: &str| {
        order.iter().position(|n| *n == name).unwrap_or_else(|| panic!("{name} is in no table"))
    };
    metrics.sort_by_key(|(name, _)| position(name));
    let names: Vec<&str> = metrics.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, order, "the run must report every metric of its table once");
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        notes: tally.notes,
        metrics,
        tracer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn the_oracle_catches_a_wrong_distance() {
        let w = &WORKLOADS[0];
        let g = w.graph(3, true);
        let mut tr = Tracer::new(false, w.name);
        let reference = Oracle::sample(&g, 4, &mut StdRng::seed_from_u64(1), &mut tr);
        let exact = oracle::apsp_dijkstra(&g);
        assert!(reference.check(|s, v| exact.get(s, v)).is_ok());
        let (source, _) = reference.rows[2];
        let off = |s, v| exact.get(s, v) * if (s, v) == (source, 5) { 1.0 + 1e-6 } else { 1.0 };
        assert!(reference.check(off).unwrap_err().contains(&format!("d({source},5)")));
        let unreachable =
            |s, v| if (s, v) == (source, 5) { f64::INFINITY } else { exact.get(s, v) };
        assert!(reference.check(unreachable).is_err(), "a finite distance is not ∞");
    }

    #[test]
    fn a_failed_check_counts_every_operation_it_covers() {
        let mut tally = Tally::default();
        tally.record(3, "ok", Ok(()));
        tally.record(5, "query", Err("mismatch".into()));
        assert_eq!((tally.attempted, tally.failed), (8, 5));
        assert_eq!(tally.notes, ["query: mismatch"]);
    }

    #[test]
    fn a_stage_keeps_pace_with_its_budget_over_the_rounds() {
        let stage = Stage { warmups: 0, budget_s: 1.0, min_reps: 3, max_reps: 10 };
        let mut samples = Samples::new(stage);
        let mut per_round = Vec::new();
        for round in 1..=4 {
            let before = samples.times.len();
            while samples.due(round as f64 / 4.0) {
                samples.push(0.4);
            }
            per_round.push(samples.times.len() - before);
        }
        assert_eq!(per_round, [1, 1, 0, 1], "0.4 s repetitions against 0.25 s a round");
        let mut slow = Samples::new(stage);
        while slow.due(1.0) {
            slow.push(2.0);
        }
        assert_eq!(slow.times.len(), 3, "the minimum count holds at the end");
        assert!(!Samples { times: vec![0.0; 10], ..Samples::new(stage) }.due(1.0));
        let capped = Samples { times: vec![0.0; 3], ..Samples::new(stage) };
        assert!(!capped.due(0.25) && capped.due(0.5), "the cap of 10 is paced: 3 by a quarter");
    }

    #[test]
    fn update_batches_only_decrease() {
        let g = WORKLOADS[3].graph(5, true);
        let solved = SolvedApsp::solve(&g, 2);
        let batch = update_batch(&solved, &mut StdRng::seed_from_u64(9));
        assert_eq!(batch.len(), 8);
        for (k, &(u, v, weight)) in batch.iter().enumerate() {
            assert!(weight > 0.0 && weight < solved.distance(u, v));
            assert_eq!(g.edge_weight(u, v).is_some(), k < 4);
        }
    }
}
