//! `apsp-benchmark`: the solver-lifecycle benchmark of sparse-apsp.
//!
//! ```text
//! apsp-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! apsp-benchmark [--seed N] [--seconds S] [--trace 0|1]     every workload, a child each
//! apsp-benchmark aa [--sets N] [--runs R] [...]              same binary against itself
//! apsp-benchmark --list | spec-json
//! ```
//!
//! A run of one workload prints every metric by name and unit and, as its
//! last line, the result object the driver reads. See `README.md`.

mod layers;
mod lifecycle;
mod machine;
mod spec;
mod stats;
mod trace;

use apsp_bench::jsonio::{self, Json};
use lifecycle::{Outcome, RunOptions};
use spec::{Better, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: apsp-benchmark [aa | spec-json] [--list] [--workload NAME] [--seed N] \
[--seconds S] [--trace 0|1] [--smoke] [--sets N] [--runs R]";

struct Args {
    command: Option<String>,
    workload: Option<&'static Workload>,
    list: bool,
    sets: usize,
    runs: usize,
    run: RunOptions,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        list: false,
        sets: 2,
        runs: 1,
        run: RunOptions {
            seed: 7,
            seconds: f64::from(spec::RUN_SECONDS),
            traced: false,
            smoke: false,
            // next to the package, wherever the command was started from
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        },
    };
    let mut seconds_given = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse().map_err(|_| format!("{flag}: {text:?} is not a number"))
        }
        match arg.as_str() {
            "aa" | "spec-json" if args.command.is_none() => args.command = Some(arg.clone()),
            "--list" => args.list = true,
            lifecycle::MEMORY_PASS_FLAG => args.command = Some(arg.clone()),
            "--smoke" => args.run.smoke = true,
            "--workload" => {
                let name = value()?;
                let known = || WORKLOADS.map(|w| w.name).join(", ");
                args.workload =
                    Some(Workload::find(name).ok_or_else(|| {
                        format!("unknown workload {name:?} (known: {})", known())
                    })?);
            }
            "--seed" => args.run.seed = number(arg, value()?)?,
            "--seconds" => {
                args.run.seconds = number(arg, value()?)?;
                seconds_given = true;
            }
            "--trace" => {
                args.run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--sets" => args.sets = number(arg, value()?)?,
            "--runs" => args.runs = number(arg, value()?)?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.run.seconds > 0.0 && args.run.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if args.sets < 2 || args.runs < 1 {
        return Err("aa needs --sets of at least 2 and --runs of at least 1".into());
    }
    if args.run.smoke && !seconds_given {
        args.run.seconds = 1.0;
    }
    Ok(args)
}

/// `s` as a JSON string.
fn quote(s: &str) -> String {
    format!("\"{}\"", jsonio::escape(s))
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, (name, value)) in outcome.metrics.iter().enumerate() {
        assert!(value.is_finite(), "{name} = {value} is not a measurement");
        let unit = spec::unit_of(name).expect("finish() checked the names");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(name),
            quote(unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    )
}

fn run_one(w: &'static Workload, opts: &RunOptions) -> ExitCode {
    let kind = if opts.traced { "traced" } else { "untraced" };
    println!(
        "# {} ({kind}{}): seed {}, {} s, h={}, p={} rank threads, pinned to one of {} CPUs except in the all-cores solve; closed loop, one client thread",
        w.name,
        if opts.smoke { ", SMOKE: not for numbers" } else { "" },
        opts.seed,
        opts.seconds,
        w.height,
        w.ranks(),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    let outcome = lifecycle::run(w, opts);
    for (name, value) in &outcome.metrics {
        println!("{name:<34} {value:>18.6} {}", spec::unit_of(name).unwrap_or("?"));
    }
    if opts.traced {
        println!("# spans by name: count, total s, self s (span minus its children)");
        for (name, t) in outcome.tracer.totals() {
            println!("#   {name:<24} {:>6} {:>10.4} {:>10.4}", t.count, t.total_s, t.self_s);
        }
        let path = opts.out_dir.join(format!("trace-{}.json", w.name));
        match outcome.tracer.write_chrome_trace(&path) {
            Ok(()) => println!("# trace: {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("# operations: {} attempted, {} failed", outcome.attempted, outcome.failed);
    for note in &outcome.notes {
        println!("# FAILED {note}");
    }
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process of this same binary — its own
/// process so that `peak_rss_mb` is that workload's alone — and returns
/// its metrics. The child's log goes to stderr.
fn run_child(w: &Workload, opts: &RunOptions, seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end
    let out = cmd.output().map_err(|e| format!("cannot start the child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (log, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", text.trim_end()));
    eprintln!("{log}");
    if !out.status.success() {
        return Err(format!("{} (seed {seed}) ended with {}", w.name, out.status));
    }
    let doc = jsonio::parse(last).map_err(|e| format!("{}: bad result line: {e}", w.name))?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{} (seed {seed}) reports incorrect outputs", w.name));
    }
    let Some(Json::Obj(metrics)) = doc.get("metrics") else { return Err("no metrics".into()) };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_num).ok_or("a metric without value")?;
            Ok((name.clone(), value))
        })
        .collect()
}

fn selected(args: &Args) -> Vec<&'static Workload> {
    args.workload.map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w])
}

fn run_all(args: &Args) -> ExitCode {
    let mut status = ExitCode::SUCCESS;
    for w in selected(args) {
        match run_child(w, &args.run, args.run.seed) {
            Ok(metrics) => {
                // table order, not the alphabetical order of the parsed object
                let order =
                    END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name));
                for name in order.filter(|name| metrics.contains_key(*name)) {
                    let unit = spec::unit_of(name).unwrap_or("?");
                    println!("{:<14} {name:<34} {:>18.6} {unit}", w.name, metrics[name]);
                }
            }
            Err(e) => {
                println!("{:<14} FAILED: {e}", w.name);
                status = ExitCode::FAILURE;
            }
        }
    }
    status
}

/// How much worse `new` is than `old`, as a share of `old`.
fn worsening(better: Better, old: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - old) / old,
        Better::Higher => (old - new) / old,
    }
}

/// `aa`: the same binary against itself. Each set is `--runs` runs per
/// workload on seeds `seed, seed+1, …`; sets after the first are compared
/// with the first the way the driver compares two commits. An end-to-end
/// metric passes when its set median is no worse than the first set's by
/// more than its bound and (with several runs) its quartile spread stays
/// within the bound; `setup_s` is exempt from the spread rule, as in the
/// driver. With `--trace 1` the per-layer counts must repeat exactly.
fn run_aa(args: &Args) -> ExitCode {
    // values[workload][metric][set] = one value per run
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<Vec<f64>>>> = BTreeMap::new();
    for set in 0..args.sets {
        for run in 0..args.runs {
            for w in selected(args) {
                let metrics = match run_child(w, &args.run, args.run.seed + run as u64) {
                    Ok(m) => m,
                    Err(e) => {
                        println!("FAILED: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                for (name, value) in metrics {
                    let sets = values.entry(w.name).or_default().entry(name).or_default();
                    sets.resize(set + 1, Vec::new());
                    sets[set].push(value);
                }
            }
        }
    }
    let mut failures = 0;
    println!(
        "{:<14} {:<32} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median set 1", "median set k", "worse", "spread", "bound"
    );
    for w in selected(args) {
        let of_workload = &values[w.name];
        let rows = END_TO_END
            .iter()
            .map(|m| (m.name, m.better, Some(m.bound), m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.better, None, m.unit)));
        for (name, better, bound, unit) in rows.filter(|r| of_workload.contains_key(r.0)) {
            let sets = &of_workload[name];
            let medians: Vec<f64> = sets.iter().map(|s| stats::median(s)).collect();
            let spread = sets
                .iter()
                .filter(|s| s.len() >= 2)
                .map(|s| {
                    let [q1, q2, q3] = stats::quartiles(s);
                    (q3 - q1) / q2
                })
                .fold(0.0, f64::max);
            for (k, &median) in medians.iter().enumerate().skip(1) {
                let worse = worsening(better, medians[0], median);
                // these units mark what the program counts, not what it times
                let exact = matches!(unit, "count" | "words" | "B");
                let verdict = match bound {
                    Some(b) if worse > b || (spread > b && name != "setup_s") => "FAIL",
                    Some(_) => "PASS",
                    None if exact && sets[k] != sets[0] => "FAIL (count differs)",
                    None if exact => "PASS (exact)",
                    None => "-",
                };
                failures += usize::from(verdict.starts_with("FAIL"));
                println!(
                    "{:<14} {name:<32} {:>14.6} {median:>14.6} {:>+7.2}% {:>7.2}% {:>6}  {verdict} (set {})",
                    w.name,
                    medians[0],
                    worse * 100.0,
                    spread * 100.0,
                    bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
                    k + 1
                );
            }
        }
    }
    println!("{failures} failing workload/metric pairs");
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        print!("{}", spec::listing());
        return ExitCode::SUCCESS;
    }
    match (args.command.as_deref(), args.workload) {
        (Some("spec-json"), _) => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        (Some(lifecycle::MEMORY_PASS_FLAG), Some(w)) => {
            lifecycle::memory_pass(w, &args.run);
            ExitCode::SUCCESS
        }
        (Some(_), _) => run_aa(&args),
        (None, Some(w)) => run_one(w, &args.run),
        (None, None) => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_invocation_parses() {
        let args = parse("--workload mesh-serve --seed 41 --seconds 20 --trace 1").unwrap();
        assert_eq!(args.workload.map(|w| w.name), Some("mesh-serve"));
        assert_eq!((args.run.seed, args.run.seconds, args.run.traced), (41, 20.0, true));
        assert!(!parse("--trace 0").unwrap().run.traced);
        let aa = parse("aa --sets 3 --runs 10 --smoke").unwrap();
        assert_eq!((aa.command.as_deref(), aa.sets, aa.runs), (Some("aa"), 3, 10));
        assert_eq!(aa.run.seconds, 1.0, "smoke runs default to a second");
    }

    #[test]
    fn bad_arguments_are_refused() {
        for line in [
            "--workload nope",
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--seconds 61",
            "--workload",
            "--frobnicate",
            "aa --sets 1",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 12,
            failed: 0,
            notes: Vec::new(),
            metrics: vec![("solve_s", 1.2034123), ("peak_rss_mb", 447.0)],
            tracer: trace::Tracer::new(false, "w"),
        };
        let doc = jsonio::parse(&result_line(&outcome)).unwrap();
        let Json::Obj(pairs) = &doc else { panic!("the result is an object") };
        let keys: Vec<&str> = pairs.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let solve = doc.get("metrics").and_then(|m| m.get("solve_s")).unwrap();
        assert_eq!(solve.get("value").and_then(Json::as_num), Some(1.2034123));
        assert_eq!(solve.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert_eq!(worsening(Better::Lower, 2.0, 2.5), 0.25);
        assert_eq!(worsening(Better::Higher, 2.0, 1.5), 0.25);
        assert!(worsening(Better::Higher, 2.0, 2.5) < 0.0);
    }
}
