//! Integration tests for the `apsp` command-line binary.

use sparse_apsp::bench::jsonio::{self, Json};
use std::process::Command;

fn apsp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_apsp"))
}

/// `doc[key]` as a number / as a string, when it is one.
fn num(doc: &Json, key: &str) -> Option<f64> {
    doc.get(key).and_then(Json::as_num)
}

fn string<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
    doc.get(key).and_then(Json::as_str)
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sparse-apsp-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

#[test]
fn generate_then_solve_then_path() {
    let graph = tmp("mesh.el");
    let out = apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6"])
        .args(["--weights", "integer", "--seed", "3", "--out"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("36 vertices"));

    let dist = tmp("dist.tsv");
    let report = tmp("report.json");
    let out = apsp()
        .args(["solve", "--height", "2", "--verify", "--input"])
        .arg(&graph)
        .arg("--distances")
        .arg(&dist)
        .arg("--report")
        .arg(&report)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("verified against Dijkstra: OK"));

    // distances file: 36 lines of 36 tab-separated values, diagonal zero
    let text = std::fs::read_to_string(&dist).unwrap();
    let rows: Vec<&str> = text.lines().collect();
    assert_eq!(rows.len(), 36);
    assert_eq!(rows[0].split('\t').count(), 36);
    assert_eq!(rows[0].split('\t').next(), Some("0"));

    // report JSON carries the fields we promise: h = 2 → 9 ranks, one
    // {latency, bandwidth} pair per e-tree level
    let json = std::fs::read_to_string(&report).unwrap();
    let doc = jsonio::parse(&json).unwrap_or_else(|e| panic!("report: {e}: {json}"));
    for key in ["critical_latency", "critical_bandwidth", "total_words", "max_peak_words"] {
        assert!(num(&doc, key).is_some_and(|x| x > 0.0), "{key} in {json}");
    }
    assert_eq!(num(&doc, "ranks"), Some(9.0), "{json}");
    let levels = doc.get("level_costs").and_then(Json::as_arr).expect("level_costs array");
    assert_eq!(levels.len(), 2, "{json}");
    assert!(levels.iter().all(|l| l.get("latency").is_some() && l.get("bandwidth").is_some()));

    // path query between opposite corners
    let out = apsp()
        .args(["path", "--height", "2", "--from", "0", "--to", "35", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("distance:"));
    assert!(stdout.starts_with("distance:"));
    assert!(stdout.contains("0 ->"));
    assert!(stdout.trim_end().ends_with("-> 35"));
}

#[test]
fn all_algorithms_agree_via_cli() {
    let graph = tmp("gnp.el");
    assert!(apsp()
        .args(["generate", "--kind", "gnp", "--n", "30", "--p", "0.1", "--seed", "1", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    for algo in ["sparse2d", "fw2d", "dcapsp", "djohnson", "superfw"] {
        let out = apsp()
            .args(["solve", "--algorithm", algo, "--height", "2", "--verify", "--input"])
            .arg(&graph)
            .output()
            .unwrap();
        assert!(out.status.success(), "{algo}: {}", String::from_utf8_lossy(&out.stderr));
    }
}

#[test]
fn matrix_market_roundtrip_via_cli() {
    let graph = tmp("mesh.mtx");
    assert!(apsp()
        .args(["generate", "--kind", "path", "--n", "12", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    let text = std::fs::read_to_string(&graph).unwrap();
    assert!(text.starts_with("%%MatrixMarket"));
    let out = apsp()
        .args(["solve", "--height", "2", "--verify", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn directed_solve_via_cli() {
    // hand-written one-way DIMACS triangle
    let graph = tmp("oneway.gr");
    std::fs::write(&graph, "c one-way ring\np sp 3 3\na 1 2 1\na 2 3 2\na 3 1 4\n").unwrap();
    let out = apsp()
        .args(["solve", "--directed", "--height", "2", "--verify", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("directed Dijkstra: OK"));

    // distances must be asymmetric
    let dist = tmp("oneway.tsv");
    assert!(apsp()
        .args(["solve", "--directed", "--height", "2", "--input"])
        .arg(&graph)
        .arg("--distances")
        .arg(&dist)
        .status()
        .unwrap()
        .success());
    let text = std::fs::read_to_string(&dist).unwrap();
    let rows: Vec<Vec<f64>> =
        text.lines().map(|l| l.split('\t').map(|x| x.parse().unwrap()).collect()).collect();
    assert_eq!(rows[0][1], 1.0);
    assert_eq!(rows[1][0], 6.0, "around the ring the long way");
}

#[test]
fn directed_faulty_solve_recovers_on_both_backends() {
    // --directed and --faults are two fields of one launch spec: the
    // combination needs no entry point of its own, on either machine
    let graph = tmp("oneway-faulted.gr");
    let mut text = String::from("c one-way streets on a 6x6 mesh\np sp 36 120\n");
    for r in 0..6 {
        for c in 0..6 {
            let v = r * 6 + c + 1;
            if c < 5 {
                text += &format!("a {v} {} {}\na {} {v} {}\n", v + 1, 1 + v % 3, v + 1, 2 + v % 4);
            }
            if r < 5 {
                text += &format!("a {v} {} {}\na {} {v} {}\n", v + 6, 1 + v % 5, v + 6, 3 + v % 2);
            }
        }
    }
    std::fs::write(&graph, text).unwrap();
    let mut digests = Vec::new();
    for backend in ["sim", "native"] {
        let out = apsp()
            .args(["solve", "--directed", "--height", "2", "--verify", "--backend", backend])
            .args(["--faults", "drop=0.08,dup=0.04", "--fault-seed", "42", "--input"])
            .arg(&graph)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(out.status.success(), "{backend}: {stderr}");
        assert!(stderr.contains("directed Dijkstra: OK"), "{backend}: {stderr}");
        assert!(stderr.contains("faults: injected"), "{backend}: {stderr}");
        assert!(stderr.contains("unrecoverable 0"), "{backend}: {stderr}");
        digests.push(stderr.lines().find(|l| l.starts_with("faults:")).map(String::from));
    }
    assert_eq!(digests[0], digests[1], "same seed, same story on both machines");
}

#[test]
fn info_reports_statistics() {
    let graph = tmp("info.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "7", "--cols", "7", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    let out = apsp().args(["info", "--height", "2", "--input"]).arg(&graph).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("vertices          49"));
    assert!(text.contains("diameter          >= 12"));
    assert!(text.contains("top separator"));
}

#[test]
fn faulty_solve_recovers_and_reports() {
    let graph = tmp("faulted.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--seed", "2", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());

    // a recoverable plan: the answer still verifies against Dijkstra, and
    // the recovery history lands on stderr
    let out = apsp()
        .args(["solve", "--height", "2", "--verify"])
        .args(["--faults", "drop=0.05,dup=0.02", "--fault-seed", "7", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("verified against Dijkstra: OK"), "{stderr}");
    assert!(stderr.contains("faults: injected"), "{stderr}");
    assert!(stderr.contains("unrecoverable 0"), "{stderr}");

    // same plan + same seed → bit-identical digest line
    let again = apsp()
        .args(["solve", "--height", "2"])
        .args(["--faults", "drop=0.05,dup=0.02", "--fault-seed", "7", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(again.status.success());
    let digest = |s: &str| s.lines().find(|l| l.starts_with("faults:")).map(String::from);
    assert_eq!(
        digest(&stderr),
        digest(&String::from_utf8_lossy(&again.stderr)),
        "fault replay must be deterministic"
    );
}

#[test]
fn fault_spec_errors_fail_cleanly() {
    let graph = tmp("faultspec.el");
    assert!(apsp()
        .args(["generate", "--kind", "path", "--n", "10", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());

    // malformed spec dies before solving
    let out =
        apsp().args(["solve", "--faults", "drop=1.5", "--input"]).arg(&graph).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --faults spec"));

    // superfw never touches the simulated machine, so faults are rejected
    let out = apsp()
        .args(["solve", "--algorithm", "superfw", "--faults", "drop=0.1", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("simulated machine"));
}

#[test]
fn dead_link_solve_exits_loudly() {
    let graph = tmp("deadlink.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    // link 0→2 is on the 9-rank sparse2d schedule: killing it must abort
    // the solve with the culprit link, not return wrong distances
    let out = apsp()
        .args(["solve", "--height", "2", "--faults", "kill=0>2", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unrecoverable fault"), "{stderr}");
    assert!(stderr.contains("0 → 2"), "{stderr}");
}

#[test]
fn recovering_solve_survives_a_dead_rank() {
    let graph = tmp("recover.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--seed", "2", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());

    // rank 4 dies permanently after its first phase boundary; under the
    // default checkpoint/restart policy the solve still completes, still
    // verifies against Dijkstra, and reports its recovery trajectory
    let run = || {
        apsp()
            .args(["solve", "--height", "2", "--verify"])
            .args(["--faults", "kill=4@1", "--recover", "default", "--input"])
            .arg(&graph)
            .output()
            .unwrap()
    };
    let out = run();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("verified against Dijkstra: OK"), "{stderr}");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("recovery:"))
        .unwrap_or_else(|| panic!("no recovery digest on stderr:\n{stderr}"))
        .to_string();
    assert!(!line.starts_with("recovery: 0 restarts"), "the kill must force a restart: {line}");
    assert!(line.contains("spares"), "{line}");

    // same plan + same policy → bit-identical recovery digest
    let again = run();
    let again_err = String::from_utf8_lossy(&again.stderr).to_string();
    assert_eq!(
        Some(line.as_str()),
        again_err.lines().find(|l| l.starts_with("recovery:")),
        "recovery replay must be deterministic"
    );

    // with no spare and one restart, the permanent kill exhausts the
    // budget: a typed unrecoverable error, not a panic or a hang
    let out = apsp()
        .args(["solve", "--height", "2"])
        .args(["--faults", "kill=4", "--recover", "restarts=1,spares=0", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unrecoverable after"), "{stderr}");

    // a malformed policy fails usage-style, before any solve starts
    let out =
        apsp().args(["solve", "--recover", "warp=9", "--input"]).arg(&graph).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --recover spec"));
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = apsp().args(["solve"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));

    let out = apsp().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());

    // a retired subcommand is an unknown command like any other
    let out = apsp().args(["bench"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command bench"));

    // a misspelt option is rejected before anything runs, never ignored
    let out = apsp().args(["solve", "--hieght", "3"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --hieght for apsp solve"), "{stderr}");

    // a retired flag fails loudly instead of silently losing its effect
    for cmd in ["solve", "path", "verify"] {
        let out = apsp().args([cmd, "--compress-empty"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let expected = format!("unknown option --compress-empty for apsp {cmd}");
        assert!(stderr.contains(&expected), "{stderr}");
    }

    // a numeric flag the solvers cannot take is a usage error naming it,
    // not a panic
    let graph = tmp("usage.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "4", "--cols", "4", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    for (cmd, algo, flag) in [
        ("solve", "sparse2d", "--height"),
        ("solve", "fw2d", "--height"),
        ("solve", "dcapsp", "--height"),
        ("verify", "fw2d", "--n-grid"),
        ("verify", "dcapsp", "--n-grid"),
        ("verify", "djohnson", "--n-grid"),
    ] {
        let out = apsp()
            .args([cmd, "--algorithm", algo, flag, "0", "--input"])
            .arg(&graph)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd} {algo} {flag} 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with(&format!("apsp: {flag} must be")), "{stderr}");
    }

    // the source-lint half of `apsp audit` is gone: its options and its
    // fixture are usage errors that name what was asked for
    for (args, expected) in [
        (&["audit", "--skip-src"][..], "unknown option --skip-src for apsp audit"),
        (&["audit", "--skip-cost"][..], "unknown option --skip-cost for apsp audit"),
        (&["audit", "--root", "."][..], "unknown option --root for apsp audit"),
        (&["audit", "--fixture", "src"][..], "unknown fixture src"),
    ] {
        let out = apsp().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
    }

    // a negative weight is refused at the door, named, never a panic:
    // undirected (solve and path) and a directed DIMACS arc, and on every
    // algorithm before its solver is built
    let neg = tmp("neg.el");
    std::fs::write(&neg, "n 3\n0 1 -1.0\n1 2 2.0\n").unwrap();
    let neg_gr = tmp("neg.gr");
    std::fs::write(&neg_gr, "p sp 3 2\na 1 2 -1\na 2 3 2\n").unwrap();
    let on = |cmd, algo| [cmd, "--algorithm", algo, "--height", "2"];
    for (args, input) in [
        (&["solve"][..], &neg),
        (&["path"][..], &neg),
        (&["solve", "--directed"][..], &neg_gr),
        (&on("solve", "fw2d")[..], &neg),
        (&on("solve", "dcapsp")[..], &neg),
        (&on("solve", "superfw")[..], &neg),
        (&on("solve", "djohnson")[..], &neg),
        (&on("path", "djohnson")[..], &neg),
        (&on("verify", "fw2d")[..], &neg),
        (&on("verify", "djohnson")[..], &neg),
    ] {
        let out = apsp().args(args).arg("--input").arg(input).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("edge 0 -> 1: weight -1 is not >= 0"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }

    let out = apsp().args(["help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn native_backend_refuses_rank_counts_past_the_bound() {
    // both flags that set p are checked while parsing, on either backend:
    // exit 2 naming the flag and the rank count, before a thread or a
    // per-supernode buffer exists
    let graph = tmp("ranks.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "4", "--cols", "4", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    for backend in ["native", "sim"] {
        for (cmd, algo, flag, value, ranks) in [
            ("solve", "sparse2d", "--height", "6", "3969"),
            ("solve", "fw2d", "--height", "32", "18446744065119617025"),
            ("path", "sparse2d", "--height", "7", "16129"),
            ("verify", "sparse2d", "--height", "32", "18446744065119617025"),
            ("verify", "fw2d", "--n-grid", "32", "1024"),
            ("verify", "djohnson", "--n-grid", "4294967296", "18446744073709551616"),
        ] {
            let out = apsp()
                .args([cmd, "--backend", backend, "--algorithm", algo, flag, value, "--input"])
                .arg(&graph)
                .output()
                .unwrap();
            let what = format!("{cmd} {algo} {flag} {value} on {backend}");
            assert_eq!(out.status.code(), Some(2), "{what}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let expected = format!("at most 961 ranks; {flag} {value} asks for {ranks}\n");
            assert!(stderr.starts_with(&format!("apsp: {flag} must be")), "{what}: {stderr}");
            assert!(stderr.contains(&expected), "{what}: {stderr}");
        }
    }
}

#[test]
fn trace_export_via_cli() {
    let graph = tmp("traced.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    let dir = tmp("trace-out");
    let out = apsp()
        .args(["solve", "--algorithm", "sparse2d", "--height", "2", "--verify"])
        .args(["--profile", "--input"])
        .arg(&graph)
        .arg("--trace")
        .arg(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("trace written to"), "{stderr}");
    assert!(stderr.contains("attribution: exact"), "{stderr}");

    // the Chrome-trace JSON parses
    let text = std::fs::read_to_string(dir.join("trace.json")).unwrap();
    let trace = jsonio::parse(&text).unwrap_or_else(|e| panic!("trace.json: {e}"));
    let events = trace.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");

    // one complete ("X") event per instrumented phase per rank: p = 9
    // ranks (h = 2), phases level#1/level#2, each with nested r1/r2/r3 and
    // r4 on the non-final level only
    let mut count = std::collections::HashMap::new();
    for event in events.iter().filter(|e| string(e, "ph") == Some("X")) {
        let name = string(event, "name").unwrap().to_string();
        let tid = num(event, "tid").unwrap() as usize;
        let tag = event.get("args").and_then(|args| num(args, "tag")).unwrap();
        *count.entry((name, tid, tag as u64)).or_insert(0u32) += 1;
    }
    for rank in 0..9 {
        for level in 1..=2u64 {
            assert_eq!(
                count.get(&("level".into(), rank, level)),
                Some(&1),
                "level#{level} rank {rank}"
            );
            for unit in ["r1", "r2", "r3"] {
                assert_eq!(
                    count.get(&(unit.into(), rank, level)),
                    Some(&1),
                    "{unit}#{level} rank {rank}"
                );
            }
        }
        assert_eq!(count.get(&("r4".into(), rank, 1)), Some(&1), "r4 rank {rank}");
        assert_eq!(count.get(&("r4".into(), rank, 2)), None, "no r4 on the last level");
    }

    // the JSONL event stream parses line by line, every line a typed
    // event of one of the nine ranks
    let events = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    assert!(!events.is_empty());
    for (no, line) in events.lines().enumerate() {
        let event = jsonio::parse(line).unwrap_or_else(|e| panic!("events.jsonl:{no}: {e}"));
        assert!(string(&event, "type").is_some(), "events.jsonl:{no}: {line}");
        assert!(num(&event, "rank").is_some_and(|r| r < 9.0), "{line}");
    }
}

#[test]
fn protocol_verify_clean_for_every_algorithm() {
    let graph = tmp("verified.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--seed", "4", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    for algo in ["sparse2d", "fw2d", "dcapsp", "djohnson"] {
        let out = apsp()
            .args(["verify", "--algorithm", algo, "--height", "2", "--input"])
            .arg(&graph)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{algo}: {}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("verify: CLEAN"), "{algo}: {stdout}");
    }
    // --n-grid drives the grid side directly (p = 16)
    let out = apsp()
        .args(["verify", "--algorithm", "fw2d", "--n-grid", "4", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("16 rank(s)"));
}

#[test]
fn protocol_verify_catches_the_bad_fixture() {
    // the fixture's cross receive ends at the watchdog: shorten its window
    let out = apsp()
        .args(["verify", "--algorithm", "bad-fixture"])
        .env("APSP_WATCHDOG_MS", "300")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "violations exit 1, not a crash");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verify: FAILED"), "{stdout}");
    assert!(stdout.contains("tag-reuse-across-phases"), "{stdout}");
    for needle in ["execution", "machine hung", "0: returned", "1: returned", "2⇐3", "3⇐2"] {
        assert!(stdout.contains(needle), "`{needle}` missing from {stdout}");
    }
    // the violation report is the rendered one — no Debug dumps, and the
    // hung ranks' internal panics never reach stderr
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("Box<dyn Any>"), "{stderr}");
}

#[test]
fn machine_errors_render_without_debug_dumps() {
    let graph = tmp("renderer.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    // a dead link aborts the solve (exit 2) through the shared renderer:
    // one readable `machine error:` line, no panic backtraces or `{:?}`
    // dumps from the dying ranks. fw2d's cascade victims die blocked in
    // recv; sparse2d's die mid-send into the dead rank — both directions
    // must stay silent
    for alg in ["fw2d", "sparse2d"] {
        let out = apsp()
            .args(["solve", "--algorithm", alg, "--height", "2"])
            .args(["--faults", "kill=0>2", "--input"])
            .arg(&graph)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{alg}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("machine error: unrecoverable fault"), "{alg}: {stderr}");
        assert!(!stderr.contains("panicked"), "{alg}: {stderr}");
        assert!(!stderr.contains("backtrace"), "{alg}: {stderr}");
        assert!(!stderr.contains("FaultError {"), "{alg}: {stderr}");
    }
}

#[test]
fn trace_rejected_for_hostside_algorithm() {
    let graph = tmp("nosup.el");
    assert!(apsp()
        .args(["generate", "--kind", "path", "--n", "10", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    let out = apsp()
        .args(["solve", "--algorithm", "superfw", "--height", "2", "--profile", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("simulated machine"));
}

#[test]
fn solve_metrics_summary_and_export() {
    let graph = tmp("metrics.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());

    // bare --metrics: human summary on stderr, after the solve
    let out = apsp()
        .args(["solve", "--height", "2", "--metrics", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("apsp_minplus_gemm_ops_total"), "{stderr}");
    assert!(stderr.contains("apsp_phase_wall_ns{phase=solve-sparse2d}"), "{stderr}");
    assert!(stderr.contains("apsp_simnet_runs_total"), "{stderr}");

    // --metrics=BASE: Prometheus exposition + JSONL files
    let base = tmp("metrics-out");
    let out = apsp()
        .args(["solve", "--height", "2", "--input"])
        .arg(&graph)
        .arg(format!("--metrics={}", base.display()))
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let prom = std::fs::read_to_string(format!("{}.prom", base.display())).unwrap();
    assert!(prom.starts_with("# HELP "), "{prom}");
    assert!(prom.contains("# TYPE apsp_minplus_gemm_ops_total counter"), "{prom}");
    assert!(
        prom.contains("apsp_phase_wall_ns_bucket{phase=\"machine-run\",le=\"+Inf\"}"),
        "{prom}"
    );
    let jsonl = std::fs::read_to_string(format!("{}.jsonl", base.display())).unwrap();
    let series: Vec<Json> = jsonl
        .lines()
        .map(|line| jsonio::parse(line).unwrap_or_else(|e| panic!("bad JSONL: {e}: {line}")))
        .collect();
    let gemm_ops = series
        .iter()
        .find(|s| string(s, "name") == Some("apsp_minplus_gemm_ops_total"))
        .expect("the kernel counters are exported");
    assert_eq!(string(gemm_ops, "kind"), Some("counter"));
    assert!(num(gemm_ops, "value").is_some_and(|v| v > 0.0), "{jsonl}");
}

#[test]
fn audit_cli_is_clean_and_speaks_json() {
    let out = apsp().args(["audit", "--max-p", "16"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cost audit: CLEAN"), "{text}");

    let out = apsp().args(["audit", "--json", "--max-p", "16"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = jsonio::parse(&text).unwrap_or_else(|e| panic!("bad JSON: {e}: {text}"));
    assert_eq!(doc.get("clean"), Some(&Json::Bool(true)), "{text}");
    let checks = doc.get("checks").and_then(Json::as_arr).expect("the conformance checks");
    assert!(!checks.is_empty(), "{text}");
    assert!(checks.iter().all(|c| c.get("pass") == Some(&Json::Bool(true))), "{text}");
}

#[test]
fn audit_cli_rejects_both_seeded_fixtures() {
    let out = apsp().args(["audit", "--fixture", "cost"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "flood fixture must exit 1");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("VIOLATION") && text.contains("flood-fixture"), "{text}");

    let out = apsp().args(["audit", "--fixture", "nope"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn native_backend_solves_match_sim_byte_for_byte() {
    let graph = tmp("backend.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6"])
        .args(["--weights", "integer", "--seed", "3", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    // every distributed solver runs on the native backend, verifies, and
    // writes the byte-identical distances file the sim backend writes
    for algo in ["sparse2d", "fw2d", "dcapsp", "djohnson"] {
        let sim_tsv = tmp(&format!("backend-{algo}-sim.tsv"));
        let nat_tsv = tmp(&format!("backend-{algo}-native.tsv"));
        for (backend, tsv) in [("sim", &sim_tsv), ("native", &nat_tsv)] {
            let out = apsp()
                .args(["solve", "--algorithm", algo, "--height", "2", "--verify"])
                .args(["--backend", backend, "--input"])
                .arg(&graph)
                .arg("--distances")
                .arg(tsv)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{algo}/{backend}: {stderr}");
            assert!(stderr.contains("verified against Dijkstra: OK"), "{algo}/{backend}: {stderr}");
        }
        assert_eq!(
            std::fs::read(&sim_tsv).unwrap(),
            std::fs::read(&nat_tsv).unwrap(),
            "{algo}: native distances drifted from the sim backend"
        );
    }
}

#[test]
fn native_backend_rejects_sim_only_flags_readably() {
    let graph = tmp("backendrej.el");
    assert!(apsp()
        .args(["generate", "--kind", "path", "--n", "10", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());

    // every simulator-only flag dies with the same actionable shape,
    // naming both the flag and the way out (--faults/--recover are no
    // longer in this list — the native backend runs them for real)
    let trace_dir = tmp("backendrej-trace");
    let cases: Vec<(&str, Vec<String>)> = vec![
        ("--trace", vec!["--trace".into(), trace_dir.display().to_string()]),
        ("--profile", vec!["--profile".into()]),
        ("--charge-ordering", vec!["--charge-ordering".into()]),
    ];
    for (flag, extra) in cases {
        let out = apsp()
            .args(["solve", "--height", "2", "--backend", "native"])
            .args(&extra)
            .arg("--input")
            .arg(&graph)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag} must be rejected on the native backend");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "{flag} needs the simulated machine; drop {flag} or use --backend sim"
            )),
            "{flag}: {stderr}"
        );
    }

    // a bad backend name dies usage-style with the accepted values
    let out = apsp()
        .args(["solve", "--height", "2", "--backend", "bogus", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr)
        .contains("unknown backend bogus (expected sim or native)"));

    // superfw is host-side shared-memory; --backend means nothing there
    let out = apsp()
        .args(["solve", "--algorithm", "superfw", "--height", "2"])
        .args(["--backend", "native", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr)
        .contains("superfw is host-side shared-memory already; --backend does not apply"));
}

#[test]
fn orphan_fault_seed_is_rejected_readably() {
    let graph = tmp("orphanseed.el");
    assert!(apsp()
        .args(["generate", "--kind", "path", "--n", "10", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());

    // --fault-seed alone is a silent no-op trap: reject it loudly
    for backend in ["sim", "native"] {
        let out = apsp()
            .args(["solve", "--height", "2", "--backend", backend])
            .args(["--fault-seed", "7", "--input"])
            .arg(&graph)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{backend}: orphan --fault-seed must be rejected");
        assert_eq!(out.status.code(), Some(2), "{backend}: usage errors exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--fault-seed requires --faults"), "{backend}: {stderr}");
    }

    // paired with --faults (or --recover) the seed is legitimate
    let out = apsp()
        .args(["solve", "--height", "2", "--faults", "drop=0.01"])
        .args(["--fault-seed", "7", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn native_faulty_solve_recovers_and_reports() {
    let graph = tmp("nativefault.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--seed", "2", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());

    // transient chaos on real threads: retransmission alone recovers,
    // the answer verifies, and the digest is seed-deterministic
    let run = || {
        apsp()
            .args(["solve", "--height", "2", "--backend", "native", "--verify"])
            .args(["--faults", "drop=0.05,dup=0.02,corrupt=0.02", "--fault-seed", "7", "--input"])
            .arg(&graph)
            .output()
            .unwrap()
    };
    let out = run();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("verified against Dijkstra: OK"), "{stderr}");
    assert!(stderr.contains("faults: injected"), "{stderr}");
    assert!(stderr.contains("unrecoverable 0"), "{stderr}");
    let digest = |s: &str| s.lines().find(|l| l.starts_with("faults:")).map(String::from);
    let again = run();
    assert!(again.status.success());
    assert_eq!(
        digest(&stderr),
        digest(&String::from_utf8_lossy(&again.stderr)),
        "native fault replay must be deterministic"
    );
}

#[test]
fn native_faulty_solve_feeds_the_machine_counters() {
    let graph = tmp("nativemetrics.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--seed", "2", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());

    // the one epoch runner records every launch, on either machine: a
    // native faulty solve must show up in the machine counters and the
    // machine-run timer (messages/words stay 0 — the native send path
    // counts nothing)
    let out = apsp()
        .args(["solve", "--height", "2", "--backend", "native", "--metrics"])
        .args(["--faults", "drop=0.08,dup=0.04", "--fault-seed", "42", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let counter = |name: &str| -> u64 {
        let line = stderr
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("no {name} in the metrics summary:\n{stderr}"));
        line.split_whitespace().last().unwrap().parse().unwrap()
    };
    assert!(counter("apsp_simnet_runs_total") > 0, "{stderr}");
    assert!(counter("apsp_simnet_faults_injected_total") > 0, "{stderr}");
    assert!(counter("apsp_simnet_retransmissions_total") > 0, "{stderr}");
    assert_eq!(counter("apsp_simnet_messages_total"), 0, "{stderr}");
    assert!(stderr.contains("apsp_phase_wall_ns{phase=machine-run}"), "{stderr}");
}

#[test]
fn native_recovering_solve_survives_a_killed_thread() {
    let graph = tmp("nativerecover.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--seed", "2", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());

    // rank 4's program dies after its first phase boundary; the native
    // supervisor rolls survivors back, replays it under a spare id, and
    // the solve still verifies against Dijkstra
    let out = apsp()
        .args(["solve", "--height", "2", "--backend", "native", "--verify"])
        .args(["--faults", "kill=4@1", "--recover", "default", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("verified against Dijkstra: OK"), "{stderr}");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("recovery:"))
        .unwrap_or_else(|| panic!("no recovery digest on stderr:\n{stderr}"));
    assert!(!line.starts_with("recovery: 0 restarts"), "the kill must force a restart: {line}");
    assert!(line.contains("spares"), "{line}");

    // exhausting the spare budget surfaces a typed unrecoverable error,
    // not a panic, a hang, or a wrong answer
    let out = apsp()
        .args(["solve", "--height", "2", "--backend", "native"])
        .args(["--faults", "kill=4", "--recover", "restarts=1,spares=0", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("machine error"), "{stderr}");
    assert!(stderr.contains("rank 4"), "{stderr}");
}
