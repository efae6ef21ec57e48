//! Drives the built binary in `--smoke` mode (n ≤ 256, about a second per
//! run): argument handling, the result line, both metric sets, the trace
//! file and the failure exit codes. Smoke numbers mean nothing; only their
//! presence and the correctness verdicts are checked.

use apsp_bench::jsonio::{self as json, Json};
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_apsp-benchmark")).args(args).output().expect("binary starts")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

/// Names of one metric table of `spec-json`, in order.
fn spec_names(table: &str) -> Vec<String> {
    let spec = json::parse(&stdout(&bench(&["spec-json"]))).expect("spec-json is JSON");
    let rows = spec.get(table).and_then(Json::as_arr).expect("a table");
    rows.iter().map(|r| r.get("name").and_then(Json::as_str).expect("a name").to_string()).collect()
}

/// Runs one smoke workload and returns its parsed result line.
fn smoke_run(workload: &str, trace: &str) -> Json {
    let out = bench(&["--smoke", "--workload", workload, "--seed", "11", "--trace", trace]);
    let text = stdout(&out);
    assert!(out.status.success(), "{workload} failed:\n{text}");
    let doc = json::parse(text.lines().last().expect("output")).expect("the last line is JSON");
    let Json::Obj(pairs) = &doc else { panic!("the result is an object") };
    let keys: Vec<&str> = pairs.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("failed").and_then(Json::as_num), Some(0.0));
    assert!(doc.get("attempted").and_then(Json::as_num).expect("attempted") >= 1.0);
    doc
}

/// Names of the metrics a run reported, in the order it printed them.
fn metric_names(doc: &Json) -> Vec<String> {
    let Some(Json::Obj(metrics)) = doc.get("metrics") else { panic!("no metrics") };
    for (name, m) in metrics {
        let value = m.get("value").and_then(Json::as_num).expect("a value");
        assert!(value.is_finite(), "{name}");
        assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
    }
    metrics.iter().map(|(name, _)| name.clone()).collect()
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_verifies() {
    let want = spec_names("end_to_end");
    for workload in spec_names("workloads") {
        let doc = smoke_run(&workload, "0");
        assert_eq!(metric_names(&doc), want, "{workload}");
        let metrics = doc.get("metrics").expect("metrics");
        for name in &want {
            let value = metrics.get(name).and_then(|m| m.get("value")).and_then(Json::as_num);
            assert!(value.expect("a value") > 0.0, "{workload}/{name} must never be 0");
        }
    }
}

#[test]
fn the_traced_run_reports_every_per_layer_metric_and_writes_its_trace() {
    let doc = smoke_run("expander-gemm", "1");
    assert_eq!(metric_names(&doc), spec_names("per_layer"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-expander-gemm.json");
    let trace = json::parse(&std::fs::read_to_string(path).expect("a trace file")).expect("JSON");
    let events = trace.get("traceEvents").and_then(Json::as_arr).expect("events");
    for layer in ["partition.order", "solve", "solved.route", "update.batch", "minplus.gemm"] {
        let named = |e: &&Json| e.get("name").and_then(Json::as_str) == Some(layer);
        let event = events.iter().find(named).unwrap_or_else(|| panic!("no {layer} span"));
        assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
        let args = event.get("args").expect("args");
        assert_eq!(args.get("workload").and_then(Json::as_str), Some("expander-gemm"));
        assert!(args.get("parent").is_some() && args.get("self_us").is_some());
    }
}

#[test]
fn the_same_seed_gives_the_same_counts() {
    let count = |doc: &Json, name: &str| {
        doc.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value")).cloned()
    };
    let (a, b) = (smoke_run("mesh-ranks", "1"), smoke_run("mesh-ranks", "1"));
    for name in
        ["minplus.gemm_ops", "minplus.fw_ops", "simnet.messages", "simnet.words", "update.words"]
    {
        assert!(count(&a, name).is_some() && count(&a, name) == count(&b, name), "{name}");
    }
}

#[test]
fn list_and_bad_arguments() {
    let listing = stdout(&bench(&["--list"]));
    let tables = ["workloads", "end_to_end", "per_layer"];
    for name in tables.iter().flat_map(|table| spec_names(table)) {
        assert!(listing.contains(&name), "--list misses {name}");
    }
    for bad in [&["--workload", "nope"][..], &["--trace", "2"], &["--bogus"]] {
        let out = bench(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "a refused run prints no result");
    }
}

#[test]
fn aa_compares_two_sets_of_the_same_binary() {
    let out = bench(&["aa", "--sets", "2", "--smoke", "--workload", "mesh-serve"]);
    let text = stdout(&out);
    for name in spec_names("end_to_end") {
        let row =
            text.lines().find(|l| l.contains(&name)).unwrap_or_else(|| panic!("no {name} row"));
        assert!(row.contains("PASS") || row.contains("FAIL"), "{row}");
    }
    assert!(text.contains("failing workload/metric pairs"));
}
