//! Golden tests for the static cost-model auditor (Theorems 5.7/5.10
//! and Table 2 as executable exponent assertions), plus the seeded
//! over-communicating fixture that proves it can actually fire.
//!
//! The source rules are compiler and clippy checks (docs/VERIFICATION.md,
//! "Source rules"); the second half of this file shows that they fire. It
//! builds the seeded fixtures of `crates/verify/fixtures/` as scratch
//! crates under `CARGO_TARGET_TMPDIR`. Each scratch crate carries the
//! `clippy.toml` and the `#![cfg_attr(..)]` lint lines of the crate it
//! stands in for, read from that crate now, so deleting a deny line or a
//! `clippy.toml` entry fails here. Every line marked `// rule: <name>` must
//! draw that rule's diagnostic. These tests need `cargo clippy`; without
//! it, they fail.

use std::path::Path;
use std::process::Command;

use sparse_apsp::audit::{audit_cost_model, audit_flood_fixture, AuditOptions};

#[test]
fn every_solver_conforms_on_the_default_grid() {
    let report = audit_cost_model(&AuditOptions::default());
    assert!(report.is_clean(), "cost audit regressed:\n{}", report.render());
    for solver in ["sparse2d", "fw2d", "dcapsp", "djohnson"] {
        let n = report.checks.iter().filter(|c| c.solver == solver).count();
        assert!(n >= 6, "expected >= 6 conformance checks for {solver}, got {n}");
    }
    // phase attribution reached into every solver: the sparse rounds, the
    // dense pivot/SUMMA/base-case spans, and johnson's bare "main" all
    // earned their own per-phase fits
    for phase in ["r2", "r3", "r4", "pivot", "summa", "base-fw", "main"] {
        assert!(
            report.checks.iter().any(|c| c.phase == phase),
            "no conformance fit for phase {phase}:\n{}",
            report.render()
        );
    }
}

#[test]
fn solvers_conform_at_sixteen_ranks_and_below() {
    // the acceptance grid: every machine capped at p <= 16, where the
    // dense sweeps still have three points; the sparse p-sweep collapses
    // to its single p = 9 machine and is skipped rather than fitted
    let report = audit_cost_model(&AuditOptions { max_p: 16, ..AuditOptions::default() });
    assert!(report.is_clean(), "p <= 16 audit regressed:\n{}", report.render());
    assert!(
        !report.checks.iter().any(|c| c.solver == "sparse2d" && c.sweep == "p"),
        "a one-point sweep must be skipped, not fitted"
    );
    assert!(report.checks.iter().any(|c| c.solver == "sparse2d" && c.sweep == "n"));
}

#[test]
fn flood_fixture_is_rejected_with_a_per_phase_report() {
    let report = audit_flood_fixture(AuditOptions::DEFAULT_TOLERANCE);
    assert!(!report.is_clean(), "the over-communicating fixture must fail the audit");
    let failures = report.failures();
    // total and the "flood" span both overshoot on latency and bandwidth,
    // and the replicated blocks blow the memory bound
    assert!(failures.len() >= 4, "expected broad overshoot, got:\n{}", report.render());
    assert!(failures.iter().any(|c| c.phase == "flood"), "per-phase attribution missing");
    // failures are ranked worst-first so the report leads with the story
    assert!(failures.windows(2).all(|w| w[0].excess() >= w[1].excess()));
    let text = report.render();
    for needle in ["VIOLATION", "flood-fixture", "Thm 5.7", "Thm 5.10", "exceeds bound"] {
        assert!(text.contains(needle), "report lacks {needle:?}:\n{text}");
    }
}

const REPO: &str = env!("CARGO_MANIFEST_DIR");

/// The diagnostic codes that enforce each rule.
fn codes(rule: &str) -> &'static [&'static str] {
    match rule {
        "wall-clock" => &["clippy::disallowed_methods"],
        "raw-thread" | "raw-sync" => &["clippy::disallowed_methods", "clippy::disallowed_types"],
        "unwrap" => &["clippy::unwrap_used"],
        "stdout-print" => &["clippy::print_stdout"],
        "unsafe-safety" => &["clippy::undocumented_unsafe_blocks"],
        "ledger-mutation" => &["E0616"],
        other => panic!("a fixture marks the unknown rule {other}"),
    }
}

/// One scratch crate: `fixture` becomes its module `src/fixture.rs`.
struct Scratch<'a> {
    name: &'a str,
    /// The real crate whose lint lines and `clippy.toml` it carries.
    stands_in_for: &'a str,
    fixture: &'a str,
    /// `clippy` (lints) or `build` (rustc errors, which stop clippy).
    cargo: &'a str,
    /// Built under `--cfg loom`, where the sync shim is loom's.
    loom: bool,
}

impl Scratch<'_> {
    /// Builds the crate and returns `(line, code)` for every diagnostic on
    /// the fixture.
    fn diagnostics(&self) -> Vec<(usize, String)> {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("source_fixtures").join(self.name);
        let real = Path::new(REPO).join(self.stands_in_for);
        std::fs::create_dir_all(dir.join("src")).expect("scratch crate directory");
        let lints = if self.loom {
            "[lints.rust]\nunexpected_cfgs = { level = \"warn\", check-cfg = ['cfg(loom)'] }\n"
        } else {
            ""
        };
        let deps = if self.fixture.contains("apsp_simnet") {
            format!(
                "[dependencies]\napsp-simnet = {{ path = {:?} }}\n",
                Path::new(REPO).join("crates/simnet")
            )
        } else {
            String::new()
        };
        let manifest = format!(
            "[package]\nname = \"{}\"\nversion = \"0.0.0\"\nedition = \"2021\"\npublish = false\n\n\
             {deps}{lints}[workspace]\n",
            self.name
        );
        let lib = read(&real.join("src/lib.rs"));
        let mut attrs = cfg_attrs(&lib).join("\n");
        attrs.push_str("\npub mod fixture;\n");
        write(&dir.join("Cargo.toml"), &manifest);
        write(&dir.join("clippy.toml"), &read(&real.join("clippy.toml")));
        write(&dir.join("src/lib.rs"), &attrs);
        write(&dir.join("src/fixture.rs"), self.fixture);

        let mut cmd = Command::new(env!("CARGO"));
        cmd.arg(self.cargo)
            .args(["--offline", "--quiet", "--message-format=json", "--manifest-path"])
            .arg(dir.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(dir.join("target"));
        if self.cargo == "clippy" {
            cmd.args(["--", "-D", "warnings"]);
        }
        for var in [
            "RUSTFLAGS",
            "CARGO_ENCODED_RUSTFLAGS",
            "CARGO_BUILD_RUSTFLAGS",
            "CARGO_TARGET_DIR",
            "CARGO_BUILD_TARGET_DIR",
            "RUSTC_WRAPPER",
            "RUSTC_WORKSPACE_WRAPPER",
            "CLIPPY_CONF_DIR",
        ] {
            cmd.env_remove(var);
        }
        if self.loom {
            cmd.env("RUSTFLAGS", "--cfg loom");
        }
        let out = cmd.output().unwrap_or_else(|e| panic!("cannot run cargo {}: {e}", self.cargo));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !out.status.success(),
            "cargo {} accepted the {} fixture:\n{}",
            self.cargo,
            self.name,
            String::from_utf8_lossy(&out.stderr)
        );
        let found: Vec<(usize, String)> = stdout.lines().filter_map(fixture_diagnostic).collect();
        assert!(
            !found.is_empty(),
            "cargo {} failed without a diagnostic on the fixture (is it installed?):\n{}",
            self.cargo,
            String::from_utf8_lossy(&out.stderr)
        );
        found
    }

    /// Asserts that every `// rule:` line in the fixture draws its rule.
    fn rejects_every_marked_line(&self) {
        let found = self.diagnostics();
        let mut marked = 0;
        for (idx, line) in self.fixture.lines().enumerate() {
            let Some((code, rule)) = line.split_once("// rule: ") else { continue };
            if code.trim_start().starts_with("//") {
                continue; // a comment about the markers, not a marked line
            }
            marked += 1;
            let want = codes(rule.trim());
            assert!(
                found.iter().any(|(l, code)| *l == idx + 1 && want.contains(&code.as_str())),
                "{} line {} ({}) drew none of {want:?}; diagnostics: {found:?}",
                self.name,
                idx + 1,
                line.trim()
            );
        }
        assert!(marked > 0, "the {} fixture marks no line", self.name);
    }
}

/// The `#![cfg_attr(..)]` inner attributes of a crate root, verbatim.
fn cfg_attrs(lib: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = lib;
    while let Some(at) = rest.find("#![cfg_attr(") {
        let mut depth = 0;
        let (close, _) = rest[at..]
            .char_indices()
            .find(|&(_, c)| {
                depth += i32::from(c == '(') - i32::from(c == ')');
                c == ')' && depth == 0
            })
            .expect("a balanced attribute");
        let end = at + close + ")]".len();
        out.push(&rest[at..end]);
        rest = &rest[end..];
    }
    assert!(!out.is_empty(), "no #![cfg_attr(..)] lint line found");
    out
}

/// `(line, code)` of one cargo JSON message whose primary location is in
/// `src/fixture.rs`: the code is the message's one non-null `code` (its
/// children's are null), the location the first `-->` of its rendering.
fn fixture_diagnostic(json: &str) -> Option<(usize, String)> {
    if !json.starts_with("{\"reason\":\"compiler-message\"") {
        return None;
    }
    let code = json.split_once("\"code\":{\"code\":\"")?.1.split('"').next()?;
    let at = json.split_once("--> src/fixture.rs:")?.1;
    let line = at.split(':').next()?.parse().ok()?;
    Some((line, code.to_string()))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn write(path: &Path, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
}

#[test]
fn bad_source_fixture_fires_every_rule() {
    let badsource = read(&Path::new(REPO).join("crates/verify/fixtures/badsource.rs"));
    // rustc stops at the private-field errors before clippy runs, so the
    // ledger section is built on its own and the rest is linted without it;
    // blank lines in place of the rest keep the line numbers
    let cut = badsource.find("// ledger-mutation:").expect("the ledger section of badsource.rs");
    let (rest, ledger) = badsource.split_at(cut);
    let ledger = "\n".repeat(rest.lines().count()) + ledger;
    Scratch {
        name: "badsource",
        stands_in_for: "crates/core",
        fixture: rest,
        cargo: "clippy",
        loom: false,
    }
    .rejects_every_marked_line();
    Scratch {
        name: "badledger",
        stands_in_for: "crates/core",
        fixture: &ledger,
        cargo: "build",
        loom: false,
    }
    .rejects_every_marked_line();
}

#[test]
fn bad_sync_fixture_fires_the_concurrency_rules() {
    let badsync = read(&Path::new(REPO).join("crates/verify/fixtures/badsync.rs"));
    Scratch {
        name: "badsync",
        stands_in_for: "crates/transport",
        fixture: &badsync,
        cargo: "clippy",
        loom: true,
    }
    .rejects_every_marked_line();
}

#[test]
fn every_clippy_toml_repeats_the_wall_clock_entries() {
    // clippy reads the nearest clippy.toml and does not merge, so a crate
    // with its own file must carry the root's wall-clock entries itself;
    // crates sharing a rule set share the file
    let entries = |path: &str| -> Vec<String> {
        read(&Path::new(REPO).join(path))
            .lines()
            .filter(|l| l.contains("std::time::"))
            .map(str::to_string)
            .collect()
    };
    let root = entries("clippy.toml");
    assert_eq!(root.len(), 3, "the root clippy.toml lost a wall-clock entry");
    for krate in ["core", "minplus", "simnet", "transport"] {
        assert_eq!(entries(&format!("crates/{krate}/clippy.toml")), root, "crates/{krate}");
    }
    for (a, b) in [("core", "minplus"), ("simnet", "transport")] {
        let a = read(&Path::new(REPO).join(format!("crates/{a}/clippy.toml")));
        assert_eq!(a, read(&Path::new(REPO).join(format!("crates/{b}/clippy.toml"))));
    }
}
