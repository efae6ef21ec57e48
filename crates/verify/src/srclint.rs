//! Repo-invariant source linter — the static half of the audit layer.
//!
//! A lightweight line-lexer over `crates/*/src` (no rustc plugin, no
//! syntax tree) enforcing the invariants the golden tests only catch
//! after the fact:
//!
//! * **`wall-clock`** — no `Instant::now`/`SystemTime` outside
//!   `crates/metrics/src/timer.rs`. Wall time is nondeterministic; the
//!   §3.1 cost model is the only sanctioned clock, and the one wall
//!   timer lives behind the metrics registry's enable gate.
//! * **`ledger-mutation`** — no `.latency`/`.bandwidth`/`.compute`
//!   mutation outside the simnet machine (`comm.rs`'s `SimMeter`,
//!   `report.rs`, `trace.rs`). A solver that edits its own bill
//!   invalidates every Table 2 comparison.
//! * **`raw-thread`** — no `std::thread` / `mpsc` channels in the
//!   solver crates (`core`, `minplus`): all parallelism must flow
//!   through `Comm`, or it is invisible to the cost ledgers.
//! * **`unwrap`** — no `.unwrap()` in non-test code, and no
//!   `.expect("…")` whose message is shorter than 10 characters
//!   (the repo convention: an expect message states the invariant that
//!   makes the panic unreachable, not a shrug).
//! * **`stdout-print`** — no `println!`/`print!` in library code:
//!   stdout belongs to the CLI binary; libraries report through
//!   returned types or the metrics registry.
//! * **`unsafe-safety`** — every `unsafe` keyword carries a
//!   `// SAFETY:` justification on the same line or in the comment/
//!   attribute block directly above it. An unsafe window whose
//!   invariant is unstated cannot be audited, model-checked, or
//!   reviewed against the claim it actually makes.
//! * **`raw-sync`** — no direct `std::sync`/`std::thread` in the files
//!   that hold the shared rank endpoint, the epoch runner and its
//!   rank-thread pool, the recovery supervisor and the two machines built
//!   on them (`endpoint.rs`, `pool.rs`, `comm.rs`, `recovery.rs` in
//!   `crates/simnet/src/`, all of
//!   `crates/transport/src/`) outside the `sync` shim module
//!   (`crates/simnet/src/sync.rs`): the shim is the single gateway that
//!   lets `--cfg loom` builds swap every primitive for its model-checked
//!   twin, and a bypass is invisible to the loom suite.
//!
//! Lines inside `#[cfg(test)]` modules (including compound gates like
//! `#[cfg(all(test, not(loom)))]`) are skipped (tracked by brace
//! depth), string-literal and comment contents never match, and a
//! deliberate exception carries an `// audit:allow(rule)` marker on the
//! same line, which this linter treats as sanctioned and the report
//! counts separately.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One source-invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SrcViolation {
    /// Repo-relative path (`/`-separated on every platform).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule name (`wall-clock`, `ledger-mutation`, `raw-thread`,
    /// `unwrap`, `stdout-print`, `unsafe-safety`, `raw-sync`).
    pub rule: &'static str,
    /// What the rule protects, phrased for the report.
    pub message: String,
    /// The offending line, trimmed.
    pub excerpt: String,
}

impl std::fmt::Display for SrcViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}\n      {}",
            self.file, self.line, self.rule, self.message, self.excerpt
        )
    }
}

/// The linter's verdict over one source tree.
#[derive(Clone, Debug, Default)]
pub struct SrcReport {
    /// Files scanned.
    pub files_scanned: usize,
    /// Lines carrying an `audit:allow` marker (sanctioned exceptions).
    pub allowed: usize,
    /// Everything that fired.
    pub violations: Vec<SrcViolation>,
}

impl SrcReport {
    /// `true` when nothing fired.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable multi-line report (what `apsp audit` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            let _ = writeln!(
                out,
                "source audit: CLEAN — {} file(s), {} sanctioned exception(s)",
                self.files_scanned, self.allowed
            );
        } else {
            let _ = writeln!(
                out,
                "source audit: FAILED — {} violation(s) in {} file(s)",
                self.violations.len(),
                self.files_scanned
            );
            for (i, v) in self.violations.iter().enumerate() {
                let _ = writeln!(out, "  [{}] {v}", i + 1);
            }
        }
        out
    }

    /// Machine-readable JSON form (what `apsp audit --json` prints).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"clean\":");
        let _ = write!(
            out,
            "{},\"files_scanned\":{},\"allowed\":{},\"violations\":[",
            self.is_clean(),
            self.files_scanned,
            self.allowed
        );
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"file\":{},\"line\":{},\"rule\":\"{}\",\"message\":{}}}",
                crate::costcheck::json_str(&v.file),
                v.line,
                v.rule,
                crate::costcheck::json_str(&v.message)
            );
        }
        out.push_str("]}");
        out
    }
}

/// Files the `wall-clock` rule exempts: the one sanctioned wall timer.
const WALL_CLOCK_ALLOW: [&str; 1] = ["crates/metrics/src/timer.rs"];

/// Files the `ledger-mutation` rule exempts: the machine that owns the
/// §3.1 clocks (the simulator's meter, report merging, span ledgers).
const LEDGER_ALLOW: [&str; 3] =
    ["crates/simnet/src/comm.rs", "crates/simnet/src/report.rs", "crates/simnet/src/trace.rs"];

/// Crates where `raw-thread` applies: solver code whose only sanctioned
/// parallelism is the simulated machine. (`simnet` itself and the `par`
/// work-stealing pool implement the sanctioned layers, so they are out
/// of scope by construction.)
const RAW_THREAD_SCOPE: [&str; 2] = ["crates/core/src/", "crates/minplus/src/"];

/// Where `raw-sync` applies (path prefixes): the shared rank endpoint, the
/// epoch runner and its rank-thread pool, the simulator machine and the
/// recovery supervisor around them, the shim, and the native machine's
/// crate — the code the loom suite model-checks, whose every
/// synchronization primitive must route through the shim. The rest of
/// `crates/simnet/src` (`snapshot.rs`, `script.rs`, `sched.rs`) stays on
/// std mutexes; the shim's module docs say why that is sound.
const RAW_SYNC_SCOPE: [&str; 6] = [
    "crates/simnet/src/endpoint.rs",
    "crates/simnet/src/pool.rs",
    "crates/simnet/src/comm.rs",
    "crates/simnet/src/recovery.rs",
    "crates/simnet/src/sync.rs",
    "crates/transport/src/",
];

/// The one file `raw-sync` exempts: the shim itself, whose whole job is
/// naming `std::sync`/`std::thread` once.
const RAW_SYNC_ALLOW: [&str; 1] = ["crates/simnet/src/sync.rs"];

/// Minimum `.expect("…")` message length the repo convention accepts.
const MIN_EXPECT_MSG: usize = 10;

/// Lints every `.rs` file under `root/crates/*/src`, skipping the
/// vendored `compat` stand-ins and any `bin/` subtree (binaries may
/// print). Paths in the report are repo-relative. Deterministic order.
pub fn lint_sources(root: &Path) -> std::io::Result<SrcReport> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    for entry in std::fs::read_dir(&crates)? {
        let dir = entry?.path();
        if !dir.is_dir() || dir.file_name().is_some_and(|f| f == "compat") {
            continue;
        }
        collect_rs(&dir.join("src"), &mut files)?;
    }
    files.sort();
    let mut report = SrcReport::default();
    for path in files {
        let text = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        report.files_scanned += 1;
        let (violations, allowed) = lint_text(&rel, &text);
        report.allowed += allowed;
        report.violations.extend(violations);
    }
    Ok(report)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|f| f == "bin") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints one file's text under a repo-relative path (which decides rule
/// scope). Exposed so fixtures can be linted without touching the disk.
pub fn lint_file(relpath: &str, text: &str) -> Vec<SrcViolation> {
    lint_text(relpath, text).0
}

/// The seeded forbidden-pattern fixture (an "optimized" solver variant
/// breaking every invariant at once), linted under a virtual solver-crate
/// path so all five rules are in scope. The audit CI job asserts this
/// fires one violation per rule — proof the linter is alive.
pub fn lint_bad_fixture() -> Vec<SrcViolation> {
    lint_file("crates/core/src/badsource.rs", include_str!("../fixtures/badsource.rs"))
}

/// The seeded concurrency fixture (a hand-rolled transport "fast path"
/// with an unjustified unsafe window and raw `std::thread`/`std::sync`
/// bypassing the loom shim), linted under a virtual path next to the
/// native machine so the `unsafe-safety` and `raw-sync` rules are in scope. The
/// audit CI job asserts both fire — proof the concurrency lint is
/// alive.
pub fn lint_bad_sync_fixture() -> Vec<SrcViolation> {
    lint_file("crates/transport/src/badsync.rs", include_str!("../fixtures/badsync.rs"))
}

fn lint_text(relpath: &str, text: &str) -> (Vec<SrcViolation>, usize) {
    let mut violations = Vec::new();
    let mut allowed = 0usize;
    let masked = mask_lines(text);
    let raw_lines: Vec<&str> = text.lines().collect();
    // > 0 while inside a `#[cfg(test)]`-gated item's braces
    let mut test_depth = 0i64;
    let mut pending_cfg_test = false;
    for (idx, &raw) in raw_lines.iter().enumerate() {
        let lineno = idx + 1;
        let stripped = masked.get(idx).map(String::as_str).unwrap_or("");
        let trimmed = stripped.trim();
        if test_depth > 0 {
            test_depth += brace_delta(stripped);
            if test_depth < 0 {
                test_depth = 0;
            }
            continue;
        }
        if is_test_gate(trimmed) {
            pending_cfg_test = true;
            continue;
        }
        if pending_cfg_test {
            let delta = brace_delta(stripped);
            if stripped.contains('{') {
                pending_cfg_test = false;
                test_depth = delta.max(1);
                continue;
            }
            if trimmed.ends_with(';') {
                // attribute applied to a brace-less item (use, fn decl)
                pending_cfg_test = false;
            }
            if trimmed.is_empty() || trimmed.starts_with("#[") {
                continue; // further attributes between cfg(test) and the item
            }
            continue;
        }
        let mut hits = rule_hits(relpath, stripped);
        if has_unsafe_token(stripped) {
            hits.push((
                "unsafe-safety",
                !safety_justified(&raw_lines, idx),
                "every unsafe window states the invariant that makes it sound in a `// SAFETY:` \
                 comment (same line or the comment block directly above)"
                    .to_string(),
            ));
        }
        for (rule, fires, message) in hits {
            if !fires {
                continue;
            }
            if raw.contains(&format!("audit:allow({rule})")) {
                allowed += 1;
            } else {
                violations.push(SrcViolation {
                    file: relpath.to_string(),
                    line: lineno,
                    rule,
                    message,
                    excerpt: raw.trim().chars().take(90).collect(),
                });
            }
        }
    }
    (violations, allowed)
}

/// Evaluates every rule in scope for `relpath` against one line.
/// `stripped` is comment-stripped with string-literal contents masked to
/// `S` runs of the original length: patterns never match inside
/// literals, yet expect-message lengths survive for the `unwrap` rule.
fn rule_hits(relpath: &str, stripped: &str) -> Vec<(&'static str, bool, String)> {
    let mut hits = Vec::new();
    if !WALL_CLOCK_ALLOW.contains(&relpath) {
        hits.push((
            "wall-clock",
            stripped.contains("Instant::now") || stripped.contains("SystemTime"),
            "wall-clock reads belong to crates/metrics/src/timer.rs; everything else uses the \
             deterministic §3.1 cost model"
                .to_string(),
        ));
    }
    if !LEDGER_ALLOW.contains(&relpath) {
        let mutated = ["latency", "bandwidth", "compute"].iter().any(|field| {
            stripped.contains(&format!(".{field} +="))
                || stripped.contains(&format!(".{field} -="))
                || is_plain_assignment(stripped, &format!(".{field} ="))
        });
        hits.push((
            "ledger-mutation",
            mutated,
            "cost ledgers are written only by the simnet machine; a solver editing its own bill \
             invalidates every Table 2 comparison"
                .to_string(),
        ));
    }
    if RAW_THREAD_SCOPE.iter().any(|scope| relpath.starts_with(scope)) {
        hits.push((
            "raw-thread",
            stripped.contains("std::thread") || stripped.contains("mpsc"),
            "solver crates parallelize through Comm only; raw threads and channels are invisible \
             to the cost ledgers"
                .to_string(),
        ));
    }
    if RAW_SYNC_SCOPE.iter().any(|scope| relpath.starts_with(scope))
        && !RAW_SYNC_ALLOW.contains(&relpath)
    {
        hits.push((
            "raw-sync",
            stripped.contains("std::sync") || stripped.contains("std::thread"),
            "the rank endpoint, the epoch runner and both machines synchronize through the \
             `sync` shim only; a direct std::sync/std::thread use is invisible to the loom \
             model checker"
                .to_string(),
        ));
    }
    hits.push((
        "unwrap",
        stripped.contains(".unwrap()"),
        "non-test code must not .unwrap(); return a typed error or .expect(\"the invariant that \
         makes this unreachable\")"
            .to_string(),
    ));
    if let Some(msg_len) = short_expect_message(stripped) {
        hits.push((
            "unwrap",
            true,
            format!(
                "expect message of {msg_len} char(s) is below the {MIN_EXPECT_MSG}-char repo \
                 convention: state the invariant that makes the panic unreachable"
            ),
        ));
    }
    hits.push((
        "stdout-print",
        has_stdout_print(stripped),
        "stdout belongs to the apsp binary; library code reports through returned types or the \
         metrics registry"
            .to_string(),
    ));
    hits
}

/// `true` when the attribute line gates its item to test builds:
/// `#[cfg(test)]` itself or a compound `#[cfg(all(test, …))]` (the form
/// loom-aware crates use, e.g. `#[cfg(all(test, not(loom)))]`). The
/// `all(` head keeps `#[cfg(not(test))]` — which gates *shipping* code —
/// out.
fn is_test_gate(trimmed: &str) -> bool {
    trimmed.contains("#[cfg(test)]") || trimmed.contains("#[cfg(all(test,")
}

/// `unsafe` as a whole word in the masked line (never inside an
/// identifier, string literal, or comment).
fn has_unsafe_token(stripped: &str) -> bool {
    stripped.match_indices("unsafe").any(|(i, _)| {
        let boundary =
            |b: Option<&u8>| !matches!(b, Some(c) if c.is_ascii_alphanumeric() || *c == b'_');
        boundary(i.checked_sub(1).and_then(|j| stripped.as_bytes().get(j)))
            && boundary(stripped.as_bytes().get(i + "unsafe".len()))
    })
}

/// `true` when the raw line at `idx` carries a `SAFETY:` marker, or the
/// contiguous comment/attribute block directly above it does (the
/// standard placement for `unsafe impl` and multi-line windows).
fn safety_justified(raw_lines: &[&str], idx: usize) -> bool {
    if raw_lines[idx].contains("SAFETY:") {
        return true;
    }
    for line in raw_lines[..idx].iter().rev() {
        let t = line.trim();
        if !(t.starts_with("//") || t.starts_with("#[")) {
            return false;
        }
        if t.contains("SAFETY:") {
            return true;
        }
    }
    false
}

/// `true` when `needle` (a `".field ="` pattern) occurs as a plain
/// assignment — i.e. the `=` is not the first half of an `==`.
fn is_plain_assignment(stripped: &str, needle: &str) -> bool {
    stripped
        .match_indices(needle)
        .any(|(i, _)| stripped.as_bytes().get(i + needle.len()) != Some(&b'='))
}

/// `println!`/`print!` detection that does not trip on `eprintln!`/
/// `eprint!` (stderr is sanctioned for digests) or identifiers merely
/// containing "print".
fn has_stdout_print(stripped: &str) -> bool {
    for (i, _) in stripped.match_indices("print") {
        if i > 0 {
            let prev = stripped.as_bytes()[i - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                continue; // eprint!/eprintln!/reprint_…
            }
        }
        let rest = &stripped[i + "print".len()..];
        if rest.starts_with("!(") || rest.starts_with("ln!(") {
            return true;
        }
    }
    false
}

/// Finds a `.expect("…")` whose literal message is shorter than
/// [`MIN_EXPECT_MSG`]; returns its length. Operates on the masked line,
/// where a literal's mask run has the original character count.
/// Non-literal arguments are skipped (they are formatted from context
/// and assumed informative).
fn short_expect_message(stripped: &str) -> Option<usize> {
    let mut rest = stripped;
    while let Some(at) = rest.find(".expect(") {
        rest = &rest[at + ".expect(".len()..];
        let Some(open) = rest.strip_prefix('"') else { continue };
        let len = open.find('"').unwrap_or(open.len());
        if len < MIN_EXPECT_MSG {
            return Some(len);
        }
    }
    None
}

/// Lexes a whole file into masked lines: comments (line, doc, and nested
/// block) are dropped, string-literal contents — including multi-line
/// and `r#"…"#` raw strings — are masked to `S` runs of the literal's
/// logical length (an escape pair counts as one character), and char
/// literals become `'S'`. Rule patterns can never match inside a literal
/// or comment, brace counting sees only real code braces, and the
/// `unwrap` rule can still measure `.expect("…")` message lengths.
fn mask_lines(text: &str) -> Vec<String> {
    enum St {
        Code,
        /// Block-comment nesting depth (Rust block comments nest).
        Block(u32),
        Str,
        /// Raw string; the payload is the `#` count of the opening fence.
        Raw(usize),
    }
    let chars: Vec<char> = text.chars().collect();
    let mut lines = Vec::new();
    let mut cur = String::new();
    let mut st = St::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match st {
            St::Code => match c {
                '/' if chars.get(i + 1) == Some(&'/') => {
                    while i < chars.len() && chars[i] != '\n' {
                        i += 1;
                    }
                }
                '/' if chars.get(i + 1) == Some(&'*') => {
                    st = St::Block(1);
                    i += 2;
                }
                '"' => {
                    // raw string when the already-emitted text ends with
                    // `r` / `br` plus the fence hashes: r" r#" br##" …
                    let hashes = cur.chars().rev().take_while(|&h| h == '#').count();
                    let mut pre = cur.chars().rev().skip(hashes);
                    let mut tag = pre.next();
                    if tag == Some('r') && pre.next() == Some('b') {
                        tag = Some('r'); // br"…" — same raw lexing
                    }
                    st = if tag == Some('r') { St::Raw(hashes) } else { St::Str };
                    cur.push('"');
                    i += 1;
                }
                '\'' if chars.get(i + 1) == Some(&'\\') => {
                    // escaped char literal: skip to its closing quote
                    cur.push_str("'S");
                    i += 2;
                    while i < chars.len() && chars[i] != '\'' && chars[i] != '\n' {
                        i += 1;
                    }
                    if chars.get(i) == Some(&'\'') {
                        cur.push('\'');
                        i += 1;
                    }
                }
                '\'' if chars.get(i + 2) == Some(&'\'') => {
                    cur.push_str("'S'"); // plain char literal, incl. '"' and '{'
                    i += 3;
                }
                _ => {
                    cur.push(c);
                    i += 1;
                }
            },
            St::Block(depth) => {
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = St::Block(depth + 1);
                    i += 2;
                } else if c == '*' && chars.get(i + 1) == Some(&'/') {
                    st = if depth == 1 { St::Code } else { St::Block(depth - 1) };
                    i += 2;
                } else {
                    i += 1;
                }
            }
            St::Str => match c {
                '\\' => {
                    cur.push('S');
                    // an escaped newline continues the literal: keep the
                    // newline visible to the line splitter above
                    i += if chars.get(i + 1) == Some(&'\n') { 1 } else { 2 };
                }
                '"' => {
                    cur.push('"');
                    st = St::Code;
                    i += 1;
                }
                _ => {
                    cur.push('S');
                    i += 1;
                }
            },
            St::Raw(hashes) => {
                let closes = c == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'));
                if closes {
                    cur.push('"');
                    for _ in 0..hashes {
                        cur.push('#');
                    }
                    st = St::Code;
                    i += 1 + hashes;
                } else {
                    cur.push('S');
                    i += 1;
                }
            }
        }
    }
    if !text.is_empty() && !text.ends_with('\n') {
        lines.push(cur);
    }
    lines
}

/// Net `{`/`}` balance of a masked line.
fn brace_delta(stripped: &str) -> i64 {
    stripped.chars().fold(0i64, |d, c| match c {
        '{' => d + 1,
        '}' => d - 1,
        _ => d,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_fires_every_rule_with_positions() {
        let violations = lint_bad_fixture();
        for rule in ["wall-clock", "ledger-mutation", "raw-thread", "unwrap", "stdout-print"] {
            assert!(
                violations.iter().any(|v| v.rule == rule),
                "fixture did not trip rule {rule}: {violations:?}"
            );
        }
        for v in &violations {
            assert!(v.line > 0);
            assert_eq!(v.file, "crates/core/src/badsource.rs");
            assert!(!v.excerpt.is_empty());
        }
    }

    #[test]
    fn comments_strings_and_test_mods_never_match() {
        let text = r#"
//! Doc mentioning Instant::now and .unwrap() is fine.
fn f() -> &'static str {
    // Instant::now in a comment
    /* block with std::thread::spawn
       spanning lines with println! */
    "a string with Instant::now and .unwrap() and println!"
}
#[cfg(test)]
mod tests {
    fn t() {
        let _ = Vec::<u32>::new().first().unwrap();
        println!("tests may print");
    }
}
"#;
        assert!(lint_file("crates/core/src/x.rs", text).is_empty());
    }

    #[test]
    fn multiline_raw_strings_do_not_desync_test_skipping() {
        // the closing `}"#;` of a raw string must not count as a brace —
        // a regression here re-lints the tail of every #[cfg(test)] mod
        // that embeds JSON fixtures (as crates/bench/src/jsonio.rs does)
        let text = r##"
fn shipping() -> usize { 1 }
#[cfg(test)]
mod tests {
    fn t() {
        let doc = r#"{
  "k": [ { "v": 1 } ]
}"#;
        let _ = doc.find('x').unwrap();
        println!("still inside the test mod");
    }
}
"##;
        assert!(lint_file("crates/core/src/x.rs", text).is_empty());
        // and a multi-line *regular* string behaves the same
        let text = "fn f() -> &'static str {\n    \"left {\nbrace\"\n}\n#[cfg(test)]\nmod t { fn g() { x.unwrap(); } }\n";
        assert!(lint_file("crates/core/src/x.rs", text).is_empty());
    }

    #[test]
    fn allow_marker_sanctions_a_line() {
        let text = "fn f() { let t0 = Instant::now(); } // audit:allow(wall-clock)\n";
        let (violations, allowed) = lint_text("crates/graph/src/x.rs", text);
        assert!(violations.is_empty());
        assert_eq!(allowed, 1);
        // the marker names a rule: a different rule still fires
        let text = "fn f() { x.unwrap() } // audit:allow(wall-clock)\n";
        let (violations, _) = lint_text("crates/graph/src/x.rs", text);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "unwrap");
    }

    #[test]
    fn scope_and_allowlists_are_respected() {
        let clock = "fn f() { let t = Instant::now(); }\n";
        assert!(lint_file("crates/metrics/src/timer.rs", clock).is_empty());
        assert_eq!(lint_file("crates/metrics/src/registry.rs", clock).len(), 1);
        let ledger = "fn f(c: &mut Clocks) { c.latency += 1; }\n";
        assert!(lint_file("crates/simnet/src/comm.rs", ledger).is_empty());
        assert_eq!(lint_file("crates/simnet/src/endpoint.rs", ledger).len(), 1);
        assert_eq!(lint_file("crates/core/src/sparse2d.rs", ledger).len(), 1);
        let thread = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(lint_file("crates/core/src/fw2d.rs", thread).len(), 1);
        assert!(lint_file("crates/par/src/lib.rs", thread).is_empty());
    }

    #[test]
    fn unsafe_needs_a_safety_comment() {
        // bare unsafe: fires in any crate
        let bare = "fn f(p: *mut u32) { unsafe { *p = 1 } }\n";
        let hits = lint_file("crates/graph/src/x.rs", bare);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "unsafe-safety");
        // same-line justification passes
        let inline = "fn f(p: *mut u32) { unsafe { *p = 1 } } // SAFETY: p is exclusive\n";
        assert!(lint_file("crates/graph/src/x.rs", inline).is_empty());
        // a comment block directly above passes — including through
        // further attributes, the unsafe-impl shape
        let above = "// SAFETY: no shared mutation; counter hands out unique indices\n\
                     #[allow(dead_code)]\n\
                     unsafe impl Sync for Slot {}\n";
        assert!(lint_file("crates/par/src/x.rs", above).is_empty());
        // a non-comment line breaks the block: the justification must be
        // *directly* above
        let detached = "// SAFETY: stale justification\n\
                        fn g() {}\n\
                        fn f(p: *mut u32) { unsafe { *p = 1 } }\n";
        assert_eq!(lint_file("crates/graph/src/x.rs", detached).len(), 1);
        // the allow marker sanctions a line like any other rule
        let allowed = "fn f(p: *mut u32) { unsafe { *p = 1 } } // audit:allow(unsafe-safety)\n";
        let (violations, allowed_count) = lint_text("crates/graph/src/x.rs", allowed);
        assert!(violations.is_empty());
        assert_eq!(allowed_count, 1);
        // word boundary: identifiers and strings never match
        let ident = "fn f() { let unsafe_count = 0; let _ = \"unsafe\"; let _ = unsafe_count; }\n";
        assert!(lint_file("crates/graph/src/x.rs", ident).is_empty());
    }

    #[test]
    fn raw_sync_fires_only_in_the_model_checked_files_outside_the_shim() {
        let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
        let import = "use std::sync::mpsc::channel;\n";
        // the shared endpoint, the epoch runner and its pool, the simulator
        // machine, the supervisor, and every file of the native machine's
        // crate
        for file in [
            "crates/simnet/src/endpoint.rs",
            "crates/simnet/src/pool.rs",
            "crates/simnet/src/comm.rs",
            "crates/simnet/src/recovery.rs",
            "crates/transport/src/native.rs",
            "crates/transport/src/lib.rs",
        ] {
            for text in [spawn, import] {
                let hits = lint_file(file, text);
                assert_eq!(hits.len(), 1, "{file}: {text}");
                assert_eq!(hits[0].rule, "raw-sync");
            }
        }
        // the shim itself is the sanctioned gateway
        assert!(lint_file("crates/simnet/src/sync.rs", spawn).is_empty());
        assert!(lint_file("crates/simnet/src/sync.rs", import).is_empty());
        // the rest of simnet keeps its documented std-mutex exemption, and
        // other crates are out of scope (par has its own local shim)
        for file in [
            "crates/simnet/src/snapshot.rs",
            "crates/simnet/src/script.rs",
            "crates/simnet/src/sched.rs",
            "crates/par/src/lib.rs",
        ] {
            assert!(lint_file(file, import).is_empty(), "{file}");
        }
    }

    #[test]
    fn compound_test_gates_skip_their_modules() {
        // the loom-aware gate `#[cfg(all(test, not(loom)))]` hides its
        // module exactly like `#[cfg(test)]` does
        let text = "fn shipping() -> usize { 1 }\n\
                    #[cfg(all(test, not(loom)))]\n\
                    mod tests {\n\
                        fn t() { std::thread::spawn(|| {}).join().unwrap(); }\n\
                    }\n";
        assert!(lint_file("crates/transport/src/native.rs", text).is_empty());
        // but `#[cfg(not(test))]` gates shipping code and must NOT skip
        let text = "#[cfg(not(test))]\nmod real {\n    fn f() { x.unwrap(); }\n}\n";
        assert_eq!(lint_file("crates/graph/src/x.rs", text).len(), 1);
    }

    #[test]
    fn bad_sync_fixture_fires_both_concurrency_rules() {
        let violations = lint_bad_sync_fixture();
        for rule in ["unsafe-safety", "raw-sync"] {
            assert!(
                violations.iter().any(|v| v.rule == rule),
                "fixture did not trip rule {rule}: {violations:?}"
            );
        }
        for v in &violations {
            assert_eq!(v.file, "crates/transport/src/badsync.rs");
            assert!(v.line > 0);
        }
    }

    #[test]
    fn short_expect_messages_fire_and_long_ones_pass() {
        let short = "fn f() { x.expect(\"oops\"); }\n";
        let hits = lint_file("crates/core/src/x.rs", short);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("4 char(s)"));
        let long = "fn f() { x.expect(\"layout guarantees a block per rank\"); }\n";
        assert!(lint_file("crates/core/src/x.rs", long).is_empty());
        // non-literal argument: skipped
        let dynamic = "fn f() { x.expect(msg); }\n";
        assert!(lint_file("crates/core/src/x.rs", dynamic).is_empty());
    }
}
