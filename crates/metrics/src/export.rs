//! Exporters: Prometheus text exposition, JSONL, and a human summary —
//! plus a small exposition parser used by the round-trip tests and the
//! CLI's self-checks.

use crate::histogram::HistogramSnapshot;
use crate::registry::{SampleValue, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Renders a snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` / `# TYPE` headers, histograms as cumulative
/// `_bucket{le=...}` series plus `_sum` / `_count`.
pub fn prometheus_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    for fam in &snap.families {
        let _ = writeln!(out, "# HELP {} {}", fam.name, fam.help);
        let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind.as_str());
        for s in &fam.samples {
            match &s.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {v}", fam.name, label_block(&s.labels, None));
                }
                SampleValue::Histogram(h) => {
                    for (ub, cum) in h.cumulative() {
                        let le = ub.to_string();
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cum}",
                            fam.name,
                            label_block(&s.labels, Some(("le", &le)))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        fam.name,
                        label_block(&s.labels, Some(("le", "+Inf"))),
                        h.count
                    );
                    let _ =
                        writeln!(out, "{}_sum{} {}", fam.name, label_block(&s.labels, None), h.sum);
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        fam.name,
                        label_block(&s.labels, None),
                        h.count
                    );
                }
            }
        }
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn labels_json(labels: &[(String, String)]) -> String {
    let pairs: Vec<String> =
        labels.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
    format!("{{{}}}", pairs.join(","))
}

/// Renders a snapshot as JSON Lines: one object per series, with the
/// family name, kind, labels, and the value (histograms carry
/// `count`/`sum`/cumulative `buckets`).
pub fn jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    for fam in &snap.families {
        for s in &fam.samples {
            let head = format!(
                "{{\"name\":{},\"kind\":{},\"labels\":{}",
                json_str(&fam.name),
                json_str(fam.kind.as_str()),
                labels_json(&s.labels)
            );
            match &s.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(out, "{head},\"value\":{v}}}");
                }
                SampleValue::Histogram(h) => {
                    let buckets: Vec<String> = h
                        .cumulative()
                        .iter()
                        .map(|(ub, cum)| format!("{{\"le\":{ub},\"cum\":{cum}}}"))
                        .collect();
                    let _ = writeln!(
                        out,
                        "{head},\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
                        h.count,
                        h.sum,
                        buckets.join(",")
                    );
                }
            }
        }
    }
    out
}

fn fmt_labels_human(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{{{}}}", pairs.join(","))
    }
}

fn histogram_summary(h: &HistogramSnapshot) -> String {
    if h.count == 0 {
        return "count 0".to_string();
    }
    let mean = h.sum / h.count;
    format!("count {} / mean {} / sum {}", h.count, mean, h.sum)
}

/// Renders a snapshot as an aligned human-readable table (one row per
/// series; histograms show count/mean/sum). Phase wall timers render
/// their mean in milliseconds alongside the raw nanoseconds.
pub fn summary_table(snap: &Snapshot) -> String {
    let mut rows: Vec<(String, String)> = Vec::new();
    for fam in &snap.families {
        for s in &fam.samples {
            let name = format!("{}{}", fam.name, fmt_labels_human(&s.labels));
            let value = match &s.value {
                SampleValue::Counter(v) => v.to_string(),
                SampleValue::Histogram(h) => {
                    let mut v = histogram_summary(h);
                    if fam.name.ends_with("_ns") && h.count > 0 {
                        let _ = write!(v, " ({:.3} ms mean)", h.sum as f64 / h.count as f64 / 1e6);
                    }
                    v
                }
            };
            rows.push((name, value));
        }
    }
    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, value) in rows {
        let _ = writeln!(out, "{name:<width$}  {value}");
    }
    out
}

/// A parsed Prometheus text exposition: sample key (name + rendered
/// label block, exactly as exposed) → value.
pub type ParsedExposition = BTreeMap<String, f64>;

/// Parses the subset of the Prometheus text format that
/// [`prometheus_text`] emits (and any exposition made of simple
/// `name{labels} value` lines). Returns sample-key → value.
///
/// # Errors
/// A line that is neither a comment, blank, nor `key value` is reported
/// with its line number.
pub fn parse_prometheus(text: &str) -> Result<ParsedExposition, String> {
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // the value is the text after the last space *outside* a label
        // block (label values may contain escaped spaces, ours don't)
        let split = line.rfind(' ').ok_or_else(|| format!("line {}: no value", lineno + 1))?;
        let (key, value) = line.split_at(split);
        let value = value.trim();
        let value: f64 = if value == "+Inf" {
            f64::INFINITY
        } else {
            value.parse().map_err(|e| format!("line {}: bad value {value}: {e}", lineno + 1))?
        };
        if out.insert(key.trim().to_string(), value).is_some() {
            return Err(format!("line {}: duplicate sample {key}", lineno + 1));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn demo_registry() -> Registry {
        let r = Registry::new();
        r.counter("apsp_demo_events_total", "Demo events.").add(42);
        r.counter_with("apsp_demo_labeled_total", "Labeled.", &[("phase", "solve")]).add(7);
        let h = r.histogram_with("apsp_demo_wall_ns", "Wall.", &[("phase", "solve")]);
        h.record(3);
        h.record(900);
        r
    }

    #[test]
    fn prometheus_text_shape() {
        let text = prometheus_text(&demo_registry().snapshot());
        assert!(text.contains("# TYPE apsp_demo_events_total counter"));
        assert!(text.contains("apsp_demo_events_total 42"));
        assert!(text.contains("apsp_demo_labeled_total{phase=\"solve\"} 7"));
        assert!(text.contains("apsp_demo_wall_ns_bucket{phase=\"solve\",le=\"3\"} 1"));
        assert!(text.contains("apsp_demo_wall_ns_bucket{phase=\"solve\",le=\"1023\"} 2"));
        assert!(text.contains("apsp_demo_wall_ns_bucket{phase=\"solve\",le=\"+Inf\"} 2"));
        assert!(text.contains("apsp_demo_wall_ns_sum{phase=\"solve\"} 903"));
        assert!(text.contains("apsp_demo_wall_ns_count{phase=\"solve\"} 2"));
    }

    #[test]
    fn prometheus_roundtrip_parses_back_every_sample() {
        let snap = demo_registry().snapshot();
        let parsed = parse_prometheus(&prometheus_text(&snap)).expect("own exposition parses");
        assert_eq!(parsed["apsp_demo_events_total"], 42.0);
        assert_eq!(parsed["apsp_demo_labeled_total{phase=\"solve\"}"], 7.0);
        assert_eq!(parsed["apsp_demo_wall_ns_count{phase=\"solve\"}"], 2.0);
        assert_eq!(parsed["apsp_demo_wall_ns_sum{phase=\"solve\"}"], 903.0);
        // every cumulative bucket is bounded by the count, and +Inf equals it
        let count = parsed["apsp_demo_wall_ns_count{phase=\"solve\"}"];
        for (k, v) in parsed.iter().filter(|(k, _)| k.starts_with("apsp_demo_wall_ns_bucket")) {
            assert!(*v <= count, "{k} exceeds count");
        }
        assert_eq!(parsed["apsp_demo_wall_ns_bucket{phase=\"solve\",le=\"+Inf\"}"], count);
    }

    #[test]
    fn parse_rejects_garbage_and_duplicates() {
        assert!(parse_prometheus("no_value_here").is_err());
        assert!(parse_prometheus("x 1\nx 2").is_err());
        assert!(parse_prometheus("# just a comment\n\n").expect("comments ok").is_empty());
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let text = jsonl(&demo_registry().snapshot());
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "not an object: {line}");
            assert!(line.contains("\"name\":"), "missing name: {line}");
        }
        assert!(text.contains("\"value\":42"));
        assert!(text.contains("\"count\":2,\"sum\":903"));
        assert!(text.contains("\"labels\":{\"phase\":\"solve\"}"));
    }

    #[test]
    fn summary_table_lists_every_series() {
        let text = summary_table(&demo_registry().snapshot());
        assert!(text.contains("apsp_demo_events_total"));
        assert!(text.contains("apsp_demo_wall_ns{phase=solve}"));
        assert!(text.contains("count 2"));
        assert!(text.contains("ms mean"));
    }

    #[test]
    fn label_escaping_survives_roundtrip() {
        let r = Registry::new();
        r.counter_with("esc_total", "E.", &[("w", "a\"b\\c")]).inc();
        let text = prometheus_text(&r.snapshot());
        let parsed = parse_prometheus(&text).expect("parses");
        assert_eq!(parsed["esc_total{w=\"a\\\"b\\\\c\"}"], 1.0);
    }
}
