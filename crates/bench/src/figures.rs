//! Minimal SVG line charts for the measured scaling curves.
//!
//! The paper reports costs as formulas; our reproduction measures them, so
//! the harness can also *draw* them: `paper_report figures` renders the
//! Table 2 rows (latency/bandwidth/memory vs `p`, log-log) and the E7
//! operation-reduction curve into standalone `.svg` files.
//!
//! Deliberately dependency-free: fixed layout, log-log axes with decade
//! ticks, one polyline + markers per series, and a legend.

use apsp_simnet::CommMatrix;
use std::fmt::Write as _;

/// One plotted series.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Data points (must be positive on log axes).
    pub points: Vec<(f64, f64)>,
}

/// A log-log line chart.
#[derive(Clone, Debug)]
pub struct LineChart {
    /// Chart title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series to draw.
    pub series: Vec<Series>,
}

const WIDTH: f64 = 640.0;
const HEIGHT: f64 = 420.0;
const MARGIN_L: f64 = 70.0;
const MARGIN_R: f64 = 180.0;
const MARGIN_T: f64 = 48.0;
const MARGIN_B: f64 = 56.0;
const PALETTE: [&str; 6] = ["#3b6fb5", "#c4533f", "#3f8f5a", "#8455a8", "#ad7f2c", "#4d4d4d"];

impl LineChart {
    /// Renders the chart as a standalone SVG document.
    ///
    /// # Panics
    /// Panics when any point is non-positive (log axes) or no series has
    /// points.
    pub fn to_svg(&self) -> String {
        let pts: Vec<(f64, f64)> =
            self.series.iter().flat_map(|s| s.points.iter().copied()).collect();
        assert!(!pts.is_empty(), "nothing to plot");
        assert!(pts.iter().all(|&(x, y)| x > 0.0 && y > 0.0), "log-log chart needs positive data");
        let (x_lo, x_hi) = decade_bounds(pts.iter().map(|p| p.0));
        let (y_lo, y_hi) = decade_bounds(pts.iter().map(|p| p.1));
        let plot_w = WIDTH - MARGIN_L - MARGIN_R;
        let plot_h = HEIGHT - MARGIN_T - MARGIN_B;
        let x_of = |x: f64| MARGIN_L + plot_w * (x.log10() - x_lo) / (x_hi - x_lo);
        let y_of = |y: f64| MARGIN_T + plot_h * (1.0 - (y.log10() - y_lo) / (y_hi - y_lo));

        let mut s = String::new();
        let _ = writeln!(
            s,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">"#
        );
        let _ = writeln!(s, r#"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"#);
        let _ = writeln!(
            s,
            r#"<text x="{}" y="24" font-size="15" font-weight="bold">{}</text>"#,
            MARGIN_L,
            xml(&self.title)
        );

        // gridlines + decade ticks
        for d in (x_lo as i64)..=(x_hi as i64) {
            let x = x_of(10f64.powi(d as i32));
            let _ = writeln!(
                s,
                r##"<line x1="{x:.1}" y1="{MARGIN_T}" x2="{x:.1}" y2="{:.1}" stroke="#dddddd"/>"##,
                HEIGHT - MARGIN_B
            );
            let _ = writeln!(
                s,
                r#"<text x="{x:.1}" y="{:.1}" font-size="11" text-anchor="middle">1e{d}</text>"#,
                HEIGHT - MARGIN_B + 16.0
            );
        }
        for d in (y_lo as i64)..=(y_hi as i64) {
            let y = y_of(10f64.powi(d as i32));
            let _ = writeln!(
                s,
                r##"<line x1="{MARGIN_L}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#dddddd"/>"##,
                WIDTH - MARGIN_R
            );
            let _ = writeln!(
                s,
                r#"<text x="{:.1}" y="{:.1}" font-size="11" text-anchor="end">1e{d}</text>"#,
                MARGIN_L - 6.0,
                y + 4.0
            );
        }
        // axes
        let _ = writeln!(
            s,
            r##"<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w:.1}" height="{plot_h:.1}" fill="none" stroke="#444444"/>"##
        );
        let _ = writeln!(
            s,
            r#"<text x="{:.1}" y="{:.1}" font-size="12" text-anchor="middle">{}</text>"#,
            MARGIN_L + plot_w / 2.0,
            HEIGHT - 12.0,
            xml(&self.x_label)
        );
        let _ = writeln!(
            s,
            r#"<text x="16" y="{:.1}" font-size="12" text-anchor="middle" transform="rotate(-90 16 {:.1})">{}</text>"#,
            MARGIN_T + plot_h / 2.0,
            MARGIN_T + plot_h / 2.0,
            xml(&self.y_label)
        );

        // series
        for (idx, series) in self.series.iter().enumerate() {
            let color = PALETTE[idx % PALETTE.len()];
            let path: Vec<String> = series
                .points
                .iter()
                .map(|&(x, y)| format!("{:.1},{:.1}", x_of(x), y_of(y)))
                .collect();
            let dash = if idx >= PALETTE.len() { r#" stroke-dasharray="6 3""# } else { "" };
            let _ = writeln!(
                s,
                r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="2"{dash}/>"#,
                path.join(" ")
            );
            for &(x, y) in &series.points {
                let _ = writeln!(
                    s,
                    r#"<circle cx="{:.1}" cy="{:.1}" r="3.4" fill="{color}"/>"#,
                    x_of(x),
                    y_of(y)
                );
            }
            // legend entry
            let ly = MARGIN_T + 14.0 + idx as f64 * 20.0;
            let lx = WIDTH - MARGIN_R + 14.0;
            let _ = writeln!(
                s,
                r#"<line x1="{lx}" y1="{ly:.1}" x2="{:.1}" y2="{ly:.1}" stroke="{color}" stroke-width="2"/>"#,
                lx + 20.0
            );
            let _ = writeln!(
                s,
                r#"<text x="{:.1}" y="{:.1}" font-size="12">{}</text>"#,
                lx + 26.0,
                ly + 4.0,
                xml(&series.name)
            );
        }
        s.push_str("</svg>\n");
        s
    }
}

/// Rounds a positive data range outward to whole decades (log10).
fn decade_bounds(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in values {
        lo = lo.min(v.log10());
        hi = hi.max(v.log10());
    }
    let lo = lo.floor();
    let mut hi = hi.ceil();
    if hi <= lo {
        hi = lo + 1.0;
    }
    (lo, hi)
}

fn xml(text: &str) -> String {
    text.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// Renders the measured Table 2 scaling curves plus the lower bounds into
/// `dir` (created if needed). Returns the written paths.
pub fn write_figures(
    dir: impl AsRef<std::path::Path>,
    points: &[crate::experiments::SweepPoint],
) -> std::io::Result<Vec<std::path::PathBuf>> {
    use apsp_core::bounds;
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let ps: Vec<f64> = points.iter().map(|pt| pt.p as f64).collect();
    let series = |vals: Vec<f64>, name: &str| Series {
        name: name.to_string(),
        points: ps.iter().copied().zip(vals).collect(),
    };

    let latency = LineChart {
        title: "Critical-path latency vs machine size (Table 2, measured)".into(),
        x_label: "p (ranks)".into(),
        y_label: "messages".into(),
        series: vec![
            series(
                points.iter().map(|pt| pt.sparse.critical_latency() as f64).collect(),
                "2D-SPARSE-APSP",
            ),
            series(
                points.iter().map(|pt| pt.dense_fw.critical_latency() as f64).collect(),
                "dense FW-2D",
            ),
            series(points.iter().map(|pt| pt.dc.critical_latency() as f64).collect(), "2D-DC-APSP"),
            series(
                points.iter().map(|pt| bounds::lower_bound_latency(pt.p)).collect(),
                "LB: log^2 p",
            ),
        ],
    };
    let bandwidth = LineChart {
        title: "Critical-path bandwidth vs machine size (Table 2, measured)".into(),
        x_label: "p (ranks)".into(),
        y_label: "words".into(),
        series: vec![
            series(
                points.iter().map(|pt| pt.sparse.critical_bandwidth() as f64).collect(),
                "2D-SPARSE-APSP",
            ),
            series(
                points.iter().map(|pt| pt.dense_fw.critical_bandwidth() as f64).collect(),
                "dense FW-2D",
            ),
            series(
                points.iter().map(|pt| pt.dc.critical_bandwidth() as f64).collect(),
                "2D-DC-APSP",
            ),
            series(
                points.iter().map(|pt| bounds::lower_bound_bandwidth(pt.n, pt.p, pt.sep)).collect(),
                "LB: n^2/p + |S|^2",
            ),
        ],
    };
    let memory = LineChart {
        title: "Peak memory per rank vs machine size (Table 2, measured)".into(),
        x_label: "p (ranks)".into(),
        y_label: "words".into(),
        series: vec![
            series(
                points.iter().map(|pt| pt.sparse.max_peak_words() as f64).collect(),
                "2D-SPARSE-APSP",
            ),
            series(
                points.iter().map(|pt| pt.dense_fw.max_peak_words() as f64).collect(),
                "dense FW-2D",
            ),
            series(
                points.iter().map(|pt| bounds::sparse_memory(pt.n, pt.p, pt.sep)).collect(),
                "n^2/p + |S|^2",
            ),
        ],
    };

    let mut written = Vec::new();
    for (name, chart) in [
        ("table2_latency.svg", latency),
        ("table2_bandwidth.svg", bandwidth),
        ("table2_memory.svg", memory),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, chart.to_svg())?;
        written.push(path);
    }
    Ok(written)
}

/// Renders a rank-to-rank communication-volume heatmap (words sent per
/// ordered pair, log-shaded) — the classic HPC communication-matrix
/// figure, built from a profiled run's [`CommMatrix`].
pub fn comm_matrix_svg(m: &CommMatrix, title: &str) -> String {
    let p = m.p();
    let max_log = (0..p)
        .flat_map(|src| (0..p).map(move |dst| m.words(src, dst)))
        .map(|v| (v as f64 + 1.0).ln())
        .fold(0.0, f64::max)
        .max(1.0);
    let cell = (360.0 / p as f64).min(28.0);
    let (ox, oy) = (70.0, 48.0);
    let size = cell * p as f64;
    let w = ox + size + 40.0;
    let hgt = oy + size + 50.0;
    let mut s = String::new();
    let _ = writeln!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0}" height="{hgt:.0}" font-family="sans-serif">"#
    );
    let _ = writeln!(s, r#"<rect width="{w:.0}" height="{hgt:.0}" fill="white"/>"#);
    let _ = writeln!(
        s,
        r#"<text x="{ox}" y="24" font-size="14" font-weight="bold">{}</text>"#,
        xml(title)
    );
    for src in 0..p {
        for dst in 0..p {
            let v = m.words(src, dst);
            if v == 0 {
                continue;
            }
            let shade = (v as f64 + 1.0).ln() / max_log; // 0..1
            let tone = (235.0 - 190.0 * shade) as u32;
            let _ = writeln!(
                s,
                r#"<rect x="{:.1}" y="{:.1}" width="{cell:.1}" height="{cell:.1}" fill="rgb({tone},{tone},255)"/>"#,
                ox + dst as f64 * cell,
                oy + src as f64 * cell,
            );
        }
    }
    let _ = writeln!(
        s,
        r##"<rect x="{ox}" y="{oy}" width="{size:.1}" height="{size:.1}" fill="none" stroke="#444444"/>"##
    );
    let _ = writeln!(
        s,
        r#"<text x="{:.1}" y="{:.1}" font-size="12" text-anchor="middle">destination rank</text>"#,
        ox + size / 2.0,
        oy + size + 24.0
    );
    let _ = writeln!(
        s,
        r#"<text x="20" y="{:.1}" font-size="12" text-anchor="middle" transform="rotate(-90 20 {:.1})">source rank</text>"#,
        oy + size / 2.0,
        oy + size / 2.0
    );
    s.push_str("</svg>\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_chart() -> LineChart {
        LineChart {
            title: "demo <chart>".into(),
            x_label: "p".into(),
            y_label: "cost".into(),
            series: vec![
                Series {
                    name: "a&b".into(),
                    points: vec![(9.0, 12.0), (49.0, 27.0), (225.0, 46.0)],
                },
                Series {
                    name: "c".into(),
                    points: vec![(9.0, 120.0), (49.0, 420.0), (225.0, 1200.0)],
                },
            ],
        }
    }

    #[test]
    fn svg_renders_all_series_and_escapes_xml() {
        let svg = demo_chart().to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert_eq!(svg.matches("<circle").count(), 6);
        assert!(svg.contains("demo &lt;chart&gt;"));
        assert!(svg.contains("a&amp;b"));
    }

    #[test]
    fn decade_bounds_round_outward() {
        assert_eq!(decade_bounds([9.0, 225.0].into_iter()), (0.0, 3.0));
        assert_eq!(decade_bounds([10.0, 100.0].into_iter()), (1.0, 2.0));
        // degenerate single-decade input widens to one decade
        assert_eq!(decade_bounds([10.0].into_iter()), (1.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "positive data")]
    fn zero_points_rejected_on_log_axes() {
        let mut c = demo_chart();
        c.series[0].points[0].1 = 0.0;
        let _ = c.to_svg();
    }

    #[test]
    fn comm_matrix_renders_cells() {
        let mut m = CommMatrix::new(3);
        m.record(0, 1, 1, 100);
        m.record(1, 2, 1, 5);
        let svg = comm_matrix_svg(&m, "demo");
        assert!(svg.contains("<svg"));
        // two filled cells + the frame rect + background
        assert_eq!(svg.matches("<rect").count(), 4);
    }

    #[test]
    fn write_figures_produces_three_files() {
        let points = crate::experiments::table2_sweep(8, &[2]);
        let dir = std::env::temp_dir().join(format!("apsp-fig-{}", std::process::id()));
        let written = write_figures(&dir, &points).unwrap();
        assert_eq!(written.len(), 3);
        for p in written {
            let text = std::fs::read_to_string(p).unwrap();
            assert!(text.contains("<svg"));
        }
    }
}
