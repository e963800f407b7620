//! Every renderer of the regenerators: markdown tables of the model's rows
//! ([`figures`](crate::figures)) and of the paper's ([`paper`]), and CSV
//! and ASCII sweep series.

use crate::figures::{OcBaseRow, ParameterRow, SaturationRow, TrafficRow};
use crate::paper;
use ciflow::dataflow::Dataflow;
use ciflow::sweep::SweepSeries;

/// Renders a markdown table from a header and rows of cells.
pub fn markdown_table<R: AsRef<[String]>>(
    header: &[&str],
    rows: impl IntoIterator<Item = R>,
) -> String {
    let mut out = String::new();
    out.push('|');
    for h in header {
        out.push_str(&format!(" {h} |"));
    }
    out.push('\n');
    out.push('|');
    for _ in header {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for cell in row.as_ref() {
            out.push_str(&format!(" {cell} |"));
        }
        out.push('\n');
    }
    out
}

/// Renders the Table II analogue (DRAM traffic and arithmetic intensity).
///
/// The strategy columns are derived from the rows in first-seen order, so
/// custom registered strategies render alongside the paper's MP/DC/OC
/// instead of silently vanishing.
pub fn render_table2(rows: &[TrafficRow]) -> String {
    let (mut benchmarks, mut strategies) = (Vec::new(), Vec::new());
    for r in rows {
        if !benchmarks.contains(&r.benchmark) {
            benchmarks.push(r.benchmark);
        }
        if !strategies.contains(&r.dataflow.as_str()) {
            strategies.push(r.dataflow.as_str());
        }
    }
    let mut grouped: Vec<Vec<String>> = Vec::new();
    for bench in benchmarks {
        let mut cells = vec![bench.to_string()];
        for dataflow in &strategies {
            if let Some(r) = rows
                .iter()
                .find(|r| r.benchmark == bench && r.dataflow == *dataflow)
            {
                cells.push(format!("{:.0}", r.dram_mib()));
                cells.push(format!("{:.2}", r.arithmetic_intensity));
            } else {
                cells.push("-".into());
                cells.push("-".into());
            }
        }
        grouped.push(cells);
    }
    let mut header = vec!["Benchmark".to_string()];
    for s in &strategies {
        header.push(format!("{s} MiB"));
        header.push(format!("{s} AI"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    markdown_table(&header_refs, grouped)
}

/// Renders the paper's Table II (decimal MB and arithmetic intensity).
pub fn render_paper_table2(rows: &[paper::Table2Row]) -> String {
    let cells = rows.iter().map(|r| {
        let mut cells = vec![r.benchmark.to_string()];
        for traffic in Dataflow::all().map(|d| r.traffic(d)) {
            cells.push(traffic.dram_mb.to_string());
            cells.push(format!("{:.2}", traffic.ops_per_byte));
        }
        cells
    });
    markdown_table(
        &[
            "Benchmark",
            "MP MB",
            "MP AI",
            "DC MB",
            "DC AI",
            "OC MB",
            "OC AI",
        ],
        cells,
    )
}

/// Renders the Table III analogue (benchmark parameters).
pub fn render_table3(rows: &[ParameterRow]) -> String {
    let cells = rows.iter().map(|r| {
        vec![
            r.benchmark.to_string(),
            format!("2^{}", r.log_n),
            r.q_towers.to_string(),
            r.p_towers.to_string(),
            r.dnum.to_string(),
            r.alpha.to_string(),
            format!("{:.0} MiB", r.evk_mib),
            format!("{:.0} MiB", r.temp_mib),
        ]
    });
    markdown_table(
        &[
            "Benchmark",
            "N",
            "k_l",
            "k_p",
            "dnum",
            "alpha",
            "evk size",
            "temp data",
        ],
        cells,
    )
}

/// Renders the Table IV analogue (OCbase bandwidth and speedups).
pub fn render_table4(rows: &[OcBaseRow]) -> String {
    let cells = rows.iter().map(|r| {
        vec![
            r.benchmark.to_string(),
            format!("{:.1}", r.ocbase_gbps),
            format!("{:.2}x", r.saved_bandwidth),
            format!("{:.2}", r.oc_ms),
            format!("{:.2}", r.mp_ms),
            format!("{:.2}x", r.oc_speedup),
        ]
    });
    markdown_table(
        &[
            "Benchmark",
            "OCbase (GB/s)",
            "Saved BW",
            "OC (ms)",
            "MP (ms)",
            "OC speedup",
        ],
        cells,
    )
}

/// Renders the paper's Table IV.
pub fn render_paper_table4(rows: &[paper::Table4Row]) -> String {
    let cells = rows.iter().map(|r| {
        vec![
            r.benchmark.to_string(),
            r.ocbase_gbps.to_string(),
            format!("{}x", r.saved_bandwidth),
            format!("{:.2}x", r.oc_speedup),
        ]
    });
    markdown_table(
        &["Benchmark", "OCbase (GB/s)", "Saved BW", "OC speedup"],
        cells,
    )
}

/// Renders the Table V analogue (configurations matching ARK's saturation
/// point).
pub fn render_table5(rows: &[SaturationRow]) -> String {
    let cells = rows.iter().map(|r| {
        vec![
            r.label.to_string(),
            format!("{:.2}", r.bandwidth_gbps),
            format!("{:.2}x", r.modops),
            format!("{:.2}x", r.relative_bandwidth),
        ]
    });
    markdown_table(&["Dataflow", "BW (GB/s)", "MODOPS", "Rel. BW"], cells)
}

/// Renders the paper's Table V.
pub fn render_paper_table5(rows: &[paper::Table5Row]) -> String {
    let cells = rows.iter().map(|r| {
        vec![
            r.label.to_string(),
            r.bandwidth_gbps.to_string(),
            format!("{}x", r.modops),
        ]
    });
    markdown_table(&["Dataflow", "BW (GB/s)", "MODOPS"], cells)
}

/// Renders one or more sweep series as CSV: one bandwidth column followed by
/// one runtime column per series.
///
/// # Panics
///
/// Panics if the series do not share identical bandwidth points.
pub fn render_sweep_csv(series: &[SweepSeries]) -> String {
    assert!(!series.is_empty(), "need at least one series");
    let reference = &series[0].points;
    assert!(
        series.iter().all(|s| s.points.len() == reference.len()),
        "series must share bandwidth points"
    );
    let mut out = String::from("bandwidth_gbps");
    for s in series {
        out.push_str(&format!(
            ",{}_{}{}",
            s.benchmark,
            s.dataflow,
            if s.evk_streamed { "_streamed" } else { "" }
        ));
    }
    out.push('\n');
    for (i, p) in reference.iter().enumerate() {
        out.push_str(&format!("{}", p.bandwidth_gbps));
        for s in series {
            assert_eq!(
                s.points[i].bandwidth_gbps, p.bandwidth_gbps,
                "series must share bandwidth points"
            );
            out.push_str(&format!(",{:.4}", s.points[i].runtime_ms));
        }
        out.push('\n');
    }
    out
}

/// Renders a sweep as an ASCII chart (log-x bandwidth, linear-y runtime),
/// handy for eyeballing figure shapes in a terminal.
pub fn render_sweep_ascii(series: &[SweepSeries], width: usize, height: usize) -> String {
    if series.is_empty() || series[0].points.is_empty() {
        return String::from("(no data)\n");
    }
    let max_runtime = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.runtime_ms))
        .fold(0.0f64, f64::max);
    let mut grid = vec![vec![' '; width]; height];
    let n_points = series[0].points.len();
    for (si, s) in series.iter().enumerate() {
        let marker = char::from(b'A' + (si % 26) as u8);
        for (i, p) in s.points.iter().enumerate() {
            let x = if n_points > 1 {
                i * (width - 1) / (n_points - 1)
            } else {
                0
            };
            let y = ((p.runtime_ms / max_runtime) * (height - 1) as f64).round() as usize;
            let row = height - 1 - y.min(height - 1);
            grid[row][x] = marker;
        }
    }
    let mut out = String::new();
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    for (si, s) in series.iter().enumerate() {
        let marker = char::from(b'A' + (si % 26) as u8);
        out.push_str(&format!("{marker}: {} {}\n", s.benchmark, s.dataflow));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{table2_rows, table3_rows};
    use ciflow::api::Session;
    use ciflow::benchmark::HksBenchmark;
    use ciflow::sweep::SweepPoint;
    use rpu::EvkPolicy;

    #[test]
    fn markdown_table_shape() {
        let table = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("| a |"));
        assert!(lines[2].contains("| 1 |"));
    }

    #[test]
    fn table_renderers_produce_rows_for_all_benchmarks() {
        let t2 = render_table2(&table2_rows());
        let t3 = render_table3(&table3_rows());
        for b in HksBenchmark::all() {
            assert!(t2.contains(b.name), "table2 missing {}", b.name);
            assert!(t3.contains(b.name), "table3 missing {}", b.name);
        }
        assert!(t2.lines().next().unwrap().contains("MP MiB"));
    }

    #[test]
    fn table2_renders_custom_strategy_columns() {
        // Regression: the renderer used to hard-code ["MP", "DC", "OC"],
        // silently dropping rows from custom registered strategies.
        let mut rows = table2_rows();
        let mut custom = rows[0].clone();
        custom.dataflow = "ZZ".to_string();
        custom.dram_bytes = 123 * 1024 * 1024;
        rows.push(custom);
        let table = render_table2(&rows);
        let header = table.lines().next().unwrap().to_string();
        assert!(
            header.contains("ZZ MiB") && header.contains("ZZ AI"),
            "{header}"
        );
        let first_row = table.lines().nth(2).unwrap();
        assert!(first_row.contains("123"), "{first_row}");
        // Benchmarks without a ZZ row render placeholders, not nothing.
        assert!(table.lines().nth(3).unwrap().contains(" - "));
    }

    #[test]
    fn sweep_csv_has_header_and_rows() {
        let s = crate::figures::bandwidth_sweep(
            &Session::new(),
            HksBenchmark::ARK,
            Dataflow::OutputCentric,
            &[8.0, 16.0],
            EvkPolicy::OnChip,
            1.0,
        );
        let csv = render_sweep_csv(std::slice::from_ref(&s));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("bandwidth_gbps,ARK_OC"));
    }

    fn ark_oc_series(bandwidths: &[f64]) -> SweepSeries {
        SweepSeries {
            benchmark: "ARK",
            dataflow: "OC".to_string(),
            evk_streamed: false,
            modops: 1.0,
            points: bandwidths
                .iter()
                .map(|&bandwidth_gbps| SweepPoint {
                    bandwidth_gbps,
                    runtime_ms: 1.0,
                })
                .collect(),
        }
    }

    #[test]
    #[should_panic(expected = "series must share bandwidth points")]
    fn sweep_csv_rejects_a_longer_later_series() {
        let _ = render_sweep_csv(&[ark_oc_series(&[8.0]), ark_oc_series(&[8.0, 16.0])]);
    }

    #[test]
    #[should_panic(expected = "series must share bandwidth points")]
    fn sweep_csv_rejects_a_shorter_later_series() {
        let _ = render_sweep_csv(&[ark_oc_series(&[8.0, 16.0]), ark_oc_series(&[8.0])]);
    }

    #[test]
    fn ascii_chart_contains_markers() {
        let series = SweepSeries {
            benchmark: "ARK",
            dataflow: "OC".to_string(),
            evk_streamed: false,
            modops: 1.0,
            points: vec![
                SweepPoint {
                    bandwidth_gbps: 8.0,
                    runtime_ms: 10.0,
                },
                SweepPoint {
                    bandwidth_gbps: 64.0,
                    runtime_ms: 2.0,
                },
            ],
        };
        let chart = render_sweep_ascii(&[series], 20, 5);
        assert!(chart.contains('A'));
        assert!(chart.contains("A: ARK OC"));
    }

    #[test]
    fn renderers_accept_a_series_with_no_points() {
        // The renderers accept a series with no points without panicking.
        let series = ciflow::sweep::SweepSeries {
            benchmark: "ARK",
            dataflow: "OC".to_string(),
            evk_streamed: false,
            modops: 1.0,
            points: Vec::new(),
        };
        let csv = render_sweep_csv(std::slice::from_ref(&series));
        assert_eq!(csv.lines().count(), 1, "header only: {csv:?}");
        let ascii = render_sweep_ascii(&[series], 10, 4);
        assert!(ascii.contains("no data"));
    }
}
