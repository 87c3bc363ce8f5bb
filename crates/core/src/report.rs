//! Plain-text tables and TSV emission for the figure harnesses.

use std::fmt;
use std::io::Write as _;
use std::path::Path;
use xlsm_engine::{StallEvent, StallTotals};

/// A simple column-aligned table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table from named rows: each cell carries its column's
    /// header, so a column is declared where its value is measured. The
    /// headers are the first row's names; every row names the same columns
    /// in the same order. A table with no rows has no columns either (its
    /// TSV is the title line and an empty header line); no committed table
    /// is empty.
    pub fn from_named_rows<'a>(
        title: &str,
        rows: impl IntoIterator<Item = Vec<(&'a str, String)>>,
    ) -> Table {
        let mut table = Table {
            title: title.to_owned(),
            ..Table::default()
        };
        for row in rows {
            let names = row.iter().map(|c| c.0);
            if table.rows.is_empty() {
                table.headers = names.map(str::to_owned).collect();
            } else {
                assert!(
                    names.eq(table.headers.iter().map(String::as_str)),
                    "{title}: a row names other columns"
                );
            }
            table.rows.push(row.into_iter().map(|c| c.1).collect());
        }
        table
    }

    /// Writes the table as TSV (with a `#` title line) to `path`, creating
    /// parent directories.
    ///
    /// # Errors
    ///
    /// I/O errors from the host filesystem.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "# {}", self.title)?;
        writeln!(f, "{}", self.headers.join("\t"))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join("\t"))?;
        }
        Ok(())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "\n== {} ==", self.title)?;
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// Formats a float with the given precision (helper for figure rows).
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Builds the per-mechanism write-time attribution table from the engine's
/// stall-accounting totals: one row per component (queue wait, WAL append,
/// pipeline wait, memtable insert, delay pacing, stop wait, setup), each with its
/// total time and
/// share of observed end-to-end write latency, plus the unattributed
/// remainder and the coverage summary the reconciliation tests assert on.
pub fn stall_breakdown_table(title: &str, t: &StallTotals) -> Table {
    let total = t.total_write_ns;
    let pct = |ns: u64| {
        if total == 0 {
            0.0
        } else {
            ns as f64 * 100.0 / total as f64
        }
    };
    let row = |component: &str, total_ms: String, pct_of_write_time: String| {
        vec![
            ("component", component.to_owned()),
            ("total_ms", total_ms),
            ("pct_of_write_time", pct_of_write_time),
        ]
    };
    let component = |(name, ns): (&str, u64)| row(name, f(ms(ns), 3), f(pct(ns), 1));
    let unattributed = total.saturating_sub(t.accounted_ns());
    let components = [
        ("queue-wait", t.queue_wait_ns),
        ("wal-append", t.wal_append_ns),
        ("pipeline-wait", t.pipeline_wait_ns),
        ("memtable-insert", t.memtable_insert_ns),
        ("delay-sleep", t.delay_sleep_ns),
        ("stop-wait", t.stop_wait_ns),
        ("setup", t.setup_ns),
        ("unattributed", unattributed),
    ];
    let rows = components.into_iter().map(component).chain([
        row("total-observed", f(ms(total), 3), f(100.0, 1)),
        row(
            "ops",
            t.ops.to_string(),
            format!("coverage={:.3}", t.coverage()),
        ),
    ]);
    Table::from_named_rows(title, rows)
}

/// Builds the Fig. 6/7-style stall timeline from the controller-transition
/// event log: one row per transition with the virtual time, the level moved
/// to (and from), the trigger cause, the time spent at the previous level,
/// and the LSM shape (L0 files, memtables, adaptive rate) at the moment of
/// the transition.
pub fn stall_timeline_table(title: &str, events: &[StallEvent]) -> Table {
    let rows = events.iter().map(|ev| {
        vec![
            ("t_s", f(ev.at as f64 / 1e9, 3)),
            ("level", ev.level.name().into()),
            ("prev_level", ev.prev_level.name().into()),
            ("cause", ev.cause.to_string()),
            ("prev_level_ms", f(ms(ev.duration), 3)),
            ("l0_files", ev.l0_files.to_string()),
            ("memtables", ev.memtables.to_string()),
            ("rate_mb_s", f(ev.rate as f64 / (1 << 20) as f64, 2)),
        ]
    });
    Table::from_named_rows(title, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let point =
            |device: &str, kops: f64| vec![("device", device.to_owned()), ("kops", f(kops, 1))];
        let t = Table::from_named_rows(
            "Fig X",
            [point("sata-flash", 26.0), point("3d-xpoint", 408.12)],
        );
        let s = t.to_string();
        assert!(s.contains("Fig X"));
        assert!(s.contains("sata-flash"));
        assert!(s.contains("408.1"));
    }

    #[test]
    fn stall_breakdown_rows_attribute_write_time() {
        let t = StallTotals {
            ops: 4,
            total_write_ns: 1_000_000,
            queue_wait_ns: 400_000,
            wal_append_ns: 60_000,
            pipeline_wait_ns: 40_000,
            memtable_insert_ns: 100_000,
            delay_sleep_ns: 200_000,
            stop_wait_ns: 100_000,
            setup_ns: 50_000,
            events_pushed: 0,
            events_dropped: 0,
        };
        let table = stall_breakdown_table("breakdown", &t);
        // 7 components + unattributed + total + ops summary.
        assert_eq!(table.rows.len(), 10);
        let row = |name: &str| {
            table
                .rows
                .iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("missing row {name}"))
                .clone()
        };
        assert_eq!(row("queue-wait")[2], "40.0");
        assert_eq!(row("delay-sleep")[2], "20.0");
        assert_eq!(row("unattributed")[1], "0.050"); // 50 µs unexplained
        assert_eq!(row("ops")[1], "4");
        assert!(row("ops")[2].starts_with("coverage=0.9"));
    }

    #[test]
    fn stall_breakdown_handles_empty_totals() {
        let table = stall_breakdown_table("empty", &StallTotals::default());
        assert!(table.rows.iter().all(|r| r[2] != "NaN"));
    }

    #[test]
    fn stall_timeline_rows_follow_events() {
        use xlsm_engine::controller::StallLevel;
        use xlsm_engine::StallCause;
        let events = vec![
            StallEvent {
                at: 1_500_000_000,
                cause: StallCause::L0Slowdown,
                level: StallLevel::Delay,
                prev_level: StallLevel::Clear,
                duration: 250_000_000,
                l0_files: 21,
                memtables: 1,
                rate: 16 << 20,
            },
            StallEvent {
                at: 2_000_000_000,
                cause: StallCause::Cleared,
                level: StallLevel::Clear,
                prev_level: StallLevel::Delay,
                duration: 500_000_000,
                l0_files: 3,
                memtables: 1,
                rate: 16 << 20,
            },
        ];
        let table = stall_timeline_table("timeline", &events);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(
            table.rows[0],
            vec![
                "1.500",
                "delay",
                "clear",
                "l0-slowdown",
                "250.000",
                "21",
                "1",
                "16.00"
            ]
        );
        assert_eq!(table.rows[1][3], "cleared");
    }

    #[test]
    fn named_rows_give_the_headers_and_the_cells() {
        let point =
            |device: &str, kops: f64| vec![("device", device.to_owned()), ("kops", f(kops, 3))];
        let t = Table::from_named_rows(
            "probe",
            vec![point("sata-flash", 14.28), point("3d-xpoint", 1.0)],
        );
        assert_eq!(t.headers, ["device", "kops"]);
        assert_eq!(t.rows, [["sata-flash", "14.280"], ["3d-xpoint", "1.000"]]);
        assert!(Table::from_named_rows("empty", vec![]).headers.is_empty());
    }

    /// Writes `t` as TSV to a scratch file named `name` and reads it back.
    fn tsv(t: &Table, name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("xlsm-report-{}-{name}", std::process::id()));
        let path = dir.join(name);
        t.write_tsv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(dir);
        content
    }

    #[test]
    fn tsv_roundtrip() {
        let t = Table::from_named_rows(
            "Fig Y",
            [vec![("a", "1".to_owned()), ("b", "2".to_owned())]],
        );
        assert_eq!(tsv(&t, "fig_y.tsv"), "# Fig Y\na\tb\n1\t2\n");
    }

    /// No transition, no rows, and so no columns: the title line and an
    /// empty header line.
    #[test]
    fn an_empty_stall_timeline_is_its_title_and_an_empty_header_line() {
        let table = stall_timeline_table("timeline", &[]);
        assert!(table.headers.is_empty() && table.rows.is_empty());
        assert_eq!(tsv(&table, "empty_timeline.tsv"), "# timeline\n\n");
    }
}
