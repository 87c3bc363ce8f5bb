//! The committed tables under `results/`: one measured point reads one
//! number wherever it appears.

use std::path::Path;

/// The committed TSV `path`: its header and its rows, comment lines skipped.
fn table(path: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let file = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path);
    let text = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut lines = text
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| line.split('\t').map(str::to_owned).collect::<Vec<_>>());
    let header = lines.next().unwrap_or_else(|| panic!("{path}: no header"));
    (header, lines.collect())
}

/// Where the column headed `column` sits in `header`.
fn at(path: &str, header: &[String], column: &str) -> usize {
    let at = header.iter().position(|h| h == column);
    at.unwrap_or_else(|| panic!("{path}: no column {column}"))
}

/// The cell of the committed TSV `path` in the row whose first cell is `key`
/// and the column headed `column`.
fn cell(path: &str, key: &str, column: &str) -> String {
    let (header, rows) = table(path);
    let at = at(path, &header, column);
    let row = rows.into_iter().find(|row| row[0] == key);
    row.unwrap_or_else(|| panic!("{path}: no row {key}"))[at].clone()
}

/// (device, 4 threads, 1:1, uniform keys) is a point of three tables: the
/// 50 % row of Fig. 3, the 4-thread row of Fig. 13 and the uniform column
/// of `ext_skew`. Each point runs on its own freshly filled testbed, so the
/// three read the same kop/s, at both sizes.
#[test]
fn a_point_shared_by_three_tables_reads_one_number() {
    for dir in ["results", "results/quick"] {
        for device in ["sata-flash", "pcie-flash", "3d-xpoint"] {
            let reads = [
                cell(&format!("{dir}/fig03.tsv"), "50", device),
                cell(&format!("{dir}/fig13.tsv"), "4", device),
                cell(&format!("{dir}/ext_skew.tsv"), device, "uniform"),
            ];
            assert!(
                reads.iter().all(|r| *r == reads[0]),
                "{dir} {device}: fig03 / fig13 / ext_skew read {reads:?}"
            );
        }
    }
}

/// A probe's "vs baseline" column: its table, the columns that key one
/// sweep, the (column, cell) that marks the sweep's baseline row, the ratio
/// column, the column it divides, and whether the baseline is the numerator
/// (a speedup of a latency) rather than the denominator.
type RatioColumn = (
    &'static str,
    &'static [&'static str],
    (&'static str, &'static str),
    &'static str,
    &'static str,
    bool,
);

#[rustfmt::skip] // one column per line
const RATIO_COLUMNS: [RatioColumn; 8] = [
    ("parallelism_compaction_drain", &["device"], ("max_subcompactions", "1"), "speedup_vs_serial", "mb_per_s", false),
    ("writepath_put_latency", &["device", "writers"], ("mode", "serial"), "p99_speedup_vs_serial", "put_p99_us", true),
    ("readpath_point_miss", &["device"], ("filters", "none"), "speedup_vs_none", "miss_kops", false),
    ("readpath_compression", &["device"], ("codec", "none"), "size_ratio", "sst_mb", false),
    ("stability", &["device"], ("policy", "greedy"), "kops_vs_greedy", "kops", false),
    ("stability", &["device"], ("policy", "greedy"), "ep_p99_vs_greedy", "ep_p99_ms", false),
    ("stability", &["device"], ("policy", "greedy"), "cv_vs_greedy", "cv", false),
    ("space", &["device"], ("rate", "inline"), "get_p99_vs_inline", "get_p99_us", false),
];

/// Every probe ratio column reads `1.000` on its baseline row, and on every
/// other row the ratio of its two cells, to within the cells' rounding
/// (three decimals each): the column is computed from the points it names,
/// after they ran, and from nothing else.
#[test]
fn every_probe_ratio_column_reads_its_two_cells() {
    const HALF: f64 = 0.0005; // half a unit in the last printed place
    for dir in ["results", "results/quick"] {
        for (name, keys, (marker, baseline), column, value, inverted) in RATIO_COLUMNS {
            let path = format!("{dir}/{name}.tsv");
            let (header, rows) = table(&path);
            let [marker, column, value] = [marker, column, value].map(|c| at(&path, &header, c));
            let keys: Vec<usize> = keys.iter().map(|k| at(&path, &header, k)).collect();
            let key = |row: &[String]| keys.iter().map(|&k| row[k].clone()).collect::<Vec<_>>();
            let num = |row: &[String]| row[value].parse::<f64>().unwrap();
            for row in &rows {
                let what = format!("{path} {:?} {}", key(row), header[column]);
                if row[marker] == baseline {
                    assert_eq!(row[column], "1.000", "{what}: the baseline row");
                    continue;
                }
                let base = rows
                    .iter()
                    .find(|b| key(b) == key(row) && b[marker] == baseline);
                let base = num(base.unwrap_or_else(|| panic!("{what}: no baseline row")));
                let (n, d) = if inverted {
                    (base, num(row))
                } else {
                    (num(row), base)
                };
                let read: f64 = row[column].parse().unwrap();
                // A denominator that rounds to 0 bounds nothing from above.
                let (lo, hi) = if d > HALF {
                    ((n - HALF) / (d + HALF), (n + HALF) / (d - HALF))
                } else {
                    (0.0, f64::INFINITY)
                };
                assert!(
                    (lo - HALF..=hi + HALF).contains(&read),
                    "{what}: reads {read}, its cells give {n} / {d}"
                );
            }
        }
    }
}
