//! The committed tables under `results/`: one measured point reads one
//! number wherever it appears.

use std::path::Path;

/// The cell of the committed TSV `path` in the row whose first cell is `key`
/// and the column headed `column`.
fn cell(path: &str, key: &str, column: &str) -> String {
    let file = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path);
    let text = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut lines = text
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| line.split('\t').collect::<Vec<_>>());
    let header = lines.next().unwrap_or_else(|| panic!("{path}: no header"));
    let at = header.iter().position(|h| *h == column);
    let at = at.unwrap_or_else(|| panic!("{path}: no column {column}"));
    let row = lines.find(|row| row[0] == key);
    row.unwrap_or_else(|| panic!("{path}: no row {key}"))[at].to_owned()
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
