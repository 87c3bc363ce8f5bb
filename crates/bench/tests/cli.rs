//! The `xlsm-bench` binary's argument handling and where its output goes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn xlsm_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xlsm-bench"))
        .args(args)
        .output()
        .expect("run xlsm-bench")
}

/// One line per registry entry: the names that select it.
#[test]
fn list_prints_the_registry() {
    let out = xlsm_bench(&["list"]);
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).unwrap();
    let entries: Vec<String> = xlsm_bench::EXPERIMENTS
        .iter()
        .map(|(names, _)| names.join(" "))
        .collect();
    assert_eq!(listed.lines().collect::<Vec<_>>(), entries);
}

#[test]
fn an_unknown_name_exits_2_listing_the_valid_ones() {
    for args in [&["fig03", "fig02"][..], &[]] {
        let out = xlsm_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "nothing may run: {args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        for name in xlsm_bench::names() {
            assert!(err.contains(name), "{name} missing from:\n{err}");
        }
    }
}

#[test]
fn a_probe_number_that_does_not_parse_exits_2_with_the_usage() {
    for args in [
        &["probe", "xpoint", "9O", "4"][..],
        &["probe", "xpoint", "90", "four"],
        &["probe", "xpoint", "90", "4", "1s"],
    ] {
        let out = xlsm_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "nothing may run: {args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("usage: xlsm-bench"), "{args:?}:\n{err}");
    }
}

/// Every file under `dir`, as a path relative to it.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(
                files_under(&path)
                    .into_iter()
                    .map(|f| path.strip_prefix(dir).unwrap().join(f)),
            );
        } else {
            files.push(path.strip_prefix(dir).unwrap().to_owned());
        }
    }
    files
}

/// Runs `xlsm-bench --quick <name>` in an empty directory and returns every
/// file it wrote, sorted.
fn quick_run_writes(name: &str) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-quick-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_xlsm-bench"))
        .args(["--quick", name])
        .current_dir(&dir)
        .output()
        .expect("run xlsm-bench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut files = files_under(&dir);
    files.sort();
    std::fs::remove_dir_all(&dir).unwrap();
    files
}

#[test]
fn a_quick_run_writes_only_under_results_quick() {
    assert_eq!(
        quick_run_writes("stalls"),
        ["stall_breakdown.tsv", "stall_timeline.tsv"].map(|f| Path::new("results/quick").join(f))
    );
}

/// A probe is an experiment like a figure: its tables, and nothing else.
#[test]
fn a_probe_writes_only_its_tables() {
    assert_eq!(
        quick_run_writes("readpath"),
        ["readpath_compression.tsv", "readpath_point_miss.tsv"]
            .map(|f| Path::new("results/quick").join(f))
    );
}
