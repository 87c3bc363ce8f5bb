//! The `xlsm-bench` binary's argument handling and where its output goes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn xlsm_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xlsm-bench"))
        .args(args)
        .output()
        .expect("run xlsm-bench")
}

#[test]
fn list_prints_the_registry_and_its_probes() {
    let out = xlsm_bench(&["list"]);
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).unwrap();
    let names: Vec<&str> = xlsm_bench::names().collect();
    assert_eq!(listed.lines().collect::<Vec<_>>(), names);

    let out = xlsm_bench(&["list", "--probes"]);
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        "parallelism\nwritepath\nreadpath\nstability\nspace\n"
    );
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

#[test]
fn a_quick_run_writes_only_under_results_quick() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-quick-stalls");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_xlsm-bench"))
        .args(["--quick", "stalls"])
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
    assert_eq!(
        files,
        ["stall_breakdown.tsv", "stall_timeline.tsv"].map(|f| Path::new("results/quick").join(f))
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
