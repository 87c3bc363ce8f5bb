//! The `xlsm-bench` binary's argument handling; no experiment is run.

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
