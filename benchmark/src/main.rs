//! `xlsm-benchmark`: the repo's benchmark. `benchmark/run.sh` builds and
//! calls it; `benchmark/README.md` says what it measures and why.

mod json;
mod loadgen;
mod measure;
mod micro;
mod report;
mod run;
mod spec;
mod stack;
mod stats;
mod trace;

use std::path::PathBuf;

const USAGE: &str = "\
usage: xlsm-benchmark <command> [--flag value]...
  run       --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--tag TAG]
            one run; prints every metric, then the result as one JSON line
  suite     --out DIR --bounds BENCHMARK.json [--reps 3] [--seed N] [--seconds S]
            [--trace 0|1] [--twice 0|1]
            every workload, each repetition a fresh process; writes DIR/<workload>.json
  diff      --base DIR --new DIR --bounds BENCHMARK.json
            one row per workload and end-to-end metric, with a verdict
  calibrate --out DIR --bounds BENCHMARK.json [--seeds 10] [--seed N] [--seconds S]
            measures the spreads over seeds and writes the bounds
  glossary  the metric tables as markdown
--scale F shrinks dataset and window for smoke tests; its numbers compare with nothing.";

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Flags {
        if !args.len().is_multiple_of(2) || args.iter().step_by(2).any(|f| !f.starts_with("--")) {
            fail(USAGE);
        }
        Flags(
            args.chunks(2)
                .map(|c| (c[0][2..].to_owned(), c[1].clone()))
                .collect(),
        )
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.0.iter().rev().find(|(k, _)| k == name) {
            None => default,
            Some((_, v)) => v
                .parse()
                .unwrap_or_else(|_| fail(&format!("--{name} {v:?} is not valid"))),
        }
    }

    fn path(&self, name: &str) -> PathBuf {
        let v: String = self.get(name, String::new());
        if v.is_empty() {
            fail(&format!("--{name} is required\n{USAGE}"));
        }
        PathBuf::from(v)
    }

    fn suite(&self) -> report::SuiteArgs {
        report::SuiteArgs {
            out: self.path("out"),
            reps: self.get("reps", 3),
            seed: self.get("seed", DEFAULT_SEED),
            seconds: self.get("seconds", spec::NOMINAL_SECONDS),
            scale: self.get("scale", 1.0),
            trace: self.get::<u8>("trace", 0) != 0,
            bounds: self.path("bounds"),
        }
    }
}

const DEFAULT_SEED: u64 = 1;

fn glossary() {
    for (title, defs) in [
        ("End-to-end", spec::END_TO_END),
        ("Per-layer", spec::PER_LAYER),
    ] {
        println!("### {title}\n");
        println!("| name | unit | clock | better | what it is | should move |");
        println!("|---|---|---|---|---|---|");
        for d in defs {
            println!(
                "| `{}` | {} | {} | {} | {} | {} |",
                d.name,
                d.unit,
                d.clock.label(),
                d.better.label(),
                d.what,
                d.moves
            );
        }
        println!();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        fail(USAGE)
    };
    let flags = Flags::parse(rest);
    let outcome = match cmd.as_str() {
        "run" => {
            let name: String = flags.get("workload", String::new());
            let Some(workload) = spec::workload(&name) else {
                fail(&format!("unknown workload {name:?}"))
            };
            let out: String = flags.get("out", String::new());
            let args = run::RunArgs {
                workload,
                seed: flags.get("seed", DEFAULT_SEED),
                seconds: flags.get("seconds", spec::NOMINAL_SECONDS),
                trace: flags.get::<u8>("trace", 0) != 0,
                scale: flags.get("scale", 1.0),
                setups: flags.get("setups", 3),
                out: (!out.is_empty())
                    .then(|| (PathBuf::from(out), flags.get("tag", "run".to_owned()))),
            };
            run::run(&args).and_then(|result| {
                result.print();
                println!("{}", result.result_line().line());
                if result.correct() {
                    Ok(())
                } else {
                    Err(format!(
                        "{} ops of {} failed or a check did not hold",
                        result.failed, result.attempted
                    ))
                }
            })
        }
        "suite" if flags.get::<u8>("twice", 0) != 0 => report::twice(&flags.suite()),
        "suite" => report::suite(&flags.suite()),
        "diff" => report::diff(
            &flags.path("base"),
            &flags.path("new"),
            &flags.path("bounds"),
            false,
        ),
        "calibrate" => report::calibrate(
            &flags.suite(),
            flags.get("seeds", 10),
            flags.get("seconds", spec::NOMINAL_SECONDS as u64),
        ),
        "glossary" => {
            glossary();
            Ok(())
        }
        _ => fail(USAGE),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
