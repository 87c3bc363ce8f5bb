//! Everything that looks at more than one run: `suite` (repetitions in
//! fresh processes, the traced run), `diff` and `--twice` (two suites),
//! `calibrate` (seeds -> bounds). Runs are read back from their run files.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{obj, tsv, Json};
use crate::spec::{self, Better, Clock, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{iqr_share, median};

/// How one invocation of `suite` runs.
#[derive(Clone, Debug)]
pub struct SuiteArgs {
    pub out: PathBuf,
    pub reps: u32,
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    pub trace: bool,
    /// `BENCHMARK.json`, for the bounds.
    pub bounds: PathBuf,
}

/// One run to make in a fresh process.
#[derive(Clone, Copy)]
struct Child<'a> {
    workload: &'a str,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
    setups: u32,
}

/// Runs it and reads its run file, `<dir>/<workload>.<tag>.json`, back.
fn child_run(child: &Child, dir: &Path, tag: &str) -> Result<Json, String> {
    let Child {
        workload,
        seed,
        seconds,
        scale,
        trace,
        setups,
    } = *child;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--scale", &scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--setups", &setups.to_string()])
        .arg("--out")
        .arg(dir)
        .args(["--tag", tag])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the run: {e}"))?;
    let path = dir.join(format!("{workload}.{tag}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{workload} {tag} left no run file ({e}); it exited with {}",
            output.status
        )
    })?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `section.name.value` of a run file or a suite summary.
fn value_of(doc: &Json, section: &str, name: &str) -> Option<f64> {
    doc.get(section)?.get(name)?.get("value")?.as_f64()
}

/// The value's source text, for comparing to the last digit.
fn text_of(doc: &Json, section: &str, name: &str) -> Option<String> {
    match doc.get(section)?.get(name)?.get("value")? {
        Json::Num(s) => Some(s.clone()),
        _ => None,
    }
}

fn is_correct(doc: &Json) -> bool {
    doc.get("correct").and_then(Json::as_bool) == Some(true)
}

/// Best of `values` for a metric: noise on a shared machine only ever
/// makes a host number worse.
fn best(values: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Higher => f64::max,
        Better::Lower => f64::min,
    };
    values.iter().copied().reduce(pick).unwrap_or(f64::NAN)
}

/// `(max - min) / best`: the relative spread across repetitions.
fn rel_range(values: &[f64], better: Better) -> f64 {
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let b = best(values, better);
    if values.len() < 2 || b == 0.0 {
        0.0
    } else {
        (hi - lo) / b.abs()
    }
}

/// Share by which `new` is worse than `base` (negative when better).
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// One workload's repetitions folded into a summary. Metrics that must
/// repeat are checked to be identical across `runs`; host metrics report
/// the best repetition and the spread.
///
/// # Errors
///
/// A repetition disagrees on a metric that must repeat to the digit.
fn summarise(workload: &str, runs: &[Json], bounds: &[f64]) -> Result<Json, String> {
    let fold =
        |section: &str, defs: &[MetricDef], bounds: Option<&[f64]>| -> Result<Json, String> {
            let mut out = Vec::new();
            for (i, d) in defs.iter().enumerate() {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| value_of(r, section, d.name))
                    .collect();
                if values.is_empty() {
                    continue;
                }
                let fields = if d.clock.repeats() {
                    let texts: Vec<_> = runs.iter().map(|r| text_of(r, section, d.name)).collect();
                    if texts.windows(2).any(|w| w[0] != w[1]) {
                        return Err(format!(
                            "{workload}: repetitions disagree on {} ({} clock): {texts:?}",
                            d.name,
                            d.clock.label()
                        ));
                    }
                    d.fields(values[0].into())
                } else {
                    let spread = rel_range(&values, d.better);
                    let mut fields = d.fields(best(&values, d.better).into());
                    fields.push(("spread".to_owned(), spread.into()));
                    fields.push(("reps".to_owned(), values.into()));
                    if let Some(b) = bounds {
                        fields.push(("resolved".to_owned(), (spread <= b[i]).into()));
                    }
                    fields
                };
                out.push((d.name.to_owned(), Json::Obj(fields)));
            }
            Ok(Json::Obj(out))
        };
    Ok(obj([
        ("workload", workload.into()),
        ("correct", runs.iter().all(is_correct).into()),
        ("reps", runs.len().into()),
        (
            "failed_frac",
            runs.iter()
                .filter_map(|r| r.get("failed_frac").and_then(Json::as_f64))
                .fold(0.0, f64::max)
                .into(),
        ),
        (
            "steady",
            runs[0].get("steady").cloned().unwrap_or(Json::Null),
        ),
        ("end_to_end", fold("end_to_end", END_TO_END, Some(bounds))?),
        ("per_layer", fold("per_layer", PER_LAYER, None)?),
    ]))
}

fn print_section(doc: &Json, section: &str) {
    for (name, m) in doc.get(section).map(Json::as_obj).unwrap_or_default() {
        let get = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("");
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let spread = m
            .get("spread")
            .and_then(Json::as_f64)
            .map_or(String::new(), |s| format!("  spread {:.1}%", s * 100.0));
        let unresolved = if m.get("resolved").and_then(Json::as_bool) == Some(false) {
            "  unresolved"
        } else {
            ""
        };
        println!(
            "{name:<44} {value:>16.4} {:<6} {}{spread}{unresolved}",
            get("unit"),
            get("clock")
        );
    }
}

/// Runs every workload `reps` times in fresh processes (and once more,
/// traced, with `--trace`), prints every metric and writes
/// `<out>/<workload>.json`.
///
/// # Errors
///
/// A run failed its checks, repetitions disagree on a metric that must
/// repeat, or the traced run's simulated metrics differ from the untraced.
pub fn suite(args: &SuiteArgs) -> Result<(), String> {
    let bounds = spec::read_bounds(&args.bounds)?;
    let runs_dir = args.out.join("runs");
    let mut problems = Vec::new();
    for w in WORKLOADS {
        let untraced = Child {
            workload: w.name,
            seed: args.seed,
            seconds: args.seconds,
            scale: args.scale,
            trace: false,
            // The repetitions stand in for the set-ups a single run would
            // repeat.
            setups: 1,
        };
        let runs = (1..=args.reps)
            .map(|rep| child_run(&untraced, &runs_dir, &format!("rep{rep}")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut summary = summarise(w.name, &runs, &bounds)?;
        println!(
            "== {} seed={} seconds={} reps={} ==",
            w.name, args.seed, args.seconds, args.reps
        );
        print_section(&summary, "end_to_end");
        println!(
            "{:<44} {:>16.6} ratio  exact",
            "failed_frac",
            summary
                .get("failed_frac")
                .and_then(Json::as_f64)
                .unwrap_or(1.0)
        );
        if !is_correct(&summary) {
            problems.push(format!(
                "{}: a repetition failed its checks (see its run file)",
                w.name
            ));
        }
        if args.trace {
            let traced = child_run(
                &Child {
                    trace: true,
                    ..untraced
                },
                &args.out,
                "traced",
            )?;
            // Tracing costs host time only: every simulated number of the
            // traced run must equal the untraced run's.
            for d in END_TO_END.iter().filter(|d| d.clock.repeats()) {
                let (a, b) = (
                    text_of(&runs[0], "end_to_end", d.name),
                    text_of(&traced, "end_to_end", d.name),
                );
                if a != b {
                    problems.push(format!(
                        "{}: traced {} = {b:?}, untraced {a:?}",
                        w.name, d.name
                    ));
                }
            }
            print_section(&traced, "per_layer");
            let speed =
                |doc: &Json| value_of(doc, "end_to_end", "host_ops_per_s").unwrap_or(f64::NAN);
            let drop = 1.0 - speed(&traced) / speed(&summary);
            println!(
                "{:<44} {:>16.4} frac   host  (traced vs best untraced run)",
                "trace overhead across runs", drop
            );
            if !is_correct(&traced) {
                problems.push(format!("{}: the traced run failed its checks", w.name));
            }
            if let Json::Obj(fields) = &mut summary {
                fields.push((
                    "traced_per_layer".to_owned(),
                    traced.get("per_layer").cloned().unwrap_or(Json::Null),
                ));
                fields.push(("trace_overhead_across_runs".to_owned(), drop.into()));
            }
        }
        if let Some(steady) = summary.get("steady").and_then(Json::as_bool) {
            println!("steady={steady}");
        }
        let path = args.out.join(format!("{}.json", w.name));
        std::fs::write(&path, summary.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread across repetitions exceeds the bound: no claim either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on one metric of one workload. With `same_code`, the two
/// sides ran the same tree: a metric that repeats must be identical, and a
/// host metric's second best-of-repetitions must not be worse than the first
/// by more than the bound, which is the rule the pipeline applies to its own
/// two sets of runs. The best of three already discards a noisy repetition,
/// so the spread is not held against them; and this box's CPU runs a
/// quarter faster or slower for minutes at a time, so "better by more than
/// the bound" says nothing about the tree.
pub fn verdict(
    clock: Clock,
    better: Better,
    bound: f64,
    base: (f64, f64),
    new: (f64, f64),
    same_code: bool,
) -> Verdict {
    let ((base, base_spread), (new, new_spread)) = (base, new);
    if clock.repeats() {
        let moved = if same_code {
            base != new
        } else {
            worse_by(base, new, better) > bound
        };
        return if moved {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    if same_code {
        if worse_by(base, new, better) > bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        }
    } else if base_spread > bound || new_spread > bound {
        Verdict::Unresolved
    } else if worse_by(base, new, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One row per workload and end-to-end metric: base, new, ratio, bound and
/// verdict, from the suite summaries in directories `a` and `b`.
///
/// # Errors
///
/// A summary is missing or unreadable; with `same_code` also any metric or
/// exact counter that must repeat and did not, or a host metric out of
/// bound. Without it, any regression.
pub fn diff(a: &Path, b: &Path, bounds_file: &Path, same_code: bool) -> Result<(), String> {
    let bounds = spec::read_bounds(bounds_file)?;
    let load = |dir: &Path, w: &str| -> Result<Json, String> {
        let path = dir.join(format!("{w}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let mut rows = Vec::new();
    let mut bad = Vec::new();
    for w in WORKLOADS {
        let (base, new) = (load(a, w.name)?, load(b, w.name)?);
        let side = |doc: &Json, section: &str, name: &str| {
            let m = doc.get(section)?.get(name)?;
            Some((
                m.get("value")?.as_f64()?,
                m.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
            ))
        };
        for (d, &bound) in END_TO_END.iter().zip(&bounds) {
            let (Some(x), Some(y)) = (
                side(&base, "end_to_end", d.name),
                side(&new, "end_to_end", d.name),
            ) else {
                continue;
            };
            let v = verdict(d.clock, d.better, bound, x, y, same_code);
            if v == Verdict::Regressed {
                bad.push(format!(
                    "{} {}: {} -> {} ({})",
                    w.name,
                    d.name,
                    x.0,
                    y.0,
                    v.label()
                ));
            }
            rows.push(vec![
                w.name.to_owned(),
                d.name.to_owned(),
                d.clock.label().to_owned(),
                format!("{:.4}", x.0),
                format!("{:.4}", y.0),
                format!("{:.4}", y.0 / x.0),
                format!("{bound}"),
                v.label().to_owned(),
            ]);
        }
        if same_code {
            // Exact counters and simulated per-layer numbers of the same
            // tree must repeat too.
            for d in PER_LAYER.iter().filter(|d| d.clock.repeats()) {
                let (x, y) = (
                    text_of(&base, "per_layer", d.name),
                    text_of(&new, "per_layer", d.name),
                );
                if x != y {
                    bad.push(format!(
                        "{} {}: {x:?} -> {y:?} (must repeat)",
                        w.name, d.name
                    ));
                }
            }
        }
    }
    print!(
        "{}",
        tsv(
            &["workload", "metric", "clock", "base", "new", "ratio", "bound", "verdict"],
            &rows
        )
    );
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("\n"))
    }
}

/// Runs the suite twice on the same tree and requires the two to agree:
/// simulated metrics and exact counters identical, host metrics in bound.
///
/// # Errors
///
/// Either suite failed, or the two disagree.
pub fn twice(args: &SuiteArgs) -> Result<(), String> {
    let (first, second) = (args.out.join("first"), args.out.join("second"));
    for out in [&first, &second] {
        suite(&SuiteArgs {
            out: out.clone(),
            ..args.clone()
        })?;
    }
    diff(&first, &second, &args.bounds, true)
}

/// Smallest bound the benchmark may state for a metric whose spread over
/// seeds is `spread`: three times the spread, so the spread stays below a
/// third of it; at least 3 % on the simulated clock and 10 % on the host's;
/// at most the 25 % the contract allows; rounded up to a whole percent.
pub fn bound_for(clock: Clock, spread: f64) -> f64 {
    let floor = if clock == Clock::Host { 0.10 } else { 0.03 };
    let pct = (spread * 3.0).max(floor).min(0.25) * 100.0;
    (pct - 1e-9).ceil() / 100.0
}

/// Measures each workload on `seeds` seeds, derives every end-to-end
/// metric's bound from its spread, checks what the workload table rests on
/// (the open loop's rates are sustained and stall; the overwrite window is
/// in steady state), and writes `BENCHMARK.json` and the baseline.
///
/// # Errors
///
/// A run failed. What the checks find is reported, not an error: the
/// workload table is then adjusted by hand and `calibrate` run again.
pub fn calibrate(args: &SuiteArgs, seeds: u64, run_seconds: u64) -> Result<(), String> {
    spec::check_tables()?;
    let dir = args.out.join("calibrate");
    let mut spreads = vec![0.0f64; END_TO_END.len()];
    let mut baseline = Vec::new();
    for w in WORKLOADS {
        let runs = (0..seeds)
            .map(|i| {
                let child = Child {
                    workload: w.name,
                    seed: args.seed + i,
                    seconds: run_seconds as f64,
                    scale: 1.0,
                    trace: false,
                    // As the pipeline runs it.
                    setups: 3,
                };
                child_run(&child, &dir, &format!("seed{}", child.seed))
            })
            .collect::<Result<Vec<_>, _>>()?;
        println!("== {} over {seeds} seeds ==", w.name);
        let mut medians = Vec::new();
        for (i, d) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| value_of(r, "end_to_end", d.name))
                .collect();
            let (med, spread) = (median(&values), iqr_share(&values));
            let distinct = {
                let mut v = values.clone();
                v.sort_by(f64::total_cmp);
                v.dedup();
                v.len()
            };
            println!(
                "{:<16} median {:>14.4} {:<6} spread {:>5.1}%  {} distinct of {}",
                d.name,
                med,
                d.unit,
                spread * 100.0,
                distinct,
                values.len()
            );
            // Set-up's spread does not gate the benchmark; its bound is
            // the largest allowed.
            if d.name != "setup_s" {
                spreads[i] = spreads[i].max(spread);
            }
            medians.push((
                d.name.to_owned(),
                obj([
                    ("median", med.into()),
                    ("spread", spread.into()),
                    ("unit", d.unit.into()),
                ]),
            ));
        }
        let layer = |r: &Json, name: &str| value_of(r, "per_layer", name).unwrap_or(0.0);
        for r in &runs {
            let seed = r.get("seed").and_then(Json::as_f64).unwrap_or(0.0);
            println!(
                "  seed {seed}: correct={} steady={:?} drift={:.3} stall_episodes={} backlog_end={} backlog_max={}",
                is_correct(r),
                r.get("steady").and_then(Json::as_bool),
                layer(r, "engine.write_amp_drift"),
                layer(r, "engine.stall.episodes"),
                layer(r, "loadgen.backlog_end"),
                layer(r, "loadgen.backlog_max"),
            );
        }
        if !runs.iter().all(is_correct) {
            return Err(format!("{}: a run failed its checks", w.name));
        }
        baseline.push((w.name.to_owned(), Json::Obj(medians)));
    }
    let bounds: Vec<f64> = END_TO_END
        .iter()
        .zip(&spreads)
        .map(|(d, &s)| {
            if d.name == "setup_s" {
                0.25
            } else {
                bound_for(d.clock, s)
            }
        })
        .collect();
    let doc = spec::benchmark_json(run_seconds, &bounds);
    std::fs::write(&args.bounds, doc.pretty())
        .map_err(|e| format!("{}: {e}", args.bounds.display()))?;
    let baseline_path = args
        .bounds
        .with_file_name("benchmark")
        .join("baseline.json");
    let baseline = obj([
        ("note", "medians over the calibration seeds at the commit that added the benchmark; host-clock numbers are this sandbox's".into()),
        ("seeds", seeds.into()),
        ("first_seed", args.seed.into()),
        ("run_seconds", run_seconds.into()),
        ("workloads", Json::Obj(baseline)),
    ]);
    std::fs::write(&baseline_path, baseline.pretty())
        .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
    println!(
        "wrote {} and {}",
        args.bounds.display(),
        baseline_path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, Better::Higher) - 0.1).abs() < 1e-12);
        assert!(worse_by(100.0, 90.0, Better::Lower) < 0.0);
        assert_eq!(worse_by(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn verdicts() {
        use Better::{Higher, Lower};
        use Clock::{Host, Virt};
        let v = |c, b, base, new, same| verdict(c, b, 0.10, base, new, same);
        // Simulated: compared with the bound across commits, exactly on
        // the same tree.
        assert_eq!(
            v(Virt, Lower, (100.0, 0.0), (109.0, 0.0), false),
            Verdict::Ok
        );
        assert_eq!(
            v(Virt, Lower, (100.0, 0.0), (111.0, 0.0), false),
            Verdict::Regressed
        );
        assert_eq!(
            v(Virt, Lower, (100.0, 0.0), (100.0, 0.0), true),
            Verdict::Ok
        );
        assert_eq!(
            v(Virt, Lower, (100.0, 0.0), (100.001, 0.0), true),
            Verdict::Regressed
        );
        // Host: a spread above the bound on either side resolves nothing.
        assert_eq!(
            v(Host, Higher, (100.0, 0.02), (95.0, 0.03), false),
            Verdict::Ok
        );
        assert_eq!(
            v(Host, Higher, (100.0, 0.02), (85.0, 0.03), false),
            Verdict::Regressed
        );
        assert_eq!(
            v(Host, Higher, (100.0, 0.02), (85.0, 0.30), false),
            Verdict::Unresolved
        );
        // The same tree twice: the second best must not be worse than the
        // first by more than the bound, whatever one noisy repetition did.
        assert_eq!(
            v(Host, Higher, (100.0, 0.40), (92.0, 0.01), true),
            Verdict::Ok
        );
        assert_eq!(
            v(Host, Higher, (100.0, 0.01), (130.0, 0.01), true),
            Verdict::Ok
        );
        assert_eq!(
            v(Host, Higher, (100.0, 0.01), (85.0, 0.01), true),
            Verdict::Regressed
        );
    }

    #[test]
    fn best_and_spread_of_repetitions() {
        assert_eq!(best(&[9.0, 10.0, 8.0], Better::Higher), 10.0);
        assert_eq!(best(&[9.0, 10.0, 8.0], Better::Lower), 8.0);
        assert!((rel_range(&[9.0, 10.0, 8.0], Better::Higher) - 0.2).abs() < 1e-12);
        assert_eq!(rel_range(&[9.0], Better::Higher), 0.0);
    }

    #[test]
    fn bounds_are_three_spreads_within_floor_and_cap() {
        assert_eq!(bound_for(Clock::Virt, 0.001), 0.03);
        assert_eq!(bound_for(Clock::Virt, 0.02), 0.06);
        assert_eq!(bound_for(Clock::Virt, 0.0234), 0.08, "rounded up");
        assert_eq!(bound_for(Clock::Host, 0.02), 0.10);
        assert_eq!(bound_for(Clock::Host, 0.2), 0.25);
    }

    #[test]
    fn summary_takes_the_best_host_value_and_insists_simulated_ones_repeat() {
        let run = |kops: &str, host: &str| {
            Json::parse(&format!(
                r#"{{"correct":true,"failed_frac":0.0,"steady":null,
                    "end_to_end":{{"virt_kops":{{"value":{kops}}},"host_ops_per_s":{{"value":{host}}}}},
                    "per_layer":{{}}}}"#
            ))
            .unwrap()
        };
        let bounds = vec![0.1; END_TO_END.len()];
        let s = summarise(
            "w",
            &[run("14.5", "900"), run("14.5", "1000"), run("14.5", "950")],
            &bounds,
        )
        .unwrap();
        assert_eq!(value_of(&s, "end_to_end", "virt_kops"), Some(14.5));
        assert_eq!(value_of(&s, "end_to_end", "host_ops_per_s"), Some(1000.0));
        let host = s.get("end_to_end").unwrap().get("host_ops_per_s").unwrap();
        assert_eq!(host.get("spread").and_then(Json::as_f64), Some(0.1));
        assert_eq!(host.get("resolved").and_then(Json::as_bool), Some(true));
        let err = summarise("w", &[run("14.5", "900"), run("14.6", "900")], &bounds).unwrap_err();
        assert!(err.contains("virt_kops"), "{err}");
    }
}
