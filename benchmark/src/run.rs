//! One run of one workload: set-up, warm-up, the measured window, the
//! checks, and (traced) the micro phases; then the metrics by name.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xlsm_device::{Device, PAGE_SIZE};
use xlsm_engine::{StallEvent, Ticker};
use xlsm_workload::Sampler;

use crate::json::{obj, Json};
use crate::loadgen::{self, HostClock, Kind, LoadResult, OpRec, Progress};
use crate::measure::{self, Rows, Snap, WindowFacts};
use crate::micro;
use crate::spec::{Load, WorkloadDef, END_TO_END, NOMINAL_SECONDS, PER_LAYER};
use crate::stack::{self, Stack};
use crate::stats::{median, percentile, ratio, tail_mean};
use crate::trace::{self, Tracer};

/// Marks per window: the slices host speed and write-amp drift come from.
const SLICES: u64 = 12;
/// Uniform gets of the read-back check after the window.
const READBACK_GETS: u64 = 4096;

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: &'static WorkloadDef,
    pub seed: u64,
    /// Sizes the window: op counts and open-loop leg lengths are
    /// proportional to it, so a run measures the same work on any host.
    pub seconds: f64,
    pub trace: bool,
    /// 1 in every measured run. Tests shrink dataset and window with it;
    /// results at another scale compare with nothing.
    pub scale: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: u32,
    /// Where the run file (and the trace) go, and the file's tag.
    pub out: Option<(PathBuf, String)>,
}

/// One end-to-end metric of one run; `None` where too few samples back it.
#[derive(Clone, Debug)]
pub struct Measured {
    pub name: &'static str,
    pub value: Option<f64>,
    /// Latency samples behind a percentile.
    pub samples: Option<u64>,
}

#[derive(Clone, Debug)]
pub struct RunResult {
    pub args: RunArgs,
    pub attempted: u64,
    pub failed: u64,
    /// Conditions the workload's numbers rest on, and whether each held.
    pub checks: Vec<(&'static str, bool)>,
    pub end_to_end: Vec<Measured>,
    /// Window deltas on every run; micro phases and trace rows when traced.
    pub layers: Rows,
    /// `engine.write_amp_drift` within 0.9-1.1; `None` without writes.
    pub steady: Option<bool>,
    pub setup_s: Vec<f64>,
    /// Host ops/s of each slice of the window, for judging noise.
    pub slice_host_ops_per_s: Vec<f64>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|&(_, held)| held)
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.value)
            .or_else(|| self.layers.iter().find(|r| r.0 == name).map(|r| r.1))
    }

    /// The last line of standard output: the end-to-end metrics of an
    /// untraced run, the per-layer metrics of a traced one. A per-layer
    /// metric the workload never exercises reads 0.
    pub fn result_line(&self) -> Json {
        let row = |name: &str, unit: &str, value: f64| {
            (
                name.to_owned(),
                obj([("value", value.into()), ("unit", unit.into())]),
            )
        };
        let metrics = if self.args.trace {
            PER_LAYER
                .iter()
                .map(|d| row(d.name, d.unit, self.value(d.name).unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter_map(|d| self.value(d.name).map(|v| row(d.name, d.unit, v)))
                .collect()
        };
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Everything the run measured, for `suite`, `diff` and people.
    pub fn json(&self) -> Json {
        let metric = |name: &'static str, value: Option<f64>, samples: Option<u64>| {
            let d = crate::spec::metric(name).expect("metric is in the tables");
            let mut fields = d.fields(value.map_or(Json::Null, Json::from));
            if let Some(n) = samples {
                fields.push(("samples".to_owned(), n.into()));
            }
            (name.to_owned(), Json::Obj(fields))
        };
        obj([
            ("workload", self.args.workload.name.into()),
            ("seed", self.args.seed.into()),
            ("seconds", self.args.seconds.into()),
            ("scale", self.args.scale.into()),
            ("trace", self.args.trace.into()),
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("failed_frac", self.failed_frac().into()),
            (
                "checks",
                Json::Obj(
                    self.checks
                        .iter()
                        .map(|&(name, held)| (name.to_owned(), held.into()))
                        .collect(),
                ),
            ),
            ("steady", self.steady.map_or(Json::Null, Json::from)),
            (
                "end_to_end",
                Json::Obj(
                    self.end_to_end
                        .iter()
                        .map(|m| metric(m.name, m.value, m.samples))
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|&(name, value)| metric(name, Some(value), None))
                        .collect(),
                ),
            ),
            ("setup_s_each", self.setup_s.clone().into()),
            (
                "slice_host_ops_per_s",
                self.slice_host_ops_per_s.clone().into(),
            ),
        ])
    }

    /// Every metric by name with its unit and clock, one per line.
    pub fn print(&self) {
        let w = self.args.workload;
        println!(
            "== {} seed={} seconds={} scale={} trace={} ==",
            w.name, self.args.seed, self.args.seconds, self.args.scale, self.args.trace as u8
        );
        for m in &self.end_to_end {
            let d = crate::spec::metric(m.name).expect("metric is in the tables");
            let samples = m.samples.map_or(String::new(), |n| format!("  n={n}"));
            match m.value {
                Some(v) => println!(
                    "{:<44} {:>16.4} {:<6} {}{samples}",
                    m.name,
                    v,
                    d.unit,
                    d.clock.label()
                ),
                None => println!(
                    "{:<44} {:>16} {:<6} {}{samples}",
                    m.name,
                    "n/a",
                    d.unit,
                    d.clock.label()
                ),
            }
        }
        println!(
            "{:<44} {:>16.6} {:<6} exact  ({} of {})",
            "failed_frac",
            self.failed_frac(),
            "ratio",
            self.failed,
            self.attempted
        );
        for &(name, value) in &self.layers {
            let d = crate::spec::metric(name).expect("metric is in the tables");
            println!("{name:<44} {value:>16.4} {:<6} {}", d.unit, d.clock.label());
        }
        for &(name, held) in &self.checks {
            println!("check {name}: {}", if held { "ok" } else { "FAILED" });
        }
        if let Some(steady) = self.steady {
            println!("steady={steady}");
        }
    }
}

/// Runs the workload once.
///
/// # Errors
///
/// The stack could not be built or the output could not be written; a run
/// that completes but fails its checks is `Ok` with `correct() == false`.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let clock = HostClock::new(Instant::now(), args.trace);
    let window_ops = args.workload.load.window_ops(args.seconds * args.scale);
    let owned = args.clone();
    let (mut result, tracer) =
        xlsm_sim::Runtime::new().run(move || measured(owned, clock, window_ops))?;
    // Before the extra set-ups below, whose stacks would add to it.
    set(
        &mut result.end_to_end,
        "peak_rss_mb",
        measure::peak_rss_mib(),
    );

    // Set-up is timed several times and reported as the median: one noisy
    // second must not read as a regression. These stacks are only timed.
    for _ in 1..args.setups {
        let (w, seed, scale) = (args.workload, args.seed, args.scale);
        let host_ns = xlsm_sim::Runtime::new().run(move || {
            let mut tracer = Tracer::new(clock.untraced());
            let stack = stack::set_up(w, seed, scale, window_ops, &mut tracer)?;
            stack.tb.close();
            Ok::<_, String>(stack.host_ns)
        })?;
        result.setup_s.push(host_ns as f64 / 1e9);
    }
    set(&mut result.end_to_end, "setup_s", median(&result.setup_s));

    if let Some((dir, tag)) = &args.out {
        let name = args.workload.name;
        let io = |e: std::io::Error| format!("{}: {e}", dir.display());
        std::fs::create_dir_all(dir).map_err(io)?;
        std::fs::write(
            dir.join(format!("{name}.{tag}.json")),
            result.json().pretty(),
        )
        .map_err(io)?;
        if args.trace {
            tracer
                .write(&dir.join(format!("{name}.trace.jsonl")))
                .map_err(io)?;
        }
    }
    Ok(result)
}

fn set(metrics: &mut [Measured], name: &str, value: f64) {
    let m = metrics
        .iter_mut()
        .find(|m| m.name == name)
        .expect("end-to-end metric is in the table");
    m.value = Some(value);
}

/// The measured part, on the root sim thread.
fn measured(
    args: RunArgs,
    clock: HostClock,
    window_ops: u64,
) -> Result<(RunResult, Tracer), String> {
    let w = args.workload;
    let mut tracer = Tracer::new(clock);
    let stack = stack::set_up(w, args.seed, args.scale, window_ops, &mut tracer)?;
    let setup_s = vec![stack.host_ns as f64 / 1e9];
    let Stack { tb, data, .. } = &stack;
    let db = &tb.db;
    let entry_bytes = data.entry_bytes();

    // Window histograms and stall totals restart here, so at the window's
    // end they describe the window alone.
    db.stats().reset_window();
    db.stats().flush_duration.reset();
    db.stats().compaction_duration.reset();
    let before = Snap::take(tb, clock.read());

    let progress = {
        let stats = Arc::clone(db.stats());
        Progress::new(window_ops.div_ceil(SLICES), clock, move || {
            [
                stats.ticker(Ticker::Puts) * entry_bytes,
                stats.ticker(Ticker::WalBytes)
                    + stats.ticker(Ticker::FlushBytes)
                    + stats.ticker(Ticker::CompactWriteBytes),
            ]
        })
    };
    // The samplers run traced or not, so both runs schedule the same sim
    // threads and their simulated times agree to the nanosecond.
    let l0_sampler = {
        let db = Arc::clone(db);
        Sampler::start("l0-files", 10_000_000, move || db.num_l0_files() as f64)
    };
    let timeline = Arc::new(Mutex::new((Vec::<Json>::new(), Vec::<StallEvent>::new())));
    let timeline_sampler = {
        let (db, progress, timeline) =
            (Arc::clone(db), Arc::clone(&progress), Arc::clone(&timeline));
        let last_cell = Mutex::new((xlsm_sim::now_nanos(), 0u64));
        Sampler::start("timeline", 100_000_000, move || {
            let m = db.metrics();
            let now = xlsm_sim::now_nanos();
            let done = progress.ops_done();
            let mut last = last_cell.lock().expect("timeline lock poisoned");
            let kops = ratio((done - last.1) as f64 * 1e6, (now - last.0) as f64);
            *last = (now, done);
            let mut t = timeline.lock().expect("timeline lock poisoned");
            t.0.push(obj([
                ("type", "timeline".into()),
                ("virt_ns", now.into()),
                ("kops", kops.into()),
                ("l0_files", db.num_l0_files().into()),
                (
                    "controller_level",
                    measure::level_number(m.controller.level).into(),
                ),
                ("compaction_debt_bytes", m.compaction_debt_bytes.into()),
            ]));
            t.1.extend(m.stall_events);
            0.0
        })
    };

    let span = tracer.begin("phase.window", "workload", 0);
    let load = match w.load {
        Load::Closed {
            clients,
            write_frac,
            ..
        } => loadgen::run_closed(
            db,
            *data,
            w.keys,
            args.seed,
            clients,
            w.load.ops_per_client(args.seconds * args.scale),
            write_frac,
            clock,
            &progress,
        ),
        Load::Open {
            workers,
            cycles,
            base,
            burst,
        } => {
            let length_scale = args.seconds * args.scale / NOMINAL_SECONDS;
            let arrivals = loadgen::schedule(
                *data,
                w.keys,
                args.seed,
                cycles,
                [burst, base],
                length_scale,
            );
            loadgen::run_open(db, *data, arrivals, workers, clock, &progress)
        }
    };
    let window_failed = load.scheduled - load.ops.iter().filter(|o| o.ok).count() as u64;
    let window = tracer.end(span, window_failed == 0);
    let after = Snap::take(tb, clock.read());
    let l0_series: Vec<f64> = l0_sampler
        .finish()
        .into_iter()
        .filter(|&(t, _)| t <= window.virt_end_ns)
        .map(|(_, v)| v)
        .collect();
    timeline_sampler.finish();
    let open_loop = matches!(w.load, Load::Open { .. });
    tracer.ops(window.id, &load.ops, open_loop);
    let (timeline_rows, mut stall_events) =
        std::mem::take(&mut *timeline.lock().expect("timeline lock poisoned"));
    stall_events.extend(after.engine.stall_events.iter().copied());
    stall_events.retain(|e| e.at <= window.virt_end_ns);
    stall_events.sort_by_key(|e| e.at);
    for row in timeline_rows {
        tracer.note(row);
    }
    tracer.note(measure::delta_note("phase.window", &before, &after));

    // Read-back: once the backlog the window left has settled, uniform gets
    // of one client, each compared with the value every put of that key
    // wrote. It is the only check of what an all-put window stored, and the
    // only gets such a workload has.
    let span = tracer.begin("phase.readback", "engine", 0);
    let settled = stack::settle(db);
    let mut rng = xlsm_sim::rng::Xoshiro256::new(args.seed ^ 0x0BAC_C4EC);
    let readback_gets = ((READBACK_GETS as f64 * args.scale.min(1.0)) as u64).max(64);
    let readback: Vec<OpRec> = (0..readback_gets)
        .map(|_| {
            loadgen::one(
                &**db,
                data,
                Kind::Get,
                rng.next_below(data.keys.count()),
                &clock,
            )
        })
        .collect();
    let readback_failed =
        readback.iter().filter(|o| !o.ok).count() as u64 + u64::from(settled.is_err());
    tracer.ops(span.id, &readback, false);
    tracer.end(span, readback_failed == 0);

    let marks = progress.marks();
    let mut layers = measure::window_layers(
        &before,
        &after,
        &WindowFacts {
            ops: load.ops.len() as u64,
            puts: load.ops.iter().filter(|o| o.kind == Kind::Put).count() as u64,
            entry_bytes,
            live_bytes: data.live_bytes(),
            l0_series,
            stall_events,
            marks: marks.clone(),
        },
    );
    let layer =
        |layers: &Rows, name: &str| layers.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1);

    let mut attempted = stack.attempted + load.scheduled + readback_gets;
    let mut failed = stack.failed + window_failed + readback_failed;
    if args.trace {
        let span = tracer.begin("phase.calltable", "engine", 0);
        let (rows, bad) = micro::call_table(db, *data, args.seed, &mut tracer, span.id);
        tracer.end(span, bad == 0);
        layers.extend(rows);
        attempted += micro::CALL_TABLE_CALLS;
        failed += bad;
    }

    // Every key must still be there, once, with its value, and every block
    // on the device must match its checksum.
    let span = tracer.begin("phase.verify", "engine", 0);
    let scan_ok = scan_all(&stack).unwrap_or(false);
    let checksums_ok = db.verify_checksums().is_ok();
    tracer.end(span, scan_ok && checksums_ok);
    attempted += 2;
    failed += u64::from(!scan_ok) + u64::from(!checksums_ok);

    let span = tracer.begin("phase.close", "core", 0);
    stack.tb.close();
    let close = tracer.end(span, true);

    let window_virt_s = window.virt_ns() as f64 / 1e9;
    let window_host_s = window.host_ns() as f64 / 1e9;
    layers.extend([
        (
            "loadgen.host_ns_per_op",
            load.own_host_ns as f64 / load.ops.len().max(1) as f64,
        ),
        (
            "loadgen.offered_kops",
            load.scheduled as f64 / window_virt_s / 1e3,
        ),
        ("loadgen.lag_us_p99", lag_p99_us(&load)),
        ("loadgen.backlog_max", load.backlog_max as f64),
        ("loadgen.backlog_end", load.backlog_end as f64),
        ("core.open_virt_ms", stack.open.virt_ns() as f64 / 1e6),
        ("core.open_host_ms", stack.open.host_ns() as f64 / 1e6),
        ("core.close_host_ms", close.host_ns() as f64 / 1e6),
    ]);
    if args.trace {
        // Nothing else is alive now, which the sleep micro needs.
        let profile = tb.device.profile().clone();
        let span = tracer.begin("phase.micro", "benchmark", 0);
        layers.extend(micro::sim(&mut tracer, span.id));
        layers.extend(micro::device(&profile, &mut tracer, span.id));
        layers.extend(micro::simfs(&profile, &mut tracer, span.id));
        tracer.end(span, true);
        let stamped_ops = (load.ops.len() * if open_loop { 2 } else { 1 }) as f64;
        layers.extend([
            ("trace.spans", tracer.span_count() as f64),
            (
                "trace.overhead_frac",
                stamped_ops * trace::host_ns_per_op_record() / window.host_ns() as f64,
            ),
        ]);
    }

    let latencies = |ops: &[OpRec], kind: Option<Kind>| {
        let mut v: Vec<u64> = ops
            .iter()
            .filter(|o| kind.is_none_or(|k| o.kind == k))
            .map(OpRec::latency_ns)
            .collect();
        v.sort_unstable();
        v
    };
    let mean_us = |v: &[u64]| ratio(v.iter().sum::<u64>() as f64 / 1e3, v.len() as f64);
    let pct_us = |sorted: &[u64], q| percentile(sorted, q).map(|ns| ns as f64 / 1e3);
    let all = latencies(&load.ops, None);
    let window_reads = latencies(&load.ops, Some(Kind::Get));
    let window_writes = latencies(&load.ops, Some(Kind::Put));
    layers.extend([
        (
            "client.read_p50_us",
            pct_us(&window_reads, 0.5).unwrap_or(0.0),
        ),
        (
            "client.read_p99_us",
            pct_us(&window_reads, 0.99).unwrap_or(0.0),
        ),
        (
            "client.write_p50_us",
            pct_us(&window_writes, 0.5).unwrap_or(0.0),
        ),
        (
            "client.write_p99_us",
            pct_us(&window_writes, 0.99).unwrap_or(0.0),
        ),
        (
            "client.write_p999_us",
            pct_us(&window_writes, 0.999).unwrap_or(0.0),
        ),
    ]);
    // An op type the window lacks is measured in the one place the workload
    // issues it: the read-back for gets, the load for puts.
    let reads = if w.load.has_gets() {
        window_reads
    } else {
        latencies(&readback, Some(Kind::Get))
    };
    let (writes, write_media_pages) = if w.load.has_puts() {
        (window_writes, measure::media_pages(&before.dev, &after.dev))
    } else {
        (
            latencies(&stack.load_ops, Some(Kind::Put)),
            measure::media_pages(&stack.dev_before_load, &stack.dev_after_load),
        )
    };
    let metric = |name, value: Option<f64>, samples: Option<usize>| Measured {
        name,
        value,
        samples: samples.map(|n| n as u64),
    };
    let slice_host_ops_per_s: Vec<f64> = marks
        .windows(2)
        .map(|m| {
            ratio(
                (m[1].ops_done - m[0].ops_done) as f64 * 1e9,
                (m[1].host_ns - m[0].host_ns) as f64,
            )
        })
        .collect();
    let end_to_end = vec![
        // Filled in by `run`: the set-ups' median, and the high-water mark
        // once the run has done everything it measures.
        metric("setup_s", None, None),
        metric(
            "virt_kops",
            Some(load.ops.len() as f64 / window_virt_s / 1e3),
            None,
        ),
        metric("read_mean_us", Some(mean_us(&reads)), Some(reads.len())),
        metric("write_mean_us", Some(mean_us(&writes)), Some(writes.len())),
        metric(
            "tail99_us",
            tail_mean(&all, 0.99).map(|ns| ns / 1e3),
            Some(all.len()),
        ),
        metric(
            "tail999_us",
            tail_mean(&all, 0.999).map(|ns| ns / 1e3),
            Some(all.len()),
        ),
        metric(
            "write_amp",
            Some(
                (write_media_pages * PAGE_SIZE as u64) as f64
                    / (writes.len() as u64 * entry_bytes) as f64,
            ),
            None,
        ),
        metric(
            "space_amp",
            Some(layer(&layers, "simfs.used_bytes_per_live_byte")),
            None,
        ),
        metric(
            "host_ops_per_s",
            Some(load.ops.len() as f64 / window_host_s),
            None,
        ),
        metric("peak_rss_mb", None, None),
    ];
    debug_assert!(end_to_end
        .iter()
        .map(|m| m.name)
        .eq(END_TO_END.iter().map(|d| d.name)));

    let mut checks = vec![(
        "engine.errors.none",
        layer(&layers, "engine.errors.background") == 0.0,
    )];
    if !w.load.has_puts() {
        // The bypass workload: a write-side change must show no change
        // here, which only holds if no background job ran.
        let idle = layer(&layers, "engine.flush.count") == 0.0
            && layer(&layers, "engine.compaction.count") == 0.0;
        checks.push(("window.zero_background_jobs", idle));
    } else if args.scale >= 1.0 {
        // Writes in flight at the window's edges are half-counted by the
        // engine's totals; a scaled-down window is mostly edges.
        checks.push((
            "engine.write.breakdown_coverage>=0.9",
            layer(&layers, "engine.write.breakdown_coverage") >= 0.9,
        ));
    }
    if let Load::Open { workers, .. } = w.load {
        // More arrivals waiting than workers when the schedule ends means
        // the rate was not sustained, and every latency of the run counts
        // as a miss.
        checks.push(("loadgen.backlog_end<=workers", load.backlog_end <= workers));
    }
    let drift = layer(&layers, "engine.write_amp_drift");
    let steady = w.load.has_puts().then_some((0.9..=1.1).contains(&drift));

    let result = RunResult {
        args,
        attempted,
        failed,
        checks,
        end_to_end,
        layers: in_table_order(layers),
        steady,
        setup_s,
        slice_host_ops_per_s,
    };
    Ok((result, tracer))
}

/// Open loop: how late the generator handed arrivals over, p99, in us.
fn lag_p99_us(load: &LoadResult) -> f64 {
    let mut lag: Vec<u64> = load.ops.iter().map(|o| o.sent_ns - o.due_ns).collect();
    lag.sort_unstable();
    percentile(&lag, 0.99).map_or(0.0, |ns| ns as f64 / 1e3)
}

/// Scans the whole database: every key once, in order, with its value.
fn scan_all(stack: &Stack) -> Result<bool, xlsm_engine::DbError> {
    let data = &stack.data;
    let mut scan = stack.tb.db.scan()?;
    let mut valid = scan.seek_to_first()?;
    for idx in 0..data.keys.count() {
        if !valid
            || scan.key() != &data.keys.key(idx)[..]
            || scan.value() != &data.values.value(idx)[..]
        {
            return Ok(false);
        }
        valid = scan.next()?;
    }
    Ok(!valid)
}

/// The rows in the order of the per-layer table.
fn in_table_order(rows: Rows) -> Rows {
    PER_LAYER
        .iter()
        .filter_map(|d| rows.iter().find(|r| r.0 == d.name).copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn args(workload: &'static WorkloadDef, trace: bool, out: Option<&str>) -> RunArgs {
        RunArgs {
            workload,
            seed: 42,
            seconds: NOMINAL_SECONDS,
            trace,
            scale: 0.02,
            setups: 1,
            out: out.map(|tag| {
                let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-run");
                (dir, tag.to_owned())
            }),
        }
    }

    /// All four workloads end to end at a fiftieth of their size: nothing
    /// fails, every check holds, and every metric the sample count supports
    /// is there.
    #[test]
    fn smoke_of_every_workload_at_scale_0_02() {
        for w in WORKLOADS {
            let r = run(&args(w, false, None)).unwrap();
            assert_eq!(
                r.failed, 0,
                "{}: {} of {} failed",
                w.name, r.failed, r.attempted
            );
            assert!(r.correct(), "{}: {:?}", w.name, r.checks);
            assert!(r.attempted > w.load.window_ops(0.2), "{}", w.name);
            for d in END_TO_END {
                // A few thousand ops have fewer than ten beyond their 99.9 %.
                let expect = d.name != "tail999_us";
                assert_eq!(r.value(d.name).is_some(), expect, "{} {}", w.name, d.name);
            }
            for name in [
                "virt_kops",
                "read_mean_us",
                "write_mean_us",
                "write_amp",
                "space_amp",
            ] {
                assert!(r.value(name).unwrap() > 0.0, "{} {name} is never 0", w.name);
            }
            let line = r.result_line();
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(
                line.get("metrics").unwrap().as_obj().len(),
                END_TO_END.len() - 1
            );
        }
    }

    /// Tracing costs host time only: the traced run's simulated metrics and
    /// exact counters equal the untraced run's to the digit, and it
    /// produces every per-layer metric and one span per op.
    #[test]
    fn traced_run_equals_untraced_on_the_simulated_clock() {
        for w in WORKLOADS
            .iter()
            .filter(|w| ["mixed_xpoint", "burst_open_pcie"].contains(&w.name))
        {
            let plain = run(&args(w, false, None)).unwrap();
            let traced = run(&args(w, true, Some("traced"))).unwrap();
            assert!(plain.correct() && traced.correct());
            for d in END_TO_END.iter().filter(|d| d.clock.repeats()) {
                assert_eq!(
                    plain.value(d.name),
                    traced.value(d.name),
                    "{} {}",
                    w.name,
                    d.name
                );
            }
            for &(name, value) in &plain.layers {
                if crate::spec::metric(name).unwrap().clock.repeats() {
                    assert_eq!(Some(value), traced.value(name), "{} {name}", w.name);
                }
            }
            for d in PER_LAYER {
                assert!(
                    traced.layers.iter().any(|r| r.0 == d.name),
                    "{} lacks {}",
                    w.name,
                    d.name
                );
            }
            let line = traced.result_line();
            assert_eq!(line.get("metrics").unwrap().as_obj().len(), PER_LAYER.len());
            let spans = traced.value("trace.spans").unwrap();
            let ops = w.load.window_ops(0.2) + crate::stack::dataset(0.02).keys.count();
            assert!(
                spans > ops as f64,
                "{spans} spans for {ops} ops loaded and measured"
            );
            let (dir, _) = args(w, true, Some("traced")).out.unwrap();
            let text =
                std::fs::read_to_string(dir.join(format!("{}.trace.jsonl", w.name))).unwrap();
            assert_eq!(
                text.lines()
                    .filter(|l| l.contains("\"type\":\"span\""))
                    .count() as f64,
                spans
            );
            for phase in [
                "phase.open",
                "phase.fill",
                "phase.settle",
                "phase.warmup",
                "phase.window",
                "phase.readback",
                "phase.calltable",
                "phase.verify",
                "phase.close",
                "phase.micro",
            ] {
                assert!(
                    text.contains(&format!("\"name\":\"{phase}\"")),
                    "{} lacks {phase}",
                    w.name
                );
            }
            assert!(text.contains("\"type\":\"delta\"") && text.contains("\"type\":\"timeline\""));
            assert!(text.lines().all(|l| Json::parse(l).is_ok()));
        }
    }

    /// The same seed gives the same inputs and so the same simulated run;
    /// another seed gives another.
    #[test]
    fn the_seed_decides_the_simulated_numbers() {
        let w = crate::spec::workload("mixed_xpoint").unwrap();
        let kops = |seed| {
            let r = run(&RunArgs {
                seed,
                ..args(w, false, None)
            })
            .unwrap();
            assert!(r.correct());
            (
                r.value("virt_kops").unwrap(),
                r.value("read_mean_us").unwrap(),
            )
        };
        assert_eq!(kops(7), kops(7));
        assert_ne!(kops(7), kops(8));
    }
}
