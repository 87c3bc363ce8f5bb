//! Spans recorded from the benchmark's own files around every call into a
//! layer. They stay in memory and are written as JSON lines when the run
//! ends. Phases are timed on every run (set-up time comes from them); the
//! per-op spans only exist in a traced run, because only then do the
//! [`OpRec`]s carry host stamps.

use std::io::Write as _;
use std::path::Path;

use crate::json::{obj, Json};
use crate::loadgen::{HostClock, Kind, OpRec};

/// `{id, parent, name, layer, client, virt_start_ns, virt_end_ns,
/// host_start_ns, host_end_ns, ok}`; `parent` 0 is the run itself.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub layer: &'static str,
    /// -1 for spans that belong to no client.
    pub client: i64,
    pub virt_start_ns: u64,
    pub virt_end_ns: u64,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub ok: bool,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }

    pub fn virt_ns(&self) -> u64 {
        self.virt_end_ns - self.virt_start_ns
    }

    fn json(&self) -> Json {
        obj([
            ("type", "span".into()),
            ("id", self.id.into()),
            ("parent", self.parent.into()),
            ("name", self.name.into()),
            ("layer", self.layer.into()),
            ("client", Json::Num(self.client.to_string())),
            ("virt_start_ns", self.virt_start_ns.into()),
            ("virt_end_ns", self.virt_end_ns.into()),
            ("host_start_ns", self.host_start_ns.into()),
            ("host_end_ns", self.host_end_ns.into()),
            ("ok", self.ok.into()),
        ])
    }
}

/// The run's span store.
#[derive(Debug)]
pub struct Tracer {
    pub clock: HostClock,
    next_id: u64,
    spans: Vec<Span>,
    /// The other lines of the trace file: snapshot deltas and the timeline.
    notes: Vec<Json>,
}

impl Tracer {
    pub fn new(clock: HostClock) -> Tracer {
        Tracer {
            clock,
            next_id: 1,
            spans: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Opens a span now; [`Tracer::end`] closes it. Must run on a sim thread.
    #[must_use]
    pub fn begin(&mut self, name: &'static str, layer: &'static str, parent: u64) -> Span {
        Span {
            id: self.id(),
            parent,
            name,
            layer,
            client: -1,
            virt_start_ns: xlsm_sim::now_nanos(),
            virt_end_ns: 0,
            host_start_ns: self.clock.read(),
            host_end_ns: 0,
            ok: false,
        }
    }

    /// Closes `open` now and stores it.
    pub fn end(&mut self, mut open: Span, ok: bool) -> Span {
        open.virt_end_ns = xlsm_sim::now_nanos();
        open.host_end_ns = self.clock.read();
        open.ok = ok;
        self.spans.push(open);
        open
    }

    /// One span per op under `parent`. In the open loop each op span hangs
    /// under a `loadgen.dispatch` span that runs from the due time until a
    /// worker started the op (generator lag plus the wait for a free
    /// worker); that one has no host stamps of its own. No-op when untraced.
    pub fn ops(&mut self, parent: u64, ops: &[OpRec], open_loop: bool) {
        if !self.clock.on() {
            return;
        }
        self.spans
            .reserve(ops.len() * if open_loop { 2 } else { 1 });
        for op in ops {
            let mut parent = parent;
            if open_loop {
                let dispatch = Span {
                    id: self.id(),
                    parent,
                    name: "loadgen.dispatch",
                    layer: "workload",
                    client: i64::from(op.client),
                    virt_start_ns: op.due_ns,
                    virt_end_ns: op.start_ns,
                    host_start_ns: op.host_start_ns,
                    host_end_ns: op.host_start_ns,
                    ok: true,
                };
                parent = dispatch.id;
                self.spans.push(dispatch);
            }
            let span = Span {
                id: self.id(),
                parent,
                name: match op.kind {
                    Kind::Get => "client.get",
                    Kind::Put => "client.put",
                },
                layer: "engine",
                client: i64::from(op.client),
                virt_start_ns: op.start_ns,
                virt_end_ns: op.done_ns,
                host_start_ns: op.host_start_ns,
                host_end_ns: op.host_end_ns,
                ok: op.ok,
            };
            self.spans.push(span);
        }
    }

    /// Adds a non-span line (`type` says what it is) to the trace file.
    pub fn note(&mut self, line: Json) {
        if self.clock.on() {
            self.notes.push(line);
        }
    }

    pub fn span_count(&self) -> u64 {
        self.spans.len() as u64
    }

    /// Writes every span, then every note, one JSON object per line.
    ///
    /// # Errors
    ///
    /// The file cannot be created or written.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            writeln!(out, "{}", span.json().line())?;
        }
        for note in &self.notes {
            writeln!(out, "{}", note.line())?;
        }
        out.flush()
    }
}

/// Host nanoseconds one traced op costs: two clock reads and the wider
/// record. Timed here so the traced run can state its own overhead.
pub fn host_ns_per_op_record() -> f64 {
    const N: u32 = 200_000;
    let clock = HostClock::new(std::time::Instant::now(), true);
    let mut sink = Vec::with_capacity(N as usize);
    let start = std::time::Instant::now();
    for _ in 0..N {
        sink.push((clock.read(), clock.read()));
    }
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(&sink);
    ns / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_round_trip_as_json_lines() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        xlsm_sim::Runtime::new().run(|| {
            let mut t = Tracer::new(HostClock::new(std::time::Instant::now(), true));
            let window = t.begin("phase.window", "workload", 0);
            xlsm_sim::sleep_nanos(500);
            let op = OpRec {
                kind: Kind::Put,
                client: 3,
                ok: true,
                due_ns: 100,
                sent_ns: 120,
                start_ns: 150,
                done_ns: 400,
                host_start_ns: 10,
                host_end_ns: 20,
            };
            t.ops(window.id, &[op], true);
            let window = t.end(window, true);
            assert_eq!(window.virt_ns(), 500);
            t.note(obj([("type", "timeline".into())]));
            assert_eq!(t.span_count(), 3);
            t.write(&path).unwrap();
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 4);
        let by_name = |n: &str| {
            lines
                .iter()
                .find(|l| l.get("name").and_then(Json::as_str) == Some(n))
                .unwrap()
        };
        let id = |l: &Json, k: &str| l.get(k).and_then(Json::as_f64).unwrap();
        let (window, dispatch, put) = (
            by_name("phase.window"),
            by_name("loadgen.dispatch"),
            by_name("client.put"),
        );
        assert_eq!(id(dispatch, "parent"), id(window, "id"));
        assert_eq!(id(put, "parent"), id(dispatch, "id"));
        assert_eq!(id(dispatch, "virt_start_ns"), 100.0, "from the due time");
        assert_eq!(id(dispatch, "virt_end_ns"), id(put, "virt_start_ns"));
        assert_eq!(id(put, "client"), 3.0);
        assert_eq!(
            lines[3].get("type").and_then(Json::as_str),
            Some("timeline")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_untraced_run_keeps_phases_but_no_op_spans() {
        xlsm_sim::Runtime::new().run(|| {
            let mut t = Tracer::new(HostClock::new(std::time::Instant::now(), false));
            let p = t.begin("phase.fill", "engine", 0);
            let p = t.end(p, true);
            assert!(p.host_end_ns >= p.host_start_ns);
            t.ops(p.id, &[], false);
            t.note(Json::Null);
            assert_eq!(t.span_count(), 1);
        });
    }
}
