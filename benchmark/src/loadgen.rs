//! The load generators: a closed loop and an open loop over anything that
//! can `get` and `put`. Both record one [`OpRec`] per op, check every value
//! read, and count errors instead of panicking on them. The program under
//! test sees only the generated keys and values.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xlsm_engine::Db;
use xlsm_sim::rng::Xoshiro256;
use xlsm_workload::keys::{thread_rng, Zipfian};
use xlsm_workload::{KeySpace, ValueGenerator};

use crate::spec::{Keys, Leg};

/// What the generators drive. `Db` in the benchmark; a fake in the tests.
pub trait Target: Send + Sync + 'static {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, String>;
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), String>;
}

impl Target for Db {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        Db::get(self, key).map_err(|e| e.to_string())
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), String> {
        Db::put(self, key, value).map_err(|e| e.to_string())
    }
}

/// The keys and the one right value of each: every put writes
/// `values.value(idx)`, so that is what a get must return whatever was
/// overwritten in between.
#[derive(Clone, Copy, Debug)]
pub struct Dataset {
    pub keys: KeySpace,
    pub values: ValueGenerator,
}

impl Dataset {
    pub fn new(keys: u64, value_size: usize) -> Dataset {
        Dataset {
            keys: KeySpace::new(keys),
            values: ValueGenerator::new(value_size),
        }
    }

    /// Key plus value bytes of one entry.
    pub fn entry_bytes(&self) -> u64 {
        16 + self.values.size() as u64
    }

    /// Bytes of user data when every key is live.
    pub fn live_bytes(&self) -> u64 {
        self.keys.count() * self.entry_bytes()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    Put,
}

/// One client op, as timed by the benchmark around the call into the target.
#[derive(Clone, Copy, Debug)]
pub struct OpRec {
    pub kind: Kind,
    pub client: u32,
    /// No error, and for a get the right value.
    pub ok: bool,
    /// When the op was meant to start. A closed loop means "now"; the open
    /// loop means the schedule, whatever the system was doing then.
    pub due_ns: u64,
    /// Open loop: when the generator handed it to the workers.
    pub sent_ns: u64,
    /// When the call into the target began.
    pub start_ns: u64,
    pub done_ns: u64,
    /// Host clock, nanoseconds since the run began; 0 when untraced.
    pub host_start_ns: u64,
    pub host_end_ns: u64,
}

impl OpRec {
    /// Latency as the user sees it: from when the op was due.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }
}

/// Whether host timestamps are taken around each op (the traced run).
#[derive(Clone, Copy, Debug)]
pub struct HostClock {
    origin: Instant,
    on: bool,
}

impl HostClock {
    pub fn new(origin: Instant, on: bool) -> HostClock {
        HostClock { origin, on }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the run began, read even when untraced.
    pub fn read(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The same clock with the per-op stamps off.
    pub fn untraced(self) -> HostClock {
        HostClock { on: false, ..self }
    }

    /// The same, or 0 when untraced: the per-op reads tracing adds.
    fn stamp(&self) -> u64 {
        if self.on {
            self.read()
        } else {
            0
        }
    }
}

/// A `(kind, key index)` source drawn from the seed; `stream` separates
/// clients and phases.
fn op_source(data: Dataset, dist: Keys, seed: u64, stream: u64) -> impl FnMut(f64) -> (Kind, u64) {
    let mut key_rng = thread_rng(seed, stream);
    let mut coin = Xoshiro256::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let zipf = match dist {
        Keys::Zipfian(theta) => Some(Zipfian::new(data.keys.count(), theta)),
        Keys::Uniform => None,
    };
    move |write_frac| {
        let idx = match &zipf {
            Some(z) => z.sample(&mut key_rng),
            None => data.keys.uniform(&mut key_rng),
        };
        let kind = if coin.next_f64() < write_frac {
            Kind::Put
        } else {
            Kind::Get
        };
        (kind, idx)
    }
}

/// One scheduled op: what, on which key, and when it is due.
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    pub kind: Kind,
    pub idx: u64,
    /// The open loop's schedule holds times relative to the window's start.
    pub due_ns: u64,
}

/// Runs one op against the target, checks it, and returns the record.
fn issue<T: Target>(
    target: &T,
    data: &Dataset,
    op: Arrival,
    client: u32,
    sent_ns: u64,
    clock: &HostClock,
) -> OpRec {
    let Arrival { kind, idx, due_ns } = op;
    let key = data.keys.key(idx);
    let value = data.values.value(idx);
    let host_start_ns = clock.stamp();
    let start_ns = xlsm_sim::now_nanos();
    let result = match kind {
        Kind::Put => target.put(&key, &value).map(|()| None),
        Kind::Get => target.get(&key),
    };
    let done_ns = xlsm_sim::now_nanos();
    let host_end_ns = clock.stamp();
    let ok = match (kind, result) {
        (Kind::Put, Ok(_)) => true,
        (Kind::Get, Ok(Some(got))) => got == value,
        _ => false,
    };
    OpRec {
        kind,
        client,
        ok,
        due_ns,
        sent_ns,
        start_ns,
        done_ns,
        host_start_ns,
        host_end_ns,
    }
}

/// One op outside any loop (the load, the read-back check), due now.
pub fn one<T: Target>(
    target: &T,
    data: &Dataset,
    kind: Kind,
    idx: u64,
    clock: &HostClock,
) -> OpRec {
    let now = xlsm_sim::now_nanos();
    let op = Arrival {
        kind,
        idx,
        due_ns: now,
    };
    issue(target, data, op, 0, now, clock)
}

/// A point of the window's progress, taken by whichever client completes
/// the op that crosses it.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    pub ops_done: u64,
    pub host_ns: u64,
    /// What the probe read there (cumulative byte counters).
    pub probe: [u64; 2],
}

/// Counts completed ops across clients and takes a [`Mark`] every
/// `every` ops.
pub struct Progress {
    done: AtomicU64,
    every: u64,
    clock: HostClock,
    probe: Box<dyn Fn() -> [u64; 2] + Send + Sync>,
    marks: Mutex<Vec<Mark>>,
}

impl Progress {
    pub fn new(
        every: u64,
        clock: HostClock,
        probe: impl Fn() -> [u64; 2] + Send + Sync + 'static,
    ) -> Arc<Progress> {
        let p = Progress {
            done: AtomicU64::new(0),
            every: every.max(1),
            clock,
            probe: Box::new(probe),
            marks: Mutex::new(Vec::new()),
        };
        p.mark(0);
        Arc::new(p)
    }

    fn mark(&self, ops_done: u64) {
        let mark = Mark {
            ops_done,
            host_ns: self.clock.read(),
            probe: (self.probe)(),
        };
        self.marks.lock().expect("marks lock poisoned").push(mark);
    }

    fn op_done(&self) {
        // Relaxed: one sim thread runs at a time; the count publishes nothing.
        let n = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.every) {
            self.mark(n);
        }
    }

    pub fn ops_done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// The marks in the order taken, the start of the window first.
    pub fn marks(&self) -> Vec<Mark> {
        self.marks.lock().expect("marks lock poisoned").clone()
    }
}

/// What a generator hands back.
#[derive(Debug, Default)]
pub struct LoadResult {
    pub ops: Vec<OpRec>,
    /// Ops the generator meant to issue.
    pub scheduled: u64,
    /// Host time in the benchmark's own client code, traced runs only: from
    /// an op's return to the next op's call on the same sim thread, during
    /// which that thread alone runs.
    pub own_host_ns: u64,
    /// Open loop: arrivals waiting for a worker as the generator saw them
    /// when it sent the next one: the most, and at the last arrival.
    pub backlog_max: u64,
    pub backlog_end: u64,
}

/// Closed loop: `clients` sim threads, each issuing `ops_per_client` ops
/// back to back.
#[allow(clippy::too_many_arguments)]
pub fn run_closed<T: Target>(
    target: &Arc<T>,
    data: Dataset,
    dist: Keys,
    seed: u64,
    clients: u64,
    ops_per_client: u64,
    write_frac: f64,
    clock: HostClock,
    progress: &Arc<Progress>,
) -> LoadResult {
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let target = Arc::clone(target);
            let progress = Arc::clone(progress);
            xlsm_sim::spawn(&format!("client-{c}"), move || {
                let mut next = op_source(data, dist, seed, c);
                let mut ops = Vec::with_capacity(ops_per_client as usize);
                let mut own_host_ns = 0;
                let mut returned_ns = clock.stamp();
                for _ in 0..ops_per_client {
                    let (kind, idx) = next(write_frac);
                    let due_ns = xlsm_sim::now_nanos();
                    let op = Arrival { kind, idx, due_ns };
                    let rec = issue(&*target, &data, op, c as u32, due_ns, &clock);
                    // Key, value and check are built inside `issue` but
                    // outside its host stamps, so they count as ours.
                    own_host_ns += rec.host_start_ns - returned_ns;
                    ops.push(rec);
                    progress.op_done();
                    returned_ns = rec.host_end_ns;
                }
                (ops, own_host_ns)
            })
        })
        .collect();
    let mut out = LoadResult {
        scheduled: clients * ops_per_client,
        ..LoadResult::default()
    };
    for h in handles {
        let (ops, own) = h.join();
        out.ops.extend(ops);
        out.own_host_ns += own;
    }
    out
}

/// The open loop's schedule: `cycles` times a base leg then a burst leg,
/// arrivals evenly spaced at each leg's rate, leg lengths times
/// `length_scale`.
pub fn schedule(
    data: Dataset,
    dist: Keys,
    seed: u64,
    cycles: u64,
    legs: [Leg; 2],
    length_scale: f64,
) -> Vec<Arrival> {
    let mut next = op_source(data, dist, seed, 0);
    let mut out = Vec::new();
    let mut leg_start = 0u64;
    for _ in 0..cycles {
        for leg in legs {
            let gap_ns = 1e9 / leg.ops_per_s;
            let n = (leg.virt_s * length_scale * leg.ops_per_s).round() as u64;
            for i in 0..n {
                let (kind, idx) = next(leg.write_frac);
                out.push(Arrival {
                    kind,
                    idx,
                    due_ns: leg_start + (i as f64 * gap_ns) as u64,
                });
            }
            leg_start += (n as f64 * gap_ns) as u64;
        }
    }
    out
}

/// Open loop: a generator sim thread sleeps to each arrival's due time and
/// hands it to `workers` sim threads over an unbounded channel, whatever the
/// target is doing. An op that waits behind a stalled one is late from its
/// due time, not from when a worker got to it.
pub fn run_open<T: Target>(
    target: &Arc<T>,
    data: Dataset,
    arrivals: Vec<Arrival>,
    workers: u64,
    clock: HostClock,
    progress: &Arc<Progress>,
) -> LoadResult {
    let (tx, rx) = xlsm_sim::sync::channel::<(Arrival, u64)>("arrivals");
    let origin_ns = xlsm_sim::now_nanos();
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let target = Arc::clone(target);
            let progress = Arc::clone(progress);
            let rx = rx.clone();
            xlsm_sim::spawn(&format!("worker-{w}"), move || {
                let mut ops = Vec::new();
                let mut own_host_ns = 0;
                while let Some((a, sent_ns)) = rx.recv() {
                    let received_ns = clock.stamp();
                    let rec = issue(&*target, &data, a, w as u32, sent_ns, &clock);
                    own_host_ns += rec.host_start_ns - received_ns;
                    ops.push(rec);
                    progress.op_done();
                    own_host_ns += clock.stamp() - rec.host_end_ns;
                }
                (ops, own_host_ns)
            })
        })
        .collect();
    let mut out = LoadResult {
        scheduled: arrivals.len() as u64,
        ..LoadResult::default()
    };
    for mut a in arrivals {
        a.due_ns += origin_ns;
        let now = xlsm_sim::now_nanos();
        if now < a.due_ns {
            xlsm_sim::sleep_nanos(a.due_ns - now);
        }
        let woke_ns = clock.stamp();
        // Seen before this arrival joins the queue: what is still waiting
        // from earlier ones.
        out.backlog_end = rx.len() as u64;
        out.backlog_max = out.backlog_max.max(out.backlog_end);
        if tx.send((a, xlsm_sim::now_nanos())).is_err() {
            break;
        }
        out.own_host_ns += clock.stamp() - woke_ns;
    }
    tx.close();
    for h in handles {
        let (ops, own) = h.join();
        out.ops.extend(ops);
        out.own_host_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    const STALL_AT_NS: u64 = 100_000_000;
    const STALL_NS: u64 = 50_000_000;
    const SERVICE_NS: u64 = 10_000;

    /// Serves from memory in 10 us, except that the first put at or after
    /// 100 ms stalls for 50 ms.
    struct StallingTarget {
        map: Mutex<HashMap<Vec<u8>, Vec<u8>>>,
        stalled: AtomicU64,
    }

    impl Target for StallingTarget {
        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
            xlsm_sim::sleep_nanos(SERVICE_NS);
            Ok(self.map.lock().unwrap().get(key).cloned())
        }
        fn put(&self, key: &[u8], value: &[u8]) -> Result<(), String> {
            let stall = xlsm_sim::now_nanos() >= STALL_AT_NS
                && self.stalled.fetch_add(1, Ordering::Relaxed) == 0;
            xlsm_sim::sleep_nanos(if stall { STALL_NS } else { SERVICE_NS });
            self.map
                .lock()
                .unwrap()
                .insert(key.to_vec(), value.to_vec());
            Ok(())
        }
    }

    fn fixture() -> (Arc<StallingTarget>, Dataset, Arc<Progress>, HostClock) {
        let clock = HostClock::new(Instant::now(), false);
        let target = Arc::new(StallingTarget {
            map: Mutex::new(HashMap::new()),
            stalled: AtomicU64::new(0),
        });
        (
            target,
            Dataset::new(64, 32),
            Progress::new(100, clock, || [0, 0]),
            clock,
        )
    }

    /// The coordinated-omission test: 10 000 puts/s for 200 ms against one
    /// worker. The 50 ms stall must show in every op that was due while it
    /// lasted, counted from the due time, not only in the one op that hit it.
    #[test]
    fn open_loop_counts_the_wait_a_stall_imposes_on_later_ops() {
        xlsm_sim::Runtime::new().run(|| {
            let (target, data, progress, clock) = fixture();
            let leg = Leg {
                virt_s: 0.2,
                ops_per_s: 10_000.0,
                write_frac: 1.0,
            };
            let none = Leg { virt_s: 0.0, ..leg };
            let arrivals = schedule(data, Keys::Uniform, 7, 1, [leg, none], 1.0);
            assert_eq!(arrivals.len(), 2000);
            let r = run_open(&target, data, arrivals, 1, clock, &progress);
            assert_eq!(r.ops.len(), 2000);
            assert!(r.ops.iter().all(|o| o.ok));
            let stall_end = STALL_AT_NS + STALL_NS;
            let due_in_stall: Vec<&OpRec> = r
                .ops
                .iter()
                .filter(|o| o.due_ns > STALL_AT_NS && o.due_ns < stall_end)
                .collect();
            assert!(
                due_in_stall.len() >= 490,
                "{} ops due in the stall",
                due_in_stall.len()
            );
            for o in &due_in_stall {
                assert!(
                    o.latency_ns() >= stall_end - o.due_ns,
                    "op due at {} finished {} ns later: the stall is hidden",
                    o.due_ns,
                    o.latency_ns()
                );
            }
            // A closed loop would have seen one slow op; timed from when a
            // worker got to them, so do these.
            let slow_from_start = r
                .ops
                .iter()
                .filter(|o| o.done_ns - o.start_ns > 1_000_000)
                .count();
            assert_eq!(slow_from_start, 1);
            let slow_from_due = r.ops.iter().filter(|o| o.latency_ns() > 1_000_000).count();
            assert!(
                slow_from_due >= 490,
                "{slow_from_due} ops late from their due time"
            );
            assert!(r.backlog_max >= 490, "backlog_max {}", r.backlog_max);
            assert_eq!(
                r.backlog_end, 0,
                "the queue drains before the schedule ends"
            );
            assert_eq!(progress.ops_done(), 2000);
        });
    }

    #[test]
    fn closed_loop_checks_values_and_counts_failures() {
        xlsm_sim::Runtime::new().run(|| {
            let (target, data, progress, clock) = fixture();
            // Nothing was loaded: every get misses, which is a failed op,
            // not a panic.
            let r = run_closed(
                &target,
                data,
                Keys::Uniform,
                3,
                2,
                50,
                0.0,
                clock,
                &progress,
            );
            assert_eq!(r.ops.len(), 100);
            assert!(r.ops.iter().all(|o| o.kind == Kind::Get && !o.ok));
            for idx in 0..64 {
                target
                    .put(&data.keys.key(idx), &data.values.value(idx))
                    .unwrap();
            }
            let r = run_closed(
                &target,
                data,
                Keys::Uniform,
                3,
                2,
                50,
                0.5,
                clock,
                &progress,
            );
            assert!(r.ops.iter().all(|o| o.ok));
            assert!(r.ops.iter().any(|o| o.kind == Kind::Put));
            assert_eq!(progress.marks().len(), 3, "start, 100 and 200 ops");
        });
    }

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let data = Dataset::new(1000, 8);
        let base = Leg {
            virt_s: 0.01,
            ops_per_s: 20_000.0,
            write_frac: 0.1,
        };
        let burst = Leg {
            virt_s: 0.01,
            ops_per_s: 40_000.0,
            write_frac: 0.9,
        };
        let key = |a: &Arrival| (a.kind == Kind::Put, a.idx, a.due_ns);
        let one: Vec<_> = schedule(data, Keys::Zipfian(0.99), 5, 2, [base, burst], 1.0)
            .iter()
            .map(key)
            .collect();
        let two: Vec<_> = schedule(data, Keys::Zipfian(0.99), 5, 2, [base, burst], 1.0)
            .iter()
            .map(key)
            .collect();
        let other: Vec<_> = schedule(data, Keys::Zipfian(0.99), 6, 2, [base, burst], 1.0)
            .iter()
            .map(key)
            .collect();
        assert_eq!(one.len(), 2 * (200 + 400));
        assert_eq!(one, two);
        assert_ne!(one, other);
        assert!(one.windows(2).all(|w| w[0].2 <= w[1].2), "due times ascend");
        assert_eq!(
            one[200].2, 10_000_000,
            "the burst leg starts where the base leg ends"
        );
    }
}
