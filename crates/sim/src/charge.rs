//! Where virtual time goes: one list of cost classes and one charge path.
//!
//! A sim thread's clock moves only while it sleeps or blocks. [`charge`]
//! sleeps and adds the sleep to the thread's [`Charges`] under a [`Class`];
//! [`waited`] adds a blocking wait its call site has timed. An op's parts are
//! the difference of two [`charges`] readings taken around it, and they sum
//! to its virtual latency. Every sim thread, the root of each
//! [`Runtime::run`](crate::Runtime::run) included, starts at zero.
//!
//! The host clock has the same breakdown when a runtime is built with
//! [`Runtime::attribute_host_time`](crate::Runtime::attribute_host_time):
//! the host time a thread ran since its last charge or resume goes to the
//! class it charges next, and the scheduler's pick and the body's hand-off
//! get rows of their own ([`host_times`]).

use crate::runtime::{sleep_charged, with_ctx, Nanos};
use std::ops::{Add, Sub};
use std::time::Instant;

/// What a charged nanosecond was spent on. The variants are the one list of
/// classes: the engine's `costs.rs` roles, the file system's host copy, the
/// device's four costs and the blocking waits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Entering a get or a write: key hashing, version pinning, batch setup.
    Setup,
    /// Encoding a WAL record.
    WalEncode,
    /// Computing or verifying per-key-value protection.
    Protection,
    /// Searching a memtable's skiplist.
    MemtableProbe,
    /// Inserting into a memtable's skiplist.
    MemtableInsert,
    /// Looking a table up in the table cache.
    TableCacheFind,
    /// Checking a whole-key or prefix bloom filter.
    Bloom,
    /// The fixed per-table cost of a point lookup.
    TableLookup,
    /// Binary search over a table's index or a block's entries.
    Search,
    /// Decoding a table block.
    BlockDecode,
    /// Decompressing a table block.
    BlockDecompress,
    /// Merging entries in a compaction.
    Merge,
    /// Writing memtable entries to a table.
    Flush,
    /// The file system's per-call cost and copy between caller and page cache.
    HostCopy,
    /// Waiting for a free device channel.
    DeviceQueue,
    /// Device service: bus transfer plus media time or buffer insert.
    DeviceService,
    /// A device write stalled behind a full write buffer.
    DeviceBufferStall,
    /// A device `sync` waiting for the write buffer to drain.
    DeviceSyncWait,
    /// A writer queued until the leader of its group started the group.
    WriterQueue,
    /// Waiting to enter the memtable stage behind the previous group.
    MemtableStage,
    /// A concurrent group's leader waiting for its members' inserts.
    GroupApply,
    /// Algorithm 1's delay pacing.
    Delay,
    /// Writers held by a stop condition or an out-of-space stall.
    Stop,
    /// Waiting for another MANIFEST install to finish.
    Install,
    /// Background I/O waiting for the shared byte budget.
    BgIoBudget,
    /// A `multi_get` waiting for its probe threads.
    MultiGetJoin,
    /// Rate pacing of a background scan.
    Pacing,
    /// Backing off before a failed background job retries.
    Backoff,
    /// An idle poll of a background worker or a diagnostic helper.
    Idle,
}

impl Class {
    /// Every class, in declaration order.
    pub const ALL: [Class; Class::Idle as usize + 1] = {
        use Class::*;
        [
            Setup,
            WalEncode,
            Protection,
            MemtableProbe,
            MemtableInsert,
            TableCacheFind,
            Bloom,
            TableLookup,
            Search,
            BlockDecode,
            BlockDecompress,
            Merge,
            Flush,
            HostCopy,
            DeviceQueue,
            DeviceService,
            DeviceBufferStall,
            DeviceSyncWait,
            WriterQueue,
            MemtableStage,
            GroupApply,
            Delay,
            Stop,
            Install,
            BgIoBudget,
            MultiGetJoin,
            Pacing,
            Backoff,
            Idle,
        ]
    };
}

/// Nanoseconds per [`Class`]: virtual in a thread's charges, host in
/// [`HostTimes::classes`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Charges([Nanos; Class::Idle as usize + 1]);

impl Charges {
    /// Nanoseconds charged to `class`.
    pub fn get(&self, class: Class) -> Nanos {
        self.0[class as usize]
    }

    /// Adds `ns` to `class`.
    pub fn record(&mut self, class: Class, ns: Nanos) {
        self.0[class as usize] += ns;
    }

    /// Nanoseconds charged to all classes.
    pub fn total(&self) -> Nanos {
        self.0.iter().sum()
    }
}

impl Add for Charges {
    type Output = Charges;
    fn add(self, rhs: Charges) -> Charges {
        Charges(std::array::from_fn(|i| self.0[i] + rhs.0[i]))
    }
}

impl Sub for Charges {
    type Output = Charges;
    fn sub(self, rhs: Charges) -> Charges {
        Charges(std::array::from_fn(|i| self.0[i] - rhs.0[i]))
    }
}

/// Sleeps `ns` exactly as [`sleep_nanos`](crate::sleep_nanos) does, so
/// `charge(c, 0)` still yields, and charges the sleep to `class`.
pub fn charge(class: Class, ns: Nanos) {
    charge_split(&[(class, ns)]);
}

/// One sleep with several causes: sleeps once for the sum of `parts` and
/// charges each part to its class. Attributed host time goes to the first
/// part's class.
pub fn charge_split(parts: &[(Class, Nanos)]) {
    sleep_charged(parts.iter().map(|&(_, ns)| ns).sum(), parts);
    with_ctx(|ctx| {
        let mut charges = ctx.charges.borrow_mut();
        for &(class, ns) in parts {
            charges.record(class, ns);
        }
    });
}

/// Charges `ns` the caller has already spent blocked to `class`.
pub fn waited(class: Class, ns: Nanos) {
    with_ctx(|ctx| {
        ctx.charges.borrow_mut().record(class, ns);
        ctx.host(|h| h.times.virt.record(class, ns));
    });
}

/// What the calling sim thread has been charged so far.
pub fn charges() -> Charges {
    with_ctx(|ctx| *ctx.charges.borrow())
}

/// Replaces the calling thread's charges: an op that another thread
/// finished on its behalf takes that thread's parts instead of its own.
pub fn set_charges(charges: Charges) {
    with_ctx(|ctx| *ctx.charges.borrow_mut() = charges);
}

/// Where a runtime's host time went, from its start: the run of every
/// thread up to each charge under the charge's class, plus the scheduler
/// and hand-off rows. Kept by a runtime built with
/// [`Runtime::attribute_host_time`](crate::Runtime::attribute_host_time).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostTimes {
    /// Host nanoseconds each class's charges paid for: the time a thread
    /// ran since its last charge or resume, added at its next charge to the
    /// class of that charge's first part.
    pub classes: Charges,
    /// Virtual nanoseconds charged to each class, by every thread.
    pub virt: Charges,
    /// Host nanoseconds the scheduler spent deciding who runs next.
    pub scheduler: Nanos,
    /// Host nanoseconds from a pick to the chosen thread running: the
    /// body's hand-off.
    pub switch: Nanos,
    /// Host nanoseconds threads ran after their last charge before exiting.
    pub uncharged: Nanos,
}

impl HostTimes {
    /// Host nanoseconds of every row.
    pub fn total(&self) -> Nanos {
        self.classes.total() + self.scheduler + self.switch + self.uncharged
    }
}

impl Sub for HostTimes {
    type Output = HostTimes;
    fn sub(self, rhs: HostTimes) -> HostTimes {
        HostTimes {
            classes: self.classes - rhs.classes,
            virt: self.virt - rhs.virt,
            scheduler: self.scheduler - rhs.scheduler,
            switch: self.switch - rhs.switch,
            uncharged: self.uncharged - rhs.uncharged,
        }
    }
}

/// The calling runtime's [`HostTimes`] so far, or `None` when it does not
/// attribute host time. The caller's run since its last charge is not in
/// them yet: it goes to the class the caller charges next.
pub fn host_times() -> Option<HostTimes> {
    with_ctx(|ctx| {
        let mut times = None;
        ctx.host(|h| times = Some(h.times));
        times
    })
}

/// The host-time books of one runtime. Only the thread holding the run
/// token writes them, and each clock read closes the segment the one
/// before it opened.
#[derive(Debug)]
pub(crate) struct Ledger {
    times: HostTimes,
    /// When the open segment started.
    mark: Instant,
    /// Per tid, host nanoseconds run since the thread's last charge and
    /// not yet attributed: a wait that is not a charge leaves them here
    /// for the thread's next charge.
    pending: Vec<Nanos>,
}

impl Ledger {
    pub(crate) fn new() -> Ledger {
        Ledger {
            times: HostTimes::default(),
            mark: Instant::now(),
            pending: Vec::new(),
        }
    }

    /// Closes the open segment and returns its length.
    fn lap(&mut self) -> Nanos {
        let now = Instant::now();
        let ns = now.duration_since(self.mark).as_nanos() as Nanos;
        self.mark = now;
        ns
    }

    /// Thread `tid` stops to charge `parts`, or with none to wait: its run
    /// since its last charge goes to the first part's class, or waits for
    /// its next charge.
    pub(crate) fn ran(&mut self, tid: usize, parts: &[(Class, Nanos)]) {
        let ns = self.lap();
        if self.pending.len() <= tid {
            self.pending.resize(tid + 1, 0);
        }
        let Some(&(first, _)) = parts.first() else {
            self.pending[tid] += ns;
            return;
        };
        let ran = ns + std::mem::take(&mut self.pending[tid]);
        self.times.classes.record(first, ran);
        for &(class, ns) in parts {
            self.times.virt.record(class, ns);
        }
    }

    /// The scheduler has decided who runs next.
    pub(crate) fn picked(&mut self) {
        self.times.scheduler += self.lap();
    }

    /// A thread holds the token again after a hand-off.
    pub(crate) fn resumed(&mut self) {
        self.times.switch += self.lap();
    }

    /// Thread `tid` exits: its run since its last charge has no class.
    pub(crate) fn exited(&mut self, tid: usize) {
        self.ran(tid, &[]);
        self.times.uncharged += std::mem::take(&mut self.pending[tid]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{now_nanos, sleep_nanos, spawn, stats, Runtime};
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// The root spawns a child, then gives up the run token with `zero`.
    /// Returns who ran first and the scheduler's counters.
    fn zero_sleep_order(zero: fn()) -> (Vec<&'static str>, u64, u64) {
        Runtime::new().run(move || {
            let log = Arc::new(Mutex::new(Vec::new()));
            let child_log = Arc::clone(&log);
            let child = spawn("child", move || child_log.lock().push("child"));
            zero();
            log.lock().push("root");
            child.join();
            let s = stats();
            let order = log.lock().clone();
            (order, s.switches, s.timer_events)
        })
    }

    #[test]
    fn all_lists_every_class_at_its_index() {
        for (i, class) in Class::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, i, "{class:?}");
        }
    }

    #[test]
    fn charge_zero_yields_like_sleep_zero() {
        let slept = zero_sleep_order(|| sleep_nanos(0));
        let charged = zero_sleep_order(|| {
            charge(Class::Setup, 0);
            assert_eq!(charges(), Charges::default());
        });
        assert_eq!(slept.0, ["child", "root"], "sleep_nanos(0) yields");
        assert_eq!(charged, slept);
    }

    /// Three threads that charge, sleep bare, wait on each other and exit,
    /// on `rt`: the schedule, the clock and, when kept, the host books.
    fn attributed_run(rt: Runtime) -> (Vec<u64>, u64, u64, u64, Option<HostTimes>) {
        rt.run(|| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let workers: Vec<_> = (0..3u64)
                .map(|i| {
                    let log = Arc::clone(&log);
                    spawn("worker", move || {
                        for k in 0..50 {
                            charge(Class::Merge, 100 + i * 7 + k % 5);
                            if k % 7 == 0 {
                                sleep_nanos(30);
                            }
                            charge_split(&[(Class::DeviceService, 40), (Class::DeviceQueue, i)]);
                            log.lock().push(i * 1_000 + now_nanos());
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join();
            }
            waited(Class::Stop, 5);
            let s = stats();
            let order = log.lock().clone();
            (order, s.switches, s.timer_events, s.now, host_times())
        })
    }

    #[test]
    fn host_attribution_moves_no_virtual_number() {
        let started = std::time::Instant::now();
        let (order, switches, timers, now, times) =
            attributed_run(Runtime::new().attribute_host_time());
        let wall = started.elapsed().as_nanos() as Nanos;
        let off = attributed_run(Runtime::new());
        assert_eq!(
            (&order, switches, timers, now),
            (&off.0, off.1, off.2, off.3)
        );
        assert_eq!(off.4, None, "no books unless asked for");
        let times = times.expect("books kept");
        // Each worker's `k % 5` sums to 100 over its 50 charges.
        let merge: Nanos = (0..3).map(|i| 50 * (100 + i * 7) + 100).sum();
        assert_eq!(times.virt.get(Class::Merge), merge);
        assert_eq!(times.virt.get(Class::DeviceService), 3 * 50 * 40);
        assert_eq!(times.virt.get(Class::DeviceQueue), 50 * 3);
        assert_eq!(times.virt.get(Class::Stop), 5, "a timed wait is booked too");
        assert!(times.classes.get(Class::Merge) > 0 && times.scheduler > 0 && times.switch > 0);
        assert_eq!(
            times.classes.get(Class::DeviceQueue),
            0,
            "host time goes to the first part"
        );
        assert!(
            times.total() <= wall,
            "{} ns of rows in {wall} ns",
            times.total()
        );
    }

    #[test]
    fn charges_add_up_to_the_clock() {
        for _ in 0..2 {
            Runtime::new().run(|| {
                assert_eq!(charges(), Charges::default(), "each run starts at zero");
                charge(Class::Setup, 100);
                charge_split(&[(Class::DeviceService, 30), (Class::DeviceBufferStall, 20)]);
                assert_eq!(now_nanos(), 150);
                let c = charges();
                assert_eq!(c.get(Class::DeviceBufferStall), 20);
                assert_eq!(c.total(), 150);
                let child = spawn("child", || {
                    let fresh = charges();
                    waited(Class::Stop, 7);
                    (fresh, charges().get(Class::Stop))
                });
                assert_eq!(child.join(), (Charges::default(), 7));
                assert_eq!(charges(), c, "a child's charges are its own");
            });
        }
    }
}
