//! Where virtual time goes: one list of cost classes and one charge path.
//!
//! A sim thread's clock moves only while it sleeps or blocks. [`charge`]
//! sleeps and adds the sleep to the thread's [`Charges`] under a [`Class`];
//! [`waited`] adds a blocking wait its call site has timed. An op's parts are
//! the difference of two [`charges`] readings taken around it, and they sum
//! to its virtual latency. Every sim thread, the root of each
//! [`Runtime::run`](crate::Runtime::run) included, starts at zero.

use crate::runtime::{sleep_nanos, with_ctx, Nanos};
use std::ops::{Add, Sub};

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

/// Virtual nanoseconds per [`Class`].
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

/// Sleeps `ns` exactly as [`sleep_nanos`] does, so `charge(c, 0)` still
/// yields, and charges the sleep to `class`.
pub fn charge(class: Class, ns: Nanos) {
    charge_split(&[(class, ns)]);
}

/// One sleep with several causes: sleeps once for the sum of `parts` and
/// charges each part to its class.
pub fn charge_split(parts: &[(Class, Nanos)]) {
    sleep_nanos(parts.iter().map(|&(_, ns)| ns).sum());
    for &(class, ns) in parts {
        waited(class, ns);
    }
}

/// Charges `ns` the caller has already spent blocked to `class`.
pub fn waited(class: Class, ns: Nanos) {
    with_ctx(|ctx| ctx.charges.borrow_mut().record(class, ns));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{now_nanos, spawn, stats, Runtime};
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
    fn charge_zero_yields_like_sleep_zero() {
        let slept = zero_sleep_order(|| sleep_nanos(0));
        let charged = zero_sleep_order(|| {
            charge(Class::Setup, 0);
            assert_eq!(charges(), Charges::default());
        });
        assert_eq!(slept.0, ["child", "root"], "sleep_nanos(0) yields");
        assert_eq!(charged, slept);
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
