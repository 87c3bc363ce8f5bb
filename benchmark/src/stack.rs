//! Set-up common to every workload: a device cut to 8x the dataset and, if
//! flash, written full once; simfs with the study's page cache; the engine
//! at `DbOptions::default()` (WAL on, `wal_sync=false`,
//! `wal_bytes_per_sync=16 KiB`: the flush policy on both sides of any
//! comparison); every key loaded once; background work settled and Level 0
//! compacted away.

use std::sync::Arc;
use xlsm_core::experiment::{scaled_fs_options, Testbed};
use xlsm_device::{Device, DeviceSnapshot, SimDevice};
use xlsm_engine::{Db, DbOptions, DbResult};
use xlsm_simfs::SimFs;

use crate::loadgen::{self, Dataset, Kind, OpRec, Progress};
use crate::spec::WorkloadDef;
use crate::trace::{Span, Tracer};

/// 48 Ki keys x 1 KiB values: about 49 MiB live against a 2 MiB block cache
/// and a 4 MiB page cache, the study geometry of DESIGN.md.
pub const KEYS: u64 = 48 << 10;
pub const VALUE_SIZE: usize = 1024;
/// At 4x the dataset compaction dies with device-full.
const CAPACITY_OVER_DATASET: u64 = 8;
/// simfs grows files a mebibyte at a time, so a device scaled down with the
/// dataset (tests only) must still hold a few dozen files.
const MIN_CAPACITY_BYTES: u64 = 128 << 20;
/// Share of the window's ops run before counters are snapshotted.
const WARMUP_SHARE: f64 = 0.05;

/// A loaded, settled, warmed stack, and how it got there.
pub struct Stack {
    pub tb: Testbed,
    pub data: Dataset,
    /// The load's puts, in order: the only writes some workloads do.
    pub load_ops: Vec<OpRec>,
    /// Device counters before the first and after the last write of the
    /// load (flush and compactions included).
    pub dev_before_load: DeviceSnapshot,
    pub dev_after_load: DeviceSnapshot,
    pub open: Span,
    /// Host time of the whole set-up.
    pub host_ns: u64,
    /// Ops issued / ops that failed during set-up (load and warm-up).
    pub attempted: u64,
    pub failed: u64,
}

/// The dataset at `scale` (1 in every measured run; tests shrink it).
pub fn dataset(scale: f64) -> Dataset {
    let keys = ((KEYS as f64 * scale.min(1.0)) as u64).max(512);
    Dataset::new(keys, VALUE_SIZE)
}

/// Builds the stack for `w`. `window_ops` sizes the warm-up. Must run on a
/// sim thread.
///
/// # Errors
///
/// The engine failed to open, flush or load: nothing can be measured.
pub fn set_up(
    w: &WorkloadDef,
    seed: u64,
    scale: f64,
    window_ops: u64,
    tracer: &mut Tracer,
) -> Result<Stack, String> {
    let host_start_ns = tracer.clock.read();
    let data = dataset(scale);
    let capacity = (data.live_bytes() * CAPACITY_OVER_DATASET).max(MIN_CAPACITY_BYTES);
    let profile = (w.device)().with_capacity_bytes(capacity);

    // Every LPN written once, sequentially, before the filesystem exists:
    // the FTL starts full, not fresh out of the box.
    let device = SimDevice::shared(profile.clone());
    if profile.has_ftl() {
        let span = tracer.begin("phase.precondition", "device", 0);
        let mut lpn = 0;
        while lpn < profile.capacity_pages {
            let pages = (profile.capacity_pages - lpn).min(256) as u32;
            device.write(lpn, pages);
            lpn += u64::from(pages);
        }
        device.sync();
        tracer.end(span, true);
    }

    let span = tracer.begin("phase.open", "core", 0);
    let fs = SimFs::new(
        Arc::clone(&device) as Arc<dyn Device>,
        scaled_fs_options(data.live_bytes()),
    );
    let db = Db::open(Arc::clone(&fs), DbOptions::default());
    let open = tracer.end(span, db.is_ok());
    let tb = Testbed {
        device,
        fs,
        db: Arc::new(db.map_err(|e| format!("open: {e}"))?),
    };

    // The stride permutation of `xlsm_workload::fill_db`, through the
    // checked, timed `put` of the load generator.
    let dev_before_load = tb.device.stats();
    let span = tracer.begin("phase.fill", "engine", 0);
    let load_ops = load(&tb.db, data, seed, tracer);
    let load_failed = load_ops.iter().filter(|o| !o.ok).count() as u64;
    tracer.ops(span.id, &load_ops, false);
    tracer.end(span, load_failed == 0);

    let span = tracer.begin("phase.settle", "engine", 0);
    let flushed = settle(&tb.db);
    tracer.end(span, flushed.is_ok());
    flushed.map_err(|e| format!("flush after load: {e}"))?;
    let dev_after_load = tb.device.stats();

    let span = tracer.begin("phase.warmup", "engine", 0);
    let warm_ops = ((window_ops as f64 * WARMUP_SHARE) as u64).max(1);
    let (clients, write_frac) = w.load.warmup_mix();
    let warm = loadgen::run_closed(
        &tb.db,
        data,
        w.keys,
        seed ^ 0x5EED_0F3A,
        clients,
        warm_ops.div_ceil(clients),
        write_frac,
        tracer.clock.untraced(),
        &Progress::new(u64::MAX, tracer.clock, || [0, 0]),
    );
    let warm_failed = warm.ops.iter().filter(|o| !o.ok).count() as u64;
    tracer.end(span, warm_failed == 0);

    Ok(Stack {
        attempted: load_ops.len() as u64 + warm.ops.len() as u64,
        failed: load_failed + warm_failed,
        tb,
        data,
        load_ops,
        dev_before_load,
        dev_after_load,
        open,
        host_ns: tracer.clock.read() - host_start_ns,
    })
}

/// Flushes the memtables and compacts Level 0 away, then waits until no
/// compaction is warranted. The L0 compaction trigger is lowered to 1 for
/// the settle only and restored after it: the one moment the benchmark
/// touches a knob. Left at the default, settling stops with 0 to 3 L0 files
/// depending on the seed, each of which costs every later get a probe, and
/// `virt_kops` of `readrandom_xpoint` swung 15 % with the seed; from an empty
/// L0 it moves 2 %.
///
/// # Errors
///
/// The flush failed.
pub fn settle(db: &Db) -> DbResult<()> {
    db.flush()?;
    db.set_l0_compaction_trigger(1);
    db.wait_for_compactions();
    db.set_l0_compaction_trigger(0);
    Ok(())
}

/// Puts every key once, one client, in a pseudo-random permutation so key
/// ranges spread across L0 files (like `db_bench fillrandom`).
fn load(db: &Arc<Db>, data: Dataset, seed: u64, tracer: &Tracer) -> Vec<OpRec> {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let n = data.keys.count();
    let mut stride = (n / 2 + seed % 1000) | 1;
    while gcd(stride, n) != 1 {
        stride += 2;
    }
    let mut idx = seed % n;
    (0..n)
        .map(|_| {
            idx = (idx + stride) % n;
            loadgen::one(&**db, &data, Kind::Put, idx, &tracer.clock)
        })
        .collect()
}
