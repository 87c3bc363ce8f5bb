//! Virtual-time golden for the background daemons.
//!
//! One small database runs every daemon at once: flush, compaction, the
//! scrubber, the paced trash reaper and the space watcher under a space cap.
//! The cap is tight enough that the trash backlog of the load's compactions
//! stalls a flush on ENOSPC twice, and each stall ends on its own: the
//! reaper reclaims the backlog and the watcher's next poll resumes the
//! writers.
//!
//! The golden pins the virtual clock at four checkpoints, the tickers each
//! daemon moves, and the run-token hand-offs that woke each daemon thread
//! (`xlsm_sim::runtime::switches_by_thread`). A daemon that ticks at another
//! time, sleeps once more or less, or wakes in another order against its
//! siblings moves a literal here. The literals were captured at 426726b,
//! while each daemon was still a loop of its own.

use xlsm_device::{profiles, SimDevice};
use xlsm_engine::{Db, DbOptions, Ticker};
use xlsm_sim::rng::Xoshiro256;
use xlsm_sim::runtime::switches_by_thread;
use xlsm_sim::{now_nanos, sleep_nanos, Nanos, Runtime};
use xlsm_simfs::{FsOptions, SimFs};

/// The daemon threads, in spawn order, as `switches_by_thread` names them.
const DAEMONS: [&str; 5] = [
    "flush-",
    "compact-",
    "scrub-",
    "trash-reaper-",
    "space-watcher-",
];

const KEYS: u64 = 2_000;
const WRITES: u64 = 6_000;

#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// `now_nanos()` after the load, after flush + compaction, once the
    /// trash backlog is reclaimed, and after close.
    checkpoints: [Nanos; 4],
    /// `ScrubBytesVerified`, `SpaceReclaimedBytes`, `EnospcStalls`,
    /// `BackgroundAutoResumes`, then `scrub_pass.count()`.
    tickers: [u64; 5],
    /// Hand-offs that woke each of [`DAEMONS`].
    switches: [u64; 5],
}

fn run() -> Golden {
    Runtime::new().run(|| {
        let fs = SimFs::new(
            SimDevice::shared(profiles::optane_900p()),
            FsOptions::default(),
        );
        let opts = DbOptions {
            write_buffer_size: 64 << 10,
            level0_file_num_compaction_trigger: 2,
            target_file_size_base: 64 << 10,
            max_bytes_for_level_base: 256 << 10,
            scrub_rate_bytes_per_sec: 4 << 20,
            sst_delete_rate_bytes_per_sec: 256 << 10,
            max_allowed_space_bytes: 768 << 10,
            space_poll_interval_ns: 2_000_000,
            ..DbOptions::default()
        };
        let db = Db::open(fs, opts).unwrap();
        let mut rng = Xoshiro256::new(0x38_0001);
        let mut checkpoints = [0; 4];

        for i in 0..WRITES {
            let k = rng.next_below(KEYS);
            let value = format!("val{k:05}-{i:05}-{}", "x".repeat(96));
            db.put(format!("key{k:05}").as_bytes(), value.as_bytes())
                .unwrap();
        }
        checkpoints[0] = now_nanos();
        // The cap that stalled the load would defer the last compactions
        // for good (their inputs plus the live set exceed it); lift it so
        // the tail drains.
        db.set_max_allowed_space_bytes(16 << 20);
        db.flush().unwrap();
        db.wait_for_compactions();
        checkpoints[1] = now_nanos();
        while db.trash_queued_bytes() > 0 {
            sleep_nanos(1_000_000);
        }
        checkpoints[2] = now_nanos();
        db.close();
        checkpoints[3] = now_nanos();

        let stats = db.stats();
        let tickers = [
            stats.ticker(Ticker::ScrubBytesVerified),
            stats.ticker(Ticker::SpaceReclaimedBytes),
            stats.ticker(Ticker::EnospcStalls),
            stats.ticker(Ticker::BackgroundAutoResumes),
            stats.scrub_pass.count(),
        ];
        let by_thread = switches_by_thread();
        let switches = DAEMONS.map(|name| {
            by_thread
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, s)| s)
        });
        Golden {
            checkpoints,
            tickers,
            switches,
        }
    })
}

#[test]
fn every_daemon_keeps_its_ticks() {
    let got = run();
    assert!(got.tickers[2] >= 1, "the run must stall on ENOSPC: {got:?}");
    assert!(got.tickers[3] >= 1, "the stall must auto-resume: {got:?}");
    let want = Golden {
        checkpoints: [181_561_526, 199_579_126, 1_887_579_126, 2_066_256_215],
        tickers: [4_647_472, 541_647, 2, 2, 17],
        switches: [306, 274, 176, 14, 883],
    };
    assert_eq!(got, want);
}
