//! Virtual-time golden for the memtable / table / cursor / read layer.
//!
//! One seeded tape per configuration drives load → flush → compaction →
//! `get` → `multi_get` → `scan` → `scan_prefix` on the Optane profile and
//! pins the virtual clock at five checkpoints, a hash of every byte the
//! reads returned, and the tickers that count the layer's work. The literals
//! were captured at b4380f6, before the cursor and table-codec rewrite: a
//! change under `sst/`, `iterator.rs`, `memtable.rs`, `read.rs` or
//! `compaction.rs` that adds, drops or reorders one `sleep_nanos` charge,
//! table-cache lookup or device read moves a literal here, in seconds, where
//! `scripts/same_bytes.sh` takes a build and a three-minute quick suite to
//! say so — and nothing else times `scan_prefix` at all.
//!
//! Re-captured once since, for the second configuration only (the first has
//! no Level-0 file when it scans and runs nothing in parallel, so neither
//! change reaches it): `scan_prefix` looking each kept Level-0 file up once
//! took 3 × `TABLE_CACHE_FIND_NS` off the last checkpoint (29_378_810 →
//! 29_377_760), and deleting the table cache's shard gate then moved the
//! four read checkpoints by at most 0.06 % and `BlockCacheMiss` 297 → 303 —
//! the only threads that ever queued at a gate were the subcompactions of the
//! load, which now issue their reads 350–1,050 ns earlier and leave other
//! pages cached; the load checkpoint itself holds.

use xlsm_device::{profiles, SimDevice};
use xlsm_engine::{CompressionType, Db, DbOptions, Ticker};
use xlsm_sim::rng::Xoshiro256;
use xlsm_sim::{now_nanos, Nanos, Runtime};
use xlsm_simfs::{FsOptions, SimFs};

const KEYS: u64 = 1_500;
/// Keys per 4-byte prefix family (`f000` … `f029`).
const FAMILY: u64 = 50;

fn key(k: u64) -> Vec<u8> {
    format!("f{:03}{k:05}", k / FAMILY).into_bytes()
}

fn value(k: u64, v: u64) -> Vec<u8> {
    format!("val{k:05}-{v:05}-{}", "x".repeat(64)).into_bytes()
}

/// Small buffers, files, blocks and cache: 6,000 writes flush about ten
/// times, compact through L1 into L2, and the reads miss the block cache.
fn base_opts() -> DbOptions {
    DbOptions {
        write_buffer_size: 64 << 10,
        level0_file_num_compaction_trigger: 2,
        target_file_size_base: 16 << 10,
        max_bytes_for_level_base: 64 << 10,
        block_size: 1 << 10,
        block_cache_capacity: 64 << 10,
        ..DbOptions::default()
    }
}

/// FNV-1a over everything the reads return, with a separator per item so
/// `("ab", "c")` and `("a", "bc")` hash apart.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, data: &[u8]) {
        for &b in data.iter().chain(&[0xff]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn opt(&mut self, v: &Option<Vec<u8>>) {
        match v {
            Some(v) => self.bytes(v),
            None => self.bytes(b"\0absent"),
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// `now_nanos()` after load + flush + compaction, after the gets, after
    /// the multi_gets, after the full scan, after the prefix scans.
    checkpoints: [Nanos; 5],
    /// FNV-1a over every get, multi_get, scan and scan_prefix result.
    returned: u64,
    scanned: usize,
    prefix_scanned: [usize; 3],
    /// `CompactionCount`, `SubcompactionsLaunched`, `SubcompactionFallbacks`,
    /// `BlockCacheMiss`, `BloomUseful`, `PrefixBloomUseful`.
    tickers: [u64; 6],
}

fn run_tape(opts: DbOptions, seed: u64) -> Golden {
    Runtime::new().run(move || {
        let fs = SimFs::new(
            SimDevice::shared(profiles::optane_900p()),
            FsOptions::default(),
        );
        let db = Db::open(fs, opts).unwrap();
        let mut rng = Xoshiro256::new(seed);
        let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
        let mut checkpoints = [0; 5];

        // Load: one delete in eight; then a short unflushed tail so the
        // reads below also meet a non-empty memtable with tombstones over
        // table entries.
        let write = |rng: &mut Xoshiro256, i: u64| {
            let k = rng.next_below(KEYS);
            if rng.next_below(8) == 0 {
                db.delete(&key(k)).unwrap();
            } else {
                db.put(&key(k), &value(k, i)).unwrap();
            }
        };
        for i in 0..6_000 {
            write(&mut rng, i);
        }
        db.flush().unwrap();
        db.wait_for_compactions();
        for i in 6_000..6_150 {
            write(&mut rng, i);
        }
        checkpoints[0] = now_nanos();

        // 300 gets: even ones draw a loaded key, odd ones an absent key —
        // alternately inside a loaded family (only a filter or a block
        // search can rule it out) and beyond every file's range.
        let absent = |k: u64, i: u64| {
            let mut a = key(k);
            a.extend_from_slice(if i % 4 == 1 { b"x" } else { b"~~" });
            if i % 4 == 3 {
                a[0] = b'g';
            }
            a
        };
        for i in 0..300 {
            let k = rng.next_below(KEYS);
            let probe = if i % 2 == 0 { key(k) } else { absent(k, i) };
            hash.opt(&db.get(&probe).unwrap());
        }
        checkpoints[1] = now_nanos();

        for batch in 0..20 {
            let keys: Vec<Vec<u8>> = (0..8)
                .map(|j| {
                    let k = rng.next_below(KEYS);
                    if j % 4 == 3 {
                        absent(k, batch + j)
                    } else {
                        key(k)
                    }
                })
                .collect();
            let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            for v in db.multi_get(&refs).unwrap() {
                hash.opt(&v);
            }
        }
        checkpoints[2] = now_nanos();

        let mut scanned = 0;
        let mut scan = db.scan().unwrap();
        let mut ok = scan.seek_to_first().unwrap();
        while ok {
            hash.bytes(scan.key());
            hash.bytes(scan.value());
            scanned += 1;
            ok = scan.next().unwrap();
        }
        // The same cursor, re-aimed into the middle of the key space.
        let mut ok = scan.seek(&key(777)).unwrap();
        for _ in 0..10 {
            assert!(ok);
            hash.bytes(scan.key());
            hash.bytes(scan.value());
            ok = scan.next().unwrap();
        }
        drop(scan);
        checkpoints[3] = now_nanos();

        // A loaded family; an absent 4-byte prefix that sorts inside the
        // loaded range (a prefix bloom can prune it, a key range cannot);
        // a 3-byte prefix, which no 4-byte prefix bloom may answer.
        let mut prefix_scanned = [0; 3];
        for (n, prefix) in [&b"f007"[..], b"f01a", b"f02"].into_iter().enumerate() {
            let mut scan = db.scan_prefix(prefix).unwrap();
            let mut ok = scan.valid();
            while ok {
                assert!(scan.key().starts_with(prefix));
                hash.bytes(scan.key());
                hash.bytes(scan.value());
                prefix_scanned[n] += 1;
                ok = scan.next().unwrap();
            }
        }
        checkpoints[4] = now_nanos();

        let tickers = [
            Ticker::CompactionCount,
            Ticker::SubcompactionsLaunched,
            Ticker::SubcompactionFallbacks,
            Ticker::BlockCacheMiss,
            Ticker::BloomUseful,
            Ticker::PrefixBloomUseful,
        ]
        .map(|t| db.stats().ticker(t));
        db.close();
        Golden {
            checkpoints,
            returned: hash.0,
            scanned,
            prefix_scanned,
            tickers,
        }
    })
}

#[test]
fn plain_configuration_keeps_its_clock() {
    let got = run_tape(base_opts(), 0x18_0001);
    let want = Golden {
        checkpoints: [41_393_898, 43_381_877, 43_753_817, 44_037_882, 44_118_201],
        returned: 12_833_477_042_330_917_843,
        scanned: 1_293,
        prefix_scanned: [41, 0, 422],
        tickers: [12, 0, 0, 507, 0, 0],
    };
    assert_eq!(got, want);
}

#[test]
fn filtered_compressed_fanned_out_configuration_keeps_its_clock() {
    let opts = DbOptions {
        bloom_bits_per_key: 10,
        prefix_extractor: Some(4),
        compression: CompressionType::Rle,
        memtable_bloom_bits: 10,
        max_subcompactions: 4,
        ..base_opts()
    };
    let got = run_tape(opts, 0x18_0002);
    let want = Golden {
        checkpoints: [27_462_350, 28_797_586, 29_042_724, 29_292_351, 29_380_225],
        returned: 16_238_650_535_054_676_071,
        scanned: 1_298,
        prefix_scanned: [44, 0, 431],
        tickers: [7, 24, 0, 303, 448, 1],
    };
    assert_eq!(got, want);
}
