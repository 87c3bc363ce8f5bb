//! Read-path equivalence: every read-path acceleration knob — block
//! compression, whole-key + prefix bloom filters, the memtable bloom, and
//! the `multi_get` fan-out — must be invisible to results. A database opened
//! with all of them on must answer every `get`, `multi_get`, full scan,
//! and prefix scan byte-identically to a plain database fed the same
//! operations.

use proptest::prelude::*;
use std::sync::Arc;
use xlsm_device::{profiles, SimDevice};
use xlsm_engine::{CompressionType, Db, DbOptions};
use xlsm_sim::Runtime;
use xlsm_simfs::{FsOptions, SimFs};

#[derive(Clone, Debug)]
enum Op {
    Put(u16, u8),
    Delete(u16),
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u16..400, any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
        2 => (0u16..400).prop_map(Op::Delete),
        1 => Just(Op::Flush),
    ]
}

/// Keys share 2-byte prefixes (`p0`..`p9`) so prefix blooms and prefix
/// scans both have something to chew on.
fn key(k: u16) -> Vec<u8> {
    format!("p{}{:05}", k % 10, k).into_bytes()
}

fn value(k: u16, v: u8) -> Vec<u8> {
    // Run-structured so RLE actually compresses some blocks.
    let mut out = vec![b'a' + (v % 23); 40 + (k as usize % 60)];
    out.extend_from_slice(format!("{k}:{v}").as_bytes());
    out
}

fn plain_opts() -> DbOptions {
    DbOptions {
        write_buffer_size: 64 << 10,
        block_size: 1024,
        target_file_size_base: 64 << 10,
        max_bytes_for_level_base: 256 << 10,
        ..DbOptions::default()
    }
}

fn fancy_opts() -> DbOptions {
    DbOptions {
        compression: CompressionType::Rle,
        bloom_bits_per_key: 10,
        prefix_extractor: Some(2),
        memtable_bloom_bits: 10,
        multi_get_parallelism: 4,
        ..plain_opts()
    }
}

fn run_workload(opts: DbOptions, ops: &[Op]) -> WorkloadResult {
    let mut out = WorkloadResult::default();
    Runtime::new().run(|| {
        let fs = SimFs::new(
            SimDevice::shared(profiles::optane_900p()),
            FsOptions::default(),
        );
        let db = Db::open(Arc::clone(&fs), opts).unwrap();
        for op in ops {
            match op {
                Op::Put(k, v) => db.put(&key(*k), &value(*k, *v)).unwrap(),
                Op::Delete(k) => db.delete(&key(*k)).unwrap(),
                Op::Flush => db.flush().unwrap(),
            }
        }
        // Point reads: every possible key plus guaranteed misses.
        for k in 0..400u16 {
            out.gets.push(db.get(&key(k)).unwrap());
        }
        for k in 0..50u16 {
            out.gets
                .push(db.get(format!("zz{k:05}").as_bytes()).unwrap());
        }
        // Batched reads, mixing hits and misses.
        let keys: Vec<Vec<u8>> = (0..400u16)
            .step_by(3)
            .map(key)
            .chain((0..20u16).map(|k| format!("zz{k:05}").into_bytes()))
            .collect();
        for chunk in keys.chunks(32) {
            let refs: Vec<&[u8]> = chunk.iter().map(|k| k.as_slice()).collect();
            out.multi_gets.extend(db.multi_get(&refs).unwrap());
        }
        // Full scan.
        let mut scan = db.scan().unwrap();
        let mut ok = scan.seek_to_first().unwrap();
        while ok {
            out.scan.push((scan.key().to_vec(), scan.value().to_vec()));
            ok = scan.next().unwrap();
        }
        // Prefix scans: every family, one of them at the configured
        // extractor length (2), plus longer and absent prefixes.
        for p in ["p0", "p3", "p9", "p400", "qq"] {
            let mut scan = db.scan_prefix(p.as_bytes()).unwrap();
            let mut ok = scan.valid();
            while ok {
                out.prefix
                    .push((scan.key().to_vec(), scan.value().to_vec()));
                ok = scan.next().unwrap();
            }
        }
        db.close();
    });
    out
}

#[derive(Clone, Debug, Default, PartialEq)]
struct WorkloadResult {
    gets: Vec<Option<Vec<u8>>>,
    multi_gets: Vec<Option<Vec<u8>>>,
    scan: Vec<(Vec<u8>, Vec<u8>)>,
    prefix: Vec<(Vec<u8>, Vec<u8>)>,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Compression + blooms + fan-out change costs, never answers.
    #[test]
    fn accelerated_reads_equal_plain_reads(
        ops in prop::collection::vec(op_strategy(), 1..220),
    ) {
        let plain = run_workload(plain_opts(), &ops);
        let fancy = run_workload(fancy_opts(), &ops);
        prop_assert_eq!(plain, fancy);
    }
}

/// The scan results themselves must agree with a model: prefix scan ==
/// full scan filtered by starts_with.
#[test]
fn prefix_scan_equals_filtered_full_scan() {
    let ops: Vec<Op> = (0..300u16)
        .map(|k| Op::Put(k, (k % 251) as u8))
        .chain([Op::Flush])
        .chain((0..300u16).step_by(5).map(Op::Delete))
        .collect();
    let got = run_workload(fancy_opts(), &ops);
    for p in ["p0", "p3", "p9"] {
        let expect: Vec<_> = got
            .scan
            .iter()
            .filter(|(k, _)| k.starts_with(p.as_bytes()))
            .cloned()
            .collect();
        let actual: Vec<_> = got
            .prefix
            .iter()
            .filter(|(k, _)| k.starts_with(p.as_bytes()))
            .cloned()
            .collect();
        assert_eq!(actual, expect, "prefix {p} diverged");
    }
}
