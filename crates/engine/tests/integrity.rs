//! End-to-end data-integrity torture: seeded at-rest bit-flip sweeps over
//! every file kind and the background scrubber's detect → read-only →
//! resume cycle. (Transient read flips are a value of the fault axis of
//! `oracle.rs`.)
//!
//! The core invariant everywhere: a single flipped byte may cost an error
//! or (for tolerated tail damage) lost tail data, but **never a silently
//! wrong read** — a successful `get` returns the correct value or, where a
//! recovery mode legitimately drops data, `None`; never garbage. And every
//! sweep is byte-identically deterministic per seed.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use xlsm_device::{profiles, SimDevice};
use xlsm_engine::coding::{get_length_prefixed, put_varint64};
use xlsm_engine::sst::decode_block;
use xlsm_engine::version::VersionEdit;
use xlsm_engine::{Db, DbError, DbOptions, Ticker, WalRecoveryMode, WriteBatch};
use xlsm_sim::rng::Xoshiro256;
use xlsm_sim::Runtime;
use xlsm_simfs::{FsOptions, SimFs};

fn fs() -> Arc<SimFs> {
    SimFs::new(
        SimDevice::shared(profiles::optane_900p()),
        FsOptions::default(),
    )
}

fn protected_opts() -> DbOptions {
    DbOptions {
        write_buffer_size: 64 << 10,
        wal_sync: true,
        protection_bytes_per_key: 8,
        paranoid_file_checks: true,
        wal_recovery_mode: WalRecoveryMode::AbsoluteConsistency,
        ..DbOptions::default()
    }
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:05}").into_bytes()
}

/// Builds a small database with flushed tables *and* a WAL-only tail, then
/// closes it. Returns the expected contents.
fn build_db(fs: &Arc<SimFs>, opts: &DbOptions) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let db = Db::open(Arc::clone(fs), opts.clone()).unwrap();
    let mut model = BTreeMap::new();
    for i in 0..300u32 {
        let value = vec![(i % 251) as u8; 120];
        db.put(&key(i), &value).unwrap();
        model.insert(key(i), value);
    }
    db.flush().unwrap();
    for i in 300..360u32 {
        // WAL-only: no flush before close.
        let value = vec![(i % 251) as u8; 60];
        db.put(&key(i), &value).unwrap();
        model.insert(key(i), value);
    }
    db.close();
    model
}

/// Full snapshot of every file under `db/`, for restore-all between trials
/// (a trial's open may flush, purge WALs, or reap orphans).
fn snapshot_dir(fs: &Arc<SimFs>) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for path in fs.list("db/") {
        let f = fs.open(&path).unwrap();
        let len = f.len() as usize;
        let bytes = if len == 0 {
            Vec::new()
        } else {
            f.read_at(0, len).unwrap()
        };
        out.push((path, bytes));
    }
    out.sort();
    out
}

fn restore_dir(fs: &Arc<SimFs>, snap: &[(String, Vec<u8>)]) {
    for path in fs.list("db/") {
        fs.delete(&path).unwrap();
    }
    for (path, bytes) in snap {
        let f = fs.create(path).unwrap();
        if !bytes.is_empty() {
            f.append(bytes).unwrap();
        }
        f.sync().unwrap();
    }
}

/// Rewrites `path` with one byte XOR-flipped at `off` (SimFs has no
/// write-at-offset, so at-rest damage = whole-file rewrite).
fn flip_byte_at_rest(fs: &Arc<SimFs>, path: &str, off: u64) {
    let f = fs.open(path).unwrap();
    let len = f.len() as usize;
    let mut bytes = f.read_at(0, len).unwrap();
    bytes[off as usize] ^= 0x40;
    fs.delete(path).unwrap();
    let f = fs.create(path).unwrap();
    f.append(&bytes).unwrap();
    f.sync().unwrap();
}

/// One flip trial: damage `path` at `off`, try to open and read everything,
/// and return an outcome string for the determinism log. Panics on any
/// silently wrong read.
fn run_flip_trial(
    fs: &Arc<SimFs>,
    opts: &DbOptions,
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
    path: &str,
    off: u64,
) -> String {
    let is_sst = path.ends_with(".sst");
    flip_byte_at_rest(fs, path, off);
    let outcome = match Db::open(Arc::clone(fs), opts.clone()) {
        Err(e) => {
            assert!(
                matches!(e, DbError::Corruption(_)),
                "{path}@{off}: open failed with non-corruption error: {e}"
            );
            format!("{path}@{off}: open=corruption")
        }
        Ok(db) => {
            let mut correct = 0u32;
            let mut lost = 0u32;
            let mut errors = 0u32;
            for (k, want) in model {
                match db.get(k) {
                    Ok(Some(got)) => {
                        assert_eq!(
                            &got,
                            want,
                            "{path}@{off}: SILENTLY WRONG value for {}",
                            String::from_utf8_lossy(k)
                        );
                        correct += 1;
                    }
                    Ok(None) => {
                        // Legal only where a recovery mode may drop tail
                        // data; an SST flip with an intact manifest must
                        // never lose a key silently.
                        assert!(
                            !is_sst,
                            "{path}@{off}: silent loss of {} from an SST flip",
                            String::from_utf8_lossy(k)
                        );
                        lost += 1;
                    }
                    Err(DbError::Corruption(_)) => errors += 1,
                    Err(e) => panic!("{path}@{off}: unexpected error kind: {e}"),
                }
            }
            db.close();
            format!("{path}@{off}: open=ok correct={correct} lost={lost} detected={errors}")
        }
    };
    outcome
}

/// Runs the full seeded sweep once and returns the outcome log.
fn run_sweep(seed: u64) -> Vec<String> {
    Runtime::new().run(move || {
        let fs = fs();
        let opts = protected_opts();
        let model = build_db(&fs, &opts);
        let baseline = snapshot_dir(&fs);
        let mut rng = Xoshiro256::new(seed);
        let mut log = Vec::new();
        let targets: Vec<String> = baseline
            .iter()
            .map(|(p, _)| p.clone())
            .filter(|p| p.ends_with(".sst") || p.ends_with(".log") || p.ends_with("MANIFEST"))
            .collect();
        assert!(
            targets.iter().any(|p| p.ends_with(".sst"))
                && targets.iter().any(|p| p.ends_with(".log"))
                && targets.iter().any(|p| p.ends_with("MANIFEST")),
            "sweep must cover all three file kinds: {targets:?}"
        );
        for path in &targets {
            let len = baseline
                .iter()
                .find(|(p, _)| p == path)
                .map(|(_, b)| b.len() as u64)
                .unwrap();
            if len == 0 {
                continue;
            }
            for _ in 0..4 {
                let off = rng.next_below(len);
                log.push(run_flip_trial(&fs, &opts, &model, path, off));
                restore_dir(&fs, &baseline);
            }
        }
        // Sanity: pristine state still fully readable after the last restore.
        let db = Db::open(Arc::clone(&fs), opts).unwrap();
        for (k, want) in &model {
            assert_eq!(db.get(k).unwrap().as_ref(), Some(want));
        }
        db.close();
        log
    })
}

#[test]
fn seeded_flip_sweep_never_silently_wrong_and_deterministic() {
    let a = run_sweep(0xfeed_beef);
    let b = run_sweep(0xfeed_beef);
    assert_eq!(a, b, "same seed must produce a byte-identical outcome log");
    assert!(
        a.iter()
            .any(|l| l.contains("open=corruption") || l.contains("detected=")),
        "the sweep should detect at least some flips: {a:?}"
    );
}

#[test]
fn scrubber_finds_cold_sst_flip_within_one_pass_and_resumes() {
    Runtime::new().run(|| {
        let fs = fs();
        let mut opts = protected_opts();
        opts.scrub_rate_bytes_per_sec = 8 << 20;
        let model = build_db(&fs, &opts);

        // Plant a flip in the middle of a cold table. Nothing will read it
        // in the foreground — only the scrubber touches it.
        let victim = fs
            .list("db/")
            .into_iter()
            .find(|p| p.ends_with(".sst"))
            .expect("build_db flushed at least one table");
        let orig = {
            let f = fs.open(&victim).unwrap();
            f.read_at(0, f.len() as usize).unwrap()
        };
        flip_byte_at_rest(&fs, &victim, orig.len() as u64 / 2);

        let db = Db::open(Arc::clone(&fs), opts).unwrap();
        // One pass over every live table at 8 MiB/s is well under this
        // budget of virtual time.
        let mut waited = 0u64;
        while db.stats().ticker(Ticker::ScrubCorruptionsFound) == 0 && waited < 60 {
            xlsm_sim::sleep_nanos(1_000_000_000);
            waited += 1;
        }
        assert!(
            db.stats().ticker(Ticker::ScrubCorruptionsFound) >= 1,
            "scrubber never found the planted flip"
        );
        assert!(db.metrics().read_only, "corruption must flip to read-only");
        assert!(matches!(db.put(b"k", b"v"), Err(DbError::ReadOnly(_))));

        // Heal the file at rest, resume, and verify the database serves
        // reads and writes again.
        fs.delete(&victim).unwrap();
        let f = fs.create(&victim).unwrap();
        f.append(&orig).unwrap();
        f.sync().unwrap();
        db.resume().unwrap();
        assert!(!db.metrics().read_only);
        db.put(b"after-resume", b"ok").unwrap();
        assert_eq!(db.get(b"after-resume").unwrap(), Some(b"ok".to_vec()));
        for (k, want) in &model {
            assert_eq!(db.get(k).unwrap().as_ref(), Some(want));
        }
        db.close();
    });
}

#[test]
fn scrubber_verifies_clean_db_and_records_pass_while_writes_proceed() {
    Runtime::new().run(|| {
        let fs = fs();
        let mut opts = protected_opts();
        opts.scrub_rate_bytes_per_sec = 4 << 20;
        let db = Db::open(Arc::clone(&fs), opts).unwrap();
        for i in 0..300u32 {
            db.put(&key(i), &[b'v'; 120]).unwrap();
        }
        db.flush().unwrap();
        // Writes keep landing while the scrubber churns in the background.
        let mut passes = 0u64;
        let mut waited = 0u64;
        while passes < 2 && waited < 120 {
            for i in 0..20u32 {
                db.put(&key(10_000 + i), &[b'w'; 64]).unwrap();
            }
            xlsm_sim::sleep_nanos(1_000_000_000);
            waited += 1;
            passes = db.metrics().scrub_pass.count;
        }
        assert!(passes >= 2, "scrubber should complete repeated passes");
        assert!(db.stats().ticker(Ticker::ScrubBytesVerified) > 0);
        assert_eq!(db.stats().ticker(Ticker::ScrubCorruptionsFound), 0);
        assert!(!db.metrics().read_only);
        db.close();
    });
}

#[test]
fn verify_checksums_walks_everything_and_pins_planted_flip() {
    Runtime::new().run(|| {
        let fs = fs();
        let opts = protected_opts();
        let db = Db::open(Arc::clone(&fs), opts.clone()).unwrap();
        for i in 0..300u32 {
            db.put(&key(i), &[b'v'; 120]).unwrap();
        }
        db.flush().unwrap();
        for i in 300..320u32 {
            db.put(&key(i), &[b'w'; 40]).unwrap();
        }
        let report = db.verify_checksums().unwrap();
        assert!(report.sst_files >= 1);
        assert!(report.sst_bytes > 0);
        assert!(report.manifest_records >= 1);
        db.close();

        // Damage one table at rest; the foreground verifier must name the
        // file and must NOT flip the database read-only.
        let victim = fs
            .list("db/")
            .into_iter()
            .find(|p| p.ends_with(".sst"))
            .unwrap();
        let len = fs.open(&victim).unwrap().len();
        flip_byte_at_rest(&fs, &victim, len / 3);
        let db = Db::open(Arc::clone(&fs), opts).unwrap();
        match db.verify_checksums() {
            Err(DbError::Corruption(detail)) => {
                let name = victim.rsplit('/').next().unwrap();
                assert_eq!(
                    detail.file.as_deref(),
                    Some(name),
                    "error must name the file"
                );
            }
            other => panic!("expected corruption, got {other:?}"),
        }
        assert!(
            !db.metrics().read_only,
            "foreground verify must not escalate"
        );
        db.close();
    });
}

/// Runs `bytes` through every decoder of records read back from disk, bare
/// and behind the envelope that gets a decoder past its header checks. Each
/// may refuse (`None`, `Corruption`) or return a value; none may panic.
fn decode_everything(bytes: &[u8]) {
    let refused = |e: DbError| assert!(e.is_corruption(), "{e}");
    let mut off = 0;
    while off < bytes.len() && get_length_prefixed(bytes, &mut off).is_some() {}
    // A block whose entry region is `bytes`: one restart point, at 0.
    let block = [bytes, &[0, 0, 0, 0, 1, 0, 0, 0]].concat();
    // A batch whose operations are `bytes`, behind a zeroed header.
    let batch = [&[0; 12], bytes].concat();
    for data in [bytes, &block, &batch] {
        let _ = decode_block(data).map_err(refused);
        let _ = VersionEdit::decode(data).map_err(refused);
        // `from_data` walks `iter()` and stops at the first bad operation.
        let _ = WriteBatch::from_data(data).map_err(refused);
    }
}

/// A length varint of `u64::MAX` — what a mis-written or hostile record
/// with a valid CRC can carry — must come back as `None` / `Corruption`: the
/// bounds check may not overflow on the way to saying so.
#[test]
fn length_of_u64_max_is_refused_by_every_decoder() {
    let mut huge = Vec::new();
    put_varint64(&mut huge, u64::MAX);
    assert_eq!(get_length_prefixed(&huge, &mut 0), None);
    // As a key length in a block entry, a value length after a good key, a
    // `smallest` key length in a version edit's add-file record, and a key
    // length in a batch's put.
    let with_huge = |head: &[u8], tail: &[u8]| [head, &huge, tail].concat();
    let restarts = [0, 0, 0, 0, 1, 0, 0, 0];
    for block in [
        with_huge(&[0], &[[0].as_slice(), &restarts].concat()),
        with_huge(&[0, 1], &[b"k".as_slice(), &restarts].concat()),
    ] {
        assert!(decode_block(&block).unwrap_err().is_corruption());
    }
    let edit = with_huge(&[4, 0, 1, 1, 1], &[]);
    assert!(VersionEdit::decode(&edit).unwrap_err().is_corruption());
    let batch = with_huge(&[0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1], &[]);
    assert!(WriteBatch::from_data(&batch).unwrap_err().is_corruption());
    decode_everything(&huge);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, alone and with the `u64::MAX` length spliced in at
    /// an arbitrary point, never panic a decoder.
    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        at in 0usize..200,
    ) {
        decode_everything(&bytes);
        let mut spliced = bytes.clone();
        let at = at % (bytes.len() + 1);
        spliced.splice(at..at, [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        decode_everything(&spliced);
    }
}
