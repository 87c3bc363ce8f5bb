//! On-disk checksum golden: a store written by an older build must verify
//! under this one.
//!
//! Every checksum the engine stores — block frames, whole-file CRCs, WAL and
//! MANIFEST record headers — goes through `crc32c::{crc32c, Hasher}`. The
//! literals below were captured at 827f366, when that was the bytewise table
//! loop, before the hardware kernel replaced it: one fixed table from
//! `TableBuilder`, one fixed WAL record, one fixed `VersionEdit` record. A
//! checksum kernel (or a codec change) that alters one stored byte moves a
//! literal here.

use std::sync::Arc;
use xlsm_device::{profiles, SimDevice};
use xlsm_engine::integrity::file_crc32c;
use xlsm_engine::sst::{sst_file_name, verify_table_file, TableBuilder, TableOptions};
use xlsm_engine::types::{make_internal_key, ValueType};
use xlsm_engine::version::{FileMetaData, VersionEdit, VersionSet};
use xlsm_engine::wal::{wal_file_name, WalWriter};
use xlsm_engine::{crc32c, WriteBatch};
use xlsm_sim::Runtime;
use xlsm_simfs::{FsOptions, SimFs};

fn fs() -> Arc<SimFs> {
    SimFs::new(
        SimDevice::shared(profiles::optane_900p()),
        FsOptions::default(),
    )
}

fn fixed32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// 300 entries, 1 KiB blocks, whole-key and prefix blooms: several data
/// blocks and all three meta blocks.
#[test]
fn table_checksums_match_the_table_loop_build() {
    Runtime::new().run(|| {
        let fs = fs();
        let file = fs.create(&sst_file_name("db", 9)).unwrap();
        let mut builder = TableBuilder::new(
            file.clone(),
            TableOptions {
                block_size: 1 << 10,
                bloom_bits_per_key: 10,
                prefix_extractor: Some(4),
                ..TableOptions::default()
            },
        );
        let mut first_frame = 0;
        for i in 0..300u64 {
            let ikey = make_internal_key(format!("key{i:06}").as_bytes(), i + 1, ValueType::Value);
            let value = format!("value-{i:06}-{}", "v".repeat((i % 37) as usize));
            builder.add(&ikey, value.as_bytes()).unwrap();
            if first_frame == 0 {
                // Non-zero once the first data block has been written out.
                first_frame = builder.file_size() as usize;
            }
        }
        let props = builder.finish().unwrap();
        assert_eq!(props.file_size, 14_065);
        assert_eq!(props.file_crc, 0xC0A9_1433, "whole-file CRC");

        let bytes = file.read_at(0, props.file_size as usize).unwrap();
        assert_eq!(first_frame, 1_061);
        let stored = fixed32(&bytes, first_frame - 4);
        assert_eq!(stored, 0xAFB4_CB4E, "first data block's stored CRC");
        assert_eq!(
            crc32c::unmask(stored),
            crc32c::crc32c(&bytes[..first_frame - 4])
        );

        // The read side agrees: every frame verifies, and the file re-hashes
        // to the recorded CRC.
        assert_eq!(
            verify_table_file(&file, 9, &mut |_| {}).unwrap(),
            props.file_size
        );
        assert_eq!(file_crc32c(&file, &mut |_| {}).unwrap(), props.file_crc);
    });
}

#[test]
fn wal_record_bytes_match_the_table_loop_build() {
    Runtime::new().run(|| {
        let fs = fs();
        let mut batch = WriteBatch::new();
        batch.put(b"golden-key", b"golden-value");
        batch.delete(b"gone");
        batch.set_sequence(42);
        let wal = WalWriter::create(&fs, "db", 7, 0).unwrap();
        let written = wal.append(batch.data(), false).unwrap();

        let file = fs.open(&wal_file_name("db", 7)).unwrap();
        let framed = file.read_at(0, file.len() as usize).unwrap();
        assert_eq!(written as usize, framed.len());
        // Masked CRC and payload length, then the batch: sequence 42, count
        // 2, a put and a delete.
        const FRAMED: &[u8] = b"\x6b\x32\x13\xed\x2b\0\0\0\
            \x2a\0\0\0\0\0\0\0\x02\0\0\0\
            \x01\x0agolden-key\x0cgolden-value\
            \x00\x04gone";
        assert_eq!(framed, FRAMED, "framed WAL record");
        assert_eq!(&framed[8..], batch.data());
        assert_eq!(wal.file_crc(), 0x4707_B452, "WAL whole-file CRC");
    });
}

#[test]
fn manifest_record_crc_matches_the_table_loop_build() {
    Runtime::new().run(|| {
        let fs = fs();
        let versions = VersionSet::create_new(Arc::clone(&fs), "db").unwrap();
        let edit = VersionEdit {
            log_number: Some(7),
            added: vec![(
                0,
                FileMetaData {
                    number: 9,
                    file_size: 14_065,
                    smallest: make_internal_key(b"key000000", 1, ValueType::Value),
                    largest: make_internal_key(b"key000299", 300, ValueType::Value),
                    num_entries: 300,
                    file_crc: Some(0x1234_5678),
                },
            )],
            deleted: vec![(1, 4)],
            wal_crcs: vec![(6, 0x9abc_def0)],
            ..VersionEdit::default()
        };
        versions.log_and_apply(edit).unwrap();

        let manifest = fs.open("db/MANIFEST").unwrap();
        let record = manifest.read_at(0, manifest.len() as usize).unwrap();
        let payload = &record[8..];
        assert_eq!(fixed32(&record, 4) as usize, payload.len());
        assert_eq!(payload.len(), 66);
        let stored = fixed32(&record, 0);
        assert_eq!(stored, 0x70CE_D5CF, "MANIFEST record's stored CRC");
        assert_eq!(crc32c::unmask(stored), crc32c::crc32c(payload));
        // And the payload is the edit: it decodes back to the file it added.
        let decoded = VersionEdit::decode(payload).unwrap();
        assert_eq!(decoded.added[0].1.file_crc, Some(0x1234_5678));
        assert_eq!(decoded.wal_crcs, vec![(6, 0x9abc_def0)]);
    });
}
