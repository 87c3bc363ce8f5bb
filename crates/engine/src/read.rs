//! The read path: point lookups, batched `multi_get` with its probe
//! fan-out, and full / prefix scan cursors.

use crate::costs;
use crate::db::{Db, DbInner};
use crate::error::DbResult;
use crate::iterator::{DbScanner, InternalIterator, LevelIterator, MergingIterator};
use crate::memtable::MemTable;
use crate::sst::{TableEntry, TableProbe};
use crate::stats::{DbStats, Ticker};
use crate::table_cache::TableCache;
use crate::types::{self, SequenceNumber, ValueType};
use crate::version::FileMetaData;
use std::sync::Arc;
use xlsm_sim::Class;

/// Most probe threads one [`Db::multi_get`] batch fans its SSTs out across.
const MULTI_GET_PARALLELISM: usize = 4;

/// Probes one memtable for `key`, consulting its whole-key bloom first when
/// enabled: a bloom rejection answers without walking the skiplist at all,
/// which is the entire point of `memtable_bloom_bits`.
fn mem_probe(
    m: &MemTable,
    key: &[u8],
    snapshot: SequenceNumber,
    stats: &DbStats,
) -> DbResult<Option<Option<Vec<u8>>>> {
    if m.bloom_enabled() {
        xlsm_sim::charge(Class::Bloom, costs::BLOOM_CHECK_NS);
        if !m.may_contain(key) {
            stats.bump(Ticker::MemtableBloomUseful);
            return Ok(None);
        }
    }
    xlsm_sim::charge(
        Class::MemtableProbe,
        costs::skiplist_search_ns(m.num_entries().max(1), m.approximate_bytes().max(1) as u64),
    );
    m.get(key, snapshot)
}

/// The memtables pinned for one read: the mutable one and the immutable
/// ones, oldest first.
struct MemTables {
    mutable: Arc<MemTable>,
    immutables: Vec<Arc<MemTable>>,
}

impl MemTables {
    /// Probes the mutable memtable, then the immutables newest first,
    /// bumping the hit ticker of whichever answers. Memtables are strictly
    /// newer than any SST, so an answer here is final.
    fn probe(
        &self,
        key: &[u8],
        snapshot: SequenceNumber,
        stats: &DbStats,
    ) -> DbResult<Option<Option<Vec<u8>>>> {
        let immutables = self.immutables.iter().rev();
        let newest_first = std::iter::once((&self.mutable, Ticker::GetHitMemtable))
            .chain(immutables.map(|m| (m, Ticker::GetHitImmutable)));
        for (m, hit) in newest_first {
            if let Some(found) = mem_probe(m, key, snapshot, stats)? {
                stats.bump(hit);
                return Ok(Some(found));
            }
        }
        Ok(None)
    }
}

impl DbInner {
    fn memtables(&self) -> MemTables {
        let mem = self.mem.lock();
        MemTables {
            mutable: Arc::clone(&mem.mutable),
            immutables: mem.immutables.iter().map(|(m, _)| Arc::clone(m)).collect(),
        }
    }

    /// A scan cursor at the current snapshot over every memtable (their
    /// blooms are whole-key, so the skiplists always join in) and every
    /// file — or, given a `prefix`, the files whose key range intersects
    /// `[prefix, successor(prefix))` and whose prefix bloom does not rule it
    /// out, bounded above by the successor. Each Level-0 file is a merge
    /// child of its own, since they overlap, and each deeper level one
    /// [`LevelIterator`].
    fn scanner(&self, prefix: Option<&[u8]>) -> DbResult<DbScanner> {
        let upper = prefix.and_then(prefix_successor);
        let in_range = |f: &FileMetaData, prefix: &[u8]| {
            types::user_key(&f.largest) >= prefix
                && upper
                    .as_deref()
                    .is_none_or(|u| types::user_key(&f.smallest) < u)
        };
        let snapshot = self.versions.last_sequence();
        // Memtables before the version: a flush that lands between the two
        // is then seen twice, never not at all.
        let mems = self.memtables();
        let version = self.versions.current();
        let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
        children.push(Box::new(mems.mutable.iter()));
        for m in mems.immutables.iter().rev() {
            children.push(Box::new(m.iter()));
        }
        for (level, files) in version.levels.iter().enumerate() {
            // Each kept file with the reader its prefix filter opened.
            let mut kept = Vec::new();
            for f in files {
                let mut opened = None;
                if let Some(prefix) = prefix {
                    if !in_range(f, prefix) {
                        continue;
                    }
                    let reader = self.table_cache.reader(f)?;
                    if !reader.may_contain_prefix(prefix) {
                        self.stats.bump(Ticker::PrefixBloomUseful);
                        continue;
                    }
                    opened = Some(reader);
                }
                kept.push((Arc::clone(f), opened));
            }
            if level == 0 {
                for (f, opened) in kept {
                    let reader = match opened {
                        Some(reader) => reader,
                        None => self.table_cache.reader(&f)?,
                    };
                    children.push(Box::new(reader.iter(Arc::clone(&self.stats), false)));
                }
            } else if !kept.is_empty() {
                children.push(Box::new(LevelIterator::new(
                    kept.into_iter().map(|(f, _)| f).collect(),
                    Arc::clone(&self.table_cache),
                    Arc::clone(&self.stats),
                    false,
                )));
            }
        }
        let mut scanner = DbScanner::new(MergingIterator::new(children), snapshot);
        scanner.version = Some(version);
        scanner.upper_bound = upper;
        Ok(scanner)
    }
}

/// What a reader sees of the newest visible version of a key: its value, or
/// nothing when that version is a tombstone.
fn visible_value(t: ValueType, value: Vec<u8>) -> Option<Vec<u8>> {
    match t {
        ValueType::Value => Some(value),
        ValueType::Deletion => None,
    }
}

/// One file's worth of a MultiGet batch: the SST to open plus every probe
/// it must answer.
struct ProbeJob {
    level: usize,
    file: Arc<FileMetaData>,
    probes: Vec<TableProbe>,
}

/// A MultiGet probe hit: `(batch slot, level, entry)`.
type ProbeHit = (usize, usize, TableEntry);

/// Probes each job's table once with its whole probe set, returning
/// `(slot, level, entry)` hits. Runs on a MultiGet probe thread (or
/// inline when the batch doesn't warrant fan-out).
fn run_probe_jobs(
    table_cache: &Arc<TableCache>,
    stats: &Arc<DbStats>,
    jobs: &[ProbeJob],
) -> DbResult<Vec<ProbeHit>> {
    let mut hits = Vec::new();
    for job in jobs {
        if job.level == 0 {
            stats.add(Ticker::L0FilesSearched, job.probes.len() as u64);
        }
        let reader = table_cache.reader(&job.file)?;
        for (slot, entry) in reader.get_many(&job.probes, stats)? {
            hits.push((slot, job.level, entry));
        }
    }
    Ok(hits)
}

/// The smallest user key greater than *every* key starting with `prefix`
/// (`None` when no upper bound exists, i.e. `prefix` is empty or all
/// `0xff`). Together with `prefix` itself this brackets exactly the
/// starts-with set: `k` starts with `prefix` ⇔ `prefix ≤ k < successor`.
fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut out = prefix.to_vec();
    while let Some(last) = out.last_mut() {
        if *last == 0xff {
            out.pop();
        } else {
            *last += 1;
            return Some(out);
        }
    }
    None
}

impl Db {
    /// Reads the newest visible value for `key`.
    ///
    /// # Errors
    ///
    /// I/O or corruption failures.
    pub fn get(&self, key: &[u8]) -> DbResult<Option<Vec<u8>>> {
        self.get_at(key, self.inner.versions.last_sequence())
    }

    /// Reads `key` as of `snapshot`.
    ///
    /// # Errors
    ///
    /// I/O or corruption failures.
    pub fn get_at(&self, key: &[u8], snapshot: SequenceNumber) -> DbResult<Option<Vec<u8>>> {
        let (t0, c0) = (xlsm_sim::now_nanos(), xlsm_sim::charges());
        xlsm_sim::charge(Class::Setup, costs::GET_SETUP_NS);
        let stats = &self.inner.stats;
        stats.bump(Ticker::Gets);
        let result = self.get_inner(key, snapshot);
        stats.gets.record(t0, c0);
        result
    }

    fn get_inner(&self, key: &[u8], snapshot: SequenceNumber) -> DbResult<Option<Vec<u8>>> {
        let inner = &self.inner;
        if let Some(found) = inner.memtables().probe(key, snapshot, &inner.stats)? {
            return Ok(found);
        }
        // SSTs.
        let version = inner.versions.current();
        let lookup = types::lookup_key(key, snapshot);
        // L0: newest-first, all covering files (the paper's Finding #2).
        for f in version.l0_covering(key) {
            inner.stats.bump(Ticker::L0FilesSearched);
            let reader = inner.table_cache.reader(f)?;
            if let Some((_, t, value)) = reader.get(&lookup, key, &inner.stats)? {
                inner.stats.bump(Ticker::GetHitL0);
                return Ok(visible_value(t, value));
            }
        }
        // Deeper levels: binary search for the single candidate file.
        for level in 1..version.levels.len() {
            let Some(f) = version.file_for_key(level, key) else {
                continue;
            };
            let reader = inner.table_cache.reader(f)?;
            if let Some((_, t, value)) = reader.get(&lookup, key, &inner.stats)? {
                inner.stats.bump(Ticker::GetHitLn);
                return Ok(visible_value(t, value));
            }
        }
        inner.stats.bump(Ticker::GetMiss);
        Ok(None)
    }

    /// Batched point lookups at the current snapshot: the batch pins one
    /// sequence number, consults the memtables inline, then fans the
    /// unresolved keys out across table readers in parallel (grouped so
    /// each SST is probed once per batch) — the read-side analogue of the
    /// device's internal channel parallelism. Results are positionally
    /// aligned with `keys`.
    ///
    /// # Errors
    ///
    /// I/O or corruption failures from any probe thread.
    pub fn multi_get(&self, keys: &[&[u8]]) -> DbResult<Vec<Option<Vec<u8>>>> {
        self.multi_get_at(keys, self.inner.versions.last_sequence())
    }

    /// [`Db::multi_get`] as of `snapshot`.
    ///
    /// # Errors
    ///
    /// I/O or corruption failures from any probe thread.
    pub fn multi_get_at(
        &self,
        keys: &[&[u8]],
        snapshot: SequenceNumber,
    ) -> DbResult<Vec<Option<Vec<u8>>>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        // Batch setup (key hashing, version pinning) is paid once.
        let (t0, c0) = (xlsm_sim::now_nanos(), xlsm_sim::charges());
        xlsm_sim::charge(Class::Setup, costs::GET_SETUP_NS);
        let stats = &self.inner.stats;
        stats.bump(Ticker::MultiGetBatches);
        stats.add(Ticker::MultiGetKeys, keys.len() as u64);
        stats.add(Ticker::Gets, keys.len() as u64);
        let result = self.multi_get_inner(keys, snapshot);
        stats.multi_gets.record(t0, c0);
        result
    }

    fn multi_get_inner(
        &self,
        keys: &[&[u8]],
        snapshot: SequenceNumber,
    ) -> DbResult<Vec<Option<Vec<u8>>>> {
        let inner = &self.inner;
        let mems = inner.memtables();
        // Resolve from the memtables inline first. Outer None = unresolved;
        // `Some(found)` carries hit-or-tombstone.
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            out.push(mems.probe(key, snapshot, &inner.stats)?);
        }
        let unresolved: Vec<(usize, &[u8])> = keys
            .iter()
            .enumerate()
            .filter(|(i, _)| out[*i].is_none())
            .map(|(i, k)| (i, *k))
            .collect();
        if unresolved.is_empty() {
            return Ok(out.into_iter().map(Option::unwrap).collect());
        }

        // Group unresolved keys per SST, then probe files concurrently.
        // Sequence numbers are unique per key version and only ever move
        // *down* the tree, so the visible value is simply the hit with the
        // highest sequence ≤ snapshot across all probed files — no
        // level-by-level short-circuit needed.
        let version = inner.versions.current();
        let jobs: Vec<ProbeJob> = version
            .probe_groups(&unresolved)
            .into_iter()
            .map(|(level, file, slots)| ProbeJob {
                level,
                file,
                probes: slots
                    .into_iter()
                    .map(|slot| TableProbe {
                        slot,
                        lookup: types::lookup_key(keys[slot], snapshot),
                        user_key: keys[slot].to_vec(),
                    })
                    .collect(),
            })
            .collect();
        let threads = MULTI_GET_PARALLELISM.min(jobs.len());
        let hits = if threads <= 1 {
            run_probe_jobs(&inner.table_cache, &inner.stats, &jobs)?
        } else {
            let mut buckets: Vec<Vec<ProbeJob>> = (0..threads).map(|_| Vec::new()).collect();
            for (i, job) in jobs.into_iter().enumerate() {
                buckets[i % threads].push(job);
            }
            let mut handles = Vec::with_capacity(threads);
            for (i, bucket) in buckets.into_iter().enumerate() {
                let table_cache = Arc::clone(&inner.table_cache);
                let stats = Arc::clone(&inner.stats);
                handles.push(xlsm_sim::spawn(&format!("multiget-{i}"), move || {
                    run_probe_jobs(&table_cache, &stats, &bucket)
                }));
            }
            let mut hits = Vec::new();
            let mut first_err = None;
            let t0 = xlsm_sim::now_nanos();
            for h in handles {
                match h.join() {
                    Ok(hs) => hits.extend(hs),
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
            xlsm_sim::waited(Class::MultiGetJoin, xlsm_sim::now_nanos() - t0);
            if let Some(e) = first_err {
                return Err(e);
            }
            hits
        };

        type BestVersion = (SequenceNumber, ValueType, Vec<u8>, usize);
        let mut best: Vec<Option<BestVersion>> = vec![None; keys.len()];
        for (slot, level, (seq, t, value)) in hits {
            if best[slot].as_ref().is_none_or(|(bs, ..)| seq > *bs) {
                best[slot] = Some((seq, t, value, level));
            }
        }
        for (i, o) in out.iter_mut().enumerate() {
            if o.is_some() {
                continue;
            }
            *o = Some(match best[i].take() {
                Some((_, t, value, level)) => {
                    inner.stats.bump(if level == 0 {
                        Ticker::GetHitL0
                    } else {
                        Ticker::GetHitLn
                    });
                    visible_value(t, value)
                }
                None => {
                    inner.stats.bump(Ticker::GetMiss);
                    None
                }
            });
        }
        Ok(out.into_iter().map(Option::unwrap).collect())
    }

    /// A full-database scan cursor at the current snapshot.
    ///
    /// # Errors
    ///
    /// I/O failures opening tables.
    pub fn scan(&self) -> DbResult<DbScanner> {
        self.inner.scanner(None)
    }

    /// A scan cursor restricted to user keys starting with `prefix`,
    /// already positioned on the first match.
    ///
    /// Two layers of pruning make this cheaper than [`Db::scan`]: SST files
    /// whose key range cannot intersect `[prefix, successor(prefix))` are
    /// never opened, and — when [`crate::DbOptions::prefix_extractor`] is set to
    /// exactly `prefix.len()` — files whose prefix bloom rules the prefix
    /// out are skipped without touching a data block. A file that survives
    /// both is looked up in the table cache once.
    ///
    /// # Errors
    ///
    /// I/O failures opening tables.
    pub fn scan_prefix(&self, prefix: &[u8]) -> DbResult<DbScanner> {
        let mut scanner = self.inner.scanner(Some(prefix))?;
        scanner.seek(prefix)?;
        Ok(scanner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::{open_db, small_opts};
    use crate::DbOptions;
    use xlsm_sim::Runtime;

    #[test]
    fn prefix_successor_brackets_starts_with_set() {
        assert_eq!(prefix_successor(b"ab"), Some(b"ac".to_vec()));
        assert_eq!(prefix_successor(&[0x61, 0xff]), Some(vec![0x62]));
        assert_eq!(prefix_successor(&[0xff, 0xff]), None);
        assert_eq!(prefix_successor(b""), None);
    }

    #[test]
    fn memtable_bloom_rejects_misses_without_skiplist_walks() {
        Runtime::new().run(|| {
            let opts = DbOptions {
                memtable_bloom_bits: 10,
                ..small_opts()
            };
            let (db, _fs) = open_db(opts);
            for i in 0..200u32 {
                db.put(format!("key{i:04}").as_bytes(), b"v").unwrap();
            }
            // Present keys must never be filtered.
            for i in 0..200u32 {
                assert_eq!(
                    db.get(format!("key{i:04}").as_bytes()).unwrap(),
                    Some(b"v".to_vec())
                );
            }
            assert_eq!(db.stats().ticker(Ticker::MemtableBloomUseful), 0);
            for i in 0..200u32 {
                assert_eq!(db.get(format!("abs{i:04}").as_bytes()).unwrap(), None);
            }
            let useful = db.stats().ticker(Ticker::MemtableBloomUseful);
            assert!(
                useful > 180,
                "memtable bloom should reject most absent keys, got {useful}"
            );
            db.close();
        });
    }

    #[test]
    fn scan_prefix_matches_filtered_full_scan_and_prunes_files() {
        Runtime::new().run(|| {
            let opts = DbOptions {
                bloom_bits_per_key: 10,
                prefix_extractor: Some(4),
                ..small_opts()
            };
            let (db, _fs) = open_db(opts);
            // Three prefix families spread over several SSTs plus the
            // memtable; one key later deleted.
            for round in 0..3u32 {
                for i in 0..120u32 {
                    let p = ["aaaa", "bbbb", "cccc"][(i % 3) as usize];
                    db.put(format!("{p}{:04}", i + round).as_bytes(), &[b'v'; 64])
                        .unwrap();
                }
                db.flush().unwrap();
            }
            db.delete(b"bbbb0004").unwrap();
            db.put(b"bbbb9999", b"mem-only").unwrap();

            let mut expect = Vec::new();
            let mut full = db.scan().unwrap();
            let mut ok = full.seek_to_first().unwrap();
            while ok {
                if full.key().starts_with(b"bbbb") {
                    expect.push((full.key().to_vec(), full.value().to_vec()));
                }
                ok = full.next().unwrap();
            }
            assert!(!expect.is_empty());

            let mut got = Vec::new();
            let mut scan = db.scan_prefix(b"bbbb").unwrap();
            let mut ok = scan.valid();
            while ok {
                got.push((scan.key().to_vec(), scan.value().to_vec()));
                ok = scan.next().unwrap();
            }
            assert_eq!(got, expect, "prefix scan diverged from filtered scan");
            assert!(got.iter().all(|(k, _)| !k.starts_with(b"bbbb0004")));
            db.close();
        });
    }

    #[test]
    fn multi_get_resolves_across_memtable_ssts_and_tombstones() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            for i in 0..400u32 {
                db.put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
            db.delete(b"key0003").unwrap(); // tombstone over an SST value
            db.put(b"key0001", b"fresh").unwrap(); // memtable shadows SST
            let keys: Vec<&[u8]> = vec![b"key0001", b"key0002", b"key0003", b"nope"];
            let got = db.multi_get(&keys).unwrap();
            assert_eq!(got[0], Some(b"fresh".to_vec()));
            assert_eq!(got[1], Some(b"v2".to_vec()));
            assert_eq!(got[2], None, "tombstone must win over older SST value");
            assert_eq!(got[3], None);
            assert_eq!(db.stats().ticker(Ticker::MultiGetBatches), 1);
            assert_eq!(db.stats().ticker(Ticker::MultiGetKeys), 4);
            db.close();
        });
    }

    #[test]
    fn scan_sees_merged_view() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            for i in 0..300u32 {
                db.put(format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
            // Overwrite some in the new memtable, delete others.
            db.put(b"k0000", b"fresh").unwrap();
            db.delete(b"k0001").unwrap();
            let mut scan = db.scan().unwrap();
            assert!(scan.seek_to_first().unwrap());
            assert_eq!(scan.key(), b"k0000");
            assert_eq!(scan.value(), b"fresh");
            assert!(scan.next().unwrap());
            assert_eq!(scan.key(), b"k0002", "deleted key skipped");
            let mut count = 2;
            while scan.next().unwrap() {
                count += 1;
            }
            assert_eq!(count, 299, "300 keys minus 1 deletion");
            // Seek.
            assert!(scan.seek(b"k0150").unwrap());
            assert_eq!(scan.key(), b"k0150");
            drop(scan);
            db.close();
        });
    }
}
