//! Leveled compaction: picking and execution.
//!
//! *Which level* gets serviced is the compaction daemon's [`LevelPicker`],
//! consulted with the per-level scores; *what* is compacted within the
//! chosen level is fixed policy:
//!
//! * **L0 → L1**: all Level-0 files (their ranges overlap) merge with the
//!   overlapping L1 files.
//! * **Ln → Ln+1** (n ≥ 1): a cursor walks the level round-robin; the picked
//!   file merges with its overlapping Ln+1 files. A file with no overlap is
//!   *trivially moved* (metadata-only). Every pick advances the cursor,
//!   one the space cap refuses too, so an oversized file cannot hold the
//!   level's next pick.
//!
//! Obsolete versions of a user key are dropped when invisible to every
//! active snapshot; deletion tombstones are additionally dropped when the
//! output level is bottommost for their key range.

use crate::costs::{self, EntryCharge};
use crate::error::DbResult;
use crate::filenames::sst_file_name;
use crate::iterator::{InternalIterator, LevelIterator, MergingIterator};
use crate::options::DbOptions;
use crate::scheduler::{CompactionScheduler, LevelPicker};
use crate::sst::{TableBuilder, TableOptions};
use crate::stats::{DbStats, Ticker};
use crate::table_cache::TableCache;
use crate::types::{self, SequenceNumber, ValueType};
use crate::version::{FileMetaData, Version, VersionEdit, NUM_LEVELS};
use std::sync::Arc;
use xlsm_sim::Class;
use xlsm_simfs::SimFs;

/// A picked compaction: inputs at `level` and overlapping files at
/// `output_level`.
#[derive(Clone, Debug)]
pub struct CompactionTask {
    /// Input level.
    pub level: usize,
    /// Destination level.
    pub output_level: usize,
    /// Files taken from `level`.
    pub inputs: Vec<Arc<FileMetaData>>,
    /// Overlapping files taken from `output_level`.
    pub inputs_next: Vec<Arc<FileMetaData>>,
    /// Metadata-only move (single input, no overlap).
    pub is_trivial_move: bool,
    /// Whether deletion tombstones may be dropped (bottommost range).
    pub can_drop_tombstones: bool,
}

impl CompactionTask {
    /// All input file numbers.
    pub fn input_numbers(&self) -> Vec<u64> {
        self.inputs
            .iter()
            .chain(self.inputs_next.iter())
            .map(|f| f.number)
            .collect()
    }

    /// Total input bytes.
    pub fn input_bytes(&self) -> u64 {
        self.inputs
            .iter()
            .chain(self.inputs_next.iter())
            .map(|f| f.file_size)
            .sum()
    }
}

/// User-key range `[lo, hi]` spanned by `files`.
fn key_range(files: &[Arc<FileMetaData>]) -> Option<(Vec<u8>, Vec<u8>)> {
    let mut lo: Option<Vec<u8>> = None;
    let mut hi: Option<Vec<u8>> = None;
    for f in files {
        let s = types::user_key(&f.smallest).to_vec();
        let l = types::user_key(&f.largest).to_vec();
        if lo.as_ref().is_none_or(|cur| &s < cur) {
            lo = Some(s);
        }
        if hi.as_ref().is_none_or(|cur| &l > cur) {
            hi = Some(l);
        }
    }
    lo.zip(hi)
}

/// What the compaction daemon remembers between picks: its level picker and,
/// per level, the user key after which the next round-robin file pick
/// starts.
#[derive(Debug)]
pub(crate) struct CompactionPicker {
    levels: LevelPicker,
    cursors: Vec<Option<Vec<u8>>>,
}

impl CompactionPicker {
    /// A picker with no history that chooses levels by `policy`.
    pub(crate) fn new(policy: CompactionScheduler) -> CompactionPicker {
        CompactionPicker {
            levels: LevelPicker::new(policy),
            cursors: vec![None; NUM_LEVELS],
        }
    }
}

/// Picks the next compaction as directed by the level picker and admits it
/// through `admit`, returning the task with what `admit` gave for it, or
/// `None` when no level is eligible or `admit` refused every eligible
/// level's task.
///
/// One compaction runs at a time (the compaction daemon is the only
/// caller), so no input can be busy and the level the picker chooses always
/// forms a task. `admit` is the space manager's headroom check: it hands
/// back the task's output reservation, or refuses. A refused level's score
/// is masked to 0 and the picker is asked again, so one oversized task
/// never idles the daemon while another level has serviceable (and perhaps
/// smaller) debt. A refused pick still advances that level's cursor, so the
/// next lap tries the following — possibly smaller — file instead of
/// re-forming the same oversized task forever.
pub(crate) fn pick_compaction<R>(
    version: &Version,
    opts: &DbOptions,
    l0_trigger: usize,
    picker: &mut CompactionPicker,
    mut admit: impl FnMut(&CompactionTask) -> Option<R>,
) -> Option<(CompactionTask, R)> {
    let mut scores = version.level_scores(opts, l0_trigger);
    loop {
        let level = picker.levels.pick_level(&scores)?;
        let task = pick_at_level(version, level, &mut picker.cursors);
        if let Some(admitted) = admit(&task) {
            return Some((task, admitted));
        }
        scores[level] = 0.0;
    }
}

/// Forms the compaction at `level`, which must be eligible (and so holds a
/// file), and commits the level's cursor past the file it takes.
fn pick_at_level(
    version: &Version,
    level: usize,
    cursors: &mut [Option<Vec<u8>>],
) -> CompactionTask {
    let output_level = level + 1;
    let inputs: Vec<Arc<FileMetaData>> = if level == 0 {
        version.levels[0].clone()
    } else {
        let files = &version.levels[level];
        let start = match &cursors[level] {
            None => 0,
            Some(c) => files.partition_point(|f| types::user_key(&f.smallest) <= &c[..]),
        };
        let pick = Arc::clone(&files[start % files.len()]);
        cursors[level] = Some(types::user_key(&pick.largest).to_vec());
        vec![pick]
    };
    let (lo, hi) = key_range(&inputs).expect("an eligible level holds a file");
    let inputs_next = version.overlapping(output_level, &lo, &hi);
    // Bottommost check: no file in any deeper level overlaps the range.
    let can_drop_tombstones = (output_level + 1..version.levels.len())
        .all(|deep| version.overlapping(deep, &lo, &hi).is_empty());
    let is_trivial_move = level > 0 && inputs.len() == 1 && inputs_next.is_empty();
    CompactionTask {
        level,
        output_level,
        inputs,
        inputs_next,
        is_trivial_move,
        can_drop_tombstones,
    }
}

/// What a compaction's merge needs besides the key range it covers: one
/// borrowed bundle, handed down unchanged from [`run_compaction`] to every
/// range's merge.
pub(crate) struct CompactionJob<'a> {
    pub(crate) task: &'a CompactionTask,
    pub(crate) fs: &'a Arc<SimFs>,
    pub(crate) table_cache: &'a Arc<TableCache>,
    pub(crate) stats: &'a Arc<DbStats>,
    pub(crate) opts: &'a DbOptions,
    /// Allocates the file number of each output.
    pub(crate) new_file_number: &'a Arc<dyn Fn() -> u64 + Send + Sync>,
    /// The oldest sequence a live snapshot may still read: versions
    /// shadowed at or below it can go.
    pub(crate) min_snapshot: SequenceNumber,
}

/// Runs the merge for `job.task`, writing output SSTs and returning the
/// version edit to install. Purely additive: installation and input deletion
/// are the caller's job.
///
/// When `opts.max_subcompactions > 1` the input key space is cut at SST
/// block boundaries into up to that many disjoint user-key ranges, each
/// merged by its own sim thread writing its own outputs; the partial edits
/// are stitched back together in range order. Inputs that do not offer
/// enough distinct boundary keys are one range, like the serial merge.
///
/// # Errors
///
/// Filesystem or corruption errors abort the compaction; outputs written so
/// far (by every subcompaction) are deleted before returning, so a retried
/// compaction starts clean.
pub(crate) fn run_compaction(job: &CompactionJob<'_>) -> DbResult<VersionEdit> {
    let (task, stats) = (job.task, job.stats);
    let mut edit = VersionEdit::default();
    for (lvl, files) in [
        (task.level, &task.inputs),
        (task.output_level, &task.inputs_next),
    ] {
        for f in files {
            edit.deleted.push((lvl, f.number));
        }
    }

    if task.is_trivial_move {
        let f = &task.inputs[0];
        edit.added.push((task.output_level, (**f).clone()));
        stats.bump(Ticker::TrivialMoves);
        return Ok(edit);
    }

    let ranges = if job.opts.max_subcompactions > 1 {
        subcompaction_ranges(task, job.table_cache, job.opts.max_subcompactions)?
    } else {
        vec![(None, None)]
    };
    let mut created: Vec<u64> = Vec::new();
    match merge_ranges(job, ranges, &mut edit, &mut created) {
        Ok(()) => {
            stats.add(Ticker::CompactReadBytes, task.input_bytes());
            stats.add(
                Ticker::CompactWriteBytes,
                edit.added.iter().map(|(_, f)| f.file_size).sum(),
            );
            Ok(edit)
        }
        Err(e) => {
            for n in created {
                let _ = job.fs.delete(&sst_file_name(&job.opts.db_path, n));
            }
            Err(e)
        }
    }
}

/// A half-open `[lo, hi)` user-key range one subcompaction covers; `None`
/// bounds are open ends.
type KeyRange = (Option<Vec<u8>>, Option<Vec<u8>>);

/// Computes the disjoint user-key ranges `[lo, hi)` a compaction fans out
/// across: candidate cut points are the block-boundary keys of every input
/// file (read from their already-parsed index blocks), evenly thinned down
/// to at most `max_subcompactions` ranges. `None` bounds are open ends.
/// Returns a single full-range entry when there is nothing to cut.
fn subcompaction_ranges(
    task: &CompactionTask,
    table_cache: &Arc<TableCache>,
    max_subcompactions: usize,
) -> DbResult<Vec<KeyRange>> {
    let mut candidates: Vec<Vec<u8>> = Vec::new();
    for f in task.inputs.iter().chain(task.inputs_next.iter()) {
        let reader = table_cache.reader(f)?;
        candidates.extend(reader.block_boundary_user_keys().map(<[u8]>::to_vec));
    }
    candidates.sort_unstable();
    candidates.dedup();
    // The largest key cannot start a non-empty trailing range (a cut is the
    // *inclusive start* of the next range and everything sorts before it).
    candidates.pop();
    let want = max_subcompactions.min(candidates.len() + 1);
    if want <= 1 {
        return Ok(vec![(None, None)]);
    }
    let mut cuts: Vec<Vec<u8>> = (1..want)
        .map(|i| candidates[i * candidates.len() / want].clone())
        .collect();
    cuts.dedup();
    let mut ranges = Vec::with_capacity(cuts.len() + 1);
    let mut lo: Option<Vec<u8>> = None;
    for cut in cuts {
        ranges.push((lo, Some(cut.clone())));
        lo = Some(cut);
    }
    ranges.push((lo, None));
    Ok(ranges)
}

/// Merges every range: a single range on the calling thread, several
/// fanned out to one sim thread each, every thread writing its own outputs.
/// Partial edits are stitched in range order so the combined output file
/// list stays sorted and disjoint. Every range's created file numbers reach
/// `created` even on failure so the caller can clean up.
fn merge_ranges(
    job: &CompactionJob<'_>,
    ranges: Vec<KeyRange>,
    edit: &mut VersionEdit,
    created: &mut Vec<u64>,
) -> DbResult<()> {
    if let [(lo, hi)] = &ranges[..] {
        if job.opts.max_subcompactions > 1 {
            // Not enough boundary keys to cut.
            job.stats.bump(Ticker::SubcompactionFallbacks);
        }
        return merge_range(job, lo.as_deref(), hi.as_deref(), edit, created);
    }
    job.stats
        .add(Ticker::SubcompactionsLaunched, ranges.len() as u64);
    let task = Arc::new(job.task.clone());
    let mut handles = Vec::with_capacity(ranges.len());
    for (i, (lo, hi)) in ranges.into_iter().enumerate() {
        let task = Arc::clone(&task);
        let fs = Arc::clone(job.fs);
        let table_cache = Arc::clone(job.table_cache);
        let stats = Arc::clone(job.stats);
        let opts = job.opts.clone();
        let new_file_number = Arc::clone(job.new_file_number);
        let min_snapshot = job.min_snapshot;
        handles.push(xlsm_sim::spawn(&format!("subcompact-{i}"), move || {
            let job = CompactionJob {
                task: &task,
                fs: &fs,
                table_cache: &table_cache,
                stats: &stats,
                opts: &opts,
                new_file_number: &new_file_number,
                min_snapshot,
            };
            let mut part = VersionEdit::default();
            let mut part_created = Vec::new();
            let r = merge_range(
                &job,
                lo.as_deref(),
                hi.as_deref(),
                &mut part,
                &mut part_created,
            );
            (r, part.added, part_created)
        }));
    }
    let mut first_err = None;
    for h in handles {
        let (r, added, part_created) = h.join();
        created.extend(part_created);
        match r {
            Ok(()) => edit.added.extend(added),
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

/// The merge loop proper, restricted to user keys in `[lo, hi)` (`None`
/// bounds are open). Output file numbers are pushed to `created` as they
/// are allocated so the caller can clean up after a failure.
///
/// Ranges cut at user-key granularity keep the per-key shadowing state
/// (`last_user_key` / `last_kept_visible`) self-contained: every version of
/// one user key lands in exactly one range.
fn merge_range(
    job: &CompactionJob<'_>,
    lo: Option<&[u8]>,
    hi: Option<&[u8]>,
    edit: &mut VersionEdit,
    created: &mut Vec<u64>,
) -> DbResult<()> {
    let CompactionJob {
        task,
        fs,
        table_cache,
        stats,
        opts,
        new_file_number,
        min_snapshot,
    } = *job;
    // Build the merged input iterator: L0 files individually (overlapping),
    // the rest as level runs.
    let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
    if task.level == 0 {
        for f in &task.inputs {
            let reader = table_cache.reader(f)?;
            children.push(Box::new(reader.iter(Arc::clone(stats), true)));
        }
    } else {
        children.push(Box::new(LevelIterator::new(
            task.inputs.clone(),
            Arc::clone(table_cache),
            Arc::clone(stats),
            true,
        )));
    }
    if !task.inputs_next.is_empty() {
        children.push(Box::new(LevelIterator::new(
            task.inputs_next.clone(),
            Arc::clone(table_cache),
            Arc::clone(stats),
            true,
        )));
    }
    let mut merged = MergingIterator::new(children);

    let mut builder: Option<TableBuilder> = None;
    let mut builder_number = 0u64;
    // The previous entry's user key, in one buffer every key reuses.
    let mut last_user_key: Option<Vec<u8>> = None;
    let mut last_kept_visible = false; // kept an entry for last_user_key with seq <= min_snapshot
    let mut cpu = EntryCharge::new(Class::Merge, costs::MERGE_ENTRY_NS);

    let finish_builder =
        |builder: &mut Option<TableBuilder>, number: u64, edit: &mut VersionEdit| -> DbResult<()> {
            if let Some(b) = builder.take() {
                let props = b.finish()?;
                edit.added
                    .push((task.output_level, FileMetaData::from_props(number, props)));
            }
            Ok(())
        };

    let mut ok = match lo {
        // The lookup key for `lo` (seq = MAX) is the smallest internal key
        // of that user key, so the range starts at its newest version.
        Some(lo) => merged.seek(&types::lookup_key(lo, types::MAX_SEQUENCE))?,
        None => merged.seek_to_first()?,
    };
    while ok {
        let ikey = merged.key();
        let (uk, seq, t) = types::parse_internal_key(ikey);
        if let Some(hi) = hi {
            if uk >= hi {
                break; // next range's territory
            }
        }
        cpu.entry();

        let same_key = last_user_key.as_deref() == Some(uk);
        if !same_key {
            // Reset per-key state *before* the drop decision, so a dropped
            // leading tombstone's shadow survives for the older versions.
            let key = last_user_key.get_or_insert_with(Vec::new);
            key.clear();
            key.extend_from_slice(uk);
            last_kept_visible = false;
        }
        let mut drop = false;
        if same_key && last_kept_visible {
            // A newer, universally-visible version shadows this one.
            drop = true;
        } else if t == ValueType::Deletion && seq <= min_snapshot && task.can_drop_tombstones {
            drop = true;
            // The dropped tombstone still shadows older versions below it.
            last_kept_visible = true;
        }
        if !drop {
            if seq <= min_snapshot {
                last_kept_visible = true;
            }
            // No key's versions straddle two outputs (a level is searched by
            // user key): cut after a version all snapshots see, else before the next key.
            let target = opts.target_file_size_base;
            if !same_key && builder.as_ref().is_some_and(|b| b.file_size() >= target) {
                finish_builder(&mut builder, builder_number, edit)?;
            }
            if builder.is_none() {
                builder_number = new_file_number();
                created.push(builder_number);
                let file = fs.create(&sst_file_name(&opts.db_path, builder_number))?;
                builder = Some(TableBuilder::new(file, TableOptions::from(opts)));
            }
            let b = builder.as_mut().unwrap();
            b.add(ikey, merged.value())?;
            if last_kept_visible && b.file_size() >= target {
                finish_builder(&mut builder, builder_number, edit)?;
            }
        }
        ok = merged.next()?;
    }
    cpu.finish();
    finish_builder(&mut builder, builder_number, edit)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::{open_db, small_opts};
    use crate::types::make_internal_key;
    use xlsm_sim::Runtime;

    fn pick(
        v: &Version,
        opts: &DbOptions,
        picker: &mut CompactionPicker,
    ) -> Option<CompactionTask> {
        let trigger = opts.level0_file_num_compaction_trigger;
        pick_compaction(v, opts, trigger, picker, |_| Some(())).map(|(task, ())| task)
    }

    fn meta(number: u64, lo: &[u8], hi: &[u8], size: u64) -> FileMetaData {
        FileMetaData {
            number,
            file_size: size,
            smallest: make_internal_key(lo, 1, ValueType::Value),
            largest: make_internal_key(hi, 1, ValueType::Value),
            num_entries: 10,
            file_crc: None,
        }
    }

    fn version_with(l0: Vec<FileMetaData>, l1: Vec<FileMetaData>) -> Version {
        let mut e = VersionEdit::default();
        for f in l0 {
            e.added.push((0, f));
        }
        for f in l1 {
            e.added.push((1, f));
        }
        crate::version::apply_edit(&Version::empty(7), &e)
    }

    #[test]
    fn no_compaction_below_trigger() {
        let opts = DbOptions::default();
        let v = version_with(vec![meta(1, b"a", b"z", 100)], vec![]);
        let mut picker = CompactionPicker::new(CompactionScheduler::Greedy);
        assert!(pick(&v, &opts, &mut picker).is_none());
    }

    #[test]
    fn l0_pick_takes_all_l0_and_overlaps() {
        let opts = DbOptions::default();
        let v = version_with(
            (1..=4).map(|i| meta(i, b"c", b"m", 100)).collect(),
            vec![
                meta(10, b"a", b"d", 100),
                meta(11, b"k", b"p", 100),
                meta(12, b"x", b"z", 100),
            ],
        );
        let mut picker = CompactionPicker::new(CompactionScheduler::Greedy);
        let t = pick(&v, &opts, &mut picker).unwrap();
        assert_eq!(t.level, 0);
        assert_eq!(t.inputs.len(), 4);
        // Overlapping L1: [a,d] and [k,p], not [x,z].
        assert_eq!(t.inputs_next.len(), 2);
        assert!(!t.is_trivial_move);
        assert!(t.can_drop_tombstones, "nothing deeper than L1 here");
    }

    #[test]
    fn trivial_move_when_no_overlap() {
        let opts = DbOptions {
            max_bytes_for_level_base: 50, // force L1 over target
            ..DbOptions::default()
        };
        let v = version_with(vec![], vec![meta(5, b"a", b"c", 100)]);
        let mut picker = CompactionPicker::new(CompactionScheduler::Greedy);
        let t = pick(&v, &opts, &mut picker).unwrap();
        assert_eq!(t.level, 1);
        assert!(t.is_trivial_move);
        assert_eq!(t.input_numbers(), vec![5]);
    }

    #[test]
    fn cursor_round_robins_level_files() {
        let opts = DbOptions {
            max_bytes_for_level_base: 50,
            ..DbOptions::default()
        };
        let v = version_with(
            vec![],
            vec![meta(5, b"a", b"c", 100), meta(6, b"m", b"p", 100)],
        );
        let mut picker = CompactionPicker::new(CompactionScheduler::Greedy);
        let t1 = pick(&v, &opts, &mut picker).unwrap();
        assert_eq!(t1.inputs[0].number, 5);
        let t2 = pick(&v, &opts, &mut picker).unwrap();
        assert_eq!(t2.inputs[0].number, 6, "cursor should advance");
        let t3 = pick(&v, &opts, &mut picker).unwrap();
        assert_eq!(t3.inputs[0].number, 5, "cursor should wrap");
    }

    #[test]
    fn refused_level_falls_back_and_advances_its_cursor() {
        // L0 at its trigger (score 1) and L1 files A(a..c), B(m..p), C(x..z)
        // far over target (score 6): the greedy picker chooses L1 first.
        // The admission callback refuses L1's task, so L1 is masked and the
        // pick falls back to L0; L1's cursor has still moved past A.
        let opts = DbOptions {
            max_bytes_for_level_base: 50,
            ..DbOptions::default()
        };
        let v = version_with(
            (1..=4).map(|i| meta(i, b"a", b"z", 100)).collect(),
            vec![
                meta(5, b"a", b"c", 100),
                meta(6, b"m", b"p", 100),
                meta(7, b"x", b"z", 100),
            ],
        );
        let mut picker = CompactionPicker::new(CompactionScheduler::Greedy);
        let trigger = opts.level0_file_num_compaction_trigger;
        let mut asked = Vec::new();
        let (task, ()) = pick_compaction(&v, &opts, trigger, &mut picker, |t| {
            asked.push((t.level, t.inputs.len()));
            (t.level != 1).then_some(())
        })
        .expect("L0 is still eligible");
        assert_eq!(asked, vec![(1, 1), (0, 4)], "L1 is asked once, then masked");
        assert_eq!(task.level, 0);
        assert_eq!(task.inputs.len(), 4);
        // Only L1 is left once L0 is refused too: nothing to pick.
        let refuse_all = pick_compaction(&v, &opts, trigger, &mut picker, |_| None::<()>);
        assert!(refuse_all.is_none());
        // Two refused L1 picks moved its cursor past A, then past B.
        assert_eq!(pick(&v, &opts, &mut picker).unwrap().inputs[0].number, 7);
    }

    #[test]
    fn dropped_tombstone_must_not_resurrect_older_value() {
        // Regression: when a droppable tombstone is the FIRST version of a
        // key seen by a compaction, the older value beneath it must still
        // be shadowed (the per-key state reset must precede the drop
        // decision).
        Runtime::new().run(|| {
            let (db, _fs) = open_db(DbOptions {
                // Trigger compaction with few files so the tombstone file
                // and the value file merge.
                level0_file_num_compaction_trigger: 2,
                ..small_opts()
            });
            for i in 0..300u32 {
                db.put(format!("k{i:05}").as_bytes(), &[b'v'; 128]).unwrap();
            }
            db.flush().unwrap();
            for i in 0..300u32 {
                db.delete(format!("k{i:05}").as_bytes()).unwrap();
            }
            db.flush().unwrap();
            db.wait_for_compactions();
            assert!(
                db.stats().ticker(Ticker::CompactionCount) > 0,
                "test requires a real compaction"
            );
            for i in 0..300u32 {
                assert_eq!(
                    db.get(format!("k{i:05}").as_bytes()).unwrap(),
                    None,
                    "key k{i:05} resurrected after compaction"
                );
            }
            let mut scan = db.scan().unwrap();
            assert!(!scan.seek_to_first().unwrap(), "scan must be empty");
            drop(scan);
            db.close();
        });
    }

    #[test]
    fn tombstones_collapse_at_bottom_level() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            for i in 0..400u32 {
                db.put(format!("k{i:05}").as_bytes(), &vec![b'v'; 256])
                    .unwrap();
            }
            db.flush().unwrap();
            for i in 0..400u32 {
                db.delete(format!("k{i:05}").as_bytes()).unwrap();
            }
            db.flush().unwrap();
            db.wait_for_compactions();
            for i in (0..400u32).step_by(37) {
                assert_eq!(db.get(format!("k{i:05}").as_bytes()).unwrap(), None);
            }
            let mut scan = db.scan().unwrap();
            assert!(!scan.seek_to_first().unwrap(), "everything was deleted");
            drop(scan);
            db.close();
        });
    }
}
