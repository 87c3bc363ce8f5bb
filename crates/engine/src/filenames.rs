//! The database directory: the one module that names, parses and lists its
//! files, so no other engine module spells a path. DESIGN.md §2, "The
//! database directory", tables each file with who writes and reads it.
//!
//! One listing rule: [`numbered_files`] reads the top level of one
//! directory, so nothing under `trash/` or `lost/` is taken for a live
//! table or log. DESIGN.md says why nothing is missed.

use crate::error::{DbError, DbResult};
use std::sync::Arc;
use xlsm_simfs::SimFs;

const MANIFEST: &str = "MANIFEST";

/// The suffix of a table's numbered name, `NNNNNN.sst`.
pub(crate) const TABLE: &str = ".sst";
/// The suffix of a log's numbered name, `NNNNNN.log`.
pub(crate) const LOG: &str = ".log";

fn numbered(dir: &str, number: u64, suffix: &str) -> String {
    format!("{dir}/{number:06}{suffix}")
}

/// SST file names: `<db>/<number>.sst`.
pub fn sst_file_name(db_path: &str, number: u64) -> String {
    numbered(db_path, number, TABLE)
}

/// WAL file names: `<db>/<number>.log`.
pub fn wal_file_name(db_path: &str, number: u64) -> String {
    numbered(db_path, number, LOG)
}

/// The name a table's corruption messages carry (`<number>.sst`, no
/// directory: readers don't carry the db path).
pub(crate) fn sst_label(number: u64) -> String {
    format!("{number:06}{TABLE}")
}

/// The directory obsolete tables wait in for the paced reaper.
pub(crate) fn trash_dir(db_path: &str) -> String {
    format!("{db_path}/trash")
}

/// Where obsolete table `number` waits between being trashed and reaped.
pub(crate) fn trash_file_name(db_path: &str, number: u64) -> String {
    numbered(&trash_dir(db_path), number, TABLE)
}

/// Where repair archives file `number` with `suffix` ([`TABLE`] or [`LOG`]).
pub(crate) fn lost_file_name(db_path: &str, number: u64, suffix: &str) -> String {
    numbered(&format!("{db_path}/lost"), number, suffix)
}

/// The MANIFEST: `<db>/MANIFEST`.
pub(crate) fn manifest_file_name(db_path: &str) -> String {
    format!("{db_path}/{MANIFEST}")
}

/// Repair's new MANIFEST before it is swapped in: `<db>/MANIFEST.repair`.
pub(crate) fn repair_manifest_file_name(db_path: &str) -> String {
    format!("{db_path}/{MANIFEST}.repair")
}

/// `<db>/CURRENT`, whose presence makes a directory a database.
pub(crate) fn current_file_name(db_path: &str) -> String {
    format!("{db_path}/CURRENT")
}

/// Writes CURRENT, naming the MANIFEST, in place of any CURRENT before it:
/// durable, and holding only the page its bytes need.
pub(crate) fn write_current(fs: &Arc<SimFs>, db_path: &str) -> DbResult<()> {
    let path = current_file_name(db_path);
    if fs.exists(&path) {
        fs.delete(&path)?;
    }
    let current = fs.create(&path)?;
    current.append(MANIFEST.as_bytes())?;
    current.sync()?;
    current.seal()?;
    Ok(())
}

/// The path of the MANIFEST that CURRENT names.
///
/// # Errors
///
/// Filesystem errors, and corruption when CURRENT is not UTF-8.
pub(crate) fn read_current(fs: &Arc<SimFs>, db_path: &str) -> DbResult<String> {
    let cur = fs.open(&current_file_name(db_path))?;
    let name = cur.read_at(0, cur.len() as usize)?;
    let name =
        String::from_utf8(name).map_err(|_| DbError::Corruption("CURRENT not utf-8".into()))?;
    Ok(format!("{db_path}/{name}"))
}

/// The number of `path` when its last component is a number and `suffix`.
pub(crate) fn parse_file_number(path: &str, suffix: &str) -> Option<u64> {
    let name = path.rsplit('/').next()?;
    name.strip_suffix(suffix)?.parse().ok()
}

/// The numbered files with `suffix` at the top level of `dir`, as
/// `(number, path)` ascending by number: the one listing of the directory.
pub(crate) fn numbered_files(fs: &SimFs, dir: &str, suffix: &str) -> Vec<(u64, String)> {
    let prefix = format!("{dir}/");
    let mut files: Vec<(u64, String)> = fs
        .list(&prefix)
        .into_iter()
        .filter(|p| !p[prefix.len()..].contains('/'))
        .filter_map(|p| Some((parse_file_number(&p, suffix)?, p)))
        .collect();
    files.sort_unstable();
    files
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlsm_sim::Runtime;

    #[test]
    fn numbered_names_parse_back_to_their_numbers() {
        let names = [
            (sst_file_name("db", 7), TABLE, LOG),
            (wal_file_name("db", 7), LOG, TABLE),
            (trash_file_name("db", 7), TABLE, LOG),
            (lost_file_name("db", 7, LOG), LOG, TABLE),
        ];
        for (name, suffix, other) in names {
            assert_eq!(parse_file_number(&name, suffix), Some(7), "{name}");
            assert_eq!(parse_file_number(&name, other), None, "{name}");
        }
        assert_eq!(sst_file_name("db", 7), "db/000007.sst");
        assert_eq!(trash_file_name("db", 7), "db/trash/000007.sst");
        assert_eq!(sst_label(1_234_567), "1234567.sst");
        assert_eq!(
            parse_file_number(&sst_file_name("db", 1_234_567), TABLE),
            Some(1_234_567)
        );
        for unnumbered in [
            manifest_file_name("db"),
            current_file_name("db"),
            repair_manifest_file_name("db"),
        ] {
            assert_eq!(parse_file_number(&unnumbered, TABLE), None);
            assert_eq!(parse_file_number(&unnumbered, LOG), None);
        }
    }

    /// The listing reads one directory's top level, ascending by number: a
    /// subdirectory's files and the names that carry no number stay out.
    #[test]
    fn the_listing_is_the_top_level_numbered_files_ascending() {
        Runtime::new().run(|| {
            let fs = crate::sst::test_fs();
            let paths = [
                sst_file_name("db", 1_000_000),
                sst_file_name("db", 12),
                wal_file_name("db", 5),
                sst_file_name("db", 3),
                manifest_file_name("db"),
                current_file_name("db"),
                repair_manifest_file_name("db"),
                trash_file_name("db", 1),
                lost_file_name("db", 2, TABLE),
                lost_file_name("db", 4, LOG),
                sst_file_name("db2", 6),
            ];
            for path in &paths {
                fs.create(path).unwrap();
            }
            let numbers = |dir: &str, kind| -> Vec<u64> {
                numbered_files(&fs, dir, kind)
                    .into_iter()
                    .map(|(n, _)| n)
                    .collect()
            };
            assert_eq!(numbers("db", TABLE), [3, 12, 1_000_000]);
            assert_eq!(numbers("db", LOG), [5]);
            assert_eq!(numbers(&trash_dir("db"), TABLE), [1]);
            assert_eq!(
                numbered_files(&fs, "db", TABLE)[0],
                (3, sst_file_name("db", 3))
            );
        });
    }
}
