//! What a file holds in host memory: its bytes ([`Content`], in chunks
//! from a filesystem-wide [`ChunkPool`]) and how much of each page a power
//! cut would keep ([`Durability`]). Neither knows about time, the cache or
//! the device; `file.rs` decides when each is called.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;
use xlsm_device::PAGE_SIZE;
use xlsm_sim::hash::FxHashMap;

/// Per-file crash-durability bookkeeping. Files are append-only, so a
/// page's "valid bytes" count only ever grows; tracking byte counts per
/// page (rather than whole pages) lets a power cut keep a partially
/// written final page exactly as far as it was persisted.
#[derive(Debug, Default)]
pub(crate) struct Durability {
    /// page index -> bytes of that page pushed to the device since the last
    /// barrier, possibly still in its volatile write buffer. A barrier
    /// drains it, so it costs the pages pushed since the previous one.
    pending: FxHashMap<u64, u32>,
    /// page index -> bytes of that page made durable by a device barrier
    /// (or by write-through on devices without a write buffer).
    durable: FxHashMap<u64, u32>,
}

impl Durability {
    /// Records that `bytes` of `page` reached the device; `write_through`
    /// devices (no volatile buffer) persist immediately.
    pub(crate) fn record_device_write(&mut self, page: u64, bytes: u32, write_through: bool) {
        let ledger = if write_through {
            &mut self.durable
        } else {
            &mut self.pending
        };
        let e = ledger.entry(page).or_insert(0);
        *e = (*e).max(bytes);
    }

    /// A device barrier completed: everything pushed to the device since
    /// the previous barrier is now durable.
    pub(crate) fn promote(&mut self) {
        for (page, bytes) in self.pending.drain() {
            let d = self.durable.entry(page).or_insert(0);
            *d = (*d).max(bytes);
        }
    }

    /// Power is gone: what sat in the device's write buffer is lost.
    /// Returns the length the file keeps, its durable prefix.
    pub(crate) fn lose_volatile(&mut self) -> u64 {
        self.pending.clear();
        durable_prefix_bytes(|page| self.durable.get(&page).copied())
    }

    /// Pages pushed since the last barrier.
    #[cfg(test)]
    pub(crate) fn pending_pages(&self) -> usize {
        self.pending.len()
    }
}

/// Length of the longest durable prefix of a file whose page index ->
/// durable bytes is `durable`: full pages until the first page that is
/// missing or partially durable.
fn durable_prefix_bytes(durable: impl Fn(u64) -> Option<u32>) -> u64 {
    let mut len = 0u64;
    let mut page = 0u64;
    while let Some(bytes) = durable(page) {
        len += bytes as u64;
        if (bytes as usize) < PAGE_SIZE {
            break;
        }
        page += 1;
    }
    len
}

/// Bytes in one content chunk. Smaller chunks read slower (more of them per
/// block, scattered over the heap); larger ones strand more room at the end
/// of every file (EXPERIMENTS.md "Host cost, round 4").
pub(crate) const CHUNK: usize = 16 << 10;

/// Content chunks given back by deleted files, handed to the next append
/// before a new one is allocated. Which sim thread appends and which drops a
/// file is up to the engine; through the pool the chunks of one are reused
/// by the other instead of sitting in the allocator's arena of the thread
/// that allocated them, and the filesystem's content never holds more
/// chunks than its files held at their peak.
/// A chunk keeps its `Arc` in the pool, so reusing one allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct ChunkPool(parking_lot::Mutex<Vec<Arc<Vec<u8>>>>);

impl ChunkPool {
    /// An empty chunk no reader shares.
    fn take(&self) -> Arc<Vec<u8>> {
        self.0
            .lock()
            .pop()
            .unwrap_or_else(|| Arc::new(Vec::with_capacity(CHUNK)))
    }

    /// Takes `chunks` back; one a reader still shares goes when the reader
    /// lets go of it instead.
    fn give(&self, chunks: impl IntoIterator<Item = Arc<Vec<u8>>>) {
        let mut pool = self.0.lock();
        for mut chunk in chunks {
            if let Some(bytes) = Arc::get_mut(&mut chunk) {
                bytes.clear();
                pool.push(chunk);
            }
        }
    }
}

/// Bytes read from a file. Where the range lies in one chunk of the file's
/// memory they are that chunk, shared: the read copies nothing, and nothing
/// the file does afterwards changes them (a chunk a reader still holds is
/// copied before the file writes to it or shrinks it). Elsewhere they are a
/// copy, made in one allocation. Cheap to clone; dereferences to the bytes.
#[derive(Clone, Default)]
pub struct FileBytes {
    buf: Buf,
    range: Range<usize>,
}

/// What a [`FileBytes`] holds its bytes in.
#[derive(Clone)]
enum Buf {
    /// A chunk of a file's memory, or a caller's vector.
    Vec(Arc<Vec<u8>>),
    /// A copy of bytes that spanned chunks.
    Joined(Arc<[u8]>),
}

impl Default for Buf {
    fn default() -> Buf {
        Buf::Vec(Arc::default())
    }
}

/// What a copy of up to a chunk is sized from: `Arc::from` a slice is one
/// allocation, where a vector and then an `Arc` around it are two.
static ZEROS: [u8; CHUNK] = [0; CHUNK];

impl FileBytes {
    /// `range` of these bytes, sharing them.
    fn slice(&self, range: Range<usize>) -> FileBytes {
        assert!(range.start <= range.end && range.end <= self.len());
        let start = self.range.start;
        FileBytes {
            buf: self.buf.clone(),
            range: start + range.start..start + range.end,
        }
    }

    /// `parts`, `len` bytes in all, copied back to back.
    fn joined<'a>(parts: impl Iterator<Item = &'a [u8]>, len: usize) -> FileBytes {
        let Some(zeros) = ZEROS.get(..len) else {
            let mut out = Vec::with_capacity(len);
            parts.for_each(|part| out.extend_from_slice(part));
            return FileBytes::from(out);
        };
        let mut buf: Arc<[u8]> = Arc::from(zeros);
        let out = Arc::get_mut(&mut buf).expect("a new Arc is unshared");
        let mut at = 0;
        for part in parts {
            out[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        debug_assert_eq!(at, len);
        FileBytes {
            buf: Buf::Joined(buf),
            range: 0..len,
        }
    }
}

impl From<Vec<u8>> for FileBytes {
    fn from(bytes: Vec<u8>) -> FileBytes {
        FileBytes {
            range: 0..bytes.len(),
            buf: Buf::Vec(Arc::new(bytes)),
        }
    }
}

impl Deref for FileBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        let all: &[u8] = match &self.buf {
            Buf::Vec(bytes) => bytes,
            Buf::Joined(bytes) => bytes,
        };
        &all[self.range.clone()]
    }
}

impl fmt::Debug for FileBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileBytes")
            .field("len", &self.range.len())
            .finish()
    }
}

/// A range of a file as [`crate::FileHandle::read_shared`] returned it: the
/// file's own chunks, one piece per chunk it touches. Any part of it comes
/// out as [`FileBytes`]: shared when it lies in one piece, copied when it
/// spans two.
#[derive(Clone, Debug, Default)]
pub struct FileSpan {
    start: u64,
    len: usize,
    /// In file order; every piece but the first starts on a chunk boundary.
    pieces: Vec<FileBytes>,
}

impl FileSpan {
    /// File offset of the first byte.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// File offset one past the last byte.
    pub fn end(&self) -> u64 {
        self.start + self.len as u64
    }

    /// The piece holding span byte `at` (not the end), and where that piece
    /// starts in the span.
    fn piece(&self, at: usize) -> (usize, usize) {
        let lead = self.start as usize % CHUNK;
        let i = (lead + at) / CHUNK;
        (i, (i * CHUNK).saturating_sub(lead))
    }

    /// The bytes at file offsets `range`, which lies in the span.
    ///
    /// # Panics
    ///
    /// If `range` does not lie in the span.
    pub fn get(&self, range: Range<u64>) -> FileBytes {
        assert!(
            self.start <= range.start && range.start <= range.end && range.end <= self.end(),
            "{range:?} is not inside the span"
        );
        let at = (range.start - self.start) as usize..(range.end - self.start) as usize;
        if at.is_empty() {
            return FileBytes::default();
        }
        let ((first, first_at), (last, _)) = (self.piece(at.start), self.piece(at.end - 1));
        if first == last {
            return self.pieces[first].slice(at.start - first_at..at.end - first_at);
        }
        let mut piece_at = first_at;
        let parts = self.pieces[first..=last].iter().map(|piece| {
            let from = at.start.max(piece_at) - piece_at;
            let to = at.end.min(piece_at + piece.len()) - piece_at;
            piece_at += piece.len();
            &piece[from..to]
        });
        FileBytes::joined(parts, at.len())
    }

    /// Flips one bit of span byte `byte` in a private copy of its piece:
    /// the file's bytes stay as they were.
    pub(crate) fn flip(&mut self, byte: usize, bit: u32) {
        let (i, piece_at) = self.piece(byte);
        let mut copy = self.pieces[i].to_vec();
        copy[byte - piece_at] ^= 1u8 << bit;
        self.pieces[i] = FileBytes::from(copy);
    }
}

/// A file's bytes, in fixed-size chunks that are filled in order and never
/// moved: an append copies its bytes once, where one growing buffer would
/// copy the whole file again each time it doubled.
#[derive(Debug, Default)]
pub(crate) struct Content {
    chunks: Vec<Arc<Vec<u8>>>,
    len: usize,
}

impl Content {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The last chunk, to write to: copied first if a reader shares it.
    fn last_mut(&mut self, pool: &ChunkPool) -> &mut Vec<u8> {
        let last = self
            .chunks
            .last_mut()
            .expect("a file with bytes has a chunk");
        if Arc::get_mut(last).is_none() {
            let mut copy = pool.take();
            Arc::get_mut(&mut copy)
                .expect("a pooled chunk is unshared")
                .extend_from_slice(last);
            *last = copy;
        }
        Arc::get_mut(last).expect("copied above")
    }

    pub(crate) fn extend(&mut self, mut data: &[u8], pool: &ChunkPool) {
        self.len += data.len();
        while !data.is_empty() {
            if self.chunks.last().is_none_or(|last| last.len() == CHUNK) {
                self.chunks.push(pool.take());
            }
            let last = self.last_mut(pool);
            let (now, rest) = data.split_at(data.len().min(CHUNK - last.len()));
            last.extend_from_slice(now);
            data = rest;
        }
    }

    /// The chunks `range` covers, each with the part of it the range takes.
    fn pieces(&self, range: Range<usize>) -> impl Iterator<Item = (&Arc<Vec<u8>>, Range<usize>)> {
        let mut at = range.start;
        std::iter::from_fn(move || {
            (at < range.end).then(|| {
                let (from, to) = (at % CHUNK, (range.end - at + at % CHUNK).min(CHUNK));
                let chunk = &self.chunks[at / CHUNK];
                at += to - from;
                (chunk, from..to)
            })
        })
    }

    /// Copies `range` out; the caller has checked it lies in the file.
    pub(crate) fn read(&self, range: Range<usize>) -> Vec<u8> {
        let mut out = Vec::with_capacity(range.len());
        for (chunk, part) in self.pieces(range) {
            out.extend_from_slice(&chunk[part]);
        }
        out
    }

    /// `range` as one piece of bytes: the chunk that holds it, shared, or a
    /// copy when it spans two. The caller has checked it lies in the file.
    pub(crate) fn read_bytes(&self, range: Range<usize>) -> FileBytes {
        let (first, at) = (range.start / CHUNK, range.start % CHUNK);
        if range.is_empty() || at + range.len() > CHUNK {
            let len = range.len();
            return FileBytes::joined(self.pieces(range).map(|(chunk, part)| &chunk[part]), len);
        }
        FileBytes {
            buf: Buf::Vec(Arc::clone(&self.chunks[first])),
            range: at..at + range.len(),
        }
    }

    /// `range` as the chunks that hold it, shared; the caller has checked it
    /// lies in the file.
    pub(crate) fn read_shared(&self, range: Range<usize>) -> FileSpan {
        FileSpan {
            start: range.start as u64,
            len: range.len(),
            pieces: (self.pieces(range))
                .map(|(chunk, part)| FileBytes {
                    buf: Buf::Vec(Arc::clone(chunk)),
                    range: part,
                })
                .collect(),
        }
    }

    /// Shrinks the file to its first `len` bytes, giving whole chunks past
    /// it back to `pool` (all of them at `len` 0).
    pub(crate) fn truncate(&mut self, len: usize, pool: &ChunkPool) {
        if len >= self.len {
            return;
        }
        self.len = len;
        pool.give(self.chunks.drain(len.div_ceil(CHUNK)..));
        let keep = len - self.chunks.len().saturating_sub(1) * CHUNK;
        if self.chunks.last().is_some_and(|last| last.len() > keep) {
            self.last_mut(pool).truncate(keep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::tests::fixture;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use xlsm_sim::Runtime;

    proptest! {
        /// One tape of appends, reads of every range shape and truncations
        /// (what a power cut does to a file) through the chunked content and
        /// a plain vector: every read, copied or shared, and every length
        /// agree, every chunk but the last is full, and a shared read keeps
        /// its bytes through every append and truncation after it. Appends
        /// and truncations land on chunk boundaries and a byte either side
        /// of them as often as anywhere.
        #[test]
        fn content_matches_a_plain_vector(
            tape in prop::collection::vec(
                (0u8..10, prop_oneof![3 => 0usize..3 * CHUNK, 1 => 0usize..20 * CHUNK], any::<u64>(), any::<u64>()),
                1..40,
            )
        ) {
            let pool = ChunkPool::default();
            let (mut content, mut reference) = (Content::default(), Vec::new());
            // Every read shared out so far, with the bytes it must keep.
            let mut shared: Vec<(FileBytes, Vec<u8>)> = Vec::new();
            // `len` moved to a chunk boundary and then by -2..=2 bytes.
            let near_boundary = |len: usize, pick: u64| {
                (len.next_multiple_of(CHUNK) + (pick % 5) as usize).saturating_sub(2)
            };
            for (kind, size, a, b) in tape {
                let len = reference.len();
                match kind {
                    0..=4 => {
                        let size = if kind < 3 { size } else { near_boundary(len, a).saturating_sub(len) };
                        let data: Vec<u8> = (0..size).map(|i| (a as usize + i * 31) as u8).collect();
                        content.extend(&data, &pool);
                        reference.extend_from_slice(&data);
                    }
                    5..=7 => {
                        let start = (a % (len as u64 + 1)) as usize;
                        let end = start + (b % ((len - start) as u64 + 1)) as usize;
                        prop_assert_eq!(content.read(start..end), reference[start..end].to_vec());
                        // A span, and a part of it that lies in one chunk
                        // when the span is long enough to hold one.
                        let span = content.read_shared(start..end);
                        let (whole, part) = (
                            span.get(start as u64..end as u64),
                            span.get((end - (end - start) / 3) as u64..end as u64),
                        );
                        prop_assert_eq!(&whole[..], &reference[start..end]);
                        let bytes = content.read_bytes(start..end);
                        prop_assert_eq!(&bytes[..], &reference[start..end]);
                        shared.push((bytes, reference[start..end].to_vec()));
                        shared.push((whole, reference[start..end].to_vec()));
                        shared.push((part, reference[end - (end - start) / 3..end].to_vec()));
                    }
                    _ => {
                        let keep = if kind == 8 {
                            (a % (len as u64 + 1)) as usize
                        } else {
                            near_boundary(len / 2, a).min(len)
                        };
                        content.truncate(keep, &pool);
                        reference.truncate(keep);
                    }
                }
                prop_assert_eq!(content.len(), reference.len());
                prop_assert_eq!(content.chunks.len(), reference.len().div_ceil(CHUNK));
                prop_assert!(content.chunks.iter().rev().skip(1).all(|c| c.len() == CHUNK));
                prop_assert_eq!(content.read(0..reference.len()), reference.clone());
                for (view, bytes) in &shared {
                    prop_assert_eq!(&view[..], &bytes[..]);
                }
            }
        }
    }

    /// A deleted file's chunks are reused by the next file's appends, in
    /// place of new ones.
    #[test]
    fn a_deleted_files_chunks_are_reused() {
        Runtime::new().run(|| {
            let (fs, _) = fixture(1024);
            let f = fs.create("a").unwrap();
            f.append(&vec![1u8; 10 * CHUNK]).unwrap();
            fs.delete("a").unwrap();
            // The handle keeps the file's bytes until it goes.
            assert_eq!(fs.pool.0.lock().len(), 0);
            drop(f);
            assert_eq!(fs.pool.0.lock().len(), 10);
            let g = fs.create("b").unwrap();
            g.append(&vec![2u8; 4 * CHUNK + 1]).unwrap();
            assert_eq!(fs.pool.0.lock().len(), 5);
            assert_eq!(
                g.read_at(0, 4 * CHUNK + 1).unwrap(),
                vec![2u8; 4 * CHUNK + 1]
            );
        });
    }

    /// The ledger as it was before barriers drained it: `device` keeps every
    /// page ever pushed and every barrier re-promotes all of it: the
    /// reference the drained [`Durability`] must agree with.
    #[derive(Default)]
    struct NeverDrained {
        device: BTreeMap<u64, u32>,
        durable: BTreeMap<u64, u32>,
    }

    impl NeverDrained {
        fn record_device_write(&mut self, page: u64, bytes: u32, write_through: bool) {
            let e = self.device.entry(page).or_insert(0);
            *e = (*e).max(bytes);
            if write_through {
                let d = self.durable.entry(page).or_insert(0);
                *d = (*d).max(bytes);
            }
        }

        fn promote(&mut self) {
            for (&page, &bytes) in &self.device {
                let d = self.durable.entry(page).or_insert(0);
                *d = (*d).max(bytes);
            }
        }

        fn lose_volatile(&mut self) {
            self.device.clear();
        }

        fn durable_prefix(&self) -> u64 {
            durable_prefix_bytes(|page| self.durable.get(&page).copied())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One tape of pushes (each page's bytes only growing), barriers and
        /// power cuts through the drained ledger and the never-drained
        /// reference: the durable prefix agrees after every event.
        #[test]
        fn drained_ledger_matches_never_drained_reference(
            tape in prop::collection::vec(
                (0u8..10, 0u64..6, 1u32..2 * PAGE_SIZE as u32, any::<bool>()),
                1..120,
            )
        ) {
            let mut new = Durability::default();
            let mut reference = NeverDrained::default();
            let mut sizes = [0u32; 6];
            for (kind, page, grow, write_through) in tape {
                match kind {
                    0..=6 => {
                        let size = &mut sizes[page as usize];
                        *size = (*size + grow).min(PAGE_SIZE as u32);
                        new.record_device_write(page, *size, write_through);
                        reference.record_device_write(page, *size, write_through);
                    }
                    7 | 8 => {
                        new.promote();
                        reference.promote();
                        prop_assert!(new.pending.is_empty());
                    }
                    _ => {
                        reference.lose_volatile();
                        prop_assert_eq!(new.lose_volatile(), reference.durable_prefix());
                    }
                }
                prop_assert_eq!(
                    durable_prefix_bytes(|page| new.durable.get(&page).copied()),
                    reference.durable_prefix()
                );
            }
        }
    }
}
